/*
 * Native core of the repository's CDCL SAT solver and of the mapping
 * encoder's clause emission kernel.
 *
 * The solver is an incremental MiniSat-style CDCL engine: clause ingest
 * (with a trusted mode and guard-tailed ternary routing), propagation over
 * binary, ternary, guarded-ternary and arena clauses, first-UIP conflict
 * analysis with learned-clause minimisation, a lazy VSIDS heap, Luby
 * restarts, LBD-driven learned-clause reduction with arena compaction,
 * solving under assumptions, conflict and time budgets, and a DRAT event
 * buffer.  It was ported line for line from a pure-Python engine it
 * matched call for call (status, model, counters and DRAT trace); its
 * search path is therefore fixed: a VSIDS heap ordered by activity
 * descending, then variable ascending; a stable sort of the learned
 * clauses by (LBD, -activity); the same double arithmetic as CPython
 * (build without -ffast-math and with -ffp-contract=off so no multiply-add
 * is fused).
 *
 * Data layout (unit propagation is the hottest loop, so everything is flat
 * integer arrays):
 *
 *   - literals are re-encoded as 2v (positive) / 2v+1 (negative); truth
 *     values live in one literal-indexed array;
 *   - clauses of four or more literals sit contiguously in one arena and
 *     are addressed by an integer clause ref indexing the parallel header
 *     arrays offset / size / lbd / activity / learned (size 0 marks a
 *     deleted clause awaiting compaction);
 *   - watch lists hold (clause ref, blocker literal) pairs: a clause whose
 *     blocker is already true is skipped without touching the arena.  The
 *     two watched literals are always at arena positions offset and
 *     offset + 1, and a clause that is a propagation reason has its
 *     implied literal at offset.  Deletion detaches the two watch entries
 *     by swap-remove and marks the header dead; the reduction compacts the
 *     arena once dead literals exceed a quarter of it, remapping every
 *     surviving ref in the watch lists, the clause lists and the reasons;
 *   - binary clauses are stored only as implications: (a, b) becomes
 *     -a -> b and -b -> a in per-literal implication lists;
 *   - ternary clauses are stored only as their three implication entries:
 *     (a, b, c) is registered under each negated literal as the pair of
 *     the other two, so a visit is two truth-value reads and clauses never
 *     migrate between lists;
 *   - guard-aware ternary lists: the mapper guards every clause of an
 *     attempt with -selector, which makes every binary clause ternary.
 *     Such a clause goes to gterns[lit], whose entries all share the one
 *     guard literal tern_guard[lit]: while the attempt is live a visit is
 *     a single truth-value read, the clause registers under only its two
 *     non-guard literals, and once the attempt is retired (guard true at
 *     the root) a whole list is dismissed with one check.  A clause whose
 *     guard differs from a list's falls back to the plain ternary lists;
 *     learned ternaries carrying the negation of a current assumption join
 *     the guarded lists.
 *
 * Propagation reasons are tagged integers, not clause pointers: code & 3 is
 * 0 for an arena ref (code >> 2), 1 for a binary clause (the other literal
 * in code >> 2), 2 for a ternary clause (the two other literals packed as
 * (a << TERN_SHIFT) | (b << 2)); -1 marks a decision.  The low literal
 * gets 30 bits, hence MAX_VARS (1 << 29) in repro/sat/backend.py.  Conflict
 * analysis resolves straight off these codes.
 *
 * DRAT events are buffered as [kind, n, lit_1 .. lit_n] records (kind
 * 1 = add, 2 = delete, external signed literals) for the caller to drain.
 *
 * The emission kernel (enc_*, at the end of this file) builds the mapping
 * encoder's C1-C3 clause families for repro/core/encoder.py and logs the
 * variable allocations and buffer flushes the encoder replays into its
 * clause sink; tests/core/test_emission_stream.py pins the resulting
 * streams.
 *
 * The library is built with the system C compiler on first use and loaded
 * through ctypes by repro/sat/native.py; it has no Python dependency.
 */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define CDCL_ABI 4

#define V_UNASSIGNED 0
#define V_TRUE 1
#define V_FALSE (-1)

#define NO_REASON (-1LL)
#define DEEP_MINIMISE_THRESHOLD 200
#define TERN_SHIFT 32
#define TERN_MASK ((1LL << 30) - 1)

#define ST_SAT 10
#define ST_UNSAT 20
#define ST_UNKNOWN 0

#define PROOF_ADD 1
#define PROOF_DELETE 2

/* ------------------------------------------------------------------ */
/* Growable vectors                                                    */
/* ------------------------------------------------------------------ */

static void *xrealloc(void *ptr, size_t size)
{
    void *out = realloc(ptr, size ? size : 1);
    if (out == NULL)
        abort();
    return out;
}

typedef struct {
    int32_t *d;
    int64_t n, cap;
} ivec;

typedef struct {
    int32_t a, b;
} pair;

typedef struct {
    pair *d;
    int64_t n, cap;
} pvec;

static inline void ivec_reserve(ivec *v, int64_t need)
{
    if (need > v->cap) {
        int64_t cap = v->cap ? v->cap * 2 : 4;
        while (cap < need)
            cap *= 2;
        v->d = xrealloc(v->d, (size_t)cap * sizeof *v->d);
        v->cap = cap;
    }
}

static inline void ivec_push(ivec *v, int32_t x)
{
    if (v->n == v->cap)
        ivec_reserve(v, v->n + 1);
    v->d[v->n++] = x;
}

static inline void pvec_push(pvec *v, int32_t a, int32_t b)
{
    if (v->n == v->cap) {
        int64_t cap = v->cap ? v->cap * 2 : 4;
        v->d = xrealloc(v->d, (size_t)cap * sizeof *v->d);
        v->cap = cap;
    }
    v->d[v->n].a = a;
    v->d[v->n].b = b;
    v->n++;
}

/* ------------------------------------------------------------------ */
/* Solver state                                                        */
/* ------------------------------------------------------------------ */

typedef struct {
    int32_t offset, size, lbd;
    int32_t learned;
    double act;
} header;

typedef struct {
    double act;
    int32_t var;
} hent;

/* Counters of one solve call plus the size gauges the wrapper reads. */
typedef struct {
    int64_t decisions, propagations, conflicts, restarts;
    int64_t learned_clauses, deleted_clauses, max_decision_level;
    int64_t binary_propagations, blocker_skips, arena_bytes;
    int64_t num_vars, num_learned, num_clauses, clauses_added;
} cdcl_info;

typedef struct {
    /* parameters */
    double var_decay, clause_decay;
    int64_t restart_base, learned_limit_base;
    int32_t initial_phase, proof;

    int32_t nvars;
    int64_t var_cap;
    int8_t *value;
    int32_t *level;
    int64_t *reason;
    double *activity;
    uint8_t *phase;
    pvec *watches;
    ivec *bins;
    pvec *terns;
    ivec *gterns;
    int32_t *tern_guard;
    uint8_t *seen;
    int32_t *heap_count;
    double *heap_act;
    uint32_t *lit_stamp; /* literal-indexed marks for clause simplification */
    uint32_t stamp;
    uint8_t *aguard; /* literal-indexed: negated assumptions of this call */

    int32_t *trail;
    int64_t trail_n;
    ivec trail_lim;
    int64_t qhead;

    ivec arena;
    header *hdr;
    int64_t hdr_n, hdr_cap;
    int64_t garbage;
    ivec clauses, learned;
    int64_t num_bin_problem, num_bin_learned;
    int64_t num_tern_problem, num_tern_learned;
    double var_inc, cla_inc;

    hent *heap;
    int64_t heap_n, heap_cap;

    int32_t unsat;
    int64_t propagations, bin_propagations, blocker_skips, clauses_added;

    /* per-call counters */
    cdcl_info call;
    int64_t start_props, start_bin, start_skips;

    /* work buffers */
    int32_t conflict_ref;
    ivec conflict_lits, learnt, to_clear, stack, tmp, removable;
    uint32_t *lvl_stamp;
    int64_t lvl_cap;
    uint32_t lvl_mark;
    ivec proof_buf;
} solver;

static void grow_vars(solver *s, int64_t count);

/* ------------------------------------------------------------------ */
/* Heap: min-heap under "activity descending, then variable ascending" */
/* ------------------------------------------------------------------ */

static inline int hless(hent x, hent y)
{
    return x.act > y.act || (x.act == y.act && x.var < y.var);
}

static void heap_sift_down(solver *s, int64_t pos)
{
    hent *h = s->heap;
    int64_t n = s->heap_n;
    hent item = h[pos];
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && hless(h[child + 1], h[child]))
            child++;
        if (!hless(h[child], item))
            break;
        h[pos] = h[child];
        pos = child;
    }
    h[pos] = item;
}

static void heap_push(solver *s, double act, int32_t var)
{
    if (s->heap_n == s->heap_cap) {
        int64_t cap = s->heap_cap ? s->heap_cap * 2 : 64;
        s->heap = xrealloc(s->heap, (size_t)cap * sizeof *s->heap);
        s->heap_cap = cap;
    }
    hent item = {act, var};
    int64_t pos = s->heap_n++;
    hent *h = s->heap;
    while (pos > 0) {
        int64_t parent = (pos - 1) / 2;
        if (!hless(item, h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

static hent heap_pop(solver *s)
{
    hent top = s->heap[0];
    s->heap_n--;
    if (s->heap_n > 0) {
        s->heap[0] = s->heap[s->heap_n];
        heap_sift_down(s, 0);
    }
    return top;
}

static void heapify(solver *s)
{
    for (int64_t pos = s->heap_n / 2 - 1; pos >= 0; pos--)
        heap_sift_down(s, pos);
}

/* ------------------------------------------------------------------ */
/* Setup and variables                                                 */
/* ------------------------------------------------------------------ */

static void free_state(solver *s)
{
    int64_t lits = 2 * (s->var_cap);
    for (int64_t i = 0; i < lits; i++) {
        free(s->watches[i].d);
        free(s->bins[i].d);
        free(s->terns[i].d);
        free(s->gterns[i].d);
    }
    free(s->value);
    free(s->level);
    free(s->reason);
    free(s->activity);
    free(s->phase);
    free(s->watches);
    free(s->bins);
    free(s->terns);
    free(s->gterns);
    free(s->tern_guard);
    free(s->seen);
    free(s->heap_count);
    free(s->heap_act);
    free(s->lit_stamp);
    free(s->aguard);
    free(s->trail);
    free(s->trail_lim.d);
    free(s->arena.d);
    free(s->hdr);
    free(s->clauses.d);
    free(s->learned.d);
    free(s->heap);
    free(s->conflict_lits.d);
    free(s->learnt.d);
    free(s->to_clear.d);
    free(s->stack.d);
    free(s->tmp.d);
    free(s->removable.d);
    free(s->lvl_stamp);
}

/* Fresh state with only the variable-0 sentinel. */
static void init_state(solver *s)
{
    s->nvars = 0;
    s->var_cap = 0;
    s->value = NULL;
    s->level = NULL;
    s->reason = NULL;
    s->activity = NULL;
    s->phase = NULL;
    s->watches = NULL;
    s->bins = NULL;
    s->terns = NULL;
    s->gterns = NULL;
    s->tern_guard = NULL;
    s->seen = NULL;
    s->heap_count = NULL;
    s->heap_act = NULL;
    s->lit_stamp = NULL;
    s->stamp = 0;
    s->aguard = NULL;
    s->trail = NULL;
    s->trail_n = 0;
    memset(&s->trail_lim, 0, sizeof s->trail_lim);
    s->qhead = 0;
    memset(&s->arena, 0, sizeof s->arena);
    s->hdr = NULL;
    s->hdr_n = s->hdr_cap = 0;
    s->garbage = 0;
    memset(&s->clauses, 0, sizeof s->clauses);
    memset(&s->learned, 0, sizeof s->learned);
    s->num_bin_problem = s->num_bin_learned = 0;
    s->num_tern_problem = s->num_tern_learned = 0;
    s->var_inc = 1.0;
    s->cla_inc = 1.0;
    s->heap = NULL;
    s->heap_n = s->heap_cap = 0;
    s->unsat = 0;
    s->propagations = s->bin_propagations = s->blocker_skips = 0;
    s->clauses_added = 0;
    s->conflict_ref = -1;
    memset(&s->conflict_lits, 0, sizeof s->conflict_lits);
    memset(&s->learnt, 0, sizeof s->learnt);
    memset(&s->to_clear, 0, sizeof s->to_clear);
    memset(&s->stack, 0, sizeof s->stack);
    memset(&s->tmp, 0, sizeof s->tmp);
    memset(&s->removable, 0, sizeof s->removable);
    s->lvl_stamp = NULL;
    s->lvl_cap = 0;
    s->lvl_mark = 0;

    /* Variable 0 is a sentinel: it exists in every per-variable array
     * but is never part of the heap. */
    s->start_props = s->start_bin = s->start_skips = 0;
    grow_vars(s, 1);
    s->value[0] = s->value[1] = V_UNASSIGNED;
    s->level[0] = 0;
    s->reason[0] = NO_REASON;
    s->tern_guard[0] = s->tern_guard[1] = -1;
    s->seen[0] = 0;
    s->activity[0] = 0.0;
    s->phase[0] = (uint8_t)s->initial_phase;
    s->heap_count[0] = 0;
    s->heap_act[0] = 0.0;
}

/* Make room for variables 0 .. count - 1 and initialise the new slots
 * (everything except activity / phase / heap bookkeeping, which the
 * caller sets). */
static void grow_vars(solver *s, int64_t count)
{
    if (count > s->var_cap) {
        int64_t old = s->var_cap;
        int64_t cap = old ? old : 16;
        while (cap < count)
            cap *= 2;
        s->value = xrealloc(s->value, (size_t)(2 * cap) * sizeof *s->value);
        s->level = xrealloc(s->level, (size_t)cap * sizeof *s->level);
        s->reason = xrealloc(s->reason, (size_t)cap * sizeof *s->reason);
        s->activity = xrealloc(s->activity, (size_t)cap * sizeof *s->activity);
        s->phase = xrealloc(s->phase, (size_t)cap * sizeof *s->phase);
        s->watches = xrealloc(s->watches, (size_t)(2 * cap) * sizeof *s->watches);
        s->bins = xrealloc(s->bins, (size_t)(2 * cap) * sizeof *s->bins);
        s->terns = xrealloc(s->terns, (size_t)(2 * cap) * sizeof *s->terns);
        s->gterns = xrealloc(s->gterns, (size_t)(2 * cap) * sizeof *s->gterns);
        s->tern_guard = xrealloc(s->tern_guard, (size_t)(2 * cap) * sizeof *s->tern_guard);
        s->seen = xrealloc(s->seen, (size_t)cap * sizeof *s->seen);
        s->heap_count = xrealloc(s->heap_count, (size_t)cap * sizeof *s->heap_count);
        s->heap_act = xrealloc(s->heap_act, (size_t)cap * sizeof *s->heap_act);
        s->lit_stamp = xrealloc(s->lit_stamp, (size_t)(2 * cap) * sizeof *s->lit_stamp);
        s->aguard = xrealloc(s->aguard, (size_t)(2 * cap) * sizeof *s->aguard);
        /* Every variable sits on the trail at most once (+1 for the
         * variable-0 sentinel a zero assumption would assign). */
        s->trail = xrealloc(s->trail, (size_t)(cap + 1) * sizeof *s->trail);
        memset(s->watches + 2 * old, 0, (size_t)(2 * (cap - old)) * sizeof *s->watches);
        memset(s->bins + 2 * old, 0, (size_t)(2 * (cap - old)) * sizeof *s->bins);
        memset(s->terns + 2 * old, 0, (size_t)(2 * (cap - old)) * sizeof *s->terns);
        memset(s->gterns + 2 * old, 0, (size_t)(2 * (cap - old)) * sizeof *s->gterns);
        memset(s->lit_stamp + 2 * old, 0, (size_t)(2 * (cap - old)) * sizeof *s->lit_stamp);
        memset(s->aguard + 2 * old, 0, (size_t)(2 * (cap - old)) * sizeof *s->aguard);
        s->var_cap = cap;
    }
}

/* Allocate variables nvars+1 .. nvars+count. */
static void new_vars(solver *s, int64_t count)
{
    grow_vars(s, (int64_t)s->nvars + count + 1);
    for (int64_t i = 0; i < count; i++) {
        int32_t var = ++s->nvars;
        double act = 0.0;
        uint8_t ph = (uint8_t)s->initial_phase;
        s->value[2 * var] = V_UNASSIGNED;
        s->value[2 * var + 1] = V_UNASSIGNED;
        s->level[var] = 0;
        s->reason[var] = NO_REASON;
        s->activity[var] = act;
        s->phase[var] = ph;
        s->tern_guard[2 * var] = -1;
        s->tern_guard[2 * var + 1] = -1;
        s->seen[var] = 0;
        s->heap_count[var] = 1;
        s->heap_act[var] = act;
        heap_push(s, act, var);
    }
}

static inline void ensure_vars(solver *s, int64_t num_vars)
{
    if (num_vars > s->nvars)
        new_vars(s, num_vars - s->nvars);
}

static inline int32_t to_internal(int32_t lit)
{
    return lit > 0 ? 2 * lit : 2 * -lit + 1;
}

static inline int32_t to_external(int32_t lit)
{
    return (lit & 1) ? -(lit >> 1) : (lit >> 1);
}

/* ------------------------------------------------------------------ */
/* DRAT event buffer                                                   */
/* ------------------------------------------------------------------ */

static void proof_event(solver *s, int32_t kind, const int32_t *lits, int64_t n, int negate)
{
    ivec *buf = &s->proof_buf;
    ivec_reserve(buf, buf->n + n + 2);
    buf->d[buf->n++] = kind;
    buf->d[buf->n++] = (int32_t)n;
    for (int64_t i = 0; i < n; i++)
        buf->d[buf->n++] = to_external(negate ? lits[i] ^ 1 : lits[i]);
}

/* ------------------------------------------------------------------ */
/* Clause management                                                   */
/* ------------------------------------------------------------------ */

/* Reads a DIMACS clause into s->tmp as simplified internal literals.
 * Returns 1 for a usable clause, 0 for a tautology / root-satisfied one,
 * -1 for a zero literal. */
static int simplify_external(solver *s, const int32_t *lits, int64_t n)
{
    s->tmp.n = 0;
    if (++s->stamp == 0) {
        memset(s->lit_stamp, 0, (size_t)(2 * s->var_cap) * sizeof *s->lit_stamp);
        s->stamp = 1;
    }
    uint32_t mark = s->stamp;
    for (int64_t i = 0; i < n; i++) {
        int32_t lit = lits[i];
        if (lit == 0)
            return -1;
        int32_t var = lit > 0 ? lit : -lit;
        if (var > s->nvars)
            ensure_vars(s, var);
        int32_t internal = lit > 0 ? var + var : var + var + 1;
        if (s->lit_stamp[internal ^ 1] == mark)
            return 0;
        if (s->lit_stamp[internal] == mark)
            continue;
        s->lit_stamp[internal] = mark;
        int8_t v = s->value[internal];
        if (v == V_TRUE)
            return 0;
        if (v == V_FALSE)
            continue;
        ivec_push(&s->tmp, internal);
    }
    return 1;
}

/* Re-check s->tmp after a root propagation sweep; 0 when satisfied. */
static int resimplify_tmp(solver *s)
{
    int64_t j = 0;
    for (int64_t i = 0; i < s->tmp.n; i++) {
        int32_t lit = s->tmp.d[i];
        int8_t v = s->value[lit];
        if (v == V_TRUE)
            return 0;
        if (v == V_FALSE)
            continue;
        s->tmp.d[j++] = lit;
    }
    s->tmp.n = j;
    return 1;
}

static int32_t push_header(solver *s, int32_t size, int32_t lbd, int32_t learned)
{
    if (s->hdr_n == s->hdr_cap) {
        int64_t cap = s->hdr_cap ? s->hdr_cap * 2 : 64;
        s->hdr = xrealloc(s->hdr, (size_t)cap * sizeof *s->hdr);
        s->hdr_cap = cap;
    }
    int32_t ref = (int32_t)s->hdr_n++;
    s->hdr[ref].offset = (int32_t)s->arena.n;
    s->hdr[ref].size = size;
    s->hdr[ref].lbd = lbd;
    s->hdr[ref].learned = learned;
    s->hdr[ref].act = 0.0;
    return ref;
}

/* Attach a clause: returns the arena ref, or -1 for a binary/ternary. */
static int32_t attach(solver *s, const int32_t *lits, int64_t length, int learned, int32_t lbd)
{
    if (length == 2) {
        int32_t first = lits[0], second = lits[1];
        ivec_push(&s->bins[first ^ 1], second);
        ivec_push(&s->bins[second ^ 1], first);
        if (learned)
            s->num_bin_learned++;
        else
            s->num_bin_problem++;
        return -1;
    }
    if (length == 3) {
        int32_t first = lits[0], second = lits[1], third = lits[2];
        pvec_push(&s->terns[first ^ 1], second, third);
        pvec_push(&s->terns[second ^ 1], first, third);
        pvec_push(&s->terns[third ^ 1], first, second);
        if (learned)
            s->num_tern_learned++;
        else
            s->num_tern_problem++;
        return -1;
    }
    int32_t ref = push_header(s, (int32_t)length, lbd, learned);
    ivec_reserve(&s->arena, s->arena.n + length);
    memcpy(s->arena.d + s->arena.n, lits, (size_t)length * sizeof *lits);
    s->arena.n += length;
    int32_t first = lits[0], second = lits[1];
    pvec_push(&s->watches[first ^ 1], ref, second);
    pvec_push(&s->watches[second ^ 1], ref, first);
    ivec_push(learned ? &s->learned : &s->clauses, ref);
    return ref;
}

/* Attach a guard-tailed ternary to the guarded lists (see the header). */
static int attach_guarded_ternary(solver *s, int32_t first, int32_t second, int32_t guard)
{
    int32_t slot_a = first ^ 1, slot_b = second ^ 1;
    int32_t bound_a = s->tern_guard[slot_a], bound_b = s->tern_guard[slot_b];
    if ((bound_a != -1 && bound_a != guard) || (bound_b != -1 && bound_b != guard))
        return 0;
    s->tern_guard[slot_a] = guard;
    s->tern_guard[slot_b] = guard;
    ivec_push(&s->gterns[slot_a], second);
    ivec_push(&s->gterns[slot_b], first);
    return 1;
}

static void detach(solver *s, int32_t ref)
{
    int32_t offset = s->hdr[ref].offset;
    int32_t watched[2] = {s->arena.d[offset], s->arena.d[offset + 1]};
    for (int k = 0; k < 2; k++) {
        pvec *ws = &s->watches[watched[k] ^ 1];
        for (int64_t i = 0; i < ws->n; i++) {
            if (ws->d[i].a == ref) {
                ws->d[i] = ws->d[ws->n - 1];
                ws->n--;
                break;
            }
        }
    }
}

static void compact_arena(solver *s)
{
    int32_t *remap = xrealloc(NULL, (size_t)s->hdr_n * sizeof *remap);
    ivec arena = {0, 0, 0};
    ivec_reserve(&arena, s->arena.n - s->garbage + 1);
    int64_t kept = 0;
    for (int64_t ref = 0; ref < s->hdr_n; ref++) {
        header h = s->hdr[ref];
        if (h.size == 0) {
            remap[ref] = -1;
            continue;
        }
        remap[ref] = (int32_t)kept;
        memcpy(arena.d + arena.n, s->arena.d + h.offset, (size_t)h.size * sizeof *arena.d);
        h.offset = (int32_t)arena.n;
        arena.n += h.size;
        s->hdr[kept++] = h;
    }
    free(s->arena.d);
    s->arena = arena;
    s->hdr_n = kept;
    s->garbage = 0;
    for (int64_t i = 0; i < s->clauses.n; i++)
        s->clauses.d[i] = remap[s->clauses.d[i]];
    for (int64_t i = 0; i < s->learned.n; i++)
        s->learned.d[i] = remap[s->learned.d[i]];
    int64_t lits = 2 * ((int64_t)s->nvars + 1);
    for (int64_t lit = 0; lit < lits; lit++) {
        pvec *ws = &s->watches[lit];
        for (int64_t i = 0; i < ws->n; i++)
            ws->d[i].a = remap[ws->d[i].a];
    }
    for (int64_t i = 0; i < s->trail_n; i++) {
        int32_t var = s->trail[i] >> 1;
        int64_t code = s->reason[var];
        if (code >= 0 && (code & 3) == 0)
            s->reason[var] = (int64_t)remap[code >> 2] << 2;
    }
    free(remap);
}

/* ------------------------------------------------------------------ */
/* Assignment and propagation                                          */
/* ------------------------------------------------------------------ */

static inline void assign(solver *s, int32_t lit, int64_t reason)
{
    int32_t var = lit >> 1;
    s->value[lit] = V_TRUE;
    s->value[lit ^ 1] = V_FALSE;
    s->level[var] = (int32_t)s->trail_lim.n;
    s->reason[var] = reason;
    s->phase[var] = (lit & 1) == 0;
    s->trail[s->trail_n++] = lit;
}

static int enqueue(solver *s, int32_t lit, int64_t reason)
{
    int8_t current = s->value[lit];
    if (current == V_TRUE)
        return 1;
    if (current == V_FALSE)
        return 0;
    assign(s, lit, reason);
    return 1;
}

static inline void set_conflict(solver *s, int32_t ref, int32_t a, int32_t b, int32_t c, int n)
{
    s->conflict_ref = ref;
    s->conflict_lits.n = 0;
    if (n >= 1)
        ivec_push(&s->conflict_lits, a);
    if (n >= 2)
        ivec_push(&s->conflict_lits, b);
    if (n >= 3)
        ivec_push(&s->conflict_lits, c);
}

/* Unit propagation: 1 on conflict (s->conflict_ref / conflict_lits,
 * an arena conflict is read from the arena itself), else 0. */
static int propagate(solver *s)
{
    int8_t *value = s->value;
    int32_t *trail = s->trail;
    int32_t *arena = s->arena.d;
    header *hdr = s->hdr;
    int64_t props = 0, bin_props = 0, skips = 0;
    int64_t qhead = s->qhead;
    int conflict = 0;

    while (!conflict && qhead < s->trail_n) {
        int32_t lit = trail[qhead++];
        props++;
        int32_t false_lit = lit ^ 1;

        ivec *bl = &s->bins[lit];
        for (int64_t i = 0; i < bl->n; i++) {
            int32_t implied = bl->d[i];
            int8_t iv = value[implied];
            if (iv == V_TRUE)
                continue;
            if (iv == V_FALSE) {
                set_conflict(s, -1, implied, false_lit, 0, 2);
                conflict = 1;
                break;
            }
            assign(s, implied, ((int64_t)false_lit << 2) | 1);
            bin_props++;
        }
        if (conflict)
            break;

        pvec *tl = &s->terns[lit];
        for (int64_t i = 0; i < tl->n; i++) {
            int32_t other1 = tl->d[i].a, other2 = tl->d[i].b;
            int8_t value1 = value[other1];
            if (value1 == V_TRUE)
                continue;
            int8_t value2 = value[other2];
            if (value2 == V_TRUE)
                continue;
            if (value1 == V_FALSE) {
                if (value2 == V_FALSE) {
                    set_conflict(s, -1, other1, other2, false_lit, 3);
                    conflict = 1;
                    break;
                }
                assign(s, other2, ((int64_t)other1 << TERN_SHIFT) | ((int64_t)false_lit << 2) | 2);
                bin_props++;
            } else if (value2 == V_FALSE) {
                assign(s, other1, ((int64_t)other2 << TERN_SHIFT) | ((int64_t)false_lit << 2) | 2);
                bin_props++;
            }
        }
        if (conflict)
            break;

        ivec *gl = &s->gterns[lit];
        if (gl->n) {
            int32_t guard = s->tern_guard[lit];
            int8_t guard_value = value[guard];
            if (guard_value == V_FALSE) {
                for (int64_t i = 0; i < gl->n; i++) {
                    int32_t other = gl->d[i];
                    int8_t ov = value[other];
                    if (ov == V_TRUE)
                        continue;
                    if (ov == V_FALSE) {
                        set_conflict(s, -1, other, guard, false_lit, 3);
                        conflict = 1;
                        break;
                    }
                    assign(s, other, ((int64_t)guard << TERN_SHIFT) | ((int64_t)false_lit << 2) | 2);
                    bin_props++;
                }
                if (conflict)
                    break;
            } else if (guard_value == V_UNASSIGNED) {
                for (int64_t i = 0; i < gl->n; i++) {
                    int32_t other = gl->d[i];
                    if (value[other] == V_FALSE) {
                        assign(s, guard, ((int64_t)other << TERN_SHIFT) | ((int64_t)false_lit << 2) | 2);
                        bin_props++;
                        break;
                    }
                }
            }
        }

        pvec *ws = &s->watches[lit];
        pair *w = ws->d;
        int64_t n = ws->n, i = 0, j = 0;
        while (i < n) {
            pair entry = w[i++];
            if (value[entry.b] == V_TRUE) {
                w[j++] = entry;
                skips++;
                continue;
            }
            int32_t ref = entry.a;
            int32_t offset = hdr[ref].offset;
            int32_t *c = arena + offset;
            int32_t first = c[0];
            if (first == false_lit) {
                first = c[1];
                c[0] = first;
                c[1] = false_lit;
            }
            if (value[first] == V_TRUE) {
                w[j].a = ref;
                w[j].b = first;
                j++;
                continue;
            }
            int32_t size = hdr[ref].size;
            int found = 0;
            for (int32_t pos = 2; pos < size; pos++) {
                int32_t candidate = c[pos];
                if (value[candidate] != V_FALSE) {
                    c[1] = candidate;
                    c[pos] = false_lit;
                    pvec_push(&s->watches[candidate ^ 1], ref, first);
                    found = 1;
                    break;
                }
            }
            if (found)
                continue;
            w[j].a = ref;
            w[j].b = first;
            j++;
            if (value[first] == V_FALSE) {
                s->conflict_ref = ref;
                conflict = 1;
                while (i < n)
                    w[j++] = w[i++];
                break;
            }
            assign(s, first, (int64_t)ref << 2);
        }
        ws->n = j;
    }

    s->qhead = conflict ? s->trail_n : qhead;
    s->propagations += props;
    s->bin_propagations += bin_props;
    s->blocker_skips += skips;
    return conflict;
}

/* ------------------------------------------------------------------ */
/* Activities                                                          */
/* ------------------------------------------------------------------ */

static void rescale_var_activity(solver *s)
{
    for (int64_t i = 1; i <= s->nvars; i++)
        s->activity[i] *= 1e-100;
    for (int64_t i = 0; i <= s->nvars; i++)
        s->heap_act[i] *= 1e-100;
    for (int64_t i = 0; i < s->heap_n; i++)
        s->heap[i].act = s->activity[s->heap[i].var];
    heapify(s);
    s->var_inc *= 1e-100;
}

static void bump_clause(solver *s, int32_t ref)
{
    s->hdr[ref].act += s->cla_inc;
    if (s->hdr[ref].act > 1e20) {
        for (int64_t i = 0; i < s->learned.n; i++)
            s->hdr[s->learned.d[i]].act *= 1e-20;
        s->cla_inc *= 1e-20;
    }
}

/* ------------------------------------------------------------------ */
/* Conflict analysis                                                   */
/* ------------------------------------------------------------------ */

/* The literals a reason code resolves on (the implied literal excluded). */
static inline const int32_t *reason_others(solver *s, int64_t code, int32_t *buf, int64_t *n)
{
    int64_t tag = code & 3;
    if (tag == 0) {
        header *h = &s->hdr[code >> 2];
        *n = h->size - 1;
        return s->arena.d + h->offset + 1;
    }
    if (tag == 1) {
        buf[0] = (int32_t)(code >> 2);
        *n = 1;
        return buf;
    }
    buf[0] = (int32_t)(code >> TERN_SHIFT);
    buf[1] = (int32_t)((code >> 2) & TERN_MASK);
    *n = 2;
    return buf;
}

static int lit_redundant(solver *s, int32_t lit, uint32_t abstract_levels)
{
    int64_t *reason = s->reason;
    uint8_t *seen = s->seen;
    int32_t *level = s->level;
    ivec *to_clear = &s->to_clear;
    ivec *stack = &s->stack;
    int64_t marked_from = to_clear->n;
    int32_t buf[2];
    stack->n = 0;
    ivec_push(stack, lit);
    while (stack->n) {
        int32_t current = stack->d[--stack->n];
        int64_t code = reason[current >> 1];
        int failed = 0;
        if (code == NO_REASON) {
            failed = 1;
        } else {
            int64_t n;
            const int32_t *others = reason_others(s, code, buf, &n);
            for (int64_t k = 0; k < n; k++) {
                int32_t other = others[k];
                int32_t var = other >> 1;
                if (seen[var] || level[var] == 0)
                    continue;
                if (reason[var] == NO_REASON ||
                    !(abstract_levels & (1u << (level[var] & 31)))) {
                    failed = 1;
                    break;
                }
                seen[var] = 1;
                ivec_push(to_clear, other);
                ivec_push(stack, other);
            }
        }
        if (failed) {
            for (int64_t k = marked_from; k < to_clear->n; k++)
                seen[to_clear->d[k] >> 1] = 0;
            to_clear->n = marked_from;
            return 0;
        }
    }
    return 1;
}

static int redundant(solver *s, int32_t lit)
{
    int64_t code = s->reason[lit >> 1];
    if (code == NO_REASON)
        return 0;
    uint8_t *seen = s->seen;
    int32_t *level = s->level;
    int32_t this_var = lit >> 1;
    int64_t tag = code & 3;
    if (tag == 0) {
        header *h = &s->hdr[code >> 2];
        const int32_t *c = s->arena.d + h->offset;
        for (int32_t k = 0; k < h->size; k++) {
            int32_t var = c[k] >> 1;
            if (var == this_var)
                continue;
            if (!seen[var] && level[var] != 0)
                return 0;
        }
        return 1;
    }
    if (tag == 1) {
        int32_t other_var = (int32_t)(code >> 2) >> 1;
        return seen[other_var] || level[other_var] == 0;
    }
    int32_t others[2] = {(int32_t)(code >> TERN_SHIFT), (int32_t)((code >> 2) & TERN_MASK)};
    for (int k = 0; k < 2; k++) {
        int32_t var = others[k] >> 1;
        if (!seen[var] && level[var] != 0)
            return 0;
    }
    return 1;
}

/* First-UIP conflict analysis: leaves the learned clause in s->learnt. */
static void analyze(solver *s, int32_t *backtrack_level, int32_t *lbd)
{
    ivec *learnt = &s->learnt;
    uint8_t *seen = s->seen;
    int32_t *level = s->level;
    int32_t *trail = s->trail;
    int64_t counter = 0;
    int32_t lit = -1;
    int64_t trail_index = s->trail_n - 1;
    int32_t current_level = (int32_t)s->trail_lim.n;
    int32_t buf[2];
    const int32_t *others;
    int64_t n;

    learnt->n = 0;
    ivec_push(learnt, 0);
    if (s->conflict_ref >= 0) {
        header *h = &s->hdr[s->conflict_ref];
        others = s->arena.d + h->offset;
        n = h->size;
        if (h->learned)
            bump_clause(s, s->conflict_ref);
    } else {
        others = s->conflict_lits.d;
        n = s->conflict_lits.n;
    }
    for (;;) {
        for (int64_t k = 0; k < n; k++) {
            int32_t other = others[k];
            int32_t var = other >> 1;
            if (seen[var] || level[var] == 0)
                continue;
            seen[var] = 1;
            double bumped = s->activity[var] + s->var_inc;
            s->activity[var] = bumped;
            if (bumped > 1e100)
                rescale_var_activity(s);
            if (level[var] == current_level)
                counter++;
            else
                ivec_push(learnt, other);
        }
        while (!seen[trail[trail_index] >> 1])
            trail_index--;
        lit = trail[trail_index];
        trail_index--;
        int32_t var = lit >> 1;
        seen[var] = 0;
        counter--;
        if (counter == 0)
            break;
        int64_t code = s->reason[var];
        if ((code & 3) == 0 && s->hdr[code >> 2].learned)
            bump_clause(s, (int32_t)(code >> 2));
        others = reason_others(s, code, buf, &n);
    }
    learnt->d[0] = lit ^ 1;

    /* Minimisation (MiniSat ccmin 2 on long clauses, one-step otherwise). */
    ivec *to_clear = &s->to_clear;
    to_clear->n = 0;
    ivec_reserve(to_clear, learnt->n);
    memcpy(to_clear->d, learnt->d, (size_t)learnt->n * sizeof *learnt->d);
    to_clear->n = learnt->n;
    int64_t kept = 1;
    if (learnt->n > DEEP_MINIMISE_THRESHOLD) {
        uint32_t abstract_levels = 0;
        for (int64_t k = 1; k < learnt->n; k++)
            abstract_levels |= 1u << (level[learnt->d[k] >> 1] & 31);
        for (int64_t k = 1; k < learnt->n; k++)
            if (!lit_redundant(s, learnt->d[k], abstract_levels))
                learnt->d[kept++] = learnt->d[k];
    } else {
        for (int64_t k = 1; k < learnt->n; k++)
            if (!redundant(s, learnt->d[k]))
                learnt->d[kept++] = learnt->d[k];
    }
    learnt->n = kept;
    for (int64_t k = 0; k < to_clear->n; k++)
        seen[to_clear->d[k] >> 1] = 0;

    if (learnt->n == 1) {
        *backtrack_level = 0;
    } else {
        int64_t max_index = 1;
        int32_t max_level = level[learnt->d[1] >> 1];
        for (int64_t k = 2; k < learnt->n; k++) {
            int32_t lit_level = level[learnt->d[k] >> 1];
            if (lit_level > max_level) {
                max_level = lit_level;
                max_index = k;
            }
        }
        int32_t swap = learnt->d[1];
        learnt->d[1] = learnt->d[max_index];
        learnt->d[max_index] = swap;
        *backtrack_level = max_level;
    }

    /* LBD: distinct decision levels among the learned literals. */
    if (current_level + 1 > s->lvl_cap) {
        int64_t cap = s->lvl_cap ? s->lvl_cap : 64;
        while (cap < current_level + 1)
            cap *= 2;
        s->lvl_stamp = xrealloc(s->lvl_stamp, (size_t)cap * sizeof *s->lvl_stamp);
        memset(s->lvl_stamp + s->lvl_cap, 0, (size_t)(cap - s->lvl_cap) * sizeof *s->lvl_stamp);
        s->lvl_cap = cap;
    }
    if (++s->lvl_mark == 0) {
        memset(s->lvl_stamp, 0, (size_t)s->lvl_cap * sizeof *s->lvl_stamp);
        s->lvl_mark = 1;
    }
    int32_t distinct = 0;
    for (int64_t k = 0; k < learnt->n; k++) {
        int32_t lit_level = level[learnt->d[k] >> 1];
        if (s->lvl_stamp[lit_level] != s->lvl_mark) {
            s->lvl_stamp[lit_level] = s->lvl_mark;
            distinct++;
        }
    }
    *lbd = distinct;
}

/* ------------------------------------------------------------------ */
/* Backtracking and decisions                                          */
/* ------------------------------------------------------------------ */

static void backtrack(solver *s, int64_t target)
{
    if (s->trail_lim.n <= target)
        return;
    int64_t boundary = s->trail_lim.d[target];
    for (int64_t i = boundary; i < s->trail_n; i++) {
        int32_t lit = s->trail[i];
        int32_t var = lit >> 1;
        s->value[lit] = V_UNASSIGNED;
        s->value[lit ^ 1] = V_UNASSIGNED;
        s->reason[var] = NO_REASON;
        double current = s->activity[var];
        if (s->heap_count[var] == 0 || s->heap_act[var] != current) {
            heap_push(s, current, var);
            s->heap_count[var]++;
            s->heap_act[var] = current;
        }
    }
    s->trail_n = boundary;
    s->trail_lim.n = target;
    s->qhead = s->trail_n;
}

/* Next decision literal, or -1 when every variable is assigned. */
static int32_t pick_branch_literal(solver *s)
{
    while (s->heap_n) {
        hent top = heap_pop(s);
        int32_t var = top.var;
        s->heap_count[var]--;
        if (top.act == s->heap_act[var])
            s->heap_act[var] = -1.0;
        if (s->value[var + var] == V_UNASSIGNED)
            return s->phase[var] ? var + var : var + var + 1;
    }
    /* The heap drained past its stale entries: rebuild it once from the
     * unassigned variables. */
    s->heap_n = 0;
    for (int32_t var = 1; var <= s->nvars; var++) {
        s->heap_count[var] = 0;
        if (s->value[var + var] == V_UNASSIGNED) {
            if (s->heap_n == s->heap_cap) {
                int64_t cap = s->heap_cap ? s->heap_cap * 2 : 64;
                s->heap = xrealloc(s->heap, (size_t)cap * sizeof *s->heap);
                s->heap_cap = cap;
            }
            s->heap[s->heap_n].act = s->activity[var];
            s->heap[s->heap_n].var = var;
            s->heap_n++;
            s->heap_count[var] = 1;
            s->heap_act[var] = s->activity[var];
        }
    }
    if (s->heap_n == 0)
        return -1;
    heapify(s);
    hent top = heap_pop(s);
    int32_t var = top.var;
    s->heap_count[var]--;
    return s->phase[var] ? var + var : var + var + 1;
}

/* ------------------------------------------------------------------ */
/* Clause database reduction                                           */
/* ------------------------------------------------------------------ */

/* Strict "comes before" under the key (lbd ascending, activity descending). */
static inline int learned_before(const header *hdr, int32_t x, int32_t y)
{
    if (hdr[x].lbd != hdr[y].lbd)
        return hdr[x].lbd < hdr[y].lbd;
    return hdr[x].act > hdr[y].act;
}

/* Stable bottom-up merge sort: ties keep their order, which the search
 * path depends on. */
static void sort_learned(solver *s)
{
    int64_t n = s->learned.n;
    if (n < 2)
        return;
    int32_t *a = s->learned.d;
    int32_t *b = xrealloc(NULL, (size_t)n * sizeof *b);
    int32_t *src = a, *dst = b;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                if (learned_before(s->hdr, src[j], src[i]))
                    dst[k++] = src[j++];
                else
                    dst[k++] = src[i++];
            }
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        int32_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a)
        memcpy(a, src, (size_t)n * sizeof *a);
    free(b);
}

static void reduce_learned(solver *s)
{
    sort_learned(s);
    int64_t keep = s->learned.n / 2;
    ivec *removable = &s->removable;
    removable->n = 0;
    ivec_reserve(removable, s->learned.n - keep);
    memcpy(removable->d, s->learned.d + keep, (size_t)(s->learned.n - keep) * sizeof *removable->d);
    removable->n = s->learned.n - keep;
    s->learned.n = keep;

    /* Locked clauses (current reasons) survive; mark them by ref. */
    uint8_t *locked = xrealloc(NULL, (size_t)s->hdr_n);
    memset(locked, 0, (size_t)s->hdr_n);
    for (int64_t i = 0; i < s->trail_n; i++) {
        int64_t code = s->reason[s->trail[i] >> 1];
        if (code >= 0 && (code & 3) == 0)
            locked[code >> 2] = 1;
    }
    for (int64_t i = 0; i < removable->n; i++) {
        int32_t ref = removable->d[i];
        if (locked[ref] || s->hdr[ref].lbd <= 2) {
            ivec_push(&s->learned, ref);
            continue;
        }
        if (s->proof)
            proof_event(s, PROOF_DELETE, s->arena.d + s->hdr[ref].offset, s->hdr[ref].size, 0);
        detach(s, ref);
        s->garbage += s->hdr[ref].size;
        s->hdr[ref].size = 0;
        s->call.deleted_clauses++;
    }
    free(locked);
    if (s->garbage && s->garbage * 4 > s->arena.n)
        compact_arena(s);
}

/* ------------------------------------------------------------------ */
/* Search                                                              */
/* ------------------------------------------------------------------ */

static int64_t luby(int64_t index)
{
    for (;;) {
        int k = 0;
        for (int64_t x = index; x; x >>= 1)
            k++;
        if (index == ((int64_t)1 << k) - 1)
            return (int64_t)1 << (k - 1);
        index = index - ((int64_t)1 << (k - 1)) + 1;
    }
}

static double now_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

static int search(solver *s, const int32_t *assumptions, int64_t na,
                  int64_t conflict_limit, int has_time_limit, double time_limit,
                  double start_time)
{
    int64_t restart_conflicts = s->restart_base * luby(s->call.restarts + 1);
    int64_t conflicts_since_restart = 0;
    int64_t learned_limit = s->learned_limit_base;

    for (;;) {
        if (propagate(s)) {
            s->call.conflicts++;
            conflicts_since_restart++;
            if (s->trail_lim.n == 0) {
                s->unsat = 1;
                if (s->proof)
                    proof_event(s, PROOF_ADD, NULL, 0, 0);
                return ST_UNSAT;
            }
            int32_t backtrack_level, lbd;
            analyze(s, &backtrack_level, &lbd);
            int32_t *learnt = s->learnt.d;
            int64_t length = s->learnt.n;
            if (s->proof)
                proof_event(s, PROOF_ADD, learnt, length, 0);
            backtrack(s, backtrack_level);
            if (length == 1) {
                enqueue(s, learnt[0], NO_REASON);
            } else {
                s->call.learned_clauses++;
                if (length == 2) {
                    attach(s, learnt, 2, 1, lbd);
                    enqueue(s, learnt[0], ((int64_t)learnt[1] << 2) | 1);
                } else if (length == 3) {
                    int32_t guard = -1, other = -1;
                    if (s->aguard[learnt[1]]) {
                        other = learnt[2];
                        guard = learnt[1];
                    } else if (s->aguard[learnt[2]]) {
                        other = learnt[1];
                        guard = learnt[2];
                    }
                    if (guard != -1 && attach_guarded_ternary(s, learnt[0], other, guard))
                        s->num_tern_learned++;
                    else
                        attach(s, learnt, 3, 1, lbd);
                    enqueue(s, learnt[0],
                            ((int64_t)learnt[1] << TERN_SHIFT) | ((int64_t)learnt[2] << 2) | 2);
                } else {
                    int32_t ref = attach(s, learnt, length, 1, lbd);
                    enqueue(s, learnt[0], (int64_t)ref << 2);
                }
            }
            s->var_inc /= s->var_decay;
            s->cla_inc /= s->clause_decay;

            if (conflict_limit >= 0 && s->call.conflicts >= conflict_limit)
                return ST_UNKNOWN;
            if (has_time_limit && (s->call.conflicts & 127) == 0) {
                if (now_seconds() - start_time > time_limit)
                    return ST_UNKNOWN;
            }
            continue;
        }

        if (conflicts_since_restart >= restart_conflicts) {
            s->call.restarts++;
            conflicts_since_restart = 0;
            restart_conflicts = s->restart_base * luby(s->call.restarts + 1);
            backtrack(s, s->trail_lim.n < na ? s->trail_lim.n : na);
        }

        if (s->learned.n > learned_limit) {
            reduce_learned(s);
            learned_limit += s->learned_limit_base / 2;
        }

        if (has_time_limit && now_seconds() - start_time > time_limit)
            return ST_UNKNOWN;

        int32_t next = -1;
        int64_t level = s->trail_lim.n;
        if (level < na) {
            int32_t lit = assumptions[level];
            int8_t v = s->value[lit];
            if (v == V_FALSE) {
                if (s->proof)
                    proof_event(s, PROOF_ADD, assumptions, na, 1);
                return ST_UNSAT;
            }
            if (v == V_TRUE) {
                ivec_push(&s->trail_lim, (int32_t)s->trail_n);
                continue;
            }
            next = lit;
        }
        if (next == -1) {
            next = pick_branch_literal(s);
            if (next == -1)
                return ST_SAT;
        }
        s->call.decisions++;
        ivec_push(&s->trail_lim, (int32_t)s->trail_n);
        if (s->trail_lim.n > s->call.max_decision_level)
            s->call.max_decision_level = s->trail_lim.n;
        enqueue(s, next, NO_REASON);
    }
}

/* ------------------------------------------------------------------ */
/* Exported API                                                        */
/* ------------------------------------------------------------------ */

int cdcl_abi(void) { return CDCL_ABI; }

solver *cdcl_new(double var_decay, double clause_decay, int64_t restart_base,
                 int64_t learned_limit_base, int32_t initial_phase, int32_t proof)
{
    solver *s = xrealloc(NULL, sizeof *s);
    memset(s, 0, sizeof *s);
    s->var_decay = var_decay;
    s->clause_decay = clause_decay;
    s->restart_base = restart_base;
    s->learned_limit_base = learned_limit_base;
    s->initial_phase = initial_phase ? 1 : 0;
    s->proof = proof ? 1 : 0;
    init_state(s);
    return s;
}

void cdcl_free(solver *s)
{
    if (s == NULL)
        return;
    free_state(s);
    free(s->proof_buf.d);
    free(s);
}

/* Drop every variable and clause. */
void cdcl_reset(solver *s)
{
    free_state(s);
    init_state(s);
}

int32_t cdcl_new_vars(solver *s, int64_t count)
{
    int32_t first = s->nvars + 1;
    new_vars(s, count);
    return first;
}

/* Add one clause: 1, or 0 once the formula is UNSAT at the root,
 * -1 for a zero literal (the caller raises ValueError). */
int cdcl_add_clause(solver *s, const int32_t *lits, int64_t n)
{
    if (s->unsat)
        return 0;
    s->clauses_added++;
    backtrack(s, 0);
    int r = simplify_external(s, lits, n);
    if (r < 0)
        return -1;
    if (r == 0)
        return 1;
    if (s->tmp.n == 0) {
        s->unsat = 1;
        return 0;
    }
    if (s->tmp.n == 1) {
        if (!enqueue(s, s->tmp.d[0], NO_REASON) || propagate(s)) {
            s->unsat = 1;
            return 0;
        }
        return 1;
    }
    attach(s, s->tmp.d, s->tmp.n, 0, 0);
    return 1;
}

/* Vet a flattened batch before cdcl_add_clauses reads it: 0 when every
 * length is non-negative, the lengths add up to nlits and every literal's
 * variable is below limit; -1 on bad lengths, -2 on an out-of-range
 * literal. */
int cdcl_check_batch(const int32_t *lits, int64_t nlits, const int32_t *lens,
                     int64_t nclauses, int32_t limit)
{
    int64_t total = 0;
    for (int64_t ci = 0; ci < nclauses; ci++) {
        if (lens[ci] < 0)
            return -1;
        total += lens[ci];
    }
    if (total != nlits)
        return -1;
    for (int64_t k = 0; k < nlits; k++)
        if (lits[k] >= limit || lits[k] <= -limit)
            return -2;
    return 0;
}

/* Add a flattened batch: clause i is the next
 * lens[i] literals of lits.  Same returns as cdcl_add_clause. */
int cdcl_add_clauses(solver *s, const int32_t *lits, const int32_t *lens, int64_t nclauses,
                     int32_t trusted, int32_t has_guard, int32_t guard)
{
    if (s->unsat)
        return 0;
    backtrack(s, 0);
    int64_t count = 0;
    int pending = s->qhead < s->trail_n;
    int32_t guard_internal = -1;
    if (has_guard) {
        ensure_vars(s, guard > 0 ? guard : -(int64_t)guard);
        guard_internal = to_internal(guard);
    }
    ivec *tmp = &s->tmp;
    int64_t pos = 0;
    for (int64_t ci = 0; ci < nclauses; ci++) {
        const int32_t *clause = lits + pos;
        int64_t n = lens[ci];
        pos += n;
        count++;
        if (trusted) {
            tmp->n = 0;
            int satisfied = 0;
            for (int64_t k = 0; k < n; k++) {
                int32_t lit = clause[k];
                int32_t internal = lit > 0 ? lit + lit : 1 - (lit + lit);
                if ((internal >> 1) > s->nvars)
                    ensure_vars(s, lit > 0 ? lit : -(int64_t)lit);
                int8_t v = s->value[internal];
                if (v == V_TRUE) {
                    satisfied = 1;
                    break;
                }
                if (v == V_FALSE)
                    continue;
                ivec_push(tmp, internal);
            }
            if (satisfied)
                continue;
        } else {
            int r = simplify_external(s, clause, n);
            if (r < 0)
                return -1;
            if (r == 0)
                continue;
        }
        int64_t length = tmp->n;
        if (length == 0) {
            s->clauses_added += count;
            s->unsat = 1;
            return 0;
        }
        if (length == 1) {
            if (!enqueue(s, tmp->d[0], NO_REASON)) {
                s->clauses_added += count;
                s->unsat = 1;
                return 0;
            }
            pending = 1;
            continue;
        }
        if (pending) {
            if (propagate(s)) {
                s->clauses_added += count;
                s->unsat = 1;
                return 0;
            }
            pending = 0;
            if (!resimplify_tmp(s))
                continue;
            length = tmp->n;
            if (length == 0) {
                s->clauses_added += count;
                s->unsat = 1;
                return 0;
            }
            if (length == 1) {
                if (!enqueue(s, tmp->d[0], NO_REASON)) {
                    s->clauses_added += count;
                    s->unsat = 1;
                    return 0;
                }
                pending = 1;
                continue;
            }
        }
        if (length == 3 && tmp->d[2] == guard_internal) {
            int32_t first = tmp->d[0], second = tmp->d[1];
            if (attach_guarded_ternary(s, first, second, guard_internal)) {
                s->num_tern_problem++;
                continue;
            }
        }
        attach(s, tmp->d, length, 0, 0);
    }
    s->clauses_added += count;
    if (pending && propagate(s)) {
        s->unsat = 1;
        return 0;
    }
    return 1;
}

/* Start a solve call: per-call counters from here. */
void cdcl_begin(solver *s)
{
    memset(&s->call, 0, sizeof s->call);
    s->start_props = s->propagations;
    s->start_bin = s->bin_propagations;
    s->start_skips = s->blocker_skips;
}

/* Decide under external assumption literals.  conflict_limit < 0 means
 * none.  Returns 10 (SAT), 20 (UNSAT) or 0 (UNKNOWN). */
int cdcl_solve(solver *s, const int32_t *assumptions, int64_t na, int64_t conflict_limit,
               int32_t has_time_limit, double time_limit, double start_time)
{
    backtrack(s, 0);
    if (!s->unsat && propagate(s))
        s->unsat = 1;
    if (s->unsat) {
        if (s->proof)
            proof_event(s, PROOF_ADD, NULL, 0, 0);
        return ST_UNSAT;
    }
    int32_t *internal = xrealloc(NULL, (size_t)(na ? na : 1) * sizeof *internal);
    for (int64_t i = 0; i < na; i++) {
        int32_t lit = assumptions[i];
        ensure_vars(s, lit > 0 ? lit : -(int64_t)lit);
        internal[i] = lit > 0 ? 2 * lit : 2 * -(int64_t)lit + 1;
    }
    for (int64_t i = 0; i < na; i++)
        s->aguard[internal[i] ^ 1] = 1;
    int status = search(s, internal, na, conflict_limit, has_time_limit, time_limit, start_time);
    for (int64_t i = 0; i < na; i++)
        s->aguard[internal[i] ^ 1] = 0;
    free(internal);
    return status;
}

void cdcl_info_get(solver *s, cdcl_info *out)
{
    *out = s->call;
    out->propagations = s->propagations - s->start_props;
    out->binary_propagations = s->bin_propagations - s->start_bin;
    out->blocker_skips = s->blocker_skips - s->start_skips;
    out->arena_bytes = (s->arena.n + 3 * (s->num_tern_problem + s->num_tern_learned)) * 8;
    out->num_vars = s->nvars;
    out->num_learned = s->learned.n + s->num_bin_learned + s->num_tern_learned;
    out->num_clauses = s->clauses.n + s->num_bin_problem + s->num_tern_problem;
    out->clauses_added = s->clauses_added;
}

/* out[v] = 1 when variable v is true, for v in 0 .. num_vars. */
void cdcl_model(solver *s, uint8_t *out)
{
    for (int64_t var = 0; var <= s->nvars; var++)
        out[var] = s->value[2 * var] == V_TRUE;
}

/* The DRAT event buffer; the caller drains it with cdcl_proof_clear. */
const int32_t *cdcl_proof_events(solver *s, int64_t *n)
{
    *n = s->proof_buf.n;
    return s->proof_buf.d;
}

void cdcl_proof_clear(solver *s) { s->proof_buf.n = 0; }

/* ================================================================== */
/* Clause emission kernel of the mapping encoder                       */
/* ================================================================== */
/*
 * Builds the constraint families of repro/core/encoder.py -- C1 (each node
 * placed exactly once), C2 (at most one node per PE and kernel cycle), C3
 * (dependency implications) and the Equation-5 overwrite clauses -- into
 * flat buffers: the selector guard at each tail, and exact duplicates
 * dropped (one set of sorted literal tuples spanning the whole encoding,
 * consulted only for the clauses that can repeat another: twin pairs,
 * repeatable dependencies and units, and the caller's may_repeat lists).
 * The stream is the one the encoder's former Python generators emitted,
 * clause for clause; tests/core/test_emission_stream.py pins it.
 *
 * The kernel never calls the clause sink.  It predicts the variables the
 * sink will hand out (sinks count up from the last one allocated) and
 * logs, next to its output, the events the caller replays in order:
 *
 *   EV_ALLOC  n first   allocate n variables through new_vars()
 *   EV_NEWVAR 1 first   allocate one variable through new_var()
 *   EV_FLUSH  l c       push the first l literals / c clauses as one batch
 *
 * A flush falls after the block that brings the buffered literals to the
 * flush threshold.
 */

enum { AMO_PAIRWISE = 0, AMO_SEQUENTIAL = 1, AMO_COMMANDER = 2, AMO_AUTO = 3 };
enum { EV_ALLOC = 1, EV_NEWVAR = 2, EV_FLUSH = 3 };
/* Layout of enc_new's parameter vector. */
enum {
    P_II, P_PES, P_NODES, P_GUARD, P_AMO, P_AUTO_LIMIT, P_HAS_SPAN, P_SPAN,
    P_ENFORCE, P_NEXT_VAR, P_FLUSH, P_COUNT
};

/* Twin key of a literal that shares no pair with another family. */
#define NO_KEY (-1LL)

/* Open-addressing set of sorted clauses (the emitter's seen-set). */
typedef struct {
    int64_t *slots; /* arena offset + 1 of each entry, 0 when empty */
    int64_t cap, n;
    ivec arena;     /* per entry: its length, then its sorted literals */
} clause_set;

static uint64_t hash_ints(const int32_t *lits, int64_t n)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ (uint64_t)n;
    for (int64_t i = 0; i < n; i++) {
        h = (h ^ (uint32_t)lits[i]) * 0xff51afd7ed558ccdULL;
        h ^= h >> 32;
    }
    return h;
}

static void set_grow(clause_set *s)
{
    int64_t cap = s->cap ? 2 * s->cap : 1024;
    int64_t *slots = xrealloc(NULL, (size_t)cap * sizeof *slots);
    memset(slots, 0, (size_t)cap * sizeof *slots);
    for (int64_t i = 0; i < s->cap; i++) {
        int64_t ref = s->slots[i];
        if (!ref)
            continue;
        const int32_t *entry = s->arena.d + ref - 1;
        uint64_t pos = hash_ints(entry + 1, entry[0]) & (uint64_t)(cap - 1);
        while (slots[pos])
            pos = (pos + 1) & (uint64_t)(cap - 1);
        slots[pos] = ref;
    }
    free(s->slots);
    s->slots = slots;
    s->cap = cap;
}

/* Adds the sorted clause; 0 when it was already present. */
static int set_insert(clause_set *s, const int32_t *lits, int64_t n)
{
    if (2 * (s->n + 1) > s->cap)
        set_grow(s);
    uint64_t mask = (uint64_t)(s->cap - 1), pos = hash_ints(lits, n) & mask;
    for (; s->slots[pos]; pos = (pos + 1) & mask) {
        const int32_t *entry = s->arena.d + s->slots[pos] - 1;
        if (entry[0] == n && !memcmp(entry + 1, lits, (size_t)n * sizeof *lits))
            return 0;
    }
    s->slots[pos] = s->arena.n + 1;
    ivec_reserve(&s->arena, s->arena.n + n + 1);
    s->arena.d[s->arena.n++] = (int32_t)n;
    memcpy(s->arena.d + s->arena.n, lits, (size_t)n * sizeof *lits);
    s->arena.n += n;
    s->n++;
    return 1;
}

typedef struct {
    int32_t ii, num_pes, num_nodes, guard, amo, auto_limit, has_span, span;
    int32_t enforce, next_var;
    int64_t flush_lits;
    /* Per node: its variable block (slot-major, PE-minor), slots and PEs. */
    int32_t *base, *slot_off, *slot_cycle, *slot_iter, *pe_off, *pes, *whole;
    /* Per PE: the neighbours a value reaches in one hop, itself included. */
    int32_t *nbr_off, *nbr;
    int32_t *pe_index;  /* node * num_pes + pe -> index among the node's PEs, or -1 */
    int32_t *group_of;  /* pe * ii + cycle -> C2 group, or -1 */
    int32_t *occupancy; /* pe * ii + cycle -> occupancy variable, or 0 */
    int32_t num_groups;
    int32_t *group_off, *group_lits; /* C2 groups in first-appearance order */
    int64_t *group_keys;
    clause_set seen;
    /* Output of the current call. */
    ivec lits, lens, events;
    int64_t carry, flushed_at, clauses, duplicates;
    /* Scratch. */
    ivec rows, row_lens, entries, reach, reach_off, sorted;
} emitter;

typedef struct {
    const int32_t *lits, *lens, *events;
    int64_t num_lits, num_lens, num_events, clauses, duplicates;
} enc_result;

static int32_t *copy_ints(const int32_t *src, int64_t n)
{
    int32_t *out = xrealloc(NULL, (size_t)n * sizeof *out);
    if (n)
        memcpy(out, src, (size_t)n * sizeof *out);
    return out;
}

static inline int64_t twin_key(const emitter *e, int32_t node, int32_t slot, int32_t pe)
{
    /* Two literals of one node on one PE and kernel cycle (a same-node
     * pair under Equation 5 for a self-looped node) share a key: only such
     * pairs can sit in both C1 and C2, so only they are hashed. */
    if (e->whole[node])
        return node;
    return e->num_nodes + ((int64_t)node * e->num_pes + pe) * e->ii + e->slot_cycle[slot];
}

static inline void log_event(emitter *e, int32_t kind, int64_t a, int64_t b)
{
    ivec_push(&e->events, kind);
    ivec_push(&e->events, (int32_t)a);
    ivec_push(&e->events, (int32_t)b);
}

/* Ends one block of clauses (a flush may follow only here). */
static void end_block(emitter *e)
{
    if (e->carry + e->lits.n - e->flushed_at >= e->flush_lits) {
        log_event(e, EV_FLUSH, e->lits.n, e->lens.n);
        e->carry = 0;
        e->flushed_at = e->lits.n;
    }
}

static void put(emitter *e, const int32_t *lits, int64_t n)
{
    ivec_reserve(&e->lits, e->lits.n + n + 1);
    memcpy(e->lits.d + e->lits.n, lits, (size_t)n * sizeof *lits);
    e->lits.n += n;
    if (e->guard)
        e->lits.d[e->lits.n++] = e->guard;
    ivec_push(&e->lens, (int32_t)(n + (e->guard != 0)));
    e->clauses++;
}

static inline void put2(emitter *e, int32_t a, int32_t b)
{
    int32_t clause[2] = {a, b};
    put(e, clause, 2);
}

static int32_t allocate(emitter *e, int32_t kind, int32_t count)
{
    int32_t first = e->next_var;
    log_event(e, kind, count, first);
    e->next_var += count;
    return first;
}

static int compare_ints(const void *x, const void *y)
{
    int32_t a = *(const int32_t *)x, b = *(const int32_t *)y;
    return (a > b) - (a < b);
}

/* Records the clause in the seen-set; 0 (and one more duplicate) when it
 * was emitted before. */
static int first_time(emitter *e, const int32_t *lits, int64_t n)
{
    ivec_reserve(&e->sorted, n);
    memcpy(e->sorted.d, lits, (size_t)n * sizeof *lits);
    qsort(e->sorted.d, (size_t)n, sizeof *lits, compare_ints);
    if (set_insert(&e->seen, e->sorted.d, n))
        return 1;
    e->duplicates++;
    return 0;
}

/* One add_lists call: the clauses as one block, hashed when they may repeat. */
static void put_list(emitter *e, const int32_t *lits, const int32_t *lens, int64_t n,
                     int hashed)
{
    for (int64_t i = 0; i < n; lits += lens[i++])
        if (!hashed || first_time(e, lits, lens[i]))
            put(e, lits, lens[i]);
    end_block(e);
}

static void amo_pairwise(emitter *e, const int32_t *lits, const int64_t *keys, int64_t n)
{
    if (n < 2)
        return;
    for (int64_t i = 0; i + 1 < n; i++) {
        for (int64_t j = i + 1; j < n; j++) {
            int32_t a = -lits[i], b = -lits[j];
            if (keys[i] != NO_KEY && keys[i] == keys[j]) {
                int32_t pair[2] = {a < b ? a : b, a < b ? b : a};
                if (!set_insert(&e->seen, pair, 2)) {
                    e->duplicates++;
                    continue;
                }
            }
            put2(e, a, b);
        }
    }
    end_block(e);
}

/* Sinz's chain: see sequential_columns in repro/sat/encodings.py. */
static void amo_sequential(emitter *e, const int32_t *x, int64_t n)
{
    int32_t s = allocate(e, EV_ALLOC, (int32_t)(n - 1));
    put2(e, -x[0], s);
    put2(e, -x[n - 1], -(s + (int32_t)n - 2));
    for (int32_t i = 1; i + 1 < n; i++) {
        put2(e, -x[i], s + i);
        put2(e, -(s + i - 1), s + i);
        put2(e, -x[i], -(s + i - 1));
    }
    end_block(e);
}

static void amo_commander(emitter *e, const int32_t *lits, const int64_t *keys, int64_t n)
{
    if (n <= 5) {
        amo_pairwise(e, lits, keys, n);
        return;
    }
    int64_t groups = (n + 3) / 4;
    int32_t *commanders = xrealloc(NULL, (size_t)groups * sizeof *commanders);
    int64_t *no_keys = xrealloc(NULL, (size_t)groups * sizeof *no_keys);
    int32_t clause[5];
    for (int64_t g = 0; g < groups; g++) {
        const int32_t *group = lits + 4 * g;
        int64_t size = n - 4 * g < 4 ? n - 4 * g : 4;
        int32_t commander = allocate(e, EV_NEWVAR, 1);
        commanders[g] = commander;
        no_keys[g] = NO_KEY;
        amo_pairwise(e, group, keys + 4 * g, size);
        clause[0] = -commander;
        memcpy(clause + 1, group, (size_t)size * sizeof *group);
        put(e, clause, size + 1);
        end_block(e);
        for (int64_t i = 0; i < size; i++)
            put2(e, commander, -group[i]);
        end_block(e);
    }
    amo_commander(e, commanders, no_keys, groups);
    free(commanders);
    free(no_keys);
}

static void at_most_one(emitter *e, const int32_t *lits, const int64_t *keys, int64_t n)
{
    int amo = e->amo;
    if (n <= 1)
        return;
    if (amo == AMO_AUTO)
        amo = n <= e->auto_limit ? AMO_PAIRWISE : AMO_SEQUENTIAL;
    if (amo == AMO_PAIRWISE || n <= 4)
        amo_pairwise(e, lits, keys, n);
    else if (amo == AMO_SEQUENTIAL)
        amo_sequential(e, lits, n);
    else
        amo_commander(e, lits, keys, n);
}

static inline int32_t flat_time(const emitter *e, int32_t slot)
{
    return e->slot_iter[slot] * e->ii + e->slot_cycle[slot];
}

/* Other-node slots time-compatible with an anchor slot, as (slot, span)
 * pairs into e->entries; span is the consumer's flat time minus the
 * producer's, distance included. */
static void compatible(emitter *e, int32_t anchor_slot, int32_t other, int forward,
                       int32_t distance, int32_t latency)
{
    int32_t t_anchor = flat_time(e, anchor_slot);
    e->entries.n = 0;
    for (int32_t slot = e->slot_off[other]; slot < e->slot_off[other + 1]; slot++) {
        int32_t gap = e->slot_iter[slot] - e->slot_iter[anchor_slot];
        if (e->has_span && (gap < 0 ? -gap : gap) > e->span)
            continue;
        int32_t t_other = flat_time(e, slot);
        int32_t span = forward ? t_other + distance * e->ii - t_anchor
                               : t_anchor + distance * e->ii - t_other;
        if (span < latency)
            continue;
        ivec_push(&e->entries, slot - e->slot_off[other]);
        ivec_push(&e->entries, span);
    }
}

/* ¬anchor ∨ compatible neighbour literals, for every anchor literal of one
 * edge direction, as one block. */
static void implications(emitter *e, const int32_t *edge, int forward)
{
    int32_t anchor = forward ? edge[0] : edge[1], other = forward ? edge[1] : edge[0];
    int32_t a_pes = e->pe_off[anchor + 1] - e->pe_off[anchor];
    int32_t o_pes = e->pe_off[other + 1] - e->pe_off[other];
    const int32_t *o_index = e->pe_index + (int64_t)other * e->num_pes;
    /* Capability-filtered neighbours of each anchor PE, as indices among
     * the other node's PEs. */
    e->reach.n = e->reach_off.n = 0;
    for (int32_t k = 0; k < a_pes; k++) {
        int32_t pe = e->pes[e->pe_off[anchor] + k];
        ivec_push(&e->reach_off, (int32_t)e->reach.n);
        for (int32_t i = e->nbr_off[pe]; i < e->nbr_off[pe + 1]; i++)
            if (o_index[e->nbr[i]] >= 0)
                ivec_push(&e->reach, o_index[e->nbr[i]]);
    }
    ivec_push(&e->reach_off, (int32_t)e->reach.n);
    e->rows.n = e->row_lens.n = 0;
    int32_t shortest = INT32_MAX;
    for (int32_t slot = e->slot_off[anchor]; slot < e->slot_off[anchor + 1]; slot++) {
        compatible(e, slot, other, forward, edge[2], edge[3]);
        int32_t first = e->base[anchor] + (slot - e->slot_off[anchor]) * a_pes;
        for (int32_t k = 0; k < a_pes; k++) {
            int64_t start = e->rows.n;
            ivec_push(&e->rows, -(first + k));
            for (int64_t i = 0; i < e->entries.n; i += 2) {
                int32_t row = e->base[other] + e->entries.d[i] * o_pes;
                for (int32_t r = e->reach_off.d[k]; r < e->reach_off.d[k + 1]; r++)
                    ivec_push(&e->rows, row + e->reach.d[r]);
            }
            int32_t length = (int32_t)(e->rows.n - start);
            ivec_push(&e->row_lens, length);
            if (length < shortest)
                shortest = length;
        }
    }
    /* A unit (an anchor with no compatible literal) may match a unit of
     * another edge or of symmetry breaking. */
    put_list(e, e->rows.d, e->row_lens.d, e->row_lens.n, edge[4] || shortest == 1);
}

static int32_t occupancy(emitter *e, int32_t pe, int32_t cycle)
{
    int64_t key = (int64_t)pe * e->ii + cycle;
    if (e->occupancy[key])
        return e->occupancy[key];
    int32_t group = e->group_of[key];
    if (group < 0)
        return 0;
    int32_t busy = allocate(e, EV_NEWVAR, 1);
    e->occupancy[key] = busy;
    for (int32_t i = e->group_off[group]; i < e->group_off[group + 1]; i++)
        put2(e, -e->group_lits[i], busy);
    end_block(e);
    return busy;
}

/* Equation 5: see MappingEncoder._overwrite_clauses. */
static void overwrites(emitter *e, const int32_t *edge)
{
    int32_t src = edge[0], dst = edge[1], hashed = edge[4];
    int32_t s_pes = e->pe_off[src + 1] - e->pe_off[src];
    int32_t d_pes = e->pe_off[dst + 1] - e->pe_off[dst];
    const int32_t *d_index = e->pe_index + (int64_t)dst * e->num_pes;
    int32_t one[1];
    for (int32_t slot = e->slot_off[src]; slot < e->slot_off[src + 1]; slot++) {
        compatible(e, slot, dst, 1, edge[2], edge[3]);
        int32_t t_src = flat_time(e, slot);
        for (int32_t k = 0; k < s_pes; k++) {
            int32_t src_pe = e->pes[e->pe_off[src] + k];
            int32_t src_var = e->base[src] + (slot - e->slot_off[src]) * s_pes + k;
            for (int64_t i = 0; i < e->entries.n; i += 2) {
                int32_t span = e->entries.d[i + 1];
                int32_t row = e->base[dst] + e->entries.d[i] * d_pes;
                for (int32_t n = e->nbr_off[src_pe]; n < e->nbr_off[src_pe + 1]; n++) {
                    int32_t dst_pe = e->nbr[n];
                    if (dst_pe == src_pe || d_index[dst_pe] < 0)
                        continue;
                    int32_t clause[3] = {-src_var, -(row + d_index[dst_pe]), 0};
                    if (span > e->ii) {
                        one[0] = 2;
                        put_list(e, clause, one, 1, hashed);
                        continue;
                    }
                    for (int32_t flat = t_src + 1; flat < t_src + span; flat++) {
                        int32_t busy = occupancy(e, src_pe, flat % e->ii);
                        if (!busy)
                            continue;
                        clause[2] = -busy;
                        one[0] = 3;
                        put_list(e, clause, one, 1, hashed);
                    }
                }
            }
        }
    }
}

static void begin(emitter *e, int64_t pending)
{
    e->lits.n = e->lens.n = e->events.n = 0;
    e->carry = pending;
    e->flushed_at = 0;
    e->clauses = e->duplicates = 0;
}

static int64_t *node_keys(emitter *e, int32_t node, int64_t *keys)
{
    int32_t pes = e->pe_off[node + 1] - e->pe_off[node];
    int64_t i = 0;
    for (int32_t slot = e->slot_off[node]; slot < e->slot_off[node + 1]; slot++)
        for (int32_t k = 0; k < pes; k++)
            keys[i++] = twin_key(e, node, slot, e->pes[e->pe_off[node] + k]);
    return keys;
}

emitter *enc_new(const int32_t *params, const int32_t *base, const int32_t *slot_off,
                 const int32_t *slot_cycle, const int32_t *slot_iter,
                 const int32_t *pe_off, const int32_t *pes, const int32_t *whole,
                 const int32_t *nbr_off, const int32_t *nbr)
{
    emitter *e = xrealloc(NULL, sizeof *e);
    memset(e, 0, sizeof *e);
    e->ii = params[P_II];
    e->num_pes = params[P_PES];
    e->num_nodes = params[P_NODES];
    e->guard = params[P_GUARD];
    e->amo = params[P_AMO];
    e->auto_limit = params[P_AUTO_LIMIT];
    e->has_span = params[P_HAS_SPAN];
    e->span = params[P_SPAN];
    e->enforce = params[P_ENFORCE];
    e->next_var = params[P_NEXT_VAR];
    e->flush_lits = params[P_FLUSH];
    int32_t nodes = e->num_nodes, slots = slot_off[nodes], count = pe_off[nodes];
    int64_t cells = (int64_t)e->num_pes * e->ii;
    e->base = copy_ints(base, nodes);
    e->slot_off = copy_ints(slot_off, nodes + 1);
    e->slot_cycle = copy_ints(slot_cycle, slots);
    e->slot_iter = copy_ints(slot_iter, slots);
    e->pe_off = copy_ints(pe_off, nodes + 1);
    e->pes = copy_ints(pes, count);
    e->whole = copy_ints(whole, nodes);
    e->nbr_off = copy_ints(nbr_off, e->num_pes + 1);
    e->nbr = copy_ints(nbr, nbr_off[e->num_pes]);
    e->pe_index = xrealloc(NULL, (size_t)nodes * e->num_pes * sizeof *e->pe_index);
    memset(e->pe_index, 0xff, (size_t)nodes * e->num_pes * sizeof *e->pe_index);
    for (int32_t v = 0; v < nodes; v++)
        for (int32_t k = pe_off[v]; k < pe_off[v + 1]; k++)
            e->pe_index[(int64_t)v * e->num_pes + pes[k]] = k - pe_off[v];
    /* C2 groups: the (PE, cycle) slots in order of first appearance, each
     * listing its literals node by node, slot by slot, PE by PE. */
    e->group_of = xrealloc(NULL, (size_t)cells * sizeof *e->group_of);
    memset(e->group_of, 0xff, (size_t)cells * sizeof *e->group_of);
    e->occupancy = xrealloc(NULL, (size_t)cells * sizeof *e->occupancy);
    memset(e->occupancy, 0, (size_t)cells * sizeof *e->occupancy);
    int32_t *sizes = xrealloc(NULL, (size_t)(cells + 1) * sizeof *sizes);
    for (int pass = 0; pass < 2; pass++) {
        for (int32_t v = 0; v < nodes; v++) {
            int32_t np = pe_off[v + 1] - pe_off[v], var = base[v];
            for (int32_t slot = slot_off[v]; slot < slot_off[v + 1]; slot++) {
                for (int32_t k = 0; k < np; k++, var++) {
                    int64_t cell = (int64_t)pes[pe_off[v] + k] * e->ii + slot_cycle[slot];
                    if (pass == 0) {
                        if (e->group_of[cell] < 0) {
                            e->group_of[cell] = e->num_groups;
                            sizes[e->num_groups++] = 0;
                        }
                        sizes[e->group_of[cell]]++;
                    } else {
                        int32_t at = sizes[e->group_of[cell]]++;
                        e->group_lits[at] = var;
                        e->group_keys[at] = twin_key(e, v, slot, pes[pe_off[v] + k]);
                    }
                }
            }
        }
        if (pass == 0) {
            /* Sizes become each group's next free position. */
            e->group_off = xrealloc(NULL, (size_t)(e->num_groups + 1) * sizeof *e->group_off);
            int32_t total = 0;
            for (int32_t g = 0; g < e->num_groups; g++) {
                e->group_off[g] = total;
                total += sizes[g];
                sizes[g] = e->group_off[g];
            }
            e->group_off[e->num_groups] = total;
            e->group_lits = xrealloc(NULL, (size_t)total * sizeof *e->group_lits);
            e->group_keys = xrealloc(NULL, (size_t)total * sizeof *e->group_keys);
        }
    }
    free(sizes);
    return e;
}

/* C1: per node, at least one of its literals, then at most one. */
void enc_c1(emitter *e, int64_t pending)
{
    begin(e, pending);
    int64_t cap = 0;
    int32_t *lits = NULL;
    int64_t *keys = NULL;
    for (int32_t v = 0; v < e->num_nodes; v++) {
        int64_t n = (int64_t)(e->slot_off[v + 1] - e->slot_off[v]) *
                    (e->pe_off[v + 1] - e->pe_off[v]);
        if (n > cap) {
            cap = n;
            lits = xrealloc(lits, (size_t)cap * sizeof *lits);
            keys = xrealloc(keys, (size_t)cap * sizeof *keys);
        }
        for (int64_t i = 0; i < n; i++)
            lits[i] = e->base[v] + (int32_t)i;
        put(e, lits, n);
        end_block(e);
        at_most_one(e, lits, node_keys(e, v, keys), n);
    }
    free(lits);
    free(keys);
}

/* C2: at most one literal per (PE, cycle) group. */
void enc_c2(emitter *e, int64_t pending)
{
    begin(e, pending);
    for (int32_t g = 0; g < e->num_groups; g++)
        at_most_one(e, e->group_lits + e->group_off[g], e->group_keys + e->group_off[g],
                    e->group_off[g + 1] - e->group_off[g]);
}

/* C3: per edge (src, dst, distance, latency, may_repeat), the forward and
 * backward implications, then the overwrite clauses when enforced. */
void enc_c3(emitter *e, int64_t pending, int64_t num_edges, const int32_t *edges)
{
    begin(e, pending);
    for (int64_t i = 0; i < num_edges; i++) {
        const int32_t *edge = edges + 5 * i;
        implications(e, edge, 1);
        implications(e, edge, 0);
        if (e->enforce)
            overwrites(e, edge);
    }
}

/* Any other clause list, as one block (the emitter's add_lists). */
void enc_lists(emitter *e, int64_t pending, const int32_t *lits, const int32_t *lens,
               int64_t n, int32_t may_repeat)
{
    begin(e, pending);
    put_list(e, lits, lens, n, may_repeat);
}

void enc_output(emitter *e, enc_result *out)
{
    out->lits = e->lits.d;
    out->lens = e->lens.d;
    out->events = e->events.d;
    out->num_lits = e->lits.n;
    out->num_lens = e->lens.n;
    out->num_events = e->events.n;
    out->clauses = e->clauses;
    out->duplicates = e->duplicates;
}

void enc_free(emitter *e)
{
    if (e == NULL)
        return;
    int32_t *tables[] = {e->base, e->slot_off, e->slot_cycle, e->slot_iter, e->pe_off,
                         e->pes, e->whole, e->nbr_off, e->nbr, e->pe_index, e->group_of,
                         e->occupancy, e->group_off, e->group_lits};
    for (size_t i = 0; i < sizeof tables / sizeof *tables; i++)
        free(tables[i]);
    free(e->group_keys);
    free(e->seen.slots);
    ivec *vectors[] = {&e->seen.arena, &e->lits, &e->lens, &e->events, &e->rows,
                       &e->row_lens, &e->entries, &e->reach, &e->reach_off, &e->sorted};
    for (size_t i = 0; i < sizeof vectors / sizeof *vectors; i++)
        free(vectors[i]->d);
    free(e);
}
