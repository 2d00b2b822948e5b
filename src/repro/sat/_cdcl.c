/*
 * Native search core of the CDCL solver (see repro/sat/solver.py).
 *
 * This file is a line-for-line port of CDCLSolver's clause ingest,
 * propagation, conflict analysis, decisions, restarts and learned-clause
 * reduction.  It follows exactly the same search path as the Python engine:
 *
 *   - the same flat layout: literals 2v / 2v+1, binary and ternary
 *     implication lists, guard-aware ternary lists, and a clause arena
 *     watched through (ref, blocker) pairs kept in the same order;
 *   - the same tagged reason codes and the same resolution order;
 *   - a lazy VSIDS heap ordered by activity descending, then variable
 *     ascending, holding the same multiset of entries as the Python heap
 *     (so it pops the same sequence);
 *   - a stable sort of the learned clauses by (LBD, -activity);
 *   - the same double arithmetic (build without -ffast-math and with
 *     -ffp-contract=off so no multiply-add is fused).
 *
 * Every solve call therefore returns the same status, model, counters and
 * DRAT events as the Python engine on the same call sequence.  DRAT events
 * are buffered as [kind, n, lit_1 .. lit_n] records (kind 1 = add,
 * 2 = delete, external signed literals) for the caller to drain.
 *
 * The library is built with the system C compiler on first use and loaded
 * through ctypes by repro/sat/native.py; it has no Python dependency.
 */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define CDCL_ABI 1

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
    /* per-variable warm-start hints (dense, indexed by variable) */
    int32_t hints;
    double *hint_act;
    int8_t *hint_phase; /* -1 = none, else 0/1 */
    int64_t hint_act_n, hint_phase_n;

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

/* Fresh state with only the variable-0 sentinel (CDCLSolver._reset). */
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

/* Allocate variables nvars+1 .. nvars+count (CDCLSolver.new_var[s]). */
static void new_vars(solver *s, int64_t count)
{
    grow_vars(s, (int64_t)s->nvars + count + 1);
    for (int64_t i = 0; i < count; i++) {
        int32_t var = ++s->nvars;
        double act = 0.0;
        uint8_t ph = (uint8_t)s->initial_phase;
        if (s->hints) {
            if (var < s->hint_act_n)
                act = s->hint_act[var];
            if (var < s->hint_phase_n && s->hint_phase[var] >= 0)
                ph = (uint8_t)s->hint_phase[var];
        }
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
 * -1 for a zero literal (CDCLSolver._simplify_external). */
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

/* CDCLSolver._attach: returns the arena ref, or -1 for a binary/ternary. */
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

/* CDCLSolver._attach_guarded_ternary. */
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

/* CDCLSolver._propagate: 1 on conflict (s->conflict_ref / conflict_lits,
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

/* CDCLSolver._analyze: leaves the learned clause in s->learnt. */
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

/* Stable bottom-up merge sort (Python's list.sort is stable too). */
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
    free(s->hint_act);
    free(s->hint_phase);
    free(s->proof_buf.d);
    free(s);
}

/* Drop every variable and clause (CDCLSolver._reset); hints survive. */
void cdcl_reset(solver *s)
{
    free_state(s);
    init_state(s);
}

/* Warm-start hints: activities and polarities for listed variables. */
void cdcl_set_hints(solver *s, int64_t n_act, const int32_t *act_vars, const double *acts,
                    int64_t n_phase, const int32_t *phase_vars, const int8_t *phases)
{
    int64_t top = 0;
    for (int64_t i = 0; i < n_act; i++)
        if (act_vars[i] + 1 > top)
            top = act_vars[i] + 1;
    s->hint_act = xrealloc(s->hint_act, (size_t)(top ? top : 1) * sizeof *s->hint_act);
    for (int64_t i = 0; i < top; i++)
        s->hint_act[i] = 0.0;
    for (int64_t i = 0; i < n_act; i++)
        if (act_vars[i] >= 0)
            s->hint_act[act_vars[i]] = acts[i];
    s->hint_act_n = top;
    top = 0;
    for (int64_t i = 0; i < n_phase; i++)
        if (phase_vars[i] + 1 > top)
            top = phase_vars[i] + 1;
    s->hint_phase = xrealloc(s->hint_phase, (size_t)(top ? top : 1));
    memset(s->hint_phase, -1, (size_t)(top ? top : 1));
    for (int64_t i = 0; i < n_phase; i++)
        if (phase_vars[i] >= 0)
            s->hint_phase[phase_vars[i]] = phases[i] ? 1 : 0;
    s->hint_phase_n = top;
    s->hints = (n_act > 0 || n_phase > 0);
}

int32_t cdcl_new_vars(solver *s, int64_t count)
{
    int32_t first = s->nvars + 1;
    new_vars(s, count);
    return first;
}

/* CDCLSolver.add_clause: 1 / 0 as the Python method returns True / False,
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

/* CDCLSolver.add_clauses over a flattened batch: clause i is the next
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

/* Start a solve call: per-call counters from here (CDCLSolver.solve). */
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
