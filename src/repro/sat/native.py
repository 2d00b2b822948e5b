"""The native CDCL core: build-on-first-use loader and ctypes wrapper.

``_cdcl.c`` (next to this module) is the repository's CDCL search engine
(:class:`NativeCDCLSolver` wraps it; :func:`repro.sat.solver.make_solver`
hands it out) and also carries the mapping encoder's clause emission kernel
(``enc_*``, driven by :mod:`repro.core.encoder`).  Mapping needs both, so
the core is required: ``tests/sat/test_native.py`` checks the solver
against the DPLL oracle and the DRAT checker, and
``tests/core/test_emission_stream.py`` pins the kernel's clause streams.

Nothing happens at import.  The first :func:`load` call:

1. hashes the C source together with the compiler flags and the machine
   type into a digest;
2. looks for ``cdcl-<digest>.so`` in the cache directory
   (:func:`cache_root`) and, when it is missing, builds it with the system
   C compiler under an exclusive file lock, into a temporary file that is
   then atomically renamed into place — so concurrent processes build it at
   most once and never load a half-written library;
3. loads it with :mod:`ctypes` and checks its ABI number.

Any failure (no compiler, an unwritable cache directory, a compile error,
a library that will not load) is recorded in :func:`status`, and
:func:`load` raises it, on that call and every later one, as a
:class:`repro.sat.backend.BackendUnavailableError` naming the compiler and
carrying the reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import time
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.sat.backend import BackendUnavailableError
from repro.sat.cnf import CNF, flatten
from repro.sat.solver import SolverResult, SolverStats

#: The C source the core is built from (shipped as package data).
SOURCE = Path(__file__).with_name("_cdcl.c")
#: Compiler flags.  No ``-ffast-math`` and no fused multiply-add: the core
#: must round every activity update exactly like CPython does.  ``-O1``
#: keeps the compiler's peak memory (about 43 MB) below a mapping worker's,
#: so the one-off build never sets a process tree's peak; ``-O2`` searched
#: about 8% faster but peaked at 51 MB.
CFLAGS = ("-O1", "-std=c99", "-fPIC", "-shared", "-fno-fast-math",
          "-ffp-contract=off")
#: Must match ``CDCL_ABI`` in ``_cdcl.c``.
ABI = 3
#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT = 300

_STATUS_NAMES = {10: "SAT", 20: "UNSAT", 0: "UNKNOWN"}
_PROOF_ADD = 1
#: Largest conflict budget passed to the core (effectively unbounded).
_MAX_CONFLICTS = 1 << 62
#: Variables must stay below this: ternary reason codes pack internal
#: literals into 30 bits (see ``TERN_MASK`` in ``_cdcl.c``).
MAX_VARS = 1 << 29


def cache_root() -> Path:
    """Directory holding built libraries (the user's cache directory)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-satmapit" / "native"


def find_compiler() -> str | None:
    """Path of the system C compiler, or ``None`` when there is none."""
    return shutil.which("cc") or shutil.which("gcc")


@dataclass(frozen=True)
class CoreStatus:
    """Whether the native core loaded in this process, and why not."""

    #: ``True`` when the native core is loaded and in use.
    loaded: bool
    #: Why the core cannot be used (``None`` when ``loaded``).
    reason: str | None = None
    #: Path of the loaded (or attempted) shared library.
    library: str | None = None
    #: Wall time of the build this process ran (``None``: found in cache).
    build_s: float | None = None


class BuildError(RuntimeError):
    """The native core could not be built or loaded."""


_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_status: CoreStatus | None = None


def source_digest() -> str:
    """Cache key of the library: source, flags and machine type."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    digest.update(platform.machine().encode())
    return digest.hexdigest()[:20]


def load() -> ctypes.CDLL:
    """The loaded core, building it on first use.

    Raises :class:`BackendUnavailableError` when the core cannot be built
    or loaded; the first attempt's failure is kept, so every later call
    raises it again without retrying the build.
    """
    if _lib is not None:
        return _lib
    with _lock:
        if _status is None:
            _open()
    if _lib is None:
        assert _status is not None
        compiler = find_compiler()
        raise BackendUnavailableError(
            os.path.basename(compiler) if compiler else "cc",
            "" if compiler else "install cc or gcc",
            reason=f"cannot build the native CDCL core: {_status.reason}",
        )
    return _lib


def _open() -> None:
    """Build and load the core once, recording the outcome in ``_status``."""
    global _lib, _status
    library: Path | None = None
    try:
        library, build_s = _build()
        lib = ctypes.CDLL(str(library))
        _declare(lib)
        if lib.cdcl_abi() != ABI:
            raise BuildError(f"{library} has ABI {lib.cdcl_abi()}, expected {ABI}")
    except (OSError, ImportError, BuildError, subprocess.SubprocessError) as exc:
        # One line: a compiler's diagnostics span many.
        reason = " ".join(f"{type(exc).__name__}: {exc}".split())
        _status = CoreStatus(False, reason, str(library) if library else None)
    else:
        _lib = lib
        _status = CoreStatus(True, None, str(library), build_s)


def status() -> CoreStatus:
    """Whether the core loaded, trying to load it first if nobody has yet."""
    try:
        load()
    except BackendUnavailableError:
        pass
    assert _status is not None
    return _status


def _build() -> tuple[Path, float | None]:
    """Path of the built library (building it if needed) and build time."""
    if not SOURCE.is_file():
        raise BuildError(f"C source {SOURCE} is missing")
    directory = cache_root()
    library = directory / f"cdcl-{source_digest()}.so"
    if library.is_file():
        return library, None
    compiler = find_compiler()
    if compiler is None:
        raise BuildError("no C compiler (cc or gcc) on PATH")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        lock = open(directory / f"{library.stem}.lock", "a")
    except OSError as exc:
        raise BuildError(f"cache directory {directory} is not writable: {exc}") from exc
    with lock:
        import fcntl

        fcntl.flock(lock, fcntl.LOCK_EX)
        if library.is_file():  # another process built it while we waited
            return library, None
        fd, partial = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
        os.close(fd)
        try:
            start = time.perf_counter()
            done = subprocess.run(
                [compiler, *CFLAGS, "-o", partial, str(SOURCE)],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT,
            )
            if done.returncode != 0:
                raise BuildError(
                    f"{compiler} exited {done.returncode}: {done.stderr.strip()[-400:]}"
                )
            os.replace(partial, library)
            return library, time.perf_counter() - start
        finally:
            if os.path.exists(partial):
                os.unlink(partial)


class _Info(ctypes.Structure):
    """Mirror of ``cdcl_info`` in ``_cdcl.c``."""

    _fields_ = [(name, ctypes.c_int64) for name in (
        "decisions", "propagations", "conflicts", "restarts",
        "learned_clauses", "deleted_clauses", "max_decision_level",
        "binary_propagations", "blocker_skips", "arena_bytes",
        "num_vars", "num_learned", "num_clauses", "clauses_added",
    )]


class _EmissionResult(ctypes.Structure):
    """Mirror of ``enc_result`` in ``_cdcl.c``."""

    _fields_ = [
        ("lits", ctypes.c_void_p), ("lens", ctypes.c_void_p),
        ("events", ctypes.c_void_p),
        *((name, ctypes.c_int64) for name in (
            "num_lits", "num_lens", "num_events", "clauses", "duplicates",
        )),
    ]


def _declare(lib: ctypes.CDLL) -> None:
    ptr, i64, i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32
    signatures = {
        "cdcl_abi": (ctypes.c_int, []),
        "cdcl_new": (ptr, [ctypes.c_double, ctypes.c_double, i64, i64, i32, i32]),
        "cdcl_free": (None, [ptr]),
        "cdcl_reset": (None, [ptr]),
        "cdcl_set_hints": (None, [ptr, i64, ptr, ptr, i64, ptr, ptr]),
        "cdcl_new_vars": (i32, [ptr, i64]),
        "cdcl_add_clause": (ctypes.c_int, [ptr, ptr, i64]),
        "cdcl_check_batch": (ctypes.c_int, [ptr, i64, ptr, i64, i32]),
        "cdcl_add_clauses": (ctypes.c_int, [ptr, ptr, ptr, i64, i32, i32, i32]),
        "cdcl_begin": (None, [ptr]),
        "cdcl_solve": (ctypes.c_int, [ptr, ptr, i64, i64, i32, ctypes.c_double,
                                      ctypes.c_double]),
        "cdcl_info_get": (None, [ptr, ctypes.POINTER(_Info)]),
        "cdcl_model": (None, [ptr, ptr]),
        "cdcl_proof_events": (ptr, [ptr, ctypes.POINTER(i64)]),
        "cdcl_proof_clear": (None, [ptr]),
        # The mapping encoder's clause emission kernel.
        "enc_new": (ptr, [ptr] * 10),
        "enc_c1": (None, [ptr, i64]),
        "enc_c2": (None, [ptr, i64]),
        "enc_c3": (None, [ptr, i64, i64, ptr]),
        "enc_lists": (None, [ptr, i64, ptr, ptr, i64, i32]),
        "enc_output": (None, [ptr, ctypes.POINTER(_EmissionResult)]),
        "enc_free": (None, [ptr]),
    }
    for name, (restype, argtypes) in signatures.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes


def emission_result(
    lib: ctypes.CDLL, handle: int
) -> tuple[int, int, memoryview, memoryview, array]:
    """The last emission-kernel call's output (see :mod:`repro.core.encoder`).

    Returns its clause and duplicate counts, its literal and length buffers
    (copied out as raw bytes) and its event log.
    """
    out = _EmissionResult()
    lib.enc_output(handle, ctypes.byref(out))
    return (
        out.clauses, out.duplicates,
        memoryview(ctypes.string_at(out.lits, 4 * out.num_lits)),
        memoryview(ctypes.string_at(out.lens, 4 * out.num_lens)),
        array("i", ctypes.string_at(out.events, 4 * out.num_events)),
    )


def _address(values: array) -> int:
    return values.buffer_info()[0]


def _int_buffer(values) -> array:
    """``values`` as a C int array, without a copy when it already is one."""
    if type(values) is array and values.typecode == "i":
        return values
    return array("i", values)


def _literals(values) -> array:
    """``values`` as a C int array, rejecting variables the core cannot hold."""
    lits = array("i", values)
    if lits and (max(lits) >= MAX_VARS or min(lits) <= -MAX_VARS):
        raise ValueError(f"variables must be below {MAX_VARS}")
    return lits


class NativeCDCLSolver:
    """An incremental CDCL solver whose search runs in the native core.

    ``var_decay`` and ``clause_decay`` are the VSIDS and clause-activity
    decay factors, ``restart_base`` the Luby restart unit (conflicts) and
    ``learned_limit_base`` the learned-clause count that triggers the first
    database reduction.  ``initial_phase`` is the polarity tried first for
    a variable never assigned (``True`` makes the search constructive,
    useful on exactly-one placement formulas; ``False`` is MiniSat's
    default).  ``activity_hints`` warm-start VSIDS (larger values are
    branched on first until conflict-driven activity takes over) and
    ``phase_hints`` set per-variable initial polarities.  ``random_seed``
    is accepted for interface parity; the search is deterministic.

    ``proof`` is an optional :class:`repro.sat.drat.ProofLogger`: every
    learned clause (a RUP, hence DRAT, derivation) and every database
    deletion is logged, and an UNSAT answer under assumptions logs the
    negated assumption cube as its final addition.

    Build instances through :func:`repro.sat.solver.make_solver`.  Raises
    :class:`BackendUnavailableError` when the core cannot be loaded.
    """

    name = "cdcl"

    def __init__(
        self,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        restart_base: int = 100,
        learned_limit_base: int = 4000,
        random_seed: int | None = None,
        initial_phase: bool = False,
        activity_hints: dict[int, float] | None = None,
        phase_hints: dict[int, bool] | None = None,
        proof: "object | None" = None,
    ) -> None:
        lib = load()
        self._lib = lib
        self.var_decay = var_decay
        self.clause_decay = clause_decay
        self.restart_base = restart_base
        self.learned_limit_base = learned_limit_base
        self.random_seed = random_seed
        self.initial_phase = initial_phase
        self.activity_hints = activity_hints or {}
        self.phase_hints = phase_hints or {}
        self.proof = proof
        self.stats = SolverStats()
        self._info = _Info()
        self._handle = lib.cdcl_new(
            float(var_decay), float(clause_decay), int(restart_base),
            int(learned_limit_base), int(bool(initial_phase)), int(proof is not None),
        )
        if self.activity_hints or self.phase_hints:
            # Hints for variables the core can never hold cannot apply.
            acts = [(var, float(act)) for var, act in self.activity_hints.items()
                    if 0 < var < MAX_VARS]
            phases = [(var, bool(ph)) for var, ph in self.phase_hints.items()
                      if 0 < var < MAX_VARS]
            act_vars = array("i", (var for var, _ in acts))
            act_values = array("d", (act for _, act in acts))
            phase_vars = array("i", (var for var, _ in phases))
            phase_values = array("b", (ph for _, ph in phases))
            lib.cdcl_set_hints(
                self._handle, len(acts), _address(act_vars), _address(act_values),
                len(phases), _address(phase_vars), _address(phase_values),
            )

    def __del__(self) -> None:
        handle = getattr(self, "_handle", None)
        if handle:
            self._handle = None
            self._lib.cdcl_free(handle)

    def __reduce__(self):
        raise TypeError("a native solver cannot be pickled or copied")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _read_info(self) -> _Info:
        self._lib.cdcl_info_get(self._handle, ctypes.byref(self._info))
        return self._info

    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._read_info().num_vars

    @property
    def num_learned(self) -> int:
        """Learned clauses currently alive in the database."""
        return self._read_info().num_learned

    @property
    def num_clauses(self) -> int:
        """Problem clauses currently attached (excludes root units)."""
        return self._read_info().num_clauses

    @property
    def arena_bytes(self) -> int:
        """Nominal size of the flat clause stores (8 bytes per literal slot)."""
        return self._read_info().arena_bytes

    @property
    def clauses_added(self) -> int:
        """Lifetime count of clause submissions."""
        return self._read_info().clauses_added

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        return self.new_vars(1)[0]

    def new_vars(self, count: int) -> list[int]:
        """Bulk-allocate ``count`` fresh variables."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        if self.num_vars + count >= MAX_VARS:
            raise ValueError(f"variables must be below {MAX_VARS}")
        first = self._lib.cdcl_new_vars(self._handle, count)
        return list(range(first, first + count))

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable universe so ``num_vars`` is a valid variable."""
        current = self.num_vars
        if num_vars > current:
            self.new_vars(num_vars - current)

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause to the persistent database.

        The clause is simplified against the root-level assignment (MiniSat
        style): literals already false at level 0 are dropped, and a clause
        containing a root-true literal is discarded as satisfied.  Returns
        ``False`` when the formula became unsatisfiable at level 0 (the
        solver then answers ``UNSAT`` forever), ``True`` otherwise.
        """
        lits = _literals(literals)
        done = self._lib.cdcl_add_clause(self._handle, _address(lits), len(lits))
        if done < 0:
            raise ValueError("literal 0 is not allowed in a clause")
        return bool(done)

    def add_clauses(
        self,
        literals: Sequence[int],
        lengths: Sequence[int],
        guard: int | None = None,
        trusted: bool = False,
    ) -> bool:
        """Bulk :meth:`add_clause`: one backtrack, batched root propagation.

        The batch arrives flat (see :func:`repro.sat.cnf.flatten`): clause
        ``i`` is the next ``lengths[i]`` entries of ``literals``.
        ``array('i')`` buffers reach the core without a copy; the core vets
        the lengths and the variable range before it ingests anything.
        Root-level unit propagation is deferred until a later clause of the
        batch needs an up-to-date assignment, so a batch of units costs
        one propagation sweep.

        ``trusted=True`` promises every clause is already clean (no zero,
        duplicate or complementary literals within a clause; the encoder's
        emitter builds only such clauses), which skips those checks.
        Root-level truth filtering still runs.

        ``guard`` names the selector guard literal (signed) shared by the
        batch: a ternary clause whose tail literal is the guard is routed
        to the guard-aware implication lists, which propagate with one
        truth-value read per entry and are dismissed wholesale once the
        guard is satisfied.
        """
        lits, lens = _int_buffer(literals), _int_buffer(lengths)
        if guard is not None and not -MAX_VARS < guard < MAX_VARS:
            raise ValueError(f"variables must be below {MAX_VARS}")
        lib, handle = self._lib, self._handle
        checked = lib.cdcl_check_batch(
            _address(lits), len(lits), _address(lens), len(lens), MAX_VARS,
        )
        if checked == -1:
            raise ValueError("clause lengths do not match the literal buffer")
        if checked == -2:
            raise ValueError(f"variables must be below {MAX_VARS}")
        done = lib.cdcl_add_clauses(
            handle, _address(lits), _address(lens), len(lens),
            int(bool(trusted)), int(guard is not None), guard or 0,
        )
        if done < 0:
            raise ValueError("literal 0 is not allowed in a clause")
        return bool(done)

    def solve(
        self,
        cnf: CNF | None = None,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        model_vars: Iterable[int] | None = None,
    ) -> SolverResult:
        """Decide satisfiability under optional ``assumptions``.

        Without ``cnf`` this is an incremental call on the persistent clause
        database (learned clauses, activities and phases are reused from
        earlier calls).  Passing a ``cnf`` resets the solver and loads the
        formula first.  ``conflict_limit`` and ``time_limit`` (seconds)
        bound the search; when either budget is exhausted the status is
        ``"UNKNOWN"``.  ``model_vars`` projects a SAT model onto just those
        variables (the mapper decodes only placement literals).
        """
        start = time.perf_counter()
        lib, handle = self._lib, self._handle
        lib.cdcl_begin(handle)
        if cnf is not None:
            lib.cdcl_reset(handle)
            self.ensure_vars(cnf.num_vars)
            self.add_clauses(*flatten(cnf.clauses))
        cube = _literals(assumptions)
        if conflict_limit is None:
            limit = -1
        else:
            limit = min(max(0, math.ceil(conflict_limit)), _MAX_CONFLICTS)
        code = lib.cdcl_solve(
            handle, _address(cube), len(cube), limit, int(time_limit is not None),
            float(time_limit if time_limit is not None else 0.0), start,
        )
        self._drain_proof()
        info = self._read_info()
        self.stats = SolverStats(
            decisions=info.decisions,
            propagations=info.propagations,
            conflicts=info.conflicts,
            restarts=info.restarts,
            learned_clauses=info.learned_clauses,
            deleted_clauses=info.deleted_clauses,
            max_decision_level=info.max_decision_level,
            solve_time=time.perf_counter() - start,
            binary_propagations=info.binary_propagations,
            blocker_skips=info.blocker_skips,
            arena_bytes=info.arena_bytes,
        )
        status = _STATUS_NAMES[code]
        if status != "SAT":
            return SolverResult(status, None, self.stats)
        num_vars = info.num_vars
        values = (ctypes.c_uint8 * (num_vars + 1))()
        lib.cdcl_model(handle, values)
        raw = bytes(values)
        if model_vars is not None:
            model = {var: raw[var] == 1 for var in model_vars if 0 < var <= num_vars}
        else:
            model = {var: raw[var] == 1 for var in range(1, num_vars + 1)}
        return SolverResult("SAT", model, self.stats)

    def _drain_proof(self) -> None:
        count = ctypes.c_int64()
        pointer = self._lib.cdcl_proof_events(self._handle, ctypes.byref(count))
        if not count.value:
            return
        events = list((ctypes.c_int32 * count.value).from_address(pointer))
        self._lib.cdcl_proof_clear(self._handle)
        proof = self.proof
        if proof is None:
            return
        index = 0
        while index < len(events):
            kind, size = events[index], events[index + 1]
            lits = events[index + 2:index + 2 + size]
            index += 2 + size
            if kind == _PROOF_ADD:
                proof.add(lits)  # type: ignore[attr-defined]
            else:
                proof.delete(lits)  # type: ignore[attr-defined]


def main() -> int:
    """``python -m repro.sat.native``: build or load the core and report.

    Exits 1, printing the reason, when the core cannot be loaded.
    """
    current = status()
    if not current.loaded:
        print(f"native core unavailable: {current.reason}")
        return 1
    print("solver core: native (search and clause emission)")
    print(f"library: {current.library}")
    if current.build_s is not None:
        print(f"built in {current.build_s:.2f} s")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised from the command line
    raise SystemExit(main())
