"""The native CDCL core: build-on-first-use loader and ctypes declarations.

``_cdcl.c`` (next to this module) is the repository's CDCL search engine
(:class:`repro.sat.backend.CDCLBackend` drives it) and also carries the
mapping encoder's clause emission kernel (``enc_*``, driven by
:mod:`repro.core.encoder`).  Mapping needs both, so
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
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from repro.sat.backend import BackendUnavailableError

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
ABI = 4
#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT = 300


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


class SolverInfo(ctypes.Structure):
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
        "cdcl_new_vars": (i32, [ptr, i64]),
        "cdcl_add_clause": (ctypes.c_int, [ptr, ptr, i64]),
        "cdcl_check_batch": (ctypes.c_int, [ptr, i64, ptr, i64, i32]),
        "cdcl_add_clauses": (ctypes.c_int, [ptr, ptr, ptr, i64, i32, i32, i32]),
        "cdcl_begin": (None, [ptr]),
        "cdcl_solve": (ctypes.c_int, [ptr, ptr, i64, i64, i32, ctypes.c_double,
                                      ctypes.c_double]),
        "cdcl_info_get": (None, [ptr, ctypes.POINTER(SolverInfo)]),
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


def proof_events(lib: ctypes.CDLL, handle: int) -> list[int]:
    """Drain a solver's buffered DRAT events (``[kind, n, lit_1 .. lit_n]``
    records, see ``_cdcl.c``)."""
    count = ctypes.c_int64()
    pointer = lib.cdcl_proof_events(handle, ctypes.byref(count))
    if not count.value:
        return []
    events = list((ctypes.c_int32 * count.value).from_address(pointer))
    lib.cdcl_proof_clear(handle)
    return events


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
