"""External SAT solvers as :class:`SolverBackend` implementations.

The built-in CDCL engine (a MiniSat-style core, native or pure Python) has
no inprocessing; a system Kissat is much stronger on hard formulas.
:class:`SubprocessBackend` reaches such solvers without giving up the
mapper's incremental interface:

* **Persistent formula accumulation** — clauses accumulate in a
  :class:`~repro.sat.cnf.CNF` exactly like the DPLL oracle backend; the
  serialised clause lines are cached so each solve call re-exports only the
  delta (new clauses are appended to the cached body, never re-serialised).
* **Incremental-ish solving** — external solvers are one-shot, so each
  ``solve(assumptions=...)`` call appends the assumption literals as *unit
  cubes* to the export.  Selector-guarded attempt groups therefore work
  unchanged: retiring a group means its selector's negation rides along as a
  unit, exactly as it would as an internal assumption.
* **Timeout/kill discipline** — solvers run in their own process group
  (POSIX) and a blown ``time_limit`` SIGKILLs the whole group, so a solver
  that forks helpers cannot outlive the attempt; the call reports
  ``"UNKNOWN"`` like an exhausted internal budget does.
* **Proofs** — solvers that emit DRAT get a proof path appended to their
  command line; UNSAT results record the trace path and its SHA-256 digest
  (see :mod:`repro.sat.drat`).

Registry names: ``kissat`` / ``cadical`` / ``minisat`` resolve system
binaries (raising :class:`BackendUnavailableError` with an install hint when
absent), ``subprocess`` is the always-available bundled
:mod:`repro.sat.pysolver`, and ``external:<path>`` runs an arbitrary
competition-interface binary (``solver FILE.cnf [PROOF.drat]``, ``s``/``v``
stdout lines, exit code 10/20).

External engines are **not instrumented**: they cannot report conflict or
propagation counters, so ``BackendStats`` keeps those at zero, the mapper
skips conflict-budget probing for them, and the perf harness reports ``null``
rates instead of garbage.
"""

from __future__ import annotations

import errno
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.sat.backend import (
    BackendStats,
    BackendUnavailableError,
    register_backend,
)
from repro.sat.cnf import CNF, clause_slices
from repro.sat.drat import check_proof, proof_digest
from repro.sat.solver import SolverResult, SolverStats

__all__ = [
    "ExternalSolverError",
    "ExternalSolverSpec",
    "SubprocessBackend",
    "KNOWN_SOLVERS",
    "EXTERNAL_PREFIX",
    "BUNDLED_BACKEND",
    "is_external_backend",
    "resolve_spec",
    "ensure_available",
]

EXTERNAL_PREFIX = "external:"
#: The bundled solver, ``python -m repro.sat.pysolver`` (always available;
#: the CI-free stand-in for a system solver).
BUNDLED_BACKEND = "subprocess"

#: Transient launch-failure handling: a loaded machine can refuse a fork
#: (ENOMEM / EAGAIN) or OOM-kill a just-started solver, and neither says
#: anything about the binary itself — unlike ENOENT, which no amount of
#: retrying fixes.  Such failures are retried with bounded exponential
#: backoff before :class:`BackendUnavailableError` is raised; the error
#: message reports how many attempts were burned.
LAUNCH_RETRIES = 2
LAUNCH_BACKOFF = 0.05
_TRANSIENT_LAUNCH_ERRNOS = frozenset({errno.ENOMEM, errno.EAGAIN})


class ExternalSolverError(RuntimeError):
    """An external solver behaved unexpectedly (bad exit, unparseable
    output, or an emitted proof that failed verification)."""


@dataclass(frozen=True)
class ExternalSolverSpec:
    """How to drive one external solver binary.

    ``dialect`` selects the I/O convention: ``"competition"`` solvers read
    the CNF path (plus optional proof path), print ``s ``/``v `` lines and
    exit 10/20; ``"minisat"`` solvers take an extra result-file argument and
    write ``SAT``/``UNSAT`` plus the model there.
    """

    name: str
    command: tuple[str, ...]
    dialect: str = "competition"
    quiet_flags: tuple[str, ...] = ()
    #: Format string for a conflict budget (e.g. ``"--conflicts={}"``);
    #: ``None`` means the solver takes no budget and probing is pointless.
    conflict_flag: str | None = None
    supports_proof: bool = False
    #: Extra flags required when a proof is requested (e.g. Kissat needs
    #: ``--no-binary`` to emit textual DRAT our checker can read).
    proof_flags: tuple[str, ...] = ()
    install_hint: str = ""


#: Solvers resolvable by bare registry name.  ``command`` is filled in at
#: resolution time from ``shutil.which``.
KNOWN_SOLVERS: dict[str, ExternalSolverSpec] = {
    "kissat": ExternalSolverSpec(
        name="kissat",
        command=(),
        dialect="competition",
        quiet_flags=("-q",),
        conflict_flag="--conflicts={}",
        supports_proof=True,
        proof_flags=("--no-binary",),
        install_hint="apt-get install kissat",
    ),
    "cadical": ExternalSolverSpec(
        name="cadical",
        command=(),
        dialect="competition",
        quiet_flags=("-q",),
        supports_proof=True,
        proof_flags=("--no-binary",),
        install_hint="apt-get install cadical",
    ),
    "minisat": ExternalSolverSpec(
        name="minisat",
        command=(),
        dialect="minisat",
        quiet_flags=("-verb=0",),
        install_hint="apt-get install minisat",
    ),
}


def _bundled_spec() -> ExternalSolverSpec:
    return ExternalSolverSpec(
        name=BUNDLED_BACKEND,
        command=(sys.executable, "-m", "repro.sat.pysolver"),
        dialect="competition",
        conflict_flag="--conflicts={}",
        supports_proof=True,
    )


def is_external_backend(name: str) -> bool:
    """True for names the subprocess layer owns (binary or bundled)."""
    return (
        name == BUNDLED_BACKEND
        or name in KNOWN_SOLVERS
        or name.startswith(EXTERNAL_PREFIX)
    )


def resolve_spec(name: str) -> ExternalSolverSpec:
    """Resolve a backend name to a runnable spec.

    Raises :class:`BackendUnavailableError` (with an install hint) when the
    named binary is not on PATH / not executable, and :class:`ValueError`
    for names the external layer does not recognise.
    """
    if name == BUNDLED_BACKEND:
        return _bundled_spec()
    if name.startswith(EXTERNAL_PREFIX):
        target = name[len(EXTERNAL_PREFIX):]
        if not target:
            raise ValueError("external: backend needs a path, e.g. external:/usr/bin/kissat")
        resolved = shutil.which(target)
        if resolved is None and os.path.isfile(target) and os.access(target, os.X_OK):
            resolved = target
        if resolved is None:
            raise BackendUnavailableError(
                binary=target,
                hint="point external:<path> at an executable competition-interface solver",
            )
        return ExternalSolverSpec(
            name=name,
            command=(resolved,),
            dialect="competition",
            supports_proof=True,
        )
    spec = KNOWN_SOLVERS.get(name)
    if spec is None:
        raise ValueError(f"unknown external solver backend {name!r}")
    binary = shutil.which(name)
    if binary is None:
        raise BackendUnavailableError(binary=name, hint=spec.install_hint)
    return replace(spec, command=(binary,))


def ensure_available(name: str) -> None:
    """Validate an external backend name eagerly (no-op for internal ones).

    Lets callers that fan work out (portfolio lanes, sweep workers) fail
    with one clear error up front instead of per-worker deep in
    ``subprocess``.
    """
    if is_external_backend(name):
        resolve_spec(name)


def _sanitize_tag(tag: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_.@" else "_" for ch in tag)


class SubprocessBackend:
    """Drive an external DIMACS solver through the backend protocol."""

    instrumented = False

    def __init__(
        self,
        spec: ExternalSolverSpec,
        *,
        dimacs_dir: str | os.PathLike[str] | None = None,
        reuse_dimacs: bool = False,
        proof: bool = False,
        verify_proofs: bool = False,
        tag: str | None = None,
        random_seed: int | None = None,
        **_ignored: object,
    ) -> None:
        if proof and not spec.supports_proof:
            raise ValueError(
                f"backend {spec.name!r} does not support DRAT proof emission"
            )
        self.spec = spec
        self.name = spec.name
        self.stats = BackendStats()
        self._cnf = CNF()
        self._lines: list[str] = []  # serialised clause cache (delta export)
        self._dimacs_dir = Path(dimacs_dir) if dimacs_dir is not None else None
        self._reuse = reuse_dimacs
        self._proof = proof
        self._verify = verify_proofs
        self._tag = _sanitize_tag(tag or spec.name)
        self._seed = random_seed
        self._tmpdir: tempfile.TemporaryDirectory[str] | None = None
        self._solve_index = 0
        #: Artefacts of the most recent solve call.
        self.last_dimacs_path: str | None = None
        self.last_proof_path: str | None = None
        self.proof_path: str | None = None
        self._last_proof_digest: str | None = None

    # -- formula accumulation (CNF-compatible surface) ------------------
    @property
    def num_vars(self) -> int:
        """Number of variables in the accumulated CNF."""
        return self._cnf.num_vars

    @property
    def accumulated_cnf(self) -> CNF:
        """The accumulated clause set (shared reference, do not mutate)."""
        return self._cnf

    def new_var(self) -> int:
        """Allocate one fresh CNF variable."""
        self.stats.variables_added += 1
        return self._cnf.new_var()

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh CNF variables."""
        self.stats.variables_added += count
        return self._cnf.new_vars(count)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Append one clause to the accumulated CNF."""
        self.stats.clauses_added += 1
        self._cnf.add_clause(literals)

    def add_clauses(
        self,
        literals: Sequence[int],
        lengths: Sequence[int],
        guard: int | None = None,
        trusted: bool = False,
    ) -> None:
        """Append a flat batch clause by clause (``guard``/``trusted`` are
        parity-only)."""
        for clause in clause_slices(literals, lengths):
            self.add_clause(clause)

    def proof_digest(self) -> str | None:
        """SHA-256 digest of the most recent UNSAT proof, if any."""
        return self._last_proof_digest

    # -- solving --------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        model_vars: Iterable[int] | None = None,
    ) -> SolverResult:
        """Export formula + cube as DIMACS and run the external binary."""
        start = time.perf_counter()
        cube = [int(lit) for lit in assumptions]
        cnf_path = self._export(cube)
        proof_path = (
            cnf_path.with_suffix(".drat") if self._proof else None
        )
        argv = self._argv(cnf_path, proof_path, conflict_limit)
        result_path = (
            cnf_path.with_suffix(".out") if self.spec.dialect == "minisat" else None
        )

        returncode, stdout, stderr = self._run(argv, time_limit)
        elapsed = time.perf_counter() - start
        call_stats = SolverStats()
        call_stats.solve_time = elapsed
        self.stats.solve_calls += 1
        self.stats.solve_time += elapsed
        self.last_dimacs_path = str(cnf_path)
        self.last_proof_path = None
        self._last_proof_digest = None

        if returncode is None:  # timeout -> killed
            return SolverResult("UNKNOWN", None, call_stats)

        if self.spec.dialect == "minisat":
            status, model = self._parse_minisat(result_path, returncode)
        else:
            status, model = self._parse_competition(stdout, returncode)
        if status is None:
            raise ExternalSolverError(
                f"{self.name}: could not parse solver output "
                f"(exit {returncode}): {stderr.strip()[:500] or stdout.strip()[:500]}"
            )

        if status == "UNSAT" and proof_path is not None and proof_path.exists():
            self.last_proof_path = str(proof_path)
            self.proof_path = str(proof_path)
            trace = proof_path.read_text()
            self._last_proof_digest = proof_digest(trace)
            if self._verify:
                check = check_proof(self._cnf.clauses, trace, assumptions=cube)
                if not check.ok:
                    raise ExternalSolverError(
                        f"{self.name}: emitted DRAT proof failed verification: "
                        f"{check.reason}"
                    )
        if status == "SAT" and model is not None and model_vars is not None:
            model = {var: model.get(var, False) for var in model_vars}
        return SolverResult(status, model, call_stats)

    # -- internals ------------------------------------------------------
    def _export(self, cube: Sequence[int]) -> Path:
        clauses = self._cnf.clauses
        for clause in clauses[len(self._lines):]:
            self._lines.append(" ".join(str(lit) for lit in clause) + " 0\n")
        header = f"p cnf {self._cnf.num_vars} {len(self._lines) + len(cube)}\n"
        content = (
            header
            + "".join(self._lines)
            + "".join(f"{lit} 0\n" for lit in cube)
        )
        path = self._solve_path(content)
        if not (self._reuse and path.exists()):
            self._atomic_write(path, content)
        return path

    def _solve_path(self, content: str) -> Path:
        self._solve_index += 1
        if self._dimacs_dir is not None:
            # Content-addressed name: identical formula+cube re-solves map
            # to the same file, which is what makes --reuse-dimacs safe.
            digest = hashlib.sha256(content.encode("ascii")).hexdigest()[:16]
            self._dimacs_dir.mkdir(parents=True, exist_ok=True)
            return self._dimacs_dir / f"{self._tag}-{digest}.cnf"
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-sat-")
        return Path(self._tmpdir.name) / f"solve-{self._solve_index:04d}.cnf"

    @staticmethod
    def _atomic_write(path: Path, content: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(content)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _argv(
        self,
        cnf_path: Path,
        proof_path: Path | None,
        conflict_limit: int | None,
    ) -> list[str]:
        spec = self.spec
        argv = list(spec.command) + list(spec.quiet_flags)
        if conflict_limit is not None and spec.conflict_flag:
            argv.append(spec.conflict_flag.format(conflict_limit))
        if self._seed is not None and spec.name == BUNDLED_BACKEND:
            argv.append(f"--seed={self._seed}")
        if proof_path is not None:
            argv.extend(spec.proof_flags)
        if spec.dialect == "minisat":
            argv.append(str(cnf_path))
            argv.append(str(cnf_path.with_suffix(".out")))
        else:
            argv.append(str(cnf_path))
            if proof_path is not None:
                argv.append(str(proof_path))
        return argv

    def _run(
        self, argv: list[str], time_limit: float | None
    ) -> tuple[int | None, str, str]:
        """Launch the solver, retrying transient failures (see module doc).

        Two failure shapes are retried with bounded backoff: the fork
        itself being refused (ENOMEM/EAGAIN under memory pressure), and
        the solver dying on a signal before printing any verdict (an
        OOM-killed or operator-killed process, not a wrong answer).  A
        non-transient launch error (ENOENT, EACCES) raises immediately;
        exhausting the retries raises :class:`BackendUnavailableError`
        whose message reports the attempt count.
        """
        env = os.environ.copy()
        # The bundled solver (and any external:<script>) must be able to
        # import this package from a bare checkout.
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        popen_kwargs: dict[str, object] = {}
        if os.name == "posix":
            popen_kwargs["start_new_session"] = True
        last_failure = ""
        attempts = 0
        for attempt in range(LAUNCH_RETRIES + 1):
            if attempt:
                time.sleep(LAUNCH_BACKOFF * 2 ** (attempt - 1))
            attempts = attempt + 1
            try:
                proc = subprocess.Popen(
                    argv,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                    **popen_kwargs,  # type: ignore[arg-type]
                )
            except OSError as exc:
                if exc.errno not in _TRANSIENT_LAUNCH_ERRNOS:
                    raise BackendUnavailableError(
                        binary=argv[0], hint=f"failed to launch: {exc}"
                    ) from exc
                last_failure = f"failed to launch: {exc}"
                continue
            try:
                stdout, stderr = proc.communicate(timeout=time_limit)
            except subprocess.TimeoutExpired:
                self._kill(proc)
                try:
                    stdout, stderr = proc.communicate(timeout=5)
                except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                    stdout, stderr = "", ""
                return None, stdout or "", stderr or ""
            if (
                proc.returncode is not None
                and proc.returncode < 0
                and not self._has_verdict(stdout or "")
            ):
                # Killed by a signal before printing any verdict: the
                # machine, not the formula, ended this run.
                last_failure = (
                    f"solver killed by signal {-proc.returncode} "
                    f"before producing a verdict"
                )
                continue
            return proc.returncode, stdout or "", stderr or ""
        raise BackendUnavailableError(
            binary=argv[0],
            hint=(
                f"{last_failure} "
                f"(after {attempts} launch attempt(s) with backoff)"
            ),
        )

    @staticmethod
    def _has_verdict(stdout: str) -> bool:
        """Whether solver output already contains an ``s ...`` status line."""
        return any(
            line.strip().startswith("s ") for line in stdout.splitlines()
        )

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        """SIGKILL the whole process group (solvers may fork helpers)."""
        if os.name == "posix":
            try:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                return
            except (ProcessLookupError, PermissionError, OSError):
                pass
        proc.kill()

    def _parse_competition(
        self, stdout: str, returncode: int
    ) -> tuple[str | None, dict[int, bool] | None]:
        status: str | None = None
        lits: list[int] = []
        for raw in stdout.splitlines():
            line = raw.strip()
            if line.startswith("s "):
                word = line[2:].strip()
                if word == "SATISFIABLE":
                    status = "SAT"
                elif word == "UNSATISFIABLE":
                    status = "UNSAT"
                else:
                    status = "UNKNOWN"
            elif line.startswith("v "):
                lits.extend(int(tok) for tok in line[2:].split())
        if status is None:
            status = {10: "SAT", 20: "UNSAT", 0: "UNKNOWN"}.get(returncode)
        if status != "SAT":
            return status, None
        model = {abs(lit): lit > 0 for lit in lits if lit != 0}
        for var in range(1, self._cnf.num_vars + 1):
            model.setdefault(var, False)
        return status, model

    def _parse_minisat(
        self, result_path: Path | None, returncode: int
    ) -> tuple[str | None, dict[int, bool] | None]:
        if result_path is None or not result_path.exists():
            return {10: "SAT", 20: "UNSAT", 0: "UNKNOWN"}.get(returncode), None
        tokens = result_path.read_text().split()
        if not tokens:
            return None, None
        word = tokens[0]
        if word == "UNSAT":
            return "UNSAT", None
        if word == "INDET":
            return "UNKNOWN", None
        if word != "SAT":
            return None, None
        model = {abs(lit): lit > 0 for lit in map(int, tokens[1:]) if lit != 0}
        for var in range(1, self._cnf.num_vars + 1):
            model.setdefault(var, False)
        return "SAT", model


def _factory(name: str):
    def build(**kwargs: object) -> SubprocessBackend:
        return SubprocessBackend(resolve_spec(name), **kwargs)  # type: ignore[arg-type]

    return build


def create_external_backend(name: str, **kwargs: object) -> SubprocessBackend:
    """Entry point :func:`repro.sat.backend.create_backend` defers to for
    ``external:<path>`` names (lazy import keeps the modules acyclic)."""
    return SubprocessBackend(resolve_spec(name), **kwargs)  # type: ignore[arg-type]


for _name in (BUNDLED_BACKEND, *KNOWN_SOLVERS):
    register_backend(_name, _factory(_name), instrumented=False)
