"""The subprocess solving layer: lifecycle, parsing, proofs, differential.

The bundled ``subprocess`` backend (``python -m repro.sat.pysolver``) keeps
every test runnable without a system solver; the same differential and
mapper-equivalence checks are additionally parametrised over real binaries
(kissat/cadical/minisat) and skip when those are not installed — CI installs
one and exercises them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.cgra.architecture import CGRA
from repro.kernels import get_kernel
from repro.sat.backend import (
    BackendUnavailableError,
    backend_instrumented,
    create_backend,
    validate_backend,
)
from repro.sat.drat import proof_digest
from repro.sat.external import (
    BUNDLED_BACKEND,
    KNOWN_SOLVERS,
    ExternalSolverError,
    ExternalSolverSpec,
    SubprocessBackend,
    ensure_available,
    is_external_backend,
    resolve_spec,
)
from repro.sat.solver import CDCLSolver

from tests.sat.test_differential import random_cnf

#: Real system solvers, exercised only where installed (CI installs kissat).
REAL_SOLVERS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            shutil.which(name) is None, reason=f"{name} not installed"
        ),
    )
    for name in sorted(KNOWN_SOLVERS)
]

UNSAT_3 = [
    (s1 * 1, s2 * 2, s3 * 3)
    for s1 in (1, -1)
    for s2 in (1, -1)
    for s3 in (1, -1)
]


def _bundled(**kwargs) -> SubprocessBackend:
    return SubprocessBackend(resolve_spec(BUNDLED_BACKEND), **kwargs)


def _script(tmp_path, body: str) -> str:
    path = tmp_path / "solver.sh"
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


# ---------------------------------------------------------------------------
# Availability / registry
# ---------------------------------------------------------------------------


def test_missing_binary_raises_with_install_hint():
    missing = [n for n in KNOWN_SOLVERS if shutil.which(n) is None]
    if not missing:
        pytest.skip("every known solver is installed here")
    name = missing[0]
    with pytest.raises(BackendUnavailableError) as excinfo:
        create_backend(name)
    assert excinfo.value.binary == name
    assert excinfo.value.hint == KNOWN_SOLVERS[name].install_hint
    assert "not found" in str(excinfo.value)
    with pytest.raises(BackendUnavailableError):
        validate_backend(name)


def test_external_path_resolution(tmp_path):
    with pytest.raises(BackendUnavailableError):
        resolve_spec("external:/no/such/solver")
    with pytest.raises(ValueError):
        resolve_spec("external:")
    with pytest.raises(ValueError):
        resolve_spec("lingeling-from-the-future")
    script = _script(tmp_path, "exit 20")
    spec = resolve_spec(f"external:{script}")
    assert spec.command == (script,)
    validate_backend(f"external:{script}")  # must not raise


def test_backend_classification():
    assert is_external_backend(BUNDLED_BACKEND)
    assert is_external_backend("kissat")
    assert is_external_backend("external:/usr/bin/foo")
    assert not is_external_backend("cdcl")
    ensure_available("cdcl")  # no-op for internal backends
    ensure_available(BUNDLED_BACKEND)
    assert not backend_instrumented(BUNDLED_BACKEND)
    assert not backend_instrumented("external:/usr/bin/foo")
    assert backend_instrumented("cdcl")


def test_proof_requires_capable_solver():
    spec = ExternalSolverSpec(name="noproof", command=("true",))
    with pytest.raises(ValueError, match="proof"):
        SubprocessBackend(spec, proof=True)


# ---------------------------------------------------------------------------
# Bundled backend: solving, cubes, proofs, export reuse
# ---------------------------------------------------------------------------


def test_bundled_sat_and_unsat_under_cube():
    backend = _bundled()
    backend.new_vars(3)
    backend.add_clause([1, 2])
    backend.add_clause([-2, 3])
    result = backend.solve()
    assert result.status == "SAT"
    assert backend.accumulated_cnf.evaluate(result.model)
    # The same formula under a contradictory assumption cube...
    assert backend.solve(assumptions=[-1, 2, -3]).status == "UNSAT"
    # ...and the accumulated formula is unchanged by the earlier cube.
    assert backend.solve(assumptions=[1]).status == "SAT"
    assert backend.stats.solve_calls == 3
    assert backend.stats.clauses_added == 2
    assert backend.stats.solve_time > 0
    assert backend.stats.conflicts == 0  # not instrumented, never faked


def test_model_projection_and_default_completion():
    backend = _bundled()
    backend.new_vars(4)
    backend.add_clause([1])
    result = backend.solve(model_vars=[1, 4])
    assert result.status == "SAT"
    assert set(result.model) == {1, 4}
    assert result.model[1] is True


def test_unsat_proof_digest_and_verification():
    backend = _bundled(proof=True, verify_proofs=True)
    backend.new_vars(3)
    for clause in UNSAT_3:
        backend.add_clause(clause)
    assert backend.proof_digest() is None
    result = backend.solve()
    assert result.status == "UNSAT"
    digest = backend.proof_digest()
    assert digest is not None
    assert backend.last_proof_path is not None
    with open(backend.last_proof_path, encoding="utf-8") as stream:
        assert proof_digest(stream.read()) == digest


def test_unsat_under_assumptions_proof_verifies():
    # F is SAT; only the cube makes it UNSAT.  verify_proofs replays the
    # bundled checker with the cube as unit clauses — a proof-convention
    # bug here would raise ExternalSolverError instead of returning.
    backend = _bundled(proof=True, verify_proofs=True)
    backend.new_vars(3)
    backend.add_clause([-1, 2])
    backend.add_clause([-2, 3])
    backend.add_clause([-1, -3])
    result = backend.solve(assumptions=[1])
    assert result.status == "UNSAT"
    assert backend.proof_digest() is not None


def test_dimacs_dir_content_addressing_and_reuse(tmp_path):
    backend = _bundled(dimacs_dir=tmp_path, reuse_dimacs=True, tag="t@2x2")
    backend.new_vars(2)
    backend.add_clause([1, 2])
    backend.solve(assumptions=[-1])
    first = backend.last_dimacs_path
    assert first is not None and first.startswith(str(tmp_path))
    content = Path(first).read_text()
    # The cube rides along as trailing unit clauses, counted in the header.
    assert content == "p cnf 2 2\n1 2 0\n-1 0\n"
    stamp = os.stat(first).st_mtime_ns
    # Identical re-solve maps to the same content-addressed file and the
    # reuse flag skips the rewrite.
    backend.solve(assumptions=[-1])
    assert backend.last_dimacs_path == first
    assert os.stat(first).st_mtime_ns == stamp
    # A different cube is a different formula, hence a different file.
    backend.solve(assumptions=[2])
    assert backend.last_dimacs_path != first


# ---------------------------------------------------------------------------
# Subprocess lifecycle against scripted fake solvers
# ---------------------------------------------------------------------------


def test_timeout_kills_the_solver_process(tmp_path):
    # The fake solver ignores its input and sleeps far past the budget; the
    # backend must SIGKILL the process group and report UNKNOWN promptly.
    script = _script(tmp_path, "sleep 60")
    backend = SubprocessBackend(resolve_spec(f"external:{script}"))
    backend.new_vars(1)
    backend.add_clause([1])
    start = time.perf_counter()
    result = backend.solve(time_limit=0.3)
    elapsed = time.perf_counter() - start
    assert result.status == "UNKNOWN"
    assert result.model is None
    assert elapsed < 10.0


def test_unparseable_output_is_an_error(tmp_path):
    script = _script(tmp_path, 'echo "segfault noises" >&2\nexit 3')
    backend = SubprocessBackend(resolve_spec(f"external:{script}"))
    backend.new_vars(1)
    backend.add_clause([1])
    with pytest.raises(ExternalSolverError, match="segfault noises"):
        backend.solve()


def test_exit_code_fallback_parsing(tmp_path):
    unsat = SubprocessBackend(resolve_spec(f"external:{_script(tmp_path, 'exit 20')}"))
    unsat.new_vars(1)
    unsat.add_clause([1])
    assert unsat.solve().status == "UNSAT"

    sat = SubprocessBackend(resolve_spec(f"external:{_script(tmp_path, 'exit 10')}"))
    sat.new_vars(2)
    sat.add_clause([-1, -2])
    result = sat.solve()
    # Exit 10 with no "v" lines: don't-care completion defaults every
    # variable to False.
    assert result.status == "SAT"
    assert result.model == {1: False, 2: False}


def test_minisat_dialect_result_file(tmp_path):
    def backend_for(body: str) -> SubprocessBackend:
        spec = ExternalSolverSpec(
            name="fakemini",
            command=(_script(tmp_path, body),),
            dialect="minisat",
        )
        backend = SubprocessBackend(spec)
        backend.new_vars(3)
        backend.add_clause([1, -2])
        return backend

    sat = backend_for('echo "SAT 1 -2 0" > "$2"\nexit 10')
    result = sat.solve()
    assert result.status == "SAT"
    assert result.model == {1: True, 2: False, 3: False}
    assert backend_for('echo "UNSAT" > "$2"\nexit 20').solve().status == "UNSAT"
    assert backend_for('echo "INDET" > "$2"\nexit 0').solve().status == "UNKNOWN"


def test_pysolver_cli_speaks_competition_format(tmp_path):
    cnf_path = tmp_path / "f.cnf"
    cnf_path.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.sat.pysolver", str(cnf_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 10
    assert "s SATISFIABLE" in proc.stdout
    assert any(line.startswith("v ") for line in proc.stdout.splitlines())

    proof_path = tmp_path / "f.drat"
    cnf_path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.sat.pysolver", str(cnf_path),
         str(proof_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 20
    assert "s UNSATISFIABLE" in proc.stdout
    assert proof_path.exists()


# ---------------------------------------------------------------------------
# Differential fuzzing vs the internal CDCL engine
# ---------------------------------------------------------------------------


def _differential_block(backend_name: str, seeds: range) -> None:
    for seed in seeds:
        rng = random.Random(seed)
        cnf = random_cnf(rng)
        internal = CDCLSolver(random_seed=seed).solve(cnf)
        backend = create_backend(backend_name)
        backend.new_vars(cnf.num_vars)
        for clause in cnf.clauses:
            backend.add_clause(clause)
        assumptions = []
        if rng.random() < 0.5:
            count = rng.randint(1, min(3, cnf.num_vars))
            chosen = rng.sample(range(1, cnf.num_vars + 1), k=count)
            assumptions = [
                var if rng.random() < 0.5 else -var for var in chosen
            ]
            internal = CDCLSolver(random_seed=seed).solve(
                cnf, assumptions=assumptions
            )
        external = backend.solve(assumptions=assumptions)
        assert external.status == internal.status, (
            f"seed {seed}: {backend_name} {external.status} "
            f"vs cdcl {internal.status} (assumptions={assumptions})"
        )
        if external.status == "SAT":
            model = dict(external.model)
            for lit in assumptions:
                assert model.get(abs(lit), False) is (lit > 0), (
                    f"seed {seed}: cube literal {lit} violated"
                )
            assert cnf.evaluate(model), f"seed {seed}: model invalid"


# The same 200-seed corpus as tests/sat/test_differential.py: two blocks in
# tier-1 (the bundled engine spawns one process per instance), the rest in
# the nightly slow tier.
@pytest.mark.parametrize("block", range(2))
def test_differential_bundled_vs_cdcl(block):
    _differential_block(BUNDLED_BACKEND, range(block * 25, (block + 1) * 25))


@pytest.mark.slow
@pytest.mark.parametrize("block", range(2, 8))
def test_differential_bundled_vs_cdcl_extended(block):
    _differential_block(BUNDLED_BACKEND, range(block * 25, (block + 1) * 25))


@pytest.mark.parametrize("solver", REAL_SOLVERS)
def test_differential_real_solver_vs_cdcl(solver):
    _differential_block(solver, range(0, 50))


# ---------------------------------------------------------------------------
# Mapper integration
# ---------------------------------------------------------------------------


def _mapper_config(backend: str, **extra) -> MapperConfig:
    # Decisive attempts and no regalloc post-pass make the II a formula
    # property, so backends must agree exactly (see experiments/perf.py).
    return MapperConfig(
        timeout=120.0,
        backend=backend,
        slack_conflict_limit=None,
        run_register_allocation=False,
        random_seed=0,
        **extra,
    )


def _map_ii(backend: str, **extra):
    mapper = SatMapItMapper(_mapper_config(backend, **extra))
    return mapper.map(get_kernel("gsm"), CGRA.square(2))


def test_mapper_ii_identical_subprocess_vs_cdcl():
    internal = _map_ii("cdcl")
    external = _map_ii(BUNDLED_BACKEND)
    assert external.final_status == internal.final_status == "mapped"
    assert external.ii == internal.ii
    # Every decisive attempt verdict matches rung for rung.
    internal_rungs = [(a.ii, a.schedule_slack, a.status) for a in internal.attempts]
    external_rungs = [(a.ii, a.schedule_slack, a.status) for a in external.attempts]
    assert external_rungs == internal_rungs


@pytest.mark.parametrize("solver", REAL_SOLVERS)
def test_mapper_ii_identical_real_solver_vs_cdcl(solver):
    internal = _map_ii("cdcl")
    external = _map_ii(solver)
    assert external.final_status == internal.final_status == "mapped"
    assert external.ii == internal.ii


def test_mapper_records_proof_digests_and_cache_entry(tmp_path):
    outcome = _map_ii(
        BUNDLED_BACKEND,
        proof=True,
        dimacs_dir=str(tmp_path / "dimacs"),
        cache_dir=str(tmp_path / "cache"),
    )
    assert outcome.final_status == "mapped"
    unsat = [a for a in outcome.attempts if a.status == "UNSAT"]
    assert unsat and all(a.proof_digest for a in unsat)
    assert outcome.proof_path is not None and os.path.exists(outcome.proof_path)
    entries = list((tmp_path / "cache").glob("*.json"))
    assert len(entries) == 1
    entry = json.loads(entries[0].read_text())
    digests = entry["unsat_proof_digests"]
    assert digests == {
        str(a.ii): a.proof_digest for a in unsat
    }


def test_mapper_proof_digests_with_internal_backend(tmp_path):
    outcome = _map_ii("cdcl", proof=True, dimacs_dir=str(tmp_path))
    assert outcome.final_status == "mapped"
    unsat = [a for a in outcome.attempts if a.status == "UNSAT"]
    assert unsat and all(a.proof_digest for a in unsat)
    assert outcome.proof_path is not None
    traces = list(tmp_path.glob("*.drat"))
    assert traces, "cdcl proof trace should land in --dimacs-dir"


# ---------------------------------------------------------------------------
# Transient launch failures: bounded retry before BackendUnavailableError
# ---------------------------------------------------------------------------

class TestLaunchRetry:
    """ENOMEM/EAGAIN forks and signal-killed solvers are machine trouble,
    not formula trouble: ``_run`` retries them with bounded backoff and
    only then raises :class:`BackendUnavailableError`, reporting how many
    attempts it burned."""

    @staticmethod
    def _backend() -> SubprocessBackend:
        backend = SubprocessBackend(resolve_spec(BUNDLED_BACKEND))
        backend.add_clause([1])
        return backend

    def test_transient_fork_failure_is_retried(self, monkeypatch):
        import errno

        import repro.sat.external as external

        monkeypatch.setattr(external, "LAUNCH_BACKOFF", 0.0)
        real_popen = subprocess.Popen
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_popen(*args, **kwargs)

        monkeypatch.setattr(external.subprocess, "Popen", flaky)
        result = self._backend().solve()
        assert result.status == "SAT"
        assert calls["n"] == 3

    def test_exhausted_retries_report_attempt_count(self, monkeypatch):
        import errno

        import repro.sat.external as external

        monkeypatch.setattr(external, "LAUNCH_BACKOFF", 0.0)
        calls = {"n": 0}

        def doomed(*args, **kwargs):
            calls["n"] += 1
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(external.subprocess, "Popen", doomed)
        with pytest.raises(BackendUnavailableError) as excinfo:
            self._backend().solve()
        assert calls["n"] == external.LAUNCH_RETRIES + 1
        message = str(excinfo.value)
        assert f"{external.LAUNCH_RETRIES + 1} launch attempt" in message
        assert "Cannot allocate memory" in message

    def test_permanent_launch_failure_fails_fast(self, monkeypatch):
        import errno

        import repro.sat.external as external

        calls = {"n": 0}

        def missing(*args, **kwargs):
            calls["n"] += 1
            raise OSError(errno.ENOENT, "No such file or directory")

        monkeypatch.setattr(external.subprocess, "Popen", missing)
        with pytest.raises(BackendUnavailableError, match="failed to launch"):
            self._backend().solve()
        assert calls["n"] == 1  # no retry can conjure a missing binary

    @staticmethod
    def _flaky_solver_script(tmp_path: Path, always_die: bool = False) -> Path:
        """A competition-interface solver that SIGKILLs itself on its first
        run (or every run), then answers SAT."""
        marker = tmp_path / "died-once"
        script = tmp_path / "flaky-solver.sh"
        die = "kill -9 $$" if always_die else (
            f'if [ ! -e "{marker}" ]; then touch "{marker}"; kill -9 $$; fi'
        )
        script.write_text(
            "#!/bin/sh\n"
            f"{die}\n"
            'echo "s SATISFIABLE"\n'
            'echo "v 1 0"\n'
            "exit 10\n"
        )
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        return script

    def test_solver_killed_by_signal_is_retried(self, tmp_path, monkeypatch):
        import repro.sat.external as external

        monkeypatch.setattr(external, "LAUNCH_BACKOFF", 0.0)
        script = self._flaky_solver_script(tmp_path)
        backend = SubprocessBackend(resolve_spec(f"external:{script}"))
        backend.add_clause([1])
        result = backend.solve()
        assert result.status == "SAT"
        assert (tmp_path / "died-once").exists()

    def test_solver_dying_every_time_exhausts_to_unavailable(
        self, tmp_path, monkeypatch
    ):
        import repro.sat.external as external

        monkeypatch.setattr(external, "LAUNCH_BACKOFF", 0.0)
        script = self._flaky_solver_script(tmp_path, always_die=True)
        backend = SubprocessBackend(resolve_spec(f"external:{script}"))
        backend.add_clause([1])
        with pytest.raises(BackendUnavailableError) as excinfo:
            backend.solve()
        message = str(excinfo.value)
        assert "killed by signal 9" in message
        assert "launch attempt" in message
