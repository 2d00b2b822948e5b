"""The native core's loader: build once, load lazily, fail with one reason."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sat import native
from repro.sat.backend import BackendUnavailableError, CDCLBackend
from repro.sat.solver import make_solver

SRC = Path(native.__file__).resolve().parents[2]

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH"
)


def _child_env(cache_home: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The user cache directory the loader builds into, pointed at a
    # temporary directory so the test starts cold.
    env["XDG_CACHE_HOME"] = str(cache_home)
    return env


@pytest.fixture
def cold_loader(monkeypatch, tmp_path):
    """A loader that has not run yet in this process, with an empty cache."""
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_status", None)
    monkeypatch.setattr(native, "cache_root", lambda: tmp_path / "cache")
    return tmp_path / "cache"


def _refused(reason_part: str) -> BackendUnavailableError:
    """Check that every way in raises the loader's error; return it."""
    errors = []
    for create in (make_solver, CDCLBackend, native.load):
        with pytest.raises(BackendUnavailableError) as excinfo:
            create()
        errors.append(str(excinfo.value))
    # The failure is recorded once and raised again, not retried.
    assert len(set(errors)) == 1
    status = native.status()
    assert not status.loaded and reason_part in status.reason
    assert status.reason in errors[0]
    assert "\n" not in errors[0]
    return excinfo.value


@needs_compiler
def test_racing_processes_build_one_library_and_both_load_it(tmp_path):
    script = (
        "import json, sys\n"
        "from repro.sat import native\n"
        "sys.stdin.readline()\n"  # start line: both children are ready
        "status = native.status()\n"
        "print(json.dumps([status.loaded, status.library, status.build_s is not None]))\n"
    )
    env = _child_env(tmp_path)
    children = [
        subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for _ in range(2)
    ]
    for child in children:
        child.stdin.write("go\n")
        child.stdin.flush()
    reports = [json.loads(child.communicate(timeout=300)[0]) for child in children]
    assert all(loaded for loaded, _, _ in reports)
    assert reports[0][1] == reports[1][1]
    # Exactly one of the two compiled; the other waited on the lock and
    # loaded the finished library.
    assert sorted(built for _, _, built in reports) == [False, True]
    libraries = list((tmp_path / "repro-satmapit" / "native").glob("*.so"))
    assert [str(path) for path in libraries] == [reports[0][1]]


def test_unwritable_cache_directory_is_refused(cold_loader, monkeypatch):
    blocker = cold_loader.parent / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(native, "cache_root", lambda: blocker / "cache")
    monkeypatch.setattr(native, "find_compiler", lambda: sys.executable)
    error = _refused("not writable")
    assert error.binary == os.path.basename(sys.executable)


def test_missing_compiler_is_refused(cold_loader, monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    error = _refused("no C compiler")
    assert error.binary == "cc" and error.hint == "install cc or gcc"
    assert str(error).startswith("solver backend unavailable: 'cc' cannot build")
    assert not cold_loader.exists()


def test_compile_error_is_refused(cold_loader, monkeypatch, tmp_path):
    broken = tmp_path / "_cdcl.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    error = _refused("exited")
    assert native.status().reason.startswith("BuildError")
    assert error.binary == os.path.basename(native.find_compiler())
    # No partial library is left behind for a later process to load.
    assert not list(cold_loader.glob("*.so")) and not list(cold_loader.glob(".build-*"))


def test_importing_the_mapper_neither_builds_nor_loads(tmp_path):
    script = (
        "import repro.core.mapper, repro.sat.backend, repro.cli\n"
        "from repro.sat import native\n"
        "print(native._status is None)\n"
        "print(any('cdcl-' in line for line in open('/proc/self/maps')))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(tmp_path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["True", "False"]
    assert not (tmp_path / "repro-satmapit").exists()


def test_cli_without_a_compiler_prints_one_error_line(tmp_path):
    """``repro map`` on a host with no compiler and a cold cache: one
    ``error:`` line naming the compiler, no traceback, a non-zero exit."""
    empty = tmp_path / "bin"
    empty.mkdir()
    env = _child_env(tmp_path / "cold-cache")
    # A PATH on which neither cc nor gcc can be found.
    env["PATH"] = str(empty)
    assert shutil.which("cc", path=env["PATH"]) is None
    assert shutil.which("gcc", path=env["PATH"]) is None
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "map", "--kernel", "srand",
         "--rows", "2", "--cols", "2"],
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "Traceback" not in done.stderr + done.stdout
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert "'cc'" in lines[0] and "no C compiler" in lines[0]
    assert not list((tmp_path / "cold-cache").rglob("*.so"))
