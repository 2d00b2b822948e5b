"""Worker processes: start, wait, receive, reap.

The service's solve jobs and the farm's sweep workers both run the mapper
in a child process.  This module is their one process lifecycle:

* :func:`start` — a child with its own duplex :func:`~multiprocessing.Pipe`;
  the parent keeps one end and closes the child's, so the child's exit
  reads as EOF on the parent's end.  Not the other way round: a forked
  child holds copies of the parent's ends, so it is stopped by
  :func:`reap`, never by closing its pipe.
* :func:`wait` — one :func:`multiprocessing.connection.wait` over every
  worker's connection and process sentinel.
* :func:`receive` — the worker's next message, or a :class:`Crash` record
  once the pipe is at EOF.  A message sent before the child exits is
  always read before the EOF, so no grace polling is needed to tell a
  late answer from a crash.
* :func:`reap` — SIGTERM every process, one shared grace, then SIGKILL
  (which also reaches a SIGSTOPped process) and join whatever is left.

The start method is the caller's choice and stays explicit, and either
way a child starts with the mapper stack already imported
(:data:`WORKER_MODULES`), never importing it itself:

* :func:`fork_context` — ``fork``, for single-threaded parents (the farm's
  scheduler).  The parent imports the worker modules and loads the native
  core first, so every child inherits both; a core that cannot load
  raises here, before any child starts.
* :func:`forkserver_context` — ``forkserver``, for a parent that runs
  threads (the service's event loop), which must not fork itself.  The
  children fork from a separate single-threaded server that preloaded the
  worker modules once.
"""

from __future__ import annotations

import ast
import importlib
import multiprocessing
import signal
import sys
import time
from dataclasses import asdict, dataclass
from multiprocessing import connection, forkserver
from pathlib import Path

#: Seconds a process gets to honour SIGTERM before :func:`reap` escalates
#: to SIGKILL, when the caller names no grace.
_TERM_GRACE = 5.0

#: Seconds :func:`receive` waits for a child whose pipe hit EOF to exit,
#: so its exit code can be read.
_EXIT_WAIT = 2.0

#: What a mapping worker runs: the encoder, the mapper and its II ladder,
#: the native core's loader and the sweep runner, with everything they
#: import.
WORKER_MODULES = (
    "repro.core.encoder",
    "repro.core.mapper",
    "repro.sat.native",
    "repro.experiments.runner",
)


def fork_context():
    """The ``fork`` context, after importing :data:`WORKER_MODULES` and
    loading the native core here, so forked children inherit both.

    Raises :class:`repro.sat.backend.BackendUnavailableError` when the core
    cannot be loaded, so the caller fails before it starts any child.
    """
    for name in WORKER_MODULES:
        importlib.import_module(name)
    from repro.sat import native

    native.load()
    return multiprocessing.get_context("fork")


def forkserver_context(*modules: str):
    """The ``forkserver`` context, its server started with
    :data:`WORKER_MODULES`, ``modules`` and the main module's imports
    preloaded.

    ``modules`` names where the children's target lives: a child imports
    that module to find its target.  Starting does not block: the server
    imports while the caller goes on, and only the first child waits for
    it.  A server already running in this process is reused as it is.
    """
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(
        [*WORKER_MODULES, *modules, *_main_imports()]
    )
    forkserver.ensure_running()
    return context


def _main_imports() -> list[str]:
    """The modules the main module imports at top level.

    Every child runs the main module again as ``__mp_main__`` (unless it
    is a package's ``__main__``), which is cheap only once its imports are
    loaded.  Only the imports are preloaded, not the main module: run
    with ``-m``, runpy warns when it finds that module already imported.
    The server skips a name it cannot import.
    """
    main = sys.modules["__main__"]
    spec_name = getattr(getattr(main, "__spec__", None), "name", "")
    path = getattr(main, "__file__", None)
    if path is None or spec_name.rpartition(".")[2] == "__main__":
        return []
    try:
        tree = ast.parse(Path(path).read_bytes())
    except (OSError, SyntaxError, ValueError):
        return []
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append(node.module)
    return names


@dataclass(eq=False)
class Worker:
    """A child process and the parent's end of its pipe."""

    process: object
    conn: connection.Connection


@dataclass(frozen=True)
class Crash:
    """How a worker died without answering: exit code or signal."""

    exit_code: int | None
    signal: int | None = None
    signal_name: str | None = None

    @classmethod
    def of(cls, exitcode: int | None) -> "Crash":
        """Read a multiprocessing exit code (negative means a signal)."""
        if exitcode is None or exitcode >= 0:
            return cls(exit_code=exitcode)
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = None
        return cls(exit_code=None, signal=-exitcode, signal_name=name)

    def record(self) -> dict:
        """The structured ``worker_crashed`` record."""
        return {"kind": "worker_crashed", **asdict(self)}

    def __str__(self) -> str:
        if self.signal is not None:
            name = self.signal_name or f"signal {self.signal}"
            return f"worker died unexpectedly (killed by {name})"
        return f"worker died unexpectedly (exit code {self.exit_code})"


def start(ctx, target, *args) -> Worker:
    """Start ``target(conn, *args)`` in a daemon child process of context
    ``ctx``; a mapping worker starts no children of its own."""
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=target, args=(child_conn, *args), daemon=True)
    process.start()
    child_conn.close()
    return Worker(process, parent_conn)


def wait(workers, timeout: float | None) -> list[Worker]:
    """The workers with a message, an EOF or an exit ready, within
    ``timeout`` seconds (an empty list when none is)."""
    by_handle = {}
    for worker in workers:
        by_handle[worker.conn] = worker
        by_handle[worker.process.sentinel] = worker
    ready = connection.wait(list(by_handle), timeout)
    return list(dict.fromkeys(by_handle[handle] for handle in ready))


def receive(worker: Worker):
    """The worker's next message, or its :class:`Crash` record on EOF.

    Call it on a worker :func:`wait` returned.  A dead worker whose pipe
    is not readable (a grandchild may hold the write end open) is a crash
    too, so this never blocks on a dead worker.
    """
    try:
        if worker.conn.poll():
            return worker.conn.recv()
    except (EOFError, OSError):
        pass
    # Join first: an unreaped child reads back as ``exitcode is None``.
    worker.process.join(_EXIT_WAIT)
    return Crash.of(worker.process.exitcode)


def reap(processes, grace: float | None = None) -> None:
    """Stop every process, guaranteeing all are dead on return.

    SIGTERM first, so a worker can run its cleanup handlers; whatever is
    still alive after one shared ``grace`` (default :data:`_TERM_GRACE`) —
    a worker stuck in native code, ignoring SIGTERM or SIGSTOPped — gets
    SIGKILL, which cannot be blocked, so the final joins always return.
    """
    processes = list(processes)
    for process in processes:
        if process.is_alive():
            process.terminate()
    deadline = time.monotonic() + (_TERM_GRACE if grace is None else grace)
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.kill()
            process.join()
