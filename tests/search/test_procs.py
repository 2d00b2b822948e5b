"""The worker-process primitive shared by the portfolio, the service and
the farm: a pipe per worker, a crash record on EOF, the shared-grace
reap."""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time

from repro import procs

FORK = multiprocessing.get_context("fork")


def _answer_then_exit(conn, value) -> None:
    conn.send(("ok", value))
    sys.exit(0)


def _exit_with(conn, code) -> None:
    sys.exit(code)


def _kill_self(conn) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _stop_self(conn) -> None:
    os.kill(os.getpid(), signal.SIGSTOP)


def _echo(conn) -> None:
    while True:
        conn.send(conn.recv() * 2)


def _receive_one(worker):
    assert procs.wait([worker], 30.0) == [worker]
    reply = procs.receive(worker)
    procs.reap([worker.process], grace=1.0)
    worker.conn.close()
    return reply


class TestReceive:
    def test_message_sent_just_before_exit_is_always_received(self):
        for index in range(200):
            worker = procs.start(FORK, _answer_then_exit, index)
            assert _receive_one(worker) == ("ok", index)

    def test_sigkill_is_a_crash_record(self):
        crash = _receive_one(procs.start(FORK, _kill_self))
        assert isinstance(crash, procs.Crash)
        assert crash.signal == signal.SIGKILL
        assert crash.signal_name == "SIGKILL"
        assert crash.exit_code is None
        assert crash.record() == {
            "kind": "worker_crashed", "exit_code": None,
            "signal": int(signal.SIGKILL), "signal_name": "SIGKILL",
        }
        assert "killed by SIGKILL" in str(crash)

    def test_exit_code_is_a_crash_record(self):
        crash = _receive_one(procs.start(FORK, _exit_with, 3))
        assert crash == procs.Crash(exit_code=3)
        assert "exit code 3" in str(crash)

    def test_long_lived_worker_answers_each_message(self):
        worker = procs.start(FORK, _echo)
        for value in (1, 2, 3):
            worker.conn.send(value)
            assert procs.wait([worker], 30.0) == [worker]
            assert procs.receive(worker) == value * 2
        procs.reap([worker.process], grace=1.0)
        worker.conn.close()
        assert worker.process.exitcode == -signal.SIGTERM

    def test_wait_times_out_empty(self):
        worker = procs.start(FORK, _echo)
        assert procs.wait([worker], 0.05) == []
        procs.reap([worker.process], grace=1.0)
        worker.conn.close()


class TestReap:
    def test_sigstopped_child_is_reaped(self):
        worker = procs.start(FORK, _stop_self)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with open(f"/proc/{worker.process.pid}/stat") as stat:
                if stat.read().rsplit(")", 1)[1].split()[0] == "T":
                    break
            time.sleep(0.01)
        procs.reap([worker.process], grace=0.2)
        worker.conn.close()
        assert not worker.process.is_alive()
        assert worker.process.exitcode == -signal.SIGKILL
