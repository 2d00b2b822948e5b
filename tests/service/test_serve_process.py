"""``repro serve`` as a real process on its default start path.

The in-process tests build their own :class:`~repro.service.JobManager`;
this one runs the CLI entry point, so its workers fork from the forkserver
the service starts at launch.  A miss and a hit are answered, and after
SIGINT nothing of the service is left in its process group: no server,
forkserver, resource tracker or worker.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

BODY = json.dumps({
    "kernel": "srand",
    "arch": {"rows": 2, "cols": 2},
    "config": {"timeout": 60, "random_seed": 0},
}).encode()


def _group(pgid: int) -> list[int]:
    """Live (not zombie) processes in process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def _get(url: str, data: bytes | None = None) -> dict:
    with urllib.request.urlopen(urllib.request.Request(url, data=data), timeout=120) as resp:
        return json.loads(resp.read())


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists the process group from /proc")
def test_serve_answers_a_miss_and_a_hit_and_leaves_no_process(tmp_path):
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--cache", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(server.stdout, selectors.EVENT_READ)
            assert selector.select(timeout=60.0), "no banner within 60 s"
        match = re.search(r"http://[\d.]+:(\d+)", server.stdout.readline())
        assert match, "unexpected banner"
        base = f"http://127.0.0.1:{match.group(1)}"
        miss = _get(base + "/map?wait=60", BODY)
        hit = _get(base + "/map?wait=60", BODY)
        stats = _get(base + "/stats")
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            os.killpg(server.pid, signal.SIGKILL)
            server.communicate()
            pytest.fail("the service did not stop within 60 s of SIGINT")
    deadline = time.monotonic() + 10.0
    while _group(server.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    leftovers = _group(server.pid)
    for pid in leftovers:
        os.kill(pid, signal.SIGKILL)
    assert leftovers == []
    assert miss["status"] == "done" and miss["result"]["cache_hit"] is False
    assert hit["status"] == "done" and hit["result"]["cache_hit"] is True
    assert hit["result"]["mapping"] == miss["result"]["mapping"]
    assert stats["requests"]["solves_started"] == 1
    assert stats["requests"]["worker_crashes"] == 0


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists the process group from /proc")
def test_serve_started_with_sigint_ignored_still_stops_on_sigint():
    # A non-interactive shell starts background jobs (and ``nohup``
    # scripts) with SIGINT ignored, and the child inherits that.
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
        preexec_fn=_ignore_sigint,
    )
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(server.stdout, selectors.EVENT_READ)
            assert selector.select(timeout=60.0), "no banner within 60 s"
        assert "listening" in server.stdout.readline()
        server.send_signal(signal.SIGINT)
        try:
            output, _ = server.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            pytest.fail("the service did not stop within 10 s of SIGINT")
    finally:
        if server.poll() is None:
            os.killpg(server.pid, signal.SIGKILL)
            server.communicate()
    assert "shut down" in output
    deadline = time.monotonic() + 10.0
    while _group(server.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    leftovers = _group(server.pid)
    for pid in leftovers:
        os.kill(pid, signal.SIGKILL)
    assert leftovers == []
