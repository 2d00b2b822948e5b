"""End-to-end service smoke: serve == CLI on the same problem.

Starts ``repro serve`` as a real subprocess, maps one kernel through
``POST /map`` + ``GET /jobs/{id}``, posts it again without ``?wait`` and
requires a cache hit answered ``200 done`` in that same response, without a
second worker process (the cold answer's mapping, which replays in the
simulator), then posts the same problem under a
second tenant and with one semantic config field changed and requires
each to be a miss that starts one solve (the server's problem table must
not carry a cache key across either), stops the service with SIGINT and requires
its whole process group (server, forkserver, resource tracker, workers)
gone within 10 s, maps the same kernel through ``repro map``, and fails
unless both report the same II.  Run by the CI ``service-smoke`` job::

    PYTHONPATH=src python benchmarks/service_smoke.py

Not a pytest module on purpose — the point is the real process boundary
(subprocess, socket, SIGINT shutdown), which the in-process tests under
``tests/service/`` deliberately avoid for speed.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

KERNEL, ROWS, COLS = "srand", 3, 3
STARTUP_DEADLINE_S = 30.0
SOLVE_DEADLINE_S = 120.0
#: Seconds after the server exits for the rest of its process group to go.
GROUP_DEADLINE_S = 10.0


def group_pids(pgid: int) -> list[int]:
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


def wait_for_port(process: subprocess.Popen) -> int:
    """Parse the listening port from the service's banner line."""
    deadline = time.monotonic() + STARTUP_DEADLINE_S
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"service exited before listening (rc={process.poll()})"
            )
        sys.stdout.write(line)
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise SystemExit("service did not print its listening banner in time")


def http(url: str, data: bytes | None = None) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def replay(mapping_dict: dict) -> str | None:
    """Rebuild a served mapping and simulate it; ``None`` when it checks out."""
    from repro.core.mapping import Mapping
    from repro.simulator import CGRASimulator

    mapping = Mapping.from_dict(mapping_dict)
    violations = mapping.violations()
    if violations:
        return violations[0]
    result = CGRASimulator(mapping, None).run(4)
    if not result.success:
        return result.errors[0] if result.errors else "simulation failed"
    return None


def main() -> int:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    with tempfile.TemporaryDirectory() as cache:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--pool", "2", "--cache", cache],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True,
        )
        try:
            port = wait_for_port(server)
            base = f"http://127.0.0.1:{port}"

            status, health = http(base + "/healthz")
            assert status == 200 and health["status"] == "ok", health

            body = json.dumps({
                "kernel": KERNEL,
                "arch": {"rows": ROWS, "cols": COLS},
                "config": {"timeout": 60, "random_seed": 0},
            }).encode()
            status, submitted = http(base + "/map", body)
            assert status in (200, 202), submitted
            job_id = submitted["job"]

            deadline = time.monotonic() + SOLVE_DEADLINE_S
            payload = submitted
            while payload["status"] not in ("done", "failed", "cancelled"):
                if time.monotonic() > deadline:
                    raise SystemExit(f"job stuck: {payload}")
                time.sleep(0.5)
                status, payload = http(f"{base}/jobs/{job_id}")
                assert status == 200, payload
            assert payload["status"] == "done", payload
            cold_mapping = payload["result"]["mapping"]
            served_ii = payload["result"]["ii"]
            print(f"service: {KERNEL} on {ROWS}x{COLS} -> II={served_ii}")

            status, stats = http(base + "/stats")
            assert status == 200, stats
            assert stats["requests"]["completed"] == 1, stats
            print(f"service stats: {json.dumps(stats['requests'])}")

            # A repeat is a cache hit answered by the server itself, in the
            # first response even without ``?wait``: same II, a mapping
            # that replays, and no second worker process.
            status, warm = http(f"{base}/map", body)
            assert status == 200 and warm["status"] == "done", warm
            assert warm["result"]["cache_hit"] is True, warm["result"]
            assert warm["result"]["ii"] == served_ii, warm["result"]
            assert warm["result"]["mapping"] == cold_mapping, "warm != cold"
            replay_error = replay(warm["result"]["mapping"])
            if replay_error:
                raise SystemExit(f"warm answer does not replay: {replay_error}")
            status, stats = http(base + "/stats")
            assert status == 200, stats
            assert stats["requests"]["solves_started"] == 1, stats
            assert stats["cache"]["hits"] == 1, stats["cache"]
            print(f"service: warm repeat -> cache hit, II={served_ii}, replayed")

            # The same problem is a new one under another tenant (its own
            # namespace) and with a semantic config field changed (a new
            # key): each misses and starts exactly one solve.
            problem = json.loads(body)
            variants = (
                ("tenant team-b", {**problem, "tenant": "team-b"}),
                ("no register allocation", {
                    **problem,
                    "config": {**problem["config"], "run_register_allocation": False},
                }),
            )
            for solves, (label, variant) in enumerate(variants, start=2):
                status, answer = http(
                    f"{base}/map?wait={SOLVE_DEADLINE_S}", json.dumps(variant).encode()
                )
                assert status == 200 and answer["status"] == "done", answer
                assert answer["result"]["cache_hit"] is False, answer["result"]
                status, stats = http(base + "/stats")
                assert status == 200, stats
                assert stats["requests"]["solves_started"] == solves, stats
                assert stats["cache"]["hits"] == 1, stats["cache"]
                print(f"service: {label} -> miss, II={answer['result']['ii']}")
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(server.pid, signal.SIGKILL)
                server.wait()
                raise SystemExit("service ignored SIGINT")
        deadline = time.monotonic() + GROUP_DEADLINE_S
        while group_pids(server.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        leftovers = group_pids(server.pid)
        if leftovers:
            os.killpg(server.pid, signal.SIGKILL)
            raise SystemExit(f"service left processes behind: {leftovers}")
        print("service: stopped on SIGINT, no process left behind")

    cli = subprocess.run(
        [sys.executable, "-m", "repro.cli", "map", "--kernel", KERNEL,
         "--rows", str(ROWS), "--cols", str(COLS), "--timeout", "60"],
        capture_output=True, text=True, env=env, timeout=SOLVE_DEADLINE_S,
    )
    print(cli.stdout, end="")
    if cli.returncode != 0:
        raise SystemExit(f"repro map failed: {cli.stderr}")
    match = re.search(r"II=(\d+)", cli.stdout)
    if not match:
        raise SystemExit("repro map output carried no II")
    cli_ii = int(match.group(1))

    if served_ii != cli_ii:
        raise SystemExit(
            f"II mismatch: service={served_ii}, repro map={cli_ii}"
        )
    print(f"OK: service and CLI agree on II={served_ii}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
