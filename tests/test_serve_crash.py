"""Crash injection for the serve daemon: SIGKILL mid-run, then restart.

``python -m repro serve --store runs.sqlite`` records each settled job
in its SQLite store and flushes before publishing ``settled``.  A kill
at any point must leave that file clean (Golab, *Recoverable Consensus
in Shared Memory*): an intact database, only complete entries — never
an aborted or partial run — and, after a restart on the same file,
every key that settled before the kill answers ``cached`` while every
other key re-executes to the entry a serial ``run_sweep`` stores.
"""

from __future__ import annotations

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro
from repro.api import RunReport, Scenario, Sweep, run_key, run_sweep
from repro.digraph.generators import cycle_digraph
from repro.lab.store import SqliteStore
from repro.serve.client import ServeClient

OK_FIELDS = {"ok", "report", "milestones"}
FAILURE_FIELDS = {"ok", "engine", "scenario", "error_type", "message"}


def simulate_only_sweep() -> Sweep:
    """Twelve jittered cycles: outside the closed form, so each one runs
    the simulator."""
    sweep = Sweep("serve-crash")
    for index in range(12):
        sweep.add("herlihy", Scenario(
            topology=cycle_digraph(5 + index % 2), seed=index,
            timing="jittered", name=f"serve-crash#{index}",
        ))
    return sweep


def digest(entry: dict) -> str:
    """The entry's canonical bytes, wall time zeroed."""
    data = json.loads(json.dumps(entry))
    if data["ok"]:
        data["report"]["wall_seconds"] = 0.0
    return json.dumps(data, sort_keys=True)


def boot(store: Path) -> tuple[subprocess.Popen, ServeClient]:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store),
         "--port", "0", "--rate", "0", "--concurrency", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    banner = daemon.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    assert match, f"daemon did not start: {banner!r}"
    return daemon, ServeClient(match.group(1), int(match.group(2)))


def stop(daemon: subprocess.Popen, sig: int) -> None:
    if daemon.poll() is None:
        daemon.send_signal(sig)
    daemon.wait(timeout=30)
    daemon.stdout.close()


def test_sigkilled_daemon_leaves_a_clean_store_and_restarts_warm(tmp_path):
    sweep = simulate_only_sweep()
    with SqliteStore(":memory:") as serial:
        run_sweep(sweep, store=serial, parallel=False)
        expected = {key: digest(entry) for key, entry in serial.entries()}
    keys = [run_key(engine, scenario) for engine, scenario in sweep.items()]
    assert set(keys) == set(expected)

    store = tmp_path / "serve.sqlite"
    daemon, client = boot(store)
    try:
        # Concurrent submits queue the whole batch before the one
        # execution slot works through it (sequential ones would each
        # wait out a running job), so the kill lands mid-queue.
        with ThreadPoolExecutor(len(keys)) as pool:
            statuses = list(pool.map(
                lambda scenario: client.submit(scenario.to_dict(), engine="herlihy")[0],
                [scenario for _, scenario in sweep.items()],
            ))
        assert statuses == [202] * len(keys)
        deadline = time.monotonic() + 60
        while client.status()["settled"] == 0:  # the first settled event
            assert time.monotonic() < deadline, "no job settled"
            time.sleep(0.002)
    finally:
        stop(daemon, signal.SIGKILL)
    assert daemon.returncode == -signal.SIGKILL

    db = sqlite3.connect(str(store))
    try:
        assert db.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        rows = db.execute("SELECT key, ok, entry FROM runs").fetchall()
    finally:
        db.close()
    durable = {}
    for key, ok, raw in rows:
        entry = json.loads(raw)
        assert set(entry) == (OK_FIELDS if entry["ok"] else FAILURE_FIELDS), key
        assert ok == int(entry["ok"]) and "aborted" not in entry
        if entry["ok"]:
            RunReport.from_dict(entry["report"])  # complete and decodable
        durable[key] = entry
    assert durable  # a job settled, so its entry was flushed first
    assert set(durable) <= set(keys)

    daemon, client = boot(store)
    try:
        for key, (_, scenario) in zip(keys, sweep.items()):
            status, doc = client.submit(scenario.to_dict(), engine="herlihy")
            if key in durable:
                assert (status, doc["status"]) == (200, "cached"), key
            else:
                assert status == 202, key
                assert client.wait_settled(key, timeout=60)["status"] == "settled"
        assert client.status()["executed"] == len(keys) - len(durable)
    finally:
        stop(daemon, signal.SIGTERM)

    with SqliteStore(store) as restarted:
        assert len(restarted) == len(keys)
        for key in keys:
            assert digest(restarted.get(key)) == expected[key], key
        for key, entry in durable.items():
            assert restarted.get(key) == entry  # cached keys were not rewritten
