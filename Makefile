# Developer entry points.  The repo is import-ready with PYTHONPATH=src;
# no install step is needed.

PY ?= python
export PYTHONPATH := $(CURDIR)/src

.PHONY: test smoke bench-smoke bench bench-floors census perf-pairs lab-smoke lab-check fleet-smoke fleet-check serve serve-bench serve-check lint check parity

test:            ## full tier-1 suite
	$(PY) -m pytest -x -q

lint:            ## the repo's own AST lint pass over src/ (repro.analysis.lint)
	$(PY) -m repro lint src/repro

check:           ## static scenario verification, cross-validated against the engines
	$(PY) -m repro lab check --verify

PARITY_TESTS = tests/test_analysis_parity.py tests/test_analysis_protocol.py \
	tests/test_golden_check.py tests/test_analysis_differential.py \
	tests/test_ledger_lazy_bytes.py tests/test_transcript_bytes.py \
	tests/test_golden_corpus.py tests/test_store_entry_parity.py \
	tests/test_equilibrium_attacks.py tests/test_record_sizes.py \
	tests/test_engine_refusals.py tests/test_scenario_rules.py \
	tests/test_entry_encoding.py tests/test_escrow_contracts.py \
	tests/test_replay_parity.py tests/test_milestone_record.py \
	tests/test_canonical_text.py

parity:          ## the byte-parity suites: analyzer vs simulator, golden corpus, stored entries
	$(PY) -m pytest $(PARITY_TESTS) -q
	$(MAKE) check

smoke:           ## the pytest smoke lane (one tiny sweep per engine)
	$(PY) -m pytest -q -m smoke

bench-smoke:     ## same sweep without pytest, via the repro CLI
	$(PY) -m repro bench-smoke

bench:           ## the full figure-by-figure benchmark suite
	$(PY) -m pytest benchmarks/bench_*.py -q

bench-floors:    ## the frozen floors of the committed BENCH_E*.json artifacts
	$(PY) benchmarks/floors.py

census:          ## src/ line count and the defaulted public parameter + dataclass field census
	$(PY) benchmarks/census.py

BASE ?= HEAD~1
HEAD ?= HEAD
WORKLOAD ?= fleet-drain
N ?= 10
SEED ?= 3

perf-pairs:      ## N alternating perfbench runs of revisions BASE and HEAD on WORKLOAD
	$(PY) benchmarks/perf_pairs.py --base $(BASE) --head $(HEAD) \
	  --workload $(WORKLOAD) --n $(N) --seed $(SEED)

lab-smoke:       ## the lab smoke preset through the run store
	$(PY) -m repro lab run --preset smoke

# The lab checks.  Each block below is one shell step, run by `bash -e`
# from one fresh working directory (the scratch files they write, such
# as warm.out and stats.json, land there).

# Lab smoke preset (cold, then warm must be fully cached)
define LAB_SMOKE_SH
DIR="$$(mktemp -d)"
STORE="$$DIR/ci-runs.sqlite"
$(PY) -m repro lab run --preset smoke --store "$$STORE"
$(PY) -m repro lab run --preset smoke --store "$$STORE" \
  | tee warm.out
grep -q "executed 0," warm.out
# JSON lines round trip: export, import into a fresh store.
$(PY) -m repro lab export "$$DIR/runs.jsonl" --store "$$STORE"
$(PY) -m repro lab merge "$$DIR/copy.sqlite" "$$DIR/runs.jsonl"
$(PY) - "$$STORE" "$$DIR/copy.sqlite" <<'PY'
import sys

from repro.lab.store import open_store

original, copy = (open_store(path) for path in sys.argv[1:])
assert len(original) > 0 and len(copy) == len(original), (
    len(original), len(copy)
)
PY
endef
export LAB_SMOKE_SH

# Lab stats over the smoke store (JSON schema check)
define LAB_STATS_SH
STORE="$$(mktemp -d)/ci-runs.sqlite"
$(PY) -m repro lab run --preset smoke --serial --store "$$STORE"
$(PY) -m repro lab stats --by engine,mix --json --store "$$STORE" \
  > stats.json
$(PY) - <<'PY'
import json

payload = json.load(open("stats.json"))
assert payload["by"] == ["engine", "mix"]
assert payload["total_runs"] > 0
assert set(payload["dimensions"]) == {
    "engine", "family", "mix", "params", "timing"
}
assert payload["groups"], "stats produced no groups"
for group in payload["groups"]:
    assert set(group["group"]) == {"engine", "mix"}
    assert group["runs"] >= group["ok"] >= 0
    assert 0.0 <= group["all_deal_rate"] <= 1.0
    assert 0.0 <= group["thm49_safe_rate"] <= 1.0
    assert isinstance(group["failures"], dict)
print(f"stats schema ok: {len(payload['groups'])} group(s), "
      f"{payload['total_runs']} run(s)")
PY
endef
export LAB_STATS_SH

# Lab timing axis (jittered run + stats --by timing schema)
define LAB_TIMING_SH
STORE="$$(mktemp -d)/ci-runs.sqlite"
# Uniform first: these scenarios omit `timing` and must produce
# the historical run keys...
$(PY) -m repro lab run --preset smoke --serial --store "$$STORE"
# ...so the same preset re-run stays fully cached (the
# pre-timing-store back-compat guarantee)...
$(PY) -m repro lab run --preset smoke --serial --store "$$STORE" \
  | tee warm-timing.out
grep -q "executed 0," warm-timing.out
# ...while the jittered axis executes fresh runs under new keys.
$(PY) -m repro lab run --preset smoke --serial \
  --timing jittered --store "$$STORE" | tee jittered.out
grep -q "executed 12," jittered.out
$(PY) -m repro lab stats --by timing --json --store "$$STORE" \
  > timing-stats.json
$(PY) - <<'PY'
import json

payload = json.load(open("timing-stats.json"))
assert payload["by"] == ["timing"]
groups = {dict(g["group"])["timing"]: g for g in payload["groups"]}
assert set(groups) == {"uniform", "jittered"}, sorted(groups)
for group in groups.values():
    assert group["runs"] == 12
    assert 0.0 <= group["all_deal_rate"] <= 1.0
    assert 0.0 <= group["thm49_safe_rate"] <= 1.0
assert groups["uniform"]["all_deal_rate"] == 1.0
print("timing stats schema ok:", {
    name: group["all_deal_rate"] for name, group in groups.items()
})
PY
endef
export LAB_TIMING_SH

# Execution sessions (adaptive-stragglers run + milestone schema + warm cache)
define LAB_SESSIONS_SH
STORE="$$(mktemp -d)/ci-runs.sqlite"
# An adaptive-stragglers scenario runs through `lab run` (the
# session layer: milestone interventions fire mid-run)...
$(PY) -m repro lab run --family clique --grid n=4 --serial \
  --timing stragglers-tight --timing adaptive-stragglers-tight \
  --store "$$STORE" | tee adaptive.out
grep -q "executed 2," adaptive.out
# ...and the same invocation stays fully warm (session fields
# and milestone recording must not perturb run keys).
$(PY) -m repro lab run --family clique --grid n=4 --serial \
  --timing stragglers-tight --timing adaptive-stragglers-tight \
  --store "$$STORE" | tee adaptive-warm.out
grep -q "executed 0," adaptive-warm.out
$(PY) -m repro lab stats --by timing --json --store "$$STORE" \
  > milestone-stats.json
$(PY) - <<'PY'
import json, sqlite3, sys

# 1. The stored entries carry a valid milestone trace beside
#    (never inside) the byte-stable report.
MILESTONE_KINDS = {
    "phase1-start", "contract-escrowed", "secret-released",
    "phase2-complete", "settled",
}
store_path = open("adaptive.out").read().split("store: ")[1].split(" ")[0]
db = sqlite3.connect(store_path)
rows = db.execute("SELECT entry FROM runs").fetchall()
assert len(rows) == 2, len(rows)
for (blob,) in rows:
    entry = json.loads(blob)
    assert entry["ok"]
    milestones = entry["milestones"]
    assert set(milestones) <= MILESTONE_KINDS, milestones
    assert all(
        isinstance(count, int) and count >= 1
        for count in milestones.values()
    ), milestones
    assert milestones["phase1-start"] == 1
    assert milestones["settled"] == 1
    assert "milestones" not in entry["report"]

# 2. `lab stats` aggregates the milestone means per group, and
#    the adaptive straggler is the more damaging one at the
#    same violation budget.
payload = json.load(open("milestone-stats.json"))
groups = {dict(g["group"])["timing"]: g for g in payload["groups"]}
assert set(groups) == {"stragglers", "adaptive-stragglers"}, sorted(groups)
for group in groups.values():
    means = group["milestone_means"]
    assert means.get("settled") == 1.0, means
    assert means.get("contract-escrowed", 0) > 0, means
assert (
    groups["adaptive-stragglers"]["all_deal_rate"]
    < groups["stragglers"]["all_deal_rate"]
), {k: g["all_deal_rate"] for k, g in groups.items()}
print("milestone schema ok; adaptive < static all-Deal at equal budget")
PY
endef
export LAB_SESSIONS_SH


lab-check:       ## lab smoke cold/warm + export/merge, stats schema, timing axis, execution sessions
	cd "$$(mktemp -d)" && \
	bash -ec "$$LAB_SMOKE_SH" && \
	bash -ec "$$LAB_STATS_SH" && \
	bash -ec "$$LAB_TIMING_SH" && \
	bash -ec "$$LAB_SESSIONS_SH"

fleet-smoke:     ## the smoke preset drained by a 4-worker claim/lease fleet
	$(PY) -m repro lab run --preset smoke --fleet 4 --store .lab/fleet.sqlite
	$(PY) -m repro lab fleet status --store .lab/fleet.sqlite

# The fleet checks, run the same way.  The status step reads the
# fleet.sqlite the drain step leaves behind.

# 3-worker drain with one killed mid-run (no dup, no loss)
define FLEET_DRAIN_SH
$(PY) - <<'PY'
import os, signal, subprocess, time
from pathlib import Path

from repro.api import Scenario, Sweep, run_sweep
from repro.digraph.generators import cycle_digraph
from repro.fleet import FleetConfig, FleetCoordinator
from repro.fleet.driver import _worker_command, _worker_env
from repro.lab.store import open_store

sweep = Sweep("ci-fleet")
for index in range(24):
    sweep.add("herlihy", Scenario(
        topology=cycle_digraph(6), seed=index, name=f"ci#{index}",
    ))

with open_store("serial.sqlite") as serial:
    run_sweep(sweep, store=serial, parallel=False)
    expected = {key: serial.get(key) for key in serial.keys()}

path = Path("fleet.sqlite")
config = FleetConfig(lease_ttl=1.0, skew_grace=0.25, chunk_size=8)
coordinator = FleetCoordinator(path, config)
coordinator.enqueue(sweep.items())

procs = [
    subprocess.Popen(
        _worker_command(path, config, f"ci-w{i}", fast_path=False),
        env=_worker_env(),
    )
    for i in range(3)
]
# Shoot the owner of the first lease seen, whichever worker it is.
deadline = time.monotonic() + 120
victim_chunk = None
while time.monotonic() < deadline and victim_chunk is None:
    victim_chunk = next((
        chunk for chunk in coordinator.status()["chunks"]
        if chunk["state"] == "leased"
    ), None)
    time.sleep(0.01)
assert victim_chunk is not None, "no worker ever claimed"
victim = int(victim_chunk["owner"].removeprefix("ci-w"))
os.kill(procs[victim].pid, signal.SIGKILL)

# The survivors must drain the whole queue, the killed
# worker's chunk included, inside the lease-expiry window.
for proc in procs:
    proc.wait(timeout=120)
assert coordinator.outstanding() == 0
status = coordinator.status()
coordinator.close()

with open_store(str(path)) as drained:
    keys = list(drained.keys())
    assert len(keys) == len(set(keys)) == len(expected), "dup/loss"
    assert set(keys) == set(expected)
    import json
    def comparable(entry):
        entry = json.loads(json.dumps(entry))
        (entry.get("report") or {}).pop("wall_seconds", None)
        return entry
    for key, entry in expected.items():
        assert comparable(drained.get(key)) == comparable(entry), key
assert status["counts"]["items_done"] == len(expected)
reissued = [c for c in status["chunks"] if c["attempts"] >= 2]
print(f"kill-recovery ok: {len(expected)} run(s) drained exactly, "
      f"{len(reissued)} chunk(s) re-issued after SIGKILL")
PY
endef
export FLEET_DRAIN_SH

# lab fleet status --json schema
define FLEET_STATUS_SH
$(PY) -m repro lab fleet status --store fleet.sqlite --json \
  > status.json
$(PY) - <<'PY'
import json

status = json.load(open("status.json"))
assert set(status) == {
    "store", "config", "counts", "chunks", "workers"
}, sorted(status)
assert set(status["config"]) == {
    "lease_ttl", "skew_grace", "chunk_size"
}
counts = status["counts"]
assert set(counts) == {
    "pending", "leased", "done", "items_queued", "items_done"
}
assert counts["pending"] == counts["leased"] == 0
assert counts["done"] > 0
assert counts["items_done"] == counts["items_queued"] > 0
for chunk in status["chunks"]:
    assert set(chunk) == {
        "chunk_id", "seq", "size", "state", "owner",
        "attempts", "lease_expires_in",
    }
    assert chunk["state"] == "done"
assert status["workers"], "no worker heartbeats recorded"
for worker in status["workers"]:
    assert set(worker) == {
        "worker_id", "seen_age", "chunks_done", "items_done"
    }
print(f"status schema ok: {len(status['chunks'])} chunk(s), "
      f"{len(status['workers'])} worker(s)")
PY
endef
export FLEET_STATUS_SH

# Fleet CLI drive (driver spawn, warm re-run, unsafe refusal)
define FLEET_CLI_SH
STORE="$$(mktemp -d)/ci-fleet.sqlite"
$(PY) -m repro lab run --preset smoke --fleet 3 --store "$$STORE"
$(PY) -m repro lab run --preset smoke --fleet 3 --store "$$STORE" \
  | tee warm-fleet.out
grep -q "drained 0 run(s)" warm-fleet.out
if $(PY) -m repro lab work --store unsafe.jsonl 2> refuse.err; then
  echo "jsonl store was not refused" >&2; exit 1
fi
grep -q "concurrent-writer safety" refuse.err
endef
export FLEET_CLI_SH

fleet-check:     ## fleet drain with one worker killed, status --json schema, CLI drive
	cd "$$(mktemp -d)" && \
	bash -ec "$$FLEET_DRAIN_SH" && \
	bash -ec "$$FLEET_STATUS_SH" && \
	bash -ec "$$FLEET_CLI_SH"

serve:           ## the long-lived swap service daemon
	$(PY) -m repro serve

serve-bench:     ## load-generate against an in-process daemon (bench E27's CLI twin)
	$(PY) -m repro serve-bench

# The daemon check: boot `repro serve` on a fixed port, submit one cold
# scenario, stream its milestones, resubmit it warm (zero engines).
define SERVE_CHECK_PY
import time

from repro.serve.client import ServeClient, sample_scenarios
from repro.serve.events import TERMINAL_EVENTS, check_envelope
from repro.sim.milestones import MILESTONE_KINDS

client = ServeClient("127.0.0.1", 18642)
for _ in range(100):
    if client.healthy():
        break
    time.sleep(0.2)
else:
    raise SystemExit("daemon did not come up")

# Cold submission: accepted, long-polled to settled.
scenario = sample_scenarios(1)[0]
status, doc = client.submit(scenario, engine="herlihy")
assert status == 202 and doc["status"] == "accepted", (status, doc)
key = doc["key"]
settled = client.wait_settled(key, timeout=60)
assert settled["status"] == "settled", settled
assert settled["report"]["engine"] == "herlihy"

# The streamed milestone JSON is schema-valid (check_envelope
# re-validates each line) and covers the lifecycle in order.
events = [check_envelope(e) for e in client.events(key)]
kinds = [event["event"] for event in events]
assert kinds[0] == "accepted" and kinds[-1] in TERMINAL_EVENTS, kinds
streamed = {e["data"]["kind"] for e in events if e["event"] == "milestone"}
assert streamed and streamed <= set(MILESTONE_KINDS), streamed

# Second submission of the same scenario: answered from the
# warm cache with zero engine executions.
status, doc = client.submit(scenario, engine="herlihy")
assert status == 200 and doc["status"] == "cached", (status, doc)
assert doc["engines_executed"] == 0, doc
assert client.status()["executed"] == 1
print(f"serve ok: streamed {sorted(streamed)}; warm resubmit cached")
endef
export SERVE_CHECK_PY

serve-check:     ## daemon boot, milestone stream, warm resubmit; serve-bench warm pass and input refusals
	STORE="$$(mktemp -d)/serve.sqlite"; \
	$(PY) -m repro serve --port 18642 --store "$$STORE" --rate 0 & \
	SERVE_PID=$$!; \
	trap 'kill $$SERVE_PID 2>/dev/null || true' EXIT; \
	$(PY) -c "$$SERVE_CHECK_PY"
	$(PY) -m repro serve-bench --scenarios 8 --clients 2
	$(PY) -m repro serve-bench --scenarios 8 --clients 2 \
	  --store "$$(mktemp -d)/sb.sqlite"
	for flags in "--scenarios 0" "--scenarios 4 --clients 0"; do \
	  err="$$($(PY) -m repro serve-bench $$flags 2>&1)"; code=$$?; \
	  echo "serve-bench $$flags: exit $$code, $$err"; \
	  test $$code -eq 1 || exit 1; \
	  case "$$err" in "error: "*) ;; *) exit 1 ;; esac; \
	done
