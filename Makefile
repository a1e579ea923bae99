# Developer entry points.  The repo is import-ready with PYTHONPATH=src;
# no install step is needed.

PY ?= python
export PYTHONPATH := src

.PHONY: test smoke bench-smoke bench bench-floors lab-smoke fleet-smoke serve serve-bench serve-check lint check parity

test:            ## full tier-1 suite
	$(PY) -m pytest -x -q

lint:            ## the repo's own AST lint pass over src/ (repro.analysis.lint)
	$(PY) -m repro lint src/repro

check:           ## static scenario verification, cross-validated against the engines
	$(PY) -m repro lab check --verify

PARITY_TESTS = tests/test_analysis_parity.py tests/test_analysis_protocol.py \
	tests/test_golden_check.py tests/test_analysis_differential.py \
	tests/test_ledger_lazy_bytes.py tests/test_transcript_bytes.py \
	tests/test_golden_corpus.py tests/test_store_entry_parity.py

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

lab-smoke:       ## the lab smoke preset through the run store
	$(PY) -m repro lab run --preset smoke

fleet-smoke:     ## the smoke preset drained by a 4-worker claim/lease fleet
	$(PY) -m repro lab run --preset smoke --fleet 4 --store .lab/fleet.sqlite
	$(PY) -m repro lab fleet status --store .lab/fleet.sqlite

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
