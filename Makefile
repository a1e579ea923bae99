# Developer entry points.  The repo is import-ready with PYTHONPATH=src;
# no install step is needed.

PY ?= python
export PYTHONPATH := src

.PHONY: test smoke bench-smoke bench bench-floors lab-smoke fleet-smoke serve serve-bench lint check parity

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
