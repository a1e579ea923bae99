"""repro.lab: workload generation + a persistent, resumable run store.

The lab turns the :mod:`repro.api` pipeline into an experiment factory:

* **Workloads** — named, seeded topology families crossed with
  adversary mixes expand into deterministic scenario grids
  (:mod:`repro.lab.workloads`, :mod:`repro.lab.registry`);
* **Store** — every run is content-addressed by
  :func:`repro.api.sweep.run_key` and persisted to one SQLite store
  (:mod:`repro.lab.store`), so ``run_sweep(..., store=...)`` skips
  everything it has already computed and interrupted sweeps resume;
  sharded stores combine via :meth:`SqliteStore.merge_from`, and JSON
  lines carry runs between stores (``lab export``/``lab merge``);
* **Analytics** — stored runs aggregate into per-engine × per-family ×
  per-mix rate tables and engine head-to-heads
  (:mod:`repro.lab.analytics`; ``python -m repro lab stats``).

Quickstart::

    from repro.api import run_sweep
    from repro.lab import Workload, build_sweep, open_store

    sweep = build_sweep(Workload("cycle", {"n": [3, 5, 8]},
                                 mixes=("all-conforming", "phase-crash")))
    with open_store("runs.sqlite") as store:
        report = run_sweep(sweep, store=store)   # cold: executes all
        again = run_sweep(sweep, store=store)    # warm: executes zero
        assert again.executed == 0

The same flows are scriptable via
``python -m repro lab run|ls|show|diff|stats|merge|export``.
"""

from repro.lab.analytics import (
    DIMENSIONS,
    GroupStats,
    RunFacts,
    aggregate,
    collect_facts,
    compare,
    dimensions,
    entry_facts,
    format_rows,
    format_table,
    parse_lab_name,
    percentile,
    stats_payload,
    timing_of,
)
from repro.lab.registry import (
    get_family,
    get_mix,
    get_preset,
    get_timing,
    list_families,
    list_mixes,
    list_presets,
    list_timings,
    register_family,
    register_mix,
    register_preset,
    register_timing,
)
from repro.lab.bisect import BisectResult, bisect_all_deal_boundary
from repro.lab.store import SqliteStore, open_store
from repro.lab.workloads import (
    AdversaryMix,
    TimingProfile,
    TopologyFamily,
    Workload,
    build_sweep,
    expand_grid,
    impossibility_evidence,
)

__all__ = [
    "DIMENSIONS",
    "GroupStats",
    "RunFacts",
    "aggregate",
    "collect_facts",
    "compare",
    "dimensions",
    "entry_facts",
    "format_rows",
    "format_table",
    "parse_lab_name",
    "percentile",
    "stats_payload",
    "timing_of",
    "AdversaryMix",
    "TimingProfile",
    "TopologyFamily",
    "Workload",
    "build_sweep",
    "expand_grid",
    "impossibility_evidence",
    "get_family",
    "get_mix",
    "get_preset",
    "get_timing",
    "list_families",
    "list_mixes",
    "list_presets",
    "list_timings",
    "register_family",
    "register_mix",
    "register_preset",
    "register_timing",
    "BisectResult",
    "bisect_all_deal_boundary",
    "SqliteStore",
    "open_store",
]
