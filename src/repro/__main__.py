"""``python -m repro``: live demos and the experiment lab.

* ``python -m repro`` — the three-way swap walkthrough, honest and
  with a crash fault;
* ``python -m repro bench-smoke`` — one tiny sweep per registered
  protocol engine through :func:`repro.api.run_sweep` (the same runs
  ``pytest -m smoke`` asserts on); exits non-zero if any engine fails
  to carry the all-conforming triangle to all-Deal;
* ``python -m repro lab run|ls|show|diff|stats|merge|families|mixes|presets``
  — the :mod:`repro.lab` workload lab: expand seeded topology × adversary
  grids, execute them through the content-addressed run store (warm
  re-runs execute zero engines), inspect or compare stored runs,
  aggregate cross-sweep statistics, and merge sharded stores.
  ``python -m repro lab --help`` lists the options.
* ``python -m repro lab run --fleet N`` — drain the sweep with N
  worker processes through the claim/lease coordinator
  (:mod:`repro.fleet`); ``lab work`` joins an existing fleet store as
  one more worker, ``lab fleet status [--json]`` inspects chunk,
  lease, and worker state.
* ``python -m repro lab check`` — the static scenario verifier
  (:mod:`repro.analysis.protocol`): structural diagnostics plus
  closed-form predictions, no engine execution; ``--verify``
  cross-checks the predictions against the simulator.
* ``python -m repro lint`` — the repo's own AST lint pass
  (:mod:`repro.analysis.lint`): determinism, milestone-literal
  hygiene, and wire-schema rules over ``src/``.
* ``python -m repro serve`` — the long-lived swap service
  (:mod:`repro.serve`): HTTP scenario submissions with admission
  control, streaming milestone subscriptions, store-backed warm cache;
* ``python -m repro serve-bench`` — the E27 load generator against an
  in-process daemon: sustained scenarios/sec and p99 submit-to-settled
  latency.
"""

import importlib
import sys
from typing import Callable

from repro import CrashPoint, FaultPlan, run_swap, triangle
from repro.errors import ReproError


def demo() -> int:
    print(__doc__)
    print("1. All-conforming three-way swap (Alice -> Bob -> Carol -> Alice):\n")
    result = run_swap(triangle())
    print(result.summary())
    print()
    print(
        result.trace.format_timeline(
            delta=result.spec.delta,
            kinds=["contract_published", "hashlock_unlocked", "arc_triggered"],
        )
    )

    print("\n2. The same swap with Carol halting mid-protocol:\n")
    result = run_swap(
        triangle(),
        faults=FaultPlan().crash("Carol", at_point=CrashPoint.BEFORE_PHASE_TWO),
    )
    print(result.summary())
    print("\nConforming parties stayed out of Underwater (Theorem 4.9):",
          result.conforming_acceptable())
    print("\nSee examples/ for more scenarios and benchmarks/ for the paper's figures.")
    return 0


def bench_smoke() -> int:
    from repro.api import run_sweep, smoke_sweep

    report = run_sweep(smoke_sweep(), parallel=True)
    print(report.summary())
    failed = [r.scenario.name for r in report.reports if not r.all_deal()]
    failed += [f"{f.engine}:{f.scenario.label()}" for f in report.failures]
    if failed:
        print(f"FAILED: {failed}")
        return 1
    print("OK: every engine carried its scenarios to all-Deal.")
    return 0


def _entry(module: str, function: str = "main") -> Callable[[list[str]], int]:
    """An entry point imported only when its subcommand runs."""
    return lambda argv: getattr(importlib.import_module(module), function)(argv)


#: ``python -m repro NAME ARGS...`` calls ``COMMANDS[NAME](ARGS)``.
COMMANDS: dict[str, Callable[[list[str]], int]] = {
    "bench-smoke": lambda argv: bench_smoke(),
    "lab": _entry("repro.lab.cli"),
    "lint": _entry("repro.analysis.lint"),
    "serve": _entry("repro.serve.http"),
    "serve-bench": _entry("repro.serve.client", "bench_main"),
}


def main(argv: list[str] | None = None) -> int:
    # Unrecognised arguments fall through to the demo so the module stays
    # runnable under harnesses (runpy, pytest) that leave their own argv.
    args = sys.argv[1:] if argv is None else argv
    command = COMMANDS.get(args[0]) if args else None
    if command is None:
        return demo()
    try:
        return command(args[1:])
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    code = main()
    if code:
        raise SystemExit(code)
