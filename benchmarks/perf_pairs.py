"""Paired end-to-end benchmark runs of two revisions.

Exports both revisions with ``git archive`` into fresh temporary
directories, then runs ``perfbench/run.py --trace 0`` from each, ``N``
pairs, alternating which side runs first, so drift of the machine's
speed falls on both sides alike.  Every run lasts ``BENCHMARK.json``'s
``run_seconds``, the length the benchmark itself runs.  For every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the pairs each side won (by the metric's ``better``
direction; a tie counts for neither) and whether the median gap
exceeds the base side's interquartile spread.  The exit
status is 1 if any run is not ``correct``.

Run from the repository root::

    make perf-pairs BASE=<rev> HEAD=<rev> WORKLOAD=fleet-drain N=10
    python benchmarks/perf_pairs.py --base <rev> --head <rev> --workload fleet-drain \\
        [--n 10] [--seed 3]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> Path:
    """``git archive`` of ``rev`` unpacked into a fresh directory."""
    into.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run from ``tree``; its closing JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode != 0 or not result.get("correct"):
        result["correct"] = False
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    """Median, quartiles, pairs won and the gap-versus-spread test."""
    pairs = min(len(runs["base"]), len(runs["head"]))
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {
            side: [r["metrics"][name]["value"] for r in runs[side][:pairs]
                   if name in r.get("metrics", {})]
            for side in ("base", "head")
        }
        if len(values["base"]) != pairs or len(values["head"]) != pairs or not pairs:
            print(f"{name}: not reported on every run")
            continue
        paired = list(zip(values["base"], values["head"]))
        head_won = sum((h > b) if higher else (h < b) for b, h in paired)
        base_won = sum((b > h) if higher else (b < h) for b, h in paired)
        base_q, head_q = quartiles(values["base"]), quartiles(values["head"])
        gap = head_q[1] - base_q[1]
        spread = base_q[2] - base_q[0]
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"base median {base_q[1]:.4g} [q1 {base_q[0]:.4g}, q3 {base_q[2]:.4g}]; "
            f"head median {head_q[1]:.4g} [q1 {head_q[0]:.4g}, q3 {head_q[2]:.4g}]; "
            f"head won {head_won}/{pairs}, base won {base_won}/{pairs}, "
            f"tied {pairs - head_won - base_won}; "
            f"median gap {gap:+.4g} vs base IQR {spread:.4g}"
            f" ({'beyond' if abs(gap) > spread else 'within'} the spread)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/perf_pairs.py", description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the reference revision")
    parser.add_argument("--head", required=True, help="the revision under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--n", type=int, default=10, help="pairs of runs")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    scratch = Path(tempfile.mkdtemp(prefix="perf-pairs-"))
    try:
        trees = {"base": export(args.base, scratch / "base"),
                 "head": export(args.head, scratch / "head")}
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        correct = True
        for pair in range(args.n):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed, seconds)
                correct &= bool(result["correct"])
                runs[side].append(result)
                throughput = result.get("metrics", {}).get("throughput_sps", {}).get("value")
                print(f"pair {pair + 1}/{args.n} {side}: correct={result['correct']} "
                      f"throughput_sps={throughput}", flush=True)
        print(f"perf-pairs: {args.workload} seed={args.seed} {seconds:g} s per run, "
              f"base={args.base} head={args.head}")
        report(declared["end_to_end"], runs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not correct:
        print("perf-pairs: a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
