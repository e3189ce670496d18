#!/usr/bin/env python3
"""Steadiness report: runs one workload N times and summarises each metric.

    python3 perfbench/steady.py --workload churn [--runs 10] [--first-seed 1]
                                [--seconds S] [--against OTHER_CHECKOUT]

Run i uses seed first-seed + i. For every end-to-end metric of
BENCHMARK.json it prints the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median and the worst deviation from the
median. It names every metric whose spread exceeds its bound. With
--against, the same seeds also run on another checkout, alternating which
side goes first, and it names every metric whose median there is worse than
here by more than the bound.
Exits 1 when any metric is named or any run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_fields(context):
    """The context line's host figures: steal share and sentinel medians."""
    words = context.split()
    out = [w for w in words if w.startswith("host_steal_pct=")]
    for probe in ("sentinel_alu_us", "sentinel_mem_us"):
        if probe in words:
            out.append(probe + "=" + words[words.index(probe) + 1].split("=")[-1])
    return " ".join(out)


def run_once(checkout, workload, seed, seconds):
    """One run: (metrics, host fields) or (None, error lines)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip().splitlines()[-3:]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, ["run reported incorrect replies"]
    context = next((l for l in lines if l.startswith("context ")), "")
    return {k: v["value"] for k, v in result["metrics"].items()}, host_fields(context)


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    worst = max(abs(v - med) for v in values) / med if med else float("inf")
    return med, q1, q3, spread, worst


def worse_by(metric, base, other):
    """Share by which `other` is worse than `base` for this metric."""
    if metric["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="any workload the benchmark knows, listed in BENCHMARK.json or not")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--against", type=Path,
                    help="another checkout of the repository to alternate with")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    sides = {"here": ROOT}
    if args.against:
        sides["against"] = args.against.resolve()
    values = {side: {} for side in sides}
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            metrics, info = run_once(sides[side], args.workload, seed, args.seconds)
            if metrics is None:
                failures += 1
                print(f"run {side} seed={seed} FAILED: {' | '.join(info or [])}")
                continue
            for name, v in metrics.items():
                values[side].setdefault(name, []).append(v)
            print(f"run {side} seed={seed} {info} " +
                  " ".join(f"{m['name']}={metrics[m['name']]:.6g}"
                           for m in spec["end_to_end"] if m["name"] in metrics),
                  flush=True)

    named = []
    for side in sides:
        print(f"\n{side} ({sides[side]}), workload={args.workload}, "
              f"runs={args.runs}, seconds={args.seconds}")
        print(f"{'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'worst':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = values[side].get(m["name"], [])
            if len(vals) < 2:
                named.append(f"{side}:{m['name']} (fewer than 2 runs)")
                continue
            med, q1, q3, spread, worst = summarise(vals)
            flag = ""
            if spread > m["bound"]:
                flag = "  OUTSIDE BOUND"
                named.append(f"{side}:{m['name']} spread {spread:.3f} > {m['bound']}")
            elif spread > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{m['name']:22} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {worst:8.3f} {m['bound']:6.2f}{flag}")

    if "against" in sides:
        print("\nagainst vs here (median, share worse)")
        for m in spec["end_to_end"]:
            a = values["here"].get(m["name"], [])
            b = values["against"].get(m["name"], [])
            if len(a) < 2 or len(b) < 2:
                continue
            share = worse_by(m, statistics.median(a), statistics.median(b))
            flag = "  OUTSIDE BOUND" if share > m["bound"] else ""
            if flag:
                named.append(f"against:{m['name']} worse by {share:.3f} > {m['bound']}")
            print(f"{m['name']:22} {share:+8.3f}{flag}")

    for n in named:
        print("named:", n)
    if failures:
        print(f"{failures} run(s) failed")
    return 1 if named or failures else 0


if __name__ == "__main__":
    sys.exit(main())
