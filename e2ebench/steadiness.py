"""Steadiness report: run every workload repeatedly and compare the spreads.

    python3 e2ebench/steadiness.py --out e2ebench/results/steadiness.json
    python3 e2ebench/steadiness.py --report e2ebench/results/steadiness.json

Two sets of ten rounds.  Each round runs every workload once, in an order
that rotates from round to round, with the round's seed (1 to 10, the
same in both sets).  Runs are sequential, each a separate ``run.py``
process with ``BENCHMARK.json``'s ``run_seconds``.  For every end-to-end
metric the report prints, per set and workload, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range and
(max - min) as shares of the median, against the metric's bound; then,
per workload, how far the second set's median moved from the first's,
in either direction, against the same bound.  Results are saved after
every run, so an interrupted report keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    began = time.perf_counter()
    # Own process group, so an interrupted report can stop the run and its worker.
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=600)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    elapsed = time.perf_counter() - began
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} failed (exit {proc.returncode}):\n{stdout}\n{stderr}"
        )
    result = json.loads(lines[-1])
    noise = next((line for line in lines if line.startswith("noise: ")), "noise: {}")
    return {
        "workload": workload,
        "seed": seed,
        "elapsed_s": elapsed,
        "result": result,
        "noise": json.loads(noise[len("noise: "):]),
    }


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med,
        "range_share": (max(values) - min(values)) / med,
    }


def report(data: Dict[str, Any]) -> str:
    bench = data["benchmark"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    lines = [
        f"steadiness: {data['runs']} runs x {len(workloads)} workloads x "
        f"{data['sets']} set(s), run_seconds={bench['run_seconds']}, "
        f"seeds {data['first_seed']}..{data['first_seed'] + data['runs'] - 1}",
    ]
    medians: Dict[tuple, float] = {}
    for set_index in range(1, data["sets"] + 1):
        lines.append(f"\nset {set_index}")
        lines.append(
            f"  {'workload':<12} {'metric':<13} {'n':>3} {'median':>12} {'q1':>12} "
            f"{'q3':>12} {'iqr/med':>8} {'rng/med':>8} {'bound':>6}  verdict"
        )
        for workload in workloads:
            runs = [
                r for r in data["results"]
                if r["set"] == set_index and r["workload"] == workload
            ]
            if len(runs) < 2:
                continue
            failed = sum(r["result"]["failed"] for r in runs)
            for metric in metrics:
                name = metric["name"]
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                stats = spread(values)
                medians[(set_index, workload, name)] = stats["median"]
                if stats["iqr_share"] < metric["bound"] / 3:
                    verdict = "ok (< bound/3)"
                elif stats["iqr_share"] < metric["bound"]:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                lines.append(
                    f"  {workload:<12} {name:<13} {len(values):>3} {stats['median']:>12.5g} "
                    f"{stats['q1']:>12.5g} {stats['q3']:>12.5g} {stats['iqr_share']:>8.3f} "
                    f"{stats['range_share']:>8.3f} {metric['bound']:>6.2f}  {verdict}"
                )
            steal = [r["noise"].get("steal_s") or 0.0 for r in runs]
            loop = [r["noise"]["host_loop_s_start"] for r in runs if "host_loop_s_start" in r["noise"]]
            lines.append(
                f"  {workload:<12} checks failed: {failed}; noise: steal_s median "
                f"{statistics.median(steal):.2f} max {max(steal):.2f}"
                + (
                    f", host_loop_s median {statistics.median(loop):.3f} "
                    f"range {min(loop):.3f}-{max(loop):.3f}"
                    if loop else ""
                )
            )
    if data["sets"] >= 2:
        lines.append("\nset 2 median vs set 1 median, share moved (+ = worse)")
        for workload in workloads:
            for metric in metrics:
                name = metric["name"]
                first = medians.get((1, workload, name))
                second = medians.get((2, workload, name))
                if first is None or second is None:
                    continue
                moved = (second - first) / first
                if metric["better"] == "higher":
                    moved = -moved
                verdict = "ok" if abs(moved) <= metric["bound"] else "MOVED BEYOND BOUND"
                lines.append(
                    f"  {workload:<12} {name:<13} {first:>12.5g} -> {second:>12.5g} "
                    f"moved {moved:+.3f} (bound {metric['bound']:.2f})  {verdict}"
                )
    return "\n".join(lines)


def main(argv: List[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="save the raw results here (JSON)")
    parser.add_argument("--report", type=Path, help="only print the report of a saved file")
    args = parser.parse_args(argv)

    if args.report is not None:
        print(report(json.loads(args.report.read_text(encoding="utf-8"))))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    data: Dict[str, Any] = {
        "benchmark": bench,
        "runs": RUNS,
        "sets": SETS,
        "first_seed": FIRST_SEED,
        "results": [],
    }
    for set_index in range(1, SETS + 1):
        for round_index in range(RUNS):
            shift = round_index % len(workloads)
            order = workloads[shift:] + workloads[:shift]
            seed = FIRST_SEED + round_index
            for workload in order:
                entry = run_once(workload, seed, bench["run_seconds"])
                entry["set"] = set_index
                data["results"].append(entry)
                metrics = entry["result"]["metrics"]
                print(
                    f"set {set_index} seed {seed} {workload}: "
                    + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items())
                    + f" failed={entry['result']['failed']} ({entry['elapsed_s']:.1f} s)",
                    flush=True,
                )
                if args.out is not None:
                    args.out.parent.mkdir(parents=True, exist_ok=True)
                    args.out.write_text(json.dumps(data, indent=1), encoding="utf-8")
    print(report(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
