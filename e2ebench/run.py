"""The repository benchmark: one workload, one seed, one run.

    python3 e2ebench/run.py --workload fig12_paper --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh process (``worker.py``), one at a time.  A run
first starts an untimed probe that compiles bytecode and warms the page
cache, then several set-up-only processes, then the passes.  A service
workload repeats one pass until the next one would overrun ``--seconds``
(at least one).  fig12 makes a fixed number of passes, each on its own
seed derived from the workload seed, whatever the time.  Every output is
checked.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, each
the median over the run's passes (``setup_s``: over every set-up of the
run).
``--trace 1`` runs one untraced pass and one traced pass, prints the
self-time table and the tracing overhead, and reports the per-layer
metrics.  The last line of standard output is the result JSON; a run
that cannot produce every metric exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import FIG12_PASSES, WORKLOADS, fig12_pass_seed  # noqa: E402

WORK = ROOT / ".e2ebench-work"
#: Set-up-only processes per run, on top of each pass's own set-up.
SETUP_SAMPLES = 4
#: Longest a single worker process may take before it is killed.
WORKER_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The run cannot produce a complete, trustworthy result."""


# ------------------------------------------------------------- processes


class Workers:
    """Starts worker processes one at a time and collects their JSON."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # Fixed hash seed: same dict/set layouts in every pass.
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, mode: str, seed: Optional[int] = None) -> Dict[str, Any]:
        self.started += 1
        out = self.workdir / f"{mode}-{self.started}.json"
        seed = self.seed if seed is None else seed
        t0 = time.perf_counter()
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--mode", mode, "--workload", self.workload, "--seed", str(seed),
            "--t0", repr(t0), "--workdir", str(self.workdir), "--out", str(out),
        ]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, stdout=sys.stderr,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} process timed out") from exc
        if proc.returncode != 0 or not out.exists():
            raise BenchmarkError(f"{mode} process failed (exit {proc.returncode})")
        return json.loads(out.read_text(encoding="utf-8"))


# ------------------------------------------------------------ noise info


def cpu_steal_s() -> Optional[float]:
    """Seconds of CPU steal since boot, summed over CPUs (Linux only)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def host_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes: a reading of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i
    return time.perf_counter() - start


def load_average() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


# ----------------------------------------------------------- aggregation


def end_to_end(passes: List[Dict[str, Any]], setups: List[float]) -> Dict[str, float]:
    """Medians over the passes of a run (``setup_s`` over all set-ups)."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "events_per_s": statistics.median(p["events"] / p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def complete_metrics(
    values: Dict[str, float], declared: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Attach units; fail on any declared metric missing or not finite."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for spec in declared:
        name = spec["name"]
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchmarkError(f"metric {name} missing or not a number: {value!r}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def tally(check_list: List[Tuple[str, bool, str]]) -> Tuple[int, int]:
    failed = 0
    for name, ok, detail in check_list:
        if not ok:
            failed += 1
            print(f"CHECK FAILED {name}: {detail}")
    return len(check_list), failed


# ------------------------------------------------------------------- run


def run_untraced(
    workers: Workers, seconds: float
) -> Tuple[Dict[str, float], List[Tuple[str, bool, str]], List[Dict[str, Any]]]:
    start = time.perf_counter()
    setups = [workers.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes: List[Dict[str, Any]] = []
    fig12 = workers.workload == "fig12_paper"
    if fig12:
        for index in range(FIG12_PASSES):
            passes.append(workers.run("pass", fig12_pass_seed(workers.seed, index)))
    else:
        durations: List[float] = []
        while True:
            began = time.perf_counter()
            passes.append(workers.run("pass"))
            durations.append(time.perf_counter() - began)
            if time.perf_counter() - start + statistics.median(durations) > seconds:
                break
    setups.extend(p["setup_s"] for p in passes)
    check_list = [tuple(c) for p in passes for c in p["checks"]]
    if workers.workload == "svc_chaos":
        crash_free = workers.run("crash-free")["digest"]
        for p in passes:
            check_list.extend(checks.check_crash_free_parity(p["outputs"]["digest"], crash_free))
    return end_to_end(passes, setups), check_list, passes  # type: ignore[return-value]


def run_traced(
    workers: Workers, declared: List[Dict[str, Any]]
) -> Tuple[Dict[str, float], List[Tuple[str, bool, str]], List[Dict[str, Any]]]:
    plain = workers.run("pass")
    traced = workers.run("trace")
    values = dict(traced["layers"])
    values["tracing.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["join.p50_us"] = plain["joins"]["p50_us"]
    values["join.p99_us"] = plain["joins"]["p99_us"]
    values["join.samples"] = plain["joins"]["n"]
    recoveries = plain.get("recovery_ms", [])
    values["recovery.count"] = len(recoveries)
    values["recovery.p50_ms"] = statistics.median(recoveries) if recoveries else 0.0
    print(f"self time, traced {workers.workload} pass (wall {traced['wall_s']:.3f} s):")
    print(traced["table_text"])
    print(
        f"tracing overhead: {values['tracing.overhead_s']:.3f} s "
        f"(traced {traced['wall_s']:.3f} s - untraced {plain['wall_s']:.3f} s)"
    )
    print("per-layer metrics:")
    for spec in declared:
        value = values.get(spec["name"], float("nan"))
        print(f"  {spec['name']:<28} {value:>16.6g} {spec['unit']}")
    check_list = [tuple(c) for p in (plain, traced) for c in p["checks"]]
    if workers.workload == "svc_chaos":
        crash_free = workers.run("crash-free")["digest"]
        for p in (plain, traced):
            check_list.extend(checks.check_crash_free_parity(p["outputs"]["digest"], crash_free))
    return values, check_list, [plain, traced]  # type: ignore[return-value]


def describe(passes: List[Dict[str, Any]]) -> None:
    for index, p in enumerate(passes, 1):
        extra = ""
        if "recovery_ms" in p:
            rec = p["recovery_ms"]
            extra = (
                f" recoveries={len(rec)} recovery_p50_ms="
                f"{statistics.median(rec) if rec else 0.0:.1f}"
                f" joins_interrupted={p['joins_interrupted']}"
            )
        print(
            f"pass {index} ({p['mode']}): wall_s={p['wall_s']:.4f} "
            f"setup_s={p['setup_s']:.4f} events={p['events']} "
            f"joins={p['joins']['n']} join_p50_us={p['joins']['p50_us']:.1f} "
            f"join_p99_us={p['joins']['p99_us']:.1f} rss_mb={p['rss_mb']:.1f} "
            f"ctx_vol={p['ctx_voluntary']} ctx_invol={p['ctx_involuntary']}{extra}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so the running worker is killed
    # and waited for before the run exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench_file = ROOT / "BENCHMARK.json"
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir() or not bench_file.exists():
        print("no program to benchmark: src/repro or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workers = Workers(args.workload, args.seed, workdir)
    steal_before = cpu_steal_s()
    noise: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": load_average(),
        "host_loop_s_start": host_loop_s(),
    }
    try:
        workers.run("probe")
        if args.trace:
            values, check_list, passes = run_traced(workers, declared)
            spans = workdir / f"{args.workload}-spans.jsonl"
            kept = WORK / spans.name
            shutil.move(str(spans), str(kept))
            print(f"spans written to {kept.relative_to(ROOT)}")
        else:
            values, check_list, passes = run_untraced(workers, args.seconds)
        metrics = complete_metrics(values, declared)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    steal_after = cpu_steal_s()
    noise["loadavg_end"] = load_average()
    noise["host_loop_s_end"] = host_loop_s()
    noise["steal_s"] = (
        None if steal_before is None or steal_after is None else steal_after - steal_before
    )
    noise["ctx_voluntary"] = sum(p["ctx_voluntary"] for p in passes)
    noise["ctx_involuntary"] = sum(p["ctx_involuntary"] for p in passes)
    describe(passes)
    print("noise: " + json.dumps(noise, sort_keys=True))
    attempted, failed = tally(check_list)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
