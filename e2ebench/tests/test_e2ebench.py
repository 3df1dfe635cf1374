"""Tests for the benchmark's own code: names, checks, tracing, results.

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import copy
import json
import re

import pytest

import checks
import run
from layers import LayerTracer
from worker import FIG12_PASSES, fig12_pass_seed, install_layers

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed() -> None:
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert names and all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_end_to_end_aggregation_covers_every_declared_metric() -> None:
    fake_pass = {
        "wall_s": 2.0, "events": 100, "rss_mb": 50.0,
        "joins": {"p50_us": 10.0, "p99_us": 90.0, "n": 40},
    }
    values = run.end_to_end([fake_pass], [0.5])
    metrics = run.complete_metrics(values, BENCHMARK["end_to_end"])
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert metrics["events_per_s"]["value"] == 50.0


def test_fig12_passes_are_fixed_whatever_the_time() -> None:
    class Recorder(run.Workers):
        def __init__(self) -> None:
            super().__init__("fig12_paper", 5, run.WORK)
            self.seeds = []

        def run(self, mode, seed=None):  # type: ignore[override]
            if mode == "setup":
                return {"setup_s": 0.3}
            self.seeds.append(seed)
            return {"wall_s": 1.0, "events": 10, "rss_mb": 1.0, "setup_s": 0.3, "checks": []}

    for seconds in (0.0, 1e9):
        workers = Recorder()
        run.run_untraced(workers, seconds)
        assert workers.seeds == [fig12_pass_seed(5, k) for k in range(FIG12_PASSES)]


def test_missing_metric_fails_the_run() -> None:
    values = run.end_to_end(
        [{"wall_s": 1.0, "events": 1, "rss_mb": 1.0,
          "joins": {"p50_us": 1.0, "p99_us": 1.0, "n": 1}}],
        [0.1],
    )
    del values["events_per_s"]
    with pytest.raises(run.BenchmarkError):
        run.complete_metrics(values, BENCHMARK["end_to_end"])
    values["events_per_s"] = float("nan")
    with pytest.raises(run.BenchmarkError):
        run.complete_metrics(values, BENCHMARK["end_to_end"])


def test_missing_metric_prints_no_result(monkeypatch, capsys) -> None:
    class NoWorkers(run.Workers):
        def run(self, mode):  # type: ignore[override]
            return {}

    def partial(workers, seconds):
        return {"wall_s": 1.0}, [], []

    monkeypatch.setattr(run, "Workers", NoWorkers)
    monkeypatch.setattr(run, "run_untraced", partial)
    code = run.main(["--workload", "svc_stream", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


def failed(check_list) -> list:
    return [name for name, ok, _ in check_list if not ok]


FIG12 = {
    "mean_balance": {"llf": 0.65, "s3": 0.78, "llf-users": 0.77, "rssi": 0.61},
    "gain_percent": 19.2,
    "peak_gain_percent": 17.1,
    "errorbar_reduction_percent": 60.0,
}


def test_fig12_check_fails_on_shifted_gain() -> None:
    reference = copy.deepcopy(FIG12)
    assert failed(checks.check_fig12(FIG12, reference)) == []
    shifted = copy.deepcopy(FIG12)
    shifted["gain_percent"] += 0.5
    assert failed(checks.check_fig12(shifted, reference)) == ["fig12.ref.gain_percent"]
    lost = copy.deepcopy(FIG12)
    lost["mean_balance"]["s3"] = 0.6
    lost["gain_percent"] = -7.7
    assert "fig12.s3_beats_llf" in failed(checks.check_fig12(lost, None))


def test_stream_check_fails_on_duplicated_commit() -> None:
    outputs = {"join_seqs": [0, 3, 5], "commit_seqs": [0, 3, 5], "decisions": 3, "digest": "ab"}
    assert failed(checks.check_stream(outputs, {"digest": "ab"})) == []
    duplicated = dict(outputs, commit_seqs=[0, 3, 3, 5], decisions=4)
    assert failed(checks.check_stream(duplicated, {"digest": "ab"})) == [
        "stream.commit_once", "stream.decisions",
    ]
    assert failed(checks.check_stream(dict(outputs, digest="cd"), {"digest": "ab"})) == [
        "stream.ref.digest",
    ]


def test_chaos_check_fails_on_missing_recovery() -> None:
    outputs = {
        "recoveries": 8, "planned_crashes": 8, "events": 100,
        "events_processed": 100, "digest": "ab",
    }
    assert failed(checks.check_chaos(outputs, {"digest": "ab"})) == []
    missing = dict(outputs, recoveries=7)
    assert failed(checks.check_chaos(missing, None)) == ["chaos.recoveries"]
    assert failed(checks.check_crash_free_parity("ab", "ac")) == ["chaos.crash_free_parity"]


def test_references_cover_default_and_held_out_seeds() -> None:
    table = json.loads(checks.REFERENCES.read_text(encoding="utf-8"))
    for workload in ("fig12_paper", "svc_stream", "svc_chaos"):
        assert len(table[workload]) >= 2, workload


def test_tracer_self_time_subtracts_children() -> None:
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = LayerTracer()
    tracer.span(Layer, "outer", "outer")
    tracer.span(Layer, "inner", "inner")
    with tracer:
        assert Layer().outer() == 2
    assert tracer.calls["outer"] == tracer.calls["inner"] == 1
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"]
    )
    assert tracer.children_total("inner", "outer") == pytest.approx(tracer.total["inner"])
    assert "outer" not in vars(Layer) or not hasattr(vars(Layer)["outer"], "__wrapped__")


def test_traced_wrappers_are_removed_afterwards() -> None:
    import repro.experiments.workload as workload
    import repro.obs as obs
    import repro.service.supervisor as supervisor
    from repro.core.selection import S3Selector
    from repro.service.loop import ControllerService
    from repro.service.workload import WorkloadSpec, make_service, synthetic_events

    before = {
        "assign_batch": vars(S3Selector)["assign_batch"],
        "submit": vars(ControllerService)["submit"],
        "collect_trace": workload.collect_trace,
        "capture_checkpoint": supervisor.capture_checkpoint,
        "write_journal": obs.write_journal,
    }
    tracer = LayerTracer()
    install_layers(tracer)
    with tracer:
        assert hasattr(vars(ControllerService)["submit"], "__wrapped__")
    assert vars(S3Selector)["assign_batch"] is before["assign_batch"]
    assert vars(ControllerService)["submit"] is before["submit"]
    assert workload.collect_trace is before["collect_trace"]
    assert supervisor.capture_checkpoint is before["capture_checkpoint"]
    assert obs.write_journal is before["write_journal"]

    # An untraced pass in the same process runs the originals: no spans.
    spec = WorkloadSpec(users=16, aps=4, seed=3, events=200)
    service = make_service(spec, monitor=False)
    for event in synthetic_events(spec):
        service.submit(event)
    service.drain()
    assert tracer.calls["service.submit"] == 0
