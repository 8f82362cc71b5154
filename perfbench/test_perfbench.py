"""Tests of the benchmark's own helpers, plus a tiny run of each workload.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import types

import numpy as np
import pytest

import catalogue
import harness
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --------------------------------------------------------------------------- #
# The percentile rule
# --------------------------------------------------------------------------- #
def test_tail_needs_more_than_ten_samples():
    assert stats.tail(list(range(10))) is None
    value, percentile, samples = stats.tail(list(range(11)))
    assert (value, samples) == (0, 11)
    assert percentile == pytest.approx(100 / 11)


def test_tail_of_hundred_samples_is_p90():
    values = list(np.random.default_rng(0).permutation(100) + 1.0)
    value, percentile, samples = stats.tail(values)
    assert (value, percentile, samples) == (90.0, 90.0, 100)


@pytest.mark.parametrize("n", [11, 12, 37, 180, 1000])
def test_tail_is_the_highest_rank_with_ten_beyond(n):
    values = list(np.random.default_rng(n).standard_normal(n))
    value, percentile, _ = stats.tail(values)
    ordered = sorted(values)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    # One rank higher would leave only nine samples beyond.
    assert sum(v > ordered[ordered.index(value) + 1] for v in values) == 9
    assert percentile == pytest.approx(100 * (n - 10) / n)


def test_windowed_tail_is_the_plain_rule_below_two_windows():
    values = list(np.random.default_rng(5).standard_normal(
        2 * stats.TAIL_WINDOW - 1))
    value, percentile, samples = stats.tail(values)
    assert stats.windowed_tail(values) == (value, percentile, samples, 1)
    assert stats.windowed_tail(values[:10]) is None


def test_windowed_tail_is_the_median_of_window_tails():
    rng = np.random.default_rng(6)
    size = stats.TAIL_WINDOW
    # Three windows; only the middle one has a burst of slow items.
    windows = [list(rng.uniform(1, 2, size)) for _ in range(3)]
    windows[1][:50] = [100.0] * 50
    value, _, samples, count = stats.windowed_tail(sum(windows, []))
    assert (samples, count) == (3 * size, 3)
    tails = sorted(stats.tail(w)[0] for w in windows)
    assert value == tails[1] < 2.0
    # The plain rule over all items would read the burst.
    assert stats.tail(sum(windows, []))[0] == 100.0


# --------------------------------------------------------------------------- #
# Spread and the bound check
# --------------------------------------------------------------------------- #
def test_spread_is_iqr_over_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert stats.spread([5.0, 5.0, 5.0]) == 0.0


@pytest.mark.parametrize("child, better, bound, expected", [
    (114.0, "lower", 0.15, False),
    (116.0, "lower", 0.15, True),
    (50.0, "lower", 0.0, False),
    (86.0, "higher", 0.15, False),
    (84.0, "higher", 0.15, True),
    (140.0, "higher", 0.0, False),
])
def test_bound_check(child, better, bound, expected):
    assert stats.regressed(100.0, child, better, bound) is expected


def test_bound_check_rejects_unknown_direction():
    with pytest.raises(ValueError):
        stats.regressed(1.0, 2.0, "faster", 0.1)


def test_compare_medians_flags_only_regressions():
    metrics = [{"name": "latency_p50_ms", "better": "lower", "bound": 0.1},
               {"name": "items_per_s", "better": "higher", "bound": 0.1}]
    parent = [{"latency_p50_ms": v, "items_per_s": 100.0} for v in (9, 10, 11)]
    child = [{"latency_p50_ms": v, "items_per_s": 95.0} for v in (11, 12, 13)]
    rows = stats.compare_medians(parent, child, metrics)
    assert rows["latency_p50_ms"]["regressed"] is True
    assert rows["latency_p50_ms"]["worse_by"] == pytest.approx(0.2)
    assert rows["items_per_s"]["regressed"] is False


def test_host_differences():
    a = {"nproc": 2, "blas_threads": "1", "seed": 1}
    assert stats.host_differences(a, dict(a)) == []
    assert stats.host_differences(a, {**a, "nproc": 4, "seed": 2}) == [
        "nproc", "seed"]


def _record(path, seed, p50, nproc=2):
    metrics = {"setup_s": 1.0, "latency_p50_ms": p50, "latency_tail_ms": 9.0,
               "items_per_s": 100.0, "peak_rss_mb": 50.0}
    path.write_text(json.dumps({"workload": "serve-b1", "metrics": metrics,
                                "host": {"nproc": nproc, "seed": seed}}))
    return str(path)


def test_compare_flags_host_differences_and_regressions(tmp_path, capsys):
    import compare
    parent = [_record(tmp_path / f"p{i}.json", 1, 5.0) for i in range(3)]
    same = [_record(tmp_path / f"s{i}.json", 1, 5.1) for i in range(3)]
    assert compare.main(["--parent", *parent, "--child", *same]) == 0
    assert "WARNING" not in capsys.readouterr().out
    slow = [_record(tmp_path / f"c{i}.json", 2, 9.0, nproc=4)
            for i in range(3)]
    assert compare.main(["--parent", *parent, "--child", *slow]) == 1
    out = capsys.readouterr().out
    assert "WARNING host blocks differ" in out and "nproc: 2, 4" in out
    assert "REGRESSED" in out


# --------------------------------------------------------------------------- #
# error_rate accounting
# --------------------------------------------------------------------------- #
def test_error_rate():
    assert stats.error_rate(10, 0) == 0.0
    assert stats.error_rate(10, 3) == 0.3
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(3, 4)


class _Counter:
    """A fake workload: item ``i`` returns ``i``; chosen items go wrong."""

    name = "fake"
    units = 2
    setups = 3

    def __init__(self, corrupt=(), raise_on=()):
        self.corrupt, self.raise_on = set(corrupt), set(raise_on)

    def prepare(self):
        pass

    def set_up(self):
        pass

    def run_item(self, index):
        if index in self.raise_on:
            raise RuntimeError("injected")
        return -1 if index in self.corrupt else index

    def check(self, index, output):
        return output == index

    def start_trace(self):
        pass

    def stop_trace(self):
        pass

    def layer_metrics(self, latencies):
        return {}

    def report_lines(self):
        return []


def test_closed_loop_counts_injected_failures():
    phase = harness.closed_loop(_Counter(corrupt={2}, raise_on={4}), 0.05)
    assert len(phase.latencies) > 4
    assert phase.failed == 2


def test_result_line_reports_failures():
    record = harness.run(_Counter(corrupt={0}), 0.02, trace=False)
    record["trace"] = False
    benchmark = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms"}]}
    line = harness.result_line(record, benchmark)
    assert line["correct"] is False
    assert line["failed"] == 1 and line["attempted"] == record["attempted"]
    assert stats.error_rate(line["attempted"], line["failed"]) > 0
    assert len(record["setup_samples_s"]) == 3


class _DoublePace:
    def update(self, force=False):
        return 2.0


def test_pace_scales_item_and_setup_times():
    phase = harness.closed_loop(_Counter(), 0.02, setups=2,
                                pace=_DoublePace())
    assert len(phase.setup_samples) == 2
    assert phase.latencies == [2.0 * t for t in phase.raw_latencies]
    assert phase.setup_samples == [2.0 * t for t in phase.raw_setup_samples]


def test_host_pace_factor_is_reference_over_kernel_time():
    pace = harness.HostPace()
    factor = pace.update()
    assert factor == harness.PACE_REFERENCE_S / pace.samples[-1]
    assert pace.update() == factor  # not due again yet
    pace.update(force=True)
    assert len(pace.samples) == 2


def test_traced_run_reports_overhead_and_counts_both_phases():
    record = harness.run(_Counter(corrupt={1}), 0.04, trace=True)
    assert "trace.overhead_pct" in record["layers"]
    assert record["failed"] == 1
    assert record["attempted"] > 2


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #
def test_tracer_splits_self_time_and_restores():
    module = types.SimpleNamespace()

    def inner():
        return "inner"

    def outer():
        return module.inner() + "+outer"

    module.inner, module.outer = inner, outer
    tracer = harness.Tracer()
    tracer.wrap(module, "inner", "layer.inner")
    tracer.wrap(module, "outer", "layer.outer")
    assert module.outer() == "inner+outer"
    taken = tracer.take()
    assert taken["calls"] == {"layer.inner": 1, "layer.outer": 1}
    total = taken["inclusive"]["layer.outer"]
    assert sum(taken["self"].values()) == pytest.approx(total)
    assert taken["self"]["layer.outer"] < total
    tracer.restore()
    assert module.inner is inner and module.outer is outer
    assert tracer.take()["calls"] == {}


# --------------------------------------------------------------------------- #
# BENCHMARK.json against the contract and the catalogue
# --------------------------------------------------------------------------- #
def test_benchmark_file_matches_contract_and_catalogue():
    benchmark = catalogue.load_benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["perfbench"]
    assert 1 <= benchmark["run_seconds"] <= 60
    import run
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = []
    for entry in benchmark["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    setup = benchmark["end_to_end"][names.index("setup_s")]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in benchmark["end_to_end"])
    for entry in benchmark["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    per_layer = {entry["name"] for entry in benchmark["per_layer"]}
    assert per_layer == set(catalogue.MOVES)


# --------------------------------------------------------------------------- #
# Tiny runs of each workload, and their checks against corrupted output
# --------------------------------------------------------------------------- #
def _tiny_run(workload, seconds=0.3):
    workload.setups = 1
    try:
        return harness.run(workload, seconds, trace=True)
    finally:
        workload.close()


@pytest.mark.parametrize("name", ["serve-b1", "serve-b16-streamed"])
def test_serve_smoke_and_corruption(name, tmp_path):
    import serve
    workload = serve.workloads(seed=3, work_dir=str(tmp_path))[name]
    record = _tiny_run(workload)
    assert record["failed"] == 0
    layers = record["layers"]
    assert layers["plan.steps"] > 0 and layers["plan.stage3.macs"] > 0
    if name == "serve-b1":
        assert layers["tiling.streamed_convs"] == 0
        assert layers["tiling.streamed_ms"] == 0
    else:
        assert layers["tiling.streamed_convs"] > 0
        assert layers["tiling.streamed_ms"] > 0
    output = workload.references[0].copy()
    assert workload.check(0, output)
    output.flat[0] += 1.0
    assert not workload.check(0, output)
    assert not workload.check(0, None)


def test_sweep_train_smoke_and_corruption(tmp_path):
    import sweeps
    workload = sweeps.workloads(seed=3, work_dir=str(tmp_path))["sweep-train"]
    record = _tiny_run(workload, seconds=0.1)
    assert record["failed"] == 0
    assert record["layers"]["core.fit_ms"] > 0
    assert record["layers"]["cache.put_ms"] > 0
    assert record["layers"]["session.bootstrap_ms"] > 0

    workload = sweeps.workloads(seed=3, work_dir=str(tmp_path))["sweep-train"]
    workload.prepare()
    workload.set_up()
    try:
        # Index -1 maps to the set-up's spec, whose reference exists; a
        # report trained from another seed must not pass for it.
        other = workload.run_item(0)
        assert not workload.check(-1, other)
        report, _ = other
        assert not workload.check(0, (report, ["integrity warning"]))
    finally:
        workload.close()


def test_sweep_replay_smoke_and_corruption(tmp_path):
    import sweeps
    workload = sweeps.workloads(seed=3, work_dir=str(tmp_path))["sweep-replay"]
    workload.setups = 1
    workload.prepare()
    workload.set_up()
    try:
        output = workload.run_item(0)
        assert workload.check(0, output)
        (futures, sweep), _ = output
        assert not workload.check(0, ((futures, sweep), ["integrity warning"]))
        sweep.reports[0].compressed.cost["params"] += 1.0
        assert not workload.check(0, output)
    finally:
        workload.close()
    record = _tiny_run(sweeps.workloads(seed=3, work_dir=str(tmp_path))[
        "sweep-replay"])
    assert record["failed"] == 0
    assert record["layers"]["cache.hit_ratio"] == 1.0
    assert record["layers"]["cache.get_ms"] > 0


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(catalogue.benchmark_file(), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-b1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert "{" not in result.stdout


def test_result_line_shape_of_a_real_run(tmp_path):
    out = tmp_path / "record.json"
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serve-b1", "--seed", "2", "--seconds", "0.5", "--trace", "0",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    benchmark = catalogue.load_benchmark()
    assert set(line["metrics"]) == {e["name"] for e in benchmark["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    record = json.loads(out.read_text())
    assert record["host"]["blas_threads"] == "1"
    assert record["host"]["seed"] == 2
