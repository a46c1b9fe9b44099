"""Tests of the benchmark itself: workloads, tracer, the runner's result line.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import roughflow
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_at_tiny_size(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(3, wl.tiny, tmp_path)
    try:
        output = wl.run(inputs)
    finally:
        wl.cleanup(inputs)
    assert wl.check(output, None) == []
    assert wl.record(output)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_covers_every_input_seed(name):
    for seed in range(workloads.INPUT_SEEDS):
        assert workloads.load_reference(name, seed)
    assert workloads.load_reference(name, workloads.INPUT_SEEDS + 2) \
        .keys() == workloads.load_reference(name, 2).keys()


def test_check_flags_a_wrong_output(tmp_path):
    wl = workloads.WORKLOADS["pvar_cli"]
    inputs = wl.build(0, wl.full, tmp_path)
    try:
        output = wl.run(inputs)
    finally:
        wl.cleanup(inputs)
    reference = workloads.load_reference("pvar_cli", 0)
    assert wl.check(output, reference) == []
    bumped = dict(reference, value0=np.nextafter(reference["value0"], np.inf))
    assert wl.check(output, bumped) != []


def _wrapped_targets():
    """Every (owner, attribute) the tracer replaces, with its current object."""
    targets = {}
    for _, module_name, qualname in tracing.LAYERS:
        owner = sys.modules[module_name]
        head, _, attr = qualname.rpartition(".")
        if head:
            cls = getattr(owner, head)
            targets[(cls, attr)] = vars(cls)[attr]
            continue
        original = getattr(owner, attr)
        for key, module in list(sys.modules.items()):
            if key.startswith("roughflow") and vars(module).get(attr) is original:
                targets[(module, attr)] = original
    return targets


def test_tracer_wraps_every_lookup_site_and_restores_it():
    before = _wrapped_targets()
    assert (roughflow.flow, "deposit") in before
    assert (roughflow.euler, "deposit") in before
    assert (roughflow.cli, "p_variation") in before
    with tracing.Tracer():
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is not original
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original


def test_self_time_subtracts_direct_children():
    spans = {"names": np.array(["pass", "a", "b"]),
             "name_id": np.array([0, 1, 2, 1, 0, 1]),
             "parent": np.array([-1, 0, 1, 2, -1, 4]),
             "start": np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0]),
             "end": np.array([9.0, 8.0, 6.0, 4.0, 20.0, 12.0])}
    first, second = tracing.pass_summaries(spans)
    assert first == {"a": (2, 3.0 + 1.0), "b": (1, 3.0)}
    assert second == {"a": (1, 1.0)}


def test_spans_outside_a_pass_are_rejected():
    spans = {"names": np.array(["a"]), "name_id": np.array([0]),
             "parent": np.array([-1]), "start": np.array([0.0]),
             "end": np.array([1.0])}
    with pytest.raises(ValueError):
        tracing.pass_summaries(spans)


def _traced_passes(name, size, passes=2):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(0, size, run.OUT_DIR / "tmp")
    tracer = tracing.Tracer()
    units = []
    try:
        for _ in range(passes):
            with tracer:
                output = tracer.span(tracing.ROOT_SPAN, wl.run, inputs)
            assert wl.check(output, None) == []
            units.append(wl.units(output))
    finally:
        wl.cleanup(inputs)
    return [tracing.layer_metrics(s, u)
            for s, u in zip(tracing.pass_summaries(tracer.arrays()), units)]


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_euler_march_counts_repeat_exactly():
    first, second = _traced_passes("euler_march", workloads.EulerMarch.full)
    assert _counts(first) == _counts(second)
    assert first["fields.deposit.per_step"] == 513 / 256
    assert first["fields.biot_savart.per_step"] == 513 / 256
    assert first["flow.GridDrift.new_per_step"] == 1.0
    assert first["cli.main.self_s"] == 0.0


def test_weak_ledger_counts_repeat_exactly():
    first, second = _traced_passes("weak_ledger", workloads.WeakLedger.full)
    assert _counts(first) == _counts(second)
    assert first["euler.FourierTestFunctions.gradients_at.per_snapshot"] == 3.0


def _result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("traced", [0, 1])
def test_runner_prints_one_result_line(traced):
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "pvar_cli",
         "--seed", "17", "--seconds", "1", "--trace", str(traced)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _result_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if traced:
        assert result["metrics"]["cli.main.self_s"]["value"] > 0
        assert result["metrics"]["variation.p_variation.self_s"]["value"] > 0


def test_benchmark_json_lists_every_metric_and_workload():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.metric_names()


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "euler_march", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
