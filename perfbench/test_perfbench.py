"""Tests for the benchmark's own helpers.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import (  # noqa: E402
    METRIC_NAME,
    Span,
    check_metric_name,
    layer_metrics,
    self_time,
    tail_percentile,
    tail_rank,
)


def _benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("n, rank", [
    (1, 1), (10, 1), (11, 1), (12, 2), (20, 10), (100, 90),
    (1000, 990),
])
def test_tail_rank_leaves_ten_samples_beyond(n, rank):
    assert tail_rank(n) == rank
    if n > 10:
        assert n - tail_rank(n) == 10


def test_tail_percentile_reports_value_and_percentile():
    samples = list(range(100, 0, -1))        # unsorted input
    value, pct = tail_percentile(samples)
    assert value == 90
    assert pct == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_tail_rank_rejects_empty():
    with pytest.raises(ValueError):
        tail_rank(0)


# -- self time ---------------------------------------------------------------


def test_self_time_without_children_is_duration():
    assert self_time(2.0, 5.0, []) == 3.0


def test_self_time_counts_overlapping_children_once():
    # [1,4] and [3,6] overlap on [3,4]; [8,12] sticks out past the end.
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)


def test_self_time_nested_and_duplicate_children():
    children = [(1.0, 9.0), (2.0, 3.0), (1.0, 9.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(2.0)


def test_self_time_ignores_children_outside_the_span():
    assert self_time(5.0, 6.0, [(0.0, 1.0), (7.0, 8.0)]) == 1.0


def test_layer_metrics_self_and_unaccounted():
    root = Span("1:1", "engine.execute", 0.0, None, None)
    root.end = 10.0
    root.attrs = {"jobs": 1, "worker_failures": 0}
    spec = Span("1:2", "runner.run_spec", 1.0, "1:1", "0.0")
    spec.end = 9.0
    spec.attrs = {"kind": "flip", "outcome": "hang"}
    run = Span("1:3", "machine.run", 2.0, "1:2", "0.0")
    run.end = 8.0
    run.attrs = {"role": "spec", "cycles": 600, "trigger": [4.0, 200]}
    metrics = layer_metrics([root, spec, run], [], wall_s=12.0)
    assert metrics["runner.self_s"][0] == pytest.approx(2.0)
    assert metrics["machine.prefix_s"][0] == pytest.approx(2.0)
    assert metrics["machine.post_s"][0] == pytest.approx(4.0)
    assert metrics["machine.post_cycles"][0] == 400
    assert metrics["cpu.host_ns_per_cycle"][0] == pytest.approx(1e7)
    assert metrics["outcome.hang.n"][0] == 1
    assert metrics["engine.worker_busy_frac"][0] == pytest.approx(0.8)
    # 12 s of wall time, 10 s inside the root span.
    assert metrics["trace.unaccounted_s"][0] == pytest.approx(2.0)


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "outcome.hang.mean_s",
                                  "faults.reg_trap.n", "a-b.c_d", "9x"])
def test_metric_name_charset_accepts(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "spec tail", "a/b", "x%", ".dot",
                                  "_lead", "é", "x" * 65])
def test_metric_name_charset_rejects(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_names_match_what_the_runs_print():
    bench = _benchmark()
    for entry in bench["workloads"] + bench["end_to_end"] \
            + bench["per_layer"]:
        assert METRIC_NAME.match(entry["name"]), entry
    traced = set(layer_metrics([], [], 1.0)) | {"trace.overhead"}
    assert {m["name"] for m in bench["per_layer"]} == traced
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, (_, unit) in layer_metrics([], [], 1.0).items():
        assert units[name] == unit
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "specs_per_s", "peak_rss_mb"}


def test_benchmark_json_workloads_are_the_defined_ones():
    from workloads import WORKLOADS

    bench = _benchmark()
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


# -- dispatch order -----------------------------------------------------------


def test_dispatch_order_shuffles_within_slices_only():
    from campaign import dispatch_order

    groups = ["mem"] * 5 + ["reg_trap"] * 4 + ["disk"] * 3
    order = dispatch_order(groups, seed=11, number=0)
    assert sorted(order) == list(range(len(groups)))
    assert [groups[i] for i in order] == groups
    assert order == dispatch_order(groups, seed=11, number=0)
    orders = {tuple(dispatch_order(groups, 11, n)) for n in range(6)}
    assert len(orders) > 1


# -- results digest ----------------------------------------------------------


def test_digest_equal_across_runs_and_engines():
    pytest.importorskip("repro")
    from campaign import results_digest
    from repro.injection.runner import InjectionHarness
    from repro.kernel.build import build_kernel
    from repro.profiling.sampler import profile_kernel
    from repro.userland.build import build_all_programs
    from repro.userland.programs import WORKLOADS

    kernel = build_kernel()
    binaries = build_all_programs()
    profile = profile_kernel(kernel, binaries, WORKLOADS)
    digests = []
    for translate in (False, False, True):
        harness = InjectionHarness(kernel, binaries, profile,
                                   translate=translate)
        results = harness.run_campaign("C", seed=2003, byte_stride=160)
        assert len(results) >= 2
        digests.append(results_digest(results))
    assert digests[0] == digests[1] == digests[2]
