"""Tests of the benchmark's own statistics and tracing code.

    python3 -m pytest perfbench
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import bench  # noqa: E402
import benchstats  # noqa: E402
import layers  # noqa: E402
from tracer import NO_PARENT, Seam, Tracer, child_index, self_time  # noqa: E402
from workloads import BALL_SHELL, GEODESICS  # noqa: E402


def test_median_ranks_failures_after_every_success():
    latencies = [1.0, 2.0, 3.0, 0.1]
    assert benchstats.median_latency(latencies, [True] * 4) == 1.5
    # the quick failure ranks last and takes the slowest latency seen
    assert benchstats.median_latency(latencies, [True, True, True, False]) == 2.5
    assert benchstats.median_latency([0.5, 0.2], [False, False]) == 0.5
    with pytest.raises(ValueError):
        benchstats.median_latency([1.0], [True, False])


def test_failures_only_raise_the_median():
    latencies = [0.3, 0.9, 0.2, 0.5, 0.7]
    base = benchstats.median_latency(latencies, [True] * 5)
    for k in range(5):
        ok = [i != k for i in range(5)]
        assert benchstats.median_latency(latencies, ok) >= base


def test_failed_ratio():
    assert benchstats.failed_ratio(0, 7) == 0.0
    assert benchstats.failed_ratio(2, 8) == 0.25
    with pytest.raises(ValueError):
        benchstats.failed_ratio(0, 0)


def test_accuracy_digits():
    assert benchstats.accuracy_digits([1e-12, 1e-10, 3e-11]) == \
        pytest.approx(10.0)
    assert benchstats.accuracy_digits([0.0]) == pytest.approx(16.0)
    assert benchstats.accuracy_digits([]) == 0.0
    assert benchstats.accuracy_digits([1e-12, math.nan]) == 0.0


def _span(tracer, name, start, end, parent=NO_PARENT, op=0):
    if name not in tracer.names:
        tracer.names.append(name)
    tracer.name.append(tracer.names.index(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.op.append(op)
    tracer.value.append(0.0)
    tracer.failed.append(0)
    return len(tracer) - 1


def test_self_time_subtracts_merged_children():
    t = Tracer()
    root = _span(t, "root", 0.0, 10.0)
    _span(t, "a", 1.0, 3.0, root)
    _span(t, "a", 2.0, 4.0, root)         # overlaps the first child
    _span(t, "b", 8.0, 12.0, root)        # runs past the parent's end
    leaf = _span(t, "c", 1.5, 2.5, 1)     # grandchild: not subtracted
    children = child_index(t)
    assert self_time(t, root, children) == pytest.approx(5.0)
    assert self_time(t, leaf, children) == pytest.approx(1.0)
    table = layers.SpanTable(t, {0})
    assert table.self_seconds("a") == pytest.approx(3.0)
    assert table.seconds("a") == pytest.approx(4.0)
    assert table.calls("c", parent="a") == 1.0


def test_missing_seam_is_reported_not_fatal():
    import geodisc.discs as discs

    original = discs.ball_geodesic
    tracer = Tracer()
    tracer.install([
        Seam("discs.ball_geodesic", "geodisc.discs", "ball_geodesic"),
        Seam("tangency.jacobian", "geodisc.tangency", "_NoSuchSystem.jacobian"),
        Seam("lempert.psi", "geodisc.no_such_module", "psi"),
    ])
    try:
        assert discs.ball_geodesic is not original
        assert tracer.missing == {"tangency.jacobian", "lempert.psi"}
    finally:
        tracer.uninstall()
    assert discs.ball_geodesic is original
    metrics, missing = layers.per_layer_metrics(tracer, {0}, {-1})
    assert "tangency.jacobian.calls" in missing
    assert "tangency.jacobian.self_s" in missing
    assert "lempert.psi.s" in missing
    assert "tangency.jacobian.calls" not in metrics
    assert metrics["discs.ball_geodesic.calls"]["value"] == 0.0


def test_static_method_seam_keeps_its_binding():
    import numpy as np
    from geodisc.discs import _CenterDirectionSystem

    tracer = Tracer()
    tracer.install(
        [Seam("discs.gn_ls_step", "geodisc.discs",
              "_CenterDirectionSystem._ls_step")])
    system = object.__new__(_CenterDirectionSystem)
    try:
        with tracer.op_span("op", 0):
            step = system._ls_step(2.0 * np.eye(2), np.ones(2))
    finally:
        tracer.uninstall()
    assert np.allclose(step, -0.5)
    assert layers.SpanTable(tracer, {0}).calls("discs.gn_ls_step") == 1.0


def _counts(workload, seed, count):
    tracer, batch = bench.trace_batch(workload, seed, count)
    assert batch.failed == 0
    metrics, missing = layers.per_layer_metrics(tracer, set(range(count)),
                                                {bench.SETUP_OP})
    assert not missing
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] != "s"}


@pytest.mark.parametrize("workload,count", [(BALL_SHELL, 1), (GEODESICS, 2)])
def test_counts_repeat_exactly_for_a_seed(workload, count):
    first = _counts(workload, 3, count)
    assert first == _counts(workload, 3, count)
    assert first["discs.gn_iterations"] >= 0
    if workload is BALL_SHELL:
        assert first["discs.gn_solve.calls"] == 0
        assert first["tangency.disc_solves_per_point"] > 0
    else:
        assert first["tangency.jacobian.calls"] == 0
        assert first["discs.gn_iterations"] > 0
