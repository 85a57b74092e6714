"""Timed and traced runs of one workload, and the correctness gate."""

from __future__ import annotations

import os
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from geodisc import extension
from geodisc.circle import CircleGrid
from geodisc.errors import GeodiscError

import benchstats
import layers
from tracer import Tracer
from workloads import GEODESICS, KNOWN_FAILURE_RING, CheckFailed, ring_item

SETUP_OP = -1


@dataclass
class Batch:
    latencies: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.ok)

    @property
    def ops_per_s(self) -> float:
        return sum(self.ok) / self.wall


def run_op(workload, ctx, item, tracer=None, op=None):
    """(latency, error against the oracle, failure message or None).

    With a tracer, the library call is op ``op``'s root span; the check
    of its output runs outside it.
    """
    span = nullcontext() if tracer is None else tracer.op_span("op", op)
    t = perf_counter()
    try:
        with span:
            output = workload.run(ctx, item)
    except GeodiscError as exc:
        return perf_counter() - t, None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t
    try:
        return latency, workload.check(ctx, item, output), None
    except CheckFailed as exc:
        return latency, None, f"check failed: {exc}"


def run_batch(workload, ctx, seed, *, seconds=None, count=None, tracer=None):
    """Ops back to back, until ``seconds`` have passed or ``count`` ran."""
    batch = Batch()
    start = perf_counter()
    i = 0
    while (perf_counter() - start < seconds) if count is None else i < count:
        item = workload.item(seed, i)
        latency, error, failure = run_op(workload, ctx, item, tracer, i)
        batch.latencies.append(latency)
        batch.kinds.append(workload.kind(item))
        batch.ok.append(failure is None)
        if failure is None:
            batch.errors.append(error)
        else:
            batch.failures.append(f"op {i} ({workload.kind(item)}): {failure}")
        i += 1
    batch.wall = perf_counter() - start
    return batch


def set_up(workload):
    """Build the domains and run the warm-up op; returns (ctx, seconds)."""
    t = perf_counter()
    ctx = workload.build()
    item = workload.warmup_item()
    output = workload.run(ctx, item)
    elapsed = perf_counter() - t
    workload.check(ctx, item, output)
    return ctx, elapsed


def counterexample_gate() -> list:
    """counterexample_harness(64, 512) against the acceptance thresholds
    of criterion 6; returns the violations."""
    r_paper = float(np.sqrt(1.0 / 3.0))
    theta = 2 * np.pi * np.arange(2048) / 2048
    oracle = []
    for disc in extension.tangent_line_family(r_paper, 64, CircleGrid(512)):
        z = disc.coeffs[0][None, :] \
            + np.exp(1j * theta)[:, None] * disc.coeffs[1][None, :]
        c = np.fft.fft(z[:, 0] * np.conj(z[:, 1]) ** 2) / len(theta)
        oracle.append(np.sqrt(np.sum(np.abs(c[len(c) // 2:]) ** 2)))
    oracle_min = float(np.min(oracle))
    rep = extension.counterexample_harness(n_discs=64, grid_size=512)
    main = rep.per_radius[r_paper]
    control = rep.per_radius[0.5]
    holo = rep.holomorphic_control
    checks = [
        ("max Morera at sqrt(1/3)", main["max_morera"] <= 1e-10),
        ("min defect vs oracle", main["min_defect"] >= 0.99 * oracle_min),
        ("min defect", main["min_defect"] >= 0.01),
        ("control max Morera", control["max_morera"] >= 1e-3),
        ("holomorphic control", holo["max_morera"] <= 1e-10
         and holo["max_defect"] <= 1e-10),
    ]
    return [name for name, passed in checks if not passed]


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _batch_lines(batch, label="ops"):
    lines = [f"failure {f}" for f in batch.failures]
    by_kind = {}
    for kind, lat, good in zip(batch.kinds, batch.latencies, batch.ok):
        by_kind.setdefault(kind, []).append((lat, good))
    for kind, rows in by_kind.items():
        lats = [lat for lat, _ in rows]
        lines.append(f"{label} {kind}: {len(rows)} attempted, "
                     f"{sum(not good for _, good in rows)} failed, "
                     f"median {statistics.median(lats):.4f} s")
    return lines


def _gate_line(violations):
    verdict = "ok" if not violations else "FAILED " + ", ".join(violations)
    return f"gate counterexample_harness(64, 512): {verdict}"


def _metric_lines(metrics):
    return [f"metric {name} {m['value']:.6g} {m['unit']}"
            for name, m in metrics.items()]


def timed_run(workload, seed, seconds, import_s, repeats):
    """End-to-end metrics with tracing off."""
    setups = []
    for _ in range(repeats):
        ctx, elapsed = set_up(workload)
        setups.append(elapsed)
    batch = run_batch(workload, ctx, seed, seconds=seconds)
    gate = counterexample_gate()
    metrics = {
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
        "ops_per_s": _metric(batch.ops_per_s, "1/s"),
        "op_p50_s": _metric(benchstats.median_latency(batch.latencies,
                                                      batch.ok), "s"),
        "accuracy_digits": _metric(benchstats.accuracy_digits(batch.errors),
                                   "digits"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ratio = benchstats.failed_ratio(batch.failed, batch.attempted)
    lines = _batch_lines(batch)
    lines.append(_gate_line(gate))
    lines += _metric_lines(metrics)
    lines.append(f"metric failed_ratio {ratio:.6g} 1")
    return {"lines": lines,
            "correct": not gate and batch.failed == 0,
            "attempted": batch.attempted, "failed": batch.failed,
            "metrics": metrics}


def known_failure_ring():
    """Run the ring past the resolvable radius; returns (attempted,
    failed, lines)."""
    ctx = GEODESICS.build()
    lines, failed = [], 0
    for template in KNOWN_FAILURE_RING:
        _, _, failure = run_op(GEODESICS, ctx, ring_item(template))
        failed += failure is not None
        lines.append(f"ring {template}: {failure or 'ok'}")
    return len(KNOWN_FAILURE_RING), failed, lines


def trace_batch(workload, seed, count):
    """Trace one set-up and ``count`` ops on its domains; returns
    (tracer, batch)."""
    tracer = Tracer()
    tracer.install(layers.SEAMS)
    try:
        with tracer.op_span("setup", SETUP_OP):
            ctx = workload.build()
        for domain in workload.traced_domains(ctx):
            layers.wrap_domain(tracer, domain)
        batch = run_batch(workload, ctx, seed, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, batch


def traced_run(workload, seed, out_dir):
    """Per-layer metrics from a fixed number of traced ops, plus the
    tracing overhead against the same ops untraced."""
    count = workload.trace_ops
    ctx, _ = set_up(workload)
    plain = run_batch(workload, ctx, seed, count=count)
    tracer, traced = trace_batch(workload, seed, count)

    metrics, missing = layers.per_layer_metrics(tracer, set(range(count)),
                                                {SETUP_OP})
    metrics["trace.overhead_ops_per_s"] = _metric(
        traced.ops_per_s - plain.ops_per_s, "1/s")
    metrics["trace.spans"] = _metric(len(tracer), "count")
    if workload is GEODESICS:
        attempted, ring_failed, ring_lines = known_failure_ring()
    else:
        attempted, ring_failed, ring_lines = 0, 0, []
    metrics["ring.attempted"] = _metric(attempted, "count")
    metrics["ring.failed"] = _metric(ring_failed, "count")

    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}-{seed}.json.gz")
    tracer.write(spans_path)
    gate = counterexample_gate()

    lines = _batch_lines(plain, "untraced") + _batch_lines(traced, "traced")
    lines += ring_lines
    lines += [f"missing {name}: its seam no longer resolves" for name in missing]
    lines.append(_gate_line(gate))
    lines.append(f"spans written to {spans_path}")
    lines += _metric_lines(metrics)
    failed = plain.failed + traced.failed
    return {"lines": lines, "correct": not gate and failed == 0,
            "attempted": plain.attempted + traced.attempted, "failed": failed,
            "metrics": metrics}
