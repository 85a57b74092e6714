"""Holomorphic extension of boundary data along tangency discs.

A continuous function f on the outer boundary extends holomorphically
along an attached disc exactly when its boundary trace f(phi(e^{i theta}))
has no negative Fourier modes; the l2 mass of those modes (the
"extension defect") quantifies the failure.  Collecting per-disc Cauchy
extensions over the tangent family through a point and comparing them
(the "spread") is the numerical signature of the extension theorem: for
genuinely extendible data all discs through a point agree.

Also provided: the Morera contour integrals of f against the constant
(1,0)-forms dz_j over disc boundaries, and a harness reproducing the
classical dichotomy for concentric balls with radii 1 and sqrt(1/3) and
f = z1 * conj(z2)^2: every Morera integral over the tangent family
vanishes although f extends along none of the generic tangent discs,
while a control radius (0.5) leaves the Morera integrals visibly
nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import CircleGrid, TrigSeries, _count, _tolerance, analyze, \
    cauchy_extend, negative_tail_norm, ring_values
from .discs import (AnalyticDisc, SolverSettings, _bounded,
                    _point_and_direction)
from .domains import ConvexDomain, _random_directions, make_ball
from .errors import PreconditionError
from .tangency import _base_point, trace_locus

#: extendibility threshold, relative to the trace l2 norm
DEFECT_THRESHOLD = 1e-6
ATTACH_TOL = 1e-6


@dataclass
class BoundaryFunction:
    """Continuous function on the outer boundary; the evaluator is
    vectorized over points of shape (..., n)."""

    evaluator: callable
    label: str = ""

    def __call__(self, pts):
        return np.asarray(self.evaluator(np.asarray(pts, dtype=complex)),
                          dtype=complex)

    def continuity_gap(self, domain: ConvexDomain, pairs: int = 64,
                       h: float = 1e-6, seed: int = 0) -> float:
        """Sampled modulus-of-continuity sanity check: max |f(p) - f(q)|
        over boundary pairs at distance ~h (should be O(h) for Lipschitz
        data)."""
        rng = np.random.default_rng(seed)
        n = domain.dimension
        dirs = _random_directions(rng, pairs, n)
        pts = domain.boundary_point(dirs)
        near = domain.boundary_point(
            dirs + h * _random_directions(rng, pairs, n))
        return float(np.max(np.abs(self(pts) - self(near))))


NAMED_FUNCTIONS = {
    "z1": BoundaryFunction(lambda z: z[..., 0], "z1"),
    "zbar1": BoundaryFunction(lambda z: np.conj(z[..., 0]), "zbar1"),
    "z1_zbar2_sq": BoundaryFunction(
        lambda z: z[..., 0] * np.conj(z[..., 1]) ** 2, "z1_zbar2_sq"),
    "z1_z2_sq": BoundaryFunction(
        lambda z: z[..., 0] * z[..., 1] ** 2, "z1_z2_sq"),
    "holo_mix": BoundaryFunction(
        lambda z: z[..., 0] ** 2 + np.exp(z[..., 1]), "holo_mix"),
}


@dataclass
class DiscTrace:
    disc: AnalyticDisc
    values: TrigSeries


@dataclass
class ExtensionReport:
    defect: float
    morera: np.ndarray
    extendible: bool
    threshold: float


@dataclass
class ConsistencyReport:
    point: np.ndarray
    values: np.ndarray          # per-disc extensions (nan when not extendible)
    defects: np.ndarray
    extendible: np.ndarray      # boolean mask
    spread: float


@dataclass
class ReconstructionResult:
    points: np.ndarray
    values: np.ndarray
    spreads: np.ndarray
    max_spread: float
    defect_failures: int
    disc_count: int
    unextended_points: int      # points where no disc extended (value nan)


def _boundary_samples(f: BoundaryFunction, disc: AnalyticDisc) -> np.ndarray:
    """f at the disc's grid nodes, finite (:func:`discs._bounded`)."""
    samples = f(disc.boundary_values())
    _bounded(samples, "boundary values of f")
    return samples


def restrict(f: BoundaryFunction, disc: AnalyticDisc,
             attach_tol: float = ATTACH_TOL) -> DiscTrace:
    """Trace of f on the disc boundary, sampled exactly at the grid
    nodes and analyzed; raises PreconditionError for a detached disc or
    values of f that are not finite."""
    _tolerance("attach_tol", attach_tol)
    if disc.domain is not None:
        res = disc.boundary_residual()
        if res > attach_tol:
            raise PreconditionError(
                f"disc is not attached (residual {res:.3g})")
    return DiscTrace(disc, analyze(_boundary_samples(f, disc), disc.grid))


def extension_defect(trace: DiscTrace) -> float:
    """l2 mass of the negative Fourier modes of the trace; zero (up to
    the truncation level) iff f extends holomorphically along the disc."""
    return negative_tail_norm(trace.values)


def relative_defect(trace: DiscTrace) -> float:
    scale = float(np.linalg.norm(trace.values.coeffs))
    return extension_defect(trace) / max(scale, 1e-30)


def extend_along_disc(trace: DiscTrace, tau,
                      threshold: float = DEFECT_THRESHOLD) -> complex:
    """Value of the holomorphic extension of the trace at |tau| < 1.

    Refuses when the relative defect exceeds ``threshold``."""
    _tolerance("threshold", threshold)
    rel = relative_defect(trace)
    if rel > threshold:
        raise PreconditionError(
            f"trace does not extend holomorphically (relative defect {rel:.3g})")
    return cauchy_extend(trace.values, tau)


def morera_integrals(f: BoundaryFunction, disc: AnalyticDisc,
                     attach_tol: float = ATTACH_TOL) -> np.ndarray:
    """The n contour integrals int f(phi) phi_j'(e^{i theta}) i e^{i theta} dtheta
    (the pairing of f with the constant forms dz_j over the disc
    boundary), by the trapezoid rule on the grid."""
    _tolerance("attach_tol", attach_tol)
    if disc.domain is not None and disc.boundary_residual() > attach_tol:
        raise PreconditionError("disc is not attached")
    nodes = disc.grid.nodes
    k = np.arange(1, disc.modes + 1)
    fv = _boundary_samples(f, disc)
    dv = ring_values(disc.coeffs[1:] * k[:, None], nodes.size)
    integrand = fv[:, None] * dv * (1j * nodes)[:, None]
    return np.mean(integrand, axis=0) * 2.0 * np.pi


def extension_report(f: BoundaryFunction, disc: AnalyticDisc,
                     threshold: float = DEFECT_THRESHOLD) -> ExtensionReport:
    _tolerance("threshold", threshold)
    trace = restrict(f, disc)
    rel = relative_defect(trace)
    return ExtensionReport(defect=extension_defect(trace),
                           morera=morera_integrals(f, disc),
                           extendible=rel <= threshold,
                           threshold=threshold)


def consistency_check(f: BoundaryFunction, domain1: ConvexDomain,
                      domain2: ConvexDomain, z, disc_count: int,
                      settings: SolverSettings | None = None,
                      threshold: float = DEFECT_THRESHOLD,
                      trace_steps: int | None = None,
                      locus: "TangencyLocus | None" = None
                      ) -> ConsistencyReport:
    """Per-disc extension values of f at a point z between the domains.

    Traces the tangency locus through z, selects ``disc_count`` tangent
    discs spread along it, extends the trace of f along each and reports
    all values together with their spread.  Discs whose trace fails the
    defect threshold contribute no value but stay in the report.  Raises
    :class:`PreconditionError` for disc_count < 1, a threshold that is
    not finite and > 0 or a z that is not strictly between the domains."""
    _count("disc_count", disc_count)
    _tolerance("threshold", threshold)
    z = _base_point(domain1, domain2, z)
    settings = settings or SolverSettings()
    if locus is None:
        locus = trace_locus(domain1, domain2, z,
                            steps=trace_steps or max(disc_count, 12), settings=settings)
    idx = np.linspace(0, len(locus.points) - 1,
                      num=min(disc_count, len(locus.points)),
                      endpoint=False).astype(int)
    idx = idx[np.diff(idx, prepend=-1) > 0]     # non-decreasing: drop repeats
    chosen = [locus.points[i] for i in idx]
    values = np.full(len(chosen), np.nan + 0.0j, dtype=complex)
    defects = np.empty(len(chosen))
    ok = np.zeros(len(chosen), dtype=bool)
    for i, tp in enumerate(chosen):
        trace = restrict(f, tp.disc)
        defects[i] = relative_defect(trace)
        if defects[i] <= threshold:
            ok[i] = True
            values[i] = cauchy_extend(trace.values, tp.sigma)
    good = values[ok]
    if len(good) >= 2:
        spread = float(np.max(np.abs(good[:, None] - good[None, :])))
    else:
        spread = 0.0
    return ConsistencyReport(point=z, values=values, defects=defects,
                             extendible=ok, spread=spread)


def reconstruct(f: BoundaryFunction, domain1: ConvexDomain,
                domain2: ConvexDomain, grid_points, disc_count: int = 8,
                settings: SolverSettings | None = None,
                threshold: float = DEFECT_THRESHOLD,
                threads: int = 1) -> ReconstructionResult:
    """Extension values of f on points between the domains: per point
    the mean of the per-disc extensions, with the spread as an error
    bar (never averaged away silently); nan, and counted in
    ``unextended_points``, where no disc extends.  ``threads`` is
    accepted and ignored: points run in order with no worker threads,
    which measured faster than a thread pool.  Raises
    :class:`PreconditionError` for disc_count < 1."""
    _count("disc_count", disc_count)
    pts = np.asarray(grid_points, dtype=complex)
    values = np.empty(len(pts), dtype=complex)
    spreads = np.empty(len(pts))
    failures = 0
    for i, z in enumerate(pts):
        report = consistency_check(f, domain1, domain2, z, disc_count,
                                   settings, threshold)
        failures += int(np.sum(~report.extendible))
        good = report.values[report.extendible]
        values[i] = np.mean(good) if len(good) else np.nan
        spreads[i] = report.spread if len(good) else np.nan
    finite = spreads[np.isfinite(spreads)]
    return ReconstructionResult(
        points=pts, values=values, spreads=spreads,
        max_spread=float(np.max(finite)) if len(finite) else float("nan"),
        defect_failures=failures, disc_count=disc_count,
        unextended_points=len(pts) - len(finite))


# ---------------------------------------------------------------------------
# the concentric-ball counterexample


def _check_inner_radius(r2):
    """The inner sphere must lie strictly inside the unit sphere."""
    if not 0.0 < r2 < 1.0:
        raise PreconditionError(f"inner radius must lie in (0, 1), not {r2}")


def tangent_line_disc(r2: float, base_point, direction,
                      grid: CircleGrid) -> AnalyticDisc:
    """The complex line tangent to the sphere of radius r2 at
    ``base_point``, cut by the unit sphere: phi(tau) = p + s*tau*d with
    s = sqrt(1 - r2^2); an exact degree-one attached disc.  Raises
    PreconditionError for a non-finite point or direction, or d = 0."""
    _check_inner_radius(r2)
    ball = make_ball(np.zeros(np.size(base_point)), 1.0)
    p, d = _point_and_direction(ball, base_point, direction)
    s = np.sqrt(1.0 - r2 ** 2)
    disc = AnalyticDisc(np.stack([p, s * d]), grid, ball)
    disc.attachment_residual = disc.boundary_residual()
    return disc


def tangent_line_family(r2: float, count: int, grid: CircleGrid,
                        alpha_range=(0.3, 1.1)) -> list:
    """Deterministic family of tangent-line discs to the inner sphere of
    radius r2 in C^2, with base points kept away from the degenerate
    touch circles (where the trace of the counterexample function
    becomes holomorphic)."""
    _check_inner_radius(r2)
    _count("count", count)
    lo, hi = alpha_range
    discs = []
    for i in range(count):
        alpha = lo + (hi - lo) * (i + 0.5) / count
        b1 = 2.0 * np.pi * ((i * 0.6180339887498949) % 1.0)
        b2 = 2.0 * np.pi * ((i * 0.3819660112501051 + 0.25) % 1.0)
        p = r2 * np.array([np.cos(alpha) * np.exp(1j * b1),
                           np.sin(alpha) * np.exp(1j * b2)])
        d = np.array([-np.conj(p[1]), np.conj(p[0])]) / r2
        discs.append(tangent_line_disc(r2, p, d, grid))
    return discs


@dataclass
class CounterexampleReport:
    function: str
    grid_size: int
    disc_count: int
    per_radius: dict = field(default_factory=dict)
    holomorphic_control: dict | None = None


def counterexample_harness(n_discs: int = 64, grid_size: int = 512,
                           radii=(np.sqrt(1.0 / 3.0), 0.5),
                           include_holomorphic_control: bool = True
                           ) -> CounterexampleReport:
    """Morera-vs-extendibility dichotomy for concentric balls.

    For the outer unit sphere and f = z1 conj(z2)^2, sweeps the inner
    radius: at r2 = sqrt(1/3) every Morera integral over the tangent
    family vanishes while the per-disc extension defect stays bounded
    away from zero; at the control radius 0.5 the integrals are visibly
    nonzero.  A holomorphic control (f = z1 z2^2) zeroes both metrics.
    Raises :class:`PreconditionError` for n_discs < 1 or r2 not in (0, 1).
    """
    _count("n_discs", n_discs)
    grid = CircleGrid(grid_size)
    f = NAMED_FUNCTIONS["z1_zbar2_sq"]
    report = CounterexampleReport(function=f.label, grid_size=grid_size,
                                  disc_count=n_discs)

    def sweep(fn, discs):
        """Per-disc max |Morera integral| and extension defect of fn."""
        return (np.array([np.max(np.abs(morera_integrals(fn, d)))
                          for d in discs]),
                np.array([extension_defect(restrict(fn, d)) for d in discs]))

    families = [tangent_line_family(float(r2), n_discs, grid) for r2 in radii]
    for r2, discs in zip(radii, families):
        morera, defects = sweep(f, discs)
        report.per_radius[float(r2)] = {
            "max_morera": float(np.max(morera)),
            "min_defect": float(np.min(defects)),
            "mean_defect": float(np.mean(defects)),
        }
    if include_holomorphic_control:
        morera, defects = sweep(NAMED_FUNCTIONS["z1_z2_sq"], families[0])
        report.holomorphic_control = {
            "max_morera": float(np.max(morera)),
            "max_defect": float(np.max(defects)),
        }
    return report
