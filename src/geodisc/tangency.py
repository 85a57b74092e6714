"""Tangency geometry of an inner convex domain against the geodesics of
an outer one.

For a base point z_o between the domains, the tangency locus is the set
of points w on the inner boundary where some geodesic of the outer
domain through z_o is complex-tangent to the inner boundary.  Tangent
discs are solved in the touch-centered parametrization: the unknowns
are the touch point w, the complex-tangent direction d and the real
parameter sigma with

    psi(0) = w on the inner boundary,
    < drho2(w), d > = 0          (complex tangency at tau = 0),
    psi(sigma) = z_o,            (the disc passes through the base point)

where psi is the stationary disc of the outer domain with center w and
direction d.  Centering at the touch point keeps the disc coefficients
spectrally small even when z_o is close to the outer boundary.  The
locus (a curve for n = 2) is traced by predictor-corrector continuation
along the kernel of the residual Jacobian.

With w held fixed this is the two-point problem for w and z_o, so the
rows psi(sigma) = z_o and |d| = 1, their Jacobian and the Newton
iteration are those of the two-point solve (``discs._OuterSystem``);
this module adds the three inner-boundary rows.  The iteration carries
the disc's Gauss-Newton state with (w, d, sigma), one bordered step for
both, so a correction solves no disc per residual.  The systems keep no
state: each correction is handed the disc it starts from, and a locus
step starts from the last disc accepted, also when it is retried after
a failure.

On a ball the geodesics are the complex lines (Lempert, Bull. SMF 109,
1981), so the tangent disc through z_o touching at w is the line through
w and z_o, and the locus is traced in w alone, with no disc in its rows;
d and sigma are closed-form, and a correction builds its disc once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .circle import _count, _tolerance, ring_values
from .discs import (AnalyticDisc, SolverSettings, _OuterSystem,
                    _along_direction, _ball_disc, _ball_psi_inverse,
                    _ball_two_point_data, _complete_unitary,
                    _coordinate_tangents, _damped_newton, _flipped, _herm,
                    _interior, _min_norm_solve, _point, _solve_cd_raw)
from .domains import (ConvexDomain, _order_constants, _random_directions,
                      tangency_order_constant)
from .errors import HypothesisViolation, PreconditionError, SolverDivergence

TANGENCY_TOL = 1e-9
POINT_ON_DISC_TOL = 1e-6


@dataclass
class TangencyPoint:
    """One touch point of the tangency locus with its tangent disc.

    The disc is parametrized with the touch at tau = 0 (so w = disc(0))
    and passes through the base point at the real parameter sigma.
    """

    w: np.ndarray
    disc: AnalyticDisc
    tangency_constant: float
    sigma: float
    base_point: np.ndarray
    residual: float

    def psi_coordinates(self) -> np.ndarray:
        """The image of w under the Riemann map based at the base point.

        Reparametrizing the disc by the involution (sigma - tau)/(1 - sigma tau)
        gives the two-point normalization with xi = sigma and tangent
        (sigma^2 - 1) psi'(sigma), whence Psi(w) = -sigma psi'(sigma)/|psi'(sigma)|.
        """
        dv = self.disc.derivative(np.array([self.sigma + 0.0j]))[0]
        return -self.sigma * dv / np.linalg.norm(dv)


@dataclass
class TangencyLocus:
    base_point: np.ndarray
    points: list
    closure_gap: float

    def touch_points(self) -> np.ndarray:
        return np.array([p.w for p in self.points])

    def diameter(self) -> float:
        w = self.touch_points()
        d = np.linalg.norm(w[:, None, :] - w[None, :, :], axis=-1)
        return float(np.max(d))


def _find_parameter(disc, target, init=None):
    """Parameter tau of the closed disc nearest target (<= 40 Newton steps)."""
    target = np.asarray(target, dtype=complex)
    if init is None:
        radii = np.linspace(0.0, 0.999, 12)
        angles = np.exp(2j * np.pi * np.arange(48) / 48)
        dists = np.linalg.norm(ring_values(disc.coeffs, 48, radii) - target,
                               axis=-1)
        ring, node = divmod(int(np.argmin(dists)), 48)
        tau = radii[ring] * angles[node]
    else:
        tau = complex(init)
    for _ in range(40):
        val = disc(np.array([tau]))[0]
        dv = disc.derivative(np.array([tau]))[0]
        err = target - val
        step = _herm(err, dv) / max(np.linalg.norm(dv) ** 2, 1e-30)
        tau_new = tau + step
        if abs(tau_new) > 1.0:
            tau_new /= abs(tau_new)
        if abs(tau_new - tau) < 1e-12:
            tau = tau_new
            break
        tau = tau_new
    dist = float(np.linalg.norm(disc(np.array([tau]))[0] - target))
    return tau, dist


def tangency_residual(rho2: ConvexDomain, z_o, candidate_w, disc,
                      sigma_w=None) -> np.ndarray:
    """The three real tangency equations at a candidate touch point:
    (rho2(w), Re<drho2(w), d>, Im<drho2(w), d>) with d the unit tangent
    of the disc at w and <.,.> the bilinear pairing.  Raises
    :class:`PreconditionError` for a base or candidate point of the wrong
    shape or not finite, or one the disc does not pass through, and for a
    start ``sigma_w`` of w's parameter off the closed unit disc."""
    if sigma_w is not None and not (isinstance(sigma_w, numbers.Complex)
                                    and abs(sigma_w) <= 1.0):
        raise PreconditionError(
            f"sigma_w must be a point of the closed unit disc, not {sigma_w!r}")
    z_o = _point(rho2, z_o)
    w = _point(rho2, candidate_w, "candidate point")
    _, dist_z = _find_parameter(disc, z_o)
    if dist_z > POINT_ON_DISC_TOL:
        raise PreconditionError(
            f"disc does not pass through the base point (distance {dist_z:.3g})")
    tau_w, dist_w = _find_parameter(disc, w, init=sigma_w)
    if dist_w > POINT_ON_DISC_TOL:
        raise PreconditionError(
            f"disc does not pass through the candidate point (distance {dist_w:.3g})")
    d = disc.derivative(np.array([tau_w]))[0]
    return _inner_rows(rho2, w, d / np.linalg.norm(d))


def _inner_rows(domain2, w, d):
    """(rho2(w), Re/Im sum_j d_j rho2(w) d_j): w on the inner boundary
    and the vector d complex-tangent to it there."""
    pair = np.sum(domain2.grad(w) * d)
    return np.array([float(domain2.rho(w)), pair.real, pair.imag])


def _inner_jacobian(domain2, w, d):
    """(J, grad rho2(w)): J (3, 2n) is the Jacobian of :func:`_inner_rows`
    along (Re w, Im w) with d held fixed."""
    ew = _coordinate_tangents(len(w))
    grad2 = domain2.grad(w)
    A2, C2 = domain2.hess_complex(w)
    dpair = (ew @ A2.T + np.conj(ew) @ C2.T) @ d     # the gradient moves
    return np.array([2.0 * np.real(ew @ grad2), dpair.real, dpair.imag]), grad2


def _touch(u, n):
    """The touch point w of a state u of either tangency system, which
    leads with (Re w, Im w)."""
    return u[:n] + 1j * u[n:2 * n]


def _tangency_point(system, w, sigma, R, disc) -> TangencyPoint:
    """The locus point of ``system`` touching at w, with its corrected
    residual R and its disc through z_o at sigma; its tangency constant
    is NaN until :func:`_certify` sets it."""
    return TangencyPoint(w=w, disc=disc, tangency_constant=float("nan"),
                         sigma=float(sigma), base_point=system.z_o,
                         residual=float(np.max(np.abs(R))))


def _certify(points, constants):
    """Set the tangency constant of each of ``points``, in order; raises
    HypothesisViolation at the first that is not positive, naming it."""
    for point, const in zip(points, constants):
        point.tangency_constant = float(const)
        if const <= 0:
            raise HypothesisViolation(
                "tangency constant is not positive: the inner domain is not "
                "strongly convex with respect to this disc "
                f"(constant {const:.3g})")


def _certify_locus(domain2, points):
    """:func:`_certify` with the constants of all ``points`` from one
    batched pass (:func:`domains._order_constants`)."""
    _certify(points, _order_constants(domain2, [p.disc for p in points]))


class _TangencySystem(_OuterSystem):
    """The touch-centered tangency equations over u = (w, d, sigma): the
    three inner-boundary rows (rho2(w), Re/Im <drho2(w), d/|d|>) on top
    of the outer system's rows for the disc with center w through z_o at
    sigma."""

    def __init__(self, domain1, domain2, z_o, settings):
        super().__init__(domain1, np.asarray(z_o, dtype=complex), settings)
        self.d2 = domain2
        self.z_o = self.target

    def pack(self, w, d, sigma):
        return np.concatenate([w.real, w.imag, d.real, d.imag, [sigma]])

    def _rows(self, it):
        return np.concatenate([_inner_rows(self.d2, it.c, it.v),
                               super()._rows(it)])

    def _jacobian(self, it, dcoeffs):
        """Analytic Jacobian of the rows at the iterate ``it``, its disc
        coefficients moving along their parameter tangent ``dcoeffs``."""
        n = self.n
        along_w, grad2 = _inner_jacobian(self.d2, it.c, it.v)
        inner = np.zeros((3, 4 * n + 1))
        inner[:, :2 * n] = along_w
        dpair = _along_direction(it.d, _coordinate_tangents(n)) @ grad2
        inner[1, 2 * n:4 * n] = dpair.real
        inner[2, 2 * n:4 * n] = dpair.imag
        return np.vstack([inner, super()._jacobian(it, dcoeffs)])

    def correct(self, u, start):
        """(u, R, disc) with max |R| <= TANGENCY_TOL by
        :meth:`_OuterSystem.newton`, starting from the solved disc
        ``start`` with its scale |a_1| (solved cold at u where it is None);
        each step also moves the disc's Gauss-Newton state, whose
        attachment ends <= newton_tol.  It runs in two levels
        (:func:`discs._two_levels`), each of at most 12 damped Newton
        steps.  The system is underdetermined (2n + 4 equations, 4n + 1
        unknowns)."""
        return self.newton(u, TANGENCY_TOL, 12, start)

    def seed(self, w0):
        """(u, disc) of the tangent disc at the boundary point w0,
        uncorrected: d is the chord to z_o projected to the complex
        tangent space, rotated so that sigma is real positive."""
        chord = self.z_o - w0
        d0 = _tangent_projection(self.d2.grad(w0), chord)
        if np.linalg.norm(d0) < 1e-10:
            # chord is conormal; take any tangent vector
            g = np.conj(self.d2.grad(w0))
            basis = np.eye(self.n, dtype=complex)
            k = int(np.argmin(np.abs(g)))
            d0 = _tangent_projection(self.d2.grad(w0), basis[k])
        d0 = d0 / np.linalg.norm(d0)
        # solved at d/|d|, as the outer system solves every disc
        disc = _solve_cd_raw(self.domain, w0, d0 / np.linalg.norm(d0),
                             self.settings)
        sigma0, _ = _find_parameter(disc, self.z_o)
        phase = np.exp(1j * np.angle(sigma0)) if sigma0 != 0 else 1.0
        return self.pack(w0, d0 * phase, abs(sigma0)), disc

    def make_point(self, u, R, disc) -> TangencyPoint:
        """The locus point at u from the disc and rows R of its correction.
        Where sigma < 0 the point is the state (w, -d, -sigma), the same
        disc with tau -> -tau (:func:`_flipped`), through z_o at -sigma;
        its rows have the same max |R|, so nothing is solved again."""
        w, _, sigma = self.unpack(u)
        if sigma < 0:
            disc, sigma = _flipped(disc), -sigma
        return _tangency_point(self, w, sigma, R, disc)


class _BallTangencySystem:
    """The tangency equations on a ball outer domain over u = (Re w,
    Im w): the inner-boundary rows of the chord z_o - w, the tangent
    disc, whose d and sigma > 0 are the two-point data of w and z_o.  The
    interface is that of :class:`_TangencySystem`, but in the disc's
    place a correction hands on the pair (disc, sigma), which only
    :meth:`make_point` reads; the discs and pairs handed to
    :meth:`correct` and :meth:`jacobian` are not used."""

    def __init__(self, domain1, domain2, z_o, settings):
        self.domain = domain1
        self.d2 = domain2
        self.z_o = np.asarray(z_o, dtype=complex)
        self.settings = settings
        self.n = domain1.dimension

    def pack(self, w, *_):
        """u at the touch point w, whose chord fixes d and sigma."""
        return np.concatenate([w.real, w.imag])

    def unpack(self, u):
        """(w, d, sigma) at u."""
        w = _touch(u, self.n)
        return (w, *_ball_two_point_data(self.domain, w, self.z_o))

    def residual(self, u, aux=None):
        w = _touch(u, self.n)
        return _inner_rows(self.d2, w, self.z_o - w), None

    def jacobian(self, u, disc=None):
        """Analytic Jacobian (3, 2n) of the rows at u."""
        w = _touch(u, self.n)
        J, grad2 = _inner_jacobian(self.d2, w, self.z_o - w)
        pull = _coordinate_tangents(self.n) @ grad2    # the chord moves too
        J[1] -= pull.real
        J[2] -= pull.imag
        return J

    def correct(self, u, start=None):
        """(u, R, (disc, sigma)) with max |R| <= TANGENCY_TOL, in at most
        12 damped Newton steps with the minimum-norm step
        (:func:`_min_norm_solve`); the system is underdetermined (3
        equations, 2n unknowns).  d and sigma are taken once, at the u
        returned, and the disc is built from them (:func:`_ball_disc`)."""
        u, R, _ = _damped_newton(
            u, self.residual,
            lambda u, R, aux: _min_norm_solve(self.jacobian(u), -R),
            lambda R, aux: np.max(np.abs(R)) <= TANGENCY_TOL,
            TANGENCY_TOL, 12)
        w, d, sigma = self.unpack(u)
        return u, R, (_ball_disc(self.domain, w, d, self.settings), sigma)

    def seed(self, w0):
        """(u, None) at the boundary point w0."""
        return self.pack(w0), None

    def make_point(self, u, R, corrected) -> TangencyPoint:
        """The locus point at u from the (disc, sigma) of its correction."""
        disc, sigma = corrected
        return _tangency_point(self, _touch(u, self.n), sigma, R, disc)


def _tangency_system(domain1, domain2, z_o, settings):
    """The tangency system for the outer domain ``domain1``."""
    system = _BallTangencySystem if domain1.kind == "ball" else _TangencySystem
    return system(domain1, domain2, z_o, settings)


def _tangent_projection(grad, vector):
    """Component of ``vector`` in the complex tangent space
    {v : <grad, v> = 0} (bilinear pairing)."""
    g2 = np.sum(np.abs(grad) ** 2)
    return vector - np.conj(grad) * (np.sum(grad * vector) / g2)


def _initial_state(system, seed_w):
    """(u, start) of the tangent disc nearest ``seed_w``, uncorrected,
    for ``system.correct``."""
    d2 = system.d2
    return system.seed(
        d2.boundary_point(_point(d2, seed_w, "seed point") - d2.center))


def _base_point(domain1, domain2, z_o):
    """z_o as a complex vector (:func:`_point`); raises PreconditionError
    unless it lies strictly between the domains, 1e-8 in rho from both
    boundaries."""
    z_o = _point(domain1, z_o)
    if not float(domain2.rho(z_o)) > 1e-8:
        raise PreconditionError("base point must lie outside the inner domain")
    if not float(domain1.rho(z_o)) < -1e-8:
        raise PreconditionError("base point must lie inside the outer domain")
    return z_o


def _corrected_point(system, seed_w) -> TangencyPoint:
    """The locus point of ``system`` corrected from the tangent disc
    nearest ``seed_w``, with no tangency constant yet."""
    return system.make_point(*system.correct(*_initial_state(system, seed_w)))


def solve_tangent_disc(domain1: ConvexDomain, domain2: ConvexDomain, z_o,
                       seed_w, settings: SolverSettings | None = None
                       ) -> TangencyPoint:
    """Newton iteration for a single tangency point near ``seed_w``.

    z_o must lie strictly between the domains.  A nonpositive tangency
    constant (:func:`domains.tangency_order_constant`), taken once the
    point is corrected, is reported as a :class:`HypothesisViolation`,
    distinct from a solver failure.
    """
    settings = settings or SolverSettings()
    z_o = _base_point(domain1, domain2, z_o)
    point = _corrected_point(
        _tangency_system(domain1, domain2, z_o, settings), seed_w)
    _certify([point], [tangency_order_constant(domain2, point.disc)])
    return point


def _ranked_seeds(domain2, z_o):
    """Candidate touch points: the 8 best of 256 fixed boundary points,
    ranked by how close the chord to z_o comes to complex tangency (the
    score vanishes on the locus for straight geodesics and stays small
    near it in general).  The radial projection of z_o is no candidate:
    its solve failed on every shell point measured.  The boundary points
    and their gradients do not depend on z_o and are kept on the domain."""
    if domain2._seed_samples is None:
        dirs = _random_directions(np.random.default_rng(7), 256,
                                  domain2.dimension)
        pts = domain2.boundary_point(dirs)
        domain2._seed_samples = (pts, domain2.grad(pts))
    pts, grads = domain2._seed_samples
    chords = z_o[None, :] - pts
    scores = np.abs(np.sum(grads * chords, axis=1)) \
        / (np.linalg.norm(grads, axis=1) * np.linalg.norm(chords, axis=1))
    return pts[np.argsort(scores)[:8]]


def trace_locus(domain1: ConvexDomain, domain2: ConvexDomain, z_o, steps: int,
                settings: SolverSettings | None = None, seed_w=None
                ) -> TangencyLocus:
    """Sample the tangency locus through z_o.

    For n = 2 the locus is a closed curve traced by predictor-corrector
    continuation along the kernel of the residual Jacobian
    (:func:`_trace_curve`); for n >= 3 a local patch of ``steps``
    corrected samples around a seed point is returned (no atlas,
    :func:`_sample_patch`).  Without ``seed_w`` the locus starts at the
    first of the :func:`_ranked_seeds` whose tangent disc converges.

    The points are traced without their tangency constants; once the
    locus is traced, the constants of all its points are taken in one
    batched pass (:func:`domains._order_constants`), and a nonpositive
    one raises :class:`HypothesisViolation` naming the first such point's
    constant, in locus order.  Where the trace fails with
    :class:`SolverDivergence` after its first point, the points traced
    so far are certified the same way first, so a nonpositive constant
    takes precedence over the divergence.  Raises
    :class:`PreconditionError` for steps < 1 or a base point that is not
    strictly between the domains, before any solve.
    """
    _count("steps", steps)
    settings = settings or SolverSettings()
    z_o = _base_point(domain1, domain2, z_o)
    system = _tangency_system(domain1, domain2, z_o, settings)
    if seed_w is not None:
        first = _corrected_point(system, seed_w)
    else:
        first = None
        error = None
        for candidate in _ranked_seeds(domain2, z_o):
            try:
                first = _corrected_point(system, candidate)
                break
            except (SolverDivergence, PreconditionError) as exc:
                error = exc
        if first is None:
            raise SolverDivergence(
                f"no tangency seed converged ({error})")
    disc = first.disc
    u = system.pack(first.w, disc.base_direction
                    / np.linalg.norm(disc.base_direction), first.sigma)
    domain_scale = float(np.linalg.norm(first.w - domain2.center))
    points = [first]
    try:
        if domain1.dimension >= 3:
            gap = _sample_patch(system, points, u, steps,
                                2.0 * np.pi * domain_scale / steps)
        else:
            gap = _trace_curve(system, points, u, steps, domain_scale)
    except SolverDivergence:
        _certify_locus(domain2, points)
        raise
    _certify_locus(domain2, points)
    return TangencyLocus(z_o, points, gap)


def _trace_curve(system, points, u, steps, domain_scale):
    """Trace the closed locus curve (n = 2) from its point ``points[0]``,
    whose state is u and whose distance from the inner domain's center
    is ``domain_scale``, appending each corrected point to ``points``;
    returns the closure gap.

    The curve is traversed in the sense of the rotation w -> e^{it} w
    about the inner domain's center, so its order does not depend on the
    sign that the SVD gives the first kernel tangent.  The step size is
    set once from the locus radius 1/|bend|, where bend is the turn of
    the kernel tangent over one probe correction from the first point
    per unit of touch-point distance (the radius capped at 10 x the
    distance of the first point from the inner domain's center); the
    probe yields no point, and the first step starts from its disc.
    Each step is predicted on the parabola that the last two kernel
    tangents bend (:func:`_predict`), at the point nearest the tangent
    step, where the corrector would land from it; the first step, and
    any whose bend is too large for its length to be trusted, is the
    tangent step.  Off a ball every correction, the first point's from
    its seed disc included, starts from a solved disc and runs in two
    levels (:meth:`_TangencySystem.correct`); a point whose sigma
    comes out negative is the same disc with tau -> -tau, not solved
    again (:meth:`_TangencySystem.make_point`).  Raises
    :class:`SolverDivergence` where the step size collapses or the
    curve does not close in 4 x ``steps`` steps."""
    first = points[0]
    disc = first.disc
    n = system.n

    def kernel_tangent(u, disc, t_prev):
        J = system.jacobian(u, disc)
        _, _, vt = np.linalg.svd(J)
        t = vt[-1]
        if np.dot(t, t_prev) < 0:
            t = -t
        return t / max(np.linalg.norm(t[:2 * n]), 1e-12)

    # the turn of the kernel tangent over a probe step is the locus
    # curvature, so the step size tracks the locus size (which shrinks as
    # z_o approaches the inner boundary) rather than the domain size; the
    # tangent at the first point serves both the probe and the first step
    probe = 0.02 * domain_scale
    # oriented by Re <t_w, i (w - c)> > 0 (the packed dot product)
    rotation = system.pack(1j * (first.w - system.d2.center), np.zeros(n),
                           0.0)
    t_first = kernel_tangent(u, disc, rotation)
    # each correction starts from the last disc accepted: the first step
    # from the probe's
    u_c, _, disc = system.correct(u + probe * t_first, disc)
    turn = (kernel_tangent(u_c, disc, t_first) - t_first)[:2 * n]
    curvature = np.linalg.norm(turn) / np.linalg.norm(_touch(u_c, n) - first.w)
    # the radius 1 / curvature, at most 10 x the domain scale
    radius = 1.0 / max(float(curvature), 0.1 / domain_scale)
    h = min(2.0 * np.pi * radius / steps, 0.5 * radius)

    t_prev, bend = t_first, None
    h_min, h_max = h / 16.0, 1.25 * h
    arc = 0.0
    for _ in range(4 * steps):
        try:
            u_new, R_new, disc_new = system.correct(
                _predict(u, t_prev, bend, h), disc)
        except SolverDivergence:
            h *= 0.5
            if h < h_min:
                raise SolverDivergence(
                    "step-size collapse while tracing the tangency locus")
            continue
        point = system.make_point(u_new, R_new, disc_new)
        length = float(np.linalg.norm(point.w - points[-1].w))
        arc += length
        points.append(point)
        u, disc = u_new, disc_new
        h = min(1.15 * h, h_max)
        gap = float(np.linalg.norm(point.w - first.w))
        if len(points) >= 5 and arc > 4.0 * radius and gap < h:
            return gap
        t_new = kernel_tangent(u, disc, t_prev)
        bend = (t_new - t_prev) / length
        t_prev = t_new
    raise SolverDivergence("tangency locus did not close while tracing")


def _predict(u, t, bend, h):
    """The predictor of a locus step h from u along the tangent t: the
    point of the parabola u + s t + s^2 bend / 2 nearest to u + h t,
    where the corrector's minimum-norm steps would land from u + h t.
    Its s solves the cubic ((s - h) t + s^2 bend / 2) . (t + s bend) = 0,
    by three Newton steps from s = h.  Where there is no curvature
    estimate ``bend`` yet, or h |bend| >= |t|^2 / 2 (a step too long for
    the parabola to be trusted; on a ball locus of 12 steps, where
    |t| = 1, every step has h |bend| >= 2 pi / 12 ~ 0.52), it is the
    tangent step u + h t."""
    if bend is None:
        return u + h * t
    tt, bb = t @ t, bend @ bend
    if not h * h * bb < 0.25 * tt * tt:
        return u + h * t
    tb = t @ bend
    s = h
    for _ in range(3):
        f = (s - h) * tt + (1.5 * s - h) * s * tb + 0.5 * s ** 3 * bb
        s -= f / (tt + (3.0 * s - h) * tb + 1.5 * s * s * bb)
    return u + s * t + 0.5 * s * s * bend


def _sample_patch(system, points, u, steps, h):
    """Local patch of the (2n-3)-dimensional locus around its point
    ``points[0]``, whose state is u: ``steps`` corrections from u + h t
    along random kernel tangents t, appended to ``points``; returns the
    closure gap, NaN for a patch.  Each is retried at half the step where
    it fails, down to h/16 as in the n = 2 trace, and then raised."""
    first = points[0]
    rng = np.random.default_rng(11)
    J = system.jacobian(u, first.disc)
    _, sv, vt = np.linalg.svd(J)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    kernel = vt[rank:]
    for _ in range(steps):
        combo = rng.standard_normal(kernel.shape[0])
        t = combo @ kernel
        t /= max(np.linalg.norm(t[:2 * system.n]), 1e-12)
        for step in (h, h / 2, h / 4, h / 8, h / 16):
            try:
                corrected = system.correct(u + step * t, first.disc)
                break
            except SolverDivergence:
                pass
        else:
            raise SolverDivergence(
                "step-size collapse while sampling the tangency patch")
        points.append(system.make_point(*corrected))
    return float("nan")


# ---------------------------------------------------------------------------
# the Jacobian certificate in Riemann-map coordinates


def jacobian_certificate(rho2_in_psi_coords: ConvexDomain, point) -> float:
    """Signed determinant of the 3x3 minor of the tangency-system
    Jacobian in normalized coordinates.

    With coordinates rotated so the gradient is (1, 0, ...) and the
    point is (0, c, 0, ...), the minor reduces to
    c^2 (|rho_{z2 z2}|^2 - rho_{z2 zbar2}^2); a negative value certifies
    that the locus is regular at the point (the restricted real Hessian
    is positive definite).
    """
    z = _point(rho2_in_psi_coords, point, "certificate point")
    grad = rho2_in_psi_coords.grad(z)
    gnorm = float(np.linalg.norm(grad))
    if not gnorm >= 1e-12:
        raise PreconditionError("normalization failure: vanishing gradient")
    c = float(np.linalg.norm(z))
    if not c >= 1e-12:
        raise PreconditionError("certificate point must be away from the origin")
    u1 = np.conj(grad) / gnorm
    u2 = z / c
    u2 = u2 - _herm(u2, u1) * u1
    u2 = u2 / np.linalg.norm(u2)
    S = _complete_unitary([u1, u2])        # z = S eta
    A, C = rho2_in_psi_coords.hess_complex(z)
    Ap = S.T @ A @ S
    Cp = S.T @ C @ np.conj(S)
    a22 = Ap[1, 1]
    c22 = Cp[1, 1].real
    return float(c ** 2 * (abs(a22) ** 2 - c22 ** 2) / gnorm ** 2)


def push_domain_through_psi(domain1: ConvexDomain, domain2: ConvexDomain,
                            z_o, settings: SolverSettings | None = None,
                            fd_step: float | None = None) -> ConvexDomain:
    """The inner domain transported by the Riemann map based at z_o:
    rho_tilde = rho2 o Psi^{-1}.

    For a ball outer domain the inverse map is closed-form; otherwise
    every evaluation costs one disc solve.  First and second derivatives
    are finite differences of rho_tilde, adequate for the sign
    certificate, with step ``fd_step`` (finite and > 0) or a default.
    Raises PreconditionError unless z_o is a finite interior point of
    the outer domain."""
    if fd_step is not None:
        _tolerance("fd_step", fd_step)
    z_o = _point(domain1, z_o)
    if not _interior(domain1, z_o):
        raise PreconditionError("base point must be interior to the outer domain")
    n = domain1.dimension
    if domain1.kind == "ball":
        inverse = partial(_ball_psi_inverse, domain1, z_o)
        h = fd_step or 1e-5
    else:
        from .lempert import psi_inverse
        settings = settings or SolverSettings()

        def inverse(zeta):
            return psi_inverse(domain1, z_o, zeta, settings)

        h = fd_step or 1e-3

    def rho_one(zeta):
        return float(domain2.rho(inverse(zeta)))

    def batched(one):
        """``one`` applied at every point of a (..., n) array."""
        def fn(z):
            z = np.asarray(z, dtype=complex)
            if z.ndim == 1:
                return one(z)
            vals = np.array([one(p) for p in z.reshape(-1, n)])
            return vals.reshape(z.shape[:-1] + vals.shape[1:])
        return fn

    def offset(j):
        """The step h along real coordinate j: Re z_{j//2} for even j,
        Im z_{j//2} for odd j."""
        e = np.zeros(n, dtype=complex)
        e[j // 2] = h if j % 2 == 0 else 1j * h
        return e

    def grad_one(zeta):
        diffs = [rho_one(zeta + offset(j)) - rho_one(zeta - offset(j))
                 for j in range(2 * n)]
        partials = np.array(diffs) / (2.0 * h)
        return 0.5 * (partials[0::2] - 1j * partials[1::2])

    def hess_one(zeta):
        """(A, C) stacked as (2, n, n)."""
        f0 = rho_one(zeta)
        H = np.empty((2 * n, 2 * n))
        for i in range(2 * n):
            ei = offset(i)
            H[i, i] = (rho_one(zeta + ei) - 2.0 * f0 + rho_one(zeta - ei)) / h ** 2
            for j in range(i + 1, 2 * n):
                ej = offset(j)
                H[i, j] = H[j, i] = (
                    rho_one(zeta + ei + ej) - rho_one(zeta + ei - ej)
                    - rho_one(zeta - ei + ej) + rho_one(zeta - ei - ej)
                ) / (4.0 * h ** 2)
        Hxx = H[0::2, 0::2]
        Hyy = H[1::2, 1::2]
        Hxy = H[0::2, 1::2]
        Hyx = H[1::2, 0::2]
        A = (Hxx - Hyy) / 4.0 - 1j * (Hxy + Hyx) / 4.0
        C = (Hxx + Hyy) / 4.0 + 1j * (Hxy - Hyx) / 4.0
        return np.array([A, C])

    def hess(z):
        AC = batched(hess_one)(z)
        return AC[..., 0, :, :], AC[..., 1, :, :]

    return ConvexDomain(n, "psi_pushforward", batched(rho_one),
                        batched(grad_one), hess,
                        meta={"center": np.zeros(n, dtype=complex)})


def pi_set_sample(domain1: ConvexDomain, domain2: ConvexDomain, z_o,
                  count: int, settings: SolverSettings | None = None,
                  seed: int = 0) -> np.ndarray:
    """Projectivized lift residues [phi*(0)] of tangent discs based at a
    point z_o on the inner boundary.

    For each of ``count`` complex-tangent directions the geodesic of the
    outer domain through z_o is solved and its lift projectivized at the
    pole.  For n = 2 all samples coincide (a single point of the
    projective line)."""
    from .lifts import lift_from_disc, projectivize

    _count("count", count)
    settings = settings or SolverSettings()
    z_o = _point(domain1, z_o)
    if abs(float(domain2.rho(z_o))) > 1e-8:
        raise PreconditionError("base point must lie on the inner boundary")
    if float(domain1.rho(z_o)) >= -1e-8:
        raise PreconditionError("base point must be interior to the outer domain")
    n = domain1.dimension
    grad2 = domain2.grad(z_o)
    normal = np.conj(grad2) / np.linalg.norm(grad2)
    tangent = _complete_unitary([normal])[:, 1:]     # (n, n-1)
    rng = np.random.default_rng(seed)
    out = np.empty((count, n), dtype=complex)
    for k in range(count):
        if n == 2:
            v = np.exp(2j * np.pi * k / count) * tangent[:, 0]
        else:
            combo = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            v = tangent @ combo
            v = v / np.linalg.norm(v)
        disc = _solve_cd_raw(domain1, z_o, v, settings)
        out[k] = projectivize(lift_from_disc(domain1, disc), 0.0)
    return out
