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
along the kernel of the residual Jacobian; the corrector is the damped
Newton driver of :mod:`geodisc.discs` with a minimum-norm lstsq step.

The Jacobian is analytic and solves no disc: the inner-domain rows come
from the gradient and Hessian of rho2, and the through-point rows from
the derivative of psi(sigma) in (w, d) -- by the chain rule from the
parameter tangent that the warm Gauss-Newton solve returns with its disc
from its own factorization, or the closed form when the outer domain is
a ball.  Each inner solve starts at the first-order prediction from the
previous disc and its tangent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discs import (AnalyticDisc, SolverSettings, _ball_automorphism,
                    _ball_point_sensitivity, _complete_unitary,
                    _coordinate_tangents, _damped_newton, _direction_tangents,
                    _herm, _parameter_tangent, _solve_cd_raw, _tangent_at)
from .domains import ConvexDomain, tangency_order_constant
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


def _find_parameter(disc, target, init=None, tol=1e-12, max_iters=40):
    """Parameter tau in the closed disc with disc(tau) closest to target."""
    target = np.asarray(target, dtype=complex)
    if init is None:
        radii = np.linspace(0.0, 0.999, 12)
        angles = np.exp(2j * np.pi * np.arange(48) / 48)
        taus = np.concatenate([(r * angles) for r in radii])
        dists = np.linalg.norm(disc(taus) - target, axis=-1)
        tau = taus[int(np.argmin(dists))]
    else:
        tau = complex(init)
    for _ in range(max_iters):
        val = disc(np.array([tau]))[0]
        dv = disc.derivative(np.array([tau]))[0]
        err = target - val
        step = _herm(err, dv) / max(np.linalg.norm(dv) ** 2, 1e-30)
        tau_new = tau + step
        if abs(tau_new) > 1.0:
            tau_new /= abs(tau_new)
        if abs(tau_new - tau) < tol:
            tau = tau_new
            break
        tau = tau_new
    dist = float(np.linalg.norm(disc(np.array([tau]))[0] - target))
    return tau, dist


def tangency_residual(rho2: ConvexDomain, z_o, candidate_w, disc,
                      sigma_w=None) -> np.ndarray:
    """The three real tangency equations at a candidate touch point:
    (rho2(w), Re<drho2(w), d>, Im<drho2(w), d>) with d the unit tangent
    of the disc at w and <.,.> the bilinear pairing."""
    z_o = np.asarray(z_o, dtype=complex)
    w = np.asarray(candidate_w, dtype=complex)
    _, dist_z = _find_parameter(disc, z_o)
    if dist_z > POINT_ON_DISC_TOL:
        raise PreconditionError(
            f"disc does not pass through the base point (distance {dist_z:.3g})")
    tau_w, dist_w = _find_parameter(disc, w, init=sigma_w)
    if dist_w > POINT_ON_DISC_TOL:
        raise PreconditionError(
            f"disc does not pass through the candidate point (distance {dist_w:.3g})")
    d = disc.derivative(np.array([tau_w]))[0]
    d = d / np.linalg.norm(d)
    pair = np.sum(rho2.grad(w) * d)
    return np.array([float(rho2.rho(w)), pair.real, pair.imag])


class _TangencySystem:
    """Residual/Jacobian of the touch-centered tangency equations, with
    warm-started inner disc solves.  The warm slot holds the last solved
    disc (or None)."""

    def __init__(self, domain1, domain2, z_o, settings):
        self.d1 = domain1
        self.d2 = domain2
        self.z_o = np.asarray(z_o, dtype=complex)
        self.n = domain1.dimension
        self.settings = settings
        self.warm = None
        self.size = 4 * self.n + 1
        self.n_eq = 2 * self.n + 4

    def pack(self, w, d, sigma):
        return np.concatenate([w.real, w.imag, d.real, d.imag, [sigma]])

    def unpack(self, u):
        n = self.n
        w = u[:n] + 1j * u[n:2 * n]
        d = u[2 * n:3 * n] + 1j * u[3 * n:4 * n]
        return w, d, u[4 * n]

    def solve_disc(self, w, d):
        dn = d / np.linalg.norm(d)
        if self.d1.kind == "ball":
            # geodesics of the ball are exact in closed form; looked up at
            # call time so that a wrapper on geodisc.discs.ball_geodesic
            # (the benchmark's discs.ball_geodesic seam) sees these calls
            from .discs import ball_geodesic
            return ball_geodesic(self.d1, w, dn, self.settings)
        self.warm = _solve_cd_raw(self.d1, w, dn, self.settings,
                                  warm=self.warm)
        return self.warm

    def residual(self, u, disc=None):
        w, d, sigma = self.unpack(u)
        if disc is None:
            disc = self.solve_disc(w, d)
        dn = d / np.linalg.norm(d)
        pair = np.sum(self.d2.grad(w) * dn)
        val = disc(np.array([sigma + 0.0j]))[0] - self.z_o
        R = np.concatenate([
            [float(self.d2.rho(w)), pair.real, pair.imag],
            val.real, val.imag,
            [np.linalg.norm(d) ** 2 - 1.0],
        ])
        return R, disc

    def jacobian(self, u, disc):
        """Analytic Jacobian of the residual at u, whose solved disc is
        ``disc``.  The through-point rows differentiate the disc: by the
        ball's closed form, or by the chain rule from the parameter
        tangent of its Gauss-Newton solve; no disc is solved."""
        n = self.n
        w, d, sigma = self.unpack(u)
        dn = d / np.linalg.norm(d)
        s = sigma + 0.0j
        # parameter tangents of the disc center and unit direction for the
        # columns (Re w, Im w, Re d, Im d)
        ew = _coordinate_tangents(n)
        ed = _direction_tangents(d)
        dz = np.concatenate([ew, np.zeros_like(ed)])
        dv = np.concatenate([np.zeros_like(ew), ed])
        if self.d1.kind == "ball":
            dphi = _ball_point_sensitivity(self.d1, w, dn, s,
                                           self.settings.modes, dz, dv)
        else:
            tangent = _parameter_tangent(self.d1, disc, self.settings)
            dphi = _tangent_at(tangent, s, dz, dv)
        grad2 = self.d2.grad(w)
        A2, C2 = self.d2.hess_complex(w)
        dgrad = ew @ A2.T + np.conj(ew) @ C2.T     # (2n, n) along w
        dpair = np.concatenate([dgrad @ dn, ed @ grad2])
        dsigma = disc.derivative(np.array([s]))[0]

        J = np.zeros((self.n_eq, self.size))
        J[0, :2 * n] = 2.0 * np.real(ew @ grad2)
        J[1, :4 * n] = dpair.real
        J[2, :4 * n] = dpair.imag
        J[3:3 + n, :4 * n] = dphi.T.real
        J[3 + n:3 + 2 * n, :4 * n] = dphi.T.imag
        J[3:3 + n, -1] = dsigma.real
        J[3 + n:3 + 2 * n, -1] = dsigma.imag
        J[-1, 2 * n:4 * n] = 2.0 * u[2 * n:4 * n]
        return J

    def correct(self, u, tol=TANGENCY_TOL, max_iters=12):
        """(u, R, disc) with max |R| <= tol.  The system is underdetermined
        (2n + 4 equations, 4n + 1 unknowns), so the step is lstsq's
        minimum-norm one."""
        return _damped_newton(
            u, self.residual,
            lambda u, R, disc: np.linalg.lstsq(self.jacobian(u, disc), -R,
                                               rcond=None)[0],
            lambda R, disc: np.max(np.abs(R)) <= tol, tol, max_iters)

    def make_point(self, u, R, disc) -> TangencyPoint:
        w, d, sigma = self.unpack(u)
        if sigma < 0:
            # flip the direction so the base point sits at positive sigma
            u = self.pack(w, -d, -sigma)
            self.warm = None
            u, R, disc = self.correct(u)
            w, d, sigma = self.unpack(u)
        const = tangency_order_constant(self.d2, disc)
        if const <= 0:
            raise HypothesisViolation(
                "tangency constant is not positive: the inner domain is not "
                "strongly convex with respect to this disc "
                f"(constant {const:.3g})")
        return TangencyPoint(w=w, disc=disc, tangency_constant=const,
                             sigma=float(sigma), base_point=self.z_o,
                             residual=float(np.max(np.abs(R))))


def _tangent_projection(grad, vector):
    """Component of ``vector`` in the complex tangent space
    {v : <grad, v> = 0} (bilinear pairing)."""
    g2 = np.sum(np.abs(grad) ** 2)
    return vector - np.conj(grad) * (np.sum(grad * vector) / g2)


def _initial_state(system, seed_w):
    d2 = system.d2
    z_o = system.z_o
    w0 = d2.boundary_point(np.asarray(seed_w, dtype=complex) - d2.center)
    chord = z_o - w0
    d0 = _tangent_projection(d2.grad(w0), chord)
    if np.linalg.norm(d0) < 1e-10:
        # chord is conormal; take any tangent vector
        g = np.conj(d2.grad(w0))
        basis = np.eye(system.n, dtype=complex)
        k = int(np.argmin(np.abs(g)))
        d0 = _tangent_projection(d2.grad(w0), basis[k])
    d0 = d0 / np.linalg.norm(d0)
    disc = system.solve_disc(w0, d0)
    sigma0, _ = _find_parameter(disc, z_o)
    # rotate d so the through-point parameter is real positive
    phase = np.exp(1j * np.angle(sigma0)) if sigma0 != 0 else 1.0
    return system.pack(w0, d0 * phase, abs(sigma0))


def solve_tangent_disc(domain1: ConvexDomain, domain2: ConvexDomain, z_o,
                       seed_w, settings: SolverSettings | None = None
                       ) -> TangencyPoint:
    """Newton iteration for a single tangency point near ``seed_w``.

    z_o must lie strictly between the domains.  A nonpositive tangency
    constant is reported as a hypothesis violation, distinct from a
    solver failure.
    """
    settings = settings or SolverSettings()
    z_o = np.asarray(z_o, dtype=complex)
    if float(domain2.rho(z_o)) <= 1e-8:
        raise PreconditionError("base point must lie outside the inner domain")
    if float(domain1.rho(z_o)) >= -1e-8:
        raise PreconditionError("base point must lie inside the outer domain")
    system = _TangencySystem(domain1, domain2, z_o, settings)
    u0 = _initial_state(system, seed_w)
    u, R, disc = system.correct(u0)
    return system.make_point(u, R, disc)


def _ranked_seeds(domain2, z_o, samples=256, top=8):
    """Candidate touch points: the radial projection of z_o first (the
    locus collapses onto it as z_o approaches the inner boundary), then
    boundary points ranked by how close the chord to z_o comes to
    complex tangency (the score vanishes on the locus for straight
    geodesics and stays small near it in general)."""
    n = domain2.dimension
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((samples, 2 * n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw[:, 0::2] + 1j * raw[:, 1::2]
    rays = np.concatenate([(z_o - domain2.center)[None, :], dirs])
    hits = domain2.boundary_point(rays)
    radial, pts = hits[0], hits[1:]
    grads = domain2.grad(pts)
    chords = z_o[None, :] - pts
    scores = np.abs(np.sum(grads * chords, axis=1)) \
        / (np.linalg.norm(grads, axis=1) * np.linalg.norm(chords, axis=1))
    order = np.argsort(scores)
    return np.concatenate([radial[None, :], pts[order[:top]]])


def trace_locus(domain1: ConvexDomain, domain2: ConvexDomain, z_o, steps: int,
                settings: SolverSettings | None = None, seed_w=None
                ) -> TangencyLocus:
    """Sample the tangency locus through z_o.

    For n = 2 the locus is a closed curve traced by predictor-corrector
    continuation along the kernel of the residual Jacobian; for n >= 3
    a local patch of ``steps`` corrected samples around a seed point is
    returned (no atlas).
    """
    settings = settings or SolverSettings()
    z_o = np.asarray(z_o, dtype=complex)
    if seed_w is not None:
        first = solve_tangent_disc(domain1, domain2, z_o, seed_w, settings)
    else:
        first = None
        error = None
        for candidate in _ranked_seeds(domain2, z_o):
            try:
                first = solve_tangent_disc(domain1, domain2, z_o, candidate,
                                           settings)
                break
            except (SolverDivergence, PreconditionError) as exc:
                error = exc
        if first is None:
            raise SolverDivergence(
                f"no tangency seed converged ({error})")
    system = _TangencySystem(domain1, domain2, z_o, settings)
    system.warm = first.disc
    n = domain1.dimension
    u = system.pack(first.w, first.disc.base_direction
                    / np.linalg.norm(first.disc.base_direction), first.sigma)
    u, R, disc = system.correct(u)
    first = system.make_point(u, R, disc)

    domain_scale = float(np.linalg.norm(first.w - domain2.center))

    if n >= 3:
        return _sample_patch(system, u, R, disc, steps,
                             2.0 * np.pi * domain_scale / steps)

    def kernel_tangent(u, disc, t_prev):
        J = system.jacobian(u, disc)
        _, _, vt = np.linalg.svd(J)
        t = vt[-1]
        if t_prev is not None and np.dot(t, t_prev) < 0:
            t = -t
        return t / max(np.linalg.norm(t[:2 * n]), 1e-12)

    # probe two small steps to estimate the locus through-circle, so the
    # step size tracks the locus size (which shrinks as z_o approaches
    # the inner boundary) rather than the domain size
    probe = 0.02 * domain_scale
    states = [(u, R, disc)]
    t_prev = None
    for _ in range(2):
        u_c, _, disc_c = states[-1]
        t_prev = kernel_tangent(u_c, disc_c, t_prev)
        states.append(system.correct(u_c + probe * t_prev))
    w3 = [system.unpack(s[0])[0] for s in states]
    radius = _circumradius(w3[0], w3[1], w3[2])
    radius = min(max(radius, probe), 10.0 * domain_scale)
    h = min(2.0 * np.pi * radius / steps, 0.5 * radius)

    points = [first]
    u, R, disc = states[0]
    t_prev = None
    w_start = first.w
    h_min, h_max = h / 16.0, 1.25 * h
    arc = 0.0
    for _ in range(4 * steps):
        t_prev = kernel_tangent(u, disc, t_prev)
        try:
            u_new, R_new, disc_new = system.correct(u + h * t_prev)
        except SolverDivergence:
            h *= 0.5
            if h < h_min:
                raise SolverDivergence(
                    "step-size collapse while tracing the tangency locus")
            continue
        point = system.make_point(u_new, R_new, disc_new)
        arc += float(np.linalg.norm(point.w - points[-1].w))
        points.append(point)
        u, R, disc = u_new, R_new, disc_new
        h = min(1.15 * h, h_max)
        gap = float(np.linalg.norm(point.w - w_start))
        if len(points) >= 5 and arc > 4.0 * radius and gap < h:
            return TangencyLocus(z_o, points, gap)
    raise SolverDivergence("tangency locus did not close while tracing")


def _circumradius(p0, p1, p2) -> float:
    """Radius of the circle through three points of C^n (in their plane)."""
    a = float(np.linalg.norm(p1 - p0))
    b = float(np.linalg.norm(p2 - p1))
    c = float(np.linalg.norm(p2 - p0))
    s = 0.5 * (a + b + c)
    area_sq = max(s * (s - a) * (s - b) * (s - c), 0.0)
    if area_sq <= 0.0:
        return float("inf")
    return a * b * c / (4.0 * np.sqrt(area_sq))


def _sample_patch(system, u, R, disc, steps, h):
    """Local patch of the (2n-3)-dimensional locus around a seed point."""
    rng = np.random.default_rng(11)
    warm = system.warm
    points = [system.make_point(u, R, disc)]
    J = system.jacobian(u, disc)
    _, sv, vt = np.linalg.svd(J)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    kernel = vt[rank:]
    for _ in range(steps):
        combo = rng.standard_normal(kernel.shape[0])
        t = combo @ kernel
        t /= max(np.linalg.norm(t[:2 * system.n]), 1e-12)
        try:
            u_new, R_new, disc_new = system.correct(u + h * t)
            points.append(system.make_point(u_new, R_new, disc_new))
        except SolverDivergence:
            continue
        system.warm = warm
    return TangencyLocus(system.z_o, points, float("nan"))


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
    z = np.asarray(point, dtype=complex)
    grad = rho2_in_psi_coords.grad(z)
    gnorm = float(np.linalg.norm(grad))
    if gnorm < 1e-12:
        raise PreconditionError("normalization failure: vanishing gradient")
    c = float(np.linalg.norm(z))
    if c < 1e-12:
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


def _ball_psi_inverse_fn(domain1, z_o):
    """Closed-form inverse Riemann map of a ball (exact, no solves)."""
    c = domain1.center
    R = domain1.meta["radius"]
    zp = (np.asarray(z_o, dtype=complex) - c) / R
    s2 = 1.0 - float(np.linalg.norm(zp) ** 2)
    s = np.sqrt(s2)
    nz = float(np.linalg.norm(zp))

    def inverse(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        xi = np.linalg.norm(zeta)
        t = zeta / xi
        if nz == 0.0:
            u = -t
        else:
            pt = (_herm(t, zp) / _herm(zp, zp)) * zp
            u_raw = pt / s2 + (t - pt) / s
            u = -u_raw / np.linalg.norm(u_raw)
        wp = _ball_automorphism(zp, xi * u)
        return c + R * wp

    return inverse


def push_domain_through_psi(domain1: ConvexDomain, domain2: ConvexDomain,
                            z_o, settings: SolverSettings | None = None,
                            fd_step: float | None = None) -> ConvexDomain:
    """The inner domain transported by the Riemann map based at z_o:
    rho_tilde = rho2 o Psi^{-1}.

    For a ball outer domain the inverse map is closed-form; otherwise
    every evaluation costs one disc solve.  First and second derivatives
    are finite differences of rho_tilde, adequate for the sign
    certificate."""
    z_o = np.asarray(z_o, dtype=complex)
    n = domain1.dimension
    if domain1.kind == "ball":
        inverse = _ball_psi_inverse_fn(domain1, z_o)
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

    settings = settings or SolverSettings()
    z_o = np.asarray(z_o, dtype=complex)
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
