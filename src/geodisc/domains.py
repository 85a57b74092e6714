"""Defining functions of bounded strongly convex domains.

A domain is given analytically: the defining function rho (negative
inside), its (1,0)-gradient d rho/d z_j, and the complex second
derivative blocks

    A[j,l] = d^2 rho / dz_j dz_l        (symmetric)
    C[j,l] = d^2 rho / dz_j dz_l_bar    (Hermitian),

from which the real 2n x 2n Hessian in interleaved coordinates
(x_1, y_1, ..., x_n, y_n) follows.  All evaluators are vectorized over
a leading batch axis: points have shape (..., n), and so have the
directions of ``boundary_point``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import power_series
from .errors import PreconditionError

BOUNDARY_TOL = 1e-8


@dataclass
class ConvexDomain:
    dimension: int
    kind: str
    rho: callable
    grad: callable
    hess_complex: callable      # pts -> (A, C), shapes (..., n, n)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 2:
            raise PreconditionError("domains need dimension n >= 2")
        self._certificate = None
        self._inscribed_radius = None   # cache of discs._inscribed_ball_radius

    def hess_real(self, pts) -> np.ndarray:
        """Real Hessian in interleaved (x_1, y_1, ..., x_n, y_n) order."""
        A, C = self.hess_complex(pts)
        n = self.dimension
        shape = A.shape[:-2] + (2 * n, 2 * n)
        H = np.zeros(shape)
        H[..., 0::2, 0::2] = 2.0 * (A + C).real
        H[..., 1::2, 1::2] = 2.0 * (C - A).real
        H[..., 0::2, 1::2] = -2.0 * A.imag + 2.0 * C.imag
        H[..., 1::2, 0::2] = -2.0 * A.imag - 2.0 * C.imag
        return H

    @property
    def center(self) -> np.ndarray:
        return np.asarray(self.meta.get("center", np.zeros(self.dimension)),
                          dtype=complex)

    def contains(self, z, margin: float = 0.0) -> bool:
        return bool(self.rho(np.asarray(z, dtype=complex)) < -margin)

    def boundary_point(self, direction, tol: float = 1e-12) -> np.ndarray:
        """Intersection of the ray center + t*direction with rho = 0, for
        directions of shape (..., n); the result has the same shape."""
        direction = np.asarray(direction, dtype=complex)
        t = _ray_bisect(self, self.center, direction, tol)
        return self.center + t[..., None] * direction

    def cached_certificate(self, samples: int = 128, seed: int = 0):
        if self._certificate is None:
            self._certificate = certify(self, samples, seed=seed)
        return self._certificate


@dataclass
class ConvexityCertificate:
    min_hessian_eigenvalue: float
    min_gradient_norm: float
    sample_count: int

    @property
    def passes(self) -> bool:
        return self.min_hessian_eigenvalue > 0.0 and self.min_gradient_norm > 0.0


def _ray_bisect(domain, base, direction, tol=1e-12, max_expand=80):
    """Parameters t, of shape direction.shape[:-1], with rho(base + t *
    direction) = 0 along each ray of a (..., n) batch of directions.

    Every ray runs the same rule: double t from 1/|direction| until rho >
    0, then bisect until its bracket is narrower than tol * max(1, t_hi).
    The rays advance together; only the rays that have not met the rule
    are evaluated, so each keeps the bracket it would reach alone."""
    direction = np.asarray(direction, dtype=complex)
    if not np.all(np.isfinite(direction)):
        raise PreconditionError("direction is not finite")
    d = direction.reshape(-1, direction.shape[-1])
    scale = np.linalg.norm(d, axis=-1)
    if np.any(scale == 0):
        raise PreconditionError("zero direction")
    if domain.rho(base) >= 0:
        raise PreconditionError("ray base point is not interior")
    t_lo, t_hi = np.zeros(len(d)), 1.0 / scale
    live = np.arange(len(d))
    for _ in range(max_expand):
        outside = domain.rho(base + t_hi[live, None] * d[live]) > 0
        live = live[~outside]
        if live.size == 0:
            break
        t_lo[live] = t_hi[live]
        t_hi[live] *= 2.0
    else:
        raise PreconditionError("domain appears unbounded along the ray")
    live = np.flatnonzero(t_hi - t_lo > tol * np.maximum(1.0, t_hi))
    while live.size:
        mid = 0.5 * (t_lo[live] + t_hi[live])
        out = domain.rho(base + mid[:, None] * d[live]) > 0
        t_hi[live[out]] = mid[out]
        t_lo[live[~out]] = mid[~out]
        lo, hi = t_lo[live], t_hi[live]
        live = live[hi - lo > tol * np.maximum(1.0, hi)]
    return (0.5 * (t_lo + t_hi)).reshape(direction.shape[:-1])


def make_ball(center, radius: float) -> ConvexDomain:
    """rho(z) = |z - center|^2 - radius^2."""
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    n = center.shape[0]
    if not np.isfinite(center).all():
        raise PreconditionError("center must be finite")
    if not 0 < radius < np.inf:
        raise PreconditionError("radius must be positive and finite")

    def rho(z):
        z = np.asarray(z, dtype=complex)
        return np.sum(np.abs(z - center) ** 2, axis=-1) - radius ** 2

    def grad(z):
        z = np.asarray(z, dtype=complex)
        return np.conj(z - center)

    def hess(z):
        z = np.asarray(z, dtype=complex)
        shape = z.shape[:-1] + (n, n)
        A = np.zeros(shape, dtype=complex)
        C = np.broadcast_to(np.eye(n, dtype=complex), shape).copy()
        return A, C

    return ConvexDomain(n, "ball", rho, grad, hess,
                        meta={"center": center, "radius": float(radius)})


def make_ellipsoid(semi_axes) -> ConvexDomain:
    """rho(z) = sum |z_j|^2 / a_j^2 - 1."""
    axes = np.asarray(semi_axes, dtype=float)
    if np.any(axes <= 0):
        raise PreconditionError("semi-axes must be positive")
    n = axes.shape[0]
    inv2 = 1.0 / axes ** 2

    def rho(z):
        z = np.asarray(z, dtype=complex)
        return np.sum(np.abs(z) ** 2 * inv2, axis=-1) - 1.0

    def grad(z):
        z = np.asarray(z, dtype=complex)
        return np.conj(z) * inv2

    def hess(z):
        z = np.asarray(z, dtype=complex)
        shape = z.shape[:-1] + (n, n)
        A = np.zeros(shape, dtype=complex)
        C = np.broadcast_to(np.diag(inv2).astype(complex), shape).copy()
        return A, C

    return ConvexDomain(n, "ellipsoid", rho, grad, hess,
                        meta={"center": np.zeros(n, dtype=complex),
                              "semi_axes": [float(a) for a in axes]})


@dataclass
class Bump:
    """Smooth real perturbation with analytic derivatives.

    ``value``: pts -> real, ``grad``: pts -> (..., n) complex (1,0)-part,
    ``hess``: pts -> (A, C) complex blocks.
    """

    value: callable
    grad: callable
    hess: callable
    name: str = "custom"


def _quadratic_bump(name, j, l):
    """Re(z_j * z_l); A has 1/2 (or 1 on the diagonal) at (j,l)."""

    def value(z):
        z = np.asarray(z, dtype=complex)
        return (z[..., j] * z[..., l]).real

    def grad(z):
        z = np.asarray(z, dtype=complex)
        g = np.zeros(z.shape, dtype=complex)
        g[..., j] += 0.5 * z[..., l]
        g[..., l] += 0.5 * z[..., j]
        return g

    def hess(z):
        z = np.asarray(z, dtype=complex)
        n = z.shape[-1]
        shape = z.shape[:-1] + (n, n)
        A = np.zeros(shape, dtype=complex)
        C = np.zeros(shape, dtype=complex)
        A[..., j, l] += 0.5
        A[..., l, j] += 0.5
        return A, C

    return Bump(value, grad, hess, name)


NAMED_BUMPS = {
    "re_z1_sq": _quadratic_bump("re_z1_sq", 0, 0),
    "re_z1z2": _quadratic_bump("re_z1z2", 0, 1),
}


def make_perturbed_ball(epsilon: float, bump: Bump | str = "re_z1_sq",
                        dimension: int = 2,
                        certificate_samples: int = 200) -> ConvexDomain:
    """rho(z) = |z|^2 - 1 + epsilon * bump(z); the convexity certificate
    must pass for the requested epsilon."""
    if isinstance(bump, str):
        bump = NAMED_BUMPS[bump]
    n = dimension

    def rho(z):
        z = np.asarray(z, dtype=complex)
        return np.sum(np.abs(z) ** 2, axis=-1) - 1.0 + epsilon * bump.value(z)

    def grad(z):
        z = np.asarray(z, dtype=complex)
        return np.conj(z) + epsilon * bump.grad(z)

    def hess(z):
        z = np.asarray(z, dtype=complex)
        shape = z.shape[:-1] + (n, n)
        Ab, Cb = bump.hess(z)
        A = epsilon * Ab
        C = np.broadcast_to(np.eye(n, dtype=complex), shape) + epsilon * Cb
        return A, C

    domain = ConvexDomain(n, "perturbed_ball", rho, grad, hess,
                          meta={"center": np.zeros(n, dtype=complex),
                                "epsilon": float(epsilon), "bump": bump.name})
    cert = certify(domain, certificate_samples)
    if not cert.passes:
        raise PreconditionError(
            f"perturbed ball with epsilon={epsilon} fails the convexity "
            f"certificate (min Hessian eigenvalue {cert.min_hessian_eigenvalue:.3g})")
    domain._certificate = cert
    return domain


def certify(domain: ConvexDomain, samples: int, seed: int = 0) -> ConvexityCertificate:
    """Minima of the Hessian eigenvalue and real gradient norm over
    quasi-uniform boundary samples (failing certificate is data)."""
    if samples < 100:
        raise PreconditionError("certify requires at least 100 samples")
    n = domain.dimension
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, 2 * n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw[:, 0::2] + 1j * raw[:, 1::2]
    pts = domain.boundary_point(dirs)
    eigs = np.linalg.eigvalsh(domain.hess_real(pts))
    grad_norms = 2.0 * np.linalg.norm(domain.grad(pts), axis=-1)
    return ConvexityCertificate(
        min_hessian_eigenvalue=float(np.min(eigs)),
        min_gradient_norm=float(np.min(grad_norms)),
        sample_count=samples,
    )


def unit_outward_conormal(domain: ConvexDomain, z) -> np.ndarray:
    """d rho(z) / |d rho(z)| at a boundary point."""
    z = np.asarray(z, dtype=complex)
    if abs(float(domain.rho(z))) >= BOUNDARY_TOL:
        raise PreconditionError("point is not on the boundary")
    g = domain.grad(z)
    return g / np.linalg.norm(g)


def tangency_order_constant(rho2: ConvexDomain, disc, *, radial: int = 16,
                            angular: int = 128, zoom_rounds: int = 8) -> float:
    """min over tau in the closed disc (tau != 0) of rho2(phi(tau)) / |tau|^2.

    A positive value certifies second-order tangency (the disc is
    parametrized with the near-tangency point at tau = 0).  The minimum of
    the quotient q over a coarse polar grid (the ring |tau| = 1e-3 and
    ``radial`` rings up to the rim, ``angular`` angles each) is refined
    by Newton steps on q in polar coordinates (r, theta), with the
    gradient and Hessian taken analytically from phi, phi', phi'' and the
    derivatives of rho2.  Where the minimum sits on the rim r = 1 (or on
    the innermost ring) and q decreases outward, the step runs along the
    ring in theta alone.  A step is accepted only when q decreases, so
    the result is never above the coarse minimum; the refinement stops
    at the first rejected step or at a singular or indefinite Hessian.
    ``zoom_rounds`` caps the number of Newton steps (0 returns the coarse
    minimum).  The refined value is invariant under rotations of the
    disc parametrization.
    """
    radii = np.concatenate(([1e-3], np.linspace(1.0 / radial, 1.0, radial)))
    angles = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)

    R, TH = np.meshgrid(radii, angles, indexing="ij")
    vals = rho2.rho(disc(R * np.exp(1j * TH))) / R ** 2
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    r, th = radii[idx[0]], angles[idx[1]]
    best = float(vals[idx])

    a = disc.coeffs
    k = np.arange(len(a))[:, None]
    jets = np.zeros((len(a), 3, a.shape[1]), dtype=complex)
    jets[:, 0] = a
    jets[:-1, 1] = k[1:] * a[1:]
    jets[:-2, 2] = k[2:] * (k[2:] - 1) * a[2:]
    _, grad, hess = _order_quotient_jet(rho2, jets, r, th)
    for _ in range(zoom_rounds):
        # at the rim or the innermost ring with q falling outward: step
        # along the ring
        if (r >= 1.0 and grad[0] < 0) or (r <= radii[0] and grad[0] > 0):
            if not hess[1, 1] > 0:
                break
            r_new, th_new = r, th - grad[1] / hess[1, 1]
        else:
            if not (hess[0, 0] > 0 and np.linalg.det(hess) > 0):
                break
            dr, dth = np.linalg.solve(hess, -grad)
            r_new, th_new = min(max(r + dr, radii[0]), 1.0), th + dth
        q, grad, hess = _order_quotient_jet(rho2, jets, r_new, th_new)
        if not q < best:
            break
        r, th, best = r_new, th_new, q
    return best


def _order_quotient_jet(rho2, jets, r, th):
    """q(r, theta) = rho2(phi(tau)) / r^2 at tau = r e^{i theta}, with its
    gradient and Hessian in (r, theta).  ``jets`` stacks the power-series
    coefficients of phi, phi' and phi'' along axis 1."""
    e = np.exp(1j * th)
    tau = r * e
    phi, d1, d2 = power_series(jets, tau)
    f = float(rho2.rho(phi))
    g = rho2.grad(phi)
    A, C = rho2.hess_complex(phi)
    # complex derivatives of f(tau) = rho2(phi(tau)): a = df/dtau,
    # b = d^2 f/dtau^2, c = d^2 f/dtau dtau_bar (real)
    a = g @ d1
    b = d1 @ A @ d1 + g @ d2
    c = float((d1 @ C @ np.conj(d1)).real)
    # along r, tau moves by e; along theta, by i tau
    f_r = 2.0 * (a * e).real
    f_t = -2.0 * (a * tau).imag
    f_rr = 2.0 * (b * e * e).real + 2.0 * c
    f_rt = -2.0 * ((b * tau + a) * e).imag
    f_tt = -2.0 * (b * tau * tau + a * tau).real + 2.0 * c * r * r
    q = f / r ** 2
    grad = np.array([f_r / r ** 2 - 2.0 * f / r ** 3, f_t / r ** 2])
    q_rr = f_rr / r ** 2 - 4.0 * f_r / r ** 3 + 6.0 * f / r ** 4
    q_rt = f_rt / r ** 2 - 2.0 * f_t / r ** 3
    hess = np.array([[q_rr, q_rt], [q_rt, f_tt / r ** 2]])
    return q, grad, hess
