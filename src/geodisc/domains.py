"""Defining functions of bounded strongly convex domains.

A domain is given analytically: the defining function rho (negative
inside), its (1,0)-gradient d rho/d z_j, and the complex second
derivative blocks

    A[j,l] = d^2 rho / dz_j dz_l        (symmetric)
    C[j,l] = d^2 rho / dz_j dz_l_bar    (Hermitian),

from which the real 2n x 2n Hessian in interleaved coordinates
(x_1, y_1, ..., x_n, y_n) follows.  All evaluators are vectorized over
a leading batch axis: points have shape (..., n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    smoothness: int | None = None   # boundary smoothness class, metadata only

    def __post_init__(self):
        if self.dimension < 2:
            raise PreconditionError("domains need dimension n >= 2")
        self._certificate = None
        self._inscribed_radius = None   # cache of discs._inscribed_ball_radius

    def hess(self, pts) -> np.ndarray:
        """Real Hessian (alias of :meth:`hess_real`)."""
        return self.hess_real(pts)

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
        """Intersection of the ray center + t*direction with rho = 0."""
        return self.center + _ray_bisect(self, self.center, direction, tol) \
            * np.asarray(direction, dtype=complex)

    def cached_certificate(self, samples: int = 128, seed: int = 0):
        if self._certificate is None:
            self._certificate = certify(self, samples, seed=seed)
        return self._certificate

    def spec(self) -> dict:
        """JSON-serializable description (see the CLI schema)."""
        out = {"kind": self.kind, "dimension": self.dimension}
        for key, val in self.meta.items():
            if isinstance(val, np.ndarray):
                out[key] = [[float(v.real), float(v.imag)] for v in val]
            else:
                out[key] = val
        return out


@dataclass
class ConvexityCertificate:
    min_hessian_eigenvalue: float
    min_gradient_norm: float
    sample_count: int

    @property
    def passes(self) -> bool:
        return self.min_hessian_eigenvalue > 0.0 and self.min_gradient_norm > 0.0


def _ray_bisect(domain, base, direction, tol=1e-12, max_expand=80):
    direction = np.asarray(direction, dtype=complex)
    scale = np.linalg.norm(direction)
    if scale == 0:
        raise PreconditionError("zero direction")
    if domain.rho(base) >= 0:
        raise PreconditionError("ray base point is not interior")
    t_lo, t_hi = 0.0, 1.0 / scale
    for _ in range(max_expand):
        if domain.rho(base + t_hi * direction) > 0:
            break
        t_lo, t_hi = t_hi, 2.0 * t_hi
    else:
        raise PreconditionError("domain appears unbounded along the ray")
    while t_hi - t_lo > tol * max(1.0, t_hi):
        mid = 0.5 * (t_lo + t_hi)
        if domain.rho(base + mid * direction) > 0:
            t_hi = mid
        else:
            t_lo = mid
    return 0.5 * (t_lo + t_hi)


def make_ball(center, radius: float) -> ConvexDomain:
    """rho(z) = |z - center|^2 - radius^2."""
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    n = center.shape[0]
    if radius <= 0:
        raise PreconditionError("radius must be positive")

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
    pts = np.array([domain.boundary_point(d) for d in dirs])
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
    """min over sampled tau in the closed disc (tau != 0) of
    rho2(phi(tau)) / |tau|^2.

    A positive value certifies second-order tangency at the sampled
    resolution (the disc is parametrized with the near-tangency point at
    tau = 0).  The coarse polar minimum is refined by repeated local
    grid zooming so the value is invariant under rotations of the disc
    parametrization.
    """
    radii = np.concatenate(([1e-3], np.linspace(1.0 / radial, 1.0, radial)))
    angles = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)

    def ratio(r, th):
        tau = r[..., None] * np.exp(1j * th[None, :]) if r.ndim == 1 else \
            r * np.exp(1j * th)
        vals = rho2.rho(disc(tau))
        return vals / np.abs(tau) ** 2

    R, TH = np.meshgrid(radii, angles, indexing="ij")
    vals = rho2.rho(disc(R * np.exp(1j * TH))) / R ** 2
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    r0, th0 = radii[idx[0]], angles[idx[1]]
    dr = radii[1] if idx[0] == 0 else radii[-1] - radii[-2]
    dth = angles[1] - angles[0]
    best = float(vals[idx])
    for _ in range(zoom_rounds):
        rr = np.clip(np.linspace(r0 - dr, r0 + dr, 9), 1e-3, 1.0)
        tt = np.linspace(th0 - dth, th0 + dth, 9)
        R, TH = np.meshgrid(rr, tt, indexing="ij")
        local = rho2.rho(disc(R * np.exp(1j * TH))) / R ** 2
        li = np.unravel_index(np.argmin(local), local.shape)
        r0, th0, best = rr[li[0]], tt[li[1]], float(local[li])
        dr /= 4.0
        dth /= 4.0
    return best
