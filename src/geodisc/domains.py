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

import numbers
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .circle import _count, _powers, ring_values
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
        self._seed_samples = None       # cache of tangency._ranked_seeds

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
        directions of shape (..., n); the result has the same shape.  The
        point p lies within tol * max(1, |p - center|) of the crossing
        along the ray, whatever the length of the direction.  Raises
        PreconditionError unless ``tol`` is a finite number of at least
        machine epsilon, at which adjacent floats end the bisection."""
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


def _ray_bisect(domain, base, direction, tol=1e-12):
    """Parameters t, of shape direction.shape[:-1], with rho(base + t *
    direction) = 0 along each ray of a (..., n) batch of directions.

    Every ray runs the same rule: double t from 1/|direction| until rho >
    0 (at most 80 times), then bisect until s (t_hi - t_lo) <= tol *
    max(1, s t_hi), with s = max(1, |direction|).  Where |direction| >= 1
    the bracket's length along the ray is s (t_hi - t_lo), so the point
    lands within tol * max(1, |p - base|) whatever the length; where
    |direction| <= 1, s = 1 and the rule is the bracket in t, whose
    length along the ray is shorter still.  The rays advance together;
    only the rays that have not met the rule are evaluated, so each keeps
    the bracket it would reach alone."""
    direction = np.asarray(direction, dtype=complex)
    if not np.all(np.isfinite(direction)):
        raise PreconditionError("direction is not finite")
    d = direction.reshape(-1, direction.shape[-1])
    scale = np.linalg.norm(d, axis=-1)
    if np.any(scale == 0):
        raise PreconditionError("zero direction")
    if domain.rho(base) >= 0:
        raise PreconditionError("ray base point is not interior")
    eps = np.finfo(float).eps
    if not (isinstance(tol, numbers.Real) and eps <= tol < np.inf):
        raise PreconditionError(
            f"tol must be finite and >= {eps:g}, not {tol!r}")
    t_lo, t_hi = np.zeros(len(d)), 1.0 / scale
    live = np.arange(len(d))
    for _ in range(80):
        outside = domain.rho(base + t_hi[live, None] * d[live]) > 0
        live = live[~outside]
        if live.size == 0:
            break
        t_lo[live] = t_hi[live]
        t_hi[live] *= 2.0
    else:
        raise PreconditionError("domain appears unbounded along the ray")
    s = np.maximum(1.0, scale)

    def wide(live):
        lo, hi, s_live = t_lo[live], t_hi[live], s[live]
        return (hi - lo) * s_live > tol * np.maximum(1.0, hi * s_live)

    live = np.arange(len(d))
    live = live[wide(live)]
    while live.size:
        mid = 0.5 * (t_lo[live] + t_hi[live])
        out = domain.rho(base + mid[:, None] * d[live]) > 0
        t_hi[live[out]] = mid[out]
        t_lo[live[~out]] = mid[~out]
        live = live[wide(live)]
    return (0.5 * (t_lo + t_hi)).reshape(direction.shape[:-1])


def _quadratic(center, weights, level):
    """(rho, grad, hess) of rho(z) = sum_j w_j |z_j - c_j|^2 - level, with
    weights w_j > 0: grad = conj(z - c) w, A = 0 and C = diag(w)."""
    n = center.shape[0]
    diag = np.diag(weights).astype(complex)

    def rho(z):
        z = np.asarray(z, dtype=complex)
        # np.add.reduce is np.sum without its wrapper, which costs more
        # than the sum itself at one point
        return np.add.reduce(np.abs(z - center) ** 2 * weights, axis=-1) \
            - level

    def grad(z):
        z = np.asarray(z, dtype=complex)
        return np.conj(z - center) * weights

    def hess(z):
        z = np.asarray(z, dtype=complex)
        shape = z.shape[:-1] + (n, n)
        C = np.empty(shape, dtype=complex)
        C[...] = diag
        return np.zeros(shape, dtype=complex), C

    return rho, grad, hess


def make_ball(center, radius: float) -> ConvexDomain:
    """rho(z) = |z - center|^2 - radius^2."""
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    n = center.shape[0]
    if not np.isfinite(center).all():
        raise PreconditionError("center must be finite")
    if not 0 < radius < np.inf:
        raise PreconditionError("radius must be positive and finite")
    return ConvexDomain(n, "ball", *_quadratic(center, np.ones(n), radius ** 2),
                        meta={"center": center, "radius": float(radius)})


def make_ellipsoid(semi_axes) -> ConvexDomain:
    """rho(z) = sum |z_j|^2 / a_j^2 - 1."""
    axes = np.asarray(semi_axes, dtype=float)
    if not np.all((axes > 0) & (axes < np.inf)):
        raise PreconditionError("semi-axes must be positive and finite")
    n = axes.shape[0]
    center = np.zeros(n, dtype=complex)
    return ConvexDomain(n, "ellipsoid",
                        *_quadratic(center, 1.0 / axes ** 2, 1.0),
                        meta={"center": center,
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
        if bump not in NAMED_BUMPS:
            raise PreconditionError(f"unknown bump '{bump}'; NAMED_BUMPS has "
                                    f"{sorted(NAMED_BUMPS)}")
        bump = NAMED_BUMPS[bump]
    n = dimension
    ball_rho, ball_grad, ball_hess = _quadratic(np.zeros(n, dtype=complex),
                                                np.ones(n), 1.0)

    def rho(z):
        return ball_rho(z) + epsilon * bump.value(z)

    def grad(z):
        return ball_grad(z) + epsilon * bump.grad(z)

    def hess(z):
        (A, C), (Ab, Cb) = ball_hess(z), bump.hess(z)
        return A + epsilon * Ab, C + epsilon * Cb

    domain = ConvexDomain(n, "perturbed_ball", rho, grad, hess,
                          meta={"center": np.zeros(n, dtype=complex),
                                "epsilon": float(epsilon), "bump": bump.name})
    try:
        cert = certify(domain, certificate_samples)
    except PreconditionError as exc:
        if "unbounded" not in str(exc):
            raise
        raise PreconditionError(
            f"perturbed ball with epsilon={epsilon} is unbounded: |epsilon| "
            "is too large for a bounded convex domain") from exc
    if not cert.passes:
        raise PreconditionError(
            f"perturbed ball with epsilon={epsilon} fails the convexity "
            f"certificate (min Hessian eigenvalue {cert.min_hessian_eigenvalue:.3g})")
    domain._certificate = cert
    return domain


def _random_directions(rng, count, n):
    """``count`` random unit vectors of C^n, (count, n): standard normal
    vectors of R^{2n} from one ``rng.standard_normal`` call, normalized
    and paired as (x_1 + i y_1, ..., x_n + i y_n)."""
    raw = rng.standard_normal((count, 2 * n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw[:, 0::2] + 1j * raw[:, 1::2]


def certify(domain: ConvexDomain, samples: int, seed: int = 0) -> ConvexityCertificate:
    """Minima of the Hessian eigenvalue and real gradient norm over
    quasi-uniform boundary samples (failing certificate is data)."""
    _count("samples", samples, 100)
    rng = np.random.default_rng(seed)
    pts = domain.boundary_point(
        _random_directions(rng, samples, domain.dimension))
    eigs = np.linalg.eigvalsh(domain.hess_real(pts))
    grad_norms = 2.0 * np.linalg.norm(domain.grad(pts), axis=-1)
    return ConvexityCertificate(
        min_hessian_eigenvalue=float(np.min(eigs)),
        min_gradient_norm=float(np.min(grad_norms)),
        sample_count=samples,
    )


def unit_outward_conormal(domain: ConvexDomain, z) -> np.ndarray:
    """d rho(z) / |d rho(z)| at a boundary point; raises
    PreconditionError for a z that is not a finite vector of the domain's
    dimension (``discs._point``) or not on the boundary."""
    from .discs import _point    # discs imports this module

    z = _point(domain, z, "boundary point")
    if not abs(float(domain.rho(z))) < BOUNDARY_TOL:
        raise PreconditionError("point is not on the boundary")
    g = domain.grad(z)
    return g / np.linalg.norm(g)


def tangency_order_constant(rho2: ConvexDomain, disc, *, radial: int = 16,
                            angular: int = 128, zoom_rounds: int = 8) -> float:
    """min over tau in the closed disc (tau != 0) of rho2(phi(tau)) / |tau|^2.

    A positive value certifies second-order tangency (the disc is
    parametrized with the near-tangency point at tau = 0).  The minimum of
    the quotient q over a coarse polar grid (the ring |tau| = 1e-3 and
    ``radial`` rings up to the rim, ``angular`` angles each, phi on all
    rings from one batched inverse FFT, :func:`circle.ring_values`) is
    refined by Newton steps on q in polar coordinates (r, theta), with the
    gradient and Hessian taken analytically from phi, phi', phi'' and the
    derivatives of rho2, and each 2x2 step and definiteness test in
    closed form.  Where the minimum sits on the rim r = 1 (or on
    the innermost ring) and q decreases outward, the step runs along the
    ring in theta alone.  A step is accepted only when q decreases, so
    the result is never above the coarse minimum; the refinement stops
    at the first rejected step, at a singular or indefinite Hessian, or
    once the decrease the step predicts is at roundoff level.
    ``zoom_rounds`` caps the number of Newton steps (0 returns the coarse
    minimum).  The refined value is invariant under rotations of the
    disc parametrization.  This is the batch of one of
    :func:`_order_constants`, which takes the constants of many discs at
    once.  Raises :class:`PreconditionError` unless ``radial`` and
    ``angular`` are integers >= 1 and ``zoom_rounds`` an integer >= 0.
    """
    _count("radial", radial)
    _count("angular", angular)
    _count("zoom_rounds", zoom_rounds, 0)
    return float(_order_constants(rho2, [disc], radial, angular,
                                  zoom_rounds)[0])


#: discs per coarse grid of :func:`_order_constants`.  The default grid
#: of one disc takes ~0.2 MB of temporaries at n = 2; chunks of 2 ran as
#: fast as chunks of 4 on ball_shell, with half the transient memory
_GRID_CHUNK = 2


@cache
def _polar_grid(radial, angular):
    """(radii, angles) of the order constant's coarse grid: the ring
    |tau| = 1e-3 and ``radial`` rings up to the rim, ``angular`` angles
    each.  Shared between calls, hence read-only."""
    radii = np.concatenate(([1e-3], np.linspace(1.0 / radial, 1.0, radial)))
    angles = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)
    radii.flags.writeable = angles.flags.writeable = False
    return radii, angles


def _order_constants(rho2, discs, radial=16, angular=128, zoom_rounds=8):
    """The :func:`tangency_order_constant` of each of ``discs`` against
    rho2, an array of len(discs), in one pass over all of them.

    The discs' coefficients are stacked along the trailing axes of
    :func:`circle.ring_values` (zero-padded to the longest), and the
    coarse grid is taken _GRID_CHUNK discs at a time, one rho2 evaluation
    per chunk.  The Newton steps then run on all discs together: each
    disc stays live until its own rule stops it, which is the rule of a
    disc refined alone, namely
    - a step that does not decrease q (it is not taken),
    - a Hessian that is singular or not positive definite (along the
      ring: q_thetatheta <= 0),
    - a predicted decrease g^T H^{-1} g / 2 of at most 1e-15 |q|, where
      the step can gain nothing above roundoff,
    - ``zoom_rounds`` steps.
    The jets are contracted by ``einsum``, with no BLAS call, so the
    constants do not depend on the BLAS kernel."""
    radii, angles = _polar_grid(radial, angular)
    count, K = len(discs), max(len(disc.coeffs) for disc in discs)
    coeffs = np.zeros((K, count, rho2.dimension), dtype=complex)
    for i, disc in enumerate(discs):
        coeffs[:len(disc.coeffs), i] = disc.coeffs
    best, r, th = np.empty(count), np.empty(count), np.empty(count)
    for lo in range(0, count, _GRID_CHUNK):
        chunk = slice(lo, lo + _GRID_CHUNK)
        vals = rho2.rho(ring_values(coeffs[:, chunk], angular, radii)) \
            / radii[:, None, None] ** 2
        vals = vals.reshape(-1, vals.shape[-1])
        at = np.argmin(vals, axis=0)
        best[chunk] = vals[at, np.arange(vals.shape[1])]
        r[chunk], th[chunk] = radii[at // angular], angles[at % angular]

    k = np.arange(K)[:, None, None]
    jets = np.zeros((K, 3) + coeffs.shape[1:], dtype=complex)
    jets[:, 0] = coeffs
    jets[:-1, 1] = k[1:] * coeffs[1:]
    jets[:-2, 2] = k[2:] * (k[2:] - 1) * coeffs[2:]
    # (count, K, 3n): one disc's jets are one contiguous block
    jets = jets.transpose(2, 0, 1, 3).reshape(count, K, -1)
    live = np.arange(count)
    _, grad, hess = _order_quotient_jet(rho2, jets, r, th)
    for _ in range(zoom_rounds):
        q_r, q_t = grad
        q_rr, q_rt, q_tt = hess
        # at the rim or the innermost ring with q falling outward: a step
        # along the ring; elsewhere the 2x2 Newton step, with positive
        # definiteness, in closed form
        ring = ((r[live] >= 1.0) & (q_r < 0)) \
            | ((r[live] <= radii[0]) & (q_r > 0))
        det = q_rr * q_tt - q_rt * q_rt
        with np.errstate(divide="ignore", invalid="ignore"):
            dr = np.where(ring, 0.0, (q_rt * q_t - q_tt * q_r) / det)
            dth = np.where(ring, -q_t / q_tt,
                           (q_rt * q_r - q_rr * q_t) / det)
        go = np.where(ring, q_tt > 0, (q_rr > 0) & (det > 0)) \
            & (-0.5 * (q_r * dr + q_t * dth) > 1e-15 * np.abs(best[live]))
        live, dr, dth = live[go], dr[go], dth[go]
        if live.size == 0:
            break
        r_new = np.minimum(np.maximum(r[live] + dr, radii[0]), 1.0)
        th_new = th[live] + dth
        q, grad, hess = _order_quotient_jet(rho2, jets[live], r_new, th_new)
        taken = q < best[live]
        live = live[taken]
        r[live], th[live], best[live] = r_new[taken], th_new[taken], q[taken]
        grad = tuple(g[taken] for g in grad)
        hess = tuple(h[taken] for h in hess)
    return best


def _order_quotient_jet(rho2, jets, r, th):
    """q(r, theta) = rho2(phi(tau)) / r^2 at tau = r e^{i theta}, with its
    gradient (q_r, q_theta) and Hessian (q_rr, q_rtheta, q_thetatheta),
    for a batch of B discs at r and theta of shape (B,), one point per
    disc; q and each entry of the gradient and Hessian have shape (B,).
    ``jets`` (B, K, 3n) stacks each disc's power-series
    coefficients of phi, phi' and phi'' along its columns, so one vector
    of powers of tau (:func:`circle._powers`) reads all three."""
    e = np.exp(1j * th)
    tau = r * e
    vals = np.einsum("kb,bkj->bj", _powers(tau, jets.shape[1]), jets)
    phi, d1, d2 = vals.reshape(len(vals), 3, -1).transpose(1, 0, 2)
    f = rho2.rho(phi)
    g = rho2.grad(phi)
    A, C = rho2.hess_complex(phi)
    # complex derivatives of f(tau) = rho2(phi(tau)): a = df/dtau,
    # b = d^2 f/dtau^2, c = d^2 f/dtau dtau_bar (real)
    a = np.einsum("bi,bi->b", g, d1)
    b = np.einsum("bi,bij,bj->b", d1, A, d1) + np.einsum("bi,bi->b", g, d2)
    c = np.einsum("bi,bij,bj->b", d1, C, np.conj(d1)).real
    # along r, tau moves by e; along theta, by i tau
    f_r = 2.0 * (a * e).real
    f_t = -2.0 * (a * tau).imag
    f_rr = 2.0 * (b * e * e).real + 2.0 * c
    f_rt = -2.0 * ((b * tau + a) * e).imag
    f_tt = -2.0 * (b * tau * tau + a * tau).real + 2.0 * c * r * r
    q = f / r ** 2
    grad = (f_r / r ** 2 - 2.0 * f / r ** 3, f_t / r ** 2)
    q_rr = f_rr / r ** 2 - 4.0 * f_r / r ** 3 + 6.0 * f / r ** 4
    q_rt = f_rt / r ** 2 - 2.0 * f_t / r ** 3
    return q, grad, (q_rr, q_rt, f_tt / r ** 2)
