"""Stationary (extremal) discs attached to the boundary of a strongly
convex domain.

A disc is the truncated power series phi(tau) = sum_{k=0}^M a_k tau^k
with a_k in C^n, attached when phi(e^{i theta}) lies on the boundary.
Stationarity is encoded spectrally: there is a real boundary factor g
such that tau * g(tau) * drho(phi(tau)) extends holomorphically through
the disc.

The solver treats the Fourier coefficients of phi (degrees 2..M), the
scale r > 0 of phi'(0) = r*v, and a real trigonometric polynomial g as
unknowns, and drives the following residuals to zero by a damped
Gauss-Newton iteration with a least-squares step:

  (i)   Fourier modes 0..L of rho(phi(e^{i theta}))        (attachment),
  (ii)  Fourier modes -1..-L of g * e^{i theta} * drho(phi) (lift
        holomorphy), componentwise,
  (iii) g(1) - 1                                            (gauge).

phi(0) = z and phi'(0) = r*v are enforced exactly through the
parametrization.  Residuals are collocated on a grid oversampled 2x
against the coefficient truncation to keep products alias-free.  A
cold solve starts from the closed-form state, coefficients and g, of
the domain itself when it is a ball, else of an inscribed ball, and runs
Gauss-Newton on the domain; no Gauss-Newton runs on the ball.  Only when
that diverges on a non-ball domain is the homotopy from the ball to the
domain subdivided into blended domains, halving the step on each
failure.  An attempt that stagnates with its residual norm already below
newton_tol has reached the resolution floor of M; that failure is raised
at once.

The disc solve, the tangency corrector and the two-point solve share one
damped Newton driver, :func:`_damped_newton`, with one policy: check
convergence before every step and once after the last; give up as
stagnated once the residual norm is not below half its value five
iterations earlier; accept a trial u + t du when
|F_new| <= (1 - 1e-4 t)|F| + tol; halve t from 1 down to 1/32; count a
trial whose residual raises PreconditionError or SolverDivergence as
rejected.  Each caller keeps its own step: normal equations here,
lstsq's minimum-norm step for the underdetermined tangency system, a
square solve for the two-point system.

A warm solve starts from a solved disc, moved to first order along that
disc's parameter tangent: coeffs + tangent dp, gamma + tangent dp.  The
disc it returns carries its own parameter tangent, the derivative of the
coefficients and of g along the 4n real perturbations of z and v, from
the implicit-function theorem.  Each step solves for it as 4n more
right-hand sides of the factorization it makes anyway, so the tangent of
the last step lags the converged state by that step.  The tangency and
two-point systems take their sensitivities from it by the chain rule.
Cold solves solve no extra right-hand sides and return no tangent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .circle import CircleGrid, TrigSeries, analyze, power_series, synthesize
from .domains import ConvexDomain, make_ball
from .errors import PreconditionError, SolverDivergence

INTERIOR_MARGIN = 1e-8


@dataclass
class MoebiusMap:
    """tau -> rotation * (tau + a) / (1 + conj(a) tau), an automorphism
    of the unit disc."""

    a: complex = 0.0
    rotation: complex = 1.0

    def __post_init__(self):
        self.a = complex(self.a)
        self.rotation = complex(self.rotation)
        if abs(self.a) >= 1.0:
            raise PreconditionError("Moebius parameter needs |a| < 1")
        if abs(abs(self.rotation) - 1.0) > 1e-12:
            raise PreconditionError("rotation must be unimodular")

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=complex)
        return self.rotation * (tau + self.a) / (1.0 + np.conj(self.a) * tau)

    def inverse(self) -> "MoebiusMap":
        # solving w = rot (tau + a) / (1 + conj(a) tau) for tau, with
        # 1/rot = conj(rot): tau = conj(rot) (w - a rot) / (1 - conj(a rot) w),
        # the map with parameter a' = -a rot and rotation conj(rot)
        return MoebiusMap(a=-self.a * self.rotation,
                          rotation=np.conj(self.rotation))


@dataclass
class AnalyticDisc:
    """Truncated power series of a holomorphic map of the closed unit
    disc into C^n, attached to the boundary of ``domain``.

    A disc returned by a Gauss-Newton solve or by :func:`ball_geodesic`
    carries the solver's state: its boundary factor ``solver_g`` and,
    after a warm solve that took a step, its parameter ``tangent`` (d
    coeffs, d gamma) of shapes (4n, M+1, n) and (4n, 1 + 2M) (see the
    module docstring)."""

    coeffs: np.ndarray            # (M+1, n) complex
    grid: CircleGrid
    domain: ConvexDomain | None = None
    attachment_residual: float | None = None
    solver_g: np.ndarray | None = None    # boundary factor of the solved state
    tangent: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2:
            raise PreconditionError("disc coefficients must have shape (M+1, n)")

    @property
    def modes(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.coeffs.shape[1]

    @property
    def base_point(self) -> np.ndarray:
        return self.coeffs[0]

    @property
    def base_direction(self) -> np.ndarray:
        return self.coeffs[1]

    def __call__(self, tau):
        return power_series(self.coeffs, tau)

    def derivative(self, tau):
        k = np.arange(1, self.modes + 1)
        return power_series(self.coeffs[1:] * k[:, None], tau)

    def boundary_values(self, grid: CircleGrid | None = None) -> np.ndarray:
        """phi at the grid nodes, exact for any number of modes: the
        coefficients folded mod N into a series on the grid, synthesized
        by one inverse FFT."""
        grid = grid or self.grid
        N, (K, n) = grid.size, self.coeffs.shape
        # a_k lands at centered index (k + N/2) mod N
        folded = np.concatenate([np.zeros((N // 2, n)), self.coeffs,
                                 np.zeros((-(N // 2 + K) % N, n))])
        folded = folded.reshape(-1, N, n).sum(axis=0)
        return synthesize(TrigSeries(grid, folded))

    def boundary_residual(self, domain: ConvexDomain | None = None) -> float:
        domain = domain or self.domain
        if domain is None:
            raise PreconditionError("disc has no attached domain")
        return float(np.max(np.abs(domain.rho(self.boundary_values()))))

    def injectivity_gap(self) -> float:
        """min over distinct grid nodes of |phi(tau_j) - phi(tau_l)|: the
        least exact distance from each node to its nearest other node."""
        b = self.boundary_values()
        d2 = _shifted_sq_distances(b, b)
        np.fill_diagonal(d2, np.inf)
        nearest = b[np.argmin(d2, axis=1)]
        return float(np.min(np.linalg.norm(b - nearest, axis=1)))

    def to_json(self) -> dict:
        return {
            "coeffs": [[[float(z.real), float(z.imag)] for z in row]
                       for row in self.coeffs],
            "grid": self.grid.size,
            "base_point": [[float(z.real), float(z.imag)] for z in self.base_point],
            "residual": self.attachment_residual,
        }

    @classmethod
    def from_json(cls, data: dict, domain: ConvexDomain | None = None):
        coeffs = np.array([[complex(re, im) for re, im in row]
                           for row in data["coeffs"]])
        return cls(coeffs, CircleGrid(int(data["grid"])), domain,
                   attachment_residual=data.get("residual"))


@dataclass
class SolverSettings:
    """Resolution and tolerances of the Gauss-Newton disc solver.

    ``continuation_steps`` sets the largest step 1/continuation_steps of
    the homotopy from the inscribed ball to a non-ball domain; the default
    1 tries the domain directly, and a step is halved only when Newton
    diverges on it."""

    modes: int = 64
    grid: CircleGrid = field(default_factory=lambda: CircleGrid(256))
    newton_tol: float = 1e-10
    max_iters: int = 40
    continuation_steps: int = 1

    def __post_init__(self):
        if self.modes < 1:
            raise PreconditionError("modes must be >= 1")
        if self.continuation_steps < 1:
            raise PreconditionError("continuation_steps must be >= 1")
        if self.newton_tol < 1e-12:
            raise PreconditionError("newton_tol must be >= 1e-12")
        if self.modes > self.grid.size // 4:
            raise PreconditionError(
                "modes must be <= grid.size/4 for dealiasing headroom")

    def scaled(self, *, grid_size=None, modes=None) -> "SolverSettings":
        return SolverSettings(
            modes=modes if modes is not None else self.modes,
            grid=CircleGrid(grid_size) if grid_size is not None else self.grid,
            newton_tol=self.newton_tol, max_iters=self.max_iters,
            continuation_steps=self.continuation_steps)


# ---------------------------------------------------------------------------
# closed-form geodesics of the ball


def _herm(a, b):
    """Hermitian pairing sum a_j conj(b_j)."""
    return np.sum(a * np.conj(b))


def _complete_unitary(cols):
    """Unitary (n, n) matrix whose first columns are the orthonormal
    ``cols`` in C^n, completed by Gram-Schmidt on the standard basis."""
    cols = list(cols)
    n = len(cols[0])
    basis = np.eye(n, dtype=complex)
    for k in range(n):
        w = basis[:, k]
        for col in cols:
            w = w - _herm(w, col) * col
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            cols.append(w / norm)
        if len(cols) == n:
            break
    return np.column_stack(cols)


def ball_geodesic(domain: ConvexDomain, center_z, direction_v,
                  settings: SolverSettings | None = None) -> AnalyticDisc:
    """The extremal disc of a ball through ``center_z`` with
    phi'(0) a positive multiple of ``direction_v``, in closed form.

    The image is the affine complex line through the point cut by the
    ball; the power-series coefficients are geometric, a_k = mu^{k-1} a_1
    (see :func:`_ball_series`), and the boundary factor is
    g = |1 - mu tau|^2 / |1 - mu|^2 on |tau| = 1 (Lempert, Bull. SMF 109,
    1981): ``solver_g`` is gamma = (1 + |mu|^2, -2 Re mu, 2 Im mu, 0, ...)
    / |1 - mu|^2.  Up to the truncation |mu|^M this is the solved state
    of the Gauss-Newton system; a cold solve starts from it, and runs no
    Gauss-Newton on the ball.
    """
    if domain.kind != "ball":
        raise PreconditionError("ball_geodesic needs a ball domain")
    settings = settings or SolverSettings()
    z, v = _point_and_direction(domain, center_z, direction_v)
    c = domain.center
    R = domain.meta["radius"]
    z = (z - c) / R
    if np.linalg.norm(z) >= 1.0:
        raise PreconditionError("center point is not inside the ball")
    a1, mu = _ball_series(z, v)
    M = settings.modes
    a = np.zeros((M + 1, len(z)), dtype=complex)
    a[0] = z
    powers = mu ** np.arange(M)
    a[1:] = powers[:, None] * a1[None, :]
    a = a * R
    a[0] += c
    gamma = np.zeros(1 + 2 * M)
    gamma[:3] = (1.0 + abs(mu) ** 2, -2.0 * mu.real, 2.0 * mu.imag)
    gamma /= abs(1.0 - mu) ** 2
    disc = AnalyticDisc(a, settings.grid, domain, solver_g=gamma)
    disc.attachment_residual = disc.boundary_residual()
    return disc


def _point_and_direction(domain, z, v):
    """(z, v/|v|) as complex vectors in C^n of the domain; raises
    PreconditionError for a wrong shape, a non-finite entry or v = 0."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = domain.dimension
    if z.shape != (n,) or v.shape != (n,):
        raise PreconditionError(
            f"base point and direction must have shape ({n},), not "
            f"{z.shape} and {v.shape}")
    if not np.isfinite(z).all():
        raise PreconditionError("base point must be finite")
    nv = np.linalg.norm(v)
    if not 0 < nv < np.inf:
        raise PreconditionError("direction must be nonzero and finite")
    return z, v / nv


def _ball_series(z, v):
    """(a_1, mu) of the unit-ball geodesic phi(tau) = z + a_1 tau/(1 - mu tau)
    through z with unit direction v.

    The line z + t v meets the ball in the disc |t + conj(b)| < rho with
    b = <v, z> and rho^2 = 1 - |z|^2 + |b|^2; the Moebius map of the unit
    disc onto it with t(0) = 0, t'(0) > 0 gives a_1 = (1 - |z|^2)/rho v
    and mu = -b/rho.
    """
    b = _herm(v, z)
    nz2 = float(np.real(_herm(z, z)))
    rho = np.sqrt(1.0 - nz2 + abs(b) ** 2)
    return (1.0 - nz2) / rho * v, -b / rho


def _ball_point_sensitivity(domain, z, v, s, modes, dz, dv):
    """Derivative of phi(s) for the ball geodesic of :func:`ball_geodesic`
    (truncated at ``modes``) along P perturbations: ``dz`` (P, n) of the
    center and ``dv`` (P, n) of the unit direction; returns (P, n).

    Differentiates phi(s) = c + R (z' + a_1 sum_{k=1..M} mu^{k-1} s^k) in
    the normalized coordinates z' = (z - c)/R, an O(n M) map."""
    c = domain.center
    R = domain.meta["radius"]
    zp = (np.asarray(z, dtype=complex) - c) / R
    dzp = dz / R
    b = _herm(v, zp)
    nz2 = float(np.real(_herm(zp, zp)))
    rho = np.sqrt(1.0 - nz2 + abs(b) ** 2)
    scale = (1.0 - nz2) / rho                      # a_1 = scale * v
    mu = -b / rho
    db = dv @ np.conj(zp) + np.conj(dzp) @ v       # (P,)
    dnz2 = 2.0 * np.real(np.conj(dzp) @ zp)
    drho = (np.real(np.conj(b) * db) - 0.5 * dnz2) / rho
    dscale = -(dnz2 + scale * drho) / rho
    dmu = -(db + mu * drho) / rho
    k = np.arange(1, modes + 1)
    series = np.sum(mu ** (k - 1) * s ** k)
    j = k[:-1]
    dseries = np.sum(j * mu ** (j - 1) * s ** (j + 1))   # d series / d mu
    da1 = dscale[:, None] * v + scale * dv
    return dz + R * (da1 * series
                     + (scale * dseries * dmu)[:, None] * v[None, :])


def _ball_two_point_data(domain: ConvexDomain, z, w):
    """(direction v, xi) of the ball geodesic through z and w."""
    c = domain.center
    R = domain.meta["radius"]
    zp = (np.asarray(z, dtype=complex) - c) / R
    wp = (np.asarray(w, dtype=complex) - c) / R
    if max(np.linalg.norm(zp), np.linalg.norm(wp)) >= 1.0:
        raise PreconditionError("points are not inside the ball")
    m = _ball_automorphism(zp, wp)
    xi = np.linalg.norm(m)
    u = m / xi
    s2 = 1.0 - np.linalg.norm(zp) ** 2
    s = np.sqrt(s2)
    if np.linalg.norm(zp) == 0.0:
        d = -u
    else:
        pu = (_herm(u, zp) / _herm(zp, zp)) * zp
        d = -(s2 * pu + s * (u - pu))
    return d / np.linalg.norm(d), float(xi)


def _ball_automorphism(a, w):
    """The involutive automorphism of the unit ball exchanging 0 and a,
    evaluated at w."""
    na2 = np.linalg.norm(a) ** 2
    if na2 == 0.0:
        return -w
    s = np.sqrt(1.0 - na2)
    pw = (_herm(w, a) / na2) * a
    return (a - pw - s * (w - pw)) / (1.0 - _herm(w, a))


# ---------------------------------------------------------------------------
# the spectral Gauss-Newton system


@cache
def _collocation(modes, grid_size):
    """(tau, V, cos_mat, sin_mat) on the 2x oversampled residual grid:
    the nodes, the powers tau^0..tau^M and cos/sin(m theta), m = 1..M.
    Shared between systems, hence read-only."""
    nn = 2 * grid_size
    theta = 2.0 * np.pi * np.arange(nn) / nn
    tau = np.exp(1j * theta)
    V = tau[:, None] ** np.arange(modes + 1)[None, :]
    m = np.arange(1, modes + 1)
    arrays = (tau, V, np.cos(np.outer(theta, m)), np.sin(np.outer(theta, m)))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@cache
def _shift_indices(modes, grid_size):
    """Gather indices (mod nn) into the spectra of the 2x oversampled grid,
    for column shifts k = 0..M: attachment modes m = 0..L as (m - k,
    -m - k), lift modes m = -1..-L as (m - k, m + k); each (rows, M + 1).
    Shared between systems, hence read-only."""
    nn, L = 2 * grid_size, grid_size // 2
    k = np.arange(modes + 1)
    att = np.arange(L + 1)[:, None]
    lift = -np.arange(1, L + 1)[:, None]
    arrays = ((att - k) % nn, (-att - k) % nn, (lift - k) % nn, (lift + k) % nn)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class _CenterDirectionSystem:
    """Residual and Jacobian of the stationary-disc equations for fixed
    (domain, z, v) on an oversampled collocation grid."""

    def __init__(self, domain, z, v, settings):
        self.domain = domain
        self.z = np.asarray(z, dtype=complex)
        self.v = np.asarray(v, dtype=complex)
        self.n = len(self.z)
        self.M = settings.modes
        self.K = settings.modes
        N = settings.grid.size
        self.L = N // 2
        self.nn = 2 * N                          # residual grid
        self.tau, self.V, self.cos_mat, self.sin_mat = _collocation(self.M, N)
        self.n_a = 2 * self.n * (self.M - 1)
        self.n_g = 1 + 2 * self.K
        self.size = 1 + self.n_a + self.n_g

    # -- packing ------------------------------------------------------

    def pack(self, r, a_tail, gamma):
        u = np.empty(self.size)
        u[0] = r
        u[1:1 + self.n_a:2] = a_tail.real.ravel()
        u[2:1 + self.n_a:2] = a_tail.imag.ravel()
        u[1 + self.n_a:] = gamma
        return u

    def unpack(self, u):
        r = u[0]
        re = u[1:1 + self.n_a:2].reshape(self.M - 1, self.n)
        im = u[2:1 + self.n_a:2].reshape(self.M - 1, self.n)
        gamma = u[1 + self.n_a:]
        return r, re + 1j * im, gamma

    def disc_coeffs(self, u):
        r, a_tail, _ = self.unpack(u)
        a = np.zeros((self.M + 1, self.n), dtype=complex)
        a[0] = self.z
        a[1] = r * self.v
        a[2:] = a_tail
        return a

    def initial_state(self, coeffs, gamma=None):
        """Pack a starting point from disc coefficients of any length."""
        a = np.zeros((self.M + 1, self.n), dtype=complex)
        k = min(len(coeffs), self.M + 1)
        a[:k] = coeffs[:k]
        r = float(np.real(_herm(a[1], self.v)))
        r = max(r, 1e-6)
        if gamma is None:
            gamma = np.zeros(self.n_g)
            gamma[0] = 1.0
        return self.pack(r, a[2:], gamma)

    # -- evaluation ----------------------------------------------------

    def _fields(self, u):
        a = self.disc_coeffs(u)
        phi = self.V @ a
        gamma = u[1 + self.n_a:]
        g = gamma[0] + self.cos_mat @ gamma[1::2] + self.sin_mat @ gamma[2::2]
        return a, phi, g

    def residual(self, u):
        _, phi, g = self._fields(u)
        rho_vals = np.real(self.domain.rho(phi))
        grads = self.domain.grad(phi)
        w = (g * self.tau)[:, None] * grads
        rho_hat = np.fft.fft(rho_vals) / self.nn
        w_hat = np.fft.fft(w, axis=0) / self.nn
        L = self.L
        neg = w_hat[self.nn - 1:self.nn - 1 - L:-1, :]     # k = -1 .. -L
        F = np.concatenate([
            [rho_hat[0].real],
            _interleave(rho_hat[1:L + 1]),
            _interleave(neg.T.reshape(-1)),
            [g[0] - 1.0],
        ])
        diag = {
            "attachment": float(np.max(np.abs(rho_vals))),
            "neg_modes": float(np.max(np.abs(neg))) if neg.size else 0.0,
            "gauge": abs(g[0] - 1.0),
            "min_g": float(np.min(g)),
        }
        return F, diag

    def _linearization(self, u):
        """Boundary factor times tau, gradient and Hessian blocks of rho
        along the disc at state u."""
        _, phi, g = self._fields(u)
        A, C = self.domain.hess_complex(phi)
        return g * self.tau, self.domain.grad(phi), A, C

    def jacobian(self, u):
        """(J, F_p): d residual / d u, and d residual / d p along the 4n
        real parameter perturbations p = (Re z, Im z, Re v, Im v), both
        gathered from the spectra of four fields.

        On the nn-point residual grid multiplication by tau^k is an exact
        discrete shift: with ``norm="forward"`` and indices mod nn,
        fft(f tau^k)[m] = fft(f)[m - k], and conj(tau)^k shifts by +k.
        Each column perturbs phi by e_c tau^k or i e_c tau^k, or g by a
        trigonometric monomial, so its spectrum is a shifted copy of one
        of F = fft(grad rho), GA = fft(g tau A), GC = fft(g tau C) and
        T = fft(tau grad rho) instead of a transform of its own:

          attachment mode m, column (k, c):
              re  F_c[m-k] + conj(F_c[-m-k]),  im  i (F_c[m-k] - conj(F_c[-m-k]))
          lift mode (c, m), column (k, c'):
              re  GA_cc'[m-k] + GC_cc'[m+k],   im  i (GA_cc'[m-k] - GC_cc'[m+k])
          lift mode (c, m), g columns:  from T, see :func:`_g_columns`

        Each spectrum is weighted once by its (re, im) column pair, so
        every block is one gather-add.  The r column (delta phi = v tau)
        is the k = 1 columns contracted with v.  At fixed u a parameter
        perturbation moves phi by delta phi = dz + r tau dv, so the F_p
        columns are the k = 0 columns and r times the k = 1 columns.
        """
        gt, grads, A, C = self._linearization(u)
        nn, n, L, n_a = self.nn, self.n, self.L, self.n_a
        att_p, att_q, lift_p, lift_q = _shift_indices(self.M, nn // 2)
        pair = np.array([1.0, 1j])

        # complex residual modes: attachment m = 0..L, lift (c, m = -1..-L)
        H = np.empty((1 + (n + 1) * L, self.size), dtype=complex)
        Hp = np.empty((len(H), 4 * n), dtype=complex)
        att, att_par = H[:L + 1], Hp[:L + 1]
        lift = H[L + 1:].reshape(n, L, self.size)
        lift_par = Hp[L + 1:].reshape(n, L, 4 * n)

        F = np.fft.fft(grads, axis=0, norm="forward")[..., None]    # (nn, n, 1)
        self._phi_columns(att, att_par, F * pair, np.conj(F * pair),
                          att_p, att_q, 0, u[0])
        att[:, 1 + n_a:] = 0.0                          # rho does not see g

        # (c, nn, c') so that gathers land in (c, m, k, c') order
        GA, GC = (np.fft.fft(gt[None, :, None] * X.transpose(1, 0, 2), axis=1,
                             norm="forward")[..., None] for X in (A, C))
        self._phi_columns(lift, lift_par, GA * pair, GC * np.conj(pair),
                          lift_p, lift_q, 1, u[0])

        _g_columns(self.tau, grads, self.K, lift[:, :, 1 + n_a:])

        J = _real_modes(H)
        J[-1, 1 + n_a] = 1.0
        J[-1, 2 + n_a::2] = 1.0              # cos coefficients at theta = 0
        return J, _real_modes(Hp)

    def _phi_columns(self, out, out_p, p, q, ip, iq, axis, r):
        """Fill the r column and the a-block of complex residual modes
        ``out`` (..., size), and the parameter columns ``out_p`` (..., 4n),
        with p[ip] + q[iq], gathered along ``axis`` of the pair-weighted
        spectra p, q (..., nn, ..., n, 2) at the column shifts k = 0..M of
        the index arrays ip, iq (rows, M + 1)."""
        n, M, n_a = self.n, self.M, self.n_a
        np.add(np.take(p, ip[:, 2:], axis=axis),
               np.take(q, iq[:, 2:], axis=axis),
               out=out[..., 1:1 + n_a].reshape(out.shape[:-1] + (M - 1, n, 2)))
        k01 = np.take(p, ip[:, :2], axis=axis) \
            + np.take(q, iq[:, :2], axis=axis)          # (..., 2, n, 2)
        k1 = k01[..., 1, :, :]
        out[..., 0] = k1[..., 0] @ self.v.real + k1[..., 1] @ self.v.imag
        k1 *= r
        # (k, re/im, c) is the order (Re z, Im z, Re v, Im v) of p
        out_p[...] = np.swapaxes(k01, -1, -2).reshape(out_p.shape)

    def coefficient_tangent(self, u, du):
        """(d coeffs, d gamma) along the 4n real parameter perturbations,
        shapes (4n, M+1, n) and (4n, n_g), from the state derivative ``du``
        (size, 4n) at state u: a_0 = z moves by dz and a_1 = r v by
        dr v + r dv."""
        n, M, n_a = self.n, self.M, self.n_a
        E = _coordinate_tangents(n)
        zero = np.zeros_like(E)
        dcoeffs = np.empty((4 * n, M + 1, n), dtype=complex)
        dcoeffs[:, 0] = np.concatenate([E, zero])
        dcoeffs[:, 1] = du[0][:, None] * self.v \
            + u[0] * np.concatenate([zero, E])
        dcoeffs[:, 2:] = (du[1:1 + n_a:2] + 1j * du[2:1 + n_a:2]) \
            .reshape(M - 1, n, 4 * n).transpose(2, 0, 1)
        return dcoeffs, du[1 + n_a:].T

    # -- the iteration --------------------------------------------------

    @staticmethod
    def _ls_step(J, F):
        """Gauss-Newton step by normal equations (lstsq as fallback)."""
        JtJ = J.T @ J
        JtJ[np.diag_indices_from(JtJ)] += 1e-13 * np.trace(JtJ) / len(JtJ)
        try:
            return np.linalg.solve(JtJ, -J.T @ F)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(J, -F, rcond=None)[0]

    def gauss_newton(self, u0, tol, max_iters, tangent=False):
        """(u, diag, du_dp) with attachment, lift modes and gauge all <= tol.

        With ``tangent`` each step also solves for the state's derivative
        du/dp = -J^+ F_p along the 4n parameter perturbations, as 4n more
        right-hand sides of the step's factorization; du_dp is the last
        step's, or None when no step was taken (or without ``tangent``)."""
        last = [None]

        def step(u, F, diag):
            J, Fp = self.jacobian(u)
            if not tangent:
                return self._ls_step(J, F)
            du = self._ls_step(J, np.column_stack([F, Fp]))
            last[0] = du[:, 1:]
            return du[:, 0]

        u, _, diag = _damped_newton(
            u0, self.residual, step,
            lambda F, d: max(d["attachment"], d["neg_modes"], d["gauge"]) <= tol,
            tol, max_iters)
        return u, diag, last[0]


def _damped_newton(u, residual, step, converged, tol, max_iters):
    """The damped Newton iteration of the disc, tangency and two-point
    solves, with the policy of the module docstring (Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004, ch. 3).  ``residual(u)`` gives
    (F, aux), ``step(u, F, aux)`` the undamped step and ``converged(F,
    aux)`` the stopping test; returns (u, F, aux)."""
    F, aux = residual(u)
    norms = [np.linalg.norm(F)]
    for _ in range(max_iters):
        if converged(F, aux):
            return u, F, aux
        norm = norms[-1]
        if len(norms) > 5 and norm >= 0.5 * norms[-6]:
            exc = SolverDivergence(
                f"stagnated (residual norm {norm:.3g}, {norms[-6]:.3g} five "
                "iterations earlier)", last_residual=float(norm))
            exc.stagnated = True
            raise exc
        du = step(u, F, aux)
        for t in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            try:
                F_new, aux_new = residual(u + t * du)
            except (PreconditionError, SolverDivergence):
                continue
            if np.linalg.norm(F_new) <= (1.0 - 1e-4 * t) * norm + tol:
                break
        else:
            raise SolverDivergence(
                f"line search stalled (residual norm {norm:.3g})",
                last_residual=float(norm))
        u, F, aux = u + t * du, F_new, aux_new
        norms.append(np.linalg.norm(F))
    if converged(F, aux):
        return u, F, aux
    norm = np.linalg.norm(F)
    raise SolverDivergence(
        f"no convergence in {max_iters} iterations (residual norm {norm:.3g})",
        last_residual=float(norm))


def _g_columns(tau, grads, K, out):
    """Fill ``out`` (n, L, 1 + 2K) with the lift modes (c, m = -1..-L) of g
    tau grad rho per coefficient of g = gamma_0 + sum_j gamma_cj cos(j
    theta) + gamma_sj sin(j theta), j = 1..K, gathered from T = fft(tau
    grad rho): T_c[m], (T_c[m-j] + T_c[m+j]) / 2, (T_c[m-j] - T_c[m+j]) /
    (2i).  Linear in gamma, it is the whole g-system of a fixed disc."""
    nn = len(tau)
    n, L = out.shape[:2]
    _, _, lift_p, lift_q = _shift_indices(K, nn // 2)
    T = np.fft.fft(tau[:, None] * grads, axis=0, norm="forward").T
    out[:, :, 0] = T[:, nn - 1:nn - 1 - L:-1]
    T = T[..., None]
    np.add(np.take(T * (0.5, -0.5j), lift_p[:, 1:], axis=1),
           np.take(T * (0.5, 0.5j), lift_q[:, 1:], axis=1),
           out=out[:, :, 1:].reshape(n, L, K, 2))


def _interleave(values):
    out = np.empty(2 * len(values))
    out[0::2] = values.real
    out[1::2] = values.imag
    return out


def _real_modes(H):
    """Real residual rows of the complex mode columns H: Re H[0], then
    (Re, Im) of every later mode, then a zero gauge row."""
    out = np.empty((2 * len(H), H.shape[1]))
    out[0] = H[0].real
    out[1:-1:2] = H[1:].real
    out[2:-1:2] = H[1:].imag
    out[-1] = 0.0
    return out


# ---------------------------------------------------------------------------
# continuation driver and public solvers


def _inscribed_ball_radius(domain, samples=64, seed=0):
    if domain._inscribed_radius is not None:
        return domain._inscribed_radius
    if domain.kind == "ball":
        r = domain.meta["radius"]
    else:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((samples, 2 * domain.dimension))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        dirs = raw[:, 0::2] + 1j * raw[:, 1::2]
        dists = np.linalg.norm(domain.boundary_point(dirs) - domain.center,
                               axis=-1)
        r = 0.999 * float(np.min(dists))
    domain._inscribed_radius = r
    return r


def _blend(domain_a, domain_b, t):
    """Convex blend (1-t) rho_a + t rho_b; strongly convex for t in [0,1]."""
    def rho(z):
        return (1.0 - t) * domain_a.rho(z) + t * domain_b.rho(z)

    def grad(z):
        return (1.0 - t) * domain_a.grad(z) + t * domain_b.grad(z)

    def hess(z):
        Aa, Ca = domain_a.hess_complex(z)
        Ab, Cb = domain_b.hess_complex(z)
        return (1.0 - t) * Aa + t * Ab, (1.0 - t) * Ca + t * Cb

    return ConvexDomain(domain_a.dimension, "blend", rho, grad, hess,
                        meta={"center": domain_b.center})


def _solve_cd_raw(domain, z, v, settings, warm=None):
    """Core center-direction solve; returns the solved :class:`AnalyticDisc`.

    A warm solve starts from the solved disc ``warm``, moved to (z, v)
    along its parameter tangent when it has one; when it takes a step the
    returned disc carries the tangent of its last step's factorization
    (:meth:`_CenterDirectionSystem.coefficient_tangent`)."""
    z, v = _point_and_direction(domain, z, v)
    if not float(domain.rho(z)) < -INTERIOR_MARGIN:
        raise PreconditionError("base point must be strictly interior")

    system = _CenterDirectionSystem(domain, z, v, settings)
    tol = settings.newton_tol

    if warm is not None:
        coeffs0, gamma0 = warm.coeffs, warm.solver_g
        if warm.tangent is not None:
            dcoeffs, dgamma = warm.tangent
            dz = z - warm.base_point
            dv = v - warm.base_direction / np.linalg.norm(warm.base_direction)
            dp = np.concatenate([dz.real, dz.imag, dv.real, dv.imag])
            coeffs0 = coeffs0 + np.tensordot(dp, dcoeffs, axes=1)
            gamma0 = gamma0 + dp @ dgamma
        u, diag, du_dp = system.gauss_newton(
            system.initial_state(coeffs0, gamma0), tol, settings.max_iters,
            tangent=True)
        tangent = None if du_dp is None \
            else system.coefficient_tangent(u, du_dp)
        return _finalize(system, u, diag, settings, tangent)

    # start from the closed-form state of the domain when it is a ball,
    # else of an inscribed ball that contains z, and try the domain; only
    # where Newton diverges is the homotopy from that ball subdivided
    ball0, dt_max = domain, 1.0
    if domain.kind != "ball":
        center = domain.center
        r_ins = _inscribed_ball_radius(domain)
        ball0 = make_ball(center, max(
            r_ins, 1.05 * float(np.linalg.norm(z - center)) + 0.05 * r_ins))
        dt_max = 1.0 / settings.continuation_steps
    init = ball_geodesic(ball0, z, v, settings)
    u = system.initial_state(init.coeffs, init.solver_g)
    t, dt = 0.0, dt_max
    while t < 1.0:
        t_next = t + dt
        if t_next > 1.0 - 1e-12:       # land on the domain, not a roundoff short
            t_next = 1.0
        target = system if t_next == 1.0 else _CenterDirectionSystem(
            _blend(ball0, domain, t_next), z, v, settings)
        try:
            u_next, diag, _ = target.gauss_newton(u, tol, settings.max_iters)
        except SolverDivergence as exc:
            # a ball has no homotopy to subdivide, and stagnation below
            # newton_tol is the resolution floor of this M, which no
            # shorter homotopy step lowers
            if ball0 is domain or (exc.stagnated and exc.last_residual <= tol):
                raise
            dt *= 0.5
            if dt < 1e-4:
                raise
            continue
        u, t = u_next, t_next
        dt = min(1.5 * dt, dt_max)
    return _finalize(system, u, diag, settings)


def _finalize(system, u, diag, settings, tangent=None):
    r, _, gamma = system.unpack(u)
    if r <= 0:
        raise SolverDivergence("converged to nonpositive derivative scale",
                               last_residual=diag["attachment"])
    if diag["min_g"] <= 0:
        raise SolverDivergence("boundary factor g lost positivity",
                               last_residual=diag["attachment"])
    return AnalyticDisc(system.disc_coeffs(u), settings.grid, system.domain,
                        attachment_residual=diag["attachment"],
                        solver_g=gamma, tangent=tangent)


def solve_from_center_direction(domain: ConvexDomain, z, v,
                                settings: SolverSettings | None = None):
    """Stationary disc with phi(0) = z, phi'(0) = r*v (r > 0), together
    with its conormal lift.

    Raises :class:`PreconditionError` for non-interior z, a z or v that
    is not a finite vector of the domain's dimension, a zero v or a
    failing convexity certificate and :class:`SolverDivergence` when the
    Gauss-Newton continuation cannot reach the tolerance.
    """
    from .lifts import lift_from_disc

    settings = settings or SolverSettings()
    if not domain.cached_certificate().passes:
        raise PreconditionError("domain fails its convexity certificate")
    disc = _solve_cd_raw(domain, z, v, settings)
    lift = lift_from_disc(domain, disc)
    return disc, lift


class _TwoPointSystem:
    """Residual and Jacobian of the two-point equations over
    x = (Re v, Im v, xi): phi(xi) = w and |v|^2 = 1, where phi is the
    stationary disc with phi(0) = z and direction v/|v|, solved with warm
    starts.  The warm slot holds the last solved disc (or None)."""

    def __init__(self, domain, z, w, settings):
        self.domain = domain
        self.z = z
        self.w = w
        self.n = len(z)
        self.settings = settings
        self.warm = None

    def residual(self, x):
        """(G, disc); raises PreconditionError outside the admissible
        region 0 < xi < 1, |v| >= 1e-8."""
        n = self.n
        v = x[:n] + 1j * x[n:2 * n]
        xi = x[2 * n]
        if not 0.0 < xi < 1.0 or np.linalg.norm(v) < 1e-8:
            raise PreconditionError("two-point state left the admissible region")
        disc = _solve_cd_raw(self.domain, self.z, v, self.settings,
                             warm=self.warm)
        self.warm = disc
        val = disc(np.array([xi]))[0] - self.w
        G = np.concatenate([val.real, val.imag,
                            [np.linalg.norm(v) ** 2 - 1.0]])
        return G, disc

    def jacobian(self, x, disc):
        """dG/dx at x, whose converged inner disc is ``disc``: the v
        columns follow from the disc's parameter tangent by the chain rule,
        the xi column is phi'(xi)."""
        n = self.n
        v = x[:n] + 1j * x[n:2 * n]
        xi = x[2 * n] + 0.0j
        dv = _direction_tangents(v)
        tangent = _parameter_tangent(self.domain, disc, self.settings)
        dphi = _tangent_at(tangent, xi, np.zeros_like(dv), dv)   # (2n, n)
        dxi = disc.derivative(np.array([xi]))[0]
        J = np.zeros((2 * n + 1, 2 * n + 1))
        J[:n, :2 * n] = dphi.T.real
        J[n:2 * n, :2 * n] = dphi.T.imag
        J[:n, 2 * n] = dxi.real
        J[n:2 * n, 2 * n] = dxi.imag
        J[2 * n, :2 * n] = 2.0 * x[:2 * n]
        return J

    def step(self, x, G, disc):
        """The Newton step of the square system (lstsq if J is singular)."""
        J = self.jacobian(x, disc)
        try:
            return np.linalg.solve(J, -G)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(J, -G, rcond=None)[0]


def _parameter_tangent(domain, disc, settings):
    """The parameter tangent of the solved ``disc``: the one its warm solve
    returned with it, else one linearization and factorization at the
    disc."""
    if disc.tangent is not None:
        return disc.tangent
    v = disc.base_direction / np.linalg.norm(disc.base_direction)
    system = _CenterDirectionSystem(domain, disc.base_point, v, settings)
    u = system.initial_state(disc.coeffs, disc.solver_g)
    J, Fp = system.jacobian(u)
    return system.coefficient_tangent(u, system._ls_step(J, Fp))


def _tangent_at(tangent, s, dz, dv):
    """Derivative of phi(s) along P perturbations ``dz`` (P, n) of the
    center and ``dv`` (P, n) of the unit direction, from the parameter
    ``tangent``; returns (P, n)."""
    dcoeffs, _ = tangent
    dp = np.hstack([dz.real, dz.imag, dv.real, dv.imag])           # (P, 4n)
    return dp @ power_series(dcoeffs.transpose(1, 0, 2), s)


def _direction_tangents(d):
    """Derivatives of the unit direction d/|d| along the real coordinates
    (Re d_1..Re d_n, Im d_1..Im d_n) of d, as rows (2n, n):
    (e - v Re<e, v>)/|d| with v = d/|d|."""
    n = len(d)
    nd = np.linalg.norm(d)
    v = d / nd
    E = _coordinate_tangents(n)
    return (E - np.real(E @ np.conj(v))[:, None] * v) / nd


def _coordinate_tangents(n):
    """The real coordinate directions (e_1..e_n, i e_1..i e_n) of C^n as
    rows (2n, n)."""
    eye = np.eye(n)
    return np.concatenate([eye, 1j * eye])


def solve_two_point(domain: ConvexDomain, z, w,
                    settings: SolverSettings | None = None):
    """Stationary disc through two points, normalized by phi(0) = z,
    phi(xi) = w with xi in (0, 1); returns (disc, xi).

    Outer damped Newton iteration (:func:`_damped_newton`) over the
    direction sphere and xi with the center-direction solver inside.  The
    outer Jacobian comes from the parameter tangent that the warm inner
    solve returns from its own factorization, so each outer iteration
    costs no disc solves and no further factorization beyond its line
    search; each inner solve starts at the first-order prediction.
    """
    settings = settings or SolverSettings()
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.linalg.norm(w - z) < 1e-6:
        raise PreconditionError("points must be distinct (|z - w| >= 1e-6)")
    for p in (z, w):
        if not float(domain.rho(p)) < -INTERIOR_MARGIN:
            raise PreconditionError("both points must be strictly interior")

    n = len(z)
    center = domain.center
    r0 = _inscribed_ball_radius(domain)
    hint = make_ball(center, max(r0, 1.05 * max(
        np.linalg.norm(z - center), np.linalg.norm(w - center))))
    try:
        v0, xi0 = _ball_two_point_data(hint, z, w)
    except PreconditionError:
        v0 = (w - z) / np.linalg.norm(w - z)
        xi0 = 0.5
    xi0 = min(max(xi0, 1e-4), 1.0 - 1e-4)

    system = _TwoPointSystem(domain, z, w, settings)
    tol = max(1e-9, settings.newton_tol)
    x, _, disc = _damped_newton(
        np.concatenate([v0.real, v0.imag, [xi0]]), system.residual,
        system.step, lambda G, disc: np.max(np.abs(G)) <= tol, tol, 30)
    return disc, float(x[2 * n])


def reparametrize(disc: AnalyticDisc, moebius: MoebiusMap) -> AnalyticDisc:
    """The disc phi composed with an automorphism of the unit disc; the
    image set is unchanged.

    The composition is generically a full (decaying) power series even
    for polynomial input, so the result carries the grid's full mode
    budget rather than the input's degree."""
    values = disc(moebius(disc.grid.nodes))
    n = disc.dimension
    modes = max(disc.modes, disc.grid.size // 4)
    coeffs = np.zeros((modes + 1, n), dtype=complex)
    for c in range(n):
        series = analyze(values[:, c], disc.grid)
        half = disc.grid.size // 2
        coeffs[:, c] = series.coeffs[half:half + modes + 1]
    out = AnalyticDisc(coeffs, disc.grid, disc.domain)
    if disc.domain is not None:
        out.attachment_residual = out.boundary_residual()
    return out


def boundary_hausdorff(disc1: AnalyticDisc, disc2: AnalyticDisc,
                       newton_iters: int = 30) -> float:
    """Hausdorff distance between the boundary images, measured from the
    grid samples of each disc to the boundary curve (not the samples) of
    the other.  Each foot point on the other curve is refined by at most
    ``newton_iters`` Gauss-Newton steps in theta, stopping once every
    step is below 1e-14."""

    def directed(da, db):
        targets = da.boundary_values()
        theta = db.grid.angles
        d2 = _shifted_sq_distances(targets, db.boundary_values())
        th = theta[np.argmin(d2, axis=1)]
        for _ in range(newton_iters):
            e = np.exp(1j * th)
            diff = db(e) - targets
            dphi = db.derivative(e) * (1j * e)[:, None]
            g = np.sum(dphi * np.conj(diff), axis=1).real
            gp = np.sum(np.abs(dphi) ** 2, axis=1) + 1e-30
            step = g / gp
            th = th - step
            if np.max(np.abs(step)) <= 1e-14:
                break
        e = np.exp(1j * th)
        return float(np.max(np.linalg.norm(db(e) - targets, axis=1)))

    return max(directed(disc1, disc2), directed(disc2, disc1))


def _shifted_sq_distances(targets, nodes):
    """|t_j - b_l|^2 less the row constant |t_j|^2 for targets t (P, n)
    and nodes b (Q, n), from one matrix product; each row's argmin is the
    nearest node."""
    return (np.sum(np.abs(nodes) ** 2, axis=1)[None, :]
            - 2.0 * (targets @ np.conj(nodes).T).real)


def poincare_distance(t1: complex, t2: complex) -> float:
    """Poincare distance between points of the unit disc."""
    q = abs((t1 - t2) / (1.0 - np.conj(t2) * t1))
    return float(np.arctanh(q))


def kobayashi_distance(domain: ConvexDomain, z, w,
                       settings: SolverSettings | None = None) -> float:
    """Kobayashi distance from the two-point geodesic parameter:
    (1/2) log((1+xi)/(1-xi))."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.array_equal(z, w):
        return 0.0
    _, xi = solve_two_point(domain, z, w, settings)
    return float(np.arctanh(xi))


@dataclass
class ProbeReport:
    """``lambdas`` holds one ratio per competitor found inside the domain,
    the first ``scaled`` of them from scaled copies of the disc."""

    max_abs_lambda: float
    trials: int
    lambdas: np.ndarray
    scaled: int = 0


def extremality_probe(domain: ConvexDomain, disc: AnalyticDisc, trials: int,
                      seed: int = 0) -> ProbeReport:
    """Empirical extremality check.

    Generates competitor discs psi mapping into the open domain with
    psi(0) = phi(0) and psi'(0) parallel to phi'(0), and records the
    ratio lambda = psi'(0)/phi'(0).  Extremality predicts |lambda| < 1
    for every competitor.  Competitors are scaled copies tau -> phi(s tau)
    of the disc itself, s shrunk until the copy lies inside the domain
    (skipped if it never does), and random cubic discs grown until they
    nearly touch the boundary (the maximum of rho over the closed disc
    is attained on the boundary circle because rho is convex).
    """
    rng = np.random.default_rng(seed)
    z = disc.base_point
    dphi = disc.base_direction
    nodes = disc.grid.nodes
    lambdas = []
    n_scaled = max(1, trials // 4)
    for _ in range(n_scaled):
        s = rng.uniform(0.3, 0.98)
        for _ in range(30):
            if float(np.max(domain.rho(disc(s * nodes)))) < 0:
                lambdas.append(s)
                break
            s *= 0.9
    scaled = len(lambdas)
    for _ in range(n_scaled, trials):
        mu = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        c2, c3 = (0.3 * np.linalg.norm(dphi)
                  * (rng.standard_normal((2, disc.dimension))
                     + 1j * rng.standard_normal((2, disc.dimension))))
        incr = (np.outer(nodes, mu * dphi) + np.outer(nodes ** 2, c2)
                + np.outer(nodes ** 3, c3))

        def worst(sig):
            return float(np.max(domain.rho(z[None, :] + sig * incr)))

        hi = 1.0
        while worst(hi) < 0 and hi < 1e6:
            hi *= 2.0
        lo = 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if worst(mid) < 0:
                lo = mid
            else:
                hi = mid
        lambdas.append(0.95 * lo * mu)
    lambdas = np.array(lambdas, dtype=complex)
    return ProbeReport(float(np.max(np.abs(lambdas), initial=0.0)), trials,
                       lambdas, scaled)
