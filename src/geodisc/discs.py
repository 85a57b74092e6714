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
against the coefficient truncation to keep products alias-free.  On any
circle grid, phi is one inverse FFT of its coefficients folded mod the
grid size, and on the rings |tau| = r of a polar grid one batched
inverse FFT of a_k r^k (:func:`circle.ring_values`); g is one inverse
real FFT (:func:`_boundary_factor`).  On the residual grid the solver
takes phi and g from one inverse FFT, g's spectrum as one more column
next to phi's coefficients.  Off these grids a series is read from
the powers of :func:`circle._powers`: by :func:`circle.power_series`,
or at the real parameter s of the outer system by a real vector of
powers of s.  The cold solve and the outer system's joint iteration run
in two levels (nested iteration: Brandt, "Multi-level adaptive solutions
to boundary-value problems", Math. Comp. 31, 1977), by one driver,
:func:`_two_levels`.  At M >= 16 a solve first runs at (M/2, N/2) from
its start truncated there, to the loose COARSE_TOL, and then at M from
that solution zero-padded, taking at least one step, since the padded
state has only the accuracy of M/2.  Where the half-resolution level
diverges, or below M = 16, where there is none, the solve at M starts
from its start as given.  A cold solve on a ball is :func:`_ball_disc`,
the ball's one solve (see below).  Every other cold solve is a
homotopy: it starts from the closed form of an inscribed ball, on which
no Gauss-Newton runs; the first target, the domain itself unless
continuation_steps > 1, is solved in two levels, and every Gauss-Newton
call at M takes at least one step.  Only when the solve at M diverges is
the homotopy from the ball to the domain subdivided into blended
domains, halving the step on each failure.  An attempt that stagnates
with its residual norm already below newton_tol has reached the
resolution floor of M, and the solve ends there.  Where the domain
itself was tried and failed, the error raised is the domain's own last
divergence, with a failing blend's as its ``__cause__``, so that it
describes the domain asked for.

The Gauss-Newton normal equations are built without the Jacobian J:
every column of J is a shifted copy of one of a few field spectra, so
each block of J^T J follows from its first row and column, which are
cross-correlations of the spectra, by a cumulative sum of rank-one
boundary terms along its diagonals (see :func:`_shift_gram`).  J^T F is
one more correlation, and the step is a Cholesky solve.  The state is
laid out as the columns of these equations (:func:`_state_layout`), so
their solution is the state step as it stands.  The builder
writes into buffers allocated once per thread and array shape
(:func:`_workspace`) and reused by every later step, so a step faults in
no fresh pages; the normal equations it returns are views that last
until the next linearization of the same shape.

The disc solve, the tangency corrector and the two-point solve share one
damped Newton driver, :func:`_damped_newton`, with one policy: check
convergence before every step and once after the last; give up as
stagnated once the residual norm is not below half its value five
iterations earlier; accept a trial u + t du when
|F_new| <= (1 - 1e-4 t)|F| + tol; halve t from 1 down to 1/32; count a
trial whose residual raises PreconditionError or SolverDivergence as
rejected.  The iteration hands every residual the aux of the accepted
iterate, so no system keeps state between calls.  The disc solve steps
by its normal equations, from the fields its residual returned.  Off a
ball the two-point solve and the tangency corrector share one outer
system and its minimum-norm step (:class:`_OuterSystem`): a disc with
center c and direction d/|d| that passes through a target at the real
parameter s.  The step solves the rows' Gram J J^T and maps back by J^T
(:func:`_min_norm_solve`), with lstsq only where the rows are dependent.
A ball needs no such iteration, since its geodesics are its complex
lines: the two-point data are closed-form (:func:`_ball_two_point_data`),
and the disc through them is :func:`_ball_disc`, as is every other disc
a ball's solve returns: the closed form where that attaches to
newton_tol at the truncation M, else Gauss-Newton from it, with no
homotopy and no half-resolution level; where Gauss-Newton fails too,
the error names M, with the Gauss-Newton failure as its cause.  The
outer system takes any domain, so the ball is a test oracle for it.  Its
iterate is the outer unknowns together with the disc's Gauss-Newton
state, and one bordered step serves both: one linearization of the
disc's equations gives their Gauss-Newton step and the state's
parameter tangent, the outer step follows from the outer Jacobian on
that tangent with the through-point rows moved by the Gauss-Newton
step, and the state follows the outer step along the tangent.  Each
residual derives the iterate once (:class:`_Iterate`), and the rows,
their Jacobian and the step read it.  No residual solves a disc or
builds one, and each step linearizes the disc once.  This iteration
starts from a solved disc, or from a cold solve where it has none, and
runs in two levels from either.  Every other disc solve is cold.  The
disc it returns carries its parameter tangent, the
derivative of the coefficients and of g along the 4n real perturbations
of z and v (implicit-function theorem), solved as 4n more right-hand
sides of each step's factorization at M, so it lags the returned state
by the last step.
"""

from __future__ import annotations

import ctypes
import glob
import numbers
import os
import threading
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .circle import (CircleGrid, _count, _powers, analyze, power_series,
                     ring_values)
from .domains import ConvexDomain, _random_directions, make_ball
from .errors import PreconditionError, SolverDivergence

INTERIOR_MARGIN = 1e-8
MAX_ENTRY = 1e150
COARSE_TOL = 1e-6          # of the half-resolution level of a solve


@dataclass
class MoebiusMap:
    """tau -> rotation * (tau + a) / (1 + conj(a) tau), an automorphism
    of the unit disc."""

    a: complex = 0.0
    rotation: complex = 1.0

    def __post_init__(self):
        self.a = complex(self.a)
        self.rotation = complex(self.rotation)
        if not abs(self.a) < 1.0:
            raise PreconditionError("Moebius parameter needs |a| < 1")
        if not abs(abs(self.rotation) - 1.0) <= 1e-12:
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

    The coefficients must have shape (M+1, n) with M >= 1 and n >= 1
    and be finite, and ``grid`` must be a :class:`CircleGrid`; otherwise
    the constructor raises PreconditionError.

    A disc returned by a Gauss-Newton solve or by :func:`ball_geodesic`
    carries the solver's state: its boundary factor ``solver_g`` and,
    after an outer solve that took a step, its parameter
    ``tangent`` (d coeffs, d gamma) of shapes (4n, M+1, n) and (4n, 1 +
    2M) (see the module docstring), read by :func:`_parameter_tangent`."""

    coeffs: np.ndarray            # (M+1, n) complex
    grid: CircleGrid
    domain: ConvexDomain | None = None
    attachment_residual: float | None = None
    solver_g: np.ndarray | None = None    # boundary factor of the solved state
    tangent: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] < 2 \
                or self.coeffs.shape[1] == 0:
            raise PreconditionError("disc coefficients must have shape "
                                    "(M+1, n) with M >= 1 and n >= 1")
        _bounded(self.coeffs, "disc coefficients")
        _grid(self.grid)

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
        """phi at the grid nodes, exact for any number of modes."""
        return ring_values(self.coeffs, (grid or self.grid).size)

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
        """The disc that :meth:`to_json` wrote as ``data``; raises
        PreconditionError where ``data`` is not of that form."""
        try:
            coeffs = np.array([[complex(re, im) for re, im in row]
                               for row in data["coeffs"]])
            grid = CircleGrid(data["grid"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed disc data ({exc})") from None
        return cls(coeffs, grid, domain,
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
        for name in ("modes", "continuation_steps", "max_iters"):
            _count(name, getattr(self, name))
        _grid(self.grid)
        if not (isinstance(self.newton_tol, numbers.Real)
                and 1e-12 <= self.newton_tol < np.inf):
            raise PreconditionError(
                f"newton_tol must be finite and >= 1e-12, not {self.newton_tol}")
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
    of the Gauss-Newton system.  A ball's solve returns it where it
    attaches to newton_tol and polishes it otherwise (:func:`_ball_disc`);
    a cold solve off a ball starts from an inscribed ball's, on which it
    runs no Gauss-Newton.
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


def _grid(grid):
    """Raise PreconditionError unless ``grid`` is a :class:`CircleGrid`."""
    if not isinstance(grid, CircleGrid):
        raise PreconditionError(f"grid must be a CircleGrid, not {grid!r}")


def _bounded(values, name):
    """Raise PreconditionError, naming the values ``name``, unless every
    entry is finite with modulus at most MAX_ENTRY, which keeps squared
    norms, and so rho of every domain here, finite."""
    if not (np.abs(values) <= MAX_ENTRY).all():
        raise PreconditionError(
            f"{name} must be finite, with entries of modulus <= {MAX_ENTRY:g}")


def _point(domain, z, name="base point"):
    """z as a complex vector in C^n of the domain; raises
    PreconditionError, naming it ``name``, for a wrong shape or an entry
    that is not finite or is huge (:func:`_bounded`)."""
    z = np.asarray(z, dtype=complex)
    n = domain.dimension
    if z.shape != (n,):
        raise PreconditionError(
            f"{name} must have shape ({n},), not {z.shape}")
    _bounded(z, name)
    return z


def _interior(domain, z):
    """Whether rho(z) < -INTERIOR_MARGIN; a point so far out that rho
    overflows is not interior."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(domain.rho(z)) < -INTERIOR_MARGIN


def _point_and_direction(domain, z, v):
    """(z, v/|v|) as complex vectors in C^n of the domain (:func:`_point`);
    raises PreconditionError for v = 0 too."""
    z = _point(domain, z)
    v = _point(domain, v, "direction")
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


def _ball_two_point_data(domain: ConvexDomain, z, w):
    """(direction v, xi) of the ball geodesic through z and w = phi(xi):
    with (a_1, mu) of :func:`_ball_series` for the chord direction u, and
    t the chord length, v = u q/|q| and xi = |q| for q = t/(|a_1| + t mu)."""
    c = domain.center
    R = domain.meta["radius"]
    zp = (np.asarray(z, dtype=complex) - c) / R
    wp = (np.asarray(w, dtype=complex) - c) / R
    if max(np.linalg.norm(zp), np.linalg.norm(wp)) >= 1.0:
        raise PreconditionError("points are not inside the ball")
    t = np.linalg.norm(wp - zp)
    u = (wp - zp) / t
    a1, mu = _ball_series(zp, u)
    q = t / (np.linalg.norm(a1) + t * mu)
    return u * q / abs(q), float(abs(q))


def _ball_psi_inverse(domain: ConvexDomain, z, zeta):
    """The exact inverse Riemann map of a ball based at z, the inverse of
    :func:`_ball_two_point_data`: phi(|zeta|) on the geodesic along zeta."""
    c = domain.center
    R = domain.meta["radius"]
    zp = (np.asarray(z, dtype=complex) - c) / R
    zeta = np.asarray(zeta, dtype=complex)
    xi = np.linalg.norm(zeta)
    a1, mu = _ball_series(zp, zeta / xi)
    return c + R * (zp + a1 * xi / (1.0 - mu * xi))


# ---------------------------------------------------------------------------
# the spectral Gauss-Newton system


@cache
def _grid_nodes(size):
    """The nodes tau_j = e^{2 pi i j/size} of a circle grid.  Shared
    between systems, hence read-only."""
    tau = CircleGrid(size).nodes
    tau.flags.writeable = False
    return tau


def _boundary_factor(gamma, size):
    """g = gamma_0 + sum_j (gamma_cj cos j theta + gamma_sj sin j theta)
    at the ``size`` grid nodes, for gamma = (gamma_0, gamma_c1, gamma_s1,
    ...): the inverse real FFT of its :func:`_half_spectrum`."""
    return np.fft.irfft(_half_spectrum(gamma), size, norm="forward")


def _half_spectrum(gamma):
    """The Fourier coefficients of g at j = 0..K for gamma = (gamma_0,
    gamma_c1, gamma_s1, ...): gamma_0, (gamma_cj - i gamma_sj) / 2; those
    at -j are their conjugates."""
    c = np.empty(len(gamma) // 2 + 1, dtype=complex)
    c[0] = gamma[0]
    c[1:] = 0.5 * (gamma[1::2] - 1j * gamma[2::2])
    return c


@cache
def _window_layout(lo, hi, P, nn, F):
    """Gather indices of :func:`_shift_gram` into its flat spectra [U, V,
    0] (U and V of shape (C, F, nn), then one zero), for the windows
    m = lo[c]..hi[c] of the components c and column shifts k = 0..P-1:

    - ``stretches`` (5, C, F, length): U and V on the window, V on the
      window moved by P - 1, U from P - 1 before the window to its end and
      V from its start to P - 1 after it, padded with the zero to the FFT
      length of the correlations;
    - ``ends`` (4, C, F, P - 1): U at lo - 1 - k and hi - k, and V at
      hi + 1 + k and lo + k, k = 0..P-2.

    Shared between systems, hence read-only."""
    C = len(lo)
    lo, hi = np.array(lo)[:, None], np.array(hi)[:, None]
    Lw = int(np.max(hi - lo)) + 1
    length = 1 << (Lw + P - 2).bit_length()
    zero = 2 * C * F * nn
    i, j, k = np.arange(Lw), np.arange(Lw + P - 1), np.arange(P - 1)

    def flat(part, index):
        rows = (part * C + np.arange(C)[:, None]) * F + np.arange(F)
        return rows[:, :, None] * nn + (index % nn)[:, None, :]

    inside = (i <= hi - lo)[:, None, :]
    stretches = np.full((5, C, F, length), zero)
    stretches[0, ..., :Lw] = np.where(inside, flat(0, lo + i), zero)
    stretches[1, ..., :Lw] = np.where(inside, flat(1, lo + i), zero)
    stretches[2, ..., :Lw] = np.where(inside, flat(1, lo + P - 1 + i), zero)
    stretches[3, ..., :Lw + P - 1] = flat(0, lo - (P - 1) + j)
    stretches[4, ..., :Lw + P - 1] = flat(1, lo + j)
    ends = np.stack([flat(0, lo - 1 - k), flat(0, hi - k), flat(1, hi + 1 + k),
                     flat(1, lo + k)])
    for arr in (stretches, ends):
        arr.flags.writeable = False
    return stretches, ends, length


_WORKSPACE = threading.local()


def _workspace(role, shape, dtype=float):
    """An uninitialized array of ``shape`` and ``dtype`` for ``role``,
    allocated once per thread and handed out again to every later request
    of the same (role, shape, dtype): the Gauss-Newton normal equations
    reuse their buffers instead of faulting fresh ones in on every step.
    Its contents last until that next request.  The buffers stay for the
    life of the thread, one set per shape: about 5 MB for n = 2 at (M, N)
    = (64, 256) and 1.6 MB at (32, 128), lift included."""
    buffers = _WORKSPACE.__dict__.setdefault("buffers", {})
    key = (role, shape, np.dtype(dtype))
    if key not in buffers:
        buffers[key] = np.empty(shape, dtype)
    return buffers[key]


def _shift_gram(fields, lo, hi, P):
    """Gram matrix Re(X^H X) of the complex columns

        x_{f,k,alpha}[c, m] = alpha U[c, f, m - k] + conj(alpha) V[c, f, m + k]

    over the windows m = lo[c]..hi[c] of the components c, for families
    f, shifts k = 0..P-1 and alpha = 1, i, without forming X.  U and V
    are the nn-point spectra (``norm="forward"``, indices mod nn) of the
    ``fields`` (2, C, F, nn).  Returns (Y, stretches): Y (F, 2, P, F, 2,
    P) over the columns (f, re/im, k), whose symmetric part Y + Y^T is
    the Gram matrix, and the FFTs of U from P - 1 before each window to
    its end and of V from its start to P - 1 after it, (2, C, F, length),
    for :meth:`_NormalEquations.rhs`.  Both are :func:`_workspace` views,
    valid until the next call with the same shapes on the same thread.

    With S_XY(k, l) = sum_m conj(X[m -/+ k]) Y[m -/+ l], the four real
    blocks of the Gram matrix are Re(D + A), Im(D + A), -Im(D - A) and
    Re(D - A), where D = S_UU + conj(S_VV) and A = Q + Q^T (families
    swapped too), Q = S_UV, since conj(S_VU) is Q^T.  D is Hermitian in
    the same sense, so the same four blocks of D/2 + Q are a Y.  D runs
    along diagonals: D(k+1, l+1) - D(k, l) is a sum of rank-one boundary
    terms, the products at the window's two ends.  Its first row is a
    cross-correlation of stretches of the spectra, taken by short FFTs,
    and its first column the conjugate transpose of that.  Q runs along
    anti-diagonals, Q(k+1, l-1) - Q(k, l) likewise, from its first row
    and last column.  With Q's columns reversed, Qr(k, l) = Q(k, P-1-l),
    its anti-diagonals are diagonals too, so each block of D and Qr is
    filled from its first row and column by one running sum along its
    diagonals (Kailath and Sayed, "Displacement structure", SIAM Review
    37, 1995): O(P^2) per block after the FFTs.
    """
    _, C, F, nn = fields.shape
    stretch_index, end_index, length = _window_layout(lo, hi, P, nn, F)
    spectra = _workspace("spectra", (fields.size + 1,), complex)
    spectra[-1] = 0.0
    np.fft.fft(fields, axis=-1, norm="forward",
               out=spectra[:-1].reshape(fields.shape))
    # the indices are in range; mode "clip" writes into out unbuffered
    stretches = np.take(spectra, stretch_index, mode="clip",
                        out=_workspace("stretches", stretch_index.shape, complex))
    np.fft.fft(stretches, axis=-1, out=stretches)
    # sum_c sum_i conj(x[c, f, i]) y[c, g, i + s] for the stretch pairs
    # (U, U), (V, V), (U, V) on the window and (V moved, U)
    x, y = np.take(stretches, [[0, 1, 0, 2], [3, 4, 4, 3]], axis=0, mode="clip",
                   out=_workspace("pairs", (2, 4, C, F, length), complex))
    np.conj(x, out=x)
    prod, term = _workspace("products", (2, 4, F, F, length), complex)
    np.multiply(x[:, 0, :, None], y[:, 0, None], out=prod)
    for component in range(1, C):
        prod += np.multiply(x[:, component, :, None], y[:, component, None],
                            out=term)
    uu, vv, uv, vu = np.fft.ifft(prod, axis=-1, out=prod)

    # X[k, l] = (D(k, l) / 2, Qr(k, l)), each (F, F): the first row and
    # column are the seeds, every other entry starts as its boundary term
    # and then gets the entry before it on its diagonal, one addition of
    # contiguous rows per k
    X = _workspace("diagonals", (P, P, 2, F, F), complex)
    Y = _workspace("gram", (F, 2, P, F, 2, P))
    X[0, :, 0] = (0.5 * (uu[..., P - 1::-1] + np.conj(vv[..., :P]))) \
        .transpose(2, 0, 1)
    X[1:, 0, 0] = np.conj(X[0, 1:, 0]).transpose(0, 2, 1)
    X[0, :, 1] = uv[..., P - 1::-1].transpose(2, 0, 1)
    X[1:, 0, 1] = np.conj(vu[..., :P - 1][..., ::-1]).T
    # boundary terms: D from the pairs (a, a), (b, b), (c, c), (d, d) and
    # Qr from (a, d), (b, c) with d and c reversed, each summed over the
    # components; their product is used up before Y is filled, so it is
    # written into Y's memory
    a, b, c, d = np.take(spectra, end_index)
    left = np.concatenate([np.conj(a), -np.conj(b), c, -d]).reshape(4 * C, -1)
    right = np.zeros((4 * C, 2, F * (P - 1)), dtype=complex)
    right[:, 0] = 0.5 * np.concatenate([a, b, np.conj(c), np.conj(d)]) \
        .reshape(4 * C, -1)
    right[:2 * C, 1] = np.concatenate([d, c])[..., ::-1].reshape(2 * C, -1)
    rows = F * (P - 1)
    ends = np.matmul(left.T, right.reshape(4 * C, -1), out=Y.reshape(-1)
                     .view(complex)[:2 * rows * rows].reshape(rows, 2 * rows))
    X[1:, 1:] = ends.reshape(F, P - 1, 2, F, P - 1).transpose(1, 4, 2, 0, 3)
    for k in range(1, P):
        X[k, 1:] += X[k - 1, :-1]

    D = X[:, :, 0].transpose(2, 0, 3, 1)
    Q = X[:, ::-1, 1].transpose(2, 0, 3, 1)
    np.add(D.real, Q.real, out=Y[:, 0, :, :, 0])
    np.add(D.imag, Q.imag, out=Y[:, 1, :, :, 0])
    np.subtract(Q.imag, D.imag, out=Y[:, 0, :, :, 1])
    np.subtract(D.real, Q.real, out=Y[:, 1, :, :, 1])
    return Y, stretches[3:]


@cache
def _state_layout(n, M):
    """The layout of the state u, which is that of the columns (f, re/im,
    k) of :func:`_shift_gram`, flattened, for the families (phi_1..phi_n,
    g) at shifts k = 0..M: a solution of the normal equations is a state
    step as it stands.  Returns (k0, k1, unused).

    phi_c's shift-k re and im columns hold Re and Im a_k[c], k = 2..M.
    ``k0`` and ``k1`` are the shift-0 and shift-1 columns, re of each
    component and then im: r sits at the first k1 column, entry 1 of u,
    whose column in the normal equations is the k1 columns contracted
    with (Re v, Im v); F_p's columns are the k0 columns and r times the
    k1 columns.  The g family's shift-j re column is the cos(j theta)
    column and its im column minus the sin(j theta) column, so they hold
    gamma_0, gamma_cj and -gamma_sj (:func:`_gamma`).  ``unused`` are the
    columns no unknown takes, zero in u: the other k0 and k1 columns and
    the g family's shift-0 im column.  Shared between systems, hence
    read-only."""
    P = M + 1

    def col(f, part, k):
        return (np.asarray(f) * 2 + part) * P + k

    c = np.arange(n)
    k0 = np.concatenate([col(c, 0, 0), col(c, 1, 0)])
    k1 = np.concatenate([col(c, 0, 1), col(c, 1, 1)])
    unused = np.concatenate([k0, k1[1:], [col(n, 1, 0)]])
    arrays = (k0, k1, unused)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _gamma(x):
    """gamma = (gamma_0, gamma_c1, gamma_s1, ...) of g from its columns x
    (2(K+1), ...) in the state (:func:`_state_layout`): re at shifts
    0..K, then im."""
    x = x.reshape((2, -1) + x.shape[1:])
    gamma = np.empty((2 * x.shape[1] - 1,) + x.shape[2:])
    gamma[0] = x[0, 0]
    gamma[1::2] = x[0, 1:]
    gamma[2::2] = -x[1, 1:]
    return gamma


def _gauged_gram(Y, f):
    """The Gram matrix Y + Y^T of :func:`_shift_gram`, square, with the
    gauge row g(1) = gamma_0 + sum_j gamma_cj (the re columns of the g
    family ``f``) added as a rank-one term; a :func:`_workspace`, valid
    until the next call of the same shape on the same thread."""
    Y[f, 0, :, f, 0] += 0.5
    Y2 = Y.reshape(2 * Y.shape[0] * Y.shape[2], -1)
    return np.add(Y2, Y2.T, out=_workspace("gauged gram", Y2.shape))


def _decouple(G, unused):
    """Zero the ``unused`` rows and columns of the Gram matrix G, with the
    mean diagonal of the other columns, the unknowns, on their diagonal:
    the unknowns keep their equations, the unused ones solve to zero, and
    the trace per unknown is that of the unknowns alone."""
    G[unused] = 0.0
    G[:, unused] = 0.0
    G.flat[unused * (len(G) + 1)] = np.trace(G) / (len(G) - len(unused))
    return G


def _conormal_gamma(grads, K):
    """gamma of the g of degree K that solves the lift-holomorphy and gauge
    equations (ii)-(iii) at a fixed disc in the least-squares sense, from
    ``grads`` = grad rho(phi) at the nn residual grid nodes.  They are
    linear in g with right-hand side the gauge row, so one unshifted
    solve of the g-block of the Gram matrix (:func:`_shift_gram`, one
    family) gives g.  Raises PreconditionError when it is singular."""
    nn, n = grads.shape
    L = nn // 4
    field = 0.5 * (_grid_nodes(nn)[:, None] * grads).T[:, None, :]   # (n, 1, nn)
    Y, _ = _shift_gram(np.stack([field, field]), (-L,) * n, (-1,) * n, K + 1)
    gauge = np.zeros(2 * (K + 1))
    gauge[:K + 1] = 1.0                   # g(1): gamma_0 and the cos terms
    normal = _decouple(_gauged_gram(Y, 0), _state_layout(0, K)[2])
    try:
        x = np.linalg.solve(normal.T, gauge)      # symmetric; Fortran order
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(
            f"conormal factor equations are singular ({exc})") from None
    return _gamma(x)


@dataclass
class _NormalEquations:
    """The Gauss-Newton normal equations of a linearization (see
    :meth:`_CenterDirectionSystem.jacobian`) over the columns of
    :func:`_shift_gram`: ``gram`` = J^T J and ``rhs_p`` = J^T F_p, with
    r in place of the first shift-1 column and the unused columns
    decoupled, so that their columns are the state's
    (:func:`_state_layout`); :meth:`rhs` gives J^T F from the
    ``stretches`` of :func:`_shift_gram`.

    ``gram`` and ``stretches`` are :func:`_workspace` views: they hold
    these equations until normal equations of the same shape are built
    again on the same thread, by :meth:`_CenterDirectionSystem.jacobian`
    at the same (n, M, N), which overwrites them.  Use or copy them
    before that; :meth:`_CenterDirectionSystem._ls_step` factors ``gram``
    in place.  ``rhs_p`` is an array of its own."""

    gram: np.ndarray
    rhs_p: np.ndarray
    system: "_CenterDirectionSystem"
    stretches: np.ndarray

    def rhs(self, F):
        """J^T F for a residual vector F (the layout of
        :meth:`_CenterDirectionSystem.residual`).  With r the complex
        residual modes on each component's window, the column (f, k,
        alpha) pairs with them to Re(conj(alpha) sum_m conj(U[m - k]) r[m]
        + alpha sum_m conj(V[m + k]) r[m]), two cross-correlations of r
        with the stretches of U and V, taken by FFT."""
        s = self.system
        n, L, P = s.n, s.L, s.M + 1
        # the residual modes on the windows of jacobian: attachment m =
        # 1..L, then lift m = -1..-L of each component
        modes = F[1:-1].view(complex)
        r = np.zeros((n + 1, 1, L + 1), dtype=complex)
        r[:n, 0, L - 1::-1] = modes[L:].reshape(n, L)
        r[n, 0, 0] = F[0]
        r[n, 0, 1:] = modes[:L]
        fr = np.conj(np.fft.fft(r, self.stretches.shape[-1], axis=-1))
        du, dv = np.fft.ifft(np.sum(fr * self.stretches, axis=1), axis=-1)
        k = np.arange(P)
        out = np.empty((n + 1, 2, P))
        out[:, 0] = du[:, P - 1 - k].real + dv[:, k].real
        out[:, 1] = dv[:, k].imag - du[:, P - 1 - k].imag
        out[n, 0] += F[-1]                             # gauge row
        out = out.ravel()
        _, k1, unused = _state_layout(n, s.M)
        out[k1[0]] = s.v_pairs @ out[k1]
        out[unused] = 0.0
        return out


class _CenterDirectionSystem:
    """Residual and Jacobian of the stationary-disc equations for fixed
    (domain, z, v) on an oversampled collocation grid."""

    def __init__(self, domain, z, v, settings):
        self.domain = domain
        self.z = np.asarray(z, dtype=complex)
        self.v = np.asarray(v, dtype=complex)
        self.v_pairs = np.concatenate([self.v.real, self.v.imag])
        self.n = len(self.z)
        self.M = settings.modes
        N = settings.grid.size
        self.L = N // 2
        self.nn = 2 * N                          # residual grid
        self.tau = _grid_nodes(self.nn)

    # -- the state (see _state_layout) ------------------------------------

    def disc_coeffs(self, u):
        """The coefficients (M+1, n) of phi at state u."""
        x = u.reshape(self.n + 1, 2, self.M + 1)
        # in C order, as every disc's coefficients are
        a = np.ascontiguousarray((x[:-1, 0] + 1j * x[:-1, 1]).T)
        a[0] = self.z
        a[1] = u[1] * self.v                 # r
        return a

    def initial_state(self, coeffs, gamma=None):
        """The state of disc coefficients of any length, with r = |a_1|
        but at least 1e-6, and g's ``gamma`` (default g = 1) of any
        degree: both are zero-padded or truncated to M.  A warm start
        from a disc of another direction keeps its scale |a_1|, which
        the projection Re<a_1, v> would shrink by the cosine of the turn;
        where a_1 is parallel to the unit v the two agree."""
        a = np.zeros((self.M + 1, self.n), dtype=complex)
        k = min(len(coeffs), self.M + 1)
        a[:k] = coeffs[:k]
        x = np.zeros((self.n + 1, 2, self.M + 1))
        x[:-1, 0, 2:] = a[2:].real.T
        x[:-1, 1, 2:] = a[2:].imag.T
        x[0, 0, 1] = max(float(np.linalg.norm(a[1])), 1e-6)
        x[-1, 0, 0] = 1.0                        # g = 1 unless gamma is given
        if gamma is not None:
            K = min(len(gamma) // 2, self.M)
            x[-1, 0, 0] = gamma[0]
            x[-1, 0, 1:K + 1] = gamma[1:2 * K:2]
            x[-1, 1, 1:K + 1] = -gamma[2:2 * K + 1:2]
        return x.ravel()

    def gamma(self, u):
        """gamma of g at state u, or its derivative from a state
        derivative u (len(u), k): :func:`_gamma` of u's g-block."""
        return _gamma(u[-2 * (self.M + 1):])

    # -- evaluation ----------------------------------------------------

    def _fields(self, u):
        """(phi, g) of :meth:`_grid_fields` at state u."""
        return self._grid_fields(u, self.disc_coeffs(u))

    def _grid_fields(self, u, a):
        """(phi, g) at the residual grid nodes at state u, whose disc
        coefficients are ``a``, from one inverse FFT: g is real, so its
        spectrum (:func:`_half_spectrum` and its conjugates at -j) rides as
        one more column next to phi's coefficients."""
        n, M, nn = self.n, self.M, self.nn
        spectra = np.zeros((nn, n + 1), dtype=complex)
        spectra[:M + 1, :n] = a
        spectra[:M + 1, n] = _half_spectrum(self.gamma(u))
        spectra[nn - M:, n] = np.conj(spectra[M:0:-1, n])
        values = np.fft.ifft(spectra, axis=0, norm="forward")
        return values[:, :n], values[:, n].real

    def residual(self, u, aux=None):
        """(F, (diag, fields)) at state u; the fields, the disc coefficients
        a and (phi, g, grad rho) at the residual grid nodes, serve
        :meth:`jacobian` and the outer system (:class:`_Iterate`)."""
        a = self.disc_coeffs(u)
        phi, g = self._grid_fields(u, a)
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
        return F, (diag, (a, phi, g, grads))

    def _linearization(self, u, fields=None):
        """Boundary factor times tau, gradient and Hessian blocks of rho
        along the disc at state u, from the ``fields`` that
        :meth:`residual` returned at u, or evaluated here without them."""
        if fields is None:
            phi, g = self._fields(u)
            fields = None, phi, g, self.domain.grad(phi)
        _, phi, g, grads = fields
        A, C = self.domain.hess_complex(phi)
        return g * self.tau, grads, A, C

    def jacobian(self, u, fields=None):
        """The Gauss-Newton normal equations at state u, as
        :class:`_NormalEquations`: the Gram matrix J^T J of the Jacobian
        J = d residual / d u (gauge row included), J^T F_p for the 4n real
        parameter perturbations p = (Re z, Im z, Re v, Im v), and J^T F for
        any residual F.  Neither J nor its complex mode matrix is formed.

        On the nn-point residual grid multiplication by tau^k is an exact
        discrete shift: with ``norm="forward"`` and indices mod nn,
        fft(f tau^k)[m] = fft(f)[m - k], and conj(tau)^k shifts by +k.
        Each column of J perturbs phi by alpha e_c tau^k (alpha = 1, i), or
        g by a trigonometric monomial, so each residual mode m of it is
        alpha U[m - k] + conj(alpha) V[m + k] for two spectra U, V:

          attachment modes m = 0..L:  U = fft(grad_c rho), V = fft(conj
              grad_c rho); the m = 0 mode of this real field is real, so
              its real part alone loses nothing
          lift modes (c, m = -1..-L): U = fft(g tau A_cc'), V = fft(g tau
              C_cc') for phi_c', and U = V = fft(tau grad_c rho) / 2 for the
              shift-j cos/sin coefficients of g (see :func:`_state_layout`)

        :func:`_shift_gram` builds the Gram of all these columns at shifts
        k = 0..M from the spectra, in the order of the state u; the r
        column (delta phi = v tau) is the k = 1 columns contracted with v,
        the columns no unknown takes are decoupled, and the gauge row
        g(1) - 1 adds a rank-one term.
        At fixed u a parameter perturbation moves phi by delta phi = dz +
        r tau dv, so the F_p columns are the k = 0 columns and r times the
        k = 1 columns, and J^T F_p is read off the same Gram.

        The Gram matrix and the stretches for J^T F live in reused buffers
        until the next call of the same shape (see :class:`_NormalEquations`).
        ``fields`` are those :meth:`residual` returned at u, if at hand.
        """
        gt, grads, A, C = self._linearization(u, fields)
        n, nn, L = self.n, self.nn, self.L
        # (U or V, component, family)
        fields = _workspace("fields", (2, n + 1, n + 1, nn), complex)
        fields[:, n, n] = 0.0                 # g does not move the attachment
        fields[0, :n, :n] = (gt[:, None, None] * A).transpose(1, 2, 0)
        fields[1, :n, :n] = (gt[:, None, None] * C).transpose(1, 2, 0)
        fields[:, :n, n] = 0.5 * (self.tau[:, None] * grads).T
        fields[0, n, :n] = grads.T                      # attachment
        fields[1, n, :n] = np.conj(grads.T)
        Y, stretches = _shift_gram(fields, (-L,) * n + (0,), (-1,) * n + (L,),
                                   self.M + 1)
        k0, k1, unused = _state_layout(n, self.M)
        G = _gauged_gram(Y, n)
        Gp = G[:, np.concatenate([k0, k1])]
        # r's column is the k1 columns contracted with v; it takes k1[0]
        v, host = self.v_pairs, k1[0]
        G[host] = G[:, host] = Gp[:, 2 * n:] @ v
        G[host, host] = v @ G[k1, host]
        Gp[host] = v @ Gp[k1]
        Gp[:, 2 * n:] *= u[1]                    # r
        Gp[unused] = 0.0
        return _NormalEquations(_decouple(G, unused), Gp, self, stretches)

    def coefficient_tangent(self, u, du):
        """d coeffs (4n, M+1, n) along the 4n real parameter
        perturbations, from the state derivative ``du`` (len(u), 4n) at
        state u: a_0 = z moves by dz and a_1 = r v by dr v + r dv."""
        n, P = self.n, self.M + 1
        x = du.reshape(n + 1, 2, P, 4 * n)
        E = _coordinate_tangents(n)
        zero = np.zeros_like(E)
        dcoeffs = np.empty((4 * n, P, n), dtype=complex)
        dcoeffs[:, 0] = np.concatenate([E, zero])
        dcoeffs[:, 1] = du[1][:, None] * self.v \
            + u[1] * np.concatenate([zero, E])
        dcoeffs[:, 2:] = (x[:n, 0, 2:] + 1j * x[:n, 1, 2:]).transpose(2, 1, 0)
        return dcoeffs

    # -- the iteration --------------------------------------------------

    @staticmethod
    def _ls_step(G, B):
        """Gauss-Newton step -(G + s I)^{-1} B from the Gram matrix G = J^T J
        and B = J^T F, with the shift s = 1e-13 tr(G) / len(G) added to G in
        place, by Cholesky (:func:`_cholesky_solve`, which may overwrite G
        with its factor); where that is not at hand or G + s I is not
        positive definite, by LU on it, or least squares where it is
        singular."""
        G.flat[::len(G) + 1] += 1e-13 * np.trace(G) / len(G)
        X = _cholesky_solve(G, B)
        if X is not None:
            return -X
        try:
            # G is symmetric: G.T is it in the Fortran order LAPACK takes
            # without a transposing copy
            return -np.linalg.solve(G.T, B)
        except np.linalg.LinAlgError:
            return -np.linalg.lstsq(G, B, rcond=None)[0]

    def gauss_newton(self, u0, tol, max_iters, min_steps=0):
        """(u, diag) with attachment, lift modes and gauge all <= tol,
        after at least ``min_steps`` steps."""
        def step(u, F, aux):
            normal = self.jacobian(u, aux[1])
            return self._ls_step(normal.gram, normal.rhs(F))

        u, _, (diag, _) = _damped_newton(
            u0, self.residual, step,
            lambda F, aux: max(aux[0]["attachment"], aux[0]["neg_modes"],
                               aux[0]["gauge"]) <= tol,
            tol, max_iters, min_steps=min_steps)
        return u, diag


@cache
def _numpy_openblas():
    """The OpenBLAS that numpy's wheels bundle (in ``numpy.libs``), as a
    ctypes library, or None where numpy carries no such library."""
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _use_one_blas_thread():
    """Run the OpenBLAS of :func:`_numpy_openblas` on one thread, in this
    process; does nothing where numpy carries no such library."""
    set_threads = getattr(_numpy_openblas(),
                          "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads(1)


@cache
def _lapack_cholesky():
    """LAPACK dpotrf and dpotrs, with their integer type, from
    :func:`_numpy_openblas` (64-bit integers, ``scipy_`` prefixed names),
    or None.  numpy.linalg exposes no Cholesky solve, and importing
    scipy.linalg for one costs about 25 MB of memory and 0.3 s."""
    lib = _numpy_openblas()
    for name, integer in (("scipy_d{}_64_", ctypes.c_int64),
                          ("d{}_", ctypes.c_int32)):
        try:
            potrf = getattr(lib, name.format("potrf"))
            potrs = getattr(lib, name.format("potrs"))
        except AttributeError:
            continue
        ref = ctypes.POINTER(integer)
        # Fortran: arguments by reference, then the hidden length of the
        # character argument
        potrf.argtypes = [ctypes.c_char_p, ref, ctypes.c_void_p, ref, ref,
                          ctypes.c_size_t]
        potrs.argtypes = [ctypes.c_char_p, ref, ref, ctypes.c_void_p, ref,
                          ctypes.c_void_p, ref, ref, ctypes.c_size_t]
        potrf.restype = potrs.restype = None
        return potrf, potrs, integer
    return None


def _cholesky_solve(A, B):
    """A^{-1} B for a symmetric positive definite, C-contiguous float64 A
    (n, n) and B (n,) or (n, k), by LAPACK dpotrf and dpotrs, which
    overwrite the upper triangle of A with the Cholesky factor.  Returns
    None, with A as it was, where :func:`_lapack_cholesky` finds no LAPACK
    or A is not positive definite."""
    lapack = _lapack_cholesky()
    if lapack is None:
        return None
    potrf, potrs, integer = lapack
    X = np.array(B, dtype=np.float64, order="F")
    if A.dtype != np.float64 or not A.flags.c_contiguous \
            or A.shape != (len(X), len(X)):
        raise ValueError("A must be C-contiguous float64 (n, n), B (n, ...)")
    n, info = integer(len(A)), integer(0)
    diagonal = A.diagonal().copy()
    # the lower triangle of the column-major view is A's upper triangle
    potrf(b"L", n, A.ctypes.data, n, info, 1)
    if info.value != 0:
        upper = np.triu_indices(len(A), 1)
        A[upper] = A.T[upper]
        A.flat[::len(A) + 1] = diagonal
        return None
    columns = integer(1 if X.ndim == 1 else X.shape[1])
    potrs(b"L", n, columns, A.ctypes.data, n, X.ctypes.data, n, info, 1)
    return X


def _damped_newton(u, residual, step, converged, tol, max_iters, aux=None,
                   min_steps=0):
    """The damped Newton iteration of the disc, tangency and two-point
    solves, with the policy of the module docstring (Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004, ch. 3).  ``residual(u, aux)``
    gives (F, aux) at u from the aux of the accepted iterate (``aux`` at
    the start), ``step(u, F, aux)`` the undamped step and ``converged(F,
    aux)`` the stopping test, not taken before ``min_steps`` steps;
    returns (u, F, aux)."""
    F, aux = residual(u, aux)
    norms = [np.linalg.norm(F)]
    for _ in range(max_iters):
        if len(norms) > min_steps and converged(F, aux):
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
            trial = u + t * du
            try:
                F_new, aux_new = residual(trial, aux)
            except (PreconditionError, SolverDivergence):
                continue
            if np.linalg.norm(F_new) <= (1.0 - 1e-4 * t) * norm + tol:
                break
        else:
            raise SolverDivergence(
                f"line search stalled (residual norm {norm:.3g})",
                last_residual=float(norm))
        u, F, aux = trial, F_new, aux_new
        norms.append(np.linalg.norm(F))
    if len(norms) > min_steps and converged(F, aux):
        return u, F, aux
    norm = np.linalg.norm(F)
    raise SolverDivergence(
        f"no convergence in {max_iters} iterations (residual norm {norm:.3g})",
        last_residual=float(norm))


def _min_norm_solve(J, b):
    """The minimum-norm least-squares solution of J x = b for J (m, k),
    m <= k: x = J^T y with (J J^T) y = b, one LU solve on the rows' Gram,
    which on the small outer and tangency systems costs half of an
    SVD-based least squares; a square J is solved by LU as it stands.
    |A| |y| / |b| (Frobenius norm) bounds the condition number of the
    matrix A solved from below, which is cond(J) for a square J and
    cond(J)^2 for the Gram.  Where A is singular, exactly or with J's
    bound above 1e6, the rows are dependent to working precision and
    np.linalg.lstsq takes over, so a rank-deficient J gets lstsq's answer
    and no LinAlgError."""
    square = J.shape[0] == J.shape[1]
    A = J if square else J @ J.T
    try:
        y = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        y = None
    limit = 1e12 if square else 1e24          # J's bound 1e6, squared
    if y is None or not (y @ y) * np.vdot(A, A) <= limit * (b @ b):
        return np.linalg.lstsq(J, b, rcond=None)[0]
    return y if square else y @ J


def _interleave(values):
    out = np.empty(2 * len(values))
    out[0::2] = values.real
    out[1::2] = values.imag
    return out


# ---------------------------------------------------------------------------
# continuation driver and public solvers


def _inscribed_ball_radius(domain):
    """0.999 x the least boundary distance over 64 fixed directions."""
    if domain._inscribed_radius is not None:
        return domain._inscribed_radius
    if domain.kind == "ball":
        r = domain.meta["radius"]
    else:
        dirs = _random_directions(np.random.default_rng(0), 64,
                                  domain.dimension)
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


def _half_resolution(settings, tol):
    """The settings at (M/2, N/2) of a solve at ``settings``, with
    newton_tol ``tol``; None below M = 16, which has no such level."""
    if settings.modes < 16:
        return None
    return replace(settings.scaled(modes=settings.modes // 2,
                                   grid_size=settings.grid.size // 2),
                   newton_tol=tol)


def _two_levels(settings, tol, start, solve, min_steps=0):
    """The result at ``settings`` to ``tol`` of the two levels of the
    module docstring.  ``solve(level, tol, start, min_steps)`` gives
    (result, next start) at the settings ``level`` from ``start`` after
    at least ``min_steps`` steps.  The level at M/2
    (:func:`_half_resolution`) starts from ``start``, and the solve at M
    from its next start with one step at least, or, where that level is
    missing or diverges, from ``start`` with ``min_steps``."""
    half = _half_resolution(settings, COARSE_TOL)
    if half is not None:
        try:
            _, start_at_m = solve(half, half.newton_tol, start, 0)
        except SolverDivergence:
            pass
        else:
            return solve(settings, tol, start_at_m, 1)[0]
    return solve(settings, tol, start, min_steps)[0]


def _solve_cd_raw(domain, z, v, settings):
    """The cold center-direction solve of the module docstring; returns
    the solved :class:`AnalyticDisc`, without a parameter tangent."""
    z, v = _point_and_direction(domain, z, v)
    if not _interior(domain, z):
        raise PreconditionError("base point must be strictly interior")
    if domain.kind == "ball":
        return _ball_disc(domain, z, v, settings)

    system = _CenterDirectionSystem(domain, z, v, settings)
    tol = settings.newton_tol

    # start from the closed-form state of an inscribed ball that contains
    # z, and try the domain; only where Newton diverges is the homotopy
    # from that ball subdivided
    center = domain.center
    r_ins = _inscribed_ball_radius(domain)
    ball0 = make_ball(center, max(
        r_ins, 1.05 * float(np.linalg.norm(z - center)) + 0.05 * r_ins))
    dt_max = 1.0 / settings.continuation_steps
    init = ball_geodesic(ball0, z, v, settings)
    start = (init.coeffs, init.solver_g)
    u = system.initial_state(*start)

    def solve(level, tol, start, min_steps):
        # the target at M, or a system of its domain at the coarse level
        s = target if level is settings else _CenterDirectionSystem(
            target.domain, z, v, level)
        u, diag = s.gauss_newton(s.initial_state(*start), tol,
                                 level.max_iters, min_steps)
        return (u, diag), (s.disc_coeffs(u), s.gamma(u))

    # the closed form is not the solved state: every Gauss-Newton call at
    # M takes a step, and the first target runs in two levels
    t, dt, first = 0.0, dt_max, True
    failure = None                  # the domain's own last divergence
    while t < 1.0:
        t_next = t + dt
        if t_next > 1.0 - 1e-12:       # land on the domain, not a roundoff short
            t_next = 1.0
        target = system if t_next == 1.0 else _CenterDirectionSystem(
            _blend(ball0, domain, t_next), z, v, settings)
        try:
            if first:
                first = False
                u_next, diag = _two_levels(settings, tol, start, solve, 1)
            else:
                u_next, diag = target.gauss_newton(u, tol, settings.max_iters,
                                                   1)
        except SolverDivergence as exc:
            # stagnation below newton_tol is the resolution floor of this
            # M, which no shorter homotopy step lowers
            floor = exc.stagnated and exc.last_residual <= tol
            if target is system:
                if floor:
                    raise
                failure = exc
            dt *= 0.5
            if floor or dt < 1e-4:
                # report the domain asked for, not a blend, where it was tried
                if failure is None or failure is exc:
                    raise
                raise failure from exc
            continue
        u, t = u_next, t_next
        dt = min(1.5 * dt, dt_max)
    return _finalize(system, u, diag, settings)


def _ball_disc(domain, z, v, settings):
    """The geodesic of the ball ``domain`` through z along v, the one
    place a ball's disc is solved: its closed form (:func:`ball_geodesic`)
    where that attaches to newton_tol at the truncation M, else
    Gauss-Newton from it at (z, v/|v|).  Where that fails too, M cannot
    attach the geodesic, and the SolverDivergence raised names M, with
    the Gauss-Newton failure as its cause."""
    disc = ball_geodesic(domain, z, v, settings)
    if disc.attachment_residual <= settings.newton_tol:
        return disc
    system = _CenterDirectionSystem(domain, *_point_and_direction(domain, z, v),
                                    settings)
    try:
        u, diag = system.gauss_newton(
            system.initial_state(disc.coeffs, disc.solver_g),
            settings.newton_tol, settings.max_iters)
    except SolverDivergence as exc:
        raise SolverDivergence(
            f"ball geodesic truncated at M = {settings.modes} is attached "
            f"only to {disc.attachment_residual:.3g}",
            last_residual=disc.attachment_residual) from exc
    return _finalize(system, u, diag, settings)


def _finalize(system, u, diag, settings, tangent=None):
    if u[1] <= 0:                                  # r
        raise SolverDivergence("converged to nonpositive derivative scale",
                               last_residual=diag["attachment"])
    if diag["min_g"] <= 0:
        raise SolverDivergence("boundary factor g lost positivity",
                               last_residual=diag["attachment"])
    return AnalyticDisc(system.disc_coeffs(u), settings.grid, system.domain,
                        attachment_residual=diag["attachment"],
                        solver_g=system.gamma(u),
                        tangent=tangent)


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


_Iterate = namedtuple("_Iterate", "x c d v a powers system y F diag fields R",
                      defaults=(None,) * 6)
_Iterate.__doc__ = """An iterate of :class:`_OuterSystem`, derived once:
the unknowns x, their c, d and v = d/|d|, the disc coefficients a and the
real powers s^0..s^M that read every series at s; in the joint iteration
also the disc's system at (c, v), its state y with y's residual F, diag
and fields (:meth:`_CenterDirectionSystem.residual`), and the rows R at
x, which on a solved disc are None.  A tuple, so it does not change."""


class _OuterSystem:
    """Newton system for the disc with center c and direction d/|d| that
    passes through ``target`` at the real parameter s.  Its unknowns x
    are the trailing entries of q = (Re c, Im c, Re d, Im d, s), the
    leading ones ``pinned``.  Its rows (:meth:`_rows`) and their Jacobian
    with the coefficients' parameter tangent da (:meth:`_jacobian`) read
    an :class:`_Iterate`; a subclass puts its own rows in front of them.
    :meth:`rows` and :meth:`jacobian` take that iterate on a solved disc.

    The Newton iteration runs over X = (x, y), y the disc's Gauss-Newton
    state, and no residual solves a disc (:meth:`newton`); each residual
    derives its iterate once, and the step reads it as the residual's
    aux.  The system keeps no state between calls."""

    pinned = np.zeros(0)

    def __init__(self, domain, target, settings):
        self.domain = domain
        self.target = target
        self.settings = settings
        self.n = domain.dimension

    def unpack(self, x):
        """(c, d, s) at the unknowns x."""
        q = np.concatenate([self.pinned, x])
        n = self.n
        return (q[:n] + 1j * q[n:2 * n], q[2 * n:3 * n] + 1j * q[3 * n:4 * n],
                q[4 * n])

    def _on_disc(self, x, disc):
        """The :class:`_Iterate` at the unknowns x on the solved ``disc``."""
        c, d, s = self.unpack(x)
        return _Iterate(x, c, d, d / np.linalg.norm(d), disc.coeffs,
                        _powers(s, len(disc.coeffs)))

    def rows(self, x, disc):
        """The rows at x on the solved ``disc``."""
        return self._rows(self._on_disc(x, disc))

    def jacobian(self, x, disc):
        """The Jacobian of the rows at x on the solved ``disc``, which moves
        with x along its parameter tangent (:func:`_parameter_tangent`);
        solves no disc."""
        dcoeffs, _ = _parameter_tangent(self.domain, disc, self.settings)
        return self._jacobian(self._on_disc(x, disc), dcoeffs)

    def residual(self, x, aux=None):
        """(R, disc): the rows at x on the disc solved cold there, the
        function of x whose Jacobian :meth:`jacobian` gives; ``aux`` is
        not used."""
        c, d, _ = self.unpack(x)
        disc = _solve_cd_raw(self.domain, c, d / np.linalg.norm(d),
                             self.settings)
        return self.rows(x, disc), disc

    def _rows(self, it):
        """(Re, Im)(phi(s) - target) and |d|^2 - 1 at the iterate ``it``."""
        val = it.powers @ it.a - self.target
        return np.concatenate([val.real, val.imag,
                               [np.linalg.norm(it.d) ** 2 - 1.0]])

    def _jacobian(self, it, dcoeffs):
        """Jacobian (2n + 1, len(x)) of :meth:`_rows` in the unknowns x at
        the iterate ``it``, from the columns of (Re c, Im c, Re d, Im d,
        s); solves no disc.  dphi(s)/dp along (Re c, Im c, Re v, Im v)
        comes from the coefficients' parameter tangent ``dcoeffs`` (4n,
        M+1, n), and v = d/|d| moves with (Re d, Im d)
        (:func:`_along_direction`)."""
        n, d, powers = self.n, it.d, it.powers
        dphi = powers @ dcoeffs
        dphi = np.concatenate([dphi[:2 * n],
                               _along_direction(d, dphi[2 * n:])])
        ds = (np.arange(1, len(powers)) * powers[:-1]) @ it.a[1:]
        J = np.zeros((2 * n + 1, 4 * n + 1))
        J[:2 * n, :4 * n] = np.concatenate([dphi.T.real, dphi.T.imag])
        J[:2 * n, 4 * n] = np.concatenate([ds.real, ds.imag])
        J[2 * n, 2 * n:4 * n] = 2.0 * np.concatenate([d.real, d.imag])
        return J[:, len(self.pinned):]

    def newton(self, x, tol, max_iters, start):
        """(x, R, disc) with max |R| <= tol by :func:`_damped_newton` and
        the minimum-norm outer step (:func:`_min_norm_solve`).  The disc's
        state y in X = (x, y) starts at the solved disc ``start``, its
        scale |a_1| taken along the direction at x
        (:meth:`_CenterDirectionSystem.initial_state`), or solved cold at
        x where it is None; X converges when the disc's attachment, lift
        modes and gauge are <= newton_tol and max |R| <= tol, and the disc
        returned carries the tangent of the last step (:meth:`_joint_step`).
        The iteration runs in two levels (:func:`_two_levels`), from a
        solved ``start`` and from the disc solved cold alike, so at
        M >= 16 the disc and its tangent come from a linearization at M."""
        if start is None:
            _, start = self.residual(x)
        it, T = _two_levels(self.settings, tol,
                            (x, start.coeffs, start.solver_g),
                            partial(self._iterate, max_iters=max_iters))
        tangent = None if T is None else (
            it.system.coefficient_tangent(it.y, T), it.system.gamma(T).T)
        return it.x, it.R, _finalize(it.system, it.y, it.diag, self.settings,
                                     tangent)

    def _iterate(self, settings, tol, start, min_steps, max_iters):
        """((it, T), next start): the joint iteration of :meth:`newton` at
        ``settings``, from ``start`` = (x, coeffs, gamma), x and the state
        of disc coefficients and boundary factor of any length
        (:meth:`_CenterDirectionSystem.initial_state`), with at least
        ``min_steps`` steps.  ``it`` is the :class:`_Iterate` it converged
        at, T its state's parameter tangent from the last step, None where
        none was taken, and the next start (x, coeffs, gamma) at ``it``."""
        x, coeffs, gamma = start
        c, d, _ = self.unpack(x)
        system = _CenterDirectionSystem(self.domain, c, d / np.linalg.norm(d),
                                        settings)
        last = [None]

        def step(X, FR, it):
            dX, last[0] = self._joint_step(X, it)
            return dX

        def converged(FR, it):
            return max(it.diag["attachment"], it.diag["neg_modes"],
                       it.diag["gauge"]) <= settings.newton_tol \
                and np.max(np.abs(it.R)) <= tol

        _, _, it = _damped_newton(
            np.concatenate([x, system.initial_state(coeffs, gamma)]),
            partial(self._joint_residual, settings), step, converged, tol,
            max_iters, min_steps=min_steps)
        return (it, last[0]), (it.x, it.a, it.system.gamma(it.y))

    def _joint_residual(self, settings, X, aux=None):
        """(F, R) stacked at X = (x, y), with the :class:`_Iterate` at X as
        aux: F the Gauss-Newton residual of y at ``settings`` for the disc
        with center c and direction d/|d| at x, R the rows at x on the
        disc of y.  Raises PreconditionError where c leaves the domain."""
        m = 4 * self.n + 1 - len(self.pinned)
        x, y = X[:m], X[m:]
        c, d, s = self.unpack(x)
        if not _interior(self.domain, c):
            raise PreconditionError("the disc center left the domain")
        v = d / np.linalg.norm(d)
        system = _CenterDirectionSystem(self.domain, c, v, settings)
        F, (diag, fields) = system.residual(y)
        it = _Iterate(x, c, d, v, fields[0], _powers(s, system.M + 1),
                      system, y, F, diag, fields)
        R = self._rows(it)
        return np.concatenate([F, R]), it._replace(R=R)

    def _joint_step(self, X, aux):
        """(dX, T): the bordered Newton step at X = (x, y) from the
        :class:`_Iterate` of its residual, and T = dy/dp along the 4n
        parameter perturbations.

        One linearization of the Gauss-Newton system at y gives its step
        du0 at fixed parameters and T, as 1 + 4n right-hand sides of one
        factorization.  The outer Jacobian is taken on the disc of y with
        T's coefficient part, and the through-point rows are moved to the
        disc of y + du0, which is linear in y; the minimum-norm dx
        (:func:`_min_norm_solve`) solves the outer rows, and dy = du0 + T
        dp, where dp is dx on the parameters, its d part taken to v =
        d/|d| (:func:`_along_direction`)."""
        it, system, n = aux, aux.system, self.n
        normal = system.jacobian(it.y, it.fields)
        sol = system._ls_step(
            normal.gram, np.column_stack([normal.rhs(it.F), normal.rhs_p]))
        du0, T = sol[:, 0], sol[:, 1:]
        shift = it.powers @ (system.disc_coeffs(it.y + du0) - it.a)
        R = it.R.copy()
        R[-2 * n - 1:-1] += np.concatenate([shift.real, shift.imag])
        dx = _min_norm_solve(
            self._jacobian(it, system.coefficient_tangent(it.y, T)), -R)
        dq = np.concatenate([np.zeros(len(self.pinned)), dx])
        dp = np.concatenate([dq[:2 * n],
                             _along_direction(it.d, dq[2 * n:4 * n])])
        return np.concatenate([dx, du0 + T @ dp]), T


class _TwoPointSystem(_OuterSystem):
    """The two-point equations phi(xi) = w, |v|^2 = 1 over
    x = (Re v, Im v, xi): the outer system with the center pinned at z."""

    def __init__(self, domain, z, w, settings):
        super().__init__(domain, w, settings)
        self.pinned = np.concatenate([z.real, z.imag])

    def unpack(self, x):
        """(z, v, xi); raises PreconditionError outside the admissible
        region 0 < xi < 1, |v| >= 1e-8."""
        z, v, xi = super().unpack(x)
        if not 0.0 < xi < 1.0 or np.linalg.norm(v) < 1e-8:
            raise PreconditionError("two-point state left the admissible region")
        return z, v, xi


def _parameter_tangent(domain, disc, settings):
    """The parameter tangent of the solved ``disc``: the one its outer
    solve returned with it, else one linearization and factorization at
    the disc."""
    if disc.tangent is not None:
        return disc.tangent
    v = disc.base_direction / np.linalg.norm(disc.base_direction)
    system = _CenterDirectionSystem(domain, disc.base_point, v, settings)
    u = system.initial_state(disc.coeffs, disc.solver_g)
    normal = system.jacobian(u)
    du = system._ls_step(normal.gram, normal.rhs_p)
    return system.coefficient_tangent(u, du), system.gamma(du).T


def _flipped(disc):
    """The solved ``disc`` reparametrized by tau -> -tau, which is
    stationary at center a_0 and direction -a_1: the coefficients
    (-1)^k a_k, and the boundary factor g(-tau), its j-th cos/sin pair
    times (-1)^j, divided by g(-1) > 0 so that it is 1 at tau = 1 again.
    Attachment and lift holomorphy carry over, the lift modes scaled by
    1/g(-1); the parameter tangent does not, and is dropped
    (:func:`_parameter_tangent` rebuilds it where it is read)."""
    sign = (-1.0) ** np.arange(disc.modes + 1)
    gamma = disc.solver_g.copy()
    pair = sign[1:len(gamma) // 2 + 1]                  # (-1)^j, j = 1..K
    gamma[1::2] *= pair
    gamma[2::2] *= pair
    gamma /= gamma[0] + np.sum(gamma[1::2])              # g(-1)
    return replace(disc, coeffs=sign[:, None] * disc.coeffs, solver_g=gamma,
                   tangent=None)


def _along_direction(d, a):
    """(I - w w^T) a / |d| for w = (Re d, Im d)/|d| and a of shape (2n,)
    or (2n, k): how v = d/|d| moves with the real coordinates (Re d, Im d),
    applied to rows along (Re v, Im v), such as :func:`_coordinate_tangents`
    (giving dv as rows), or to a step of d (the map is symmetric)."""
    nd = np.linalg.norm(d)
    w = np.concatenate([d.real, d.imag]) / nd
    return (a - np.multiply.outer(w, w @ a)) / nd


@cache
def _coordinate_tangents(n):
    """The real coordinate directions (e_1..e_n, i e_1..i e_n) of C^n as
    rows (2n, n).  Shared between callers, hence read-only."""
    eye = np.eye(n)
    rows = np.concatenate([eye, 1j * eye])
    rows.flags.writeable = False
    return rows


def solve_two_point(domain: ConvexDomain, z, w,
                    settings: SolverSettings | None = None):
    """Stationary disc through two points, normalized by phi(0) = z,
    phi(xi) = w with xi in (0, 1); returns (disc, xi).

    On a ball (v, xi) are closed-form (:func:`_ball_two_point_data`) and
    the disc is :func:`_ball_disc`, with no Newton iteration; where
    neither the closed form nor Gauss-Newton attaches it to newton_tol at
    the truncation M, SolverDivergence names M.  On other domains it is
    the Newton iteration of :class:`_OuterSystem` with the center pinned
    at z, over the direction sphere and xi: only the first disc is
    solved, cold; the iteration then carries the disc's Gauss-Newton
    state with (v, xi), at (M/2, N/2) first and then at M, and each step
    linearizes the disc once.
    """
    settings = settings or SolverSettings()
    z, w = _point(domain, z), _point(domain, w, "point w")
    if not (_interior(domain, z) and _interior(domain, w)):
        raise PreconditionError("both points must be strictly interior")
    if np.linalg.norm(w - z) < 1e-6:
        raise PreconditionError("points must be distinct (|z - w| >= 1e-6)")
    if domain.kind == "ball":
        v, xi = _ball_two_point_data(domain, z, w)
        return _ball_disc(domain, z, v, settings), xi

    n = len(z)
    center = domain.center
    r0 = _inscribed_ball_radius(domain)
    hint = make_ball(center, max(r0, 1.05 * max(
        np.linalg.norm(z - center), np.linalg.norm(w - center))))
    v0, xi0 = _ball_two_point_data(hint, z, w)     # the hint holds z and w
    xi0 = min(max(xi0, 1e-4), 1.0 - 1e-4)

    system = _TwoPointSystem(domain, z, w, settings)
    x, _, disc = system.newton(np.concatenate([v0.real, v0.imag, [xi0]]),
                               max(1e-9, settings.newton_tol), 30, None)
    return disc, float(x[2 * n])


def reparametrize(disc: AnalyticDisc, moebius: MoebiusMap) -> AnalyticDisc:
    """The disc phi composed with an automorphism of the unit disc; the
    image set is unchanged.

    The composition is generically a full (decaying) power series even
    for polynomial input, so the result carries the grid's full mode
    budget rather than the input's degree."""
    values = disc(moebius(disc.grid.nodes))
    modes = max(disc.modes, disc.grid.size // 4)
    half = disc.grid.size // 2
    coeffs = analyze(values, disc.grid).coeffs[half:half + modes + 1]
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
    step is below 1e-14; 0 takes the nearest grid node as it is.  Raises
    :class:`PreconditionError` unless ``newton_iters`` is an integer
    >= 0."""
    _count("newton_iters", newton_iters, 0)

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
    if not (abs(t1) < 1.0 and abs(t2) < 1.0):
        raise PreconditionError(
            f"poincare_distance needs points of the unit disc, not {t1}, {t2}")
    q = abs((t1 - t2) / (1.0 - np.conj(t2) * t1))
    return float(np.arctanh(q))


def kobayashi_distance(domain: ConvexDomain, z, w,
                       settings: SolverSettings | None = None) -> float:
    """Kobayashi distance from the two-point geodesic parameter:
    (1/2) log((1+xi)/(1-xi))."""
    z, w = _point(domain, z), _point(domain, w, "point w")
    if not (_interior(domain, z) and _interior(domain, w)):
        raise PreconditionError("both points must be strictly interior")
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
    is attained on the boundary circle because rho is convex).  Raises
    :class:`PreconditionError` for trials < 1.
    """
    _count("trials", trials)
    rng = np.random.default_rng(seed)
    z = disc.base_point
    dphi = disc.base_direction
    nodes = disc.grid.nodes
    lambdas = []
    n_scaled = max(1, trials // 4)
    for _ in range(n_scaled):
        s = rng.uniform(0.3, 0.98)
        for _ in range(30):
            ring = ring_values(disc.coeffs, nodes.size, s)
            if float(np.max(domain.rho(ring))) < 0:
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
