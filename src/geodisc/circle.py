"""Spectral analysis on the unit circle.

Functions on the circle are held either as values at the N equispaced
nodes theta_j = 2*pi*j/N or as coefficients of the trigonometric
polynomial

    u(theta) = sum_{k=-N/2}^{N/2-1} c_k e^{i k theta},

stored in centered order (index j of the coefficient array holds
c_{j - N/2}).  ``analyze`` and ``synthesize`` convert between the two
representations and are exact inverses up to roundoff.

The harmonic-conjugate transform ``hilbert_conjugate`` acts as the
Fourier multiplier c_k -> -i*sgn(k)*c_k on nonzero modes; the free
additive constant is pinned so the conjugate vanishes at theta = 0
(tau = 1), which is where every normalization in this package lives.
The unpaired Nyquist mode -N/2 is annihilated (its conjugate aliases to
zero on the grid).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, WindingNumberError

#: tolerance used by realness / holomorphy checks on coefficients
REAL_TOL = 1e-12


def _count(name, value, least=1):
    """Raise PreconditionError unless ``value`` is an integer >= ``least``;
    NaN, like any float, fails."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise PreconditionError(
            f"{name} must be >= {least} and an integer, not {value!r}")


def _tolerance(name, value):
    """Raise PreconditionError unless ``value`` is a real number, finite
    and > 0; NaN, which no comparison rejects, fails, as does an array."""
    if not (isinstance(value, numbers.Real) and 0 < value < np.inf):
        raise PreconditionError(
            f"{name} must be finite and > 0, not {value!r}")


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced nodes theta_j = 2*pi*j/N; N a power of two, N >= 16."""

    size: int

    def __post_init__(self):
        n = self.size
        _count("grid size", n)
        if n < 16 or (n & (n - 1)) != 0:
            raise PreconditionError(
                f"grid size must be a power of two >= 16, got {n}")

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size

    @property
    def nodes(self) -> np.ndarray:
        """The points e^{i theta_j} on the unit circle."""
        return np.exp(1j * self.angles)


@dataclass
class TrigSeries:
    """Finite Fourier series on a :class:`CircleGrid`.

    ``coeffs`` has length N with entry j holding c_{j - N/2}
    (wavenumbers -N/2 .. N/2-1).  A vector-valued series carries one
    coefficient vector per wavenumber, shape (N, n); ``synthesize``
    evaluates it componentwise, while the realness and holomorphy tests
    take scalar series.
    """

    grid: CircleGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[:1] != (self.grid.size,):
            raise PreconditionError(
                f"expected {self.grid.size} coefficients, got {self.coeffs.shape}")

    @property
    def wavenumbers(self) -> np.ndarray:
        n = self.grid.size
        return np.arange(-(n // 2), n // 2)

    def coeff(self, k: int) -> complex:
        n = self.grid.size
        if not -(n // 2) <= k < n // 2:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + n // 2])

    def _scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.coeffs))))

    def is_real(self, tol: float = REAL_TOL) -> bool:
        """True when c_{-k} = conj(c_k) within ``tol`` (relative)."""
        n = self.grid.size
        c = self.coeffs
        half = n // 2
        # pair k = 1..half-1 against -k; modes 0 and -half must be real
        pos = c[half + 1:]
        neg = c[1:half][::-1]
        err = np.max(np.abs(neg - np.conj(pos))) if half > 1 else 0.0
        err = max(err, abs(c[half].imag), abs(c[0].imag))
        return err <= tol * self._scale()

    def is_holomorphic_type(self, tol: float = REAL_TOL) -> bool:
        """True when all negative-wavenumber coefficients vanish."""
        n = self.grid.size
        neg = self.coeffs[:n // 2]
        return float(np.max(np.abs(neg))) <= tol * self._scale()

    def synthesize(self, at=None) -> np.ndarray:
        return synthesize(self, at)

    def derivative(self) -> "TrigSeries":
        """d/dtheta, i.e. c_k -> i*k*c_k."""
        return TrigSeries(self.grid, 1j * self.wavenumbers * self.coeffs)


def analyze(samples, grid: CircleGrid | None = None) -> TrigSeries:
    """Fourier coefficients of values sampled at the grid nodes along
    axis 0: (N,) samples give a scalar series, (N, ...) one FFT of all."""
    samples = np.asarray(samples, dtype=complex)
    if grid is None:
        grid = CircleGrid(len(samples))
    if samples.shape[:1] != (grid.size,):
        raise PreconditionError(
            f"sample count {samples.shape} does not match grid size {grid.size}")
    coeffs = np.fft.fftshift(np.fft.fft(samples, axis=0), axes=0) / grid.size
    return TrigSeries(grid, coeffs)


def synthesize(series: TrigSeries, at=None) -> np.ndarray:
    """Evaluate the trigonometric polynomial.

    ``at=None`` evaluates at the grid nodes (exact inverse of
    ``analyze``); otherwise ``at`` is an array of angles.  Values have
    shape (points,) + coeffs.shape[1:].
    """
    if at is None:
        # the centered order's halves swapped (ifftshift for even N)
        c, half = series.coeffs, series.grid.size // 2
        return np.fft.ifft(np.concatenate([c[half:], c[:half]]), axis=0) \
            * series.grid.size
    at = np.atleast_1d(np.asarray(at, dtype=float))
    phases = np.exp(1j * np.outer(at, series.wavenumbers))
    return phases @ series.coeffs


def hilbert_conjugate(u: TrigSeries, tol: float = REAL_TOL) -> TrigSeries:
    """Harmonic conjugate T(u) of a real series, pinned to T(u)(1) = 0.

    u + i*T(u) extends holomorphically into the disc; the additive
    constant is fixed so the conjugate vanishes at theta = 0.
    """
    if not u.is_real(tol):
        raise PreconditionError("hilbert_conjugate requires a real-valued series")
    k = u.wavenumbers
    d = -1j * np.sign(k) * u.coeffs
    d[k == -(u.grid.size // 2)] = 0.0  # unpaired Nyquist mode
    d[k == 0] = 0.0
    d[k == 0] = -np.sum(d)  # pin the value at theta = 0 to zero
    return TrigSeries(u.grid, d)


def power_series(coeffs, tau) -> np.ndarray:
    """sum_k coeffs[k] tau^k, of shape tau.shape + coeffs.shape[1:]: the
    powers of :func:`_powers` contracted with the coefficients in one
    matmul."""
    coeffs = np.asarray(coeffs, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    K = coeffs.shape[0]
    values = _powers(tau.reshape(-1), K).T @ coeffs.reshape(K, -1)
    return values.reshape(tau.shape + coeffs.shape[1:])


def _powers(t, K) -> np.ndarray:
    """t^0..t^{K-1} of a number or array t, of shape (K,) + t.shape and
    t's dtype, built by doubling: row block [m, 2m) is row block [0, m)
    times t^m, so log2 K vector products."""
    t = np.asarray(t)
    powers = np.empty((K,) + t.shape, dtype=t.dtype)
    powers[:1] = 1.0
    powers[1:2] = t
    m = 2
    while m < K:
        step = min(m, K - m)
        np.multiply(powers[:step], powers[m // 2:m // 2 + 1] ** 2,
                    out=powers[m:m + step])
        m += step
    return powers


def ring_values(coeffs, size, radii=None) -> np.ndarray:
    """sum_k coeffs[k] (r tau_j)^k at the ``size`` nodes tau_j =
    e^{2 pi i j/size} of every ring |tau| = r, r in ``radii``, of shape
    radii.shape + (size,) + coeffs.shape[1:]; without ``radii`` on the
    unit circle, of shape (size,) + coeffs.shape[1:].

    On a ring the series has the coefficients a_k r^k, and tau_j^size =
    1, so they fold mod size into one inverse FFT per ring, all rings in
    one batched call (Henrici, "Fast Fourier methods in computational
    complex analysis", SIAM Review 21, 1979).  Exact for any number of
    coefficients; the unit circle takes no multiply.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    K, tail = len(coeffs), coeffs.shape[1:]
    if radii is not None:
        powers = np.asarray(radii, dtype=float)[..., None] ** np.arange(K)
        coeffs = coeffs * powers.reshape(powers.shape + (1,) * len(tail))
    axis = coeffs.ndim - 1 - len(tail)
    if K > size:
        lead = coeffs.shape[:axis]
        coeffs = np.concatenate(
            [coeffs, np.zeros(lead + (-K % size,) + tail)], axis=axis) \
            .reshape(lead + (-1, size) + tail).sum(axis=axis)
    return np.fft.ifft(coeffs, size, axis=axis, norm="forward")


def cauchy_extend(boundary: TrigSeries, tau) -> complex | np.ndarray:
    """Holomorphic extension sum_{k>=0} c_k tau^k at |tau| < 1.

    Negative modes are ignored; quantify them separately with
    ``negative_tail_norm``.
    """
    tau_arr = np.asarray(tau, dtype=complex)
    if not np.all(np.abs(tau_arr) < 1.0):
        raise PreconditionError("cauchy_extend requires |tau| < 1")
    n = boundary.grid.size
    c = boundary.coeffs[n // 2:]          # k = 0 .. N/2-1
    values = power_series(c, tau_arr)
    if np.isscalar(tau) or np.ndim(tau) == 0:
        return complex(values)
    return values


def negative_tail_norm(series: TrigSeries) -> float:
    """l2 norm of the negative-wavenumber coefficients."""
    n = series.grid.size
    return float(np.linalg.norm(series.coeffs[:n // 2]))


def continuous_log(values: np.ndarray, max_jump: float = np.pi / 2):
    """Continuous branch of log along a sampled closed curve.

    Returns ``(log_values, winding)`` where ``winding`` is the integer
    index of the curve about the origin.  Raises when a node-to-node
    phase jump reaches ``max_jump`` (under-resolved curve) or when a
    value vanishes.
    """
    values = np.asarray(values, dtype=complex)
    mags = np.abs(values)
    if np.min(mags) <= 1e-10:
        raise PreconditionError("curve passes through (or too close to) 0")
    ratios = np.roll(values, -1) / values
    jumps = np.angle(ratios)              # principal value in (-pi, pi]
    if np.max(np.abs(jumps)) >= max_jump:
        raise PreconditionError(
            "phase jump >= pi/2 between adjacent nodes; curve under-resolved")
    winding = int(round(np.sum(jumps) / (2.0 * np.pi)))
    phase0 = np.angle(values[0])
    phases = phase0 + np.concatenate(([0.0], np.cumsum(jumps[:-1])))
    return np.log(mags) + 1j * phases, winding


def log_lift(series: TrigSeries) -> TrigSeries:
    """Continuous branch of log(series) on the grid.

    Requires the sampled curve to stay away from 0 and to have winding
    number 0 about the origin; ``exp`` of the result reproduces the
    input nodewise.
    """
    values = synthesize(series)
    logs, winding = continuous_log(values)
    if winding != 0:
        raise WindingNumberError(
            f"curve has winding number {winding} about 0, expected 0")
    return analyze(logs, series.grid)
