"""Meromorphic conormal lifts of stationary discs.

The lift of an attached disc phi is the covector field phi* with one
simple pole at 0 whose boundary values lie in the conormal bundle:
phi*(e^{i theta}) = g(theta) * drho(phi(e^{i theta})) with g real.  It
is computed explicitly through a Riemann problem for the factor g:
after a unitary coordinate rotation making the first gradient component
dominant along the boundary, the curve

    h(tau) = tau * d_{z_1} rho(phi(tau)),   |tau| = 1,

has winding number zero; with f = log h, the holomorphic completion
G = -T(Im f) + i Im f of the phase (T the harmonic conjugate pinned at
tau = 1) yields the positive factor

    g = exp(Re G - Re f) / (value at tau = 1),

and g * h extends holomorphically.  The lift is rescaled by a real
constant so phi*(1) is the unit outward conormal at phi(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import (CircleGrid, analyze, continuous_log,
                     hilbert_conjugate, power_series, synthesize)
from .discs import _complete_unitary
from .domains import ConvexDomain
from .errors import PreconditionError, WindingNumberError

INJECTIVITY_GAP = 1e-8


@dataclass
class ConormalLift:
    """phi*(tau) = pole_coeff / tau + sum_k holo_coeffs[k] tau^k.

    ``pole_coeff`` is the residue at the simple pole 0 (evaluation at 0
    means this residue).  ``g_boundary`` is the real conormal factor on
    the disc grid, normalized to 1 at theta = 0; the stored lift itself
    carries the unit-outward-conormal normalization at tau = 1.
    """

    pole_coeff: np.ndarray
    holo_coeffs: np.ndarray
    disc: object
    g_boundary: np.ndarray

    def __post_init__(self):
        self.pole_coeff = np.asarray(self.pole_coeff, dtype=complex)
        self.holo_coeffs = np.asarray(self.holo_coeffs, dtype=complex)

    @property
    def dimension(self) -> int:
        return self.pole_coeff.shape[0]

    def residue(self) -> np.ndarray:
        return self.pole_coeff

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=complex)
        if np.any(np.abs(tau) < 1e-14):
            raise PreconditionError(
                "lift has a pole at 0; use residue() for the pole value")
        return self.pole_coeff / tau[..., None] \
            + power_series(self.holo_coeffs, tau)

    def boundary_values(self, grid: CircleGrid | None = None) -> np.ndarray:
        grid = grid or self.disc.grid
        return self(grid.nodes)

    def to_json(self) -> dict:
        out = self.disc.to_json()
        out["pole_coeff"] = [[float(z.real), float(z.imag)]
                             for z in self.pole_coeff]
        out["lift_coeffs"] = [[[float(z.real), float(z.imag)] for z in row]
                              for row in self.holo_coeffs]
        return out


def default_coordinate_rotation(domain: ConvexDomain, disc) -> np.ndarray:
    """Unitary sending the unit outward conormal at phi(1) to (1,0,...)."""
    p1 = disc(np.array([1.0 + 0.0j]))[0]
    grad1 = domain.grad(p1)
    v1 = np.conj(grad1) / np.linalg.norm(grad1)
    return np.conj(_complete_unitary([v1])).T      # rows v_j^H


def lift_from_disc(domain: ConvexDomain, disc, coordinate_rotation=None,
                   attach_tol: float = 1e-6,
                   stationarity_tol: float = 1e-6) -> ConormalLift:
    """Conormal lift of a stationary disc via the explicit
    Hilbert-transform construction (see module docstring)."""
    residual = disc.boundary_residual(domain)
    if residual > attach_tol:
        raise PreconditionError(
            f"disc is not attached: boundary residual {residual:.3g}")
    if disc.injectivity_gap() <= INJECTIVITY_GAP:
        raise PreconditionError("disc boundary is not injective on the grid")

    N = disc.grid.size
    grid2 = CircleGrid(2 * N)
    tau2 = grid2.nodes
    pts = disc(tau2)
    grads = domain.grad(pts)

    if coordinate_rotation is None:
        U = default_coordinate_rotation(domain, disc)
    else:
        U = np.asarray(coordinate_rotation, dtype=complex)
        if np.max(np.abs(U @ np.conj(U).T - np.eye(len(U)))) > 1e-10:
            raise PreconditionError("coordinate_rotation must be unitary")

    rot_first = grads @ np.conj(U[0])
    h = tau2 * rot_first
    try:
        log_h, winding = continuous_log(h)
    except PreconditionError as exc:
        raise WindingNumberError(
            f"rotated gradient component unusable on the boundary: {exc}")
    if winding != 0:
        raise WindingNumberError(
            f"tau * d_z1 rho(phi) has winding number {winding}; supply a "
            "different coordinate_rotation")

    im_f = analyze(log_h.imag, grid2)
    conj_vals = synthesize(hilbert_conjugate(im_f)).real
    nu = np.exp(-conj_vals - log_h.real)
    g2 = nu / nu[0]                       # g(1) = 1 exactly

    scale = 1.0 / np.linalg.norm(grads[0])
    lift_bnd = (scale * g2)[:, None] * grads
    data = tau2[:, None] * lift_bnd
    half = N                              # analysis grid has 2N modes
    pole = np.empty(disc.dimension, dtype=complex)
    holo = np.empty((N // 2, disc.dimension), dtype=complex)
    tail = 0.0
    total = 0.0
    for c in range(disc.dimension):
        series = analyze(data[:, c], grid2)
        coeffs = series.coeffs            # wavenumbers -N .. N-1, center at N
        tail += float(np.sum(np.abs(coeffs[:half]) ** 2))
        total += float(np.sum(np.abs(coeffs) ** 2))
        pole[c] = coeffs[half]
        holo[:, c] = coeffs[half + 1:half + 1 + N // 2]
    if np.sqrt(tail) > stationarity_tol * max(np.sqrt(total), 1e-30):
        raise PreconditionError(
            "boundary covector field does not extend holomorphically "
            f"(defect {np.sqrt(tail):.3g}): the disc is not stationary")
    return ConormalLift(pole, holo, disc, g2[::2])


def move_pole(lift: ConormalLift, tau_o: complex) -> ConormalLift:
    """Multiply the lift by nu(tau) = (tau - tau_o)(1 - conj(tau_o) tau)/tau.

    nu is real on the unit circle, so boundary conormality is preserved;
    for boundary data whose single simple pole sits at ``tau_o`` the
    product has its pole at 0.  The stored representation always keeps
    the pole slot at 0, and the operation verifies that the multiplied
    data still fits it.
    """
    tau_o = complex(tau_o)
    if abs(tau_o) >= 1.0:
        raise PreconditionError("pole location must satisfy |tau_o| < 1")
    disc = lift.disc
    grid2 = CircleGrid(2 * disc.grid.size)
    tau2 = grid2.nodes
    nu = (tau2 - tau_o) * (1.0 - np.conj(tau_o) * tau2) / tau2
    boundary = lift(tau2) * nu[:, None]
    return _lift_from_boundary(disc, boundary, grid2)


def _lift_from_boundary(disc, boundary, grid2,
                        pole_tol: float = 1e-8) -> ConormalLift:
    """Extract (pole, holomorphic part) from conormal boundary values."""
    N = disc.grid.size
    domain = disc.domain
    tau2 = grid2.nodes
    data = tau2[:, None] * boundary
    half = N
    n = boundary.shape[1]
    pole = np.empty(n, dtype=complex)
    holo = np.empty((N // 2, n), dtype=complex)
    tail = 0.0
    total = 0.0
    for c in range(n):
        coeffs = analyze(data[:, c], grid2).coeffs
        tail += float(np.sum(np.abs(coeffs[:half]) ** 2))
        total += float(np.sum(np.abs(coeffs) ** 2))
        pole[c] = coeffs[half]
        holo[:, c] = coeffs[half + 1:half + 1 + N // 2]
    if np.sqrt(tail) > pole_tol * max(np.sqrt(total), 1e-30):
        raise PreconditionError(
            "boundary data has residual negative modes "
            f"({np.sqrt(tail):.3g}); its pole is not where claimed")
    # re-normalize so the value at tau = 1 is the unit outward conormal
    grad1 = domain.grad(disc(np.array([1.0 + 0.0j]))[0])
    target = grad1 / np.linalg.norm(grad1)
    current = pole + holo.sum(axis=0)
    kappa = float(np.sum(current * np.conj(target)).real)
    if abs(kappa) < 1e-14:
        raise PreconditionError("degenerate boundary data")
    pole /= kappa
    holo /= kappa
    d = domain.grad(disc(grid2.nodes[::2]))
    w = boundary[::2] / kappa
    g_bnd = np.sum(w * np.conj(d), axis=1).real / np.sum(np.abs(d) ** 2, axis=1)
    g_bnd = g_bnd / g_bnd[0]
    return ConormalLift(pole, holo, disc, g_bnd)


def projectivize(lift: ConormalLift, tau: complex) -> np.ndarray:
    """Distinguished representative of [phi*(tau)]: scaled so the
    largest-modulus coordinate equals 1, lowest index winning ties
    (within 1e-12 relative).  At tau = 0 the value is the residue."""
    tau = complex(tau)
    if abs(tau) > 1.0 + 1e-12:
        raise PreconditionError("projectivize requires |tau| <= 1")
    if tau == 0.0:
        value = lift.residue().copy()
    else:
        value = lift(np.array([tau]))[0]
    mags = np.abs(value)
    top = float(np.max(mags))
    if top < 1e-13:
        raise PreconditionError("cannot projectivize a zero covector")
    idx = int(np.nonzero(mags >= top * (1.0 - 1e-12))[0][0])
    return value / value[idx]


def boundary_conormality_residual(domain: ConvexDomain, disc,
                                  lift: ConormalLift) -> float:
    """max over grid nodes of the relative distance from phi*(e^{i theta})
    to the real line spanned by drho(phi(e^{i theta}))."""
    nodes = disc.grid.nodes
    w = lift(nodes)
    d = domain.grad(disc(nodes))
    t = np.sum(w * np.conj(d), axis=1).real / np.sum(np.abs(d) ** 2, axis=1)
    dist = np.linalg.norm(w - t[:, None] * d, axis=1)
    return float(np.max(dist / np.linalg.norm(w, axis=1)))


def disc_separation_integral(lift1: ConormalLift, lift2: ConormalLift,
                             n_nodes: int = 512) -> float:
    """The boundary integral int Re< phi1* - phi2*, phi2 - phi1 > dtheta
    (bilinear pairing).

    For distinct stationary discs of a strongly convex domain with the
    standard outward normalization the integrand keeps one strict sign
    (negative), so the integral is bounded away from zero; it is a
    distinctness diagnostic, not an equality test.
    """
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    tau = np.exp(1j * theta)
    dl = lift1(tau) - lift2(tau)
    dp = lift2.disc(tau) - lift1.disc(tau)
    integrand = np.sum(dl * dp, axis=1).real
    return float(np.mean(integrand) * 2.0 * np.pi)
