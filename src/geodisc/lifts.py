"""Meromorphic conormal lifts of stationary discs.

The lift of an attached disc phi is the covector field phi* with one
simple pole at 0 whose boundary values lie in the conormal bundle:
phi*(e^{i theta}) = g(theta) * drho(phi(e^{i theta})) with g real.  For
a fixed disc the stationarity equations (ii)-(iii) of
:mod:`geodisc.discs` are linear in g: the Fourier modes -1..-L of

    g(theta) * e^{i theta} * drho(phi(e^{i theta}))

vanish and g(1) = 1.  :func:`lift_from_disc` takes g as the least-squares
solution of exactly the Gauss-Newton g-block of the disc solver, over
real trigonometric polynomials of degree N/4 on the doubled grid, and
extracts the pole and holomorphic part of g * drho(phi) with the same
routine as :func:`move_pole`.  The lift is rescaled by a real constant
so phi*(1) is the unit outward conormal at phi(1).  It is unique, so it
does not depend on coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import (CircleGrid, _count, _tolerance, analyze, power_series,
                     ring_values)
from .discs import _boundary_factor, _conormal_gamma
from .domains import ConvexDomain
from .errors import PreconditionError

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
        """phi* at the nodes of ``grid`` (default the disc's grid)."""
        return self._grid_values((grid or self.disc.grid).size)

    def _grid_values(self, size) -> np.ndarray:
        """phi* at the ``size`` nodes tau_j = e^{2 pi i j/size}, of any
        number, from one inverse FFT (:func:`circle.ring_values`): there
        1/tau = tau^(size-1), so the residue is the coefficient of index
        size - 1, and the holomorphic coefficients fold mod size."""
        holo = self.holo_coeffs
        coeffs = np.zeros((max(len(holo), size), self.dimension), dtype=complex)
        coeffs[:len(holo)] = holo
        coeffs[size - 1] += self.pole_coeff
        return ring_values(coeffs, size)

    def to_json(self) -> dict:
        out = self.disc.to_json()
        out["pole_coeff"] = [[float(z.real), float(z.imag)]
                             for z in self.pole_coeff]
        out["lift_coeffs"] = [[[float(z.real), float(z.imag)] for z in row]
                              for row in self.holo_coeffs]
        return out


def lift_from_disc(domain: ConvexDomain, disc, coordinate_rotation=None,
                   attach_tol: float = 1e-6,
                   stationarity_tol: float = 1e-6) -> ConormalLift:
    """Conormal lift of a stationary disc (see module docstring).

    ``coordinate_rotation`` is accepted and ignored: the lift is unique,
    so it is the same in every unitary coordinate system.  Raises
    :class:`PreconditionError` for a tolerance that is not finite and > 0,
    for a detached or non-injective disc, and when g * drho(phi) keeps
    negative modes above ``stationarity_tol`` relative to its norm, i.e.
    the disc is not stationary."""
    _tolerance("attach_tol", attach_tol)
    _tolerance("stationarity_tol", stationarity_tol)
    residual = disc.boundary_residual(domain)
    if residual > attach_tol:
        raise PreconditionError(
            f"disc is not attached: boundary residual {residual:.3g}")
    if disc.injectivity_gap() <= INJECTIVITY_GAP:
        raise PreconditionError("disc boundary is not injective on the grid")
    grid2 = CircleGrid(2 * disc.grid.size)
    grads = domain.grad(disc.boundary_values(grid2))
    g2 = _boundary_factor(_conormal_gamma(grads, disc.grid.size // 4),
                          grid2.size)
    return _lift_from_boundary(disc, g2[:, None] * grads, grid2,
                               stationarity_tol, domain)


def move_pole(lift: ConormalLift, tau_o: complex) -> ConormalLift:
    """Multiply the lift by nu(tau) = (tau - tau_o)(1 - conj(tau_o) tau)/tau.

    nu is real on the unit circle, so boundary conormality is preserved;
    for boundary data whose single simple pole sits at ``tau_o`` the
    product has its pole at 0.  The stored representation always keeps
    the pole slot at 0, and the operation verifies that the multiplied
    data still fits it.
    """
    tau_o = complex(tau_o)
    if not abs(tau_o) < 1.0:
        raise PreconditionError("pole location must satisfy |tau_o| < 1")
    disc = lift.disc
    grid2 = CircleGrid(2 * disc.grid.size)
    tau2 = grid2.nodes
    nu = (tau2 - tau_o) * (1.0 - np.conj(tau_o) * tau2) / tau2
    boundary = lift.boundary_values(grid2) * nu[:, None]
    return _lift_from_boundary(disc, boundary, grid2)


def _lift_from_boundary(disc, boundary, grid2, tol: float = 1e-8,
                        domain: ConvexDomain | None = None) -> ConormalLift:
    """Extract (pole, holomorphic part) from conormal boundary values on
    ``grid2``, the doubled disc grid, and normalize the result to the unit
    outward conormal of ``domain`` (default ``disc.domain``) at tau = 1.
    Raises :class:`PreconditionError` when the negative modes of tau *
    boundary exceed ``tol`` relative to its norm."""
    N = disc.grid.size
    if domain is None:
        domain = disc.domain
    # wavenumbers -N .. N-1 of every component, from one FFT
    coeffs = analyze(grid2.nodes[:, None] * boundary, grid2).coeffs
    tail = float(np.linalg.norm(coeffs[:N]))
    if tail > tol * max(float(np.linalg.norm(coeffs)), 1e-30):
        raise PreconditionError(
            "boundary data has residual negative modes "
            f"({tail:.3g}): it does not extend holomorphically "
            "with one simple pole at 0")
    pole, holo = coeffs[N], coeffs[N + 1:N + 1 + N // 2]
    # re-normalize so the value at tau = 1 (the first disc node) is the
    # unit outward conormal
    d = domain.grad(disc.boundary_values())
    target = d[0] / np.linalg.norm(d[0])
    current = pole + holo.sum(axis=0)
    kappa = float(np.sum(current * np.conj(target)).real)
    if abs(kappa) < 1e-14:
        raise PreconditionError("degenerate boundary data")
    w = boundary[::2] / kappa
    g_bnd = np.sum(w * np.conj(d), axis=1).real / np.sum(np.abs(d) ** 2, axis=1)
    g_bnd = g_bnd / g_bnd[0]
    return ConormalLift(pole / kappa, holo / kappa, disc, g_bnd)


def projectivize(lift: ConormalLift, tau: complex) -> np.ndarray:
    """Distinguished representative of [phi*(tau)]: scaled so the
    largest-modulus coordinate equals 1, lowest index winning ties
    (within 1e-12 relative).  At tau = 0 the value is the residue."""
    tau = complex(tau)
    if not abs(tau) <= 1.0 + 1e-12:
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
    w = lift.boundary_values(disc.grid)
    d = domain.grad(disc.boundary_values())
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
    distinctness diagnostic, not an equality test.  Raises
    :class:`PreconditionError` unless ``n_nodes`` is an integer >= 1.
    """
    _count("n_nodes", n_nodes)
    dl = lift1._grid_values(n_nodes) - lift2._grid_values(n_nodes)
    dp = ring_values(lift2.disc.coeffs, n_nodes) \
        - ring_values(lift1.disc.coeffs, n_nodes)
    integrand = np.sum(dl * dp, axis=1).real
    return float(np.mean(integrand) * 2.0 * np.pi)
