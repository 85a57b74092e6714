"""The Lempert Riemann map of a strongly convex domain.

For a fixed interior point z, Psi_z sends w to xi * t, where the
geodesic through z and w is normalized by phi(0) = z, phi(xi) = w with
xi in (0,1) and t is the unit tangent phi'(0)/|phi'(0)|.  Psi_z is a
diffeomorphism onto the punctured unit ball, mapping boundary to
boundary; its inverse is exactly the center-direction parametrization,
so no numerical inversion is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discs import SolverSettings, _solve_cd_raw, solve_two_point
from .domains import ConvexDomain
from .errors import PreconditionError

DIAGONAL_MARGIN = 1e-6


@dataclass
class RiemannMapSample:
    z: np.ndarray
    w: np.ndarray
    psi_value: np.ndarray
    xi: float


def psi(domain: ConvexDomain, z, w,
        settings: SolverSettings | None = None) -> RiemannMapSample:
    """Pointwise evaluation of the Riemann map Psi_z(w)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.linalg.norm(w - z) < DIAGONAL_MARGIN:
        raise PreconditionError(
            "Psi_z is ill-conditioned near the diagonal; need |w - z| >= 1e-6")
    disc, xi = solve_two_point(domain, z, w, settings)
    t = disc.base_direction / np.linalg.norm(disc.base_direction)
    return RiemannMapSample(z, w, xi * t, xi)


def psi_inverse(domain: ConvexDomain, z, v,
                settings: SolverSettings | None = None) -> np.ndarray:
    """The point w with Psi_z(w) = v, via the geodesic through z with
    direction v/|v| evaluated at |v|."""
    settings = settings or SolverSettings()
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    xi = np.linalg.norm(v)
    if not 0.0 < xi < 1.0:
        raise PreconditionError("psi_inverse requires 0 < |v| < 1")
    disc = _solve_cd_raw(domain, z, v / xi, settings)
    return disc(np.array([xi + 0.0j]))[0]
