import copy
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geodisc import (make_ball, make_ellipsoid, make_perturbed_ball,
                     ball_geodesic, solve_from_center_direction,
                     solve_two_point, reparametrize, extremality_probe,
                     kobayashi_distance, poincare_distance,
                     boundary_hausdorff, AnalyticDisc, SolverSettings,
                     MoebiusMap, CircleGrid, PreconditionError,
                     SolverDivergence)
from geodisc import discs as discs_module
from geodisc.discs import (_CenterDirectionSystem, _TwoPointSystem,
                           _ball_point_sensitivity, _ball_series,
                           _coordinate_tangents, _damped_newton,
                           _direction_tangents, _parameter_tangent,
                           _solve_cd_raw, _tangent_at)

BALL = make_ball([0, 0], 1.0)
SETTINGS = SolverSettings()
SMALL = SolverSettings(modes=32, grid=CircleGrid(128))


def random_interior(rng, n, radius=0.6):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return radius * rng.uniform(0.1, 1.0) ** (1 / (2 * n)) * z / np.linalg.norm(z)


def random_direction(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_ball_geodesic_through_center():
    d = ball_geodesic(BALL, np.zeros(2), np.array([1.0, 0.0]), SETTINGS)
    tau = np.exp(1j * np.linspace(0, 2, 9))
    assert np.max(np.abs(d(tau) - np.stack([tau, 0 * tau], axis=-1))) < 1e-14
    d2 = ball_geodesic(BALL, np.zeros(2), np.array([0.0, 2.0j]), SETTINGS)
    assert np.max(np.abs(d2(tau) - np.stack([0 * tau, 1j * tau], axis=-1))) < 1e-14
    # direction is normalized: phi'(0) = r*v with r = 1/2 for |v| = 2
    assert np.allclose(d2.base_direction, [0.0, 1.0j])


def test_ball_geodesic_moebius_example():
    d = ball_geodesic(BALL, np.array([0.5, 0.0]), np.array([1.0, 0.0]),
                      SETTINGS)
    tau = np.exp(1j * np.linspace(0, 2 * np.pi, 11))
    expected = np.stack([(tau + 0.5) / (1 + tau / 2), 0 * tau], axis=-1)
    assert np.max(np.abs(d(tau) - expected)) < 1e-13
    assert np.allclose(d.base_point, [0.5, 0.0])
    assert d.boundary_residual() < 1e-13


def test_ball_geodesic_normalizations():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = random_interior(rng, 2)
        v = random_direction(rng, 2)
        d = ball_geodesic(BALL, z, v, SETTINGS)
        assert np.linalg.norm(d.base_point - z) < 1e-14
        ratio = d.base_direction @ np.conj(v)
        assert abs(ratio.imag) < 1e-13 and ratio.real > 0
        assert np.linalg.norm(d.base_direction - ratio * v) < 1e-13
        assert d.boundary_residual() < 1e-10


def test_jacobian_matches_finite_differences():
    # the analytic Jacobian of the spectral system against central FD
    rng = np.random.default_rng(5)
    domain = make_perturbed_ball(0.05, "re_z1_sq")
    settings = SolverSettings(modes=8, grid=CircleGrid(32))
    z = np.array([0.1 + 0.05j, -0.2 + 0.1j])
    v = random_direction(rng, 2)
    system = _CenterDirectionSystem(domain, z, v, settings)
    disc = ball_geodesic(make_ball([0, 0], 0.9), z, v, settings)
    u = system.initial_state(disc.coeffs)
    u += 0.01 * rng.standard_normal(len(u))
    J, _ = system.jacobian(u)
    h = 1e-7
    cols = rng.choice(len(u), size=12, replace=False)
    for i in cols:
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        fd = (system.residual(up)[0] - system.residual(um)[0]) / (2 * h)
        assert np.max(np.abs(J[:, i] - fd)) < 1e-6


def _interleave_rows(rows):
    out = np.empty((2 * rows.shape[0], rows.shape[1]))
    out[0::2] = rows.real
    out[1::2] = rows.imag
    return out


def _field_columns(lin, dphi):
    """The pointwise residual derivatives (Drho (nn, P), Dw (nn, n, P))
    along the field perturbations ``dphi`` (nn, P, n)."""
    gt, grads, A, C = lin
    Drho = 2.0 * np.real(np.einsum("ja,jpa->jp", grads, dphi))
    Dw = np.einsum("jab,jpb->jap", A, dphi) \
        + np.einsum("jab,jpb->jap", C, np.conj(dphi))
    return Drho, Dw * gt[:, None, None]


def _spectral_rows(system, Drho, Dw, gauge):
    """Residual rows (attachment modes, lift modes, gauge) of the
    pointwise derivative columns ``Drho`` (nn, P), ``Dw`` (nn, n, P),
    each through its own FFT."""
    nn, n, L = system.nn, system.n, system.L
    Drho_hat = np.fft.fft(Drho, axis=0, norm="forward")
    Dw_hat = np.fft.fft(Dw.reshape(nn, -1), axis=0,
                        norm="forward").reshape(Dw.shape)
    rows = [Drho_hat[0].real[None, :],
            _interleave_rows(Drho_hat[1:L + 1])]
    for c in range(n):
        neg = Dw_hat[nn - 1:nn - 1 - L:-1, c, :]
        rows.append(_interleave_rows(neg))
    rows.append(gauge[None, :])
    return np.vstack(rows)


def _dense_reference_jacobian(system, u):
    """The Gauss-Newton Jacobian one column at a time: each unit field
    perturbation (delta phi = v tau for r, e_c tau^k and i e_c tau^k for
    a_k, k = 2..M, and delta g = 1, cos j theta, sin j theta) through
    the pointwise derivative and its own FFT; then F_p, the columns of
    delta phi = dz and r tau dv for dz, dv = e_c, i e_c."""
    nn, n, M, K = system.nn, system.n, system.M, system.K
    lin = system._linearization(u)
    grads = lin[1]
    tau = system.tau[:, None]
    dphi = [tau * system.v]
    for k in range(2, M + 1):
        for c in range(n):
            e = np.eye(n)[c]
            dphi += [tau ** k * e, 1j * tau ** k * e]
    dphi = np.stack(dphi, axis=1)                           # (nn, P, n)
    Drho_phi, Dw_phi = _field_columns(lin, dphi)

    theta = 2.0 * np.pi * np.arange(nn) / nn
    basis = [np.ones(nn)]
    for j in range(1, K + 1):
        basis += [np.cos(j * theta), np.sin(j * theta)]
    basis = np.stack(basis, axis=1)                         # (nn, 1 + 2K)
    Dw_g = (tau * grads)[:, :, None] * basis[:, None, :]
    Drho = np.concatenate([Drho_phi, np.zeros((nn, basis.shape[1]))], axis=1)
    Dw = np.concatenate([Dw_phi, Dw_g], axis=2)
    gauge = np.concatenate([np.zeros(dphi.shape[1]), basis[0]])    # g(1)
    E = np.concatenate([np.eye(n), 1j * np.eye(n)])
    dpar = np.concatenate([np.broadcast_to(E, (nn,) + E.shape),
                           u[0] * tau[:, :, None] * E], axis=1)
    Drho_p, Dw_p = _field_columns(lin, dpar)
    return (_spectral_rows(system, Drho, Dw, gauge),
            _spectral_rows(system, Drho_p, Dw_p, np.zeros(4 * n)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("modes,grid", [(8, 32), (32, 128)])
def test_jacobian_matches_dense_reference(n, modes, grid):
    # every column of the mode-shift assembly, and of F_p, against its
    # own FFT
    rng = np.random.default_rng(11)
    domain = make_perturbed_ball(0.05, "re_z1_sq", dimension=n)
    settings = SolverSettings(modes=modes, grid=CircleGrid(grid))
    z = random_interior(rng, n, radius=0.3)
    v = random_direction(rng, n)
    system = _CenterDirectionSystem(domain, z, v, settings)
    disc = ball_geodesic(make_ball(np.zeros(n), 0.9), z, v, settings)
    u = system.initial_state(disc.coeffs)
    u += 0.01 * rng.standard_normal(len(u))                 # not converged
    J, Fp = system.jacobian(u)
    ref, ref_p = _dense_reference_jacobian(system, u)
    assert J.shape == ref.shape == (len(system.residual(u)[0]), system.size)
    assert np.max(np.abs(J - ref)) < 1e-12
    assert Fp.shape == ref_p.shape == (len(J), 4 * n)
    assert np.max(np.abs(Fp - ref_p)) < 1e-12


def test_solver_matches_oracle_on_ball():
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = random_interior(rng, 2)
        v = random_direction(rng, 2)
        disc, lift = solve_from_center_direction(BALL, z, v, SETTINGS)
        oracle = ball_geodesic(BALL, z, v, SETTINGS)
        sup = np.max(np.abs(disc.boundary_values() - oracle.boundary_values()))
        assert sup < 1e-8
        assert disc.attachment_residual < 1e-10
        assert np.linalg.norm(disc.base_point - z) < 1e-14
        ratio = disc.base_direction @ np.conj(v)
        assert abs(ratio.imag) < 1e-10 and ratio.real > 0


def test_solver_converges_from_perturbed_start():
    # a genuine Newton exercise: start away from the solution
    rng = np.random.default_rng(2)
    z = np.array([0.3 + 0.1j, -0.2j])
    v = random_direction(rng, 2)
    oracle = ball_geodesic(BALL, z, v, SETTINGS)
    bad = oracle.coeffs.copy()
    bad[2:] += 0.02 * (rng.standard_normal(bad[2:].shape)
                       + 1j * rng.standard_normal(bad[2:].shape))
    solved = _solve_cd_raw(BALL, z, v, SETTINGS,
                           warm=AnalyticDisc(bad, SETTINGS.grid, BALL))
    assert solved.attachment_residual < 1e-10
    assert np.max(np.abs(solved.boundary_values()
                         - oracle.boundary_values())) < 1e-8


def test_solver_on_ellipsoid_continuation():
    domain = make_ellipsoid([1.3, 0.9])
    disc, lift = solve_from_center_direction(
        domain, np.array([0.2 + 0.1j, 0.1j]), np.array([1.0, 0.5j]), SETTINGS)
    assert disc.attachment_residual < 1e-10
    assert disc.injectivity_gap() > 1e-4


class _ContinuationLog:
    """Counts, through monkeypatched seams, the blended domains a cold solve
    builds, the Gauss-Newton Jacobians it assembles, the outcome of each
    Gauss-Newton call on ``target`` and the Gauss-Newton calls on any other
    domain that is not a blend."""

    def __init__(self, monkeypatch, target):
        self.blends = 0
        self.jacobians = 0
        self.target_calls = []              # True for a converged call
        self.other_calls = 0
        blend = discs_module._blend
        jacobian = _CenterDirectionSystem.jacobian
        gauss_newton = _CenterDirectionSystem.gauss_newton

        def counting_blend(*args):
            self.blends += 1
            return blend(*args)

        def counting_jacobian(system, u):
            self.jacobians += 1
            return jacobian(system, u)

        def logging_gauss_newton(system, *args, **kwargs):
            if system.domain is not target:
                self.other_calls += system.domain.kind != "blend"
                return gauss_newton(system, *args, **kwargs)
            try:
                out = gauss_newton(system, *args, **kwargs)
            except SolverDivergence:
                self.target_calls.append(False)
                raise
            self.target_calls.append(True)
            return out

        monkeypatch.setattr(discs_module, "_blend", counting_blend)
        monkeypatch.setattr(_CenterDirectionSystem, "jacobian",
                            counting_jacobian)
        monkeypatch.setattr(_CenterDirectionSystem, "gauss_newton",
                            logging_gauss_newton)


def test_cold_solve_tries_the_domain_directly(monkeypatch):
    domain = make_perturbed_ball(0.05)
    rng = np.random.default_rng(5)
    log = _ContinuationLog(monkeypatch, domain)
    for _ in range(3):
        z = random_interior(rng, 2, radius=0.4)
        v = random_direction(rng, 2)
        before = log.jacobians
        disc = _solve_cd_raw(domain, z, v, SETTINGS)
        assert disc.attachment_residual <= SETTINGS.newton_tol
        assert log.jacobians - before <= 8
    assert log.blends == 0 and log.target_calls == [True] * 3
    # the inscribed ball's state is closed form: no Gauss-Newton runs on it
    assert log.other_calls == 0


@pytest.mark.parametrize("center,radius", [([0, 0], 1.0),
                                           ([0.1, -0.2j], 0.8)])
def test_cold_ball_solve_inside_the_resolvable_radius_builds_no_jacobian(
        monkeypatch, center, radius):
    # with |mu|^M below newton_tol the closed-form coefficients and g are
    # the solved state: Gauss-Newton is converged before its first step
    ball = make_ball(center, radius)
    rng = np.random.default_rng(11)
    log = _ContinuationLog(monkeypatch, ball)
    for _ in range(4):
        z = ball.center + radius * random_interior(rng, 2)
        v = random_direction(rng, 2)
        mu = _ball_series((z - ball.center) / radius, v)[1]
        assert abs(mu) ** SETTINGS.modes < SETTINGS.newton_tol
        disc = _solve_cd_raw(ball, z, v, SETTINGS)
        exact = ball_geodesic(ball, z, v, SETTINGS)
        assert np.max(np.abs(disc.coeffs - exact.coeffs)) < 1e-15
        assert np.array_equal(disc.solver_g, exact.solver_g)
    assert log.jacobians == 0 and log.blends == 0 and log.other_calls == 0
    assert log.target_calls == [True] * 4


def test_continuation_steps_land_on_the_domain(monkeypatch):
    # ten steps of 0.1 sum to 1 - 1e-16: the tenth step must be the domain
    # itself, not a blend a roundoff short of it
    domain = make_perturbed_ball(0.05)
    settings = SolverSettings(modes=32, grid=CircleGrid(128),
                              continuation_steps=10)
    log = _ContinuationLog(monkeypatch, domain)
    _solve_cd_raw(domain, np.array([0.3, 0.1j]), np.array([1.0, 0.5j]),
                  settings)
    assert log.blends == 9
    assert log.target_calls == [True]


def test_continuation_subdivides_when_newton_fails(monkeypatch):
    # three iterations do not reach the ellipsoid from the inscribed ball
    # in one step, so the homotopy is halved until they do
    domain = make_ellipsoid([1.3, 0.9])
    settings = SolverSettings(modes=32, grid=CircleGrid(128), max_iters=3)
    log = _ContinuationLog(monkeypatch, domain)
    disc = _solve_cd_raw(domain, np.array([0.2 + 0.1j, 0.1j]),
                         np.array([1.0, 0.5j]), settings)
    assert log.target_calls[0] is False and log.target_calls[-1] is True
    assert log.blends > 0 and log.other_calls == 0
    assert disc.boundary_residual() <= 1e-10


def test_continuation_stops_at_the_resolution_floor(monkeypatch):
    # at M = 32 this radial disc stagnates below newton_tol on the domain
    # itself; no shorter homotopy step can lower that floor, so the solve
    # gives up on the first stagnation instead of halving down to 1e-4
    domain = make_perturbed_ball(0.05)
    settings = SolverSettings(modes=32, grid=CircleGrid(128))
    log = _ContinuationLog(monkeypatch, domain)
    with pytest.raises(SolverDivergence) as info:
        _solve_cd_raw(domain, np.array([0.45, 0j]), np.array([1.0, 0j]),
                      settings)
    assert info.value.stagnated
    assert info.value.last_residual <= settings.newton_tol
    assert log.jacobians < 20
    assert log.blends == 0


@pytest.mark.parametrize("modes,grid", [(32, 128), (64, 256)])
def test_ball_geodesic_carries_its_solved_state(modes, grid):
    # the closed-form g = |1 - mu tau|^2 / |1 - mu|^2 is the factor
    # Gauss-Newton reaches from the same disc started at g = 1, and the
    # parameter tangent linearized at the closed-form state is the ball's
    # own point sensitivity
    settings = SolverSettings(modes=modes, grid=CircleGrid(grid))
    ball = make_ball([0.1, -0.2j], 0.8)
    z, v = np.array([0.25 + 0.1j, -0.1 - 0.15j]), np.array([0.6, 0.8j])
    disc = ball_geodesic(ball, z, v, settings)
    solved = _solve_cd_raw(ball, z, v, settings,
                           warm=dataclasses.replace(disc, solver_g=None))
    assert solved.solver_g.shape == disc.solver_g.shape == (1 + 2 * modes,)
    assert np.max(np.abs(solved.solver_g - disc.solver_g)) < 1e-10

    ew, ev = _coordinate_tangents(2), _direction_tangents(v)
    dz = np.concatenate([ew, np.zeros_like(ev)])
    dv = np.concatenate([np.zeros_like(ew), ev])
    tangent = _parameter_tangent(ball, disc, settings)
    for s in (0.3 + 0.2j, -0.5j, 0.7, 0.95 * np.exp(2.0j)):
        exact = _ball_point_sensitivity(ball, z, v / np.linalg.norm(v), s,
                                        modes, dz, dv)
        assert np.max(np.abs(_tangent_at(tangent, s, dz, dv) - exact)) < 1e-10


def _nan_in(x, k=0, value=np.nan):
    x = np.array(x, dtype=complex)
    x[k] = value
    return x


_Z, _V = np.array([0.2 + 0.1j, -0.1j]), np.array([1.0, 0.5j])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [
    pytest.param(lambda: solve_from_center_direction(BALL, _nan_in(_Z), _V,
                                                     SMALL), id="nan-z"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, _nan_in(_Z, 1, np.inf), _V, SMALL), id="inf-z"),
    pytest.param(lambda: solve_from_center_direction(BALL, _Z, _nan_in(_V),
                                                     SMALL), id="nan-v"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, _Z, _nan_in(_V, 1, -np.inf), SMALL), id="inf-v"),
    pytest.param(lambda: solve_from_center_direction(
        make_perturbed_ball(0.05), _nan_in(_Z, 1), _V, SMALL),
        id="nan-z-perturbed"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, np.append(_Z, 0.0), _V, SMALL), id="long-z"),
    pytest.param(lambda: solve_from_center_direction(BALL, _Z, _V[:1],
                                                     SMALL), id="short-v"),
    pytest.param(lambda: solve_from_center_direction(BALL, _Z[None, :], _V,
                                                     SMALL), id="matrix-z"),
    pytest.param(lambda: ball_geodesic(BALL, _nan_in(_Z), _V, SMALL),
                 id="ball-geodesic-nan-z"),
    pytest.param(lambda: ball_geodesic(BALL, _Z, np.append(_V, 1.0), SMALL),
                 id="ball-geodesic-long-v"),
    pytest.param(lambda: solve_two_point(BALL, _Z, _nan_in(0.3 * _V), SMALL),
                 id="two-point-nan-w"),
    pytest.param(lambda: make_ball([0.0, 0.0], np.nan), id="nan-radius"),
    pytest.param(lambda: make_ball([0.0, 0.0], np.inf), id="inf-radius"),
    pytest.param(lambda: make_ball([np.nan, 0.0], 1.0), id="nan-center"),
    pytest.param(lambda: SolverSettings(modes=0), id="zero-modes"),
    pytest.param(lambda: SolverSettings(modes=-1), id="negative-modes"),
])
def test_bad_inputs_raise_precondition_errors(call):
    with pytest.raises(PreconditionError):
        call()


def test_injectivity_gap_matches_the_pairwise_minimum():
    # the nearest-node candidates of one matrix product give the exact
    # minimum over all O(N^2) pairs
    domain = make_perturbed_ball(0.05)
    discs = [
        ball_geodesic(BALL, np.array([0.3, 0.1j]), np.array([1.0, 0.5j]),
                      SETTINGS),
        ball_geodesic(BALL, np.array([0.7, 0.1j]), np.array([1.0, 0.0]),
                      SMALL),
        _solve_cd_raw(domain, np.array([0.2, 0.1j]), np.array([1.0, 0.5j]),
                      SETTINGS),
    ]
    for disc in discs:
        b = disc.boundary_values()
        d = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=-1)
        d[np.diag_indices_from(d)] = np.inf
        assert disc.injectivity_gap() == pytest.approx(np.min(d), rel=1e-12)


def test_solver_preconditions():
    with pytest.raises(PreconditionError):
        solve_from_center_direction(BALL, np.array([1.5, 0.0]),
                                    np.array([1.0, 0.0]), SETTINGS)
    with pytest.raises(PreconditionError):
        solve_from_center_direction(BALL, np.zeros(2), np.zeros(2), SETTINGS)


def test_two_point_examples():
    disc, xi = solve_two_point(BALL, np.zeros(2), np.array([0.5, 0.0]),
                               SETTINGS)
    assert abs(xi - 0.5) < 1e-9
    val = disc(np.array([0.5 + 0j]))[0]
    assert np.linalg.norm(val - [0.5, 0.0]) < 1e-9
    _, xi2 = solve_two_point(BALL, np.zeros(2), np.array([0.0, 0.3j]),
                             SETTINGS)
    assert abs(xi2 - 0.3) < 1e-9


def test_two_point_moebius_parameter():
    # antipodal points on a radial line: xi = |(a+a)/(1+a^2)| with a = 1/2
    disc, xi = solve_two_point(BALL, np.array([0.5, 0.0]),
                               np.array([-0.5, 0.0]), SETTINGS)
    assert abs(xi - 0.8) < 1e-8


def test_two_point_symmetry():
    z = np.array([0.25 + 0.1j, -0.15j])
    w = np.array([-0.3 + 0.0j, 0.2 + 0.2j])
    d1, xi1 = solve_two_point(BALL, z, w, SETTINGS)
    d2, xi2 = solve_two_point(BALL, w, z, SETTINGS)
    assert boundary_hausdorff(d1, d2) < 1e-6
    assert abs(xi1 - xi2) < 1e-8       # same pair of points, same parameter


@pytest.mark.parametrize("modes, grid", [(64, 256), (32, 128), (15, 16),
                                         (40, 16), (300, 256)])
def test_boundary_values_match_power_series(modes, grid):
    # folding the coefficients mod N is exact also when M + 1 > N
    rng = np.random.default_rng(modes)
    coeffs = ((rng.standard_normal((modes + 1, 2))
               + 1j * rng.standard_normal((modes + 1, 2)))
              * 0.9 ** np.arange(modes + 1)[:, None])
    disc = AnalyticDisc(coeffs, CircleGrid(grid))
    direct = disc(disc.grid.nodes)
    values = disc.boundary_values()
    assert values.shape == direct.shape
    assert np.max(np.abs(values - direct)) <= 1e-14 * np.max(np.abs(direct))


def test_reparametrize():
    d = ball_geodesic(BALL, np.zeros(2), np.array([1.0, 0.0]), SETTINGS)
    ident = reparametrize(d, MoebiusMap())
    assert np.max(np.abs(ident.coeffs - d.coeffs)) < 1e-12
    alpha = 0.7
    rot = reparametrize(d, MoebiusMap(rotation=np.exp(1j * alpha)))
    tau = np.exp(1j * np.linspace(0, 2, 5))
    assert np.max(np.abs(rot(tau)[:, 0] - np.exp(1j * alpha) * tau)) < 1e-12
    shift = reparametrize(d, MoebiusMap(a=0.5))
    expected = (tau + 0.5) / (1 + tau / 2)
    assert np.max(np.abs(shift(tau)[:, 0] - expected)) < 1e-12


def test_reparametrize_preserves_image():
    d = ball_geodesic(BALL, np.array([0.2, 0.3j]), np.array([1.0, -0.5j]),
                      SETTINGS)
    m = MoebiusMap(a=0.3 - 0.2j, rotation=np.exp(0.9j))
    dr = reparametrize(d, m)
    assert boundary_hausdorff(d, dr) < 1e-9
    assert dr.boundary_residual() < 1e-9


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.floats(0.0, 0.6), st.floats(0.0, 0.5), st.floats(0.0, 2.0 * np.pi),
       st.floats(0.0, 2.0 * np.pi))
def test_reparametrize_keeps_the_image_of_random_ball_geodesics(
        raw, radius, a_abs, a_arg, turn):
    # the composed disc's nearest singularity comes to |tau| ~ 1.18 at
    # |z| = 0.6, |a| = 0.5, so its N/4 kept modes need N = 1024
    raw = np.array(raw)
    z, v = raw[0:4:2] + 1j * raw[1:4:2], raw[4] + 1j * raw[5]
    assume(np.linalg.norm(z) > 1e-6 and abs(v) > 1e-6)
    z = radius * z / np.linalg.norm(z)
    disc = ball_geodesic(BALL, z, np.array([1.0, v]),
                         SolverSettings(modes=64, grid=CircleGrid(1024)))
    m = MoebiusMap(a=a_abs * np.exp(1j * a_arg), rotation=np.exp(1j * turn))
    assert boundary_hausdorff(disc, reparametrize(disc, m)) < 1e-9


def test_moebius_inverse():
    m = MoebiusMap(a=0.4 - 0.1j, rotation=np.exp(0.3j))
    inv = m.inverse()
    tau = 0.7 * np.exp(1j * np.linspace(0, 6, 11))
    assert np.max(np.abs(inv(m(tau)) - tau)) < 1e-13


def test_extremality_probe_scaled_copy():
    disc = ball_geodesic(BALL, np.zeros(2), np.array([1.0, 0.0]), SETTINGS)
    report = extremality_probe(BALL, disc, trials=100, seed=0)
    assert report.max_abs_lambda < 1.0
    assert report.trials == 100
    # Schwarz bound: competitors strictly inside the ball with psi(0)=0
    # satisfy |psi'(0)| <= 1 - margin
    assert report.max_abs_lambda <= 0.999


def test_extremality_probe_off_center():
    disc, _ = solve_from_center_direction(BALL, np.array([0.4, 0.1j]),
                                          np.array([0.3, 1.0]), SETTINGS)
    report = extremality_probe(BALL, disc, trials=60, seed=3)
    assert report.max_abs_lambda < 1.0


def test_extremality_probe_scaled_copies_lie_inside():
    # the unit-ball disc through 0 sticks out of the ball of radius 0.6:
    # its copy tau -> phi(s tau) fits only once s < 0.6
    disc = ball_geodesic(BALL, np.zeros(2), np.array([1.0, 0.0]), SETTINGS)
    small = make_ball([0, 0], 0.6)
    report = extremality_probe(small, disc, trials=40, seed=0)
    assert report.scaled == 10 and len(report.lambdas) == 40
    for s in report.lambdas[:report.scaled]:
        assert s.imag == 0.0 and 0.0 < s.real < 0.6
        assert np.max(small.rho(disc(s.real * disc.grid.nodes))) < 0
    # no scaled copy of a disc centred outside the domain fits
    away = make_ball([2.0, 0], 0.5)
    assert extremality_probe(away, disc, trials=8, seed=0).scaled == 0


def test_kobayashi_distance():
    z0 = np.zeros(2)
    assert kobayashi_distance(BALL, z0, z0, SETTINGS) == 0.0
    d = kobayashi_distance(BALL, z0, np.array([0.5, 0.0]), SETTINGS)
    assert abs(d - 0.5 * np.log(3.0)) < 1e-9
    z = np.array([0.2 + 0.1j, -0.3j])
    w = np.array([-0.1, 0.25 + 0.2j])
    assert abs(kobayashi_distance(BALL, z, w, SETTINGS)
               - kobayashi_distance(BALL, w, z, SETTINGS)) < 1e-8


def test_poincare_distance_moebius_invariance():
    m = MoebiusMap(a=0.3 + 0.4j, rotation=np.exp(1.1j))
    rng = np.random.default_rng(4)
    for _ in range(10):
        t1, t2 = 0.8 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        if max(abs(t1), abs(t2)) >= 1:
            continue
        assert abs(poincare_distance(t1, t2)
                   - poincare_distance(m(t1), m(t2))) < 1e-12


def test_continuity_in_parameters():
    # solved discs converge as (z, v) converges
    z = np.array([0.3, 0.2j])
    v = np.array([1.0, 0.5])
    base, _ = solve_from_center_direction(BALL, z, v, SETTINGS)
    gaps = []
    for eps in (0.1, 0.05, 0.02, 0.01):
        dz = np.array([eps, -eps * 1j])
        disc, _ = solve_from_center_direction(BALL, z + dz, v + eps, SETTINGS)
        gaps.append(np.max(np.abs(disc.boundary_values()
                                  - base.boundary_values())))
    assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    assert gaps[-1] < 0.1


def test_disc_serialization_roundtrip():
    d = ball_geodesic(BALL, np.array([0.2, 0.1j]), np.array([1.0, 1.0j]),
                      SETTINGS)
    data = d.to_json()
    back = AnalyticDisc.from_json(data, BALL)
    assert np.max(np.abs(back.coeffs - d.coeffs)) < 1e-15
    assert back.grid.size == d.grid.size


def test_settings_validation():
    with pytest.raises(PreconditionError):
        SolverSettings(newton_tol=1e-13)
    with pytest.raises(PreconditionError):
        SolverSettings(modes=128, grid=CircleGrid(256))
    for steps in (0, -1):
        with pytest.raises(PreconditionError,
                           match="continuation_steps must be >= 1"):
            SolverSettings(continuation_steps=steps)


def _two_point_state(domain, settings):
    """A two-point system away from its solution, with the solved disc."""
    z = np.array([0.2 + 0.1j, -0.1j])
    w = np.array([-0.1, 0.25 + 0.2j])
    system = _TwoPointSystem(domain, z, w, settings)
    x = np.array([0.5, 0.3, 0.1, -0.2, 0.4])
    _, disc = system.residual(x)
    return system, x, disc


@pytest.mark.parametrize("case", ["ball", "perturbed"])
def test_two_point_jacobian_matches_central_differences(case):
    if case == "ball":
        domain, settings = BALL, SETTINGS
    else:
        domain, settings = make_perturbed_ball(0.05, "re_z1_sq"), SMALL
    system, x, disc = _two_point_state(domain, settings)
    J = system.jacobian(x, disc)
    warm = system.warm
    h = 1e-6
    for i in range(len(x)):
        cols = []
        for sign in (1.0, -1.0):
            xp = x.copy()
            xp[i] += sign * h
            system.warm = warm
            cols.append(system.residual(xp)[0])
        fd = (cols[0] - cols[1]) / (2.0 * h)
        assert np.max(np.abs(J[:, i] - fd)) < 1e-7


def _count_gn_jacobians(monkeypatch):
    calls = []
    jacobian = _CenterDirectionSystem.jacobian

    def counting(system, u):
        calls.append(u)
        return jacobian(system, u)

    monkeypatch.setattr(_CenterDirectionSystem, "jacobian", counting)
    return calls


def test_two_point_jacobian_after_a_warm_solve_builds_no_gn_jacobian(
        monkeypatch):
    system, x, disc = _two_point_state(make_perturbed_ball(0.05, "re_z1_sq"),
                                       SMALL)
    x = x + 0.01
    _, disc = system.residual(x)
    assert system.warm is disc and disc.tangent is not None
    calls = _count_gn_jacobians(monkeypatch)
    system.jacobian(x, disc)
    assert calls == []
    # a disc without a tangent from its solve is linearized once
    system.jacobian(x, dataclasses.replace(disc, tangent=None))
    assert len(calls) == 1


def test_two_point_tangent_belongs_to_its_disc(monkeypatch):
    # the warm slot moving on to another disc leaves the first disc's
    # tangent with it: its Jacobian still builds no GN Jacobian
    system, x_a, _ = _two_point_state(make_perturbed_ball(0.05, "re_z1_sq"),
                                      SMALL)
    x_a = x_a + 0.01
    _, disc_a = system.residual(x_a)
    assert disc_a.tangent is not None
    system.residual(x_a + 0.01)
    assert system.warm is not disc_a
    calls = _count_gn_jacobians(monkeypatch)
    system.jacobian(x_a, disc_a)
    assert calls == []


def test_warm_solve_returns_its_parameter_tangent(monkeypatch):
    # d(coeffs, gamma)/dp along the 4n real perturbations of (z, v),
    # against central differences of discs re-solved to 1e-12.  The
    # tangent of the last step is taken at the state that step started
    # from, so it is exact to first order in that step; built at the
    # converged state it matches to 1e-7
    domain = make_perturbed_ball(0.05, "re_z1_sq")
    z, v = np.array([0.2 + 0.1j, -0.15j]), np.array([0.8, 0.6j])
    start = _solve_cd_raw(domain, z + 0.01, v, SMALL)
    assert start.tangent is None                  # a cold solve
    steps = []
    ls_step = _CenterDirectionSystem._ls_step

    def recording(J, F):
        du = ls_step(J, F)
        steps.append(np.linalg.norm(du[:, 0]))
        return du

    monkeypatch.setattr(_CenterDirectionSystem, "_ls_step",
                        staticmethod(recording))
    disc = _solve_cd_raw(domain, z, v, SMALL, warm=start)
    monkeypatch.undo()
    assert len(steps) >= 2
    dcoeffs, dgamma = disc.tangent
    assert dcoeffs.shape == (8, SMALL.modes + 1, 2)
    assert dgamma.shape == (8, len(disc.solver_g))
    # without its tangent the disc is linearized at the converged state, and
    # the central differences below start from it as it is
    cold = dataclasses.replace(disc, tangent=None)
    built = _parameter_tangent(domain, cold, SMALL)

    fine = SolverSettings(modes=32, grid=CircleGrid(128), newton_tol=1e-12)
    E = np.concatenate([np.eye(2), 1j * np.eye(2)])
    h = 1e-6
    lagged = exact = 0.0
    for p in range(8):
        dz, dv = (E[p], 0.0) if p < 4 else (0.0, E[p - 4])
        plus, minus = (_solve_cd_raw(domain, z + s * h * dz, v + s * h * dv,
                                     fine, warm=cold)
                       for s in (1.0, -1.0))
        fd_c = (plus.coeffs - minus.coeffs) / (2.0 * h)
        fd_g = (plus.solver_g - minus.solver_g) / (2.0 * h)
        lagged = max(lagged, np.max(np.abs(fd_c - dcoeffs[p])),
                     np.max(np.abs(fd_g - dgamma[p])))
        exact = max(exact, np.max(np.abs(fd_c - built[0][p])),
                    np.max(np.abs(fd_g - built[1][p])))
    assert exact < 1e-7
    assert lagged < 1e-7 + 10.0 * steps[-1]


def test_two_point_jacobian_solves_no_discs(monkeypatch):
    system, x, disc = _two_point_state(make_perturbed_ball(0.05, "re_z1_sq"),
                                       SMALL)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _solve_cd_raw(*args, **kwargs)

    monkeypatch.setattr("geodisc.discs._solve_cd_raw", counting)
    system.jacobian(x, disc)
    assert calls == []


def test_solvers_do_not_mutate_domain_meta():
    domain = make_perturbed_ball(0.05, "re_z1_sq")
    before = copy.deepcopy(domain.meta)
    solve_from_center_direction(domain, np.array([0.2 + 0.1j, -0.1j]),
                                np.array([1.0, 0.5j]), SMALL)
    solve_two_point(domain, np.array([0.2 + 0.1j, -0.1j]),
                    np.array([-0.1, 0.25 + 0.2j]), SMALL)
    assert domain.meta.keys() == before.keys()
    for key, value in before.items():
        assert np.array_equal(domain.meta[key], value)


def test_collocation_arrays_are_shared_and_read_only():
    z, v = np.array([0.1, 0.2j]), np.array([1.0, 0.0])
    first = _CenterDirectionSystem(BALL, z, v, SMALL)
    second = _CenterDirectionSystem(BALL, -z, v, SMALL)
    for name in ("tau", "V", "cos_mat", "sin_mat"):
        assert getattr(first, name) is getattr(second, name)
        assert not getattr(first, name).flags.writeable


# -- the damped Newton driver -------------------------------------------------


def _max_norm_below(tol):
    return lambda F, aux: np.max(np.abs(F)) <= tol


def _logged(residual, trials):
    """The toy residual u -> (F, None), recording each state it sees."""
    def wrapped(u):
        trials.append(float(u[0]))
        return residual(u), None
    return wrapped


def test_damped_newton_converged_on_the_last_step_returns():
    # F(u) = u - 2 is linear, so the first full step lands on the root; with
    # one step allowed, convergence after it must return, not raise
    trials = []
    u, F, _ = _damped_newton(np.zeros(1), _logged(lambda u: u - 2.0, trials),
                             lambda u, F, aux: -F, _max_norm_below(1e-12),
                             1e-12, 1)
    assert u[0] == 2.0 and F[0] == 0.0 and trials == [0.0, 2.0]
    # a converged start takes no step at all
    steps = []
    _damped_newton(u, _logged(lambda u: u - 2.0, []),
                   lambda u, F, aux: steps.append(u) or -F,
                   _max_norm_below(1e-12), 1e-12, 5)
    assert steps == []


@pytest.mark.parametrize("error", [PreconditionError, SolverDivergence])
def test_damped_newton_rejects_inadmissible_trials(error):
    # the full step overshoots to u = -1, where the residual is undefined;
    # the driver halves t onto the root instead of propagating the error
    trials = []

    def residual(u):
        if u[0] < 0:
            raise error("outside the admissible region")
        return u.copy()

    u, _, _ = _damped_newton(np.ones(1), _logged(residual, trials),
                             lambda u, F, aux: -2.0 * F,
                             _max_norm_below(1e-12), 1e-12, 5)
    assert u[0] == 0.0 and trials == [1.0, -1.0, 0.0]


def test_damped_newton_line_search_stalls_at_one_thirty_second():
    # an uphill step is rejected at t = 1, 1/2, ..., 1/32 and then reported
    trials = []
    with pytest.raises(SolverDivergence, match="line search stalled") as info:
        _damped_newton(np.ones(1), _logged(lambda u: u.copy(), trials),
                       lambda u, F, aux: F, _max_norm_below(1e-12), 1e-12, 5)
    assert info.value.last_residual == 1.0
    assert trials == [1.0] + [1.0 + 0.5 ** k for k in range(6)]


def test_damped_newton_reports_the_last_residual():
    # a contraction by 1/2 per step is still 1/8 away after three steps
    with pytest.raises(SolverDivergence,
                       match="no convergence in 3 iterations") as info:
        _damped_newton(np.ones(1), _logged(lambda u: u.copy(), []),
                       lambda u, F, aux: -0.5 * F, _max_norm_below(1e-12),
                       1e-12, 3)
    assert info.value.last_residual == 0.125


def test_damped_newton_stops_when_the_residual_stagnates():
    # every step is accepted through "+ tol" but the residual sits on a
    # plateau above the stopping test: five steps that do not halve it
    # end the solve
    steps = []
    with pytest.raises(SolverDivergence, match="stagnated") as info:
        _damped_newton(np.zeros(1), lambda u: (np.full(1, 1e-3), None),
                       lambda u, F, aux: steps.append(u) or np.ones(1),
                       _max_norm_below(1e-6), 1e-3, 40)
    assert len(steps) == 5 and info.value.last_residual == 1e-3
    # a contraction by 0.87 per step halves the residual every five and
    # runs until it converges
    u, F, _ = _damped_newton(np.ones(1), lambda u: (u.copy(), None),
                             lambda u, F, aux: -0.13 * F,
                             _max_norm_below(1e-3), 1e-12, 60)
    assert abs(F[0]) <= 1e-3


def test_cold_ball_solve_with_transverse_direction_builds_no_jacobian(
        monkeypatch):
    # <v, z> = 0 gives mu = 0: the closed-form start is the exact disc with
    # g = 1, so Gauss-Newton is converged before its first step
    z = np.array([0.3, 0.2j])
    v = np.array([2j / 3, 1.0])
    log = _ContinuationLog(monkeypatch, BALL)
    disc = _solve_cd_raw(BALL, z, v, SETTINGS)
    assert log.jacobians == 0 and log.target_calls == [True]
    assert disc.attachment_residual <= SETTINGS.newton_tol
    exact = ball_geodesic(BALL, z, v, SETTINGS).coeffs
    assert np.max(np.abs(disc.coeffs - exact)) < 1e-15


def test_one_armijo_loop():
    # every damped Newton solve goes through discs._damped_newton; another
    # hand-written line search would repeat its sufficient-decrease test
    src = pathlib.Path(discs_module.__file__).parent
    assert sum(p.read_text().count("1e-4 * t") for p in src.glob("*.py")) == 1


def test_one_place_builds_a_solved_disc():
    # the solve's disc, with its attachment, g and tangent, is built once,
    # in discs._finalize; callers take it as it is
    src = pathlib.Path(discs_module.__file__).parent
    assert sum(p.read_text().count("attachment_residual=diag")
               for p in src.glob("*.py")) == 1
