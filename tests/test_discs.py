import copy

import numpy as np
import pytest

from geodisc import (make_ball, make_ellipsoid, make_perturbed_ball,
                     ball_geodesic, solve_from_center_direction,
                     solve_two_point, reparametrize, extremality_probe,
                     kobayashi_distance, poincare_distance,
                     boundary_hausdorff, AnalyticDisc, SolverSettings,
                     MoebiusMap, CircleGrid, PreconditionError)
from geodisc.discs import (_CenterDirectionSystem, _TwoPointSystem,
                           _solve_cd_raw)

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
    J = system.jacobian(u)
    h = 1e-7
    cols = rng.choice(len(u), size=12, replace=False)
    for i in cols:
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        fd = (system.residual(up)[0] - system.residual(um)[0]) / (2 * h)
        assert np.max(np.abs(J[:, i] - fd)) < 1e-6


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
    coeffs, gamma, diag = _solve_cd_raw(BALL, z, v, SETTINGS,
                                        warm=(bad, None))
    solved = AnalyticDisc(coeffs, SETTINGS.grid, BALL)
    assert diag["attachment"] < 1e-10
    assert np.max(np.abs(solved.boundary_values()
                         - oracle.boundary_values())) < 1e-8


def test_solver_on_ellipsoid_continuation():
    domain = make_ellipsoid([1.3, 0.9])
    disc, lift = solve_from_center_direction(
        domain, np.array([0.2 + 0.1j, 0.1j]), np.array([1.0, 0.5j]), SETTINGS)
    assert disc.attachment_residual < 1e-10
    assert disc.injectivity_gap() > 1e-4


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
