import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geodisc import (make_ball, make_perturbed_ball, ball_geodesic,
                     solve_from_center_direction,
                     lift_from_disc, move_pole, projectivize,
                     boundary_conormality_residual, disc_separation_integral,
                     negative_tail_norm, analyze, reparametrize,
                     AnalyticDisc, SolverSettings, MoebiusMap, CircleGrid,
                     PreconditionError)
from geodisc import lifts as lifts_module
from geodisc.lifts import _lift_from_boundary

BALL = make_ball([0, 0], 1.0)
SETTINGS = SolverSettings()


def lift_of(z, v):
    disc = ball_geodesic(BALL, np.asarray(z, complex), np.asarray(v, complex),
                         SETTINGS)
    return disc, lift_from_disc(BALL, disc)


def test_radial_disc_lift_is_pole_only():
    disc, lift = lift_of([0, 0], [1, 0])
    assert np.max(np.abs(lift.pole_coeff - [1.0, 0.0])) < 1e-12
    assert np.max(np.abs(lift.holo_coeffs)) < 1e-12
    assert np.max(np.abs(lift.g_boundary - 1.0)) < 1e-12


def test_swapped_radial_disc():
    disc, lift = lift_of([0, 0], [0, 1])
    assert np.max(np.abs(lift.pole_coeff - [0.0, 1.0])) < 1e-12
    assert np.max(np.abs(lift.holo_coeffs)) < 1e-12


def test_offset_radial_disc_closed_form():
    # phi = ((tau+a)/(1+a tau), 0) with a = 1/2 has
    # g = |tau+a|^2/(1+a)^2 and phi* = ((1+a tau)^2 / ((1+a)^2 tau), 0)
    a = 0.5
    disc, lift = lift_of([a, 0], [1, 0])
    c = 1.0 / (1 + a) ** 2
    assert np.max(np.abs(lift.pole_coeff - [c, 0.0])) < 1e-12
    assert abs(lift.holo_coeffs[0, 0] - 2 * a * c) < 1e-12
    assert abs(lift.holo_coeffs[1, 0] - a ** 2 * c) < 1e-12
    assert np.max(np.abs(lift.holo_coeffs[2:])) < 1e-12
    th = disc.grid.angles
    g_expected = np.abs(np.exp(1j * th) + a) ** 2 / (1 + a) ** 2
    assert np.max(np.abs(lift.g_boundary - g_expected)) < 1e-12


def test_lift_invariants_random_discs():
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        disc, lift = lift_of(z, v)
        # realness and normalization of g
        assert lift.g_boundary[0] == 1.0
        assert np.all(lift.g_boundary > 0)
        # boundary conormality and unit conormal at tau = 1
        assert boundary_conormality_residual(BALL, disc, lift) < 1e-10
        p1 = disc(np.array([1.0 + 0j]))[0]
        target = BALL.grad(p1) / np.linalg.norm(BALL.grad(p1))
        assert np.max(np.abs(lift(np.array([1.0 + 0j]))[0] - target)) < 1e-10
        # tau*phi* extends holomorphically, componentwise
        nodes = disc.grid.nodes
        data = nodes[:, None] * lift(nodes)
        for c in range(2):
            assert negative_tail_norm(analyze(data[:, c], disc.grid)) < 1e-10


def test_lift_matches_solver_factor():
    # the Riemann-problem factor agrees with the solver's own unknown g
    disc, lift = solve_from_center_direction(
        BALL, np.array([0.3 + 0.1j, -0.2j]), np.array([1.0, 0.4j]), SETTINGS)
    gamma = disc.solver_g
    th = disc.grid.angles
    m = np.arange(1, SETTINGS.modes + 1)
    solver_g = gamma[0] + np.cos(np.outer(th, m)) @ gamma[1::2] \
        + np.sin(np.outer(th, m)) @ gamma[2::2]
    assert np.max(np.abs(solver_g - lift.g_boundary)) < 1e-8


def test_lift_is_unitarily_covariant():
    # the ball is invariant under a unitary U and drho(U z) = conj(U)
    # drho(z), so the lift of U phi is conj(U) times the lift of phi; the
    # lift is unique, so a coordinate_rotation changes nothing
    disc = ball_geodesic(BALL, np.array([0.3, 0.2j]), np.array([0.5, 1.0]),
                         SETTINGS)
    lift = lift_from_disc(BALL, disc)
    theta = 0.7
    U = np.array([[np.cos(theta), 1j * np.sin(theta)],
                  [1j * np.sin(theta), np.cos(theta)]]) \
        @ np.diag([np.exp(0.4j), np.exp(-1.1j)])
    turned = AnalyticDisc(disc.coeffs @ U.T, disc.grid, BALL)
    lift_u = lift_from_disc(BALL, turned)
    assert np.max(np.abs(lift_u.pole_coeff - np.conj(U) @ lift.pole_coeff)) \
        < 1e-12
    assert np.max(np.abs(lift_u.holo_coeffs - lift.holo_coeffs @ U.T.conj())) \
        < 1e-12
    rotated = lift_from_disc(BALL, disc, coordinate_rotation=U)
    assert np.array_equal(rotated.pole_coeff, lift.pole_coeff)
    assert np.array_equal(rotated.holo_coeffs, lift.holo_coeffs)


M64 = SolverSettings(modes=64, grid=CircleGrid(256))


def test_transverse_ring_disc_lifts():
    # tau * d_z1 rho(phi) winds once around 0 on this disc and on the next
    # test's, so the lift must not rest on a branch of its logarithm
    domain = make_perturbed_ball(0.05)
    disc, lift = solve_from_center_direction(
        domain, np.array([0.7, 0j]), np.array([0j, 1.0]), M64)
    assert boundary_conormality_residual(domain, disc, lift) <= 1e-10
    assert lift.g_boundary[0] == 1.0


def test_transverse_ball_geodesic_lifts():
    disc = ball_geodesic(BALL, np.array([0.75, 0j]), np.array([0j, 1.0]), M64)
    lift = lift_from_disc(BALL, disc)
    assert boundary_conormality_residual(BALL, disc, lift) <= 1e-10
    assert lift.g_boundary[0] == 1.0


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       st.floats(0.0, 0.6))
def test_lift_of_random_ball_geodesic(raw, radius):
    raw = np.array(raw)
    z, v = raw[0:4:2] + 1j * raw[1:4:2], raw[4::2] + 1j * raw[5::2]
    assume(np.linalg.norm(z) > 1e-6 and np.linalg.norm(v) > 1e-6)
    z = radius * z / np.linalg.norm(z)
    disc = ball_geodesic(BALL, z, v, SolverSettings(modes=32,
                                                     grid=CircleGrid(128)))
    lift = lift_from_disc(BALL, disc)
    assert boundary_conormality_residual(BALL, disc, lift) <= 1e-10
    assert lift.g_boundary[0] == 1.0
    p1 = disc(np.array([1.0 + 0j]))[0]
    normal = BALL.grad(p1) / np.linalg.norm(BALL.grad(p1))
    assert np.max(np.abs(lift(np.array([1.0 + 0j]))[0] - normal)) <= 1e-10


def test_one_lift_construction():
    # g is the least-squares solution of the solver's g-block, and every
    # lift comes out of _lift_from_boundary's one extraction loop
    text = pathlib.Path(lifts_module.__file__).read_text()
    assert "hilbert_conjugate" not in text and "continuous_log" not in text
    assert text.count("analyze(") == 1


def test_lift_solves_for_g_without_gauss_newton_steps(monkeypatch):
    # g is linear in the lift equations: one normal-equation solve, not
    # the disc solver's shifted Gauss-Newton steps
    from geodisc.discs import _CenterDirectionSystem

    disc = ball_geodesic(BALL, np.array([0.3, 0.2j]), np.array([0.5, 1.0]),
                         SETTINGS)
    calls = []
    ls_step = _CenterDirectionSystem._ls_step

    def counting(J, F):
        calls.append(J.shape)
        return ls_step(J, F)

    monkeypatch.setattr(_CenterDirectionSystem, "_ls_step",
                        staticmethod(counting))
    lift_from_disc(BALL, disc)
    assert calls == []


def test_lift_rejects_detached_disc():
    bad = AnalyticDisc(np.array([[0.0, 0.0], [0.5, 0.0]], dtype=complex),
                       CircleGrid(64), BALL)
    with pytest.raises(PreconditionError):
        lift_from_disc(BALL, bad)


def test_lift_rejects_non_injective_cover():
    # tau -> tau^2 covers the radial disc twice; boundary values collide
    coeffs = np.zeros((3, 2), dtype=complex)
    coeffs[2, 0] = 1.0
    cover = AnalyticDisc(coeffs, CircleGrid(64), BALL)
    assert cover.boundary_residual() < 1e-15
    assert cover.injectivity_gap() < 1e-15
    with pytest.raises(PreconditionError, match="not injective"):
        lift_from_disc(BALL, cover)


def test_lift_boundary_values():
    # the lift at the nodes of the disc's grid, or of a grid given, from
    # one inverse FFT, which agrees with the power series to roundoff; on
    # a ball geodesic a positive real multiple of drho(phi) at every node,
    # the conormal bundle
    disc, lift = lift_of([0.3, 0.1j], [1.0, 0.5j])
    values = lift.boundary_values()
    assert values.shape == (disc.grid.size, 2)
    scale = np.max(np.abs(values))
    assert np.max(np.abs(values - lift(disc.grid.nodes))) < 1e-14 * scale
    for size in (64, 100, 7):
        nodes = np.exp(2j * np.pi * np.arange(size) / size)
        assert np.max(np.abs(lift._grid_values(size) - lift(nodes))) \
            < 1e-14 * scale
    grid = CircleGrid(64)
    assert np.array_equal(lift.boundary_values(grid), lift._grid_values(64))
    grads = BALL.grad(disc.boundary_values())
    scale = np.sum(values * np.conj(grads), axis=1) \
        / np.sum(np.abs(grads) ** 2, axis=1)
    assert np.all(scale.real > 0)
    assert np.max(np.abs(values - scale.real[:, None] * grads)) \
        < 1e-10 * np.max(np.abs(values))


def test_move_pole_identity():
    _, lift = lift_of([0.4, 0], [1, 0])
    moved = move_pole(lift, 0.0)
    assert np.max(np.abs(moved.pole_coeff - lift.pole_coeff)) < 1e-12
    assert np.max(np.abs(moved.holo_coeffs - lift.holo_coeffs)) < 1e-12
    again = move_pole(moved, 0.0)
    assert np.max(np.abs(again.pole_coeff - lift.pole_coeff)) < 1e-12


def test_move_pole_factor_is_real_on_circle():
    tau_o = 0.3 + 0.1j
    nodes = CircleGrid(64).nodes
    nu = (nodes - tau_o) * (1 - np.conj(tau_o) * nodes) / nodes
    assert np.max(np.abs(nu.imag)) < 1e-12


def test_move_pole_normalizes_shifted_boundary_data():
    # boundary data of a lift composed with a disc automorphism has its
    # pole at m^{-1}(0); multiplying by nu returns it to standard form
    disc = ball_geodesic(BALL, np.zeros(2), np.array([1.0, 0.0]), SETTINGS)
    lift = lift_from_disc(BALL, disc)
    a = 0.35
    m = MoebiusMap(a=a)
    disc_m = reparametrize(disc, m)
    grid2 = CircleGrid(2 * disc.grid.size)
    tau2 = grid2.nodes
    tau_o = -a                      # zero of m inside the disc
    nu = (tau2 - tau_o) * (1 - np.conj(tau_o) * tau2) / tau2
    composed = lift(m(tau2)) * nu[:, None]
    moved = _lift_from_boundary(disc_m, composed, grid2)
    direct = lift_from_disc(BALL, disc_m)
    # both are normalized lifts of the same disc: they coincide
    assert np.max(np.abs(moved.pole_coeff - direct.pole_coeff)) < 1e-9
    assert np.max(np.abs(moved.holo_coeffs[:20] - direct.holo_coeffs[:20])) < 1e-9


def test_move_pole_rejects_wrong_pole_location():
    _, lift = lift_of([0.4, 0], [1, 0])
    with pytest.raises(PreconditionError):
        move_pole(lift, 0.3)


def test_projectivize():
    _, lift = lift_of([0, 0], [1, 0])
    assert np.allclose(projectivize(lift, 0.0), [1.0, 0.0])
    vals = np.array([2.0j, 1.0])
    idx = np.argmax(np.abs(vals))
    rep = vals / vals[idx]
    assert np.allclose(rep, [1.0, -0.5j])


def test_projectivize_zero_rejected():
    _, lift = lift_of([0, 0], [1, 0])
    lift.pole_coeff = np.zeros(2, dtype=complex)
    with pytest.raises(PreconditionError):
        projectivize(lift, 0.0)


def test_conormality_residual_detects_perturbation():
    disc, lift = lift_of([0.2, 0.1], [1, 1])
    base = boundary_conormality_residual(BALL, disc, lift)
    assert base < 1e-10
    rng = np.random.default_rng(1)
    lift.holo_coeffs = lift.holo_coeffs.copy()
    lift.holo_coeffs[0] += 1e-3 * (rng.standard_normal(2)
                                   + 1j * rng.standard_normal(2))
    bumped = boundary_conormality_residual(BALL, disc, lift)
    assert 1e-4 < bumped < 1e-2


def test_separation_integral_frozen_value():
    # radial and vertical discs through 0: integrand is -2, integral -4 pi
    _, l1 = lift_of([0, 0], [1, 0])
    _, l2 = lift_of([0, 0], [0, 1])
    val = disc_separation_integral(l1, l2)
    assert abs(val - (-4.0 * np.pi)) < 1e-10
    # on any number of nodes
    assert abs(disc_separation_integral(l1, l2, 100) - val) < 1e-10


def test_separation_integral_sign_uniform():
    rng = np.random.default_rng(2)
    z = np.array([0.2, 0.1j])
    vals = []
    for _ in range(4):
        v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        _, l1 = lift_of(z, v1)
        _, l2 = lift_of(z, v2)
        vals.append(disc_separation_integral(l1, l2))
    assert all(v < -1e-6 for v in vals)


def test_lift_serialization():
    disc, lift = lift_of([0.3, 0.1], [1, 0.5])
    data = lift.to_json()
    assert "pole_coeff" in data and "coeffs" in data and "lift_coeffs" in data
    pole = np.array([complex(re, im) for re, im in data["pole_coeff"]])
    assert np.max(np.abs(pole - lift.pole_coeff)) < 1e-15
