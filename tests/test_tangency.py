import dataclasses

import numpy as np
import pytest

from geodisc import (make_ball, make_perturbed_ball, ball_geodesic,
                     tangency_residual, solve_tangent_disc, trace_locus,
                     jacobian_certificate, push_domain_through_psi,
                     pi_set_sample, tangent_line_disc, lift_from_disc,
                     projectivize, SolverSettings, CircleGrid, ConvexDomain,
                     PreconditionError, SolverDivergence, NAMED_FUNCTIONS,
                     consistency_check)
from geodisc import discs as discs_module
from geodisc import tangency as tangency_module
from geodisc.discs import (_CenterDirectionSystem, _OuterSystem,
                           _TwoPointSystem, _ball_psi_inverse,
                           _ball_two_point_data, _solve_cd_raw)
from geodisc.lempert import psi_inverse
from geodisc.lifts import boundary_conormality_residual
from geodisc.tangency import (TANGENCY_TOL, _BallTangencySystem,
                              _TangencySystem, _initial_state,
                              _tangency_system)

BALL = make_ball([0, 0], 1.0)
SETTINGS = SolverSettings()


def ball_locus_oracle(a, r2):
    """w1 and |w2| of the tangency circle for concentric balls."""
    return r2 ** 2 / a, r2 * np.sqrt(1.0 - r2 ** 2 / a ** 2)


def test_tangency_residual_on_oracle_line():
    r2 = np.sqrt(1.0 / 3.0)
    inner = make_ball([0, 0], r2)
    a = 0.8
    z_o = np.array([a + 0j, 0j])
    w1, w2 = ball_locus_oracle(a, r2)
    w = np.array([w1, w2], dtype=complex)
    d = np.array([-np.conj(w[1]), np.conj(w[0])]) / r2
    disc = tangent_line_disc(r2, w, d, CircleGrid(256))
    # the line through w in the tangent direction passes through z_o
    res = tangency_residual(inner, z_o, w, disc)
    assert np.max(np.abs(res)) < 1e-9


def test_tangency_residual_signs():
    inner = make_ball([0, 0], 0.5)
    z_o = np.array([0.8 + 0j, 0j])
    disc = ball_geodesic(BALL, z_o, np.array([1.0, 0.0]), SETTINGS)
    # interior point: first component negative
    res = tangency_residual(inner, z_o, np.array([0.3, 0.0]), disc)
    assert res[0] < -1e-3
    # boundary point with transversal disc: pairing bounded away from 0
    res2 = tangency_residual(inner, z_o, np.array([0.5, 0.0]), disc)
    assert abs(res2[0]) < 1e-9
    assert np.hypot(res2[1], res2[2]) > 0.1


def test_tangency_residual_requires_point_on_disc():
    inner = make_ball([0, 0], 0.5)
    z_o = np.array([0.8 + 0j, 0j])
    disc = ball_geodesic(BALL, z_o, np.array([1.0, 0.0]), SETTINGS)
    with pytest.raises(PreconditionError):
        tangency_residual(inner, z_o, np.array([0.3, 0.4]), disc)


def test_solve_tangent_disc_oracle():
    r2, a = 0.5, 0.8
    inner = make_ball([0, 0], r2)
    z_o = np.array([a + 0j, 0j])
    tp = solve_tangent_disc(BALL, inner, z_o,
                            seed_w=np.array([0.35, 0.35]), settings=SETTINGS)
    w1, w2 = ball_locus_oracle(a, r2)
    assert abs(tp.w[0] - w1) < 1e-8
    assert abs(abs(tp.w[1]) - w2) < 1e-8
    assert tp.residual < 1e-8
    assert tp.tangency_constant > 0
    # the disc passes through the base point at sigma
    val = tp.disc(np.array([tp.sigma + 0j]))[0]
    assert np.linalg.norm(val - z_o) < 1e-8
    # touch point at tau = 0
    assert np.linalg.norm(tp.disc.base_point - tp.w) < 1e-12


def test_solve_tangent_disc_preconditions():
    inner = make_ball([0, 0], 0.5)
    with pytest.raises(PreconditionError):
        solve_tangent_disc(BALL, inner, np.array([0.3, 0.0]),
                           np.array([0.5, 0.0]), SETTINGS)
    with pytest.raises(PreconditionError):
        solve_tangent_disc(BALL, inner, np.array([1.2, 0.0]),
                           np.array([0.5, 0.0]), SETTINGS)


def test_trace_locus_matches_oracle():
    r2, a = 0.4, 0.7
    inner = make_ball([0, 0], r2)
    locus = trace_locus(BALL, inner, np.array([a + 0j, 0j]), steps=16,
                        settings=SETTINGS)
    w1, w2 = ball_locus_oracle(a, r2)
    W = locus.touch_points()
    assert np.max(np.abs(W[:, 0] - w1)) < 1e-8
    assert np.max(np.abs(np.abs(W[:, 1]) - w2)) < 1e-8
    assert locus.closure_gap < 0.5       # closed curve
    assert len(locus.points) >= 8
    # local tangent-line fit: consecutive triples are nearly collinear
    for i in range(len(W) - 2):
        p0, p1, p2 = W[i], W[i + 1], W[i + 2]
        t1 = (p1 - p0) / np.linalg.norm(p1 - p0)
        t2 = (p2 - p1) / np.linalg.norm(p2 - p1)
        assert np.abs(np.vdot(t1, t2)) > 0.9


def test_ranked_seeds_sample_the_inner_boundary_once(monkeypatch):
    # the 256 boundary samples do not depend on the base point, so the
    # inner domain keeps them; the ranking is that of a fresh domain
    inner = make_ball([0, 0], 0.5)
    calls = []
    sample = inner.boundary_point
    monkeypatch.setattr(inner, "boundary_point",
                        lambda d: calls.append(d.shape) or sample(d))
    for z_o in (np.array([0.7, 0.1j]), np.array([0.2, 0.6 - 0.1j])):
        seeds = tangency_module._ranked_seeds(inner, z_o)
        fresh = tangency_module._ranked_seeds(make_ball([0, 0], 0.5), z_o)
        assert np.array_equal(seeds, fresh)
    assert calls == [(256, 2)]


def test_locus_shrinks_toward_inner_boundary():
    r2 = 0.5
    inner = make_ball([0, 0], r2)
    diams = []
    for da in (0.2, 0.1, 0.05, 0.02):
        locus = trace_locus(BALL, inner, np.array([r2 + da, 0.0]),
                            steps=12, settings=SETTINGS)
        diams.append(locus.diameter())
    assert all(diams[i] > diams[i + 1] for i in range(len(diams) - 1))
    assert diams[-1] < 0.35


def test_trace_locus_from_a_given_seed():
    # a seed off the locus is corrected onto it, and the curve closes
    inner = make_ball([0, 0], 0.5)
    small = SolverSettings(modes=32, grid=CircleGrid(128))
    locus = trace_locus(BALL, inner, np.array([0.7, 0.1j]), 12, small,
                        seed_w=np.array([0.3, 0.4]))
    assert len(locus.points) == 12
    assert locus.closure_gap < 0.5       # closed curve
    assert np.allclose(np.linalg.norm(locus.touch_points(), axis=1), 0.5,
                       atol=1e-9)
    # the radial seed of a base point on the axis does not converge
    with pytest.raises(SolverDivergence):
        trace_locus(BALL, inner, np.array([0.8, 0.0]), 12, small,
                    seed_w=np.array([0.5, 0.0]))


def test_pi_set_single_point_in_dimension_two():
    r2 = 0.5
    inner = make_ball([0, 0], r2)
    z_o = np.array([0.5 + 0j, 0j])
    samples = pi_set_sample(BALL, inner, z_o, count=6, settings=SETTINGS)
    spread = np.max(np.abs(samples - samples[0]))
    assert spread < 1e-6
    # hand value: all tangent discs at (r2, 0) lift to [(0, 1)]
    assert np.max(np.abs(samples[0] - [0.0, 1.0])) < 1e-8


def test_pi_set_preconditions():
    inner = make_ball([0, 0], 0.5)
    with pytest.raises(PreconditionError):
        pi_set_sample(BALL, inner, np.array([0.7, 0.0]), 4, SETTINGS)


def test_pi_set_dimension_three_distinct():
    ball3 = make_ball([0, 0, 0], 1.0)
    inner3 = make_ball([0, 0, 0], 0.5)
    z_o = np.array([0.5 + 0j, 0j, 0j])
    samples = pi_set_sample(ball3, inner3, z_o, count=4, settings=SETTINGS,
                            seed=3)
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            assert np.max(np.abs(samples[i] - samples[j])) > 1e-3


def test_lift_residues_converge_to_pi_set():
    # tangent-family lift residues converge to the limit point's Pi set:
    # the per-disc deviation scales like the locus diameter (sqrt of the
    # boundary distance) while the family mean converges linearly, so
    # the collapsed family matches the limit point at 1e-4
    r2 = 0.5
    inner = make_ball([0, 0], r2)
    z_limit = np.array([r2 + 0j, 0j])
    target = pi_set_sample(BALL, inner, z_limit, count=1,
                           settings=SETTINGS)[0]
    max_gaps = []
    mean_gap = None
    for da in (1e-2, 1e-4, 1e-6):
        locus = trace_locus(BALL, inner, np.array([r2 + da, 0.0]),
                            steps=16, settings=SETTINGS)
        reps = np.array([projectivize(lift_from_disc(BALL, tp.disc), 0.0)
                         for tp in locus.points])
        max_gaps.append(np.max(np.abs(reps - target)))
        mean_gap = np.max(np.abs(reps.mean(axis=0) - target))
    assert all(max_gaps[i] > max_gaps[i + 1] for i in range(len(max_gaps) - 1))
    assert mean_gap < 1e-4


def test_jacobian_certificate_ball():
    # pushforward of a ball by the ball Riemann map, against the sign chain
    r2, a = 0.5, 0.8
    inner = make_ball([0, 0], r2)
    z_o = np.array([a + 0j, 0j])
    tp = solve_tangent_disc(BALL, inner, z_o, np.array([0.35, 0.35]),
                            SETTINGS)
    rho_psi = push_domain_through_psi(BALL, inner, z_o)
    det = jacobian_certificate(rho_psi, tp.psi_coordinates())
    assert det < 0


def test_jacobian_certificate_analytic_ball():
    # off-center ball rho = |z-c|^2 - r^2 at a point solving the locus
    # equations (rho = 0, grad . z = 0): det A = -|z|^2 / r^2 exactly
    center = np.array([0.6, 0.0])
    r = 0.3
    inner = make_ball(center, r)
    x = 0.45
    w2 = np.sqrt(0.6 * x - x ** 2)
    point = np.array([x, w2 * np.exp(0.7j)])
    assert abs(float(inner.rho(point))) < 1e-14
    assert abs(np.sum(inner.grad(point) * point)) < 1e-14
    det = jacobian_certificate(inner, point)
    c2 = float(np.linalg.norm(point)) ** 2
    assert abs(det - (-c2 / r ** 2)) < 1e-10


def test_jacobian_certificate_flat_degenerate():
    def rho(z):
        return (np.abs(z[..., 0]) ** 2).real - 0.25

    def grad(z):
        g = np.zeros_like(np.asarray(z, complex))
        g[..., 0] = np.conj(z[..., 0])
        return g

    def hess(z):
        z = np.asarray(z, complex)
        n = z.shape[-1]
        sh = z.shape[:-1] + (n, n)
        A = np.zeros(sh, complex)
        C = np.zeros(sh, complex)
        C[..., 0, 0] = 1.0
        return A, C

    flat = ConvexDomain(2, "custom", rho, grad, hess)
    det = jacobian_certificate(flat, np.array([0.5 + 0j, 0.3 + 0j]))
    assert abs(det) < 1e-14


def test_perturbed_ball_tangency():
    pb = make_perturbed_ball(0.05, "re_z1_sq")
    inner = make_ball([0, 0], 0.4)
    small = SolverSettings(modes=32, grid=CircleGrid(128))
    z_o = np.array([0.62 + 0j, 0.05j])
    tp = solve_tangent_disc(pb, inner, z_o, np.array([0.3, 0.25]), small)
    assert tp.residual < 1e-8
    assert tp.tangency_constant > 0
    res = tangency_residual(inner, z_o, tp.w, tp.disc, sigma_w=0.0)
    assert np.max(np.abs(res)) < 1e-7


def test_psi_coordinates_satisfy_locus_equations():
    # in Riemann-map coordinates the locus point solves rho = 0 and
    # grad rho . z = 0 (bilinear)
    r2, a = 0.5, 0.75
    inner = make_ball([0, 0], r2)
    z_o = np.array([a + 0j, 0j])
    tp = solve_tangent_disc(BALL, inner, z_o, np.array([0.35, 0.33]),
                            SETTINGS)
    rho_psi = push_domain_through_psi(BALL, inner, z_o)
    zeta = tp.psi_coordinates()
    assert abs(float(rho_psi.rho(zeta))) < 1e-7
    pair = np.sum(rho_psi.grad(zeta) * zeta)
    assert abs(pair) < 1e-6


def test_psi_pushforward_batches_pointwise():
    # rho, grad and hess of the pushed-forward domain on a (2, 3, n) batch
    # are the pointwise values, stacked
    inner = make_ball([0.1, 0], 0.5)
    rho_psi = push_domain_through_psi(BALL, inner, np.array([0.7 + 0j, 0.1j]))
    rng = np.random.default_rng(4)
    zeta = 0.3 * (rng.standard_normal((2, 3, 2))
                  + 1j * rng.standard_normal((2, 3, 2)))
    flat = zeta.reshape(-1, 2)
    rho = rho_psi.rho(zeta)
    grad = rho_psi.grad(zeta)
    A, C = rho_psi.hess_complex(zeta)
    assert rho.shape == (2, 3) and grad.shape == (2, 3, 2)
    assert A.shape == C.shape == (2, 3, 2, 2)
    pointwise = [rho_psi.hess_complex(p) for p in flat]
    assert np.array_equal(rho.reshape(-1), [rho_psi.rho(p) for p in flat])
    assert np.array_equal(grad.reshape(-1, 2), [rho_psi.grad(p) for p in flat])
    assert np.array_equal(A.reshape(-1, 2, 2), [a for a, _ in pointwise])
    assert np.array_equal(C.reshape(-1, 2, 2), [c for _, c in pointwise])


def test_psi_pushforward_off_a_ball_inverts_by_disc_solves():
    # off a ball each value of rho_tilde is rho2 at psi_inverse, one disc
    # solve
    outer, inner = make_perturbed_ball(0.05, "re_z1_sq"), make_ball([0, 0], 0.4)
    settings = SolverSettings(modes=32, grid=CircleGrid(128))
    z_o, zeta = np.array([0.2, 0.05j]), np.array([0.3, 0.2j])
    rho_psi = push_domain_through_psi(outer, inner, z_o, settings)
    assert rho_psi.rho(zeta) == float(
        inner.rho(psi_inverse(outer, z_o, zeta, settings)))


def test_trace_locus_patch_dimension_three():
    ball3 = make_ball([0, 0, 0], 1.0)
    inner3 = make_ball([0, 0, 0], 0.5)
    z_o = np.array([0.75 + 0j, 0j, 0j])
    locus = trace_locus(ball3, inner3, z_o, steps=5, settings=SETTINGS)
    assert len(locus.points) >= 3
    assert np.isnan(locus.closure_gap)
    w1 = 0.25 / 0.75
    w_perp = 0.5 * np.sqrt(1 - 0.25 / 0.75 ** 2)
    for tp in locus.points:
        # the ball locus oracle holds in any dimension:
        # <z_o, w>_H = r2^2 and |w| = r2
        assert abs(np.sum(tp.w * np.conj(z_o)) - 0.25) < 1e-8
        assert abs(np.linalg.norm(tp.w) - 0.5) < 1e-8
        assert tp.residual < 1e-8
    # the patch genuinely moves along the 3-dimensional locus
    W = locus.touch_points()
    assert np.max(np.linalg.norm(W - W[0], axis=1)) > 1e-4


def test_a_patch_off_a_ball_retries_a_failed_sample_at_half_the_step():
    # at n = 3 off a ball, each sample of a 4-step patch fails from
    # h = 2 pi 0.4 / 4 and is corrected from a shorter step
    outer = make_perturbed_ball(0.05, "re_z1_sq", dimension=3)
    inner = make_ball([0, 0, 0], 0.4)
    locus = trace_locus(outer, inner, np.array([0.62, 0.05j, 0]), 4,
                        SolverSettings(modes=32, grid=CircleGrid(128)))
    assert len(locus.points) == 5
    for tp in locus.points:
        assert tp.residual <= TANGENCY_TOL
        assert abs(float(inner.rho(tp.w))) <= TANGENCY_TOL
    W = locus.touch_points()
    assert np.min(np.linalg.norm(W[1:] - W[0], axis=1)) > 1e-4


def test_a_patch_whose_samples_all_fail_raises_step_size_collapse(
        monkeypatch):
    # the seed is corrected, and the first sample fails at every step from
    # h down to h/16 before the patch gives up
    correct = _BallTangencySystem.correct
    calls = []

    def failing(self, u, start=None):
        calls.append(u)
        if len(calls) > 1:
            raise SolverDivergence("no convergence")
        return correct(self, u, start)

    monkeypatch.setattr(_BallTangencySystem, "correct", failing)
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["ball3"]
    with pytest.raises(SolverDivergence,
                       match="^step-size collapse while sampling the "
                             "tangency patch$"):
        trace_locus(*make_domains(), np.array(z_o), 5, settings,
                    seed_w=np.array(seed_w))
    assert len(calls) == 1 + 5


def _converged_tangency(outer, inner, z_o, seed_w, settings):
    """A tangency system with a corrected state and its solved disc."""
    tp = solve_tangent_disc(outer, inner, z_o, seed_w, settings)
    system = _TangencySystem(outer, inner, z_o, settings)
    d = tp.disc.base_direction / np.linalg.norm(tp.disc.base_direction)
    u, _, disc = system.correct(system.pack(tp.w, d, tp.sigma), None)
    return system, u, disc


TANGENCY_CASES = {
    "ball2": (lambda: (BALL, make_ball([0, 0], 0.5)),
              [0.8 + 0j, 0j], [0.35, 0.35], SETTINGS),
    "ball3": (lambda: (make_ball([0, 0, 0], 1.0), make_ball([0, 0, 0], 0.5)),
              [0.75 + 0j, 0j, 0.1j], [0.3, 0.3, 0.1], SETTINGS),
    "perturbed": (lambda: (make_perturbed_ball(0.05, "re_z1_sq"),
                           make_ball([0, 0], 0.4)),
                  [0.62 + 0j, 0.05j], [0.3, 0.25],
                  SolverSettings(modes=32, grid=CircleGrid(128))),
    "perturbed3": (lambda: (make_perturbed_ball(0.05, "re_z1_sq", dimension=3),
                            make_ball([0, 0, 0], 0.4)),
                   [0.62 + 0j, 0.05j, 0.1j], [0.3, 0.25, 0.1],
                   SolverSettings(modes=32, grid=CircleGrid(128))),
}


@pytest.mark.parametrize("offset", [0.0, 0.02])
@pytest.mark.parametrize("case", sorted(TANGENCY_CASES))
def test_tangency_jacobian_matches_central_differences(case, offset):
    # on the locus and off it (where the touch direction is no longer
    # tangent, so the ball's Moebius parameter mu is nonzero)
    make_domains, z_o, seed_w, settings = TANGENCY_CASES[case]
    outer, inner = make_domains()
    system, u, disc = _converged_tangency(outer, inner, np.array(z_o),
                                          np.array(seed_w), settings)
    if offset:
        u = u + offset * np.cos(np.arange(len(u)))
        _, disc = system.residual(u, disc)
    J = system.jacobian(u, disc)
    h = 1e-6
    for i in range(len(u)):
        cols = []
        for sign in (1.0, -1.0):
            up = u.copy()
            up[i] += sign * h
            cols.append(system.residual(up, disc)[0])
        fd = (cols[0] - cols[1]) / (2.0 * h)
        assert np.max(np.abs(J[:, i] - fd)) < 1e-7


def test_tangency_jacobian_solves_no_discs(monkeypatch):
    system, u, disc = _converged_tangency(
        make_perturbed_ball(0.05, "re_z1_sq"), make_ball([0, 0], 0.4),
        np.array([0.62 + 0j, 0.05j]), np.array([0.3, 0.25]),
        SolverSettings(modes=32, grid=CircleGrid(128)))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _solve_cd_raw(*args, **kwargs)

    monkeypatch.setattr("geodisc.discs._solve_cd_raw", counting)
    system.jacobian(u, disc)
    assert calls == []


def _count_gn_jacobians(monkeypatch):
    calls = []
    jacobian = _CenterDirectionSystem.jacobian

    def counting(system, u, fields=None):
        calls.append(u)
        return jacobian(system, u, fields)

    monkeypatch.setattr(_CenterDirectionSystem, "jacobian", counting)
    return calls


def test_tangency_jacobian_after_a_warm_solve_builds_no_gn_jacobian(
        monkeypatch):
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    system, u, disc = _converged_tangency(*make_domains(), np.array(z_o),
                                          np.array(seed_w), settings)
    u, _, disc = system.correct(u + 0.02 * np.cos(np.arange(len(u))), disc)
    assert disc.tangent is not None
    calls = _count_gn_jacobians(monkeypatch)
    system.jacobian(u, disc)
    assert calls == []
    # a disc without a tangent from its solve is linearized once
    system.jacobian(u, dataclasses.replace(disc, tangent=None))
    assert len(calls) == 1


def test_tangency_tangent_belongs_to_its_disc(monkeypatch):
    # a later solve started from the disc leaves the disc's tangent with
    # it: its Jacobian still builds no GN Jacobian
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    system, u, disc = _converged_tangency(*make_domains(), np.array(z_o),
                                          np.array(seed_w), settings)
    u_a, _, disc_a = system.correct(u + 0.02 * np.cos(np.arange(len(u))),
                                    disc)
    tangent = disc_a.tangent
    assert tangent is not None
    _, _, disc_b = system.correct(u_a + 0.01 * np.sin(np.arange(len(u))),
                                  disc_a)
    assert disc_b is not disc_a
    assert disc_a.tangent is tangent
    calls = _count_gn_jacobians(monkeypatch)
    system.jacobian(u_a, disc_a)
    assert calls == []


def _a_negative_sigma_state():
    """(system, u, disc, flipped): a corrected state u = (w, d, sigma)
    with sigma > 0 and its disc, and the disc of (w, -d, -sigma), solved
    cold, which passes through z_o at -sigma."""
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    system, u, disc = _converged_tangency(*make_domains(), np.array(z_o),
                                          np.array(seed_w), settings)
    u, _, disc = system.correct(u + 0.02 * np.cos(np.arange(len(u))), disc)
    w, d, sigma = system.unpack(u)
    assert sigma > 0
    flipped = _solve_cd_raw(system.domain, w, -d / np.linalg.norm(d),
                            settings)
    return system, u, disc, flipped


def test_make_point_flips_a_negative_sigma_back_to_the_same_disc():
    # (w, -d, -sigma) is the same tangent disc with the base point at
    # -sigma: make_point flips it, with the disc of that state, to
    # (w, d, sigma)
    system, u, disc, flipped = _a_negative_sigma_state()
    w, d, sigma = system.unpack(u)
    point = system.make_point(system.pack(w, -d, -sigma),
                              system.rows(u, disc), flipped)
    assert np.array_equal(point.w, w) and point.sigma == sigma
    assert np.max(np.abs(point.disc.coeffs - disc.coeffs)) < 1e-11


def test_a_negative_sigma_is_flipped_without_a_solve(monkeypatch):
    # the flip is tau -> -tau on the disc in hand: no disc is solved and
    # no Newton iteration runs, and the disc is solved at its flipped
    # state, gauged to g(1) = 1, through z_o at sigma
    system, u, _, flipped = _a_negative_sigma_state()
    w, d, sigma = system.unpack(u)
    settings = system.settings
    calls = []

    def refusing(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the flip solves nothing")

    for module in (discs_module, tangency_module):
        monkeypatch.setattr(module, "_solve_cd_raw", refusing)
    monkeypatch.setattr(_OuterSystem, "newton", refusing)
    negative = system.pack(w, -d, -sigma)
    R = system.rows(negative, flipped)
    point = system.make_point(negative, R, flipped)
    monkeypatch.undo()
    assert calls == []
    assert point.residual == np.max(np.abs(R))
    assert point.disc.tangent is None
    disc_system = _CenterDirectionSystem(system.domain, w,
                                         d / np.linalg.norm(d), settings)
    _, (diag, _) = disc_system.residual(disc_system.initial_state(
        point.disc.coeffs, point.disc.solver_g))
    assert max(diag["attachment"], diag["neg_modes"],
               diag["gauge"]) <= settings.newton_tol
    assert diag["min_g"] > 0 and diag["gauge"] <= 1e-15
    assert np.max(np.abs(point.disc(np.array([point.sigma + 0j]))[0]
                         - system.z_o)) <= 1e-12


def test_a_correction_builds_one_gn_jacobian_per_newton_step(monkeypatch):
    # the corrector iterates on the touch state and the disc's Gauss-Newton
    # state together: each step linearizes the disc once and no residual
    # solves a disc, yet the disc it returns is solved, its lift conormal
    # and its touch tangent
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    outer, inner = make_domains()
    system, u, disc = _converged_tangency(outer, inner, np.array(z_o),
                                          np.array(seed_w), settings)
    t = np.linalg.svd(system.jacobian(u, disc))[2][-1]
    step = u + 0.1 * t / np.linalg.norm(t[:2 * system.n])
    jacobians = _count_gn_jacobians(monkeypatch)
    solves, steps = [], []
    joint_step = _OuterSystem._joint_step

    def counting_step(self, X, aux):
        steps.append(len(jacobians))
        return joint_step(self, X, aux)

    def recording(*args, **kwargs):
        solves.append(args)
        return _solve_cd_raw(*args, **kwargs)

    monkeypatch.setattr(_OuterSystem, "_joint_step", counting_step)
    monkeypatch.setattr("geodisc.discs._solve_cd_raw", recording)
    u_new, R, disc_new = system.correct(step, disc)
    monkeypatch.undo()
    assert len(steps) >= 2
    assert len(jacobians) == len(steps)
    assert solves == []
    assert np.max(np.abs(R)) <= TANGENCY_TOL
    assert np.max(np.abs(system.rows(u_new, disc_new))) <= TANGENCY_TOL
    assert disc_new.attachment_residual <= settings.newton_tol
    assert disc_new.boundary_residual() <= settings.newton_tol
    lift = lift_from_disc(outer, disc_new)
    assert boundary_conormality_residual(outer, disc_new, lift) <= 1e-10


def test_a_correction_derives_each_iterate_once(monkeypatch):
    # each joint residual unpacks x and takes the disc coefficients once,
    # into the iterate it hands on; the step reads that iterate, takes the
    # coefficients of y + du0 alone and builds the coefficient part of the
    # parameter tangent, not its gamma part
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    system, u, disc = _converged_tangency(*make_domains(), np.array(z_o),
                                          np.array(seed_w), settings)
    calls = dict.fromkeys(("unpack", "disc_coeffs", "tangent", "gamma"), 0)
    spans = {"_joint_residual": [], "_joint_step": []}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def spanning(name, fn):
        def wrapped(*args, **kwargs):
            before = dict(calls)
            out = fn(*args, **kwargs)
            spans[name].append({k: calls[k] - before[k] for k in calls})
            return out
        return wrapped

    monkeypatch.setattr(_OuterSystem, "unpack",
                        counting("unpack", _OuterSystem.unpack))
    for name, method in (("disc_coeffs", "disc_coeffs"),
                         ("tangent", "coefficient_tangent")):
        monkeypatch.setattr(_CenterDirectionSystem, method, counting(
            name, getattr(_CenterDirectionSystem, method)))
    monkeypatch.setattr(discs_module, "_gamma",
                        counting("gamma", discs_module._gamma))
    for name in spans:
        monkeypatch.setattr(_OuterSystem, name,
                            spanning(name, getattr(_OuterSystem, name)))
    _, R, disc_new = system.correct(u + 0.02 * np.cos(np.arange(len(u))),
                                    disc)
    monkeypatch.undo()
    assert len(spans["_joint_step"]) >= 2
    assert np.max(np.abs(R)) <= TANGENCY_TOL
    assert disc_new.tangent is not None
    # the residual's one gamma is that of g on the residual grid
    for span in spans["_joint_residual"]:
        assert span == {"unpack": 1, "disc_coeffs": 1, "tangent": 0,
                        "gamma": 1}
    for span in spans["_joint_step"]:
        assert span == {"unpack": 0, "disc_coeffs": 1, "tangent": 1,
                        "gamma": 0}


@pytest.mark.parametrize("case", ["ball2", "ball3"])
def test_a_ball_correction_builds_one_disc(monkeypatch, case):
    # on a ball the corrector iterates on the touch point alone, runs no
    # outer system and builds one disc, ball_geodesic's at the w it
    # returns bit for bit, with sigma > 0 from the chord's closed form
    make_domains, z_o, seed_w, settings = TANGENCY_CASES[case]
    outer, inner = make_domains()
    tp = solve_tangent_disc(outer, inner, np.array(z_o), np.array(seed_w),
                            settings)
    system = _tangency_system(outer, inner, np.array(z_o), settings)
    assert isinstance(system, _BallTangencySystem)
    u = system.pack(tp.w)
    newtons, geodesics = [], []
    geodesic = discs_module.ball_geodesic

    def counting_geodesic(*args, **kwargs):
        geodesics.append(args)
        return geodesic(*args, **kwargs)

    monkeypatch.setattr(_OuterSystem, "newton",
                        lambda *args: newtons.append(args))
    monkeypatch.setattr(discs_module, "ball_geodesic", counting_geodesic)
    u_new, R, (disc_new, sigma_new) = system.correct(
        u + 0.02 * np.cos(np.arange(len(u))), tp.disc)
    monkeypatch.undo()
    assert len(geodesics) == 1 and newtons == []
    assert np.max(np.abs(R)) <= TANGENCY_TOL
    w, d, sigma = system.unpack(u_new)
    assert sigma > 0 and sigma_new == sigma
    exact = ball_geodesic(outer, w, d, settings)
    assert np.array_equal(disc_new.coeffs, exact.coeffs)
    assert np.array_equal(disc_new.solver_g, exact.solver_g)
    assert disc_new.attachment_residual == exact.attachment_residual


@pytest.mark.parametrize("case", ["ball2", "ball3"])
def test_a_ball_correction_and_its_point_take_the_chord_once(monkeypatch,
                                                             case):
    # a correction takes d and sigma from the chord once, at the w it
    # returns, and hands sigma on with the disc, so make_point takes no
    # chord of its own; its point is the one of the closed form at that w
    make_domains, z_o, seed_w, settings = TANGENCY_CASES[case]
    outer, inner = make_domains()
    z_o = np.array(z_o)
    tp = solve_tangent_disc(outer, inner, z_o, np.array(seed_w), settings)
    system = _tangency_system(outer, inner, z_o, settings)
    u = system.pack(tp.w)
    chords = []
    two_point = tangency_module._ball_two_point_data

    def counting_two_point(*args):
        chords.append(args)
        return two_point(*args)

    monkeypatch.setattr(tangency_module, "_ball_two_point_data",
                        counting_two_point)
    u_new, R, corrected = system.correct(
        u + 0.02 * np.cos(np.arange(len(u))), tp.disc)
    point = system.make_point(u_new, R, corrected)
    monkeypatch.undo()
    assert len(chords) == 1
    w, _, sigma = system.unpack(u_new)
    assert np.array_equal(point.w, w) and point.sigma == sigma
    assert point.disc is corrected[0]
    assert point.residual == np.max(np.abs(R)) <= TANGENCY_TOL


def test_a_ball_trace_takes_one_chord_per_correction(monkeypatch):
    # neither the points nor the curvature of the probe take a chord of
    # their own: one per correction, the seed's included
    inner = make_ball([0, 0], 0.5)
    small = SolverSettings(modes=32, grid=CircleGrid(128))
    chords, corrections = [], []
    two_point = tangency_module._ball_two_point_data
    correct = _BallTangencySystem.correct

    def counting_two_point(*args):
        chords.append(args)
        return two_point(*args)

    def counting_correct(self, *args):
        corrections.append(args)
        return correct(self, *args)

    monkeypatch.setattr(tangency_module, "_ball_two_point_data",
                        counting_two_point)
    monkeypatch.setattr(_BallTangencySystem, "correct", counting_correct)
    locus = trace_locus(BALL, inner, np.array([0.7, 0.1j]), 12, small)
    monkeypatch.undo()
    assert len(locus.points) >= 12
    assert len(chords) == len(corrections) >= len(locus.points) + 1


def test_a_rank_deficient_ball_correction_ends_in_solver_divergence():
    # the radial seed of a base point on the axis: the chord is conormal,
    # so the rows' Gram is singular at the seed; the minimum-norm step
    # falls back to lstsq there, and the correction fails as a solve does
    inner = make_ball([0, 0], 0.5)
    system = _tangency_system(BALL, inner, np.array([0.8 + 0j, 0j]),
                              SolverSettings(modes=32, grid=CircleGrid(128)))
    u, _ = system.seed(np.array([0.5 + 0j, 0j]))
    assert np.linalg.matrix_rank(system.jacobian(u)) < 3
    with pytest.raises(SolverDivergence):
        system.correct(u)


@pytest.mark.parametrize("case", ["ball2", "ball3"])
def test_the_joint_corrector_meets_the_ball_oracle(case):
    # the joint corrector, with the disc's Gauss-Newton state in its
    # iterate, run on a ball, where the tracer takes the w-system instead:
    # w lies on the locus of concentric balls, |w| = r2 and <z_o, w> =
    # r2^2, and the disc and sigma are the chord's closed form there
    make_domains, z_o, seed_w, settings = TANGENCY_CASES[case]
    outer, inner = make_domains()
    z_o = np.array(z_o)
    system, u, disc = _converged_tangency(outer, inner, z_o,
                                          np.array(seed_w), settings)
    u, _, disc = system.correct(u + 0.02 * np.cos(np.arange(len(u))), disc)
    assert disc.tangent is not None          # a joint step was taken
    w, _, sigma = system.unpack(u)
    r2 = inner.meta["radius"]
    assert abs(np.linalg.norm(w) - r2) < 1e-10
    assert abs(np.sum(z_o * np.conj(w)) - r2 ** 2) < 1e-10
    v, xi = _ball_two_point_data(outer, w, z_o)
    assert abs(sigma - xi) < 1e-10
    exact = ball_geodesic(outer, w, v, settings)
    assert np.max(np.abs(disc.coeffs - exact.coeffs)) < 1e-10


def test_outer_solves_leave_their_systems_unchanged():
    # the Newton iteration carries the accepted iterate's disc from one
    # residual to the next; neither outer system keeps any of it
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    outer, inner = make_domains()
    z, w = np.array([0.2 + 0.1j, -0.1j]), np.array([-0.1, 0.25 + 0.2j])
    two_point = _TwoPointSystem(outer, z, w, settings)
    v0, xi0 = _ball_two_point_data(BALL, z, w)
    tangency = _TangencySystem(outer, inner, np.array(z_o), settings)
    u0, disc0 = _initial_state(tangency, np.array(seed_w))
    solves = ((two_point, lambda: two_point.newton(
                  np.concatenate([v0.real, v0.imag, [xi0]]), 1e-9, 30, None)),
              (tangency, lambda: tangency.correct(u0, disc0)))
    for system, solve in solves:
        before = dict(vars(system))
        solve()
        assert vars(system).keys() == before.keys()
        assert all(vars(system)[k] is value for k, value in before.items())


def test_a_failed_correction_is_retried_from_the_last_accepted_disc(
        monkeypatch):
    # corrections 1-2 are the seed and the probe and 3-4 are the first two
    # locus steps; 5 solves its disc and then fails, so the trace halves its
    # step and retries: the retry starts from the disc of 4, not from the
    # disc that the failed correction solved
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    starts, results = [], []

    class Stop(Exception):
        pass

    correct = _TangencySystem.correct

    def failing_fifth(system, u, start):
        starts.append(start)
        out = correct(system, u, start)
        results.append(out[2])
        if len(starts) == 5:
            raise SolverDivergence("failed after solving its disc")
        if len(starts) == 6:
            raise Stop
        return out

    monkeypatch.setattr(_TangencySystem, "correct", failing_fifth)
    with pytest.raises(Stop):
        trace_locus(*make_domains(), np.array(z_o), 12, settings,
                    seed_w=np.array(seed_w))
    assert starts[4] is results[3]
    assert results[4] is not results[3]
    assert starts[5] is results[3]


@pytest.mark.parametrize("n", [2, 3])
def test_ball_inverse_riemann_map_inverts_the_two_point_data(n):
    # psi^{-1}(zeta) is the point at xi = |zeta| of the geodesic with
    # direction zeta/|zeta|, so the two-point data of z_o and that point
    # give back zeta; off-centre balls, z_o at the centre included
    rng = np.random.default_rng(n)
    for trial in range(40):
        center = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        radius = rng.uniform(0.5, 2.0)
        offset = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z_o = center + (0.0 if trial < 4 else radius * rng.uniform(0.0, 0.8)
                        * offset / np.linalg.norm(offset))
        zeta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        zeta *= rng.uniform(0.05, 0.9) / np.linalg.norm(zeta)
        ball = make_ball(center, radius)
        w = _ball_psi_inverse(ball, z_o, zeta)
        v, xi = _ball_two_point_data(ball, z_o, w)
        assert np.max(np.abs(xi * v - zeta)) < 1e-13


#: a ball_shell base point whose locus direction, taken from the SVD
#: sign alone, reversed under a 1e-15 change of the seed disc
_FLIP_Z = np.array([0.18443487419563231 - 0.04338300973782265j,
                    0.6060993510941952 - 0.0767347015551532j])


def test_locus_order_survives_roundoff_in_the_seed_disc(monkeypatch):
    inner = make_ball([0, 0], 0.5)
    base = trace_locus(BALL, inner, _FLIP_Z, 12, SETTINGS).touch_points()
    solve = tangency_module.solve_tangent_disc
    for seed in range(3):
        rng = np.random.default_rng(seed)

        def perturbed(*args, **kwargs):
            point = solve(*args, **kwargs)
            c = point.disc.coeffs
            noise = rng.standard_normal(c.shape) \
                + 1j * rng.standard_normal(c.shape)
            disc = dataclasses.replace(point.disc, coeffs=c + 1e-15 * noise)
            return dataclasses.replace(point, disc=disc)

        monkeypatch.setattr(tangency_module, "solve_tangent_disc", perturbed)
        w = trace_locus(BALL, inner, _FLIP_Z, 12, SETTINGS).touch_points()
        assert w.shape == base.shape
        assert np.max(np.abs(w - base)) < 1e-8


def test_locus_order_does_not_depend_on_the_svd_sign(monkeypatch):
    # (-U, s, -V^T) is as much an SVD as (U, s, V^T)
    inner = make_ball([0, 0], 0.5)
    base = trace_locus(BALL, inner, _FLIP_Z, 12, SETTINGS).touch_points()
    svd = np.linalg.svd

    def flipped(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        return -u, s, -vt

    monkeypatch.setattr(np.linalg, "svd", flipped)
    w = trace_locus(BALL, inner, _FLIP_Z, 12, SETTINGS).touch_points()
    assert np.array_equal(w, base)


def test_the_curved_predictor_saves_joint_steps(monkeypatch):
    # the predictor aims at the parabola of the kernel tangents' turn,
    # where the minimum-norm corrector lands: the trace takes fewer joint
    # steps than the 51 of the tangent-line predictor, with as many points
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    steps = []
    joint_step = _OuterSystem._joint_step

    def counting_step(self, X, aux):
        steps.append(X)
        return joint_step(self, X, aux)

    monkeypatch.setattr(_OuterSystem, "_joint_step", counting_step)
    locus = trace_locus(*make_domains(), np.array(z_o), 12, settings,
                        seed_w=np.array(seed_w))
    assert len(locus.points) == 12
    assert len(steps) < 51


def test_a_warm_correction_finishes_with_one_gram_at_full_resolution(
        monkeypatch):
    # a correction from a solved disc iterates at (M/2, N/2) first, then
    # takes one joint step at M: one Gram at M per correction, plus the one
    # of the seed's cold solve.  That last step at M starts within about
    # 1e-7 of the solution, so it attaches every locus disc far below
    # newton_tol, and the consistency values meet the oracle to 1e-12
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    outer, inner = make_domains()
    z_o = np.array(z_o)
    grams, starts = {}, []
    jacobian = _CenterDirectionSystem.jacobian
    correct = _TangencySystem.correct

    def counting_jacobian(system, u, fields=None):
        grams[system.M] = grams.get(system.M, 0) + 1
        return jacobian(system, u, fields)

    def counting_correct(system, u, start):
        starts.append(start)
        return correct(system, u, start)

    monkeypatch.setattr(_CenterDirectionSystem, "jacobian", counting_jacobian)
    monkeypatch.setattr(_TangencySystem, "correct", counting_correct)
    locus = trace_locus(outer, inner, z_o, 12, settings,
                        seed_w=np.array(seed_w))
    monkeypatch.undo()
    assert len(locus.points) == 12
    assert all(start is not None for start in starts)
    assert grams[settings.modes] == len(starts) + 1
    assert grams[settings.modes // 2] > len(starts)
    assert max(p.disc.attachment_residual for p in locus.points) <= 1e-12
    report = consistency_check(NAMED_FUNCTIONS["holo_mix"], outer, inner, z_o,
                               6, settings, locus=locus)
    exact = z_o[0] ** 2 + np.exp(z_o[1])
    assert len(report.values) == 6
    assert np.max(np.abs(report.values - exact)) <= 1e-12


def _one_level_and_fallback(monkeypatch, run, modes):
    """The outcomes of ``run()`` (its value, or the SolverDivergence it
    raised) with no half-resolution level, and with one at M = 4 and
    newton_tol 1e-12, which cannot attach the disc and diverges; checks
    that the first iterates at ``modes`` alone and the second diverges at
    M = 4 and then iterates at ``modes``."""
    iterate = _OuterSystem._iterate
    levels = []

    def logging_iterate(self, settings, *args, **kwargs):
        try:
            out = iterate(self, settings, *args, **kwargs)
        except SolverDivergence:
            levels.append((settings.modes, False))
            raise
        levels.append((settings.modes, True))
        return out

    def outcome(half_resolution):
        monkeypatch.setattr(discs_module, "_half_resolution", half_resolution)
        levels.clear()
        try:
            return run()
        except SolverDivergence as exc:
            return exc

    monkeypatch.setattr(_OuterSystem, "_iterate", logging_iterate)
    one_level = outcome(lambda settings, tol: None)
    assert [m for m, _ in levels] == [modes]
    fallback = outcome(lambda settings, tol: dataclasses.replace(
        settings.scaled(modes=4, grid_size=16), newton_tol=1e-12))
    assert levels[0] == (4, False)
    assert [m for m, _ in levels[1:]] == [modes]
    monkeypatch.undo()
    return one_level, fallback


def _assert_same_disc(a, b):
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(a.solver_g, b.solver_g)
    assert a.attachment_residual == b.attachment_residual
    for x, y in zip(a.tangent, b.tangent):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", [0, 8, 35])
def test_half_resolution_divergence_leaves_the_correction_as_it_was(
        monkeypatch, seed):
    # at M = 4 the half-resolution level cannot attach the disc to 1e-12
    # and diverges; the correction then is the single-level iteration from
    # its start, as where there is no half-resolution level: the same
    # point, residual and disc (offset 0), or the same failure (offsets 8,
    # a stalled line search, and 35, a stagnation)
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    system, u, disc = _converged_tangency(*make_domains(), np.array(z_o),
                                          np.array(seed_w), settings)
    u = u + 0.3 * np.random.default_rng(seed).standard_normal(len(u))
    one_level, fallback = _one_level_and_fallback(
        monkeypatch, lambda: system.correct(u, disc), settings.modes)
    if seed == 0:
        (u_one, R_one, disc_one), (u_fb, R_fb, disc_fb) = one_level, fallback
        assert np.array_equal(u_one, u_fb) and np.array_equal(R_one, R_fb)
        _assert_same_disc(disc_one, disc_fb)
    else:
        assert isinstance(one_level, SolverDivergence)
        assert isinstance(fallback, SolverDivergence)
        assert str(one_level) == str(fallback)
        assert one_level.last_residual == fallback.last_residual
        assert one_level.stagnated == fallback.stagnated == (seed == 35)


def test_half_resolution_divergence_leaves_the_cold_solve_as_it_was(
        monkeypatch):
    # the cold two-point solve's joint iteration falls back the same way:
    # where its half-resolution level stagnates, it returns the
    # single-level disc and xi bit for bit
    make_domains, _, _, settings = TANGENCY_CASES["perturbed"]
    outer, _ = make_domains()
    z, w = np.array([0.2 + 0.1j, -0.1j]), np.array([-0.1, 0.25 + 0.2j])
    (disc_one, xi_one), (disc_fb, xi_fb) = _one_level_and_fallback(
        monkeypatch, lambda: discs_module.solve_two_point(outer, z, w,
                                                          settings),
        settings.modes)
    assert xi_one == xi_fb
    _assert_same_disc(disc_one, disc_fb)


def test_a_trace_whose_steps_all_fail_raises_step_size_collapse(monkeypatch):
    # the seed and the probe are corrected, and every locus step after
    # them fails: the step is halved five times, below 1/16 of its size
    correct = _BallTangencySystem.correct
    calls = []

    def failing(self, u, start=None):
        calls.append(u)
        if len(calls) > 2:
            raise SolverDivergence("no convergence")
        return correct(self, u, start)

    monkeypatch.setattr(_BallTangencySystem, "correct", failing)
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["ball2"]
    with pytest.raises(SolverDivergence,
                       match="^step-size collapse while tracing the "
                             "tangency locus$"):
        trace_locus(*make_domains(), np.array(z_o), 12, settings,
                    seed_w=np.array(seed_w))
    assert len(calls) == 2 + 5


def test_a_trace_that_does_not_come_around_raises_did_not_close(monkeypatch):
    # each correction lands a tenth of the way from the last point it
    # returned: 4 * steps points cover less arc than the locus has, and
    # the trace gives up
    correct = _BallTangencySystem.correct
    landed = []

    def short(self, u, start=None):
        if landed:
            u = landed[-1] + 0.1 * (u - landed[-1])
        out = correct(self, u, start)
        landed.append(out[0])
        return out

    monkeypatch.setattr(_BallTangencySystem, "correct", short)
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["ball2"]
    with pytest.raises(SolverDivergence,
                       match="^tangency locus did not close while tracing$"):
        trace_locus(*make_domains(), np.array(z_o), 12, settings,
                    seed_w=np.array(seed_w))
    assert len(landed) == 2 + 4 * 12


@pytest.mark.parametrize("da", [1e-6, 1e-8])
def test_a_locus_smaller_than_the_probe_is_traced_once_around(da):
    # near the inner boundary the locus (radius 1e-3 at da = 1e-6, 1e-4 at
    # 1e-8) is smaller than the probe step of 0.01; the step is sized from
    # the kernel tangent's turn over the probe, so it is not held to the
    # probe, and the trace closes after one turn about the locus
    r2 = 0.5
    inner = make_ball([0, 0], r2)
    a = r2 + da
    w = trace_locus(BALL, inner, np.array([a, 0.0]), 16,
                    SETTINGS).touch_points()
    angle = np.unwrap(np.angle(w[:, 1]))
    assert abs(angle[-1] - angle[0]) < 1.1 * 2.0 * np.pi
    # at 1e-8 the chord z_o - w is 1e-4 long, and the corrector's
    # absolute tolerance on its pairing row leaves w 3.7e-6 off the circle
    if da == 1e-6:
        w1, w2 = ball_locus_oracle(a, r2)
        error = np.hypot(np.abs(w[:, 0] - w1), np.abs(w[:, 1]) - w2)
        assert np.max(error) < 1e-6


def test_the_predictor_lands_on_the_parabola_nearest_the_tangent_step():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u, t = rng.standard_normal(9), rng.standard_normal(9)
        t /= np.linalg.norm(t[:4])
        bend = 0.4 * rng.standard_normal(9)
        h = 0.2 * (t @ t) / np.linalg.norm(bend)
        p = tangency_module._predict(u, t, bend, h)
        s = np.linspace(0.0, 2.0 * h, 20001)
        curve = u + np.multiply.outer(s, t) + 0.5 * np.multiply.outer(
            s * s, bend)
        target = u + h * t
        assert np.linalg.norm(p - target) \
            <= np.min(np.linalg.norm(curve - target, axis=1)) + 1e-12
        # the offset from the tangent step is orthogonal to the curve at p
        s_p = np.linalg.lstsq(np.column_stack([t, bend]), p - u,
                              rcond=None)[0][0]
        assert abs((p - target) @ (t + s_p * bend)) < 1e-9 * h * (t @ t)
    # no estimate, or one beyond the guard: the tangent step
    assert np.array_equal(tangency_module._predict(u, t, None, h), u + h * t)
    big = bend * (0.6 * (t @ t) / (h * np.linalg.norm(bend)))
    assert np.array_equal(tangency_module._predict(u, t, big, h), u + h * t)
