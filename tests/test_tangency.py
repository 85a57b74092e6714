import dataclasses

import numpy as np
import pytest

from geodisc import (make_ball, make_perturbed_ball, ball_geodesic,
                     tangency_residual, solve_tangent_disc, trace_locus,
                     jacobian_certificate, push_domain_through_psi,
                     pi_set_sample, tangent_line_disc, lift_from_disc,
                     projectivize, SolverSettings, CircleGrid, ConvexDomain,
                     PreconditionError)
from geodisc import tangency as tangency_module
from geodisc.discs import _CenterDirectionSystem, _solve_cd_raw
from geodisc.tangency import _TangencySystem

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


def _converged_tangency(outer, inner, z_o, seed_w, settings):
    """A tangency system with a corrected state and its solved disc."""
    tp = solve_tangent_disc(outer, inner, z_o, seed_w, settings)
    system = _TangencySystem(outer, inner, z_o, settings)
    d = tp.disc.base_direction / np.linalg.norm(tp.disc.base_direction)
    u, _, disc = system.correct(system.pack(tp.w, d, tp.sigma))
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
        _, disc = system.residual(u)
    J = system.jacobian(u, disc)
    warm = system.warm
    h = 1e-6
    for i in range(len(u)):
        cols = []
        for sign in (1.0, -1.0):
            up = u.copy()
            up[i] += sign * h
            system.warm = warm
            cols.append(system.residual(up)[0])
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

    monkeypatch.setattr("geodisc.tangency._solve_cd_raw", counting)
    system.jacobian(u, disc)
    assert calls == []


def _count_gn_jacobians(monkeypatch):
    calls = []
    jacobian = _CenterDirectionSystem.jacobian

    def counting(system, u):
        calls.append(u)
        return jacobian(system, u)

    monkeypatch.setattr(_CenterDirectionSystem, "jacobian", counting)
    return calls


def test_tangency_jacobian_after_a_warm_solve_builds_no_gn_jacobian(
        monkeypatch):
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    system, u, _ = _converged_tangency(*make_domains(), np.array(z_o),
                                       np.array(seed_w), settings)
    u = u + 0.02 * np.cos(np.arange(len(u)))
    _, disc = system.residual(u)
    assert system.warm is disc and disc.tangent is not None
    calls = _count_gn_jacobians(monkeypatch)
    system.jacobian(u, disc)
    assert calls == []
    # a disc without a tangent from its solve is linearized once
    system.jacobian(u, dataclasses.replace(disc, tangent=None))
    assert len(calls) == 1


def test_tangency_tangent_belongs_to_its_disc(monkeypatch):
    # the warm slot moving on to another disc leaves the first disc's
    # tangent with it: its Jacobian still builds no GN Jacobian
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    system, u, _ = _converged_tangency(*make_domains(), np.array(z_o),
                                       np.array(seed_w), settings)
    u_a = u + 0.02 * np.cos(np.arange(len(u)))
    _, disc_a = system.residual(u_a)
    assert disc_a.tangent is not None
    system.residual(u_a + 0.01 * np.sin(np.arange(len(u))))
    assert system.warm is not disc_a
    calls = _count_gn_jacobians(monkeypatch)
    system.jacobian(u_a, disc_a)
    assert calls == []


def test_first_order_start_saves_gn_jacobians(monkeypatch):
    # one corrector step along the locus, each inner solve started from the
    # previous disc moved along its parameter tangent, then from the
    # previous disc as it is
    make_domains, z_o, seed_w, settings = TANGENCY_CASES["perturbed"]
    system, u, disc = _converged_tangency(*make_domains(), np.array(z_o),
                                          np.array(seed_w), settings)
    J = system.jacobian(u, disc)
    t = np.linalg.svd(J)[2][-1]
    step = u + 0.1 * t / np.linalg.norm(t[:2 * system.n])
    solved = system.warm
    calls = _count_gn_jacobians(monkeypatch)
    counts, touch = [], []
    for first_order in (True, False):
        if not first_order:
            def zeroth_order(domain, z, v, settings, warm=None):
                if warm is not None:
                    warm = dataclasses.replace(warm, tangent=None)
                return _solve_cd_raw(domain, z, v, settings, warm=warm)

            monkeypatch.setattr(tangency_module, "_solve_cd_raw",
                                zeroth_order)
        system.warm = solved
        before = len(calls)
        u_new, R, _ = system.correct(step)
        counts.append(len(calls) - before)
        touch.append(system.unpack(u_new)[0])
        assert np.max(np.abs(R)) <= 1e-9
    assert np.linalg.norm(touch[0] - touch[1]) < 1e-8
    assert counts[0] < counts[1]
