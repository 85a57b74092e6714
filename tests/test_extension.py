import numpy as np
import pytest

from geodisc import (make_ball, ball_geodesic, reparametrize, restrict,
                     extension_defect, relative_defect, extend_along_disc,
                     morera_integrals, extension_report, consistency_check,
                     reconstruct, counterexample_harness, tangent_line_disc,
                     tangent_line_family, BoundaryFunction, NAMED_FUNCTIONS,
                     SolverSettings, MoebiusMap, CircleGrid,
                     PreconditionError)

BALL = make_ball([0, 0], 1.0)
SETTINGS = SolverSettings()
RADIAL = ball_geodesic(BALL, np.zeros(2), np.array([1.0, 0.0]), SETTINGS)


def oracle_line_defect(r2, p, d):
    """Brute-force Fourier coefficients of f = z1 conj(z2)^2 on the
    tangent line p + s e^{i theta} d by direct quadrature."""
    s = np.sqrt(1 - r2 ** 2)
    theta = 2 * np.pi * np.arange(4096) / 4096
    lam = np.exp(1j * theta)
    z = p[None, :] + s * lam[:, None] * d[None, :]
    vals = z[:, 0] * np.conj(z[:, 1]) ** 2
    c = np.fft.fft(vals) / len(vals)
    return np.sqrt(np.sum(np.abs(c[len(c) // 2:]) ** 2))  # negative modes


def test_restrict_examples():
    f = NAMED_FUNCTIONS["z1"]
    trace = restrict(f, RADIAL)
    assert abs(trace.values.coeff(1) - 1.0) < 1e-13
    assert extension_defect(trace) < 1e-13
    one = BoundaryFunction(lambda z: np.ones(z.shape[:-1], dtype=complex), "1")
    t1 = restrict(one, RADIAL)
    assert abs(t1.values.coeff(0) - 1.0) < 1e-13
    tbar = restrict(NAMED_FUNCTIONS["zbar1"], RADIAL)
    assert abs(tbar.values.coeff(-1) - 1.0) < 1e-13
    assert abs(extension_defect(tbar) - 1.0) < 1e-13


def test_defect_of_holomorphic_function_vanishes():
    f = BoundaryFunction(lambda z: z[..., 0] * z[..., 1], "z1z2")
    disc = ball_geodesic(BALL, np.array([0.2, 0.1j]), np.array([1.0, 0.5]),
                         SETTINGS)
    assert extension_defect(restrict(f, disc)) < 1e-12


def test_counterexample_defect_matches_quadrature_oracle():
    r2 = np.sqrt(1.0 / 3.0)
    rng = np.random.default_rng(0)
    alpha, b1, b2 = 0.7, 1.1, 2.3
    p = r2 * np.array([np.cos(alpha) * np.exp(1j * b1),
                       np.sin(alpha) * np.exp(1j * b2)])
    d = np.array([-np.conj(p[1]), np.conj(p[0])]) / r2
    disc = tangent_line_disc(r2, p, d, CircleGrid(256))
    defect = extension_defect(restrict(NAMED_FUNCTIONS["z1_zbar2_sq"], disc))
    assert defect > 0.01
    assert abs(defect - oracle_line_defect(r2, p, d)) < 1e-10


def test_extend_along_disc():
    f = NAMED_FUNCTIONS["z1"]
    trace = restrict(f, RADIAL)
    assert abs(extend_along_disc(trace, 0.5) - 0.5) < 1e-12
    g = BoundaryFunction(lambda z: z[..., 0] ** 2 + 3.0, "z1sq+3")
    tg = restrict(g, RADIAL)
    assert abs(extend_along_disc(tg, 0.5) - 3.25) < 1e-12
    tbar = restrict(NAMED_FUNCTIONS["zbar1"], RADIAL)
    with pytest.raises(PreconditionError):
        extend_along_disc(tbar, 0.5)


def test_morera_integrals_examples():
    # holomorphic polynomial: Cauchy gives zero
    f = BoundaryFunction(lambda z: z[..., 0] ** 2 * z[..., 1], "poly")
    disc = ball_geodesic(BALL, np.array([0.3, -0.2j]), np.array([1.0, 1.0]),
                         SETTINGS)
    assert np.max(np.abs(morera_integrals(f, disc))) < 1e-10
    # f = conj(z1) on the radial disc: integral of conj(z) dz = 2 pi i
    vals = morera_integrals(NAMED_FUNCTIONS["zbar1"], RADIAL)
    assert abs(vals[0] - 2j * np.pi) < 1e-12
    assert abs(vals[1]) < 1e-12


def test_morera_linearity_and_constants():
    one = BoundaryFunction(lambda z: np.ones(z.shape[:-1], dtype=complex), "1")
    disc = ball_geodesic(BALL, np.array([0.2, 0.1]), np.array([0.3, 1.0]),
                         SETTINGS)
    assert np.max(np.abs(morera_integrals(one, disc))) < 1e-12
    f = NAMED_FUNCTIONS["zbar1"]
    g = NAMED_FUNCTIONS["z1"]
    combo = BoundaryFunction(
        lambda z: 2.0 * np.conj(z[..., 0]) - 0.5j * z[..., 0], "combo")
    lhs = morera_integrals(combo, disc)
    rhs = 2.0 * morera_integrals(f, disc) - 0.5j * morera_integrals(g, disc)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_morera_paper_values():
    # r2 = sqrt(1/3): all integrals vanish; r2 = 0.5: visibly nonzero
    grid = CircleGrid(512)
    f = NAMED_FUNCTIONS["z1_zbar2_sq"]
    for disc in tangent_line_family(np.sqrt(1.0 / 3.0), 16, grid):
        assert np.max(np.abs(morera_integrals(f, disc))) < 1e-10
    vals = [np.max(np.abs(morera_integrals(f, d)))
            for d in tangent_line_family(0.5, 16, grid)]
    assert max(vals) > 1e-3


def test_extension_report():
    rep = extension_report(NAMED_FUNCTIONS["z1"], RADIAL)
    assert rep.extendible and rep.defect < 1e-12
    rep2 = extension_report(NAMED_FUNCTIONS["zbar1"], RADIAL)
    assert not rep2.extendible


def test_counterexample_harness():
    rep = counterexample_harness(n_discs=32, grid_size=512)
    main = rep.per_radius[float(np.sqrt(1.0 / 3.0))]
    assert main["max_morera"] < 1e-10
    assert main["min_defect"] > 0.01
    control = rep.per_radius[0.5]
    assert control["max_morera"] > 1e-3
    holo = rep.holomorphic_control
    assert holo["max_morera"] < 1e-10 and holo["max_defect"] < 1e-10


def test_consistency_check_holomorphic():
    f = NAMED_FUNCTIONS["holo_mix"]
    inner = make_ball([0, 0], 0.5)
    z = np.array([0.62 + 0.1j, 0.21 - 0.05j])
    rep = consistency_check(f, BALL, inner, z, disc_count=6, settings=SETTINGS)
    assert np.all(rep.extendible)
    assert rep.spread < 1e-8
    expected = z[0] ** 2 + np.exp(z[1])
    assert np.max(np.abs(rep.values - expected)) < 1e-8


def test_consistency_check_flags_conjugate():
    inner = make_ball([0, 0], 0.5)
    z = np.array([0.62 + 0.0j, 0.2j])
    rep = consistency_check(NAMED_FUNCTIONS["zbar1"], BALL, inner, z,
                            disc_count=4, settings=SETTINGS)
    assert not np.any(rep.extendible)
    assert np.all(np.isnan(rep.values.real))
    assert np.all(rep.defects > 1e-2)


def test_consistency_check_precondition():
    inner = make_ball([0, 0], 0.5)
    with pytest.raises(PreconditionError):
        consistency_check(NAMED_FUNCTIONS["z1"], BALL, inner,
                          np.array([0.2, 0.0]), 4, SETTINGS)


def test_reconstruct_small():
    f = NAMED_FUNCTIONS["holo_mix"]
    inner = make_ball([0, 0], 0.5)
    pts = np.array([[0.6, 0.1j], [0.1j, 0.65], [0.45, -0.45]], dtype=complex)
    res = reconstruct(f, BALL, inner, pts, disc_count=5, settings=SETTINGS)
    expected = pts[:, 0] ** 2 + np.exp(pts[:, 1])
    assert np.max(np.abs(res.values - expected)) < 1e-6
    assert res.max_spread < 1e-8
    assert res.defect_failures == 0
    assert res.unextended_points == 0


def test_reconstruct_refuses_conjugate():
    inner = make_ball([0, 0], 0.5)
    pts = np.array([[0.6, 0.1j]], dtype=complex)
    res = reconstruct(NAMED_FUNCTIONS["zbar1"], BALL, inner, pts,
                      disc_count=4, settings=SETTINGS)
    assert res.defect_failures == 4
    assert res.unextended_points == 1
    assert np.all(np.isnan(res.values.real))


def test_defect_rotation_invariance_and_decision_under_moebius():
    # the defect value is invariant under rotations; under a general
    # automorphism the extendibility decision and extension values at
    # fixed spatial points are what is preserved
    f = NAMED_FUNCTIONS["z1_zbar2_sq"]
    g = NAMED_FUNCTIONS["holo_mix"]
    r2 = np.sqrt(1.0 / 3.0)
    disc = tangent_line_family(r2, 5, CircleGrid(256))[2]
    base = extension_defect(restrict(f, disc))
    rot = reparametrize(disc, MoebiusMap(rotation=np.exp(0.8j)))
    assert abs(extension_defect(restrict(f, rot)) - base) < 1e-12
    m = MoebiusMap(a=0.3 - 0.1j, rotation=np.exp(0.5j))
    moved = reparametrize(disc, m)
    assert extension_defect(restrict(f, moved)) > 0.01       # still fails
    # extendible data: value at a fixed spatial point is unchanged
    tau0 = 0.4 + 0.2j
    spatial = disc(np.array([tau0]))[0]
    v1 = extend_along_disc(restrict(g, disc), tau0)
    v2 = extend_along_disc(restrict(g, moved), complex(m.inverse()(tau0)))
    assert np.linalg.norm(moved(np.array([m.inverse()(tau0)]))[0]
                          - spatial) < 1e-10
    assert abs(v1 - v2) < 1e-8
    assert abs(v1 - (spatial[0] ** 2 + np.exp(spatial[1]))) < 1e-10


def test_threshold_is_relative():
    f = BoundaryFunction(lambda z: 1e-8 * z[..., 0], "tiny")
    trace = restrict(f, RADIAL)
    assert relative_defect(trace) < 1e-10
    extend_along_disc(trace, 0.3)       # must not raise


def test_monotone_convergence_under_refinement():
    f = NAMED_FUNCTIONS["holo_mix"]
    inner = make_ball([0, 0], 0.5)
    z = np.array([0.55 + 0.2j, 0.3 - 0.1j])
    spreads, defects = [], []
    for (n, m) in ((128, 32), (256, 64), (512, 128)):
        st = SolverSettings(modes=m, grid=CircleGrid(n))
        rep = consistency_check(f, BALL, inner, z, disc_count=4, settings=st)
        spreads.append(rep.spread)
        defects.append(np.max(rep.defects))
    floor = 5e-11
    for seq in (spreads, defects):
        for a, b in zip(seq, seq[1:]):
            assert b <= max(2.0 * a, floor)


def test_continuity_gap_diagnostic():
    f = NAMED_FUNCTIONS["holo_mix"]
    assert f.continuity_gap(BALL, pairs=32, h=1e-6) < 1e-4


def test_polynomial_degree_six_invariant():
    rng = np.random.default_rng(9)
    coeffs = {(a, b): rng.standard_normal() + 1j * rng.standard_normal()
              for a in range(4) for b in range(4) if a + b <= 6}

    def poly(z):
        return sum(c * z[..., 0] ** a * z[..., 1] ** b
                   for (a, b), c in coeffs.items())

    f = BoundaryFunction(poly, "deg6")
    for (z, v) in (([0.3, 0.2j], [1.0, 0.5]), ([0.0, 0.0], [0.2, 1.0]),
                   ([0.45 + 0.1j, -0.2j], [1.0, -1.0j])):
        disc = ball_geodesic(BALL, np.asarray(z, complex),
                             np.asarray(v, complex), SETTINGS)
        trace = restrict(f, disc)
        assert extension_defect(trace) <= 1e-10
        for tau in (0.0, 0.4, -0.3 + 0.5j):
            val = extend_along_disc(trace, tau)
            spatial = disc(np.array([tau], dtype=complex))[0]
            assert abs(val - poly(spatial)) <= 1e-10
