import numpy as np
import pytest

from geodisc import (make_ball, make_ellipsoid, make_perturbed_ball, certify,
                     unit_outward_conormal, tangency_order_constant,
                     ball_geodesic, solve_tangent_disc, SolverSettings,
                     solve_from_center_direction,
                     AnalyticDisc, CircleGrid, PreconditionError)
from geodisc.circle import power_series, ring_values
from geodisc.domains import NAMED_BUMPS, _random_directions


def test_ball_examples():
    b = make_ball([0, 0], 1.0)
    assert abs(b.rho(np.array([1.0, 0.0]))) < 1e-14
    assert np.allclose(b.grad(np.array([1.0, 0.0])), [1.0, 0.0])
    assert abs(b.rho(np.zeros(2)) + 1.0) < 1e-14
    b2 = make_ball([0, 0], np.sqrt(1.0 / 3.0))
    assert abs(b2.rho(np.array([0.0, np.sqrt(1.0 / 3.0)]))) < 1e-14


def test_ellipsoid_examples():
    e = make_ellipsoid([1.0, 1.0])
    b = make_ball([0, 0], 1.0)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    assert np.max(np.abs(e.rho(pts) - b.rho(pts))) < 1e-12
    e21 = make_ellipsoid([2.0, 1.0])
    assert abs(e21.rho(np.array([2.0, 0.0]))) < 1e-14
    assert abs(e21.rho(np.array([1.0, 1.0])) - 0.25) < 1e-14


def test_perturbed_ball():
    assert make_perturbed_ball(0.0).kind == "perturbed_ball"
    pb = make_perturbed_ball(0.05, "re_z1_sq")
    cert = pb.cached_certificate()
    assert cert.passes
    assert cert.min_hessian_eigenvalue >= 2.0 - 0.2
    with pytest.raises(PreconditionError):
        make_perturbed_ball(2.0, "re_z1_sq")


def test_certify_ball_exact():
    b = make_ball([0, 0], 0.75)
    cert = certify(b, 128)
    assert abs(cert.min_hessian_eigenvalue - 2.0) < 1e-12
    assert abs(cert.min_gradient_norm - 2.0 * 0.75) < 1e-9
    assert cert.sample_count == 128


def test_certify_ellipsoid():
    cert = certify(make_ellipsoid([2.0, 1.0]), 128)
    assert abs(cert.min_hessian_eigenvalue - 0.5) < 1e-12


def test_certify_failing_is_data():
    # bounded but non-convex: rho = |z|^4 - 3|z1|^2 - 1 has a negative
    # Hessian eigenvalue at boundary points near the z2-axis
    from geodisc.domains import ConvexDomain

    def rho(z):
        r2 = np.sum(np.abs(z) ** 2, axis=-1)
        return r2 ** 2 - 3.0 * np.abs(z[..., 0]) ** 2 - 1.0

    def grad(z):
        r2 = np.sum(np.abs(z) ** 2, axis=-1)
        g = 2.0 * r2[..., None] * np.conj(z)
        g[..., 0] -= 3.0 * np.conj(z[..., 0])
        return g

    def hess(z):
        n = z.shape[-1]
        r2 = np.sum(np.abs(z) ** 2, axis=-1)
        zc = np.conj(z)
        A = 2.0 * zc[..., :, None] * zc[..., None, :]
        C = 2.0 * (zc[..., :, None] * z[..., None, :]
                   + r2[..., None, None] * np.eye(n))
        C[..., 0, 0] -= 3.0
        return A, C

    bad = ConvexDomain(2, "custom", rho, grad, hess)
    cert = certify(bad, 200)
    assert cert.min_hessian_eigenvalue < 0
    assert not cert.passes


def test_finite_difference_consistency():
    h = 1e-5
    rng = np.random.default_rng(1)
    for domain in (make_ball([0.1, -0.2j], 1.3), make_ellipsoid([2.0, 1.0]),
                   make_perturbed_ball(0.05, "re_z1z2")):
        n = domain.dimension
        pts = 0.3 * (rng.standard_normal((50, n))
                     + 1j * rng.standard_normal((50, n)))
        for z in pts:
            g = domain.grad(z)
            H = domain.hess_real(z)
            for j in range(n):
                ex = np.zeros(n, dtype=complex)
                ex[j] = h
                fd_x = (domain.rho(z + ex) - domain.rho(z - ex)) / (2 * h)
                fd_y = (domain.rho(z + 1j * ex) - domain.rho(z - 1j * ex)) / (2 * h)
                assert abs(fd_x - 2 * g[j].real) < 1e-6
                assert abs(fd_y + 2 * g[j].imag) < 1e-6
            # Hessian along a random real direction
            direction = rng.standard_normal(2 * n)
            dz = direction[0::2] + 1j * direction[1::2]
            second = (domain.rho(z + h * dz) - 2 * domain.rho(z)
                      + domain.rho(z - h * dz)) / h ** 2
            assert abs(second - direction @ H @ direction) < 1e-5


def test_unit_outward_conormal():
    b = make_ball([0, 0], 1.0)
    assert np.allclose(unit_outward_conormal(b, np.array([1.0, 0.0])),
                       [1.0, 0.0])
    assert np.allclose(unit_outward_conormal(b, np.array([0.0, 1.0j])),
                       [0.0, -1.0j])
    e = make_ellipsoid([2.0, 1.0])
    assert np.allclose(unit_outward_conormal(e, np.array([2.0, 0.0])),
                       [1.0, 0.0])
    with pytest.raises(PreconditionError):
        unit_outward_conormal(b, np.array([0.5, 0.0]))


def test_tangency_order_constant_vertical_line():
    # phi(tau) = (r, tau): rho2(phi)/|tau|^2 is exactly 1 for the ball of
    # radius r (unit-scale direction, not attached)
    r = 0.5
    inner = make_ball([0, 0], r)
    disc = AnalyticDisc(np.array([[r, 0.0], [0.0, 1.0]], dtype=complex),
                        CircleGrid(64))
    const = tangency_order_constant(inner, disc)
    assert abs(const - 1.0) < 1e-10


def test_tangency_order_constant_signs():
    inner = make_ball([0, 0], 0.5)
    ball = make_ball([0, 0], 1.0)
    st = SolverSettings()
    through = ball_geodesic(ball, np.zeros(2), np.array([1.0, 0.0]), st)
    assert tangency_order_constant(inner, through) < 0
    offset = AnalyticDisc(np.array([[0.8, 0.0], [0.0, 0.1]], dtype=complex),
                          CircleGrid(64))
    assert tangency_order_constant(inner, offset) > 0


def test_tangency_order_constant_rotation_invariance():
    r = 0.45
    inner = make_ball([0, 0], r)
    s = np.sqrt(1 - r ** 2)
    base = np.array([[r, 0.0], [0.0, s]], dtype=complex)
    c0 = tangency_order_constant(inner, AnalyticDisc(base, CircleGrid(64)))
    for alpha in (0.3, 1.1, 2.7):
        rot = base.copy()
        rot[1] *= np.exp(1j * alpha)
        c1 = tangency_order_constant(inner, AnalyticDisc(rot, CircleGrid(64)))
        assert abs(c1 - c0) < 1e-10


def _perturbed_locus_disc():
    pb = make_perturbed_ball(0.05, "re_z1_sq")
    inner = make_ball([0, 0], 0.4)
    small = SolverSettings(modes=32, grid=CircleGrid(128))
    tp = solve_tangent_disc(pb, inner, np.array([0.62 + 0j, 0.05j]),
                            np.array([0.3, 0.25]), small)
    return inner, tp.disc


def _interior_minimum_disc(r=0.5, c=1.0, s=1.0, alpha=0.1):
    """phi(tau) = (r + c (e^{i alpha} tau)^3, s e^{i alpha} tau) against the
    ball of radius r: q = s^2 + 2 r c |tau| cos(3 arg) + c^2 |tau|^4 has
    its minimum s^2 - 1.5 r c rho* at |tau| = rho* = (r / 2c)^(1/3) < 1,
    off the coarse grid's rings and angles."""
    coeffs = np.zeros((4, 2), dtype=complex)
    coeffs[0, 0] = r
    coeffs[1, 1] = s * np.exp(1j * alpha)
    coeffs[3, 0] = c * np.exp(3j * alpha)
    exact = s ** 2 - 1.5 * r * c * (r / (2.0 * c)) ** (1.0 / 3.0)
    return make_ball([0, 0], r), AnalyticDisc(coeffs, CircleGrid(64)), exact


def _coarse_minimum(rho2, disc):
    radii = np.concatenate(([1e-3], np.linspace(1.0 / 16, 1.0, 16)))
    vals = rho2.rho(ring_values(disc.coeffs, 128, radii))
    return float(np.min(vals / radii[:, None] ** 2))


def test_tangency_order_constant_matches_fine_rim_minimum():
    # on a perturbed-ball locus disc the minimum sits on the rim |tau| = 1;
    # brute force: a fine rim grid, then a finer one around its minimum
    inner, disc = _perturbed_locus_disc()
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)
    q = inner.rho(disc(np.exp(1j * theta)))
    h, t0 = theta[1], theta[np.argmin(q)]
    fine = np.linspace(t0 - 2 * h, t0 + 2 * h, 4097)
    brute = float(np.min(inner.rho(disc(np.exp(1j * fine)))))
    assert abs(tangency_order_constant(inner, disc) - brute) < 1e-12


def test_tangency_order_constant_interior_minimum():
    ball, disc, exact = _interior_minimum_disc()
    assert _coarse_minimum(ball, disc) - exact > 1e-5
    assert abs(tangency_order_constant(ball, disc) - exact) < 1e-12


def test_tangency_order_constant_never_above_coarse_minimum():
    inner, locus = _perturbed_locus_disc()
    ball, interior, _ = _interior_minimum_disc()
    offset = AnalyticDisc(np.array([[0.8, 0.0], [0.0, 0.1]], dtype=complex),
                          CircleGrid(64))
    for rho2, disc in ((inner, locus), (ball, interior), (ball, offset)):
        coarse = _coarse_minimum(rho2, disc)
        assert tangency_order_constant(rho2, disc, zoom_rounds=0) == coarse
        assert tangency_order_constant(rho2, disc) <= coarse


def _power_series_order_constant(rho2, disc, zoom_rounds=8):
    """The order constant with phi, phi' and phi'' read by power_series
    and every Newton step taken by np.linalg.det and np.linalg.solve."""
    radii = np.concatenate(([1e-3], np.linspace(1.0 / 16, 1.0, 16)))
    angles = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    vals = rho2.rho(ring_values(disc.coeffs, 128, radii)) / radii[:, None] ** 2
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    r, th, best = radii[i], angles[j], float(vals[i, j])
    a = disc.coeffs
    k = np.arange(len(a))[:, None]
    jets = [a, np.zeros_like(a), np.zeros_like(a)]
    jets[1][:-1] = k[1:] * a[1:]
    jets[2][:-2] = k[2:] * (k[2:] - 1) * a[2:]

    def jet(r, th):
        e = np.exp(1j * th)
        tau = r * e
        phi, d1, d2 = (power_series(c, tau) for c in jets)
        f = float(rho2.rho(phi))
        g = rho2.grad(phi)
        A, C = rho2.hess_complex(phi)
        fa, fb = g @ d1, d1 @ A @ d1 + g @ d2
        fc = float((d1 @ C @ np.conj(d1)).real)
        f_r, f_t = 2.0 * (fa * e).real, -2.0 * (fa * tau).imag
        f_rr = 2.0 * (fb * e * e).real + 2.0 * fc
        f_rt = -2.0 * ((fb * tau + fa) * e).imag
        f_tt = -2.0 * (fb * tau * tau + fa * tau).real + 2.0 * fc * r * r
        grad = np.array([f_r / r ** 2 - 2.0 * f / r ** 3, f_t / r ** 2])
        q_rr = f_rr / r ** 2 - 4.0 * f_r / r ** 3 + 6.0 * f / r ** 4
        q_rt = f_rt / r ** 2 - 2.0 * f_t / r ** 3
        hess = np.array([[q_rr, q_rt], [q_rt, f_tt / r ** 2]])
        return f / r ** 2, grad, hess

    _, grad, hess = jet(r, th)
    for _ in range(zoom_rounds):
        if (r >= 1.0 and grad[0] < 0) or (r <= radii[0] and grad[0] > 0):
            if not hess[1, 1] > 0:
                break
            r_new, th_new = r, th - grad[1] / hess[1, 1]
        else:
            if not (hess[0, 0] > 0 and np.linalg.det(hess) > 0):
                break
            dr, dth = np.linalg.solve(hess, -grad)
            r_new, th_new = min(max(r + dr, radii[0]), 1.0), th + dth
        q, grad, hess = jet(r_new, th_new)
        if not q < best:
            break
        r, th, best = r_new, th_new, q
    return best


def _order_constant_cases():
    """(rho2, disc): the rim, interior and rotated discs above, the
    offset line, and a perturbed-ball geodesic against a ball."""
    inner, locus = _perturbed_locus_disc()
    ball, interior, _ = _interior_minimum_disc()
    r = 0.45
    base = np.array([[r, 0.0], [0.0, np.sqrt(1 - r ** 2)]], dtype=complex)
    rotated = [base * np.array([[1.0], [np.exp(1j * alpha)]])
               for alpha in (0.0, 0.3, 1.1, 2.7)]
    offset = np.array([[0.8, 0.0], [0.0, 0.1]], dtype=complex)
    geodesic, _ = solve_from_center_direction(
        make_perturbed_ball(0.05, "re_z1_sq"), np.array([0.5, 0.2j]),
        np.array([0.3j, 1.0]), SolverSettings(modes=32, grid=CircleGrid(128)))
    return ([(inner, locus), (ball, interior), (inner, geodesic),
             (make_ball([0, 0], 0.5), AnalyticDisc(offset, CircleGrid(64)))]
            + [(make_ball([0, 0], r), AnalyticDisc(c, CircleGrid(64)))
               for c in rotated])


def test_tangency_order_constant_matches_the_power_series_path():
    # the jets read from one vector of powers and the closed-form 2x2 step
    # refine to the values of power_series and LAPACK's det and solve; the
    # coarse minimum is the same number
    for rho2, disc in _order_constant_cases():
        refined = _power_series_order_constant(rho2, disc)
        assert abs(tangency_order_constant(rho2, disc) - refined) \
            <= 1e-13 * abs(refined)
        assert tangency_order_constant(rho2, disc, zoom_rounds=0) \
            == _power_series_order_constant(rho2, disc, zoom_rounds=0)


def test_hess_real_matches_complex_blocks():
    pb = make_perturbed_ball(0.05, "re_z1_sq")
    z = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    H = pb.hess_real(z)
    assert np.max(np.abs(H - H.T)) < 1e-14
    # for rho = |z|^2 - 1 + eps Re z1^2: d2/dx1^2 = 2 + 2 eps, d2/dy1^2 = 2 - 2 eps
    assert abs(H[0, 0] - (2 + 0.1)) < 1e-12
    assert abs(H[1, 1] - (2 - 0.1)) < 1e-12
    assert abs(H[2, 2] - 2.0) < 1e-12


def test_certify_requires_min_samples():
    with pytest.raises(PreconditionError):
        certify(make_ball([0, 0], 1.0), 50)


def _scalar_ray_bisect(domain, direction, tol=1e-12):
    """Reference: the one-ray doubling-then-bisection rule, written with
    Python scalars."""
    base = domain.center
    t_lo, t_hi = 0.0, 1.0 / np.linalg.norm(direction)
    while domain.rho(base + t_hi * direction) <= 0:
        t_lo, t_hi = t_hi, 2.0 * t_hi
    while t_hi - t_lo > tol * max(1.0, t_hi):
        mid = 0.5 * (t_lo + t_hi)
        if domain.rho(base + mid * direction) > 0:
            t_hi = mid
        else:
            t_lo = mid
    return 0.5 * (t_lo + t_hi)


BATCH_DOMAINS = {
    "ball": lambda: make_ball([0.1, -0.2j], 0.7),
    "ellipsoid": lambda: make_ellipsoid([2.0, 1.0]),
    "perturbed_ball": lambda: make_perturbed_ball(0.05, "re_z1_sq"),
}


@pytest.mark.parametrize("name", sorted(BATCH_DOMAINS))
@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_boundary_point_batched(name, shape):
    domain = BATCH_DOMAINS[name]()
    rng = np.random.default_rng(11)
    dirs = (rng.standard_normal(shape + (2,))
            + 1j * rng.standard_normal(shape + (2,))) \
        * rng.uniform(0.01, 100.0, shape + (1,))
    pts = domain.boundary_point(dirs)
    assert pts.shape == dirs.shape
    flat_dirs = dirs.reshape(-1, 2)
    stacked = np.array([domain.boundary_point(d) for d in flat_dirs])
    assert np.array_equal(pts.reshape(-1, 2), stacked)
    center = domain.center
    for p, d in zip(stacked, flat_dirs):
        t = _scalar_ray_bisect(domain, d)
        assert np.linalg.norm(p - (center + t * d)) \
            <= 1e-12 * t * np.linalg.norm(d)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_boundary_point_rejects_degenerate_direction_in_batch(bad):
    domain = make_perturbed_ball(0.05, "re_z1_sq")
    dirs = np.ones((3, 4, 2), dtype=complex)
    dirs[2, 1] = [bad, 0.0 if bad == 0.0 else 1.0]
    with pytest.raises(PreconditionError,
                       match="zero" if bad == 0.0 else "not finite"):
        domain.boundary_point(dirs)
    with pytest.raises(PreconditionError):
        domain.boundary_point(dirs[2, 1])


@pytest.mark.parametrize("count,n", [(1, 2), (64, 2), (256, 3)])
def test_random_directions_match_the_inline_draw(count, n):
    # the same generator calls, in the same order, and the same arithmetic
    # as the inline draw it replaced, so seeded samples stay bit-identical
    raw = np.random.default_rng(5).standard_normal((count, 2 * n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    rng = np.random.default_rng(5)
    dirs = _random_directions(rng, count, n)
    assert np.array_equal(dirs, raw[:, 0::2] + 1j * raw[:, 1::2])
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    # the generator has advanced past exactly that draw
    follow = np.random.default_rng(5)
    follow.standard_normal((count, 2 * n))
    assert rng.uniform() == follow.uniform()


@pytest.mark.parametrize("n", [2, 3])
def test_quadratic_domains_match_their_formulas_bit_for_bit(n):
    # the ball, the ellipsoid and the perturbed balls share
    # domains._quadratic, which keeps each domain's own expressions
    rng = np.random.default_rng(n)
    z = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
    center = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    axes = rng.uniform(0.5, 2.0, n)
    inv2 = 1.0 / axes ** 2
    zero = np.zeros((9, n, n), dtype=complex)
    eye = np.broadcast_to(np.eye(n, dtype=complex), (9, n, n))
    cases = [
        (make_ball(center, 1.3),
         np.sum(np.abs(z - center) ** 2, axis=-1) - 1.3 ** 2,
         np.conj(z - center), zero, eye),
        (make_ellipsoid(axes), np.sum(np.abs(z) ** 2 * inv2, axis=-1) - 1.0,
         np.conj(z) * inv2, zero,
         np.broadcast_to(np.diag(inv2).astype(complex), (9, n, n))),
    ]
    for name, bump in NAMED_BUMPS.items():
        Ab, Cb = bump.hess(z)
        cases.append((make_perturbed_ball(0.05, name, n),
                      np.sum(np.abs(z) ** 2, axis=-1) - 1.0
                      + 0.05 * bump.value(z),
                      np.conj(z) + 0.05 * bump.grad(z), 0.05 * Ab,
                      eye + 0.05 * Cb))
    for domain, rho, grad, A, C in cases:
        assert np.array_equal(domain.rho(z), rho)
        assert np.array_equal(domain.grad(z), grad)
        A_d, C_d = domain.hess_complex(z)
        assert np.array_equal(A_d, A) and np.array_equal(C_d, C)
