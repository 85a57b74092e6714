import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geodisc import (CircleGrid, analyze, synthesize, hilbert_conjugate,
                     cauchy_extend, negative_tail_norm, log_lift,
                     PreconditionError, WindingNumberError)
from geodisc.circle import TrigSeries, power_series, ring_values


def direct_dft(samples):
    """O(N^2) reference transform, independent of the FFT path."""
    n = len(samples)
    ks = np.arange(-(n // 2), n // 2)
    return np.array([np.sum(samples * np.exp(-1j * k * 2 * np.pi
                                             * np.arange(n) / n)) / n
                     for k in ks])


def test_grid_validation():
    with pytest.raises(PreconditionError):
        CircleGrid(12)
    with pytest.raises(PreconditionError):
        CircleGrid(48)
    assert CircleGrid(16).size == 16


def test_analyze_constant():
    g = CircleGrid(16)
    s = analyze(np.ones(16), g)
    assert abs(s.coeff(0) - 1.0) < 1e-14
    assert np.max(np.abs(s.coeffs)) - abs(s.coeff(0)) < 1e-14


def test_analyze_pure_mode():
    g = CircleGrid(16)
    s = analyze(np.exp(1j * g.angles), g)
    assert abs(s.coeff(1) - 1.0) < 1e-14
    assert negative_tail_norm(s) < 1e-14


def test_analyze_cos3_against_direct_dft():
    g = CircleGrid(16)
    samples = np.cos(3 * g.angles)
    s = analyze(samples, g)
    assert abs(s.coeff(3) - 0.5) < 1e-14
    assert abs(s.coeff(-3) - 0.5) < 1e-14
    ref = direct_dft(samples)
    assert np.max(np.abs(s.coeffs - ref)) < 1e-13


def test_synthesize_point_values():
    g = CircleGrid(16)
    s0 = analyze(np.ones(16), g)
    assert abs(synthesize(s0, [np.pi])[0] - 1.0) < 1e-14
    s1 = analyze(np.exp(1j * g.angles), g)
    assert abs(synthesize(s1, [np.pi / 2])[0] - 1j) < 1e-14
    s3 = analyze(np.cos(3 * g.angles), g)
    assert abs(synthesize(s3, [np.pi / 3])[0] - (-1.0)) < 1e-13


def test_roundtrip_random():
    rng = np.random.default_rng(0)
    g = CircleGrid(64)
    for _ in range(5):
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        back = synthesize(analyze(vals, g))
        assert np.max(np.abs(back - vals)) < 1e-12


def test_hilbert_examples():
    g = CircleGrid(32)
    t_cos = hilbert_conjugate(analyze(np.cos(g.angles), g))
    assert np.max(np.abs(synthesize(t_cos).real - np.sin(g.angles))) < 1e-13
    t_const = hilbert_conjugate(analyze(5.0 * np.ones(32), g))
    assert np.max(np.abs(synthesize(t_const))) < 1e-13
    t_sin = hilbert_conjugate(analyze(np.sin(g.angles), g))
    expected = -np.cos(g.angles) + 1.0
    assert np.max(np.abs(synthesize(t_sin).real - expected)) < 1e-13


def test_hilbert_rejects_complex_input():
    g = CircleGrid(16)
    s = analyze(np.exp(1j * g.angles), g)
    with pytest.raises(PreconditionError):
        hilbert_conjugate(s)


def _bandlimited_real(grid, rng, kmax):
    """Random real function resolved on the grid (no Nyquist content)."""
    vals = np.zeros(grid.size)
    for k in range(1, kmax + 1):
        vals += rng.standard_normal() * np.cos(k * grid.angles)
        vals += rng.standard_normal() * np.sin(k * grid.angles)
    return vals


def test_hilbert_multiplier_identities():
    # T(cos k.) = sin k. for k >= 1, and T(T(u)) = u(1) - u on mean-zero u
    g = CircleGrid(64)
    for k in (1, 2, 5, 11):
        t = hilbert_conjugate(analyze(np.cos(k * g.angles), g))
        assert np.max(np.abs(synthesize(t).real - np.sin(k * g.angles))) < 1e-12
    rng = np.random.default_rng(3)
    u_vals = _bandlimited_real(g, rng, 20)
    u = analyze(u_vals, g)
    tt = hilbert_conjugate(hilbert_conjugate(u))
    expected = u_vals[0] - u_vals
    assert np.max(np.abs(synthesize(tt).real - expected)) < 1e-12


def test_hilbert_linearity():
    g = CircleGrid(32)
    rng = np.random.default_rng(1)
    a_vals = rng.standard_normal(32)
    b_vals = rng.standard_normal(32)
    lhs = hilbert_conjugate(analyze(2.0 * a_vals - 3.0 * b_vals, g))
    rhs = 2.0 * synthesize(hilbert_conjugate(analyze(a_vals, g))) \
        - 3.0 * synthesize(hilbert_conjugate(analyze(b_vals, g)))
    assert np.max(np.abs(synthesize(lhs) - rhs)) < 1e-12


def test_analytic_completion_has_no_negative_tail():
    g = CircleGrid(64)
    rng = np.random.default_rng(2)
    u_vals = 1.5 + _bandlimited_real(g, rng, 25)
    u = analyze(u_vals, g)
    t = hilbert_conjugate(u)
    completion = analyze(u_vals + 1j * synthesize(t).real, g)
    assert negative_tail_norm(completion) < 1e-10


def test_cauchy_extend():
    g = CircleGrid(16)
    s1 = analyze(np.exp(1j * g.angles), g)
    assert abs(cauchy_extend(s1, 0.0)) < 1e-14
    s0 = analyze(3.0 * np.ones(16), g)
    assert abs(cauchy_extend(s0, 0.3 + 0.2j) - 3.0) < 1e-13
    s2 = analyze(np.exp(2j * g.angles), g)
    assert abs(cauchy_extend(s2, 0.5) - 0.25) < 1e-13
    with pytest.raises(PreconditionError):
        cauchy_extend(s0, 1.0)


def test_cauchy_extend_matches_polynomial():
    g = CircleGrid(32)
    coeffs = np.array([1.0, -0.5j, 0.25, 0.1 + 0.2j])
    vals = sum(c * g.nodes ** k for k, c in enumerate(coeffs))
    s = analyze(vals, g)
    for tau in (0.0, 0.3, 0.5j, -0.4 + 0.3j):
        direct = sum(c * tau ** k for k, c in enumerate(coeffs))
        assert abs(cauchy_extend(s, tau) - direct) < 1e-12


def test_negative_tail_norm():
    g = CircleGrid(16)
    hol = analyze(np.exp(1j * g.angles) + 2.0, g)
    assert negative_tail_norm(hol) < 1e-14
    s = TrigSeries(g, np.zeros(16, dtype=complex))
    s.coeffs[16 // 2 - 1] = 3.0     # wavenumber -1
    assert abs(negative_tail_norm(s) - 3.0) < 1e-14
    mixed = analyze(np.exp(-1j * g.angles) + np.exp(1j * g.angles), g)
    assert abs(negative_tail_norm(mixed) - 1.0) < 1e-13


def test_log_lift_constant():
    g = CircleGrid(16)
    s = analyze(np.full(16, np.exp(2.0)), g)
    out = log_lift(s)
    assert np.max(np.abs(synthesize(out) - 2.0)) < 1e-12


def test_log_lift_winding_zero_curve():
    g = CircleGrid(64)
    vals = 2.0 + 0.1 * np.exp(1j * g.angles)
    out = log_lift(analyze(vals, g))
    lifted = synthesize(out)
    assert np.max(np.abs(np.exp(lifted) - vals)) < 1e-10
    assert np.max(np.abs(lifted.imag)) < np.pi      # principal branch


def test_log_lift_rejects_winding_one():
    g = CircleGrid(32)
    with pytest.raises(WindingNumberError):
        log_lift(analyze(np.exp(1j * g.angles), g))


def test_log_lift_rejects_vanishing():
    g = CircleGrid(32)
    vals = np.exp(1j * g.angles) - 1.0      # vanishes at theta = 0
    with pytest.raises(PreconditionError):
        log_lift(analyze(vals, g))


def test_log_lift_roundtrip_random_smooth():
    g = CircleGrid(128)
    rng = np.random.default_rng(4)
    for _ in range(3):
        c = 0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        vals = 3.0 + sum(ck * np.exp(1j * (k + 1) * g.angles)
                         for k, ck in enumerate(c))
        out = log_lift(analyze(vals, g))
        assert np.max(np.abs(np.exp(synthesize(out)) - vals)) < 1e-10


def test_realness_and_holomorphy_flags():
    g = CircleGrid(16)
    assert analyze(np.cos(2 * g.angles), g).is_real()
    assert not analyze(np.exp(1j * g.angles) * 1j + np.exp(2j * g.angles),
                       g).is_real()
    assert analyze(np.exp(1j * g.angles), g).is_holomorphic_type()
    assert not analyze(np.exp(-1j * g.angles), g).is_holomorphic_type()


@pytest.mark.parametrize("K", [1, 2, 33, 65, 129])
@pytest.mark.parametrize("shape", [(), (9,), (3, 5)])
def test_power_series_matches_polyval(K, shape):
    rng = np.random.default_rng(K)
    coeffs = rng.standard_normal((K, 2)) + 1j * rng.standard_normal((K, 2))
    tau = rng.uniform(0.0, 1.0, shape) \
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape))
    got = power_series(coeffs, tau)
    ref = np.moveaxis(np.polynomial.polynomial.polyval(tau, coeffs), 0, -1)
    assert got.shape == shape + (2,)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(coeffs))
    scalar = power_series(coeffs[:, 0], tau)
    assert scalar.shape == shape
    assert np.max(np.abs(scalar - ref[..., 0])) \
        <= 1e-13 * np.sum(np.abs(coeffs[:, 0]))


@pytest.mark.parametrize("K", [1, 33, 65, 128, 129, 300])
def test_ring_values_match_power_series(K):
    # one batched inverse FFT over the rings, the coefficients folded mod
    # the ring size, so also exact for more coefficients than nodes
    rng = np.random.default_rng(K)
    coeffs = rng.standard_normal((K, 2)) + 1j * rng.standard_normal((K, 2))
    radii = np.array([0.0, 1e-3, 0.5, 1.0])
    size = 128
    got = ring_values(coeffs, size, radii)
    nodes = np.exp(2j * np.pi * np.arange(size) / size)
    ref = power_series(coeffs, radii[:, None] * nodes)
    assert got.shape == (4, size, 2)
    scale = power_series(np.abs(coeffs), radii)      # sum_k |a_k| r^k
    assert np.all(np.abs(got - ref) <= 1e-13 * scale[:, None, :])
    assert np.array_equal(ring_values(coeffs, size, 1.0),
                          ring_values(coeffs, size))
    scalar = ring_values(coeffs[:, 0], size, radii[2])
    assert scalar.shape == (size,)
    assert np.max(np.abs(scalar - ref[2, :, 0])) <= 1e-13 * scale[2, 0]


def test_series_evaluators_do_not_use_polyval(monkeypatch):
    from geodisc import ball_geodesic, lift_from_disc, make_ball

    def refuse(*args, **kwargs):
        raise AssertionError("polyval called")

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", refuse)
    ball = make_ball([0, 0], 1.0)
    disc = ball_geodesic(ball, np.array([0.3, 0.1j]), np.array([1.0, 0.5]))
    tau = np.array([0.2 + 0.1j, -0.5])
    assert disc(tau).shape == (2, 2)
    assert disc.derivative(tau).shape == (2, 2)
    assert lift_from_disc(ball, disc)(tau).shape == (2, 2)
    g = CircleGrid(16)
    assert abs(cauchy_extend(analyze(3.0 * np.ones(16), g), 0.5) - 3.0) < 1e-13


# -- property tests -------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)
FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def grid_samples(draw, dtype):
    grid = CircleGrid(2 ** draw(st.integers(4, 8)))
    samples = draw(arrays(dtype, grid.size,
                          elements=FINITE if dtype is float else
                          st.complex_numbers(max_magnitude=1e3)))
    return grid, samples


@PROPERTY
@given(grid_samples(complex))
def test_synthesize_inverts_analyze(case):
    grid, x = case
    back = synthesize(analyze(x, grid))
    assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


@PROPERTY
@given(grid_samples(float))
def test_hilbert_conjugate_twice_is_reflection(case):
    # T(T u) = u(1) - u for real u without a Nyquist mode
    grid, x = case
    u = analyze(x, grid)
    u.coeffs[0] = 0.0                       # wavenumber -N/2
    u_vals = synthesize(u).real
    tt = synthesize(hilbert_conjugate(hilbert_conjugate(u)))
    scale = max(1.0, np.max(np.abs(u_vals)))
    assert np.max(np.abs(tt - (u_vals[0] - u_vals))) <= 1e-11 * scale


@pytest.mark.parametrize("shape", [(16, 2), (128, 3), (64, 2, 3)])
def test_analyze_columns_equal_per_column_calls(shape):
    # one FFT along axis 0 gives every column's series bit for bit
    rng = np.random.default_rng(len(shape) * shape[0])
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid = CircleGrid(shape[0])
    coeffs = analyze(samples, grid).coeffs
    assert coeffs.shape == shape
    columns = samples.reshape(shape[0], -1)
    for c in range(columns.shape[1]):
        assert np.array_equal(coeffs.reshape(shape[0], -1)[:, c],
                              analyze(columns[:, c], grid).coeffs)
    with pytest.raises(PreconditionError):
        analyze(samples[1:], grid)
