import ast
import copy
import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys
import threading

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
from geodisc import (NAMED_FUNCTIONS, consistency_check,
                     counterexample_harness, pi_set_sample, reconstruct,
                     tangent_line_disc, tangent_line_family, trace_locus)
from geodisc import (analyze, cauchy_extend, jacobian_certificate,
                     lift_from_disc, move_pole, projectivize, psi,
                     psi_inverse, boundary_conormality_residual,
                     solve_tangent_disc, unit_outward_conormal,
                     tangency_order_constant, tangency_residual,
                     disc_separation_integral)
from geodisc import (extend_along_disc, extension_report, morera_integrals,
                     push_domain_through_psi, restrict)
from geodisc import discs as discs_module
from geodisc.circle import power_series
from geodisc.domains import certify
from geodisc.cli import main as cli_main, parse_points
from geodisc.discs import (_CenterDirectionSystem, _OuterSystem,
                           _TwoPointSystem, _ball_disc, _ball_series,
                           _ball_two_point_data, _coordinate_tangents,
                           _damped_newton, _gamma, _min_norm_solve,
                           _parameter_tangent, _point_and_direction,
                           _solve_cd_raw, _state_layout)

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
    # the dense reference Jacobian of the spectral system against central
    # FD, and the normal equations' J^T F against central FD of |F|^2 / 2
    rng = np.random.default_rng(5)
    domain = make_perturbed_ball(0.05, "re_z1_sq")
    settings = SolverSettings(modes=8, grid=CircleGrid(32))
    z = np.array([0.1 + 0.05j, -0.2 + 0.1j])
    v = random_direction(rng, 2)
    system = _CenterDirectionSystem(domain, z, v, settings)
    disc = ball_geodesic(make_ball([0, 0], 0.9), z, v, settings)
    u = system.initial_state(disc.coeffs)
    u += 0.01 * rng.standard_normal(len(u))
    J, _ = _dense_reference_jacobian(system, u)
    JtF = system.jacobian(u).rhs(system.residual(u)[0])
    h = 1e-7
    cols = rng.choice(len(u), size=12, replace=False)
    for i in cols:
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        Fp, Fm = system.residual(up)[0], system.residual(um)[0]
        fd = (Fp - Fm) / (2 * h)
        assert np.max(np.abs(J[:, i] - fd)) < 1e-6
        fd_half_sq = (Fp @ Fp - Fm @ Fm) / (4 * h)
        assert abs(JtF[i] - fd_half_sq) < 1e-6


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
    """The Gauss-Newton Jacobian one column per entry of the state u (see
    :func:`_state_layout`), each unit field perturbation through the
    pointwise derivative and its own FFT: delta phi = e_c tau^k and
    i e_c tau^k for phi_c's shift-k re and im entries, k = 2..M, and
    v tau for r at the first shift-1 entry; delta g = cos k theta and
    -sin k theta for the g family's re and im entries; zero columns for
    the unused entries.  Then F_p, the columns of delta phi = dz and
    r tau dv for dz, dv = e_c, i e_c."""
    nn, n, P = system.nn, system.n, system.M + 1
    lin = system._linearization(u)
    grads = lin[1]
    tau = system.tau[:, None]
    k = np.arange(P)
    dphi = np.zeros((nn, n + 1, 2, P, n), dtype=complex)
    for c in range(n):
        dphi[:, c, 0, 2:, c] = tau ** k[2:]
        dphi[:, c, 1, 2:, c] = 1j * tau ** k[2:]
    dphi[:, 0, 0, 1] = tau * system.v                       # r
    Drho, Dw = _field_columns(lin, dphi.reshape(nn, len(u), n))

    theta = 2.0 * np.pi * np.arange(nn) / nn
    basis = np.stack([np.cos(np.outer(theta, k)),
                      -np.sin(np.outer(theta, k))], axis=1).reshape(nn, -1)
    Dw[:, :, -2 * P:] = (tau * grads)[:, :, None] * basis[:, None, :]
    gauge = np.zeros(len(u))
    gauge[-2 * P:] = basis[0]                               # g(1)
    E = np.concatenate([np.eye(n), 1j * np.eye(n)])
    dpar = np.concatenate([np.broadcast_to(E, (nn,) + E.shape),
                           u[1] * tau[:, :, None] * E], axis=1)
    Drho_p, Dw_p = _field_columns(lin, dpar)
    return (_spectral_rows(system, Drho, Dw, gauge),
            _spectral_rows(system, Drho_p, Dw_p, np.zeros(4 * n)))


def _unconverged_system(n, modes, grid):
    rng = np.random.default_rng(11)
    domain = make_perturbed_ball(0.05, "re_z1_sq", dimension=n)
    settings = SolverSettings(modes=modes, grid=CircleGrid(grid))
    z = random_interior(rng, n, radius=0.3)
    v = random_direction(rng, n)
    system = _CenterDirectionSystem(domain, z, v, settings)
    disc = ball_geodesic(make_ball(np.zeros(n), 0.9), z, v, settings)
    u = system.initial_state(disc.coeffs)
    u += 0.01 * rng.standard_normal(len(u))                 # not converged
    return system, u


def _relative_error(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _unknowns(system):
    """The entries of the state u that unknowns take: all but the unused
    columns of the normal equations."""
    size = 2 * (system.n + 1) * (system.M + 1)
    return np.setdiff1d(np.arange(size),
                        _state_layout(system.n, system.M)[2])


def _over_unknowns(system, normal, F):
    """(J^T J, J^T F, J^T F_p) of ``normal`` over the unknowns of the
    state u, the rows and columns that are not decoupled."""
    i = _unknowns(system)
    return normal.gram[np.ix_(i, i)], normal.rhs(F)[i], normal.rhs_p[i]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("modes,grid", [(8, 32), (32, 128), (64, 256)])
def test_jacobian_matches_dense_reference(n, modes, grid):
    # the normal equations built from the spectra, without J, against the
    # dense reference Jacobian whose every column has its own FFT
    system, u = _unconverged_system(n, modes, grid)
    F = system.residual(u)[0]
    ref, ref_p = _dense_reference_jacobian(system, u)
    assert ref.shape == (len(F), len(u))
    assert ref_p.shape == (len(F), 4 * n)
    unknowns = _unknowns(system)
    ref = ref[:, unknowns]
    gram, JtF, JtFp = _over_unknowns(system, system.jacobian(u), F)
    assert gram.shape == (len(unknowns), len(unknowns))
    assert _relative_error(gram, ref.T @ ref) < 1e-12
    assert _relative_error(JtF, ref.T @ F) < 1e-12
    assert JtFp.shape == (len(unknowns), 4 * n)
    assert _relative_error(JtFp, ref.T @ ref_p) < 1e-12


@pytest.mark.parametrize("lapack", [True, False])
@pytest.mark.parametrize("n", [2, 3])
def test_normal_equation_step_matches_the_dense_lu_step(n, lapack,
                                                        monkeypatch):
    # the step with its parameter tangent, against the shifted dense normal
    # equations J^T J + 1e-13 tr/size solved by LU; by Cholesky, and by LU
    # where no LAPACK Cholesky is at hand
    if not lapack:
        monkeypatch.setattr(discs_module, "_lapack_cholesky", lambda: None)
    system, u = _unconverged_system(n, 32, 128)
    F = system.residual(u)[0]
    J, Fp = _dense_reference_jacobian(system, u)
    unknowns = _unknowns(system)
    J = J[:, unknowns]
    JtJ = J.T @ J
    JtJ[np.diag_indices_from(JtJ)] += 1e-13 * np.trace(JtJ) / len(JtJ)
    dense = np.linalg.solve(JtJ, -J.T @ np.column_stack([F, Fp]))
    normal = system.jacobian(u)
    step = _CenterDirectionSystem._ls_step(
        normal.gram, np.column_stack([normal.rhs(F), normal.rhs_p]))
    assert _relative_error(step[unknowns], dense) < 1e-10
    # the unused entries of the state stay zero
    assert not np.any(np.delete(step, unknowns, axis=0))


def test_normal_equations_survive_interleaved_shapes():
    # the builder's buffers are reused per shape: calls at other shapes,
    # and other states at the same shape, leave each first call's numbers
    # as they were when that call is repeated
    cases = [(2, 32, 128), (2, 64, 256), (3, 32, 128)]
    systems = {case: _unconverged_system(*case) for case in cases}
    first = {}
    for _ in range(2):
        for case in cases + cases[::-1]:
            system, u = systems[case]
            for state in (u, u + 1e-3):
                normal = system.jacobian(state)
                key = (case, state is u)
                if key not in first:
                    first[key] = normal.gram.copy(), normal.rhs_p.copy()
                gram, rhs_p = first[key]
                assert np.array_equal(normal.gram, gram)
                assert np.array_equal(normal.rhs_p, rhs_p)


def test_normal_equations_reuse_one_workspace_per_thread():
    # the Gram matrix is a view that the next call of the same shape
    # overwrites; threads building the same shape at once each get buffers
    # of their own, so none sees another's numbers
    system, u = _unconverged_system(2, 32, 128)
    gram = system.jacobian(u).gram
    assert np.shares_memory(gram, system.jacobian(u + 1e-3).gram)
    states = [u + 1e-3 * i for i in range(4)]         # more threads than cores
    expected = [system.jacobian(state).gram.copy() for state in states]
    mismatches, grams = [], []

    def build(i):
        for _ in range(15):
            normal = system.jacobian(states[i])
            mismatches.append(not np.array_equal(normal.gram, expected[i]))
        grams.append(normal.gram)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(i,))
                   for i in range(len(states))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(mismatches) == 15 * len(states) and not any(mismatches)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(grams)
                   for b in grams[i + 1:] + [gram])


def _run_python(script):
    """Run ``script`` in a fresh interpreter on this checkout's package,
    BLAS on one thread, and return its standard output."""
    src = pathlib.Path(discs_module.__file__).parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout


def test_cold_solve_after_a_warm_up_faults_in_almost_no_pages():
    # one cold M = 64 solve used to fault in about 3,700 fresh pages for
    # the normal equations' temporaries; with the buffers reused, a solve
    # after two warm-up solves of the same shape faults in almost none
    pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("minor fault counts are read on Linux")
    faults = int(_run_python("""
import resource
import numpy as np
from geodisc import (CircleGrid, SolverSettings, make_perturbed_ball,
                     solve_from_center_direction)
domain = make_perturbed_ball(0.05)
settings = SolverSettings(modes=64, grid=CircleGrid(256))
for z in ([0.2, 0.1j], [-0.1j, 0.25]):
    solve_from_center_direction(domain, np.array(z), np.array([1.0, 0.0]),
                                settings)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
solve_from_center_direction(domain, np.array([0.3, 0.0]),
                            np.array([0.0, 1.0]), settings)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""))
    assert faults < 300


def test_solve_and_consistency_check_do_not_import_numpy_ma():
    # np.setdiff1d and np.unique import numpy.ma on first use, about 9 ms
    out = _run_python("""
import sys
import numpy as np
from geodisc import (CircleGrid, NAMED_FUNCTIONS, SolverSettings,
                     consistency_check, make_ball, make_perturbed_ball,
                     solve_from_center_direction)
settings = SolverSettings(modes=32, grid=CircleGrid(128))
solve_from_center_direction(make_perturbed_ball(0.05), np.array([0.2, 0.1j]),
                            np.array([1.0, 0.0]), settings)
consistency_check(NAMED_FUNCTIONS["holo_mix"], make_ball([0, 0], 1.0),
                  make_ball([0, 0], 0.5), np.array([0.62 + 0.1j, 0.21 - 0.05j]),
                  disc_count=4, settings=settings)
print("numpy.ma" in sys.modules)
""")
    assert out.split() == ["False"]


def test_cholesky_solve_leaves_an_indefinite_matrix_as_it_was():
    # the step then falls back to LU on the same matrix
    if discs_module._lapack_cholesky() is None:
        pytest.skip("numpy bundles no LAPACK with dpotrf")
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 6))
    A = X + X.T - 4.0 * np.eye(6)
    B = rng.standard_normal((6, 2))
    kept = A.copy()
    assert discs_module._cholesky_solve(A, B) is None
    assert np.array_equal(A, kept)
    step = _CenterDirectionSystem._ls_step(A, B)
    kept.flat[::7] += 1e-13 * np.trace(kept) / 6
    assert np.allclose(step, -np.linalg.solve(kept, B), rtol=1e-12, atol=0)
    P = X @ X.T + np.eye(6)
    assert np.allclose(discs_module._cholesky_solve(P.copy(), B),
                       np.linalg.solve(P, B), rtol=1e-12, atol=0)


@pytest.mark.parametrize("modes,grid,radius", [(32, 128, 0.25),
                                               (64, 256, 0.5)])
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(raw=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       scale=st.floats(0.0, 1.0))
def test_gauss_newton_matches_the_ball_oracle(modes, grid, radius, raw,
                                              scale):
    # the unit ball as an ellipsoid is a general domain to the solver: a
    # cold solve lands on the closed-form geodesic
    raw = np.array(raw)
    z, v = raw[0:4:2] + 1j * raw[1:4:2], raw[4::2] + 1j * raw[5::2]
    assume(np.linalg.norm(z) > 1e-6 and np.linalg.norm(v) > 1e-6)
    z = scale * radius * z / np.linalg.norm(z)
    domain = make_ellipsoid([1.0, 1.0])
    settings = SolverSettings(modes=modes, grid=CircleGrid(grid))
    exact = ball_geodesic(BALL, z, v, settings).coeffs
    cold = _solve_cd_raw(domain, z, v, settings)
    assert np.max(np.abs(cold.coeffs - exact)) < 1e-10


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
    system = _CenterDirectionSystem(BALL, z, v, SETTINGS)
    u, diag = system.gauss_newton(system.initial_state(bad),
                                  SETTINGS.newton_tol, SETTINGS.max_iters)
    solved = AnalyticDisc(system.disc_coeffs(u), SETTINGS.grid, BALL)
    assert diag["attachment"] < 1e-10
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
    builds, the Gauss-Newton Jacobians it assembles, in all and by M, the
    outcome of each Gauss-Newton call on ``target`` by the M of its system
    and the Gauss-Newton calls on any other domain that is not a blend."""

    def __init__(self, monkeypatch, target):
        self.blends = 0
        self.jacobians = 0
        self.jacobians_at = {}              # M -> Jacobians at that M
        self.target_calls = {}              # M -> True for a converged call
        self.other_calls = 0
        blend = discs_module._blend
        jacobian = _CenterDirectionSystem.jacobian
        gauss_newton = _CenterDirectionSystem.gauss_newton

        def counting_blend(*args):
            self.blends += 1
            return blend(*args)

        def counting_jacobian(system, u, fields=None):
            self.jacobians += 1
            self.jacobians_at[system.M] = self.jacobians_at.get(system.M, 0) + 1
            return jacobian(system, u, fields)

        def logging_gauss_newton(system, *args, **kwargs):
            if system.domain is not target:
                self.other_calls += system.domain.kind != "blend"
                return gauss_newton(system, *args, **kwargs)
            calls = self.target_calls.setdefault(system.M, [])
            try:
                out = gauss_newton(system, *args, **kwargs)
            except SolverDivergence:
                calls.append(False)
                raise
            calls.append(True)
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
        before, fine = log.jacobians, log.jacobians_at.get(64, 0)
        disc = _solve_cd_raw(domain, z, v, SETTINGS)
        assert disc.attachment_residual <= SETTINGS.newton_tol
        # the half-resolution Jacobians count toward the budget, and the
        # solve ends with at least one step at the M asked for
        assert log.jacobians - before <= 8
        assert log.jacobians_at[64] - fine >= 1
    # each solve tries the domain once at M/2 and once at M
    assert log.blends == 0
    assert log.target_calls == {32: [True] * 3, 64: [True] * 3}
    # the inscribed ball's state is closed form: no Gauss-Newton runs on it
    assert log.other_calls == 0


@pytest.mark.parametrize("center,radius", [([0, 0], 1.0),
                                           ([0.1, -0.2j], 0.8)])
def test_cold_ball_solve_inside_the_resolvable_radius_builds_no_jacobian(
        monkeypatch, center, radius):
    # with |mu|^M below newton_tol the closed-form coefficients and g are
    # the solved state, and the solve returns them as they are
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
    # an attached closed form runs no Gauss-Newton at all
    assert log.target_calls == {}


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
    # the half-resolution level solves the first blend, not the domain
    assert log.target_calls == {32: [True]}


def test_continuation_subdivides_when_newton_fails(monkeypatch):
    # three iterations do not reach the ellipsoid from the inscribed ball
    # in one step, so the homotopy is halved until they do
    domain = make_ellipsoid([1.3, 0.9])
    settings = SolverSettings(modes=32, grid=CircleGrid(128), max_iters=3)
    log = _ContinuationLog(monkeypatch, domain)
    disc = _solve_cd_raw(domain, np.array([0.2 + 0.1j, 0.1j]),
                         np.array([1.0, 0.5j]), settings)
    # nor do they at half resolution, where the first attempt starts
    assert log.target_calls[16] == [False]
    calls = log.target_calls[32]
    assert calls[0] is False and calls[-1] is True
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


@pytest.mark.parametrize("modes,grid,radius", [(32, 128, 0.5),
                                               (64, 256, 0.7)])
def test_failed_blends_report_the_domain_divergence(monkeypatch, modes, grid,
                                                    radius):
    # the domain stagnates above newton_tol from the closed-form start and
    # its first blend below it, at the resolution floor: the error raised
    # is the domain's own, with the blend's as its cause
    domain = make_perturbed_ball(0.05)
    settings = SolverSettings(modes=modes, grid=CircleGrid(grid))
    log = _ContinuationLog(monkeypatch, domain)
    with pytest.raises(SolverDivergence) as info:
        _solve_cd_raw(domain, np.array([radius, 0j]), np.array([1.0, 0j]),
                      settings)
    # the half-resolution level diverges too, and the full-resolution
    # domain starts from the closed form as it would without it
    assert log.target_calls == {modes // 2: [False], modes: [False]}
    assert log.blends == 1
    assert info.value.stagnated
    assert info.value.last_residual > settings.newton_tol
    cause = info.value.__cause__
    assert isinstance(cause, SolverDivergence) and cause.stagnated
    assert cause.last_residual <= settings.newton_tol


def test_initial_state_pads_and_truncates_gamma():
    # gamma = (gamma_0, gamma_c1, gamma_s1, ...) of any degree reads as g
    # of degree M, zero-padded or truncated like the coefficients
    system = _CenterDirectionSystem(BALL, np.array([0.1, 0.2j]),
                                    np.array([1.0, 0j]), SMALL)
    M = SMALL.modes
    coeffs = np.zeros((2, 2), dtype=complex)
    gamma = np.arange(1.0, 2.0 + 4 * M)               # degree 2M
    short = system.initial_state(coeffs, gamma[:17])  # degree 8
    assert np.array_equal(_gamma(short[-2 * (M + 1):]),
                          np.concatenate([gamma[:17], np.zeros(2 * M - 16)]))
    long = system.initial_state(coeffs, gamma)
    assert np.array_equal(_gamma(long[-2 * (M + 1):]), gamma[:1 + 2 * M])


def test_initial_state_keeps_the_disc_scale_when_the_direction_turns():
    # a warm start from the disc of a direction turned by 0.4 keeps its
    # scale r = |a_1|, which the projection Re<a_1, v> would shrink by
    # cos 0.4; on a cold start a_1 is parallel to v, and the two agree
    z, v = np.array([0.1, 0.2j]), np.array([0.6, 0.8j])
    a1 = ball_geodesic(BALL, z, v, SMALL).coeffs[1]
    normal = np.array([0.8, -0.6j])               # <v, normal> = 0
    turned = _CenterDirectionSystem(
        BALL, z, np.cos(0.4) * v + np.sin(0.4) * normal, SMALL)
    warm = turned.initial_state(np.array([z, a1]))
    assert warm[1] == np.linalg.norm(a1)
    assert np.linalg.norm(turned.disc_coeffs(warm)[1]) \
        == pytest.approx(np.linalg.norm(a1), rel=1e-15)
    projection = float(np.real(np.vdot(turned.v, a1)))
    assert projection == pytest.approx(np.cos(0.4) * warm[1], rel=1e-12)
    cold = _CenterDirectionSystem(BALL, z, v, SMALL).initial_state(
        np.array([z, a1]))
    assert abs(cold[1] - float(np.real(np.vdot(v, a1)))) \
        <= np.spacing(cold[1])


def _inscribed_start(domain, z, v, settings):
    """The single-level cold start of _solve_cd_raw: the closed-form
    state at M of the inscribed ball that contains z."""
    r_ins = discs_module._inscribed_ball_radius(domain)
    ball0 = make_ball(domain.center, max(
        r_ins, 1.05 * float(np.linalg.norm(z - domain.center)) + 0.05 * r_ins))
    return ball_geodesic(ball0, z, v, settings)


def _direction(kind, e):
    transverse = np.array([-np.conj(e[1]), np.conj(e[0])])
    return {"radial": e, "transverse": transverse,
            "oblique": (e + transverse) / np.sqrt(2.0)}[kind]


@pytest.mark.parametrize("modes,grid,radius", [
    (32, 128, 0.12), (32, 128, 0.24), (64, 256, 0.12), (64, 256, 0.24),
    (64, 256, 0.36), (64, 256, 0.48)])
@pytest.mark.parametrize("kind", ["radial", "transverse", "oblique"])
def test_two_level_solve_agrees_with_one_level(modes, grid, radius, kind):
    # the disc started at M/2 is the disc Gauss-Newton reaches at M from
    # the inscribed ball's closed form
    domain = make_perturbed_ball(0.05)
    settings = SolverSettings(modes=modes, grid=CircleGrid(grid))
    e = random_direction(np.random.default_rng([modes, int(100 * radius)]), 2)
    z, v = radius * e, _direction(kind, e)
    system = _CenterDirectionSystem(domain, z, v, settings)
    init = _inscribed_start(domain, z, v, settings)
    u, _ = system.gauss_newton(system.initial_state(init.coeffs, init.solver_g),
                               settings.newton_tol, settings.max_iters)
    disc = _solve_cd_raw(domain, z, v, settings)
    assert np.max(np.abs(disc.coeffs - system.disc_coeffs(u))) <= 1e-10
    assert disc.attachment_residual <= settings.newton_tol


def test_cold_solve_steps_at_full_resolution_after_a_converged_coarse_level(
        monkeypatch):
    # at this point the half-resolution level lands below newton_tol, and
    # so does its zero-padded state at M = 64; accepted as it stands, the
    # disc's lift misses conormality 1e-10, and one step at M = 64 meets it
    domain = make_perturbed_ball(0.05)
    z = np.array([-0.09311623509318766 - 0.025503897698852338j,
                  0.21936437829586944 - 0.40577896055177404j])
    v = np.array([-0.4688515842600667 - 0.6471046288662244j,
                  0.18942500562993964 - 0.5705716067934231j])
    v = v / np.linalg.norm(v)
    starts = {}                         # M -> (system, start) of its call
    gauss_newton = _CenterDirectionSystem.gauss_newton

    def recording(system, u0, *args):
        starts.setdefault(system.M, (system, u0))
        return gauss_newton(system, u0, *args)

    monkeypatch.setattr(_CenterDirectionSystem, "gauss_newton", recording)
    log = _ContinuationLog(monkeypatch, domain)
    disc, lift = solve_from_center_direction(domain, z, v, SETTINGS)
    system, padded = starts[64]
    _, (diag, _) = system.residual(padded)
    assert max(diag["attachment"], diag["neg_modes"],
               diag["gauge"]) <= SETTINGS.newton_tol
    assert log.target_calls == {32: [True], 64: [True]}
    assert log.jacobians_at[64] >= 1
    assert disc.attachment_residual <= SETTINGS.newton_tol
    assert boundary_conormality_residual(domain, disc, lift) <= 1e-10


def test_coarse_divergence_leaves_the_error_as_it_was(monkeypatch):
    # the half-resolution level diverges here; the solve then raises what
    # the single-level solve from the closed form at M raises
    domain = make_perturbed_ball(0.05)
    settings = SolverSettings(modes=32, grid=CircleGrid(128))
    z, v = np.array([0.5, 0j]), np.array([1.0, 0j])

    def failure():
        with pytest.raises(SolverDivergence) as info:
            _solve_cd_raw(domain, z, v, settings)
        return info.value

    log = _ContinuationLog(monkeypatch, domain)
    two_level = failure()
    assert log.target_calls[16] == [False]
    monkeypatch.setattr(discs_module, "_half_resolution",
                        lambda settings, tol: None)
    one_level = failure()
    for exc in (two_level, one_level):
        assert isinstance(exc.__cause__, SolverDivergence)
    assert str(two_level) == str(one_level)
    assert str(two_level.__cause__) == str(one_level.__cause__)
    assert two_level.last_residual == one_level.last_residual
    assert two_level.stagnated == one_level.stagnated


@pytest.mark.parametrize("modes,grid", [(32, 128), (64, 256)])
def test_ball_geodesic_carries_its_solved_state(modes, grid):
    # the closed-form g = |1 - mu tau|^2 / |1 - mu|^2 is the factor
    # Gauss-Newton reaches from the same disc started at g = 1, and the
    # parameter tangent linearized at the closed-form state is the
    # derivative of the closed form itself
    settings = SolverSettings(modes=modes, grid=CircleGrid(grid))
    ball = make_ball([0.1, -0.2j], 0.8)
    z, v = np.array([0.25 + 0.1j, -0.1 - 0.15j]), np.array([0.6, 0.8j])
    disc = ball_geodesic(ball, z, v, settings)
    system = _CenterDirectionSystem(ball, z, v / np.linalg.norm(v), settings)
    u, _ = system.gauss_newton(system.initial_state(disc.coeffs),
                               settings.newton_tol, settings.max_iters)
    solved_g = _gamma(u[-2 * (modes + 1):])
    assert solved_g.shape == disc.solver_g.shape == (1 + 2 * modes,)
    assert np.max(np.abs(solved_g - disc.solver_g)) < 1e-10

    # dphi(s)/dp along (Re z, Im z, Re v, Im v) against central differences
    # of ball_geodesic, which takes v to v/|v|: along the direction they
    # agree on the tangents (I - w w^T)/|v| of the sphere, w = (Re v, Im
    # v)/|v|, which is all that moves a unit direction
    w = np.concatenate([v.real, v.imag]) / np.linalg.norm(v)
    sphere = (np.eye(4) - np.outer(w, w)) / np.linalg.norm(v)
    dcoeffs, _ = _parameter_tangent(ball, disc, settings)
    E, h = _coordinate_tangents(2), 1e-6
    for s in (0.3 + 0.2j, -0.5j, 0.7, 0.95 * np.exp(2.0j)):
        def central(dz, dv):
            plus, minus = (ball_geodesic(ball, z + t * dz, v + t * dv,
                                         settings).coeffs for t in (h, -h))
            return (power_series(plus, s) - power_series(minus, s)) / (2 * h)

        fd = np.array([central(e, 0) for e in E] + [central(0, e) for e in E])
        solved = power_series(dcoeffs.transpose(1, 0, 2), s)
        assert fd.shape == solved.shape == (8, 2)
        fd[4:], solved[4:] = sphere @ fd[4:], sphere @ solved[4:]
        assert np.max(np.abs(solved - fd)) < 1e-8 * max(1.0, np.max(np.abs(fd)))


def _count_ball_geodesics(monkeypatch):
    calls = []
    geodesic = discs_module.ball_geodesic

    def counting(*args, **kwargs):
        calls.append(args)
        return geodesic(*args, **kwargs)

    monkeypatch.setattr(discs_module, "ball_geodesic", counting)
    return calls


def test_ball_two_point_solve_builds_one_disc(monkeypatch):
    # on a ball the two-point data are closed-form: the solve runs no
    # Newton iteration and builds one disc, ball_geodesic's at them bit
    # for bit, which passes through w
    z, w = np.array([0.2 + 0.1j, -0.1j]), np.array([-0.1, 0.25 + 0.2j])
    newton = []
    monkeypatch.setattr(discs_module, "_damped_newton",
                        lambda *args: newton.append(args))
    geodesics = _count_ball_geodesics(monkeypatch)
    disc, xi = solve_two_point(BALL, z, w, SETTINGS)
    monkeypatch.undo()
    assert len(geodesics) == 1 and newton == []
    v, exact_xi = _ball_two_point_data(BALL, z, w)
    assert xi == exact_xi
    exact = ball_geodesic(BALL, z, v, SETTINGS)
    assert np.array_equal(disc.coeffs, exact.coeffs)
    assert np.array_equal(disc.solver_g, exact.solver_g)
    assert disc.attachment_residual == exact.attachment_residual
    assert np.max(np.abs(disc(np.array([xi + 0j]))[0] - w)) <= 1e-12


def test_the_joint_two_point_solve_meets_the_ball_closed_form():
    # the outer system's Newton iteration over (v, xi) and the disc's
    # Gauss-Newton state, run on a ball, which solve_two_point no longer
    # does, lands on the closed form
    z, w = np.array([0.2 + 0.1j, -0.1j]), np.array([-0.1, 0.25 + 0.2j])
    system = _TwoPointSystem(BALL, z, w, SETTINGS)
    v0, xi0 = _ball_two_point_data(make_ball([0, 0], 0.9), z, w)
    x, R, disc = system.newton(np.concatenate([v0.real, v0.imag, [xi0]]),
                               1e-9, 30, None)
    assert np.max(np.abs(R)) <= 1e-9
    assert disc.tangent is not None          # a joint step was taken
    v, xi = _ball_two_point_data(BALL, z, w)
    assert abs(x[-1] - xi) < 1e-10
    exact = ball_geodesic(BALL, z, v, SETTINGS)
    assert np.max(np.abs(disc.coeffs - exact.coeffs)) < 1e-10


def _nan_in(x, k=0, value=np.nan):
    x = np.array(x, dtype=complex)
    x[k] = value
    return x


_Z, _V = np.array([0.2 + 0.1j, -0.1j]), np.array([1.0, 0.5j])
_INNER, _Z_O = make_ball([0.0, 0.0], 0.5), np.array([0.7, 0.0])
_LOCUS_CLI = ["tangency", "trace", "--domain1", "ball", "--domain2",
              "ball:0.5", "--z-o", "0.7,0"]
_PSI_INVERSE_CLI = ["riemann", "psi", "--domain", "ball", "--z", "0,0",
                    "--v", "0.3,0", "--inverse"]
_VERIFY_CLI = ["extension", "verify", "--domain1", "ball", "--domain2",
               "ball:0.5", "--function", "holo_mix"]
_SOLVE_CLI = ["disc", "solve", "--domain", "ball"]
_HOLO = NAMED_FUNCTIONS["holo_mix"]
_LONG = np.array([0.3, 0.0, 0.0])             # a point of C^3, not of C^2
_HUGE = np.array([1e300, 0.0])                # finite, but rho overflows


def _ball_lift():
    return lift_from_disc(BALL, ball_geodesic(BALL, _Z, _V, SMALL))


def _nan_function(z):
    """Boundary data that are NaN everywhere."""
    return np.full(len(z), np.nan)


def _detached():
    """A disc of the ball of radius 0.8, held against the unit ball: its
    boundary residual there is 0.36."""
    disc = ball_geodesic(make_ball([0, 0], 0.8), _Z, _V, SMALL)
    return dataclasses.replace(disc, domain=BALL)


def _zbar1_trace():
    """The trace of conj(z_1), which does not extend holomorphically, on
    a ball geodesic."""
    return restrict(NAMED_FUNCTIONS["zbar1"], ball_geodesic(BALL, _Z, _V,
                                                            SMALL))


def _residual_from(sigma_w):
    """tangency_residual at the point tau = 0.5 of a ball geodesic
    through _Z_O, its parameter search started at ``sigma_w``."""
    disc = ball_geodesic(BALL, _Z_O, _V, SMALL)
    return tangency_residual(_INNER, _Z_O, disc(np.array([0.5]))[0], disc,
                             sigma_w=sigma_w)


def _matching(pattern, call):
    """``call``, whose PreconditionError must match ``pattern``."""
    def checked():
        with pytest.raises(PreconditionError, match=pattern) as info:
            call()
        raise info.value
    return checked


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call,cli", [
    pytest.param(lambda: solve_from_center_direction(BALL, _nan_in(_Z), _V,
                                                     SMALL), None, id="nan-z"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, _nan_in(_Z, 1, np.inf), _V, SMALL), None, id="inf-z"),
    pytest.param(lambda: solve_from_center_direction(BALL, _Z, _nan_in(_V),
                                                     SMALL), None, id="nan-v"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, _Z, _nan_in(_V, 1, -np.inf), SMALL), None, id="inf-v"),
    pytest.param(lambda: solve_from_center_direction(
        make_perturbed_ball(0.05), _nan_in(_Z, 1), _V, SMALL), None,
        id="nan-z-perturbed"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, np.append(_Z, 0.0), _V, SMALL), None, id="long-z"),
    pytest.param(lambda: solve_from_center_direction(BALL, _Z, _V[:1],
                                                     SMALL), None, id="short-v"),
    pytest.param(lambda: solve_from_center_direction(BALL, _Z[None, :], _V,
                                                     SMALL), None, id="matrix-z"),
    pytest.param(lambda: ball_geodesic(BALL, _nan_in(_Z), _V, SMALL), None,
                 id="ball-geodesic-nan-z"),
    pytest.param(lambda: ball_geodesic(BALL, _Z, np.append(_V, 1.0), SMALL),
                 None, id="ball-geodesic-long-v"),
    pytest.param(lambda: solve_two_point(BALL, _Z, _nan_in(0.3 * _V), SMALL),
                 None, id="two-point-nan-w"),
    pytest.param(lambda: make_ball([0.0, 0.0], np.nan), None, id="nan-radius"),
    pytest.param(lambda: make_ball([0.0, 0.0], np.inf), None, id="inf-radius"),
    pytest.param(lambda: make_ball([np.nan, 0.0], 1.0), None, id="nan-center"),
    pytest.param(lambda: SolverSettings(modes=0), None, id="zero-modes"),
    pytest.param(lambda: SolverSettings(modes=-1), None, id="negative-modes"),
    pytest.param(lambda: counterexample_harness(0, 64),
                 ["repro", "counterexample", "--discs", "0", "--grid", "64"],
                 id="harness-zero-discs"),
    pytest.param(lambda: trace_locus(BALL, _INNER, _Z_O, 0, SMALL),
                 _LOCUS_CLI + ["--steps", "0"], id="locus-zero-steps"),
    pytest.param(lambda: trace_locus(BALL, _INNER, _Z_O, -1, SMALL),
                 _LOCUS_CLI + ["--steps", "-1"], id="locus-negative-steps"),
    pytest.param(lambda: trace_locus(BALL, _INNER, np.array([0.3, 0.0]), 12,
                                     SMALL),
                 _LOCUS_CLI[:-1] + ["0.3,0"], id="locus-base-inside-inner"),
    pytest.param(lambda: trace_locus(BALL, _INNER, np.array([1.2, 0.0]), 12,
                                     SMALL),
                 _LOCUS_CLI[:-1] + ["1.2,0"], id="locus-base-outside-outer"),
    pytest.param(lambda: SolverSettings(newton_tol=np.inf),
                 _PSI_INVERSE_CLI + ["--tol", "inf"], id="inf-newton-tol"),
    pytest.param(lambda: SolverSettings(newton_tol=np.nan),
                 _PSI_INVERSE_CLI + ["--tol", "nan"], id="nan-newton-tol"),
    pytest.param(lambda: SolverSettings(max_iters=0), None,
                 id="zero-max-iters"),
    pytest.param(lambda: SolverSettings(max_iters=np.nan), None,
                 id="nan-max-iters"),
    pytest.param(lambda: SolverSettings(continuation_steps=np.nan), None,
                 id="nan-continuation-steps"),
    pytest.param(lambda: SolverSettings(continuation_steps=1.5), None,
                 id="fractional-continuation-steps"),
    pytest.param(lambda: SolverSettings(modes=np.nan), None, id="nan-modes"),
    pytest.param(lambda: trace_locus(BALL, _INNER, _Z_O, np.nan, SMALL), None,
                 id="locus-nan-steps"),
    pytest.param(lambda: consistency_check(_HOLO, BALL, _INNER, _Z_O, np.nan,
                                           SMALL), None, id="verify-nan-discs"),
    pytest.param(lambda: reconstruct(_HOLO, BALL, _INNER, _Z_O[None, :],
                                     np.nan, SMALL), None,
                 id="reconstruct-nan-discs"),
    pytest.param(lambda: counterexample_harness(np.nan, 64), None,
                 id="harness-nan-discs"),
    pytest.param(lambda: pi_set_sample(BALL, _INNER, np.array([0.5, 0.0]),
                                       np.nan, SMALL), None,
                 id="pi-nan-count"),
    pytest.param(lambda: extremality_probe(
        BALL, ball_geodesic(BALL, _Z, _V, SMALL), np.nan), None,
        id="probe-nan-trials"),
    pytest.param(lambda: solve_two_point(BALL, _Z, _LONG, SMALL),
                 _SOLVE_CLI + ["--z", "0.2,0", "--w", "0.3,0,0"],
                 id="two-point-long-w"),
    pytest.param(lambda: psi(BALL, _Z, _LONG, SMALL),
                 ["riemann", "psi", "--domain", "ball", "--z", "0.2,0", "--w",
                  "0.3,0,0"], id="psi-long-w"),
    pytest.param(lambda: kobayashi_distance(BALL, _LONG, _Z, SMALL),
                 ["geodesic", "distance", "--domain", "ball", "--z", "0.2,0",
                  "--w", "0.3,0,0"], id="distance-long-w"),
    pytest.param(lambda: trace_locus(BALL, _INNER, np.append(_Z_O, 0.0), 12,
                                     SMALL), None, id="locus-long-base"),
    pytest.param(lambda: solve_tangent_disc(BALL, _INNER, _Z_O,
                                            np.array([0.5, 0.0, 0.0]), SMALL),
                 None, id="tangent-disc-long-seed"),
    pytest.param(lambda: pi_set_sample(BALL, _INNER,
                                       np.array([0.5, 0.0, 0.0]), 4, SMALL),
                 None, id="pi-long-base"),
    pytest.param(lambda: consistency_check(_HOLO, BALL, _INNER,
                                           np.append(_Z_O, 0.0), 4, SMALL),
                 None, id="verify-long-z"),
    pytest.param(lambda: reconstruct(_HOLO, BALL, _INNER,
                                     np.append(_Z_O, 0.0)[None, :], 4, SMALL),
                 None, id="reconstruct-long-points"),
    pytest.param(lambda: move_pole(_ball_lift(), np.nan), None,
                 id="move-pole-nan"),
    pytest.param(lambda: projectivize(_ball_lift(), np.nan), None,
                 id="projectivize-nan"),
    pytest.param(lambda: unit_outward_conormal(BALL, [np.nan, 0.0]), None,
                 id="conormal-nan"),
    pytest.param(lambda: unit_outward_conormal(BALL, [1.0, 0.0, 0.0]), None,
                 id="conormal-long-point"),
    pytest.param(lambda: jacobian_certificate(BALL, [np.nan, 0.0]), None,
                 id="jacobian-certificate-nan"),
    pytest.param(lambda: poincare_distance(2.0, 0.0), None,
                 id="poincare-outside-disc"),
    pytest.param(lambda: cauchy_extend(analyze(np.ones(16)), np.nan), None,
                 id="cauchy-extend-nan"),
    pytest.param(lambda: MoebiusMap(a=np.nan), None, id="moebius-nan"),
    pytest.param(lambda: CircleGrid(np.nan), None, id="grid-nan"),
    pytest.param(lambda: CircleGrid(100.0), None, id="grid-float-100"),
    pytest.param(lambda: CircleGrid(64.0), None, id="grid-float-64"),
    pytest.param(lambda: counterexample_harness(4, np.nan), None,
                 id="harness-nan-grid"),
    pytest.param(lambda: tangent_line_family(0.5, np.nan, CircleGrid(64)),
                 None, id="tangent-line-family-nan-count"),
    pytest.param(lambda: tangent_line_family(0.5, 2.5, CircleGrid(64)),
                 None, id="tangent-line-family-fractional-count"),
    pytest.param(lambda: boundary_hausdorff(_detached(), _detached(),
                                            newton_iters=np.nan),
                 None, id="hausdorff-nan-iters"),
    pytest.param(lambda: boundary_hausdorff(_detached(), _detached(),
                                            newton_iters=-1),
                 None, id="hausdorff-negative-iters"),
    pytest.param(lambda: lift_from_disc(BALL, _detached(), attach_tol=np.nan,
                                        stationarity_tol=np.nan),
                 None, id="lift-nan-tolerances"),
    pytest.param(lambda: lift_from_disc(BALL, ball_geodesic(BALL, _Z, _V,
                                                            SMALL),
                                        stationarity_tol=np.nan),
                 None, id="lift-nan-stationarity-tol"),
    pytest.param(lambda: restrict(_HOLO, _detached(), attach_tol=np.nan),
                 None, id="restrict-nan-attach-tol"),
    pytest.param(lambda: morera_integrals(_HOLO, _detached(),
                                          attach_tol=np.nan),
                 None, id="morera-nan-attach-tol"),
    pytest.param(lambda: tangency_order_constant(
        _INNER, ball_geodesic(BALL, _Z, _V, SMALL), radial=0),
        None, id="order-constant-zero-radial"),
    pytest.param(lambda: tangency_order_constant(
        _INNER, ball_geodesic(BALL, _Z, _V, SMALL), angular=0),
        None, id="order-constant-zero-angular"),
    pytest.param(lambda: tangency_order_constant(
        _INNER, ball_geodesic(BALL, _Z, _V, SMALL), zoom_rounds=np.nan),
        None, id="order-constant-nan-zoom-rounds"),
    pytest.param(lambda: tangency_residual(
        _INNER, _Z_O, [np.nan, 0.0], ball_geodesic(BALL, _Z_O, _V, SMALL)),
        None, id="tangency-residual-nan-candidate"),
    pytest.param(lambda: disc_separation_integral(_ball_lift(), _ball_lift(),
                                                  0),
                 None, id="separation-zero-nodes"),
    pytest.param(lambda: extend_along_disc(_zbar1_trace(), 0.3,
                                           threshold=np.nan),
                 None, id="extend-nan-threshold"),
    pytest.param(lambda: extension_report(_HOLO, ball_geodesic(BALL, _Z, _V,
                                                               SMALL),
                                          threshold=np.nan),
                 None, id="extension-report-nan-threshold"),
    pytest.param(lambda: consistency_check(_HOLO, BALL, _INNER, _Z_O, 4,
                                           SMALL, threshold=np.nan),
                 None, id="verify-nan-threshold"),
    pytest.param(lambda: push_domain_through_psi(BALL, _INNER, _Z_O,
                                                 fd_step=np.nan),
                 None, id="push-nan-fd-step"),
    pytest.param(lambda: push_domain_through_psi(BALL, _INNER, _Z_O,
                                                 fd_step=-1e-5),
                 None, id="push-negative-fd-step"),
    pytest.param(lambda: push_domain_through_psi(BALL, _INNER,
                                                 _nan_in(_Z_O)),
                 None, id="push-nan-base"),
    pytest.param(lambda: push_domain_through_psi(BALL, _INNER,
                                                 np.array([1.2, 0.0])),
                 None, id="push-exterior-base"),
    pytest.param(lambda: restrict(_nan_function, ball_geodesic(BALL, _Z, _V,
                                                               SMALL)),
                 None, id="restrict-nan-f"),
    pytest.param(lambda: morera_integrals(_nan_function,
                                          ball_geodesic(BALL, _Z, _V, SMALL)),
                 None, id="morera-nan-f"),
    pytest.param(lambda: morera_integrals(
        _HOLO, ball_geodesic(BALL, _Z, _V, SMALL),
        attach_tol=np.array([1e-9, 1e-9])), None, id="morera-array-attach-tol"),
    pytest.param(lambda: morera_integrals(
        _HOLO, ball_geodesic(BALL, _Z, _V, SMALL), attach_tol=[1e-9]),
        None, id="morera-list-attach-tol"),
    pytest.param(lambda: restrict(_HOLO, ball_geodesic(BALL, _Z, _V, SMALL),
                                  attach_tol="1e-9"),
                 None, id="restrict-string-attach-tol"),
    pytest.param(lambda: lift_from_disc(BALL, ball_geodesic(BALL, _Z, _V,
                                                            SMALL),
                                        attach_tol=None),
                 None, id="lift-none-attach-tol"),
    pytest.param(lambda: make_ellipsoid([1.0, np.nan]),
                 ["disc", "solve", "--domain", "ellipsoid:1,nan", "--z",
                  "0.1,0", "--v", "1,0"], id="nan-semi-axis"),
    pytest.param(lambda: make_ellipsoid([1.0, np.inf]),
                 ["disc", "solve", "--domain", "ellipsoid:1,inf", "--z",
                  "0.1,0", "--v", "1,0"], id="inf-semi-axis"),
    pytest.param(lambda: consistency_check(NAMED_FUNCTIONS["holo_mix"], BALL,
                                           _INNER, _Z_O, 0, SMALL),
                 _VERIFY_CLI + ["--z", "0.7,0", "--discs", "0"],
                 id="verify-zero-discs"),
    pytest.param(lambda: reconstruct(NAMED_FUNCTIONS["holo_mix"], BALL, _INNER,
                                     _Z_O[None, :], 0, SMALL),
                 ["extension", "reconstruct"] + _VERIFY_CLI[2:]
                 + ["--sample", "1", "--discs", "0"],
                 id="reconstruct-zero-discs"),
    pytest.param(lambda: pi_set_sample(BALL, _INNER, np.array([0.5, 0.0]), 0,
                                       SMALL),
                 ["tangency", "pi"] + _LOCUS_CLI[2:-1] + ["0.5,0", "--count",
                                                          "0"],
                 id="pi-zero-count"),
    pytest.param(lambda: extremality_probe(
        BALL, ball_geodesic(BALL, _Z, _V, SMALL), 0),
        ["disc", "probe", "--domain", "ball", "--z", "0,0", "--v", "1,0",
         "--trials", "0", "--modes", "16", "--grid", "64"],
        id="probe-zero-trials"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, np.array([1.0, 0.0]), _V, SMALL),
        _SOLVE_CLI + ["--z", "1,0", "--v", "1,0"], id="boundary-z"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, np.array([2.0, 0.0]), _V, SMALL),
        _SOLVE_CLI + ["--z", "2,0", "--v", "1,0"], id="exterior-z"),
    pytest.param(lambda: solve_from_center_direction(BALL, _Z, np.zeros(2),
                                                     SMALL),
                 _SOLVE_CLI + ["--z", "0.2,0", "--v", "0,0"], id="zero-v"),
    pytest.param(lambda: solve_two_point(BALL, _Z, _Z.copy(), SMALL),
                 _SOLVE_CLI + ["--z", "0.2,0", "--w", "0.2,0"],
                 id="two-point-w-equals-z"),
    pytest.param(lambda: SolverSettings(grid=CircleGrid(100)),
                 _SOLVE_CLI + ["--z", "0.2,0", "--v", "1,0", "--grid", "100"],
                 id="grid-not-power-of-two"),
    pytest.param(lambda: SolverSettings(modes=80, grid=CircleGrid(256)),
                 _SOLVE_CLI + ["--z", "0.2,0", "--v", "1,0", "--modes", "80",
                               "--grid", "256"],
                 id="modes-above-quarter-grid"),
    pytest.param(_matching("epsilon", lambda: make_perturbed_ball(5.0)),
                 ["disc", "solve", "--domain", "perturbed_ball:5", "--z",
                  "0.1,0", "--v", "1,0"], id="perturbed-ball-unbounded"),
    pytest.param(_matching("NAMED_BUMPS",
                           lambda: make_perturbed_ball(0.05, "nosuchbump")),
                 ["disc", "solve", "--domain", "perturbed_ball:0.05:nosuchbump",
                  "--z", "0.1,0", "--v", "1,0"], id="unknown-bump"),
    pytest.param(lambda: AnalyticDisc.from_json({"coeffs": "x", "grid": 64}),
                 None, id="disc-json-malformed-coeffs"),
    pytest.param(lambda: AnalyticDisc.from_json({"coeffs": [[[0.0, 0.0]]]}),
                 None, id="disc-json-no-grid"),
    pytest.param(lambda: AnalyticDisc(np.full((2, 2), np.nan), SMALL.grid,
                                      BALL), None, id="disc-nan-coeffs"),
    pytest.param(lambda: AnalyticDisc(np.zeros((0, 2)), CircleGrid(64)),
                 None, id="disc-no-coefficient-rows"),
    pytest.param(lambda: AnalyticDisc(np.zeros((1, 2)), CircleGrid(64)),
                 None, id="disc-one-coefficient-row"),
    pytest.param(lambda: AnalyticDisc(np.zeros((2, 0)), CircleGrid(64)),
                 None, id="disc-no-coefficient-columns"),
    pytest.param(lambda: AnalyticDisc.from_json(
        {"coeffs": [[[0.5, 0.0], [0.0, 0.0]]], "grid": 64}),
                 None, id="disc-json-one-row"),
    pytest.param(lambda: AnalyticDisc.from_json(
        {"coeffs": [[[0.5, 0.0], [0.0, 0.0]], [[0.1, 0.0], [0.0, 0.0]]],
         "grid": 256.7}), None, id="disc-json-fractional-grid"),
    pytest.param(lambda: AnalyticDisc(np.zeros((2, 2)), 64), None,
                 id="disc-int-grid"),
    pytest.param(lambda: SolverSettings(grid=256), None,
                 id="settings-int-grid"),
    pytest.param(lambda: SolverSettings(newton_tol=None), None,
                 id="none-newton-tol"),
    pytest.param(lambda: SolverSettings(newton_tol="a"), None,
                 id="string-newton-tol"),
    pytest.param(lambda: tangent_line_disc(0.5, [np.nan, 0.0], [0.0, 1.0],
                                           CircleGrid(64)),
                 None, id="tangent-line-disc-nan-base-point"),
    pytest.param(lambda: tangent_line_disc(0.5, [0.3, 0.0], [0.0, 0.0],
                                           CircleGrid(64)),
                 None, id="tangent-line-disc-zero-direction"),
    pytest.param(lambda: kobayashi_distance(BALL, np.zeros(2),
                                            np.array([1e300, 0.0])),
                 None, id="kobayashi-huge-w"),
    pytest.param(lambda: solve_from_center_direction(
        BALL, np.array([1e300, 0.0]), _V, SMALL), None, id="huge-z"),
    pytest.param(lambda: certify(BALL, np.nan), None,
                 id="certify-nan-samples"),
    pytest.param(lambda: psi(BALL, np.zeros(2), _HUGE, SMALL), None,
                 id="psi-huge-w"),
    pytest.param(lambda: psi_inverse(BALL, np.zeros(2), _HUGE, SMALL), None,
                 id="psi-inverse-huge-v"),
    pytest.param(lambda: ball_geodesic(BALL, _HUGE, _V, SMALL), None,
                 id="ball-geodesic-huge-z"),
    pytest.param(lambda: trace_locus(BALL, _INNER, _HUGE, 4, SMALL), None,
                 id="trace-locus-huge-z-o"),
    pytest.param(lambda: pi_set_sample(BALL, _INNER, _HUGE, 2, SMALL), None,
                 id="pi-set-sample-huge-z-o"),
    pytest.param(lambda: AnalyticDisc(np.array([_HUGE, [1.0, 0.0]]),
                                      CircleGrid(64), BALL).boundary_residual(),
                 None, id="disc-huge-coefficients"),
    pytest.param(lambda: kobayashi_distance(BALL, np.array([2.0, 0.0]),
                                            np.array([2.0, 0.0])),
                 ["geodesic", "distance", "--domain", "ball", "--z", "2,0",
                  "--w", "2,0"], id="distance-exterior-w-equals-z"),
    *[pytest.param(lambda tol=tol: BALL.boundary_point(np.array([1.0, 0.0]),
                                                       tol=tol),
                   None, id=f"boundary-point-tol-{tol}")
      for tol in (0.0, -1.0, 1e-300, np.nan, np.inf)],
    *[pytest.param(lambda s=s: _residual_from(s), None,
                   id=f"tangency-residual-sigma-w-{s}")
      for s in (np.nan, np.inf, 1e300, "abc")],
    *[pytest.param(call, None, id=f"{name}-inner-radius-{r2}")
      for r2 in (1.5, 0.0, np.nan, -0.3)
      for name, call in (
          ("tangent-line-disc", lambda r2=r2: tangent_line_disc(
              r2, [0.3, 0.0], [0.0, 1.0], CircleGrid(64))),
          ("tangent-line-family", lambda r2=r2: tangent_line_family(
              r2, 4, CircleGrid(64))),
          ("harness", lambda r2=r2: counterexample_harness(4, 64,
                                                           radii=(r2,))))],
])
def test_bad_inputs_raise_precondition_errors(call, cli):
    with pytest.raises(PreconditionError):
        call()
    if cli is not None:
        assert cli_main(cli) == 2


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


@pytest.mark.parametrize("z, w", [("0.8,0", "0.85,0"), ("0.9,0", "0.5,0.3")])
def test_two_point_past_the_ball_truncation_floor_diverges(z, w):
    # the ball geodesic through both points decays too slowly for M = 64
    # to attach it to newton_tol, and the error names that M
    with pytest.raises(SolverDivergence, match="M = 64"):
        solve_two_point(BALL, parse_points(z), parse_points(w),
                        SolverSettings())
    assert cli_main(_SOLVE_CLI + ["--z", z, "--w", w]) == 3


def test_center_direction_past_the_ball_truncation_floor_names_m(capsys):
    # the closed form through (0.9, 0) along (1, 0) is attached only to
    # 0.00448 at M = 64, and Gauss-Newton cannot polish it: the error names
    # that M, with the Gauss-Newton failure as its cause
    with pytest.raises(SolverDivergence, match="M = 64") as info:
        solve_from_center_direction(BALL, np.array([0.9, 0.0]),
                                    np.array([1.0, 0.0]), SolverSettings())
    assert isinstance(info.value.__cause__, SolverDivergence)
    capsys.readouterr()
    assert cli_main(_SOLVE_CLI + ["--z", "0.9,0", "--v", "1,0"]) == 3
    assert "truncated at M = 64" in capsys.readouterr().err


def test_two_point_residual_polishes_a_ball_closed_form_below_newton_tol():
    # at M = 64 the ball geodesic through z along v is attached only to
    # 2.8e-9; the ball's disc is then polished by Gauss-Newton from that
    # closed form instead of failing, also in the two-point solve through
    # a point of it
    z = np.array([0.562 - 0.27j, 0.09 + 0.635j])
    v = np.array([-0.369 + 0.171j, -0.656 + 0.636j])
    closed = ball_geodesic(BALL, z, v, SETTINGS)
    assert closed.attachment_residual > SETTINGS.newton_tol
    disc = _ball_disc(BALL, z, v, SETTINGS)
    assert disc.attachment_residual <= SETTINGS.newton_tol
    assert disc.boundary_residual() <= SETTINGS.newton_tol
    assert np.max(np.abs(disc.coeffs - closed.coeffs)) < 1e-8
    w = closed(np.array([0.5 + 0j]))[0]
    polished, xi = solve_two_point(BALL, z, w, SETTINGS)
    assert abs(xi - 0.5) < 1e-12
    assert polished.attachment_residual <= SETTINGS.newton_tol
    assert np.max(np.abs(polished.coeffs - disc.coeffs)) < 1e-10


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
    # the unit circle of circle.ring_values takes no multiply: the values
    # are those of the fold-then-ifft formula bit for bit
    folded, K = coeffs, modes + 1
    if K > grid:
        folded = np.concatenate([coeffs, np.zeros((-K % grid, 2))]) \
            .reshape((-1, grid, 2)).sum(axis=0)
    assert np.array_equal(values,
                          np.fft.ifft(folded, grid, axis=0, norm="forward"))


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
    h = 1e-6
    for i in range(len(x)):
        cols = []
        for sign in (1.0, -1.0):
            xp = x.copy()
            xp[i] += sign * h
            cols.append(system.residual(xp, disc)[0])
        fd = (cols[0] - cols[1]) / (2.0 * h)
        assert np.max(np.abs(J[:, i] - fd)) < 1e-7


def _count_gn_jacobians(monkeypatch):
    calls = []
    jacobian = _CenterDirectionSystem.jacobian

    def counting(system, u, fields=None):
        calls.append(u)
        return jacobian(system, u, fields)

    monkeypatch.setattr(_CenterDirectionSystem, "jacobian", counting)
    return calls


def _solved_two_point(settings=SMALL):
    """The two-point system of :func:`_two_point_case` at its solution, with
    the solved disc, which carries the tangent of its last joint step."""
    domain, z, w = _two_point_case()
    disc, xi = solve_two_point(domain, z, w, settings)
    v = disc.base_direction / np.linalg.norm(disc.base_direction)
    x = np.concatenate([v.real, v.imag, [xi]])
    return _TwoPointSystem(domain, z, w, settings), x, disc


def test_two_point_jacobian_after_a_warm_solve_builds_no_gn_jacobian(
        monkeypatch):
    system, x, disc = _solved_two_point()
    assert disc.tangent is not None
    calls = _count_gn_jacobians(monkeypatch)
    system.jacobian(x, disc)
    assert calls == []
    # a disc without a tangent from its solve is linearized once
    system.jacobian(x, dataclasses.replace(disc, tangent=None))
    assert len(calls) == 1


def test_two_point_tangent_belongs_to_its_disc(monkeypatch):
    # a later solve started from the disc leaves the disc's tangent with
    # it: its Jacobian still builds no GN Jacobian
    system, x_a, disc_a = _solved_two_point()
    tangent = disc_a.tangent
    assert tangent is not None
    _, _, disc_b = system.newton(x_a + 0.01, 1e-9, 30, disc_a)
    assert disc_b is not disc_a
    assert disc_a.tangent is tangent
    calls = _count_gn_jacobians(monkeypatch)
    system.jacobian(x_a, disc_a)
    assert calls == []


def test_warm_solve_returns_its_parameter_tangent(monkeypatch):
    # d(coeffs, gamma)/dp along the 4n real perturbations of (z, v) of the
    # disc a two-point solve returns, against central differences of discs
    # solved cold to 1e-12.  The tangent of the last joint step is taken at
    # the iterate that step started from, so it is exact to first order in
    # that step; built at the converged state it matches to 1e-7
    steps = []
    joint_step = _OuterSystem._joint_step

    def recording(self, X, aux):
        dX, T = joint_step(self, X, aux)
        steps.append(np.linalg.norm(dX))
        return dX, T

    monkeypatch.setattr(_OuterSystem, "_joint_step", recording)
    system, _, disc = _solved_two_point()
    monkeypatch.undo()
    domain = system.domain
    assert len(steps) >= 2
    dcoeffs, dgamma = disc.tangent
    assert dcoeffs.shape == (8, SMALL.modes + 1, 2)
    assert dgamma.shape == (8, len(disc.solver_g))
    # without its tangent the disc is linearized at the converged state
    built = _parameter_tangent(domain, dataclasses.replace(disc, tangent=None),
                               SMALL)

    z = disc.base_point
    v = disc.base_direction / np.linalg.norm(disc.base_direction)
    fine = SolverSettings(modes=32, grid=CircleGrid(128), newton_tol=1e-12)
    E = np.concatenate([np.eye(2), 1j * np.eye(2)])
    h = 1e-6
    lagged = exact = 0.0
    for p in range(8):
        dz, dv = (E[p], 0.0) if p < 4 else (0.0, E[p - 4])
        plus, minus = (_solve_cd_raw(domain, z + s * h * dz, v + s * h * dv,
                                     fine)
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


def _two_point_case():
    return (make_perturbed_ball(0.05, "re_z1_sq"), np.array([0.2 + 0.1j, -0.1j]),
            np.array([-0.1, 0.25 + 0.2j]))


def test_two_point_solve_iterates_on_the_disc_state(monkeypatch):
    # off a ball, the first disc is solved cold and the Newton iteration
    # then runs over (v, xi) and the disc's Gauss-Newton state together:
    # one GN Jacobian per step and no disc solve per residual; the disc it
    # returns is solved, conormal and passes through both points
    domain, z, w = _two_point_case()
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
    monkeypatch.setattr(discs_module, "_solve_cd_raw", recording)
    disc, xi = solve_two_point(domain, z, w, SMALL)
    monkeypatch.undo()
    assert len(solves) == 1
    assert len(steps) >= 2
    assert len(jacobians) - steps[0] == len(steps)
    assert disc.attachment_residual <= SMALL.newton_tol
    assert disc.boundary_residual() <= SMALL.newton_tol
    lift = lift_from_disc(domain, disc)
    assert boundary_conormality_residual(domain, disc, lift) <= 1e-10
    assert np.array_equal(disc.base_point, z)
    assert np.max(np.abs(disc(np.array([xi + 0j]))[0] - w)) <= 1e-9
    sample = psi(domain, z, w, SMALL)
    assert np.max(np.abs(psi_inverse(domain, z, sample.psi_value, SMALL)
                         - w)) <= 1e-8


def test_a_cold_two_point_solve_iterates_at_half_resolution_first(
        monkeypatch):
    # nested iteration from the cold disc too: once that disc is solved,
    # the joint Grams are built at M/2 first, and the iteration finishes at
    # M with at least one step
    domain, z, w = _two_point_case()
    grams, cold = [], []
    jacobian = _CenterDirectionSystem.jacobian

    def counting(system, u, fields=None):
        grams.append(system.M)
        return jacobian(system, u, fields)

    def recording(*args, **kwargs):
        disc = _solve_cd_raw(*args, **kwargs)
        cold.append(len(grams))
        return disc

    monkeypatch.setattr(_CenterDirectionSystem, "jacobian", counting)
    monkeypatch.setattr(discs_module, "_solve_cd_raw", recording)
    disc, xi = solve_two_point(domain, z, w, SMALL)
    monkeypatch.undo()
    assert len(cold) == 1
    joint = grams[cold[0]:]
    half = joint.count(SMALL.modes // 2)
    assert half >= 1 and joint[half:].count(SMALL.modes) >= 1
    assert joint == [SMALL.modes // 2] * half \
        + [SMALL.modes] * (len(joint) - half)
    assert disc.attachment_residual <= SMALL.newton_tol
    assert np.max(np.abs(disc(np.array([xi + 0j]))[0] - w)) <= 1e-9


def test_a_singular_gram_takes_the_least_squares_step(monkeypatch):
    # the Gram of a zero Jacobian has trace 0, so no shift makes it
    # definite: neither Cholesky nor LU solves it, and lstsq gives the step
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    B = np.random.default_rng(3).standard_normal((5, 2))
    step = _CenterDirectionSystem._ls_step(np.zeros((5, 5)), B)
    assert len(calls) == 1
    assert step.shape == B.shape and np.all(np.isfinite(step))


def test_a_rejected_joint_trial_is_followed_from_the_accepted_iterate(
        monkeypatch):
    # the first trial of the first step raises, as a state whose xi left
    # (0, 1) does: the next trial halves the step from the start, both are
    # handed the start's aux, the next step is built from the aux of the
    # trial accepted, and the solve converges where it does without the
    # rejection
    domain, z, w = _two_point_case()
    system = _TwoPointSystem(domain, z, w, SMALL)
    v0, xi0 = _ball_two_point_data(BALL, z, w)
    x0 = np.concatenate([v0.real, v0.imag, [xi0]])
    reference, _, _ = system.newton(x0, 1e-9, 30, None)
    states, handed, returned, stepped = [], [], [], []
    residual, joint_step = (_OuterSystem._joint_residual,
                            _OuterSystem._joint_step)

    def rejecting_the_first_trial(self, settings, X, aux=None):
        states.append(X.copy())
        handed.append(aux)
        if len(states) == 2:
            returned.append(None)
            raise PreconditionError("two-point state left the admissible region")
        out = residual(self, settings, X, aux)
        returned.append(out[1])
        return out

    def recording(self, X, aux):
        stepped.append(aux)
        return joint_step(self, X, aux)

    monkeypatch.setattr(_OuterSystem, "_joint_residual",
                        rejecting_the_first_trial)
    monkeypatch.setattr(_OuterSystem, "_joint_step", recording)
    x, R, disc = system.newton(x0, 1e-9, 30, None)
    assert np.allclose(states[2], states[0] + 0.5 * (states[1] - states[0]),
                       rtol=0.0, atol=1e-14)
    assert handed[1] is returned[0] and handed[2] is returned[0]
    assert stepped[0] is returned[0] and stepped[1] is returned[2]
    assert np.max(np.abs(R)) <= 1e-9
    assert disc.attachment_residual <= SMALL.newton_tol
    assert np.max(np.abs(x - reference)) < 1e-8


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
    assert first.tau is second.tau
    assert not first.tau.flags.writeable
    assert _coordinate_tangents(2) is _coordinate_tangents(2)
    assert not _coordinate_tangents(2).flags.writeable


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("modes,grid", [(8, 32), (32, 128), (64, 256)])
def test_fields_match_the_power_series_and_the_cos_sin_sum(n, modes, grid):
    # phi and g on the residual grid, each one inverse FFT, against the
    # off-grid evaluator and the explicit trigonometric sum
    system, u = _unconverged_system(n, modes, grid)
    phi, g = system._fields(u)
    theta = 2.0 * np.pi * np.arange(system.nn) / system.nn
    ref_phi = power_series(system.disc_coeffs(u), np.exp(1j * theta))
    re, im = u.reshape(n + 1, 2, modes + 1)[n]     # g: cos and -sin entries
    j = np.arange(1, modes + 1)
    ref_g = re[0] + np.cos(np.outer(theta, j)) @ re[1:] \
        - np.sin(np.outer(theta, j)) @ im[1:]
    assert _relative_error(phi, ref_phi) < 1e-13
    assert _relative_error(g, ref_g) < 1e-13


# -- the damped Newton driver -------------------------------------------------


def _max_norm_below(tol):
    return lambda F, aux: np.max(np.abs(F)) <= tol


def _logged(residual, trials, handed=None):
    """The toy residual u -> (F, u[0]), recording each state it sees and,
    in ``handed``, the aux that _damped_newton hands it."""
    def wrapped(u, aux):
        trials.append(float(u[0]))
        if handed is not None:
            handed.append(aux)
        return residual(u), float(u[0])
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
    # an uphill step is rejected at t = 1, 1/2, ..., 1/32 and then reported;
    # every trial is handed the aux of the accepted iterate, not of the
    # trial rejected before it, and the start is handed the caller's
    trials, handed = [], []
    with pytest.raises(SolverDivergence, match="line search stalled") as info:
        _damped_newton(np.ones(1), _logged(lambda u: u.copy(), trials, handed),
                       lambda u, F, aux: F, _max_norm_below(1e-12), 1e-12, 5,
                       aux="start")
    assert info.value.last_residual == 1.0
    assert trials == [1.0] + [1.0 + 0.5 ** k for k in range(6)]
    assert handed == ["start"] + [1.0] * 6


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
        _damped_newton(np.zeros(1), lambda u, aux: (np.full(1, 1e-3), None),
                       lambda u, F, aux: steps.append(u) or np.ones(1),
                       _max_norm_below(1e-6), 1e-3, 40)
    assert len(steps) == 5 and info.value.last_residual == 1e-3
    # a contraction by 0.87 per step halves the residual every five and
    # runs until it converges
    u, F, _ = _damped_newton(np.ones(1), lambda u, aux: (u.copy(), None),
                             lambda u, F, aux: -0.13 * F,
                             _max_norm_below(1e-3), 1e-12, 60)
    assert abs(F[0]) <= 1e-3


def test_cold_ball_solve_with_transverse_direction_builds_no_jacobian(
        monkeypatch):
    # <v, z> = 0 gives mu = 0: the closed form is the exact disc with
    # g = 1, and the solve returns it as it is
    z = np.array([0.3, 0.2j])
    v = np.array([2j / 3, 1.0])
    log = _ContinuationLog(monkeypatch, BALL)
    disc = _solve_cd_raw(BALL, z, v, SETTINGS)
    assert log.jacobians == 0 and log.target_calls == {}
    assert disc.attachment_residual <= SETTINGS.newton_tol
    exact = ball_geodesic(BALL, z, v, SETTINGS).coeffs
    assert np.max(np.abs(disc.coeffs - exact)) < 1e-15


def test_one_armijo_loop():
    # every damped Newton solve goes through discs._damped_newton; another
    # hand-written line search would repeat its sufficient-decrease test
    src = pathlib.Path(discs_module.__file__).parent
    assert sum(p.read_text().count("1e-4 * t") for p in src.glob("*.py")) == 1


def test_one_nested_iteration():
    # the cold disc solve and the joint iteration share one two-level
    # driver, the one function that asks for the half-resolution level and
    # reads its tolerance; the step floor is _damped_newton's min_steps
    src = pathlib.Path(discs_module.__file__).parent
    users = {"_half_resolution": set(), "COARSE_TOL": set()}
    for path in src.glob("*.py"):
        text = path.read_text()
        assert "copy.copy" not in text and "must_step" not in text
        for function in ast.walk(ast.parse(text)):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Name) and node.id in users:
                        users[node.id].add(function.name)
    assert users == {"_half_resolution": {"_two_levels"},
                     "COARSE_TOL": {"_two_levels"}}


def test_one_outer_system():
    # the joint tangency corrector and the two-point solve share
    # discs._OuterSystem, which takes every domain alike; its
    # through-point Jacobian is the one reader of a parameter tangent.
    # tangency.py builds no ball geodesic (see test_one_ball_solve)
    from geodisc.tangency import _TangencySystem

    src = pathlib.Path(discs_module.__file__).parent
    text = "".join(p.read_text() for p in src.glob("*.py"))
    name = "_parameter_tangent("
    assert text.count(name) - text.count(f"def {name}") == 1
    assert "_ball_point" not in text and "_DiscPoint" not in text
    assert "ball_geodesic(" not in (src / "tangency.py").read_text()
    for system in (_OuterSystem, _TangencySystem):
        assert '"ball"' not in inspect.getsource(system)


def test_one_ball_solve():
    # a ball's disc is solved in one place, discs._ball_disc, which also
    # reports its truncation: the cold solve sends a ball there once and
    # is otherwise the homotopy alone, and _ball_disc does not call back
    cold = inspect.getsource(_solve_cd_raw)
    assert cold.count('"ball"') == 1 and cold.count("_ball_disc(") == 1
    assert "ball0 is domain" not in cold
    ball = inspect.getsource(_ball_disc)
    assert "_solve_cd_raw(" not in ball
    src = pathlib.Path(discs_module.__file__).parent
    text = "".join(p.read_text() for p in src.glob("*.py"))
    assert text.count("ball geodesic truncated at M =") == 1
    assert "ball geodesic truncated at M =" in ball


@pytest.mark.parametrize("center,radius,z,v", [
    ([0, 0], 1.0, [0.3 + 0.1j, -0.2j], [1.0, 0.5j]),
    ([0, 0], 1.0, [0.5, 0.2 - 0.1j], [0.3j, -2.0]),
    ([0.1, -0.2j], 0.8, [0.2 + 0.1j, -0.3j], [1.0 + 1.0j, 0.5]),
])
def test_a_cold_ball_solve_is_its_closed_form_where_that_attaches(
        center, radius, z, v):
    # every cold solve of a ball returns discs._ball_disc's disc at its
    # normalized (z, v), bit for bit: the closed form, where it attaches
    ball = make_ball(center, radius)
    z, v = np.array(z), np.array(v)
    exact = ball_geodesic(ball, *_point_and_direction(ball, z, v), SETTINGS)
    assert exact.attachment_residual <= SETTINGS.newton_tol
    for disc in (_solve_cd_raw(ball, z, v, SETTINGS),
                 solve_from_center_direction(ball, z, v, SETTINGS)[0]):
        assert np.array_equal(disc.coeffs, exact.coeffs)
        assert np.array_equal(disc.solver_g, exact.solver_g)
        assert disc.attachment_residual == exact.attachment_residual
    zeta = 0.4 * v / np.linalg.norm(v)
    along = ball_geodesic(ball, *_point_and_direction(ball, z, zeta / 0.4),
                          SETTINGS)
    assert np.array_equal(psi_inverse(ball, z, zeta, SETTINGS),
                          along(np.array([0.4 + 0j]))[0])


def test_one_place_builds_a_solved_disc():
    # the solve's disc, with its attachment, g and tangent, is built once,
    # in discs._finalize; callers take it as it is
    src = pathlib.Path(discs_module.__file__).parent
    assert sum(p.read_text().count("attachment_residual=diag")
               for p in src.glob("*.py")) == 1


@pytest.mark.parametrize("shape", [(3, 4), (3, 6), (8, 9), (5, 5)])
def test_min_norm_solve_matches_lstsq_on_full_row_rank(shape):
    # the shapes of the ball corrector (n = 2, 3), the joint tangency step
    # and the two-point step
    rng = np.random.default_rng([27, *shape])
    for _ in range(20):
        J = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        exact = np.linalg.lstsq(J, b, rcond=None)[0]
        assert np.linalg.norm(_min_norm_solve(J, b) - exact) \
            <= 1e-12 * np.linalg.norm(exact)


def test_min_norm_solve_gives_lstsq_on_dependent_rows():
    # a zero row makes the Gram exactly singular, where LU raises; a row
    # that combines two others makes it singular to working precision
    rng = np.random.default_rng(27)
    J = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    zero, combined = J.copy(), J.copy()
    zero[2] = 0.0
    combined[2] = J[0] - 2.0 * J[1]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(zero @ zero.T, b)
    for dependent in (zero, combined):
        assert np.array_equal(_min_norm_solve(dependent, b),
                              np.linalg.lstsq(dependent, b, rcond=None)[0])
