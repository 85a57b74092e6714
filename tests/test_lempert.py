import numpy as np
import pytest

from geodisc import (make_ball, make_perturbed_ball, psi, psi_inverse,
                     SolverSettings, CircleGrid, PreconditionError)

BALL = make_ball([0, 0], 1.0)
SETTINGS = SolverSettings()
SMALL = SolverSettings(modes=32, grid=CircleGrid(128))


def test_psi_is_identity_at_center():
    w = np.array([0.5, 0.0])
    sample = psi(BALL, np.zeros(2), w, SETTINGS)
    assert np.max(np.abs(sample.psi_value - [0.5, 0.0])) < 1e-9
    for w in (np.array([0.3 + 0.1j, -0.2j]), np.array([-0.1, 0.45])):
        sample = psi(BALL, np.zeros(2), w, SETTINGS)
        assert np.max(np.abs(sample.psi_value - w)) < 1e-8


def test_psi_modulus_is_xi():
    sample = psi(BALL, np.array([0.2, 0.1j]), np.array([-0.3, 0.2]), SETTINGS)
    assert abs(np.linalg.norm(sample.psi_value) - sample.xi) < 1e-12
    assert 0 < sample.xi < 1


def test_psi_rejects_diagonal():
    z = np.array([0.2, 0.1])
    with pytest.raises(PreconditionError):
        psi(BALL, z, z + 1e-8, SETTINGS)


def test_psi_boundary_monotone():
    # |Psi_z(w)| increases to 1 as w goes to the boundary along a ray
    z = np.array([0.15, 0.1j])
    mods = []
    for t in (0.4, 0.7, 0.9, 0.997):
        w = np.array([t, 0.0])
        mods.append(np.linalg.norm(psi(BALL, z, w, SETTINGS).psi_value))
    assert all(mods[i] < mods[i + 1] for i in range(len(mods) - 1))
    assert mods[-1] >= 1.0 - 5e-3


def test_psi_inverse_examples():
    w = psi_inverse(BALL, np.zeros(2), np.array([0.3, 0.0]), SETTINGS)
    assert np.max(np.abs(w - [0.3, 0.0])) < 1e-10
    with pytest.raises(PreconditionError):
        psi_inverse(BALL, np.zeros(2), np.zeros(2), SETTINGS)
    with pytest.raises(PreconditionError):
        psi_inverse(BALL, np.zeros(2), np.array([1.2, 0.0]), SETTINGS)


def test_roundtrips_ball():
    z = np.array([0.2 + 0.1j, -0.1j])
    rng = np.random.default_rng(0)
    for _ in range(3):
        w = 0.55 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2
        if np.linalg.norm(w - z) < 1e-3:
            continue
        sample = psi(BALL, z, w, SETTINGS)
        back = psi_inverse(BALL, z, sample.psi_value, SETTINGS)
        assert np.max(np.abs(back - w)) < 1e-6
    v = np.array([0.4, 0.2j])
    forward = psi(BALL, z, psi_inverse(BALL, z, v, SETTINGS), SETTINGS)
    assert np.max(np.abs(forward.psi_value - v)) < 1e-6


def test_roundtrips_perturbed_ball():
    pb = make_perturbed_ball(0.05, "re_z1_sq")
    z = np.array([0.1 + 0.05j, -0.2j])
    rng = np.random.default_rng(1)
    for _ in range(3):
        w = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2
        if np.linalg.norm(w - z) < 1e-3:
            continue
        sample = psi(pb, z, w, SMALL)
        back = psi_inverse(pb, z, sample.psi_value, SMALL)
        assert np.max(np.abs(back - w)) < 1e-6


def test_a_round_trip_at_m64_meets_1e_12():
    # op 1449 of the geodesics benchmark's seed 1, once its worst round
    # trip (9.97e-10): the cold two-point solve behind psi starts its joint
    # iteration at half resolution and finishes at M with a full step
    pb = make_perturbed_ball(0.05, "re_z1_sq")
    settings = SolverSettings(modes=64, grid=CircleGrid(256))
    z = np.array([-0.0676803239136 + 0.065265120428023j,
                  -0.087791592456705 - 0.265547460134706j])
    w = np.array([0.034497225312703 - 0.244192514555724j,
                  0.13878354211133 + 0.340309843449813j])
    back = psi_inverse(pb, z, psi(pb, z, w, settings).psi_value, settings)
    assert np.max(np.abs(back - w)) <= 1e-12


def test_injectivity_on_samples():
    z = np.array([0.2, 0.1])
    rng = np.random.default_rng(2)
    ws, vals = [], []
    for _ in range(6):
        w = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2
        if np.linalg.norm(w - z) < 0.05:
            continue
        ws.append(w)
        vals.append(psi(BALL, z, w, SETTINGS).psi_value)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            gap = np.linalg.norm(vals[i] - vals[j])
            sep = np.linalg.norm(ws[i] - ws[j])
            assert gap > 1e-8 * sep
