"""Intensity-difference squeezing spectrum, dB bookkeeping, on-chip inference."""

import dataclasses
import math

import numpy as np
import pytest

from ringlab.devicemodel import detection_efficiency
from ringlab.squeezing import (
    db_from_linear,
    infer_onchip,
    lorentzian_rolloff,
    squeezing_level,
    squeezing_vs_coupling,
)

OMEGA_3MHZ = 2.0 * math.pi * 3e6


# --- spectrum formula -----------------------------------------------------------


def test_perfect_squeezing_at_zero_sideband():
    assert squeezing_level(1.0, 1.0, 22.5e-9, 0.0) == 0.0


def test_shot_noise_at_large_sideband():
    assert squeezing_level(1.0, 1.0, 22.5e-9, 1e15) == pytest.approx(1.0, abs=1e-10)


def test_example_point_two_thirds_efficiencies():
    s = squeezing_level(0.7, 0.6, 22.5e-9, 0.0)
    assert s == pytest.approx(0.58, rel=1e-15)
    assert db_from_linear(s) == pytest.approx(10.0 * math.log10(0.58), abs=1e-12)
    assert db_from_linear(s) == pytest.approx(-2.37, abs=5e-3)


def test_no_detection_means_shot_noise():
    for omega in (0.0, 1e6, 1e8):
        assert squeezing_level(0.7, 0.0, 22.5e-9, omega) == 1.0


def test_zero_coupling_means_shot_noise():
    assert squeezing_level(0.0, 0.6, 22.5e-9, OMEGA_3MHZ) == 1.0
    assert db_from_linear(squeezing_level(0.0, 1.0, 22.5e-9, 0.0)) == 0.0


def test_spectrum_on_sideband_grid():
    s = squeezing_level(0.7, 1.0, 22.5e-9, np.array([0.0, OMEGA_3MHZ]))
    assert s.shape == (2,)
    assert s[0] == pytest.approx(0.3, rel=1e-12)
    # monotone non-decreasing in |sideband|
    grid = np.linspace(0, 30e6, 200) * 2 * math.pi
    assert np.all(np.diff(squeezing_level(0.55, 0.9, 22.5e-9, grid)) >= 0)


def test_array_level_and_db_match_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(31)
    eta_c = rng.uniform(0.0, 1.0, 500)
    tau_c = 10.0 ** rng.uniform(-9, -7, 500)
    omega = rng.uniform(0.0, 5.0 / tau_c)
    s = squeezing_level(eta_c, 0.578, tau_c, omega)
    scalar = [squeezing_level(float(e), 0.578, float(t), float(w)) for e, t, w in zip(eta_c, tau_c, omega)]
    assert s.tolist() == scalar
    assert db_from_linear(s).tolist() == [db_from_linear(v) for v in scalar]
    assert type(squeezing_level(0.5, 0.5, 1e-8, 0.0)) is float
    assert type(db_from_linear(0.5)) is float


def test_array_range_errors_name_the_first_offending_value():
    with pytest.raises(ValueError, match=r"eta_c must be in \[0, 1\], got 1.5$"):
        squeezing_level(np.array([0.5, 1.5, -0.5]), 1.0, 1e-8, 0.0)
    with pytest.raises(ValueError, match=r"tau_c must be positive, got -1.0$"):
        squeezing_level(0.5, 1.0, np.array([1e-8, -1.0, 0.0]), 0.0)
    with pytest.raises(ValueError, match=r"linear value must be positive, got 0.0$"):
        db_from_linear(np.array([0.5, 0.0, -1.0]))


def test_parameter_range_errors():
    with pytest.raises(ValueError):
        squeezing_level(1.2, 1.0, 1e-8, 0.0)
    with pytest.raises(ValueError):
        squeezing_level(0.5, -0.1, 1e-8, 0.0)
    with pytest.raises(ValueError):
        squeezing_level(0.5, 0.5, 0.0, 0.0)


# --- dB bookkeeping -------------------------------------------------------------


def test_db_identity_and_half():
    assert db_from_linear(1.0) == 0.0
    assert db_from_linear(0.5) == pytest.approx(-3.0103, abs=1e-4)


def test_db_typical_squeezing_value():
    assert db_from_linear(0.407) == pytest.approx(-3.90, abs=5e-3)


def test_db_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        s = 10.0 ** rng.uniform(-3, 1)
        assert 10.0 ** (db_from_linear(s) / 10.0) == pytest.approx(s, rel=1e-12)


def test_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        db_from_linear(0.0)


# --- on-chip inference ----------------------------------------------------------


def test_infer_onchip_shot_noise_fixed_point():
    assert infer_onchip(1.0, 0.6) == pytest.approx(1.0, abs=1e-15)


def test_infer_onchip_device_like_values():
    eta_d = 0.85 * 10 ** (-0.07) * 0.80  # 0.578774
    s_measured = 10.0 ** (-2.0 / 10.0)  # 0.630957
    s_onchip = infer_onchip(s_measured, eta_d)
    assert s_onchip == pytest.approx(1.0 - (1.0 - s_measured) / eta_d, rel=1e-15)
    assert db_from_linear(s_onchip) == pytest.approx(-4.4, abs=0.02)
    # with the rounded 60% detection efficiency
    s_onchip60 = infer_onchip(s_measured, 0.60)
    assert db_from_linear(s_onchip60) == pytest.approx(-4.1, abs=0.05)


def test_infer_onchip_near_singular_boundary():
    eta_d = 0.6
    s_onchip = infer_onchip(1.0 - eta_d + 1e-6, eta_d)
    assert s_onchip == pytest.approx(0.0, abs=2e-6)


def test_infer_onchip_rejects_unphysical():
    with pytest.raises(ValueError):
        infer_onchip(0.4, 0.6)  # 0.4 <= 1 - 0.6
    with pytest.raises(ValueError):
        infer_onchip(0.99, 0.6, omega_tau_product=10.0)  # rolloff makes the floor higher


def test_inversion_round_trip_property():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        eta_c = rng.uniform(0.01, 1.0)
        eta_d = rng.uniform(0.05, 1.0)
        tau_c = 10.0 ** rng.uniform(-9, -7)
        omega = rng.uniform(0.0, 3.0 / tau_c)
        measured = squeezing_level(eta_c, eta_d, tau_c, omega)
        onchip = squeezing_level(eta_c, 1.0, tau_c, omega)
        inferred = infer_onchip(measured, eta_d, omega_tau_product=omega * tau_c)
        assert inferred == pytest.approx(onchip, rel=1e-12, abs=1e-12)


# --- monotonicity and bounds (finite-difference sign checks) ---------------------


def test_partial_derivative_signs():
    rng = np.random.default_rng(23)
    h = 1e-7
    for _ in range(300):
        eta_c = rng.uniform(0.05, 0.95)
        eta_d = rng.uniform(0.05, 0.95)
        tau_c = 2.25e-8
        omega = rng.uniform(1e5, 2e8)
        s0 = squeezing_level(eta_c, eta_d, tau_c, omega)
        assert squeezing_level(eta_c + h, eta_d, tau_c, omega) < s0   # decreasing in eta_c
        assert squeezing_level(eta_c, eta_d + h, tau_c, omega) < s0   # decreasing in eta_d
        assert squeezing_level(eta_c, eta_d, tau_c, omega * (1 + h)) > s0  # increasing in |W|


def test_lower_bound_with_equality_only_at_zero_sideband():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        eta_c = rng.uniform(0.0, 1.0)
        eta_d = rng.uniform(0.0, 1.0)
        tau_c = 10.0 ** rng.uniform(-9, -7)
        omega = rng.uniform(0.0, 5.0 / tau_c)
        s = squeezing_level(eta_c, eta_d, tau_c, omega)
        assert s >= 1.0 - eta_c * eta_d - 1e-15
        assert s < 1.0 or eta_c * eta_d == 0.0
    assert squeezing_level(0.8, 0.9, 1e-8, 0.0) == pytest.approx(1.0 - 0.72, rel=1e-15)


# --- sweep composition ------------------------------------------------------------


def test_sweep_monotone_and_endpoints(cfg):
    sweep = squeezing_vs_coupling(cfg, "lower", np.arange(0.0, 50.5, 0.5), 10.0, 2.0 * math.pi * 3e6)
    etas, measured, onchip = sweep.eta_c, sweep.s_measured_db, sweep.s_onchip_db
    assert np.all(np.diff(etas) > 0)
    assert np.all(np.diff(measured) < 0)  # more squeezing at higher eta_c
    assert np.all(np.diff(onchip) < 0)
    assert np.all(onchip <= measured)
    assert sweep.omega_sideband_hz == pytest.approx(3e6, rel=1e-12)
    # calibrated top of sweep sits at the device's operating figures
    assert etas[-1] == pytest.approx(0.707, abs=0.002)
    assert onchip[-1] == pytest.approx(-3.9, abs=0.15)
    assert measured[-1] == pytest.approx(-1.8, abs=0.15)


def test_sweep_collapses_when_detection_is_perfect(cfg):
    cfg = dataclasses.replace(cfg, detection=(("ideal", 1.0),))
    assert detection_efficiency(cfg.detection) == 1.0
    sweep = squeezing_vs_coupling(cfg, "lower", np.linspace(0, 50, 11), 10.0, 2.0 * math.pi * 3e6)
    assert sweep.s_measured_db == pytest.approx(sweep.s_onchip_db, rel=1e-12)


def test_rolloff_helper():
    assert lorentzian_rolloff(0.0) == 1.0
    assert lorentzian_rolloff(1.0) == 0.5
