"""Configuration types, unit handling, heater map, detection chain."""

import dataclasses
import math

import numpy as np
import pytest

from ringlab.devicemodel import (
    DeviceConfig,
    RingParams,
    db_loss_to_efficiency,
    detection_efficiency,
    load_config,
    parse_config,
    pump_angular_frequency,
    ring_frequency,
)
from ringlab.errors import ConfigError

MHZ = 2.0 * math.pi * 1e6


# --- validation ---------------------------------------------------------------


def test_direct_construction_is_checked(cfg):
    with pytest.raises(ConfigError, match=r"^pump\.wavelength_nm: pump wavelength must be positive$"):
        DeviceConfig(cfg.ring1, cfg.ring2, cfg.kappa_ext, cfg.kappa_12, cfg.detection, math.nan)


def test_zero_intrinsic_loss_rejected(cfg):
    bad_ring = dataclasses.replace(cfg.ring1, gamma_i=0.0)
    with pytest.raises(ConfigError, match="ring1.gamma_i: intrinsic loss must be positive"):
        dataclasses.replace(cfg, ring1=bad_ring)


def test_stage_efficiency_above_one_rejected(cfg):
    with pytest.raises(ConfigError, match="detection.lens"):
        dataclasses.replace(cfg, detection=(("grating", 0.85), ("lens", 1.2)))


def test_nonpositive_rates_rejected(cfg):
    with pytest.raises(ConfigError, match="coupling.kappa_12"):
        dataclasses.replace(cfg, kappa_ext=1e6, kappa_12=0.0)
    with pytest.raises(ConfigError, match="coupling.kappa_ext"):
        dataclasses.replace(cfg, kappa_ext=-1e6, kappa_12=1e6)


# --- heater map ---------------------------------------------------------------


def bare_ring(alpha: float, p_max_mw: float) -> RingParams:
    """A ring whose cold resonance is 0, so its resonance is the heater shift."""
    return RingParams(radius_um=100.0, omega0=0.0, gamma_i=1.0, heater_alpha=alpha, heater_p_max_mw=p_max_mw)


def test_heater_zero_power_gives_zero_detuning():
    ring = bare_ring(100.0 * MHZ, 50.0)
    assert ring_frequency(ring, 0.0) == 0.0


def test_heater_red_shift_sign_and_scale():
    ring = bare_ring(100.0 * MHZ, 50.0)
    assert ring_frequency(ring, 1.0) == pytest.approx(-2.0 * math.pi * 100e6, rel=1e-15)


def test_heater_power_out_of_range():
    ring = bare_ring(100.0 * MHZ, 50.0)
    with pytest.raises(ValueError):
        ring_frequency(ring, 51.0)
    with pytest.raises(ValueError):
        ring_frequency(ring, -0.1)


def test_heater_linearity():
    ring = bare_ring(37.5 * MHZ, 100.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.uniform(0.0, 50.0)
        a = rng.uniform(0.0, 2.0)
        assert ring_frequency(ring, a * p) == pytest.approx(a * ring_frequency(ring, p), rel=1e-12, abs=1e-6)


# --- detection chain ----------------------------------------------------------


def test_detection_chain_device_budget():
    chain = (("grating", 0.85), ("lens", db_loss_to_efficiency(0.7)), ("qe", 0.80))
    expected = 0.85 * 10.0 ** (-0.7 / 10.0) * 0.80
    assert detection_efficiency(chain) == pytest.approx(expected, abs=1e-15)
    assert detection_efficiency(chain) == pytest.approx(0.5787, abs=1e-4)


def test_detection_single_identity_stage():
    assert detection_efficiency((("all", 1.0),)) == 1.0


def test_detection_product_definition():
    assert detection_efficiency((("a", 0.5), ("b", 0.5))) == pytest.approx(0.25)


def test_detection_order_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        effs = rng.uniform(0.05, 1.0, size=rng.integers(1, 7))
        stages = [(f"s{i}", float(e)) for i, e in enumerate(effs)]
        shuffled = list(stages)
        rng.shuffle(shuffled)
        a = detection_efficiency(tuple(stages))
        b = detection_efficiency(tuple(shuffled))
        assert a == pytest.approx(b, rel=1e-12)


# --- config file --------------------------------------------------------------

VALID_TEXT = """
[ring1]
radius_um = 115.0
omega0_offset_mhz = 750.0
gamma_i_mhz = 2.0
heater_alpha_mhz_per_mw = 30.0
heater_p_max_mw = 100.0

[ring2]
radius_um = 115.0
omega0_offset_mhz = 300.0
gamma_i_mhz = 2.0
heater_alpha_mhz_per_mw = 30.0
heater_p_max_mw = 100.0

[coupling]
kappa_ext_mhz = 5.0
kappa_12_mhz = 150.0

[detection]
grating = 0.85
lens_loss_db = 0.7
photodiode = 0.80

[pump]
wavelength_nm = 1561.1
"""


def test_parse_valid_text_matches_default():
    # every value in internal units, by the conversions the module docstring states
    omega_pump = 2.0 * math.pi * 299792458.0 / (1561.1 * 1e-9)
    heater = {"heater_alpha": 30.0 * MHZ, "heater_p_max_mw": 100.0}
    expected = DeviceConfig(
        ring1=RingParams(radius_um=115.0, omega0=omega_pump + 750.0 * MHZ, gamma_i=2.0 * MHZ, **heater),
        ring2=RingParams(radius_um=115.0, omega0=omega_pump + 300.0 * MHZ, gamma_i=2.0 * MHZ, **heater),
        kappa_ext=5.0 * MHZ,
        kappa_12=150.0 * MHZ,
        detection=(("grating", 0.85), ("lens", 10.0 ** (-0.7 / 10.0)), ("photodiode", 0.80)),
        pump_wavelength_nm=1561.1,
    )
    assert parse_config(VALID_TEXT) == expected


def test_parse_units():
    cfg = parse_config(VALID_TEXT.replace("kappa_12_mhz = 150.0", "kappa_12_ghz = 0.15"))
    assert cfg.kappa_12 == pytest.approx(150.0 * MHZ, rel=1e-12)
    cfg = parse_config(VALID_TEXT.replace("gamma_i_mhz = 2.0", "gamma_i_rad_s = 12566370.614359172"))
    assert cfg.ring1.gamma_i == pytest.approx(2.0 * MHZ, rel=1e-12)


def test_parse_absolute_omega0():
    omega = pump_angular_frequency(1561.1) + 750.0 * MHZ
    text = VALID_TEXT.replace("omega0_offset_mhz = 750.0", f"omega0_rad_s = {omega!r}", 1)
    cfg = parse_config(text)
    assert cfg.ring1.omega0 == pytest.approx(omega, rel=1e-15)


def test_parse_error_names_bad_number():
    with pytest.raises(ConfigError, match=r"ring1\.gamma_i_mhz"):
        parse_config(VALID_TEXT.replace("gamma_i_mhz = 2.0", "gamma_i_mhz = abc", 1))


def test_parse_error_names_unknown_key():
    text = VALID_TEXT.replace("kappa_12_mhz = 150.0", "kappa_12_mhz = 150.0\nkappa_bogus_mhz = 1")
    with pytest.raises(ConfigError, match=r"coupling\.kappa_bogus_mhz"):
        parse_config(text)


def test_parse_error_names_missing_key():
    with pytest.raises(ConfigError, match=r"ring2\.radius_um"):
        parse_config(VALID_TEXT.replace("[ring2]\nradius_um = 115.0", "[ring2]"))


def test_parse_rejects_both_omega0_forms():
    text = VALID_TEXT.replace(
        "omega0_offset_mhz = 750.0", "omega0_offset_mhz = 750.0\nomega0_rad_s = 1e15", 1
    )
    with pytest.raises(ConfigError, match="omega0"):
        parse_config(text)


def test_parse_lens_loss_db_conversion():
    cfg = parse_config(VALID_TEXT)
    stages = dict(cfg.detection)
    assert stages["lens"] == pytest.approx(10 ** (-0.07), rel=1e-12)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="config file"):
        load_config("/nonexistent/path.cfg")


def test_parse_error_names_unknown_section():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(VALID_TEXT + "\n[mystery]\nx = 1\n")


def test_parse_rejects_stage_given_plain_and_in_db():
    text = VALID_TEXT.replace("lens_loss_db = 0.7", "lens = 0.9\nlens_loss_db = 0.7")
    with pytest.raises(ConfigError, match=r"^detection\.lens: "):
        parse_config(text)
