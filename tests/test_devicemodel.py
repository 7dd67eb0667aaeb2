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
from ringlab.spectra import compute_trace
from ringlab.supermodes import solve_both

MHZ = 2.0 * math.pi * 1e6


# --- validation ---------------------------------------------------------------


def test_direct_construction_is_checked(cfg):
    with pytest.raises(ConfigError, match=r"^coupling\.kappa_ext: external coupling rate must be positive$"):
        DeviceConfig(cfg.ring1, cfg.ring2, math.nan, cfg.kappa_12, cfg.detection)


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


def with_field(cfg, path, value):
    """A copy of cfg with the field at `path` ("kappa_12", "ring1.gamma_i")
    set to `value`, built through dataclasses.replace and so checked."""
    ring, _, field = path.rpartition(".")
    if not ring:
        return dataclasses.replace(cfg, **{field: value})
    return dataclasses.replace(cfg, **{ring: dataclasses.replace(getattr(cfg, ring), **{field: value})})


RING_INVARIANTS = (
    ("omega0", 0.0, "resonance frequency must be positive"),
    ("gamma_i", math.nan, "intrinsic loss must be positive"),
    ("heater_alpha", math.inf, "tuning coefficient must be finite"),
    ("heater_p_max_mw", 0.0, "maximum heater power must be positive"),
)


INVARIANTS = [
    *((f"{ring}.{field}", value, f"{ring}.{field}: {problem}")
      for ring in ("ring1", "ring2") for field, value, problem in RING_INVARIANTS),
    ("kappa_ext", -1.0, "coupling.kappa_ext: external coupling rate must be positive"),
    ("kappa_12", 0.0, "coupling.kappa_12: inter-ring coupling must be positive"),
    ("detection", (), "detection: at least one detection stage required"),
    ("detection", (("grating", 0.85), ("lens", 1.2)), "detection.lens: stage efficiency must be in (0, 1], got 1.2"),
]


@pytest.mark.parametrize("path, value, message", INVARIANTS, ids=[path for path, _, _ in INVARIANTS])
def test_each_invariant_names_its_record_field(path, value, message, cfg):
    with pytest.raises(ConfigError) as excinfo:
        with_field(cfg, path, value)
    assert str(excinfo.value) == message
    named = str(excinfo.value).split(": ", 1)[0].split(".")
    field = path.rpartition(".")[2]
    record = RingParams if "." in path else DeviceConfig
    assert field in {f.name for f in dataclasses.fields(record)}
    # a detection path goes on from the field to the stage it refuses
    assert named[-1] == field or named[0] == field == "detection"


HEATER_SETTINGS = ((0.0, 0.0), (25.0, 10.0), (50.0, 40.0))
PROBE_POWERS = np.linspace(-10.0, 200.0, 43)
PROBE_GRID = pump_angular_frequency(1561.1) + np.linspace(-2e10, 2e10, 401)


def model_probes(cfg):
    """What the model computes from a device: both supermodes at a few
    heater settings, a transmission trace on a fixed grid, the detection
    efficiency and which probe powers each ring's heater map refuses."""
    refused = []
    for ring in (cfg.ring1, cfg.ring2):
        for power in PROBE_POWERS:
            try:
                ring_frequency(ring, power)
            except ValueError:
                refused.append(power)
    return (
        [dataclasses.astuple(solution) for p1, p2 in HEATER_SETTINGS for solution in solve_both(cfg, p1, p2)],
        compute_trace(cfg, 25.0, 10.0, PROBE_GRID).t_power.tolist(),
        detection_efficiency(cfg.detection),
        refused,
    )


RECORD_PATHS = [
    *(f"{ring}.{field.name}" for ring in ("ring1", "ring2") for field in dataclasses.fields(RingParams)),
    *(field.name for field in dataclasses.fields(DeviceConfig) if field.name not in ("ring1", "ring2")),
]


@pytest.mark.parametrize("path", RECORD_PATHS)
def test_every_record_field_is_read(path, cfg):
    """A field that no probe reads is a field nothing reads: a different
    valid value must change at least one probe."""
    ring, _, field = path.rpartition(".")
    value = getattr(getattr(cfg, ring) if ring else cfg, field)
    changed = (("all", 0.5),) if field == "detection" else 1.5 * value
    assert model_probes(with_field(cfg, path, changed)) != model_probes(cfg)


# --- heater map ---------------------------------------------------------------


def bare_ring(alpha: float, p_max_mw: float) -> RingParams:
    """A ring whose cold resonance is 0, so its resonance is the heater shift."""
    return RingParams(omega0=0.0, gamma_i=1.0, heater_alpha=alpha, heater_p_max_mw=p_max_mw)


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
omega0_offset_mhz = 750.0
gamma_i_mhz = 2.0
heater_alpha_mhz_per_mw = 30.0
heater_p_max_mw = 100.0

[ring2]
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
        ring1=RingParams(omega0=omega_pump + 750.0 * MHZ, gamma_i=2.0 * MHZ, **heater),
        ring2=RingParams(omega0=omega_pump + 300.0 * MHZ, gamma_i=2.0 * MHZ, **heater),
        kappa_ext=5.0 * MHZ,
        kappa_12=150.0 * MHZ,
        detection=(("grating", 0.85), ("lens", 10.0 ** (-0.7 / 10.0)), ("photodiode", 0.80)),
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
    with pytest.raises(ConfigError, match=r"^ring2\.heater_p_max_mw: missing key$"):
        parse_config(VALID_TEXT.replace("heater_p_max_mw = 100.0\n\n[coupling]", "\n[coupling]"))


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
