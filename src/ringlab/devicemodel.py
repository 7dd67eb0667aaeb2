"""Physical parameters, unit conventions, and validated device configuration.

All frequencies and rates are stored internally as *angular* quantities in
rad/s, and all loss/coupling rates are *energy* (photon-number) decay rates;
the corresponding field-amplitude rates are half as large.  Configuration
files and the CLI accept values with explicit unit suffixes (``_mhz``,
``_ghz``, ``_rad_s``, ``_nm``, ``_um``, ``_mw``, ``_loss_db``) and are
converted exactly once, at ingestion.  dB always means ``10*log10`` of a
power ratio.

Config file schema (INI syntax, ``#`` comments)::

    [ring1]                    # identically for [ring2]
    radius_um = 115.0
    omega0_offset_mhz = 750.0  # resonance at zero heater power, relative to
                               # the pump angular frequency (or give the
                               # absolute value via omega0_rad_s)
    gamma_i_mhz = 2.0          # intrinsic energy decay rate (or gamma_i_rad_s,
                               # gamma_i_ghz)
    heater_alpha_mhz_per_mw = 30.0   # positive value red-shifts the resonance
    heater_p_max_mw = 100.0

    [coupling]
    kappa_ext_mhz = 5.0        # bus <-> ring1 external energy decay rate
    kappa_12_mhz = 150.0       # inter-ring coupling coefficient

    [detection]                # ordered stages; key = stage name
    grating = 0.85             # plain value: efficiency in (0, 1]
    lens_loss_db = 0.7         # *_loss_db: power loss in dB -> 10**(-dB/10)
    photodiode = 0.80

    [pump]
    wavelength_nm = 1561.1

Parse and validation errors name the offending key with its full dotted
path.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

C_VACUUM = 299792458.0  # m/s

_TWO_PI = 2.0 * math.pi

# Accepted suffixes for rate/frequency keys and their factor to rad/s.
_RATE_SUFFIXES = (("_rad_s", 1.0), ("_mhz", _TWO_PI * 1e6), ("_ghz", _TWO_PI * 1e9))


@dataclass(frozen=True)
class HeaterModel:
    """Thermo-optic tuning of one ring by its integrated microheater.

    alpha : rad/s of resonance shift per mW of heater power; positive alpha
        red-shifts (lowers) the resonance frequency with increasing power.
    p_max_mw : maximum allowed heater power, mW.
    """

    alpha: float
    p_max_mw: float


@dataclass(frozen=True)
class RingParams:
    """One microring: geometry, cold resonance, intrinsic loss, heater."""

    label: str            # "R1" or "R2"
    radius_um: float
    omega0: float         # resonance at zero heater power, rad/s
    gamma_i: float        # intrinsic energy decay rate, rad/s
    heater: HeaterModel


@dataclass(frozen=True)
class CouplingParams:
    """Coupling rates of the two-ring system, rad/s (energy rates).

    kappa_ext : bus waveguide <-> ring1 external decay rate; bounds the
        maximum reachable coupling efficiency.
    kappa_12 : inter-ring coupling coefficient; half the minimum supermode
        splitting.
    """

    kappa_ext: float
    kappa_12: float


@dataclass(frozen=True)
class DetectionChain:
    """Ordered chain of detection stages as (name, power efficiency) pairs."""

    stages: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class DeviceConfig:
    """Complete physical description of the double-ring device."""

    ring1: RingParams
    ring2: RingParams
    coupling: CouplingParams
    detection: DetectionChain
    pump_wavelength_nm: float


class ValidatedConfig(DeviceConfig):
    """A DeviceConfig that has passed validate_config.

    Construct only through validate_config; all ringlab operations that
    take a config require this type.
    """


def db_loss_to_efficiency(loss_db: float) -> float:
    """Convert a power loss in dB to a transmission efficiency."""
    return 10.0 ** (-loss_db / 10.0)


def pump_angular_frequency(wavelength_nm: float) -> float:
    """Angular frequency (rad/s) of light at the given vacuum wavelength."""
    return _TWO_PI * C_VACUUM / (wavelength_nm * 1e-9)


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_ring(ring: RingParams, path: str) -> None:
    _require(ring.label in ("R1", "R2"), f"{path}.label", f"label must be R1 or R2, got {ring.label!r}")
    _require(math.isfinite(ring.radius_um) and ring.radius_um > 0, f"{path}.radius_um", "radius must be positive")
    _require(math.isfinite(ring.omega0) and ring.omega0 > 0, f"{path}.omega0", "resonance frequency must be positive")
    _require(math.isfinite(ring.gamma_i) and ring.gamma_i > 0, f"{path}.gamma_i", "intrinsic loss must be positive")
    _require(math.isfinite(ring.heater.alpha), f"{path}.heater.alpha", "tuning coefficient must be finite")
    _require(
        math.isfinite(ring.heater.p_max_mw) and ring.heater.p_max_mw > 0,
        f"{path}.heater.p_max_mw",
        "maximum heater power must be positive",
    )


def validate_config(config: DeviceConfig) -> ValidatedConfig:
    """Check every invariant of a DeviceConfig and return it as validated.

    Raises ConfigError naming the first violated field.  Idempotent: an
    already-validated config is returned unchanged.
    """
    if isinstance(config, ValidatedConfig):
        return config
    _check_ring(config.ring1, "ring1")
    _check_ring(config.ring2, "ring2")
    _require(
        math.isfinite(config.coupling.kappa_ext) and config.coupling.kappa_ext > 0,
        "coupling.kappa_ext",
        "external coupling rate must be positive",
    )
    _require(
        math.isfinite(config.coupling.kappa_12) and config.coupling.kappa_12 > 0,
        "coupling.kappa_12",
        "inter-ring coupling must be positive",
    )
    _require(len(config.detection.stages) > 0, "detection.stages", "at least one detection stage required")
    for name, eff in config.detection.stages:
        _require(
            math.isfinite(eff) and 0.0 < eff <= 1.0,
            f"detection.{name}",
            f"stage efficiency must be in (0, 1], got {eff!r}",
        )
    _require(
        math.isfinite(config.pump_wavelength_nm) and config.pump_wavelength_nm > 0,
        "pump_wavelength_nm",
        "pump wavelength must be positive",
    )
    return ValidatedConfig(
        ring1=config.ring1,
        ring2=config.ring2,
        coupling=config.coupling,
        detection=config.detection,
        pump_wavelength_nm=config.pump_wavelength_nm,
    )


def first_flagged(bad, values):
    """The entry of `values` at the first set position of the mask `bad`
    (flat order) as a Python scalar, or None when no position is set.

    Lets a check over a whole grid name the value a loop over the grid
    would have stopped at.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return None
    return np.broadcast_to(values, bad.shape).flat[int(np.argmax(bad))].item()


def readonly_array(values) -> np.ndarray:
    """A float copy of `values` that cannot be written to, for the array
    fields of frozen result types."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def heater_detuning(heater: HeaterModel, power_mw):
    """Resonance shift (rad/s) produced by the given heater power(s).

    Positive power red-shifts, so the returned detuning is -alpha*power.
    The ring resonance at power P is omega0 + heater_detuning(heater, P).
    power_mw is a scalar or an array; out of range, the error names the
    first offending power.
    """
    power = np.asarray(power_mw)
    bad = first_flagged(~((0.0 <= power) & (power <= heater.p_max_mw)), power)
    if bad is not None:
        raise ValueError(
            f"heater power {bad} mW outside [0, {heater.p_max_mw}] mW"
        )
    return -heater.alpha * power_mw


def ring_frequency(ring: RingParams, power_mw):
    """Heater-shifted resonance frequency of one ring, rad/s (scalar or array)."""
    return ring.omega0 + heater_detuning(ring.heater, power_mw)


def detection_efficiency(chain: DetectionChain) -> float:
    """Composite detection efficiency: product of the stage efficiencies."""
    eta = 1.0
    for _, eff in chain.stages:
        eta *= eff
    return eta


def default_config() -> ValidatedConfig:
    """Calibrated default device.

    Radii, pump wavelength, and the detection stages are device values;
    the decay/coupling rates and heater coefficients are *calibrated*, not
    measured: they are chosen so the lower-branch heater sweep reproduces
    the observable ranges of the physical device (coupling efficiency
    tunable from below 0.1 to about 0.7, photon lifetime near 23 ns at the
    overcoupled end, resonance crossing at p1 = 25 mW for p2 = 10 mW).
    """
    omega_pump = pump_angular_frequency(1561.1)
    mhz = _TWO_PI * 1e6
    heater = HeaterModel(alpha=30.0 * mhz, p_max_mw=100.0)
    ring1 = RingParams(
        label="R1",
        radius_um=115.0,
        omega0=omega_pump + 750.0 * mhz,
        gamma_i=2.0 * mhz,
        heater=heater,
    )
    ring2 = RingParams(
        label="R2",
        radius_um=115.0,
        omega0=omega_pump + 300.0 * mhz,
        gamma_i=2.0 * mhz,
        heater=heater,
    )
    return validate_config(
        DeviceConfig(
            ring1=ring1,
            ring2=ring2,
            coupling=CouplingParams(kappa_ext=5.0 * mhz, kappa_12=150.0 * mhz),
            detection=DetectionChain(
                stages=(
                    ("grating", 0.85),
                    ("lens", db_loss_to_efficiency(0.7)),
                    ("photodiode", 0.80),
                )
            ),
            pump_wavelength_nm=1561.1,
        )
    )


# --- config file parsing ----------------------------------------------------


def _parse_float(section: configparser.SectionProxy, key: str, path: str) -> float:
    raw = section[key]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{path}.{key}: not a number: {raw!r}") from None


def _take_rate(section, path: str, base: str, consumed: set[str]) -> float | None:
    """Read a rate/frequency field given with any accepted unit suffix."""
    found = None
    for suffix, factor in _RATE_SUFFIXES:
        key = base + suffix
        if key in section:
            if found is not None:
                raise ConfigError(f"{path}.{key}: duplicate unit variants for {base}")
            found = _parse_float(section, key, path) * factor
            consumed.add(key)
    return found


def _parse_ring(parser: configparser.ConfigParser, name: str, label: str, omega_pump: float) -> RingParams:
    if name not in parser:
        raise ConfigError(f"{name}: missing section")
    section = parser[name]
    consumed: set[str] = set()

    if "radius_um" not in section:
        raise ConfigError(f"{name}.radius_um: missing key")
    radius_um = _parse_float(section, "radius_um", name)
    consumed.add("radius_um")

    omega0 = _take_rate(section, name, "omega0", consumed)
    offset = _take_rate(section, name, "omega0_offset", consumed)
    if omega0 is not None and offset is not None:
        raise ConfigError(f"{name}.omega0_rad_s: give omega0 either absolute or as a pump offset, not both")
    if omega0 is None and offset is None:
        raise ConfigError(f"{name}.omega0_offset_mhz: missing key (or omega0_rad_s)")
    if omega0 is None:
        omega0 = omega_pump + offset

    gamma_i = _take_rate(section, name, "gamma_i", consumed)
    if gamma_i is None:
        raise ConfigError(f"{name}.gamma_i_mhz: missing key")

    alpha = None
    for suffix, factor in (("_mhz_per_mw", _TWO_PI * 1e6), ("_rad_s_per_mw", 1.0)):
        key = "heater_alpha" + suffix
        if key in section:
            alpha = _parse_float(section, key, name) * factor
            consumed.add(key)
    if alpha is None:
        raise ConfigError(f"{name}.heater_alpha_mhz_per_mw: missing key")

    if "heater_p_max_mw" not in section:
        raise ConfigError(f"{name}.heater_p_max_mw: missing key")
    p_max = _parse_float(section, "heater_p_max_mw", name)
    consumed.add("heater_p_max_mw")

    for key in section:
        if key not in consumed:
            raise ConfigError(f"{name}.{key}: unknown key")

    return RingParams(
        label=label,
        radius_um=radius_um,
        omega0=omega0,
        gamma_i=gamma_i,
        heater=HeaterModel(alpha=alpha, p_max_mw=p_max),
    )


def parse_config(text: str) -> DeviceConfig:
    """Parse config file text into an (unvalidated) DeviceConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    if "pump" not in parser:
        raise ConfigError("pump: missing section")
    pump = parser["pump"]
    if "wavelength_nm" not in pump:
        raise ConfigError("pump.wavelength_nm: missing key")
    wavelength_nm = _parse_float(pump, "wavelength_nm", "pump")
    for key in pump:
        if key != "wavelength_nm":
            raise ConfigError(f"pump.{key}: unknown key")
    if wavelength_nm <= 0:
        raise ConfigError("pump.wavelength_nm: pump wavelength must be positive")
    omega_pump = pump_angular_frequency(wavelength_nm)

    ring1 = _parse_ring(parser, "ring1", "R1", omega_pump)
    ring2 = _parse_ring(parser, "ring2", "R2", omega_pump)

    if "coupling" not in parser:
        raise ConfigError("coupling: missing section")
    coupling = parser["coupling"]
    consumed: set[str] = set()
    kappa_ext = _take_rate(coupling, "coupling", "kappa_ext", consumed)
    kappa_12 = _take_rate(coupling, "coupling", "kappa_12", consumed)
    if kappa_ext is None:
        raise ConfigError("coupling.kappa_ext_mhz: missing key")
    if kappa_12 is None:
        raise ConfigError("coupling.kappa_12_mhz: missing key")
    for key in coupling:
        if key not in consumed:
            raise ConfigError(f"coupling.{key}: unknown key")

    if "detection" not in parser:
        raise ConfigError("detection: missing section")
    stages = []
    for key in parser["detection"]:
        value = _parse_float(parser["detection"], key, "detection")
        name = key[: -len("_loss_db")] if key.endswith("_loss_db") else key
        if name in dict(stages):
            raise ConfigError(f"detection.{name}: stage given twice (as {name} and {name}_loss_db)")
        if key.endswith("_loss_db"):
            if value < 0:
                raise ConfigError(f"detection.{key}: dB loss must be non-negative")
            value = db_loss_to_efficiency(value)
        stages.append((name, value))

    for name in parser.sections():
        if name not in ("ring1", "ring2", "coupling", "detection", "pump"):
            raise ConfigError(f"{name}: unknown section")

    return DeviceConfig(
        ring1=ring1,
        ring2=ring2,
        coupling=CouplingParams(kappa_ext=kappa_ext, kappa_12=kappa_12),
        detection=DetectionChain(stages=tuple(stages)),
        pump_wavelength_nm=wavelength_nm,
    )


def load_config(path: str | Path) -> ValidatedConfig:
    """Read, parse, and validate a device configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from None
    return validate_config(parse_config(text))


