"""Physical parameters, unit conventions, and validated device configuration.

All frequencies and rates are stored internally as *angular* quantities in
rad/s, and all loss/coupling rates are *energy* (photon-number) decay rates;
the corresponding field-amplitude rates are half as large.  Configuration
files and the CLI accept values with explicit unit suffixes (``_mhz``,
``_ghz``, ``_rad_s``, ``_nm``, ``_mw``, ``_loss_db``) and are
converted exactly once, at ingestion.  dB always means ``10*log10`` of a
power ratio.

Config file schema (INI syntax, ``#`` comments)::

    [ring1]                    # identically for [ring2]
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

Values are literal: a ``%`` is an ordinary character, with no
interpolation.  A key that is not in the schema, a key or section given
twice, and one field given under two unit suffixes are all refused.
Parse and validation errors name the offending key with its full dotted
path.  A ``DeviceConfig`` checks its physical invariants when it is
built, so every config that exists is valid, however it was made.
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

# The keys of the fixed-key sections: {field: ((unit suffix, factor to
# internal units), ...)}; a key is a field name plus one of its suffixes,
# and a missing field is named with its first suffix.
_RATE = (("_mhz", _TWO_PI * 1e6), ("_rad_s", 1.0), ("_ghz", _TWO_PI * 1e9))
_AS_GIVEN = (("", 1.0),)
_RING_FIELDS = {
    "omega0": _RATE,
    "omega0_offset": _RATE,
    "gamma_i": _RATE,
    "heater_alpha": (("_mhz_per_mw", _TWO_PI * 1e6), ("_rad_s_per_mw", 1.0)),
    "heater_p_max_mw": _AS_GIVEN,
}
_COUPLING_FIELDS = {"kappa_ext": _RATE, "kappa_12": _RATE}
_PUMP_FIELDS = {"wavelength_nm": _AS_GIVEN}


@dataclass(frozen=True)
class RingParams:
    """One microring: cold resonance, intrinsic loss, heater.

    heater_alpha is the rad/s of resonance shift per mW of heater power;
    a positive value red-shifts (lowers) the resonance as the power rises.
    """

    omega0: float           # resonance at zero heater power, rad/s
    gamma_i: float          # intrinsic energy decay rate, rad/s
    heater_alpha: float     # rad/s per mW
    heater_p_max_mw: float  # maximum allowed heater power, mW


@dataclass(frozen=True)
class DeviceConfig:
    """Complete physical description of the double-ring device.

    kappa_ext is the bus <-> ring1 external energy decay rate and kappa_12
    the inter-ring coupling coefficient (half the minimum supermode
    splitting), both rad/s; detection is the ordered chain of detection
    stages as (name, power efficiency) pairs.  Building one checks every
    invariant; ConfigError names the first violated field.
    """

    ring1: RingParams
    ring2: RingParams
    kappa_ext: float
    kappa_12: float
    detection: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for path, ring in (("ring1", self.ring1), ("ring2", self.ring2)):
            _positive(ring.omega0, f"{path}.omega0", "resonance frequency must be positive")
            _positive(ring.gamma_i, f"{path}.gamma_i", "intrinsic loss must be positive")
            _require(math.isfinite(ring.heater_alpha), f"{path}.heater_alpha", "tuning coefficient must be finite")
            _positive(ring.heater_p_max_mw, f"{path}.heater_p_max_mw", "maximum heater power must be positive")
        _positive(self.kappa_ext, "coupling.kappa_ext", "external coupling rate must be positive")
        _positive(self.kappa_12, "coupling.kappa_12", "inter-ring coupling must be positive")
        _require(len(self.detection) > 0, "detection", "at least one detection stage required")
        for name, eff in self.detection:
            _require(
                math.isfinite(eff) and 0.0 < eff <= 1.0,
                f"detection.{name}",
                f"stage efficiency must be in (0, 1], got {eff!r}",
            )


def db_loss_to_efficiency(loss_db: float) -> float:
    """Convert a power loss in dB to a transmission efficiency."""
    return 10.0 ** (-loss_db / 10.0)


def pump_angular_frequency(wavelength_nm: float) -> float:
    """Angular frequency (rad/s) of light at the given vacuum wavelength."""
    return _TWO_PI * C_VACUUM / (wavelength_nm * 1e-9)


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _positive(value: float, path: str, message: str) -> None:
    _require(math.isfinite(value) and value > 0, path, message)


def reject(bad, values, message, error=ValueError) -> None:
    """Raise error(message(first)) when the mask `bad` has a set position,
    with `first` the entry of `values` at the first one (flat order) as a
    Python scalar.

    Lets a check over a whole grid name the value a loop over the grid
    would have stopped at.
    """
    bad = np.asarray(bad)
    if bad.any():
        raise error(message(np.broadcast_to(values, bad.shape).flat[int(np.argmax(bad))].item()))


def readonly_array(values) -> np.ndarray:
    """A float copy of `values` that cannot be written to, for the array
    fields of frozen result types."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def ring_frequency(ring: RingParams, power_mw):
    """Heater-shifted resonance frequency of one ring, rad/s: positive power
    red-shifts it to omega0 - alpha*power.  power_mw is a scalar or an
    array; out of range, the error names the first offending power."""
    p_max = ring.heater_p_max_mw
    power = np.asarray(power_mw)
    reject(~((0.0 <= power) & (power <= p_max)), power, lambda p: f"heater power {p} mW outside [0, {p_max}] mW")
    return ring.omega0 + -ring.heater_alpha * power_mw


def detection_efficiency(stages: tuple[tuple[str, float], ...]) -> float:
    """Composite detection efficiency: product of the stage efficiencies."""
    return math.prod(eff for _, eff in stages)


# --- config file parsing ----------------------------------------------------


def _parse_float(section: configparser.SectionProxy, key: str, path: str) -> float:
    raw = section[key]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{path}.{key}: not a number: {raw!r}") from None


def _read_section(parser: configparser.ConfigParser, name: str, fields: dict, optional=()) -> dict:
    """{field: value in internal units} of the fixed-key section `name`;
    `fields` maps each field to its accepted (unit suffix, factor) pairs.
    A field not given is missing, unless it is `optional` (then None)."""
    if name not in parser:
        raise ConfigError(f"{name}: missing section")
    section = parser[name]
    known = {field + suffix for field, units in fields.items() for suffix, _ in units}
    for key in section:
        if key not in known:
            raise ConfigError(f"{name}.{key}: unknown key")
    values = dict.fromkeys(fields)
    for field, units in fields.items():
        for suffix, factor in units:
            key = field + suffix
            if key in section:
                if values[field] is not None:
                    raise ConfigError(f"{name}.{key}: duplicate unit variants for {field}")
                values[field] = _parse_float(section, key, name) * factor
        if values[field] is None and field not in optional:
            raise ConfigError(f"{name}.{field}{units[0][0]}: missing key")
    return values


def _parse_ring(parser: configparser.ConfigParser, name: str, omega_pump: float) -> RingParams:
    ring = _read_section(parser, name, _RING_FIELDS, optional=("omega0", "omega0_offset"))
    omega0, offset = ring["omega0"], ring.pop("omega0_offset")
    _require(
        omega0 is None or offset is None,
        f"{name}.omega0_rad_s",
        "give omega0 either absolute or as a pump offset, not both",
    )
    _require(omega0 is not None or offset is not None, f"{name}.omega0_offset_mhz", "missing key (or omega0_rad_s)")
    if omega0 is None:
        ring["omega0"] = omega_pump + offset
    return RingParams(**ring)


def _syntax_error(text: str, line_number: int, problem: str) -> str:
    line = text.split("\n")[line_number - 1].strip()
    return f"config syntax: line {line_number}: {problem}: {line!r}"


def _folded_line(text: str) -> int | None:
    """Number of the first line configparser took as a continuation: an
    indented line below a key line, blank and comment lines skipped."""
    key_indent = None  # indentation of the last key line; None after a header
    for number, line in enumerate(text.split("\n"), 1):
        content = line.strip()
        if not content or content.startswith(("#", ";")):
            continue
        indent = len(line) - len(line.lstrip())
        if key_indent is not None and indent > key_indent:
            return number
        key_indent = None if content.startswith("[") else indent
    return None


def parse_config(text: str) -> DeviceConfig:
    """Parse config file text into a DeviceConfig."""
    # No header can name an empty section, so [DEFAULT] is an ordinary (unknown) section.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"{exc.section}.{exc.option}: duplicate key") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"{exc.section}: duplicate section") from None
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(_syntax_error(text, exc.lineno, "outside any section")) from None
    except configparser.ParsingError as exc:
        raise ConfigError(_syntax_error(text, exc.errors[0][0], "not a key = value line")) from None
    folded = _folded_line(text)
    if folded is not None:
        raise ConfigError(_syntax_error(text, folded, "indented line"))

    wavelength_nm = _read_section(parser, "pump", _PUMP_FIELDS)["wavelength_nm"]
    _positive(wavelength_nm, "pump.wavelength_nm", "pump wavelength must be positive")
    omega_pump = pump_angular_frequency(wavelength_nm)

    ring1 = _parse_ring(parser, "ring1", omega_pump)
    ring2 = _parse_ring(parser, "ring2", omega_pump)

    coupling = _read_section(parser, "coupling", _COUPLING_FIELDS)

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

    return DeviceConfig(ring1, ring2, **coupling, detection=tuple(stages))


def load_config(path: str | Path) -> DeviceConfig:
    """Read and parse a device configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from None
    return parse_config(text)
