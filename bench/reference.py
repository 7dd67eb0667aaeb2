"""Independent reference computations and output checks.

Nothing here imports ringlab.  The device file is read with a small INI
reader of its own and converted to rad/s here; every physical quantity is
then recomputed by a different route from the program's:

- supermodes from ``numpy.linalg.eigh`` of stacked, mean-shifted 2x2
  matrices (the program uses the closed-form branch formulas);
- S(W) = 1 - eta_c*eta_d/(1 + W^2 tau_c^2) in closed form from those rates;
- bus transmission from a 2x2 complex linear solve of the coupled-mode
  equations (the program uses the eliminated closed form);
- the Langevin spectrum against the continuous Lorentzian built from the
  rates in the output header.

Each check raises CheckFailed naming the file, column and row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
C_VACUUM = 299792458.0  # m/s
MHZ = TWO_PI * 1e6

# Relative tolerances against the reference.  Each sits several orders of
# magnitude above the largest deviation seen between program and reference
# and below a change in the 8th significant digit of any cell.
RTOL_OMEGA = 1e-13      # absolute frequencies near 1.2e15 rad/s
RTOL = 1e-11            # rates, efficiencies, lifetimes, S(W), dB
ATOL_T = 1e-11          # transmission, an absolute power ratio in [0, 1]

LANGEVIN_BOUND_DB = 0.2
SHOT_CAL_MIN_R2 = 0.999
DIP_ETA_TOL = 0.02


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


# --- device file ---------------------------------------------------------------


def read_ini(text: str) -> dict[str, dict[str, str]]:
    """Sections of INI text as {section: {key: raw value}}; '#' starts a comment."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
            continue
        key, sep, value = line.partition("=")
        if current is None or not sep:
            raise ValueError(f"not an INI assignment: {raw!r}")
        current[key.strip().lower()] = value.strip()
    return sections


_RATE_UNITS = {"_rad_s": 1.0, "_mhz": MHZ, "_ghz": TWO_PI * 1e9}
_SLOPE_UNITS = {"_mhz_per_mw": MHZ, "_rad_s_per_mw": 1.0}


def _with_unit(section: dict[str, str], base: str, units: dict[str, float]) -> float | None:
    for suffix, factor in units.items():
        if base + suffix in section:
            return float(section[base + suffix]) * factor
    return None


@dataclass(frozen=True)
class Device:
    """The device file in rad/s and energy rates."""

    omega_pump: float
    omega1_0: float
    omega2_0: float
    alpha1: float      # rad/s of red shift per mW
    alpha2: float
    gamma1: float
    gamma2: float
    kappa_ext: float
    kappa_12: float
    stages: tuple[tuple[str, float], ...]

    @property
    def eta_d(self) -> float:
        return math.prod(eff for _, eff in self.stages)


def pump_omega(wavelength_nm: float) -> float:
    return TWO_PI * C_VACUUM / (wavelength_nm * 1e-9)


def read_device(text: str) -> Device:
    ini = read_ini(text)
    omega_pump = pump_omega(float(ini["pump"]["wavelength_nm"]))

    def ring(name):
        section = ini[name]
        omega0 = _with_unit(section, "omega0", _RATE_UNITS)
        if omega0 is None:
            omega0 = omega_pump + _with_unit(section, "omega0_offset", _RATE_UNITS)
        return omega0, _with_unit(section, "heater_alpha", _SLOPE_UNITS), _with_unit(section, "gamma_i", _RATE_UNITS)

    omega1_0, alpha1, gamma1 = ring("ring1")
    omega2_0, alpha2, gamma2 = ring("ring2")
    stages = []
    for key, value in ini["detection"].items():
        if key.endswith("_loss_db"):
            stages.append((key[: -len("_loss_db")], 10.0 ** (-float(value) / 10.0)))
        else:
            stages.append((key, float(value)))
    return Device(
        omega_pump=omega_pump,
        omega1_0=omega1_0,
        omega2_0=omega2_0,
        alpha1=alpha1,
        alpha2=alpha2,
        gamma1=gamma1,
        gamma2=gamma2,
        kappa_ext=_with_unit(ini["coupling"], "kappa_ext", _RATE_UNITS),
        kappa_12=_with_unit(ini["coupling"], "kappa_12", _RATE_UNITS),
        stages=tuple(stages),
    )


# --- physics -------------------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    omega: np.ndarray
    frac1: np.ndarray
    kappa_eff: np.ndarray
    gamma_eff: np.ndarray

    @property
    def gamma_total(self) -> np.ndarray:
        return self.kappa_eff + self.gamma_eff

    @property
    def eta_c(self) -> np.ndarray:
        return self.kappa_eff / self.gamma_total

    @property
    def tau_c(self) -> np.ndarray:
        return 1.0 / self.gamma_total


def ring_omegas(dev: Device, p1, p2) -> tuple[np.ndarray, np.ndarray]:
    p1, p2 = np.broadcast_arrays(np.asarray(p1, dtype=float), np.asarray(p2, dtype=float))
    return dev.omega1_0 - dev.alpha1 * p1, dev.omega2_0 - dev.alpha2 * p2


def supermodes(dev: Device, p1, p2) -> dict[str, Branch]:
    """Both branches from eigh of [[w1, k12], [k12, w2]] shifted by its mean."""
    w1, w2 = ring_omegas(dev, p1, p2)
    mean = 0.5 * (w1 + w2)
    h = np.empty(w1.shape + (2, 2))
    h[..., 0, 0] = w1 - mean
    h[..., 1, 1] = w2 - mean
    h[..., 0, 1] = h[..., 1, 0] = dev.kappa_12
    values, vectors = np.linalg.eigh(h)
    branches = {}
    for column, name in ((0, "lower"), (1, "upper")):
        frac1 = vectors[..., 0, column] ** 2
        frac2 = vectors[..., 1, column] ** 2
        branches[name] = Branch(
            omega=mean + values[..., column],
            frac1=frac1,
            kappa_eff=frac1 * dev.kappa_ext,
            gamma_eff=frac1 * dev.gamma1 + frac2 * dev.gamma2,
        )
    return branches


def squeezing(eta_c, eta_d, tau_c, omega_sideband):
    """S(W) in shot-noise units."""
    wt = np.asarray(omega_sideband) * tau_c
    return 1.0 - eta_c * eta_d / (1.0 + wt * wt)


def db(x):
    return 10.0 * np.log10(x)


def transmission(dev: Device, p1: float, p2: float, omega) -> np.ndarray:
    """|s_out/s_in|^2 from solving the coupled-mode equations point by point."""
    omega = np.asarray(omega, dtype=float)
    w1, w2 = ring_omegas(dev, p1, p2)
    k = dev.kappa_12
    m = np.empty(omega.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = 1j * (omega - w1) - 0.5 * (dev.gamma1 + dev.kappa_ext)
    m[..., 0, 1] = m[..., 1, 0] = 1j * k
    m[..., 1, 1] = 1j * (omega - w2) - 0.5 * dev.gamma2
    drive = np.zeros(omega.shape + (2, 1), dtype=complex)
    drive[..., 0, 0] = -math.sqrt(dev.kappa_ext)
    a1 = np.linalg.solve(m, drive)[..., 0, 0]
    return np.abs(1.0 - math.sqrt(dev.kappa_ext) * a1) ** 2


def lorentzian_psd(kappa_eff: float, gamma_total: float, freq_hz) -> np.ndarray:
    """Continuous output PSD of the pump-clamped difference quadrature."""
    w = TWO_PI * np.asarray(freq_hz) / gamma_total
    return 1.0 - (kappa_eff / gamma_total) / (1.0 + w * w)


def range_grid(start: float, stop: float, n: int) -> tuple[str, np.ndarray]:
    """A start:stop:step flag with n points ending on stop, and its grid."""
    step = (stop - start) / (n - 1)
    return f"{start!r}:{stop!r}:{step!r}", start + step * np.arange(n)


# --- reading outputs -------------------------------------------------------------


@dataclass
class Table:
    path: str
    comments: list[str]
    header: list[str]
    rows: list[list[str]]

    def column(self, name: str) -> np.ndarray:
        j = self.header.index(name)
        try:
            return np.array([float(row[j]) for row in self.rows])
        except ValueError as exc:
            raise CheckFailed(f"{self.path}: column {name!r}: {exc}") from None

    def strings(self, name: str) -> list[str]:
        j = self.header.index(name)
        return [row[j] for row in self.rows]


def read_table(path, header: list[str], n_rows: int | None = None) -> Table:
    comments, lines = [], []
    try:
        with open(path, encoding="utf-8") as stream:
            text = stream.read()
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    for line in text.splitlines():
        (comments if line.startswith("#") else lines).append(line)
    if not lines or lines[0].split(",") != header:
        raise CheckFailed(f"{path}: header {lines[:1]} is not {header}")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CheckFailed(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
    if n_rows is not None and len(rows) != n_rows:
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {n_rows}")
    return Table(str(path), [c[1:].strip() for c in comments], header, rows)


def count_rows(path) -> int:
    """Data rows of a CSV file: lines that are neither comments nor the header."""
    with open(path, encoding="utf-8") as stream:
        return sum(1 for line in stream if line.strip() and not line.startswith("#")) - 1


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(table: Table, name: str, want, rtol: float, atol: float = 0.0) -> np.ndarray:
    got = table.column(name)
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    bad = np.flatnonzero(~(np.abs(got - want) <= rtol * np.abs(want) + atol))
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(
            f"{table.path}: column {name!r} row {i + 2}: {float(got[i])!r} != reference {float(want[i])!r} "
            f"({bad.size} cells off)"
        )
    return got
