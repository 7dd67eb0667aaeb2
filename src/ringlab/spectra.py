"""Steady-state bus transmission of the driven two-ring system.

Coupled-mode model for a probe at angular frequency w (rates are energy
rates; /2 converts to amplitude rates)::

    (i(w - w1') - gamma1/2 - kappa_ext/2) a1 + i k12 a2 + sqrt(kappa_ext) s_in = 0
    (i(w - w2') - gamma2/2)               a2 + i k12 a1                        = 0
    s_out = s_in - sqrt(kappa_ext) a1

where w1', w2' are the heater-shifted ring resonances.  The observable
|s_out/s_in|^2 is insensitive to the overall phase convention.  On a
well-resolved dip the on-resonance minimum encodes the coupling
efficiency through eta_c = (1 +- sqrt(T_min))/2, + for overcoupled
(eta_c > 0.5), - for undercoupled; the sign is resolved by the model via
classify_regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .devicemodel import DeviceConfig, first_flagged, readonly_array, ring_frequency
from .supermodes import solve_both

REGIME_OVERCOUPLED = "overcoupled"
REGIME_UNDERCOUPLED = "undercoupled"
REGIME_INDETERMINATE = "indeterminate"

DIP_THRESHOLD = 0.99       # local minima above this are not dips
PASSIVITY_EPS = 1e-9       # rounding allowance on t_power <= 1
OVERLAP_FACTOR = 3.0       # dips closer than this many max-fwhm overlap


@dataclass(frozen=True)
class TransmissionTrace:
    """Sampled power transmission |T(w)|^2 on a strictly increasing grid."""

    omega_grid: np.ndarray
    t_power: np.ndarray

    def __post_init__(self):
        omega = readonly_array(self.omega_grid)
        t = readonly_array(self.t_power)
        if omega.ndim != 1 or omega.size == 0 or omega.shape != t.shape:
            raise ValueError("trace requires matching non-empty 1-d arrays")
        if not np.all(np.isfinite(omega)) or np.any(np.diff(omega) <= 0):
            raise ValueError("omega grid must be finite and strictly increasing")
        if not np.all(np.isfinite(t)) or t.min() < 0.0 or t.max() > 1.0 + PASSIVITY_EPS:
            raise ValueError("t_power must be finite and within [0, 1 + 1e-9]")
        object.__setattr__(self, "omega_grid", omega)
        object.__setattr__(self, "t_power", t)


@dataclass(frozen=True)
class TransmissionDip:
    """One resonance dip extracted from a trace.

    classify_regime resolves the sign of its T_min formula; overlapping
    dips (separation under 3x the wider fwhm) are flagged, and their
    regime is indeterminate.
    """

    omega_center: float
    t_min: float
    fwhm: float
    overlapping: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.t_min <= 1.0:
            raise ValueError(f"t_min must be in [0, 1], got {self.t_min}")
        if not self.fwhm > 0.0:
            raise ValueError(f"fwhm must be positive, got {self.fwhm}")


def bus_transmission(omega, omega1, omega2, gamma1, gamma2, kappa_ext, kappa_12):
    """Power transmission of the coupled-mode model; omega may be an array.

    kappa_12 = 0 is allowed here (decoupled single-ring limit); configs
    themselves always carry kappa_12 > 0.  A probe frequency so far from
    the resonances that the transmission is not finite is a ValueError.
    """
    w = np.asarray(omega, dtype=float)
    d1 = 1j * (w - omega1) - 0.5 * (gamma1 + kappa_ext)
    d2 = 1j * (w - omega2) - 0.5 * gamma2
    # far out d1*d2 overflows to inf, which gives the exact limit T = 1;
    # farther out kappa_ext*d2 overflows too, and inf/inf leaves T not finite
    with np.errstate(over="ignore", invalid="ignore"):
        s_out = 1.0 + kappa_ext * d2 / (d1 * d2 + kappa_12 * kappa_12)
    t = np.abs(s_out) ** 2
    bad = ~np.isfinite(t)
    if bad.any():
        raise ValueError("probe grid too far from the resonances: transmission not finite "
                         f"at omega = {first_flagged(bad, w)!r} rad/s")
    return float(t) if np.isscalar(omega) else t


def compute_trace(config: DeviceConfig, p1_mw: float, p2_mw: float, omega_grid) -> TransmissionTrace:
    """Sample the model transmission on the given frequency grid."""
    grid = np.asarray(omega_grid, dtype=float)
    ring1, ring2 = config.ring1, config.ring2
    t = bus_transmission(grid, ring_frequency(ring1, p1_mw), ring_frequency(ring2, p2_mw),
                         ring1.gamma_i, ring2.gamma_i, config.kappa_ext, config.kappa_12)
    return TransmissionTrace(omega_grid=grid, t_power=np.minimum(t, 1.0 + PASSIVITY_EPS))


def default_scan_grid(config: DeviceConfig, p1_mw: float, p2_mw: float,
                      margin_linewidths: float, n_points: int) -> np.ndarray:
    """Frequency grid covering both supermode dips with margin on each side."""
    upper, lower = solve_both(config, p1_mw, p2_mw)
    width = max(1.0 / upper.tau_c, 1.0 / lower.tau_c)
    lo = lower.omega - margin_linewidths * width
    hi = upper.omega + margin_linewidths * width
    return np.linspace(lo, hi, n_points)


def _quadratic_vertex(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Vertex of the parabola through three samples y0 > y1 <= y2 of a trace
    (all >= 0), the only triples find_dips passes.  Its denominator is then
    positive in floating point: for y0 <= 4*y1, Sterbenz's lemma makes y0 - 2*y1 exact,
    so the sum is the rounded positive (y0 - y1) + (y2 - y1); for y0 > 4*y1
    the difference already rounds positive and adding y2 keeps it so."""
    denom = y[0] - 2.0 * y[1] + y[2]
    h = 0.5 * (x[2] - x[0])
    shift = 0.5 * (y[0] - y[2]) / denom
    center = x[1] + shift * h
    value = y[1] - 0.125 * (y[0] - y[2]) ** 2 / denom
    return float(center), float(value)


def _half_crossing(omega: np.ndarray, t: np.ndarray, i_min: int, level: float, direction: int) -> float | None:
    """Where t first rises through `level` going from the interior sample
    i_min in `direction` (-1 or +1), by linear interpolation between the
    first sample at or above `level` and the one before it; None if no
    sample on that side reaches it."""
    side = t[i_min + 1:] if direction > 0 else t[i_min - 1::-1]
    reached = side >= level
    k = int(np.argmax(reached))
    if not reached[k]:
        return None
    j = i_min + direction * (k + 1)
    i = j - direction
    if t[j] == t[i]:
        return float(omega[j])
    frac = (level - t[i]) / (t[j] - t[i])
    return float(omega[i] + frac * (omega[j] - omega[i]))


def find_dips(trace: TransmissionTrace, threshold: float = DIP_THRESHOLD) -> list[TransmissionDip]:
    """Locate and refine resonance dips in a transmission trace.

    Local minima below `threshold` are refined by a 3-point quadratic fit;
    the fwhm comes from the half-depth crossings relative to a baseline
    of 1 (model traces are normalized to a far-detuned plateau of 1).  Dips
    whose half-depth crossings fall outside the trace are dropped; dips
    separated by less than 3x the wider fwhm are flagged as overlapping.
    An empty list (flat trace) is not an error.
    """
    omega = trace.omega_grid
    t = trace.t_power
    mid = t[1:-1]
    # below threshold and no higher than either neighbour; on a plateau only its first sample
    candidates = np.flatnonzero((mid < threshold) & (mid < t[:-2]) & (mid <= t[2:])) + 1
    found = []
    for i in candidates.tolist():
        center, t_min = _quadratic_vertex(omega[i - 1 : i + 2], t[i - 1 : i + 2])
        t_min = max(t_min, 0.0)
        level = 0.5 * (1.0 + t_min)
        left = _half_crossing(omega, t, i, level, -1)
        right = _half_crossing(omega, t, i, level, +1)
        if left is not None and right is not None:
            found.append((center, t_min, right - left))
    found.sort(key=lambda dip: dip[0])
    center, _, fwhm = np.array(found).reshape(-1, 3).T
    close = np.diff(center) < OVERLAP_FACTOR * np.maximum(fwhm[:-1], fwhm[1:])
    overlapping = np.append(close, False) | np.insert(close, 0, False)
    return [TransmissionDip(*dip, overlapping=flag) for dip, flag in zip(found, overlapping.tolist())]


def eta_c_from_tmin(t_min: float, regime: str) -> float:
    """Coupling efficiency from a normalized on-resonance transmission minimum.

    eta_c = (1 + sqrt(t_min))/2 if overcoupled, (1 - sqrt(t_min))/2 if
    undercoupled; the regime must be stated because the map is two-valued.
    """
    if not 0.0 <= t_min <= 1.0:
        raise ValueError(f"t_min must be in [0, 1], got {t_min}")
    root = math.sqrt(t_min)
    if regime == REGIME_OVERCOUPLED:
        return 0.5 * (1.0 + root)
    if regime == REGIME_UNDERCOUPLED:
        return 0.5 * (1.0 - root)
    raise ValueError(f"regime must be '{REGIME_OVERCOUPLED}' or '{REGIME_UNDERCOUPLED}', got {regime!r}")


def classify_regime(config: DeviceConfig, heater: tuple[float, float], dip: TransmissionDip) -> str:
    """Resolve a dip's coupling regime from the device model.

    The dip is matched to the supermode branch nearest in frequency (it
    must lie within one fwhm); the branch is overcoupled iff its external
    rate exceeds its intrinsic rate.  Exact equality classifies as
    undercoupled (documented tie-break).
    """
    p1, p2 = heater
    branches = solve_both(config, p1, p2)
    sol = min(branches, key=lambda s: abs(s.omega - dip.omega_center))
    if abs(sol.omega - dip.omega_center) > dip.fwhm:
        raise ValueError(
            f"no supermode branch within one fwhm of dip at {dip.omega_center!r} rad/s"
        )
    return REGIME_OVERCOUPLED if sol.kappa_eff > sol.gamma_eff else REGIME_UNDERCOUPLED
