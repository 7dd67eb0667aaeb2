"""Intensity-difference squeezing of the twin beams.

Above threshold the noise of the signal/idler intensity difference,
normalized to shot noise at sideband frequency W, is

    S(W) = 1 - eta_c * eta_d / (1 + W^2 tau_c^2)

with eta_c the coupling efficiency, eta_d the detection efficiency and
tau_c the cavity photon lifetime.  S < 1 (negative dB) means squeezing.
Inference of the on-chip level divides the observed noise reduction
1 - S by eta_d, which undoes exactly the detection factor and nothing
else (the Lorentzian cavity roll-off is exposed separately).

The formulas take scalars or numpy arrays alike; S(W) itself is written
once, in squeezing_level.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .devicemodel import DeviceConfig, detection_efficiency, reject
from .supermodes import eta_c_vs_heater


def db_from_linear(s_linear):
    """Linear power ratio to dB (10*log10); scalar or array."""
    reject(np.asarray(s_linear) <= 0, s_linear, lambda s: f"linear value must be positive, got {s}")
    db = 10.0 * np.log10(s_linear)
    return float(db) if db.ndim == 0 else db


def lorentzian_rolloff(omega_tau_product):
    """Cavity bandwidth factor 1/(1 + (W*tau_c)^2)."""
    return 1.0 / (1.0 + omega_tau_product * omega_tau_product)


def squeezing_level(eta_c, eta_d, tau_c, omega_sideband):
    """Normalized noise S (linear units); every argument a scalar or an array."""
    for name, eta in (("eta_c", eta_c), ("eta_d", eta_d)):
        eta = np.asarray(eta)
        reject(~((0.0 <= eta) & (eta <= 1.0)), eta, lambda e: f"{name} must be in [0, 1], got {e}")
    reject(np.asarray(tau_c) <= 0, tau_c, lambda t: f"tau_c must be positive, got {t}")
    with np.errstate(over="ignore"):  # W*tau_c past the float range: the roll-off is 0, its limit
        rolloff = lorentzian_rolloff(omega_sideband * tau_c)
    return 1.0 - eta_c * eta_d * rolloff


def infer_onchip(s_measured_linear: float, eta_d: float, omega_tau_product: float = 0.0) -> float:
    """On-chip squeezing inferred from a measured level by removing eta_d.

    Inverts the spectrum formula: the noise reduction 1 - S scales
    linearly with eta_d, so s_onchip = 1 - (1 - s_measured)/eta_d.  The
    measured value must exceed 1 - eta_d*L(W) (with L the cavity
    roll-off at the measurement sideband), else the implied coupling
    efficiency would be above 1.
    """
    if not 0.0 < eta_d <= 1.0:
        raise ValueError(f"eta_d must be in (0, 1], got {eta_d}")
    rolloff = lorentzian_rolloff(omega_tau_product)
    floor = 1.0 - eta_d * rolloff
    if not floor < s_measured_linear <= 1.0:
        raise ValueError(
            f"measured level {s_measured_linear} outside ({floor}, 1]: "
            "would imply a coupling efficiency above 1"
        )
    return 1.0 - (1.0 - s_measured_linear) / eta_d


class CouplingSweep(NamedTuple):
    """Columns of a squeezing sweep, one entry per heater grid point."""

    eta_c: np.ndarray
    s_measured_db: np.ndarray
    s_onchip_db: np.ndarray
    omega_sideband_hz: float
    tau_c_s: np.ndarray


def squeezing_vs_coupling(
    config: DeviceConfig,
    branch: str,
    p1_grid_mw,
    p2_mw: float,
    omega_sideband: float,
) -> CouplingSweep:
    """Measured and on-chip squeezing along a heater sweep of one branch.

    The measured column uses the config's composite detection efficiency,
    the on-chip column eta_d = 1; both levels fall (more squeezing) as the
    sweep raises eta_c, since the photon lifetime shortens together with
    the rising external coupling.
    """
    eta_d = detection_efficiency(config.detection)
    sol = eta_c_vs_heater(config, branch, p1_grid_mw, p2_mw)
    return CouplingSweep(
        eta_c=sol.eta_c,
        s_measured_db=db_from_linear(squeezing_level(sol.eta_c, eta_d, sol.tau_c, omega_sideband)),
        s_onchip_db=db_from_linear(squeezing_level(sol.eta_c, 1.0, sol.tau_c, omega_sideband)),
        omega_sideband_hz=omega_sideband / (2.0 * math.pi),
        tau_c_s=sol.tau_c,
    )
