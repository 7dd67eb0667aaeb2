"""Supermodes of the coupled two-ring system.

Diagonalizes the 2x2 Hermitian coupling matrix [[w1, k12], [k12, w2]] to get
the avoided-crossing branch frequencies

    w_pm = (w1 + w2)/2 +- sqrt(((w1 - w2)/2)**2 + k12**2)

and the normalized energy fractions |c1|^2, |c2|^2 of each branch in the two
rings.  Because only ring 1 touches the bus waveguide, a branch couples to
the bus in proportion to its ring-1 fraction, which is what makes the
coupling efficiency heater-tunable: on the lower branch the light migrates
from ring 2 (ring 1 blue of ring 2) to ring 1 (ring 1 red of ring 2) as the
ring-1 heater power increases.

Losses are not included in the eigenproblem; they enter perturbatively via
effective_rates, weighting each ring's rate by the branch's energy fraction
in that ring.

Every function here takes scalars or numpy arrays alike: a heater sweep is
one array evaluation, and its results are arrays with one entry per grid
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devicemodel import DeviceConfig, ring_frequency

BRANCH_UPPER = "upper"
BRANCH_LOWER = "lower"


@dataclass(frozen=True)
class SupermodeSolution:
    """One supermode branch at one heater setting, or along a heater grid.

    frac1 is the branch's energy fraction in ring 1, the ring on the bus;
    kappa_eff and gamma_eff are the branch's external and intrinsic energy
    decay rates; eta_c = kappa_eff/(kappa_eff + gamma_eff) is the coupling
    efficiency and tau_c = 1/(kappa_eff + gamma_eff) the photon lifetime.
    Fields are floats for scalar heater powers and arrays for a grid.
    """

    omega: float | np.ndarray
    frac1: float | np.ndarray
    kappa_eff: float | np.ndarray
    gamma_eff: float | np.ndarray
    eta_c: float | np.ndarray
    tau_c: float | np.ndarray


def _float_or_array(values):
    values = np.asarray(values, dtype=float)
    return float(values) if values.ndim == 0 else values


def crossing_geometry(omega1, omega2, kappa_12):
    """(mean, delta, radius) of the 2x2 problem: the branches sit at
    mean +- radius, with delta = (w1 - w2)/2 and radius = hypot(delta, k12).

    kappa_12 is not checked: the crossing fit may step through
    kappa_12 <= 0, which the branches see only through its square.
    """
    delta = 0.5 * (omega1 - omega2)
    return 0.5 * (omega1 + omega2), delta, _float_or_array(np.hypot(delta, kappa_12))


def _ring1_fraction(delta, radius, kappa_12: float, branch: str):
    """Ring-1 energy fraction of one branch, from crossing_geometry's
    delta and radius.

    Eigenvectors of [[w1, k12], [k12, w2]]: the lower branch is
    proportional to (-k12, delta + R) with delta = (w1 - w2)/2 and
    R = sqrt(delta^2 + k12^2), so its ring-1 fraction goes to 1 for
    w1 << w2 and to 0 for w1 >> w2; the upper branch is the orthogonal
    complement.  delta + R is evaluated as k12^2/(R - delta) for
    delta < 0 to avoid cancellation.
    """
    k2 = kappa_12 * kappa_12
    # R + |delta| is R - delta where it is selected, and never 0 elsewhere
    t = np.where(delta < 0.0, k2 / (radius + np.abs(delta)), delta + radius)
    t2 = t * t
    return _float_or_array((t2 if branch == BRANCH_UPPER else k2) / (k2 + t2))


def effective_rates(frac1, kappa_ext: float, gamma1: float, gamma2: float):
    """Branch rates (kappa_eff, gamma_eff, eta_c, tau_c) from the branch's
    ring-1 fraction; the rest of its energy is in ring 2.

    Only ring 1 couples to the bus, so kappa_eff = frac1*kappa_ext; the
    intrinsic rate is the fraction-weighted average of the ring rates.
    """
    if not all(0.0 < rate < np.inf for rate in (kappa_ext, gamma1, gamma2)):  # nan fails both
        raise ValueError("rates must be positive")
    kappa_eff = frac1 * kappa_ext
    gamma_eff = frac1 * gamma1 + (1.0 - frac1) * gamma2
    total = kappa_eff + gamma_eff
    return kappa_eff, gamma_eff, kappa_eff / total, 1.0 / total


def solve_branch(config: DeviceConfig, p1_mw, p2_mw, branch: str) -> SupermodeSolution:
    """Full supermode solution for one branch at one heater setting or a grid.

    Heater powers are scalars or arrays; a power out of range raises,
    naming the first such value in grid order (ring 1 before ring 2).
    """
    if branch not in (BRANCH_UPPER, BRANCH_LOWER):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    kappa_12 = config.kappa_12  # positive: DeviceConfig checks it
    mean, delta, radius = crossing_geometry(
        ring_frequency(config.ring1, p1_mw), ring_frequency(config.ring2, p2_mw), kappa_12
    )
    frac1 = _ring1_fraction(delta, radius, kappa_12, branch)
    rates = effective_rates(frac1, config.kappa_ext, config.ring1.gamma_i, config.ring2.gamma_i)
    return SupermodeSolution(mean + radius if branch == BRANCH_UPPER else mean - radius, frac1, *rates)


def solve_both(config: DeviceConfig, p1_mw, p2_mw) -> tuple[SupermodeSolution, SupermodeSolution]:
    """(upper, lower) supermode solutions (see solve_branch)."""
    return solve_branch(config, p1_mw, p2_mw, BRANCH_UPPER), solve_branch(config, p1_mw, p2_mw, BRANCH_LOWER)


def eta_c_vs_heater(config: DeviceConfig, branch: str, p1_grid_mw, p2_mw: float) -> SupermodeSolution:
    """Coupling-efficiency sweep along one branch versus ring-1 heater power.

    One array evaluation of the heater map, the eigenproblem and the
    effective rates; the returned fields are columns over the grid.
    """
    return solve_branch(config, np.asarray(p1_grid_mw, dtype=float), p2_mw, branch)
