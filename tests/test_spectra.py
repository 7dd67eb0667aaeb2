"""Transmission model, dip extraction, T_min -> eta_c."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ringlab.devicemodel import ring_frequency
from ringlab.spectra import (
    REGIME_INDETERMINATE,
    REGIME_OVERCOUPLED,
    REGIME_UNDERCOUPLED,
    TransmissionDip,
    TransmissionTrace,
    bus_transmission,
    classify_regime,
    compute_trace,
    eta_c_from_tmin,
    find_dips,
)
from ringlab.supermodes import solve_branch, solve_both

MHZ = 2.0 * math.pi * 1e6


def lorentzian_trace(omega0, t_min, fwhm, span_fwhm=8.0, points_per_fwhm=250.0):
    n = int(span_fwhm * points_per_fwhm) | 1
    omega = omega0 + np.linspace(-0.5, 0.5, n) * span_fwhm * fwhm + 0.37 * fwhm / points_per_fwhm
    t = 1.0 - (1.0 - t_min) / (1.0 + 4.0 * (omega - omega0) ** 2 / fwhm**2)
    return TransmissionTrace(omega_grid=omega, t_power=t)


# --- transmission model ---------------------------------------------------------


def test_single_ring_critical_coupling():
    gamma = 2.0 * MHZ
    assert bus_transmission(1e15, 1e15, 9e14, gamma, gamma, gamma, 0.0) == pytest.approx(0.0, abs=1e-25)


def test_far_off_resonance_transmission_is_unity(cfg):
    omega = solve_branch(cfg, 25.0, 10.0, "upper").omega + 1e12  # detuned by >> all rates
    assert compute_trace(cfg, 25.0, 10.0, [omega]).t_power[0] == pytest.approx(1.0, abs=1e-5)


def test_symmetric_point_matches_single_mode_minimum(cfg):
    # at the crossing each dip behaves as one mode with kappa_ext/2 and the
    # mean intrinsic rate; compare the exact trace minimum to that formula
    upper, _ = solve_both(cfg, 25.0, 10.0)
    t_two_ring = compute_trace(cfg, 25.0, 10.0, [upper.omega]).t_power[0]
    kappa_eff = 0.5 * cfg.kappa_ext
    gamma_eff = 0.5 * (cfg.ring1.gamma_i + cfg.ring2.gamma_i)
    t_single = ((gamma_eff - kappa_eff) / (gamma_eff + kappa_eff)) ** 2
    assert t_two_ring == pytest.approx(t_single, rel=0.05)


def test_symmetric_point_even_in_probe_detuning(cfg):  # cfg has gamma1 == gamma2
    omega1 = solve_branch(cfg, 25.0, 10.0, "upper").omega
    omega2 = solve_branch(cfg, 25.0, 10.0, "lower").omega
    center = 0.5 * (omega1 + omega2)
    for x in np.linspace(0.1, 5.0, 7) * cfg.kappa_12:
        left, right = compute_trace(cfg, 25.0, 10.0, [center - x, center + x]).t_power
        assert left == pytest.approx(right, rel=1e-10)


def test_passivity_over_random_configs(cfg):
    # the model itself, not compute_trace, whose clip to 1 + 1e-9 would hide a breach
    rng = np.random.default_rng(41)
    for _ in range(200):
        kappa_ext, kappa_12 = 10.0 ** rng.uniform(5.5, 8.5), 10.0 ** rng.uniform(6.0, 9.5)
        test_cfg = dataclasses.replace(cfg, kappa_ext=kappa_ext, kappa_12=kappa_12)
        p1 = rng.uniform(0.0, 50.0)
        center = solve_branch(test_cfg, p1, 10.0, "lower").omega
        grid = center + np.linspace(-3e9, 3e9, 101)
        t = bus_transmission(grid, ring_frequency(cfg.ring1, p1), ring_frequency(cfg.ring2, 10.0),
                             cfg.ring1.gamma_i, cfg.ring2.gamma_i, kappa_ext, kappa_12)
        assert t.min() >= 0.0
        assert t.max() <= 1.0 + 1e-9


def reference_transmission(omega, omega1, omega2, gamma1, gamma2, kappa_ext, kappa_12):
    """The coupled-mode model as one expression, with one new array per
    operation; bus_transmission computes it in place."""
    w = np.asarray(omega, dtype=float)
    d1 = 1j * (w - omega1) - 0.5 * (gamma1 + kappa_ext)
    d2 = 1j * (w - omega2) - 0.5 * gamma2
    with np.errstate(over="ignore", invalid="ignore"):
        s_out = 1.0 + kappa_ext * d2 / (d1 * d2 + kappa_12 * kappa_12)
    return np.abs(s_out) ** 2


@pytest.mark.parametrize("omega, first", [(1e307, "1e+307"), (np.array([1e15, 1e15, -1e307, 1e307]), "-1e+307")],
                         ids=["scalar", "array"])
def test_probe_grid_too_far_error_text(omega, first):
    gamma = 2.0 * MHZ
    device = (1e15, 1.001e15, gamma, gamma, 5.0 * gamma, 75.0 * gamma)
    bad = ~np.isfinite(np.atleast_1d(reference_transmission(omega, *device)))
    assert repr(np.atleast_1d(omega)[bad][0].item()) == first  # where the one-line model first fails
    with pytest.raises(ValueError) as error:
        bus_transmission(omega, *device)
    assert str(error.value) == ("probe grid too far from the resonances: "
                                f"transmission not finite at omega = {first} rad/s")


def same_bits(got, expected) -> bool:
    return got.shape == expected.shape and np.array_equal(got.view(np.int64), expected.view(np.int64))


def random_device(rng, kappa_12=None):
    """(omega1, omega2, gamma1, gamma2, kappa_ext, kappa_12) of a random two-ring device."""
    omega1, omega2 = 1.2066e15 + rng.uniform(-2e9, 2e9, 2)
    gamma1, gamma2, kappa_ext = 10.0 ** rng.uniform(6.5, 8.5, 3)
    if kappa_12 is None:
        kappa_12 = 10.0 ** rng.uniform(6.0, 9.5)
    return omega1, omega2, gamma1, gamma2, kappa_ext, kappa_12


@pytest.mark.parametrize("shape", [(1,), (7,), (999,), (40_001,), (37, 41)])
@pytest.mark.parametrize("kappa_12", [None, 0.0], ids=["coupled", "decoupled"])
def test_transmission_equals_the_one_line_model_bit_for_bit(shape, kappa_12):
    rng = np.random.default_rng([35, math.prod(shape), int(kappa_12 is None)])
    for _ in range(5):
        device = random_device(rng, kappa_12)
        omega = 1.2066e15 + rng.uniform(-3e10, 3e10, shape)
        assert same_bits(bus_transmission(omega, *device), reference_transmission(omega, *device))


def test_transmission_of_a_probe_whose_d1_d2_overflows_is_one_bit_for_bit():
    device = random_device(np.random.default_rng(351))
    omega = np.array([1e155, -1e155, 3e200, -1e250])  # |d1*d2| overflows; kappa_ext*d2 does not
    t = bus_transmission(omega, *device)
    assert same_bits(t, reference_transmission(omega, *device))
    assert np.all(t == 1.0)


def test_scalar_probe_is_the_one_point_grid():
    rng = np.random.default_rng(353)
    for _ in range(200):
        device = random_device(rng)
        omega = 1.2066e15 + rng.uniform(-3e9, 3e9)
        t = bus_transmission(omega, *device)
        assert type(t) is float
        assert same_bits(np.array([t]), bus_transmission(np.array([omega]), *device))


def test_trace_holds_at_most_44_bytes_per_point(cfg):
    grid = np.linspace(1.2066e15 - 3e10, 1.2066e15 + 3e10, 10**6)
    compute_trace(cfg, 25.0, 10.0, grid[:10])  # imports and caches outside the window
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute_trace(cfg, 25.0, 10.0, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 44 * grid.size  # d1, d2 and the real grid - omega2 behind d2 hold 40 B


# --- dip extraction -------------------------------------------------------------


def test_find_dips_recovers_synthetic_lorentzian():
    omega0, t_min, fwhm = 1.2066e15, 0.21, 6.0 * MHZ
    trace = lorentzian_trace(omega0, t_min, fwhm)
    step = trace.omega_grid[1] - trace.omega_grid[0]
    dips = find_dips(trace)
    assert len(dips) == 1
    dip = dips[0]
    assert abs(dip.omega_center - omega0) <= 1e-3 * step
    assert abs(dip.t_min - t_min) <= 1e-3
    assert abs(dip.fwhm - fwhm) <= 1e-3 * fwhm
    assert not dip.overlapping


def test_find_dips_flat_trace_is_empty():
    omega = np.linspace(1e15, 1e15 + 1e9, 101)
    assert find_dips(TransmissionTrace(omega_grid=omega, t_power=np.ones(101))) == []


def test_find_dips_two_ring_trace_near_crossing(cfg):
    upper, lower = solve_both(cfg, 25.0, 10.0)
    trace = compute_trace(
        cfg, 25.0, 10.0, np.linspace(lower.omega - 4e8, upper.omega + 4e8, 120001)
    )
    dips = find_dips(trace)
    assert len(dips) == 2
    # centers match the branch frequencies within 10% of the loaded linewidth
    width = max(1.0 / upper.tau_c, 1.0 / lower.tau_c)
    assert abs(dips[0].omega_center - lower.omega) <= 0.1 * width
    assert abs(dips[1].omega_center - upper.omega) <= 0.1 * width
    # so the minima splitting honors the eigenfrequency bound to the same tolerance
    assert dips[1].omega_center - dips[0].omega_center >= 2.0 * cfg.kappa_12 - 0.2 * width
    assert not dips[0].overlapping and not dips[1].overlapping


def test_find_dips_flags_overlap():
    omega0, fwhm = 1.0e15, 10.0 * MHZ
    omega = omega0 + np.linspace(-8, 8, 4001) * fwhm
    dip = lambda c: 0.35 / (1.0 + 4.0 * (omega - c) ** 2 / fwhm**2)
    t = 1.0 - dip(omega0 - 0.9 * fwhm) - dip(omega0 + 0.9 * fwhm)
    dips = find_dips(TransmissionTrace(omega_grid=omega, t_power=t))
    assert len(dips) == 2
    assert all(d.overlapping for d in dips)


def loop_dips(trace, baseline=1.0):
    """find_dips one sample at a time: every local minimum below 0.99 (on a
    plateau its first sample), refined, then sorted and flagged.  Each lies
    below its half-depth level, so neither edge divides by zero."""
    omega, t = trace.omega_grid.tolist(), trace.t_power.tolist()
    dips = []
    for i in range(1, len(t) - 1):
        if t[i] >= 0.99 or t[i] > t[i - 1] or t[i] > t[i + 1] or t[i] == t[i - 1]:
            continue
        y0, y1, y2 = t[i - 1], t[i], t[i + 1]
        denom = y0 - 2.0 * y1 + y2
        center = omega[i] + 0.5 * (y0 - y2) / denom * 0.5 * (omega[i + 1] - omega[i - 1])
        t_min = max(y1 - 0.125 * ((y0 - y2) * (y0 - y2)) / denom, 0.0)
        level = 0.5 * (baseline + t_min)
        assert t[i] < level, (i, t[i], level)
        edges = []
        for step in (-1, 1):
            j = i
            while 0 <= j + step < len(t) and t[j + step] < level:
                j += step
            if not 0 <= j + step < len(t):
                break
            k = j + step
            edges.append(omega[j] + (level - t[j]) / (t[k] - t[j]) * (omega[k] - omega[j]))
        if len(edges) == 2:
            dips.append([center, t_min, edges[1] - edges[0], False])
    dips.sort(key=lambda d: d[0])
    for a, b in zip(dips, dips[1:]):
        if b[0] - a[0] < 3.0 * max(a[2], b[2]):
            a[3] = b[3] = True
    return [tuple(d) for d in dips]


def test_find_dips_matches_a_plain_loop_on_seeded_traces():
    rng = np.random.default_rng(2024)
    found = 0
    for case in range(300):
        n = int(rng.integers(3, 600))
        omega = 1e15 + np.cumsum(rng.uniform(0.5, 2.0, n)) * 1e6
        t = 1.0 - rng.uniform(0.0, 0.05, n)
        for _ in range(int(rng.integers(0, 5))):  # dips, some near the edges or each other
            center, width = omega[rng.integers(n)], rng.uniform(2.0, 60.0) * 1e6
            t -= rng.uniform(0.1, 0.9) / (1.0 + 4.0 * (omega - center) ** 2 / width**2)
        levels = (20, 200, 10**6)[case % 3]  # coarse levels make plateaus
        t = np.round(np.clip(t, 0.0, 1.0) * levels) / levels
        if case % 4 == 1:
            t[0] = t[-1] = 0.0  # minima at both edges are never dips
        if case % 5 == 2:
            t[1:4] = t[1]  # a plateau next to the edge
        trace = TransmissionTrace(omega_grid=omega, t_power=t)
        got = [(d.omega_center, d.t_min, d.fwhm, d.overlapping) for d in find_dips(trace)]
        assert got == loop_dips(trace), case
        found += len(got)
    assert found > 300


def test_find_dips_squares_the_vertex_gap_correctly_rounded():
    # glibc 2.36's pow(gap, 2) is one ulp above the correctly rounded gap * gap here, and the
    # t_min it gives differs in its last bit, so a scalar `**` makes the bytes depend on libm
    y0, y1, y2 = 0.890768, 0.346645, 0.649061
    gap = y0 - y2
    (dip,) = find_dips(TransmissionTrace(omega_grid=np.arange(5.0), t_power=np.array([1.0, y0, y1, y2, 1.0])))
    assert dip.t_min == y1 - 0.125 * (gap * gap) / (y0 - 2.0 * y1 + y2)


# --- eta_c from T_min -----------------------------------------------------------


def test_eta_from_tmin_critical():
    assert eta_c_from_tmin(0.0, REGIME_OVERCOUPLED) == 0.5
    assert eta_c_from_tmin(0.0, REGIME_UNDERCOUPLED) == 0.5


def test_eta_from_tmin_quarter():
    assert eta_c_from_tmin(0.25, REGIME_UNDERCOUPLED) == pytest.approx(0.25, rel=1e-15)
    assert eta_c_from_tmin(0.25, REGIME_OVERCOUPLED) == pytest.approx(0.75, rel=1e-15)


def test_eta_from_tmin_no_dip_limit():
    assert eta_c_from_tmin(1.0, REGIME_UNDERCOUPLED) == 0.0
    assert eta_c_from_tmin(1.0, REGIME_OVERCOUPLED) == 1.0


def test_eta_from_tmin_rejects_bad_input():
    with pytest.raises(ValueError):
        eta_c_from_tmin(1.2, REGIME_OVERCOUPLED)
    with pytest.raises(ValueError):
        eta_c_from_tmin(0.5, REGIME_INDETERMINATE)


# --- regime classification ------------------------------------------------------


def _dip_for_branch(cfg, p1, p2, branch):
    sol = solve_branch(cfg, p1, p2, branch)
    width = sol.kappa_eff + sol.gamma_eff
    grid = sol.omega + np.linspace(-8, 8, 2001) * width
    return find_dips(compute_trace(cfg, p1, p2, grid))[0]


def test_classify_overcoupled_branch(cfg):
    dip = _dip_for_branch(cfg, 50.0, 10.0, "lower")  # frac1 ~ 0.99, kappa_ext = 2.5*gamma
    assert classify_regime(cfg, (50.0, 10.0), dip) == REGIME_OVERCOUPLED


def test_classify_undercoupled_branch(cfg):
    dip = _dip_for_branch(cfg, 0.0, 10.0, "lower")  # frac1 small: kappa_eff < gamma_eff
    assert classify_regime(cfg, (0.0, 10.0), dip) == REGIME_UNDERCOUPLED


def test_classify_exact_critical_tie_break(cfg):
    # kappa_ext = gamma1 + gamma2 makes kappa_eff == gamma_eff exactly at the
    # symmetric point; the documented tie-break is undercoupled
    critical = dataclasses.replace(cfg, kappa_ext=cfg.ring1.gamma_i + cfg.ring2.gamma_i)
    sol = solve_branch(critical, 25.0, 10.0, "lower")
    assert sol.kappa_eff == pytest.approx(sol.gamma_eff, rel=1e-12)
    dip = TransmissionDip(omega_center=sol.omega, t_min=0.0, fwhm=sol.kappa_eff + sol.gamma_eff)
    assert classify_regime(critical, (25.0, 10.0), dip) == REGIME_UNDERCOUPLED


def test_classify_requires_nearby_branch(cfg):
    dip = TransmissionDip(omega_center=1.0e15, t_min=0.2, fwhm=1e7)
    with pytest.raises(ValueError, match="no supermode branch"):
        classify_regime(cfg, (25.0, 10.0), dip)


def test_tmin_roundtrip_against_effective_rates(cfg):
    for p1 in (10.0, 30.0, 45.0):
        sol = solve_branch(cfg, p1, 10.0, "lower")
        dip = _dip_for_branch(cfg, p1, 10.0, "lower")
        regime = classify_regime(cfg, (p1, 10.0), dip)
        eta = eta_c_from_tmin(dip.t_min, regime)
        assert abs(eta - sol.eta_c) <= 0.02


# --- trace type invariants ------------------------------------------------------


@pytest.mark.parametrize("t_min, fwhm, message", [
    (-0.1, 1e7, r"t_min must be in \[0, 1\], got -0.1"),
    (1.5, 1e7, r"t_min must be in \[0, 1\], got 1.5"),
    (0.2, 0.0, "fwhm must be positive, got 0.0"),
    (0.2, math.nan, "fwhm must be positive, got nan"),
])
def test_dip_rejects_t_min_outside_unit_range_and_non_positive_fwhm(t_min, fwhm, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TransmissionDip(omega_center=1.0e15, t_min=t_min, fwhm=fwhm)


def test_trace_rejects_bad_grids():
    with pytest.raises(ValueError):
        TransmissionTrace(omega_grid=np.array([2.0, 1.0]), t_power=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TransmissionTrace(omega_grid=np.array([1.0, 1.0]), t_power=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TransmissionTrace(omega_grid=np.array([1.0, 2.0]), t_power=np.array([1.0, 1.5]))
    with pytest.raises(ValueError):
        TransmissionTrace(omega_grid=np.array([]), t_power=np.array([]))
