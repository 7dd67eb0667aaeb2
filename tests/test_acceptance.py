"""Acceptance suite: one test per acceptance criterion, one status line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import dataclasses
import math
import time

import numpy as np

from ringlab.cli import run as cli_run
from ringlab.devicemodel import detection_efficiency, ring_frequency
from ringlab.fitters import CROSSING_PARAMS, CrossingDataset, fit_avoided_crossing, weighted_linear_fit
from ringlab.langevin import LangevinRun, analytic_psd, averaged_output_psd, shot_noise_calibration
from ringlab.spectra import bus_transmission, classify_regime, compute_trace, eta_c_from_tmin, find_dips
from ringlab.squeezing import db_from_linear, infer_onchip, squeezing_level
from ringlab.supermodes import crossing_geometry, eta_c_vs_heater, solve_branch

MHZ = 2.0 * math.pi * 1e6
OMEGA_3MHZ = 2.0 * math.pi * 3e6
EPS = np.finfo(float).eps


def report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    line = f"[acceptance {number}] {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.2f} s)"
    print(line)
    assert ok, line


def test_criterion_1_eta_tuning_range(cfg):
    start = time.monotonic()
    etas = eta_c_vs_heater(cfg, "lower", np.arange(0.0, 50.0 + 0.25, 0.5), 10.0).eta_c
    elapsed = time.monotonic() - start
    ok = (
        etas.min() <= 0.12
        and etas.max() >= 0.68
        and bool(np.all(np.diff(etas) > 0))
        and elapsed < 1.0
    )
    report(1, ok, f"eta_c sweeps {etas.min():.3f} -> {etas.max():.3f}, monotone", elapsed)


def test_criterion_2_squeezing_endpoints_join():
    start = time.monotonic()
    eta_c = 0.70
    s_onchip = 10.0 ** (-3.9 / 10.0)
    tau_c = math.sqrt(eta_c / (1.0 - s_onchip) - 1.0) / OMEGA_3MHZ
    onchip_db = db_from_linear(squeezing_level(eta_c, 1.0, tau_c, OMEGA_3MHZ))
    measured_db = db_from_linear(squeezing_level(eta_c, 0.60, tau_c, OMEGA_3MHZ))
    elapsed = time.monotonic() - start
    ok = (
        22e-9 <= tau_c <= 23e-9
        and abs(onchip_db - (-3.9)) <= 0.3
        and abs(measured_db - (-2.0)) <= 0.4
        and elapsed < 1.0
    )
    report(2, ok, f"tau_c={tau_c * 1e9:.2f} ns joins on-chip {onchip_db:.2f} dB with measured {measured_db:.2f} dB", elapsed)


def test_criterion_3_detection_budget(cfg):
    start = time.monotonic()
    eta_d = detection_efficiency(cfg.detection)
    elapsed = time.monotonic() - start
    ok = abs(eta_d - 0.579) <= 0.005 and elapsed < 1.0
    report(3, ok, f"eta_d = {eta_d:.4f} (grating 0.85 x 0.7 dB lens x QE 0.80, ~60%)", elapsed)


def test_criterion_4_langevin_oracle_equivalence():
    start = time.monotonic()
    gamma_total = 4.4e7
    segments = 94
    dt = 0.01 / gamma_total
    n_steps = (segments + 1) * 2048
    worst = 0.0
    details = []
    for eta_c in (0.1, 0.5, 0.7):
        run = LangevinRun(
            gamma_total=gamma_total,
            kappa_eff=eta_c * gamma_total,
            dt=dt,
            duration=n_steps * dt,
            n_trajectories=200,
            seed=20260809,
        )
        simulated = averaged_output_psd(run, segments)
        analytic = analytic_psd(run.kappa_eff, gamma_total, simulated.freq_grid)
        band = 2.0 * np.pi * simulated.freq_grid <= 3.0 * gamma_total
        diff = 10.0 * np.log10(simulated.psd_normalized[band] / analytic.psd_normalized[band])
        worst = max(worst, float(np.max(np.abs(diff))))
        details.append(f"eta={eta_c}: {np.max(np.abs(diff)):.3f} dB")
    elapsed = time.monotonic() - start
    ok = worst <= 0.2 and elapsed < 60.0
    report(4, ok, "simulated vs analytic PSD within 0.2 dB on [0, 3*Gamma]: " + ", ".join(details), elapsed)


def test_criterion_5_cross_oracle_eta(cfg):
    start = time.monotonic()
    worst = 0.0
    for p1 in np.linspace(2.0, 50.0, 20):
        sol = solve_branch(cfg, p1, 10.0, "lower")
        width = sol.kappa_eff + sol.gamma_eff
        trace = compute_trace(cfg, p1, 10.0, sol.omega + np.linspace(-8, 8, 2001) * width)
        dip = min(find_dips(trace), key=lambda d: abs(d.omega_center - sol.omega))
        regime = classify_regime(cfg, (p1, 10.0), dip)
        eta_from_tmin = eta_c_from_tmin(dip.t_min, regime)
        worst = max(worst, abs(eta_from_tmin - sol.eta_c))
    elapsed = time.monotonic() - start
    ok = worst <= 0.02 and elapsed < 5.0
    report(5, ok, f"|eta_c(T_min) - eta_c(rates)| <= {worst:.2e} over 20 resolved settings", elapsed)


def _synthetic_crossing(noise_sigma, seed):
    truth = {
        "kappa_12": 150.0 * MHZ,
        "omega1_0": 1.2066e15 + 750.0 * MHZ,
        "omega2_0": 1.2066e15 + 300.0 * MHZ,
        "alpha1": 30.0 * MHZ,
        "alpha2": 30.0 * MHZ,
    }
    rng = np.random.default_rng(seed)
    p1 = np.tile(np.linspace(5.0, 55.0, 15), 2)
    p2 = np.tile([8.0 if i % 2 == 0 else 12.0 for i in range(15)], 2)
    sign = np.repeat([1.0, -1.0], 15)
    w1 = truth["omega1_0"] - truth["alpha1"] * p1
    w2 = truth["omega2_0"] - truth["alpha2"] * p2
    res = 0.5 * (w1 + w2) + sign * np.sqrt((0.5 * (w1 - w2)) ** 2 + truth["kappa_12"] ** 2)
    if noise_sigma:
        res = res + noise_sigma * truth["kappa_12"] * rng.standard_normal(res.size)
    data = CrossingDataset(
        p1_mw=p1, p2_mw=p2,
        branch=tuple("upper" if s > 0 else "lower" for s in sign),
        resonance_rad_s=res,
    )
    return truth, data


def test_criterion_6_crossing_fitter_recovery():
    start = time.monotonic()
    truth, clean = _synthetic_crossing(0.0, 0)
    exact = fit_avoided_crossing(clean)
    zero_noise_ok = all(
        abs(exact.params[name] - truth[name]) <= 1e-8 * abs(truth[name]) for name in CROSSING_PARAMS
    )
    hits = 0
    for seed in range(100):
        _, data = _synthetic_crossing(0.01, seed)
        result = fit_avoided_crossing(data)
        if abs(result.params["kappa_12"] - truth["kappa_12"]) <= 3.0 * result.stderr["kappa_12"]:
            hits += 1
    elapsed = time.monotonic() - start
    ok = zero_noise_ok and hits >= 95 and elapsed < 10.0
    report(6, ok, f"zero-noise to 1e-8; kappa_12 within 3 stderr in {hits}/100 noisy repetitions", elapsed)


def test_criterion_7_shot_noise_linearity():
    start = time.monotonic()
    levels = shot_noise_calibration([1.0, 2.0, 4.0, 8.0], 16384.0, 20260809)
    fit = weighted_linear_fit([p for p, _ in levels], [v for _, v in levels])
    elapsed = time.monotonic() - start
    ok = fit.r_squared > 0.999 and elapsed < 10.0
    report(7, ok, f"through-origin fit: slope={fit.slope:.4f}, R^2={fit.r_squared:.6f}", elapsed)


def test_criterion_8_property_suites(cfg):
    start = time.monotonic()
    rng = np.random.default_rng(808)
    ok = True

    # eigenfrequency trace identity and splitting bound, 1000 draws
    for _ in range(1000):
        omega0 = rng.uniform(1e12, 2e15)
        detuning = rng.uniform(-1e10, 1e10)
        kappa = 10.0 ** rng.uniform(5, 10)
        omega1, omega2 = omega0 + detuning, omega0 - detuning
        mean, _, radius = crossing_geometry(omega1, omega2, kappa)
        plus, minus = mean + radius, mean - radius
        scale = abs(omega1) + abs(omega2)
        ok &= abs((plus + minus) - (omega1 + omega2)) <= 8.0 * EPS * scale
        ok &= plus - minus >= 2.0 * kappa - 8.0 * EPS * scale

    # squeezing monotonicity in sideband frequency and lower bound, 1000 draws
    for _ in range(1000):
        eta_c, eta_d = rng.uniform(0.0, 1.0, size=2)
        tau_c = 10.0 ** rng.uniform(-9, -7)
        omega_a, omega_b = np.sort(rng.uniform(0.0, 5.0 / tau_c, size=2))
        s_a = squeezing_level(eta_c, eta_d, tau_c, omega_a)
        s_b = squeezing_level(eta_c, eta_d, tau_c, omega_b)
        ok &= s_b >= s_a - 1e-15
        ok &= s_a >= 1.0 - eta_c * eta_d - 1e-15
        ok &= (s_a > 1.0 - eta_c * eta_d) or omega_a == 0.0 or eta_c * eta_d == 0.0

    # passivity of the transmission model over random configs x frequency grids
    for _ in range(300):
        kappa_ext, kappa_12 = 10.0 ** rng.uniform(5.5, 8.5), 10.0 ** rng.uniform(6.0, 9.5)
        test_cfg = dataclasses.replace(cfg, kappa_ext=kappa_ext, kappa_12=kappa_12)
        p1 = rng.uniform(0.0, 50.0)
        center = solve_branch(test_cfg, p1, 10.0, "lower").omega
        t = bus_transmission(center + np.linspace(-3e9, 3e9, 101), ring_frequency(cfg.ring1, p1),
                             ring_frequency(cfg.ring2, 10.0), cfg.ring1.gamma_i, cfg.ring2.gamma_i,
                             kappa_ext, kappa_12)
        ok &= bool(t.min() >= 0.0 and t.max() <= 1.0 + 1e-9)

    # on-chip inference inverts the spectrum exactly, 1000 draws
    for _ in range(1000):
        eta_c = rng.uniform(0.01, 1.0)
        eta_d = rng.uniform(0.05, 1.0)
        tau_c = 10.0 ** rng.uniform(-9, -7)
        omega = rng.uniform(0.0, 3.0 / tau_c)
        measured = squeezing_level(eta_c, eta_d, tau_c, omega)
        onchip = squeezing_level(eta_c, 1.0, tau_c, omega)
        inferred = infer_onchip(measured, eta_d, omega_tau_product=omega * tau_c)
        ok &= abs(inferred - onchip) <= 1e-12 * max(1.0, abs(onchip))

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(8, bool(ok), "trace identity, splitting bound, squeezing monotonicity/bound, passivity, inversion round-trip", elapsed)


def test_criterion_9_cli_determinism(device_cfg_path, tmp_path):
    start = time.monotonic()
    ok = True
    cases = [
        ["etac-sweep", "--config", str(device_cfg_path), "--branch", "lower",
         "--p1", "0:50:0.5", "--p2", "10"],
        ["squeeze-sweep", "--config", str(device_cfg_path), "--branch", "lower",
         "--p1", "0:50:1", "--p2", "10"],
        ["shot-cal", "--powers", "1,2,4,8", "--seed", "17"],
        ["langevin-verify", "--config", str(device_cfg_path), "--seed", "17",
         "--trajectories", "5", "--segments", "12"],
    ]
    for index, args in enumerate(cases):
        a = tmp_path / f"a{index}.csv"
        b = tmp_path / f"b{index}.csv"
        ok &= cli_run(args + ["--out", str(a)]) == 0
        ok &= cli_run(args + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    elapsed = time.monotonic() - start
    report(9, bool(ok), "byte-identical CSV for repeated invocations incl. Monte Carlo with fixed seed", elapsed)
