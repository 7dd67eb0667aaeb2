"""The three workloads: seeded operation cycles and their output checks.

A workload is a function (Context, rng) -> one cycle of operations.  Cycle k of a run draws its inputs from
numpy.random.default_rng([seed, k]), so the same seed gives the same
inputs, while every cycle of a run has fresh ones.  Every cycle holds the
same operations in the same order; only their inputs change, and no
input changes an operation's problem size.

Each operation names the files it writes and the CSV files the program
reads, and carries a check that recomputes its output independently
(see reference.py) and raises CheckFailed on any disagreement.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (
    ATOL_T,
    C_VACUUM,
    DIP_ETA_TOL,
    LANGEVIN_BOUND_DB,
    MHZ,
    RTOL,
    RTOL_OMEGA,
    SHOT_CAL_MIN_R2,
    TWO_PI,
    Device,
    close,
    db,
    lorentzian_psd,
    range_grid,
    read_table,
    require,
    squeezing,
    supermodes,
    transmission,
)

SWEEP_POINTS = 20001        # heater and sideband grid size on sweep-dense
TRACE_POINTS = 40001        # transmission trace size on characterize
LANGEVIN_SEGMENTS = 94      # CLI default Welch segments per trajectory
SEGMENT_SAMPLES = 4096      # Welch segment length the CLI uses
CROSSING_P1 = np.linspace(0.0, 50.0, 41)
CROSSING_NOISE = 0.5 * MHZ  # rad/s, std of the synthetic resonance noise
FIT_SIGMAS = 6.0            # fit-crossing must land within this many stderr
DIP_WINDOW_WIDTHS = 4.0     # fit-dip window half-width in linewidths


@dataclass(frozen=True)
class Context:
    device: Device      # device.cfg as read by reference.read_device
    config: str         # device.cfg path as the commands are given it
    config_text: str


@dataclass
class Op:
    """One CLI invocation and what the benchmark knows about it."""

    name: str
    argv: list[str]
    check: Callable[[Path, str], None]   # (work dir, captured stderr); raises CheckFailed
    outputs: tuple[str, ...] = ()        # files the command writes
    reads: tuple[str, ...] = ()          # CSV files the command reads
    inputs: dict[str, str] = field(default_factory=dict)  # written before the command runs
    expect_exit: int = 0


def _f(x: float) -> str:
    return repr(float(x))


def _no_check(workdir: Path, stderr: str) -> None:
    pass


DUPLICATE_STAGE_CFG = "duplicate-stage.cfg"


def duplicate_stage_config(text: str) -> str:
    """The device file with a plain `lens` stage added beside `lens_loss_db`."""
    lines = text.splitlines(keepends=True)
    heads = [i for i, line in enumerate(lines) if line.strip() == "[detection]"]
    if len(heads) != 1 or "lens_loss_db" not in text:
        raise ValueError("device file needs one [detection] section with lens_loss_db")
    lines.insert(heads[0] + 1, "lens = 0.9\n")
    return "".join(lines)


# --- sweep-dense -------------------------------------------------------------------


def sweep_dense(ctx: Context, rng: np.random.Generator) -> list[Op]:
    """crossing-sweep, etac-sweep on both branches, squeeze-sweep, squeeze-spectrum."""
    dev, config = ctx.device, ctx.config
    p2 = float(rng.uniform(5.0, 15.0))
    p1_flag, p1 = range_grid(float(rng.uniform(0.0, 10.0)), float(rng.uniform(40.0, 50.0)), SWEEP_POINTS)
    branch = str(rng.choice(["lower", "upper"]))
    sideband_mhz = float(rng.uniform(1.0, 10.0))
    ref = supermodes(dev, p1, p2)
    heater = ["--config", config, "--p1", p1_flag, "--p2", _f(p2)]

    def check_crossing(workdir, stderr):
        t = read_table(workdir / "crossing.csv", ["p1_mw", "p2_mw", "branch", "resonance_rad_s"], 2 * p1.size)
        close(t, "p1_mw", np.repeat(p1, 2), RTOL)
        close(t, "p2_mw", p2, RTOL)
        require(t.strings("branch") == ["lower", "upper"] * p1.size, f"{t.path}: branch column out of order")
        want = np.column_stack([ref["lower"].omega, ref["upper"].omega]).ravel()
        omega = close(t, "resonance_rad_s", want, RTOL_OMEGA)
        split = omega[1::2] - omega[0::2]
        ulp = np.spacing(np.max(np.abs(omega)))  # each frequency is rounded to this
        require(bool(np.all(split >= 2.0 * dev.kappa_12 - 4.0 * ulp)),
                f"{t.path}: branch splitting below 2*kappa_12")

    def etac_op(name):
        def check(workdir, stderr):
            t = read_table(workdir / f"etac-{name}.csv", ["p1_mw", "omega_rad_s", "eta_c", "tau_c_s"], p1.size)
            close(t, "p1_mw", p1, RTOL)
            close(t, "omega_rad_s", ref[name].omega, RTOL_OMEGA)
            eta = close(t, "eta_c", ref[name].eta_c, RTOL)
            close(t, "tau_c_s", ref[name].tau_c, RTOL)
            step = np.diff(eta) if name == "lower" else -np.diff(eta)
            require(bool(np.all(step > 0)), f"{t.path}: eta_c not monotone along the {name} branch")

        return Op("etac-sweep", ["etac-sweep", "--branch", name, *heater, "--out", f"etac-{name}.csv"],
                  check, outputs=(f"etac-{name}.csv",))

    def check_squeeze_sweep(workdir, stderr):
        cols = ["eta_c", "s_measured_db", "s_onchip_db", "omega_sideband_hz", "tau_c_s"]
        t = read_table(workdir / "squeeze.csv", cols, p1.size)
        b = ref[branch]
        omega_sb = TWO_PI * sideband_mhz * 1e6
        close(t, "eta_c", b.eta_c, RTOL)
        close(t, "tau_c_s", b.tau_c, RTOL)
        close(t, "omega_sideband_hz", sideband_mhz * 1e6, RTOL)
        measured = close(t, "s_measured_db", db(squeezing(b.eta_c, dev.eta_d, b.tau_c, omega_sb)), RTOL, 1e-13)
        close(t, "s_onchip_db", db(squeezing(b.eta_c, 1.0, b.tau_c, omega_sb)), RTOL, 1e-13)
        _require_s_range(t.path, 10.0 ** (measured / 10.0), b.eta_c * dev.eta_d)

    # squeeze-spectrum at one seeded operating point of the chosen branch
    star = supermodes(dev, float(rng.uniform(0.0, 50.0)), p2)[branch]
    eta_c, tau_c, eta_d = float(star.eta_c), float(star.tau_c), dev.eta_d
    f_flag, f_hz = range_grid(0.0, float(rng.uniform(5e6, 2e7)), SWEEP_POINTS)

    def check_spectrum(workdir, stderr):
        t = read_table(workdir / "spectrum.csv", ["f_hz", "s_linear", "s_db", "squeezing_factor_db"], f_hz.size)
        close(t, "f_hz", f_hz, RTOL)
        want = squeezing(eta_c, eta_d, tau_c, TWO_PI * f_hz)
        s = close(t, "s_linear", want, RTOL)
        close(t, "s_db", db(want), RTOL, 1e-13)
        close(t, "squeezing_factor_db", -db(want), RTOL, 1e-13)
        _require_s_range(t.path, s, eta_c * eta_d)

    return [
        Op("crossing-sweep", ["crossing-sweep", *heater, "--out", "crossing.csv"], check_crossing,
           outputs=("crossing.csv",)),
        etac_op("lower"),
        etac_op("upper"),
        Op("squeeze-sweep", ["squeeze-sweep", "--branch", branch, *heater, "--sideband-mhz", _f(sideband_mhz),
                             "--out", "squeeze.csv"], check_squeeze_sweep, outputs=("squeeze.csv",)),
        Op("squeeze-spectrum", ["squeeze-spectrum", "--eta-c", _f(eta_c), "--eta-d", _f(eta_d),
                                "--tau-c", _f(tau_c), "--f", f_flag, "--out", "spectrum.csv"],
           check_spectrum, outputs=("spectrum.csv",)),
    ]


def _require_s_range(path: str, s: np.ndarray, floor_depth) -> None:
    """S(W) lies in [1 - eta_c*eta_d, 1]."""
    ok = (s >= 1.0 - floor_depth - 1e-12) & (s <= 1.0 + 1e-12)
    require(bool(np.all(ok)), f"{path}: S outside [1 - eta_c*eta_d, 1]")


# --- langevin-verify -------------------------------------------------------------------


def langevin_verify(ctx: Context, rng: np.random.Generator) -> list[Op]:
    """Two langevin-verify operating points, then one README-size shot-cal."""
    dev, config = ctx.device, ctx.config
    ops = []
    for _ in range(2):
        p1 = float(rng.uniform(0.0, 50.0))
        mc_seed = int(rng.integers(2**31))
        ops.append(Op(
            "langevin-verify",
            ["langevin-verify", "--config", config, "--p1", _f(p1), "--seed", str(mc_seed), "--out", "psd.csv"],
            _langevin_check(dev, p1, mc_seed),
            outputs=("psd.csv",),
        ))
    cal_seed = int(rng.integers(2**31))
    ops.append(Op("shot-cal", ["shot-cal", "--powers", "1,2,4,8", "--seed", str(cal_seed), "--out", "shot.csv"],
                  _check_shot_cal, outputs=("shot.csv",)))
    return ops


def _langevin_check(dev: Device, p1: float, mc_seed: int):
    b = supermodes(dev, p1, 10.0)["lower"]   # CLI defaults: lower branch, p2 = 10 mW
    gamma_ref, kappa_ref = float(b.gamma_total), float(b.kappa_eff)

    def check(workdir, stderr):
        t = read_table(workdir / "psd.csv", ["freq_hz", "psd_shotnoise_units", "psd_db"], SEGMENT_SAMPLES // 2)
        header = dict(c.split("=", 1) for c in t.comments if "=" in c)
        require(header.get("seed") == str(mc_seed) and header.get("n_trajectories") == "200",
                f"{t.path}: header {header}")
        gamma, kappa, dt = (float(header[k]) for k in ("gamma_total", "kappa_eff", "dt"))
        for name, got, want in (("gamma_total", gamma, gamma_ref), ("kappa_eff", kappa, kappa_ref),
                                ("dt", dt, 0.01 / gamma_ref),
                                ("duration", float(header["duration"]),
                                 (LANGEVIN_SEGMENTS + 1) * (SEGMENT_SAMPLES // 2) * dt)):
            require(abs(got - want) <= RTOL * abs(want), f"{t.path}: header {name}={got!r}, reference {want!r}")
        f = close(t, "freq_hz", np.arange(1, SEGMENT_SAMPLES // 2 + 1) / (SEGMENT_SAMPLES * dt), RTOL)
        psd = t.column("psd_shotnoise_units")
        require(bool(np.all(psd > 0)), f"{t.path}: non-positive PSD")
        close(t, "psd_db", db(psd), RTOL, 1e-13)
        band = TWO_PI * f <= 3.0 * gamma
        worst = float(np.max(np.abs(db(psd[band] / lorentzian_psd(kappa, gamma, f[band])))))
        require(worst <= LANGEVIN_BOUND_DB, f"{t.path}: band deviation {worst:.3f} dB > {LANGEVIN_BOUND_DB} dB")

    return check


def _check_shot_cal(workdir, stderr):
    t = read_table(workdir / "shot.csv", ["power", "psd_level"], 4)
    p = close(t, "power", [1.0, 2.0, 4.0, 8.0], 0.0)
    level = t.column("psd_level")
    slope = float(p @ level / (p @ p))
    r2 = 1.0 - float(np.sum((level - slope * p) ** 2) / np.sum(level**2))
    require(r2 > SHOT_CAL_MIN_R2, f"{t.path}: R^2 {r2!r} <= {SHOT_CAL_MIN_R2}")
    require(abs(slope - 1.0) < 0.05, f"{t.path}: shot-noise slope {slope!r}, expected 1")


# --- characterize -------------------------------------------------------------------


def characterize(ctx: Context, rng: np.random.Generator) -> list[Op]:
    """validate, transmission with dip report, fit-dip on each dip, fit-crossing in
    rad/s and in nm, and validate on a config with a duplicate detection stage."""
    dev, config = ctx.device, ctx.config
    p1, p2 = float(rng.uniform(10.0, 40.0)), float(rng.uniform(5.0, 15.0))
    ref = supermodes(dev, p1, p2)
    width = max(float(b.gamma_total) for b in ref.values())
    lo, hi = float(ref["lower"].omega) - 10.0 * width, float(ref["upper"].omega) + 10.0 * width
    spacing = (hi - lo) / (TRACE_POINTS - 1)
    dips = {name: _reference_dip(dev, p1, p2, ref[name]) for name in ("lower", "upper")}

    def check_validate(workdir, stderr):
        m = re.search(r"eta_d=(\S+) kappa_ext=(\S+) rad/s kappa_12=(\S+) rad/s", stderr)
        require(m is not None, f"validate: unexpected summary {stderr!r}")
        for got, want in zip(m.groups(), (dev.eta_d, dev.kappa_ext, dev.kappa_12)):
            require(abs(float(got) - want) <= RTOL * want, f"validate: {got} != reference {want!r}")

    def check_transmission(workdir, stderr):
        t = read_table(workdir / "trace.csv", ["omega_rad_s", "t_power"], TRACE_POINTS)
        omega = close(t, "omega_rad_s", np.linspace(lo, hi, TRACE_POINTS), RTOL_OMEGA)
        require(bool(np.all(np.diff(omega) > 0)), f"{t.path}: grid not increasing")
        close(t, "t_power", transmission(dev, p1, p2, omega), 0.0, ATOL_T)
        report = read_table(workdir / "dips.csv",
                            ["omega_center_rad_s", "t_min", "fwhm_rad_s", "regime", "eta_c"], 2)
        for row, name in zip(report.rows, ("lower", "upper")):
            d = dips[name]
            center, t_min, fwhm, regime, eta = float(row[0]), float(row[1]), float(row[2]), row[3], float(row[4])
            where = f"{report.path}: {name} dip"
            require(abs(center - d.center) <= 0.01 * d.fwhm, f"{where}: center {center!r} vs {d.center!r}")
            require(abs(t_min - d.t_min) <= 1e-4, f"{where}: t_min {t_min!r} vs {d.t_min!r}")
            require(abs(fwhm - d.fwhm) <= 0.01 * d.fwhm, f"{where}: fwhm {fwhm!r} vs {d.fwhm!r}")
            if abs(d.eta_c - 0.5) > 1e-6:
                want = "overcoupled" if d.eta_c > 0.5 else "undercoupled"
                require(regime == want, f"{where}: regime {regime} vs {want}")
            require(abs(eta - d.eta_c) <= DIP_ETA_TOL, f"{where}: eta_c {eta!r} vs rate-based {d.eta_c!r}")

    def fit_dip_op(name):
        d = dips[name]
        center = round((d.center - lo) / spacing)
        half = round(DIP_WINDOW_WIDTHS * d.fwhm / spacing)

        def check(workdir, stderr):
            fit = _param_table(workdir / "fitdip.csv", ["omega0_rad_s", "t_min", "fwhm_rad_s", "baseline"])
            where = f"fit-dip {name}"
            require(abs(fit["omega0_rad_s"][0] - d.center) <= 0.01 * d.fwhm, f"{where}: omega0 {fit['omega0_rad_s']}")
            require(abs(fit["t_min"][0] - d.t_min) <= 0.01, f"{where}: t_min {fit['t_min']} vs {d.t_min!r}")
            require(abs(fit["fwhm_rad_s"][0] - d.fwhm) <= 0.02 * d.fwhm, f"{where}: fwhm {fit['fwhm_rad_s']}")
            require(abs(fit["baseline"][0] - 1.0) <= 0.01, f"{where}: baseline {fit['baseline']}")

        return Op("fit-dip", ["fit-dip", "--data", "trace.csv", "--window", f"{center - half}:{center + half + 1}",
                              "--out", "fitdip.csv"], check, outputs=("fitdip.csv",), reads=("trace.csv",))

    return [
        Op("validate", ["validate", "--config", config], check_validate),
        Op("transmission", ["transmission", "--config", config, "--p1", _f(p1), "--p2", _f(p2),
                            "--points", str(TRACE_POINTS), "--dip-report", "dips.csv", "--out", "trace.csv"],
           check_transmission, outputs=("trace.csv", "dips.csv")),
        fit_dip_op("lower"),
        fit_dip_op("upper"),
        _fit_crossing_op(dev, rng, "resonance_rad_s"),
        _fit_crossing_op(dev, rng, "resonance_nm"),
        # Known fault: a plain `lens` next to `lens_loss_db` must be a config
        # error (exit 3); the parser appends a second lens stage instead.
        Op("validate", ["validate", "--config", DUPLICATE_STAGE_CFG], _no_check,
           inputs={DUPLICATE_STAGE_CFG: duplicate_stage_config(ctx.config_text)}, expect_exit=3),
    ]


@dataclass(frozen=True)
class _Dip:
    center: float
    t_min: float
    fwhm: float
    eta_c: float


def _reference_dip(dev: Device, p1: float, p2: float, branch) -> _Dip:
    """Minimum and half-depth width of the reference transmission near one branch."""
    gamma = float(branch.gamma_total)
    omega = float(branch.omega) + np.linspace(-3.0, 3.0, 60001) * gamma
    t = transmission(dev, p1, p2, omega)
    i = int(np.argmin(t))
    level = 0.5 * (1.0 + t[i])
    left = np.interp(level, t[i::-1], omega[i::-1])
    right = np.interp(level, t[i:], omega[i:])
    return _Dip(center=float(omega[i]), t_min=float(t[i]), fwhm=float(right - left), eta_c=float(branch.eta_c))


def _param_table(path: Path, names: list[str]) -> dict[str, tuple[float, float]]:
    t = read_table(path, ["param", "value", "stderr"], len(names))
    require(t.strings("param") == names, f"{t.path}: parameters {t.strings('param')}")
    out = {}
    for name, value, err in zip(names, t.column("value"), t.column("stderr")):
        require(math.isfinite(value) and math.isfinite(err) and err >= 0.0, f"{t.path}: {name} = {value} +- {err}")
        out[name] = (float(value), float(err))
    return out


CROSSING_PARAMS = ["kappa_12", "omega1_0", "omega2_0", "alpha1", "alpha2"]


def _fit_crossing_op(dev: Device, rng: np.random.Generator, column: str) -> Op:
    """Noisy avoided-crossing data from the closed-form branch frequencies.

    The rad/s file has two ring-2 heater settings, so all five parameters
    are free; the nm file has one, so alpha2 is held at its true value.
    """
    truth = {
        "kappa_12": dev.kappa_12 * rng.uniform(0.8, 1.2),
        "omega1_0": dev.omega1_0 + rng.uniform(-50.0, 50.0) * MHZ,
        "omega2_0": dev.omega2_0 + rng.uniform(-50.0, 50.0) * MHZ,
        "alpha1": dev.alpha1 * rng.uniform(0.9, 1.1),
        "alpha2": dev.alpha2 * rng.uniform(0.9, 1.1),
    }
    p2_values = [rng.uniform(5.0, 9.0), rng.uniform(11.0, 15.0)] if column == "resonance_rad_s" \
        else [rng.uniform(5.0, 15.0)]
    p1, p2 = (a.ravel() for a in np.meshgrid(CROSSING_P1, p2_values))
    w1 = truth["omega1_0"] - truth["alpha1"] * p1
    w2 = truth["omega2_0"] - truth["alpha2"] * p2
    mean, half = 0.5 * (w1 + w2), np.hypot(0.5 * (w1 - w2), truth["kappa_12"])
    lines = [f"p1_mw,p2_mw,branch,{column}"]
    for name, sign in (("lower", -1.0), ("upper", 1.0)):
        omega = mean + sign * half + rng.normal(0.0, CROSSING_NOISE, p1.size)
        value = omega if column == "resonance_rad_s" else TWO_PI * C_VACUUM / omega * 1e9
        lines += [f"{a!r},{b!r},{name},{v!r}" for a, b, v in zip(p1.tolist(), p2.tolist(), value.tolist())]
    data = f"crossing-{column}.csv"
    fixed = {} if column == "resonance_rad_s" else {"alpha2": truth["alpha2"]}

    def check(workdir, stderr):
        fit = _param_table(workdir / "fitx.csv", CROSSING_PARAMS)
        for name in CROSSING_PARAMS:
            value, err = fit[name]
            if name in fixed:
                require(value == fixed[name] and err == 0.0, f"fit-crossing: fixed {name} = {value!r} +- {err!r}")
            else:
                require(err > 0.0 and abs(value - truth[name]) <= FIT_SIGMAS * err,
                        f"fit-crossing {column}: {name} = {value!r} +- {err!r}, generated {truth[name]!r}")

    argv = ["fit-crossing", "--data", data, "--out", "fitx.csv"]
    argv += [f"--fix={name}={value!r}" for name, value in fixed.items()]
    return Op("fit-crossing", argv, check, outputs=("fitx.csv",), reads=(data,), inputs={data: "\n".join(lines) + "\n"})


WORKLOADS = {
    "sweep-dense": sweep_dense,
    "langevin-verify": langevin_verify,
    "characterize": characterize,
}
