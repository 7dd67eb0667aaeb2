"""ringlab command-line interface.

Reads a device config and data files, runs sweeps/simulations/fits, and
writes CSV tables (plot-ready, no graphics).  CSV goes to --out (default
stdout); a one-line summary of the key scalars goes to stderr.  Exit
codes: 0 ok, 2 usage, 3 config, 4 data, 5 numeric/precondition failure.
Identical invocations (same flags, config, seed) produce byte-identical
output.

The argument parser is built once per process, on the first `run`, and
every later `run` reuses it: parsing keeps its state in the namespace it
returns, so one call leaves nothing behind for the next.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import stat
import sys
import threading

import numpy as np

from . import devicemodel, fitters, langevin, spectra, squeezing, supermodes
from .csvio import format_value, load_csv, write_csv
from .errors import ConfigError, DataError, FitError

RANGE_REL_TOL = 1e-9          # stop is included when on-grid within this
RANGE_MAX_POINTS = 10**7      # larger grids are refused before any allocation
SEGMENT_SAMPLES = 4096        # Welch segment length for langevin-verify
NEGATIVE_NUMBER = re.compile(r"^-\.?\d")  # an argument that starts so is a value

EXIT_CODES_HELP = """\
exit codes:
  0  success
  2  usage error (unknown command or flag, malformed range)
  3  configuration error (file, schema, or physical invariant)
  4  data error (missing/extra CSV column, non-numeric cell, unreadable file)
  5  numeric/precondition failure (non-convergent fit, out-of-range parameter)
"""


def finite_float(text: str) -> float:
    """A number that is neither nan nor infinite: the argparse type of every
    real-valued flag, and the parse of each number in a range, a NAME=VALUE
    assignment and a power list.  Non-numeric text raises ValueError, as
    `float` does."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


finite_float.__name__ = "float"  # argparse names it in "invalid float value: 'x'", as for `float`


def _checked(kind, accept, requirement: str):
    """The argparse type of a flag whose `kind` value must pass `accept`,
    refused as "must be <requirement>"."""
    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}: {text!r}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'", as for `int`
    return parse


positive_int = _checked(int, lambda value: value > 0, "positive")
positive_float = _checked(finite_float, lambda value: value > 0, "positive")
non_negative_int = _checked(int, lambda value: value >= 0, "non-negative")
# Sample budgets share the range cap, so a series too long to hold is refused before any allocation:
# the points of a trace, and the samples of one trajectory, (segments + 1) * SEGMENT_SAMPLES/2
trace_points = _checked(positive_int, lambda value: value <= RANGE_MAX_POINTS, f"at most {RANGE_MAX_POINTS}")
welch_segments = _checked(positive_int, lambda value: (value + 1) * (SEGMENT_SAMPLES // 2) <= RANGE_MAX_POINTS,
                          f"at most {RANGE_MAX_POINTS // (SEGMENT_SAMPLES // 2) - 1}, "
                          f"so a trajectory has at most {RANGE_MAX_POINTS} samples")
# shot-cal rounds --samples to a count, which must fill its Welch segments
shot_cal_samples = _checked(
    _checked(positive_float, lambda value: round(value) >= langevin.SHOT_CAL_MIN_SAMPLES,
             f"at least {langevin.SHOT_CAL_MIN_SAMPLES}"),
    lambda value: round(value) <= RANGE_MAX_POINTS, f"at most {RANGE_MAX_POINTS}")


def parse_range(text: str) -> np.ndarray:
    """start:stop:step grid, inclusive start; stop included when on-grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = map(finite_float, parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range values must be numeric: {text!r}") from None
    if step <= 0:
        raise argparse.ArgumentTypeError(f"range step must be positive: {text!r}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"range stop must be >= start: {text!r}")
    span = stop - start
    if not span / step < RANGE_MAX_POINTS:  # also an infinite span, which int() cannot take
        raise argparse.ArgumentTypeError(f"range has more than {RANGE_MAX_POINTS} points: {text!r}")
    k = int(round(span / step))
    scale = max(abs(start), abs(stop), abs(step))
    if abs(k * step - span) <= RANGE_REL_TOL * scale:
        n = k + 1
    else:
        n = int(math.floor(span / step)) + 1
    return start + step * np.arange(n)


def parse_index_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"window must be start:stop, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"window indices must be integers: {text!r}") from None


def parse_assignment(pair: str) -> tuple[str, float]:
    """NAME=VALUE as a (name, value) pair."""
    name, _, value = pair.partition("=")
    if not name or not value:
        raise argparse.ArgumentTypeError(f"expected name=value, got {pair!r}")
    try:
        return name, finite_float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"value for {name!r} must be numeric: {value!r}") from None


def parse_powers(text: str) -> list[float]:
    """Comma-separated powers, none negative; empty entries are skipped.  The
    calibration line through the origin needs two of them, one positive."""
    try:
        powers = [finite_float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"powers must be numeric: {text!r}") from None
    if not powers:
        raise argparse.ArgumentTypeError(f"at least one power required: {text!r}")
    if min(powers) < 0:
        raise argparse.ArgumentTypeError(f"powers must be non-negative: {text!r}")
    if len(powers) < 2:
        raise argparse.ArgumentTypeError(f"at least two powers required: {text!r}")
    if max(powers) == 0:
        raise argparse.ArgumentTypeError(f"at least one power must be positive: {text!r}")
    return powers


def _write_table(staged: dict, path: str, header: list[str], columns, comments=()) -> None:
    """Write a CSV table given as columns (see csvio.write_csv) to `path` ('-' is stdout).

    A regular file (or a new one) is written to a temporary file beside it,
    named by process and thread, and recorded in `staged` as {temporary:
    destination}: run() moves it into place once every table is written,
    so a failed run leaves no output.  A destination that is not a regular
    file (/dev/null, a FIFO) is written in place.
    """
    if path == "-":
        write_csv(sys.stdout, header, columns, comments)
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as stream:
            write_csv(stream, header, columns, comments)
        return
    if mode is not None and not os.access(path, os.W_OK):  # the replace below would not ask
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    target = os.path.realpath(path)  # a symlink is followed, not replaced
    temporary = f"{target}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        stream = open(temporary, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    staged[temporary] = target
    with stream:
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
        write_csv(stream, header, columns, comments)


def _load_columns(path: str, schema: dict[str, type], frequency: str, wavelength: str) -> dict:
    """Columns of a CSV file under `schema`, whose `frequency` column (rad/s)
    may instead be given as vacuum wavelengths in a `wavelength` column (nm),
    converted here.
    """
    columns = load_csv(path, schema, {frequency: wavelength})
    if wavelength in columns:
        columns[frequency] = devicemodel.pump_angular_frequency(columns.pop(wavelength))
    return columns


# --- commands -----------------------------------------------------------------
#
# Each cmd_* computes and returns (tables, summary): the tables as
# (destination, header, columns[, comments]) in the order they are written,
# and the summary printed to stderr.  run() does all of the output.


def cmd_validate(args):
    config = devicemodel.load_config(args.config)
    eta_d = devicemodel.detection_efficiency(config.detection)
    return [], "config ok: eta_d={} kappa_ext={} rad/s kappa_12={} rad/s".format(
        format_value(eta_d),
        format_value(config.kappa_ext),
        format_value(config.kappa_12),
    )


def cmd_transmission(args):
    config = devicemodel.load_config(args.config)
    if args.omega is not None:
        grid = args.omega
    else:
        grid = spectra.default_scan_grid(config, args.p1, args.p2,
                                         margin_linewidths=args.margin_linewidths,
                                         n_points=args.points)
    trace = spectra.compute_trace(config, args.p1, args.p2, grid)
    dips = spectra.find_dips(trace)
    tables = [(args.out, ["omega_rad_s", "t_power"], (trace.omega_grid, trace.t_power))]
    if args.dip_report is not None:
        rows = []
        for dip in dips:
            if dip.overlapping:
                regime, eta = spectra.REGIME_INDETERMINATE, float("nan")
            else:
                regime = spectra.classify_regime(config, (args.p1, args.p2), dip)
                eta = spectra.eta_c_from_tmin(dip.t_min, regime)
            rows.append((dip.omega_center, dip.t_min, dip.fwhm, regime, eta))
        header = ["omega_center_rad_s", "t_min", "fwhm_rad_s", "regime", "eta_c"]
        columns = list(zip(*rows)) or [()] * len(header)  # no dips: the header
        tables.append((args.dip_report, header, columns))
    return tables, f"transmission: {trace.omega_grid.size} points, {len(dips)} dip(s)"


def cmd_crossing_sweep(args):
    config = devicemodel.load_config(args.config)
    omega1 = devicemodel.ring_frequency(config.ring1, args.p1)
    omega2 = devicemodel.ring_frequency(config.ring2, args.p2)
    mean, _, radius = supermodes.crossing_geometry(omega1, omega2, config.kappa_12)
    omega = np.column_stack([mean - radius, mean + radius]).ravel()
    min_split = float(np.min(omega[1::2] - omega[0::2]))
    summary = f"crossing-sweep: {2 * args.p1.size} rows, minimum splitting {format_value(min_split)} rad/s"
    return [(args.out, ["p1_mw", "p2_mw", "branch", "resonance_rad_s"], (
        np.repeat(args.p1, 2), args.p2, ("lower", "upper") * args.p1.size, omega,
    ))], summary


def cmd_etac_sweep(args):
    config = devicemodel.load_config(args.config)
    sol = supermodes.eta_c_vs_heater(config, args.branch, args.p1, args.p2)
    summary = "etac-sweep: eta_c from {} to {} over {} points".format(
        format_value(float(sol.eta_c[0])), format_value(float(sol.eta_c[-1])), sol.eta_c.size
    )
    return [(args.out, ["p1_mw", "omega_rad_s", "eta_c", "tau_c_s"],
             (args.p1, sol.omega, sol.eta_c, sol.tau_c))], summary


def cmd_squeeze_sweep(args):
    config = devicemodel.load_config(args.config)
    omega_sideband = 2.0 * math.pi * args.sideband_mhz * 1e6
    sweep = squeezing.squeezing_vs_coupling(config, args.branch, args.p1, args.p2, omega_sideband)
    summary = "squeeze-sweep: at eta_c={} measured {} dB, on-chip {} dB".format(
        format_value(float(sweep.eta_c[-1])),
        format_value(float(sweep.s_measured_db[-1])),
        format_value(float(sweep.s_onchip_db[-1])),
    )
    return [(args.out, ["eta_c", "s_measured_db", "s_onchip_db", "omega_sideband_hz", "tau_c_s"], (
        sweep.eta_c, sweep.s_measured_db, sweep.s_onchip_db, sweep.omega_sideband_hz, sweep.tau_c_s,
    ))], summary


def cmd_squeeze_spectrum(args):
    s = squeezing.squeezing_level(args.eta_c, args.eta_d, args.tau_c, 2.0 * math.pi * args.f)
    s_db = squeezing.db_from_linear(s)
    i = int(np.argmin(s_db))
    summary = f"squeeze-spectrum: minimum {format_value(float(s_db[i]))} dB at f={format_value(float(args.f[i]))} Hz"
    return [(args.out, ["f_hz", "s_linear", "s_db", "squeezing_factor_db"], (args.f, s, s_db, -s_db))], summary


def cmd_langevin_verify(args):
    config = devicemodel.load_config(args.config)
    sol = supermodes.solve_branch(config, args.p1, args.p2, args.branch)
    gamma_total = sol.kappa_eff + sol.gamma_eff
    dt = args.dt_factor / gamma_total
    n_steps = (args.segments + 1) * (SEGMENT_SAMPLES // 2)
    run = langevin.LangevinRun(
        gamma_total=gamma_total,
        kappa_eff=sol.kappa_eff,
        dt=dt,
        duration=n_steps * dt,
        n_trajectories=args.trajectories,
        seed=args.seed,
    )
    simulated = langevin.averaged_output_psd(run, args.segments)
    analytic = langevin.analytic_psd(run.kappa_eff, run.gamma_total, simulated.freq_grid)
    band = 2.0 * math.pi * simulated.freq_grid <= 3.0 * gamma_total
    diff_db = 10.0 * np.log10(simulated.psd_normalized[band] / analytic.psd_normalized[band])
    max_diff = float(np.max(np.abs(diff_db)))
    metadata = [
        f"seed={run.seed}",
        f"dt={format_value(run.dt)}",
        f"duration={format_value(run.duration)}",
        f"n_trajectories={run.n_trajectories}",
        f"gamma_total={format_value(run.gamma_total)}",
        f"kappa_eff={format_value(run.kappa_eff)}",
    ]
    psd = simulated.psd_normalized
    summary = (
        "langevin-verify: max |simulated - analytic| = {} dB over {} frequencies "
        "(omega <= 3*gamma_total), eta_c={}".format(
            format_value(max_diff), int(band.sum()), format_value(run.eta_c)
        )
    )
    return [(args.out, ["freq_hz", "psd_shotnoise_units", "psd_db"],
             (simulated.freq_grid, psd, squeezing.db_from_linear(psd)), metadata)], summary


def cmd_shot_cal(args):
    powers, psd = zip(*langevin.shot_noise_calibration(args.powers, duration=args.samples, seed=args.seed))
    fit = fitters.weighted_linear_fit(powers, psd)
    summary = "shot-cal: slope={} r_squared={} (line through origin)".format(
        format_value(fit.slope), format_value(fit.r_squared)
    )
    return [(args.out, ["power", "psd_level"], (powers, psd))], summary


def cmd_fit_crossing(args):
    data = fitters.CrossingDataset(**_load_columns(
        args.data, {"p1_mw": float, "p2_mw": float, "branch": str, "resonance_rad_s": float},
        "resonance_rad_s", "resonance_nm",
    ))
    result = fitters.fit_avoided_crossing(
        data,
        initial=dict(args.init or ()),
        fixed=dict(args.fix or ()),
    )
    names = fitters.CROSSING_PARAMS
    values, errors = [result.params[name] for name in names], [result.stderr[name] for name in names]
    lines = [f"fit-crossing: converged in {result.n_iterations} iterations, "
             f"residual_rms={format_value(result.residual_rms)} rad/s"]
    for name, value, err in zip(names, values, errors):
        lines.append(f"  {name:>10s} = {format_value(value)} +- {format_value(err)}")
    return [(args.out, ["param", "value", "stderr"], (names, values, errors))], "\n".join(lines)


def cmd_fit_dip(args):
    columns = _load_columns(args.data, {"omega_rad_s": float, "t_power": float}, "omega_rad_s", "wavelength_nm")
    order = np.argsort(columns["omega_rad_s"])
    omega, t = columns["omega_rad_s"][order], columns["t_power"][order]
    result = fitters.fit_lorentzian_dip(omega, t, args.window if args.window is not None else (0, omega.size))
    note = " (model mismatch: structured residuals)" if result.mismatch_warning else ""
    summary = f"fit-dip: converged in {result.n_iterations} iterations, t_min={format_value(result.t_min)}{note}"
    return [(args.out, ["param", "value", "stderr"], (
        ("omega0_rad_s", "t_min", "fwhm_rad_s", "baseline"),
        (result.omega0, result.t_min, result.fwhm, result.baseline),
        [result.stderr[name] for name in ("omega0", "t_min", "fwhm", "baseline")],
    ))], summary


# --- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ringlab parser, built on the first call and shared by every later one.

    Each command is set as the name of its cmd_* function, made from the
    command's name and looked up when it runs, so a cmd_* replaced on this
    module, before or after the build, is the one called.
    """
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Coupled double-ring OPO simulator: supermodes, transmission, "
        "intensity-difference squeezing, stochastic verification, parameter fits.",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text, columns=None):
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text + (f"\n\noutput columns: {', '.join(columns)}" if columns else ""),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        # "-1e-8" and "-.5:0:0.1" are values, not options: no ringlab option starts that way
        p._negative_number_matcher = NEGATIVE_NUMBER
        p.set_defaults(func="cmd_" + name.replace("-", "_"))
        return p

    p = add("validate", "Validate a device config file and print its composite efficiency.")
    p.add_argument("--config", required=True)

    p = add("transmission", "Bus transmission spectrum at one heater setting.",
            ["omega_rad_s", "t_power"])
    p.add_argument("--config", required=True)
    p.add_argument("--p1", type=finite_float, required=True, help="ring-1 heater power, mW")
    p.add_argument("--p2", type=finite_float, required=True, help="ring-2 heater power, mW")
    p.add_argument("--omega", type=parse_range, default=None,
                   help="probe grid start:stop:step in rad/s (default: auto around both dips)")
    p.add_argument("--margin-linewidths", type=positive_float, default=10.0)
    p.add_argument("--points", type=trace_points, default=4001)
    p.add_argument("--dip-report", default=None,
                   help="also write dip CSV: omega_center_rad_s,t_min,fwhm_rad_s,regime,eta_c")
    p.add_argument("--out", default="-")

    p = add("crossing-sweep", "Both supermode branch frequencies versus ring-1 heater power.",
            ["p1_mw", "p2_mw", "branch", "resonance_rad_s"])
    p.add_argument("--config", required=True)
    p.add_argument("--p1", type=parse_range, required=True, help="heater grid start:stop:step, mW")
    p.add_argument("--p2", type=finite_float, required=True)
    p.add_argument("--out", default="-")

    p = add("etac-sweep", "Coupling efficiency along one branch versus ring-1 heater power.",
            ["p1_mw", "omega_rad_s", "eta_c", "tau_c_s"])
    p.add_argument("--config", required=True)
    p.add_argument("--branch", choices=["upper", "lower"], required=True)
    p.add_argument("--p1", type=parse_range, required=True)
    p.add_argument("--p2", type=finite_float, required=True)
    p.add_argument("--out", default="-")

    p = add("squeeze-sweep", "Measured and inferred on-chip squeezing along a heater sweep.",
            ["eta_c", "s_measured_db", "s_onchip_db", "omega_sideband_hz", "tau_c_s"])
    p.add_argument("--config", required=True)
    p.add_argument("--branch", choices=["upper", "lower"], required=True)
    p.add_argument("--p1", type=parse_range, required=True)
    p.add_argument("--p2", type=finite_float, required=True)
    p.add_argument("--sideband-mhz", type=finite_float, default=3.0)
    p.add_argument("--out", default="-")

    p = add("squeeze-spectrum", "Squeezing spectrum versus sideband frequency for given efficiencies.",
            ["f_hz", "s_linear", "s_db", "squeezing_factor_db"])
    p.add_argument("--eta-c", type=finite_float, required=True)
    p.add_argument("--eta-d", type=finite_float, required=True)
    p.add_argument("--tau-c", type=finite_float, required=True, help="photon lifetime, s")
    p.add_argument("--f", type=parse_range, required=True, help="sideband grid start:stop:step, Hz")
    p.add_argument("--out", default="-")

    p = add("langevin-verify", "Stochastic verification of the squeezing spectrum at one operating point.",
            ["freq_hz", "psd_shotnoise_units", "psd_db"])
    p.add_argument("--config", required=True)
    p.add_argument("--branch", choices=["upper", "lower"], default="lower")
    p.add_argument("--p1", type=finite_float, default=50.0)
    p.add_argument("--p2", type=finite_float, default=10.0)
    p.add_argument("--seed", type=non_negative_int, default=12345)
    p.add_argument("--trajectories", type=positive_int, default=200)
    p.add_argument("--segments", type=welch_segments, default=94, help="Welch segments per trajectory")
    p.add_argument("--dt-factor", type=finite_float, default=0.01, help="time step in units of 1/gamma_total")
    p.add_argument("--out", default="-")

    p = add("shot-cal", "Simulated balanced-detection shot-noise calibration versus power.",
            ["power", "psd_level"])
    p.add_argument("--powers", type=parse_powers, default="1,2,4,8", help="comma-separated powers")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--samples", type=shot_cal_samples, default=16384.0, help="samples per power")
    p.add_argument("--out", default="-")

    p = add("fit-crossing", "Fit the avoided-crossing model to branch resonance data "
            "(CSV: p1_mw,p2_mw,branch,resonance_rad_s or resonance_nm).",
            ["param", "value", "stderr"])
    p.add_argument("--data", required=True)
    p.add_argument("--fix", action="append", type=parse_assignment, metavar="NAME=VALUE",
                   help="hold a parameter fixed (repeatable)")
    p.add_argument("--init", action="append", type=parse_assignment, metavar="NAME=VALUE",
                   help="override the automatic starting value (repeatable)")
    p.add_argument("--out", default="-")

    p = add("fit-dip", "Fit one Lorentzian dip in a trace CSV (omega_rad_s,t_power or wavelength_nm,t_power).",
            ["param", "value", "stderr"])
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=parse_index_range, default=None, help="index window start:stop")
    p.add_argument("--out", default="-")

    return parser


def _error(category: str, exc: Exception) -> None:
    message = " ".join(str(exc).split())
    print(f"ringlab: error: {category}: {message}", file=sys.stderr)


def run(argv=None) -> int:
    """Execute one command line; returns the process exit status.

    The command runs with numpy float errors raised, so an overflow or an
    invalid value anywhere in it is one exit-5 line, not a warning.  Only
    then are its tables written, moved into place and its summary printed.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    staged = {}  # {temporary: destination} of each file written
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            tables, summary = globals()[args.func](args)
        for table in tables:
            _write_table(staged, *table)
        for temporary, target in list(staged.items()):
            os.replace(temporary, target)
            del staged[temporary]
        print(summary, file=sys.stderr)
        return 0
    except ConfigError as exc:
        _error("config", exc)
        return 3
    except (DataError, OSError) as exc:
        _error("data", exc)
        return 4
    except (FitError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _error("numeric", exc)
        return 5
    finally:
        for temporary in staged:  # left by a failure
            os.remove(temporary)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
