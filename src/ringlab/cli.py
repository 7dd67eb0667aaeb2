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
import contextlib
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
MAX_SEGMENTS = RANGE_MAX_POINTS // (SEGMENT_SAMPLES // 2) - 1  # the longest trajectory fits the range cap
LONGEST_TRAJECTORY = (MAX_SEGMENTS + 1) * (SEGMENT_SAMPLES // 2)  # samples
# Samples over all trajectories of one langevin-verify run: the default 200
# trajectories at the longest trajectory, about 51 times the default run.
MONTE_CARLO_MAX_SAMPLES = 200 * RANGE_MAX_POINTS
# transmission's auto grid reaches this many linewidths past each dip.  The
# transmission is 1 to double precision far short of it, and stays finite
# there for rates below 1e50 rad/s (kappa_ext * detuning below 1e300).
MARGIN_MAX_LINEWIDTHS = 1e200
# shot-cal's positive powers lie here, so the calibration's sum of squared
# powers is a finite, normal float64 (each square in [1e-300, 1e300])
POWER_RANGE = (1e-150, 1e150)
NEGATIVE_NUMBER = re.compile(r"^-\.?\d")  # an argument that starts so is a value
DIP_REPORT_COLUMNS = ("omega_center_rad_s", "t_min", "fwhm_rad_s", "regime", "eta_c")
# The tables fit-crossing and fit-dip read, which crossing-sweep and transmission
# write: ({column: kind}, the frequency column in rad/s, the column of vacuum
# wavelengths in nm that may be given in its place)
CROSSING_TABLE = ({"p1_mw": float, "p2_mw": float, "branch": str, "resonance_rad_s": float},
                  "resonance_rad_s", "resonance_nm")
TRACE_TABLE = ({"omega_rad_s": float, "t_power": float}, "omega_rad_s", "wavelength_nm")
FIT_COLUMNS = ("param", "value", "stderr")  # the table of both fits

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
margin_linewidths = _checked(positive_float, lambda value: value <= MARGIN_MAX_LINEWIDTHS,
                             f"at most {MARGIN_MAX_LINEWIDTHS:g}")
# Sample budgets share the range cap, so a series too long to hold is refused before any allocation:
# the points of a trace, and the samples of one trajectory, (segments + 1) * SEGMENT_SAMPLES/2
trace_points = _checked(positive_int, lambda value: value <= RANGE_MAX_POINTS, f"at most {RANGE_MAX_POINTS}")
welch_segments = _checked(positive_int, lambda value: value <= MAX_SEGMENTS,
                          f"at most {MAX_SEGMENTS}, so a trajectory has at most {RANGE_MAX_POINTS} samples")


def _lasts_long_enough(samples: int, dt_factor: float) -> bool:
    """Whether a trajectory of `samples` steps of dt_factor/gamma_total lasts
    langevin.MIN_DURATION_FACTOR/gamma_total, counted exactly, in integers."""
    p, q = dt_factor.as_integer_ratio()
    return samples * p >= langevin.MIN_DURATION_FACTOR * q


# The smallest time step at which the longest trajectory lasts long enough
LEAST_DT_FACTOR = langevin.MIN_DURATION_FACTOR / LONGEST_TRAJECTORY
if not _lasts_long_enough(LONGEST_TRAJECTORY, LEAST_DT_FACTOR):
    LEAST_DT_FACTOR = math.nextafter(LEAST_DT_FACTOR, math.inf)
dt_factor = _checked(
    _checked(positive_float, lambda value: _lasts_long_enough(LONGEST_TRAJECTORY, value),
             f"at least {LEAST_DT_FACTOR!r}, so a trajectory of at most {MAX_SEGMENTS} segments "
             f"lasts at least {langevin.MIN_DURATION_FACTOR}/gamma_total"),
    lambda value: value <= langevin.MAX_DT_FACTOR, f"at most {langevin.MAX_DT_FACTOR}")
# shot-cal rounds --samples to a count, which must fill its Welch segments
shot_cal_samples = _checked(
    _checked(positive_float, lambda value: round(value) >= langevin.SHOT_CAL_MIN_SAMPLES,
             f"at least {langevin.SHOT_CAL_MIN_SAMPLES}"),
    lambda value: round(value) <= RANGE_MAX_POINTS, f"at most {RANGE_MAX_POINTS}")


def _langevin_run_bounds(args) -> str | None:
    """The usage error of a langevin-verify run of more than
    MONTE_CARLO_MAX_SAMPLES samples over all its trajectories, or of
    trajectories shorter than langevin.MIN_DURATION_FACTOR/gamma_total,
    else None.  Both bounds are counted exactly, in integers."""
    samples = (args.segments + 1) * (SEGMENT_SAMPLES // 2)  # of one trajectory
    most = MONTE_CARLO_MAX_SAMPLES // samples
    if args.trajectories > most:
        return (f"argument --trajectories: must be at most {most} at --segments {args.segments}, "
                f"so a run has at most {MONTE_CARLO_MAX_SAMPLES} samples: {str(args.trajectories)!r}")
    if _lasts_long_enough(samples, args.dt_factor):
        return None
    p, q = args.dt_factor.as_integer_ratio()
    least = -(-langevin.MIN_DURATION_FACTOR * q // (p * (SEGMENT_SAMPLES // 2))) - 1  # <= MAX_SEGMENTS by dt_factor
    return (f"argument --segments: must be at least {least} at --dt-factor {args.dt_factor}, "
            f"so a trajectory lasts at least {langevin.MIN_DURATION_FACTOR}/gamma_total: {str(args.segments)!r}")


def _distinct_outputs(args) -> str | None:
    """The usage error of a --dip-report naming the --out file, symlinks followed, else None ('-' is stdout)."""
    report = args.dip_report
    if report not in (None, "-") and args.out != "-" and os.path.realpath(report) == os.path.realpath(args.out):
        return f"argument --dip-report: must not name the --out file: {report!r}"
    return None


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command.  Its `check`, if set, sees the whole parsed
    namespace, for a bound that joins several flags, and returns the usage
    error to report, or None."""

    check = None

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        problem = self.check and self.check(namespace)
        if problem:
            self.error(problem)
        return namespace, extras


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
    """Row indices start:stop with 0 <= start < stop; stop may lie past the last row."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"window must be start:stop, got {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"window indices must be integers: {text!r}") from None
    if not 0 <= start < stop:
        raise argparse.ArgumentTypeError(f"window must have 0 <= start < stop, got {text!r}")
    return start, stop


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
    """Comma-separated powers, each 0 or in POWER_RANGE; empty entries are
    skipped.  The calibration line through the origin needs two of them,
    one positive."""
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
    low, high = POWER_RANGE
    if not all(p == 0 or low <= p <= high for p in powers):
        raise argparse.ArgumentTypeError(f"powers must be 0 or within [{low:g}, {high:g}]: {text!r}")
    return powers


def _table_help(table: tuple[dict[str, type], str, str]) -> str:
    """The header of CROSSING_TABLE or TRACE_TABLE, "or", then the header
    from the frequency column on with the wavelength column in its place."""
    schema, frequency, wavelength = table
    names = list(schema)
    return f"{','.join(names)} or {','.join([wavelength, *names[names.index(frequency) + 1:]])}"


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


def _load_columns(path: str, table: tuple[dict[str, type], str, str]) -> dict:
    """Columns of a CSV file that holds CROSSING_TABLE or TRACE_TABLE, its
    frequency column (rad/s) given as such or as vacuum wavelengths (nm),
    converted here.  A frequency that is not positive, and a wavelength
    that is not positive or too short for a finite frequency, is a
    DataError naming the first such cell (-0.0 included).
    """
    schema, frequency, wavelength = table
    columns = load_csv(path, schema, {frequency: wavelength})
    if wavelength not in columns:
        devicemodel.reject(columns[frequency] <= 0, columns[frequency],
                           lambda v: f"{path}: column {frequency!r}: frequency must be positive, got {v!r}", DataError)
        return columns
    nm = columns.pop(wavelength)
    devicemodel.reject(nm <= 0, nm,
                       lambda v: f"{path}: column {wavelength!r}: wavelength must be positive, got {v!r}", DataError)
    with np.errstate(over="ignore"):  # a wavelength this short is refused next
        columns[frequency] = devicemodel.pump_angular_frequency(nm)
    devicemodel.reject(np.isinf(columns[frequency]), nm, lambda v: f"{path}: column {wavelength!r}: "
                       f"wavelength too short for a finite frequency, got {v!r}", DataError)
    return columns


# --- commands -----------------------------------------------------------------
#
# Each cmd_* computes and returns (tables, summary): the tables as
# (destination, header, columns[, comments]) in the order they are written,
# and the summary printed to stderr.  run() does all of the output.  The
# header of a command's --out table is args.columns, declared in build_parser.


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
    tables = [(args.out, args.columns, (trace.omega_grid, trace.t_power))]
    if args.dip_report is not None:
        rows = []
        for dip in dips:
            if dip.overlapping:
                regime, eta = spectra.REGIME_INDETERMINATE, float("nan")
            else:
                regime = spectra.classify_regime(config, (args.p1, args.p2), dip)
                eta = spectra.eta_c_from_tmin(dip.t_min, regime)
            rows.append((dip.omega_center, dip.t_min, dip.fwhm, regime, eta))
        columns = list(zip(*rows)) or [()] * len(DIP_REPORT_COLUMNS)  # no dips: the header
        tables.append((args.dip_report, DIP_REPORT_COLUMNS, columns))
    return tables, f"transmission: {trace.omega_grid.size} points, {len(dips)} dip(s)"


def cmd_crossing_sweep(args):
    config = devicemodel.load_config(args.config)
    omega1 = devicemodel.ring_frequency(config.ring1, args.p1)
    omega2 = devicemodel.ring_frequency(config.ring2, args.p2)
    mean, _, radius = supermodes.crossing_geometry(omega1, omega2, config.kappa_12)
    omega = np.column_stack([mean - radius, mean + radius]).ravel()
    min_split = float(np.min(omega[1::2] - omega[0::2]))
    summary = f"crossing-sweep: {2 * args.p1.size} rows, minimum splitting {format_value(min_split)} rad/s"
    columns = (np.repeat(args.p1, 2), args.p2, ("lower", "upper") * args.p1.size, omega)
    return [(args.out, args.columns, columns)], summary


def cmd_etac_sweep(args):
    config = devicemodel.load_config(args.config)
    sol = supermodes.eta_c_vs_heater(config, args.branch, args.p1, args.p2)
    summary = "etac-sweep: eta_c from {} to {} over {} points".format(
        format_value(float(sol.eta_c[0])), format_value(float(sol.eta_c[-1])), sol.eta_c.size
    )
    return [(args.out, args.columns, (args.p1, sol.omega, sol.eta_c, sol.tau_c))], summary


def cmd_squeeze_sweep(args):
    config = devicemodel.load_config(args.config)
    omega_sideband = 2.0 * math.pi * args.sideband_mhz * 1e6
    sweep = squeezing.squeezing_vs_coupling(config, args.branch, args.p1, args.p2, omega_sideband)
    summary = "squeeze-sweep: at eta_c={} measured {} dB, on-chip {} dB".format(
        format_value(float(sweep.eta_c[-1])),
        format_value(float(sweep.s_measured_db[-1])),
        format_value(float(sweep.s_onchip_db[-1])),
    )
    return [(args.out, args.columns, (
        sweep.eta_c, sweep.s_measured_db, sweep.s_onchip_db, sweep.omega_sideband_hz, sweep.tau_c_s,
    ))], summary


def cmd_squeeze_spectrum(args):
    s = squeezing.squeezing_level(args.eta_c, args.eta_d, args.tau_c, 2.0 * math.pi * args.f)
    s_db = squeezing.db_from_linear(s)
    i = int(np.argmin(s_db))
    summary = f"squeeze-spectrum: minimum {format_value(float(s_db[i]))} dB at f={format_value(float(args.f[i]))} Hz"
    return [(args.out, args.columns, (args.f, s, s_db, -s_db))], summary


def cmd_langevin_verify(args):
    config = devicemodel.load_config(args.config)
    sol = supermodes.solve_branch(config, args.p1, args.p2, args.branch)
    gamma_total = sol.kappa_eff + sol.gamma_eff
    run = langevin.LangevinRun(
        gamma_total=gamma_total,
        kappa_eff=sol.kappa_eff,
        dt=args.dt_factor / gamma_total,
        n_steps=(args.segments + 1) * (SEGMENT_SAMPLES // 2),
        n_trajectories=args.trajectories,
        seed=args.seed,
    )
    simulated = langevin.averaged_output_psd(run, args.segments)
    analytic = langevin.analytic_psd(run.kappa_eff, run.gamma_total, simulated.freq_grid)
    band = 2.0 * math.pi * simulated.freq_grid <= 3.0 * gamma_total
    diff_db = squeezing.db_from_linear(simulated.psd_normalized[band] / analytic.psd_normalized[band])
    max_diff = float(np.max(np.abs(diff_db)))
    metadata = [
        f"seed={run.seed}",
        f"dt={format_value(run.dt)}",
        f"duration={format_value(run.n_steps * run.dt)}",
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
    return [(args.out, args.columns, (simulated.freq_grid, psd, squeezing.db_from_linear(psd)), metadata)], summary


def cmd_shot_cal(args):
    powers, psd = zip(*langevin.shot_noise_calibration(args.powers, round(args.samples), args.seed))
    fit = fitters.weighted_linear_fit(powers, psd)
    summary = "shot-cal: slope={} r_squared={} (line through origin)".format(
        format_value(fit.slope), format_value(fit.r_squared)
    )
    return [(args.out, args.columns, (powers, psd))], summary


def cmd_fit_crossing(args):
    data = fitters.CrossingDataset(**_load_columns(args.data, CROSSING_TABLE))
    result = fitters.fit_avoided_crossing(
        data,
        initial=dict(args.init or ()),
        fixed=dict(args.fix or ()),
    )
    names, values, errors = list(result.params), list(result.params.values()), list(result.stderr.values())
    lines = [f"fit-crossing: converged in {result.n_iterations} iterations, "
             f"residual_rms={format_value(result.residual_rms)} rad/s"]
    for name, value, err in zip(names, values, errors):
        lines.append(f"  {name:>10s} = {format_value(value)} +- {format_value(err)}")
    return [(args.out, args.columns, (names, values, errors))], "\n".join(lines)


def cmd_fit_dip(args):
    columns = _load_columns(args.data, TRACE_TABLE)
    omega, t = columns["omega_rad_s"], columns["t_power"]
    if not np.all(omega[1:] > omega[:-1]):  # an ascending trace, as transmission writes it, is in order
        order = np.argsort(omega)
        omega, t = omega[order], t[order]
    result = fitters.fit_lorentzian_dip(omega, t, args.window if args.window is not None else (0, omega.size))
    note = " (model mismatch: structured residuals)" if result.mismatch_warning else ""
    summary = (f"fit-dip: converged in {result.n_iterations} iterations, "
               f"t_min={format_value(result.params['t_min'])}{note}")
    return [(args.out, args.columns, (
        ("omega0_rad_s", "t_min", "fwhm_rad_s", "baseline"),
        list(result.params.values()), list(result.stderr.values()),
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
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_CommandParser)

    @contextlib.contextmanager
    def add(name, help_text, columns=(), config=True):
        """Declare one command: --config if it reads one, the flags added in the `with` block,
        then --out if it writes a table, whose header `columns` its cmd_* reads as args.columns."""
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text + (f"\n\noutput columns: {', '.join(columns)}" if columns else ""),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        # "-1e-8" and "-.5:0:0.1" are values, not options: no ringlab option starts that way
        p._negative_number_matcher = NEGATIVE_NUMBER
        p.set_defaults(func="cmd_" + name.replace("-", "_"), columns=columns)
        if config:
            p.add_argument("--config", required=True)
        yield p
        if columns:
            p.add_argument("--out", default="-")

    with add("validate", "Validate a device config file and print its composite efficiency."):
        pass

    with add("transmission", "Bus transmission spectrum at one heater setting.", tuple(TRACE_TABLE[0])) as p:
        p.add_argument("--p1", type=finite_float, required=True, help="ring-1 heater power, mW")
        p.add_argument("--p2", type=finite_float, required=True, help="ring-2 heater power, mW")
        p.add_argument("--omega", type=parse_range, default=None,
                       help="probe grid start:stop:step in rad/s (default: auto around both dips)")
        p.add_argument("--margin-linewidths", type=margin_linewidths, default=10.0)
        p.add_argument("--points", type=trace_points, default=4001)
        p.add_argument("--dip-report", default=None, help=f"also write dip CSV: {','.join(DIP_REPORT_COLUMNS)}")
        p.check = _distinct_outputs

    with add("crossing-sweep", "Both supermode branch frequencies versus ring-1 heater power.",
             tuple(CROSSING_TABLE[0])) as p:
        p.add_argument("--p1", type=parse_range, required=True, help="heater grid start:stop:step, mW")
        p.add_argument("--p2", type=finite_float, required=True)

    with add("etac-sweep", "Coupling efficiency along one branch versus ring-1 heater power.",
             ("p1_mw", "omega_rad_s", "eta_c", "tau_c_s")) as p:
        p.add_argument("--branch", choices=["upper", "lower"], required=True)
        p.add_argument("--p1", type=parse_range, required=True)
        p.add_argument("--p2", type=finite_float, required=True)

    with add("squeeze-sweep", "Measured and inferred on-chip squeezing along a heater sweep.",
             ("eta_c", "s_measured_db", "s_onchip_db", "omega_sideband_hz", "tau_c_s")) as p:
        p.add_argument("--branch", choices=["upper", "lower"], required=True)
        p.add_argument("--p1", type=parse_range, required=True)
        p.add_argument("--p2", type=finite_float, required=True)
        p.add_argument("--sideband-mhz", type=finite_float, default=3.0)

    with add("squeeze-spectrum", "Squeezing spectrum versus sideband frequency for given efficiencies.",
             ("f_hz", "s_linear", "s_db", "squeezing_factor_db"), config=False) as p:
        p.add_argument("--eta-c", type=finite_float, required=True)
        p.add_argument("--eta-d", type=finite_float, required=True)
        p.add_argument("--tau-c", type=finite_float, required=True, help="photon lifetime, s")
        p.add_argument("--f", type=parse_range, required=True, help="sideband grid start:stop:step, Hz")

    with add("langevin-verify", "Stochastic verification of the squeezing spectrum at one operating point.",
             ("freq_hz", "psd_shotnoise_units", "psd_db")) as p:
        p.add_argument("--branch", choices=["upper", "lower"], default="lower")
        p.add_argument("--p1", type=finite_float, default=50.0)
        p.add_argument("--p2", type=finite_float, default=10.0)
        p.add_argument("--seed", type=non_negative_int, default=12345)
        p.add_argument("--trajectories", type=positive_int, default=200)
        p.add_argument("--segments", type=welch_segments, default=94, help="Welch segments per trajectory")
        p.add_argument("--dt-factor", type=dt_factor, default=0.01, help="time step in units of 1/gamma_total")
        p.check = _langevin_run_bounds

    with add("shot-cal", "Simulated balanced-detection shot-noise calibration versus power.",
             ("power", "psd_level"), config=False) as p:
        p.add_argument("--powers", type=parse_powers, default="1,2,4,8", help="comma-separated powers")
        p.add_argument("--seed", type=non_negative_int, default=0)
        p.add_argument("--samples", type=shot_cal_samples, default=16384.0, help="samples per power")

    with add("fit-crossing", "Fit the avoided-crossing model to branch resonance data "
             f"(CSV: {_table_help(CROSSING_TABLE)}).", FIT_COLUMNS, config=False) as p:
        p.add_argument("--data", required=True)
        p.add_argument("--fix", action="append", type=parse_assignment, metavar="NAME=VALUE",
                       help="hold a parameter fixed (repeatable)")
        p.add_argument("--init", action="append", type=parse_assignment, metavar="NAME=VALUE",
                       help="override the automatic starting value (repeatable)")

    with add("fit-dip", f"Fit one Lorentzian dip in a trace CSV ({_table_help(TRACE_TABLE)}).",
             FIT_COLUMNS, config=False) as p:
        p.add_argument("--data", required=True)
        p.add_argument("--window", type=parse_index_range, default=None, help="index window start:stop")

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
