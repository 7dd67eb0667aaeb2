"""Per-layer tracing of ringlab from outside the package.

Each public function is replaced, at the name its caller looks up, by a
wrapper that opens a span: ``cli`` imports ``write_csv``, ``load_csv`` and
``format_value`` by name, so those are wrapped in ``ringlab.cli``;
``squeezing`` imports ``eta_c_vs_heater`` and ``spectra`` imports
``solve_both`` and ``ring_frequency``, so those are wrapped there; calls
made through a module (``supermodes.solve_branch``) are wrapped on the
module.  No program file changes.

A span carries a stage key such as ``spectra.find_dips``.  A call made
while a span of the same key is open belongs to that span.  A span's self
time is its duration minus the time covered by its child spans, so each
layer is charged only for its own work.  Spans are folded into per-key
totals as they close, which keeps memory flat over millions of calls;
the worker keeps one record per operation and writes them at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _len_arg(arg: int):
    return lambda counts, key, args, result: counts.__setitem__(key, counts[key] + len(args[arg]))


def _const(n: int):
    return lambda counts, key, args, result: counts.__setitem__(key, counts[key] + n)


def _result_len(counts, key, args, result):
    counts[key] += len(result)


def _fit(counts, key, args, result):
    counts["fitters.fits"] += 1
    counts["fitters.iterations"] += getattr(result, "n_iterations", 0)


def _welch(counts, key, args, result):
    counts["langevin.segments"] += result.n_segments
    counts["langevin.samples"] += len(args[0])


def _trace_points(counts, key, args, result):
    counts[key] += result.omega_grid.size


# (module, attribute, stage key, counter key, counter)
SPANS = [
    ("cli", "run", "cli.parse", None, None),
    *[("cli", f"cmd_{name}", "cli.command", None, None) for name in (
        "validate", "transmission", "crossing_sweep", "etac_sweep", "squeeze_sweep",
        "squeeze_spectrum", "langevin_verify", "shot_cal", "fit_crossing", "fit_dip")],
    ("cli", "write_csv", "csvio.write", None, None),            # rows and bytes counted by _counting_writer
    ("cli", "load_csv", "csvio.read", "csvio.rows_read", _result_len),
    ("cli", "format_value", "csvio.format", None, None),
    ("devicemodel", "load_config", "devicemodel.load_config", None, None),
    ("devicemodel", "detection_efficiency", "devicemodel.other", None, None),
    ("devicemodel", "pump_angular_frequency", "devicemodel.other", None, None),
    ("supermodes", "ring_frequency", "devicemodel.other", None, None),
    ("spectra", "ring_frequency", "devicemodel.other", None, None),
    ("squeezing", "detection_efficiency", "devicemodel.other", None, None),
    ("supermodes", "solve_branch", "supermodes.solve", "supermodes.points", _const(1)),
    ("supermodes", "solve_both", "supermodes.solve", "supermodes.points", _const(2)),
    ("supermodes", "eta_c_vs_heater", "supermodes.solve", "supermodes.points", _len_arg(2)),
    ("squeezing", "eta_c_vs_heater", "supermodes.solve", "supermodes.points", _len_arg(2)),
    ("spectra", "solve_both", "supermodes.solve", "supermodes.points", _const(2)),
    ("squeezing", "squeezing_vs_coupling", "squeezing.level", "squeezing.points", _len_arg(2)),
    ("squeezing", "squeezing_level", "squeezing.level", "squeezing.points", _const(1)),
    ("squeezing", "db_from_linear", "squeezing.level", None, None),
    ("spectra", "default_scan_grid", "spectra.trace", None, None),
    ("spectra", "compute_trace", "spectra.trace", "spectra.points", _trace_points),
    ("spectra", "find_dips", "spectra.find_dips", "spectra.dips", _result_len),
    ("spectra", "classify_regime", "spectra.classify", None, None),
    ("spectra", "eta_c_from_tmin", "spectra.classify", None, None),
    ("fitters", "fit_avoided_crossing", "fitters.fit", None, _fit),
    ("fitters", "fit_lorentzian_dip", "fitters.fit", None, _fit),
    ("fitters", "weighted_linear_fit", "fitters.fit", None, _fit),
    ("langevin", "averaged_output_psd", "langevin.reduce", None, None),
    ("langevin", "simulate_difference_quadrature", "langevin.rng", "langevin.trajectories", _const(1)),
    ("langevin", "integrate_difference_quadrature", "langevin.filter", None, None),
    ("langevin", "output_psd", "langevin.welch", None, _welch),
    ("langevin", "analytic_psd", "langevin.analytic", None, None),
    ("langevin", "shot_noise_calibration", "langevin.shot_cal", None, None),
]


class Tracer:
    """Installs the SPANS wrappers and accumulates self time and counts."""

    def __init__(self, package):
        self.package = package
        self.stack: list[list] = []            # open spans: [key, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def install(self) -> None:
        for module_name, attr, key, count_key, count in SPANS:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            fn = self._counting_writer(original) if key == "csvio.write" else original
            setattr(module, attr, self._wrap(fn, key, count_key, count))
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, key, count_key, count):
        stack, clock = self.stack, time.perf_counter
        self_s, calls, counts = self.self_s, self.calls, self.counts

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            span = [key, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self_s[key] += elapsed - span[1]
                calls[key] += 1
            if count is not None:
                count(counts, count_key, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_writer(self, write_csv):
        counts = self.counts

        def counting_write_csv(stream, columns, rows, comments=()):
            n = 0

            def counted():
                nonlocal n
                for row in rows:
                    n += 1
                    yield row

            write_csv(stream, columns, counted(), comments)
            counts["csvio.rows_written"] += n
            counts["csvio.bytes_written"] += stream.tell()   # every command writes a fresh file

        return counting_write_csv
