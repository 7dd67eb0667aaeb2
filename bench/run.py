"""ringlab benchmark: one workload, one seed, one timed or traced run.

    python3 bench/run.py --workload sweep-dense --seed 1 --seconds 20 --trace 0

Run it from the root of a ringlab checkout; it reads src/ringlab and
device.cfg there and keeps its files under .bench_out/.  The workload
runs in a fresh worker process (worker.py) as a single closed-loop
client: this process sends one ``ringlab.cli.run`` invocation, waits for
it to finish, checks its output against reference.py, and only then sends
the next.  Whole cycles of the workload's operations run until
``--seconds`` have passed.  Cycle 0 is then replayed in a second fresh
process, and an operation whose output bytes differ counts as failed.

``--trace 0`` reports the end-to-end metrics.  Throughputs are medians
over cycles, latency the median over operations, and set-up time the
median over that run's worker processes and a few set-up-only ones.
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import CheckFailed, count_rows, read_device
from workloads import WORKLOADS, Context, Op

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
SETUP_ONLY_PROCESSES = 4   # besides the timed and replay workers; one more warms caches first
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Worker:
    """A worker.py process driven over JSON lines."""

    def __init__(self, workdir: Path, src: Path, config: str, trace_out: Path | None = None):
        nproc = str(len(os.sched_getaffinity(0)))
        env = dict(os.environ, **{var: nproc for var in THREAD_VARS})
        cmd = [sys.executable, str(HERE / "worker.py"), str(src), config]
        if trace_out is not None:
            cmd.append(str(trace_out))
        self.proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.setup_s = self._read()["setup_s"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def run(self, argv: list[str], trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        self.proc.stdin.close()
        summary = self._read()
        self.proc.wait(timeout=60)
        return summary

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


@dataclass
class Outcome:
    name: str
    cycle: int
    traced: bool
    latency_s: float
    rows: int
    digest: str
    failed: bool
    wrong: str | None
    reply: dict


def execute(worker: Worker, workdir: Path, op: Op, cycle: int, traced: bool) -> Outcome:
    for name in op.outputs:
        (workdir / name).unlink(missing_ok=True)
    for name, text in op.inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    reply = worker.run(op.argv, traced)
    digest = hashlib.sha256(json.dumps([reply["exit"], reply["stderr"]]).encode())
    present = [name for name in op.outputs if (workdir / name).is_file()]
    for name in present:
        digest.update((workdir / name).read_bytes())
    failed = reply["exit"] != op.expect_exit
    wrong = None
    if not failed:
        try:
            op.check(workdir, reply["stderr"])
        except CheckFailed as exc:
            wrong = str(exc)
    rows = sum(count_rows(workdir / name) for name in (*present, *op.reads))
    return Outcome(op.name, cycle, traced, reply["latency_s"], rows, digest.hexdigest(), failed, wrong, reply)


def run_cycles(worker: Worker, workdir: Path, workload, ctx: Context, seed: int,
               until: float | None, alternate: bool) -> list[Outcome]:
    """Whole cycles until the clock passes `until` (one cycle when None)."""
    outcomes, cycle = [], 0
    while True:
        traced = alternate and cycle % 2 == 1
        for op in workload(ctx, np.random.default_rng([seed, cycle])):
            outcomes.append(execute(worker, workdir, op, cycle, traced))
        cycle += 1
        if until is None or (time.perf_counter() >= until and not (alternate and cycle % 2)):
            return outcomes


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def per_second(outcomes: list[Outcome], amount) -> float:
    """Median over cycles of amount(cycle's operations) / cycle's operation time."""
    cycles: dict[int, list[Outcome]] = {}
    for o in outcomes:
        cycles.setdefault(o.cycle, []).append(o)
    return statistics.median(amount(ops) / sum(o.latency_s for o in ops) for ops in cycles.values())


def end_to_end(outcomes: list[Outcome], setup: list[float], peak_kib: int) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (per_second(outcomes, len), "1/s"),
        "op_p50_s": (statistics.median(o.latency_s for o in outcomes), "s"),
        "rows_per_s": (per_second(outcomes, lambda ops: sum(o.rows for o in ops)), "1/s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


# per-layer metric -> stage keys (times) or counter key, averaged per traced operation
LAYER_TIMES = {
    "cli.self_s": ("cli.parse", "cli.command"),
    "cli.parse_s": ("cli.parse",),
    "devicemodel.self_s": ("devicemodel.load_config", "devicemodel.other"),
    "devicemodel.load_config_s": ("devicemodel.load_config",),
    "supermodes.self_s": ("supermodes.solve",),
    "squeezing.self_s": ("squeezing.level",),
    "spectra.trace_s": ("spectra.trace",),
    "spectra.find_dips_s": ("spectra.find_dips",),
    "spectra.classify_s": ("spectra.classify",),
    "fitters.self_s": ("fitters.fit",),
    "langevin.self_s": ("langevin.rng", "langevin.filter", "langevin.welch", "langevin.reduce",
                        "langevin.analytic", "langevin.shot_cal"),
    "langevin.rng_s": ("langevin.rng",),
    "langevin.filter_s": ("langevin.filter",),
    "langevin.welch_s": ("langevin.welch",),
    "langevin.reduce_s": ("langevin.reduce",),
    "csvio.self_s": ("csvio.write", "csvio.read", "csvio.format"),
    "csvio.write_s": ("csvio.write",),
    "csvio.read_s": ("csvio.read",),
}
LAYER_COUNTS = (
    "supermodes.points", "squeezing.points", "spectra.points", "spectra.dips", "fitters.fits",
    "fitters.iterations", "langevin.trajectories", "langevin.samples", "langevin.segments",
    "csvio.rows_written", "csvio.bytes_written", "csvio.rows_read",
)


def per_layer(outcomes: list[Outcome]) -> dict:
    traced = [o for o in outcomes if o.traced]
    plain = [o for o in outcomes if not o.traced]
    n = len(traced)
    metrics = {}
    for name, keys in LAYER_TIMES.items():
        total = sum(o.reply["self_s"].get(k, 0.0) for o in traced for k in keys)
        metrics[name] = (total / n, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (sum(o.reply["counts"].get(name, 0) for o in traced) / n, "count")
    metrics["trace.op_s"] = (sum(o.latency_s for o in traced) / n, "s")
    metrics["trace.ops_per_s_delta"] = (per_second(traced, len) - per_second(plain, len), "1/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ringlab" / "cli.py").is_file() or not (root / "device.cfg").is_file():
        print("bench: run from the root of a ringlab checkout (no src/ringlab/cli.py or device.cfg here)",
              file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    config_text = (root / "device.cfg").read_text(encoding="utf-8")
    base = root / OUT_DIR
    tag = f"{args.workload}-seed{args.seed}"
    workdir = fresh_dir(base / tag / "timed")
    replay_dir = fresh_dir(base / tag / "replay")
    config = os.path.relpath(root / "device.cfg", workdir)
    ctx = Context(read_device(config_text), config, config_text)
    trace = bool(args.trace)

    setup = []
    if not trace:
        for i in range(SETUP_ONLY_PROCESSES + 1):
            with Worker(workdir, src, config) as w:
                if i:  # the first start only warms the file and bytecode caches
                    setup.append(w.setup_s)
                w.finish()

    trace_out = base / f"trace-{tag}.json" if trace else None
    with Worker(workdir, src, config, trace_out) as w:
        setup.append(w.setup_s)
        outcomes = run_cycles(w, workdir, workload, ctx, args.seed, time.perf_counter() + args.seconds, trace)
        peak_kib = w.finish()["peak_rss_kib"]
    with Worker(replay_dir, src, config) as w:
        setup.append(w.setup_s)
        replay = run_cycles(w, replay_dir, workload, ctx, args.seed, None, False)
        w.finish()

    for first, again in zip(outcomes, replay):
        if first.digest != again.digest:
            first.failed = True
            print(f"bench: {first.name} in cycle 0 gave different output bytes in a second process",
                  file=sys.stderr)
    wrong = [o for o in outcomes if o.wrong and not o.failed]
    for o in wrong[:5]:
        print(f"bench: wrong output from {o.name} (cycle {o.cycle}): {o.wrong}", file=sys.stderr)
    shutil.rmtree(base / tag, ignore_errors=True)

    metrics = per_layer(outcomes) if trace else end_to_end(outcomes, setup, peak_kib)
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
