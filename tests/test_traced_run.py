"""The benchmark's per-layer tracer (bench/tracing.py) over the CLI.

The tracer replaces each cmd_* and library function it names with a
wrapper.  Installed before the parser is built, it must still see every
command run through its wrapper, the output must be that of an untraced
run, byte for byte, and each wrapped layer must be called.
"""

import importlib.util
import math
from pathlib import Path

import ringlab
from ringlab import cli

ROOT = Path(__file__).resolve().parents[1]
MHZ = 2.0 * math.pi * 1e6


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands(cfg: Path, out: Path) -> list[list[str]]:
    """One small command line per kind of benchmark work, writing into `out`.
    A constant p2 cannot identify ring 2's heater slope, so the crossing
    fit pins it."""
    cfg = str(cfg)
    return [
        ["validate", "--config", cfg],
        ["etac-sweep", "--config", cfg, "--branch", "lower", "--p1", "0:50:0.25", "--p2", "10",
         "--out", str(out / "etac.csv")],
        ["squeeze-sweep", "--config", cfg, "--branch", "upper", "--p1", "0:50:0.25", "--p2", "10",
         "--out", str(out / "squeeze.csv")],
        ["crossing-sweep", "--config", cfg, "--p1", "5:55:2.5", "--p2", "10", "--out", str(out / "crossing.csv")],
        ["transmission", "--config", cfg, "--p1", "40", "--p2", "10", "--points", "4001",
         "--dip-report", str(out / "dips.csv"), "--out", str(out / "trace.csv")],
        ["fit-dip", "--data", str(out / "trace.csv"), "--window", "0:2000", "--out", str(out / "dipfit.csv")],
        ["fit-crossing", "--data", str(out / "crossing.csv"), "--fix", f"alpha2={30.0 * MHZ!r}",
         "--out", str(out / "crossfit.csv")],
        ["shot-cal", "--samples", "2048", "--out", str(out / "shotcal.csv")],
        ["langevin-verify", "--config", cfg, "--trajectories", "2", "--segments", "12", "--out", str(out / "psd.csv")],
    ]


def run_all(cfg: Path, out: Path, capsys) -> list[str]:
    out.mkdir()
    errors = []
    for argv in commands(cfg, out):
        assert cli.run(argv) == 0, (argv[0], capsys.readouterr().err)
        errors.append(capsys.readouterr().err)
    return errors


def test_traced_commands_match_an_untraced_run(device_cfg_path, tmp_path, capsys):
    tracing = load_tracing()
    capsys.readouterr()
    plain = run_all(device_cfg_path, tmp_path / "plain", capsys)

    tracer = tracing.Tracer(ringlab)
    cli.build_parser.cache_clear()  # the parser is built while the wrappers are in place
    try:
        tracer.install()
        for module, attr, *_ in tracing.SPANS:
            assert hasattr(getattr(getattr(ringlab, module), attr), "__wrapped__"), (module, attr)
        traced = run_all(device_cfg_path, tmp_path / "traced", capsys)
    finally:
        tracer.uninstall()
        cli.build_parser.cache_clear()

    assert traced == plain
    for path in sorted((tmp_path / "plain").iterdir()):
        assert (tmp_path / "traced" / path.name).read_bytes() == path.read_bytes(), path.name
    assert tracer.calls["cli.command"] == len(commands(device_cfg_path, tmp_path))
    # every layer is reached but the whole-series Monte Carlo, which no command calls
    idle = {"langevin.rng", "langevin.filter", "langevin.welch"}
    assert [key for _, _, key, *_ in tracing.SPANS if key not in idle and not tracer.calls[key]] == []
