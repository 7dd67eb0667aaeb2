"""Byte identity: small runs of every table-writing command, two large
tables, a dip report of no dips, a table written to stdout, both fits on
noisy input, and the help pages and usage errors, against pinned digests.

The digests are sha256 of each command's CSV output and of its stderr, as
the commands write them on CPython 3.11 and numpy 2.4 on x86-64.  numpy's
log10 has an AVX-512 kernel (dispatch target X86_V4) that rounds the last
bit of some dB cells unlike its other path, so the three tables with dB
cells have one digest per path; a host with AVX-512 checks the other path
in a subprocess with the kernel turned off.  A refactor that keeps the
output contract keeps them; a change that moves any output byte on purpose
must say why and record new digests.
The small runs take about 0.1 s, the two large tables about 0.2 s and the
subprocess, which also checks the CSV writer's float kernel on a million
values (see tests/test_csvio.py), about 3.5 s.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import ringlab
from ringlab.cli import run

MHZ = 2.0 * math.pi * 1e6

# (name, arguments without --out; {cfg}, {dir} are filled in), in run order:
# fit-crossing reads the crossing-sweep table and fit-dip the transmission trace.
COMMANDS = [
    ("crossing-sweep", ["crossing-sweep", "--config", "{cfg}", "--p1", "5:55:2.5", "--p2", "10"]),
    ("etac-sweep", ["etac-sweep", "--config", "{cfg}", "--branch", "lower", "--p1", "0:50:0.5", "--p2", "10"]),
    ("squeeze-sweep", ["squeeze-sweep", "--config", "{cfg}", "--branch", "upper", "--p1", "0:50:1", "--p2", "10"]),
    ("squeeze-spectrum", ["squeeze-spectrum", "--eta-c", "0.7", "--eta-d", "0.6", "--tau-c", "22.5e-9",
                          "--f", "0:6e6:1e4"]),
    ("transmission", ["transmission", "--config", "{cfg}", "--p1", "40", "--p2", "10", "--points", "2001",
                      "--dip-report", "{dir}/dips.csv"]),
    ("fit-dip", ["fit-dip", "--data", "{dir}/transmission.csv", "--window", "100:300"]),
    ("fit-crossing", ["fit-crossing", "--data", "{dir}/crossing-sweep.csv", "--fix", f"alpha2={30.0 * MHZ!r}"]),
    ("shot-cal", ["shot-cal", "--powers", "1,2,4,8", "--seed", "3"]),
    ("langevin-verify", ["langevin-verify", "--config", "{cfg}", "--seed", "7",
                         "--trajectories", "3", "--segments", "2"]),
]

DIGESTS = {
    "crossing-sweep.csv": "4d69fa2a3e156ff573989b4f1b9d102c2f8a7af967609385ba962b7a9fc31b2b",
    "crossing-sweep.err": "1f2499d7dc675c28c56decb70b4b3747f277faec206640fa22594796743cf3ea",
    "etac-sweep.csv": "d9a39947841a14dabeaaed620a19d7f5a9a96c361c61a9a7e31e387f0a81a20f",
    "etac-sweep.err": "379fc1df5e72126994b377e028a03bcb54c2b7f48903ad215eebd06855cd10d6",
    "squeeze-sweep.csv": "7d07a08bc13313d675e58da1a4d08a68cad71e6aabbc8e8ba7037bd2d2fcda12",
    "squeeze-sweep.err": "b1a7cd7fd614bb53b1251ced588c6444074a753524dfa8e5b11ecf83b7a00cb3",
    "squeeze-spectrum.csv": "2e3555592d600e95f19aad58fa13c75240c467eed612b33f334d3816d3129abf",
    "squeeze-spectrum.err": "4ac6b166a89a56c0c515171ff8f0aac4a7a6af2bbee79def5b696bb55f37cb92",
    "transmission.csv": "a7cc7311475a57ea7d8fd5443e39a3e2a46309a50f0c651e81e73ff62ee4fe30",
    "transmission.err": "a8496a8969bfdac1a489a6516da651f07308d457fdf9239ec6458cf20e1bbf18",
    "fit-dip.csv": "aa2e794e95f5f3dde70121b10f229f1373e5da58cbbc72e3a3df399119ed94bd",
    "fit-dip.err": "3b483d14aa59a448d7f3a08f366b1fc2ba2c7e902d5b69db4ae2546a25cde7dc",
    "fit-crossing.csv": "da97e6618983ac4880aa248c3af0ee27712ac73d386ecf8d3b21f69fdeb79719",
    "fit-crossing.err": "55c1c3073a404024530168793989d815fb924e5b2ce1591c8dc5693a12eb3d2c",
    "shot-cal.csv": "1a0e27d533c06e77b9380cf5f6d71bd40603aba8773f4034647961e62c19bfaa",
    "shot-cal.err": "fd98f1ece250ba55189023684887858e8082bfbe49b43d75e3ce7e32adaf5f9a",
    "langevin-verify.csv": "37cbab16926e58919ff925b41ee139265765c3c4404ad6a64d48a280e7a7fb4e",
    "langevin-verify.err": "eccbca77273b0b436dde68cafca719d7c006fe7ead8b861cccab37c393c8be35",
    "dips.csv": "bacdbef93f051ba4f30d57e5271733ad65ebe9a0fff5ad91dd705aece7b3faa7",
}

# The dB tables where numpy's log10 takes its path without the X86_V4
# kernel; DIGESTS holds those written with it.  Their stderr is the same on
# both paths.
NO_X86_V4_DIGESTS = {
    "squeeze-sweep.csv": "d66e5511b00d782698ca8ad5533594558f276d9155d1da9532637b47dbccc43b",
    "squeeze-spectrum.csv": "25b8ef6f803cad6eaebfe4bbf288c824392dcfd8693531b26f51d82876d37d33",
    "langevin-verify.csv": "9a811f0861dc02718c9cc2997335b9fccd83346d4bde0b783335c1942402b982",
}
NO_X86_V4 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}  # turns the kernel off

# Tables of 40 000+ rows, one with a string column, which every row of the
# CSV writer's loop passes through.
LARGE_COMMANDS = [
    ("crossing-sweep", ["crossing-sweep", "--config", "{cfg}", "--p1", "0:50:0.0025", "--p2", "10"]),
    ("transmission", ["transmission", "--config", "{cfg}", "--p1", "40", "--p2", "10", "--points", "40001"]),
]

LARGE_DIGESTS = {
    "crossing-sweep.csv": "a21d182e911e1646e747c815803f1274d03dbeb9231775d6d1dcfdda6518115e",
    "crossing-sweep.err": "e66aecd8f68b71ea19d54fa0a28689bb4319b545e3ee36ce602e92e9adf55bcf",
    "transmission.csv": "0332f6512a1ca1dc9d1103026d83f2b5563aee31955aeaf4154a8b3b3114fffb",
    "transmission.err": "6726f91c904ac2046ec848ad6b0eeb9e99a55f931cf7b5156cae6c542c9cb357",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(cfg, directory, capsys, commands) -> dict[str, str]:
    """Run `commands` in order; digest of each CSV output and stderr."""
    capsys.readouterr()
    digests = {}
    for name, args in commands:
        out = directory / f"{name}.csv"
        args = [arg.format(cfg=cfg, dir=directory) for arg in args]
        assert run([*args, "--out", str(out)]) == 0, name
        digests[f"{name}.csv"] = sha256(out.read_bytes())
        digests[f"{name}.err"] = sha256(capsys.readouterr().err.encode())
    return digests


def test_outputs_match_pinned_digests(device_cfg_path, tmp_path, capsys):
    got = output_digests(device_cfg_path, tmp_path, capsys, COMMANDS)
    got["dips.csv"] = sha256((tmp_path / "dips.csv").read_bytes())
    assert got == (DIGESTS if __cpu_features__["X86_V4"] else DIGESTS | NO_X86_V4_DIGESTS)


@pytest.mark.skipif("X86_V4" not in __cpu_dispatch__, reason="numpy has no X86_V4 dispatch target here")
def test_db_tables_without_the_x86_v4_kernel_match_their_digests(device_cfg_path, tmp_path):
    runs = [[*(arg.format(cfg=device_cfg_path, dir=tmp_path) for arg in args), "--out", str(tmp_path / f"{name}.csv")]
            for name, args in COMMANDS if f"{name}.csv" in NO_X86_V4_DIGESTS]
    # The dB tables, then the CSV writer's float kernel, whose exponent comes from log10, against format_value
    code = ("import json, sys\n"
            "from ringlab.cli import run\n"
            "from test_csvio import KERNEL_SEED, kernel_faults, kernel_samples\n"
            "status = max(map(run, json.loads(sys.argv[1])))\n"
            "print(json.dumps(kernel_faults(kernel_samples(KERNEL_SEED))[0][:20]))\n"
            "sys.exit(status)\n")
    path = os.pathsep.join([str(Path(ringlab.__file__).parents[1]), str(Path(__file__).parent)])
    env = {**os.environ, **NO_X86_V4, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True, env=env, check=True,
                          text=True)
    assert {name: sha256((tmp_path / name).read_bytes()) for name in NO_X86_V4_DIGESTS} == NO_X86_V4_DIGESTS
    assert json.loads(done.stdout) == []


def test_large_tables_match_pinned_digests(device_cfg_path, tmp_path, capsys):
    assert output_digests(device_cfg_path, tmp_path, capsys, LARGE_COMMANDS) == LARGE_DIGESTS


# A probe grid far below both dips: the dip report is its header alone.
NO_DIPS = [("no-dips", ["transmission", "--config", "{cfg}", "--p1", "40", "--p2", "10",
                        "--omega", "1206600000000000:1206600100000000:1e6", "--dip-report", "{dir}/dips.csv"])]

NO_DIPS_DIGESTS = {
    "no-dips.csv": "d35b8adcfa4aa9ceb35cecae01bd1f794dcb3669fab5717e915db9c2313aed61",
    "no-dips.err": "9272a9c1c9270721c1c149168900b4f76ac691af2f372bf4e03a426a15321ed4",
    "dips.csv": "d24a5086ee0e831f21fef0f001684778ac6784e56597164b7f2ead3b28f7a6c2",
}


def test_report_of_no_dips_is_its_header(device_cfg_path, tmp_path, capsys):
    got = output_digests(device_cfg_path, tmp_path, capsys, NO_DIPS)
    report = (tmp_path / "dips.csv").read_bytes()
    got["dips.csv"] = sha256(report)
    assert got == NO_DIPS_DIGESTS
    assert report == b"omega_center_rad_s,t_min,fwhm_rad_s,regime,eta_c\n"


@pytest.mark.parametrize("commands, digests", [(COMMANDS, DIGESTS), (LARGE_COMMANDS, LARGE_DIGESTS)],
                         ids=["small", "large"])
def test_table_on_stdout_is_the_file(commands, digests, device_cfg_path, capsys):
    # --out - writes the bytes that --out FILE writes: the pinned crossing-sweep digests
    args = [arg.format(cfg=device_cfg_path) for arg in dict(commands)["crossing-sweep"]]
    capsys.readouterr()
    assert run([*args, "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert sha256(captured.out.encode()) == digests["crossing-sweep.csv"]
    assert sha256(captured.err.encode()) == digests["crossing-sweep.err"]


# Both fits on noisy, seeded input, where the engine takes more than a step or
# two: the crossing with all five parameters free over two p2 values, and a
# dip on a baseline other than 1.
NOISY_FITS = [
    ("noisy-fit-crossing", ["fit-crossing", "--data", "{dir}/crossing.csv"]),
    ("noisy-fit-dip", ["fit-dip", "--data", "{dir}/trace.csv", "--window", "100:700"]),
]

NOISY_FIT_DIGESTS = {
    "noisy-fit-crossing.csv": "3580626e6f5da5df4a83bf24a0984dbafc0a7767862e18ec6834721a2ef0edc3",
    "noisy-fit-crossing.err": "363da29a3f87ae20016ac84b9579c6114e061995ed3718bc02f5cba88e4764ff",
    "noisy-fit-dip.csv": "15a187ff9d61923d6b985cc78a7a7abb3ae61ac710dbaf4bddcd8619d3ec1b3f",
    "noisy-fit-dip.err": "b12d704a84c8791a64336aaad9cef0e8410d29de5c8b9f3b473d874c5024c747",
}


def write_noisy_fit_inputs(directory):
    """crossing.csv: both branches at 41 p1 settings and p2 = 10 and 12 mW,
    plus 0.5 MHz (cyclic) of noise; trace.csv: one dip to 0.3 of a 2.5
    baseline, plus 0.002 of noise.  Written with repr, so the bytes depend on
    numpy's generator and arithmetic only."""
    rng = np.random.default_rng(19)
    omega = 1.2066e15
    p1 = np.tile(np.linspace(0.0, 50.0, 41), 4)
    p2 = np.repeat([10.0, 12.0], 82)
    sign = np.tile(np.repeat([1.0, -1.0], 41), 2)
    omega1 = omega + 750.0 * MHZ - 30.0 * MHZ * p1
    omega2 = omega + 300.0 * MHZ - 30.0 * MHZ * p2
    resonance = (0.5 * (omega1 + omega2) + sign * np.hypot(0.5 * (omega1 - omega2), 150.0 * MHZ)
                 + 0.5 * MHZ * rng.standard_normal(p1.size))
    rows = [f"{a!r},{b!r},{'upper' if s > 0 else 'lower'},{c!r}\n"
            for a, b, s, c in zip(p1.tolist(), p2.tolist(), sign.tolist(), resonance.tolist())]
    (directory / "crossing.csv").write_text("p1_mw,p2_mw,branch,resonance_rad_s\n" + "".join(rows))

    fwhm = 6.0 * MHZ
    grid = omega + np.linspace(-6.0, 6.0, 801) * fwhm
    trace = (2.5 * (1.0 - 0.7 / (1.0 + 4.0 * (grid - omega) ** 2 / fwhm**2))
             + 0.002 * rng.standard_normal(grid.size))
    rows = [f"{a!r},{b!r}\n" for a, b in zip(grid.tolist(), trace.tolist())]
    (directory / "trace.csv").write_text("omega_rad_s,t_power\n" + "".join(rows))


def test_fits_on_noisy_input_match_pinned_digests(tmp_path, capsys):
    write_noisy_fit_inputs(tmp_path)
    assert output_digests(None, tmp_path, capsys, NOISY_FITS) == NOISY_FIT_DIGESTS

# Runs that end inside argparse: the help pages and the usage errors, whose
# bytes depend only on the parser.  Help is wrapped to the terminal width,
# so the runs are made at COLUMNS=80.
COMMAND_NAMES = ["validate", "transmission", "crossing-sweep", "etac-sweep", "squeeze-sweep",
                 "squeeze-spectrum", "langevin-verify", "shot-cal", "fit-crossing", "fit-dip"]

USAGE_RUNS = [
    ("help", ["--help"]),
    *[(f"{name} --help", [name, "--help"]) for name in COMMAND_NAMES],
    ("no command", []),
    ("unknown command", ["bogus"]),
    ("unknown flag", ["validate", "--config", "device.cfg", "--bogus"]),
    ("missing required flag", ["validate"]),
    ("malformed range", ["crossing-sweep", "--config", "device.cfg", "--p1", "1:2", "--p2", "10"]),
]

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of no bytes

# name -> (exit status, sha256 of stdout, sha256 of stderr)
USAGE_DIGESTS = {
    "help": (0, "9f9ca0489c58f9754b49e69cc4bf42e80288633165bdcec8d681622965ac4933", EMPTY),
    "validate --help": (0, "31338255e42079c646a341c8566d80b54ca27ff6b3e19ee7b9fc92dbd63bb31b", EMPTY),
    "transmission --help": (0, "cc065cd64b67b7af8679784585b23f05363e49107494a7e5d93355039ee29393", EMPTY),
    "crossing-sweep --help": (0, "8cadb589f02b7f7d5f65576d779c49e6cde58be11cede22b9d5539e11327f107", EMPTY),
    "etac-sweep --help": (0, "4fe3427659ed33654bba8090944ed0728865ef5ba5e88fab9e3c9147e057f83e", EMPTY),
    "squeeze-sweep --help": (0, "d36158b158f89a93be527cc0911668440b0172ebefac6f198e150c9a9be09348", EMPTY),
    "squeeze-spectrum --help": (0, "afa12035a88322d29c3eb3786390aaab4a9b18bc0dcd4ec4383a8b4f92873f99", EMPTY),
    "langevin-verify --help": (0, "6cd517ed39fb83b12485eb2ee46a9d3ad078881ae706108ac2d238b174d06f94", EMPTY),
    "shot-cal --help": (0, "a15fbdad81494419e735e314d5a64ef538fd8a6f9e090b790d862c75f867101d", EMPTY),
    "fit-crossing --help": (0, "7cfcc66e5acbd54c97415b2710ec43a250a504d3750957759dd504f71ccb5712", EMPTY),
    "fit-dip --help": (0, "b42a568b4cd84e8664a15820574bc0d7e40167e9498c49a02b571f8487695fd3", EMPTY),
    "no command": (2, EMPTY, "03e124e9ee744f1b7e5b872e2151a43f0c2ef6dc20aa7bc3ad81680b44a5ede7"),
    "unknown command": (2, EMPTY, "e765a09dbf995a34bf8eafa0be8efc4e6d2d558c651da4a2d0b241514c77db42"),
    "unknown flag": (2, EMPTY, "007e7ac1ce0282b014395bfbca3b64e9e9e653bf24b2be27002d75435e2d5c64"),
    "missing required flag": (2, EMPTY, "4c7aab233dd1d3473ab2b09a9da4bb080ed905afd8c96c8c469b1c9402a9c633"),
    "malformed range": (2, EMPTY, "3d4c5d396ecc54d6e04ff8a6d184fb6db125ab878f712b7db74a99387b87fbe5"),
}


def usage_digests(capsys, monkeypatch) -> dict[str, tuple[int, str, str]]:
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    digests = {}
    for name, argv in USAGE_RUNS:
        status = run(argv)
        captured = capsys.readouterr()
        digests[name] = (status, sha256(captured.out.encode()), sha256(captured.err.encode()))
    return digests


def test_help_and_usage_errors_match_pinned_digests(capsys, monkeypatch):
    assert usage_digests(capsys, monkeypatch) == USAGE_DIGESTS
