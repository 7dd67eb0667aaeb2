"""The benchmark's output checks accept real output and reject tampered output.

Runs one cycle of real CLI operations in-process, confirms each passes its
check, then shows that changing the 8th significant digit of one cell, or
dropping one row, makes the check fail.  This covers every column that is
checked against a closed-form or solved reference (the fit and dip-report
columns are checked to physical tolerances instead).
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ringlab.cli import run as cli_run  # noqa: E402

from reference import CheckFailed, read_device  # noqa: E402
import workloads  # noqa: E402
from workloads import Context, characterize, duplicate_stage_config, sweep_dense  # noqa: E402

TEXT = (ROOT / "device.cfg").read_text(encoding="utf-8")
CTX = Context(read_device(TEXT), str(ROOT / "device.cfg"), TEXT)


def _run(op, workdir: Path) -> str:
    for name, text in op.inputs.items():
        (workdir / name).write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli_run(op.argv) == op.expect_exit
    return err.getvalue()


def _perturb(cell: str) -> str | None:
    """The cell with its 8th significant digit changed, or None if it has fewer."""
    digits = [m.start() for m in re.finditer(r"\d", cell.split("e")[0])]
    first = next((k for k, i in enumerate(digits) if cell[i] != "0"), len(digits))
    significant = digits[first:]
    if len(significant) < 8:
        return None
    i = significant[7]
    return cell[:i] + str((int(cell[i]) + 5) % 10) + cell[i + 1:]


def _tamperings(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    middle = body[len(body) // 2]
    yield "dropped row", lines[:middle] + lines[middle + 1:]
    cells = lines[middle].rstrip("\n").split(",")
    for j, cell in enumerate(cells):
        changed = _perturb(cell)
        if changed is not None:
            row = ",".join(cells[:j] + [changed] + cells[j + 1:]) + "\n"
            yield f"column {j}", lines[:middle] + [row] + lines[middle + 1:]


def _assert_tampering_rejected(op, workdir: Path, stderr: str, name: str) -> int:
    path = workdir / name
    original = path.read_text()
    cases = 0
    for label, lines in _tamperings(path):
        path.write_text("".join(lines))
        with pytest.raises(CheckFailed):
            op.check(workdir, stderr)
            pytest.fail(f"{op.name}: {name} with {label} tampered was accepted")
        cases += 1
    path.write_text(original)
    return cases


@pytest.fixture
def small(tmp_path, monkeypatch):
    """Work in tmp_path on grids a hundred times smaller than the benchmark's."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "SWEEP_POINTS", 201)
    monkeypatch.setattr(workloads, "TRACE_POINTS", 4001)
    return tmp_path


def test_sweep_outputs_checked_to_the_digit(small):
    for op in sweep_dense(CTX, np.random.default_rng([2024, 0])):
        stderr = _run(op, small)
        op.check(small, stderr)
        for name in op.outputs:
            assert _assert_tampering_rejected(op, small, stderr, name) >= 3


def test_transmission_trace_checked_to_the_digit(small):
    op = next(op for op in characterize(CTX, np.random.default_rng([2024, 0])) if op.name == "transmission")
    stderr = _run(op, small)
    op.check(small, stderr)
    assert _assert_tampering_rejected(op, small, stderr, "trace.csv") == 3


def test_duplicate_stage_config_adds_one_plain_lens_stage():
    text = duplicate_stage_config(TEXT)
    detection = text.split("[detection]")[1].split("[")[0]
    assert "lens = 0.9" in detection and "lens_loss_db" in detection
    assert text.replace("lens = 0.9\n", "", 1) == TEXT
