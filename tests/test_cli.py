"""Command-line interface: ranges, CSV schemas, exit codes, determinism."""

import argparse
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ringlab
from ringlab import cli, csvio, langevin
from ringlab.cli import MONTE_CARLO_MAX_SAMPLES, RANGE_MAX_POINTS, build_parser, parse_range, run
from ringlab.csvio import load_csv, write_csv
from ringlab.errors import DataError
from ringlab.fitters import CROSSING_PARAMS

MHZ = 2.0 * math.pi * 1e6


# --- range grammar ---------------------------------------------------------------


def test_range_inclusive_when_on_grid():
    grid = parse_range("0:50:0.5")
    assert grid.size == 101
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(50.0, abs=1e-12)


def test_range_excludes_off_grid_stop():
    grid = parse_range("0:1:0.3")
    assert grid.size == 4  # 0, 0.3, 0.6, 0.9
    assert grid[-1] == pytest.approx(0.9)


def test_range_single_point():
    grid = parse_range("5:5:1")
    assert list(grid) == [5.0]


def test_range_rejects_bad_specs():
    import argparse

    for spec in ("1:2", "a:b:c", "0:10:-1", "5:1:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(spec)


def test_range_point_cap_checked_before_allocating(capsys):
    import argparse

    spec = f"0:{RANGE_MAX_POINTS}:1"  # one point over the cap
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        parse_range(spec)
    assert run(["squeeze-spectrum", "--eta-c", "0.5", "--eta-d", "0.5", "--tau-c", "1e-8", "--f", spec]) == 2
    assert spec in capsys.readouterr().err
    assert run(["squeeze-spectrum", "--eta-c", "0.5", "--eta-d", "0.5", "--tau-c", "1e-8", "--f", "0:1e308:1e-300"]) == 2


NO_SCIPY_RUN = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"no module named {name!r} here")

sys.meta_path.insert(0, NoScipy())
from ringlab.cli import run
codes = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith("scipy"))]))
"""


def test_cli_import_leaves_scipy_signal_unloaded(device_cfg_path, tmp_path):
    # With scipy unimportable, the Monte Carlo commands still run and load no scipy module.
    runs = [["langevin-verify", "--config", str(device_cfg_path), "--seed", "7", "--trajectories", "2",
             "--segments", "2", "--out", str(tmp_path / "psd.csv")],
            ["shot-cal", "--powers", "1,2", "--seed", "3", "--out", str(tmp_path / "shot.csv")]]
    env = {**os.environ, "PYTHONPATH": str(Path(ringlab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, json.dumps(runs)], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert json.loads(out) == [[0, 0], []]


def test_every_export_resolves():
    namespace = {}
    exec("from ringlab import *", namespace)  # an AttributeError names a stale entry of __all__
    assert all(namespace[name] is getattr(ringlab, name) for name in ringlab.__all__)


# --- CSV io ------------------------------------------------------------------------


def write_csv_file(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write_csv(stream, header, columns)


@pytest.fixture
def parse_text(tmp_path):
    """parse_text(text, schema, alternatives=None): the columns of `text`
    written to the file t.csv, as load_csv reads them."""
    def parse(text, schema, alternatives=None):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return load_csv(path, schema, alternatives)

    return parse


def assert_columns(table, expected):
    """`table` has exactly the columns of `expected` ({name: list}), in any
    order: a column of floats as a float64 array equal to it, value for
    value, any other column as an equal list."""
    assert table.keys() == expected.keys()
    for name, values in expected.items():
        if all(isinstance(value, float) for value in values):
            assert isinstance(table[name], np.ndarray) and table[name].dtype == np.float64, name
            assert np.array_equal(table[name], values), name
        else:
            assert type(table[name]) is list and table[name] == values, name


def test_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "t.csv"
    a, b = [1.0 / 3.0, math.pi * 1e15], [2.0**-52, -1.2345678901234567e-8]
    write_csv_file(path, ["a", "b"], (a, b))
    assert_columns(load_csv(path, {"a": float, "b": float}), {"a": a, "b": b})


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1.2345678901234567e-8,
                  9007199254740993.0, 1e22, 1e23, -123456789.01234567]


def reference_table(columns, rows, comments):
    """The CSV text of a table, one value at a time: 17 significant digits
    for floats, str() for everything else."""
    def cell(value):
        return format(value, ".17g") if isinstance(value, float) else str(value)

    lines = [f"# {comment}" for comment in comments] + [",".join(columns)]
    lines += [",".join(map(cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def seeded_column(kind, n, rng):
    if kind == "float":  # Python floats from raw bit patterns (subnormals, nan payloads) and specials
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64).tolist()
        return [SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))] if rng.random() < 0.3 else v for v in values]
    if kind == "numpy float64":  # numpy scalars, some 17-digit decimals, mixed with Python floats
        values = [np.float64(float(f"{rng.uniform(-1, 1):.16e}")) for _ in range(n)]
        return [float(v) if rng.random() < 0.2 else v for v in values]
    if kind == "int":
        return [int(v) for v in rng.integers(-10**12, 10**12, size=n)]
    words = ["lower", "upper", "overcoupled", "indeterminate", "50%", "%s", "%%", "-0.0", ""]
    return [words[i] for i in rng.integers(0, len(words), size=n)]


ARRAY_DTYPES = {"float": np.float64, "numpy float64": np.float64, "int": np.int64, "str": object}
STR_CONSTANTS = ["50%", "%s", "%%"]


def column_forms(picked, columns):
    """One table's columns as lists, tuples, ndarrays and a generator."""
    return [columns, [tuple(column) for column in columns],
            [np.array(column, dtype=ARRAY_DTYPES[kind]) for kind, column in zip(picked, columns)],
            (column for column in columns)]


def written(names, table, comments=()):
    stream = io.StringIO()
    write_csv(stream, names, table, comments)
    return stream.getvalue()


def test_csv_writer_matches_reference_formatter():
    rng = np.random.default_rng(707)
    kinds = ["float", "numpy float64", "int", "str"]
    constants_seen = set()
    for case in range(120):
        n_rows = (0, 1, 2, int(rng.integers(3, 400)))[case % 4]
        picked = [kinds[i] for i in rng.integers(0, len(kinds), size=int(rng.integers(1, 6)))]
        names = [f"c{i}" for i in range(len(picked))]
        columns = [seeded_column(kind, n_rows, rng) for kind in picked] if n_rows else [[] for _ in picked]
        comments = [f"case {case}", "kinds " + " ".join(picked)][: case % 3]
        expected = reference_table(names, list(zip(*columns)), comments)
        for given in column_forms(picked, columns):
            assert written(names, given, comments) == expected, (case, picked)
        if not n_rows or len(columns) == 1:
            continue
        # each column in turn all equal, given as a single value beside the other columns
        for j, kind in enumerate(picked):
            for value in [columns[j][0], *(STR_CONSTANTS if kind == "str" else ())]:
                constants_seen.add(value)
                equal = [*columns[:j], [value] * n_rows, *columns[j + 1:]]
                expected = reference_table(names, list(zip(*equal)), comments)
                for given in column_forms(picked, equal):
                    given = list(given)
                    given[j] = value
                    assert written(names, given, comments) == expected, (case, picked, j, value)
    assert constants_seen.issuperset(STR_CONSTANTS)


@pytest.mark.parametrize("table", [
    ([1.0, 2.0], [3.0]),
    (np.arange(3.0), ("a", "b"), 1.0),
    ([], [1]),
    (1.0, "x"),
    (),
], ids=["lists", "array-tuple-constant", "empty-and-one", "all-constant", "no-columns"])
def test_csv_writer_refuses_ragged_or_constant_tables(table):
    stream = io.StringIO()
    names = [f"c{i}" for i in range(len(table))]
    with pytest.raises(ValueError, match="different lengths" if any(map(np.ndim, table)) else "no column of cells"):
        write_csv(stream, names, table)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"], []], ids=["fewer", "more", "none"])
def test_csv_writer_refuses_a_header_that_does_not_match_the_table(names):
    # `a\n1,2\n` would be read back refused or wrong
    stream = io.StringIO()
    with pytest.raises(ValueError, match=f"^header of {len(names)} names for a table of 2 columns$"):
        write_csv(stream, names, ([1.0], [2.0]), comments=["written before the header"])
    assert stream.getvalue() == ""


@pytest.mark.parametrize("breaker", [",", "\n", "\r", "\0"], ids=["comma", "newline", "return", "nul"])
def test_csv_writer_refuses_a_cell_that_would_break_its_row(breaker):
    # a single value is refused before the header, a cell before the block of rows that holds it
    text = f"lower{breaker}upper"
    for table, column, written_first in [
        (([1.0, 2.0], ["lower", text]), "c1", "c0,c1\n"),
        ((np.array(["a", text], dtype=object), [1, 2]), "c0", "c0,c1\n"),
        ((text, (1.0, 2.0)), "c0", ""),
        (([1.0, 2.0], "x", text), "c2", ""),
    ]:
        stream = io.StringIO()
        with pytest.raises(ValueError, match=f"column '{column}': cell {re.escape(repr(text))} holds a comma, "
                                             "line break or NUL, which would break its row"):
            write_csv(stream, [f"c{j}" for j in range(len(table))], table)
        assert stream.getvalue() == written_first


def test_csv_missing_column_named(parse_text):
    with pytest.raises(DataError, match="missing column 'b'"):
        parse_text("a\n1.0\n", {"a": float, "b": float})


def test_csv_unexpected_column_named(parse_text):
    with pytest.raises(DataError, match="unexpected column 'c'"):
        parse_text("a,c\n1.0,2.0\n", {"a": float})


def test_csv_duplicate_column_named(parse_text):
    with pytest.raises(DataError, match="duplicate column 'a'"):
        parse_text("a,b,a\n1.0,2.0,3.0\n", {"a": float, "b": float})


def test_csv_comment_lines_skipped(parse_text):
    columns = parse_text("# note\na,b\n# another\n1,2\n", {"a": float, "b": float})
    assert_columns(columns, {"a": [1.0], "b": [2.0]})


def test_csv_bad_cell_reports_row_and_column(parse_text):
    with pytest.raises(DataError, match=r"row 3, column 'b'"):
        parse_text("a,b\n1,2\n3,oops\n", {"a": float, "b": float})
    # the row is the file's line, counting comment and blank lines, after a byte-order mark too
    for bom in ("", "\ufeff"):
        with pytest.raises(DataError, match=r"row 6, column 'b'"):
            parse_text(bom + "# trace\n\n# rad/s, power\na,b\n1,2\n3,oops\n", {"a": float, "b": float})


def test_csv_quoted_cell_after_a_space(parse_text):
    columns = parse_text('omega_rad_s, "t_power"\n1, "0.5"\n', {"omega_rad_s": float, "t_power": float})
    assert_columns(columns, {"omega_rad_s": [1.0], "t_power": [0.5]})


def test_csv_not_utf8_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"omega_rad_s,t_power\n" + b"1.0,0.5\n" * 2000 + b"2.0,0.5 \xb5W\n")
    assert run(["fit-dip", "--data", str(data)]) == 4
    assert capsys.readouterr().err == f"ringlab: error: data: {data}: not UTF-8 text\n"


def test_csv_alternative_column_matched_on_header_cells(parse_text):
    def parse(text):
        return parse_text(text, {"omega": float, "t": float}, {"omega": "nm"})

    assert_columns(parse("nm,t\n1,2\n"), {"nm": [1.0], "t": [2.0]})
    assert_columns(parse("t,omega\n1,2\n"), {"t": [1.0], "omega": [2.0]})
    with pytest.raises(DataError, match=r"t\.csv: unexpected column 'nm'"):
        parse("omega,nm,t\n1,2,3\n")
    # a header cell merely containing the name is not the column
    with pytest.raises(DataError, match=r"t\.csv: missing column 'nm'"):
        parse("omega_x,t\n1,2\n")


# --- the numpy reader of all-float tables against csv + float -------------------------


def reference_read(text):
    """Columns of CSV text as float64 arrays, one cell at a time through csv
    and float: blank and '#' lines skipped, the first row the header."""
    lines = [line for line in io.StringIO(text) if line.strip() and not line.lstrip().startswith("#")]
    header, *rows = csv.reader(lines, skipinitialspace=True)
    return {name.strip(): np.array([float(row[j].strip()) for row in rows]) for j, name in enumerate(header)}


def bits(table):
    """Each column's dtype and the bits of its values, the columns arrays."""
    return {name: (values.dtype, [value.hex() for value in values.tolist()]) for name, values in table.items()}


def seeded_float_text(rng, n_rows, names):
    """CSV text of an all-float table with seeded values (raw bit patterns,
    subnormals, -0.0, 17-digit and short forms) and seeded layout (comment
    and blank lines, CRLF ends, spaces after commas, a last line without
    an end)."""
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, 0.1, 1e22,
                9007199254740993.0, 1.2345678901234567e-8]
    end = "\r\n" if rng.random() < 0.3 else "\n"
    lines = ["# a comment above the header", ""][: int(rng.integers(0, 3))] + [", ".join(names)]
    for _ in range(n_rows):
        cells = []
        for _ in names:
            value = rng.integers(0, 2**64, dtype=np.uint64).view(np.float64)
            if not np.isfinite(value) or rng.random() < 0.3:
                value = specials[rng.integers(len(specials))]
            form = ("%.17g", "%r", "%.12e", "%g")[rng.integers(4)]
            cells.append(form % float(value))
        lines.append((", " if rng.random() < 0.2 else ",").join(cells))
        if rng.random() < 0.05:
            lines.append(("   ", "# between rows", "  # indented comment")[rng.integers(3)])
    return end.join(lines) + ("" if rng.random() < 0.2 else end)


def test_float_tables_read_bit_for_bit_as_csv_and_float(tmp_path, monkeypatch):
    # the cell-by-cell reader must not be needed for any of these tables
    monkeypatch.setattr(csvio, "_read_cells", lambda *args: pytest.fail("fell back to the cell reader"))
    rng = np.random.default_rng(909)
    path = tmp_path / "t.csv"
    for case in range(150):
        names = ["omega_rad_s", "t_power", "x", "y"][: int(rng.integers(1, 5))]
        text = seeded_float_text(rng, (1, 2, int(rng.integers(3, 300)))[case % 3], names)
        schema = dict.fromkeys(names, float)
        path.write_text(("\ufeff" if case % 2 else "") + text, encoding="utf-8", newline="")  # a BOM on every other file
        assert bits(load_csv(path, schema)) == bits(reference_read(text)), case


@pytest.mark.parametrize("text, values", [
    ("a,b\n1_0,2\n", [10.0, 2.0]),
    ('a,b\n1, "2.5"\n', [1.0, 2.5]),
    ("a,b\n\u0661\u0662,\uff13\n", [12.0, 3.0]),  # Arabic-Indic and fullwidth digits
    ("a,b\n1,2\n3_0,4\n", [1.0, 30.0, 2.0, 4.0]),
], ids=["underscore", "quoted-after-space", "non-ascii-digits", "underscore-after-a-numpy-row"])
def test_float_cells_numpy_refuses_read_as_float_does(text, values, parse_text):
    n = len(values) // 2
    expected = {"a": values[:n], "b": values[n:]}
    assert_columns(reference_read(text), expected)
    assert_columns(parse_text(text, {"a": float, "b": float}), expected)


def test_float_table_edge_cases_keep_their_reading(parse_text, tmp_path):
    schema = {"a": float, "b": float}
    source = re.escape(str(tmp_path / "t.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" warning included
        assert_columns(parse_text("a,b\n# no rows\n\n", schema), {"a": [], "b": []})
    # a '#' after a value is part of the cell, not a comment
    with pytest.raises(DataError, match=rf"^{source}: row 2, column 'b': not numeric: '2 # note'$"):
        parse_text("a,b\n1,2 # note\n", schema)
    with pytest.raises(DataError, match=rf"^{source}: row 4, column 'a': non-finite value$"):
        parse_text("a,b\n1,2\n\n1e999,3\n", schema)
    with pytest.raises(DataError, match=rf"^{source}: row 3: expected 2 cells, got 3$"):
        parse_text("a,b\n# c\n1,2,3\n4,5,6\n", schema)


# --- commands ----------------------------------------------------------------------


def fit_values(path):
    """{param: value} of a fit-crossing or fit-dip output table."""
    table = load_csv(path, {"param": str, "value": float, "stderr": float})
    return dict(zip(table["param"], table["value"]))


def test_validate_ok(device_cfg_path, capsys):
    assert run(["validate", "--config", str(device_cfg_path)]) == 0
    assert "config ok" in capsys.readouterr().err


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(device_text_with(gamma="0.0"))
    assert run(["validate", "--config", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ringlab: error: config:")
    assert "\n" not in err.strip()


def device_text_with(gamma="2.0"):
    return f"""
[ring1]
omega0_offset_mhz = 750.0
gamma_i_mhz = {gamma}
heater_alpha_mhz_per_mw = 30.0
heater_p_max_mw = 100.0
[ring2]
omega0_offset_mhz = 300.0
gamma_i_mhz = 2.0
heater_alpha_mhz_per_mw = 30.0
heater_p_max_mw = 100.0
[coupling]
kappa_ext_mhz = 5.0
kappa_12_mhz = 150.0
[detection]
grating = 0.85
lens_loss_db = 0.7
photodiode = 0.80
[pump]
wavelength_nm = 1561.1
"""


def validate_text(text, tmp_path, capsys):
    """Exit code and stderr of `ringlab validate` on a config given as text."""
    cfg = tmp_path / "mutated.cfg"
    cfg.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = run(["validate", "--config", str(cfg)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("line, replacement, message", [
    ("gamma_i_mhz = 2.0", "gamma_i_mhz = 11%5", "ring1.gamma_i_mhz: not a number: '11%5'"),
    ("heater_alpha_mhz_per_mw = 30.0", "heater_alpha_mhz_per_mw = 30\nheater_alpha_rad_s_per_mw = 1",
     "ring1.heater_alpha_rad_s_per_mw: duplicate unit variants for heater_alpha"),
    ("gamma_i_mhz = 2.0", "gamma_i_rad_s = 1\ngamma_i_mhz = 2.0",
     "ring1.gamma_i_rad_s: duplicate unit variants for gamma_i"),
    *(("wavelength_nm = 1561.1", f"wavelength_nm = {value}", "pump.wavelength_nm: pump wavelength must be positive")
      for value in ("nan", "inf", "0", "-1")),
    ("[coupling]\nkappa_ext_mhz = 5.0\nkappa_12_mhz = 150.0\n", "", "coupling: missing section"),
    ("[detection]\ngrating = 0.85\nlens_loss_db = 0.7\nphotodiode = 0.80\n", "", "detection: missing section"),
    ("lens_loss_db = 0.7", "lens_loss_db = -0.7", "detection.lens_loss_db: dB loss must be non-negative"),
], ids=["percent", "two-alpha-units", "two-rate-units",
        "wavelength-nan", "wavelength-inf", "wavelength-0", "wavelength-minus-1",
        "no-coupling", "no-detection", "negative-db-loss"])
def test_validate_names_the_offending_key(line, replacement, message, device_cfg_path, tmp_path, capsys):
    text = device_cfg_path.read_text(encoding="utf-8")
    assert line in text
    assert validate_text(text.replace(line, replacement, 1), tmp_path, capsys) == (3, f"ringlab: error: config: {message}\n")


CONFIG_MUTATIONS = ("rename", "bad-suffix", "drop", "not-a-number", "duplicate-key", "duplicate-section")
BAD_UNITS = {"mhz": "khz", "mw": "w", "nm": "pm"}
NOT_NUMBERS = ("abc", "1.5.0", "2 MHz", "11%5", "")


def config_entries(lines):
    """(line index, section, key, value) of every key line of a config."""
    entries, section = [], None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line and not line.startswith("#"):
            key, value = (part.strip() for part in line.split("=", 1))
            entries.append((i, section, key, value))
    return entries


def mutate_config(lines, rng):
    """A copy of valid config lines with one seeded defect, and the message it must give."""
    kind = CONFIG_MUTATIONS[rng.integers(len(CONFIG_MUTATIONS))]
    entries = config_entries(lines)
    if kind in ("rename", "bad-suffix", "drop"):  # [detection] keys are free-form stage names
        entries = [entry for entry in entries if entry[1] != "detection"]
    i, section, key, value = entries[rng.integers(len(entries))]
    lines = list(lines)
    if kind == "rename":
        lines[i] = f"x_{key} = {value}"
        return kind, lines, f"{section}.x_{key}: unknown key"
    if kind == "bad-suffix":
        head, _, unit = key.rpartition("_")
        lines[i] = f"{head}_{BAD_UNITS[unit]} = {value}"
        return kind, lines, f"{section}.{head}_{BAD_UNITS[unit]}: unknown key"
    if kind == "drop":
        del lines[i]
        return kind, lines, f"{section}.{key}: missing key" + (" (or omega0_rad_s)" if key.startswith("omega0") else "")
    if kind == "not-a-number":
        bad = NOT_NUMBERS[rng.integers(len(NOT_NUMBERS))]
        lines[i] = f"{key} = {bad}"
        return kind, lines, f"{section}.{key}: not a number: {bad!r}"
    if kind == "duplicate-key":
        lines.insert(i + 1, lines[i])
        return kind, lines, f"{section}.{key}: duplicate key"
    return kind, [*lines, f"[{section}]", f"{key} = {value}"], f"{section}: duplicate section"


def test_validate_rejects_seeded_key_mutations(device_cfg_path, tmp_path, capsys):
    lines = device_cfg_path.read_text(encoding="utf-8").splitlines()
    assert validate_text("\n".join(lines), tmp_path, capsys)[0] == 0
    rng = np.random.default_rng(606)
    seen = set()
    for _ in range(80):
        kind, mutated, expected = mutate_config(lines, rng)
        seen.add(kind)
        assert validate_text("\n".join(mutated) + "\n", tmp_path, capsys) == (
            3, f"ringlab: error: config: {expected}\n"), kind
    assert seen == set(CONFIG_MUTATIONS)


def test_validate_rejects_duplicate_detection_stage(device_cfg_path, tmp_path, capsys):
    text = device_cfg_path.read_text(encoding="utf-8").replace("lens_loss_db", "lens = 0.9\nlens_loss_db", 1)
    cfg = tmp_path / "duplicate.cfg"
    cfg.write_text(text)
    assert run(["validate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("ringlab: error: config: detection.lens: ")


@pytest.mark.parametrize("default", ["[DEFAULT]\n", "[DEFAULT]\nfoo = 1\n"], ids=["empty", "with-key"])
def test_validate_default_section_is_an_unknown_section(default, device_cfg_path, tmp_path, capsys):
    text = default + device_cfg_path.read_text(encoding="utf-8")
    assert validate_text(text, tmp_path, capsys) == (3, "ringlab: error: config: DEFAULT: unknown section\n")


@pytest.mark.parametrize("line, replacement, message", [
    ("omega0_offset_mhz = 750.0", "omega0_offset_mhz", "line 14: not a key = value line: 'omega0_offset_mhz'"),
    ("[ring1]", "gamma_i_mhz = 1\n[ring1]", "line 13: outside any section: 'gamma_i_mhz = 1'"),
], ids=["bare-key", "key-above-header"])
def test_validate_syntax_error_names_the_line(line, replacement, message, device_cfg_path, tmp_path, capsys):
    text = device_cfg_path.read_text(encoding="utf-8").replace(line, replacement, 1)
    assert validate_text(text, tmp_path, capsys) == (3, f"ringlab: error: config: config syntax: {message}\n")


@pytest.mark.parametrize("line, replacement, folded", [
    ("omega0_offset_mhz = 750.0", "omega0_offset_mhz = 750.0\n   gamma_i_mhz = 3",
     "line 15: indented line: 'gamma_i_mhz = 3'"),
    ("photodiode = 0.80", "photodiode = 0.80\n  0.9", "line 33: indented line: '0.9'"),
    ("photodiode = 0.80", "photodiode = 0.80\n\n  # a note\n\n  0.9", "line 36: indented line: '0.9'"),
    ("omega0_offset_mhz = 750.0", "  omega0_offset_mhz = 750.0", None),
    ("gamma_i_mhz = 2.0", "gamma_i_mhz = 2.0\n    # an indented comment", None),
], ids=["key-under-a-key", "value-under-a-key", "after-blank-and-comment", "first-key", "comment"])
def test_validate_refuses_indented_lines_that_would_fold(line, replacement, folded, device_cfg_path, tmp_path,
                                                         capsys):
    text = device_cfg_path.read_text(encoding="utf-8").replace(line, replacement, 1)
    code, err = validate_text(text, tmp_path, capsys)
    if folded is None:  # an indented first key and indented comments parse as before
        assert code == 0 and err.startswith("config ok: ")
    else:
        assert (code, err) == (3, f"ringlab: error: config: config syntax: {folded}\n")


def test_missing_config_file_exit_3(capsys):
    assert run(["validate", "--config", "/no/such/file.cfg"]) == 3


def test_unknown_flag_exit_2(device_cfg_path, capsys):
    assert run(["validate", "--config", str(device_cfg_path), "--bogus"]) == 2


def test_etac_sweep_output(device_cfg_path, tmp_path):
    out = tmp_path / "etac.csv"
    code = run([
        "etac-sweep", "--config", str(device_cfg_path), "--branch", "lower",
        "--p1", "0:50:0.5", "--p2", "10", "--out", str(out),
    ])
    assert code == 0
    etas = load_csv(out, {"p1_mw": float, "omega_rad_s": float, "eta_c": float, "tau_c_s": float})["eta_c"]
    assert len(etas) == 101
    assert min(etas) <= 0.12 and max(etas) >= 0.68
    assert np.array_equal(etas, np.sort(etas))


def test_squeeze_spectrum_value_at_3mhz(tmp_path):
    out = tmp_path / "sq.csv"
    code = run([
        "squeeze-spectrum", "--eta-c", "0.7", "--eta-d", "1", "--tau-c", "22.5e-9",
        "--f", "0:6e6:1e4", "--out", str(out),
    ])
    assert code == 0
    table = load_csv(out, {"f_hz": float, "s_linear": float, "s_db": float, "squeezing_factor_db": float})
    i = table["f_hz"].tolist().index(3e6)
    x = 2 * math.pi * 3e6 * 22.5e-9
    expected_db = 10 * math.log10(1 - 0.7 / (1 + x * x))
    assert table["s_db"][i] == pytest.approx(expected_db, abs=1e-9)
    assert table["s_db"][i] == pytest.approx(-3.9, abs=0.05)
    assert table["squeezing_factor_db"][i] == -table["s_db"][i]


def test_squeeze_spectrum_reports_where_the_minimum_is(capsys):
    assert run(["squeeze-spectrum", "--eta-c", "0.7", "--eta-d", "0.6", "--tau-c", "22.5e-9",
                "--f=-2e6:2e6:1e6", "--out", "-"]) == 0
    assert capsys.readouterr().err.strip().endswith(" dB at f=0 Hz")


@pytest.mark.parametrize("tau_c", ["1e300", "1e150"])  # W*tau_c, or its square, past the float range
def test_roll_off_overflow_prints_only_the_summary(tau_c):
    argv = ["squeeze-spectrum", "--eta-c", "0.5", "--eta-d", "1", "--tau-c", tau_c, "--f", "1e10:1e10:1"]
    env = {**os.environ, "PYTHONPATH": str(Path(ringlab.__file__).parents[1]), "PYTHONWARNINGS": "default"}
    done = subprocess.run([sys.executable, "-m", "ringlab.cli", *argv], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout == "f_hz,s_linear,s_db,squeezing_factor_db\n10000000000,1,0,-0\n"
    assert done.stderr == "squeeze-spectrum: minimum 0 dB at f=10000000000 Hz\n"


@pytest.mark.parametrize("grid, status, stderr", [
    ("--margin-linewidths=1e150", 0, "transmission: 4001 points, 0 dip(s)\n"),  # d1*d2 overflows: the limit T = 1
    # T is not finite; a margin this far out is refused at parse time, an explicit grid is not
    ("--omega=-1e307:1e307:1e306", 5, "ringlab: error: numeric: probe grid too far from the resonances: "),
], ids=["1e150", "1e300"])
def test_far_probe_grid_prints_one_line(grid, status, stderr, device_cfg_path, tmp_path):
    argv = ["transmission", "--config", str(device_cfg_path), "--p1", "40", "--p2", "10",
            grid, "--out", str(tmp_path / "t.csv")]
    env = {**os.environ, "PYTHONPATH": str(Path(ringlab.__file__).parents[1]), "PYTHONWARNINGS": "default"}
    done = subprocess.run([sys.executable, "-m", "ringlab.cli", *argv], capture_output=True, text=True, env=env)
    assert done.returncode == status
    assert done.stderr.startswith(stderr) and done.stderr.count("\n") == 1


def test_squeeze_sweep_output(device_cfg_path, tmp_path):
    out = tmp_path / "sw.csv"
    assert run([
        "squeeze-sweep", "--config", str(device_cfg_path), "--branch", "lower",
        "--p1", "0:50:1", "--p2", "10", "--out", str(out),
    ]) == 0
    table = load_csv(out, {
        "eta_c": float, "s_measured_db": float, "s_onchip_db": float,
        "omega_sideband_hz": float, "tau_c_s": float,
    })
    assert table["omega_sideband_hz"][0] == 3e6
    assert table["s_onchip_db"][-1] == pytest.approx(-3.9, abs=0.15)
    assert table["s_measured_db"][-1] == pytest.approx(-1.8, abs=0.15)


def test_crossing_sweep_feeds_fit_crossing(device_cfg_path, tmp_path, capsys):
    data = tmp_path / "crossing.csv"
    assert run([
        "crossing-sweep", "--config", str(device_cfg_path),
        "--p1", "5:55:2.5", "--p2", "10", "--out", str(data),
    ]) == 0
    fit_out = tmp_path / "fit.csv"
    # constant p2 cannot identify ring-2's heater slope: pin it
    code = run([
        "fit-crossing", "--data", str(data),
        "--fix", f"alpha2={30.0 * MHZ!r}", "--out", str(fit_out),
    ])
    assert code == 0
    fit = fit_values(fit_out)
    assert fit["kappa_12"] == pytest.approx(150.0 * MHZ, rel=1e-6)
    assert fit["alpha1"] == pytest.approx(30.0 * MHZ, rel=1e-6)


def test_crossing_sweep_solves_only_the_branch_frequencies(device_cfg_path, tmp_path, count_calls):
    from ringlab import supermodes

    calls = count_calls(supermodes, "crossing_geometry", "effective_rates")
    out = tmp_path / "crossing.csv"
    assert run(["crossing-sweep", "--config", str(device_cfg_path), "--p1", "0:50:0.5", "--p2", "10",
                "--out", str(out)]) == 0
    assert calls == {"crossing_geometry": 1, "effective_rates": 0}


def test_transmission_with_dip_report(device_cfg_path, tmp_path):
    trace_out = tmp_path / "trace.csv"
    dip_out = tmp_path / "dips.csv"
    assert run([
        "transmission", "--config", str(device_cfg_path), "--p1", "40", "--p2", "10",
        "--points", "20001", "--out", str(trace_out), "--dip-report", str(dip_out),
    ]) == 0
    dips = load_csv(dip_out, {
        "omega_center_rad_s": float, "t_min": float, "fwhm_rad_s": float,
        "regime": str, "eta_c": float,
    })
    assert len(dips["regime"]) == 2
    assert set(dips["regime"]) <= {"overcoupled", "undercoupled"}
    lower = int(np.argmin(dips["omega_center_rad_s"]))
    assert dips["regime"][lower] == "overcoupled"
    assert dips["eta_c"][lower] == pytest.approx(0.696, abs=0.02)


def test_dip_report_marks_overlapping_dips_indeterminate(device_cfg_path, tmp_path, capsys, parse_text):
    # a 3 MHz inter-ring coupling puts the two dips at the crossing within 3 fwhm of each other
    weak = tmp_path / "weak.cfg"
    weak.write_text(device_cfg_path.read_text(encoding="utf-8").replace("kappa_12_mhz = 150.0", "kappa_12_mhz = 3", 1))
    capsys.readouterr()
    assert run(["transmission", "--config", str(weak), "--p1", "25", "--p2", "10", "--points", "4001",
                "--margin-linewidths", "3", "--dip-report", "-", "--out", str(tmp_path / "trace.csv")]) == 0
    dips = parse_text(capsys.readouterr().out, {  # the reader refuses nan as a number: eta_c is read as text
        "omega_center_rad_s": float, "t_min": float, "fwhm_rad_s": float, "regime": str, "eta_c": str,
    })
    assert dips["regime"] == ["indeterminate", "indeterminate"]
    assert dips["eta_c"] == ["nan", "nan"]


def test_unwritable_out_exits_4(device_cfg_path, tmp_path, capsys):
    out = tmp_path / "missing" / "c.csv"
    capsys.readouterr()
    assert run(["crossing-sweep", "--config", str(device_cfg_path), "--p1", "0:50:0.5", "--p2", "10",
                "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"ringlab: error: data: [Errno 2] No such file or directory: '{out}'\n"


def test_missing_data_file_exits_4(tmp_path, capsys):
    data = tmp_path / "trace.csv"
    capsys.readouterr()
    assert run(["fit-dip", "--data", str(data)]) == 4
    assert capsys.readouterr().err == (f"ringlab: error: data: data file: [Errno 2] No such file or directory: "
                                       f"'{data}'\n")


def test_failed_command_leaves_no_output_file(device_cfg_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run(["transmission", "--config", str(device_cfg_path), "--p1", "40", "--p2", "10",
                "--dip-report", str(tmp_path / "nodir" / "d.csv"), "--out", str(out)]) == 4
    assert list(tmp_path.iterdir()) == []


def test_failed_command_keeps_an_existing_output_file(device_cfg_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(0o640)
    assert run(["transmission", "--config", str(device_cfg_path), "--p1", "40", "--p2", "10",
                "--dip-report", str(tmp_path / "nodir" / "d.csv"), "--out", str(out)]) == 4
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text(encoding="utf-8") == "old\n"
    assert run(["crossing-sweep", "--config", str(device_cfg_path), "--p1", "0:50:0.5", "--p2", "10",
                "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("p1_mw,")
    assert out.stat().st_mode & 0o777 == 0o640  # replaced, with the mode it had


def test_out_through_a_symlink_writes_its_target(device_cfg_path, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    assert run(["crossing-sweep", "--config", str(device_cfg_path), "--p1", "0:50:0.5", "--p2", "10",
                "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8").startswith("p1_mw,")
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_dip_report_to_the_out_file_is_a_usage_error(device_cfg_path, tmp_path, capsys):
    # both tables would be staged to one temporary file, the dip report truncating the trace
    target, link = tmp_path / "t.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    capsys.readouterr()
    assert run(["transmission", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    for report in (target, link):
        assert run(["transmission", "--config", str(device_cfg_path), "--p1", "40", "--p2", "10",
                    "--out", str(target), "--dip-report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and sorted(tmp_path.iterdir()) == [link]
        assert captured.err == (f"{usage}ringlab transmission: error: argument --dip-report: "
                                f"must not name the --out file: {str(report)!r}\n")
    assert run(["transmission", "--config", str(device_cfg_path), "--p1", "40", "--p2", "10", "--points", "101",
                "--out", "-", "--dip-report", "-"]) == 0  # both to stdout


def test_out_to_a_device_writes_in_place(device_cfg_path):
    assert run(["crossing-sweep", "--config", str(device_cfg_path), "--p1", "0:50:0.5", "--p2", "10",
                "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def lorentzian_trace_file(path, fwhm, baseline=1.0, noise=0.0):
    """A trace table at `path` with one dip to t_min = 0.2, six fwhm to each side,
    scaled by `baseline`, plus seeded white noise of standard deviation `noise`."""
    omega0 = 1.2066e15
    omega = omega0 + np.linspace(-6, 6, 801) * fwhm
    t = baseline * (1.0 - 0.8 / (1.0 + 4.0 * (omega - omega0) ** 2 / fwhm**2))
    write_csv_file(path, ["omega_rad_s", "t_power"], (omega, t + noise * np.random.default_rng(0).standard_normal(801)))
    return path


def test_fit_dip_on_trace_file(tmp_path):
    fwhm = 6.0 * MHZ
    data = lorentzian_trace_file(tmp_path / "trace.csv", fwhm)
    out = tmp_path / "dipfit.csv"
    assert run(["fit-dip", "--data", str(data), "--out", str(out)]) == 0
    fit = fit_values(out)
    assert fit["t_min"] == pytest.approx(0.2, abs=1e-8)
    assert fit["fwhm_rad_s"] == pytest.approx(fwhm, rel=1e-8)


@pytest.mark.parametrize("baseline, noise", [(1.05, 0.0), (1.0, 0.01), (5.0, 0.0)],
                         ids=["unnormalized", "noisy", "baseline-5"])
def test_fit_dip_on_measured_trace_above_one(baseline, noise, tmp_path):
    data = lorentzian_trace_file(tmp_path / "trace.csv", 6.0 * MHZ, baseline, noise)
    assert load_csv(data, {"omega_rad_s": float, "t_power": float})["t_power"].max() > 1.0
    out = tmp_path / "dipfit.csv"
    assert run(["fit-dip", "--data", str(data), "--out", str(out)]) == 0
    table = load_csv(out, {"param": str, "value": float, "stderr": float})
    row = table["param"].index("t_min")
    assert abs(table["value"][row] - 0.2) <= 3.0 * table["stderr"][row] + 1e-12  # plus rounding, for no noise


def test_fit_dip_output_does_not_depend_on_the_row_order(tmp_path):
    # an ascending trace is read as it is; a descending or shuffled one is sorted before
    # the window picks its rows
    columns = load_csv(lorentzian_trace_file(tmp_path / "trace.csv", 6.0 * MHZ, noise=0.01),
                       {"omega_rad_s": float, "t_power": float})
    omega, t = columns["omega_rad_s"], columns["t_power"]
    orders = {"ascending": np.arange(omega.size), "descending": np.arange(omega.size)[::-1],
              "shuffled": np.random.default_rng(35).permutation(omega.size)}
    written = {}
    for name, order in orders.items():
        write_csv_file(tmp_path / f"{name}.csv", ["omega_rad_s", "t_power"], (omega[order], t[order]))
        assert run(["fit-dip", "--data", str(tmp_path / f"{name}.csv"), "--window", "200:600",
                    "--out", str(tmp_path / f"{name}.out")]) == 0
        written[name] = (tmp_path / f"{name}.out").read_bytes()
    assert written["descending"] == written["ascending"]
    assert written["shuffled"] == written["ascending"]


@pytest.mark.parametrize("window, message", [
    ("5", "window must be start:stop, got '5'"),
    ("a:b", "window indices must be integers: 'a:b'"),
    ("-50:-1", "window must have 0 <= start < stop, got '-50:-1'"),
    ("300:100", "window must have 0 <= start < stop, got '300:100'"),
], ids=["no-colon", "not-integers", "negative", "reversed"])
def test_malformed_fit_dip_window_is_a_usage_error(window, message, tmp_path, capsys):
    data = lorentzian_trace_file(tmp_path / "trace.csv", 6.0 * MHZ)
    capsys.readouterr()
    assert run(["fit-dip", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    assert run(["fit-dip", "--data", str(data), "--window", window]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{usage}ringlab fit-dip: error: argument --window: {message}\n"


def test_fit_dip_window_too_small_exit_5(tmp_path, capsys):
    data = lorentzian_trace_file(tmp_path / "trace.csv", 6.0 * MHZ)
    capsys.readouterr()
    assert run(["fit-dip", "--data", str(data), "--window", "0:5"]) == 5
    assert capsys.readouterr().err == "ringlab: error: numeric: window [0, 5) too small for a 4-parameter fit\n"


def test_fit_crossing_with_every_parameter_fixed_exit_5(crossing_data, capsys):
    fixes = [arg for name in CROSSING_PARAMS for arg in ("--fix", f"{name}=1")]
    capsys.readouterr()
    assert run(["fit-crossing", "--data", str(crossing_data), *fixes]) == 5
    assert capsys.readouterr().err == "ringlab: error: numeric: no free parameters to fit\n"


def test_fit_crossing_unknown_branch_exit_5(crossing_data, capsys):
    text = crossing_data.read_text(encoding="utf-8")
    assert ",lower," in text
    crossing_data.write_text(text.replace(",lower,", ",middle,", 1), encoding="utf-8")
    capsys.readouterr()
    assert run(["fit-crossing", "--data", str(crossing_data)]) == 5
    assert capsys.readouterr().err == "ringlab: error: numeric: branch must be 'upper' or 'lower', got 'middle'\n"


def test_fit_dip_rejects_double_dip_window_exit_5(tmp_path, capsys):
    omega0, fwhm = 1.2066e15, 6.0 * MHZ
    omega = omega0 + np.linspace(-1e8, 1e8, 1001)
    t = (1.0
         - 0.5 / (1.0 + 4.0 * (omega - omega0 + 4e7) ** 2 / fwhm**2)
         - 0.5 / (1.0 + 4.0 * (omega - omega0 - 4e7) ** 2 / fwhm**2))
    data = tmp_path / "two.csv"
    write_csv_file(data, ["omega_rad_s", "t_power"], (omega, np.clip(t, 0, 1)))
    assert run(["fit-dip", "--data", str(data)]) == 5
    assert "ringlab: error: numeric:" in capsys.readouterr().err


def test_malformed_csv_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("p1_mw,p2_mw\n1,2\n")
    assert run(["fit-crossing", "--data", str(bad)]) == 4
    assert "ringlab: error: data:" in capsys.readouterr().err


# --- seeded mutations of the two CSV loaders -----------------------------------------

LOADERS = {
    # command -> (numeric columns, column -> its alternative name)
    "fit-dip": (("omega_rad_s", "t_power"), {"omega_rad_s": "wavelength_nm"}),
    "fit-crossing": (("p1_mw", "p2_mw", "resonance_rad_s"), {"resonance_rad_s": "resonance_nm"}),
}
MUTATIONS = ("oops", "nan", "inf", "drop", "add", "rename", "comments")


def valid_loader_input(command, device_cfg_path, tmp_path):
    """Header, rows (as cell strings) and extra arguments of a file `command` accepts."""
    if command == "fit-dip":
        omega0, fwhm = 1.2066e15, 6.0 * MHZ
        omega = omega0 + np.linspace(-6, 6, 41) * fwhm
        t = 1.0 - 0.8 / (1.0 + 4.0 * (omega - omega0) ** 2 / fwhm**2)
        return ["omega_rad_s", "t_power"], [[repr(a), repr(b)] for a, b in zip(omega.tolist(), t.tolist())], []
    data = tmp_path / "crossing.csv"
    assert run(["crossing-sweep", "--config", str(device_cfg_path),
                "--p1", "5:55:2.5", "--p2", "10", "--out", str(data)]) == 0
    header, *rows = (line.split(",") for line in data.read_text(encoding="utf-8").splitlines())
    return header, rows, ["--fix", f"alpha2={30.0 * MHZ!r}"]


def mutate(header, rows, numeric, alternatives, rng):
    """A copy of a valid table with one seeded defect: its lines and the loader's message."""
    kind = MUTATIONS[rng.integers(len(MUTATIONS))]
    header, rows = list(header), [list(row) for row in rows]
    i = int(rng.integers(len(rows)))
    if kind in ("oops", "nan", "inf"):
        name = numeric[rng.integers(len(numeric))]
        rows[i][header.index(name)] = kind
        expected = f"row {i + 3}, column {name!r}: " + ("not numeric: 'oops'" if kind == "oops" else "non-finite value")
    elif kind == "drop":
        del rows[i][rng.integers(len(header))]
        expected = f"row {i + 3}: expected {len(header)} cells, got {len(header) - 1}"
    elif kind == "add":
        header.append("extra")
        for row in rows:
            row.append("1")
        expected = "unexpected column 'extra'"
    elif kind == "rename":
        j = int(rng.integers(len(header)))
        name, header[j] = header[j], header[j].upper()
        expected = f"missing column {alternatives.get(name, name)!r}"
    else:
        return kind, ["# only comments", "", "#   and a blank line"], "empty file (no header row)"
    return kind, ["# a comment line is not a row", ",".join(header), *map(",".join, rows)], expected


@pytest.mark.parametrize("command", sorted(LOADERS))
def test_csv_loader_rejects_seeded_mutations(command, device_cfg_path, tmp_path, capsys):
    numeric, alternatives = LOADERS[command]
    header, rows, extra = valid_loader_input(command, device_cfg_path, tmp_path)
    data = tmp_path / "data.csv"
    data.write_text("\n".join([",".join(header), *map(",".join, rows)]) + "\n", encoding="utf-8")
    assert run([command, "--data", str(data), *extra, "--out", str(tmp_path / "fit.csv")]) == 0
    capsys.readouterr()
    rng = np.random.default_rng(sorted(LOADERS).index(command) + 505)
    seen = set()
    for _ in range(40):
        kind, lines, expected = mutate(header, rows, numeric, alternatives, rng)
        seen.add(kind)
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run([command, "--data", str(data), *extra]) == 4, (kind, expected)
        assert capsys.readouterr().err == f"ringlab: error: data: {data}: {expected}\n"
    assert seen == set(MUTATIONS)


@pytest.mark.parametrize("command", sorted(LOADERS))
def test_csv_loader_accepts_a_byte_order_mark(command, device_cfg_path, tmp_path, capsys):
    header, rows, extra = valid_loader_input(command, device_cfg_path, tmp_path)
    text = "\n".join([",".join(header), *map(",".join, rows)]) + "\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    capsys.readouterr()
    outputs = []
    for data in (plain, marked):
        out = tmp_path / f"fit_{data.name}"
        assert run([command, "--data", str(data), *extra, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().err))
    assert outputs[1] == outputs[0]


WAVELENGTH_TABLES = {  # command -> its wavelength column and a table with {} for two cells of it
    "fit-dip": ("wavelength_nm", "wavelength_nm,t_power\n1550.0,0.9\n{},0.5\n{},0.9\n"),
    "fit-crossing": ("resonance_nm", "p1_mw,p2_mw,branch,resonance_nm\n20,10,lower,1550.0\n25,10,lower,{}\n"
                                     "30,10,lower,{}\n"),
}


@pytest.mark.parametrize("command", sorted(WAVELENGTH_TABLES))
@pytest.mark.parametrize("cell", ["0", "-0.0", "-1550", "1e-300"])
def test_wavelength_that_is_not_positive_is_a_data_error(command, cell, tmp_path, capsys):
    # 0 would divide by zero, a negative wavelength fit at negative frequencies, and one so short
    # that its frequency overflows name no file; the braces in the path are printed as they are
    column, text = WAVELENGTH_TABLES[command]
    data, out = tmp_path / "a{0}b.csv", tmp_path / "fit.csv"
    data.write_text(text.format(cell, "-5" if float(cell) <= 0 else "1e-310"), encoding="utf-8")  # the first is named
    problem = "wavelength must be positive" if float(cell) <= 0 else "wavelength too short for a finite frequency"
    assert run([command, "--data", str(data), "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"ringlab: error: data: {data}: column {column!r}: {problem}, got {float(cell)!r}\n"
    assert not out.exists()


FREQUENCY_TABLES = {  # command -> its rad/s column and a table with {} for two cells of it
    "fit-dip": ("omega_rad_s", "omega_rad_s,t_power\n1.2066e15,0.9\n{},0.5\n{},0.9\n"),
    "fit-crossing": ("resonance_rad_s", "p1_mw,p2_mw,branch,resonance_rad_s\n20,10,lower,1.2066e15\n"
                                        "25,10,lower,{}\n30,10,lower,{}\n"),
}


@pytest.mark.parametrize("command", sorted(FREQUENCY_TABLES))
@pytest.mark.parametrize("cell", ["0", "-0.0", "-1.2066e15"])
def test_frequency_that_is_not_positive_is_a_data_error(command, cell, tmp_path, capsys):
    column, text = FREQUENCY_TABLES[command]
    data, out = tmp_path / "a{0}b.csv", tmp_path / "fit.csv"
    data.write_text(text.format(cell, "-5"), encoding="utf-8")  # the first is named
    assert run([command, "--data", str(data), "--out", str(out)]) == 4
    assert capsys.readouterr().err == (f"ringlab: error: data: {data}: column {column!r}: "
                                       f"frequency must be positive, got {float(cell)!r}\n")
    assert not out.exists()


def test_shot_cal(tmp_path, capsys):
    out = tmp_path / "cal.csv"
    assert run(["shot-cal", "--powers", "1,2,4,8", "--seed", "3", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "r_squared=" in err
    assert_columns({"power": load_csv(out, {"power": float, "psd_level": float})["power"]},
                   {"power": [1.0, 2.0, 4.0, 8.0]})


def test_langevin_verify_small(device_cfg_path, tmp_path, capsys):
    out = tmp_path / "lv.csv"
    args = [
        "langevin-verify", "--config", str(device_cfg_path), "--seed", "7",
        "--trajectories", "10", "--segments", "20", "--out", str(out),
    ]
    assert run(args) == 0
    err = capsys.readouterr().err
    assert "max |simulated - analytic|" in err
    text = out.read_text()
    assert "# seed=7" in text and "# n_trajectories=10" in text
    table = load_csv(out, {"freq_hz": float, "psd_shotnoise_units": float, "psd_db": float})
    assert len(table["freq_hz"]) > 100


def test_fit_crossing_accepts_wavelength_data(device_cfg_path, tmp_path):
    # same synthetic crossing, resonances given in nm instead of rad/s
    data = tmp_path / "crossing_rad.csv"
    assert run([
        "crossing-sweep", "--config", str(device_cfg_path),
        "--p1", "5:55:2.5", "--p2", "10", "--out", str(data),
    ]) == 0
    table = load_csv(data, {"p1_mw": float, "p2_mw": float, "branch": str, "resonance_rad_s": float})
    c = 299792458.0
    nm = 2 * math.pi * c / table["resonance_rad_s"] * 1e9
    nm_data = tmp_path / "crossing_nm.csv"
    write_csv_file(nm_data, ["p1_mw", "p2_mw", "branch", "resonance_nm"],
                   (table["p1_mw"], table["p2_mw"], table["branch"], nm))
    fit_out = tmp_path / "fit_nm.csv"
    assert run([
        "fit-crossing", "--data", str(nm_data),
        "--fix", f"alpha2={30.0 * MHZ!r}", "--out", str(fit_out),
    ]) == 0
    assert fit_values(fit_out)["kappa_12"] == pytest.approx(150.0 * MHZ, rel=1e-4)


def test_langevin_verify_default_budget_meets_bound(device_cfg_path, tmp_path):
    # documented verification run: 200 trajectories at the sweep's overcoupled end
    out = tmp_path / "lv_full.csv"
    assert run([
        "langevin-verify", "--config", str(device_cfg_path), "--seed", "7",
        "--trajectories", "200", "--out", str(out),
    ]) == 0
    text = out.read_text()
    meta = dict(
        line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# ")
    )
    gamma_total = float(meta["gamma_total"])
    kappa_eff = float(meta["kappa_eff"])
    table = load_csv(out, {"freq_hz": float, "psd_shotnoise_units": float, "psd_db": float})
    eta = kappa_eff / gamma_total
    worst = 0.0
    for freq_hz, psd_db in zip(table["freq_hz"], table["psd_db"]):
        omega = 2 * math.pi * freq_hz
        if omega > 3 * gamma_total:
            continue
        analytic = 1.0 - eta / (1.0 + (omega / gamma_total) ** 2)
        worst = max(worst, abs(psd_db - 10 * math.log10(analytic)))
    assert worst <= 0.2


def test_monte_carlo_commands_byte_identical(device_cfg_path, tmp_path):
    for args, name in [
        ((["etac-sweep", "--config", str(device_cfg_path), "--branch", "lower",
           "--p1", "0:50:0.5", "--p2", "10"]), "etac"),
        ((["shot-cal", "--powers", "1,2,4,8", "--seed", "11"]), "cal"),
        ((["langevin-verify", "--config", str(device_cfg_path), "--seed", "5",
           "--trajectories", "4", "--segments", "12"]), "lv"),
    ]:
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_fit_crossing_unknown_parameter_exit_5(device_cfg_path, tmp_path, capsys):
    data = tmp_path / "crossing.csv"
    assert run(["crossing-sweep", "--config", str(device_cfg_path), "--p1", "5:55:2.5", "--p2", "10",
                "--out", str(data)]) == 0
    for flag in ("--init", "--fix"):
        out = tmp_path / f"fit{flag}.csv"
        capsys.readouterr()
        assert run(["fit-crossing", "--data", str(data), flag, "bogus=1", "--out", str(out)]) == 5, flag
        assert capsys.readouterr().err == "ringlab: error: numeric: unknown parameter 'bogus'\n"
        assert not out.exists()


# --- non-finite numbers are usage errors -------------------------------------------

# (flag, command line with {v} where the number goes), one per real-valued flag,
# per part of a range, per NAME=VALUE assignment and per power-list entry.
NON_FINITE_CASES = [
    ("--p1", ["transmission", "--config", "{cfg}", "--p1={v}", "--p2", "10"]),
    ("--p2", ["transmission", "--config", "{cfg}", "--p1", "40", "--p2={v}"]),
    ("--omega", ["transmission", "--config", "{cfg}", "--p1", "40", "--p2", "10", "--omega={v}:2e15:1e9"]),
    ("--margin-linewidths", ["transmission", "--config", "{cfg}", "--p1", "40", "--p2", "10",
                             "--margin-linewidths={v}"]),
    ("--p1", ["crossing-sweep", "--config", "{cfg}", "--p1={v}:1:0.1", "--p2", "10"]),
    ("--p1", ["crossing-sweep", "--config", "{cfg}", "--p1=0:{v}:0.1", "--p2", "10"]),
    ("--p1", ["crossing-sweep", "--config", "{cfg}", "--p1=0:1:{v}", "--p2", "10"]),
    ("--p2", ["crossing-sweep", "--config", "{cfg}", "--p1", "0:1:0.5", "--p2={v}"]),
    ("--p2", ["etac-sweep", "--config", "{cfg}", "--branch", "lower", "--p1", "0:1:0.5", "--p2={v}"]),
    ("--sideband-mhz", ["squeeze-sweep", "--config", "{cfg}", "--branch", "lower", "--p1", "0:1:0.5",
                        "--p2", "10", "--sideband-mhz={v}"]),
    ("--eta-c", ["squeeze-spectrum", "--eta-c={v}", "--eta-d", "0.5", "--tau-c", "1e-8", "--f", "0:1e6:1e5"]),
    ("--eta-d", ["squeeze-spectrum", "--eta-c", "0.5", "--eta-d={v}", "--tau-c", "1e-8", "--f", "0:1e6:1e5"]),
    ("--tau-c", ["squeeze-spectrum", "--eta-c", "0.5", "--eta-d", "0.5", "--tau-c={v}", "--f", "0:1e6:1e5"]),
    ("--f", ["squeeze-spectrum", "--eta-c", "0.5", "--eta-d", "0.5", "--tau-c", "1e-8", "--f=0:{v}:1e5"]),
    ("--p1", ["langevin-verify", "--config", "{cfg}", "--p1={v}"]),
    ("--p2", ["langevin-verify", "--config", "{cfg}", "--p2={v}"]),
    ("--dt-factor", ["langevin-verify", "--config", "{cfg}", "--dt-factor={v}"]),
    ("--powers", ["shot-cal", "--powers=1,{v},4"]),
    ("--samples", ["shot-cal", "--samples={v}"]),
    ("--fix", ["fit-crossing", "--data", "{cfg}", "--fix=kappa_12={v}"]),
    ("--init", ["fit-crossing", "--data", "{cfg}", "--init=alpha1={v}"]),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag, argv", NON_FINITE_CASES,
                         ids=[" ".join([argv[0], *(a.replace("{v}", "V") for a in argv if "{v}" in a)]) for _, argv in NON_FINITE_CASES])
def test_non_finite_flag_value_is_a_usage_error(flag, argv, value, device_cfg_path, tmp_path, capsys):
    command, out = argv[0], tmp_path / "out.csv"
    capsys.readouterr()
    assert run([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    args = [arg.format(cfg=device_cfg_path, v=value) for arg in argv]
    assert run([*args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    assert captured.err == f"{usage}ringlab {command}: error: argument {flag}: not a finite number: {value!r}\n"


# --- a NAME=VALUE value must be numeric --------------------------------------------


@pytest.mark.parametrize("flag, pair, message", [
    ("--fix", "kappa_12=abc", "value for 'kappa_12' must be numeric: 'abc'"),
    ("--init", "alpha1=1e", "value for 'alpha1' must be numeric: '1e'"),
    ("--fix", "kappa_12", "expected name=value, got 'kappa_12'"),
], ids=["fix", "init", "no-value"])
def test_non_numeric_assignment_is_a_usage_error(flag, pair, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run(["fit-crossing", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    assert run(["fit-crossing", "--data", str(tmp_path / "crossing.csv"), flag, pair, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    assert captured.err == f"{usage}ringlab fit-crossing: error: argument {flag}: {message}\n"


# --- counts and margins must be positive ---------------------------------------------

TRANSMISSION = ["transmission", "--config", "{cfg}", "--p1", "40", "--p2", "10"]
POSITIVE_CASES = [
    ("--points", TRANSMISSION, ["-3", "0"]),
    ("--margin-linewidths", TRANSMISSION, ["-1", "0", "-0.0"]),
    ("--samples", ["shot-cal"], ["-5", "0"]),
    ("--trajectories", ["langevin-verify", "--config", "{cfg}"], ["-2", "0"]),
    ("--segments", ["langevin-verify", "--config", "{cfg}"], ["0", "-1"]),
    ("--dt-factor", ["langevin-verify", "--config", "{cfg}"], ["0", "-0.01"]),
]


@pytest.mark.parametrize("flag, argv, values", POSITIVE_CASES, ids=[flag for flag, _, _ in POSITIVE_CASES])
def test_non_positive_count_or_margin_is_a_usage_error(flag, argv, values, device_cfg_path, tmp_path, capsys):
    command, out = argv[0], tmp_path / "out.csv"
    capsys.readouterr()
    assert run([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    args = [arg.format(cfg=device_cfg_path) for arg in argv]
    for value in values:
        assert run([*args, flag, value, "--out", str(out)]) == 2, value
        captured = capsys.readouterr()
        assert not out.exists()
        assert captured.out == ""
        assert captured.err == f"{usage}ringlab {command}: error: argument {flag}: must be positive: {value!r}\n"


@pytest.mark.parametrize("argv", [["shot-cal"], ["langevin-verify", "--config", "{cfg}"]],
                         ids=["shot-cal", "langevin-verify"])
def test_negative_seed_is_a_usage_error(argv, device_cfg_path, tmp_path, capsys):
    command, out = argv[0], tmp_path / "out.csv"
    capsys.readouterr()
    assert run([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    args = [arg.format(cfg=device_cfg_path) for arg in argv]
    assert run([*args, "--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    assert captured.err == f"{usage}ringlab {command}: error: argument --seed: must be non-negative: '-1'\n"


def test_too_few_shot_cal_samples_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run(["shot-cal", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    for value in ("100", "255", "255.4", "0.5"):  # counted after rounding: 256 fills 31 half-overlapping segments
        assert run(["shot-cal", "--samples", value, "--out", str(out)]) == 2, value
        captured = capsys.readouterr()
        assert not out.exists()
        assert captured.err == f"{usage}ringlab shot-cal: error: argument --samples: must be at least 256: {value!r}\n"
    for value in ("256", "255.5"):
        assert run(["shot-cal", "--samples", value, "--out", str(out)]) == 0, value


# --- sample budgets, the time step and the probe margin are capped at parse time -------

# Each of the first three values asks for an array numpy refuses to allocate, which used to
# end in a traceback; the last three used to start the work, or fail inside it naming no flag.
BUDGET_CASES = [
    ("--points", TRANSMISSION, "30000000000", f"must be at most {RANGE_MAX_POINTS}"),
    ("--samples", ["shot-cal"], "3e10", f"must be at most {RANGE_MAX_POINTS}"),
    ("--segments", ["langevin-verify", "--config", "{cfg}", "--trajectories", "1"], "1000000000000",
     f"must be at most 4881, so a trajectory has at most {RANGE_MAX_POINTS} samples"),
    ("--trajectories", ["langevin-verify", "--config", "{cfg}"], "10280",
     f"must be at most 10279 at --segments 94, so a run has at most {MONTE_CARLO_MAX_SAMPLES} samples"),
    ("--dt-factor", ["langevin-verify", "--config", "{cfg}"], "0.1", "must be at most 0.05"),
    ("--margin-linewidths", TRANSMISSION, "1e300", "must be at most 1e+200"),
]


@pytest.mark.parametrize("flag, argv, value, message", BUDGET_CASES, ids=[flag for flag, *_ in BUDGET_CASES])
def test_sample_budget_over_the_cap_is_a_usage_error(flag, argv, value, message, device_cfg_path, tmp_path, capsys):
    command, out = argv[0], tmp_path / "out.csv"
    capsys.readouterr()
    assert run([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    args = [arg.format(cfg=device_cfg_path) for arg in argv]
    assert run([*args, flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    assert captured.err == f"{usage}ringlab {command}: error: argument {flag}: {message}: {value!r}\n"


@pytest.mark.parametrize("argv, at_cap, over", [
    (["transmission", "--config", "c", "--p1", "0", "--p2", "0", "--points"], "10000000", "10000001"),
    (["shot-cal", "--samples"], "10000000.4", "10000000.6"),                  # counted after rounding
    (["langevin-verify", "--config", "c", "--segments"], "4881", "4882"),    # 4882 * 2048 <= 1e7 < 4883 * 2048
    (["langevin-verify", "--config", "c", "--trajectories"], "10279", "10280"),  # times 95 * 2048, about 2e9
    (["langevin-verify", "--config", "c", "--segments", "4881", "--trajectories"], "200", "201"),
    (["langevin-verify", "--config", "c", "--dt-factor"], "0.05", "0.0500001"),
    (["transmission", "--config", "c", "--p1", "0", "--p2", "0", "--margin-linewidths"], "1e200", "1.0000001e200"),
])
def test_sample_budget_cap_admits_the_cap_itself(argv, at_cap, over, capsys):
    parser = build_parser()
    assert parser.parse_args([*argv, at_cap]) is not None
    with pytest.raises(SystemExit) as refused:
        parser.parse_args([*argv, over])
    assert refused.value.code == 2 and "must be at most" in capsys.readouterr().err


def test_monte_carlo_budget_is_checked_on_the_parsed_segments(device_cfg_path, tmp_path, monkeypatch, capsys):
    # --segments after --trajectories still sets the budget; a refused run starts no trajectory
    def no_trajectory(*args):
        raise AssertionError("a trajectory started")

    monkeypatch.setattr(langevin, "trajectory_output_psd", no_trajectory)
    out = tmp_path / "out.csv"
    for trajectories, segments, most in (("201", "4881", 200), ("10" + "0" * 20, "1", 488281)):
        capsys.readouterr()
        assert run(["langevin-verify", "--config", str(device_cfg_path), "--trajectories", trajectories,
                    "--segments", segments, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        assert captured.err.endswith(
            f"ringlab langevin-verify: error: argument --trajectories: must be at most {most} at --segments "
            f"{segments}, so a run has at most {MONTE_CARLO_MAX_SAMPLES} samples: {trajectories!r}\n")


# (segments + 1) * 2048 * dt_factor must reach 50: the floor that LangevinRun puts at
# n_steps * dt >= 50/gamma_total, scale-free, so it is checked before the config is read.
FLOOR_CASES = [  # (flags, least segments, dt-factor)
    (["--segments", "1", "--trajectories", "1"], 2, "0.01"),  # 2 * 2048 * 0.01 = 40.96
    (["--segments", "2", "--dt-factor", "0.0081380208333333"], 3, "0.0081380208333333"),  # just below 50
]


@pytest.mark.parametrize("flags, least, factor", FLOOR_CASES, ids=["segments-1", "below-the-boundary"])
def test_trajectory_shorter_than_50_over_gamma_is_a_usage_error(flags, least, factor, device_cfg_path, tmp_path,
                                                                monkeypatch, capsys):
    def no_trajectory(*args):
        raise AssertionError("a trajectory started")

    monkeypatch.setattr(langevin, "trajectory_output_psd", no_trajectory)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run(["langevin-verify", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    assert run(["langevin-verify", "--config", str(device_cfg_path), *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    segments = flags[flags.index("--segments") + 1]
    assert captured.err == (f"{usage}ringlab langevin-verify: error: argument --segments: must be at least {least} "
                            f"at --dt-factor {factor}, so a trajectory lasts at least 50/gamma_total: {segments!r}\n")


def test_trajectory_of_exactly_50_over_gamma_runs(device_cfg_path, tmp_path, capsys):
    # the smallest dt-factor whose 3 * 2048 * dt-factor reaches 50: admitted, and not refused later either
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run(["langevin-verify", "--config", str(device_cfg_path), "--segments", "2", "--trajectories", "1",
                "--dt-factor", "0.008138020833333334", "--out", str(out)]) == 0
    assert out.exists() and capsys.readouterr().err.startswith("langevin-verify: ")


@pytest.mark.parametrize("segments", [1, 2, 5, 94, 4881])
def test_run_the_parser_admits_is_long_enough_at_any_rate(segments, capsys):
    # LangevinRun checks G * n_steps * (dt_factor / G), rounded twice: at the smallest
    # dt-factor the parser admits it must still accept the run, whatever G is
    n_steps = (segments + 1) * 2048
    factor = 50 / n_steps
    if Fraction(factor) * n_steps < 50:  # the parser counts exactly
        factor = math.nextafter(factor, 1.0)

    def refusal(value):
        """The parser's error at this dt-factor, or None."""
        try:
            build_parser().parse_args(["langevin-verify", "--config", "c", "--segments", str(segments),
                                       "--trajectories", "1", "--dt-factor", repr(value)])
        except SystemExit:
            return capsys.readouterr().err
        return None

    assert refusal(factor) is None
    # below the least factor of the most segments, no segment count is enough: --dt-factor is refused
    flag = "--dt-factor" if segments == cli.MAX_SEGMENTS else "--segments"
    assert f"argument {flag}: must be at least" in refusal(math.nextafter(factor, 0.0))
    for gamma_total in 10.0 ** np.random.default_rng(segments).uniform(0.0, 15.0, 2000):
        assert langevin.LangevinRun(gamma_total, 0.5 * gamma_total, factor / gamma_total, n_steps, 1, 0)


# Below 50 / (4882 * 2048) no --segments reaches 50/gamma_total, so --dt-factor is refused itself.
LEAST_DT_FACTOR = "5.000832138467842e-06"  # the least float whose 4882 * 2048 multiple reaches 50


@pytest.mark.parametrize("value", ["1e-6", "5e-324", repr(math.nextafter(float(LEAST_DT_FACTOR), 0.0))],
                         ids=["1e-6", "least-float", "below-the-boundary"])
def test_time_step_too_short_for_any_segment_count_is_a_usage_error(value, device_cfg_path, tmp_path, capsys):
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run(["langevin-verify", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    for segments in ("4881", "94"):
        assert run(["langevin-verify", "--config", str(device_cfg_path), "--segments", segments,
                    "--dt-factor", value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        assert captured.err == (f"{usage}ringlab langevin-verify: error: argument --dt-factor: must be at least "
                                f"{LEAST_DT_FACTOR}, so a trajectory of at most 4881 segments lasts at least "
                                f"50/gamma_total: {value!r}\n")


def test_least_time_step_is_admitted_at_the_most_segments(capsys):
    assert Fraction(LEAST_DT_FACTOR) * 4882 * 2048 >= 50 > Fraction(math.nextafter(float(LEAST_DT_FACTOR), 0.0)) * 4882 * 2048
    assert cli.LEAST_DT_FACTOR == float(LEAST_DT_FACTOR)
    flags = ["langevin-verify", "--config", "c", "--trajectories", "1", "--dt-factor", LEAST_DT_FACTOR, "--segments"]
    assert build_parser().parse_args([*flags, "4881"]).dt_factor == float(LEAST_DT_FACTOR)
    with pytest.raises(SystemExit):
        build_parser().parse_args([*flags, "4880"])
    assert "argument --segments: must be at least 4881 at --dt-factor" in capsys.readouterr().err


# --- shot-cal powers: at least two, each 0 or in POWER_RANGE, one positive -------------


@pytest.mark.parametrize("value, message", [
    (",", "at least one power required: ','"),
    (" , ,", "at least one power required: ' , ,'"),
    ("1,-1,2", "powers must be non-negative: '1,-1,2'"),
    ("-0.5", "powers must be non-negative: '-0.5'"),
    ("5", "at least two powers required: '5'"),
    ("0,0", "at least one power must be positive: '0,0'"),
    ("1,x", "powers must be numeric: '1,x'"),
    # past the ends of POWER_RANGE the calibration's sum of squared powers overflows or is zero
    ("1e154,1e154", "powers must be 0 or within [1e-150, 1e+150]: '1e154,1e154'"),
    ("1,1e300", "powers must be 0 or within [1e-150, 1e+150]: '1,1e300'"),
    ("0,1e306", "powers must be 0 or within [1e-150, 1e+150]: '0,1e306'"),
    ("1e-320,1e-320", "powers must be 0 or within [1e-150, 1e+150]: '1e-320,1e-320'"),
    (f"1,{math.nextafter(1e150, math.inf)!r}", "powers must be 0 or within [1e-150, 1e+150]: "
                                                 f"'1,{math.nextafter(1e150, math.inf)!r}'"),
    (f"1,{math.nextafter(1e-150, 0.0)!r}", "powers must be 0 or within [1e-150, 1e+150]: "
                                            f"'1,{math.nextafter(1e-150, 0.0)!r}'"),
])
def test_bad_power_list_is_a_usage_error(value, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run(["shot-cal", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    assert run(["shot-cal", "--powers", value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    assert captured.err == f"{usage}ringlab shot-cal: error: argument --powers: {message}\n"


@pytest.mark.parametrize("value", ["1,2", "0,1", "2,2,2", "1e-150,1e150", "0,1e-150", ",".join(["1e150"] * 8)])
def test_shot_cal_line_through_two_or_equal_powers(value, tmp_path, capsys):
    out = tmp_path / "cal.csv"
    capsys.readouterr()
    assert run(["shot-cal", "--powers", value, "--samples", "256", "--out", str(out)]) == 0
    assert capsys.readouterr().err.startswith("shot-cal: slope=")
    assert load_csv(out, {"power": float, "psd_level": float})["power"].tolist() == [float(p) for p in value.split(",")]


def test_shot_cal_zero_power_is_valid(tmp_path):
    out = tmp_path / "cal.csv"
    assert run(["shot-cal", "--powers", "0,-0.0,1,2,4", "--samples", "4096", "--out", str(out)]) == 0
    table = load_csv(out, {"power": float, "psd_level": float})
    assert_columns({"power": table["power"]}, {"power": [0.0, -0.0, 1.0, 2.0, 4.0]})
    assert table["psd_level"][0] == table["psd_level"][1] == 0.0


# --- a negative number is a value, also in exponent form -------------------------------

SQUEEZE = ["squeeze-spectrum", "--eta-c", "0.7", "--eta-d", "0.6", "--tau-c", "22.5e-9", "--f", "0:1e6:5e5"]


@pytest.mark.parametrize("flag, value, status", [
    ("--tau-c", "-1e-8", 5),
    ("--eta-c", "-.5", 5),
    ("--f", "-1e3:1e3:500", 0),
    ("--eta-d", "-5E-1", 5),
])
def test_negative_value_after_a_space_is_the_flag_value(flag, value, status, tmp_path, capsys):
    out = tmp_path / "out.csv"
    given = SQUEEZE[:SQUEEZE.index(flag)] + SQUEEZE[SQUEEZE.index(flag) + 2:] + ["--out", str(out)]
    spaced = run_bytes([*given, flag, value], out, capsys)
    joined = run_bytes([*given, f"{flag}={value}"], out, capsys)
    assert spaced == joined
    assert spaced[0] == status
    assert "expected one argument" not in spaced[3]


# --- one parser per process ---------------------------------------------------------

# Runs of every kind: tables, a failing fit, usage errors and help, each
# followed by a normal run, with repeatable flags given, repeated and left
# out.  {out} is the CSV path.
ALPHA2 = f"alpha2={30.0 * MHZ!r}"
REUSE_RUNS = [
    ["validate", "--config", "{cfg}"],
    ["fit-crossing", "--data", "{data}", "--fix", ALPHA2, "--out", "{out}"],
    ["fit-crossing", "--data", "{data}", "--fix", ALPHA2, "--init", f"kappa_12={140.0 * MHZ!r}", "--out", "{out}"],
    ["fit-crossing", "--data", "{data}", "--out", "{out}"],  # alpha2 free: rank-deficient, exit 5
    ["etac-sweep", "--config", "{cfg}", "--branch", "lower", "--p1", "0:50:0.5", "--p2", "10", "--out", "{out}"],
    ["crossing-sweep", "--config", "{cfg}", "--p1", "1:2", "--p2", "10"],
    ["etac-sweep", "--help"],
    ["etac-sweep", "--config", "{cfg}", "--branch", "sideways", "--p1", "0:50:0.5", "--p2", "10"],
    ["fit-crossing", "--data", "{data}", "--fix", "bogus", "--out", "{out}"],
    ["squeeze-spectrum", "--eta-c", "0.7", "--eta-d", "0.6", "--tau-c", "22.5e-9", "--f", "0:6e6:1e5",
     "--out", "{out}"],
    ["bogus"],
    ["shot-cal", "--powers", "1,2,4", "--seed", "1", "--samples", "4096", "--out", "{out}"],
    ["fit-crossing", "--data", "{data}", "--fix", ALPHA2, "--fix", f"kappa_12={150.0 * MHZ!r}", "--out", "{out}"],
    ["squeeze-sweep", "--config", "{cfg}", "--branch", "upper", "--p1", "0:50:1", "--p2", "10", "--out", "{out}"],
    [],
]


@pytest.fixture
def crossing_data(device_cfg_path, tmp_path):
    data = tmp_path / "crossing.csv"
    assert run(["crossing-sweep", "--config", str(device_cfg_path), "--p1", "5:55:2.5", "--p2", "10",
                "--out", str(data)]) == 0
    return data


def run_bytes(argv, out, capsys):
    """Exit status, CSV bytes, stdout and stderr of one run."""
    out.unlink(missing_ok=True)
    capsys.readouterr()
    status = run(argv)
    captured = capsys.readouterr()
    return status, out.read_bytes() if out.exists() else None, captured.out, captured.err


def test_shared_parser_gives_the_bytes_of_a_fresh_one(device_cfg_path, crossing_data, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "out.csv"
    runs = [[a.format(cfg=device_cfg_path, data=crossing_data, out=out) for a in argv] for argv in REUSE_RUNS]
    fresh = []
    for argv in runs:
        build_parser.cache_clear()
        fresh.append(run_bytes(argv, out, capsys))
    assert [f[0] for f in fresh] == [0, 0, 0, 5, 0, 2, 0, 2, 2, 0, 2, 0, 0, 0, 2]

    build_parser.cache_clear()
    order = [*range(len(runs)), *reversed(range(len(runs)))]
    assert [run_bytes(runs[i], out, capsys) for i in order] == [fresh[i] for i in order]
    assert build_parser.cache_info().misses == 1


def test_repeatable_flags_start_empty_on_every_parse(crossing_data, tmp_path, capsys):
    parser = build_parser()
    assert run(["fit-crossing", "--data", str(crossing_data), "--fix", ALPHA2, "--init", "kappa_12=1e9",
                "--out", str(tmp_path / "fit.csv")]) == 0
    assert build_parser() is parser
    args = parser.parse_args(["fit-crossing", "--data", "x.csv"])
    assert (args.fix, args.init) == (None, None)
    args = parser.parse_args(["fit-crossing", "--data", "x.csv", "--fix", "alpha1=2"])
    assert (args.fix, args.init) == ([("alpha1", 2.0)], None)


def test_threads_run_different_commands_at_once(device_cfg_path, crossing_data, tmp_path, capsys):
    cfg = str(device_cfg_path)
    jobs = {  # more threads than this host may have cores, each on its own command
        "etac": ["etac-sweep", "--config", cfg, "--branch", "lower", "--p1", "0:50:0.01", "--p2", "10"],
        "fit": ["fit-crossing", "--data", str(crossing_data), "--fix", ALPHA2, "--init", "kappa_12=1e9"],
        "spectrum": ["squeeze-spectrum", "--eta-c", "0.7", "--eta-d", "0.6", "--tau-c", "22.5e-9",
                     "--f", "0:6e6:1e3"],
        "crossing": ["crossing-sweep", "--config", cfg, "--p1", "0:50:0.05", "--p2", "12"],
    }
    expected = {}
    for name, argv in jobs.items():
        build_parser.cache_clear()
        out = tmp_path / f"{name}-serial.csv"
        assert run([*argv, "--out", str(out)]) == 0
        expected[name] = out.read_bytes()

    build_parser.cache_clear()  # the threads may race to build it
    start = threading.Barrier(len(jobs))
    got = {}

    def worker(name, argv, repeats=3):
        start.wait(timeout=60)
        for i in range(repeats):
            out = tmp_path / f"{name}-{i}.csv"
            got[name, i] = run([*argv, "--out", str(out)]), out.read_bytes()

    threads = [threading.Thread(target=worker, args=item) for item in jobs.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {(name, i): (0, expected[name]) for name in jobs for i in range(3)}


def test_cli_import_builds_no_parser():
    code = ("import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
            "import ringlab.cli\n"
            "print(len(made), ringlab.cli.build_parser.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(ringlab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.split() == ["0", "0"]


def test_command_replaced_after_the_build_is_the_one_run(device_cfg_path, monkeypatch, capsys):
    build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: calls.append(args.config) or ([], "sentinel"))
    capsys.readouterr()
    assert run(["validate", "--config", str(device_cfg_path)]) == 0
    assert calls == [str(device_cfg_path)]
    assert capsys.readouterr().err == "sentinel\n"


# One small command line per command; {dir} is the test's directory, which
# also holds the crossing data {data} and a dip trace {trace}.
PURE_RUNS = {
    "validate": ["validate", "--config", "{cfg}"],
    "transmission": ["transmission", "--config", "{cfg}", "--p1", "40", "--p2", "10",
                     "--dip-report", "{dir}/dips.csv", "--out", "{dir}/trace.csv"],
    "crossing-sweep": ["crossing-sweep", "--config", "{cfg}", "--p1", "0:50:1", "--p2", "10", "--out", "{dir}/o.csv"],
    "etac-sweep": ["etac-sweep", "--config", "{cfg}", "--branch", "lower", "--p1", "0:50:1", "--p2", "10",
                   "--out", "{dir}/o.csv"],
    "squeeze-sweep": ["squeeze-sweep", "--config", "{cfg}", "--branch", "upper", "--p1", "0:50:1", "--p2", "10",
                      "--out", "{dir}/o.csv"],
    "squeeze-spectrum": ["squeeze-spectrum", "--eta-c", "0.7", "--eta-d", "0.6", "--tau-c", "22.5e-9",
                         "--f", "0:6e6:1e5", "--out", "{dir}/o.csv"],
    "langevin-verify": ["langevin-verify", "--config", "{cfg}", "--trajectories", "2", "--segments", "2",
                        "--out", "{dir}/o.csv"],
    "shot-cal": ["shot-cal", "--samples", "2048", "--out", "{dir}/o.csv"],
    "fit-crossing": ["fit-crossing", "--data", "{data}", "--fix", ALPHA2, "--out", "{dir}/o.csv"],
    "fit-dip": ["fit-dip", "--data", "{trace}", "--out", "{dir}/o.csv"],
}


def test_pure_runs_cover_every_command():
    assert sorted(name for name in vars(cli) if name.startswith("cmd_")) == sorted(
        "cmd_" + command.replace("-", "_") for command in PURE_RUNS)


@pytest.mark.parametrize("command", sorted(PURE_RUNS))
def test_command_returns_its_tables_and_writes_nothing(command, device_cfg_path, crossing_data, tmp_path, capsys):
    trace = lorentzian_trace_file(tmp_path / "dip.csv", 6.0 * MHZ)
    args = build_parser().parse_args([arg.format(cfg=device_cfg_path, data=crossing_data, trace=trace, dir=tmp_path)
                                      for arg in PURE_RUNS[command]])
    files = sorted(tmp_path.iterdir())
    capsys.readouterr()
    tables, summary = getattr(cli, args.func)(args)
    assert tuple(capsys.readouterr()) == ("", "")
    assert sorted(tmp_path.iterdir()) == files
    assert [table[0] for table in tables] == [path for path in (getattr(args, "out", None),
                                                                 getattr(args, "dip_report", None)) if path]
    assert isinstance(summary, str) and summary.startswith(("config ok", command))


def test_every_command_writes_the_columns_its_help_lists(device_cfg_path, crossing_data, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # no help line is wrapped
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert sorted(commands) == sorted(PURE_RUNS)
    trace = lorentzian_trace_file(tmp_path / "dip.csv", 6.0 * MHZ)
    reads = []  # (schema columns, {column: the column that may stand in for it}) of each table a command reads

    def recording_load_csv(path, columns, alternatives=None):
        reads.append((list(columns), alternatives or {}))
        return load_csv(path, columns, alternatives)

    monkeypatch.setattr(cli, "load_csv", recording_load_csv)
    for command, argv in PURE_RUNS.items():
        capsys.readouterr()
        assert run([command, "--help"]) == 0
        page = capsys.readouterr().out
        listed = [line.split(": ")[1].split(", ") for line in page.splitlines() if line.startswith("output columns: ")]
        listed += [columns.split(",") for columns in re.findall(r"also write dip CSV: (\S+)", page)]
        # an input table is listed as its header "or" the header from the replaceable column on, replaced
        listed_inputs = re.findall(r"\((?:CSV: )?(\w+(?:,\w+)+) or (\w+(?:,\w+)*)\)", page)
        argv = [arg.format(cfg=device_cfg_path, data=crossing_data, trace=trace, dir=tmp_path) for arg in argv]
        reads.clear()
        assert run(argv) == 0, command
        inputs = []
        for names, alternatives in reads:
            (replaced, other), = alternatives.items()
            start = names.index(replaced)
            inputs.append((",".join(names), ",".join([other, *names[start + 1:]])))
        assert listed_inputs == inputs, command
        written = [argv[argv.index(flag) + 1] for flag in ("--out", "--dip-report") if flag in argv]
        headers = [next(line for line in Path(path).read_text().splitlines() if not line.startswith("#")).split(",")
                   for path in written]
        assert headers == listed, command
        assert ("--out" in page) == bool(listed), command


def test_float_error_in_a_command_is_one_numeric_line(device_cfg_path):
    code = ("import sys\n"
            "import numpy as np\n"
            "from ringlab import cli\n"
            "cli.cmd_validate = lambda args: ([], str(np.full(1, 1e308) * 10))\n"
            "sys.exit(cli.run(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ringlab.__file__).parents[1]), "PYTHONWARNINGS": "default"}
    done = subprocess.run([sys.executable, "-c", code, "validate", "--config", str(device_cfg_path)],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (5, "")
    assert done.stderr == "ringlab: error: numeric: overflow encountered in multiply\n"


def test_float_error_in_a_trajectory_thread_is_one_numeric_line(device_cfg_path, tmp_path):
    # numpy's errstate does not reach pool threads by itself
    code = ("import sys\n"
            "import numpy as np\n"
            "from ringlab import cli, langevin\n"
            "psd = langevin.trajectory_output_psd\n"
            "def overflowing(*args):\n"
            "    np.array([1e308]) * 10.0\n"
            "    return psd(*args)\n"
            "langevin.trajectory_output_psd = overflowing\n"
            "sys.exit(cli.run(sys.argv[1:]))\n")
    out = tmp_path / "verify.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(ringlab.__file__).parents[1]), "PYTHONWARNINGS": "default"}
    done = subprocess.run([sys.executable, "-c", code, "langevin-verify", "--config", str(device_cfg_path),
                           "--trajectories", "2", "--segments", "4", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (5, "")
    assert done.stderr == "ringlab: error: numeric: overflow encountered in multiply\n"
    assert not out.exists()


LONGEST_RUN_MAX_RSS_MIB = 64   # the whole process: interpreter, numpy and one trajectory's working set


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_longest_trajectory_runs_in_bounded_memory(device_cfg_path, tmp_path):
    # one series of the longest trajectory alone is 76 MiB; a streamed trajectory holds a few MiB
    code = ("import resource, sys\n"
            "from ringlab import cli\n"
            "status = cli.run(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(status)\n")
    # ru_maxrss keeps, across exec, the peak of the address space that exec replaced: started
    # straight from the test runner, the run would report the runner's.  A bare interpreter starts it.
    launcher = "import subprocess, sys\nsys.exit(subprocess.run(sys.argv[1:]).returncode)\n"
    out = tmp_path / "verify.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(ringlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", code, "langevin-verify",
                           "--config", str(device_cfg_path), "--segments", str(cli.MAX_SEGMENTS),
                           "--trajectories", "1", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert out.is_file() and cli.LONGEST_TRAJECTORY * 8 > LONGEST_RUN_MAX_RSS_MIB * 2**20
    assert int(done.stdout) / 1024 <= LONGEST_RUN_MAX_RSS_MIB
