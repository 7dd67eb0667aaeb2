"""The CSV float kernels against format_value and float, value by value.

csvio._float_cells writes a float64 vector as '%.17g' cells with numpy
arithmetic and hands each cell it cannot certify to format_value.  The
property test draws over a million values where such a kernel goes wrong
first: raw bit patterns, every decade of the float range, exact ties of the
17th digit, the carries to 10**16 and 10**17 and the switches between the
fixed and the scientific layout.  kernel_faults is also run in a subprocess
without numpy's AVX-512 log10 kernel (see tests/test_output_bytes.py).

csvio.load_csv reads an all-float table by the inverse kernel, which hands
each cell it cannot certify to float.  Its tests fail if the cell-by-cell
reader is reached, unless they say otherwise, and compare bits with float.
"""

import io
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ringlab import csvio
from ringlab.cli import run
from ringlab.csvio import format_value, load_csv, write_csv
from ringlab.errors import DataError

CHUNK = 65536  # values given to the kernel at once
KERNEL_SEED = 2323


def kernel_samples(seed: int) -> np.ndarray:
    """Over 10**6 float64 values, each of them a likely fault of the kernel."""
    rng = np.random.default_rng(seed)
    parts = [rng.integers(0, 2**64, size=400_000, dtype=np.uint64).view(np.float64)]  # raw bit patterns
    # every decade from 1e-324 to 1e308: random mantissas, and the neighbours of each power of ten
    exponents = np.arange(-324, 309)
    mantissas = rng.uniform(1.0, 10.0, size=(exponents.size, 500))
    with np.errstate(over="ignore", under="ignore"):
        parts.append((mantissas * 10.0 ** exponents[:, None].astype(float)).ravel())
        powers = np.array([float(f"1e{e}") for e in exponents])
        for step in range(1, 51):
            parts += [powers * (1 + step * 2.0**-52), powers * (1 - step * 2.0**-53)]
    parts.append(np.array([float(f"9.9999999999999999{d}e{e}") for e in exponents for d in range(10)]))
    parts.append(exact_ties(rng))
    # the switches between layouts, at exponents -5/-4 and 16/17, and their carries
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = edges[:, None] * (1 + np.arange(-2000, 2001) * 2.0**-53)
    parts += [near.ravel(), np.array([float(f"9.99999999999999994999{d}e{e}") for e in (-5, -4, 15, 16) for d in
                                      range(10)])]
    parts.append(np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                           2.2250738585072014e-308, 1.7976931348623157e308, 1e-280, 1e280]))
    values = np.concatenate(parts)
    signs = rng.random(values.size) < 0.5
    values[signs] = -values[signs]
    return values


def exact_ties(rng) -> np.ndarray:
    """Values x whose 18th significant digit is an exact 5: x = m / 2**j with
    m odd, so j digits follow the point, the last a 5, for x from 1e-8 to
    2**53.  Their 17-digit rounding is a tie, broken to even."""
    ties = []
    for a in range(-8, 16):  # x in [10**a, 10**(a + 1)) has a + 1 + j = 18 significant digits
        j = 17 - a
        low = math.ceil(Fraction(10) ** a * 2**j)
        high = min(2**53, math.ceil(Fraction(10) ** (a + 1) * 2**j))
        m = 2 * rng.integers(low // 2, high // 2, size=10_000) + 1
        ties.append(m.astype(np.float64) / 2.0**j)
    return np.concatenate(ties)


def kernel_faults(values: np.ndarray) -> tuple[list[tuple[float, str, str]], int]:
    """The values whose kernel cell differs from format_value's, as (value,
    kernel text, format_value text), and the count the kernel handed to
    format_value."""
    handed = 0
    formatted = csvio._formatted

    def counting(x):
        nonlocal handed
        handed += x.size
        return formatted(x)

    csvio._formatted = counting
    try:
        faults = []
        for start in range(0, values.size, CHUNK):
            chunk = values[start:start + CHUNK]
            cells = np.vstack([csvio._float_cells(chunk), np.full((1, chunk.size), 10, np.uint8)])
            got = cells.T.tobytes().translate(None, b"\0").decode().splitlines()
            expected = [format_value(value) for value in chunk.tolist()]
            if got != expected:
                faults += [(value, a, b) for value, a, b in zip(chunk.tolist(), got, expected) if a != b]
    finally:
        csvio._formatted = formatted
    return faults, handed


def test_float_kernel_writes_what_format_value_writes():
    values = kernel_samples(KERNEL_SEED)
    assert values.size >= 10**6
    faults, handed = kernel_faults(values)
    assert faults == []
    # the kernel certifies every cell but zeros, non-finite values, those outside [1e-280, 1e280],
    # the 20 000 ties beside the inexact powers 10**23 and 10**24 and a few near a tie or a power of ten
    outside = np.count_nonzero(~((np.abs(values) >= 1e-280) & (np.abs(values) <= 1e280)))
    assert outside + 20_000 <= handed <= outside + 20_100


def kernel_text(values) -> list[str]:
    cells = csvio._float_cells(np.array(values, dtype=np.float64))
    return np.vstack([cells, np.full((1, cells.shape[1]), 10, np.uint8)]).T.tobytes().translate(None, b"\0").decode(
        ).splitlines()


def test_float_kernel_rounds_an_exact_tie_to_even():
    # 18 significant digits, the last a 5: the 17th digit stays if even, else goes up; the last
    # two ties are beside the inexact powers 10**23 and 10**24, which format_value writes
    ties = [26215 / 2**18, 26217 / 2**18, 2**50 + 0.25, 2**50 + 0.75, 3 / 2**24, 2.0**-25]
    for value in ties:
        k = math.floor(math.log10(value))
        assert (Fraction(value) * Fraction(10) ** (16 - k)).denominator == 2, value
    assert kernel_text(ties * 64) == [format(value, ".17g") for value in ties * 64]
    assert kernel_text(ties[:4] * 64)[:4] == ["0.10000228881835938", "0.10000991821289062",
                                              "1125899906842624.2", "1125899906842624.8"]


def test_writing_a_large_float_table_holds_little_memory(tmp_path):
    rng = np.random.default_rng(1)
    columns = [rng.standard_normal(20001) * 10.0 ** rng.integers(-5, 15) for _ in range(4)]
    with open(tmp_path / "t.csv", "w", encoding="utf-8", newline="") as stream:
        tracemalloc.start()
        try:
            write_csv(stream, ["a", "b", "c", "d"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.1 * 2**20


# --- the number kernel of the reader against float ------------------------------


@pytest.fixture
def kernel_only(monkeypatch):
    """Fails a test that falls back to the cell-by-cell reader."""
    monkeypatch.setattr(csvio, "_read_cells", lambda *args: pytest.fail("fell back to the cell reader"))


@pytest.fixture
def certified(monkeypatch):
    """The kernel's certified flags, in the order of its cells."""
    flags = []
    numbers = csvio._numbers

    def recording(*args):
        values, ok = numbers(*args)
        flags.extend(ok.tolist())
        return values, ok

    monkeypatch.setattr(csvio, "_numbers", recording)
    return flags


def read_cells(tmp_path, cells, n_columns=1):
    """The values load_csv reads from the cells written n_columns to a line."""
    names = [f"c{j}" for j in range(n_columns)]
    lines = [",".join(names)] + [",".join(cells[i:i + n_columns]) for i in range(0, len(cells), n_columns)]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    table = load_csv(path, dict.fromkeys(names, float))
    return np.column_stack([table[name] for name in names]).ravel()


def same_bits(got, expected) -> bool:
    return np.array_equal(np.asarray(got).view(np.int64), np.asarray(expected, dtype=np.float64).view(np.int64))


def test_written_floats_read_back_bit_for_bit(tmp_path, kernel_only, certified):
    rng = np.random.default_rng(3303)
    raw = rng.integers(0, 2**64, size=40_000, dtype=np.uint64).view(np.float64)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2), 0.1, 1e22, 1e23]
    values = np.concatenate([raw[np.isfinite(raw)], specials, [float(f"1e{k}") for k in range(-323, 309)]])
    values = values[: values.size // 2 * 2]
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write_csv(stream, ["a", "b"], [values[0::2], values[1::2]])
    assert path.stat().st_size > 10 * csvio.READ_BYTES  # many chunks, each cut at a line end
    table = load_csv(path, {"a": float, "b": float})
    assert same_bits(np.column_stack([table["a"], table["b"]]).ravel(), values)
    # the kernel certifies every cell but those whose x = N * 10**q has q outside [-290, 262], which
    # takes in every x outside [1e-290, 1e280) and none inside [1e-270, 1e260]
    size = np.abs(values)
    handed = certified.count(False)
    assert np.count_nonzero((size != 0) & ((size < 1e-290) | (size >= 1e280))) <= handed
    assert handed <= np.count_nonzero((size != 0) & ((size < 1e-270) | (size > 1e260)))


def grammar_cells(rng, n):
    """n seeded cells in float's decimal grammar: signs, leading zeros, '.5'
    and '5.', 'e' and 'E' with 1-3 digit signed exponents, 1-25 digits."""
    cells = []
    for _ in range(n):
        digits = "".join(map(str, rng.integers(0, 10, size=int(rng.choice([1, 3, 9, 16, 17, 18, 19, 21, 25])))))
        digits = "0" * int(rng.choice([0, 0, 1, 4])) + digits
        cut = int(rng.integers(0, len(digits) + 1))
        mantissa = (digits, "." + digits, digits + ".", digits[:cut] + "." + digits[cut:])[rng.integers(4)]
        exponent = ""
        if rng.random() < 0.6:
            exponent = (str(rng.choice(["e", "E"])) + str(rng.choice(["", "+", "-"]))
                        + str(rng.integers(0, 10 ** rng.integers(1, 4))).zfill(int(rng.integers(1, 4))))
        cells.append(str(rng.choice(["", "", "-", "+"])) + mantissa + exponent)
    return [cell for cell in cells if math.isfinite(float(cell))]


def test_float_grammar_read_as_float_does(tmp_path, kernel_only, certified):
    rng = np.random.default_rng(3304)
    cells = grammar_cells(rng, 9_000)
    cells = cells[: len(cells) // 3 * 3]
    assert same_bits(read_cells(tmp_path, cells, 3), [float(cell) for cell in cells])
    assert certified.count(True) > len(cells) / 2


def midpoint_strings(rng, n):
    """Decimal strings at the midpoint of seeded adjacent float64s, to 17-19
    significant digits and 1 off in their last one."""
    strings = []
    for value in rng.uniform(1.0, 10.0, size=n) * 10.0 ** rng.integers(-250, 250, size=n):
        mid = (Decimal(value) + Decimal(np.nextafter(value, np.inf))) / 2
        digits = int(rng.integers(17, 20))
        mantissa, exponent = format(mid, f".{digits - 1}e").split("e")
        for step in (-1, 0, 1):
            strings.append(format(Decimal(mantissa) + step * Decimal(10) ** (1 - digits), f".{digits - 1}f")
                           + "e" + exponent)
    return strings


def test_decimal_midpoints_read_as_float_does(tmp_path, kernel_only, certified):
    rng = np.random.default_rng(3305)
    ties = ["9007199254740993", "-9007199254740993"]  # 2**53 + 1, between 2**53 and 2**53 + 2
    # ties at 1/2 and 1/4 above a float64 in [2**52, 2**53) and [2**51, 2**52), where 10**q is inexact
    ties += [f"{2**52 + k}.5" for k in rng.integers(0, 2**52, size=200)]
    ties += [f"{2**51 + k // 2}.{(25, 75)[k % 2]}" for k in rng.integers(0, 2**52, size=200)]
    exact = "1.00000000000000011102230246251565404236316680908203125"  # 1 + 2**-53
    cells = ties + ["9007199254740992", "9007199254740994", exact, exact[:-1] + "4", exact[:-1] + "6",
                    "-" + exact] + midpoint_strings(rng, 3000)
    assert same_bits(read_cells(tmp_path, cells), [float(cell) for cell in cells])
    assert not any(certified[:len(ties)])  # exact ties are left to float
    assert certified[len(ties):len(ties) + 2] == [True, True]


def test_cells_with_whitespace_are_left_to_float(tmp_path, kernel_only, certified):
    # a written table given ', ' separators, tab-padded cells and CRLF ends: the kernel certifies
    # every bare cell and leaves each cell with a blank, a tab or a CR beside it to float
    rng = np.random.default_rng(3306)
    values = rng.choice([-1.0, 1.0], size=(6000, 3)) * 10.0 ** rng.uniform(-270, 260, size=(6000, 3))
    stream = io.StringIO()
    write_csv(stream, ["a", "b", "c"], list(values.T))
    header, *rows = stream.getvalue().splitlines()
    text, cells = [header + "\n"], []
    for row in rows:
        padded = [("\t" + cell + "\t" if rng.random() < 0.1 else cell) for cell in row.split(",")]
        padded[1:] = [(" " + cell if rng.random() < 0.2 else cell) for cell in padded[1:]]  # ', ' separators
        if rng.random() < 0.3:
            padded[-1] += "\r"  # a CRLF end
        cells += padded
        text.append(",".join(padded) + "\n")
    path = tmp_path / "t.csv"
    path.write_bytes("".join(text).encode())
    assert path.stat().st_size > 5 * csvio.READ_BYTES
    table = load_csv(path, dict.fromkeys("abc", float))
    assert same_bits(np.column_stack([table[name] for name in "abc"]).ravel(), [float(cell.strip()) for cell in cells])
    assert certified == [cell == cell.strip() for cell in cells]
    assert 0 < certified.count(False) < len(cells) / 2


@pytest.mark.parametrize("other", ["0.5", "5e-1"], ids=["plain", "exponents"])
@pytest.mark.parametrize("cell", ["1e", "1e+", "e5", ".", "+", "-", "", "1.2.3", "1e5e5", "1e5.5", "1-2", "--1",
                                  ".e1", "5.e", "1 2", "1e0x", "0x10", "1_0e"])
def test_malformed_cell_is_named_by_the_cell_reader(cell, other, tmp_path):
    # each cell beside cells with and without an exponent, which the kernel reads by two paths
    data = tmp_path / "t.csv"
    data.write_text("a,b\n" + "".join(f"{k},{other}\n" for k in range(3000)) + f"1,{cell}\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(data))}: row 3002, column 'b': not numeric: "
                                        f"{re.escape(repr(cell))}$"):
        load_csv(data, {"a": float, "b": float})


def test_overflowing_cell_keeps_its_message(tmp_path, capsys, count_calls):
    calls = count_calls(csvio, "_read_cells")
    data = tmp_path / "trace.csv"
    data.write_text("omega_rad_s,t_power\n" + "".join(f"{1.2e15 + k},0.5\n" for k in range(3000)) + "1.3e15,1e309\n")
    assert run(["fit-dip", "--data", str(data)]) == 4
    assert capsys.readouterr().err == f"ringlab: error: data: {data}: row 3002, column 't_power': non-finite value\n"
    assert calls["_read_cells"] == 1


def test_reading_a_large_float_table_holds_little_memory(tmp_path, kernel_only):
    rng = np.random.default_rng(2)
    omega = 1.2066e15 + np.linspace(-2e10, 2e10, 40_001)
    power = 1 - 0.9 / (1 + ((omega - 1.2066e15) / 3e8) ** 2) + 1e-4 * rng.standard_normal(omega.size)
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write_csv(stream, ["omega_rad_s", "t_power"], [omega, power])
    tracemalloc.start()
    try:
        table = load_csv(path, {"omega_rad_s": float, "t_power": float})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(table["t_power"], power)
    assert peak <= 2 * 2**20  # the two columns alone are 0.64 MB; the file is 1.5 MB
