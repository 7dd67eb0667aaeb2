"""The CSV writer's float kernel against format_value, value by value.

csvio._float_cells writes a float64 vector as '%.17g' cells with numpy
arithmetic and hands each cell it cannot certify to format_value.  The
property test draws over a million values where such a kernel goes wrong
first: raw bit patterns, every decade of the float range, exact ties of the
17th digit, the carries to 10**16 and 10**17 and the switches between the
fixed and the scientific layout.  kernel_faults is also run in a subprocess
without numpy's AVX-512 log10 kernel (see tests/test_output_bytes.py).
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np

from ringlab import csvio
from ringlab.csvio import format_value, write_csv

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
