"""CSV reading/writing with strict schemas and round-trip fidelity.

Files are UTF-8, with or without a byte-order mark, comma-separated, one
header row naming the columns exactly; blank lines and lines starting
with '#' are skipped, and spaces after a comma are not part of the next
cell, so a quoted cell may follow one.  Tables are columns of float or
str cells, float ones read as float64 arrays.  The data lines of a table
whose columns are all float (a `fit-dip` trace) are read from the file's
bytes, a chunk of READ_BYTES at a time, by one numpy kernel (_float_table):
the writer's inverse, it reads each cell as N * 10**q and rounds it by
Dekker's error-free product, certifying the float64 it finds; each cell
it cannot certify is read by float.  A table with a str column (a
`fit-crossing` table), and any all-float table outside the kernel's
grammar or with a non-finite value, is read again from the file's first
line, one cell at a time, which names the fault or reads what only `float`
does (`1_0`, non-ASCII digits, quoted cells).  Both give the same values,
bit for bit.  Error row numbers are the file's line numbers.

A table is written from its columns, each holding one kind of value.
Floats get 17 significant digits, so finite values survive a write/read
round trip, byte for byte as '%.17g' writes them.  A block of rows is one
uint8 matrix, its float cells made by one numpy kernel (_float_cells): it
rounds |x| * 10**(16 - k) by Dekker's error-free product and certifies the
17 digits when the power of ten is exact in float64 or the product's
fraction lies farther than TIE_MARGIN from 1/2.  Each cell it cannot
certify (ties and near-ties beside an inexact power of ten, 0, nan, inf,
|x| outside [1e-280, 1e280]) is written by format_value, as is every cell
of a block too small for numpy to pay.  A str cell or single value that
holds a comma, a line break or a NUL is refused: it would break its row.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import math
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from .errors import DataError

WRITE_CELLS = 4096                      # table cells formatted and written at a time
SEQUENCES = (np.ndarray, list, tuple)   # the kinds of a table column of cells
ROW_BREAKERS = ",\n\r\0"                # what no str cell or single value may hold
FLOAT_WIDTH = 29                        # byte slots of a float cell: "-", "0.000", 17 digits and ".", "e-308"
KERNEL_CELLS = 256                      # a block of fewer float cells is written by format_value alone
TIE_MARGIN = 1e-9                       # a rounding is certified this far from a tie; y's error is below 1e-14
READ_BYTES = 65536                      # bytes of an all-float table read at a time, cut at a line end
READ_MARGIN = 2.0**-44                  # a reading is certified this far from a tie, in gaps; its error is below 2**-47

_SPLIT = 2.0**27 + 1.0  # Dekker's splitter: (a * _SPLIT) cuts a float64 into two halves of 26 bits
_SLOTS = np.arange(18, dtype=np.uint8)[:, None]  # slot numbers of the digits, down a column
_AFFIX_EXPONENT = 300  # exponents -300 to 300 have a column in _affixes()
_POWER_EXPONENT = 300  # powers of ten 10**-300 to 10**300 have a row in _powers()
_NUMBER_BYTES = b"0123456789+-.eE \t\r"  # the bytes of a cell the number kernel reads, float's blanks too
_HIGH = 0x8080808080808080  # the top bit of each byte of a word


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def load_csv(path: str | Path, columns: dict[str, type],
             alternatives: dict[str, str] | None = None) -> dict[str, np.ndarray | list]:
    """Read the columns of a file under a strict schema {column name -> float | str}.

    The header must contain exactly the schema's columns (any order);
    errors name the file, the offending column and its line, and a float
    column is a float64 array, a str column a list.  `alternatives` maps a
    schema column to another name it may be given under instead.  The
    data lines of an all-float table are read from the file's bytes by
    the number kernel (_float_table), a bounded chunk at a time; a table
    with a str column, and one the kernel hands back, is read one cell at
    a time by _read_cells, which names a faulty cell by its line.
    """
    try:
        with open(path, encoding="utf-8-sig") as lines:
            reader = csv.reader(filter(_is_content, lines), skipinitialspace=True)
            header = [cell.strip() for cell in next(reader, ())]
            columns = _schema(header, columns, str(path), alternatives)
            lines.seek(0)
            if all(kind is float for kind in columns.values()):
                table = _float_table(lines.buffer, header)
                if table is not None:
                    return table
                lines.seek(0)
            return _read_cells(lines, header, columns, str(path))
    except OSError as exc:
        raise DataError(f"data file: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _is_content(line: str) -> bool:
    """Whether a line is a header or data line: neither blank nor a '#' comment."""
    return line.lstrip()[:1] not in "#"


def _schema(header: list[str], columns: dict[str, type], source: str,
            alternatives: dict[str, str] | None) -> dict[str, type]:
    """The schema of a table with this header, each alternative name that
    the header gives put in place of its column; a header that does not
    name exactly the schema's columns, once each, is a DataError."""
    if not header:
        raise DataError(f"{source}: empty file (no header row)")
    for name, other in (alternatives or {}).items():
        if name not in header:
            columns = {other if key == name else key: kind for key, kind in columns.items()}
    for name in columns:
        if name not in header:
            raise DataError(f"{source}: missing column {name!r}")
    for name in header:
        if name not in columns:
            raise DataError(f"{source}: unexpected column {name!r}")
    for name in header:
        if header.count(name) > 1:
            raise DataError(f"{source}: duplicate column {name!r}")
    return columns


def _read_cells(lines: Iterable[str], header: list[str], columns: dict[str, type],
                source: str) -> dict[str, np.ndarray | list]:
    """The columns of a table read one cell at a time; errors name the file
    line, the column and the cell."""
    row_number = 0

    def content():
        nonlocal row_number
        for row_number, line in enumerate(lines, start=1):
            if _is_content(line):
                yield line

    reader = csv.reader(content(), skipinitialspace=True)
    next(reader)  # the header, checked by load_csv
    table = {name: [] for name in header}
    fields = [(name, columns[name], table[name].append) for name in header]
    for cells in reader:
        if len(cells) != len(header):
            raise DataError(f"{source}: row {row_number}: expected {len(header)} cells, got {len(cells)}")
        for (name, kind, append), cell in zip(fields, cells):
            cell = cell.strip()
            if kind is str:
                append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{source}: row {row_number}, column {name!r}: not numeric: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{source}: row {row_number}, column {name!r}: non-finite value")
            append(value)
    return {name: values if columns[name] is str else np.array(values) for name, values in table.items()}


# --- the number kernel --------------------------------------------------------
#
# _float_table reads the data lines of an all-float table from the file's
# bytes, READ_BYTES at a time cut at a line end: the inverse of the
# writer's kernel.  A chunk's cells are split at commas and line ends by
# whole-chunk byte arrays; a chunk that holds a blank or '#' line, or a
# line that starts with a blank, is first filtered line by line.  A cell
# keeps the blanks around it, and the last cell of a CRLF line its CR.
# A cell's last 24 bytes are read as 3 uint64 words, and word arithmetic
# finds its digits, its point, its sign and its exponent, checks that
# nothing else is in it and reads it as x = N * 10**q: N its mantissa's
# digits without the point (8 at a time, after Lemire), q its exponent
# less the digits after the point.  10**q is held as hi + lo (see
# _power_of_ten), N as two float64s (its nearest and the exact rest) and
# N * hi as Dekker's error-free product, so x is known as s + t, s the
# float64 nearest that sum, to within 2**-101 |s|, which is 2**-47 of the
# gap from s to the float64 below it: lo's own rounding and the roundings
# of the cross terms and their sums each add less than 2**-104 |s|.  The
# reading s is certified when |t| lies more than READ_MARGIN gaps inside
# half that gap, the smaller of s's two.  Each cell the kernel cannot
# certify is read by float, which strips blanks and CRs as _read_cells
# does: blank-padded cells and the last cells of CRLF lines, exact ties
# and near-ties, cells with more than 18 digits from the first nonzero one
# to the mantissa's end or more than 3 exponent digits, and cells whose q
# lies outside [-290, 262], as does that of every x outside [1e-290,
# 1e280), subnormals included: the range keeps every term of the product a
# normal float64.  A cell float refuses or reads as non-finite, a wrong
# number of cells on a line, or a byte outside the kernel's grammar
# (quotes, '_', letters but e and E, non-ASCII, a '#' after a value, a
# lone carriage return) hands the table to _read_cells.


def _float_table(raw: BinaryIO, header: list[str]) -> dict[str, np.ndarray] | None:
    """The columns of the all-float table in the binary file `raw`, read by
    the number kernel after the lines up to the header; None where the
    table lies outside the kernel's grammar or a value is not finite, so
    that the cell-by-cell reader names the fault or reads what only `float`
    does."""
    line = raw.readline().removeprefix(codecs.BOM_UTF8)
    while True:  # the header is the first line that is neither blank nor a comment, as in text mode
        if not line or line.count(b"\r") > line.endswith(b"\r\n"):  # a lone CR ends a line in text mode
            return None
        if _is_content(line.decode()):
            break
        line = raw.readline()
    parts = [[np.empty(0)] for _ in header]
    carry = b""
    while True:
        data = raw.read(READ_BYTES)
        if data:
            cut = data.rfind(b"\n") + 1
            if not cut:
                carry += data
                continue
            piece, carry = carry + data[:cut], data[cut:]
        elif carry:
            piece, carry = carry + b"\n", b""  # the last line, without an end
        else:
            break
        values = _float_values(piece, len(header))
        if values is None:
            return None
        for part, column in zip(parts, values.reshape(-1, len(header)).T):
            part.append(column.copy())  # the chunk's matrix is freed
    table = {}
    for name, part in zip(header, parts):
        table[name] = np.concatenate(part)
        part.clear()
    return table


def _float_values(piece: bytes, n_columns: int) -> np.ndarray | None:
    """The values of the data lines `piece`, each line ended, row by row;
    None if a line does not hold n_columns cells, a byte lies outside the
    kernel's grammar, or a cell is not a finite number for float.  A cell
    with a blank or a tab around it, or a CRLF line's CR after it, is left
    to float, which strips them."""
    if b"\r" in piece and piece.count(b"\r") != piece.count(b"\r\n"):  # `in` first: a count scans the chunk
        return None
    if not piece.isascii():  # a non-ASCII comment included: _read_cells checks the text is UTF-8
        return None
    b = np.frombuffer(piece, np.uint8)
    separators = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    if not _rows_of(b, separators, n_columns) or _has_skipped_lines(b, separators[n_columns - 1::n_columns]):
        piece = b"\n".join([line for line in piece.split(b"\n") if line.lstrip()[:1] not in b"#"] + [b""])
        if not piece:
            return np.empty(0)
        b = np.frombuffer(piece, np.uint8)
        separators = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
        if not _rows_of(b, separators, n_columns):
            return None
    starts = np.empty_like(separators)
    starts[0] = 0
    starts[1:] = separators[:-1] + 1
    values, certified = _numbers(bytes(24) + piece + bytes(8), starts + 24, separators + 24)
    uncertified = np.flatnonzero(~certified)
    for i, start, end in zip(uncertified.tolist(), starts[uncertified].tolist(), separators[uncertified].tolist()):
        cell = piece[start:end]
        if cell.translate(None, _NUMBER_BYTES):
            return None
        try:
            values[i] = float(cell)
        except ValueError:
            return None
        if not math.isfinite(values[i]):
            return None
    return values


def _rows_of(b: np.ndarray, separators: np.ndarray, n_columns: int) -> bool:
    """Whether the separators (commas and line ends) at these positions of
    b end rows of n_columns cells."""
    line_ends = b[separators] == ord("\n")
    return (separators.size % n_columns == 0 and bool(line_ends[n_columns - 1::n_columns].all())
            and np.count_nonzero(line_ends) * n_columns == separators.size)


def _has_skipped_lines(b: np.ndarray, line_ends: np.ndarray) -> bool:
    """Whether a line of b may be blank or a comment: one that starts with
    a blank, another control byte or '#'."""
    heads = b[line_ends[:-1] + 1]
    return b[0] <= ord(" ") or b[0] == ord("#") or bool(((heads <= ord(" ")) | (heads == ord("#"))).any())


def _numbers(buffer: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 value of each cell buffer[start:end] and whether the
    kernel certifies it; a cell outside its grammar is not certified.  The
    buffer's bytes are ASCII, its first 24 and last 8 NULs."""
    whole, q, valid, negative = _decimals(buffer, starts, ends)
    zero = valid & (whole == 0)
    certified = valid & (whole != 0) & ((q + 290).view(np.uint64) <= 552)
    n_hi = whole.astype(np.float64)
    n_lo = (whole - n_hi.astype(np.int64)).astype(np.float64)  # exact: |n_lo| <= 64
    product, rest, hi, lo = _times_power(n_hi, np.where(certified, q, 0))
    rest += n_lo * hi + n_lo * lo
    values = product + rest
    tail = rest - (values - product)  # values + tail = product + rest, exactly
    gap = values - (values.view(np.int64) - 1).view(np.float64)  # to the float64 below, the smaller gap
    certified &= np.abs(tail) < gap * (0.5 - READ_MARGIN)
    values[zero] = 0.0
    np.negative(values, out=values, where=negative)
    return values, certified | zero


def _decimals(buffer: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each cell buffer[start:end], as x = whole * 10**q: whole (int64,
    below 10**18 where valid), q, whether the cell is valid in the kernel's
    grammar with whole below 10**18, and whether it starts with '-'."""
    keep, distances, last, powers = _swar_tables()
    size = ends - starts
    bytes_ = np.frombuffer(buffer, np.uint8)
    # the 24 bytes up to each cell's end as 3 words, the cell's last byte the last word's top one
    x = np.ndarray((len(buffer) - 7,), "<u8", buffer, 0, (1,))[ends - 24 + np.array([[0], [8], [16]])]
    x &= keep.take(np.minimum(size, 24), axis=0).T  # the bytes before the cell are NUL
    point = _equal(x, ord("."))
    mark = _equal(x[2] | 0x2020202020202020, ord("e"))  # an exponent's 'e' or 'E' lies in the last word
    x ^= 0x3030303030303030
    digit = (x + 0x7676767676767676) & _HIGH ^ _HIGH  # the top bit of each digit byte
    n_digits = np.bitwise_count(digit).sum(axis=0, dtype=np.uint8)
    x &= (digit >> 7) * 0xFF  # each digit's value, 0 in every other byte
    del digit
    n_points = np.bitwise_count(point).sum(axis=0, dtype=np.uint8)
    at_point = (((point >> 7) * distances) >> 56).sum(axis=0).view(np.int64)  # a point's distance from the end
    del point
    first = bytes_[starts]
    signed = (first == ord("+")) | (first == ord("-"))
    n_marks = at_e = e_signed = e_digits = exponent = 0
    if mark.any():
        n_marks = np.bitwise_count(mark).astype(np.int64)
        at_e = (((mark >> 7) * distances[2]) >> 56).astype(np.int64)
        after_e = bytes_[ends - at_e + 1]
        e_signed = (at_e > 1) & ((after_e == ord("+")) | (after_e == ord("-")))
        e_digits = np.maximum(at_e - 1 - e_signed, 0)  # 0 without an 'e'
        exponent = _eight_digits(x[2] & last.take(e_digits, mode="clip")).view(np.int64)
        exponent[e_signed & (after_e == ord("-"))] *= -1
        shift = (8 * np.minimum(at_e, 7)).astype(np.uint64)  # the exponent's bytes, shifted out of the mantissa
        carry = (x[:2] >> 1) >> (63 - shift)
        x <<= shift
        x[1:] |= carry
    # every byte but a leading sign, a point, an 'e' and its sign is a digit, and the mantissa has one
    # (a cell of more than 24 bytes leaves a byte unexplained, unless its first is a sign)
    valid = (size - n_digits - n_points - signed == n_marks + e_signed) & (n_points <= 1) & (n_digits > e_digits)
    if mark.any():
        valid &= ((n_marks <= 1) & ((n_points == 0) | (at_point > at_e))
                  & ((n_marks == 0) | ((e_digits >= 1) & (e_digits <= 3))))
    valid &= x[0] << 16 == 0  # at most 18 places: whole < 10**18
    low = _eight_digits(x[1:])
    whole = ((x[0] >> 48) & 0xFF) * 10**17 + (x[0] >> 56) * 10**16 + low[0] * 10**8 + low[1]
    places = (at_point - at_e) * n_points  # the point and the digits after it
    high, low = np.divmod(whole, powers.take(places, mode="clip"))
    whole = (high * powers.take(places - n_points, mode="clip") + low).view(np.int64)  # the point's 0 left out
    return whole, exponent - places + n_points, valid, first == ord("-")


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The number each word's 8 digit values make, its first byte the most
    significant (Lemire, "Number parsing at a gigabyte per second")."""
    words = words * 10 + (words >> 8)  # pairs
    return ((words & 0x000000FF000000FF) * (100 + (1000000 << 32))
            + ((words >> 16) & 0x000000FF000000FF) * (1 + (10000 << 32))) >> 32


def _equal(x: np.ndarray, byte: int) -> np.ndarray:
    """The top bit of each byte of the words x that equals `byte`, all of
    x's bytes below 0x80."""
    return ((x ^ (byte * 0x0101010101010101)) + 0x7F7F7F7F7F7F7F7F) & _HIGH ^ _HIGH


@functools.cache
def _swar_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The number kernel's word constants: row s of the first keeps the
    bytes of 3 words within s of their end; the second's word k sums a
    single byte's distance from the end into its top byte; entry e of the
    third keeps a word's last e bytes; the fourth holds 10**0 to 10**19."""
    keep = np.zeros((25, 3), np.uint64)
    distances = np.zeros((3, 1), np.uint64)
    for k in range(3):
        for i in range(8):
            distance = 24 - 8 * k - i
            keep[distance:, k] |= np.uint64(0xFF << 8 * i)
            distances[k] |= np.uint64(distance << 8 * (7 - i))
    last = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * e) - 1) if e else 0 for e in range(4)], np.uint64)
    return keep, distances, last, 10 ** np.arange(20, dtype=np.uint64)


def write_csv(stream: io.TextIOBase, columns: list[str], table: Iterable,
              comments: Iterable[str] = ()) -> None:
    """Write optional '#' comment lines, the header, then the table's
    columns (iterated once): each a 1-d array, list or tuple of cells, or
    one value for every row, formatted once by format_value.  A column of
    cells is written '%.17g', as format_value writes a float, if its first
    cell is a float (numpy float64 included), and by str() otherwise.

    The rows go out a block of about WRITE_CELLS cells at a time, as one
    uint8 matrix with one column per row: each cell's bytes in a fixed
    number of slots, NUL in the slots it leaves empty, a comma or newline
    after it.  The NULs are deleted and the block written at once.  The
    float cells of a block are made by one numpy kernel, _float_cells,
    which certifies the 17 digits it rounds and hands each cell it cannot
    certify to format_value, as it does all cells of a block of fewer than
    KERNEL_CELLS floats.

    A header of more or fewer names than the table has columns, or
    columns of cells of different lengths, or none, are a ValueError, and
    so is a single value or a str cell whose text holds a comma, a line
    break or a NUL, which would break its row.  The header and a single
    value are refused before anything is written, a cell before its block
    of rows.
    """
    table = list(table)
    if len(columns) != len(table):
        raise ValueError(f"header of {len(columns)} names for a table of {len(table)} columns")
    lengths = sorted({len(column) for column in table if isinstance(column, SEQUENCES)})
    if len(lengths) != 1:
        raise ValueError(f"table columns of different lengths: {lengths}" if lengths
                         else "table has no column of cells, only single values")
    constants = {j: _text_cells(columns[j], [format_value(column)])
                 for j, column in enumerate(table) if not isinstance(column, SEQUENCES)}
    for comment in comments:
        stream.write(f"# {comment}\n")
    stream.write(",".join(columns) + "\n")
    n_rows = lengths[0]
    if not n_rows:
        return
    floats = [j for j, column in enumerate(table) if j not in constants and isinstance(column[0], float)]
    block = max(1, WRITE_CELLS // len(table))
    for start in range(0, n_rows, block):
        stop = min(n_rows, start + block)
        values = np.empty((len(floats), stop - start))
        for i, j in enumerate(floats):
            values[i] = table[j][start:stop]
        cells = dict(zip(floats, _float_cells(values.ravel()).reshape(FLOAT_WIDTH, *values.shape).transpose(1, 0, 2)))
        for j, column in enumerate(table):
            if j not in cells:
                cells[j] = constants[j] if j in constants else _text_cells(columns[j], column[start:stop])
        rows = np.empty((sum(cells[j].shape[0] + 1 for j in range(len(table))), stop - start), np.uint8)
        slot = 0
        for j in range(len(table)):
            width = cells[j].shape[0]
            rows[slot:slot + width] = cells[j]  # a single value's one column is repeated
            rows[slot + width] = ord(",")
            slot += width + 1
        rows[-1] = ord("\n")
        stream.write(rows.T.tobytes().translate(None, b"\0").decode())


def _text_cells(name: str, cells: Iterable) -> np.ndarray:
    """The UTF-8 text of each cell of column `name` by str(), in the matrix
    layout of _float_cells: one column per cell, NUL-padded.  A cell that
    holds a comma, a line break or a NUL is a ValueError."""
    texts = list(map(str, cells))
    joined = "".join(texts)
    if any(breaker in joined for breaker in ROW_BREAKERS):
        cell = next(text for text in texts if any(breaker in text for breaker in ROW_BREAKERS))
        raise ValueError(f"column {name!r}: cell {cell!r} holds a comma, line break or NUL, "
                         "which would break its row")
    return np.array([text.encode() for text in texts]).view(np.uint8).reshape(len(texts), -1).T


# --- the float kernel ---------------------------------------------------------
#
# '%.17g' writes x as N * 10**(k - 16): k = floor(log10|x|) and N, the 17
# digits, is y = |x| * 10**(16 - k) rounded half to even.  The kernel takes
# k from numpy's log10 and checks it by the range of y: one outside
# [10**16, 10**17) is redone at k - 1 or k + 1, so log10's last bit, which
# differs between its kernels, never reaches a byte.  It forms y exactly as
# far as rounding needs: 10**(16 - k) is held as two float64s, hi + lo (see
# _power_of_ten), and |x| * hi is Dekker's error-free product, so y is
# known to within 1e-14.  The 17 digits are certified when 10**(16 - k) is
# exact in float64 (lo = 0 for 16 - k from 0 to 22; then y is exact and an
# exact tie is rounded to even), or when y's fraction lies farther than
# TIE_MARGIN from 1/2.  Every other cell goes to format_value: the rest of
# the ties and near-ties, 0, nan, inf and any |x| outside [1e-280, 1e280],
# subnormals included.  A carry to 10**17 is 10**16 at k + 1.  The layout
# is '%g's: fixed if -4 <= k < 17, scientific otherwise, trailing zeros
# dropped.


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each value of the float64 vector x, a uint8
    matrix of FLOAT_WIDTH rows and one column per value: the slots of the
    sign, of the "0.000" of a fixed layout, of 17 digits and a point and of
    the exponent of a scientific layout, NUL in each slot the text leaves
    empty."""
    if x.size < KERNEL_CELLS:  # numpy's cost per call outweighs the saving
        return _formatted(x)
    a = np.abs(x)
    certified = (a >= 1e-280) & (a <= 1e280)  # false for 0, subnormals, inf and nan
    a[~certified] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)  # the exponent, or one off next to a power of ten
    whole, fraction, exact = _scaled(a, k)
    step = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        whole[redo], fraction[redo], exact[redo] = _scaled(a[redo], k[redo])
        certified[redo] &= (whole[redo] >= 10**16) & (whole[redo] < 10**17)
    certified &= exact | (np.abs(fraction - 0.5) > TIE_MARGIN)
    whole += (fraction > 0.5) | ((fraction == 0.5) & (whole & 1 == 1))
    carry = whole == 10**17
    whole[carry] = 10**16
    k += carry

    halves = np.empty((2, x.size), np.int32)  # the upper 9 digits of whole and the lower 8
    halves[0] = whole // 10**8
    halves[1] = whole - halves[0].astype(np.int64) * 10**8
    digits = np.empty((17, x.size), np.uint8)
    for j in range(8, 0, -1):  # digit j of the upper half and digit j - 1 of the lower, into rows j and j + 8
        tenth = halves // 10
        digits[j::8] = halves - 10 * tenth
        halves = tenth
    digits[0] = halves[0]
    digits += ord("0")
    significant = ((digits != ord("0")) * _SLOTS[1:18]).max(axis=0)  # digits up to the last nonzero one

    # Masks select by products: np.where is several times slower on these uint8 matrices.
    fixed = (k >= -4) & (k < 17)
    # digits before the point: k + 1 in a fixed layout, all 17 (no point) after its "0.000", one in a scientific one
    point = np.where(fixed, np.where(k < 0, 17, k + 1), 1).astype(np.uint8)
    shown = np.maximum(significant, (k + 1) * fixed).astype(np.uint8)  # digits written
    digits *= _SLOTS[:17] < shown
    cells = np.empty((FLOAT_WIDTH, x.size), np.uint8)
    cells[0] = np.signbit(x) * np.uint8(ord("-"))
    affixes = _affixes().take(k + _AFFIX_EXPONENT, axis=1)
    cells[1:6] = affixes[:5]
    region = cells[6:24]  # digit i in slot i before the point, "." in slot `point` if a digit follows, i + 1 after
    np.multiply(_SLOTS[:18] == point, (shown > point) * np.uint8(ord(".")), out=region)
    region[:17] += (_SLOTS[:17] < point) * digits
    region[1:] += (_SLOTS[1:18] > point) * digits
    cells[24:] = affixes[5:]
    uncertified = np.flatnonzero(~certified)
    if uncertified.size:
        cells[:, uncertified] = _formatted(x[uncertified])
    return cells


def _formatted(x: np.ndarray) -> np.ndarray:
    """The cells of the float64 vector x as format_value writes them, in
    the matrix layout of _float_cells."""
    texts = np.array([format_value(value).encode() for value in x.tolist()], dtype=f"S{FLOAT_WIDTH}")
    return texts.view(np.uint8).reshape(x.size, FLOAT_WIDTH).T


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For y = a * 10**(16 - k): floor(y) as int64, y - floor(y) within
    1e-14, and whether 10**(16 - k) is exact in float64, so that the
    fraction is too."""
    product, rest, _, lo = _times_power(a, 16 - k)
    below = np.floor(rest)  # product is whole where y >= 2**53, and y below 10**16 is redone
    return product.astype(np.int64) + below.astype(np.int64), rest - below, lo == 0


def _times_power(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """a * 10**q as product + rest, product the float64 a * hi and rest
    the exact rest of that product (Dekker) plus a * lo, with 10**q's
    hi and lo (see _power_of_ten)."""
    hi, lo, hi_hi, hi_lo = _powers().take(q + _POWER_EXPONENT, axis=0).T
    product = a * hi
    split = a * _SPLIT
    a_hi = split - (split - a)
    a_lo = a - a_hi
    rest = ((a_hi * hi_hi - product) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo  # a * hi - product, exactly
    rest += a * lo
    return product, rest, hi, lo


@functools.cache
def _powers() -> np.ndarray:
    """Row q + _POWER_EXPONENT: _power_of_ten(q), for the writer's and the
    reader's kernels."""
    return np.array([_power_of_ten(q) for q in range(-_POWER_EXPONENT, _POWER_EXPONENT + 1)])


def _power_of_ten(q: int) -> tuple[float, float, float, float]:
    """10**q as hi + lo, hi the float64 nearest it and lo the one nearest
    10**q - hi, both found in integers, then hi's Dekker halves."""
    if q >= 0:
        hi = float(10**q)
        lo = float(10**q - int(hi))
    else:
        hi = 1 / 10**-q  # int / int rounds correctly
        numerator, denominator = hi.as_integer_ratio()
        lo = (denominator - numerator * 10**-q) / (denominator * 10**-q)
    split = hi * _SPLIT
    hi_hi = split - (split - hi)
    return hi, lo, hi_hi, hi - hi_hi


@functools.cache
def _affixes() -> np.ndarray:
    """Column k + _AFFIX_EXPONENT: the 5 slots before a float cell's
    digits at exponent k ("0." and zeros if -4 <= k < 0) and the 5 after
    them ("e", a sign and 2 or 3 digits if k < -4 or k >= 17), NUL-padded."""
    table = np.zeros((10, 2 * _AFFIX_EXPONENT + 1), np.uint8)
    for k in range(-_AFFIX_EXPONENT, _AFFIX_EXPONENT + 1):
        before = "0." + "0" * (-k - 1) if -4 <= k < 0 else ""
        after = "" if -4 <= k < 17 else f"e{k:+03d}"
        table[:, k + _AFFIX_EXPONENT] = np.frombuffer(before.ljust(5, "\0").encode() + after.ljust(5, "\0").encode(),
                                                      np.uint8)
    return table
