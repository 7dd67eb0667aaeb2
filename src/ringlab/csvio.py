"""CSV reading/writing with strict schemas and round-trip fidelity.

Files are UTF-8, with or without a byte-order mark, comma-separated, one
header row naming the columns exactly; blank lines and lines starting
with '#' are skipped, and spaces after a comma are not part of the next
cell, so a quoted cell may follow one.  Tables are columns, float ones
read as float64 arrays.  A table whose columns are all float (a `fit-dip`
trace) is parsed by numpy's C reader; one with a str or int column (a
`fit-crossing` table), and any all-float table numpy refuses or finds a
non-finite value in, is read one cell at a time, which names the fault
or reads what only `float` does (`1_0`, non-ASCII digits, quoted cells).
Both give the same values.  Error row numbers are the file's line
numbers.  A table is written through one row template, a block of rows
per `%`, so each column holds one kind of value; floats get 17
significant digits so finite values survive a write/read round trip.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError

WRITE_BLOCK = 4096                      # table rows formatted and written at a time
SEQUENCES = (np.ndarray, list, tuple)   # the kinds of a table column of cells


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def load_csv(path: str | Path, columns: dict[str, type],
             alternatives: dict[str, str] | None = None) -> dict[str, np.ndarray | list]:
    """Read the columns of a file under a strict schema {column name -> float | str | int}.

    The header must contain exactly the schema's columns (any order);
    errors name the offending column and row, and a float column is a
    float64 array, a str or int column a list.  `alternatives` maps a
    schema column to another name it may be given under instead.
    """
    try:
        with open(path, encoding="utf-8-sig") as lines:
            return parse_csv(lines, columns, str(path), alternatives)
    except OSError as exc:
        raise DataError(f"data file: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def parse_csv(lines: io.TextIOBase, columns: dict[str, type], source: str = "<string>",
              alternatives: dict[str, str] | None = None) -> dict[str, np.ndarray | list]:
    """Columns {name -> values} of CSV text in a seekable text stream; see
    load_csv.  The stream is read from where it stands and, if the cell
    reader is needed, again from its start.
    """
    content = filter(_is_content, lines)
    reader = csv.reader(content, skipinitialspace=True)
    header = [cell.strip() for cell in next(reader, ())]
    columns = _schema(header, columns, source, alternatives)
    if all(kind is float for kind in columns.values()):
        table = _read_floats(content, header)  # the data lines: csv reads no further than the header
        if table is not None:
            return table
    lines.seek(0)
    return _read_cells(lines, header, columns, source)


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


def _read_floats(rows: Iterator[str], header: list[str]) -> dict[str, np.ndarray] | None:
    """The columns of all-float data lines, parsed by numpy's C reader; None
    if there are none, numpy refuses them or a value is not finite, so that
    the cell-by-cell reader names the fault or reads what only `float` does
    (`1_0`, non-ASCII digits, quoted cells)."""
    first = next(rows, None)
    if first is None:  # numpy would warn of no data
        return None
    try:
        values = np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if values.shape[1] != len(header) or not np.isfinite(values).all():
        return None
    return dict(zip(header, values.T))


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
    next(reader)  # the header, checked by parse_csv
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
                value = kind(cell)
            except ValueError:
                raise DataError(
                    f"{source}: row {row_number}, column {name!r}: not numeric: {cell!r}"
                ) from None
            if kind is float and not math.isfinite(value):
                raise DataError(f"{source}: row {row_number}, column {name!r}: non-finite value")
            append(value)
    return {name: np.array(values) if columns[name] is float else values for name, values in table.items()}


def write_csv(stream: io.TextIOBase, columns: list[str], table: Iterable,
              comments: Iterable[str] = ()) -> None:
    """Write optional '#' comment lines, the header, then the table's
    columns (iterated once): each a 1-d array, list or tuple of cells, or
    one value for every row, formatted once into the row template.  A
    column of cells takes '%.17g' if its first cell is a float (numpy
    float64 included), '%s' otherwise, as format_value writes them.  Rows
    go out WRITE_BLOCK at a time, one '%' and one write per block.  Columns
    of cells of different lengths, or none, are a ValueError.
    """
    table = list(table)
    cells = [column for column in table if isinstance(column, SEQUENCES)]
    lengths = sorted({len(column) for column in cells})
    if len(lengths) != 1:
        raise ValueError(f"table columns of different lengths: {lengths}" if lengths
                         else "table has no column of cells, only single values")
    for comment in comments:
        stream.write(f"# {comment}\n")
    stream.write(",".join(columns) + "\n")
    n_rows = lengths[0]
    if not n_rows:
        return
    template = ",".join(("%.17g" if isinstance(column[0], float) else "%s") if isinstance(column, SEQUENCES)
                        else format_value(column).replace("%", "%%") for column in table) + "\n"
    block = np.empty((min(n_rows, WRITE_BLOCK), len(cells)), dtype=object)
    for start in range(0, n_rows, WRITE_BLOCK):
        k = min(WRITE_BLOCK, n_rows - start)
        for j, column in enumerate(cells):
            block[:k, j] = column[start:start + k]
        stream.write((template * k) % tuple(block[:k].ravel().tolist()))
