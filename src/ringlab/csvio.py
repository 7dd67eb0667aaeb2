"""CSV reading/writing with strict schemas and round-trip fidelity.

Files are UTF-8, with or without a byte-order mark, comma-separated, one
header row naming the columns exactly; blank lines and lines starting
with '#' are skipped, and spaces after a comma are not part of the next
cell, so a quoted cell may follow one.  Tables are read as columns in
one pass.  Error row numbers are the file's line numbers.  A table is
written through one row template, so each column holds one kind of
value; float columns are written with 17 significant digits so finite
values survive a write/read round trip bit-for-bit.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterable

from .errors import DataError


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def load_csv(path: str | Path, columns: dict[str, type],
             alternatives: dict[str, str] | None = None) -> dict[str, list]:
    """Read the columns of a file under a strict schema {column name -> float | str | int}.

    The header must contain exactly the schema's columns (any order);
    errors name the offending column and row.  `alternatives` maps a
    schema column to another name it may be given under instead.
    """
    try:
        with open(path, encoding="utf-8-sig") as lines:
            return parse_csv(lines, columns, str(path), alternatives)
    except OSError as exc:
        raise DataError(f"data file: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def parse_csv(lines: Iterable[str], columns: dict[str, type], source: str = "<string>",
              alternatives: dict[str, str] | None = None) -> dict[str, list]:
    """Columns {name -> list of values} of CSV text given as lines; see load_csv."""
    row_number = 0

    def content():
        nonlocal row_number
        for row_number, line in enumerate(lines, start=1):
            if line.strip() and not line.lstrip().startswith("#"):
                yield line

    reader = csv.reader(content(), skipinitialspace=True)
    header = [cell.strip() for cell in next(reader, ())]
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
    return table


def write_csv(stream: io.TextIOBase, columns: list[str], rows: Iterable,
              comments: Iterable[str] = ()) -> None:
    """Write optional '#' comment lines, the header, then the rows
    (sequences in column order, iterated once) through one row template
    taken from the first row: '%.17g' for a float, '%s' otherwise, as
    format_value writes them; so each column holds one kind of value.
    Output is deterministic for identical input.
    """
    for comment in comments:
        stream.write(f"# {comment}\n")
    stream.write(",".join(columns) + "\n")
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        template = ",".join("%.17g" if isinstance(value, float) else "%s" for value in first) + "\n"
        stream.write(template % tuple(first))
        for row in rows:
            stream.write(template % tuple(row))
