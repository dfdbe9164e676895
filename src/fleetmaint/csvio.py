"""The one CSV writer and the one CSV reader of every file fleetmaint handles.

Standard library only, so every module can import it without a cycle.
Every file is UTF-8 whatever the locale, with "\\n" line ends.

Scenario exports run to hundreds of thousands of rows, so both directions
work on columns rather than on rows. :func:`write_lines` takes text that
the caller has already rendered, with every text field passed through
:func:`quote` (csv.writer's own quoting). :func:`read_csv` takes
``csv.reader`` rows in chunks of :data:`CHUNK_ROWS`, transposes each chunk
and converts each column with one ``map`` of the column's converter. The
converters are the same ``float``, ``int`` or custom callables a row-wise
reader would apply to each field, so a file is accepted exactly when every
field converts on its own; numpy's text parsers accept a different set of
inputs and are not used. Only when a chunk fails does the reader go back
over it row by row to name the first bad row.
"""

from __future__ import annotations

import csv
import io
from itertools import islice

__all__ = ["CHUNK_ROWS", "write_csv", "write_lines", "quote", "read_csv", "line_number"]

# Rows per chunk of read_csv. Larger chunks save little time and hold more
# parsed rows at once: reloading the N=10, S=5000 export peaked 1.6 MB
# higher at 2048 rows and 4 MB higher at 8192.
CHUNK_ROWS = 256

# The range of a column converted by int, which readers store as int64.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def write_csv(path, header, rows) -> None:
    """Write ``header``, then every row of the iterable ``rows``, with "\\n" line ends."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path, header, blocks) -> None:
    """Write ``header`` as :func:`write_csv` does, then each string of ``blocks``.

    Each block is one or more whole rows, every line ending in "\\n" and
    every text field passed through :func:`quote`.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerow(header)
        f.writelines(blocks)


def quote(field: str) -> str:
    """``field`` as :func:`write_csv` writes it in a row of several fields."""
    out = io.StringIO()
    # A lone empty field is written as "" to keep the row; a second field avoids that.
    csv.writer(out, lineterminator="\n").writerow([field, ""])
    return out.getvalue()[:-2]


def _convert(convert, texts) -> list:
    """The converted column; a ValueError if any field fails on its own."""
    values = list(map(convert, texts))
    if convert is int and values and (min(values) < _INT64_MIN or max(values) > _INT64_MAX):
        raise ValueError("outside int64")
    return values


def line_number(path, ordinal: int) -> int:
    """The line that ends data row ``ordinal`` of a CSV file (0-based, the
    header and blank lines not counted), as ``csv.reader.line_num`` gives it.

    The file is read again from the start, so this is for error paths only.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        next(reader)
        rows = filter(None, reader)
        next(islice(rows, ordinal, None))
        return reader.line_num


def read_csv(path, name: str, columns: dict):
    """The converted columns of a CSV file, streamed in chunks; blank lines are skipped.

    ``columns`` maps each expected column to a converter of one field.
    Each chunk is a list with one list of values per column, in the order
    of ``columns``, covering the next (at most) :data:`CHUNK_ROWS` rows. The
    header must hold exactly these columns, in any order, and every row
    exactly that many fields. A converter rejects a field with a
    ValueError; a column converted by ``int`` must also fit in int64.

    Every error starts with ``name`` (e.g. "schedule file") and the path,
    then names the line and, for a bad field, the column. The first bad
    row wins, and within it the first bad column in the order of
    ``columns``. The rows before it are yielded first, as one shorter
    chunk, so a caller that checks rows in order meets its own errors in
    the same order. A ``csv.Error`` (a field over ``csv.field_size_limit()``,
    say) becomes a ValueError on the line the reader had reached, raised
    once the rows read before it have been yielded.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or sorted(header) != sorted(columns):
            raise ValueError(f"{name} {path} must have exactly the columns {','.join(columns)}")
        fields = [(column, header.index(column), convert) for column, convert in columns.items()]
        ordinal = 0
        while True:
            rows, pending = [], None
            try:
                rows.extend(islice(reader, CHUNK_ROWS))
            except csv.Error as exc:  # the rows read before it stay in ``rows``
                pending, pending_line = exc, reader.line_num
            if not rows and pending is None:
                return
            rows = list(filter(None, rows))
            bad = len(rows)
            try:
                chunk = _columns(rows, fields) if rows else None
            except ValueError:
                bad, message = _first_error(rows, fields, columns)
                chunk = _columns(rows[:bad], fields) if bad else None
            if chunk:
                yield chunk
            if bad < len(rows):
                line = line_number(path, ordinal + bad)
                raise ValueError(f"{name} {path}, line {line}: {message}")
            ordinal += len(rows)
            if pending is not None:
                raise ValueError(f"{name} {path}, line {pending_line}: {pending}") from pending


def _columns(rows: list, fields: list) -> list[list]:
    """A nonempty chunk of rows as converted columns, in the order of ``fields``."""
    if set(map(len, rows)) != {len(fields)}:
        raise ValueError("a row of the wrong length")
    by_file = list(zip(*rows))
    return [_convert(convert, by_file[k]) for _, k, convert in fields]


def _first_error(rows, fields, columns) -> tuple[int, str]:
    """The index of the first bad row of a chunk, and what is wrong with it."""
    for r, row in enumerate(rows):
        if len(row) != len(fields):
            return r, f"a row must have exactly {len(fields)} fields, {','.join(columns)}"
        for column, k, convert in fields:
            try:
                _convert(convert, [row[k]])
            except ValueError:
                return r, f"bad {column} {row[k]!r}"
    raise AssertionError("a chunk failed to convert, but none of its rows does")
