"""The one CSV writer and the one CSV reader of every file fleetmaint handles.

Standard library only, so every module can import it without a cycle.
"""

from __future__ import annotations

import csv

__all__ = ["write_csv", "read_csv"]


def write_csv(path, header, rows) -> None:
    """Write ``header``, then every row of the iterable ``rows``, with "\\n" line ends."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, name: str, columns: dict):
    """The converted rows of a CSV file, streamed; blank lines are skipped.

    ``columns`` maps each expected column to its converter, and each row
    lists its values in that order. The header must hold exactly these
    columns, in any order, and every row exactly that many fields. A
    converter rejects a field with a ValueError. Every error starts with
    ``name`` (e.g. "schedule file") and the path, then names the line and,
    for a bad field, the column.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or sorted(header) != sorted(columns):
            raise ValueError(f"{name} {path} must have exactly the columns {','.join(columns)}")
        fields = [(column, header.index(column), convert) for column, convert in columns.items()]
        for row in reader:
            if not row:
                continue
            if len(row) != len(fields):
                raise ValueError(
                    f"{name} {path}, line {reader.line_num}: "
                    f"a row must have exactly {len(fields)} fields, {','.join(columns)}"
                )
            values = []
            try:
                for _, k, convert in fields:
                    values.append(convert(row[k]))
            except ValueError:
                column, k, _ = fields[len(values)]
                raise ValueError(
                    f"{name} {path}, line {reader.line_num}: bad {column} {row[k]!r}"
                ) from None
            yield values
