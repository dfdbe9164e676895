"""The chunked CSV reader and the field quoting of fleetmaint.csvio."""

import csv
import io

import pytest

from fleetmaint import csvio
from fleetmaint.csvio import quote, read_csv, write_csv, write_lines

COLUMNS = {"name": str, "count": int, "value": float}


def write_text(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return path


@pytest.mark.parametrize(
    "field",
    ["A1", "", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " lead", "trail ", "Pumpé", '"'],
)
def test_quote_matches_csv_writer(field):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([field, 1, "x"])
    assert out.getvalue() == f"{quote(field)},1,x\n"


def test_write_lines_matches_write_csv(tmp_path):
    rows = [["a,b", 1, "2.5"], ["Pumpé", 2, "-0"]]
    write_csv(tmp_path / "rows.csv", COLUMNS, rows)
    write_lines(
        tmp_path / "lines.csv", COLUMNS, [f"{quote(a)},{n},{x}\n" for a, n, x in rows]
    )
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "lines.csv").read_bytes()


def test_chunks_are_converted_columns_in_column_order(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    path = write_text(tmp_path / "f.csv", "value,name,count\n1.5,a,1\n\n2.5,b,2\n3.5,c,3\n")
    # The blank line is a reader row, so the first chunk holds one data row.
    assert list(read_csv(path, "test file", COLUMNS)) == [
        [["a"], [1], [1.5]],
        [["b", "c"], [2, 3], [2.5, 3.5]],
    ]


@pytest.mark.parametrize("count", [str(2**63), str(-(2**63) - 1)])
def test_int_columns_must_fit_int64(tmp_path, count):
    path = write_text(tmp_path / "f.csv", f"name,count,value\na,{2**63 - 1},1\nb,{count},2\n")
    with pytest.raises(ValueError, match=f"test file {path}, line 3: bad count '{count}'$"):
        list(read_csv(path, "test file", COLUMNS))


def test_rows_before_a_bad_row_are_yielded_first(tmp_path):
    path = write_text(tmp_path / "f.csv", "name,count,value\na,1,1\nb,2,x\nc,3,3\n")
    chunks = read_csv(path, "test file", COLUMNS)
    assert next(chunks) == [["a"], [1], [1.0]]
    with pytest.raises(ValueError, match="line 3: bad value 'x'$"):
        next(chunks)


def test_csv_error_comes_after_the_rows_before_it(tmp_path):
    huge = "x" * (csv.field_size_limit() + 1)
    path = write_text(tmp_path / "f.csv", f"name,count,value\na,1,1\nb,2,y\n{huge},3,3\n")
    with pytest.raises(ValueError, match="line 3: bad value 'y'$"):
        list(read_csv(path, "test file", COLUMNS))
    path = write_text(tmp_path / "g.csv", f"name,count,value\na,1,1\n{huge},3,3\n")
    chunks = read_csv(path, "test file", COLUMNS)
    assert next(chunks) == [["a"], [1], [1.0]]
    message = r"^test file .*g\.csv, line 3: field larger than field limit"
    with pytest.raises(ValueError, match=message):
        next(chunks)

