"""The chunked CSV reader and the field quoting of fleetmaint.csvio."""

import csv
import io
from array import array

import pytest

from fleetmaint import csvio
from fleetmaint.csvio import IntKey, quote, read_csv, write_csv, write_lines

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
    # int and float columns come as int64 and float64 arrays.
    assert list(read_csv(path, "test file", COLUMNS)) == [
        [["a"], array("q", [1]), array("d", [1.5])],
        [["b", "c"], array("q", [2, 3]), array("d", [2.5, 3.5])],
    ]


@pytest.mark.parametrize("count", [str(2**63), str(-(2**63) - 1)])
def test_int_columns_must_fit_int64(tmp_path, count):
    path = write_text(tmp_path / "f.csv", f"name,count,value\na,{2**63 - 1},1\nb,{count},2\n")
    with pytest.raises(ValueError, match=f"test file {path}, line 3: bad count '{count}'$"):
        list(read_csv(path, "test file", COLUMNS))


def test_int_key_columns_keep_the_first_fields_that_do_not_fit(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    path = write_text(
        tmp_path / "f.csv", "name,count,value\na,1,1\nb,300,2\n\nc,-1,3\nd,256,4\ne,-2,5\n"
    )
    count = IntKey("B")
    # A field that does not fit uint8 holds 0; the first below and the
    # first above its range are kept with their data rows.
    assert list(read_csv(path, "test file", {"name": str, "count": count, "value": float})) == [
        [["a", "b"], array("B", [1, 0]), array("d", [1.0, 2.0])],
        [["c"], array("B", [0]), array("d", [3.0])],
        [["d", "e"], array("B", [0, 0]), array("d", [4.0, 5.0])],
    ]
    assert (count.below, count.above) == ((2, -1), (1, 300))


@pytest.mark.parametrize("count", [str(2**63), str(-(2**63) - 1), "1.5"])
def test_int_key_fields_must_be_int64(tmp_path, count):
    path = write_text(tmp_path / "f.csv", f"name,count,value\na,{2**63 - 1},1\nb,{count},2\n")
    columns = {"name": str, "count": IntKey("I"), "value": float}
    chunks = read_csv(path, "test file", columns)
    assert next(chunks) == [["a"], array("I", [0]), array("d", [1.0])]
    with pytest.raises(ValueError, match=f"test file {path}, line 3: bad count '{count}'$"):
        next(chunks)
    assert columns["count"].above == (0, 2**63 - 1)


def test_rows_before_a_bad_row_are_yielded_first(tmp_path):
    path = write_text(tmp_path / "f.csv", "name,count,value\na,1,1\nb,2,x\nc,3,3\n")
    chunks = read_csv(path, "test file", COLUMNS)
    assert next(chunks) == [["a"], array("q", [1]), array("d", [1.0])]
    with pytest.raises(ValueError, match="line 3: bad value 'x'$"):
        next(chunks)


def test_csv_error_comes_after_the_rows_before_it(tmp_path):
    huge = "x" * (csv.field_size_limit() + 1)
    path = write_text(tmp_path / "f.csv", f"name,count,value\na,1,1\nb,2,y\n{huge},3,3\n")
    with pytest.raises(ValueError, match="line 3: bad value 'y'$"):
        list(read_csv(path, "test file", COLUMNS))
    path = write_text(tmp_path / "g.csv", f"name,count,value\na,1,1\n{huge},3,3\n")
    chunks = read_csv(path, "test file", COLUMNS)
    assert next(chunks) == [["a"], array("q", [1]), array("d", [1.0])]
    message = r"^test file .*g\.csv, line 3: field larger than field limit"
    with pytest.raises(ValueError, match=message):
        next(chunks)

