import csv
import re

import numpy as np
import pytest

from castlab import (
    FunctionSpec,
    generate_function_series,
    load_csv,
    validate_series,
    write_csv,
)
from castlab import data_io
from castlab.data_io import FUNCTION_KINDS
from castlab.errors import (
    EmptyInputError,
    NonFiniteValueError,
    ParseError,
    RaggedRowsError,
    UnknownKindError,
)


def test_load_informer(tmp_path):
    p = tmp_path / "informer.csv"
    p.write_text("date,HUFL\n2016-07-01 00:00:00,5.827\n2016-07-01 00:15:00,5.693\n")
    ts = load_csv(p, layout="informer")
    assert ts.length == 2 and ts.channels == 1
    assert ts.channel_names == ("HUFL",)
    assert np.allclose(ts.values[:, 0], [5.827, 5.693])


def test_load_plain_headerless(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    ts = load_csv(p, layout="plain")
    assert ts.values.shape == (2, 2)
    assert ts.channel_names is None
    assert np.allclose(ts.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_parse_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,x\n2020-01-01,1.0\n2020-01-02,abc\n")
    with pytest.raises(ParseError) as err:
        load_csv(p, layout="informer")
    assert err.value.line == 3 and err.value.token == "abc"


def test_load_ragged(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(RaggedRowsError):
        load_csv(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_nan_cell_rejected(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("1.0\nnan\n")
    with pytest.raises(NonFiniteValueError):
        load_csv(p)


@pytest.mark.parametrize("reader", [data_io._read_numeric, data_io._read_rows])
@pytest.mark.parametrize("header,names", [("", None), ("a,b\n", ["a", "b"])])
def test_a_utf8_byte_order_mark_is_neither_data_nor_name(tmp_path, reader, header, names):
    # Excel and many Windows tools start a UTF-8 CSV with one
    p = tmp_path / "bom.csv"
    p.write_bytes(("\ufeff" + header + "1.0,2.0\n3.0,4.0\n5.0,6.0").encode("utf-8"))
    values, got = reader(p, "plain")
    assert values.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]] and got == names


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    ts = validate_series(rng.normal(scale=123.4, size=(17, 3)), names=["a", "b", "c"])
    path = write_csv(ts, tmp_path / "rt.csv")
    back = load_csv(path, layout="plain")
    assert back.channel_names == ("a", "b", "c")
    assert np.allclose(back.values, ts.values, rtol=1e-9)


def test_function_clean_sine_in_unit_range():
    ts = generate_function_series(FunctionSpec(kind="sine", length=200, noise_std=0.0))
    assert ts.values.shape == (200, 1)
    assert abs(ts.values.min()) <= 1e-12
    assert abs(ts.values.max() - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", FUNCTION_KINDS)
def test_function_minmax_scaling_every_kind(kind):
    ts = generate_function_series(FunctionSpec(kind=kind, length=128, noise_std=0.0))
    assert abs(ts.values.min()) <= 1e-12
    assert abs(ts.values.max() - 1.0) <= 1e-12


def test_function_tiny_noise_std():
    spec = FunctionSpec(kind="sine", length=200, noise_std=0.001, seed=42)
    noisy = generate_function_series(spec).values[:, 0]
    clean = generate_function_series(FunctionSpec(kind="sine", length=200)).values[:, 0]
    resid = noisy - clean
    assert 0.0005 <= resid.std() <= 0.002


def test_function_determinism():
    spec = FunctionSpec(kind="beat_interference", length=150, noise_std=0.01, seed=9)
    a = generate_function_series(spec).values
    b = generate_function_series(spec).values
    assert np.array_equal(a, b)


def test_function_unknown_kind():
    with pytest.raises(UnknownKindError):
        FunctionSpec(kind="chirp")


def test_write_csv_missing_dir_raises(tmp_path):
    ts = validate_series(np.ones((2, 1)))
    with pytest.raises(OSError):
        write_csv(ts, tmp_path / "not" / "there" / "out.csv")


def test_write_csv_single_channel(tmp_path):
    ts = validate_series(np.arange(3.0))
    path = write_csv(ts, tmp_path / "one.csv")
    back = load_csv(path)
    assert back.channels == 1
    assert np.array_equal(back.values, ts.values)


# -- loader equivalence ---------------------------------------------------


def _reference_load_csv(path, layout="plain"):
    """The token-by-token loader that ``np.loadtxt`` replaced as the main path."""
    with open(path, newline="", encoding="utf-8") as fh:
        raw = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not raw:
        raise EmptyInputError(f"{path} has no rows")

    def parse(rows, names):
        if not rows:
            raise EmptyInputError("no data rows")
        width = len(rows[0][1])
        data = np.empty((len(rows), width), dtype=np.float64)
        for i, (line_no, row) in enumerate(rows):
            if len(row) != width:
                raise RaggedRowsError(f"line {line_no} has {len(row)} columns, expected {width}")
            for j, token in enumerate(row):
                try:
                    data[i, j] = float(token)
                except ValueError:
                    raise ParseError(line_no, j + 1, token) from None
        return validate_series(data, names=names)

    if layout == "informer":
        header = raw[0][1]
        if len(header) < 2:
            raise RaggedRowsError("informer layout needs a timestamp column plus channels")
        return parse([(n, row[1:]) for n, row in raw[1:]], [c.strip() for c in header[1:]])
    first = raw[0][1]
    try:
        [float(tok) for tok in first]
    except ValueError:
        return parse(raw[1:], [c.strip() for c in first])
    return parse(raw, None)


def _random_floats():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-12, 12, size=(40, 3))
    return "a,b,c\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)


# Bodies under a header row "a,b" (or "a"), unless the case says otherwise;
# the informer file of a case gives each non-blank line a timestamp column.
LOADER_CASES = {
    "more_columns": "a,b\n1,2\n3,4,5\n",
    "fewer_columns": "a,b\n1,2\n3\n",
    "bad_token": "a,b\n1,2\n\n3,x4\n",
    "empty_field": "a,b\n1,2\n3,\n",
    "quoted_empty_field": 'a,b\n1,""\n',
    "hash_in_field": "a,b\n1,2#3\n",
    "leading_hash": "a,b\n#1,2\n",
    "quoted_number": 'a,b\n"1.5",2\n"-3e2" ,4\n',
    "space_before_quote": 'a,b\n "1.5",2\n',
    "quoted_comma": 'a,b\n"1,5",2\n',
    "quoted_line_break": 'a,b\n"1\n",2\n3,4\n',
    "whitespace_padded": "a,b\n 1.5 ,\t2 \n3\x0c, 4\u2028\n",
    "underscore": "a,b\n1_0,2\n",
    "blank_lines": "\n\na,b\n\n1,2\n\n\n3,4\n\n",
    "whitespace_only_line": "a,b\n1,2\n   \n3,4\n",
    "whitespace_only_line_one_column": "a\n1\n \t \n3\n",
    "crlf": "a,b\r\n1,2\r\n\r\n3,4\r\n",
    "lone_cr": "a,b\r1,2\r\r3,4\r",
    "form_feed_in_field": "a,b\n1\x0c2,3\n",
    "line_separator_in_field": "a,b\n1\u20282,3\n",
    "header_only": "a,b\n",
    "empty_file": "",
    "single_row": "a,b\n1,2\n",
    "single_column": "a\n1\n2\n3\n",
    "no_header": "1,2\n3,4\n",
    "no_header_single_value": "7.25\n",
    "nan": "a,b\n1,nan\n2,3\n",
    "random_floats": _random_floats(),
}

# Informer files given as written, for both layouts.
RAW_CASES = {
    "informer_row_without_channels": "date,a\n2016-07-01,1\n2016-07-02\n",
    "informer_row_with_empty_channels": "date,a\n2016-07-01,1\n2016-07-02,\r\n",
    "informer_quoted_timestamp_comma": 'date,a\n"2016-07-01, 00:00",1\n"2016-07-02, 00:00",2\n',
    "informer_quoted_timestamp": 'date,a,b\n"2016-07-01",1,2\n"2016-07-02",3,4\n',
    "informer_header_only_timestamp": "date\n2016-07-01\n",
    "informer_header_wider_than_rows": "date,a,b\n2016-07-01,1\n",
    "quoted_line_break_crlf": 'date,a\r\n"2016-07-01",1\r\n"2016-07-02","2\r\n"\r\n',
    "quoted_field_swallows_a_line": 'date,a,b\nt0,1,"2\nt1,",3\n',
    "quoted_timestamp_line_break": 'date,a\n"t0\n,",1\n',
    "mid_field_quote_then_quoted_field": 'date,a,b\nt"0,"2\n",4\n',
}


def _informer(text):
    parts = re.split(r"(\r\n|\r|\n)", text)
    out = []
    for i, part in enumerate(parts):
        if i % 2 == 0 and part:
            part = f"2016-07-01 00:{i // 2:02d}:00,{part}"
        out.append(part)
    return "".join(out)


def _outcome(loader, path, layout):
    try:
        ts = loader(path, layout=layout)
    except Exception as exc:
        details = (exc.line, exc.column, exc.token) if isinstance(exc, ParseError) else None
        return ("raised", type(exc), str(exc), details)
    return ("loaded", ts.values.shape, ts.values.tobytes(), ts.channel_names)


LOADER_FILES = [
    *((name, layout, text if layout == "plain" else _informer(text))
      for name, text in LOADER_CASES.items() for layout in ("plain", "informer")),
    *((name, layout, text) for name, text in RAW_CASES.items() for layout in ("plain", "informer")),
]


@pytest.mark.parametrize(
    "name,layout,text", LOADER_FILES, ids=[f"{n}-{lay}" for n, lay, _ in LOADER_FILES]
)
def test_load_csv_matches_reference_loader(tmp_path, name, layout, text):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_csv, path, layout) == _outcome(_reference_load_csv, path, layout)


def test_valid_files_skip_the_row_loop(tmp_path, monkeypatch):
    def row_loop(*args):
        raise AssertionError("fell back to the row loop")

    monkeypatch.setattr(data_io, "_read_rows", row_loop)
    for name in ("whitespace_padded", "blank_lines", "crlf", "lone_cr",
                 "single_column", "no_header", "random_floats"):
        for layout in ("plain", "informer"):
            path = tmp_path / f"{name}-{layout}.csv"
            text = LOADER_CASES[name]
            path.write_bytes((text if layout == "plain" else _informer(text)).encode("utf-8"))
            load_csv(path, layout=layout)
    # numpy unquotes plain files itself; informer lines with quotes go to the row loop
    path = tmp_path / "quoted.csv"
    path.write_text(LOADER_CASES["quoted_number"], encoding="utf-8")
    load_csv(path)


def test_quoted_informer_rows_skip_the_row_loop(tmp_path, monkeypatch):
    files = {
        "quoted_number": _informer(LOADER_CASES["quoted_number"]),
        "doubled_quotes": 'date,a,b\n"2016 ""07"", 01",1,2\r\n"t\n1",3,4\r',
        **{name: RAW_CASES[name] for name in (
            "informer_quoted_timestamp_comma", "informer_quoted_timestamp",
            "quoted_line_break_crlf", "quoted_timestamp_line_break")},
    }
    expected = {}
    for name, text in files.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        expected[name] = _outcome(_reference_load_csv, path, "informer")
        assert expected[name][0] == "loaded"

    def row_loop(*args):
        raise AssertionError("fell back to the row loop")

    monkeypatch.setattr(data_io, "_read_rows", row_loop)
    for name in files:
        assert _outcome(load_csv, tmp_path / f"{name}.csv", "informer") == expected[name]
