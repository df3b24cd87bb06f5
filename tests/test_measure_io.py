"""Measure file formats: JSON atoms documents and two-column CSV."""

import csv
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbound import (
    InvalidMeasure,
    MeasureFormatError,
    ProbabilityMeasure,
    SignedMeasure,
    read_probability_measure,
    read_signed_measure,
)
from divbound.measure import _csv_columns, _json_columns
from helpers import csv_columns_loop, json_columns_loop


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestJson:
    def test_round_trip(self):
        m = SignedMeasure(("a1", "a2"), [0.3, -0.7])
        assert SignedMeasure.from_json_dict(m.to_json_dict()) == m

    def test_read_signed(self, tmp_path):
        p = write(tmp_path, "m.json", '{"atoms": [{"id": "x", "w": 0.25}, {"id": "y", "w": -0.25}]}')
        m = read_signed_measure(p)
        assert m.atoms == ("x", "y")
        assert list(m.weights) == [0.25, -0.25]

    def test_read_probability_checks_invariants(self, tmp_path):
        p = write(tmp_path, "m.json", '{"atoms": [{"id": "x", "w": 0.25}, {"id": "y", "w": 0.25}]}')
        with pytest.raises(InvalidMeasure):
            read_probability_measure(p)

    def test_nan_token_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", '{"atoms": [{"id": "x", "w": NaN}]}')
        with pytest.raises(MeasureFormatError):
            read_signed_measure(p)

    def test_infinity_token_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", '{"atoms": [{"id": "x", "w": Infinity}]}')
        with pytest.raises(MeasureFormatError):
            read_signed_measure(p)

    def test_overflowing_literal_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", '{"atoms": [{"id": "x", "w": 1e999}]}')
        with pytest.raises(MeasureFormatError):
            read_signed_measure(p)

    def test_integer_too_large_for_a_float_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", '{"atoms": [{"id": "x", "w": 1' + "0" * 400 + "}]}")
        with pytest.raises(MeasureFormatError, match="too large"):
            read_signed_measure(p)

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", '{"atoms": [{"id": "x", "w": 1' + "0" * 4400 + "}]}")
        with pytest.raises(MeasureFormatError, match="invalid JSON"):
            read_signed_measure(p)

    def test_deep_nesting_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", "[" * 200_000 + "]" * 200_000)
        with pytest.raises(MeasureFormatError, match="invalid JSON"):
            read_signed_measure(p)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = write(tmp_path, "m.json",
                  '{"atoms": [{"id": "x", "w": 0.5}, {"id": "x", "w": 0.5}]}')
        with pytest.raises(InvalidMeasure):
            read_signed_measure(p)

    def test_malformed_document_rejected(self, tmp_path):
        for text in ("{not json", "[]", '{"atoms": 3}', '{"atoms": [{"id": 1, "w": 2}]}',
                     '{"atoms": [{"id": "x"}]}', '{"atoms": [{"id": "x", "w": "y"}]}',
                     '{"atoms": [{"id": "x", "w": true}]}'):
            p = write(tmp_path, "m.json", text)
            with pytest.raises(MeasureFormatError):
                read_signed_measure(p)


class TestCsv:
    def test_read(self, tmp_path):
        p = write(tmp_path, "m.csv", "id,w\na1,0.5\na2,0.5\n")
        m = read_probability_measure(p)
        assert isinstance(m, ProbabilityMeasure)
        assert m.atoms == ("a1", "a2")

    def test_header_required(self, tmp_path):
        p = write(tmp_path, "m.csv", "a1,0.5\na2,0.5\n")
        with pytest.raises(MeasureFormatError):
            read_signed_measure(p)

    def test_bad_number_rejected(self, tmp_path):
        p = write(tmp_path, "m.csv", "id,w\na1,abc\n")
        with pytest.raises(MeasureFormatError):
            read_signed_measure(p)

    def test_non_finite_rejected(self, tmp_path):
        for token in ("nan", "inf", "-inf"):
            p = write(tmp_path, "m.csv", f"id,w\na1,{token}\n")
            with pytest.raises(MeasureFormatError):
                read_signed_measure(p)

    def test_wrong_column_count_rejected(self, tmp_path):
        p = write(tmp_path, "m.csv", "id,w\na1,0.5,9\n")
        with pytest.raises(MeasureFormatError):
            read_signed_measure(p)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        texts = {"m.csv": "id,w\na1,0.25\na2,0.75\n",
                 "m.json": '{"atoms": [{"id": "a1", "w": 0.25}, {"id": "a2", "w": 0.75}]}'}
        for name, text in texts.items():
            plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
            plain.write_bytes(text.encode("utf-8"))
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            assert read_probability_measure(marked) == read_probability_measure(plain)
            assert read_probability_measure(marked).atoms == ("a1", "a2")

    def test_not_utf8_rejected(self, tmp_path):
        for name in ("m.csv", "m.json"):
            p = tmp_path / name
            p.write_bytes(b"id,w\xff\n")
            with pytest.raises(MeasureFormatError, match="not UTF-8"):
                read_probability_measure(p)


_DIGITS = "1" + "0" * 4400

# every malformed file above and in the CLI tests, with the exact error it gives
MALFORMED = (
    ("m.json", '{"atoms": [{"id": "x", "w": NaN}]}', "non-finite weight token 'NaN' is not allowed"),
    ("m.json", '{"atoms": [{"id": "x", "w": Infinity}]}',
     "non-finite weight token 'Infinity' is not allowed"),
    ("m.json", '{"atoms": [{"id": "x", "w": 1e999}]}', "weight of atom 'x' must be finite"),
    ("m.json", '{"atoms": [{"id": "x", "w": 1' + "0" * 400 + "}]}",
     "weight of atom 'x' is too large for a float"),
    ("m.json", '{"atoms": [{"id": "x", "w": ' + _DIGITS + "}]}",
     "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 4401 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("m.json", "[" * 200_000 + "]" * 200_000,
     "invalid JSON: maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string"),
    ("m.json", "{not json",
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("m.json", "[]", 'expected a JSON object {"atoms": [...]}'),
    ("m.json", '{"atoms": 3}', 'expected a JSON object {"atoms": [...]}'),
    ("m.json", '{"atoms": [{"id": 1, "w": 2}]}', "atom id must be a string, got 1"),
    ("m.json", '{"atoms": [{"id": "x"}]}', 'each atom must be an object {"id": ..., "w": ...}'),
    ("m.json", '{"atoms": [{"id": "x", "w": 1, "z": 2}]}',
     'each atom must be an object {"id": ..., "w": ...}'),
    ("m.json", '{"atoms": [{"id": "x", "w": "y"}]}', "weight of atom 'x' must be a number"),
    ("m.json", '{"atoms": [{"id": "x", "w": true}]}', "weight of atom 'x' must be a number"),
    ("m.json", '{"atoms": [{"id": "x", "w": null}, {"id": 2, "w": 1}]}',
     "weight of atom 'x' must be a number"),
    ("m.csv", "a1,0.5\na2,0.5\n", 'CSV measures need the header row "id,w"'),
    ("m.csv", "", 'CSV measures need the header row "id,w"'),
    ("m.csv", "id,w\na1,abc\n", "line 2: weight 'abc' is not a number"),
    ("m.csv", "id,w\na1,nan\n", "line 2: weight must be finite"),
    ("m.csv", "id,w\na1,inf\n", "line 2: weight must be finite"),
    ("m.csv", "id,w\na1,-inf\n", "line 2: weight must be finite"),
    ("m.csv", "id,w\na1,0.5,9\n", "line 2: expected two columns, got 3"),
    ("m.csv", "id,w\n\na1,0.5,9\n", "line 3: expected two columns, got 3"),
    ("m.csv", "id,w\na1,x\na2\n", "line 2: weight 'x' is not a number"),
    # the quoted id spans lines 3 and 4, so the bad weight is on line 5
    ("m.csv", 'id,w\na,0.5\n"b\nc",0.5\nd,x\n', "line 5: weight 'x' is not a number"),
    # two bad rows: the first is named
    ("m.csv", "id,w\na1,0.5\na2,nan\na3,x\n", "line 3: weight must be finite"),
)


@pytest.mark.parametrize("name, text, message", MALFORMED)
def test_malformed_file_message(tmp_path, name, text, message):
    p = write(tmp_path, name, text)
    with pytest.raises(MeasureFormatError) as info:
        read_signed_measure(p)
    assert str(info.value) == message


@pytest.mark.parametrize("name, content, detail", (
    ("m.csv", b"id,w\xff\n", "byte 0xff in position 4: invalid start byte"),
    ("m.json", b'{"atoms": [{"id": "\xe9", "w": 1}]}',
     "byte 0xe9 in position 19: invalid continuation byte"),
))
def test_not_utf8_message(tmp_path, name, content, detail):
    p = tmp_path / name
    p.write_bytes(content)
    with pytest.raises(MeasureFormatError) as info:
        read_signed_measure(p)
    assert str(info.value) == f"{p} is not UTF-8 text: 'utf-8' codec can't decode {detail}"


def test_csv_field_past_size_limit(tmp_path):
    p = write(tmp_path, "m.csv", "id,w\n" + "x" * 200_000 + ",1\n")
    with pytest.raises(MeasureFormatError) as info:
        read_signed_measure(p)
    assert str(info.value) == "line 2: field larger than field limit (131072)"


# an error of the CSV syntax itself wins wherever it occurs, over an earlier bad row or header
@pytest.mark.parametrize("head, line", (("id,w\na1,x\n", 3), ("a,b\n", 2)),
                         ids=("after-a-bad-weight", "after-a-wrong-header"))
def test_csv_syntax_error_wins(tmp_path, head, line):
    p = write(tmp_path, "m.csv", head + "x" * 200_000 + ",1\n")
    with pytest.raises(MeasureFormatError) as info:
        read_signed_measure(p)
    assert str(info.value) == f"line {line}: field larger than field limit (131072)"


def test_duplicate_id_message(tmp_path):
    p = write(tmp_path, "m.csv", "id,w\nx,0.5\nx,0.5\n")
    with pytest.raises(InvalidMeasure) as info:
        read_signed_measure(p)
    assert type(info.value) is InvalidMeasure
    assert str(info.value) == "atom ids must be unique within a measure"


def test_files_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(20091)
    n = 10_000
    weights = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
    weights[:6] = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -3.0]
    ints = rng.integers(-(1 << 60), 1 << 60, 50).tolist()
    atoms = [f"a{i}" for i in range(n)]
    atoms[:2] = ["\u00e9t\u00e9", "x y"]
    tokens = [repr(w) for w in weights[:-50]] + [str(k) for k in ints]
    expected = np.array(weights[:-50] + [float(k) for k in ints])
    rows = ", ".join(f'{{"id": "{a}", "w": {t}}}' for a, t in zip(atoms, tokens))
    files = (write(tmp_path, "m.json", f'{{"atoms": [{rows}]}}'),
             write(tmp_path, "m.csv", "id,w\n" + "".join(f"{a},{t}\n" for a, t in zip(atoms, tokens))))
    for p in files:
        m = read_signed_measure(p)
        assert m.atoms == tuple(atoms)
        assert m.weights.tobytes() == expected.tobytes()


# The column passes of _csv_columns and _json_columns must give what the
# per-row loops they bypass give: the same ids, weight bytes, or error.


def outcome(read, source):
    try:
        ids, weights = read(source)
    except Exception as exc:
        return type(exc), str(exc)
    return list(ids), np.array(weights, dtype=np.float64).tobytes()


LIMIT = csv.field_size_limit()

CSV_TEXTS = {
    "plain": "id,w\na,0.5\nb,0.25\n",
    "no final newline": "id,w\na,0.5\nb,0.25",
    "header only": "id,w\n",
    "header without newline": "id,w",
    "empty": "",
    "integer weights": "id,w\na,1\nb,-2\nc,123456789012345678901234567890\n",
    "bool weight": "id,w\na,True\n",
    "overflow": "id,w\na,1e999\n",
    "nan": "id,w\na,0.5\nb,nan\n",
    "infinity": "id,w\na,-Infinity\n",
    "signed zero and subnormals": "id,w\na,-0.0\nb,5e-324\nc,-5e-324\nd,0\n",
    "float syntax": "id,w\na,1_0\nb,.5\nc,5.\nd,+1e-3\ne,\u0661\n",
    "spaces and tabs in ids": "id,w\n a b ,0.5\n\tc\t,0.25\n\u00a0d\u2003,0.25\n",
    "spaces around weights": "id,w\na, 0.5 \nb,\t0.5\t\n",
    "empty id": "id,w\n,0.5\n ,0.5\n",
    "empty weight": "id,w\na,\n",
    "other line breaks in ids": "id,w\na\x0bb,1\nc\x0cd,1\ne\x1cf,1\ng\x85h,1\ni\u2028j,1\n",
    "CRLF": "id,w\r\na,0.5\r\nb,0.5\r\n",
    "LF and CRLF": "id,w\na,0.5\r\nb,0.5\n",
    "CRLF with a quoted CR": 'id,w\r\n"a\rb",0.5\r\nc,0.5\r\n',
    "CRLF then a bad weight": "id,w\r\na,0.5\r\nb,x\r\n",
    "CR CRLF": "id,w\r\na,0.5\r\r\nb,0.5\r\n",
    "lone CR": "id,w\na,0.5\rb,0.5\n",
    "CR in id": "id,w\na\rb,0.5\n",
    "quoted comma": 'id,w\n"a,b",0.5\nc,0.5\n',
    "quoted newline": 'id,w\na,0.5\n"b\nc",0.5\nd,x\n',
    "quoted id": 'id,w\n"a",0.5\n',
    "quoted weight": 'id,w\na,"0.5"\n',
    "stray quote": 'id,w\na"b,0.5\n',
    "blank lines": "id,w\n\na,0.5\n\n\nb,0.5\n",
    "trailing blank line": "id,w\na,0.5\n\n",
    "blank line then bad row": "id,w\n\n\na,0.5,9\n",
    "one column": "id,w\na,0.5\nb\n",
    "three columns": "id,w\na,0.5\nb,0.5,9\n",
    "one and three columns": "id,w\na,0.5,1\n2\n",
    "bad weight before short row": "id,w\na1,x\na2\n",
    "two bad rows": "id,w\na,0.5\nb,x\nc,0.5,9\nd,inf\n",
    "bad header then bad row": "id,v\na,x\nb\n",
    "NUL in id": "id,w\na\0b,0.5\n",
    "NUL alone": "id,w\na,0.5\n\0\n",
    "byte order mark": "\ufeffid,w\na,0.5\n",
    "byte order mark in id": "id,w\n\ufeffa,0.5\n",
    "lone surrogate in id": "id,w\n\ud800,0.5\n",
    "header with spaces": " id , w \na,0.5\n",
    "header with three columns": "id,w,z\na,0.5\n",
    "no header": "a,0.5\nb,0.5\n",
    "duplicate ids": "id,w\na,0.5\na,0.5\n",
    "field at the size limit": "id,w\n" + "x" * LIMIT + ",1\n",
    "field past the size limit": "id,w\n" + "x" * (LIMIT + 1) + ",1\n",
    "weight past the size limit": "id,w\na," + "1" * (LIMIT + 1) + "\n",
    "field past the size limit after a bad row": "id,w\na,x\n" + "y" * (LIMIT + 1) + ",1\n",
}


@pytest.mark.parametrize("text", CSV_TEXTS.values(), ids=CSV_TEXTS.keys())
def test_csv_column_pass_matches_loop(text):
    assert outcome(_csv_columns, text) == outcome(csv_columns_loop, text)


def test_crlf_text_takes_the_column_pass():
    # the column pass returns its weights as one array, the loop as a list
    ids, weights = _csv_columns("id,w\r\na,0.5\r\nb,0.5\r\n")
    assert ids == ["a", "b"] and isinstance(weights, np.ndarray)


@pytest.mark.parametrize("text, atoms", (
    ('id,w\n"a\rb",0.5\nc,0.5\n', ("a\rb", "c")),  # a quoted CR stays in its id
    ('id,w\r\n"a\r\nb",0.5\r\nc,0.5\r\n', ("a\r\nb", "c")),
    ("id,w\ra,0.5\rb,0.5\r", ("a", "b")),  # CR line ends, as written by classic Mac OS
    ("id,w\r\na,0.5\r\nb,0.5\r\n", ("a", "b")),
))
def test_csv_file_keeps_its_line_ends(tmp_path, text, atoms):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode("utf-8"))
    assert read_probability_measure(p).atoms == atoms


def test_csv_column_pass_keeps_a_lowered_field_limit():
    text = "id,w\nabcdefghijk,0.5\n" + "z" * 100
    old = csv.field_size_limit(10)
    try:
        expected = (MeasureFormatError, "line 2: field larger than field limit (10)")
        assert outcome(_csv_columns, text) == outcome(csv_columns_loop, text) == expected
        assert csv.field_size_limit() == 10
    finally:
        csv.field_size_limit(old)


_CSV_ALPHABET = st.sampled_from(list("ab 1.5e-,\n\r\"\t\0") + ["nan", "1e999", "\u00a0"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_CSV_ALPHABET, max_size=40).map("".join))
def test_csv_column_pass_matches_loop_on_generated_text(body):
    text = "id,w\n" + body
    assert outcome(_csv_columns, text) == outcome(csv_columns_loop, text)


def _document(entries) -> str:
    return json.dumps({"atoms": entries})


JSON_DATA = {
    "floats": _document([{"id": "a", "w": 0.5}, {"id": "b", "w": -0.25}]),
    "empty": _document([]),
    "integer weights": _document([{"id": "a", "w": 1}, {"id": "b", "w": -2}]),
    "integer after floats": _document([{"id": "a", "w": 0.5}, {"id": "b", "w": 3}]),
    "integer too large": '{"atoms": [{"id": "a", "w": 0.5}, {"id": "b", "w": 1' + "0" * 400 + "}]}",
    "negative integer too large": _document([{"id": "a", "w": 1}, {"id": "b", "w": -10**400}]),
    "integers past 2**53 and 2**64": _document([{"id": "a", "w": 2**53 + 1}, {"id": "b", "w": 0.5},
                                                {"id": "c", "w": -(2**64) - 3}]),
    "largest integer below the float limit": _document([{"id": "a", "w": 2**1024 - 2**970 - 1}]),
    "integer rounding to the float limit": _document([{"id": "a", "w": 0.5},
                                                      {"id": "b", "w": 2**1024 - 2**970}]),
    "overflow before a too large integer": '{"atoms": [{"id": "a", "w": 1e999}, {"id": "b", "w": 1'
                                           + "0" * 400 + "}]}",
    "too large integer before an integer id": _document([{"id": "a", "w": 10**400},
                                                         {"id": 2, "w": 0.5}]),
    "bool weight": _document([{"id": "a", "w": 0.5}, {"id": "b", "w": True}]),
    "overflow": '{"atoms": [{"id": "a", "w": 0.5}, {"id": "b", "w": 1e999}]}',
    "signed zero and subnormals": '{"atoms": [{"id": "a", "w": -0.0}, {"id": "b", "w": 5e-324},'
                                  ' {"id": "c", "w": -5e-324}]}',
    "spaces and tabs in ids": _document([{"id": " a ", "w": 0.5}, {"id": "\tb\u00a0", "w": 0.5}]),
    "null weight": _document([{"id": "a", "w": 0.5}, {"id": "b", "w": None}]),
    "string weight": _document([{"id": "a", "w": "0.5"}]),
    "integer id": _document([{"id": "a", "w": 0.5}, {"id": 1, "w": 0.5}]),
    "null id": _document([{"id": None, "w": 0.5}]),
    "missing weight": _document([{"id": "a", "w": 0.5}, {"id": "b"}]),
    "other key": _document([{"id": "a", "x": 0.5}]),
    "extra key": _document([{"id": "a", "w": 0.5, "z": 1}]),
    "entry not an object": _document([{"id": "a", "w": 0.5}, ["b", 0.5]]),
    "number entry": _document([0.5]),
    "duplicate ids": _document([{"id": "a", "w": 0.5}, {"id": "a", "w": 0.5}]),
    "atoms not a list": '{"atoms": {"id": "a", "w": 0.5}}',
    "not an object": "[]",
}


@pytest.mark.parametrize("text", JSON_DATA.values(), ids=JSON_DATA.keys())
def test_json_column_pass_matches_loop(text):
    data = json.loads(text)
    assert outcome(_json_columns, data) == outcome(json_columns_loop, data)


@pytest.mark.parametrize("data", (
    {"atoms": [OrderedDict(id="a", w=0.5)]},
    {"atoms": [{"id": "a", "w": np.float64(0.5)}, {"id": "b", "w": np.float64(-0.0)}]},
    {"atoms": [{"id": "a", "w": float("nan")}]},
    {"atoms": [{"id": "a", "w": 0.5}, {"id": "b", "w": np.nan}]},
    {"atoms": [{"id": np.str_("a"), "w": 0.5}]},
), ids=("ordered dict", "numpy floats", "nan", "numpy nan", "numpy str"))
def test_json_column_pass_matches_loop_on_python_data(data):
    assert outcome(_json_columns, data) == outcome(json_columns_loop, data)


_JSON_IDS = st.one_of(st.sampled_from(["a", "b", " c"]), st.integers(), st.none())
_JSON_WEIGHTS = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.just("1"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.fixed_dictionaries({"id": _JSON_IDS, "w": _JSON_WEIGHTS}),
    st.dictionaries(st.sampled_from(["id", "w", "x"]), _JSON_WEIGHTS, max_size=3),
), max_size=6))
def test_json_column_pass_matches_loop_on_generated_entries(entries):
    data = {"atoms": entries}
    assert outcome(_json_columns, data) == outcome(json_columns_loop, data)


def test_seeded_files_match_the_loops(tmp_path):
    rng = np.random.default_rng(20111)
    n = 10_000
    weights = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
    weights[:4] = [-0.0, 0.0, 5e-324, -5e-324]
    atoms = [f"a{i}" for i in rng.permutation(n)]
    atoms[:3] = [" x y ", "\tz", "\u00e9t\u00e9\u00a0"]
    rows = "".join(f"{a},{w!r}\n" for a, w in zip(atoms, weights))
    texts = {"m.csv": "id,w\n" + rows,
             "m.json": _document([{"id": a, "w": w} for a, w in zip(atoms, weights)])}
    for name, text in texts.items():
        loop = csv_columns_loop(text) if name == "m.csv" else json_columns_loop(json.loads(text))
        m = read_signed_measure(write(tmp_path, name, text))
        assert m.atoms == tuple(loop[0])
        assert m.weights.tobytes() == np.array(loop[1]).tobytes()
    assert outcome(_csv_columns, texts["m.csv"]) == outcome(csv_columns_loop, texts["m.csv"])
