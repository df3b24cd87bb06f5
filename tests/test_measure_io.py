"""Measure file formats: JSON atoms documents and two-column CSV."""

import numpy as np
import pytest

from divbound import (
    InvalidMeasure,
    MeasureFormatError,
    ProbabilityMeasure,
    SignedMeasure,
    read_probability_measure,
    read_signed_measure,
)


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
