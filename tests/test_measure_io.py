"""Measure file formats: JSON atoms documents and two-column CSV."""

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
