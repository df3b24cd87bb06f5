"""Extended reals: parsing, and printing with a chosen rounding direction."""

import decimal
import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divbound import DomainError, builtin, scan_binary, scan_to_csv
from divbound.extreal import (
    DOWN,
    MAX_PRECISION,
    UP,
    encode_extended,
    format_extended,
    is_finite,
    parse_extended,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
precisions = st.integers(1, 17)


class TestFormatExtended:
    @given(finite, precisions)
    def test_nearest_is_python_g_format(self, x, precision):
        assert format_extended(x, precision) == f"{x:.{precision}g}"

    @given(finite, precisions)
    def test_directed_rounding_lands_on_its_side(self, x, precision):
        assert float(format_extended(x, precision, UP)) >= x
        assert float(format_extended(x, precision, DOWN)) <= x

    @given(finite, precisions)
    def test_directed_rounding_keeps_a_sound_nearest_result(self, x, precision):
        nearest = f"{x:.{precision}g}"
        if float(nearest) >= x:
            assert format_extended(x, precision, UP) == nearest
        if float(nearest) <= x:
            assert format_extended(x, precision, DOWN) == nearest

    @given(st.floats(-1e300, 1e300), st.integers(1, 15), st.sampled_from([UP, DOWN]))
    def test_directed_text_has_the_g_layout_and_is_idempotent(self, x, precision, rounding):
        text = format_extended(x, precision, rounding)
        assert text == f"{float(text):.{precision}g}"
        assert format_extended(float(text), precision, rounding) == text

    def test_examples(self):
        assert format_extended(0.1996875683685329, 9, UP) == "0.199687569"
        assert format_extended(0.1996875683685329, 9, DOWN) == "0.199687568"
        assert format_extended(1.23456e-7, 3, UP) == "1.24e-07"
        assert format_extended(-1.23456e-7, 3, UP) == "-1.23e-07"
        assert format_extended(123456.0, 3, DOWN) == "1.23e+05"
        assert format_extended(9.9999, 3, UP) == "10"

    def test_infinities(self):
        assert format_extended(math.inf, 3, UP) == "inf"
        assert format_extended(-math.inf) == "-inf"

    @pytest.mark.parametrize("rounding", [None, UP, DOWN])
    def test_infinities_under_every_rounding(self, rounding):
        for precision in range(1, 18):
            assert format_extended(math.inf, precision, rounding) == "inf"
            assert format_extended(-math.inf, precision, rounding) == "-inf"

    @pytest.mark.parametrize("rounding", [None, UP, DOWN])
    def test_nan(self, rounding):
        expected = "nan" if rounding is None else "NaN"
        for precision in range(1, 18):
            assert format_extended(math.nan, precision, rounding) == expected
            assert format_extended(-math.nan, precision, rounding) == expected

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e300, 1e16])
    def test_nearest_is_python_g_format_on_special_values(self, x):
        for precision in range(1, 18):
            assert format_extended(x, precision) == f"{x:.{precision}g}" == "%.*g" % (precision, x)

    @pytest.mark.parametrize("rounding", [None, UP, DOWN])
    @pytest.mark.parametrize("precision", [0, -1, -17])
    def test_precision_below_one_is_a_domain_error(self, rounding, precision):
        for x in (0.123, 0.987, -0.5, 0.0, math.inf):
            with pytest.raises(DomainError, match=f"precision must be at least 1, got {precision}"):
                format_extended(x, precision, rounding)


class TestEncodeExtended:
    def test_exact_without_precision(self):
        assert encode_extended(0.1 + 0.2) == 0.1 + 0.2
        assert encode_extended(0.1 + 0.2, rounding=UP) == 0.1 + 0.2

    def test_rounded_with_precision(self):
        assert encode_extended(0.1996875683685329, 9) == 0.199687568
        assert encode_extended(0.1996875683685329, 9, UP) == 0.199687569

    @pytest.mark.parametrize("precision", [None, 9])
    def test_infinity_is_a_string(self, precision):
        assert encode_extended(math.inf, precision, UP) == "inf"

    def test_rounding_past_the_largest_float_gives_inf(self):
        assert encode_extended(1.7976931348623157e308, 1, UP) == "inf"
        assert encode_extended(-1.7976931348623157e308, 1) == "-inf"

    @pytest.mark.parametrize("rounding", [None, UP, DOWN])
    def test_precision_below_one_is_a_domain_error(self, rounding):
        for precision in (0, -1):
            for x in (0.123, math.inf):
                with pytest.raises(DomainError, match="precision must be at least 1"):
                    encode_extended(x, precision, rounding)


class TestPrecisionLimit:
    def test_limit_is_the_largest_both_formats_accept(self):
        assert MAX_PRECISION == min(2**31 - 1, decimal.MAX_PREC)
        decimal.Context(prec=MAX_PRECISION)
        if MAX_PRECISION == 2**31 - 1:
            with pytest.raises(ValueError, match="precision too big"):
                f"%.{MAX_PRECISION + 1}g" % 0.5

    @pytest.mark.parametrize("rounding", [None, UP, DOWN])
    def test_at_the_limit_prints_exact_digits(self, rounding):
        for x in (0.1, -0.3, 5e-324, 1.7976931348623157e308):
            text = format_extended(x, MAX_PRECISION, rounding)
            assert text == "%.*g" % (MAX_PRECISION, x)
            assert float(text) == x
        assert encode_extended(0.1, MAX_PRECISION, rounding) == 0.1
        assert encode_extended(math.inf, MAX_PRECISION, rounding) == "inf"

    @pytest.mark.parametrize("rounding", [None, UP, DOWN])
    @pytest.mark.parametrize("precision", [MAX_PRECISION + 1, 99999999999])
    def test_above_the_limit_is_a_domain_error(self, rounding, precision):
        message = f"precision must be at most {MAX_PRECISION}, got {precision}"
        for x in (0.123, 0.0, math.inf):
            with pytest.raises(DomainError) as info:
                format_extended(x, precision, rounding)
            assert str(info.value) == message
            with pytest.raises(DomainError) as info:
                encode_extended(x, precision, rounding)
            assert str(info.value) == message

    def test_scan_to_csv_above_the_limit_writes_nothing(self):
        out = io.StringIO()
        with pytest.raises(DomainError, match=f"at most {MAX_PRECISION}"):
            scan_to_csv(scan_binary(builtin("KL"), 3), out, MAX_PRECISION + 1)
        assert out.getvalue() == ""


class TestParseExtended:
    @pytest.mark.parametrize("text, value", [
        ("inf", math.inf), ("INF", math.inf), (" inf ", math.inf), ("+inf", math.inf),
        ("Infinity", math.inf), ("\u2003inf\u2003", math.inf), ("1e999", math.inf),
        ("0", 0.0), ("-0.0", -0.0), (" 2 ", 2.0), ("-1.5", -1.5),
    ])
    def test_values(self, text, value):
        assert math.copysign(1.0, parse_extended(text)) == math.copysign(1.0, value)
        assert parse_extended(text) == value

    @pytest.mark.parametrize("text, message", [
        ("-inf", "negative infinity is not a valid value"),
        ("-Infinity", "negative infinity is not a valid value"),
        ("-1e999", "negative infinity is not a valid value"),
        ("nan", "not a value: 'nan'"), ("NaN", "not a value: 'NaN'"),
        ("", "could not convert string to float: ''"),
        ("infinit", "could not convert string to float: 'infinit'"),
    ])
    def test_rejected(self, text, message):
        with pytest.raises(ValueError) as raised:
            parse_extended(text)
        assert str(raised.value) == message


def test_is_finite():
    assert is_finite(0.0) and is_finite(-1e308) and is_finite(5e-324)
    assert not any(map(is_finite, (math.inf, -math.inf, math.nan)))
