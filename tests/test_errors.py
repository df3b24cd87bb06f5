"""One rule for integer arguments: every count, seed and precision goes through ``_count``."""

import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from divbound import (
    DomainError,
    builtin,
    check_monotone,
    format_extended,
    invert,
    random_pair,
    scan_binary,
    scan_to_csv,
    tightness_gap,
    verify_bound,
)
from divbound.errors import _count
from divbound.extreal import DOWN, UP, encode_extended

KL = builtin("KL")

# (call, the argument its DomainError names, the refused value): a fractional value is refused,
# not truncated, and inf and nan give DomainError, not OverflowError or a bare ValueError
REFUSED = [
    pytest.param(lambda: verify_bound(KL, 2.7, 8, 0), "trials", 2.7, id="trials-2.7"),
    pytest.param(lambda: verify_bound(KL, 10, 8.5, 1), "max_support", 8.5, id="max_support-8.5"),
    pytest.param(lambda: verify_bound(KL, 10, 8, 1.5), "seed", 1.5, id="verify-seed-1.5"),
    pytest.param(lambda: verify_bound(KL, math.inf, 8, 0), "trials", math.inf, id="trials-inf"),
    pytest.param(lambda: verify_bound(KL, math.nan, 8, 0), "trials", math.nan, id="trials-nan"),
    pytest.param(lambda: verify_bound(KL, 10, 8, None), "seed", None, id="verify-seed-None"),
    pytest.param(lambda: random_pair(2.9, 0), "n", 2.9, id="n-2.9"),
    pytest.param(lambda: random_pair(3, math.inf), "seed", math.inf, id="pair-seed-inf"),
    pytest.param(lambda: random_pair(3, "12"), "seed", "12", id="pair-seed-str"),
    pytest.param(lambda: invert(KL, 0.1).to_json_dict(2.5), "precision", 2.5, id="json-2.5"),
    pytest.param(lambda: scan_binary(KL, 2.5), "resolution", 2.5, id="scan-2.5"),
    pytest.param(lambda: tightness_gap(KL, 0.1, 2.5), "resolution", 2.5, id="gap-2.5"),
    pytest.param(lambda: check_monotone(KL, 2.5), "grid_size", 2.5, id="grid_size-2.5"),
    pytest.param(lambda: format_extended(0.1, math.nan), "precision", math.nan, id="format-nan"),
    pytest.param(lambda: encode_extended(0.1, 9.5, UP), "precision", 9.5, id="encode-9.5"),
]


@pytest.mark.parametrize("call, name, value", REFUSED)
def test_a_non_integer_is_a_domain_error_naming_the_argument(call, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call()


def test_scan_to_csv_refuses_a_fractional_precision_before_writing():
    out = io.StringIO()
    with pytest.raises(DomainError, match=r"^precision must be an integer, got 9\.5$"):
        scan_to_csv(scan_binary(KL, 3), out, 9.5)
    assert out.getvalue() == ""


@pytest.mark.parametrize("value", (7, 7.0, np.int64(7), np.float64(7.0), Fraction(7), True),
                         ids=repr)
def test_integral_values_count_as_ints(value):
    count = _count("x", value, 0, 10)
    assert type(count) is int
    assert count == value


@pytest.mark.parametrize("value", (2.7, -0.5, math.nan, math.inf, -math.inf, None, "7", b"7",
                                   Fraction(5, 2), np.float64(2.5), 7 + 0j, [7]), ids=repr)
def test_the_rest_is_refused_never_truncated(value):
    with pytest.raises(DomainError, match=f"^x must be an integer, got {re.escape(repr(value))}$"):
        _count("x", value, 0, 10)


def test_range_messages_name_the_integer():
    with pytest.raises(DomainError, match="^x must be at least 2$"):
        _count("x", 1.0, 2, 10)
    with pytest.raises(DomainError, match="^x must be at most 10, got 11$"):
        _count("x", 11.0, 2, 10)
    with pytest.raises(DomainError, match=f"^x must be at most 10, got {int(1e300)}$"):
        _count("x", 1e300, 2, 10)  # an integral float far past every int64


def test_integral_values_of_any_type_keep_their_results():
    want = verify_bound(KL, 10000, 8, 7).to_json_dict()
    assert json.dumps(verify_bound(KL, 1e4, 8.0, np.int64(7)).to_json_dict()) == json.dumps(want)
    assert random_pair(np.int64(5), 3.0) == random_pair(5, 3)
    assert scan_binary(KL, np.float64(4.0)) == scan_binary(KL, 4)
    assert tightness_gap(KL, 0.1, 4.0) == tightness_gap(KL, 0.1, 4)
    assert check_monotone(KL, np.int64(100)) is check_monotone(KL, 100) is True
    assert invert(KL, 0.1).to_json_dict(np.int64(4)) == invert(KL, 0.1).to_json_dict(4)
    for x in (0.1, 1 / 3, 12345.678, 5e-324, math.inf):
        for rounding in (None, UP, DOWN):
            want = format_extended(x, 5, rounding)
            assert format_extended(x, 5.0, rounding) == format_extended(x, np.int64(5), rounding) == want


def test_seed_range_is_that_of_the_philox_key():
    assert len(random_pair(2, 2**128 - 1)[0]) == 2
    assert verify_bound(KL, 3, 4, 2**64 - 1).seed == 2**64 - 1
    with pytest.raises(DomainError, match=f"^seed must be at most {2**128 - 1}, got {2**128}$"):
        random_pair(2, 2**128)
    with pytest.raises(DomainError, match="^seed must be at least 0$"):
        random_pair(2, -1)
