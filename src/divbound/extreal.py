"""Extended nonnegative reals: plain floats plus ``math.inf``.

Divergences and bound functions take values in [0, inf].  IEEE doubles
already provide the required ordering (every finite value < inf) and
arithmetic (finite + inf = inf), so no wrapper type is used.  The
canonical textual form of positive infinity is ``"inf"`` in every input
and output of this package.
"""

from __future__ import annotations

import math
from decimal import MAX_PREC, ROUND_CEILING, ROUND_FLOOR, Context, Decimal

from .errors import _count

INF = math.inf
UP = ROUND_CEILING
DOWN = ROUND_FLOOR
# the largest precision that both the "%.*g" format (a C int) and decimal.Context accept
MAX_PRECISION = min(2**31 - 1, MAX_PREC)


def is_finite(x: float) -> bool:
    return math.isfinite(x)


def parse_extended(text: str) -> float:
    """Parse a nonnegative extended real from text; ``"inf"`` means +infinity.

    NaN and negative infinity are rejected.  Finite negative numbers are
    returned as-is; domain checks belong to the operation consuming them.
    """
    value = float(str(text).strip())
    if math.isnan(value):
        raise ValueError(f"not a value: {text!r}")
    if value == -INF:
        raise ValueError("negative infinity is not a valid value")
    return value


def _nearest_format(precision: int) -> str:
    precision = _count("precision", precision, 1, MAX_PRECISION)
    return f"%.{precision}g"  # prints one float to nearest, as format_extended does


def format_extended(x: float, precision: int = 9, rounding: str | None = None) -> str:
    """Render a value with the given number of significant digits, or ``"inf"``.

    ``rounding`` is None (to nearest: exactly ``"%.{precision}g" % x`` for
    every float), ``UP`` (for upper bounds) or ``DOWN`` (for floors).  Directed
    rounding keeps the nearest result unless it lies on the wrong side of ``x``.
    """
    x = float(x)
    text = _nearest_format(precision) % x
    if rounding is None or (float(text) >= x if rounding == UP else float(text) <= x):
        return text
    precision = int(precision)  # an integral value that _nearest_format accepted
    d = Context(prec=precision, rounding=rounding).normalize(Decimal(x))
    exp = d.adjusted()
    if -4 <= exp < precision:  # the layout of float's "g" format
        return f"{d:f}"
    return f"{d.scaleb(-exp):f}e{exp:+03d}"


def encode_extended(x: float, precision: int | None = None, rounding: str | None = None):
    """JSON form of a value: ``"inf"``, the exact float, or the float of its printed form."""
    x = float(x)
    if precision is not None:
        x = float(format_extended(x, precision, rounding))  # may round past the largest float
    return format_extended(x) if math.isinf(x) else x
