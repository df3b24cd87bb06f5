"""Lower bounds on f-divergences in terms of total variation, and their inversion.

For every generator f and every pair of probability measures,

    phi(TV(mu, nu) / 2) <= D_f(mu, nu),    phi(t) = f(1 + t) + f(1 - t).

``lower_bound`` is the one place this floor is computed, for a TV value
or an array of them in one elementwise pass.  phi is convex, vanishes
at 0, and is nondecreasing on [0, 1]; it is strictly increasing when f
has a separation coefficient.  Inverting the inequality at an observed
divergence value therefore yields a certified upper bound on the total
variation: the supremum of the phi sub-level set.  For the built-ins and
their duals, floors and certificates come from one table of bound
functions written in t, each with its inverse and a stated ULP error
bound: a floor is the function by numpy, lowered by that bound, so it
never lies above phi; a certificate is the inverse rounded up and
confirmed by one evaluation by ``math``, so it lies a few ULPs above the
supremum and never below.  Custom generators take phi as rounded
(bisection with scalar ``phi``).  Only the array functions import numpy.
Two closed forms come as well: Bretagnolle-Huber, whose tight value is
the table's reverse-KL row, and a piecewise Hellinger bound that drops
one phi term, so it is never tighter than ``invert``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, NonMonotoneGenerator, _count
from .extreal import UP, encode_extended, parse_extended
from .generator import Generator, is_builtin

if TYPE_CHECKING:
    import numpy as np

METHOD_NUMERIC = "numeric-inversion"
METHOD_BRETAGNOLLE_HUBER = "bretagnolle-huber"
METHOD_HELLINGER = "hellinger-closed-form"
_METHODS = (METHOD_NUMERIC, METHOD_BRETAGNOLLE_HUBER, METHOD_HELLINGER)

# bracket width on the TV scale at which bisection stops
_BISECTION_TOL = 1e-10
_MONOTONE_GRID = 1001


def phi(f: Generator, t: float) -> float:
    """The bound function f(1 + t) + f(1 - t) for t in [0, 1]; +inf propagates."""
    t = float(t)
    if math.isnan(t) or t < 0.0 or t > 1.0:
        raise DomainError(f"phi is defined for t in [0, 1], got {t!r}")
    return f(1.0 + t) + f(1.0 - t)


def _phi_array(f: Generator, t: np.ndarray) -> np.ndarray:
    return f.eval_array(1.0 + t) + f.eval_array(1.0 - t)


@dataclass(frozen=True)
class TvCertificate:
    """A certified upper bound on total variation implied by a divergence value.

    Soundness: every pair of probability measures whose divergence is at
    most ``divergence_value`` has total variation at most
    ``tv_upper_bound``.
    """

    divergence_name: str
    divergence_value: float
    tv_upper_bound: float
    method: str

    def __post_init__(self) -> None:
        if not self.divergence_value >= 0.0:
            raise DomainError(f"divergence values are nonnegative, got {self.divergence_value!r}")
        if not 0.0 <= self.tv_upper_bound <= 2.0:
            raise DomainError(f"tv_upper_bound must lie in [0, 2], got {self.tv_upper_bound!r}")
        if self.method not in _METHODS:
            raise DomainError(f"unknown certificate method {self.method!r}")

    def to_json_dict(self, precision: int | None = None) -> dict:
        """JSON fields; with a precision the bound prints rounded up."""
        return {
            "divergence": self.divergence_name,
            "value": encode_extended(self.divergence_value, precision),
            "tv_upper_bound": encode_extended(self.tv_upper_bound, precision, UP),
            "method": self.method,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "TvCertificate":
        if not isinstance(data, dict):
            raise DomainError("certificate must be a JSON object")
        try:
            name, method = data["divergence"], data["method"]
            value, tv_ub = parse_extended(data["value"]), parse_extended(data["tv_upper_bound"])
        except KeyError as exc:
            raise DomainError(f"certificate is missing field {exc}") from None
        except ValueError as exc:
            raise DomainError(f"certificate field is not a number: {exc}") from None
        return cls(str(name), value, tv_ub, str(method))


_new = object.__new__  # a TvCertificate with no fields yet, for invert's table path


def lower_bound(f: Generator, tv: float | np.ndarray) -> float | np.ndarray:
    """Divergence floor phi(tv / 2) implied by a total variation value, or by an array of them.

    Every pair at total variation ``tv`` has divergence at least this.
    Values up to 2 + 2e-9, which ``tv_distance`` reaches on disjoint
    measures that each sum to 1 within their 1e-9 tolerance, count as 2.
    A float gives a float; an array gives one floor per entry, equal to the float's bit for bit.
    A built-in or a dual takes its table row's formula, by numpy, lowered by the row's error
    bound (phi(1) rounded down at tv = 2), so no floor lies above the exact one while numpy's
    log and log1p err by at most one ULP; below t = 2**-451, where t*t could underflow, it is 0.
    A custom generator's floor is f(1 + t) + f(1 - t) as rounded, not certified below about
    tv = 1e-8, and +0.0 where that is at or below 0, as phi >= 2 f(1) = 0 for a convex f.
    """
    import numpy as np

    from .measure import PROBABILITY_SUM_TOL

    tv = np.asarray(tv, dtype=np.float64)
    if (bad := ~((tv >= 0.0) & (tv <= 2.0 + 2.0 * PROBABILITY_SUM_TOL))).any():
        raise DomainError(f"total variation lies in [0, 2], got {float(tv[bad][0])!r}")
    t = np.minimum(tv, 2.0) / 2.0
    if (row := f._bound_row) is None:
        floors = _phi_array(f, t)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):  # at t = 1, where phi1 is taken
            floors = row.low(t, np)
            if row.high is not None:
                floors = np.where(t < row.split, floors, row.high(t, np))
        floors = np.where(t < 1.0, floors * row.down, row.phi1)
    floors = np.where((floors <= 0.0) | (t < 2.0**-451), 0.0, floors)
    return floors if floors.ndim else float(floors)


def check_monotone(f: Generator, grid_size: int) -> bool:
    """Grid-check that phi is nondecreasing on [0, 1] (within 1e-12).

    When the generator has a separation coefficient the check is strict:
    consecutive grid values must increase by more than 1e-12; two
    consecutive infinite values pass only the plain check.
    """
    import numpy as np

    grid_size = _count("grid_size", grid_size, 2, sys.maxsize // 8)  # float64 values numpy can hold
    values = _phi_array(f, np.arange(grid_size) / (grid_size - 1.0))
    previous, current = values[:-1], values[1:]
    both_inf = np.isinf(previous) & np.isinf(current)
    with np.errstate(invalid="ignore"):
        falls = current < previous - 1e-12
        if f.separation_coefficient is None:
            return not np.any(falls & ~both_inf)
        return not np.any(both_inf | falls | ~(current - previous > 1e-12))


# The table of built-in bound functions, written in t so that no 1 +- t is rounded, each taking
# t and m: math for a float, numpy for an array.  Errors are relative, for t >= 2**-451 (no
# underflow), in u = 2**-53: +, -, *, / and sqrt err by u, log, log1p and expm1 by one ULP, 2u.


def _pe_phi(t, m):
    """2t**2 rounded down: Dekker's product (Veltkamp's split, no fma) gives t*t's error."""
    p, c = t * t, 134217729.0 * t  # 2**27 + 1
    hi = c - (c - t)
    lo = t - hi
    below = lo * lo - ((p - hi * hi) - 2.0 * hi * lo) < 0.0  # t**2 < p: one ULP down
    return 2.0 * (p - (p - m.nextafter(p, 0.0)) * below)


def _he_phi(t, m):
    # 4 - 2(sqrt(1 + t) + sqrt(1 - t)) without cancellation: s errs by 2u, 1 + s by 2u,
    # 2 + sqrt(2 + 2s) by 1.75u, their product by 4.75u, 4t*t and the quotient by u: 6.75u
    s = m.sqrt((1.0 - t) * (1.0 + t))
    return 4.0 * t * t / ((1.0 + s) * (2.0 + m.sqrt(2.0 + 2.0 * s)))


_KL_SERIES = tuple(1.0 / (k * (2 * k - 1)) for k in range(25, 0, -1))


# below 0.5, sum w**k / (k(2k - 1)) with w = t*t <= 1/4: term k takes at most 3k + 1
# roundings, 4.4u in all, and the terms past the 25th add under 0.01u.  From 0.5 on, the
# products err by 4u and 3u and are at most 2.33 and 1.33 times phi: 14.3u
def _kl_low(t, m):
    w, p = t * t, 0.0
    for c in _KL_SERIES:  # in place once p is an array
        p *= w
        p += c
    return p * w


def _kl_inverse(d: float) -> float:
    # Newton's method on the convex phi: below d = 0.26 from phi's series in w = t**2 reverted
    # to d**5 (within 1e-6), else from t**2 + t**4 / 6 = d, right of the root as phi is above
    # that quartic.  Below 0.5 phi is t phi' + log1p(-t*t), which cancels
    # 3-fold at most; as phi'' = 2 / (1 - t**2), a step leaves about step**2 / ((1 - t**2) phi')
    w = (d * (1.0 - d * (1 / 6 + d * (1 / 90 + d * (5 / 1512 + d * 143 / 113400)))) if d < 0.26
         else 2.0 * d / (1.0 + math.sqrt(1.0 + d / 1.5)))
    log1p, cap = math.log1p, 1.0 - 2.0**-53  # bound once for the loop; t stays at most cap < 1
    t = math.sqrt(w)
    if t > cap:
        t = cap
    for _ in range(50):
        up, down = log1p(t), log1p(-t)
        slope = up - down
        phi = (1.0 + t) * up + (1.0 - t) * down if t >= 0.5 else t * slope + log1p(-t * t)
        step = (phi - d) / slope
        t -= step
        if t > cap:  # a start left of a root next to 1 may overshoot
            t = cap
        if step * step <= 2.0**-53 * t * (1.0 - t) * (1.0 + t) * slope:
            break
    return t


@dataclass
class _Row:
    low: Callable  # phi(t) = f(1 + t) + f(1 - t) for t < split, with m = math or numpy
    inverse: Callable[[float], float]  # t with phi(t) = d, 2**-900 <= d < phi1, within 2 ULPs
    phi1: float  # phi(1), rounded down
    ulps: int  # low and high exceed phi by at most ulps * 2u on [0, 1); 0: never
    k: float | None  # phi(t) >= 4t**2 / k on [0, 1]; None for TV, whose phi is 2t
    split: float = math.inf
    high: Callable | None = None  # phi(t) for split <= t < 1
    up: float = field(init=False)  # raises the inverse by ulps * 2u
    down: float = field(init=False)  # phi_t * down <= phi

    def __post_init__(self) -> None:
        self.up = 1.0 + self.ulps * 2.0**-52
        self.down = 1.0 - (2 * self.ulps + 1) * 2.0**-53 if self.ulps else 1.0

    def phi_t(self, t: float) -> float:
        """The row's phi at a float t in [0, 1), by math."""
        return (self.low if t < self.split else self.high)(t, math)


_TV = _Row(lambda t, m: 2.0 * t, lambda d: 0.5 * d, 2.0, 0, None)
_KL = _Row(_kl_low, _kl_inverse, 1.3862943611198906, 8, 4.0,
           0.5, lambda t, m: (1.0 + t) * m.log1p(t) + (1.0 - t) * m.log1p(-t))
# below 0.7, t*t's u times log1p's condition number 1.43, plus 2u; from 0.7 on, the
# product's 2u (1 - t is exact) times log's condition number 1.49, plus 2u: 4.97u
_SH = _Row(lambda t, m: -m.log1p(-t * t), lambda d: math.sqrt(-math.expm1(-d)), math.inf, 3, 4.0,
           0.7, lambda t, m: -m.log((1.0 - t) * (1.0 + t)))
_HE = _Row(_he_phi, lambda d: (4.0 - d) * math.sqrt(d * (8.0 - d)) / 8.0, 1.1715728752538097,
           4, 8.0)
# keyed on a built-in's name, with "*" for its dual; dual(PE) is Neyman's chi-square, where
# t*t, 1 - t, 1 + t, their product and the quotient err by u each: 5u
_ROWS = {"TV": _TV, "TV*": _TV, "HE": _HE, "HE*": _HE, "KL": _KL, "SH*": _KL, "SH": _SH,
         "KL*": _SH, "PE": _Row(_pe_phi, lambda d: math.sqrt(0.5 * d), 2.0, 0, 2.0),
         "PE*": _Row(lambda t, m: 2.0 * t * t / ((1.0 - t) * (1.0 + t)),
                     lambda d: math.sqrt(d / (2.0 + d)), math.inf, 3, 2.0)}


def _table_row(f: Generator) -> _Row | None:
    if is_builtin(f):
        return _ROWS[f.name]
    return _ROWS[f.base.name + "*"] if f.base is not None and is_builtin(f.base) else None


def _certify(row: _Row, d: float) -> float:
    """The TV bound a row certifies at d >= 0: its inverse rounded up, then confirmed.

    The row's phi by ``math``, lowered by its error bound, must reach d
    at t, which proves that phi does and so that the supremum is at most
    2t; a failed check moves t up one ULP, at most 8 times.  Below
    2**-900, where t*t could underflow and void the error bounds, or
    should every check fail, phi(t) >= 4t**2 / k gives sqrt(k d), rounded up.
    """
    if d >= row.phi1:
        return 2.0
    if d == 0.0:
        return 0.0
    if d >= 2.0**-900:
        t = row.inverse(d) * row.up
        for _ in range(8):
            if t >= 1.0:
                return 2.0
            if row.phi_t(t) * row.down >= d:
                return 2.0 * t
            t = math.nextafter(t, 2.0)
    return d if row.k is None else min(math.nextafter(math.sqrt(row.k * d), 2.0), 2.0)


def invert(f: Generator, d: float) -> TvCertificate:
    """Certified total variation upper bound from a divergence value.

    Returns the supremum of {tv in [0, 2] : phi(tv/2) <= d}, rounded up so
    the certificate never undershoots it: 2 for d >= phi(1), +inf
    included, and 0 for d in [-1e-12, 0], as roundoff of 0; NaN and d
    below -1e-12 raise ``DomainError``, as in the closed forms.  A built-in
    or a dual takes its row of the table: the closed-form inverse (Newton's
    method for KL), raised by the row's ULPs and confirmed by one
    evaluation of phi lowered by its error bound, lies a few ULPs above the
    supremum, on it for TV, and at the least float above it for PE.

    Custom generators bisect to bracket width 1e-10 on the TV scale and
    report the upper end.  They are grid-checked for monotonicity first,
    once per generator object, since a non-convex function would make the
    sub-level set meaningless; one that fails raises
    ``NonMonotoneGenerator`` on every call.
    """
    d = _divergence(d)
    row = f._bound_row
    if row is not None:
        # TvCertificate(f.name, d, tv, METHOD_NUMERIC) without the class call: of __post_init__'s
        # checks, d >= 0 and the method hold by construction, and the bound's is kept here.
        # The fields go in in the dataclass's field order, as item stores
        tv = _certify(row, d)
        if not 0.0 <= tv <= 2.0:
            raise DomainError(f"tv_upper_bound must lie in [0, 2], got {tv!r}")
        cert = _new(TvCertificate)
        fields = cert.__dict__
        fields["divergence_name"], fields["divergence_value"] = f.name, d
        fields["tv_upper_bound"], fields["method"] = tv, METHOD_NUMERIC
        return cert
    if not f._phi_monotone:
        raise NonMonotoneGenerator(
            f"bound function of generator {f.name!r} is not nondecreasing on [0, 1]"
        )
    if phi(f, 1.0) <= d:
        return TvCertificate(f.name, d, 2.0, METHOD_NUMERIC)
    lo, hi = 0.0, 1.0
    while 2.0 * (hi - lo) > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if phi(f, mid) <= d:
            lo = mid
        else:
            hi = mid
    return TvCertificate(f.name, d, 2.0 * hi, METHOD_NUMERIC)


def _divergence(d: float) -> float:
    """float(d) by invert's rule: NaN and values below -1e-12 raise, the rest up to 0 give +0.0."""
    if not (d := float(d)) >= -1e-12:  # nan included
        raise DomainError(f"divergence values are nonnegative, got {d!r}")
    return d if d > 0.0 else 0.0


def bretagnolle_huber(sh: float) -> tuple[float, float]:
    """Bretagnolle-Huber bounds on total variation from a reverse-KL value.

    Returns ``(tight, loose)``: 2*sqrt(1 - exp(-sh)), the inversion of
    phi(t) = -log(1 - t^2), from the SH row of ``invert``, and 2*sqrt(sh)
    raised by one ULP.  Both are capped at 2, never below the exact
    values, and tight <= loose always.
    """
    return _bretagnolle_huber(_divergence(sh))


def _bretagnolle_huber(sh: float) -> tuple[float, float]:
    loose = min(math.nextafter(2.0 * math.sqrt(sh), 2.0), 2.0) if sh else 0.0
    return min(_certify(_ROWS["SH"], sh), loose), loose


def bretagnolle_huber_certificate(sh: float) -> TvCertificate:
    """The tight Bretagnolle-Huber bound packaged as a certificate."""
    sh = _divergence(sh)
    return TvCertificate("SH", sh, _bretagnolle_huber(sh)[0], METHOD_BRETAGNOLLE_HUBER)


def hellinger_bound(he: float) -> float:
    """Piecewise closed-form bound: 2 - 2*(1 - sqrt(he))^2 below 1, else 2.

    Derived by discarding the f(1 + t) term of phi for the Hellinger
    generator, so it is valid but never tighter than ``invert``.
    """
    return hellinger_certificate(he).tv_upper_bound


def hellinger_certificate(he: float) -> TvCertificate:
    """The closed-form Hellinger bound packaged as a certificate."""
    he = _divergence(he)
    return TvCertificate("HE", he, 2.0 - 2.0 * (1.0 - math.sqrt(he)) ** 2 if he < 1.0 else 2.0,
                         METHOD_HELLINGER)
