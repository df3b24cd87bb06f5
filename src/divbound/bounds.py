"""Lower bounds on f-divergences in terms of total variation, and their inversion.

For every generator f and every pair of probability measures,

    phi(TV(mu, nu) / 2) <= D_f(mu, nu),    phi(t) = f(1 + t) + f(1 - t).

``lower_bound`` is the one place this floor is computed, for a TV value
or an array of them in one elementwise pass.  phi is convex, vanishes
at 0, and is nondecreasing on [0, 1]; it is strictly increasing when f
has a separation coefficient.  Inverting the inequality at an observed
divergence value therefore yields a certified upper bound on the total
variation: the supremum of the phi sub-level set, found by bisection
with scalar ``phi``, which rounds as the array path does, bit for bit.
Two closed forms come as well: the Bretagnolle-Huber bound, exactly the
inversion of phi for the reverse-KL generator, and a piecewise Hellinger
bound that drops one phi term, so it is never tighter than the numeric
inversion.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonMonotoneGenerator
from .extreal import UP, encode_extended, parse_extended
from .generator import Generator, is_builtin
from .measure import PROBABILITY_SUM_TOL

METHOD_NUMERIC = "numeric-inversion"
METHOD_BRETAGNOLLE_HUBER = "bretagnolle-huber"
METHOD_HELLINGER = "hellinger-closed-form"
_METHODS = (METHOD_NUMERIC, METHOD_BRETAGNOLLE_HUBER, METHOD_HELLINGER)

# bracket width on the TV scale at which bisection stops
_BISECTION_TOL = 1e-10
_MONOTONE_GRID = 1001
# id(generator) -> check_monotone verdict; an entry goes when its generator does
_MONOTONE: dict[int, bool] = {}


def phi(f: Generator, t: float) -> float:
    """The bound function f(1 + t) + f(1 - t) for t in [0, 1]; +inf propagates."""
    t = float(t)
    if math.isnan(t) or t < 0.0 or t > 1.0:
        raise DomainError(f"phi is defined for t in [0, 1], got {t!r}")
    return f(1.0 + t) + f(1.0 - t)


def _phi_array(f: Generator, t: np.ndarray) -> np.ndarray:
    return f.eval_array(1.0 + t) + f.eval_array(1.0 - t)


@dataclass(frozen=True)
class BoundFunction:
    """phi for a fixed generator, as a callable on [0, 1]."""

    generator: Generator

    def __call__(self, t: float) -> float:
        return phi(self.generator, t)


@dataclass(frozen=True)
class TvCertificate:
    """A certified upper bound on total variation implied by a divergence value.

    Soundness: every pair of probability measures whose divergence is at
    most ``divergence_value`` has total variation at most
    ``tv_upper_bound`` (up to the bisection tolerance 1e-10 for the
    numeric method).
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


def lower_bound(f: Generator, tv: float | np.ndarray) -> float | np.ndarray:
    """Divergence floor phi(tv / 2) implied by a total variation value, or by an array of them.

    Every pair at total variation ``tv`` has divergence at least this.
    Values up to 2 + 2e-9, which ``tv_distance`` reaches on disjoint
    measures that each sum to 1 within their 1e-9 tolerance, count as 2.
    A float gives a float; an array gives one floor per entry, equal to the float's bit for bit.
    """
    tv = np.asarray(tv, dtype=np.float64)
    if (bad := ~((tv >= 0.0) & (tv <= 2.0 + 2.0 * PROBABILITY_SUM_TOL))).any():
        raise DomainError(f"total variation lies in [0, 2], got {float(tv[bad][0])!r}")
    floors = _phi_array(f, np.minimum(tv, 2.0) / 2.0)
    return floors if floors.ndim else float(floors)


def check_monotone(f: Generator, grid_size: int) -> bool:
    """Grid-check that phi is nondecreasing on [0, 1] (within 1e-12).

    When the generator has a separation coefficient the check is strict:
    consecutive grid values must increase by more than 1e-12; two
    consecutive infinite values pass only the plain check.
    """
    grid_size = int(grid_size)
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    values = _phi_array(f, np.arange(grid_size) / (grid_size - 1.0))
    previous, current = values[:-1], values[1:]
    both_inf = np.isinf(previous) & np.isinf(current)
    with np.errstate(invalid="ignore"):
        falls = current < previous - 1e-12
        if f.separation_coefficient is None:
            return not np.any(falls & ~both_inf)
        return not np.any(both_inf | falls | ~(current - previous > 1e-12))


def _kl_seed(d: float) -> float:
    """Newton's method on (1+t)log1p(t) + (1-t)log1p(-t) = d, which has no closed form.

    The start sqrt(d) lies right of the root (phi >= t**2) and phi is
    convex, so the iterates fall monotonically onto it.  Below 1e-6 the
    derivative vanishes and sqrt(d) is already within d**1.5 / 12.
    """
    t = math.sqrt(d)
    if t < 1e-6:
        return t
    t = min(t, 1.0 - 2.0**-53)
    for _ in range(50):
        step = ((1.0 + t) * math.log1p(t) + (1.0 - t) * math.log1p(-t) - d) / (
            math.log1p(t) - math.log1p(-t))
        t -= step
        if abs(step) <= 2.0**-44:
            break
    return t


# the t in [0, 1] with phi(t) = d, for d below phi(1): phi is 2t (TV), 2t**2 (PE),
# -log(1 - t**2) (SH), and 4 - 2(sqrt(1+t) + sqrt(1-t)) (HE), solved without cancellation
_SEEDS = {
    "TV": lambda d: d / 2.0,
    "PE": lambda d: math.sqrt(d / 2.0),
    "SH": lambda d: math.sqrt(-math.expm1(-d)),
    "HE": lambda d: (4.0 - d) * math.sqrt(d * (8.0 - d)) / 8.0,
    "KL": _kl_seed,
}


def _seed_window(f: Generator, d: float) -> tuple[float, float]:
    """Ends below and above which every bisection midpoint compares as the end does.

    The window [seed - m, seed + m] is wider than the seed's error
    (about 1e-15 relative) and than the band where floating-point phi
    rounds across d (about 2**-52 / t wide, where f(1 + t) loses the low
    bits of t) by a factor of at least 2**10.  An end that passes its
    check therefore lies outside that band, and floating-point phi stays
    on that end's side of d at every midpoint beyond it.  An end that
    fails its check, or leaves (0, 1), is not used.
    """
    t = _SEEDS[f.name](d)
    m = 2.0**-32 if t == 0.0 or t >= 2.0**-8 else 2.0**-40 / t
    below, above = t - m, t + m
    if not (below > 0.0 and phi(f, below) <= d):
        below = -math.inf
    if not (above < 1.0 and phi(f, above) > d):
        above = math.inf
    return below, above


def _is_monotone(f: Generator) -> bool:
    """check_monotone on the invert grid, run once per generator object."""
    verdict = _MONOTONE.get(id(f))
    if verdict is None:
        verdict = _MONOTONE[id(f)] = check_monotone(f, _MONOTONE_GRID)
        weakref.finalize(f, _MONOTONE.pop, id(f), None)
    return verdict


def invert(f: Generator, d: float) -> TvCertificate:
    """Certified total variation upper bound from a divergence value.

    Returns the supremum of {tv in [0, 2] : phi(tv/2) <= d}, located by
    bisection to absolute tolerance 1e-10 on the TV scale; the upper end
    of the final bracket is reported, so the certificate never
    undershoots the true supremum.  A divergence of at least phi(1),
    including +inf, certifies nothing better than the trivial bound 2.

    For a built-in generator a seed (closed form, or Newton's method for
    KL) brackets the answer in a narrow window; phi is evaluated at the
    window's ends, and the midpoints beyond an end that passes its check
    are decided without evaluating phi.  The midpoints, the comparisons
    and so the certificate are exactly those of plain bisection.

    Custom generators bisect without a seed.  They are grid-checked for
    monotonicity first, since a non-convex function would make the
    sub-level set meaningless; the verdict is computed once per generator
    object, and a generator that fails raises ``NonMonotoneGenerator`` on
    every call.
    """
    d = float(d)
    if math.isnan(d) or d < -1e-12:
        raise DomainError(f"divergence values are nonnegative, got {d!r}")
    d = max(d, 0.0)
    seeded = is_builtin(f)
    if not seeded and not _is_monotone(f):
        raise NonMonotoneGenerator(
            f"bound function of generator {f.name!r} is not nondecreasing on [0, 1]"
        )
    if phi(f, 1.0) <= d:
        return TvCertificate(f.name, d, 2.0, METHOD_NUMERIC)
    below, above = _seed_window(f, d) if seeded else (-math.inf, math.inf)
    lo, hi = 0.0, 1.0
    while 2.0 * (hi - lo) > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and phi(f, mid) <= d):
            lo = mid
        else:
            hi = mid
    return TvCertificate(f.name, d, 2.0 * hi, METHOD_NUMERIC)


def bretagnolle_huber(sh: float) -> tuple[float, float]:
    """Bretagnolle-Huber bounds on total variation from a reverse-KL value.

    Returns ``(tight, loose)`` with tight = 2*sqrt(1 - exp(-sh)) and
    loose = 2*sqrt(sh), both capped at 2; tight <= loose always.  The
    tight form is exactly the closed-form inversion of
    phi(t) = -log(1 - t^2).  Both are raised by one ULP, except at 0
    and at the cap, so float64 roundoff never leaves them below the
    exact values.
    """
    sh = float(sh)
    if math.isnan(sh) or sh < 0.0:
        raise DomainError(f"divergence values are nonnegative, got {sh!r}")
    tight, loose = 2.0 * math.sqrt(-math.expm1(-sh)), 2.0 * math.sqrt(sh)
    return tuple(math.nextafter(x, 2.0) if 0.0 < x < 2.0 else min(x, 2.0) for x in (tight, loose))


def bretagnolle_huber_certificate(sh: float) -> TvCertificate:
    """The tight Bretagnolle-Huber bound packaged as a certificate."""
    tight, _ = bretagnolle_huber(sh)
    return TvCertificate("SH", float(sh), tight, METHOD_BRETAGNOLLE_HUBER)


def hellinger_bound(he: float) -> float:
    """Piecewise closed-form bound: 2 - 2*(1 - sqrt(he))^2 below 1, else 2.

    Derived by discarding the f(1 + t) term of phi for the Hellinger
    generator, so it is valid but never tighter than ``invert``.
    """
    he = float(he)
    if math.isnan(he) or he < 0.0:
        raise DomainError(f"divergence values are nonnegative, got {he!r}")
    if he < 1.0:
        return 2.0 - 2.0 * (1.0 - math.sqrt(he)) ** 2
    return 2.0


def hellinger_certificate(he: float) -> TvCertificate:
    """The closed-form Hellinger bound packaged as a certificate."""
    return TvCertificate("HE", float(he), hellinger_bound(he), METHOD_HELLINGER)
