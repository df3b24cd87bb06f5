"""Lower bounds on f-divergences in terms of total variation, and their inversion.

For every generator f and every pair of probability measures,

    phi(TV(mu, nu) / 2) <= D_f(mu, nu),    phi(t) = f(1 + t) + f(1 - t).

phi is convex, vanishes at 0, and is nondecreasing on [0, 1]; it is
strictly increasing when f has a separation coefficient.  Inverting the
inequality at an observed divergence value therefore yields a certified
upper bound on the total variation: the supremum of the phi sub-level
set, found by bisection.  Two classical closed forms are provided as
well: the Bretagnolle-Huber bound, which is exactly the inversion of phi
for the reverse-KL generator, and a piecewise Hellinger bound that drops
one phi term and is consequently never tighter than the numeric
inversion.
"""

from __future__ import annotations

import math
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


def lower_bound(f: Generator, tv: float) -> float:
    """Divergence floor implied by a total variation value: phi(tv / 2).

    Every pair at total variation ``tv`` has divergence at least this.
    Values up to 2 + 2e-9, which ``tv_distance`` reaches on disjoint
    measures that each sum to 1 within their 1e-9 tolerance, count as 2.
    """
    tv = float(tv)
    if math.isnan(tv) or tv < 0.0 or tv > 2.0 + 2.0 * PROBABILITY_SUM_TOL:
        raise DomainError(f"total variation lies in [0, 2], got {tv!r}")
    return phi(f, min(tv, 2.0) / 2.0)


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


def invert(f: Generator, d: float) -> TvCertificate:
    """Certified total variation upper bound from a divergence value.

    Returns the supremum of {tv in [0, 2] : phi(tv/2) <= d}, located by
    bisection to absolute tolerance 1e-10 on the TV scale; the upper end
    of the final bracket is reported, so the certificate never
    undershoots the true supremum.  A divergence of at least phi(1),
    including +inf, certifies nothing better than the trivial bound 2.
    Custom generators are grid-checked for monotonicity first, since a
    non-convex function would make the sub-level set meaningless.
    """
    d = float(d)
    if math.isnan(d) or d < -1e-12:
        raise DomainError(f"divergence values are nonnegative, got {d!r}")
    d = max(d, 0.0)
    if not is_builtin(f) and not check_monotone(f, _MONOTONE_GRID):
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
