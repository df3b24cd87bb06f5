"""Evaluation of f-divergences between finite probability measures.

The divergence of mu from nu under a generator f is
sum_i nu_i * f(mu_i / nu_i) over atoms with nu_i > 0, with the
conventions 0 * f(0/0) := 0 (atoms where both measures vanish carry no
mass against nu) and f(0) := the generator's stored limit at 0+.  The
result lives in [0, inf]; it is +inf when a term is, and also when a
ratio mu_i / nu_i overflows past the largest float (numpy then warns), so a
finite divergence can read +inf.  Pairs violating absolute continuity
(mu_i > 0 where nu_i = 0) raise instead of being assigned a value.

Terms are added with compensated (exact) summation, so test tolerances
can be taken at the 1e-12 scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .generator import Generator, builtin
from .measure import ProbabilityMeasure, _carrier, align

_NONNEG_CLAMP = 1e-12


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence result: a value in [0, inf] plus the generator name."""

    value: float
    generator_name: str

    def __float__(self) -> float:
        return self.value

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def density_ratio(
    mu: ProbabilityMeasure, nu: ProbabilityMeasure
) -> list[tuple[str, float]]:
    """Elementwise density dmu/dnu on the atoms that carry nu-mass.

    Atoms where both measures vanish are omitted; they contribute nothing
    to any integral against nu.  Raises when mu puts mass where nu does
    not.
    """
    ids, a, b = align(mu, nu)
    carrier = _carrier(ids, a, b)
    ratios = (a[carrier] / b[carrier]).tolist()
    return [(ids[i], r) for i, r in zip(np.flatnonzero(carrier).tolist(), ratios)]


def _divergence_rows(f: Generator, a: np.ndarray, b: np.ndarray):
    """Exact sum of b_i * f(a_i / b_i) where b_i > 0, plus a_i * f.slope_at_inf where a_i > 0 = b_i.

    A conjugate sums its base generator's terms of the swapped pair, so
    it equals the base divergence with the arguments swapped, bit for bit.
    Takes one aligned pair as 1-D arrays, giving a float, or one aligned
    pair per row of 2-D arrays, giving an array of row sums.  Sums within
    roundoff below zero, in [-1e-12, 0), are clamped to 0.  Terms +inf and
    -inf in one row, which only a non-convex or mis-declared generator
    gives, raise ``DomainError``, except in a block of two-atom rows,
    whose two-term sum gives NaN for them.
    """
    name = f.name
    if f.base is not None:
        f, a, b = f.base, b, a
    vector = b.ndim == 1
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    carrier = b > 0.0
    nw = b[carrier]
    rows = np.zeros(b.shape)
    rows[carrier] = nw * f.eval_array(a[carrier] / nw)
    if nw.size < b.size and (outside := (a > 0.0) & ~carrier).any():
        rows[outside] = a[outside] * f.slope_at_inf
    if b.shape[1] == 2 and not vector:
        # a correctly rounded two-term sum equals fsum's except where fsum raises (inf - inf,
        # overflow), so only blocks take it; adding 0.0 turns -0.0 into fsum's +0.0
        sums = rows[:, 0] + rows[:, 1] + 0.0
    else:
        try:
            sums = np.array([math.fsum(row) for row in rows.tolist()])
        except ValueError:  # fsum's "-inf + inf"
            raise DomainError(f"generator {name!r} gives terms +inf and -inf, "
                              "whose sum is undefined") from None
    sums[(-_NONNEG_CLAMP <= sums) & (sums < 0.0)] = 0.0
    return float(sums[0]) if vector else sums


def d_f(f: Generator, mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> DivergenceValue:
    """The f-divergence sum_i nu_i * f(mu_i / nu_i).

    Requires mu absolutely continuous with respect to nu.  Results within
    roundoff below zero are clamped to 0.
    """
    ids, a, b = align(mu, nu)
    _carrier(ids, a, b)
    return DivergenceValue(_divergence_rows(f, a, b), f.name)


def kl(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> DivergenceValue:
    """Kullback-Leibler divergence of mu from nu, in nats."""
    return d_f(builtin("KL"), mu, nu)


def sh(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> DivergenceValue:
    """Reverse Kullback-Leibler divergence: sh(mu, nu) = kl(nu, mu)."""
    return d_f(builtin("SH"), mu, nu)


def hellinger(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> DivergenceValue:
    """Squared Hellinger divergence sum_i (sqrt(mu_i) - sqrt(nu_i))^2."""
    return d_f(builtin("HE"), mu, nu)


def pearson(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> DivergenceValue:
    """Pearson chi-square divergence sum_i (mu_i - nu_i)^2 / nu_i."""
    return d_f(builtin("PE"), mu, nu)


def tv(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> DivergenceValue:
    """Total variation expressed as an f-divergence; equals the L1 distance."""
    return d_f(builtin("TV"), mu, nu)
