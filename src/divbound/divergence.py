"""Evaluation of f-divergences between finite probability measures.

The divergence of mu from nu under a generator f is
sum_i nu_i * f(mu_i / nu_i) by Liese and Vajda's conventions (IEEE Trans.
IT 52(10), 2006): 0 * f(0/0) := 0, f(0) := the generator's stored limit at
0+, and a term whose ratio is +inf, from nu_i = 0 or from a ratio past the
largest float, is mu_i * f'(inf), the stored slope (+inf if none is).  The
result lives in [0, inf]; KL and PE read +inf past the largest float.  Pairs
violating absolute continuity (mu_i > 0 where nu_i = 0) raise.

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


def density_ratio(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> list[tuple[str, float]]:
    """Elementwise density dmu/dnu on the atoms that carry nu-mass; +inf past the largest float.

    Atoms where both measures vanish are omitted; they contribute nothing
    to any integral against nu.  Raises when mu puts mass where nu does
    not.
    """
    ids, a, b = align(mu, nu)
    carrier = _carrier(ids, a, b)
    with np.errstate(over="ignore"):
        ratios = (a[carrier] / b[carrier]).tolist()
    return [(ids[i], r) for i, r in zip(np.flatnonzero(carrier).tolist(), ratios)]


def _terms(f: Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each atom's term of the divergence; no other code forms one.

    From x = a_i / b_i: b_i * f(x) if finite, a_i * f.slope_at_inf if +inf, and 0 for 0/0.  A
    conjugate takes its base's terms of the swapped pair: the base divergence swapped, bit for bit.
    """
    if f.base is not None:
        f, a, b = f.base, b, a
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = a / b
    if (finite := np.isfinite(x)).all():  # every b_i > 0: no masked copies
        return b * f.eval_array(x)
    terms = np.zeros(x.shape)
    terms[finite] = b[finite] * f.eval_array(x[finite])
    beyond = x == math.inf
    terms[beyond] = a[beyond] * (math.inf if f.slope_at_inf is None else f.slope_at_inf)
    return terms


def _divergence_rows(f: Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact sum of ``_terms`` in each row of aligned (rows, atoms) blocks, by fsum's rules.

    Sums in [-1e-12, 0), roundoff, are clamped to 0.  Terms +inf and -inf in one row,
    which only a non-convex or mis-declared generator gives, raise ``DomainError``.
    """
    rows = _terms(f, a, b)
    try:
        # a two-atom row's vector sum is correctly rounded: fsum's value (+ 0.0 turns -0.0 into
        # fsum's +0.0), or inf where fsum overflows; a NaN may be fsum's "-inf + inf"
        with np.errstate(invalid="ignore"):
            if b.shape[1] != 2 or np.isnan(sums := rows[:, 0] + rows[:, 1] + 0.0).any():
                sums = np.array([math.fsum(row) for row in rows.tolist()])
    except ValueError:  # fsum's "-inf + inf"
        raise DomainError(f"generator {f.name!r} gives terms +inf and -inf, "
                          "whose sum is undefined") from None
    sums[(-_NONNEG_CLAMP <= sums) & (sums < 0.0)] = 0.0
    return sums


def d_f(f: Generator, mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> DivergenceValue:
    """The f-divergence sum_i nu_i * f(mu_i / nu_i), by the module's conventions.

    Requires mu absolutely continuous with respect to nu.  The pair is summed as a one-row
    block of ``_divergence_rows``, so results within roundoff below zero are clamped to 0.
    """
    ids, a, b = align(mu, nu)
    _carrier(ids, a, b)
    return DivergenceValue(float(_divergence_rows(f, a[None], b[None])[0]), f.name)


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
