"""Empirical verification of the divergence lower bound, and its tightness.

Brute-force oracles on small alphabets: seeded random measure pairs,
exhaustive scans of binary (two-atom) pairs, soundness sweeps of the
bound over many random pairs, and grid searches for the largest total
variation actually attainable at a given divergence budget.  Everything
is deterministic per seed.  The soundness sweep draws each support size's
pairs, in trial order, from one counter-based (Philox) stream keyed by
the seed and the size, and evaluates them in blocks of that size; the
report merge (max plus argmax, the earliest trial winning ties) gives the
same report, bit for bit, as evaluating the trials one at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import IO, Callable, Iterable, NamedTuple

import numpy as np

from .bounds import invert, lower_bound
from .divergence import _divergence_rows
from .errors import DomainError, _count
from .extreal import UP, _nearest_format, encode_extended
from .generator import Generator
from .measure import ProbabilityMeasure, _check_probability_weights, _ordered_sum

_NU_FLOOR = 1e-9
_KEY_STRIDE = 1 << 64
# atoms per measure in one sweep block (at most 4096 trials), unless a
# single trial has more: memory stays flat however many trials run
_BLOCK_ATOMS = 1 << 13


class ScanRecord(NamedTuple):
    """One binary-alphabet sample of the two sides of the bound, as a named tuple.

    ``slack`` is divergence minus lower bound; soundness means it is
    never below -1e-9.
    """

    p: float
    q: float
    tv: float
    divergence: float
    lower_bound: float
    slack: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a soundness sweep over seeded random pairs."""

    generator_name: str
    trials: int
    max_violation: float
    worst_pair: tuple[ProbabilityMeasure, ProbabilityMeasure]
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-9

    def to_json_dict(self, precision: int | None = None) -> dict:
        """JSON fields; with a precision the violation prints rounded up."""
        mu, nu = self.worst_pair
        return {
            "generator": self.generator_name,
            "trials": self.trials,
            "max_violation": encode_extended(self.max_violation, precision, UP),
            "seed": self.seed,
            "passed": self.passed,
            "worst_pair": {"mu": mu.to_json_dict(), "nu": nu.to_json_dict()},
        }


def random_pair(n: int, seed: int) -> tuple[ProbabilityMeasure, ProbabilityMeasure]:
    """Two seeded random probability measures on the same n atoms.

    Weights are the first 2n inverse-CDF exponential variates of the
    counter-based stream ``np.random.Philox(key=seed)``, normalized, so
    results are reproducible across platforms and depend only on
    (n, seed).  The second measure is floored at 1e-9 per atom and
    renormalized, guaranteeing strictly positive weights and hence
    absolute continuity of the first measure with respect to it.
    """
    n = _count("n", n, 2, sys.maxsize // 16)  # numpy holds at most sys.maxsize bytes: 2n float64
    if not 0 <= (seed := int(seed)) < _KEY_STRIDE * _KEY_STRIDE:
        raise DomainError("seed must be an unsigned integer below 2**128")
    return _measure_pair(_normalized_pair(_exponential_stream(seed)(1, 2 * n)[0]))


def _normalized_pair(raw: np.ndarray) -> np.ndarray:
    # (..., 2, n) weights from 2n exponential variates along the last axis: row 0 (mu)
    # normalizes the first n; row 1 (nu) the last n, floored at 1e-9 and renormalized
    pair = raw.reshape(*raw.shape[:-1], 2, -1)
    pair = pair / pair.sum(axis=-1, keepdims=True)
    nu = np.maximum(pair[..., 1, :], _NU_FLOOR, out=pair[..., 1, :])
    nu /= nu.sum(axis=-1, keepdims=True)
    np.maximum(nu, _NU_FLOOR, out=nu)
    return pair


def _measure_pair(pair: np.ndarray) -> tuple[ProbabilityMeasure, ProbabilityMeasure]:
    atoms = tuple(f"a{i + 1}" for i in range(pair.shape[-1]))
    return ProbabilityMeasure(atoms, pair[0]), ProbabilityMeasure(atoms, pair[1])


def _exponential_stream(key: int) -> Callable[[int, int], np.ndarray]:
    """Draws of (rows, width) inverse-CDF exponentials from ``np.random.Philox(key=key)``.

    Each draw continues the stream in row-major order.  The inverse method takes one
    64-bit word per value and Philox keeps its unused words across draws, so how a
    stream is split into draws never changes a value.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    return lambda rows, width: rng.standard_exponential((rows, width), method="inv")


def _violations(f: Generator, mu_w: np.ndarray, nu_w: np.ndarray) -> np.ndarray:
    # lower bound minus divergence per row, as d_f, tv_distance and lower_bound
    # give it for one pair; an infinite divergence counts as violation 0
    div = _divergence_rows(f, mu_w, nu_w)
    tv = _ordered_sum(np.abs(mu_w - nu_w))
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(div), 0.0, lower_bound(f, tv) - div)


def _grid_blocks(f: Generator, resolution: int):
    """(p, q, tv, divergence) of the Bernoulli pairs on an open resolution² grid, p-major, in
    blocks of whole p rows of at most _BLOCK_ATOMS atoms per measure (or one row): in each
    block, p holds each of its grid values ``resolution`` times running, and q the whole grid
    once per p value.

    The resolution is checked on the call, before the first block is drawn.
    """
    resolution = _count("resolution", resolution, 2, math.isqrt(sys.maxsize))  # resolution**2 points
    grid = np.arange(1, resolution + 1) / (resolution + 1.0)
    weights = np.stack([grid, 1.0 - grid], axis=-1)  # (p, 1 - p), one row per grid point
    rows = max(1, _BLOCK_ATOMS // (2 * resolution))

    def blocks():
        for start in range(0, resolution, rows):
            a = np.repeat(weights[start:start + rows], resolution, axis=0)
            b = np.tile(weights, (len(a) // resolution, 1))
            yield a[:, 0], b[:, 0], 2.0 * np.abs(a[:, 0] - b[:, 0]), _divergence_rows(f, a, b)
    return blocks()


def _floored(f: Generator, blocks):
    """(p, q, divergence, slack, tvs, floors, at) per grid block: ``tvs`` the block's distinct tv
    values (distinct bit patterns, so -0.0 and 0.0 stay apart), ``floors`` their lower bounds and
    ``at`` each row's index into both.  lower_bound is elementwise, so a floor is taken once per
    distinct tv.
    """
    for p, q, tv, div in blocks:
        keys, at = np.unique(tv.view(np.int64), return_inverse=True)
        tvs = keys.view(np.float64)
        floors = lower_bound(f, tvs)
        with np.errstate(invalid="ignore"):
            slack = np.where(np.isinf(div) & np.isinf(floors[at]), 0.0, div - floors[at])
        yield p, q, div, slack, tvs, floors, at


def scan_binary(f: Generator, resolution: int) -> list[ScanRecord]:
    """Sample both sides of the bound on a uniform open grid of Bernoulli pairs.

    Iterates p and q over ``resolution`` interior points of (0, 1) and
    records tv = 2|p - q|, the divergence, the bound phi(tv/2), and the
    slack between them.
    """
    records = []
    for p, q, div, slack, tvs, floors, at in _floored(f, _grid_blocks(f, resolution)):
        columns = (p, q, tvs[at], div, floors[at], slack)
        records += map(ScanRecord._make, zip(*(c.tolist() for c in columns)))
    return records


def verify_bound(
    f: Generator, trials: int, max_support: int, seed: int
) -> VerificationReport:
    """Soundness sweep: the bound never exceeds the divergence, over random pairs.

    Draws ``trials`` pairs with support sizes cycling over 2..max_support
    and reports the largest value of (lower bound - divergence) seen,
    together with the pair attaining it; the earliest trial wins ties.
    Infinite divergences satisfy the bound trivially and count as
    violation 0.  Trial k has support size n = 2 + k % (max_support - 1)
    and is the pair j = k // (max_support - 1) of that size: its 2n
    variates are row j of the stream of ``Philox(key=seed + n * 2**64)``,
    so the first pair of each size is ``random_pair(n, seed + n * 2**64)``.
    A pair depends only on (seed, n, j), so more trials at the same
    max_support keep every earlier pair.  Trials are evaluated in blocks
    of one support size, never in trial order, with the same report bit
    for bit.
    """
    trials = _count("trials", trials, 1, sys.maxsize)  # the length of the longest range
    max_support = _count("max_support", max_support, 2, math.inf)
    if not 0 <= (seed := int(seed)) < _KEY_STRIDE:
        raise DomainError("seed must be an unsigned integer below 2**64")
    worst, worst_trial, worst_pair = -math.inf, trials, None
    for n in range(2, min(max_support, trials + 1) + 1):
        group = range(n - 2, trials, max_support - 1)
        size = max(1, _BLOCK_ATOMS // n)
        draw = _exponential_stream(seed + n * _KEY_STRIDE)
        for start in range(0, len(group), size):
            block = group[start:start + size]
            pairs = _normalized_pair(draw(len(block), 2 * n))
            _check_probability_weights(pairs)
            violation = _violations(f, pairs[:, 0], pairs[:, 1])
            # NaN never wins, as under a running max with ">"
            i = int(np.argmax(np.where(np.isnan(violation), -math.inf, violation)))
            if violation[i] > worst or (violation[i] == worst and block[i] < worst_trial):
                worst, worst_trial, worst_pair = float(violation[i]), block[i], pairs[i]
    if worst_pair is None:
        raise DomainError(f"generator {f.name!r}: every trial's violation was NaN or -inf")
    return VerificationReport(f.name, trials, worst, _measure_pair(worst_pair), seed)


def tightness_gap(
    f: Generator, d_target: float, resolution: int
) -> tuple[float, float, float]:
    """How far the certified bound sits above the binary-alphabet frontier.

    Returns ``(certified_tv, achieved_tv, gap)`` where certified_tv is
    the inverted bound at ``d_target``, achieved_tv is the largest total
    variation over a ``resolution``-per-axis open grid of Bernoulli pairs
    whose divergence stays within ``d_target``, and gap is their
    difference.  Soundness makes the gap nonnegative up to the rounding
    of the divergences (and, for custom generators, bisection's 1e-10).
    """
    d_target = float(d_target)
    if math.isnan(d_target) or math.isinf(d_target) or d_target < 0.0:
        raise DomainError(f"divergence budget must be finite and nonnegative, got {d_target!r}")
    blocks = _grid_blocks(f, resolution)  # checks the resolution before invert runs
    certified = invert(f, d_target).tv_upper_bound
    achieved = max(float(np.max(tv[div <= d_target], initial=0.0)) for _, _, tv, div in blocks)
    return certified, achieved, certified - achieved


def scan_to_csv(records: Iterable[ScanRecord], stream: IO[str], precision: int = 9) -> None:
    """Write scan records as CSV: field names, then each record's cells as ``%.{precision}g``."""
    template = ",".join([_nearest_format(precision)] * len(ScanRecord._fields)) + "\n"
    stream.write(",".join(ScanRecord._fields) + "\n")
    stream.writelines(template % record for record in records)


def _write_scan(f: Generator, resolution: int, stream: IO[str], precision: int) -> None:
    """``scan_to_csv(scan_binary(f, resolution), stream, precision)``, written one string per grid
    block from the block's columns, with no records: p and q are formatted once per grid value,
    tv and lower_bound once per distinct tv, divergence and slack once per row.  The resolution
    is checked before the header is written.
    """
    cell = _nearest_format(precision)
    blocks = _floored(f, _grid_blocks(f, resolution))
    rest = f"%s,{cell},%s,{cell}\n"  # tv, divergence, lower_bound, slack
    stream.write(",".join(ScanRecord._fields) + "\n")
    q_cells = None
    for p, q, div, slack, tvs, floors, at in blocks:
        if q_cells is None:
            q_cells = [cell % x + "," for x in q[:resolution].tolist()]
        p_cells = []
        for x in p[::resolution].tolist():
            p_cells += [cell % x + ","] * resolution
        tv_cells = np.array([cell % x for x in tvs.tolist()], dtype=object)[at].tolist()
        floor_cells = np.array([cell % x for x in floors.tolist()], dtype=object)[at].tolist()
        cells = [None] * (3 * len(p))
        cells[0::3] = p_cells
        cells[1::3] = q_cells * (len(p) // resolution)
        cells[2::3] = map(rest.__mod__, zip(tv_cells, div.tolist(), floor_cells, slack.tolist()))
        stream.write("".join(cells))
