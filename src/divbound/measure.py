"""Finite-support signed and probability measures.

A measure assigns a real weight to each atom of a finite support; the
sigma-algebra is the power set of the atoms.  This module provides the
Hahn-Jordan split of a signed measure into nonnegative upper and lower
parts, the total variation norm, and three equivalent forms of the total
variation distance between probability measures: the L1 form
sum_i |mu_i - nu_i|, the set form 2 sup_B |mu(B) - nu(B)| (via subset
enumeration, small supports only), and the density form
sum_i nu_i |mu_i/nu_i - 1|.

All values are immutable after construction and every operation is pure,
so they are safe to share between concurrent tasks.

Binary operations align supports on the union of atom ids; atoms missing
from one measure count as weight 0.  Sums over atoms accumulate in atom
order, as one sequential ``np.cumsum`` for a weight vector or for every
row of a block, which lets the subset enumeration oracle reproduce them
bit for bit.

Measure files are read in whole-column passes: a CSV text, read with its
line ends, is split at its commas and LF or CRLF ends at once, a JSON
document's entries are checked with ``map`` over the list, and the
weights are checked for finiteness in one numpy pass.  Only when a
column check fails, or the input has a shape the pass does not cover
(quoted CSV fields, blank lines, a missing final newline), does a
per-row loop run; those loops are the only place that reports errors,
so each message names the first bad entry or line.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    DomainError,
    InvalidMeasure,
    MeasureFormatError,
)

PROBABILITY_SUM_TOL = 1e-9

# Enumerating 2**n subsets is an oracle for tests, not a production path.
ENUMERATION_CAP = 20


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """A finite-support set function with one finite real weight per atom."""

    atoms: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = tuple(map(str, self.atoms))
        try:
            weights = np.array(self.weights, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidMeasure(f"weights must be real numbers: {exc}") from None
        if weights.ndim != 1 or weights.size != len(atoms):
            raise InvalidMeasure("need exactly one weight per atom")
        if len(set(atoms)) != len(atoms):
            raise InvalidMeasure("atom ids must be unique within a measure")
        if not np.all(np.isfinite(weights)):
            raise InvalidMeasure("weights must be finite")
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.atoms)}

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedMeasure):
            return NotImplemented
        return self.atoms == other.atoms and np.array_equal(self.weights, other.weights)

    __hash__ = None  # compared by value, not meant for hashing

    def items(self) -> Iterator[tuple[str, float]]:
        return zip(self.atoms, self.weights.tolist())

    def weight(self, atom: str) -> float:
        """Weight of the atom ``str(atom)``, as ids are stored; atoms off the support carry 0."""
        i = self._index.get(str(atom))
        return 0.0 if i is None else float(self.weights[i])

    def total(self, within: Iterable[str] | None = None) -> float:
        """Measure of a subset of the support (the whole support by default)."""
        return _ordered_sum(_selected(self, within))

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        if not isinstance(other, SignedMeasure):
            return NotImplemented
        ids, a, b = align(self, other)
        return SignedMeasure(ids, a - b)

    def to_json_dict(self) -> dict:
        return {"atoms": [{"id": a, "w": w} for a, w in self.items()]}

    @classmethod
    def from_json_dict(cls, data: object) -> "SignedMeasure":
        return cls(*_json_columns(data))


@dataclass(frozen=True, eq=False)
class ProbabilityMeasure(SignedMeasure):
    """A measure with nonnegative weights summing to one (within 1e-9).

    Construction never renormalizes silently; use :meth:`normalized` to
    build a probability measure from unnormalized nonnegative weights.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_probability_weights(self.weights)

    @classmethod
    def normalized(cls, pairs: Iterable[tuple[str, float]]) -> "ProbabilityMeasure":
        """Divide nonnegative weights by their sum; total mass must be positive."""
        pairs = list(pairs)
        weights = np.array([p[1] for p in pairs], dtype=np.float64)
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise InvalidMeasure("normalize needs finite nonnegative weights")
        mass = weights.sum()
        if not mass > 0.0:
            raise InvalidMeasure("normalize needs positive total mass")
        return cls(tuple(p[0] for p in pairs), weights / mass)


@dataclass(frozen=True)
class HahnDecomposition:
    """Partition of the support plus the nonnegative upper and lower parts.

    ``upper`` is supported on ``positive_set``, ``lower`` on
    ``negative_set``, and the original measure is upper - lower atomwise.
    """

    positive_set: frozenset[str]
    negative_set: frozenset[str]
    upper: SignedMeasure
    lower: SignedMeasure

    def __post_init__(self) -> None:
        # P and N partition the n atoms iff |P| + |N| = n and N holds every atom outside P
        atoms, positive, negative = self.upper.atoms, self.positive_set, self.negative_set
        inside = np.fromiter(map(positive.__contains__, atoms), dtype=bool, count=len(atoms))
        if (len(positive) + len(negative) != len(atoms)
                or not all(map(negative.__contains__, compress(atoms, (~inside).tolist())))):
            raise InvalidMeasure("positive and negative sets must partition the support")
        if self.upper.atoms != self.lower.atoms:
            raise InvalidMeasure("upper and lower parts must share the support")
        if np.any(self.upper.weights < 0.0) or np.any(self.lower.weights < 0.0):
            raise InvalidMeasure("upper and lower parts must be nonnegative")
        if np.any(self.upper.weights[~inside]):
            raise InvalidMeasure("upper part must vanish outside the positive set")
        if np.any(self.lower.weights[inside]):
            raise InvalidMeasure("lower part must vanish outside the negative set")


def _selected(m: SignedMeasure, within: Iterable[str] | None) -> np.ndarray:
    # weights of the atoms in ``within`` (all atoms by default, ids as str), in atom order
    if within is None:
        return m.weights
    keys = set(map(str, within))
    return m.weights[np.array([a in keys for a in m.atoms], dtype=bool)]


def _ordered_sum(values: np.ndarray):
    # left-to-right accumulation in atom order along the last axis, one sum per
    # row of a matrix: np.cumsum is sequential, never pairwise; the [..., -1:]
    # slice gives 0.0 on an empty axis and "+ 0.0" turns an all-zero run's -0.0
    # into the +0.0 of a loop from 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(values, axis=-1)[..., -1:].sum(axis=-1) + 0.0
    return sums if values.ndim > 1 else float(sums)


def _check_probability_weights(weights: np.ndarray) -> None:
    """ProbabilityMeasure's weight checks, on one weight vector or on each along the last axis."""
    if not np.all(np.isfinite(weights)):
        raise InvalidMeasure("weights must be finite")
    if np.any(weights < 0.0):
        raise InvalidMeasure("probability weights must be nonnegative")
    totals = np.atleast_1d(_ordered_sum(weights))
    off = np.abs(totals - 1.0) > PROBABILITY_SUM_TOL
    if off.any():
        raise InvalidMeasure(
            f"probability weights must sum to 1 within {PROBABILITY_SUM_TOL}, "
            f"got {float(totals[off][0])!r}"
        )


def align(
    a: SignedMeasure, b: SignedMeasure
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Weights of both measures on the union support, missing atoms as 0.

    The union keeps the atom order of ``a`` followed by the atoms that
    appear only in ``b``, in their order.
    """
    if a.atoms == b.atoms:
        return a.atoms, a.weights, b.weights
    if len(a) == len(b):
        where = list(map(a._index.get, b.atoms))
        if None not in where:  # b's atoms are a permutation of a's
            wb = np.empty(len(b))
            wb[where] = b.weights
            return a.atoms, a.weights, wb
    index = dict(a._index)
    where_b = [index.setdefault(x, len(index)) for x in b.atoms]
    wa = np.concatenate([a.weights, np.zeros(len(index) - len(a))])
    wb = np.zeros(len(index))
    wb[where_b] = b.weights
    return tuple(index), wa, wb


def _carrier(ids: tuple[str, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the atoms with b-mass; raises at the first atom where only a has mass."""
    carrier = b > 0.0
    orphaned = ~carrier & (a > 0.0)
    if orphaned.any():
        raise AbsoluteContinuityViolation(ids[int(np.argmax(orphaned))])
    return carrier


def hahn_jordan(nu: SignedMeasure) -> HahnDecomposition:
    """Split a signed measure into nonnegative upper and lower parts.

    Atoms of weight exactly 0 go to the positive set; any assignment of
    null atoms is valid, and a fixed rule keeps results reproducible.
    The upper part clamps negative weights to 0, the lower part negates
    and clamps positive weights, so ``nu == upper - lower`` atomwise and
    ``upper(A)`` equals the maximum of ``nu`` over subsets of ``A``.
    """
    w = nu.weights
    nonneg = w >= 0.0
    upper = SignedMeasure(nu.atoms, np.where(nonneg, w, 0.0))
    lower = SignedMeasure(nu.atoms, np.where(nonneg, 0.0, -w))
    positive = frozenset(compress(nu.atoms, nonneg.tolist()))
    negative = frozenset(compress(nu.atoms, (~nonneg).tolist()))
    return HahnDecomposition(positive, negative, upper, lower)


def total_variation_norm(nu: SignedMeasure) -> float:
    """Total mass of the variation measure: upper(support) + lower(support)."""
    parts = hahn_jordan(nu)
    return parts.upper.total() + parts.lower.total()


def tv_distance(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> float:
    """Total variation distance sum_i |mu_i - nu_i|.

    Equals twice the largest discrepancy |mu(B) - nu(B)| over subsets B.
    It lies in [0, 2] for exact probability measures; since each measure
    may sum to 1 within 1e-9, a disjoint pair can reach 2 + 2e-9.
    """
    _, a, b = align(mu, nu)
    return _ordered_sum(np.abs(a - b))


def tv_via_density(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> float:
    """Total variation computed through the density: sum_i nu_i |mu_i/nu_i - 1|.

    Requires mu absolutely continuous with respect to nu; its terms are
    ``d_f``'s for TV, and it equals :func:`tv_distance` whenever defined.
    """
    from .divergence import _terms, builtin  # divergence imports this module

    ids, a, b = align(mu, nu)
    _carrier(ids, a, b)
    return _ordered_sum(_terms(builtin("TV"), a, b))


def subset_totals(nu: SignedMeasure, within: Iterable[str] | None = None) -> np.ndarray:
    """Measure of every subset of the (restricted) support, testing oracle.

    Entry ``m`` is the measure of the subset whose members are the atoms
    at the set bit positions of ``m`` (bit i = i-th selected atom, in
    measure order).  Each entry is accumulated in atom order, matching
    :meth:`SignedMeasure.total` exactly.  Capped at supports of at most
    ``ENUMERATION_CAP`` atoms.
    """
    weights = _selected(nu, within)
    if weights.size > ENUMERATION_CAP:
        raise DomainError(
            f"subset enumeration is capped at {ENUMERATION_CAP} atoms, got {weights.size}"
        )
    sums = np.zeros(1, dtype=np.float64)
    for w in weights:
        sums = np.concatenate([sums, sums + w])
    return sums


def subset_extrema(
    nu: SignedMeasure, within: Iterable[str] | None = None
) -> tuple[float, float]:
    """Largest and smallest measure over all subsets of ``within``."""
    sums = subset_totals(nu, within)
    return float(sums.max()), float(sums.min())


# ---------------------------------------------------------------------------
# file formats: JSON {"atoms": [{"id": ..., "w": ...}]} and CSV "id,w"
# ---------------------------------------------------------------------------


def _reject_constant(token: str) -> float:
    raise MeasureFormatError(f"non-finite weight token {token!r} is not allowed")


_ATOM_KEYS = frozenset(("id", "w"))
_ATOM_ID, _ATOM_WEIGHT = operator.itemgetter("id"), operator.itemgetter("w")


def _json_columns(data: object) -> tuple[list[str], list[float] | np.ndarray]:
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), list):
        raise MeasureFormatError('expected a JSON object {"atoms": [...]}')
    entries = data["atoms"]
    # column pass: every entry a dict of exactly a str "id" and a finite float or int "w";
    # numpy converts an int as float() does and raises OverflowError where float() does
    if set(map(type, entries)) <= {dict} and set(map(len, entries)) <= {2}:
        try:
            ids, weights = list(map(_ATOM_ID, entries)), list(map(_ATOM_WEIGHT, entries))
            if set(map(type, ids)) <= {str} and set(map(type, weights)) <= {float, int}:
                weights = np.array(weights, dtype=np.float64)
                if np.isfinite(weights).all():
                    return ids, weights
        except (KeyError, OverflowError):
            pass
    # the per-entry loop names the first bad entry
    ids, weights = [], []
    for entry in entries:
        if not isinstance(entry, dict) or entry.keys() != _ATOM_KEYS:
            raise MeasureFormatError('each atom must be an object {"id": ..., "w": ...}')
        atom, w = entry["id"], entry["w"]
        if not isinstance(atom, str):
            raise MeasureFormatError(f"atom id must be a string, got {atom!r}")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise MeasureFormatError(f"weight of atom {atom!r} must be a number")
        try:
            w = float(w)
        except OverflowError:
            raise MeasureFormatError(f"weight of atom {atom!r} is too large for a float") from None
        if not math.isfinite(w):
            raise MeasureFormatError(f"weight of atom {atom!r} must be finite")
        ids.append(atom)
        weights.append(w)
    return ids, weights


# deletes every byte but the ones csv.reader treats specially in the default dialect
_NOT_CSV_SYNTAX = bytes(sorted(set(range(256)) - set(b',\n"\r\0')))


def _csv_columns(text: str) -> tuple[list[str], list[float] | np.ndarray]:
    # column pass: an "id,w" header line, then LF- or CRLF-terminated lines of exactly
    # one comma and no quote, other CR or NUL, which csv.reader splits at their comma;
    # the checks run before the split, so that other texts go to the loop at once
    plain = text.replace("\r\n", "\n") if "\r" in text else text
    syntax = (plain.encode("utf-8", "surrogatepass").translate(None, _NOT_CSV_SYNTAX)
              if plain.startswith("id,w\n") and plain.endswith("\n") else b"")
    if syntax and syntax == b",\n" * (len(syntax) // 2):
        cells = plain.replace("\n", ",").split(",")  # id, w, id, w, ..., "" after the last newline
        limit = csv.field_size_limit()
        if len(plain) <= limit or max(map(len, cells)) <= limit:
            try:
                weights = np.array(list(map(float, cells[3:-1:2])), dtype=np.float64)
            except ValueError:
                pass
            else:
                if np.isfinite(weights).all():
                    return list(map(str.strip, cells[2:-1:2])), weights
    # the csv.reader loop names the physical line (ended by LF, CRLF or CR) of the first bad
    # row, or the header; it reads on past that row, so that an error of csv's own comes first
    reader = csv.reader(io.StringIO(text, newline=""))
    ids, weights, error = [], [], None
    try:
        if [c.strip() for c in next(reader, ())] != ["id", "w"]:
            error = 'CSV measures need the header row "id,w"'
        for row in reader:
            if error is not None or not row:
                continue
            if len(row) != 2:
                error = f"line {reader.line_num}: expected two columns, got {len(row)}"
                continue
            try:
                w = float(row[1])
            except ValueError:
                error = f"line {reader.line_num}: weight {row[1]!r} is not a number"
                continue
            if math.isfinite(w):
                ids.append(row[0].strip())
                weights.append(w)
            else:
                error = f"line {reader.line_num}: weight must be finite"
    except csv.Error as exc:  # e.g. a field past csv's process-wide size limit
        raise MeasureFormatError(f"line {reader.line_num}: {exc}") from None
    if error is not None:
        raise MeasureFormatError(error)
    return ids, weights


def _read_columns(path: str | Path) -> tuple[list[str], list[float] | np.ndarray]:
    """Atom ids and weights of a UTF-8 measure file: CSV by its suffix, JSON otherwise."""
    path = Path(path)
    csv_file = path.suffix.lower() == ".csv"
    try:  # csv.reader takes a CSV text's line ends as they are: a quoted CR stays a CR
        text = path.read_bytes().decode("utf-8-sig") if csv_file else path.read_text("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MeasureFormatError(f"{path} is not UTF-8 text: {exc}") from None
    if csv_file:
        return _csv_columns(text)
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except MeasureFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # also integers past the digit limit, deep nesting
        raise MeasureFormatError(f"invalid JSON: {exc}") from None
    return _json_columns(data)


def read_signed_measure(path: str | Path) -> SignedMeasure:
    """Load a signed measure from a UTF-8 JSON or CSV file (picked by extension)."""
    return SignedMeasure(*_read_columns(path))


def read_probability_measure(path: str | Path) -> ProbabilityMeasure:
    """Load a probability measure from a UTF-8 JSON or CSV file (picked by extension)."""
    return ProbabilityMeasure(*_read_columns(path))
