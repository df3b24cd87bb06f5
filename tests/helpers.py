"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import strategies as st

from divbound import (
    DomainError,
    MeasureFormatError,
    ProbabilityMeasure,
    ScanRecord,
    SignedMeasure,
    VerificationReport,
    d_f,
    format_extended,
    hahn_jordan,
    invert,
    lower_bound,
    phi,
    tv_distance,
)
from divbound import bounds
from divbound.divergence import _divergence_rows
from divbound.extreal import encode_extended

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*argv: str, timeout: float = 120, env: dict | None = None,
           text: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter with only this tree's ``src`` on the path and its output captured;
    ``env`` adds variables to the environment, and ``text=False`` keeps the output as bytes."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=text,
                          timeout=timeout)


def atoms(n: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(n))


def sm(*weights: float) -> SignedMeasure:
    return SignedMeasure(atoms(len(weights)), np.array(weights, dtype=np.float64))


def pm(*weights: float) -> ProbabilityMeasure:
    return ProbabilityMeasure(atoms(len(weights)), np.array(weights, dtype=np.float64))


def pm_normalized(*raw: float) -> ProbabilityMeasure:
    w = np.array(raw, dtype=np.float64)
    return ProbabilityMeasure(atoms(len(raw)), w / w.sum())


def bits(x: float) -> bytes:
    """The IEEE bytes of a float, so that comparisons tell -0.0 from 0.0."""
    return struct.pack("<d", float(x))


def ordered_sum(values) -> float:
    """Reference accumulation: plain left to right from 0.0, one value at a time."""
    acc = 0.0
    for v in values:
        acc += float(v)
    return acc


def check_monotone_loop(f, grid_size: int) -> bool:
    """Reference monotonicity check: one scalar phi call per grid point, until a failure."""
    strict = f.separation_coefficient is not None
    previous = phi(f, 0.0)
    for k in range(1, grid_size):
        current = phi(f, k / (grid_size - 1.0))
        if math.isinf(previous) and math.isinf(current):
            if strict:
                return False
            previous = current
            continue
        if current < previous - 1e-12:
            return False
        if strict and not current - previous > 1e-12:
            return False
        previous = current
    return True


def check_separation_loop(f, a: float, grid) -> bool:
    """Reference separation check: one scalar generator call per grid point, until a failure."""
    a = float(a)
    for x in grid:
        x = float(x)
        g = f(x) - a * (x - 1.0)
        if g < -1e-12:
            return False
        if abs(x - 1.0) >= 1e-3 and not g > 1e-12:
            return False
    return True


def scan_to_csv_cells(records, stream, precision: int = 9) -> None:
    """Reference scan CSV writer: format_extended of each cell, rounded to nearest.

    format_extended is pure, so it runs once per distinct (float bits, precision) of the cells,
    the precision being one per call: a value that repeats, as every p, q and tv of a grid
    does, is formatted once, and the bits keep -0.0 and 0.0 apart.
    """
    rows = [(r.p, r.q, r.tv, r.divergence, r.lower_bound, r.slack) for r in records]
    keys = np.array(rows, dtype=np.float64).reshape(-1, 6).view(np.int64)
    distinct, where = np.unique(keys, return_inverse=True)
    texts = np.array([format_extended(x, precision) for x in distinct.view(np.float64).tolist()],
                     dtype=object)
    stream.write("p,q,tv,divergence,lower_bound,slack\n")
    stream.write("".join(",".join(row) + "\n" for row in texts[where].reshape(-1, 6).tolist()))


def decompose_json_dumps(nu: SignedMeasure, precision: int) -> str:
    """Reference ``decompose --format json`` line: ``json.dumps`` of the whole dict, built from
    ``to_json_dict`` and the sets' membership, one atom at a time."""
    parts = hahn_jordan(nu)
    totals = {"upper_total": parts.upper.total(), "lower_total": parts.lower.total()}
    totals["total_variation"] = totals["upper_total"] + totals["lower_total"]
    return json.dumps({
        "positive_set": [a for a in nu.atoms if a in parts.positive_set],
        "negative_set": [a for a in nu.atoms if a in parts.negative_set],
        "upper": parts.upper.to_json_dict(),
        "lower": parts.lower.to_json_dict(),
        **{key: encode_extended(value, precision) for key, value in totals.items()},
    }) + "\n"


def invert_bisection(f, d: float) -> float:
    """Reference inversion: plain bisection with one phi evaluation per midpoint; the TV bound."""
    d = max(float(d), 0.0)
    if phi(f, 1.0) <= d:
        return 2.0
    lo, hi = 0.0, 1.0
    while 2.0 * (hi - lo) > 1e-10:
        mid = 0.5 * (lo + hi)
        if phi(f, mid) <= d:
            lo = mid
        else:
            hi = mid
    return 2.0 * hi


def kl_phi_reference(t: float) -> float:
    """The KL phi that ``kl_inverse_reference`` iterates on: ``t (log1p t - log1p(-t)) +
    log1p(-t**2)`` below 0.5, ``(1 + t) log1p t + (1 - t) log1p(-t)`` from there, by ``math``."""
    up, down = math.log1p(t), math.log1p(-t)
    return (1.0 + t) * up + (1.0 - t) * down if t >= 0.5 else t * (up - down) + math.log1p(-t * t)


def kl_inverse_reference(d: float) -> float:
    """Reference KL inverse: Newton's method as first written, with ``min`` and ``math.log1p``,
    on ``kl_phi_reference``."""
    w = (d * (1.0 - d * (1 / 6 + d * (1 / 90 + d * (5 / 1512 + d * 143 / 113400)))) if d < 0.26
         else 2.0 * d / (1.0 + math.sqrt(1.0 + d / 1.5)))
    t = min(math.sqrt(w), 1.0 - 2.0**-53)
    for _ in range(50):
        slope = math.log1p(t) - math.log1p(-t)
        step = (kl_phi_reference(t) - d) / slope
        t = min(t - step, 1.0 - 2.0**-53)
        if step * step <= 2.0**-53 * t * (1.0 - t) * (1.0 + t) * slope:
            break
    return t


# the bound function each built-in and each dual has: dual(HE) is HE, dual(TV) is TV, dual(KL)
# is SH, dual(SH) is KL, and dual(PE) is Neyman's chi-square, phi = 2t**2 / (1 - t**2)
BOUND_FUNCTION_OF = {"TV": "TV", "PE": "PE", "SH": "SH", "HE": "HE", "KL": "KL",
                     "TV*": "TV", "PE*": "NE", "SH*": "KL", "HE*": "HE", "KL*": "SH"}


def _kl_phi_mp(t):
    # 2t atanh(t) + log1p(-t**2) cancels by a factor of 3 at most; the series below 1e-3
    if t < mpmath.mpf("1e-3"):
        w = t * t
        return mpmath.fsum(w**k / (k * (2 * k - 1)) for k in range(1, 40))
    return 2 * t * mpmath.atanh(t) + mpmath.log1p(-t * t)


# each bound function's generator, written apart from divbound; NE is Neyman's chi-square
_GENERATORS_MP = {
    "TV": lambda x: abs(x - 1),
    "PE": lambda x: (x - 1) ** 2,
    "HE": lambda x: (mpmath.sqrt(x) - 1) ** 2,
    "NE": lambda x: (x - 1) ** 2 / x if x else mpmath.inf,
    "KL": lambda x: x * mpmath.log(x) if x else 0,
    "SH": lambda x: -mpmath.log(x) if x else mpmath.inf,
}


def phi_exact(name: str, tv: float):
    """phi(min(tv, 2) / 2) as f(1 + t) + f(1 - t), for a key or a value of BOUND_FUNCTION_OF,
    with 60 digits left after the cancellation of f(1 + t) and f(1 - t), about 2 log10(1/t)."""
    f = _GENERATORS_MP[BOUND_FUNCTION_OF.get(name, name)]
    t = mpmath.mpf(min(float(tv), 2.0)) / 2
    with mpmath.workdps(60 + (2 * int(-mpmath.log10(t)) if 0 < t < 1 else 0)):
        return f(1 + t) + f(1 - t)


def table_floors(f, tv) -> np.ndarray:
    """Reference floors of a built-in or a dual: each piece of its row's formula by numpy on the
    entries it owns, times the row's ``down``; phi(1) rounded down at t = 1, and +0.0 below
    t = 2**-451 and for floors at or below 0."""
    row = bounds._table_row(f)
    t = np.minimum(np.asarray(tv, dtype=np.float64), 2.0) / 2.0
    phis, low = np.empty_like(t), t < row.split
    with np.errstate(divide="ignore", invalid="ignore"):
        phis[low] = row.low(t[low], np)
        if not low.all():
            phis[~low] = row.high(t[~low], np)
    floors = phis * row.down
    floors[t == 1.0] = row.phi1
    floors[(floors <= 0.0) | (t < 2.0**-451)] = 0.0
    return floors


def tv_supremum(name: str, d: float):
    """sup {tv in [0, 2] : phi(tv/2) <= d} at 60 digits, for a key or a value of BOUND_FUNCTION_OF."""
    with mpmath.workdps(60):
        d = mpmath.mpf(d)
        name = BOUND_FUNCTION_OF.get(name, name)
        if d == 0:
            return mpmath.mpf(0)
        if name == "TV":
            return min(d, 2)
        if name == "PE":
            return min(mpmath.sqrt(2 * d), 2)
        if name == "SH":
            return 2 * mpmath.sqrt(-mpmath.expm1(-d))
        if name == "NE":
            return 2 * mpmath.sqrt(d / (2 + d))
        if name == "HE":
            return 2 if d >= 4 - 2 * mpmath.sqrt(2) else (4 - d) * mpmath.sqrt(d * (8 - d)) / 4
        if d >= 2 * mpmath.log(2):
            return mpmath.mpf(2)
        if d >= 1:  # the root lies near 1, where Newton's method from there crawls
            return 2 * mpmath.findroot(lambda t: _kl_phi_mp(t) - d, (0, 1 - mpmath.mpf(10) ** -50),
                                       solver="anderson", tol=mpmath.mpf(10) ** -100, verify=False)
        # Newton from the right on the convex phi stays above the root
        t = mpmath.sqrt(d)
        for _ in range(400):
            step = (_kl_phi_mp(t) - d) / (2 * mpmath.atanh(t))
            t -= step
            if abs(step) <= t * mpmath.mpf(10) ** -57:
                return 2 * t
        raise ArithmeticError(f"Newton's method for the KL supremum at d={d} did not converge")


def normalized_pair(raw) -> tuple[np.ndarray, np.ndarray]:
    """Reference pair weights from one row of 2n variates, each sum a numpy sum of a 1-D array:
    mu is x / sum(x) over the first n values, and nu is max(max(y / sum(y), 1e-9) / sum, 1e-9)
    over the last n, the inner sum taken of the floored weights."""
    x, y = np.split(np.asarray(raw, dtype=np.float64), 2)
    nu = np.maximum(y / y.sum(), 1e-9)
    return x / x.sum(), np.maximum(nu / nu.sum(), 1e-9)


def verify_bound_loop(f, trials: int, max_support: int, seed: int) -> VerificationReport:
    """Reference soundness sweep, in trial order and with no blocks: one fresh
    Philox(key=seed + n * 2**64) per support size n, one row of 2n variates per trial,
    and one d_f and lower_bound per trial.  Raises DomainError if every violation is NaN."""
    streams = {}
    worst = -math.inf
    worst_pair = None
    for k in range(trials):
        n = 2 + k % (max_support - 1)
        if n not in streams:
            streams[n] = np.random.Generator(np.random.Philox(key=seed + n * (1 << 64)))
        raw = streams[n].standard_exponential(2 * n, method="inv")
        mu, nu = (ProbabilityMeasure(atoms(n), w) for w in normalized_pair(raw))
        div = d_f(f, mu, nu).value
        if math.isinf(div):
            violation = 0.0
        else:
            violation = lower_bound(f, tv_distance(mu, nu)) - div
        if violation > worst:
            worst = violation
            worst_pair = (mu, nu)
    if worst_pair is None:
        raise DomainError(f"generator {f.name!r}: every trial's violation was NaN or -inf")
    return VerificationReport(f.name, trials, worst, worst_pair, seed)


def scan_binary_grid(f, resolution: int) -> list[ScanRecord]:
    """Reference binary scan: the whole resolution² grid in one divergence kernel call."""
    grid = np.arange(1, resolution + 1) / (resolution + 1.0)
    p, q = np.repeat(grid, grid.size), np.tile(grid, grid.size)
    tv = 2.0 * np.abs(p - q)
    div = _divergence_rows(f, np.stack([p, 1.0 - p], axis=-1), np.stack([q, 1.0 - q], axis=-1))
    floor = lower_bound(f, tv)
    with np.errstate(invalid="ignore"):
        slack = np.where(np.isinf(div) & np.isinf(floor), 0.0, div - floor)
    return list(map(ScanRecord._make, zip(*(c.tolist() for c in (p, q, tv, div, floor, slack)))))


def tightness_gap_rows(f, d_target: float, resolution: int) -> tuple[float, float, float]:
    """Reference tightness search: one divergence kernel call per p row of the grid."""
    qs = np.arange(1, resolution + 1) / (resolution + 1.0)
    certified = invert(f, d_target).tv_upper_bound
    rows_q = np.stack([qs, 1.0 - qs], axis=-1)
    achieved = 0.0
    for p in qs:
        div = _divergence_rows(f, np.broadcast_to(np.stack([p, 1.0 - p]), rows_q.shape), rows_q)
        achieved = max(achieved, float(np.max(2.0 * np.abs(p - qs[div <= d_target]), initial=0.0)))
    return certified, achieved, certified - achieved


def align_per_atom(a: SignedMeasure, b: SignedMeasure):
    """Reference union alignment, built with one weight() lookup per atom."""
    ids = list(a.atoms) + [x for x in b.atoms if x not in set(a.atoms)]
    wa = np.array([a.weight(x) for x in ids], dtype=np.float64)
    wb = np.array([b.weight(x) for x in ids], dtype=np.float64)
    return tuple(ids), wa, wb


def align_union(a: SignedMeasure, b: SignedMeasure):
    """Reference alignment: one dict setdefault per atom of b on a copy of a's index."""
    if a.atoms == b.atoms:
        return a.atoms, a.weights, b.weights
    index = {x: i for i, x in enumerate(a.atoms)}
    where_b = [index.setdefault(x, len(index)) for x in b.atoms]
    wa = np.concatenate([a.weights, np.zeros(len(index) - len(a))])
    wb = np.zeros(len(index))
    wb[where_b] = b.weights
    return tuple(index), wa, wb


def json_columns_loop(data: object) -> tuple[list[str], list[float]]:
    """Reference JSON reader: one isinstance, float and isfinite check per entry."""
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), list):
        raise MeasureFormatError('expected a JSON object {"atoms": [...]}')
    ids, weights = [], []
    for entry in data["atoms"]:
        if not isinstance(entry, dict) or entry.keys() != {"id", "w"}:
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


def csv_columns_loop(text: str) -> tuple[list[str], list[float]]:
    """Reference CSV reader: csv.reader, then one float and isfinite check per row.

    Errors name the physical line where the offending row ends; lines end at LF, CRLF
    or CR, as in a file opened with newline="".
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise MeasureFormatError(f"line {reader.line_num}: {exc}") from None
    if not rows or [c.strip() for c in rows[0][1]] != ["id", "w"]:
        raise MeasureFormatError('CSV measures need the header row "id,w"')
    ids, weights = [], []
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != 2:
            raise MeasureFormatError(f"line {lineno}: expected two columns, got {len(row)}")
        try:
            w = float(row[1])
        except ValueError:
            raise MeasureFormatError(f"line {lineno}: weight {row[1]!r} is not a number") from None
        if not math.isfinite(w):
            raise MeasureFormatError(f"line {lineno}: weight must be finite")
        ids.append(row[0].strip())
        weights.append(w)
    return ids, weights


finite_weights = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)

positive_weights = st.floats(
    min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def signed_measures(draw, min_atoms: int = 1, max_atoms: int = 8) -> SignedMeasure:
    ws = draw(st.lists(finite_weights, min_size=min_atoms, max_size=max_atoms))
    return sm(*ws)


@st.composite
def balanced_signed_measures(draw, max_pairs: int = 5) -> SignedMeasure:
    """Signed measures with exact zero total: permuted blocks of (v, -v) pairs.

    Positives and negatives appear in the same block order, so the upper
    and lower parts accumulate along identical rounding paths; the exact
    identity norm = 2 sup |nu(B)| depends on that.
    """
    vs = draw(st.lists(positive_weights, min_size=1, max_size=max_pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
    order = draw(st.permutations(list(range(len(vs)))))
    ws: list[float] = []
    for i in order:
        ws.extend([-vs[i], vs[i]] if flips[i] else [vs[i], -vs[i]])
    return sm(*ws)


@st.composite
def probability_pairs(draw, min_atoms: int = 2, max_atoms: int = 8):
    """Aligned pairs (mu, nu) with strictly positive nu (so mu << nu)."""
    n = draw(st.integers(min_atoms, max_atoms))
    raw_mu = draw(st.lists(positive_weights, min_size=n, max_size=n))
    raw_nu = draw(st.lists(positive_weights, min_size=n, max_size=n))
    return pm_normalized(*raw_mu), pm_normalized(*raw_nu)


@st.composite
def probability_triples(draw, min_atoms: int = 2, max_atoms: int = 6):
    n = draw(st.integers(min_atoms, max_atoms))
    rows = [
        draw(st.lists(positive_weights, min_size=n, max_size=n)) for _ in range(3)
    ]
    return tuple(pm_normalized(*row) for row in rows)
