"""The bound function phi, its inversion, and the closed-form corollaries."""

import copy
import dataclasses
import functools
import gc
import json
import math
import pickle
import sys
import weakref

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings

from divbound import bounds
from divbound import (
    BUILTIN_NAMES,
    DomainError,
    Generator,
    NonMonotoneGenerator,
    ProbabilityMeasure,
    TvCertificate,
    bretagnolle_huber,
    bretagnolle_huber_certificate,
    builtin,
    check_monotone,
    d_f,
    dual,
    hellinger_bound,
    hellinger_certificate,
    invert,
    lower_bound,
    phi,
    tightness_gap,
    tv_distance,
)
from helpers import (
    BOUND_FUNCTION_OF,
    bits,
    check_monotone_loop,
    invert_bisection,
    kl_inverse_reference,
    ordered_sum,
    phi_exact,
    pm,
    probability_pairs,
    table_floors,
    tv_supremum,
)

# high-precision evaluations of the closed forms
PHI_KL_QUARTER = 0.0631678848039265       # 1.25*log(1.25) + 0.75*log(0.75)
PHI_SH_QUARTER = 0.06453852113757118      # -log(1 - 0.0625)
BH_TIGHT_AT_01 = 0.6169686603516922       # 2*sqrt(1 - exp(-0.1))


class TestPhi:
    def test_pearson_is_two_t_squared(self):
        assert phi(builtin("PE"), 0.25) == 0.125

    def test_tv_is_two_t(self):
        for t in np.linspace(0.0, 1.0, 11):
            assert phi(builtin("TV"), t) == pytest.approx(2.0 * t, abs=1e-12)

    def test_kl_value(self):
        assert phi(builtin("KL"), 0.25) == pytest.approx(PHI_KL_QUARTER, abs=1e-12)

    def test_shannon_phi_at_zero_is_positive_zero(self):
        assert math.copysign(1.0, phi(builtin("SH"), 0.0)) == 1.0

    def test_vanishes_at_zero_exactly(self):
        for name in BUILTIN_NAMES:
            assert phi(builtin(name), 0.0) == 0.0

    def test_endpoint_uses_limit_at_zero(self):
        assert phi(builtin("SH"), 1.0) == math.inf
        assert phi(builtin("KL"), 1.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_domain(self):
        for t in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                phi(builtin("KL"), t)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_nondecreasing_on_sample_grid(self, name):
        values = [phi(builtin(name), t) for t in np.linspace(0.0, 1.0, 101)]
        for u, v in zip(values, values[1:]):
            assert v >= u - 1e-12 or (math.isinf(u) and math.isinf(v))


class TestLowerBound:
    def test_tv_is_tight_for_itself(self):
        assert lower_bound(builtin("TV"), 0.5) == 0.5

    def test_kl_value(self):
        assert lower_bound(builtin("KL"), 0.5) == pytest.approx(PHI_KL_QUARTER, abs=1e-12)

    def test_sh_value(self):
        assert lower_bound(builtin("SH"), 0.5) == pytest.approx(PHI_SH_QUARTER, abs=1e-12)

    def test_domain(self):
        for t in (-0.1, 2.1):
            with pytest.raises(DomainError, match=f"got {t!r}$"):
                lower_bound(builtin("KL"), t)

    def test_disjoint_pair_within_sum_tolerance_counts_as_two(self):
        mu = ProbabilityMeasure(("a", "b"), [1 + 5e-10, 0.0])
        nu = ProbabilityMeasure(("a", "b"), [0.0, 1 + 5e-10])
        t = tv_distance(mu, nu)
        assert bits(t) == bits(ordered_sum([1 + 5e-10, 1 + 5e-10]))
        assert t > 2.0
        for name in BUILTIN_NAMES:
            f = builtin(name)
            assert bits(lower_bound(f, t)) == bits(lower_bound(f, 2.0))
            assert bits(lower_bound(f, 2.0 + 2e-9)) == bits(lower_bound(f, 2.0))
            floors = lower_bound(f, np.array([t, math.nextafter(2.0, 3.0), 2.0 + 2e-9]))
            assert floors.tobytes() == np.full(3, lower_bound(f, 2.0)).tobytes()

    @given(probability_pairs())
    @settings(max_examples=200, deadline=None)
    def test_sound_on_random_pairs(self, pair):
        mu, nu = pair
        t = tv_distance(mu, nu)
        for name in BUILTIN_NAMES:
            f = builtin(name)
            # phi(TV/2) <= D_f, the paper's bound.  1e-9 covers float64 rounding of both
            # sides here: weights are at least 1e-3/80, so TV/2 <= 1 - 2.5e-5, where
            # phi' <= 8e4 (SH's 2t/(1 - t^2)) turns TV's rounding, under 1e-14, into at
            # most 4e-10, and D_f's exact sum is off by a few ULPs of terms below 8e4 (PE)
            assert lower_bound(f, t) <= d_f(f, mu, nu).value + 1e-9


# every generator with a row in the table of bound functions: the built-ins and their duals
TABLE_NAMES = BUILTIN_NAMES + tuple(f"{name}*" for name in BUILTIN_NAMES)

# the 5 built-ins and their duals
WITH_DUALS = [builtin(name) for name in BUILTIN_NAMES]
WITH_DUALS += [dual(f) for f in WITH_DUALS]

# 2e5 seeded t in [0, 1), the two ends, the smallest subnormal, a small
# power of two and the largest float below 1
AGREEMENT_T = np.concatenate([
    np.random.default_rng(20240917).random(200_000), [0.0, 1.0, 5e-324, 2.0**-30, 1.0 - 2.0**-53]
])


# generators with no row: a copy of KL's formula, and -log written the natural way, whose
# f(1) = -0.0 makes its phi(0) -0.0 before the raise
CUSTOM_FLOORS = [Generator("myKL", builtin("KL").fn, 0.0, 1.0, math.inf),
                 Generator("-log", lambda x: -math.log(x), math.inf)]


class TestOneFloorPath:
    """Scalar phi (bisection) and the array floors of lower_bound round alike, bit for bit."""

    @pytest.mark.parametrize("f", WITH_DUALS, ids=lambda f: f.name)
    def test_scalar_phi_equals_array_phi(self, f):
        array = bounds._phi_array(f, AGREEMENT_T)
        scalar = np.array([phi(f, t) for t in AGREEMENT_T.tolist()])
        differ = np.flatnonzero(array.view(np.int64) != scalar.view(np.int64))
        assert differ.size == 0, (differ.size, AGREEMENT_T[differ[:5]].tolist())

    @pytest.mark.parametrize("f", WITH_DUALS, ids=lambda f: f.name)
    def test_array_floors_equal_scalar_floors(self, f):
        # a built-in's or a dual's floors are its row's formula by numpy, lowered by the row's
        # bound; the same formula by math, which confirms certificates, lies within n ULPs of
        # phi too, so the two differ by at most 2n ULPs
        tv = np.concatenate([2.0 * AGREEMENT_T, [2.0, math.nextafter(2.0, 3.0), 2.0 + 2e-9]])
        floors = lower_bound(f, tv)
        assert isinstance(floors, np.ndarray) and floors.shape == tv.shape
        assert floors.tobytes() == table_floors(f, tv).tobytes()
        row = f._bound_row
        for i in [*range(0, tv.size, 100), *range(tv.size - 8, tv.size)]:
            t = float(tv[i])
            scalar = lower_bound(f, t)
            assert type(scalar) is float
            assert bits(floors[i]) == bits(scalar), t
            if 2.0**-450 <= t < 2.0:
                by_math = row.phi_t(t / 2.0) * row.down
                assert abs(by_math - scalar) <= 2 * row.ulps * 2.0**-52 * scalar, t

    @pytest.mark.parametrize("f", CUSTOM_FLOORS, ids=lambda f: f.name)
    def test_custom_floors_are_the_generic_phi(self, f):
        # a generator with no row takes f(1 + t) + f(1 - t) as rounded, raised to +0.0 at or
        # below 0, in arrays and floats alike
        tv = np.concatenate([2.0 * AGREEMENT_T, [2.0, math.nextafter(2.0, 3.0), 2.0 + 2e-9]])
        floors = lower_bound(f, tv)
        phis = bounds._phi_array(f, np.minimum(tv, 2.0) / 2.0)
        assert floors.tobytes() == np.where(phis <= 0.0, 0.0, phis).tobytes()
        for i in [*range(0, tv.size, 100), *range(tv.size - 8, tv.size)]:
            t = float(tv[i])
            scalar = lower_bound(f, t)
            assert type(scalar) is float
            value = phi(f, min(t, 2.0) / 2.0)
            assert bits(floors[i]) == bits(scalar) == bits(0.0 if value <= 0.0 else value), t

    def test_generic_phi_runs_only_for_custom_generators(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds, "_phi_array", lambda f, t: calls.append(f) or t)
        for f in WITH_DUALS:
            lower_bound(f, np.array([0.5, 1.0]))
        assert calls == []
        lower_bound(CUSTOM_FLOORS[0], np.array([0.5, 1.0]))
        assert calls == [CUSTOM_FLOORS[0]]

    @pytest.mark.parametrize("bad", [math.nan, -5e-324, -0.1, math.nextafter(2.0 + 2e-9, 3.0),
                                     2.1, math.inf])
    def test_array_with_a_bad_value_raises(self, bad):
        for f in WITH_DUALS:
            with pytest.raises(DomainError, match=f"got {bad!r}$"):
                lower_bound(f, np.array([0.5, bad, 1.0]))
            with pytest.raises(DomainError, match=f"got {bad!r}$"):
                lower_bound(f, bad)

    # -log written the natural way has f(1) = -0.0, so its phi(0) is -0.0 before the raise
    @pytest.mark.parametrize(
        "f", WITH_DUALS + [Generator("-log", lambda x: -math.log(x), math.inf)], ids=lambda f: f.name)
    def test_no_floor_is_negative(self, f):
        # f(1 + t) and f(1 - t) cancel at tiny t, and rounding took the generic phi of SH, KL
        # and their duals below 0 there; phi >= 2 f(1) = 0, so floors are +0.0, never -0.0
        tv = np.concatenate([[0.0, 5e-324], np.geomspace(1e-16, 1e-6, 2001),
                             np.geomspace(1e-14, 2.0, 2001)])
        floors = lower_bound(f, tv)
        assert not np.signbit(floors).any(), tv[np.signbit(floors)][:5].tolist()
        for t in (0.0, 1e-16, 1e-14, 3e-10):
            assert not math.copysign(1.0, lower_bound(f, t)) < 0.0, t

    def test_empty_array_gives_no_floors(self):
        assert lower_bound(builtin("KL"), np.array([])).shape == (0,)


# 2,000 log-uniform TV in [1e-14, 2], the ends, the smallest subnormal, an odd subnormal (whose
# half rounds up), and values about t = 2**-451, below which floors are 0
EXACT_FLOOR_TV = np.concatenate([
    10.0 ** np.random.default_rng(28).uniform(-14.0, math.log10(2.0), 2000),
    [0.0, 5e-324, 2.0, 1.5e-323, 2.0**-900, 2.0**-450, 2.0**-449, 1e-200, 1e-100, 1e-16],
])


class TestFloorsAgainstTheExactFloor:
    """No floor of a table generator lies above phi(tv / 2) at 60 digits."""

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_no_floor_lies_above_phi(self, name):
        floors = lower_bound(_table_generator(name), EXACT_FLOOR_TV)
        above = [(tv, floor) for tv, floor in zip(EXACT_FLOOR_TV.tolist(), floors.tolist())
                 if mpmath.mpf(floor) > phi_exact(name, tv)]
        assert above == [], above[:5]

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_floors_reach_the_rows_bound(self, name):
        # not a vacuous floor: the formula errs by at most 2n u either way, down lowers it by
        # (2n + 1)u and the product rounds once, so a floor is within (4n + 2)u of the exact one
        f = _table_generator(name)
        row = f._bound_row
        for tv, floor in zip(EXACT_FLOOR_TV.tolist(), lower_bound(f, EXACT_FLOOR_TV).tolist()):
            if 2.0**-449 <= tv < 2.0:
                exact = phi_exact(name, tv)
                assert floor >= exact * (1 - (4 * row.ulps + 2) * 2.0**-53), (tv, floor)


def _ulps_off(values, exact, x):
    """The largest |value - exact| in ULPs of the exact value, over numpy's values at x."""
    worst = 0.0
    for value, arg in zip(values.tolist(), x.tolist()):
        truth = exact(mpmath.mpf(arg))
        worst = max(worst, float(abs(value - truth)) / math.ulp(float(truth)))
    return worst


class TestNumpyLibm:
    """The accuracy the array floors assume of numpy, at the arguments the rows give it."""

    rng = np.random.default_rng(2028)
    t = np.concatenate([10.0 ** rng.uniform(-135.0, 0.0, 10_000), rng.uniform(0.0, 1.0, 10_000)])

    def test_log1p_within_one_ulp(self):
        # SH's -t*t below 0.7, KL's t and -t from 0.5 on
        x = np.concatenate([-(self.t * 0.7) ** 2, 0.5 + self.t / 2.0, -0.5 - self.t / 2.0])
        x = x[x > -1.0]
        with mpmath.workdps(40):
            assert _ulps_off(np.log1p(x), mpmath.log1p, x) <= 1.0

    def test_log_within_one_ulp(self):
        # SH's (1 - t)(1 + t) from 0.7 on
        t = 0.7 + 0.3 * self.t
        x = (1.0 - t) * (1.0 + t)
        x = x[x > 0.0]
        with mpmath.workdps(40):
            assert _ulps_off(np.log(x), mpmath.log, x) <= 1.0

    def test_sqrt_correctly_rounded(self):
        # HE's (1 - t)(1 + t) and 2 + 2s
        s = (1.0 - self.t) * (1.0 + self.t)
        x = np.concatenate([s, 2.0 + 2.0 * np.sqrt(s)])
        with mpmath.workdps(40):
            wrong = [v for v, y in zip(x.tolist(), np.sqrt(x).tolist())
                     if y != float(mpmath.sqrt(mpmath.mpf(v)))]
        assert wrong == [], wrong[:5]


class TestCheckMonotone:
    def test_strict_for_separating_builtins(self):
        for name in ("KL", "SH", "HE", "PE"):
            assert check_monotone(builtin(name), 1001)

    def test_tv_is_nondecreasing(self):
        assert check_monotone(builtin("TV"), 1001)

    def test_flat_zero_generator_is_nondecreasing_only(self):
        flat = Generator("flat", lambda x: 0.0 * x, 0.0, None)
        assert check_monotone(flat, 101)
        strict_flat = Generator("flat+", lambda x: 0.0 * x, 0.0, 0.0)
        assert not check_monotone(strict_flat, 101)

    def test_decreasing_bound_detected(self):
        concave = Generator("cap", lambda x: -((x - 1.0) ** 2), -1.0, None)
        assert not check_monotone(concave, 101)

    def test_grid_size_domain(self):
        with pytest.raises(DomainError):
            check_monotone(builtin("KL"), 1)
        # grid_size float64 values in one array: numpy holds at most sys.maxsize bytes
        with pytest.raises(DomainError, match=f"^grid_size must be at most {sys.maxsize // 8}, "
                           f"got {10**30}$"):
            check_monotone(builtin("KL"), 10**30)

    def test_verdicts_match_scalar_loop(self):
        cliff = lambda x: np.where(x > 1.5, np.inf, (x - 1.0) ** 2)
        wiggle = lambda x: (x - 1.0) ** 2 + 1e-12 * np.sin(50.0 * (x - 1.0))
        generators = [builtin(name) for name in BUILTIN_NAMES]
        generators += [dual(f) for f in generators]
        generators += [
            Generator("flat", lambda x: 0.0 * x, 0.0, None),
            Generator("flat+", lambda x: 0.0 * x, 0.0, 0.0),
            Generator("cap", lambda x: -((x - 1.0) ** 2), -1.0, None),
            Generator("cliff", cliff, 1.0, None),
            Generator("cliff+", cliff, 1.0, 0.0),
            Generator("cliff-inf", cliff, math.inf, None),
            # phi rises to +inf, then drops to -inf: a pair of infinities the plain check skips
            Generator("flip", lambda x: np.where(x > 1.7, -np.inf, cliff(x)), 1.0, None),
            Generator("nan", lambda x: np.where(x > 1.8, np.nan, (x - 1.0) ** 2), 1.0, None),
            Generator("nan+", lambda x: np.where(x > 1.8, np.nan, (x - 1.0) ** 2), 1.0, 0.0),
            Generator("wiggle", wiggle, 1.0 + 1e-12 * math.sin(-50.0), None),
            Generator("wiggle+", wiggle, 1.0 + 1e-12 * math.sin(-50.0), 0.0),
        ]
        # increments of phi = 2*s*t**2 straddle the strict 1e-12 threshold
        generators += [
            Generator(f"small{s}", lambda x, s=s: s * (x - 1.0) ** 2, s, 0.0)
            for s in (1e-9, 1e-10, 2.5e-11, 1e-13)
        ]
        verdicts = set()
        for g in generators:
            for n in (2, 3, 11, 101, 1001):
                verdict = check_monotone(g, n)
                assert verdict == check_monotone_loop(g, n), (g.name, n)
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestInvert:
    def test_sh_matches_closed_form(self):
        cert = invert(builtin("SH"), 0.1)
        assert cert.tv_upper_bound == pytest.approx(BH_TIGHT_AT_01, abs=1e-8)
        assert cert.method == "numeric-inversion"
        assert cert.divergence_name == "SH"

    def test_zero_divergence_pins_zero_tv(self):
        for name in TABLE_NAMES:
            assert bits(invert(_table_generator(name), 0.0).tv_upper_bound) == bits(0.0), name

    def test_pearson_closed_form(self):
        assert invert(builtin("PE"), 0.5).tv_upper_bound == 1.0

    def test_tv_certifies_the_divergence_itself(self):
        rng = np.random.default_rng(5)
        ds = CERTIFY_GRID + rng.uniform(0.0, 2.0, 2000).tolist() + [2.0, 5e-324, 3 * 5e-324, 2.0**-1022]
        ds += (10.0 ** rng.uniform(-320.0, 0.0, 2000)).tolist()
        for f in (builtin("TV"), dual(builtin("TV"))):
            for d in ds:
                assert invert(f, d).tv_upper_bound == min(d, 2.0), d

    def test_infinite_divergence_gives_trivial_bound(self):
        for name in BUILTIN_NAMES:
            assert invert(builtin(name), math.inf).tv_upper_bound == 2.0

    def test_large_divergence_gives_trivial_bound(self):
        assert invert(builtin("KL"), 10.0).tv_upper_bound == 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            invert(builtin("KL"), -1.0)
        with pytest.raises(DomainError):
            invert(builtin("KL"), math.nan)
        for d in (-math.inf, math.nextafter(-1e-12, -1.0)):
            with pytest.raises(DomainError) as raised:
                invert(builtin("KL"), d)
            assert str(raised.value) == f"divergence values are nonnegative, got {d!r}"

    @pytest.mark.parametrize("d", (-1e-12, -1.0000000000000002e-12, -5e-324, -0.0, 0.0, 5e-324,
                                   math.inf, -math.inf, math.nan, -0.1))
    def test_closed_forms_take_the_same_divergence_values(self, d):
        # one rule for invert and the four closed forms: NaN and values below -1e-12 raise with
        # one message, and the rest of [-1e-12, 0], -0.0 included, counts as +0.0
        calls = (functools.partial(invert, builtin("SH")), functools.partial(invert, builtin("HE")),
                 bretagnolle_huber, bretagnolle_huber_certificate, hellinger_bound,
                 hellinger_certificate)
        if not d >= -1e-12:
            for call in calls:
                with pytest.raises(DomainError) as raised:
                    call(d)
                assert str(raised.value) == f"divergence values are nonnegative, got {d!r}"
            return
        clamped = d if d > 0.0 else 0.0
        for call in calls:
            got = call(d)
            assert repr(got) == repr(call(clamped)), call
            if isinstance(got, TvCertificate):
                assert bits(got.divergence_value) == bits(clamped), call

    def test_slightly_negative_clamps(self):
        for d in (-1e-13, -1e-12):
            assert bits(invert(builtin("KL"), d).divergence_value) == bits(0.0), d

    def test_negative_zero_becomes_positive_zero(self):
        chi = Generator("chi2", lambda x: (x - 1.0) ** 2, 1.0, 0.0)
        certificates = [invert(f, -0.0) for f in (*map(_table_generator, TABLE_NAMES), chi)]
        certificates += [bretagnolle_huber_certificate(-0.0), hellinger_certificate(-0.0)]
        for cert in certificates:
            assert bits(cert.divergence_value) == bits(0.0), cert

    def test_monotone_in_divergence(self):
        ds = np.linspace(0.0, 3.0, 31)
        for name in BUILTIN_NAMES:
            f = builtin(name)
            bounds = [invert(f, d).tv_upper_bound for d in ds]
            for u, v in zip(bounds, bounds[1:]):
                assert v >= u - 1e-12

    def test_custom_convex_generator_goes_through_grid_check(self):
        chi = Generator("chi2", lambda x: (x - 1.0) ** 2, 1.0, 0.0)
        assert invert(chi, 0.5).tv_upper_bound == pytest.approx(1.0, abs=1e-10)

    def test_non_monotone_custom_generator_rejected(self):
        concave = Generator("cap", lambda x: -((x - 1.0) ** 2), -1.0, None)
        with pytest.raises(NonMonotoneGenerator):
            invert(concave, 0.1)

    def test_certificate_is_sound_for_its_own_pair(self):
        mu, nu = pm(0.5, 0.5), pm(0.2, 0.8)
        for name in BUILTIN_NAMES:
            f = builtin(name)
            cert = invert(f, d_f(f, mu, nu).value)
            # TV <= invert(D_f): phi(TV/2) <= D_f and phi is nondecreasing, so TV lies in
            # the sub-level set whose supremum the certificate bounds from above.  A
            # rounding error e in D_f moves that supremum by at most 2e/phi'(TV/2); here
            # phi'(0.3) >= 0.3 and e is a few ULPs of values below 1, so under 1e-14
            assert tv_distance(mu, nu) <= cert.tv_upper_bound + 1e-8

    @given(probability_pairs())
    @settings(max_examples=100, deadline=None)
    def test_inversion_consistency(self, pair):
        mu, nu = pair
        t = tv_distance(mu, nu)
        for name in BUILTIN_NAMES:
            f = builtin(name)
            cert = invert(f, d_f(f, mu, nu).value)
            # TV <= invert(D_f), as in test_certificate_is_sound_for_its_own_pair; the
            # supremum moves by at most 2e/phi'(TV/2) for an error e in D_f.  HE and PE
            # have slope 0 at x = 1, so their terms err in proportion to |mu_i - nu_i|
            # and the shift stays near 1e-15; TV's D_f is the TV itself.  KL and SH have
            # slope 1 and -1 there, so the weights' mass error (sums off 1 by about
            # 1e-16) enters D_f to first order: on pairs closer than about 1e-7 in TV it
            # puts D_f below phi(TV/2) and the shift reaches 2.3e-8, a defect of d_f
            # that the examples drawn so far have not reached
            assert t <= cert.tv_upper_bound + 1e-8


# the d grid of the benchmark's certify workload: 0, 0.005, ..., 3.0
CERTIFY_GRID = [3.0 * k / 600 for k in range(601)]


def _fields_bits(cert):
    """A certificate's fields, its floats as IEEE bytes so that -0.0 and 0.0 differ."""
    return (cert.divergence_name, bits(cert.divergence_value), bits(cert.tv_upper_bound),
            cert.method)


def _table_generator(name):
    return dual(builtin(name[:-1])) if name.endswith("*") else builtin(name)


def _custom_generators():
    """Convex generators with no row in the table: one array-capable, one scalar-only."""
    return (Generator("chi2", lambda x: (x - 1.0) ** 2, 1.0, 0.0),
            Generator("js", lambda x: x * math.log(2.0 * x / (1.0 + x)) + math.log(2.0 / (1.0 + x)),
                      math.log(2.0), 0.0))


def _enclosure_inputs(f):
    """CERTIFY_GRID, 2,000 log-uniform d in [1e-300, phi(1)) (phi(1) capped at 40) and d just below phi(1)."""
    row = bounds._table_row(f)
    rng = np.random.default_rng(BUILTIN_NAMES.index(f.name.rstrip("*")))
    ds = CERTIFY_GRID + (10.0 ** rng.uniform(-300.0, math.log10(min(row.phi1, 40.0)), 2000)).tolist()
    if math.isfinite(row.phi1):
        below = [row.phi1]
        for _ in range(20):
            below.append(math.nextafter(below[-1], 0.0))
        return ds + below[1:] + [row.phi1 - 10.0 ** -k for k in range(1, 17)]
    return ds + [1e3, 1e10, 1e300, 1.7976931348623157e308]


@functools.lru_cache(maxsize=None)
def _supremum(name, d):
    return tv_supremum(name, d)


@pytest.fixture
def monotone_checks(monkeypatch):
    """The generators check_monotone is called on, in order."""
    checks = []

    def counted(f, grid_size):
        checks.append(f)
        return check_monotone(f, grid_size)

    monkeypatch.setattr(bounds, "check_monotone", counted)
    return checks


class TestSeededInversion:
    """Certificates from the table's inverses for the built-ins and duals; bisection otherwise."""

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_certificate_encloses_the_supremum(self, name):
        # The inverse errs by at most 2 ULPs and is raised by the row's n ULPs, so a first
        # check that passes keeps a point at most n + 2.5 ULPs above the supremum.  phi_t
        # errs by at most n ULPs and the check lowers it by n + 0.5 more, so every check
        # passes once phi exceeds d by 2n + 0.5 ULPs; phi grows at least like t**2 (TV's
        # and PE's checks are exact), so that happens within n + 0.25 ULPs of the
        # supremum, and the nudge past it adds one.  Below 2**-900, sqrt(k d) rounded up
        # is within 1.5 ULPs.  So n + 3 ULPs bound every certificate.
        f = _table_generator(name)
        row = bounds._table_row(f)
        margin = (row.ulps + 3) * 2.0**-52
        below, above = [], []
        for d in _enclosure_inputs(f):
            cert = invert(f, d).tv_upper_bound
            sup = _supremum(BOUND_FUNCTION_OF[name], d)
            if cert < sup:
                below.append(d)
            if cert > sup * (1 + margin):
                above.append(d)
        assert below == [] and above == [], (below[:5], above[:5])

    def test_tiny_and_subnormal_divergences_stay_sound(self):
        ds = [5e-324, 3 * 5e-324, 2.0**-1022, 1e-310, 2.0**-900, math.nextafter(2.0**-900, 0.0)]
        for name in TABLE_NAMES:
            f = _table_generator(name)
            for d in ds:
                assert invert(f, d).tv_upper_bound >= tv_supremum(name, d), (name, d)

    def test_inverse_lies_within_two_ulps(self):
        for name in ("TV", "PE", "SH", "HE", "KL", "PE*"):
            f = _table_generator(name)
            row = bounds._table_row(f)
            for d in CERTIFY_GRID[1::3] + [10.0 ** e for e in range(-270, 1, 3)]:
                if d < row.phi1:
                    exact = tv_supremum(name, d) / 2
                    assert abs(row.inverse(d) - exact) <= 2 * 2.0**-52 * exact, (name, d)

    @pytest.mark.parametrize("shift", (-1e-4, -3e-9, 3e-9, 1e-4))
    def test_a_wrong_inverse_costs_tightness_not_soundness(self, monkeypatch, shift):
        # a check that fails moves the certificate up; after the last nudge the quadratic
        # bound sqrt(k d) takes over, so no certificate falls below the supremum
        for name in ("TV", "PE", "SH", "HE", "KL", "PE*"):
            f = _table_generator(name)
            row = bounds._table_row(f)
            monkeypatch.setattr(row, "inverse", lambda d, inverse=row.inverse: inverse(d) + shift)
            for d in CERTIFY_GRID[1::5]:
                assert invert(f, d).tv_upper_bound >= _supremum(BOUND_FUNCTION_OF[name], d), (name, d)

    def test_table_rows_make_no_phi_calls(self, monkeypatch):
        phi_calls, phi_t_calls = [], []

        def counted(f, t):
            phi_calls.append(t)
            return phi(f, t)

        monkeypatch.setattr(bounds, "phi", counted)
        for name in TABLE_NAMES:
            f = _table_generator(name)
            row = bounds._table_row(f)
            monkeypatch.setattr(row, "phi_t", lambda t, phi_t=row.phi_t: phi_t_calls.append(t) or phi_t(t))
            for d in CERTIFY_GRID:
                phi_t_calls.clear()
                invert(f, d)
                assert len(phi_t_calls) <= 2, (name, d, len(phi_t_calls))
        assert phi_calls == []

    def test_kl_inverse_bit_identical_to_the_reference(self):
        rng = np.random.default_rng(53)
        ds = (2.0 ** rng.uniform(-900.0, math.log2(bounds._KL.phi1), 2000)).tolist()
        for d in ds + CERTIFY_GRID[1:]:
            assert bits(bounds._kl_inverse(d)) == bits(kl_inverse_reference(d)), d

    def test_table_certificates_are_the_certified_bound(self):
        # invert's table path builds its certificate without the class call; it must hold
        # what __init__ builds from the clamped value and the row's certified bound
        rng = np.random.default_rng(54)
        for name in TABLE_NAMES:
            f = _table_generator(name)
            row = bounds._table_row(f)
            top = math.log2(min(row.phi1, 2.0**10))
            ds = (2.0 ** rng.uniform(-900.0, top, 2000)).tolist() + CERTIFY_GRID
            ds += (-1e-12 * rng.uniform(0.0, 1.0, 50)).tolist() + [-1e-12, -5e-324, -0.0]
            for d in ds:
                clamped = max(0.0, float(d))
                same = TvCertificate(f.name, clamped, bounds._certify(row, clamped),
                                     "numeric-inversion")
                assert _fields_bits(invert(f, d)) == _fields_bits(same), (name, d)

    @pytest.mark.parametrize("attribute, patched, changed", (
        ("inverse", lambda original: lambda d: original(d) + 1e-4,
         ("TV", "PE", "SH", "HE", "KL", "PE*")),
        # every check then fails, and TV's fallback, d itself, is its exact bound
        ("phi_t", lambda original: lambda t: 0.5 * original(t), ("PE", "SH", "HE", "KL", "PE*")),
    ), ids=["inverse", "phi_t"])
    def test_patched_row_attributes_change_certificates(self, monkeypatch, attribute, patched,
                                                        changed):
        # the tests above that patch a row's inverse or phi_t exercise invert only if it
        # reads them on every call
        differ = []
        for name in ("TV", "PE", "SH", "HE", "KL", "PE*"):
            f = _table_generator(name)
            row = bounds._table_row(f)
            before = [invert(f, d) for d in CERTIFY_GRID[1::5]]
            monkeypatch.setattr(row, attribute, patched(getattr(row, attribute)))
            if [invert(f, d) for d in CERTIFY_GRID[1::5]] != before:
                differ.append(name)
        assert tuple(differ) == changed

    def test_custom_generators_bit_identical_to_plain_bisection(self):
        for f in _custom_generators():
            for d in CERTIFY_GRID[::10]:
                assert bits(invert(f, d).tv_upper_bound) == bits(invert_bisection(f, d)), (f.name, d)

    def test_tightness_gap_certifies_the_plain_bisection_bound(self):
        for f in _custom_generators():
            for budget in (0.0, 0.01, 0.3, 1.0, 2.5):
                certified, achieved, gap = tightness_gap(f, budget, 60)
                assert bits(certified) == bits(invert_bisection(f, budget))
                assert gap == certified - achieved

    def test_tightness_gap_certifies_the_table_bound(self):
        for name in TABLE_NAMES:
            f = _table_generator(name)
            for budget in (0.0, 0.01, 0.3, 1.0, 2.5):
                certified, achieved, gap = tightness_gap(f, budget, 60)
                assert bits(certified) == bits(invert(f, budget).tv_upper_bound)
                assert gap == certified - achieved

    def test_monotonicity_verdict_computed_once_per_generator(self, monotone_checks):
        g, h = _custom_generators()
        for d in (0.0, 0.1, 0.5, 1.0, math.inf):
            invert(g, d)
        assert monotone_checks == [g]
        invert(h, 0.1)
        invert(h, 0.2)
        assert monotone_checks == [g, h]
        for name in TABLE_NAMES:
            invert(_table_generator(name), 0.1)
        assert monotone_checks == [g, h]

    def test_non_monotone_generator_raises_on_every_call(self, monotone_checks):
        concave = Generator("cap", lambda x: -((x - 1.0) ** 2), -1.0, None)
        for _ in range(2):
            with pytest.raises(NonMonotoneGenerator):
                invert(concave, 0.1)
        assert monotone_checks == [concave]

    def test_table_row_resolved_once_per_generator(self, monkeypatch):
        looked_up = []

        def counted(f):
            looked_up.append(f)
            return table_row(f)

        table_row = bounds._table_row
        monkeypatch.setattr(bounds, "_table_row", counted)
        chi2 = Generator("chi2", lambda x: (x - 1.0) ** 2, 1.0, 0.0, math.inf)
        generators = [_table_generator(name) for name in TABLE_NAMES] + [chi2, dual(chi2)]
        for g in generators[:len(BUILTIN_NAMES)]:  # the built-ins are shared: drop their row
            monkeypatch.delitem(vars(g), "_bound_row", raising=False)
        for g in generators:
            for d in (0.0, 0.1, 0.5, math.inf):
                invert(g, d)
            assert g._bound_row is table_row(g)
        assert looked_up == generators
        assert [g._bound_row for g in generators[-2:]] == [None, None]

    def test_verdict_is_dropped_with_its_generator(self, monotone_checks):
        # the verdict lives on the generator object, so nothing else keeps the generator alive
        g = _custom_generators()[0]
        invert(g, 0.1)
        invert(g, 0.2)
        assert monotone_checks == [g]
        monotone_checks.clear()
        collected = weakref.ref(g)
        del g
        gc.collect()
        assert collected() is None


class TestBretagnolleHuber:
    def test_zero(self):
        assert bretagnolle_huber(0.0) == (0.0, 0.0)

    def test_infinite(self):
        assert bretagnolle_huber(math.inf) == (2.0, 2.0)

    def test_value(self):
        tight, loose = bretagnolle_huber(0.1)
        assert tight == pytest.approx(BH_TIGHT_AT_01, abs=1e-12)
        assert loose == pytest.approx(2.0 * math.sqrt(0.1), abs=1e-12)

    def test_tight_below_loose(self):
        for d in np.linspace(0.0, 10.0, 101):
            tight, loose = bretagnolle_huber(d)
            assert tight <= loose + 1e-12

    def test_agrees_with_numeric_inversion(self):
        for d in np.linspace(0.0, 10.0, 51):
            tight, _ = bretagnolle_huber(d)
            assert invert(builtin("SH"), d).tv_upper_bound == pytest.approx(tight, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            bretagnolle_huber(-0.1)

    def test_never_below_the_exact_bounds(self):
        # the certify grid, random values up to 40, and log-uniform values down to 1e-300
        rng = np.random.default_rng(2)
        grid = [3.0 * k / 600 for k in range(601)]
        grid += rng.uniform(0.0, 40.0, 20000).tolist() + (10.0 ** rng.uniform(-300, 0, 20000)).tolist()
        below = []
        with mpmath.workdps(50):
            for d in grid:
                tight, loose = bretagnolle_huber(d)
                x = mpmath.mpf(d)
                if tight < min(2 * mpmath.sqrt(-mpmath.expm1(-x)), 2) or loose < min(2 * mpmath.sqrt(x), 2):
                    below.append(d)
                assert tight <= loose
        assert below == []

    def test_certificate(self):
        cert = bretagnolle_huber_certificate(0.1)
        assert cert.method == "bretagnolle-huber"
        assert cert.tv_upper_bound == pytest.approx(BH_TIGHT_AT_01, abs=1e-12)


class TestHellingerBound:
    def test_piecewise_values(self):
        assert hellinger_bound(0.0) == 0.0
        assert hellinger_bound(0.25) == 1.5
        assert hellinger_bound(1.0) == 2.0
        assert hellinger_bound(2.0) == 2.0
        assert hellinger_bound(math.inf) == 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            hellinger_bound(-0.25)

    def test_dominates_numeric_inversion(self):
        for d in np.linspace(0.0, 2.0, 81):
            assert invert(builtin("HE"), d).tv_upper_bound <= hellinger_bound(d) + 1e-8

    def test_certificate(self):
        cert = hellinger_certificate(0.25)
        assert cert.method == "hellinger-closed-form"
        assert cert.tv_upper_bound == 1.5


class TestCertificate:
    def test_json_round_trip_is_exact(self):
        cert = invert(builtin("SH"), 0.1)
        encoded = json.dumps(cert.to_json_dict())
        assert TvCertificate.from_json_dict(json.loads(encoded)) == cert

    def test_infinite_value_encodes_as_inf_string(self):
        cert = invert(builtin("KL"), math.inf)
        data = cert.to_json_dict()
        assert data["value"] == "inf"
        assert TvCertificate.from_json_dict(data) == cert

    def test_rounded_encoding_round_trips_to_its_own_fields(self):
        cert = invert(builtin("SH"), 0.1)
        data = json.loads(json.dumps(cert.to_json_dict(precision=9)))
        again = TvCertificate.from_json_dict(data)
        assert again.to_json_dict(precision=9) == data

    def test_printed_bound_never_below_library_bound(self):
        ds = [k / 1000 for k in range(1, 2001)]  # 0.001, ..., 2.0
        for name in BUILTIN_NAMES:
            for d in ds:
                cert = invert(builtin(name), d)
                for precision in range(1, 18):
                    data = cert.to_json_dict(precision)
                    assert data["tv_upper_bound"] >= cert.tv_upper_bound, (name, d, precision)
                    assert data["value"] == float(f"{d:.{precision}g}")

    def test_range_validation(self):
        with pytest.raises(DomainError):
            TvCertificate("KL", 0.1, 2.5, "numeric-inversion")
        with pytest.raises(DomainError):
            TvCertificate("KL", math.nan, 1.0, "numeric-inversion")
        with pytest.raises(DomainError):
            TvCertificate("KL", -0.5, 1.0, "numeric-inversion")
        with pytest.raises(DomainError):
            TvCertificate("KL", 0.1, 1.0, "guesswork")

    def test_fields_are_frozen_and_in_order(self):
        cert = invert(builtin("KL"), 0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.tv_upper_bound = 1.0
        assert [f.name for f in dataclasses.fields(TvCertificate)] == [
            "divergence_name", "divergence_value", "tv_upper_bound", "method"]

    def test_invert_result_is_the_keyword_built_certificate(self):
        # the table path builds its certificate without the class call; it must be the same
        # object, down to the order of its fields, as __init__ builds from keywords
        ds = CERTIFY_GRID[::7] + [0.0, -0.0, 5e-324, 2.0**-900, math.inf]
        for name in TABLE_NAMES:
            for d in ds:
                cert = invert(_table_generator(name), d)
                same = TvCertificate(divergence_name=name, divergence_value=max(0.0, d),
                                     tv_upper_bound=cert.tv_upper_bound, method="numeric-inversion")
                assert cert == same and hash(cert) == hash(same) and repr(cert) == repr(same)
                assert list(vars(cert).items()) == list(vars(same).items())
                assert dataclasses.fields(cert) == dataclasses.fields(same)
                assert dataclasses.replace(cert) == cert
                with pytest.raises(dataclasses.FrozenInstanceError):
                    cert.tv_upper_bound = 1.0
                assert pickle.dumps(cert) == pickle.dumps(same)
                for copied in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert)):
                    assert copied == cert and _fields_bits(copied) == _fields_bits(cert)
                for precision in (None, *range(1, 18)):
                    assert cert.to_json_dict(precision) == same.to_json_dict(precision)
        assert repr(TvCertificate("KL", 0.1, 0.5, "numeric-inversion")) == (
            "TvCertificate(divergence_name='KL', divergence_value=0.1, tv_upper_bound=0.5, "
            "method='numeric-inversion')")

    def test_replace_runs_the_checks(self):
        cert = invert(builtin("KL"), 0.1)
        with pytest.raises(DomainError, match=r"^tv_upper_bound must lie in \[0, 2\], got 2\.5$"):
            dataclasses.replace(cert, tv_upper_bound=2.5)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("KL", -0.5, 1.0, "numeric-inversion"), "divergence values are nonnegative, got -0.5"),
            (("KL", 0.1, -1.0, "numeric-inversion"), "tv_upper_bound must lie in [0, 2], got -1.0"),
            (("KL", 0.1, 1.0, "guesswork"), "unknown certificate method 'guesswork'"),
            # checked in that order: a bad value is named before a bad bound or method
            (("KL", math.nan, math.nan, "guesswork"), "divergence values are nonnegative, got nan"),
            (("KL", math.nan, 1.0, "guesswork"), "divergence values are nonnegative, got nan"),
            (("KL", 0.1, 3.0, "guesswork"), "tv_upper_bound must lie in [0, 2], got 3.0"),
        ],
        ids=["value", "bound", "method", "all-three", "value-and-method", "bound-and-method"],
    )
    def test_check_messages_and_order(self, args, message):
        with pytest.raises(DomainError) as raised:
            TvCertificate(*args)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("value", "nan"),
            ("value", -5.0),
            ("value", "-inf"),
            ("value", True),
            ("value", {}),
            ("value", None),
            ("tv_upper_bound", "wide"),
            ("tv_upper_bound", None),
        ],
        ids=["nan", "negative", "minus-inf", "true", "object", "null", "tv-text", "tv-null"],
    )
    def test_bad_field_is_a_domain_error(self, field, bad):
        data = invert(builtin("KL"), 0.1).to_json_dict()
        data[field] = bad
        with pytest.raises(DomainError):
            TvCertificate.from_json_dict(data)

    @pytest.mark.parametrize("data", [{}, None, [], "cert"], ids=["empty", "null", "list", "text"])
    def test_malformed_document_is_a_domain_error(self, data):
        with pytest.raises(DomainError):
            TvCertificate.from_json_dict(data)
