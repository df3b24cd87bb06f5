"""Divergence evaluation: values, conventions, duality, nonnegativity."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings

from divbound import (
    AbsoluteContinuityViolation,
    BUILTIN_NAMES,
    DivergenceValue,
    DomainError,
    Generator,
    ProbabilityMeasure,
    builtin,
    d_f,
    density_ratio,
    dual,
    hellinger,
    kl,
    pearson,
    random_pair,
    sh,
    tv,
    tv_distance,
    tv_via_density,
)
from divbound.divergence import _divergence_rows
from helpers import bits, pm, pm_normalized, probability_pairs

MU = pm(0.5, 0.5)
NU = pm(0.25, 0.75)

# 0.5*log(2) + 0.5*log(2/3), evaluated at 50 digits
KL_EXAMPLE = 0.14384103622589045


class TestDensityRatio:
    def test_example(self):
        assert density_ratio(MU, NU) == [("a1", 2.0), ("a2", 0.5 / 0.75)]

    def test_equal_measures(self):
        assert density_ratio(NU, NU) == [("a1", 1.0), ("a2", 1.0)]

    def test_common_null_atom_is_omitted(self):
        mu = ProbabilityMeasure(("a1", "a3"), [0.3, 0.7])
        nu = ProbabilityMeasure(("a1", "a2", "a3"), [0.3, 0.0, 0.7])
        assert density_ratio(mu, nu) == [("a1", 1.0), ("a3", 1.0)]

    def test_orphaned_mass_raises(self):
        with pytest.raises(AbsoluteContinuityViolation) as err:
            density_ratio(MU, pm(1.0, 0.0))
        assert err.value.atom == "a2"


class TestEvaluation:
    def test_kl_example(self):
        assert kl(MU, NU).value == pytest.approx(KL_EXAMPLE, abs=1e-12)

    def test_is_finite(self):
        assert kl(MU, NU).is_finite and DivergenceValue(0.0, "KL").is_finite
        assert not sh(pm(1.0, 0.0), pm(0.5, 0.5)).is_finite  # nu-mass where mu has none
        assert not DivergenceValue(math.inf, "PE").is_finite

    def test_zero_on_the_diagonal(self):
        m = pm(0.2, 0.3, 0.5)
        for name in BUILTIN_NAMES:
            assert d_f(builtin(name), m, m).value == 0.0

    def test_tv_generator_matches_distance(self):
        assert tv(MU, NU).value == pytest.approx(tv_distance(MU, NU), abs=1e-12)

    def test_pearson_example(self):
        assert pearson(MU, NU).value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_hellinger_self_distance(self):
        assert hellinger(NU, NU).value == 0.0

    def test_reverse_kl_blows_up_on_vanishing_mu(self):
        assert sh(pm(0.0, 1.0), pm(0.5, 0.5)).value == math.inf

    def test_kl_tolerates_vanishing_mu(self):
        # nu_i * f(0) = nu_i * 0 for KL
        assert kl(pm(0.0, 1.0), pm(0.5, 0.5)).value == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_absolute_continuity_enforced(self):
        for fn in (kl, sh, hellinger, pearson, tv):
            with pytest.raises(AbsoluteContinuityViolation):
                fn(MU, pm(1.0, 0.0))

    def test_value_carries_generator_name(self):
        assert kl(MU, NU).generator_name == "KL"
        assert float(kl(MU, NU)) == kl(MU, NU).value

    @given(probability_pairs())
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, pair):
        mu, nu = pair
        for name in BUILTIN_NAMES:
            assert d_f(builtin(name), mu, nu).value >= 0.0

    def test_nonnegative_seeded_sweep(self):
        # a negative value would mean the raw sum fell below the -1e-12 clamp
        generators = [builtin(name) for name in BUILTIN_NAMES]
        for k in range(10000):
            mu, nu = random_pair(2 + k % 7, 555 + k * (1 << 64))
            for f in generators:
                assert d_f(f, mu, nu).value >= 0.0

    @given(probability_pairs(max_atoms=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_high_precision_summation(self, pair):
        mu, nu = pair
        with mpmath.workdps(40):
            expected = float(
                mpmath.fsum(
                    mpmath.mpf(float(m)) * mpmath.log(mpmath.mpf(float(m)) / mpmath.mpf(float(n)))
                    for m, n in zip(mu.weights, nu.weights)
                )
            )
        assert kl(mu, nu).value == pytest.approx(expected, abs=1e-12)

    @given(probability_pairs())
    @settings(max_examples=100, deadline=None)
    def test_tv_generator_equals_distance(self, pair):
        mu, nu = pair
        assert tv(mu, nu).value == pytest.approx(tv_distance(mu, nu), abs=1e-12)


class TestRatioOverflow:
    """mu_1 / nu_1 lies past the largest float: the term is mu_1 times the slope at infinity."""

    MU, NU = pm(0.5, 0.5), pm(2.5e-309, 1.0)

    @staticmethod
    def exact(term):
        with mpmath.workdps(50):
            return mpmath.fsum(term(mpmath.mpf(float(m)), mpmath.mpf(float(n)))
                               for m, n in zip((0.5, 0.5), (2.5e-309, 1.0)))

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_total_variation_agrees_in_every_form(self):
        value = d_f(builtin("TV"), self.MU, self.NU).value
        assert tv_via_density(self.MU, self.NU) == tv_distance(self.MU, self.NU) == value == 1.0

    @pytest.mark.parametrize("name, term", [
        ("TV", lambda m, n: abs(m - n)),
        ("HE", lambda m, n: (mpmath.sqrt(m) - mpmath.sqrt(n)) ** 2),
        ("SH", lambda m, n: n * mpmath.log(n / m)),
    ])
    def test_finite_slopes_give_the_exact_value(self, name, term):
        expected = self.exact(term)
        for f, mu, nu in ((builtin(name), self.MU, self.NU), (dual(builtin(name)), self.NU, self.MU)):
            got = d_f(f, mu, nu).value
            assert abs(got - expected) <= 1e-15 * expected

    @pytest.mark.parametrize("name", ["KL", "PE"])
    def test_infinite_slopes_read_inf(self, name):
        assert d_f(builtin(name), self.MU, self.NU).value == math.inf
        assert d_f(dual(builtin(name)), self.NU, self.MU).value == math.inf

    def test_a_generator_without_a_slope_reads_inf(self):
        chi = Generator("chi", lambda x: (x - 1.0) ** 2, 1.0, 0.0)
        assert d_f(chi, self.MU, self.NU).value == math.inf
        assert d_f(chi, self.MU, self.MU).value == 0.0

    def test_infinite_terms_of_one_sign_sum_to_inf(self):
        # the overflowing SH term is 0, not -inf, so the atom where mu vanishes gives +inf
        mu, nu = pm(0.5, 0.5, 0.0), pm(2.5e-309, 0.5, 0.5)
        assert sh(mu, nu).value == math.inf

    def test_density_ratio_reads_inf(self):
        assert density_ratio(self.MU, self.NU) == [("a1", math.inf), ("a2", 0.5)]


class TestDuality:
    @given(probability_pairs())
    @settings(max_examples=100, deadline=None)
    def test_shannon_is_reversed_kl(self, pair):
        mu, nu = pair
        assert sh(mu, nu).value == pytest.approx(kl(nu, mu).value, abs=1e-12)

    @given(probability_pairs(max_atoms=6))
    @example((pm(1.42836738e-04, 9.99857163e-01), pm(0.75, 0.25)))
    @settings(max_examples=60, deadline=None)
    def test_dual_generator_swaps_arguments(self, pair):
        # the conjugate sums the base generator's terms of the swapped pair
        mu, nu = pair
        for name in BUILTIN_NAMES:
            f = builtin(name)
            assert d_f(dual(f), mu, nu).value == d_f(f, nu, mu).value

    def test_dual_kl_is_infinite_where_mu_misses_nu_mass(self):
        # sum_i nu_i * f*(mu_i / nu_i) with f*(0) = slope_at_inf(KL) = inf
        assert d_f(dual(builtin("KL")), pm(0.0, 1.0), pm(0.5, 0.5)).value == math.inf

    def test_dual_weighs_missing_mass_by_the_slope(self):
        # dual(HE)(0) = slope_at_inf(HE) = 1, so the a1 term is 0.5 * 1
        mu, nu = pm(0.0, 1.0), pm(0.5, 0.5)
        expected = math.fsum([0.5, 1.0 * builtin("HE").eval_array(np.array([0.5 / 1.0]))[0]])
        assert d_f(dual(builtin("HE")), mu, nu).value == expected


class TestRowSums:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_two_atom_rows_match_per_row_fsum(self, name):
        grid = np.arange(1, 401) / 401.0
        p, q = np.repeat(grid, grid.size), np.tile(grid, grid.size)
        a, b = np.stack([p, 1.0 - p], axis=-1), np.stack([q, 1.0 - q], axis=-1)
        for f in (builtin(name), dual(builtin(name))):
            base, x, w = (f.base, b, a) if f.base is not None else (f, a, b)
            terms = w * base.eval_array(x / w)
            expected = [math.fsum(row) for row in terms.tolist()]
            got = _divergence_rows(f, a, b)
            assert [bits(v) for v in got.tolist()] == [bits(v) for v in expected]

    @pytest.mark.parametrize("width", (3, 8))
    def test_wide_rows_match_the_one_pair_kernel(self, width):
        rng = np.random.default_rng(width)
        a, b = rng.dirichlet(np.ones(width), 200), rng.dirichlet(np.ones(width), 200)
        a[:20, 0] = 0.0  # atoms without mu-mass reach a conjugate's slope term
        for name in BUILTIN_NAMES:
            for f in (builtin(name), dual(builtin(name))):
                got = _divergence_rows(f, a, b)
                expected = [_divergence_rows(f, x[None], y[None])[0] for x, y in zip(a, b)]
                assert [bits(v) for v in got.tolist()] == [bits(v) for v in expected]

    @pytest.mark.parametrize("n", (2, 3))
    def test_one_pair_sums_with_fsum_at_every_width(self, n):
        # terms of +inf and -inf, which only a generator that is not convex gives: fsum's
        # error becomes a DomainError naming the generator, in d_f and in the sweeps' blocks
        def step(x):
            return np.where(x == 1.0, 0.0, np.where(x > 1.0, np.inf, -np.inf))

        g = Generator("nonconvex", step, 0.0, None, 1.0)
        mu, nu = pm(*[0.25] * (n - 1), 1.0 - 0.25 * (n - 1)), pm(*[1.0 / n] * n)
        message = "generator {!r} gives terms +inf and -inf, whose sum is undefined"
        for f, a, b in ((g, mu, nu), (dual(g), nu, mu)):
            with pytest.raises(DomainError) as raised:
                d_f(f, a, b)
            assert str(raised.value) == message.format(f.name)
        a, b = np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DomainError) as raised:
            _divergence_rows(g, a, b)
        assert str(raised.value) == message.format("nonconvex")

    def test_nan_terms_give_nan_as_in_fsum(self):
        # a NaN term without both infinities is no conflict: fsum returns NaN for its row
        def nan_above_one(x):
            return np.where(x > 1.0, np.nan, np.where(x < 1.0, np.inf, 0.0))

        g = Generator("nan", nan_above_one, math.inf, None, 1.0)
        for width in (2, 3):
            a = np.array([[0.5] + [0.5 / (width - 1)] * (width - 1), [1.0 / width] * width])
            b = np.array([[0.25] + [0.75 / (width - 1)] * (width - 1), [1.0 / width] * width])
            got = _divergence_rows(g, a, b)
            assert math.isnan(got[0]) and bits(got[1]) == bits(0.0)

    def test_negative_zero_terms_sum_to_positive_zero(self):
        g = Generator("negzero", lambda x: -0.0 * (x - 1.0) ** 2, -0.0, None)
        got = _divergence_rows(g, np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))
        assert bits(got[0]) == bits(math.fsum([-0.0, -0.0]))

    def test_roundoff_below_zero_is_clamped_in_every_form(self):
        # weights that do not sum to one make KL's sum slightly negative
        kl_ = builtin("KL")
        for eps, expected in ((1e-13, 0.0), (1e-6, None)):
            a, b = np.array([0.5, 0.5 - eps]), np.array([0.5, 0.5])
            raw = math.fsum((a * np.log(a / b)).tolist())
            assert raw < 0.0
            want = raw if expected is None else expected
            if expected is not None:  # d_f's measures sum to 1 within 1e-9
                assert bits(d_f(kl_, pm(*a), pm(*b)).value) == bits(want)
            wide_a, wide_b = np.array([[0.25, 0.25, 0.5 - eps]]), np.array([[0.25, 0.25, 0.5]])
            rows = (_divergence_rows(kl_, a[None, :], b[None, :]),
                    _divergence_rows(kl_, wide_a, wide_b),
                    _divergence_rows(dual(kl_), b[None, :], a[None, :]))
            for got in rows:
                assert got.shape == (1,)
                assert got[0] == want and got[0] <= 0.0


class TestSeparationConsequence:
    @given(probability_pairs())
    @example((pm_normalized(0.1999998, 0.0999999, 0.2000008, 0.2999997, 0.1999998),
              pm_normalized(0.2000006, 0.0999998, 0.2000006, 0.2999994, 0.1999996)))
    @settings(max_examples=150, deadline=None)
    def test_tiny_divergence_forces_tiny_distance(self, pair):
        # HE, KL, PE and SH all have phi(t) >= t**2/2 with t = TV/2, so
        # D_f <= 1e-12 gives TV <= 2*sqrt(2e-12) = 2.8284e-6; the limit adds
        # 0.05% for rounding in the computed divergence. The example has HE
        # 9.99999e-13 at TV 1.6e-6, so a limit of 1e-6 would be false.
        mu, nu = pair
        for name in ("HE", "KL", "PE", "SH"):
            if d_f(builtin(name), mu, nu).value <= 1e-12:
                assert tv_distance(mu, nu) <= 2.83e-6

    @given(probability_pairs())
    @settings(max_examples=150, deadline=None)
    def test_separated_measures_have_positive_divergence(self, pair):
        mu, nu = pair
        if tv_distance(mu, nu) >= 1e-3:
            for name in ("HE", "KL", "PE", "SH"):
                assert d_f(builtin(name), mu, nu).value > 1e-12
