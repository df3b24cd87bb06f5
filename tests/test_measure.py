"""Measures: construction, decomposition, and total variation representations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbound import (
    AbsoluteContinuityViolation,
    DomainError,
    HahnDecomposition,
    InvalidMeasure,
    ProbabilityMeasure,
    SignedMeasure,
    align,
    hahn_jordan,
    subset_extrema,
    subset_totals,
    total_variation_norm,
    tv_distance,
    tv_via_density,
)
from divbound.measure import _check_probability_weights, _ordered_sum
from helpers import (
    align_per_atom,
    align_union,
    atoms,
    balanced_signed_measures,
    bits,
    ordered_sum,
    pm,
    probability_pairs,
    probability_triples,
    signed_measures,
    sm,
)


class TestConstruction:
    def test_duplicate_atom_ids_rejected(self):
        with pytest.raises(InvalidMeasure):
            SignedMeasure(("a1", "a1"), [0.5, 0.5])

    def test_nan_weight_rejected(self):
        with pytest.raises(InvalidMeasure):
            sm(0.5, math.nan)

    def test_infinite_weight_rejected(self):
        with pytest.raises(InvalidMeasure):
            sm(0.5, math.inf)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidMeasure):
            SignedMeasure(("a1", "a2"), [1.0])

    def test_weights_are_read_only(self):
        m = sm(1.0, -1.0)
        with pytest.raises(ValueError):
            m.weights[0] = 2.0

    def test_probability_weights_must_be_nonnegative(self):
        with pytest.raises(InvalidMeasure):
            pm(1.5, -0.5)

    def test_probability_sum_tolerance(self):
        pm(0.5, 0.5 + 1e-10)  # inside 1e-9
        with pytest.raises(InvalidMeasure):
            pm(0.5, 0.4)

    def test_no_silent_renormalization(self):
        with pytest.raises(InvalidMeasure):
            pm(2.0, 2.0)

    def test_normalized_helper(self):
        m = ProbabilityMeasure.normalized([("a1", 2.0), ("a2", 2.0)])
        assert m.weight("a1") == 0.5

    def test_normalized_rejects_zero_mass(self):
        with pytest.raises(InvalidMeasure):
            ProbabilityMeasure.normalized([("a1", 0.0), ("a2", 0.0)])

    @pytest.mark.parametrize("w", (-0.5, math.inf, math.nan))
    def test_normalized_rejects_negative_and_non_finite_weights(self, w):
        with pytest.raises(InvalidMeasure, match="^normalize needs finite nonnegative weights$"):
            ProbabilityMeasure.normalized([("a1", 1.0), ("a2", w)])

    def test_non_numeric_weights_rejected(self):
        with pytest.raises(InvalidMeasure, match="^weights must be real numbers: "):
            SignedMeasure(("a1", "a2"), [0.5, "x"])

    def test_weight_of_missing_atom_is_zero(self):
        assert sm(1.0).weight("zz") == 0.0

    def test_value_equality(self):
        assert sm(1.0, -2.0) == sm(1.0, -2.0)
        assert sm(1.0, -2.0) != sm(1.0, -2.5)


class TestAlignment:
    def test_union_keeps_left_order_then_new_atoms(self):
        a = SignedMeasure(("x", "y"), [1.0, 2.0])
        b = SignedMeasure(("y", "z"), [5.0, 7.0])
        ids, wa, wb = align(a, b)
        assert ids == ("x", "y", "z")
        assert list(wa) == [1.0, 2.0, 0.0]
        assert list(wb) == [0.0, 5.0, 7.0]

    def test_subtraction_aligns(self):
        a = SignedMeasure(("x",), [1.0])
        b = SignedMeasure(("y",), [1.0])
        diff = a - b
        assert diff.atoms == ("x", "y")
        assert list(diff.weights) == [1.0, -1.0]

    @staticmethod
    def seeded_pair(rng, a_ids, b_ids):
        specials = [-0.0, 0.0, 5e-324, -5e-324]
        wa, wb = rng.standard_normal(len(a_ids)), rng.standard_normal(len(b_ids))
        wa[:4], wb[-4:] = specials, specials
        return SignedMeasure(a_ids, wa), SignedMeasure(b_ids, wb)

    @pytest.mark.parametrize("case", ("permutation", "partial overlap", "disjoint", "equal atoms",
                                      "same length, one atom differs"))
    def test_matches_the_union_loop(self, case):
        rng = np.random.default_rng(20112)
        ids = [f"a{i}" for i in range(10_000)]
        b_ids = {
            "permutation": [ids[i] for i in rng.permutation(len(ids))],
            "partial overlap": [ids[i] for i in rng.permutation(len(ids))[:6_000]]
                               + [f"b{i}" for i in range(3_000)],
            "disjoint": [f"b{i}" for i in range(5_000)],
            "equal atoms": list(ids),
            "same length, one atom differs": ids[1:] + ["b0"],
        }[case]
        pair = self.seeded_pair(rng, tuple(ids), tuple(b_ids))
        for a, b in (pair, pair[::-1]):
            got, expected = align(a, b), align_union(a, b)
            assert got[0] == expected[0]
            assert got[1].dtype == got[2].dtype == np.float64
            assert got[1].tobytes() == expected[1].tobytes()
            assert got[2].tobytes() == expected[2].tobytes()


class TestHahnJordan:
    def test_two_atom_example(self):
        parts = hahn_jordan(sm(0.25, -0.25))
        assert parts.positive_set == {"a1"}
        assert parts.negative_set == {"a2"}
        assert parts.upper.total() == 0.25
        assert parts.lower.total() == 0.25
        # cross-check against enumeration of all four subsets
        m = sm(0.25, -0.25)
        for subset in ([], ["a1"], ["a2"], ["a1", "a2"]):
            hi, lo = subset_extrema(m, subset)
            assert parts.upper.total(subset) == hi
            assert parts.lower.total(subset) == -lo

    def test_zero_measure(self):
        parts = hahn_jordan(sm(0.0, 0.0, 0.0))
        assert parts.positive_set == set(atoms(3))
        assert parts.negative_set == frozenset()
        assert parts.upper.total() == 0.0
        assert parts.lower.total() == 0.0

    def test_three_atom_example(self):
        m = sm(0.3, -0.1, -0.2)
        parts = hahn_jordan(m)
        hi, lo = subset_extrema(m)
        assert parts.upper.total() == hi == 0.3
        assert parts.lower.total() == -lo
        assert parts.lower.total() == pytest.approx(0.3, abs=1e-15)

    @given(signed_measures(max_atoms=8))
    @settings(max_examples=150, deadline=None)
    def test_decomposition_invariants(self, m):
        parts = hahn_jordan(m)
        assert parts.positive_set | parts.negative_set == set(m.atoms)
        assert not parts.positive_set & parts.negative_set
        assert np.all(parts.upper.weights >= 0.0)
        assert np.all(parts.lower.weights >= 0.0)
        assert np.array_equal(parts.upper.weights - parts.lower.weights, m.weights)

    @given(signed_measures(max_atoms=8))
    @settings(max_examples=60, deadline=None)
    def test_extrema_over_every_subset_exactly(self, m):
        # upper(A) = max_{B subset A} nu(B) and lower(A) = -min, bit for bit
        parts = hahn_jordan(m)
        totals = subset_totals(m)
        n = len(m)
        masks = np.arange(2**n)
        for mask_a in range(2**n):
            subset = [m.atoms[i] for i in range(n) if mask_a >> i & 1]
            inside = (masks & ~mask_a) == 0
            assert parts.upper.total(subset) == totals[inside].max()
            assert parts.lower.total(subset) == -totals[inside].min()

    def test_fixed_twelve_atom_case(self):
        rng = np.random.Generator(np.random.Philox(key=2024))
        m = SignedMeasure(atoms(12), rng.uniform(-1.0, 1.0, size=12))
        parts = hahn_jordan(m)
        hi, lo = subset_extrema(m)
        assert parts.upper.total() == hi
        assert parts.lower.total() == -lo


PARTITION = "positive and negative sets must partition the support"
SHARED = "upper and lower parts must share the support"
NONNEGATIVE = "upper and lower parts must be nonnegative"
UPPER_VANISHES = "upper part must vanish outside the positive set"
LOWER_VANISHES = "lower part must vanish outside the negative set"


class TestHahnDecompositionChecks:
    """Each invalid decomposition names the first check it fails, in a fixed order."""

    @staticmethod
    def parts(positive, negative, upper, lower, lower_atoms=("a1", "a2")):
        return (frozenset(positive), frozenset(negative), SignedMeasure(("a1", "a2"), upper),
                SignedMeasure(lower_atoms, lower))

    @pytest.mark.parametrize("fields, message", [
        ((["a1"], [], [0.5, 0.0], [0.0, 0.5]), PARTITION),  # an atom in neither set
        ((["a1", "a2"], ["a2"], [0.5, 0.0], [0.0, 0.5]), PARTITION),  # an atom in both
        ((["a1", "zz"], [], [0.5, 0.0], [0.0, 0.5]), PARTITION),  # sizes add up, a stranger in P
        ((["a1"], ["a2", "zz"], [0.5, 0.0], [0.0, 0.5]), PARTITION),  # a stranger in N
        ((["a1"], [], [-0.5, 0.5], [0.0, 0.5], ("a2", "a1")), PARTITION),  # before all others
        ((["a1"], ["a2"], [0.5, 0.0], [0.0, 0.5], ("a2", "a1")), SHARED),
        ((["a1"], ["a2"], [0.5, -0.5], [0.0, 0.5], ("a1", "a3")), SHARED),  # before the signs
        ((["a1"], ["a2"], [0.5, 0.0], [0.0, -0.5]), NONNEGATIVE),
        ((["a1"], ["a2"], [0.5, -0.5], [0.5, 0.5]), NONNEGATIVE),  # before the supports
        ((["a1"], ["a2"], [0.5, 0.5], [0.0, 0.5]), UPPER_VANISHES),
        ((["a1"], ["a2"], [0.5, 0.5], [0.5, 0.5]), UPPER_VANISHES),  # before the lower part
        ((["a1"], ["a2"], [0.5, 0.0], [0.5, 0.5]), LOWER_VANISHES),
    ])
    def test_first_failed_check_names_itself(self, fields, message):
        with pytest.raises(InvalidMeasure, match=f"^{message}$"):
            HahnDecomposition(*self.parts(*fields))

    def test_a_valid_decomposition_passes_every_check(self):
        parts = HahnDecomposition(*self.parts(["a1"], ["a2"], [0.5, 0.0], [0.0, 0.5]))
        assert parts == hahn_jordan(sm(0.5, -0.5))


class TestTotalVariationNorm:
    def test_examples(self):
        assert total_variation_norm(sm(0.25, -0.25)) == 0.5
        assert total_variation_norm(sm(0.0, 0.0)) == 0.0
        assert total_variation_norm(sm(0.3, -0.1, -0.2)) == pytest.approx(0.6, abs=1e-15)

    @given(signed_measures())
    @settings(max_examples=100, deadline=None)
    def test_equals_sum_of_absolute_weights(self, m):
        assert total_variation_norm(m) == pytest.approx(
            float(np.abs(m.weights).sum()), abs=1e-12
        )

    @given(balanced_signed_measures())
    @settings(max_examples=100, deadline=None)
    def test_balanced_norm_is_twice_sup_exactly(self, m):
        totals = subset_totals(m)
        assert total_variation_norm(m) == 2.0 * float(np.abs(totals).max())


class TestTvDistance:
    def test_half_example_and_subset_form(self):
        mu, nu = pm(0.5, 0.5), pm(0.25, 0.75)
        assert tv_distance(mu, nu) == 0.5
        totals = subset_totals(mu - nu)
        assert tv_distance(mu, nu) == 2.0 * float(np.abs(totals).max())

    def test_identical_measures(self):
        mu = pm(0.2, 0.3, 0.5)
        assert tv_distance(mu, mu) == 0.0

    def test_disjoint_supports_saturate(self):
        assert tv_distance(pm(1.0, 0.0), pm(0.0, 1.0)) == 2.0

    @given(probability_pairs())
    @settings(max_examples=150, deadline=None)
    def test_symmetry_exact(self, pair):
        mu, nu = pair
        assert tv_distance(mu, nu) == tv_distance(nu, mu)

    @given(probability_pairs(max_atoms=6))
    @settings(max_examples=100, deadline=None)
    def test_twice_subset_supremum_form(self, pair):
        mu, nu = pair
        totals = subset_totals(mu - nu)
        assert tv_distance(mu, nu) == pytest.approx(
            2.0 * float(np.abs(totals).max()), abs=1e-12
        )

    @given(probability_triples())
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12

    @given(probability_pairs())
    @settings(max_examples=150, deadline=None)
    def test_zero_iff_equal_weights(self, pair):
        mu, nu = pair
        if tv_distance(mu, nu) == 0.0:
            assert np.array_equal(mu.weights, nu.weights)
        assert tv_distance(mu, mu) == 0.0


class TestTvViaDensity:
    def test_matches_l1_form_on_example(self):
        mu, nu = pm(0.5, 0.5), pm(0.25, 0.75)
        assert tv_via_density(mu, nu) == tv_distance(mu, nu)

    def test_identical_measures(self):
        mu = pm(0.4, 0.6)
        assert tv_via_density(mu, mu) == 0.0

    def test_absolute_continuity_violation(self):
        with pytest.raises(AbsoluteContinuityViolation) as err:
            tv_via_density(pm(0.5, 0.5), pm(1.0, 0.0))
        assert err.value.atom == "a2"

    @given(probability_pairs())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_l1_form(self, pair):
        mu, nu = pair
        assert tv_via_density(mu, nu) == pytest.approx(tv_distance(mu, nu), abs=1e-12)


class TestSubsetEnumeration:
    def test_cap(self):
        with pytest.raises(DomainError):
            subset_totals(sm(*([1.0] * 21)))

    def test_totals_indexing(self):
        m = sm(1.0, -2.0)
        totals = subset_totals(m)
        assert list(totals) == [0.0, 1.0, -2.0, -1.0]


# weights with exact and signed zeros mixed in, for the order-sensitive sums
zero_or_weight = st.one_of(st.just(0.0), st.just(-0.0), st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
))


@st.composite
def measure_pairs(draw, max_atoms: int = 8, nonnegative: bool = False):
    """Two signed measures on overlapping supports in unrelated atom orders."""
    weights = zero_or_weight.map(abs) if nonnegative else zero_or_weight
    n = draw(st.integers(0, max_atoms))
    a = SignedMeasure(atoms(n), draw(st.lists(weights, min_size=n, max_size=n)))
    shared = draw(st.lists(st.sampled_from(a.atoms), unique=True)) if n else []
    extra = [f"b{i}" for i in range(draw(st.integers(0, 3)))]
    ids = draw(st.permutations(shared + extra))
    b = SignedMeasure(tuple(ids), draw(st.lists(weights, min_size=len(ids), max_size=len(ids))))
    return a, b


class TestOrderedSums:
    """The array forms of the sums equal a plain left-to-right loop, bit for bit."""

    @given(signed_measures(min_atoms=0), st.data())
    def test_total(self, m, data):
        keep = data.draw(st.lists(st.booleans(), min_size=len(m), max_size=len(m)))
        within = [a for a, k in zip(m.atoms, keep) if k]
        assert bits(m.total()) == bits(ordered_sum(m.weights))
        assert bits(m.total(within)) == bits(ordered_sum(w for a, w in m.items() if a in within))

    @given(measure_pairs())
    def test_tv_distance(self, pair):
        _, a, b = align_per_atom(*pair)
        expected = ordered_sum(abs(float(x) - float(y)) for x, y in zip(a, b))
        assert bits(tv_distance(*pair)) == bits(expected)

    @given(measure_pairs(nonnegative=True))
    def test_tv_via_density(self, pair):
        _, a, b = align_per_atom(*pair)
        if any(x > 0.0 and not y > 0.0 for x, y in zip(a, b)):
            with pytest.raises(AbsoluteContinuityViolation):
                tv_via_density(*pair)
            return
        # a ratio past the largest float gives d_f's term mu_i * f'(inf), which is mu_i for TV
        expected = ordered_sum(y * abs(x / y - 1.0) if x / y < math.inf else x
                               for x, y in zip(map(float, a), map(float, b)) if y > 0.0)
        assert bits(tv_via_density(*pair)) == bits(expected)

    @pytest.mark.parametrize("weights", [(), (-0.0,), (-0.0, -0.0), (0.0, -0.0), (-1.5, 1.5, -0.0)])
    def test_empty_and_negative_zero(self, weights):
        m, zero = sm(*weights), sm(*[0.0] * len(weights))
        assert bits(m.total()) == bits(ordered_sum(weights))
        assert bits(tv_distance(m, zero)) == bits(ordered_sum(abs(w) for w in weights))
        assert bits(tv_via_density(zero, sm(*[1.0] * len(weights)))) == bits(float(len(weights)))


    def test_rows_of_a_matrix(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((50, 7)) * 10.0 ** rng.integers(-8, 8, (50, 7))
        values[0] = -0.0
        got = _ordered_sum(values)
        assert [bits(x) for x in got.tolist()] == [bits(ordered_sum(row)) for row in values]

    @staticmethod
    def assert_rows_match(values):
        got = _ordered_sum(values)
        assert got.shape == values.shape[:-1]
        expected = [bits(ordered_sum(row)) for row in values.tolist()]
        assert [bits(x) for x in got.tolist()] == expected

    def test_empty_rows(self):
        self.assert_rows_match(np.zeros((5, 0)))

    def test_transposed_block(self):
        values = np.random.default_rng(4).standard_normal((9, 6)) * 1e3
        assert not values.T.flags.c_contiguous
        self.assert_rows_match(values.T)

    def test_large_vector_and_block(self):
        rng = np.random.default_rng(20091)
        vector = rng.standard_normal(100_000) * 10.0 ** rng.integers(-12, 12, 100_000)
        got = _ordered_sum(vector)
        assert type(got) is float
        assert bits(got) == bits(ordered_sum(vector.tolist()))
        self.assert_rows_match(rng.exponential(size=(4096, 64)))

    def test_negative_zero_rows(self):
        self.assert_rows_match(np.full((3, 4), -0.0))

    def test_overflow_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sm(1e308, 1e308).total() == math.inf
            assert sm(-1e308, -1e308, 1e308).total() == -math.inf
            rows = np.array([(1e308, 1e308, -1e308), (-1e308, -1e308, 1.0), (1.0, 2.0, 3.0)])
            self.assert_rows_match(rows)


class TestProbabilityRows:
    """Row checks raise where constructing each row as a ProbabilityMeasure would."""

    @pytest.mark.parametrize("bad", [(0.5, math.nan), (0.5, math.inf), (1.5, -0.5), (0.5, 0.5 + 2e-9)])
    def test_bad_row_raises_like_construction(self, bad):
        rows = np.array([(0.25, 0.75), bad, (0.5, 0.5)])
        # (rows, 2, n), as the sweep checks a block of (mu, nu) pairs at once
        pairs = np.array([[(0.25, 0.75), (0.5, 0.5)], [(0.5, 0.5), bad], [bad, (1.0, 0.0)]])
        with pytest.raises(InvalidMeasure) as from_measure:
            pm(*bad)
        for weights in (rows, pairs):
            with pytest.raises(InvalidMeasure) as from_rows:
                _check_probability_weights(weights)
            assert str(from_rows.value) == str(from_measure.value)

    def test_rows_within_tolerance_pass(self):
        _check_probability_weights(np.array([(0.25, 0.75), (0.5, 0.5 + 5e-10), (1.0, 0.0)]))
        _check_probability_weights(np.array([[(0.25, 0.75), (0.5, 0.5 + 5e-10)]]))


class TestAlignPerAtom:
    @given(measure_pairs())
    def test_matches_per_atom_construction(self, pair):
        for a, b in (pair, pair[::-1]):
            ids, wa, wb = align(a, b)
            ref_ids, ref_a, ref_b = align_per_atom(a, b)
            assert ids == ref_ids
            assert wa.tobytes() == ref_a.tobytes()
            assert wb.tobytes() == ref_b.tobytes()
