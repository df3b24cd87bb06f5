"""Generators: the built-in table, the dual transform, and separation checks."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbound import (
    BUILTIN_NAMES,
    DomainError,
    Generator,
    UnknownGenerator,
    builtin,
    check_separation,
    default_grid,
    dual,
    is_builtin,
)
from helpers import check_separation_loop

ALL = [builtin(name) for name in BUILTIN_NAMES]
POSITIVE_GRID = default_grid()[1:]  # (0, 10] in steps of 0.01


class TestBuiltins:
    def test_pearson_value(self):
        assert builtin("PE")(3.0) == 4.0

    def test_shannon_is_positive_zero_at_one(self):
        sh = builtin("SH")
        assert math.copysign(1.0, sh(1.0)) == 1.0
        assert math.copysign(1.0, sh.eval_array(np.array([1.0]))[0]) == 1.0

    def test_all_vanish_at_one_exactly(self):
        for f in ALL:
            assert f(1.0) == 0.0

    def test_shannon_value(self):
        assert builtin("SH")(0.5) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_values_at_zero(self):
        expected = {"HE": 1.0, "TV": 1.0, "KL": 0.0, "PE": 1.0, "SH": math.inf}
        for name, v in expected.items():
            f = builtin(name)
            assert f.value_at_zero == v
            assert f(0.0) == v

    def test_separation_coefficients(self):
        stored = {name: builtin(name).separation_coefficient for name in BUILTIN_NAMES}
        assert stored == {"HE": 0.0, "TV": None, "KL": 1.0, "PE": 0.0, "SH": -1.0}

    def test_case_insensitive_lookup(self):
        assert builtin("kl") is builtin("KL")

    def test_unknown_name(self):
        with pytest.raises(UnknownGenerator):
            builtin("JS")

    def test_is_builtin(self):
        assert is_builtin(builtin("HE"))
        assert not is_builtin(Generator("HE", lambda x: (np.sqrt(x) - 1) ** 2, 1.0, 0.0))

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            builtin("KL")(-0.1)
        with pytest.raises(DomainError):
            builtin("KL").eval_array(np.array([0.5, -0.1]))

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError):
            builtin("KL")(math.nan)

    @pytest.mark.parametrize("x", ([math.nan], [0.5, math.nan], [-5e-324], [1.0, -5e-324],
                                   math.nan, -5e-324, [[0.5], [-math.inf]]))
    def test_eval_array_rejects_nan_and_negative_arguments(self, x):
        for f in ALL:
            with pytest.raises(DomainError, match=r"is defined on \[0, inf\)$"):
                f.eval_array(np.array(x))

    def test_eval_array_maps_negative_zero_to_the_limit_at_zero(self):
        for f in ALL:
            got = f.eval_array(np.array([-0.0, 0.0, 1.0]))
            assert got.dtype == np.float64
            assert got.tobytes() == np.array([f(-0.0), f(0.0), f(1.0)]).tobytes()
            zero = f.eval_array(np.array(-0.0))
            assert zero.shape == () and zero.tobytes() == np.float64(f.value_at_zero).tobytes()
        integer_limit = Generator("intlimit", lambda x: (x - 1.0) ** 2, 1)
        assert integer_limit.eval_array(np.zeros(2)).dtype == np.float64

    def test_eval_array_of_an_empty_array(self):
        for f in ALL:
            for shape in ((0,), (0, 3)):
                got = f.eval_array(np.empty(shape))
                assert got.shape == shape and got.dtype == np.float64

    @pytest.mark.parametrize("f", ALL + [dual(f) for f in ALL], ids=lambda f: f.name)
    def test_builtins_and_duals_are_positive_zero_at_one(self, f):
        # the built-ins skip the construction probe at 1 on the strength of this
        for value in (f(1.0), f.eval_array([1.0])[0]):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_must_vanish_at_one(self):
        with pytest.raises(DomainError):
            Generator("affine", lambda x: x, 1.0)
        with pytest.raises(DomainError, match="must vanish at 1"):
            Generator("shifted", lambda x: x * np.log(x) + 1e-300, 0.0)

    def test_custom_generators_are_probed_at_one(self):
        class Probed:  # defines __eq__, so it is unhashable
            def __init__(self):
                self.probes = []

            def __eq__(self, other):
                return self is other

            def __call__(self, x):
                self.probes.append(x)
                return (x - 1.0) ** 2

        fn = Probed()
        Generator("pe", fn, 1.0)
        assert fn.probes == [1.0]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_midpoint_convexity_on_grid(self, name):
        f = builtin(name)
        xs = default_grid()
        vals = f.eval_array(xs)
        mids = 0.5 * (xs[:, None] + xs[None, :])
        mid_vals = f.eval_array(mids.ravel()).reshape(mids.shape)
        rhs = 0.5 * (vals[:, None] + vals[None, :])
        assert np.all(mid_vals <= rhs + 1e-12)

    def test_eval_array_matches_scalar_calls(self):
        xs = np.array([0.0, 0.5, 1.0, 2.0, 7.5])
        for f in ALL:
            assert np.array_equal(f.eval_array(xs), np.array([f(x) for x in xs]))

    def test_squares_round_alike_on_scalars_and_arrays(self):
        # a float ** 2 goes through libm pow, which rounds some squares apart from
        # y * y and raises OverflowError for |y| above 1.34e154
        xs = np.array([1e300, 7.25, 0.123456789, 1e-300])
        for f in ALL:
            assert f.eval_array(xs).tobytes() == np.array([f(x) for x in xs.tolist()]).tobytes()
        assert builtin("PE")(1e300) == math.inf

    def test_eval_array_scalar_only_function(self):
        g = Generator("logchord", lambda x: math.log(x) * (x - 1.0), math.inf)
        xs = np.array([0.5, 1.0, 2.0])
        assert np.allclose(g.eval_array(xs), [g(x) for x in xs])

    def test_eval_array_falls_back_when_an_array_gives_the_wrong_shape(self):
        # np.sum returns one number for an array, so each positive entry is evaluated alone
        g = Generator("summed", lambda x: np.sum((np.asarray(x) - 1.0) ** 2), 1.0, 0.0)
        assert g.eval_array(np.array([0.0, 0.5, 1.0, 3.0])).tolist() == [1.0, 0.25, 0.0, 4.0]


class TestDual:
    def test_tv_is_self_dual(self):
        f, fd = builtin("TV"), dual(builtin("TV"))
        for x in POSITIVE_GRID:
            assert fd(x) == pytest.approx(abs(1.0 - x), abs=1e-12)
            assert fd(x) == pytest.approx(f(x), abs=1e-12)

    def test_hellinger_is_self_dual(self):
        f, fd = builtin("HE"), dual(builtin("HE"))
        for x in POSITIVE_GRID:
            assert fd(x) == pytest.approx(f(x), abs=1e-12)

    def test_dual_of_kl_is_shannon(self):
        fd = dual(builtin("KL"))
        assert fd(0.5) == pytest.approx(0.6931471805599453, abs=1e-12)
        sh = builtin("SH")
        for x in POSITIVE_GRID:
            assert fd(x) == pytest.approx(sh(x), abs=1e-11)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_involution_on_positive_grid(self, name):
        f = builtin(name)
        fdd = dual(dual(f))
        for x in POSITIVE_GRID:
            assert fdd(x) == pytest.approx(f(x), abs=1e-10)

    def test_probed_limits_at_zero(self):
        # exact, not probed: the dual's limit at 0+ is the stored slope at infinity
        assert dual(builtin("PE")).value_at_zero == math.inf
        assert dual(builtin("TV")).value_at_zero == 1.0
        assert dual(builtin("HE")).value_at_zero == 1.0
        assert dual(builtin("KL")).value_at_zero == math.inf
        assert dual(builtin("KL"))(0.0) == math.inf

    def test_dual_of_shannon_is_nonnegative_at_zero(self):
        fd = dual(builtin("SH"))
        assert fd.value_at_zero == 0.0
        assert math.copysign(1.0, fd(0.0)) == 1.0

    def test_exact_metadata_table(self):
        # name: (value_at_zero, slope_at_inf, separation_coefficient) of f and then of dual(f)
        table = {
            "HE": ((1.0, 1.0, 0.0), (1.0, 1.0, -0.0)),
            "TV": ((1.0, 1.0, None), (1.0, 1.0, None)),
            "KL": ((0.0, math.inf, 1.0), (math.inf, 0.0, -1.0)),
            "PE": ((1.0, math.inf, 0.0), (math.inf, 1.0, -0.0)),
            "SH": ((math.inf, 0.0, -1.0), (0.0, math.inf, 1.0)),
        }
        for name, (own, conjugate) in table.items():
            f = builtin(name)
            fd = dual(f)
            assert (f.value_at_zero, f.slope_at_inf, f.separation_coefficient) == own
            assert (fd.value_at_zero, fd.slope_at_inf, fd.separation_coefficient) == conjugate
            assert f.base is None
            assert fd.base is f

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_dual_of_dual_is_the_generator_itself(self, name):
        f = builtin(name)
        assert dual(dual(f)) is f

    def test_generator_without_slope_has_no_dual(self):
        g = Generator("logchord", lambda x: math.log(x) * (x - 1.0), math.inf)
        assert g.slope_at_inf is None
        with pytest.raises(DomainError):
            dual(g)

    def test_custom_generator_with_slope(self):
        g = Generator("pe2", lambda x: 2.0 * (x - 1.0) ** 2, 2.0, 0.0, math.inf)
        gd = dual(g)
        assert (gd.value_at_zero, gd.slope_at_inf) == (math.inf, 2.0)
        assert gd(0.5) == 0.5 * g(2.0)

    def test_coefficient_flips_sign(self):
        assert dual(builtin("KL")).separation_coefficient == -1.0
        assert dual(builtin("SH")).separation_coefficient == 1.0
        assert dual(builtin("PE")).separation_coefficient == 0.0
        assert dual(builtin("TV")).separation_coefficient is None

    def test_default_name(self):
        assert dual(builtin("KL")).name == "KL*"


# the points where the 1e-3 rule switches, and neighbours on both sides of 1
NEAR_ONE_GRID = [1.0 - 2e-3, 1.0 - 1e-3, 1.0 - 5e-4, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 5e-4,
                 1.0 + 1e-3, 1.0 + 2e-3]
COEFFICIENTS = [-2.0, -1.0, -0.5, 0.0, 1e-13, 0.5, 1.0, 2.0, math.inf, math.nan]


class TestSeparation:
    def test_kl_with_unit_coefficient(self):
        assert check_separation(builtin("KL"), 1.0, default_grid())

    def test_pearson_with_zero_coefficient(self):
        assert check_separation(builtin("PE"), 0.0, default_grid())

    def test_tv_with_unit_coefficient_fails(self):
        # g(x) = |x-1| - (x-1) vanishes identically for x >= 1
        assert not check_separation(builtin("TV"), 1.0, default_grid())

    def test_shannon_needs_negative_coefficient(self):
        assert check_separation(builtin("SH"), -1.0, default_grid())
        assert not check_separation(builtin("SH"), 0.0, default_grid())

    def test_every_stored_coefficient_passes(self):
        for f in ALL:
            if f.separation_coefficient is not None:
                assert check_separation(f, f.separation_coefficient, default_grid())

    @given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_pearson_separates_for_small_coefficients(self, a):
        # (x-1)^2 - a(x-1) stays separating while |a| is small relative to the grid
        grid = [0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0]
        expected = all(
            (x - 1.0) ** 2 - a * (x - 1.0) > 1e-12 for x in grid if abs(x - 1.0) >= 1e-3
        )
        assert check_separation(builtin("PE"), a, grid) == expected
        assert check_separation_loop(builtin("PE"), a, grid) == expected

    @pytest.mark.parametrize("f", ALL + [dual(f) for f in ALL], ids=lambda f: f.name)
    def test_verdicts_match_scalar_loop(self, f):
        grids = [default_grid(), NEAR_ONE_GRID, [], [1.0], [0.0, 1.0, 1e300]]
        for a in COEFFICIENTS + [f.separation_coefficient or 0.0]:
            for grid in grids:
                assert check_separation(f, a, grid) == check_separation_loop(f, a, grid), (a, grid)

    @pytest.mark.parametrize("f, verdict", [
        # NaN only within 5e-4 of 1, where the check asks for g >= -1e-12 alone: passes
        (Generator("nan-near-1", lambda x: np.where((x != 1.0) & (np.abs(x - 1.0) < 5e-4),
                                                    np.nan, (x - 1.0) ** 2), 1.0), True),
        # NaN only above 5, where the check asks for g > 1e-12: fails
        (Generator("nan-above-5", lambda x: np.where(x > 5.0, np.nan, (x - 1.0) ** 2), 1.0), False),
    ], ids=("nan-near-1", "nan-above-5"))
    def test_nan_verdicts_match_scalar_loop(self, f, verdict):
        for grid in (default_grid(), NEAR_ONE_GRID):
            for a in (0.0, 0.5):
                assert check_separation(f, a, grid) == check_separation_loop(f, a, grid)
        assert check_separation(f, 0.0, NEAR_ONE_GRID + [7.0]) is verdict

    def test_grid_point_outside_the_domain_raises(self):
        for bad in (-0.5, math.nan):
            with pytest.raises(DomainError):
                check_separation(builtin("PE"), 0.0, [0.5, bad, 2.0])

    def test_accepts_any_iterable_grid(self):
        grid = [0.0, 0.5, 2.0, 5.0]
        for g in (grid, tuple(grid), iter(grid), np.array(grid), (x for x in grid)):
            assert check_separation(builtin("KL"), 1.0, g)


class TestDefaultGrid:
    def test_points(self):
        assert default_grid(1.0, 0.25).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert default_grid(0.0).tolist() == [0.0]
        assert len(default_grid()) == 1001

    @pytest.mark.parametrize("stop, step", [
        (10.0, 0.0), (-1.0, 0.01), (10.0, math.nan), (math.inf, 0.01),
        (math.nan, 0.01), (10.0, -0.01), (10.0, math.inf),
    ])
    def test_stop_and_step_outside_the_domain_raise(self, stop, step):
        with pytest.raises(DomainError, match=r"^grid needs a finite stop >= 0 and step > 0, got "):
            default_grid(stop, step)

    def test_more_points_than_numpy_can_hold_raise(self):
        # stop / step + 1 float64 values in one array: numpy holds at most sys.maxsize bytes
        with pytest.raises(DomainError, match=f"^stop / step must be at most {sys.maxsize // 8 - 1}, "
                           f"got {10**19}$"):
            default_grid(10.0, 1e-18)
        with pytest.raises(DomainError, match=r"^stop / step must be finite, got 1e\+300 / 1e-300$"):
            default_grid(1e300, 1e-300)
