"""Random pair generation, binary scans, soundness sweeps, tightness search."""

import io
import math
import sys
from array import array
from itertools import chain

import numpy as np
import pytest

from divbound import (
    BUILTIN_NAMES,
    DomainError,
    Generator,
    ScanRecord,
    builtin,
    d_f,
    dual,
    lower_bound,
    phi,
    random_pair,
    scan_binary,
    scan_to_csv,
    tightness_gap,
    verify_bound,
)
from divbound import jointrange
from divbound.jointrange import _exponential_stream
from helpers import (
    bits,
    normalized_pair,
    pm,
    scan_binary_grid,
    scan_to_csv_cells,
    table_floors,
    tightness_gap_rows,
    verify_bound_loop,
)

# 0.5*log(4/3) and phi_KL(0.25), both at 50 digits
KL_EXAMPLE = 0.14384103622589045
PHI_KL_QUARTER = 0.0631678848039265
SLACK_EXAMPLE = 0.08067315142196396

WITH_DUALS = [builtin(name) for name in BUILTIN_NAMES]
WITH_DUALS += [dual(f) for f in WITH_DUALS]


class TestRandomPair:
    def test_deterministic_per_seed(self):
        a = random_pair(4, 123)
        b = random_pair(4, 123)
        assert a == b
        assert np.array_equal(a[0].weights, b[0].weights)

    def test_different_seeds_differ(self):
        assert random_pair(2, 5) != random_pair(2, 6)

    def test_valid_probability_measures(self):
        mu, nu = random_pair(3, 99)
        assert abs(mu.total() - 1.0) <= 1e-9
        assert abs(nu.total() - 1.0) <= 1e-9

    def test_nu_floor(self):
        for seed in range(20):
            _, nu = random_pair(5, seed)
            assert np.all(nu.weights >= 1e-9)

    def test_domain(self):
        for n in (1, 0, -3):
            with pytest.raises(DomainError, match="^n must be at least 2$"):
                random_pair(n, 0)
        with pytest.raises(DomainError):
            random_pair(3, -1)
        with pytest.raises(DomainError):
            random_pair(3, 1 << 128)
        # 2n float64 variates in one array: numpy holds at most sys.maxsize bytes
        with pytest.raises(DomainError, match=f"^n must be at most {sys.maxsize // 16}, got "
                           f"{10**30}$"):
            random_pair(10**30, 0)

    @pytest.mark.parametrize("seed", (0, (1 << 64) - 1, 1 << 64, (1 << 64) + 5, (1 << 128) - 1))
    @pytest.mark.parametrize("n", (2, 5, 64))
    def test_equals_fresh_philox_stream(self, seed, n):
        # random_pair reads row 0 of the sweep's re-keyed rows; a fresh generator and the
        # normalization spelled out in helpers are the oracle
        fresh = np.random.Generator(np.random.Philox(key=seed))
        want = normalized_pair(fresh.standard_exponential(2 * n, method="inv"))
        for got, w in zip(random_pair(n, seed), want):
            assert got.weights.tobytes() == w.tobytes()


class TestScanBinary:
    def test_tv_generator_has_zero_slack(self):
        for r in scan_binary(builtin("TV"), 25):
            assert abs(r.slack) <= 1e-12

    def test_diagonal_is_exactly_zero(self):
        for r in scan_binary(builtin("KL"), 9):
            if r.p == r.q:
                assert r.tv == 0.0
                assert r.divergence == 0.0
                assert r.slack == 0.0

    def test_known_record(self):
        # resolution 3 puts the grid at {0.25, 0.5, 0.75}
        records = {(r.p, r.q): r for r in scan_binary(builtin("KL"), 3)}
        r = records[(0.5, 0.25)]
        assert r.tv == 0.5
        assert r.divergence == pytest.approx(KL_EXAMPLE, abs=1e-12)
        assert r.lower_bound == pytest.approx(PHI_KL_QUARTER, abs=1e-12)
        assert r.slack == pytest.approx(SLACK_EXAMPLE, abs=1e-12)

    def test_slack_never_negative(self):
        for name in BUILTIN_NAMES:
            for r in scan_binary(builtin(name), 15):
                assert r.slack >= -1e-9

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_divergence_equals_d_f_of_the_bernoulli_pair(self, name):
        f = builtin(name)
        for r in scan_binary(f, 15):
            value = d_f(f, pm(r.p, 1.0 - r.p), pm(r.q, 1.0 - r.q)).value
            assert bits(r.divergence) == bits(value)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_floor_column_equals_lower_bound_of_the_tv_column(self, name):
        # a built-in's floors are its table row's formula, lowered by the row's bound
        f = builtin(name)
        records = scan_binary(f, 250)
        floors = np.array([r.lower_bound for r in records])
        tvs = np.array([r.tv for r in records])
        assert floors.tobytes() == lower_bound(f, tvs).tobytes() == table_floors(f, tvs).tobytes()
        for r in records[::97]:
            assert bits(r.lower_bound) == bits(lower_bound(f, r.tv)), r

    def test_custom_floor_column_is_phi_of_the_tv_column(self):
        # a generator with no row takes f(1 + t) + f(1 - t) as rounded, as scalar phi does; its
        # square is y * y, since squares through libm pow moved 116 PE floors by one ULP here
        f = Generator("chi2", lambda x: (x - 1.0) * (x - 1.0), 1.0, 0.0, math.inf)
        records = scan_binary(f, 250)
        floors = np.array([r.lower_bound for r in records])
        assert floors.tobytes() == lower_bound(f, np.array([r.tv for r in records])).tobytes()
        for r in records:
            assert bits(r.lower_bound) == bits(phi(f, r.tv / 2.0)), r

    def test_record_count_and_domain(self):
        assert len(scan_binary(builtin("PE"), 7)) == 49
        with pytest.raises(DomainError, match="^resolution must be at least 2$"):
            scan_binary(builtin("PE"), 1)
        # the grid's resolution**2 points must be countable
        for resolution in (math.isqrt(sys.maxsize) + 1, 10**30):
            with pytest.raises(DomainError, match=f"^resolution must be at most "
                               f"{math.isqrt(sys.maxsize)}, got {resolution}$"):
                scan_binary(builtin("PE"), resolution)

    def test_csv_output(self):
        buf = io.StringIO()
        scan_to_csv(scan_binary(builtin("KL"), 3), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "p,q,tv,divergence,lower_bound,slack"
        assert len(lines) == 10
        cells = lines[1].split(",")
        assert len(cells) == 6
        float(cells[2])  # parses


class TestScanRecord:
    def test_fields_in_csv_order(self):
        assert ScanRecord._fields == ("p", "q", "tv", "divergence", "lower_bound", "slack")

    def test_repr(self):
        r = ScanRecord(0.5, 0.25, 0.5, 0.1, 0.05, 0.05)
        assert repr(r) == (
            "ScanRecord(p=0.5, q=0.25, tv=0.5, divergence=0.1, lower_bound=0.05, slack=0.05)"
        )

    def test_fields_cannot_be_assigned(self):
        r = ScanRecord(0.5, 0.25, 0.5, 0.1, 0.05, 0.05)
        for name in ScanRecord._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, 0.0)
        assert r == (0.5, 0.25, 0.5, 0.1, 0.05, 0.05)

    def test_scan_returns_a_list_of_records(self):
        records = scan_binary(builtin("KL"), 4)
        assert type(records) is list
        assert all(type(r) is ScanRecord for r in records)


class TestScanToCsv:
    @pytest.mark.parametrize("f", WITH_DUALS, ids=lambda f: f.name)
    def test_equals_per_cell_formatting(self, f):
        records = scan_binary(f, 200)
        for precision in range(1, 18):
            expected, actual = io.StringIO(), io.StringIO()
            scan_to_csv_cells(records, expected, precision)
            scan_to_csv(records, actual, precision)
            assert actual.getvalue() == expected.getvalue(), precision

    def test_special_values_equal_per_cell_formatting(self):
        specials = (math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e300, 1e16)
        records = [ScanRecord._make((specials * 2)[k:k + 6]) for k in range(len(specials))]
        for precision in range(1, 18):
            expected, actual = io.StringIO(), io.StringIO()
            scan_to_csv_cells(records, expected, precision)
            scan_to_csv(records, actual, precision)
            assert actual.getvalue() == expected.getvalue(), precision
        assert actual.getvalue().splitlines()[1] == "inf,-inf,nan,0,-0,4.9406564584124654e-324"

    def test_default_precision_is_nine(self):
        records = scan_binary(builtin("KL"), 3)
        expected, actual = io.StringIO(), io.StringIO()
        scan_to_csv_cells(records, expected)
        scan_to_csv(records, actual)
        assert actual.getvalue() == expected.getvalue()

    def test_signed_zero_tv_cells_stay_apart(self, monkeypatch):
        # the CLI writer formats tv once per distinct value: -0.0 == 0.0, but "%g" prints "-0"
        block = (np.array([0.25, 0.25]), np.array([0.25, 0.75]), np.array([-0.0, 0.0]),
                 np.array([0.0, 0.5]))
        monkeypatch.setattr(jointrange, "_grid_blocks", lambda f, resolution: iter([block]))
        out = io.StringIO()
        jointrange._write_scan(builtin("TV"), 2, out, 17)
        assert out.getvalue().splitlines()[1:] == ["0.25,0.25,-0,0,0,0", "0.25,0.75,0,0.5,0,0.5"]
        assert [bits(r.tv) for r in scan_binary(builtin("TV"), 2)] == [bits(-0.0), bits(0.0)]

    @pytest.mark.parametrize("precision", [0, -1])
    def test_precision_below_one_is_a_domain_error(self, precision):
        out = io.StringIO()
        with pytest.raises(DomainError, match="precision must be at least 1"):
            scan_to_csv(scan_binary(builtin("KL"), 3), out, precision)
        assert out.getvalue() == ""


class TestVerifyBound:
    def test_sweep_passes_for_all_builtins(self):
        for name in BUILTIN_NAMES:
            report = verify_bound(builtin(name), 400, 8, 11)
            assert report.max_violation <= 1e-9
            assert report.passed
            assert report.trials == 400

    def test_single_trial_plumbing(self):
        report = verify_bound(builtin("PE"), 1, 2, 3)
        assert report.trials == 1
        assert report.generator_name == "PE"
        assert len(report.worst_pair[0]) == 2

    def test_deterministic(self):
        a = verify_bound(builtin("KL"), 50, 5, 21)
        b = verify_bound(builtin("KL"), 50, 5, 21)
        assert a == b

    def test_json_serialization(self):
        report = verify_bound(builtin("HE"), 5, 3, 1)
        data = report.to_json_dict()
        assert data["generator"] == "HE"
        assert data["trials"] == 5
        assert data["passed"] is True
        assert set(data["worst_pair"]) == {"mu", "nu"}

    def test_printed_violation_rounds_up(self):
        for name in BUILTIN_NAMES:
            report = verify_bound(builtin(name), 200, 6, 5)
            for precision in range(1, 18):
                assert report.to_json_dict(precision)["max_violation"] >= report.max_violation

    def test_domain(self):
        with pytest.raises(DomainError, match="^trials must be at least 1$"):
            verify_bound(builtin("KL"), 0, 4, 1)
        with pytest.raises(DomainError, match="^max_support must be at least 2$"):
            verify_bound(builtin("KL"), 10, 1, 1)
        # a range of trials holds at most sys.maxsize of them
        for trials in (sys.maxsize + 1, 10**30):
            with pytest.raises(DomainError,
                               match=f"^trials must be at most {sys.maxsize}, got {trials}$"):
                verify_bound(builtin("KL"), trials, 4, 1)

    @pytest.mark.parametrize("seed", (-1, 2**64))
    def test_seed_outside_64_bits_is_a_domain_error(self, seed):
        message = "at least 0" if seed < 0 else f"at most {2**64 - 1}, got {seed}"
        with pytest.raises(DomainError, match=f"^seed must be {message}$"):
            verify_bound(builtin("KL"), 10, 4, seed)

    def test_nan_on_every_trial_raises_domain_error(self):
        f = Generator("nan", lambda x: np.where(x == 1.0, 0.0, np.nan), 0.0)
        with pytest.raises(DomainError, match="'nan'"):
            verify_bound(f, 10, 4, 0)


SWEEP_GENERATORS = {name: builtin(name) for name in BUILTIN_NAMES}
SWEEP_GENERATORS.update({"dual(HE)": dual(builtin("HE")), "dual(KL)": dual(builtin("KL"))})

# (trials, max_support): one group, empty groups, TV's ties at 0.0, and a
# max_support far above the trial count
SWEEP_CASES = ((1, 2), (5, 3), (63, 64), (200, 8), (130, 64), (3, 10**9))
DEFAULT_BLOCK_ATOMS = jointrange._BLOCK_ATOMS


class TestBlockedSweep:
    """verify_bound evaluates support-size blocks; the per-trial loop is the oracle."""

    @staticmethod
    def assert_equals_per_trial_loop(monkeypatch, f, trials, max_support, seed):
        case = (trials, max_support, seed)
        try:
            want = verify_bound_loop(f, trials, max_support, seed)
        except DomainError:
            want = None
        # 8 atoms per measure: blocks of one to four trials, many of them ragged
        for block_atoms in (DEFAULT_BLOCK_ATOMS, 8):
            monkeypatch.setattr(jointrange, "_BLOCK_ATOMS", block_atoms)
            if want is None:
                with pytest.raises(DomainError, match="every trial's violation was NaN"):
                    verify_bound(f, trials, max_support, seed)
                continue
            got = verify_bound(f, trials, max_support, seed)
            assert bits(got.max_violation) == bits(want.max_violation), (case, block_atoms)
            for g, w in zip(got.worst_pair, want.worst_pair):
                assert g.atoms == w.atoms, (case, block_atoms)
                assert g.weights.tobytes() == w.weights.tobytes(), (case, block_atoms)
            assert (got.generator_name, got.trials, got.seed) == (f.name, trials, seed)
        return want

    @pytest.mark.parametrize("seed", (0, 7, 20240917))
    @pytest.mark.parametrize("name", sorted(SWEEP_GENERATORS))
    def test_report_equals_per_trial_loop(self, monkeypatch, name, seed):
        for trials, max_support in SWEEP_CASES:
            want = self.assert_equals_per_trial_loop(
                monkeypatch, SWEEP_GENERATORS[name], trials, max_support, seed)
            assert want is not None

    @pytest.mark.parametrize("f", [
        # NaN above 2: NaN violations must never win the merge
        Generator("nan-above-2", lambda x: np.where(x > 2.0, np.nan, (x - 1.0) ** 2), 1.0),
        # divergences are roundoff around 0, many in d_f's clamped range [-1e-12, 0)
        Generator("linear", lambda x: x - 1.0, -1.0),
    ], ids=lambda f: f.name)
    def test_custom_generators_match_per_trial_loop(self, monkeypatch, f):
        reports = [self.assert_equals_per_trial_loop(monkeypatch, f, trials, max_support, seed)
                   for seed in (0, 7, 20240917) for trials, max_support in SWEEP_CASES]
        reports = [r for r in reports if r is not None]
        assert reports and not any(math.isnan(r.max_violation) for r in reports)

    def test_one_weight_check_per_block(self, monkeypatch):
        # each block's (mu, nu) pairs are one (rows, 2, n) array, checked by one call
        shapes, check = [], jointrange._check_probability_weights
        monkeypatch.setattr(jointrange, "_check_probability_weights",
                            lambda w: (shapes.append(w.shape), check(w)))
        monkeypatch.setattr(jointrange, "_BLOCK_ATOMS", 8)
        verify_bound(builtin("KL"), 20, 4, 7)
        # sizes 2, 3 and 4 have 7, 7 and 6 trials, in blocks of at most 4, 2 and 2 pairs
        assert shapes == [(4, 2, 2), (3, 2, 2)] + [(2, 2, 3)] * 3 + [(1, 2, 3)] + [(2, 2, 4)] * 3

    @pytest.mark.parametrize("seed", (0, (1 << 64) - 1))
    @pytest.mark.parametrize("width", (4, 5, 7, 128))
    def test_rekeyed_rows_equal_fresh_philox_streams(self, seed, width):
        # the sweep re-keys once per support size k, to seed + k * 2**64: for each of those
        # 64 keys, rows drawn in blocks of 1, 2, 3 and 4 (odd widths end blocks inside
        # Philox's 4-word output) are that key's fresh stream
        for k in range(2, 66):
            draw = _exponential_stream(seed + k * (1 << 64))
            rows = np.concatenate([draw(r, width) for r in (1, 2, 3, 4)])
            fresh = np.random.Generator(np.random.Philox(key=seed + k * (1 << 64)))
            assert rows.tobytes() == fresh.standard_exponential(10 * width, method="inv").tobytes(), k


@pytest.fixture
def drawn(monkeypatch):
    """The (mu, nu) weight rows verify_bound evaluates, per support size, in the order drawn."""
    rows = {}
    violations = jointrange._violations

    def spy(f, mu_w, nu_w):
        rows.setdefault(mu_w.shape[1], []).extend(zip(mu_w.tolist(), nu_w.tolist()))
        return violations(f, mu_w, nu_w)
    monkeypatch.setattr(jointrange, "_violations", spy)
    return rows


class TestSweepStream:
    """Each support size n draws its pairs, in trial order, from Philox(key=seed + n * 2**64)."""

    @pytest.mark.parametrize("seed", (0, 7, 20240917, (1 << 64) - 1))
    def test_first_pair_of_each_size_is_random_pair(self, drawn, seed):
        verify_bound(builtin("KL"), 200, 64, seed)
        assert sorted(drawn) == list(range(2, 65))
        for n, pairs in drawn.items():
            mu, nu = random_pair(n, seed + n * (1 << 64))
            assert pairs[0] == (mu.weights.tolist(), nu.weights.tolist()), n

    @pytest.mark.parametrize("block_atoms", (None, 8))
    @pytest.mark.parametrize("max_support", (8, 64))
    def test_more_trials_keep_every_earlier_pair(self, drawn, monkeypatch, max_support,
                                                 block_atoms):
        if block_atoms is not None:
            monkeypatch.setattr(jointrange, "_BLOCK_ATOMS", block_atoms)
        verify_bound(builtin("KL"), 150, max_support, 7)
        fewer = dict(drawn)
        drawn.clear()
        verify_bound(builtin("KL"), 1000, max_support, 7)
        assert sorted(drawn) == sorted(fewer)
        for n, pairs in fewer.items():
            assert len(drawn[n]) > len(pairs)
            assert drawn[n][:len(pairs)] == pairs, n


GRID_GENERATORS = [builtin(name) for name in BUILTIN_NAMES]
GRID_GENERATORS += [dual(builtin(name)) for name in ("HE", "PE", "KL")]
GRID_GENERATORS += [Generator("chi2", lambda x: (x - 1.0) ** 2, 1.0, 0.0)]


def cells(records) -> bytes:
    return array("d", chain.from_iterable(records)).tobytes()


class TestGridWalk:
    """scan_binary and tightness_gap walk the grid in blocks; whole-grid and per-row oracles."""

    # 8 atoms per measure: one p row per block from resolution 3 up
    @pytest.fixture(params=(None, 8), ids=("default-blocks", "8-atom-blocks"))
    def blocks(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(jointrange, "_BLOCK_ATOMS", request.param)

    @pytest.mark.parametrize("resolution", (2, 3, 100, 400))  # 100: a ragged last block
    @pytest.mark.parametrize("f", GRID_GENERATORS, ids=lambda f: f.name)
    def test_scan_equals_whole_grid(self, blocks, f, resolution):
        got, want = scan_binary(f, resolution), scan_binary_grid(f, resolution)
        assert all(type(r) is ScanRecord for r in got)
        assert cells(got) == cells(want)

    @pytest.mark.parametrize("resolution", (2, 3, 100))
    @pytest.mark.parametrize("f", GRID_GENERATORS, ids=lambda f: f.name)
    def test_block_writer_equals_scan_to_csv(self, blocks, f, resolution):
        expected, actual = io.StringIO(), io.StringIO()
        scan_to_csv(scan_binary_grid(f, resolution), expected, 17)
        jointrange._write_scan(f, resolution, actual, 17)
        assert actual.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("resolution", (2, 3, 100, 400))
    @pytest.mark.parametrize("f", GRID_GENERATORS, ids=lambda f: f.name)
    def test_gap_equals_per_row_search(self, blocks, f, resolution):
        for d in (0.0, 1e-6, 0.01, 0.1, 1.0, 3.0):
            got, want = tightness_gap(f, d, resolution), tightness_gap_rows(f, d, resolution)
            assert [bits(x) for x in got] == [bits(x) for x in want], d

    def test_resolution_is_checked_before_invert(self):
        # invert raises NonMonotoneGenerator, not DomainError, for this generator
        concave = Generator("cap", lambda x: -((x - 1.0) ** 2), -1.0, None)
        with pytest.raises(DomainError, match="resolution"):
            tightness_gap(concave, 0.1, 1)


class TestTightnessGap:
    def test_zero_budget_with_separating_generator(self):
        certified, achieved, gap = tightness_gap(builtin("KL"), 0.0, 101)
        assert certified <= 1e-10
        assert achieved == 0.0
        assert gap >= -1e-9

    def test_tv_generator_is_tight_on_grid_budgets(self):
        resolution = 100
        for k in (10, 30, 77):
            d = 2.0 * k / (resolution + 1.0) + 1e-9
            certified, achieved, gap = tightness_gap(builtin("TV"), d, resolution)
            assert gap <= 1e-6
            assert gap >= -1e-9
            assert achieved == pytest.approx(d, abs=1e-8)

    def test_gap_nonnegative_for_all_builtins(self):
        for name in BUILTIN_NAMES:
            for d in np.linspace(0.0, 5.0, 6):
                _, _, gap = tightness_gap(builtin(name), d, 101)
                assert gap >= -1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            tightness_gap(builtin("KL"), -0.5, 100)
        with pytest.raises(DomainError):
            tightness_gap(builtin("KL"), math.inf, 100)
        with pytest.raises(DomainError, match="^resolution must be at most"):
            tightness_gap(builtin("KL"), 0.1, 10**30)
