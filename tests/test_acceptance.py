"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from divbound import (
    BUILTIN_NAMES,
    SignedMeasure,
    bretagnolle_huber,
    builtin,
    check_monotone,
    d_f,
    dual,
    hahn_jordan,
    hellinger_bound,
    invert,
    phi,
    random_pair,
    subset_totals,
    tightness_gap,
    tv_distance,
    tv_via_density,
    verify_bound,
)
from divbound.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SEED = 20240917


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_soundness_sweep():
    with criterion(1, "soundness sweep, 10000 pairs per generator"):
        start = time.monotonic()
        for name in BUILTIN_NAMES:
            report = verify_bound(builtin(name), 10000, 8, SEED)
            assert report.max_violation <= 1e-9, name
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_bretagnolle_huber_equivalence():
    with criterion(2, "Bretagnolle-Huber equals the numeric inversion"):
        sh_gen = builtin("SH")
        for d in np.linspace(0.0, 10.0, 1000):
            tight, loose = bretagnolle_huber(d)
            assert abs(invert(sh_gen, d).tv_upper_bound - tight) <= 1e-8
            assert tight <= loose + 1e-12


def test_criterion_3_hellinger_closed_form():
    with criterion(3, "piecewise Hellinger bound and its dominance"):
        assert hellinger_bound(0.0) == 0.0
        assert hellinger_bound(0.25) == 1.5
        assert hellinger_bound(1.0) == 2.0
        assert hellinger_bound(2.0) == 2.0
        he = builtin("HE")
        for d in np.linspace(0.0, 2.0, 201):
            assert invert(he, d).tv_upper_bound <= hellinger_bound(d) + 1e-8


def test_criterion_4_hahn_jordan_brute_force():
    with criterion(4, "decomposition matches subset enumeration exactly"):
        start = time.monotonic()
        rng = np.random.Generator(np.random.Philox(key=SEED))
        atom_pool = tuple(f"a{i + 1}" for i in range(12))
        checked_balanced = 0
        for case in range(500):
            if case % 2 == 0:
                n = int(rng.integers(1, 13))
                weights = rng.uniform(-1.0, 1.0, size=n)
            else:
                # blocks of (v, -v) keep the upper and lower accumulation
                # paths identical, which the exact balanced identity needs
                k = int(rng.integers(1, 7))
                halves = rng.uniform(0.05, 1.0, size=k)
                ws: list[float] = []
                for i, flip in zip(rng.permutation(k), rng.integers(0, 2, size=k)):
                    v = float(halves[i])
                    ws.extend([-v, v] if flip else [v, -v])
                weights = np.array(ws)
                n = 2 * k
            m = SignedMeasure(atom_pool[:n], weights)
            parts = hahn_jordan(m)
            totals = subset_totals(m)
            assert parts.upper.total() == totals.max()
            assert parts.lower.total() == -totals.min()
            masks = np.arange(2**n)
            for mask in rng.integers(0, 2**n, size=8):
                subset = [m.atoms[i] for i in range(n) if mask >> i & 1]
                inside = (masks & ~int(mask)) == 0
                assert parts.upper.total(subset) == totals[inside].max()
                assert parts.lower.total(subset) == -totals[inside].min()
            if case % 2 == 1:
                norm = parts.upper.total() + parts.lower.total()
                assert norm == 2.0 * float(np.abs(totals).max())
                checked_balanced += 1
        assert checked_balanced == 250
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"


def test_criterion_5_representation_agreement():
    with criterion(5, "three total variation representations agree"):
        tv_gen = builtin("TV")
        for k in range(10000):
            mu, nu = random_pair(2 + k % 7, SEED + k * (1 << 64))
            l1 = tv_distance(mu, nu)
            assert abs(tv_via_density(mu, nu) - l1) <= 1e-12
            assert abs(d_f(tv_gen, mu, nu).value - l1) <= 1e-12


def test_criterion_6_tv_self_tightness():
    with criterion(6, "inversion is tight for the TV generator"):
        tv_gen = builtin("TV")
        for d in np.linspace(0.0, 3.0, 301):
            assert invert(tv_gen, d).tv_upper_bound == min(d, 2.0)
        resolution = 2000
        for k in (100, 500, 1000, 1500, 1999):
            budget = 2.0 * k / (resolution + 1.0) + 1e-9
            _, _, gap = tightness_gap(tv_gen, budget, resolution)
            assert -1e-9 <= gap <= 1e-6, (k, gap)


def test_criterion_7_closed_form_phi_and_monotonicity():
    with criterion(7, "closed-form phi values and strict monotonicity"):
        pe, tvg = builtin("PE"), builtin("TV")
        for t in np.linspace(0.0, 1.0, 1001):
            assert abs(phi(pe, t) - 2.0 * t * t) <= 1e-12
            assert abs(phi(tvg, t) - 2.0 * t) <= 1e-12
        for name in ("KL", "SH", "HE", "PE"):
            assert check_monotone(builtin(name), 1001), name


def test_criterion_8_duality():
    with criterion(8, "dual generators swap arguments; dual is an involution"):
        generators = [builtin(name) for name in BUILTIN_NAMES]
        duals = [dual(f) for f in generators]
        for k in range(1000):
            mu, nu = random_pair(2 + k % 7, SEED + 77 + k * (1 << 64))
            for f, fd in zip(generators, duals):
                assert d_f(fd, mu, nu).value == d_f(f, nu, mu).value
        grid = np.linspace(0.01, 10.0, 1000)
        for f in generators:
            fdd = dual(dual(f))
            assert fdd is f
            assert np.all(np.abs(fdd.eval_array(grid) - f.eval_array(grid)) <= 1e-10)


def test_criterion_9_cli_contract(capsys):
    with criterion(9, "CLI golden outputs and exit codes"):
        half = str(FIXTURES / "bernoulli_half.json")
        quarter = str(FIXTURES / "bernoulli_quarter.json")
        point = str(FIXTURES / "point_mass.json")
        signed = str(FIXTURES / "signed_mixed.json")

        assert main(["compute", "--gen", "kl", "--mu", half, "--nu", quarter]) == 0
        assert capsys.readouterr().out.strip() == "0.143841036"

        assert main(["compute", "--gen", "he", "--mu", half, "--nu", half]) == 0
        assert capsys.readouterr().out.strip() == "0"

        assert main(["compute", "--gen", "sh", "--mu", half, "--nu", point]) == 3
        capsys.readouterr()

        for bad in ("bad_nan.json", "bad_duplicate.json", "bad_syntax.json"):
            assert main(["compute", "--gen", "kl", "--mu", str(FIXTURES / bad),
                         "--nu", quarter]) == 2
            capsys.readouterr()

        assert main(["bound", "--gen", "tv", "--tv", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

        assert main(["invert", "--gen", "sh", "--d", "0.1"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["tv_upper_bound"] == pytest.approx(
            2.0 * math.sqrt(1.0 - math.exp(-0.1)), abs=1e-6
        )
        assert main(["invert", "--gen", "pe", "--d", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["tv_upper_bound"] == 1.0
        assert main(["invert", "--gen", "kl", "--d", "inf"]) == 0
        assert json.loads(capsys.readouterr().out)["tv_upper_bound"] == 2.0
        assert main(["invert", "--gen", "kl", "--d", "oops"]) == 2
        capsys.readouterr()

        assert main(["decompose", "--nu", signed]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["positive_set"] == ["a1"]
        assert data["negative_set"] == ["a2", "a3"]
        assert data["upper_total"] == 0.3
        assert data["lower_total"] == 0.3
