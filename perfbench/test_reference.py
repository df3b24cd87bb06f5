"""Tests of the benchmark's reference module (run with ``pytest perfbench``)."""

import math

import pytest

import reference

D_VALUES = [1e-12, 1e-6, 0.001, 0.05, 0.3, 0.869, 1.0, 1.17, 1.38, 1.9, 2.5, 3.0]


@pytest.mark.parametrize("name", reference.SUPREMUM_NAMES)
def test_closed_form_inverts_phi(name):
    for d in D_VALUES:
        sup = reference.tv_supremum(name, d)
        if sup == 2:
            assert d >= reference.PHI_AT_ONE[name]
            continue
        assert abs(reference.phi_mp(name, sup / 2) - d) <= reference.MP.mpf(10) ** -30 * max(1, d)


@pytest.mark.parametrize("name", reference.SUPREMUM_NAMES)
def test_supremum_endpoints(name):
    assert reference.tv_supremum(name, 0.0) == 0
    assert reference.tv_supremum(name, math.inf) == 2
    assert reference.tv_supremum(name, 1e3) <= 2
    if reference.PHI_AT_ONE[name] < reference.MP.inf:
        assert reference.tv_supremum(name, reference.PHI_AT_ONE[name]) == 2


def test_supremum_is_increasing():
    for name in reference.SUPREMUM_NAMES:
        values = [reference.tv_supremum(name, d) for d in D_VALUES]
        assert values == sorted(values)


def test_kl_bernoulli_example():
    assert reference.divergence("KL", [0.5, 0.5], [0.25, 0.75]) == 0.14384103622589045


def test_divergence_conventions():
    assert reference.divergence("SH", [0.0, 1.0], [0.5, 0.5]) == math.inf
    assert reference.divergence("KL", [0.0, 1.0], [0.5, 0.5]) == math.log(2.0)
    assert reference.divergence("TV", [0.2, 0.8], [0.6, 0.4]) == reference.l1([0.2, 0.8], [0.6, 0.4])
    with pytest.raises(ValueError):
        reference.divergence("KL", [0.5, 0.5], [1.0, 0.0])


def test_phi_matches_mpmath():
    for name in ("HE", "TV", "KL", "PE", "SH"):
        for t in (0.0, 0.1, 0.5, 0.9):
            assert reference.phi(name, t) == pytest.approx(float(reference.phi_mp(name, t)), abs=1e-15)
