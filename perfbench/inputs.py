"""Seeded inputs for the benchmark workloads.

Every input derives from the workload seed through ``numpy.random.default_rng``
with a fixed stream number per use, so one seed gives the same files and
parameters on every run.  Weights are written as ``%.16e`` (17 significant
digits, which round-trips every double), so the parsed values equal the
generated ones exactly and every file has the same byte count for every
seed.  Inputs that must not depend on the seed (the inversion grids and the
CLI ``invert`` values) are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BUILTINS = ("HE", "TV", "KL", "PE", "SH")

# large-files
N_ATOMS = 100_000
ZERO_ATOMS = 1_000  # zero-weight atoms of mu in the ordered pair, and of the signed measure

# sweep: one `verify` call per (max_support, generator)
SWEEP_TRIALS = 10_000
SWEEP_MAX_SUPPORTS = (8, 64)

# certify: fixed grids, so the printed-certificate failures never depend on the seed
D_GRID = tuple(3.0 * k / 600 for k in range(601))  # 0, 0.005, ..., 3.0
CUSTOM_D_GRID = D_GRID[::10]  # 0, 0.05, ..., 3.0
CLI_INVERT_D = (0.5, 1.5)
SCAN_RESOLUTION = 200
TIGHTNESS_RESOLUTION = 400
TIGHTNESS_BUDGETS = 3  # seeded budgets per built-in generator
HELLINGER_VALUES = 100  # seeded inputs of hellinger_certificate


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _format(w: float) -> str:
    return f"{w:.16e}"


def write_json(path: Path, ids, weights) -> None:
    body = ", ".join(f'{{"id": "{a}", "w": {_format(w)}}}' for a, w in zip(ids, weights))
    path.write_text('{"atoms": [' + body + "]}")


def write_csv(path: Path, ids, weights) -> None:
    path.write_text("id,w\n" + "".join(f"{a},{_format(w)}\n" for a, w in zip(ids, weights)))


def _probability(rng: np.random.Generator, n: int, zeros: int) -> np.ndarray:
    w = rng.standard_exponential(n)
    w[rng.choice(n, size=zeros, replace=False)] = 0.0
    return w / w.sum()


@dataclass(frozen=True)
class Pair:
    """A measure-file pair; ``mu`` and ``nu`` are aligned on mu's atom order."""

    name: str
    mu_path: Path
    nu_path: Path
    mu: np.ndarray
    nu: np.ndarray

    @property
    def atoms(self) -> int:
        return 2 * self.mu.size


@dataclass(frozen=True)
class LargeFiles:
    pairs: tuple[Pair, ...]
    signed_path: Path
    signed_ids: tuple[str, ...]
    signed: np.ndarray


def large_files(directory: Path, seed: int) -> LargeFiles:
    """Write the large-files inputs into ``directory``.

    - ``ordered``: JSON pair, nu in mu's atom order, mu with ZERO_ATOMS zero weights;
    - ``shuffled``: CSV pair, nu's atoms in a seeded random order, no zeros;
    - ``signed.json``: a signed measure with exactly half of its nonzero
      weights negative and ZERO_ATOMS exact zeros.
    """
    directory.mkdir(parents=True, exist_ok=True)
    ids = [f"a{i + 1}" for i in range(N_ATOMS)]

    rng = _rng(seed, 1)
    mu = _probability(rng, N_ATOMS, ZERO_ATOMS)
    nu = _probability(rng, N_ATOMS, 0)
    ordered = Pair("ordered", directory / "mu_ordered.json", directory / "nu_ordered.json", mu, nu)
    write_json(ordered.mu_path, ids, mu)
    write_json(ordered.nu_path, ids, nu)

    rng = _rng(seed, 2)
    mu = _probability(rng, N_ATOMS, 0)
    nu = _probability(rng, N_ATOMS, 0)
    order = rng.permutation(N_ATOMS)
    shuffled = Pair("shuffled", directory / "mu_shuffled.csv", directory / "nu_shuffled.csv", mu, nu)
    write_csv(shuffled.mu_path, ids, mu)
    write_csv(shuffled.nu_path, [ids[i] for i in order], nu[order])

    rng = _rng(seed, 3)
    signed = rng.standard_exponential(N_ATOMS)
    nonzero = rng.permutation(N_ATOMS)
    signed[nonzero[:ZERO_ATOMS]] = 0.0
    signed[nonzero[ZERO_ATOMS:ZERO_ATOMS + (N_ATOMS - ZERO_ATOMS) // 2]] *= -1.0
    signed_path = directory / "signed.json"
    write_json(signed_path, ids, signed)
    return LargeFiles((ordered, shuffled), signed_path, tuple(ids), signed)


def verify_seeds(seed: int) -> list[int]:
    """One `verify --seed` per (max_support, generator) call of a sweep round."""
    count = len(SWEEP_MAX_SUPPORTS) * len(BUILTINS)
    return [int(s) for s in _rng(seed, 4).integers(0, 2**63, size=count)]


def tightness_budgets(seed: int) -> list[float]:
    """TIGHTNESS_BUDGETS divergence budgets per built-in, uniform on [0.01, 1)."""
    return [float(x) for x in _rng(seed, 5).uniform(0.01, 1.0, size=TIGHTNESS_BUDGETS * len(BUILTINS))]


def hellinger_values(seed: int) -> list[float]:
    """Inputs of hellinger_certificate, uniform on [0, 3)."""
    return [float(x) for x in _rng(seed, 6).uniform(0.0, 3.0, size=HELLINGER_VALUES)]

