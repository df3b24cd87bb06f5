"""Layer-by-layer timings of divbound, written to benchmarks/BENCH_<pr>.json.

Each row times one layer or one CLI call: CLI and start-up rows run
``python -m divbound`` or ``python -c`` as a subprocess (interpreter start
included), the rest run in this process.
A row's figures are the best and the median of its runs, in milliseconds.
One call builds every row, freezes every object alive (``gc.freeze``),
so that no collection timed in a row walks the 1e6-atom inputs the rows
keep, and then makes five passes, each timing every row once: a row's
runs are spread over the call, not bunched into one phase of a host
whose speed drifts.  Running again with the same ``--pr`` adds five more
runs to each row of the file, so that both figures can be taken over
runs spread in time, alternating with runs on another tree.  The file
records the host's CPU count and the Python and numpy versions, and the
script prints a diff against the newest earlier BENCH_*.json in the same
directory.  It measures the ``src/`` tree next to it:

    python3 benchmarks/layers.py --pr 11
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
RUNS = 5
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import divbound as db  # noqa: E402


def write_measure(path: Path, ids, weights, form: str = ".16e") -> Path:
    """A measure file as an ``id,w`` writer or ``to_json_dict`` would lay it out, weights in ``form``."""
    if path.suffix == ".csv":
        path.write_text("id,w\n" + "".join(f"{a},{w:{form}}\n" for a, w in zip(ids, weights)))
    else:
        body = ", ".join(f'{{"id": "{a}", "w": {w:{form}}}}' for a, w in zip(ids, weights))
        path.write_text('{"atoms": [' + body + "]}")
    return path


def probability_pair(n: int, seed: int):
    rng = np.random.default_rng([n, seed])
    ids = [f"a{i + 1}" for i in range(n)]
    mu, nu = rng.standard_exponential(n), rng.standard_exponential(n)
    return ids, mu / mu.sum(), nu / nu.sum(), rng.permutation(n)


def timed_ms(run) -> float:
    gc.collect()  # the previous run's garbage; frozen objects are not walked
    start = perf_counter()
    run()
    return (perf_counter() - start) * 1000.0


def python(*argv: str):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run():
        subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
    return run


def cli(*argv: str):
    return python("-m", "divbound", *argv)


def sized_rows(work: Path, n: int):
    """The rows on n-atom inputs, whose files they write in ``work``."""
    kl = db.builtin("KL")
    ids, mu, nu, perm = probability_pair(n, 1)
    tag = f"1e{len(str(n)) - 1}"
    js = write_measure(work / f"mu_{tag}.json", ids, mu)
    cs = write_measure(work / f"mu_{tag}.csv", ids, mu)
    shuffled_ids = [ids[i] for i in perm]
    nu_js = write_measure(work / f"nu_{tag}.json", ids, nu)
    nu_cs = write_measure(work / f"nu_{tag}.csv", shuffled_ids, nu[perm])
    a = db.ProbabilityMeasure(ids, mu)
    b = db.ProbabilityMeasure(ids, nu)
    b_shuffled = db.ProbabilityMeasure(shuffled_ids, nu[perm])
    yield f"read JSON file, construction included, n={tag}", lambda: db.read_probability_measure(js)
    yield f"read CSV file, construction included, n={tag}", lambda: db.read_probability_measure(cs)
    yield f"ProbabilityMeasure(...), n={tag}", lambda: db.ProbabilityMeasure(ids, mu)
    # a fresh left measure per run, so that its cached atom index is rebuilt as after a read
    yield (f"align, shuffled, index not cached, n={tag}",
           lambda: db.align(db.ProbabilityMeasure(a.atoms, a.weights), b_shuffled))
    yield f"tv_distance, n={tag}", lambda: db.tv_distance(a, b)
    yield f"d_f KL, same order, n={tag}", lambda: db.d_f(kl, a, b)
    yield f"d_f KL, shuffled, index cached, n={tag}", lambda: db.d_f(kl, a, b_shuffled)
    if n == 100_000:
        # files outside the plain layout: CRLF line ends (reading turns them into LF),
        # integer JSON weights, and quoted CSV ids, which only the csv.reader loop reads
        crlf = work / "mu_crlf_1e5.csv"
        crlf.write_bytes(cs.read_bytes().replace(b"\n", b"\r\n"))
        quoted = write_measure(work / "mu_quoted_1e5.csv", [f'"{a}"' for a in ids], mu)
        whole = write_measure(work / "int_1e5.json", ids,
                              np.random.default_rng([n, 2]).integers(-10**6, 10**6, n), "d")
        yield "read CSV file with CRLF line ends, n=1e5", lambda: db.read_probability_measure(crlf)
        yield "read CSV file with quoted ids, n=1e5", lambda: db.read_probability_measure(quoted)
        yield ("read JSON file with integer weights, signed, n=1e5",
               lambda: db.read_signed_measure(whole))
        signed = write_measure(work / "signed_1e5.json", ids, mu - nu)
        difference = db.SignedMeasure(ids, mu - nu)
        yield "hahn_jordan, n=1e5", lambda: db.hahn_jordan(difference)
        yield "CLI compute --gen kl, ordered JSON, n=1e5", cli(
            "compute", "--gen", "kl", "--mu", str(js), "--nu", str(nu_js), "--precision", "17")
        yield "CLI compute --gen kl, shuffled CSV, n=1e5", cli(
            "compute", "--gen", "kl", "--mu", str(cs), "--nu", str(nu_cs), "--precision", "17")
        yield "CLI decompose, JSON, n=1e5", cli("decompose", "--nu", str(signed),
                                                "--precision", "17")


def rows(work: Path):
    """(name, function) for every row; files are written before the rows that read them."""
    for name in db.__all__:  # resolve the lazy namespace first, so that no row times an import
        getattr(db, name)
    kl = db.builtin("KL")
    for n in (100_000, 1_000_000):
        yield from sized_rows(work, n)
    tv = np.random.default_rng(1).uniform(0.0, 2.0, 1_000_000)
    for name in db.BUILTIN_NAMES:
        yield f"lower_bound {name}, 1e6 tv", lambda f=db.builtin(name): db.lower_bound(f, tv)
    # start-up: a bare interpreter, the package import, and the CLI's lightest paths
    yield "python -c pass", python("-c", "pass")
    yield 'python -c "import divbound"', python("-c", "import divbound")
    yield "python -m divbound --help", cli("--help")
    yield "CLI invert --gen kl --d 0.1", cli("invert", "--gen", "kl", "--d", "0.1")
    yield "CLI bound --gen kl --tv 0.5", cli("bound", "--gen", "kl", "--tv", "0.5")
    yield "CLI verify --gen kl --trials 10000", cli("verify", "--gen", "kl", "--trials", "10000")
    yield "CLI verify --gen kl --trials 1000000", cli("verify", "--gen", "kl", "--trials", "1000000")
    yield "CLI scan --gen kl --resolution 100", cli("scan", "--gen", "kl", "--resolution", "100")
    yield "CLI scan --gen kl --resolution 800", cli("scan", "--gen", "kl", "--resolution", "800")
    grid = np.geomspace(0.001, 1.5, 200).tolist()
    inverted = [(name, db.builtin(name)) for name in ("KL", "HE", "TV", "PE", "SH")]
    inverted += [(f"dual({name})", db.dual(db.builtin(name))) for name in ("PE", "KL", "HE")]
    for name, f in inverted:
        db.invert(f, 0.1)  # warm-up: where a dual bisects, its monotonicity check runs once per object
        yield f"invert {name}, 200 d in [0.001, 1.5] (total)", lambda f=f: [db.invert(f, d) for d in grid]
    # the certify workload's library pass: five built-ins on 601 d, dual(HE) and dual(PE) on 61
    certify_grid = [3.0 * k / 600 for k in range(601)]
    certify_calls = [(db.builtin(name), d) for name in ("HE", "TV", "KL", "PE", "SH")
                     for d in certify_grid]
    certify_calls += [(db.dual(db.builtin(name)), d) for name in ("HE", "PE")
                      for d in certify_grid[::10]]
    yield (f"invert, certify grid ({len(certify_calls):,} calls), total",
           lambda: [db.invert(f, d) for f, d in certify_calls])
    yield ("TvCertificate(...), 1,000 constructions",
           lambda: [db.TvCertificate("KL", 0.1, 0.5, "numeric-inversion") for _ in range(1000)])
    # a custom generator bisects; a new object runs its monotonicity check on its first call
    def chi2():
        return db.Generator("chi2", lambda x: (x - 1.0) ** 2, 1.0, 0.0)

    yield ("invert custom chi2, first call, 200 d on 200 new objects (total)",
           lambda: [db.invert(chi2(), d) for d in grid])
    cached = chi2()
    db.invert(cached, 0.1)
    yield ("invert custom chi2, check cached, 200 d in [0.001, 1.5] (total)",
           lambda: [db.invert(cached, d) for d in grid])
    for support in (8, 64):
        yield (f"verify_bound KL, 1e4 trials, max-support {support}",
               lambda s=support: db.verify_bound(kl, 10_000, s, 0))
    yield "verify_bound KL, 1e5 trials, max-support 8", lambda: db.verify_bound(kl, 100_000, 8, 0)
    for resolution in (200, 800):
        yield (f"tightness_gap KL, d=0.1, resolution {resolution}",
               lambda r=resolution: db.tightness_gap(kl, 0.1, r))
    for resolution in (200, 800):
        yield f"scan_binary KL, resolution {resolution}", lambda r=resolution: db.scan_binary(kl, r)


def previous(pr: int) -> Path | None:
    found = [(int(m.group(1)), p) for p in HERE.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and int(m.group(1)) < pr]
    return max(found)[1] if found else None


def print_diff(old_path: Path, new: dict) -> None:
    old = json.loads(old_path.read_text())
    print(f"\nagainst {old_path.name} (PR {old['pr']}): best and median ms, old -> new")
    for name, row in new["rows"].items():
        line = f"  {name:58s}"
        for key in ("best_ms", "median_ms"):
            before, after = old["rows"].get(name, {}).get(key), row[key]
            line += (f" {after:9.1f} (new)" if before is None
                     else f" {before:9.1f} -> {after:9.1f} ({after / before - 1.0:+4.0%})")
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    args = parser.parse_args(argv)
    result = {
        "pr": args.pr,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "machine": platform.machine()},
        "rows": {},
    }
    out = HERE / f"BENCH_{args.pr}.json"
    earlier_runs = json.loads(out.read_text())["rows"] if out.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        functions = dict(rows(Path(work)))
        gc.collect()
        gc.freeze()
        times = {name: earlier_runs.get(name, {}).get("runs_ms", []) for name in functions}
        for done in range(RUNS):  # round-robin: every row once per pass
            for name, run in functions.items():
                times[name].append(round(timed_ms(run), 2))
            print(f"pass {done + 1} of {RUNS} done", flush=True)
    for name, row_times in times.items():
        row = {"best_ms": min(row_times), "median_ms": statistics.median(row_times),
               "runs_ms": row_times}
        result["rows"][name] = row
        print(f"{name:60s} {row['best_ms']:10.1f} / {row['median_ms']:10.1f} ms "
              f"(best / median of {len(row_times)})")
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    earlier = previous(args.pr)
    if earlier is not None:
        print_diff(earlier, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
