"""Run one workload of the divbound benchmark and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run it from the root of a source tree: the program under test is the
``divbound`` package in ``src/`` next to this directory, and the CLI runs as
``python -m divbound`` with that ``src/`` on PYTHONPATH.  With ``--trace 0``
the workload's rounds run for ``--seconds`` with the CLI in fresh
interpreters and the end-to-end metrics are reported; with ``--trace 1``
the rounds run in this process with divbound's public functions wrapped
in spans, and the per-layer metrics are reported per round.  Report lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"  # inputs of the running benchmark, and the last trace
SETUPS = 3  # set-ups per run; setup_s is their median
STARTUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("large-files", "sweep", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _set_up(workload, directory: Path, seed: int, cli) -> list[float]:
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(directory, ignore_errors=True)
        start = perf_counter()
        workload.setup(directory, seed, cli)
        times.append(perf_counter() - start)
    return times


def _run_rounds(workload, cli, checks, seconds: float) -> list:
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(workload.run_round(cli, checks))
    return rounds


def _peak_rss_mb() -> float:
    # largest resident set of any waited-for divbound process; ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _end_to_end(workload, workdir: Path, seconds: float, setup_times: list[float], checks):
    from workloads import SubprocessCli

    rounds = _run_rounds(workload, SubprocessCli(SRC, workdir), checks, seconds)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.seconds for r in rounds),
        "cli_p50_s": statistics.median(x for r in rounds for x in r.latencies),
        "work_per_s": sum(r.work for r in rounds) / sum(r.work_seconds for r in rounds),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return values, len(rounds)


def _startup_ms() -> float:
    """Median start of an interpreter importing divbound.cli, minus a bare one."""

    def median_run(code: str) -> float:
        times = []
        for _ in range(STARTUP_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
                           capture_output=True, check=True, timeout=60)
            times.append(perf_counter() - start)
        return statistics.median(times)

    return (median_run("import divbound.cli") - median_run("pass")) * 1000.0


def _per_layer(workload, seconds: float, names: list[str], checks):
    from tracing import COUNTER_NAMES, SPAN_NAMES, Tracer, instrument
    from workloads import InProcessCli

    # untraced rounds before and after the traced ones; their mean is the baseline
    untraced = [workload.run_round(InProcessCli(), checks)]
    tracer = Tracer()
    uninstrument = instrument(tracer)
    rounds = _run_rounds(workload, InProcessCli(tracer), checks, seconds)
    uninstrument()
    untraced.append(workload.run_round(InProcessCli(), checks))
    tracer.dump(WORK_ROOT / f"trace-{workload.name}.jsonl")
    n = len(rounds)
    traced_s = statistics.median(r.seconds for r in rounds)
    untraced_s = statistics.mean(r.seconds for r in untraced)
    values = {}
    for name in names:
        if name == "cli.startup.ms":
            values[name] = _startup_ms()
        elif name == "trace.overhead.ms":
            values[name] = (traced_s - untraced_s) * 1000.0
        elif name.endswith(".ms") and name[:-3] in SPAN_NAMES:
            values[name] = tracer.self_seconds.get(name[:-3], 0.0) * 1000.0 / n
        elif name in COUNTER_NAMES:
            count = tracer.counts.get(name, 0)
            values[name] = count // n if count % n == 0 else count / n
        else:
            raise KeyError(f"per-layer metric {name!r} matches no span or counter")
    print(f"  traced round {traced_s:.3f} s, untraced round {untraced_s:.3f} s, "
          f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped")
    return values, n


def _report(args, rounds: int, metrics: dict, checks) -> None:
    print(f"divbound benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {rounds} rounds")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:34s} {shown} {metric['unit']}")
    print(f"  operations attempted {checks.attempted}, failed {checks.failed}, "
          f"correct {checks.correct}")
    for check, (count, examples) in sorted(checks.failures.items()):
        print(f"  failed check {check}: {count} operations, e.g.")
        for example in examples:
            print(f"    {example}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "divbound" / "__init__.py").is_file():
        print(f"error: no divbound package under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(SRC))
    import divbound  # noqa: F401  imported before the first set-up, so that set-ups compare alike

    from workloads import WORKLOADS, Checks, SubprocessCli

    workload = WORKLOADS[args.workload]()
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        setup_times = _set_up(workload, workdir / "inputs", args.seed, SubprocessCli(SRC, workdir))
        workload.prepare()
        # keep the benchmark's own objects out of the collections timed in the rounds
        gc.collect()
        gc.freeze()
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values, rounds = _per_layer(workload, seconds, names, checks)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values, rounds = _end_to_end(workload, workdir, seconds, setup_times, checks)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    _report(args, rounds, metrics, checks)
    print(json.dumps({"correct": checks.correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
