"""The three workloads: set-up, one round of operations, and the checks.

A round is a fixed list of operations, so every round of a workload
attempts the same operations and fails the same ones.  The CLI runs either
as a fresh interpreter per call (``SubprocessCli``, the end-to-end runs)
or in this process through ``divbound.cli.main`` (``InProcessCli``, the
traced runs).  Checks compare each output with ``reference`` or with a
property the method must have; none compares with a stored output.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import reference
from inputs import BUILTINS

# The certificate-undershoot fault: checks that fail on it count the
# operation as failed but leave the run correct.  Every other failed
# check makes the run incorrect.
COUNTED_CHECKS = ("undershoot.printed", "undershoot.closed-form")

BISECTION_TOL = 1e-10  # bracket width of divbound's bisection, on the TV scale
PRINT_PRECISION = 9
CLI_TIMEOUT_S = 150


@dataclass
class Call:
    code: int
    out: str
    err: str
    seconds: float


class SubprocessCli:
    """``python -m divbound ARGS`` in a fresh interpreter, one call at a time."""

    def __init__(self, src: Path, cwd: Path) -> None:
        self.cwd = cwd
        self.env = {"PYTHONPATH": str(src)}

    def __call__(self, argv: list[str]) -> Call:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "divbound", *argv], cwd=self.cwd,
                              env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return Call(proc.returncode, proc.stdout, proc.stderr, perf_counter() - start)


class InProcessCli:
    """``divbound.cli.main(ARGS)`` in this process, output captured; traced when given a tracer."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> Call:
        from divbound import cli

        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer is None:
                code = cli.main(list(argv))
            else:
                code = self.tracer.call(f"cli.{argv[0]}", cli.main, list(argv))
        return Call(code, out.getvalue(), err.getvalue(), perf_counter() - start)


class Checks:
    """Operations attempted and failed, with a few examples per failed check."""

    EXAMPLES = 4

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, list] = {}  # check -> [operations, examples]

    def record(self, problems: list[tuple[str, str]]) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        for check, detail in problems:
            entry = self.failures.setdefault(check, [0, []])
            entry[0] += 1
            if len(entry[1]) < self.EXAMPLES:
                entry[1].append(detail)
            if check not in COUNTED_CHECKS:
                self.correct = False

    def run(self, check, *args) -> None:
        """Record the problems ``check(*args)`` finds; output it cannot read is one."""
        try:
            problems = check(*args)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [("unreadable-output", f"{check.__name__}: {exc!r}")]
        self.record(problems)


@dataclass
class Round:
    seconds: float = 0.0  # time spent in calls into divbound
    work: int = 0  # units of the workload's throughput metric
    work_seconds: float = 0.0  # time of the calls that did that work
    latencies: list[float] = field(default_factory=list)  # the workload's main CLI calls

    def add(self, seconds: float, work: int = 0, latency: bool = False) -> None:
        self.seconds += seconds
        if work:
            self.work += work
            self.work_seconds += seconds
        if latency:
            self.latencies.append(seconds)


def _exit_problem(call: Call, label: str) -> list[tuple[str, str]]:
    if call.code == 0:
        return []
    return [("exit-code", f"{label}: exit {call.code}: {call.err.strip()[-200:]}")]


def _warm_up(cli) -> None:
    call = cli(["invert", "--gen", "tv", "--d", "0"])
    if call.code != 0:
        raise RuntimeError(f"divbound does not start: {call.err.strip()[-500:]}")


class LargeFiles:
    name = "large-files"

    def setup(self, directory: Path, seed: int, cli) -> None:
        self.files = inputs.large_files(directory, seed)
        _warm_up(cli)

    def prepare(self) -> None:
        self.expected = {(pair.name, gen): reference.divergence(gen, pair.mu, pair.nu)
                         for pair in self.files.pairs for gen in BUILTINS}
        self.l1 = {pair.name: reference.l1(pair.mu, pair.nu) for pair in self.files.pairs}
        self.signed_tv = math.fsum(abs(float(w)) for w in self.files.signed)

    def run_round(self, cli, checks: Checks) -> Round:
        rnd = Round()
        for pair in self.files.pairs:
            for gen in BUILTINS:
                call = cli(["compute", "--gen", gen.lower(), "--mu", str(pair.mu_path),
                            "--nu", str(pair.nu_path), "--precision", "17"])
                rnd.add(call.seconds, work=pair.atoms, latency=True)
                checks.run(self._check_compute, pair, gen, call)
        call = cli(["decompose", "--nu", str(self.files.signed_path), "--format", "json",
                    "--precision", "17"])
        rnd.add(call.seconds, work=inputs.N_ATOMS)
        checks.run(self._check_decompose, call)
        return rnd

    def _check_compute(self, pair, gen: str, call: Call) -> list[tuple[str, str]]:
        label = f"compute {gen} {pair.name}"
        problems = _exit_problem(call, label)
        if problems:
            return problems
        text = call.out.strip()
        got = float(text)
        want = self.expected[(pair.name, gen)]
        if got != want and not abs(got - want) <= 1e-9 * abs(want):
            problems.append(("divergence-value", f"{label}: printed {text!r}, reference {want!r}"))
        l1 = self.l1[pair.name]
        if gen == "TV" and not abs(got - l1) <= 1e-9 * l1:
            problems.append(("tv-equals-l1", f"{label}: printed {text!r}, L1 sum {l1!r}"))
        if gen == "SH" and (text == "inf") != bool((pair.mu == 0.0).any()):
            problems.append(("sh-inf-where-mu-zero", f"{label}: printed {text!r}"))
        return problems

    def _check_decompose(self, call: Call) -> list[tuple[str, str]]:
        problems = _exit_problem(call, "decompose")
        if problems:
            return problems
        data = json.loads(call.out)
        ids = list(self.files.signed_ids)
        weights = [float(w) for w in self.files.signed]
        upper = data["upper"]["atoms"]
        lower = data["lower"]["atoms"]
        if [a["id"] for a in upper] != ids or [a["id"] for a in lower] != ids:
            problems.append(("decompose-support", "upper or lower part is not on the input's atoms"))
        elif any(u["w"] - v["w"] != w or u["w"] < 0.0 or v["w"] < 0.0
                 for u, v, w in zip(upper, lower, weights)):
            problems.append(("decompose-parts", "upper - lower differs from the input, or a part is negative"))
        positive, negative = set(data["positive_set"]), set(data["negative_set"])
        if (positive & negative or len(positive) + len(negative) != len(ids)
                or any((w > 0.0 and a not in positive) or (w < 0.0 and a not in negative)
                       for a, w in zip(ids, weights))):
            problems.append(("decompose-sets", "positive/negative sets do not follow the signs"))
        tv = data["total_variation"]
        if not abs(tv - self.signed_tv) <= 1e-9 * self.signed_tv:
            problems.append(("decompose-total-variation", f"printed {tv!r}, sum |w| {self.signed_tv!r}"))
        return problems


class Sweep:
    name = "sweep"

    def setup(self, directory: Path, seed: int, cli) -> None:
        self.seeds = inputs.verify_seeds(seed)
        _warm_up(cli)

    def prepare(self) -> None:
        pass

    def run_round(self, cli, checks: Checks) -> Round:
        rnd = Round()
        seeds = iter(self.seeds)
        for max_support in inputs.SWEEP_MAX_SUPPORTS:
            for gen in BUILTINS:
                seed = next(seeds)
                call = cli(["verify", "--gen", gen.lower(), "--trials", str(inputs.SWEEP_TRIALS),
                            "--max-support", str(max_support), "--seed", str(seed),
                            "--precision", "17"])
                rnd.add(call.seconds, work=inputs.SWEEP_TRIALS, latency=True)
                checks.run(self._check, gen, max_support, seed, call)
        return rnd

    def _check(self, gen: str, max_support: int, seed: int, call: Call) -> list[tuple[str, str]]:
        label = f"verify {gen} max-support {max_support} seed {seed}"
        problems = _exit_problem(call, label)
        if problems:
            return problems
        data = json.loads(call.out)
        violation = data["max_violation"]
        if (data["generator"] != gen or data["trials"] != inputs.SWEEP_TRIALS
                or data["seed"] != seed):
            problems.append(("verify-echo", f"{label}: echoed {data['generator']!r} "
                             f"trials {data['trials']!r} seed {data['seed']!r}"))
        if data["passed"] is not True or not violation <= 1e-9:
            problems.append(("verify-sound", f"{label}: passed {data['passed']!r}, "
                             f"max_violation {violation!r}"))
        mu = data["worst_pair"]["mu"]["atoms"]
        nu = data["worst_pair"]["nu"]["atoms"]
        mu_w = [a["w"] for a in mu]
        nu_w = [a["w"] for a in nu]
        if ([a["id"] for a in mu] != [a["id"] for a in nu] or not 2 <= len(mu) <= max_support
                or any(w < 0.0 for w in mu_w + nu_w)
                or abs(math.fsum(mu_w) - 1.0) > 1e-9 or abs(math.fsum(nu_w) - 1.0) > 1e-9):
            problems.append(("verify-worst-pair", f"{label}: worst pair is not two probability "
                             f"measures on 2..{max_support} shared atoms"))
            return problems
        div = reference.divergence(gen, mu_w, nu_w)
        recomputed = 0.0 if math.isinf(div) else reference.phi(gen, reference.l1(mu_w, nu_w) / 2.0) - div
        if not abs(recomputed - violation) <= 1e-12 + 1e-9 * abs(violation):
            problems.append(("verify-reproduce", f"{label}: reported {violation!r}, "
                             f"reference {recomputed!r}"))
        return problems


class Certify:
    name = "certify"

    def setup(self, directory: Path, seed: int, cli) -> None:
        import divbound  # already imported by run.py, before the first set-up

        self.divbound = divbound
        self.builtins = {name: divbound.builtin(name) for name in BUILTINS}
        self.custom = {"dual(HE)": divbound.dual(divbound.builtin("HE")),
                       "dual(PE)": divbound.dual(divbound.builtin("PE"))}
        self.budgets = inputs.tightness_budgets(seed)
        self.hellinger = inputs.hellinger_values(seed)
        for g in (*self.builtins.values(), *self.custom.values()):
            divbound.invert(g, 0.5)
        _warm_up(cli)

    def prepare(self) -> None:
        wanted = [(name, d) for name in BUILTINS for d in inputs.D_GRID]
        wanted += [(name, d) for name in self.custom for d in inputs.CUSTOM_D_GRID]
        wanted += [("HE", d) for d in self.hellinger]
        wanted += [(name, d) for name, d in zip(BUILTINS * inputs.TIGHTNESS_BUDGETS, self.budgets)]
        wanted += [(name, d) for name in BUILTINS for d in inputs.CLI_INVERT_D]
        self.sup = {key: reference.tv_supremum(*key) for key in set(wanted)}

    def _library_pass(self, rnd: Round, checks: Checks) -> None:
        db = self.divbound
        for name, g in (*self.builtins.items(), *self.custom.items()):
            grid = inputs.D_GRID if name in self.builtins else inputs.CUSTOM_D_GRID
            for d in grid:
                start = perf_counter()
                cert = db.invert(g, d)
                rnd.add(perf_counter() - start, work=1)
                checks.run(self._check_certificate, rnd, name, g.name, d, cert, "numeric-inversion")

    def run_round(self, cli, checks: Checks) -> Round:
        db = self.divbound
        rnd = Round()
        for gen in BUILTINS:
            self._library_pass(rnd, checks)
            call = cli(["scan", "--gen", gen.lower(), "--resolution", str(inputs.SCAN_RESOLUTION),
                        "--precision", str(PRINT_PRECISION)])
            rnd.add(call.seconds)
            checks.run(self._check_scan, gen, call)
        sh = self.builtins["SH"]
        for d in inputs.D_GRID:
            start = perf_counter()
            cert = db.bretagnolle_huber_certificate(d)
            rnd.add(perf_counter() - start)
            checks.run(self._check_certificate, rnd, "SH", sh.name, d, cert, "bretagnolle-huber")
        for d in self.hellinger:
            start = perf_counter()
            cert = db.hellinger_certificate(d)
            rnd.add(perf_counter() - start)
            checks.run(self._check_certificate, rnd, "HE", "HE", d, cert, "hellinger-closed-form")
        for name, budget in zip(BUILTINS * inputs.TIGHTNESS_BUDGETS, self.budgets):
            start = perf_counter()
            certified, achieved, gap = db.tightness_gap(self.builtins[name], budget,
                                                        inputs.TIGHTNESS_RESOLUTION)
            rnd.add(perf_counter() - start)
            checks.run(self._check_tightness, name, budget, certified, achieved, gap)
        for gen in BUILTINS:
            for d in inputs.CLI_INVERT_D:
                call = cli(["invert", "--gen", gen.lower(), "--d", repr(d),
                            "--precision", str(PRINT_PRECISION)])
                rnd.add(call.seconds, latency=True)
                checks.run(self._check_cli_invert, gen, d, call)
        return rnd

    def _check_printed(self, label: str, ref_name: str, gen_name: str, d: float, printed: dict,
                       method: str) -> list[tuple[str, str]]:
        problems = []
        sup = self.sup[(ref_name, d)]
        tv = printed.get("tv_upper_bound")
        if (printed.get("divergence") != gen_name or printed.get("method") != method
                or printed.get("value") != float(f"{d:.{PRINT_PRECISION}g}") or not isinstance(tv, float)):
            problems.append(("certificate-fields", f"{label}: printed {printed!r}"))
        elif tv < sup:
            # Rounding a sound value to nearest cannot print less than the
            # supremum rounded to nearest; anything lower is not that fault.
            rounded_sup = float(f"{float(sup):.{PRINT_PRECISION}g}")
            check = "undershoot.printed" if tv >= rounded_sup else "certificate-below-supremum"
            problems.append((check, f"{label}: printed {tv!r} < supremum {reference.MP.nstr(sup, 17)}"))
        return problems

    def _check_certificate(self, rnd: Round, ref_name: str, gen_name: str, d: float, cert,
                           method: str) -> list[tuple[str, str]]:
        label = f"{ref_name} d={d!r}"
        start = perf_counter()
        printed = cert.to_json_dict(PRINT_PRECISION)
        rnd.add(perf_counter() - start)
        problems = self._check_printed(label, ref_name, gen_name, d, printed, method)
        sup = self.sup[(ref_name, d)]
        value = cert.tv_upper_bound
        if cert.divergence_value != d or cert.method != method or not 0.0 <= value <= 2.0:
            problems.append(("certificate-fields", f"{label}: {cert!r}"))
        elif value < sup:
            check = "certificate-below-supremum" if method == "numeric-inversion" else "undershoot.closed-form"
            problems.append((check, f"{label}: {value!r} < supremum {reference.MP.nstr(sup, 17)}"))
        elif method == "numeric-inversion" and value - sup > BISECTION_TOL:
            problems.append(("certificate-above-tolerance",
                             f"{label}: {value!r} exceeds supremum {reference.MP.nstr(sup, 17)} by more than {BISECTION_TOL}"))
        return problems

    def _check_tightness(self, name: str, budget: float, certified: float, achieved: float,
                         gap: float) -> list[tuple[str, str]]:
        label = f"tightness_gap {name} d={budget!r}"
        if not (achieved <= certified and gap == certified - achieved
                and certified >= self.sup[(name, budget)]):
            return [("tightness", f"{label}: certified {certified!r} achieved {achieved!r} gap {gap!r}")]
        return []

    def _check_scan(self, gen: str, call: Call) -> list[tuple[str, str]]:
        label = f"scan {gen}"
        problems = _exit_problem(call, label)
        if problems:
            return problems
        lines = call.out.splitlines()
        resolution = inputs.SCAN_RESOLUTION
        if lines[:1] != ["p,q,tv,divergence,lower_bound,slack"] or len(lines) != 1 + resolution ** 2:
            return [("scan-shape", f"{label}: {len(lines)} lines")]
        grid = [(i + 1) / (resolution + 1.0) for i in range(resolution)]
        bad_grid = bad_tv = bad_slack = 0
        example = None
        rows = iter(lines[1:])
        for gp in grid:
            for gq in grid:
                row = next(rows)
                p, q, tv, _, _, slack = (float(x) for x in row.split(","))
                want = 2.0 * abs(gp - gq)
                if abs(p - gp) > 1e-8 * gp or abs(q - gq) > 1e-8 * gq:
                    bad_grid += 1
                if abs(tv - want) > 1e-8 * want:
                    bad_tv += 1
                    example = example or row
                if not slack >= -1e-9:
                    bad_slack += 1
                    example = example or row
        if bad_grid:
            problems.append(("scan-grid", f"{label}: {bad_grid} rows off the grid"))
        if bad_tv:
            problems.append(("scan-tv", f"{label}: {bad_tv} rows with tv != 2|p - q|, e.g. {example}"))
        if bad_slack:
            problems.append(("scan-slack", f"{label}: {bad_slack} rows with slack < -1e-9, e.g. {example}"))
        return problems

    def _check_cli_invert(self, gen: str, d: float, call: Call) -> list[tuple[str, str]]:
        label = f"cli invert {gen} d={d!r}"
        problems = _exit_problem(call, label)
        if problems:
            return problems
        printed = json.loads(call.out)
        problems = self._check_printed(label, gen, gen, d, printed, "numeric-inversion")
        tv = printed.get("tv_upper_bound")
        sup = self.sup[(gen, d)]
        if isinstance(tv, float) and tv > sup + BISECTION_TOL + 1e-8 * tv:
            problems.append(("certificate-above-tolerance", f"{label}: printed {tv!r}, "
                             f"supremum {reference.MP.nstr(sup, 17)}"))
        return problems


WORKLOADS = {w.name: w for w in (LargeFiles, Sweep, Certify)}
