"""Command-line front end.

Subcommands: compute, bound, invert, verify, scan, decompose.  Measures
come from JSON or CSV files in the formats of :mod:`divbound.measure`.
Exit codes: 0 success, 2 usage or parse errors, 3 domain violations.
Floating-point output uses 9 significant digits unless overridden with
--precision or the DIVBOUND_PRECISION environment variable; upper bounds
print rounded up, divergence floors rounded down, everything else to
nearest.  "inf" is the textual form of +infinity everywhere.

Each subcommand imports the modules it runs when it runs, as the
``divbound`` namespace resolves its names on first use: ``invert``,
``--help`` and usage errors never import numpy; ``compute``, ``bound``,
``verify``, ``scan`` and ``decompose`` compute on arrays and do.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import not_
from typing import Callable

from .bounds import invert, lower_bound
from .errors import (
    AbsoluteContinuityViolation,
    DomainError,
    InvalidMeasure,
    NonMonotoneGenerator,
    UnknownGenerator,
)
from .extreal import (
    DOWN,
    MAX_PRECISION,
    _nearest_format,
    encode_extended,
    format_extended,
    parse_extended,
)
from .generator import BUILTIN_NAMES, builtin

_GENERATOR_CHOICES = tuple(name.lower() for name in BUILTIN_NAMES)
_DEFAULT_PRECISION = 9


def _extended_value(text: str) -> float:
    try:
        return parse_extended(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'inf', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divbound",
        description="f-divergences between finite discrete measures and "
        "certified total-variation bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen(p: argparse.ArgumentParser) -> None:
        p.add_argument("--gen", required=True, type=str.lower, choices=_GENERATOR_CHOICES,
                       help="generator name")

    def add_common(p: argparse.ArgumentParser, run: Callable[[argparse.Namespace, int], int]) -> None:
        p.add_argument("--precision", type=int, default=None,
                       help=f"significant digits for printed numbers, 1 to {MAX_PRECISION} "
                       "(default 9)")
        p.set_defaults(run=run)

    p = sub.add_parser("compute", help="divergence of two probability measure files")
    add_gen(p)
    p.add_argument("--mu", required=True, help="file with the first measure")
    p.add_argument("--nu", required=True, help="file with the second measure")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    add_common(p, _cmd_compute)

    p = sub.add_parser("bound", help="divergence floor implied by a total variation value")
    add_gen(p)
    p.add_argument("--tv", required=True, type=float, help="total variation in [0, 2]")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    add_common(p, _cmd_bound)

    p = sub.add_parser("invert", help="certified TV upper bound from a divergence value")
    add_gen(p)
    p.add_argument("--d", required=True, type=_extended_value,
                   help="divergence value (nonnegative number or 'inf')")
    add_common(p, _cmd_invert)

    p = sub.add_parser("verify", help="soundness sweep of the bound over random pairs")
    add_gen(p)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--max-support", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, _cmd_verify)

    p = sub.add_parser("scan", help="CSV scan of the bound over binary measure pairs")
    add_gen(p)
    p.add_argument("--resolution", type=int, default=100, help="grid points per axis")
    add_common(p, _cmd_scan)

    p = sub.add_parser("decompose", help="Hahn-Jordan decomposition of a signed measure file")
    p.add_argument("--nu", required=True, help="file with the signed measure")
    p.add_argument("--format", choices=("json", "plain"), default="json")
    add_common(p, _cmd_decompose)

    return parser


def _resolve_precision(args: argparse.Namespace) -> int:
    if args.precision is not None:
        value = args.precision
    else:
        env = os.environ.get("DIVBOUND_PRECISION")
        if env is None:
            return _DEFAULT_PRECISION
        try:
            value = int(env)
        except ValueError:
            raise DomainError(f"DIVBOUND_PRECISION must be an integer, got {env!r}") from None
    _nearest_format(value)  # DomainError outside 1..MAX_PRECISION, before any work
    return value


def _print_value(args: argparse.Namespace, fields: dict, key: str, value: float,
                 precision: int, rounding: str | None = None) -> int:
    if args.format == "json":
        print(json.dumps({**fields, key: encode_extended(value, precision, rounding)}))
    else:
        print(format_extended(value, precision, rounding))
    return 0


def _cmd_compute(args: argparse.Namespace, precision: int) -> int:
    from .divergence import d_f
    from .measure import read_probability_measure

    gen = builtin(args.gen)
    value = d_f(gen, read_probability_measure(args.mu), read_probability_measure(args.nu)).value
    return _print_value(args, {"divergence": gen.name}, "value", value, precision)


def _cmd_bound(args: argparse.Namespace, precision: int) -> int:
    gen = builtin(args.gen)
    return _print_value(args, {"divergence": gen.name, "tv": args.tv}, "lower_bound",
                        lower_bound(gen, args.tv), precision, DOWN)


def _cmd_invert(args: argparse.Namespace, precision: int) -> int:
    cert = invert(builtin(args.gen), args.d)
    print(json.dumps(cert.to_json_dict(precision)))
    return 0


def _cmd_verify(args: argparse.Namespace, precision: int) -> int:
    from .jointrange import verify_bound

    report = verify_bound(builtin(args.gen), args.trials, args.max_support, args.seed)
    print(json.dumps(report.to_json_dict(precision)))
    return 0


def _cmd_scan(args: argparse.Namespace, precision: int) -> int:
    from .jointrange import _write_scan

    _write_scan(builtin(args.gen), args.resolution, sys.stdout, precision)
    return 0


def _cmd_decompose(args: argparse.Namespace, precision: int) -> int:
    from .measure import hahn_jordan, read_signed_measure

    nu = read_signed_measure(args.nu)
    parts = hahn_jordan(nu)
    inside = list(map(parts.positive_set.__contains__, nu.atoms))  # P and N partition the atoms
    totals = {"upper_total": parts.upper.total(), "lower_total": parts.lower.total()}
    totals["total_variation"] = totals["upper_total"] + totals["lower_total"]
    if args.format == "plain":
        text = " ".join(nu.atoms)  # writable when stdout can encode it and the ids are
        try:  # nonempty, printable and spaceless; a JSON escape can give a lone surrogate
            text.encode(sys.stdout.encoding or "utf-8", sys.stdout.errors or "strict")
        except UnicodeEncodeError as exc:
            atom = next(a for a in nu.atoms if exc.object[exc.start] in a)
            raise InvalidMeasure(f"atom id {atom!r} cannot be written as {exc.encoding}") from None
        if "" in nu.atoms or text.count(" ") > max(len(nu.atoms) - 1, 0) or not text.isprintable():
            atom = next(a for a in nu.atoms if not a or " " in a or not a.isprintable())
            raise InvalidMeasure(f"atom id {atom!r} cannot be written as space-separated text")
        lines = [f"P: {' '.join(compress(nu.atoms, inside))}",
                 f"N: {' '.join(compress(nu.atoms, map(not_, inside)))}",
                 *(f"{key}: {format_extended(value, precision)}" for key, value in totals.items())]
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    # the text json.dumps gives the dict of the sets, both parts' to_json_dict and the totals,
    # written from the id and weight columns with the encoders json.dumps uses: ASCII-escaped
    # strings, and float.__repr__ (which "%r" calls) for the weights
    ids = list(map(encode_basestring_ascii, nu.atoms))
    atom = '{"id": %s, "w": %r}'
    upper, lower = (", ".join(map(atom.__mod__, zip(ids, m.weights.tolist())))
                    for m in (parts.upper, parts.lower))
    encoded = {key: encode_extended(value, precision) for key, value in totals.items()}
    print(f'{{"positive_set": [{", ".join(compress(ids, inside))}], '
          f'"negative_set": [{", ".join(compress(ids, map(not_, inside)))}], '
          f'"upper": {{"atoms": [{upper}]}}, "lower": {{"atoms": [{lower}]}}, '
          f'{json.dumps(encoded)[1:]}')
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 after --help, else with 2
        return exc.code
    try:
        precision = _resolve_precision(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args, precision)
    except (InvalidMeasure, UnknownGenerator, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AbsoluteContinuityViolation, DomainError, NonMonotoneGenerator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    code = main()
    # At exit the interpreter runs full collections over every object still alive, numpy's
    # included, although the process is about to end; frozen objects sit in the permanent
    # generation, which those collections skip.  From the end of main() to process exit, medians
    # of 15 on a shared 2-core Xeon: 26.1 -> 6.7 ms after compute, 11.6 -> 3.3 ms after invert.
    # main() itself runs with the collector as it was, for tests and in-process callers.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
