"""The package namespace resolves on first use, and start-up imports no numpy."""

import json
import sys
from pathlib import Path

import pytest

import divbound
from divbound import BUILTIN_NAMES
from helpers import python

FIXTURES = Path(__file__).parent / "fixtures"

PUBLIC_NAMES = [
    "AbsoluteContinuityViolation", "BUILTIN_NAMES", "DivboundError", "DivergenceValue",
    "DomainError", "Generator", "HahnDecomposition", "INF", "InvalidMeasure",
    "MeasureFormatError", "NonMonotoneGenerator", "ProbabilityMeasure", "ScanRecord",
    "SignedMeasure", "TvCertificate", "UnknownGenerator", "VerificationReport", "align",
    "bretagnolle_huber", "bretagnolle_huber_certificate", "builtin", "check_monotone",
    "check_separation", "d_f", "default_grid", "density_ratio", "dual", "format_extended",
    "hahn_jordan", "hellinger", "hellinger_bound", "hellinger_certificate", "invert",
    "is_builtin", "is_finite", "kl", "lower_bound", "parse_extended", "pearson", "phi",
    "random_pair", "read_probability_measure", "read_signed_measure", "scan_binary",
    "scan_to_csv", "sh", "subset_extrema", "subset_totals", "tightness_gap",
    "total_variation_norm", "tv", "tv_distance", "tv_via_density", "verify_bound",
]


class TestNamespace:
    def test_public_names_are_pinned(self):
        assert divbound.__all__ == PUBLIC_NAMES

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from divbound import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES

    def test_each_name_is_its_submodule_object(self):
        for name in PUBLIC_NAMES:
            value = getattr(divbound, name)
            module = sys.modules[f"divbound.{divbound._SOURCE[name]}"]
            assert vars(module)[name] is value, name

    def test_dir_covers_all(self):
        assert set(PUBLIC_NAMES) <= set(dir(divbound))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'nope'"):
            divbound.nope
        assert not hasattr(divbound, "np")

    def test_first_access_binds_the_name(self, monkeypatch):
        monkeypatch.delitem(vars(divbound), "invert", raising=False)
        assert "invert" not in vars(divbound)
        resolved = divbound.invert
        assert vars(divbound)["invert"] is resolved is divbound.bounds.invert


# (argv, exit code) of every cli.main call the start-up guard makes, all without numpy
NUMPY_FREE = [(["invert", "--gen", name.lower(), "--d", d], 0)
              for name in BUILTIN_NAMES for d in ("0", "0.5", "inf")]
NUMPY_FREE += [(["invert", "--gen", "kl", "--d", "-1"], 3),
               (["invert", "--gen", "xx", "--d", "0.5"], 2), (["--help"], 0)]

GUARD = """
import contextlib, io, json, sys
import divbound
loaded = [["import divbound", None, "numpy" in sys.modules]]
from divbound.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    loaded.append([argv, code, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


class TestStartup:
    def test_invert_help_and_usage_errors_import_no_numpy(self):
        result = python("-c", GUARD, json.dumps([argv for argv, _ in NUMPY_FREE]))
        assert result.returncode == 0, result.stderr
        steps = json.loads(result.stdout)
        assert steps[0] == ["import divbound", None, False]
        assert steps[1:] == [[argv, code, False] for argv, code in NUMPY_FREE]

    @pytest.mark.parametrize("argv", (
        ["compute", "--gen", "kl", "--mu", str(FIXTURES / "bernoulli_half.json"),
         "--nu", str(FIXTURES / "bernoulli_quarter.json")],
        ["bound", "--gen", "kl", "--tv", "0.5"],
        ["verify", "--gen", "kl", "--trials", "100"],
        ["scan", "--gen", "kl", "--resolution", "3"],
        ["decompose", "--nu", str(FIXTURES / "signed_mixed.json")],
    ), ids=lambda argv: argv[0])
    def test_array_subcommands_run_in_a_fresh_interpreter(self, argv):
        result = python("-m", "divbound", *argv)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout
