"""Command-line contract: outputs, formats, and the 0/2/3 exit code scheme."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbound import (
    SignedMeasure,
    TvCertificate,
    builtin,
    hahn_jordan,
    lower_bound,
    read_signed_measure,
    scan_binary,
    scan_to_csv,
)
from divbound import cli
from divbound.cli import build_parser, main
from divbound.extreal import DOWN, MAX_PRECISION, format_extended
from helpers import decompose_json_dumps

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

HALF = str(FIXTURES / "bernoulli_half.json")
HALF_CSV = str(FIXTURES / "bernoulli_half.csv")
QUARTER = str(FIXTURES / "bernoulli_quarter.json")
POINT = str(FIXTURES / "point_mass.json")
SIGNED = str(FIXTURES / "signed_mixed.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decompose_process(path, fmt):
    """``divbound decompose`` in a process of its own, as pytest's capture encodes stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}
    return subprocess.run([sys.executable, "-m", "divbound", "decompose", "--nu", str(path),
                           "--format", fmt], env=env, capture_output=True, timeout=120)


class TestCompute:
    def test_kl_fixture(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "kl", "--mu", HALF, "--nu", QUARTER)
        assert code == 0
        assert out.strip() == "0.143841036"

    def test_identical_files(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "pe", "--mu", HALF, "--nu", HALF)
        assert code == 0
        assert out.strip() == "0"

    def test_csv_input(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "kl", "--mu", HALF_CSV, "--nu", QUARTER)
        assert code == 0
        assert out.strip() == "0.143841036"

    def test_infinite_result_prints_inf(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "sh", "--mu", POINT, "--nu", QUARTER)
        assert code == 0
        assert out.strip() == "inf"

    def test_csv_with_byte_order_mark(self, capsys, tmp_path):
        marked = tmp_path / "half.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(HALF_CSV).read_bytes())
        expected = run(capsys, "compute", "--gen", "kl", "--mu", HALF_CSV, "--nu", QUARTER)
        assert run(capsys, "compute", "--gen", "kl", "--mu", str(marked), "--nu", QUARTER) == expected
        assert expected[0] == 0

    def test_absolute_continuity_violation_exits_3(self, capsys):
        code, _, err = run(capsys, "compute", "--gen", "sh", "--mu", HALF, "--nu", POINT)
        assert code == 3
        assert "a2" in err

    def test_parse_errors_exit_2(self, capsys):
        for bad in ("bad_nan.json", "bad_duplicate.json", "bad_syntax.json"):
            code, _, err = run(capsys, "compute", "--gen", "kl",
                               "--mu", str(FIXTURES / bad), "--nu", QUARTER)
            assert code == 2, bad
            assert err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--gen", "kl",
                         "--mu", str(FIXTURES / "nope.json"), "--nu", QUARTER)
        assert code == 2

    def test_unknown_generator_exits_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--gen", "js", "--mu", HALF, "--nu", QUARTER)
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "kl", "--mu", HALF,
                           "--nu", QUARTER, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"divergence": "KL", "value": 0.143841036}

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "kl", "--mu", HALF,
                           "--nu", QUARTER, "--precision", "3")
        assert code == 0
        assert out.strip() == "0.144"

    def test_precision_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVBOUND_PRECISION", "12")
        code, out, _ = run(capsys, "compute", "--gen", "kl", "--mu", HALF, "--nu", QUARTER)
        assert code == 0
        assert out.strip() == "0.143841036226"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVBOUND_PRECISION", "12")
        code, out, _ = run(capsys, "compute", "--gen", "kl", "--mu", HALF,
                           "--nu", QUARTER, "--precision", "3")
        assert code == 0
        assert out.strip() == "0.144"

    def test_bad_env_precision_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVBOUND_PRECISION", "lots")
        code, _, _ = run(capsys, "compute", "--gen", "kl", "--mu", HALF, "--nu", QUARTER)
        assert code == 2

    def test_csv_error_names_the_physical_line(self, capsys, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('id,w\na,0.5\n"b\nc",0.5\nd,x\n')
        code, out, err = run(capsys, "compute", "--gen", "kl", "--mu", str(path), "--nu", HALF)
        assert code == 2
        assert out == ""
        assert err == "error: line 5: weight 'x' is not a number\n"


class TestRatioOverflow:
    """mu = (0.5, 0.5) from nu = (2.5e-309, 1.0), a valid pair whose ratio mu_1 / nu_1 overflows."""

    @staticmethod
    def compute(tmp_path, gen, mu, nu):
        paths = []
        for name, weights in (("mu", mu), ("nu", nu)):
            atoms = [{"id": f"a{i + 1}", "w": w} for i, w in enumerate(weights)]
            (path := tmp_path / f"{name}.json").write_text(json.dumps({"atoms": atoms}))
            paths.append(str(path))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        return subprocess.run([sys.executable, "-m", "divbound", "compute", "--gen", gen,
                               "--mu", paths[0], "--nu", paths[1], "--precision", "17"],
                              env=env, capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("gen, expected", [
        ("tv", "1"), ("he", "0.58578643762690497"), ("sh", "0.69314718055994529"),
        ("kl", "inf"), ("pe", "inf"),  # infinite slopes: a sound upper end
    ])
    def test_compute(self, tmp_path, gen, expected):
        done = self.compute(tmp_path, gen, (0.5, 0.5), (2.5e-309, 1.0))
        assert (done.returncode, done.stdout, done.stderr) == (0, expected + "\n", "")

    def test_reverse_kl_with_an_atom_mu_misses(self, tmp_path):
        done = self.compute(tmp_path, "sh", (0.5, 0.5, 0.0), (2.5e-309, 0.5, 0.5))
        assert (done.returncode, done.stdout, done.stderr) == (0, "inf\n", "")


class TestPrecisionLimit:
    def test_at_the_limit_prints(self, capsys):
        code, out, err = run(capsys, "bound", "--gen", "kl", "--tv", "0.3",
                             "--precision", str(MAX_PRECISION))
        assert (code, err) == (0, "")
        value = lower_bound(builtin("kl"), 0.3)
        assert out == format_extended(value, MAX_PRECISION, DOWN) + "\n"
        assert float(out) == value

    @pytest.mark.parametrize("argv", (
        ["bound", "--gen", "kl", "--tv", "0.3"],
        ["compute", "--gen", "kl", "--mu", HALF, "--nu", QUARTER],
        ["scan", "--gen", "kl", "--resolution", "3"],
    ))
    def test_above_the_limit_exits_2(self, capsys, monkeypatch, argv):
        over = MAX_PRECISION + 1
        code, out, err = run(capsys, *argv, "--precision", str(over))
        assert (code, out) == (2, "")
        assert err == f"error: precision must be at most {MAX_PRECISION}, got {over}\n"
        monkeypatch.setenv("DIVBOUND_PRECISION", "99999999999")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: precision must be at most {MAX_PRECISION}, got 99999999999\n"

    def test_help_names_the_limit(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bound", "--help"])
        assert f"1 to {MAX_PRECISION}" in " ".join(capsys.readouterr().out.split())


class TestBound:
    def test_tv_value(self, capsys):
        code, out, _ = run(capsys, "bound", "--gen", "tv", "--tv", "0.5")
        assert code == 0
        assert out.strip() == "0.5"

    def test_no_negative_zero(self, capsys):
        code, out, _ = run(capsys, "bound", "--gen", "sh", "--tv", "0")
        assert code == 0
        assert out.strip() == "0"
        # phi rounded to -1.1e-16 for SH at tv = 1e-14 and 5e-14, and for KL at 1.122e-16
        for gen in ("sh", "kl"):
            for tv in ("1e-14", "5e-14", "1.1220184543019654e-16"):
                code, out, _ = run(capsys, "bound", "--gen", gen, "--tv", tv, "--precision", "17")
                assert code == 0
                assert not out.startswith("-") and float(out) >= 0.0, (gen, tv, out)

    def test_floor_prints_rounded_down(self, capsys):
        exact = lower_bound(builtin("KL"), 0.5)
        for precision in range(1, 18):
            code, out, _ = run(capsys, "bound", "--gen", "kl", "--tv", "0.5",
                               "--precision", str(precision))
            assert code == 0
            assert float(out) <= exact
            code, out, _ = run(capsys, "bound", "--gen", "kl", "--tv", "0.5", "--format", "json",
                               "--precision", str(precision))
            assert json.loads(out)["lower_bound"] <= exact

    def test_out_of_range_exits_3(self, capsys):
        code, _, _ = run(capsys, "bound", "--gen", "kl", "--tv", "3.0")
        assert code == 3

    def test_malformed_value_exits_2(self, capsys):
        code, _, _ = run(capsys, "bound", "--gen", "kl", "--tv", "abc")
        assert code == 2


class TestInvert:
    def test_sh_certificate(self, capsys):
        code, out, _ = run(capsys, "invert", "--gen", "sh", "--d", "0.1")
        assert code == 0
        data = json.loads(out)
        assert data["divergence"] == "SH"
        assert data["method"] == "numeric-inversion"
        assert data["value"] == 0.1
        assert data["tv_upper_bound"] == pytest.approx(0.6169686603516922, abs=1e-6)

    def test_pearson_closed_form(self, capsys):
        code, out, _ = run(capsys, "invert", "--gen", "pe", "--d", "0.5")
        assert code == 0
        # the exact supremum 1, which no rounding moves
        assert out == '{"divergence": "PE", "value": 0.5, "tv_upper_bound": 1.0, "method": "numeric-inversion"}\n'

    def test_infinite_divergence(self, capsys):
        code, out, _ = run(capsys, "invert", "--gen", "kl", "--d", "inf")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "inf"
        assert data["tv_upper_bound"] == 2.0

    def test_malformed_value_exits_2(self, capsys):
        code, _, _ = run(capsys, "invert", "--gen", "kl", "--d", "oops")
        assert code == 2

    @pytest.mark.parametrize("d", ("-0", "-0.0", "-1e-13"))
    def test_negative_zero_prints_zero(self, capsys, d):
        code, out, _ = run(capsys, "invert", "--gen", "kl", f"--d={d}")
        assert code == 0
        assert out == '{"divergence": "KL", "value": 0.0, "tv_upper_bound": 0.0, "method": "numeric-inversion"}\n'

    def test_negative_value_exits_3(self, capsys):
        code, _, _ = run(capsys, "invert", "--gen", "kl", "--d", "-0.5")
        assert code == 3

    def test_printed_bound_covers_the_supremum(self, capsys):
        # exact Bretagnolle-Huber supremum at d = 0.869, which rounding to nearest undershoots
        for precision in range(1, 18):
            code, out, _ = run(capsys, "invert", "--gen", "sh", "--d", "0.869",
                               "--precision", str(precision))
            assert code == 0
            assert json.loads(out)["tv_upper_bound"] >= 1.5239806949663057

    @pytest.mark.parametrize("gen", ("he", "tv", "kl", "pe", "sh"))
    def test_golden_certificates(self, capsys, gen):
        outputs = []
        for k in range(61):
            code, out, _ = run(capsys, "invert", "--gen", gen, "--d", repr(k / 20),
                               "--precision", "17")
            assert code == 0
            outputs.append(out)
        assert "".join(outputs) == (FIXTURES / f"invert_{gen}.json").read_text()

    def test_printed_certificate_round_trips(self, capsys):
        code, out, _ = run(capsys, "invert", "--gen", "he", "--d", "0.3")
        assert code == 0
        data = json.loads(out)
        cert = TvCertificate.from_json_dict(data)
        assert cert.to_json_dict(precision=9) == data


class TestVerify:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "he", "--trials", "1000", "--seed", "7")
        assert code == 0
        data = json.loads(out)
        assert data["generator"] == "HE"
        assert data["trials"] == 1000
        assert data["passed"] is True
        assert float(data["max_violation"]) <= 1e-9

    def test_bad_trials_exits_3(self, capsys):
        code, _, _ = run(capsys, "verify", "--gen", "he", "--trials", "0")
        assert code == 3

    def test_uncountable_trials_exit_3(self, capsys):
        # a range of trials holds at most sys.maxsize of them
        code, out, err = run(capsys, "verify", "--gen", "kl", "--trials", str(10**30))
        assert (code, out) == (3, "")
        assert err == f"error: trials must be at most {sys.maxsize}, got {10**30}\n"

    @pytest.mark.parametrize("max_support", ("8", "64"))
    @pytest.mark.parametrize("gen", ("he", "tv", "kl", "pe", "sh"))
    def test_golden_report(self, capsys, gen, max_support):
        code, out, _ = run(capsys, "verify", "--gen", gen, "--trials", "2000", "--seed", "7",
                           "--max-support", max_support, "--precision", "17")
        assert code == 0
        assert out == (FIXTURES / f"verify_{gen}_{max_support}.json").read_text()

    # each generator as (float f on x > 0, mpmath f), written apart from divbound
    GENERATORS = {
        "HE": (lambda x: (math.sqrt(x) - 1.0) ** 2, lambda x: (mpmath.sqrt(x) - 1) ** 2),
        "TV": (lambda x: abs(x - 1.0), lambda x: abs(x - 1)),
        "KL": (lambda x: x * math.log(x), lambda x: x * mpmath.log(x)),
        "PE": (lambda x: (x - 1.0) ** 2, lambda x: (x - 1) ** 2),
        "SH": (lambda x: -math.log(x), lambda x: -mpmath.log(x)),
    }

    @pytest.mark.parametrize("max_support", ("8", "64"))
    @pytest.mark.parametrize("gen", ("he", "tv", "kl", "pe", "sh"))
    def test_golden_violation_recomputes_from_its_worst_pair(self, gen, max_support):
        # phi(tv/2) at 60 digits minus sum nu f(mu/nu) by fsum; the tolerance is the benchmark's
        data = json.loads((FIXTURES / f"verify_{gen}_{max_support}.json").read_text())
        f, f_mp = self.GENERATORS[data["generator"]]
        mu = [a["w"] for a in data["worst_pair"]["mu"]["atoms"]]
        nu = [a["w"] for a in data["worst_pair"]["nu"]["atoms"]]
        assert all(w > 0.0 for w in mu + nu)
        divergence = math.fsum(n * f(m / n) for m, n in zip(mu, nu))
        with mpmath.workdps(60):
            t = mpmath.fsum(abs(mpmath.mpf(m) - mpmath.mpf(n)) for m, n in zip(mu, nu)) / 2
            violation = float(f_mp(1 + t) + f_mp(1 - t) - divergence)
        reported = float(data["max_violation"])
        assert abs(reported - violation) <= 1e-12 + 1e-9 * abs(violation), (reported, violation)


class TestScan:
    def test_csv_structure(self, capsys):
        code, out, _ = run(capsys, "scan", "--gen", "kl", "--resolution", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,tv,divergence,lower_bound,slack"
        assert len(lines) == 26
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            assert float(cells[5]) >= -1e-9

    def test_uncountable_resolution_exits_3(self, capsys):
        # the grid's resolution**2 points must be countable
        code, out, err = run(capsys, "scan", "--gen", "kl", "--resolution", str(10**30))
        assert (code, out) == (3, "")
        assert err == f"error: resolution must be at most {math.isqrt(sys.maxsize)}, got {10**30}\n"

    def test_no_negative_zero_cells(self, capsys):
        code, out, _ = run(capsys, "scan", "--gen", "sh", "--resolution", "9")
        assert code == 0
        assert "-0" not in out.replace("\n", ",").split(",")

    @pytest.mark.parametrize("gen", ("he", "tv", "kl", "pe", "sh"))
    def test_golden_scan(self, capsys, gen):
        code, out, _ = run(capsys, "scan", "--gen", gen, "--resolution", "12", "--precision", "17")
        assert code == 0
        assert out == (FIXTURES / f"scan_{gen}.csv").read_text()

    @pytest.mark.parametrize("resolution", (2, 3, 7, 41, 200))
    @pytest.mark.parametrize("gen", ("he", "tv", "kl", "pe", "sh"))
    def test_stdout_equals_scan_to_csv_of_the_records(self, capsys, gen, resolution):
        records = scan_binary(builtin(gen), resolution)
        for precision in range(1, 18):
            expected = io.StringIO()
            scan_to_csv(records, expected, precision)
            code, out, _ = run(capsys, "scan", "--gen", gen, "--resolution", str(resolution),
                               "--precision", str(precision))
            assert (code, out) == (0, expected.getvalue()), precision

    def test_traced_memory_does_not_grow_with_the_grid(self):
        # the CSV is written block by block: 16x the rows, at most 2x the traced peak
        class Sink(io.TextIOBase):
            def write(self, text):
                return len(text)

        def peak(resolution):
            with redirect_stdout(Sink()):
                tracemalloc.start()
                try:
                    assert main(["scan", "--gen", "kl", "--resolution", str(resolution)]) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(2)  # imports and first-use caches outside the measured calls
        small, large = peak(100), peak(400)
        assert large <= 2 * small, (small, large)


class TestDecompose:
    def test_mixed_fixture(self, capsys):
        code, out, _ = run(capsys, "decompose", "--nu", SIGNED)
        assert code == 0
        data = json.loads(out)
        assert data["positive_set"] == ["a1"]
        assert data["negative_set"] == ["a2", "a3"]
        assert data["upper_total"] == 0.3
        assert data["lower_total"] == 0.3
        assert data["total_variation"] == 0.6
        assert data["upper"]["atoms"][0] == {"id": "a1", "w": 0.3}

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "decompose", "--nu", SIGNED, "--format", "plain")
        assert code == 0
        assert "P: a1" in out
        assert "N: a2 a3" in out

    def test_probability_file_is_valid_signed_input(self, capsys):
        code, out, _ = run(capsys, "decompose", "--nu", HALF)
        assert code == 0
        assert json.loads(out)["negative_set"] == []

    @pytest.mark.parametrize("fmt, suffix", (("json", "json"), ("plain", "txt")))
    def test_golden_decomposition(self, capsys, fmt, suffix):
        code, out, _ = run(capsys, "decompose", "--nu", SIGNED, "--format", fmt,
                           "--precision", "17")
        assert code == 0
        assert out == (FIXTURES / f"decompose_signed.{suffix}").read_text()


    @pytest.mark.parametrize("name, content", (
        ("huge.json", b'{"atoms": [{"id": "x", "w": 1' + b"0" * 400 + b"}]}"),
        ("digits.json", b'{"atoms": [{"id": "x", "w": 1' + b"0" * 4400 + b"}]}"),
        ("deep.json", b"[" * 200_000 + b"]" * 200_000),
        ("latin1.csv", b"id,w\xff\n"),
        ("latin1.json", b'{"atoms": [{"id": "\xe9", "w": 1}]}'),
    ))
    def test_unreadable_file_exits_2(self, capsys, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run(capsys, "decompose", "--nu", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", (
        ["decompose", "--nu"],
        ["compute", "--gen", "kl", "--nu", HALF, "--mu"],
    ))
    def test_csv_field_past_size_limit_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "huge.csv"
        path.write_text("id,w\n" + "x" * 200_000 + ",1\n")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: field larger than field limit (131072)\n"

    def test_sets_list_the_sign_split_in_atom_order(self, capsys, tmp_path):
        rng = np.random.default_rng(20113)
        weights = rng.standard_normal(1_000)
        weights[rng.choice(1_000, 8, replace=False)] = [0.0, -0.0, 5e-324, -5e-324] * 2
        ids = [f"x{i}" for i in rng.permutation(1_000)]
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(SignedMeasure(ids, weights).to_json_dict()))
        parts = hahn_jordan(SignedMeasure(ids, weights))
        code, out, _ = run(capsys, "decompose", "--nu", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["positive_set"] == [a for a in ids if a in parts.positive_set]
        assert data["negative_set"] == [a for a in ids if a in parts.negative_set]
        code, out, _ = run(capsys, "decompose", "--nu", str(path), "--format", "plain")
        assert out.splitlines()[:2] == ["P: " + " ".join(data["positive_set"]),
                                        "N: " + " ".join(data["negative_set"])]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
                max_size=4),
        st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308)),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(-10**30, 10**30)),
    ), max_size=8, unique_by=lambda entry: entry[0]), st.integers(1, 17))
    def test_json_equals_json_dumps_of_the_dict(self, tmp_path_factory, entries, precision):
        # ids with quotes, backslashes, control and non-ASCII characters, and the empty id;
        # weights as float and integer tokens
        path = tmp_path_factory.mktemp("decompose") / "nu.json"
        atoms = ", ".join(f'{{"id": {json.dumps(a)}, "w": {w!r}}}' for a, w in entries)
        path.write_text(f'{{"atoms": [{atoms}]}}')
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["decompose", "--nu", str(path), "--precision", str(precision)])
        assert (code, out.getvalue()) == (0, decompose_json_dumps(read_signed_measure(path),
                                                                  precision))

    @pytest.mark.parametrize("atoms, bad", (
        ('{"id": "\\ud800", "w": 1.0}, {"id": "b", "w": -0.5}', "'\\ud800'"),
        ('{"id": "a", "w": 1.0}, {"id": "x\\udfff", "w": -0.5}', "'x\\udfff'"),
    ), ids=["in-P", "in-N"])
    def test_lone_surrogate_id(self, tmp_path, atoms, bad):
        # a JSON escape gives an id with a lone surrogate, which no UTF-8 text holds: plain
        # output is refused whole, JSON output escapes it
        path = tmp_path / "nu.json"
        path.write_text(f'{{"atoms": [{atoms}]}}')
        plain = decompose_process(path, "plain")
        assert (plain.returncode, plain.stdout) == (2, b"")
        assert plain.stderr == f"error: atom id {bad} cannot be written as utf-8\n".encode()
        as_json = decompose_process(path, "json")
        assert (as_json.returncode, as_json.stderr) == (0, b"")
        assert as_json.stdout == decompose_json_dumps(read_signed_measure(path), 9).encode()
        assert bad[1:-1].encode() in as_json.stdout

    @pytest.mark.parametrize("atoms, bad", (
        ('{"id": "a\\nN: fake", "w": 1.0}, {"id": "b c", "w": -0.5}, {"id": "d", "w": 0.25}',
         "'a\\nN: fake'"),
        ('{"id": "a", "w": 1.0}, {"id": "b c", "w": -0.5}', "'b c'"),
        ('{"id": "", "w": 1.0}, {"id": "b", "w": -0.5}', "''"),
        ('{"id": "a", "w": 1.0}, {"id": "\\t", "w": -0.5}', "'\\t'"),
        ('{"id": " ", "w": 1.0}, {"id": "b", "w": -0.5}', "' '"),
        ('{"id": "a", "w": 1.0}, {"id": "x\\u2028y", "w": -0.5}', "'x\\u2028y'"),
        ('{"id": "\\u200b", "w": 1.0}, {"id": "b", "w": -0.5}', "'\\u200b'"),
        ('{"id": "a", "w": 1.0}, {"id": "a\\u001b[1A\\u001b[2K", "w": -0.5}',
         "'a\\x1b[1A\\x1b[2K'"),
        ('{"id": "a\\u202eb", "w": 1.0}, {"id": "b", "w": -0.5}', "'a\\u202eb'"),
    ), ids=["line-in-P", "space-in-N", "empty", "tab", "space", "line-separator",
            "zero-width-space", "escape-sequences", "bidi-override"])
    def test_id_that_plain_text_cannot_separate(self, tmp_path, atoms, bad):
        # plain output separates ids with spaces and lines: an id that is empty, holds a space
        # or any character str.isprintable refuses would forge ids or lines, or hide or move
        # text on a terminal, so it is refused whole; JSON output is unchanged
        path = tmp_path / "nu.json"
        path.write_text(f'{{"atoms": [{atoms}]}}')
        plain = decompose_process(path, "plain")
        assert (plain.returncode, plain.stdout) == (2, b"")
        assert plain.stderr == (f"error: atom id {bad} cannot be written as space-separated "
                                "text\n").encode()
        as_json = decompose_process(path, "json")
        assert (as_json.returncode, as_json.stderr) == (0, b"")
        assert as_json.stdout == decompose_json_dumps(read_signed_measure(path), 9).encode()

    def test_id_that_stdout_encoding_cannot_hold(self, tmp_path):
        # a printable id that stdout's encoding cannot hold is refused with that encoding's name
        path = tmp_path / "nu.json"
        path.write_text('{"atoms": [{"id": "\\u00e9", "w": 1.0}, {"id": "b", "w": -0.5}]}')
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "ascii"}
        plain = subprocess.run([sys.executable, "-m", "divbound", "decompose", "--nu", str(path),
                                "--format", "plain"], env=env, capture_output=True, timeout=120)
        assert (plain.returncode, plain.stdout) == (2, b"")
        assert plain.stderr == b"error: atom id '\\xe9' cannot be written as ascii\n"

    def test_overflowing_totals(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,w\na,1e308\nb,1e308\nc,-1e308\nd,-1e308\n")
        code, out, err = run(capsys, "decompose", "--nu", str(path), "--format", "plain")
        assert code == 0
        assert err == ""
        totals = ["upper_total: inf", "lower_total: inf", "total_variation: inf"]
        assert out.splitlines()[2:] == totals


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_entrypoint_freezes_the_collector_once_main_returns(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert (exc.value.code, calls) == (3, ["main", "freeze"])

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "divbound", "invert", "--gen", "pe", "--d", "0.5"],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["tv_upper_bound"] == 1.0
