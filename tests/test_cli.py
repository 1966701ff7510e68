"""Command line interface tests: payloads, formats, exit codes,
deterministic output."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalvar import cli, resolution, verify
from kalvar.bott import MAX_EXHAUSTIVE_WORK
from kalvar.polysym import MAX_MINOR_PRODUCTS, MILLER_RABIN_LIMIT, trace_identity_products
from kalvar.report import CheckReport
from kalvar.resolution import MAX_NORMALIZATION_PAIRS
from kalvar.verify import MAX_GRADED_WORK
from record_corpus import CALLS

SRC = Path(__file__).resolve().parents[1] / "src"
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
MINORS_KEYS = [
    "check-minors --d 4 --n 5 --trials 10 --seed *",
    "check-minors --d 3 --n 6 --trials 20 --seed *",
    "check-trace --max-d 4",
]


def src_env(**overrides) -> dict[str, str]:
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def cli_text(capsys, monkeypatch):
    """Exit code, stdout and stderr of one `cli.main` call, whether it
    returns or argparse exits, with help wrapped at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")

    def call(*argv) -> tuple[int, str, str]:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


SUBCOMMAND_CHOICES = (
    "{resolution,generators,hilbert,check-bott,check-les,check-minors,check-trace,"
    "check-minimality,check-all}"
)
MAIN_USAGE = (
    "usage: kalvar [-h] [--format {csv,json,table}] [--output FILE]\n"
    f"              {SUBCOMMAND_CHOICES}\n"
    "              ...\n"
)
MAIN_HELP = (
    "\n"
    "Resolutions, Hilbert series, and defining equations of Kalman varieties, with\n"
    "independent consistency checks.\n"
    "\n"
    "positional arguments:\n"
    f"  {SUBCOMMAND_CHOICES}\n"
    "    resolution          terms of a resolution\n"
    "    generators          minimal generator families of the ideal\n"
    "    hilbert             Hilbert series data of a chain module\n"
    "    check-bott          exhaustive cohomology degree check\n"
    "    check-les           Euler characteristic identity over a grid\n"
    "    check-minors        minors vanish at random points\n"
    "    check-trace         exterior power trace identity\n"
    "    check-minimality    generator counts degree by degree\n"
    "    check-all           full consistency battery at small sizes\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --format {csv,json,table}\n"
    "  --output FILE         write the report to FILE atomically instead of stdout\n"
)


class TestResolution:
    def test_table_format(self, capsys):
        code, out = run(capsys, "resolution", "--d", "2", "--n", "3")
        assert code == 0
        assert "projective_dimension: 1" in out
        assert "numerator: 1 - t^3" in out
        assert "result: pass" in out

    def test_json_rows(self, capsys):
        code, out = run(capsys, "--format", "json", "resolution", "--d", "2", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["projective_dimension"] == 3
        assert payload["summary"]["regularity"] == 2
        twists = {(r[0], r[1]): r[2] for r in payload["rows"]}
        assert twists[(0, 0)] == 1
        assert twists[(1, 2)] == 1
        assert twists[(1, 3)] == 3
        assert twists[(3, 5)] == 1

    def test_normalization_module(self, capsys):
        code, out = run(
            capsys, "--format", "json", "resolution",
            "--s", "1", "--d", "2", "--n", "3", "--module", "normalization",
        )
        assert code == 0
        payload = json.loads(out)
        counts = {(r[0], r[1]): r[2] for r in payload["rows"]}
        assert counts == {(0, 0): 1, (0, 1): 1, (1, 2): 2}

    @staticmethod
    def parts_and_lengths(capsys, module):
        code, out = run(
            capsys, "--format", "json", "resolution",
            "--s", "2", "--d", "4", "--n", "7", "--module", module,
        )
        assert code == 0
        payload = json.loads(out)
        part, lam = payload["columns"].index("part"), payload["columns"].index("lambda")
        return [
            (row[part], 0 if row[lam] == "-" else len(row[lam].split(",")))
            for row in payload["rows"]
        ]

    def test_chain_part_column_follows_lambda_length(self, capsys):
        rows = self.parts_and_lengths(capsys, "chain")
        for part, length in rows:
            assert part == ("II" if length < 2 else "III" if length == 2 else "carried")
        assert {part for part, _ in rows} == {"II", "III", "carried"}

    def test_normalization_part_column_is_null(self, capsys):
        rows = self.parts_and_lengths(capsys, "normalization")
        assert rows
        assert all(part is None for part, _ in rows)

    def test_invalid_params_exit_2(self, capsys):
        code = cli.main(["resolution", "--d", "3", "--n", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestGenerators:
    def test_2_4(self, capsys):
        code, out = run(capsys, "--format", "json", "generators", "--d", "2", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["total_forms"] == 4
        degrees = sorted((r[1], r[2]) for r in payload["rows"])
        assert degrees == [(2, 1), (3, 3)]

    def test_include_empty_flag(self, capsys):
        code, out = run(
            capsys, "--format", "json", "generators", "--d", "3", "--n", "4", "--include-empty"
        )
        assert code == 0
        payload = json.loads(out)
        assert any(r[2] == 0 for r in payload["rows"])


class TestHilbert:
    def test_cubic_hypersurface(self, capsys):
        code, out = run(capsys, "--format", "json", "hilbert", "--d", "2", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["numerator"] == "1 - t^3"
        assert payload["summary"]["codimension"] == 1
        assert payload["rows"][:4] == [[0, 1], [1, 9], [2, 45], [3, 164]]

    def test_codimension_checked(self, capsys):
        code, _ = run(capsys, "hilbert", "--d", "3", "--n", "5")
        assert code == 0

    @pytest.mark.parametrize("s,d,n", [(2, 2, 4), (2, 3, 5), (3, 3, 6)])
    def test_codimension_checked_for_every_s(self, capsys, s, d, n):
        code, out = run(
            capsys, "--format", "json", "hilbert",
            "--s", str(s), "--d", str(d), "--n", str(n), "--max-degree", "2",
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["codimension"] == summary["expected_codimension"] == s * (n - d)


class TestChecks:
    def test_bott(self, capsys):
        code, out = run(capsys, "check-bott", "--max-d", "3", "--lo", "-2", "--hi", "3")
        assert code == 0
        assert "result: pass" in out

    def test_les(self, capsys):
        code, out = run(capsys, "--format", "json", "check-les", "--max-d", "2", "--max-n", "5")
        assert code == 0
        payload = json.loads(out)
        assert all(r[2] == "pass" for r in payload["rows"])

    @pytest.mark.parametrize(
        "bounds", [("--max-d", "0"), ("--max-d", "3", "--max-n", "1"), ("--max-d", "-2")]
    )
    def test_les_with_no_case_exits_2(self, capsys, bounds):
        assert cli.main(["check-les", *bounds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "--max-d" in captured.err and "--max-n" in captured.err

    def test_trace_with_no_case_exits_2(self, capsys):
        assert cli.main(["check-trace", "--max-d", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-d must be at least 1, got 0\n"

    @pytest.mark.parametrize(
        "argv,error",
        [
            (("check-minors", "--d", "2", "--n", "3", "--trials", "0"),
             "--trials must be at least 1, got 0"),
            (("check-minimality", "--d", "2", "--n", "4", "--max-degree", "0"),
             "--max-degree must be at least 1, got 0"),
            (("hilbert", "--d", "2", "--n", "3", "--max-degree", "-3"),
             "--max-degree must be at least 0, got -3"),
        ],
    )
    def test_no_work_exits_2(self, capsys, argv, error):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_minimality_past_the_packed_degree_exits_2(self, capsys):
        # a degree-256 piece could carry in a packed monomial; it is
        # refused before the ranks of the lower degrees are taken
        t0 = time.monotonic()
        assert cli.main(["check-minimality", "--d", "1", "--n", "3", "--max-degree", "256"]) == 2
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "255" in captured.err

    def test_minors_past_the_product_limit_exit_2(self, capsys):
        # (5, 7) bounds at 4.7e13 term products; it used to run for
        # minutes and take gigabytes, and is refused before any expansion
        t0 = time.monotonic()
        assert cli.main(["check-minors", "--d", "5", "--n", "7", "--trials", "1"]) == 2
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the minors take up to 47434859514720 term products, more than the limit of "
            f"{MAX_MINOR_PRODUCTS} (MAX_MINOR_PRODUCTS)\n"
        )

    def test_trace_past_the_product_limit_exits_2(self, capsys, monkeypatch):
        # the (7, 1) to (7, 5) cases alone take 2.3e9 term products; the
        # grid's sum, 1.07e10, is refused before any case runs
        def no_case(d, i):
            raise AssertionError("a check-trace case ran before the limit check")

        monkeypatch.setattr(cli, "trace_identity_check", no_case)
        t0 = time.monotonic()
        assert cli.main(["check-trace", "--max-d", "7"]) == 2
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the minors of check-trace --max-d 7 take up to 10655352354 term products, "
            f"more than the limit of {MAX_MINOR_PRODUCTS} (MAX_MINOR_PRODUCTS)\n"
        )

    def test_trace_grid_of_max_d_6_fits_the_product_limit(self):
        # priced, not run: the (6, i) cases take about a minute
        grid = [(d, i) for d in range(1, 7) for i in range(1, d + 1)]
        assert sum(trace_identity_products(d, i) for d, i in grid) == 85662335 <= MAX_MINOR_PRODUCTS

    def test_minimality_at_the_packed_degree_runs(self, capsys):
        code, out = run(capsys, "check-minimality", "--d", "1", "--n", "2", "--max-degree", "255")
        assert code == 0
        assert "result: pass" in out

    def test_minimality_over_work_limit_exits_2(self, capsys, monkeypatch):
        # (4, 7) to degree 12 bounds at 4.9e10 steps, about 500 times
        # the limit, where (4, 6) to degree 10 (5.3e7) took 43 s; it is
        # refused before any minor is built
        def no_minors(*args):
            raise AssertionError("minors built before the work check")

        monkeypatch.setattr(verify, "top_minors", no_minors)
        argv = ["check-minimality", "--d", "4", "--n", "7", "--max-degree", "12"]
        t0 = time.monotonic()
        assert cli.main(argv) == 2
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the graded ranks of the minors at d=4, n=7 to degree 12 take up to 48909613248 steps, "
            f"more than the limit of {MAX_GRADED_WORK} (MAX_GRADED_WORK)\n"
        )

    @pytest.mark.parametrize(
        "window",
        [
            ("--max-d", "9", "--lo", "-10", "--hi", "10"),
            ("--max-d", "13", "--lo", "0", "--hi", "0"),
        ],
        ids=["21^9-weights", "13!-permutations"],
    )
    def test_bott_over_work_limit_exits_2(self, capsys, window):
        t0 = time.monotonic()
        assert cli.main(["check-bott", *window]) == 2
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert str(MAX_EXHAUSTIVE_WORK) in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("resolution", "--d", "10", "--n", "20"),
            ("resolution", "--s", "7", "--d", "10", "--n", "20", "--module", "normalization"),
            ("hilbert", "--d", "10", "--n", "20"),
            ("check-les", "--max-d", "10", "--max-n", "20"),
        ],
    )
    def test_over_pair_limit_exits_2(self, capsys, monkeypatch, argv):
        def no_case(d, n):
            raise AssertionError("a check-les case ran before the limit check")

        monkeypatch.setattr(cli, "les_euler_check", no_case)
        t0 = time.monotonic()
        assert cli.main(list(argv)) == 2
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert str(MAX_NORMALIZATION_PAIRS) in captured.err

    def test_check_all_and_betti_workload_under_pair_limit(self, capsys, monkeypatch):
        # the operations that reach the normalization loop; the other
        # benchmark operations never build a resolution
        counts = []
        real = resolution.check_pair_count

        def recording(pairs, what):
            counts.append(pairs)
            real(pairs, what)

        monkeypatch.setattr(resolution, "check_pair_count", recording)
        monkeypatch.setattr(cli, "check_pair_count", recording)
        for argv in (
            ["check-all"],
            ["resolution", "--d", "5", "--n", "10"],
            ["check-les", "--max-d", "4", "--max-n", "9"],
        ):
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert counts and max(counts) <= MAX_NORMALIZATION_PAIRS

    def test_minimality_has_no_seed(self, cli_text):
        # the check draws nothing at random, so it takes no seed; the
        # main parser reports the leftover with its own usage line
        assert cli_text("check-minimality", "--d", "2", "--n", "4", "--seed", "5") == (
            2, "", MAIN_USAGE + "kalvar: error: unrecognized arguments: --seed 5\n"
        )

    def test_minors(self, capsys):
        code, _ = run(capsys, "check-minors", "--d", "2", "--n", "3", "--trials", "10")
        assert code == 0

    def test_minors_with_a_17_digit_modulus(self, capsys):
        t0 = time.monotonic()
        code, out = run(
            capsys, "check-minors", "--d", "2", "--n", "3", "--trials", "1",
            "--modulus", "10000000000000061",
        )
        assert code == 0
        assert "param modulus: 10000000000000061" in out
        assert time.monotonic() - t0 < 1

    def test_modulus_past_the_primality_limit_exits_2(self, capsys):
        argv = ["check-minors", "--d", "2", "--n", "3", "--modulus", str(MILLER_RABIN_LIMIT)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(MILLER_RABIN_LIMIT) in captured.err

    def test_trace(self, capsys):
        code, out = run(capsys, "--format", "json", "check-trace", "--max-d", "2")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 3

    def test_minimality(self, capsys):
        code, out = run(
            capsys, "--format", "json", "check-minimality",
            "--d", "2", "--n", "4", "--max-degree", "3",
        )
        assert code == 0
        payload = json.loads(out)
        by_degree = {r[0]: r for r in payload["rows"]}
        assert by_degree[3][3] == 3  # new generators in degree three

    def test_minimality_at_p_2_counts_every_minor(self, capsys):
        # none of the 20 minors of (3, 5) vanishes mod 2
        code, out = run(
            capsys, "--format", "json", "check-minimality",
            "--d", "3", "--n", "5", "--max-degree", "5", "--modulus", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] and payload["summary"]["generator_count"] == 20

    def test_check_all(self, capsys):
        code, out = run(capsys, "check-all")
        assert code == 0
        assert "result: pass" in out

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        broken = CheckReport(
            check="minor-vanishing",
            params={"d": 2, "n": 3},
            details=[{"kind": "nonvanishing", "trial": 0}],
            data={},
        )
        monkeypatch.setattr(cli, "minors_vanishing_check", lambda *a, **k: broken)
        code, out = run(capsys, "check-minors", "--d", "2", "--n", "3")
        assert code == 1
        assert "result: FAIL" in out

    @staticmethod
    def failing_at(real, case):
        """`real`, except that the report whose first two arguments are
        `case` carries a finding."""
        def check(*args):
            report = real(*args)
            if args[:2] == case:
                report.details.append({"kind": "planted"})
            return report
        return check

    def test_les_grid_with_a_failing_case_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "les_euler_check", self.failing_at(cli.les_euler_check, (2, 3)))
        code, out = run(capsys, "--format", "json", "check-les", "--max-d", "2", "--max-n", "3")
        assert code == 1
        payload = json.loads(out)
        assert payload["rows"] == [[1, 2, "pass"], [1, 3, "pass"], [2, 3, "fail"]]
        assert payload["passed"] is False

    def test_trace_grid_with_a_failing_case_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "trace_identity_check", self.failing_at(cli.trace_identity_check, (2, 1))
        )
        code, out = run(capsys, "--format", "json", "check-trace", "--max-d", "2")
        assert code == 1
        payload = json.loads(out)
        assert payload["rows"] == [[1, 1, "pass"], [2, 1, "fail"], [2, 2, "pass"]]
        assert payload["passed"] is False

    def test_check_all_with_a_failing_case_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "truncated_hilbert_check", self.failing_at(cli.truncated_hilbert_check, (2, 3))
        )
        code, out = run(capsys, "check-all")
        assert code == 1
        lines = out.splitlines()
        assert "failed: 1" in lines
        assert [line.split()[0] for line in lines[:-1] if line.endswith("FAIL")] == [
            "truncated-hilbert"
        ]
        assert lines[-1] == "result: FAIL"


class TestFormatsAndOutput:
    def test_csv_parses(self, capsys):
        code, out = run(capsys, "--format", "csv", "generators", "--d", "2", "--n", "4")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["s", "degree", "mult", "lambda", "mu", "rows_per_block"]
        assert len(rows) == 3

    def test_output_file_atomic_and_byte_identical(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = cli.main([
            "--format", "json", "--output", str(target),
            "resolution", "--d", "2", "--n", "4",
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        first = target.read_bytes()
        code = cli.main([
            "--format", "json", "--output", str(target),
            "resolution", "--d", "2", "--n", "4",
        ])
        assert code == 0
        assert target.read_bytes() == first
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".kalvar-tmp-")]

    @pytest.mark.parametrize("target", ["missing/x.txt", "existing-dir"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, target):
        (tmp_path / "existing-dir").mkdir()
        path = tmp_path / target
        code = cli.main(["--output", str(path), "check-trace", "--max-d", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert not [p for p in tmp_path.rglob(".kalvar-tmp-*")]
        assert not (tmp_path / "missing").exists()

    def test_stdout_matches_file(self, capsys, tmp_path):
        code, out = run(capsys, "--format", "csv", "hilbert", "--d", "2", "--n", "3")
        assert code == 0
        target = tmp_path / "h.csv"
        cli.main(["--format", "csv", "--output", str(target), "hilbert", "--d", "2", "--n", "3"])
        assert target.read_text() == out

    @pytest.mark.parametrize("key", MINORS_KEYS)
    def test_minors_workload_output_matches_recording(self, capsys, key):
        self.check_recorded_output(capsys, key)

    @pytest.mark.parametrize(
        "key",
        [k for k in sorted(json.loads(EXPECTED.read_text())) if k not in MINORS_KEYS],
    )
    def test_workload_output_matches_recording(self, capsys, key):
        self.check_recorded_output(capsys, key)

    @staticmethod
    def check_recorded_output(capsys, key):
        # a benchmark operation's recorded bytes, with the echoed seed
        # masked as perfbench/run.py masks it
        seed = "20261018"
        argv = [seed if a == "*" else a for a in key.split()]
        code, out = run(capsys, *argv)
        assert code == 0
        data = out.replace(f"param seed: {seed}\n", "param seed: *\n").encode()
        expected = json.loads(EXPECTED.read_text())[key]
        assert hashlib.sha256(data).hexdigest() == expected["sha256"]
        assert len(data) == expected["bytes"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("resolution", "--d", "3", "--n", "6"),
            ("resolution", "--s", "2", "--d", "4", "--n", "7", "--module", "normalization"),
            ("check-minimality", "--d", "2", "--n", "4"),
            ("check-minors", "--d", "3", "--n", "5", "--trials", "5"),
            ("check-trace", "--max-d", "2"),
            ("check-bott", "--max-d", "3", "--lo", "-2", "--hi", "3"),
            ("check-les", "--max-d", "3", "--max-n", "6"),
            ("check-all",),
        ],
    )
    def test_output_independent_of_hash_seed(self, argv):
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "kalvar.cli", *argv],
                env=src_env(PYTHONHASHSEED=seed), capture_output=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith(b"result: pass\n")

    def test_import_leaves_out_dataclasses_inspect_and_csv(self):
        # a cold start imports none of them: kalvar's records are named
        # tuples, and csv loads only for --format csv.  -S keeps the
        # site hooks of the interpreter from importing them first.
        script = (
            "import sys\n"
            "import kalvar.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], env=src_env(), capture_output=True, text=True, check=True
        )
        assert proc.stdout == "[]\n"

    def test_runs_without_numpy(self):
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from kalvar.cli import main\n"
            "codes = [main(['check-bott', '--max-d', '3', '--lo', '-2', '--hi', '3']),"
            " main(['check-all'])]\n"
            "sys.exit(max(codes))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_subcommand_exit_2(self, cli_text):
        assert cli_text("frobnicate") == (
            2,
            "",
            MAIN_USAGE + "kalvar: error: argument subcommand: invalid choice: 'frobnicate' "
            "(choose from 'resolution', 'generators', 'hilbert', 'check-bott', 'check-les', "
            "'check-minors', 'check-trace', 'check-minimality', 'check-all')\n",
        )

    def test_missing_required_arg_exit_2(self, cli_text):
        assert cli_text("resolution", "--d", "2") == (
            2,
            "",
            "usage: kalvar resolution [-h] [--s S] --d D --n N\n"
            "                         [--module {chain,normalization}]\n"
            "kalvar resolution: error: the following arguments are required: --n\n",
        )


class TestHelpAndErrorText:
    """Help and usage text, byte for byte, with stdout, stderr and the
    exit code of each call."""

    def test_help(self, cli_text):
        assert cli_text("--help") == (0, MAIN_USAGE + MAIN_HELP, "")

    def test_subcommand_help(self, cli_text):
        assert cli_text("check-minors", "--help") == (
            0,
            "usage: kalvar check-minors [-h] --d D --n N [--trials TRIALS]\n"
            "                           [--modulus MODULUS] [--seed SEED]\n"
            "\n"
            "options:\n"
            "  -h, --help         show this help message and exit\n"
            "  --d D\n"
            "  --n N\n"
            "  --trials TRIALS\n"
            "  --modulus MODULUS\n"
            "  --seed SEED\n",
            "",
        )

    def test_no_arguments(self, cli_text):
        assert cli_text() == (
            2, "", MAIN_USAGE + "kalvar: error: the following arguments are required: subcommand\n"
        )

    def test_global_flag_after_the_subcommand_exit_2(self, cli_text):
        assert cli_text("resolution", "--d", "2", "--n", "4", "--format", "json") == (
            2, "", MAIN_USAGE + "kalvar: error: unrecognized arguments: --format json\n"
        )

    def test_global_flag_before_the_subcommand(self, cli_text):
        code, out, err = cli_text("--format", "json", "resolution", "--d", "2", "--n", "4")
        assert (code, err) == (0, "")
        assert out == json.dumps(
            {
                "command": "resolution",
                "params": {"module": "chain", "s": 1, "d": 2, "n": 4},
                "summary": {
                    "terms": 5,
                    "projective_dimension": 3,
                    "regularity": 2,
                    "numerator": "1 - t^2 - 3*t^3 + 4*t^4 - t^5",
                },
                "columns": ["i", "twist", "mult", "part", "lambda", "mu", "eta"],
                "rows": [
                    [0, 0, 1, "II", "-", "-", "0,0"],
                    [1, 2, 1, "III", "2", "-", "1,1"],
                    [1, 3, 3, "carried", "1,1", "-", "1,1"],
                    [2, 4, 4, "carried", "2,1", "-", "2,1"],
                    [3, 5, 1, "carried", "2,2", "-", "2,2"],
                ],
                "passed": True,
            },
            indent=2,
        ) + "\n"


class TestParsersBuilt:
    """A call in the strict form builds no parser.  Every other call
    builds all ten: the main parser and one per subcommand."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            count[0] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return count

    @pytest.mark.parametrize(
        "argv",
        [["check-trace", "--max-d", "1"], ["--format", "json", "--output", os.devnull, "check-trace", "--max-d", "1"]],
        ids=["subcommand-first", "global-flags-first"],
    )
    def test_strict_call_builds_none(self, built, capsys, argv):
        assert cli.main(argv) == 0
        assert built[0] == 0

    def test_subcommand_first_builds_all_ten(self, built, capsys):
        assert cli.main(["check-trace", "--max-d=1"]) == 0
        assert built[0] == 10

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["--format=json", "check-trace", "--max-d", "1"], [], ["frobnicate"]],
        ids=["help", "global-flag-first", "no-arguments", "unknown-subcommand"],
    )
    def test_other_calls_build_all_ten(self, built, capsys, argv):
        try:
            cli.main(argv)
        except SystemExit:
            pass
        assert built[0] == 10


def parsed_by_argparse(argv: list[str]) -> dict | None:
    """vars() of the namespace the full parser returns for `argv`, or
    None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def strict_matches_argparse(argv: list[str]) -> bool:
    """The strict form declines `argv` or returns exactly argparse's
    attributes; where argparse exits it declines."""
    strict = cli._strict_args(argv)
    return strict is None or vars(strict) == parsed_by_argparse(argv)


GLOBAL_FLAGS = dict(cli._GLOBAL_OPTIONS)
VALUES = ["-1.5", "x", "json", "chain", "", "-", "-x", "--", "-0"]


@st.composite
def cli_argvs(draw) -> list[str]:
    """Global flags, then a subcommand (or an unknown name, or none),
    then flags.  Most tokens are well formed: each declared flag at most
    once, spelled in full, with an int or one of its choices.  The rest
    are abbreviated flags, --flag=3, -h, --help, --, a missing value, a
    value from VALUES, a repeated flag or a global flag after the
    subcommand."""

    # every draw of 0 picks the well formed token, since hypothesis
    # shrinks towards it
    def option(flag: str, keywords: dict) -> list[str]:
        kind = draw(st.integers(0, 15))
        if kind == 11:
            return [flag[:draw(st.integers(2, len(flag) - 1))]]
        if kind == 12:
            return [flag + "=3"]
        if kind == 13:
            return [draw(st.sampled_from(["-h", "--help", "--"]))]
        if keywords.get("action") == "store_true" or kind == 14:
            return [flag]
        if kind == 15:
            return [flag, draw(st.sampled_from(VALUES))]
        if "choices" in keywords:
            return [flag, draw(st.sampled_from(keywords["choices"]))]
        return [flag, str(draw(st.integers(-20, 20)))]

    def options(flags: dict) -> list[str]:
        chosen = [flag for flag in draw(st.permutations(list(flags))) if draw(st.integers(0, 3)) < 3]
        if flags and draw(st.integers(0, 5)) == 5:
            chosen.insert(draw(st.integers(0, len(chosen))), draw(st.sampled_from(list(flags))))
        return [token for flag in chosen for token in option(flag, flags[flag])]

    name = draw(st.sampled_from([*cli.SUBCOMMANDS, "frobnicate", ""]))
    own = dict(cli.SUBCOMMANDS[name][2]) if name in cli.SUBCOMMANDS else {}
    tail = options({**own, **GLOBAL_FLAGS} if draw(st.integers(0, 5)) == 5 else own)
    return options(GLOBAL_FLAGS) + ([name] if name else []) + tail


class TestStrictForm:
    """`cli._strict_args` against argparse, its oracle: where it reads a
    call it returns exactly the attributes argparse sets, and it
    declines every call argparse refuses."""

    @pytest.mark.parametrize("call", CALLS)
    def test_corpus_call_matches_argparse(self, call):
        assert strict_matches_argparse(shlex.split(call))

    def test_corpus_calls_left_to_argparse(self):
        declined = [call for call in CALLS if cli._strict_args(shlex.split(call)) is None]
        assert declined == [
            "frobnicate",
            "--help",
            "check-trace --max-d x",
            "check-minors --n 4",
            "check-les --max 3",
            "check-les --max-d=2",
            "check-trace --max-d 1 --max-d 2",
            "check-minors --help",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-les", "--max-d", "2", "--max", "3"],
            ["check-trace", "--max-d", "-x"],
            ["--output", "-x", "check-all"],
            ["check-trace", "--max-d", "-1.5"],
            ["resolution", "--d", "2"],
            ["resolution", "--d", "2", "--n", "4", "--module", "chains"],
            ["--format", "xml", "check-all"],
            ["--format", "json"],
            ["check-all", "--format", "json"],
            ["--format", "json", "--format", "csv", "check-all"],
            ["check-trace", "--", "--max-d", "1"],
            ["check-trace", "--max-d"],
            ["check-all", "check-all"],
        ],
    )
    def test_declines(self, argv):
        assert cli._strict_args(argv) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-bott", "--max-d", "2", "--lo", "-2", "--hi", "1"],
            ["--output", "-3", "--format", "csv", "generators", "--include-empty", "--n", "4", "--d", "2"],
            ["--output", "", "check-all"],
            ["resolution", "--module", "normalization", "--s", "2", "--d", "3", "--n", "5"],
        ],
    )
    def test_reads(self, argv):
        strict = cli._strict_args(argv)
        assert strict is not None
        assert vars(strict) == parsed_by_argparse(argv)

    @settings(max_examples=400, deadline=None)
    @given(cli_argvs())
    def test_generated_call_matches_argparse(self, argv):
        assert strict_matches_argparse(argv)
