"""Command line interface tests: payloads, formats, exit codes,
deterministic output."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kalvar import cli, resolution, verify
from kalvar.bott import MAX_EXHAUSTIVE_WORK
from kalvar.polysym import MAX_MINOR_PRODUCTS, MILLER_RABIN_LIMIT
from kalvar.report import CheckReport
from kalvar.resolution import MAX_NORMALIZATION_PAIRS

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

    def test_minimality_at_the_packed_degree_runs(self, capsys):
        code, out = run(capsys, "check-minimality", "--d", "1", "--n", "2", "--max-degree", "255")
        assert code == 0
        assert "result: pass" in out

    def test_minimality_over_monomial_limit_exits_2(self, capsys, monkeypatch):
        # degree 9 in the 18 variables of k[alpha, gamma] has
        # C(26, 9) = 3,124,550 monomials; no minor is built
        def no_minors(*args):
            raise AssertionError("minors built before the cap check")

        monkeypatch.setattr(verify, "all_top_minors", no_minors)
        argv = ["check-minimality", "--d", "3", "--n", "6", "--max-degree", "9"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "3124550" in captured.err and "1000000" in captured.err

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

    def test_minimality_has_no_seed(self, capsys):
        # the check draws nothing at random, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            cli.main(["check-minimality", "--d", "2", "--n", "4", "--seed", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed 5" in captured.err

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

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_arg_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["resolution", "--d", "2"])
        assert exc.value.code == 2

