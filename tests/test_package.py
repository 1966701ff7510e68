"""The package names nothing of its own: each object has one name,
`kalvar.<module>.<name>`.  The report every check returns keeps only
what the check found.  The packed monomial format stays inside
`kalvar.polysym`, and the prediction and measurement routes neither
import each other nor load each other at run time."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kalvar
from kalvar.report import CheckReport
from test_cli import src_env


def loaded_by(module: str) -> set[str]:
    """The kalvar modules that a fresh interpreter holds after importing
    `module` alone.  -S keeps the site hooks of the interpreter from
    importing anything first."""
    script = f"import sys, {module}\nprint(*sorted(m for m in sys.modules if m.startswith('kalvar.')))"
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=src_env(), capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def argparse_modules_after(calls: list[list[str]]) -> set[str]:
    """Which of argparse and the gettext and locale it imports a fresh
    interpreter holds after `kalvar.cli.main` has run each of `calls`,
    under -S as in `loaded_by`."""
    script = (
        "import io, sys\n"
        "import kalvar.cli\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"for argv in {calls!r}:\n"
        "    try:\n"
        "        kalvar.cli.main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "sys.stdout = out\n"
        "print(*sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=src_env(), capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_a_strict_call_loads_no_argparse():
    # the strict form is read off the subcommand table, so neither the
    # import of kalvar.cli nor a well-formed call in any format loads
    # argparse, gettext or locale
    assert argparse_modules_after([]) == set()
    strict = [["--format", fmt, "check-trace", "--max-d", "1"] for fmt in ("table", "json", "csv")]
    assert argparse_modules_after(strict) == set()


def test_help_loads_argparse():
    assert "argparse" in argparse_modules_after([["--help"]])


def test_check_report_fields():
    assert CheckReport._fields == ("check", "params", "details", "data")


def test_verdict_is_read_off_the_findings():
    clean = CheckReport("c", {"d": 2})
    assert clean.passed is True
    assert clean.verdict == "pass"
    found = CheckReport("c", {"d": 2}, details=[{"kind": "mismatch"}])
    assert found.passed is False
    assert found.verdict == "fail"
    with pytest.raises(AttributeError):
        clean.passed = False


def test_only_polysym_converts_packed_monomials():
    # every other module goes through PolyRing.pack and PolyRing.unpack
    src = Path(kalvar.__file__).parent
    converting = [path.name for path in sorted(src.glob("*.py")) if re.search(r"\b(to|from)_bytes\b", path.read_text())]
    assert converting == ["polysym.py"]


def test_the_two_routes_import_nothing_from_each_other():
    # the prediction route (partitions, bott, resolution) and the
    # symbolic side of the measurement route (polysym) stay independent,
    # so one cannot agree with the other by sharing code
    src = Path(kalvar.__file__).parent

    def imports(module):
        # every module and name an import statement mentions, split at
        # the dots, so `from .polysym import x` and `from kalvar import
        # verify` both count
        names = set()
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                dotted = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            else:
                continue
            names.update(part for name in dotted for part in name.split("."))
        return names

    for module in ("partitions", "bott", "resolution"):
        assert not imports(module) & {"polysym", "verify"}, module
    assert not imports("polysym") & {"partitions", "bott", "resolution", "verify"}


@pytest.mark.parametrize("module", ["partitions", "bott", "resolution"])
def test_the_prediction_route_loads_no_measurement_module(module):
    # the import test above reads the source; this one runs it, so a
    # package that imports every module first would fail here
    assert not loaded_by(f"kalvar.{module}") & {"kalvar.polysym", "kalvar.verify"}


def test_polysym_loads_only_itself_and_the_report():
    assert loaded_by("kalvar.polysym") == {"kalvar.polysym", "kalvar.report"}
