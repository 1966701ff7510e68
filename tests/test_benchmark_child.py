"""The benchmark's child runs one CLI operation, untraced and traced, and
hands back exactly what `cli.main` prints.  perfbench/child.py is run by
path, as perfbench/run.py runs it, on a small operation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kalvar import cli

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
SRC = ROOT / "src"
ARGV = ["check-trace", "--max-d", "2"]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_child_reports_what_main_prints(capsys, tmp_path, traced):
    assert cli.main(ARGV) == 0
    in_process = capsys.readouterr().out
    span_file = tmp_path / "spans.tsv"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(SRC), str(span_file) if traced else "-", *ARGV],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)  # one object, nothing printed around it
    assert type(report) is dict
    assert report["exit"] == 0
    assert report["stdout"] == in_process
    if traced:
        assert report["layers"]["cli.main"]["calls"] == 1
        assert span_file.read_text().startswith("id\tparent\tname\tstart_ns\tend_ns\n")
    else:
        assert "layers" not in report and not span_file.exists()
