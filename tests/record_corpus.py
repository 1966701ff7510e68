"""Record the CLI corpus: for each call in CALLS, its exit code and the
byte count and sha256 of its stdout and stderr, written as
`cli_corpus.json` next to this file.  `test_corpus.py` replays every
call and compares.

    python tests/record_corpus.py [SRC]

SRC is the `src` directory whose kalvar is recorded (default: this
checkout's).  Every call runs in this one interpreter through
`kalvar.cli.main`, with COLUMNS=80 so that help text wraps the same way
everywhere.  `{out}` in a call stands for a file in a fresh temporary
directory; the bytes written there are recorded too.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

CORPUS = Path(__file__).resolve().with_name("cli_corpus.json")
FORMATS = ("table", "json", "csv")

CALLS = [
    # every subcommand in every format
    *(
        f"--format {fmt} {call}"
        for call in (
            "resolution --d 2 --n 4",
            "generators --d 3 --n 6",
            "hilbert --d 3 --n 6",
            "check-bott --max-d 3",
            "check-les --max-d 3 --max-n 5",
            "check-minors --d 3 --n 6 --trials 10",
            "check-trace --max-d 3",
            "check-minimality --d 3 --n 5 --max-degree 5",
            "check-all",
        )
        for fmt in FORMATS
    ),
    # the finite-field checks at small and large primes
    *(
        f"{call} --modulus {p}"
        for call in ("check-minors --d 4 --n 5 --trials 5", "check-minimality --d 3 --n 6 --max-degree 6")
        for p in (2, 3, 32003, 46337)
    ),
    "resolution --s 2 --d 3 --n 5 --module normalization",
    "generators --d 3 --n 6 --include-empty",
    "check-minors --d 2 --n 4 --trials 5 --seed 7",
    # refusals, each before any work
    "resolution --d 3 --n 3",
    "generators --d 4 --n 2",
    "check-minors --d 2 --n 3 --trials 0",
    "check-minimality --d 2 --n 4 --max-degree 0",
    "hilbert --d 2 --n 3 --max-degree -3",
    "check-les --max-d 0",
    "check-trace --max-d 0",
    "check-minimality --d 1 --n 3 --max-degree 256",
    "check-minimality --d 3 --n 6 --max-degree 9",
    "check-minors --d 5 --n 7 --trials 1",
    "check-trace --max-d 7",
    "check-bott --max-d 9 --lo -10 --hi 10",
    "resolution --d 10 --n 20",
    "check-minors --d 2 --n 4 --modulus 4",
    "check-minors --d 2 --n 4 --modulus 318665857834031151167461",
    "frobnicate",
    "--help",
    # inputs that only argparse reads: its own errors, a negative value
    # and a subcommand's help
    "check-trace --max-d x",
    "check-minors --n 4",
    "check-les --max 3",
    "check-les --max-d=2",
    "check-trace --max-d 1 --max-d 2",
    "check-bott --max-d 2 --lo -2 --hi 1",
    "check-minors --help",
    # the report written to a file
    "--output {out} check-minimality --d 2 --n 4 --max-degree 4",
    "--format json --output {out} hilbert --d 3 --n 6",
]


def _digest(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def measure(call: str) -> dict:
    """Exit code, stdout, stderr and any `{out}` file of one call, each
    stream as its byte count and sha256."""
    from kalvar import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        target = os.path.join(tmp, "report")
        argv = [target if arg == "{out}" else arg for arg in shlex.split(call)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        record = {
            "exit": code,
            "stdout": _digest(out.getvalue().encode()),
            "stderr": _digest(err.getvalue().encode()),
        }
        if target in argv:
            record["file"] = _digest(Path(target).read_bytes())
    return record


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    corpus = {call: measure(call) for call in CALLS}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(corpus)} calls recorded in {CORPUS}")


if __name__ == "__main__":
    main(sys.argv[1:])
