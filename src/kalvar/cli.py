"""Command line interface.

Every subcommand prints a deterministic report: the same arguments
always produce byte-identical output.  Exit status is 0 when all
requested checks pass, 1 when any check fails, and 2 for usage or
configuration errors.

`SUBCOMMANDS` declares each subcommand once: its help, handler and
arguments; `_GLOBAL_OPTIONS` declares the flags that come before it.
A call in the strict form (`_strict_args`) is read straight from these
tables, and argparse is never imported.  argparse reads every other
call with the parser of all nine subcommands, so it writes all help,
usage and error text.
"""

from __future__ import annotations

import io
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from .bott import exhaustive_dotted_check
from .partitions import Partition
from .polysym import check_minor_products, trace_identity_check, trace_identity_products
from .report import CheckFailure, CheckReport
from .resolution import (
    KalmanParams,
    chain_resolution,
    check_pair_count,
    classify_part,
    f0_check,
    hilbert_numerator,
    les_euler_check,
    les_pair_count,
    minimal_generators,
    part_iii_profile,
    pd_and_reg,
    resolution_normalization,
)
from .verify import (
    DEFAULT_MODULUS,
    DEFAULT_SEED,
    PrimeFieldConfig,
    hypersurface_check,
    minimality_report,
    minors_vanishing_check,
    truncated_hilbert_check,
)

if TYPE_CHECKING:
    import argparse


def _p(p: Sequence[int]) -> str:
    return ",".join(str(a) for a in p) if p else "-"


def _fmt_value(v) -> str:
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, separators=(", ", ": "), default=str)
    return str(v)


def render_table(payload: dict) -> str:
    lines = [f"command: {payload['command']}"]
    for key, value in payload.get("params", {}).items():
        lines.append(f"param {key}: {_fmt_value(value)}")
    for key, value in payload.get("summary", {}).items():
        lines.append(f"{key}: {_fmt_value(value)}")
    columns = payload.get("columns")
    rows = payload.get("rows")
    if columns and rows is not None:
        lines.append("")
        cells = [[str(c) for c in columns]] + [[_fmt_value(c) for c in row] for row in rows]
        widths = [max(len(r[j]) for r in cells) for j in range(len(columns))]
        for r in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    details = payload.get("details")
    if details:
        lines.append("")
        lines.append("details:")
        for item in details[:20]:
            lines.append(f"  {_fmt_value(item)}")
    lines.append(f"result: {'pass' if payload['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, default=str) + "\n"


def render_csv(payload: dict) -> str:
    import csv  # only --format csv needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = payload.get("columns")
    rows = payload.get("rows")
    if columns and rows is not None:
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_value(c) for c in row])
    else:
        writer.writerow(["key", "value"])
        for key, value in payload.get("params", {}).items():
            writer.writerow([f"param.{key}", _fmt_value(value)])
        for key, value in payload.get("summary", {}).items():
            writer.writerow([key, _fmt_value(value)])
        writer.writerow(["result", "pass" if payload["passed"] else "FAIL"])
    return buf.getvalue()


RENDERERS = {"table": render_table, "json": render_json, "csv": render_csv}


def write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    import tempfile  # only --output needs it

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kalvar-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report_payload(command: str, report: CheckReport, rows_key: str | None = None,
                    columns: list[str] | None = None) -> dict:
    payload = {
        "command": command,
        "params": dict(report.params),
        "summary": {},
        "passed": report.passed,
    }
    data = dict(report.data)
    if rows_key and rows_key in data:
        entries = data.pop(rows_key)
        if entries and isinstance(entries[0], dict):
            cols = columns or list(entries[0].keys())
            payload["columns"] = cols
            payload["rows"] = [[e.get(c) for c in cols] for e in entries]
    payload["summary"].update(data)
    if report.details:
        payload["details"] = report.details
    return payload


def _grid_payload(command: str, params: dict, columns: list[str], grid: list[tuple], check) -> dict:
    """The payload of `check` run once per case of `grid`: one row per
    case, its verdict last."""
    rows = [[*case, check(*case).verdict] for case in grid]
    return {
        "command": command,
        "params": params,
        "summary": {"cases": len(rows)},
        "columns": columns + ["verdict"],
        "rows": rows,
        "passed": all(r[-1] == "pass" for r in rows),
    }


def cmd_resolution(args) -> dict:
    if args.module == "chain":
        table = chain_resolution(args.s, args.d, args.n)
    else:
        table = resolution_normalization(KalmanParams(args.s, args.d, args.n))
    pd, reg = pd_and_reg(table)
    series = hilbert_numerator(table)
    chain = args.module == "chain"
    rows = [
        [t.hom_degree, t.twist, t.multiplicity,
         classify_part(t.lam, t.mu, args.s) if chain else None,
         _p(t.lam), _p(t.mu), _p(t.eta)]
        for t in table.sorted_terms()
    ]
    return {
        "command": "resolution",
        "params": {"module": table.module_id, "s": args.s, "d": args.d, "n": args.n},
        "summary": {
            "terms": len(rows),
            "projective_dimension": pd,
            "regularity": reg,
            "numerator": series.numerator_string(),
        },
        "columns": ["i", "twist", "mult", "part", "lambda", "mu", "eta"],
        "rows": rows,
        "passed": True,
    }


def cmd_generators(args) -> dict:
    records = minimal_generators(args.d, args.n)
    if not args.include_empty:
        records = [r for r in records if r.multiplicity > 0]
    rows = [
        [r.s, r.degree, r.multiplicity, _p(r.lam), _p(r.mu), _p(r.row_composition)]
        for r in records
    ]
    return {
        "command": "generators",
        "params": {"d": args.d, "n": args.n},
        "summary": {
            "families": len(records),
            "total_forms": sum(r.multiplicity for r in records),
        },
        "columns": ["s", "degree", "mult", "lambda", "mu", "rows_per_block"],
        "rows": rows,
        "passed": True,
    }


def cmd_hilbert(args) -> dict:
    if args.max_degree < 0:
        raise ValueError(f"--max-degree must be at least 0, got {args.max_degree}")
    table = chain_resolution(args.s, args.d, args.n)
    series = hilbert_numerator(table)
    order = series.vanishing_order_at_one()
    expected = args.s * (args.n - args.d)
    coeffs = series.expand(args.max_degree)
    return {
        "command": "hilbert",
        "params": {"s": args.s, "d": args.d, "n": args.n, "max_degree": args.max_degree},
        "summary": {
            "numerator": series.numerator_string(),
            "denominator_power": series.denom_power,
            "codimension": order,
            "expected_codimension": expected,
        },
        "columns": ["degree", "dimension"],
        "rows": [[e, c] for e, c in enumerate(coeffs)],
        "passed": order == expected,
    }


def cmd_check_bott(args) -> dict:
    report = exhaustive_dotted_check(args.max_d, args.lo, args.hi)
    return _report_payload("check-bott", report)


def cmd_check_les(args) -> dict:
    grid = [(d, n) for d in range(1, args.max_d + 1) for n in range(d + 1, args.max_n + 1)]
    if not grid:
        raise ValueError(
            f"--max-d {args.max_d} and --max-n {args.max_n} give no case 1 <= d < n; "
            "need --max-d >= 1 and --max-n >= 2"
        )
    check_pair_count(
        sum(les_pair_count(d, n) for d, n in grid),
        f"check-les --max-d {args.max_d} --max-n {args.max_n}",
    )
    params = {"max_d": args.max_d, "max_n": args.max_n}
    return _grid_payload("check-les", params, ["d", "n"], grid, les_euler_check)


def cmd_check_minors(args) -> dict:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    cfg = PrimeFieldConfig(modulus=args.modulus, seed=args.seed)
    report = minors_vanishing_check(args.d, args.n, args.trials, cfg)
    return _report_payload("check-minors", report)


def cmd_check_trace(args) -> dict:
    if args.max_d < 1:
        raise ValueError(f"--max-d must be at least 1, got {args.max_d}")
    grid = [(d, i) for d in range(1, args.max_d + 1) for i in range(1, d + 1)]
    check_minor_products(
        sum(trace_identity_products(d, i) for d, i in grid),
        f"the minors of check-trace --max-d {args.max_d}",
    )
    return _grid_payload("check-trace", {"max_d": args.max_d}, ["d", "i"], grid, trace_identity_check)


def cmd_check_minimality(args) -> dict:
    if args.max_degree < 1:
        raise ValueError(f"--max-degree must be at least 1, got {args.max_degree}")
    cfg = PrimeFieldConfig(modulus=args.modulus)
    report = minimality_report(args.d, args.n, args.max_degree, cfg)
    return _report_payload(
        "check-minimality",
        report,
        rows_key="per_degree",
        columns=["degree", "ideal_dim", "from_lower", "new_generators", "predicted_new"],
    )


def cmd_check_all(args) -> dict:
    cfg = PrimeFieldConfig()
    rows: list[list] = []

    def add(name: str, params: dict, passed: bool) -> None:
        rows.append([name, _fmt_value(params), "pass" if passed else "FAIL"])

    report = exhaustive_dotted_check(3, -2, 3)
    add("cohomology-degrees", dict(report.params), report.passed)

    for d in range(1, 5):
        for n in range(d + 1, 7):
            for s in range(1, d + 1):
                report = f0_check(KalmanParams(s, d, n))
                add("presentation-degree-zero", {"s": s, "d": d, "n": n}, report.passed)

    for d in range(1, 5):
        for n in range(d + 1, 7):
            for s in range(1, min(d, 2) + 1):
                report = part_iii_profile(KalmanParams(s, d, n))
                add("bottom-stratum", {"s": s, "d": d, "n": n}, report.passed)

    for d in range(1, 5):
        for n in range(d + 1, 7):
            try:
                chain_resolution(1, d, n)
                add("chain-closed-form", {"d": d, "n": n}, True)
            except CheckFailure:
                add("chain-closed-form", {"d": d, "n": n}, False)

    for d in range(1, 4):
        for n in range(d + 1, 7):
            report = les_euler_check(d, n)
            add("euler-identity", {"d": d, "n": n}, report.passed)

    for d in range(1, 4):
        for i in range(1, d + 1):
            report = trace_identity_check(d, i)
            add("trace-minor-identity", {"d": d, "i": i}, report.passed)

    for d in (2, 3):
        report = hypersurface_check(d, trials=25, cfg=cfg)
        add("hypersurface-determinant", {"d": d}, report.passed)

    report = minors_vanishing_check(2, 4, trials=25, cfg=cfg)
    add("minor-vanishing", {"d": 2, "n": 4}, report.passed)

    report = minimality_report(2, 4, 4, cfg)
    add("generator-minimality", {"d": 2, "n": 4}, report.passed)

    report = truncated_hilbert_check(2, 3, 5, cfg)
    add("truncated-hilbert", {"d": 2, "n": 3}, report.passed)

    failed = sum(1 for r in rows if r[2] != "pass")
    return {
        "command": "check-all",
        "params": {"modulus": cfg.modulus, "seed": cfg.seed},
        "summary": {"checks": len(rows), "failed": failed},
        "columns": ["check", "params", "verdict"],
        "rows": rows,
        "passed": failed == 0,
    }


_D = ("--d", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_S = ("--s", {"type": int, "default": 1})
_MODULUS = ("--modulus", {"type": int, "default": DEFAULT_MODULUS})

# Every subcommand, in the order help lists them: name -> (help, handler,
# arguments as (flag, add_argument keywords) pairs).
SUBCOMMANDS = {
    "resolution": ("terms of a resolution", cmd_resolution, (
        _S, _D, _N, ("--module", {"choices": ["chain", "normalization"], "default": "chain"}),
    )),
    "generators": ("minimal generator families of the ideal", cmd_generators, (
        _D, _N,
        ("--include-empty", {"action": "store_true",
                             "help": "keep families whose multiplicity vanishes"}),
    )),
    "hilbert": ("Hilbert series data of a chain module", cmd_hilbert, (
        _S, _D, _N, ("--max-degree", {"type": int, "default": 8}),
    )),
    "check-bott": ("exhaustive cohomology degree check", cmd_check_bott, (
        ("--max-d", {"type": int, "default": 4}),
        ("--lo", {"type": int, "default": -3}),
        ("--hi", {"type": int, "default": 4}),
    )),
    "check-les": ("Euler characteristic identity over a grid", cmd_check_les, (
        ("--max-d", {"type": int, "default": 3}),
        ("--max-n", {"type": int, "default": 6}),
    )),
    "check-minors": ("minors vanish at random points", cmd_check_minors, (
        _D, _N, ("--trials", {"type": int, "default": 50}),
        _MODULUS, ("--seed", {"type": int, "default": DEFAULT_SEED}),
    )),
    "check-trace": ("exterior power trace identity", cmd_check_trace, (
        ("--max-d", {"type": int, "default": 3}),
    )),
    "check-minimality": ("generator counts degree by degree", cmd_check_minimality, (
        _D, _N, ("--max-degree", {"type": int, "default": 4}), _MODULUS,
    )),
    "check-all": ("full consistency battery at small sizes", cmd_check_all, ()),
}


# The options of the main parser, declared like a subcommand's arguments.
_GLOBAL_OPTIONS = (
    ("--format", {"choices": sorted(RENDERERS), "default": "table"}),
    ("--output", {"metavar": "FILE", "default": None,
                  "help": "write the report to FILE atomically instead of stdout"}),
)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    import argparse  # only a call outside the strict form needs it

    parser = argparse.ArgumentParser(
        prog="kalvar",
        description="Resolutions, Hilbert series, and defining equations "
        "of Kalman varieties, with independent consistency checks.",
    )
    for flag, keywords in _GLOBAL_OPTIONS:
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _strict_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes argparse would set for `argv` when `argv` has the
    strict form, read straight from `_GLOBAL_OPTIONS` and `SUBCOMMANDS`;
    None otherwise.  The strict form: `--format X` and `--output FILE`,
    each at most once, then a subcommand, then its own flags, each
    spelled in full and given at most once.  A value is the next token,
    and starts with "-" only as "-" and decimal digits: argparse's
    negative number, since no kalvar option looks like one.  `type` and
    `choices` apply as declared, and every required flag must be given.
    All else (help, abbreviations, `--flag=value`, repeats, `--`, global
    flags after the subcommand, every error) is left to argparse."""
    flags = dict(_GLOBAL_OPTIONS)
    given = {}
    name = None
    tokens = iter(argv)
    for token in tokens:
        keywords = flags.pop(token, None)
        if keywords is None:
            if name is not None or token not in SUBCOMMANDS:
                return None
            name = token
            flags = dict(SUBCOMMANDS[name][2])
        elif keywords.get("action") == "store_true":
            given[token] = True
        else:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not value[1:].isdecimal():
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
            given[token] = value
    if name is None:
        return None
    _, handler, arguments = SUBCOMMANDS[name]
    values = {"subcommand": name, "handler": handler}
    for flag, keywords in (*_GLOBAL_OPTIONS, *arguments):
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        values[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _strict_args(argv)  # a call in the strict form needs no parser
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 1
    text = RENDERERS[args.format](payload)
    try:
        write_output(text, args.output)
    except OSError as exc:
        target = args.output or "stdout"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
