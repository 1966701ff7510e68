"""Command line interface.

Every subcommand prints a deterministic report: the same arguments
always produce byte-identical output.  Exit status is 0 when all
requested checks pass, 1 when any check fails, and 2 for usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Sequence

from .bott import exhaustive_dotted_check
from .partitions import Partition
from .polysym import trace_identity_check
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
    MonomialCapExceeded,
    PrimeFieldConfig,
    hypersurface_check,
    minimality_report,
    minors_vanishing_check,
    truncated_hilbert_check,
)


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
    rows = [[d, n, les_euler_check(d, n).verdict] for d, n in grid]
    return {
        "command": "check-les",
        "params": {"max_d": args.max_d, "max_n": args.max_n},
        "summary": {"cases": len(rows)},
        "columns": ["d", "n", "verdict"],
        "rows": rows,
        "passed": all(r[2] == "pass" for r in rows),
    }


def cmd_check_minors(args) -> dict:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    cfg = PrimeFieldConfig(modulus=args.modulus, seed=args.seed)
    report = minors_vanishing_check(args.d, args.n, args.trials, cfg)
    return _report_payload("check-minors", report)


def cmd_check_trace(args) -> dict:
    if args.max_d < 1:
        raise ValueError(f"--max-d must be at least 1, got {args.max_d}")
    rows = [
        [d, i, trace_identity_check(d, i).verdict]
        for d in range(1, args.max_d + 1)
        for i in range(1, d + 1)
    ]
    return {
        "command": "check-trace",
        "params": {"max_d": args.max_d},
        "summary": {"cases": len(rows)},
        "columns": ["d", "i", "verdict"],
        "rows": rows,
        "passed": all(r[2] == "pass" for r in rows),
    }


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
                profile = part_iii_profile(KalmanParams(s, d, n))
                add("bottom-stratum", {"s": s, "d": d, "n": n}, profile.report.passed)

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kalvar",
        description="Resolutions, Hilbert series, and defining equations "
        "of Kalman varieties, with independent consistency checks.",
    )
    parser.add_argument("--format", choices=sorted(RENDERERS), default="table")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE atomically instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("resolution", help="terms of a resolution")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--module", choices=["chain", "normalization"], default="chain")
    p.set_defaults(handler=cmd_resolution)

    p = sub.add_parser("generators", help="minimal generator families of the ideal")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--include-empty", action="store_true",
                   help="keep families whose multiplicity vanishes")
    p.set_defaults(handler=cmd_generators)

    p = sub.add_parser("hilbert", help="Hilbert series data of a chain module")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=8)
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("check-bott", help="exhaustive cohomology degree check")
    p.add_argument("--max-d", type=int, default=4)
    p.add_argument("--lo", type=int, default=-3)
    p.add_argument("--hi", type=int, default=4)
    p.set_defaults(handler=cmd_check_bott)

    p = sub.add_parser("check-les", help="Euler characteristic identity over a grid")
    p.add_argument("--max-d", type=int, default=3)
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(handler=cmd_check_les)

    p = sub.add_parser("check-minors", help="minors vanish at random points")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--modulus", type=int, default=PrimeFieldConfig().modulus)
    p.add_argument("--seed", type=int, default=PrimeFieldConfig().seed)
    p.set_defaults(handler=cmd_check_minors)

    p = sub.add_parser("check-trace", help="exterior power trace identity")
    p.add_argument("--max-d", type=int, default=3)
    p.set_defaults(handler=cmd_check_trace)

    p = sub.add_parser("check-minimality", help="generator counts degree by degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--modulus", type=int, default=PrimeFieldConfig().modulus)
    p.set_defaults(handler=cmd_check_minimality)

    p = sub.add_parser("check-all", help="full consistency battery at small sizes")
    p.set_defaults(handler=cmd_check_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except (ValueError, MonomialCapExceeded) as exc:
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
