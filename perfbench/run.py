#!/usr/bin/env python3
"""kalvar benchmark: the public CLI, one cold interpreter per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kalvar checkout (the package is imported from its
`src/`, nothing is installed).  One parent process runs the workload's
operations one after another, each in a fresh `python` child that
imports `kalvar.cli` and calls `kalvar.cli.main(argv)` (a closed loop with
one client).  Rounds of the workload run while they are expected to end
within S seconds.  Every operation's output is checked against the bytes
recorded in `expected.json`.

Times are reported at a reference host speed: each child also times a
fixed pure-Python loop next to its work, and every time it measured is
scaled by REF_PROBE_S over that loop's time (README.md, "Host speed").

The last stdout line is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones of BENCHMARK.json, with `--trace 1` its per-layer ones.  A full
record of the run (environment, every operation) goes to
`.perfbench/results/`, and traced spans to `.perfbench/spans/`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SEED = object()  # stands for the operation's seed, drawn from the workload seed

# Why each workload exists is written up in README.md.
WORKLOADS = {
    "betti": (
        ("resolution", "--d", "5", "--n", "10"),
        ("check-les", "--max-d", "4", "--max-n", "9"),
    ),
    "minors": (
        ("check-minors", "--d", "4", "--n", "5", "--trials", "10", "--seed", SEED),
        ("check-minors", "--d", "3", "--n", "6", "--trials", "20", "--seed", SEED),
        ("check-trace", "--max-d", "4"),
    ),
    "graded": (
        ("check-minimality", "--d", "3", "--n", "5", "--max-degree", "5"),
    ),
    "battery": (
        ("check-all",),
        ("check-bott", "--max-d", "5", "--lo", "-4", "--hi", "6"),
    ),
}

RUN_LIMIT_S = 170  # every run must end within 180 s
IMPORT_SAMPLES = 4  # import-only children per run, so setup_s has a median even for one-operation workloads
# The probe loop's time (child.probe) on the reference host when it is not
# contended; times are reported as if every child had run at that speed.
REF_PROBE_S = 0.015


def operations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(expectation key, argv) per operation; seeded arguments are drawn
    from the workload seed, so the same seed gives the same inputs."""
    rng = random.Random(seed)
    ops = []
    for template in WORKLOADS[workload]:
        key = " ".join("*" if a is SEED else a for a in template)
        argv = [str(rng.randrange(1, 2**31)) if a is SEED else a for a in template]
        ops.append((key, argv))
    return ops


def normalized_output(argv: list[str], stdout: str) -> bytes:
    """Output with the echoed seed masked, so seeded operations compare
    against one recording."""
    if "--seed" in argv:
        seed = argv[argv.index("--seed") + 1]
        stdout = stdout.replace(f"param seed: {seed}\n", "param seed: *\n")
    return stdout.encode()


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_operation(argv: list[str], span_path: Path | None, deadline: float) -> dict:
    """One operation in a fresh child, which reports what it cost."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(span_path or "-"), *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0:
        return {"error": f"runner exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    report = json.loads(proc.stdout)
    report["stderr"] = proc.stderr
    return report


def failure(report: dict, argv: list[str], expected: dict | None) -> str | None:
    """Why an operation counts as failed, or None when it passed."""
    if "error" in report:
        return report["error"]
    if report["exit"] != 0:
        return f"exit status {report['exit']}"
    if not report["stdout"].endswith("result: pass\n"):
        return "no 'result: pass' line"
    if expected is None:
        return "no recorded output"
    if digest(normalized_output(argv, report["stdout"])) != expected:
        return "output differs from the recording"
    return None


def run_round(workload: str, seed: int, expected: dict, traced: bool, deadline: float) -> list[dict]:
    span_dir = OUT / "spans" / workload
    if traced:
        span_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for index, (key, argv) in enumerate(operations(workload, seed)):
        span_path = span_dir / f"op{index}.tsv" if traced else None
        report = run_operation(argv, span_path, deadline)
        report.update(key=key, argv=argv, traced=traced, failure=failure(report, argv, expected.get(key)))
        records.append(report)
    return records


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def at_reference(record: dict, field: str) -> float:
    """A time the child measured, scaled to the reference host speed by
    the probe loop it timed around that work."""
    return record[field] * REF_PROBE_S / record["probe_s"]


def as_measured(record: dict, field: str) -> float:
    return record[field]


def per_operation_median(records: list[dict], field: str, ops: int, value=at_reference) -> list[float]:
    return [statistics.median(value(r, field) for r in records[i::ops]) for i in range(ops)]


def end_to_end(records: list[dict], ops: int, imports: list[dict], value=at_reference) -> dict:
    """wall_s and cpu_s sum each operation's median over the rounds;
    setup_s is the median import time of every child in the run times
    the operations per round.  `value` reads each time, by default at
    the reference host speed."""
    return {
        "wall_s": sum(per_operation_median(records, "main_s", ops, value)),
        "cpu_s": sum(per_operation_median(records, "cpu_s", ops, value)),
        "setup_s": statistics.median(value(r, "import_s") for r in imports + records) * ops,
        "peak_rss_mb": max(per_operation_median(records, "maxrss_kb", ops, as_measured)) / 1024,
    }


def per_layer(traced: list[dict], untraced: list[dict], ops: int) -> dict:
    """Per wrapped name: calls and counters (deterministic, taken from the
    first traced round) and self_s (median over traced rounds)."""
    rounds = [traced[i:i + ops] for i in range(0, len(traced), ops)]
    names = {name for r in traced for name in r["layers"]}
    out = {}
    for name in names:
        calls = sum(r["layers"][name]["calls"] for r in rounds[0])
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = statistics.median(
            sum(r["layers"][name]["self_s"] for r in rnd) for rnd in rounds
        )
        for counter_key in rounds[0][0]["counters"]:
            if not counter_key.startswith(name + "."):
                continue
            total = sum(r["counters"][counter_key] for r in rounds[0])
            if counter_key.endswith("_ratio"):  # counts outcomes; the metric is their share of calls
                out[counter_key] = total / calls if calls else 0.0
            else:
                out[counter_key] = total
    out["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in rounds[0])
    wall = [sum(per_operation_median(rs, "main_s", ops)) for rs in (traced, untraced)]
    out["trace.overhead_s"] = wall[0] - wall[1]
    out["host.spin_s"] = statistics.median(r["probe_s"] for r in traced + untraced)
    return out


def counters_of(records: list[dict]) -> list:
    """The deterministic part of traced operations: calls, work counters
    and output size."""
    return [
        (r["key"], {n: v["calls"] for n, v in r["layers"].items()}, r["counters"], len(r["stdout"].encode()))
        for r in records
    ]


def measure(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    """Import-only children, then rounds, each started only while it is
    expected to end within `seconds` of the start.  A traced run
    alternates untraced and traced rounds and needs one of each."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    imports = [run_operation([], None, deadline) for _ in range(IMPORT_SAMPLES)]
    if trace:
        shutil.rmtree(OUT / "spans" / workload, ignore_errors=True)
    records: list[dict] = []
    rounds = 0
    first_round = time.monotonic()
    while True:
        now = time.monotonic()
        if rounds >= (2 if trace else 1) and now + (now - first_round) / rounds > start + seconds:
            break
        records += run_round(workload, seed, expected, trace and rounds % 2 == 1, deadline)
        rounds += 1
        if time.monotonic() > deadline:
            break
    return {
        "imports": [r for r in imports if "import_s" in r],
        "rounds": rounds,
        "records": records,
    }


def summarize(workload: str, run: dict, trace: bool, benchmark: dict) -> dict:
    records = run["records"]
    ops = len(WORKLOADS[workload])
    failed = [r for r in records if r["failure"]]
    ok = not failed
    values: dict = {}
    if ok:
        untraced = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        if trace:
            values = per_layer(traced, untraced, ops)
            first = counters_of(traced[:ops])
            ok = all(counters_of(traced[i:i + ops]) == first for i in range(ops, len(traced), ops))
        else:
            values = end_to_end(untraced, ops, run["imports"])
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    return {
        "correct": ok,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kalvar" / "cli.py").is_file():
        print(f"error: no kalvar sources under {SRC}; run from a kalvar checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    compileall.compile_dir(str(SRC), quiet=1)  # no run pays for byte-compiling

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    result = summarize(args.workload, run, bool(args.trace), benchmark)
    untraced = [r for r in run["records"] if not r["traced"]]
    probe_s = statistics.median(r["probe_s"] for r in run["imports"] + untraced) if not result["failed"] else None
    measured = end_to_end(untraced, len(WORKLOADS[args.workload]), run["imports"], as_measured) if probe_s else {}

    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "host_spin_s": probe_s,
        "measured_at_host_speed": measured,
        "import_only": run["imports"],
        "rounds": run["rounds"],
        "operations": [{k: v for k, v in r.items() if k not in ("stdout", "layers")} for r in run["records"]],
        "result": result,
    }
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for r in run["records"]:
        if r["failure"]:
            print(f"FAILED {' '.join(r['argv'])}: {r['failure']}")
    print(f"workload {args.workload}: {run['rounds']} rounds, host.spin_s {probe_s} s (reference {REF_PROBE_S} s)")
    for name, value in measured.items():
        print(f"{name} as measured, not scaled: {value}")
    print(f"error_rate: {result['failed'] / result['attempted']} ({result['failed']} of {result['attempted']} operations failed)")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
