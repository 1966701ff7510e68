"""Run one kalvar CLI operation in this fresh interpreter and report what
it cost as one JSON object on stdout.

    python3 child.py <src-dir> <span-file or -> <kalvar argv...>

The import of `kalvar.cli` and the call of `kalvar.cli.main(argv)` are
timed separately; with no kalvar argv only the import is timed.  A fixed
piece of pure-Python work (`probe`) is timed right after the import, in short
slices every TICK_S seconds while `main` runs (untraced children only),
and right after `main`, so the parent can tell how fast the host ran this
child.  The slices' own time is taken off `main`'s.  The
CLI's own stdout is captured in memory and handed back inside the JSON
object, so the parent can check it byte for byte.

With a span file, every layer boundary in LAYERS is wrapped before
`main` runs.  Each call becomes a span (id, parent, name, start, end) held
in memory; when the operation ends the spans are written to the span file
and folded into per-layer calls, self time and work counters.
"""

import io
import itertools
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

# Boundaries wrapped in a traced run: (module, attribute, counter, counter_of).
# counter_of(result) is added to the layer's counter after each call; a
# counter named *_ratio counts outcomes and is reported as their share of
# calls.  Metrics are named `<module without "kalvar.">.<attribute>.<stat>`.
LAYERS = (
    ("kalvar.partitions", "skew_schur_dim", "tableaux", lambda r: r),
    ("kalvar.partitions", "partitions_in_box", None, None),
    ("kalvar.partitions", "schur_dim", None, None),
    ("kalvar.bott", "dotted_bott", None, None),
    ("kalvar.bott", "bundle_cohomology", "vanish_ratio", lambda r: int(r[0].vanishes)),
    ("kalvar.bott", "exhaustive_dotted_check", None, None),
    ("kalvar.resolution", "resolution_normalization", "terms", lambda r: len(r.terms)),
    ("kalvar.resolution", "chain_resolution", None, None),
    ("kalvar.resolution", "chain_closed_form_check", None, None),
    ("kalvar.resolution", "les_euler_check", None, None),
    ("kalvar.resolution", "hilbert_numerator", None, None),
    ("kalvar.polysym", "reduced_kalman_matrix", None, None),
    ("kalvar.polysym", "determinant", "terms", lambda r: len(r.terms)),
    ("kalvar.polysym", "all_top_minors", None, None),
    ("kalvar.polysym", "SparsePoly.evaluate", None, None),
    ("kalvar.polysym", "SparsePoly.map_domain", None, None),
    ("kalvar.polysym", "trace_identity_check", None, None),
    ("kalvar.verify", "monomials_of_degree", "monomials", len),
    ("kalvar.verify", "SpanEliminator.absorb", "pivot_ratio", int),
    ("kalvar.verify", "random_kalman_point", None, None),
    ("kalvar.verify", "vanishing_test", None, None),
    ("kalvar.verify", "minimality_report", None, None),
    ("kalvar.cli", "main", None, None),
)


PROBE_ROUNDS = 32  # one probe; the parent's REF_PROBE_S is its time on the reference host
TICK_ROUNDS = 4  # one slice of the probe while main runs
TICK_S = 0.02


def _cell(counts: dict, n: int, k: int) -> int:
    return counts[n, k - 1] + (counts[n - k, k] if n >= k else 0)


def probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds taken by a fixed mix of pure-Python work of the kinds kalvar
    does: partition counts in a dict keyed by tuples, a set of sorted
    combinations, a Fraction sum and big-integer products.  It shows how
    fast the host runs this process right now.  A lone arithmetic loop
    was tried first; kalvar slowed more than it did when the host was
    contended."""
    start = time.perf_counter()
    acc = 0
    for r in range(rounds):
        counts = {(0, k): 1 for k in range(26)}
        for n in range(1, 41 + r % 7):
            counts[n, 0] = 0
            for k in range(1, 26):
                counts[n, k] = _cell(counts, n, k)
        acc += counts[n, 25]
        acc += len({tuple(sorted(c, reverse=True)) for c in itertools.combinations(range(9), 3)})
        acc += sum(Fraction(1, k) for k in range(1, 12)).numerator
        acc += (3 ** 200 + r) * (7 ** 150 + r) % 1009
    return time.perf_counter() - start


class SpeedSampler:
    """Times a slice of the probe from a timer signal every `tick_s`
    seconds, so the host's speed is sampled across a whole operation, not
    only next to it.  With `tick_s` 0 it takes no slices."""

    def __init__(self, tick_s: float):
        self.tick_s = tick_s
        self.slices: list[float] = []
        self.spent = 0.0  # seconds inside the handler, slices included

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.slices.append(probe(TICK_ROUNDS))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.tick_s:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)  # the handler stays, so a late signal is harmless

    def probe_s(self, before: float, after: float) -> float:
        """The probe's time at the host's mean speed over the operation:
        every round timed, before, during and after, counts once."""
        rounds = 2 * PROBE_ROUNDS + TICK_ROUNDS * len(self.slices)
        return (before + after + sum(self.slices)) * PROBE_ROUNDS / rounds


def cpu_time() -> float:
    """User+sys CPU of this process, its threads and the children it has
    waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Tracer:
    """Spans and counters of one operation, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # per span: (parent id, name id, start ns, end ns)
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []

    def wrap(self, name: str, fn, counter, counter_of):
        name_id = len(self.names)
        self.names.append(name)
        if counter:
            self.counters[f"{name}.{counter}"] = 0
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter_ns
        key = f"{name}.{counter}"

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name_id, start, end)
            if counter:
                counters[key] += counter_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap each boundary under every name a kalvar module binds it to,
        so calls from other modules, same-module calls and recursion all
        go through the wrapper.  A boundary that no longer exists is
        recorded as absent."""
        modules = [m for k, m in list(sys.modules.items()) if k == "kalvar" or k.startswith("kalvar.")]
        for module_name, attr, counter, counter_of in layers:
            name = f"{module_name.removeprefix('kalvar.')}.{attr}"
            owner = sys.modules.get(module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self.wrap(name, original, counter, counter_of)
            if outer:
                setattr(owner, leaf, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def layers(self) -> dict:
        """Per wrapped name: calls, total seconds and self seconds (span
        time minus the time of directly nested wrapped spans)."""
        nested = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid, (_, name_id, start, end) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - nested[sid]) / 1e9
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, (parent, name_id, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{self.names[name_id]}\t{start}\t{end}\n")


def main() -> int:
    src, span_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    fresh = not any(k == "kalvar" or k.startswith("kalvar.") for k in sys.modules)
    start = time.perf_counter()
    import kalvar.cli
    import_s = time.perf_counter() - start
    loaded_from = os.path.abspath(kalvar.cli.__file__)
    if not loaded_from.startswith(os.path.abspath(src) + os.sep):
        print(f"error: kalvar imported from {loaded_from}, not from {src}", file=sys.stderr)
        return 3

    before = probe()
    if not argv:
        probe_s = (before + probe()) / 2
        json.dump({"pid": os.getpid(), "fresh": fresh, "import_s": import_s, "probe_s": probe_s}, sys.stdout)
        return 0

    tracer = None
    if span_path != "-":
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    sampler = SpeedSampler(0 if tracer else TICK_S)  # spans hold kalvar's time only
    cpu_start = cpu_time()
    start = time.perf_counter()
    try:
        with sampler:
            code = kalvar.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        main_s = time.perf_counter() - start - sampler.spent
        cpu_s = cpu_time() - cpu_start - sampler.spent
        sys.stdout = real_stdout
    probe_s = sampler.probe_s(before, probe())
    usage = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "pid": os.getpid(),
        "fresh": fresh,
        "import_s": import_s,
        "main_s": main_s,
        "cpu_s": cpu_s,
        "probe_s": probe_s,
        "probe_slices": len(sampler.slices),
        "exit": code,
        "stdout": captured.getvalue(),
        "maxrss_kb": usage.ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
        report["counters"] = tracer.counters
        report["absent"] = tracer.absent
        tracer.write_spans(span_path)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
