#!/usr/bin/env python3
"""Benchmark for skewlat: four single-process workloads, each checked against
independent oracles.

    python3 bench/run.py                      # all four workloads, one after another
    python3 bench/run.py --workload census --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --workload battery --trace 1   # per-layer metrics

Run from anywhere; the program is imported from the ``src`` directory next to
this one and from nowhere else. A run sets up its workload several times,
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, checks the outputs, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics. Untraced runs report the
end-to-end metrics, traced runs the per-layer ones. Each run also writes its
full record to ``bench/results/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

SETUP_REPEATS = 9
REF_GAP_S = 0.05  # time between the end of one reference pass and the next
REF_WINDOW_S = 0.25  # an operation is divided by the passes this close to it
REF_WARMUP = 5  # passes discarded before the first one that counts
REF_NOMINAL_S = 0.012  # median reference pass on the machine the bounds were set on
TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10  # samples that must lie beyond the tail percentile

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_p50_ref": "ref",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}
# reported where they apply, in the result file and the human-readable lines
WORKLOAD_EXTRAS = {"wall_s": "s", "op_p50_ms": "ms", "setup_raw_s": "s", "op_tail_ms": "ms", "search_nodes": "count"}

THEOREM_NAMES = (
    "update-maps-are-idempotent-solutions",
    "handed-update-coincidences",
    "family-identity-iff-braid",
    "strong-and-co-strong-implies-cubic-solution",
    "handed-cancellativity-iff-solution",
    "symmetric-triple-equivalence",
    "nondegenerate-strong-solutions-are-rectangular-flips",
    "lower-update-composition-law",
    "coset-membership-criterion",
    "handed-weak-map-collapse",
    "decomposition-invariants",
    "nc5-characterizes-simple-cancellativity",
    "orders-cohere-with-green",
)
CLI_VERBS = ("validate", "structure", "props", "ybe")

# name -> unit; values come from layer_metrics
PER_LAYER = {
    "search.nodes": "count",
    "search.leaves": "count",
    "search.canonical_yield": "ratio",
    "search.is_canonical.s": "s",
    "search.dfs.self_s": "s",
    "search.predicates.s": "s",
    "search.predicate.calls": "count",
    "search.filter_yield": "ratio",
    "core.axiom_violations.s": "s",
    "core.axiom_violations.calls": "count",
    "core.validate.s": "s",
    "core.validate.calls": "count",
    "core.from_text.s": "s",
    "terms.holds.s": "s",
    "terms.holds.calls": "count",
    "terms.library.s": "s",
    "terms.library.calls": "count",
    "varieties.classify.s": "s",
    "varieties.classify.calls": "count",
    "varieties.nc5_free.s": "s",
    "green.green_relations.s": "s",
    "green.green_relations.calls": "count",
    "green.factors.s": "s",
    "ybe.build_map.s": "s",
    "ybe.braid_check.s": "s",
    "ybe.braid_check.calls": "count",
    "ybe.power_class.s": "s",
    **{f"theorems.{name}.s": "s" for name in THEOREM_NAMES},
    **{f"cli.{verb}.self_s": "s" for verb in CLI_VERBS},
}


MODULES = ("cli", "constructions", "core", "green", "search", "terms", "theorems", "varieties", "ybe")


def import_program():
    """Import skewlat from ROOT/src, and fail if it cannot be found there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        skewlat = importlib.import_module("skewlat")
        for name in MODULES:
            importlib.import_module(f"skewlat.{name}")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import skewlat from {src}: {exc}")
    if src.resolve() not in Path(skewlat.__file__).resolve().parents:
        raise SystemExit(f"bench: skewlat was imported from {skewlat.__file__}, not from {src}")
    return skewlat


def reimport_program():
    """Import skewlat's modules again, then put the first import back.

    The standard library stays imported, so this repeats the import-time
    work of skewlat's own modules, as often as set-up is measured."""
    ours = {k: m for k, m in sys.modules.items() if k == "skewlat" or k.startswith("skewlat.")}
    for k in ours:
        del sys.modules[k]
    try:
        importlib.import_module("skewlat")
        for name in MODULES:
            importlib.import_module(f"skewlat.{name}")
    finally:
        for k in [k for k in sys.modules if k == "skewlat" or k.startswith("skewlat.")]:
            del sys.modules[k]
        sys.modules.update(ours)


def percentile(values, q):
    """The q-th percentile by linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def layer_metrics(sums, nodes) -> dict:
    """Per-layer metrics of one round from its span sums and search nodes."""

    def calls(name):
        return sums.get(name, (0, 0.0, 0.0, 0))[0]

    def total(name):
        return sums.get(name, (0, 0.0, 0.0, 0))[1]

    def self_s(name):
        return sums.get(name, (0, 0.0, 0.0, 0))[2]

    def ratio(name):
        c = calls(name)
        return sums[name][3] / c if c else 0.0

    out = {
        "search.nodes": nodes,
        "search.leaves": calls("search.is_canonical"),
        "search.canonical_yield": ratio("search.is_canonical"),
        "search.is_canonical.s": total("search.is_canonical"),
        "search.dfs.self_s": self_s("search.enumerate"),
        "search.predicates.s": total("search.predicate"),
        "search.predicate.calls": calls("search.predicate"),
        "search.filter_yield": ratio("search.predicate"),
        "core.from_text.s": total("core.from_text"),
        "varieties.nc5_free.s": total("varieties.nc5_free"),
        "green.factors.s": total("green.factors"),
        "ybe.build_map.s": total("ybe.build_map"),
        "ybe.power_class.s": total("ybe.power_class"),
    }
    for name in (
        "core.axiom_violations",
        "core.validate",
        "terms.holds",
        "terms.library",
        "varieties.classify",
        "green.green_relations",
        "ybe.braid_check",
    ):
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = calls(name)
    for name in THEOREM_NAMES:
        out[f"theorems.{name}.s"] = total(f"theorems.{name}")
    for verb in CLI_VERBS:
        out[f"cli.{verb}.self_s"] = self_s(f"cli.{verb}")
    return out


class ReferenceClock:
    """Runs one pass of the reference loop on every timer signal, so that the
    passes are spread evenly over the timed phase, operations included.

    The time spent in passes is kept in `inside`, so that callers can take
    it out of the operation they interrupted."""

    def __init__(self):
        from reference import reference_seconds

        self.reference_seconds = reference_seconds
        self.passes = []
        self.times = []  # start of each pass
        self.inside = 0.0

    def _pass(self):
        start = time.perf_counter()
        self.passes.append(self.reference_seconds())
        self.times.append(start)
        self.inside += time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        self._pass()
        signal.setitimer(signal.ITIMER_REAL, REF_GAP_S)  # re-armed after the pass: no backlog

    def __enter__(self):
        for _ in range(REF_WARMUP):
            self.reference_seconds()
        self._pass()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._pass()


class Runner:
    """Sets a workload up, times whole rounds of its operations and checks
    their outputs.

    Untraced, a ReferenceClock runs throughout and its passes are taken out
    of the operation and set-up times; the set-ups are spread between the
    rounds, so that they do not all fall into one fast or slow spell of the
    machine. Traced, the workload is set up once before the spans are
    installed, and no reference pass can land inside a span."""

    def __init__(self, workload, seed, seconds, tracer=None, package=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.package = package
        self.op_s = []  # per operation, every round
        self.op_span = []  # (start, end) of each operation
        self.round_sizes = []
        self.round_layers = []  # per-layer metrics, per round (traced runs)
        self.setup_s = []
        self.setup_span = []
        self.reference = None
        self.failed = 0
        self.errors = []

    def run(self):
        if self.tracer is None:
            with ReferenceClock() as self.reference:
                self._setup()
                self._rounds()
                while len(self.setup_s) < SETUP_REPEATS:
                    self._setup()
        else:
            self.workload.setup(self.seed)
            self.tracer.install(self.package)
            try:
                self._rounds()
            finally:
                self.tracer.uninstall()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.first is not None:
            self.errors += self.workload.check(self.first)

    def _setup(self):
        paused = self.reference.inside
        start = time.perf_counter()
        reimport_program()
        self.workload.setup(self.seed)
        end = time.perf_counter()
        self.setup_s.append(end - start - (self.reference.inside - paused))
        self.setup_span.append((start, end))

    def _rounds(self):
        clock = time.perf_counter
        reference = self.reference
        ops = self.workload.operations(self.tracer)
        self.first = None  # outputs of the first round, checked by the oracles
        first_digests = None
        deadline = clock() + self.seconds
        while not self.round_sizes or clock() < deadline:
            outputs = []
            for label, fn in ops:
                paused = reference.inside if reference else 0.0
                start = clock()
                try:
                    out = fn()
                except Exception:
                    out = None
                    if not self.failed:
                        traceback.print_exc()
                    self.failed += 1
                end = clock()
                self.op_s.append(end - start - ((reference.inside if reference else 0.0) - paused))
                self.op_span.append((start, end))
                outputs.append(out)
            self.round_sizes.append(len(ops))
            if reference is not None and len(self.setup_s) < SETUP_REPEATS:
                self._setup()
            if self.tracer is not None:
                nodes = self.workload.search_nodes([o for o in outputs if o is not None])
                self.round_layers.append(layer_metrics(self.tracer.snapshot(), nodes))
                self.tracer.reset()
                self.tracer.keep_spans = False
            if any(o is None for o in outputs):
                continue
            digests = [self.workload.digest(o) for o in outputs]
            if self.first is None:
                self.first, first_digests = outputs, digests
            elif digests != first_digests:
                self.errors.append(f"round {len(self.round_sizes)} gave other outputs than round 1")

    def in_ref(self, seconds, spans):
        """Each duration divided by the mean reference pass that started
        within REF_WINDOW_S of its span or inside it."""
        times, passes = self.reference.times, self.reference.passes
        out = []
        for d, (start, end) in zip(seconds, spans):
            lo = bisect.bisect_left(times, start - REF_WINDOW_S)
            hi = bisect.bisect_right(times, end + REF_WINDOW_S)
            near = passes[lo:hi] or passes[max(lo - 1, 0) : lo + 1]
            out.append(d / statistics.fmean(near))
        return out

    def typical(self, values):
        """The median over the round's operations of each one's mean over
        the rounds. Averaging an operation's repeats first keeps the median
        from jumping between neighbouring operations on noise."""
        k = self.round_sizes[0]
        return statistics.median(statistics.fmean(values[i::k]) for i in range(k))

    def per_round(self, values):
        """Sums of per-operation values, one per round."""
        out, at = [], 0
        for size in self.round_sizes:
            out.append(sum(values[at : at + size]))
            at += size
        return out

    def attempted(self):
        return len(self.op_s)


def run_workload(name, seed, seconds, trace) -> dict:
    start = time.perf_counter()
    sk = import_program()
    import_s = time.perf_counter() - start
    from spans import Tracer

    from workloads import WORKLOADS

    workload = WORKLOADS[name](sk)
    tracer = Tracer() if trace else None
    runner = Runner(workload, seed, seconds, tracer, sk)
    try:
        runner.run()
    finally:
        workload.close()

    ops_ms = [s * 1000 for s in runner.op_s]
    op_ref = []
    extras = {"wall_s": statistics.median(runner.per_round(runner.op_s))}
    if trace:
        metrics = {}
        for key, unit in PER_LAYER.items():
            values = [r[key] for r in runner.round_layers]
            middle = statistics.median_low(values) if unit == "count" else statistics.median(values)
            metrics[key] = {"value": middle, "unit": unit}
            if unit == "count" and len(set(values)) > 1:
                print(f"bench: {key} differs between rounds: {values}", file=sys.stderr)
    else:
        op_ref = runner.in_ref(runner.op_s, runner.op_span)
        setup_ref = runner.in_ref(runner.setup_s, runner.setup_span)
        metrics = {
            "setup_s": statistics.median(setup_ref) * REF_NOMINAL_S,
            "op_p50_ref": runner.typical(op_ref),
            "wall_ref": statistics.median(runner.per_round(op_ref)),
            "peak_rss_mb": runner.peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        extras["op_p50_ms"] = runner.typical(ops_ms)
        extras["setup_raw_s"] = statistics.median(runner.setup_s)
        if len(ops_ms) * (100 - TAIL_PERCENTILE) / 100 >= TAIL_MIN_BEYOND:
            extras["op_tail_ms"] = percentile(ops_ms, TAIL_PERCENTILE)
        nodes = workload.search_nodes(runner.first or [])
        if nodes:
            extras["search_nodes"] = nodes
    extras = {k: {"value": v, "unit": WORKLOAD_EXTRAS[k]} for k, v in extras.items()}
    for error in runner.errors:
        print(f"bench: {name}: {error}", file=sys.stderr)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not runner.errors,
        "attempted": runner.attempted(),
        "failed": runner.failed,
        "rounds": len(runner.round_sizes),
        "operations_per_round": runner.round_sizes[0],
        "metrics": metrics,
        "workload_metrics": extras,
        "setup_repeats_s": runner.setup_s,
        "op_s": runner.op_s,
        "op_ref": op_ref,
        "reference_passes_s": runner.reference.passes if runner.reference else [],
        "import_s": import_s,
        "python": sys.version.split()[0],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"trace-{tag}.json", runner.round_layers)
    with open(RESULTS_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_lines(record):
    for key, m in {**record["metrics"], **record["workload_metrics"]}.items():
        print(f"{record['workload']:<9} {key:<52} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", "census", "filtered", "battery", "reports"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload != "all":
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print_lines(record)
        result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(result))
        return 0
    # one fresh process per workload, so that no cache or memory peak carries over
    import_program()  # fails here, before any workload, if the program is missing
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("census", "filtered", "battery", "reports"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
