"""clsat benchmark: time the solver and its certificates end to end, or by layer.

    python3 perfbench/run.py --workload guided --seed 1 --seconds 35 --trace 0

--scale smoke runs tiny inputs (the benchmark's own tests); --src points at
another copy of the program's src/ directory (compare.py uses it).

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  guided        first-UIP solves guided by generated branching sequences,
                proof logging on, every learned clause and refutation checked
  unguided      the `clsat bench` dpll and cl_default rows, through
                clsat.bench.run_case, under fixed budgets
  proof_replay  parse, check, trace-extend and replay stored refutations

A run builds the workload's inputs from --seed, runs one warm-up pass, then
repeats timed passes over the same operations until --seconds have passed.
It builds the inputs six more times, spread over those seconds; the median
of the seven set-up times is `setup_s`. Each operation's output is checked;
a failed check or an exception counts against `failed`. Times are CPU
seconds of this single-threaded process (time.process_time): the same as
wall time on an idle machine, minus what other tenants take from the core.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced passes, reports the per-layer metrics from
the traced ones, the self time of each layer and the tracing overhead, and
writes the spans of the first traced pass to perfbench/out/. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it give the environment, the search counters
and their digest, the failure share, and each metric with its sample count.

The run exits with code 1, after printing its result, when an output check
failed or the passes repeated different search counters. The program is
imported from src/ next to this directory (or --src); the run exits with
code 2 and prints no result when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

import spans as spanlib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 7
MIN_PASSES = 3
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
COUNTER_NAMES = ("decisions", "conflicts", "propagations", "learned", "fallback", "restarts")
MODULES = ("engine", "conflict", "proofs", "generators", "seqgen", "formula", "bench")


class Clsat:
    """The clsat modules, looked up once; attribute access goes through the
    module objects so installed wrappers are seen."""

    def __init__(self, src: Path):
        pkg = src / "clsat" / "__init__.py"
        if not pkg.is_file():
            raise ImportError(f"no clsat package under {src}")
        sys.path.insert(0, str(src))
        self.package = importlib.import_module("clsat")
        if Path(self.package.__file__).resolve() != pkg.resolve():
            raise ImportError(f"clsat imported from {self.package.__file__}, not {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"clsat.{name}"))

    def by_module_name(self) -> dict:
        return {f"clsat.{name}": getattr(self, name) for name in MODULES}


# ----------------------------------------------------------------- helpers


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.
    The ladder stops at p95, which a full run always reaches, so a faster
    program (more samples in the same seconds) keeps the same percentile."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def load_baseline() -> dict:
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    with open(path) as f:
        return json.load(f)


# -------------------------------------------------------------------- runs


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.cpu = 0.0
        self.op_s: list[float] = []
        self.verdict_s: list[float] = []
        self.certify = 0.0
        self.conflicts = 0
        self.counters: list[tuple] = []
        self.failures: list[str] = []
        self.op_ids = range(0)


def run_pass(ops, clock, tracer, op_kinds, next_op_id: int) -> tuple[Pass, int]:
    p = Pass(tracer is not None)
    first_op_id = next_op_id
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        t_pass, c_pass = perf_counter(), process_time()
        for op in ops:
            clock.solves.clear()
            # each operation starts from a collected heap, so the collector's
            # work inside it depends on its own allocations, not on where the
            # previous operations left the collector's counters
            gc.collect()
            root = -1
            if tracer is not None:
                tracer.op_id = next_op_id
                op_kinds[next_op_id] = op.kind
                root = tracer.open(spanlib.OP_SPAN)
            next_op_id += 1
            t0 = process_time()
            try:
                p.certify += op.run()
            except workloads.CheckFailed as exc:
                p.failures.append(str(exc))
            except Exception:  # an exception is a failed operation; keep running
                p.failures.append(f"{op.name}: {traceback.format_exc(limit=3)}")
            elapsed = process_time() - t0
            if root >= 0:
                tracer.close(root)
            p.op_s.append(elapsed)
            if clock.solves:
                p.verdict_s.append(sum(d for d, _ in clock.solves))
                p.conflicts += sum(r.stats.conflicts for _, r in clock.solves)
            p.counters.append((op.name, workloads.search_counters(clock)))
        p.wall = perf_counter() - t_pass
        p.cpu = process_time() - c_pass
        p.op_ids = range(first_op_id, next_op_id)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op_id = -1
    return p, next_op_id


def digest(counters: list[tuple]) -> str:
    return hashlib.sha256(repr(counters).encode()).hexdigest()


def end_to_end(passes: list[Pass], setup_times: list[float]) -> tuple[dict, list[str]]:
    op_ms = sorted(x * 1e3 for p in passes for x in p.op_s)
    verdict_ms = sorted(x * 1e3 for p in passes for x in p.verdict_s)
    solve_s = sum(x for p in passes for x in p.verdict_s)
    conflicts = sum(p.conflicts for p in passes)
    op_tail = tail_percentile(len(op_ms))
    verdict_tail = tail_percentile(len(verdict_ms)) if verdict_ms else 50.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(p.cpu for p in passes), "s"),
        "op_ms.p50": (percentile(op_ms, 50.0), "ms"),
        "op_ms.tail": (percentile(op_ms, op_tail), "ms"),
        "verdict_ms.p50": (percentile(verdict_ms, 50.0) if verdict_ms else 0.0, "ms"),
        "verdict_ms.tail": (percentile(verdict_ms, verdict_tail) if verdict_ms else 0.0, "ms"),
        "certify_s": (statistics.median(p.certify for p in passes), "s"),
        "conflicts_per_s": (conflicts / solve_s if solve_s > 0 else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "pass_s": f"median of {len(passes)} passes; wall clock {statistics.median(p.wall for p in passes):.6g} s",
        "op_ms.p50": f"n={len(op_ms)}",
        "op_ms.tail": f"p{op_tail:g}, n={len(op_ms)}",
        "verdict_ms.p50": f"n={len(verdict_ms)}",
        "verdict_ms.tail": f"p{verdict_tail:g}, n={len(verdict_ms)}",
        "certify_s": "median per pass",
        "conflicts_per_s": f"{conflicts} conflicts in {solve_s:.3f} s of Solver.solve",
        "peak_rss_mb": "ru_maxrss",
    }
    lines = [f"{k} = {v:.6g} {u} ({notes[k]})" for k, (v, u) in metrics.items()]
    return metrics, lines


def per_layer(tracer, op_kinds, traced, untraced, setup_counts, setups, search) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced pass; `search` holds the search
    counters of one pass, which every pass repeats."""
    n = len(traced)
    summary = tracer.by_kind(op_kinds)
    ops_only: dict[str, list[float]] = {}
    for kind, per_name in summary.items():
        if kind == "setup":
            continue
        for name, (calls, incl, own) in per_name.items():
            acc = ops_only.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own
    setup = summary.get("setup", {})

    def t(name, source=ops_only, per=n):  # inclusive seconds per pass (or set-up)
        return source.get(name, (0, 0.0, 0.0))[1] / per

    def calls(name):  # calls per pass
        return ops_only.get(name, (0, 0.0, 0.0))[0] / n

    c = tracer.counts
    learned = c["conflict.learned"]
    decisions = search["decisions"]
    graph_calls = ops_only.get("conflict.graph", (0,))[0]
    converted = c["proofs.converted_records"]
    m = {
        "engine.init_s": (t("engine.init"), "s"),
        "engine.propagate_s": (t("engine.propagate"), "s"),
        "engine.propagate_calls": (calls("engine.propagate"), "count"),
        "engine.backjump_s": (t("engine.backjump"), "s"),
        "engine.self_s": (ops_only.get("engine.solve", (0, 0.0, 0.0))[2] / n, "s"),
        "engine.decisions": (decisions, "count"),
        "engine.conflicts": (search["conflicts"], "count"),
        "engine.propagations": (search["propagations"], "count"),
        "engine.fallback_decisions": (search["fallback"], "count"),
        "engine.fallback_ratio": (search["fallback"] / decisions if decisions else 0.0, "ratio"),
        "engine.restarts": (search["restarts"], "count"),
        "conflict.graph_s": (t("conflict.graph"), "s"),
        "conflict.graph_calls": (graph_calls / n, "count"),
        "conflict.nodes_per_conflict": (
            c["conflict.nodes"] / graph_calls if graph_calls else 0.0, "nodes/conflict"
        ),
        "conflict.scheme_s": (t("conflict.scheme"), "s"),
        "conflict.cut_to_clause_s": (t("conflict.cut_to_clause"), "s"),
        "conflict.derivation_s": (t("conflict.derivation"), "s"),
        "conflict.derivation_steps": (c["conflict.derivation_steps"] / n, "count"),
        "conflict.learned_len_mean": (
            c["conflict.learned_len_sum"] / learned if learned else 0.0, "literals"
        ),
        "conflict.learned_len_max": (tracer.maxima["conflict.learned_len_max"], "literals"),
        "conflict.redundant": (c["conflict.redundant"] / n, "count"),
        "proofs.convert_s": (t("proofs.convert"), "s"),
        "proofs.check_s": (t("proofs.check"), "s"),
        "proofs.trivial_s": (t("proofs.trivial"), "s"),
        "proofs.rup_s": (t("proofs.rup"), "s"),
        "proofs.normalize_s": (t("proofs.normalize"), "s"),
        "proofs.normalize_calls": (calls("proofs.normalize"), "count"),
        "proofs.ptx_s": (t("proofs.ptx"), "s"),
        "proofs.replay_s": (t("proofs.replay"), "s"),
        "proofs.io_s": (t("proofs.io"), "s"),
        "proofs.steps": (c["proofs.steps"] / n, "count"),
        "proofs.steps_per_learned": (
            c["proofs.steps"] / converted if converted else 0.0, "steps/learned"
        ),
        "generators.gen_s": (t("generators.gen", setup, setups), "s"),
        "generators.clauses": (setup_counts["generators.clauses"] / setups, "count"),
        "seqgen.seq_s": (t("seqgen.seq", setup, setups), "s"),
        "seqgen.entries": (setup_counts["seqgen.entries"] / setups, "count"),
        "formula.parse_s": (t("formula.parse"), "s"),
        "bench.run_case_s": (t("bench.run_case"), "s"),
        "bench.rows": (calls("bench.run_case"), "count"),
    }
    own_by_layer = {layer: 0.0 for layer in spanlib.LAYERS + ("harness",)}
    for name, (_calls, _incl, own) in ops_only.items():
        own_by_layer[spanlib.layer_of(name)] += own
    for layer, own in own_by_layer.items():
        m[f"self.{layer}_s"] = (own / n, "s")
    traced_cpu = statistics.median(p.cpu for p in traced)
    untraced_cpu = statistics.median(p.cpu for p in untraced)
    m["trace.pass_s"] = (traced_cpu, "s")
    m["trace.untraced_pass_s"] = (untraced_cpu, "s")
    m["trace.overhead_frac"] = (traced_cpu / untraced_cpu - 1.0, "ratio")
    m["trace.spans_per_pass"] = (sum(acc[0] for acc in ops_only.values()) / n, "count")

    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in m.items()]
    layers_shown = ("engine", "conflict", "proofs", "formula", "bench")
    for kind in sorted(k for k in summary if k != "setup"):
        per_name = summary[kind]
        incl = {layer: 0.0 for layer in layers_shown}
        for name, (_calls, inc, _own) in per_name.items():
            layer = spanlib.layer_of(name)
            if layer in incl:
                incl[layer] += inc
        shown = " ".join(f"{layer}={incl[layer] / n:.6g}s" for layer in layers_shown)
        lines.append(f"kind {kind}: {shown} (inclusive per pass; nested layers overlap)")
    return m, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--src", help="directory holding the clsat package (default: src/)")
    args = ap.parse_args(argv)

    try:
        c = Clsat(Path(args.src).resolve() if args.src else ROOT / "src")
    except ImportError as exc:
        print(f"perfbench: cannot import clsat: {exc}", file=sys.stderr)
        return 2

    env = environment(args)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    clock = workloads.SolveClock(c.engine)
    clock.install()
    tracer = spanlib.Tracer(c.by_module_name()) if args.trace else None
    op_kinds: dict[int, str] = {}
    setup_times: list[float] = []
    setup_counts: defaultdict = defaultdict(float)

    def set_up():
        """Build the inputs once more and time it. In a traced run the set-up
        is traced too, with its counts kept apart from the passes'."""
        gc.collect()
        if tracer is not None:
            tracer.op_id = -2
            pass_counts, tracer.counts = tracer.counts, setup_counts
            tracer.install()
        t0 = process_time()
        try:
            ops = workloads.build(args.workload, c, args.seed, args.scale, clock)
        finally:
            setup_times.append(process_time() - t0)
            if tracer is not None:
                tracer.uninstall()
                tracer.counts = pass_counts
        return ops

    try:
        ops = set_up()
        warm, next_id = run_pass(ops, clock, None, op_kinds, 0)
        reference = warm.counters
        passes: list[Pass] = []
        t_start = perf_counter()
        while True:
            elapsed = perf_counter() - t_start
            # the other set-ups are spread over the run, so machine speed
            # drifts that last seconds reach setup_s as they reach the passes
            if len(setup_times) < SETUP_REPEATS and elapsed >= args.seconds * len(setup_times) / SETUP_REPEATS:
                ops = set_up()
            use_tracer = tracer if args.trace and len(passes) % 2 == 1 else None
            p, next_id = run_pass(ops, clock, use_tracer, op_kinds, next_id)
            passes.append(p)
            untraced = [q for q in passes if not q.traced]
            traced = [q for q in passes if q.traced]
            enough = (
                len(untraced) >= MIN_PASSES
                if not args.trace
                else len(untraced) >= 2 and len(traced) >= 2 and len(passes) % 2 == 0
            )
            if (
                enough
                and len(setup_times) == SETUP_REPEATS
                and perf_counter() - t_start >= args.seconds
            ):
                break
    finally:
        clock.uninstall()

    attempted = sum(len(p.op_s) for p in [warm] + passes)
    failures = [msg for p in [warm] + passes for msg in p.failures]
    nondeterministic = sum(1 for p in passes if p.counters != reference)
    for msg in failures[:5]:
        print(f"FAILED: {msg}", file=sys.stderr)
    if nondeterministic:
        print(f"FAILED: {nondeterministic} passes repeated different search counters", file=sys.stderr)

    search_digest = digest(reference)
    known = load_baseline().get("digests", {}).get(args.scale, {}).get(args.workload, {})
    want = known.get(str(args.seed))
    status = "no baseline for this seed" if want is None else (
        "matches baseline" if want == search_digest else f"DIFFERS from baseline {want[:16]}"
    )
    search = {
        name: sum(s[k] for _, solves in reference for s in solves)
        for k, name in enumerate(COUNTER_NAMES, start=1)
    }
    print("search counters per pass: " + " ".join(f"{k}={v}" for k, v in search.items()))
    print(f"engine.search_digest = {search_digest} ({status})")
    print(f"failed_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} operations)")

    if args.trace:
        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        metrics, lines = per_layer(
            tracer, op_kinds, traced, untraced, setup_counts, len(setup_times), search
        )
        metrics["engine.search_digest"] = (int(search_digest[:12], 16), "hash")
        metrics["engine.digest_match"] = (-1 if want is None else int(want == search_digest), "flag")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.scale}-seed{args.seed}.tsv"
        first = traced[0].op_ids
        kinds = {str(k): op_kinds[k] for k in first}
        tracer.write(span_file, {**env, "op_kinds": kinds}, first)
        lines.append(f"spans written to {span_file.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(passes, setup_times)
    for line in lines:
        print(line)
    correct = not failures and not nondeterministic
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
