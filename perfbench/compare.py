"""Repeat and compare benchmark runs.

    python3 perfbench/compare.py spread [--seeds 10] [--workloads guided,...]
        [--write-baseline]
    python3 perfbench/compare.py pairs --parent-src OLD/src --change-src NEW/src
        --topic NAME [--pairs 10] [--workloads guided,...]

Every run lasts run_seconds of BENCHMARK.json.

`spread` runs every workload once per seed (1..N) and prints, per
end-to-end metric, the median and the quartile spread as a share of the
median, against the metric's bound in BENCHMARK.json; it exits 1 when a
run fails a check or a spread is over its bound. With --write-baseline
it stores those medians, the environment and each seed's search digest in
perfbench/baseline.json; run.py compares every later run's digest with it.

`pairs` runs this benchmark code against two copies of the program, seed k
for pair k, alternating which side runs first. Per workload and end-to-end
metric it prints each side's median and quartiles, the share of pairs the
change won, and a verdict:
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own quartile spread is wider than the bound,
              and not every change run beats every parent run
  unchanged   otherwise
A gain counts only when both sides checked every output, the change failed
no more operations than the parent and both searched alike (the same search
digest on every seed); otherwise an `improved` verdict is given as
`unresolved` and the command exits 1. It writes BENCH_<topic>.json at the
repository root with the Python version, core count, medians, quartiles,
verdicts and the search counters of every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, src: str | None = None) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if src:
        cmd += ["--src", src]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    # run.py exits 1 after printing its result when an output check failed
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("engine.search_digest = "):
            result["digest"] = line.split()[2]
        elif line.startswith("search counters per pass: "):
            pairs = line.split(": ", 1)[1].split()
            result["counters"] = {k: int(v) for k, v in (p.split("=") for p in pairs)}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def lower_is_better(metric: dict) -> bool:
    return metric["better"] == "lower"


def cmd_spread(args) -> int:
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    baseline = {"environment": {}, "medians": {}, "digests": {"full": {}}, "counters": {}}
    if (HERE / "baseline.json").is_file():
        with open(HERE / "baseline.json") as f:
            baseline = json.load(f)  # workloads not run here keep their entries
    known = {w: dict(d) for w, d in baseline["digests"]["full"].items()}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds:
            r = run_once(w, seed, bench["run_seconds"])
            runs.append(r)
            want = known.get(w, {}).get(str(seed))
            same = "no baseline" if want is None else (
                "same search as baseline" if want == r["digest"] else "SEARCH DIFFERS from baseline")
            print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']}, {same}",
                  flush=True)
            ok &= r["correct"]
        baseline["digests"]["full"][w] = {str(s): r["digest"] for s, r in zip(seeds, runs)}
        baseline["counters"][w] = {str(s): r["counters"] for s, r in zip(seeds, runs)}
        baseline["medians"][w] = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = m["bound"]
            flag = ""
            if share > bound:
                flag = "  OVER BOUND"
                ok = False
            elif share > bound / 3:
                flag = "  over a third of the bound"
            baseline["medians"][w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
            print(f"  {m['name']:<28} median {med:<12.6g} spread {share:7.2%} (bound {bound:.0%})" + flag
                  + "\n      " + " ".join(f"{v:.4g}" for v in values), flush=True)
    if args.write_baseline:
        for w in workloads:
            baseline["environment"][w] = {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "loadavg": [round(x, 2) for x in os.getloadavg()],
                "seeds": seeds,
                "run_seconds": bench["run_seconds"],
            }
        with open(HERE / "baseline.json", "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def verdict(metric: dict, parent: list[float], change: list[float], won: float) -> str:
    lower = lower_is_better(metric)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    better_by = (pmed - cmed) if lower else (cmed - pmed)
    if won >= 0.9 and better_by > (p3 - p1):
        return "improved"
    bound = metric["bound"]
    if pmed and -better_by / abs(pmed) > bound:
        return "regressed"
    if pmed and (p3 - p1) / abs(pmed) > bound:
        all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        if not all_better:
            return "unresolved"
    return "unchanged"


def cmd_pairs(args) -> int:
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record = {
        "topic": args.topic,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "pairs": args.pairs,
        "workloads": {},
    }
    ok = True
    for w in workloads:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                src = str(Path(args.parent_src if side == "parent" else args.change_src).resolve())
                runs[side].append(run_once(w, k + 1, seconds, src))
            print(f"{w} pair {k + 1} done", flush=True)
        same_search = all(
            p["digest"] == c["digest"] for p, c in zip(runs["parent"], runs["change"])
        )
        failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        checked = all(r["correct"] for side in runs for r in runs[side])
        comparable = same_search and checked and failed["change"] <= failed["parent"]
        ok &= comparable
        rows = {}
        print(f"\n{w}: search counters {'identical' if same_search else 'DIFFER'} on every seed;"
              f" failed operations parent {failed['parent']}, change {failed['change']};"
              f" {'every output checked' if checked else 'SOME RUN FAILED ITS CHECKS'}")
        if not comparable:
            print(f"  {w}: no gain counts here; improved is given as unresolved")
        for m in bench["end_to_end"]:
            name = m["name"]
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            lower = lower_is_better(m)
            wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
            won = wins / len(parent)
            v = verdict(m, parent, change, won)
            if v == "improved" and not comparable:
                v = "unresolved"
            pq, cq = quartiles(parent), quartiles(change)
            rows[name] = {
                "unit": m["unit"],
                "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2], "values": parent},
                "change": {"q1": cq[0], "median": cq[1], "q3": cq[2], "values": change},
                "won": won,
                "verdict": v,
            }
            print(f"  {name:<18} parent {pq[1]:<10.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"  change {cq[1]:<10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
                  f"  won {won:4.0%}  {v}")
        record["workloads"][w] = {
            "metrics": rows,
            "search_identical": same_search,
            "digests": {side: [r["digest"] for r in runs[side]] for side in runs},
            "counters": {side: [r["counters"] for r in runs[side]] for side in runs},
            "failed": failed,
            "every_output_checked": checked,
        }
    out = ROOT / f"BENCH_{args.topic}.json"
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread", help="one run per seed; spreads against the bounds")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--write-baseline", action="store_true")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("pairs", help="alternating parent/change runs and verdicts")
    p.add_argument("--parent-src", required=True)
    p.add_argument("--change-src", required=True)
    p.add_argument("--topic", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads")
    p.set_defaults(fn=cmd_pairs)
    args = ap.parse_args(argv)
    if args.cmd == "pairs" and args.pairs < 10:
        ap.error("a verdict needs at least ten pairs")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
