"""Command-line front end.

Subcommands: gen-grid, gen-randpeb, gen-gtn, gen-seq, solve, verify-proof,
pt-extend, res-replay, bench. Solving exits 10 for SAT, 20 for UNSAT, 30 on
budget exhaustion; other successful commands exit 0; errors exit nonzero.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as _bench
from . import proofs as _proofs
from .engine import (
    LEARNING_SCHEMES,
    SolverConfig,
    parse_sequence,
    solve,
    write_sequence,
)
from .formula import CnfFormula, parse_dimacs, write_dimacs
from .generators import (
    RANDPEB_DEFAULTS,
    gen_grid,
    gen_gtn,
    gen_random_pebbling,
    gtn_successor_indices,
    make_satisfiable,
    parse_pebbling_graph,
    pebbling_to_cnf,
    write_pebbling_graph,
)
from .seqgen import gtn_seq, peb_seq_1uip

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_BUDGET = 30


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _parse_range(spec: str) -> list[int]:
    """Parse a comma-separated list of integers and "a..b" ranges (inclusive,
    a <= b). Raises ValueError, naming the spec, on a part that is not an
    integer or a range, on a descending range and on an empty spec."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        first, dots, last = part.partition("..")
        try:
            lo = int(first)
            hi = int(last) if dots else lo
        except ValueError:
            raise ValueError(f"bad value {part!r} in range {spec!r}") from None
        if lo > hi:
            raise ValueError(f"descending range {part!r} in {spec!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"no values in range {spec!r}")
    return out


def _emit_formula(args, formula: CnfFormula, graph=None, pool=None) -> int:
    if args.sat_seed is not None:
        formula = make_satisfiable(formula, args.sat_seed, pool=pool)
    _write(args.output, write_dimacs(formula))
    if graph is not None and getattr(args, "graph", None):
        _write(args.graph, write_pebbling_graph(graph))
    return 0


def cmd_gen_grid(args) -> int:
    graph = gen_grid(args.layers)
    return _emit_formula(args, pebbling_to_cnf(graph), graph)


def cmd_gen_randpeb(args) -> int:
    graph = gen_random_pebbling(args.nodes, args.max_indegree, args.max_label, args.seed)
    return _emit_formula(args, pebbling_to_cnf(graph), graph)


def cmd_gen_gtn(args) -> int:
    return _emit_formula(args, gen_gtn(args.n), pool=gtn_successor_indices(args.n))


def cmd_gen_seq(args) -> int:
    if args.gtn is not None:
        seq = gtn_seq(args.gtn)
    else:
        seq = peb_seq_1uip(parse_pebbling_graph(_read(args.graph)))
    _write(args.output, write_sequence(seq))
    return 0


def _solve_exit(status: str) -> int:
    return {"SAT": EXIT_SAT, "UNSAT": EXIT_UNSAT}.get(status, EXIT_BUDGET)


def _print_result(result) -> None:
    s = result.stats
    print(f"s {'SATISFIABLE' if result.is_sat else 'UNSATISFIABLE' if result.is_unsat else 'UNKNOWN'}")
    print(
        f"c decisions={s.decisions} propagations={s.propagations} conflicts={s.conflicts}"
        f" learned={s.learned_clauses} max_level={s.max_level}"
        f" fallback={s.fallback_decisions} restarts={s.restarts}"
    )
    if result.is_sat:
        lits = [v if val else -v for v, val in sorted(result.model.items())]
        print("v " + " ".join(str(l) for l in lits) + " 0")


def cmd_solve(args) -> int:
    formula = parse_dimacs(_read(args.cnf))
    sequence = parse_sequence(_read(args.sequence)) if args.sequence else None
    graphs = []
    cfg = SolverConfig(
        learning=args.learning,
        sequence=sequence,
        cl_minus_minus=args.cl_minus_minus,
        conflict_budget=args.conflict_budget,
        decision_budget=args.decision_budget,
        log_proof=bool(args.proof),
        graph_sink=graphs.append if args.dump_graphs else None,
    )
    result = solve(formula, cfg)
    _print_result(result)
    if args.dump_graphs:
        _write(args.dump_graphs, _format_graphs(graphs))
    if args.proof:
        if result.is_unsat and result.records is not None:
            proof = _proofs.cl_to_res(result.records, formula)
            _write(args.proof, _proofs.write_proof(proof))
        else:
            print("c no refutation to write", file=sys.stderr)
    return _solve_exit(result.status)


def _format_graphs(graphs) -> str:
    lines = []
    for i, g in enumerate(graphs, start=1):
        lines.append(f"# conflict {i} var={abs(g.conflict_literals[1])} level={g.conflict_level}")
        for n in g.nodes:
            kind = "decision" if g.antecedents[n] is None else "implied"
            lines.append(f"node {n} {kind} level={g.level[n]}")
        for n in g.nodes:
            for p in g.preds(n):
                lines.append(f"edge {p} {n}")
        for cl in g.conflict_literals:
            lines.append(f"edge {cl} conflict")
    return "\n".join(lines) + "\n"


def cmd_verify_proof(args) -> int:
    formula = parse_dimacs(_read(args.cnf))
    proof = _proofs.parse_proof(_read(args.proof), formula)
    chk = _proofs.check_res_refutation(proof)
    if chk:
        print(f"valid refutation: {proof.size} steps ({proof.derived_count()} derived)")
        return 0
    print(f"invalid at step {chk.step}: {chk.reason}", file=sys.stderr)
    return 1


def cmd_pt_extend(args) -> int:
    formula = parse_dimacs(_read(args.cnf))
    proof = _proofs.parse_proof(_read(args.proof), formula)
    extended, seq = _proofs.proof_trace_extension(formula, proof)
    _write(args.output, write_dimacs(extended))
    if args.seq:
        _write(args.seq, write_sequence(seq))
    print(
        f"c trace extension: {extended.num_vars - formula.num_vars} trace variables,"
        f" {extended.size - formula.size} trace clauses"
    )
    return 0


def cmd_res_replay(args) -> int:
    formula = parse_dimacs(_read(args.cnf))
    proof = _proofs.parse_proof(_read(args.proof), formula)
    report = _proofs.replay_extended_sequence(
        formula, proof, conflict_budget=args.conflict_budget
    )
    _print_result(report.result)
    print(
        f"c replay: support={len(report.support)} learned={len(report.learned)}"
        f" in_order={report.learned_support_in_order} restarts={report.restarts_used}"
    )
    return _solve_exit(report.result.status)


def _parse_names(option: str, spec: str) -> list[str]:
    """Parse a comma-separated list of names. Raises ValueError naming the
    option when the list is empty."""
    names = [n.strip() for n in spec.split(",") if n.strip()]
    if not names:
        raise ValueError(f"no names in {option} {spec!r}")
    return names


# the family that reads each family-specific bench option, and the size range
# each family runs when none is given (bench() fills in the randpeb shape)
_OPTION_FAMILY = {
    "layers": "grid", "nodes": "randpeb", "n": "gtn",
    "seed": "randpeb", "max_indegree": "randpeb", "max_label": "randpeb",
}
_DEFAULT_SIZES = {"grid": "2..8", "randpeb": "10,20", "gtn": "3..8"}


def cmd_bench(args) -> int:
    for name, family in _OPTION_FAMILY.items():
        if family != args.family and getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} applies only to --family {family}")
    configs = _parse_names("--configs", args.configs)
    variants = _parse_names("--variants", args.variants)
    spec = {"grid": args.layers, "randpeb": args.nodes, "gtn": args.n}[args.family]
    sizes = _parse_range(_DEFAULT_SIZES[args.family] if spec is None else spec)
    rows = _bench.bench(
        args.family, sizes, variants, configs, args.sat_seed, args.conflict_budget,
        args.decision_budget, args.seed, args.max_indegree, args.max_label,
    )
    if args.csv:
        _write(args.csv, _bench.rows_to_csv(rows))
    _write(args.markdown, _bench.rows_to_markdown(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clsat",
        description="Clause-learning SAT solver and proof-complexity benchmark kit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    shape = RANDPEB_DEFAULTS

    def gen_common(p):
        p.add_argument("-o", "--output", default="-", help="DIMACS output path (default stdout)")
        p.add_argument("--graph", help="also write the pebbling graph file here")
        p.add_argument(
            "--sat-seed",
            type=int,
            default=None,
            help="emit the satisfiable variant: delete one seeded-uniform clause",
        )

    p = sub.add_parser("gen-grid", help="grid pebbling formula")
    p.add_argument("--layers", type=int, required=True)
    gen_common(p)
    p.set_defaults(fn=cmd_gen_grid)

    p = sub.add_parser("gen-randpeb", help="randomized pebbling formula")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--max-indegree", type=int, default=shape["max_indegree"])
    p.add_argument("--max-label", type=int, default=shape["max_label"])
    p.add_argument("--seed", type=int, default=shape["seed"])
    gen_common(p)
    p.set_defaults(fn=cmd_gen_randpeb)

    p = sub.add_parser("gen-gtn", help="GTn ordering formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument(
        "--sat-seed",
        type=int,
        default=None,
        help="emit the satisfiable variant: delete one seeded successor clause",
    )
    p.set_defaults(fn=cmd_gen_gtn)

    p = sub.add_parser("gen-seq", help="branching sequence from a pebbling graph or GTn size")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="pebbling graph file")
    source.add_argument("--gtn", type=int, help="GTn order instead of a graph")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_gen_seq)

    p = sub.add_parser("solve", help="solve a DIMACS CNF file")
    p.add_argument("cnf")
    p.add_argument("--sequence", help="branching sequence file (.seq)")
    p.add_argument(
        "--learning",
        choices=LEARNING_SCHEMES,
        default="first_uip",
    )
    p.add_argument("--cl-minus-minus", action="store_true", help="allow branching on assigned literals")
    p.add_argument("--conflict-budget", type=int, default=None)
    p.add_argument("--decision-budget", type=int, default=None)
    p.add_argument("--proof", help="write the refutation (UNSAT only) to this file")
    p.add_argument("--dump-graphs", help="write per-conflict graph edge lists to this file")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify-proof", help="check a resolution refutation")
    p.add_argument("cnf")
    p.add_argument("proof")
    p.set_defaults(fn=cmd_verify_proof)

    p = sub.add_parser("pt-extend", help="proof-trace extension of a formula and refutation")
    p.add_argument("cnf")
    p.add_argument("proof")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--seq", help="write the trace branching sequence here")
    p.set_defaults(fn=cmd_pt_extend)

    p = sub.add_parser("res-replay", help="replay a refutation as an extended branching sequence")
    p.add_argument("cnf")
    p.add_argument("proof")
    p.add_argument("--conflict-budget", type=int, default=None)
    p.set_defaults(fn=cmd_res_replay)

    p = sub.add_parser(
        "bench",
        help="run solver configurations over a formula family; emits CSV and markdown",
        description=(
            "CSV columns: " + _bench.CSV_HEADER + ". Config labels: dpll (no "
            "learning), cl_default (first-UIP, default heuristic), cl_sequence "
            "(first-UIP with the generated branching sequence)."
        ),
    )
    p.add_argument("--family", choices=list(_bench.FAMILIES), required=True)
    p.add_argument("--layers", help='grid layer range, e.g. "2..20" or "5,10" (default 2..8)')
    p.add_argument("--nodes", help="randpeb node counts (default 10,20)")
    p.add_argument("--n", help="gtn order range (default 3..8)")
    p.add_argument("--seed", type=int, help=f"randpeb graph seed (default {shape['seed']})")
    p.add_argument("--max-indegree", type=int, help=f"randpeb (default {shape['max_indegree']})")
    p.add_argument("--max-label", type=int, help=f"randpeb (default {shape['max_label']})")
    p.add_argument("--sat-seed", type=int, default=0)
    p.add_argument("--configs", default="dpll,cl_default,cl_sequence")
    p.add_argument("--variants", default="unsat,sat")
    p.add_argument("--conflict-budget", type=int, default=_bench.DEFAULT_CONFLICT_BUDGET)
    p.add_argument("--decision-budget", type=int, default=_bench.DEFAULT_DECISION_BUDGET)
    p.add_argument("--csv", help="write CSV here")
    p.add_argument("--markdown", default="-", help="write the markdown table here (default stdout)")
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
