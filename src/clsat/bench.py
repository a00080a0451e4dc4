"""Benchmark harness: run solver configurations over formula families and
emit per-run rows as CSV and a markdown table.

Config labels map to solver settings as: dpll = no learning, default
heuristic; cl_default = first-UIP learning, default heuristic; cl_sequence =
first-UIP learning guided by the generated branching sequence. Rows are
emitted in construction order (family parameters, then variant, then config),
so output is deterministic apart from the wall-time column.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass

from .engine import BranchingSequence, SolverConfig, solve
from .formula import CnfFormula
from .generators import (
    RANDPEB_DEFAULTS,
    gen_grid,
    gen_gtn,
    gen_random_pebbling,
    gtn_successor_indices,
    make_satisfiable,
    pebbling_to_cnf,
)
from .seqgen import gtn_seq, peb_seq_1uip

CSV_HEADER = "family,params,variant,config,outcome,decisions,conflicts,learned,fallback,restarts,time_ms"

DEFAULT_CONFLICT_BUDGET = 10**6
DEFAULT_DECISION_BUDGET = 10**7


@dataclass(frozen=True)
class BenchRow:
    family: str
    params: str
    variant: str
    config: str
    outcome: str
    decisions: int
    conflicts: int
    learned: int
    fallback: int
    restarts: int
    time_ms: float

    def csv(self) -> str:
        *fields, time_ms = astuple(self)
        return ",".join(str(x) for x in fields) + f",{time_ms:.1f}"


# learning scheme per config label; cl_sequence also branches on the
# generated sequence
_LEARNING = {"dpll": "none", "cl_default": "first_uip", "cl_sequence": "first_uip"}


def run_case(
    family: str,
    params: str,
    variant: str,
    label: str,
    formula: CnfFormula,
    sequence: BranchingSequence | None,
    conflict_budget: int,
    decision_budget: int,
) -> BenchRow:
    if label not in _LEARNING:
        raise ValueError(f"unknown config label {label!r}")
    if label == "cl_sequence" and sequence is None:
        raise ValueError("cl_sequence needs a generated branching sequence")
    cfg = SolverConfig(
        learning=_LEARNING[label],
        sequence=sequence if label == "cl_sequence" else None,
        conflict_budget=conflict_budget,
        decision_budget=decision_budget,
        log_proof=False,
    )
    t0 = time.perf_counter()
    result = solve(formula, cfg)
    ms = (time.perf_counter() - t0) * 1000.0
    s = result.stats
    return BenchRow(
        family=family,
        params=params,
        variant=variant,
        config=label,
        outcome=result.status,
        decisions=s.decisions,
        conflicts=s.conflicts,
        learned=s.learned_clauses,
        fallback=s.fallback_decisions,
        restarts=s.restarts,
        time_ms=ms,
    )


# row name of each family, as the CLI names it
FAMILIES = {"grid": "grid", "randpeb": "random_pebbling", "gtn": "gtn"}


def bench(
    family: str,
    sizes: list[int],
    variants: list[str],
    configs: list[str],
    sat_seed: int = 0,
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
    decision_budget: int = DEFAULT_DECISION_BUDGET,
    seed: int | None = None,
    max_indegree: int | None = None,
    max_label: int | None = None,
) -> list[BenchRow]:
    """One row per size, variant and config, in that order, for one family:
    grid layer counts, randpeb node counts (graphs shaped by seed,
    max_indegree and max_label, default RANDPEB_DEFAULTS) or gtn orders.
    Raises ValueError before any instance is built on an unknown family,
    variant or config label, on a graph-shape argument given for another
    family and on a negative budget."""
    for kind, names, known in (
        ("family", [family], FAMILIES),
        ("variant", variants, ("unsat", "sat")),
        ("config label", configs, _LEARNING),
    ):
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown {kind} {unknown[0]!r}")
    for name, value in (("seed", seed), ("max_indegree", max_indegree), ("max_label", max_label)):
        if value is not None and family != "randpeb":
            raise ValueError(f"{name} applies only to family randpeb")
    # a negative budget raises here, with the solver's own message
    SolverConfig(conflict_budget=conflict_budget, decision_budget=decision_budget)
    seed = RANDPEB_DEFAULTS["seed"] if seed is None else seed
    max_indegree = RANDPEB_DEFAULTS["max_indegree"] if max_indegree is None else max_indegree
    max_label = RANDPEB_DEFAULTS["max_label"] if max_label is None else max_label
    guided = "cl_sequence" in configs
    rows = []
    for size in sizes:
        if family == "gtn":
            params, formula, pool = f"n={size}", gen_gtn(size), gtn_successor_indices(size)
            sequence = gtn_seq(size) if guided else None
        else:
            if family == "grid":
                params, graph = f"layers={size}", gen_grid(size)
            else:
                params = f"nodes={size};d={max_indegree};l={max_label};seed={seed}"
                graph = gen_random_pebbling(size, max_indegree, max_label, seed)
            formula, pool = pebbling_to_cnf(graph), None
            sequence = peb_seq_1uip(graph) if guided else None
        for variant in variants:
            f = formula
            if variant == "sat":
                f = make_satisfiable(formula, sat_seed, pool=pool)
            for label in configs:
                rows.append(
                    run_case(
                        FAMILIES[family], params, variant, label, f, sequence,
                        conflict_budget, decision_budget,
                    )
                )
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


def rows_to_markdown(rows: list[BenchRow]) -> str:
    cols = CSV_HEADER.split(",")
    lines = [
        "| " + " | ".join(cols) + " |",
        "| " + " | ".join("---" for _ in cols) + " |",
    ]
    for r in rows:
        lines.append("| " + " | ".join(r.csv().split(",")) + " |")
    return "\n".join(lines) + "\n"
