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
from functools import partial
from typing import Iterable

from .engine import BranchingSequence, SolverConfig, solve
from .formula import CnfFormula
from .generators import (
    PebblingGraph,
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


def _bench_family(
    family: str,
    instances: Iterable[tuple],
    variants: list[str],
    configs: list[str],
    sat_seed: int,
    conflict_budget: int,
    decision_budget: int,
) -> list[BenchRow]:
    """One row per instance, variant and config, in that order. Each instance
    is (params, formula, sequence builder, deletion pool); the builder runs
    only when cl_sequence is among the configs, and the pool (None for every
    clause) is where the satisfiable variant deletes a clause."""
    unknown = [v for v in variants if v not in ("unsat", "sat")]
    if unknown:
        raise ValueError(f"unknown variant {unknown[0]!r}")
    unknown = [c for c in configs if c not in _LEARNING]
    if unknown:
        raise ValueError(f"unknown config label {unknown[0]!r}")
    rows = []
    for params, formula, build_sequence, pool in instances:
        sequence = build_sequence() if "cl_sequence" in configs else None
        for variant in variants:
            f = formula
            if variant == "sat":
                f = make_satisfiable(formula, sat_seed, pool=pool)
            for label in configs:
                rows.append(
                    run_case(
                        family, params, variant, label, f, sequence,
                        conflict_budget, decision_budget,
                    )
                )
    return rows


def _pebbling_instance(params: str, graph: PebblingGraph):
    return params, pebbling_to_cnf(graph), partial(peb_seq_1uip, graph), None


def bench_grid(
    layers: list[int],
    variants: list[str],
    configs: list[str],
    sat_seed: int = 0,
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
    decision_budget: int = DEFAULT_DECISION_BUDGET,
) -> list[BenchRow]:
    instances = (_pebbling_instance(f"layers={L}", gen_grid(L)) for L in layers)
    return _bench_family(
        "grid", instances, variants, configs, sat_seed, conflict_budget, decision_budget
    )


def bench_random_pebbling(
    nodes_list: list[int],
    variants: list[str],
    configs: list[str],
    seed: int = 1,
    max_indegree: int = 5,
    max_label: int = 6,
    sat_seed: int = 0,
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
    decision_budget: int = DEFAULT_DECISION_BUDGET,
) -> list[BenchRow]:
    instances = (
        _pebbling_instance(
            f"nodes={nodes};d={max_indegree};l={max_label};seed={seed}",
            gen_random_pebbling(nodes, max_indegree, max_label, seed),
        )
        for nodes in nodes_list
    )
    return _bench_family(
        "random_pebbling", instances, variants, configs, sat_seed,
        conflict_budget, decision_budget,
    )


def bench_gtn(
    ns: list[int],
    variants: list[str],
    configs: list[str],
    sat_seed: int = 0,
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
    decision_budget: int = DEFAULT_DECISION_BUDGET,
) -> list[BenchRow]:
    instances = (
        (f"n={n}", gen_gtn(n), partial(gtn_seq, n), gtn_successor_indices(n))
        for n in ns
    )
    return _bench_family(
        "gtn", instances, variants, configs, sat_seed, conflict_budget, decision_budget
    )


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
