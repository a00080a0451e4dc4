"""The benchmark's workloads: seeded corpora and the operations run on them.

Every workload is a closed loop over a fixed list of operations, one at a
time. `build(name, clsat, seed, scale, clock)` generates the inputs from the
seed and returns the operations. Each operation runs the program on one
input, checks the output and returns the CPU seconds it spent certifying
the output; a wrong output raises CheckFailed.

Calls into clsat go through its modules (`clsat.proofs.cl_to_res`, never a
name bound at import), so the tracer's wrappers see them.

Each workload is built from two tiers. The fixed tier (grid and GTn
formulas, which the seed does not change) holds most operations and all of
the largest ones. The seeded tier (random pebbling graphs, deletion
variants) holds fewer operations, each smaller than the median one. So the
median and the tail of operation times fall on fixed operations and compare
across seeds, while every seed still varies the inputs. Sizes are set so
that a 35-second run on a 2-core Xeon at 2.1 GHz has well over 200
operations with a verdict, so the tail is the 95th percentile.

Each workload has an odd number of operations, and the middle one by time
is set apart from its neighbours (about 1.4 times slower than the next
faster one, 1.4 times faster than the next slower one). So `op_ms.p50` reads
the median time of that one operation over the run. When several operations
of nearly equal time share the middle, p50 lands instead on the low edge of
their pooled times, which moves with every short slowdown of the machine
(on unguided with five such operations, p50 spread about 1.5 times as wide
across seeds as the pass time).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import process_time
from typing import Callable


class CheckFailed(Exception):
    """The program's output for one operation is wrong."""


def expect(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    kind: str
    name: str
    run: Callable[[], float]  # checks the output, returns certification seconds


class SolveClock:
    """Times every `Solver.solve` call (CPU seconds) and keeps its result, so
    operations that solve inside a library call (`bench.run_case`, the
    replay) still report their verdict time and search counters."""

    def __init__(self, engine):
        self._solver = engine.Solver
        self._original = None
        self.solves: list[tuple[float, object]] = []

    def install(self) -> None:
        original = self._original = self._solver.__dict__["solve"]
        solves = self.solves

        def solve(solver):
            t0 = process_time()
            result = original(solver)
            solves.append((process_time() - t0, result))
            return result

        self._solver.solve = solve

    def uninstall(self) -> None:
        if self._original is not None:
            self._solver.solve = self._original
            self._original = None


# Sizes per workload and scale. "full" is what BENCHMARK.json runs; "smoke"
# is for the benchmark's own tests.
SIZES = {
    "guided": {
        "full": {
            "grids": (10, 11, 12, 13, 14, 15, 16, 18),
            "gtn": (8, 9, 10, 11, 12),
            # (nodes, max indegree, max label size), one graph each
            "randpeb": ((16, 3, 3), (16, 3, 3), (16, 3, 3)),
            # one successor-deletion variant each
            "gtn_sat": (7, 8),
        },
        "smoke": {
            "grids": (3, 5),
            "gtn": (4,),
            "randpeb": ((8, 3, 2),),
            "gtn_sat": (4,),
        },
    },
    "unguided": {
        "full": {
            # (layers, decision budget, source-deletion variants)
            "dpll": ((5, 15_000, 0), (6, 15_000, 0), (7, 15_000, 0), (8, 15_000, 1)),
            # (layers, conflict budget, source-deletion variants)
            "cl_default": ((16, 50, 0), (24, 50, 0), (32, 50, 1), (40, 80, 1), (48, 30, 1)),
        },
        "smoke": {
            "dpll": ((4, 200, 1),),
            "cl_default": ((6, 10, 1),),
        },
    },
    "proof_replay": {
        "full": {
            "grids": (5, 7, 8, 9, 10, 11),
            "randpeb": ((8, 2, 2),),
        },
        "smoke": {
            "grids": (3,),
            "randpeb": ((5, 2, 2),),
        },
    },
}

WORKLOADS = tuple(SIZES)
NO_BUDGET = 10**9


def search_counters(clock: SolveClock) -> tuple:
    return tuple(
        (
            r.status,
            r.stats.decisions,
            r.stats.conflicts,
            r.stats.propagations,
            r.stats.learned_clauses,
            r.stats.fallback_decisions,
            r.stats.restarts,
        )
        for _, r in clock.solves
    )


# ------------------------------------------------------------------ guided


def _certify_records(c, formula, records) -> None:
    """Every learned clause: its derivation is trivial and yields it, and it
    follows from the formula and the earlier learned clauses by unit
    propagation."""
    expect(records is not None, "no learned-clause log")
    fset = formula.clause_set()
    rup = c.proofs.UnitPropagationChecker(formula.num_vars)
    for cl in formula.clauses:
        rup.add_clause(list(cl.literals))
    for rec in records:
        expect(rec.derivation.result == rec.clause, "derivation does not yield its clause")
        expect(
            c.proofs.check_trivial(c.proofs.derivation_to_proof(rec.derivation)),
            "derivation is not trivial",
        )
        if rec.clause and rec.clause not in fset:
            expect(rup.conflicts_when_all_false(rec.clause), "learned clause fails RUP")
        if rec.scheme != "final":
            rup.add_clause(list(rec.clause))


def _certify_refutation(c, formula, records) -> None:
    proof = c.proofs.cl_to_res(records, formula)
    expect(c.proofs.check_res_refutation(proof), "refutation does not check")


def _guided_op(c, kind, name, formula, sequence, satisfiable) -> Op:
    config = c.engine.SolverConfig(learning="first_uip", sequence=sequence)

    def run() -> float:
        result = c.engine.Solver(formula, config).solve()
        t0 = process_time()
        want = "SAT" if satisfiable else "UNSAT"
        expect(result.status == want, f"{name}: {result.status}, expected {want}")
        _certify_records(c, formula, result.records)
        if satisfiable:
            expect(c.formula.satisfies(formula, result.model), f"{name}: model fails")
        else:
            _certify_refutation(c, formula, result.records)
        return process_time() - t0

    return Op(kind, name, run)


def build_guided(c, seed: int, sizes: dict, clock: SolveClock) -> list[Op]:
    rng = random.Random(seed)
    gen, seqgen = c.generators, c.seqgen
    ops = []
    for layers in sizes["grids"]:
        graph = gen.gen_grid(layers)
        f = gen.pebbling_to_cnf(graph)
        ops.append(_guided_op(c, "grid", f"grid{layers}", f, seqgen.peb_seq_1uip(graph), False))
    for n in sizes["gtn"]:
        ops.append(_guided_op(c, "gtn", f"gt{n}", gen.gen_gtn(n), seqgen.gtn_seq(n), False))
    for nodes, indegree, label in sizes["randpeb"]:
        gseed = rng.randrange(1 << 30)
        graph = gen.gen_random_pebbling(nodes, indegree, label, gseed)
        f = gen.pebbling_to_cnf(graph)
        seq = seqgen.peb_seq_1uip(graph)
        name = f"peb{nodes}d{indegree}l{label}s{gseed}"
        ops.append(_guided_op(c, "randpeb", name, f, seq, False))
        # by design some of these need fallback decisions (criterion 3)
        fs = gen.make_satisfiable(f, rng.randrange(1 << 30))
        ops.append(_guided_op(c, "randpeb", name + "^sat", fs, seq, True))
    for n in sizes["gtn_sat"]:
        fs = gen.make_satisfiable(gen.gen_gtn(n), rng.randrange(1 << 30), pool=gen.gtn_successor_indices(n))
        ops.append(_guided_op(c, "gtn", f"gt{n}^sat", fs, seqgen.gtn_seq(n), True))
    return ops


# ---------------------------------------------------------------- unguided


def _unguided_op(c, label, layers, variant, formula, conflict_budget, decision_budget, clock):
    name = f"{label}:grid{layers}{variant}"
    satisfiable = variant != ""

    def run() -> float:
        row = c.bench.run_case(
            "grid", f"layers={layers}", "sat" if satisfiable else "unsat", label,
            formula, None, conflict_budget, decision_budget,
        )
        t0 = process_time()
        expect(len(clock.solves) == 1, f"{name}: {len(clock.solves)} solves")
        result = clock.solves[0][1]
        s = result.stats
        expect(
            (row.outcome, row.decisions, row.conflicts, row.learned, row.fallback)
            == (result.status, s.decisions, s.conflicts, s.learned_clauses, s.fallback_decisions),
            f"{name}: bench row disagrees with the solver",
        )
        if row.outcome == "SAT":
            expect(satisfiable, f"{name}: SAT on an unsatisfiable formula")
            expect(c.formula.satisfies(formula, result.model), f"{name}: model fails")
        elif row.outcome == "UNSAT":
            expect(not satisfiable, f"{name}: UNSAT on a satisfiable formula")
        else:
            expect(row.outcome == "BUDGET_EXCEEDED", f"{name}: outcome {row.outcome}")
            expect(
                row.decisions >= decision_budget or row.conflicts > conflict_budget,
                f"{name}: budget exceeded below the budget",
            )
        return process_time() - t0

    return Op(label, name, run)


def build_unguided(c, seed: int, sizes: dict, clock: SolveClock) -> list[Op]:
    """Unsatisfiable grids under fixed budgets, plus source-deletion
    variants: deleting a source axiom leaves a formula both configurations
    decide SAT within budget, so every pass checks the same number of models.
    (A deletion deeper in the formula flips DPLL between a quick model and
    the budget, so pass time would follow the seed, not the code.)"""
    rng = random.Random(seed)
    gen = c.generators
    ops = []
    for label, plans in (("dpll", sizes["dpll"]), ("cl_default", sizes["cl_default"])):
        for layers, budget, variants in plans:
            cb, db = (NO_BUDGET, budget) if label == "dpll" else (budget, NO_BUDGET)
            graph = gen.gen_grid(layers)
            f = gen.pebbling_to_cnf(graph)
            ops.append(_unguided_op(c, label, layers, "", f, cb, db, clock))
            sources = range(len(graph.sources()))  # source clauses come first
            for _ in range(variants):
                drop = rng.choice(sources)
                fs = gen.make_satisfiable(f, 0, pool=[drop])
                ops.append(_unguided_op(c, label, layers, f"^sat{drop}", fs, cb, db, clock))
    return ops


# ------------------------------------------------------------ proof_replay


def _support(c, formula, proof) -> list[tuple[int, ...]]:
    """The clauses a replay learns: the segments of the extended sequence."""
    out, cur = [], []
    for e in c.proofs.res_to_clmm_sequence(formula, proof).entries:
        if e is c.engine.RESTART:
            out.append(tuple(cur))
            cur = []
        else:
            cur.append(e)
    return out


def _replayable(c, formula, proof) -> bool:
    """The extended-sequence construction presumes that no strict subclause
    of a support clause already follows by unit propagation from the formula
    and the support clauses before it (the precondition acceptance
    criterion 8 states for its corpus)."""
    chk = c.proofs.UnitPropagationChecker(formula.num_vars)
    for cl in formula.clauses:
        chk.add_clause(list(cl.literals))
    for clause in _support(c, formula, proof):
        for drop in range(len(clause)):
            if chk.conflicts_when_all_false(clause[:drop] + clause[drop + 1 :]):
                return False
        chk.add_clause(list(clause))
    return True


def _refutation(c, graph):
    f = c.generators.pebbling_to_cnf(graph)
    seq = c.seqgen.peb_seq_1uip(graph)
    result = c.engine.Solver(f, c.engine.SolverConfig(learning="first_uip", sequence=seq)).solve()
    expect(result.is_unsat, "source formula not refuted")
    return f, c.proofs.cl_to_res(result.records, f)


def _replay_ops(c, name, formula, proof) -> list[Op]:
    dimacs = c.formula.write_dimacs(formula)
    text = c.proofs.write_proof(proof)
    size = proof.size

    def parse():
        f = c.formula.parse_dimacs(dimacs)
        p = c.proofs.parse_proof(text, f)
        expect(p.size == size, f"{name}: parsed {p.size} steps, wrote {size}")
        return f, p

    def verify() -> float:
        _, p = parse()
        t0 = process_time()
        expect(c.proofs.check_res_refutation(p), f"{name}: refutation does not check")
        return process_time() - t0

    def pt_extend() -> float:
        f, p = parse()
        extended, seq = c.proofs.proof_trace_extension(f, p)
        config = c.engine.SolverConfig(learning="first_new_cut", sequence=seq)
        result = c.engine.Solver(extended, config).solve()
        t0 = process_time()
        expect(result.is_unsat, f"{name}: trace extension not refuted")
        expect(result.stats.decisions < size, f"{name}: decisions >= proof size")
        expect(result.stats.fallback_decisions == 0, f"{name}: fallback decisions")
        _certify_refutation(c, extended, result.records)
        return process_time() - t0

    def res_replay() -> float:
        f, p = parse()
        report = c.proofs.replay_extended_sequence(f, p)
        t0 = process_time()
        expect(report.result.is_unsat, f"{name}: replay not refuted")
        expect(report.learned == report.support, f"{name}: learned != support")
        expect(report.restarts_used <= len(report.support), f"{name}: too many restarts")
        _certify_refutation(c, f, report.result.records)
        return process_time() - t0

    return [
        Op("verify", f"verify:{name}", verify),
        Op("pt_extend", f"pt_extend:{name}", pt_extend),
        Op("res_replay", f"res_replay:{name}", res_replay),
    ]


def build_proof_replay(c, seed: int, sizes: dict, clock: SolveClock) -> list[Op]:
    rng = random.Random(seed)
    gen = c.generators
    sources = []
    for layers in sizes["grids"]:
        f, proof = _refutation(c, gen.gen_grid(layers))
        expect(_replayable(c, f, proof), f"grid{layers} is not replayable")
        sources.append((f"grid{layers}", f, proof))
    for nodes, indegree, label in sizes["randpeb"]:
        for _ in range(100):
            gseed = rng.randrange(1 << 30)
            f, proof = _refutation(c, gen.gen_random_pebbling(nodes, indegree, label, gseed))
            if _replayable(c, f, proof):
                sources.append((f"peb{nodes}d{indegree}l{label}s{gseed}", f, proof))
                break
        else:
            raise CheckFailed(f"no replayable random pebbling graph of {nodes} nodes")
    ops = []
    for name, f, proof in sources:
        ops.extend(_replay_ops(c, name, f, proof))
    return ops


BUILDERS = {
    "guided": build_guided,
    "unguided": build_unguided,
    "proof_replay": build_proof_replay,
}


def build(name: str, c, seed: int, scale: str, clock: SolveClock) -> list[Op]:
    return BUILDERS[name](c, seed, SIZES[name][scale], clock)
