"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Shared solve corpora are
built once per session and reused across criteria.
"""

from __future__ import annotations

import time
from itertools import combinations, product

import pytest

from clsat import (
    CnfFormula,
    PebblingGraph,
    PebNode,
    SolverConfig,
    UnitPropagationChecker,
    check_res_refutation,
    check_trivial,
    cl_to_res,
    gen_grid,
    gen_gtn,
    gen_random_pebbling,
    gtn_seq,
    gtn_successor_indices,
    make_satisfiable,
    peb_seq_1uip,
    pebbling_to_cnf,
    proof_trace_extension,
    replay_extended_sequence,
    solve,
)
from clsat.proofs import derivation_to_proof
from conftest import brute_force_satisfiable, random_3cnf

# random pebbling corpus for criterion 3: 25 seeded graphs within the stated
# bounds (nodes <= 200, indegree <= 5, label size <= 6)
RANDPEB_CASES = [
    (8, 1), (10, 2), (12, 3), (14, 4), (16, 5), (18, 6), (20, 7), (22, 8),
    (25, 9), (28, 10), (32, 11), (36, 12), (40, 13), (45, 14), (50, 15),
    (55, 16), (60, 17), (70, 18), (80, 19), (90, 20), (100, 21), (120, 28),
    (140, 28), (170, 28), (200, 28),
]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def _guided(formula, sequence, **kw):
    return solve(
        formula, SolverConfig(learning="first_uip", sequence=sequence, **kw)
    )


@pytest.fixture(scope="session")
def grid_runs():
    """Guided solves of grid formulas L=2..30, unsatisfiable and satisfiable."""
    t0 = time.perf_counter()
    runs = []
    for L in range(2, 31):
        g = gen_grid(L)
        f = pebbling_to_cnf(g)
        seq = peb_seq_1uip(g)
        runs.append((f"grid{L}", f, seq, _guided(f, seq)))
        fs = make_satisfiable(f, seed=L)
        runs.append((f"grid{L}^sat", fs, seq, _guided(fs, seq)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def randpeb_runs():
    t0 = time.perf_counter()
    runs = []
    for nodes, seed in RANDPEB_CASES:
        g = gen_random_pebbling(nodes, 5, 6, seed)
        f = pebbling_to_cnf(g)
        seq = peb_seq_1uip(g)
        runs.append((f"peb{nodes}s{seed}", f, seq, _guided(f, seq)))
        fs = make_satisfiable(f, seed=seed)
        runs.append((f"peb{nodes}s{seed}^sat", fs, seq, _guided(fs, seq)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def grid100_run():
    g = gen_grid(100)
    f = pebbling_to_cnf(g)
    seq = peb_seq_1uip(g)
    return f, seq, _guided(f, seq, decision_budget=10**5)


@pytest.fixture(scope="session")
def cnf3_runs():
    """50 seeded random 3-CNF instances on at most 30 variables."""
    runs = []
    seed = 0
    while len(runs) < 50:
        seed += 1
        n = 12 + (seed % 19)  # 12..30 variables
        f = random_3cnf(n, int(4.3 * n), seed=1000 + seed)
        runs.append((f"cnf{seed}", f, None, solve(f, SolverConfig(learning="first_uip"))))
    return runs


def _satisfies_replay_preprocessing(f, proof) -> bool:
    """The extended-sequence construction presumes no supported clause has a
    derivable strict subclause; operationally, no strict subclause of a
    support clause may already follow by unit propagation from the formula
    and the support clauses before it."""
    from clsat.proofs import _replay_support

    support = _replay_support(f, proof)
    chk = UnitPropagationChecker(f.num_vars)
    for c in f.clauses:
        chk.add_clause(list(c.literals))
    for c in support:
        for drop in range(len(c)):
            if chk.conflicts_when_all_false(c[:drop] + c[drop + 1 :]):
                return False
        chk.add_clause(list(c))
    return True


@pytest.fixture(scope="session")
def small_refutations():
    """>= 20 small refutations assembled from guided solves on formulas with
    at most 25 variables (grids, ordering formulas, random pebbling), kept
    only when they satisfy the replay construction's preprocessing
    assumption (see _satisfies_replay_preprocessing)."""
    corpus = []

    def add(name, f, seq):
        r = solve(f, SolverConfig(learning="first_uip", sequence=seq))
        assert r.is_unsat, name
        proof = cl_to_res(r.records, f)
        if _satisfies_replay_preprocessing(f, proof):
            corpus.append((name, f, proof))

    add("grid2", pebbling_to_cnf(gen_grid(2)), peb_seq_1uip(gen_grid(2)))
    add("grid3", pebbling_to_cnf(gen_grid(3)), peb_seq_1uip(gen_grid(3)))
    add("gt3", gen_gtn(3), None)
    add("gt4", gen_gtn(4), None)
    for seed in range(1, 40):
        if len(corpus) >= 24:
            break
        for nodes, d, l in ((4, 2, 2), (5, 2, 2), (6, 2, 1), (5, 3, 2)):
            g = gen_random_pebbling(nodes, d, l, seed)
            f = pebbling_to_cnf(g)
            if f.num_vars <= 25:
                add(f"peb{nodes}d{d}l{l}s{seed}", f, peb_seq_1uip(g))
                break
    assert len(corpus) >= 20
    for _, f, _p in corpus:
        assert f.num_vars <= 25
    return corpus


def test_criterion_1_formula_sizes():
    import gc

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        grid_expect = {5: 30, 20: 420, 100: 10_100, 1000: 1_001_000}
        for L, want in grid_expect.items():
            assert gen_grid(L).num_label_vars() == want, f"grid {L}"
        gtn_expect = {8: 372, 10: 775, 15: 2850, 18: 5067, 27: 17_928, 45: 86_175}
        for n, want in gtn_expect.items():
            assert gen_gtn(n).size == want, f"gtn {n}"
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    _report(1, True, f"grid variables and gtn clause counts exact ({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_criterion_2_golden_sequences():
    t0 = time.perf_counter()
    got_grid = peb_seq_1uip(gen_grid(4)).entries
    assert got_grid == (15, 16, 9, 10, 1, 3, 11, 12, 5)
    assert len(got_grid) == 9
    fig4 = PebblingGraph(
        (
            PebNode(1, (1, 2), ()),
            PebNode(2, (3, 4), ()),
            PebNode(3, (5, 6), ()),
            PebNode(4, (7, 8), ()),
            PebNode(5, (9,), (1, 4)),
            PebNode(6, (10, 11, 12), (2, 3)),
            PebNode(7, (13,), (2, 4, 6)),
            PebNode(8, (14, 15), (5, 7)),
        ),
        8,
    )
    got_fig4 = peb_seq_1uip(fig4).entries
    assert got_fig4 == (9, 1, 13, 10, 11, 12, 3, 3, 10, 3, 3)
    assert len(got_fig4) == 11
    elapsed = time.perf_counter() - t0
    _report(2, True, f"both published sequences literal-for-literal ({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_criterion_3_completeness(grid_runs, randpeb_runs):
    runs = grid_runs[0] + randpeb_runs[0]
    elapsed = grid_runs[1] + randpeb_runs[1]
    failures = []
    for name, f, seq, r in runs:
        ok = (
            r.status in ("SAT", "UNSAT")
            and r.stats.fallback_decisions == 0
            and r.stats.decisions <= len(seq)
        )
        if not ok:
            failures.append(
                f"{name}: {r.status} fallback={r.stats.fallback_decisions}"
                f" decisions={r.stats.decisions}/|σ|={len(seq)}"
            )
    unsat_fail = [m for m in failures if "^sat" not in m.split(":")[0]]
    _report(
        3,
        not failures,
        f"{len(runs) - len(failures)}/{len(runs)} runs complete;"
        f" unsat-side failures: {len(unsat_fail)};"
        f" sat-side failures: {len(failures) - len(unsat_fail)} ({elapsed:.1f}s)",
    )
    assert elapsed < 60.0
    assert not unsat_fail, unsat_fail
    # The satisfiable-variant half restates the published completeness claim
    # for deletion variants; see the decisions ledger for why it cannot hold
    # under faithful branching-sequence semantics.
    assert not failures, f"{len(failures)} satisfiable variants needed fallback"


def test_criterion_4_separation_proxy(grid100_run):
    t0 = time.perf_counter()
    f8 = pebbling_to_cnf(gen_grid(8))
    dpll = solve(
        f8,
        SolverConfig(learning="none", decision_budget=10**6, log_proof=False),
    )
    assert dpll.status == "BUDGET_EXCEEDED", dpll.status
    f, seq, guided = grid100_run
    assert guided.is_unsat
    assert guided.stats.decisions <= 10**5
    assert guided.stats.fallback_decisions == 0
    elapsed = time.perf_counter() - t0
    _report(
        4,
        True,
        f"dpll exceeds 1e6 decisions on the 8-layer grid; guided solve refutes"
        f" the 100-layer grid in {guided.stats.decisions} decisions ({elapsed:.1f}s)",
    )
    assert elapsed < 120.0


def _check_learned_records(runs, budget, already=0.0):
    checked = 0
    for name, f, _seq, r in runs:
        if r.records is None:
            continue
        fset = f.clause_set()
        rup = UnitPropagationChecker(f.num_vars)
        for c in f.clauses:
            rup.add_clause(list(c.literals))
        for rec in r.records:
            assert rec.derivation.result == rec.clause, name
            assert check_trivial(derivation_to_proof(rec.derivation)), name
            if rec.clause and rec.clause not in fset:
                assert rup.conflicts_when_all_false(rec.clause), (name, rec.clause)
            if rec.scheme != "final":
                rup.add_clause(list(rec.clause))
            checked += 1
    return checked


def test_criterion_5_trivial_derivation_soundness(
    grid_runs, randpeb_runs, grid100_run, cnf3_runs
):
    t0 = time.perf_counter()
    total = 0
    total += _check_learned_records(grid_runs[0], None)
    total += _check_learned_records(randpeb_runs[0], None)
    total += _check_learned_records([("grid100", grid100_run[0], None, grid100_run[2])], None)
    total += _check_learned_records(cnf3_runs, None)
    elapsed = time.perf_counter() - t0
    _report(
        5,
        True,
        f"{total} learned clauses certified (trivial derivation + propagation"
        f" round-trip) ({elapsed:.1f}s)",
    )
    assert total > 10_000
    assert elapsed < 120.0


def test_criterion_6_conversion_bound(grid_runs, randpeb_runs, cnf3_runs):
    t0 = time.perf_counter()
    converted = 0
    for name, f, _seq, r in grid_runs[0] + randpeb_runs[0] + cnf3_runs:
        if not r.is_unsat or r.records is None:
            continue
        proof = cl_to_res(r.records, f)
        assert check_res_refutation(proof), name
        learned = sum(1 for rec in r.records if rec.scheme != "final")
        assert proof.derived_count() <= f.num_vars * (learned + 1), name
        converted += 1
    elapsed = time.perf_counter() - t0
    _report(
        6,
        True,
        f"{converted} refutations verify within num_vars*(learned+1) steps"
        f" ({elapsed:.1f}s)",
    )
    assert converted >= 30


def test_criterion_7_trace_extension(small_refutations):
    t0 = time.perf_counter()
    for name, f, proof in small_refutations:
        extended, seq = proof_trace_extension(f, proof)
        r = solve(extended, SolverConfig(learning="first_new_cut", sequence=seq))
        assert r.is_unsat, name
        assert r.stats.decisions < proof.size, (
            name, r.stats.decisions, proof.size,
        )
        assert r.stats.fallback_decisions == 0, name
    elapsed = time.perf_counter() - t0
    _report(
        7,
        True,
        f"{len(small_refutations)} trace extensions refuted in < size(proof)"
        f" decisions with no fallback ({elapsed:.1f}s)",
    )
    assert elapsed < 60.0


def test_criterion_8_extended_replay(small_refutations):
    t0 = time.perf_counter()
    for name, f, proof in small_refutations:
        report = replay_extended_sequence(f, proof)
        assert report.result.is_unsat, name
        assert report.learned == report.support, (
            name, report.learned, report.support,
        )
        assert report.restarts_used <= len(report.support), name
    elapsed = time.perf_counter() - t0
    _report(
        8,
        True,
        f"{len(small_refutations)} replays learned their support in order"
        f" within the restart bound ({elapsed:.1f}s)",
    )
    assert elapsed < 60.0


def test_criterion_9_gtn_desk_scale():
    t0 = time.perf_counter()
    r18 = solve(
        gen_gtn(18),
        SolverConfig(
            learning="first_uip",
            sequence=gtn_seq(18),
            conflict_budget=10**6,
            log_proof=False,
        ),
    )
    assert r18.is_unsat, r18.status
    for n in range(10, 28):
        fs = make_satisfiable(gen_gtn(n), seed=n, pool=gtn_successor_indices(n))
        rs = solve(
            fs,
            SolverConfig(
                learning="first_uip",
                sequence=gtn_seq(n),
                conflict_budget=10**6,
                log_proof=False,
            ),
        )
        assert rs.is_sat, (n, rs.status)
    assert brute_force_satisfiable(gen_gtn(3)) is False
    assert brute_force_satisfiable(gen_gtn(4)) is False
    elapsed = time.perf_counter() - t0
    _report(
        9,
        True,
        f"gt18 refuted in {r18.stats.conflicts} conflicts; satisfiable variants"
        f" n=10..27 solved; gt3/gt4 cross-checked exhaustively ({elapsed:.1f}s)",
    )
    assert elapsed < 300.0


def _small_graphs():
    """Finite family of single-target pebbling graphs with small encodings:
    all graphs on <= 4 nodes with label sizes 1..2, all unit-label graphs on
    <= 6 nodes, and single-node graphs with label sizes <= 11."""
    seen = set()

    def emit(label_sizes, preds_choices):
        var = 1
        nodes = []
        for i, (k, preds) in enumerate(zip(label_sizes, preds_choices), start=1):
            nodes.append(PebNode(i, tuple(range(var, var + k)), preds))
            var += k
        g = PebblingGraph(tuple(nodes), len(nodes))
        interior = {p for n in nodes for p in n.preds}
        sinks = {n.id for n in nodes} - interior
        if sinks != {len(nodes)}:
            return None
        key = (label_sizes, preds_choices)
        if key in seen:
            return None
        seen.add(key)
        return g

    def pred_space(count):
        return [
            [
                tuple(c)
                for r in range(i + 1)
                for c in combinations(range(1, i + 1), r)
            ]
            for i in range(count)
        ]

    out = []
    for count in (1, 2, 3, 4):
        for label_sizes in product((1, 2), repeat=count):
            for preds_choices in product(*pred_space(count)):
                g = emit(label_sizes, preds_choices)
                if g is not None:
                    out.append(g)
    for count in (5, 6):
        for preds_choices in product(*pred_space(count)):
            g = emit((1,) * count, preds_choices)
            if g is not None:
                out.append(g)
    for k in range(1, 12):
        g = emit((k,), ((),))
        if g is not None:
            out.append(g)
    return out


def test_criterion_10_minimal_unsatisfiability():
    t0 = time.perf_counter()
    graphs = 0
    deletions = 0
    for g in _small_graphs():
        f = pebbling_to_cnf(g)
        if f.size > 12:
            continue
        assert not brute_force_satisfiable(f), g
        graphs += 1
        for drop in range(f.size):
            sub = CnfFormula(
                f.num_vars, [c for i, c in enumerate(f.clauses) if i != drop]
            )
            assert brute_force_satisfiable(sub), (g, drop)
            deletions += 1
    elapsed = time.perf_counter() - t0
    _report(
        10,
        True,
        f"{graphs} graphs, {deletions} single-clause deletions all satisfiable"
        f" ({elapsed:.1f}s)",
    )
    assert graphs >= 100
    assert elapsed < 10.0
