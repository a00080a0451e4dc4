import itertools
import math
from dataclasses import fields

import pytest

from clsat import (
    BranchingSequence,
    CnfFormula,
    SolverConfig,
    canonical_literals,
    gen_grid,
    gen_gtn,
    gen_random_pebbling,
    gtn_seq,
    peb_seq_1uip,
    pebbling_to_cnf,
    solve,
)
from clsat import conflict
from clsat.conflict import (
    ConflictGraph,
    build_conflict_graph,
    cut_is_valid,
    cut_to_clause,
    extract_trivial_derivation,
    first_uip_cut,
    frontier,
    minimize_cut,
    scheme_decision,
    scheme_first_new_cut,
    scheme_first_uip,
    scheme_relsat,
)
from clsat.proofs import check_trivial, derivation_to_proof
from conftest import random_3cnf, random_sequence


def pqr_graph():
    """Known {(-p q), (-p r), (-q -r)}, decision p; p,q,r = 1,2,3."""
    f = CnfFormula(3, [(-1, 2), (-1, 3), (-2, -3)])
    sink = []
    cfg = SolverConfig(
        learning="first_uip", sequence=BranchingSequence((-1,)), graph_sink=sink.append
    )
    solve(f, cfg)
    return sink[0], f


def test_pqr_graph_shape():
    g, _ = pqr_graph()
    assert abs(g.conflict_literals[1]) == 3
    assert {n for n in g.nodes if g.antecedents[n] is None} == {1}
    assert g.preds(2) == (1,)
    assert g.preds(3) == (1,)
    assert g.preds(-3) == (2,)  # the falsified-clause node
    assert set(g.conflict_literals) == {3, -3}


def test_pqr_schemes():
    g, f = pqr_graph()
    assert cut_to_clause(g, scheme_first_uip(g)) == (-1,)
    assert cut_to_clause(g, scheme_decision(g)) == (-1,)
    relsat = scheme_relsat(g)
    assert relsat == frozenset({2, 3, -3})
    assert cut_to_clause(g, relsat) == (-1,)
    cut, redundant = scheme_first_new_cut(g, f.clause_set())
    assert not redundant
    assert cut_to_clause(g, cut) == (-1,)
    for c in (scheme_first_uip(g), scheme_decision(g), relsat, cut):
        assert cut_is_valid(g, c)


def test_pqr_minimize_example():
    g, _ = pqr_graph()
    # conflict side {-r, q}: frontier {p, r}; r's only predecessor is p
    cut = frozenset({-3, 2})
    assert frontier(g, cut) == {1, 3}
    assert cut_to_clause(g, cut) == (-1, -3)
    minimized, _ = minimize_cut(g, cut)
    assert cut_to_clause(g, minimized) == (-1,)
    # already-minimal cut unchanged
    dec = scheme_decision(g)
    assert minimize_cut(g, dec) == (dec, (-1,))


def test_pqr_decision_cut_derivation():
    g, _ = pqr_graph()
    cut = scheme_decision(g)
    d = extract_trivial_derivation(g, cut, cut_to_clause(g, cut))
    assert d.base == (-2, -3)
    assert d.steps == (((-1, 3), 3), ((-1, 2), 2))
    assert d.result == (-1,)
    assert check_trivial(derivation_to_proof(d))
    # the result is checked against the clause the caller passes in
    mismatch = r"yields \(-1,\) but the cut's clause is \(1,\)"
    with pytest.raises(AssertionError, match=mismatch):
        extract_trivial_derivation(g, cut, (1,))


def test_cut_to_clause_single_frontier():
    g, _ = pqr_graph()
    # conflict side = everything implied: frontier is the decision alone
    cut = scheme_decision(g)
    assert frontier(g, cut) == {1}


def test_cut_validity_negative_cases():
    g, _ = pqr_graph()
    assert not cut_is_valid(g, frozenset({1}))  # decision on conflict side
    assert not cut_is_valid(g, frozenset({2}))  # no conflict literal
    assert not cut_is_valid(g, frozenset({99}))  # unknown node


def two_layer_conflict():
    f = pebbling_to_cnf(gen_grid(2))
    sink = []
    cfg = SolverConfig(
        learning="first_uip", sequence=BranchingSequence((1,)), graph_sink=sink.append
    )
    solve(f, cfg)
    return sink[0], f


def test_two_layer_graph():
    g, _ = two_layer_conflict()
    assert abs(g.conflict_literals[1]) == 4
    assert {n for n in g.nodes if g.antecedents[n] is None} == {-1}
    interior = {n for n in g.nodes if g.antecedents[n] is not None and abs(n) not in (4,)}
    assert {2, -3} <= interior  # level-0 target nodes are also present
    assert {-5, -6} <= set(g.nodes)


def test_two_layer_scheme_clauses():
    g, f = two_layer_conflict()
    assert cut_to_clause(g, scheme_first_uip(g)) == (-2,)
    assert cut_to_clause(g, scheme_decision(g)) == (1,)
    # lower-level implied literals stay on the reason side under rel-sat, so
    # the level-zero target literals appear; exactly one current-level literal
    relsat_clause = cut_to_clause(g, scheme_relsat(g))
    assert relsat_clause == (1, 5, 6)
    at_level = [x for x in relsat_clause if g.level[-x] == g.conflict_level]
    assert at_level == [1]


def test_two_layer_first_uip_derivation():
    g, _ = two_layer_conflict()
    cut = scheme_first_uip(g)
    d = extract_trivial_derivation(g, cut, cut_to_clause(g, cut))
    assert d.result == (-2,)
    # resolves the conflict variable, the other apex-feeding variable, and the
    # two level-zero target units
    assert [p for _, p in d.steps] == [4, 3, 6, 5]
    assert check_trivial(derivation_to_proof(d))


def test_level_zero_conflict_graph_has_no_decisions():
    f = CnfFormula(1, [(1,), (-1,)])
    sink = []
    r = solve(f, SolverConfig(learning="first_uip", graph_sink=sink.append))
    assert r.is_unsat
    g = sink[0]
    assert all(g.antecedents[n] is not None for n in g.nodes)
    assert r.records[-1].clause == ()


def test_clash_graph():
    class FakeState:
        current_level = 2
        trail = [1, 2]
        levels = [0, 0, 0]
        positions = [0, 0, 1]
        _rsn = {1: (1,), 2: (-1, 2)}

        def reason_literals(self, v):
            return self._rsn[v]

    g = build_conflict_graph(FakeState(), clash_decision=-2)
    assert abs(g.conflict_literals[1]) == 2
    assert g.antecedents[-2] is None
    assert g.preds(2) == (1,)


def test_first_new_cut_trace_conflict():
    # y and -y implied from (A|y),(B|-y) with A=(p q), B=(r): the cut with
    # both conflict literals on the conflict side yields (A|B)
    class FakeState:
        current_level = 3
        trail = [-1, -2, -3, 4]
        levels = [0, 1, 2, 3, 3]
        positions = [0, 0, 1, 2, 3]
        _rsn = {1: None, 2: None, 3: None, 4: (1, 2, 4)}

        def reason_literals(self, v):
            return self._rsn[v]

    g = build_conflict_graph(FakeState(), (3, -4))
    known = {(1, 2, 4), (3, -4)}
    cut, redundant = scheme_first_new_cut(g, known)
    assert not redundant
    assert cut == frozenset({4, -4})
    assert cut_to_clause(g, cut) == (1, 2, 3)


class _ThreeDecisions:
    """Decisions -1, -2, -3 at levels 1-3, then 4 implied by (1 2 4)."""

    current_level = 3
    trail = [-1, -2, -3, 4]
    levels = [0, 1, 2, 3, 3]
    positions = [0, 0, 1, 2, 3]

    def reason_literals(self, v):
        return (1, 2, 4) if v == 4 else None


@pytest.mark.parametrize(
    "build, kwargs, message",
    [
        (build_conflict_graph, {}, "^need a nonempty conflicting clause or a clash literal$"),
        (first_uip_cut, {"conflicting": ()}, "^need a nonempty conflicting clause"),
        (build_conflict_graph, {"clash_decision": 3}, "^cannot analyze a clash between two decisions$"),
        # the clause's latest literal, 2, is at level 2, below the current level
        (build_conflict_graph, {"conflicting": (1, 2)}, "^conflict has no node at the conflict level$"),
        (first_uip_cut, {"conflicting": (1, 2)}, "^conflict has no node at the conflict level$"),
    ],
)
def test_walk_rejects_bad_input(build, kwargs, message):
    with pytest.raises(ValueError, match=message):
        build(_ThreeDecisions(), **kwargs)


# hand-built graphs: antecedents, conflict literals, levels, positions.
# Decision 1 implies 2 by (-1 2); (-1 -2) is falsified, -2 is the virtual node
_DECIDED = ConflictGraph(
    {1: None, 2: (-1, 2), -2: (-1, -2)},
    (2, -2),
    {1: 1, 2: 1, -2: 1},
    {1: 0, 2: 1, -2: math.inf},
)


@pytest.mark.parametrize(
    "analyze, graph, message",
    [
        # both conflict literals are implied at level 0, so they start on the
        # conflict side and nothing is left at the conflict level
        (
            scheme_first_uip,
            ConflictGraph({1: (1,), -1: (-1,)}, (1, -1), {1: 0, -1: 0}, {1: 0, -1: math.inf}),
            "^conflict has no node at the conflict level$",
        ),
        (lambda g: extract_trivial_derivation(g, frozenset(), ()), _DECIDED, "^conflict side is empty$"),
        (
            lambda g: extract_trivial_derivation(g, frozenset({2}), ()),
            ConflictGraph(
                {1: None, 2: (-1, 2), -3: (-2, -3), 3: (-1, 3)},
                (-3, 3),
                {1: 1, 2: 1, -3: 1, 3: 1},
                {1: 0, 2: 5, -3: 1, 3: math.inf},
            ),
            "^latest conflict-side node is not a conflict literal$",
        ),
        # a clash: the branched literal is a reason-less conflict literal
        (
            lambda g: extract_trivial_derivation(g, frozenset({-1}), ()),
            ConflictGraph({1: (1,), -1: None}, (1, -1), {1: 0, -1: 1}, {1: 0, -1: math.inf}),
            "^conflict-side node has no antecedent$",
        ),
        (
            lambda g: extract_trivial_derivation(g, frozenset({1, 2, -2}), ()),
            _DECIDED,
            "^decision literal on the conflict side$",
        ),
    ],
)
def test_analysis_rejects_bad_graphs(analyze, graph, message):
    with pytest.raises(ValueError, match=message):
        analyze(graph)


def test_first_new_cut_redundant_fallback():
    # single decision implying the conflict; every cut clause already known
    f = CnfFormula(2, [(-1, 2), (-1, -2)])
    sink = []
    r = solve(
        f,
        SolverConfig(
            learning="first_uip",
            sequence=BranchingSequence((-1,)),
            graph_sink=sink.append,
        ),
    )
    g = sink[0]
    known = f.clause_set() | {(-1,)}
    cut, redundant = scheme_first_new_cut(g, known)
    assert redundant
    assert cut_to_clause(g, cut) == (-1,)


def enumerate_valid_cuts(g):
    movable = [n for n in g.nodes if g.antecedents[n] is not None]
    for r in range(len(movable) + 1):
        for side in itertools.combinations(movable, r):
            cut = frozenset(side)
            if cut_is_valid(g, cut):
                yield cut


def _is_uip(g, node):
    lvl = g.conflict_level
    decision = next(n for n in g.nodes if g.antecedents[n] is None and g.level[n] == lvl)
    if node == decision:
        return True
    # every path decision -> conflict literal must pass through the node
    succ = {n: [] for n in g.nodes}
    for n in g.nodes:
        for p in g.preds(n):
            succ[p].append(n)
    targets = set(g.conflict_literals)
    reached = set()
    stack = [decision]
    while stack:
        u = stack.pop()
        if u in reached or u == node:
            continue
        reached.add(u)
        stack.extend(succ[u])
    return not (reached & targets)


def test_scheme_agreement_when_decision_is_only_uip():
    # single-level conflict graphs whose only UIP is the decision: the three
    # cut schemes produce the same clause, and all returned cuts are valid
    checked = 0
    for seed in range(40):
        f = random_3cnf(9, 36, seed=300 + seed)
        sink = []
        solve(f, SolverConfig(learning="first_uip", graph_sink=sink.append))
        for g in sink:
            if all(g.antecedents[n] is not None for n in g.nodes) or any(
                g.level[n] not in (g.conflict_level,) for n in g.nodes
            ):
                continue
            level_nodes = [n for n in g.nodes if g.antecedents[n] is not None]
            if any(_is_uip(g, n) for n in level_nodes):
                continue
            c1 = cut_to_clause(g, scheme_first_uip(g))
            c2 = cut_to_clause(g, scheme_relsat(g))
            c3 = cut_to_clause(g, scheme_decision(g))
            assert c1 == c2 == c3
            valid = list(enumerate_valid_cuts(g))
            for cut in (scheme_first_uip(g), scheme_relsat(g), scheme_decision(g)):
                assert cut in valid
            checked += 1
        if checked >= 8:
            break
    assert checked >= 3


def test_first_uip_clause_is_asserting():
    for seed in range(15):
        f = random_3cnf(12, 48, seed=400 + seed)
        sink = []
        r = solve(f, SolverConfig(learning="first_uip", graph_sink=sink.append))
        recs = [rec for rec in (r.records or ()) if rec.scheme == "first_uip"]
        graphs = sink[: len(recs)]
        for g, rec in zip(graphs, recs):
            lvl = g.conflict_level
            at_level = [x for x in rec.clause if g.level.get(-x) == lvl]
            assert len(at_level) == 1


def _validate_graph(g):
    """The conflict-graph invariants: exactly one conflict variable (both
    polarities present), every non-decision node's antecedent contains the
    node and is canonical, every predecessor is a graph node, nodes reach the
    sink, and the edge relation is acyclic."""
    conflict_var = abs(g.conflict_literals[1])
    polarities = {}
    for n in g.nodes:
        polarities.setdefault(abs(n), set()).add(n > 0)
    both = [v for v, ps in polarities.items() if len(ps) == 2]
    assert both == [conflict_var]
    assert set(g.conflict_literals) == {conflict_var, -conflict_var}
    for n in g.nodes:
        ant = g.antecedents[n]
        if ant is None:
            assert g.preds(n) == ()
        else:
            assert n in ant
            assert ant == canonical_literals(ant)
            for p in g.preds(n):
                assert p in g.antecedents  # predecessors are graph nodes
    # edges point forward in assignment order: acyclic, and every node can
    # reach a conflict literal (hence the sink)
    succ = {n: [] for n in g.nodes}
    for n in g.nodes:
        for p in g.preds(n):
            assert g.position[p] < g.position[n]
            succ[p].append(n)
    for n in g.nodes:
        stack, seen = [n], set()
        reachable = False
        while stack:
            u = stack.pop()
            if u in set(g.conflict_literals):
                reachable = True
                break
            if u in seen:
                continue
            seen.add(u)
            stack.extend(succ[u])
        assert reachable, f"node {n} cannot reach the conflict"


def test_conflict_graph_invariants_hold_on_random_runs():
    for seed in range(10):
        f = random_3cnf(11, 44, seed=700 + seed)
        sink = []
        solve(f, SolverConfig(learning="first_uip", graph_sink=sink.append))
        for g in sink:
            _validate_graph(g)
    g, _ = two_layer_conflict()
    _validate_graph(g)


def test_derivations_certify_all_schemes():
    for learning in ("decision", "relsat", "first_uip", "first_new_cut"):
        for seed in range(8):
            f = random_3cnf(10, 40, seed=500 + seed)
            r = solve(f, SolverConfig(learning=learning))
            for rec in r.records or ():
                d = rec.derivation
                assert d.result == rec.clause
                for clause in (d.base, *(ant for ant, _ in d.steps)):
                    assert clause == canonical_literals(clause)
                assert check_trivial(derivation_to_proof(rec.derivation))


def test_minimized_frontier_has_no_absorbable_node():
    # minimize_cut walks the frontier once; no non-decision node it leaves
    # there may have all of its predecessors in that frontier
    cases = [(random_3cnf(12, 50, seed=800 + seed), None) for seed in range(10)]
    for layers in (5, 7):
        g = gen_grid(layers)
        cases.append((pebbling_to_cnf(g), peb_seq_1uip(g)))
    checked = 0
    for f, seq in cases:
        sink = []
        cfg = SolverConfig(learning="first_new_cut", sequence=seq, graph_sink=sink.append)
        r = solve(f, cfg)
        known = f.clause_set()
        for g, rec in zip(sink, r.records):
            if rec.scheme == "final":
                continue
            cut, _ = scheme_first_new_cut(g, known)
            assert cut_to_clause(g, cut) == rec.clause
            known.add(rec.clause)
            # a minimized cut is a fixed point, and the clause minimize_cut
            # returns is the negation of the minimized cut's frontier
            assert minimize_cut(g, cut) == (cut, rec.clause)
            for c, clause in ((cut, rec.clause), minimize_cut(g, scheme_first_uip(g))):
                assert clause == cut_to_clause(g, c)
                s = frontier(g, c)
                for v in s:
                    if g.antecedents[v] is not None:
                        assert not all(p in s for p in g.preds(v)), v
            checked += 1
    assert checked >= 50


def test_first_uip_walk_matches_whole_graph_oracle(monkeypatch):
    # the engine learns first-UIP clauses from the trail walk's partial
    # graph; scheme_first_uip on the whole graph from graph_sink is the oracle
    walks = []
    walk = conflict.first_uip_cut

    def recording_walk(*args, **kwargs):
        walks.append(walk(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(conflict, "first_uip_cut", recording_walk)
    cases = [(random_3cnf(12, 50, seed=900 + seed), None) for seed in range(8)]
    for seed in range(4):
        g = gen_random_pebbling(10, 3, 3, seed)
        cases.append((pebbling_to_cnf(g), peb_seq_1uip(g)))
    for n in range(3, 7):
        cases.append((gen_gtn(n), gtn_seq(n)))
    for layers in range(2, 9):
        g = gen_grid(layers)
        cases.append((pebbling_to_cnf(g), peb_seq_1uip(g)))
    checked = clashes = 0
    for f, seq in cases:
        for sequence in (None,) if seq is None else (None, seq):
            for clmm in (False, True):
                walks.clear()
                sink = []
                cfg = SolverConfig(
                    sequence=sequence, cl_minus_minus=clmm, graph_sink=sink.append
                )
                r = solve(f, cfg)
                recs = [rec for rec in r.records if rec.scheme == "first_uip"]
                assert len(walks) == len(recs) and len(sink) >= len(recs)
                for (wg, wcut), whole, rec in zip(walks, sink, recs):
                    cut = scheme_first_uip(whole)
                    assert rec.clause == cut_to_clause(whole, cut)
                    assert rec.derivation == extract_trivial_derivation(
                        whole, cut, rec.clause
                    )
                    # first-UIP clauses are asserting: the backjump goes to
                    # the highest level below the UIP literal's, or to 0
                    top, *rest = sorted((whole.level[-x] for x in rec.clause), reverse=True)
                    assert all(lvl < top for lvl in rest)
                    assert rec.backjump_level == max(rest, default=0)
                    assert wcut <= cut
                    assert wg.conflict_literals == whole.conflict_literals
                    for n in wg.nodes:
                        assert wg.level[n] == whole.level[n]
                        assert wg.position[n] == whole.position[n]
                        assert wg.antecedents[n] == whole.antecedents[n]
                    clashes += whole.antecedents[whole.conflict_literals[1]] is None
                    checked += 1
    assert checked >= 1000 and clashes >= 1


def _reference_conflict_graph(state, conflicting=None, clash_decision=None):
    """The depth-first whole-graph construction that the trail walk replaced,
    reading the solver's arrays: a stack from the conflict literals over
    antecedents. Returns the graph, its nodes in trail order and the
    conflict level."""
    levels, positions = state.levels, state.positions
    antecedents, level, position = {}, {}, {}
    if clash_decision is not None:
        d = clash_decision
        if state.reason_literals(abs(d)) is None:
            raise ValueError("cannot analyze a clash between two decisions")
        antecedents[d], level[d], position[d] = None, state.current_level, math.inf
        conflict_literals = (-d, d)
        pending = [-d]
    else:
        lits = sorted(conflicting, key=lambda l: positions[abs(l)])
        lstar = lits[-1]
        antecedents[lstar], level[lstar], position[lstar] = (
            conflicting, levels[abs(lstar)], math.inf
        )
        conflict_literals = (-lstar, lstar)
        pending = [-x for x in lits]
    seen = set(antecedents)
    while pending:
        node = pending.pop()
        if node in seen:
            continue
        seen.add(node)
        v = abs(node)
        level[node], position[node] = levels[v], positions[v]
        reason = antecedents[node] = state.reason_literals(v)
        if reason is not None:
            pending.extend(-x for x in reason if x != node and -x not in seen)
    graph = ConflictGraph(
        antecedents=antecedents,
        conflict_literals=conflict_literals,
        level=level,
        position=position,
    )
    return graph, tuple(sorted(seen, key=position.__getitem__)), state.current_level


def test_whole_graph_matches_depth_first_reference(monkeypatch):
    # every whole graph the engine builds (decision, rel-sat, FirstNewCut, the
    # final record, graph_sink) equals the depth-first reference field by
    # field
    build = conflict.build_conflict_graph
    compared = clashes = 0

    def checked_build(state, conflicting=None, clash_decision=None):
        nonlocal compared, clashes
        g = build(state, conflicting, clash_decision=clash_decision)
        ref, nodes, conflict_level = _reference_conflict_graph(
            state, conflicting, clash_decision
        )
        for field in fields(ConflictGraph):
            assert getattr(g, field.name) == getattr(ref, field.name), field.name
        assert g.nodes == nodes
        assert g.conflict_level == conflict_level
        compared += 1
        clashes += clash_decision is not None
        return g

    monkeypatch.setattr(conflict, "build_conflict_graph", checked_build)
    cases = [(random_3cnf(10, 42, seed=1000 + seed), None) for seed in range(6)]
    for seed in range(4):
        g = gen_random_pebbling(8, 3, 3, seed)
        cases.append((pebbling_to_cnf(g), peb_seq_1uip(g)))
    for n in range(3, 6):
        cases.append((gen_gtn(n), gtn_seq(n)))
    for layers in range(2, 7):
        g = gen_grid(layers)
        cases.append((pebbling_to_cnf(g), peb_seq_1uip(g)))
    sink = lambda g: None
    for f, seq in cases:
        for learning in ("decision", "relsat", "first_uip", "first_new_cut"):
            for sequence in (None,) if seq is None else (None, seq):
                for clmm in (False, True):
                    cfg = SolverConfig(
                        learning=learning,
                        sequence=sequence,
                        cl_minus_minus=clmm,
                        conflict_budget=60,
                        graph_sink=sink,
                    )
                    solve(f, cfg)
    for seed in range(40):
        f = random_3cnf(9, 38, seed=1100 + seed)
        learning = ("decision", "relsat", "first_uip", "first_new_cut")[seed % 4]
        cfg = SolverConfig(
            learning=learning,
            sequence=random_sequence(9, 30, seed),
            cl_minus_minus=True,
            graph_sink=sink,
        )
        solve(f, cfg)
    assert compared >= 4000 and clashes >= 50
