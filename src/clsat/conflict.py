"""Conflict-graph construction, cut-based learning schemes, and derivation extraction.

A conflict graph is a snapshot of the reasons behind one conflict: its nodes
are the trail literals that feed the conflict (each labeled by the literal
that is true on the trail), plus one "virtual" node for the conflicting
clause's latest-falsified literal, so the conflict variable appears with both
polarities. Decisions (the sources) have no antecedent; every other node's
predecessors are exactly the falsified literals of its antecedent clause. The
empty-clause sink is kept implicit: both conflict literals have an edge to it.

A cut partitions the nodes into a reason side (holding every decision) and a
conflict side (holding the sink and at least one conflict literal); it is
the frozenset of its conflict-side nodes. The negations of the reason-side
nodes with an edge across the cut form the learned clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import AbstractSet, Protocol

from .formula import canonical_literals

_INF = math.inf


class TrailState(Protocol):
    """What conflict analysis reads of a solver: the trail and, by variable,
    the level and trail position of each assigned literal."""

    current_level: int
    trail: list[int]
    levels: list[int]
    positions: list[int]

    def reason_literals(self, var: int) -> tuple[int, ...] | None:
        """The canonical clause that implied var, or None for a decision."""


@dataclass(frozen=True)
class ConflictGraph:
    """A conflict graph, whole or partial.

    Both come from one backward walk over the trail. `build_conflict_graph`
    builds the whole graph: every node that feeds the conflict.
    `first_uip_cut` builds only what its cut reads: the conflict side and
    the frontier, whose nodes have antecedents but may have predecessors
    outside the graph. The engine learns first-UIP clauses from the partial
    graph; `graph_sink` always receives whole graphs.
    """

    antecedents: dict[int, tuple[int, ...] | None]  # None exactly for decisions
    conflict_literals: tuple[int, int]  # (earlier, later/virtual), on the conflict variable
    level: dict[int, int]  # keys: the nodes
    position: dict[int, float]

    @property
    def nodes(self) -> tuple[int, ...]:
        """The node literals in trail order, the virtual node last."""
        return tuple(sorted(self.level, key=self.position.__getitem__))

    @property
    def conflict_level(self) -> int:
        """The level of the virtual node, or of the clash's branch."""
        return self.level[self.conflict_literals[1]]

    def preds(self, n: int) -> tuple[int, ...]:
        """The nodes with an edge into n, in the order of its antecedent."""
        ant = self.antecedents[n]
        return () if ant is None else tuple(-x for x in ant if x != n)


@dataclass(frozen=True)
class TrivialDerivation:
    """A linear resolution derivation: base clause, then one known-clause
    resolution per step, with all pivot variables distinct."""

    base: tuple[int, ...]
    steps: tuple[tuple[tuple[int, ...], int], ...]  # (known clause, pivot variable)
    result: tuple[int, ...]


@dataclass(frozen=True)
class LearnedClauseRecord:
    derivation: TrivialDerivation
    scheme: str
    backjump_level: int = 0
    redundant: bool = False  # FirstNewCut fell back to an already-known clause

    @property
    def clause(self) -> tuple[int, ...]:
        """The learned clause: what its derivation yields."""
        return self.derivation.result


def build_conflict_graph(
    state: TrailState,
    conflicting: tuple[int, ...] | None = None,
    clash_decision: int | None = None,
) -> ConflictGraph:
    """Build the whole conflict graph for a falsified clause or a branch clash.

    For a falsified clause (canonical, like every antecedent), the
    latest-falsified literal becomes the virtual conflict node, implied by
    the clause itself. For a clash (a branch that contradicts the current
    value of its variable, possible only when branching on assigned literals
    is allowed), the branched literal is a reason-less source and the trail
    literal keeps its recorded reason. Every implied node is expanded, so
    the graph holds every node that feeds the conflict.
    """
    return _walk(state, conflicting, clash_decision, True)[0]


def first_uip_cut(
    state: TrailState,
    conflicting: tuple[int, ...] | None = None,
    clash_decision: int | None = None,
) -> tuple[ConflictGraph, frozenset[int]]:
    """The first-UIP cut from one backward walk over the trail (Zhang et al.,
    ICCAD 2001), without building the whole conflict graph.

    Marked conflict-level nodes are expanded in descending trail position
    until one remains, the UIP. Marked literals of lower positive levels are
    frontier leaves. Marked level-0 literals join the conflict side and their
    antecedents are followed too, because the derivation resolves them away;
    that closure does not depend on the order it is taken in. Returns the
    partial graph (conflict side plus frontier, see `ConflictGraph`) and the
    cut. On it, `cut_to_clause` and `extract_trivial_derivation` give what
    they give for `scheme_first_uip` on the whole graph.
    """
    g, side = _walk(state, conflicting, clash_decision, False)
    return g, frozenset(side)


def _walk(
    state: TrailState,
    conflicting: tuple[int, ...] | None,
    clash_decision: int | None,
    whole: bool,
) -> tuple[ConflictGraph, set[int]]:
    """The backward trail walk behind both builders: marked conflict-level
    nodes in descending trail position, then a stack for the marked nodes
    below the conflict level. With `whole` it expands every implied node;
    without it, it works as `first_uip_cut` says. A node is marked when it
    gets its level and antecedent, so `level` holds the marked nodes, and
    expanding a node marks the negations of its antecedent's other literals.
    Returns the graph and the expanded nodes (for first-UIP, the cut's
    conflict side)."""
    trail, levels, positions = state.trail, state.levels, state.positions
    reason_of = state.reason_literals
    lvl = state.current_level
    antecedents: dict[int, tuple[int, ...] | None] = {}
    level: dict[int, int] = {}
    position: dict[int, float] = {}
    side: set[int] = set()
    at_level = 0  # marked conflict-level nodes the walk has not reached yet
    lower: list[int] = []  # marked nodes below the conflict level to expand

    def expand(node: int) -> None:
        nonlocal at_level
        ant = antecedents[node]
        if ant is None:  # a decision
            return
        side.add(node)
        for x in ant:
            p = -x
            if x == node or p in level:
                continue
            v = abs(x)
            lv = level[p] = levels[v]
            position[p] = positions[v]
            antecedents[p] = reason_of(v)
            if lv == lvl:
                at_level += 1
            elif whole or lv == 0:
                lower.append(p)

    if clash_decision is not None:
        # the branch is the only conflict-level node, so it is the UIP, and
        # the trail literal it contradicts crosses to the conflict side
        uip = clash_decision
        v = abs(uip)
        ant = reason_of(v)
        if ant is None:
            raise ValueError("cannot analyze a clash between two decisions")
        conflict_literals = (-uip, uip)
        level[uip], position[uip], antecedents[uip] = lvl, _INF, None
        level[-uip], position[-uip], antecedents[-uip] = levels[v], positions[v], ant
        expand(-uip)
    elif conflicting:
        # the engine meets every conflict at the level of its latest-falsified
        # literal (docs/DECISIONS.md, "One walk builds every conflict graph")
        lstar = max(conflicting, key=lambda l: positions[abs(l)])
        v = abs(lstar)
        if levels[v] != lvl or (lvl == 0 and not whole):
            raise ValueError("conflict has no node at the conflict level")
        conflict_literals = (-lstar, lstar)
        level[lstar], position[lstar], antecedents[lstar] = lvl, _INF, conflicting
        level[-lstar], position[-lstar], antecedents[-lstar] = lvl, positions[v], reason_of(v)
        at_level = 1  # the trail literal -lstar
        expand(lstar)
        i = positions[v]
        while at_level:
            node = trail[i]
            i -= 1
            if node not in level:
                continue
            at_level -= 1
            if whole or at_level:  # without `whole`, the last one is the first UIP
                expand(node)
    else:
        raise ValueError("need a nonempty conflicting clause or a clash literal")

    while lower:
        expand(lower.pop())

    return ConflictGraph(antecedents, conflict_literals, level, position), side


def frontier(g: ConflictGraph, cut: AbstractSet[int]) -> set[int]:
    """Reason-side nodes with an edge into the conflict side (or into the sink)."""
    ants = g.antecedents
    out = set()
    for n in cut:
        for x in ants[n] or ():
            if x != n and -x not in cut:
                out.add(-x)
    for cl in g.conflict_literals:
        if cl not in cut:
            out.add(cl)
    return out


def cut_to_clause(g: ConflictGraph, cut: frozenset[int]) -> tuple[int, ...]:
    """The learned clause of a cut: negations of its frontier literals."""
    return canonical_literals(-u for u in frontier(g, cut))


def cut_is_valid(g: ConflictGraph, cut: frozenset[int]) -> bool:
    """Check the side conditions: decisions on the reason side, at least one
    conflict literal (plus the implicit sink) on the conflict side."""
    # a node outside the graph has no antecedent either, and fails too
    if any(g.antecedents.get(n) is None for n in cut):
        return False
    return any(cl in cut for cl in g.conflict_literals)


def scheme_first_uip(g: ConflictGraph) -> frozenset[int]:
    """First-UIP cut: conflict side holds everything at the conflict level
    strictly after the first unique implication point, both conflict literals
    (when they are not the UIP or a decision), and all level-0 nodes of the
    graph, so learned clauses never mention level-0-falsified literals.

    The resulting clause has exactly one conflict-level literal: the negation
    of the UIP.
    """
    lvl = g.conflict_level
    ants = g.antecedents
    side = {n for n, ant in ants.items() if ant is not None and g.level[n] == 0}
    seen = set(side)
    heap: list[tuple[float, int]] = []

    def mark(n: int) -> None:
        if n in seen:
            return
        seen.add(n)
        if g.level[n] == lvl:
            heappush(heap, (-g.position[n], n))

    for cl in g.conflict_literals:
        mark(cl)
    if not heap:
        raise ValueError("conflict has no node at the conflict level")
    while True:
        _, n = heappop(heap)
        if not heap or ants[n] is None:
            uip = n
            break
        side.add(n)
        for p in g.preds(n):
            mark(p)
    side.update(
        cl for cl in g.conflict_literals if cl != uip and ants[cl] is not None
    )
    return frozenset(side)


def scheme_decision(g: ConflictGraph) -> frozenset[int]:
    """Decision cut: the reason side is exactly the decision literals."""
    return frozenset(n for n, ant in g.antecedents.items() if ant is not None)


def scheme_relsat(g: ConflictGraph) -> frozenset[int]:
    """rel-sat cut: conflict side = implied nodes of the conflict level plus
    the conflict literals; implied literals of lower levels stay on the
    reason side (and so may appear in the clause)."""
    lvl = g.conflict_level
    side = {n for n, ant in g.antecedents.items() if ant is not None and g.level[n] == lvl}
    side.update(cl for cl in g.conflict_literals if g.antecedents[cl] is not None)
    return frozenset(side)


def minimize_cut(
    g: ConflictGraph, cut: AbstractSet[int]
) -> tuple[frozenset[int], tuple[int, ...]]:
    """Shrink a cut's clause: walk its frontier once, in descending trail
    position, moving each non-decision node whose predecessors all lie in the
    running frontier to the conflict side. Returns the cut and its clause.
    Moving a node adds nothing to the frontier, so one pass is enough and the
    running set ends as the new frontier, whose negation is the clause. A node
    with no predecessors (implied by a known unit clause) is absorbed.
    """
    side = set(cut)
    s = frontier(g, cut)
    for v in sorted(s, key=lambda n: -g.position[n]):
        ant = g.antecedents[v]
        if ant is not None and all(x == v or -x in s for x in ant):
            s.remove(v)
            side.add(v)
    return frozenset(side), canonical_literals(-u for u in s)


def scheme_first_new_cut(
    g: ConflictGraph, known: set[tuple[int, ...]]
) -> tuple[frozenset[int], bool]:
    """FirstNewCut: grow the cut from the conflict until its minimized clause
    is not already known.

    Starts from {sink, one conflict literal} (the one assigned later, unless
    it is a decision). Each round the latest conflict-side node that still has
    movable predecessors absorbs them (the sink counts as latest, so the other
    conflict literal crosses first); decisions never move. Returns the
    minimized cut and a flag that is True when even the terminal cut's clause
    was already known (non-redundancy could not be honored).
    """
    ants = g.antecedents
    earlier, later = g.conflict_literals
    c = later if ants[later] is not None else earlier
    other = earlier if c == later else later
    side = {c}
    while True:
        cand, clause = minimize_cut(g, side)
        if clause not in known:
            return cand, False
        if other not in side and ants[other] is not None:
            side.add(other)
            continue
        for n in sorted(side, key=lambda n: -g.position[n]):
            movable = [
                -x for x in ants[n]
                if x != n and -x not in side and ants[-x] is not None
            ]
            if movable:
                side.update(movable)
                break
        else:
            return cand, True


def extract_trivial_derivation(
    g: ConflictGraph, cut: frozenset[int], clause: tuple[int, ...] | None = None
) -> TrivialDerivation:
    """Derive the cut's clause by resolving antecedents of conflict-side nodes.

    Starting from the antecedent of the latest conflict-side node (always a
    conflict literal), resolve in reverse assignment order with each
    conflict-side node's antecedent on that node's variable. Nodes whose
    variable is absent from the running clause are skipped. Pivots are
    distinct and every antecedent is a known clause, so the derivation is
    trivial; its final clause equals the cut's clause. The result is checked
    against `clause` when the caller already has `cut_to_clause(g, cut)`,
    and against a fresh `cut_to_clause` otherwise.
    """
    side = sorted(cut, key=lambda n: g.position[n], reverse=True)
    if not side:
        raise ValueError("conflict side is empty")
    base_node = side[0]
    if base_node not in g.conflict_literals:
        raise ValueError("latest conflict-side node is not a conflict literal")
    base = g.antecedents[base_node]
    if base is None:
        raise ValueError("conflict-side node has no antecedent")
    running = set(base)
    steps: list[tuple[tuple[int, ...], int]] = []
    for y in side[1:]:
        if -y not in running:
            continue
        ant = g.antecedents[y]
        if ant is None:
            raise ValueError("decision literal on the conflict side")
        running.remove(-y)
        running.update(x for x in ant if x != y)
        steps.append((ant, abs(y)))
    result = canonical_literals(running)
    expected = cut_to_clause(g, cut) if clause is None else clause
    if result != expected:
        raise AssertionError(
            f"derivation yields {result} but the cut's clause is {expected}"
        )
    return TrivialDerivation(base=base, steps=tuple(steps), result=result)
