"""Automatic branching-sequence generation for pebbling and GTn formulas.

The pebbling generator walks the pebbling graph (the high-level problem
description, not its CNF) and emits label variables in the order that makes a
fast-backtracking first-UIP learner derive the node clauses bottom-up; on a
grid (pyramid) graph this one walk yields the published grid sequence. The
GTn generator emits the simple row-by-row pattern; it is an approximate
sequence and the solver is expected to fall back to its heuristic after it.
"""

from __future__ import annotations

from .engine import BranchingSequence
from .generators import PebblingGraph, gtn_var, validate_pebbling_graph


def peb_seq_1uip(graph: PebblingGraph) -> BranchingSequence:
    """Branching sequence for any single-target pebbling graph with distinct
    labels (first-UIP learning, fast backtracking); raises on a graph that
    `validate_pebbling_graph` rejects.

    Predecessors are processed from highest to lowest (heights tied on larger
    node id first, which reproduces the published orderings); the lowest
    predecessor contributes no labels. Unit-labeled nodes are handled first,
    bottom-up, with their outgoing edges removed: learning a unit clause
    sends the solver back to level zero, so their subsequences must not
    interleave with the rest.
    """
    validate_pebbling_graph(graph)
    labels = {n.id: n.label for n in graph.nodes}
    heights = graph.heights()
    unit_nodes = {n.id for n in graph.nodes if len(n.label) == 1}
    # each predecessor list once: unit nodes dropped, then increasing height,
    # ties larger id first; a node left with none counts as a source
    preds = {
        n.id: sorted((p for p in n.preds if p not in unit_nodes), key=lambda p: (heights[p], -p))
        for n in graph.nodes
    }
    sources = {v for v, ps in preds.items() if not ps}

    out: list[int] = []
    visited: set[int] = set()
    visited_as_high: set[int] = set()

    # wrapper and sub are the published recursive procedures, written as
    # generators that yield each recursive call instead of making it; walk()
    # runs them with an explicit stack, so deep graphs need no Python stack
    def wrapper(v: int):
        if preds[v]:
            yield sub(v, len(preds[v]))

    def sub(v: int, i: int):
        u = preds[v][i - 1]
        if i == 1:
            # lowest predecessor: no labels, only the recursion
            if u not in visited and u not in sources:
                visited.add(u)
                yield wrapper(u)
            return
        lab = labels[u]
        out.extend(lab[:-1])
        if u not in visited_as_high and u not in sources:
            visited_as_high.add(u)
            out.append(lab[-1])
            if u not in visited:
                visited.add(u)
                yield wrapper(u)
        yield sub(v, i - 1)
        for j in range(len(lab) - 2, 0, -1):
            out.extend(lab[:j])
            yield sub(v, i - 1)
        yield sub(v, i - 1)

    def walk(v: int) -> None:
        stack = [wrapper(v)]
        while stack:
            call = next(stack[-1], None)
            if call is None:
                stack.pop()
            else:
                stack.append(call)

    for u in sorted(unit_nodes, key=lambda n: (heights[n], n)):
        if u == graph.target:
            continue
        out.extend(labels[u])
        walk(u)
    walk(graph.target)
    return BranchingSequence(tuple(out))


def gtn_seq(n: int) -> BranchingSequence:
    """Approximate branching sequence for the GTn ordering formula.

    Row by row, left to right: for j = 1..n emit the variables "i above j"
    for i = 1..n-1 (i != j), then emit the final row once more. The total is
    n(n-1) entries; the sequence is incomplete by design.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    out: list[int] = []
    rows = list(range(1, n + 1)) + [n]
    for j in rows:
        for i in range(1, n):
            if i != j:
                out.append(gtn_var(i, j, n))
    return BranchingSequence(tuple(out))
