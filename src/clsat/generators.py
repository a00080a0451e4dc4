"""Benchmark formula generators: pebbling graphs/formulas and GTn ordering formulas."""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, NamedTuple

from .formula import Clause, CnfFormula, content_lines


class PebNode(NamedTuple):
    id: int
    label: tuple[int, ...]  # the variables of the node's disjunction label
    preds: tuple[int, ...]  # predecessor node ids (all smaller than id)


class PebblingGraph(NamedTuple):
    """A labeled DAG with a single target node.

    Nodes are numbered 1..n in topological order (predecessors have smaller
    ids). Sources are the indegree-zero nodes; the target is the unique sink.
    """

    nodes: tuple[PebNode, ...]
    target: int

    def node(self, nid: int) -> PebNode:
        return self.nodes[nid - 1]

    def sources(self) -> set[int]:
        return {n.id for n in self.nodes if not n.preds}

    def heights(self) -> dict[int, int]:
        """Height of each node: 1 for sources, else 1 + max predecessor height."""
        h: dict[int, int] = {}
        for n in self.nodes:
            h[n.id] = 1 + max((h[p] for p in n.preds), default=0)
        return h

    def num_label_vars(self) -> int:
        return sum(len(n.label) for n in self.nodes)


class PebblingGraphError(ValueError):
    """A broken graph rule, carrying the node at fault (None for the sinks)."""

    def __init__(self, message: str, node: int | None = None):
        self.node = node
        super().__init__(message)


def validate_pebbling_graph(g: PebblingGraph) -> None:
    seen_vars: set[int] = set()
    pred_of_someone: set[int] = set()
    for i, n in enumerate(g.nodes, start=1):
        if n.id != i:
            raise PebblingGraphError("node ids must be dense and ascending from 1", n.id)
        if not n.label:
            raise PebblingGraphError(f"node {n.id} has an empty label", n.id)
        for v in n.label:
            if v <= 0:
                raise PebblingGraphError(f"node {n.id} label contains non-variable {v}", n.id)
            if v in seen_vars:
                raise PebblingGraphError(f"variable {v} appears in two node labels", n.id)
            seen_vars.add(v)
        for p in n.preds:
            if not 1 <= p < n.id:
                raise PebblingGraphError(f"node {n.id} has non-topological predecessor {p}", n.id)
        pred_of_someone.update(n.preds)
    sinks = {n.id for n in g.nodes} - pred_of_someone
    if sinks != {g.target}:
        raise PebblingGraphError(
            f"graph must have the target as its unique sink, sinks={sorted(sinks)}"
        )


def gen_grid(layers: int) -> PebblingGraph:
    """Pyramid grid pebbling graph with `layers` layers.

    The bottom layer has `layers` nodes (the sources), each layer above has
    one fewer, the apex is the single target. Every node is labeled with two
    fresh variables; each non-source node's predecessors are the two adjacent
    nodes below it. Node ids run bottom-up, left to right.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    total = layers * (layers + 1) // 2
    labels = zip(range(1, 2 * total, 2), range(2, 2 * total + 1, 2))
    preds: list[tuple[int, ...]] = [()] * layers
    start = 1
    for width in range(layers, 1, -1):
        preds.extend(zip(range(start, start + width - 1), range(start + 1, start + width)))
        start += width
    nodes = tuple(map(PebNode._make, zip(range(1, total + 1), labels, preds)))
    return PebblingGraph(nodes, total)


# the shape `clsat gen-randpeb` and `clsat bench --family randpeb` give a
# random pebbling graph when none is given
RANDPEB_DEFAULTS = {"seed": 1, "max_indegree": 5, "max_label": 6}


def gen_random_pebbling(
    nodes: int, max_indegree: int, max_label: int, seed: int
) -> PebblingGraph:
    """Seeded random pebbling graph, capped by a small grid to a single target.

    The first two nodes are sources; every later node draws its indegree
    uniformly from [2, min(max_indegree, #earlier)] and its predecessors
    uniformly from the earlier nodes. Label sizes are uniform in
    [1, max_label], all labels fresh. All sinks of the random part are then
    fed into a pyramid of 2-variable nodes whose apex is the unique target.
    So the result meets every rule of `validate_pebbling_graph` (fresh labels,
    predecessors sorted and earlier, one sink) and is returned unchecked.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if max_label < 1:
        raise ValueError("max_label must be >= 1")
    if nodes >= 3 and max_indegree < 2:
        raise ValueError("max_indegree must be >= 2 for graphs with 3+ nodes")
    rng = random.Random(seed)
    out: list[PebNode] = []
    var = 0

    def fresh(k: int) -> tuple[int, ...]:
        nonlocal var
        label = tuple(range(var + 1, var + 1 + k))
        var += k
        return label

    for i in range(1, nodes + 1):
        if i <= 2:
            preds: tuple[int, ...] = ()
        else:
            d = rng.randint(2, min(max_indegree, i - 1))
            preds = tuple(sorted(rng.sample(range(1, i), d)))
        out.append(PebNode(i, fresh(rng.randint(1, max_label)), preds))

    interior = {p for n in out for p in n.preds}
    layer = [n.id for n in out if n.id not in interior]
    nid = nodes
    while len(layer) > 1:
        nxt = []
        for pos in range(len(layer) - 1):
            nid += 1
            out.append(PebNode(nid, fresh(2), (layer[pos], layer[pos + 1])))
            nxt.append(nid)
        layer = nxt
    return PebblingGraph(tuple(out), layer[0])


def pebbling_to_cnf(g: PebblingGraph) -> CnfFormula:
    """CNF encoding of the pebbling constraints of `g`.

    Source clauses assert each source's label; precedence clauses say a node
    is pebbled once all its predecessors are (one clause per choice of one
    label variable from each predecessor); target clauses are negative units
    forbidding each target-label variable. Single-target graphs yield
    minimally unsatisfiable formulas.
    """
    validate_pebbling_graph(g)
    num_vars = max(v for n in g.nodes for v in n.label)
    clauses: list[Clause] = []
    for n in g.nodes:
        if not n.preds:
            clauses.append(Clause._trusted(tuple(sorted(n.label))))
    for n in g.nodes:
        if n.preds:
            pred_labels = [g.node(p).label for p in n.preds]
            for choice in product(*pred_labels):
                lits = [-v for v in choice] + list(n.label)
                lits.sort(key=abs)  # variables are distinct across labels
                clauses.append(Clause._trusted(tuple(lits)))
    for v in g.node(g.target).label:
        clauses.append(Clause._trusted((-v,)))
    return CnfFormula(num_vars, clauses)


def make_satisfiable(
    formula: CnfFormula, seed: int, pool: Iterable[int] | None = None
) -> CnfFormula:
    """Delete one seeded-uniform clause (index drawn from `pool`, default all).

    Single-target pebbling formulas are minimally unsatisfiable, so any
    deletion makes them satisfiable; GTn callers restrict the pool to the
    successor clauses.
    """
    if formula.size == 0:
        raise ValueError("cannot delete from an empty formula")
    indices = list(pool) if pool is not None else list(range(formula.size))
    if not indices:
        raise ValueError("empty deletion pool")
    outside = [i for i in indices if not 0 <= i < formula.size]
    if outside:
        raise ValueError(f"deletion pool index {outside[0]} is outside the formula")
    drop = indices[random.Random(seed).randrange(len(indices))]
    kept = [c for i, c in enumerate(formula.clauses) if i != drop]
    return CnfFormula(formula.num_vars, kept)


def gtn_var(i: int, j: int, n: int) -> int:
    """Variable index of the order predicate "i above j" (i != j, both in 1..n)."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"no variable for pair ({i},{j}) with n={n}")
    return (i - 1) * (n - 1) + (j if j < i else j - 1)


def gen_gtn(n: int) -> CnfFormula:
    """Unsatisfiable ordering formula on n elements.

    Antisymmetry clauses for each unordered pair, transitivity clauses for
    every ordered triple of distinct elements, and one successor clause per
    element saying something lies above it. The successor clauses form the
    final block of the clause list (see gtn_successor_indices).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    clauses: list[Clause] = []
    trusted = Clause._trusted
    var = gtn_var
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, b = var(i, j, n), var(j, i, n)
            clauses.append(trusted((-a, -b) if a < b else (-b, -a)))
    m = n - 1
    for i in range(1, n + 1):
        base_i = (i - 1) * m
        for j in range(1, n + 1):
            if j == i:
                continue
            base_j = (j - 1) * m
            a = base_i + (j if j < i else j - 1)
            for k in range(1, n + 1):
                if k == i or k == j:
                    continue
                b = base_j + (k if k < j else k - 1)
                c = base_i + (k if k < i else k - 1)
                lits = [-a, -b, c]
                lits.sort(key=abs)  # variables of a triple are distinct
                clauses.append(trusted(tuple(lits)))
    for j in range(1, n + 1):
        clauses.append(
            trusted(tuple(sorted(var(k, j, n) for k in range(1, n + 1) if k != j)))
        )
    return CnfFormula(n * (n - 1), clauses)


def gtn_successor_indices(n: int) -> range:
    """Clause indices of the successor block in gen_gtn(n)'s output."""
    total = n * (n - 1) // 2 + n * (n - 1) * (n - 2) + n
    return range(total - n, total)


def write_pebbling_graph(g: PebblingGraph) -> str:
    """Text form: header "p peb N", node lines "n <id> <vars> | <preds>", "t <id>"."""
    lines = [f"p peb {len(g.nodes)}"]
    for n in g.nodes:
        vars_part = " ".join(str(v) for v in n.label)
        preds_part = " ".join(str(p) for p in n.preds)
        lines.append(f"n {n.id} {vars_part} | {preds_part}".rstrip())
    lines.append(f"t {g.target}")
    return "\n".join(lines) + "\n"


def parse_pebbling_graph(text: str) -> PebblingGraph:
    """Parse the text form write_pebbling_graph emits. Every error names a
    line: a broken graph rule the line of the node at fault (the `t` line
    for the sinks), a missing header or target line 1."""
    count = -1
    nodes: dict[int, PebNode] = {}
    node_line: dict[int, int] = {}
    target = None
    header_line = target_line = 0
    for lineno, line in content_lines(text, "#"):
        parts = line.split()
        try:
            if parts[0] == "p":
                if len(parts) != 3 or parts[1] != "peb":
                    raise ValueError("malformed header")
                if count >= 0:
                    raise ValueError("duplicate header")
                count = int(parts[2])
                if count < 0:
                    raise ValueError("malformed header")
                header_line = lineno
            elif parts[0] == "n":
                if "|" not in parts:
                    raise ValueError("node line missing '|'")
                bar = parts.index("|")
                nid = int(parts[1])
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid}")
                label = tuple(int(t) for t in parts[2:bar])
                preds = tuple(int(t) for t in parts[bar + 1 :])
                nodes[nid] = PebNode(nid, label, preds)
                node_line[nid] = lineno
            elif parts[0] == "t":
                if len(parts) != 2:
                    raise ValueError("target line needs exactly one node id")
                if target is not None:
                    raise ValueError("duplicate target line")
                target = int(parts[1])
                target_line = lineno
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if count < 0 or target is None:
        raise ValueError("line 1: missing header or target line")
    if sorted(nodes) != list(range(1, count + 1)):
        raise ValueError(f"line {header_line}: node ids must cover 1..N")
    g = PebblingGraph(tuple(nodes[i] for i in range(1, count + 1)), target)
    try:
        validate_pebbling_graph(g)
    except PebblingGraphError as exc:
        line = target_line if exc.node is None else node_line[exc.node]
        raise ValueError(f"line {line}: {exc}") from None
    return g
