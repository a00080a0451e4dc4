"""Shared test oracles and corpus builders."""

from __future__ import annotations

import random

from clsat import RESTART, BranchingSequence, Clause, CnfFormula


def brute_force_satisfiable(formula: CnfFormula) -> bool:
    """Exhaustive assignment enumeration; only for small formulas. Bit v-1 of
    an integer assignment is variable v's value, and each clause is a pair of
    masks (its positive and its negative variables): the assignment satisfies
    the clause when it sets a positive variable or clears a negative one."""
    n = formula.num_vars
    assert n <= 22, "brute force oracle limited to small formulas"
    masks = []
    for c in formula.clauses:
        pos = neg = 0
        for l in c.literals:
            if l > 0:
                pos |= 1 << (l - 1)
            else:
                neg |= 1 << (-l - 1)
        masks.append((pos, neg))
    full = (1 << n) - 1
    for bits in range(1 << n):
        cleared = full ^ bits
        for pos, neg in masks:
            if not (bits & pos or cleared & neg):
                break
        else:
            return True
    return False


def reference_dpll(formula: CnfFormula) -> tuple[bool, int]:
    """Textbook recursive branching with unit propagation: lowest unassigned
    variable, FALSE branch first, terminating when every variable is
    assigned. Returns (satisfiable, number of branching nodes)."""
    n = formula.num_vars
    clauses = [c.literals for c in formula.clauses]
    decisions = 0

    def propagate(assign):
        changed = True
        while changed:
            changed = False
            for cl in clauses:
                if any(assign.get(abs(l)) == (l > 0) for l in cl):
                    continue
                free = [l for l in cl if abs(l) not in assign]
                if not free:
                    return None
                if len(free) == 1:
                    assign[abs(free[0])] = free[0] > 0
                    changed = True
        return assign

    def search(assign):
        nonlocal decisions
        assign = propagate(dict(assign))
        if assign is None:
            return False
        free = [v for v in range(1, n + 1) if v not in assign]
        if not free:
            return True
        v = free[0]
        decisions += 1
        for value in (False, True):
            branch = dict(assign)
            branch[v] = value
            if search(branch):
                return True
        return False

    return search({}), decisions


def random_3cnf(num_vars: int, num_clauses: int, seed: int) -> CnfFormula:
    rng = random.Random(seed)
    clauses: list[tuple[int, ...]] = []
    seen = set()
    while len(clauses) < num_clauses:
        vs = rng.sample(range(1, num_vars + 1), 3)
        t = tuple(sorted((v if rng.random() < 0.5 else -v for v in vs), key=abs))
        if t not in seen:
            seen.add(t)
            clauses.append(t)
    return CnfFormula(num_vars, [Clause(c) for c in clauses])


def random_sequence(num_vars: int, length: int, seed: int) -> BranchingSequence:
    """A seeded branching sequence of random literals over 1..num_vars, with
    about one restart marker in seven entries (for the assigned-branch mode)."""
    rng = random.Random(seed)
    entries = []
    for _ in range(length):
        if rng.random() < 0.15:
            entries.append(RESTART)
        else:
            entries.append(rng.choice((1, -1)) * rng.randint(1, num_vars))
    return BranchingSequence(tuple(entries))
