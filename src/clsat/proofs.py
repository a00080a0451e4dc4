"""Resolution proofs: checking, conversion from solver logs, trace extension,
and compilation of refutations into extended branching sequences.

A proof is a sequence of steps, each either an initial clause of the formula
it refutes or a resolvent of two earlier steps on a pivot variable. A
refutation ends in the empty clause.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .conflict import LearnedClauseRecord, TrivialDerivation
from .engine import (
    RESTART,
    BranchingSequence,
    SolveResult,
    SolverConfig,
    solve,
)
from .formula import Clause, CnfFormula, canonical_literals


@dataclass(slots=True, unsafe_hash=True)
class ResolutionStep:
    """One proof step: an initial clause (left is None) or the resolvent of
    steps left and right on the pivot variable.

    Slotted rather than frozen, because certification builds one per step of
    every learned clause's derivation; steps are values and nothing assigns
    to a field after construction (docs/DECISIONS.md, "Proof steps are
    slotted, not frozen")."""

    clause: tuple[int, ...]
    left: int | None = None
    right: int | None = None
    pivot: int | None = None

    @property
    def is_initial(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class ResolutionProof:
    """A proof over a formula. `derivation_to_proof` leaves `over` unset and
    keeps the clauses it will hold; the first read of `over` builds it, so a
    check that reads only the steps builds no formula. Equality, hashing and
    repr read `over` like any caller."""

    over: CnfFormula
    steps: tuple[ResolutionStep, ...]

    def __getattr__(self, name: str):
        # called only when `over` is unset, and for names that do not exist
        if name != "over" or "_used" not in self.__dict__:
            raise AttributeError(name)
        clauses = [Clause._trusted(c) for c in self.__dict__.pop("_used")]
        over = CnfFormula(max((c.max_var() for c in clauses), default=0), clauses)
        object.__setattr__(self, "over", over)
        return over

    @property
    def size(self) -> int:
        """Number of clauses occurring in the proof."""
        return len(self.steps)

    def derived_count(self) -> int:
        return sum(1 for s in self.steps if not s.is_initial)


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def resolve_on(a: Iterable[int], b: Iterable[int], pivot: int) -> tuple[int, ...]:
    """Resolvent of two clauses on a pivot variable.

    Returns the canonical tuple of the literals of `a` and `b` other than
    `pivot` and `-pivot`. Raises ValueError when the pivot does not occur
    with opposite polarities in the two clauses (checked first), and then
    when the resolvent would contain 0 or a complementary pair. A negative
    pivot resolves on its variable.

    For two canonical tuples (the only form the proof builders and the
    checker pass) with a positive pivot, the resolvent is one linear merge.
    Every other input, and every error, takes the set path, which
    canonicalises (docs/DECISIONS.md, "Resolution merges canonical tuples").
    """
    if type(a) is tuple and type(b) is tuple:
        # merge by variable; every literal taken must have a larger variable
        # than the one before, which holds exactly for canonical inputs
        out = []
        na, nb = len(a), len(b)
        i = j = prev = 0
        found = False
        while i < na and j < nb:
            x, y = a[i], b[j]
            vx = x if x > 0 else -x
            vy = y if y > 0 else -y
            if vx <= prev or vy <= prev:
                break
            if vx < vy:
                out.append(x)
                prev = vx
                i += 1
            elif vy < vx:
                out.append(y)
                prev = vy
                j += 1
            elif x == y:
                out.append(x)
                prev = vx
                i += 1
                j += 1
            elif vx == pivot:
                found = True
                prev = vx
                i += 1
                j += 1
            else:  # a clash off the pivot: the set path raises
                break
        else:
            if found:
                rest = a[i:] if i < na else b[j:]
                for x in rest:
                    vx = x if x > 0 else -x
                    if vx <= prev:
                        break
                    prev = vx
                else:
                    out.extend(rest)
                    return tuple(out)
    sa, sb = set(a), set(b)
    if not ((pivot in sa and -pivot in sb) or (-pivot in sa and pivot in sb)):
        raise ValueError(f"variable {pivot} is not a pivot of these clauses")
    return canonical_literals((sa | sb) - {pivot, -pivot})


def check_res_refutation(proof: ResolutionProof) -> CheckResult:
    """Validate every step and that the final clause is empty.

    Reports the first failing step: an initial clause missing from the
    formula, a bad pivot (not a variable, or not in both antecedents with
    opposite polarities), or a wrong resolvent.
    """
    over = proof.over.clause_set()
    for i, st in enumerate(proof.steps):
        if st.left is None:
            if st.right is not None or st.pivot is not None:
                return CheckResult(False, i, "initial step with resolvent fields")
            if st.clause not in over:
                return CheckResult(False, i, "initial clause not in the formula")
            continue
        if st.right is None or st.pivot is None:
            return CheckResult(False, i, "resolvent step missing antecedents")
        if not (0 <= st.left < i and 0 <= st.right < i):
            return CheckResult(False, i, "antecedent does not precede the step")
        lc = proof.steps[st.left].clause
        rc = proof.steps[st.right].clause
        if st.pivot <= 0 or not (
            (st.pivot in lc and -st.pivot in rc)
            or (-st.pivot in lc and st.pivot in rc)
        ):
            return CheckResult(False, i, "bad pivot")
        try:
            expected = resolve_on(lc, rc, st.pivot)
        except ValueError:
            return CheckResult(False, i, "tautological resolvent")
        if expected != st.clause:
            return CheckResult(False, i, "wrong resolvent")
    if not proof.steps or proof.steps[-1].clause != ():
        return CheckResult(False, None, "proof does not end in the empty clause")
    return CheckResult(True)


def check_trivial(proof: ResolutionProof) -> CheckResult:
    """Check the trivial-derivation shape: an initial step has no resolvent
    fields, every resolvent has two earlier antecedents and a pivot, pivots
    are distinct variables, and every resolvent resolves the previous
    resolvent (or, for the first one, an initial step) against an initial
    step."""
    initial = [st.left is None for st in proof.steps]
    pivots: set[int] = set()
    prev_resolvent: int | None = None
    for i, st in enumerate(proof.steps):
        if initial[i]:
            if st.right is not None or st.pivot is not None:
                return CheckResult(False, i, "initial step with resolvent fields")
            continue
        if st.right is None or st.pivot is None:
            return CheckResult(False, i, "resolvent step missing antecedents")
        if not (0 <= st.left < i and 0 <= st.right < i):
            return CheckResult(False, i, "antecedent does not precede the step")
        if st.pivot <= 0:
            return CheckResult(False, i, "bad pivot")
        if st.pivot in pivots:
            return CheckResult(False, i, "duplicate pivot")
        pivots.add(st.pivot)
        left_init = initial[st.left]
        right_init = initial[st.right]
        if not (left_init or right_init):
            return CheckResult(False, i, "both antecedents are derived")
        for side, is_init in ((st.left, left_init), (st.right, right_init)):
            if not is_init and side != prev_resolvent:
                return CheckResult(
                    False, i, "derived antecedent is not the previous resolvent"
                )
        prev_resolvent = i
    return CheckResult(True)


def derivation_to_proof(derivation) -> ResolutionProof:
    """Lift a trivial derivation into a standalone resolution proof whose
    formula consists of the known clauses the derivation uses, in order of
    first occurrence, so it can be checked with the generic checkers. The
    base, the antecedents and the result are lifted in canonical form, the
    form the formula holds, so every initial step is a clause of the
    formula. Raises ValueError when a clause is not one or the chain does
    not yield the derivation's result. The formula is built when `over` is
    first read (`ResolutionProof`); `check_trivial` never reads it."""
    # canonical_literals validates as Clause() does, without its frame, and
    # returns a canonical tuple as it is
    base = canonical_literals(derivation.base)
    links = tuple((canonical_literals(ant), pivot) for ant, pivot in derivation.steps)
    known = dict.fromkeys([base, *(ant for ant, _ in links)])  # first occurrences, in order
    steps: list[ResolutionStep] = []
    _lift(TrivialDerivation(base, links, canonical_literals(derivation.result)), steps, {}, known)
    proof = object.__new__(ResolutionProof)
    object.__setattr__(proof, "steps", tuple(steps))
    object.__setattr__(proof, "_used", known)
    return proof


def cl_to_res(
    records: Sequence[LearnedClauseRecord], formula: CnfFormula
) -> ResolutionProof:
    """Assemble a refutation from a learned-clause log ending in a level-zero
    conflict, by concatenating the trivial derivation of every learned clause
    (re-based onto the accumulated steps) and of the final conflict.

    Derived clauses are deduplicated and steps unused by the empty clause are
    pruned, so the result's derived count stays within num_vars * (learned+1).
    """
    if not records or records[-1].clause != ():
        raise ValueError("log does not end in a level-zero conflict")
    steps: list[ResolutionStep] = []
    index: dict[tuple[int, ...], int] = {}
    known = formula.clause_set()
    for rec in records:
        _lift(rec.derivation, steps, index, known)
        known.add(rec.clause)
    # the last record's chain ends in (), so _lift has indexed it
    return ResolutionProof(formula, _prune(steps, index[()]))


def _lift(derivation, steps, index, known) -> None:
    """Append the resolution steps of one trivial derivation to `steps`.

    `index` maps each clause already in `steps` to its step, and the chain
    reuses it: a used clause becomes an initial step once, and only if it is
    in `known`; a resolvent is added once. Raises ValueError when the chain
    does not end in `derivation.result`.
    """
    append, get = steps.append, index.get
    clause = derivation.base
    cur = get(clause)
    if cur is None:
        if clause not in known:
            raise ValueError(f"derivation references unknown clause {clause}")
        cur = index[clause] = len(steps)
        append(ResolutionStep(clause))
    for ant, pivot in derivation.steps:
        right = get(ant)
        if right is None:
            if ant not in known:
                raise ValueError(f"derivation references unknown clause {ant}")
            right = index[ant] = len(steps)
            append(ResolutionStep(ant))
        clause = resolve_on(clause, ant, pivot)
        left = cur
        cur = get(clause)
        if cur is None:
            cur = index[clause] = len(steps)
            append(ResolutionStep(clause, left, right, pivot))
    if clause != derivation.result:
        raise ValueError(
            f"derivation chain yields {clause} but claims {derivation.result}"
        )


def _prune(steps: Sequence[ResolutionStep], root: int) -> tuple[ResolutionStep, ...]:
    """The steps `root` depends on, in their order, with antecedent indices
    renumbered to match."""
    used: set[int] = set()
    stack = [root]
    while stack:
        i = stack.pop()
        if i in used:
            continue
        used.add(i)
        st = steps[i]
        if st.left is not None:
            stack.extend((st.left, st.right))
    keep = sorted(used)
    remap = {old: new for new, old in enumerate(keep)}
    out = []
    for old in keep:
        st = steps[old]
        if st.left is not None:
            st = ResolutionStep(st.clause, remap[st.left], remap[st.right], st.pivot)
        out.append(st)
    return tuple(out)


# --------------------------------------------------------------------- PT / CL--


def normalize_refutation(proof: ResolutionProof) -> ResolutionProof:
    """Simplify a refutation so no derived clause has a derivable strict
    subclause among resolvents of earlier step pairs.

    In one pass over the steps: recompute resolvents (a step whose pivot
    vanished collapses onto its surviving antecedent), alias duplicate
    clauses and clauses subsumed by an earlier step, and replace a derived
    clause by any strict subclause obtainable by resolving two earlier steps.
    Then prune steps unused by the empty clause.

    Raises ValueError naming the step and reason that check_res_refutation
    reports when the proof is not a refutation of its formula. Every step of
    a valid proof maps to a subclause of itself, so every recomputed
    resolvent exists and the last step maps to the empty clause
    (docs/DECISIONS.md, "Normalization checks its input").

    One pass is a fixpoint: each step it emits was checked against exactly
    the steps emitted before it, so a second pass would emit every step
    unchanged (docs/DECISIONS.md).

    Both searches read one overlap count per emitted clause: how many of its
    literals each earlier step shares. By the time the pair search runs, no
    earlier non-empty step is a subclause of the clause, so only steps with
    exactly one literal outside it can be antecedents of a shrinking pair.
    The first match in step order is kept, which makes the output
    independent of how candidates are found.
    """
    chk = check_res_refutation(proof)
    if not chk:
        raise ValueError(f"invalid refutation at step {chk.step}: {chk.reason}")
    out: list[ResolutionStep] = []
    alias: dict[int, int] = {}
    by_clause: dict[tuple[int, ...], int] = {}
    by_literal: dict[int, list[int]] = {}
    units: list[int] = []

    def emit(step: ResolutionStep, old_idx: int) -> None:
        clause = step.clause
        if clause in by_clause:
            alias[old_idx] = by_clause[clause]
            return
        # literals shared with `clause`, per earlier step sharing any;
        # clauses are canonical, so a step whose count equals its length
        # is a subclause
        count = Counter(
            chain.from_iterable(by_literal.get(lit, ()) for lit in clause)
        )
        # an earlier strictly smaller clause subsumes this one
        smaller = _find_subsuming(out, count, clause)
        if smaller is not None:
            alias[old_idx] = smaller
            return
        if not step.is_initial:
            shrunk = _find_pair_shrink(out, units, count, clause)
            if shrunk is not None:
                emit(shrunk, old_idx)
                return
        new_idx = len(out)
        out.append(step)
        by_clause[clause] = new_idx
        for lit in clause:
            by_literal.setdefault(lit, []).append(new_idx)
        if len(clause) == 1:
            units.append(new_idx)
        alias[old_idx] = new_idx

    for idx, step in enumerate(proof.steps):
        if step.is_initial:
            emit(step, idx)
            continue
        l, r, piv = alias[step.left], alias[step.right], step.pivot
        lc, rc = out[l].clause, out[r].clause
        has_l = piv in lc or -piv in lc
        has_r = piv in rc or -piv in rc
        if not has_l:
            alias[idx] = l
            continue
        if not has_r:
            alias[idx] = r
            continue
        emit(ResolutionStep(resolve_on(lc, rc, piv), l, r, piv), idx)

    return ResolutionProof(proof.over, _prune(out, by_clause[()]))


def _find_subsuming(out, count, clause) -> int | None:
    """The first earlier step that shares a literal with `clause` and is a
    strict subclause of it, or None."""
    n = len(clause)
    return min(
        (a for a, k in count.items() if k == len(out[a].clause) < n), default=None
    )


def _find_pair_shrink(out, units, count, clause) -> ResolutionStep | None:
    """A resolvent of two earlier steps that is a strict subclause of
    `clause`, or None. The pair taken is the one with the smallest left,
    then the smallest right.

    Requires that no earlier non-empty step is a subclause of `clause`
    (emit has aliased equal and subsumed clauses before it asks). Then each
    antecedent has exactly one literal outside `clause`, and it is the pivot
    literal: the candidates are the unit steps and the steps whose overlap
    count is one short of their length, and a pair resolves only when their
    outside literals are complementary.
    """
    cs = set(clause)
    candidates: list[tuple[int, int]] = []  # (step, its outside literal)
    by_outside: dict[int, list[int]] = {}
    for a in sorted(
        chain(units, (a for a, k in count.items() if k == len(out[a].clause) - 1))
    ):
        x = next(lit for lit in out[a].clause if lit not in cs)
        candidates.append((a, x))
        by_outside.setdefault(x, []).append(a)
    for a, x in candidates:
        for b in by_outside.get(-x, ()):
            res = cs.intersection(out[a].clause + out[b].clause)
            if len(res) < len(cs):
                return ResolutionStep(canonical_literals(res), a, b, abs(x))
    return None


def _support(proof: ResolutionProof) -> list[tuple[int, ...]]:
    """The derived clauses a replay must learn, in derivation order: all
    derived steps except the empty clause and, when both antecedents of the
    final step are themselves derived, the later-derived of those two units.

    Expects a normalized refutation. A derived empty clause there resolves
    two complementary unit clauses; an initial one is the whole proof, and
    its support is empty.

    Proof-trace extension uses this support, chain intermediates included:
    built from _fused_support instead, it needed fallback decisions on a
    third of the refutations checked, every grid from 3 to 11 among them
    (see docs/DECISIONS.md).
    """
    steps = proof.steps
    last = steps[-1]
    excluded: set[int] = {len(steps) - 1}
    if not (last.is_initial or steps[last.left].is_initial or steps[last.right].is_initial):
        excluded.add(max(last.left, last.right))
    return [st.clause for i, st in enumerate(steps) if not st.is_initial and i not in excluded]


def proof_trace_extension(
    formula: CnfFormula, proof: ResolutionProof
) -> tuple[CnfFormula, BranchingSequence]:
    """Extend a formula with trace variables for the derived clauses of one of
    its refutations, plus the branching sequence over those variables.

    Each supported derived clause C gets a fresh variable t and clauses
    (-x | t) for every literal x of C; branching the t's in derivation order
    makes a learner using the new-cut scheme rederive each C in one decision.
    """
    support = _support(normalize_refutation(ResolutionProof(formula, proof.steps)))
    t0 = formula.num_vars
    clauses: list[Clause] = list(formula.clauses)
    for k, c in enumerate(support, start=1):
        for x in c:
            clauses.append(Clause((-x, t0 + k)))
    seq = BranchingSequence(tuple(t0 + k for k in range(1, len(support) + 1)))
    return CnfFormula(t0 + len(support), clauses), seq


def _fused_support(proof: ResolutionProof) -> list[tuple[int, ...]]:
    """Derived clauses at trivial-derivation granularity, in order.

    A left-linked resolution chain (each step feeding the next derived step as
    its left antecedent, used nowhere else) is one derivation; only its final
    resolvent is reported. This recovers the learned clauses of a solver log
    and drops the chain intermediates, which a replay can never learn
    individually. The empty clause is excluded.

    Replay uses this coarser support: built from _support instead, it
    learned its support in order on none of the refutations checked (see
    docs/DECISIONS.md).
    """
    steps = proof.steps
    uses: dict[int, int] = {}
    for st in steps:
        if not st.is_initial:
            uses[st.left] = uses.get(st.left, 0) + 1
            uses[st.right] = uses.get(st.right, 0) + 1
    derived = [i for i, st in enumerate(steps) if not st.is_initial]
    next_derived: dict[int, int] = {}
    for a, b in zip(derived, derived[1:]):
        next_derived[a] = b
    out = []
    for i in derived:
        if steps[i].clause == ():
            continue
        j = next_derived.get(i)
        if j is not None and steps[j].left == i and uses.get(i, 0) == 1:
            continue  # chain-internal
        out.append(steps[i].clause)
    return out


def res_to_clmm_sequence(
    formula: CnfFormula, proof: ResolutionProof
) -> BranchingSequence:
    """Compile a refutation into an extended branching sequence: for each
    supported derived clause (trivial-derivation granularity), its literals
    followed by a restart marker. Replayed with branching on assigned
    literals and a scheme that stays non-redundant on these conflicts, the
    solver learns those clauses in order and ends in a level-zero conflict."""
    return _replay_sequence(_replay_support(formula, proof))


def _replay_sequence(support: Iterable[tuple[int, ...]]) -> BranchingSequence:
    entries: list = []
    for c in support:
        entries.extend(c)
        entries.append(RESTART)
    return BranchingSequence(tuple(entries))


def _replay_support(
    formula: CnfFormula, proof: ResolutionProof
) -> list[tuple[int, ...]]:
    """The clauses a replay learns, in order: the fused support of the
    normalized refutation, checked against `formula`."""
    return _fused_support(normalize_refutation(ResolutionProof(formula, proof.steps)))


@dataclass(frozen=True)
class ReplayReport:
    """A replay's solve and the support it was built to learn; what it
    learned and the restarts it used are read from the solve."""

    result: SolveResult
    support: tuple[tuple[int, ...], ...]

    @property
    def learned(self) -> tuple[tuple[int, ...], ...]:
        """The clauses of the non-final records, in learning order."""
        return tuple(r.clause for r in self.result.records or () if r.scheme != "final")

    @property
    def restarts_used(self) -> int:
        return self.result.stats.restarts

    @property
    def learned_support_in_order(self) -> bool:
        return self.learned == self.support


def replay_extended_sequence(
    formula: CnfFormula,
    proof: ResolutionProof,
    conflict_budget: int | None = None,
) -> ReplayReport:
    """Run the extended-sequence replay of a refutation under branching on
    assigned literals.

    Each restart-delimited segment of the sequence branches one supported
    clause's literals false; the conflict's decision cut is exactly that
    clause, so the decision scheme relearns the support in order. Raises if
    any learned clause was already known at its conflict (the replay requires
    effectively non-redundant learning)."""
    support = _replay_support(formula, proof)
    cfg = SolverConfig(
        learning="decision",
        sequence=_replay_sequence(support),
        cl_minus_minus=True,
        conflict_budget=conflict_budget,
    )
    result = solve(formula, cfg)
    known = formula.clause_set()
    for r in result.records or ():
        if r.scheme != "final" and r.clause in known:
            raise RuntimeError(
                "learning collided with an already-known clause during replay"
            )
        known.add(r.clause)
    return ReplayReport(result=result, support=tuple(support))


# ------------------------------------------------------------------ RUP oracle


class UnitPropagationChecker:
    """Standalone incremental unit propagation, independent of the search
    engine, for reverse-unit-propagation checks: a clause C follows from the
    known clauses by unit propagation iff assuming every literal of C false
    yields a conflict."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.values = [0] * (num_vars + 1)
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars + 2)]
        self.clauses: list[list[int]] = []
        self.trail: list[int] = []
        self.qhead = 0
        self.base_conflict = False

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause at the base level (no assumptions may be active).

        After a base conflict every query conflicts, so the clause is not
        needed (and propagation may have stopped with literals queued)."""
        if self.base_conflict:
            return
        assert self.qhead == len(self.trail), "add_clause during assumptions"
        values = self.values
        # watch two non-false literals so the invariant holds under the
        # current base assignment: one scan moves the first two to the front.
        # Which two does not matter (docs/DECISIONS.md, "The RUP oracle
        # watches any two non-false literals").
        cl = list(lits)
        found = 0
        for k, l in enumerate(cl):
            if (values[l] if l > 0 else -values[-l]) != -1:
                cl[found], cl[k] = l, cl[found]
                found += 1
                if found == 2:
                    break
        ci = len(self.clauses)
        self.clauses.append(cl)
        # a unit clause's false watch is never visited: from here on its
        # other literal is true at the base, or the base conflicts
        for w in cl[:2]:
            self.watches[2 * w if w > 0 else -2 * w + 1].append(ci)
        if found == 0:
            self.base_conflict = True
        elif found == 1 and values[abs(cl[0])] == 0:  # unit under the base assignment
            lit = cl[0]
            values[abs(lit)] = 1 if lit > 0 else -1
            self.trail.append(lit)
            self.base_conflict = self._propagate()

    def _propagate(self) -> bool:
        """Propagate to fixpoint; True on conflict."""
        values, trail, watches, clauses = self.values, self.trail, self.watches, self.clauses
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            wl = watches[2 * neg if neg > 0 else -2 * neg + 1]
            i = j = 0
            n = len(wl)
            while i < n:
                ci = wl[i]
                i += 1
                cl = clauses[ci]
                if cl[0] == neg:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                val = values[first] if first > 0 else -values[-first]
                if val == 1:
                    wl[j] = ci
                    j += 1
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if (values[lk] if lk > 0 else -values[-lk]) != -1:
                        cl[1], cl[k] = lk, cl[1]
                        watches[2 * lk if lk > 0 else -2 * lk + 1].append(ci)
                        break
                else:
                    wl[j] = ci
                    j += 1
                    if val == -1:
                        while i < n:
                            wl[j] = wl[i]
                            i += 1
                            j += 1
                        del wl[j:]
                        self.qhead = qhead
                        return True
                    values[abs(first)] = 1 if first > 0 else -1
                    trail.append(first)
            del wl[j:]
        self.qhead = qhead
        return False

    def conflicts_when_all_false(self, lits: Iterable[int]) -> bool:
        """Assume every given literal false, propagate, undo; report conflict."""
        if self.base_conflict:
            return True
        values, trail = self.values, self.trail
        mark = len(trail)
        conflict = False
        for l in lits:
            val = values[l] if l > 0 else -values[-l]
            if val == 1:
                conflict = True
                break
            if val == 0:
                values[abs(l)] = -1 if l > 0 else 1
                trail.append(-l)
        if not conflict:
            conflict = self._propagate()
        for pos in range(len(trail) - 1, mark - 1, -1):
            values[abs(trail[pos])] = 0
        del trail[mark:]
        self.qhead = mark
        return conflict


# ------------------------------------------------------------------- proof I/O


def write_proof(proof: ResolutionProof) -> str:
    """Text form, one step per line: "i <lits> 0" for initial clauses and
    "r <left> <right> <pivot> <lits> 0" for resolvents (1-based step refs)."""
    lines = []
    for st in proof.steps:
        lits = " ".join(str(l) for l in st.clause)
        body = f"{lits} 0" if lits else "0"
        if st.is_initial:
            lines.append(f"i {body}")
        else:
            lines.append(f"r {st.left + 1} {st.right + 1} {st.pivot} {body}")
    return "\n".join(lines) + "\n"


def parse_proof(text: str, over: CnfFormula) -> ResolutionProof:
    steps: list[ResolutionStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "i":
                body = [int(t) for t in parts[1:]]
                if not body or body[-1] != 0:
                    raise ValueError("missing terminator")
                steps.append(ResolutionStep(canonical_literals(body[:-1])))
            elif parts[0] == "r":
                left, right, pivot = int(parts[1]) - 1, int(parts[2]) - 1, int(parts[3])
                body = [int(t) for t in parts[4:]]
                if not body or body[-1] != 0:
                    raise ValueError("missing terminator")
                if pivot <= 0:
                    raise ValueError(f"pivot {pivot} is not a variable")
                if not (0 <= left < len(steps) and 0 <= right < len(steps)):
                    raise ValueError("step reference out of range")
                steps.append(
                    ResolutionStep(canonical_literals(body[:-1]), left, right, pivot)
                )
            else:
                raise ValueError(f"unknown step kind {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return ResolutionProof(over, tuple(steps))
