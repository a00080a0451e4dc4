"""Backtracking search engine: DPLL and clause learning with guided branching.

The solver runs two-watched-literal unit propagation over a trail of
assignments. Branching follows an optional branching sequence (each entry
names a literal that is set FALSE first; assigned variables are skipped),
falling back to a deterministic activity heuristic once the sequence is
exhausted: the free literal of highest activity, ties to the lower variable
and then to the negative literal. Before the first bump that is the lowest
free variable, negated; after it, the pick is the top of a lazy binary heap
that backjumps refill (docs/DECISIONS.md). Propagation, decisions and
backjumps work on the trail arrays in place, with no call per literal, so
that plain DPLL costs little more than its bookkeeping. With learning
enabled, every conflict is analyzed through a conflict graph, one clause is
learned under the configured scheme, and the solver backjumps; with learning
disabled the search is plain DPLL with chronological backtracking.

A solver instance is single-threaded and must not be shared mid-solve;
separate instances over the same (immutable) formula may run concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Callable, Iterable

from . import conflict as _ca
from .conflict import ConflictGraph, LearnedClauseRecord, TrivialDerivation
from .formula import CnfFormula

__all__ = [
    "RESTART",
    "BranchingSequence",
    "SolverConfig",
    "SolveStats",
    "SolveResult",
    "Solver",
    "solve",
    "parse_sequence",
    "write_sequence",
]


class _RestartMarker:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "RESTART"


RESTART = _RestartMarker()

LEARNING_SCHEMES = ("none", "decision", "relsat", "first_uip", "first_new_cut")


@dataclass(frozen=True)
class BranchingSequence:
    """Ordered branching entries: literals (possibly repeated) and restart
    markers. The size of a sequence counts literal entries only."""

    entries: tuple = ()

    def __post_init__(self):
        for e in self.entries:
            if e is not RESTART and (not isinstance(e, int) or e == 0):
                raise ValueError(f"bad sequence entry {e!r}")

    def __len__(self) -> int:
        return sum(1 for e in self.entries if e is not RESTART)

    def literals(self) -> list[int]:
        return [e for e in self.entries if e is not RESTART]

    @property
    def restart_count(self) -> int:
        return sum(1 for e in self.entries if e is RESTART)

    @property
    def has_restarts(self) -> bool:
        return any(e is RESTART for e in self.entries)


def parse_sequence(text: str) -> BranchingSequence:
    """Parse the .seq format: one entry per line, a signed integer for a
    literal, "R" for a restart marker, "#" for comments."""
    entries: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "R":
            entries.append(RESTART)
        elif re.fullmatch(r"-?\d+", line):
            lit = int(line)
            if lit == 0:
                raise ValueError(f"line {lineno}: 0 is not a literal")
            entries.append(lit)
        else:
            raise ValueError(f"line {lineno}: bad sequence entry {line!r}")
    return BranchingSequence(tuple(entries))


def write_sequence(seq: BranchingSequence) -> str:
    return "".join(("R\n" if e is RESTART else f"{e}\n") for e in seq.entries)


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings. An unknown scheme, a combination the solver cannot
    run or a negative budget raises ValueError here, at construction."""

    learning: str = "first_uip"
    sequence: BranchingSequence | None = None
    cl_minus_minus: bool = False
    conflict_budget: int | None = None
    decision_budget: int | None = None
    log_proof: bool = True
    graph_sink: Callable[[ConflictGraph], None] | None = None

    def __post_init__(self):
        if self.learning not in LEARNING_SCHEMES:
            raise ValueError(f"unknown learning scheme {self.learning!r}")
        if self.cl_minus_minus and self.learning == "none":
            raise ValueError("branching on assigned literals requires learning")
        if self.sequence is not None and self.sequence.has_restarts:
            if self.learning == "none":
                raise ValueError("restart markers require learning")
            if not self.cl_minus_minus:
                raise ValueError("restart markers require the assigned-branch mode")
        for name in ("conflict_budget", "decision_budget"):
            budget = getattr(self, name)
            if budget is not None and budget < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    max_level: int = 0
    fallback_decisions: int = 0
    restarts: int = 0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    status is "SAT" (model is total over all variables), "UNSAT", or
    "BUDGET_EXCEEDED". With learning and proof logging enabled, records holds
    one learned-clause record per conflict; for UNSAT it ends with the
    level-zero record whose clause is empty, and constitutes the refutation
    trace consumed by the proof bridge.
    """

    status: str
    model: dict[int, bool] | None
    records: tuple[LearnedClauseRecord, ...] | None
    stats: SolveStats

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"

    @property
    def is_unsat(self) -> bool:
        return self.status == "UNSAT"


class Solver:
    def __init__(self, formula: CnfFormula, config: SolverConfig | None = None):
        cfg = config or SolverConfig()
        self.cfg = cfg
        self.formula = formula
        n = formula.num_vars
        self.num_vars = n
        self.values = [0] * (n + 1)  # 0 unassigned, 1 true, -1 false (by variable)
        self.levels = [0] * (n + 1)
        self.reasons: list[int | None] = [None] * (n + 1)
        self.positions = [0] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # watch-ordered literal lists (propagate permutes them in place) and,
        # by the same index, each clause's canonical tuple
        self.clauses: list[list[int]] = []
        self.canonical_clauses: list[tuple[int, ...]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 2)]
        # canonical clauses held, input then learned; only FirstNewCut reads it
        self.known = formula.clause_set() if cfg.learning == "first_new_cut" else None
        self.stats = SolveStats()
        self.records: list[LearnedClauseRecord] = []
        self.activity = [0.0] * (2 * n + 2)
        self.act_inc = 1.0
        self._activity_touched = False
        self._low_free = 1
        # lazy fallback heap, built at the first pick after a bump
        self._heap: list[tuple[float, int, int]] | None = None
        self._dpll_levels: list[bool] = []  # entry k: level k + 1's branch is flipped
        self._seq = tuple(cfg.sequence.entries) if cfg.sequence else ()
        for k, e in enumerate(self._seq, start=1):
            if e is not RESTART and abs(e) > n:
                raise ValueError(f"sequence entry {k} names unknown variable {abs(e)}")
        self._seq_pos = 0
        self._finished = False
        # the first input clause that is empty or a unit against an earlier
        # unit: solve meets it at level zero unless propagation conflicts first
        self._input_conflict: int | None = None
        for clause in formula.clauses:
            lits = clause.literals
            ci = self._add_clause(lits, list(lits))
            if len(lits) > 1:
                continue
            val = self.lit_value(lits[0]) if lits else -1
            if val == 0:
                self._enqueue(lits[0], ci)
            elif val < 0 and self._input_conflict is None:
                self._input_conflict = ci

    # ------------------------------------------------------------------ state
    @property
    def current_level(self) -> int:
        return len(self.trail_lim)

    def lit_value(self, lit: int) -> int:
        v = self.values[abs(lit)]
        return v if lit > 0 else -v

    def reason_literals(self, var: int) -> tuple[int, ...] | None:
        ci = self.reasons[var]
        return None if ci is None else self.canonical_clauses[ci]

    def model(self) -> dict[int, bool]:
        return {v: self.values[v] > 0 for v in range(1, self.num_vars + 1)}

    # ------------------------------------------------------------- clause DB
    def _add_clause(self, clause: tuple[int, ...], lits: list[int]) -> int:
        """Store a canonical clause with its literals in watch order, and watch
        the first two; the callers assign units and note falsified clauses."""
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.canonical_clauses.append(clause)
        if len(lits) > 1:
            w0, w1 = lits[0], lits[1]
            self.watches[2 * w0 if w0 > 0 else -2 * w0 + 1].append(ci)
            self.watches[2 * w1 if w1 > 0 else -2 * w1 + 1].append(ci)
        return ci

    # ------------------------------------------------------------ propagation
    def _enqueue(self, lit: int, reason: int) -> None:
        v = abs(lit)
        self.values[v] = 1 if lit > 0 else -1
        self.levels[v] = self.current_level
        self.reasons[v] = reason
        self.positions[v] = len(self.trail)
        self.trail.append(lit)
        self.stats.propagations += 1

    def propagate(self) -> int | None:
        """Run unit propagation to fixpoint; return a falsified clause index
        or None. Every implied literal is recorded with its implying clause."""
        trail = self.trail
        qhead = self.qhead
        values = self.values
        levels = self.levels
        reasons = self.reasons
        positions = self.positions
        clauses = self.clauses
        watches = self.watches
        level = len(self.trail_lim)  # propagation never opens a level
        implied = 0
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            neg = -lit
            wl = watches[2 * lit + 1 if lit > 0 else -2 * lit]  # the watch list of neg
            i = j = 0
            nw = len(wl)
            while i < nw:
                ci = wl[i]
                i += 1
                cl = clauses[ci]
                if cl[0] == neg:
                    cl[0] = cl[1]
                    cl[1] = neg
                w0 = cl[0]
                v0 = values[w0] if w0 > 0 else -values[-w0]
                if v0 == 1:
                    wl[j] = ci
                    j += 1
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    vk = values[lk] if lk > 0 else -values[-lk]
                    if vk != -1:
                        cl[1] = lk
                        cl[k] = neg
                        watches[2 * lk if lk > 0 else -2 * lk + 1].append(ci)
                        break
                else:
                    # no other literal to watch: the clause is unit or false
                    wl[j] = ci
                    j += 1
                    if v0 == -1:
                        while i < nw:
                            wl[j] = wl[i]
                            i += 1
                            j += 1
                        del wl[j:]
                        self.qhead = qhead
                        self.stats.propagations += implied
                        return ci
                    if w0 > 0:
                        values[w0] = 1
                        v = w0
                    else:
                        v = -w0
                        values[v] = -1
                    levels[v] = level
                    reasons[v] = ci
                    positions[v] = len(trail)
                    trail.append(w0)
                    implied += 1
            del wl[j:]
        self.qhead = qhead
        self.stats.propagations += implied
        return None

    # -------------------------------------------------------------- trail ops
    def _decide(self, lit: int) -> None:
        """Open a new decision level with lit as its reason-less branch."""
        trail = self.trail
        trail_lim = self.trail_lim
        trail_lim.append(len(trail))
        level = len(trail_lim)
        if level > self.stats.max_level:
            self.stats.max_level = level
        v = abs(lit)
        self.values[v] = 1 if lit > 0 else -1
        self.levels[v] = level
        self.reasons[v] = None
        self.positions[v] = len(trail)
        trail.append(lit)

    def backjump(self, level: int) -> None:
        """Unwind the trail to the given decision level (no-op if already
        there or lower). Learned clauses are untouched. While the fallback
        heap exists, both literals of every unassigned variable go back in
        with their current activity."""
        trail_lim = self.trail_lim
        if level >= len(trail_lim):
            return
        keep = trail_lim[level]
        trail = self.trail
        values = self.values
        reasons = self.reasons
        heap = self._heap
        if heap is None:
            low = self._low_free
            for lit in trail[keep:]:
                v = lit if lit > 0 else -lit
                values[v] = 0
                reasons[v] = None
                if v < low:
                    low = v
            self._low_free = low
        else:
            act = self.activity
            for lit in trail[keep:]:
                v = lit if lit > 0 else -lit
                values[v] = 0
                reasons[v] = None
                heappush(heap, (-act[2 * v + 1], v, 0))
                heappush(heap, (-act[2 * v], v, 1))
        del trail[keep:]
        del trail_lim[level:]
        del self._dpll_levels[level:]
        self.qhead = keep

    def restart(self) -> None:
        self.stats.restarts += 1
        self.backjump(0)

    # -------------------------------------------------------------- branching
    def _next_decision(self):
        """Consume sequence entries (skipping assigned variables, unless the
        assigned-branch mode turns an entry contradicting an implied literal
        into a clash); fall back to the activity heuristic when the sequence
        is exhausted.

        Returns ("decide", lit), ("fallback", lit), ("clash", lit) or
        ("restart", None).
        """
        seq = self._seq
        while self._seq_pos < len(seq):
            e = seq[self._seq_pos]
            self._seq_pos += 1
            if e is RESTART:
                return ("restart", None)
            v = abs(e)
            val = self.values[v]
            if val == 0:
                return ("decide", -e)
            implied = self.reasons[v] is not None
            if self.cfg.cl_minus_minus and implied and self.lit_value(e) == 1:
                return ("clash", -e)
            # assigned consistently, a decision, or plain mode: skip the entry
        if not self._activity_touched:
            v = self._low_free
            while self.values[v] != 0:
                v += 1
            self._low_free = v
            return ("fallback", -v)
        heap = self._heap
        if heap is None or len(heap) > 8 * self.num_vars:
            # built at the first pick after a bump or a rescale, and rebuilt
            # once entries of assigned variables make up most of it
            heap = self._heap = self._build_heap()
        values = self.values
        # a free literal's stale entries sort after its current one, since
        # activity only grows between rescales: the first free top is current.
        # The pick stays in the heap and leaves as assigned at a later pick.
        while values[heap[0][1]]:
            heappop(heap)
        _, v, pos = heap[0]
        return ("fallback", v if pos else -v)

    def _build_heap(self) -> list[tuple[float, int, int]]:
        """One entry (-activity, variable, 0 negative / 1 positive) per free
        literal; the heap's minimum is the highest activity, then the lowest
        variable, then the negative literal."""
        act = self.activity
        values = self.values
        heap = []
        for v in range(1, self.num_vars + 1):
            if values[v] == 0:
                heap.append((-act[2 * v + 1], v, 0))
                heap.append((-act[2 * v], v, 1))
        heapify(heap)
        return heap

    def _consume_restart_marker(self) -> None:
        """In the assigned-branch replay mode, a restart marker directly after
        a conflict fires before any further propagation: the construction
        learns one clause per sequence segment, then restarts immediately
        (only that mode has restart markers)."""
        if self._seq_pos < len(self._seq) and self._seq[self._seq_pos] is RESTART:
            self._seq_pos += 1
            self.restart()

    def _bump(self, lits: Iterable[int]) -> None:
        inc = self.act_inc
        act = self.activity
        for l in lits:
            act[2 * l if l > 0 else -2 * l + 1] += inc
        self._activity_touched = True

    def _decay_activity(self) -> None:
        self.act_inc /= 0.95
        if self.act_inc > 1e100:
            self.activity = [a * 1e-100 for a in self.activity]
            self.act_inc *= 1e-100
            # rounding can turn distinct activities into ties: rebuild the heap
            self._heap = None

    # ------------------------------------------------------------- learning
    def _analyze_and_learn(self, confl: int | None, clash: int | None) -> None:
        conflicting = self.canonical_clauses[confl] if confl is not None else None
        sink = self.cfg.graph_sink
        scheme = self.cfg.learning
        redundant = False
        if scheme == "first_uip":
            # the trail walk builds only the nodes the cut reads
            g, cut = _ca.first_uip_cut(self, conflicting, clash_decision=clash)
            if sink is not None:
                sink(_ca.build_conflict_graph(self, conflicting, clash_decision=clash))
        else:
            g = _ca.build_conflict_graph(self, conflicting, clash_decision=clash)
            if sink is not None:
                sink(g)
            if scheme == "decision":
                cut = _ca.scheme_decision(g)
            elif scheme == "relsat":
                cut = _ca.scheme_relsat(g)
            else:
                cut, redundant = _ca.scheme_first_new_cut(g, self.known)
        clause = _ca.cut_to_clause(g, cut)
        derivation = _ca.extract_trivial_derivation(g, cut, clause)
        self._bump(chain(clause, derivation.base, *(ant for ant, _ in derivation.steps)))
        self._decay_activity()
        backjump_level = self._install_learned(clause, g)
        if self.known is not None:
            self.known.add(clause)
        if self.cfg.log_proof:
            self.records.append(
                LearnedClauseRecord(derivation, scheme, backjump_level, redundant)
            )
        self.stats.learned_clauses += 1

    def _install_learned(self, clause: tuple[int, ...], g: ConflictGraph) -> int:
        """Backjump, add the learned clause and return the backjump level.

        One sort by descending level gives the watch order and the level. An
        asserting clause (one literal at the conflict level, sorted first)
        goes to the highest level of the others, or zero, and asserts that
        literal with the clause as its reason. After a CL-- clash the literal
        is the trail literal the branch contradicted and is still true, so
        the clause is installed satisfied (docs/DECISIONS.md). A non-asserting
        clause backtracks to one below the conflict level and flips that
        level's decision, the first trail literal of the level.
        """
        level = g.level
        lvl = g.conflict_level
        ordered = sorted(clause, key=lambda x: -level[-x])
        bt = level[-ordered[1]] if len(ordered) > 1 else 0
        if bt < lvl:
            self.backjump(bt)
            ci = self._add_clause(clause, ordered)
            if self.lit_value(ordered[0]) == 0:
                self._enqueue(ordered[0], ci)
            return bt
        flip_of = self.trail[self.trail_lim[lvl - 1]]
        self.backjump(lvl - 1)
        self._add_clause(clause, ordered)
        # every decision at the conflict level is unassigned by the backjump
        assert self.values[abs(flip_of)] == 0
        self._decide(-flip_of)
        return lvl - 1

    def _final_record(self, confl: int) -> None:
        if not self.cfg.log_proof:
            return
        conflicting = self.canonical_clauses[confl]
        if conflicting:
            g = _ca.build_conflict_graph(self, conflicting)
            if self.cfg.graph_sink is not None:
                self.cfg.graph_sink(g)
            # no decisions at level zero, so the decision cut's clause is empty
            derivation = _ca.extract_trivial_derivation(g, _ca.scheme_decision(g))
        else:
            derivation = TrivialDerivation(base=(), steps=(), result=())
        self.records.append(LearnedClauseRecord(derivation, scheme="final"))

    # ---------------------------------------------------------------- dpll
    def _chrono_backtrack(self) -> bool:
        """Chronological backtracking: flip the deepest untried branch.
        Returns False when the whole tree is exhausted (UNSAT), level zero
        included."""
        dpll_levels = self._dpll_levels
        k = len(dpll_levels) - 1  # entry k is the branch of level k + 1
        while k >= 0 and dpll_levels[k]:
            k -= 1
        if k < 0:
            return False
        lit = self.trail[self.trail_lim[k]]  # the level's branch opens it
        self.backjump(k)
        self._decide(-lit)
        dpll_levels.append(True)
        return True

    # ---------------------------------------------------------------- solve
    def _result(self, status: str) -> SolveResult:
        self._finished = True
        model = self.model() if status == "SAT" else None
        records = tuple(self.records) if self.cfg.log_proof else None
        if self.cfg.learning == "none":
            records = None
        return SolveResult(status=status, model=model, records=records, stats=self.stats)

    def solve(self) -> SolveResult:
        if self._finished:
            raise RuntimeError("solver instances are single-use")
        cfg = self.cfg
        stats = self.stats
        learning = cfg.learning != "none"
        confl = self.propagate()
        if confl is None:
            confl = self._input_conflict
        while True:
            clash = None
            while confl is None:
                if len(self.trail) == self.num_vars:
                    return self._result("SAT")
                kind, lit = self._next_decision()
                if kind == "restart":
                    self.restart()
                elif cfg.decision_budget is not None and stats.decisions >= cfg.decision_budget:
                    return self._result("BUDGET_EXCEEDED")
                else:
                    stats.decisions += 1
                    if kind == "fallback":
                        stats.fallback_decisions += 1
                    if kind == "clash":
                        clash = lit
                        break
                    self._decide(lit)
                    if not learning:
                        self._dpll_levels.append(False)
                confl = self.propagate()
            # a conflict: a falsified clause, or a CL-- branch that
            # contradicts an implied trail literal
            stats.conflicts += 1
            if cfg.conflict_budget is not None and stats.conflicts > cfg.conflict_budget:
                return self._result("BUDGET_EXCEEDED")
            if not learning:
                if not self._chrono_backtrack():
                    return self._result("UNSAT")
            else:
                if clash is not None:
                    # the clash opens an empty level: its branch contradicts the trail
                    self.trail_lim.append(len(self.trail))
                    stats.max_level = max(stats.max_level, len(self.trail_lim))
                elif not self.trail_lim:
                    self._final_record(confl)
                    return self._result("UNSAT")
                self._analyze_and_learn(confl, clash)
                self._consume_restart_marker()
            confl = self.propagate()

    # ---------------------------------------------------------------- debug
    def validate_trail(self) -> None:
        """Assert the trail invariants; raises AssertionError on violation."""
        seen: set[int] = set()
        level = 0
        for pos, lit in enumerate(self.trail):
            v = abs(lit)
            assert v not in seen, f"variable {v} appears twice on the trail"
            seen.add(v)
            assert self.lit_value(lit) == 1
            assert self.positions[v] == pos
            lv = self.levels[v]
            assert lv >= level, "decision levels must be nondecreasing"
            level = lv
            ci = self.reasons[v]
            if ci is None:
                # a branch opens its level: it sits at that level's boundary
                assert lv > 0 and self.trail_lim[lv - 1] == pos
            else:
                reason = self.clauses[ci]
                assert lit in reason, "implied literal missing from its reason"
                others = [l for l in reason if l != lit]
                for l in others:
                    assert self.lit_value(l) == -1, "reason literal not falsified"
                    assert self.positions[abs(l)] < pos, "reason literal assigned later"
                expected = max((self.levels[abs(l)] for l in others), default=0)
                assert lv == expected, "implied level is not the max reason level"


def solve(formula: CnfFormula, config: SolverConfig | None = None) -> SolveResult:
    """Solve a formula under the given configuration (fresh solver instance)."""
    return Solver(formula, config).solve()
