"""Propositional core: literals, clauses, CNF formulas, assignments, DIMACS I/O.

Literals follow the DIMACS convention: a variable is a positive integer v,
its two literals are v and -v. A partial assignment maps variables to bools;
a variable absent from the mapping is unassigned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

Literal = int
Assignment = dict[int, bool]


class DimacsError(ValueError):
    """Raised on malformed DIMACS input, carrying the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def canonical_literals(literals: Iterable[int]) -> tuple[int, ...]:
    """Sorted, deduplicated literal tuple.

    Rejects the literal 0 and complementary pairs (tautological clauses).
    The canonical order is by variable index, so two clauses are equal as
    sets iff their canonical tuples are equal. Sorting by variable alone is
    enough: a clause that passes has one literal per variable, and a
    complementary pair, in either order, ends up adjacent. A tuple of ints
    that is already canonical (variables strictly increasing from 1) passes
    that check in one pass and is returned as it is.
    """
    if type(literals) is tuple:
        prev = 0
        for l in literals:
            if type(l) is not int:
                break
            v = l if l > 0 else -l
            if v <= prev:
                break
            prev = v
        else:
            return literals
    lits = sorted(set(map(int, literals)), key=abs)
    if lits and lits[0] == 0:
        raise ValueError("0 is not a literal")
    for a, b in zip(lits, lits[1:]):
        if a == -b:
            raise ValueError(
                f"tautological clause: contains both {min(a, b)} and {max(a, b)}"
            )
    return tuple(lits)


class Clause:
    """A disjunction of literals, stored sorted and deduplicated.

    Equality and hashing are by literal set. The empty clause is a valid
    value (the unsatisfiable disjunction); tautologies are rejected at
    construction.
    """

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[int] = ()):
        self.literals = canonical_literals(literals)

    @classmethod
    def _trusted(cls, canonical: tuple[int, ...]) -> "Clause":
        """Wrap an already-canonical literal tuple without re-validation.

        For generators that construct clauses in canonical order from
        guaranteed-distinct variables; everything else goes through the
        validating constructor.
        """
        c = object.__new__(cls)
        c.literals = canonical
        return c

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Clause) and self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __contains__(self, lit: int) -> bool:
        return lit in self.literals

    def __repr__(self) -> str:
        return f"Clause({list(self.literals)!r})"

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def max_var(self) -> int:
        # canonical order is by variable, so the last literal has the largest
        return abs(self.literals[-1]) if self.literals else 0


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula: a variable count and an ordered list of clauses.

    Variables are exactly 1..num_vars; every clause may only mention those.
    The formula's size is its clause count.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __init__(self, num_vars: int, clauses: Iterable[Clause | Iterable[int]]):
        cls = tuple(c if isinstance(c, Clause) else Clause(c) for c in clauses)
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        for c in cls:
            if c.max_var() > num_vars:
                raise ValueError(
                    f"clause {list(c.literals)} exceeds num_vars={num_vars}"
                )
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", cls)

    @property
    def size(self) -> int:
        return len(self.clauses)

    def clause_set(self) -> set[tuple[int, ...]]:
        return {c.literals for c in self.clauses}


def satisfies(formula: CnfFormula, model: Mapping[int, bool]) -> bool:
    """True iff the (possibly partial) model satisfies every clause.

    A literal l is true iff model.get(abs(l)) == (l > 0): a variable absent
    from the model, or mapped to anything equal to neither True nor False,
    makes neither of its literals true, and 1 and 0 count as True and False.
    Only positive keys are variables. The true literals are collected once,
    and a clause is satisfied iff it meets them (docs/DECISIONS.md, "Models
    are checked by set intersection").
    """
    true = {
        v if val == True else -v
        for v, val in model.items()
        if v > 0 and (val == True or val == False)
    }
    misses = true.isdisjoint
    for c in formula.clauses:
        if misses(c.literals):
            return False
    return True


def restrict_simplify(formula: CnfFormula, rho: Mapping[int, bool]) -> CnfFormula:
    """Simplified restriction F|rho.

    Clauses with a literal made TRUE by rho are deleted; FALSE literals are
    removed from the remaining clauses (possibly leaving the empty clause).
    """
    for v in rho:
        if not 1 <= v <= formula.num_vars:
            raise ValueError(f"restriction assigns unknown variable {v}")
    out = []
    for c in formula.clauses:
        kept = []
        satisfied = False
        for l in c:
            val = rho.get(abs(l))
            if val is None:
                kept.append(l)
            elif val == (l > 0):
                satisfied = True
                break
        if not satisfied:
            out.append(Clause(kept))
    return CnfFormula(formula.num_vars, out)


def parse_dimacs(text: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF text into a formula.

    Comment lines start with 'c'; the header is "p cnf V C"; clauses are
    0-terminated and may span lines. Errors report the offending line.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("ascii", errors="replace")
    num_vars = num_clauses = -1
    header_line = 0
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars >= 0:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f'malformed header: "{line}"', lineno)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f'malformed header: "{line}"', lineno) from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f'malformed header: "{line}"', lineno)
            header_line = lineno
            continue
        if num_vars < 0:
            raise DimacsError("clause before header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f'bad literal token "{tok}"', lineno) from None
            if lit == 0:
                try:
                    clauses.append(Clause(pending))
                except ValueError as exc:
                    raise DimacsError(str(exc), lineno) from None
                pending = []
                pending_line = 0
                continue
            if abs(lit) > num_vars:
                raise DimacsError(
                    f"literal {lit} exceeds declared variable count {num_vars}", lineno
                )
            if not pending:
                pending_line = lineno
            pending.append(lit)
    if pending:
        raise DimacsError("missing clause terminator 0", pending_line)
    if num_vars < 0:
        raise DimacsError("missing header", 1)
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses but {len(clauses)} found", header_line
        )
    return CnfFormula(num_vars, clauses)


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize a formula; parse_dimacs(write_dimacs(f)) == f."""
    lines = [f"p cnf {formula.num_vars} {formula.size}"]
    for c in formula.clauses:
        lines.append(" ".join(str(l) for l in c.literals) + " 0")
    return "\n".join(lines) + "\n"
