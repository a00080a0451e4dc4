import random
from itertools import product

import pytest

from clsat import (
    Clause,
    CnfFormula,
    DimacsError,
    canonical_literals,
    gen_grid,
    gen_gtn,
    parse_dimacs,
    pebbling_to_cnf,
    restrict_simplify,
    satisfies,
    write_dimacs,
)
from conftest import brute_force_satisfiable, random_3cnf


def test_clause_canonical_form():
    assert Clause((2, -1, 2)).literals == (-1, 2)
    assert Clause((3, 1)) == Clause((1, 3))
    assert hash(Clause((1, 3))) == hash(Clause((3, 1)))
    assert Clause(()).is_empty
    with pytest.raises(ValueError):
        Clause((1, -1))
    with pytest.raises(ValueError):
        Clause((0,))


def test_canonical_order_is_variable_then_sign():
    for taut in ((5, -5), (-5, 5), (5, 2, -5)):
        with pytest.raises(ValueError, match="contains both -5 and 5"):
            canonical_literals(taut)
    with pytest.raises(ValueError, match="0 is not a literal"):
        canonical_literals((3, 0, -1))
    assert canonical_literals((3, -2, 1)) == (1, -2, 3)


def test_canonical_tuple_is_returned_as_is():
    # an already-canonical tuple of ints comes back as it is; anything else
    # is rebuilt from int()
    c = (1, -2, 3)
    assert canonical_literals(c) is c
    assert canonical_literals(("3", "-2", "1")) == (1, -2, 3)
    assert canonical_literals([1, -2, 3]) == c


def test_formula_rejects_out_of_range_literal():
    with pytest.raises(ValueError):
        CnfFormula(2, [(1, 3)])
    with pytest.raises(ValueError):
        CnfFormula(2, [(-3,)])
    with pytest.raises(ValueError, match="^num_vars must be nonnegative$"):
        CnfFormula(-1, [])


def test_parse_dimacs_basic():
    f = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")
    assert f.num_vars == 2
    assert [c.literals for c in f.clauses] == [(1, -2), (2,)]


def test_parse_dimacs_empty_clause():
    f = parse_dimacs("p cnf 1 1\n0\n")
    assert f.clauses[0].is_empty


def test_parse_dimacs_tautology_rejected():
    with pytest.raises(DimacsError) as e:
        parse_dimacs("p cnf 2 1\n1 -1 0\n")
    assert "line 2" in str(e.value)


def test_parse_dimacs_errors_name_lines():
    with pytest.raises(DimacsError, match="line 1"):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(DimacsError, match="line 2"):
        parse_dimacs("p cnf 1 1\n2 0\n")
    with pytest.raises(DimacsError, match="terminator"):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(DimacsError, match="clause before header"):
        parse_dimacs("1 0\n")
    with pytest.raises(DimacsError, match="declares 2 clauses"):
        parse_dimacs("p cnf 2 2\n1 0\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p cnf 1 1\np cnf 1 1\n1 0\n", 2, "duplicate header"),
        ("p cnf x 1\n1 0\n", 1, 'malformed header: "p cnf x 1"'),
        ("c c\np cnf 1 -1\n", 2, 'malformed header: "p cnf 1 -1"'),
        ("p cnf 1 1\n1 a 0\n", 2, 'bad literal token "a"'),
        ("c only a comment\n", 1, "missing header"),
        ("", 1, "missing header"),
        ("c x\nc y\np cnf 2 2\n1 0\n", 3, "header declares 2 clauses but 1 found"),
    ],
)
def test_parse_dimacs_rejects_with_line(text, line, message):
    with pytest.raises(DimacsError) as e:
        parse_dimacs(text)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "text, line, char",
    [
        ("p cnf 10 1\n1_0 0\n", 2, "_"),
        ("p cnf 1_0 1\n1 0\n", 1, "_"),
        ("c x\np cnf 2 1\n\u0661 0\n", 3, "\u0661"),
        ("p cnf 2 1\n1\u00a02 0\n", 2, "\u00a0"),
    ],
)
def test_parse_dimacs_reads_only_ascii_without_underscores(text, line, char):
    # int() would read "1_0" as 10 and the Arabic-Indic digit one as 1, and
    # str.split() splits on a no-break space
    with pytest.raises(DimacsError) as e:
        parse_dimacs(text)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: character {char!r} is not allowed"
    # comment lines are skipped before the check, and a plus sign still reads
    assert parse_dimacs("c \u00e9\np cnf 2 1\n+1 0\n").clauses == (Clause([1]),)


def test_parse_dimacs_comments_multiline_and_bytes():
    text = "c a comment\np cnf 3 2\nc another\n1 2\n3 0\n-1 0\n"
    f = parse_dimacs(text.encode("ascii"))
    assert [c.literals for c in f.clauses] == [(1, 2, 3), (-1,)]
    assert parse_dimacs("p cnf 2 2\n1 1 0\n1 -2 0\n").clauses[0].literals == (1,)


def test_write_dimacs_single_unit():
    assert write_dimacs(CnfFormula(1, [(1,)])) == "p cnf 1 1\n1 0\n"


def test_roundtrip_gtn5():
    f = gen_gtn(5)
    assert parse_dimacs(write_dimacs(f)) == f


def test_roundtrip_random_3cnf():
    f = random_3cnf(30, 100, seed=42)
    g = parse_dimacs(write_dimacs(f))
    assert g.num_vars == f.num_vars
    assert [c.literals for c in g.clauses] == [c.literals for c in f.clauses]


def test_restrict_simplify_examples():
    f = CnfFormula(2, [(1, 2), (-1,)])
    r = restrict_simplify(f, {1: False})
    assert [c.literals for c in r.clauses] == [(2,)]

    f = CnfFormula(1, [(1,)])
    r = restrict_simplify(f, {1: False})
    assert [c.literals for c in r.clauses] == [()]


def test_restrict_simplify_two_layer_grid():
    # assigning both apex variables false leaves the four two-literal
    # precedence residuals plus the two source clauses
    f = pebbling_to_cnf(gen_grid(2))
    r = restrict_simplify(f, {5: False, 6: False})
    got = sorted(c.literals for c in r.clauses)
    assert got == sorted(
        [(1, 2), (3, 4), (-1, -3), (-1, -4), (-2, -3), (-2, -4)]
    )


def test_restrict_rejects_unknown_variable():
    with pytest.raises(ValueError):
        restrict_simplify(CnfFormula(1, [(1,)]), {2: True})


def test_restrict_composition_and_subclause_property():
    rng = random.Random(5)
    for seed in range(20):
        f = random_3cnf(12, 30, seed=seed)
        vs = rng.sample(range(1, 13), 6)
        rho1 = {v: rng.random() < 0.5 for v in vs[:3]}
        rho2 = {v: rng.random() < 0.5 for v in vs[3:]}
        combined = dict(rho1)
        combined.update(rho2)
        a = restrict_simplify(restrict_simplify(f, rho1), rho2)
        b = restrict_simplify(f, combined)
        assert [c.literals for c in a.clauses] == [c.literals for c in b.clauses]
        originals = [set(c.literals) for c in f.clauses]
        for c in a.clauses:
            assert any(set(c.literals) <= o for o in originals)


def test_satisfies():
    rows = [
        ([(1, 2), (-3,)], {1: True, 2: False, 3: False}, True),
        ([(1, 2), (-3,)], {1: False, 2: False, 3: False}, False),
        # partial models: an absent variable makes neither literal true
        ([(1, 2), (-3,)], {2: True, 3: False}, True),
        ([(1, 2), (-3,)], {1: True}, False),
        ([(1, 2), (-3,)], {}, False),
        ([], {}, True),
        # the empty clause holds no literal a model can make true
        ([(1,), ()], {1: True}, False),
        # 1 and 0 compare equal to True and False
        ([(1, 2), (-3,)], {1: 1, 2: 0, 3: 0}, True),
        ([(1, 2), (-3,)], {1: 0, 2: 0, 3: 0}, False),
        ([(-1, 2), (3,)], {1: 0, 3: 1}, True),
        # variables the formula does not use change nothing
        ([(1, 2), (-3,)], {1: True, 3: False, 4: False, 9: True}, True),
        ([(1, 2), (-3,)], {1: False, 2: False, 3: False, 7: True}, False),
    ]
    for clauses, model, expected in rows:
        assert satisfies(CnfFormula(3, clauses), model) is expected, (clauses, model)


def _product_satisfiable(formula: CnfFormula) -> bool:
    """The brute-force oracle as it was before the bitmask enumeration: every
    tuple of truth values, each clause tested literal by literal."""
    clauses = [c.literals for c in formula.clauses]
    for bits in product((False, True), repeat=formula.num_vars):
        if all(any((l > 0) == bits[abs(l) - 1] for l in cl) for cl in clauses):
            return True
    return False


def test_brute_force_oracle_matches_product_enumeration():
    rng = random.Random(1107)
    corpus = [CnfFormula(0, []), CnfFormula(0, [()]), CnfFormula(2, [(1,), ()])]
    for _ in range(600):
        n = rng.randint(1, 10)
        clauses = set()
        for _ in range(rng.randint(0, 5 * n)):
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
            clauses.add(tuple(sorted((v if rng.random() < 0.5 else -v for v in vs), key=abs)))
        corpus.append(CnfFormula(n, sorted(clauses)))
    for layers in (2, 3):
        f = pebbling_to_cnf(gen_grid(layers))
        corpus.append(f)
        corpus += [CnfFormula(f.num_vars, f.clauses[:k] + f.clauses[k + 1 :]) for k in range(f.size)]
    corpus.append(gen_gtn(3))
    outcomes = [brute_force_satisfiable(f) for f in corpus]
    assert outcomes == [_product_satisfiable(f) for f in corpus]
    assert 100 < sum(outcomes) < len(corpus) - 100
