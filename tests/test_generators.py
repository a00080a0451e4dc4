import pytest

from clsat import (
    Clause,
    CnfFormula,
    PebblingGraph,
    PebNode,
    gen_grid,
    gen_gtn,
    gen_random_pebbling,
    gtn_seq,
    gtn_successor_indices,
    gtn_var,
    make_satisfiable,
    parse_pebbling_graph,
    pebbling_to_cnf,
    write_pebbling_graph,
)
from conftest import brute_force_satisfiable


def test_grid_shapes():
    g1 = gen_grid(1)
    assert len(g1.nodes) == 1 and g1.target == 1
    assert g1.num_label_vars() == 2

    g4 = gen_grid(4)
    assert len(g4.nodes) == 10
    assert g4.num_label_vars() == 20
    assert g4.sources() == {1, 2, 3, 4}
    # apex predecessors are the two adjacent nodes below
    assert g4.node(10).preds == (8, 9)
    assert g4.heights()[10] == 4

    assert gen_grid(5).num_label_vars() == 30


def test_grid_closed_form_counts():
    for L in range(1, 101):
        g = gen_grid(L)
        assert len(g.nodes) == L * (L + 1) // 2
        assert g.num_label_vars() == L * (L + 1)


def test_grid_cnf_counts():
    f2 = pebbling_to_cnf(gen_grid(2))
    assert f2.num_vars == 6 and f2.size == 8
    for L in range(1, 7):
        f = pebbling_to_cnf(gen_grid(L))
        assert f.size == 2 * L * (L - 1) + L + 2
        assert f.num_vars == L * (L + 1)


def test_precedence_clause_product():
    # one node above predecessors labeled (p1 p2 p3), (q1), (r1 r2):
    # six precedence clauses, one per choice of predecessor variable
    g = PebblingGraph(
        (
            PebNode(1, (1, 2, 3), ()),
            PebNode(2, (4,), ()),
            PebNode(3, (5, 6), ()),
            PebNode(4, (7, 8), (1, 2, 3)),
        ),
        4,
    )
    f = pebbling_to_cnf(g)
    precedence = [c.literals for c in f.clauses if len(c) == 5]
    assert len(precedence) == 6
    assert sorted(precedence) == sorted(
        canon
        for canon in (
            Clause((-p, -4, -r, 7, 8)).literals
            for p in (1, 2, 3)
            for r in (5, 6)
        )
    )
    targets = [c.literals for c in f.clauses if len(c) == 1 and c.literals[0] < 0]
    assert sorted(targets) == [(-8,), (-7,)]


def test_random_pebbling_deterministic_and_valid():
    a = gen_random_pebbling(10, 5, 6, seed=1)
    b = gen_random_pebbling(10, 5, 6, seed=1)
    assert a == b
    c = gen_random_pebbling(10, 5, 6, seed=2)
    assert a != c
    f = pebbling_to_cnf(a)
    # comparable scale to the published randomized instances
    assert f.num_vars <= 48
    for n in a.nodes:
        assert len(n.preds) <= 5
        assert 1 <= len(n.label) <= 6


def test_random_pebbling_minimal_bounds():
    g = gen_random_pebbling(6, 2, 2, seed=3)
    f = pebbling_to_cnf(g)
    assert brute_force_satisfiable(f) is False


def test_pebbling_graph_validation():
    with pytest.raises(ValueError, match="unique sink"):
        pebbling_to_cnf(
            PebblingGraph((PebNode(1, (1,), ()), PebNode(2, (2,), ())), 2)
        )
    with pytest.raises(ValueError, match="two node labels"):
        pebbling_to_cnf(
            PebblingGraph((PebNode(1, (1,), ()), PebNode(2, (1,), (1,))), 2)
        )
    with pytest.raises(ValueError, match="^node ids must be dense and ascending from 1$"):
        pebbling_to_cnf(PebblingGraph((PebNode(1, (1,), ()), PebNode(3, (2,), (1,))), 3))


@pytest.mark.parametrize(
    "generate, args, message",
    [
        (gen_grid, (0,), "^layers must be >= 1$"),
        (gen_random_pebbling, (0, 5, 6, 1), "^nodes must be >= 1$"),
        (gen_random_pebbling, (4, 5, 0, 1), "^max_label must be >= 1$"),
        (gen_random_pebbling, (3, 1, 6, 1), "^max_indegree must be >= 2 for graphs with 3\\+ nodes$"),
        (gen_gtn, (2,), "^n must be >= 3$"),
        (gtn_seq, (2,), "^n must be >= 3$"),
        (make_satisfiable, (CnfFormula(0, []), 0), "^cannot delete from an empty formula$"),
        (make_satisfiable, (CnfFormula(1, [(1,)]), 0, []), "^empty deletion pool$"),
    ],
)
def test_generator_argument_checks(generate, args, message):
    with pytest.raises(ValueError, match=message):
        generate(*args)


def test_gtn_counts():
    f3 = gen_gtn(3)
    assert f3.num_vars == 6 and f3.size == 12
    assert gen_gtn(8).size == 372
    assert gen_gtn(10).size == 775
    for n in (3, 4, 5, 8):
        f = gen_gtn(n)
        assert f.size == n * (n - 1) // 2 + n * (n - 1) * (n - 2) + n
        assert f.num_vars == n * (n - 1)


def test_gtn_var_bijection():
    n = 6
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                seen.add(gtn_var(i, j, n))
    assert seen == set(range(1, n * (n - 1) + 1))
    with pytest.raises(ValueError):
        gtn_var(2, 2, 6)


def test_gt3_unsat_by_enumeration():
    assert brute_force_satisfiable(gen_gtn(3)) is False


def test_gt3_minus_successor_is_satisfiable():
    f = gen_gtn(3)
    pool = gtn_successor_indices(3)
    # deleting the successor clause for element 1 specifically
    stripped = CnfFormula(
        f.num_vars, [c for i, c in enumerate(f.clauses) if i != pool[0]]
    )
    assert brute_force_satisfiable(stripped) is True
    # seeded deletion from the successor pool is satisfiable too
    assert brute_force_satisfiable(make_satisfiable(f, seed=9, pool=pool))


def test_make_satisfiable_deterministic():
    f = pebbling_to_cnf(gen_grid(3))
    a = make_satisfiable(f, seed=4)
    b = make_satisfiable(f, seed=4)
    assert [c.literals for c in a.clauses] == [c.literals for c in b.clauses]
    assert a.size == f.size - 1


def test_make_satisfiable_rejects_pool_outside_formula():
    f = CnfFormula(2, [(1,), (-1,), (2,)])
    for pool in ([7], [-1], [0, 3]):
        with pytest.raises(ValueError, match="outside the formula"):
            make_satisfiable(f, 0, pool=pool)
    assert make_satisfiable(f, 0, pool=[1]).size == 2


def test_two_layer_sat_variant_has_model():
    f = pebbling_to_cnf(gen_grid(2))
    # delete the left source clause (x1 | x2): all-false on that node extends
    stripped = CnfFormula(6, [c for c in f.clauses if c.literals != (1, 2)])
    assert brute_force_satisfiable(stripped) is True


def test_pebbling_graph_file_roundtrip():
    g = gen_random_pebbling(9, 3, 3, seed=5)
    g2 = parse_pebbling_graph(write_pebbling_graph(g))
    assert g2 == g


@pytest.mark.parametrize(
    "text, message",
    [
        ("p peb 1\nn 1 1 |\nt\n", "line 3: target line needs exactly one node id"),
        ("p peb x\nn 1 1 |\nt 1\n", "line 1: invalid literal"),
        ("p peb 1\nn x 1 |\nt 1\n", "line 2: invalid literal"),
        ("p peb 1\nn 1 y |\nt 1\n", "line 2: invalid literal"),
        ("p peb 2\nn 1 1 |\n# c\nn 1 2 |\nt 1\n", "line 4: duplicate node id 1"),
        ("p peb 1\nn 1 1 |\np peb 1\nt 1\n", "line 3: duplicate header"),
        ("p peb 1\nn 1 1 |\nt 1\nt 1\n", "line 4: duplicate target line"),
        ("p peb\nn 1 1 |\nt 1\n", "line 1: malformed header"),
        ("p foo 1\nn 1 1 |\nt 1\n", "line 1: malformed header"),
        ("p peb 1\nn 1 1\nt 1\n", "line 2: node line missing '\\|'"),
        ("p peb 1\nn 1 1 |\nq 1\n", "line 3: unrecognized line 'q 1'"),
        ("p peb 1\nn 1 1 |\n", "^line 1: missing header or target line$"),
        ("n 1 1 |\nt 1\n", "^line 1: missing header or target line$"),
        ("p peb 2\nn 1 1 |\nn 3 2 | 1\nt 3\n", r"^line 1: node ids must cover 1\.\.N$"),
        ("# g\np peb 2\nn 1 1 |\nn 3 2 | 1\nt 3\n", r"^line 2: node ids must cover 1\.\.N$"),
        ("p peb 1\nn 1 |\nt 1\n", "^line 2: node 1 has an empty label$"),
        ("p peb 1\nn 1 -3 |\nt 1\n", "^line 2: node 1 label contains non-variable -3$"),
        ("p peb 2\nn 1 1 | 2\nn 2 2 |\nt 1\n", "^line 2: node 1 has non-topological predecessor 2$"),
        ("p peb 2\nn 2 2 | 1\nn 1 2 |\nt 2\n", "^line 2: variable 2 appears in two node labels$"),
        ("p peb 2\nn 1 1 |\nn 2 2 | 1\n\nt 1\n", r"^line 5: graph must have the target as its unique sink, sinks=\[2\]$"),
    ],
)
def test_pebbling_graph_parse_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_pebbling_graph(text)


def test_heights_recurrence():
    g = gen_random_pebbling(12, 4, 3, seed=8)
    h = g.heights()
    for n in g.nodes:
        if not n.preds:
            assert h[n.id] == 1
        else:
            assert h[n.id] == 1 + max(h[p] for p in n.preds)
