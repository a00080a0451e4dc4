import hashlib
import sys

import pytest

from clsat import (
    PebblingGraph,
    PebNode,
    SolverConfig,
    gen_grid,
    gen_random_pebbling,
    gtn_seq,
    gtn_var,
    peb_seq_1uip,
    pebbling_to_cnf,
    solve,
)

# the published 4-layer grid walkthrough: nodes a..j bottom-up left-right,
# two fresh variables each; the emitted sequence is h1 h2 e1 e2 a1 b1 f1 f2 c1
GRID4_GOLDEN = (15, 16, 9, 10, 1, 3, 11, 12, 5)


def fig4_graph() -> PebblingGraph:
    # the published general walkthrough graph: sources c,f,g,d; a=(a1) above
    # {c,d}; e=(e1 e2 e3) above {f,g}; b=(b1) above {d,e,f}; target t above
    # {a,b}. Ids chosen so equal-height ties order as in the walkthrough.
    return PebblingGraph(
        (
            PebNode(1, (1, 2), ()),          # c
            PebNode(2, (3, 4), ()),          # f
            PebNode(3, (5, 6), ()),          # g
            PebNode(4, (7, 8), ()),          # d
            PebNode(5, (9,), (1, 4)),        # a
            PebNode(6, (10, 11, 12), (2, 3)),  # e
            PebNode(7, (13,), (2, 4, 6)),    # b
            PebNode(8, (14, 15), (5, 7)),    # t
        ),
        8,
    )

FIG4_GOLDEN = (9, 1, 13, 10, 11, 12, 3, 3, 10, 3, 3)


# sha256 prefixes of peb_seq_1uip(...).entries, joined by commas; grids by
# layer count, random graphs by gen_random_pebbling(nodes, indegree, label, seed)
GRID_DIGESTS = {
    2: "6b86b273ff34fce1", 3: "2045701a770ce589", 4: "149cb68ebeae5f77",
    5: "b1d6761ab79a44cc", 6: "e151205c18e4f8d7", 7: "6210953acaa651db",
    8: "aa1f8ea3c21b5655", 9: "48db9ae413f7b9ab", 10: "f7c7ec39f1e45bad",
    11: "125052a499259704", 12: "538848d8df3131d9", 13: "514b9520df5b222b",
    14: "77a5158354b1b216", 15: "451d007afd42170f", 16: "f112b85a697c8b06",
    17: "27d4959d3ea3baa6", 18: "4082deb599716f78", 19: "716dcf5fa40d6806",
    20: "8ef6046f57958651", 21: "6b5107518f42ce1e", 22: "f12afd916ca243b6",
    23: "e1351b3ddf6bea70", 24: "73563b0ac989e7aa", 25: "ab2d49b61ca33092",
    26: "2c4b34a400883aa1", 27: "5eca06400c9abe1e", 28: "4c08289aad25afb1",
    29: "56c3c65a358f0bc9", 30: "858e5bf070977e9a", 31: "629c605d5565dc64",
    32: "bacfdfee61dee173", 33: "20966a99c84072c3", 34: "1ad3c2057519920c",
    35: "6f91b25ea8046dfe", 36: "037399e88e7ac508", 37: "9616818e74dde1be",
    38: "07bf75d12f3d81f4", 39: "c188c030d8797cd1", 40: "eaa66987571c851b",
}
RANDOM_DIGESTS = {
    (8, 3, 2, 1): "bb1b8e51e6e04d06", (10, 4, 3, 2): "e1e0f2544ba42a0d",
    (12, 2, 1, 3): "8b7b23981d9f603a", (14, 3, 2, 4): "bb7fcf47890d94e5",
    (16, 4, 3, 5): "a18980c22122d8d1", (18, 2, 1, 6): "ba3c33b55ccad1a4",
    (20, 3, 2, 7): "2f3bb80980214744", (22, 4, 3, 8): "32b2afb83ff39154",
    (24, 2, 1, 9): "5188c7d4e70af6f7", (26, 3, 2, 10): "8a505f210585ed68",
    (28, 4, 3, 11): "1a3b97d775590967", (30, 2, 1, 12): "b107f233784a8849",
    (32, 3, 2, 13): "a4fc25c839f350a4", (34, 4, 3, 14): "6ed3d4f9322e6bb9",
    (36, 2, 1, 15): "1f54a944ae178ad8", (38, 3, 2, 16): "1dea182b55c68c28",
    (40, 4, 3, 17): "960e6bb3be7fcc8f", (42, 2, 1, 18): "ef889c17288d8b72",
    (44, 3, 2, 19): "32a3cbed530ecd75", (46, 4, 3, 20): "4bafa6bdfb74ec8b",
}


def _seq_digest(graph: PebblingGraph) -> str:
    text = ",".join(map(str, peb_seq_1uip(graph).entries))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_sequence_digests():
    for layers, digest in GRID_DIGESTS.items():
        assert _seq_digest(gen_grid(layers)) == digest, layers
    for (nodes, indegree, label, seed), digest in RANDOM_DIGESTS.items():
        g = gen_random_pebbling(nodes, indegree, label, seed=seed)
        assert _seq_digest(g) == digest, (nodes, indegree, label, seed)


def test_grid4_golden_general():
    assert peb_seq_1uip(gen_grid(4)).entries == GRID4_GOLDEN


def test_fig4_golden():
    assert peb_seq_1uip(fig4_graph()).entries == FIG4_GOLDEN


def test_one_layer_grid_empty_sequence():
    assert peb_seq_1uip(gen_grid(1)).entries == ()


def test_two_and_three_layer_sequences():
    assert peb_seq_1uip(gen_grid(2)).entries == (1,)
    assert peb_seq_1uip(gen_grid(3)).entries == (7, 8, 1, 3)


def test_grid_sequence_size_law():
    # (L-1)^2 literals: linear in node count with bounded ratio
    for L in range(2, 51):
        seq = peb_seq_1uip(gen_grid(L))
        assert len(seq) == (L - 1) ** 2
        assert len(seq) / (L * (L + 1) / 2) <= 2.0


def test_sequence_variables_exist():
    for L in (2, 5, 9):
        g = gen_grid(L)
        nv = g.num_label_vars()
        assert all(1 <= v <= nv for v in peb_seq_1uip(g).literals())
    for n in (3, 5, 8):
        nv = n * (n - 1)
        assert all(1 <= v <= nv for v in gtn_seq(n).literals())


def test_rejects_repeated_labels():
    g = PebblingGraph(
        (PebNode(1, (1, 2), ()), PebNode(2, (3,), ()), PebNode(3, (4, 5), (1, 2))), 3
    )
    assert peb_seq_1uip(g).entries  # sanity: valid graph works
    broken = PebblingGraph(
        (
            PebNode(1, (1, 2), ()),
            PebNode(2, (1,), ()),
            PebNode(3, (4, 5), (1, 2)),
        ),
        3,
    )
    with pytest.raises(ValueError, match="distinct"):
        peb_seq_1uip(broken)


def test_deep_graph_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    seq = peb_seq_1uip(gen_grid(300))
    assert len(seq) == 299**2
    assert sys.getrecursionlimit() == limit


def test_gtn_seq_n4_golden():
    n = 4
    expected_pairs = [
        (2, 1), (3, 1),
        (1, 2), (3, 2),
        (1, 3), (2, 3),
        (1, 4), (2, 4), (3, 4),
        (1, 4), (2, 4), (3, 4),
    ]
    expected = tuple(gtn_var(i, j, n) for i, j in expected_pairs)
    assert gtn_seq(4).entries == expected
    assert len(gtn_seq(4)) == 12


def test_gtn_seq_sizes():
    assert len(gtn_seq(3)) == 6
    for n in (3, 5, 9):
        assert len(gtn_seq(n)) == n * (n - 1)


def test_unsat_completeness_small():
    # guided first-UIP runs refute pebbling formulas without heuristic help
    for L in range(2, 9):
        g = gen_grid(L)
        seq = peb_seq_1uip(g)
        r = solve(pebbling_to_cnf(g), SolverConfig(learning="first_uip", sequence=seq))
        assert r.is_unsat
        assert r.stats.fallback_decisions == 0
        assert r.stats.decisions <= len(seq)
    for seed in (1, 2, 3):
        g = gen_random_pebbling(12, 4, 3, seed=seed)
        seq = peb_seq_1uip(g)
        r = solve(pebbling_to_cnf(g), SolverConfig(learning="first_uip", sequence=seq))
        assert r.is_unsat and r.stats.fallback_decisions == 0
