import hashlib

import pytest

from clsat import (
    RESTART,
    BranchingSequence,
    CnfFormula,
    Solver,
    SolverConfig,
    UnitPropagationChecker,
    check_res_refutation,
    check_trivial,
    cl_to_res,
    derivation_to_proof,
    gen_grid,
    gen_gtn,
    gen_random_pebbling,
    gtn_seq,
    gtn_var,
    parse_sequence,
    peb_seq_1uip,
    pebbling_to_cnf,
    satisfies,
    solve,
    write_proof,
    write_sequence,
)
from conftest import brute_force_satisfiable, random_3cnf, random_sequence, reference_dpll


def test_contradictory_units_unsat_zero_decisions():
    for learning in ("none", "first_uip", "decision", "relsat", "first_new_cut"):
        r = solve(CnfFormula(1, [(1,), (-1,)]), SolverConfig(learning=learning))
        assert r.is_unsat
        assert r.stats.decisions == 0


def test_empty_input_clause():
    r = solve(CnfFormula(1, [(), (1,)]))
    assert r.is_unsat and r.stats.decisions == 0
    assert r.records[-1].clause == ()


def test_propagation_fixpoint_level_zero():
    s = Solver(CnfFormula(1, [(1,)]))
    assert s.propagate() is None
    assert s.trail == [1]
    assert s.levels[1] == 0
    assert s.reason_literals(1) == (1,)
    s.validate_trail()


def test_propagation_conflict_chain():
    s = Solver(CnfFormula(2, [(1,), (-1, 2), (-2,)]))
    confl = s.propagate()
    if confl is None:
        confl = s._input_conflict
    assert confl is not None
    assert s.current_level == 0


def test_gt3_guided_conflict_is_successor_clause():
    # branching both of element 2's potential successors false falsifies the
    # successor clause for j=2 directly
    f = gen_gtn(3)
    s = Solver(f, SolverConfig(learning="first_uip"))
    assert s.propagate() is None
    s._decide(-gtn_var(1, 2, 3))
    s._decide(-gtn_var(3, 2, 3))
    confl = s.propagate()
    assert confl is not None
    successor_j2 = tuple(sorted((gtn_var(1, 2, 3), gtn_var(3, 2, 3))))
    assert s.canonical_clauses[confl] == successor_j2


def test_two_layer_grid_guided_solve():
    f = pebbling_to_cnf(gen_grid(2))
    r = solve(f, SolverConfig(learning="first_uip", sequence=BranchingSequence((1,))))
    assert r.is_unsat
    assert r.stats.decisions == 1
    assert r.stats.fallback_decisions == 0
    assert (-2,) in [rec.clause for rec in r.records]
    # unit learned clause sends the solver back to level zero
    unit_rec = next(rec for rec in r.records if rec.clause == (-2,))
    assert unit_rec.backjump_level == 0


def test_narrative_two_conflict_run():
    # four false branches; the first conflict learns a clause with the three
    # earlier decisions plus the negation of the one implied literal, the
    # second (without further branching) learns the decisions alone and
    # backtracks to level 2
    f = CnfFormula(
        8,
        [
            (4, 5),
            (1, 2, 3, -5, -6),
            (1, 2, 3, -5, -7),
            (6, 7),
            (1, 2, 3, -4, 8),
            (1, 2, 3, -4, -8),
        ],
    )
    r = solve(f, SolverConfig(learning="first_uip", sequence=BranchingSequence((1, 2, 3, 4))))
    learned = [rec.clause for rec in r.records]
    assert learned[0] == (1, 2, 3, -5)
    assert learned[1] == (1, 2, 3)
    assert r.records[0].backjump_level == 3
    assert r.records[1].backjump_level == 2
    assert r.is_sat  # the remaining space is satisfiable
    assert satisfies(f, r.model)


def test_five_layer_grid_complete():
    g = gen_grid(5)
    assert pebbling_to_cnf(g).num_vars == 30
    r = solve(pebbling_to_cnf(g), SolverConfig(learning="first_uip", sequence=peb_seq_1uip(g)))
    assert r.is_unsat and r.stats.fallback_decisions == 0


def test_sequence_skips_assigned_variable():
    # unit forces 1; entry 1 is skipped and entry 2 branches variable 2 FALSE
    f = CnfFormula(3, [(1,), (2, 3)])
    r = solve(f, SolverConfig(sequence=BranchingSequence((1, 2))))
    assert r.is_sat
    assert r.model[2] is False


def test_sequence_variables_checked_before_search():
    # entry 2 is out of range although the search would stop before it, and
    # the unsatisfiable formula needs no decision at all
    with pytest.raises(ValueError, match="sequence entry 2 names unknown variable 7"):
        solve(CnfFormula(2, [(1, 2)]), SolverConfig(sequence=BranchingSequence((-1, 7))))
    with pytest.raises(ValueError, match="sequence entry 1 names unknown variable 5"):
        solve(CnfFormula(1, [(1,), (-1,)]), SolverConfig(sequence=BranchingSequence((5,))))


def test_sequence_skip_and_branch_order():
    f = CnfFormula(3, [(1,), (2, 3)])
    s = Solver(f, SolverConfig(sequence=BranchingSequence((1, 2))))
    s.propagate()
    kind, lit = s._next_decision()
    assert (kind, lit) == ("decide", -2)


def test_clmm_branch_on_true_literal_clashes():
    # entry names a literal already implied TRUE: branching it FALSE is an
    # immediate conflict in the assigned-branch mode
    f = CnfFormula(4, [(1,), (-1, 2), (3, 4)])
    cfg = SolverConfig(
        learning="first_uip", sequence=BranchingSequence((1,)), cl_minus_minus=True
    )
    r = solve(f, cfg)
    assert r.is_sat
    assert r.stats.conflicts == 1
    assert r.stats.decisions >= 1


@pytest.mark.parametrize(
    "graph_args", [None, (12, 4, 3, 4), (13, 4, 3, 5)], ids=["gt6", "randpeb12", "randpeb13"]
)
def test_clmm_entry_against_decision_is_skipped(graph_args):
    # FirstNewCut under CL-- meets sequence entries whose variable is a
    # decision of the other value: both conflict literals would be reason-less,
    # so no cut exists and the entry is skipped instead of clashing
    if graph_args is None:
        f, seq = gen_gtn(6), gtn_seq(6)
    else:
        g = gen_random_pebbling(*graph_args)
        f, seq = pebbling_to_cnf(g), peb_seq_1uip(g)
    cfg = SolverConfig(
        learning="first_new_cut", sequence=seq, cl_minus_minus=True, conflict_budget=300
    )
    r = solve(f, cfg)
    assert r.is_unsat
    assert check_res_refutation(cl_to_res(r.records, f))
    chk = UnitPropagationChecker(f.num_vars)
    for c in f.clauses:
        chk.add_clause(c.literals)
    for rec in r.records[:-1]:
        assert chk.conflicts_when_all_false(rec.clause)
        chk.add_clause(rec.clause)


@pytest.mark.parametrize("learning", ["first_uip", "decision"])
def test_clmm_clash_stops_at_the_conflict_budget(learning):
    # the third conflict is a clash: the budget stops the solve before the
    # clash opens its level, so max_level stays at the last real decision
    f = random_3cnf(12, 50, 0)
    cfg = SolverConfig(
        learning=learning,
        sequence=random_sequence(12, 30, 0),
        cl_minus_minus=True,
        conflict_budget=2,
    )
    s = Solver(f, cfg)
    r = s.solve()
    assert r.status == "BUDGET_EXCEEDED"
    assert (r.stats.conflicts, r.stats.decisions, r.stats.max_level) == (3, 11, 5)
    assert len(r.records) == 2
    entry = s._seq[s._seq_pos - 1]
    assert s.lit_value(entry) == 1 and s.reasons[abs(entry)] is not None
    assert s.current_level == 5


def test_clmm_branch_on_false_literal_is_noop():
    f = CnfFormula(3, [(-1,), (2, 3)])
    cfg = SolverConfig(
        learning="first_uip", sequence=BranchingSequence((1, 2)), cl_minus_minus=True
    )
    r = solve(f, cfg)
    assert r.is_sat and r.stats.conflicts == 0


def test_fallback_counts():
    f = CnfFormula(2, [(1, 2)])
    r = solve(f, SolverConfig(sequence=BranchingSequence(())))
    assert r.is_sat
    assert r.stats.fallback_decisions == r.stats.decisions > 0


def test_fallback_prefers_low_variable_negative():
    s = Solver(CnfFormula(3, [(1, 2, 3)]))
    kind, lit = s._next_decision()
    assert (kind, lit) == ("fallback", -1)


def test_budgets():
    f = random_3cnf(20, 91, seed=3)
    r = solve(f, SolverConfig(learning="none", decision_budget=5, log_proof=False))
    assert r.status == "BUDGET_EXCEEDED"
    assert r.stats.decisions == 5
    r2 = solve(f, SolverConfig(learning="first_uip", conflict_budget=1))
    assert r2.status in ("BUDGET_EXCEEDED", "SAT", "UNSAT")
    if r2.status == "BUDGET_EXCEEDED":
        assert r2.stats.conflicts == 2


def test_restart_markers():
    # two consecutive markers are two counted restarts with identical state
    f = CnfFormula(2, [(1, 2)])
    seq = BranchingSequence((RESTART, RESTART, 1))
    cfg = SolverConfig(
        learning="first_uip",
        sequence=seq,
        cl_minus_minus=True,
    )
    r = solve(f, cfg)
    assert r.is_sat
    assert r.stats.restarts == 2


def test_restart_keeps_learned_clauses():
    # force one learning conflict, restart, and check the clause is retained
    f = CnfFormula(3, [(1, 2), (1, 3), (-2, -3)])
    seq = BranchingSequence((1, RESTART, 1))
    cfg = SolverConfig(
        learning="first_uip",
        sequence=seq,
        cl_minus_minus=True,
    )
    s = Solver(f, cfg)
    r = s.solve()
    assert r.stats.restarts >= 1
    assert r.stats.learned_clauses >= 1
    learned = [rec.clause for rec in r.records]
    assert all(c in s.canonical_clauses for c in learned)
    assert s.known is None  # only FirstNewCut keeps the known-clause set


def test_config_validation():
    with pytest.raises(ValueError, match="unknown learning"):
        SolverConfig(learning="2uip"), Solver(CnfFormula(1, [(1,)]), SolverConfig(learning="2uip"))
    with pytest.raises(ValueError, match="requires learning"):
        Solver(CnfFormula(1, [(1,)]), SolverConfig(learning="none", cl_minus_minus=True))
    seq = BranchingSequence((1, RESTART))
    with pytest.raises(ValueError, match="^restart markers require the assigned-branch mode$"):
        Solver(CnfFormula(1, [(1,)]), SolverConfig(learning="first_uip", sequence=seq))
    with pytest.raises(ValueError, match="^restart markers require learning$"):
        SolverConfig(learning="none", sequence=seq)
    with pytest.raises(ValueError, match="^bad sequence entry 0$"):
        BranchingSequence((0,))
    # a bool is an int to isinstance, but write_sequence would write "True",
    # which parse_sequence rejects
    with pytest.raises(ValueError, match="^bad sequence entry True$"):
        BranchingSequence((True, -2))
    for name in ("conflict_budget", "decision_budget"):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            Solver(CnfFormula(1, [(1,)]), SolverConfig(**{name: -1}))
        assert Solver(CnfFormula(1, [(1,)]), SolverConfig(**{name: 0})).solve().is_sat


def test_model_soundness_random():
    for seed in range(25):
        f = random_3cnf(15, 55, seed=seed)
        r = solve(f, SolverConfig(learning="first_uip"))
        if r.is_sat:
            assert len(r.model) == 15
            assert satisfies(f, r.model)
        else:
            assert not brute_force_satisfiable(f)


def test_all_schemes_agree_on_status():
    for seed in range(12):
        f = random_3cnf(12, 52, seed=100 + seed)
        expected = brute_force_satisfiable(f)
        for learning in ("none", "decision", "relsat", "first_uip", "first_new_cut"):
            r = solve(f, SolverConfig(learning=learning))
            assert r.is_sat == expected, (seed, learning)


def test_dpll_matches_reference_decisions():
    for seed in range(30):
        f = random_3cnf(10, 38 + (seed % 13), seed=200 + seed)
        want_sat, want_decisions = reference_dpll(f)
        r = solve(f, SolverConfig(learning="none", log_proof=False))
        assert r.is_sat == want_sat, seed
        assert r.stats.decisions == want_decisions, seed
    # and on structured instances
    for L in (2, 3):
        f = pebbling_to_cnf(gen_grid(L))
        want_sat, want_decisions = reference_dpll(f)
        r = solve(f, SolverConfig(learning="none", log_proof=False))
        assert (r.is_sat, r.stats.decisions) == (want_sat, want_decisions)


def test_trail_invariants_during_search():
    f = random_3cnf(12, 45, seed=77)
    s = Solver(f, SolverConfig(learning="first_uip"))
    s.propagate()
    s.validate_trail()
    for _ in range(4):
        kind, lit = s._next_decision()
        if kind == "restart" or lit == 0:
            break
        s._decide(lit)
        if s.propagate() is not None:
            break
        s.validate_trail()


class _ValidatingSolver(Solver):
    """Checks the trail invariants after every propagation fixpoint."""

    def propagate(self):
        confl = super().propagate()
        if confl is None:
            self.validate_trail()
        return confl


def test_trail_invariants_hold_through_full_solves():
    from clsat import gen_grid, peb_seq_1uip, pebbling_to_cnf

    for seed in range(8):
        f = random_3cnf(10, 41, seed=800 + seed)
        for learning in ("none", "first_uip", "first_new_cut"):
            r = _ValidatingSolver(f, SolverConfig(learning=learning)).solve()
            assert r.status in ("SAT", "UNSAT")
    g = gen_grid(4)
    r = _ValidatingSolver(
        pebbling_to_cnf(g),
        SolverConfig(learning="first_uip", sequence=peb_seq_1uip(g)),
    ).solve()
    assert r.is_unsat


def test_degenerate_formulas():
    r = solve(CnfFormula(0, []))
    assert r.is_sat and r.model == {}
    r2 = solve(CnfFormula(3, []))
    assert r2.is_sat and len(r2.model) == 3
    r3 = solve(CnfFormula(1, [()]))
    assert r3.is_unsat and r3.records[-1].clause == ()


def test_unsat_records_end_at_level_zero():
    for seed in range(8):
        f = random_3cnf(11, 47, seed=900 + seed)
        r = solve(f, SolverConfig(learning="first_uip"))
        if r.is_unsat:
            assert r.records[-1].scheme == "final"
            assert r.records[-1].clause == ()


def test_stats_fields_consistent():
    f = random_3cnf(14, 56, seed=9)
    r = solve(f, SolverConfig(learning="first_uip"))
    s = r.stats
    assert s.fallback_decisions <= s.decisions
    assert s.learned_clauses <= s.conflicts
    assert s.max_level >= 0


def test_sequence_file_roundtrip():
    seq = BranchingSequence((3, -1, RESTART, 2))
    text = write_sequence(seq)
    assert text == "3\n-1\nR\n2\n"
    assert parse_sequence("# comment\n" + text) == seq
    with pytest.raises(ValueError):
        parse_sequence("x\n")
    with pytest.raises(ValueError):
        parse_sequence("0\n")


@pytest.mark.parametrize("digit", ["\u0661", "-\u0661"])
def test_sequence_file_reads_only_ascii_digits(digit):
    # a regex \d matches every Unicode digit, and int() reads it as ASCII
    with pytest.raises(ValueError, match="^line 3: character '\u0661' is not allowed$"):
        parse_sequence(f"# \u00e9\n1\n{digit}\n")


def test_sequence_len_counts_literals_only():
    seq = BranchingSequence((1, RESTART, 2, RESTART))
    assert len(seq) == 2
    assert seq.restart_count == 2


def test_solver_single_use():
    s = Solver(CnfFormula(1, [(1,)]))
    s.solve()
    with pytest.raises(RuntimeError):
        s.solve()


def _record_runs(f, seq):
    """Solve f under the four learning schemes with CL-- off and on, without
    and (when given) with the sequence, conflict budget 100."""
    for learning in ("decision", "relsat", "first_uip", "first_new_cut"):
        for clmm in (False, True):
            for s in (None, seq) if seq is not None else (None,):
                cfg = SolverConfig(
                    learning=learning, sequence=s, cl_minus_minus=clmm, conflict_budget=100
                )
                yield solve(f, cfg)


# the SolveStats counters the record digests cover, in field order, named so
# that a counter added later leaves every digest as it is
DIGESTED_STATS = (
    "decisions", "propagations", "conflicts", "learned_clauses", "max_level",
    "fallback_decisions", "restarts",
)


def _record_digest(f, seq):
    """sha256 prefix over status, the DIGESTED_STATS counters and every
    record's clause, derivation, scheme, backjump level and redundancy flag,
    over _record_runs."""
    h = hashlib.sha256()
    for r in _record_runs(f, seq):
        stats = tuple(getattr(r.stats, name) for name in DIGESTED_STATS)
        h.update(repr((r.status, stats)).encode())
        for rec in r.records:
            fields = (rec.derivation, rec.scheme, rec.backjump_level, rec.redundant)
            h.update(repr((rec.clause, *fields)).encode())
    return h.hexdigest()[:16]


# _record_digest over guided grids 2-8, GT3-5, random pebbling graphs and
# random 3-CNFs, recorded before records lost their cut and the solver kept
# each canonical clause once
RECORD_DIGESTS = {
    "grid2": "dd1c3e55bfdecc87", "grid3": "2263dd53340b0a74", "grid4": "d84edbb4ab14fcb4",
    "grid5": "7ea059f5f1fb3927", "grid6": "8988b6e33674f6a7", "grid7": "c2e98366607b2883",
    "grid8": "7d50d71d3edad1da", "gt3": "7a50c3942fffc9d9", "gt4": "875c3ded403ed578",
    "gt5": "42fdaa272be3f74f", "peb6": "bb63494b915edffe", "peb7": "7e844ca2bd459038",
    "peb8": "d425596c3dee4b74", "peb9": "4afd4ed426e90b25", "peb10": "70edcfd24df44176",
    "peb11": "4b7a557758b7f0bb", "peb12": "c63afa52e0a4b63b", "peb13": "c375eba587363742",
    "peb14": "b5415b42238353cd", "peb15": "c070163bd7bb0d53", "cnf1": "d9888f89636def75",
    "cnf2": "270fe47a604724c2", "cnf3": "8a450c837dd97091", "cnf4": "87df476218ee6fee",
    "cnf5": "ccecf12d9fc5a9f5", "cnf6": "ca6b1911b9a0576d", "cnf7": "65520d0131d1bac6",
    "cnf8": "69bf876fd49df4ee", "cnf9": "4c8160fbed15e021", "cnf10": "ebe958936cbd35d9",
}


def _record_cases():
    cases = {}
    for layers in range(2, 9):
        g = gen_grid(layers)
        cases[f"grid{layers}"] = (pebbling_to_cnf(g), peb_seq_1uip(g))
    for n in (3, 4, 5):
        cases[f"gt{n}"] = (gen_gtn(n), gtn_seq(n))
    for seed in range(6, 16):
        g = gen_random_pebbling(9, 3, 3, seed)
        cases[f"peb{seed}"] = (pebbling_to_cnf(g), peb_seq_1uip(g))
    for seed in range(1, 11):
        cases[f"cnf{seed}"] = (random_3cnf(15, 66, seed), None)
    return cases


def test_record_golden_digests():
    digests = {name: _record_digest(f, seq) for name, (f, seq) in _record_cases().items()}
    assert digests == RECORD_DIGESTS


def _derivation_proof_digest(f, seq):
    """sha256 prefix over write_proof(derivation_to_proof(...)) of every
    record's derivation, over _record_runs."""
    h = hashlib.sha256()
    for r in _record_runs(f, seq):
        for rec in r.records:
            h.update(write_proof(derivation_to_proof(rec.derivation)).encode())
    return h.hexdigest()[:16]


# _derivation_proof_digest over the _record_cases corpus, recorded before the
# proof builders shared one derivation lift
DERIVATION_PROOF_DIGESTS = {
    "grid2": "f32649f004f6a271", "grid3": "9e62d920be83d1b9", "grid4": "7861e657b1299590",
    "grid5": "b59be89406443cce", "grid6": "7d508de764e6bcde", "grid7": "8ad7212acb50eab5",
    "grid8": "31cedcd0a67ff764", "gt3": "09408cb2ee083689", "gt4": "2b7ba3c975a08678",
    "gt5": "76b65d243428d915", "peb6": "7d2b27302607e2fa", "peb7": "f0091fe612639e55",
    "peb8": "19c878031e9a8c1d", "peb9": "71202168bac38fd5", "peb10": "49b75b1079a2f442",
    "peb11": "a57cdc82d8a96ca2", "peb12": "93d865aef4ef1386", "peb13": "5da11d28d07bc91c",
    "peb14": "c3340c74152a0317", "peb15": "6ae39022182f5f33", "cnf1": "29dbe3f978ae911b",
    "cnf2": "e3b0c44298fc1c14", "cnf3": "a13ebab200dac41b", "cnf4": "951d76216810b6a4",
    "cnf5": "ea33e6ea961e9747", "cnf6": "744d71233cfd65c0", "cnf7": "87631c986c4add03",
    "cnf8": "8a0956079381908a", "cnf9": "51cf850d15d0ace2", "cnf10": "e2e4b04f4fbd4157",
}


def test_derivation_proof_golden_digests():
    digests = {
        name: _derivation_proof_digest(f, seq) for name, (f, seq) in _record_cases().items()
    }
    assert digests == DERIVATION_PROOF_DIGESTS


def _sweep_configs(num_vars, seq, seed):
    """Every scheme with CL-- off and on (without and, when given, with the
    sequence), plus three random sequences with restart markers under CL--."""
    for learning in ("none", "decision", "relsat", "first_uip", "first_new_cut"):
        for clmm in (False, True) if learning != "none" else (False,):
            for s in (None,) if seq is None else (None, seq):
                yield SolverConfig(learning=learning, sequence=s, cl_minus_minus=clmm)
        if learning != "none":
            for k in range(3):
                yield SolverConfig(
                    learning=learning,
                    sequence=random_sequence(num_vars, 2 * num_vars, 3 * seed + k),
                    cl_minus_minus=True,
                )


def test_differential_sweep():
    # status against brute force, models, refutations, and every learned
    # clause certified twice (trivial derivation, RUP), with the trail
    # invariants checked at every propagation fixpoint
    cases = [
        (random_3cnf(n, round(4.3 * n), seed=100 * n + seed), None)
        for n in range(4, 13)
        for seed in range(20)
    ]
    for seed in range(20):
        g = gen_random_pebbling(6, 3, 2, seed)
        cases.append((pebbling_to_cnf(g), peb_seq_1uip(g)))
    gtn = [(gen_gtn(n), gtn_seq(n)) for n in (3, 4, 5)]
    solves = records = 0
    for k, (f, seq) in enumerate(cases + gtn):
        # GTn is unsatisfiable by construction and too wide for brute force
        expected = brute_force_satisfiable(f) if k < len(cases) else False
        for cfg in _sweep_configs(f.num_vars, seq, k):
            r = _ValidatingSolver(f, cfg).solve()
            assert r.status in ("SAT", "UNSAT") and r.is_sat == expected, (k, cfg)
            solves += 1
            if r.is_sat:
                assert satisfies(f, r.model)
            if cfg.learning == "none":
                continue
            if r.is_unsat:
                assert check_res_refutation(cl_to_res(r.records, f))
            chk = UnitPropagationChecker(f.num_vars)
            for c in f.clauses:
                chk.add_clause(c.literals)
            known = f.clause_set()
            for rec in r.records:
                # every clause the derivation uses is an input clause or
                # one learned before it, on every run, not only refutations
                d = rec.derivation
                assert known.issuperset((d.base, *(ant for ant, _ in d.steps))), (k, cfg, rec)
                known.add(rec.clause)
                assert check_trivial(derivation_to_proof(rec.derivation))
                assert chk.conflicts_when_all_false(rec.clause), (k, cfg, rec)
                chk.add_clause(rec.clause)
                records += 1
    assert solves >= 4000 and records >= 15000


def _scan_pick(s):
    """The fallback pick as a scan over every variable: the first maximum of
    activity wins, visiting variables upward and each negative literal before
    its positive one."""
    best = 0
    best_act = -1.0
    activity = s.activity
    for v in range(1, s.num_vars + 1):
        if s.values[v] != 0:
            continue
        a = activity[2 * v + 1]
        if a > best_act:
            best_act = a
            best = -v
        a = activity[2 * v]
        if a > best_act:
            best_act = a
            best = v
    return best


class _ScanCheckingSolver(Solver):
    """Checks every fallback pick against the scan, and counts the picks made
    after a bump (by the heap) and after a rescale. With rescale_every set,
    every that many conflicts the activity increment is raised to just under
    the 1e100 threshold, so the decay rescales all activities by 1e-100."""

    def __init__(self, *args, rescale_every=None):
        super().__init__(*args)
        self.rescale_every = rescale_every
        self.rescaled = False
        self.bumped_picks = self.rescaled_picks = 0

    def _decay_activity(self):
        if self.rescale_every and self.stats.conflicts % self.rescale_every == 0:
            self.act_inc = 0.99e100
            self.rescaled = True
        super()._decay_activity()

    def _next_decision(self):
        kind, lit = super()._next_decision()
        if kind == "fallback":
            assert lit == _scan_pick(self), (self.stats.decisions, lit)
            if self._activity_touched:
                self.bumped_picks += 1
                self.rescaled_picks += self.rescaled
        return kind, lit


def test_fallback_heap_picks_what_the_scan_picks():
    # the differential sweep's configurations, then unguided grids and larger
    # random 3-CNFs, where long runs of equal activities make ties common
    cases = [
        (random_3cnf(n, round(4.3 * n), seed=100 * n + seed), None)
        for n in range(4, 13)
        for seed in range(20)
    ]
    for seed in range(20):
        g = gen_random_pebbling(6, 3, 2, seed)
        cases.append((pebbling_to_cnf(g), peb_seq_1uip(g)))
    cases += [(gen_gtn(n), gtn_seq(n)) for n in (3, 4, 5)]
    runs = [
        (f, cfg) for k, (f, seq) in enumerate(cases) for cfg in _sweep_configs(f.num_vars, seq, k)
    ]
    unguided = SolverConfig(conflict_budget=1000, log_proof=False)
    runs += [(pebbling_to_cnf(gen_grid(layers)), unguided) for layers in range(16, 25, 2)]
    runs += [(random_3cnf(60, 256, seed=900 + seed), unguided) for seed in range(10)]
    bumped_picks = 0
    for f, cfg in runs:
        s = _ScanCheckingSolver(f, cfg)
        s.solve()
        bumped_picks += s.bumped_picks
    assert bumped_picks > 12000
    # repeated rescales: rounding makes new ties, down to activities that
    # underflow to zero, and the heap is rebuilt for them
    s = _ScanCheckingSolver(
        pebbling_to_cnf(gen_grid(20)), SolverConfig(conflict_budget=600), rescale_every=40
    )
    s.solve()
    assert s.rescaled_picks > 500
