import hashlib
import random
import time

import pytest

from clsat import (
    BranchingSequence,
    Clause,
    CnfFormula,
    ResolutionProof,
    ResolutionStep,
    SolverConfig,
    UnitPropagationChecker,
    canonical_literals,
    check_res_refutation,
    check_trivial,
    cl_to_res,
    gen_grid,
    gen_gtn,
    gen_random_pebbling,
    normalize_refutation,
    parse_proof,
    peb_seq_1uip,
    pebbling_to_cnf,
    proof_trace_extension,
    replay_extended_sequence,
    res_to_clmm_sequence,
    solve,
    write_proof,
)
from clsat.conflict import LearnedClauseRecord, TrivialDerivation
from clsat.proofs import derivation_to_proof, resolve_on
from conftest import random_3cnf


def unit_refutation():
    f = CnfFormula(1, [(1,), (-1,)])
    steps = (
        ResolutionStep((1,)),
        ResolutionStep((-1,)),
        ResolutionStep((), 0, 1, 1),
    )
    return ResolutionProof(f, steps)


def test_check_res_refutation_valid():
    assert check_res_refutation(unit_refutation())


def test_check_res_refutation_bad_pivot():
    f = CnfFormula(2, [(1,), (-1,)])
    steps = (
        ResolutionStep((1,)),
        ResolutionStep((-1,)),
        ResolutionStep((), 0, 1, 2),  # variable 2 absent from both antecedents
    )
    chk = check_res_refutation(ResolutionProof(f, steps))
    assert not chk and chk.step == 2 and "pivot" in chk.reason


def test_check_res_refutation_rejects_non_positive_pivot():
    # a pivot is a variable: -1 names the same variable as 1 but is no pivot
    f = CnfFormula(1, [(1,), (-1,)])
    for pivot in (-1, 0):
        steps = (
            ResolutionStep((1,)),
            ResolutionStep((-1,)),
            ResolutionStep((), 0, 1, pivot),
        )
        chk = check_res_refutation(ResolutionProof(f, steps))
        assert not chk and chk.step == 2 and chk.reason == "bad pivot"


def test_check_res_refutation_wrong_resolvent_and_missing_initial():
    f = CnfFormula(2, [(1, 2), (-1,)])
    steps = (
        ResolutionStep((1, 2)),
        ResolutionStep((-1,)),
        ResolutionStep((1,), 0, 1, 1),
    )
    chk = check_res_refutation(ResolutionProof(f, steps))
    assert not chk and chk.reason == "wrong resolvent"
    steps2 = (ResolutionStep((2,)),)
    chk2 = check_res_refutation(ResolutionProof(f, steps2))
    assert not chk2 and chk2.reason == "initial clause not in the formula"


@pytest.mark.parametrize(
    "steps, step, reason",
    [
        ([ResolutionStep((1,), None, 0, None)], 0, "initial step with resolvent fields"),
        ([ResolutionStep((1,), None, None, 1)], 0, "initial step with resolvent fields"),
        (
            [ResolutionStep((1, 2)), ResolutionStep((-1, -2)), ResolutionStep((), 0, 1, 1)],
            2,
            "tautological resolvent",
        ),
        ([], None, "proof does not end in the empty clause"),
        ([ResolutionStep((1, 2))], None, "proof does not end in the empty clause"),
    ],
)
def test_check_res_refutation_rejects(steps, step, reason):
    f = CnfFormula(2, [(1,), (1, 2), (-1, -2)])
    chk = check_res_refutation(ResolutionProof(f, tuple(steps)))
    assert not chk and (chk.step, chk.reason) == (step, reason)


def test_check_trivial_examples():
    f = CnfFormula(3, [(1, 3), (2, -3)])
    good = ResolutionProof(
        f,
        (
            ResolutionStep((1, 3)),
            ResolutionStep((2, -3)),
            ResolutionStep((1, 2), 0, 1, 3),
        ),
    )
    assert check_trivial(good)

    # resolving on the same variable twice
    f2 = CnfFormula(3, [(1, 3), (2, -3), (-1, 3)])
    dup = ResolutionProof(
        f2,
        (
            ResolutionStep((1, 3)),
            ResolutionStep((2, -3)),
            ResolutionStep((1, 2), 0, 1, 3),
            ResolutionStep((-1, 3)),
            ResolutionStep((2, 3), 2, 3, 1),  # fine structurally...
            ResolutionStep((2,), 4, 1, 3),  # ...but pivot 3 repeats
        ),
    )
    chk = check_trivial(dup)
    assert not chk and chk.reason == "duplicate pivot"

    # resolving two derived clauses
    f3 = CnfFormula(4, [(1, 3), (2, -3), (-1, 4), (-2, -4)])
    two_derived = ResolutionProof(
        f3,
        (
            ResolutionStep((1, 3)),
            ResolutionStep((2, -3)),
            ResolutionStep((1, 2), 0, 1, 3),
            ResolutionStep((-1, 4)),
            ResolutionStep((-2, -4)),
            ResolutionStep((-1, -2), 3, 4, 4),
            ResolutionStep((1, -1), 2, 5, 2) if False else ResolutionStep((2, -2), 2, 5, 1),
        ),
    )
    chk = check_trivial(two_derived)
    assert not chk and chk.reason == "both antecedents are derived"

    # a chain that leaves its previous resolvent for an older derived clause
    f4 = CnfFormula(4, [(1, 3), (2, -3), (-1, 4), (-2, -4)])
    branch = ResolutionProof(
        f4,
        (
            ResolutionStep((1, 3)),
            ResolutionStep((2, -3)),
            ResolutionStep((1, 2), 0, 1, 3),
            ResolutionStep((-1, 4)),
            ResolutionStep((2, 4), 2, 3, 1),
            ResolutionStep((-2, -4)),
            ResolutionStep((1, -4), 2, 5, 2),
        ),
    )
    chk = check_trivial(branch)
    assert not chk and (chk.step, chk.reason) == (
        6,
        "derived antecedent is not the previous resolvent",
    )


def test_check_trivial_rejects_bad_antecedent_indices():
    # a resolvent without a right antecedent used to raise TypeError, and a
    # negative index wrapped around to an earlier step and could pass (left=-3
    # over three steps reads step 0); an initial step carrying resolvent
    # fields used to pass check_trivial
    f = CnfFormula(3, [(1, 3), (2, -3)])
    init = (ResolutionStep((1, 3)), ResolutionStep((2, -3)))
    cases = [
        (ResolutionStep((1, 2), 0, None, 3), "resolvent step missing antecedents"),
        (ResolutionStep((1, 2), 0, 1, None), "resolvent step missing antecedents"),
        (ResolutionStep((1, 2), -3, 1, 3), "antecedent does not precede the step"),
        (ResolutionStep((1, 2), 0, -1, 3), "antecedent does not precede the step"),
        (ResolutionStep((1, 2), 0, 2, 3), "antecedent does not precede the step"),
        (ResolutionStep((1, 2), 5, 1, 3), "antecedent does not precede the step"),
        (ResolutionStep((1, 2), 0, 1, 0), "bad pivot"),
        (ResolutionStep((1, 2), 0, 1, -3), "bad pivot"),
        (ResolutionStep((1, 2), None, 0, None), "initial step with resolvent fields"),
        (ResolutionStep((1, 2), None, None, 1), "initial step with resolvent fields"),
    ]
    for step, reason in cases:
        proof = ResolutionProof(f, (*init, step))
        for check in (check_trivial, check_res_refutation):
            chk = check(proof)
            assert not chk and (chk.step, chk.reason) == (2, reason), (check, step)


def test_resolve_on():
    assert resolve_on((1, 2), (-2, 3), 2) == (1, 3)
    with pytest.raises(ValueError):
        resolve_on((1, 2), (2, 3), 2)
    with pytest.raises(ValueError):
        resolve_on((1, 2), (-2, -1), 2)  # tautological result


def _reference_resolve_on(a, b, pivot):
    """The set-based resolve_on that the merge replaced, with its
    canonicalisation inlined so the reference depends on no clsat code."""
    sa, sb = set(a), set(b)
    if not ((pivot in sa and -pivot in sb) or (-pivot in sa and pivot in sb)):
        raise ValueError(f"variable {pivot} is not a pivot of these clauses")
    lits = sorted(
        {int(l) for l in (sa | sb) - {pivot, -pivot}}, key=lambda l: (abs(l), l)
    )
    if lits and lits[0] == 0:
        raise ValueError("0 is not a literal")
    for x, y in zip(lits, lits[1:]):
        if x == -y:
            raise ValueError(f"tautological clause: contains both {x} and {y}")
    return tuple(lits)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return (type(exc), str(exc))


def test_resolve_on_matches_set_reference():
    rng = random.Random(20261018)

    def clause(nvars):
        return tuple(
            v if rng.random() < 0.5 else -v
            for v in sorted(rng.sample(range(1, nvars + 1), rng.randint(0, nvars)))
        )

    cases = []
    for _ in range(4000):
        n = rng.randint(1, 9)
        a, b = clause(n), clause(n)
        p = rng.randint(1, n)
        kind = rng.random()
        if kind < 0.6:  # force a proper pivot
            s = rng.choice((1, -1))
            a = tuple(sorted({*(l for l in a if abs(l) != p), s * p}, key=abs))
            b = tuple(sorted({*(l for l in b if abs(l) != p), -s * p}, key=abs))
        cases.append((a, b, p))
    cases += [
        ((1, 2), (-2, 3), 2),
        ((2, 1), (3, -2), 2),  # non-canonical order
        ((1, 1, 2), (-2, 3, 3), 2),  # duplicates
        ([1, 2], [-2, 3], 2),  # lists
        ({1, 2}, {-2, 3}, 2),  # sets
        ((1, 2), (-2, 3), -2),  # negative pivot
        ((1, -2), (2, 3), -2),
        ((1, 2), (2, 3), 2),  # same polarity on both sides
        ((-1, -2), (-2, 3), 2),
        ((1, 3), (-2, 4), 2),  # pivot missing from one side
        ((1,), (3,), 2),  # missing from both
        ((), (), 1),
        ((1, 2), (-2, -1), 2),  # tautological resolvent
        ((-1, 2), (1, -2), 2),
        ((-1, 2), (1, -2), 1),
        ((1, -3, 2), (-2, 3), 2),  # tautological, non-canonical input
        ((2, -2), (-2,), 2),  # tautological input on the pivot
        ((1, -1, 2), (3,), 2),  # tautological input, no pivot
        ((0, 2), (-2,), 2),  # 0 is not a literal
        ((2,), (-2,), 0),
        ((2,), (-2,), 2),  # empty resolvent
        ((-5, 7), (5, -7), 5),
    ]
    for a, b, p in cases:
        want = _outcome(_reference_resolve_on, a, b, p)
        assert _outcome(resolve_on, a, b, p) == want, (a, b, p)


def test_cl_to_res_zero_learned():
    f = CnfFormula(2, [(1,), (-1, 2), (-2,)])
    r = solve(f, SolverConfig(learning="first_uip"))
    assert r.is_unsat and r.stats.conflicts == 1
    proof = cl_to_res(r.records, f)
    assert check_res_refutation(proof)
    assert proof.steps[-1].clause == ()


def test_cl_to_res_two_layer_bound():
    f = pebbling_to_cnf(gen_grid(2))
    r = solve(f, SolverConfig(learning="first_uip", sequence=BranchingSequence((1,))))
    proof = cl_to_res(r.records, f)
    assert check_res_refutation(proof)
    learned = sum(1 for rec in r.records if rec.scheme != "final")
    assert proof.derived_count() <= f.num_vars * (learned + 1)


def test_cl_to_res_gt6_bound():
    f = gen_gtn(6)
    r = solve(f, SolverConfig(learning="first_uip"))
    assert r.is_unsat
    proof = cl_to_res(r.records, f)
    assert check_res_refutation(proof)
    assert proof.derived_count() <= 30 * (r.stats.learned_clauses + 1)


def test_cl_to_res_rejects_unknown_clauses():
    f = CnfFormula(2, [(1,), (-1,)])
    rec = LearnedClauseRecord(
        derivation=TrivialDerivation(base=(2,), steps=(((-2,), 2),), result=()),
        scheme="final",
    )
    with pytest.raises(ValueError, match="unknown clause"):
        cl_to_res([rec], f)


@pytest.mark.parametrize(
    "derivation, message",
    [
        # the base is known, an antecedent is not
        (TrivialDerivation((1,), (((-1, 2), 1),), (2,)), r"unknown clause \(-1, 2\)"),
    ],
)
def test_cl_to_res_rejects_bad_records(derivation, message):
    f = CnfFormula(2, [(1,), (-1,)])
    rec = LearnedClauseRecord(derivation=derivation, scheme="first_uip")
    final = TrivialDerivation(base=(1,), steps=(((-1,), 1),), result=())
    log = [rec, LearnedClauseRecord(derivation=final, scheme="final")]
    with pytest.raises(ValueError, match=message):
        cl_to_res(log, f)


# the chain resolves (1 2) with (-2 3) on 2, which yields (1 3), not (1)
MISCLAIMED = TrivialDerivation(base=(1, 2), steps=(((-2, 3), 2),), result=(1,))


def test_derivation_to_proof_rejects_chain_not_ending_in_result():
    with pytest.raises(ValueError, match=r"yields \(1, 3\) but claims \(1,\)"):
        derivation_to_proof(MISCLAIMED)


def test_derivation_to_proof_validates_its_clauses():
    # the formula is built from canonical tuples without Clause's constructor,
    # but rejects what Clause() rejects, with the same messages
    tautology = TrivialDerivation(base=(1, -1), steps=(), result=(1, -1))
    with pytest.raises(ValueError, match="^tautological clause: contains both -1 and 1$"):
        derivation_to_proof(tautology)
    zero = TrivialDerivation(base=(1, 0), steps=(), result=(1, 0))
    with pytest.raises(ValueError, match="^0 is not a literal$"):
        derivation_to_proof(zero)
    # a valid non-canonical base: the formula and the initial step both hold
    # the canonical clause, so the proof checks against its own formula
    proof = derivation_to_proof(TrivialDerivation(base=(2, 1), steps=(), result=(2, 1)))
    assert proof.over.num_vars == 2
    assert proof.over.clauses == (Clause([1, 2]),)
    assert proof.steps == (ResolutionStep((1, 2)),)
    # every step checks against the formula: this chain fails only for not
    # deriving the empty clause, and with one more link it is a refutation
    proof = derivation_to_proof(TrivialDerivation((2, -1), (((1,), 1),), (2,)))
    assert proof.steps[0] == ResolutionStep((-1, 2))
    chk = check_res_refutation(proof)
    assert (chk.step, chk.reason) == (None, "proof does not end in the empty clause")
    refutation = TrivialDerivation((2, -1), (((1,), 1), ((-2,), 2)), ())
    assert check_res_refutation(derivation_to_proof(refutation))


def _certificate_derivations():
    hand = [
        TrivialDerivation(base=(2, 1), steps=(), result=(2, 1)),
        TrivialDerivation((2, -1), (((1,), 1),), (2,)),
        TrivialDerivation((2, -1), (((1,), 1), ((-2,), 2)), ()),
        # an antecedent used twice appears once in the formula
        TrivialDerivation((1, 2), (((-2, 3), 2), ((-3, 2), 3)), (1, 2)),
    ]
    engine = []
    for seed in range(6):
        r = solve(random_3cnf(10, 42, seed=900 + seed), SolverConfig(learning="first_uip"))
        engine.extend(rec.derivation for rec in r.records)
    assert len(engine) >= 20
    return hand + engine


def test_derivation_certificate_value_semantics():
    for d in _certificate_derivations():
        used = [canonical_literals(d.base), *(canonical_literals(ant) for ant, _ in d.steps)]
        used = list(dict.fromkeys(used))  # first occurrences, in order
        # each comparison starts from a certificate whose formula was never
        # read: it is the same value as one built with its formula
        eager = derivation_to_proof(d)
        eager = ResolutionProof(eager.over, eager.steps)
        assert repr(derivation_to_proof(d)) == repr(eager)
        assert hash(derivation_to_proof(d)) == hash(eager)
        assert derivation_to_proof(d) == eager
        assert eager == derivation_to_proof(d)
        p = derivation_to_proof(d)
        assert [c.literals for c in p.over.clauses] == used
        assert p.over.num_vars == max((abs(l) for c in used for l in c), default=0)
        assert p == ResolutionProof(p.over, p.steps)
    with pytest.raises(AttributeError):
        derivation_to_proof(TrivialDerivation((1,), (), (1,))).missing


@pytest.mark.parametrize(
    "derivation, message",
    [
        (TrivialDerivation((1,), (((-1, 2, -2), 1),), (2,)), "^tautological clause"),
        (TrivialDerivation((1, 2), (((0, -2), 2),), (1,)), "^0 is not a literal$"),
        (TrivialDerivation((1, 2), (((-3, 4), 3),), (1, 2, 4)), "is not a pivot"),
    ],
)
def test_derivation_to_proof_raises_at_the_call(derivation, message):
    # validation does not wait for the formula: the call itself raises, on
    # an antecedent as on the base
    with pytest.raises(ValueError, match=message):
        derivation_to_proof(derivation)


def test_check_trivial_rejects_non_positive_pivot():
    # pivot -2 names variable 2 again: the chain resolves 2 twice, as 2 and
    # as -2, and must not get round the distinct-pivot rule
    chain = (((-2, 3), 2), ((-3, 2), 3))
    for last, reason in ((-2, "bad pivot"), (2, "duplicate pivot")):
        d = TrivialDerivation(base=(1, 2), steps=(*chain, ((-2,), last)), result=(1,))
        chk = check_trivial(derivation_to_proof(d))
        assert not chk and (chk.step, chk.reason) == (5, reason)


def test_resolution_step_value_semantics():
    a = ResolutionStep((1, 2), 0, 1, 3)
    assert a == ResolutionStep((1, 2), 0, 1, 3)
    assert a != ResolutionStep((1, 2), 1, 0, 3)
    assert ResolutionStep((1,)) != ((1,), None, None, None)
    assert ((1,), None, None, None) != ResolutionStep((1,))
    assert hash(a) == hash(ResolutionStep((1, 2), 0, 1, 3))
    assert len({a, ResolutionStep((1, 2), 0, 1, 3), ResolutionStep((1,))}) == 2
    assert repr(a) == "ResolutionStep(clause=(1, 2), left=0, right=1, pivot=3)"
    assert repr(ResolutionStep(())) == (
        "ResolutionStep(clause=(), left=None, right=None, pivot=None)"
    )


def test_cl_to_res_rejects_chain_not_ending_in_record_clause():
    f = CnfFormula(3, [(1, 2), (-2, 3), (-1,), (-3,)])
    final = TrivialDerivation(base=(1,), steps=(((-1,), 1),), result=())
    records = [
        LearnedClauseRecord(derivation=MISCLAIMED, scheme="first_uip"),
        LearnedClauseRecord(derivation=final, scheme="final"),
    ]
    with pytest.raises(ValueError, match=r"yields \(1, 3\) but claims \(1,\)"):
        cl_to_res(records, f)


def test_cl_to_res_requires_level_zero_end():
    f = CnfFormula(2, [(1, 2)])
    r = solve(f, SolverConfig(learning="first_uip"))
    assert r.is_sat
    with pytest.raises(ValueError, match="level-zero"):
        cl_to_res(r.records, f)


def hand_xy_proof():
    f = CnfFormula(2, [(1,), (-1, 2), (-2,)])
    steps = (
        ResolutionStep((1,)),
        ResolutionStep((-1, 2)),
        ResolutionStep((2,), 0, 1, 1),  # derive (y)
        ResolutionStep((-2,)),
        ResolutionStep((), 2, 3, 2),
    )
    return f, ResolutionProof(f, steps)


def test_pt_extension_example():
    f, proof = hand_xy_proof()
    extended, seq = proof_trace_extension(f, proof)
    assert extended.num_vars == 3
    new_clauses = [c.literals for c in extended.clauses[f.size :]]
    assert new_clauses == [(-2, 3)]  # (-y | t) for the derived clause (y)
    assert seq.entries == (3,)
    # solving the extension with the new-cut scheme and the trace sequence
    r = solve(extended, SolverConfig(learning="first_new_cut", sequence=seq))
    assert r.is_unsat
    assert r.stats.decisions < proof.size
    assert r.stats.fallback_decisions == 0


def test_pt_extension_empty_support():
    f = CnfFormula(1, [(1,), (-1,)])
    extended, seq = proof_trace_extension(f, unit_refutation())
    assert extended == f
    assert seq.entries == ()
    # a refutation by the formula's own empty clause derives nothing
    f = CnfFormula(1, [(1,), ()])
    extended, seq = proof_trace_extension(f, ResolutionProof(f, (ResolutionStep(()),)))
    assert extended == f
    assert seq.entries == ()


def test_pt_extension_rejects_non_unit_final():
    f = CnfFormula(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])
    steps = (
        ResolutionStep((1, 2)),
        ResolutionStep((1, -2)),
        ResolutionStep((1,), 0, 1, 2),
        ResolutionStep((-1, 2)),
        ResolutionStep((-1, -2)),
        ResolutionStep((-1,), 3, 4, 2),
        ResolutionStep((), 2, 5, 1),
    )
    proof = ResolutionProof(f, steps)
    assert check_res_refutation(proof)
    # this one is fine (ends resolving two units); now break it
    ok_ext, ok_seq = proof_trace_extension(f, proof)
    assert ok_ext.num_vars >= f.num_vars
    # () claimed from two non-unit clauses is a wrong resolvent
    bad = ResolutionProof(f, (*steps[:2], ResolutionStep((), 0, 1, 2)))
    with pytest.raises(ValueError, match="^invalid refutation at step 2: wrong resolvent$"):
        proof_trace_extension(f, bad)


def test_res_to_clmm_sequence_chain_fusion():
    # chain intermediates fold into their final resolvent; the hand proof's
    # only derived clause feeds the final step directly, so the sequence is
    # empty and the formula is already refuted by level-zero propagation
    f, proof = hand_xy_proof()
    seq = res_to_clmm_sequence(f, proof)
    assert seq.entries == ()
    report = replay_extended_sequence(f, proof)
    assert report.result.is_unsat
    assert report.learned_support_in_order
    assert report.restarts_used == 0


def test_replay_grid3_learns_support_in_order():
    g = gen_grid(3)
    f = pebbling_to_cnf(g)
    r = solve(f, SolverConfig(learning="first_uip", sequence=peb_seq_1uip(g)))
    proof = cl_to_res(r.records, f)
    report = replay_extended_sequence(f, proof)
    assert report.result.is_unsat
    assert report.learned == report.support
    assert report.restarts_used <= len(report.support)
    seq = res_to_clmm_sequence(f, proof)
    assert len(seq) <= f.num_vars * proof.size
    assert seq.restart_count <= proof.size


def test_replay_rejects_learning_a_known_clause():
    # replaying the guided first-UIP refutation of this graph learns a
    # clause that is already known when its conflict is reached
    g = gen_random_pebbling(10, 3, 3, 2)
    f = pebbling_to_cnf(g)
    proof = _refutation(f, "first_uip", peb_seq_1uip(g))
    with pytest.raises(
        RuntimeError, match="^learning collided with an already-known clause during replay$"
    ):
        replay_extended_sequence(f, proof)


def test_normalize_dedupes_and_prunes():
    f = CnfFormula(2, [(1,), (-1, 2), (-2,)])
    steps = (
        ResolutionStep((1,)),
        ResolutionStep((-1, 2)),
        ResolutionStep((2,), 0, 1, 1),
        ResolutionStep((2,), 0, 1, 1),  # duplicate derivation
        ResolutionStep((-2,)),
        ResolutionStep((), 3, 4, 2),
    )
    np = normalize_refutation(ResolutionProof(f, steps))
    assert check_res_refutation(np)
    clauses = [s.clause for s in np.steps]
    assert clauses.count((2,)) == 1
    assert np.steps[-1].clause == ()


# pivot 3 occurs in neither antecedent of step 2; aliasing that step to its
# left antecedent (1) would turn the proof into a valid refutation
UNUSED_PIVOT = (
    [(1,), (2,), (-1,)],
    (
        ResolutionStep((1,)),
        ResolutionStep((2,)),
        ResolutionStep((), 0, 1, 3),
        ResolutionStep((-1,)),
        ResolutionStep((), 2, 3, 1),
    ),
)


@pytest.mark.parametrize(
    "clauses, steps, reason",
    [
        # step 2 claims (2), but (1 2) and (-1 -2) resolve on 1 to a
        # tautology; every later step is sound given that claim
        (
            [(1, 2), (-1, -2), (1, -2), (-1,)],
            (
                ResolutionStep((1, 2)),
                ResolutionStep((-1, -2)),
                ResolutionStep((2,), 0, 1, 1),
                ResolutionStep((1, -2)),
                ResolutionStep((1,), 2, 3, 2),
                ResolutionStep((-1,)),
                ResolutionStep((), 4, 5, 1),
            ),
            "tautological resolvent",
        ),
        # pivot 2 occurs in neither antecedent
        (
            [(1,), (-1,)],
            (ResolutionStep((1,)), ResolutionStep((-1,)), ResolutionStep((), 0, 1, 2)),
            "bad pivot",
        ),
        (*UNUSED_PIVOT, "bad pivot"),
    ],
)
def test_normalize_rejects_invalid_proof(clauses, steps, reason):
    proof = ResolutionProof(CnfFormula(2, clauses), steps)
    chk = check_res_refutation(proof)
    assert (chk.step, chk.reason) == (2, reason)
    with pytest.raises(ValueError, match=f"^invalid refutation at step 2: {reason}$"):
        normalize_refutation(proof)


def test_proof_transforms_reject_clause_outside_formula():
    # the proof checks over its own formula, which has (-2); the formula
    # given does not
    _, proof = hand_xy_proof()
    f = CnfFormula(2, [(1,), (-1, 2)])
    for transform in (proof_trace_extension, res_to_clmm_sequence, replay_extended_sequence):
        with pytest.raises(
            ValueError, match="^invalid refutation at step 3: initial clause not in the formula$"
        ):
            transform(f, proof)


def test_proof_transforms_raise_exactly_when_the_checker_rejects():
    f, xy = hand_xy_proof()
    wrong = ResolutionStep((1, 2), 0, 1, 1)  # (1) and (-1 2) resolve to (2)
    cases = [
        (f, xy.steps),
        (CnfFormula(1, [(1,), ()]), (ResolutionStep(()),)),
        (CnfFormula(2, UNUSED_PIVOT[0]), UNUSED_PIVOT[1]),
        (f, (*xy.steps[:2], wrong, *xy.steps[3:])),
        (CnfFormula(2, [(1,), (-1, 2)]), xy.steps),  # (-2) is outside the formula
    ]
    rejected = 0
    for formula, steps in cases:
        proof = ResolutionProof(formula, steps)
        chk = check_res_refutation(proof)
        rejected += not chk
        calls = (
            lambda: normalize_refutation(proof),
            lambda: proof_trace_extension(formula, proof),
            lambda: res_to_clmm_sequence(formula, proof),
        )
        for call in calls:
            if chk:
                call()
                continue
            message = f"^invalid refutation at step {chk.step}: {chk.reason}$"
            with pytest.raises(ValueError, match=message):
                call()
    assert rejected == 3


def _refutation(f, learning, seq=None, budget=None):
    r = solve(f, SolverConfig(learning=learning, sequence=seq, conflict_budget=budget))
    return cl_to_res(r.records, f) if r.is_unsat else None


@pytest.fixture(scope="module")
def normalize_corpus():
    """Seeded refutations for the normalization checks: guided first-UIP
    grids 2-10; decision, rel-sat and FirstNewCut refutations of GT3-5 and of
    12 random pebbling graphs; random 3-CNFs refuted within a conflict budget
    (the others are left out)."""
    corpus = {}
    for layers in range(2, 11):
        g = gen_grid(layers)
        corpus[f"grid{layers}"] = _refutation(
            pebbling_to_cnf(g), "first_uip", peb_seq_1uip(g)
        )
    for scheme in ("decision", "relsat", "first_new_cut"):
        for n in (3, 4, 5):
            corpus[f"gt{n}-{scheme}"] = _refutation(gen_gtn(n), scheme, budget=2000)
        for seed in range(1, 13):
            f = pebbling_to_cnf(gen_random_pebbling(8, 3, 2, seed))
            corpus[f"peb{seed}-{scheme}"] = _refutation(f, scheme, budget=2000)
    for seed in range(1, 25):
        proof = _refutation(random_3cnf(18, 90, seed), "first_uip", budget=300)
        if proof is not None:
            corpus[f"cnf{seed}"] = proof
    return corpus


# sha256 prefixes of write_proof(normalize_refutation(proof)) over
# normalize_corpus, recorded before the candidate search used literal overlap
NORMALIZE_DIGESTS = {
    "grid2": "8bf4119c7ca4115d", "grid3": "0d5aa363895407ff", "grid4": "b440ec48eb6986af",
    "grid5": "75f8133380648999", "grid6": "16889d9db4f82fff", "grid7": "2f005f36dd059007",
    "grid8": "f387e2b431a82122", "grid9": "eca7fb4d026c617b", "grid10": "bad56f5b5b78cee1",
    "gt3-decision": "d75b30793c82dcf3", "gt4-decision": "40e7826ec1e08a86", "gt5-decision": "8fefc44cbe0efcbd",
    "peb1-decision": "66a5397e6d41cf8e", "peb2-decision": "99eca533ad19ac77", "peb3-decision": "4430c66a561e394d",
    "peb4-decision": "59a802589741bd90", "peb5-decision": "0c63ddb1f8df9267", "peb6-decision": "bfe0b33c260bf2fc",
    "peb7-decision": "31f032278ffb9619", "peb8-decision": "532af099f2342f93", "peb9-decision": "230b2324dad0cfcf",
    "peb10-decision": "fa4d4e8fb70cedd8", "peb11-decision": "1ddaa9ce74dca0c6", "peb12-decision": "b4d977b26a549df1",
    "gt3-relsat": "d75b30793c82dcf3", "gt4-relsat": "90d8aea531e0389f", "gt5-relsat": "4d29aafe71ddf3d6",
    "peb1-relsat": "05c6e647f562076e", "peb2-relsat": "a65c88ca208c5de7", "peb3-relsat": "92b82a3709d6d726",
    "peb4-relsat": "6db958f8c265d476", "peb5-relsat": "840b7b23cdec643f", "peb6-relsat": "f69cba933ff2155f",
    "peb7-relsat": "179b76bfa9167f69", "peb8-relsat": "7bd6fdd46051a498", "peb9-relsat": "cc50341d0e5ac562",
    "peb10-relsat": "a4baafe108ca5136", "peb11-relsat": "0b77667406ec313a", "peb12-relsat": "1d52cb2255a135df",
    "gt3-first_new_cut": "d75b30793c82dcf3", "gt4-first_new_cut": "bfd6d87c837e8160", "gt5-first_new_cut": "462d5da3db274142",
    "peb1-first_new_cut": "7a0a03ba0139d315", "peb2-first_new_cut": "003f5fb07866bf70", "peb3-first_new_cut": "125ebd80dcb97eeb",
    "peb4-first_new_cut": "e8703cfa410d8a04", "peb5-first_new_cut": "3e65c920fa2c1d42", "peb6-first_new_cut": "a86f2d25d7b13fe0",
    "peb7-first_new_cut": "97b40269144dfbf2", "peb8-first_new_cut": "51124d3cd03aee5c", "peb9-first_new_cut": "525e825eb0d4e69d",
    "peb10-first_new_cut": "b28ead77d6f39dcc", "peb11-first_new_cut": "9e85293fc85f5615", "peb12-first_new_cut": "675b067d763302d4",
    "cnf1": "f5fbaefce61444dd", "cnf3": "7d6680f36e7a9624", "cnf5": "5386a8f6decbcbce",
    "cnf6": "881272c390e303e6", "cnf8": "d3c8645e73f8503c", "cnf9": "608535652652af16",
    "cnf10": "1fe56a34044f1143", "cnf11": "8d37735d184fca90", "cnf14": "7feb1c0de7a4c926",
    "cnf18": "eb2127412ef320a9", "cnf20": "75a6873b80088e3d", "cnf23": "3e77474590ee43cb",
    "cnf24": "0c651a27f513f67e",
}


# sha256 prefixes of write_proof(proof) over normalize_corpus, that is of the
# cl_to_res output itself, recorded before cl_to_res and normalize_refutation
# shared one prune
CL_TO_RES_DIGESTS = {
    "grid2": "8bf4119c7ca4115d", "grid3": "0d5aa363895407ff", "grid4": "b440ec48eb6986af",
    "grid5": "75f8133380648999", "grid6": "16889d9db4f82fff", "grid7": "2f005f36dd059007",
    "grid8": "f387e2b431a82122", "grid9": "eca7fb4d026c617b", "grid10": "bad56f5b5b78cee1",
    "gt3-decision": "d75b30793c82dcf3", "gt4-decision": "7e6b38607766702b", "gt5-decision": "b4067a3f1c5a59a9",
    "peb1-decision": "66a5397e6d41cf8e", "peb2-decision": "99eca533ad19ac77", "peb3-decision": "4430c66a561e394d",
    "peb4-decision": "0adee962b75aee13", "peb5-decision": "a03df5e2f0fea7db", "peb6-decision": "bfe0b33c260bf2fc",
    "peb7-decision": "31f032278ffb9619", "peb8-decision": "a9aa5394f45b87cc", "peb9-decision": "07e899a3ffaa710f",
    "peb10-decision": "fa4d4e8fb70cedd8", "peb11-decision": "e684ab090fd6d5ca", "peb12-decision": "eb8c1181c350b296",
    "gt3-relsat": "d75b30793c82dcf3", "gt4-relsat": "bb873eedea1b4a86", "gt5-relsat": "efe5cabe1842b848",
    "peb1-relsat": "05c6e647f562076e", "peb2-relsat": "a65c88ca208c5de7", "peb3-relsat": "92b82a3709d6d726",
    "peb4-relsat": "dee0550846413d43", "peb5-relsat": "840b7b23cdec643f", "peb6-relsat": "f69cba933ff2155f",
    "peb7-relsat": "179b76bfa9167f69", "peb8-relsat": "7bd6fdd46051a498", "peb9-relsat": "cc50341d0e5ac562",
    "peb10-relsat": "a4baafe108ca5136", "peb11-relsat": "8140e9e9dd18996e", "peb12-relsat": "1d52cb2255a135df",
    "gt3-first_new_cut": "d75b30793c82dcf3", "gt4-first_new_cut": "1eb78bd1f49eeab4", "gt5-first_new_cut": "8367e16ff2c58a89",
    "peb1-first_new_cut": "7a0a03ba0139d315", "peb2-first_new_cut": "003f5fb07866bf70", "peb3-first_new_cut": "125ebd80dcb97eeb",
    "peb4-first_new_cut": "e8703cfa410d8a04", "peb5-first_new_cut": "3e65c920fa2c1d42", "peb6-first_new_cut": "a86f2d25d7b13fe0",
    "peb7-first_new_cut": "97b40269144dfbf2", "peb8-first_new_cut": "51124d3cd03aee5c", "peb9-first_new_cut": "525e825eb0d4e69d",
    "peb10-first_new_cut": "b28ead77d6f39dcc", "peb11-first_new_cut": "9e85293fc85f5615", "peb12-first_new_cut": "675b067d763302d4",
    "cnf1": "1949e3d43df27b73", "cnf3": "351384f850365a78", "cnf5": "9edd6110a4e1062a",
    "cnf6": "36ff1338beecd6ff", "cnf8": "9abd686a01959771", "cnf9": "608535652652af16",
    "cnf10": "71ade30599cb3c11", "cnf11": "10957d7bee77b3ca", "cnf14": "7feb1c0de7a4c926",
    "cnf18": "eb2127412ef320a9", "cnf20": "75a6873b80088e3d", "cnf23": "e304ea00b0d47cdd",
    "cnf24": "74bf937d01b0277f",
}


def test_normalize_golden_digests(normalize_corpus):
    def digest(proof):
        return hashlib.sha256(write_proof(proof).encode()).hexdigest()[:16]

    digests = {}
    changed = 0
    for name, proof in normalize_corpus.items():
        np = normalize_refutation(proof)
        assert check_res_refutation(np), name
        changed += np.steps != proof.steps
        digests[name] = digest(np)
    assert {name: digest(p) for name, p in normalize_corpus.items()} == CL_TO_RES_DIGESTS
    assert digests == NORMALIZE_DIGESTS
    assert changed >= 20


def test_normalize_is_a_fixpoint(normalize_corpus):
    for name, proof in normalize_corpus.items():
        np = normalize_refutation(proof)
        assert normalize_refutation(np).steps == np.steps, name


def test_normalize_pair_shrink(normalize_corpus):
    # the derived clause (2 3) has the strict subclause (2) obtainable by
    # resolving the earlier pair (1 2), (-1 2); normalization must shrink it
    f = CnfFormula(3, [(1, 2), (-1, 2), (-2, 3), (-2, -3)])
    steps = (
        ResolutionStep((1, 2)),
        ResolutionStep((-2, 3)),
        ResolutionStep((1, 3), 0, 1, 2),
        ResolutionStep((-1, 2)),
        ResolutionStep((2, 3), 2, 3, 1),
        ResolutionStep((-2, -3)),
        ResolutionStep((3,), 4, 1, 2),
        ResolutionStep((-2,), 6, 5, 3),
        ResolutionStep((1,), 7, 0, 2),
        ResolutionStep((2,), 8, 3, 1),
        ResolutionStep((), 9, 7, 2),
    )
    hand = ResolutionProof(f, steps)
    assert check_res_refutation(hand)
    assert (2, 3) not in [s.clause for s in normalize_refutation(hand).steps]
    # the corpus proofs small enough for the cubic pair check below
    small = [p for p in normalize_corpus.values() if p.size <= 60]
    assert len(small) >= 20
    for proof in [hand, *small]:
        np = normalize_refutation(proof)
        assert check_res_refutation(np)
        # no derived clause has a strict subclause derivable from an earlier pair
        for i, st in enumerate(np.steps):
            if st.is_initial:
                continue
            earlier = [s.clause for s in np.steps[:i]]
            for a in range(len(earlier)):
                for b in range(len(earlier)):
                    for x in earlier[a]:
                        if -x in earlier[b]:
                            res = (set(earlier[a]) | set(earlier[b])) - {x, -x}
                            if not any(-l in res for l in res):
                                assert not (
                                    res < set(st.clause)
                                ), f"step {i} has pair-derivable subclause"


def test_grid20_trace_extension_and_replay_scale():
    # both constructions normalize the 1926-step refutation first; a
    # normalization that grows quadratically with proof size misses the bound
    g = gen_grid(20)
    f = pebbling_to_cnf(g)
    proof = _refutation(f, "first_uip", peb_seq_1uip(g))
    assert proof.size == 1926
    t0 = time.perf_counter()
    extended, seq = proof_trace_extension(f, proof)
    r = solve(extended, SolverConfig(learning="first_new_cut", sequence=seq))
    report = replay_extended_sequence(f, proof)
    elapsed = time.perf_counter() - t0
    assert r.is_unsat and r.stats.fallback_decisions == 0
    assert report.result.is_unsat and report.learned == report.support
    assert elapsed < 2.0, elapsed


def test_unit_propagation_checker_adds_after_base_conflict():
    # propagating the unit (1) conflicts with 2 still queued; a later clause
    # must not trip the no-assumptions check
    chk = UnitPropagationChecker(3)
    for cl in ([-1, 2], [-1, -2], [1], [3]):
        chk.add_clause(cl)
    assert chk.base_conflict and chk.conflicts_when_all_false([-3])


def test_unit_propagation_checker():
    chk = UnitPropagationChecker(4)
    chk.add_clause([1, 2])
    chk.add_clause([-1, 3])
    assert not chk.base_conflict
    # (-2 -3) follows: assuming 2 and 3 true... check the RUP direction
    assert chk.conflicts_when_all_false([1, 2]) is True  # clause itself
    assert chk.conflicts_when_all_false([2, 3]) is True  # derived
    assert chk.conflicts_when_all_false([4]) is False
    # undo leaves the checker reusable
    assert chk.conflicts_when_all_false([2, 3]) is True
    chk.add_clause([-3])
    chk.add_clause([-2])
    assert chk.base_conflict  # base now propagates to a conflict
    assert chk.conflicts_when_all_false([4]) is True


def _naive_up_conflict(clauses, assumed_false):
    """Fixpoint unit propagation without watches: True iff assuming every
    literal of `assumed_false` false and propagating `clauses` conflicts."""
    value: dict[int, bool] = {}
    for l in assumed_false:
        if value.get(abs(l)) == (l > 0):
            return True
        value[abs(l)] = l < 0
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if any(value.get(abs(l)) == (l > 0) for l in cl):
                continue
            free = [l for l in cl if abs(l) not in value]
            if not free:
                return True
            if len(free) == 1:
                value[abs(free[0])] = free[0] > 0
                changed = True
    return False


def test_unit_propagation_checker_matches_naive_propagation():
    rng = random.Random(97)
    checked = conflicts = base_conflicts = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        chk = UnitPropagationChecker(n)
        added: list[tuple[int, ...]] = []
        for _ in range(rng.randint(1, 14)):
            width = rng.choice((0, 1, 1, 2, 2, 3, 3, 4)) if rng.random() < 0.97 else 0
            vs = rng.sample(range(1, n + 1), min(width, n))
            cl = tuple(v if rng.random() < 0.5 else -v for v in vs)
            chk.add_clause(cl)
            added.append(cl)
            for _ in range(4):
                vs = rng.sample(range(1, n + 1), rng.randint(0, n))
                query = [v if rng.random() < 0.5 else -v for v in vs]
                got = chk.conflicts_when_all_false(query)
                assert got == _naive_up_conflict(added, query), (added, query)
                checked += 1
                conflicts += got
            if chk.base_conflict:  # adding past it: the test above
                base_conflicts += 1
                break
    # the corpus reaches every branch: conflicts, non-conflicts, base conflicts
    assert 0 < conflicts < checked and base_conflicts > 20


def test_prop3_roundtrip_small():
    # every learned clause, asserted false against the clauses known at its
    # learning time, yields a unit-propagation conflict
    for seed in (1, 5, 11):
        f = random_3cnf(12, 46, seed=600 + seed)
        r = solve(f, SolverConfig(learning="first_uip"))
        chk = UnitPropagationChecker(f.num_vars)
        for c in f.clauses:
            chk.add_clause(list(c.literals))
        for rec in r.records or ():
            if rec.clause and rec.clause not in f.clause_set():
                assert chk.conflicts_when_all_false(rec.clause)
            if rec.scheme != "final":
                chk.add_clause(list(rec.clause))


def test_proof_text_roundtrip():
    f = pebbling_to_cnf(gen_grid(2))
    r = solve(f, SolverConfig(learning="first_uip", sequence=BranchingSequence((1,))))
    proof = cl_to_res(r.records, f)
    text = write_proof(proof)
    parsed = parse_proof(text, f)
    assert parsed.steps == proof.steps
    assert check_res_refutation(parsed)
    with pytest.raises(ValueError, match="line 1"):
        parse_proof("q 1 0\n", f)
    with pytest.raises(ValueError, match="line 1"):
        parse_proof("r 5 6 1 0\n", f)
    f1 = CnfFormula(1, [(1,), (-1,)])
    for pivot in ("-1", "0"):
        with pytest.raises(ValueError, match="line 4: .*pivot"):
            parse_proof(f"i 1 0\ni -1 0\n\nr 1 2 {pivot} 0\n", f1)
    assert check_res_refutation(parse_proof("i 1 0\ni -1 0\nr 1 2 1 0\n", f1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("i 1\n", "line 1: missing terminator"),
        ("i\n", "line 1: missing terminator"),
        ("# c\ni 1 0\ni -1 0\nr 1 2 1\n", "line 4: missing terminator"),
        ("i 1 0\ni -1 0\nr 1 2 1 -1\n", "line 3: missing terminator"),
    ],
)
def test_parse_proof_rejects_missing_terminator(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_proof(text, CnfFormula(1, [(1,), (-1,)]))
