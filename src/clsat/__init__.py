"""Clause-learning SAT toolkit: solver, conflict analysis, resolution proofs,
branching-sequence generation, and proof-complexity benchmark formulas."""

from .conflict import (
    ConflictGraph,
    LearnedClauseRecord,
    TrivialDerivation,
    build_conflict_graph,
    cut_is_valid,
    cut_to_clause,
    extract_trivial_derivation,
    minimize_cut,
    scheme_decision,
    scheme_first_new_cut,
    scheme_first_uip,
    scheme_relsat,
)
from .engine import (
    RESTART,
    BranchingSequence,
    Solver,
    SolverConfig,
    SolveResult,
    SolveStats,
    parse_sequence,
    solve,
    write_sequence,
)
from .formula import (
    Assignment,
    Clause,
    CnfFormula,
    DimacsError,
    canonical_literals,
    parse_dimacs,
    restrict_simplify,
    satisfies,
    write_dimacs,
)
from .generators import (
    PebblingGraph,
    PebNode,
    gen_grid,
    gen_gtn,
    gen_random_pebbling,
    gtn_successor_indices,
    gtn_var,
    make_satisfiable,
    parse_pebbling_graph,
    pebbling_to_cnf,
    write_pebbling_graph,
)
from .proofs import (
    CheckResult,
    ResolutionProof,
    ResolutionStep,
    UnitPropagationChecker,
    check_res_refutation,
    check_trivial,
    cl_to_res,
    derivation_to_proof,
    normalize_refutation,
    parse_proof,
    proof_trace_extension,
    replay_extended_sequence,
    res_to_clmm_sequence,
    write_proof,
)
from .seqgen import gtn_seq, peb_seq_1uip

__version__ = "0.1.0"
