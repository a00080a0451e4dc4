import hashlib

import pytest

from clsat import (
    CnfFormula,
    gen_random_pebbling,
    make_satisfiable,
    parse_dimacs,
    parse_pebbling_graph,
    parse_sequence,
    pebbling_to_cnf,
    write_dimacs,
)
from clsat.bench import CSV_HEADER
from clsat.cli import main
from conftest import random_3cnf


def run(args):
    return main(args)


def test_gen_grid_to_file(tmp_path, capsys):
    out = tmp_path / "g.cnf"
    graph = tmp_path / "g.peb"
    assert run(["gen-grid", "--layers", "4", "-o", str(out), "--graph", str(graph)]) == 0
    f = parse_dimacs(out.read_text())
    assert f.num_vars == 20 and f.size == 2 * 4 * 3 + 4 + 2
    assert graph.read_text().startswith("p peb 10")


def test_gen_gtn_counts(tmp_path):
    out = tmp_path / "gt.cnf"
    assert run(["gen-gtn", "--n", "10", "-o", str(out)]) == 0
    f = parse_dimacs(out.read_text())
    assert f.size == 775
    sat_out = tmp_path / "gt_sat.cnf"
    assert run(["gen-gtn", "--n", "10", "--sat-seed", "3", "-o", str(sat_out)]) == 0
    assert parse_dimacs(sat_out.read_text()).size == 774


def test_gen_randpeb_to_file(tmp_path):
    out = tmp_path / "r.cnf"
    graph = tmp_path / "r.peb"
    args = ["gen-randpeb", "--nodes", "9", "--max-indegree", "3", "--max-label", "3",
            "--seed", "5", "-o", str(out), "--graph", str(graph)]
    assert run(args) == 0
    g = gen_random_pebbling(9, 3, 3, 5)
    assert parse_pebbling_graph(graph.read_text()) == g
    assert parse_dimacs(out.read_text()) == pebbling_to_cnf(g)
    sat_out = tmp_path / "r_sat.cnf"
    assert run([*args[:-4], "--sat-seed", "2", "-o", str(sat_out)]) == 0
    assert parse_dimacs(sat_out.read_text()) == make_satisfiable(pebbling_to_cnf(g), 2)


def test_gen_seq_grid_golden(tmp_path):
    graph = tmp_path / "g.peb"
    seq = tmp_path / "g.seq"
    run(["gen-grid", "--layers", "4", "-o", str(tmp_path / "x.cnf"), "--graph", str(graph)])
    assert run(["gen-seq", "--graph", str(graph), "-o", str(seq)]) == 0
    assert parse_sequence(seq.read_text()).entries == (15, 16, 9, 10, 1, 3, 11, 12, 5)


def test_gen_seq_needs_exactly_one_source(tmp_path, capsys):
    graph = tmp_path / "g.peb"
    run(["gen-grid", "--layers", "3", "-o", str(tmp_path / "x.cnf"), "--graph", str(graph)])
    for args in (["gen-seq"], ["gen-seq", "--graph", str(graph), "--gtn", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "one of the arguments --graph --gtn is required" in err
    assert "not allowed with argument" in err


def test_gen_seq_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.peb"
    bad.write_text("p peb 1\nn 1 1 |\nt\n")
    assert run(["gen-seq", "--graph", str(bad)]) == 1
    assert "error: line 3:" in capsys.readouterr().err


def test_gen_seq_gtn(tmp_path):
    seq = tmp_path / "gt.seq"
    assert run(["gen-seq", "--gtn", "3", "-o", str(seq)]) == 0
    assert len(parse_sequence(seq.read_text())) == 6


def test_solve_exit_codes(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run(["solve", str(cnf)]) == 20
    out = capsys.readouterr().out
    assert "UNSATISFIABLE" in out and "decisions=0" in out

    cnf2 = tmp_path / "s.cnf"
    cnf2.write_text("p cnf 2 1\n1 2 0\n")
    assert run(["solve", str(cnf2)]) == 10
    assert "v " in capsys.readouterr().out

    cnf3 = tmp_path / "b.cnf"
    cnf3.write_text("p cnf 2 1\n1 2 0\n")
    assert run(["solve", str(cnf3), "--decision-budget", "0"]) == 30


def test_solve_cl_minus_minus_needs_a_sequence(tmp_path, capsys):
    # CL-- changes only how sequence entries are read: without a sequence
    # the option would do nothing
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run(["solve", str(cnf), "--cl-minus-minus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cl-minus-minus needs --sequence\n"


def test_solve_with_sequence_and_proof(tmp_path, capsys):
    cnf = tmp_path / "g.cnf"
    graph = tmp_path / "g.peb"
    seq = tmp_path / "g.seq"
    proof = tmp_path / "g.res"
    run(["gen-grid", "--layers", "3", "-o", str(cnf), "--graph", str(graph)])
    run(["gen-seq", "--graph", str(graph), "-o", str(seq)])
    assert run(["solve", str(cnf), "--sequence", str(seq), "--proof", str(proof)]) == 20
    out = capsys.readouterr().out
    assert "fallback=0" in out
    assert run(["verify-proof", str(cnf), str(proof)]) == 0
    assert "valid refutation" in capsys.readouterr().out


def test_solve_proof_on_sat_writes_nothing(tmp_path, capsys):
    cnf = tmp_path / "s.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    proof = tmp_path / "s.res"
    assert run(["solve", str(cnf), "--proof", str(proof)]) == 10
    assert "c no refutation to write" in capsys.readouterr().err
    assert not proof.exists()


def test_verify_proof_invalid(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    bad = tmp_path / "bad.res"
    bad.write_text("i 1 0\ni -1 0\nr 1 2 1 1 0\n")
    assert run(["verify-proof", str(cnf), str(bad)]) == 1
    assert "invalid at step" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pt-extend", "res-replay"])
def test_proof_commands_reject_invalid_refutation(tmp_path, capsys, command):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    bad = tmp_path / "bad.res"
    bad.write_text("i 1 0\ni -1 0\nr 1 2 1 1 0\n")  # the resolvent is (), not (1)
    out = tmp_path / "pt.cnf"
    args = [command, str(cnf), str(bad)] + (["-o", str(out)] if command == "pt-extend" else [])
    assert run(args) == 1
    assert capsys.readouterr().err == "error: invalid refutation at step 2: wrong resolvent\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        ("verify-proof", "invalid: proof does not end in the empty clause\n"),
        ("pt-extend", "error: invalid refutation: proof does not end in the empty clause\n"),
        ("res-replay", "error: invalid refutation: proof does not end in the empty clause\n"),
    ],
)
def test_proof_commands_name_no_step_when_the_failure_has_none(
    tmp_path, capsys, command, message
):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    proof = tmp_path / "f.res"
    proof.write_text("i 1 0\n")  # checks, but does not end in ()
    out = tmp_path / "pt.cnf"
    args = [command, str(cnf), str(proof)] + (["-o", str(out)] if command == "pt-extend" else [])
    assert run(args) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_pt_extend_and_replay(tmp_path, capsys):
    cnf = tmp_path / "g.cnf"
    graph = tmp_path / "g.peb"
    seq = tmp_path / "g.seq"
    proof = tmp_path / "g.res"
    run(["gen-grid", "--layers", "3", "-o", str(cnf), "--graph", str(graph)])
    run(["gen-seq", "--graph", str(graph), "-o", str(seq)])
    run(["solve", str(cnf), "--sequence", str(seq), "--proof", str(proof)])
    capsys.readouterr()

    pt_cnf = tmp_path / "pt.cnf"
    pt_seq = tmp_path / "pt.seq"
    assert run(["pt-extend", str(cnf), str(proof), "-o", str(pt_cnf), "--seq", str(pt_seq)]) == 0
    extended = parse_dimacs(pt_cnf.read_text())
    base = parse_dimacs(cnf.read_text())
    assert extended.num_vars > base.num_vars
    trace_seq = parse_sequence(pt_seq.read_text())
    assert len(trace_seq) == extended.num_vars - base.num_vars

    assert run(["res-replay", str(cnf), str(proof)]) == 20
    out = capsys.readouterr().out
    assert "in_order=True" in out


def test_proof_commands_accept_the_formulas_own_empty_clause(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n0\n")
    proof = tmp_path / "f.res"
    proof.write_text("i 0\n")
    out = tmp_path / "pt.cnf"
    assert run(["pt-extend", str(cnf), str(proof), "-o", str(out)]) == 0
    assert "0 trace variables, 0 trace clauses" in capsys.readouterr().out
    assert parse_dimacs(out.read_text()) == parse_dimacs(cnf.read_text())
    assert run(["res-replay", str(cnf), str(proof)]) == 20
    assert "c replay: support=0 learned=0" in capsys.readouterr().out


def test_res_replay_reports_learning_collision(tmp_path, capsys):
    # replaying the guided first-UIP refutation of this graph learns a
    # clause that is already known when its conflict is reached
    cnf, graph, seq, proof = (tmp_path / n for n in ("r.cnf", "r.peb", "r.seq", "r.res"))
    gen = ["--nodes", "10", "--max-indegree", "3", "--max-label", "3", "--seed", "2"]
    run(["gen-randpeb", *gen, "-o", str(cnf), "--graph", str(graph)])
    run(["gen-seq", "--graph", str(graph), "-o", str(seq)])
    assert run(["solve", str(cnf), "--sequence", str(seq), "--proof", str(proof)]) == 20
    capsys.readouterr()
    assert run(["res-replay", str(cnf), str(proof)]) == 1
    assert capsys.readouterr().err == (
        "error: learning collided with an already-known clause during replay\n"
    )


def test_solve_dump_graphs(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n-1 2 0\n-1 3 0\n-2 -3 0\n")
    seq = tmp_path / "f.seq"
    seq.write_text("-1\n")
    dump = tmp_path / "graphs.txt"
    assert run(["solve", str(cnf), "--sequence", str(seq), "--dump-graphs", str(dump)]) == 10
    text = dump.read_text()
    assert "# conflict 1" in text
    assert "node 1 decision" in text
    assert "edge 1 2" in text


def test_dump_graphs_edges_follow_antecedent_order(tmp_path):
    # the edges into a node are its antecedent's other literals, negated, in
    # the antecedent's canonical (variable) order; for the virtual conflict
    # node that antecedent is the conflicting clause
    cnf = tmp_path / "f.cnf"
    cnf.write_text(write_dimacs(random_3cnf(8, 34, seed=905)))
    dump = tmp_path / "graphs.txt"
    run(["solve", str(cnf), "--dump-graphs", str(dump)])
    conflicts = dump.read_text().split("# conflict ")[1:]
    assert len(conflicts) >= 3
    for block in conflicts:
        into = {}
        for line in block.splitlines():
            if line.startswith("edge ") and not line.endswith(" conflict"):
                p, n = map(int, line.split()[1:])
                into.setdefault(n, []).append(abs(p))
        assert into
        for n, variables in into.items():
            assert variables == sorted(variables), (block.split()[0], n)


# sha256 prefixes of the whole --dump-graphs output for random_3cnf(8, 34,
# seed=905): one run per learning scheme and one CL-- run with a sequence,
# recorded while the graph still stored its edges and decisions
DUMP_DIGESTS = {
    ("--learning", "first_uip"): "046cb51e14337308",
    ("--learning", "decision"): "bcf8f6ba37bec8ff",
    ("--learning", "relsat"): "bcf8f6ba37bec8ff",
    ("--learning", "first_new_cut"): "687d0203e5f7b5bd",
    ("--cl-minus-minus", "--sequence"): "b75df13efdbe477e",
}


def test_dump_graphs_golden_digest(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(write_dimacs(random_3cnf(8, 34, seed=905)))
    seq = tmp_path / "f.seq"
    seq.write_text("7\n2\n6\n4\n")
    texts = {}
    for options, digest in DUMP_DIGESTS.items():
        dump = tmp_path / "graphs.txt"
        args = [*options, str(seq)] if "--sequence" in options else list(options)
        assert run(["solve", str(cnf), *args, "--dump-graphs", str(dump)]) == 10
        text = texts[options] = dump.read_text()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, options
    # the CL-- run meets a clash: the branch on the conflict variable is a
    # reason-less decision node
    clashes = []
    for block in texts["--cl-minus-minus", "--sequence"].split("# conflict ")[1:]:
        var = int(block.split()[1].removeprefix("var="))
        clashes += [
            line for line in block.splitlines()
            if line.startswith("node ") and abs(int(line.split()[1])) == var
            and line.split()[2] == "decision"
        ]
    assert clashes


def test_bench_csv_and_markdown(tmp_path):
    csv_path = tmp_path / "rows.csv"
    md_path = tmp_path / "rows.md"
    assert (
        run(
            [
                "bench",
                "--family", "grid",
                "--layers", "2..4",
                "--configs", "dpll,cl_sequence",
                "--variants", "unsat,sat",
                "--csv", str(csv_path),
                "--markdown", str(md_path),
            ]
        )
        == 0
    )
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2 * 2
    seq_rows = [l for l in lines[1:] if ",cl_sequence," in l]
    for row in seq_rows:
        cols = row.split(",")
        assert cols[4] in ("SAT", "UNSAT")
        if cols[2] == "unsat":
            assert cols[8] == "0"  # guided refutations need no fallback
    assert md_path.read_text().startswith("| family |")


def test_bench_randpeb_family(tmp_path):
    csv_path = tmp_path / "r.csv"
    assert (
        run(
            [
                "bench",
                "--family", "randpeb",
                "--nodes", "6,8",
                "--seed", "2",
                "--max-indegree", "3",
                "--max-label", "3",
                "--configs", "cl_sequence",
                "--variants", "unsat",
                "--csv", str(csv_path),
                "--markdown", str(tmp_path / "r.md"),
            ]
        )
        == 0
    )
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        cols = row.split(",")
        assert cols[0] == "random_pebbling"
        assert cols[4] == "UNSAT" and cols[8] == "0"


def test_bench_deterministic_modulo_time(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run(
            [
                "bench",
                "--family", "gtn",
                "--n", "3..5",
                "--configs", "cl_default,cl_sequence",
                "--variants", "unsat,sat",
                "--csv", str(path),
                "--markdown", str(tmp_path / "ignore.md"),
            ]
        )
    strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
    assert strip(a) == strip(b)


# sha256 prefixes of the CSV rows, time_ms column removed, of one bench run
# per family (all three configs, both variants, --sat-seed 2, budgets 200
# conflicts / 2000 decisions), recorded before the families shared one loop
BENCH_DIGESTS = {
    ("grid", "--layers", "2..7"): "2a6928851893a822",
    ("randpeb", "--nodes", "6,10,14", "--seed", "3"): "65833075e431bc4f",
    ("gtn", "--n", "3..6"): "df1690fba9464d6e",
}


def test_bench_golden_digests(tmp_path):
    for (family, *params), digest in BENCH_DIGESTS.items():
        path = tmp_path / f"{family}.csv"
        args = [
            "bench", "--family", family, *params,
            "--configs", "dpll,cl_default,cl_sequence",
            "--variants", "unsat,sat",
            "--sat-seed", "2",
            "--conflict-budget", "200",
            "--decision-budget", "2000",
            "--csv", str(path),
            "--markdown", str(tmp_path / "ignore.md"),
        ]
        assert run(args) == 0
        rows = [l.rsplit(",", 1)[0] for l in path.read_text().splitlines()]
        got = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
        assert got == digest, family


def test_cli_error_exit(tmp_path, capsys):
    assert run(["solve", str(tmp_path / "missing.cnf")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    assert run(["solve", str(bad)]) == 1


@pytest.mark.parametrize(
    "option",
    [
        ("--layers", "5..3"),
        ("--layers", ""),
        ("--layers", "2,4..3"),
        ("--n", ","),
        ("--layers", "2.."),
        ("--layers", "a,3"),
    ],
)
def test_bench_rejects_empty_range(tmp_path, capsys, option):
    family = "grid" if option[0] == "--layers" else "gtn"
    md = tmp_path / "t.md"
    args = ["bench", "--family", family, *option, "--markdown", str(md)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(option[1]) in err
    assert not md.exists()


@pytest.mark.parametrize("option", [("--conflict-budget", "-1"), ("--decision-budget", "-5")])
def test_bench_rejects_negative_budget(tmp_path, capsys, option):
    md = tmp_path / "t.md"
    args = ["bench", "--family", "grid", "--layers", "2..3", "--configs", "dpll"]
    assert run([*args, "--variants", "unsat", *option, "--markdown", str(md)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget must be >= 0" in err
    assert not md.exists()


@pytest.mark.parametrize("option", [("--configs", ""), ("--variants", ","), ("--configs", " , ")])
def test_bench_rejects_empty_name_list(tmp_path, capsys, option):
    md = tmp_path / "t.md"
    args = ["bench", "--family", "grid", "--layers", "2..3", *option, "--markdown", str(md)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and option[0] in err and repr(option[1]) in err
    assert not md.exists()


def test_bench_rejects_unknown_variant(tmp_path, capsys):
    md = tmp_path / "t.md"
    args = ["bench", "--family", "grid", "--layers", "2..3", "--variants", "foo",
            "--markdown", str(md)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'foo'" in err
    assert not md.exists()


def test_bench_rejects_unknown_config_before_solving(tmp_path, capsys, monkeypatch):
    import clsat.bench

    solves = []
    real_solve = clsat.bench.solve
    monkeypatch.setattr(
        clsat.bench, "solve", lambda *a, **k: solves.append(1) or real_solve(*a, **k)
    )
    md = tmp_path / "t.md"
    args = ["bench", "--family", "grid", "--layers", "2..3", "--configs", "dpll,foo",
            "--markdown", str(md)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'foo'" in err
    assert solves == []
    assert not md.exists()


@pytest.mark.parametrize(
    "family, variants, configs, message",
    [
        ("pebbling", ["unsat"], ["dpll"], "^unknown family 'pebbling'$"),
        ("grid", ["unsat", "foo"], ["dpll"], "^unknown variant 'foo'$"),
        ("gtn", ["sat"], ["cl_default", "foo"], "^unknown config label 'foo'$"),
    ],
)
def test_library_bench_rejects_unknown_names_before_solving(
    monkeypatch, family, variants, configs, message
):
    import clsat.bench

    solves = []
    real_solve = clsat.bench.solve
    monkeypatch.setattr(
        clsat.bench, "solve", lambda *a, **k: solves.append(1) or real_solve(*a, **k)
    )
    with pytest.raises(ValueError, match=message):
        clsat.bench.bench(family, [3, 4], variants, configs)
    assert solves == []


@pytest.mark.parametrize("budget", ["conflict_budget", "decision_budget"])
@pytest.mark.parametrize("family", ["grid", "randpeb", "gtn"])
def test_library_bench_rejects_negative_budget_before_generating(monkeypatch, family, budget):
    import clsat.bench

    generated = []
    for name in ("gen_grid", "gen_random_pebbling", "gen_gtn"):
        real = getattr(clsat.bench, name)
        monkeypatch.setattr(
            clsat.bench, name, lambda *a, real=real: generated.append(1) or real(*a)
        )
    with pytest.raises(ValueError, match=f"^{budget} must be >= 0$"):
        clsat.bench.bench(family, [3], ["unsat"], ["dpll"], **{budget: -1})
    assert generated == []


@pytest.mark.parametrize(
    "label, message",
    [
        ("foo", "^unknown config label 'foo'$"),
        ("cl_sequence", "^cl_sequence needs a generated branching sequence$"),
    ],
)
def test_run_case_rejects_bad_config(label, message):
    import clsat.bench

    with pytest.raises(ValueError, match=message):
        clsat.bench.run_case("grid", "layers=1", "unsat", label, CnfFormula(1, [(1,)]), None, 9, 9)


@pytest.mark.parametrize(
    "family, option, owner",
    [
        ("grid", ("--seed", "2"), "randpeb"),
        ("gtn", ("--max-indegree", "-3"), "randpeb"),
        ("grid", ("--max-label", "0"), "randpeb"),
        ("randpeb", ("--layers", "2..3"), "grid"),
        ("gtn", ("--nodes", "6"), "randpeb"),
        ("randpeb", ("--n", "3"), "gtn"),
    ],
)
def test_bench_rejects_options_its_family_ignores(
    tmp_path, capsys, monkeypatch, family, option, owner
):
    import clsat.bench

    solves = []
    real_solve = clsat.bench.solve
    monkeypatch.setattr(
        clsat.bench, "solve", lambda *a, **k: solves.append(1) or real_solve(*a, **k)
    )
    md = tmp_path / "t.md"
    assert run(["bench", "--family", family, *option, "--markdown", str(md)]) == 1
    assert capsys.readouterr().err == f"error: {option[0]} applies only to --family {owner}\n"
    assert solves == []
    assert not md.exists()


@pytest.mark.parametrize("family", ["grid", "gtn"])
@pytest.mark.parametrize("name", ["seed", "max_indegree", "max_label"])
def test_library_bench_rejects_shape_for_other_families(family, name):
    from clsat.bench import bench

    with pytest.raises(ValueError, match=f"^{name} applies only to family randpeb$"):
        bench(family, [3], ["unsat"], ["dpll"], **{name: 2})


def test_library_bench_fills_in_the_randpeb_shape():
    from clsat.bench import bench

    (row,) = bench("randpeb", [6], ["unsat"], ["cl_sequence"])
    assert row.params == "nodes=6;d=5;l=6;seed=1"
    (row,) = bench("randpeb", [6], ["unsat"], ["cl_sequence"], max_label=2)
    assert row.params == "nodes=6;d=5;l=2;seed=1"


def test_solve_sequence_with_unknown_variable(tmp_path, capsys):
    cnf = tmp_path / "u.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    seq = tmp_path / "u.seq"
    seq.write_text("5\n")
    assert run(["solve", str(cnf), "--sequence", str(seq)]) == 1
    err = capsys.readouterr().err
    assert "error: sequence entry 1 names unknown variable 5" in err
