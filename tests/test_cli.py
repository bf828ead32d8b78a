import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rwmso import (BranchDecomposition, LinEMSOProblem, format_graph, format_parse_tree,
                   family_tree, free_variables, generate_graph, parse_formula, parse_graph,
                   pretty_print)
from rwmso import chartree, cli, commands
from rwmso.chartree import RCForest, char_tree_from_parse_tree
from rwmso.cli import main

from common import decomposition_width, random_formula, random_structure

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.pt"
    path.write_text(format_parse_tree(family_tree("path", 4)))
    return str(path)


@pytest.fixture
def c5_graph(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(format_graph(generate_graph(family_tree("cycle", 5))))
    return str(path)


def test_check_true_false_and_json(p4_file, capsys):
    assert main(["check", "--parse-tree", p4_file,
                 "--formula", "Ex x. Ex y. adj(x,y)", "--json"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "true"
    report = json.loads(out[1])
    assert report["schema"] == "rwmso-report/1"
    assert report["answer"] is True
    assert report["q"] == 2 and report["moveBudget"] == [2]
    assert report["parseTreeNodes"] == 7
    assert report["charTreeNodes"] > 0
    assert report["peakInterned"] >= report["charTreeNodes"]
    # every label is some interned node's
    assert 0 < report["internedLabels"] <= report["peakInterned"]
    assert report["wallTimeSec"] >= 0 and report["parseSec"] >= 0
    assert report["collapsedNodes"] == 0  # no set quantifier, nothing to collapse

    assert main(["check", "--parse-tree", p4_file,
                 "--formula", "Ax x. Ax y. adj(x,y)"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "false"


def test_check_reports_the_collapsed_tree(tmp_path, capsys):
    # two-colorable on a path: the collapsed tree is smaller than the one
    # chartree builds for the same budget, and its count is in the report
    path = tmp_path / "p32.pt"
    path.write_text(format_parse_tree(family_tree("path", 32, 2)))
    formula = "EX C. Ax x. Ax y. (!adj(x,y) | (C(x) & !C(y)) | (!C(x) & C(y)))"
    assert main(["check", "--parse-tree", str(path), "--formula", formula, "--json"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["answer"] is True and report["collapsedNodes"] > 0
    forest = RCForest()
    plain = char_tree_from_parse_tree(family_tree("path", 32, 2), report["moveBudget"], forest)
    assert report["peakInterned"] < len(forest)
    assert report["charTreeNodes"] < plain.size()


def test_check_errors(p4_file, capsys):
    # free variable
    assert main(["check", "--parse-tree", p4_file, "--formula", "adj(x,y)"]) == 2
    assert "error:" in capsys.readouterr().err
    # syntax error
    assert main(["check", "--parse-tree", p4_file, "--formula", "adj(x,"]) == 2
    # missing file
    assert main(["check", "--parse-tree", "/nonexistent", "--formula", "x = x"]) == 2


@pytest.mark.parametrize("formula, message", [
    ("Ex x. adj(x,y)", "free object variables y; 'check' takes sentences only"),
    ("Ax x. (X(x) | Y(x))", "free set variables X, Y; use 'optimize' for free set variables"),
    ("Ex x. (X(x) & adj(x,y))", "free object variables y and set variables X; "
                                "'check' takes sentences only"),
], ids=["object", "set", "both"])
def test_check_names_free_variables_by_kind(p4_file, formula, message, capsys):
    # optimize takes free set variables only, so only they are sent there
    assert main(["check", "--parse-tree", p4_file, "--formula", formula]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: formula has {message}"]


def test_out_of_memory_is_one_error_line(p4_file, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "char_tree_from_parse_tree", exhausted)
    assert main(["check", "--parse-tree", p4_file, "--formula", "Ex x. x = x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert len(captured.err.splitlines()) == 1


def test_check_rank_five_path_sentence(p4_file, capsys):
    # a cheap deep run: ~1,300 interned nodes, far below the ceiling
    phi = "Ex a. Ex b. Ex c. Ex d. Ex e. (adj(a,b) & adj(b,c) & adj(c,d) & adj(d,e))"
    assert main(["check", "--parse-tree", p4_file, "--formula", phi]) == 0
    assert capsys.readouterr().out.splitlines() == ["true"]


@pytest.mark.parametrize("argv", [
    ["check", "--formula", "Ex x. Ex y. adj(x,y)"],
    ["optimize", "--formula", "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))", "--weights", "1"],
    ["chartree", "--q", "2"],
    ["bench", "--family", "path", "--n-list", "8", "--q", "2", "--repeats", "1"],
], ids=lambda argv: argv[0])
def test_node_ceiling_is_one_error_line(p4_file, argv, monkeypatch, capsys):
    monkeypatch.setattr(chartree, "MAX_NODES", 4)
    if argv[0] != "bench":
        argv = argv + ["--parse-tree", p4_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "reached 4 interned nodes" in err[0] and "MAX_NODES=4" in err[0]


@pytest.mark.parametrize("argv", [
    ["chartree", "--q", "1200"],
    ["bench", "--family", "path", "--n-list", "8", "--q", "1200", "--repeats", "1"],
], ids=lambda argv: argv[0])
def test_a_depth_past_the_ceiling_is_one_error_line(p4_file, argv, capsys):
    # the leaf's tree alone passes MAX_NODES from q = 18 on: refused before
    # anything is built, so no walk 1,200 moves deep overflows the stack
    if argv[0] == "chartree":
        argv = argv + ["--parse-tree", p4_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "a depth-1200 tree" in err[0] and "MAX_NODES=500000" in err[0]


def test_deep_formulas_end_cleanly(tmp_path, monkeypatch, capsys):
    # 95 set quantifiers over one vertex: building the leaf's tree walks
    # ~3^96 moves, and the node ceiling ends the walk
    p1 = tmp_path / "p1.pt"
    p1.write_text(format_parse_tree(family_tree("path", 1)))
    monkeypatch.setattr(chartree, "MAX_NODES", 2_000)
    sets = "".join(f"EX A{i}. " for i in range(95)) + "Ex x. A0(x)"
    assert main(["check", "--parse-tree", str(p1), "--formula", sets]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "MAX_NODES=2000" in captured.err
    assert "Traceback" not in captured.err
    # 95 point moves over one vertex: one node per depth
    points = "".join(f"Ex x{i}. " for i in range(95)) + "x0 = x94"
    assert main(["check", "--parse-tree", str(p1), "--formula", points, "--json"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "true"
    report = json.loads(out[1])
    assert report["charTreeNodes"] == report["peakInterned"] == 96


@pytest.mark.parametrize("command", ["check", "optimize", "chartree"])
def test_tree_commands_take_no_force(command):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--parse-tree", "t.pt", "--force"])


def test_oracle(c5_graph, capsys):
    assert main(["oracle", "--graph", c5_graph,
                 "--formula", "Ex x. Ex y. adj(x,y)"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    two_col = "EX C. Ax x. Ax y. (!adj(x,y) | (C(x) & !C(y)) | (!C(x) & C(y)))"
    assert main(["oracle", "--graph", c5_graph, "--formula", two_col]) == 1


def test_oracle_guard(tmp_path, capsys):
    big = tmp_path / "big.graph"
    big.write_text(format_graph(generate_graph(family_tree("path", 20))))
    three_sets = "EX A. EX B. EX C. Ex x. A(x)"
    assert main(["oracle", "--graph", str(big), "--formula", three_sets]) == 2
    assert "--force" in capsys.readouterr().err


def test_oracle_guard_counts_nested_set_quantifiers(tmp_path, capsys):
    p3 = tmp_path / "p3.graph"
    p3.write_text(format_graph(generate_graph(family_tree("path", 3))))
    side_by_side = ("(EX A. Ex x. A(x)) & (EX B. Ex x. B(x))"
                    " & (EX C. Ex x. C(x))")
    assert main(["oracle", "--graph", str(p3), "--formula", side_by_side]) == 0
    assert capsys.readouterr().out.strip() == "true"
    nested = "EX A. EX B. EX C. Ex x. A(x)"
    assert main(["oracle", "--graph", str(p3), "--formula", nested]) == 2
    assert "3 nested set quantifiers" in capsys.readouterr().err
    assert main(["oracle", "--graph", str(p3), "--formula", nested, "--force"]) == 0


def test_oracle_guard_bounds_nested_point_quantifiers(tmp_path, monkeypatch, capsys):
    # one branch of k nested point quantifiers visits n^k assignments:
    # on 12 vertices 12^7 is over the set rule's worst case 2^(12 * 2),
    # 12^6 is not.  evaluate is stubbed, so only the guard runs for real
    def reached(*args):
        raise AssertionError("evaluate reached")

    monkeypatch.setattr(commands, "evaluate", reached)
    empty = tmp_path / "empty.graph"
    empty.write_text("p graph 12 0 1\n")

    def nested(k):
        return "".join(f"Ex x{i}. " for i in range(k)) + "!x0 = x0"

    assert main(["oracle", "--graph", str(empty), "--formula", nested(7)]) == 2
    err = capsys.readouterr().err
    assert "2^25.1 assignments" in err and "--force" in err
    for argv in ([nested(6)], [nested(7), "--force"]):
        with pytest.raises(AssertionError, match="evaluate reached"):
            main(["oracle", "--graph", str(empty), "--formula", *argv])


@pytest.mark.parametrize("formula, out, code", [("Ax x. x = x", "true", 0),
                                                ("Ex x. x = x", "false", 1)])
def test_oracle_on_an_empty_graph(tmp_path, capsys, formula, out, code):
    # no vertex, so a point quantifier's branch visits 0 assignments; the
    # guard's message, with log2 of that count, is built only when it trips
    empty = tmp_path / "empty.graph"
    empty.write_text("p graph 0 0 1\n")
    assert main(["oracle", "--graph", str(empty), "--formula", formula]) == code
    assert capsys.readouterr().out.splitlines() == [out]


def test_oracle_refuses_a_huge_header_only_graph(tmp_path, capsys):
    # validating the 200000 empty rows must not take quadratic time
    big = tmp_path / "big.graph"
    big.write_text("p graph 200000 0 1\n")
    assert main(["oracle", "--graph", str(big), "--formula", "Ex x. x = x"]) == 2
    assert "brute force on n=200000" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--formula", "Ex x. x = x"], "brute force on n=2000000 with 0 nested"),
    (["rankwidth"], "exact rankwidth on n=2000000 vertices is too big"),
], ids=["oracle", "rankwidth"])
def test_a_huge_header_is_refused_before_any_row_is_built(tmp_path, capsys, argv, message):
    # each command's guard reads the header's n, so none of the 2,000,000
    # rows is made: a row list alone would take 16 MB
    big = tmp_path / "big.graph"
    big.write_text("p graph 2000000 0 1\n")
    tracemalloc.start()
    try:
        code = main([argv[0], "--graph", str(big), *argv[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert message in capsys.readouterr().err
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("text", [
    " & ".join(["x = x"] * 3000),
    "Ex x. " + "!" * 3000 + "x = x",
    "Ex x. " + "(" * 3000 + "x = x" + ")" * 3000,
], ids=["conjuncts", "negations", "parentheses"])
def test_deep_formula_exits_2(p4_file, text, capsys):
    assert main(["qrank", "--formula", text]) == 2
    assert main(["check", "--parse-tree", p4_file, "--formula", text]) == 2
    err = capsys.readouterr().err
    assert err.count("error: formula nested deeper") == 2 and "Traceback" not in err


def test_check_agrees_with_oracle(tmp_path, capsys):
    formulas = ["Ex x. Ex y. adj(x,y)", "Ex x. Ax y. !adj(x,y)",
                "Ex x. label1(x)"]
    for family, n in (("path", 4), ("star", 5), ("complete", 3)):
        tree = family_tree(family, n)
        tf = tmp_path / "t.pt"
        tf.write_text(format_parse_tree(tree))
        gf = tmp_path / "g.graph"
        gf.write_text(format_graph(generate_graph(tree)))
        for formula in formulas:
            a = main(["check", "--parse-tree", str(tf), "--formula", formula])
            b = main(["oracle", "--graph", str(gf), "--formula", formula])
            capsys.readouterr()
            assert a == b


def test_optimize(p4_file, capsys):
    assert main(["optimize", "--parse-tree", p4_file,
                 "--formula", "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))",
                 "--weights", "1", "--direction", "max", "--json"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "value 2"
    report = json.loads(out[-1])
    assert report["answer"] == 2
    assert report["q"] == 3 and report["moveBudget"] == [0, 2]


def _optimize_json(tmp_path, capsys, family, n, formula, weights, direction):
    path = tmp_path / f"{family}{n}.pt"
    path.write_text(format_parse_tree(family_tree(family, n)))
    assert main(["optimize", "--parse-tree", str(path), "--formula", formula,
                 "--weights", weights, "--direction", direction, "--json"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_optimize_reports_dp_states(tmp_path, capsys):
    # the 36 states of max independent set on a path survive; the products
    # that already hold an edge inside X collapse into the lost node.
    # Dominating set collapses the products with a frozen vertex (label
    # row 0) outside X and no neighbour in X: no later composition gives
    # it one.  collapsedNodes counts distinct products, as for check, and
    # peakInterned the lost node too
    report = _optimize_json(tmp_path, capsys, "path", 64,
                            "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))", "1", "max")
    assert report["answer"] == 32
    assert (report["dpPeakStates"], report["collapsedNodes"]) == (36, 29)
    assert report["dpPairProducts"] == 4146 and report["parseSec"] >= 0
    assert report["peakInterned"] == 190
    report = _optimize_json(tmp_path, capsys, "path", 64,
                            "Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))", "1", "min")
    assert report["answer"] == 22
    assert (report["dpPeakStates"], report["collapsedNodes"]) == (105, 25)


def test_optimize_two_set_variables(tmp_path, capsys):
    # a 2-colouring of path n=64, maximizing |X| - |Y| (rank 3 plus two sets)
    formula = ("Ax x. ((X(x) | Y(x)) & !(X(x) & Y(x)))"
               " & (Ax x. Ax y. (!adj(x,y) | !X(x) | !X(y)))"
               " & (Ax x. Ax y. (!adj(x,y) | !Y(x) | !Y(y)))")
    report = _optimize_json(tmp_path, capsys, "path", 64, formula, "1,-1", "max")
    assert report["answer"] == 0
    x, y = map(set, report["witness"])
    assert x | y == set(range(64)) and not x & y
    for u in range(63):
        assert (u in x) != (u + 1 in x)


def test_optimize_reports_the_depth_of_its_move_budget(tmp_path, capsys):
    # q, the rank plus the l preloaded sets, is the depth of the budget
    # the trees are built for: on the three optimize problems and on
    # seeded random formulas over one or two free sets
    path = tmp_path / "path3.pt"
    path.write_text(format_parse_tree(family_tree("path", 3, 2)))
    formulas = [parse_formula(text, 2) for text in (
        "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))", "Ax x. Ax y. (!adj(x,y) | X(x) | X(y))",
        "Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))")]
    rng = random.Random(7)
    while len(formulas) < 40:
        phi = random_formula(rng, rng.randint(1, 3), [], ["X", "Y"][:rng.randint(1, 2)])
        if free_variables(phi).sets:
            formulas.append(phi)
    for phi in formulas:
        problem = LinEMSOProblem(phi, (1,) * len(free_variables(phi).sets), "max")
        weights = ",".join(map(str, problem.weights))
        assert main(["optimize", "--parse-tree", str(path), "--formula", pretty_print(phi),
                     "--weights", weights, "--json"]) in (0, 1)
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["moveBudget"] == list(problem.budget), str(phi)
        assert report["q"] == max(m + p for p, m in enumerate(problem.budget)), str(phi)


def test_optimize_bad_weights(p4_file, capsys):
    assert main(["optimize", "--parse-tree", p4_file,
                 "--formula", "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))",
                 "--weights", "a"]) == 2
    assert "--weights" in capsys.readouterr().err


@pytest.mark.parametrize("formula, weights, message", [
    ("Ax x. (X(x) | adj(x,y))", "1", "free object variables are not allowed: y"),
    ("Ax x. (X(x) | adj(x,y) | adj(x,z))", "1", "free object variables are not allowed: y, z"),
    ("Ax x. X(x)", "1,2", "1 free set variable but 2 weights"),
    ("Ax x. (X(x) | Y(x))", "1", "2 free set variables but 1 weight"),
], ids=["object", "objects", "one-set", "one-weight"])
def test_optimize_names_what_the_problem_lacks(p4_file, formula, weights, message, capsys):
    assert main(["optimize", "--parse-tree", p4_file, "--formula", formula,
                 "--weights", weights]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_graph_with_malformed_number_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p graph 2 1 1\ne 0 x\n")
    assert main(["oracle", "--graph", str(bad), "--formula", "Ex x. x = x"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--parse-tree", "--formula-file", "--graph"])
def test_a_file_that_is_not_utf8_is_one_error_line(tmp_path, flag, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"t=1\n(v\xff)")
    command = "oracle" if flag == "--graph" else "check"
    good = tmp_path / "good.pt"
    good.write_text(format_parse_tree(family_tree("path", 2)))
    argv = [command, flag, str(bad)]
    if flag == "--formula-file":
        argv += ["--parse-tree", str(good)]
    else:
        argv += ["--formula", "Ex x. x = x"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(bad) in err[0] and "UTF-8" in err[0], err


def test_optimize_infeasible(p4_file, capsys):
    assert main(["optimize", "--parse-tree", p4_file,
                 "--formula", "Ex x. (X(x) & !X(x))",
                 "--weights", "1", "--direction", "max"]) == 1
    assert capsys.readouterr().out.strip() == "INFEASIBLE"


def test_rankwidth(c5_graph, capsys):
    assert main(["rankwidth", "--graph", c5_graph]) == 0
    assert "rankwidth 2" in capsys.readouterr().out


def test_rankwidth_json_reports_a_witness_of_its_width(c5_graph, tmp_path, capsys):
    # the reported edges and leaf map rebuild into a decomposition whose
    # width is the answer, on C5 and on a seeded random graph with n = 7
    random_graph = tmp_path / "r7.graph"
    random_graph.write_text(format_graph(random_structure(random.Random(28), 7)))
    for path in (c5_graph, str(random_graph)):
        assert main(["rankwidth", "--graph", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        graph = parse_graph(Path(path).read_text())
        edges = [tuple(edge) for edge in report["decompositionEdges"]]
        # JSON keys are strings: vertex "v" maps to its leaf node
        leaf_map = {int(v): node for v, node in report["leafMap"].items()}
        witness = BranchDecomposition(len(edges) + 1, edges, leaf_map)
        assert decomposition_width(graph, witness) == report["answer"]


def test_chartree_dump(p4_file, capsys):
    assert main(["chartree", "--parse-tree", p4_file, "--q", "2", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "char tree nodes" in out
    assert " root 0 0 " in out


def test_chartree_builds_the_full_depth_tree(p4_file, capsys):
    assert main(["chartree", "--parse-tree", p4_file, "--q", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["q"] == 3 and report["moveBudget"] == [3, 2, 1, 0]
    assert 0 < report["internedLabels"] <= report["peakInterned"]


def test_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "c5.pt"
    assert main(["gen", "--family", "cycle", "--n", "5",
                 "--output", str(out_file)]) == 0
    assert main(["check", "--parse-tree", str(out_file),
                 "--formula", "Ex x. Ex y. adj(x,y)"]) == 0


def test_qrank(capsys):
    assert main(["qrank", "--formula", "Ex x. Ax y. adj(x,y)"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_qrank_takes_any_label_index(capsys):
    # the rank does not depend on the label width, so none is assumed
    assert main(["qrank", "--formula", "Ex x. label70(x)"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["qrank", "--formula", "Ex x. label0(x)"]) == 2
    assert "label index 0 outside 1.." in capsys.readouterr().err


def test_bench_csv(capsys):
    assert main(["bench", "--family", "path", "--n-list", "8,16,32",
                 "--q", "1", "--t", "2", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,parse_tree_nodes,char_tree_nodes,peak_interned,seconds"
    rows = [line.split(",") for line in lines[1:4]]
    # |T| = 2n - 1 for family trees
    assert [int(r[1]) for r in rows] == [15, 31, 63]
    assert any(line.startswith("# time ~ slope") for line in lines)


def test_bench_bad_n_list(capsys):
    assert main(["bench", "--family", "path", "--n-list", "a"]) == 2
    err = capsys.readouterr().err
    assert "--n-list" in err and "'a'" in err


@pytest.mark.parametrize("repeats", ["0", "-5"])
def test_bench_bad_repeats(repeats, capsys):
    assert main(["bench", "--family", "path", "--n-list", "8",
                 "--repeats", repeats]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error:") and "--repeats" in err[0] and repeats in err[0]


def test_nine_point_moves_answer_under_defaults(tmp_path, capsys):
    # nine point moves over a one-vertex leaf: the leaf builder walks
    # ~3^9 moves, which the defaults allow
    p2 = tmp_path / "p2.pt"
    p2.write_text(format_parse_tree(family_tree("path", 2)))
    phi = "Ax a. " * 9 + "(!X(a) | a = a)"
    assert main(["optimize", "--parse-tree", str(p2), "--formula", phi,
                 "--weights", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["value 2", "X = {0, 1}"]
    assert main(["check", "--parse-tree", str(p2), "--formula", "EX X. " + phi]) == 0
    assert capsys.readouterr().out.splitlines() == ["true"]


def test_bench_ratio_is_the_median_of_paired_ratios(monkeypatch, capsys):
    # best-of times 0.01 and 0.06 give 6.0; within each repeat the
    # ratios are 6, 2 and 2, so the median is 2
    rows = [commands.BenchRow(8, 15, 1, 1, 0.01, (0.01, 0.03, 0.03)),
            commands.BenchRow(16, 31, 1, 1, 0.06, (0.06, 0.06, 0.06))]
    monkeypatch.setattr(commands, "run_bench", lambda *args: rows)
    assert main(["bench", "--family", "path", "--n-list", "8,16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "# n 8 -> 16: time ratio 2.00"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_oracle_refuses_free_variables(c5_graph, capsys):
    assert main(["oracle", "--graph", c5_graph, "--formula", "Ex x. S(x)"]) == 2
    assert capsys.readouterr().err == "error: the oracle checks sentences only\n"


def test_gen_without_output_writes_to_stdout(capsys):
    assert main(["gen", "--family", "cycle", "--n", "5"]) == 0
    assert capsys.readouterr().out == format_parse_tree(family_tree("cycle", 5))


def test_importing_the_cli_leaves_out_what_check_and_optimize_never_run():
    # a fresh interpreter, as a user's `rwmso check` starts (-S: no site
    # hook imports anything first); then each deferred name of the
    # package loads its module
    deferred = ["rwmso.commands", "rwmso.direct", "rwmso.graphtext", "rwmso.rankdec"]
    names = ["evaluate", "Assignment", "exact_rankwidth", "cut_rank", "BranchDecomposition",
             "parse_graph", "format_graph"]
    code = (f"import sys, rwmso.cli; print([m for m in {deferred} if m in sys.modules]); "
            f"import rwmso; print([getattr(rwmso, name).__module__ for name in {names}])")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == [
        "[]", str(["rwmso.direct"] * 2 + ["rwmso.rankdec"] * 3 + ["rwmso.graphtext"] * 2)]


def test_an_unknown_package_name_is_an_attribute_error():
    import rwmso

    assert not hasattr(rwmso, "no_such_name")
    with pytest.raises(ImportError):
        from rwmso import no_such_name  # noqa: F401
