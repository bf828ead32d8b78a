import json

import pytest

from rwmso import format_graph, format_parse_tree, family_tree, generate_graph
from rwmso.cli import main


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
    assert report["parseTreeNodes"] == 7
    assert report["charTreeNodes"] > 0
    assert report["peakInterned"] >= report["charTreeNodes"]
    assert report["wallTimeSec"] >= 0

    assert main(["check", "--parse-tree", p4_file,
                 "--formula", "Ax x. Ax y. adj(x,y)"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "false"


def test_check_errors(p4_file, capsys):
    # free variable
    assert main(["check", "--parse-tree", p4_file, "--formula", "adj(x,y)"]) == 2
    assert "error:" in capsys.readouterr().err
    # syntax error
    assert main(["check", "--parse-tree", p4_file, "--formula", "adj(x,"]) == 2
    # missing file
    assert main(["check", "--parse-tree", "/nonexistent", "--formula", "x = x"]) == 2


def test_check_q_cap(p4_file, monkeypatch, capsys):
    monkeypatch.setenv("RWMSO_MAX_Q", "2")
    deep = "Ex a. Ex b. Ex c. adj(a,b)"
    assert main(["check", "--parse-tree", p4_file, "--formula", deep]) == 2
    assert "RWMSO_MAX_Q" in capsys.readouterr().err
    assert main(["check", "--parse-tree", p4_file, "--formula", deep,
                 "--force"]) == 0


def test_max_q_must_be_an_integer(p4_file, monkeypatch, capsys):
    monkeypatch.setenv("RWMSO_MAX_Q", "abc")
    assert main(["check", "--parse-tree", p4_file, "--formula", "Ex x. x = x"]) == 2
    assert "RWMSO_MAX_Q='abc'" in capsys.readouterr().err


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
    assert json.loads(out[-1])["answer"] == 2


def test_optimize_bad_weights(p4_file, capsys):
    assert main(["optimize", "--parse-tree", p4_file,
                 "--formula", "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))",
                 "--weights", "a"]) == 2
    assert "--weights" in capsys.readouterr().err


def test_graph_with_malformed_number_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p graph 2 1 1\ne 0 x\n")
    assert main(["oracle", "--graph", str(bad), "--formula", "Ex x. x = x"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_optimize_infeasible(p4_file, capsys):
    assert main(["optimize", "--parse-tree", p4_file,
                 "--formula", "Ex x. (X(x) & !X(x))",
                 "--weights", "1", "--direction", "max"]) == 1
    assert capsys.readouterr().out.strip() == "INFEASIBLE"


def test_rankwidth(c5_graph, capsys):
    assert main(["rankwidth", "--graph", c5_graph]) == 0
    assert "rankwidth 2" in capsys.readouterr().out


def test_chartree_dump(p4_file, capsys):
    assert main(["chartree", "--parse-tree", p4_file, "--q", "2", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "char tree nodes" in out
    assert " root 0 0 " in out


def test_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "c5.pt"
    assert main(["gen", "--family", "cycle", "--n", "5",
                 "--output", str(out_file)]) == 0
    assert main(["check", "--parse-tree", str(out_file),
                 "--formula", "Ex x. Ex y. adj(x,y)"]) == 0


def test_qrank(capsys):
    assert main(["qrank", "--formula", "Ex x. Ax y. adj(x,y)"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_bench_csv(capsys):
    assert main(["bench", "--family", "path", "--n-list", "8,16,32",
                 "--q", "1", "--t", "2", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,parse_tree_nodes,char_tree_nodes,peak_interned,seconds"
    rows = [line.split(",") for line in lines[1:4]]
    # |T| = 2n - 1 for family trees
    assert [int(r[1]) for r in rows] == [15, 31, 63]
    assert any(line.startswith("# time ~ slope") for line in lines)
