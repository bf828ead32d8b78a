"""The README's library example runs and gives the results its comments
state, its command-line lines run and the package names it gives
resolve, so none of them can drift from the package."""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import rwmso
from rwmso import cli, family_tree, format_graph, generate_graph, parse_tree_from_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_gives_its_commented_results():
    # each expression statement is evaluated, and its repr must be the
    # first word of the comment on its last line ("# True: even ...")
    source = _library_example()
    lines = source.splitlines()
    namespace: dict = {}
    results = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2]
            results.append((repr(value), comment.split()[0].rstrip(":")))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert [expected for _, expected in results] == ["True", "32"]
    assert [got for got, _ in results] == ["True", "32"]


def _command_lines() -> list[list[str]]:
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    # join continuations, then drop each line's "#" comment
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()]


def test_the_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # every line, bench included (it takes well under a second), against
    # the files it names: g.graph is C5 and phi.mso a sentence that holds
    # on it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.graph").write_text(format_graph(generate_graph(family_tree("cycle", 5))))
    (tmp_path / "phi.mso").write_text("Ex x. Ex y. adj(x,y)\n")
    argvs = _command_lines()
    assert [argv[:2] for argv in argvs] == [
        ["rwmso", cmd] for cmd in ("gen", "check", "optimize", "oracle", "rankwidth",
                                   "chartree", "qrank", "bench")]
    for argv in argvs:
        code = cli.main(argv[1:])
        err = capsys.readouterr().err
        assert code in (0, 1), (argv, err)


def test_the_parse_tree_example_gives_its_code():
    # File formats: "`(o ...)` at `t=1` has `code = (...)`, where operator
    # 0 is the all-ones triple and operator 1 the all-zeros one"
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.search(r"`(\(o [^`]*\))` at `t=(\d+)` has `code = (\([^`]*\))`, where "
                      r"operator 0 is the all-ones triple and operator 1 the all-zeros one",
                      text)
    assert found, "the parse-tree example sentence is missing from README"
    source, t, code = found.group(1), int(found.group(2)), ast.literal_eval(found.group(3))
    tree = parse_tree_from_text(f"t={t}\n{source}\n")
    assert tree.code == code == (-1, -1, 0, -1, 1)
    ones, zeros = ((1 << t) - 1,) * t, (0,) * t
    assert [[r.rows for r in op] for op in tree.ops] == [[ones] * 3, [zeros] * 3]


def test_the_dotted_names_resolve():
    # each dotted name that opens a backticked span (up to its end or a
    # call's "(") and starts with rwmso, a package module or a name some
    # module defines resolves by getattr, an instance attribute through
    # a default-constructed instance (RCForest().lost)
    modules = {info.name: importlib.import_module(f"rwmso.{info.name}")
               for info in pkgutil.iter_modules(rwmso.__path__)}
    roots = {"rwmso": rwmso, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            roots.setdefault(name, value)
    text = README.read_text(encoding="utf-8")
    checked = []
    for dotted in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[`(]", text))):
        first, *rest = dotted.split(".")
        if first not in roots:
            continue  # a file name, such as pyproject.toml
        obj = roots[first]
        for attr in rest:
            if not hasattr(obj, attr) and isinstance(obj, type):
                obj = obj()
            assert hasattr(obj, attr), f"README names {dotted}, which does not resolve"
            obj = getattr(obj, attr)
        checked.append(dotted)
    assert len(checked) >= 20, checked  # 27 when this test was written
