"""The README's library example runs and gives the results its comments
state, so the example cannot drift from the library."""

import ast
import re
from pathlib import Path

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
