"""The README's worked example runs, and each value its comments state holds."""

import ast
from pathlib import Path

from bowcalc.exactalg import MultiPoly, factor_s_forms

README = Path(__file__).resolve().parents[1] / "README.md"


def worked_example():
    """The README's "A worked example in code" block, as source text."""
    section = README.read_text(encoding="utf-8").split("## A worked example in code", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_worked_example_comments_hold():
    block = worked_example()
    comments = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep:
            comments[code.strip()] = comment.strip()
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[source] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)

    assert comments["points = enumerate_ties(d)"] == "five fixed points"
    assert len(namespace["points"]) == 5

    call = "stab_restriction(d, z, D, Dp)"
    variables = {"t%d" % i: MultiPoly.t(i, 3) for i in (1, 2, 3)}
    variables["h"] = MultiPoly.h(3)
    assert comments[call] == "h*(t1-t2+h)*(t2-t3+h)"
    assert values[call] == eval(comments[call], variables)

    assert comments["tangent_euler(d, z, D)"] == "factors into t_i-t_j+m*h forms"
    factor_s_forms(values["tangent_euler(d, z, D)"])

    for check in ("C == cm_matrix_oracle(d, z, 3)", 'verify(d)["ok"]'):
        assert comments[check] == "True"
        assert values[check] is True
