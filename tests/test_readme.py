"""README's Python quick tour runs as written.  A top-level expression
with a comment must return a value whose repr the comment quotes; a
comment that names a warning or an exception must see exactly that."""

import ast
import io
import json
import re
import tokenize
import warnings
from pathlib import Path

import specvar
from specvar.cli import main
from specvar.errors import ConditioningWarning

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour():
    section = README.read_text(encoding="utf-8").split(
        "## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _comments(source):
    """row -> comment text: a line's trailing comment, extended by the
    indented comment-only lines below it (a comment at column 0 stands
    alone)."""
    out, last = {}, None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        row, col = tok.start
        text = tok.string.lstrip("# ")
        if tok.line[:col].strip():
            out[row], last = text, row
        elif col > 0 and last is not None:
            out[last] += " " + text
    return out


def test_quick_tour_results():
    source = _tour()
    comments = _comments(source)
    ns = {}
    checked = []
    for node in ast.parse(source).body:
        comment = next((comments[row] for row in range(
            node.lineno, node.end_lineno + 1) if row in comments), None)
        if not isinstance(node, ast.Expr) or comment is None:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
            continue
        expr = compile(ast.Expression(node.value), "README.md", "eval")
        if comment.startswith("raises "):
            error = getattr(specvar.errors, comment.split()[1])
            try:
                eval(expr, ns)
            except error:
                checked.append(comment)
                continue
            raise AssertionError(f"{ast.unparse(node)} did not raise {error}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = eval(expr, ns)
        assert repr(value) in comment, (ast.unparse(node), repr(value))
        warned = any(issubclass(w.category, ConditioningWarning)
                     for w in caught)
        assert warned == ("ConditioningWarning" in comment), comment
        checked.append(comment)
    # [0, 0], [2, 2], the d2F breakdown, the stacked values, the two
    # Tolerances lines and the ShapeError
    assert len(checked) == 7, checked


def test_certificate_fields_are_the_cli_report(tmp_path):
    # the backticked names of "The certificate"'s first paragraph are the
    # keys of a certify report's outputs
    section = README.read_text(encoding="utf-8").split(
        "### The certificate", 1)[1]
    first = section.strip().split("\n\n", 1)[0]
    problem = {"f": "l1", "weight": 0.5,
               "X0": [[2.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
               "psi": {"kind": "half-squared-distance",
                       "B": [[3.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [0.0, 0.0, 0.2]]}}
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    assert main(["--out", str(out), "certify", "--problem", str(path),
                 "--n-samples", "10", "--min-samples", "10"]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert set(re.findall(r"`([^`]+)`", first)) == set(outputs)


def test_tie_rule_bullet_names_every_tie_drawer():
    # the backticked function names of the "Blocks and ties are drawn by
    # one rule" bullet are the rule's forms and every src function that
    # calls one of them, so a new place that draws ties is documented
    rule = {"_run_starts", "_block_bounds", "_value_blocks", "_level_starts",
            "cluster_ranks"}
    defined, drawers = set(), set()
    for path in Path(specvar.__file__).parent.glob("*.py"):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for node in body + [n for c in body if isinstance(c, ast.ClassDef)
                            for n in c.body]:
            if not isinstance(node, ast.FunctionDef):
                continue
            defined.add(node.name)
            if rule & {getattr(call.func, "id", getattr(call.func, "attr",
                                                        None))
                       for call in ast.walk(node)
                       if isinstance(call, ast.Call)}:
                drawers.add(node.name)
    bullet = README.read_text(encoding="utf-8").split(
        "- Blocks and ties are drawn by one rule", 1)[1].split("\n- ", 1)[0]
    assert rule <= defined
    assert set(re.findall(r"`(\w+)`", bullet)) & defined == rule | drawers
