"""README's Library example runs as printed.

Each statement of the README's ```python block runs in order; a
statement whose comment begins with a Python literal (`pr.determinant
# 75`, `size, len(reps)  # (20, 6): ...`) must evaluate to it.  The
literal is the longest start of the comment, cut before a comma or a
colon, that ast.literal_eval reads; comments that begin with prose are
left unchecked.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    return block


def literal(comment: str):
    """The literal the comment begins with, or None."""
    cuts = [i for i, ch in enumerate(comment) if ch in ",:"] + [len(comment)]
    for cut in reversed(cuts):
        try:
            return (ast.literal_eval(comment[:cut].strip()),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_library_example_results():
    block = library_block()
    lines = block.splitlines()
    scope: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        code, _, comment = lines[stmt.end_lineno - 1].partition("#")
        want = literal(comment) if isinstance(stmt, ast.Expr) else None
        if want is None:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        assert got == want[0], (code.strip(), got)
        checked.append(code.strip())
    assert "pr.determinant" in checked and "reports[1].aut_classes" in checked
    assert len(checked) >= 12, checked


def test_literal_reading():
    assert literal(" 75") == (75,)
    assert literal(" (20, 6): the same representatives") == ((20, 6),)
    assert literal(" 120, a Colorings sequence") == (120,)
    assert literal(" [3, 5, 7], one report per prime") == ([3, 5, 7],)
    assert literal(" number of 10-colorings, trivial included") is None
