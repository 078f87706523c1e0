"""The README's "Library" examples run, and every value their comments
state is the value the line computes: the value of an expression line, or
the value an assignment line binds to its one name."""

import ast
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    """The Python blocks of the README's "Library" section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]


def _stated_value(comment: str):
    """The longest prefix of ``comment`` that ``ast.literal_eval`` accepts,
    with a flag saying whether there was one."""
    for end in range(len(comment), 0, -1):
        try:
            return True, ast.literal_eval(comment[:end])
        except (ValueError, TypeError, SyntaxError):
            continue
    return False, None


def _assert_states(value, stated, where: str) -> None:
    try:
        want = np.asarray(stated, dtype=float)
    except (TypeError, ValueError):
        assert value == stated, where
        return
    got = np.asarray(value, dtype=float)
    assert got.shape == want.shape, where
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=where)


def test_library_examples_state_their_values():
    blocks = _library_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
            else:
                statement = ast.Module(body=[node], type_ignores=[])
                exec(compile(statement, str(README), "exec"), namespace)
                # an assignment to one name states the value it binds
                targets = getattr(node, "targets", [])
                if len(targets) != 1 or not isinstance(targets[0], ast.Name):
                    continue
                value = namespace[targets[0].id]
            tail = lines[node.end_lineno - 1][node.end_col_offset:].strip()
            found, stated = _stated_value(tail.lstrip("#").strip()) if tail else (False, None)
            if found:
                _assert_states(value, stated, lines[node.end_lineno - 1])
                checked += 1
    # six lines of the pricing block state a value, and four of the decomposition block
    assert checked == 10
