import ast
import pathlib

import theta2kit

SOURCES = sorted(pathlib.Path(theta2kit.__file__).parent.glob("*.py"))


def test_library_has_no_assert():
    # python -O drops assert statements, and with them any check they make
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
