"""Module boundaries: no module of the package imports another's private names."""

import ast
from pathlib import Path

import grzseq

PACKAGE = Path(grzseq.__file__).parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []
