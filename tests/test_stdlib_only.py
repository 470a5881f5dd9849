"""pqlab runs on the standard library alone: numpy and other third-party
packages may be installed, but no module of the package imports them."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pqlab"
ALLOWED = set(sys.stdlib_module_names) | {"pqlab"}


def test_every_absolute_import_is_stdlib_or_pqlab():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in ALLOWED
            ]
    assert outside == []
