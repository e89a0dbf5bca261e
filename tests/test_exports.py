import ast
from pathlib import Path

import polycrt


def test_every_exported_name_resolves():
    missing = [name for name in polycrt.__all__ if not hasattr(polycrt, name)]
    assert missing == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from polycrt import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(polycrt.__all__)


def test_every_import_is_used():
    # __init__.py imports to re-export; every other module of the package
    # and of the tests uses what it imports.
    unused = []
    package = sorted(Path(polycrt.__file__).parent.glob("*.py"))
    for path in package + sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        where = f"{path.parent.name}/{path.name}"
        unused += [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
