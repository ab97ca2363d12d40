"""The package's documented import rules, read from its source with ``ast``."""

import ast
from pathlib import Path

import salmagundy


def _imports(path):
    """The top-level names of the modules ``path`` imports, relative
    imports of the package's own modules left out."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_the_documented_import_rules_hold():
    # Values are immutable and shared, never copied or pickled, and a stored
    # result holds its inputs, not weak references to them. Every value is
    # a values.Q or INF, so only values converts through fractions.
    modules = sorted(Path(salmagundy.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        imported = _imports(path)
        assert not imported & {"copy", "pickle", "weakref"}, path.name
        assert ("fractions" in imported) == (path.name == "values.py"), path.name
