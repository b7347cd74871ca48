"""No module of the package may keep a module-level import it never uses."""

import ast
import pathlib

import glpgalois


def _module_level_imports(tree):
    """(line, bound name) of each import at module level, also inside a
    module-level `if` (such as `if TYPE_CHECKING:`); `__future__` excluded."""
    nodes = list(tree.body)
    for node in nodes:
        if isinstance(node, ast.If):
            nodes.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_package_has_no_unused_module_level_import():
    root = pathlib.Path(glpgalois.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for line, name in _module_level_imports(tree) if name not in used]
    assert found == []
