"""The package's modules talk to each other through public names only.

Read from the source with ``ast``, importing nothing: no module takes an
underscore-prefixed name from another constakit module, every name a module
imports is used in it, and ``__init__`` imports exactly what ``__all__`` lists.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "constakit"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _imports(tree):
    """(from constakit?, imported name, bound name) for every import in tree
    but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield False, alias.name, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            inside = node.level > 0 or node.module.partition(".")[0] == "constakit"
            for alias in node.names:
                yield inside, alias.name, alias.asname or alias.name


def test_no_module_imports_another_modules_private_name():
    private = [f"{name}: {imported}" for name, tree in MODULES.items()
               for inside, imported, _ in _imports(tree) if inside and imported.startswith("_")]
    assert private == []


def test_every_imported_name_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {bound}" for _, _, bound in _imports(tree) if bound not in loaded]
    assert unused == []


def test_init_imports_exactly_all():
    tree = MODULES["__init__"]
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"]
    imported = sorted(bound for _, _, bound in _imports(tree))
    assert imported == sorted(set(exported) - {"__version__"})
    assert len(exported) == len(set(exported))
