"""Dead code and slow imports in the package, found with ast alone.

Dead code is unused imports, and private module-level names nothing reads.

Every CLI command is a fresh process that imports the whole package, so no
module may import dataclasses or inspect: the first pulls in the second and,
through it, ast, dis and tokenize, and each dataclass generates and compiles
its methods again at every import.

An import is used when its bound name is read in its module (a string
annotation counts) or listed in the module's __all__.  A private
module-level name (one leading underscore) is read when any package module
loads it as a name, as an attribute or through an import.  Tests do not
count as readers: a helper only a test calls is dead in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "omegalab"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names read inside quoted annotations, which ast leaves as strings."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [arg.annotation for arg in every if arg is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                names |= {n.id for n in ast.walk(ast.parse(const.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def _loaded(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, quoted annotations and the strings of __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names | _annotation_names(tree)


def unused_imports(tree: ast.Module) -> list[str]:
    loaded = _loaded(tree)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in loaded]


SLOW_IMPORTS = {"dataclasses", "inspect"}


def slow_imports(tree: ast.Module) -> list[str]:
    """The modules of SLOW_IMPORTS that the module imports, by import or from-import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return [name for name in names if name in SLOW_IMPORTS]


def _defined_private(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    read = set()
    for tree in trees.values():
        read |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [f"{module}:{name}" for module, tree in trees.items() for name in _defined_private(tree) if name not in read]


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unused_imports(module):
    assert unused_imports(TREES[module]) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_slow_imports(module):
    assert slow_imports(TREES[module]) == []


def test_no_unread_private_names():
    assert unread_private_names(TREES) == []


def test_the_checks_see_dead_code():
    """Each check flags a planted unused import and an unread private helper, and passes their used forms."""
    dead = ast.parse("import os\nfrom .bits import check_bits as cb\n\ndef _helper():\n    return 1\n")
    assert unused_imports(dead) == ["os", "cb"]
    assert unread_private_names({"dead.py": dead}) == ["dead.py:_helper"]
    used = ast.parse('import os\n\ndef _helper() -> "os.PathLike":\n    return 1\n\nvalue = _helper()\n')
    assert unused_imports(used) == []
    assert unread_private_names({"used.py": used}) == []


def test_the_import_check_sees_dataclasses_and_inspect():
    """Both import forms are flagged, and a package-relative module of the same name is not."""
    slow = ast.parse("import inspect\nfrom dataclasses import dataclass\nfrom .inspect import x\nimport json\n")
    assert slow_imports(slow) == ["inspect", "dataclasses"]
