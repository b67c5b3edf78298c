"""Source checks that need no linter: every imported name is used, every
private module-level name of the package is used by the package, and the
README's table of entry points matches the package."""

import ast
import inspect
import re
from pathlib import Path

import polariscope

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unused_imports():
    files = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == [], "\n".join(unused)


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds by definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _read_names(node: ast.AST) -> set[str]:
    """The bare names read within ``node``."""
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store)
    }


def _imported_from(tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs that the ``from .module import name``
    statements of a package module import."""
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def test_private_names_are_used_by_the_package():
    # a private helper that only the tests call belongs in the tests.  A
    # name counts as used only where its own module reads it outside its
    # own definition, or another module imports it from there by name
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(ROOT.glob("src/polariscope/*.py"))
    }
    used = set().union(*map(_imported_from, trees.values()))
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            own = _defined_names(node)
            defined += [
                (module, name) for name in own if name.startswith("_") and not name.startswith("__")
            ]
            # a definition's references to itself do not count
            used |= {(module, name) for name in _read_names(node) - set(own)}
    assert defined
    unused = [
        f"src/polariscope/{module}.py: {name}"
        for module, name in defined
        if (module, name) not in used
    ]
    assert unused == [], "\n".join(unused)


def _readme_entry_points() -> set[str]:
    """The names in the first column of the README's "Key entry points"
    table."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("Key entry points:")
    names = set()
    for line in lines[start + 1 :]:
        if names and not line.startswith("|"):
            break
        if line.startswith("|"):
            names.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return names


def test_readme_entry_points_match_the_package():
    listed = _readme_entry_points()
    assert listed
    assert sorted(name for name in listed if not hasattr(polariscope, name)) == []
    functions = {
        name
        for name in polariscope.__all__
        if name[0].islower() and inspect.isfunction(getattr(polariscope, name))
    }
    assert sorted(functions - listed) == []
