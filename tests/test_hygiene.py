"""Static hygiene checks over the source tree, in place of a linter: no
function or class in the package that nothing refers to, and no unused
import in the package or the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otnplan"


def _modules(*dirs: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for d in dirs for path in sorted(d.rglob("*.py"))}


def _identifier_strings(tree: ast.AST) -> set[str]:
    """String constants that are a bare identifier: ``__all__`` entries,
    names looked up with ``getattr`` and quoted annotations."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()}


def test_every_definition_is_referenced():
    modules = _modules(PACKAGE, ROOT / "tests", ROOT / "bench")
    used: set[str] = set()
    for tree in modules.values():
        used |= _identifier_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreferenced = []
    for path, tree in modules.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name == "main" or (name.startswith("__") and name.endswith("__")):
                continue
            if name not in used:
                unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unreferenced, "defined but never referenced:\n" + "\n".join(unreferenced)


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    out = []
    for alias in node.names:
        if alias.asname:
            out.append(alias.asname)
        elif isinstance(node, ast.Import):
            out.append(alias.name.split(".")[0])
        else:
            out.append(alias.name)
    return out


def test_no_unused_imports():
    unused = []
    for path, tree in _modules(PACKAGE, ROOT / "tests").items():
        used = _identifier_strings(tree) | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for name in _bound_names(node):
                if name not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)
