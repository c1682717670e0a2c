"""Static hygiene checks over the source tree, in place of a linter: no
function or class in the package that nothing refers to, no unused import
in the package or the tests, and no import of a third-party module other
than numpy when the package loads."""

import ast
import sys
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


def _exported(tree: ast.Module) -> set[int]:
    """The nodes of ``__all__`` assignments."""
    return {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for node in ast.walk(stmt.value)}


def test_no_definition_only_tests_use():
    """Every function or class in the package is used by the package or the
    bench: an ``__all__`` entry or a test alone does not keep code alive."""
    modules = _modules(PACKAGE, ROOT / "bench")
    used: set[str] = set()
    for tree in modules.values():
        exported = _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier() and id(node) not in exported):
                used.add(node.value)
    test_only = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
                 for path, tree in modules.items() if path.is_relative_to(PACKAGE)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))
                 and node.name not in used]
    assert not test_only, "used only by tests or __all__:\n" + "\n".join(test_only)


def _load_time_imports(node: ast.AST):
    """The imports that run when the module is loaded: those outside any
    function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _load_time_imports(child)


def test_package_loads_only_the_standard_library_and_numpy():
    """Every module a load-time import brings in stays in memory: importing
    ``scipy.optimize`` adds about 43 MB of peak RSS.  An optional dependency
    is imported inside the function that needs it."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "otnplan"}
    foreign = []
    for path, tree in _modules(PACKAGE).items():
        for node in _load_time_imports(tree):
            if isinstance(node, ast.ImportFrom):
                roots = ["otnplan" if node.level else node.module.split(".")[0]]
            else:
                roots = [alias.name.split(".")[0] for alias in node.names]
            foreign += [f"{path.relative_to(ROOT)}:{node.lineno} {root}"
                        for root in roots if root not in allowed]
    assert not foreign, "imported when the package loads:\n" + "\n".join(foreign)
