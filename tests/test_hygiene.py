"""Static hygiene checks over the source tree, in place of a linter: no
function or class in the package that nothing refers to, no unused import
in the package or the tests, no import of a third-party module other
than numpy when the package loads, no process-wide tricks, no
``np.linalg`` in the simplex outside its periodic refactorization, no
per-record read of a model inside the package, no per-column or per-row
call in the model builders, no dict entry per column in them, no loop
per term in the LP writer, no stacked dense copy in the solver, no
solver code and no full product of routings in the oracle, and no file
written outside the CLI's in-place writer."""

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


def _exported(tree: ast.Module) -> set[int]:
    """The nodes of ``__all__`` assignments."""
    return {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for node in ast.walk(stmt.value)}


def _unreferenced(modules: dict[Path, ast.Module], count_exported: bool) -> list[str]:
    """The functions and classes of the package that nothing in ``modules``
    refers to.  A plain name or an identifier string (an ``__all__`` entry
    only if ``count_exported``) refers to any definition; a method or
    property is referred to only as an attribute, ``obj.name`` or
    ``getattr(obj, "name")``, so that a local variable of the same name does
    not keep it alive."""
    names: set[str] = set()
    attrs: set[str] = set()
    for tree in modules.values():
        exported = set() if count_exported else _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier() and id(node) not in exported):
                names.add(node.value)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                attrs.add(node.args[1].value)
    unreferenced = []
    for path, tree in modules.items():
        if not path.is_relative_to(PACKAGE):
            continue
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name == "main" or (name.startswith("__") and name.endswith("__")):
                continue
            if name not in (attrs if id(node) in methods else names | attrs):
                unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unreferenced


def test_every_definition_is_referenced():
    unreferenced = _unreferenced(_modules(PACKAGE, ROOT / "tests", ROOT / "bench"), True)
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


def test_no_definition_only_tests_use():
    """Every function or class in the package is used by the package or the
    bench: an ``__all__`` entry or a test alone does not keep code alive."""
    test_only = _unreferenced(_modules(PACKAGE, ROOT / "bench"), False)
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


def test_no_process_wide_tricks():
    """Speed in the package comes from doing less work: it neither imports
    ``gc`` to tune the garbage collector nor rebinds module state with a
    ``global`` statement."""
    found = []
    for path, tree in _modules(PACKAGE).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} global")
            elif isinstance(node, ast.Import):
                found += [f"{path.relative_to(ROOT)}:{node.lineno} import gc"
                          for alias in node.names if alias.name.split(".")[0] == "gc"]
            elif (isinstance(node, ast.ImportFrom) and not node.level
                  and node.module.split(".")[0] == "gc"):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} from gc import")
    assert not found, "process-wide tricks:\n" + "\n".join(found)


def test_simplex_factorizes_only_when_it_refactorizes():
    """``np.linalg`` (LAPACK) appears in ``milp/simplex.py`` only inside
    ``_Tableau.refactor``: a start basis carries its inverse, and reduced
    costs come from that inverse, so no node or stage inverts anything."""
    path = PACKAGE / "milp" / "simplex.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
               and cls.name == "_Tableau" for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "refactor"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            uses = True
        elif isinstance(node, ast.ImportFrom):
            uses = (node.module or "").startswith("numpy.linalg") or any(
                alias.name == "linalg" for alias in node.names)
        elif isinstance(node, ast.Import):
            uses = any(alias.name.startswith("numpy.linalg") for alias in node.names)
        else:
            uses = False
        if uses and id(node) not in allowed:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, "np.linalg outside _Tableau.refactor:\n" + "\n".join(found)


def test_package_reads_models_through_their_lists():
    """Inside the package a model is read through its flat lists (``names``,
    ``row_names``, ``indptr``, ...).  ``MilpModel.variables`` and
    ``constraints`` build a record per column or row on every call, for
    readers outside the package; ``terms`` belongs to those records."""
    found = [f"{path.relative_to(ROOT)}:{node.lineno} .{node.attr}"
             for path, tree in _modules(PACKAGE).items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("variables", "constraints", "terms")]
    assert not found, "per-record model reads:\n" + "\n".join(found)


def _attribute_calls(paths, attrs: set[str]) -> list[str]:
    """Each call ``obj.attr(...)`` in ``paths`` whose ``attr`` is in
    ``attrs``, as ``path:line attr``."""
    return [f"{path.relative_to(ROOT)}:{node.lineno} {node.func.attr}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in attrs]


def test_builders_add_columns_in_blocks():
    """``formulation.py`` adds a family's columns one block per entity with
    ``MilpModel.add_variables`` and names them with the block helpers of
    ``naming``: no call adds or names one column at a time."""
    found = _attribute_calls([PACKAGE / "formulation.py"],
                             {"add_variable", "beta", "delta", "lam", "lam_integrated"})
    assert not found, "per-column calls in the builders:\n" + "\n".join(found)


def test_builders_add_rows_in_blocks():
    """``formulation.py`` adds a family's rows one block per entity with
    ``MilpModel.add_rows``: no call adds one row of (id, coefficient)
    tuples at a time."""
    found = _attribute_calls([PACKAGE / "formulation.py"], {"add_constraint"})
    assert not found, "per-row calls in the builders:\n" + "\n".join(found)


def test_builders_keep_no_per_column_keys():
    """``formulation.py`` keeps no key or cost per column: a family is a
    view over its blocks of ids, and an objective a copy of a cost slice.
    No ``.update(zip(...))`` nor ``dict.fromkeys(...)`` fills a dict with
    one entry per id of a block."""
    tree = ast.parse((PACKAGE / "formulation.py").read_text(encoding="utf-8"))
    found = [f"formulation.py:{node.lineno} {node.func.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and ((node.func.attr == "update" and node.args
                   and isinstance(node.args[0], ast.Call)
                   and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "zip")
                  or (node.func.attr == "fromkeys" and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == "dict"))]
    assert not found, "per-column keys in the builders:\n" + "\n".join(found)


def test_lp_writer_has_no_per_term_loop():
    """``emit_lp_file`` and ``_expression`` write the terms of an expression
    in C-level passes: no ``for`` loop or comprehension iterates over
    anything that reads ``indices``, ``coefs``, ``terms`` or ``parts`` (or
    their lengths).  Loops over rows, over lines and over the tightened
    columns of ``Bounds`` stay."""
    path = PACKAGE / "milp" / "lpformat.py"
    term_lists = {"indices", "coefs", "terms", "parts"}
    functions = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)
                 and node.name in ("emit_lp_file", "_expression")]
    assert len(functions) == 2
    found = [f"lpformat.py:{loop.iter.lineno} {function.name}"
             for function in functions for loop in ast.walk(function)
             if isinstance(loop, (ast.For, ast.comprehension))
             and any(isinstance(node, ast.Name) and node.id in term_lists
                     or isinstance(node, ast.Attribute) and node.attr in term_lists
                     for node in ast.walk(loop.iter))]
    assert not found, "per-term loops in the LP writer:\n" + "\n".join(found)


def test_search_matrix_grows_in_place():
    """Nothing in ``milp/`` stacks dense matrices: a search keeps one
    ``[A | I]`` with spare rows and writes appended rows into it."""
    found = _attribute_calls(sorted((PACKAGE / "milp").glob("*.py")), {"hstack", "vstack"})
    assert not found, "dense copies in the solver:\n" + "\n".join(found)


def test_oracle_enumerates_without_the_solver():
    """The oracle checks the solver, so it imports nothing from
    ``otnplan.milp``, numpy or scipy.  Its logical enumeration is a bounded
    search: no ``product`` call materializes every routing."""
    path = PACKAGE / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("otnplan." if node.level else "") + (node.module or "")
            modules = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [f"oracle.py:{node.lineno} imports {module}" for module in modules
                  if module.split(".")[0] in ("numpy", "scipy")
                  or module.startswith("otnplan.milp")]
    found += [f"{where} call" for where in _attribute_calls([path], {"product"})]
    found += [f"oracle.py:{node.lineno} product call" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "product"]
    assert not found, "solver code or a full product in the oracle:\n" + "\n".join(found)


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` is ``open``, ``io.open``, ``Path.open`` or
    ``os.open`` with a mode that writes, or with a mode that is not a
    string constant."""
    func = call.func
    if isinstance(func, ast.Name) or (isinstance(func, ast.Attribute)
                                      and isinstance(func.value, ast.Name)
                                      and func.value.id == "io"):
        mode = call.args[1] if len(call.args) > 1 else None
    elif isinstance(func.value, ast.Name) and func.value.id == "os":
        return any(isinstance(node, ast.Attribute) and node.attr in _WRITE_FLAGS
                   for arg in call.args[1:] for node in ast.walk(arg))
    else:
        mode = call.args[0] if call.args else None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_outputs_are_written_only_in_place():
    """Every output file goes through ``cli._write``, which rewrites a file
    in place: nothing else in the package calls ``write_text`` or
    ``write_bytes`` or opens a file for writing."""
    modules = _modules(PACKAGE)
    writers = [fn for fn in modules[PACKAGE / "cli.py"].body
               if isinstance(fn, ast.FunctionDef) and fn.name == "_write"]
    assert len(writers) == 1
    allowed = {id(node) for node in ast.walk(writers[0])}
    found = []
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes") or (name == "open"
                                                         and _opens_for_writing(node)):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not found, "files written outside cli._write:\n" + "\n".join(found)
