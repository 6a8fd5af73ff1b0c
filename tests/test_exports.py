"""Every exported function and class of ccl has a caller inside ccl, and
every name a module lists in ``__all__`` is one it defines.

A public name that only the tests call is a second path to keep in step
with the one ccl runs.  The oracles the tests need live in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ccl"


def parse_modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}


def dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def module_bindings(tree):
    """Names bound at module level: functions, classes, assignments and
    imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
    return names


def relative_imports(tree):
    """(module, name) for each ``from .module import name`` in the tree."""
    return {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def loads_outside(tree, name, definition):
    """Whether ``name`` is read anywhere in ``tree`` but inside
    ``definition``, the node that defines it."""
    inside = {id(node) for node in ast.walk(definition)}
    return any(isinstance(node, ast.Name) and node.id == name
               and isinstance(node.ctx, ast.Load) and id(node) not in inside
               for node in ast.walk(tree))


def exported_definitions(modules):
    """(module, name, def node) for each module-level function or class
    that its module lists in ``__all__`` or the package re-exports."""
    reexported = relative_imports(modules["__init__"])
    for module, tree in modules.items():
        if module == "__init__":
            continue
        exported = dunder_all(tree) | {n for m, n in reexported if m == module}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in exported):
                yield module, node.name, node


def test_every_exported_function_and_class_has_a_production_use():
    modules = parse_modules()
    imported = {(m, n) for module, tree in modules.items()
                if module != "__init__" for m, n in relative_imports(tree)}
    checked = list(exported_definitions(modules))
    # the check would pass vacuously if it found nothing to check
    assert {"verify.run_suite", "groups.enumerate_group", "cones.face",
            "roots.build", "linalg.ToleranceConfig", "errors.CclError"} <= {
        f"{module}.{name}" for module, name, _ in checked}
    unused = [f"{module}.{name}" for module, name, node in checked
              if (module, name) not in imported
              and not loads_outside(modules[module], name, node)]
    assert unused == []


def test_every_dunder_all_entry_is_defined_by_its_module():
    modules = parse_modules()
    listed = {(module, name) for module, tree in modules.items()
              for name in dunder_all(tree)}
    # the check would pass vacuously if it found nothing to check
    assert {("groups", "face_carriers"), ("linalg", "DEFAULT_TOL"),
            ("verify", "SUITE_IDENTITIES")} <= listed
    undefined = sorted(f"{module}.{name}" for module, name in listed
                       if name not in module_bindings(modules[module]))
    assert undefined == []
