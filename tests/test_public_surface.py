"""Every public function, class, method and property of ``src/c2q`` is used:
code other than its own definition names it, in the package itself, the
benchmark harness under ``perfbench/`` or the acceptance tests. A name that
only the unit tests reach is surface the program does not need."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "c2q").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# Kept although only the unit tests call them, each for a named reason.
KEPT = {
    # the chains in tests/composed.py, which the fused kernels must match
    # bit for bit, multiply with it
    "numerics.mul",
    # the finite-difference gradient oracle that judges every kernel
    "numerics.finite_diff_check",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _definitions(path):
    """(qualified name, name, is a member) of every public module-level
    function or class and every public method or property of a public
    class; dunders and ``_``-prefixed names are private."""
    for node in _tree(path).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def _references(paths):
    """(names looked up or imported, attribute names read) in the code of
    ``paths``; a definition's own name is neither."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_name_is_used_outside_the_unit_tests():
    names, attrs = _references(USERS)
    # a method or property is reached only as an attribute
    unused = {qual for path in PACKAGE for qual, name, member in _definitions(path)
              if name not in attrs and (member or name not in names)}
    assert unused - KEPT == set()
    assert KEPT <= unused, "a kept name is used now: drop it from KEPT"
