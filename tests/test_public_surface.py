"""Every public function, class, method and property of ``src/c2q`` is used:
code other than its own definition names it, in the package itself, the
benchmark harness under ``perfbench/`` or the acceptance tests. A name that
only the unit tests reach is surface the program does not need. So is a
defaulted parameter of a public function that no call in that code sets."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "c2q").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# Kept although only the unit tests call them, each for a named reason.
KEPT = {
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


# Defaulted parameters kept although no call outside the unit tests sets
# them, each for a named reason.
KEPT_PARAMETERS = {
    # the seam through which the unit tests hand train() their parameters
    "train.train.params",
    # the finite-difference oracle's step and relative-error floor
    "numerics.finite_diff_check.epsilon",
    "numerics.finite_diff_check.denom_floor",
}


def _defaulted(path):
    """(function name, parameter name, position or None if keyword-only) of
    every defaulted parameter of a public module-level function."""
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield node.name, positional[i].arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _set_parameters(paths):
    """{function name: (most positional arguments in one call, keywords
    passed)} over every call in ``paths``; a call that unpacks ``*`` or
    ``**`` counts as setting every parameter it could reach."""
    calls = {}
    for path in paths:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            most, keywords = calls.setdefault(name, (0, set()))
            star = any(isinstance(a, ast.Starred) for a in node.args)
            most = max(most, float("inf") if star else len(node.args))
            for kw in node.keywords:
                keywords.add(kw.arg)  # None for **
            calls[name] = most, keywords
    return calls


def test_every_defaulted_parameter_is_set_outside_the_unit_tests():
    calls = _set_parameters(USERS)
    unset = set()
    for path in PACKAGE:
        for func, param, position in _defaulted(path):
            most, keywords = calls.get(func, (0, set()))
            if not ({param, None} & keywords or (position is not None and position < most)):
                unset.add(f"{path.stem}.{func}.{param}")
    assert unset - KEPT_PARAMETERS == set()
    assert KEPT_PARAMETERS <= unset, "a kept parameter is set now: drop it from KEPT_PARAMETERS"
