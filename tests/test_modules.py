"""Module boundaries inside the package: a module reaches another one only
through its public names.  `_`-prefixed names are a module's own, so a
change to one never has to look past the module that defines it.  And the
rules for scalar inputs live in `spectra` alone, so a new input takes them
from there instead of writing its own copy.  Machine epsilon has one
spelling, `sys.float_info.epsilon`, not a hand-typed literal."""

import ast
from pathlib import Path

import pytest

import isocurv

PACKAGE = Path(isocurv.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """Each `from <package module> import _name` and each `<alias>._name`
    read through a name bound to a package module, as 'line: text'."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "isocurv"):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif not node.module or node.module == "isocurv":  # `from . import profiles as pf`
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names if alias.asname and alias.name.startswith("isocurv."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if _is_private(node.attr):
                found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_package_has_its_modules():
    assert {path.stem for path in MODULES} >= {"checks", "classification", "cli", "curvature", "profiles", "spectra"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_reaches_another_modules_private_names(path):
    assert private_reaches(path.read_text()) == []


@pytest.mark.parametrize(
    "source,found",
    [
        ("from .profiles import _sqrt_chain\n", ["1: from .profiles import _sqrt_chain"]),
        ("from isocurv.profiles import _evaluate\n", ["1: from isocurv.profiles import _evaluate"]),
        ("from . import profiles as pf\nx = pf._sqrt_chain(1, 0, 0)\n", ["2: pf._sqrt_chain"]),
        ("import isocurv.curvature as cv\ncv._frame_array\n", ["2: cv._frame_array"]),
        ("from . import profiles as pf\npf.ode_residual, pf.__doc__\n", []),
        ("from __future__ import annotations\nimport numpy as np\nnp._NoValue\n", []),
        ("def _own():\n    pass\n_own()\n", []),
    ],
)
def test_the_checker_sees_each_way_in(source, found):
    assert private_reaches(source) == found


def rule_copies(source: str) -> list[str]:
    """Each copy of a scalar-input rule, as 'line: text': a literal holding
    exactly -1, 0 and 1 (delta's range, in any order) that is not the
    iterable of a loop, and each isinstance(..., Integral)."""
    tree = ast.parse(source)
    loops = {id(node.iter) for node in ast.walk(tree) if isinstance(node, (ast.For, ast.comprehension))}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and id(node) not in loops:
            try:
                values = ast.literal_eval(node)
            except ValueError:
                continue
            if all(type(v) in (int, float) for v in values) and sorted(values) == [-1, 0, 1]:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            names = {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node.args[-1])}
            if "Integral" in names:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", [path for path in MODULES if path.stem != "spectra"], ids=lambda path: path.stem)
def test_scalar_rules_are_only_in_spectra(path):
    assert rule_copies(path.read_text()) == []


def test_spectra_holds_the_rules():
    """check_integer and check_delta test for Integral, check_delta for (-1, 0, 1)."""
    assert len(rule_copies((PACKAGE / "spectra.py").read_text())) == 3


@pytest.mark.parametrize(
    "source,found",
    [
        ("if delta not in (-1, 0, 1):\n    pass\n", ["1: (-1, 0, 1)"]),
        ("ok = d in {1, 0, -1}\n", ["1: {1, 0, -1}"]),
        ("ALLOWED = [0, 1.0, -1]\n", ["1: [0, 1.0, -1]"]),
        ("isinstance(n, Integral)\n", ["1: isinstance(n, Integral)"]),
        ("import numbers\nisinstance(n, numbers.Integral)\n", ["2: isinstance(n, numbers.Integral)"]),
        ("isinstance(n, (int, Integral))\n", ["1: isinstance(n, (int, Integral))"]),
        ("for d in (1, 0, -1):\n    pass\n", []),
        ("[d for d in (-1, 0, 1)]\n", []),
        ("isinstance(v, Rational)\nx = (-1, 0, 2)\ny = ('a', 0, 1)\n", []),
    ],
)
def test_the_rule_checker_sees_each_copy(source, found):
    assert rule_copies(source) == found


def tiny_literals(source: str) -> list[str]:
    """Each nonzero float literal below 1e-15 in magnitude, as 'line: text':
    a hand-typed machine epsilon such as 2.3e-16 (a minus sign is an operator
    outside the literal)."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-15
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_hand_types_machine_epsilon(path):
    assert tiny_literals(path.read_text()) == []


@pytest.mark.parametrize(
    "source,found",
    [
        ("tol = 64.0 * 2.3e-16\n", ["1: 2.3e-16"]),
        ("x = -1e-16\n", ["1: 1e-16"]),
        ("EPS = 2.220446049250313e-16\n", ["1: 2.220446049250313e-16"]),
        ("def f(x, tol=5e-324):\n    return x\n", ["1: 5e-324"]),
        ("tol = 1e-15\nBOUND = 1e-12\nzero = 0.0\n", []),
        ("import sys\ntol = 64.0 * sys.float_info.epsilon\n", []),
        ("s = '2.3e-16'\nn = 1\n", []),
    ],
)
def test_the_literal_checker_sees_each_tiny_float(source, found):
    assert tiny_literals(source) == found
