"""Module boundaries inside the package: a module reaches another one only
through its public names.  `_`-prefixed names are a module's own, so a
change to one never has to look past the module that defines it."""

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
