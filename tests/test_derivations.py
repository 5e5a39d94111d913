"""Exact derivations, in sympy, of the profile families' closed forms.

Each family of `isocurv.profiles` is a closed form u = x^2 of the profile
equation.  Here each form is shown to solve both the linear equation
u'' = 2*delta - C*u and the nonlinear (x*x')' = delta - (C/2)*x^2
identically, its first integral E = u'^2 - 4*delta*u + C*u^2 is the stated
constant, and its u_min is inf u: u - u_min is a nonnegative square that
vanishes (or tends to 0) somewhere.  The numpy code is then compared with
these exact forms at sample points, so a mutated src formula fails here.
sympy is imported only by this test module; `isocurv check` never imports it.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from isocurv import profiles as pf

s = sp.Symbol("s", real=True)
ULPS = 8  # numpy against the exact value, in units of eps times the sample's largest |value|


@dataclass(frozen=True)
class Form:
    """One closed form: u(s) in sympy, its (C, delta), the stated first
    integral E and infimum, u - inf as a nonnegative expression, a point or
    limit where that vanishes, and numeric members built by the src class."""

    name: str
    C: sp.Expr
    delta: int
    u: sp.Expr
    E: sp.Expr
    inf: sp.Expr
    gap: sp.Expr
    argmin: sp.Expr
    members: tuple  # (family, {symbol: value}) pairs


def _trig() -> Form:
    C, alpha = sp.symbols("C alpha", positive=True)
    k, a = 2 / C, sp.sqrt(C)
    members = tuple(
        (pf.TrigProfile(C=c, alpha=al), {C: c, alpha: al}) for c, al in ((2.0, 0.3), (0.7, 0.9), (4.9, 0.0))
    )
    return Form(
        "trig", C, 1, k * (1 - alpha * sp.sin(a * s)), 4 * (alpha**2 - 1) / C, k * (1 - alpha),
        k * alpha * (sp.cos(a * s / 2) - sp.sin(a * s / 2)) ** 2, sp.pi / (2 * a), members,
    )


def _parabolic() -> Form:
    beta = sp.Symbol("beta", positive=True)
    members = tuple((pf.ParabolicProfile(beta=b), {beta: b}) for b in (0.5, 3.0))
    return Form("parabolic", sp.Integer(0), 1, s**2 + beta, -4 * beta, beta, s**2, sp.Integer(0), members)


def _quadratic() -> Form:
    A, B = sp.symbols("A B", real=True)
    members = tuple(
        (pf.QuadraticProfile(A=a, B=b), {A: a, B: b}) for a, b in ((1.2, 0.9), (-0.7, 2.5))
    )
    return Form(
        "quadratic", sp.Integer(0), 1, s**2 + A * s + B, A**2 - 4 * B, B - A**2 / 4, (s + A / 2) ** 2, -A / 2,
        members,
    )


EXPONENTIAL_MEMBERS = {
    1: ((-1.3, 0.8, 1.1), (-2.7, 1.5, 0.6)),
    0: ((-0.6, 0.4, 1.7), (-2.0, 1.0, 1.0)),
    -1: ((-1.0, 0.0, 0.0), (-1.8, 0.3, 0.2)),
}


def _exponential(delta: int) -> Form:
    C = sp.Symbol("C", negative=True)
    A, B = sp.symbols("A B", positive=True)
    k, a = 2 / -C, sp.sqrt(-C)
    members = tuple(
        (pf.ExponentialProfile(C=c, A=x, B=y, delta=delta), {C: c, A: x, B: y})
        for c, x, y in EXPONENTIAL_MEMBERS[delta]
    )
    return Form(
        f"exponential{delta:+d}", C, delta, k * (A * sp.exp(a * s) + B * sp.exp(-a * s) - delta),
        2 * k * (delta**2 - 4 * A * B), k * (2 * sp.sqrt(A * B) - delta),
        k * (sp.sqrt(A) * sp.exp(a * s / 2) - sp.sqrt(B) * sp.exp(-a * s / 2)) ** 2,
        sp.log(B / A) / (2 * a), members,
    )


FORMS = [_trig(), _parabolic(), _quadratic(), _exponential(1), _exponential(0), _exponential(-1)]


def _zero(expr: sp.Expr) -> bool:
    return sp.simplify(sp.expand(expr)) == 0


def _exact(values: dict) -> dict:
    """The float parameters as exact rationals, so sympy evaluates what numpy was given."""
    return {sym: sp.Rational(v) for sym, v in values.items()}


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.name)
def test_the_linear_equation_holds_identically(form):
    assert _zero(sp.diff(form.u, s, 2) - (2 * form.delta - form.C * form.u))


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.name)
def test_the_nonlinear_equation_holds_identically(form):
    x = sp.sqrt(form.u)
    assert _zero(sp.diff(x * sp.diff(x, s), s) - (form.delta - form.C / 2 * x**2))


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.name)
def test_the_first_integral_is_the_stated_constant(form):
    E = sp.diff(form.u, s) ** 2 - 4 * form.delta * form.u + form.C * form.u**2
    assert s not in form.E.free_symbols
    assert _zero(E - form.E)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.name)
def test_u_min_is_inf_u(form):
    """u - inf is a square (times a nonnegative constant) and vanishes at argmin."""
    assert _zero(form.u - form.inf - form.gap)
    assert _zero(form.gap.subs(s, form.argmin))
    for fam, values in form.members:
        exact = float(form.inf.subs(_exact(values)))
        assert abs(fam.u_min - exact) <= ULPS * np.finfo(float).eps * abs(exact)


def test_exponential_inf_is_approached_when_A_or_B_vanishes():
    """With A = 0 (or B = 0) the gap never vanishes: inf u is -k*delta, the limit at +inf (or -inf)."""
    A, B = sp.symbols("A B", positive=True)  # equal to the forms' own A and B
    for delta in (1, 0, -1):
        form = _exponential(delta)
        for zero, end in ((A, sp.oo), (B, -sp.oo)):
            assert _zero(sp.limit(form.u.subs(zero, 0), s, end) - form.inf.subs(zero, 0))


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.name)
def test_numpy_u_and_its_derivatives_match_the_exact_forms(form):
    points = np.linspace(-2.0, 2.0, 11) + 0.0625
    exprs = [form.u, sp.diff(form.u, s), sp.diff(form.u, s, 2)]
    for fam, values in form.members:
        got = fam.u(points)
        for what, expr, column in zip(("u", "u'", "u''"), exprs, got):
            f = expr.subs(_exact(values))
            want = np.array([float(f.subs(s, sp.Rational(p)).evalf(40)) for p in points])
            tol = ULPS * np.finfo(float).eps * np.max(np.abs(want))
            err = np.max(np.abs(np.asarray(column, dtype=float) - want))
            assert err <= tol, f"{fam!r} {what}: off the exact form by {err:.3e} > {tol:.3e}"


def test_isocurv_check_never_imports_sympy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys\n"
        "from isocurv.cli import main\n"
        "code = main(['check'])\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'sympy'))\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
