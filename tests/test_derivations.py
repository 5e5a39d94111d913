"""Exact derivations, in sympy, of the profile families' closed forms.

Each family of `isocurv.profiles` is a closed form u = x^2 of the profile
equation.  Here each form is shown to solve both the linear equation
u'' = 2*delta - C*u and the nonlinear (x*x')' = delta - (C/2)*x^2
identically, its first integral E = u'^2 - 4*delta*u + C*u^2 is the stated
constant, and its u_min is inf u: u - u_min is a nonnegative square that
vanishes (or tends to 0) somewhere.  The numpy code is then compared with
these exact forms at sample points, so a mutated src formula fails here.
The ends of `classify`'s parameter intervals are derived the same way, from
N = (C - 4c)*u^2 - E (the radicand's numerator in an ambient of the
family's rotation type) at the ends of the family's range of u, and
compared with classify at exact (c, C).  The minimal case is derived as the
H = 0 case of the n = 4 CMC quadratic, and its Clifford constants with it;
at n = 5 the Gauss tensor of (lambda^4, mu) is shown CIC only at lambda = mu
or lambda = 0, why that quadratic is n = 4's alone.
sympy is imported only by this test module; `isocurv check` never imports it.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from isocurv import profiles as pf
from isocurv.classification import ClassQuery, MinimalKind, classify, minimal_classify, nonexistence_witness
from isocurv.curvature import build_from_shape, cic_probe
from isocurv.spectra import cic_from_spectrum

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


# ---------------------------------------------------------------------------
# classify's interval ends: N > 0 at the ends of the family's range of u

c_sym = sp.Symbol("c", real=True)


def _symbols(form: Form) -> dict:
    return {x.name: x for x in form.u.free_symbols | form.C.free_symbols}


def _N(form: Form, u: sp.Expr, E: sp.Expr | None = None) -> sp.Expr:
    """N at u in an ambient of curvature c and the family's own rotation type,
    where 4*(delta_a - delta_f)*u vanishes."""
    return (form.C - 4 * c_sym) * u**2 - (form.E if E is None else E)


def _listed(c, C, family, delta=1):
    """classify's interval for (family, delta) at the exact query (4, c, C), as the CLI builds it."""
    outcomes = classify(ClassQuery(4, Fraction(str(c)), Fraction(str(C))))
    (interval,) = [o.interval for o in outcomes if o.family == family and o.profile.ode_delta == delta]
    return interval


def _close(got: float, want: sp.Expr) -> bool:
    want = float(want)
    return abs(got - want) <= 4 * np.finfo(float).eps * max(1.0, abs(want))


HYPERBOLIC_POINTS = [
    (c, C) for c in map(sp.Rational, ("-1", "-1/3", "-2"))
    for C in (4 * c, 4 * c + sp.Rational(1, 7), 3 * c, 2 * c - sp.Rational(1, 7), 2 * c, 2 * c + sp.Rational(1, 7),
              c, c / 10)
]
SPHERICAL_POINTS = [
    (c, C) for c in map(sp.Rational, ("1", "1/3", "2"))
    for C in (2 * c + sp.Rational(1, 7), 8 * c / 3, 3 * c, 4 * c - sp.Rational(1, 7), 4 * c, 5 * c)
]


def test_trig_N_at_both_ends_of_u():
    """u runs over [k(1 - alpha), k(1 + alpha)], k = 2/C, and at either end
    N = u * (4/C) * (C - 2c(1 +- alpha)); N has no linear term, so its least
    value over that range is at one of them."""
    form = FORMS[0]
    alpha, C = _symbols(form)["alpha"], form.C
    k = 2 / C
    for sign in (1, -1):
        u = k * (1 + sign * alpha)
        assert _zero(_N(form, u) - u * 4 / C * (C - 2 * c_sym * (1 + sign * alpha)))


@pytest.mark.parametrize("c,C", SPHERICAL_POINTS + [(sp.Integer(0), sp.Integer(2)), (sp.Integer(-1), sp.Integer(1))])
def test_trig_alpha_end_is_where_N_vanishes_at_u_max(c, C):
    """For alpha in [0, 1) (u_min > 0), C - 2c(1 - alpha) > 0 whenever
    C > 2c(1 + alpha); so the members are alpha < min(1, C/(2c) - 1) when
    c > 0, and alpha < 1 otherwise: classify's end, C/(2c) - 1 below 4c."""
    alpha = sp.Symbol("alpha", real=True)
    roots = sp.solve(C - 2 * c * (1 + alpha), alpha)
    hi = min([sp.Integer(1)] + [r for r in roots if r >= 0])
    interval = _listed(c, C, "trig")
    assert (interval.lo, interval.lo_open, interval.hi_open) == (0.0, False, True)
    assert _close(interval.hi, hi)
    if C >= 4 * c:
        assert interval.hi == 1.0


@pytest.mark.parametrize("delta", [1, 0, -1])
def test_exponential_N_at_u_min(delta):
    """With g = 2*sqrt(AB), u_min = k(g - delta) and N(u_min) = u_min *
    (4/C) * (2c(g - delta) + C*delta); for C >= 4c, N is nondecreasing in
    u > 0, so the members are u_min > 0 and that bracket negative (C < 0)."""
    form = _exponential(delta)
    sym = _symbols(form)
    g = sp.Symbol("g", nonnegative=True)
    by_g = {sym["A"]: g / 2, sym["B"]: g / 2}
    u_min, E = form.inf.subs(by_g), form.E.subs(by_g)
    assert _zero(u_min - 2 / -form.C * (g - delta))
    assert _zero(_N(form, u_min, E) - u_min * 4 / form.C * (2 * c_sym * (g - delta) + form.C * delta))


@pytest.mark.parametrize("delta", [1, 0, -1])
@pytest.mark.parametrize("c,C", HYPERBOLIC_POINTS)
def test_exponential_g_end_matches_classify(c, C, delta):
    """g > delta (u_min > 0) and g > delta*(1 - C/(2c)) (N(u_min) > 0, as
    2c < 0): the end is 1, 0 and, for delta = -1, C/(2c) - 1 when that is
    >= 0; else delta = -1 takes every g >= 0, the tube g = 0 too."""
    g = sp.Symbol("g", real=True)
    ends = [sp.Integer(delta), *sp.solve(2 * c * (g - delta) + C * delta, g)]
    lo = max([sp.Integer(0)] + ends)
    closed = all(end < 0 for end in ends)
    interval = _listed(c, C, "exponential", delta)
    assert _close(interval.lo, lo) and interval.lo_open is not closed and interval.hi is None
    if delta == -1:
        assert closed == (C > 2 * c)
        assert lo == (sp.Integer(0) if C > 2 * c else C / (2 * c) - 1)


def test_quadratic_u_min_is_the_old_condition():
    """u_min = B - A^2/4 > 0 iff B > 0 and A^2/(4B) < 1: B - u_min is the
    square (A/2)^2, so u_min > 0 forces B > 0, and for B > 0 u_min is B
    times 1 - A^2/(4B).  Here E = -4*u_min, so N = -4c*u^2 + 4*u_min > 0
    on u >= u_min exactly when u_min > 0 (c < 0): classify's (0, inf)."""
    form = FORMS[2]
    A, B = _symbols(form)["A"], _symbols(form)["B"]
    assert _zero(B - form.inf - (A / 2) ** 2)
    assert _zero(form.inf - B * (1 - A**2 / (4 * B)))
    u = sp.Symbol("u", positive=True)
    assert _zero(_N(form, u) - (-4 * c_sym * u**2 + 4 * form.inf))
    interval = _listed(-1, 0, "quadratic")
    assert (interval.lo, interval.lo_open, interval.hi) == (0.0, True, None)


# ---------------------------------------------------------------------------
# the flat-C candidate in a spherical ambient: where its radicand vanishes


@pytest.mark.parametrize("c", map(sp.Rational, ("1/2", "1/3", "1/10", "9/10", "2/3")))
def test_flat_candidate_fails_where_c_u_squared_reaches_1(c):
    """For 0 < c < 1 and C = 0, classify's candidate x = sqrt(s^2 + 1) has
    radicand 1 - c*x^2 - x'^2 = (1 - c*(s^2 + 1)^2) / (s^2 + 1), which is
    N/(4u) with E = -4 (beta = 1), so it first vanishes at |s| =
    sqrt(1/sqrt(c) - 1), not where c*x^2 reaches 1.  classify's detail
    states that point and nonexistence_witness fails at the first grid
    point at or past it."""
    x = sp.sqrt(s**2 + 1)
    radicand = 1 - c_sym * x**2 - sp.diff(x, s) ** 2
    assert _zero(radicand - (1 - c_sym * (s**2 + 1) ** 2) / (s**2 + 1))
    parabolic = FORMS[1]
    beta = _symbols(parabolic)["beta"]
    u = parabolic.u.subs(beta, 1)
    assert _zero(radicand - _N(parabolic, u, parabolic.E.subs(beta, 1)) / (4 * u))
    (at,) = [r for r in sp.solve(radicand.subs(c_sym, c), s) if r > 0]
    assert _zero(at - sp.sqrt(1 / sp.sqrt(c) - 1))

    ev = nonexistence_witness(ClassQuery(4, Fraction(str(c)), 0))
    assert f"at |s| = sqrt(1/sqrt(c) - 1) = {float(at):.6f}" in ev.detail
    step = 20.0 / np.sqrt(float(c)) / (pf.DEFAULT_GRID - 1)  # the witness scans [0, 20/sqrt(c)]
    k = int(np.ceil(float(at) / step))
    assert k * step - float(at) > 1e-6 * step  # no grid point within rounding of the root
    assert ev.failure.s == k * step


# ---------------------------------------------------------------------------
# the minimal case, H = 0, of the CMC quadratic: the Clifford constants


def test_the_cmc_quadratic_is_the_isotropic_constant_at_fixed_H():
    """At n = 4, with mu = H - 3*lambda, C = cic_from_spectrum(c, lambda, mu)
    is 2*lambda^2 - H*lambda + 2*(C/4 - c) = 0, the equation
    cmc_lambda_solve solves; H = 0 gives lambda^2 = c - C/4."""
    H, lam, C = sp.symbols("H lambda C", real=True)
    mu = H - 3 * lam
    quadratic = 2 * lam**2 - H * lam + 2 * (C / 4 - c_sym)
    assert _zero(quadratic + (sp.nsimplify(cic_from_spectrum(c_sym, lam, mu)) - C) / 2)
    roots = sp.solve(quadratic.subs(H, 0), lam)
    assert len(roots) == 2
    for root in roots:
        assert _zero(root**2 - (c_sym - C / 4))


def _frame_functional(c, ks, frame):
    """K(e1,e3) + K(e1,e4) + K(e2,e3) + K(e2,e4) - 2 R(e1,e2,e3,e4) of the Gauss
    tensor R_ijkl = (c + k_i k_j)(delta_il delta_jk - delta_ik delta_jl), on the
    coordinate frame (e_a, e_b, e_g, e_d) given by its four indices."""

    def R(i, j, k, l):
        return (c + ks[i] * ks[j]) * (int(i == l and j == k) - int(i == k and j == l))

    a, b, g, d = frame
    return R(a, g, g, a) + R(a, d, d, a) + R(b, g, g, b) + R(b, d, d, b) - 2 * R(a, b, g, d)


def test_at_n5_the_spectrum_lambda4_mu_is_cic_only_when_lambda_is_mu_or_0():
    """The n >= 5 half of the pointwise lemma, at n = 5: on the coordinate
    frames (e1, e2, e3, e4) and (e1, e2, e3, e5) the Gauss tensor of
    (lambda, lambda, lambda, lambda, mu) takes 4c + 4*lambda^2 and
    4c + 2*lambda^2 + 2*lambda*mu, which differ by 2*lambda*(lambda - mu).
    So the isotropic curvature is constant only at lambda = mu (umbilical,
    C = 4c + 4*lambda^2) or lambda = 0 (C = 4c), where every sectional
    curvature c + k_i*k_j is one number: n = 4's relation
    C = 4c + 2(lambda^2 + lambda*mu) does not carry over, and the probe
    sees the spread."""
    lam, mu = sp.symbols("lambda mu", real=True)
    ks = (lam, lam, lam, lam, mu)
    first, last = _frame_functional(c_sym, ks, (0, 1, 2, 3)), _frame_functional(c_sym, ks, (0, 1, 2, 4))
    assert _zero(first - (4 * c_sym + 4 * lam**2))
    assert _zero(last - (4 * c_sym + 2 * lam**2 + 2 * lam * mu))
    assert _zero(first - last - 2 * lam * (lam - mu))
    assert set(sp.solve(first - last, lam)) == {0, mu}
    for at in ({lam: mu}, {lam: 0}):
        sectionals = {sp.expand((c_sym + ks[i] * ks[j]).subs(at)) for i in range(5) for j in range(i)}
        assert len(sectionals) == 1
    # lambda*(lambda - mu) != 0: the probe spreads; the last two are the roots (3 -+ sqrt(3))/6 of
    # (n - 2)*lambda^2 - H*lambda + 2*(C/4 - c) = 0 at n = 5, (c, C, H) = (1, 5, 3), with mu = H - 4*lambda
    spread = [(1, 2), (-1, 1), (2, -1)] + [((3 + r) / 6, 3 - 4 * (3 + r) / 6) for r in (-np.sqrt(3), np.sqrt(3))]
    for lam_v, mu_v in spread:
        assert not cic_probe(build_from_shape(1.0, (lam_v,) * 4 + (mu_v,)), count=200, seed=3).is_constant
    for lam_v, mu_v in ((1, 1), (0, 2)):
        assert cic_probe(build_from_shape(1.0, (lam_v,) * 4 + (mu_v,)), count=200, seed=3).is_constant


def test_the_clifford_constants_are_the_h0_root_at_n4_and_C_8c_over_3():
    """At n = 4 and C = 8c/3 (c > 0) the H = 0 roots are lambda = +-sqrt(c/3);
    the Clifford lambda < 0 one has mu = -3*lambda = sqrt(3c), and the
    alpha = 0 trig member's u_min = 2/C = 3/(4c) is its profile height
    squared.  minimal_classify gives these at exact c."""
    c = sp.Symbol("c", positive=True)
    lam = sp.Symbol("lambda", real=True)
    (root,) = [r for r in sp.solve(2 * lam**2 + 2 * (8 * c / 3 / 4 - c), lam) if r.is_negative]
    assert _zero(root + sp.sqrt(c / 3))
    assert _zero(-3 * root - sp.sqrt(3 * c))
    trig = _symbols(FORMS[0])
    u_min = FORMS[0].inf.subs({trig["alpha"]: 0, trig["C"]: 8 * c / 3})
    assert _zero(u_min - 3 / (4 * c))
    for value in map(sp.Rational, ("1/4", "3/4", "1", "2", "1/3")):
        v = minimal_classify(4, Fraction(str(value)), Fraction(str(value)) * Fraction(8, 3))
        assert v.kind is MinimalKind.CLIFFORD
        exact = {c: value}
        assert _close(v.lam, root.subs(exact)) and _close(v.mu, (-3 * root).subs(exact))
        assert _close(v.x0, sp.sqrt(u_min.subs(exact)))


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
