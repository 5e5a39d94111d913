import functools
import inspect
import math
import re
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import isocurv
from isocurv.checks import RunConfig
from isocurv.classification import ClassQuery, MinimalKind, minimal_classify, nonexistence_witness
from isocurv.curvature import (
    CurvatureTensor,
    Factor,
    OrthoFrame4,
    build_constant_curvature,
    build_from_shape,
    build_from_shapes,
    cic_probe,
    cic_probes,
    sample_frames,
    sectional,
)
from isocurv.profiles import (
    AmbientSpec,
    ExponentialProfile,
    ParabolicProfile,
    QuadraticProfile,
    TrigProfile,
    cic_along_profile,
    cic_mean_deviation,
    domain_check,
    integrate_profile,
    mean_deviation,
    ode_residual,
    profile_columns,
)
from isocurv.spectra import cic_from_spectrum, cmc_lambda_solve

moderate = st.floats(min_value=-3.0, max_value=3.0)


# ---------------------------------------------------------------------------
# pairing examples on the frame probe


@pytest.mark.parametrize(
    "lams,expected",
    [
        ((1.0, 1.0, 1.0, 2.0), True),   # pairings 3, 3, 3
        ((1.0, 2.0, 3.0, 4.0), False),  # pairings 14, 11, 10
        ((0.0, 0.0, 0.0, 0.0), True),
        ((1.0, 1.0, 2.0, 2.0), False),  # pairings 5, 4, 4
    ],
)
def test_pairing_examples(lams, expected):
    """The probe calls a Gauss tensor constant exactly when its three pairing sums agree."""
    a, b, c, d = lams
    p = (a * b + c * d, a * c + b * d, a * d + b * c)
    assert (max(p) == min(p)) is expected
    assert cic_probe(build_from_shape(0.0, lams), count=1000, seed=42).is_constant is expected


# ---------------------------------------------------------------------------
# isotropic constant, CMC quadratic


@pytest.mark.parametrize(
    "c,lam,mu,expected",
    [
        (0.0, -1.0, 1.0, 0.0),
        (0.0, 1.0, 1.0, 4.0),
        (0.75, -0.5, 1.5, 2.0),
    ],
)
def test_cic_from_spectrum_values(c, lam, mu, expected):
    assert cic_from_spectrum(c, lam, mu) == pytest.approx(expected, abs=1e-15)


def test_cmc_solve_clifford_quadratic():
    roots = cmc_lambda_solve(0.75, 2.0, 0.0)
    assert len(roots) == 2
    (lam1, mu1), (lam2, mu2) = roots
    assert lam1 == pytest.approx(-0.5, abs=1e-14)
    assert mu1 == pytest.approx(1.5, abs=1e-14)
    assert lam2 == pytest.approx(0.5, abs=1e-14)
    # the negative root is -sqrt(c - C/4)
    assert lam1 == pytest.approx(-math.sqrt(0.75 - 0.5), abs=1e-14)


def test_cmc_solve_double_and_empty():
    assert cmc_lambda_solve(1, 4, 0) == [(0.0, 0.0)]  # b = c0 = 0: the one double root, once
    roots = cmc_lambda_solve(0.0, 4.0, 4.0)
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(1.0, abs=1e-12)
    assert roots[0][1] == pytest.approx(1.0, abs=1e-12)
    assert cmc_lambda_solve(1.0, 10.0, 0.0) == []


def test_cmc_solve_exact_umbilical_double_root():
    # analytically a double root; roundoff must not drop it
    roots = cmc_lambda_solve(0.3, cic_from_spectrum(0.3, 1.1, 1.1), 4 * 1.1)
    assert len(roots) >= 1
    assert any(abs(lam - 1.1) < 1e-7 for lam, _ in roots)


@settings(max_examples=100, deadline=None)
@given(c=st.floats(-2, 2), lam=moderate, mu=moderate)
def test_cmc_round_trip(c, lam, mu):
    """Solving with the derived (C, H) recovers the generating pair."""
    assume(abs(lam - mu) > 0.05)  # away from the double root (lambda + mu)/2 = lambda
    C = cic_from_spectrum(c, lam, mu)
    H = 3 * lam + mu
    roots = cmc_lambda_solve(c, C, H)
    assert any(
        abs(rl - lam) <= 1e-10 and abs(rm - mu) <= 1e-10 for rl, rm in roots
    ), f"no root matches ({lam}, {mu}) in {roots}"
    for rl, rm in roots:
        assert abs(cic_from_spectrum(c, rl, rm) - C) <= 1e-12


SUBNORMAL_SLACK = 4 * math.ulp(0.0)  # four subnormal spacings


def _wide():
    """Log-uniform magnitudes in 1e-323..3e307 (subnormals included) with random signs."""
    exponent = st.floats(min_value=-323.0, max_value=math.log10(3e307))
    return st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), exponent)


def _roots_200(c, C, H):
    """The real roots of 2*lambda^2 - H*lambda + 2*(C/4 - c) = 0 at 200 bits
    (the larger by the stable formula, the other by Vieta), and whether the
    discriminant is within 1e-12 of a double root, relative to its terms."""
    with mpmath.workprec(200):
        c, C, H = mpmath.mpf(c), mpmath.mpf(C), mpmath.mpf(H)
        a, gap = 2, C / 4 - c
        disc = H * H - 8 * a * gap
        near_double = abs(disc) <= mpmath.mpf(1e-12) * (H * H + 8 * a * abs(gap))
        if disc < 0:
            return [], near_double
        if disc == 0:
            return [H / (2 * a)], near_double
        big = (H + mpmath.sign(H) * mpmath.sqrt(disc)) / 2 if H else mpmath.sqrt(disc) / 2
        return sorted([big / a, 2 * gap / big]), near_double


@settings(max_examples=400, deadline=None)
@given(c=_wide(), C=_wide(), H=_wide())
def test_cmc_solve_at_every_scale(c, C, H):
    """Finite pairs, the root count of the 200-bit solve (except within 1e-12
    of a double root), each lambda within 1e-14 relative of its root and each
    mu within 1e-14 of |H| + 3|lambda|, up to a few subnormal spacings
    where the root lies below the normal range."""
    got = cmc_lambda_solve(c, C, H)
    assert all(math.isfinite(v) for pair in got for v in pair), got
    want, near_double = _roots_200(c, C, H)
    if near_double:
        return
    assert len(got) == len(want), (got, want)
    for (lam, mu), root in zip(got, want):
        assert abs(lam - root) <= 1e-14 * abs(root) + SUBNORMAL_SLACK, (lam, root)
        assert abs(mu - (H - 3 * root)) <= 1e-14 * (abs(H) + 3 * abs(root)) + SUBNORMAL_SLACK, (mu, root)


@pytest.mark.parametrize(
    "args,lams",
    [
        ((-1e308, 1e308, 0.0), []),  # C - 4c overflows; (C/4 - c) > 0 has no real root at H = 0
        ((-1.7e308, 1.7e308, 0.0), []),  # C/4 - c itself overflows
        ((1.7e308, -1.7e308, 0.0), [-math.sqrt(2.125) * 1e154, math.sqrt(2.125) * 1e154]),
        ((1.0, 3.0, 1e300), [-5e-301, 5e299]),  # H^2 overflows
        ((0.0, 0.0, 1e200), [0.0, 5e199]),  # C = 4c: the roots 0 and H/2
        ((0.0, 0.0, 1.7e308), [0.0, 8.5e307]),  # 3*lambda overflows, mu = -H/2 does not
    ],
)
def test_cmc_solve_beyond_the_squares_range(args, lams):
    got = cmc_lambda_solve(*args)
    assert [lam for lam, _ in got] == pytest.approx(lams, rel=1e-15)
    H = args[-1]
    for lam, mu in got:  # mu = H - 3*lambda, formed where 3*lambda cannot overflow
        with mpmath.workprec(200):
            assert mu == pytest.approx(float(mpmath.mpf(H) - 3 * mpmath.mpf(lam)), rel=1e-15)


# ---------------------------------------------------------------------------
# minimal classification (classification.minimal_classify, on (lambda, mu))


def test_every_pair_the_solve_returns_is_cic():
    """Each (lambda, mu) the solve gives for 300 seeded draws of (c, C, H) in
    [-3, 3] builds a Gauss tensor (lambda, lambda, lambda, mu) that the probe
    calls constant at C, with mean curvature 3*lambda + mu = H: the n = 4
    relation, which (lambda^4, mu) at n = 5 does not satisfy."""
    pairs = 0
    for c, C, H in np.random.default_rng(31).uniform(-3.0, 3.0, size=(300, 3)).tolist():
        for lam, mu in cmc_lambda_solve(c, C, H):
            report = cic_probe(build_from_shape(c, (lam, lam, lam, mu)), 200, seed=5)
            assert report.is_constant, (c, C, H, lam, mu)
            assert abs(report.mean - C) <= 1e-9 * max(1.0, abs(C)), (c, C, H, report)
            assert abs(3.0 * lam + mu - H) <= 1e-12 * max(1.0, abs(H)), (c, C, H, lam, mu)
            pairs += 1
    assert pairs >= 250


@pytest.mark.parametrize("c", [0.25, 0.75, 1.0, 2.0])
def test_minimal_clifford_data(c):
    v = minimal_classify(4, c, 8.0 * c / 3.0)
    assert v.kind is MinimalKind.CLIFFORD
    assert abs(3.0 * v.lam + v.mu) <= 1e-14
    assert v.lam == pytest.approx(-math.sqrt(c / 3.0), abs=1e-12)
    assert v.mu == pytest.approx(math.sqrt(3.0 * c), abs=1e-12)
    assert v.x0 == pytest.approx(math.sqrt(3.0 / (4.0 * c)), abs=1e-14)
    assert cic_from_spectrum(c, v.lam, v.mu) == pytest.approx(8.0 * c / 3.0, abs=1e-12)


CLIFFORD_ROWS = [(c, 8.0 * c / 3.0) for c in (0.25, 0.75, 1.0, 2.0)] + [(1, Fraction(8, 3)), (Fraction(3, 4), 2)]


@pytest.mark.parametrize("c,C", CLIFFORD_ROWS)
def test_minimal_clifford_is_the_h0_solve(c, C):
    """The Clifford (lambda, mu) is the lambda < 0 pair of cmc_lambda_solve at H = 0, bit for bit."""
    v = minimal_classify(4, c, C)
    assert v.kind is MinimalKind.CLIFFORD
    assert [x.hex() for x in (v.lam, v.mu)] == [x.hex() for x in cmc_lambda_solve(c, C, 0.0)[0]]


def test_minimal_clifford_at_the_top_of_the_float_range():
    """4c overflows at c = 6e307; the profile height sqrt(3/(4c)) does not (it read 0.0)."""
    v = minimal_classify(4, 6e307, 8.0 / 3.0 * 6e307)
    assert v.kind is MinimalKind.CLIFFORD
    assert v.x0 == pytest.approx(1.118033988749895e-154, rel=1e-14)
    assert v.lam == pytest.approx(-math.sqrt(2e307), rel=1e-14)
    assert v.mu == pytest.approx(3.0 * math.sqrt(2e307), rel=1e-14)


@pytest.mark.parametrize("c", [1e-310, 1e-320])
def test_minimal_clifford_from_subnormal_inputs(c):
    """c and C are scaled into the normal range before their gap is formed, so
    lambda is sqrt(c - C/4) of the float inputs to rounding (it was 1.9e-14
    off at c = 1e-310 and 1.9e-4 at 1e-320)."""
    C = 8.0 * c / 3.0
    with mpmath.workprec(200):
        want = -mpmath.sqrt(mpmath.mpf(c) - mpmath.mpf(C) / 4)
    assert abs(minimal_classify(4, c, C).lam - want) <= 1e-15 * abs(want)


def test_minimal_clifford_spec_instance():
    v = minimal_classify(4, 0.75, 2.0)
    assert v.kind is MinimalKind.CLIFFORD
    assert (v.lam, v.mu, v.x0) == (-0.5, 1.5, 1.0)


@pytest.mark.parametrize(
    "n,c,C,kind",
    [
        (5, 1.0, 4.0, MinimalKind.TOTALLY_GEODESIC),
        (4, 1.0, 5.0, MinimalKind.NONE),
        (4, 1.0, 3.0, MinimalKind.NONE),     # C < 4c but not 8c/3
        (4, -1.0, -4.0, MinimalKind.TOTALLY_GEODESIC),
        (4, 0.0, 0.0, MinimalKind.TOTALLY_GEODESIC),
        (6, -1.0, -5.0, MinimalKind.NONE),
        (5, 0.5, 8.0 * 0.5 / 3.0, MinimalKind.NONE),  # Clifford needs n = 4
    ],
)
def test_minimal_branches(n, c, C, kind):
    assert minimal_classify(n, c, C).kind is kind


def test_minimal_clifford_tolerance_is_relative():
    """A float C matches 8c/3 within 1e-12 * max(|c|, |C|), as it matches 4c."""
    for c in (1e-6, 1.0, 1e6):
        assert minimal_classify(4, c, 8.0 * c / 3.0 * (1 + 1e-13)).kind is MinimalKind.CLIFFORD
        assert minimal_classify(4, c, 8.0 * c / 3.0 * (1 + 1e-10)).kind is MinimalKind.NONE
        assert minimal_classify(4, c, 8.0 * c / 3.0 * (1 - 1e-10)).kind is MinimalKind.NONE
        assert minimal_classify(4, c, 8.0 * c / 3.0 + 1e-3 * c).kind is MinimalKind.NONE


@pytest.mark.parametrize(
    "c,C,kind",
    [
        (1, Fraction(8, 3), MinimalKind.CLIFFORD),
        (Fraction(3, 4), 2, MinimalKind.CLIFFORD),
        (1, Fraction(8, 3) + Fraction(1, 10**12), MinimalKind.NONE),
        (1, Fraction(8, 3) - Fraction(1, 10**30), MinimalKind.NONE),
    ],
)
def test_minimal_clifford_is_exact_for_exact_inputs(c, C, kind):
    assert minimal_classify(4, c, C).kind is kind


# ---------------------------------------------------------------------------
# cross-module: spectrum formula against the frame probe


@pytest.mark.parametrize(
    "c,lam,mu",
    [
        (0.0, -1.0, 1.0),
        (0.75, -0.5, 1.5),
        (1.0, 0.5, -2.0),
        (-1.0, 1.3, 0.4),
    ],
)
def test_spectrum_formula_matches_probe(c, lam, mu):
    t = build_from_shape(c, (lam, lam, lam, mu))
    report = cic_probe(t, count=500, seed=42)
    expected = cic_from_spectrum(c, lam, mu)
    assert abs(report.min - expected) <= 1e-10
    assert abs(report.max - expected) <= 1e-10


def test_nonpairing_spectrum_probes_nonconstant():
    """Spectra violating the pairing identity are flagged by the probe."""
    t = build_from_shape(0.0, (1.0, 2.0, 3.0, 4.0))
    report = cic_probe(t, count=1000, seed=42)
    assert report.max - report.min > 1e-6 * np.max(np.abs(t.comp))


def test_sign_flipped_gauss_tensor_is_caught():
    """A wrong-sign shape-operator term survives the symmetry checks but
    breaks the spectrum identity, so the frame probe exposes it."""
    import numpy as np

    from isocurv.curvature import CurvatureTensor, check_symmetries

    c, lam, mu = 0.5, -1.0, 2.0
    lams = np.array([lam, lam, lam, mu])
    eye = np.eye(4)
    kmat = c - np.outer(lams, lams)  # corrupted: c - lam_i*lam_j
    comp = np.einsum("ij,il,jk->ijkl", kmat, eye, eye) - np.einsum("ij,ik,jl->ijkl", kmat, eye, eye)
    bad = CurvatureTensor(4, comp)
    assert check_symmetries(bad).max_residual <= 1e-14  # symmetries alone can't see it
    report = cic_probe(bad, count=500, seed=42)
    assert abs(report.mean - cic_from_spectrum(c, lam, mu)) > 0.1


@settings(max_examples=25, deadline=None)
@given(
    lams=st.tuples(moderate, moderate, moderate, moderate),
)
def test_pairing_failure_implies_probe_spread(lams):
    """Planted pairing gaps of at least 1e-3 always show up in the probe."""
    p = (
        lams[0] * lams[1] + lams[2] * lams[3],
        lams[0] * lams[2] + lams[1] * lams[3],
        lams[0] * lams[3] + lams[1] * lams[2],
    )
    assume(max(p) - min(p) >= 1e-3)
    t = build_from_shape(0.0, lams)
    report = cic_probe(t, count=1000, seed=42)
    assert report.max - report.min > 1e-6 * np.max(np.abs(t.comp))


# ---------------------------------------------------------------------------
# the input rules (spectra.check_integer, check_finite, check_delta for
# scalars, float_array for arrays) at every entry point that takes an input


NUMBER, INTEGER, DELTA = "number", "integer", "delta"
BAD = {
    NUMBER: (math.nan, math.inf, -math.inf, 10**400),
    INTEGER: (4.0, True, None, "4"),
    DELTA: (1.0, 0.0, True, None, "1", 2),
}
T4 = build_constant_curvature(4, 1.0)
US = TrigProfile(C=2.0, alpha=0.5).u(np.array((0.9, 1.0, 1.1)))


def _window_ends(lo=0.0, hi=1.0):
    """profile_columns on the window (lo, hi), so each end is a row of its own."""
    return profile_columns(ParabolicProfile(beta=1.0), AmbientSpec(0.0), (lo, hi), 11)


# entry point: (a valid call, keywords overriding its arguments; {parameter: kind})
ENTRY_POINTS = {
    "ClassQuery": (functools.partial(ClassQuery, n=4, c=1.0, C=3.0), {"n": INTEGER, "c": NUMBER, "C": NUMBER}),
    "minimal_classify": (functools.partial(minimal_classify, n=4, c=0.75, C=2.0),
                         {"n": INTEGER, "c": NUMBER, "C": NUMBER}),
    "cmc_lambda_solve": (functools.partial(cmc_lambda_solve, c=0.75, C=2.0, H=0.0),
                         {"c": NUMBER, "C": NUMBER, "H": NUMBER}),
    "Factor": (functools.partial(Factor, kind="sphere", dim=3, curvature=1.0), {"dim": INTEGER, "curvature": NUMBER}),
    "AmbientSpec": (functools.partial(AmbientSpec, c=-1.0, delta=1), {"c": NUMBER, "delta": DELTA}),
    "TrigProfile": (functools.partial(TrigProfile, C=2.0, alpha=0.5), {"C": NUMBER, "alpha": NUMBER}),
    "ParabolicProfile": (functools.partial(ParabolicProfile, beta=1.0), {"beta": NUMBER}),
    "ExponentialProfile": (functools.partial(ExponentialProfile, C=-1.0, A=1.0, B=1.0, delta=1),
                           {"C": NUMBER, "A": NUMBER, "B": NUMBER, "delta": DELTA}),
    "QuadraticProfile": (functools.partial(QuadraticProfile, A=0.0, B=1.0), {"A": NUMBER, "B": NUMBER}),
    "integrate_profile": (functools.partial(integrate_profile, C=2.0, delta=1, x0=1.0, v0=0.0, s_max=1.0, step=0.1),
                          {"C": NUMBER, "delta": DELTA, "x0": NUMBER, "v0": NUMBER, "s_max": NUMBER, "step": NUMBER}),
    "cic_probe": (functools.partial(cic_probe, T4, count=50, seed=1), {"count": INTEGER, "seed": INTEGER}),
    "cic_probes": (functools.partial(cic_probes, [T4, T4], count=50, seed=1), {"count": INTEGER, "seed": INTEGER}),
    "sample_frames": (functools.partial(sample_frames, n=4, count=5, seed=1),
                      {"n": INTEGER, "count": INTEGER, "seed": INTEGER}),
    "ode_residual": (functools.partial(ode_residual, C=2.0, delta=1, h=0.1, us=US),
                     {"C": NUMBER, "delta": DELTA, "h": NUMBER}),
    "profile_columns": (functools.partial(profile_columns, ParabolicProfile(beta=1.0), AmbientSpec(0.0), grid_n=11),
                        {"grid_n": INTEGER}),
    "profile_columns(s_window)": (_window_ends, {"lo": NUMBER, "hi": NUMBER}),
    "domain_check": (functools.partial(domain_check, ParabolicProfile(beta=1.0), AmbientSpec(0.0), grid_n=11),
                     {"grid_n": INTEGER}),
    "cic_mean_deviation": (functools.partial(cic_mean_deviation, ParabolicProfile(beta=1.0), AmbientSpec(0.0),
                                             grid_n=11), {"grid_n": INTEGER}),
    "cic_along_profile": (functools.partial(cic_along_profile, ParabolicProfile(beta=1.0), AmbientSpec(0.0),
                                            grid_n=11), {"grid_n": INTEGER}),
    "nonexistence_witness": (functools.partial(nonexistence_witness, ClassQuery(4, 1.0, 1.5), s_max=20.0, grid_n=101),
                             {"s_max": NUMBER, "grid_n": INTEGER}),
    "nonexistence_witness(n = 5)": (functools.partial(nonexistence_witness, ClassQuery(5, 1.0, 3.0), s_max=20.0,
                                                      grid_n=101), {"s_max": NUMBER, "grid_n": INTEGER}),
    "build_constant_curvature": (functools.partial(build_constant_curvature, n=4, k=1.0), {"n": INTEGER, "k": NUMBER}),
    "build_from_shape": (functools.partial(build_from_shape, c=0.75, lambdas=(-0.5, -0.5, -0.5, 1.5)), {"c": NUMBER}),
    "CurvatureTensor": (functools.partial(CurvatureTensor, dim=4, comp=np.zeros((4, 4, 4, 4))), {"dim": INTEGER}),
    "RunConfig": (functools.partial(RunConfig, seed=1), {"seed": INTEGER}),
}
SHOWN = {  # where the message calls a parameter by another name
    ("Factor", "dim"): "factor dim",
    ("CurvatureTensor", "dim"): "tensor dim",
    ("profile_columns(s_window)", "lo"): "window",
    ("profile_columns(s_window)", "hi"): "window",
}


def _expected_message(kind: str, name: str) -> str:
    if kind == NUMBER:
        return rf"^{name} must be finite, got "
    if kind == INTEGER:
        return rf"^need an integer {name} >= -?\d+, got {name} = "
    return r"^delta must be -1, 0 or 1, got "


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_entry_point_accepts_its_valid_call(entry):
    call, _ = ENTRY_POINTS[entry]
    call()


@pytest.mark.parametrize(
    "entry,name,bad",
    [
        pytest.param(entry, name, bad, id=f"{entry}-{name}={'10**400' if bad == 10**400 else repr(bad)}")
        for entry, (_, kinds) in ENTRY_POINTS.items()
        for name, kind in kinds.items()
        for bad in BAD[kind]
    ],
)
def test_each_scalar_input_is_checked_by_its_rule(entry, name, bad):
    """nan, +-inf and 10**400 where a number is expected, 4.0, True, None
    and "4" where an integer is, and those and 0.0, 1.0 and 2 where delta
    is: each a ValueError whose message names the parameter."""
    call, kinds = ENTRY_POINTS[entry]
    shown = re.escape(SHOWN.get((entry, name), name))
    with pytest.raises(ValueError, match=_expected_message(kinds[name], shown)):
        call(**{name: bad})


# entry point: (a valid call, {array parameter: its value in that call}); an
# array parameter's entries are judged by its scalar kind's rule, a number's
# by default
ARRAY_ENTRY_POINTS = {
    "CurvatureTensor": (functools.partial(CurvatureTensor, dim=4), {"comp": np.zeros((4, 4, 4, 4))}),
    "OrthoFrame4": (OrthoFrame4, {"vectors": np.eye(4)}),
    "build_from_shape": (functools.partial(build_from_shape, c=0.75), {"lambdas": (-0.5, -0.5, -0.5, 1.5)}),
    "build_from_shapes": (build_from_shapes, {"cs": (0.75, 0.0), "lambdas": ((-0.5, -0.5, -0.5, 1.5), (1, 1, 1, 1))}),
    "sectional": (functools.partial(sectional, T4), {"x": (1.0, 0.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0, 0.0)}),
    **{f"{type(fam).__name__}.eval": (fam.eval, {"s": (0.0, 1.0)}) for fam in (
        TrigProfile(C=2.0, alpha=0.5), ParabolicProfile(beta=1.0),
        ExponentialProfile(C=-1.0, A=1.0, B=1.0), QuadraticProfile(A=0.0, B=1.0))},
    "mean_deviation": (mean_deviation, {"cics": (np.array((1.0, 2.0)), np.array((3.0,)))}),
    "ode_residual": (functools.partial(ode_residual, h=0.1), {"C": 2.0, "delta": 1, "us": US}),
}


def _with_huge_entry(value):
    """value as nested lists with 10**400 in its first entry."""
    bad = np.array(value, dtype=object)
    bad.flat[0] = 10**400
    return bad.tolist()


@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_each_array_entry_point_accepts_its_valid_call(entry):
    call, arrays = ARRAY_ENTRY_POINTS[entry]
    call(**arrays)


@pytest.mark.parametrize(
    "entry,name",
    [pytest.param(entry, name, id=f"{entry}-{name}") for entry, (_, arrays) in ARRAY_ENTRY_POINTS.items()
     for name in arrays],
)
def test_each_array_input_is_checked_by_its_rule(entry, name):
    """An entry of 10**400 (an OverflowError or TypeError inside numpy
    before) is a ValueError naming the parameter."""
    call, arrays = ARRAY_ENTRY_POINTS[entry]
    kind = ENTRY_POINTS.get(entry, (None, {}))[1].get(name, NUMBER)
    with pytest.raises(ValueError, match=_expected_message(kind, re.escape(name))):
        call(**{**arrays, name: _with_huge_entry(arrays[name])})


# every public scalar or array parameter has its rows: the callables isocurv exports,
# less the results and errors it hands out and the elementwise formula
NOT_INPUTS = {
    "ClassificationOutcome", "Interval", "MinimalVerdict", "ProbeReport", "SymmetryReport", "FirstFailure",
    "ProfileSample", "DomainBreakdown", "FrameError", "NonPositiveProfile",
    "cic_from_spectrum",  # elementwise on numpy arrays, as the profile grids call it
}
SCALAR_ANNOTATIONS = {"int", "float", "Number"}
ARRAY_ANNOTATIONS = {"np.ndarray", "Sequence[float]", "Iterable[np.ndarray]"}


def _annotated(obj, kinds: set[str]) -> list[str]:
    """The parameters of obj whose annotation, split at |, has a part in kinds."""
    names = []
    for p in inspect.signature(obj).parameters.values():
        text = p.annotation if isinstance(p.annotation, str) else inspect.formatannotation(p.annotation)
        if {part.strip() for part in text.split("|")} & kinds:
            names.append(p.name)
    return names


def scalar_parameters(obj) -> list[str]:
    """The parameters of obj annotated int, float or Number, alone or or-ed with None or an array."""
    return _annotated(obj, SCALAR_ANNOTATIONS)


def array_parameters(obj) -> list[str]:
    """The parameters of obj annotated np.ndarray, Sequence[float] or Iterable[np.ndarray], or or-ed with one."""
    return _annotated(obj, ARRAY_ANNOTATIONS)


def uncovered(exports: dict, table: dict, parameters=scalar_parameters) -> list[str]:
    """Each 'name.parameter' of exports that parameters finds with no row in table."""
    return [
        f"{name}.{p}" for name, obj in exports.items() for p in parameters(obj)
        if p not in table.get(name, (None, {}))[1]
    ]


def _exports() -> dict:
    return {name: obj for name, obj in vars(isocurv).items()
            if callable(obj) and not name.startswith("_") and name not in NOT_INPUTS}


def test_the_boundary_table_covers_every_scalar_parameter():
    assert NOT_INPUTS <= set(vars(isocurv))
    assert uncovered(_exports(), ENTRY_POINTS) == []


def test_the_boundary_table_covers_every_array_parameter():
    assert uncovered(_exports(), ARRAY_ENTRY_POINTS, array_parameters) == []


def _planted(n: int, x: float, s_max: float | None = None, xs: Sequence[float] = (), w: tuple[float, float] = (0, 1)):
    pass


def _planted_postponed(c: "Number", dim: "int", comp: "np.ndarray", tag: "str", lo: "float | None" = None):
    pass


def _planted_arrays(C: "float | np.ndarray", us: "np.ndarray", cics: "Iterable[np.ndarray]", n: int, w: tuple = ()):
    pass


@pytest.mark.parametrize(
    "exports,table,found",
    [
        ({"f": _planted}, {}, ["f.n", "f.x", "f.s_max"]),
        ({"f": _planted}, {"f": (None, {"n": INTEGER, "s_max": NUMBER})}, ["f.x"]),
        ({"f": _planted}, {"f": (None, {"n": INTEGER, "x": NUMBER, "s_max": NUMBER})}, []),
        ({"f": _planted}, {"g": (None, {"n": INTEGER, "x": NUMBER, "s_max": NUMBER})}, ["f.n", "f.x", "f.s_max"]),
        ({"g": _planted_postponed}, {"g": (None, {"c": NUMBER})}, ["g.dim", "g.lo"]),
        ({"h": _planted_arrays}, {}, ["h.C", "h.n"]),
    ],
)
def test_the_coverage_checker_sees_each_uncovered_parameter(exports, table, found):
    assert uncovered(exports, table) == found


@pytest.mark.parametrize(
    "exports,table,found",
    [
        ({"f": _planted}, {}, ["f.xs"]),
        ({"f": _planted}, {"f": (None, {"xs": ()})}, []),
        ({"g": _planted_postponed}, {}, ["g.comp"]),
        ({"h": _planted_arrays}, {}, ["h.C", "h.us", "h.cics"]),
        ({"h": _planted_arrays}, {"h": (None, {"C": 2.0, "cics": ()})}, ["h.us"]),
    ],
)
def test_the_coverage_checker_sees_each_uncovered_array_parameter(exports, table, found):
    assert uncovered(exports, table, array_parameters) == found


def test_exact_and_numpy_inputs_stay_accepted():
    """Ints, Fractions and numpy integers pass the rules and give the answers of their floats."""
    i = np.int64
    assert ClassQuery(i(4), Fraction(3, 4), 2) == ClassQuery(4, 0.75, 2.0)
    assert minimal_classify(i(4), Fraction(3, 4), 2) == minimal_classify(4, 0.75, 2.0)
    assert cmc_lambda_solve(Fraction(3, 4), 2, 0) == cmc_lambda_solve(0.75, 2.0, 0.0)
    assert Factor("sphere", i(3), Fraction(1)) == Factor("sphere", 3, 1.0)
    assert AmbientSpec(Fraction(-1), i(-1)) == AmbientSpec(-1.0, -1)
    assert ExponentialProfile(C=-1, A=1, B=1, delta=i(0)) == ExponentialProfile(C=-1.0, A=1.0, B=1.0, delta=0)
    assert integrate_profile(2, i(1), 1, 0, 1, 0.1) == integrate_profile(2.0, 1, 1.0, 0.0, 1.0, 0.1)
    assert cic_probe(T4, count=i(50), seed=i(3)) == cic_probe(T4, count=50, seed=3)
    assert all(np.array_equal(a.vectors, b.vectors)
               for a, b in zip(sample_frames(i(5), i(4), i(2)), sample_frames(5, 4, 2), strict=True))
    got, want = (list(profile_columns(ParabolicProfile(beta=1), AmbientSpec(0), grid_n=g)) for g in (i(11), 11))
    assert all(np.array_equal(a, b) for ga, wa in zip(got, want, strict=True) for a, b in zip(ga, wa, strict=True))
    assert RunConfig(seed=i(7)).seed == 7
