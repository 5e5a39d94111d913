import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocurv import checks
from isocurv import classification as cls
from isocurv.checks import _signature, _truth_table
from isocurv.classification import (
    CONSTANT_CURVATURE,
    EMPTY,
    FLAT_LOCAL,
    ROTATION_FAMILY,
    TOTALLY_GEODESIC,
    UMBILICAL,
    ClassQuery,
    Interval,
    MinimalKind,
    classify,
    minimal_classify,
    nonexistence_witness,
    query_to_json,
    witness,
)
from isocurv.curvature import build_from_shape, cic_probe
from isocurv.profiles import (
    AmbientSpec,
    ExponentialProfile,
    ParabolicProfile,
    QuadraticProfile,
    TrigProfile,
    cic_along_profile,
    domain_check,
    profile_columns,
)
from isocurv.spectra import cmc_lambda_solve
from oracles import principal_curvatures


def tags(outcomes):
    return sorted(o.tag for o in outcomes)


def families(outcomes):
    return sorted(o.family for o in outcomes if o.tag == ROTATION_FAMILY)


# ---------------------------------------------------------------------------
# decision tree


def test_high_dimension_branches():
    assert tags(classify(ClassQuery(5, 1, 4))) == ["TotallyGeodesic"]
    assert tags(classify(ClassQuery(6, 1, 5))) == ["UmbilicalNonTG"]
    assert tags(classify(ClassQuery(5, -1, -4))) == ["ConstantCurvature"]
    assert tags(classify(ClassQuery(5, 1, 3))) == ["Empty"]
    out = classify(ClassQuery(5, 1, 8))[0]
    assert out.lambda_sq == pytest.approx(1.0)  # (C - 4c)/4


def test_flat_ambient_branches():
    assert tags(classify(ClassQuery(4, 0, -1))) == ["Empty"]
    out = classify(ClassQuery(4, 0, 0))
    assert tags(out) == ["FlatLocal", "RotationFamily"]
    assert families(out) == ["parabolic"]
    out = classify(ClassQuery(4, 0, 2))
    assert tags(out) == ["RotationFamily", "UmbilicalNonTG"]  # a geodesic hyperplane has C = 0
    assert families(out) == ["trig"]


def test_spherical_ambient_branches():
    assert classify(ClassQuery(4, 1, 1.5))[0].tag == EMPTY
    assert "C <= 2c" in classify(ClassQuery(4, 1, 1.5))[0].reason
    out = classify(ClassQuery(4, 1, 3))
    assert tags(out) == ["RotationFamily"]
    rng = out[0].interval
    assert out[0].parameter == "alpha"
    assert (rng.lo, rng.hi, rng.lo_open, rng.hi_open) == (0.0, 0.5, False, True)
    out = classify(ClassQuery(4, 1, 4))
    assert tags(out) == ["RotationFamily", "TotallyGeodesic"]
    assert out[1].interval.lo_open is False
    out = classify(ClassQuery(4, 1, 6))
    assert tags(out) == ["RotationFamily", "UmbilicalNonTG"]


def test_hyperbolic_ambient_branches():
    assert classify(ClassQuery(4, -1, -5))[0].tag == EMPTY
    out = classify(ClassQuery(4, -1, -4))
    assert tags(out) == ["ConstantCurvature"] + ["RotationFamily"] * 3
    assert families(out) == ["exponential"] * 3
    # one exponential outcome per rotation type, each over g = 2*sqrt(AB)
    assert [o.profile.ode_delta for o in out[1:]] == [1, 0, -1]
    assert [o.parameter for o in out[1:]] == ["g"] * 3
    assert [(o.interval.lo, o.interval.lo_open) for o in out[1:]] == [(1.0, True), (0.0, True), (1.0, True)]
    out = classify(ClassQuery(4, -1, -2))
    assert tags(out) == ["RotationFamily"] * 3 + ["UmbilicalNonTG"]
    assert out[3].interval == Interval(0.0, None)  # C = 2c: delta = -1 opens at g = 0
    out = classify(ClassQuery(4, -1, -1))
    assert out[3].interval == Interval(0.0, None, lo_open=False)  # above 2c: the tube g = 0 too
    out = classify(ClassQuery(4, -1, 0))
    assert families(out) == ["quadratic"]
    assert out[1].parameter == "u_min" and out[1].interval == Interval(0.0, None)
    out = classify(ClassQuery(4, -1, 3))
    assert families(out) == ["trig"]
    assert out[1].profile.ode_delta == 1  # only spherical rotation types for C > 0


def test_query_validation():
    with pytest.raises(ValueError):
        ClassQuery(3, 1, 1)


@pytest.mark.parametrize("n", [4.5, 5.0, 4.0, Fraction(4), True, "4", Fraction(9, 2), 3])
def test_a_non_integer_n_is_rejected(n):
    """A dimension is an integer of at least 4: a float n, a whole one too, a
    Fraction, a bool, a string or 3 is rejected with a message naming it, by
    ClassQuery and minimal_classify alike (one spectra.check_integer)."""
    with pytest.raises(ValueError, match=f"integer n >= 4, got n = {re.escape(repr(n))}"):
        ClassQuery(n, 1, 3)
    with pytest.raises(ValueError, match=f"integer n >= 4, got n = {re.escape(repr(n))}"):
        minimal_classify(n, 1, Fraction(8, 3))


def test_a_numpy_integer_n_is_an_integer():
    assert classify(ClassQuery(np.int64(4), 1, 3)) == classify(ClassQuery(4, 1, 3))
    assert minimal_classify(np.int64(5), 1, 4) == minimal_classify(5, 1, 4)
    assert minimal_classify(np.int64(4), 1, Fraction(8, 3)).kind is MinimalKind.CLIFFORD


def test_nan_ambient_curvature_is_rejected():
    with pytest.raises(ValueError, match="c must be finite, got nan"):
        classify(ClassQuery(4, math.nan, 1))


def test_infinite_isotropic_constant_is_rejected():
    with pytest.raises(ValueError, match="C must be finite, got inf"):
        classify(ClassQuery(4, 1, math.inf))


@pytest.mark.parametrize("big", [10**400, Fraction(-(10**400), 3)])
def test_exact_value_beyond_float_range_is_rejected(big):
    with pytest.raises(ValueError, match="c must be finite"):
        ClassQuery(4, big, 1)


@pytest.mark.parametrize(
    "c,C,name",
    [(1.0, math.inf, "C"), (-math.inf, 1.0, "c"), (10**400, 1, "c"), (math.nan, 1.0, "c"), (1.0, -(10**400), "C")],
    ids=lambda v: "10**400" if v == 10**400 else "-10**400" if v == -(10**400) else None,
)
def test_the_minimal_claim_rejects_non_finite_input(c, C, name):
    """minimal_classify checks (n, c, C) as ClassQuery does: an infinite C
    used to read as TotallyGeodesic and 10**400 to raise OverflowError."""
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        minimal_classify(4, c, C)


@pytest.mark.parametrize(
    "c,C,H,name",
    [(math.nan, 1.0, 0.0, "c"), (0.75, math.inf, 0.0, "C"), (0.75, 2.0, 10**400, "H")],
    ids=lambda v: "10**400" if v == 10**400 else None,
)
def test_the_cmc_solver_rejects_non_finite_input(c, C, H, name):
    """cmc_lambda_solve used to answer nan with NaN pairs."""
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        cmc_lambda_solve(c, C, H)


@pytest.mark.parametrize("n,c,C,lambda_sq", [(5, -1e308, 0.0, 1e308), (4, -1e308, -1e308, 7.5e307)])
def test_umbilical_lambda_sq_near_the_float_range(n, c, C, lambda_sq):
    """lambda^2 = C/4 - c stays finite where 4c overflows."""
    q = ClassQuery(n, c, C)
    outcomes = classify(q)
    assert outcomes[0].tag == "UmbilicalNonTG" and outcomes[0].lambda_sq == lambda_sq
    json.dumps(query_to_json(q, outcomes), allow_nan=False)


@pytest.mark.parametrize("n", [4, 5])
def test_umbilical_lambda_sq_beyond_the_float_range_is_rejected(n):
    """C/4 - c = 2.125e308 is beyond the float range: a ValueError naming c
    and C, not lambda_sq = inf (which json then refused to write)."""
    message = rf"^classify\(n = {n}, c = -1.7e\+308, C = 1.7e\+308\): umbilical lambda\^2 = C/4 - c is outside"
    with pytest.raises(ValueError, match=message):
        classify(ClassQuery(n, -1.7e308, 1.7e308))


@pytest.mark.parametrize(
    "n,C,shown",
    [
        (5, -1.7e308, "lambda^2 = (C-4c)/4 = -2.125000e+308 >= 0"),
        (4, -1.7e308, "c*x(0)^2 = 2c/|C| = 2.000000 >= 1"),
        (4, 1.7e308, "c*x(0)^2 = 2c/C = 2.000000 >= 1"),
    ],
)
def test_empty_detail_beyond_the_float_range_has_no_inf(n, C, shown):
    """At c = 1.7e308 the Empty outcome stays Empty and its detail shows the
    true values: C/4 - c = -2.125e308 read -inf, and 2c/|C| and 2c/C, where
    2c overflows, read inf."""
    (outcome,) = classify(ClassQuery(n, 1.7e308, C))
    assert outcome.tag == "Empty"
    assert shown in outcome.detail and "inf" not in outcome.detail.replace("infinity", "")


def test_exact_fraction_boundaries():
    # C = 4c exactly, via rationals a float grid would miss
    out = classify(ClassQuery(4, Fraction(1, 3), Fraction(4, 3)))
    assert tags(out) == ["RotationFamily", "TotallyGeodesic"]
    out = classify(ClassQuery(4, Fraction(1, 3), Fraction(2, 3)))
    assert tags(out) == ["Empty"]
    out = classify(ClassQuery(5, Fraction(-2, 7), Fraction(-8, 7)))
    assert tags(out) == ["ConstantCurvature"]


def test_float_boundary_tolerance():
    # within 1e-12 of the boundary counts as on it; 1e-6 off does not
    assert tags(classify(ClassQuery(4, 1.0, 4.0 + 1e-13))) == ["RotationFamily", "TotallyGeodesic"]
    assert tags(classify(ClassQuery(4, 1.0, 4.0 + 1e-6))) == ["RotationFamily", "UmbilicalNonTG"]
    assert tags(classify(ClassQuery(4, 1.0, 4.0 - 1e-6))) == ["RotationFamily"]


SCALES = [1e-13, 1e-6, 1e6, 1e13]


@pytest.mark.parametrize("t", SCALES)
def test_boundary_table_is_scale_invariant(t):
    """Float boundaries sit at the query's own scale: scaling (c, C) by t
    keeps every row of the boundary table on its side."""
    for n, c, C, expected in _truth_table():
        got = frozenset(_signature(o) for o in classify(ClassQuery(n, t * c, t * C)))
        assert got == expected, f"({n}, {t * c}, {t * C}): got {sorted(got)}"


@pytest.mark.parametrize("delta", [1, 0, -1])
def test_the_table_suite_fails_when_classify_drops_an_exponential_delta(monkeypatch, delta):
    """The table tags each rotation outcome with its delta, so a classify
    that lists fewer exponential outcomes than its docstring fails the suite."""
    original = cls.classify

    def dropping(q):
        return [o for o in original(q) if not (o.family == "exponential" and o.profile.ode_delta == delta)]

    monkeypatch.setattr(cls, "classify", dropping)
    with pytest.raises(AssertionError, match=rf"expected \[.*'RotationFamily:exponential:{delta}'"):
        checks.check_classification_table(checks.RunConfig())


@pytest.mark.parametrize(
    "n,c,C,expected",
    [
        (4, 1e-13, 3e-13, ["RotationFamily"]),  # trig, as at (4, 1, 3)
        (5, -1e-13, -2e-13, ["UmbilicalNonTG"]),  # as at (5, -1, -2)
        (4, 1e-13, 1.5e-13, ["Empty"]),  # C < 2c, as at (4, 1, 1.5)
    ],
)
def test_small_scale_queries_take_their_branch(n, c, C, expected):
    assert tags(classify(ClassQuery(n, c, C))) == expected


def test_nonexistence_at_small_scale():
    ev = nonexistence_witness(ClassQuery(4, 1e-13, 1.5e-13))
    assert ev.mechanism == "positive-bound-at-origin"
    assert ev.failure is not None and ev.failure.s == 0.0


@pytest.mark.parametrize("t", SCALES)
def test_minimal_clifford_at_every_scale(t):
    assert minimal_classify(4, t, 8.0 * t / 3.0).kind is MinimalKind.CLIFFORD
    assert minimal_classify(4, t, 4.0 * t).kind is MinimalKind.TOTALLY_GEODESIC


def empty_expected(n, c, C):
    if n >= 5:
        return C < 4 * c
    if c == 0:
        return C < 0
    if c > 0:
        return C <= 2 * c
    return C < 4 * c


def test_exhaustive_grid_matches_empty_predicate():
    """~10^4 queries: classify never crashes and Empty hits exactly the
    excluded parameter region."""
    count = 0
    for n in (4, 5, 6):
        for c in np.linspace(-2.0, 2.0, 58):
            for C in np.linspace(-10.0, 10.0, 58):
                out = classify(ClassQuery(n, float(c), float(C)))
                assert out, f"no outcomes for ({n}, {c}, {C})"
                got_empty = out[0].tag == EMPTY
                assert got_empty == empty_expected(n, float(c), float(C)), (n, c, C)
                if got_empty:
                    assert out[0].reason
                count += 1
    assert count == 3 * 58 * 58


# ---------------------------------------------------------------------------
# witnesses


def test_witness_examples():
    q = ClassQuery(4, 1, 3)
    w = witness(classify(q)[0], q)
    assert isinstance(w, TrigProfile)
    assert (w.C, w.alpha) == (3.0, 0.25)

    q = ClassQuery(4, 0, 0)
    w = witness(classify(q)[1], q)
    assert isinstance(w, ParabolicProfile) and w.beta == 1.0

    q = ClassQuery(4, -1, -4)
    w = witness(classify(q)[1], q)
    assert isinstance(w, ExponentialProfile)
    assert (w.C, w.A, w.B, w.delta) == (-4.0, 1.0, 1.0, 1)

    q = ClassQuery(4, -1, 0)
    w = witness(classify(q)[1], q)
    assert isinstance(w, QuadraticProfile) and (w.A, w.B) == (0.0, 1.0)


def test_witness_symbolic_for_non_rotation():
    q = ClassQuery(5, 1, 4)
    assert witness(classify(q)[0], q) == "TotallyGeodesic"


@pytest.mark.parametrize("n,c,C,expected", _truth_table())
def test_outcomes_carry_their_profile_and_obstruction(n, c, C, expected):
    """Rotation outcomes carry their witness, Empty outcomes their obstruction
    and, at n = 4, a candidate; witness hands out exactly that profile."""
    q = ClassQuery(n, c, C)
    for o in classify(q):
        if o.tag == ROTATION_FAMILY:
            assert o.profile is not None and witness(o, q) is o.profile
        elif o.tag == EMPTY:
            assert o.mechanism and o.detail
            assert (o.profile is None) == (n >= 5)
        else:
            assert o.profile is None and witness(o, q) == o.tag


@pytest.mark.parametrize(
    "c,C,tag",
    [
        (-1.0, -4.0000000000004, "ConstantCurvature"),
        (-1.0, -3.9999999999996, "ConstantCurvature"),
        (1.0, 4.0000000000004, "TotallyGeodesic"),
        (1.0, 3.9999999999996, "TotallyGeodesic"),
    ],
)
def test_tolerance_matched_boundary_takes_c_equal_4c(c, C, tag):
    """A float C within the boundary tolerance of 4c is the boundary: the
    rotation outcomes (one per delta when c < 0) and their witnesses take
    C = 4c exactly, and verify."""
    q = ClassQuery(4, c, C)
    outcomes = classify(q)
    assert tags(outcomes) == sorted([tag] + ["RotationFamily"] * (3 if c < 0 else 1))
    for o in outcomes[1:]:
        assert o.profile.C == 4.0 * c and o.to_json()["ode_constant"] == 4.0 * c
        samples, deviation = cic_along_profile(o.profile, AmbientSpec(c=c, delta=o.profile.ode_delta))
        assert deviation <= 1e-8
        assert abs(sum(p.cic for p in samples) / len(samples) - 4.0 * c) <= 1e-8


@pytest.mark.parametrize(
    "n,c,C",
    [
        (4, 1.0, 3.0),
        (4, 1.0, 4.0),
        (4, 1.0, 7.0),
        (4, 0.0, 0.0),
        (4, 0.0, 2.5),
        (4, -0.25, -1.0),
        (4, -1.0, -2.0),
        (4, -1.0, 0.0),
        (4, -1.0, 1.0),
    ],
)
def test_witness_soundness(n, c, C):
    """Every rotation witness is domain-valid and holds its constant."""
    q = ClassQuery(n, c, C)
    for o in classify(q):
        if o.tag != ROTATION_FAMILY:
            continue
        fam = witness(o, q)
        ambient = AmbientSpec(c=c, delta=fam.ode_delta)
        assert domain_check(fam, ambient) is None
        samples, deviation = cic_along_profile(fam, ambient)
        mean = sum(p.cic for p in samples) / len(samples)
        assert deviation <= 1e-8
        assert abs(mean - C) <= 1e-8


def _boundary_witness_verifies(c):
    q = ClassQuery(4, c, 4 * c)
    o = next(o for o in classify(q) if o.tag == ROTATION_FAMILY)
    fam = witness(o, q)
    ambient = AmbientSpec(c=float(c), delta=fam.ode_delta)
    assert domain_check(fam, ambient) is None
    samples, deviation = cic_along_profile(fam, ambient)
    mean = sum(p.cic for p in samples) / len(samples)
    assert deviation <= 1e-8
    assert abs(mean - 4.0 * float(c)) <= 1e-8


def test_witness_soundness_deep_hyperbolic_boundary_constant():
    """At C = 4c the witness's curvature radicand decays like e^(-2a|s|)
    (a = sqrt(-C)); for c = -1 it falls below the rounding of the direct
    form delta - c*x^2 - x'^2 near |s| ~ 9.6.  The first-integral radicand
    keeps the witness valid on the whole default window."""
    _boundary_witness_verifies(-1)


@pytest.mark.parametrize("c", [Fraction(-9, 10), Fraction(-5, 4), -2])
def test_boundary_witnesses_verify_deeper_in(c):
    _boundary_witness_verifies(c)


# ---------------------------------------------------------------------------
# the converse: a member is complete exactly when its parameter is listed

END_BAND = 1e-3  # draws this close to an interval's end are skipped: the grid cannot tell there


def _listed(outcomes, family, delta=1):
    """The interval classify lists for (family, delta), or None."""
    found = [o.interval for o in outcomes if o.family == family and o.profile.ode_delta == delta]
    assert len(found) <= 1
    return found[0] if found else None


def _contains(interval, x):
    above = x > interval.lo or (x == interval.lo and not interval.lo_open)
    return above and (interval.hi is None or x < interval.hi)


def _near_an_end(interval, x):
    ends = [interval.lo] + ([] if interval.hi is None else [interval.hi])
    return any(abs(x - end) < END_BAND for end in ends)


def _complete(build, c, delta):
    """The member passes domain_check on 4,001 points of +-12/sqrt(|C|); one with
    u_min <= 0 is rejected by its constructor and counts as incomplete."""
    try:
        fam = build()
    except ValueError:
        return False
    half = 12.0 / math.sqrt(abs(fam.ode_constant))
    return domain_check(fam, AmbientSpec(c, delta), (-half, half), 4001) is None


@settings(max_examples=300, deadline=None)
@given(
    c=st.floats(-2.0, -0.1),
    ratio=st.one_of(st.just(4.0), st.floats(0.05, 4.0)),
    delta=st.sampled_from([1, 0, -1]),
    g=st.floats(0.0, 3.0),
    shift=st.floats(-10.0, 10.0),
)
def test_exponential_member_is_complete_iff_its_g_is_listed(c, ratio, delta, g, shift):
    """C = ratio*c in [4c, 0); A/B = e^shift moves the profile's minimum by
    -shift/(2*sqrt(-C)) without changing g = 2*sqrt(AB)."""
    C = ratio * c
    interval = _listed(classify(ClassQuery(4, c, C)), "exponential", delta)
    assert interval is not None
    if _near_an_end(interval, g):
        return
    a, b = 0.5 * g * math.exp(shift / 2.0), 0.5 * g * math.exp(-shift / 2.0)
    complete = _complete(lambda: ExponentialProfile(C=C, A=a, B=b, delta=delta), c, delta)
    assert complete == _contains(interval, g), (c, C, delta, g, interval)


@settings(max_examples=300, deadline=None)
@given(
    c=st.one_of(st.just(0.0), st.floats(-1.0, -0.05), st.floats(0.05, 2.0)),
    ratio=st.floats(2.0 + 1e-3, 6.0),
    alpha=st.floats(0.0, 1.2),
)
def test_trig_member_is_complete_iff_its_alpha_is_listed(c, ratio, alpha):
    """C above 2c (or any C > 0 when c <= 0): the members with alpha past the
    listed end fail somewhere, the listed ones nowhere."""
    C = ratio * c if c > 0 else ratio - 2.0
    interval = _listed(classify(ClassQuery(4, c, C)), "trig")
    assert interval is not None
    if _near_an_end(interval, alpha):
        return
    complete = _complete(lambda: TrigProfile(C=C, alpha=alpha), c, 1)
    assert complete == _contains(interval, alpha), (c, C, alpha, interval)


# ---------------------------------------------------------------------------
# nonexistence evidence


def test_nonexistence_spherical_low_constant():
    ev = nonexistence_witness(ClassQuery(4, 1, 1.5))
    assert ev.mechanism == "positive-bound-at-origin"
    assert isinstance(ev.candidate, TrigProfile)
    assert ev.failure.s == 0.0
    assert "2c/C" in ev.detail


def test_nonexistence_flat_negative_constant():
    ev = nonexistence_witness(ClassQuery(4, 0, -1))
    assert ev.mechanism == "unit-speed"
    assert isinstance(ev.candidate, ExponentialProfile)
    assert 0.0 < ev.failure.s <= 10.0


def test_nonexistence_hyperbolic_below_4c():
    ev = nonexistence_witness(ClassQuery(4, -1, -5))
    assert ev.mechanism == "asymptotic-negative"
    assert 0.0 < ev.failure.s <= 10.0
    assert "-c + C/4" in ev.detail


EMPTY_N4_ROWS = [(c, C) for n, c, C, expected in _truth_table() if n == 4 and expected == {"Empty"}]


@pytest.mark.parametrize("t", [1e-13, 1e-6, 1.0, 1e6, 1e13])
@pytest.mark.parametrize("c,C", EMPTY_N4_ROWS)
def test_nonexistence_window_scales_with_the_query(c, C, t):
    """The default window is 20 / sqrt(max(|c|, |C|)); every n = 4 Empty
    row fails inside it at every scale, without a float warning."""
    assert len(EMPTY_N4_ROWS) == 5
    q = ClassQuery(4, c * t, C * t)
    ev = nonexistence_witness(q)
    length = 1.0 / math.sqrt(max(abs(c), abs(C)) * t)
    assert ev.failure is not None and 0.0 <= ev.failure.s <= 8.2 * length
    assert ev.mechanism == nonexistence_witness(ClassQuery(4, c, C)).mechanism


def test_nonexistence_far_failure_and_large_scale():
    # the flat unit-speed failure of C = -1e-6 sits at s ~ 840, outside [0, 10]
    ev = nonexistence_witness(ClassQuery(4, 0.0, -1e-6))
    assert ev.mechanism == "unit-speed" and 830.0 < ev.failure.s < 850.0
    # at |C| ~ 4e13 the old window [0, 10] overflowed the exponential
    ev = nonexistence_witness(ClassQuery(4, -1e13, -4.000001e13))
    assert ev.mechanism == "asymptotic-negative" and 0.0 < ev.failure.s < 2e-6


def test_nonexistence_explicit_window_is_honoured():
    ev = nonexistence_witness(ClassQuery(4, -1, -5), s_max=1.0, grid_n=101)
    assert ev.failure.s == pytest.approx(0.69, abs=0.011)
    with pytest.raises(AssertionError, match="unexpectedly valid"):
        nonexistence_witness(ClassQuery(4, 0.0, -1e-6), s_max=10.0)


@pytest.mark.parametrize(
    "C,mechanism,kind",
    [(0, "unbounded-growth", ParabolicProfile), (-1, "unit-speed", ExponentialProfile)],
)
def test_nonexistence_spherical_nonpositive_constant(C, mechanism, kind):
    ev = nonexistence_witness(ClassQuery(4, 1, C))
    assert ev.mechanism == mechanism and isinstance(ev.candidate, kind)
    assert ev.failure.s == 0.0


EVIDENCE = json.loads((Path(__file__).parent / "data" / "nonexistence_evidence.json").read_text())


def test_nonexistence_evidence_matches_the_record():
    """Over the Empty rows of the check table at five scales t, the
    mechanism, detail, candidate type and failure point and reason are the
    recorded ones (recorded before classify carried its obstructions; the
    details of the spherical unit-speed rows were since corrected to their
    failure at s = 0)."""
    rows = {(n, c, C) for n, c, C, expected in _truth_table() if expected == {"Empty"}}
    assert {(n, c, C) for n, c, C, *_ in EVIDENCE} == rows
    assert len(EVIDENCE) == 5 * len(rows) == 90
    for n, c, C, t, mechanism, detail, kind, failure in EVIDENCE:
        ev = nonexistence_witness(ClassQuery(n, t * c, t * C))
        got_failure = None if ev.failure is None else [ev.failure.s, ev.failure.reason]
        got = (ev.mechanism, ev.detail, type(ev.candidate).__name__, got_failure)
        assert got == (mechanism, detail, kind or "NoneType", failure), (n, c, C, t)


def _corpus_grid():
    """Exact queries on and beside every boundary: n in {4, 5, 6}, five c,
    and for each c the C in {-5, -2, -1, 0, 1, 3}, 8c/3, and 2c and 4c with
    1/7 either side."""
    k = Fraction(1, 7)
    for n in (4, 5, 6):
        for c in map(Fraction, ("-1", "-1/3", "0", "1/3", "1")):
            Cs = set(map(Fraction, (-5, -2, -1, 0, 1, 3)))
            Cs |= {2 * c - k, 2 * c, 2 * c + k, 8 * c / 3, 4 * c - k, 4 * c, 4 * c + k}
            yield from ((n, c, C) for C in sorted(Cs))


CORPUS = json.loads((Path(__file__).parent / "data" / "classify_corpus.json").read_text())


def test_classify_matches_the_corpus():
    """Over the exact grid, classify's JSON, each outcome's profile and the
    Empty mechanism and detail are byte-identical to the record.  Recorded
    before classify was one umbilical part plus one n = 4 rotation family;
    11 rows changed then: the 8 trig ranges with 2c < C < 4c in a
    spherical ambient now include alpha = 0, and the 3 rows n = 4, c = 0,
    C > 0 list no TotallyGeodesic outcome (nor its profile entry).  The 37
    rows with a rotation outcome changed when each took one parameter: its
    int "delta" replaced "deltas", the 14 exponential outcomes split into
    one per delta over g = 2*sqrt(AB) (with their witnesses), and the 2
    quadratic ones read u_min in place of B, A and a condition.  The row
    (4, 1/3, 0) changed when the flat-C obstruction for 0 < c < 1 named
    where the candidate fails, |s| = sqrt(1/sqrt(c) - 1), in place of
    "for large |s|"."""
    assert [(n, Fraction(c), Fraction(C)) for n, c, C, *_ in CORPUS] == list(_corpus_grid())
    assert len(CORPUS) == 177
    for row in CORPUS:
        n, c, C = row[0], Fraction(row[1]), Fraction(row[2])
        q = ClassQuery(n, c, C)
        outcomes = classify(q)
        empty = outcomes[0] if outcomes[0].tag == EMPTY else None
        got = [
            row[0], row[1], row[2], query_to_json(q, outcomes),
            [None if o.profile is None else repr(o.profile) for o in outcomes],
            empty and empty.mechanism, empty and empty.detail,
        ]
        assert json.dumps(got) == json.dumps(row), (n, c, C)


def test_recorded_details_name_s0_exactly_when_the_failure_is_there():
    for n, c, C, t, mechanism, detail, kind, failure in EVIDENCE:
        assert ("s = 0" in detail) == (failure is not None and failure[0] == 0.0), (n, c, C, t)


@pytest.mark.parametrize(
    "c,C,bound",
    [(1, -1, "c*x(0)^2 = 2c/|C| = 2.000000 >= 1"), (1, 0, "c*x(0)^2 = c = 1.000000 >= 1"),
     (1, -2, "c*x(0)^2 = 2c/|C| = 1.000000 >= 1"), (3, Fraction(-1, 2), "c*x(0)^2 = 2c/|C| = 12.000000 >= 1")],
)
def test_spherical_candidates_failing_at_the_origin_say_so(c, C, bound):
    ev = nonexistence_witness(ClassQuery(4, c, C))
    assert ev.failure.s == 0.0
    assert bound in ev.detail and "already at s = 0" in ev.detail


# classify's accounts of a failure away from s = 0: the unit-speed slope, and
# the flat-C candidate's point where c*(s^2 + 1)^2 = 1 (test_derivations derives it)
AWAY_FROM_ORIGIN = ("moderate |s|", "reaches 1 where c*(s^2 + 1)^2 = 1, at |s| = ")


@pytest.mark.parametrize("c,C", [(0, -1), (1, -3), (1, -2.5), (Fraction(1, 2), 0)])
def test_candidates_failing_away_from_the_origin_keep_their_account(c, C):
    ev = nonexistence_witness(ClassQuery(4, c, C))
    assert ev.failure.s > 0.0
    assert "s = 0" not in ev.detail
    assert any(account in ev.detail for account in AWAY_FROM_ORIGIN)


@pytest.mark.parametrize(
    "c,C,threshold",
    [(0.9999999999, 0, "1.000000e-10 <= 1.000000e-09"), (0.5, -1.0000000001, "1.000000e-10 <= 1.500000e-09")],
)
def test_candidates_failing_at_the_origin_within_tolerance_say_so(c, C, threshold):
    """Just inside the exact bound (c < 1, 2c < |C|) classify's detail
    accounts for a failure further out, but the radicand at s = 0 is already
    below its threshold; the evidence's detail names s = 0 and both numbers."""
    assert "s = 0" not in classify(ClassQuery(4, c, C))[0].detail
    ev = nonexistence_witness(ClassQuery(4, c, C))
    assert ev.failure.s == 0.0
    assert "already at s = 0" in ev.detail and threshold in ev.detail
    assert not any(account in ev.detail for account in AWAY_FROM_ORIGIN)


def test_nonexistence_high_dimension_is_algebraic():
    ev = nonexistence_witness(ClassQuery(6, 1, 0))
    assert ev.mechanism == "algebraic"
    assert ev.candidate is None and ev.failure is None


def test_nonexistence_rejects_nonempty_queries():
    with pytest.raises(ValueError, match="non-empty"):
        nonexistence_witness(ClassQuery(4, 1, 3))


# ---------------------------------------------------------------------------
# serialization and cross-checks


def test_query_to_json_schema():
    q = ClassQuery(4, 1, 3)
    payload = query_to_json(q, classify(q))
    assert payload["query"] == {"n": 4, "c": 1.0, "C": 3.0}
    (entry,) = payload["outcomes"]
    assert entry["tag"] == "RotationFamily"
    assert entry["family"] == "trig"
    assert entry["constraints"]["alpha"] == {
        "lo": 0.0,
        "lo_open": False,
        "hi": 0.5,
        "hi_open": True,
    }


def test_interval_rejects_empty_range():
    with pytest.raises(ValueError):
        Interval(1.0, 0.5)


def test_outcome_json_reason_for_empty():
    q = ClassQuery(4, 1, 0.5)
    entry = query_to_json(q, classify(q))["outcomes"][0]
    assert entry["tag"] == "Empty"
    assert "2c" in entry["reason"]


@pytest.mark.parametrize("c", [0.25, 0.75, 1.0, 2.0])
def test_minimal_crosscheck_with_classification(c):
    """The Clifford verdict appears exactly where the classified rotation
    family contains a minimal constant-profile member."""
    C = 8.0 * c / 3.0
    verdict = minimal_classify(4, c, C)
    assert verdict.kind is MinimalKind.CLIFFORD

    out = classify(ClassQuery(4, c, C))
    rotation = [o for o in out if o.tag == ROTATION_FAMILY]
    assert len(rotation) == 1 and rotation[0].family == "trig"
    # the Clifford product S^3 x S^1 is that family's alpha = 0 member
    alpha = rotation[0].interval
    assert alpha.lo == 0.0 and alpha.lo_open is False
    assert domain_check(TrigProfile(C=C, alpha=0.0), AmbientSpec(c=c)) is None

    # the constant-profile member of that family sits at x0 = sqrt(3/(4c))
    x0 = math.sqrt(3.0 / (4.0 * c))
    assert x0 == pytest.approx(math.sqrt(2.0 / C), abs=1e-14)
    lam, mu = principal_curvatures(AmbientSpec(c=c, delta=1), x0, 0.0, 0.0)
    assert abs(3.0 * lam + mu) <= 1e-12  # minimal
    assert lam == pytest.approx(verdict.lam, abs=1e-13)
    assert mu == pytest.approx(verdict.mu, abs=1e-13)


GEODESIC_ROWS = [(4, 1.0, 4.0), (4, -1.0, -4.0), (4, 0.0, 0.0), (5, 1.0, 4.0), (5, -1.0, -4.0), (6, 0.0, 0.0)]


@pytest.mark.parametrize("n,c,C", [row[:3] for row in _truth_table()] + GEODESIC_ROWS)
def test_every_outcome_has_a_gauss_tensor_of_isotropic_constant_C(n, c, C):
    """Each listed hypersurface's Gauss tensor probes constant at C, to
    1e-12 of max(|c|, lam_i^2): the zero shape operator for TotallyGeodesic, ConstantCurvature and
    FlatLocal, (-sqrt(lambda^2),)*n for Umbilical, and (lam, lam, lam, mu)
    at 7 grid points of a rotation witness.  The minimal analysis is
    totally geodesic exactly where one of the first three is listed."""
    outcomes = classify(ClassQuery(n, c, C))
    spectra = []
    for o in outcomes:
        if o.tag in (TOTALLY_GEODESIC, CONSTANT_CURVATURE, FLAT_LOCAL):
            spectra.append((o.tag, (0.0,) * n))
        elif o.tag == UMBILICAL:
            spectra.append((o.tag, (-math.sqrt(o.lambda_sq),) * n))
        elif o.tag == ROTATION_FAMILY:
            ambient = AmbientSpec(c=c, delta=o.profile.ode_delta)
            for _, _, _, _, lam, mu, _ in profile_columns(o.profile, ambient, grid_n=7):
                spectra += [(o.family, (l,) * 3 + (m,)) for l, m in zip(lam.tolist(), mu.tolist())]
    for what, lams in spectra:
        report = cic_probe(build_from_shape(c, lams))
        assert report.is_constant, (what, lams)
        scale = max(abs(c), max(lam * lam for lam in lams))  # the Gauss equation's terms
        assert abs(report.mean - C) <= 1e-12 * scale, (what, lams, report.mean)
    geodesic = any(o.tag in (TOTALLY_GEODESIC, CONSTANT_CURVATURE, FLAT_LOCAL) for o in outcomes)
    assert (minimal_classify(n, c, C).kind is MinimalKind.TOTALLY_GEODESIC) == geodesic


def test_minimal_and_classify_compare_exact_boundaries_alike():
    """Exact C just above 4c: no geodesic (nor any minimal) hypersurface."""
    c, C = Fraction(1, 3), Fraction(4, 3) + Fraction(1, 10**15)
    assert tags(classify(ClassQuery(4, c, C))) == ["RotationFamily", "UmbilicalNonTG"]
    assert minimal_classify(4, c, C).kind is MinimalKind.NONE
    assert minimal_classify(4, c, 4 * c).kind is MinimalKind.TOTALLY_GEODESIC


@pytest.mark.parametrize("c,C", [(1.0, 3.0), (1.0, 3.5), (0.5, 1.8)])
def test_minimal_crosscheck_negative_cases(c, C):
    """Rotation families away from C = 8c/3 have no minimal member."""
    assert minimal_classify(4, c, C).kind is MinimalKind.NONE
    x0 = math.sqrt(2.0 / C)  # constant-profile member of the family
    lam, mu = principal_curvatures(AmbientSpec(c=c, delta=1), x0, 0.0, 0.0)
    assert abs(3.0 * lam + mu) > 1e-3
