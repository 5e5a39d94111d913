import functools
import gc
import io
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocurv import checks
from isocurv import profiles as pf
from isocurv.profiles import (
    BLOCK,
    AmbientSpec,
    DomainBreakdown,
    ExponentialProfile,
    ParabolicProfile,
    QuadraticProfile,
    TrigProfile,
    cic_along_profile,
    cic_mean_deviation,
    domain_check,
    ode_residual,
    profile_columns,
    write_profile_csv,
)
import oracles
from oracles import principal_curvatures, profile_ode_per_family, suite_outcome

FLAT = AmbientSpec(c=0.0, delta=1)

# one valid member of each family, by field; test_family_invariants_enforced_at_construction
# makes each field non-finite in turn
VALID_FIELDS = [
    (TrigProfile, {"C": 2.0, "alpha": 0.5}),
    (ParabolicProfile, {"beta": 1.0}),
    (ExponentialProfile, {"C": -1.0, "A": 1.0, "B": 1.0, "delta": 1}),
    (QuadraticProfile, {"A": 0.0, "B": 1.0}),
]

FAMILY_GRID = [
    (TrigProfile(C=2.0, alpha=0.0), 2.0, 1),
    (TrigProfile(C=2.0, alpha=0.5), 2.0, 1),
    (TrigProfile(C=0.3, alpha=0.85), 0.3, 1),
    (TrigProfile(C=5.0, alpha=0.3), 5.0, 1),
    (ParabolicProfile(beta=0.5), 0.0, 1),
    (ParabolicProfile(beta=1.0), 0.0, 1),
    (ParabolicProfile(beta=4.0), 0.0, 1),
    (ExponentialProfile(C=-1.0, A=1.0, B=1.0, delta=1), -1.0, 1),
    (ExponentialProfile(C=-2.5, A=0.7, B=1.4, delta=0), -2.5, 0),
    (ExponentialProfile(C=-0.5, A=1.2, B=0.9, delta=-1), -0.5, -1),
    (QuadraticProfile(A=0.0, B=1.0), 0.0, 1),
    (QuadraticProfile(A=1.5, B=2.0), 0.0, 1),
]


@st.composite
def _family_and_ambient(draw):
    kind = draw(st.sampled_from(["trig", "parabolic", "exponential", "quadratic"]))
    unit = st.floats(0.0, 1.0)
    if kind == "trig":
        fam = TrigProfile(C=0.2 + 4.8 * draw(unit), alpha=0.9 * draw(unit))
    elif kind == "parabolic":
        fam = ParabolicProfile(beta=0.3 + 3.7 * draw(unit))
    elif kind == "exponential":
        fam = ExponentialProfile(
            C=-0.2 - 2.8 * draw(unit), A=0.6 + 1.4 * draw(unit), B=0.6 + 1.4 * draw(unit),
            delta=draw(st.sampled_from([-1, 0, 1])),
        )
    else:
        b = 0.5 + 2.5 * draw(unit)
        fam = QuadraticProfile(A=(1.6 * draw(unit) - 0.8) * 2.0 * math.sqrt(b), B=b)
    c = 4.0 * draw(unit) - 2.0
    delta = draw(st.sampled_from([-1, 0, 1])) if c < 0 else 1
    return fam, AmbientSpec(c, delta)


# ---------------------------------------------------------------------------
# family evaluation


def test_eval_examples():
    assert TrigProfile(C=2.0, alpha=0.0).eval(0.7) == (1.0, -0.0, 0.0)
    assert ParabolicProfile(beta=1.0).eval(0.0) == (1.0, 0.0, 1.0)
    x, xp, _ = ExponentialProfile(C=-1.0, A=1.0, B=1.0, delta=1).eval(0.0)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert xp == 0.0


def test_quadratic_eval():
    x, xp, xpp = QuadraticProfile(A=2.0, B=2.0).eval(0.0)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert xp == pytest.approx(2.0 / (2.0 * math.sqrt(2.0)), abs=1e-15)
    assert xpp == pytest.approx((4 * 2.0 - 4.0) / (4.0 * 2.0 ** 1.5), abs=1e-15)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TrigProfile(C=2.0, alpha=1.0),
        lambda: TrigProfile(C=2.0, alpha=-0.1),
        lambda: TrigProfile(C=0.0, alpha=0.5),
        lambda: ParabolicProfile(beta=0.0),
        lambda: ExponentialProfile(C=1.0, A=1.0, B=1.0, delta=1),
        lambda: ExponentialProfile(C=-1.0, A=1.0, B=0.1, delta=1),  # 4AB <= 1
        lambda: ExponentialProfile(C=-1.0, A=-0.5, B=1.0, delta=0),
        lambda: QuadraticProfile(A=0.0, B=-1.0),
        lambda: QuadraticProfile(A=3.0, B=1.0),  # A^2/(4B) >= 1
        lambda: ExponentialProfile(C=-1.0, A=0.5, B=0.5, delta=1),  # on the boundaries u_min = 0
        lambda: ExponentialProfile(C=-1.0, A=0.0, B=3.0, delta=0),
        lambda: QuadraticProfile(A=2.0, B=1.0),
        lambda: TrigProfile(C=2.0, alpha=1.0 + 2.0**-52),
        *(
            pytest.param(functools.partial(cls, **{**fields, name: bad}), id=f"{cls.__name__}-{name}={bad}")
            for cls, fields in VALID_FIELDS
            for name in fields
            for bad in (math.nan, math.inf, -math.inf)
        ),
    ],
)
def test_family_invariants_enforced_at_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "cls,fields,u_min",
    [
        (TrigProfile, {"C": 2.0, "alpha": 0.5}, 0.5),
        (ParabolicProfile, {"beta": 0.25}, 0.25),
        (QuadraticProfile, {"A": 1.0, "B": 0.5}, 0.25),
        (ExponentialProfile, {"C": -1.0, "A": 1.0, "B": 1.0, "delta": 1}, 2.0),
        (ExponentialProfile, {"C": -2.0, "A": 0.25, "B": 1.0, "delta": 0}, 1.0),
        (ExponentialProfile, {"C": -1.0, "A": 0.0, "B": 0.0, "delta": -1}, 2.0),
        (ExponentialProfile, {"C": -4.0, "A": 1.0, "B": 0.0, "delta": -1}, 0.5),
    ],
)
def test_u_min_is_the_infimum_of_u(cls, fields, u_min):
    """u_min is exact here, and no grid point falls below it; where A or B
    is 0 the exponential's infimum is approached as s -> +-inf."""
    fam = cls(**fields)
    assert fam.u_min == u_min
    u = fam.u(np.linspace(-20.0, 20.0, 4001))[0]
    assert u.min() >= u_min and u.min() <= u_min * (1.0 + 1e-6)


def test_constant_tube_has_constant_mean_curvature():
    """The delta = -1 tube A = B = 0 at (c, C) = (-1, -1) is isoparametric:
    lambda = -1/sqrt(2) and mu = -sqrt(2) on the whole grid, so its mean
    curvature H = 3*lambda + mu = -5/sqrt(2) = -3.5355 is constant."""
    tube = ExponentialProfile(C=-1.0, A=0.0, B=0.0, delta=-1)
    _, _, _, _, lam, mu, cic = map(np.concatenate, zip(*profile_columns(tube, AmbientSpec(-1.0, -1))))
    assert len(cic) == 2001
    np.testing.assert_allclose(lam, -1.0 / math.sqrt(2.0), rtol=1e-12)
    np.testing.assert_allclose(mu, -math.sqrt(2.0), rtol=1e-12)
    np.testing.assert_allclose(3.0 * lam + mu, -5.0 / math.sqrt(2.0), rtol=1e-12)
    np.testing.assert_allclose(cic, -1.0, rtol=1e-12)
    assert -5.0 / math.sqrt(2.0) == pytest.approx(-3.5355, abs=1e-4)


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_analytic_derivatives_match_central_differences(fam, C, delta):
    rng = np.random.default_rng(5)
    h = 1e-5
    for s in rng.uniform(-8.0, 8.0, size=100):
        x, xp, xpp = fam.eval(s)
        xp_fd = (fam.eval(s + h)[0] - fam.eval(s - h)[0]) / (2 * h)
        xpp_fd = (fam.eval(s + h)[1] - fam.eval(s - h)[1]) / (2 * h)
        assert abs(xp - xp_fd) <= 1e-7 * max(1.0, abs(xp))
        assert abs(xpp - xpp_fd) <= 1e-7 * max(1.0, abs(xpp))


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_profiles_stay_positive(fam, C, delta):
    for s in np.linspace(-10, 10, 101):
        assert fam.eval(s)[0] > 0.0


# ---------------------------------------------------------------------------
# principal curvatures


def test_principal_curvature_examples():
    assert principal_curvatures(FLAT, 1.0, 0.0, 1.0) == (-1.0, 1.0)
    assert principal_curvatures(AmbientSpec(0.75, 1), 1.0, 0.0, 0.0) == (-0.5, 1.5)
    assert principal_curvatures(FLAT, 1.0, 0.0, 0.0) == (-1.0, 0.0)


def test_principal_curvature_domain_breakdown():
    with pytest.raises(DomainBreakdown) as info:
        principal_curvatures(AmbientSpec(2.0, 1), 1.0, 0.0, 0.0, s=3.25)
    assert info.value.s == 3.25
    assert info.value.value == pytest.approx(-1.0, abs=1e-15)


def test_principal_curvature_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        principal_curvatures(FLAT, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID[:8])
def test_lambda_is_nonpositive_along_valid_profiles(fam, C, delta):
    ambient = AmbientSpec(c=0.0 if delta == 1 else -1.0, delta=delta)
    if domain_check(fam, ambient, (-5, 5), 201) is not None:
        pytest.skip("family not valid in this ambient")
    samples, _ = cic_along_profile(fam, ambient, (-5, 5), 201)
    assert all(p.lam <= 0.0 for p in samples)


def test_ambient_spec_validation():
    with pytest.raises(ValueError):
        AmbientSpec(c=1.0, delta=0)
    with pytest.raises(ValueError):
        AmbientSpec(c=0.0, delta=-1)
    with pytest.raises(ValueError):
        AmbientSpec(c=-1.0, delta=2)
    with pytest.raises(ValueError, match="must be finite, got nan"):
        AmbientSpec(c=math.nan)
    assert AmbientSpec(c=-1.0, delta=-1).delta == -1


# ---------------------------------------------------------------------------
# the profile equation


def residual(fam, C, delta, s, h=1e-4):
    """ode_residual of fam's u evaluated on the stacked points (s - h, s, s + h)."""
    return ode_residual(C, delta, fam.u(np.array((s - h, s, s + h))), h)


def test_ode_residual_parabolic_is_exact():
    # x*x' = s exactly, so the central difference is exact too
    fam = ParabolicProfile(beta=1.0)
    for s in (-3.0, 0.0, 0.7, 5.0):
        assert residual(fam, 0.0, 1, s) <= 1e-11


def test_ode_residual_closed_forms():
    assert residual(TrigProfile(C=2.0, alpha=0.5), 2.0, 1, 1.0) < 1e-6
    assert residual(ExponentialProfile(C=-1.0, A=1.0, B=1.0, delta=1), -1.0, 1, 2.0) < 1e-6


def test_ode_residual_detects_wrong_constants():
    fam = TrigProfile(C=2.0, alpha=0.5)
    assert residual(fam, 3.0, 1, 1.0) > 1e-2
    assert residual(fam, 2.0, 0, 1.0) > 1e-2


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan])
def test_ode_residual_rejects_a_non_positive_step(h):
    """A nan step meets the finiteness rule first, as at every entry point (tests/test_spectra.py)."""
    with pytest.raises(ValueError, match="^h must be finite, got nan" if math.isnan(h) else "step must be positive"):
        ode_residual(2.0, 1, TrigProfile(C=2.0, alpha=0.5).u(np.array((0.9, 1.0, 1.1))), h)


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_ode_residual_scales_with_h_squared(fam, C, delta):
    h = 1e-4
    rng = np.random.default_rng(17)
    for s in rng.uniform(-3.0, 3.0, size=25):
        x = fam.eval(s)[0]
        scale = max(1.0, abs(C * C * x * x - 2.0 * C * delta))
        assert residual(fam, C, delta, float(s), h) <= 5.0 * h * h * scale


FAMILIES = [TrigProfile, ParabolicProfile, ExponentialProfile, QuadraticProfile]


def _mutate_u(monkeypatch, family, mutate):
    """Replace family.u by mutate(self, u, u', u'') of the closed form."""
    closed = family.u
    monkeypatch.setattr(family, "u", lambda self, s: mutate(self, *closed(self, s)))


@pytest.mark.parametrize("family", FAMILIES)
def test_profile_ode_catches_a_u_prime_off_by_a_thousandth(monkeypatch, family):
    _mutate_u(monkeypatch, family, lambda self, u, up, upp: (u, 1.001 * up, upp))
    with pytest.raises(AssertionError, match=r"u' is off the central difference of u"):
        checks.check_profile_ode(checks.RunConfig())


@pytest.mark.parametrize("family", FAMILIES)
def test_profile_ode_catches_a_u_second_without_its_2_delta(monkeypatch, family):
    _mutate_u(monkeypatch, family, lambda self, u, up, upp: (u, up, upp - 2.0 * self.ode_delta))
    with pytest.raises(AssertionError, match=r"u'' - \(2\*delta - C\*u\) is"):
        checks.check_profile_ode(checks.RunConfig())


@pytest.mark.parametrize("seed", [0, 3, 999])
def test_profile_ode_reads_as_the_per_family_loop(seed):
    config = checks.RunConfig(seed=seed)
    assert suite_outcome(checks.check_profile_ode, config) == (True, profile_ode_per_family(config))


def _scale_outer_slopes(monkeypatch, family, by):
    """Multiply u' by `by` at the outer points of a stacked (s - h, s, s + h)
    evaluation of one family's members, a (3, points) one: of the suite's
    judgements only ode_residual reads those, and the 1-d evaluations of
    the per-family loop's other judgements are left as they are."""
    outer = np.array([[by], [1.0], [by]])
    _mutate_u(monkeypatch, family, lambda self, u, up, upp: (u, up * outer if np.ndim(up) == 2 else up, upp))


@pytest.mark.parametrize("seed", [0, 42])
def test_profile_ode_evaluates_each_family_once(monkeypatch, seed):
    """One u call per family per pass, 50 in all: the residual judges the
    suite's own stacked evaluation and does not evaluate the family again."""
    calls = []
    for family in FAMILIES:
        closed = family.u
        monkeypatch.setattr(family, "u", lambda self, s, closed=closed: calls.append(id(self)) or closed(self, s))
    checks.check_profile_ode(checks.RunConfig(seed=seed))
    assert len(calls) == 50 and len(set(calls)) == 50


MUTATIONS = {
    "u''": (lambda mp, family: _mutate_u(mp, family, lambda self, u, up, upp: (u, up, upp - 2.0 * self.ode_delta)),
            r"u'' - \(2\*delta - C\*u\) is"),
    "u'": (lambda mp, family: _mutate_u(mp, family, lambda self, u, up, upp: (u, 1.001 * up, upp)),
           r"u' is off the central difference of u by"),
    "residual": (lambda mp, family: _scale_outer_slopes(mp, family, 1e6), r"residual .* > 1e-6"),
    "nan residual": (lambda mp, family: _scale_outer_slopes(mp, family, math.nan), r"residual nan > 1e-6"),
}


@pytest.mark.parametrize("seed", [42, 2027])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_mutated_family_fails_profile_ode_as_the_per_family_loop_did(monkeypatch, mutation, family, seed):
    """The stacked judgement raises the per-family loop's message: the
    first family of the mutated kind in draw order, the quantity checked
    first, the same value and the same s."""
    mutate, quantity = MUTATIONS[mutation]
    mutate(monkeypatch, family)
    config = checks.RunConfig(seed=seed)
    passed, detail = suite_outcome(checks.check_profile_ode, config)
    assert not passed and (passed, detail) == suite_outcome(profile_ode_per_family, config)
    assert detail.startswith(f"{family.__name__}(") and re.search(quantity, detail)


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_square_substitution_is_linear(fam, C, delta):
    """u = x^2 obeys u'' = 2*delta - C*u, checked by differencing 2*x*x'."""
    h = 1e-4
    for s in np.linspace(-4.0, 4.0, 41):
        x_lo, v_lo, _ = fam.eval(s - h)
        x_hi, v_hi, _ = fam.eval(s + h)
        upp_fd = (2.0 * x_hi * v_hi - 2.0 * x_lo * v_lo) / (2.0 * h)
        x = fam.eval(s)[0]
        assert abs(upp_fd - (2.0 * delta - C * x * x)) <= 1e-8 * max(1.0, abs(C * x * x))


# ---------------------------------------------------------------------------
# closed-form principal curvatures along families


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.4])
@pytest.mark.parametrize("c,C", [(1.0, 3.0), (1.0, 4.0), (0.5, 2.5), (2.0, 8.5)])
def test_trig_lambda_matches_explicit_formula(c, C, alpha):
    if alpha >= C / (2 * c) - 1 and C < 4 * c:
        pytest.skip("outside the admissible alpha range")
    fam = TrigProfile(C=C, alpha=alpha)
    ambient = AmbientSpec(c=c, delta=1)
    for s in np.linspace(-6.0, 6.0, 25):
        x, xp, xpp = fam.eval(s)
        lam, _ = principal_curvatures(ambient, x, xp, xpp)
        w = 1.0 - alpha * math.sin(math.sqrt(C) * s)
        explicit = -math.sqrt(C * (1 - alpha**2) / (4 * w * w) + C / 4.0 - c)
        assert abs(lam - explicit) <= 1e-9


@pytest.mark.parametrize("delta", [1, 0, -1])
@pytest.mark.parametrize("c,C,A,B", [(-1.0, -2.0, 1.0, 1.0), (-2.0, -5.0, 0.8, 1.3)])
def test_exponential_lambda_matches_explicit_formula(c, C, A, B, delta):
    fam = ExponentialProfile(C=C, A=A, B=B, delta=delta)
    ambient = AmbientSpec(c=c, delta=delta)
    a = math.sqrt(-C)
    for s in np.linspace(-3.0, 3.0, 25):
        x, xp, xpp = fam.eval(s)
        lam, _ = principal_curvatures(ambient, x, xp, xpp)
        w = A * math.exp(a * s) + B * math.exp(-a * s) - delta
        explicit = -math.sqrt(-c + C / 4.0 - (C / 4.0) * (4 * A * B - delta * delta) / (w * w))
        assert abs(lam - explicit) <= 1e-9


# ---------------------------------------------------------------------------
# domain scans and the isotropic value along profiles


def test_domain_check_trig_fails_at_origin_when_too_curved():
    failure = domain_check(TrigProfile(C=1.5, alpha=0.2), AmbientSpec(1.0, 1), (0.0, 10.0), 2001)
    assert failure is not None
    assert failure.s == 0.0
    assert "c*x^2 + x'^2" in failure.reason


def test_domain_check_exponential_unit_speed_failure():
    failure = domain_check(
        ExponentialProfile(C=-1.0, A=1.0, B=1.0, delta=1), FLAT, (0.0, 10.0), 2001
    )
    assert failure is not None
    # |x'| reaches 1 where w = sqrt(3): s = arccosh((sqrt(3)+1)/2) ~ 0.8315
    assert 0.8 < failure.s < 0.9


def test_domain_check_valid_trig():
    assert domain_check(TrigProfile(C=3.0, alpha=0.4), AmbientSpec(1.0, 1)) is None


def test_cic_along_profile_examples():
    _, dev = cic_along_profile(ParabolicProfile(beta=1.0), FLAT)
    assert dev <= 1e-10

    samples, dev = cic_along_profile(TrigProfile(C=2.0, alpha=0.6), FLAT)
    assert dev <= 1e-9
    assert samples[0].cic == pytest.approx(2.0, abs=1e-10)

    samples, dev = cic_along_profile(TrigProfile(C=4.0, alpha=0.5), AmbientSpec(1.0, 1))
    assert dev <= 1e-9
    assert samples[100].cic == pytest.approx(4.0, abs=1e-10)


def _bits(values) -> tuple[str, ...]:
    """The floats as exact hex strings, so -0.0 and 0.0 differ."""
    return tuple(float.hex(float(v)) for v in values)


def _assert_grid_statistic_is_the_loop(fam, ambient, window, grid_n):
    want = oracles.mean_deviation(block[-1] for block in profile_columns(fam, ambient, window, grid_n))
    assert _bits(cic_mean_deviation(fam, ambient, window, grid_n)) == _bits(want)
    assert _bits(cic_along_profile(fam, ambient, window, grid_n)[1:]) == _bits(want[1:])


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_streamed_mean_and_deviation_are_the_two_pass_ones_bitwise(fam, C, delta):
    """max(mean - lo, hi - mean) equals max |cic - mean|, since rounding is
    monotone, and the sum is the oracle's left-to-right float loop."""
    _assert_grid_statistic_is_the_loop(fam, AmbientSpec(-1.0, delta), (-3.0, 3.0), 401)


@pytest.mark.parametrize("grid_n", [4096, 4097, 10_001])
@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_the_carried_total_crosses_block_boundaries_bitwise(fam, C, delta, grid_n):
    """4096 points are one full block, 4097 end in a one-point block and
    10,001 carry the total across two block boundaries."""
    _assert_grid_statistic_is_the_loop(fam, AmbientSpec(-1.0, delta), (-3.0, 3.0), grid_n)


@settings(max_examples=150, deadline=None)
@given(_family_and_ambient(), st.floats(-15.0, 15.0), st.floats(0.01, 30.0), st.integers(2, 9000))
def test_grid_statistic_is_the_float_loop_bitwise(case, lo, width, grid_n):
    """Over families, ambients and windows, cic_mean_deviation and
    cic_along_profile's deviation are the oracle's explicit loop, bitwise;
    a grid that leaves its domain raises in both, and the statistic of the
    valid prefix it yielded is still the loop's."""
    fam, ambient = case
    window = (lo, lo + width)
    cics = []
    try:
        for block in profile_columns(fam, ambient, window, grid_n):
            cics.append(block[-1])
    except DomainBreakdown:
        for stat in (cic_mean_deviation, cic_along_profile):
            with pytest.raises(DomainBreakdown):
                stat(fam, ambient, window, grid_n)
        if cics:
            assert _bits(pf.mean_deviation(cics)) == _bits(oracles.mean_deviation(cics))
        return
    _assert_grid_statistic_is_the_loop(fam, ambient, window, grid_n)


_BLOCKS = st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40).map(np.array),
    min_size=1, max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(_BLOCKS)
def test_mean_deviation_is_the_float_loop_bitwise_on_any_blocks(blocks):
    """Any finite values, of any sizes and signs, and a total that overflows
    to inf, as float addition does, without a warning."""
    assert _bits(pf.mean_deviation(blocks)) == _bits(oracles.mean_deviation(blocks))


@pytest.mark.parametrize(
    "blocks",
    [
        [[2.5]],
        [[-0.0]],
        [[-0.0], [-0.0, -0.0]],
        [[-0.0, 1e-300, -1e-300], [3.0]],
        [[1.0, 1e-16, 1e-16, 1e-16, 1e-16]],  # the carried order: 1 + 1e-16 rounds back to 1 each time
        [[1e16], [1.0], [1.0], [-1e16]],
        [[1e308, 1e308], [-1.0]],
    ],
)
def test_mean_deviation_edge_blocks(blocks):
    """A one-point block, blocks that start with -0.0 (the total starts at
    +0.0, so their mean is +0.0), sums that only the left-to-right order
    gives, and a total that overflows to inf."""
    blocks = [np.array(b, dtype=float) for b in blocks]
    assert _bits(pf.mean_deviation(blocks)) == _bits(oracles.mean_deviation(blocks))


@pytest.mark.parametrize("blocks", [[], [np.array([])], [np.array([1.0]), np.array([])]])
def test_mean_deviation_of_no_values_is_a_value_error(blocks):
    with pytest.raises(ValueError):
        pf.mean_deviation(blocks)


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_each_family_takes_its_first_integral_from_one_scalar(fam, C, delta):
    """All four families: E at the scalar s = 0 is E from u(np.zeros(1)), bitwise."""
    (u0,), (v0,), _ = fam.u(np.zeros(1))
    want = v0 * v0 - 4.0 * fam.ode_delta * u0 + fam.ode_constant * u0 * u0
    assert _bits([pf._first_integral(fam)]) == _bits([want])


def test_column_blocks_give_the_row_statistics_bitwise_across_blocks():
    """10,001 points are three blocks; the carried sum is the one left-to-right
    sum over the rows, and the deviation max |cic - mean| over them."""
    fam, ambient, window, n = TrigProfile(C=2.0, alpha=0.6), FLAT, (-30.0, 30.0), 10_001
    blocks = list(profile_columns(fam, ambient, window, n))
    assert [len(b[0]) for b in blocks] == [BLOCK, BLOCK, n - 2 * BLOCK]
    assert all(len(b) == 7 and all(len(col) == len(b[0]) for col in b) for b in blocks)
    samples, _ = cic_along_profile(fam, ambient, window, n)
    assert [tuple(map(float, row)) for b in blocks for row in zip(*b)] == [
        (p.s, p.x, p.xp, p.xpp, p.lam, p.mu, p.cic) for p in samples
    ]
    mean, deviation = oracles.mean_deviation([[p.cic for p in samples]])
    assert _bits(cic_mean_deviation(fam, ambient, window, n)) == _bits((mean, deviation))
    assert _bits(cic_along_profile(fam, ambient, window, n)[1:]) == _bits((deviation,))


def test_a_failure_in_the_second_block_yields_the_valid_prefix_then_raises():
    """Parabolic beta = 1 in ambient c = 0.01 reaches delta = c x^2 + x'^2 at s = 3:
    grid index 6000 of 10,001 on [0, 5], inside the second block."""
    fam, ambient, window, n = ParabolicProfile(beta=1.0), AmbientSpec(0.01, 1), (0.0, 5.0), 10_001
    blocks = profile_columns(fam, ambient, window, n)
    first, second = next(blocks), next(blocks)
    assert len(first[0]) == BLOCK and len(second[0]) == 6000 - BLOCK
    assert second[0][-1] < 3.0
    with pytest.raises(DomainBreakdown) as info:
        next(blocks)
    assert info.value.s == 3.0
    with pytest.raises(DomainBreakdown):
        cic_mean_deviation(fam, ambient, window, n)
    buf = io.StringIO()
    with pytest.raises(DomainBreakdown):
        write_profile_csv(profile_columns(fam, ambient, window, n), buf)
    rows = buf.getvalue().splitlines()[1:]
    assert len(rows) == 6000 and float(rows[-1].split(",")[0]) == second[0][-1]


def test_a_failure_at_the_first_grid_point_raises_domain_breakdown():
    """No empty block is yielded, so no statistic is taken over zero points."""
    fam, ambient = TrigProfile(C=1.5, alpha=0.2), AmbientSpec(1.0, 1)
    with pytest.raises(DomainBreakdown) as info:
        next(profile_columns(fam, ambient))
    assert info.value.s == -10.0
    for stat in (cic_mean_deviation, cic_along_profile):
        with pytest.raises(DomainBreakdown):
            stat(fam, ambient)


def test_a_breakdown_leaves_no_reference_cycle():
    """The raised DomainBreakdown is not held by the generator frame its
    traceback holds, so that frame and its columns are freed when the
    exception is, not at the next gc pass (domain_check raises and catches
    one per failing profile)."""
    fam, ambient = ParabolicProfile(beta=1.0), AmbientSpec(0.01, 1)
    gc.collect()
    gc.disable()
    try:
        assert domain_check(fam, ambient, (0.0, 5.0), 10_001).s == 3.0
        try:
            cic_mean_deviation(fam, ambient)
        except DomainBreakdown:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_profile_columns_validates_on_the_call():
    fam = ParabolicProfile(beta=1.0)
    with pytest.raises(ValueError, match=r"need an integer grid_n >= 2, got grid_n = 1$"):
        profile_columns(fam, FLAT, (-1.0, 1.0), 1)
    with pytest.raises(ValueError, match="window"):
        profile_columns(fam, FLAT, (1.0, -1.0), 11)


def test_cic_along_profile_propagates_breakdown():
    with pytest.raises(DomainBreakdown) as info:
        cic_along_profile(TrigProfile(C=1.5, alpha=0.2), AmbientSpec(1.0, 1))
    assert info.value.s is not None


def test_parabolic_flat_curvatures_match_closed_form():
    for beta in (0.5, 1.0, 4.0):
        samples, _ = cic_along_profile(ParabolicProfile(beta=beta), FLAT)
        for p in samples:
            expected = -math.sqrt(beta) / (p.s * p.s + beta)
            assert abs(p.lam - expected) <= 1e-10
            assert abs(p.mu + expected) <= 1e-10


def test_profile_sample_invariant():
    samples, _ = cic_along_profile(TrigProfile(C=2.0, alpha=0.3), FLAT, (-2, 2), 41)
    for p in samples:
        assert p.cic == pytest.approx(2 * (p.lam * p.lam + p.lam * p.mu), abs=1e-14)


def test_csv_round_trip():
    samples, _ = cic_along_profile(TrigProfile(C=2.0, alpha=0.3), FLAT, (-1, 1), 21)
    buf = io.StringIO()
    write_profile_csv(profile_columns(TrigProfile(C=2.0, alpha=0.3), FLAT, (-1, 1), 21), buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "s,x,xp,lambda,mu,cic"
    assert len(lines) == 22
    for line, p in zip(lines[1:], samples):
        s, x, xp, lam, mu, cic = (float(tok) for tok in line.split(","))
        assert (s, x, xp, lam, mu, cic) == (p.s, p.x, p.xp, p.lam, p.mu, p.cic)


# ---------------------------------------------------------------------------
# array evaluation and the first-integral radicand


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_array_eval_is_the_scalar_eval(fam, C, delta):
    s = np.linspace(-6.0, 6.0, 37)
    got = fam.eval(s)
    for i, si in enumerate(s):
        assert tuple(col[i] for col in got) == fam.eval(float(si))
    assert all(type(v) is float for v in fam.eval(0.5))


def test_ode_residual_accepts_arrays():
    fam = TrigProfile(C=2.0, alpha=0.5)
    s = np.array([-1.0, 0.25, 1.0])
    got = residual(fam, 2.0, 1, s)
    assert got.shape == (3,)
    assert list(got) == [residual(fam, 2.0, 1, float(v)) for v in s]


def test_ode_residual_on_a_stack_is_one_family_at_a_time():
    """A (families, points) stack, C and delta as (families, 1) columns,
    gives each family's residual bit for bit."""
    h = 1e-4
    rng = np.random.default_rng(5)
    s = rng.uniform(-3.0, 3.0, size=(len(FAMILY_GRID), 40))
    us = np.empty((3, 3, *s.shape))
    for r, (fam, _, _) in enumerate(FAMILY_GRID):
        us[:, :, r] = fam.u(np.array((s[r] - h, s[r], s[r] + h)))
    C, delta = (np.array(col, dtype=float)[:, None] for col in list(zip(*FAMILY_GRID))[1:])
    got = ode_residual(C, delta, us, h)
    alone = np.array([residual(fam, c_r, d_r, s[r], h) for r, (fam, c_r, d_r) in enumerate(FAMILY_GRID)])
    assert got.shape == s.shape and got.tobytes() == alone.tobytes()


def test_samples_are_python_floats_on_the_exact_grid():
    lo, hi, n = -1.0, 2.0, 7
    samples, _ = cic_along_profile(TrigProfile(C=2.0, alpha=0.3), FLAT, (lo, hi), n)
    step = (hi - lo) / (n - 1)
    assert [p.s for p in samples] == [lo + i * step for i in range(n)]
    assert all(type(v) is float for p in samples for v in vars(p).values())
    failure = domain_check(TrigProfile(C=1.5, alpha=0.2), AmbientSpec(1.0, 1), (0.0, 10.0), 2001)
    assert type(failure.s) is float


def test_grid_spans_several_blocks():
    """Blocks join without gaps, and a failure in a later block is found."""
    n = 2 * BLOCK + 3
    samples, dev = cic_along_profile(ParabolicProfile(beta=1.0), FLAT, (-3.0, 3.0), n)
    step = 6.0 / (n - 1)
    assert [p.s for p in samples] == [-3.0 + i * step for i in range(n)]
    assert dev <= 1e-10
    # 1 - c*w - (w - 1)/w with w = s^2 + 1 vanishes at w = 1/sqrt(c): s = 2 for c = 1/25
    failure = domain_check(ParabolicProfile(beta=1.0), AmbientSpec(0.04, 1), (0.0, 3.0), n)
    assert failure is not None and 2.0 < failure.s < 2.01
    assert round(failure.s / (3.0 / (n - 1))) > BLOCK


def _exact_boundary_radicand(c: float, s: float) -> mpmath.mpf:
    """delta - c x^2 - x'^2 of ExponentialProfile(C=4c, A=B=1), 50 digits."""
    with mpmath.workdps(50):
        C = 4 * mpmath.mpf(c)
        a, k = mpmath.sqrt(-C), 2 / -C
        ep, em = mpmath.exp(a * mpmath.mpf(s)), mpmath.exp(-a * mpmath.mpf(s))
        u, up = k * (ep + em - 1), k * a * (ep - em)
        return 1 - mpmath.mpf(c) * u - up * up / (4 * u)


@pytest.mark.parametrize("c", [-0.9, -1.0, -1.25, -2.0])
def test_boundary_radicand_matches_a_50_digit_reference(c):
    """At C = 4c the radicand decays like e^(-2a|s|); the first integral
    keeps its digits on the whole default grid, the direct form does not."""
    fam = ExponentialProfile(C=4.0 * c, A=1.0, B=1.0, delta=1)
    ambient = AmbientSpec(c, 1)
    assert domain_check(fam, ambient) is None
    samples, deviation = cic_along_profile(fam, ambient)
    assert len(samples) == 2001
    for p in samples:
        exact = _exact_boundary_radicand(c, p.s)
        assert abs((p.lam * p.x) ** 2 - exact) <= 1e-12 * exact
    mean = sum(p.cic for p in samples) / len(samples)
    assert deviation <= 1e-8
    assert abs(mean - 4.0 * c) <= 1e-8


def test_direct_radicand_loses_the_boundary():
    """The direct form at c = -5/4, s = 10 reads -1.4e-6; the truth is +2.9e-10."""
    fam = ExponentialProfile(C=-5.0, A=1.0, B=1.0, delta=1)
    x, xp, xpp = fam.eval(10.0)
    assert float(_exact_boundary_radicand(-1.25, 10.0)) == pytest.approx(2.917e-10, rel=1e-3)
    with pytest.raises(DomainBreakdown) as info:
        principal_curvatures(AmbientSpec(-1.25, 1), x, xp, xpp)
    assert info.value.value < -1e-7
    samples, _ = cic_along_profile(fam, AmbientSpec(-1.25, 1), (9.0, 10.0), 11)
    assert (samples[-1].lam * samples[-1].x) ** 2 == pytest.approx(2.917e-10, rel=1e-3)


def test_relative_threshold_scales_with_the_family():
    """Scaling (c, C) by t scales u by 1/t: the verdicts stay the same."""
    for t in (1e-13, 1e-6, 1.0, 1e6, 1e13):
        scale = 1.0 / math.sqrt(t)
        window = (-10.0 * scale, 10.0 * scale)
        fam = ExponentialProfile(C=-5.0 * t, A=1.0, B=1.0, delta=1)
        assert domain_check(fam, AmbientSpec(-1.25 * t, 1), window) is None  # C = 4c
        failure = domain_check(fam, AmbientSpec(-t, 1), (0.0, 10.0 * scale))  # C < 4c
        assert failure is not None and 0.6 < failure.s / scale < 0.8


@pytest.mark.parametrize("window", [(-1000.0, 1000.0), (0.0, 1000.0)])
def test_overflow_is_a_value_error_naming_s_and_window(window):
    fam = ExponentialProfile(C=-2.0, A=1.0, B=1.0, delta=1)
    ambient = AmbientSpec(-1.0, 1)
    pattern = r"overflows the float range at s=.* in the window \(" + repr(window[0])
    with pytest.raises(ValueError, match=pattern):
        domain_check(fam, ambient, window)
    with pytest.raises(ValueError, match=pattern):
        cic_along_profile(fam, ambient, window)


def test_overflow_after_the_first_failure_does_not_count():
    """Only points up to the first invalid one count: a unit-speed failure
    at s ~ 0.6 is reported although e^(sqrt(2) s) overflows further out."""
    fam = ExponentialProfile(C=-2.0, A=1.0, B=1.0, delta=1)
    failure = domain_check(fam, FLAT, (0.0, 1000.0), 100001)
    assert failure is not None and 0.5 < failure.s < 0.7
    with pytest.raises(DomainBreakdown) as info:
        cic_along_profile(fam, FLAT, (0.0, 1000.0), 100001)
    assert info.value.s == failure.s


def test_square_rounding_to_zero_is_a_domain_failure():
    """A + B one ulp above delta = 1: u = x^2 rounds to 0 next to s = 0."""
    fam = ExponentialProfile(C=-1.0, A=0.5, B=0.5 + 2.0**-52, delta=1)
    failure = domain_check(fam, FLAT, (-1e-15, 1e-15), 21)
    assert failure is not None and failure.reason == "x^2 = 0.000000e+00 <= 0"
    with pytest.raises(DomainBreakdown, match=r"x\^2 = 0\.000000e\+00 <= 0 at s="):
        cic_along_profile(fam, FLAT, (-1e-15, 1e-15), 21)


@settings(max_examples=150, deadline=None)
@given(_family_and_ambient())
def test_grid_curvatures_match_the_direct_radicand(case):
    """Away from the boundary, the first-integral lambda and mu equal the
    direct principal_curvatures to 1e-10 relative, including when the
    ambient's rotation type differs from the family's."""
    fam, ambient = case
    try:
        for block in profile_columns(fam, ambient, (-3.0, 3.0), 121):
            for _, x, xp, xpp, got_lam, got_mu, _ in zip(*(col.tolist() for col in block)):
                d = ambient.delta - ambient.c * x * x - xp * xp
                if d <= 1e-4 * (1.0 + abs(ambient.c) * x * x + xp * xp):
                    continue
                lam, mu = principal_curvatures(ambient, x, xp, xpp)
                assert abs(got_lam - lam) <= 1e-10 * abs(lam)
                assert abs(got_mu - mu) <= 1e-10 * abs(mu)
    except DomainBreakdown as exc:
        d = ambient.delta - ambient.c * fam.eval(exc.s)[0] ** 2 - fam.eval(exc.s)[1] ** 2
        assert d <= 1e-6 * (1.0 + abs(ambient.c) * fam.eval(exc.s)[0] ** 2)
