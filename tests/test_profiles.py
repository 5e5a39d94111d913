import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    principal_curvatures,
    profile_samples,
    write_profile_csv,
)

FLAT = AmbientSpec(c=0.0, delta=1)

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
    ],
)
def test_family_invariants_enforced_at_construction(build):
    with pytest.raises(ValueError):
        build()


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


def test_ode_residual_parabolic_is_exact():
    # x*x' = s exactly, so the central difference is exact too
    fam = ParabolicProfile(beta=1.0)
    for s in (-3.0, 0.0, 0.7, 5.0):
        assert ode_residual(fam, 0.0, 1, s, 1e-4) <= 1e-11


def test_ode_residual_closed_forms():
    assert ode_residual(TrigProfile(C=2.0, alpha=0.5), 2.0, 1, 1.0, 1e-4) < 1e-6
    assert ode_residual(ExponentialProfile(C=-1.0, A=1.0, B=1.0, delta=1), -1.0, 1, 2.0, 1e-4) < 1e-6


def test_ode_residual_detects_wrong_constants():
    fam = TrigProfile(C=2.0, alpha=0.5)
    assert ode_residual(fam, 3.0, 1, 1.0, 1e-4) > 1e-2
    assert ode_residual(fam, 2.0, 0, 1.0, 1e-4) > 1e-2


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_ode_residual_scales_with_h_squared(fam, C, delta):
    h = 1e-4
    rng = np.random.default_rng(17)
    for s in rng.uniform(-3.0, 3.0, size=25):
        x = fam.eval(s)[0]
        scale = max(1.0, abs(C * C * x * x - 2.0 * C * delta))
        assert ode_residual(fam, C, delta, float(s), h) <= 5.0 * h * h * scale


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


@pytest.mark.parametrize("fam,C,delta", FAMILY_GRID)
def test_streamed_mean_and_deviation_are_the_two_pass_ones_bitwise(fam, C, delta):
    """max(hi - mean, mean - lo) equals max |cic - mean|, since rounding is monotone."""
    samples = list(profile_samples(fam, AmbientSpec(-1.0, delta), (-3.0, 3.0), 401))
    mean = sum(p.cic for p in samples) / len(samples)
    want = (mean, max(abs(p.cic - mean) for p in samples))
    assert cic_mean_deviation(iter(samples)) == want
    assert cic_along_profile(fam, AmbientSpec(-1.0, delta), (-3.0, 3.0), 401)[1] == want[1]


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
    write_profile_csv(samples, buf)
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
    got = ode_residual(fam, 2.0, 1, s, 1e-4)
    assert got.shape == (3,)
    assert list(got) == [ode_residual(fam, 2.0, 1, float(v), 1e-4) for v in s]


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


@settings(max_examples=150, deadline=None)
@given(_family_and_ambient())
def test_grid_curvatures_match_the_direct_radicand(case):
    """Away from the boundary, the first-integral lambda and mu equal the
    direct principal_curvatures to 1e-10 relative, including when the
    ambient's rotation type differs from the family's."""
    fam, ambient = case
    try:
        for p in profile_samples(fam, ambient, (-3.0, 3.0), 121):
            d = ambient.delta - ambient.c * p.x * p.x - p.xp * p.xp
            if d <= 1e-4 * (1.0 + abs(ambient.c) * p.x * p.x + p.xp * p.xp):
                continue
            lam, mu = principal_curvatures(ambient, p.x, p.xp, p.xpp)
            assert abs(p.lam - lam) <= 1e-10 * abs(lam)
            assert abs(p.mu - mu) <= 1e-10 * abs(mu)
    except DomainBreakdown as exc:
        d = ambient.delta - ambient.c * fam.eval(exc.s)[0] ** 2 - fam.eval(exc.s)[1] ** 2
        assert d <= 1e-6 * (1.0 + abs(ambient.c) * fam.eval(exc.s)[0] ** 2)
