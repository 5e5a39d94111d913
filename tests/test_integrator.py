import math
import re

import pytest

from isocurv.profiles import (
    ExponentialProfile,
    NonPositiveProfile,
    ParabolicProfile,
    TrigProfile,
    integrate_profile,
)


def sup_error(points, family):
    return max(abs(x - family.eval(s)[0]) for s, x, _ in points)


def stage_rk4(C, delta, x0, v0, s_max, step):
    """Literal four-stage RK4 on u'' = 2*delta - C*u, u = x^2: the oracle.

    Assumes u stays positive; returns (s, x, x') rows sorted by s.
    """
    nsteps = int(math.floor(s_max / step + 1e-9))

    def f(u, v):
        return v, 2.0 * delta - C * u

    def sweep(h):
        u, v = x0 * x0, 2.0 * x0 * v0
        out = []
        for i in range(1, nsteps + 1):
            k1u, k1v = f(u, v)
            k2u, k2v = f(u + 0.5 * h * k1u, v + 0.5 * h * k1v)
            k3u, k3v = f(u + 0.5 * h * k2u, v + 0.5 * h * k2v)
            k4u, k4v = f(u + h * k3u, v + h * k3v)
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            assert u > 0, "oracle case leaves the valid domain"
            out.append((i * h, math.sqrt(u), v / (2.0 * math.sqrt(u))))
        return out

    return sorted(sweep(-step)) + [(0.0, x0, v0)] + sweep(step)


# (C, delta, s_max) with x0 = 1, v0 = 0.1: u stays positive on [-s_max, s_max]
ORACLE_CASES = [
    (2.0, 1, 10.0), (2.0, 0, 0.5), (2.0, -1, 0.5),
    (0.0, 1, 10.0), (0.0, 0, 4.0), (0.0, -1, 0.5),
    (-1.0, 1, 10.0), (-1.0, 0, 10.0), (-1.0, -1, 0.5),
]


@pytest.mark.parametrize("C,delta,s_max", ORACLE_CASES)
def test_propagator_matches_stage_rk4(C, delta, s_max):
    """The affine one-map step reproduces the four-stage step to rounding."""
    got = integrate_profile(C, delta, 1.0, 0.1, s_max, 1e-3)
    want = stage_rk4(C, delta, 1.0, 0.1, s_max, 1e-3)
    assert len(got) == len(want) == 2 * round(s_max / 1e-3) + 1
    assert [s for s, _, _ in got] == [s for s, _, _ in want]
    assert got[0][0] < 0.0 < got[-1][0]  # both sweep directions are compared
    for (_, x, xp), (_, xr, xpr) in zip(got, want):
        assert abs(x - xr) <= 1e-11 * xr
        assert abs(xp - xpr) <= 1e-11 * max(xr, abs(xpr))


def test_equilibrium_profile_stays_constant():
    # u'' = 2 - 2u has the fixed point u = 1
    points = integrate_profile(2.0, 1, 1.0, 0.0, 10.0, 1e-3)
    assert len(points) == 20001
    assert max(abs(x - 1.0) for _, x, _ in points) <= 1e-14
    assert max(abs(xp) for _, _, xp in points) <= 1e-14


def test_integration_matches_parabolic_profile():
    points = integrate_profile(0.0, 1, 1.0, 0.0, 10.0, 1e-3)
    assert sup_error(points, ParabolicProfile(beta=1.0)) <= 1e-8


def test_integration_matches_trig_profile():
    v0 = -0.3 * math.sqrt(2.0) / 2.0
    points = integrate_profile(2.0, 1, 1.0, v0, 10.0, 1e-3)
    assert sup_error(points, TrigProfile(C=2.0, alpha=0.3)) <= 1e-6


def test_integration_matches_exponential_profile():
    fam = ExponentialProfile(C=-1.0, A=1.0, B=1.0, delta=1)
    x0, v0, _ = fam.eval(0.0)
    points = integrate_profile(-1.0, 1, x0, v0, 6.0, 1e-3)
    assert sup_error(points, fam) <= 1e-8


def test_fourth_order_convergence():
    """Halving the step shrinks the sup error by roughly 2^4."""
    trig = TrigProfile(C=2.0, alpha=0.3)
    v0 = -0.3 * math.sqrt(2.0) / 2.0

    def err(step):
        return sup_error(integrate_profile(2.0, 1, 1.0, v0, 10.0, step), trig)

    assert err(0.1) / err(0.05) >= 12.0
    assert err(0.05) / err(0.025) >= 12.0


def test_samples_are_sorted_and_bracket_zero():
    points = integrate_profile(0.0, 1, 2.0, 0.5, 1.0, 0.25)
    ss = [s for s, _, _ in points]
    assert ss == sorted(ss)
    assert 0.0 in ss
    assert ss[0] == -1.0 and ss[-1] == 1.0


def test_positivity_crossing_raises_with_context():
    # u(s) = s^2 - 20 s + 1 crosses zero near s = 0.05
    with pytest.raises(NonPositiveProfile) as info:
        integrate_profile(0.0, 1, 1.0, -10.0, 5.0, 1e-3)
    exc = info.value
    assert 0.04 < exc.s < 0.06
    assert exc.samples, "partial samples missing"
    assert all(x > 0 for _, x, _ in exc.samples)


def test_backward_crossing_detected():
    # falling toward zero in the -s direction only
    with pytest.raises(NonPositiveProfile) as info:
        integrate_profile(0.0, 1, 1.0, 10.0, 5.0, 1e-3)
    assert -0.06 < info.value.s < -0.04


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_profile(0.0, 1, -1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        integrate_profile(0.0, 1, 1.0, 0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "args,name",
    [
        ((math.nan, 1, 1.0, 0.0, 1.0, 0.1), "C"),
        ((math.inf, 1, 1.0, 0.0, 1.0, 0.1), "C"),
        ((0.0, 1, math.nan, 0.0, 1.0, 0.1), "x0"),
        ((0.0, 1, math.inf, 0.0, 1.0, 0.1), "x0"),
        ((0.0, 1, 1.0, math.inf, 1.0, 0.1), "v0"),
        ((0.0, 1, 1.0, math.nan, 1.0, 0.1), "v0"),
        ((0.0, 1, 1.0, 0.0, math.inf, 0.1), "s_max"),
        ((0.0, 1, 1.0, 0.0, math.nan, 0.1), "s_max"),
        ((0.0, 1, 1.0, 0.0, -3.0, 0.1), "s_max"),
        ((0.0, 1, 1.0, 0.0, 0.05, 0.1), "s_max"),
        ((0.0, 7, 1.0, 0.0, 1.0, 0.1), "delta"),
        ((0.0, 2, 1.0, 0.0, 1.0, 0.1), "delta"),
    ],
)
def test_rejected_inputs_name_the_argument(args, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        integrate_profile(*args)


def test_partial_samples_are_sorted_on_either_crossing():
    for v0 in (-10.0, 10.0):
        with pytest.raises(NonPositiveProfile) as info:
            integrate_profile(0.0, 1, 1.0, v0, 5.0, 1e-3)
        ss = [s for s, _, _ in info.value.samples]
        assert ss == sorted(ss) and 0.0 in ss


@pytest.mark.parametrize(
    "args",
    [
        (1e300, 1, 1.0, 0.0, 1.0, 0.1),   # q^2 overflowed: rows ended in (1.0, nan, nan)
        (-1e300, 1, 1.0, 0.0, 1.0, 0.1),
        (1e3, 1, 0.0447, 0.0, 10.0, 0.1),  # q = 10: the unstable scheme left the domain
        (-1e3, 1, 1.0, 0.0, 10.0, 0.1),
        (1.0, 1, 1.0, 0.0, 1e300, 1e200),  # |C|*step^2 overflows to inf
    ],
)
def test_steps_outside_rk4_stability_are_rejected(args):
    C, step = args[0], args[5]
    with pytest.raises(ValueError, match="unstable.*" + re.escape(f"C = {C!r}, step = {step!r}")):
        integrate_profile(*args)


def test_steps_inside_rk4_stability_run():
    """q = C*h^2 = 7 < 7.75: the equilibrium sqrt(2/C) stays put."""
    x0 = math.sqrt(2.0 / 700.0)
    pts = integrate_profile(700.0, 1, x0, 0.0, 1.0, 0.1)
    assert len(pts) == 21
    assert all(abs(x - x0) <= 1e-12 * x0 and math.isfinite(v) for _, x, v in pts)
