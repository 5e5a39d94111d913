import math
import re

import numpy as np
import pytest

from isocurv.profiles import (
    EPS_DOM,
    MAX_STEPS,
    ExponentialProfile,
    NonPositiveProfile,
    ParabolicProfile,
    TrigProfile,
    integrate_profile,
    integrate_profile_arrays,
)


def sup_error(points, family):
    return max(abs(x - family.eval(s)[0]) for s, x, _ in points)


def stage_rk4(C, delta, x0, v0, s_max, step, stop=False):
    """Literal four-stage RK4 on u'' = 2*delta - C*u, u = x^2: the oracle.

    Returns (s, x, x') rows sorted by s; u must stay above EPS_DOM * x0^2.
    With stop=True a sweep instead ends at its first step where
    u <= EPS_DOM * x0^2, the forward sweep first, and the result is (rows
    before that step, its s), or (rows, None) when neither sweep crosses.
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
            if u <= EPS_DOM * x0 * x0:
                assert stop, "oracle case leaves the valid domain"
                return out, i * h
            out.append((i * h, math.sqrt(u), v / (2.0 * math.sqrt(u))))
        return out, None

    origin = [(0.0, x0, v0)]
    forward, s_end = sweep(step)
    if s_end is not None:
        return origin + forward, s_end
    backward, s_end = sweep(-step)
    rows = backward[::-1] + origin + forward
    return (rows, s_end) if stop else rows


def step_map_overflow_s(C, delta, x0, v0, s_max, step):
    """First s at which u or u' is not finite when the one-step affine RK4
    map is applied step by step, forward sweep first (None if never)."""
    nsteps = int(math.floor(s_max / step + 1e-9))
    for h in (step, -step):
        q = C * h * h
        d, duv, b = -q / 2.0 + q * q / 24.0, h * (1.0 - q / 6.0), delta * h * h * (1.0 - q / 12.0)
        u, v = x0 * x0, 2.0 * x0 * v0
        for i in range(1, nsteps + 1):
            u, v = u + (d * u + duv * v + b), v + (-C * duv * u + d * v + 2.0 * delta * h * (1.0 - q / 6.0))
            if not (math.isfinite(u) and math.isfinite(v)):
                return i * h
            assert u > EPS_DOM * x0 * x0, "overflow case crosses first"
    return None


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


# Step counts on both sides of the doubling edges: the sweep fills rows
# [k, 2k) from rows [0, k), so 2^j - 1, 2^j and 2^j + 1 end a level short,
# exactly or with one row into the next.
EDGE_COUNTS = [1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025]
# (C, delta, step), x0 = 1, v0 = 0.1, u positive over 1025 steps either way;
# at step 0.1 the longer sweeps run over many periods (C = 2) or e-foldings (C = -1)
EDGE_CASES = [(C, delta, 5e-4) for C in (2.0, 0.0, -1.0) for delta in (-1, 0, 1)] + [
    (2.0, 1, 0.1), (-1.0, 1, 0.1), (-1.0, 0, 0.1),
]


@pytest.mark.parametrize("nsteps", EDGE_COUNTS)
@pytest.mark.parametrize("C,delta,step", EDGE_CASES)
def test_doubling_edges_match_stage_rk4(C, delta, step, nsteps):
    got = integrate_profile(C, delta, 1.0, 0.1, nsteps * step, step)
    want = stage_rk4(C, delta, 1.0, 0.1, nsteps * step, step)
    assert len(got) == len(want) == 2 * nsteps + 1
    assert [s for s, _, _ in got] == [s for s, _, _ in want]
    for (_, x, xp), (_, xr, xpr) in zip(got, want):
        assert abs(x - xr) <= 1e-11 * xr
        assert abs(xp - xpr) <= 1e-11 * max(xr, abs(xpr))


@pytest.mark.parametrize(
    "C,delta,x0,v0,s_max",
    [
        (0.0, 1, 1.0, -10.0, 5.0),    # u = s^2 - 20s + 1 crosses forward on step 51
        (0.0, 1, 1.0, 10.0, 5.0),     # ... and backward
        (0.0, 1, 1.0, -250.0, 5.0),   # on step 3, in the first block of a composed map
        (0.0, 1, 1.0, -1.5, 5.0),     # on step 382, inside the block [256, 512)
        (0.0, 1, 1.0, 1.0, 5.0),      # u = (1 + s)^2 touches zero on backward step 1000
        (0.0, 0, 1.0, -0.4998, 5.0),  # u = 1 - 0.9996 s, through zero on step 1001
        (2.0, 1, 1.0, 1.0, 5.0),      # trig about its equilibrium u = 1: step 2777
        (2.0, 1, 1.0, -1.0, 5.0),     # step 556
        (-1.0, 1, 0.5, -2.0, 5.0),    # exponential falling through zero on step 135
    ],
)
def test_crossings_match_stage_rk4(C, delta, x0, v0, s_max):
    rows, s_end = stage_rk4(C, delta, x0, v0, s_max, 1e-3, stop=True)
    assert s_end is not None
    with pytest.raises(NonPositiveProfile) as info:
        integrate_profile_arrays(C, delta, x0, v0, s_max, 1e-3)
    assert info.value.s == s_end
    assert [s for s, _, _ in info.value.samples] == [s for s, _, _ in rows]


# (C, x0, s_max, step) -> (t*C, x0/sqrt(t), s_max/sqrt(t), step/sqrt(t)) maps
# solutions to solutions with x scaled by 1/sqrt(t); t = 4^k scales exactly
@pytest.mark.parametrize("t", [4.0**-20, 4.0**-5, 4.0**5, 4.0**20, 1e-10, 1e10])
@pytest.mark.parametrize(
    "C,delta,x0,v0",
    [(2.0, 1, 1.0, 1.0), (0.0, 1, 1.0, -1.5), (0.0, 0, 1.0, -0.4998), (-1.0, 1, 0.5, -2.0)],
)
def test_crossings_move_with_the_scaling(C, delta, x0, v0, t):
    with pytest.raises(NonPositiveProfile) as ref:
        integrate_profile_arrays(C, delta, x0, v0, 5.0, 1e-3)
    r = math.sqrt(t)
    with pytest.raises(NonPositiveProfile) as info:
        integrate_profile_arrays(t * C, delta, x0 / r, v0, 5.0 / r, 1e-3 / r)
    assert info.value.s == pytest.approx(ref.value.s / r, rel=1e-12)
    assert len(info.value.samples) == len(ref.value.samples)


@pytest.mark.parametrize(
    "args",
    [
        (2.0, 1, 1.0, 0.1, 10.0, 1e-3),
        (0.0, -1, 1.0, 0.1, 0.5, 1e-3),
        (-1.0, 0, 0.7, -0.2, 3.0, 0.01),
        (700.0, 1, math.sqrt(2.0 / 700.0), 0.0, 1.0, 0.1),
    ],
)
def test_rows_are_the_arrays_bitwise(args):
    s, x, xp = integrate_profile_arrays(*args)
    assert s.shape == x.shape == xp.shape and list(s) == sorted(s)
    rows = [tuple(map(float.hex, r)) for r in integrate_profile(*args)]
    assert rows == [tuple(map(float.hex, r)) for r in zip(s.tolist(), x.tolist(), xp.tolist())]


def test_small_C_keeps_its_digits():
    """A tiny |C| keeps x's digits: its equilibrium 2*delta/C lies far outside
    the sweep, and u is carried directly."""
    for C in (1e-9, -1e-9, 1e-300):
        got = integrate_profile(C, 1, 1.0, 0.3, 10.0, 1e-2)
        want = stage_rk4(C, 1, 1.0, 0.3, 10.0, 1e-2)
        assert max(abs(x - xr) / xr for (_, x, _), (_, xr, _) in zip(got, want)) <= 1e-11


def _overflow_s(exc: ValueError) -> float:
    return float(re.search(r"overflows the float range at s=(\S+):", str(exc)).group(1))


@pytest.mark.parametrize(
    "args",
    [
        (-3.0, 1, 1.0, 0.0, 1000.0, 0.01),   # u ~ e^(sqrt(3) s) overflows near s = 409.6
        (-7e6, 1, 1.0, 0.0, 1.0, 1e-3),      # q = -7, growth 13x per step
        (-1e-200, 0, 1.0, 0.0, 8e102, 8e98),  # the 8192-step map overflows before u does
    ],
)
def test_overflow_raises_value_error_not_a_crossing(args):
    s_end = step_map_overflow_s(*args)
    assert s_end is not None
    with pytest.raises(ValueError, match="overflows the float range") as info:
        integrate_profile_arrays(*args)
    assert not isinstance(info.value, NonPositiveProfile)
    assert f"step = {args[5]!r}" in str(info.value)
    assert abs(_overflow_s(info.value) - s_end) <= 2 * args[5]


def test_overflow_of_the_known_exponential_profile():
    with pytest.raises(ValueError, match="overflows the float range") as info:
        integrate_profile(-3.0, 1, 1.0, 0.0, 1000.0, 0.01)
    assert 409.0 < _overflow_s(info.value) < 410.0
    s, x, xp = integrate_profile_arrays(-3.0, 1, 1.0, 0.0, 300.0, 0.01)
    assert len(s) == 60001
    assert np.isfinite(x).all() and np.isfinite(xp).all()


def test_equilibrium_profile_stays_constant():
    # u'' = 2 - 2u has the equilibrium u = 1, which the sweep keeps to about an ulp
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


@pytest.mark.parametrize("x0", [1e-160, 1e-170, 5e-324])
def test_an_x0_whose_square_is_subnormal_is_rejected(x0):
    """The stop threshold is 1e-9 of x0^2; a subnormal x0^2 keeps too few digits
    for it (1e-160 gave x = 9.99994e-161 on every row, 1e-170 a false crossing)."""
    with pytest.raises(ValueError, match=r"^x0 must be positive with x0\^2 a normal float"):
        integrate_profile_arrays(0.0, 0, x0, 0.0, 1.0, 0.1)


def test_the_smallest_x0_with_a_normal_square_keeps_its_digits():
    x0 = 1.5e-154  # x0^2 = 2.25e-308, just above the smallest normal float
    _, x, xp = integrate_profile_arrays(0.0, 0, x0, 0.0, 1.0, 0.1)  # u stays x0^2
    assert np.all(np.abs(x - x0) <= 1e-15 * x0) and np.all(xp == 0.0)


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


@pytest.mark.parametrize(
    "s_max,step",
    [
        ((MAX_STEPS + 1) * 0.5, 0.5),  # one step over the bound
        (1e300, 1.0),                   # used to run without end while its samples grew
        (1e300, 1e-300),                # s_max / step overflows to inf
    ],
)
def test_step_count_above_the_bound_is_rejected(s_max, step):
    with pytest.raises(ValueError, match=re.escape(f"s_max = {s_max!r}, step = {step!r}")):
        integrate_profile(0.0, 1, 1.0, 0.0, s_max, step)


def test_step_count_at_the_bound_is_accepted():
    """MAX_STEPS steps pass the bound; u leaves its domain on the first step,
    so nothing large is built."""
    with pytest.raises(NonPositiveProfile) as info:
        integrate_profile(0.0, 1, 1.0, -10.0, MAX_STEPS * 0.5, 0.5)
    assert info.value.s == 0.5 and len(info.value.samples) == 1
