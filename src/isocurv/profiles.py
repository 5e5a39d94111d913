"""Rotation-hypersurface profile curves and their principal curvatures.

Four closed-form profile families (trig for C > 0, parabolic and quadratic
for C = 0, exponential for C < 0) solve the reduced profile equation
(x*x')' = delta - (C/2)*x^2.  Each is given by its square u = x^2, in which
the equation is linear, u'' = 2*delta - C*u: a family gives its own
(u, u', u'') and u_min, the infimum of u over R, and one shared `eval`
derives x = sqrt(u), x' = u'/(2x) and x'' = (u'' - 2x'^2)/(2x).  A family
is accepted when its fields are finite and u_min > 0.
`integrate_profile` solves the linear equation from initial data by RK4,
one exact affine step map applied step by step; the `check` suites verify
the closed forms without it, by `ode_residual` on their evaluated u.
Principal curvatures of the hypersurface in an ambient space form of
curvature c are

    lambda = -sqrt(delta - c*x^2 - x'^2) / x
    mu     = (x'' + c*x) / sqrt(delta - c*x^2 - x'^2)

and the radicand going non-positive is the computational witness that a
candidate profile does not yield a complete hypersurface.  Along a family
the radicand is N/(4u) with E = u'^2 - 4*delta_f*u + C*u^2, the first
integral (taken at s = 0), and

    N = (C - 4c)*u^2 + 4*(delta_a - delta_f)*u - E,

delta_a being the ambient's rotation type and delta_f the family's; where
the radicand decays (C = 4c) this keeps the digits the direct form loses.
A grid point is valid when u > 0 and N > EPS_DOM * max(|(C - 4c)*u^2|,
|4*(delta_a - delta_f)*u|, |E|), relative to the size of N's own terms.
`profile_columns` is the one grid product: it evaluates a grid as numpy
column blocks (s, x, x', x'', lambda, mu, cic) of up to BLOCK points,
stopping at the first invalid point.  `domain_check` scans those blocks,
`cic_mean_deviation` reads only their cic column in constant memory,
`write_profile_csv` writes them as CSV rows, and `cic_along_profile` gives
their rows as ProfileSamples.  Both statistics are `mean_deviation`, whose
sum is one numpy accumulate, strictly left to right, so it is the same on
every Python version (sum() of floats is compensated since 3.12).  E is
taken once per grid.  A profile that overflows the float range before it
leaves its domain raises ValueError.  FAMILIES names the four family
classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO, Union

import numpy as np

from .spectra import check_delta, check_finite, check_integer, cic_from_spectrum, float_array

EPS_DOM = 1e-9            # breakdown threshold: N relative to its terms; RK4 stops at x^2 / x0^2
DEFAULT_WINDOW = (-10.0, 10.0)
DEFAULT_GRID = 2001
BLOCK = 4096              # grid points evaluated per array operation
RK4_STABLE_Q = 7.75       # |C|*step^2 bound: RK4's real-axis stability limit is 2.785^2
# steps per integrate_profile sweep: at the bound the 2*10**6 rows of 144-byte
# (s, x, x') tuples hold about 290 MB; the benchmark takes 10**4
MAX_STEPS = 10**6


class DomainBreakdown(Exception):
    """The profile left its domain: delta - c*x^2 - x'^2 (or x^2) too small.

    Carries the offending value, the arclength s and the violated
    inequality as `reason`.
    """

    def __init__(self, value: float, s: float, reason: str):
        self.value = value
        self.s = s
        self.reason = reason
        super().__init__(f"{reason} at s={s!r}")


class NonPositiveProfile(Exception):
    """Integrated profile square u = x^2 crossed the positivity threshold.

    Carries the crossing arclength and the samples accumulated before the
    crossing, sorted by s.
    """

    def __init__(self, s: float, samples: list[tuple[float, float, float]]):
        self.s = s
        self.samples = samples
        super().__init__(f"profile square u = x^2 reached {EPS_DOM} of x0^2 at s={s!r}")


@dataclass(frozen=True)
class AmbientSpec:
    """Ambient space form curvature c and rotation type delta.

    delta is 1, 0 or -1 for spherical, parabolic or hyperbolic parallels;
    only hyperbolic ambients (c < 0) admit types other than spherical.
    """

    c: float
    delta: int = 1

    def __post_init__(self):
        check_finite(self.c, "c")
        check_delta(self.delta)
        if self.c >= 0 and self.delta != 1:
            raise ValueError(f"an ambient with c >= 0 needs delta = 1, got delta = {self.delta}")


def _sqrt_pair(u, up):
    """(x, x') for x = sqrt(u) given u and u'."""
    x = np.sqrt(u)
    return x, up / (2.0 * x)


def _sqrt_chain(u, up, upp):
    """(x, x', x'') for x = sqrt(u) given u and its derivatives."""
    x, xp = _sqrt_pair(u, up)
    return x, xp, (upp - 2.0 * xp * xp) / (2.0 * x)


class _SquareProfile:
    """A profile family given by its square: u(s) returns (u, u', u'') at an array s.

    ode_constant and ode_delta, the (C, delta) of its profile equation, are
    the family's fields C and delta, or 0 and 1 when it has none.  Fields
    pass the `spectra` rules, then the family's signs (_check_form), u_min > 0.
    """

    def __post_init__(self):
        for field, value in vars(self).items():
            if field == "delta":
                check_delta(value)
            else:
                check_finite(value, field)
        self._check_form()
        if not self.u_min > 0:
            raise ValueError(f"{self!r} needs inf u > 0 on R, got inf u = {self.u_min!r}")

    def _check_form(self) -> None:
        """The family's own sign conditions, checked before u_min is taken."""

    @property
    def ode_constant(self) -> float:
        return getattr(self, "C", 0.0)

    @property
    def ode_delta(self) -> int:
        return getattr(self, "delta", 1)

    def eval(self, s):
        """(x, x', x'') at s, a float (giving floats) or an array."""
        x, xp, xpp = _sqrt_chain(*self.u(float_array(s, "s")))
        if np.ndim(s) == 0:
            return float(x), float(xp), float(xpp)
        return x, xp, xpp


@dataclass(frozen=True)
class TrigProfile(_SquareProfile):
    """u(s) = x(s)^2 = (2/C) * (1 - alpha*sin(sqrt(C)*s)) with C > 0, alpha >= 0; u_min = (2/C)(1 - alpha)."""

    C: float
    alpha: float

    def _check_form(self) -> None:
        if not self.C > 0:
            raise ValueError(f"Trig profile needs C > 0, got {self.C}")
        if not self.alpha >= 0.0:
            raise ValueError(f"Trig profile needs alpha >= 0, got {self.alpha}")

    @property
    def u_min(self) -> float:
        return 2.0 / self.C * (1.0 - self.alpha)

    def u(self, s):
        a, k = math.sqrt(self.C), 2.0 / self.C
        sn = np.sin(a * s)
        ka = k * self.alpha * a
        return k * (1.0 - self.alpha * sn), -ka * np.cos(a * s), ka * a * sn


@dataclass(frozen=True)
class ParabolicProfile(_SquareProfile):
    """u(s) = x(s)^2 = s^2 + beta; u_min = beta."""

    beta: float

    @property
    def u_min(self) -> float:
        return self.beta

    def u(self, s):
        return s * s + self.beta, 2.0 * s, np.full_like(s, 2.0)


@dataclass(frozen=True)
class ExponentialProfile(_SquareProfile):
    """u(s) = x(s)^2 = (2/-C) * (A*e^(a*s) + B*e^(-a*s) - delta), a = sqrt(-C).

    Requires C < 0 and A, B >= 0; u_min = (2/-C) * (2*sqrt(AB) - delta), so
    delta = -1 takes every such A, B (the tube A = B = 0 too) and delta = 1 needs 4AB > 1.
    """

    C: float
    A: float
    B: float
    delta: int = 1

    def _check_form(self) -> None:
        if not self.C < 0:
            raise ValueError(f"Exponential profile needs C < 0, got {self.C}")
        if self.A < 0 or self.B < 0:
            raise ValueError(f"Exponential profile needs A, B >= 0, got A={self.A}, B={self.B}")

    @property
    def u_min(self) -> float:
        return 2.0 / -self.C * (2.0 * math.sqrt(self.A * self.B) - self.delta)

    def u(self, s):
        a, k = math.sqrt(-self.C), 2.0 / -self.C
        ep, em = self.A * np.exp(a * s), self.B * np.exp(-a * s)
        return k * (ep + em - self.delta), k * a * (ep - em), k * a * a * (ep + em)


@dataclass(frozen=True)
class QuadraticProfile(_SquareProfile):
    """u(s) = x(s)^2 = s^2 + A*s + B; u_min = B - A^2/4."""

    A: float
    B: float

    @property
    def u_min(self) -> float:
        return self.B - self.A * self.A / 4.0

    def u(self, s):
        return s * s + self.A * s + self.B, 2.0 * s + self.A, np.full_like(s, 2.0)


ProfileFamily = Union[TrigProfile, ParabolicProfile, ExponentialProfile, QuadraticProfile]
FAMILIES = {"trig": TrigProfile, "parabolic": ParabolicProfile, "exponential": ExponentialProfile,
            "quadratic": QuadraticProfile}


@dataclass(frozen=True)
class ProfileSample:
    """One grid point: profile data, principal curvatures, isotropic value."""

    s: float
    x: float
    xp: float
    xpp: float
    lam: float
    mu: float
    cic: float


@dataclass(frozen=True)
class FirstFailure:
    """First grid point at which a profile leaves its validity domain."""

    s: float
    reason: str


def ode_residual(C: float | np.ndarray, delta: int | np.ndarray, us: np.ndarray, h: float):
    """|central difference of x*x' minus (delta - (C/2)*x^2)| at s, step h.

    us is a family's u(np.array((s - h, s, s + h))), its (u, u', u'') at
    the three stacked points; C and delta broadcast against s.  O(h^2)
    small when (C, delta) match the family; order one otherwise.  Each
    value of C must be finite and each of delta an integer -1, 0 or 1 (the
    `spectra` rules, also over an array's values); h finite, > 0.
    """
    C = float_array(C, "C")
    for value in C.ravel().tolist():
        check_finite(value, "C")
    for value in np.ravel(delta).tolist():
        check_delta(value)
    check_finite(h, "h")
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    (x_lo, x_mid, x_hi), (v_lo, _, v_hi) = _sqrt_pair(*float_array(us, "us")[:2])
    lhs = (x_hi * v_hi - x_lo * v_lo) / (2.0 * h)
    return np.abs(lhs - (delta - 0.5 * C * x_mid * x_mid))


def _first_integral(f: ProfileFamily):
    """E = u'^2 - 4*delta_f*u + C*u^2 of the family, from one scalar evaluation of u at s = 0."""
    u0, v0, _ = f.u(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return v0 * v0 - 4.0 * f.ode_delta * u0 + f.ode_constant * u0 * u0


def _evaluate(f: ProfileFamily, ambient: AmbientSpec, s: np.ndarray, window: tuple[float, float], e):
    """(k, columns, failure) at the grid points s, by the first-integral radicand E = e.

    k indexes the first invalid point (len(s) if none) and failure is the
    (value, s, reason) of its DomainBreakdown (None if none); columns are
    x, x', x'', lambda, mu and the isotropic value on all of s.  Raises
    ValueError when the profile overflows the float range at or before its
    first invalid point.
    """
    C, c = f.ode_constant, ambient.c
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, up, upp = f.u(s)
        quad, lin = (C - 4.0 * c) * u * u, 4.0 * (ambient.delta - f.ode_delta) * u
        n = quad + lin - e
        bound = EPS_DOM * np.maximum(np.maximum(np.abs(quad), np.abs(lin)), abs(e))
        d = n / (4.0 * u)
        x, xp, xpp = _sqrt_chain(u, up, upp)
        rd = np.sqrt(d)
        lam, mu = -rd / x, (xpp + c * x) / rd
        cic = cic_from_spectrum(c, lam, mu)
    inside = (u > 0) & (n > bound)
    bad = np.flatnonzero(~(inside & np.isfinite(cic)))
    columns = (x, xp, xpp, lam, mu, cic)
    if not bad.size:
        return len(s), columns, None
    k = int(bad[0])
    at = float(s[k])
    if inside[k] or not (np.isfinite(u[k]) and np.isfinite(n[k])):
        raise ValueError(f"profile {f!r} overflows the float range at s={at!r} in the window {window}")
    if not u[k] > 0:
        return k, columns, (float(u[k]), at, f"x^2 = {u[k]:.6e} <= 0")
    reason = (
        f"delta - c*x^2 - x'^2 = {d[k]:.6e} <= {bound[k] / (4.0 * u[k]):.6e} "
        f"(c*x^2 + x'^2 = {c * x[k] * x[k] + xp[k] * xp[k]:.6e} vs delta = {ambient.delta})"
    )
    return k, columns, (float(d[k]), at, reason)


def profile_columns(
    f: ProfileFamily,
    ambient: AmbientSpec,
    s_window: tuple[float, float] = DEFAULT_WINDOW,
    grid_n: int = DEFAULT_GRID,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Column blocks (s, x, x', x'', lambda, mu, cic) of up to BLOCK grid points.

    The grid is s_window[0] + i*step, i < grid_n.  The window and grid are
    validated by this call, before any block is produced.  The iterator
    yields the valid points left to right and raises DomainBreakdown at the
    first invalid one, after the valid prefix of its block (never an empty
    block), or ValueError when the profile overflows the float range at or
    before it.
    """
    lo, hi = s_window
    check_integer(grid_n, 2, "grid_n")
    for end in s_window:
        check_finite(end, "window")
    if not (hi > lo and math.isfinite(float(hi) - float(lo))):
        raise ValueError(f"window must be finite with lo < hi, got {s_window}")
    step = (hi - lo) / (grid_n - 1)

    def blocks() -> Iterator[tuple[np.ndarray, ...]]:
        e = _first_integral(f)
        for i in range(0, grid_n, BLOCK):
            s = lo + np.arange(i, min(i + BLOCK, grid_n)) * step
            k, columns, failure = _evaluate(f, ambient, s, s_window, e)
            if k:
                yield tuple(col[:k] for col in (s, *columns))
            if failure is not None:
                # built in the raise: an exception held in a local of the frame its
                # traceback holds is a cycle, keeping the block's columns until gc runs
                raise DomainBreakdown(*failure)

    return blocks()


def domain_check(
    f: ProfileFamily,
    ambient: AmbientSpec,
    s_window: tuple[float, float] = DEFAULT_WINDOW,
    grid_n: int = DEFAULT_GRID,
) -> FirstFailure | None:
    """Scan a grid for positivity and curvature-domain failures.

    Returns None when every grid point is valid, else the first failing
    point (scanning left to right) with the violated inequality.
    """
    try:
        for _ in profile_columns(f, ambient, s_window, grid_n):
            pass
    except DomainBreakdown as failure:
        return FirstFailure(failure.s, failure.reason)
    return None


def mean_deviation(cics: Iterable[np.ndarray]) -> tuple[float, float]:
    """Mean of the values in the blocks cics and their maximum deviation from it.

    Keeps the count, the least and greatest value and one sum carried from
    block to block, so any number of blocks takes constant memory.  The sum
    is the last entry of np.add.accumulate over (total, *block), which adds
    strictly left to right: the float loop `total += v` from 0.0, on every
    Python version.  Rounding is monotone, so max(mean - lo, hi - mean) is
    max |cic - mean|, bitwise; mean - lo goes first because hi - mean is
    -0.0 when every value is -0.0.  Blocks pass spectra.float_array; no
    blocks, or an empty one, raise ValueError.
    """
    count, total, lo, hi = 0, 0.0, math.inf, -math.inf
    for cic in (float_array(block, "cics") for block in cics):
        count += len(cic)
        with np.errstate(over="ignore", invalid="ignore"):  # as float addition does: inf, no warning
            total = float(np.add.accumulate(np.concatenate(((total,), cic)))[-1])
        lo, hi = min(lo, float(np.minimum.reduce(cic))), max(hi, float(np.maximum.reduce(cic)))
    if not count:
        raise ValueError("mean_deviation needs at least one value")
    mean = total / count
    return mean, max(mean - lo, hi - mean)


def cic_mean_deviation(
    f: ProfileFamily,
    ambient: AmbientSpec,
    s_window: tuple[float, float] = DEFAULT_WINDOW,
    grid_n: int = DEFAULT_GRID,
) -> tuple[float, float]:
    """Grid mean of the isotropic value along the profile and its maximum deviation from it.

    Reads only the cic column of `profile_columns`, in constant memory;
    propagates its ValueError and DomainBreakdown.
    """
    return mean_deviation(block[-1] for block in profile_columns(f, ambient, s_window, grid_n))


def cic_along_profile(
    f: ProfileFamily,
    ambient: AmbientSpec,
    s_window: tuple[float, float] = DEFAULT_WINDOW,
    grid_n: int = DEFAULT_GRID,
) -> tuple[list[ProfileSample], float]:
    """Sample lambda, mu and the isotropic value along the profile.

    Returns the samples and the maximum deviation of the isotropic value
    from its grid mean, the statistic of `cic_mean_deviation`.  Propagates
    DomainBreakdown from invalid points.
    """
    blocks = list(profile_columns(f, ambient, s_window, grid_n))
    samples = [ProfileSample(*row) for block in blocks for row in zip(*(col.tolist() for col in block))]
    return samples, mean_deviation(block[-1] for block in blocks)[1]


def integrate_profile(
    C: float,
    delta: int,
    x0: float,
    v0: float,
    s_max: float,
    step: float,
) -> list[tuple[float, float, float]]:
    """Integrate the profile equation by RK4 outward from s = 0 over [-s_max, s_max].

    Works in the substitution u = x^2, where the equation is the linear
    system z' = L z + g with z = (u, u'), L = [[0, 1], [-C, 0]], g = (0, 2*delta).
    There one classical RK4 step of size h is exactly z <- z + (D z + b),
    D = M - I, M being the RK4 stability polynomial of hL: for q = C*h^2,
    D00 = D11 = -q/2 + q^2/24, D01 = h(1 - q/6), D10 = -C*D01 and
    b = (delta*h^2*(1 - q/12), 2*delta*h*(1 - q/6)), built once per sweep and
    applied step by step.  The scheme, its order and its error are RK4's;
    |q| above RK4_STABLE_Q is outside its stability range and rejected, and
    so is s_max / step above MAX_STEPS.

    Returns (s, x, x') tuples sorted by s.  Raises NonPositiveProfile
    (carrying the rows before it) at the first step where x^2 reaches
    EPS_DOM of x0^2, forward sweep first, and ValueError naming s and the
    step at the first step where u or u' overflows the float range.
    """
    for name, value in (("C", C), ("x0", x0), ("v0", v0), ("s_max", s_max), ("step", step)):
        check_finite(value, name)
    check_delta(delta)
    if not (x0 > 0 and x0 * x0 >= np.finfo(float).tiny):  # a subnormal x0^2 has too few digits
        raise ValueError(f"x0 must be positive with x0^2 a normal float, got {x0!r}")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if s_max < step:
        raise ValueError(f"s_max must be at least step = {step}, got {s_max}")
    if not abs(C) * step * step <= RK4_STABLE_Q:
        raise ValueError(f"RK4 is unstable for |C|*step^2 > {RK4_STABLE_Q}: C = {C}, step = {step}")
    ratio = s_max / step + 1e-9  # its floor is the step count of a sweep
    if not ratio < MAX_STEPS + 1:
        raise ValueError(f"s_max / step exceeds MAX_STEPS = {MAX_STEPS}: s_max = {s_max}, step = {step}")
    nsteps = int(ratio)
    floor = EPS_DOM * (x0 * x0)

    def sweep(h: float) -> tuple[list[tuple[float, float, float]], float | None]:
        """The rows of steps 1.. of size h, and the s of a crossing (None if none)."""
        q = C * h * h
        d = -q / 2.0 + q * q / 24.0
        duv = h * (1.0 - q / 6.0)
        dvu = -C * duv
        bu, bv = delta * h * h * (1.0 - q / 12.0), 2.0 * delta * h * (1.0 - q / 6.0)
        u, v = x0 * x0, 2.0 * x0 * v0
        rows = []
        for i in range(1, nsteps + 1):
            u, v = u + (d * u + duv * v + bu), v + (dvu * u + d * v + bv)
            if not (math.isfinite(u) and math.isfinite(v)):
                raise ValueError(
                    f"integrated profile overflows the float range at s={i * h!r}: C = {C!r}, step = {step!r}"
                )
            if not u > floor:
                return rows, i * h
            x = math.sqrt(u)
            rows.append((i * h, x, v / (2.0 * x)))
        return rows, None

    origin = [(0.0, x0, v0)]
    forward, crossing = sweep(step)
    if crossing is not None:
        raise NonPositiveProfile(crossing, origin + forward)
    backward, crossing = sweep(-step)
    backward.reverse()
    if crossing is not None:
        raise NonPositiveProfile(crossing, backward + origin + forward)
    return backward + origin + forward


def write_profile_csv(blocks: Iterable[tuple[np.ndarray, ...]], out: TextIO) -> None:
    """Emit the `s,x,xp,lambda,mu,cic` rows of `profile_columns` blocks with
    round-trip decimal formatting; a DomainBreakdown from the blocks
    propagates after the rows before it."""
    out.write("s,x,xp,lambda,mu,cic\n")
    for s, x, xp, _, lam, mu, cic in blocks:
        for row in zip(*(col.tolist() for col in (s, x, xp, lam, mu, cic))):
            out.write("%r,%r,%r,%r,%r,%r\n" % row)
