"""Rotation-hypersurface profile curves and their principal curvatures.

Four closed-form profile families (trig for C > 0, parabolic and quadratic
for C = 0, exponential for C < 0) solve the reduced profile equation
(x*x')' = delta - (C/2)*x^2.  Each is given by its square u = x^2, in which
the equation is linear, u'' = 2*delta - C*u: a family gives its own
(u, u', u'') and one shared `eval` derives x = sqrt(u), x' = u'/(2x) and
x'' = (u'' - 2x'^2)/(2x).  `integrate_profile_arrays` solves the linear
equation by RK4 as an independent check on the closed forms: one step is
an exact affine map, and a sweep of n steps is filled in ceil(log2(n + 1))
array steps by composing that map with itself (doubling), which holds an
equilibrium to about an ulp; `integrate_profile` is its row view.
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
Grids are evaluated as arrays, BLOCK points at a time; a profile that
overflows the float range before it leaves its domain raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO, Union

import numpy as np

from .spectra import cic_from_spectrum

EPS_DOM = 1e-9            # breakdown threshold: the radicand (relative on grids), RK4's x^2 / x0^2
DEFAULT_WINDOW = (-10.0, 10.0)
DEFAULT_GRID = 2001
BLOCK = 4096              # grid points evaluated per array operation
RK4_STABLE_Q = 7.75       # |C|*step^2 bound: RK4's real-axis stability limit is 2.785^2
# steps per integrate_profile sweep: at the bound the array core peaks near 64 MB
# (16 MB per 2*10**6-float column), and the row view's 144-byte (s, x, x')
# tuples hold 290 MB more; the checks and the benchmark take 10**4
MAX_STEPS = 10**6


class DomainBreakdown(Exception):
    """The profile left its domain: delta - c*x^2 - x'^2 (or x^2) too small.

    Carries the offending value, the violated inequality as `reason` (by
    default the radicand against EPS_DOM) and, when known, the arclength s.
    """

    def __init__(self, value: float, s: float | None = None, message: str | None = None):
        self.value = value
        self.s = s
        self.reason = message or f"delta - c*x^2 - x'^2 = {value:.6e} <= {EPS_DOM}"
        super().__init__(self.reason + ("" if s is None else f" at s={s!r}"))


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
        if not math.isfinite(self.c):
            raise ValueError(f"ambient curvature must be finite, got {self.c}")
        if self.delta not in (-1, 0, 1):
            raise ValueError(f"delta must be -1, 0 or 1, got {self.delta}")
        if self.c >= 0 and self.delta != 1:
            raise ValueError(f"delta must be 1 when c >= 0, got delta={self.delta}")


def _sqrt_chain(u, up, upp):
    """(x, x', x'') for x = sqrt(u) given u and its derivatives."""
    x = np.sqrt(u)
    xp = up / (2.0 * x)
    return x, xp, (upp - 2.0 * xp * xp) / (2.0 * x)


class _SquareProfile:
    """A profile family given by its square: u(s) returns (u, u', u'') at an array s.

    ode_constant and ode_delta, the (C, delta) of its profile equation, are
    the family's fields C and delta, or 0 and 1 when it has none.
    """

    @property
    def ode_constant(self) -> float:
        return getattr(self, "C", 0.0)

    @property
    def ode_delta(self) -> int:
        return getattr(self, "delta", 1)

    def eval(self, s):
        """(x, x', x'') at s, a float (giving floats) or an array."""
        x, xp, xpp = _sqrt_chain(*self.u(np.asarray(s, dtype=float)))
        if np.ndim(s) == 0:
            return float(x), float(xp), float(xpp)
        return x, xp, xpp


@dataclass(frozen=True)
class TrigProfile(_SquareProfile):
    """u(s) = x(s)^2 = (2/C) * (1 - alpha*sin(sqrt(C)*s)) with C > 0, 0 <= alpha < 1."""

    C: float
    alpha: float

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError(f"Trig profile needs C > 0, got {self.C}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"Trig profile needs 0 <= alpha < 1, got {self.alpha}")

    def u(self, s):
        a, k = math.sqrt(self.C), 2.0 / self.C
        sn = np.sin(a * s)
        ka = k * self.alpha * a
        return k * (1.0 - self.alpha * sn), -ka * np.cos(a * s), ka * a * sn


@dataclass(frozen=True)
class ParabolicProfile(_SquareProfile):
    """u(s) = x(s)^2 = s^2 + beta with beta > 0."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"Parabolic profile needs beta > 0, got {self.beta}")

    def u(self, s):
        return s * s + self.beta, 2.0 * s, np.full_like(s, 2.0)


@dataclass(frozen=True)
class ExponentialProfile(_SquareProfile):
    """u(s) = x(s)^2 = (2/-C) * (A*e^(a*s) + B*e^(-a*s) - delta), a = sqrt(-C).

    Requires C < 0, A >= 0, B >= 0 with A + B > delta and 4AB > delta^2,
    which keeps u positive on all of R.
    """

    C: float
    A: float
    B: float
    delta: int = 1

    def __post_init__(self):
        if not self.C < 0:
            raise ValueError(f"Exponential profile needs C < 0, got {self.C}")
        if self.delta not in (-1, 0, 1):
            raise ValueError(f"delta must be -1, 0 or 1, got {self.delta}")
        if self.A < 0 or self.B < 0:
            raise ValueError(f"Exponential profile needs A, B >= 0, got A={self.A}, B={self.B}")
        if not self.A + self.B > self.delta:
            raise ValueError(f"Exponential profile needs A + B > delta, got {self.A + self.B} <= {self.delta}")
        if not 4.0 * self.A * self.B > self.delta * self.delta:
            raise ValueError(
                f"Exponential profile needs 4AB > delta^2, got {4.0 * self.A * self.B} <= {self.delta * self.delta}"
            )

    def u(self, s):
        a, k = math.sqrt(-self.C), 2.0 / -self.C
        ep, em = self.A * np.exp(a * s), self.B * np.exp(-a * s)
        return k * (ep + em - self.delta), k * a * (ep - em), k * a * a * (ep + em)


@dataclass(frozen=True)
class QuadraticProfile(_SquareProfile):
    """u(s) = x(s)^2 = s^2 + A*s + B with B > 0 and A^2/(4B) < 1."""

    A: float
    B: float

    def __post_init__(self):
        if not self.B > 0:
            raise ValueError(f"Quadratic profile needs B > 0, got {self.B}")
        if not self.A * self.A / (4.0 * self.B) < 1.0:
            raise ValueError(
                f"Quadratic profile needs A^2/(4B) < 1, got {self.A * self.A / (4.0 * self.B)}"
            )

    def u(self, s):
        return s * s + self.A * s + self.B, 2.0 * s + self.A, np.full_like(s, 2.0)


ProfileFamily = Union[TrigProfile, ParabolicProfile, ExponentialProfile, QuadraticProfile]


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


def principal_curvatures(
    ambient: AmbientSpec, x: float, xp: float, xpp: float, s: float | None = None
) -> tuple[float, float]:
    """(lambda, mu) of the rotation hypersurface at a profile point.

    lambda carries the sign convention lambda <= 0.  Raises DomainBreakdown
    when the radicand delta - c*x^2 - x'^2, computed directly from the
    point, is not above EPS_DOM.
    """
    if not x > 0:
        raise ValueError(f"profile value must be positive, got x={x}")
    d = ambient.delta - ambient.c * x * x - xp * xp
    if d <= EPS_DOM:
        raise DomainBreakdown(d, s=s)
    rd = math.sqrt(d)
    return -rd / x, (xpp + ambient.c * x) / rd


def ode_residual(f: ProfileFamily, C: float, delta: int, s, h: float):
    """|central difference of x*x' minus (delta - (C/2)*x^2)| at s, step h.

    s is a float or an array.  O(h^2) small when (C, delta) match the
    family; order one otherwise.
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    x_lo, v_lo, _ = f.eval(s - h)
    x_hi, v_hi, _ = f.eval(s + h)
    x_mid, _, _ = f.eval(s)
    lhs = (x_hi * v_hi - x_lo * v_lo) / (2.0 * h)
    rhs = delta - 0.5 * C * x_mid * x_mid
    return abs(lhs - rhs)


def _grid(window: tuple[float, float], n: int) -> Iterator[np.ndarray]:
    """Blocks of the grid lo + i*step, i < n; the window is checked on the call."""
    lo, hi = window
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ValueError(f"window must be finite with lo < hi, got {window}")
    step = (hi - lo) / (n - 1)
    return (lo + np.arange(i, min(i + BLOCK, n)) * step for i in range(0, n, BLOCK))


def _evaluate(f: ProfileFamily, ambient: AmbientSpec, s: np.ndarray, window: tuple[float, float]):
    """(k, columns, failure) at the grid points s, by the first-integral radicand.

    k indexes the first invalid point (len(s) if none) and failure is its
    DomainBreakdown (None if none); columns are x, x', x'', lambda, mu and
    the isotropic value on all of s.  Raises ValueError when the profile
    overflows the float range at or before its first invalid point.
    """
    C, c = f.ode_constant, ambient.c
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        (u0,), (v0,), _ = f.u(np.zeros(1))
        e = v0 * v0 - 4.0 * f.ode_delta * u0 + C * u0 * u0
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
        return k, columns, DomainBreakdown(float(u[k]), at, f"x^2 = {u[k]:.6e} <= 0")
    reason = (
        f"delta - c*x^2 - x'^2 = {d[k]:.6e} <= {bound[k] / (4.0 * u[k]):.6e} "
        f"(c*x^2 + x'^2 = {c * x[k] * x[k] + xp[k] * xp[k]:.6e} vs delta = {ambient.delta})"
    )
    return k, columns, DomainBreakdown(float(d[k]), at, reason)


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
    for s in _grid(s_window, grid_n):
        failure = _evaluate(f, ambient, s, s_window)[2]
        if failure is not None:
            return FirstFailure(failure.s, failure.reason)
    return None


def profile_samples(
    f: ProfileFamily,
    ambient: AmbientSpec,
    s_window: tuple[float, float] = DEFAULT_WINDOW,
    grid_n: int = DEFAULT_GRID,
) -> Iterator[ProfileSample]:
    """Lazily sample lambda, mu and the isotropic value along the profile.

    The window and grid are validated by this call, before any sample is
    produced; the iterator raises DomainBreakdown at the first invalid point,
    or ValueError when the profile overflows the float range before it.
    """
    blocks = _grid(s_window, grid_n)

    def samples() -> Iterator[ProfileSample]:
        for s in blocks:
            k, columns, failure = _evaluate(f, ambient, s, s_window)
            yield from map(ProfileSample, *(col[:k].tolist() for col in (s, *columns)))
            if failure is not None:
                raise failure

    return samples()


def cic_along_profile(
    f: ProfileFamily,
    ambient: AmbientSpec,
    s_window: tuple[float, float] = DEFAULT_WINDOW,
    grid_n: int = DEFAULT_GRID,
) -> tuple[list[ProfileSample], float]:
    """Sample lambda, mu and the isotropic value along the profile.

    Returns the samples and the maximum deviation of the isotropic value
    from its grid mean.  Propagates DomainBreakdown from invalid points.
    """
    samples = list(profile_samples(f, ambient, s_window, grid_n))
    return samples, cic_mean_deviation(samples)[1]


def cic_mean_deviation(samples: Iterable[ProfileSample]) -> tuple[float, float]:
    """Mean of the isotropic value over samples and its maximum deviation from it.

    Reads the samples once, keeping their count, their sum (one sum() in
    sample order) and the least and greatest value, so a stream of any
    length takes constant memory.  Rounding is monotone, so the deviation
    max(hi - mean, mean - lo) is max |cic - mean| over the samples, bitwise.
    """
    count, lo, hi = 0, math.inf, -math.inf

    def cics() -> Iterator[float]:
        nonlocal count, lo, hi
        for p in samples:
            cic = p.cic
            count += 1
            if cic < lo:
                lo = cic
            if cic > hi:
                hi = cic
            yield cic

    mean = sum(cics()) / count
    return mean, max(hi - mean, mean - lo)


def _sweep(w: np.ndarray, C: float, delta: int, h: float) -> int | None:
    """Fill w[:, 1:] with steps of size h from w[:, 0], w = (u, u').

    The rows are filled by doubling: with the k-step map
    w <- w + (D_k w + t_k), D_k = M^k - I, rows [k, 2k) are rows [0, k)
    mapped at once, then (D, t) <- (D^2 + 2D, D t + 2t); when the composed
    map is no longer finite the stride stays at k.  Returns the index of
    the first row where x^2 reaches 1e-9 of x0^2 (None if none), leaving
    the rows after it unfilled; raises ValueError at the first row where u
    or u' is not finite.
    """
    q = C * h * h
    d00 = d11 = -q / 2.0 + q * q / 24.0
    d01 = h * (1.0 - q / 6.0)
    d10 = -C * d01
    t0, t1 = delta * h * h * (1.0 - q / 12.0), 2.0 * delta * h * (1.0 - q / 6.0)
    nsteps, floor = w.shape[1] - 1, EPS_DOM * w[0, 0]
    filled = k = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while filled <= nsteps:
            m = min(k, nsteps + 1 - filled)
            u, v = w[:, filled - k : filled - k + m]
            bu, bv = w[:, filled : filled + m]
            np.add(u, (d00 * u + d01 * v) + t0, out=bu)
            np.add(v, (d10 * u + d11 * v) + t1, out=bv)
            # min and max propagate NaN, so only a block of good rows passes
            if not (floor < bu.min() and bu.max() < math.inf and abs(bv).max() < math.inf):
                i = int(np.flatnonzero(~((bu > floor) & (bu < math.inf) & np.isfinite(bv)))[0])
                if not (math.isfinite(bu[i]) and math.isfinite(bv[i])):
                    raise ValueError(
                        f"integrated profile overflows the float range at s={(filled + i) * h!r}: "
                        f"C = {C!r}, step = {abs(h)!r}"
                    )
                return filled + i
            filled += m
            if filled == 2 * k:
                nxt = (
                    d00 * d00 + d01 * d10 + 2.0 * d00, d00 * d01 + d01 * d11 + 2.0 * d01,
                    d10 * d00 + d11 * d10 + 2.0 * d10, d10 * d01 + d11 * d11 + 2.0 * d11,
                    d00 * t0 + d01 * t1 + 2.0 * t0, d10 * t0 + d11 * t1 + 2.0 * t1,
                )
                if all(map(math.isfinite, nxt)):
                    d00, d01, d10, d11, t0, t1 = nxt
                    k *= 2
    return None


def integrate_profile_arrays(
    C: float,
    delta: int,
    x0: float,
    v0: float,
    s_max: float,
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the profile equation outward from s = 0 over [-s_max, s_max].

    Works in the substitution u = x^2, where the equation is the linear
    system z' = L z + g with z = (u, u'), L = [[0, 1], [-C, 0]], g = (0, 2*delta).
    There one classical RK4 step of size h is exactly z <- z + (D z + b),
    D = M - I, M being the RK4 stability polynomial of hL: for q = C*h^2,
    D00 = D11 = -q/2 + q^2/24, D01 = h(1 - q/6), D10 = -C*D01 and
    b = (delta*h^2*(1 - q/12), 2*delta*h*(1 - q/6)).  The scheme, its order
    and its error are RK4's; |q| above RK4_STABLE_Q is outside its
    stability range and rejected, and so is s_max / step above MAX_STEPS.

    A sweep of n steps is filled in ceil(log2(n + 1)) array steps by
    composing the step map (doubling, as in a parallel prefix): rows
    [k, 2k) are rows [0, k) under the k-step map, kept as M^k - I so that
    its small entries keep their digits.  Each row is reached through at
    most log2(n) composed maps, each as rounded as the squarings that built
    it, so the error grows about like n*eps of the sweep's size of (u, u'),
    as with n single steps.  It is absolute at that size: where u falls far
    below it, near a crossing, x keeps fewer digits than a step loop gives
    (1e-11 relative at x = 0.1 after u fell from 9, against 1e-15), and an
    equilibrium u = 2*delta/C, which RK4 keeps exactly, drifts by about an
    ulp.

    Returns arrays (s, x, x') sorted by s.  Raises NonPositiveProfile
    (carrying the partial samples before it) at the first step where x^2
    reaches 1e-9 of x0^2, forward sweep first, and ValueError naming s and
    the step at the first step where u or u' overflows the float range.
    """
    for name, value in (("C", C), ("x0", x0), ("v0", v0), ("s_max", s_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if delta not in (-1, 0, 1):
        raise ValueError(f"delta must be -1, 0 or 1, got {delta}")
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
    z = np.empty((2, 2 * nsteps + 1))  # (u, u') at s = -nsteps*step .. nsteps*step
    z[:, nsteps] = x0 * x0, 2.0 * x0 * v0
    lo, hi = 0, 2 * nsteps + 1
    for h, w in ((step, z[:, nsteps:]), (-step, z[:, nsteps::-1])):
        stop = _sweep(w, C, delta, h)
        if stop is not None:
            lo, hi = (nsteps, nsteps + stop) if h > 0 else (nsteps - stop + 1, hi)
            break
    s = np.arange(lo - nsteps, hi - nsteps, dtype=float)
    s *= step
    x, xp = z[:, lo:hi]  # converted in place: (u, u') -> (x, x')
    np.sqrt(x, out=x)
    np.divide(xp, 2.0 * x, out=xp)
    x[nsteps - lo], xp[nsteps - lo] = x0, v0  # the origin row is the input itself
    if stop is not None:
        raise NonPositiveProfile(stop * h, _rows(s, x, xp))
    return s, x, xp


def _rows(s: np.ndarray, x: np.ndarray, xp: np.ndarray) -> list[tuple[float, float, float]]:
    """The (s, x, x') tuples of three equal-length columns."""
    return list(zip(s.tolist(), x.tolist(), xp.tolist()))


def integrate_profile(
    C: float,
    delta: int,
    x0: float,
    v0: float,
    s_max: float,
    step: float,
) -> list[tuple[float, float, float]]:
    """The row view of `integrate_profile_arrays`: (s, x, x') tuples sorted by s.

    Same arguments, validation and exceptions.  Each sweep is filled by
    doubling the RK4 step map, so each row carries the rounding of at most
    log2(n) composed maps and an equilibrium holds to about an ulp, not
    exactly (see `integrate_profile_arrays`); the tuples are built from
    those arrays and match them bitwise.
    """
    return _rows(*integrate_profile_arrays(C, delta, x0, v0, s_max, step))


def write_profile_csv(samples: Iterable[ProfileSample], out: TextIO) -> None:
    """Emit `s,x,xp,lambda,mu,cic` rows with round-trip decimal formatting."""
    out.write("s,x,xp,lambda,mu,cic\n")
    for p in samples:
        out.write(f"{p.s!r},{p.x!r},{p.xp!r},{p.lam!r},{p.mu!r},{p.cic!r}\n")
