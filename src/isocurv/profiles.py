"""Rotation-hypersurface profile curves and their principal curvatures.

Four closed-form profile families solve the reduced profile equation
(x*x')' = delta - (C/2)*x^2, one per sign regime of the constant C:

  * Trig         x(s) = sqrt(2/C)  * sqrt(1 - alpha*sin(sqrt(C)*s)),   C > 0
  * Parabolic    x(s) = sqrt(s^2 + beta),                              C = 0
  * Exponential  x(s) = sqrt(2/-C) * sqrt(A*e^(a*s) + B*e^(-a*s) - delta),
                 a = sqrt(-C),                                         C < 0
  * Quadratic    x(s) = sqrt(s^2 + A*s + B),                           C = 0

In the substitution u = x^2 the equation becomes linear, u'' = 2*delta - C*u,
which the fixed-step RK4 integrator here solves as an independent check on
the closed forms.  Principal curvatures of the generated hypersurface in an
ambient space form of curvature c are

    lambda = -sqrt(delta - c*x^2 - x'^2) / x
    mu     = (x'' + c*x) / sqrt(delta - c*x^2 - x'^2)

and the radicand going non-positive is the computational witness that a
candidate profile does not yield a complete hypersurface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO, Union

from .spectra import cic_from_spectrum

EPS_DOM = 1e-9            # breakdown threshold for delta - c*x^2 - x'^2
DEFAULT_WINDOW = (-10.0, 10.0)
DEFAULT_GRID = 2001


class DomainBreakdown(Exception):
    """delta - c*x^2 - x'^2 dropped to or below EPS_DOM.

    Carries the offending radicand value and, when known, the arclength
    parameter at which it happened.
    """

    def __init__(self, value: float, s: float | None = None, message: str | None = None):
        self.value = value
        self.s = s
        where = "" if s is None else f" at s={s!r}"
        super().__init__(message or f"delta - c*x^2 - x'^2 = {value:.6e} <= {EPS_DOM}{where}")


class NonPositiveProfile(Exception):
    """Integrated profile square u = x^2 crossed the positivity threshold.

    Carries the crossing arclength and the samples accumulated before the
    crossing, sorted by s.
    """

    def __init__(self, s: float, samples: list[tuple[float, float, float]]):
        self.s = s
        self.samples = samples
        super().__init__(f"profile square u = x^2 reached {EPS_DOM} at s={s!r}")


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


def _sqrt_chain(scale: float, w: float, wp: float, wpp: float) -> tuple[float, float, float]:
    """(x, x', x'') for x = scale * sqrt(w) given w and its derivatives."""
    rw = math.sqrt(w)
    x = scale * rw
    xp = scale * wp / (2.0 * rw)
    xpp = scale * (wpp / (2.0 * rw) - wp * wp / (4.0 * w * rw))
    return x, xp, xpp


@dataclass(frozen=True)
class TrigProfile:
    """x(s) = sqrt(2/C) * sqrt(1 - alpha*sin(sqrt(C)*s)) with C > 0, 0 <= alpha < 1."""

    C: float
    alpha: float

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError(f"Trig profile needs C > 0, got {self.C}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"Trig profile needs 0 <= alpha < 1, got {self.alpha}")

    @property
    def ode_constant(self) -> float:
        return self.C

    @property
    def ode_delta(self) -> int:
        return 1

    def eval(self, s: float) -> tuple[float, float, float]:
        a = math.sqrt(self.C)
        w = 1.0 - self.alpha * math.sin(a * s)
        wp = -self.alpha * a * math.cos(a * s)
        wpp = self.alpha * a * a * math.sin(a * s)
        return _sqrt_chain(math.sqrt(2.0 / self.C), w, wp, wpp)


@dataclass(frozen=True)
class ParabolicProfile:
    """x(s) = sqrt(s^2 + beta) with beta > 0."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"Parabolic profile needs beta > 0, got {self.beta}")

    @property
    def ode_constant(self) -> float:
        return 0.0

    @property
    def ode_delta(self) -> int:
        return 1

    def eval(self, s: float) -> tuple[float, float, float]:
        return _sqrt_chain(1.0, s * s + self.beta, 2.0 * s, 2.0)


@dataclass(frozen=True)
class ExponentialProfile:
    """x(s) = sqrt(2/-C) * sqrt(A*e^(a*s) + B*e^(-a*s) - delta), a = sqrt(-C).

    Requires C < 0, A >= 0, B >= 0 with A + B > delta and 4AB > delta^2,
    which keeps the radicand positive on all of R.
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

    @property
    def ode_constant(self) -> float:
        return self.C

    @property
    def ode_delta(self) -> int:
        return self.delta

    def eval(self, s: float) -> tuple[float, float, float]:
        a = math.sqrt(-self.C)
        ep = self.A * math.exp(a * s)
        em = self.B * math.exp(-a * s)
        w = ep + em - self.delta
        wp = a * (ep - em)
        wpp = a * a * (ep + em)
        return _sqrt_chain(math.sqrt(2.0 / -self.C), w, wp, wpp)


@dataclass(frozen=True)
class QuadraticProfile:
    """x(s) = sqrt(s^2 + A*s + B) with B > 0 and A^2/(4B) < 1."""

    A: float
    B: float

    def __post_init__(self):
        if not self.B > 0:
            raise ValueError(f"Quadratic profile needs B > 0, got {self.B}")
        if not self.A * self.A / (4.0 * self.B) < 1.0:
            raise ValueError(
                f"Quadratic profile needs A^2/(4B) < 1, got {self.A * self.A / (4.0 * self.B)}"
            )

    @property
    def ode_constant(self) -> float:
        return 0.0

    @property
    def ode_delta(self) -> int:
        return 1

    def eval(self, s: float) -> tuple[float, float, float]:
        return _sqrt_chain(1.0, s * s + self.A * s + self.B, 2.0 * s + self.A, 2.0)


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


def _radicand(ambient: AmbientSpec, x: float, xp: float) -> float:
    """delta - c*x^2 - x'^2, which must stay above EPS_DOM for real curvatures."""
    return ambient.delta - ambient.c * x * x - xp * xp


def principal_curvatures(
    ambient: AmbientSpec, x: float, xp: float, xpp: float, s: float | None = None
) -> tuple[float, float]:
    """(lambda, mu) of the rotation hypersurface at a profile point.

    lambda carries the sign convention lambda <= 0.  Raises DomainBreakdown
    when the radicand delta - c*x^2 - x'^2 is not safely positive.
    """
    if not x > 0:
        raise ValueError(f"profile value must be positive, got x={x}")
    d = _radicand(ambient, x, xp)
    if d <= EPS_DOM:
        raise DomainBreakdown(d, s=s)
    rd = math.sqrt(d)
    return -rd / x, (xpp + ambient.c * x) / rd


def ode_residual(f: ProfileFamily, C: float, delta: int, s: float, h: float) -> float:
    """|central difference of x*x' minus (delta - (C/2)*x^2)| at s, step h.

    O(h^2) small when (C, delta) match the family; order one otherwise.
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    x_lo, v_lo, _ = f.eval(s - h)
    x_hi, v_hi, _ = f.eval(s + h)
    x_mid, _, _ = f.eval(s)
    lhs = (x_hi * v_hi - x_lo * v_lo) / (2.0 * h)
    rhs = delta - 0.5 * C * x_mid * x_mid
    return abs(lhs - rhs)


def _grid(window: tuple[float, float], n: int) -> list[float]:
    lo, hi = window
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ValueError(f"window must be finite with lo < hi, got {window}")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


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
        x, xp, _ = f.eval(s)
        if not x > 0:
            return FirstFailure(s, f"x = {x:.6e} <= 0")
        d = _radicand(ambient, x, xp)
        if d <= EPS_DOM:
            return FirstFailure(
                s,
                f"delta - c*x^2 - x'^2 = {d:.6e} <= {EPS_DOM} "
                f"(c*x^2 + x'^2 = {ambient.c * x * x + xp * xp:.6e} vs delta = {ambient.delta})",
            )
    return None


def _sample(f: ProfileFamily, ambient: AmbientSpec, s: float) -> ProfileSample:
    x, xp, xpp = f.eval(s)
    lam, mu = principal_curvatures(ambient, x, xp, xpp, s=s)
    cic = cic_from_spectrum(ambient.c, lam, mu)
    return ProfileSample(s=s, x=x, xp=xp, xpp=xpp, lam=lam, mu=mu, cic=cic)


def profile_samples(
    f: ProfileFamily,
    ambient: AmbientSpec,
    s_window: tuple[float, float] = DEFAULT_WINDOW,
    grid_n: int = DEFAULT_GRID,
) -> Iterator[ProfileSample]:
    """Lazily sample lambda, mu and the isotropic value along the profile.

    The window and grid are validated by this call, before any sample is
    produced; the iterator raises DomainBreakdown at the first invalid point.
    """
    return (_sample(f, ambient, s) for s in _grid(s_window, grid_n))


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
    mean = sum(p.cic for p in samples) / len(samples)
    deviation = max(abs(p.cic - mean) for p in samples)
    return samples, deviation


def integrate_profile(
    C: float,
    delta: int,
    x0: float,
    v0: float,
    s_max: float,
    step: float,
) -> list[tuple[float, float, float]]:
    """Integrate the profile equation outward from s = 0 over [-s_max, s_max].

    Works in the substitution u = x^2, where the equation is the linear
    system u'' = 2*delta - C*u, using classical fixed-step RK4; recovers
    (s, x, x') samples sorted by s.  Raises NonPositiveProfile (carrying
    partial samples) as soon as u crosses the positivity threshold in
    either sweep direction.
    """
    if not x0 > 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    nsteps = int(math.floor(s_max / step + 1e-9))

    def sweep(h: float) -> tuple[list[tuple[float, float, float]], float | None]:
        u = x0 * x0
        v = 2.0 * x0 * v0
        out = []
        twodelta = 2.0 * delta
        for i in range(1, nsteps + 1):
            k1u = v
            k1v = twodelta - C * u
            u2 = u + 0.5 * h * k1u
            v2 = v + 0.5 * h * k1v
            k2u = v2
            k2v = twodelta - C * u2
            u3 = u + 0.5 * h * k2u
            v3 = v + 0.5 * h * k2v
            k3u = v3
            k3v = twodelta - C * u3
            u4 = u + h * k3u
            v4 = v + h * k3v
            k4u = v4
            k4v = twodelta - C * u4
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            s = i * h
            if u <= EPS_DOM:
                return out, s
            rx = math.sqrt(u)
            out.append((s, rx, v / (2.0 * rx)))
        return out, None

    forward, s_cross_f = sweep(step)
    if s_cross_f is not None:
        partial = sorted(forward + [(0.0, x0, v0)])
        raise NonPositiveProfile(s_cross_f, partial)
    backward, s_cross_b = sweep(-step)
    if s_cross_b is not None:
        partial = sorted(backward + [(0.0, x0, v0)] + forward)
        raise NonPositiveProfile(s_cross_b, partial)
    return sorted(backward) + [(0.0, x0, v0)] + forward


def write_profile_csv(samples: Iterable[ProfileSample], out: TextIO) -> None:
    """Emit `s,x,xp,lambda,mu,cic` rows with round-trip decimal formatting."""
    out.write("s,x,xp,lambda,mu,cic\n")
    for p in samples:
        out.write(f"{p.s!r},{p.x!r},{p.xp!r},{p.lam!r},{p.mu!r},{p.cic!r}\n")
