"""Decision module mapping (n, c, C) to the complete hypersurfaces of that
constant isotropic curvature in the space form of curvature c, with the
minimal case beside it.

`classify` decides each query in three parts.  The umbilical part, for
every n, is decided from C against 4c.  At n = 4 one rotation-hypersurface
family joins it, chosen by the sign of C, whose profile solves
(x*x')' = delta - (C/2)*x^2.  When both parts are empty the query has one
Empty outcome with its obstruction and, at n = 4, the candidate that
`nonexistence_witness` breaks.  `minimal_classify` takes its C-vs-4c side
from the same comparison.

The profile equation is invariant under s -> s + t, so each rotation
outcome, one per (family, delta), gives its complete members as one
parameter in one Interval, whose ends are where N (`profiles`) vanishes at
an end of the family's range of u.

Branch boundaries sit at C = 2c, C = 4c and C = 0 (and 8c/3 for the
Clifford product), so comparisons are exact when the inputs are exact
(int / Fraction) and otherwise within BOUNDARY_TOL * max(|c|, |C|), so
scaling (c, C) by t > 0 does not change the branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Union

from .profiles import (
    DEFAULT_GRID,
    FAMILIES,
    AmbientSpec,
    ExponentialProfile,
    FirstFailure,
    ParabolicProfile,
    ProfileFamily,
    QuadraticProfile,
    TrigProfile,
    domain_check,
)
from .spectra import check_dimension

Number = Union[int, float, Fraction]

BOUNDARY_TOL = 1e-12       # branch-boundary tolerance, relative to max(|c|, |C|)

EMPTY = "Empty"
TOTALLY_GEODESIC = "TotallyGeodesic"
UMBILICAL = "UmbilicalNonTG"
CONSTANT_CURVATURE = "ConstantCurvature"
FLAT_LOCAL = "FlatLocal"
ROTATION_FAMILY = "RotationFamily"


def _is_exact(v) -> bool:
    return isinstance(v, Rational) and not isinstance(v, bool)


def _boundary_tol(c, C) -> float:
    """Float boundary tolerance at the scale of (c, C)."""
    return BOUNDARY_TOL * max(abs(float(c)), abs(float(C)))


def _cmp(lhs, rhs, tol: float) -> int:
    """-1, 0 or +1 for lhs vs rhs; exact when both sides are rational."""
    if _is_exact(lhs) and _is_exact(rhs):
        diff = Fraction(lhs) - Fraction(rhs)
        return (diff > 0) - (diff < 0)
    diff = float(lhs) - float(rhs)
    if abs(diff) <= tol:
        return 0
    return 1 if diff > 0 else -1


@dataclass(frozen=True)
class ClassQuery:
    """Classification input: hypersurface dimension n, an integer >= 4, ambient
    curvature c and isotropic constant C, both finite."""

    n: int
    c: Number
    C: Number

    def __post_init__(self):
        check_dimension(self.n)
        for name in ("c", "C"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int or Fraction beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Interval:
    """Parameter range; hi=None means unbounded above."""

    lo: float
    hi: float | None
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        if self.hi is not None and not self.hi > self.lo:
            raise ValueError(f"empty parameter interval [{self.lo}, {self.hi}]")

    def to_json(self) -> dict:
        d: dict = {"lo": self.lo, "lo_open": self.lo_open}
        if self.hi is not None:
            d["hi"] = self.hi
        d["hi_open"] = self.hi_open
        return d


@dataclass(frozen=True)
class ClassificationOutcome:
    """One branch of the classification: its parameter constraints (the JSON
    form) and its witness profile or obstruction.  A rotation outcome's
    family and rotation type are its witness's."""

    tag: str
    reason: str = ""                      # Empty outcomes: the violated bound
    parameter: str = ""                   # rotation outcomes: alpha|beta|u_min|g
    interval: Interval | None = None      # rotation outcomes: the complete members' parameters
    lambda_sq: float | None = None        # umbilical outcomes: lambda^2
    curvature: float | None = None        # constant-curvature outcomes
    profile: ProfileFamily | None = None  # rotation: the witness; n = 4 Empty: the candidate
    mechanism: str = ""                   # Empty outcomes: the obstruction's tag
    detail: str = ""                      # Empty outcomes: the obstruction with its numbers

    @property
    def family(self) -> str | None:
        """trig|parabolic|exponential|quadratic for a rotation outcome, else None."""
        if self.tag != ROTATION_FAMILY:
            return None
        return next(name for name, kind in FAMILIES.items() if type(self.profile) is kind)

    def to_json(self) -> dict:
        d: dict = {"tag": self.tag}
        if self.reason:
            d["reason"] = self.reason
        constraints: dict = {}
        if self.tag == ROTATION_FAMILY:
            d["family"] = self.family
            d["ode_constant"] = self.profile.ode_constant
            d["delta"] = self.profile.ode_delta
            constraints[self.parameter] = self.interval.to_json()
        if self.lambda_sq is not None:
            constraints["lambda_sq"] = self.lambda_sq
        if self.curvature is not None:
            constraints["curvature"] = self.curvature
        d["constraints"] = constraints
        return d


@dataclass(frozen=True)
class NonexistenceEvidence:
    """Computational witness that an Empty branch admits no complete example."""

    mechanism: str                        # short tag naming the obstruction
    detail: str                           # human-readable account with numbers
    candidate: ProfileFamily | None       # the profile the branch would need
    ambient: AmbientSpec | None
    failure: FirstFailure | None          # grid point where the candidate breaks


class MinimalKind(Enum):
    NONE = "None"
    TOTALLY_GEODESIC = "TotallyGeodesic"
    CLIFFORD = "Clifford"


@dataclass(frozen=True)
class MinimalVerdict:
    """Outcome of the minimal-hypersurface analysis for given (n, c, C)."""

    kind: MinimalKind
    lam: float | None = None
    mu: float | None = None
    x0: float | None = None  # constant profile height, Clifford only


def _side_of_4c(c, C) -> int:
    """-1, 0 or +1 for C against 4c, where the umbilical part changes."""
    return _cmp(C, 4 * c, _boundary_tol(c, C))


def _rotation(profile: ProfileFamily, parameter: str, interval: Interval) -> ClassificationOutcome:
    return ClassificationOutcome(ROTATION_FAMILY, parameter=parameter, interval=interval, profile=profile)


def _rotation_outcomes(c_sign: int, C_sign: int, cf: float, Cf: float, vs4c: int, vs2c: int):
    """The n = 4 rotation outcomes for the sign of C: trig above 0,
    parabolic (flat) or quadratic (hyperbolic) at 0, and below 0 one
    exponential outcome per delta in (1, 0, -1).  Below 4c trig's alpha
    ends at C/(2c) - 1, where N vanishes at u_max; at or below 2c so does
    delta = -1's g, where N vanishes at u_min (at 0 when C is 2c within
    the tolerance)."""
    if C_sign > 0:
        hi = Cf / (2.0 * cf) - 1.0 if vs4c < 0 else 1.0
        return [_rotation(TrigProfile(C=Cf, alpha=hi / 2.0), "alpha", Interval(0.0, hi, lo_open=False))]
    if C_sign == 0:
        if c_sign == 0:
            return [_rotation(ParabolicProfile(beta=1.0), "beta", Interval(0.0, None))]
        return [_rotation(QuadraticProfile(A=0.0, B=1.0), "u_min", Interval(0.0, None))]
    g_lo = Cf / (2.0 * cf) - 1.0 if vs2c < 0 else 0.0
    ends = {1: Interval(1.0, None), 0: Interval(0.0, None), -1: Interval(g_lo, None, lo_open=vs2c <= 0)}
    return [_rotation(ExponentialProfile(C=Cf, A=1.0, B=1.0, delta=d), "g", ends[d]) for d in (1, 0, -1)]


def _empty(reason: str, mechanism: str, detail: str, candidate: ProfileFamily | None = None):
    return ClassificationOutcome(EMPTY, reason, mechanism=mechanism, detail=detail, profile=candidate)


_ORIGIN = "already at s = 0"


def _at_origin(candidate: str, bound: str, value: float) -> str:
    """Detail of a candidate with x'(0) = 0 whose c*x(0)^2 already reaches 1."""
    return (
        f"{candidate}: c*x(0)^2 = {bound} = {value:.6f} >= 1, "
        f"so the curvature radicand is non-positive {_ORIGIN}"
    )


def _obstruction(n: int, c, C, c_sign: int, C_sign: int) -> ClassificationOutcome:
    """The Empty outcome of a query with neither part: its violated bound,
    its obstruction and, at n = 4, the candidate of the rotation family for
    the sign of C."""
    cf, Cf = float(c), float(C)
    lambda_sq = Cf / 4.0 - cf  # what an umbilical outcome would need to be >= 0
    if n >= 5:
        return _empty(
            f"C < 4c for n = {n} >= 5: umbilical needs lambda^2 = (C-4c)/4 >= 0 "
            "and constant curvature needs C = 4c",
            "algebraic",
            f"n = {n} >= 5: umbilical needs lambda^2 = (C-4c)/4 = {lambda_sq:.6e} >= 0 "
            "and constant curvature needs C = 4c; no profile candidate exists",
        )
    if c_sign < 0:
        return _empty(
            "C < 4c in a negatively curved ambient: lambda^2 -> -c + C/4 < 0 "
            "for |s| large, so no candidate profile stays valid",
            "asymptotic-negative",
            f"lambda^2 -> -c + C/4 = {lambda_sq:.6f} < 0 as |s| -> infinity, "
            "so the curvature radicand eventually goes negative",
            ExponentialProfile(C=Cf, A=1.0, B=1.0, delta=1),
        )
    reason = (
        "C < 0 is impossible in a flat ambient" if c_sign == 0 else
        "C <= 2c in a positively curved ambient: the profile domain "
        "fails at s = 0 where c*x^2 = 2c/C >= 1"
    )
    if C_sign < 0:
        # the candidate has x(0)^2 = 2/|C| and x'(0) = 0, so it fails at s = 0 when 2c >= |C|
        if 2 * c >= -C:
            detail = _at_origin("candidate x(0) = sqrt(2/|C|), x'(0) = 0", "2c/|C|", 2.0 * cf / -Cf)
        else:
            detail = "the profile slope reaches |x'| >= 1 at moderate |s|, violating unit speed"
        return _empty(reason, "unit-speed", detail, ExponentialProfile(C=Cf, A=1.0, B=1.0, delta=1))
    if C_sign == 0:
        detail = (
            _at_origin("candidate x = sqrt(s^2 + 1)", "c", cf) if c >= 1
            else "c*x^2 = c*(s^2 + beta) exceeds 1 for large |s|, killing the curvature radicand"
        )
        return _empty(reason, "unbounded-growth", detail, ParabolicProfile(beta=1.0))
    return _empty(
        reason,
        "positive-bound-at-origin",
        _at_origin("constant candidate x = sqrt(2/C)", "2c/C", 2.0 * cf / Cf),
        TrigProfile(C=Cf, alpha=0.0),
    )


def classify(q: ClassQuery) -> list[ClassificationOutcome]:
    """All branches compatible with (n, c, C); a single Empty outcome with
    the violated bound, its obstruction and (n = 4) candidate profile when
    no complete hypersurface exists.

    The umbilical part, for every n: umbilical with lambda^2 = (C - 4c)/4
    above C = 4c; totally geodesic (c > 0) or of constant curvature c
    (c <= 0; FlatLocal at n = 4, c = C = 0) on it.  The rotation outcomes,
    at n = 4 only, wherever C >= 4c or C > 2c, each with one parameter:
    trig's alpha in [0, C/(2c) - 1) below 4c and [0, 1) above; parabolic
    beta and quadratic u_min in (0, inf); exponential g = 2*sqrt(AB) in
    (1, inf) for delta = 1, (0, inf) for delta = 0 and, for delta = -1,
    [0, inf) above 2c and (C/(2c) - 1, inf) at or below it.  Witnesses take
    the midpoint of the alpha range, else beta = 1, (A, B) = (0, 1) or
    A = B = 1 with the outcome's delta.  A C matched to 4c within the
    tolerance is taken as 4c, and at n = 4 a c or C matched to 0 as 0.
    """
    n, c, C = q.n, q.c, q.C
    tol = _boundary_tol(c, C)
    vs4c, c_sign, C_sign = _side_of_4c(c, C), _cmp(c, 0, tol), _cmp(C, 0, tol)
    cf, Cf = float(c), float(C)
    if n == 4:
        cf, Cf = (cf if c_sign else 0.0), (Cf if C_sign else 0.0)
    if vs4c == 0:
        Cf = 4.0 * cf

    outcomes = []
    if vs4c > 0:  # C = 4c + 4 lambda^2 for the spectrum (lambda^n); C/4 - c, as 4c can overflow
        outcomes.append(ClassificationOutcome(tag=UMBILICAL, lambda_sq=Cf / 4.0 - cf))
    elif vs4c == 0:
        tag = TOTALLY_GEODESIC if c_sign > 0 else FLAT_LOCAL if n == 4 and c_sign == 0 else CONSTANT_CURVATURE
        outcomes.append(ClassificationOutcome(tag, curvature=cf if tag == CONSTANT_CURVATURE else None))
    vs2c = _cmp(C, 2 * c, tol)
    if n == 4 and (vs4c >= 0 or vs2c > 0):
        outcomes += _rotation_outcomes(c_sign, C_sign, cf, Cf, vs4c, vs2c)
    return outcomes or [_obstruction(n, c, C, c_sign, C_sign)]


def minimal_classify(n: int, c: Number, C: Number) -> MinimalVerdict:
    """Which minimal hypersurface, if any, has isotropic constant C.

    Minimality forces lambda = -sqrt(c - C/4), so C <= 4c is necessary.
    At C = 4c the shape operator vanishes (totally geodesic): exactly where
    `classify` lists a TotallyGeodesic, ConstantCurvature or FlatLocal
    outcome, from the same comparison.  Below 4c the only surviving case is
    n = 4, c > 0 with C = 8c/3: the Clifford product of a 3-sphere and a
    circle, of constant profile sqrt(3/(4c)), the alpha = 0 trig member.
    8c/3 is matched as 4c is: exactly for exact inputs, else within
    BOUNDARY_TOL * max(|c|, |C|).  n is checked as ClassQuery checks it.
    """
    check_dimension(n)
    if _side_of_4c(c, C) == 0:
        return MinimalVerdict(MinimalKind.TOTALLY_GEODESIC, lam=0.0, mu=0.0)
    if n == 4 and c > 0 and _cmp(C, Fraction(8, 3) * c, _boundary_tol(c, C)) == 0:
        lam = -math.sqrt(c / 3.0)
        return MinimalVerdict(MinimalKind.CLIFFORD, lam=lam, mu=-3.0 * lam, x0=math.sqrt(3.0 / (4.0 * c)))
    return MinimalVerdict(MinimalKind.NONE)


def witness(outcome: ClassificationOutcome, q: ClassQuery) -> ProfileFamily | str:
    """The witness profile `classify` attached to a rotation outcome, else
    the outcome's symbolic tag.  q, the outcome's query, is not consulted:
    the outcome already carries everything its branch fixed."""
    return outcome.profile if outcome.tag == ROTATION_FAMILY else outcome.tag


def nonexistence_witness(
    q: ClassQuery, s_max: float | None = None, grid_n: int = DEFAULT_GRID
) -> NonexistenceEvidence:
    """Exhibit the obstruction of an Empty query: the domain failure of the
    candidate profile `classify` attached, scanning s in [0, s_max].

    s_max defaults to 20 / sqrt(max(|c|, |C|)), the query's own length
    scale, so scaling (c, C) scales the window with the failure point.
    Rejected with ValueError when classify(q) is non-empty.  For n >= 5 the
    obstruction is algebraic (no profile family is involved) and the
    evidence carries no candidate.

    When the scan fails at the window's start but classify's detail
    accounts for a failure further out (c*x(0)^2 or 2c/|C| just below 1,
    inside the radicand's tolerance), the detail says so instead, with the
    radicand and its threshold.
    """
    empty = classify(q)[0]
    if empty.tag != EMPTY:
        raise ValueError(f"classify({q.n}, {q.c}, {q.C}) is non-empty; nothing to refute")
    candidate = empty.profile
    if candidate is None:
        return NonexistenceEvidence(empty.mechanism, empty.detail, None, None, None)
    if s_max is None:
        s_max = 20.0 / math.sqrt(max(abs(float(q.c)), abs(float(q.C))))
    window = (0.0, s_max)
    ambient = AmbientSpec(c=float(q.c), delta=1)
    failure = domain_check(candidate, ambient, window, grid_n)
    if failure is None:
        raise AssertionError(
            f"candidate {candidate!r} unexpectedly valid on {window}; obstruction not reproduced"
        )
    detail = empty.detail
    if failure.s == window[0] and _ORIGIN not in detail:
        detail = f"the candidate fails within tolerance {_ORIGIN}, the window's start: {failure.reason}"
    return NonexistenceEvidence(empty.mechanism, detail, candidate, ambient, failure)


def query_to_json(q: ClassQuery, outcomes: list[ClassificationOutcome]) -> dict:
    """JSON form of a classification result: query echo plus outcome list."""
    return {
        "query": {"n": q.n, "c": float(q.c), "C": float(q.C)},
        "outcomes": [o.to_json() for o in outcomes],
    }
