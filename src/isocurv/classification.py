"""Decision tree mapping (n, c, C) to the complete hypersurfaces of that
constant isotropic curvature in the space form of curvature c.

For n >= 5 only umbilical hypersurfaces and constant-curvature ones occur;
every n = 4 branch adds a one-parameter rotation-hypersurface family whose
profile solves (x*x')' = delta - (C/2)*x^2.  Branch boundaries sit at
C = 2c, C = 4c and C = 0, so comparisons are exact when the inputs are
exact (int / Fraction) and otherwise within BOUNDARY_TOL * max(|c|, |C|),
so scaling (c, C) by t > 0 does not change the branch.

`witness` instantiates a rotation family at a canonical interior parameter
for numerical cross-checks; `nonexistence_witness` builds the candidate
profile a vacuous branch would need and exhibits its domain failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Union

from .profiles import (
    AmbientSpec,
    ExponentialProfile,
    FirstFailure,
    ParabolicProfile,
    ProfileFamily,
    QuadraticProfile,
    TrigProfile,
    domain_check,
)
from .spectra import BOUNDARY_TOL

Number = Union[int, float, Fraction]

EMPTY = "Empty"
TOTALLY_GEODESIC = "TotallyGeodesic"
UMBILICAL = "UmbilicalNonTG"
CONSTANT_CURVATURE = "ConstantCurvature"
FLAT_LOCAL = "FlatLocal"
ROTATION_FAMILY = "RotationFamily"


@dataclass(frozen=True)
class ClassQuery:
    """Classification input: hypersurface dimension n, ambient curvature c,
    isotropic constant C; c and C must be finite."""

    n: int
    c: Number
    C: Number

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"classification needs n >= 4, got {self.n}")
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
    """One branch of the classification with its parameter constraints."""

    tag: str
    reason: str = ""                      # Empty outcomes: the violated bound
    family: str | None = None             # rotation outcomes: trig|parabolic|exponential|quadratic
    ode_constant: float | None = None     # rotation outcomes: the profile-equation constant
    deltas: tuple[int, ...] | None = None  # admissible rotation types
    ranges: dict = field(default_factory=dict)   # parameter name -> Interval
    conditions: tuple[str, ...] = ()      # joint constraints not expressible as a box
    lambda_sq: float | None = None        # umbilical outcomes: lambda^2
    curvature: float | None = None        # constant-curvature outcomes

    def to_json(self) -> dict:
        d: dict = {"tag": self.tag}
        if self.reason:
            d["reason"] = self.reason
        constraints: dict = {}
        if self.family is not None:
            d["family"] = self.family
            d["ode_constant"] = self.ode_constant
            d["deltas"] = list(self.deltas or ())
        for name, rng in self.ranges.items():
            constraints[name] = rng.to_json()
        if self.conditions:
            constraints["conditions"] = list(self.conditions)
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


def _is_exact(v: Number) -> bool:
    return isinstance(v, Rational) and not isinstance(v, bool)


def _boundary_tol(q: ClassQuery) -> float:
    """Float boundary tolerance at the query's own scale."""
    return BOUNDARY_TOL * max(abs(float(q.c)), abs(float(q.C)))


def _cmp(lhs: Number, rhs: Number, tol: float) -> int:
    """-1, 0 or +1 for lhs vs rhs; exact when both sides are rational."""
    if _is_exact(lhs) and _is_exact(rhs):
        diff = Fraction(lhs) - Fraction(rhs)
        return (diff > 0) - (diff < 0)
    diff = float(lhs) - float(rhs)
    if abs(diff) <= tol:
        return 0
    return 1 if diff > 0 else -1


def _trig_outcome(C: float, alpha_range: Interval) -> ClassificationOutcome:
    return ClassificationOutcome(
        tag=ROTATION_FAMILY,
        family="trig",
        ode_constant=C,
        deltas=(1,),
        ranges={"alpha": alpha_range},
    )


def _exponential_outcome(C: float) -> ClassificationOutcome:
    return ClassificationOutcome(
        tag=ROTATION_FAMILY,
        family="exponential",
        ode_constant=C,
        deltas=(1, 0, -1),
        ranges={"A": Interval(0.0, None, lo_open=False), "B": Interval(0.0, None, lo_open=False)},
        conditions=("A + B > delta", "4*A*B > delta^2"),
    )


def classify(q: ClassQuery) -> list[ClassificationOutcome]:
    """All branches compatible with (n, c, C); a single Empty outcome with
    the violated bound when no complete hypersurface exists."""
    n, c, C = q.n, q.c, q.C
    cf, Cf = float(c), float(C)
    tol = _boundary_tol(q)
    vs4c = _cmp(C, 4 * c, tol)
    umbilic_sq = (Cf - 4.0 * cf) / 4.0  # C = 4c + 4 lambda^2 for the spectrum (lambda^n)

    if n >= 5:
        if vs4c > 0:
            return [ClassificationOutcome(tag=UMBILICAL, lambda_sq=umbilic_sq)]
        if vs4c == 0:
            if cf > 0:
                return [ClassificationOutcome(tag=TOTALLY_GEODESIC)]
            return [ClassificationOutcome(tag=CONSTANT_CURVATURE, curvature=cf)]
        return [
            ClassificationOutcome(
                tag=EMPTY,
                reason=f"C < 4c for n = {n} >= 5: umbilical needs lambda^2 = (C-4c)/4 >= 0 "
                "and constant curvature needs C = 4c",
            )
        ]

    vs0_c = _cmp(c, 0, tol)
    vs0_C = _cmp(C, 0, tol)

    if vs0_c == 0:  # flat ambient
        if vs0_C < 0:
            return [ClassificationOutcome(tag=EMPTY, reason="C < 0 is impossible in a flat ambient")]
        if vs0_C == 0:
            return [
                ClassificationOutcome(tag=FLAT_LOCAL),
                ClassificationOutcome(
                    tag=ROTATION_FAMILY,
                    family="parabolic",
                    ode_constant=0.0,
                    deltas=(1,),
                    ranges={"beta": Interval(0.0, None)},
                ),
            ]
        return [
            ClassificationOutcome(tag=TOTALLY_GEODESIC),
            ClassificationOutcome(tag=UMBILICAL, lambda_sq=Cf / 4.0),
            _trig_outcome(Cf, Interval(0.0, 1.0, lo_open=False)),
        ]

    if vs0_c > 0:  # spherical ambient
        vs2c = _cmp(C, 2 * c, tol)
        if vs2c <= 0:
            return [
                ClassificationOutcome(
                    tag=EMPTY,
                    reason="C <= 2c in a positively curved ambient: the profile domain "
                    "fails at s = 0 where c*x^2 = 2c/C >= 1",
                )
            ]
        if vs4c < 0:
            return [_trig_outcome(Cf, Interval(0.0, Cf / (2.0 * cf) - 1.0))]
        if vs4c == 0:
            return [
                ClassificationOutcome(tag=TOTALLY_GEODESIC),
                _trig_outcome(Cf, Interval(0.0, 1.0, lo_open=False)),
            ]
        return [
            ClassificationOutcome(tag=UMBILICAL, lambda_sq=umbilic_sq),
            _trig_outcome(Cf, Interval(0.0, 1.0, lo_open=False)),
        ]

    # hyperbolic ambient
    if vs4c < 0:
        return [
            ClassificationOutcome(
                tag=EMPTY,
                reason="C < 4c in a negatively curved ambient: lambda^2 -> -c + C/4 < 0 "
                "for |s| large, so no candidate profile stays valid",
            )
        ]
    if vs4c == 0:
        return [
            ClassificationOutcome(tag=CONSTANT_CURVATURE, curvature=cf),
            _exponential_outcome(Cf),
        ]
    if vs0_C < 0:
        return [
            ClassificationOutcome(tag=UMBILICAL, lambda_sq=umbilic_sq),
            _exponential_outcome(Cf),
        ]
    if vs0_C == 0:
        return [
            ClassificationOutcome(tag=UMBILICAL, lambda_sq=-cf),
            ClassificationOutcome(
                tag=ROTATION_FAMILY,
                family="quadratic",
                ode_constant=0.0,
                deltas=(1,),
                ranges={"B": Interval(0.0, None), "A": Interval(0.0, None, lo_open=False)},
                conditions=("A^2/(4B) < 1",),
            ),
        ]
    return [
        ClassificationOutcome(tag=UMBILICAL, lambda_sq=umbilic_sq),
        _trig_outcome(Cf, Interval(0.0, 1.0, lo_open=False)),
    ]


def witness(outcome: ClassificationOutcome, q: ClassQuery) -> ProfileFamily | str:
    """A concrete family member for rotation outcomes, else the symbolic tag.

    Bounded parameter intervals are instantiated at their midpoint; the
    unbounded parabolic/quadratic/exponential parameters use the canonical
    values beta = 1, (A, B) = (0, 1) and A = B = 1 with delta = 1.
    """
    if outcome.tag != ROTATION_FAMILY:
        return outcome.tag
    Cf = float(outcome.ode_constant or 0.0)
    if outcome.family == "trig":
        rng = outcome.ranges["alpha"]
        return TrigProfile(C=Cf, alpha=(rng.lo + rng.hi) / 2.0)
    if outcome.family == "parabolic":
        return ParabolicProfile(beta=1.0)
    if outcome.family == "quadratic":
        return QuadraticProfile(A=0.0, B=1.0)
    if outcome.family == "exponential":
        return ExponentialProfile(C=Cf, A=1.0, B=1.0, delta=1)
    raise ValueError(f"unknown rotation family {outcome.family!r}")


def _empty_reason(q: ClassQuery) -> str | None:
    outcomes = classify(q)
    if len(outcomes) == 1 and outcomes[0].tag == EMPTY:
        return outcomes[0].reason
    return None


def nonexistence_witness(
    q: ClassQuery, s_max: float | None = None, grid_n: int = 2001
) -> NonexistenceEvidence:
    """Build the candidate profile an Empty query would need and show where
    it breaks down, scanning s in [0, s_max].

    s_max defaults to 20 / sqrt(max(|c|, |C|)), the query's own length
    scale, so scaling (c, C) scales the window with the failure point.
    Rejected with ValueError when classify(q) is non-empty.  For n >= 5 the
    obstruction is algebraic (no profile family is involved) and the
    evidence carries no candidate.
    """
    reason = _empty_reason(q)
    if reason is None:
        raise ValueError(f"classify({q.n}, {q.c}, {q.C}) is non-empty; nothing to refute")
    n, cf, Cf = q.n, float(q.c), float(q.C)

    if n >= 5:
        return NonexistenceEvidence(
            mechanism="algebraic",
            detail=f"n = {n} >= 5: umbilical needs lambda^2 = (C-4c)/4 = "
            f"{(Cf - 4.0 * cf) / 4.0:.6e} >= 0 and constant curvature needs C = 4c; "
            "no profile candidate exists",
            candidate=None,
            ambient=None,
            failure=None,
        )

    if s_max is None:
        s_max = 20.0 / math.sqrt(max(abs(cf), abs(Cf)))
    window = (0.0, s_max)
    ambient = AmbientSpec(c=cf, delta=1)
    tol = _boundary_tol(q)
    vs0_c = _cmp(q.c, 0, tol)
    vs0_C = _cmp(q.C, 0, tol)
    if vs0_c > 0 and vs0_C > 0:  # 0 < C <= 2c
        candidate: ProfileFamily = TrigProfile(C=Cf, alpha=0.0)
        mech = "positive-bound-at-origin"
        detail = (
            f"constant candidate x = sqrt(2/C): c*x(0)^2 = 2c/C = {2.0 * cf / Cf:.6f} >= 1, "
            "so the curvature radicand is non-positive already at s = 0"
        )
    elif vs0_c > 0 and vs0_C == 0:
        candidate = ParabolicProfile(beta=1.0)
        mech = "unbounded-growth"
        detail = "c*x^2 = c*(s^2 + beta) exceeds 1 for large |s|, killing the curvature radicand"
    elif vs0_c >= 0:  # C < 0 in flat or spherical ambient
        candidate = ExponentialProfile(C=Cf, A=1.0, B=1.0, delta=1)
        mech = "unit-speed"
        detail = "the profile slope reaches |x'| >= 1 at moderate |s|, violating unit speed"
    else:  # c < 0, C < 4c
        candidate = ExponentialProfile(C=Cf, A=1.0, B=1.0, delta=1)
        mech = "asymptotic-negative"
        detail = (
            f"lambda^2 -> -c + C/4 = {-cf + Cf / 4.0:.6f} < 0 as |s| -> infinity, "
            "so the curvature radicand eventually goes negative"
        )
    failure = domain_check(candidate, ambient, window, grid_n)
    if failure is None:
        raise AssertionError(
            f"candidate {candidate!r} unexpectedly valid on {window}; obstruction not reproduced"
        )
    return NonexistenceEvidence(
        mechanism=mech, detail=detail, candidate=candidate, ambient=ambient, failure=failure
    )


def query_to_json(q: ClassQuery, outcomes: list[ClassificationOutcome]) -> dict:
    """JSON form of a classification result: query echo plus outcome list."""
    return {
        "query": {"n": q.n, "c": float(q.c), "C": float(q.C)},
        "outcomes": [o.to_json() for o in outcomes],
    }
