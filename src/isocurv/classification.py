"""Decision tree mapping (n, c, C) to the complete hypersurfaces of that
constant isotropic curvature in the space form of curvature c.

For n >= 5 only umbilical hypersurfaces and constant-curvature ones occur;
every n = 4 branch adds a one-parameter rotation-hypersurface family whose
profile solves (x*x')' = delta - (C/2)*x^2.  Branch boundaries sit at
C = 2c, C = 4c and C = 0, so comparisons are exact when the inputs are
exact (int / Fraction) and otherwise within BOUNDARY_TOL * max(|c|, |C|),
so scaling (c, C) by t > 0 does not change the branch.

`classify` alone decides the branch.  Its outcomes carry what the branch
fixes: a rotation outcome its witness profile, an Empty outcome its
obstruction and, at n = 4, the candidate that `nonexistence_witness` breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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
from .spectra import _boundary_tol, _cmp

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
    """One branch of the classification: its parameter constraints (the JSON
    form) and its witness profile or obstruction."""

    tag: str
    reason: str = ""                      # Empty outcomes: the violated bound
    family: str | None = None             # rotation outcomes: trig|parabolic|exponential|quadratic
    deltas: tuple[int, ...] | None = None  # admissible rotation types
    ranges: dict = field(default_factory=dict)   # parameter name -> Interval
    conditions: tuple[str, ...] = ()      # joint constraints not expressible as a box
    lambda_sq: float | None = None        # umbilical outcomes: lambda^2
    curvature: float | None = None        # constant-curvature outcomes
    profile: ProfileFamily | None = None  # rotation: the witness; n = 4 Empty: the candidate
    mechanism: str = ""                   # Empty outcomes: the obstruction's tag
    detail: str = ""                      # Empty outcomes: the obstruction with its numbers

    def to_json(self) -> dict:
        d: dict = {"tag": self.tag}
        if self.reason:
            d["reason"] = self.reason
        constraints: dict = {}
        if self.family is not None:
            d["family"] = self.family
            d["ode_constant"] = self.profile.ode_constant
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


def _trig_outcome(C: float, alpha_range: Interval) -> ClassificationOutcome:
    return ClassificationOutcome(
        tag=ROTATION_FAMILY,
        family="trig",
        deltas=(1,),
        ranges={"alpha": alpha_range},
        profile=TrigProfile(C=C, alpha=(alpha_range.lo + alpha_range.hi) / 2.0),
    )


def _exponential_outcome(C: float) -> ClassificationOutcome:
    return ClassificationOutcome(
        tag=ROTATION_FAMILY,
        family="exponential",
        deltas=(1, 0, -1),
        ranges={"A": Interval(0.0, None, lo_open=False), "B": Interval(0.0, None, lo_open=False)},
        conditions=("A + B > delta", "4*A*B > delta^2"),
        profile=ExponentialProfile(C=C, A=1.0, B=1.0, delta=1),
    )


def _empty(reason: str, mechanism: str, detail: str, candidate: ProfileFamily | None = None):
    return [ClassificationOutcome(EMPTY, reason, mechanism=mechanism, detail=detail, profile=candidate)]


def _unit_speed(reason: str, C: float) -> list[ClassificationOutcome]:
    """Empty outcome for C < 0 in a flat or spherical ambient."""
    return _empty(
        reason,
        "unit-speed",
        "the profile slope reaches |x'| >= 1 at moderate |s|, violating unit speed",
        ExponentialProfile(C=C, A=1.0, B=1.0, delta=1),
    )


def classify(q: ClassQuery) -> list[ClassificationOutcome]:
    """All branches compatible with (n, c, C); a single Empty outcome with
    the violated bound, its obstruction and (n = 4) candidate profile when
    no complete hypersurface exists.

    Rotation witnesses take the midpoint of a bounded alpha range, else
    beta = 1, (A, B) = (0, 1) or A = B = 1 with delta = 1.  A C matched to
    4c within the tolerance is taken as 4c, and C matched to 0 as 0.
    """
    n, c, C = q.n, q.c, q.C
    cf, Cf = float(c), float(C)
    tol = _boundary_tol(c, C)
    vs4c = _cmp(C, 4 * c, tol)
    umbilic_sq = (Cf - 4.0 * cf) / 4.0  # C = 4c + 4 lambda^2 for the spectrum (lambda^n)

    if n >= 5:
        if vs4c > 0:
            return [ClassificationOutcome(tag=UMBILICAL, lambda_sq=umbilic_sq)]
        if vs4c == 0:
            if cf > 0:
                return [ClassificationOutcome(tag=TOTALLY_GEODESIC)]
            return [ClassificationOutcome(tag=CONSTANT_CURVATURE, curvature=cf)]
        return _empty(
            f"C < 4c for n = {n} >= 5: umbilical needs lambda^2 = (C-4c)/4 >= 0 "
            "and constant curvature needs C = 4c",
            "algebraic",
            f"n = {n} >= 5: umbilical needs lambda^2 = (C-4c)/4 = {umbilic_sq:.6e} >= 0 "
            "and constant curvature needs C = 4c; no profile candidate exists",
        )

    vs0_c = _cmp(c, 0, tol)
    vs0_C = _cmp(C, 0, tol)

    if vs0_c == 0:  # flat ambient
        if vs0_C < 0:
            return _unit_speed("C < 0 is impossible in a flat ambient", Cf)
        if vs0_C == 0:
            return [
                ClassificationOutcome(tag=FLAT_LOCAL),
                ClassificationOutcome(
                    tag=ROTATION_FAMILY,
                    family="parabolic",
                    deltas=(1,),
                    ranges={"beta": Interval(0.0, None)},
                    profile=ParabolicProfile(beta=1.0),
                ),
            ]
        return [
            ClassificationOutcome(tag=TOTALLY_GEODESIC),
            ClassificationOutcome(tag=UMBILICAL, lambda_sq=Cf / 4.0),
            _trig_outcome(Cf, Interval(0.0, 1.0, lo_open=False)),
        ]

    if vs0_c > 0:  # spherical ambient
        if _cmp(C, 2 * c, tol) <= 0:
            reason = (
                "C <= 2c in a positively curved ambient: the profile domain "
                "fails at s = 0 where c*x^2 = 2c/C >= 1"
            )
            if vs0_C > 0:
                return _empty(
                    reason,
                    "positive-bound-at-origin",
                    f"constant candidate x = sqrt(2/C): c*x(0)^2 = 2c/C = {2.0 * cf / Cf:.6f} >= 1, "
                    "so the curvature radicand is non-positive already at s = 0",
                    TrigProfile(C=Cf, alpha=0.0),
                )
            if vs0_C == 0:
                return _empty(
                    reason,
                    "unbounded-growth",
                    "c*x^2 = c*(s^2 + beta) exceeds 1 for large |s|, killing the curvature radicand",
                    ParabolicProfile(beta=1.0),
                )
            return _unit_speed(reason, Cf)
        if vs4c < 0:
            return [_trig_outcome(Cf, Interval(0.0, Cf / (2.0 * cf) - 1.0))]
        if vs4c == 0:
            return [
                ClassificationOutcome(tag=TOTALLY_GEODESIC),
                _trig_outcome(4.0 * cf, Interval(0.0, 1.0, lo_open=False)),
            ]
        return [
            ClassificationOutcome(tag=UMBILICAL, lambda_sq=umbilic_sq),
            _trig_outcome(Cf, Interval(0.0, 1.0, lo_open=False)),
        ]

    # hyperbolic ambient
    if vs4c < 0:
        return _empty(
            "C < 4c in a negatively curved ambient: lambda^2 -> -c + C/4 < 0 "
            "for |s| large, so no candidate profile stays valid",
            "asymptotic-negative",
            f"lambda^2 -> -c + C/4 = {-cf + Cf / 4.0:.6f} < 0 as |s| -> infinity, "
            "so the curvature radicand eventually goes negative",
            ExponentialProfile(C=Cf, A=1.0, B=1.0, delta=1),
        )
    if vs4c == 0:
        return [
            ClassificationOutcome(tag=CONSTANT_CURVATURE, curvature=cf),
            _exponential_outcome(4.0 * cf),
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
                deltas=(1,),
                ranges={"B": Interval(0.0, None), "A": Interval(0.0, None, lo_open=False)},
                conditions=("A^2/(4B) < 1",),
                profile=QuadraticProfile(A=0.0, B=1.0),
            ),
        ]
    return [
        ClassificationOutcome(tag=UMBILICAL, lambda_sq=umbilic_sq),
        _trig_outcome(Cf, Interval(0.0, 1.0, lo_open=False)),
    ]


def witness(outcome: ClassificationOutcome, q: ClassQuery) -> ProfileFamily | str:
    """The witness profile `classify` attached to a rotation outcome, else
    the outcome's symbolic tag.  q, the outcome's query, is not consulted:
    the outcome already carries everything its branch fixed."""
    return outcome.profile if outcome.tag == ROTATION_FAMILY else outcome.tag


def nonexistence_witness(
    q: ClassQuery, s_max: float | None = None, grid_n: int = 2001
) -> NonexistenceEvidence:
    """Exhibit the obstruction of an Empty query: the domain failure of the
    candidate profile `classify` attached, scanning s in [0, s_max].

    s_max defaults to 20 / sqrt(max(|c|, |C|)), the query's own length
    scale, so scaling (c, C) scales the window with the failure point.
    Rejected with ValueError when classify(q) is non-empty.  For n >= 5 the
    obstruction is algebraic (no profile family is involved) and the
    evidence carries no candidate.
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
    return NonexistenceEvidence(empty.mechanism, empty.detail, candidate, ambient, failure)


def query_to_json(q: ClassQuery, outcomes: list[ClassificationOutcome]) -> dict:
    """JSON form of a classification result: query echo plus outcome list."""
    return {
        "query": {"n": q.n, "c": float(q.c), "C": float(q.C)},
        "outcomes": [o.to_json() for o in outcomes],
    }
