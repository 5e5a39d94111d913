"""Principal-curvature algebra for hypersurfaces of constant isotropic curvature.

A spectrum that produces a frame-constant isotropic curvature can carry at
most two distinct principal curvatures, one of them with multiplicity at
least n-1.  This module reduces spectra to that (lambda, mu) form, evaluates
the isotropic constant 4c + 2(lambda^2 + lambda*mu), and analyses the
constant-mean-curvature and minimal cases, including the Clifford product
hypersurface that is the unique non-geodesic minimal example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Sequence

DISTINCT_TOL = 1e-9        # principal curvatures closer than this are merged
CLIFFORD_REL_TOL = 1e-9    # relative tolerance on C - 8c/3 for Clifford detection
BOUNDARY_TOL = 1e-12       # branch-boundary tolerance, relative to max(|c|, |C|)


class SpectrumError(ValueError):
    """Raised for spectra inconsistent with a constant isotropic curvature."""


@dataclass(frozen=True)
class ShapeSpectrum:
    """Ambient curvature plus the principal curvatures at a point."""

    c: float
    lambdas: tuple[float, ...]

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambdas)
        if len(lams) < 4:
            raise ValueError(f"spectrum needs n >= 4 principal curvatures, got {len(lams)}")
        object.__setattr__(self, "lambdas", lams)

    @property
    def n(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class TwoCurvatureForm:
    """Reduced spectrum (lambda of multiplicity >= n-1, mu of multiplicity 1)."""

    lam: float
    mu: float
    n: int


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


def pairing_test(lambdas: Sequence[float], tol: float = DISTINCT_TOL) -> bool:
    """Whether the three products-of-pairs sums of four values agree within tol.

    For principal curvatures (a, b, c, d) the sums are a*b + c*d,
    a*c + b*d and a*d + b*c; frame constancy of the isotropic curvature
    forces all three to coincide on every 4-subset.
    """
    p = _pairing_values([float(v) for v in lambdas])
    return max(p) - min(p) <= tol


def _pairing_values(vals):
    a, b, c, d = vals
    return (a * b + c * d, a * c + b * d, a * d + b * c)


def _cluster(values: Sequence[float], tol: float) -> list[list[int]]:
    """Group indices of values that agree within tol (values assumed 1-D)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    groups: list[list[int]] = [[order[0]]]
    for i in order[1:]:
        if values[i] - values[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _violating_subset(lambdas: Sequence[float], tol: float):
    """The 4-subset with the worst pairing disagreement, for diagnostics."""
    worst, worst_idx = -1.0, None
    for idx in combinations(range(len(lambdas)), 4):
        p = _pairing_values([lambdas[i] for i in idx])
        spread = max(p) - min(p)
        if spread > worst:
            worst, worst_idx = spread, idx
    return worst_idx, worst


def two_curvature_form(s: ShapeSpectrum, tol: float = DISTINCT_TOL) -> TwoCurvatureForm:
    """Reduce a spectrum to its (lambda, mu) form.

    Accepts umbilical spectra (all values merge, lambda == mu) and spectra
    with exactly two distinct values where one has multiplicity >= n-1.
    Anything else is rejected with the worst-violating 4-subset named in
    the diagnostic.
    """
    lams = s.lambdas
    groups = _cluster(lams, tol)

    def reject(why: str):
        idx, spread = _violating_subset(lams, tol)
        vals = tuple(lams[i] for i in idx)
        raise SpectrumError(
            f"{why}; pairing sums of 4-subset {idx} = {vals} disagree by {spread:.3e}"
        )

    if len(groups) == 1:
        v = sum(lams) / len(lams)
        return TwoCurvatureForm(lam=v, mu=v, n=s.n)
    if len(groups) > 2:
        reject(f"spectrum has {len(groups)} distinct principal curvatures (max 2 allowed)")
    big, small = sorted(groups, key=len, reverse=True)
    if len(big) < s.n - 1:
        reject(
            f"two distinct principal curvatures with multiplicities "
            f"({len(big)}, {len(small)}); one must have multiplicity >= n-1 = {s.n - 1}"
        )
    lam = sum(lams[i] for i in big) / len(big)
    mu = sum(lams[i] for i in small) / len(small)
    return TwoCurvatureForm(lam=lam, mu=mu, n=s.n)


def cic_from_spectrum(c: float, lam: float, mu: float) -> float:
    """Isotropic constant 4c + 2(lambda^2 + lambda*mu) of a reduced spectrum."""
    return 4.0 * c + 2.0 * (lam * lam + lam * mu)


def mean_curvature(form: TwoCurvatureForm) -> float:
    """Trace of the shape operator: (n-1)*lambda + mu."""
    return (form.n - 1) * form.lam + form.mu


def cmc_lambda_solve(n: int, c: float, C: float, H: float) -> list[tuple[float, float]]:
    """Principal curvatures compatible with constants C (isotropic) and H (mean).

    Solves (2-n)*lambda^2 + H*lambda - (C-4c)/2 = 0 with the numerically
    stable quadratic formula and pairs each real root with
    mu = H - (n-1)*lambda.  Returns 0, 1 or 2 pairs, ascending in lambda;
    every pair reproduces C through cic_from_spectrum to ~1e-12.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    a = float(2 - n)
    b = float(H)
    c0 = -(C - 4.0 * c) / 2.0
    disc = b * b - 4.0 * a * c0
    # clamp roundoff-negative discriminants so exact double roots survive
    if disc < 0.0 and -disc <= 64.0 * 2.3e-16 * (b * b + abs(4.0 * a * c0)):
        disc = 0.0
    if disc < 0.0:
        return []
    if disc == 0.0:
        roots = [-b / (2.0 * a)]
    else:
        sq = math.sqrt(disc)
        q = -(b + math.copysign(sq, b)) / 2.0
        if q == 0.0:  # b == 0 and c0 == 0
            roots = [0.0]
        else:
            roots = sorted({q / a, c0 / q})
    return [(lam, H - (n - 1) * lam) for lam in sorted(roots)]


def minimal_classify(n: int, c: float, C: float) -> MinimalVerdict:
    """Which minimal hypersurface, if any, has isotropic constant C.

    Minimality forces lambda = -sqrt(c - C/4), so C <= 4c is necessary.
    At C = 4c the shape operator vanishes (totally geodesic).  Below 4c
    the only surviving case is n = 4, c > 0 with C = 8c/3: the Clifford
    product of a 3-sphere and a circle, of constant profile sqrt(3/(4c)).
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    gap = C - 4.0 * c
    tol = BOUNDARY_TOL * max(abs(C), abs(4.0 * c))
    if gap > tol:
        return MinimalVerdict(MinimalKind.NONE)
    if abs(gap) <= tol:
        return MinimalVerdict(MinimalKind.TOTALLY_GEODESIC, lam=0.0, mu=0.0)
    # C < 4c from here on
    if n == 4 and c > 0:
        target = 8.0 * c / 3.0
        if abs(C - target) <= CLIFFORD_REL_TOL * max(abs(C), abs(target)):
            lam = -math.sqrt(c / 3.0)
            return MinimalVerdict(
                MinimalKind.CLIFFORD,
                lam=lam,
                mu=-3.0 * lam,
                x0=math.sqrt(3.0 / (4.0 * c)),
            )
    return MinimalVerdict(MinimalKind.NONE)
