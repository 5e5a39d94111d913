"""Principal-curvature algebra for hypersurfaces of constant isotropic curvature.

A hypersurface of constant isotropic curvature has at most two distinct
principal curvatures, lambda of multiplicity at least n-1 and mu.  This
module works on that (lambda, mu) pair: it evaluates the isotropic constant
4c + 2(lambda^2 + lambda*mu), solves for the pairs with given isotropic and
mean curvature, and decides the minimal case, whose only non-geodesic
example is the Clifford product hypersurface.  `_cmp` and `_boundary_tol`
are the branch-boundary comparison that `classification` shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

BOUNDARY_TOL = 1e-12       # branch-boundary tolerance, relative to max(|c|, |C|)


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


def cic_from_spectrum(c: float, lam: float, mu: float) -> float:
    """Isotropic constant 4c + 2(lambda^2 + lambda*mu) of the spectrum (lambda, ..., lambda, mu)."""
    return 4.0 * c + 2.0 * (lam * lam + lam * mu)


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
    C is compared with 4c and with 8c/3 as `classify` compares boundaries:
    exactly for exact inputs, else within BOUNDARY_TOL * max(|c|, |C|).
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    vs4c = _cmp(C, 4 * c, _boundary_tol(c, C))
    if vs4c > 0:
        return MinimalVerdict(MinimalKind.NONE)
    if vs4c == 0:
        return MinimalVerdict(MinimalKind.TOTALLY_GEODESIC, lam=0.0, mu=0.0)
    # C < 4c from here on
    if n == 4 and c > 0 and _cmp(C, Fraction(8, 3) * c, _boundary_tol(c, C)) == 0:
        lam = -math.sqrt(c / 3.0)
        return MinimalVerdict(MinimalKind.CLIFFORD, lam=lam, mu=-3.0 * lam, x0=math.sqrt(3.0 / (4.0 * c)))
    return MinimalVerdict(MinimalKind.NONE)
