"""Principal-curvature algebra for hypersurfaces of constant isotropic curvature.

A hypersurface of constant isotropic curvature has at most two distinct
principal curvatures, lambda of multiplicity at least n-1 and mu.  This
module works on that (lambda, mu) pair: it evaluates the isotropic constant
4c + 2(lambda^2 + lambda*mu) and solves for the pairs with given isotropic
and mean curvature.  `check_dimension` is the one check of n, shared by
`classification`.  Branch decisions live in `classification`.
"""

from __future__ import annotations

import math
from numbers import Integral


def check_dimension(n) -> None:
    """Reject a hypersurface dimension n that is not an integer (a bool is not one) of at least 4."""
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 4:
        raise ValueError(f"need an integer n >= 4, got n = {n!r}")


def cic_from_spectrum(c: float, lam: float, mu: float) -> float:
    """Isotropic constant 4c + 2(lambda^2 + lambda*mu) of the spectrum (lambda, ..., lambda, mu).

    Elementwise on numpy arrays, with the same value for each element as
    for its floats alone.
    """
    return 4.0 * c + 2.0 * (lam * lam + lam * mu)


def cmc_lambda_solve(n: int, c: float, C: float, H: float) -> list[tuple[float, float]]:
    """Principal curvatures compatible with constants C (isotropic) and H (mean).

    Solves (2-n)*lambda^2 + H*lambda - (C-4c)/2 = 0 with the numerically
    stable quadratic formula and pairs each real root with
    mu = H - (n-1)*lambda.  Returns 0, 1 or 2 pairs, ascending in lambda;
    every pair reproduces C through cic_from_spectrum to ~1e-12.  n is
    checked as ClassQuery checks it (check_dimension).
    """
    check_dimension(n)
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
