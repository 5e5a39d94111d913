"""Principal-curvature algebra for hypersurfaces of constant isotropic curvature.

A hypersurface of constant isotropic curvature has at most two distinct
principal curvatures, lambda of multiplicity at least n-1 and mu.  This
module works on that (lambda, mu) pair: it evaluates the isotropic constant
4c + 2(lambda^2 + lambda*mu) and solves for the pairs with given isotropic
and mean curvature.  Branch decisions live in `classification`.

Every module takes its scalar checks from the three rules here, each raising
ValueError naming the parameter: `check_integer` (dimensions, counts, grid
sizes, seeds), `check_finite` (numbers) and `check_delta` (rotation types).
"""

from __future__ import annotations

import math
import sys
from numbers import Integral


def check_integer(value, least: int, name: str) -> None:
    """Reject value unless it is an integer (a bool is not one) >= least."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"need an integer {name} >= {least}, got {name} = {value!r}")


def check_finite(value, name: str) -> None:
    """Reject nan, +-inf and an int or Fraction beyond the float range (compared exactly)."""
    if not abs(value) <= sys.float_info.max:  # nan fails every comparison
        raise ValueError(f"{name} must be finite, got {value}")


def check_delta(delta) -> None:
    """Reject a rotation type delta unless it is the integer -1, 0 or 1 (a bool is not one)."""
    if not isinstance(delta, Integral) or isinstance(delta, bool) or delta not in (-1, 0, 1):
        raise ValueError(f"delta must be -1, 0 or 1, got {delta!r}")


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
    every pair reproduces C through cic_from_spectrum to ~1e-12.  n, c, C
    and H are checked by the module's rules, as ClassQuery checks them.
    """
    check_integer(n, 4, "n")
    for name, value in (("c", c), ("C", C), ("H", H)):
        check_finite(value, name)
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
    else:  # |q| >= sqrt(disc) / 2 > 0: b and copysign(sqrt(disc), b) never cancel
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
        roots = sorted({q / a, c0 / q})
    return [(lam, H - (n - 1) * lam) for lam in roots]
