"""Principal-curvature algebra for hypersurfaces of constant isotropic curvature.

A hypersurface of constant isotropic curvature has at most two distinct
principal curvatures, lambda of multiplicity at least n-1 and mu.  This
module works on that (lambda, mu) pair: it evaluates the isotropic constant
4c + 2(lambda^2 + lambda*mu) and solves for the pairs with given isotropic
and mean curvature, in the umbilical gap C/4 - c, at every finite scale (a
mu beyond the float range is a ValueError); `classification` takes its
Clifford pair from that solve at H = 0.  Branch decisions live there.

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

    Solves (n-2)*lambda^2 - H*lambda + 2*(C/4 - c) = 0 in the umbilical gap
    C/4 - c (4c can overflow) by the stable formula and Vieta, in units of a
    power of two at its terms' scale, so nothing overflows or underflows for
    finite inputs (in the normal range the bits are the unscaled formula's);
    pairs each real root with mu = H - (n-1)*lambda: 0, 1 or 2 pairs,
    ascending in lambda.  n, c, C and H are checked by the module's rules,
    as ClassQuery checks them; a mu beyond the float range is a ValueError.
    """
    check_integer(n, 4, "n")
    for name, value in (("c", c), ("C", C), ("H", H)):
        check_finite(value, name)
    k, Hf, cf, Cf = float(n - 2), float(H), float(c), float(C)
    g = math.frexp(max(abs(cf), abs(Cf)))[1]
    gap = math.ldexp(Cf, -g) / 4.0 - math.ldexp(cf, -g)  # C/4 - c in units of 2**g: exact scalings, one rounding
    # disc = H^2 - 8k*gap in units of 4**f, 2**f at the scale of the root of each term (capped for n > 1e307)
    root_ac = math.sqrt(k) * math.ldexp(math.sqrt(math.ldexp(8.0 * abs(gap), g % 2)), g // 2)
    f = math.frexp(min(max(abs(Hf), root_ac), sys.float_info.max))[1]
    b, ac = math.ldexp(Hf, -f), 32.0 * math.ldexp(k * (gap / 4.0), g - 2 * f)
    disc = b * b - ac
    # clamp roundoff-negative discriminants so exact double roots survive
    if disc < 0.0 and -disc <= 64.0 * sys.float_info.epsilon * (b * b + abs(ac)):
        disc = 0.0
    if disc < 0.0:
        return []
    if disc == 0.0:
        roots = [Hf / (2.0 * k)]
    else:  # |q| >= 1/4 in these units: b and copysign(sqrt(disc), b) never cancel
        q = (b + math.copysign(math.sqrt(disc), b)) / 2.0
        roots = sorted({math.ldexp(q / k, f), math.ldexp(gap, 1 + g - f) / q})
    mus = [b - (k + 1.0) * math.ldexp(lam, -f) for lam in roots]  # in units of 2**f: (n-1)*lambda stays finite
    if not all(math.isfinite(mu) and math.frexp(mu)[1] + f <= sys.float_info.max_exp for mu in mus):
        raise ValueError(f"cmc_lambda_solve({n}, {c}, {C}, {H}): mu = H - (n-1)*lambda is outside the float range")
    return [(lam, math.ldexp(mu, f)) for lam, mu in zip(roots, mus)]
