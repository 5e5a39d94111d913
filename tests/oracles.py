"""Slow, direct oracles for the library's batched evaluators.

`principal_curvatures` evaluates (lambda, mu) at one profile point from the
direct radicand delta - c*x^2 - x'^2, against the library's first-integral
grids.  `isotropic_component` contracts the components of a tensor with one
frame by `np.einsum`, term by term, independently of the closed form and
the pair-matrix gemm that `curvature._isotropic_batch` uses.
"""

import math

import numpy as np

from isocurv.profiles import AmbientSpec, DomainBreakdown


def principal_curvatures(
    ambient: AmbientSpec, x: float, xp: float, xpp: float, s: float | None = None
) -> tuple[float, float]:
    """(lambda, mu) of the rotation hypersurface at a profile point.

    lambda carries the sign convention lambda <= 0.  Raises DomainBreakdown
    when the radicand delta - c*x^2 - x'^2, computed directly from the
    point, is not above an absolute 1e-9, and ValueError when x is not positive.
    """
    if not x > 0:
        raise ValueError(f"profile value must be positive, got x={x}")
    d = ambient.delta - ambient.c * x * x - xp * xp
    if d <= 1e-9:
        raise DomainBreakdown(d, s, f"delta - c*x^2 - x'^2 = {d:.6e} <= 1e-09")
    rd = math.sqrt(d)
    return -rd / x, (xpp + ambient.c * x) / rd


def isotropic_component(t, frame) -> float:
    """K13 + K14 + K23 + K24 - 2 R(e1,e2,e3,e4) for one (4, n) frame, by einsum over t.comp."""
    e1, e2, e3, e4 = np.asarray(frame, dtype=float)

    def r(a, b, c, d):
        return np.einsum("ijkl,i,j,k,l->", t.comp, a, b, c, d)

    return float(r(e1, e3, e3, e1) + r(e1, e4, e4, e1) + r(e2, e3, e3, e2) + r(e2, e4, e4, e2) - 2.0 * r(e1, e2, e3, e4))
