"""Computations made apart from isocurv, used to check its outputs.

Nothing here calls into isocurv.  Curvature values come from the sectional
matrix K of a tensor R_ijkl = K_ij (d_il d_jk - d_ik d_jl), for which

    R(a, b, c, d) = (a o d)^T K (b o c) - (a o c)^T K (b o d)

(o is the entrywise product).  Profile data come from the closed forms of
u = x^2 written out below, not from the library's `eval` methods.
"""

from __future__ import annotations

import math

import numpy as np

EPS_DOM = 1e-9          # the library's documented domain-breakdown threshold
VALUE_RTOL = 1e-10      # probe values, relative to max |K_ij|
CONSTANT_RTOL = 1e-9    # frame spread below this share of max |K_ij|: constant
VARYING_RTOL = 1e-6     # frame spread above this share of max |K_ij|: not constant
PROFILE_RTOL = 1e-8     # grid quantities, relative to max(1, |value|)
RK4_RTOL = 1e-6         # RK4 samples against the closed form


class Incorrect(AssertionError):
    """An output of the library disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Incorrect(message)


# ---------------------------------------------------------------------------
# curvature


def constant_matrix(n: int, k: float) -> np.ndarray:
    return np.full((n, n), float(k))


def product_matrix(factors) -> np.ndarray:
    """factors: (dim, curvature) pairs; planes across two factors are flat."""
    n = sum(d for d, _ in factors)
    K = np.zeros((n, n))
    i = 0
    for d, k in factors:
        K[i:i + d, i:i + d] = k
        i += d
    return K


def gauss_matrix(c: float, lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    return c + np.outer(lams, lams)


def isotropic_values(K: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """K13 + K14 + K23 + K24 - 2 R1234 on each frame of an (m, 4, n) array."""
    e1, e2, e3, e4 = (frames[:, i, :] for i in range(4))

    def r(a, b, c, d):
        return np.sum((a * d) @ K * (b * c), axis=1) - np.sum((a * c) @ K * (b * d), axis=1)

    return r(e1, e3, e3, e1) + r(e1, e4, e4, e1) + r(e2, e3, e3, e2) + r(e2, e4, e4, e2) - 2.0 * r(e1, e2, e3, e4)


def check_probe_values(label: str, K: np.ndarray, frames: np.ndarray, samples: int,
                       vmin: float, vmax: float, vmean: float, closed_form: float | None) -> bool:
    """Check a probe summary against the frames' own evaluation.

    Returns the constancy the values show, for comparison with the
    library's verdict.
    """
    scale = float(np.max(np.abs(K)))
    tol = VALUE_RTOL * scale
    vals = isotropic_values(K, frames)
    require(samples == len(vals), f"{label}: {samples} samples reported, {len(vals)} frames drawn")
    for what, got, want in (("min", vmin, vals.min()), ("max", vmax, vals.max()), ("mean", vmean, vals.mean())):
        require(abs(got - want) <= tol, f"{label}: {what} {got!r}, own evaluation {want!r} (tol {tol:.1e})")
    if closed_form is not None:
        for what, got in (("min", vmin), ("max", vmax), ("mean", vmean)):
            require(abs(got - closed_form) <= tol,
                    f"{label}: {what} {got!r}, closed form {closed_form!r} (tol {tol:.1e})")
    spread = float(vals.max() - vals.min())
    if spread <= CONSTANT_RTOL * scale:
        return True
    require(spread >= VARYING_RTOL * scale,
            f"{label}: spread {spread:.3e} is neither constant nor clearly varying at scale {scale:.1e}")
    return False


# ---------------------------------------------------------------------------
# profiles


def profile_u(kind: str, p: dict, s: np.ndarray):
    """(u, u', u'') of u = x^2 for a profile family with parameters p."""
    s = np.asarray(s, dtype=float)
    if kind == "trig":
        a = math.sqrt(p["C"])
        k = 2.0 / p["C"]
        sn, cs = np.sin(a * s), np.cos(a * s)
        return k * (1.0 - p["alpha"] * sn), -k * p["alpha"] * a * cs, k * p["alpha"] * a * a * sn
    if kind == "parabolic":
        return s * s + p["beta"], 2.0 * s, np.full_like(s, 2.0)
    if kind == "exponential":
        a = math.sqrt(-p["C"])
        k = 2.0 / -p["C"]
        ep, em = p["A"] * np.exp(a * s), p["B"] * np.exp(-a * s)
        return k * (ep + em - p["delta"]), k * a * (ep - em), k * a * a * (ep + em)
    if kind == "quadratic":
        return s * s + p["A"] * s + p["B"], 2.0 * s + p["A"], np.full_like(s, 2.0)
    raise ValueError(f"unknown profile family {kind!r}")


def profile_x(kind: str, p: dict, s):
    """(x, x', x'') from u = x^2: x' = u'/(2x), x'' = (u'' - 2 x'^2)/(2x)."""
    u, up, upp = profile_u(kind, p, s)
    x = np.sqrt(u)
    xp = up / (2.0 * x)
    return x, xp, (upp - 2.0 * xp * xp) / (2.0 * x)


def radicand(c: float, delta: int, x, xp):
    """delta - c x^2 - x'^2, the quantity that must stay above EPS_DOM."""
    return delta - c * x * x - xp * xp


def curvatures(c: float, delta: int, x, xp, xpp):
    """(lambda, mu) of the rotation hypersurface at profile points."""
    rd = np.sqrt(radicand(c, delta, x, xp))
    return -rd / x, (xpp + c * x) / rd


def grid(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + np.arange(n) * ((hi - lo) / (n - 1))


def close(got, want, rtol: float) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want))


def require_close(label: str, got, want, rtol: float, s) -> None:
    """Every point within rtol * max(1, |want|); names the first s that is not."""
    bad = np.flatnonzero(~close(got, want, rtol))
    if bad.size:
        i = bad[0]
        raise Incorrect(f"{label} at s={s[i]!r}: {np.asarray(got)[i]!r}, expected {np.asarray(want)[i]!r}")


def check_profile_columns(label: str, kind: str, p: dict, c: float, delta: int, C: float,
                          s, x, lam, mu, cic, window: tuple[float, float], grid_n: int) -> None:
    """Grid, profile, principal curvatures and isotropic value along a profile."""
    s = np.asarray(s, dtype=float)
    require(len(s) == grid_n, f"{label}: {len(s)} grid points, expected {grid_n}")
    require(bool(np.all(close(s, grid(window[0], window[1], grid_n), 1e-12))),
            f"{label}: grid differs from {grid_n} points on {window}")
    ox, oxp, oxpp = profile_x(kind, p, s)
    olam, omu = curvatures(c, delta, ox, oxp, oxpp)
    for what, got, want in (("x", x, ox), ("lambda", lam, olam), ("mu", mu, omu), ("isotropic value", cic, C)):
        require_close(f"{label}: {what}", got, np.broadcast_to(want, s.shape), PROFILE_RTOL, s)
