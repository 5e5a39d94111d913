"""Slow, direct oracles for the library's batched evaluators.

`principal_curvatures` evaluates (lambda, mu) at one profile point from the
direct radicand delta - c*x^2 - x'^2, against the library's first-integral
grids.  `isotropic_component` contracts the components of a tensor with one
frame by `np.einsum`, term by term, independently of the closed form and
the pair-matrix gemm that `curvature._isotropic_batch` uses.
`orthonormalize` is the row-major, vector-by-vector two-pass Gram-Schmidt
against the component-major sampler `curvature._orthonormalize`, and
`sectional_components` fills the n^4 components of a sectional matrix K
eagerly, as the builders did before they built them on first read.
`gauss_suite_per_spectrum` and `profile_ode_per_family` are the
gauss-frame-identity and profile-ode suites as one loop over their
members, each judged as it is drawn, against the suites' whole-array
judgements; `suite_outcome` runs a suite as run_all reports it.
`mean_deviation` is the grid statistic as one explicit float loop over the
values, against `profiles.mean_deviation`'s numpy accumulate.  They call
the library through its modules, so a test's monkeypatch reaches them too.
"""

import math

import numpy as np

from isocurv import checks
from isocurv import curvature as cv
from isocurv import profiles as pf
from isocurv import spectra as sp
from isocurv.curvature import REDRAW_RESIDUAL
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


def orthonormalize(raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two-pass modified Gram-Schmidt over a batch of (m, 4, n) vectors.

    Any vector whose residual norm after projection falls below
    REDRAW_RESIDUAL is re-drawn from the generator, so the procedure
    succeeds with probability one.
    """
    m, _, n = raw.shape
    q = np.array(raw, dtype=float)
    for _ in range(2):  # second sweep keeps Gram error at machine precision
        for a in range(4):
            v = q[:, a, :].copy()
            for b in range(a):
                v -= np.einsum("mi,mi->m", v, q[:, b, :])[:, None] * q[:, b, :]
            norms = np.linalg.norm(v, axis=1)
            for idx in np.flatnonzero(norms < REDRAW_RESIDUAL):
                while True:
                    w = rng.standard_normal(n)
                    for b in range(a):
                        w = w - (w @ q[idx, b]) * q[idx, b]
                    nw = np.linalg.norm(w)
                    if nw >= REDRAW_RESIDUAL:
                        v[idx] = w
                        norms[idx] = nw
                        break
            q[:, a, :] = v / norms[:, None]
    return q


def mean_deviation(blocks) -> tuple[float, float]:
    """Mean of the values in the blocks and their largest |v - mean|.

    The total is the explicit loop `total += v` from 0.0, left to right over
    every value, not sum(), whose rounding changed in Python 3.12; the
    deviation is a second pass over the values.
    """
    values = [v for block in blocks for v in np.asarray(block, dtype=float).tolist()]
    total = 0.0
    for v in values:
        total += v
    mean = total / len(values)
    deviation = -math.inf
    for v in values:
        deviation = max(deviation, abs(v - mean))
    return mean, deviation


def frame_array(n: int, count: int, seed: int) -> np.ndarray:
    """The seeded (count, 4, n) draw of `curvature._frame_array`, through `orthonormalize`."""
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.standard_normal((count, 4, n)), rng)


def sectional_components(kmat: np.ndarray) -> np.ndarray:
    """R_ijji = K_ij and R_ijij = -K_ij (i != j), filled eagerly into a new (n, n, n, n) array."""
    k = np.array(kmat, dtype=float, copy=True)
    n = k.shape[0]
    np.fill_diagonal(k, 0.0)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    comp = np.zeros((n, n, n, n))
    comp[i, j, j, i] = k[i, j]
    comp[i, j, i, j] = -k[i, j]
    return comp


def suite_outcome(suite, config) -> tuple[bool, str]:
    """(passed, detail) of a check suite, as checks.run_all reports it."""
    try:
        return True, suite(config)
    except AssertionError as exc:
        return False, str(exc)


# The loops raise AssertionError themselves, as a failed assert in the
# library does: an assert in a module pytest rewrites would extend its message.


def gauss_suite_per_spectrum(config) -> str:
    """check_gauss_frame_identity one spectrum at a time."""
    rng = np.random.default_rng(config.seed)
    draws = [rng.uniform(-2.0, 2.0, size=3) for _ in range(200)]
    tensors = [cv.build_from_shape(c, (lam, lam, lam, mu)) for c, lam, mu in draws]
    worst = 0.0
    for (c, lam, mu), report in zip(draws, cv.cic_probes(tensors, count=500, seed=config.seed)):
        expected = sp.cic_from_spectrum(c, lam, mu)
        err = max(abs(report.min - expected), abs(report.max - expected))
        worst = max(worst, err)
        if not err <= 1e-10:
            raise AssertionError(f"(c={c}, lam={lam}, mu={mu}): error {err:.3e} > 1e-10")
    return f"200 spectra x 500 frames, worst deviation {worst:.1e}"


def profile_ode_per_family(config) -> str:
    """check_profile_ode one family at a time: u evaluated at s, s + h and s - h
    apart for the linear and difference judgements, and on the stacked
    (s - h, s, s + h) for the residual."""
    rng = np.random.default_rng(config.seed)
    h = 1e-4
    worst_resid = worst_lin = worst_diff = 0.0
    for _ in range(50):
        fam = checks._random_valid_family(rng)
        s = rng.uniform(-2.0, 2.0, size=100)
        C, delta = fam.ode_constant, fam.ode_delta
        u, up, upp = fam.u(s)
        terms = np.maximum(np.maximum(np.abs(upp), abs(2.0 * delta)), np.abs(C * u))
        lin = np.abs(upp - (2.0 * delta - C * u)) / terms
        i = int(np.argmax(lin))
        worst_lin = max(worst_lin, float(lin[i]))
        if not lin[i] <= 1e-14:
            raise AssertionError(f"{fam!r}: u'' - (2*delta - C*u) is {lin[i]:.3e} of its terms at s={s[i]}")
        diff = np.abs((fam.u(s + h)[0] - fam.u(s - h)[0]) / (2.0 * h) - up)
        i = int(np.argmax(diff))
        rel = float(diff[i]) / max(np.max(np.abs(up)), np.max(u))
        worst_diff = max(worst_diff, rel)
        if not rel <= 1e-6:
            raise AssertionError(f"{fam!r}: u' is off the central difference of u by {rel:.3e} at s={s[i]}")
        resid = pf.ode_residual(C, delta, fam.u(np.array((s - h, s, s + h))), h)
        i = int(np.argmax(resid))
        worst_resid = max(worst_resid, float(resid[i]))
        if not resid[i] <= 1e-6:
            raise AssertionError(f"{fam!r}: residual {resid[i]:.3e} > 1e-6 at s={s[i]}")
    return f"worst residual {worst_resid:.1e}, linear {worst_lin:.1e}, u' vs central difference {worst_diff:.1e}"
