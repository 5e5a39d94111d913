"""Verification suites: every headline numerical claim of the library, run
as asserting check functions.

Each `check_*` function performs its assertions and returns a short detail
string; `run_all` executes the lot under a RunConfig, timing them and
converting assertion failures into failed results.  The CLI `check`
command and the acceptance test module both drive these suites.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import classification as cls
from . import curvature as cv
from . import profiles as pf
from . import spectra as sp

STRADDLE = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Seed of the frame probes and random draws in the suites, an integer >= 0.

    Frame probes take cv.DEFAULT_FRAMES frames (500 in gauss-frame-identity)
    and cv.DEFAULT_PROBE_TOL, and profile grids pf.DEFAULT_WINDOW and
    pf.DEFAULT_GRID.  gauss-frame-identity draws its 200 spectra at once and
    builds (cv.build_from_shapes) and probes them as one stack, and
    product-family probes its four n = 4 constant products as one stack
    (cv.cic_probes), with the reports of one probe per tensor.
    profile-ode evaluates its 50 families once each and judges them together.
    """

    seed: int = cv.DEFAULT_SEED

    def __post_init__(self):
        sp.check_integer(self.seed, 0, "seed")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _sphere_line() -> cv.CurvatureTensor:
    return cv.build_product(
        cv.ProductSpec((cv.Factor("sphere", 3, 1.0), cv.Factor("flat", 1, 0.0)))
    )


def check_tensor_symmetries(config: RunConfig) -> str:
    """Constructed tensors satisfy all symmetries; corruption is detected."""
    worst = 0.0
    tensors = [
        cv.build_constant_curvature(4, 2.0),
        cv.build_constant_curvature(5, -1.0),
        _sphere_line(),
        cv.build_product(
            cv.ProductSpec((cv.Factor("sphere", 2, 1.0), cv.Factor("hyperbolic", 2, -1.0)))
        ),
        cv.build_from_shape(0.0, (-1.0, -1.0, -1.0, 1.0)),
        cv.build_from_shape(0.75, (-0.5, -0.5, -0.5, 1.5)),
    ]
    for t in tensors:
        rep = cv.check_symmetries(t)
        assert rep.max_residual <= 1e-14, f"symmetry residual {rep.max_residual:.3e} > 1e-14"
        worst = max(worst, rep.max_residual)
    bad = np.array(tensors[0].comp)
    bad[0, 1, 0, 1] += 1.0
    rep = cv.check_symmetries(cv.CurvatureTensor(4, bad))
    assert rep.max_residual >= 0.5, "corrupted tensor not flagged"
    return f"max residual {worst:.1e} on clean builds; corruption flagged at {rep.max_residual:.2f}"


def check_product_sphere_line(config: RunConfig) -> str:
    """The product of a unit 3-sphere and a line probes constant at 2."""
    report = cv.cic_probe(_sphere_line(), seed=config.seed)
    spread = report.max - report.min
    assert abs(report.mean - 2.0) <= 1e-10, f"mean {report.mean!r} != 2"
    assert spread <= 1e-10, f"spread {spread:.3e} > 1e-10"
    assert report.is_constant, (
        f"is_constant is False at spread {spread:.3e} <= 1e-10 (probe bound {cv.DEFAULT_PROBE_TOL:.0e})"
    )
    return f"mean {report.mean:.12f}, spread {spread:.1e} over {report.samples} frames"


def check_product_family(config: RunConfig) -> str:
    """Constant cases probe flat; the 5-sphere times a line does not."""
    s3s1 = cv.build_product(
        cv.ProductSpec((cv.Factor("sphere", 3, 1.0), cv.Factor("sphere", 1, 1.0)))
    )
    cs = (0.5, 1.0, 2.0)
    mixed = [
        cv.build_product(cv.ProductSpec((cv.Factor("sphere", 2, c), cv.Factor("hyperbolic", 2, -c))))
        for c in cs
    ]
    report, *mixed_reports = cv.cic_probes([s3s1, *mixed], seed=config.seed)
    assert abs(report.mean - 2.0) <= 1e-10 and report.max - report.min <= 1e-10, (
        f"S3 x S1 probe off: mean {report.mean!r}, spread {report.max - report.min:.3e}"
    )
    for c, report in zip(cs, mixed_reports):
        assert abs(report.mean) <= 1e-10 and report.max - report.min <= 1e-10, (
            f"S2({c}) x H2({-c}) probe off: mean {report.mean!r}"
        )
    s5r = cv.build_product(
        cv.ProductSpec((cv.Factor("sphere", 5, 1.0), cv.Factor("flat", 1, 0.0)))
    )
    report = cv.cic_probe(s5r, seed=config.seed)
    spread = report.max - report.min
    assert spread >= 1.0, f"S5 x R spread {spread:.3e} < 1.0"
    assert not report.is_constant, (
        f"S5 x R is_constant is True at spread {spread:.3e} >= 1.0 (probe bound {cv.DEFAULT_PROBE_TOL:.0e})"
    )
    assert report.min >= 2.0 - 1e-10 and report.max <= 4.0 + 1e-10, (
        f"S5 x R values outside [2, 4]: [{report.min}, {report.max}]"
    )
    return f"constant products flat to 1e-10; S5 x R spread {spread:.2f} in [2, 4]"


def check_flat_rotation_profile(config: RunConfig) -> str:
    """Flat-ambient parabolic profiles have lambda = -sqrt(beta)/(s^2+beta) = -mu."""
    ambient = pf.AmbientSpec(c=0.0, delta=1)
    worst_lam = worst_cic = 0.0
    for beta in (0.5, 1.0, 4.0):
        blocks = pf.profile_columns(pf.ParabolicProfile(beta=beta), ambient)
        s, _, _, _, lam, mu, cic = map(np.concatenate, zip(*blocks))
        _, deviation = pf.mean_deviation([cic])
        expected = -math.sqrt(beta) / (s * s + beta)
        worst_lam = max(worst_lam, np.max(np.abs(lam - expected)), np.max(np.abs(mu + expected)))
        worst_cic = max(worst_cic, np.max(np.abs(cic)))
        assert deviation <= 1e-10, f"beta={beta}: cic deviation {deviation:.3e} > 1e-10"
    assert worst_lam <= 1e-10, f"principal-curvature mismatch {worst_lam:.3e} > 1e-10"
    assert worst_cic <= 1e-10, f"|cic| reaches {worst_cic:.3e} > 1e-10"
    return f"lambda/mu match {worst_lam:.1e}, |cic| <= {worst_cic:.1e} for beta in {{0.5, 1, 4}}"


def check_gauss_frame_identity(config: RunConfig) -> str:
    """Gauss tensors of (lam, lam, lam, mu) spectra probe at 4c + 2(lam^2 + lam*mu).

    The 200 spectra (c, lam, mu) are one (200, 3) draw, built as one stack
    (cv.build_from_shapes), probed as one stack (cv.cic_probes) and judged
    together against sp.cic_from_spectrum on arrays.  A failure, a NaN
    error included, names the first failing spectrum in draw order.
    """
    rng = np.random.default_rng(config.seed)
    draws = rng.uniform(-2.0, 2.0, size=(200, 3))
    c, lam, mu = draws.T
    tensors = cv.build_from_shapes(c, draws[:, [1, 1, 1, 2]])  # spectra (lam, lam, lam, mu)
    reports = cv.cic_probes(tensors, count=500, seed=config.seed)
    expected = sp.cic_from_spectrum(c, lam, mu)
    err = np.maximum(np.abs(np.array([r.min for r in reports]) - expected),
                     np.abs(np.array([r.max for r in reports]) - expected))
    for j in np.flatnonzero(~(err <= 1e-10))[:1]:  # NaN-safe: a NaN error fails
        raise AssertionError(f"(c={c[j]}, lam={lam[j]}, mu={mu[j]}): error {err[j]:.3e} > 1e-10")
    return f"200 spectra x 500 frames, worst deviation {err.max():.1e}"


def _random_valid_family(rng: np.random.Generator) -> pf.ProfileFamily:
    kind = rng.integers(0, 4)
    if kind == 0:
        C = float(rng.uniform(0.2, 5.0))
        return pf.TrigProfile(C=C, alpha=float(rng.uniform(0.0, 0.9)))
    if kind == 1:
        return pf.ParabolicProfile(beta=float(rng.uniform(0.3, 4.0)))
    if kind == 2:
        C = float(rng.uniform(-3.0, -0.2))
        delta = int(rng.integers(-1, 2))
        a = float(rng.uniform(0.6, 2.0))
        b = float(rng.uniform(0.6, 2.0))
        return pf.ExponentialProfile(C=C, A=a, B=b, delta=delta)
    b = float(rng.uniform(0.5, 3.0))
    a = float(rng.uniform(-0.8, 0.8)) * 2.0 * math.sqrt(b)
    return pf.QuadraticProfile(A=a, B=b)


def check_profile_ode(config: RunConfig) -> str:
    """Closed forms solve the profile equation, in x and linearly in u = x^2.

    For each seeded family, on 100 random s in [-2, 2]: its (u, u', u'')
    satisfy u'' = 2*delta - C*u relative to the largest of |u''|, |2*delta|
    and |C*u|; its u' is the central difference of its u, relative to the
    larger of max |u'| and max |u| there; and `ode_residual` bounds the
    nonlinear equation (x*x')' = delta - (C/2)*x^2.  So the closed form is
    the solution of the initial-value problem at its own (u(0), u'(0)).
    Each family's u is evaluated once, on the stacked grid (s - h, s, s + h);
    the three judgements, `ode_residual`'s included, then run once over the
    (50, 100) arrays of all families and raise the first failure in draw
    order, each family's checked in the order above.
    """
    rng = np.random.default_rng(config.seed)
    h = 1e-4
    fams = []
    s = np.empty((50, 100))
    us = np.empty((3, 3, 50, 100))  # (u, u', u'') at s - h, s and s + h, per family
    for r in range(50):
        fams.append(_random_valid_family(rng))
        s[r] = rng.uniform(-2.0, 2.0, size=100)
        us[:, :, r] = fams[r].u(np.array((s[r] - h, s[r], s[r] + h)))
    C, delta = np.array([(fam.ode_constant, fam.ode_delta) for fam in fams]).T[:, :, None]
    (u_lo, u0, u_hi), (_, up0, _), (_, upp0, _) = us
    terms = np.maximum(np.maximum(np.abs(upp0), np.abs(2.0 * delta)), np.abs(C * u0))
    lin = np.abs(upp0 - (2.0 * delta - C * u0)) / terms
    diff = np.abs((u_hi - u_lo) / (2.0 * h) - up0)
    resid = pf.ode_residual(C, delta, us, h)
    lin_top, resid_top = lin.max(axis=1), resid.max(axis=1)  # per family, NaN-propagating
    top_up, top_u = np.abs(up0).max(axis=1), u0.max(axis=1)
    rel = diff.max(axis=1) / np.where(top_u > top_up, top_u, top_up)  # max(top_up, top_u), NaN too
    for r in np.flatnonzero(~((lin_top <= 1e-14) & (rel <= 1e-6) & (resid_top <= 1e-6)))[:1]:  # NaN fails
        fam, at = fams[r], s[r]
        assert lin_top[r] <= 1e-14, (
            f"{fam!r}: u'' - (2*delta - C*u) is {lin_top[r]:.3e} of its terms at s={at[lin[r].argmax()]}"
        )
        assert rel[r] <= 1e-6, f"{fam!r}: u' is off the central difference of u by {rel[r]:.3e} at s={at[diff[r].argmax()]}"
        assert resid_top[r] <= 1e-6, f"{fam!r}: residual {resid_top[r]:.3e} > 1e-6 at s={at[resid[r].argmax()]}"
    return f"worst residual {resid.max():.1e}, linear {lin.max():.1e}, u' vs central difference {rel.max():.1e}"


def _signature(outcome: cls.ClassificationOutcome) -> str:
    if outcome.tag == cls.ROTATION_FAMILY:
        return f"{outcome.tag}:{outcome.family}:{outcome.profile.ode_delta}"
    return outcome.tag


def _truth_table() -> list[tuple[int, float, float, frozenset[str]]]:
    e = STRADDLE
    empty = frozenset({"Empty"})
    umb = frozenset({"UmbilicalNonTG"})
    # classify's docstring: trig has one outcome (delta = 1), exponential one per delta in (1, 0, -1)
    trig = frozenset({"RotationFamily:trig:1"})
    expo = frozenset({f"RotationFamily:exponential:{delta}" for delta in (1, 0, -1)})
    rows: list[tuple[int, float, float, frozenset[str]]] = [
        (4, 1.0, -e, empty),
        (4, 1.0, +e, empty),
        (4, 1.0, 2.0 - e, empty),
        (4, 1.0, 2.0 + e, trig),
        (4, 1.0, 4.0 - e, trig),
        (4, 1.0, 4.0 + e, umb | trig),
        (4, 0.0, -e, empty),
        (4, 0.0, +e, umb | trig),
        (4, -1.0, -4.0 - e, empty),
        (4, -1.0, -4.0 + e, umb | expo),
        (4, -1.0, -2.0 - e, umb | expo),
        (4, -1.0, -2.0 + e, umb | expo),
        (4, -1.0, -e, umb | expo),
        (4, -1.0, +e, umb | trig),
    ]
    for n in (5, 6):
        rows += [
            (n, 1.0, -e, empty),
            (n, 1.0, +e, empty),
            (n, 1.0, 2.0 - e, empty),
            (n, 1.0, 2.0 + e, empty),
            (n, 1.0, 4.0 - e, empty),
            (n, 1.0, 4.0 + e, umb),
            (n, -1.0, -4.0 - e, empty),
            (n, -1.0, -4.0 + e, umb),
            (n, -1.0, -2.0 - e, umb),
            (n, -1.0, -2.0 + e, umb),
            (n, -1.0, -e, umb),
            (n, -1.0, +e, umb),
        ]
    rows += [
        (5, 0.0, -e, empty),
        (5, 0.0, +e, umb),
    ]
    assert len(rows) == 40
    return rows


def check_classification_table(config: RunConfig) -> str:
    """classify matches the hand-encoded boundary table; witnesses verify."""
    n_witnesses = 0
    worst_dev = worst_mean = 0.0
    for n, c, C, expected in _truth_table():
        q = cls.ClassQuery(n=n, c=c, C=C)
        outcomes = cls.classify(q)
        got = frozenset(_signature(o) for o in outcomes)
        assert got == expected, f"({n}, {c}, {C}): got {sorted(got)}, expected {sorted(expected)}"
        for o in outcomes:
            if o.tag != cls.ROTATION_FAMILY:
                continue
            fam = o.profile
            try:
                mean, deviation = pf.cic_mean_deviation(fam, pf.AmbientSpec(c, fam.ode_delta))
            except pf.DomainBreakdown as exc:
                raise AssertionError(f"witness {fam!r} fails domain check for ({n}, {c}, {C}): {exc}")
            worst_dev = max(worst_dev, deviation)
            worst_mean = max(worst_mean, abs(mean - C))
            assert deviation <= 1e-8, f"witness {fam!r}: cic deviation {deviation:.3e} > 1e-8"
            assert abs(mean - C) <= 1e-8, f"witness {fam!r}: cic mean {mean!r} != C = {C}"
            n_witnesses += 1
    return (
        f"40 boundary queries agree; {n_witnesses} witnesses verified "
        f"(worst deviation {worst_dev:.1e}, worst mean error {worst_mean:.1e})"
    )


def check_nonexistence(config: RunConfig) -> str:
    """Empty branches are refuted by concrete candidate-profile failures."""
    ev = cls.nonexistence_witness(cls.ClassQuery(4, 1.0, 1.5))
    assert ev.mechanism == "positive-bound-at-origin"
    assert ev.failure is not None and ev.failure.s == 0.0, f"expected failure at s=0, got {ev.failure}"
    assert "2c/C = 1.333333" in ev.detail

    ev = cls.nonexistence_witness(cls.ClassQuery(4, 1.0, 2.0))
    assert ev.mechanism == "positive-bound-at-origin" and ev.failure.s == 0.0

    ev = cls.nonexistence_witness(cls.ClassQuery(4, 0.0, -1.0))
    assert ev.mechanism == "unit-speed"
    assert ev.failure is not None and 0.0 < ev.failure.s <= 10.0

    ev = cls.nonexistence_witness(cls.ClassQuery(4, -1.0, -5.0))
    assert ev.mechanism == "asymptotic-negative"
    assert ev.failure is not None and 0.0 < ev.failure.s <= 10.0
    assert "-c + C/4 = -0.25" in ev.detail

    ev = cls.nonexistence_witness(cls.ClassQuery(5, 1.0, 3.0))
    assert ev.mechanism == "algebraic" and ev.candidate is None
    return "all obstruction mechanisms reproduced with concrete failing s"


def check_minimal_clifford(config: RunConfig) -> str:
    """Minimal analysis: Clifford data at C = 8c/3, geodesics at C = 4c, else none."""
    for c in (0.25, 0.75, 1.0, 2.0):
        v = cls.minimal_classify(4, c, 8.0 * c / 3.0)
        assert v.kind is cls.MinimalKind.CLIFFORD, f"c={c}: got {v.kind}"
        assert abs(3.0 * v.lam + v.mu) <= 1e-14, f"c={c}: H = {3.0 * v.lam + v.mu!r}"
        r, s = 1.0 / math.sqrt(4.0 * c / 3.0), 1.0 / math.sqrt(4.0 * c)  # radii of S^3(4c/3) x S^1(4c) in S^5(c)
        assert abs(v.lam + math.sqrt(c) * s / r) <= 1e-12  # lambda = -sqrt(c)*s/r along the S^3 factor
        assert abs(v.x0 - r) <= 1e-12  # the profile height is the S^3 radius
        assert abs(sp.cic_from_spectrum(c, v.lam, v.mu) - 8.0 * c / 3.0) <= 1e-12
    for n, c, C in ((4, 1.0, 5.0), (5, 1.0, 4.5), (4, -1.0, 1.0), (6, 0.0, 2.0)):
        assert cls.minimal_classify(n, c, C).kind is cls.MinimalKind.NONE, f"({n}, {c}, {C})"
    for n, c in ((5, 1.0), (6, -1.0), (5, 0.0)):
        v = cls.minimal_classify(n, c, 4.0 * c)
        assert v.kind is cls.MinimalKind.TOTALLY_GEODESIC, f"({n}, {c}, {4 * c}): got {v.kind}"
    return "Clifford data exact for c in {1/4, 3/4, 1, 2}; geodesic/none branches agree"


ALL_CHECKS = (
    ("tensor-symmetries", check_tensor_symmetries),
    ("product-sphere-line", check_product_sphere_line),
    ("product-family", check_product_family),
    ("flat-rotation-profile", check_flat_rotation_profile),
    ("gauss-frame-identity", check_gauss_frame_identity),
    ("profile-ode", check_profile_ode),
    ("classification-table", check_classification_table),
    ("nonexistence", check_nonexistence),
    ("minimal-clifford", check_minimal_clifford),
)


def run_all(config: RunConfig | None = None) -> list[CheckResult]:
    """Run every suite, converting assertion failures into failed results."""
    config = config or RunConfig()
    results = []
    for name, fn in ALL_CHECKS:
        start = time.perf_counter()
        try:
            detail = fn(config)
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
