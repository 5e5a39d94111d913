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
RK4_STEP = 1e-3           # step of the profile-ode integrations


@dataclass(frozen=True)
class RunConfig:
    """Seed, frame count and tolerance of the frame probes in the suites.

    Profile grids use pf.DEFAULT_WINDOW and pf.DEFAULT_GRID, and the RK4
    integrations step RK4_STEP.
    """

    seed: int = cv.DEFAULT_SEED
    frames: int = cv.DEFAULT_FRAMES
    tol: float = cv.DEFAULT_PROBE_TOL

    def __post_init__(self):
        if self.frames < 2:
            raise ValueError(f"frames must be >= 2, got {self.frames}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


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
    report = cv.cic_probe(_sphere_line(), count=config.frames, seed=config.seed, tol=config.tol)
    spread = report.max - report.min
    assert abs(report.mean - 2.0) <= 1e-10, f"mean {report.mean!r} != 2"
    assert spread <= 1e-10, f"spread {spread:.3e} > 1e-10"
    assert report.is_constant
    return f"mean {report.mean:.12f}, spread {spread:.1e} over {report.samples} frames"


def check_product_family(config: RunConfig) -> str:
    """Constant cases probe flat; the 5-sphere times a line does not."""
    s3s1 = cv.build_product(
        cv.ProductSpec((cv.Factor("sphere", 3, 1.0), cv.Factor("sphere", 1, 1.0)))
    )
    report = cv.cic_probe(s3s1, count=config.frames, seed=config.seed, tol=config.tol)
    assert abs(report.mean - 2.0) <= 1e-10 and report.max - report.min <= 1e-10, (
        f"S3 x S1 probe off: mean {report.mean!r}, spread {report.max - report.min:.3e}"
    )
    for c in (0.5, 1.0, 2.0):
        mixed = cv.build_product(
            cv.ProductSpec((cv.Factor("sphere", 2, c), cv.Factor("hyperbolic", 2, -c)))
        )
        report = cv.cic_probe(mixed, count=config.frames, seed=config.seed, tol=config.tol)
        assert abs(report.mean) <= 1e-10 and report.max - report.min <= 1e-10, (
            f"S2({c}) x H2({-c}) probe off: mean {report.mean!r}"
        )
    s5r = cv.build_product(
        cv.ProductSpec((cv.Factor("sphere", 5, 1.0), cv.Factor("flat", 1, 0.0)))
    )
    report = cv.cic_probe(s5r, count=config.frames, seed=config.seed, tol=config.tol)
    spread = report.max - report.min
    floor = 1.0 if config.frames >= 1000 else 1e-3
    assert spread >= floor, f"S5 x R spread {spread:.3e} < {floor}"
    assert not report.is_constant
    assert report.min >= 2.0 - 1e-10 and report.max <= 4.0 + 1e-10, (
        f"S5 x R values outside [2, 4]: [{report.min}, {report.max}]"
    )
    return f"constant products flat to 1e-10; S5 x R spread {spread:.2f} in [2, 4]"


def check_flat_rotation_profile(config: RunConfig) -> str:
    """Flat-ambient parabolic profiles have lambda = -sqrt(beta)/(s^2+beta) = -mu."""
    ambient = pf.AmbientSpec(c=0.0, delta=1)
    worst_lam = worst_cic = 0.0
    for beta in (0.5, 1.0, 4.0):
        samples, deviation = pf.cic_along_profile(pf.ParabolicProfile(beta=beta), ambient)
        s, lam, mu, cic = np.array([(p.s, p.lam, p.mu, p.cic) for p in samples]).T
        expected = -math.sqrt(beta) / (s * s + beta)
        worst_lam = max(worst_lam, np.max(np.abs(lam - expected)), np.max(np.abs(mu + expected)))
        worst_cic = max(worst_cic, np.max(np.abs(cic)))
        assert deviation <= 1e-10, f"beta={beta}: cic deviation {deviation:.3e} > 1e-10"
    assert worst_lam <= 1e-10, f"principal-curvature mismatch {worst_lam:.3e} > 1e-10"
    assert worst_cic <= 1e-10, f"|cic| reaches {worst_cic:.3e} > 1e-10"
    return f"lambda/mu match {worst_lam:.1e}, |cic| <= {worst_cic:.1e} for beta in {{0.5, 1, 4}}"


def check_gauss_frame_identity(config: RunConfig) -> str:
    """Gauss tensors of (lam, lam, lam, mu) spectra probe at 4c + 2(lam^2 + lam*mu)."""
    rng = np.random.default_rng(config.seed)
    frames = min(500, config.frames)
    worst = 0.0
    for _ in range(200):
        c, lam, mu = rng.uniform(-2.0, 2.0, size=3)
        t = cv.build_from_shape(c, (lam, lam, lam, mu))
        expected = sp.cic_from_spectrum(c, lam, mu)
        report = cv.cic_probe(t, count=frames, seed=config.seed, tol=config.tol)
        err = max(abs(report.min - expected), abs(report.max - expected))
        worst = max(worst, err)
        assert err <= 1e-10, f"(c={c}, lam={lam}, mu={mu}): error {err:.3e} > 1e-10"
    return f"200 spectra x {frames} frames, worst deviation {worst:.1e}"


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


def _sup_error_vs_closed_form(fam: pf.ProfileFamily, step: float) -> tuple[float, float]:
    """(sup |x_rk - x_closed|, sup |x_closed|) on a thinned sample grid."""
    x0, v0, _ = fam.eval(0.0)
    s_max = pf.DEFAULT_WINDOW[1]
    pts = pf.integrate_profile(fam.ode_constant, fam.ode_delta, x0, v0, s_max=s_max, step=step)
    s, x, _ = np.array(pts[:: max(1, len(pts) // 500)]).T
    xc, _, _ = fam.eval(s)
    return float(np.max(np.abs(x - xc))), float(np.max(np.abs(xc)))


def check_profile_ode(config: RunConfig) -> str:
    """Closed forms satisfy the profile equation; RK4 reproduces them at order 4."""
    rng = np.random.default_rng(config.seed)
    h = 1e-4
    worst_resid = worst_rel = 0.0
    for _ in range(50):
        fam = _random_valid_family(rng)
        s = rng.uniform(-2.0, 2.0, size=100)
        resid = pf.ode_residual(fam, fam.ode_constant, fam.ode_delta, s, h)
        i = int(np.argmax(resid))
        worst_resid = max(worst_resid, float(resid[i]))
        assert resid[i] <= 1e-6, f"{fam!r}: residual {resid[i]:.3e} > 1e-6 at s={s[i]}"
        err, scale = _sup_error_vs_closed_form(fam, RK4_STEP)
        rel = err / max(1.0, scale)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6, f"{fam!r}: RK error {err:.3e} (scale {scale:.1e}) > 1e-6"

    # named cases, absolute bounds
    err, _ = _sup_error_vs_closed_form(pf.ParabolicProfile(beta=1.0), RK4_STEP)
    assert err <= 1e-8, f"parabolic RK error {err:.3e} > 1e-8"
    trig = pf.TrigProfile(C=2.0, alpha=0.3)
    err, _ = _sup_error_vs_closed_form(trig, RK4_STEP)
    assert err <= 1e-6, f"trig RK error {err:.3e} > 1e-6"

    # fourth-order convergence on the trig case, in the truncation-dominated regime
    coarse, _ = _sup_error_vs_closed_form(trig, 0.1)
    fine, _ = _sup_error_vs_closed_form(trig, 0.05)
    ratio = coarse / fine
    assert ratio >= 12.0, f"convergence ratio {ratio:.1f} < 12"
    return f"worst residual {worst_resid:.1e}, worst RK error {worst_rel:.1e}, order ratio {ratio:.1f}"


def _signature(outcome: cls.ClassificationOutcome) -> str:
    if outcome.tag == cls.ROTATION_FAMILY:
        return f"{outcome.tag}:{outcome.family}"
    return outcome.tag


def _truth_table() -> list[tuple[int, float, float, frozenset[str]]]:
    e = STRADDLE
    empty = frozenset({"Empty"})
    umb = frozenset({"UmbilicalNonTG"})
    rows: list[tuple[int, float, float, frozenset[str]]] = [
        (4, 1.0, -e, empty),
        (4, 1.0, +e, empty),
        (4, 1.0, 2.0 - e, empty),
        (4, 1.0, 2.0 + e, frozenset({"RotationFamily:trig"})),
        (4, 1.0, 4.0 - e, frozenset({"RotationFamily:trig"})),
        (4, 1.0, 4.0 + e, frozenset({"UmbilicalNonTG", "RotationFamily:trig"})),
        (4, 0.0, -e, empty),
        (4, 0.0, +e, frozenset({"TotallyGeodesic", "UmbilicalNonTG", "RotationFamily:trig"})),
        (4, -1.0, -4.0 - e, empty),
        (4, -1.0, -4.0 + e, frozenset({"UmbilicalNonTG", "RotationFamily:exponential"})),
        (4, -1.0, -2.0 - e, frozenset({"UmbilicalNonTG", "RotationFamily:exponential"})),
        (4, -1.0, -2.0 + e, frozenset({"UmbilicalNonTG", "RotationFamily:exponential"})),
        (4, -1.0, -e, frozenset({"UmbilicalNonTG", "RotationFamily:exponential"})),
        (4, -1.0, +e, frozenset({"UmbilicalNonTG", "RotationFamily:trig"})),
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
                samples, deviation = pf.cic_along_profile(fam, pf.AmbientSpec(c, fam.ode_delta))
            except pf.DomainBreakdown as exc:
                raise AssertionError(f"witness {fam!r} fails domain check for ({n}, {c}, {C}): {exc}")
            mean = sum(p.cic for p in samples) / len(samples)
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
        v = sp.minimal_classify(4, c, 8.0 * c / 3.0)
        assert v.kind is sp.MinimalKind.CLIFFORD, f"c={c}: got {v.kind}"
        assert abs(3.0 * v.lam + v.mu) <= 1e-14, f"c={c}: H = {3.0 * v.lam + v.mu!r}"
        assert abs(v.lam + math.sqrt(c / 3.0)) <= 1e-12
        assert abs(v.x0 - math.sqrt(3.0 / (4.0 * c))) <= 1e-12
        assert abs(sp.cic_from_spectrum(c, v.lam, v.mu) - 8.0 * c / 3.0) <= 1e-12
    for n, c, C in ((4, 1.0, 5.0), (5, 1.0, 4.5), (4, -1.0, 1.0), (6, 0.0, 2.0)):
        assert sp.minimal_classify(n, c, C).kind is sp.MinimalKind.NONE, f"({n}, {c}, {C})"
    for n, c in ((5, 1.0), (6, -1.0), (5, 0.0)):
        v = sp.minimal_classify(n, c, 4.0 * c)
        assert v.kind is sp.MinimalKind.TOTALLY_GEODESIC, f"({n}, {c}, {4 * c}): got {v.kind}"
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
