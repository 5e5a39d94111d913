import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isocurv.curvature import build_from_shape, cic_probe
from isocurv.spectra import (
    MinimalKind,
    ShapeSpectrum,
    SpectrumError,
    TwoCurvatureForm,
    cic_from_spectrum,
    cmc_lambda_solve,
    mean_curvature,
    minimal_classify,
    pairing_test,
    two_curvature_form,
)
from isocurv.spectra import _violating_subset

moderate = st.floats(min_value=-3.0, max_value=3.0)


# ---------------------------------------------------------------------------
# pairing test and spectrum reduction


@pytest.mark.parametrize(
    "lams,expected",
    [
        ((1.0, 1.0, 1.0, 2.0), True),   # pairings 3, 3, 3
        ((1.0, 2.0, 3.0, 4.0), False),  # pairings 14, 11, 10
        ((0.0, 0.0, 0.0, 0.0), True),
        ((1.0, 1.0, 2.0, 2.0), False),  # pairings 5, 4, 4
    ],
)
def test_pairing_examples(lams, expected):
    assert pairing_test(lams) is expected


def test_two_curvature_form_examples():
    form = two_curvature_form(ShapeSpectrum(0.0, (-1.0, -1.0, -1.0, 1.0)))
    assert (form.lam, form.mu, form.n) == (-1.0, 1.0, 4)

    form = two_curvature_form(ShapeSpectrum(0.0, (2.0, 2.0, 2.0, 2.0)))
    assert form.lam == form.mu == 2.0


def test_two_curvature_form_order_independent():
    form = two_curvature_form(ShapeSpectrum(1.0, (5.0, -0.5, -0.5, -0.5, -0.5)))
    assert (form.lam, form.mu) == (-0.5, 5.0)


def test_two_curvature_form_rejects_balanced_split():
    with pytest.raises(SpectrumError, match="4-subset"):
        two_curvature_form(ShapeSpectrum(0.0, (1.0, 1.0, 2.0, 2.0)))


def test_two_curvature_form_rejects_three_values():
    with pytest.raises(SpectrumError, match="4-subset"):
        two_curvature_form(ShapeSpectrum(0.0, (1.0, 1.0, 2.0, 3.0)))


def test_two_curvature_form_merges_within_tolerance():
    form = two_curvature_form(ShapeSpectrum(0.0, (1.0, 1.0 + 1e-12, 1.0 - 1e-12, 3.0)))
    assert form.lam == pytest.approx(1.0, abs=1e-11)
    assert form.mu == 3.0


def test_spectrum_requires_four_values():
    with pytest.raises(ValueError):
        ShapeSpectrum(0.0, (1.0, 2.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(lam=moderate, mu=moderate, n=st.integers(4, 7), data=st.data())
def test_planted_two_value_spectra_accepted(lam, mu, n, data):
    """Spectra of the valid shape reduce back to their planted (lam, mu)."""
    assume(abs(lam - mu) > 0.1)
    values = [lam] * (n - 1) + [mu]
    perm = data.draw(st.permutations(values))
    form = two_curvature_form(ShapeSpectrum(0.0, tuple(perm)))
    assert form.lam == pytest.approx(lam, abs=1e-12)
    assert form.mu == pytest.approx(mu, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    base=st.lists(moderate, min_size=4, max_size=7),
)
def test_reduction_consistent_with_pairing_subsets(base):
    """two_curvature_form succeeds exactly when every 4-subset pairs up."""
    from itertools import combinations

    values = tuple(round(v, 1) for v in base)  # well-separated planted values
    subsets_ok = all(
        pairing_test([values[i] for i in idx], tol=1e-9)
        for idx in combinations(range(len(values)), 4)
    )
    try:
        two_curvature_form(ShapeSpectrum(0.0, values), tol=1e-9)
        reduced = True
    except SpectrumError:
        reduced = False
    assert reduced == subsets_ok


def test_small_scale_two_value_spectrum_is_not_umbilical():
    form = two_curvature_form(ShapeSpectrum(0.0, (1e-10, 1e-10, 1e-10, 3e-10)))
    assert form.lam == pytest.approx(1e-10, rel=1e-15)
    assert form.mu == 3e-10


def test_large_scale_rounding_does_not_split_a_value():
    lams = (1e8, 1e8, math.nextafter(1e8, 2e8), 3e8)
    assert pairing_test(lams)
    form = two_curvature_form(ShapeSpectrum(0.0, lams))
    assert form.lam == pytest.approx(1e8, rel=1e-15)
    assert form.mu == 3e8


def test_pairing_tolerance_is_relative():
    # pairings (14, 11, 10) * 1e-20: far apart at their own scale
    assert not pairing_test((1e-10, 2e-10, 3e-10, 4e-10))
    assert pairing_test((1e-10, 1e-10, 1e-10, 2e-10))
    assert pairing_test((1e10, 1e10, 1e10, 2e10))


@settings(max_examples=60, deadline=None)
@given(
    lam=moderate, mu=moderate, n=st.integers(4, 7),
    t=st.floats(min_value=-10.0, max_value=10.0).map(lambda e: 10.0 ** e),
)
def test_scaled_two_value_spectrum_scales_the_form(lam, mu, n, t):
    """Scaling a planted (lam, mu) spectrum by t in [1e-10, 1e10] scales the form by t."""
    assume(abs(lam - mu) > 0.1)
    form = two_curvature_form(ShapeSpectrum(0.0, (t * lam,) * (n - 1) + (t * mu,)))
    scale = t * max(abs(lam), abs(mu))
    assert abs(form.lam - t * lam) <= 1e-15 * scale
    assert abs(form.mu - t * mu) <= 1e-15 * scale


def _brute_force_worst_subset(values):
    """Worst pairing spread over all C(n, 4) subsets."""
    from itertools import combinations

    def spread(idx):
        a, b, c, d = (values[i] for i in idx)
        p = (a * b + c * d, a * c + b * d, a * d + b * c)
        return max(p) - min(p)

    return max(spread(idx) for idx in combinations(range(len(values)), 4)), spread


@pytest.mark.parametrize("seed", range(20))
def test_violating_subset_matches_brute_force(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    values = [float(v) for v in rng.uniform(-3.0, 3.0, size=int(rng.integers(4, 10)))]
    if seed % 2:  # tied spectra: draw from a few levels
        values = [round(v) for v in values]
    worst, spread = _brute_force_worst_subset(values)
    idx, got = _violating_subset(values)
    tol = 1e-12 * max(1.0, max(abs(v) for v in values) ** 2)
    assert list(idx) == sorted(set(idx)) and len(idx) == 4
    assert abs(got - worst) <= tol
    assert abs(spread(idx) - worst) <= tol


@pytest.mark.parametrize(
    "values",
    [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 2.0, 2.0, 3.0), (2.0, 1.0, 2.0, 1.0, 3.0, 3.0), (0.0,) * 6 + (5.0,)],
)
def test_violating_subset_on_tied_values(values):
    worst, spread = _brute_force_worst_subset(values)
    idx, got = _violating_subset(values)
    assert list(idx) == sorted(set(idx)) and len(idx) == 4
    assert got == worst == spread(idx)


# ---------------------------------------------------------------------------
# isotropic constant, mean curvature, CMC quadratic


@pytest.mark.parametrize(
    "c,lam,mu,expected",
    [
        (0.0, -1.0, 1.0, 0.0),
        (0.0, 1.0, 1.0, 4.0),
        (0.75, -0.5, 1.5, 2.0),
    ],
)
def test_cic_from_spectrum_values(c, lam, mu, expected):
    assert cic_from_spectrum(c, lam, mu) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "form,expected",
    [
        (TwoCurvatureForm(-0.5, 1.5, 4), 0.0),
        (TwoCurvatureForm(0.0, 0.0, 5), 0.0),
        (TwoCurvatureForm(1.0, 1.0, 4), 4.0),
    ],
)
def test_mean_curvature_values(form, expected):
    assert mean_curvature(form) == expected


def test_cmc_solve_clifford_quadratic():
    roots = cmc_lambda_solve(4, 0.75, 2.0, 0.0)
    assert len(roots) == 2
    (lam1, mu1), (lam2, mu2) = roots
    assert lam1 == pytest.approx(-0.5, abs=1e-14)
    assert mu1 == pytest.approx(1.5, abs=1e-14)
    assert lam2 == pytest.approx(0.5, abs=1e-14)
    # the negative root is -sqrt(c - C/4)
    assert lam1 == pytest.approx(-math.sqrt(0.75 - 0.5), abs=1e-14)


def test_cmc_solve_double_and_empty():
    assert cmc_lambda_solve(5, 1.0, 4.0, 0.0) == [(0.0, 0.0)]
    roots = cmc_lambda_solve(4, 0.0, 4.0, 4.0)
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(1.0, abs=1e-12)
    assert roots[0][1] == pytest.approx(1.0, abs=1e-12)
    assert cmc_lambda_solve(4, 1.0, 10.0, 0.0) == []


def test_cmc_solve_exact_umbilical_double_root():
    # analytically a double root; roundoff must not drop it
    roots = cmc_lambda_solve(4, 0.3, cic_from_spectrum(0.3, 1.1, 1.1), 4 * 1.1)
    assert len(roots) >= 1
    assert any(abs(lam - 1.1) < 1e-7 for lam, _ in roots)


@settings(max_examples=100, deadline=None)
@given(c=st.floats(-2, 2), lam=moderate, mu=moderate, n=st.integers(4, 6))
def test_cmc_round_trip(c, lam, mu, n):
    """Solving with the derived (C, H) recovers the generating pair."""
    assume(abs(lam * (n - 2) - (lam + mu)) > 0.05)  # away from the double root
    C = cic_from_spectrum(c, lam, mu)
    H = (n - 1) * lam + mu
    roots = cmc_lambda_solve(n, c, C, H)
    assert any(
        abs(rl - lam) <= 1e-10 and abs(rm - mu) <= 1e-10 for rl, rm in roots
    ), f"no root matches ({lam}, {mu}) in {roots}"
    for rl, rm in roots:
        assert abs(cic_from_spectrum(c, rl, rm) - C) <= 1e-12


def test_cmc_rejects_small_n():
    with pytest.raises(ValueError):
        cmc_lambda_solve(3, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# minimal classification


@pytest.mark.parametrize("c", [0.25, 0.75, 1.0, 2.0])
def test_minimal_clifford_data(c):
    v = minimal_classify(4, c, 8.0 * c / 3.0)
    assert v.kind is MinimalKind.CLIFFORD
    assert abs(3.0 * v.lam + v.mu) <= 1e-14
    assert v.lam == pytest.approx(-math.sqrt(c / 3.0), abs=1e-12)
    assert v.mu == pytest.approx(math.sqrt(3.0 * c), abs=1e-12)
    assert v.x0 == pytest.approx(math.sqrt(3.0 / (4.0 * c)), abs=1e-14)
    assert cic_from_spectrum(c, v.lam, v.mu) == pytest.approx(8.0 * c / 3.0, abs=1e-12)


def test_minimal_clifford_spec_instance():
    v = minimal_classify(4, 0.75, 2.0)
    assert v.kind is MinimalKind.CLIFFORD
    assert (v.lam, v.mu, v.x0) == (-0.5, 1.5, 1.0)


@pytest.mark.parametrize(
    "n,c,C,kind",
    [
        (5, 1.0, 4.0, MinimalKind.TOTALLY_GEODESIC),
        (4, 1.0, 5.0, MinimalKind.NONE),
        (4, 1.0, 3.0, MinimalKind.NONE),     # C < 4c but not 8c/3
        (4, -1.0, -4.0, MinimalKind.TOTALLY_GEODESIC),
        (4, 0.0, 0.0, MinimalKind.TOTALLY_GEODESIC),
        (6, -1.0, -5.0, MinimalKind.NONE),
        (5, 0.5, 8.0 * 0.5 / 3.0, MinimalKind.NONE),  # Clifford needs n = 4
    ],
)
def test_minimal_branches(n, c, C, kind):
    assert minimal_classify(n, c, C).kind is kind


def test_minimal_clifford_tolerance_is_relative():
    """A float C matches 8c/3 within 1e-12 * max(|c|, |C|), as it matches 4c."""
    for c in (1e-6, 1.0, 1e6):
        assert minimal_classify(4, c, 8.0 * c / 3.0 * (1 + 1e-13)).kind is MinimalKind.CLIFFORD
        assert minimal_classify(4, c, 8.0 * c / 3.0 * (1 + 1e-10)).kind is MinimalKind.NONE
        assert minimal_classify(4, c, 8.0 * c / 3.0 * (1 - 1e-10)).kind is MinimalKind.NONE
        assert minimal_classify(4, c, 8.0 * c / 3.0 + 1e-3 * c).kind is MinimalKind.NONE


@pytest.mark.parametrize(
    "c,C,kind",
    [
        (1, Fraction(8, 3), MinimalKind.CLIFFORD),
        (Fraction(3, 4), 2, MinimalKind.CLIFFORD),
        (1, Fraction(8, 3) + Fraction(1, 10**12), MinimalKind.NONE),
        (1, Fraction(8, 3) - Fraction(1, 10**30), MinimalKind.NONE),
    ],
)
def test_minimal_clifford_is_exact_for_exact_inputs(c, C, kind):
    assert minimal_classify(4, c, C).kind is kind


# ---------------------------------------------------------------------------
# cross-module: spectrum formula against the frame probe


@pytest.mark.parametrize(
    "c,lam,mu",
    [
        (0.0, -1.0, 1.0),
        (0.75, -0.5, 1.5),
        (1.0, 0.5, -2.0),
        (-1.0, 1.3, 0.4),
    ],
)
def test_spectrum_formula_matches_probe(c, lam, mu):
    t = build_from_shape(c, (lam, lam, lam, mu))
    report = cic_probe(t, count=500, seed=42)
    expected = cic_from_spectrum(c, lam, mu)
    assert abs(report.min - expected) <= 1e-10
    assert abs(report.max - expected) <= 1e-10


def test_nonpairing_spectrum_probes_nonconstant():
    """Spectra violating the pairing identity are flagged by the probe."""
    t = build_from_shape(0.0, (1.0, 2.0, 3.0, 4.0))
    report = cic_probe(t, count=1000, seed=42)
    assert report.max - report.min > 1e-6 * np.max(np.abs(t.comp))


def test_sign_flipped_gauss_tensor_is_caught():
    """A wrong-sign shape-operator term survives the symmetry checks but
    breaks the spectrum identity, so the frame probe exposes it."""
    import numpy as np

    from isocurv.curvature import CurvatureTensor, check_symmetries

    c, lam, mu = 0.5, -1.0, 2.0
    lams = np.array([lam, lam, lam, mu])
    eye = np.eye(4)
    kmat = c - np.outer(lams, lams)  # corrupted: c - lam_i*lam_j
    comp = np.einsum("ij,il,jk->ijkl", kmat, eye, eye) - np.einsum("ij,ik,jl->ijkl", kmat, eye, eye)
    bad = CurvatureTensor(4, comp)
    assert check_symmetries(bad).max_residual <= 1e-14  # symmetries alone can't see it
    report = cic_probe(bad, count=500, seed=42)
    assert abs(report.mean - cic_from_spectrum(c, lam, mu)) > 0.1


@settings(max_examples=25, deadline=None)
@given(
    lams=st.tuples(moderate, moderate, moderate, moderate),
)
def test_pairing_failure_implies_probe_spread(lams):
    """Planted pairing gaps of at least 1e-3 always show up in the probe."""
    p = (
        lams[0] * lams[1] + lams[2] * lams[3],
        lams[0] * lams[2] + lams[1] * lams[3],
        lams[0] * lams[3] + lams[1] * lams[2],
    )
    assume(max(p) - min(p) >= 1e-3)
    t = build_from_shape(0.0, lams)
    report = cic_probe(t, count=1000, seed=42)
    assert report.max - report.min > 1e-6 * np.max(np.abs(t.comp))
