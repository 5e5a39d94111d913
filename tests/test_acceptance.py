"""Acceptance criteria, one test per criterion.

Each test drives the corresponding verification suite from isocurv.checks at
its stated tolerances and prints one PASS line (visible with `pytest -s`;
failures surface as ordinary assertion errors).  Criterion 8 also enforces
the total-runtime budget across the whole set.
"""

import time

import pytest

from isocurv import checks

_DEFAULT = checks.RunConfig()
_TIMES: dict[int, float] = {}


def _run(number: int, name: str, fn) -> str:
    start = time.perf_counter()
    detail = fn(_DEFAULT)
    elapsed = time.perf_counter() - start
    _TIMES[number] = elapsed
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s] {detail}")
    return detail


def test_criterion_1_sphere_line_probe():
    """Probe of the 3-sphere x line product: mean 2, spread <= 1e-10, < 1 s."""
    _run(1, "product-sphere-line", checks.check_product_sphere_line)
    assert _TIMES[1] < 1.0, f"criterion 1 took {_TIMES[1]:.2f}s (budget 1s)"


def test_criterion_2_product_suite():
    """Product family probes: constants at 2 and 0, non-constant case flagged, < 5 s."""
    _run(2, "product-family", checks.check_product_family)
    assert _TIMES[2] < 5.0, f"criterion 2 took {_TIMES[2]:.2f}s (budget 5s)"


def test_criterion_3_parabolic_profiles():
    """Flat rotation profiles: principal curvatures and zero isotropic constant."""
    _run(3, "flat-rotation-profile", checks.check_flat_rotation_profile)


def test_criterion_4_gauss_frame_identity():
    """200 random spectra: frame functional equals 4c + 2(lam^2 + lam*mu)."""
    _run(4, "gauss-frame-identity", checks.check_gauss_frame_identity)


def test_criterion_5_ode_verification():
    """Closed forms solve the profile equation: nonlinear residual, linear equation exactly, u' vs u."""
    _run(5, "profile-ode", checks.check_profile_ode)


def test_criterion_6_decision_table():
    """40 boundary-straddling queries match; rotation witnesses hold their constant."""
    _run(6, "classification-table", checks.check_classification_table)


def test_criterion_7_nonexistence_obstructions():
    """The three obstruction mechanisms appear with concrete failing s values."""
    _run(7, "nonexistence", checks.check_nonexistence)


def test_criterion_8_minimal_analysis():
    """Clifford minimal data at C = 8c/3; None/TotallyGeodesic elsewhere; total < 60 s."""
    _run(8, "minimal-clifford", checks.check_minimal_clifford)
    if len(_TIMES) == 8:  # running the full set sequentially
        total = sum(_TIMES.values())
        print(f"ACCEPTANCE total runtime: {total:.2f}s")
        assert total < 60.0, f"acceptance suite took {total:.2f}s (budget 60s)"


def test_symmetry_suite_also_green():
    """The construction-symmetry suite backing the other criteria passes."""
    detail = checks.check_tensor_symmetries(_DEFAULT)
    print(f"ACCEPTANCE 0 (tensor-symmetries): PASS {detail}")
