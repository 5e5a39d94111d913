"""The library surface that `perfbench/` calls and traces.

`perfbench` binds arguments by name (its tracer reads `s_window` and
`grid_n` of `domain_check` from the call) and wraps entry points by name,
so renaming a parameter or an entry point breaks the benchmark without
breaking any other test.  These tests keep that surface fixed.
"""

import dataclasses
import inspect

import pytest

from isocurv import classification as cls
from isocurv import cli
from isocurv import curvature as cv
from isocurv import profiles as pf


def params(fn):
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize(
    "fn,names",
    [
        (pf.domain_check, ["f", "ambient", "s_window", "grid_n"]),
        (pf.cic_along_profile, ["f", "ambient", "s_window", "grid_n"]),
        (cls.nonexistence_witness, ["q", "s_max", "grid_n"]),
        (pf.integrate_profile, ["C", "delta", "x0", "v0", "s_max", "step"]),
        (cls.witness, ["outcome", "q"]),
    ],
)
def test_parameter_names(fn, names):
    assert params(fn) == names


def test_traced_entry_points_exist():
    for module, names in (
        (cv, ("build_constant_curvature", "build_product", "build_from_shape", "cic_probe",
              "_frame_array", "_isotropic_batch")),
        (pf, ("cic_along_profile", "domain_check", "integrate_profile")),
        (cls, ("classify", "nonexistence_witness")),
        (cli, ("main",)),
    ):
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_cic_along_profile_returns_rows_and_deviation():
    rows, deviation = pf.cic_along_profile(
        pf.ParabolicProfile(beta=1.0), pf.AmbientSpec(0.0), s_window=(-1.0, 1.0), grid_n=5
    )
    assert isinstance(rows, list) and len(rows) == 5
    for row in rows:
        for field in ("s", "x", "lam", "mu", "cic"):
            assert type(getattr(row, field)) is float
    assert isinstance(deviation, float)


def test_domain_check_failure_has_an_s_on_the_grid():
    failure = pf.domain_check(
        pf.TrigProfile(C=1.5, alpha=0.2), pf.AmbientSpec(1.0), s_window=(0.0, 10.0), grid_n=2001
    )
    assert failure.s == 0.0 and isinstance(failure.reason, str)


def test_integrate_profile_returns_s_x_xp_rows():
    rows = pf.integrate_profile(C=2.0, delta=1, x0=1.0, v0=0.0, s_max=1.0, step=0.5)
    assert [len(r) for r in rows] == [3] * 5
    assert [r[0] for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_classification_outcomes_as_the_benchmark_builds_and_reads_them():
    # perfbench stubs classify with this Empty outcome and reads .family
    assert cls.ClassificationOutcome(tag=cls.EMPTY, reason="-").tag == cls.EMPTY
    q = cls.ClassQuery(4, 0, 0)
    (rotation,) = [o for o in cls.classify(q) if o.tag == cls.ROTATION_FAMILY]
    assert rotation.family == "parabolic"


def test_nonexistence_evidence_and_failure_take_dataclasses_replace():
    ev = cls.nonexistence_witness(cls.ClassQuery(4, 0.0, -1.0))
    moved = dataclasses.replace(ev.failure, s=ev.failure.s + 0.5)
    assert isinstance(moved, pf.FirstFailure) and moved.s == ev.failure.s + 0.5
    assert dataclasses.replace(ev, failure=moved).failure is moved
