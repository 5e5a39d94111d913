"""The library surface that `perfbench/` calls and traces.

`perfbench` binds arguments by name (its tracer reads `s_window` and
`grid_n` of `domain_check` from the call) and wraps entry points by name,
so renaming a parameter or an entry point breaks the benchmark without
breaking any other test.  These tests keep that surface fixed.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from isocurv import checks
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
        # the tracer reads the frame batch as args[1] for its per-dimension eval metrics
        (cv._isotropic_batch, ["t", "frames"]),
        # the probe workload calls cic_probe with count= and seed=, and builds
        # its frame batches from sample_frames(n, count, seed)
        (cv.cic_probe, ["t", "count", "seed"]),
        (cv.sample_frames, ["n", "count", "seed"]),
        # checks probes its stacks through cic_probes, which samples and evaluates through the traced globals
        (cv.cic_probes, ["tensors", "count", "seed"]),
    ],
)
def test_parameter_names(fn, names):
    assert params(fn) == names


@pytest.mark.parametrize("n,count,seed", [(4, 10, 1), (8, 50, 7)])
def test_sample_frames_stack_to_the_probe_batch(n, count, seed):
    """perfbench builds its frame batches as np.stack of sample_frames'
    OrthoFrame4.vectors; they are the batch cic_probe evaluates, bitwise."""
    stacked = np.stack([f.vectors for f in cv.sample_frames(n, count, seed)])
    batch = cv._frame_array(n, count, seed)
    assert stacked.shape == batch.shape and stacked.tobytes() == batch.tobytes()


@pytest.mark.parametrize("n,count,seed", [(4, 1, 3), (16, 200, 7)])
def test_frame_array_is_a_c_contiguous_read_only_float64_batch(n, count, seed):
    """The tracer reads the batch's shape[0] and shape[-1] as its frame count and dimension."""
    batch = cv._frame_array(n, count, seed)
    assert batch.shape == (count, 4, n) and batch.dtype == np.float64
    assert batch.flags.c_contiguous and not batch.flags.writeable


def test_check_workload_builds_its_config_and_results():
    # perfbench builds checks.RunConfig(seed=seed), runs checks.run_all(config)
    # and, in its own tests, builds CheckResult positionally
    assert params(checks.RunConfig) == ["seed"]
    assert params(checks.run_all) == ["config"]
    result = checks.CheckResult("suite", True, "detail", 0.5)
    assert (result.name, result.passed, result.detail, result.seconds) == ("suite", True, "detail", 0.5)


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


def test_cic_probe_samples_through_the_module_global(monkeypatch):
    """The tracer times frame sampling by replacing `cv._frame_array`, so
    cic_probe must look it up at call time, once per probe, kept batch or
    not."""
    calls = []
    original = cv._frame_array

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cv, "_frame_array", counting)
    t = cv.build_constant_curvature(4, 1.0)
    for seed in (1, 1, 2, 1):
        cv.cic_probe(t, count=10, seed=seed)
    assert calls == [(4, 10, 1), (4, 10, 1), (4, 10, 2), (4, 10, 1)]


def test_cic_probes_samples_and_evaluates_through_the_module_globals(monkeypatch):
    """The tracer wraps `cv._frame_array` and `cv._isotropic_batch`, so a
    stack probe looks the first up once per call and the second once per
    chunk, both at call time."""
    calls = []
    sample, evaluate = cv._frame_array, cv._isotropic_batch

    def counting_sample(*args):
        calls.append(args)
        return sample(*args)

    def counting_evaluate(t, frames):
        calls.append(len(t))
        return evaluate(t, frames)

    monkeypatch.setattr(cv, "_frame_array", counting_sample)
    monkeypatch.setattr(cv, "_isotropic_batch", counting_evaluate)
    stack = [cv.build_from_shape(0.1 * k, (1.0, -0.5, 2.0, 0.3)) for k in range(25)]
    cv.cic_probes(stack, count=500, seed=1)
    assert calls == [(4, 500, 1), 10, 10, 5]


def test_isotropic_batch_of_a_stack_has_one_row_per_frame():
    """The tracer counts len(result) frames per _isotropic_batch call."""
    frames = cv._frame_array(4, 30, 2)
    stack = [cv.build_constant_curvature(4, 1.0), cv.CurvatureTensor(4, np.zeros((4, 4, 4, 4))),
             cv.build_from_shape(0.5, (1.0, 1.0, 1.0, -1.0))]
    assert len(cv._isotropic_batch(stack, frames)) == frames.shape[0]


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
