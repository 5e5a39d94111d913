"""The benchmark's own tests: every output check rejects a perturbed result.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from isocurv import checks
from isocurv import classification as cls
from isocurv import curvature as cv

import tracing
import workloads
from oracle import Incorrect

SEED = 0
HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def probe():
    return {op.label: op for op in workloads.probe_ops(SEED)}


@pytest.fixture(scope="module")
def profiles():
    return {op.label: op for op in workloads.profiles_ops(SEED)}


def _first(ops: dict, prefix: str):
    return next(op for label, op in ops.items() if label.startswith(prefix))


def _rejects(op, out):
    with pytest.raises(Incorrect):
        op.check(out)


@pytest.mark.parametrize("field", ["min", "max", "mean"])
def test_probe_value_off_the_own_evaluation_is_rejected(probe, field):
    op = _first(probe, "gauss n=8")
    rep = op.run()
    assert op.check(rep) is True
    _rejects(op, dataclasses.replace(rep, **{field: getattr(rep, field) * (1 + 1e-8)}))


def test_probe_value_off_the_closed_form_is_rejected(probe):
    op = _first(probe, "gauss Clifford")
    rep = op.run()
    assert op.check(rep) is True
    _rejects(op, dataclasses.replace(rep, min=rep.min + 1e-6, max=rep.max + 1e-6, mean=rep.mean + 1e-6))


def test_probe_constancy_verdict_is_checked(probe):
    op = _first(probe, "product S5 x R1")
    rep = op.run()
    assert op.check(rep) is True
    _rejects(op, dataclasses.replace(rep, is_constant=True))


def test_known_fault_counts_as_failed_not_wrong(probe):
    op = _first(probe, "constant n=4 k=1e9")
    rep = op.run()
    assert rep.is_constant is False
    assert op.check(rep) is False
    assert op.check(dataclasses.replace(rep, is_constant=True)) is True
    _rejects(op, dataclasses.replace(rep, min=rep.min * (1 - 1e-8)))


def test_cli_probe_output_is_checked(probe):
    op = _first(probe, "cli probe S3")
    code, text = op.run()
    assert op.check((code, text)) is True
    data = json.loads(text)
    data["mean"] += 1e-6
    _rejects(op, (code, json.dumps(data)))
    _rejects(op, (1, text))


def test_witness_isotropic_value_is_checked(profiles):
    op = _first(profiles, "classify (4, 0, 0)")
    outcomes, found = op.run()
    assert op.check((outcomes, found)) is True
    fam, failure, (rows, deviation) = found[0]
    rows = list(rows)
    rows[1000] = dataclasses.replace(rows[1000], cic=rows[1000].cic + 1e-6)
    _rejects(op, (outcomes, [(fam, failure, (rows, deviation))]))


def test_classification_must_be_scale_invariant(profiles, monkeypatch):
    op = _first(profiles, "classify (4, 0, 0)")
    out = op.run()
    monkeypatch.setattr(cls, "classify", lambda q: [cls.ClassificationOutcome(tag=cls.EMPTY, reason="-")])
    _rejects(op, out)


@pytest.mark.parametrize("shift", [-1, 1])
def test_nonexistence_failure_point_is_recomputed(profiles, shift):
    op = _first(profiles, "nonexistence (4, 0.0, -")
    ev = op.run()
    assert op.check(ev) is True
    assert ev.failure.s > 0
    moved = dataclasses.replace(ev.failure, s=ev.failure.s + shift * 10.0 / 2000)
    _rejects(op, dataclasses.replace(ev, failure=moved))


def test_rk4_sample_off_the_closed_form_is_rejected(profiles):
    op = _first(profiles, "integrate trig")
    pts = op.run()
    assert op.check(pts) is True
    s, x, xp = pts[5000]
    pts[5000] = (s, x * (1 + 1e-5), xp)
    _rejects(op, pts)


def test_csv_isotropic_column_is_checked(profiles):
    op = _first(profiles, "cli profile parabolic")
    code, text = op.run()
    assert op.check((code, text)) is True
    lines = text.splitlines()
    fields = lines[7].split(",")
    fields[5] = repr(float(fields[5]) + 1e-6)
    lines[7] = ",".join(fields)
    _rejects(op, (code, "\n".join(lines) + "\n"))


def test_failed_suite_is_rejected():
    wl = workloads.CheckWorkload(SEED)
    results = [checks.CheckResult(name, True, "", 0.0) for name, _ in checks.ALL_CHECKS]
    assert wl.verify(results) == 0
    results[3] = dataclasses.replace(results[3], passed=False)
    with pytest.raises(Incorrect):
        wl.verify(results)


def test_pass_output_must_equal_the_checked_warm_up():
    wl = workloads.OpWorkload([workloads.Op("one", lambda: 1.0, lambda out: True)])
    wl.run_pass(reference=[1.0])
    with pytest.raises(Incorrect):
        wl.run_pass(reference=[2.0])


def test_tracer_records_nested_spans_and_restores_the_library():
    original = cv._frame_array
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cv.cic_probe(cv.build_constant_curvature(4, 1.0), count=10, seed=1)
        cls.nonexistence_witness(cls.ClassQuery(4, 1, 0))
    finally:
        tracer.uninstall()
    assert cv._frame_array is original
    names = [s[0] for s in tracer.spans]
    assert names[:4] == ["curvature.build_constant_curvature", "curvature.cic_probe",
                         "curvature._frame_array", "curvature._isotropic_batch"]
    assert [s[3] for s in tracer.spans[:4]] == [-1, -1, 1, 1]
    assert tracer.spans[2][6:] == (10, 4)
    # classification imported domain_check by name; its span is still seen
    scan = names.index("profiles.domain_check")
    assert names[tracer.spans[scan][3]] == "classification.nonexistence_witness"

    m = tracer.metrics([1.0], [0.5])

    def dur(i):
        return tracer.spans[i][2] - tracer.spans[i][1]

    assert m["curvature.probe_overhead_s"] == pytest.approx(dur(1) - dur(2) - dur(3))
    assert m["curvature.eval_us_per_frame.n4"] == pytest.approx(dur(3) / 10 * 1e6)
    assert m["curvature.eval_us_per_frame.n16"] == 0.0
    assert m["trace.overhead_s"] == 0.5


def test_missing_entry_point_drops_its_metric(monkeypatch):
    monkeypatch.delattr(cls, "nonexistence_witness")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    m = tracer.metrics([1.0], [1.0])
    assert "classification.nonexistence_s" not in m
    assert "classification.classify_s" in m


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_end_to_end_metrics_pool_the_workers():
    import run

    runs = [
        {"setup_s": 1.0, "pass_s": [2.0], "latencies": [[0.001, 0.010, 0.100]], "peak_rss_mb": 50.0},
        {"setup_s": 3.0, "pass_s": [4.0, 6.0], "latencies": [[0.003, 0.020, 0.300], [0.002, 0.030, 0.200]],
         "peak_rss_mb": 60.0},
        {"setup_s": 2.0, "pass_s": [8.0], "latencies": [[0.002, 0.020, 0.200]], "peak_rss_mb": 55.0},
    ]
    m = run.end_to_end(runs)
    assert m["setup_s"] == {"value": 2.0, "unit": "s"}
    assert m["pass_s"]["value"] == 5.0
    # per-operation means 2 ms, 20 ms and 200 ms; the median operation is 20 ms
    assert m["op_p50_ms"]["value"] == pytest.approx(20.0)
    assert m["peak_rss_mb"]["value"] == 60.0
