import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from isocurv import cli
from isocurv import profiles as pf
from isocurv.cli import main, parse_number, parse_product
from isocurv.curvature import Factor

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_number_forms():
    from fractions import Fraction

    assert parse_number("3") == 3 and isinstance(parse_number("3"), int)
    assert parse_number("8/3") == Fraction(8, 3)
    assert parse_number("-1.5") == -1.5
    assert parse_number("1e-6") == 1e-6


def test_parse_product_grammar():
    spec = parse_product("S3:1 x R1")
    assert spec.factors == (Factor("sphere", 3, 1.0), Factor("flat", 1, 0.0))
    spec = parse_product("S2:0.5 x H2:-0.5")
    assert spec.factors[1] == Factor("hyperbolic", 2, -0.5)
    spec = parse_product("S5 x R1")  # implicit curvature 1
    assert spec.factors[0].curvature == 1.0
    spec = parse_product("S2:4/3 x H2:-2")
    assert spec.factors[0].curvature == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("text", ["nan", "-inf", "inf", "1e400", "1" + "0" * 400, "-1" + "0" * 400 + "/3"])
def test_parse_number_rejects_non_finite(text):
    from isocurv.cli import UsageError

    with pytest.raises(UsageError, match="must be finite"):
        parse_number(text)


@pytest.mark.parametrize("text", ["garbage!", "S3:-1 x R1", "X3 x R1", "S3", "R2 x R1"])
def test_parse_product_rejects(text):
    from isocurv.cli import UsageError

    with pytest.raises(UsageError):
        parse_product(text)


# ---------------------------------------------------------------------------
# probe


def test_probe_sphere_line(capsys):
    code, out, _ = run_cli(capsys, "probe", "--product", "S3:1 x R1", "--frames", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == pytest.approx(2.0, abs=1e-10)
    assert payload["is_constant"] is True
    assert payload["dim"] == 4


def test_probe_mixed_product(capsys):
    code, out, _ = run_cli(capsys, "probe", "--product", "S2:1 x H2:-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == pytest.approx(0.0, abs=1e-10)
    assert payload["is_constant"] is True


def test_probe_detects_nonconstant(capsys):
    code, out, _ = run_cli(capsys, "probe", "--product", "S5:1 x R1")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_constant"] is False
    assert payload["min"] >= 2.0 - 1e-10
    assert payload["max"] <= 4.0 + 1e-10


def test_probe_names_its_extreme_frames(capsys):
    from isocurv import curvature as cv
    from oracles import isotropic_component

    code, out, _ = run_cli(capsys, "probe", "--product", "S5:1 x R1", "--frames", "200", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[6:10] == ["max", "argmin", "argmax", "mean"]
    t = cv.build_product(parse_product("S5:1 x R1"))
    frames = cv.sample_frames(6, 200, seed=5)
    for key, value in (("argmin", "min"), ("argmax", "max")):
        assert type(payload[key]) is int and 0 <= payload[key] < 200
        assert isotropic_component(t, frames[payload[key]].vectors) == pytest.approx(payload[value], rel=1e-13)


def test_probe_csv_format(capsys):
    code, out, _ = run_cli(capsys, "probe", "--product", "S3:1 x R1", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "samples,min,max,mean,is_constant"
    assert row.split(",")[0] == "1000"


def test_probe_usage_error(capsys):
    code, _, err = run_cli(capsys, "probe", "--product", "garbage!")
    assert code == 2
    assert "bad factor" in err


@pytest.mark.parametrize("command", ["probe", "check"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8", "x"])
def test_bad_tolerance_is_a_usage_error(capsys, command, tol):
    # neither command has a --tol flag: argparse rejects it, naming it
    argv = [command, "--tol", tol] + (["--product", "S3:1 x R1"] if command == "probe" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "--tol" in out.err


@pytest.mark.parametrize("command", ["probe", "check"])
@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_bad_seed_is_a_usage_error_naming_the_flag(capsys, command, seed):
    argv = [command, "--seed", seed] + (["--product", "S3:1 x R1"] if command == "probe" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "--seed" in out.err and "non-negative integer" in out.err


def test_unallocatable_frame_count_is_a_usage_error(capsys):
    # 10**15 frames of dimension 4 would take 114 PiB; numpy refuses at once
    code, out, err = run_cli(capsys, "probe", "--product", "S3:1 x R1", "--frames", "1000000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_probe_overflow_is_a_usage_error(capsys, fmt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "probe", "--product", "S3:1e308 x R1", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: isotropic curvature overflows") and "max |R_ijkl| = 1.000000e+308" in err


def test_probe_large_finite_curvature_is_constant(capsys):
    code, out, _ = run_cli(capsys, "probe", "--product", "S3:1e200 x R1", "--format", "csv")
    assert code == 0
    _, vmin, vmax, mean, is_constant = out.splitlines()[1].split(",")
    assert is_constant == "True"
    for value in (vmin, vmax, mean):
        assert float(value) == pytest.approx(2e200, rel=1e-12)


@pytest.mark.parametrize("curvature", ["1e-12", "1", "1e12", "1e-300"])
def test_probe_verdict_does_not_depend_on_the_scale(capsys, curvature):
    for sphere, constant in (("S3", True), ("S5", False)):
        code, out, _ = run_cli(capsys, "probe", "--product", f"{sphere}:{curvature} x R1")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_constant"] is constant and payload["tol"] == 1e-8


@pytest.mark.parametrize("product", ["S3:1e-318 x R1", "S5:1e-318 x R1"])
def test_probe_subnormal_curvature_is_a_usage_error(capsys, product):
    code, out, err = run_cli(capsys, "probe", "--product", product)
    assert code == 2
    assert out == ""
    assert err.startswith("error: curvature is subnormal: max |R_ijkl| = ")


def test_probe_output_does_not_depend_on_the_environment(capsys, monkeypatch):
    monkeypatch.delenv("CIC_SEED", raising=False)
    _, baseline, _ = run_cli(capsys, "probe", "--product", "S5:1 x R1")
    monkeypatch.setenv("CIC_SEED", "7")
    code, out, _ = run_cli(capsys, "probe", "--product", "S5:1 x R1")
    assert code == 0
    assert json.loads(out)["seed"] == 42
    assert out == baseline


def test_probe_determinism(capsys):
    _, first, _ = run_cli(capsys, "probe", "--product", "S5:1 x R1", "--seed", "3")
    _, second, _ = run_cli(capsys, "probe", "--product", "S5:1 x R1", "--seed", "3")
    assert first == second


# ---------------------------------------------------------------------------
# classify


def test_classify_with_witness(capsys):
    code, out, _ = run_cli(capsys, "classify", "4", "1", "3", "--witness")
    assert code == 0
    payload = json.loads(out)
    (entry,) = payload["outcomes"]
    assert entry["tag"] == "RotationFamily"
    assert entry["witness"]["params"]["alpha"] == 0.25
    assert entry["witness"]["cic_mean"] == pytest.approx(3.0, abs=1e-8)
    assert entry["witness"]["cic_max_deviation"] <= 1e-8


def test_classify_witness_memory_does_not_grow_with_the_grid(capsys):
    """The witness grid is streamed: five times the points, the same traced peak."""

    def peak(grid):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "classify", "4", "1", "3", "--witness", "--grid", str(grid))
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (small_code, small), (big_code, big) = peak(8193), peak(40961)
    assert small_code == big_code == 0
    assert big <= 1.2 * small


def test_classify_totally_geodesic(capsys):
    code, out, _ = run_cli(capsys, "classify", "5", "1", "4")
    assert code == 0
    payload = json.loads(out)
    assert [o["tag"] for o in payload["outcomes"]] == ["TotallyGeodesic"]


def test_classify_empty_reason(capsys):
    code, out, _ = run_cli(capsys, "classify", "4", "1", "1.5")
    assert code == 0
    (entry,) = json.loads(out)["outcomes"]
    assert entry["tag"] == "Empty"
    assert "2c" in entry["reason"]


def test_classify_fraction_hits_exact_boundary(capsys):
    code, out, _ = run_cli(capsys, "classify", "4", "1/3", "4/3")
    assert code == 0
    tags = sorted(o["tag"] for o in json.loads(out)["outcomes"])
    assert tags == ["RotationFamily", "TotallyGeodesic"]


def test_classify_bad_number(capsys):
    code, _, err = run_cli(capsys, "classify", "4", "one", "3")
    assert code == 2
    assert "cannot parse" in err


@pytest.mark.parametrize("c", ["nan", "1" + "0" * 400])
def test_classify_non_finite_is_a_usage_error(capsys, c):
    code, out, err = run_cli(capsys, "classify", "4", c, "1")
    assert code == 2
    assert out == ""
    assert f"must be finite, got {c!r}" in err


def test_classify_witness_window_must_be_finite(capsys):
    code, out, err = run_cli(capsys, "classify", "4", "0", "0", "--witness", "--window", " -1e308", "1e308")
    assert code == 2
    assert out == ""
    assert "window must be finite" in err


@pytest.mark.parametrize(
    "argv,params",
    [
        (("4", "1", "3"), [[("C", 3.0), ("alpha", 0.25)]]),
        (("4", "0", "0"), [[("beta", 1.0)]]),
        (("4", "-1", "-2"), [[("C", -2.0), ("A", 1.0), ("B", 1.0), ("delta", d)] for d in (1, 0, -1)]),
        (("4", "-1", "0"), [[("A", 0.0), ("B", 1.0)]]),
    ],
)
def test_classify_witness_params(capsys, argv, params):
    """One witness per rotation outcome; the exponential ones, one per delta in (1, 0, -1)."""
    code, out, _ = run_cli(capsys, "classify", *argv, "--witness")
    assert code == 0
    entries = [o for o in json.loads(out)["outcomes"] if o["tag"] == "RotationFamily"]
    assert [list(entry["witness"]["params"].items()) for entry in entries] == params


@pytest.mark.parametrize(
    "argv,C",
    [(("4", "-1", "-4"), -4.0), (("--", "4", "-5/4", "-5"), -5.0), (("4", "-2", "-8"), -8.0)],
)
def test_classify_boundary_witness_verifies(capsys, argv, C):
    code, out, _ = run_cli(capsys, "classify", "--witness", *argv)
    assert code == 0
    entries = [o for o in json.loads(out)["outcomes"] if o["tag"] == "RotationFamily"]
    assert [entry["delta"] for entry in entries] == [1, 0, -1]
    for entry in entries:
        assert "domain_failure" not in entry["witness"]
        assert entry["witness"]["cic_mean"] == pytest.approx(C, abs=1e-8)
        assert entry["witness"]["cic_max_deviation"] <= 1e-8


def test_classify_witness_domain_failure_is_reported(capsys):
    # C sits 1e-10 above 2c: the alpha range is (0, 1e-10), and the midpoint
    # witness's radicand 5.0e-11 at s = -10 is below its relative bound 5.0e-10;
    # the witness fails verification, so the command exits 1
    code, out, _ = run_cli(capsys, "classify", "4", "1", "2.0000000002", "--witness")
    assert code == 1
    (entry,) = [o for o in json.loads(out)["outcomes"] if o["tag"] == "RotationFamily"]
    failure = entry["witness"]["domain_failure"]
    assert failure["s"] == -10.0
    assert failure["reason"].startswith("delta - c*x^2 - x'^2 = 5.000067e-11 <= 5.000000e-10")
    assert "cic_mean" not in entry["witness"]


def test_probe_of_a_256_dimensional_product_stays_small(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "probe", "--product", "S255:1 x R1", "--frames", "200")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["dim"] == 256
    assert peak < 100e6


def test_classify_tolerance_matched_boundary_takes_c_equal_4c(capsys):
    # C sits 1e-13 (relative) below 4c: classify calls it the boundary, so the
    # exponential family and its witness take C = 4c exactly, not the query's C
    code, out, _ = run_cli(capsys, "classify", "4", "-1", "-4.0000000000004", "--witness")
    assert code == 0
    entries = [o for o in json.loads(out)["outcomes"] if o["tag"] == "RotationFamily"]
    assert len(entries) == 3
    for entry in entries:
        assert entry["ode_constant"] == -4.0
        assert entry["witness"]["params"]["C"] == -4.0
        assert "domain_failure" not in entry["witness"]
        assert entry["witness"]["cic_mean"] == pytest.approx(-4.0, abs=1e-8)
        assert entry["witness"]["cic_max_deviation"] <= 1e-8


def test_classify_lists_the_delta_minus_one_tube(capsys):
    """At (4, -1, -1) the delta = -1 members are complete for every g >= 0,
    the tube A = B = 0 among them; all three exponential witnesses verify."""
    code, out, _ = run_cli(capsys, "classify", "4", "-1", "-1", "--witness")
    assert code == 0
    entries = [o for o in json.loads(out)["outcomes"] if o["tag"] == "RotationFamily"]
    assert [(entry["family"], entry["delta"]) for entry in entries] == [("exponential", d) for d in (1, 0, -1)]
    assert entries[2]["constraints"] == {"g": {"lo": 0.0, "lo_open": False, "hi_open": True}}
    for entry in entries:
        assert entry["witness"]["cic_mean"] == pytest.approx(-1.0, abs=1e-12)
        assert entry["witness"]["cic_max_deviation"] <= 1e-12


def test_classify_witness_overflow_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "classify", "4", "-1", "-2", "--witness", "--window", "-1000", "1000")
    assert code == 2
    assert out == ""
    assert "overflows the float range at s=-1000.0" in err and "(-1000.0, 1000.0)" in err


def test_classify_symbolic_witness(capsys):
    code, out, _ = run_cli(capsys, "classify", "5", "1", "4", "--witness")
    assert code == 0
    (entry,) = json.loads(out)["outcomes"]
    assert entry["witness"] == {"symbolic": "TotallyGeodesic"}


# ---------------------------------------------------------------------------
# profile


def test_profile_trig_csv(capsys):
    code, out, _ = run_cli(capsys, "profile", "trig", "--C", "2", "--alpha", "0.3", "--c", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "s,x,xp,lambda,mu,cic"
    assert len(lines) == 2002
    for line in lines[1:]:
        cic = float(line.split(",")[5])
        assert abs(cic - 2.0) <= 1e-9


def test_profile_csv_round_trips_to_the_ulp(capsys):
    from isocurv.profiles import TrigProfile

    _, out, _ = run_cli(
        capsys, "profile", "trig", "--C", "2", "--alpha", "0.3", "--c", "0",
        "--window", "-1", "1", "--grid", "41",
    )
    fam = TrigProfile(C=2.0, alpha=0.3)
    for line in out.strip().split("\n")[1:]:
        s, x = (float(tok) for tok in line.split(",")[:2])
        assert x == fam.eval(s)[0]


def test_profile_parabolic(capsys):
    code, out, _ = run_cli(capsys, "profile", "parabolic", "--beta", "1", "--c", "0")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert abs(float(line.split(",")[5])) <= 1e-10


def test_profile_domain_failure_partial_output(capsys):
    code, out, err = run_cli(
        capsys, "profile", "trig", "--C", "1.5", "--alpha", "0.2", "--c", "1",
        "--window", "0", "10",
    )
    assert code == 1
    assert out.startswith("s,x,xp,lambda,mu,cic")  # header already emitted
    assert "domain breakdown" in err and "s=0.0" in err


@pytest.mark.parametrize(
    "argv,fam,ambient",
    [
        (
            ("trig", "--C", "2", "--alpha", "0.3", "--c", "0"),
            pf.TrigProfile(C=2.0, alpha=0.3),
            pf.AmbientSpec(0.0),
        ),
        (("parabolic", "--beta", "1/2", "--c", "0"), pf.ParabolicProfile(beta=0.5), pf.AmbientSpec(0.0)),
        (
            ("exponential", "--C", "-2", "--A", "1", "--B", "1", "--delta", "0", "--c", "-1"),
            pf.ExponentialProfile(C=-2.0, A=1.0, B=1.0, delta=0),
            pf.AmbientSpec(-1.0, delta=0),
        ),
        (
            ("quadratic", "--A", "0.5", "--B", "1", "--c", "-1"),
            pf.QuadraticProfile(A=0.5, B=1.0),
            pf.AmbientSpec(-1.0),
        ),
    ],
)
def test_profile_stdout_is_the_library_csv(capsys, argv, fam, ambient):
    code, out, _ = run_cli(capsys, "profile", *argv, "--window", "-3", "3", "--grid", "101")
    assert code == 0
    expected = io.StringIO()
    pf.write_profile_csv(pf.profile_columns(fam, ambient, (-3.0, 3.0), 101), expected)
    assert out == expected.getvalue()


@pytest.mark.parametrize(
    "command", [("profile", "parabolic", "--beta", "1", "--c", "0"), ("classify", "4", "1", "3", "--witness")]
)
def test_window_takes_fractions(capsys, command):
    """--window is parsed as every other number: 1/2 reads as 0.5."""
    half = run_cli(capsys, *command, "--window", "0", "1/2", "--grid", "3")
    assert half[0] == 0 and half[1]
    assert half == run_cli(capsys, *command, "--window", "0", "0.5", "--grid", "3")


@pytest.mark.parametrize(
    "extra",
    [
        ("--grid", "1"),
        ("--window", "1", "1"),
        ("--window", "2", "-2"),
        ("--window", "0", "inf"),
        ("--window", "0", "nan"),
        ("--window", " -1e308", "1e308"),  # the space keeps argparse from reading an option
    ],
)
def test_profile_bad_grid_is_a_usage_error_before_any_output(capsys, extra):
    code, out, err = run_cli(capsys, "profile", "trig", "--C", "2", "--alpha", "0.3", "--c", "0", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_profile_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "profile", "trig", "--alpha", "0.3", "--c", "0")
    assert code == 2
    assert "--C is required" in err


def test_profile_invalid_parameter(capsys):
    code, _, err = run_cli(capsys, "profile", "trig", "--C", "2", "--alpha", "1.5", "--c", "0")
    assert code == 2
    assert "alpha" in err


def test_profile_exponential(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "exponential", "--C", "-4", "--A", "1", "--B", "1",
        "--delta", "1", "--c", "-1", "--window", "-5", "5",
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert abs(float(line.split(",")[5]) + 4.0) <= 1e-9


def test_profile_exponential_at_the_boundary_on_the_default_window(capsys):
    code, out, err = run_cli(
        capsys, "profile", "exponential", "--C", "-4", "--A", "1", "--B", "1", "--delta", "1", "--c", "-1",
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert len(lines) == 2002
    assert all(abs(float(line.split(",")[5]) + 4.0) <= 1e-9 for line in lines[1:])


@pytest.mark.parametrize("a,b", [("0", "0"), ("1", "0"), ("0.2", "0.2")])
def test_profile_exponential_with_hyperbolic_parallels(capsys, a, b):
    """delta = -1 members with 4AB <= 1 at (c, C) = (-1, -1), the constant
    tube A = B = 0 among them: every grid point is written, with cic = -1."""
    code, out, err = run_cli(
        capsys, "profile", "exponential", "--C", "-1", "--A", a, "--B", b, "--delta", "-1", "--c", "-1",
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert len(lines) == 2002
    assert all(abs(float(line.split(",")[5]) + 1.0) <= 1e-12 for line in lines[1:])


def test_profile_incomplete_hyperbolic_exponential_member(capsys):
    """C = -3, A = B = 0.01, delta = -1 is a valid profile (u >= 2/3), so it
    is built; at c = -1 its radicand is negative at s = 0: exit 1."""
    code, out, err = run_cli(
        capsys, "profile", "exponential", "--C", "-3", "--A", "0.01", "--B", "0.01", "--delta", "-1",
        "--c", "-1", "--window", "0", "10",
    )
    assert code == 1
    assert out == "s,x,xp,lambda,mu,cic\n"
    assert err.startswith("domain breakdown: ") and err.endswith(" at s=0.0\n")


def test_profile_overflow_is_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "profile", "exponential", "--C", "-2", "--A", "1", "--B", "1", "--c", "-1",
        "--window", "-1000", "1000",
    )
    assert code == 2
    assert err.startswith("error: ") and "overflows the float range" in err
    assert "Traceback" not in err


def test_profile_determinism(capsys):
    args = ("profile", "quadratic", "--A", "0", "--B", "1", "--c", "-1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# check


def test_check_fast_config_passes(capsys):
    code, out, err = run_cli(capsys, "check")
    assert code == 0
    lines = out.strip().split("\n")
    assert all("PASS" in line for line in lines[:-1])
    assert lines[-1] == "9/9 suites passed"
    assert "total:" in err  # timings live on stderr


def test_check_reports_failures(capsys, monkeypatch):
    from isocurv import checks as checks_mod

    def broken(config):
        raise AssertionError("planted failure")

    monkeypatch.setattr(
        checks_mod, "ALL_CHECKS", (("broken-suite", broken),) + checks_mod.ALL_CHECKS[:1]
    )
    code, out, _ = run_cli(capsys, "check")
    assert code == 1
    assert "FAIL  planted failure" in out
    assert "1/2 suites passed" in out


@pytest.mark.parametrize(
    "extra",
    [("--window", "0", "10"), ("--grid", "11"), ("--step", "1e-3"), ("--frames", "10"), ("--tol", "1e-8")],
)
def test_check_has_no_profile_knobs(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["check", *extra])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert extra[0] in out.err


@pytest.mark.parametrize("name", ["product-sphere-line", "product-family"])
def test_wrong_constancy_verdict_is_named(monkeypatch, name):
    from isocurv import checks as checks_mod
    from isocurv import curvature as cv

    probe = cv.cic_probe

    def flipped(*args, **kwargs):
        report = probe(*args, **kwargs)
        return dataclasses.replace(report, is_constant=not report.is_constant)

    monkeypatch.setattr(cv, "cic_probe", flipped)
    monkeypatch.setattr(checks_mod, "ALL_CHECKS", tuple(c for c in checks_mod.ALL_CHECKS if c[0] == name))
    (result,) = checks_mod.run_all()
    assert not result.passed
    assert "is_constant" in result.detail and "spread" in result.detail and "1e-08" in result.detail


def test_check_stdout_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "check")
    _, second, _ = run_cli(capsys, "check")
    assert first == second


@pytest.mark.parametrize("seed", [1, 7, 42, 123, 101, 2027])
def test_check_stdout_matches_the_record(capsys, seed):
    """Every figure `check` prints, byte for byte, against tests/data; a moved
    figure fails here, where two runs of the same tree would still agree.
    101 and 2027 are the seeds the benchmark's runs use."""
    code, out, _ = run_cli(capsys, "check", "--seed", str(seed))
    assert code == 0
    assert out == (DATA / f"check_stdout_seed{seed}.txt").read_text()


def test_probe_flat_space(capsys):
    code, out, _ = run_cli(capsys, "probe", "--product", "R4")
    assert code == 0
    payload = json.loads(out)
    assert payload["min"] == payload["max"] == 0.0
    assert payload["is_constant"] is True


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isocurv.cli", "probe", "--product", "S3:1 x R1", "--frames", "50"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["is_constant"] is True


# ---------------------------------------------------------------------------
# the parser, built on the first main call and reused


def run_fresh(*argv, columns=80):
    """(exit code, stdout, stderr) of `python -m isocurv.cli argv` in a new process."""
    env = {**os.environ, "COLUMNS": str(columns)}
    proc = subprocess.run([sys.executable, "-m", "isocurv.cli", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(capsys, *argv):
    """run_cli that also takes argparse's exits (usage errors, --help) as exit codes."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_later_main_calls_construct_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    counts = []
    for argv in (["classify", "4", "1", "3"], ["probe", "--product", "R4"], ["probe"], ["check", "--tol", "1"],
                 ["profile", "parabolic", "--beta", "1", "--c", "0", "--grid", "3"]):
        run_in_process(capsys, *argv)
        counts.append(len(built))
    assert counts[0] > 0  # the first call builds the parser and its subparsers
    assert counts == [counts[0]] * len(counts)


def test_importing_the_cli_builds_no_parser():
    code = "import isocurv.cli as cli; print(cli._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "0\n"


SEQUENCE = (
    ("probe",),
    ("probe", "--product", "S3:1 x R1", "--seed", "-1"),
    ("classify", "4", "1", "3", "--witness", "--window", "-5", "5"),
    ("classify", "4", "1", "3", "--witness"),
    ("probe", "--product", "S3:1 x R1", "--frames", "50", "--seed", "3"),
)


def test_a_sequence_of_calls_matches_fresh_processes(capsys, monkeypatch):
    """No default, --window included, carries over from one call to the next:
    each call's exit code, stdout and stderr are those of the command run alone."""
    monkeypatch.setenv("COLUMNS", "80")
    got = [run_in_process(capsys, *argv) for argv in SEQUENCE]
    assert [code for code, _, _ in got] == [2, 2, 0, 0, 0]
    for argv, result in zip(SEQUENCE, got):
        assert result == run_fresh(*argv), argv


@pytest.mark.parametrize("columns", [60, 100])
def test_help_matches_a_fresh_process(capsys, monkeypatch, columns):
    """Help is formatted at the width of its own call, not of the first one."""
    monkeypatch.setenv("COLUMNS", str(columns))
    for argv in (["--help"], ["probe", "--help"]):
        fresh = run_fresh(*argv, columns=columns)
        assert fresh[0] == 0 and fresh[1].startswith("usage: isocurv")
        first = run_in_process(capsys, *argv)
        run_in_process(capsys, "classify", "4", "1", "3", "--witness", "--window", "-5", "5")
        run_in_process(capsys, "probe")
        assert first == run_in_process(capsys, *argv) == fresh
