"""The benchmark's three workloads: seeded inputs, timed operations, checks.

A workload is a fixed list of operations made from the seed.  A pass runs
the whole list once; every run is made of whole passes, so the mix of
operations never depends on speed.  Every call into isocurv goes through
a module attribute (`cv.cic_probe`, not a bound copy), so the tracer's
wrappers see it.

Each operation's output is checked against oracle.py once, on the warm-up
pass.  Later passes must give outputs equal to the warm-up's; the library
is deterministic for a fixed input, so this keeps every pass checked at the
cost of a comparison.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from isocurv import checks, cli
from isocurv import classification as cls
from isocurv import curvature as cv
from isocurv import profiles as pf

import oracle
from oracle import Incorrect, require

WINDOW = (-10.0, 10.0)
GRID_N = 2001
NONEXISTENCE_S_MAX = 10.0
RK4_STEP = 1e-3
SCALES = (Fraction(1, 3), Fraction(5, 2))
FAULT_SEED = 42


@dataclass(frozen=True)
class Op:
    """One operation: `run` is timed; `check` judges its output.

    `check` returns True for a right output and False for the known fault
    the operation was kept for; any other wrong output raises Incorrect.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class OpWorkload:
    """Whole passes over a fixed list of operations."""

    def __init__(self, ops: list[Op]):
        self.ops = ops

    def run_pass(self, start_op: Callable[[], None] | None = None, reference: list | None = None):
        """Run every operation once; returns (pass seconds, latencies, outputs).

        With a reference (the checked warm-up outputs) each output is
        compared with it outside the timed region and then dropped.
        """
        latencies = []
        outputs = []
        for i, op in enumerate(self.ops):
            if start_op is not None:
                start_op()
            t0 = time.perf_counter()
            out = op.run()
            latencies.append(time.perf_counter() - t0)
            if reference is None:
                outputs.append(out)
            elif out != reference[i]:
                raise Incorrect(f"{op.label}: output differs from the warm-up pass")
        return sum(latencies), latencies, outputs

    def verify(self, outputs: list) -> int:
        """Check every output independently; returns the known-fault count."""
        return sum(not op.check(out) for op, out in zip(self.ops, outputs))


class CheckWorkload:
    """Whole passes of checks.run_all; the operation is one suite."""

    def __init__(self, seed: int):
        self.config = checks.RunConfig(seed=seed)

    def run_pass(self, start_op: Callable[[], None] | None = None, reference: list | None = None):
        """One run_all; its suites mark their own operations when traced."""
        t0 = time.perf_counter()
        results = checks.run_all(self.config)
        pass_s = time.perf_counter() - t0
        self.verify(results)
        return pass_s, [r.seconds for r in results], results

    def verify(self, results) -> int:
        require(len(results) == len(checks.ALL_CHECKS),
                f"run_all gave {len(results)} results for {len(checks.ALL_CHECKS)} suites")
        for r in results:
            require(r.passed, f"suite {r.name} failed: {r.detail}")
        return 0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# probe


def _frames(n: int, count: int, seed: int) -> np.ndarray:
    return np.stack([f.vectors for f in cv.sample_frames(n, count, seed)])


def _probe_op(label, build, K, n, frames, seed, closed_form=None, known_fault=False) -> Op:
    def run():
        return cv.cic_probe(build(), count=frames, seed=seed)

    def check(rep):
        constant = oracle.check_probe_values(
            label, K, _frames(n, frames, seed), rep.samples, rep.min, rep.max, rep.mean, closed_form
        )
        if rep.is_constant == constant:
            return True
        require(known_fault, f"{label}: is_constant={rep.is_constant}, but the frames show "
                f"{'constant' if constant else 'varying'} values")
        return False

    return Op(label, run, check)


def _cli_probe_op(label, product, K, frames, seed, closed_form=None) -> Op:
    argv = ["probe", "--product", product, f"--frames={frames}", f"--seed={seed}"]
    n = K.shape[0]

    def check(out):
        code, text = out
        require(code == 0, f"{label}: exit code {code}")
        d = json.loads(text)
        require(d["dim"] == n and d["seed"] == seed, f"{label}: dim/seed echo {d['dim']}/{d['seed']}")
        constant = oracle.check_probe_values(
            label, K, _frames(n, frames, seed), d["samples"], d["min"], d["max"], d["mean"], closed_form
        )
        require(d["is_constant"] == constant, f"{label}: is_constant={d['is_constant']}")
        return True

    return Op(label, lambda: run_cli(argv), check)


def probe_ops(seed: int) -> list[Op]:
    """Tensors from all three builders at n in {4, 8, 16} (plus S5 x R1),
    frame counts on both sides of the einsum cliff at m = n^2, and the
    scaled tensors the absolute probe tolerance misjudges."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def fseed():
        return int(rng.integers(0, 2**31 - 1))

    def signed():
        return u(0.25, 3.0) * (1.0 if rng.integers(0, 2) else -1.0)

    ops = []
    for n, m in ((4, 12), (4, 1000), (8, 48), (8, 200), (16, 200), (16, 300)):
        k = signed()
        ops.append(_probe_op(f"constant n={n} k={k!r} m={m}",
                             lambda n=n, k=k: cv.build_constant_curvature(n, k),
                             oracle.constant_matrix(n, k), n, m, fseed(), closed_form=4.0 * k))

    def product(factors):
        spec = cv.ProductSpec(tuple(cv.Factor(kind, d, k) for kind, d, k in factors))
        return lambda: cv.build_product(spec), oracle.product_matrix([(d, k) for _, d, k in factors])

    k = u(0.25, 3.0)
    cases = [
        ("S3 x R1", [("sphere", 3, k), ("flat", 1, 0.0)], 500, 2.0 * k),
        ("S3 x S1", [("sphere", 3, k), ("sphere", 1, u(0.25, 3.0))], 1000, 2.0 * k),
        ("S2 x H2", [("sphere", 2, k), ("hyperbolic", 2, -k)], 200, 0.0),
        ("S5 x R1", [("sphere", 5, k), ("flat", 1, 0.0)], 200, None),
        ("S7 x R1", [("sphere", 7, k), ("flat", 1, 0.0)], 96, None),
        ("S8 x H8", [("sphere", 8, k), ("hyperbolic", 8, -u(0.25, 3.0))], 200, None),
    ]
    for name, factors, m, closed in cases:
        build, K = product(factors)
        ops.append(_probe_op(f"product {name} k={k!r} m={m}", build, K, K.shape[0], m, fseed(), closed))

    def gauss(c, lams):
        return lambda: cv.build_from_shape(c, lams), oracle.gauss_matrix(c, lams)

    c = u(0.25, 2.0)
    lam, mu = -math.sqrt(c / 3.0), math.sqrt(3.0 * c)
    build, K = gauss(c, (lam, lam, lam, mu))
    ops.append(_probe_op(f"gauss Clifford c={c!r}", build, K, 4, 1000, fseed(), 8.0 * c / 3.0))
    c, lam = u(-2.0, 2.0), u(-2.0, 2.0)
    mu = lam + u(0.5, 2.0) * (1.0 if rng.integers(0, 2) else -1.0)
    for m in (12, 500):
        build, K = gauss(c, (lam, lam, lam, mu))
        ops.append(_probe_op(f"gauss n=4 ({c!r}, {lam!r}, {mu!r}) m={m}", build, K, 4, m, fseed(),
                             4.0 * c + 2.0 * (lam * lam + lam * mu)))
    for n, m in ((8, 48), (16, 200)):
        lams = (lam,) * (n - 1) + (mu,)
        build, K = gauss(c, lams)
        ops.append(_probe_op(f"gauss n={n} ({c!r}, {lam!r}^{n - 1}, {mu!r}) m={m}", build, K, n, m, fseed()))

    # Exactly constant tensors at a large scale.  The absolute probe
    # tolerance calls them non-constant; they do not depend on the seed,
    # so they fail in the same number on every run.
    for n, m in ((4, 1000), (16, 200)):
        ops.append(_probe_op(f"constant n={n} k=1e9 m={m}", lambda n=n: cv.build_constant_curvature(n, 1e9),
                             oracle.constant_matrix(n, 1e9), n, m, FAULT_SEED, 4e9, known_fault=True))
    lams = (-0.5e4, -0.5e4, -0.5e4, 1.5e4)
    build, K = gauss(0.75e8, lams)
    ops.append(_probe_op("gauss (0.75, -0.5, 1.5) x 1e8 m=200", build, K, 4, 200, FAULT_SEED, 2e8,
                         known_fault=True))

    k = u(0.25, 3.0)
    for text, factors, m, closed in (
        (f"S3:{k!r} x R1", [(3, k), (1, 0.0)], 200, 2.0 * k),
        (f"S2:{k!r} x H2:{-k!r}", [(2, k), (2, -k)], 500, 0.0),
        (f"S5:{k!r} x R1", [(5, k), (1, 0.0)], 200, None),
    ):
        ops.append(_cli_probe_op(f"cli probe {text}", text, oracle.product_matrix(factors), m, fseed(), closed))
    return ops


# ---------------------------------------------------------------------------
# profiles

_FAMILY_KINDS = {
    "TrigProfile": "trig",
    "ParabolicProfile": "parabolic",
    "ExponentialProfile": "exponential",
    "QuadraticProfile": "quadratic",
}


def family_params(fam) -> tuple[str, dict]:
    return _FAMILY_KINDS[type(fam).__name__], dataclasses.asdict(fam)


def _tags(outcomes) -> frozenset[str]:
    return frozenset(o.tag + (f":{o.family}" if o.family else "") for o in outcomes)


def _scaled(v, t: Fraction):
    return t * v if isinstance(v, (int, Fraction)) else float(t) * v


def _classify_op(n: int, c, C) -> Op:
    label = f"classify ({n}, {c}, {C})"
    q = cls.ClassQuery(n, c, C)

    def run():
        outcomes = cls.classify(q)
        found = []
        for o in outcomes:
            fam = cls.witness(o, q)
            if isinstance(fam, str):
                continue
            ambient = pf.AmbientSpec(c=float(c), delta=fam.ode_delta)
            failure = pf.domain_check(fam, ambient, WINDOW, GRID_N)
            samples = None if failure is not None else pf.cic_along_profile(fam, ambient, WINDOW, GRID_N)
            found.append((fam, failure, samples))
        return outcomes, found

    def check(out):
        outcomes, found = out
        tags = _tags(outcomes)
        require(bool(tags), f"{label}: no outcome")
        for t in SCALES:
            scaled = _tags(cls.classify(cls.ClassQuery(n, _scaled(c, t), _scaled(C, t))))
            require(scaled == tags, f"{label}: scaling (c, C) by {t} changes {sorted(tags)} to {sorted(scaled)}")
        rotations = sum(o.tag == cls.ROTATION_FAMILY for o in outcomes)
        require(len(found) == rotations, f"{label}: {len(found)} witnesses for {rotations} rotation outcomes")
        for fam, failure, samples in found:
            require(failure is None, f"{label}: witness {fam!r} fails its domain at {failure}")
            kind, p = family_params(fam)
            rows, _ = samples
            oracle.check_profile_columns(
                f"{label} witness {fam!r}", kind, p, float(c), fam.ode_delta, float(C),
                [r.s for r in rows], [r.x for r in rows], [r.lam for r in rows],
                [r.mu for r in rows], [r.cic for r in rows], WINDOW, GRID_N,
            )
        return True

    return Op(label, run, check)


def _nonexistence_op(n: int, c, C) -> Op:
    label = f"nonexistence ({n}, {c}, {C})"
    q = cls.ClassQuery(n, c, C)

    def run():
        return cls.nonexistence_witness(q, s_max=NONEXISTENCE_S_MAX, grid_n=GRID_N)

    def check(ev):
        if n >= 5:
            require(ev.candidate is None and ev.failure is None, f"{label}: n >= 5 evidence has a profile")
            return True
        require(ev.candidate is not None and ev.failure is not None and ev.ambient is not None,
                f"{label}: evidence without candidate or failure point")
        kind, p = family_params(ev.candidate)
        require(p.get("C", 0.0) == float(C), f"{label}: candidate {ev.candidate!r} does not have C = {C}")
        step = NONEXISTENCE_S_MAX / (GRID_N - 1)
        i = round(ev.failure.s / step)
        require(0 <= i < GRID_N and abs(ev.failure.s - i * step) <= 1e-9,
                f"{label}: failure s={ev.failure.s!r} is not on the grid")
        s = np.array([max(i - 1, 0), i]) * step
        x, xp, _ = oracle.profile_x(kind, p, s)
        d = oracle.radicand(ev.ambient.c, ev.ambient.delta, x, xp)
        slack = 1e-12 * max(1.0, float(np.max(np.abs(ev.ambient.c * x * x))), float(np.max(xp * xp)))
        require(d[1] <= oracle.EPS_DOM + slack, f"{label}: radicand {d[1]!r} > EPS_DOM at s={s[1]!r}")
        require(i == 0 or d[0] > oracle.EPS_DOM - slack,
                f"{label}: radicand already {d[0]!r} at s={s[0]!r}, before the reported failure")
        return True

    return Op(label, run, check)


def _rk4_op(kind: str, p: dict) -> Op:
    label = f"integrate {kind} {p}"
    C = p.get("C", 0.0)
    delta = p.get("delta", 1)
    x0, v0, _ = (float(v[0]) for v in oracle.profile_x(kind, p, [0.0]))
    nsteps = round(WINDOW[1] / RK4_STEP)

    def run():
        return pf.integrate_profile(C, delta, x0, v0, s_max=WINDOW[1], step=RK4_STEP)

    def check(pts):
        arr = np.asarray(pts, dtype=float)
        require(arr.shape == (2 * nsteps + 1, 3), f"{label}: {arr.shape[0]} samples, expected {2 * nsteps + 1}")
        require(bool(np.all(oracle.close(arr[:, 0], np.arange(-nsteps, nsteps + 1) * RK4_STEP, 1e-9))),
                f"{label}: sample points are not the step grid")
        x, xp, _ = oracle.profile_x(kind, p, arr[:, 0])
        for what, got, want in (("x", arr[:, 1], x), ("x'", arr[:, 2], xp)):
            oracle.require_close(f"{label}: RK4 {what}", got, want, oracle.RK4_RTOL, arr[:, 0])
        return True

    return Op(label, run, check)


def _cli_profile_op(kind: str, p: dict, c: float) -> Op:
    label = f"cli profile {kind} {p} c={c!r}"
    flags = {
        "trig": ("C", "alpha"),
        "parabolic": ("beta",),
        "exponential": ("C", "A", "B", "delta"),
        "quadratic": ("A", "B"),
    }[kind]
    argv = ["profile", kind, *(f"--{f}={p[f]!r}" for f in flags), f"--c={c!r}"]
    delta = p.get("delta", 1)

    def check(out):
        code, text = out
        require(code == 0, f"{label}: exit code {code}")
        rows = list(csv.reader(io.StringIO(text)))
        require(rows[0] == ["s", "x", "xp", "lambda", "mu", "cic"], f"{label}: header {rows[0]}")
        cols = np.array(rows[1:], dtype=float).T
        oracle.check_profile_columns(label, kind, p, c, delta, p.get("C", 0.0),
                                     cols[0], cols[1], cols[3], cols[4], cols[5], WINDOW, GRID_N)
        return True

    return Op(label, lambda: run_cli(argv), check)


def _valid_on_grid(kind: str, p: dict, c: float) -> bool:
    """The profile stays safely inside its domain on the whole CSV grid."""
    x, xp, _ = oracle.profile_x(kind, p, oracle.grid(*WINDOW, GRID_N))
    return bool(np.all(x > 0) and np.all(oracle.radicand(c, p.get("delta", 1), x, xp) > 1e-6))


def profiles_ops(seed: int) -> list[Op]:
    """Classification queries with witnesses (exact boundaries C = 2c, 4c,
    8c/3 and 0; all four families), nonexistence evidence for the Empty
    ones, RK4 runs and CSV emission through the CLI."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    cp = Fraction(int(rng.integers(1, 10)), int(rng.integers(2, 10)))
    cn = -Fraction(int(rng.integers(1, 10)), int(rng.integers(2, 10)))
    # The C = 4c witness breaks down numerically at s = +-10 once c <= -0.9
    # (a FOUND line in CHANGES.md), so that boundary is drawn from c >= -1/2.
    cb = -Fraction(1, int(rng.integers(2, 10)))
    fp, fn = u(0.2, 2.0), -u(0.2, 2.0)
    queries = [
        (4, cp, 8 * cp / 3), (4, cp, 4 * cp), (4, 0, 0), (4, 0, Fraction(int(rng.integers(1, 9)), 3)),
        (4, cb, 4 * cb), (4, cn, 0), (4, cn, 2 * cn), (4, cn, 8 * cn / 3),
        (4, fp, fp * u(2.2, 3.8)), (4, fp, fp * u(4.2, 6.0)), (4, fn, fn * u(0.1, 0.9)), (4, fn, u(0.2, 3.0)),
        (5, cp, 4 * cp), (6, cn, 4 * cn), (5, fp, fp * u(4.2, 6.0)),
    ]
    empty = [
        (4, cp, 2 * cp), (4, cp, 0), (4, fp, fp * u(0.2, 1.8)), (4, 0.0, -u(0.5, 3.0)),
        (4, fn, fn * u(4.5, 8.0)), (5, cp, 3 * cp),
    ]
    ops = [_classify_op(*q) for q in queries + empty]
    ops += [_nonexistence_op(*q) for q in empty]

    def trig():
        return {"C": u(0.2, 5.0), "alpha": u(0.0, 0.9)}

    def parabolic():
        return {"beta": u(0.3, 4.0)}

    def exponential(delta):
        return {"C": -u(0.2, 3.0), "A": u(0.6, 2.0), "B": u(0.6, 2.0), "delta": delta}

    def quadratic():
        b = u(0.5, 3.0)
        return {"A": u(-0.8, 0.8) * 2.0 * math.sqrt(b), "B": b}

    ops.append(_rk4_op("trig", trig()))
    ops.append(_rk4_op("parabolic", parabolic()))
    ops.append(_rk4_op("exponential", exponential(int(rng.integers(-1, 2)))))
    ops.append(_rk4_op("quadratic", quadratic()))

    def in_ambient(kind):
        if kind == "trig":
            c = u(0.2, 1.0)
            return c, {"C": c * u(4.5, 6.0), "alpha": u(0.0, 0.9)}
        if kind == "parabolic":
            return 0.0, parabolic()
        c = -u(0.2, 1.5)
        if kind == "exponential":
            return c, {"C": 4.0 * c * u(0.05, 0.95), "A": u(0.6, 2.0), "B": u(0.6, 2.0), "delta": 1}
        return c, quadratic()

    for kind in ("trig", "parabolic", "exponential", "quadratic"):
        while True:  # redraw until the oracle finds the profile valid on the whole grid
            c, p = in_ambient(kind)
            if _valid_on_grid(kind, p, c):
                break
        ops.append(_cli_profile_op(kind, p, c))
    return ops


def make(name: str, seed: int):
    if name == "check":
        return CheckWorkload(seed)
    if name == "probe":
        return OpWorkload(probe_ops(seed))
    if name == "profiles":
        return OpWorkload(profiles_ops(seed))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("check", "probe", "profiles")
