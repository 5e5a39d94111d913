"""Command-line front end.

Subcommands:

  probe     sample the isotropic-curvature functional of a product manifold
  classify  run the (n, c, C) classification, optionally with verified witnesses
  profile   emit CSV samples of a profile family's curvature data
  check     run the full verification suite

Numeric arguments accept decimals or simple fractions (`8/3`) so branch
boundaries can be hit exactly; non-finite numbers (nan, inf) are usage
errors, and so are integers or fractions too large for a float.  `--seed`
(default 42) is a non-negative integer, and the same command and seed give
byte-identical stdout.  `probe` and `check` judge constancy at the
library's tolerance, relative to the tensor (README), and `check` takes
only `--seed`.  Exit codes:
0 success, 1 verification/domain failure, 2 usage error (also when an
array is too large to allocate).

The argument parser is built on the first `main` call and reused by every
later call in the process; each call still parses into a fresh namespace
and writes to the sys.stdout and sys.stderr of its own time.  This speeds
up callers that run `main` many times in one process (embedding code, the
test suite, the benchmark); a one-shot `isocurv` process builds the parser
once either way, so a shell command is not faster.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import classification as cls
from . import curvature as cv
from . import profiles as pf
from .checks import RunConfig, run_all

_FACTOR_RE = re.compile(r"^([SHR])(\d+)(?::(.+))?$")

_FACTOR_KINDS = {"S": "sphere", "H": "hyperbolic", "R": "flat"}
_DEFAULT_CURVATURE = {"S": 1.0, "H": -1.0, "R": 0.0}


class UsageError(ValueError):
    """Malformed command-line input (exit code 2)."""


def parse_number(text: str):
    """int, Fraction or float from a CLI numeric argument whose float value is finite."""
    text = text.strip()
    try:
        if "/" in text:
            value = Fraction(text)
        elif re.fullmatch(r"[+-]?\d+", text):
            value = int(text)
        else:
            value = float(text)
        finite = math.isfinite(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse number {text!r}: {exc}") from exc
    except OverflowError:  # an int or Fraction beyond the float range
        finite = False
    if not finite:
        raise UsageError(f"number must be finite, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    if not re.fullmatch(r"\+?\d+", text.strip()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def parse_product(text: str) -> cv.ProductSpec:
    """ProductSpec from the grammar `<S|H|R><dim>[:curvature]` joined by ` x `."""
    factors = []
    for token in text.split(" x "):
        token = token.strip()
        m = _FACTOR_RE.match(token)
        if m is None:
            raise UsageError(
                f"bad factor {token!r}: expected <S|H|R><dim>[:curvature], e.g. S3:1 or R1"
            )
        letter, dim, curv_text = m.group(1), int(m.group(2)), m.group(3)
        curv = float(parse_number(curv_text)) if curv_text is not None else _DEFAULT_CURVATURE[letter]
        try:
            factors.append(cv.Factor(_FACTOR_KINDS[letter], dim, curv))
        except ValueError as exc:
            raise UsageError(f"bad factor {token!r}: {exc}") from exc
    try:
        return cv.ProductSpec(tuple(factors))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isocurv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probe", help="probe a product manifold for constant isotropic curvature")
    p.add_argument("--product", required=True, help="e.g. 'S3:1 x R1' or 'S2:1 x H2:-1'")
    p.add_argument("--frames", type=int, default=cv.DEFAULT_FRAMES)
    p.add_argument("--seed", type=_seed, default=cv.DEFAULT_SEED)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("classify", help="classify (n, c, C)")
    p.add_argument("n", type=int)
    p.add_argument("c")
    p.add_argument("C")
    p.add_argument("--witness", action="store_true", help="attach verified rotation witnesses")
    p.add_argument("--window", type=float, nargs=2, default=pf.DEFAULT_WINDOW, metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=pf.DEFAULT_GRID)

    p = sub.add_parser("profile", help="emit CSV curvature samples along a profile")
    p.add_argument("family", choices=tuple(pf.FAMILIES))
    p.add_argument("--C", default=None, help="profile-equation constant (trig/exponential)")
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--A", default=None)
    p.add_argument("--B", default=None)
    p.add_argument("--delta", type=int, default=1, help="rotation type (exponential family and ambient)")
    p.add_argument("--c", required=True, help="ambient curvature")
    p.add_argument("--window", type=float, nargs=2, default=pf.DEFAULT_WINDOW, metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=pf.DEFAULT_GRID)

    p = sub.add_parser("check", help="run the verification suites")
    p.add_argument("--seed", type=_seed, default=cv.DEFAULT_SEED)
    return parser


def _cmd_probe(args) -> int:
    spec = parse_product(args.product)
    tensor = cv.build_product(spec)
    report = cv.cic_probe(tensor, count=args.frames, seed=args.seed)
    if args.format == "csv":
        sys.stdout.write("samples,min,max,mean,is_constant\n")
        sys.stdout.write(
            f"{report.samples},{report.min!r},{report.max!r},{report.mean!r},{report.is_constant}\n"
        )
    else:
        payload = {
            "product": args.product,
            "dim": spec.total_dim,
            "seed": args.seed,
            "tol": cv.DEFAULT_PROBE_TOL,
            "samples": report.samples,
            "min": report.min,
            "max": report.max,
            "argmin": report.argmin,
            "argmax": report.argmax,
            "mean": report.mean,
            "is_constant": report.is_constant,
        }
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_classify(args) -> int:
    q = cls.ClassQuery(n=args.n, c=parse_number(args.c), C=parse_number(args.C))
    outcomes = cls.classify(q)
    payload = cls.query_to_json(q, outcomes)
    failed = False  # a witness that breaks down in --window fails verification
    if args.witness:
        window = tuple(args.window)
        for outcome, entry in zip(outcomes, payload["outcomes"]):
            if outcome.tag != cls.ROTATION_FAMILY:
                entry["witness"] = {"symbolic": outcome.tag}
                continue
            w = outcome.profile
            ambient = pf.AmbientSpec(c=float(q.c), delta=w.ode_delta)
            info = {"family": outcome.family, "params": dataclasses.asdict(w)}
            try:  # streamed in column blocks, so a large --grid is never held in memory
                info["cic_mean"], info["cic_max_deviation"] = pf.cic_mean_deviation(w, ambient, window, args.grid)
            except pf.DomainBreakdown as exc:
                info["domain_failure"] = {"s": exc.s, "reason": exc.reason}
                failed = True
            entry["witness"] = info
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 1 if failed else 0


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"--{name} is required for the {args.family} family")
    return float(parse_number(value))


def _build_family(args) -> pf.ProfileFamily:
    kind = pf.FAMILIES[args.family]
    return kind(**{f.name: args.delta if f.name == "delta" else _require(args, f.name)
                   for f in dataclasses.fields(kind)})


def _cmd_profile(args) -> int:
    fam = _build_family(args)
    ambient = pf.AmbientSpec(c=float(parse_number(args.c)), delta=args.delta)
    blocks = pf.profile_columns(fam, ambient, tuple(args.window), args.grid)
    try:
        pf.write_profile_csv(blocks, sys.stdout)
    except pf.DomainBreakdown as exc:
        sys.stderr.write(f"domain breakdown: {exc}\n")
        return 1
    return 0


def _cmd_check(args) -> int:
    results = run_all(RunConfig(seed=args.seed))
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        # timings go to stderr so stdout stays byte-identical across runs
        sys.stdout.write(f"{r.name:<{width}}  {status}  {r.detail}\n")
        sys.stderr.write(f"{r.name}: {r.seconds:.2f}s\n")
    total = sum(r.seconds for r in results)
    sys.stdout.write(f"{len(results) - failed}/{len(results)} suites passed\n")
    sys.stderr.write(f"total: {total:.2f}s\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "probe":
            return _cmd_probe(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "profile":
            return _cmd_profile(args)
        return _cmd_check(args)
    except (ValueError, MemoryError) as exc:  # bad input, or an array too large to allocate
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
