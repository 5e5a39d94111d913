"""isocurv benchmark: run one workload and print its metrics.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
        python3 perfbench/run.py --workload probe --seed 7 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in WORKERS processes,
one after the other; each sets up (import, inputs, warm-up pass), checks
the warm-up outputs and times passes for a WORKERS-th of --seconds, so the
measured passes are spread over the whole run.  The last line of standard
output is the result as JSON; the line before it records the seed, numpy,
BLAS and the processor count.  With --trace 1 a single worker alternates
untraced and traced passes for --seconds, the result holds the per-layer
metrics instead of the end-to-end ones, and the spans are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check", "probe", "profiles")
WORKERS = 3
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if "_us_per_" in name:
        return "us"
    if "_ns_per_" in name:
        return "ns"
    return "s"


def _worker(args, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker did not finish within {DEADLINE_S:.0f} s") from exc
    if done.returncode != 0:
        raise WorkerFailed(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(runs: list[dict]) -> dict:
    """Metrics over all workers: medians of set-up and of pass times, and
    the median over the operation list of each operation's mean latency."""
    passes = [p for r in runs for p in r["pass_s"]]
    latencies = [lat for r in runs for lat in r["latencies"]]
    values = {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "op_p50_ms": (1e3 * statistics.median(statistics.fmean(op) for op in zip(*latencies)), "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "isocurv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no isocurv sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            runs = [_worker(args, args.seconds, deadline)]
        else:
            runs = [_worker(args, args.seconds / WORKERS, deadline) for _ in range(WORKERS)]
    except WorkerFailed as exc:
        sys.stderr.write(f"error: {args.workload}: {exc}\n")
        return 1

    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in runs[0]["layers"].items()}
    else:
        metrics = end_to_end(runs)
    info = {**runs[-1]["info"], "setup_runs_s": [r["setup_s"] for r in runs],
            "passes": [r["info"]["passes"] for r in runs]}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
