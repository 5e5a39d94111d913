"""One benchmark process: set up a workload, check it, time whole passes.

Started by run.py; prints one JSON line with the set-up time and the raw
pass and operation times, which run.py turns into metrics.  Set-up time
runs from the first line of this file, before numpy and isocurv are
imported, to the end of the warm-up pass.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import isocurv  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
MIN_TRACE_PASSES = 4


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def measure(args) -> dict:
    """Set up, check the warm-up outputs, then time passes for --seconds."""
    wl = workloads.make(args.workload, args.seed)
    _, _, reference = wl.run_pass()
    setup_s = time.perf_counter() - T0
    failed_per_pass = wl.verify(reference)

    # Tracing alternates with untraced passes; only the untraced ones give
    # the end-to-end figures.
    tracer = tracing.Tracer() if args.trace else None
    pass_s = {False: [], True: []}
    latencies = []   # one list per untraced pass, one entry per operation
    attempted = passes = 0
    start = time.perf_counter()
    min_passes = MIN_TRACE_PASSES if tracer else 1
    while passes < min_passes or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            seconds, lat, _ = wl.run_pass(tracer.start_op if traced else None, reference)
        finally:
            if traced:
                tracer.uninstall()
        pass_s[traced].append(seconds)
        if not traced:
            latencies.append(lat)
        attempted += len(lat)
        passes += 1

    result = {
        "setup_s": setup_s,
        "pass_s": pass_s[False],
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": passes * failed_per_pass,
        "info": {
            "workload": args.workload,
            "seed": args.seed,
            "passes": passes,
            "ops_per_pass": attempted // passes,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }
    if tracer:
        result["layers"] = tracer.metrics(pass_s[True], pass_s[False])
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed, "metrics": result["layers"]})
        result["info"]["trace_file"] = str(trace_file.relative_to(ROOT))
        result["info"]["traced_pass_s"] = statistics.median(pass_s[True])
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if Path(isocurv.__file__).resolve().parent != ROOT / "src" / "isocurv":
        sys.stderr.write(f"error: imported isocurv from {isocurv.__file__}, not from this checkout\n")
        return 2
    try:
        result = measure(args)
    except workloads.Incorrect as exc:
        sys.stderr.write(f"wrong output: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
