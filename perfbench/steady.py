"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --workloads probe --seeds 5 --baseline perfbench/out/steady-A.json

Runs the command from BENCHMARK.json once per seed and workload (by
default the workloads BENCHMARK.json lists), one run at a time.  For each
end-to-end metric it prints the median and the spread, which is the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound.  With --baseline it also prints how far each median moved
from that earlier set of runs, in the direction the metric gets worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None, help="comma-separated; default: those in BENCHMARK.json")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--baseline", type=Path, default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    report = {}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            res = run_once(bench["command"], workload, seed, bench["run_seconds"])
            runs.append({**res, "wall_s": time.monotonic() - t0})
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.0f} s, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share {sorted(shares)}, wall {max(r['wall_s'] for r in runs):.0f} s max")
        report[workload] = runs
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            line = (f"  {name:<12} median {statistics.median(values):<10.4g} spread {spread(values):6.2%}"
                    f"  bound {spec['bound']:.0%}  (a third: {spec['bound'] / 3:.1%})")
            if baseline:
                before = statistics.median(r["metrics"][name]["value"] for r in baseline[workload])
                worse = (statistics.median(values) - before) / before
                line += f"  worse than baseline by {worse if spec['better'] == 'lower' else -worse:+.2%}"
            print(line)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report) + "\n")
    print(f"runs written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
