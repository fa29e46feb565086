"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 1-10 --trace-seeds 1-3 --out perfbench/baseline.json

Each (workload, seed, trace) is one run of the command in BENCHMARK.json, one
after another.  Every workload of BENCHMARK.json runs for its run_seconds,
so that records made on parent and change stay comparable.  For every
metric the record holds the values, their median, quartiles
(`statistics.quantiles(n=4)`) and spread, (q3 - q1) / median.
Traced runs also keep each run's layer table, known-answer ratios and
cProfile top rows.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
    }


def run_set(bench, workloads, seeds, seconds, trace):
    """Run every (workload, seed) once; summarize each metric per workload."""
    out = {}
    for workload in workloads:
        metrics, walls, runs = {}, [], []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            run = {
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "host": json.loads(next(l for l in lines if l.startswith("# host"))[7:]),
                "digest": next(l for l in lines if l.startswith("digest")).split()[1],
                "metric_lines": [l[7:] for l in lines if l.startswith("metric ")],
            }
            if trace:
                traced = json.loads((HERE / "out" / f"{workload}-trace.json").read_text())
                run.update({k: traced[k] for k in ("layers", "known_answers", "metrics")})
                run["cprofile_top"] = traced["cprofile"]["top"][:8]
            runs.append(run)
            print(f"{workload} seed {seed} trace {trace}: {walls[-1]:.1f} s wall, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        out[workload] = {
            "metrics": {k: summarize(v) for k, v in metrics.items()},
            "wall_s": summarize(walls),
            "runs": runs,
        }
        for k, v in out[workload]["metrics"].items():
            spread = "n/a" if v["spread"] is None else f"{v['spread']:.4f}"
            print(f"  {workload} {k}: median {v['median']:.5g} spread {spread}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="untraced runs, e.g. 1-10")
    ap.add_argument("--trace-seeds", default="1-3", help="traced runs; empty for none")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    record = {"host": {"cpu": cpu_model(), "nproc": os.cpu_count()}, "seconds": seconds}
    record["untraced"] = run_set(bench, workloads, seed_list(args.seeds), seconds, 0)
    if args.trace_seeds:
        record["traced"] = run_set(bench, workloads, seed_list(args.trace_seeds), seconds, 1)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
