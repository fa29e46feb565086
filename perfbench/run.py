"""exdag benchmark: one workload per run, closed loop, one client, one thread.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/`.  The
run sets up the workload several times (inputs plus one warm-up operation)
and reports the median as `setup_s`, then runs operations back to back for
`--seconds`, checking each output outside the timed region.  Human-readable
lines come first; the last line of standard output is one JSON object.

With `--trace 0` the JSON holds the end-to-end metrics.  With `--trace 1`
operation i runs twice, untraced then traced, so the two halves see the same
input; the JSON holds the per-layer metrics every workload exercises, and
the full per-layer table, the known-answer ratios and a cProfile top-N of
one further operation are printed and written to `perfbench/out/` with the
spans.  See README.md for the metrics.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# pinned before numpy loads its BLAS
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from exdag import discovery  # noqa: E402
from tracing import median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
DIGEST_OPS = 3
TOP_N = 15
OUT_DIR = HERE / "out"

# Calibration.  The speed of the cores this was written on drifts by up to
# 1.6x over seconds to minutes (other tenants share them).  After every
# operation and every set-up a fixed kernel runs for CAL_SHARE of its time.
# A time is reported multiplied by CAL_REF_S over the median kernel time of
# the bursts just before and just after it: seconds at the host speed where
# the kernel takes CAL_REF_S.
CAL_SHARE = 0.1
CAL_REF_S = 0.003

# per-layer metrics in the JSON line: self time per layer, which with the
# uncovered remainder adds up to the traced operation, and the figures an
# optimisation of a layer is most likely to move.  A layer a workload never
# calls reads 0 there.
JSON_LAYER_METRICS = tuple(f"layer.{layer}.self_s" for layer in tracing.LAYERS) + (
    "trace.uncovered_s",
    "trace.op_s.p50",
    "trace.overhead_frac",
    "trace.spans_per_op",
    "sampling.sample_dataset_s",
    "sampling.values_at_s",
    "sampling.min_samples_s",
    "ci_test.tabulate_self_s",
    "ci_test.g_test_s",
    "ci_test.strata",
    "discovery.self_s",
    "discovery.oracle_discover_s",
    "graphs.ci_set_s",
    "graphs.m_separated_s",
    "oracle.true_ci_set_s",
    "oracle.exact_ci_s",
    "harness.ingest_csv_s",
)

UNITS = (
    ("_mb_per_s", "MB/s"),
    ("_per_s", "1/s"),
    ("_s", "s"),
    ("_s.p50", "s"),
    ("_frac", "ratio"),
    ("_bytes", "B"),
)


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter loops and small numpy calls."""
    start = time.perf_counter()
    a = np.arange(64.0)
    acc = 0.0
    for i in range(400):
        acc += float((a * i).sum())
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - start


def calibration_burst(seconds: float) -> list:
    """Kernel times from running it for CAL_SHARE * seconds (at least once)."""
    reps = [calibration_kernel()]
    while sum(reps) < CAL_SHARE * seconds:
        reps.append(calibration_kernel())
    return reps


def host_factor(*bursts) -> float:
    return CAL_REF_S / median([r for b in bursts for r in b])


def tail(times):
    """(value, percentile): the highest percentile with at least ten
    operations beyond it.  Below 21 operations no percentile above the
    median qualifies, and the median is reported; at 21 that is also the
    value found.  From 22 up the percentile climbs with the count, so a
    change that makes operations faster also moves the percentile."""
    s = sorted(times)
    n = len(s)
    if n < 21:
        return median(s), 50.0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n


class Loop:
    """Runs operations, times and calibrates them, checks their outputs."""

    def __init__(self, workload, setup_ok: bool):
        self.w = workload
        self.setup_ok = setup_ok
        self.wall = []
        self.bursts = []  # calibration burst after each checked operation
        self.failed = 0
        self.soft = Counter()  # outcomes that miss the goal without a fault
        self.recovered = 0
        self.digest = hashlib.sha256()
        self.digested = 0

    def run(self, i: int, check: bool = True) -> float:
        start = time.perf_counter()
        try:
            out = self.w.op(i)
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if not check:
            return elapsed
        self.wall.append(elapsed)
        self.bursts.append(calibration_burst(elapsed))
        if out is None or not self.setup_ok or not self.w.check(out):
            self.failed += 1
        else:
            if hasattr(self.w, "soft_miss") and (label := self.w.soft_miss(out)):
                self.soft[label] += 1
            if hasattr(self.w, "recovered"):
                self.recovered += self.w.recovered(out)
        if out is not None and i < DIGEST_OPS:
            self.digest.update(self.w.digest_text(out).encode())
            self.digested += 1
        return elapsed

    def calibrated(self):
        """Operation i's time, corrected by the bursts around it."""
        b = self.bursts
        return [t * host_factor(*b[max(i - 1, 0):i + 1]) for i, t in enumerate(self.wall)]


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup(w, seed: int, workdir: Path):
    """(median wall s, median calibrated s, calibrated set-up extras, ok)."""
    wall, ref, bursts = [], [], []
    extras = defaultdict(list)
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        extra = w.setup(seed, workdir)
        warm = w.op(0)
        wall.append(time.perf_counter() - start)
        bursts.append(calibration_burst(wall[-1]))
        f = host_factor(*bursts[max(k - 1, 0):k + 1])
        ref.append(wall[-1] * f)
        for key, value in extra.items():
            extras[key].append(value * f)
    ok = (w.setup_checks() if hasattr(w, "setup_checks") else True) and w.check(warm)
    return median(wall), median(ref), {k: median(v) for k, v in extras.items()}, ok


def end_to_end(loop: Loop, setup_wall: float, setup_s: float) -> dict:
    n = len(loop.wall)
    ref = loop.calibrated()
    p50, (t_val, t_pct) = median(ref), tail(ref)
    reps = [r for b in loop.bursts for r in b]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [
        f"op_s.p50 {p50:.6f} s (wall {median(loop.wall):.6f} s, n={n})",
        f"op_s.tail {t_val:.6f} s (wall {tail(loop.wall)[0]:.6f} s, p{t_pct:.1f}, n={n})",
        f"failed_frac {(loop.failed + sum(loop.soft.values())) / n:.4f} ({loop.failed} failed"
        + "".join(f" + {c} {k}" for k, c in sorted(loop.soft.items()))
        + f" of {n})",
    ]
    if hasattr(loop.w, "recovered"):
        lines.append(f"graph_recovery {loop.recovered / n:.4f} ({loop.recovered}/{n})")
    lines += [
        f"setup_s {setup_s:.6f} s (wall {setup_wall:.6f} s, {SETUP_REPEATS} set-ups)",
        f"peak_rss_mb {rss_mb:.3f} MB",
        f"host_factor {host_factor(reps):.4f} (kernel median {median(reps) * 1e3:.4f} ms, "
        f"{len(reps)} runs)",
    ]
    for line in lines:
        print("metric", line)
    return {
        "op_s.p50": {"value": p50, "unit": "s"},
        "op_s.tail": {"value": t_val, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def layer_metrics(w, tracer, traced, untraced, factors, setup_extras):
    """Per-operation medians of every per-layer metric, and each layer's
    self time with the uncovered remainder.  Times are calibrated with the
    factor of their traced operation."""
    table, covered, direct_dwt = tracer.per_op()
    ops = sorted(traced)
    for op in ops:
        f = factors[op]
        for row in table[op].values():
            row[1] *= f
            row[2] *= f
        covered[op] *= f
        direct_dwt[op] *= f
    traced = {op: t * factors[op] for op, t in traced.items()}

    def per_op(name, col):
        return median([table[op][name][col] if name in table[op] else 0.0 for op in ops])

    def incl(name):
        return per_op(name, 1)

    def self_s(name):
        return per_op(name, 2)

    def calls(name):
        return per_op(name, 0)

    cubes = defaultdict(list)
    for op, cube in tracer.cubes:
        cubes[op].append(cube)
    cstats = [tracing.cube_stats(cubes[op]) for op in ops if cubes[op]]
    csv_bytes = w.path.stat().st_size if hasattr(w, "path") else 0

    m = {
        "sampling.sample_dataset_s": incl("sampling.sample_dataset"),
        "sampling.dataset_init_s": incl("sampling.dataset_init"),
        "sampling.values_at_s": incl("sampling.values_at"),
        "sampling.values_at_calls": calls("sampling.values_at"),
        "sampling.min_samples_s": incl("sampling.min_samples"),
        "ci_test.tabulate_self_s": self_s("ci_test.tabulate"),
        "ci_test.g_test_s": incl("ci_test.g_test"),
        "ci_test.chi2_sf_s": incl("ci_test.chi2_sf"),
        "ci_test.tests": calls("ci_test.test_statement"),
        "ci_test.strata": median([c["strata"] for c in cstats]),
        "ci_test.skipped_strata_frac": median([c["skipped_strata_frac"] for c in cstats]),
        "ci_test.sparse_test_frac": median([c["sparse_test_frac"] for c in cstats]),
        "discovery.discover_s": incl("discovery.discover"),
        "discovery.self_s": median([
            sum(r[2] for n, r in table[op].items()
                if n in ("discovery.discover", "discovery.discover_with_tester"))
            for op in ops
        ]),
        "discovery.oracle_discover_s": median([direct_dwt[op] for op in ops]),
        "graphs.ci_set_s": incl("graphs.ci_set"),
        "graphs.m_separated_s": incl("graphs.m_separated"),
        "graphs.statements": calls("graphs.m_separated"),
        "graphs.icm_unroll_s": incl("graphs.icm_unroll"),
        "oracle.true_ci_set_s": incl("oracle.true_ci_set"),
        "oracle.true_ci_set_self_s": self_s("oracle.true_ci_set"),
        "oracle.exact_ci_s": incl("oracle.exact_ci"),
        "oracle.exact_ci_calls": calls("oracle.exact_ci"),
        "oracle.exact_joint_s": incl("oracle.exact_joint"),
        "oracle.random_generic_model_s": incl("oracle.random_generic_model"),
        "harness.ingest_csv_s": incl("harness.ingest_csv"),
        "harness.csv_bytes": csv_bytes,
        "harness.write_dataset_csv_s": setup_extras.get("harness.write_dataset_csv_s", 0.0),
        "trace.op_s.p50": median(list(traced.values())),
        "trace.overhead_frac": median(list(traced.values())) / median(untraced) - 1.0,
        "trace.spans_per_op": median([sum(r[0] for r in table[op].values()) for op in ops]),
    }
    ingest = m["harness.ingest_csv_s"]
    m["harness.ingest_mb_per_s"] = csv_bytes / 1e6 / ingest if ingest else 0.0
    sample = m["sampling.sample_dataset_s"]
    m["sampling.envs_per_s"] = getattr(w, "n_envs", 0) / sample if sample else 0.0

    # Self time per layer plus what no span covers.  Per operation these
    # sum to its traced time; the shares are over all traced operations.
    total = sum(traced.values())
    layers = {}
    for layer in tracing.LAYERS:
        per = [sum(r[2] for n, r in table[op].items() if n.startswith(layer + ".")) for op in ops]
        layers[layer] = (median(per), sum(per) / total)
        m[f"layer.{layer}.self_s"] = median(per)
    uncovered = [traced[op] - covered[op] for op in ops]
    layers["uncovered"] = (median(uncovered), sum(uncovered) / total)
    m["trace.uncovered_s"] = median(uncovered)
    return m, layers


def known_answers(w, tracer, m, raw_stats):
    """Shares and ratios that earlier profiling predicted, re-measured."""
    ka = {}
    if m["sampling.sample_dataset_s"]:
        ka["sampler_share_of_op"] = m["sampling.sample_dataset_s"] / m["trace.op_s.p50"]
    disc = tracing.cumulative(raw_stats, "discover", "discovery.py")
    if disc:
        ka["min_samples_share_of_discover_cprofile"] = (
            tracing.cumulative(raw_stats, "min_samples", "sampling.py") / disc
        )
    if m["graphs.ci_set_s"]:
        ka["true_ci_set_over_ci_set"] = m["oracle.true_ci_set_s"] / m["graphs.ci_set_s"]
    if hasattr(w, "uniform_twin"):
        # the same environments, ragged and cut to a uniform 2 samples,
        # discovered back to back
        tracer.install()
        try:
            for op, ds in ((-2, w.dataset), (-3, w.uniform_twin())):
                tracer.op = op
                discovery.discover(ds, force=True)
        finally:
            tracer.uninstall()
        table, _, _ = tracer.per_op()
        ragged, uniform = table[-2]["sampling.values_at"], table[-3]["sampling.values_at"]
        ka["ragged_over_uniform_values_at_per_call"] = (
            (ragged[1] / ragged[0]) / (uniform[1] / uniform[0])
        )
        ka["ragged_over_uniform_discover"] = (
            table[-2]["discovery.discover"][1] / table[-3]["discovery.discover"][1]
        )
    return ka


def run_untraced(loop, seconds):
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        loop.run(i)
        i += 1
        if time.perf_counter() >= deadline:
            return


def run_traced(w, loop, seconds, args, host, setup_extras):
    tracer = tracing.Tracer()
    traced = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        loop.run(i)
        tracer.install()
        tracer.op = i
        try:
            traced[i] = loop.run(i, check=False)
        finally:
            tracer.uninstall()
        i += 1
        if time.perf_counter() >= deadline:
            break
    # traced op i runs between calibration bursts i and i + 1
    factors = {op: host_factor(*loop.bursts[op:op + 2]) for op in traced}
    m, layers = layer_metrics(w, tracer, traced, loop.calibrated(), factors, setup_extras)
    m["discovery.deadlocks"] = loop.soft["deadlocked"]
    m["oracle.unfaithful_models"] = loop.soft["unfaithful"]
    prof_total, top, raw_stats = tracing.profile_top(lambda: w.op(i), ROOT, TOP_N)
    ka = known_answers(w, tracer, m, raw_stats)

    print(f"layers: self s per traced op (median), share of all traced op time; "
          f"{len(traced)} traced ops")
    for layer, (sec, share) in layers.items():
        print(f"  {layer:<10} {sec:.6f} s  {100 * share:6.2f}%")
    for name in sorted(m):
        print(f"layer_metric {name} {m[name]:.6g} {unit_of(name)}")
    for name, value in ka.items():
        print(f"known_answer {name} {value:.4g}")
    print(f"cprofile top {TOP_N} by self time, one operation, {prof_total:.4f} s wall:")
    for loc, ncalls, tt, ct in top:
        print(f"  {tt:9.4f} s {100 * tt / prof_total:5.1f}%  {ncalls:>9} calls  "
              f"cum {ct:8.4f} s  {loc}")

    tracer.write_spans(OUT_DIR / f"{args.workload}-spans.jsonl.gz")
    (OUT_DIR / f"{args.workload}-trace.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "host": host, "traced_ops": len(traced),
        "layers": {k: {"self_s": v[0], "share": v[1]} for k, v in layers.items()},
        "metrics": m, "known_answers": ka,
        "cprofile": {"total_s": prof_total, "top": top},
    }, indent=1) + "\n")
    return {k: {"value": float(m[k]), "unit": unit_of(k)} for k in JSON_LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]()
    host = host_record()
    print(f"# exdag benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# host", json.dumps(host, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setup_wall, setup_s, setup_extras, setup_ok = setup(w, args.seed, Path(workdir))
        loop = Loop(w, setup_ok)
        if args.trace:
            metrics = run_traced(w, loop, args.seconds, args, host, setup_extras)
        else:
            run_untraced(loop, args.seconds)
            metrics = end_to_end(loop, setup_wall, setup_s)

    print(f"digest {loop.digest.hexdigest()[:16]} over ops 0-{loop.digested - 1}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.wall),
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
