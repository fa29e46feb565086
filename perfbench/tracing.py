"""Span tracing from outside the package, by rebinding module attributes.

A `Tracer` replaces public functions and methods of `exdag` modules with
wrappers that record one span per call: name, start, end, the enclosing
span and the operation id.  Spans stay in memory until the run ends.  The
originals are restored by `Tracer.uninstall`, so the untraced half of a
traced run executes exactly the code an untraced run does.

A span's name is `<layer>.<function>`; the layer is the `exdag` module the
function belongs to.  Self time is a span's duration minus that of its
direct children, so per operation the self times of all spans plus the time
no span covers add up to the operation's wall time.
"""

from __future__ import annotations

import cProfile
import gzip
import json
import pstats
import statistics
import time
from collections import defaultdict
from pathlib import Path

from exdag import ci_test, discovery, graphs, harness, oracle, sampling

LAYERS = ("sampling", "ci_test", "discovery", "graphs", "oracle", "harness")

# (owner, attribute, span name).  Each entry rebinds the attribute the
# caller looks up at call time: module globals for calls made inside the
# package, class attributes for methods and properties.
TRACE_POINTS = (
    (sampling, "sample_dataset", "sampling.sample_dataset"),
    (sampling.EnvDataset, "__post_init__", "sampling.dataset_init"),
    (sampling.EnvDataset, "values_at", "sampling.values_at"),
    (sampling.EnvDataset, "min_samples", "sampling.min_samples"),
    (discovery, "test_statement", "ci_test.test_statement"),
    (ci_test, "tabulate", "ci_test.tabulate"),
    (ci_test, "g_test", "ci_test.g_test"),
    (ci_test, "chi2_sf", "ci_test.chi2_sf"),
    (discovery, "discover", "discovery.discover"),
    (harness, "discover", "discovery.discover"),
    (discovery, "discover_with_tester", "discovery.discover_with_tester"),
    (graphs, "icm_unroll", "graphs.icm_unroll"),
    (graphs, "ci_set", "graphs.ci_set"),
    (graphs, "m_separated", "graphs.m_separated"),
    (oracle, "random_generic_model", "oracle.random_generic_model"),
    (oracle, "true_ci_set", "oracle.true_ci_set"),
    (oracle, "exact_ci", "oracle.exact_ci"),
    (oracle, "exact_joint", "oracle.exact_joint"),
    (harness, "discover_file", "harness.discover_file"),
    (harness, "ingest_csv", "harness.ingest_csv"),
)


class Tracer:
    """Records spans for calls through the trace points while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op = -1
        self.cubes = []  # (op id, ContingencyCube) of every traced g_test call
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        keep_cube = name == "ci_test.g_test"

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if keep_cube:
                    self.cubes.append((self.op, args[0]))

        return traced

    def install(self):
        for owner, attr, name in TRACE_POINTS:
            orig = owner.__dict__[attr]
            if isinstance(orig, property):
                new = property(self._wrap(orig.fget, name))
            else:
                new = self._wrap(orig, name)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def per_op(self):
        """{op id: {span name: [calls, inclusive s, self s]}} plus the
        first-level spans' total per op, and for each op the inclusive time
        of `discover_with_tester` calls made outside `discover`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        covered = defaultdict(float)
        direct_dwt = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            dur = end - start
            row = table[op][name]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            if parent < 0:
                covered[op] += dur
            if name == "discovery.discover_with_tester" and (
                parent < 0 or self.spans[parent][0] != "discovery.discover"
            ):
                direct_dwt[op] += dur
        return table, covered, direct_dwt

    def write_spans(self, path: Path):
        """One JSON array per line: op, index, parent, name, start, end (s)."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([op, i, parent, name, round(start, 7), round(end, 7)]))
                fh.write("\n")


def cube_stats(cubes):
    """Strata visited, the share skipped, and the share of tests with a
    contributing stratum whose smallest expected count is below 5, mirroring
    the skip rules of `ci_test.g_test`."""
    visited = skipped = sparse = 0
    for cube in cubes:
        counts = cube.counts.astype(float)
        visited += counts.shape[0]
        tot = counts.sum(axis=(1, 2))
        row = counts.sum(axis=2)
        col = counts.sum(axis=1)
        used = ((row > 0).sum(axis=1) >= 2) & ((col > 0).sum(axis=1) >= 2)
        skipped += int((~used).sum())
        if used.any():
            exp = row[used][:, :, None] * col[used][:, None, :] / tot[used][:, None, None]
            # only cells in nonzero rows and columns enter the statistic
            live = (row[used][:, :, None] > 0) & (col[used][:, None, :] > 0)
            if exp[live].min() < 5.0:
                sparse += 1
    return {
        "strata": visited,
        "skipped_strata_frac": skipped / visited if visited else 0.0,
        "sparse_test_frac": sparse / len(cubes) if cubes else 0.0,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def profile_top(fn, root: Path, top: int = 15):
    """Run `fn` once under cProfile; return (total s, rows by self time,
    raw stats) where a row is (location, calls, self s, cumulative s)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    stats = pstats.Stats(prof)
    total = stats.total_tt
    rows = []
    for (path, line, func), (_, ncalls, tt, ct, _) in stats.stats.items():
        try:
            path = str(Path(path).resolve().relative_to(root))
        except ValueError:
            path = "/".join(Path(path).parts[-3:])  # e.g. numpy/_core/x.py
        rows.append((f"{path}:{line}({func})", ncalls, tt, ct))
    rows.sort(key=lambda r: -r[2])
    return total, rows[:top], stats.stats


def cumulative(raw_stats, func, path_suffix):
    """Cumulative seconds of a profiled function, matched by name and file."""
    return sum(
        ct
        for (path, _, name), (_, _, _, ct, _) in raw_stats.items()
        if name == func and path.endswith(path_suffix)
    )
