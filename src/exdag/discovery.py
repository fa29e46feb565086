"""DAG recovery from multi-environment exchangeable data.

Two stages: first bucket the variables into a reverse topological order by
repeatedly finding the current sinks (variables whose first-sample value is
independent of every other remaining variable's second-sample value given
the other remaining first-sample values), then identify edges between
buckets with increasing gap, reusing parent/child sets discovered at lower
gaps to build the conditioning sets.

Tests are pluggable: the statistical G-test backend is the default, and an
exact distribution-level backend (see `exdag.oracle.oracle_tester`) allows
checking the algorithm's correctness independently of finite-sample noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .ci_test import DEFAULT_ALPHA, CiResult, test_statement
from .graphs import CiStatement, Dag
from .sampling import EnvDataset

CiTester = Callable[[CiStatement], CiResult]

X_TO_Y = "X->Y"
Y_TO_X = "Y->X"
X_INDEP_Y = "X_|_Y"


class NoSinkFoundError(RuntimeError):
    """A sweep placed no variable: the tests are statistically ambiguous."""

    def __init__(self, remaining, p_matrix):
        self.remaining = list(remaining)
        self.p_matrix = p_matrix
        super().__init__(
            f"no sink found among remaining variables {self.remaining}; "
            f"minimum p-values per candidate: "
            + ", ".join(f"{i}: {min(ps):.4g}" for i, ps in p_matrix.items())
        )


@dataclass
class SinkOrder:
    """Disjoint buckets covering all variables; bucket 0 holds the sinks."""

    buckets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        self.buckets = tuple(tuple(b) for b in self.buckets)
        flat = [i for b in self.buckets for i in b]
        if len(flat) != len(set(flat)):
            raise ValueError("buckets must be disjoint")
        if any(len(b) == 0 for b in self.buckets):
            raise ValueError("buckets must be nonempty")

    @property
    def d(self):
        return sum(len(b) for b in self.buckets)

    def bucket_of(self, i: int) -> int:
        for k, b in enumerate(self.buckets):
            if i in b:
                return k
        raise KeyError(i)


@dataclass
class DiscoveryResult:
    graph: Dag
    sink_order: SinkOrder
    test_log: List[CiResult] = field(default_factory=list)
    alpha: float = DEFAULT_ALPHA

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.to_dict(),
            "buckets": [list(b) for b in self.sink_order.buckets],
            "alpha": self.alpha,
            "tests": [r.to_dict() for r in self.test_log],
        }


def data_tester(ds: EnvDataset, alpha: float = DEFAULT_ALPHA) -> CiTester:
    """Statistical backend: stratified G-test with one row per environment."""
    if ds.min_samples < 2:
        raise ValueError(
            "discovery requires at least 2 samples in every environment "
            "(the cross-sample tests reference sample index 1)"
        )
    return lambda stmt: test_statement(ds, stmt, alpha)


def _sink_statement(i: int, j: int, conditioning) -> CiStatement:
    # target variable read at sample 0, probe at sample 1, conditioning at sample 0
    return CiStatement(
        frozenset([(i, 0)]),
        frozenset([(j, 1)]),
        frozenset((l, 0) for l in conditioning),
    )


def find_sink_order_with_tester(
    tester: CiTester,
    d: int,
    log: Optional[List[CiResult]] = None,
    force: bool = False,
) -> SinkOrder:
    """Iteratively peel off sink buckets.

    Within a sweep the remaining-variable set is frozen, so results do not
    depend on iteration order; all variables passing the sweep enter the
    same bucket.  With `force`, a deadlocked sweep admits the variable whose
    worst pairwise p-value is largest instead of raising.
    """
    remaining = list(range(d))
    buckets = []
    while remaining:
        placed = []
        p_matrix = {}
        for i in remaining:
            others = [j for j in remaining if j != i]
            p_values = []
            all_independent = True
            for j in others:
                res = tester(_sink_statement(i, j, [l for l in others]))
                if log is not None:
                    log.append(res)
                p_values.append(res.p_value)
                if not res.independent:
                    all_independent = False
            p_matrix[i] = p_values if p_values else [1.0]
            if all_independent:
                placed.append(i)
        if not placed:
            if not force:
                raise NoSinkFoundError(remaining, p_matrix)
            placed = [max(remaining, key=lambda i: min(p_matrix[i]))]
        buckets.append(tuple(placed))
        remaining = [i for i in remaining if i not in placed]
    return SinkOrder(tuple(buckets))


def find_edges_with_tester(
    tester: CiTester,
    order: SinkOrder,
    log: Optional[List[CiResult]] = None,
) -> Dag:
    """Edge identification between buckets, ascending in bucket gap.

    For gap 1 the conditioning set is everything in buckets above the source;
    for larger gaps it additionally includes the target's parents discovered
    so far and the parents (within the source bucket) of the source's
    discovered children.
    """
    buckets = order.buckets
    n_buckets = len(buckets)
    d = order.d
    parents = {i: set() for i in range(d)}
    children = {i: set() for i in range(d)}
    edges = set()
    for t in range(1, n_buckets):
        for k in range(n_buckets - t):
            upper = {v for m in range(k + t + 1, n_buckets) for v in buckets[m]}
            for i in buckets[k]:
                for j in buckets[k + t]:
                    cond = set(upper)
                    if t > 1:
                        cond |= parents[i]
                        co_parents = set()
                        for c in children[j]:
                            co_parents |= parents[c]
                        cond |= co_parents & set(buckets[k + t])
                    cond -= {i, j}
                    res = tester(_sink_statement(i, j, cond))
                    if log is not None:
                        log.append(res)
                    if not res.independent:
                        edges.add((j, i))
                        parents[i].add(j)
                        children[j].add(i)
    return Dag(d, frozenset(edges))


def discover_with_tester(
    tester: CiTester, d: int, alpha: float = DEFAULT_ALPHA, force: bool = False
) -> DiscoveryResult:
    log: List[CiResult] = []
    order = find_sink_order_with_tester(tester, d, log=log, force=force)
    graph = find_edges_with_tester(tester, order, log=log)
    return DiscoveryResult(graph=graph, sink_order=order, test_log=log, alpha=alpha)


def discover(ds: EnvDataset, alpha: float = DEFAULT_ALPHA, force: bool = False) -> DiscoveryResult:
    """Full pipeline: sink-order identification then edge identification."""
    return discover_with_tester(data_tester(ds, alpha), ds.d, alpha=alpha, force=force)


def bivariate_direction(ds: EnvDataset, alpha: float = DEFAULT_ALPHA) -> str:
    """Three-hypothesis decision for d = 2: pick the statement with the
    highest p-value among (X->Y), (Y->X), (X indep Y); ties break in that
    listed order."""
    if ds.d != 2:
        raise ValueError("bivariate_direction requires exactly 2 variables")
    tester = data_tester(ds, alpha)
    statements = [
        (X_TO_Y, CiStatement(frozenset([(0, 0)]), frozenset([(1, 1)]), frozenset([(0, 1)]))),
        (Y_TO_X, CiStatement(frozenset([(0, 0)]), frozenset([(1, 1)]), frozenset([(1, 0)]))),
        (X_INDEP_Y, CiStatement(frozenset([(0, 0)]), frozenset([(1, 0)]), frozenset())),
    ]
    best_label, best_p = None, -1.0
    for label, stmt in statements:
        res = tester(stmt)
        if res.p_value > best_p:
            best_label, best_p = label, res.p_value
    return best_label
