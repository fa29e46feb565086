"""DAG recovery from multi-environment exchangeable data.

Two stages: first bucket the variables into a reverse topological order by
repeatedly finding the current sinks (variables whose first-sample value is
independent of every other remaining variable's second-sample value given
the other remaining first-sample values), then identify edges between
buckets with increasing gap, reusing the parent sets discovered at lower
gaps to build the conditioning sets.

Tests are pluggable: a tester decides a list of statements per call, one
call per sink sweep and per edge gap.  The statistical G-test backend is
the default, and an exact backend (see `exdag.oracle.oracle_tester`)
checks the algorithm independently of finite-sample noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .ci_test import DEFAULT_ALPHA, CiResult, PatternTable, pattern_table, test_statements
# unused here; the name stays because perfbench/tracing.py rebinds `discovery.test_statement`
from .ci_test import test_statement  # noqa: F401
from .graphs import CiStatement, Dag
from .sampling import EnvDataset

# decides a list of statements in one call: one result each, in input order
CiTester = Callable[[Sequence[CiStatement]], List[CiResult]]

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
    """Disjoint buckets covering the variables 0..d-1; bucket 0 holds the
    sinks.  `forced` holds a (sweep, variable, minimum p-value) entry for
    each deadlocked sweep that `force` broke by placing that variable."""

    buckets: Tuple[Tuple[int, ...], ...]
    forced: Tuple[Tuple[int, int, float], ...] = ()

    def __post_init__(self):
        self.buckets = tuple(tuple(b) for b in self.buckets)
        flat = [i for b in self.buckets for i in b]
        if len(flat) != len(set(flat)):
            raise ValueError("buckets must be disjoint")
        if any(len(b) == 0 for b in self.buckets):
            raise ValueError("buckets must be nonempty")
        expected, got = set(range(len(flat))), set(flat)
        if got != expected:
            raise ValueError(
                f"buckets must cover the variables 0..{len(flat) - 1}: "
                f"missing {sorted(expected - got)}, extra {sorted(got - expected)}"
            )

    @property
    def d(self):
        return sum(len(b) for b in self.buckets)


@dataclass
class DiscoveryResult:
    graph: Dag
    sink_order: SinkOrder
    test_log: List[CiResult] = field(default_factory=list)
    alpha: Optional[float] = None  # the level of the tests, if the tester took one

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.to_dict(),
            "buckets": [list(b) for b in self.sink_order.buckets],
            "alpha": self.alpha,
            "tests": [r.to_dict() for r in self.test_log],
        }


def _two_sample_table(ds: EnvDataset) -> PatternTable:
    """Every variable at samples 0 and 1 (column s * d + v), the only
    coordinates discovery's statements read, in one pattern table."""
    if ds.min_samples < 2:
        raise ValueError(
            "discovery requires at least 2 samples in every environment "
            "(the cross-sample tests reference sample index 1)"
        )
    return pattern_table(ds, [(v, s) for s in (0, 1) for v in range(ds.d)])


def data_tester(table: PatternTable, alpha: float = DEFAULT_ALPHA) -> CiTester:
    """Statistical backend: `test_statements` on `table`, which holds one
    observation per environment and must cover the statements' coordinates.
    Each list is decided in one pass: one statement plan, one count array
    per coordinate set and one G pass per block of same-shape cubes."""
    return lambda stmts: test_statements(table, stmts, alpha)


def _sink_statement(i: int, j: int, conditioning) -> CiStatement:
    # target variable read at sample 0, probe at sample 1, conditioning at sample 0
    return CiStatement(
        frozenset([(i, 0)]),
        frozenset([(j, 1)]),
        frozenset((l, 0) for l in conditioning),
    )


def find_sink_order_with_tester(tester: CiTester, d: int, force: bool = False) -> SinkOrder:
    """Iteratively peel off sink buckets.

    Within a sweep the remaining-variable set is frozen, so the sweep's
    statements go to the tester as one list; all variables passing the
    sweep enter the same bucket.  With `force`, a deadlocked sweep admits
    the variable whose worst pairwise p-value is largest instead of
    raising, and records it in the order's `forced`.
    """
    remaining = list(range(d))
    buckets = []
    forced = []
    while remaining:
        others = {i: [j for j in remaining if j != i] for i in remaining}
        results = iter(tester([_sink_statement(i, j, others[i])
                               for i in remaining for j in others[i]]))
        placed = []
        p_matrix = {}
        for i in remaining:
            row = [next(results) for _ in others[i]]
            p_matrix[i] = [res.p_value for res in row] or [1.0]
            if all(res.independent for res in row):
                placed.append(i)
        if not placed:
            if not force:
                raise NoSinkFoundError(remaining, p_matrix)
            placed = [max(remaining, key=lambda i: min(p_matrix[i]))]
            forced.append((len(buckets), placed[0], min(p_matrix[placed[0]])))
        buckets.append(tuple(placed))
        remaining = [i for i in remaining if i not in placed]
    return SinkOrder(tuple(buckets), tuple(forced))


def find_edges_with_tester(tester: CiTester, order: SinkOrder) -> Dag:
    """Edge identification between buckets, ascending in bucket gap.

    Each target i in bucket k is tested at sample 0 against each source j
    in bucket k + t at sample 1, given a set S of variables at sample 0;
    a dependence adds the edge j -> i.  In a correct sink order every
    parent of a variable lies in a higher bucket and no descendant does.

    - At gap 1, S is every variable in the buckets above the source's.  A
      parent of i outside S shares j's bucket, so its own parents are all
      in S, and j is not its descendant: a path from i through it is
      blocked at S or reaches only its descendants at sample 1.
    - At gaps above 1, S is every variable in the source's bucket and
      above, other than j, plus the parents of i found at lower gaps.  If
      those earlier verdicts are right, S holds every parent of i but j
      and no descendant of i.  By the local Markov property of the
      unrolled graph, (i, 0) is then m-separated from (j, 1) unless j is a
      parent of i: a path out of (i, 0) is blocked at a parent in S, or
      runs down to descendants of i, which S does not hold and j is not.

    A set holding only the parents of i found so far misses a parent in
    the source's bucket that the loop has not reached yet, and
    conditioning on another parent that is a collider can then open a
    path to j.  The paper's pseudo-code for this stage is not in the
    repository, so whether this set matches the paper's is unchecked.

    Each gap's statements go to the tester as one list: at gap 1 S reads no
    parents, and a parent found during a higher gap lies in the source's
    bucket, which S already holds.
    """
    buckets = order.buckets
    n_buckets = len(buckets)
    parents = {i: set() for i in range(order.d)}
    for t in range(1, n_buckets):
        pairs, stmts = [], []
        for k in range(n_buckets - t):
            upper = {v for m in range(k + t + 1, n_buckets) for v in buckets[m]}
            for i in buckets[k]:
                for j in buckets[k + t]:
                    cond = set(upper)
                    if t > 1:
                        cond |= parents[i] | set(buckets[k + t])
                    cond -= {i, j}
                    pairs.append((j, i))
                    stmts.append(_sink_statement(i, j, cond))
        for (j, i), res in zip(pairs, tester(stmts), strict=True):
            if not res.independent:
                parents[i].add(j)
    return Dag(order.d, frozenset((j, i) for i in parents for j in parents[i]))


def discover_with_tester(tester: CiTester, d: int, force: bool = False) -> DiscoveryResult:
    """Sink order, then edges, with each batch's results logged in call order.
    The level lives in the tester, so the result's `alpha` is left unset."""
    log: List[CiResult] = []

    def logged(stmts: Sequence[CiStatement]) -> List[CiResult]:
        results = tester(stmts)
        log.extend(results)
        return results

    order = find_sink_order_with_tester(logged, d, force=force)
    graph = find_edges_with_tester(logged, order)
    return DiscoveryResult(graph=graph, sink_order=order, test_log=log)


def discover(ds: EnvDataset, alpha: float = DEFAULT_ALPHA, force: bool = False) -> DiscoveryResult:
    """Full pipeline: sink-order identification then edge identification,
    every test at level `alpha` on one two-sample pattern table."""
    result = discover_with_tester(data_tester(_two_sample_table(ds), alpha), ds.d, force=force)
    result.alpha = alpha
    return result


def bivariate_direction(ds: EnvDataset) -> str:
    """Three-hypothesis decision for d = 2: one tester call, then the statement
    with the highest p-value among (X->Y), (Y->X), (X indep Y); ties break in
    that listed order.  No verdict is read, so no level is taken."""
    if ds.d != 2:
        raise ValueError("bivariate_direction requires exactly 2 variables")
    labels = (X_TO_Y, Y_TO_X, X_INDEP_Y)
    statements = [
        CiStatement(frozenset([(0, 0)]), frozenset([(1, 1)]), frozenset([(0, 1)])),
        CiStatement(frozenset([(0, 0)]), frozenset([(1, 1)]), frozenset([(1, 0)])),
        CiStatement(frozenset([(0, 0)]), frozenset([(1, 0)]), frozenset()),
    ]
    p_values = [res.p_value for res in data_tester(_two_sample_table(ds))(statements)]
    return labels[p_values.index(max(p_values))]
