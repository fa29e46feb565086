"""Causal graph structures: DAGs, unrolled mixed graphs, and separation oracles.

A `Dag` represents a causal structure over ``d`` variables.  `icm_unroll`
expands a DAG into a `Dmag` over (variable, sample) node pairs: one copy of
the DAG per sample plus a bidirected edge between every two copies of the
same variable, absorbing the per-variable latent mechanism parameter.
Independence is read off a `Dmag` via m-separation: a Bayes-Ball walk over
(node, entered-through-arrowhead) states, which from one left side under
one conditioning set reaches every node it is m-connected to.  Node sets
are boolean node rows, with column i as node i of a graph's sorted nodes.
`_separations` is the one separation path: a `_SeparationPlan` holds a
list's distinct (left, given) walks as rows and each statement's walk
index and right side, and one array walk advancing every (left, given) at
once, then one array test, decide the list.
`ci_statements` is the one statement enumerator; each enumeration, its sort
order and its separation plan are built once, in a cache keyed by (sorted
nodes, clipped size) that holds 8 enumerations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import FrozenSet, Hashable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

Node = Hashable
DmagNode = Tuple[int, int]  # (variable index, sample index)

CI_SET_NODE_LIMIT = 12
ENUMERATE_DAGS_LIMIT = 5


class EnumerationSizeError(ValueError):
    """Raised when an exhaustive enumeration would be too large."""


def _toposort(nodes: Iterable[Node], edges: Iterable[Tuple[Node, Node]]) -> List[Node]:
    """Kahn's algorithm with lowest-node-first tie-break.  Raises on cycles."""
    nodes = sorted(nodes)
    out = {u: [] for u in nodes}
    indeg = {u: 0 for u in nodes}
    for u, v in edges:
        out[u].append(v)
        indeg[v] += 1
    ready = sorted(u for u in nodes if indeg[u] == 0)
    order = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        changed = False
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
                changed = True
        if changed:
            ready.sort()
    if len(order) != len(nodes):
        raise ValueError("graph contains a directed cycle")
    return order


@dataclass(frozen=True)
class CiStatement:
    """A conditional-independence statement: left _||_ right | given."""

    left: FrozenSet[Node]
    right: FrozenSet[Node]
    given: FrozenSet[Node]

    def __post_init__(self):
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))
        object.__setattr__(self, "given", frozenset(self.given))
        if not self.left or not self.right:
            raise ValueError("left and right sides must be nonempty")
        if (self.left & self.right) or (self.left & self.given) or (self.right & self.given):
            raise ValueError("left, right and given must be disjoint")

    @classmethod
    def _from_disjoint(cls, left: frozenset, right: frozenset, given: frozenset) -> "CiStatement":
        """Build from frozensets the caller guarantees nonempty-sided and
        pairwise disjoint, skipping `__post_init__`'s re-wrap and checks."""
        stmt = object.__new__(cls)
        stmt.__dict__.update(left=left, right=right, given=given)
        return stmt

    def sort_key(self):
        return (tuple(sorted(self.left)), tuple(sorted(self.right)), tuple(sorted(self.given)))

    def __str__(self):
        fmt = lambda s: "{" + ",".join(map(str, sorted(s))) + "}"
        return f"{fmt(self.left)} _||_ {fmt(self.right)} | {fmt(self.given)}"


def statement(left, right, given=()) -> CiStatement:
    """Convenience constructor accepting any iterables (or single nodes as sets)."""
    return CiStatement(frozenset(left), frozenset(right), frozenset(given))


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over node indices 0..d-1."""

    d: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self loop at node {u}")
            if not (0 <= u < self.d and 0 <= v < self.d):
                raise ValueError(f"edge ({u}, {v}) out of range for d={self.d}")
        _toposort(range(self.d), self.edges)  # raises on cycles

    def parents(self, i: int) -> FrozenSet[int]:
        return frozenset(u for u, v in self.edges if v == i)

    def topological_order(self) -> List[int]:
        return _toposort(range(self.d), self.edges)

    def skeleton(self) -> FrozenSet[FrozenSet[int]]:
        return frozenset(frozenset(e) for e in self.edges)

    def v_structures(self) -> FrozenSet[Tuple[int, int, int]]:
        """Colliders a -> c <- b with a, b nonadjacent, canonicalized as (min, c, max)."""
        skel = self.skeleton()
        out = set()
        for c in range(self.d):
            for a, b in itertools.combinations(sorted(self.parents(c)), 2):
                if frozenset((a, b)) not in skel:
                    out.add((a, c, b))
        return frozenset(out)

    def to_dict(self) -> dict:
        return {"d": self.d, "edges": sorted(map(list, self.edges))}

    @classmethod
    def from_dict(cls, data: dict) -> "Dag":
        if type(data["d"]) is not int:  # bools and floats are not sizes
            raise TypeError(f"d must be an integer, got {data['d']!r}")
        return cls(data["d"], frozenset((int(u), int(v)) for u, v in data["edges"]))

    def __str__(self):
        return f"Dag(d={self.d}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class Dmag:
    """Directed mixed acyclic graph over (variable, sample) node pairs."""

    nodes: FrozenSet[DmagNode]
    directed: FrozenSet[Tuple[DmagNode, DmagNode]]
    bidirected: FrozenSet[FrozenSet[DmagNode]]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "directed", frozenset(self.directed))
        object.__setattr__(self, "bidirected", frozenset(frozenset(p) for p in self.bidirected))
        for u, v in self.directed:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"directed edge ({u}, {v}) references unknown node")
            if u == v:
                raise ValueError(f"self loop at {u}")
        for pair in self.bidirected:
            if len(pair) != 2:
                raise ValueError(f"bidirected edge {set(pair)} must join two distinct nodes")
            if not pair <= self.nodes:
                raise ValueError(f"bidirected edge {set(pair)} references unknown node")
        _toposort(self.nodes, self.directed)  # raises on directed cycles

    @cached_property
    def _masks(self):
        """(the nodes in sorted order, then float32 (node, child) and
        (node, spouse) matrices, 1 where the edge is): the structure every
        separation walk reads, built once per graph.  Row and column i are
        node i of the sorted order, whatever order the node set iterates in,
        so a `_SeparationPlan` built once for a node set serves every graph
        over it."""
        nodes = tuple(sorted(self.nodes))
        position = {v: i for i, v in enumerate(nodes)}
        children, spouses = np.zeros((2, len(nodes), len(nodes)), dtype=np.float32)
        for u, v in self.directed:
            children[position[u], position[v]] = 1
        for pair in self.bidirected:
            u, v = (position[w] for w in pair)
            spouses[u, v] = spouses[v, u] = 1
        return nodes, children, spouses


def icm_unroll(g: Dag, n_samples: int) -> Dmag:
    """Unroll a DAG over sample copies, tying copies of each variable with
    bidirected edges (one shared latent mechanism per variable)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    nodes = frozenset((i, n) for i in range(g.d) for n in range(n_samples))
    directed = frozenset(((u, n), (v, n)) for u, v in g.edges for n in range(n_samples))
    bidirected = frozenset(
        frozenset(((i, n), (i, m)))
        for i in range(g.d)
        for n, m in itertools.combinations(range(n_samples), 2)
    )
    return Dmag(nodes, directed, bidirected)


def _reach(children, spouses, src: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row w marks the nodes m-connected to the nodes of `src[w]` given
    those of `z[w]`: Bayes-Ball (Shachter, UAI 1998) over boolean (walk,
    node) arrays, every walk advanced at once by products with the
    graph's (node, child) and (node, spouse) matrices.

    Walk states are (node, entered-through-arrowhead); `head` and `tail`
    hold the nodes reached in each.  A node passed through as a collider
    (arrowhead on both incident edge marks) is open iff it is in `z`; a
    non-collider is open iff it is outside it.  So a node outside `z` passes
    the walk on to its children, and to its parents and spouses too if it
    was entered through a tail; a node in `z` entered through an arrowhead
    passes it on to its parents and spouses only.  A walk may revisit nodes,
    so it can run from a collider down to a conditioned descendant and back
    up: such walks connect exactly the pairs that paths with every collider
    an ancestor of the conditioning set do, without computing that ancestor
    set.  Each state is entered at most once, so no walk takes more than
    2N + 1 steps over N nodes.
    """
    head, tail = np.zeros_like(src), np.zeros_like(src)
    unconditioned = ~z
    down = up = src  # the nodes passing the walk on to children; to parents and spouses
    while down.any() or up.any():
        next_head = ((down @ children > 0) | (up @ spouses > 0)) & ~head
        next_tail = (up @ children.T > 0) & ~tail
        head |= next_head
        tail |= next_tail
        down = (next_head | next_tail) & unconditioned
        up = (next_head & z) | (next_tail & unconditioned)
    return head | tail


@dataclass(frozen=True)
class _SeparationPlan:
    """How `_run_separation_plan` decides a statement list: the list's
    distinct (left, given) walks as boolean (walk, node) rows `left` and
    `given`, and per statement its walk index and its right side as a
    boolean (statement, node) row, with column i as node i of the sorted
    `nodes`.  A plan depends on the statements and the node set only, not
    on the edges."""

    nodes: Tuple[Node, ...]
    left: np.ndarray
    given: np.ndarray
    walk: np.ndarray
    right: np.ndarray


def _separation_plan(nodes: Tuple[Node, ...], stmts: Sequence[CiStatement]) -> _SeparationPlan:
    """The `_SeparationPlan` of `stmts` over the sorted node tuple `nodes`.
    Raises ValueError, with the node named, if a statement references a
    node outside `nodes`."""
    position = {v: i for i, v in enumerate(nodes)}.__getitem__
    walks = {}  # (left, given) -> walk index

    def rows(sides):
        n = len(nodes)
        out = np.zeros((len(sides), n), dtype=bool)
        out.flat[[i * n + position(v) for i, side in enumerate(sides) for v in side]] = True
        out.flags.writeable = False  # a cached plan is shared
        return out

    walk = np.array([walks.setdefault((s.left, s.given), len(walks)) for s in stmts], np.intp)
    walk.flags.writeable = False
    try:
        right = rows([s.right for s in stmts])
        left = rows([key[0] for key in walks])
        given = rows([key[1] for key in walks])
    except KeyError as err:
        raise ValueError(f"statement references unknown node {err.args[0]}") from None
    return _SeparationPlan(nodes, left, given, walk, right)


def _run_separation_plan(m: Dmag, plan: _SeparationPlan) -> List[bool]:
    """Whether each of a plan's statements is an m-separation of `m`, in
    statement order: one `_reach` decides every distinct (left, given) walk
    at once, and `~(reached[walk] & right).any(axis=1)` every statement.
    The plan must number `m`'s own nodes."""
    nodes, children, spouses = m._masks
    if plan.nodes != nodes:
        raise ValueError("separation plan is over another node set than the graph's")
    reached = _reach(children, spouses, plan.left, plan.given)
    return (~(reached[plan.walk] & plan.right).any(axis=1)).tolist()


def _separations(m: Dmag, stmts: Sequence[CiStatement]) -> List[bool]:
    """Whether each statement is an m-separation of `m`, in input order: the
    one separation path, behind `m_separated` on a plan built per call and
    behind `ci_set`, `verify_markov_faithful` and `harness._separation_bits`
    on their enumeration's cached plan.  Each step of the walk is a few
    array operations over all of a list's walks, so a short list pays most
    of a long one's cost: one statement takes about a quarter of the time
    of the 1,792 of an 8-node enumeration."""
    return _run_separation_plan(m, _separation_plan(m._masks[0], stmts))


def m_separated(m: Dmag, s: CiStatement) -> bool:
    """m-separation over a mixed graph: as d-separation, but a node entered
    and exited through bidirected arrowheads also counts as a collider."""
    return _separations(m, [s])[0]


@lru_cache(maxsize=8)
def _enumeration(nodes: Tuple[Node, ...], max_condition_size: int):
    """(the statements `ci_statements` yields, the permutation that sorts
    them by `sort_key`, their `_SeparationPlan`) for sorted `nodes` and a
    size already clipped to len(nodes) - 2.  Cached by (nodes, size), at
    most 8 entries: an entry over 8 nodes holds 1,792 statements and 769
    walks (a 41 kB plan), over `CI_SET_NODE_LIMIT` nodes 67,584 statements
    and 20,481 walks (a 1.8 MB plan).  `_statement_order` has rejected a
    repeated node, so the sides are disjoint by construction and skip the
    constructor's checks; each pair's two sides are built once and shared
    by its statements."""
    stmts = []
    for a, b in itertools.combinations(nodes, 2):
        left, right = frozenset([a]), frozenset([b])
        rest = [v for v in nodes if v not in (a, b)]
        for size in range(max_condition_size + 1):
            for given in itertools.combinations(rest, size):
                stmts.append(CiStatement._from_disjoint(left, right, frozenset(given)))
    keys = [s.sort_key() for s in stmts]
    order = tuple(sorted(range(len(stmts)), key=keys.__getitem__))
    return tuple(stmts), order, _separation_plan(nodes, stmts)


def _statement_order(nodes: Iterable[Node], max_condition_size: int):
    """`_enumeration` of `nodes` in any order, after rejecting a negative
    `max_condition_size` or a repeated node."""
    if max_condition_size < 0:
        raise ValueError(f"max_condition_size must be >= 0, got {max_condition_size}")
    nodes = tuple(sorted(nodes))
    for a, b in zip(nodes, nodes[1:]):
        if a == b:
            raise ValueError(f"node {a} is repeated")
    return _enumeration(nodes, min(max_condition_size, max(len(nodes) - 2, 0)))


def ci_statements(nodes: Iterable[Node], max_condition_size: int) -> Iterator[CiStatement]:
    """All singleton-left/singleton-right statements over `nodes` with
    conditioning sets up to `max_condition_size`, in canonical order: pairs
    a < b, then conditioning sets by size, then lexicographically.  A
    negative size raises at the call.  The whole enumeration is built on
    the first call and kept in a cache keyed by (sorted nodes, size clipped
    to len(nodes) - 2) that holds 8 enumerations, so repeated calls share
    the same (immutable) statements."""
    return iter(_statement_order(nodes, max_condition_size)[0])


def ci_set(m: Dmag, max_condition_size: int) -> List[CiStatement]:
    """All `ci_statements` of the graph's nodes that are m-separations, in
    canonical sorted order (by `CiStatement.sort_key`): the enumeration's
    cache holds that order as a permutation and the statements' separation
    plan, so no call sorts or re-derives a walk.  Each call returns a new
    list.  Restricting to singleton sides is sufficient for the
    pairwise-structural equivalence checks this feeds."""
    if len(m.nodes) > CI_SET_NODE_LIMIT:
        raise EnumerationSizeError(
            f"ci_set enumeration limited to {CI_SET_NODE_LIMIT} nodes, got {len(m.nodes)}"
        )
    stmts, order, plan = _statement_order(m.nodes, max_condition_size)
    separated = _run_separation_plan(m, plan)
    return [stmts[i] for i in order if separated[i]]


def enumerate_dags(d: int) -> List[Dag]:
    """All labeled DAGs on d nodes, in a deterministic order.

    Enumerates orientations {absent, ->, <-} per unordered node pair and
    filters out cyclic digraphs.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > ENUMERATE_DAGS_LIMIT:
        raise EnumerationSizeError(f"enumerate_dags limited to d <= {ENUMERATE_DAGS_LIMIT}")
    pairs = list(itertools.combinations(range(d), 2))
    out = []
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = set()
        for (u, v), c in zip(pairs, choice):
            if c == 1:
                edges.add((u, v))
            elif c == 2:
                edges.add((v, u))
        try:
            out.append(Dag(d, frozenset(edges)))
        except ValueError:
            continue
    return out
