"""Causal graph structures: DAGs, unrolled mixed graphs, and separation oracles.

A `Dag` represents a causal structure over ``d`` variables.  `icm_unroll`
expands a DAG into a `Dmag` over (variable, sample) node pairs: one copy of
the DAG per sample plus a bidirected edge between every two copies of the
same variable, absorbing the per-variable latent mechanism parameter.
Independence is read off a `Dmag` via m-separation, implemented as a
reachability traversal over (node, entered-through-arrowhead) states.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Hashable, Iterable, Iterator, List, Tuple

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
        return cls(int(data["d"]), frozenset((int(u), int(v)) for u, v in data["edges"]))

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
    def _incidence(self):
        return _incidence_lists(self.nodes, self.directed, self.bidirected)


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


def _incidence_lists(nodes, directed, bidirected):
    """node -> [(neighbor, head_at_node, head_at_neighbor)] over every edge:
    the structure each separation query walks, built once per graph."""
    inc = {v: [] for v in nodes}
    for u, v in directed:
        inc[u].append((v, False, True))
        inc[v].append((u, True, False))
    for pair in bidirected:
        u, v = tuple(pair)
        inc[u].append((v, True, True))
        inc[v].append((u, True, True))
    return inc


def _separated(inc, s: CiStatement) -> bool:
    """Bayes-Ball reachability (Shachter, UAI 1998) over incidence lists.

    Walk states are (node, entered-through-arrowhead).  A node passed through
    as a collider (arrowhead on both incident edge marks) is open iff it is
    in the conditioning set; a non-collider is open iff it is outside it.
    A walk may revisit nodes, so it can run from a collider down to a
    conditioned descendant and back up: such walks connect exactly the
    pairs that paths with every collider an ancestor of the conditioning
    set do, without computing that ancestor set.
    """
    for group in (s.left, s.right, s.given):
        for v in group:
            if v not in inc:
                raise ValueError(f"statement references unknown node {v}")
    right, given = s.right, s.given

    seen = set()
    queue = deque()
    for x in s.left:
        for w, _head_at_x, head_at_w in inc[x]:
            state = (w, head_at_w)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    while queue:
        v, came_in_head = queue.popleft()
        if v in right:
            return False
        for w, head_at_v, head_at_w in inc[v]:
            if came_in_head and head_at_v:
                passable = v in given  # collider
            else:
                passable = v not in given
            if passable:
                state = (w, head_at_w)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return True


def m_separated(m: Dmag, s: CiStatement) -> bool:
    """m-separation over a mixed graph: as d-separation, but a node entered
    and exited through bidirected arrowheads also counts as a collider."""
    return _separated(m._incidence, s)


def ci_statements(nodes: Iterable[Node], max_condition_size: int) -> Iterator[CiStatement]:
    """All singleton-left/singleton-right statements over `nodes` with
    conditioning sets up to `max_condition_size`, in canonical order: pairs
    a < b, then conditioning sets by size, then lexicographically.  The sides
    are disjoint by construction, so they skip the constructor's checks, and
    each pair's two sides are built once and shared by its statements."""
    nodes = sorted(nodes)
    for a, b in itertools.combinations(nodes, 2):
        left, right = frozenset([a]), frozenset([b])
        rest = [v for v in nodes if v not in (a, b)]
        for size in range(min(max_condition_size, len(rest)) + 1):
            for given in itertools.combinations(rest, size):
                yield CiStatement._from_disjoint(left, right, frozenset(given))


def ci_set(m: Dmag, max_condition_size: int) -> List[CiStatement]:
    """All `ci_statements` of the graph's nodes that are m-separations, in
    canonical sorted order.  Restricting to singleton sides is sufficient
    for the pairwise-structural equivalence checks this feeds."""
    if len(m.nodes) > CI_SET_NODE_LIMIT:
        raise EnumerationSizeError(
            f"ci_set enumeration limited to {CI_SET_NODE_LIMIT} nodes, got {len(m.nodes)}"
        )
    out = [s for s in ci_statements(m.nodes, max_condition_size) if m_separated(m, s)]
    out.sort(key=CiStatement.sort_key)
    return out


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
