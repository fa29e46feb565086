"""Stratified G-test for conditional independence on categorical data.

Each multi-environment independence statement is evaluated with one
observation per environment: the tuple of referenced (variable, sample)
values.  Environments are the i.i.d. units; pooling within-environment
samples would break independence of the test observations.

Because only each environment's tuple enters a test, the multiset of those
tuples is a sufficient statistic for every statement over the same
coordinates.  A `PatternTable` holds it, and every test here reads one:
`pattern_table` codes each environment's row, from one `values_at` gather,
by one mixed-radix int64 index, and the distinct codes become the table's
patterns, each weighted by how many environments share it.  The codes must
fit int64, so a table whose coordinates' cardinalities multiply past
2**63 - 1 is rejected.

`test_statements` is the one test path; `tabulate`, `g_test` and
`test_statement` are its one-statement and one-cube cases.  It decides a
list in one pass, on the statement plan it shares with the exact oracle:
one array per distinct coordinate set F = left | right | given, with F's
coordinates sorted by (variable, sample) as its axes, and every statement
gathered from those arrays as (left, right, given) by an int32 pattern,
one batch per (left size, right size, given size).  One budget,
`_BLOCK_CELLS`, bounds the windows of F's arrays that are filled and
concatenated together (or one larger F), the blocks gathered from them,
and the fill groups: runs of a window's F's read from one array of their
union, extended by a sum slot on each axis some member omits (the
all-marginals table of Yates' algorithm), where that takes no more numpy
passes than one fill per F.  Each block's index is built from the
members' patterns and offsets as it is gathered, so memory follows the
largest F, not the list.  Here each F holds counts, one weighted
`np.bincount` over the patterns equal to a direct count (a group's sums
of integer counts are exact, so equal too), and each block, viewed as
(given, left, right) cubes, goes through G together, with G equal bit
for bit to a per-stratum loop.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .graphs import CiStatement
from .sampling import EnvDataset

DEFAULT_ALPHA = 0.05
# `_blocks` fills and concatenates a plan's F arrays a window of at most
# this many cells (or one F) at a time, and gathers blocks of about as many
# cells (or one statement), so a long list of large F is never all in
# memory at once; a group of F's filled from one array of their union
# extends it to at most this many cells
_BLOCK_CELLS = 1 << 14
# Gather patterns of at most this many cells are cached, 4096 of them (at
# most 16 MiB), and held stacked by a plan; a larger one, whose F is as
# large, is built only while a block reads it.  A fill group's positions
# of an F of at most this many cells are cached too, 4096 of them
_HELD_PATTERN_CELLS = 1 << 10


@dataclass
class ContingencyCube:
    """Counts indexed (stratum, left config, right config)."""

    counts: np.ndarray  # (n_strata, k_x, k_y), nonnegative integers
    x_card: int
    y_card: int
    strata_cards: Tuple[int, ...]

    @property
    def total(self):
        return int(self.counts.sum())


@dataclass
class CiResult:
    """Outcome of one conditional-independence test."""

    statement: Optional[CiStatement]
    statistic: float
    dof: int
    p_value: float
    alpha: float
    n_effective: int

    @property
    def independent(self) -> bool:
        return self.p_value > self.alpha

    def to_dict(self) -> dict:
        return {
            "statement": str(self.statement) if self.statement is not None else None,
            "G": self.statistic,
            "dof": self.dof,
            "p": self.p_value,
            "verdict": "independent" if self.independent else "dependent",
            "n_effective": self.n_effective,
        }


@dataclass(eq=False)
class PatternTable:
    """The distinct per-environment observations of some (variable, sample)
    coordinates: row p of `patterns` is one observation, its column c reads
    `coords[c]`, and `weights[p]` environments made it."""

    coords: Tuple[Tuple[int, int], ...]
    cardinalities: Tuple[int, ...]  # the dataset's, one per variable
    patterns: np.ndarray  # (n_patterns, len(coords)), column-major: columns are contiguous
    weights: np.ndarray  # (n_patterns,) integers summing to the environments
    _column: Dict[Tuple[int, int], int] = field(init=False, repr=False)

    def __post_init__(self):
        self._column = {c: i for i, c in enumerate(self.coords)}

    def columns(self, coords: Sequence[Tuple[int, int]]) -> List[int]:
        """The column of each coordinate.  Raises for a coordinate the
        table does not cover."""
        for c in coords:
            if c not in self._column:
                raise ValueError(f"coordinate {c} is not covered by the pattern table")
        return [self._column[c] for c in coords]


def pattern_table(ds: EnvDataset, coords: Sequence[Tuple[int, int]]) -> PatternTable:
    """The pattern table of `coords`: one `values_at` gather, one C-order
    mixed-radix code per environment, and the distinct codes counted and
    decoded.  Raises if the codes would overflow int64."""
    coords = tuple(coords)
    values = ds.values_at(coords)
    cards = [ds.cardinalities[v] for v, _ in coords]
    if math.prod(cards) > np.iinfo(np.int64).max:
        raise ValueError(
            f"cannot code {len(coords)} coordinates as int64: the product of their "
            f"cardinalities {cards} exceeds 2**63 - 1"
        )
    codes, weights = np.unique(np.ravel_multi_index(tuple(values.T), cards), return_counts=True)
    patterns = np.stack(np.unravel_index(codes, cards)).T
    return PatternTable(coords, ds.cardinalities, patterns, weights)


def _count_array(table: PatternTable, coords: Tuple[Tuple[int, int], ...]) -> np.ndarray:
    """Counts over `coords`, one axis per coordinate in the order given.

    The coordinates' columns are coded by one C-order mixed-radix index per
    pattern, built by Horner's rule over the table's contiguous columns,
    and the array is the bincount of those codes weighted by the patterns'
    environment counts: float64, whose integer counts are exact, as
    `_g_stack` reads them.  The coordinates are distinct and covered by the
    table, so their codes fit int64 whenever the table's do.
    """
    columns = table.columns(coords)
    cards = [table.cardinalities[v] for v, _ in coords]
    codes = np.zeros(len(table.weights), dtype=np.int64)
    for column, k in zip(columns, cards):
        codes *= k
        codes += table.patterns[:, column]
    counts = np.bincount(codes, weights=table.weights, minlength=math.prod(cards))
    return counts.reshape(cards)


@dataclass
class _Batch:
    """The statements of one moved shape `cube`, (left size, right size,
    given size): the (members, left, right, given) index of their cells in
    the plan's F arrays raveled and concatenated, held as each member's F
    offset there plus its int32 `_pattern`, by an id into the batch's
    distinct `keys`.  Members are sorted by offset, so a window's members
    are a slice.  Their patterns are stacked in `patterns` unless larger
    than `_HELD_PATTERN_CELLS`."""

    cube: Tuple[int, int, int]
    order: np.ndarray  # the members' statement indices
    offsets: np.ndarray
    ids: np.ndarray
    keys: Tuple[Tuple[Tuple[int, ...], int, int], ...]  # `_pattern` arguments
    patterns: Optional[np.ndarray]

    def index(self, lo: int, hi: int, start: int) -> np.ndarray:
        """Members lo:hi's rows of the int32 index into the window of F's
        arrays that begins at the plan's offset `start`, built on each
        call."""
        ids = self.ids[lo:hi]
        if self.patterns is None:
            index = np.stack([_pattern(*self.keys[i]) for i in ids])
        else:
            index = np.take(self.patterns, ids, axis=0)
        index += (self.offsets[lo:hi] - start).astype(np.int32)[:, None, None, None]
        return index


class _FillGroup(NamedTuple):
    """A run of a window's F's filled at once, from the one array of
    their union U that `fill(key)` makes, laid out as `_full_axes` lays
    out U.  A sum slot is appended along each axis in `sums`, those some
    member omits, so every member's F is a slice of that extended array:
    its own axes over their values, the others at their sum slot.  `index`
    takes the members' cells, F's arrays raveled and end to end.  A one-F
    group has no sums and no index: its F's array is the fill itself."""

    key: tuple
    sums: Tuple[int, ...]
    index: Optional[np.ndarray]

    def filled(self, fill) -> np.ndarray:
        """The members' arrays, raveled end to end."""
        array = fill(self.key)
        for axis in self.sums:  # append the sum over the axis as its last slot
            array = np.concatenate((array, array.sum(axis=axis, keepdims=True)), axis)
        return array.ravel() if self.index is None else np.take(array, self.index)


@dataclass(frozen=True)
class _StatementPlan:
    """How a statement list is decided, built from the statements, the
    cardinalities and `_BLOCK_CELLS`.  `fulls` holds the key that F's filler
    reads, per distinct node set F = left | right | given in first-seen
    order (see `_full_axes`); F number f's array would start at `starts[f]`
    if all were raveled and concatenated.  `windows` cuts the F's into runs
    filled together, of at most `_BLOCK_CELLS` cells or one F, each (first
    F, the F after its last, its `_FillGroup`s in order, or None when each
    F is filled alone).  `batches` holds one `_Batch` per moved shape, and
    `order` every member's statement index, batch by batch."""

    fulls: Tuple[tuple, ...]
    starts: Tuple[int, ...]
    windows: Tuple[Tuple[int, int, Optional[Tuple[_FillGroup, ...]]], ...]
    batches: Tuple[_Batch, ...]
    order: np.ndarray


@functools.lru_cache(maxsize=4096)
def _full_axes(full: frozenset, cardinalities: Tuple[int, ...], samples: Optional[int]):
    """(F's key in `_StatementPlan.fulls`, coordinate -> bit 1 << its axis
    in F's array, that array's shape, F's node mask) for F = `full`.  With
    `samples` None, the array's axes and the key are F's coordinates sorted
    by (variable, sample).  For a model of `samples` samples per
    environment, which bound the samples too, the axes run in the joint's
    order, (sample, variable), and the key is the joint's axes outside F.
    The mask sets bit 2 (|s| d + v) + (s < 0) per node (v, s), one bit per
    node of any list, a negative sample included, which only a pattern
    table rejects.  Cached, 4096 entries."""
    coords = tuple(sorted(full))
    d = len(cardinalities)
    for v, s in coords:
        if not 0 <= v < d:
            raise ValueError(f"statement references unknown node {(v, s)}: variable {v} "
                             f"outside [0, {d})")
        if samples is not None and not 0 <= s < samples:
            raise ValueError(f"statement references unknown node {(v, s)}: sample {s} "
                             f"outside [0, {samples})")
    held = coords if samples is None else sorted(coords, key=lambda c: (c[1], c[0]))
    bits = {c: 1 << a for a, c in enumerate(held)}
    inside = {s * d + v for v, s in coords}
    key = coords if samples is None else tuple(a for a in range(samples * d) if a not in inside)
    mask = sum(1 << (2 * (abs(s) * d + v) + (s < 0)) for v, s in coords)
    return key, bits, tuple(cardinalities[v] for v, _ in held), mask


def _groups(dims: Tuple[int, ...], left: int, right: int) -> List[List[int]]:
    """The axes of an array of shape `dims` set in `left`, those set in
    `right` and the rest, each group in axis order."""
    axes = range(len(dims))
    return [[a for a in axes if bits >> a & 1] for bits in (left, right, ~(left | right))]


def _pattern(dims: Tuple[int, ...], left: int, right: int) -> np.ndarray:
    """The int32 position in a raveled array of shape `dims` of each cell,
    with the axes set in `left`, those set in `right` and the rest each
    merged to one axis, in axis order within each group: (left size, right
    size, given size)."""
    groups = _groups(dims, left, right)
    cells = np.arange(math.prod(dims), dtype=np.int32).reshape(dims)
    moved = cells.transpose([a for group in groups for a in group])
    return moved.reshape([math.prod(dims[a] for a in group) for group in groups])


@functools.lru_cache(maxsize=4096)
def _moved(dims: Tuple[int, ...], left: int, right: int):
    """(`_pattern`'s (left size, right size, given size), the pattern
    itself, read-only, or None above `_HELD_PATTERN_CELLS` cells).  Cached,
    4096 entries, so a plan costs one lookup per statement and the cache
    holds at most 16 MiB."""
    cube = tuple(math.prod(dims[a] for a in group) for group in _groups(dims, left, right))
    if math.prod(dims) > _HELD_PATTERN_CELLS:
        return cube, None
    pattern = _pattern(dims, left, right)
    pattern.flags.writeable = False
    return cube, pattern


def _statement_plan(
    stmts: Sequence[CiStatement], cardinalities: Tuple[int, ...], samples: Optional[int] = None
) -> _StatementPlan:
    """The `_StatementPlan` of `stmts`, F's arrays held as `_full_axes`
    says for `samples`.  A G or a verdict depends only on F's array with
    the left and right axes moved to the front, so that moved shape is the
    batch key, and a member's index is its `_pattern` plus F's start.  Each
    window's `_fill_groups` are built here, from cached positions, so a
    plan that is run again costs no more than its fills and gathers.
    Raises `ValueError` for an unknown node."""
    fulls, layouts, starts = {}, [], [0]  # F -> (its start, its layout)
    batches = {}  # moved shape -> ([(start, statement, key id)], {key: id}, patterns)
    for k, stmt in enumerate(stmts):
        full = stmt.left | stmt.right | stmt.given
        at = fulls.get(full)
        if at is None:
            layouts.append(_full_axes(full, cardinalities, samples))
            at = fulls[full] = (starts[-1], layouts[-1])
            starts.append(starts[-1] + math.prod(layouts[-1][2]))
        offset, (_, bits, dims, _) = at
        key = (dims, sum(map(bits.__getitem__, stmt.left)), sum(map(bits.__getitem__, stmt.right)))
        cube, pattern = _moved(*key)
        batch = batches.get(cube)
        if batch is None:
            batch = batches[cube] = ([], {}, [])
        rows, distinct, patterns = batch
        i = distinct.setdefault(key, len(distinct))
        if i == len(patterns):
            patterns.append(pattern)
        rows.append((offset, k, i))
    offsets, order, ids = np.array(
        [row for rows, _, _ in batches.values() for row in sorted(rows)], dtype=np.int64
    ).reshape(-1, 3).T.copy()
    plan, start = [], 0
    for cube, (rows, distinct, patterns) in batches.items():
        end = start + len(rows)
        plan.append(_Batch(cube, order[start:end], offsets[start:end], ids[start:end],
                           tuple(distinct), None if patterns[0] is None else np.array(patterns)))
        start = end
    for array in (order, offsets, ids):
        array.flags.writeable = False  # a cached plan is shared by every caller
    # a group's members - 1 - omitted axes is at most 0 at its second
    # member, 0 only if that F differs from the first in one node, and
    # rises later only with an F that has no node new to the list; so
    # unless some F is such an F, `_fill_groups` would leave each F alone
    grouped, seen, prior = False, 0, 0
    for _, _, _, mask in layouts:
        if not mask & ~seen or (mask ^ prior).bit_count() == 1:
            grouped = True
            break
        seen, prior = seen | mask, mask
    windows, a = [], 0
    while a < len(layouts):
        b = max(a + 1, bisect.bisect_right(starts, starts[a] + _BLOCK_CELLS) - 1)
        windows.append((a, b, _fill_groups(layouts[a:b], cardinalities, samples) if grouped
                        else None))
        a = b
    return _StatementPlan(tuple(layout[0] for layout in layouts), tuple(starts), tuple(windows),
                          tuple(plan), order)


@functools.lru_cache(maxsize=4096)
def _positions(dims: Tuple[int, ...], sums: int, inside: int) -> np.ndarray:
    """The int32 position of each cell of the sub-array over the axes set
    in `inside`, raveled in axis order, in the raveled array of shape `dims`
    extended by one sum slot on each axis set in `sums`: an axis outside
    reads its sum slot.  Read-only.  Cached, 4096 entries; callers pass a
    sub-array of more than `_HELD_PATTERN_CELLS` cells to the uncached
    `_positions.__wrapped__`, so the cache holds at most 16 MiB."""
    extended = [k + (sums >> a & 1) for a, k in enumerate(dims)]
    cells = np.arange(math.prod(extended), dtype=np.int32).reshape(extended)
    positions = cells[tuple(slice(k) if inside >> a & 1 else k for a, k in enumerate(dims))].ravel()
    positions.flags.writeable = False
    return positions


def _fill_groups(layouts, cardinalities, samples) -> Optional[Tuple[_FillGroup, ...]]:
    """One window's F's, given by their `_full_axes` layouts, split into
    `_FillGroup`s, or None if each F is alone.  From each F on, a group
    grows while its union, extended by a sum slot on each axis some member
    omits, holds at most `_BLOCK_CELLS` cells, and ends at its longest
    prefix that takes no more numpy passes than one fill per member:
    1 + (omitted axes) <= members."""
    d, masks = len(cardinalities), [layout[3] for layout in layouts]
    groups, lo = [], 0
    while lo < len(masks):
        union = common = masks[lo]
        cells, hi = math.prod(layouts[lo][2]), lo + 1
        for j in range(lo + 1, len(masks)):
            grown, lost = masks[j] & ~union, common & ~masks[j]
            union, common = union | grown, common & ~lost
            for changed, new in ((grown, True), (lost, False)):  # each takes a sum slot
                while changed:
                    k = cardinalities[((changed & -changed).bit_length() - 1 >> 1) % d]
                    cells = cells * (k + 1) // (1 if new else k)
                    changed &= changed - 1
            slack = j - lo - (union & ~common).bit_count()  # members - 1 - omitted axes
            if cells > _BLOCK_CELLS or slack + len(masks) - 1 - j < 0:
                break  # over budget, or too few F's left to make up the deficit
            if slack >= 0:
                hi = j + 1
        if hi == lo + 1:
            groups.append(_FillGroup(layouts[lo][0], (), None))
        else:
            members = [layout[1] for layout in layouts[lo:hi]]  # each F's coordinates
            key, bits, dims, _ = _full_axes(frozenset().union(*members), cardinalities, samples)
            sums = sum(bits[c] for c in bits if not all(c in full for full in members))
            index = np.concatenate([
                (_positions if math.prod(layout[2]) <= _HELD_PATTERN_CELLS
                 else _positions.__wrapped__)(dims, sums, sum(map(bits.__getitem__, layout[1])))
                for layout in layouts[lo:hi]
            ])
            index.flags.writeable = False
            groups.append(_FillGroup(key, tuple(a for a in range(len(dims)) if sums >> a & 1),
                                     index))
        lo = hi
    return tuple(groups) if len(groups) < len(layouts) else None


def _blocks(plan: _StatementPlan, fill):
    """Each batch of `plan` gathered as (members, left, right, given) from
    F's arrays, filled a window at a time: one `fill(F's key)` per F, or
    per `_FillGroup` one fill of its union, one append-a-sum step per
    summed axis and one `np.take` of the members' cells, the window's
    arrays concatenated.  Yields (the members' statement indices, block),
    window by window and batch by batch within a window, each block about
    `_BLOCK_CELLS` cells or one member."""
    starts, los = plan.starts, [0] * len(plan.batches)
    for a, b, groups in plan.windows:
        arrays = ([fill(key).ravel() for key in plan.fulls[a:b]] if groups is None
                  else [group.filled(fill) for group in groups])
        flat = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        del arrays  # the window's arrays live on only in `flat`
        for j, batch in enumerate(plan.batches):
            # the window's members are those after the last window's, before F b
            lo, hi = los[j], bisect.bisect_left(batch.offsets, starts[b])
            los[j] = hi
            step = max(1, _BLOCK_CELLS // math.prod(batch.cube))
            for i in range(lo, hi, step):
                end = min(i + step, hi)
                yield batch.order[i:end], np.take(flat, batch.index(i, end, starts[a]))


def _cubes(table: PatternTable, stmts: Sequence[CiStatement]):
    """`_blocks` of (members, n_strata, kx, ky) float cubes: each F of the
    list's plan filled by `_count_array`, each block viewed as (given,
    left, right).  Raises `ValueError` for a coordinate the table does not
    cover."""
    plan = _statement_plan(stmts, table.cardinalities)
    for members, block in _blocks(plan, functools.partial(_count_array, table)):
        yield members, block.transpose(0, 3, 1, 2)


def tabulate(table: PatternTable, stmt: CiStatement) -> ContingencyCube:
    """Accumulate one observation per environment into a stratified table:
    the one-statement case of `test_statements`' plan, each side's sorted
    coordinates merged C-order."""
    ((_, cubes),) = _cubes(table, [stmt])
    strata_cards = tuple(table.cardinalities[v] for v, _ in sorted(stmt.given))
    return ContingencyCube(cubes[0].astype(np.int64, order="C"), cubes.shape[2], cubes.shape[3],
                           strata_cards)


def _g_stack(
    counts: np.ndarray, statements: Sequence[Optional[CiStatement]], alpha: float
) -> List[CiResult]:
    """The G-test of each cube of a (m, n_strata, kx, ky) stack, one result
    per cube, in stack order.

    Marginals, expected counts and terms are computed for the whole stack
    at once.  Each used stratum's terms are summed over its flattened
    cells, and each cube's stratum sums, doubled, are then added in stratum
    order by one `np.add.accumulate` along a (cube, stratum) matrix that
    starts from a 0.0 column and holds 0.0 at unused strata.  So G equals
    that of a per-stratum loop bit for bit.  Counts are nonnegative
    integers, so every marginal is an exact float sum.
    """
    counts = np.asarray(counts, dtype=float)
    m, n_strata, kx, ky = counts.shape
    totals = counts.sum(axis=(1, 2, 3))
    if not totals.all():
        raise ValueError("contingency cube is empty")
    row = counts.sum(axis=3)  # (m, n_strata, kx)
    col = counts.sum(axis=2)  # (m, n_strata, ky)
    r = np.count_nonzero(row, axis=2)
    c = np.count_nonzero(col, axis=2)
    used = (r >= 2) & (c >= 2)  # implies a nonempty stratum
    table, row, col = counts[used], row[used], col[used]
    total = row.sum(axis=1)
    expected = row[:, :, None] * col[:, None, :] / total[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table > 0, table * np.log(table / expected), 0.0)
    folds = np.zeros((m, n_strata + 1))
    folds[:, 1:][used] = 2.0 * terms.reshape(len(table), kx * ky).sum(axis=1)
    g_stats = np.add.accumulate(folds, axis=1)[:, -1].tolist()
    dofs = np.where(used, (r - 1) * (c - 1), 0).sum(axis=1).tolist()
    return [
        CiResult(
            statement=stmt,
            statistic=g_stat,
            dof=dof,
            p_value=chi2_sf(g_stat, dof) if dof > 0 else 1.0,
            alpha=alpha,
            n_effective=int(n),
        )
        for stmt, g_stat, dof, n in zip(statements, g_stats, dofs, totals.tolist())
    ]


def g_test(
    cube: ContingencyCube,
    statement: Optional[CiStatement] = None,
    alpha: float = DEFAULT_ALPHA,
) -> CiResult:
    """Log-likelihood-ratio test of independence within each stratum.

    G = 2 sum O ln(O/E) with stratum-wise expected counts; degrees of freedom
    sum (r-1)(c-1) over nonempty strata, counting only rows/columns with a
    nonzero stratum marginal.  Strata with r < 2 or c < 2 contribute
    nothing.  dof = 0 yields p = 1.  This is the one-cube case of
    `test_statements`' G pass, so G equals a per-stratum loop's bit for bit.
    Raises `ValueError` for a level outside (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return _g_stack(cube.counts[np.newaxis], [statement], alpha)[0]


def test_statement(
    table: PatternTable, stmt: CiStatement, alpha: float = DEFAULT_ALPHA
) -> CiResult:
    """Tabulate then G-test; verdict independent iff p > alpha.  The
    one-statement case of `test_statements`."""
    return test_statements(table, [stmt], alpha)[0]


def test_statements(
    table: PatternTable, stmts: Sequence[CiStatement], alpha: float = DEFAULT_ALPHA
) -> List[CiResult]:
    """G-test every statement of a list on `table`: one result each, in
    input order, equal bit for bit to testing them one at a time.  The
    list's cubes come from one `_StatementPlan` by `_cubes`, and each block
    of same-shape cubes goes through `_g_stack` together.  Raises
    `ValueError` for a level outside (0, 1), even on an empty list, and
    for a coordinate the table does not cover."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    results: List[Optional[CiResult]] = [None] * len(stmts)
    for members, cubes in _cubes(table, stmts):
        members = members.tolist()
        for k, res in zip(members, _g_stack(cubes, [stmts[k] for k in members], alpha)):
            results[k] = res
        del cubes  # so that the next block is gathered without this one
    return results


# ---------------------------------------------------------------------------
# Chi-squared upper tail via the regularized incomplete gamma function.

_GAMMA_MAX_ITER = 10_000
_GAMMA_EPS = 1e-15


def _gamma_p_series(a: float, x: float) -> Optional[float]:
    """Lower regularized gamma P(a, x) by series, for x < a + 1; None if
    it has not converged in `_GAMMA_MAX_ITER` terms."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_GAMMA_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    else:
        return None
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> Optional[float]:
    """Upper regularized gamma Q(a, x) by continued fraction (Lentz), for
    x >= a + 1; None if it has not converged in `_GAMMA_MAX_ITER` terms."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    else:
        return None
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_temme(a: float, x: float) -> float:
    """Upper regularized gamma Q(a, x) by Temme's uniform asymptotic
    expansion (DLMF 8.12.3-8.12.4) to its a^-1 term: with u = x/a - 1 and
    eta^2 / 2 = u - log(1 + u), eta of u's sign,

        Q = erfc(eta sqrt(a/2)) / 2 + exp(-a eta^2 / 2) / sqrt(2 pi a) (c0(eta) + c1(eta) / a).

    The dropped terms are O(a^-2.5), below 1e-17 from a = 10**6, where
    `chi2_sf` first needs it.  Near eta = 0, where the closed forms of c0
    and c1 cancel, they are read from their Taylor series."""
    u = (x - a) / a
    if abs(u) > 0.5:
        half_eta2 = u - math.log1p(u)
    else:
        # log(1 + u) = 2 atanh(v) = 2 (v + v^3/3 + ...) with v = u / (2 + u),
        # and u - 2 v = u v, so no term cancels u's leading u^2 / 2
        v = u / (2.0 + u)
        half_eta2, term, k = u * v, 2.0 * v, 1
        while True:
            k += 2
            term *= v * v
            half_eta2 -= term / k
            if abs(term) <= 1e-17 * half_eta2:
                break
    eta = math.copysign(math.sqrt(2.0 * half_eta2), u)
    if abs(eta) < 0.1:
        c0 = ((((((1 / 25515 * eta - 139 / 777600) * eta + 1 / 2835) * eta + 1 / 864) * eta
                - 2 / 135) * eta + 1 / 12) * eta - 1 / 3)
        c1 = (((1 / 4860 * eta - 77 / 77760) * eta + 1 / 378) * eta - 1 / 288) * eta - 1 / 540
    else:
        c0 = 1.0 / u - 1.0 / eta
        c1 = 1.0 / eta**3 - 1.0 / u**3 - 1.0 / u**2 - 1.0 / (12.0 * u)
    return (0.5 * math.erfc(eta * math.sqrt(0.5 * a))
            + math.exp(-a * half_eta2) / math.sqrt(2.0 * math.pi * a) * (c0 + c1 / a))


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability of the chi-squared distribution.

    Q(dof/2, x/2) via series (x < dof + 2) or continued fraction otherwise.
    By convention dof = 0 gives p = 1, and otherwise x = inf gives p = 0;
    a NaN statistic raises `ValueError`.  Either sum needs more terms as
    dof grows; where one has not converged in `_GAMMA_MAX_ITER` terms (the
    series, at x = dof, from dof of about 3 * 10**6), Temme's uniform
    asymptotic expansion, accurate at such dof, gives Q instead.
    """
    if not x >= 0:
        raise ValueError(f"chi-squared statistic must be nonnegative, got {x!r}")
    if dof < 0:
        raise ValueError("degrees of freedom must be nonnegative")
    if dof == 0 or x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    a = 0.5 * dof
    half_x = 0.5 * x
    if half_x < a + 1.0:
        p = _gamma_p_series(a, half_x)
        if p is not None:
            return 1.0 - min(1.0, max(0.0, p))
    else:
        q = _gamma_q_contfrac(a, half_x)
        if q is not None:
            return min(1.0, max(0.0, q))
    return min(1.0, max(0.0, _gamma_q_temme(a, half_x)))
