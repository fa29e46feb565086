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
list in one pass.  Each distinct coordinate set F = left | right | given
gets one count array, one weighted `np.bincount` over the patterns with
integer counts equal to a direct count, and every statement on F cuts its
cube from that array by a transpose.  Cubes of one shape are stacked and
go through G together, with G equal bit for bit to a per-stratum loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import CiStatement
from .sampling import EnvDataset

DEFAULT_ALPHA = 0.05
# `test_statements` flushes a stack of same-shape cubes through G once it
# holds this many cells, so a long list of large cubes is never all in
# memory at once
_STACK_CELLS = 1 << 14


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
        """The column of each coordinate.  Raises for a variable outside
        [0, d) and for a coordinate the table does not cover."""
        d = len(self.cardinalities)
        for v, s in coords:
            if not 0 <= v < d:
                raise ValueError(f"variable {v} outside [0, {d}) in {list(coords)}")
            if (v, s) not in self._column:
                raise ValueError(f"coordinate {(v, s)} is not covered by the pattern table")
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
    environment counts, cast back to integers.  The coordinates are distinct
    and covered by the table, so their codes fit int64 whenever the table's
    do.
    """
    columns = table.columns(coords)
    cards = [table.cardinalities[v] for v, _ in coords]
    codes = np.zeros(len(table.weights), dtype=np.int64)
    for column, k in zip(columns, cards):
        codes *= k
        codes += table.patterns[:, column]
    counts = np.bincount(codes, weights=table.weights, minlength=math.prod(cards))
    return counts.astype(np.int64).reshape(cards)


def _full_coords(stmt: CiStatement) -> Tuple[Tuple[int, int], ...]:
    """F = left | right | given, sorted: the axes of the statement's count array."""
    return tuple(sorted(stmt.left | stmt.right | stmt.given))


def _cube(counts: np.ndarray, full: Tuple[Tuple[int, int], ...], stmt: CiStatement) -> ContingencyCube:
    """The statement's cube cut from the count array of its sorted
    coordinates `full`: the axes of its sorted given, left and right
    coordinates, in that order, each group flattened C-order, so a pattern
    with given code z, left code x and right code y lands in cell
    (z * kx + x) * ky + y."""
    axis = {c: a for a, c in enumerate(full)}
    given, left, right = ([axis[c] for c in sorted(side)] for side in (stmt.given, stmt.left, stmt.right))
    kx = math.prod(counts.shape[a] for a in left)
    ky = math.prod(counts.shape[a] for a in right)
    cube = counts.transpose(given + left + right).reshape(-1, kx, ky)
    return ContingencyCube(cube, kx, ky, strata_cards=tuple(counts.shape[a] for a in given))


def tabulate(table: PatternTable, stmt: CiStatement) -> ContingencyCube:
    """Accumulate one observation per environment into a stratified table:
    the one-statement case of `test_statements`' counting."""
    full = _full_coords(stmt)
    return _cube(_count_array(table, full), full, stmt)


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
    """
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
    input order, equal bit for bit to testing them one at a time.

    Each distinct coordinate set F = left | right | given is counted once,
    by `_count_array` over sorted F, and every statement on F cuts its cube
    from that array.  Cubes of one shape are stacked and go through
    `_g_stack` together, a stack at a time of fewer than `_STACK_CELLS`
    cells plus one cube.  Raises `ValueError` for a coordinate the table
    does not cover.
    """
    results: List[Optional[CiResult]] = [None] * len(stmts)
    by_coords: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
    for k, stmt in enumerate(stmts):
        by_coords.setdefault(_full_coords(stmt), []).append(k)
    stacks: Dict[Tuple[int, ...], Tuple[List[int], List[np.ndarray]]] = {}

    def flush(shape):
        members, cubes = stacks.pop(shape)
        stack = np.array(cubes, dtype=float)
        cubes.clear()  # the float stack replaces them during the G pass
        for k, res in zip(members, _g_stack(stack, [stmts[k] for k in members], alpha)):
            results[k] = res

    for full, members in by_coords.items():
        counts = _count_array(table, full)
        for k in members:
            cube = _cube(counts, full, stmts[k]).counts
            members_of_shape, cubes = stacks.setdefault(cube.shape, ([], []))
            members_of_shape.append(k)
            cubes.append(cube)
            if len(cubes) * cube.size >= _STACK_CELLS:
                shape = cube.shape
                del cube  # so the flush frees it with the rest of the stack
                flush(shape)
    for shape in list(stacks):
        flush(shape)
    return results


# ---------------------------------------------------------------------------
# Chi-squared upper tail via the regularized incomplete gamma function.

_GAMMA_MAX_ITER = 10_000
_GAMMA_EPS = 1e-15


def _not_converged(method: str, a: float, x: float) -> ArithmeticError:
    return ArithmeticError(
        f"regularized incomplete gamma {method} did not converge in {_GAMMA_MAX_ITER} "
        f"iterations at a={a!r}, x={x!r}"
    )


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized gamma P(a, x) by series, for x < a + 1."""
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
        raise _not_converged("series", a, x)
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized gamma Q(a, x) by continued fraction (Lentz), for x >= a + 1."""
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
        raise _not_converged("continued fraction", a, x)
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability of the chi-squared distribution.

    Q(dof/2, x/2) via series (x < dof + 2) or continued fraction otherwise.
    By convention dof = 0 gives p = 1.  Either sum needs more terms as dof
    grows; one that has not converged in `_GAMMA_MAX_ITER` terms raises
    `ArithmeticError` rather than return a truncated value (the series,
    at x = dof, from dof of about 4 * 10**6).
    """
    if x < 0:
        raise ValueError("chi-squared statistic must be nonnegative")
    if dof < 0:
        raise ValueError("degrees of freedom must be nonnegative")
    if dof == 0 or x == 0.0:
        return 1.0
    a = 0.5 * dof
    half_x = 0.5 * x
    if half_x < a + 1.0:
        p = min(1.0, max(0.0, _gamma_p_series(a, half_x)))
        return 1.0 - p
    return min(1.0, max(0.0, _gamma_q_contfrac(a, half_x)))
