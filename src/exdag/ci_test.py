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
patterns, each weighted by how many environments share it.  A statement's
cube is then one weighted `np.bincount` over the patterns, with integer
counts equal to a direct count.  The codes must fit int64, so a table whose
coordinates' cardinalities multiply past 2**63 - 1 is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import CiStatement
from .sampling import EnvDataset

DEFAULT_ALPHA = 0.05


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


def tabulate(table: PatternTable, stmt: CiStatement) -> ContingencyCube:
    """Accumulate one observation per environment into a stratified table.

    The sorted given, left and right coordinates' columns are coded by one
    C-order mixed-radix index per pattern, built by Horner's rule over the
    table's contiguous columns, so a pattern with given code z, left code x
    and right code y lands in cell (z * kx + x) * ky + y.  The cube is the
    bincount of those codes weighted by the patterns' environment counts,
    cast back to integers.  The statement's coordinates are distinct and
    covered by the table, so its codes fit int64 whenever the table's do.
    """
    given, left = sorted(stmt.given), sorted(stmt.left)
    coords = given + left + sorted(stmt.right)
    columns = table.columns(coords)
    cards = [table.cardinalities[v] for v, _ in coords]
    codes = np.zeros(len(table.weights), dtype=np.int64)
    for column, k in zip(columns, cards):
        codes *= k
        codes += table.patterns[:, column]
    kx = math.prod(cards[len(given) : len(given) + len(left)])
    ky = math.prod(cards[len(given) + len(left) :])
    counts = np.bincount(codes, weights=table.weights, minlength=math.prod(cards))
    counts = counts.astype(np.int64).reshape(-1, kx, ky)
    return ContingencyCube(counts, kx, ky, strata_cards=tuple(cards[: len(given)]))


def g_test(
    cube: ContingencyCube,
    statement: Optional[CiStatement] = None,
    alpha: float = DEFAULT_ALPHA,
) -> CiResult:
    """Log-likelihood-ratio test of independence within each stratum.

    G = 2 sum O ln(O/E) with stratum-wise expected counts; degrees of freedom
    sum (r-1)(c-1) over nonempty strata, counting only rows/columns with a
    nonzero stratum marginal.  Strata with r < 2 or c < 2 contribute
    nothing.  dof = 0 yields p = 1.

    Marginals, expected counts and terms are computed for the whole cube at
    once.  Each stratum's terms are summed over its flattened cells and the
    stratum sums are then added in stratum order, so G equals that of a
    per-stratum loop bit for bit.
    """
    counts = cube.counts.astype(float)
    if counts.sum() == 0:
        raise ValueError("contingency cube is empty")
    row = counts.sum(axis=2)  # (n_strata, kx)
    col = counts.sum(axis=1)  # (n_strata, ky)
    r = np.count_nonzero(row, axis=1)
    c = np.count_nonzero(col, axis=1)
    used = (r >= 2) & (c >= 2)  # implies a nonempty stratum
    table, row, col = counts[used], row[used], col[used]
    total = row.sum(axis=1)
    expected = row[:, :, None] * col[:, None, :] / total[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table > 0, table * np.log(table / expected), 0.0)
    stratum_sums = terms.reshape(len(table), counts.shape[1] * counts.shape[2]).sum(axis=1)
    g_stat = 0.0
    for stratum_sum in stratum_sums.tolist():
        g_stat += 2.0 * stratum_sum
    dof = int(((r - 1) * (c - 1))[used].sum())
    p = chi2_sf(g_stat, dof) if dof > 0 else 1.0
    return CiResult(
        statement=statement,
        statistic=float(g_stat),
        dof=dof,
        p_value=float(p),
        alpha=alpha,
        n_effective=cube.total,
    )


def test_statement(
    table: PatternTable, stmt: CiStatement, alpha: float = DEFAULT_ALPHA
) -> CiResult:
    """Tabulate then G-test; verdict independent iff p > alpha."""
    return g_test(tabulate(table, stmt), statement=stmt, alpha=alpha)


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
