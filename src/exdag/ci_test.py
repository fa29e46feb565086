"""Stratified G-test for conditional independence on categorical data.

Each multi-environment independence statement is evaluated with one
observation per environment: the tuple of referenced (variable, sample)
values.  Environments are the i.i.d. units; pooling within-environment
samples would break independence of the test observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
    def n_strata(self):
        return self.counts.shape[0]

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


def tabulate(ds: EnvDataset, stmt: CiStatement) -> ContingencyCube:
    """Accumulate one observation per environment into a stratified table.

    The sorted given, left and right coordinates are gathered in one
    `values_at` call and coded by one C-order mixed-radix index, so an
    environment with given code z, left code x and right code y lands in
    cell (z * kx + x) * ky + y.
    """
    given, left = sorted(stmt.given), sorted(stmt.left)
    coords = given + left + sorted(stmt.right)
    cards = [ds.cardinalities[v] for v, _ in coords]
    codes = np.ravel_multi_index(tuple(ds.values_at(coords).T), cards)
    kx = math.prod(cards[len(given) : len(given) + len(left)])
    ky = math.prod(cards[len(given) + len(left) :])
    counts = np.bincount(codes, minlength=math.prod(cards)).reshape(-1, kx, ky)
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


def test_statement(ds: EnvDataset, stmt: CiStatement, alpha: float = DEFAULT_ALPHA) -> CiResult:
    """Tabulate then G-test; verdict independent iff p > alpha."""
    return g_test(tabulate(ds, stmt), statement=stmt, alpha=alpha)


def degenerate_check(ds: EnvDataset, alpha: float = DEFAULT_ALPHA) -> List[str]:
    """Flag variables whose marginal looks identical across environments
    (which would break faithfulness of the exchangeable process) and
    variables that are outright constant.  Homogeneity is `g_test` on the
    one-stratum table of counts indexed (environment, value)."""
    warnings = []
    env_ids = np.repeat(np.arange(ds.n_envs), np.diff(ds.offsets))
    for i in range(ds.d):
        values = ds.rows[:, i]
        if (values == values[0]).all():
            warnings.append(f"variable {i} is constant across the whole dataset")
            continue
        k = ds.cardinalities[i]
        counts = np.bincount(env_ids * k + values, minlength=ds.n_envs * k)
        cube = ContingencyCube(counts.reshape(1, ds.n_envs, k), ds.n_envs, k, ())
        p = g_test(cube).p_value
        if p > alpha:
            warnings.append(
                f"variable {i}: no detectable heterogeneity across environments "
                f"(homogeneity p={p:.3g}); marginal may collapse to i.i.d."
            )
    return warnings


# ---------------------------------------------------------------------------
# Chi-squared upper tail via the regularized incomplete gamma function.

_GAMMA_MAX_ITER = 10_000
_GAMMA_EPS = 1e-15


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
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability of the chi-squared distribution.

    Q(dof/2, x/2) via series (x < dof + 2) or continued fraction otherwise.
    By convention dof = 0 gives p = 1.
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
