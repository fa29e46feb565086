"""Exact computation engine for finite-mixture exchangeable processes.

A `FiniteMixtureModel` is the sampler's own `MixturePrior` read exactly:
when every node's mixing measure is an `AtomMixturePrior`, a finite list of
(weight, CPT) atoms, the joint over all (variable, sample) configurations
is an exactly computable finite sum.  The prior is checked against the
graph by the sampler's own checks.  This module supplies the ground truth
used everywhere else: exact joints, exact conditional-independence
verdicts, and whole-model checks that a generated distribution is Markov
and faithful to the unrolled mixed graph.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ci_test import CiResult, DEFAULT_ALPHA
from .graphs import CiStatement, Dag, EnumerationSizeError, _separations, ci_statements, icm_unroll
from .sampling import AtomMixturePrior, MixturePrior, _node_drawers, parent_configs

STATE_SPACE_LIMIT = 2**20
DEFAULT_CI_TOL = 1e-12
# random_generic_model redraws a node's atoms closer than this in every entry
MIN_ATOM_SEPARATION = 1e-3


@dataclass
class FiniteMixtureModel:
    """The exact n-sample model of a graph and a `MixturePrior` whose node
    priors are all `AtomMixturePrior`s: the same prior `sample_dataset`
    draws from, checked against the graph by the same `_node_drawers`.
    Models compare by graph, prior and sample count."""

    graph: Dag
    prior: MixturePrior
    samples_per_env: int
    # out of __init__, so dataclasses.replace starts the caches empty
    _joint: Optional[np.ndarray] = field(init=False, default=None, repr=False, compare=False)
    # node set F -> (shape, positions, p_F), from _full_marginal
    _full_marginals: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    # (variable, sample) -> joint axis, for every node of the unrolled graph
    _axes: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.samples_per_env < 1:
            raise ValueError("samples_per_env must be >= 1")
        for i, node_prior in enumerate(self.prior.node_priors):
            if not isinstance(node_prior, AtomMixturePrior):
                raise TypeError(f"node {i}: exact models require AtomMixturePrior, got "
                                f"{type(node_prior).__name__}")
        _node_drawers(self.graph, self.prior)
        size = math.prod(self.shape)
        if size > STATE_SPACE_LIMIT:
            raise EnumerationSizeError(
                f"unrolled state space of {size} configurations exceeds {STATE_SPACE_LIMIT}"
            )
        self._axes = {
            (v, s): self.axis_of(v, s) for s in range(self.samples_per_env) for v in range(self.d)
        }

    @property
    def d(self):
        return self.graph.d

    @property
    def cardinalities(self) -> Tuple[int, ...]:
        return self.prior.cardinalities

    # axis convention: axis index = sample * d + variable
    def axis_of(self, var: int, sample: int) -> int:
        return sample * self.d + var

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.cardinalities * self.samples_per_env


def exact_joint(model: FiniteMixtureModel) -> np.ndarray:
    """Exact joint over all (variable, sample) configurations.

    P(x) = prod_i [ sum_a w_{i,a} prod_n cpt_{i,a}(x_{i;n} | pa_{i;n}) ]:
    the sum over atom combinations factorizes per node because mechanisms
    are drawn independently.  Each node's factor is built over open index
    grids, so it spans only the axes of the node and its parents, and costs
    one full-size multiply into the joint.
    """
    if model._joint is not None:
        return model._joint
    grid = np.indices(model.shape, sparse=True)
    joint = np.ones(model.shape)
    for i in range(model.d):
        pa, _ = parent_configs(model.graph, model.cardinalities, i)
        factor = 0.0
        for w, cpt in model.prior.node_priors[i].atoms:
            prod = 1.0
            for s in range(model.samples_per_env):
                cfg = 0
                for p in pa:
                    cfg = cfg * model.cardinalities[p] + grid[model.axis_of(p, s)]
                prod = prod * cpt[grid[model.axis_of(i, s)], cfg]
            factor = factor + w * prod
        joint *= factor
    model._joint = joint
    return joint


def _full_marginal(model: FiniteMixtureModel, full: frozenset):
    """(shape of p_F, node -> bit 1 + its position among F's axes, p_F) for
    the node set F = `full`: p_F is the joint summed over every axis outside
    F, with F's axes in joint order behind a leading row axis of length 1."""
    try:
        axes = sorted(model._axes[v] for v in full)
    except KeyError as err:
        raise ValueError(f"statement references unknown node {err.args[0]}") from None
    joint = exact_joint(model)
    p_full = joint.sum(axis=tuple(a for a in range(joint.ndim) if a not in axes))[np.newaxis]
    return p_full.shape, {v: 2 << axes.index(model._axes[v]) for v in full}, p_full


@functools.cache
def _bit_axes(bits: int) -> Tuple[int, ...]:
    """The positions of the bits set in `bits`, lowest first.  Cached: the
    side positions of a batch key repeat across calls and models."""
    return tuple(a for a in range(bits.bit_length()) if bits >> a & 1)


def _ci_verdicts(model: FiniteMixtureModel, stmts: Sequence[CiStatement]) -> List[bool]:
    """The exact verdict of each statement, in input order: the one verdict
    path behind `exact_ci`, `true_ci_set`, `verify_markov_faithful` and
    `oracle_tester`.

    A verdict depends only on p_F, the marginal of the statement's full
    node set F = left | right | given, and on where its left and right nodes
    sit among F's axes.  So statements are batched by (shape of p_F, left
    positions, right positions).  A batch stacks its p_F and sums them over
    the right axes, the left axes and both, to get p(l,g), p(r,g) and p(g),
    and the rule runs once per batch."""
    memo = model._full_marginals
    batches = {}  # (shape, left bits, right bits) -> ([statement index], [p_F])
    for k, stmt in enumerate(stmts):
        full = stmt.left | stmt.right | stmt.given
        entry = memo.get(full)
        if entry is None:
            entry = memo[full] = _full_marginal(model, full)
        shape, positions, p_full = entry
        key = (shape, sum(map(positions.__getitem__, stmt.left)),
               sum(map(positions.__getitem__, stmt.right)))
        batch = batches.get(key)
        if batch is None:
            batches[key] = ([k], [p_full])
        else:
            batch[0].append(k)
            batch[1].append(p_full)
    verdicts = [False] * len(stmts)
    for (_, left, right), (members, rows) in batches.items():
        p_lrg = rows[0] if len(rows) == 1 else np.concatenate(rows)
        left_axes = _bit_axes(left)
        p_lg = np.add.reduce(p_lrg, axis=_bit_axes(right), keepdims=True)
        p_rg = np.add.reduce(p_lrg, axis=left_axes, keepdims=True)
        # |p(l,r,g) p(g) - p(l,g) p(r,g)| <= tol p(g)^2, in place, with p(g)
        # spread over every cell: ops on arrays of one shape skip broadcasting
        p_g = np.empty_like(p_lrg)
        p_g[...] = np.add.reduce(p_lg, axis=left_axes, keepdims=True)
        gap = p_lrg * p_g
        gap -= p_lg * p_rg
        np.abs(gap, out=gap)
        bound = np.square(p_g, out=p_g)
        bound *= DEFAULT_CI_TOL
        holds = np.logical_and.reduce((gap <= bound).reshape(len(rows), -1), axis=1)
        for k, independent in zip(members, holds.tolist()):
            verdicts[k] = independent
    return verdicts


def exact_ci(model: FiniteMixtureModel, stmt: CiStatement) -> bool:
    """True iff left and right are conditionally independent given `given` in
    the exact joint.  |p(l,r|g) - p(l|g) p(r|g)| <= `DEFAULT_CI_TOL` (1e-12) is
    tested multiplied through by p(g)^2, as |p(l,r,g) p(g) - p(l,g) p(r,g)| <=
    tol p(g)^2 per cell, so a cell with p(g) = 0 reads 0 <= 0 (p(g)^2 must not
    underflow, which holds for p(g) >~ 1e-154).  p(l,r,g) comes from a memo
    per model, keyed by the full node set, and the other three are its sums.
    Their float error is about 1e-16, so the tolerance leaves 10^4 of
    headroom, and a generic model's true dependence can be as small as
    6.6e-10 (two atoms of one node 0.013 apart, `TestToleranceRegression`).
    This is the batched path of `true_ci_set` and `oracle_tester` on a
    one-statement list, so every caller gets the same verdict."""
    return _ci_verdicts(model, [stmt])[0]


def true_ci_set(model: FiniteMixtureModel, max_condition_size: int) -> List[CiStatement]:
    """All `ci_statements` over the model's (variable, sample) nodes that
    hold in the exact joint, sorted.  The verdicts come from one batched
    pass, which checks all statements whose full marginals share a shape and
    whose sides sit at the same positions in it at once, with `exact_ci`'s
    rule."""
    nodes = [(i, s) for i in range(model.d) for s in range(model.samples_per_env)]
    stmts = list(ci_statements(nodes, max_condition_size))
    out = [s for s, independent in zip(stmts, _ci_verdicts(model, stmts)) if independent]
    out.sort(key=CiStatement.sort_key)
    return out


@dataclass
class MarkovFaithfulReport:
    markov_violations: List[CiStatement]
    faithfulness_violations: List[CiStatement]

    @property
    def markov_ok(self) -> bool:
        return not self.markov_violations

    @property
    def faithful(self) -> bool:
        return not self.faithfulness_violations

    def to_dict(self) -> dict:
        return {
            "markov_violations": [str(s) for s in self.markov_violations],
            "faithfulness_violations": [str(s) for s in self.faithfulness_violations],
        }


def verify_markov_faithful(
    model: FiniteMixtureModel, max_condition_size: int
) -> MarkovFaithfulReport:
    """Sweep all `ci_statements` over the unrolled graph's nodes; report
    separations that fail in the distribution (Markov violations: must never
    occur) and distributional independences the graph does not imply
    (faithfulness violations: occur only for degenerate mixtures), each list
    in enumeration order.  The separations come from one batched walk pass
    over the graph, and the exact verdicts from one batched pass with
    `exact_ci`'s rule, as in `true_ci_set`."""
    dmag = icm_unroll(model.graph, model.samples_per_env)
    stmts = list(ci_statements(dmag.nodes, max_condition_size))
    separations = _separations(dmag, stmts)
    markov, faithless = [], []
    for stmt, separated, independent in zip(stmts, separations, _ci_verdicts(model, stmts)):
        if separated and not independent:
            markov.append(stmt)
        elif independent and not separated:
            faithless.append(stmt)
    return MarkovFaithfulReport(markov, faithless)


def verify_exchangeability(model: FiniteMixtureModel, tol: float = 1e-12) -> bool:
    """Exact joint invariant under every permutation of the sample blocks."""
    joint = exact_joint(model)
    n, d = model.samples_per_env, model.d
    for perm in itertools.permutations(range(n)):
        axes = [model.axis_of(i, perm[s]) for s in range(n) for i in range(d)]
        if np.abs(joint - np.transpose(joint, axes)).max() > tol:
            return False
    return True


def random_generic_model(
    g: Dag,
    samples_per_env: int,
    rng: np.random.Generator,
    atoms_per_node: int = 2,
    cardinalities: Optional[Sequence[int]] = None,
) -> FiniteMixtureModel:
    """Random atoms drawn uniformly from the simplex per CPT column, with
    near-coincident atoms of a node redrawn (faithfulness fails only on
    measure-zero parameter coincidences)."""
    cards = tuple(cardinalities) if cardinalities is not None else (2,) * g.d
    node_priors = []
    for i in range(g.d):
        _, n_cfg = parent_configs(g, cards, i)
        k = cards[i]
        while True:
            node_atoms = [rng.dirichlet(np.ones(k), size=n_cfg).T for _ in range(atoms_per_node)]
            ok = True
            for a, b in itertools.combinations(node_atoms, 2):
                if np.abs(a - b).max() < MIN_ATOM_SEPARATION:
                    ok = False
                    break
            if ok:
                break
        w = 1.0 / atoms_per_node
        node_priors.append(AtomMixturePrior([(w, cpt) for cpt in node_atoms]))
    return FiniteMixtureModel(g, MixturePrior(node_priors), samples_per_env)


def oracle_tester(model: FiniteMixtureModel):
    """A CI-test backend that answers each list from the exact joint (p = 1
    or 0) in one batched verdict pass, for running discovery in the
    infinite-data limit."""
    return lambda stmts: [
        CiResult(statement=stmt, statistic=0.0, dof=0, p_value=1.0 if independent else 0.0,
                 alpha=DEFAULT_ALPHA, n_effective=0)
        for stmt, independent in zip(stmts, _ci_verdicts(model, stmts))
    ]
