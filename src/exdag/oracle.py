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

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ci_test import CiResult, DEFAULT_ALPHA
from .graphs import CiStatement, Dag, EnumerationSizeError, ci_statements, icm_unroll, m_separated
from .sampling import AtomMixturePrior, MixturePrior, _node_drawers, parent_configs

STATE_SPACE_LIMIT = 2**20
DEFAULT_CI_TOL = 1e-9
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
    # out of __init__, so dataclasses.replace starts both caches empty
    _joint: Optional[np.ndarray] = field(init=False, default=None, repr=False, compare=False)
    _marginals: dict = field(init=False, default_factory=dict, repr=False, compare=False)

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

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.to_dict(),
            "samples_per_env": self.samples_per_env,
            "atoms": [
                [{"weight": w, "cpt": c.tolist()} for w, c in node_prior.atoms]
                for node_prior in self.prior.node_priors
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMixtureModel":
        node_priors = []
        for i, node_atoms in enumerate(data["atoms"]):
            try:
                node_priors.append(AtomMixturePrior([(a["weight"], a["cpt"]) for a in node_atoms]))
            except ValueError as err:
                raise ValueError(f"node {i}: {err}") from None
        return cls(
            graph=Dag.from_dict(data["graph"]),
            prior=MixturePrior(node_priors),
            samples_per_env=int(data["samples_per_env"]),
        )


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


def exact_ci(model: FiniteMixtureModel, stmt: CiStatement) -> bool:
    """True iff left and right are conditionally independent given `given` in
    the exact joint.  |p(l,r|g) - p(l|g) p(r|g)| <= `DEFAULT_CI_TOL` is tested
    multiplied through by p(g)^2, as |p(l,r,g) p(g) - p(l,g) p(r,g)| <= tol p(g)^2
    per cell, so a cell with p(g) = 0 reads 0 <= 0 (p(g)^2 must not underflow,
    which holds for p(g) >~ 1e-154).  Marginals come from a memo per model."""
    d, n = model.d, model.samples_per_env
    for v, s in itertools.chain(stmt.left, stmt.right, stmt.given):
        if not (0 <= v < d and 0 <= s < n):
            raise ValueError(f"statement references unknown node ({v}, {s})")
    left, right, given = (
        frozenset(model.axis_of(v, s) for v, s in side)
        for side in (stmt.left, stmt.right, stmt.given)
    )
    keys = (left | right | given, left | given, right | given, given)
    for axes in keys:
        if axes not in model._marginals:
            joint = exact_joint(model)
            dropped = tuple(a for a in range(joint.ndim) if a not in axes)
            model._marginals[axes] = joint.sum(axis=dropped, keepdims=True)
    p_lrg, p_lg, p_rg, p_g = (model._marginals[axes] for axes in keys)
    return bool((np.abs(p_lrg * p_g - p_lg * p_rg) <= DEFAULT_CI_TOL * p_g**2).all())


def true_ci_set(model: FiniteMixtureModel, max_condition_size: int) -> List[CiStatement]:
    """All `ci_statements` over the model's (variable, sample) nodes that
    hold in the exact joint, sorted."""
    nodes = [(i, s) for i in range(model.d) for s in range(model.samples_per_env)]
    out = [s for s in ci_statements(nodes, max_condition_size) if exact_ci(model, s)]
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
    in enumeration order."""
    dmag = icm_unroll(model.graph, model.samples_per_env)
    markov, faithless = [], []
    for stmt in ci_statements(dmag.nodes, max_condition_size):
        separated = m_separated(dmag, stmt)
        independent = exact_ci(model, stmt)
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
    """A CI-test backend that answers from the exact joint (p = 1 or 0),
    for running discovery in the infinite-data limit."""

    def tester(stmt: CiStatement) -> CiResult:
        independent = exact_ci(model, stmt)
        return CiResult(
            statement=stmt,
            statistic=0.0,
            dof=0,
            p_value=1.0 if independent else 0.0,
            alpha=DEFAULT_ALPHA,
            n_effective=0,
        )

    return tester
