"""Exact computation engine for finite-mixture exchangeable processes.

A `FiniteMixtureModel` realizes the mixing measure of each causal mechanism
as a finite list of (weight, CPT) atoms, which makes the joint over all
(variable, sample) configurations an exactly computable finite sum.  This
module supplies the ground truth used everywhere else: exact joints, exact
conditional-independence verdicts, and whole-model checks that a generated
distribution is Markov and faithful to the unrolled mixed graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ci_test import CiResult, DEFAULT_ALPHA
from .graphs import CiStatement, Dag, EnumerationSizeError, ci_statements, icm_unroll, m_separated
from .sampling import AtomMixturePrior, MixturePrior, _check_cpt, parent_configs

STATE_SPACE_LIMIT = 2**20
DEFAULT_CI_TOL = 1e-9


@dataclass
class FiniteMixtureModel:
    """Per-node finite atom mixtures over CPTs, plus the sample count.

    atoms[i] is a list of (weight, cpt) pairs with cpt of shape
    (k_i, prod of parent cardinalities).
    """

    graph: Dag
    atoms: List[List[Tuple[float, np.ndarray]]]
    samples_per_env: int
    cardinalities: Tuple[int, ...]
    _joint: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        d = self.graph.d
        self.cardinalities = tuple(int(k) for k in self.cardinalities)
        if len(self.atoms) != d or len(self.cardinalities) != d:
            raise ValueError("need atoms and a cardinality for every node")
        if self.samples_per_env < 1:
            raise ValueError("samples_per_env must be >= 1")
        # float64 arrays, so that exact_joint can index them and computes in float64
        self.atoms = [
            [(w, np.asarray(cpt, dtype=float)) for w, cpt in node_atoms] for node_atoms in self.atoms
        ]
        for i in range(d):
            _, n_cfg = parent_configs(self.graph, self.cardinalities, i)
            total = 0.0
            for w, cpt in self.atoms[i]:
                if cpt.shape != (self.cardinalities[i], n_cfg):
                    raise ValueError(
                        f"node {i}: atom CPT shape {cpt.shape} != ({self.cardinalities[i]}, {n_cfg})"
                    )
                try:
                    _check_cpt(cpt)
                except ValueError as err:
                    raise ValueError(f"node {i}: {err}") from None
                if w < 0:
                    raise ValueError("atom weights must be nonnegative")
                total += w
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"node {i}: atom weights sum to {total}, expected 1")
        size = 1
        for k in self.cardinalities:
            size *= k**self.samples_per_env
        if size > STATE_SPACE_LIMIT:
            raise EnumerationSizeError(
                f"unrolled state space of {size} configurations exceeds {STATE_SPACE_LIMIT}"
            )

    @property
    def d(self):
        return self.graph.d

    # axis convention: axis index = sample * d + variable
    def axis_of(self, var: int, sample: int) -> int:
        return sample * self.d + var

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(
            self.cardinalities[i] for _ in range(self.samples_per_env) for i in range(self.d)
        )

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.to_dict(),
            "samples_per_env": self.samples_per_env,
            "cardinalities": list(self.cardinalities),
            "atoms": [
                [{"weight": w, "cpt": np.asarray(c).tolist()} for w, c in node_atoms]
                for node_atoms in self.atoms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMixtureModel":
        return cls(
            graph=Dag.from_dict(data["graph"]),
            atoms=[
                [(float(a["weight"]), np.array(a["cpt"], dtype=float)) for a in node_atoms]
                for node_atoms in data["atoms"]
            ],
            samples_per_env=int(data["samples_per_env"]),
            cardinalities=tuple(data["cardinalities"]),
        )


def model_from_atom_prior(g: Dag, prior: MixturePrior, samples_per_env: int) -> FiniteMixtureModel:
    """Interpret a prior made entirely of explicit atom mixtures as an exact model."""
    atoms = []
    for i, node_prior in enumerate(prior.node_priors):
        if not isinstance(node_prior, AtomMixturePrior):
            raise TypeError(f"node {i}: exact models require AtomMixturePrior, got "
                            f"{type(node_prior).__name__}")
        atoms.append([(w, cpt.copy()) for w, cpt in node_prior.atoms])
    return FiniteMixtureModel(
        graph=g, atoms=atoms, samples_per_env=samples_per_env,
        cardinalities=prior.cardinalities,
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
        for w, cpt in model.atoms[i]:
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


def exact_ci(model: FiniteMixtureModel, stmt: CiStatement, tol: float = DEFAULT_CI_TOL) -> bool:
    """True iff left and right are conditionally independent given `given`
    in the exact joint, up to `tol` on conditional probabilities."""
    groups = [sorted(stmt.left), sorted(stmt.right), sorted(stmt.given)]
    for v, s in itertools.chain(*groups):
        if not (0 <= v < model.d and 0 <= s < model.samples_per_env):
            raise ValueError(f"statement references unknown node ({v}, {s})")
    joint = exact_joint(model)
    axes = [model.axis_of(v, s) for group in groups for v, s in group]
    kept = sorted(axes)
    # marginal over the statement's nodes, axes in (left, right, given) order
    p = joint.sum(axis=tuple(a for a in range(joint.ndim) if a not in axes))
    sizes = [math.prod(model.cardinalities[v] for v, _ in group) for group in groups]
    p = p.transpose([kept.index(a) for a in axes]).reshape(sizes)
    p_g = p.sum(axis=(0, 1))
    mask = p_g > 0
    if not np.any(mask):
        return True
    p = p[:, :, mask] / p_g[mask]
    p_l = p.sum(axis=1)
    p_r = p.sum(axis=0)
    diff = np.abs(p - p_l[:, None, :] * p_r[None, :, :])
    return bool(diff.max() <= tol)


def true_ci_set(
    model: FiniteMixtureModel, max_condition_size: int, tol: float = DEFAULT_CI_TOL
) -> List[CiStatement]:
    """All `ci_statements` over the model's (variable, sample) nodes that
    hold in the exact joint, sorted."""
    nodes = [(i, s) for i in range(model.d) for s in range(model.samples_per_env)]
    out = [s for s in ci_statements(nodes, max_condition_size) if exact_ci(model, s, tol)]
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
    model: FiniteMixtureModel, max_condition_size: int, tol: float = DEFAULT_CI_TOL
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
        independent = exact_ci(model, stmt, tol)
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
    min_separation: float = 1e-3,
    cardinalities: Optional[Sequence[int]] = None,
) -> FiniteMixtureModel:
    """Random atoms drawn uniformly from the simplex per CPT column, with
    near-coincident atoms of a node redrawn (faithfulness fails only on
    measure-zero parameter coincidences)."""
    cards = tuple(cardinalities) if cardinalities is not None else (2,) * g.d
    atoms = []
    for i in range(g.d):
        _, n_cfg = parent_configs(g, cards, i)
        k = cards[i]
        while True:
            node_atoms = [rng.dirichlet(np.ones(k), size=n_cfg).T for _ in range(atoms_per_node)]
            ok = True
            for a, b in itertools.combinations(node_atoms, 2):
                if np.abs(a - b).max() < min_separation:
                    ok = False
                    break
            if ok:
                break
        w = 1.0 / atoms_per_node
        atoms.append([(w, cpt) for cpt in node_atoms])
    return FiniteMixtureModel(
        graph=g, atoms=atoms, samples_per_env=samples_per_env, cardinalities=cards
    )


def oracle_tester(model: FiniteMixtureModel, tol: float = DEFAULT_CI_TOL):
    """A CI-test backend that answers from the exact joint (p = 1 or 0),
    for running discovery in the infinite-data limit."""

    def tester(stmt: CiStatement) -> CiResult:
        independent = exact_ci(model, stmt, tol)
        return CiResult(
            statement=stmt,
            statistic=0.0,
            dof=0,
            p_value=1.0 if independent else 0.0,
            alpha=DEFAULT_ALPHA,
            n_effective=0,
        )

    return tester
