"""Generative sampling of exchangeable multi-environment categorical data.

Each environment draws one conditional-probability table (CPT) per variable
from its prior, then produces conditionally i.i.d. ancestral samples through
the causal graph using those fixed CPTs.  Environments use counter-based
seeding (root seed, environment index), so environment e's data does not
depend on how many environments are drawn.  `sample_dataset` makes every
environment's rng calls in one loop (the draw stage), then samples each node
for all environments at once (the ancestral stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .graphs import Dag

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class BetaColumnsPrior:
    """Binary node whose P(X=1 | parent config) is an independent Beta draw
    per parent configuration."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("Beta parameters must be strictly positive")

    cardinality = 2


@dataclass(frozen=True)
class XorBetaPrior:
    """Binary node equal to an independent Ber(psi) flip xor the parity of
    its binary parents, psi ~ Beta(a, b).  As a CPT this ties all columns:
    P(X=1 | pa) = psi when the parents' parity is even, 1 - psi when odd.
    With no parents it reduces to X ~ Ber(psi)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("Beta parameters must be strictly positive")

    cardinality = 2


@dataclass(frozen=True)
class DirichletColumnsPrior:
    """Categorical node whose CPT columns are independent Dirichlet draws."""

    alpha: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) < 2:
            raise ValueError("Dirichlet prior needs at least two categories")
        if any(a <= 0 for a in self.alpha):
            raise ValueError("Dirichlet parameters must be strictly positive")

    @property
    def cardinality(self):
        return len(self.alpha)


class AtomMixturePrior:
    """Explicit finite mixture of CPT atoms: (weight, cpt) pairs."""

    def __init__(self, atoms: Sequence[Tuple[float, np.ndarray]]):
        if not atoms:
            raise ValueError("atom mixture needs at least one atom")
        self.atoms = [(float(w), np.asarray(cpt, dtype=float)) for w, cpt in atoms]
        total = sum(w for w, _ in self.atoms)
        if any(w < 0 for w, _ in self.atoms) or abs(total - 1.0) > COLUMN_SUM_TOL:
            raise ValueError(f"atom weights sum to {total}; they must be nonnegative and sum to 1")
        k = self.atoms[0][1].shape[0]
        for _, cpt in self.atoms:
            if cpt.ndim != 2 or cpt.shape[0] != k:
                raise ValueError("all atoms must share CPT shape (k, n_parent_configs)")
            _check_cpt(cpt)

    @property
    def cardinality(self):
        return self.atoms[0][1].shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, AtomMixturePrior)
            and len(self.atoms) == len(other.atoms)
            and all(
                w1 == w2 and np.array_equal(c1, c2)
                for (w1, c1), (w2, c2) in zip(self.atoms, other.atoms)
            )
        )

    def __repr__(self):
        return f"AtomMixturePrior({len(self.atoms)} atoms, k={self.cardinality})"


NodePrior = Union[BetaColumnsPrior, XorBetaPrior, DirichletColumnsPrior, AtomMixturePrior]


@dataclass(frozen=True)
class MixturePrior:
    """Per-node priors over CPTs (the discrete analogue of the de Finetti
    mixing measures, one per causal mechanism)."""

    node_priors: Tuple[NodePrior, ...]

    def __post_init__(self):
        object.__setattr__(self, "node_priors", tuple(self.node_priors))

    @property
    def d(self):
        return len(self.node_priors)

    @property
    def cardinalities(self) -> Tuple[int, ...]:
        return tuple(p.cardinality for p in self.node_priors)

    def describe(self) -> List[str]:
        return [repr(p) for p in self.node_priors]


def _check_cpt(cpt: np.ndarray):
    if np.any(cpt < -COLUMN_SUM_TOL) or np.any(cpt > 1 + COLUMN_SUM_TOL):
        raise ValueError("CPT entries must lie in [0, 1]")
    sums = cpt.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("every CPT column must sum to 1")


@dataclass
class EnvParams:
    """One environment's realized CPTs, cpts[i] has shape (k_i, prod_{j in PA_i} k_j)."""

    cpts: List[np.ndarray]

    def __post_init__(self):
        for cpt in self.cpts:
            _check_cpt(np.asarray(cpt))


def parent_configs(g: Dag, cardinalities: Sequence[int], i: int) -> Tuple[Tuple[int, ...], int]:
    """Sorted parent list of node i and the number of joint parent configurations."""
    pa = tuple(sorted(g.parents(i)))
    n_cfg = 1
    for p in pa:
        n_cfg *= cardinalities[p]
    return pa, n_cfg


class _Mechanism(NamedTuple):
    """One node's mechanism prior in the sampler's two stages.  `draw(rng)`
    makes the node's rng calls for one environment and returns its raw
    variate, of shape `shape` and type `dtype`; `cpts(raws)` maps a stacked
    (n_envs, *shape) block of raw variates to the environments' CPTs, shape
    (n_envs, k, n_cfg)."""

    draw: Callable[[np.random.Generator], object]
    shape: Tuple[int, ...]
    dtype: type
    cpts: Callable[[np.ndarray], np.ndarray]


def _binary_cpts(rows: np.ndarray) -> np.ndarray:
    """(n_envs, n_cfg) rows P(X=1 | parent config) -> (n_envs, 2, n_cfg) CPTs."""
    return np.stack((1.0 - rows, rows), axis=1)


def _node_drawers(g: Dag, prior: MixturePrior) -> List[_Mechanism]:
    """One `_Mechanism` per node.  The raw variate is a Beta row per parent
    config, the xor flip probability psi, a Dirichlet draw (n_cfg, k) or an
    atom index.  Shapes and parent cardinalities are checked here, once per
    (graph, prior), and each mismatch names its node."""
    if prior.d != g.d:
        raise ValueError(f"prior covers {prior.d} nodes, graph has {g.d}")
    cards = prior.cardinalities
    mechanisms = []
    for i, p in enumerate(prior.node_priors):
        pa, n_cfg = parent_configs(g, cards, i)
        if isinstance(p, BetaColumnsPrior):
            def draw(rng, a=p.a, b=p.b, n=n_cfg):
                return rng.beta(a, b, size=n)
            shape, dtype, cpts = (n_cfg,), float, _binary_cpts
        elif isinstance(p, XorBetaPrior):
            for j in pa:
                if cards[j] != 2:
                    raise ValueError(
                        f"XorBetaPrior requires binary parents: node {i} has parent {j} "
                        f"with {cards[j]} categories"
                    )
            # with binary parents the bits of a config index are the parents' values
            odd = np.array([bin(c).count("1") & 1 for c in range(n_cfg)], dtype=bool)
            def draw(rng, a=p.a, b=p.b):
                return rng.beta(a, b)
            def cpts(psi, odd=odd):
                return _binary_cpts(np.where(odd, 1.0 - psi[:, None], psi[:, None]))
            shape, dtype = (), float
        elif isinstance(p, DirichletColumnsPrior):
            def draw(rng, alpha=np.asarray(p.alpha), n=n_cfg):
                return rng.dirichlet(alpha, size=n)  # one CPT column per row
            def cpts(columns):
                return columns.swapaxes(1, 2)
            shape, dtype = (n_cfg, p.cardinality), float
        elif isinstance(p, AtomMixturePrior):
            for _, cpt in p.atoms:
                if cpt.shape[1] != n_cfg:
                    raise ValueError(
                        f"node {i}: atom CPT shape {cpt.shape} has {cpt.shape[1]} columns, "
                        f"graph implies {n_cfg} parent configs"
                    )
            def draw(rng, w=np.array([w for w, _ in p.atoms])):
                return rng.choice(len(w), p=w)
            def cpts(idx, atoms=np.stack([c for _, c in p.atoms])):
                return atoms[idx]
            shape, dtype = (), np.intp
        else:
            raise TypeError(f"unknown prior type {type(p).__name__}")
        mechanisms.append(_Mechanism(draw, shape, dtype, cpts))
    return mechanisms


def sample_env_params(
    prior: MixturePrior, g: Dag, rng_seed: Union[int, np.random.Generator]
) -> EnvParams:
    """Draw one independent CPT per node, in node-index order: the
    mechanism draws of `sample_dataset`'s draw stage, for one environment.
    Deterministic given the seed."""
    rng = _as_rng(rng_seed)
    return EnvParams(
        [m.cpts(np.array([m.draw(rng)], dtype=m.dtype))[0] for m in _node_drawers(g, prior)]
    )


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(eq=False)
class EnvDataset:
    """Categorical observations indexed (environment, sample, variable).

    One storage layout serves ragged and uniform data alike: `rows` holds
    every environment's samples back to back, shape (total, d), and
    environment e owns rows `offsets[e]:offsets[e + 1]`.  The constructor
    takes per-environment arrays, checks their shapes and copies them into
    `rows` once; the producers in this package hand over `rows` and `offsets`
    directly (`_from_rows`).  Either way the same checks then run on the
    layout, and `envs` becomes a list of views into `rows`; `stacked()` is a
    reshape view when the data is uniform.  Datasets compare by identity.
    """

    d: int
    cardinalities: Tuple[int, ...]
    envs: List[np.ndarray] = field(repr=False)  # each (N_e, d); views into `rows` after init
    true_graph: Optional[Dag] = None
    seed: Optional[int] = None
    prior_description: Optional[List[str]] = None
    rows: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    @classmethod
    def _from_rows(cls, d, cardinalities, rows, offsets, **meta) -> "EnvDataset":
        """Dataset over an existing (total, d) `rows` array and its
        (n_envs + 1) `offsets`, which must start at 0 and end at `total`."""
        ds = cls.__new__(cls)
        ds.rows, ds.offsets = rows, offsets
        ds.__init__(d, cardinalities, None, **meta)  # envs=None: layout given
        return ds

    def __post_init__(self):
        self.cardinalities = tuple(int(k) for k in self.cardinalities)
        if len(self.cardinalities) != self.d:
            raise ValueError("need one cardinality per variable")
        if self.envs is not None:
            arrays = [np.asarray(rows) for rows in self.envs]
            if not arrays:
                raise ValueError("dataset has no environments")
            for e, rows in enumerate(arrays):
                if rows.ndim != 2 or rows.shape[1] != self.d:
                    raise ValueError(f"environment {e}: rows must have shape (N_e, {self.d})")
            self.offsets = np.concatenate(([0], np.cumsum([rows.shape[0] for rows in arrays])))
            self.rows = np.concatenate(arrays)
        sizes = np.diff(self.offsets)
        self._min_samples = int(sizes.min())
        if self._min_samples < 1:
            raise ValueError(f"environment {int(np.argmin(sizes))} is empty")
        bad = (self.rows < 0) | (self.rows >= np.array(self.cardinalities))
        bad_vars = np.flatnonzero(bad.any(axis=0))
        if bad_vars.size:
            i = int(bad_vars[0])
            e = int(np.searchsorted(self.offsets, np.argmax(bad[:, i]), side="right")) - 1
            raise ValueError(
                f"environment {e}: variable {i} value out of range [0, {self.cardinalities[i]})"
            )
        bounds = self.offsets.tolist()
        self.envs = [self.rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    @property
    def n_envs(self):
        return len(self.offsets) - 1

    @property
    def min_samples(self):
        return self._min_samples

    def stacked(self) -> Optional[np.ndarray]:
        """(n_envs, N, d) view of `rows` when all environments share a sample
        count, else None."""
        n = self.min_samples
        if self.rows.shape[0] != self.n_envs * n:
            return None
        return self.rows.reshape(self.n_envs, n, self.d)

    def values_at(self, coords: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Per-environment observation of the given (variable, sample) coordinates.

        Returns an array of shape (n_envs, len(coords)), gathered by one
        fancy index into `rows`.  Raises if any environment has fewer samples
        than a referenced sample index, or if a sample index is negative.
        """
        variables = [v for v, _ in coords]
        samples = [s for _, s in coords]
        max_sample = max(samples, default=0)
        if self.min_samples <= max_sample:
            raise ValueError(
                f"statement references sample index {max_sample} but some environment "
                f"has only {self.min_samples} samples"
            )
        if min(samples, default=0) < 0:
            raise ValueError(f"negative sample index in {list(coords)}")
        return self.rows[self.offsets[:-1, None] + samples, variables]


def _draw_stage(
    mechanisms: List[_Mechanism], d: int, n_envs: int, n: int, rng_seed: int
) -> Tuple[List[np.ndarray], np.ndarray]:
    """The draw stage of `sample_dataset`.  Returns each node's
    (n_envs, *shape) raw variates and the (n_envs, d, n) uniforms, whose row
    t feeds the t-th node in topological order."""
    raws = [np.empty((n_envs,) + m.shape, dtype=m.dtype) for m in mechanisms]
    uniforms = np.empty((n_envs, d, n))
    for e in range(n_envs):
        rng = np.random.default_rng((rng_seed, e))
        for raw, m in zip(raws, mechanisms):
            raw[e] = m.draw(rng)
        # each double takes one 64-bit word, so row t equals the t-th of d
        # consecutive rng.random(n) calls
        uniforms[e] = rng.random((d, n))
    return raws, uniforms


def _ancestral_stage(
    g: Dag,
    cards: Sequence[int],
    mechanisms: List[_Mechanism],
    raws: List[np.ndarray],
    uniforms: np.ndarray,
) -> np.ndarray:
    """The ancestral stage of `sample_dataset`: per node, its CPTs for every
    environment, then one threshold comparison over the (n_envs, n) block,
    the parents' values selecting the CPT column.  Returns the
    (n_envs * n, d) `rows`, environment by environment."""
    n_envs, d, n = uniforms.shape
    rows = np.empty((n_envs * n, d), dtype=np.int64)
    values = rows.reshape(n_envs, n, d)
    env = np.arange(n_envs)[:, None]
    for t, i in enumerate(g.topological_order()):
        pa, _ = parent_configs(g, cards, i)
        cfg = 0  # parentless: the single column
        if pa:
            cfg = np.ravel_multi_index(tuple(values[..., p] for p in pa), [cards[p] for p in pa])
        columns = mechanisms[i].cpts(raws[i])[env, :, cfg]  # (n_envs, n or 1, k)
        # the k-1 inner cumulative thresholds: a last cumulative entry below
        # 1.0 must not yield category k
        thresholds = np.cumsum(columns, axis=-1)[..., :-1]
        values[..., i] = (uniforms[:, t, :, None] >= thresholds).sum(axis=-1)
    return rows


def sample_dataset(
    g: Dag,
    prior: MixturePrior,
    n_envs: int,
    samples_per_env: int,
    rng_seed: int,
) -> EnvDataset:
    """Sample `n_envs` environments of `samples_per_env` rows each, in two
    stages.  The draw stage loops over environments and makes only the rng
    calls: environment e, on the generator seeded (rng_seed, e), draws each
    node's mechanism in node-index order, then the uniforms of each node in
    topological order.  The data stream depends on that order.  The
    ancestral stage then samples each node for all environments at once.
    Samples are written straight into the dataset's `rows`; the draw
    stage's arrays are freed before the dataset is built."""
    if n_envs < 1 or samples_per_env < 1:
        raise ValueError("n_envs and samples_per_env must be >= 1")
    mechanisms = _node_drawers(g, prior)
    cards = prior.cardinalities
    rows = _ancestral_stage(
        g, cards, mechanisms, *_draw_stage(mechanisms, g.d, n_envs, samples_per_env, rng_seed)
    )
    return EnvDataset._from_rows(
        g.d,
        cards,
        rows,
        np.arange(0, rows.shape[0] + 1, samples_per_env),
        true_graph=g,
        seed=rng_seed,
        prior_description=prior.describe(),
    )


def bivariate_xor_model() -> Tuple[Dag, MixturePrior]:
    """The bivariate benchmark: X -> Y with X ~ Ber(theta), Y = Ber(psi) xor X,
    theta and psi drawn Beta(1, 3) independently per environment."""
    g = Dag(2, frozenset({(0, 1)}))
    prior = MixturePrior((BetaColumnsPrior(1.0, 3.0), XorBetaPrior(1.0, 3.0)))
    return g, prior
