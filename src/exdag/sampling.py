"""Generative sampling of exchangeable multi-environment categorical data.

Each environment draws one conditional-probability table (CPT) per variable
from its prior, then produces conditionally i.i.d. ancestral samples through
the causal graph using those fixed CPTs.  Environments use counter-based
seeding (root seed, environment index), so environment e's data does not
depend on how many environments are drawn: environment e's generator is
exactly `np.random.default_rng((seed, e))`.  `sample_dataset` works in
blocks of environments: it makes a block's rng calls in one loop (the draw
stage), then samples each node for the whole block at once (the ancestral
stage).  The draw stage makes one rng call per run of equal mechanism
draws: consecutive nodes whose draws are the same call (equal xor-Beta
parameters, equal Dirichlet parameters or equal atom weights) share one
sized call, which makes the same draws in the same order as one call per
node, so the stream is the same.  It does not construct a generator per
environment: it computes every environment's PCG64 state in bulk, from
numpy's SeedSequence hash and PCG64 seeding algorithms, and sets it on one
reused generator.  A test pins those states against
`default_rng((seed, e))`, and every call checks environment 0's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .graphs import Dag

COLUMN_SUM_TOL = 1e-12


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


NodePrior = Union[XorBetaPrior, DirichletColumnsPrior, AtomMixturePrior]


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
    """One node's mechanism prior in the sampler's two stages.  A unit is
    one raw variate of shape `unit_shape` and type `dtype`: the xor flip
    probability psi, one Dirichlet CPT column or one atom index.  A node
    draws `units` of them per environment.  `draw(rng, size)` makes `size`
    units in one rng call, the same draws in the same order as `size`
    consecutive one-unit calls.  Mechanisms with equal `key` make the same
    call, so the draw stage makes one rng call per run of equal mechanism
    draws, with the same stream as one call per node.  `cpts(raws)` maps a
    (n_envs, units, *unit_shape) block of raw variates to the environments'
    CPTs, shape (n_envs, k, n_cfg)."""

    key: tuple
    draw: Callable[[np.random.Generator, int], np.ndarray]
    units: int
    unit_shape: Tuple[int, ...]
    dtype: type
    cpts: Callable[[np.ndarray], np.ndarray]


def _node_drawers(g: Dag, prior: MixturePrior) -> List[_Mechanism]:
    """One `_Mechanism` per node.  Shapes and parent cardinalities are
    checked here, once per (graph, prior), and each mismatch names its
    node."""
    if prior.d != g.d:
        raise ValueError(f"prior covers {prior.d} nodes, graph has {g.d}")
    cards = prior.cardinalities
    mechanisms = []
    for i, p in enumerate(prior.node_priors):
        pa, n_cfg = parent_configs(g, cards, i)
        if isinstance(p, XorBetaPrior):
            for j in pa:
                if cards[j] != 2:
                    raise ValueError(
                        f"XorBetaPrior requires binary parents: node {i} has parent {j} "
                        f"with {cards[j]} categories"
                    )
            # with binary parents the bits of a config index are the parents' values
            odd = np.array([bin(c).count("1") & 1 for c in range(n_cfg)], dtype=bool)
            def draw(rng, size, a=p.a, b=p.b):
                return rng.beta(a, b, size=size)
            def cpts(psi, odd=odd):
                p1 = np.where(odd, 1.0 - psi, psi)  # P(X=1 | config), psi is (n_envs, 1)
                return np.stack((1.0 - p1, p1), axis=1)
            key, units, unit_shape, dtype = ("xor", p.a, p.b), 1, (), float
        elif isinstance(p, DirichletColumnsPrior):
            def draw(rng, size, alpha=np.asarray(p.alpha)):
                return rng.dirichlet(alpha, size=size)  # one CPT column per row
            def cpts(columns):
                return columns.swapaxes(1, 2)
            key, units, unit_shape, dtype = ("dirichlet", p.alpha), n_cfg, (p.cardinality,), float
        elif isinstance(p, AtomMixturePrior):
            for _, cpt in p.atoms:
                if cpt.shape[1] != n_cfg:
                    raise ValueError(
                        f"node {i}: atom CPT shape {cpt.shape} has {cpt.shape[1]} columns, "
                        f"graph implies {n_cfg} parent configs"
                    )
            weights = tuple(w for w, _ in p.atoms)
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            # rng.choice(len(weights), p=weights, size=size) draws this same
            # inverse cdf of rng.random(size), after checking p on every call
            def draw(rng, size, cdf=cdf):
                return cdf.searchsorted(rng.random(size), side="right")
            def cpts(idx, atoms=np.stack([c for _, c in p.atoms])):
                return atoms[idx[:, 0]]
            key, units, unit_shape, dtype = ("atoms", weights), 1, (), np.intp
        else:
            raise TypeError(f"unknown prior type {type(p).__name__}")
        mechanisms.append(_Mechanism(key, draw, units, unit_shape, dtype, cpts))
    return mechanisms


def _run_buffers(
    mechanisms: List[_Mechanism], n_envs: int
) -> Tuple[list, List[np.ndarray]]:
    """Merge consecutive mechanisms with equal draw keys into runs.  Returns
    each run's (buffer, draw, units), whose buffer of shape (n_envs, units,
    *unit_shape) holds the members' units back to back, and each node's
    (n_envs, units, *unit_shape) raw variates as a view into its run's
    buffer."""
    runs, spans = [], []  # runs: [head mechanism, units]; spans: (run, first unit)
    for m in mechanisms:
        if not runs or runs[-1][0].key != m.key:
            runs.append([m, 0])
        spans.append((len(runs) - 1, runs[-1][1]))
        runs[-1][1] += m.units
    buffers = [np.empty((n_envs, units) + m.unit_shape, m.dtype) for m, units in runs]
    draws = [(buffer, m.draw, units) for buffer, (m, units) in zip(buffers, runs)]
    raws = [buffers[r][:, u : u + m.units] for m, (r, u) in zip(mechanisms, spans)]
    return draws, raws


def _draw_env(rng: np.random.Generator, draws, e: int) -> None:
    """Environment e's mechanism draws: one rng call per run, in node-index
    order, into row e of each run's buffer."""
    for buffer, draw, units in draws:
        buffer[e] = draw(rng, units)


def sample_env_params(
    prior: MixturePrior, g: Dag, rng_seed: Union[int, np.random.Generator]
) -> EnvParams:
    """Draw one independent CPT per node, in node-index order: the
    mechanism draws of `sample_dataset`'s draw stage, for one environment.
    Deterministic given the seed."""
    rng = _as_rng(rng_seed)
    mechanisms = _node_drawers(g, prior)
    draws, raws = _run_buffers(mechanisms, 1)
    _draw_env(rng, draws, 0)
    return EnvParams([m.cpts(raw)[0] for m, raw in zip(mechanisms, raws)])


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
    `rows` once, and rejects a value outside [0, k) for its variable's k.
    The producers in this package, whose values are in range by
    construction, hand over `rows` and `offsets` directly (`_from_rows`).
    Either way `envs` becomes a list of views into `rows`.  Datasets
    compare by identity.
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
            bad = (self.rows < 0) | (self.rows >= np.array(self.cardinalities))
            bad_vars = np.flatnonzero(bad.any(axis=0))
            if bad_vars.size:
                i = int(bad_vars[0])
                e = int(np.searchsorted(self.offsets, np.argmax(bad[:, i]), side="right")) - 1
                raise ValueError(
                    f"environment {e}: variable {i} value out of range [0, {self.cardinalities[i]})"
                )
        sizes = np.diff(self.offsets)
        self._min_samples = int(sizes.min())
        if self._min_samples < 1:
            raise ValueError(f"environment {int(np.argmin(sizes))} is empty")
        bounds = self.offsets.tolist()
        self.envs = [self.rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    @property
    def n_envs(self):
        return len(self.offsets) - 1

    @property
    def min_samples(self):
        return self._min_samples

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _seed_words(seed: int, n_envs: int) -> np.ndarray:
    """`SeedSequence((seed, e)).generate_state(4, np.uint64)` for every
    e < n_envs, shape (n_envs, 4): numpy's SeedSequence hash run as uint32
    arithmetic over the environment axis.  The entropy is the seed's
    little-endian uint32 words followed by e as one word; it is mixed into a
    4-word pool, and the output hash reads the pool cyclically."""
    n = operator.index(seed)
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    entropy = [np.full(n_envs, w, np.uint32) for w in words]
    entropy.append(np.arange(n_envs, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> 16

    # entropy shorter than the pool is padded by hashing zeros
    zeros = np.zeros(n_envs, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((n_envs, 8), np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ value >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(words: np.ndarray) -> dict:
    """The `bit_generator.state` PCG64 takes from four seed words: the
    first two are the 128-bit initial state, the last two the stream
    selector, each high word first; two LCG steps then mix them."""
    s_hi, s_lo, i_hi, i_lo = words.tolist()
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


# environments drawn and then sampled together: the draw stage's raw
# variates, and the ancestral stage's temporaries, are held for one block
_BLOCK_ENVS = 4096


def _draw_stage(
    mechanisms: List[_Mechanism], d: int, n_envs: int, n: int, rng_seed: int
) -> Iterator[Tuple[int, List[np.ndarray], np.ndarray]]:
    """The draw stage of `sample_dataset`, in blocks of `_BLOCK_ENVS`
    environments.  Checks the seed and `n_envs` when called, then returns an
    iterator that yields, block by block, the first environment's index,
    each node's (block, units, *unit_shape) raw variates and the (block, d,
    n) uniforms, whose row t feeds the t-th node in topological order.
    Each environment makes one rng call per run of equal mechanism draws
    (`_run_buffers`), into one array per run of which each node's raw
    variates are a view, then one call for all its uniforms.

    Environment e draws from a generator in exactly the state of
    `np.random.default_rng((rng_seed, e))`.  That state is not built per
    environment: `_seed_words` computes every environment's SeedSequence
    output at once, and `_pcg64_state` turns one environment's words into
    the PCG64 state, which is set on one reused generator.  Environment 0's
    generator is also built the documented way, which validates the seed as
    `default_rng` does; if its state differs from the bulk one, numpy's
    seeding has changed and a RuntimeError says so."""
    if n_envs > 2**32:
        raise ValueError(
            f"n_envs = {n_envs} exceeds 2**32: each environment index is seeded as one uint32 word"
        )
    # default_rng(seed) is Generator(PCG64(seed)); ValueError on a negative
    # seed, TypeError on a non-integer one
    bit_generator = np.random.PCG64((rng_seed, 0))
    words = _seed_words(rng_seed, n_envs)
    if bit_generator.state != _pcg64_state(words[0]):
        raise RuntimeError(
            f"bulk seeding does not reproduce default_rng((seed, 0)) under numpy {np.__version__}"
        )
    rng = np.random.default_rng(bit_generator)  # wraps it, without reseeding

    def blocks():
        for start in range(0, n_envs, _BLOCK_ENVS):
            block = words[start : start + _BLOCK_ENVS]
            draws, raws = _run_buffers(mechanisms, len(block))
            uniforms = np.empty((len(block), d, n))
            for e, env_words in enumerate(block):
                bit_generator.state = _pcg64_state(env_words)
                _draw_env(rng, draws, e)
                # each double takes one 64-bit word, so row t equals the t-th
                # of d consecutive rng.random(n) calls
                rng.random(out=uniforms[e])
            yield start, raws, uniforms

    return blocks()


def _ancestral_stage(
    g: Dag,
    cards: Sequence[int],
    mechanisms: List[_Mechanism],
    raws: List[np.ndarray],
    uniforms: np.ndarray,
    values: np.ndarray,
) -> None:
    """The ancestral stage of `sample_dataset`, for one block of
    environments: per node, its CPTs for every environment, then one
    threshold comparison over the (block, n) samples, the parents' values
    selecting the CPT column.  Writes the samples into `values`, shape
    (block, n, d)."""
    env = np.arange(uniforms.shape[0])[:, None]
    for t, i in enumerate(g.topological_order()):
        pa, _ = parent_configs(g, cards, i)
        cfg = 0  # parentless: the single column
        if pa:
            cfg = np.ravel_multi_index(tuple(values[..., p] for p in pa), [cards[p] for p in pa])
        columns = mechanisms[i].cpts(raws[i])[env, :, cfg]  # (block, n or 1, k)
        # the k-1 inner cumulative thresholds: a last cumulative entry below
        # 1.0 must not yield category k
        thresholds = np.cumsum(columns, axis=-1)[..., :-1]
        values[..., i] = (uniforms[:, t, :, None] >= thresholds).sum(axis=-1)


def sample_dataset(
    g: Dag,
    prior: MixturePrior,
    n_envs: int,
    samples_per_env: int,
    rng_seed: int,
) -> EnvDataset:
    """Sample `n_envs` environments of `samples_per_env` rows each, in two
    stages.  The draw stage loops over environments and makes only the rng
    calls: environment e, on a generator exactly in the state of
    `np.random.default_rng((rng_seed, e))`, draws each node's mechanism in
    node-index order, then the uniforms of each node in topological order.
    The data stream depends on that order.  It makes one rng call per run
    of equal mechanism draws, which gives the same stream as one call per
    node.  The generator states are computed in bulk from numpy's
    SeedSequence and PCG64 seeding algorithms (`_draw_stage`); a test and a
    check of environment 0 on every call guard that they equal
    `default_rng`'s.  The ancestral stage then samples each node for a
    block of `_BLOCK_ENVS` environments at once, straight into the
    dataset's `rows`.  Blocks bound the stages' memory; every
    environment's data is the same whatever the block size."""
    if n_envs < 1 or samples_per_env < 1:
        raise ValueError("n_envs and samples_per_env must be >= 1")
    mechanisms = _node_drawers(g, prior)
    cards = prior.cardinalities
    rows = np.empty((n_envs * samples_per_env, g.d), dtype=np.int64)
    values = rows.reshape(n_envs, samples_per_env, g.d)
    for start, raws, uniforms in _draw_stage(mechanisms, g.d, n_envs, samples_per_env, rng_seed):
        block = values[start : start + len(uniforms)]
        _ancestral_stage(g, cards, mechanisms, raws, uniforms, block)
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
    theta and psi drawn Beta(1, 3) independently per environment.  Both
    nodes take `XorBetaPrior(1, 3)`: on the parentless X it is Ber(theta)
    with theta ~ Beta(1, 3).  Independent Beta(a, b) CPT columns on a
    binary node with parents are `DirichletColumnsPrior((b, a))` in
    distribution."""
    g = Dag(2, frozenset({(0, 1)}))
    prior = MixturePrior((XorBetaPrior(1.0, 3.0), XorBetaPrior(1.0, 3.0)))
    return g, prior
