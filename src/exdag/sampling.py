"""Generative sampling of exchangeable multi-environment categorical data.

Each environment draws one conditional-probability table (CPT) per variable
from its prior, then produces conditionally i.i.d. ancestral samples through
the causal graph using those fixed CPTs.  Environment e's generator is
exactly `np.random.default_rng((seed, e))`, so its data does not depend on
how many environments are drawn.  `sample_dataset` works in blocks of
environments: it makes a block's rng calls in one loop, one rng call per run
of equal mechanism draws (consecutive nodes whose draws are the same call
share one sized call, with the same stream as one call per node), then
samples each node for the whole block at once.  A Dirichlet node with
symmetric alpha >= 0.1 draws its CPT columns as standard Gamma variates,
which is how numpy's own `Generator.dirichlet` draws them, so nodes with
equal alpha and any number of categories share one `standard_gamma` call
and the stream is unchanged.  Each node's draws become its CPTs' inner
cumulative thresholds once per block, and each sample picks the column of
its parents' config index, so no column is summed again per sample.

Because environment e's data depends on e alone, `sample_dataset` also
splits the environments into contiguous spans, one per usable CPU, and
samples spans 1, 2, ... in `os.fork()` children that write into one shared
anonymous mmap; the rows are byte for byte those of a single span.  Every
span holds at least two full blocks (`n_envs // _SPAN_ENVS` bounds the
span count), because a fork and the copy-on-write faults after it cost
more than sampling a few thousand environments saves: on a 2-core host
two spans of 5,000 environments were not reliably faster than one of
10,000.  The
caller reaps every child before it returns or raises, also when an
exception such as KeyboardInterrupt arrives while it waits.  Where `os.sched_getaffinity` or
`os.fork` is missing (macOS, Windows) the sampler runs one span.  On
Python >= 3.12 `os.fork` emits a DeprecationWarning when the process has
other threads; numpy's OpenBLAS helper thread counts unless
OPENBLAS_NUM_THREADS=1.  A child calls no BLAS routine and takes no lock
that another thread could hold, so the warning is left as it is.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import traceback
from collections import abc
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

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
        for name in ("a", "b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"Beta parameter {name} must be finite and strictly positive, got {value}"
                )

    cardinality = 2


# psi ~ Beta(1, 3): every node's prior in the bivariate benchmark and the
# multivariate experiments
EXPERIMENT_PRIOR = XorBetaPrior(1.0, 3.0)


@dataclass(frozen=True)
class DirichletColumnsPrior:
    """Categorical node whose CPT columns are independent Dirichlet draws."""

    alpha: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) < 2:
            raise ValueError("Dirichlet prior needs at least two categories")
        for j, a in enumerate(self.alpha):
            if not (math.isfinite(a) and a > 0):
                raise ValueError(
                    f"Dirichlet parameter alpha[{j}] must be finite and strictly positive, got {a}"
                )

    @property
    def cardinality(self):
        return len(self.alpha)


class AtomMixturePrior:
    """Explicit finite mixture of CPT atoms: (weight, cpt) pairs."""

    def __init__(self, atoms: Sequence[Tuple[float, np.ndarray]]):
        if not atoms:
            raise ValueError("atom mixture needs at least one atom")
        self.atoms = [(float(w), np.asarray(cpt, dtype=float)) for w, cpt in atoms]
        for j, (w, cpt) in enumerate(self.atoms):
            if not math.isfinite(w):
                raise ValueError(f"atom {j} weight must be finite, got {w}")
            if not np.isfinite(cpt).all():
                raise ValueError(f"atom {j} CPT entries must be finite")
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
    # read on every exact-model shape lookup, so built once here
    cardinalities: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "node_priors", tuple(self.node_priors))
        object.__setattr__(self, "cardinalities", tuple(p.cardinality for p in self.node_priors))

    @property
    def d(self):
        return len(self.node_priors)

    def describe(self) -> List[str]:
        return [repr(p) for p in self.node_priors]


def _check_cpt(cpt: np.ndarray):
    if np.any(cpt < -COLUMN_SUM_TOL) or np.any(cpt > 1 + COLUMN_SUM_TOL):
        raise ValueError("CPT entries must lie in [0, 1]")
    sums = cpt.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("every CPT column must sum to 1")


def parent_configs(g: Dag, cardinalities: Sequence[int], i: int) -> Tuple[Tuple[int, ...], int]:
    """Sorted parent list of node i and the number of joint parent configurations."""
    pa = tuple(sorted(g.parents(i)))
    n_cfg = 1
    for p in pa:
        n_cfg *= cardinalities[p]
    return pa, n_cfg


class _Mechanism(NamedTuple):
    """One node's mechanism prior, as `sample_dataset` draws it.  A unit is
    one raw variate of shape `unit_shape` and type `dtype`: the xor flip
    probability psi, one Dirichlet CPT column, one atom index, or one Gamma
    variate of a symmetric Dirichlet column with alpha >= 0.1 (such a node
    draws n_cfg * k of them).  A node draws `units` of them per
    environment.  `draw(rng, size)` makes `size` units in one rng call, the
    same draws in the same order as `size` consecutive one-unit calls.
    Mechanisms with equal `key` make the same call, so the sampler makes
    one rng call per run of equal mechanism draws, with the same stream as
    one call per node.  `thresholds(raws)` maps a (block, units,
    *unit_shape) block of raw variates to the environments' inner
    cumulative thresholds, shape (block, k - 1, n_cfg): entry j of a
    column is the sum of its first j + 1 probabilities, added in
    `np.cumsum`'s order.  The last cumulative entry is left out, so a
    column that sums to just below 1 still yields category k - 1 and never
    k."""

    key: tuple
    draw: Callable[[np.random.Generator, int], np.ndarray]
    units: int
    unit_shape: Tuple[int, ...]
    dtype: type
    thresholds: Callable[[np.ndarray], np.ndarray]


def _inner_cumsum(columns: np.ndarray, scale=1.0) -> np.ndarray:
    """`np.cumsum(columns * scale, axis=-1)[..., :-1]` of (block, n_cfg, k)
    CPT columns, bit for bit, as shape (block, k - 1, n_cfg): one add per
    category, where numpy's accumulate loops over every short column."""
    block, n_cfg, k = columns.shape
    thresholds = np.empty((block, k - 1, n_cfg))
    for j in range(k - 1):
        np.multiply(columns[..., j], scale, out=thresholds[:, j])
        if j:
            thresholds[:, j] += thresholds[:, j - 1]
    return thresholds


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
            def thresholds(psi, odd=odd):
                # 1 - P(X=1 | config), psi is (block, 1)
                return (1.0 - np.where(odd, 1.0 - psi, psi))[:, None]
            key, units, unit_shape, dtype = ("xor", p.a, p.b), 1, (), float
        elif isinstance(p, DirichletColumnsPrior) and len(set(p.alpha)) == 1 and p.alpha[0] >= 0.1:
            # For max alpha >= 0.1, Generator.dirichlet draws a column as k
            # standard_gamma(alpha_j) variates in order, scaled by one over
            # their sequential sum, so a symmetric alpha's columns are one
            # sized standard_gamma call with the same stream.  Below 0.1
            # numpy breaks a stick with Beta variates instead, and an
            # asymmetric alpha would need an array-shaped standard_gamma
            # call, which is no faster than rng.dirichlet.
            k = p.cardinality
            def draw(rng, size, a=p.alpha[0]):
                return rng.standard_gamma(a, size=size)
            def thresholds(gammas, n_cfg=n_cfg, k=k):
                # scaled by one over the sequential sum, as Generator.dirichlet
                # scales its Gamma variates
                columns = gammas.reshape(len(gammas), n_cfg, k)
                acc = columns[..., 0].copy()
                for j in range(1, k):
                    acc += columns[..., j]
                return _inner_cumsum(columns, np.divide(1.0, acc, out=acc))
            key, units, unit_shape, dtype = ("gamma", p.alpha[0]), n_cfg * k, (), float
        elif isinstance(p, DirichletColumnsPrior):
            def draw(rng, size, alpha=np.asarray(p.alpha)):
                return rng.dirichlet(alpha, size=size)  # one CPT column per row
            def thresholds(columns):
                return _inner_cumsum(columns)
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
            def thresholds(idx, atoms=np.stack([c for _, c in p.atoms])):
                return np.cumsum(atoms[:, :-1], axis=1)[idx[:, 0]]
            key, units, unit_shape, dtype = ("atoms", weights), 1, (), np.intp
        else:
            raise TypeError(f"unknown prior type {type(p).__name__}")
        mechanisms.append(_Mechanism(key, draw, units, unit_shape, dtype, thresholds))
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


class _EnvViews(abc.Sequence):
    """Read-only sequence of a dataset's environments: item e is the view
    `rows[offsets[e]:offsets[e + 1]]`, made when it is read."""

    def __init__(self, rows: np.ndarray, offsets: np.ndarray):
        self._rows, self._offsets = rows, offsets

    def __len__(self):
        return len(self._offsets) - 1

    def __getitem__(self, e):
        e = range(len(self))[operator.index(e)]  # IndexError past either end
        return self._rows[self._offsets[e] : self._offsets[e + 1]]

    def __iter__(self):
        bounds = self._offsets.tolist()
        return (self._rows[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


@dataclass(eq=False)
class EnvDataset:
    """Categorical observations indexed (environment, sample, variable).

    One storage layout serves ragged and uniform data alike: `rows` holds
    every environment's samples back to back, shape (total, d), and
    environment e owns rows `offsets[e]:offsets[e + 1]`.  The constructor
    takes per-environment integer arrays, checks their shapes and dtypes,
    copies them into one int64 `rows` once, and rejects a value outside
    [0, k) for its variable's k.  The producers in this package, whose int64
    values are in range by construction, hand over `rows` and `offsets`
    directly (`_from_rows`).
    Either way `envs` then becomes an `_EnvViews`, which slices an
    environment's rows out of `rows` when it is read, so construction does
    not grow with the number of environments.  Datasets compare by
    identity.
    """

    d: int
    cardinalities: Tuple[int, ...]
    envs: Sequence[np.ndarray] = field(repr=False)  # each (N_e, d); views into `rows` after init
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
                if rows.dtype.kind not in "iu":
                    raise ValueError(
                        f"environment {e}: rows must be integer codes, not {rows.dtype}"
                    )
            self.offsets = np.concatenate(([0], np.cumsum([rows.shape[0] for rows in arrays])))
            self.rows = np.concatenate(arrays, dtype=np.int64)
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
        self.envs = _EnvViews(self.rows, self.offsets)

    @property
    def n_envs(self):
        return len(self.offsets) - 1

    @property
    def min_samples(self):
        return self._min_samples

    def values_at(self, coords: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Per-environment observation of the given (variable, sample) coordinates.

        Returns an array of shape (n_envs, len(coords)), gathered by one
        fancy index into `rows`.  Raises if a variable is outside [0, d), if
        any environment has fewer samples than a referenced sample index, or
        if a sample index is negative.
        """
        variables = [v for v, _ in coords]
        samples = [s for _, s in coords]
        if not all(0 <= v < self.d for v in variables):
            raise ValueError(f"variable index outside [0, {self.d}) in {list(coords)}")
        max_sample = max(samples, default=0)
        if self.min_samples <= max_sample:
            raise ValueError(
                f"statement references sample index {max_sample} but some environment "
                f"has only {self.min_samples} samples"
            )
        if min(samples, default=0) < 0:
            raise ValueError(f"negative sample index in {list(coords)}")
        return self.rows[self.offsets[:-1, None] + samples, variables]


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


def _seed_words(seed: int, n_envs: int) -> np.ndarray:
    """`SeedSequence((seed, e)).generate_state(4, np.uint64)` for every
    e < n_envs, shape (n_envs, 4): numpy's SeedSequence hash run as uint32
    arithmetic over the environment axis.  The entropy is the seed's
    little-endian uint32 words followed by e as one word; it is mixed into a
    4-word pool, and the output hash reads the pool cyclically."""
    n = operator.index(seed)
    if n < 0:
        raise ValueError(f"seed must be nonnegative, got {n}")
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


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose output is one environment's row of
    `_seed_words`.  PCG64 asks for four uint64 words and reads them straight
    from the array's buffer, so the row must be contiguous."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# environments drawn and then sampled together: the raw mechanism variates,
# the uniforms and the ancestral temporaries are held for one block
_BLOCK_ENVS = 4096
# the fewest environments a forked span holds.  On a 2-core host whose
# second vCPU is shared, two spans of 5,000 environments sampled slower than
# one of 10,000 in 3 of 10 measurements, while two spans of 10,000 beat one
# of 20,000 in every one
_SPAN_ENVS = 2 * _BLOCK_ENVS


def _ancestral_stage(
    g: Dag,
    cards: Sequence[int],
    mechanisms: List[_Mechanism],
    raws: List[np.ndarray],
    uniforms: np.ndarray,
    values: np.ndarray,
) -> None:
    """The ancestral stage of `sample_dataset`, for one block of
    environments: per node, its thresholds for every environment, then one
    comparison over the (block, n) samples, the parents' config index
    picking each sample's threshold column.  Writes the samples into
    `values`, shape (block, n, d)."""
    for t, i in enumerate(g.topological_order()):
        thresholds = mechanisms[i].thresholds(raws[i])  # (block, k - 1, n_cfg)
        pa, _ = parent_configs(g, cards, i)
        if pa:  # a parentless node's one column broadcasts over the samples
            cfg = 0  # the parents' mixed-radix config index, first parent most significant
            for p in pa:
                cfg = cfg * cards[p] + values[..., p]
            thresholds = np.take_along_axis(thresholds, cfg[:, None, :], axis=2)
        # one comparison per inner threshold: a short reduction axis is slow
        values[..., i] = sum(uniforms[:, t] >= level for level in thresholds.swapaxes(0, 1))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform
    cannot say (no `os.sched_getaffinity`) or cannot fork (no `os.fork`).
    A cgroup CPU quota does not lower it."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _sample_span(
    g: Dag,
    cards: Sequence[int],
    mechanisms: List[_Mechanism],
    words: np.ndarray,
    values: np.ndarray,
) -> None:
    """Sample the environments whose seed words are the rows of `words`
    into `values`, shape (len(words), samples_per_env, d), one block of
    `_BLOCK_ENVS` environments at a time."""
    samples_per_env = values.shape[1]
    for start in range(0, len(words), _BLOCK_ENVS):
        block = words[start : start + _BLOCK_ENVS]
        draws, raws = _run_buffers(mechanisms, len(block))
        uniforms = np.empty((len(block), g.d, samples_per_env))
        seed = _SeedWords(block[0])  # one seed view, pointed at each row in turn
        for e, env_words in enumerate(block):
            seed.words = env_words
            rng = np.random.default_rng(np.random.PCG64(seed))
            for buffer, draw, units in draws:
                buffer[e] = draw(rng, units)
            # each double takes one 64-bit word, so row t equals the t-th
            # of d consecutive rng.random(n) calls
            rng.random(out=uniforms[e])
        _ancestral_stage(g, cards, mechanisms, raws, uniforms, values[start : start + len(block)])


def _reap(children: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Wait for every (span, pid) child and return (span, exit code) pairs.
    An exception that arrives while waiting, such as KeyboardInterrupt, does
    not stop the waiting: every child is reaped first, then the first such
    exception is raised."""
    codes, pending = [], None
    for span, pid in children:
        while True:
            try:
                codes.append((span, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
                break
            except ChildProcessError as err:
                # reaped elsewhere, so its status is lost: nothing to wait for
                pending = pending or err
                break
            except BaseException as err:
                pending = pending or err
    if pending is not None:
        raise pending
    return codes


def _fork_spans(
    sample_span: Callable[[int, int, np.ndarray], None],
    bounds: Sequence[int],
    values: np.ndarray,
) -> None:
    """Run `sample_span(lo, hi, out)` over the spans [bounds[i], bounds[i +
    1]): span 0 in this process, straight into `values`, and every other
    span in a forked child that writes into one shared anonymous mmap and
    leaves only by `os._exit`.  Every child is reaped, also when span 0
    raises.  A failed child writes its traceback to file descriptor 2, and
    the caller then raises RuntimeError naming the span.  The children's
    rows are copied into `values` last."""
    head = bounds[1]
    tail_shape = (bounds[-1] - head,) + values.shape[1:]
    shared = np.frombuffer(
        mmap.mmap(-1, math.prod(tail_shape) * values.itemsize), values.dtype
    ).reshape(tail_shape)
    children = []  # (span, pid)
    try:
        for span in range(1, len(bounds) - 1):
            lo, hi = bounds[span], bounds[span + 1]
            pid = os.fork()
            if pid == 0:
                # the child never unwinds into the caller, flushes inherited
                # stdio or runs atexit handlers
                status = 1
                try:
                    sample_span(lo, hi, shared[lo - head : hi - head])
                    status = 0
                except BaseException:
                    os.write(2, traceback.format_exc().encode(errors="replace"))
                finally:
                    os._exit(status)
            children.append((span, pid))
        sample_span(0, head, values[:head])
    finally:
        codes = _reap(children)
    for span, code in codes:
        if code:
            raise RuntimeError(
                f"sampling span {span} (environments {bounds[span]}-{bounds[span + 1] - 1}) "
                f"failed in a forked child with exit status {code}"
            )
    values[head:] = shared


def sample_dataset(
    g: Dag,
    prior: MixturePrior,
    n_envs: int,
    samples_per_env: int,
    rng_seed: int,
) -> EnvDataset:
    """Sample `n_envs` environments of `samples_per_env` rows each, in
    blocks of `_BLOCK_ENVS` environments, straight into the dataset's
    `rows`.  Blocks bound the memory; every environment's data is the same
    whatever the block size.

    Per block, a loop over environments makes only the rng calls:
    environment e draws each node's mechanism in node-index order, then the
    uniforms of each node in topological order.  The data stream depends on
    that order.  It makes one rng call per run of equal mechanism draws
    (`_run_buffers`), which gives the same stream as one call per node.  A
    Dirichlet node with symmetric alpha >= 0.1 is drawn as n_cfg * k
    `standard_gamma(alpha)` variates and scaled column by column exactly
    as `Generator.dirichlet` scales its own Gamma variates, so its CPTs are
    bit for bit those of `rng.dirichlet`; consecutive such nodes with equal
    alpha share one call whatever their cardinality.  `_ancestral_stage`
    then samples each node for the whole block at once, from the inner
    cumulative thresholds its `_Mechanism` makes of the block's raw
    draws: each (environment, sample) takes the threshold column of its
    parents' config index and counts the thresholds its uniform reaches.
    The thresholds are summed in `np.cumsum`'s order, so the rows are those
    of a per-sample cumsum over the gathered CPT column.

    Environment e's generator is exactly `np.random.default_rng((rng_seed,
    e))`.  `_seed_words` computes every environment's SeedSequence output
    at once, and numpy's PCG64 seeds itself from environment e's words
    through the block's one `_SeedWords`, whose row is reassigned per
    environment.  Environment 0's generator is also built the
    documented way, which validates the seed as `default_rng` does; if its
    state differs from the bulk one, numpy's seeding has changed and a
    RuntimeError says so.

    After those checks the environments are split into w near-equal
    contiguous spans, w = min(usable CPUs, n_envs // _SPAN_ENVS) and at
    least 1, and `_sample_span` runs the block loop over each.  Every span
    holds at least two full blocks (`_SPAN_ENVS`): splitting a
    5,000-environment set-up in two made it slower, and a
    10,000-environment dataset was slower in some measurements, since the
    fork and the copy-on-write faults after it can cost more than sampling
    the other half in process saves.  Spans 1 to w - 1
    run in forked children (`_fork_spans`), which are all reaped (`_reap`)
    before this returns or raises; a failed child raises RuntimeError
    naming its span.  Where `os.sched_getaffinity` or `os.fork` is missing (macOS,
    Windows), w is 1 and no process is forked.  The rows are the same for
    every w.  On Python >= 3.12 `os.fork` emits a DeprecationWarning when
    the process has other threads, and numpy's OpenBLAS helper thread
    counts unless OPENBLAS_NUM_THREADS=1; a child calls no BLAS routine and
    takes no lock another thread could hold, and the warning is not
    filtered."""
    if n_envs < 1 or samples_per_env < 1:
        raise ValueError("n_envs and samples_per_env must be >= 1")
    if n_envs > 2**32:
        raise ValueError(
            f"n_envs = {n_envs} exceeds 2**32: each environment index is seeded as one uint32 word"
        )
    mechanisms = _node_drawers(g, prior)
    # default_rng(seed) is Generator(PCG64(seed)); ValueError on a negative
    # seed, TypeError on a non-integer one
    reference = np.random.PCG64((rng_seed, 0))
    words = _seed_words(rng_seed, n_envs)
    if reference.state != np.random.PCG64(_SeedWords(words[0])).state:
        raise RuntimeError(
            f"bulk seeding does not reproduce default_rng((seed, 0)) under numpy {np.__version__}"
        )
    cards = prior.cardinalities
    rows = np.empty((n_envs * samples_per_env, g.d), dtype=np.int64)
    values = rows.reshape(n_envs, samples_per_env, g.d)

    def sample_span(lo, hi, out):
        _sample_span(g, cards, mechanisms, words[lo:hi], out)

    w = max(1, min(_usable_cpus(), n_envs // _SPAN_ENVS))
    if w == 1:
        sample_span(0, n_envs, values)
    else:
        _fork_spans(sample_span, [n_envs * i // w for i in range(w + 1)], values)
    return EnvDataset._from_rows(
        g.d,
        cards,
        rows,
        np.arange(0, rows.shape[0] + 1, samples_per_env),
        true_graph=g,
        seed=operator.index(rng_seed),  # a numpy integer is not JSON
        prior_description=prior.describe(),
    )


def bivariate_xor_model() -> Tuple[Dag, MixturePrior]:
    """The bivariate benchmark: X -> Y with X ~ Ber(theta), Y = Ber(psi) xor X,
    theta and psi drawn Beta(1, 3) independently per environment.  Both
    nodes take `EXPERIMENT_PRIOR`, `XorBetaPrior(1, 3)`: on the parentless X
    it is Ber(theta) with theta ~ Beta(1, 3).  Independent Beta(a, b) CPT
    columns on a binary node with parents are `DirichletColumnsPrior((b, a))`
    in distribution."""
    return Dag(2, frozenset({(0, 1)})), MixturePrior((EXPERIMENT_PRIOR,) * 2)
