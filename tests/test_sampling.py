import hashlib
import tracemalloc

import numpy as np
import pytest

from exdag import sampling
from exdag.ci_test import degenerate_check
from exdag.graphs import Dag
from exdag.sampling import (
    AtomMixturePrior,
    DirichletColumnsPrior,
    EnvDataset,
    EnvParams,
    MixturePrior,
    XorBetaPrior,
    bivariate_xor_model,
    parent_configs,
    sample_dataset,
    sample_env_params,
)

CHAIN = Dag(3, frozenset({(0, 1), (1, 2)}))


def _stacked(ds: EnvDataset) -> np.ndarray:
    """(n_envs, N, d) view of a uniform dataset's rows."""
    return ds.rows.reshape(ds.n_envs, -1, ds.d)


def _ancestral_sample(order, pa_info, cards, params: EnvParams, n: int, rng) -> np.ndarray:
    values = np.zeros((n, len(cards)), dtype=np.int64)
    for i in order:
        pa, _ = pa_info[i]
        if pa:
            cfg = np.ravel_multi_index(
                tuple(values[:, p] for p in pa), tuple(cards[p] for p in pa)
            )
        else:
            cfg = np.zeros(n, dtype=np.intp)
        probs = params.cpts[i][:, cfg]  # (k_i, n)
        u = rng.random(n)
        values[:, i] = (u[None, :] >= np.cumsum(probs, axis=0)).sum(axis=0)
    return values


class TestPriors:
    def test_beta_params_validated(self):
        with pytest.raises(ValueError):
            XorBetaPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            XorBetaPrior(1.0, -2.0)

    def test_dirichlet_validated(self):
        with pytest.raises(ValueError):
            DirichletColumnsPrior((1.0,))
        with pytest.raises(ValueError):
            DirichletColumnsPrior((1.0, 0.0))
        assert DirichletColumnsPrior((1.0, 1.0, 1.0)).cardinality == 3

    def test_atom_mixture_validated(self):
        with pytest.raises(ValueError, match="at least one atom"):
            AtomMixturePrior([])
        with pytest.raises(ValueError, match="sum to 1"):
            AtomMixturePrior([(0.5, [[0.5], [0.5]])])
        with pytest.raises(ValueError, match="sum to 1"):
            AtomMixturePrior([(1.0, [[0.4], [0.4]])])
        prior = AtomMixturePrior([(1.0, [[0.25, 0.5], [0.75, 0.5]])])
        assert prior.cardinality == 2

    def test_mixture_prior_cardinalities(self):
        prior = MixturePrior((XorBetaPrior(1, 3), DirichletColumnsPrior((1.0,) * 3)))
        assert prior.d == 2
        assert prior.cardinalities == (2, 3)
        assert len(prior.describe()) == 2


class TestParentConfigs:
    def test_counts(self):
        g = Dag(3, frozenset({(0, 2), (1, 2)}))
        assert parent_configs(g, (2, 3, 2), 2) == ((0, 1), 6)
        assert parent_configs(g, (2, 3, 2), 0) == ((), 1)


class TestSampleEnvParams:
    def test_shapes_and_normalization(self):
        prior = MixturePrior((XorBetaPrior(1, 3),) * 3)
        params = sample_env_params(prior, CHAIN, 0)
        assert [c.shape for c in params.cpts] == [(2, 1), (2, 2), (2, 2)]
        for cpt in params.cpts:
            assert np.allclose(cpt.sum(axis=0), 1.0)

    def test_deterministic(self):
        prior = MixturePrior((XorBetaPrior(1, 3),) * 3)
        a = sample_env_params(prior, CHAIN, 42)
        b = sample_env_params(prior, CHAIN, 42)
        for x, y in zip(a.cpts, b.cpts):
            assert np.array_equal(x, y)

    def test_xor_ties_columns_by_parity(self):
        g = Dag(3, frozenset({(0, 2), (1, 2)}))
        prior = MixturePrior((XorBetaPrior(1, 3),) * 3)
        params = sample_env_params(prior, g, 7)
        p1 = params.cpts[2][1]  # P(X2=1 | parent config), configs 00,01,10,11
        assert p1[0] == pytest.approx(p1[3])
        assert p1[1] == pytest.approx(p1[2])
        assert p1[0] == pytest.approx(1.0 - p1[1])

    def test_xor_requires_binary_parents(self):
        g = Dag(2, frozenset({(0, 1)}))
        for k in (3, 4):  # 4 configs would pass a power-of-two check
            prior = MixturePrior((DirichletColumnsPrior((1.0,) * k), XorBetaPrior(1, 3)))
            with pytest.raises(ValueError, match="binary"):
                sample_dataset(g, prior, 2, 2, 0)
            with pytest.raises(ValueError, match=f"node 1 has parent 0 with {k} categories"):
                sample_env_params(prior, g, 0)

    def test_prior_graph_size_mismatch(self):
        prior = MixturePrior((XorBetaPrior(1, 3),) * 2)
        with pytest.raises(ValueError, match="nodes"):
            sample_env_params(prior, CHAIN, 0)


class TestEnvDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            EnvDataset(d=2, cardinalities=(2, 2), envs=[np.zeros((2, 3), dtype=int)])
        with pytest.raises(ValueError, match="out of range"):
            EnvDataset(d=1, cardinalities=(2,), envs=[np.array([[2]])])
        with pytest.raises(ValueError, match="empty"):
            EnvDataset(d=1, cardinalities=(2,), envs=[np.zeros((0, 1), dtype=int)])
        with pytest.raises(ValueError, match="cardinality"):
            EnvDataset(d=2, cardinalities=(2,), envs=[np.zeros((1, 2), dtype=int)])

    def test_out_of_range_reports_environment(self):
        envs = [np.array([[0, 0]]), np.array([[1, 3]])]
        with pytest.raises(ValueError, match="environment 1: variable 1"):
            EnvDataset(d=2, cardinalities=(2, 2), envs=envs)

    def test_stacked_and_values_at(self):
        envs = [np.array([[0, 1], [1, 0]]), np.array([[1, 1], [0, 0]])]
        ds = EnvDataset(d=2, cardinalities=(2, 2), envs=envs)
        assert _stacked(ds).shape == (2, 2, 2)
        vals = ds.values_at([(0, 0), (1, 1)])
        assert vals.tolist() == [[0, 0], [1, 0]]

    def test_ragged_environments(self):
        envs = [np.array([[0], [1], [0]]), np.array([[1], [0]])]
        ds = EnvDataset(d=1, cardinalities=(2,), envs=envs)
        assert ds.min_samples == 2
        assert ds.values_at([(0, 1)]).tolist() == [[1], [0]]
        with pytest.raises(ValueError, match="sample index 2"):
            ds.values_at([(0, 2)])

    @pytest.mark.parametrize("ragged", [False, True])
    def test_values_at_matches_per_environment_loop(self, ragged):
        rng = np.random.default_rng(4)
        sizes = rng.integers(2, 6, size=40) if ragged else np.full(40, 3)
        envs = [rng.integers(0, (2, 3, 4), size=(n, 3)) for n in sizes]
        ds = EnvDataset(d=3, cardinalities=(2, 3, 4), envs=envs)
        coords = [(2, 1), (0, 0), (1, 1), (2, 0)]
        ref = np.array([[rows[s, v] for v, s in coords] for rows in envs])
        assert np.array_equal(ds.values_at(coords), ref)
        assert all(np.array_equal(a, b) for a, b in zip(ds.envs, envs))
        with pytest.raises(ValueError, match="negative"):
            ds.values_at([(0, -1)])

    def test_identity_equality_and_short_repr(self):
        envs = [np.array([[e % 2]]) for e in range(10_000)]
        a = EnvDataset(d=1, cardinalities=(2,), envs=envs)
        b = EnvDataset(d=1, cardinalities=(2,), envs=envs)
        assert a == a and a != b
        assert len(repr(a)) < 200


class TestSampleDataset:
    def test_shapes_and_ranges(self):
        prior = MixturePrior((XorBetaPrior(1, 3),) * 3)
        ds = sample_dataset(CHAIN, prior, 50, 4, 0)
        assert ds.n_envs == 50
        assert all(rows.shape == (4, 3) for rows in ds.envs)
        stack = _stacked(ds)
        assert stack.min() >= 0 and stack.max() <= 1
        assert ds.true_graph == CHAIN
        assert ds.seed == 0

    def test_deterministic_per_seed(self):
        g, prior = bivariate_xor_model()
        a = sample_dataset(g, prior, 30, 2, 5)
        b = sample_dataset(g, prior, 30, 2, 5)
        c = sample_dataset(g, prior, 30, 2, 6)
        assert np.array_equal(_stacked(a), _stacked(b))
        assert not np.array_equal(_stacked(a), _stacked(c))

    def test_environment_prefix_stable(self):
        # counter-based seeding: environment e is the same regardless of n_envs
        g, prior = bivariate_xor_model()
        small = sample_dataset(g, prior, 10, 2, 9)
        big = sample_dataset(g, prior, 40, 2, 9)
        assert np.array_equal(_stacked(small), _stacked(big)[:10])

    def test_matches_reference_path(self):
        # the sampler must agree with the documented two-step semantics:
        # per-env CPT draw then ancestral sampling on one stream
        g = Dag(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
        atom = AtomMixturePrior(
            [
                (0.4, [[0.9, 0.2, 0.5, 0.0], [0.1, 0.8, 0.5, 1.0]]),
                (0.6, [[0.3, 0.6, 1.0, 0.25], [0.7, 0.4, 0.0, 0.75]]),
            ]
        )
        prior = MixturePrior(
            (XorBetaPrior(1, 3), XorBetaPrior(1, 3), DirichletColumnsPrior((1.0, 2.0)), atom)
        )
        ds = sample_dataset(g, prior, 20, 3, 13)
        cards = prior.cardinalities
        order = g.topological_order()
        pa_info = {i: parent_configs(g, cards, i) for i in range(g.d)}
        for e in range(20):
            rng = np.random.default_rng((13, e))
            params = sample_env_params(prior, g, rng)
            ref = _ancestral_sample(order, pa_info, cards, params, 3, rng)
            assert np.array_equal(ds.envs[e], ref)

    def test_runs_match_one_scalar_call_per_node(self):
        # the draw stage merges consecutive nodes with equal draws into one
        # sized rng call; the reference makes one scalar call per node.
        # Nodes 0-1 are equal xor-Beta, node 2 a different one; nodes 3-4
        # share a Dirichlet with max alpha < 0.1 (numpy's stick-breaking
        # branch) over 1 and 6 parent configs; node 5 is a standard
        # Dirichlet; nodes 6-7 are atoms with equal weights; node 8 repeats
        # node 0's prior, apart from its run.  Edges from higher to lower
        # indices make topological order differ from index order.
        g = Dag(9, frozenset({(0, 4), (3, 4), (4, 5), (0, 1), (5, 1), (0, 2), (1, 2),
                              (5, 6), (2, 7), (7, 8)}))
        tiny = DirichletColumnsPrior((0.05, 0.08, 0.02))
        weights = (0.3, 0.7)
        copy_flip = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
        prior = MixturePrior(
            (
                XorBetaPrior(1, 3), XorBetaPrior(1, 3), XorBetaPrior(2, 2),
                tiny, tiny, DirichletColumnsPrior((1.0, 2.0)),
                AtomMixturePrior(list(zip(weights, copy_flip))),
                AtomMixturePrior(list(zip(weights, copy_flip[::-1]))),
                XorBetaPrior(1, 3),
            )
        )
        n_envs = sampling._BLOCK_ENVS + 3
        ds = sample_dataset(g, prior, n_envs, 2, 17)
        cards = prior.cardinalities
        order = g.topological_order()
        pa_info = {i: parent_configs(g, cards, i) for i in range(g.d)}
        for e in (0, 1, 2, n_envs - 5, n_envs - 4, n_envs - 3, n_envs - 2, n_envs - 1):
            rng = np.random.default_rng((17, e))
            cpts = []
            for i, p in enumerate(prior.node_priors):
                pa, n_cfg = pa_info[i]
                if isinstance(p, XorBetaPrior):
                    psi = rng.beta(p.a, p.b)
                    odd = np.array([bin(c).count("1") & 1 for c in range(n_cfg)], dtype=bool)
                    p1 = np.where(odd, 1.0 - psi, psi)
                    cpts.append(np.stack((1.0 - p1, p1)))
                elif isinstance(p, DirichletColumnsPrior):
                    cpts.append(rng.dirichlet(p.alpha, size=n_cfg).T)
                else:
                    w = np.array([w for w, _ in p.atoms])
                    cpts.append(p.atoms[rng.choice(len(w), p=w)][1])
            ref = _ancestral_sample(order, pa_info, cards, EnvParams(cpts), 2, rng)
            assert np.array_equal(ds.envs[e], ref)

    def test_atom_prior_sampling(self):
        g = Dag(2, frozenset({(0, 1)}))
        prior = MixturePrior(
            (
                AtomMixturePrior([(1.0, [[0.5], [0.5]])]),
                AtomMixturePrior([(0.5, [[1.0, 0.0], [0.0, 1.0]]), (0.5, [[0.0, 1.0], [1.0, 0.0]])]),
            )
        )
        ds = sample_dataset(g, prior, 200, 2, 3)
        stack = _stacked(ds)
        # each environment's mechanism is copy or flip: X xor Y constant per env
        xors = stack[:, :, 0] ^ stack[:, :, 1]
        assert np.all(xors[:, 0] == xors[:, 1])

    def test_column_sum_below_one_stays_in_range(self, monkeypatch):
        # an accepted atom column summing to 1 - 5e-10 and a uniform draw
        # above that sum must still yield the last category, not k
        class TopDraw:
            def random(self, size=None, out=None):
                if out is None:
                    out = np.empty(size)
                out[...] = np.nextafter(1.0, 0.0)
                return out

        monkeypatch.setattr(np.random, "default_rng", lambda seed: TopDraw())
        prior = MixturePrior((AtomMixturePrior([(1.0, [[0.5], [0.5 - 5e-10]])]),))
        ds = sample_dataset(Dag(1, frozenset()), prior, 3, 2, 0)
        assert ds.rows.tolist() == [[1]] * 6

    def test_block_boundary_matches_default_rng(self):
        # environments on either side of the first block boundary
        g, prior = bivariate_xor_model()
        n_envs = sampling._BLOCK_ENVS + 2
        ds = sample_dataset(g, prior, n_envs, 3, 5)
        order = g.topological_order()
        pa_info = {i: parent_configs(g, prior.cardinalities, i) for i in range(g.d)}
        for e in range(n_envs - 4, n_envs):
            rng = np.random.default_rng((5, e))
            params = sample_env_params(prior, g, rng)
            ref = _ancestral_sample(order, pa_info, prior.cardinalities, params, 3, rng)
            assert np.array_equal(ds.envs[e], ref)

    def test_memory_bounded_by_blocks(self):
        # one Dirichlet node with 64 parent configs draws 2 KB per
        # environment; a draw stage holding every environment's draws at
        # once peaks near 240 MB under tracemalloc, for 6.4 MB of rows
        g = Dag(4, frozenset({(0, 3), (1, 3), (2, 3)}))
        prior = MixturePrior((DirichletColumnsPrior((0.5,) * 4),) * 4)
        tracemalloc.start()
        try:
            ds = sample_dataset(g, prior, 100_000, 2, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.rows.nbytes == 6_400_000
        assert peak < 48e6

    def test_invalid_sizes(self):
        g, prior = bivariate_xor_model()
        with pytest.raises(ValueError):
            sample_dataset(g, prior, 0, 2, 0)
        with pytest.raises(ValueError):
            sample_dataset(g, prior, 2, 0, 0)


class TestPinnedSamplerStream:
    """The sampler's output must stay bit for bit what it was when these
    digests were recorded, for every prior kind, on a graph with two
    parentless nodes and one two-parent node that comes last in topological
    order but first by index."""

    GRAPH = Dag(3, frozenset({(1, 0), (2, 0)}))
    PRIORS = {
        "xor": MixturePrior((XorBetaPrior(1, 3), XorBetaPrior(2, 2), XorBetaPrior(1, 3))),
        "dirichlet": MixturePrior((DirichletColumnsPrior((1.0, 2.0, 0.5)),) * 3),
        "atom": MixturePrior(
            (
                AtomMixturePrior(
                    [
                        (
                            0.25,
                            [[0.1, 0.2, 0.3, 0.4], [0.3, 0.3, 0.3, 0.3], [0.6, 0.5, 0.4, 0.3]],
                        ),
                        (
                            0.75,
                            [[1.0, 0.0, 0.5, 0.2], [0.0, 1.0, 0.25, 0.2], [0.0, 0.0, 0.25, 0.6]],
                        ),
                    ]
                ),
                AtomMixturePrior([(0.3, [[0.2], [0.8]]), (0.7, [[0.9], [0.1]])]),
                AtomMixturePrior([(1.0, [[0.5], [0.5]])]),
            )
        ),
    }

    @pytest.mark.parametrize(
        "name, samples_per_env, digest",
        [
            ("xor", 1, "51b8976e8a26df81c69f1d78f64dee7477d11fe9753ccfdff0521b5c0f939c19"),
            ("xor", 2, "eb1423a6273e4afb863c51f451031012844120ab450700c8cf1eeee8ab0a2fcb"),
            ("xor", 4, "651ecd22699528d83904f716dac600d06b4a81bc02e406cdea687944d13ac1eb"),
            ("dirichlet", 1, "2958097fb663b97f4805a578df5531b906610d99f4d536e980f851ad37df218a"),
            ("dirichlet", 2, "3e5896faddad7efb54d6a7d395cc46a8884028cdce7f36b93a1ddac77485a6a8"),
            ("dirichlet", 4, "382ebc320e5275a5f0f1058c97fc955da69eec6d6a36b3f10826e8f1b5a6e723"),
            ("atom", 1, "0d1e7570fcae2a51ad754a391dd3f2e6718be9be719d2627f8b2c397fbb1281d"),
            ("atom", 2, "be5c20a8fbc0c73dec670f3a3f94f877f6167133d71adbd9793d18a560a6aa2f"),
            ("atom", 4, "9a4c17c028d293593677a16141985a972dda10c0ed2815fad13900ca329454e4"),
        ],
    )
    def test_rows(self, name, samples_per_env, digest):
        ds = sample_dataset(self.GRAPH, self.PRIORS[name], 64, samples_per_env, 11)
        # values, not the storage dtype, are pinned
        assert hashlib.sha256(ds.rows.astype(np.int64).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(PRIORS))
    def test_environment_prefix_stable(self, name):
        small = sample_dataset(self.GRAPH, self.PRIORS[name], 10, 3, 5)
        big = sample_dataset(self.GRAPH, self.PRIORS[name], 40, 3, 5)
        assert np.array_equal(_stacked(small), _stacked(big)[:10])

    # mixed 3x2 parent radices: node 3 has parents 1 (3 categories) and 2
    # (2 categories), node 5 has parents 2 and 4 (2 and 2)
    MIXED_GRAPH = Dag(6, frozenset({(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)}))
    MIXED_PRIOR = MixturePrior(
        tuple(DirichletColumnsPrior((0.5,) * k) for k in (3, 3, 2, 3, 2, 3))
    )

    @pytest.mark.parametrize(
        "samples_per_env, digest",
        [
            (2, "e6c3594d6e820911e6d4f216631ad9ffe03b4699019d6830d3bc4752e248409b"),
            (4, "b52f00d17405503a2669692a1be13199b38e877bf4f33ee8f665313046eb52a4"),
        ],
    )
    def test_mixed_radix_rows(self, samples_per_env, digest):
        ds = sample_dataset(self.MIXED_GRAPH, self.MIXED_PRIOR, 64, samples_per_env, 11)
        assert hashlib.sha256(ds.rows.astype(np.int64).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, from_seeds, from_generator",
        [
            (
                "xor",
                "da1d849aed8b814bdb14ed0d7493d5367c0563a04325572b599a7053c851d1f9",
                "0893248166a6facaff54eafd581ecb5511b3aa852e1e910fd3a8bff8ac84dbfc",
            ),
            (
                "dirichlet",
                "897e5343be636bc55680417e8e18e4b958c88d631d270940f0245905083e3076",
                "7d12d1c974ce335893eb11daae6f4cd519797bbe5c92f3a53dd56b57ca45bdc6",
            ),
            (
                "atom",
                "34297f618b5e63211859fca91b085da714bc0aca9fd5a7c23072644bfa0a0c82",
                "6e4f6a0ec19d582a13178637684162672613995b797e9ce1db09f0417799a1fd",
            ),
        ],
    )
    def test_env_params(self, name, from_seeds, from_generator):
        prior = self.PRIORS[name]
        rng = np.random.default_rng(23)
        for seeds, digest in (([0, 1, 2], from_seeds), ([rng] * 3, from_generator)):
            h = hashlib.sha256()
            for seed in seeds:
                for cpt in sample_env_params(prior, self.GRAPH, seed).cpts:
                    h.update(np.ascontiguousarray(cpt, dtype=np.float64).tobytes())
            assert h.hexdigest() == digest


class TestBulkSeeding:
    """The draw stage's bulk seeding must put environment e's generator in
    exactly the state of `np.random.default_rng((seed, e))`.  The seeds
    cross the entropy's uint32 word-count boundaries: 1, 2, 3 and 4 words
    of seed before the environment's word, the last past the 4-word pool."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100]
    ENVS = [0, 1, 2, 3, 255, 256, 1000, 2047, 2048, 4095]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_match_default_rng(self, seed):
        words = sampling._seed_words(seed, max(self.ENVS) + 1)
        assert words.shape == (max(self.ENVS) + 1, 4) and words.dtype == np.uint64
        for e in self.ENVS:
            expected = np.random.SeedSequence((seed, e)).generate_state(4, np.uint64)
            assert np.array_equal(words[e], expected)
            state = np.random.default_rng((seed, e)).bit_generator.state
            assert sampling._pcg64_state(words[e]) == state

    def test_draws_match_default_rng(self):
        # the reused generator, after a state set, continues each stream
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 5, 3, 2**64)
        for e in range(5):
            rng = np.random.default_rng((2**64, e))
            params = sample_env_params(prior, g, rng)
            order = g.topological_order()
            pa_info = {i: parent_configs(g, prior.cardinalities, i) for i in range(g.d)}
            ref = _ancestral_sample(order, pa_info, prior.cardinalities, params, 3, rng)
            assert np.array_equal(ds.envs[e], ref)

    def test_seed_validation_unchanged(self):
        g, prior = bivariate_xor_model()
        for bad, error in ((-1, ValueError), (1.5, TypeError)):
            with pytest.raises(error):
                np.random.default_rng((bad, 0))
            with pytest.raises(error):
                sample_dataset(g, prior, 4, 2, bad)

    def test_drifted_seeding_fails_explicitly(self, monkeypatch):
        monkeypatch.setattr(sampling, "_PCG64_MULT", sampling._PCG64_MULT + 2)
        g, prior = bivariate_xor_model()
        with pytest.raises(RuntimeError, match=np.__version__):
            sample_dataset(g, prior, 4, 2, 0)

    def test_environment_index_limit(self):
        # rejected before anything is allocated
        g, prior = bivariate_xor_model()
        mechanisms = sampling._node_drawers(g, prior)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            sampling._draw_stage(mechanisms, g.d, 2**32 + 1, 2, 0)


class TestBivariateXorModel:
    def test_structure(self):
        g, prior = bivariate_xor_model()
        assert g == Dag(2, frozenset({(0, 1)}))
        assert isinstance(prior.node_priors[0], XorBetaPrior)
        assert isinstance(prior.node_priors[1], XorBetaPrior)
        assert prior.cardinalities == (2, 2)

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "a7cb85066c244574fdfb3222ecce763c49d78ad3f93edcdad5e8ba5bbdd748f3"),
            (1, "487821c837bbcbda736486cc4756c80f0be4d5f4632115a660638fdb0adbb00b"),
            (7, "d45b928841327e0c0d125e3b5b6c2f7f8ddb474036460a4559d9ef8a736b87df"),
            (123, "3702fabe886a135f907f02fa77f31782516f8bde60784c301e4617535960e03d"),
        ],
    )
    def test_pinned_rows(self, seed, digest):
        # recorded when X's prior was per-column Beta(1, 3), whose single
        # column on a root makes the same draw as XorBetaPrior(1, 3)
        ds = sample_dataset(*bivariate_xor_model(), 500, 2, seed)
        assert hashlib.sha256(ds.rows.astype(np.int64).tobytes()).hexdigest() == digest


class TestDegenerateCheck:
    def test_constant_variable_flagged(self):
        envs = [np.zeros((2, 1), dtype=int) for _ in range(20)]
        ds = EnvDataset(d=1, cardinalities=(2,), envs=envs)
        warnings = degenerate_check(ds)
        assert any("constant" in w for w in warnings)

    def test_iid_variable_flagged(self):
        # perfectly homogeneous environments: no cross-environment signal
        envs = [np.array([[0], [1]]) for _ in range(200)]
        ds = EnvDataset(d=1, cardinalities=(2,), envs=envs)
        warnings = degenerate_check(ds)
        assert any("heterogeneity" in w for w in warnings)

    def test_exchangeable_variable_clean(self):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 500, 4, 0)
        assert degenerate_check(ds) == []

    def test_pinned_warnings(self):
        """Warnings over seeded ragged datasets whose variables range from
        homogeneous (Dirichlet concentration 1e4) to strongly heterogeneous,
        with a constant variable in every fifth dataset."""
        cards = (2, 3, 4)
        lines = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n_envs = int(rng.integers(20, 200))
            sizes = rng.integers(1, 5, size=n_envs)
            env = np.repeat(np.arange(n_envs), sizes)
            cols = []
            for i, k in enumerate(cards):
                conc = [0.3, 3.0, 30.0, 300.0][seed % 4] if i else 1e4
                p = rng.dirichlet(np.full(k, conc), size=n_envs)
                u = rng.random(env.size)
                col = (u[:, None] >= np.cumsum(p[env], axis=1)[:, :-1]).sum(axis=1)
                if seed % 5 == 0 and i == 2:
                    col[:] = 1
                cols.append(col)
            envs = np.split(np.column_stack(cols), np.cumsum(sizes)[:-1])
            ds = EnvDataset(d=3, cardinalities=cards, envs=envs)
            lines += [f"{seed}: {w}" for w in degenerate_check(ds)]
        assert len(lines) == 26
        assert sum("constant" in w for w in lines) == 6
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "f652b756e25e3d71b937e7b91a136b4b1e67ce56f92b32168c6c0814a142420e"
