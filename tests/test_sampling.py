import numpy as np
import pytest

from exdag.graphs import Dag
from exdag.sampling import (
    AtomMixturePrior,
    BetaColumnsPrior,
    DirichletColumnsPrior,
    EnvDataset,
    MixturePrior,
    XorBetaPrior,
    bivariate_xor_model,
    degenerate_check,
    parent_config_index,
    parent_configs,
    sample_dataset,
    sample_env_params,
)

CHAIN = Dag(3, frozenset({(0, 1), (1, 2)}))


class TestPriors:
    def test_beta_params_validated(self):
        with pytest.raises(ValueError):
            BetaColumnsPrior(0.0, 1.0)
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
        prior = MixturePrior((BetaColumnsPrior(1, 3), DirichletColumnsPrior((1.0,) * 3)))
        assert prior.d == 2
        assert prior.cardinalities == (2, 3)
        assert len(prior.describe()) == 2


class TestParentConfigs:
    def test_counts(self):
        g = Dag(3, frozenset({(0, 2), (1, 2)}))
        assert parent_configs(g, (2, 3, 2), 2) == ((0, 1), 6)
        assert parent_configs(g, (2, 3, 2), 0) == ((), 1)

    def test_index_matches_ravel(self):
        values = np.array([[0, 0], [0, 1], [1, 2]])
        idx = parent_config_index(values, (2, 3))
        assert idx.tolist() == [0, 1, 5]


class TestSampleEnvParams:
    def test_shapes_and_normalization(self):
        prior = MixturePrior((XorBetaPrior(1, 3),) * 3)
        params = sample_env_params(prior, CHAIN, 0)
        assert [c.shape for c in params.cpts] == [(2, 1), (2, 2), (2, 2)]
        for cpt in params.cpts:
            assert np.allclose(cpt.sum(axis=0), 1.0)

    def test_deterministic(self):
        prior = MixturePrior((BetaColumnsPrior(1, 3),) * 3)
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
        prior = MixturePrior((DirichletColumnsPrior((1.0,) * 3), XorBetaPrior(1, 3)))
        with pytest.raises(ValueError, match="binary"):
            sample_dataset(g, prior, 2, 2, 0)

    def test_prior_graph_size_mismatch(self):
        prior = MixturePrior((BetaColumnsPrior(1, 3),) * 2)
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
        assert ds.stacked().shape == (2, 2, 2)
        vals = ds.values_at([(0, 0), (1, 1)])
        assert vals.tolist() == [[0, 0], [1, 0]]

    def test_ragged_environments(self):
        envs = [np.array([[0], [1], [0]]), np.array([[1], [0]])]
        ds = EnvDataset(d=1, cardinalities=(2,), envs=envs)
        assert ds.stacked() is None
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
        assert (ds.stacked() is None) == ragged
        coords = [(2, 1), (0, 0), (1, 1), (2, 0)]
        ref = np.array([[rows[s, v] for v, s in coords] for rows in envs])
        assert np.array_equal(ds.values_at(coords), ref)
        assert all(np.array_equal(a, b) for a, b in zip(ds.envs, envs))
        with pytest.raises(ValueError, match="negative"):
            ds.values_at([(0, -1)])


class TestSampleDataset:
    def test_shapes_and_ranges(self):
        prior = MixturePrior((XorBetaPrior(1, 3),) * 3)
        ds = sample_dataset(CHAIN, prior, 50, 4, 0)
        assert ds.n_envs == 50
        assert all(rows.shape == (4, 3) for rows in ds.envs)
        stack = ds.stacked()
        assert stack.min() >= 0 and stack.max() <= 1
        assert ds.true_graph == CHAIN
        assert ds.seed == 0

    def test_deterministic_per_seed(self):
        g, prior = bivariate_xor_model()
        a = sample_dataset(g, prior, 30, 2, 5)
        b = sample_dataset(g, prior, 30, 2, 5)
        c = sample_dataset(g, prior, 30, 2, 6)
        assert np.array_equal(a.stacked(), b.stacked())
        assert not np.array_equal(a.stacked(), c.stacked())

    def test_environment_prefix_stable(self):
        # counter-based seeding: environment e is the same regardless of n_envs
        g, prior = bivariate_xor_model()
        small = sample_dataset(g, prior, 10, 2, 9)
        big = sample_dataset(g, prior, 40, 2, 9)
        assert np.array_equal(small.stacked(), big.stacked()[:10])

    def test_matches_reference_path(self):
        # the compiled sampler must agree with the documented two-step
        # semantics: per-env CPT draw then ancestral sampling on one stream
        from exdag.sampling import _ancestral_sample

        g = Dag(3, frozenset({(0, 1), (0, 2)}))
        prior = MixturePrior(
            (BetaColumnsPrior(1, 3), XorBetaPrior(1, 3), DirichletColumnsPrior((1.0, 2.0)))
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

    def test_atom_prior_sampling(self):
        g = Dag(2, frozenset({(0, 1)}))
        prior = MixturePrior(
            (
                AtomMixturePrior([(1.0, [[0.5], [0.5]])]),
                AtomMixturePrior([(0.5, [[1.0, 0.0], [0.0, 1.0]]), (0.5, [[0.0, 1.0], [1.0, 0.0]])]),
            )
        )
        ds = sample_dataset(g, prior, 200, 2, 3)
        stack = ds.stacked()
        # each environment's mechanism is copy or flip: X xor Y constant per env
        xors = stack[:, :, 0] ^ stack[:, :, 1]
        assert np.all(xors[:, 0] == xors[:, 1])

    def test_invalid_sizes(self):
        g, prior = bivariate_xor_model()
        with pytest.raises(ValueError):
            sample_dataset(g, prior, 0, 2, 0)
        with pytest.raises(ValueError):
            sample_dataset(g, prior, 2, 0, 0)


class TestBivariateXorModel:
    def test_structure(self):
        g, prior = bivariate_xor_model()
        assert g == Dag(2, frozenset({(0, 1)}))
        assert isinstance(prior.node_priors[0], BetaColumnsPrior)
        assert isinstance(prior.node_priors[1], XorBetaPrior)
        assert prior.cardinalities == (2, 2)


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
