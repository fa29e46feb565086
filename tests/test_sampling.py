import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from exdag import sampling
from exdag.graphs import Dag
from exdag.sampling import (
    AtomMixturePrior,
    DirichletColumnsPrior,
    EnvDataset,
    MixturePrior,
    XorBetaPrior,
    bivariate_xor_model,
    parent_configs,
    sample_dataset,
)

CHAIN = Dag(3, frozenset({(0, 1), (1, 2)}))


def _stacked(ds: EnvDataset) -> np.ndarray:
    """(n_envs, N, d) view of a uniform dataset's rows."""
    return ds.rows.reshape(ds.n_envs, -1, ds.d)


def _reference_cpts(prior: MixturePrior, g: Dag, rng) -> list:
    """One environment's CPTs, drawn as documented: one scalar rng call per
    node in node-index order (a Dirichlet node draws its columns in one
    call), independent of the sampler's merged runs."""
    cpts = []
    for i, p in enumerate(prior.node_priors):
        _, n_cfg = parent_configs(g, prior.cardinalities, i)
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
    return cpts


def _ancestral_sample(order, pa_info, cards, cpts, n: int, rng) -> np.ndarray:
    values = np.zeros((n, len(cards)), dtype=np.int64)
    for i in order:
        pa, _ = pa_info[i]
        if pa:
            cfg = np.ravel_multi_index(
                tuple(values[:, p] for p in pa), tuple(cards[p] for p in pa)
            )
        else:
            cfg = np.zeros(n, dtype=np.intp)
        probs = cpts[i][:, cfg]  # (k_i, n)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_beta_params_finite(self, bad):
        with pytest.raises(ValueError, match="Beta parameter a must be finite"):
            XorBetaPrior(bad, 3.0)
        with pytest.raises(ValueError, match="Beta parameter b must be finite"):
            XorBetaPrior(1.0, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dirichlet_params_finite(self, bad):
        with pytest.raises(ValueError, match=r"alpha\[0\] must be finite"):
            DirichletColumnsPrior((bad, 1.0))
        with pytest.raises(ValueError, match=r"alpha\[1\] must be finite"):
            DirichletColumnsPrior((1.0, bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_atom_mixture_finite(self, bad):
        cpt = [[0.25, 0.5], [0.75, 0.5]]
        with pytest.raises(ValueError, match="atom 1 weight must be finite"):
            AtomMixturePrior([(1.0, cpt), (bad, cpt)])
        with pytest.raises(ValueError, match="atom 0 CPT entries must be finite"):
            AtomMixturePrior([(1.0, [[bad, 0.5], [0.75, 0.5]])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stacked_atoms_name_the_first_bad_atom(self, bad):
        # the atoms are checked as one stacked array; the first fault in
        # atom order is still the one reported
        cpt = [[0.25, 0.5], [0.75, 0.5]]
        nonfinite = [[bad, 0.5], [0.75, 0.5]]
        with pytest.raises(ValueError, match="atom 1 CPT entries must be finite"):
            AtomMixturePrior([(0.25, cpt), (0.25, nonfinite), (bad, cpt), (0.5, nonfinite)])
        with pytest.raises(ValueError, match="atom 1 weight must be finite"):
            AtomMixturePrior([(0.5, cpt), (bad, nonfinite), (0.5, [[bad], [1.0]])])
        with pytest.raises(ValueError, match="atom 2 CPT entries must be finite"):
            AtomMixturePrior([(0.5, cpt), (0.25, [[1.0], [0.0]]), (0.25, [[bad], [1.0]])])

    def test_stacked_atoms_checked_like_each_atom(self):
        cpt = [[0.25, 0.5], [0.75, 0.5]]
        with pytest.raises(ValueError, match="share CPT shape"):
            AtomMixturePrior([(0.5, cpt), (0.5, [[0.25], [0.75]])])
        with pytest.raises(ValueError, match="share CPT shape"):
            AtomMixturePrior([(0.5, [0.25, 0.75]), (0.5, [0.5, 0.5])])
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            AtomMixturePrior([(0.5, cpt), (0.5, [[1.5, 0.5], [-0.5, 0.5]])])
        with pytest.raises(ValueError, match="column must sum to 1"):
            AtomMixturePrior([(0.5, cpt), (0.5, [[0.25, 0.5], [0.75, 0.25]])])
        prior = AtomMixturePrior([(0.5, cpt), (0.5, [[1.0, 0.0], [0.0, 1.0]])])
        assert prior.cardinality == 2 and len(prior.atoms) == 2

    def test_mixture_prior_cardinalities(self):
        prior = MixturePrior((XorBetaPrior(1, 3), DirichletColumnsPrior((1.0,) * 3)))
        assert prior.d == 2
        assert prior.cardinalities == (2, 3)
        assert len(prior.describe()) == 2
        # built once at construction, outside repr, equality and hash
        assert repr(prior) == f"MixturePrior(node_priors={prior.node_priors!r})"
        same = MixturePrior(list(prior.node_priors))
        assert same == prior and hash(same) == hash(prior)


class TestParentConfigs:
    def test_counts(self):
        g = Dag(3, frozenset({(0, 2), (1, 2)}))
        assert parent_configs(g, (2, 3, 2), 2) == ((0, 1), 6)
        assert parent_configs(g, (2, 3, 2), 0) == ((), 1)


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

    def test_non_integer_rows_rejected(self):
        # a float code would be truncated when written to CSV
        ints = np.array([[1, 0]])
        for bad in (np.array([[0.5, 1.0], [1.0, 0.0]]), np.array([[True, False]])):
            message = rf"environment 1: rows must be integer codes, not {bad.dtype}"
            with pytest.raises(ValueError, match=message):
                EnvDataset(d=2, cardinalities=(2, 2), envs=[ints, bad])
        envs = [np.array([[0, 1]], dtype=np.uint8), np.array([[1, 0]], dtype=np.int32)]
        ds = EnvDataset(d=2, cardinalities=(2, 2), envs=envs)
        assert ds.rows.dtype == np.int64
        assert ds.rows.tolist() == [[0, 1], [1, 0]]

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

    def test_envs_slice_rows_on_access(self):
        n_envs = 10_000
        offsets = np.arange(0, 2 * n_envs + 1, 2)
        rows = np.arange(2 * n_envs).reshape(-1, 1) % 2
        ds = EnvDataset._from_rows(1, (2,), rows, offsets)
        assert not isinstance(ds.envs, list)
        assert len(ds.envs) == n_envs
        assert np.shares_memory(ds.envs[3], rows)
        assert ds.envs[-1].tolist() == ds.envs[n_envs - 1].tolist() == [[0], [1]]
        for e in (n_envs, -n_envs - 1):
            with pytest.raises(IndexError):
                ds.envs[e]
        assert [rows.shape for rows in ds.envs] == [(2, 1)] * n_envs
        with pytest.raises(TypeError):
            ds.envs[0] = rows[:2]

    def test_values_at_rejects_variable_outside_range(self):
        envs = [np.array([[0, 1], [1, 0]]), np.array([[1, 1], [0, 0]])]
        ds = EnvDataset(d=2, cardinalities=(2, 2), envs=envs)
        for v in (-1, 2):
            with pytest.raises(ValueError, match=r"variable index outside \[0, 2\)"):
                ds.values_at([(0, 0), (v, 0)])

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
            ref = _ancestral_sample(order, pa_info, cards, _reference_cpts(prior, g, rng), 3, rng)
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
            ref = _ancestral_sample(order, pa_info, cards, _reference_cpts(prior, g, rng), 2, rng)
            assert np.array_equal(ds.envs[e], ref)

    def test_gamma_runs_match_one_dirichlet_call_per_node(self):
        # a Dirichlet node with symmetric alpha >= 0.1 draws standard Gamma
        # variates keyed by alpha alone, so nodes 0-2 (k = 3, 2, 4) make one
        # call; node 3's alpha = 0.1 is the least that takes that path and
        # node 4's 0.0999 stays on rng.dirichlet (numpy's stick-breaking);
        # node 5 is asymmetric; nodes 6 and 8 repeat node 1's prior but the
        # xor node 7 between them splits their run.  The edge 8 -> 5 makes
        # topological order differ from index order.  The reference makes
        # one scalar rng.dirichlet call per Dirichlet node.
        g = Dag(9, frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5),
                              (6, 7), (7, 8), (8, 5)}))
        prior = MixturePrior(
            (
                DirichletColumnsPrior((0.5,) * 3), DirichletColumnsPrior((0.5,) * 2),
                DirichletColumnsPrior((0.5,) * 4), DirichletColumnsPrior((0.1,) * 2),
                DirichletColumnsPrior((0.0999,) * 3), DirichletColumnsPrior((0.5, 2.0)),
                DirichletColumnsPrior((0.5,) * 2), XorBetaPrior(1, 3),
                DirichletColumnsPrior((0.5,) * 2),
            )
        )
        mechanisms = sampling._node_drawers(g, prior)
        draws, raws = sampling._run_buffers(mechanisms, 1)
        # units per run: Gamma variates for 0-2, 3, 6 and 8, CPT columns
        # for 4 and 5, one psi for 7
        assert [units for _, _, units in draws] == [3 * 1 + 2 * 3 + 4 * 6, 2 * 4, 2, 6, 2, 1, 4]
        # the thresholds themselves, bit for bit, not only the samples they
        # give: the reference CPT's inner cumulative sums
        for e in range(3):
            rng = np.random.default_rng((23, e))
            for buffer, draw, units in draws:
                buffer[0] = draw(rng, units)
            ref = _reference_cpts(prior, g, np.random.default_rng((23, e)))
            for m, raw, cpt in zip(mechanisms, raws, ref):
                assert np.array_equal(m.thresholds(raw)[0], np.cumsum(cpt, axis=0)[:-1])
        n_envs = sampling._BLOCK_ENVS + 3
        ds = sample_dataset(g, prior, n_envs, 2, 23)
        cards = prior.cardinalities
        order = g.topological_order()
        pa_info = {i: parent_configs(g, cards, i) for i in range(g.d)}
        for e in (0, 1, 2, n_envs - 5, n_envs - 4, n_envs - 3, n_envs - 2, n_envs - 1):
            rng = np.random.default_rng((23, e))
            ref = _ancestral_sample(order, pa_info, cards, _reference_cpts(prior, g, rng), 2, rng)
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
        # above that sum must still yield the last category, not k, also
        # when the parents' values pick the column
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
        # a k = 3 node under parents of 3 and 2 categories, whose top draws
        # give config 1 * 2 + 0 = 2 of 6; each of its columns sums to 1 - 5e-10
        inner = np.array([[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0.3] * 6])
        prior = MixturePrior(
            (
                AtomMixturePrior([(1.0, [[0.0], [1.0], [0.0]])]),
                AtomMixturePrior([(1.0, [[1.0], [0.0]])]),
                AtomMixturePrior([(1.0, np.vstack((inner, 1 - 5e-10 - inner.sum(axis=0))))]),
            )
        )
        ds = sample_dataset(Dag(3, frozenset({(0, 2), (1, 2)})), prior, 3, 2, 0)
        assert ds.rows.tolist() == [[1, 0, 2]] * 6

    def test_block_boundary_matches_default_rng(self):
        # environments on either side of the first block boundary, for the
        # xor-Beta model, a mixed-radix graph of symmetric Dirichlet nodes
        # (Gamma variates) and an atom prior
        for g, prior in (
            bivariate_xor_model(),
            (TestPinnedSamplerStream.MIXED_GRAPH, TestPinnedSamplerStream.MIXED_PRIOR),
            (TestPinnedSamplerStream.GRAPH, TestPinnedSamplerStream.PRIORS["atom"]),
        ):
            n_envs = sampling._BLOCK_ENVS + 2
            ds = sample_dataset(g, prior, n_envs, 3, 5)
            order = g.topological_order()
            pa_info = {i: parent_configs(g, prior.cardinalities, i) for i in range(g.d)}
            for e in range(n_envs - 4, n_envs):
                rng = np.random.default_rng((5, e))
                cpts = _reference_cpts(prior, g, rng)
                ref = _ancestral_sample(order, pa_info, prior.cardinalities, cpts, 3, rng)
                assert np.array_equal(ds.envs[e], ref)

    def test_memory_bounded_by_blocks(self, monkeypatch):
        # one Dirichlet node with 64 parent configs draws 2 KB per
        # environment; a draw stage holding every environment's draws at
        # once peaks near 240 MB under tracemalloc, for 6.4 MB of rows.
        # tracemalloc does not see a forked child's allocations, so the
        # bound is also checked on one CPU, where no span is forked.
        g = Dag(4, frozenset({(0, 3), (1, 3), (2, 3)}))
        prior = MixturePrior((DirichletColumnsPrior((0.5,) * 4),) * 4)
        for cpus in (sampling._usable_cpus(), 1):
            monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
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

    def test_xor_requires_binary_parents(self):
        g = Dag(2, frozenset({(0, 1)}))
        for k in (3, 4):  # 4 configs would pass a power-of-two check
            prior = MixturePrior((DirichletColumnsPrior((1.0,) * k), XorBetaPrior(1, 3)))
            with pytest.raises(ValueError, match=f"node 1 has parent 0 with {k} categories"):
                sample_dataset(g, prior, 2, 2, 0)

    def test_prior_graph_size_mismatch(self):
        prior = MixturePrior((XorBetaPrior(1, 3),) * 2)
        with pytest.raises(ValueError, match="nodes"):
            sample_dataset(CHAIN, prior, 2, 2, 0)


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


class TestForkedSpans:
    """`sample_dataset` splits its environments into w contiguous spans,
    w = min(usable CPUs, n_envs // _SPAN_ENVS), and samples every span but
    the first in a forked child.  The rows must not depend on w, and no
    child may outlive the call.  Most cases shrink `_BLOCK_ENVS` and
    `_SPAN_ENVS` so that the n_envs around their multiples stay small."""

    @staticmethod
    def _shrink(monkeypatch, block):
        """Blocks of `block` environments, and spans of at least one block,
        so that span bounds also fall inside blocks."""
        monkeypatch.setattr(sampling, "_BLOCK_ENVS", block)
        monkeypatch.setattr(sampling, "_SPAN_ENVS", block)

    PRIORS = {
        "xor": (CHAIN, MixturePrior((XorBetaPrior(1, 3), XorBetaPrior(2, 2), XorBetaPrior(1, 3)))),
        "gamma": (CHAIN, MixturePrior((DirichletColumnsPrior((0.5,) * 3),) * 3)),
        "dirichlet": (CHAIN, MixturePrior((DirichletColumnsPrior((1.0, 2.0, 0.5)),) * 3)),
        "atom": (TestPinnedSamplerStream.GRAPH, TestPinnedSamplerStream.PRIORS["atom"]),
    }

    @staticmethod
    def _sample(monkeypatch, cpus, *args):
        """`sample_dataset(*args)` with `cpus` usable CPUs, and the number of
        processes it forked."""
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", fork)
        return sample_dataset(*args), len(forks)

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("samples_per_env", [1, 3])
    @pytest.mark.parametrize("name", sorted(PRIORS))
    def test_rows_identical_across_span_counts(self, monkeypatch, name, samples_per_env):
        self._shrink(monkeypatch, 32)
        block = sampling._BLOCK_ENVS
        g, prior = self.PRIORS[name]
        cards = prior.cardinalities
        order = g.topological_order()
        pa_info = {i: parent_configs(g, cards, i) for i in range(g.d)}
        for n_envs in (2 * block - 1, 2 * block, 3 * block + 1):
            serial, forks = self._sample(monkeypatch, 1, g, prior, n_envs, samples_per_env, 19)
            assert forks == 0
            for cpus in (2, 3):
                ds, forks = self._sample(monkeypatch, cpus, g, prior, n_envs, samples_per_env, 19)
                w = max(1, min(cpus, n_envs // block))
                assert forks == w - 1
                self._assert_no_child_left()
                assert ds.rows.flags.c_contiguous and ds.rows.flags.owndata
                assert ds.rows.dtype == np.int64
                assert np.array_equal(ds.rows, serial.rows)
                bounds = [n_envs * i // w for i in range(w + 1)]
                for e in {*bounds[:-1], *(b - 1 for b in bounds[1:])}:
                    rng = np.random.default_rng((19, e))
                    cpts = _reference_cpts(prior, g, rng)
                    ref = _ancestral_sample(order, pa_info, cards, cpts, samples_per_env, rng)
                    assert np.array_equal(ds.envs[e], ref)

    def test_real_span_floor(self, monkeypatch):
        # at the real sizes a span holds at least two blocks, so 10,000
        # environments stay in process and 2 * _SPAN_ENVS + 1 fork once
        assert sampling._SPAN_ENVS == 2 * sampling._BLOCK_ENVS
        g, prior = self.PRIORS["xor"]
        for n_envs, want in ((10_000, 0), (2 * sampling._SPAN_ENVS - 1, 0),
                             (2 * sampling._SPAN_ENVS + 1, 1)):
            serial, _ = self._sample(monkeypatch, 1, g, prior, n_envs, 2, 3)
            split, forks = self._sample(monkeypatch, 3, g, prior, n_envs, 2, 3)
            assert forks == want
            assert np.array_equal(split.rows, serial.rows)
            self._assert_no_child_left()

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert sampling._usable_cpus() == 1

    def test_failed_child_names_its_span(self, monkeypatch, capfd):
        caller = os.getpid()
        real_stage = sampling._ancestral_stage

        def stage(*args):
            if os.getpid() != caller:
                raise ValueError("stage failed in a child")
            real_stage(*args)

        monkeypatch.setattr(sampling, "_ancestral_stage", stage)
        self._shrink(monkeypatch, 16)
        g, prior = self.PRIORS["xor"]
        with pytest.raises(RuntimeError, match=r"span 1 \(environments 16-31\).*exit status 1"):
            self._sample(monkeypatch, 3, g, prior, 48, 2, 0)
        self._assert_no_child_left()
        # each child wrote its traceback to file descriptor 2
        assert capfd.readouterr().err.count("ValueError: stage failed in a child") == 2

    def test_parent_span_error_propagates(self, monkeypatch):
        caller = os.getpid()
        real_stage = sampling._ancestral_stage
        error = ValueError("stage failed in the caller")

        def stage(*args):
            if os.getpid() == caller:
                raise error
            real_stage(*args)

        monkeypatch.setattr(sampling, "_ancestral_stage", stage)
        self._shrink(monkeypatch, 16)
        g, prior = self.PRIORS["xor"]
        with pytest.raises(ValueError) as exc:
            self._sample(monkeypatch, 3, g, prior, 48, 2, 0)
        assert exc.value is error
        self._assert_no_child_left()

    def test_interrupt_while_waiting_reaps_every_child(self, monkeypatch):
        # a KeyboardInterrupt that arrives during the first wait must not
        # leave the other child unreaped
        real_waitpid = os.waitpid
        calls = []

        def waitpid(pid, options):
            calls.append(pid)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return real_waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", waitpid)
        self._shrink(monkeypatch, 16)
        g, prior = self.PRIORS["xor"]
        with pytest.raises(KeyboardInterrupt):
            self._sample(monkeypatch, 3, g, prior, 48, 2, 0)
        monkeypatch.setattr(os, "waitpid", real_waitpid)
        # the interrupted pid is waited for again, then the second child
        assert len(calls) == 3 and calls[0] == calls[1] != calls[2]
        self._assert_no_child_left()


class TestBulkSeeding:
    """The sampler's bulk seeding must put environment e's generator in
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
            assert np.random.PCG64(sampling._SeedWords(words[e])).state == state

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sampling._seed_words(-1, 1)

    def test_draws_match_default_rng(self):
        # each generator seeded from the bulk words continues its stream
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 5, 3, 2**64)
        for e in range(5):
            rng = np.random.default_rng((2**64, e))
            cpts = _reference_cpts(prior, g, rng)
            order = g.topological_order()
            pa_info = {i: parent_configs(g, prior.cardinalities, i) for i in range(g.d)}
            ref = _ancestral_sample(order, pa_info, prior.cardinalities, cpts, 3, rng)
            assert np.array_equal(ds.envs[e], ref)

    def test_seed_validation_unchanged(self):
        g, prior = bivariate_xor_model()
        for bad, error in ((-1, ValueError), (1.5, TypeError)):
            with pytest.raises(error):
                np.random.default_rng((bad, 0))
            with pytest.raises(error):
                sample_dataset(g, prior, 4, 2, bad)

    def test_drifted_seeding_fails_explicitly(self, monkeypatch):
        monkeypatch.setattr(sampling, "_MULT_B", sampling._MULT_B + 2)
        g, prior = bivariate_xor_model()
        with pytest.raises(RuntimeError, match=np.__version__):
            sample_dataset(g, prior, 4, 2, 0)

    def test_environment_index_limit(self):
        # rejected before anything is allocated
        g, prior = bivariate_xor_model()
        with pytest.raises(ValueError, match="2\\*\\*32"):
            sample_dataset(g, prior, 2**32 + 1, 2, 0)


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
