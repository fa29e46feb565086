import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exdag import ci_test
from exdag.ci_test import (
    ContingencyCube,
    chi2_sf,
    g_test,
    pattern_table,
    tabulate,
)
from exdag.ci_test import test_statement as run_ci_test
from exdag.ci_test import test_statements as run_ci_tests
from exdag.discovery import data_tester
from exdag.graphs import Dag, statement
from exdag.sampling import EnvDataset, MixturePrior, XorBetaPrior, sample_dataset


def _dataset(rows_per_env):
    envs = [np.asarray(rows) for rows in rows_per_env]
    d = envs[0].shape[1]
    cards = tuple(int(max(r[:, i].max() for r in envs)) + 1 for i in range(d))
    return EnvDataset(d=d, cardinalities=cards, envs=envs)


def _table(ds, stmt):
    """A pattern table over `stmt`'s own coordinates."""
    return pattern_table(ds, sorted(stmt.left | stmt.right | stmt.given))


def _g_test_loop(counts):
    """Reference: the per-stratum G-test loop, (statistic, dof, p_value)."""
    counts = counts.astype(float)
    g_stat = 0.0
    dof = 0
    for table in counts:
        total = table.sum()
        if total == 0:
            continue
        row = table.sum(axis=1)
        col = table.sum(axis=0)
        r = int(np.count_nonzero(row))
        c = int(np.count_nonzero(col))
        if r < 2 or c < 2:
            continue
        expected = np.outer(row, col) / total
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(table > 0, table * np.log(table / expected), 0.0)
        g_stat += 2.0 * terms.sum()
        dof += (r - 1) * (c - 1)
    p = chi2_sf(g_stat, dof) if dof > 0 else 1.0
    return float(g_stat), dof, float(p)


class TestTabulate:
    def test_counts_one_observation_per_environment(self):
        ds = _dataset(
            [
                [[0, 0], [1, 1]],
                [[0, 1], [0, 0]],
                [[1, 0], [1, 1]],
                [[0, 0], [1, 0]],
            ]
        )
        stmt = statement([(0, 0)], [(1, 1)])
        cube = tabulate(_table(ds, stmt), stmt)
        assert cube.counts.shape == (1, 2, 2)
        assert cube.total == ds.n_envs
        # observations are (X at sample 0, Y at sample 1) per environment:
        # (0,1), (0,0), (1,1), (0,0)
        assert cube.counts[0].tolist() == [[2, 1], [0, 1]]

    def test_stratified(self):
        ds = _dataset(
            [
                [[0, 0], [0, 0]],
                [[0, 1], [1, 0]],
                [[1, 0], [0, 1]],
                [[1, 1], [1, 1]],
            ]
        )
        stmt = statement([(0, 0)], [(1, 0)], [(0, 1)])
        cube = tabulate(_table(ds, stmt), stmt)
        assert cube.counts.shape == (2, 2, 2)
        assert cube.strata_cards == (2,)
        assert cube.counts.sum() == 4

    def test_multi_node_sides(self):
        ds = _dataset([[[0, 1, 1], [1, 0, 0]]] * 3)
        stmt = statement([(0, 0), (1, 0)], [(2, 1)])
        cube = tabulate(_table(ds, stmt), stmt)
        assert cube.x_card == 4
        assert cube.counts.sum() == 3


def _reference_counts(ds, stmt):
    """Reference: one `values_at` gather of the statement's sorted given,
    left and right coordinates and a plain bincount of their C-order codes,
    shape (n_strata, kx, ky)."""
    given, left = sorted(stmt.given), sorted(stmt.left)
    coords = given + left + sorted(stmt.right)
    cards = [ds.cardinalities[v] for v, _ in coords]
    codes = np.ravel_multi_index(tuple(ds.values_at(coords).T), cards)
    kx = math.prod(cards[len(given) : len(given) + len(left)])
    ky = math.prod(cards[len(given) + len(left) :])
    return np.bincount(codes, minlength=math.prod(cards)).reshape(-1, kx, ky)


class TestPatternTable:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_counts_match_reference(self, data):
        """Counts from a table over every coordinate, in shuffled column
        order, and from a table over the statement's own coordinates equal
        the reference; on samples 0 and 1 the data tester's result is the
        G-test of the reference counts."""
        d = data.draw(st.integers(2, 4))
        cards = data.draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sizes = rng.integers(2, 5, size=data.draw(st.integers(1, 80)))
        envs = [rng.integers(0, cards, size=(n, d)) for n in sizes]
        ds = EnvDataset(d=d, cardinalities=tuple(cards), envs=envs)
        nodes = [(v, s) for v in range(d) for s in range(ds.min_samples)]
        nodes = data.draw(st.permutations(nodes))
        table = pattern_table(ds, nodes)  # columns in shuffled order
        assert table.weights.sum() == ds.n_envs
        picks = data.draw(st.permutations(nodes))
        nl, nr = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        ng = data.draw(st.integers(0, min(3, len(picks) - nl - nr)))
        stmt = statement(picks[:nl], picks[nl : nl + nr], picks[nl + nr : nl + nr + ng])
        ref = _reference_counts(ds, stmt)
        for source in (table, _table(ds, stmt)):
            cube = tabulate(source, stmt)
            assert cube.counts.dtype == np.int64
            assert np.array_equal(cube.counts, ref)
            assert (cube.x_card, cube.y_card) == ref.shape[1:]
            assert math.prod(cube.strata_cards) == ref.shape[0]
        if all(s <= 1 for _, s in picks[: nl + nr + ng]):
            two_sample = pattern_table(ds, [(v, s) for s in (0, 1) for v in range(d)])
            res = data_tester(two_sample)([stmt])[0]
            ref_res = g_test(ContingencyCube(ref, *ref.shape[1:], cube.strata_cards))
            assert (res.statistic, res.dof, res.p_value) == (
                ref_res.statistic, ref_res.dof, ref_res.p_value
            )

    def test_rejects_variable_outside_range(self):
        ds = _dataset([[[0, 1], [1, 0]], [[1, 1], [0, 0]]])
        table = pattern_table(ds, [(v, s) for s in (0, 1) for v in range(2)])
        for v in (-1, 2):
            stmt = statement([(v, 0)], [(0, 1)])
            with pytest.raises(ValueError, match=f"variable {v} outside"):
                tabulate(table, stmt)
            with pytest.raises(ValueError, match="variable index outside"):
                _table(ds, stmt)

    def test_rejects_uncovered_or_negative_sample(self):
        ds = _dataset([[[0, 1], [1, 0], [1, 1]], [[1, 1], [0, 0], [0, 1]]])
        table = pattern_table(ds, [(v, s) for s in (0, 1) for v in range(2)])
        with pytest.raises(ValueError, match=r"\(0, 2\) is not covered"):
            tabulate(table, statement([(0, 2)], [(1, 0)]))
        with pytest.raises(ValueError, match=r"\(0, -1\) is not covered"):
            tabulate(table, statement([(0, -1)], [(1, 0)]))
        with pytest.raises(ValueError, match="negative"):
            _table(ds, statement([(0, -1)], [(1, 0)]))
        with pytest.raises(ValueError, match="sample index 3"):
            _table(ds, statement([(0, 3)], [(1, 0)]))

    def test_int64_limit(self):
        # two environments of huge declared cardinality: nothing large is built
        huge = 2**40
        envs = [np.array([[0, 1, 0], [5, 0, 1]])] * 2
        ds = EnvDataset(d=3, cardinalities=(huge, 2, 2), envs=envs)
        with pytest.raises(ValueError, match=rf"int64.*\[{huge}, 2, 2, {huge}, 2, 2\]"):
            pattern_table(ds, [(v, s) for s in (0, 1) for v in range(3)])
        with pytest.raises(ValueError, match="int64"):
            _table(ds, statement([(0, 0)], [(0, 1)], [(1, 0), (2, 0)]))
        # a statement over the small variables codes within the limit
        stmt = statement([(1, 0)], [(2, 1)])
        cube = tabulate(_table(ds, stmt), stmt)
        assert cube.counts[0].tolist() == [[0, 0], [0, 2]]


class TestPinnedTabulation:
    """Counts and (G, dof, p) of seeded statements with multi-node sides,
    0-2 given nodes and cardinalities 2-4 on ragged data.  Each side is drawn
    from a shuffled node list, so coordinates arrive in no sorted order."""

    DIGEST = "15d297dce0a877a056cc4f41b69cc6e3a3cc74ce91fc1d15ef56e7b9dc43ce81"

    @staticmethod
    def _datasets():
        for seed in range(6):
            rng = np.random.default_rng(seed)
            cards = rng.integers(2, 5, size=4)
            n_envs = int(rng.integers(40, 400))
            sizes = rng.integers(3, 6, size=n_envs)
            rows = rng.integers(0, cards, size=(int(sizes.sum()), 4))
            copy = rng.random(rows.shape[0]) < 0.4  # make X1 lean on X0
            rows[copy, 1] = rows[copy, 0] % cards[1]
            envs = np.split(rows, np.cumsum(sizes)[:-1])
            yield rng, EnvDataset(d=4, cardinalities=tuple(int(k) for k in cards), envs=envs)

    def test_counts_and_results_unchanged(self):
        h = hashlib.sha256()
        n = 0
        for rng, ds in self._datasets():
            nodes = [(v, s) for v in range(ds.d) for s in range(3)]
            table = pattern_table(ds, nodes)
            for _ in range(60):
                picks = [nodes[i] for i in rng.permutation(len(nodes))]
                nl, nr = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                ng = int(rng.integers(0, 3))
                stmt = statement(picks[:nl], picks[nl : nl + nr], picks[nl + nr : nl + nr + ng])
                cube = tabulate(table, stmt)
                res = run_ci_test(table, stmt)
                h.update(np.asarray(cube.counts.shape, dtype=np.int64).tobytes())
                h.update(cube.counts.astype(np.int64).tobytes())
                h.update(struct.pack("<3q", cube.x_card, cube.y_card, len(cube.strata_cards)))
                h.update(np.asarray(cube.strata_cards, dtype=np.int64).tobytes())
                h.update(struct.pack("<dqd", res.statistic, res.dof, res.p_value))
                n += 1
        assert n == 360
        assert h.hexdigest() == self.DIGEST


def _bits(res):
    """A result's statement, G, dof, p and n_effective, floats as their bits."""
    return res.statement, struct.pack("<dqdq", res.statistic, res.dof, res.p_value, res.n_effective)


class TestStatementLists:
    """`test_statements` decides a list in one pass and gives, bit for bit,
    the results of testing each statement alone and of the per-stratum
    G loop on directly counted cubes."""

    @staticmethod
    def _lists():
        """Per ragged dataset: its three-sample table and a list that mixes
        cube shapes, statements sharing a coordinate set (every split of a
        drawn set into left, right and given), distinct sets, multi-node
        sides, empty `given` and repeats."""
        for rng, ds in TestPinnedTabulation._datasets():
            nodes = [(v, s) for v in range(ds.d) for s in range(3)]
            stmts = []
            for _ in range(12):
                picks = [nodes[i] for i in rng.permutation(len(nodes))]
                nl, nr = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                ng = int(rng.integers(0, 3))
                stmts.append(statement(picks[:nl], picks[nl : nl + nr], picks[nl + nr : nl + nr + ng]))
                if ng:
                    full = picks[: nl + nr + ng]
                    for cut in range(1, len(full) - 1):
                        stmts.append(statement(full[:cut], full[cut : cut + 1], full[cut + 1 :]))
            stmts += [stmts[k] for k in rng.integers(len(stmts), size=5)]
            yield ds, pattern_table(ds, nodes), stmts

    def test_equals_one_at_a_time_and_reference(self):
        for ds, table, stmts in self._lists():
            results = run_ci_tests(table, stmts)
            assert [_bits(res) for res in results] == [
                _bits(run_ci_test(table, stmt)) for stmt in stmts
            ]
            for stmt, res in zip(stmts, results):
                assert (res.statistic, res.dof, res.p_value) == _g_test_loop(
                    _reference_counts(ds, stmt)
                )
                assert res.n_effective == ds.n_envs
            shapes = {tabulate(table, stmt).counts.shape for stmt in stmts}
            full_sets = {stmt.left | stmt.right | stmt.given for stmt in stmts}
            assert len(shapes) > 1 and len(full_sets) < len(stmts)

    def test_every_split_and_stack_size_agree(self, monkeypatch):
        ds, table, stmts = next(self._lists())
        stmts = stmts[:24]
        whole = [_bits(res) for res in run_ci_tests(table, stmts)]
        for cut in range(len(stmts) + 1):
            parts = run_ci_tests(table, stmts[:cut]) + run_ci_tests(table, stmts[cut:])
            assert [_bits(res) for res in parts] == whole
        # small budgets flush each shape's stack many times in one call
        for cells in (1, 100, 1000):
            monkeypatch.setattr(ci_test, "_STACK_CELLS", cells)
            assert [_bits(res) for res in run_ci_tests(table, stmts)] == whole

    def test_empty_list(self):
        ds = _dataset([[[0, 1], [1, 0]], [[1, 1], [0, 0]]])
        assert run_ci_tests(pattern_table(ds, [(0, 0), (1, 1)]), []) == []

    def test_uncovered_coordinate_rejected(self):
        ds = _dataset([[[0, 1], [1, 0]], [[1, 1], [0, 0]]])
        table = pattern_table(ds, [(v, s) for s in (0, 1) for v in range(2)])
        stmts = [statement([(0, 0)], [(1, 1)]), statement([(0, 2)], [(1, 0)])]
        with pytest.raises(ValueError, match=r"\(0, 2\) is not covered"):
            run_ci_tests(table, stmts)


class TestGTest:
    def test_hand_computed_statistic(self):
        counts = np.array([[[10, 20], [30, 40]]], dtype=float)
        cube = ContingencyCube(counts=counts, x_card=2, y_card=2, strata_cards=())
        res = g_test(cube)
        expected = np.outer(counts[0].sum(1), counts[0].sum(0)) / 100.0
        g_ref = 2.0 * (counts[0] * np.log(counts[0] / expected)).sum()
        assert res.statistic == pytest.approx(g_ref)
        assert res.dof == 1
        assert 0.0 <= res.p_value <= 1.0

    def test_zero_margins_reduce_dof(self):
        counts = np.zeros((1, 3, 3))
        counts[0, :2, :2] = [[5, 5], [5, 5]]
        cube = ContingencyCube(counts=counts, x_card=3, y_card=3, strata_cards=())
        res = g_test(cube)
        assert res.dof == 1  # only the 2x2 nonzero block counts

    def test_degenerate_stratum_skipped(self):
        counts = np.array([[[4, 0], [6, 0]], [[3, 2], [2, 3]]], dtype=float)
        cube = ContingencyCube(counts=counts, x_card=2, y_card=2, strata_cards=(2,))
        res = g_test(cube)
        assert res.dof == 1  # first stratum has a single nonzero column

    def test_dof_zero_gives_p_one(self):
        counts = np.array([[[7, 0], [0, 0]]], dtype=float)
        cube = ContingencyCube(counts=counts, x_card=2, y_card=2, strata_cards=())
        res = g_test(cube)
        assert res.dof == 0
        assert res.p_value == 1.0
        assert res.independent

    def test_empty_cube_rejected(self):
        cube = ContingencyCube(np.zeros((1, 2, 2)), 2, 2, ())
        with pytest.raises(ValueError, match="empty"):
            g_test(cube)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_strata=st.integers(1, 200),
        kx=st.integers(1, 8),
        ky=st.integers(1, 8),
        rate=st.sampled_from([0.02, 0.1, 0.5, 2.0, 20.0]),
    )
    def test_matches_per_stratum_loop(self, seed, n_strata, kx, ky, rate):
        counts = np.random.default_rng(seed).poisson(rate, size=(n_strata, kx, ky))
        cube = ContingencyCube(counts=counts, x_card=kx, y_card=ky, strata_cards=(n_strata,))
        if counts.sum() == 0:
            with pytest.raises(ValueError, match="empty"):
                g_test(cube)
            return
        res = g_test(cube)
        assert (res.statistic, res.dof, res.p_value) == _g_test_loop(counts)

    def test_perfect_independence_gives_zero_statistic(self):
        counts = np.array([[[10, 10], [20, 20]]], dtype=float)
        cube = ContingencyCube(counts=counts, x_card=2, y_card=2, strata_cards=())
        res = g_test(cube)
        assert res.statistic == pytest.approx(0.0)
        assert res.p_value == 1.0


class TestTestStatement:
    def test_detects_dependence(self):
        # copies of one exchangeable variable are strongly dependent
        g = Dag(1, frozenset())
        ds = sample_dataset(g, MixturePrior((XorBetaPrior(1, 3),)), 2000, 2, 0)
        stmt = statement([(0, 0)], [(0, 1)])
        res = run_ci_test(_table(ds, stmt), stmt)
        assert not res.independent

    def test_accepts_independence(self):
        g = Dag(2, frozenset())
        prior = MixturePrior((XorBetaPrior(1, 3), XorBetaPrior(1, 3)))
        ds = sample_dataset(g, prior, 2000, 2, 0)
        stmt = statement([(0, 0)], [(1, 1)])
        res = run_ci_test(_table(ds, stmt), stmt)
        assert res.independent

    def test_result_serialization(self):
        g = Dag(2, frozenset())
        prior = MixturePrior((XorBetaPrior(1, 3), XorBetaPrior(1, 3)))
        ds = sample_dataset(g, prior, 100, 2, 0)
        stmt = statement([(0, 0)], [(1, 1)])
        data = run_ci_test(_table(ds, stmt), stmt).to_dict()
        assert set(data) == {"statement", "G", "dof", "p", "verdict", "n_effective"}
        assert data["n_effective"] == 100


class TestChi2Sf:
    def test_edge_cases(self):
        assert chi2_sf(0.0, 5) == 1.0
        assert chi2_sf(3.0, 0) == 1.0
        assert chi2_sf(1e6, 2) == 0.0
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, -1)

    def test_closed_form_dof_two(self):
        # dof = 2 is exponential: sf(x) = exp(-x/2)
        for x in (0.1, 1.0, 5.0, 20.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_against_scipy(self):
        from scipy.stats import chi2

        for dof in (1, 2, 3, 7, 15, 50):
            for x in (0.01, 0.5, 2.0, 5.0, 15.0, 60.0):
                assert chi2_sf(x, dof) == pytest.approx(chi2.sf(x, dof), abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 40.0, 200)
        for dof in (1, 4, 10):
            ps = [chi2_sf(x, dof) for x in xs]
            assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_non_convergence_raises(self):
        # dof = 10**8 at x = dof needs far more than 10,000 series terms; a
        # truncated sum read 0.5786 where the tail is about 0.49998
        with pytest.raises(ArithmeticError, match=r"series.*a=50000000\.0, x=50000000\.0"):
            chi2_sf(1e8, 10**8)

    def test_bounds(self):
        for dof in (1, 3, 9):
            for x in (0.0, 0.3, 3.0, 33.0, 333.0):
                assert 0.0 <= chi2_sf(x, dof) <= 1.0
