import functools
import hashlib
import itertools
import math
import struct
import tracemalloc

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
from exdag.graphs import Dag, ci_statements, statement
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
        # small budgets split the windows and each batch's blocks many times
        for cells in (1, 100, 1000):
            monkeypatch.setattr(ci_test, "_BLOCK_CELLS", cells)
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


class TestDataOrderPlan:
    """On samples of a 2-node model, a list over all four (variable,
    sample) nodes, with multi-node sides and givens, has F axes whose
    (variable, sample) order is not the sample-major order of the exact
    joint; every G equals the per-stratum loop on directly counted cubes."""

    def test_multi_node_given_matches_reference(self):
        rng = np.random.default_rng(43)
        cards = (3, 2)
        x = rng.integers(0, 3, size=(600, 1))
        y = (x + rng.integers(0, 2, size=(600, 1))) % 2  # Y leans on X
        envs = np.split(np.hstack([x, y]), 300)
        ds = EnvDataset(d=2, cardinalities=cards, envs=envs)
        nodes = [(0, 0), (0, 1), (1, 0), (1, 1)]
        stmts = [statement([(1, 0)], [(0, 1)], [(0, 0), (1, 1)])]
        for sides in itertools.product(range(3), repeat=len(nodes)):
            left, right, given = ([n for n, side in zip(nodes, sides) if side == k] for k in range(3))
            if left and right:
                stmts.append(statement(left, right, given))
        results = run_ci_tests(pattern_table(ds, nodes), stmts)
        for stmt, res in zip(stmts, results):
            assert (res.statistic, res.dof, res.p_value) == _g_test_loop(_reference_counts(ds, stmt))
        assert 0 < sum(res.independent for res in results) < len(results)


class TestWindowedPlan:
    """The data tester fills F's arrays a window at a time, and builds the
    index of the patterns it does not hold while it gathers, so a list's
    memory follows its largest F, not its length; G is the same either way."""

    def test_windows_and_built_patterns_agree(self, monkeypatch):
        for ds, table, stmts in TestStatementLists._lists():
            whole = [_bits(res) for res in run_ci_tests(table, stmts)]
            for cells, held in ((1, 0), (100, 0), (1, 1 << 10), (1000, 1 << 10)):
                monkeypatch.setattr(ci_test, "_BLOCK_CELLS", cells)
                monkeypatch.setattr(ci_test, "_HELD_PATTERN_CELLS", held)
                ci_test._moved.cache_clear()  # its entries hold patterns by the budget
                assert [_bits(res) for res in run_ci_tests(table, stmts)] == whole
            monkeypatch.undo()
            ci_test._moved.cache_clear()

    def test_peak_follows_one_coordinate_set(self):
        # 9 ternary variables: each sink-sweep F has 3^10 cells, one window each
        rng = np.random.default_rng(47)
        d = 9
        ds = EnvDataset(d=d, cardinalities=(3,) * d, envs=list(rng.integers(0, 3, size=(300, 2, d))))
        table = pattern_table(ds, [(v, s) for s in (0, 1) for v in range(d)])

        def peak(probes):
            stmts = [statement([(i, 0)], [(j, 1)], [(v, 0) for v in range(d) if v != i])
                     for j in probes for i in range(d) if i != j]
            tracemalloc.start()
            try:
                run_ci_tests(table, stmts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak([0])  # 8 statements on one F
        assert peak(range(d)) < 1.5 * one  # 72 statements on 9 F's


def _fill_groups_of(plan):
    """Per window of `plan`, each `_FillGroup` with its members' keys; a
    window whose F's are each filled alone yields none."""
    for a, b, groups in plan.windows:
        f = a
        for group in groups or ():
            size = plan.starts[f + 1] - plan.starts[f] if group.index is None else group.index.size
            stop = plan.starts.index(plan.starts[f] + size)
            yield group, plan.fulls[f:stop]
            f = stop
        assert f == b or groups is None


class TestFillGroups:
    """A run of a window's F's is filled from one count array of their
    union, extended by a sum slot on each axis some member omits, where
    that holds at most `_BLOCK_CELLS` cells and takes no more numpy passes
    than one fill per member.  Sums of integer counts are exact, so every
    F's array is the one its own fill makes, bit for bit, whatever the
    budget and so the groups."""

    def test_counts_match_one_fill_per_f_at_every_budget(self, monkeypatch):
        rng = np.random.default_rng(53)
        cards = (2, 3, 2)
        envs = [rng.integers(0, cards, size=(2, 3)) for _ in range(150)]
        ds = EnvDataset(d=3, cardinalities=cards, envs=envs)
        nodes = [(v, s) for v in range(3) for s in range(2)]
        table = pattern_table(ds, nodes)
        stmts = list(ci_statements(nodes, 4))
        whole = [_bits(res) for res in run_ci_tests(table, stmts)]
        fill = functools.partial(ci_test._count_array, table)
        splits = set()
        for cells in (1, 16, 64, 200, 729, 2000, 1 << 14):
            monkeypatch.setattr(ci_test, "_BLOCK_CELLS", cells)
            plan = ci_test._statement_plan(stmts, cards)
            split = []
            for group, members in _fill_groups_of(plan):
                one_each = np.concatenate([fill(key).ravel() for key in members])
                assert group.filled(fill).tobytes() == one_each.tobytes()
                union = fill(group.key).shape
                extended = math.prod(k + (a in group.sums) for a, k in enumerate(union))
                assert len(members) == 1 or (extended <= cells
                                             and 1 + len(group.sums) <= len(members))
                split.append((len(members), len(group.sums)))
            assert [_bits(res) for res in run_ci_tests(table, stmts)] == whole
            splits.add(tuple(split))
            if cells >= 16:
                assert any(members > 1 for members, _ in split)
        # at 1 cell every F is alone, from 16 to 729 the groups split
        # otherwise at each budget, and from 2,000 the whole list is one
        # group of the union's 6 axes, each summed (3 * 4 * 3 * 4 * 3 * 4 cells)
        assert len(splits) == 6 and split == [(57, 6)]

    @pytest.mark.parametrize("samples", [None, 2])
    def test_sink_sweep_fs_are_filled_alone(self, samples):
        # each sink-sweep F adds one sample-1 node to the same sample-0 nodes,
        # so a run of m of them omits m axes: one fill per F is fewer passes
        for d in (3, 4, 6):
            stmts = [statement([(i, 0)], [(j, 1)], [(v, 0) for v in range(d) if v != i])
                     for i in range(d) for j in range(d) if j != i]
            plan = ci_test._statement_plan(stmts, (2,) * d, samples)
            assert len(plan.fulls) == d
            assert all(groups is None for _, _, groups in plan.windows)

    def test_window_without_a_group_is_filled_alone(self):
        # F {x0, y0, z0} has no node new to the list, but a run of two F's
        # here omits at least two axes, and of all three, four
        x0, y0, z0, w0 = ((v, 0) for v in range(4))
        stmts = [statement([x0], [y0]), statement([z0], [w0]), statement([x0], [y0], [z0])]
        plan = ci_test._statement_plan(stmts, (2,) * 4)
        assert [(a, b) for a, b, _ in plan.windows] == [(0, 3)]
        assert plan.windows[0][2] is None
        # with F {z0, w0, x0} in its place, F's 2 and 3 differ in one node
        stmts[2] = statement([z0], [w0], [x0])
        (_, _, groups), = ci_test._statement_plan(stmts, (2,) * 4).windows
        assert [(g.sums, g.index is None) for g in groups] == [((), True), ((0,), False)]


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

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, 1.5, float("nan")])
    def test_level_outside_unit_interval_rejected(self, alpha):
        cube = ContingencyCube(np.array([[[10.0, 20.0], [30.0, 40.0]]]), 2, 2, ())
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            g_test(cube, alpha=alpha)

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

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, 1.5, float("nan")])
    def test_level_outside_unit_interval_rejected(self, alpha):
        ds = _dataset([[[0, 1], [1, 0]], [[1, 1], [0, 0]]])
        stmt = statement([(0, 0)], [(1, 1)])
        for stmts in ([stmt], []):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got"):
                run_ci_tests(_table(ds, stmt), stmts, alpha)

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

    def test_infinite_and_nan_statistic(self):
        # inf used to run out the continued fraction and raise ArithmeticError
        assert chi2_sf(math.inf, 1) == 0.0
        assert chi2_sf(math.inf, 10**8) == 0.0
        assert chi2_sf(math.inf, 0) == 1.0
        for dof in (0, 3):
            with pytest.raises(ValueError, match="got nan"):
                chi2_sf(math.nan, dof)

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

    def test_non_converging_sums_fall_back_to_temme(self):
        # dof = 10**8 at x = dof needs far more than 10,000 series terms (a
        # truncated sum read 0.5786); at eta = 0 Temme's expansion is
        # 1/2 - 1/(3 sqrt(pi dof)) - 1/(270 dof sqrt(pi dof)) + O(dof^-2.5)
        assert ci_test._gamma_p_series(5e7, 5e7) is None
        for dof in (4 * 10**6, 10**8, 10**10):
            root = math.sqrt(math.pi * dof)
            assert chi2_sf(float(dof), dof) == pytest.approx(
                0.5 - 1 / (3 * root) - 1 / (270 * dof * root), abs=1e-15
            )
        # where the series still converges, the expansion agrees with it
        # to the series' own error: its prefactor exp(-x + a log x -
        # lgamma(a)) loses about a * 1e-16 (3.4e-10 here, against mpmath)
        dof = 2 * 10**6
        for t in (-5.0, -1.0, 0.0, 1.0, 5.0):
            x = dof + t * math.sqrt(2 * dof)
            assert ci_test._gamma_q_temme(dof / 2, x / 2) == pytest.approx(
                chi2_sf(x, dof), abs=1e-9
            )

    @pytest.mark.parametrize("dof, tol", [(10**6, 2e-8), (10**8, 3e-8), (10**10, 5e-6)])
    def test_large_dof_against_wilson_hilferty(self, dof, tol):
        # Wilson-Hilferty: (X / dof)^(1/3) is about normal, mean 1 - 2/(9 dof),
        # variance 2/(9 dof); its own error is about 1e-8 at dof 1e6 and
        # falls with dof.  Above x = dof + 2 the continued fraction converges
        # here, and keeps its value, whose prefactor is off by up to about
        # dof * 1e-16 relative: 1.5e-8 at dof 1e8, 2.9e-6 at dof 1e10 (at
        # x = dof + sqrt(2 dof)); below, the series or the expansion is
        # within 1e-10 of Wilson-Hilferty at dof 1e8 and 1e10 (9e-11 at
        # t = -1, dof 1e8, Wilson-Hilferty's own error)
        var = 2 / (9 * dof)
        for t in (-5.0, -3.0, -1.0, 0.0, 1.0, 3.0, 5.0):
            x = dof + t * math.sqrt(2 * dof)
            z = ((x / dof) ** (1 / 3) - (1 - var)) / math.sqrt(var)
            wilson_hilferty = 0.5 * math.erfc(z / math.sqrt(2))
            assert chi2_sf(x, dof) == pytest.approx(wilson_hilferty, abs=tol)
            if dof > 10**6 and t <= 0:
                assert chi2_sf(x, dof) == pytest.approx(wilson_hilferty, abs=3e-10)

    def test_bounds(self):
        for dof in (1, 3, 9):
            for x in (0.0, 0.3, 3.0, 33.0, 333.0):
                assert 0.0 <= chi2_sf(x, dof) <= 1.0
