import itertools

import numpy as np
import pytest

from exdag import ci_test, discovery, oracle
from exdag.ci_test import CiResult
from exdag.discovery import (
    NoSinkFoundError,
    SinkOrder,
    X_INDEP_Y,
    X_TO_Y,
    Y_TO_X,
    bivariate_direction,
    discover,
    discover_with_tester,
    find_edges_with_tester,
    find_sink_order_with_tester,
)
from exdag.graphs import Dag, _separations, enumerate_dags, icm_unroll
from exdag.harness import preset_graph
from exdag.oracle import oracle_tester, random_generic_model
from exdag.sampling import (
    EnvDataset,
    MixturePrior,
    XorBetaPrior,
    bivariate_xor_model,
    sample_dataset,
)


def graph_tester(g: Dag, n_samples: int = 2):
    """Infinite-data tester answering each list straight from m-separation,
    in one batched pass: a candidate's sweep statements share one (left,
    given), so they share one walk."""
    dmag = icm_unroll(g, n_samples)
    return lambda stmts: [
        CiResult(statement=stmt, statistic=0.0, dof=0, p_value=1.0 if separated else 0.0,
                 alpha=0.05, n_effective=0)
        for stmt, separated in zip(stmts, _separations(dmag, stmts))
    ]


class TestSinkOrder:
    def test_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            SinkOrder(((0, 1), (1,)))
        with pytest.raises(ValueError, match="nonempty"):
            SinkOrder(((0,), ()))
        with pytest.raises(ValueError, match=r"missing \[0\], extra \[2\]"):
            SinkOrder(((1,), (2,)))
        with pytest.raises(ValueError, match=r"missing \[1\], extra \[-1\]"):
            SinkOrder(((-1,), (0,)))


class TestFindSinkOrder:
    def test_chain_buckets(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        order = find_sink_order_with_tester(graph_tester(g), 3)
        assert order.buckets == ((2,), (1,), (0,))

    def test_fork_buckets(self):
        g = Dag(3, frozenset({(0, 1), (0, 2)}))
        order = find_sink_order_with_tester(graph_tester(g), 3)
        assert order.buckets == ((1, 2), (0,))

    def test_empty_graph_single_bucket(self):
        g = Dag(3, frozenset())
        order = find_sink_order_with_tester(graph_tester(g), 3)
        assert order.buckets == ((0, 1, 2),)

    def test_deadlock_raises_with_p_values(self):
        def always_dependent(stmts):
            return [CiResult(stmt, 100.0, 1, 0.001, 0.05, 10) for stmt in stmts]

        with pytest.raises(NoSinkFoundError) as err:
            find_sink_order_with_tester(always_dependent, 2)
        assert err.value.remaining == [0, 1]
        assert "minimum p-values" in str(err.value)

    def test_force_breaks_deadlock_by_max_min_p(self):
        p_for = {0: 0.002, 1: 0.04}  # both below alpha, 1 looks most sink-like

        def tester(stmts):
            return [CiResult(stmt, 10.0, 1, p_for[min(stmt.left)[0]], 0.05, 10) for stmt in stmts]

        order = find_sink_order_with_tester(tester, 2, force=True)
        assert order.buckets == ((1,), (0,))
        assert order.forced == ((0, 1, 0.04),)


class TestFindEdges:
    def test_statement_convention(self):
        seen = []

        def tester(stmts):
            seen.extend(stmts)
            return [CiResult(stmt, 0.0, 0, 1.0, 0.05, 0) for stmt in stmts]

        find_edges_with_tester(tester, SinkOrder(((1,), (0,))))
        assert len(seen) == 1
        stmt = seen[0]
        assert stmt.left == {(1, 0)}  # target at sample 0
        assert stmt.right == {(0, 1)}  # probe at sample 1
        assert stmt.given == frozenset()

    def test_gap_two_conditions_on_middle_bucket(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        seen = []
        tester = graph_tester(g)
        order = SinkOrder(((2,), (1,), (0,)))
        graph = find_edges_with_tester(lambda stmts: seen.extend(stmts) or tester(stmts), order)
        assert graph == g
        # the 2->0 gap-2 test conditions on the middle bucket variable
        gap2 = [s for s in seen if s.left == {(2, 0)} and s.right == {(0, 1)}]
        assert gap2 and gap2[0].given == {(1, 0)}

    def test_gap_three_conditions_on_whole_source_bucket(self):
        # at gap 3, target 4 meets source 0 before source 2, its parent in
        # the same bucket; conditioning on the collider 5 without 2 leaves
        # 4 <- 2 -> 3 -> 5 <- 1 <- 0 <-> 0' open and adds a false 0 -> 4
        g = Dag(7, frozenset({(0, 1), (1, 5), (2, 3), (2, 4), (3, 5), (3, 6), (5, 4)}))
        res = discover_with_tester(graph_tester(g), 7)
        assert res.sink_order.buckets == ((4, 6), (5,), (1, 3), (0, 2))
        assert res.graph == g
        gap3 = [s for s in res.test_log if s.statement.left == {(4, 0)} and s.statement.right == {(0, 1)}]
        assert gap3 and {(2, 0), (5, 0)} <= gap3[0].statement.given


class TestOracleDiscovery:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_msep_tester_recovers_every_dag(self, d):
        for g in enumerate_dags(d):
            res = discover_with_tester(graph_tester(g), d)
            assert res.graph == g

    def test_msep_tester_recovers_random_larger_dags(self):
        # edge identification's conditioning sets first go wrong at d = 7,
        # where a source bucket more than one gap above a target can hold
        # two or more variables
        for d in range(7, 11):
            rng = np.random.default_rng(d)
            for _ in range(300):
                order = rng.permutation(d)
                mask = rng.random((d, d)) < 0.5
                g = Dag(d, frozenset(
                    (int(order[a]), int(order[b]))
                    for a, b in itertools.combinations(range(d), 2)
                    if mask[a, b]
                ))
                assert discover_with_tester(graph_tester(g), d).graph == g, str(g)

    def test_exact_model_tester_recovers_random_models(self):
        rng = np.random.default_rng(0)
        for g in enumerate_dags(3)[::5]:
            model = random_generic_model(g, 2, rng)
            res = discover_with_tester(oracle_tester(model), 3)
            assert res.graph == g

    def test_result_dict(self):
        g = Dag(2, frozenset({(0, 1)}))
        res = discover_with_tester(graph_tester(g), 2)
        data = res.to_dict()
        assert Dag.from_dict(data["graph"]) == g
        assert data["buckets"] == [[1], [0]]
        assert len(data["tests"]) == len(res.test_log)


def _random_dag(d, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(d)
    return Dag(d, frozenset(
        (int(order[a]), int(order[b]))
        for a, b in itertools.combinations(range(d), 2)
        if rng.random() < 0.5
    ))


class TestOneTesterCallPerBatch:
    """Discovery hands the tester each sink sweep and each edge gap as one
    list, and logs the batches in call order."""

    @pytest.mark.parametrize("g", [
        preset_graph("chain4"),
        preset_graph("diamond4"),
        *(_random_dag(d, seed) for d, seed in [(3, 0), (5, 1), (6, 2), (7, 3)]),
    ], ids=["chain4", "diamond4", "random_d3", "random_d5", "random_d6", "random_d7"])
    def test_one_call_per_sweep_and_gap(self, g):
        batches = []
        tester = graph_tester(g)

        def counted(stmts):
            batches.append(list(stmts))
            return tester(stmts)

        res = discover_with_tester(counted, g.d)
        assert res.graph == g
        n_buckets = len(res.sink_order.buckets)
        assert n_buckets > 1
        # every gap 1..n_buckets-1 holds at least one pair of buckets
        assert len(batches) == n_buckets + (n_buckets - 1)
        assert [s for batch in batches for s in batch] == [r.statement for r in res.test_log]

    def test_bivariate_direction_makes_one_call_of_three(self, monkeypatch):
        calls = []
        make = discovery.data_tester

        def counting(*args):
            tester = make(*args)

            def counted(stmts):
                calls.append(list(stmts))
                return tester(stmts)

            return counted

        monkeypatch.setattr(discovery, "data_tester", counting)
        g, prior = bivariate_xor_model()
        assert bivariate_direction(sample_dataset(g, prior, 4000, 2, 1)) == X_TO_Y
        assert [len(stmts) for stmts in calls] == [3]


class TestStatisticalDiscovery:
    def test_bivariate_graph_from_data(self):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 4000, 2, 0)
        res = discover(ds)
        assert res.graph == g

    CHAIN4 = Dag(4, frozenset({(0, 1), (1, 2), (2, 3)}))

    def test_force_records_each_deadlocked_sweep(self):
        ds = sample_dataset(self.CHAIN4, MixturePrior((XorBetaPrior(1, 3),) * 4), 2000, 2, 8)
        with pytest.raises(NoSinkFoundError) as err:
            discover(ds)
        min_p = {i: min(ps) for i, ps in err.value.p_matrix.items()}
        v = max(min_p, key=min_p.get)
        forced = discover(ds, force=True).sink_order.forced
        # the strict run raises at the first deadlock; this dataset has a
        # second one at sweep 2, which only the forced run reaches
        assert forced[0] == (0, v, min_p[v])
        assert [sweep for sweep, _, _ in forced] == [0, 2]

    def test_forced_empty_without_deadlock(self):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 4000, 2, 0)
        strict = discover(ds)
        forced = discover(ds, force=True)
        assert forced.sink_order.forced == strict.sink_order.forced == ()
        assert forced.to_dict() == strict.to_dict()

    def test_alpha_is_the_level_discover_tests_at(self):
        # an oracle's verdicts take no level, so its run records none
        g, prior = bivariate_xor_model()
        model = random_generic_model(g, 2, np.random.default_rng(0))
        assert discover_with_tester(oracle_tester(model), 2).alpha is None
        ds = sample_dataset(g, prior, 500, 2, 0)
        assert discover(ds, alpha=0.01).to_dict()["alpha"] == 0.01

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5, float("nan")])
    def test_level_outside_unit_interval_rejected(self, alpha):
        ds = sample_dataset(preset_graph("fork3"), MixturePrior((XorBetaPrior(1, 3),) * 3),
                            2000, 2, 0)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            discover(ds, alpha=alpha, force=True)

    def test_requires_two_samples(self):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 100, 1, 0)
        message = r"^discovery requires at least 2 samples in every environment \(the cross"
        for run in (discover, bivariate_direction):
            with pytest.raises(ValueError, match=message):
                run(ds)


class TestOneGatherPerTester:
    """Each discovery run gathers its pattern table with one `values_at`
    call, and nothing is cached on the dataset."""

    @pytest.fixture
    def gathers(self, monkeypatch):
        calls = []
        values_at = EnvDataset.values_at

        def counted(ds, coords):
            calls.append(list(coords))
            return values_at(ds, coords)

        monkeypatch.setattr(EnvDataset, "values_at", counted)
        return calls

    def test_discover_gathers_once_per_call(self, gathers):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        ds = sample_dataset(g, MixturePrior((XorBetaPrior(1, 3),) * 3), 2000, 2, 0)
        first = discover(ds, force=True)
        assert len(first.test_log) > 1
        assert len(gathers) == 1
        second = discover(ds, force=True)
        assert len(gathers) == 2
        assert second.to_dict() == first.to_dict()

    def test_bivariate_direction_gathers_once(self, gathers):
        g, prior = bivariate_xor_model()
        bivariate_direction(sample_dataset(g, prior, 500, 2, 0))
        assert len(gathers) == 1


class TestOnePlanPerCall:
    """Each tester call builds exactly one statement plan, on data and on
    the exact oracle, which share the planner."""

    @pytest.fixture
    def plans(self, monkeypatch):
        sizes = []
        build = ci_test._statement_plan

        def counted(stmts, *args):
            sizes.append(len(stmts))
            return build(stmts, *args)

        monkeypatch.setattr(ci_test, "_statement_plan", counted)
        monkeypatch.setattr(oracle, "_statement_plan", counted)
        return sizes

    def test_discover_on_data(self, plans, monkeypatch):
        lists = []
        run = discovery.test_statements

        def counted(table, stmts, alpha):
            lists.append(len(stmts))
            return run(table, stmts, alpha)

        monkeypatch.setattr(discovery, "test_statements", counted)
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        ds = sample_dataset(g, MixturePrior((XorBetaPrior(1, 3),) * 3), 2000, 2, 0)
        discover(ds, force=True)
        assert len(lists) > 1 and plans == lists

    def test_discover_with_oracle_tester(self, plans):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        tester = oracle_tester(random_generic_model(g, 2, np.random.default_rng(7)))
        lists = []

        def counted(stmts):
            lists.append(len(stmts))
            return tester(stmts)

        assert discover_with_tester(counted, g.d).graph == g
        assert len(lists) > 1 and plans == lists


class TestBivariateDirection:
    def test_causal_direction(self):
        g, prior = bivariate_xor_model()
        ds = sample_dataset(g, prior, 4000, 2, 1)
        assert bivariate_direction(ds) == X_TO_Y

    def test_anticausal_direction(self):
        # same mechanism with the roles of the variables swapped
        g = Dag(2, frozenset({(1, 0)}))
        prior = MixturePrior((XorBetaPrior(1, 3), XorBetaPrior(1, 3)))
        ds = sample_dataset(g, prior, 4000, 2, 1)
        assert bivariate_direction(ds) == Y_TO_X

    def test_independent_is_majority_verdict(self):
        # with no edge, all three hypothesis statements are true; the
        # highest-p rule picks X _||_ Y only as the most frequent verdict
        from collections import Counter

        g = Dag(2, frozenset())
        prior = MixturePrior((XorBetaPrior(1, 3), XorBetaPrior(1, 3)))
        verdicts = Counter(
            bivariate_direction(sample_dataset(g, prior, 2000, 2, r)) for r in range(60)
        )
        assert verdicts.most_common(1)[0][0] == X_INDEP_Y

    def test_requires_two_variables(self):
        ds = EnvDataset(d=1, cardinalities=(2,), envs=[np.zeros((2, 1), dtype=int)] * 3)
        with pytest.raises(ValueError, match="2 variables"):
            bivariate_direction(ds)
