import itertools
import json
import random

import pytest

from exdag.graphs import (
    CiStatement,
    Dag,
    Dmag,
    EnumerationSizeError,
    ci_set,
    ci_statements,
    enumerate_dags,
    icm_unroll,
    _separations,
    m_separated,
    statement,
)

CHAIN = Dag(3, frozenset({(0, 1), (1, 2)}))
FORK = Dag(3, frozenset({(0, 1), (0, 2)}))
COLLIDER = Dag(3, frozenset({(0, 2), (1, 2)}))


def d_separated(g: Dag, s: CiStatement) -> bool:
    """d-separation as m-separation over the DAG's own nodes, with no
    bidirected edges."""
    return m_separated(Dmag(frozenset(range(g.d)), g.edges, frozenset()), s)


class TestDag:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(2, frozenset({(0, 1), (1, 0)}))
        with pytest.raises(ValueError, match="cycle"):
            Dag(3, frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            Dag(2, frozenset({(1, 1)}))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Dag(2, frozenset({(0, 2)}))

    def test_parents_children(self):
        assert CHAIN.parents(1) == {0}
        assert CHAIN.parents(0) == frozenset()
        assert COLLIDER.parents(2) == {0, 1}

    def test_topological_order(self):
        assert CHAIN.topological_order() == [0, 1, 2]
        assert Dag(3, frozenset({(2, 1), (1, 0)})).topological_order() == [2, 1, 0]
        # isolated nodes appear in index order
        assert Dag(3, frozenset()).topological_order() == [0, 1, 2]

    def test_skeleton_and_v_structures(self):
        assert CHAIN.skeleton() == {frozenset({0, 1}), frozenset({1, 2})}
        assert CHAIN.v_structures() == frozenset()
        assert COLLIDER.v_structures() == {(0, 2, 1)}
        # shielded collider is not a v-structure
        shielded = Dag(3, frozenset({(0, 2), (1, 2), (0, 1)}))
        assert shielded.v_structures() == frozenset()

    def test_json_round_trip(self):
        for g in (CHAIN, FORK, COLLIDER, Dag(1, frozenset())):
            assert Dag.from_dict(json.loads(json.dumps(g.to_dict()))) == g

    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_fewer_than_one_node(self, d):
        with pytest.raises(ValueError, match=rf"d must be >= 1, got {d}$"):
            Dag(d, frozenset())
        with pytest.raises(ValueError, match=rf"d must be >= 1, got {d}$"):
            Dag.from_dict({"d": d, "edges": []})

    @pytest.mark.parametrize("d", [2.5, 2.0, True, "2"])
    def test_from_dict_takes_only_an_int_size(self, d):
        # int() would read 2.5 as 2 and True as 1
        with pytest.raises(TypeError, match=f"d must be an integer, got {d!r}"):
            Dag.from_dict({"d": d, "edges": [[0, 1]]})


class TestCiStatement:
    def test_requires_nonempty_sides(self):
        with pytest.raises(ValueError, match="nonempty"):
            CiStatement(frozenset(), frozenset({1}), frozenset())

    def test_requires_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            CiStatement(frozenset({0}), frozenset({0}), frozenset())
        with pytest.raises(ValueError, match="disjoint"):
            CiStatement(frozenset({0}), frozenset({1}), frozenset({1}))

    def test_enumerated_statements_equal_checked_ones(self):
        # ci_statements skips the constructor's checks; its statements must
        # still be what the checked constructor builds
        for s in ci_statements(range(5), 3):
            checked = CiStatement(s.left, s.right, s.given)
            assert s == checked and hash(s) == hash(checked)
            assert all(type(side) is frozenset for side in (s.left, s.right, s.given))

    def test_statement_helper(self):
        s = statement([0], [1], [2])
        assert s.left == {0} and s.right == {1} and s.given == {2}

    def test_str(self):
        assert str(statement([0], [1], [2])) == "{0} _||_ {1} | {2}"


class TestDSeparation:
    def test_chain(self):
        assert not d_separated(CHAIN, statement([0], [2]))
        assert d_separated(CHAIN, statement([0], [2], [1]))

    def test_fork(self):
        assert not d_separated(FORK, statement([1], [2]))
        assert d_separated(FORK, statement([1], [2], [0]))

    def test_collider(self):
        assert d_separated(COLLIDER, statement([0], [1]))
        assert not d_separated(COLLIDER, statement([0], [1], [2]))

    def test_collider_descendant_opens(self):
        g = Dag(4, frozenset({(0, 2), (1, 2), (2, 3)}))
        assert d_separated(g, statement([0], [1]))
        assert not d_separated(g, statement([0], [1], [3]))

    def test_symmetry(self):
        for g in enumerate_dags(3):
            for a, b in itertools.combinations(range(3), 2):
                c = 3 - a - b
                for given in ([], [c]):
                    assert d_separated(g, statement([a], [b], given)) == d_separated(
                        g, statement([b], [a], given)
                    )

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            d_separated(CHAIN, statement([0], [7]))


class TestIcmUnroll:
    def test_structure(self):
        m = icm_unroll(Dag(2, frozenset({(0, 1)})), 3)
        assert m.nodes == {(i, n) for i in range(2) for n in range(3)}
        assert m.directed == {((0, n), (1, n)) for n in range(3)}
        # one bidirected edge per variable per sample pair
        assert len(m.bidirected) == 2 * 3

    def test_single_sample_has_no_bidirected(self):
        m = icm_unroll(CHAIN, 1)
        assert m.bidirected == frozenset()

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            icm_unroll(CHAIN, 0)


class TestMSeparation:
    def test_causal_statement_holds(self):
        # X -> Y unrolled: X1 _||_ Y2 | X2
        m = icm_unroll(Dag(2, frozenset({(0, 1)})), 2)
        assert m_separated(m, statement([(0, 0)], [(1, 1)], [(0, 1)]))

    def test_anticausal_statement_fails(self):
        m = icm_unroll(Dag(2, frozenset({(0, 1)})), 2)
        assert not m_separated(m, statement([(0, 0)], [(1, 1)], [(1, 0)]))

    def test_copies_tied_by_latent(self):
        m = icm_unroll(Dag(1, frozenset()), 2)
        assert not m_separated(m, statement([(0, 0)], [(0, 1)]))

    def test_cross_variable_marginal_in_empty_graph(self):
        m = icm_unroll(Dag(2, frozenset()), 2)
        assert m_separated(m, statement([(0, 0)], [(1, 1)]))
        assert m_separated(m, statement([(0, 0)], [(1, 0)]))

    def test_bidirected_collider(self):
        # conditioning on the second copy of the child opens the collider on
        # the path Y1 <-> Y2 <- X2
        m = icm_unroll(Dag(2, frozenset({(0, 1)})), 2)
        assert not m_separated(m, statement([(1, 0)], [(0, 1)], [(1, 1)]))


def brute_force_separated(nodes, directed, bidirected, s):
    """Reference m-separation straight from the definition: no simple path
    joins a left node to a right node on which every collider (arrowheads
    on both of its path edges) is in the conditioning set or an ancestor of
    it, and every other interior node is outside the conditioning set.
    Paths are edge sequences, so a directed and a bidirected edge between
    the same two nodes are different paths."""
    incident = {v: [] for v in nodes}  # v -> [(neighbor, head at v, head at neighbor)]
    for u, v in directed:
        incident[u].append((v, False, True))
        incident[v].append((u, True, False))
    for u, v in map(tuple, bidirected):
        incident[u].append((v, True, True))
        incident[v].append((u, True, True))
    an_given = set(s.given)
    while True:
        grown = {u for u, v in directed if v in an_given} - an_given
        if not grown:
            break
        an_given |= grown

    def connects(v, head_in, visited):
        for w, head_at_v, head_at_w in incident[v]:
            if w in visited:
                continue
            if head_in is not None:  # v is interior to the path
                if head_in and head_at_v:
                    if v not in an_given:
                        continue
                elif v in s.given:
                    continue
            if w in s.right or connects(w, head_at_w, visited | {w}):
                return True
        return False

    return not any(connects(x, None, {x}) for x in s.left)


def _random_statement(rng, nodes):
    """Disjoint left, right and given sets, left and right nonempty."""
    while True:
        roles = [rng.choice("LRZ..") for _ in nodes]
        left = [v for v, r in zip(nodes, roles) if r == "L"]
        right = [v for v, r in zip(nodes, roles) if r == "R"]
        if left and right:
            given = [v for v, r in zip(nodes, roles) if r == "Z"]
            return statement(left, right, given)


def _random_dmag(rng, n):
    """A random mixed graph on nodes 0..n-1: directed edges along a random
    order, and bidirected edges between any two nodes."""
    order = rng.sample(range(n), n)
    directed = {
        (order[a], order[b])
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < 0.35
    }
    bidirected = {
        frozenset(p) for p in itertools.combinations(range(n), 2) if rng.random() < 0.25
    }
    return Dmag(frozenset(range(n)), frozenset(directed), frozenset(bidirected))


def _path_separated(m, s):
    return brute_force_separated(m.nodes, m.directed, m.bidirected, s)


class TestSeparationAgainstPathDefinition:
    """`m_separated` agrees with path enumeration on small random mixed
    graphs and DAGs, for singleton and multi-node sides."""

    def test_m_separated(self):
        rng = random.Random(0)
        verdicts = []
        for _ in range(300):
            n = rng.randint(2, 6)
            m = _random_dmag(rng, n)
            for _ in range(10):
                s = _random_statement(rng, list(range(n)))
                want = _path_separated(m, s)
                assert m_separated(m, s) == want, (repr(m), str(s))
                verdicts.append(want)
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8

    def test_d_separated(self):
        rng = random.Random(1)
        verdicts = []
        for _ in range(300):
            n = rng.randint(2, 6)
            order = rng.sample(range(n), n)
            g = Dag(n, frozenset(
                (order[a], order[b])
                for a, b in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            ))
            for _ in range(10):
                s = _random_statement(rng, list(range(n)))
                want = brute_force_separated(range(n), g.edges, (), s)
                assert d_separated(g, s) == want, (str(g), str(s))
                verdicts.append(want)
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


class TestBatchedSeparations:
    """One `_separations` call equals path enumeration per statement, in
    input order, whatever else shares the call."""

    def test_match_path_definition_in_input_order(self):
        rng = random.Random(2)
        verdicts = []
        for _ in range(150):
            m = _random_dmag(rng, rng.randint(3, 7))
            nodes = sorted(m.nodes)
            stmts = [_random_statement(rng, nodes) for _ in range(8)]
            # every right side, of one node and of two, under some (left, given)
            for s in stmts[:3]:
                rest = [v for v in nodes if v not in s.left | s.given]
                for size in (1, 2):
                    stmts += [
                        statement(s.left, right, s.given)
                        for right in itertools.combinations(rest, size)
                    ]
            stmts += stmts[:4]  # duplicates
            rng.shuffle(stmts)
            assert len({(s.left, s.given) for s in stmts}) < len(stmts)
            got = _separations(m, stmts)
            assert got == [_path_separated(m, s) for s in stmts], repr(m)
            verdicts += got
        assert 0.1 < sum(verdicts) / len(verdicts) < 0.9

    def test_ci_set_is_filtered_ci_statements(self):
        rng = random.Random(3)
        for _ in range(40):
            m = _random_dmag(rng, rng.randint(2, 6))
            for k in (0, 1, 2, len(m.nodes)):
                want = [s for s in ci_statements(m.nodes, k) if _path_separated(m, s)]
                assert ci_set(m, k) == sorted(want, key=CiStatement.sort_key)

    def test_unknown_node_named_wherever_it_sits(self):
        m = icm_unroll(CHAIN, 2)
        good = list(ci_statements(m.nodes, 1))[:5]
        for bad in (
            statement([(5, 1)], [(0, 0)]),
            statement([(0, 0)], [(5, 1)], [(1, 0)]),
            statement([(0, 0)], [(1, 1)], [(1, 0), (5, 1)]),
        ):
            for at in (0, 2, len(good)):
                with pytest.raises(ValueError, match=r"unknown node \(5, 1\)"):
                    _separations(m, good[:at] + [bad] + good[at:])


class TestCanonicalNumbering:
    """Node i of a graph's sorted nodes is bit i, whatever order its node set
    iterates in, so one cached separation plan serves every graph over the
    same nodes.  Nodes 1024 * i share a hash bucket, so a frozenset of them
    iterates in insertion order."""

    @staticmethod
    def _reinserted(m, rng):
        """`m` on nodes 1024 * v, its nodes and edges inserted in random order."""
        nodes = [1024 * v for v in m.nodes]
        directed = [(1024 * u, 1024 * v) for u, v in m.directed]
        bidirected = [frozenset(1024 * v for v in pair) for pair in m.bidirected]
        for seq in (nodes, directed, bidirected):
            rng.shuffle(seq)
        return Dmag(nodes, directed, bidirected)

    def test_insertion_order_changes_no_verdict(self):
        rng = random.Random(5)
        unsorted = 0
        for _ in range(12):
            base = _random_dmag(rng, rng.randint(4, 7))
            copies = [self._reinserted(base, rng) for _ in range(4)]
            assert len({tuple(m.nodes) for m in copies}) > 1
            unsorted += sum(list(m.nodes) != sorted(m.nodes) for m in copies)
            nodes = sorted(copies[0].nodes)
            stmts = [_random_statement(rng, nodes) for _ in range(30)]
            want_set = [s for s in ci_statements(nodes, 2) if _path_separated(copies[0], s)]
            want = [_path_separated(copies[0], s) for s in stmts]
            for m in copies:
                assert ci_set(m, 2) == sorted(want_set, key=CiStatement.sort_key)
                assert _separations(m, stmts) == want
        assert unsorted > 0

    def test_unknown_node_named_after_cached_ci_set(self):
        for m in (icm_unroll(CHAIN, 2), self._reinserted(_random_dmag(random.Random(1), 5),
                                                         random.Random(2))):
            ci_set(m, 3)  # fills the enumeration cache
            good = list(ci_statements(m.nodes, 1))[:3]
            with pytest.raises(ValueError, match=r"unknown node \(5, 1\)"):
                m_separated(m, statement([sorted(m.nodes)[0]], [(5, 1)]))
            with pytest.raises(ValueError, match=r"unknown node \(5, 1\)"):
                _separations(m, good + [statement([(5, 1)], [sorted(m.nodes)[0]])])


    def test_masks_past_63_nodes(self):
        # bit 63 and above do not fit an int64, so the masks stay Python ints
        chain = Dmag(range(70), {(i, i + 1) for i in range(69)}, {frozenset((0, 69))})
        stmts = [statement([0], [69]), statement([1], [68], [35]), statement([1], [68]),
                 statement([0], [68], [69]), statement([1], [69], [0, 35])]
        assert _separations(chain, stmts) == [_path_separated(chain, s) for s in stmts]
        assert _separations(chain, stmts) == [False, True, False, False, True]


class TestCiSet:
    def test_sorted_and_deterministic(self):
        m = icm_unroll(FORK, 2)
        s1 = ci_set(m, 4)
        s2 = ci_set(m, 4)
        assert s1 == s2
        assert s1 == sorted(s1, key=CiStatement.sort_key)

    def test_empty_graph_all_cross_pairs_separated(self):
        m = icm_unroll(Dag(2, frozenset()), 2)
        cis = ci_set(m, 0)
        keys = {s.sort_key() for s in cis}
        assert (((0, 0),), ((1, 0),), ()) in keys
        assert (((0, 0),), ((1, 1),), ()) in keys
        # tied copies are never separated
        assert (((0, 0),), ((0, 1),), ()) not in keys

    def test_node_limit(self):
        with pytest.raises(EnumerationSizeError):
            ci_set(icm_unroll(Dag(5, frozenset()), 3), 2)

    def test_negative_condition_size_rejected(self):
        with pytest.raises(ValueError, match="max_condition_size must be >= 0, got -1"):
            ci_set(icm_unroll(FORK, 2), -1)


def _reference_statements(nodes, k):
    """The enumeration order written out: pairs a < b, then conditioning
    sets by size, then lexicographically."""
    nodes = sorted(nodes)
    out = []
    for a, b in itertools.combinations(nodes, 2):
        rest = [v for v in nodes if v not in (a, b)]
        for size in range(min(k, len(rest)) + 1):
            out += [statement([a], [b], given) for given in itertools.combinations(rest, size)]
    return out


class TestEnumerationCache:
    """`ci_statements` and `ci_set` read one cached enumeration per (sorted
    nodes, clipped size); no caller sees another's list or a stale entry."""

    def test_order_matches_reference_at_every_size(self):
        for nodes in ([3, 0, 2, 1], [(1, 0), (0, 1), (2, 0), (0, 0), (1, 1)], [7]):
            for k in range(len(nodes) + 2):
                want = _reference_statements(nodes, k)
                assert list(ci_statements(nodes, k)) == want
                assert list(ci_statements(reversed(nodes), k)) == want

    def test_returned_lists_are_fresh(self):
        m = icm_unroll(FORK, 2)
        first = ci_set(m, 4)
        want = list(first)
        first.reverse()
        first.pop()
        assert ci_set(m, 4) == want
        partial = ci_statements(m.nodes, 4)
        next(partial)
        assert list(ci_statements(m.nodes, 4))[0] == _reference_statements(m.nodes, 4)[0]

    def test_negative_size_rejected_after_cached_call(self):
        m = icm_unroll(CHAIN, 2)
        assert ci_set(m, 2) and list(ci_statements(m.nodes, 2))
        with pytest.raises(ValueError, match="max_condition_size must be >= 0, got -1"):
            ci_statements(m.nodes, -1)
        with pytest.raises(ValueError, match="max_condition_size must be >= 0, got -1"):
            ci_set(m, -1)


class TestEnumerateDags:
    @pytest.mark.parametrize("d,count", [(1, 1), (2, 3), (3, 25), (4, 543)])
    def test_counts(self, d, count):
        dags = enumerate_dags(d)
        assert len(dags) == count
        assert len(set(dags)) == count

    def test_limit(self):
        with pytest.raises(EnumerationSizeError):
            enumerate_dags(6)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            enumerate_dags(0)
