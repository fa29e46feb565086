import dataclasses
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from exdag import graphs, harness
from exdag.discovery import discover_with_tester
from exdag.graphs import (
    CiStatement,
    Dag,
    EnumerationSizeError,
    ci_set,
    ci_statements,
    enumerate_dags,
    icm_unroll,
    m_separated,
    statement,
)
from exdag.oracle import (
    DEFAULT_CI_TOL,
    STATE_SPACE_LIMIT,
    FiniteMixtureModel,
    _ci_verdicts,
    _model_plan,
    exact_ci,
    exact_joint,
    oracle_tester,
    random_generic_model,
    true_ci_set,
    verify_exchangeability,
    verify_markov_faithful,
)
from exdag.sampling import (
    AtomMixturePrior,
    MixturePrior,
    XorBetaPrior,
    sample_dataset,
)

XY = Dag(2, frozenset({(0, 1)}))


def atom_prior(atoms):
    """A `MixturePrior` of one `AtomMixturePrior` per node's (weight, cpt) list."""
    return MixturePrior([AtomMixturePrior(node_atoms) for node_atoms in atoms])


def two_atom_xy_model(n_samples=2):
    atoms = [
        [(0.5, [[0.8], [0.2]]), (0.5, [[0.2], [0.8]])],
        [(0.5, [[0.9, 0.1], [0.1, 0.9]]), (0.5, [[0.3, 0.6], [0.7, 0.4]])],
    ]
    return FiniteMixtureModel(XY, atom_prior(atoms), n_samples)


def naive_joint(model):
    """Brute-force reference: enumerate atom combinations and configurations."""
    d, n = model.d, model.samples_per_env
    atoms = [node_prior.atoms for node_prior in model.prior.node_priors]
    joint = np.zeros(model.shape)
    atom_choices = itertools.product(*[range(len(atoms[i])) for i in range(d)])
    for combo in atom_choices:
        weight = 1.0
        for i, a in enumerate(combo):
            weight *= atoms[i][a][0]
        for config in itertools.product(*[range(k) for k in model.shape]):
            p = 1.0
            for i in range(d):
                pa = sorted(model.graph.parents(i))
                cpt = atoms[i][combo[i]][1]
                for s in range(n):
                    x = config[model.axis_of(i, s)]
                    cfg = 0
                    for parent in pa:
                        cfg = cfg * model.cardinalities[parent] + config[model.axis_of(parent, s)]
                    p *= cpt[x, cfg]
            joint[config] += weight * p
    return joint


class TestModelValidation:
    def test_bad_cpt_shape(self):
        atoms = [[(1.0, [[0.5, 0.5], [0.5, 0.5]])], [(1.0, [[0.5], [0.5]])]]
        with pytest.raises(ValueError, match="shape"):
            FiniteMixtureModel(XY, atom_prior(atoms), 2)

    def test_entries_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            atom_prior([[(1.0, [[1.5], [-0.5]])]])

    def test_columns_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            atom_prior([[(1.0, [[0.5], [0.4]])], [(1.0, [[0.5, 0.5], [0.5, 0.5]])]])

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError, match="weights sum"):
            atom_prior([[(0.7, [[0.5], [0.5]])], [(1.0, [[0.5, 0.5], [0.5, 0.5]])]])

    def test_state_space_guard(self):
        g = Dag(3, frozenset())
        atoms = [[(1.0, [[0.5], [0.5]])] for _ in range(3)]
        with pytest.raises(EnumerationSizeError):
            FiniteMixtureModel(g, atom_prior(atoms), 8)

    def test_models_compare_by_graph_prior_and_samples(self):
        model = random_generic_model(XY, 2, np.random.default_rng(0), cardinalities=(3, 2))
        exact_joint(model)  # a filled cache does not take part in the comparison
        assert dataclasses.replace(model) == model
        other_atoms = random_generic_model(XY, 2, np.random.default_rng(1), cardinalities=(3, 2))
        assert other_atoms != model
        assert FiniteMixtureModel(XY, model.prior, 3) != model

    @pytest.mark.parametrize("kwargs, message", [
        # one CPT per node, so two atoms could never differ
        ({"cardinalities": (1, 2)}, r"cardinalities \(1, 2\) cannot hold 2 distinct atoms"),
        ({"atoms_per_node": 0}, "atoms_per_node must be >= 1, got 0"),
        ({"cardinalities": (2,)}, "1 cardinalities for 2 nodes"),
        ({"cardinalities": (2, 2, 2)}, "3 cardinalities for 2 nodes"),
    ])
    def test_random_model_inputs_rejected_before_any_draw(self, kwargs, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            random_generic_model(XY, 2, rng, **kwargs)
        assert rng.bit_generator.state == state

    def test_single_category_node_with_one_atom(self):
        model = random_generic_model(XY, 2, np.random.default_rng(0), atoms_per_node=1,
                                     cardinalities=(1, 2))
        assert model.cardinalities == (1, 2)

    def test_exact_models_require_atoms_and_name_the_node(self):
        prior = MixturePrior((AtomMixturePrior([(1.0, [[0.5], [0.5]])]), XorBetaPrior(1, 3)))
        with pytest.raises(TypeError, match="node 1: .*AtomMixturePrior"):
            FiniteMixtureModel(XY, prior, 2)

    def test_sampler_and_model_share_the_graph_check(self):
        # node 1 has one parent, so its CPT needs two columns
        prior = atom_prior([[(1.0, [[0.5], [0.5]])], [(1.0, [[0.5], [0.5]])]])
        with pytest.raises(ValueError) as sampled:
            sample_dataset(XY, prior, 10, 2, 0)
        with pytest.raises(ValueError) as exact:
            FiniteMixtureModel(XY, prior, 2)
        assert str(sampled.value) == str(exact.value)
        assert str(exact.value).startswith("node 1: atom CPT shape (2, 1)")


class TestExactJoint:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for g in (XY, Dag(3, frozenset({(0, 1), (0, 2)}))):
            model = random_generic_model(g, 2, rng)
            assert exact_joint(model).sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_enumeration(self):
        model = two_atom_xy_model(2)
        assert np.abs(exact_joint(model) - naive_joint(model)).max() <= 1e-12

    def test_matches_naive_on_random_models(self):
        rng = np.random.default_rng(3)
        for g in (XY, Dag(2, frozenset())):
            model = random_generic_model(g, 2, rng, atoms_per_node=3)
            assert np.abs(exact_joint(model) - naive_joint(model)).max() <= 1e-12

    def test_known_mixture_dependence(self):
        # X ~ Ber(theta), theta in {0.2, 0.8} equally weighted:
        # P(X1=1, X2=1) = 0.5*0.04 + 0.5*0.64 = 0.34 != 0.25
        atoms = [[(0.5, [[0.8], [0.2]]), (0.5, [[0.2], [0.8]])]]
        model = FiniteMixtureModel(Dag(1, frozenset()), atom_prior(atoms), 2)
        joint = exact_joint(model)
        assert joint[1, 1] == pytest.approx(0.34, abs=1e-12)

    def test_monte_carlo_convergence(self):
        prior = MixturePrior(
            (
                AtomMixturePrior([(0.5, [[0.8], [0.2]]), (0.5, [[0.2], [0.8]])]),
                AtomMixturePrior([(0.5, [[0.9, 0.1], [0.1, 0.9]]), (0.5, [[0.3, 0.6], [0.7, 0.4]])]),
            )
        )
        model = FiniteMixtureModel(XY, prior, 2)
        joint = exact_joint(model)
        n = 40000
        ds = sample_dataset(XY, prior, n, 2, 0)
        stack = ds.rows.reshape(n, 2, 2)
        codes = ((stack[:, 0, 0] * 2 + stack[:, 0, 1]) * 2 + stack[:, 1, 0]) * 2 + stack[:, 1, 1]
        freq = np.bincount(codes, minlength=16) / n
        # 5-sigma binomial tolerance per cell
        tol = 5 * np.sqrt(joint.ravel() * (1 - joint.ravel()) / n)
        assert np.all(np.abs(freq - joint.ravel()) <= tol + 1e-12)


def brute_force_ci(model, stmt, tol):
    """Reference verdict: tabulate P(left, right, given) from `naive_joint`
    one configuration at a time, then compare P(l, r | g) with
    P(l | g) P(r | g) wherever P(g) > 0."""
    joint = naive_joint(model)
    sides = [sorted(side) for side in (stmt.left, stmt.right, stmt.given)]
    p_lrg, p_g, p_lg, p_rg = {}, {}, {}, {}
    for config in itertools.product(*[range(k) for k in model.shape]):
        l, r, g = (tuple(config[model.axis_of(v, s)] for v, s in side) for side in sides)
        p = joint[config]
        p_lrg[l, r, g] = p_lrg.get((l, r, g), 0.0) + p
        p_g[g] = p_g.get(g, 0.0) + p
        p_lg[l, g] = p_lg.get((l, g), 0.0) + p
        p_rg[r, g] = p_rg.get((r, g), 0.0) + p
    return all(
        abs(p / p_g[g] - (p_lg[l, g] / p_g[g]) * (p_rg[r, g] / p_g[g])) <= tol
        for (l, r, g), p in p_lrg.items()
        if p_g[g] > 0
    )


def zero_mass_model():
    """A chain on cardinalities (2, 3, 2) whose 0/1 CPT entries give
    conditioning cells of exactly zero mass, where the division-free rule
    reads 0 <= 0 and `brute_force_ci` skips the cell."""
    g = Dag(3, frozenset({(0, 1), (1, 2)}))
    generic = random_generic_model(g, 2, np.random.default_rng(4), cardinalities=(2, 3, 2))
    atoms = [node_prior.atoms for node_prior in generic.prior.node_priors]
    atoms[0][0][1][:, 0] = [1.0, 0.0]
    for node_atoms in atoms[1:]:
        for _, cpt in node_atoms:
            cpt[:, 0] = np.eye(cpt.shape[0])[-1]
    return FiniteMixtureModel(g, atom_prior(atoms), 2)


class TestExactCi:
    def test_causal_statement_holds(self):
        model = two_atom_xy_model()
        assert exact_ci(model, statement([(0, 0)], [(1, 1)], [(0, 1)]))

    def test_anticausal_statement_fails(self):
        model = two_atom_xy_model()
        assert not exact_ci(model, statement([(0, 0)], [(1, 1)], [(1, 0)]))

    def test_single_atom_collapses_to_iid(self):
        model = FiniteMixtureModel(Dag(1, frozenset()), atom_prior([[(1.0, [[0.7], [0.3]])]]), 2)
        assert exact_ci(model, statement([(0, 0)], [(0, 1)]))

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            exact_ci(two_atom_xy_model(), statement([(0, 0)], [(5, 1)]))

    def test_multi_node_sides_match_brute_force(self):
        # node 2 is isolated, so some multi-node statements hold; mixed
        # cardinalities make a mis-ordered group reshape a different table
        g = Dag(3, frozenset({(0, 1)}))
        model = random_generic_model(g, 2, np.random.default_rng(8), cardinalities=(2, 3, 2))
        # sorted (var, sample) order differs from axis order inside each side
        stmts = [
            statement([(1, 0), (0, 1)], [(2, 1), (2, 0)]),
            statement([(2, 1), (2, 0)], [(1, 1), (0, 0)], [(1, 0)]),
            statement([(1, 1), (0, 0)], [(1, 0), (0, 1)], [(2, 0)]),
        ]
        nodes = [(v, s) for s in range(2) for v in range(3)]
        rng = np.random.default_rng(9)
        while len(stmts) < 120:
            picked = [nodes[j] for j in rng.permutation(len(nodes))]
            n_left, n_right = rng.integers(1, 3, size=2)
            if n_left + n_right < 3:
                continue
            n_given = rng.integers(0, len(nodes) - n_left - n_right + 1)
            stmts.append(statement(
                picked[:n_left],
                picked[n_left:n_left + n_right],
                picked[n_left + n_right:n_left + n_right + n_given],
            ))
        verdicts = [exact_ci(model, s) for s in stmts]
        assert verdicts == [brute_force_ci(model, s, 1e-9) for s in stmts]
        assert verdicts[0] and not verdicts[2]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_zero_mass_conditioning_cells_match_brute_force(self):
        model = zero_mass_model()
        stmts = list(ci_statements([(v, s) for s in range(2) for v in range(3)], 4))
        verdicts = [exact_ci(model, s) for s in stmts]
        assert verdicts == [brute_force_ci(model, s, 1e-9) for s in stmts]
        assert 0 < sum(verdicts) < len(verdicts)
        assert sum(bool((fresh_marginal(model, s.given) == 0).any()) for s in stmts) > 10

    def test_model_plan_keys_are_the_axes_outside_each_full(self):
        g = Dag(3, frozenset({(0, 2), (1, 2)}))
        model = random_generic_model(g, 2, np.random.default_rng(6), cardinalities=(3, 2, 2))
        stmts, _, _, plan = _model_plan(model.shape, model.samples_per_env, 4)
        fulls = list(dict.fromkeys(s.left | s.right | s.given for s in stmts))
        assert len(plan.fulls) == len(fulls) > 1
        for outside, full in zip(plan.fulls, fulls):
            axes = {model.axis_of(v, s) for v, s in full}
            assert outside == tuple(a for a in range(model.d * 2) if a not in axes)

    def test_replace_starts_fresh_caches(self):
        fork3 = harness.preset_graph("fork3")
        model = random_generic_model(fork3, 2, np.random.default_rng(0))
        old_joint = exact_joint(model)
        old_set = true_ci_set(model, 6)
        for other in (
            random_generic_model(fork3, 2, np.random.default_rng(1)),
            random_generic_model(fork3, 2, np.random.default_rng(1), atoms_per_node=1),
        ):
            replaced = dataclasses.replace(model, prior=other.prior)
            assert exact_joint(replaced) is not old_joint
            assert np.array_equal(exact_joint(replaced), exact_joint(other))
            assert true_ci_set(replaced, 6) == true_ci_set(other, 6)
        # one atom per node is iid across samples: more independences hold
        assert true_ci_set(replaced, 6) != old_set


def model_nodes(model):
    """Every (variable, sample) node of the model, sorted."""
    return [(v, s) for v in range(model.d) for s in range(model.samples_per_env)]


def fresh_marginal(model, nodes):
    """The joint summed afresh over every axis outside those of `nodes`,
    with size-1 axes kept."""
    joint = exact_joint(model)
    axes = {model.axis_of(v, s) for v, s in nodes}
    return joint.sum(axis=tuple(a for a in range(joint.ndim) if a not in axes), keepdims=True)


def one_statement_verdict(model, stmt):
    """Reference: the product-form rule on one statement, with its four
    marginals summed afresh from the joint."""
    left, right, given = stmt.left, stmt.right, stmt.given
    p_lrg, p_lg, p_rg, p_g = (
        fresh_marginal(model, nodes)
        for nodes in (left | right | given, left | given, right | given, given)
    )
    return bool((np.abs(p_lrg * p_g - p_lg * p_rg) <= DEFAULT_CI_TOL * p_g**2).all())


def _random_statements(nodes, count, rng):
    """`count` statements with one or two nodes per side and a random
    conditioning set, in random node order."""
    out = []
    while len(out) < count:
        picked = [nodes[j] for j in rng.permutation(len(nodes))]
        n_left, n_right = (int(k) for k in rng.integers(1, 3, size=2))
        n_given = int(rng.integers(0, len(nodes) - n_left - n_right + 1))
        out.append(statement(
            picked[:n_left],
            picked[n_left:n_left + n_right],
            picked[n_left + n_right:n_left + n_right + n_given],
        ))
    return out


class TestBatchedVerdicts:
    """The grouped verdicts of one call equal the one-statement rule, in
    input order, whatever else shares the call."""

    @staticmethod
    def _models():
        rng = np.random.default_rng(23)
        chain = Dag(3, frozenset({(0, 1), (1, 2)}))
        collider = Dag(3, frozenset({(0, 2), (1, 2)}))
        for n in (2, 3):
            yield random_generic_model(chain, n, rng)
            yield random_generic_model(collider, n, rng, cardinalities=(3, 3, 3))
        # one atom per node, and X0 = 2 has no mass: conditioning cells of zero mass
        single_atom = [[(1.0, [[0.5], [0.5], [0.0]])], [(1.0, [[1.0, 0.3, 0.5], [0.0, 0.7, 0.5]])]]
        yield FiniteMixtureModel(Dag(2, frozenset({(0, 1)})), atom_prior(single_atom), 2)

    def test_match_one_statement_rule_in_input_order(self):
        rng = np.random.default_rng(29)
        zero_mass_cells = 0
        for model in self._models():
            nodes = model_nodes(model)
            stmts = list(ci_statements(nodes, 2)) + _random_statements(nodes, 60, rng)
            stmts = [stmts[j] for j in rng.permutation(len(stmts))]
            verdicts = _ci_verdicts(model, stmts)
            assert verdicts == [one_statement_verdict(model, s) for s in stmts]
            assert all(type(v) is bool for v in verdicts)
            assert 0 < sum(verdicts) < len(verdicts)
            zero_mass_cells += sum(int((fresh_marginal(model, s.given) == 0).sum()) for s in stmts)
        assert zero_mass_cells > 0

    def test_one_statement_call_returns_a_python_bool(self):
        model = two_atom_xy_model()
        holds = exact_ci(model, statement([(0, 0)], [(1, 1)], [(0, 1)]))
        fails = exact_ci(model, statement([(0, 0)], [(1, 1)], [(1, 0)]))
        assert (holds, fails) == (True, False)
        assert type(holds) is bool and type(fails) is bool

    def test_unknown_node_named_wherever_it_sits(self):
        model = two_atom_xy_model()
        good = statement([(0, 0)], [(1, 1)])
        with pytest.raises(ValueError, match=r"unknown node \(5, 1\)"):
            _ci_verdicts(model, [good, statement([(0, 0)], [(1, 0)], [(5, 1)])])
        with pytest.raises(ValueError, match=r"unknown node \(0, 2\)"):
            exact_ci(model, statement([(0, 2)], [(1, 1)]))


def reordered_statements():
    """Every split of the four nodes of a 2-node, 2-sample model into
    left, right and given.  Sorted by (variable, sample) the nodes read
    (0,0), (0,1), (1,0), (1,1), the axis order of the shared statement plan;
    the joint holds them as (0,0), (1,0), (0,1), (1,1)."""
    nodes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    out = [statement([(1, 0)], [(0, 1)], [(0, 0), (1, 1)])]
    for sides in itertools.product(range(3), repeat=len(nodes)):
        left, right, given = ([n for n, side in zip(nodes, sides) if side == k] for k in range(3))
        if left and right:
            out.append(statement(left, right, given))
    return out


class TestDataOrderPlan:
    """The oracle decides a list on the plan the data tester shares, whose
    F axes run in (variable, sample) order, by folding the joint's order
    into the plan's patterns."""

    def test_multi_node_given_matches_one_statement_rule(self):
        stmts = reordered_statements()
        # Y's one atom makes Y_s depend on X_s alone, so some statements hold
        x_atoms = [(0.5, [[0.6], [0.3], [0.1]]), (0.5, [[0.1], [0.2], [0.7]])]
        y_atom = [(1.0, [[0.9, 0.4, 0.2], [0.1, 0.6, 0.8]])]
        single_y = FiniteMixtureModel(XY, atom_prior([x_atoms, y_atom]), 2)
        for model in (
            single_y,
            random_generic_model(XY, 2, np.random.default_rng(41), cardinalities=(3, 2)),
        ):
            verdicts = _ci_verdicts(dataclasses.replace(model), stmts)
            assert verdicts == [one_statement_verdict(model, s) for s in stmts]
        # Y_0 _||_ X_1 | {X_0, Y_1} holds on single_y, and not every statement does
        holds = _ci_verdicts(single_y, stmts)
        assert holds[0] and not all(holds)


class TestVerifyMarkovFaithful:
    def test_generic_model_clean(self):
        rng = np.random.default_rng(1)
        model = random_generic_model(XY, 2, rng)
        report = verify_markov_faithful(model, 2)
        assert report.markov_ok
        assert report.faithful

    def test_single_atom_not_faithful(self):
        atoms = [[(1.0, [[0.7], [0.3]])], [(1.0, [[0.9, 0.2], [0.1, 0.8]])]]
        model = FiniteMixtureModel(XY, atom_prior(atoms), 2)
        report = verify_markov_faithful(model, 2)
        assert report.markov_ok
        assert not report.faithful
        assert report.to_dict()["faithfulness_violations"]

    def test_bridge_property(self):
        rng = np.random.default_rng(2)
        for g in (XY, Dag(3, frozenset({(0, 2), (1, 2)}))):
            model = random_generic_model(g, 2, rng)
            want = ci_set(icm_unroll(g, 2), 2 * g.d)
            assert true_ci_set(model, 2 * g.d) == want

    def test_negative_condition_size_rejected(self):
        # both used to check nothing and report an empty set or a clean model
        model = random_generic_model(XY, 2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="max_condition_size must be >= 0, got -1"):
            true_ci_set(model, -1)
        with pytest.raises(ValueError, match="max_condition_size must be >= 0, got -3"):
            verify_markov_faithful(model, -3)


class TestPlanPath:
    """`true_ci_set` and `verify_markov_faithful` decide a plan cached per
    (shape, samples per environment, size): at every size they agree with
    `exact_ci` and `m_separated` asked one statement at a time."""

    @staticmethod
    def _models():
        rng = np.random.default_rng(31)
        chain = Dag(3, frozenset({(0, 1), (1, 2)}))
        collider = Dag(3, frozenset({(0, 2), (1, 2)}))
        yield random_generic_model(chain, 2, rng)
        # the same nodes on other cardinalities: a plan of its own
        yield random_generic_model(collider, 2, rng, cardinalities=(2, 3, 2))
        # the same shape on another graph: the cached plan serves both
        yield zero_mass_model()
        # one atom per node: iid samples, so faithfulness violations
        yield random_generic_model(XY, 3, rng, atoms_per_node=1, cardinalities=(3, 2))
        yield random_generic_model(chain, 3, rng, cardinalities=(3, 2, 3))

    def test_match_per_statement_rule_at_every_size(self):
        faithless = 0
        for model in self._models():
            nodes = model_nodes(model)
            dmag = icm_unroll(model.graph, model.samples_per_env)
            reference = dataclasses.replace(model)  # its own, empty caches
            every = list(ci_statements(nodes, len(nodes)))
            independent = {s: exact_ci(reference, s) for s in every}
            separated = {s: m_separated(dmag, s) for s in every}
            for k in range(len(nodes) + 1):
                stmts = list(ci_statements(nodes, k))
                want = sorted((s for s in stmts if independent[s]), key=CiStatement.sort_key)
                assert true_ci_set(model, k) == want
                report = verify_markov_faithful(model, k)
                assert report.markov_violations == [
                    s for s in stmts if separated[s] and not independent[s]
                ]
                assert report.faithfulness_violations == [
                    s for s in stmts if independent[s] and not separated[s]
                ]
                faithless += len(report.faithfulness_violations)
        assert faithless > 0

    def test_returned_lists_are_fresh(self):
        fork3 = harness.preset_graph("fork3")
        model = random_generic_model(fork3, 2, np.random.default_rng(3), atoms_per_node=1)
        first = true_ci_set(model, 6)
        want = list(first)
        first.reverse()
        first.pop()
        assert true_ci_set(model, 6) == want
        report = verify_markov_faithful(model, 6)
        want = (list(report.markov_violations), list(report.faithfulness_violations))
        report.markov_violations.append(want[1][0])
        report.faithfulness_violations.clear()
        again = verify_markov_faithful(model, 6)
        assert (again.markov_violations, again.faithfulness_violations) == want

    def test_bad_input_rejected_after_cached_call(self):
        model = two_atom_xy_model()
        assert true_ci_set(model, 2)
        with pytest.raises(ValueError, match="max_condition_size must be >= 0, got -1"):
            true_ci_set(model, -1)
        with pytest.raises(ValueError, match="max_condition_size must be >= 0, got -1"):
            verify_markov_faithful(model, -1)
        good = statement([(0, 0)], [(1, 1)])
        with pytest.raises(ValueError, match=r"unknown node \(5, 1\)"):
            oracle_tester(model)([good, statement([(0, 0)], [(1, 0)], [(5, 1)])])


class TestBatchKey:
    """A verdict batch holds every statement whose p_F has one shape once
    its left and right axes are moved to fixed positions: one batch per |F|
    on binary nodes, and apart wherever the left or right size differs."""

    def test_binary_eight_node_plan_has_one_batch_per_full_size(self):
        stmts, _, _, plan = _model_plan((2,) * 8, 2, 6)
        assert len(plan.batches) == 7
        assert sorted(batch.cube for batch in plan.batches) == [(2, 2, 2**k) for k in range(7)]
        assert sorted(plan.order.tolist()) == list(range(len(stmts)))
        assert sum(len(batch.order) for batch in plan.batches) == len(stmts)
        assert all(batch.patterns.dtype == np.int32 for batch in plan.batches)

    def test_mixed_cardinalities_match_per_statement_rule(self):
        rng = np.random.default_rng(37)
        chain = Dag(3, frozenset({(0, 1), (1, 2)}))
        model = random_generic_model(chain, 3, rng, cardinalities=(3, 2, 3))
        nodes = model_nodes(model)
        stmts = list(ci_statements(nodes, 3))
        # within one |F| the left and right sizes differ: (3, 2), (2, 3), (3, 3), (2, 2)
        sizes = {batch.cube[:2] for batch in _model_plan(model.shape, 3, 3)[3].batches}
        assert {(3, 2), (2, 3), (3, 3), (2, 2)} <= sizes
        independent = [one_statement_verdict(model, s) for s in stmts]
        assert 0 < sum(independent) < len(stmts)
        want = sorted((s for s, holds in zip(stmts, independent) if holds),
                      key=CiStatement.sort_key)
        assert true_ci_set(model, 3) == want
        # a list's own plan, in random order, with multi-node sides
        listed = stmts[::7] + _random_statements(nodes, 60, rng)
        listed = [listed[j] for j in rng.permutation(len(listed))]
        fresh = dataclasses.replace(model)
        assert _ci_verdicts(fresh, listed) == [one_statement_verdict(model, s) for s in listed]


class TestPlanMemory:
    """The exact plan's memory follows its block budget, not its index: a
    cold `true_ci_set(model, 8)` on a 5-node ternary chain at 2 samples,
    11,520 statements over 1,013 node sets whose index would be 106 MB,
    peaks near 14 MiB of traced allocations.  Building the whole index with
    the plan peaked at 146 MiB."""

    def test_cold_true_ci_set_peak(self):
        chain = Dag(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
        model = random_generic_model(chain, 2, np.random.default_rng(11), cardinalities=(3,) * 5)
        _model_plan.cache_clear()
        graphs._enumeration.cache_clear()
        tracemalloc.start()
        try:
            assert len(true_ci_set(model, 8)) == 3086
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestExchangeability:
    def test_three_samples_all_permutations(self):
        rng = np.random.default_rng(5)
        model = random_generic_model(XY, 3, rng)
        assert verify_exchangeability(model, 1e-12)

    def test_single_atom(self):
        model = FiniteMixtureModel(Dag(1, frozenset()), atom_prior([[(1.0, [[0.6], [0.4]])]]), 3)
        assert verify_exchangeability(model, 1e-12)


class TestRandomGenericModel:
    def test_atoms_separated(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            model = random_generic_model(XY, 2, rng, atoms_per_node=3)
            for node_prior in model.prior.node_priors:
                for (_, a), (_, b) in itertools.combinations(node_prior.atoms, 2):
                    assert np.abs(a - b).max() >= 1e-3

    def test_custom_cardinalities(self):
        rng = np.random.default_rng(0)
        model = random_generic_model(XY, 2, rng, cardinalities=(3, 2))
        assert model.prior.node_priors[0].atoms[0][1].shape == (3, 1)
        assert model.prior.node_priors[1].atoms[0][1].shape == (2, 3)


class TestOracleTester:
    def test_binary_p_values(self):
        model = two_atom_xy_model()
        tester = oracle_tester(model)
        holds = statement([(0, 0)], [(1, 1)], [(0, 1)])
        fails = statement([(0, 0)], [(1, 1)], [(1, 0)])
        assert [res.p_value for res in tester([holds, fails])] == [1.0, 0.0]
        assert tester([]) == []
        # a shuffled list with repeats: one result per statement, in input
        # order, each with exact_ci's verdict
        nodes = [(v, s) for s in range(2) for v in range(2)]
        pool = list(ci_statements(nodes, 2))
        stmts = [pool[k] for k in np.random.default_rng(0).integers(len(pool), size=3 * len(pool))]
        results = tester(stmts)
        assert [res.statement for res in results] == stmts
        assert [res.p_value for res in results] == [1.0 if exact_ci(model, s) else 0.0 for s in stmts]
        assert {res.p_value for res in results} == {0.0, 1.0}
        assert {(res.statistic, res.dof) for res in results} == {(0.0, 0)}
        with pytest.raises(ValueError, match=r"unknown node \(5, 1\)"):
            tester([holds, statement([(0, 0)], [(5, 1)]), fails])


class TestToleranceRegression:
    """A generic model whose true dependence is tiny but real: node 3's two
    atoms differ by 0.013, so (2, 0) depends on (3, 1) by 6.6e-10 per cell.
    Under a 1e-9 tolerance the oracle read it as independence and oracle
    discovery dropped the edge 3 -> 2.  The atoms are written out exactly."""

    GRAPH = Dag(4, frozenset({(0, 2), (3, 2)}))
    ATOMS = [
        [(0.5, [[0.4621017406981776], [0.5378982593018223]]),
         (0.5, [[0.2798995674239986], [0.7201004325760014]])],
        [(0.5, [[0.09711725038975881], [0.9028827496102411]]),
         (0.5, [[0.3430311240611467], [0.6569688759388533]])],
        [(0.5, [[0.7249289216120552, 0.39302409307221386, 0.8268558746245941, 0.8026168286220243],
                [0.2750710783879447, 0.6069759069277861, 0.17314412537540588, 0.19738317137797565]]),
         (0.5, [[0.5349441383011139, 0.892933619702179, 0.524401542733918, 0.5332031271909194],
                [0.4650558616988861, 0.10706638029782096, 0.475598457266082, 0.46679687280908055]])],
        [(0.5, [[0.5345841781350146], [0.4654158218649854]]),
         (0.5, [[0.5472903605634158], [0.4527096394365842]])],
    ]

    def test_weak_dependence_is_dependence(self):
        model = FiniteMixtureModel(self.GRAPH, atom_prior(self.ATOMS), 2)
        found = discover_with_tester(oracle_tester(model), 4)
        assert found.graph == self.GRAPH
        assert true_ci_set(model, 8) == ci_set(icm_unroll(self.GRAPH, 2), 8)


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _ci_set_lines():
    lines = []
    for d in (1, 2, 3):
        for g in enumerate_dags(d):
            lines.append(json.dumps(g.to_dict()))
            lines.extend(str(s) for s in ci_set(icm_unroll(g, 2), 2 * g.d))
    return lines


def _seeded_models():
    """Generic models on every 2-node DAG, three 3-node DAGs, three samples
    and a ternary variable, plus one single-atom (unfaithful) model."""
    rng = np.random.default_rng(11)
    graphs = enumerate_dags(2) + [
        Dag(3, frozenset({(0, 1), (1, 2)})),
        Dag(3, frozenset({(0, 1), (0, 2)})),
        Dag(3, frozenset({(0, 2), (1, 2)})),
    ]
    models = [random_generic_model(g, 2, rng) for g in graphs]
    models.append(random_generic_model(XY, 3, rng))
    models.append(random_generic_model(XY, 2, rng, cardinalities=(3, 2)))
    single_atom = [[(1.0, [[0.7], [0.3]])], [(1.0, [[0.9, 0.2], [0.1, 0.8]])]]
    models.append(FiniteMixtureModel(XY, atom_prior(single_atom), 2))
    return models


def _oracle_lines():
    lines = []
    for model in _seeded_models():
        n_nodes = model.d * model.samples_per_env
        for k in (1, n_nodes):
            lines.extend(str(s) for s in true_ci_set(model, k))
            lines.append(json.dumps(verify_markov_faithful(model, k).to_dict()))
    return lines


def _sweep_lines():
    return [
        json.dumps(harness.run_oracle_sweep(d=2, models_per_graph=3, seed=0), sort_keys=True),
        json.dumps(harness.run_identifiability(d=3), sort_keys=True),
    ]


def _small_joint_models():
    """Generic models on every DAG with d <= 3, at 2 and 3 samples, with
    cardinalities drawn from {2, 3}."""
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        for g in enumerate_dags(d):
            for n in (2, 3):
                cards = tuple(int(k) for k in rng.integers(2, 4, size=d))
                yield random_generic_model(g, n, rng, cardinalities=cards)


def _limit_joint_models():
    """One binary diamond at 5 samples: exactly STATE_SPACE_LIMIT states."""
    g = Dag(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
    model = random_generic_model(g, 5, np.random.default_rng(19))
    assert exact_joint(model).size == STATE_SPACE_LIMIT
    yield model


class TestPinnedJointDigests:
    """SHA-256 of `exact_joint(model).tobytes()`, recorded while the joint
    was still built by decoding a flat index: the broadcast build over open
    index grids makes the same floating-point operations in the same order,
    so every byte is the same."""

    @pytest.mark.parametrize(
        "models, digest",
        [
            (_small_joint_models, "69e020b54d500beaea5da0faacfc6b7e905feacea9f02a8fa4573d8d6aff459b"),
            (_limit_joint_models, "a6f12e381735ac04fd2ca977d7c1c04f070f6f6ecef8b9fb18a81f7d5fce6e9d"),
        ],
        ids=["every_dag_up_to_d3", "state_space_limit"],
    )
    def test_joint_bytes_unchanged(self, models, digest):
        h = hashlib.sha256()
        for model in models():
            joint = exact_joint(model)
            h.update(repr(joint.shape).encode())
            h.update(joint.tobytes())
        assert h.hexdigest() == digest


class TestPinnedDigests:
    """SHA-256 digests recorded before `ci_set` and the oracle shared one
    statement enumerator and separation became a walk over a per-graph
    index: the same statements hold, and `verify_markov_faithful` lists its
    violations in the same order."""

    @pytest.mark.parametrize(
        "lines, digest",
        [
            (_ci_set_lines, "b7daa8f6589428664d9559d7401ceed4ceecaf8d459b5a51b9df5766d76f00e2"),
            (_oracle_lines, "833de22df9642777b86e79fcad0f826208498203e30a142e3a6eadf076e8f3e3"),
            (_sweep_lines, "b0a9e3376789593e8448ff5082d6e74aebc5c5b78954a6a859558acddb807963"),
        ],
        ids=["ci_set_every_dag_up_to_d3", "exact_sets_and_reports", "sweep_dicts"],
    )
    def test_output_unchanged(self, lines, digest):
        assert _sha256(lines()) == digest
