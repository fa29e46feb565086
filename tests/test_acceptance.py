"""Acceptance suite: one test per release criterion, each recording a
single pass/fail line (printed in the terminal summary) with the measured
values and the stated tolerance.

All runs are deterministic: fixed seeds, counter-based per-environment
generators, and fixed repeat counts.
"""

import math
import time

import numpy as np
import pytest

from _acceptance_log import record
from exdag import harness
from exdag.ci_test import chi2_sf
from exdag.ci_test import test_statement as run_ci_test
from exdag.discovery import discover_with_tester
from exdag.graphs import Dag, ci_set, enumerate_dags, icm_unroll, statement
from exdag.oracle import (
    FiniteMixtureModel,
    exact_ci,
    exact_joint,
    oracle_tester,
    random_generic_model,
    true_ci_set,
    verify_exchangeability,
)
from exdag.sampling import AtomMixturePrior, MixturePrior, sample_dataset


def test_criterion_1_bivariate_convergence():
    """Desk scale: 20 repeats at E in {500, 2000, 4000}; fraction at 4000
    >= 0.95 and monotone within -0.05 across the grid; < 2 min."""
    t0 = time.time()
    cfg = harness.ExperimentConfig(
        kind="bivariate-sweep", env_grid=(500, 2000, 4000), repeats=20, seed=0
    )
    rows = harness.run_bivariate_sweep(cfg)
    elapsed = time.time() - t0
    fractions = [r["correct_fraction"] for r in rows]
    final_ok = fractions[-1] >= 0.95
    monotone_ok = all(b >= a - 0.05 for a, b in zip(fractions, fractions[1:]))
    time_ok = elapsed < 120
    ok = final_ok and monotone_ok and time_ok
    record(
        "criterion 1 bivariate convergence",
        ok,
        f"fractions={fractions} at envs={[r['n_envs'] for r in rows]} "
        f"(need final >= 0.95, monotone within -0.05), {elapsed:.0f}s < 120s",
    )
    assert final_ok, f"fraction at 4000 envs = {fractions[-1]} < 0.95"
    assert monotone_ok, f"fractions {fractions} not monotone within -0.05"
    assert time_ok, f"runtime {elapsed:.0f}s exceeds 2 min"


def test_criterion_2_multivariate_recovery():
    """fork3 at 10k envs in 0.91 +/- 0.10 over >= 50 repeats; collider3 at
    10k envs in 0.71 +/- 0.12; chain4 at 20k envs >= 0.40; < 15 min total."""
    t0 = time.time()
    cfg3 = harness.ExperimentConfig(
        kind="multivariate", graphs=("fork3", "collider3"), repeats=50, seed=0
    )
    rows = {r["graph"]: r for r in harness.run_multivariate(cfg3)}
    cfg4 = harness.ExperimentConfig(
        kind="multivariate", graphs=("chain4",), repeats=100, seed=0
    )
    rows.update({r["graph"]: r for r in harness.run_multivariate(cfg4)})
    elapsed = time.time() - t0

    fork = rows["fork3"]["graph_recovery"]
    collider = rows["collider3"]["graph_recovery"]
    chain = rows["chain4"]["graph_recovery"]
    fork_ok = abs(fork - 0.91) <= 0.10
    collider_ok = abs(collider - 0.71) <= 0.12
    chain_ok = chain >= 0.40
    time_ok = elapsed < 900
    ok = fork_ok and collider_ok and chain_ok and time_ok
    record(
        "criterion 2 multivariate recovery",
        ok,
        f"fork3={fork:.2f} (0.91+/-0.10), collider3={collider:.2f} (0.71+/-0.12), "
        f"chain4={chain:.2f} (>= 0.40 at 20k envs), {elapsed:.0f}s < 900s",
    )
    assert fork_ok, f"fork3 recovery {fork} outside 0.91 +/- 0.10"
    assert collider_ok, f"collider3 recovery {collider} outside 0.71 +/- 0.12"
    assert chain_ok, f"chain4 recovery {chain} below 0.40"
    assert time_ok, f"runtime {elapsed:.0f}s exceeds 15 min"


def test_criterion_3_identifiability():
    """All 25 labeled 3-node DAGs: unrolled CI sets pairwise distinct (25
    singleton classes); classically 11 Markov classes with one of size > 1."""
    t0 = time.time()
    result = harness.run_identifiability(d=3)
    elapsed = time.time() - t0
    icm_ok = result["icm_class_sizes"] == [1] * 25
    iid_ok = result["iid_class_count"] == 11 and max(result["iid_class_sizes"]) > 1
    time_ok = elapsed < 60
    ok = icm_ok and iid_ok and time_ok
    record(
        "criterion 3 identifiability",
        ok,
        f"{result['n_dags']} DAGs -> {len(result['icm_class_sizes'])} unrolled classes "
        f"(all singletons={icm_ok}), {result['iid_class_count']} classical classes "
        f"sizes={result['iid_class_sizes']}, {elapsed:.0f}s < 60s",
    )
    assert icm_ok, f"unrolled class sizes {result['icm_class_sizes']} != 25 singletons"
    assert iid_ok, f"classical classes: {result['iid_class_count']}, sizes {result['iid_class_sizes']}"
    assert time_ok


def test_criterion_4_oracle_bridge():
    """Every DAG d <= 3, n = 2, 20 random generic models each: exact CI set
    equals ci_set(icm_unroll(g, 2)); Markov direction 100%, faithfulness
    direction >= 95% with violations logged."""
    rng = np.random.default_rng(4)
    total = markov_bad = 0
    faithfulness_violations = []
    for d in (1, 2, 3):
        for g in enumerate_dags(d):
            want = {s.sort_key() for s in ci_set(icm_unroll(g, 2), 2 * g.d)}
            for m_idx in range(20):
                model = random_generic_model(g, 2, rng)
                got = {s.sort_key() for s in true_ci_set(model, 2 * g.d)}
                total += 1
                if not want <= got:
                    markov_bad += 1
                if not got <= want:
                    faithfulness_violations.append((g.to_dict(), m_idx, sorted(got - want)))
    faithful_fraction = 1.0 - len(faithfulness_violations) / total
    markov_ok = markov_bad == 0
    faithful_ok = faithful_fraction >= 0.95
    ok = markov_ok and faithful_ok
    record(
        "criterion 4 oracle bridge",
        ok,
        f"{total} models over all DAGs d<=3: markov violations={markov_bad} (need 0), "
        f"faithful fraction={faithful_fraction:.3f} (need >= 0.95), "
        f"violations logged: {len(faithfulness_violations)}",
    )
    assert markov_ok, f"{markov_bad} Markov violations"
    assert faithful_ok, f"faithfulness violations: {faithfulness_violations}"


def test_criterion_5_algorithm_soundness():
    """With exact-oracle verdicts, discovery returns the true DAG for every
    DAG d <= 4 and 10 generic models per graph. Exact match."""
    rng = np.random.default_rng(5)
    total = 0
    failures = []
    for d in (1, 2, 3, 4):
        for g in enumerate_dags(d):
            for _ in range(10):
                model = random_generic_model(g, 2, rng)
                result = discover_with_tester(oracle_tester(model), g.d)
                total += 1
                if result.graph != g:
                    failures.append((g.to_dict(), result.graph.to_dict()))
    ok = not failures
    record(
        "criterion 5 algorithm soundness",
        ok,
        f"oracle-verdict discovery exact on {total - len(failures)}/{total} models "
        f"over all {sum(len(enumerate_dags(d)) for d in (1, 2, 3, 4))} DAGs d<=4 (need all)",
    )
    assert ok, f"oracle discovery failed on {failures[:5]} (of {len(failures)})"


def _chi2_sf_quadrature(x, dof):
    """Independent high-precision reference: adaptive quadrature of the
    explicitly written chi-squared density."""
    from scipy import integrate

    def pdf(t):
        return math.exp(
            (0.5 * dof - 1) * math.log(t) - 0.5 * t - 0.5 * dof * math.log(2.0)
            - math.lgamma(0.5 * dof)
        )

    value, _ = integrate.quad(pdf, x, math.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    return value


def test_criterion_6_statistical_kernel():
    """chi2_sf within 1e-8 of quadrature on a 50-point grid; G-test type-I
    error within alpha +/- 3*sqrt(alpha(1-alpha)/trials) on oracle-certified
    independent data (1000 envs, 200 trials)."""
    grid = [(x, k) for k in (1, 2, 3, 5, 8, 12, 20, 40) for x in (0.05, 0.5, 1.5, 3.0, 6.0, 12.0)]
    grid += [(100.0, 4), (60.0, 30)]
    assert len(grid) == 50
    worst = max(abs(chi2_sf(x, k) - _chi2_sf_quadrature(x, k)) for x, k in grid)
    sf_ok = worst <= 1e-8

    # independent X and Y, each a two-atom exchangeable mixture
    g = Dag(2, frozenset())
    prior = MixturePrior(
        (
            AtomMixturePrior([(0.5, [[0.8], [0.2]]), (0.5, [[0.3], [0.7]])]),
            AtomMixturePrior([(0.4, [[0.6], [0.4]]), (0.6, [[0.15], [0.85]])]),
        )
    )
    stmt = statement([(0, 0)], [(1, 1)], [(1, 0)])
    assert exact_ci(FiniteMixtureModel(g, prior, 2), stmt)  # oracle certification
    alpha, trials = 0.05, 200
    rejections = 0
    for trial in range(trials):
        ds = sample_dataset(g, prior, 1000, 2, trial + 1)
        if not run_ci_test(ds, stmt, alpha).independent:
            rejections += 1
    rate = rejections / trials
    band = 3 * math.sqrt(alpha * (1 - alpha) / trials)
    type1_ok = abs(rate - alpha) <= band
    ok = sf_ok and type1_ok
    record(
        "criterion 6 statistical kernel",
        ok,
        f"chi2_sf max |diff| vs quadrature = {worst:.2e} on 50 points (need <= 1e-8); "
        f"type-I rate = {rate:.3f} in {alpha} +/- {band:.3f} over {trials} trials",
    )
    assert sf_ok, f"chi2_sf deviates by {worst}"
    assert type1_ok, f"type-I rate {rate} outside {alpha} +/- {band:.3f}"


def test_criterion_7_oracle_exactness():
    """Exchangeability of the exact joint <= 1e-12 under all sample
    permutations for 50 random models at n = 3; exact_joint matches naive
    enumeration for d = 2, n = 2 models to 1e-12."""
    rng = np.random.default_rng(7)
    dags = [g for d in (1, 2, 3) for g in enumerate_dags(d)]
    exchangeable = 0
    for _ in range(50):
        g = dags[int(rng.integers(len(dags)))]
        model = random_generic_model(g, 3, rng)
        exchangeable += verify_exchangeability(model, 1e-12)
    exch_ok = exchangeable == 50

    from test_oracle import naive_joint

    worst = 0.0
    for g in (Dag(2, frozenset({(0, 1)})), Dag(2, frozenset())):
        for _ in range(5):
            model = random_generic_model(g, 2, rng, atoms_per_node=3)
            worst = max(worst, float(np.abs(exact_joint(model) - naive_joint(model)).max()))
    naive_ok = worst <= 1e-12
    ok = exch_ok and naive_ok
    record(
        "criterion 7 oracle exactness",
        ok,
        f"exchangeability held for {exchangeable}/50 models at n=3 (tol 1e-12); "
        f"exact_joint vs naive enumeration max |diff| = {worst:.2e} (need <= 1e-12)",
    )
    assert exch_ok, f"only {exchangeable}/50 models exchangeable at 1e-12"
    assert naive_ok, f"exact_joint deviates from naive enumeration by {worst}"
