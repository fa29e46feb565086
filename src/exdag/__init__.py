"""Causal DAG discovery from exchangeable multi-environment categorical data."""

from .graphs import (
    CiStatement,
    Dag,
    Dmag,
    ci_set,
    enumerate_dags,
    icm_unroll,
    m_separated,
    statement,
)
from .sampling import (
    AtomMixturePrior,
    DirichletColumnsPrior,
    EnvDataset,
    MixturePrior,
    XorBetaPrior,
    bivariate_xor_model,
    sample_dataset,
)
from .ci_test import (
    CiResult,
    ContingencyCube,
    PatternTable,
    chi2_sf,
    g_test,
    pattern_table,
    tabulate,
    test_statement,
    test_statements,
)
from .discovery import (
    DiscoveryResult,
    NoSinkFoundError,
    SinkOrder,
    X_INDEP_Y,
    X_TO_Y,
    Y_TO_X,
    bivariate_direction,
    discover,
    discover_with_tester,
)
from .oracle import (
    FiniteMixtureModel,
    exact_ci,
    exact_joint,
    oracle_tester,
    random_generic_model,
    true_ci_set,
    verify_exchangeability,
    verify_markov_faithful,
)

__version__ = "0.1.0"
