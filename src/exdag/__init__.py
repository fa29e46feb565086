"""Causal DAG discovery from exchangeable multi-environment categorical data."""

from .graphs import (
    CiStatement,
    Dag,
    Dmag,
    ci_set,
    d_separated,
    enumerate_dags,
    icm_unroll,
    m_separated,
    markov_equivalent_dags,
    markov_equivalent_icm,
    statement,
)
from .sampling import (
    AtomMixturePrior,
    BetaColumnsPrior,
    DirichletColumnsPrior,
    EnvDataset,
    EnvParams,
    MixturePrior,
    XorBetaPrior,
    bivariate_xor_model,
    sample_dataset,
    sample_env_params,
)
from .ci_test import (
    CiResult,
    ContingencyCube,
    chi2_sf,
    degenerate_check,
    g_test,
    tabulate,
    test_statement,
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
