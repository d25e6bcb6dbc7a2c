"""Conversational dueling bandits in generalized linear models, with a
multinomial-logit assortment extension and a regret benchmark harness."""

from .dueling import (
    DUEL_KINDS,
    DuelConfig,
    DuelPolicy,
    RconucbPolicy,
    RoundRecord,
    build_candidate_set,
    select_arm_pair,
    select_keyterm_pair,
)
from .env import (
    EnvironmentSet,
    Schedule,
    SimulatedUser,
    SyntheticConfig,
    dueling_regret,
    gen_synthetic,
    mnl_regret,
)
from .errors import (
    ConduelError,
    ConfigError,
    DataFormatError,
    DomainError,
    NumericalError,
    StructuralError,
)
from .estimator import (
    DuelObjective,
    InteractionHistory,
    ThetaEstimate,
    dueling_radius,
    mle_fit,
)
from .glm import DesignMatrix, LinkFunction, WeightGraph, get_link, ucb_utilities
from .harness import ALL_KINDS, RegretTrace, run_experiment
from .mnl import (
    MNL_KINDS,
    ChoiceHistory,
    MnlConfig,
    MnlObjective,
    MnlPolicy,
    expected_revenue,
    mnl_mle_fit,
    mnl_probs,
    mnl_radius,
    optimal_assortment,
)
from .spanner import Spanner, build_spanner

__version__ = "0.1.0"
