"""zentropy: the entropic potential of discrete events, end to end.

Core metric (entropic_potential) over pluggable system models, with three
executable harnesses: grid-world action evaluation and intrinsic-reward
Q-learning (mdp_sim, rl_agent), Bayesian query ranking (bayes_infer), and
streaming anomaly detection (anomaly_detect). `zentropy --help` for the CLI.
"""

from ._kernels import active_backend
from .anomaly_detect import DetectorConfig, EventScore, StreamDetector, replay
from .bayes_infer import (
    BernoulliFlip,
    GridPosterior,
    QueryCandidate,
    expected_event_potential,
    mutual_information,
    posterior_update,
    rank_queries,
    realized_event_potential,
    realized_potentials,
)
from .entropic_potential import (
    Baseline,
    EstimatorConfig,
    Event,
    EventClass,
    Horizon,
    SystemModel,
    Walk,
    ZEstimate,
    classify_event,
    mc_entropy_of_branch,
    rank_events,
    z_counterfactual,
    z_pre_post,
)
from .entropy_core import (
    Distribution,
    EntropyBits,
    SampleCounts,
    joint_product,
    miller_madow_entropy,
    plugin_entropy,
    renyi_entropy,
    shannon_entropy,
)
from .markov import MarkovChainModel, random_chain_model, two_state_flip_chain
from .mdp_sim import (
    ACTIONS,
    GridWorld,
    GridWorldModel,
    always_policy,
    corridor_world,
    future_state_distribution,
    push_forward,
    ranked_row,
    render_ascii,
    transition_kernel,
    uniform_policy,
    z_table,
)
from .rl_agent import (
    ShapingConfig,
    TrainResult,
    evaluate_policy,
    greedy_policy_from_q,
    shaped_reward,
    train,
)

__version__ = "0.1.0"
