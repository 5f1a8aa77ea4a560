"""Communicating messages through MDP trajectories.

A sender plans with a max-entropy policy, then couples its running posterior
over the message with the planned action distribution at every decision point
using greedy minimum entropy coupling. The receiver replays the construction
from the observed trajectory and decodes the maximum a posteriori message.
"""

from .baseline import MessageConditionalQ, rollout_rl_pr, train_rl_pr
from .coding import (
    EpisodeRecord,
    action_row,
    exact_coded_value,
    map_estimate,
    posterior_update,
    receiver_decode,
    run_roundtrip,
    sender_episode,
)
from .dist import (
    CouplingEntropies,
    Dist,
    SparseCoupling,
    coupling_entropies,
    entropy,
    entropy_nats,
)
from .envs import (
    build_channel_chain,
    build_codegrid,
    build_env,
    build_toy_mcg,
    chain_mcg,
)
from .maxent import (
    QTable,
    TrainConfig,
    exact_policy_objective,
    exact_soft_vi,
    expected_cumulative_entropy_bits,
    softmax_policy,
    train_soft_q,
)
from .mcg import (
    Belief,
    McgSpec,
    MessageSpace,
    hamming_distance,
    sample_message,
)
from .mdp import (
    MdpSpec,
    ObservedTrajectory,
    Step,
    Trajectory,
    apply_actuator_noise,
    exact_policy_return,
    step,
    trajectory_return,
)
from .mec import greedy_mec
from .sweep import MetricsRow, SweepConfig, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
