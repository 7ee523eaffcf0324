"""Tabular Q-learning on the grid-world with entropic-potential reward shaping.

The shaped reward is r_env - beta * Z(state, action): actions that reduce
future state entropy earn a bonus, actions that raise it pay a penalty.
Z values come from the exact back-end, cached per (cell, action) and
refreshed every `recompute_every` episodes under the configured follow-on
policy (the agent's current greedy policy by default).

RNG protocol (normative for the beta=0 ablation identity): one generator,
`np.random.default_rng(seed)`, seeded once and consumed strictly in this
order per step:
  1. one `random()` uniform for the explore/exploit decision,
  2. if exploring, one `integers(0, 4)` draw for the action,
  3. one `random()` uniform for the slip outcome.
With beta=0 the Z machinery is bypassed entirely, so a vanilla learner
following the same protocol reproduces the run byte for byte.

`train` does not make these scalar Generator calls: it reads the same draws
from blocks of raw 64-bit PCG64 words (`bit_generator.random_raw`), turned
into Python ints once per block. It relies on how numpy (1.17 and later)
maps raw words to draws:
  - `random()` takes one word w and returns (w >> 11) * 2**-53, so
    `random() < p` exactly when w < _raw_threshold(p);
  - `integers(0, 4)` is a 32-bit draw through Lemire's method, which never
    rejects for a range of 4, so the action is the draw's top two bits;
  - a 32-bit draw takes the low half of a fresh word and buffers the high
    half, which the next 32-bit draw takes; `random()` neither reads nor
    clears that buffer, so it carries across steps, episodes and Z refreshes.
`tests/test_rl_agent.py` checks this mapping against scalar Generator calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp_sim import ACTIONS, GridWorld, _checked_policy, uniform_policy, z_table

Z_POLICIES = ("current-greedy", "fixed-uniform")
MAX_EPISODES = 100_000
MAX_STEPS = 10_000  # per episode; with MAX_EPISODES, at most 10**9 env steps

_RAW_BLOCK = 1024  # raw PCG64 words fetched per refill of the draw buffer


@dataclass(frozen=True)
class ShapingConfig:
    beta: float = 0.0
    horizon_k: int = 8
    recompute_every: int = 100
    z_policy: str = "current-greedy"

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        if self.horizon_k < 1:
            raise ValueError("horizon_k must be >= 1")
        if self.recompute_every < 1:
            raise ValueError("recompute_every must be >= 1")
        if self.z_policy not in Z_POLICIES:
            raise ValueError(f"z_policy must be one of {Z_POLICIES}")


@dataclass
class TrainResult:
    episode_returns: list
    steps_to_goal: list
    mean_intrinsic: list
    reached: list
    final_policy: dict  # cell -> action name
    final_q: dict       # (cell, action name) -> value
    z_snapshots: list   # (episode, {(cell, action name): z_bits})


def _check_beta(beta: float) -> None:
    # NaN would switch shaping off (nan > 0 is False); inf makes NaN rewards
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if beta < 0:
        raise ValueError("beta must be >= 0")


def shaped_reward(r_env: float, z_value: float, beta: float) -> float:
    """r_env - beta * Z: negative Z (entropy reduction) becomes a bonus."""
    _check_beta(beta)
    return r_env - beta * z_value


def _raw_threshold(p: float) -> int:
    """The bound b for which `random() < p` iff the raw PCG64 word w < b.

    random() is k * 2**-53 with k = w >> 11, and p * 2**53 is exact for p in
    [0, 1], so k < p * 2**53 iff k < ceil(p * 2**53) iff w < ceil(...) << 11.
    """
    return math.ceil(p * 2**53) << 11


def greedy_policy_from_q(q: np.ndarray) -> np.ndarray:
    """Point-mass policy on the argmax action of each Q row (first max wins)."""
    return np.eye(4)[np.argmax(q, axis=1)]


def _z_table(g: GridWorld, qarg: list, shaping: ShapingConfig) -> tuple[dict, list]:
    """Z of every (free cell, action) under the configured follow-on policy,
    as the snapshot dict keyed by (cell, action name), and the shaping term
    bonus[s][a] = -beta * Z by flat cell index and action index (0.0 on
    walls, where no step starts). The current-greedy policy is the point
    mass on qarg[s], each Q row's first maximum: greedy_policy_from_q of
    the table."""
    if shaping.z_policy == "current-greedy":
        follow = np.eye(4)[qarg]
    else:
        follow = uniform_policy(g)
    cells = g.free_cells()
    z, _ = z_table(g, cells, follow, shaping.horizon_k)
    snapshot = {}
    bonus = [[0.0] * 4 for _ in range(g.n_cells)]
    for c, row, terms in zip(cells, z.tolist(), (-shaping.beta * z).tolist()):
        bonus[g.index_of(c)] = terms
        snapshot.update(((c, a), v) for a, v in zip(ACTIONS, row))
    return snapshot, bonus


def train(g: GridWorld, shaping: ShapingConfig, episodes: int, max_steps: int,
          epsilon: float, alpha: float, gamma: float, seed: int,
          q_init: float = 1.0) -> TrainResult:
    """Epsilon-greedy Q-learning with +1 reward at the goal and the shaped
    intrinsic term. Fully reproducible from the seed.

    Q starts optimistic (q_init=1.0, the maximum undiscounted return) so the
    sparse goal gets found without cranking epsilon; pass q_init=0.0 for the
    pessimistic variant.

    The Q table is a list of 4-float rows: each step reads one short row, a
    job plain Python floats do faster than numpy calls. The greedy action is
    the first maximum (np.argmax's tie-break) and every update is the same
    double-precision expression, so results equal those of an array table.

    No step scans a row. Each row's maximum and greedy action are cached,
    with qmax[s] == max(q[s]) and qarg[s] the first index holding it. An
    exploit step takes qarg[s]; the update target reads qmax[nxt] before
    the write, as nxt may be s. After q[s][a] = v, a v above the maximum
    becomes the maximum at a, a fall of the greedy entry rescans the row,
    and a v equal to the maximum at an index before qarg[s] moves qarg[s]
    there. qmax[s] may differ from max(q[s]) in the sign of a zero, which
    no comparison sees and no update feels: the reward r is never -0.0, so
    r + gamma * qmax[nxt] is the same for either zero.

    At the start of each episode at least 3 * max_steps raw words, the most
    an episode reads, are unread; a refill appends max(_RAW_BLOCK,
    3 * max_steps) words after the unread ones, so the copying grows with
    the words consumed, not with the number of episodes.
    """
    if not 0 <= episodes <= MAX_EPISODES:
        raise ValueError(f"episodes must be in 0..{MAX_EPISODES}, got {episodes}")
    if not 1 <= max_steps <= MAX_STEPS:
        raise ValueError(f"max_steps must be in 1..{MAX_STEPS}, got {max_steps}")
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must be in [0, 1]")

    raw = np.random.default_rng(seed).bit_generator.random_raw
    words: list = []  # raw words; words[pos:] are unread
    pos = 0
    held = -1  # action in the buffered high half of a word, -1 if none
    need = 3 * max_steps  # a step reads at most 3 words
    block = max(_RAW_BLOCK, need)
    explore_below = _raw_threshold(epsilon)
    goal = g.index_of(g.goal)
    q = [[float(q_init)] * 4 for _ in range(g.n_cells)]
    q[goal] = [0.0] * 4  # terminal: no future value beyond the arrival reward
    qmax = [row[0] for row in q]
    qarg = [0] * g.n_cells
    start = g.index_of(g.start)
    targets = g.successors.tolist()
    move_below = _raw_threshold(1.0 - g.slip)
    keep = 1.0 - alpha

    use_z = shaping.beta > 0.0
    bonus = [[0.0] * 4 for _ in range(g.n_cells)]  # bonus[s][a] = -beta * Z
    returns, steps_list, intr_list, reached_list, snapshots = [], [], [], [], []

    for ep in range(episodes):
        # fixed-uniform tables do not depend on the learned policy, so the
        # periodic refresh only applies to the current-greedy variant
        if use_z and ep % shaping.recompute_every == 0 and (
                ep == 0 or shaping.z_policy == "current-greedy"):
            snapshot, bonus = _z_table(g, qarg, shaping)
            snapshots.append((ep, snapshot))
        # drawing past the end of the run is harmless, as no one else reads
        # this generator
        if len(words) - pos < need:
            words = words[pos:] + raw(block).tolist()
            pos = 0
        s = start
        ep_return = 0.0
        intr_sum = 0.0
        steps = 0
        while steps < max_steps and s != goal:
            qs = q[s]
            if words[pos] < explore_below:
                if held < 0:
                    a = (words[pos + 1] >> 30) & 3
                    held = words[pos + 1] >> 62
                    pos += 2
                else:
                    a = held
                    held = -1
                    pos += 1
            else:
                a = qarg[s]
                pos += 1
            nxt = targets[s][a] if words[pos] < move_below else s
            pos += 1
            r_env = 1.0 if nxt == goal else 0.0
            intrinsic = bonus[s][a]
            r = r_env + intrinsic
            v = keep * qs[a] + alpha * (r + gamma * qmax[nxt])
            qs[a] = v
            top = qmax[s]
            if v > top:
                qmax[s] = v
                qarg[s] = a
            elif a == qarg[s]:
                if v != top:
                    top = qmax[s] = max(qs)
                    qarg[s] = qs.index(top)
            elif v == top and a < qarg[s]:
                qarg[s] = a
            ep_return += r_env
            intr_sum += intrinsic
            steps += 1
            s = nxt
        returns.append(ep_return)
        steps_list.append(steps)
        intr_list.append(intr_sum / steps if steps else 0.0)
        reached_list.append(s == goal)

    final_policy = {}
    final_q = {}
    for c in g.free_cells():
        i = g.index_of(c)
        final_policy[c] = ACTIONS[qarg[i]]
        final_q.update(((c, a), v) for a, v in zip(ACTIONS, q[i]))
    return TrainResult(returns, steps_list, intr_list, reached_list,
                       final_policy, final_q, snapshots)


def evaluate_policy(g: GridWorld, policy: np.ndarray, n_episodes: int, max_steps: int,
                    seed: int) -> tuple[float, float]:
    """Seeded rollout statistics (mean return, mean steps) for a fixed policy.

    Episodes use independent child streams keyed by episode index, so the
    statistics do not depend on evaluation order.
    """
    if n_episodes < 0 or max_steps < 1:
        raise ValueError("n_episodes must be >= 0 and max_steps >= 1")
    cum = np.cumsum(_checked_policy(g, policy), axis=1)
    goal = g.goal
    total_return = 0.0
    total_steps = 0
    for ep in range(n_episodes):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ep,)))
        c = g.start
        steps = 0
        while steps < max_steps and c != goal:
            # the first action whose cumulative probability exceeds u, else the last
            a = min(int(np.searchsorted(cum[g.index_of(c)], rng.random(), side="right")), 3)
            c = g.move_target(c, ACTIONS[a]) if rng.random() < 1.0 - g.slip else c
            steps += 1
        total_return += 1.0 if c == goal else 0.0
        total_steps += steps
    if n_episodes == 0:
        return 0.0, 0.0
    return total_return / n_episodes, total_steps / n_episodes
