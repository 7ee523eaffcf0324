"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written against plain dicts and math.log2,
not against the package's numpy paths, so the two sides of every check stay
independent.
"""

import csv
import json
import math
from collections import deque

from zentropy.cli import ATTRIBUTION_HEADER, fmt, write_csv
from zentropy.errors import ZentropyError


def entropy_bits(probs) -> float:
    """Shannon entropy of an iterable of probabilities."""
    return -sum(p * math.log2(p) for p in probs if p > 0)


# -- grid-world enumeration ---------------------------------------------------

def corridor_kernel(cell, action, length=5, slip=0.2, goal=None):
    """One-step law on a 1xN corridor with stay-on-block noise."""
    goal = length - 1 if goal is None else goal
    if cell == goal:
        return {goal: 1.0}
    tgt = cell + 1 if action == "right" else cell - 1 if action == "left" else cell
    if tgt < 0 or tgt >= length:
        tgt = cell
    out = {}
    out[tgt] = out.get(tgt, 0.0) + (1.0 - slip)
    out[cell] = out.get(cell, 0.0) + slip
    return out


def corridor_push(dist, action, length=5, slip=0.2):
    out = {}
    for c, p in dist.items():
        for nc, q in corridor_kernel(c, action, length, slip).items():
            out[nc] = out.get(nc, 0.0) + p * q
    return out


def corridor_future(start_cell, first, k, length=5, slip=0.2, follow="right"):
    """Dict law of the cell after `first` then k-1 steps of the follow action."""
    d = {start_cell: 1.0}
    if first is not None:
        d = corridor_push(d, first, length, slip)
        k -= 1
    for _ in range(k):
        d = corridor_push(d, follow, length, slip)
    return d


# -- chain enumeration --------------------------------------------------------

def chain_future(start, kernel_rows, steps, event_rows=None):
    """Push a start dict through an optional event kernel then `steps` of the
    base kernel; kernels are lists of row dicts {next: prob}."""
    d = dict(start)
    def push(d, rows):
        out = {}
        for s, p in d.items():
            for ns, q in rows[s].items():
                out[ns] = out.get(ns, 0.0) + p * q
        return out
    if event_rows is not None:
        d = push(d, event_rows)
    for _ in range(steps):
        d = push(d, kernel_rows)
    return d


def last_step_estimate(states, outcomes, probs):
    """(H, SE, g) of the Monte Carlo branch estimator for one row of states
    before the last step, from dicts: p = sum_s (q_s / n) probs[s] over the
    outcomes, H = H(p), g_s = -sum_j probs[s][j] log2 p[outcomes[s][j]],
    SE = sqrt(sum_s (q_s / n) (g_s - H)^2 / n), and g the list of g_s of
    each walk's state s."""
    n = len(states)
    q = {}
    for s in states:
        q[s] = q.get(s, 0) + 1
    p = {}
    for s, c in q.items():
        for t, pr in zip(outcomes[s], probs[s]):
            p[t] = p.get(t, 0.0) + c / n * pr
    h = entropy_bits(p.values())
    g = {s: -sum(pr * math.log2(p[t]) for t, pr in zip(outcomes[s], probs[s]) if pr > 0)
         for s in q}
    se = math.sqrt(sum(c / n * (g[s] - h) ** 2 for s, c in q.items()) / n)
    return h, se, [g[s] for s in states]


# -- search / planning --------------------------------------------------------

def bfs_shortest_path(width, height, walls, start, goal) -> int:
    walls = set(tuple(w) for w in walls)
    seen = {tuple(start)}
    queue = deque([(tuple(start), 0)])
    while queue:
        (x, y), d = queue.popleft()
        if (x, y) == tuple(goal):
            return d
        for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            nxt = (x + dx, y + dy)
            if (0 <= nxt[0] < width and 0 <= nxt[1] < height
                    and nxt not in walls and nxt not in seen):
                seen.add(nxt)
                queue.append((nxt, d + 1))
    raise ValueError("goal unreachable")


def value_iteration_actions(width, height, walls, start, goal, slip,
                            gamma=0.95, iters=500):
    """Optimal greedy action per free cell for the +1-at-goal MDP."""
    walls = set(tuple(w) for w in walls)
    goal = tuple(goal)
    cells = [(x, y) for y in range(height) for x in range(width)
             if (x, y) not in walls]
    deltas = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}

    def move(c, a):
        nxt = (c[0] + deltas[a][0], c[1] + deltas[a][1])
        if not (0 <= nxt[0] < width and 0 <= nxt[1] < height) or nxt in walls:
            return c
        return nxt

    v = {c: 0.0 for c in cells}
    for _ in range(iters):
        nv = {}
        for c in cells:
            if c == goal:
                nv[c] = 0.0
                continue
            best = -1e18
            for a in deltas:
                t = move(c, a)
                qa = (1 - slip) * ((1.0 if t == goal else 0.0) + gamma * v[t]) \
                    + slip * (0.0 + gamma * v[c])
                best = max(best, qa)
            nv[c] = best
        v = nv
    actions = {}
    for c in cells:
        if c == goal:
            continue
        best_a, best_q = None, -1e18
        for a in ("up", "down", "left", "right"):
            t = move(c, a)
            qa = (1 - slip) * ((1.0 if t == goal else 0.0) + gamma * v[t]) \
                + slip * gamma * v[c]
            if qa > best_q + 1e-12:
                best_a, best_q = a, qa
        actions[c] = best_a
    return actions


# -- reference learners -------------------------------------------------------

def shaped_q_learning(width, height, walls, start, goal, slip, episodes,
                      max_steps, epsilon, alpha, gamma, seed, q_init=1.0,
                      beta=0.0, z_table=None, recompute_every=None):
    """Epsilon-greedy Q-learning on a numpy (cells, 4) table with the shaped
    reward r - beta * Z, following the documented RNG protocol: per step one
    uniform (explore?), one integer draw iff exploring, one uniform (slip).

    z_table(q) returns {((x, y), action): Z} for the current table q. It is
    called before episode 0 and then before every `recompute_every`-th
    episode (never again if None); with beta=0 it is never called. Returns
    (returns, steps, mean_intrinsic, final_q ndarray, [(episode, table)]).
    """
    import numpy as np

    walls = set(tuple(w) for w in walls)
    n = width * height
    actions = ("up", "down", "left", "right")
    deltas = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}

    def idx(c):
        return c[1] * width + c[0]

    def move_idx(i, a):
        c = (i % width, i // width)
        nxt = (c[0] + deltas[a][0], c[1] + deltas[a][1])
        if not (0 <= nxt[0] < width and 0 <= nxt[1] < height) or nxt in walls:
            return i
        return idx(nxt)

    rng = np.random.default_rng(seed)
    q = np.full((n, 4), float(q_init))
    gi = idx(tuple(goal))
    q[gi] = 0.0
    si = idx(tuple(start))
    z = np.zeros((n, 4))
    returns, steps_out, intr_out, snapshots = [], [], [], []
    for ep in range(episodes):
        if beta > 0 and (ep == 0 or (recompute_every and ep % recompute_every == 0)):
            table = z_table(q)
            snapshots.append((ep, table))
            z[:] = 0.0
            for (c, a), v in table.items():
                z[idx(c), actions.index(a)] = v
        s = si
        ep_ret = 0.0
        intr_sum = 0.0
        steps = 0
        while steps < max_steps and s != gi:
            if rng.random() < epsilon:
                a = int(rng.integers(0, 4))
            else:
                a = int(np.argmax(q[s]))
            nxt = move_idx(s, actions[a]) if rng.random() < 1.0 - slip else s
            r_env = 1.0 if nxt == gi else 0.0
            intrinsic = -beta * z[s, a] if beta > 0 else 0.0
            r = r_env + intrinsic
            q[s, a] = (1.0 - alpha) * q[s, a] + alpha * (r + gamma * q[nxt].max())
            ep_ret += r_env
            intr_sum += intrinsic
            steps += 1
            s = nxt
        returns.append(ep_ret)
        steps_out.append(steps)
        intr_out.append(intr_sum / steps if steps else 0.0)
    return returns, steps_out, intr_out, q, snapshots


def vanilla_q_learning(width, height, walls, start, goal, slip, episodes,
                       max_steps, epsilon, alpha, gamma, seed, q_init=1.0):
    """shaped_q_learning with beta=0: plain epsilon-greedy Q-learning.
    Returns (returns, steps, final_q ndarray)."""
    returns, steps, _, q, _ = shaped_q_learning(
        width, height, walls, start, goal, slip, episodes, max_steps,
        epsilon, alpha, gamma, seed, q_init)
    return returns, steps, q


def train_scanning_rows(g, shaping, episodes, max_steps, epsilon, alpha, gamma, seed,
                        q_init=1.0):
    """zentropy.rl_agent.train as it was before its rows' maxima were cached:
    every exploit step and every update target scans a Q row with max(), and
    a step tops up the raw-word buffer whenever fewer than 3 words are
    unread. Same arguments and TrainResult; the package's loop must match
    it bit for bit."""
    import numpy as np

    from zentropy.mdp_sim import ACTIONS, uniform_policy, z_table
    from zentropy.rl_agent import TrainResult, _raw_threshold, greedy_policy_from_q

    def z_of(q):
        if shaping.z_policy == "current-greedy":
            follow = greedy_policy_from_q(np.array(q))
        else:
            follow = uniform_policy(g)
        cells = g.free_cells()
        z, _ = z_table(g, cells, follow, shaping.horizon_k)
        snapshot = {}
        zt = [[0.0] * 4 for _ in range(g.n_cells)]
        for c, row in zip(cells, z.tolist()):
            zt[g.index_of(c)] = row
            snapshot.update(((c, a), v) for a, v in zip(ACTIONS, row))
        return snapshot, zt

    raw = np.random.default_rng(seed).bit_generator.random_raw
    words = []
    pos = 0
    held = -1
    explore_below = _raw_threshold(epsilon)
    goal = g.index_of(g.goal)
    q = [[float(q_init)] * 4 for _ in range(g.n_cells)]
    q[goal] = [0.0] * 4
    start = g.index_of(g.start)
    targets = g.successors.tolist()
    move_below = _raw_threshold(1.0 - g.slip)
    keep = 1.0 - alpha
    neg_beta = -shaping.beta
    use_z = shaping.beta > 0.0
    zt = []
    returns, steps_list, intr_list, reached_list, snapshots = [], [], [], [], []
    for ep in range(episodes):
        if use_z and ep % shaping.recompute_every == 0 and (
                ep == 0 or shaping.z_policy == "current-greedy"):
            snapshot, zt = z_of(q)
            snapshots.append((ep, snapshot))
        s = start
        ep_return = 0.0
        intr_sum = 0.0
        steps = 0
        reached = s == goal
        while steps < max_steps and not reached:
            while len(words) - pos < 3:
                words = words[pos:] + raw(1024).tolist()
                pos = 0
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
                a = qs.index(max(qs))
                pos += 1
            nxt = targets[s][a] if words[pos] < move_below else s
            pos += 1
            r_env = 1.0 if nxt == goal else 0.0
            intrinsic = neg_beta * zt[s][a] if use_z else 0.0
            r = r_env + intrinsic
            qs[a] = keep * qs[a] + alpha * (r + gamma * max(q[nxt]))
            ep_return += r_env
            intr_sum += intrinsic
            steps += 1
            s = nxt
            reached = s == goal
        returns.append(ep_return)
        steps_list.append(steps)
        intr_list.append(intr_sum / steps if steps else 0.0)
        reached_list.append(reached)
    final_policy = {}
    final_q = {}
    for c in g.free_cells():
        qs = q[g.index_of(c)]
        final_policy[c] = ACTIONS[qs.index(max(qs))]
        final_q.update(((c, a), v) for a, v in zip(ACTIONS, qs))
    return TrainResult(returns, steps_list, intr_list, reached_list,
                       final_policy, final_q, snapshots)


def evaluate_policy_loop(g, policy, n_episodes, max_steps, seed):
    """Seeded rollout statistics (mean return, mean steps) of a dict policy
    {cell: [(action, p), ...]}: the action is found by a running sum over the
    pairs, the last one of positive probability if u reaches every partial
    sum. Each episode draws from its own child stream."""
    import numpy as np

    goal = g.goal
    total_return = 0.0
    total_steps = 0
    for ep in range(n_episodes):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ep,)))
        c = g.start
        steps = 0
        while steps < max_steps and c != goal:
            pairs = policy[c]
            u = rng.random()
            acc = 0.0
            action = [label for label, p in pairs if p > 0.0][-1]
            for label, p in pairs:
                acc += p
                if u < acc:
                    action = label
                    break
            c = g.move_target(c, action) if rng.random() < 1.0 - g.slip else c
            steps += 1
        total_return += 1.0 if c == goal else 0.0
        total_steps += steps
    if n_episodes == 0:
        return 0.0, 0.0
    return total_return / n_episodes, total_steps / n_episodes


def make_regime_shift_stream(seed, n_pre=500, n_post=100):
    """Values uniform over bins {0,1} (of a 4-bin unit-width layout), then
    shifting to bins {2,3} at index n_pre."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pre = rng.integers(0, 2, n_pre) + 0.5
    post = rng.integers(2, 4, n_post) + 0.5
    return np.concatenate([pre, post]).tolist()


# -- streaming replay reference ------------------------------------------------

def stream_replay_reference(values, window, bins, lo, hi, kappa, warmup, alpha):
    """Offline recomputation of the detector semantics with plain lists."""
    width = (hi - lo) / bins
    win = []
    zs = []
    out = []
    for i, x in enumerate(values):
        b = min(max(int(math.floor((x - lo) / width)), 0), bins - 1)
        counts = [0] * bins
        for s in win:
            counts[s] += 1
        pre = entropy_bits((c + alpha) / (len(win) + bins * alpha) for c in counts)
        new_win = win + [b]
        if len(new_win) > window:
            new_win = new_win[1:]
        counts2 = [0] * bins
        for s in new_win:
            counts2[s] += 1
        post = entropy_bits((c + alpha) / (len(new_win) + bins * alpha)
                            for c in counts2)
        z = post - pre
        win = new_win
        zs.append(z)
        recent = zs[-window:]
        mean = sum(recent) / len(recent)
        var = sum((v - mean) ** 2 for v in recent) / len(recent)
        std = math.sqrt(var)
        flagged = i >= warmup and z > mean + kappa * std
        out.append((b, z, mean, std, flagged))
    return out


# -- categorical walk ----------------------------------------------------------

def _count_le(row, v):
    """Binary search: the number of entries of the nondecreasing row <= v."""
    lo = 0
    hi = len(row)
    while lo < hi:
        mid = (lo + hi) // 2
        if row[mid] <= v:
            lo = mid + 1
        else:
            hi = mid
    return lo


def walk_outcomes_loop(cum_start, first, n_first, rest, n_rest, u, out):
    """Per-walk binary search reference for zentropy._kernels.walk_outcomes.

    first/rest are (succ, cum) sampling tables: row s lists the successors
    of state s and their cumulative probabilities, pinned to 1.0 from the
    last nonzero probability onward. Each step moves to the successor in
    the column given by the count of row entries <= u.
    """
    for i in range(u.shape[0]):
        s = _count_le(cum_start, u[i, 0])
        col = 1
        for succ, cum in [first] * n_first + [rest] * n_rest:
            s = succ[s][_count_le(cum[s], u[i, col])]
            col += 1
        out[i] = s


# -- per-event stream kernel ---------------------------------------------------

def stream_scores_loop(values, lo, width, n_bins, alpha, kappa, warmup,
                       window, z_past, state,
                       out_bin, out_z, out_mean, out_std, out_flag):
    """The per-event stream kernel: one statement sequence per value.

    Same arguments and state layout as zentropy._kernels.stream_scores, plus
    the five output arrays it fills; the package's whole-array kernel must
    match it bit for bit. state: int64 [n_seen]; window and z_past hold the
    last min(n_seen, cap) bins and scores, oldest first.
    """
    cap = window.shape[0]
    n_seen = int(state[0])
    win_len = z_len = min(n_seen, cap)
    counts = [0] * n_bins
    for j in range(win_len):
        counts[window[j]] += 1
    for i in range(values.shape[0]):
        x = values[i]
        b = int(math.floor((x - lo) / width))
        if b < 0:
            b = 0
        if b > n_bins - 1:
            b = n_bins - 1

        denom = win_len + n_bins * alpha
        h_pre = 0.0
        for j in range(n_bins):
            p = (counts[j] + alpha) / denom
            h_pre -= p * math.log2(p)

        # insert the candidate; a full window evicts its oldest symbol first
        if win_len == cap:
            counts[window[0]] -= 1
            for j in range(cap - 1):
                window[j] = window[j + 1]
            win_len -= 1
        window[win_len] = b
        counts[b] += 1
        win_len += 1
        denom = win_len + n_bins * alpha
        h_post = 0.0
        for j in range(n_bins):
            p = (counts[j] + alpha) / denom
            h_post -= p * math.log2(p)
        z = h_post - h_pre

        # rolling stats over the last <=cap scores, current one included
        if z_len == cap:
            for j in range(cap - 1):
                z_past[j] = z_past[j + 1]
            z_len -= 1
        z_past[z_len] = z
        z_len += 1

        total = 0.0
        for j in range(z_len):
            total += z_past[j]
        mean = total / z_len
        sq = 0.0
        for j in range(z_len):
            d = z_past[j] - mean
            sq += d * d
        std = math.sqrt(sq / z_len)

        out_bin[i] = b
        out_z[i] = z
        out_mean[i] = mean
        out_std[i] = std
        out_flag[i] = (n_seen >= warmup) and (z > mean + kappa * std)
        n_seen += 1
        state[0] = n_seen


# -- Bayesian grid -------------------------------------------------------------

def mutual_information_loop(p, q) -> float:
    """I(parameter; outcome) of grid posterior p and query q as a double loop
    over (point, outcome) in numpy float64 scalars, each positive joint entry
    adding its term to a running total from 0.0: the reference for the array
    form of bayes_infer.mutual_information, which must match it bit for bit."""
    import numpy as np

    like = q.model.likelihood_matrix(p.grid)
    joint = p.probs[:, None] * like
    marg_theta = p.probs
    marg_out = joint.sum(axis=0)
    total = 0.0
    n_grid, n_out = joint.shape
    for i in range(n_grid):
        for j in range(n_out):
            v = joint[i, j]
            if v > 0.0:
                total += v * np.log2(v / (marg_theta[i] * marg_out[j]))
    return float(total)


def _posterior_per_datum(p, model, outcome):
    """The posterior after one datum as a checked GridPosterior: the prior
    times the likelihood, over its total, which the constructor then
    renormalises once more (no zero-evidence check: the caller's)."""
    from zentropy.bayes_infer import GridPosterior

    w = p.probs * model.likelihood(p.grid, outcome)
    return GridPosterior(p.grid, w / float(w.sum()))


def realized_potentials_per_datum(p, model, data) -> list:
    """bayes_infer.realized_potentials with one GridPosterior built per
    datum; the array loop must match it bit for bit. An impossible datum
    raises ZeroEvidenceError."""
    from zentropy.errors import ZeroEvidenceError

    h = [float(p.entropy())]
    for outcome in data:
        if not (p.probs * model.likelihood(p.grid, outcome)).sum():
            raise ZeroEvidenceError(outcome)
        p = _posterior_per_datum(p, model, outcome)
        h.append(float(p.entropy()))
    return [b - a for a, b in zip(h, h[1:])]


def expected_potential_per_outcome(p, q) -> float:
    """bayes_infer.expected_event_potential's value with one GridPosterior
    built per outcome of positive predictive mass."""
    predictive = p.probs @ q.model.likelihood_matrix(p.grid)
    expected = 0.0
    for j, outcome in enumerate(q.model.outcomes):
        if float(predictive[j]) != 0.0:
            post = _posterior_per_datum(p, q.model, outcome)
            expected += float(predictive[j]) * float(post.entropy())
    return expected - float(p.entropy())


# -- CSV output -----------------------------------------------------------------

def write_csv_rows(path, header, rows, config_hash) -> None:
    """The CLI's CSV written one row at a time: csv.writer over fmt of each
    value, the reference for the columnar cli.write_csv."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# config_hash={config_hash}\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


# -- JSON output ------------------------------------------------------------------

def _round_floats(obj):
    """obj with every float (subclasses too, keys not) rounded to 9
    significant digits, every tuple a list."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_json_two_step(path, obj, config_hash) -> None:
    """The CLI's JSON written in two steps, rounding a copy of the record
    and then dumping it with json's indenting encoder: the reference for the
    one-pass cli.write_json."""
    obj = dict(obj)
    obj["config_hash"] = config_hash
    try:
        text = json.dumps(_round_floats(obj), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as e:  # a non-finite float
        raise ZentropyError(f"non-finite number in {path.name}: {e}") from e
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


# -- attribution rows -------------------------------------------------------------

def label_of(value, std_error, tol) -> str:
    """The label of one Z with standard error std_error, by scalar comparisons
    in Python floats: a sign needs |Z| > tol + 2 * std_error, then |Z| <= tol
    is neutral and anything else uncertain. The reference for
    entropic_potential.event_labels."""
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    if abs(value) > tol + 2.0 * std_error:
        return "beneficial" if value < 0 else "harmful"
    if abs(value) <= tol:
        return "neutral"
    return "uncertain"


def attribution_row(event, description, z, tol) -> list:
    """One attribution.csv row from a ZEstimate, as the CLI assembled its
    rows before it wrote them from columns."""
    return [event, description, z.horizon.t0, z.horizon.t,
            z.value, z.std_error, z.method, label_of(z.value, z.std_error, tol)]


def ranked_rows(rows) -> list:
    """Attribution rows most beneficial (lowest Z) first, ties by event."""
    return sorted(rows, key=lambda r: (r[4], r[0]))


def columns(rows, width) -> list:
    """A table built row by row as `width` columns."""
    return list(zip(*rows)) if rows else [()] * width


def write_attribution_rows(out, rows, config_hash) -> None:
    """attribution.csv from attribution_row rows, ranked, as columns of
    Python values: the reference for cli._write_attribution."""
    write_csv(out / "attribution.csv", ATTRIBUTION_HEADER,
              columns(ranked_rows(rows), len(ATTRIBUTION_HEADER)), config_hash)
