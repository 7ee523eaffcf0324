"""Stochastic grid-world MDP with an exact push-forward oracle.

The noise model is deliberately minimal: a move succeeds with probability
1-slip and otherwise the agent stays put; moves into walls or borders
resolve to "stay"; the goal cell is absorbing. Everything hand-checkable on
1xN corridors, which is where the golden numbers come from.

Cells are (x, y) tuples with (0, 0) top-left; the flat index is y*width+x.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import _search_table, cumulative, walk_outcomes
from .entropic_potential import (
    EstimatorConfig,
    Event,
    Horizon,
    SystemModel,
    Walk,
    ZEstimate,
    _branch_surprisals,
    _check_uniforms,
    _plans,
    _ranked,
    _uniform_block,
    _uniform_draw,
    _z_from_branches,
)
from .entropy_core import Distribution, _row_entropies, normalized_probs
from .errors import CellIsWallError, EmptyBaselineError, InvalidDistributionError

ACTIONS = ("up", "down", "left", "right")
_DELTAS = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}

Cell = tuple  # (x, y)

MAX_CELLS = 4096  # exact push-forward stays the universal oracle below this

# Byte budget of one (n_cells, branches) float64 block when z_table pushes
# its branches forward. _propagate holds five such blocks at once (the two
# step buffers used in turn, w and then w * slip in one buffer,
# w * (1 - slip), and the set-aside stay rows), so a table over every cell
# of a MAX_CELLS grid never holds all of its dense laws.
TABLE_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class GridWorld:
    width: int
    height: int
    goal: Cell
    start: Cell
    slip: float = 0.0
    walls: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "walls", frozenset(tuple(c) for c in self.walls))
        object.__setattr__(self, "goal", tuple(self.goal))
        object.__setattr__(self, "start", tuple(self.start))
        if self.width < 1 or self.height < 1 or self.width * self.height > MAX_CELLS:
            raise ValueError(f"grid must have 1..{MAX_CELLS} cells")
        if not (0.0 <= self.slip < 1.0):
            raise ValueError(f"slip must be in [0, 1), got {self.slip}")
        for name, cell in (("goal", self.goal), ("start", self.start)):
            if not self._in_bounds(cell):
                raise ValueError(f"{name} cell {cell} out of bounds")
            if cell in self.walls:
                raise ValueError(f"{name} cell {cell} is a wall")
        for w in self.walls:
            if not self._in_bounds(w):
                raise ValueError(f"wall {w} out of bounds")

    def _in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def index_of(self, cell: Cell) -> int:
        x, y = cell
        return y * self.width + x

    def cell_of(self, idx: int) -> Cell:
        return (idx % self.width, idx // self.width)

    def free_cells(self) -> list[Cell]:
        """Non-wall cells in flat-index order; the outcome space of state
        distributions."""
        return [self.cell_of(i) for i in self.free_index.tolist()]

    @cached_property
    def wall_mask(self) -> np.ndarray:
        """(n_cells,) bool, True at each wall's flat index. Like free_index
        and successors, built on first use and read-only."""
        mask = np.zeros(self.n_cells, dtype=bool)
        mask[np.array([self.index_of(c) for c in self.walls], dtype=np.int64)] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def free_index(self) -> np.ndarray:
        """Flat indices of the free cells, in free_cells() order."""
        free = np.flatnonzero(~self.wall_mask)
        free.flags.writeable = False
        return free

    @cached_property
    def successors(self) -> np.ndarray:
        """(n_cells, 5) flat successors: the four successful moves in ACTIONS
        order, then "stay". A move off the grid or into a wall, and any move
        from a wall, stays put; move_target is the per-cell reference."""
        idx = np.arange(self.n_cells)
        x, y = idx % self.width, idx // self.width
        succ = np.repeat(idx[:, None], 5, axis=1)
        for a, action in enumerate(ACTIONS):
            dx, dy = _DELTAS[action]
            nx, ny = x + dx, y + dy
            inside = (nx >= 0) & (nx < self.width) & (ny >= 0) & (ny < self.height)
            dest = np.where(inside, ny * self.width + nx, idx)
            succ[:, a] = np.where(self.wall_mask | self.wall_mask[dest], idx, dest)
        succ.flags.writeable = False
        return succ

    @cached_property
    def successor_outcomes(self) -> np.ndarray:
        """(n_cells, 5) successors as positions in free_cells(), the outcome
        order of state distributions."""
        out = (np.cumsum(~self.wall_mask) - 1)[self.successors]
        out.flags.writeable = False
        return out

    def move_target(self, cell: Cell, action: str) -> Cell:
        dx, dy = _DELTAS[action]
        nxt = (cell[0] + dx, cell[1] + dy)
        if not self._in_bounds(nxt) or nxt in self.walls:
            return cell
        return nxt


def corridor_world(length: int = 5, slip: float = 0.2) -> GridWorld:
    """1xN corridor with the goal at the right end; the golden-value testbed."""
    return GridWorld(width=length, height=1, goal=(length - 1, 0), start=(0, 0), slip=slip)


def render_ascii(g: GridWorld) -> str:
    rows = []
    for y in range(g.height):
        row = []
        for x in range(g.width):
            c = (x, y)
            row.append("#" if c in g.walls else "G" if c == g.goal
                       else "S" if c == g.start else ".")
        rows.append("".join(row))
    return "\n".join(rows)


# -- policies ---------------------------------------------------------------
# A policy is an (n_cells, 4) array: row s holds the action probabilities at
# flat cell s, in ACTIONS order. Wall rows are ignored.

def always_policy(g: GridWorld, action: str) -> np.ndarray:
    """Point-mass policy: the same action in every cell."""
    return np.tile(_action_matrix(action), (g.n_cells, 1))

def uniform_policy(g: GridWorld) -> np.ndarray:
    return np.full((g.n_cells, 4), 0.25)


def _checked_policy(g: GridWorld, policy) -> np.ndarray:
    """policy as a validated (n_cells, 4) float array: every free-cell row a
    probability vector (see normalized_probs), every wall row zero."""
    pol = np.asarray(policy)
    if pol.shape != (g.n_cells, 4):
        raise InvalidDistributionError(
            f"policy must have shape ({g.n_cells}, 4), got {pol.shape}")
    free = ~g.wall_mask
    out = np.zeros((g.n_cells, 4))
    out[free] = normalized_probs(pol[free])
    return out


def _step_probs(g: GridWorld, pol: np.ndarray) -> np.ndarray:
    """(n_cells, 5) probabilities of one step under pol, a (n_cells, 4)
    policy matrix or a (1, 4) one-hot action, over the columns of
    g.successors: the four move targets, then "stay" with the slip mass.
    Goal and wall rows stay put."""
    probs = np.empty((g.n_cells, 5))
    probs[:, :4] = pol * (1.0 - g.slip)
    probs[:, 4] = g.slip
    probs[g.wall_mask] = probs[g.index_of(g.goal)] = (0.0, 0.0, 0.0, 0.0, 1.0)
    return probs


def _step_tables(g: GridWorld, pol: np.ndarray) -> tuple:
    """The (walk, last) tables of one step under pol, as _step_probs takes
    it: walk is its (succ, cum) sampling table over flat cells, last its
    (outcomes, probs) table whose successors are free-cell positions, the
    outcome order (see Walk). Row s is the step from flat cell s."""
    probs = _step_probs(g, pol)
    return (g.successors, cumulative(probs)), (g.successor_outcomes, probs)


def _first_rows(g: GridWorld, starts: np.ndarray, actions) -> tuple:
    """(succ, probs), the first steps of the branches (cell, action) that
    z_table scores, as rows of two (len(starts) * m, 5) arrays: row i * m + j
    is action j's step from flat cell starts[i], its successors flat cells
    and its probabilities those of the action's _step_probs."""
    succ = np.repeat(g.successors[starts], len(actions), axis=0)
    probs = np.stack([_step_probs(g, _action_matrix(a))[starts] for a in actions],
                     axis=1).reshape(-1, 5)
    return succ, probs


def _branch_walk(cum_start, first: tuple, follow: tuple, k: int) -> Walk:
    """Walk of a branch of k steps whose first step takes the `first` tables
    and every later step the follow tables, both (walk, last) pairs as
    _step_tables gives them."""
    if k == 1:
        return Walk(cum_start, first[0], 0, follow[0], 0, first[1])
    return Walk(cum_start, first[0], 1, follow[0], k - 2, follow[1])


def _repeated_columns(policy: np.ndarray) -> list:
    """Per action in ACTIONS order, whether its column of policy, as
    _propagate takes it, has the bytes of the previous action's. Bytes, not
    ==: a -0.0 entry never stands in for a 0.0 one, so a reused product is
    always the product it replaces."""
    cols = policy.T
    return [a > 0 and cols[a].tobytes() == cols[a - 1].tobytes() for a in range(len(cols))]


def _propagate(g: GridWorld, d: np.ndarray, policy: np.ndarray, k: int) -> np.ndarray:
    """k exact push-forward steps of the branches d, an (n_cells, m) block
    whose column b is branch b's law; d may be overwritten. Returns the
    (n_cells, m) block after k steps (d itself when k is 0).

    policy, the policy of every step, is an (n_cells, 4) matrix or a (1, 4)
    one-hot action, shared by every branch.

    Each element gets the float operations of a one-branch loop over source
    cells (``loop_step`` in the tests) in the same order, so a branch's
    result does not depend on m or on the chunking. Per step the goal's mass
    is copied and leaves the active mass w. Then per action, in ACTIONS
    order, with c = w * (1 - slip): a cell's own c, if its move is blocked,
    and the c moving in from the neighbour one flat delta back are added,
    the moved-in term first when the delta is positive (right, down) and
    the stay term first when it is negative (left, up), which is
    source-index order; the slip term w * slip comes last.

    A successful move by flat delta takes block row i to row i + delta, so
    it is one shifted add over the flattened block. The stay rows are set
    aside and c there set to -0.0 first, so the shift adds nothing from them
    (x + -0.0 == x for every x); they are added back as whole rows.

    The products w * (1 - slip) and w * slip depend on the action only
    through its policy column, so an action whose column has the same bytes
    as the previous action's (_repeated_columns) reuses them: all four
    columns of a uniform policy, the three zero columns of a fixed one.
    Before a reuse the stay rows the previous action zeroed in c are put
    back. w and w * slip share one buffer, so the step holds five blocks:
    d, out, that buffer, c and the stay rows.
    """
    d = np.ascontiguousarray(d)
    n, m = d.shape
    gi = g.index_of(g.goal)
    succ = g.successors
    moves = []
    for a, action in enumerate(ACTIONS):
        dx, dy = _DELTAS[action]
        moves.append(((dx + dy * g.width) * m, np.flatnonzero(succ[:, a] == succ[:, 4])))
    # per action a column shared by every branch, (n_cells or 1, 1)
    cols = np.ascontiguousarray(policy.T)[..., None]
    reuse = _repeated_columns(policy)
    # s holds w, then w * slip
    out, s, c = np.empty((n, m)), np.empty((n, m)), np.empty((n, m))
    saved = np.empty((max(len(stay) for _, stay in moves), m))
    flat_c = c.reshape(-1)
    for step in range(k):
        flat_out = out.reshape(-1)
        out.fill(0.0)
        out[gi] = d[gi]  # absorbing, kept exact
        d[gi] = 0.0      # d is now the active mass
        for (shift, stay), col, again in zip(moves, cols, reuse):
            if again:
                c[prev] = kept  # the rows the previous action set to -0.0
            else:
                np.multiply(d, col, out=s)
                np.multiply(s, 1.0 - g.slip, out=c)
                s *= g.slip
            kept = saved[:len(stay)]
            np.take(c, stay, axis=0, out=kept)
            c[stay] = -0.0
            if shift > 0:
                flat_out[shift:] += flat_c[:-shift]
                out[stay] += kept
            else:
                out[stay] += kept
                flat_out[:shift] += flat_c[-shift:]
            out += s
            prev = stay
        d, out = out, d
    return d


def _action_matrix(action: str) -> np.ndarray:
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    m = np.zeros((1, 4))
    m[0, ACTIONS.index(action)] = 1.0
    return m


def _checked_cell(g: GridWorld, cell) -> Cell:
    cell = tuple(cell)
    if cell in g.walls:
        raise CellIsWallError(f"cell {cell} is a wall")
    if not g._in_bounds(cell):
        raise ValueError(f"cell {cell} out of bounds")
    return cell


def _admissible_actions(actions) -> tuple:
    """The requested actions in ACTIONS order; unknown names are rejected."""
    bad = [a for a in actions if a not in ACTIONS]
    if bad:
        raise ValueError(f"unknown actions {bad}")
    return tuple(a for a in ACTIONS if a in actions)


def _dist_to_flat(g: GridWorld, d: Distribution) -> np.ndarray:
    """d as a flat law, checked: each label an (x, y) cell, no mass on a wall."""
    flat = np.zeros(g.n_cells)
    for label, p in zip(d.outcomes, d.probs.tolist()):
        try:
            x, y = cell = tuple(map(operator.index, label))
        except (TypeError, ValueError):
            raise InvalidDistributionError(f"label {label!r} is not an (x, y) cell") from None
        if not g._in_bounds(cell):
            raise ValueError(f"cell {cell} out of bounds")
        if cell in g.walls:
            if p > 0.0:
                raise CellIsWallError(f"distribution puts mass on wall {cell}")
            continue
        flat[y * g.width + x] = p
    return flat


def _flat_to_dist(g: GridWorld, flat: np.ndarray) -> Distribution:
    return Distribution(g.free_cells(), flat[g.free_index])


def _future_flat(g: GridWorld, flat: np.ndarray, first, follow: np.ndarray, k: int):
    """The flat law k >= 1 steps after `flat` (kept): action first, if any, then follow."""
    d = flat[:, None].copy()
    if first is not None:
        d, k = _propagate(g, d, _action_matrix(first), 1), k - 1
    return _propagate(g, d, follow, k)[:, 0]


def transition_kernel(g: GridWorld, cell: Cell, action: str) -> Distribution:
    """One-step law of the next cell for a single (cell, action) pair."""
    cell = _checked_cell(g, cell)
    return push_forward(g, Distribution.point(cell, g.free_cells()), action)


def push_forward(g: GridWorld, d: Distribution, policy_or_action) -> Distribution:
    """Exact one-step evolution of a state distribution.

    policy_or_action is an action name (applied everywhere) or a policy array.
    """
    if isinstance(policy_or_action, str):
        pol = _action_matrix(policy_or_action)
    else:
        pol = _checked_policy(g, policy_or_action)
    return _flat_to_dist(g, _future_flat(g, _dist_to_flat(g, d), None, pol, 1))


def future_state_distribution(g: GridWorld, start: Distribution,
                              first: str | None, follow: np.ndarray, k: int) -> Distribution:
    """Exact law of the cell k steps ahead: optional first action, then the
    follow-on policy for the remaining k-1 steps."""
    if k < 1:
        raise ValueError("horizon must be >= 1 step")
    follow = _checked_policy(g, follow)
    return _flat_to_dist(g, _future_flat(g, _dist_to_flat(g, start), first, follow, k))


class GridWorldModel(SystemModel):
    """SystemModel adapter: events are actions taken at t0 from a start cell,
    the follow-on policy owns everything between t0 and T."""

    def __init__(self, grid: GridWorld, start, follow: np.ndarray,
                 actions: tuple = ACTIONS):
        self.grid = grid
        if isinstance(start, Distribution):
            self._start = _dist_to_flat(grid, start)
        else:
            self._start = np.eye(1, grid.n_cells, grid.index_of(_checked_cell(grid, start)))[0]
        self.follow = _checked_policy(grid, follow)
        self.actions = _admissible_actions(actions)
        self._cum_start = cumulative(self._start)
        self._follow_tables = _step_tables(grid, self.follow)
        self._first_tables = {a: _step_tables(grid, _action_matrix(a))
                              for a in self.actions}

    def event_space(self) -> list[Event]:
        return [Event(a, f"take action {a} at t0") for a in self.actions]

    def _branch_flat(self, event, horizon: Horizon) -> np.ndarray:
        first = event.id if event is not None else None
        return _future_flat(self.grid, self._start, first, self.follow, horizon.steps)

    def exact_future_distribution(self, event, horizon: Horizon) -> Distribution:
        return _flat_to_dist(self.grid, self._branch_flat(event, horizon))

    def exact_future_probs(self, event, horizon: Horizon) -> np.ndarray:
        return normalized_probs(self._branch_flat(event, horizon)[self.grid.free_index])

    def walk(self, event, horizon: Horizon) -> Walk:
        """Walk over flat cells to the free-cell position of X_T."""
        first = self._follow_tables if event is None else self._first_tables[event.id]
        return _branch_walk(self._cum_start, first, self._follow_tables, horizon.steps)


def z_table(g: GridWorld, cells, follow: np.ndarray, k: int,
            estimator: EstimatorConfig = EstimatorConfig(),
            actions: tuple = ACTIONS) -> tuple[np.ndarray, np.ndarray]:
    """Entropic potential of each admissible action at every cell of `cells`,
    each action scored against a uniform baseline over the others.

    Returns (z, se), float arrays of shape (len(cells), m) whose column j is
    the j-th admissible action in ACTIONS order, both formed by
    _z_from_branches from the (cells, m) branch entropies. The exact
    back-end (se 0.0) starts branch (cell, action) as its _first_rows row,
    in one column of an (n_cells, branches) block per
    chunk of at most TABLE_CHUNK_BYTES, pushes it k - 1 more steps and
    takes the chunk's entropies in one _row_entropies call. The Monte Carlo
    back-end is _mc_table. Each row is bitwise what rank_events gives on
    that cell's GridWorldModel.
    """
    Horizon(0, k)  # rejects k < 1
    if estimator.backend == "mc":
        _check_uniforms(estimator.n_samples, k, k)
    events = [Event(a) for a in _admissible_actions(actions)]
    m = len(events)
    # checked before any branch is pushed forward or sampled, as _plans checks
    if m == 0:
        raise ValueError("ranking needs at least one action")
    if m == 1:
        raise EmptyBaselineError(f"vs-rest baseline needs >= 2 actions, got {events[0].id!r}")
    starts = np.array([g.index_of(_checked_cell(g, c)) for c in cells], dtype=np.int64)
    follow = _checked_policy(g, follow)
    _, plans = _plans(events, "vs-rest")
    if estimator.backend == "mc":
        return _mc_table(g, starts, follow, k, estimator, events, plans)
    # branch (i, j) is row i * m + j: action j's first step from cell i
    succ, probs = _first_rows(g, starts, [e.id for e in events])
    chunk = max(1, TABLE_CHUNK_BYTES // (8 * g.n_cells))
    h = np.empty(len(succ))
    for lo in range(0, len(succ), chunk):
        cols = np.arange(len(succ[lo:lo + chunk]))[:, None]
        d = np.zeros((g.n_cells, len(cols)))
        # a blocked move adds 0 + (1 - slip) + slip, as _propagate's step does
        np.add.at(d, (succ[lo:lo + chunk], cols), probs[lo:lo + chunk])
        d = _propagate(g, d, follow, k - 1)
        h[lo:lo + chunk] = _row_entropies(d[g.free_index].T)
    return _z_from_branches(h.reshape(len(starts), m), None, plans)


def _mc_table(g: GridWorld, starts: np.ndarray, follow: np.ndarray, k: int,
              estimator: EstimatorConfig, events: list, plans: list) -> tuple:
    """z_table's Monte Carlo back-end for the flat cell indices `starts`
    and the checked policy `follow`.

    Branch (cell i, action j) walks from row i * m + j of the _first_rows
    table, so the first steps are built at the scored cells alone. Every
    branch reads the uniforms that rank_events reads, so each of a chunk's
    (cell, action) branches walks in one walk_outcomes call and goes
    through one _branch_surprisals call, and the chunk's Z and paired se
    come from one _z_from_branches call. A chunk holds whole cells, at most
    TABLE_CHUNK_BYTES of its (branches, n) states, and as many of
    surprisals and of state counts. Both search tables are built once per
    call. If the cells fit one chunk, each uniform is read once, and the
    walk draws them as it reads them (_uniform_draw); cells over several
    chunks each re-read one _uniform_block.
    """
    n, m = estimator.n_samples, len(events)
    succ, probs = _first_rows(g, starts, [e.id for e in events])
    first = ((succ, cumulative(probs)),
             (np.repeat(g.successor_outcomes[starts], m, axis=0), probs))
    walk = _branch_walk(None, first, _step_tables(g, follow), k)
    tables = [_search_table(*t) if used else t
              for t, used in ((walk.first, walk.n_first), (walk.rest, walk.n_rest))]
    chunk = max(1, TABLE_CHUNK_BYTES // (8 * m * max(n, len(walk.last[1]))))
    if len(starts) <= chunk:
        u = _uniform_draw(estimator.seed, n)
    else:
        u = _uniform_block(estimator.seed, n, walk.steps)
    z, se = np.empty((2, len(starts), m))
    for lo in range(0, len(starts), chunk):
        rows = np.arange(lo * m, min(lo + chunk, len(starts)) * m)
        states = walk_outcomes(None, tables[0], walk.n_first, tables[1], walk.n_rest, u, rows)
        h, surprisal = _branch_surprisals(states, walk.last)
        z[lo:lo + chunk], se[lo:lo + chunk] = _z_from_branches(
            h.reshape(-1, m), surprisal.reshape(-1, m, n), plans)
    return z, se


def ranked_row(z_row, se_row, k: int, estimator: EstimatorConfig = EstimatorConfig(),
               actions: tuple = ACTIONS) -> list[tuple[str, ZEstimate]]:
    """One row of z_table as (action, ZEstimate) pairs, most beneficial
    first, ties broken on action name."""
    events = [Event(a) for a in _admissible_actions(actions)]
    zs = zip(z_row.tolist(), se_row.tolist())
    return [(ev.id, z) for ev, z in _ranked(events, zs, "vs-rest", Horizon(0, k), estimator)]
