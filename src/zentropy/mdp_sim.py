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
from .errors import CellIsWallError, InvalidDistributionError

ACTIONS = ("up", "down", "left", "right")
_DELTAS = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}

Cell = tuple  # (x, y)

MAX_CELLS = 4096  # exact push-forward stays the universal oracle below this

# Byte budget of one (n_cells, branches) float64 block when z_table pushes
# its branches forward. _propagate holds four such blocks at once (the two
# step buffers used in turn, w and then w * slip in one buffer, and
# w * (1 - slip)); beside them it sets aside one border column, and its
# only row gathers are of the cells whose move runs into a wall. So a table
# over every cell of a MAX_CELLS grid never holds all of its dense laws.
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
    def blocked_by_walls(self) -> tuple:
        """Per action in ACTIONS order, the flat indices of the free cells
        other than the goal whose move runs into a wall (not off the grid):
        the rows, off the action's border, whose mass the exact push-forward
        keeps in place."""
        idx = np.arange(self.n_cells)
        x, y = idx % self.width, idx // self.width
        live = ~self.wall_mask & (idx != self.index_of(self.goal))
        edges = (y == 0, y == self.height - 1, x == 0, x == self.width - 1)
        rows = tuple(np.flatnonzero(live & ~edge & (self.successors[:, a] == idx))
                     for a, edge in enumerate(edges))
        for r in rows:
            r.flags.writeable = False
        return rows

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
    """(n_cells, 5) probabilities of one step under the (n_cells, 4) policy
    matrix pol, over the columns of g.successors: the four move targets,
    then "stay" with the slip mass. Goal and wall rows stay put."""
    probs = np.empty((g.n_cells, 5))
    probs[:, :4] = pol * (1.0 - g.slip)
    probs[:, 4] = g.slip
    probs[g.wall_mask] = probs[g.index_of(g.goal)] = (0.0, 0.0, 0.0, 0.0, 1.0)
    return probs


def _step_tables(g: GridWorld, rows: np.ndarray, probs: np.ndarray) -> tuple:
    """The (walk, last) tables of the steps from the flat cells `rows` (an
    index, np.s_[:] for all) with the probabilities `probs` over the columns
    of g.successors: walk their (succ, cum) sampling table, last their
    (outcomes, probs) table over free-cell positions, the outcome order."""
    return (g.successors[rows], cumulative(probs)), (g.successor_outcomes[rows], probs)


def _first_rows(g: GridWorld, starts: np.ndarray, actions) -> tuple:
    """(rows, probs), the first steps of the branches (cell, action) as
    _step_tables takes them, m = len(actions) rows per cell: row i * m + j
    is action j's step from flat cell starts[i], its probabilities 1 - slip
    on the action's move and slip on "stay", or all of it on "stay" from
    the goal or a wall."""
    m = len(actions)
    probs = np.zeros((len(starts), m, 5))
    probs[:, np.arange(m), [ACTIONS.index(a) for a in actions]] = 1.0 - g.slip
    probs[:, :, 4] = g.slip
    probs[g.wall_mask[starts] | (starts == g.index_of(g.goal))] = (0.0, 0.0, 0.0, 0.0, 1.0)
    return np.repeat(starts, m), probs.reshape(-1, 5)


def _branch_walk(cum_start, first: tuple, follow: tuple, k: int) -> Walk:
    """Walk of a branch of k steps whose first step takes the `first` tables
    and every later step the follow tables, both (walk, last) pairs as
    _step_tables gives them or with walk built (see Walk)."""
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
    whose column b is branch b's law and whose wall rows are +0.0; d may be
    overwritten. Returns the (n_cells, m) block after k steps (d itself
    when k is 0), its wall rows +0.0.

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
    it is one shifted add over the flattened block. The stay terms are
    added to the rows whose move is blocked, in two parts:
    - the border the move leaves, as a slice (a row of the grid for up and
      down, a strided column for left and right). Up and down shift no
      source off that row. Left and right would shift it into the next or
      previous grid row, so c there is set aside and set to -0.0 first
      (x + -0.0 == x for every x), and put back if the next action reuses c;
    - the free cells other than the goal whose move runs into a wall
      (GridWorld.blocked_by_walls), gathered by index. Their shifted c lands
      on the wall, whose rows are reset to +0.0 at the end of the step.
    Walls and the goal need no stay care of their own: their active mass
    is +0.0 (a wall row of d, the goal's once copied out), so each term
    they give is a signed zero. Such a term changes no row of out but the
    goal's, the only one that can hold -0.0, and there at most its sign
    within the step: the goal's slip terms include a +0.0 from each action
    its policy row weights, so the goal ends the step as it would have.

    Each action's products w * (1 - slip) and w * slip come from its policy
    column. A column whose free rows all hold the same bytes (uniform and
    fixed policies, one-hot actions) is applied as one Python float: its
    products differ from the column's only on wall rows, where d is +0.0
    and a signed zero is all they can give. Other columns (the current
    greedy policy's one-hot ones) broadcast as (n_cells, 1). An action
    whose column has the same bytes as the previous action's
    (_repeated_columns) reuses the products: all four columns of a uniform
    policy, the three zero columns of a fixed one. w and w * slip share one
    buffer, so the step holds four blocks: d, out, that buffer and c.
    """
    d = np.ascontiguousarray(d)
    n, m = d.shape
    h, wd = g.height, g.width
    gi = g.index_of(g.goal)
    walls = np.flatnonzero(g.wall_mask)
    # per action: the flat shift of its move, the cells on the border the
    # move would leave, as an index of an (h, wd, m) view, and whether the
    # shift carries them into a neighbouring row (left, right)
    moves = ((-wd * m, np.s_[:1], False), (wd * m, np.s_[-1:], False),
             (-m, np.s_[:, :1], True), (m, np.s_[:, -1:], True))
    # per action the factor shared by every branch: a float when the
    # column's free rows hold one value, else its (n_cells, 1) column
    free = policy if len(policy) == 1 else policy[g.free_index]
    same = (free.view(np.int64) == free[:1].view(np.int64)).all(axis=0)
    cols = [float(free[0, a]) if same[a] else np.ascontiguousarray(policy[:, a:a + 1])
            for a in range(len(ACTIONS))]
    reuse = _repeated_columns(policy)
    # s holds w, then w * slip
    out, s, c = np.empty((n, m)), np.empty((n, m)), np.empty((n, m))
    flat_c, c3 = c.reshape(-1), c.reshape(h, wd, m)
    kept = np.empty((h, 1, m))  # a border column of c, set aside
    for step in range(k):
        flat_out, out3 = out.reshape(-1), out.reshape(h, wd, m)
        out.fill(0.0)
        out[gi] = d[gi]  # absorbing, kept exact
        d[gi] = 0.0      # d is now the active mass
        zeroed = None
        for (shift, edge, wraps), stay, col, again in zip(moves, g.blocked_by_walls, cols, reuse):
            if not again:
                np.multiply(d, col, out=s)
                np.multiply(s, 1.0 - g.slip, out=c)
                s *= g.slip
            elif zeroed is not None:
                c3[zeroed] = kept
            if wraps:
                np.copyto(kept, c3[edge])
                c3[edge] = -0.0
                zeroed, edge_c = edge, kept
            else:
                zeroed, edge_c = None, c3[edge]
            # the adds into a cell in the loop's source-index order
            if shift > 0:
                flat_out[shift:] += flat_c[:-shift]
            at = out3[edge]
            np.add(at, edge_c, out=at)
            out[stay] += c[stay]
            if shift < 0:
                flat_out[:shift] += flat_c[-shift:]
            out += s
        out[walls] = 0.0  # wipes what moved into a wall
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


def _point_flat(g: GridWorld, cell) -> np.ndarray:
    """The flat law of a point mass at cell, checked by _checked_cell."""
    return np.eye(1, g.n_cells, g.index_of(_checked_cell(g, cell)))[0]


def transition_kernel(g: GridWorld, cell: Cell, action: str) -> Distribution:
    """One-step law of the next cell for a single (cell, action) pair."""
    flat = _point_flat(g, cell)
    return _flat_to_dist(g, _future_flat(g, flat, None, _action_matrix(action), 1))


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
            self._start = _point_flat(grid, start)
        self.follow = _checked_policy(grid, follow)
        self.actions = _admissible_actions(actions)

    # the sampling tables, which only walk() reads, built on its first call

    @cached_property
    def _cum_start(self) -> np.ndarray:
        return cumulative(self._start)

    @cached_property
    def _tables(self) -> dict:
        """The (walk, last) tables of each action's step, keyed by action,
        and of the follow policy's, keyed None, from every flat cell, each
        walk table built once as the SearchTable every Walk of the model takes."""
        g, cells = self.grid, np.arange(self.grid.n_cells)
        tables = {a: _step_tables(g, *_first_rows(g, cells, (a,))) for a in self.actions}
        tables[None] = _step_tables(g, np.s_[:], _step_probs(g, self.follow))
        return {key: (_search_table(*walk), last) for key, (walk, last) in tables.items()}

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
        first = self._tables[None if event is None else event.id]
        return _branch_walk(self._cum_start, first, self._tables[None], horizon.steps)


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
    _, plans = _plans(events, "vs-rest")  # before any branch is pushed forward or sampled
    starts = np.array([g.index_of(_checked_cell(g, c)) for c in cells], dtype=np.int64)
    follow = _checked_policy(g, follow)
    if estimator.backend == "mc":
        return _mc_table(g, starts, follow, k, estimator, events, plans)
    # branch (i, j) is row i * m + j: action j's first step from cell i
    rows, probs = _first_rows(g, starts, [e.id for e in events])
    chunk = max(1, TABLE_CHUNK_BYTES // (8 * g.n_cells))
    h = np.empty(len(rows))
    for lo in range(0, len(rows), chunk):
        cols = np.arange(len(rows[lo:lo + chunk]))[:, None]
        d = np.zeros((g.n_cells, len(cols)))
        # a blocked move adds 0 + (1 - slip) + slip, as _propagate's step does
        np.add.at(d, (g.successors[rows[lo:lo + chunk]], cols), probs[lo:lo + chunk])
        d = _propagate(g, d, follow, k - 1)
        h[lo:lo + chunk] = _row_entropies(d[g.free_index].T)
    return _z_from_branches(h.reshape(len(starts), len(events)), None, plans)


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
    surprisals and of state counts. The Walk builds each search table once
    per call. If the cells fit one chunk, each uniform is read once, and the
    walk draws them as it reads them (_uniform_draw); cells over several
    chunks each re-read one _uniform_block.
    """
    n, m = estimator.n_samples, len(events)
    first = _step_tables(g, *_first_rows(g, starts, [e.id for e in events]))
    walk = _branch_walk(None, first, _step_tables(g, np.s_[:], _step_probs(g, follow)), k)
    chunk = max(1, TABLE_CHUNK_BYTES // (8 * m * max(n, len(walk.last[1]))))
    if len(starts) <= chunk:
        u = _uniform_draw(estimator.seed, n)
    else:
        u = _uniform_block(estimator.seed, n, walk.steps)
    z, se = np.empty((2, len(starts), m))
    for lo in range(0, len(starts), chunk):
        rows = np.arange(lo * m, min(lo + chunk, len(starts)) * m)
        states = walk_outcomes(None, walk.first, walk.n_first, walk.rest, walk.n_rest, u, rows)
        h, surprisal = _branch_surprisals(states, walk.last)
        z[lo:lo + chunk], se[lo:lo + chunk] = _z_from_branches(
            h.reshape(-1, m), surprisal.reshape(-1, m, n), plans)
    return z, se


def ranked_row(z_row, se_row, k: int, estimator: EstimatorConfig = EstimatorConfig(),
               actions: tuple = ACTIONS) -> list[tuple[str, ZEstimate]]:
    """One row of z_table as (action, ZEstimate) pairs, most beneficial
    first, ties broken on action name. Each row holds one value per
    admissible action."""
    events = [Event(a) for a in _admissible_actions(actions)]
    _plans(events, "vs-rest")  # the checks z_table runs on the same actions
    if len(z_row) != len(events) or len(se_row) != len(events):
        raise ValueError(f"z_row and se_row hold {len(z_row)} and {len(se_row)} values, "
                         f"not one for each of the {len(events)} admissible actions")
    zs = zip(z_row.tolist(), se_row.tolist())
    return [(ev.id, z) for ev, z in _ranked(events, zs, "vs-rest", Horizon(0, k), estimator)]
