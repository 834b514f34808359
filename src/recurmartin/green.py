"""Killed Green functions and visit-ratio (Martin) kernels.

The central object is G_{x0}(x, y): the expected number of visits to y,
counting time 0, strictly before the first return to the base state x0.
Three routes are provided:

* ``green_solve`` — linear solve of the killed one-step system on a finite
  window, in exact rational arithmetic (sparse elimination in minimum
  Markowitz order, fill-free on the line, the half line and trees) or in
  floating point (sparse LU);
* ``green_mc`` / ``green_mc_grid`` — direct simulation until the return to
  the base state on one ensemble driver, ``_ensemble``: vectorized lanes
  for the built-in laws, and for any chain a lane over its successor table;
* ``martin_kernel`` — the ratio G_{x0}(x,y) / G_{x0}(x0,y).

Window truncation policies:

``kill``
    Transitions exiting the window are dropped. Values are certified lower
    bounds of the infinite-space quantity and are monotone nondecreasing
    under window enlargement.
``loop``
    Exiting transitions are redirected into a self-loop at the frontier
    state. For chains where every outside excursion re-enters at the state
    it left through (the line, the half line, trees — flagged by
    ``ChainSpec.loop_truncation_exact``), every excursion is reproduced
    step-for-step at the frontier, so windowed values equal the
    infinite-space values exactly.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .chains import ChainSpec, StateId, law_class
from .errors import (
    RunawayRunError,
    SingularSystemError,
    ZeroDenominatorError,
)
from .examplechains import ROOT, BangBangWalk, KaryTree, Z2Walk, ZWalk
from .rng import GREEN_ENSEMBLE, counter_uniforms, stream_keys
from .window import (
    UNNAMED,
    SuccessorTable,
    WindowOperator,
    exact_floats,
    window_operator,
)

#: Exact solves above this window size are refused unless the window is a
#: forest: tree-shaped windows (the line, the half line, trees) eliminate
#: without fill at any size, but 2-D windows fill in and their Fraction
#: entries grow, so large planar exact solves take seconds to minutes.
EXACT_SOLVE_LIMIT = 1200

DEFAULT_STEP_CAP = 10_000_000


@dataclass(frozen=True)
class Truncation:
    """Finite-window policy for solving on an infinite state space."""

    radius: int
    policy: str = "loop"
    margin: int = 0

    def __post_init__(self):
        if self.policy not in ("loop", "kill"):
            raise ValueError("policy must be 'loop' or 'kill'")
        if self.radius < 1 or self.margin < 0:
            raise ValueError("radius must be >= 1 and margin >= 0")


@dataclass
class GreenResult:
    """A Green-function (or kernel-ratio) value with its provenance."""

    value: object  # float, or Fraction from the exact lane
    method: str  # "exact-solve" | "monte-carlo" | "closed-form"
    stderr: float = 0.0
    radius: Optional[int] = None
    policy: Optional[str] = None
    delta: Optional[float] = None  # window-enlargement diagnostic
    runs: Optional[int] = None
    truncated_runs: int = 0
    note: Optional[str] = None
    #: Monte Carlo sampler that ran: fast-line, fast-plane, fast-tree, generic
    lane: Optional[str] = None
    escaped_runs: int = 0  # runs finished by an analytic tail
    #: draws the runs took before they ended: one per step, except on the
    #: line lane (one per jump to the next mark) and the plane lane (one per
    #: jump across an empty square, or single step)
    draws: int = 0

    def __float__(self) -> float:
        return float(self.value)


# ---------------------------------------------------------------------------
# Window linear systems


def window_rows(
    chain: ChainSpec,
    window: Sequence[StateId],
    *,
    kill_into: Optional[StateId] = None,
    row_scale: Optional[dict] = None,
    policy: str = "loop",
) -> tuple[dict, WindowOperator]:
    """Substochastic transition rows restricted to a window.

    Transitions into ``kill_into`` are deleted; transitions leaving the
    window are deleted (``kill``) or folded into a self-loop (``loop``).
    ``row_scale`` multiplies the entire outgoing row of selected states.
    Returns (state index map, operator): one vectorized step of the
    chain's code table over the window, in window order.
    """
    table = chain.code_table(window)
    index = {s: i for i, s in enumerate(window)}
    kill = None if kill_into is None else int(table.encode([kill_into])[0])
    scale = None
    if row_scale:
        scale = {index[s]: f for s, f in row_scale.items() if s in index and f != 1}
    op = window_operator(table, table.encode(window), kill=kill, scale=scale)
    return index, (op.looped() if policy == "loop" else op)


def _eliminate(a: list, b: list, ncols: int) -> list:
    """Solve A X = B exactly by sparse elimination on diagonal pivots.

    ``a[i]`` maps column -> nonzero coefficient of row i and ``b[i]`` maps
    right-hand-side column -> nonzero entry; both are consumed. Pivots are
    taken in order of least Markowitz count, (row nonzeros - 1) x (column
    nonzeros - 1), from a heap with lazy re-push, so tree-shaped systems
    (line, half line, k-ary tree) eliminate leaves first with no fill.
    Returns X as ``ncols`` lists of length n.

    Callers pass I - M with M substochastic (possibly after scaling rows).
    Such a matrix is singular exactly when rho(M) = 1 and is otherwise a
    nonsingular M-matrix, whose Schur complements keep positive diagonals
    in every pivot order; a zero diagonal pivot therefore proves the
    system singular.
    """
    n = len(a)
    cols = [set() for _ in range(n)]
    for i, row in enumerate(a):
        for j in row:
            cols[j].add(i)

    def markowitz(v):
        return (len(a[v]) - 1) * (len(cols[v]) - 1)

    heap = [(markowitz(v), v) for v in range(n)]
    heapq.heapify(heap)
    pivots = [None] * n
    order = []
    while heap:
        count, k = heapq.heappop(heap)
        if pivots[k] is not None or count != markowitz(k):
            continue
        rowk = a[k]
        pivot = rowk.pop(k, None)
        if pivot is None:
            raise SingularSystemError("window system has a zero pivot; window unusable")
        pivots[k] = pivot
        order.append(k)
        cols[k].discard(k)
        for j in rowk:
            cols[j].discard(k)
        bk = b[k]
        touched = set(rowk)
        for i in cols[k]:
            rowi, bi = a[i], b[i]
            f = rowi.pop(k) / pivot
            for j, v in rowk.items():
                w = rowi.get(j, 0) - f * v
                if w:
                    rowi[j] = w
                    cols[j].add(i)
                else:
                    del rowi[j]
                    cols[j].discard(i)
            for c, v in bk.items():
                w = bi.get(c, 0) - f * v
                if w:
                    bi[c] = w
                else:
                    del bi[c]
            touched.add(i)
        cols[k] = set()
        for v in touched:
            heapq.heappush(heap, (markowitz(v), v))
    x = [[Fraction(0)] * n for _ in range(ncols)]
    for k in reversed(order):
        rowk, bk, pivot = a[k], b[k], pivots[k]
        for c, xc in enumerate(x):
            s = bk.get(c, Fraction(0))
            for j, v in rowk.items():
                if xc[j]:
                    s -= v * xc[j]
            xc[k] = s / pivot
    return x


def _forest(rows: list) -> bool:
    """Whether the transition graph of ``rows``, read undirected and
    without self-loops, has no cycle."""
    root = list(range(len(rows)))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    edges = {(min(i, j), max(i, j)) for i, row in enumerate(rows) for j, _ in row if i != j}
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        root[ri] = rj
    return True


def _solve_columns_fraction(rows: list, columns: list[int]) -> list[list[Fraction]]:
    """Solve (I - M) g = e_c for each column c, exactly."""
    n = len(rows)
    if n > EXACT_SOLVE_LIMIT and not _forest(rows):
        raise ValueError(
            f"window of {n} states is too large for the exact lane "
            f"(limit {EXACT_SOLVE_LIMIT} unless the window is a forest); "
            "use the floating solver"
        )
    a = []
    for i, row in enumerate(rows):
        entries = {i: Fraction(1)}
        for j, p in row:
            w = entries.get(j, 0) - p
            if w:
                entries[j] = w
            else:
                del entries[j]
        a.append(entries)
    b = [{} for _ in range(n)]
    for c_ix, c in enumerate(columns):
        b[c][c_ix] = Fraction(1)
    return _eliminate(a, b, len(columns))


def _solve_columns_float(rows, columns: list[int]) -> list[np.ndarray]:
    """Float counterpart of the exact column solve, by sparse LU.

    ``rows`` is a WindowOperator or lists of (column, probability). I - M
    is assembled as triplets, each row's unit diagonal before its entries,
    so that a diagonal entry is 1 - p exactly as a per-row assembly of the
    same rows gives it.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    op = rows if isinstance(rows, WindowOperator) else WindowOperator.from_rows(rows)
    n = len(op)
    rhs = np.zeros((n, len(columns)))
    for c_ix, c in enumerate(columns):
        rhs[c, c_ix] = 1.0
    diag = op.indptr[:-1] + np.arange(n)
    ri = np.repeat(np.arange(n), np.diff(op.indptr) + 1)
    ci = np.empty(len(ri), dtype=np.int64)
    data = np.empty(len(ri))
    off = np.ones(len(ri), dtype=bool)
    off[diag] = False
    ci[diag], data[diag] = np.arange(n), 1.0
    ci[off], data[off] = op.indices, -op.float_values()
    a = csc_matrix((data, (ri, ci)), shape=(n, n))
    try:
        sol = splu(a).solve(rhs)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    return [sol[:, c_ix] for c_ix in range(len(columns))]


def _solve_columns(op: WindowOperator, columns: list[int], exact: bool) -> list:
    """Solve (I - M) g = e_c for each column c, exactly or in floats."""
    if exact:
        return _solve_columns_fraction(op.fraction_rows(), columns)
    return _solve_columns_float(op, columns)


def _window(chain, radius, states):
    """The chain's radius window, refusing states outside it by name.

    The error names every missing state once, in ``state_key`` order.
    """
    window = chain.window(radius)
    present = set(window)
    missing = sorted({s for s in states if s not in present}, key=chain.state_key)
    if missing:
        names = ", ".join(chain.format_state(s) for s in missing)
        raise ValueError(f"states outside the radius-{radius} window: {names}")
    return window


def _killed_column_values(chain, x0, window, ys, policy, exact):
    """g_y vectors over the window for each y, with transitions into x0 killed."""
    index, op = window_rows(chain, window, kill_into=x0, policy=policy)
    return index, dict(zip(ys, _solve_columns(op, [index[y] for y in ys], exact)))


def green_solve(
    chain: ChainSpec,
    x0: StateId,
    queries: Sequence[tuple],
    trunc: Truncation,
    exact: bool = False,
) -> list[GreenResult]:
    """Windowed linear solve of G_{x0}(x, y) for each (x, y) query.

    With the ``loop`` policy the result is exact (up to float roundoff in
    the floating lane) on chains flagged ``loop_truncation_exact``; with
    ``kill`` it is a certified lower bound, nondecreasing in the radius.
    A positive ``trunc.margin`` re-solves on an enlarged window and reports
    the difference as ``delta``.
    """
    window = _window(chain, trunc.radius, [x0, *(s for q in queries for s in q)])
    ys = sorted({y for _, y in queries}, key=chain.state_key)
    index, col = _killed_column_values(chain, x0, window, ys, trunc.policy, exact)
    deltas = None
    if trunc.margin > 0:
        big = chain.window(trunc.radius + trunc.margin)
        bindex, bcol = _killed_column_values(chain, x0, big, ys, trunc.policy, exact)
        deltas = {
            (x, y): float(bcol[y][bindex[x]] - col[y][index[x]]) for x, y in queries
        }
    results = []
    for x, y in queries:
        v = col[y][index[x]]
        if not exact:
            v = max(float(v), 0.0)
        results.append(
            GreenResult(
                value=v,
                method="exact-solve",
                stderr=0.0,
                radius=trunc.radius,
                policy=trunc.policy,
                delta=None if deltas is None else deltas[(x, y)],
            )
        )
    return results


def green_solve_discounted(
    chain: ChainSpec,
    x0: StateId,
    r: Fraction,
    queries: Sequence[tuple],
    trunc: Truncation,
    exact: bool = True,
) -> list:
    """Visit counts with every departure from x0 discounted by r.

    Solves (I - M) w = e_y where M is the one-step kernel with the row at
    x0 scaled by r. The value w_y(x) is the expected total number of visits
    to y weighted by r^(number of departures from x0 so far); it is finite
    for 0 < r < 1 because each return to x0 geometrically damps the mass.
    Used to evaluate transient-chain Green functions through their
    recurrent parent (the weight transfers by a change of measure).
    """
    if not (0 < r < 1):
        raise ValueError("discount must satisfy 0 < r < 1")
    window = _window(chain, trunc.radius, [x0, *(s for q in queries for s in q)])
    index, op = window_rows(
        chain, window, row_scale={x0: Fraction(r)}, policy=trunc.policy
    )
    ys = sorted({y for _, y in queries}, key=chain.state_key)
    col = dict(zip(ys, _solve_columns(op, [index[y] for y in ys], exact)))
    return [col[y][index[x]] for x, y in queries]


def default_radius(chain: ChainSpec, states: Sequence[StateId]) -> int:
    """A solve window's radius: the states' largest norm plus the chain's
    ``radius_margin``."""
    return max((chain.norm(s) for s in states), default=0) + chain.radius_margin


# ---------------------------------------------------------------------------
# Martin kernel


def martin_kernel(
    chain: ChainSpec,
    x0: StateId,
    x: StateId,
    y: StateId,
    method: str = "exact",
    radius: Optional[int] = None,
    policy: str = "loop",
    exact: bool = True,
    trajectories: int = 10**4,
    seed: Optional[int] = None,
    step_cap: int = DEFAULT_STEP_CAP,
    on_cap: str = "error",
) -> GreenResult:
    """Visit ratio L_{x0}(x, y) = G_{x0}(x, y) / G_{x0}(x0, y)."""
    if method == "exact":
        if radius is None:
            radius = default_radius(chain, [x0, x, y])
        trunc = Truncation(radius=radius, policy=policy)
        window = _window(chain, trunc.radius, [x0, x, y])
        index, col = _killed_column_values(
            chain, x0, window, [y], trunc.policy, exact
        )
        num = col[y][index[x]]
        den = col[y][index[x0]]
        if (den == 0) if exact else (abs(float(den)) <= 1e-12):
            raise ZeroDenominatorError(
                f"G(x0, y) vanished for y={chain.format_state(y)}; ratio undefined"
            )
        value = num / den if exact else float(num) / float(den)
        return GreenResult(value=value, method="exact-solve", radius=radius, policy=policy)
    if method == "mc":
        if seed is None:
            raise ValueError("Monte Carlo kernel needs a seed")
        num = green_mc(
            chain, x0, x, y, trajectories, seed,
            step_cap=step_cap, on_cap=on_cap, index_offset=0,
        )
        den = green_mc(
            chain, x0, x0, y, trajectories, seed,
            step_cap=step_cap, on_cap=on_cap, index_offset=trajectories,
        )
        d = float(den.value)
        if abs(d) <= 1e-12:
            raise ZeroDenominatorError("Monte Carlo denominator below tolerance")
        v = float(num.value) / d
        rel = 0.0
        if float(num.value) != 0:
            rel += (num.stderr / float(num.value)) ** 2
        rel += (den.stderr / d) ** 2
        return GreenResult(
            value=v,
            method="monte-carlo",
            stderr=abs(v) * math.sqrt(rel),
            runs=trajectories,
            truncated_runs=num.truncated_runs + den.truncated_runs,
            lane=num.lane,
            escaped_runs=num.escaped_runs + den.escaped_runs,
            draws=num.draws + den.draws,
        )
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def green_mc(
    chain: ChainSpec,
    x0: StateId,
    x: StateId,
    y: StateId,
    trajectories: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
    on_cap: str = "error",
    index_offset: int = 0,
    escape_radius: int = 64,
) -> GreenResult:
    """Sample mean of the visits to y before the first return to x0.

    Each run starts at x, counts a visit at time 0, and stops on arrival
    at x0 at time >= 1 (arrival not counted). A run exceeding ``step_cap``
    draws raises RunawayRunError when ``on_cap='error'`` or is kept as-is
    when ``on_cap='truncate'`` (the reported value is then a lower-biased
    estimate; the number of truncated runs is reported). A draw is one
    step, except on the line and the planar walk: on the line one draw
    carries a run to the next of x0, the targets and the box edges that it
    meets (``_line_walk``), on the plane across a square holding neither x0
    nor a target (``_plane_walk``); visit counts keep their law exactly.
    ``draws`` on the result counts them.

    On the line and the planar walk, runs that leave the ``escape_radius``
    box (an int >= 1) are completed analytically through closed forms (the
    potential kernel on the plane) instead of being simulated to the
    heavy-tailed return time. ``lane`` on the result names the sampler
    that ran.
    """
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    _check_mc_options(on_cap, escape_radius)
    walk = _fast_lane(chain, x0, x, [y], escape_radius) or _table_walk(chain, x0, x, [y])
    return _ensemble(walk, trajectories, seed, index_offset, step_cap, on_cap)[0]


def green_mc_grid(
    chain: ChainSpec,
    x0: StateId,
    starts: Sequence[StateId],
    targets: Sequence[StateId],
    trajectories: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
    on_cap: str = "truncate",
    escape_radius: int = 64,
) -> dict:
    """green_mc over a starts x targets grid, sharing runs per start.

    One trajectory ensemble per start serves every target simultaneously,
    so a runs-per-pair budget costs len(starts) ensembles instead of
    len(starts) * len(targets). Estimates sharing a start are correlated
    across targets but each is individually the green_mc estimator.
    """
    _check_mc_options(on_cap, escape_radius)
    groups = _target_groups(chain, x0, list(targets))
    out = {}
    for k, x in enumerate(starts):
        offset = k * (trajectories + 1)
        for group in groups:
            walk = _fast_lane(chain, x0, x, group, escape_radius)
            walk = walk or _table_walk(chain, x0, x, group)
            res = _ensemble(walk, trajectories, seed, offset, step_cap, on_cap)
            out.update({(x, t): r for t, r in zip(group, res)})
    return out


def _check_mc_options(on_cap, escape_radius):
    if on_cap not in ("error", "truncate"):
        raise ValueError("on_cap must be 'error' or 'truncate'")
    box = escape_radius
    if isinstance(box, bool) or not isinstance(box, (int, np.integer)) or box < 1:
        raise ValueError(f"escape_radius must be an int >= 1, not {box!r}")


def _mc_result(totals, runs, truncated, lane, escaped=0, note=None, draws=0):
    stderr = float(totals.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    return GreenResult(
        value=float(totals.mean()),
        method="monte-carlo",
        stderr=stderr,
        runs=runs,
        truncated_runs=truncated,
        note=note,
        lane=lane,
        escaped_runs=escaped,
        draws=draws,
    )


def _target_groups(chain, x0, targets):
    """The groups of targets that share one ensemble per start.

    The tree lane follows one spine, the deepest target's path from the
    root: on the tree at its root, targets that are not all ancestors of
    the deepest get one ensemble each. Elsewhere all targets share one.
    """
    if law_class(chain) is KaryTree and x0 == ROOT:
        spine = max(targets, key=len, default=ROOT)
        if any(t != spine[: len(t)] for t in targets):
            return [[t] for t in targets]
    return [targets]


def _fast_lane(chain, x0, x, targets, escape_radius):
    """The walk of a vectorized lane for one start, or None where none fits.

    The line and the plane are translation invariant, so they run at any
    base in coordinates shifted by x0; the half line runs at its base 0 and
    the tree at its root, with every target on one spine (``_target_groups``
    keeps them so). A lane runs only the law of its own class
    (``law_class``): a subclass that overrides ``successors`` takes the
    generic lane, ``_table_walk``.
    """
    law = law_class(chain)
    if law is ZWalk or (law is BangBangWalk and x0 == 0):
        return _line_walk(chain, x - x0, [t - x0 for t in targets], escape_radius)
    if law is Z2Walk:
        start = (x[0] - x0[0], x[1] - x0[1])
        shifted = [(t[0] - x0[0], t[1] - x0[1]) for t in targets]
        return _plane_walk(start, shifted, escape_radius)
    if law is KaryTree and x0 == ROOT:
        return _tree_walk(chain, x, max(targets, key=len, default=ROOT), targets)
    return None


# ---------------------------------------------------------------------------
# The ensemble driver and the walks it runs

#: Runs simulated together; their draws depend on the trajectory index only.
_SLAB = 10_000
#: Steps in a slab's first block; each later block is twice as long. Half the
#: tree's runs from the root end at their first step: a 16-step first block
#: doubled the time of a 200,000-run tree ensemble.
_FIRST_BLOCK = 4
#: Bound on live rows x block length, the uniforms held at once.
_BLOCK_CELLS = 10_000 * 512


@dataclass
class _Walk:
    """A chain as the ensemble driver runs it; see ``_ensemble``."""

    lane: str
    start: int
    origin: int
    targets: list
    step: Callable
    going: Callable
    tail: Optional[Callable] = None
    note: Optional[str] = None


def _ensemble(walk, runs, seed, offset, cap, on_cap):
    """Run trajectories offset .. offset + runs - 1 until they return to the base.

    A walk holds one int64 state per run. ``walk.step(state, u)`` maps the
    states of the live runs and one uniform each to their states after
    that draw; a draw is a step, or on the line and plane lanes a jump. A
    run at ``walk.origin``, the base, is at its time 0 and takes the base
    row. ``walk.going(state)`` marks the runs that go on: a run ends on
    arrival at the origin, or by a move out of the escape box, and
    ``walk.tail`` maps the exit states of those escaped runs to the
    expected visits still to come, shape (m, len(targets)). ``start`` and
    each of ``targets`` are states; a run visits a target when a draw
    leaves it on that state and it goes on, and at time 0.

    This is the one loop over the draws. Draw n of trajectory i is
    counter_uniforms(key_i, n), so each run's path, and with it every
    result, is the same whatever the slab size, the block schedule, the run
    count or the set of runs still alive. Each slab starts with
    _FIRST_BLOCK-draw blocks that double while live rows x block stays
    within _BLOCK_CELLS: most runs of a recurrent walk end after a few
    draws, and a long first block would be drawn in vain for them. ``cap``
    bounds the draws of a run; each result reports the draws taken.
    """
    tgt = np.asarray(walk.targets, dtype=np.int64)
    visits = np.zeros((runs, len(tgt)))
    visits[:] = tgt == walk.start  # time 0
    truncated = escaped = draws = 0
    for lo in range(0, runs, _SLAB):
        size = min(_SLAB, runs - lo)
        index = np.arange(offset + lo, offset + lo + size)
        keys = stream_keys(seed, GREEN_ENSEMBLE, index)
        vis = visits[lo : lo + size]
        rows = np.arange(size)  # slab rows still running
        state = np.full(size, walk.start, dtype=np.int64)
        steps, b = 0, _FIRST_BLOCK
        while rows.size and steps < cap:
            b = min(b, cap - steps, max(1, _BLOCK_CELLS // rows.size))
            u = counter_uniforms(keys[rows, None], np.arange(steps, steps + b)[None, :])
            path = np.full(u.shape, -1, dtype=np.int64)  # states of runs going on
            end = np.full(rows.size, walk.origin)  # exit states of ended runs
            live = np.arange(rows.size)
            for t in range(b):
                state = walk.step(state, u[live, t])
                draws += live.size  # the ending draw too
                going = walk.going(state)
                if not going.all():
                    end[live[~going]] = state[~going]
                    live, state = live[going], state[going]
                    if not live.size:
                        break
                path[live, t] = state
            for ti, t in enumerate(tgt):
                vis[rows, ti] += (path == t).sum(axis=1)
            away = end != walk.origin  # escaped, not absorbed at the origin
            if away.any():
                vis[rows[away]] += walk.tail(end[away])
                escaped += int(away.sum())
            rows = rows[live]
            steps += b
            b *= 2
        if rows.size:
            if on_cap == "error":
                raise RunawayRunError(cap, lo + size - rows.size)
            truncated += rows.size
    return [
        _mc_result(visits[:, ti], runs, truncated, walk.lane, escaped, walk.note, draws)
        for ti in range(len(tgt))
    ]


def _table_step(dest, low_cut, high_cut):
    """The step of a three-outcome jump table: a draw u takes state i to
    ``dest[3 i + k]``, k the number of its cuts ``low_cut[i]``,
    ``high_cut[i]`` that are <= u."""

    def step(state, u):
        pick = 3 * state
        pick += u >= low_cut[state]
        pick += u >= high_cut[state]
        return dest[pick]

    return step


def _line_walk(chain, start, targets, escape_radius):
    """Nearest-neighbour walk on the integers, absorbed at 0.

    Valid whenever the up-probability is constant away from the base,
    so both the symmetric and the half-line walks qualify; a run starting
    at the base takes the base row first (the half line's forced up-step).
    Both probabilities are read off the law: the up-mass of the row at 1
    and of the base row.

    In the escape box of edge r the state of a run is its position + r,
    and a draw carries it from mark to mark (``_line_jumps``): -r, 0, r and
    the targets, where a run can escape, be absorbed or add a visit, so
    visit counts and exit states keep their law exactly and the step cap
    counts draws. Runs leaving the box are completed analytically through
    the tail values (removing the heavy-tail truncation bias of
    null-recurrent returns); the half line, whose base row goes up with
    certainty, is absorbed at 0 before it reaches the minus side.
    """
    def up_mass(v):
        return Fraction(sum(p for t, p in chain.successors(v) if t == v + 1))

    p_up, p_base = up_mass(1), up_mass(0)
    # beyond every target (same side) the expected visits still to come no
    # longer depend on the position: the closed form at the exit point +-r,
    # where a run leaving the box lands exactly
    r = max(escape_radius, max(abs(int(t)) for t in [start, *targets]) + 2)
    plus = np.asarray([float(chain.exact_green(r, t)) for t in targets])
    minus = np.zeros(len(targets))  # unreachable when p_base == 1
    if p_base != 1:
        minus = np.asarray([float(chain.exact_green(-r, t)) for t in targets])
    marks = tuple(sorted({-r, 0, r, *targets}))
    norm = np.abs(np.arange(-r, r + 1))
    inside = (norm > 0) & (norm < r)
    return _Walk(
        "fast-line", start + r, r, [t + r for t in targets],
        step=_table_step(*_line_jumps(p_up, p_base, r, marks)),
        going=inside.__getitem__,
        tail=lambda end: np.where((end > r)[:, None], plus, minus),
        note=f"analytic tail beyond radius {r}",
    )


@functools.lru_cache(maxsize=64)
def _line_jumps(p_up, p_base, r, marks):
    """The line lane's jump table over the box positions -r .. r.

    ``marks`` are -r, 0, r and the targets, in increasing order. A run at a
    position v strictly between neighbouring marks a < v < b moves, before
    it meets a mark, only through positions where nothing is counted,
    absorbed or escapes, so one draw takes it to b with the gambler's-ruin
    probability h_{a,b}(v) = P_v(reach b before a), else to a. A run at a
    mark v (a target, or the base at its time 0 under the base row p_base)
    goes to b with probability p_v h_{v,b}(v + 1), to a with probability
    (1 - p_v)(1 - h_{a,v}(v - 1)), and otherwise comes back to v first: one
    more visit there, or absorption at the base. Runs at +-r stay.

    Returns read-only (dest, up_cut, back_cut) over the positions shifted
    by r: ``dest[3 i + k]`` is the row that outcome k = up, back, down
    takes row i to, and ``up_cut[i]`` = P(up), ``back_cut[i]`` = 1 - P(down),
    each the correctly rounded cumulative probability. A draw u takes the
    outcome k = the number of the row's two entries <= u.
    """
    dest = np.repeat(np.arange(2 * r + 1), 3).reshape(-1, 3)
    cut = np.ones((2, 2 * r + 1))
    for a, b in zip(marks, marks[1:]):
        inner = slice(a + r + 1, b + r)
        dest[inner, 0], dest[inner, 2] = b + r, a + r
        cut[:, inner] = [
            n / d for n, d in (_ruin(p_up, k, b - a) for k in range(1, b - a))
        ]
    for a, v, b in zip(marks, marks[1:], marks[2:]):
        p = p_base if v == 0 else p_up
        up = p * Fraction(*_ruin(p_up, 1, b - v))
        down = (1 - p) * (1 - Fraction(*_ruin(p_up, v - a - 1, v - a)))
        dest[v + r] = b + r, v + r, a + r
        cut[:, v + r] = float(up), float(1 - down)
    dest = dest.ravel()
    for a in (dest, cut):
        a.flags.writeable = False
    return dest, cut[0], cut[1]


def _ruin(p, k, length):
    """P_k(reach ``length`` before 0) for the walk stepping up w.p. p, as
    an integer (numerator, denominator).

    The gambler's-ruin law (Feller, *An Introduction to Probability Theory
    and Its Applications*, Vol. 1, ch. XIV): k / length when p = 1/2, else
    (1 - rho^k) / (1 - rho^length) with rho = (1 - p) / p = down / up for
    p = up / (up + down) in lowest terms; both terms are multiplied by
    up^length. Python's int / int of the pair is correctly rounded.
    """
    up, down = p.numerator, p.denominator - p.numerator
    if up == down:
        return k, length
    top = up**length
    return top - down**k * up ** (length - k), top - down**length


#: A draw u is a multiple of 2^-52 (``rng.counter_uniforms``), so u 2^52 is
#: an integer, and u < c exactly when u 2^52 is below c 2^52 rounded up.
_DRAW_BITS = 52


def _plane_walk(start, targets, escape_radius):
    """Planar walk absorbed at the origin, on squares, with analytic tails.

    The state of a run at (x, y) in the escape box of edge r is the flat
    cell (x + r)(2r + 1) + y + r. When the square [v - m, v + m]^2 around
    a run at v holds neither the origin nor a target and lies inside the
    box (|v|_inf + m <= r - 1), the run cannot visit a target, be absorbed
    or escape before it leaves the square, so one draw picks its exit point
    from the exit law of the square's centre (``_square_exit_law``), the
    same law for every v. m is the largest power of two that fits; where
    none fits (next to the origin or a target, or on a target) m = 0 and
    the draw is one step. Visit counts and exit states keep their law
    exactly, and the step cap counts draws.

    A run leaving the box is finished in expectation: the remaining visits
    to y before hitting the origin from the exit state v equal
    a(v) + a(y) - a(v - y) by the potential-kernel balance (both sides kill
    the same one-step defect; see the potential module). This removes the
    logarithmic-tail truncation bias. Targets may lie outside the box:
    direct visits then never occur and the whole estimate rides on the
    analytic closure.
    """
    from .potential import potential_float_array

    r = max(escape_radius, abs(start[0]) + 1, abs(start[1]) + 1)
    side = 2 * r + 1
    # over the box's cells: the level of the largest square that fits
    # around each (as its offset among the table's keys), and the cells
    # where a run goes on
    gx, gy = np.indices((side, side)).reshape(2, -1) - r
    norm = np.maximum(np.abs(gx), np.abs(gy))
    room = np.minimum(norm - 1, r - 1 - norm)
    for tx, ty in targets:
        room = np.minimum(room, np.maximum(np.abs(gx - tx), np.abs(gy - ty)) - 1)
    level = np.frexp(np.maximum(room, 0))[1].astype(np.int64)
    offset = level << _DRAW_BITS
    inside = (norm > 0) & (norm < r)
    levels = [_exit_level(k) for k in range(int(level.max()) + 1)]
    keys, jx, jy = (np.concatenate(parts) for parts in zip(*levels))
    jump = jx * side + jy

    def step(cell, u):
        key = (u * 2.0**_DRAW_BITS).astype(np.int64)
        key += offset[cell]
        return cell + jump[np.searchsorted(keys, key, side="right")]

    tmax = max((max(abs(t[0]), abs(t[1])) for t in targets), default=0)
    afloat = potential_float_array(r + tmax + 2)
    tx = np.asarray([t[0] for t in targets], dtype=np.int64)
    ty = np.asarray([t[1] for t in targets], dtype=np.int64)

    def tail(end):
        ex, ey = gx[end, None], gy[end, None]
        return (
            _a_lookup(afloat, ex, ey)
            + _a_lookup(afloat, tx, ty)
            - _a_lookup(afloat, ex - tx, ey - ty)
        )

    def cell(x, y):  # a target beyond the box: past the last cell, never met
        return (x + r) * side + y + r if max(abs(x), abs(y)) <= r else side * side

    return _Walk(
        "fast-plane", cell(*start), cell(0, 0), [cell(*t) for t in targets],
        step=step, going=inside.__getitem__, tail=tail,
        note=f"analytic tail beyond radius {r}",
    )


def _square_exit_law(m):
    """Exit points of the square [-m, m]^2 and the walk's exit law from its centre.

    Returns (dx, dy, p): the points just outside the west, east, south and
    north edges in turn, each edge in increasing order, and the probability
    of leaving the square through each. m = 0 gives the four 1/4 steps.

    p is the square's killed Green function at the centre (the ``kill``
    window solve on ``Z2Walk().window(m)``) times the 1/4 step across the
    edge, evaluated as the discrete Poisson kernel of the square in closed
    form (Lawler & Limic, *Random Walk: A Modern Introduction*, 2010, on
    exit distributions of boxes). With L = 2m + 2 and t = 1 .. L - 1 along
    the west edge, the sine modes k that vanish at the centre drop out:

        p(t) = (1/L) sum over odd k < L of (-1)^((k-1)/2) sin(k pi t / L)
               / cosh((m + 1) beta_k),  where cosh(beta_k) = 2 - cos(k pi / L).

    The other edges take the same values by symmetry. The series needs no
    sparse solver, so a sampling process imports no scipy for it; the tests
    hold it to the exact window solve.
    """
    big = 2 * m + 2
    k = np.arange(1, big, 2)
    with np.errstate(over="ignore"):  # cosh overflows for large m: 1 / inf = 0
        weight = np.where(k % 4 == 1, 1.0, -1.0) / np.cosh(
            (m + 1) * np.arccosh(2 - np.cos(k * (np.pi / big)))
        )
    t = np.arange(1, big)
    edge = (np.sin(np.outer(t, k) * (np.pi / big)) * weight).sum(axis=1) / big
    edge = (edge + edge[::-1]) / 2  # exactly symmetric along the edge
    along = np.arange(-m, m + 1)
    out = np.full(2 * m + 1, m + 1)
    dx = np.concatenate([-out, out, along, along])
    dy = np.concatenate([along, along, -out, out])
    return dx, dy, np.tile(edge, 4)


@functools.cache
def _exit_level(k):
    """Level k of the plane lane's jump table, built on first use.

    Level 0 is the single step, level k >= 1 the exit from the square of
    half-side m = 2^(k-1). Returns read-only (keys, dx, dy): the exit law's
    CDF, each entry the correctly rounded cumulative probability, times
    2^52 rounded up (at most 2^52), plus k 2^52; the last entry is
    (k + 1) 2^52. Over the levels' keys in turn, a sorted search for
    k 2^52 + u 2^52 with u < 1 lands in level k and counts the entries <= u
    of its CDF, which picks exit point j with probability cdf[j] - cdf[j - 1].
    """
    dx, dy, p = _square_exit_law((1 << k) // 2)
    cdf = np.array([float(c) for c in itertools.accumulate(map(Fraction, p.tolist()))])
    keys = np.ceil(np.minimum(cdf, 1.0) * 2.0**_DRAW_BITS).astype(np.int64)
    keys[-1] = 1 << _DRAW_BITS
    keys += k << _DRAW_BITS
    for a in (keys, dx, dy):
        a.flags.writeable = False
    return keys, dx, dy


def _a_lookup(afloat, vx, vy):
    i = np.abs(vx)
    j = np.abs(vy)
    return afloat[np.maximum(i, j), np.minimum(i, j)]


def _tree_walk(tree, start, spine, targets):
    """Tree walk reduced to its embedded spine-visit chain.

    Spine = ancestor path of the deepest target; visits to any target are
    visits to a spine node. Off-spine excursions never meet the spine or
    the root and return to the node they left through with probability one
    (the depth below the spine is an unbiased +-1 walk), so for visit
    counting each excursion collapses to a self-loop. The embedded walk on
    spine depths 0..p has a strict downward drift, hence geometric run
    lengths: the lane is fast and carries no truncation bias. The state of
    a run is its spine depth, and a draw is one step of ``_tree_jumps``.

    A start off the spine first walks its excursion back to its meet point
    (certain arrival, one visit there); when that meet point is the root,
    the run starts at state p + 1 and its first draw takes it to the root,
    without any visit.
    """
    p_len = len(spine)
    j0 = tree.meet_depth(start, spine)
    if j0 == 0 and len(start) > 0:
        j0 = p_len + 1
    return _Walk(
        "fast-tree", j0, 0, [len(t) for t in targets],
        step=_table_step(*_tree_jumps(tree.k, p_len)),
        going=lambda state: state != 0,
    )


@functools.lru_cache(maxsize=64)
def _tree_jumps(k, p):
    """The tree lane's table over the embedded chain's states 0 .. p + 1.

    Rows (k = branching factor, p = spine length), outcomes in order:
      0 < j <= p : j - 1 w.p. 1/2, j + 1 w.p. 1/(2k) if j < p, else j
                   (an excursion, or at j = p any child);
      j = 0      : only at time 0 (a start at the root): depth 1 w.p. 1/k
                   if p >= 1, else the root (absorbed);
      j = p + 1  : an off-spine start that meets the spine at the root,
                   which its excursion reaches with certainty.
    Returns read-only (dest, low_cut, high_cut) as ``_table_step`` reads
    them, each cut the correctly rounded cumulative probability.
    """
    half, child = Fraction(1, 2), Fraction(1, 2 * k)
    rows = [((1, 0, 0), (Fraction(1, k), 1)) if p else ((0, 0, 0), (1, 1))]
    rows += [((j - 1, j + 1, j), (half, half + child)) for j in range(1, p)]
    rows += [((p - 1, p, p), (half, 1))] if p else []
    rows.append(((0, 0, 0), (1, 1)))
    dest = np.asarray([d for d, _ in rows], dtype=np.int64).ravel()
    low_cut, high_cut = np.asarray([[float(c) for c in cuts] for _, cuts in rows]).T
    for a in (dest, low_cut, high_cut):
        a.flags.writeable = False
    return dest, low_cut, high_cut


class _TableRows:
    """The rows of a ``SuccessorTable`` as padded arrays, filled on first visit.

    Row c holds the successor codes of code c and their CDF, each entry the
    correctly rounded cumulative num / den, so a row does not depend on the
    batch that filled it. Entries from the row's last real one on read
    +inf, so a step that counts the entries <= u never passes the row's
    end. A row is filled when a run first stands at its code, not when the
    table first names it: filling every named code would chase children
    without end on an infinite graph.
    """

    def __init__(self, table):
        self.table = table
        self.filled = np.zeros(64, dtype=bool)
        self.succ = np.zeros((64, 1), dtype=np.int64)
        self.cdf = np.full((64, 1), np.inf)

    def fill(self, codes):
        """Cache the rows of ``codes``, distinct codes not cached yet."""
        succ, num, den = self.table.step(codes)
        n, cap, width = len(self.table.states), len(self.filled), succ.shape[1]
        extra = max(n, 2 * cap) - cap if n > cap else 0
        wider = max(0, width - self.succ.shape[1])
        if extra or wider:
            self.filled = np.pad(self.filled, (0, extra))
            self.succ = np.pad(self.succ, ((0, extra), (0, wider)))
            self.cdf = np.pad(self.cdf, ((0, extra), (0, wider)), constant_values=np.inf)
        cdf = exact_floats(np.cumsum(num, axis=1), den)
        last = (succ != UNNAMED).sum(axis=1) - 1
        cdf[np.arange(width) >= last[:, None]] = np.inf
        self.succ[codes, :width] = succ
        self.cdf[codes, :width] = cdf
        self.filled[codes] = True


def _table_walk(chain, x0, x, targets):
    """Any chain's walk over the codes of a ``SuccessorTable``, absorbed at x0.

    x0 takes code 0, the origin of the ensemble driver; the codes name every
    state. One step of the live runs is one gather of their rows and one
    count of the CDF entries <= u per run.
    """
    table = SuccessorTable(chain)
    codes = table.encode([x0, x, *targets]).tolist()
    rows = _TableRows(table)

    def step(cur, u):
        new = np.sort(cur[~rows.filled[cur]])
        if new.size:  # distinct codes; the plain np.unique loads numpy.ma
            rows.fill(new[np.diff(new, prepend=-1) > 0])
        return rows.succ[cur, (rows.cdf[cur] <= u[:, None]).sum(axis=1)]

    return _Walk("generic", codes[1], 0, codes[2:], step, going=lambda cur: cur != 0)
