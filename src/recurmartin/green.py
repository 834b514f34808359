"""Killed Green functions and visit-ratio (Martin) kernels.

The central object is G_{x0}(x, y): the expected number of visits to y,
counting time 0, strictly before the first return to the base state x0.
Three routes are provided:

* ``green_solve`` — linear solve of the killed one-step system on a finite
  window, in exact rational arithmetic (sparse elimination in minimum
  Markowitz order, fill-free on the line, the half line and trees) or in
  floating point (sparse LU);
* ``green_mc`` / ``green_mc_grid`` — direct simulation until the return to
  the base state, with vectorized fast lanes for the built-in chains;
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

import heapq
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
from .rng import GREEN_ENSEMBLE, counter_uniforms, stream_keys, trajectory_generator
from .window import WindowOperator, window_operator

#: Exact solves above this window size are refused: tree-shaped windows
#: eliminate without fill, but 2-D windows fill in and their Fraction
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
    op = window_operator(
        table, table.encode(window), kill=kill, policy=policy, scale=scale
    )
    return index, op


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


def _solve_columns_fraction(rows: list, columns: list[int]) -> list[list[Fraction]]:
    """Solve (I - M) g = e_c for each column c, exactly."""
    n = len(rows)
    if n > EXACT_SOLVE_LIMIT:
        raise ValueError(
            f"window of {n} states is too large for the exact lane "
            f"(limit {EXACT_SOLVE_LIMIT}); use the floating solver"
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


def _killed_column_values(chain, x0, window, ys, policy, exact):
    """g_y vectors over the window for each y, with transitions into x0 killed."""
    index, op = window_rows(chain, window, kill_into=x0, policy=policy)
    cols = [index[y] for y in ys]
    if exact:
        vecs = _solve_columns_fraction(op.fraction_rows(), cols)
    else:
        vecs = _solve_columns_float(op, cols)
    return index, {y: vec for y, vec in zip(ys, vecs)}


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
    window = chain.window(trunc.radius)
    present = set(window)
    missing = [s for s in {x0} | {s for q in queries for s in q} if s not in present]
    if missing:
        names = ", ".join(chain.format_state(s) for s in missing)
        raise ValueError(f"states outside the radius-{trunc.radius} window: {names}")
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


def green_value(
    chain: ChainSpec,
    x0: StateId,
    x: StateId,
    y: StateId,
    radius: Optional[int] = None,
    policy: str = "loop",
    exact: bool = False,
    margin: int = 0,
) -> GreenResult:
    """Single-query convenience wrapper around green_solve."""
    if radius is None:
        radius = default_radius(chain, [x0, x, y])
    trunc = Truncation(radius=radius, policy=policy, margin=margin)
    return green_solve(chain, x0, [(x, y)], trunc, exact=exact)[0]


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
    window = chain.window(trunc.radius)
    present = set(window)
    missing = [s for s in {x0} | {s for q in queries for s in q} if s not in present]
    if missing:
        raise ValueError("query states outside window")
    index, op = window_rows(
        chain, window, row_scale={x0: Fraction(r)}, policy=trunc.policy
    )
    ys = sorted({y for _, y in queries}, key=chain.state_key)
    cols = [index[y] for y in ys]
    vecs = (
        _solve_columns_fraction(op.fraction_rows(), cols)
        if exact
        else _solve_columns_float(op, cols)
    )
    col = {y: vec for y, vec in zip(ys, vecs)}
    return [col[y][index[x]] for x, y in queries]


def state_norm(chain: ChainSpec, s: StateId) -> int:
    """Distance scale of a state: |x| on lines, depth on trees, sup norm on grids."""
    if isinstance(s, tuple):
        if s and all(isinstance(c, int) for c in s) and isinstance(chain, Z2Walk):
            return max(abs(c) for c in s)
        return len(s)
    return abs(int(s))


def default_radius(chain: ChainSpec, states: Sequence[StateId]) -> int:
    """A window radius comfortably containing the given states."""
    base = max((state_norm(chain, s) for s in states), default=0)
    return base + 20


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
        window = chain.window(trunc.radius)
        present = set(window)
        for s in (x0, x, y):
            if s not in present:
                raise ValueError(
                    f"state {chain.format_state(s)} outside the radius-{radius} window"
                )
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
    escape_radius: Optional[int] = 64,
) -> GreenResult:
    """Sample mean of the visits to y before the first return to x0.

    Each run starts at x, counts a visit at time 0, and stops on arrival
    at x0 at time >= 1 (arrival not counted). A run exceeding ``step_cap``
    raises RunawayRunError when ``on_cap='error'`` or is kept as-is when
    ``on_cap='truncate'`` (the reported value is then a lower-biased
    estimate; the number of truncated runs is reported).

    On the line and the planar walk, runs that leave the ``escape_radius``
    box are completed analytically through closed forms (the potential
    kernel on the plane) instead of being simulated to the heavy-tailed
    return time; pass ``escape_radius=None`` to force plain truncation.
    ``lane`` on the result names the sampler that ran.
    """
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    if on_cap not in ("error", "truncate"):
        raise ValueError("on_cap must be 'error' or 'truncate'")
    fast = _fast_lane(
        chain, x0, x, [y], trajectories, seed, step_cap, on_cap,
        index_offset, escape_radius,
    )
    if fast is not None:
        return fast[0]
    totals = np.empty(trajectories)
    cdf_cache: dict = {}
    truncated = 0
    for i in range(trajectories):
        gen = trajectory_generator(seed, index_offset + i)
        state = x
        visits = 1 if state == y else 0
        steps = 0
        while True:
            state = _cached_step(chain, state, gen.random(), cdf_cache)
            steps += 1
            if state == x0:
                break
            if state == y:
                visits += 1
            if steps >= step_cap:
                if on_cap == "error":
                    raise RunawayRunError(step_cap, i)
                truncated += 1
                break
        totals[i] = visits
    return _mc_result(totals, trajectories, truncated, "generic")


def green_mc_grid(
    chain: ChainSpec,
    x0: StateId,
    starts: Sequence[StateId],
    targets: Sequence[StateId],
    trajectories: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
    on_cap: str = "truncate",
    escape_radius: Optional[int] = 64,
) -> dict:
    """green_mc over a starts x targets grid, sharing runs per start.

    One trajectory ensemble per start serves every target simultaneously,
    so a runs-per-pair budget costs len(starts) ensembles instead of
    len(starts) * len(targets). Estimates sharing a start are correlated
    across targets but each is individually the green_mc estimator.
    """
    out = {}
    for k, x in enumerate(starts):
        offset = k * (trajectories + 1)
        res = _fast_lane(
            chain, x0, x, list(targets), trajectories, seed, step_cap,
            on_cap, offset, escape_radius,
        )
        if res is None:
            res = [
                green_mc(
                    chain, x0, x, t, trajectories, seed,
                    step_cap=step_cap, on_cap=on_cap, index_offset=offset,
                    escape_radius=escape_radius,
                )
                for t in targets
            ]
        out.update({(x, t): r for t, r in zip(targets, res)})
    return out


def _mc_result(totals, runs, truncated, lane, escaped=0, note=None):
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
    )


def _cached_step(chain, state, u, cache):
    entry = cache.get(state)
    if entry is None:
        moves = sorted(chain.successors(state), key=lambda sp: chain.state_key(sp[0]))
        cdf = np.cumsum([float(p) for _, p in moves])
        entry = ([t for t, _ in moves], cdf)
        cache[state] = entry
    targets, cdf = entry
    return targets[min(int(np.searchsorted(cdf, u, side="right")), len(targets) - 1)]


def _fast_lane(chain, x0, x, targets, runs, seed, cap, on_cap, offset, escape_radius):
    """Vectorized ensemble for one start, or None where only the generic lane fits.

    The line and the plane are translation invariant, so they run at any
    base in coordinates shifted by x0; the half line runs at its base 0 and
    the tree at its root, with every target on one spine. A lane runs only
    the law of its own class (``law_class``): a subclass that overrides
    ``successors`` takes the generic lane. Returns the results in target
    order.
    """
    law = law_class(chain)
    if law in (ZWalk, BangBangWalk):
        if law is BangBangWalk and x0 != 0:
            return None
        walk = _line_walk(chain, x - x0, [t - x0 for t in targets], escape_radius)
    elif law is Z2Walk:
        start = (x[0] - x0[0], x[1] - x0[1])
        shifted = [(t[0] - x0[0], t[1] - x0[1]) for t in targets]
        walk = _plane_walk(start, shifted, escape_radius)
    elif law is KaryTree and x0 == ROOT:
        spine = max(targets, key=len, default=ROOT)
        if any(t != spine[: len(t)] for t in targets):
            return None
        walk = _tree_walk(chain, x, spine, targets)
        if walk is None:
            # an excursion below the root ends at the root: no spine visits
            return [_mc_result(np.zeros(runs), runs, 0, "fast-tree") for _ in targets]
    else:
        return None
    return _ensemble(walk, runs, seed, offset, cap, on_cap)


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
    """A chain as the ensemble driver runs it, with the base at the origin.

    ``start`` and each target are integer coordinate tuples. ``block``
    maps the coordinates of n live runs (a tuple of (n,) int64 arrays) and
    their uniforms for the next b steps (an (n, b) array) to the coordinates
    after each of those steps ((n, b) arrays); a run still at the origin is
    at its time 0 and takes the base row. ``dead`` marks, in the same
    shape, the steps that end a run: arrival at the origin, or a step out
    of the escape box. ``tail`` maps the exit states of escaped runs ((m,)
    arrays) to the expected visits still to come, shape (m, len(targets)).
    """

    lane: str
    start: tuple
    targets: list
    block: Callable
    dead: Callable
    tail: Optional[Callable] = None
    note: Optional[str] = None


def _ends(norm, r):
    """Steps with norm 0 (the origin) or norm >= r (out of the box).

    Shifting by one moves norm 0 to the top of the unsigned range, so one
    unsigned comparison tests both; ``norm`` is overwritten.
    """
    norm -= 1
    return norm.view(np.uint64) >= np.uint64(r - 1)


def _ensemble(walk, runs, seed, offset, cap, on_cap):
    """Run trajectories offset .. offset + runs - 1 until they return to the base.

    Step n of trajectory i draws counter_uniforms(key_i, n), so each run's
    path, and with it every result, is the same whatever the slab size,
    the block schedule, the run count or the set of runs still alive. Each
    slab starts with _FIRST_BLOCK-step blocks that double while live rows x
    block stays within _BLOCK_CELLS: most runs of a recurrent walk end after
    a few steps, and a long first block would be simulated in vain for them.
    """
    tgt = np.asarray(walk.targets, dtype=np.int64)
    tgt = tgt.reshape(len(walk.targets), len(walk.start))
    visits = np.zeros((runs, len(tgt)))
    visits[:] = np.all(tgt == np.asarray(walk.start), axis=1)  # time 0
    truncated = escaped = 0
    for lo in range(0, runs, _SLAB):
        size = min(_SLAB, runs - lo)
        index = np.arange(offset + lo, offset + lo + size)
        keys = stream_keys(seed, GREEN_ENSEMBLE, index)
        vis = visits[lo : lo + size]
        rows = np.arange(size)  # slab rows still running
        coords = tuple(np.full(size, c, dtype=np.int64) for c in walk.start)
        steps, b = 0, _FIRST_BLOCK
        while rows.size and steps < cap:
            b = min(b, cap - steps, max(1, _BLOCK_CELLS // rows.size))
            counters = np.arange(steps, steps + b)[None, :]
            paths = walk.block(coords, counter_uniforms(keys[rows, None], counters))
            dead = walk.dead(paths)
            ended = dead.any(axis=1)
            first = np.where(ended, dead.argmax(axis=1), b)
            live = np.arange(b) < first[:, None]
            for ti, t in enumerate(tgt):
                hit = live
                for p, c in zip(paths, t):
                    hit = hit & (p == c)
                vis[rows, ti] += hit.sum(axis=1)
            if walk.tail is not None:
                e = np.nonzero(ended)[0]
                ends = [p[e, first[e]] for p in paths]
                away = np.any(ends, axis=0)  # escaped, not absorbed at the origin
                if away.any():
                    vis[rows[e[away]]] += walk.tail(tuple(c[away] for c in ends))
                    escaped += int(away.sum())
            going = ~ended
            coords = tuple(p[going, -1] for p in paths)
            rows = rows[going]
            steps += b
            b *= 2
        if rows.size:
            if on_cap == "error":
                raise RunawayRunError(cap, lo + size - rows.size)
            truncated += rows.size
    return [
        _mc_result(visits[:, ti], runs, truncated, walk.lane, escaped, walk.note)
        for ti in range(len(tgt))
    ]


def _line_tails(chain, start, targets, escape_radius):
    """Escape box and per-target analytic remainders for line walks.

    Beyond every target (same side), the expected future visits before the
    return to the base no longer depend on the position, so a run exiting
    the box at +-R is finished in expectation by the closed-form Green
    value at the exit point. Nearest-neighbour steps land exactly on +-R.
    Coordinates are relative to the base, which is 0.
    """
    if escape_radius is None:
        return None, None, None
    r = max(escape_radius, max(abs(int(start)), max(abs(int(t)) for t in targets)) + 2)
    plus = np.asarray([float(chain.exact_green(r, t)) for t in targets])
    if isinstance(chain, BangBangWalk):
        minus = np.zeros(len(targets))  # the minus side is unreachable
    else:
        minus = np.asarray([float(chain.exact_green(-r, t)) for t in targets])
    return r, plus, minus


def _line_walk(chain, start, targets, escape_radius):
    """Nearest-neighbour walk on the integers, absorbed at 0.

    Valid whenever the up-probability is constant away from the base,
    so both the symmetric and the half-line walks qualify; a run starting
    at the base takes the base row first (the half line's forced up-step).
    With an escape box, runs leaving it are completed analytically through
    the tail values (removing the heavy-tail truncation bias of
    null-recurrent returns); the half-line walk never reaches the minus
    side, continuity forcing absorption at 0 first.
    """
    p_up = 0.5 if isinstance(chain, ZWalk) else float(chain.q)
    p_base = float(sum(p for t, p in chain.successors(0) if t == 1))
    r, plus, minus = _line_tails(chain, start, targets, escape_radius)

    def block(coords, u):
        (pos,) = coords
        up = u < p_up
        at_base = pos == 0
        if at_base.any():
            up[at_base, 0] = u[at_base, 0] < p_base
        path = np.cumsum(up, axis=1)  # ups so far; the rest are downs
        path *= 2
        path += pos[:, None] - np.arange(1, u.shape[1] + 1)
        return (path,)

    targets = [(t,) for t in targets]
    if r is None:
        return _Walk(
            "fast-line", (start,), targets, block, lambda paths: paths[0] == 0
        )
    return _Walk(
        "fast-line", (start,), targets, block,
        dead=lambda paths: _ends(np.abs(paths[0]), r),
        tail=lambda end: np.where((end[0] > 0)[:, None], plus, minus),
        note=f"analytic tail beyond radius {r}",
    )


_PLANE_DX = np.array([-1, 1, 0, 0])
_PLANE_DY = np.array([0, 0, -1, 1])


def _plane_walk(start, targets, escape_radius):
    """Planar walk absorbed at the origin, with optional analytic tails.

    When ``escape_radius`` is set, a run leaving the box is finished in
    expectation: the remaining visits to y before hitting the origin from
    the exit state v equal a(v) + a(y) - a(v - y) by the potential-kernel
    balance (both sides kill the same one-step defect; see the potential
    module). This removes the logarithmic-tail truncation bias. Targets
    may lie outside the box: direct visits then never occur and the whole
    estimate rides on the analytic closure.
    """
    from .potential import potential_float_array

    def block(coords, u):
        px, py = coords
        move = (u * 4).astype(np.int64)  # west, east, south, north
        return (
            px[:, None] + np.cumsum(_PLANE_DX[move], axis=1),
            py[:, None] + np.cumsum(_PLANE_DY[move], axis=1),
        )

    if escape_radius is None:
        return _Walk(
            "fast-plane", start, targets, block,
            lambda paths: (paths[0] == 0) & (paths[1] == 0),
        )
    r = max(escape_radius, abs(start[0]) + 1, abs(start[1]) + 1)
    tmax = max((max(abs(t[0]), abs(t[1])) for t in targets), default=0)
    afloat = potential_float_array(r + tmax + 2)
    tx = np.asarray([t[0] for t in targets], dtype=np.int64)
    ty = np.asarray([t[1] for t in targets], dtype=np.int64)

    def tail(end):
        ex, ey = end[0][:, None], end[1][:, None]
        return (
            _a_lookup(afloat, ex, ey)
            + _a_lookup(afloat, tx, ty)
            - _a_lookup(afloat, ex - tx, ey - ty)
        )

    return _Walk(
        "fast-plane", start, targets, block,
        dead=lambda p: _ends(np.maximum(np.abs(p[0]), np.abs(p[1])), r),
        tail=tail,
        note=f"analytic tail beyond radius {r}",
    )


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
    lengths: the lane is fast and carries no truncation bias.

    Embedded rows (k = branching factor, p = spine length):
      0 < j < p : j-1 w.p. 1/2, j+1 w.p. 1/(2k), j (excursion) else;
      j = p     : j-1 w.p. 1/2, j (excursion) w.p. 1/2;
      j = 0     : only at embedded time 0 (start at the root): depth 1
                  w.p. 1/k if p >= 1, otherwise return/absorb at the root.
    A start off the spine first walks its excursion back to its meet point
    (certain arrival, one visit there); returns None when that meet point
    is the root, where the run is absorbed without any visit.
    """
    k = tree.k
    p_len = len(spine)
    j0 = tree.meet_depth(start, spine)
    if j0 == 0 and len(start) > 0:
        return None
    inv2k = 0.5 / k

    def block(coords, u):
        (j,) = coords
        inc = (u < 0.5 + inv2k).astype(np.int64)
        inc -= 2 * (u < 0.5)
        at_root = j == 0
        if at_root.any():
            inc[at_root, 0] = u[at_root, 0] < 1.0 / k
        # j_{t+1} = min(j_t + inc_t, p): the running sum less its overshoot of p
        path = j[:, None] + np.cumsum(inc, axis=1)
        over = np.maximum.accumulate(path - p_len, axis=1)
        return (path - np.maximum(over, 0),)

    return _Walk(
        "fast-tree", (j0,), [(len(t),) for t in targets], block,
        lambda paths: paths[0] == 0,
    )
