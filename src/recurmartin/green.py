"""Killed Green functions and visit-ratio (Martin) kernels.

The central object is G_{x0}(x, y): the expected number of visits to y,
counting time 0, strictly before the first return to the base state x0.
It is computed in two ways:

* ``green_solve`` — linear solve of the killed one-step system on a finite
  window, exactly (fraction-free sparse elimination of the integer matrix
  den (I - M) in minimum Markowitz order, fill-free on the line, the half
  line and trees, with one ``Fraction`` per solved entry) or in floating
  point (sparse LU in minimum-degree order);
* ``green_mc`` / ``green_mc_grid`` — direct simulation until the return to
  the base state on one ensemble driver, ``_ensemble``: vectorized lanes
  for the built-in laws, and for any chain a lane over its successor table.

``martin_kernel``, the ratio L_{x0}(x, y) = G_{x0}(x, y) / G_{x0}(x0, y),
takes both values from one window solve; a Monte Carlo estimate of it is
the ratio of two ``green_mc`` calls. Every window solve, ``sigma``'s visit
counts included, builds its operator by ``window_system``, from a radius or
a state list, and reads its values through ``_window_values``.

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
from .rng import _DRAW_BITS, GREEN_ENSEMBLE, _draw_cuts, counter_bits, stream_keys
from .window import (
    UNNAMED,
    SuccessorTable,
    WindowOperator,
    exact_floats,
    locate,
    window_codes,
    window_operator,
)

#: Exact solves above this window size are refused unless the window is a
#: forest: tree-shaped windows (the line, the half line, trees) eliminate
#: without fill at any size, but 2-D windows fill in and their integer rows
#: grow. The z2 kill solve takes about 0.016 / 0.15 / 1.0 s at radius
#: 6 / 10 / 14 (169 / 441 / 841 states; Python 3.11 on a 2-core Xeon VM),
#: about as the fifth power of the radius.
EXACT_SOLVE_LIMIT = 1200

#: SuperLU column ordering of the float solve: minimum degree on the
#: pattern of A^T + A, which suits windows, whose patterns are symmetric
#: up to the transitions into a killed state. On the z2 kill window of radius 30 (3,721 states) L + U holds 117,051
#: entries against 193,048 under the COLAMD default (George and Liu, "The
#: evolution of the minimum degree ordering algorithm", SIAM Review 31, 1989).
FLOAT_LU_ORDERING = "MMD_AT_PLUS_A"

DEFAULT_STEP_CAP = 10_000_000


@dataclass(frozen=True)
class Truncation:
    """Finite-window policy for solving on an infinite state space."""

    radius: int
    policy: str = "loop"

    def __post_init__(self):
        if self.policy not in ("loop", "kill"):
            raise ValueError("policy must be 'loop' or 'kill'")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")


@dataclass
class GreenResult:
    """A Green-function (or kernel-ratio) value with its provenance."""

    value: object  # float, or Fraction from the exact lane
    method: str  # "exact-solve" | "monte-carlo"
    stderr: float = 0.0
    radius: Optional[int] = None
    policy: Optional[str] = None
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


def window_system(
    chain: ChainSpec,
    window: int | Sequence[StateId],
    states: Sequence[StateId] = (),
    *,
    kill_into: Optional[StateId] = None,
    row_scale: Optional[dict] = None,
    policy: str = "loop",
) -> tuple[list, WindowOperator]:
    """Substochastic transition rows restricted to a window, and the window
    position of each of ``states`` (-1 for one outside the window).

    ``window`` is a radius, read as the int64 code array
    ``chain.code_window(radius)`` with no state of it built or hashed, or an
    explicit state sequence, encoded on ``chain.code_table(window)``
    (``window.window_codes``).
    Transitions into ``kill_into`` are deleted; transitions leaving the
    window are deleted (``kill``) or folded into a self-loop (``loop``).
    ``row_scale`` multiplies the entire outgoing row of selected states.

    ``states``, ``kill_into`` and the scaled states are encoded in one call
    and found by one binary search over the window's sorted codes, a sort
    the operator reuses (``window.locate``). On a radius window each of them
    that falls outside is refused by name before the operator is built:
    each once, in ``state_key`` order. On an explicit window a scaled state
    outside it is skipped.
    """
    radius = window if isinstance(window, (int, np.integer)) else None
    table, codes = window_codes(chain, window)
    scaled = [s for s, f in (row_scale or {}).items() if f != 1]
    named = [*states, *scaled, *([] if kill_into is None else [kill_into])]
    order = np.argsort(codes, kind="stable")
    found, at = locate(table, codes, order, named)
    if radius is not None and (at < 0).any():
        outside = {s for s, p in zip(named, at.tolist()) if p < 0}
        names = ", ".join(chain.format_state(s) for s in sorted(outside, key=chain.state_key))
        raise ValueError(f"states outside the radius-{radius} window: {names}")
    kill = None if kill_into is None else int(found[-1])
    scale = {p: row_scale[s] for s, p in zip(scaled, at[len(states) :].tolist()) if p >= 0}
    op = window_operator(table, codes, kill=kill, scale=scale, order=order)
    return at[: len(states)].tolist(), (op.looped() if policy == "loop" else op)


def _window_values(chain, window, queries, exact, **system) -> list:
    """The value at x of column y of (I - M)^-1 for each (x, y) query: one
    column per distinct y, solved on ``window_system(chain, window, ...,
    **system)``'s operator, exactly or in floats."""
    states = [s for q in queries for s in q]
    pos, op = window_system(chain, window, states, **system)
    at = dict(zip(states, pos))
    ys = sorted({y for _, y in queries}, key=chain.state_key)
    col = dict(zip(ys, _solve_columns(op, [at[y] for y in ys], exact)))
    return [col[y][at[x]] for x, y in queries]


def _eliminate(a: list, b: list, ncols: int) -> list:
    """Solve A X = B exactly by fraction-free sparse elimination.

    ``a[i]`` maps column -> nonzero integer coefficient of row i and
    ``b[i]`` maps right-hand-side column -> nonzero integer entry; both are
    consumed. Pivots are diagonal, taken in order of least Markowitz count,
    (row nonzeros - 1) x (column nonzeros - 1), from a heap with lazy
    re-push, so tree-shaped systems (line, half line, k-ary tree) eliminate
    leaves first with no fill. Rows stay in integers (Bareiss 1968): with
    g = gcd(a_ik, a_kk), row i becomes (a_kk/g) row i - (a_ik/g) row k and
    is then divided by its content, one gcd per row update where Fraction
    entries pay one per entry. Each row remains a nonzero multiple of the
    rational row, so the zero pattern, hence every pivot and every
    refusal, is that of rational elimination. Back-substitution carries
    unreduced integer pairs and reduces once per solved entry. Returns X
    as ``ncols`` lists of length n of Fractions.

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

    gcd = math.gcd
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
            aik = rowi.pop(k)
            g = gcd(aik, pivot)
            f, s = aik // g, pivot // g
            if s != 1:
                rowi = a[i] = {j: s * v for j, v in rowi.items()}
                bi = b[i] = {c: s * v for c, v in bi.items()}
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
            g = gcd(*rowi.values(), *bi.values())
            if g > 1:
                for j in rowi:
                    rowi[j] //= g
                for c in bi:
                    bi[c] //= g
            touched.add(i)
        cols[k] = set()
        for v in touched:
            heapq.heappush(heap, (markowitz(v), v))
    x = []
    for c in range(ncols):
        num, den = [0] * n, [1] * n
        xc = [Fraction(0)] * n
        for k in reversed(order):
            # row k reads pivot x_k + sum_j a_kj x_j = b_kc: s/d = b_kc - sum
            s, d = b[k].get(c, 0), 1
            for j, v in a[k].items():
                nj = num[j]
                if nj:
                    dj = den[j]
                    if dj == d:
                        s -= v * nj
                    else:
                        s, d = s * dj - v * nj * d, d * dj
            if s:
                xk = xc[k] = Fraction(s, d * pivots[k])
                num[k], den[k] = xk.numerator, xk.denominator
        x.append(xc)
    return x


def _forest(op: WindowOperator) -> bool:
    """Whether the transition graph of ``op``, read undirected and without
    self-loops, has no cycle."""
    n = len(op)
    rows, cols = op.rows, op.indices
    off = rows != cols
    edges = np.unique(np.minimum(rows, cols)[off] * n + np.maximum(rows, cols)[off])
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for i, j in zip(*(e.tolist() for e in np.divmod(edges, n))):
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        root[ri] = rj
    return True


def _solve_columns_float(op: WindowOperator, columns: list[int]) -> list[np.ndarray]:
    """Float counterpart of the exact column solve, by sparse LU in
    ``FLOAT_LU_ORDERING``.

    I - M is assembled as triplets, each row's unit diagonal before its
    entries, so that a diagonal entry is 1 - p exactly as a per-row
    assembly of the same rows gives it.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

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
        sol = splu(a, permc_spec=FLOAT_LU_ORDERING).solve(rhs)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    return [sol[:, c_ix] for c_ix in range(len(columns))]


def _solve_columns(op: WindowOperator, columns: list[int], exact: bool) -> list:
    """Solve (I - M) g = e_c for each column c, exactly or in floats.

    The exact lane hands ``_eliminate`` den (I - M) and den e_c, whose rows
    it reads straight off the operator's integer CSR arrays.
    """
    if not exact:
        return _solve_columns_float(op, columns)
    n, den = len(op), op.den
    if n > EXACT_SOLVE_LIMIT and not _forest(op):
        raise ValueError(
            f"window of {n} states is too large for the exact lane "
            f"(limit {EXACT_SOLVE_LIMIT} unless the window is a forest); "
            "use the floating solver"
        )
    nums, cols, ptr = op.num.tolist(), op.indices.tolist(), op.indptr.tolist()
    a = []
    for i, (lo, hi) in enumerate(zip(ptr, ptr[1:])):
        row = dict(zip(cols[lo:hi], [-v for v in nums[lo:hi]]))
        diagonal = row.get(i, 0) + den
        if diagonal:
            row[i] = diagonal
        else:  # the row only loops: a zero pivot
            del row[i]
        a.append(row)
    b = [{} for _ in range(n)]
    for c_ix, c in enumerate(columns):
        b[c][c_ix] = den
    return _eliminate(a, b, len(columns))


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
    The window is the chain's radius window (``window_system``).
    """
    radius, policy = trunc.radius, trunc.policy
    values = _window_values(chain, radius, queries, exact, kill_into=x0, policy=policy)
    if not exact:
        values = [max(float(v), 0.0) for v in values]
    return [GreenResult(v, "exact-solve", radius=radius, policy=policy) for v in values]


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
    return _window_values(
        chain, trunc.radius, queries, exact, row_scale={x0: Fraction(r)}, policy=trunc.policy
    )


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
    radius: Optional[int] = None,
    exact: bool = True,
) -> GreenResult:
    """Visit ratio L_{x0}(x, y) = G_{x0}(x, y) / G_{x0}(x0, y).

    Both values come from one ``loop`` window solve, exact or in floats, on
    the radius ``default_radius`` gives unless one is passed.
    """
    if radius is None:
        radius = default_radius(chain, [x0, x, y])
    trunc = Truncation(radius)
    num, den = _window_values(chain, radius, [(x, y), (x0, y)], exact, kill_into=x0)
    if (den == 0) if exact else (abs(float(den)) <= 1e-12):
        raise ZeroDenominatorError(
            f"G(x0, y) vanished for y={chain.format_state(y)}; ratio undefined"
        )
    value = num / den if exact else float(num) / float(den)
    return GreenResult(value=value, method="exact-solve", radius=radius, policy=trunc.policy)


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
    _check_mc_options(trajectories, on_cap, escape_radius)
    grid = _mc_grid(chain, x0, [x], [y], trajectories, seed, step_cap, on_cap, escape_radius)
    return grid[(x, y)]


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
    """green_mc over a starts x targets grid, sharing runs across targets.

    One trajectory ensemble serves every start and every target at once:
    start k runs trajectories k (trajectories + 1) onwards, so each start's
    runs, and with them its results, are those of green_mc with that seed
    offset, whatever the other starts. A runs-per-pair budget costs one
    ensemble instead of len(starts) * len(targets). Estimates sharing a
    start are correlated across targets but each is individually the
    green_mc estimator; each result reports its own start's draws, escaped
    runs and truncated runs. The tree lane takes one ensemble per group of
    targets on one spine (``_target_groups``), and the line and plane lanes
    one per escape box that their starts build (``_lane_walks``).

    With ``on_cap='error'``, the RunawayRunError's ``completed_runs``
    counts the runs of the whole grid that ended before the error: all
    runs of the ensembles that finished, and those of the failing
    ensemble's slabs up to the failing one (a trajectory counts once per
    ensemble it ran in).
    """
    _check_mc_options(trajectories, on_cap, escape_radius)
    return _mc_grid(
        chain, x0, list(starts), list(targets), trajectories, seed, step_cap, on_cap,
        escape_radius,
    )


def _check_mc_options(trajectories, on_cap, escape_radius):
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    if on_cap not in ("error", "truncate"):
        raise ValueError("on_cap must be 'error' or 'truncate'")
    box = escape_radius
    if isinstance(box, bool) or not isinstance(box, (int, np.integer)) or box < 1:
        raise ValueError(f"escape_radius must be an int >= 1, not {box!r}")


def _mc_grid(chain, x0, starts, targets, runs, seed, cap, on_cap, escape_radius):
    """The results of ``green_mc_grid``, one ensemble per target group and
    escape box, keyed (start, target) in start order."""
    cells, finished = {}, 0
    for group in _target_groups(chain, x0, targets):
        for walk, ks in _lane_walks(chain, x0, starts, group, escape_radius):
            try:
                res = _ensemble(walk, runs, seed, [k * (runs + 1) for k in ks], cap, on_cap)
            except RunawayRunError as exc:
                raise RunawayRunError(cap, finished + exc.completed_runs) from None
            finished += runs * len(ks)
            cells.update(((k, t), r) for k, row in zip(ks, res) for t, r in zip(group, row))
    return {(x, t): cells[(k, t)] for k, x in enumerate(starts) for t in targets}


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
    """The groups of targets that share one ensemble.

    The tree lane follows one spine, the deepest target's path from the
    root: on the tree at its root, targets that are not all ancestors of
    the deepest get one ensemble each. Elsewhere all targets share one.
    """
    if law_class(chain) is KaryTree and x0 == ROOT:
        spine = max(targets, key=len, default=ROOT)
        if any(t != spine[: len(t)] for t in targets):
            return [[t] for t in targets]
    return [targets]


def _lane_walks(chain, x0, starts, targets, escape_radius):
    """The walks that run ``starts`` to ``targets``, each with the
    positions in ``starts`` of the starts it runs.

    The line and the plane are translation invariant, so they run at any
    base in coordinates shifted by x0; the half line runs at its base 0 and
    the tree at its root, with every target on one spine (``_target_groups``
    keeps them so). A lane runs only the law of its own class
    (``law_class``): any other chain, a subclass that overrides
    ``successors`` included, takes the generic lane, ``_table_walk``. The
    line and the plane build an escape box around the targets and the
    start (``_line_box``, ``_plane_box``); starts whose boxes agree share a
    walk, whose tables and tails do not depend on its starts.
    """
    law = law_class(chain)
    boxes = [None] * len(starts)  # one walk for all starts
    if law is ZWalk or (law is BangBangWalk and x0 == 0):
        shifted = [t - x0 for t in targets]
        moved = [x - x0 for x in starts]
        boxes = [_line_box(x, shifted, escape_radius) for x in moved]

        def build(ks, r):
            return _line_walk(chain, [moved[k] for k in ks], shifted, r)
    elif law is Z2Walk:
        shifted = [(t[0] - x0[0], t[1] - x0[1]) for t in targets]
        moved = [(x[0] - x0[0], x[1] - x0[1]) for x in starts]
        boxes = [_plane_box(x, escape_radius) for x in moved]

        def build(ks, r):
            return _plane_walk([moved[k] for k in ks], shifted, r)
    elif law is KaryTree and x0 == ROOT:
        spine = max(targets, key=len, default=ROOT)

        def build(ks, _):
            return _tree_walk(chain, [starts[k] for k in ks], spine, targets)
    else:
        def build(ks, _):
            return _table_walk(chain, x0, [starts[k] for k in ks], targets)
    by_box = {}
    for k, r in enumerate(boxes):
        by_box.setdefault(r, []).append(k)
    return [(build(ks, r), ks) for r, ks in by_box.items()]


# ---------------------------------------------------------------------------
# The ensemble driver and the walks it runs

#: Runs simulated together; their draws depend on the trajectory index only.
_SLAB = 10_000
#: Steps in a slab's first block; each later block is twice as long. A block
#: steps its runs to its end whether they ended or not, and half the tree's
#: runs from the root end at their first step: against 3 draws, a 4-draw
#: first block cost a 200,000-run tree ensemble about 8% more, while a 2-draw
#: one adds a block, one more call of the draw function, to most slabs.
_FIRST_BLOCK = 3
#: Bound on live rows x block length, the draws held at once.
_BLOCK_CELLS = 10_000 * 512


@dataclass
class _Walk:
    """A chain as the ensemble driver runs it; see ``_ensemble``."""

    lane: str
    start: list
    origin: int
    launch: int
    targets: list
    step: Callable
    going: Callable
    tail: Optional[Callable] = None
    note: Optional[str] = None


def _ensemble(walk, runs, seed, first, cap, on_cap):
    """Run trajectories first[j] .. first[j] + runs - 1 from each start j of
    the walk until they return to the base.

    A walk holds one int64 state per run. ``walk.step(state, b)`` maps the
    states of the runs and one draw each, a 52-bit integer that the step
    compares only against integer cuts (``rng._draw_cuts``), to their
    states after that draw; a draw is a step, or on the line and plane
    lanes a jump. ``walk.going(state)`` marks the states where a run goes
    on: a run ends on arrival at ``walk.origin``, the base, or by a move
    out of the escape box, and the step keeps every state where runs end as
    it is, so a run that has ended stays at its exit state. ``walk.tail``
    maps the exit states of escaped runs to the expected visits still to
    come, shape (m, len(targets)). ``walk.start`` holds each start's state
    at time 0; a run started at the origin takes the base row at time 0
    from the state ``walk.launch``, which no draw leads to. Each of
    ``walk.targets`` is a state; a run visits a target when a draw leaves
    it on that state and it goes on, and at time 0.

    This is the one loop over the draws. Draw n of trajectory i is
    counter_bits(key_i, n), so each run's path, and with it every result,
    is the same whatever the slab size, the block schedule, the run count,
    the other starts or the set of runs still alive. The runs of a slab,
    start by start, go through blocks. A block holds one contiguous row of
    draws per step and steps all of its runs that many times, those that
    end on the way included, with no per-step compaction; it stops early
    only when, after draw 1, 2, 4, ... of the block, no run goes on. The
    block's path then gives each run's visits, its exit state (its last
    state) and, for the runs that ended, their draws (up to the one that
    ended it: the steps it stood at its exit state tell which), and the
    runs that ended leave the slab, once per block. Each slab starts with
    _FIRST_BLOCK-draw blocks that double while live runs x block stays
    within _BLOCK_CELLS: most runs of a recurrent walk end after a few
    draws, and a long first block would be drawn in vain for them. ``cap``
    bounds the draws of a run. Returns one list per start, one result per
    target, each with the draws, escaped runs and truncated runs of that
    start.
    """
    tgt = np.asarray(walk.targets, dtype=np.int64)
    start = np.asarray(walk.start, dtype=np.int64)
    first = np.asarray(first, dtype=np.int64)
    state0 = np.where(start == walk.origin, walk.launch, start)
    visits = np.repeat((start[:, None] == tgt).astype(float), runs, axis=0)  # time 0
    # per start: the draws its runs took, its escaped and its truncated runs
    tally = np.zeros((3, len(start)), dtype=np.int64)
    # a target where runs end is visited at time 0 only; the visits to the
    # others travel with the live runs, as ``seen``, until they end
    cols = [ti for ti, t in enumerate(tgt.tolist()) if walk.going(t)]
    shift = first - runs * np.arange(len(start))  # row -> trajectory index, per start
    for lo in range(0, len(visits), _SLAB):
        hi = min(lo + _SLAB, len(visits))
        at = np.arange(lo, hi)
        of = at // runs  # each slab row's start
        keys = stream_keys(seed, GREEN_ENSEMBLE, at + shift.take(of))
        vis = visits[lo:hi]
        took = np.zeros(hi - lo, dtype=np.int64)  # the draws of each run
        rows = np.arange(hi - lo)  # slab rows still running
        state = state0.take(of)
        seen = np.zeros((len(cols), rows.size), dtype=np.int64)
        steps, b = 0, _FIRST_BLOCK
        while rows.size and steps < cap:
            b = min(b, cap - steps, max(1, _BLOCK_CELLS // rows.size))
            u = counter_bits(keys.take(rows), np.arange(steps, steps + b)[:, None])
            path = np.empty(u.shape, dtype=np.int64)
            for t in range(b):
                path[t] = state = walk.step(state, u[t])
                # after draws 1, 2, 4, ...: stop once every run has ended
                if t & (t + 1) == 0 and not walk.going(state).any():
                    path = path[: t + 1]
                    break
            for c, ti in enumerate(cols):
                seen[c] += np.add.reduce(path == tgt[ti], axis=0, dtype=np.int32)
            live = walk.going(state)
            if not live.all():
                keep, done = np.flatnonzero(live), np.flatnonzero(~live)
                end, ended = state.take(done), rows.take(done)
                # a run stands at its exit state, where no run goes on, from
                # the draw that ended it on
                stood = np.add.reduce(path == state, axis=0, dtype=np.int32).take(done)
                took[ended] = steps + len(path) + 1 - stood
                for c, ti in enumerate(cols):
                    vis[ended, ti] += seen[c].take(done)
                out = end != walk.origin  # escaped, not absorbed at the origin
                if out.any():
                    vis[ended[out]] += walk.tail(end[out])
                    tally[1] += np.bincount(of.take(ended[out]), minlength=len(start))
                rows, state, seen = rows.take(keep), state.take(keep), seen.take(keep, axis=1)
            steps += b
            b *= 2
        if rows.size:
            if on_cap == "error":
                raise RunawayRunError(cap, hi - rows.size)
            tally[2] += np.bincount(of.take(rows), minlength=len(start))
            took[rows] = cap
            for c, ti in enumerate(cols):
                vis[rows, ti] += seen[c]
        js = np.arange(of[0], of[-1] + 1)  # the slab's starts, and their first rows
        tally[0, js] += np.add.reduceat(took, np.maximum(js * runs - lo, 0))
    return [
        [
            _mc_result(totals[:, ti], runs, cut, walk.lane, esc, walk.note, drawn)
            for ti in range(len(tgt))
        ]
        for totals, (drawn, esc, cut) in zip(np.split(visits, len(start)), tally.T.tolist())
    ]


def _table_step(dest, low_cut, high_cut):
    """The step of a three-outcome jump table: a draw b takes state i to
    ``dest[3 i + k]``, k the number of its integer cuts ``low_cut[i]``,
    ``high_cut[i]`` that are <= b."""

    def step(state, b):
        pick = state * 3
        pick += b >= low_cut.take(state)
        pick += b >= high_cut.take(state)
        return dest.take(pick)

    return step


def _line_box(start, targets, escape_radius):
    """The edge r of the line lane's escape box: ``escape_radius``, or
    beyond the start and every target by 2 where they reach further."""
    return max(escape_radius, max(abs(int(t)) for t in [start, *targets]) + 2)


def _line_walk(chain, starts, targets, r):
    """Nearest-neighbour walk on the integers, absorbed at 0.

    Valid whenever the up-probability is constant away from the base,
    so both the symmetric and the half-line walks qualify; a run starting
    at the base takes the base row first (the half line's forced up-step).
    Both probabilities are read off the law: the up-mass of the row at 1
    and of the base row.

    In the escape box of edge r (``_line_box`` of every start) the state of
    a run is its position + r, and a draw carries it from mark to mark
    (``_line_jumps``): -r, 0, r and the targets, where a run can escape, be
    absorbed or add a visit, so visit counts and exit states keep their law
    exactly and the step cap counts draws. Runs leaving the box are
    completed analytically through the tail values (removing the
    heavy-tail truncation bias of null-recurrent returns); the half line,
    whose base row goes up with certainty, is absorbed at 0 before it
    reaches the minus side.
    """
    def up_mass(v):
        return Fraction(sum(p for t, p in chain.successors(v) if t == v + 1))

    p_up, p_base = up_mass(1), up_mass(0)
    # beyond every target (same side) the expected visits still to come no
    # longer depend on the position: the closed form at the exit point +-r,
    # where a run leaving the box lands exactly
    plus = np.asarray([float(chain.exact_green(r, t)) for t in targets])
    minus = np.zeros(len(targets))  # unreachable when p_base == 1
    if p_base != 1:
        minus = np.asarray([float(chain.exact_green(-r, t)) for t in targets])
    marks = tuple(sorted({-r, 0, r, *targets}))
    norm = np.abs(np.arange(-r, r + 1))
    going = np.append((norm > 0) & (norm < r), True)  # and the launch row 2r + 1
    return _Walk(
        "fast-line", [x + r for x in starts], r, 2 * r + 1, [t + r for t in targets],
        step=_table_step(*_line_jumps(p_up, p_base, r, marks)),
        going=going.take,
        tail=lambda end: np.where((end > r)[:, None], plus, minus),
        note=f"analytic tail beyond radius {r}",
    )


@functools.lru_cache(maxsize=64)
def _line_jumps(p_up, p_base, r, marks):
    """The line lane's jump table over the box positions -r .. r, and the
    base at its time 0.

    ``marks`` are -r, 0, r and the targets, in increasing order. A run at a
    position v strictly between neighbouring marks a < v < b moves, before
    it meets a mark, only through positions where nothing is counted,
    absorbed or escapes, so one draw takes it to b with the gambler's-ruin
    probability h_{a,b}(v) = P_v(reach b before a), else to a. A run at a
    target v goes to b with probability p_up h_{v,b}(v + 1), to a with
    probability (1 - p_up)(1 - h_{a,v}(v - 1)), and otherwise comes back
    to v first: one more visit there. Runs at 0 and +-r have ended and
    stay. A run started at the base takes its first draw from row 2r + 1,
    the base row p_base read as above: coming back to 0 first is
    absorption.

    Returns read-only (dest, up_cut, back_cut) over the positions shifted
    by r, then row 2r + 1: ``dest[3 i + k]`` is the row that outcome k =
    up, back, down takes row i to, and ``up_cut[i]``, ``back_cut[i]`` are
    the integer cuts (``rng._draw_cuts``) of P(up) and 1 - P(down), each
    the correctly rounded cumulative probability. A draw b takes the
    outcome k = the number of the row's two cuts <= b.
    """
    dest = np.repeat(np.arange(2 * r + 2), 3).reshape(-1, 3)
    cut = np.ones((2, 2 * r + 2))
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
        row = 2 * r + 1 if v == 0 else v + r
        dest[row] = b + r, v + r, a + r
        cut[:, row] = float(up), float(1 - down)
    dest, cut = dest.ravel(), _draw_cuts(cut)
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


def _plane_box(start, escape_radius):
    """The edge r of the plane lane's escape box: ``escape_radius``, or one
    beyond the start where it reaches further."""
    return max(escape_radius, abs(start[0]) + 1, abs(start[1]) + 1)


def _plane_walk(starts, targets, r):
    """Planar walk absorbed at the origin, on squares, with analytic tails.

    The state of a run at (x, y) in the escape box of edge r (``_plane_box``
    of every start) is the flat cell (x + r)(2r + 1) + y + r. When the
    square [v - m, v + m]^2 around a run at v holds neither the origin nor
    a target and lies inside the box (|v|_inf + m <= r - 1), the run
    cannot visit a target, be absorbed or escape before it leaves the
    square, so one draw picks its exit point from the exit law of the
    square's centre (``_square_exit_law``), the same law for every v. m is
    the largest power of two that fits; where none fits (next to the origin
    or a target, or on a target) m = 0 and the draw is one step. Visit
    counts and exit states keep their law exactly, and the step cap counts
    draws. A run at the origin or on the box's edge has ended and stays:
    its cell takes a level of one key and jump 0. A run started at the
    origin takes its first step from the state (2r + 1)^2, past the cells,
    whose level is the single step shifted back to the origin.

    A run leaving the box is finished in expectation: the remaining visits
    to y before hitting the origin from the exit state v equal
    a(v) + a(y) - a(v - y) by the potential-kernel balance (both sides kill
    the same one-step defect; see the potential module). This removes the
    logarithmic-tail truncation bias. Targets may lie outside the box:
    direct visits then never occur and the whole estimate rides on the
    analytic closure.
    """
    from .potential import potential_float_array

    side = 2 * r + 1
    origin, launch = r * side + r, side * side
    # over the box's cells: the level of the largest square that fits
    # around each (as its offset among the table's keys), and the cells
    # where a run goes on
    gx, gy = np.indices((side, side)).reshape(2, -1) - r
    norm = np.maximum(np.abs(gx), np.abs(gy))
    room = np.minimum(norm - 1, r - 1 - norm)
    for tx, ty in targets:
        room = np.minimum(room, np.maximum(np.abs(gx - tx), np.abs(gy - ty)) - 1)
    level = np.frexp(np.maximum(room, 0))[1].astype(np.int64)
    inside = (norm > 0) & (norm < r)
    top = int(level.max())
    stay, first = top + 1, top + 2  # the levels of ended runs and of the launch
    level[~inside] = stay
    offset = np.append(level, first) << _DRAW_BITS
    levels = [_exit_level(k) for k in range(top + 1)]
    keys0, jx0, jy0 = levels[0]
    none = np.zeros(1, dtype=np.int64)
    levels.append((none + (first << _DRAW_BITS), none, none))
    levels.append((keys0 + (first << _DRAW_BITS), jx0, jy0))
    keys, jx, jy = (np.concatenate(parts) for parts in zip(*levels))
    jump = jx * side + jy
    jump[-len(keys0) :] += origin - launch

    def step(cell, b):
        key = offset.take(cell)
        key += b
        return cell + jump.take(np.searchsorted(keys, key, side="right"))

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

    def cell(x, y):  # a target beyond the box: no state, never met
        return (x + r) * side + y + r if max(abs(x), abs(y)) <= r else -1

    return _Walk(
        "fast-plane", [cell(*x) for x in starts], origin, launch,
        [cell(*t) for t in targets],
        step=step, going=np.append(inside, True).take, tail=tail,
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
    half-side m = 2^(k-1). Returns read-only (keys, dx, dy): the integer
    cuts (``rng._draw_cuts``) of the exit law's CDF, each entry the
    correctly rounded cumulative probability, plus k 2^52; the last entry
    is (k + 1) 2^52. Over the levels' keys in turn, a sorted search for
    k 2^52 + b with a draw b < 2^52 lands in level k and counts the cuts
    <= b of its CDF, which picks exit point j with probability
    cdf[j] - cdf[j - 1].
    """
    dx, dy, p = _square_exit_law((1 << k) // 2)
    cdf = np.array([float(c) for c in itertools.accumulate(map(Fraction, p.tolist()))])
    keys = _draw_cuts(cdf)
    keys[-1] = 1 << _DRAW_BITS
    keys += k << _DRAW_BITS
    for a in (keys, dx, dy):
        a.flags.writeable = False
    return keys, dx, dy


def _a_lookup(afloat, vx, vy):
    i = np.abs(vx)
    j = np.abs(vy)
    return afloat[np.maximum(i, j), np.minimum(i, j)]


def _tree_walk(tree, starts, spine, targets):
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
    without any visit. A run started at the root takes its first step from
    state p + 2.
    """
    p_len = len(spine)

    def state(x):
        j = tree.meet_depth(x, spine)
        return p_len + 1 if j == 0 and len(x) > 0 else j

    return _Walk(
        "fast-tree", [state(x) for x in starts], 0, p_len + 2, [len(t) for t in targets],
        step=_table_step(*_tree_jumps(tree.k, p_len)),
        going=lambda state: state != 0,
    )


@functools.lru_cache(maxsize=64)
def _tree_jumps(k, p):
    """The tree lane's table over the embedded chain's states 0 .. p + 2.

    Rows (k = branching factor, p = spine length), outcomes in order:
      j = 0      : the root, where a run has ended: it stays;
      0 < j <= p : j - 1 w.p. 1/2, j + 1 w.p. 1/(2k) if j < p, else j
                   (an excursion, or at j = p any child);
      j = p + 1  : an off-spine start that meets the spine at the root,
                   which its excursion reaches with certainty;
      j = p + 2  : the root at time 0 (a start at the root): depth 1 w.p.
                   1/k if p >= 1, else the root (absorbed).
    Returns read-only (dest, low_cut, high_cut) as ``_table_step`` reads
    them, each cut the integer cut of the correctly rounded cumulative
    probability.
    """
    half, child = Fraction(1, 2), Fraction(1, 2 * k)
    stay = ((0, 0, 0), (1, 1))
    rows = [stay]
    rows += [((j - 1, j + 1, j), (half, half + child)) for j in range(1, p)]
    rows += [((p - 1, p, p), (half, 1))] if p else []
    rows.append(stay)
    rows.append(((1, 0, 0), (Fraction(1, k), 1)) if p else stay)
    dest = np.asarray([d for d, _ in rows], dtype=np.int64).ravel()
    low_cut, high_cut = _draw_cuts([[float(c) for c in cuts] for _, cuts in rows]).T.copy()
    for a in (dest, low_cut, high_cut):
        a.flags.writeable = False
    return dest, low_cut, high_cut


class _TableRows:
    """The rows of a ``SuccessorTable`` as padded arrays, filled on first visit.

    Row c + 1 holds the successors of code c, as rows (code + 1), and the
    integer cuts (``rng._draw_cuts``) of their CDF, each entry the
    correctly rounded cumulative num / den, so a row does not depend on the
    batch that filled it. Entries from the row's last real one on read
    2^52, which no draw reaches, so a step that counts the cuts <= b never
    passes the row's end. Row 1, code 0, is the base, where a run has ended:
    it stays. Row 0 holds the base's own row, which a run started at the
    base takes at time 0. A row is filled when a run first stands at it,
    not when the table first names its code: filling every named code
    would chase children without end on an infinite graph.
    """

    def __init__(self, table):
        self.table = table
        self.filled = np.zeros(64, dtype=bool)
        self.succ = np.zeros((64, 1), dtype=np.int64)
        self.cut = np.full((64, 1), 1 << _DRAW_BITS)
        self.filled[1], self.succ[1] = True, 1

    def fill(self, rows):
        """Cache ``rows``, distinct rows not cached yet."""
        succ, num, den = self.table.step(np.maximum(rows - 1, 0))
        n, cap, width = len(self.table.states) + 1, len(self.filled), succ.shape[1]
        extra = max(n, 2 * cap) - cap if n > cap else 0
        wider = max(0, width - self.succ.shape[1])
        if extra or wider:
            self.filled = np.pad(self.filled, (0, extra))
            self.succ = np.pad(self.succ, ((0, extra), (0, wider)))
            self.cut = np.pad(self.cut, ((0, extra), (0, wider)), constant_values=1 << _DRAW_BITS)
        cut = _draw_cuts(exact_floats(np.cumsum(num, axis=1), den))
        last = (succ != UNNAMED).sum(axis=1) - 1
        cut[np.arange(width) >= last[:, None]] = 1 << _DRAW_BITS
        self.succ[rows, :width] = succ + 1
        self.cut[rows, :width] = cut
        self.filled[rows] = True


def _table_walk(chain, x0, starts, targets):
    """Any chain's walk over the rows of a ``SuccessorTable``'s codes,
    absorbed at x0 (``_TableRows``).

    x0 takes code 0, row 1, the origin of the ensemble driver; the codes
    name every state. A step counts, one cut column at a time, the integer
    cuts <= b in each run's row, and gathers the successor that count picks.
    """
    table = SuccessorTable(chain)
    rows = _TableRows(table)
    at = (table.encode([x0, *starts, *targets]) + 1).tolist()

    def step(cur, b):
        new = np.sort(cur[~rows.filled[cur]])
        if new.size:  # distinct rows; the plain np.unique loads numpy.ma
            rows.fill(new[np.diff(new, prepend=-1) > 0])
        pick = cur * rows.succ.shape[1]
        for cut in rows.cut.T:  # a column at a time: a sum along rows is slow
            pick += cut.take(cur) <= b
        return rows.succ.take(pick)

    return _Walk(
        "generic", at[1 : len(starts) + 1], 1, 0, at[len(starts) + 1 :], step,
        going=lambda cur: cur != 1,
    )
