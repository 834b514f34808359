"""Conditioning a recurrent chain to drift toward one boundary point.

A recurrent chain returns to its base state forever, so its trajectories
cannot converge to a boundary point. Damping every departure from the base
by a factor r in (0,1) and tilting each step by the boundary visit-ratio
kernel produces a genuine transient probability chain whose trajectories do
converge to the chosen point. The tilt is

    psi(x) = (1/beta(x0)) * (r/(1-r) + L_{x0}(x, alpha) * 1_{x != x0}),

with beta the stationary measure and L the boundary kernel, and the
transformed rows are q_{x,y} = (psi(y)/psi(x)) p_{x,y}, additionally scaled
by r on the row at the base. Rows sum to exactly 1: off the base this is
harmonicity of the kernel, at the base it is the balance
E_{x0}[L(X_1, alpha)] = 1.

The module provides the weight and the transformed chain in exact rational
arithmetic, a pathwise check of the change-of-measure identity, the ratio
kernel of the transformed chain both in closed form and through the
damped-visit linear system, the correspondence between harmonic profiles of
the killed parent and harmonic functions of the transform, and vectorized
ensemble witnesses of boundary convergence and transience. A witness lane
is a transition table over one integer state per run, so a draw of all runs
is one table lookup; each entry is the integer cut of a float, which the
52-bit integer draws pass exactly when their uniforms pass that float. On
the line and the half line the conditioned walk is a Doob transform of a
birth-death walk, so its K-step law is one integer sum over psi's
numerators (``_span_tails``): its one-step table (K = 1) and a second
table over the same rows, along which a draw moves a run K steps
(``_SPAN``, ``_TRACKED_SPAN``), take each cut from a correctly rounded
int/int division. The tree table takes each ratio of psi's integer
numerators the same way, and off the target ray, where psi is constant
and the overhang is a symmetric +-1 walk, one draw takes a whole sojourn
by the exact law of its length (``_excursion_cuts``), so each tree run
keeps its own clock; only the plane keeps the float expressions a per-run
evaluation of its transformed row computes.

The row-sum identity (``verify_row_sums``) is compared in integers: with
phi = r/(1-r) + L off the base and r/(1-r) at it, psi = phi / beta(x0),
and beta(x0) is one positive factor on both sides, so phi's values are
taken over one denominator, as a kernel sum (``martin.kernel_sum_array``)
where the kernel has an array form, and the rows are compared in one
array comparison.

The planar walk is special: its single boundary point has kernel equal to
the potential kernel a(x), which is not rational, so no exact-Fraction
transformed chain exists. Its row-sum identity is still verified exactly in
p + q/pi numerators (``verify_row_sums``) and its convergence witness
runs in floating point.
Every one-step identity here is one ``window.one_step_sums`` pass (one
``one_step_sums_each`` step for both parts of the plane's numerators).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .chains import ChainSpec, StateId, _merged_row, enumerate_paths, law_class, owns_kernel
from .errors import PreconditionViolationError, RowSumViolationError
from .examplechains import (
    ROOT,
    BangBangWalk,
    HalfLineEnd,
    KaryTree,
    LineEnd,
    TreeRay,
    Z2Walk,
    ZWalk,
    exact_martin_boundary,
    plane_coordinates,
)
from .green import Truncation, default_radius, green_solve_discounted, martin_kernel
from .martin import check_harmonic_except, kernel_sum_array
from .rng import (
    _DRAW_BITS,
    CONVERGENCE_WITNESS,
    TRANSIENCE_WITNESS,
    _draw_cuts,
    counter_bits,
    stream_keys,
)
from .window import (
    exact_floats,
    one_step_averages,
    one_step_sums_each,
    rational_sum,
    state_mask,
)

_BOUNDARY_TYPES = (LineEnd, HalfLineEnd, TreeRay)

#: Simulation ratio tables are exact below this index and constant above it
#: (the ratios converge geometrically, far past float resolution by then).
_TABLE_CUTOFF = 64

#: Steps per draw of the line and half-line witnesses, whose conditioned
#: walks are Doob transforms of birth-death walks with exact, small
#: multi-step laws: 4 on the convergence runs, 2 where base visits are
#: tracked (both walks are bipartite, so a visit falls on an even time).
_SPAN = 4
_TRACKED_SPAN = 2

#: Guard bits below the 52 of the tree's excursion cuts (``_excursion_cuts``).
_GUARD_BITS = 64


# ---------------------------------------------------------------------------
# Parameters and weight


@dataclass(frozen=True)
class TransformParams:
    """Conditioning data: base state, target boundary point, damping.

    ``r`` scales every departure from the base state, so smaller values
    make the conditioned chain abandon the base region sooner. ``alpha``
    is one of the parent chain's boundary points; the planar walk's single
    boundary point is anonymous, encoded as ``None``.
    """

    x0: StateId
    alpha: object
    r: Fraction = Fraction(1, 2)
    #: r/(1-r), the weight of the damping term inside psi; computed once,
    #: from ``r``, when the parameters are made.
    odds: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = Fraction(self.r)
        object.__setattr__(self, "r", r)
        if not (0 < r < 1):
            raise ValueError("damping must satisfy 0 < r < 1")
        object.__setattr__(self, "odds", r / (1 - r))


def psi_weight(chain: ChainSpec, params: TransformParams, x: StateId) -> Fraction:
    """Tilting weight psi(x); positive, and r/((1-r) beta(x0)) at the base.

    Off the base psi(x) = (r/(1-r) + L(x, alpha)) / beta(x0), built as one
    Fraction from integers when L(x, alpha) and beta(x0) are rational.
    """
    odds, beta0 = params.odds, chain.stationary(params.x0)
    if x == params.x0:
        return odds / beta0
    ell = exact_martin_boundary(chain, params.x0, x, params.alpha)
    if not isinstance(ell, (int, Fraction)) or not isinstance(beta0, (int, Fraction)):
        return (odds + ell) / beta0
    d = ell.denominator
    return Fraction(
        (odds.numerator * d + ell.numerator * odds.denominator) * beta0.denominator,
        odds.denominator * d * beta0.numerator,
    )


# ---------------------------------------------------------------------------
# The transformed chain


class TransformedChain(ChainSpec):
    """A recurrent chain tilted toward a boundary point, made transient.

    Rows are q_{x,y} = (psi(y)/psi(x)) p_{x,y}, with the whole row at the
    base state scaled by r. The tilt never creates or removes transitions,
    so structural hooks (ordering, formatting, parsing, windows, norm and
    radii, path texts, separation) delegate to the parent, and solvers,
    enumeration, and simulation accept the transformed chain unchanged.
    Every produced row is validated to sum to exactly 1; a violation would
    mean the boundary kernel is not harmonic off the base or its one-step
    balance at the base is not 1.
    """

    #: Outside excursions of the conditioned chain need not re-enter where
    #: they left (they may escape for good), so frontier loops are not exact.
    loop_truncation_exact = False

    def __init__(self, parent: ChainSpec, params: TransformParams):
        self.parent = parent
        self.params = params
        self.name = f"{parent.name}-to-{params.alpha}:r={params.r}"
        self.radius_margin = parent.radius_margin
        self.check_radius = parent.check_radius
        self.path_separator = parent.path_separator
        self.window_size = parent.window_size
        self._psi: dict = {}

    def weight(self, x: StateId) -> Fraction:
        """Cached psi(x) of the parent chain."""
        w = self._psi.get(x)
        if w is None:
            w = psi_weight(self.parent, self.params, x)
            self._psi[x] = w
        return w

    @property
    def base_point(self) -> StateId:
        return self.params.x0

    def _row_scale(self, x: StateId) -> Fraction:
        return self.params.r if x == self.params.x0 else Fraction(1)

    def successors(self, x: StateId):
        scale = self._row_scale(x) / self.weight(x)
        moves = [
            (y, scale * p * self.weight(y)) for y, p in self.parent.successors(x)
        ]
        total = sum((p for _, p in moves), Fraction(0))
        if total != 1:
            raise RowSumViolationError(
                f"transformed row at {self.parent.format_state(x)} sums to {total}"
            )
        return moves

    def predecessors(self, y: StateId):
        preds = self.parent.predecessors(y)
        if preds is None:
            return None
        wy = self.weight(y)
        return [
            (x, self._row_scale(x) * p * wy / self.weight(x)) for x, p in preds
        ]

    def norm(self, x: StateId) -> int:
        return self.parent.norm(x)

    def state_key(self, x: StateId):
        return self.parent.state_key(x)

    def format_state(self, x: StateId) -> str:
        return self.parent.format_state(x)

    def parse_state(self, text: str) -> StateId:
        return self.parent.parse_state(text)

    def window(self, radius: int):
        return self.parent.window(radius)

    def separating(self, y, x, x0) -> bool:
        return self.parent.separating(y, x, x0)


def transformed_chain(chain: ChainSpec, params: TransformParams) -> TransformedChain:
    """Build the conditioned chain with exact rational rows."""
    if law_class(chain) is Z2Walk:
        raise NotImplementedError(
            "the planar walk's tilting weight r/(1-r) + a(x) is not rational, "
            "so its conditioned rows cannot be exact fractions; use "
            "verify_row_sums for the exact row identity and convergence_stats "
            "for the floating-point witness"
        )
    return TransformedChain(chain, params)


# ---------------------------------------------------------------------------
# Row-sum identity


@dataclass
class RowSumReport:
    """Outcome of the exact row-sum identity over a window."""

    chain: str
    r: Fraction
    radius: int
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return not self.violations


def verify_row_sums(
    chain: ChainSpec, params: TransformParams, radius: int
) -> RowSumReport:
    """Check r^{1_{x=x0}} * sum_y p_{x,y} psi(y) == psi(x) on a window.

    The averages are one step of the parent's code table
    (``window.one_step_sums``), never ``TransformedChain`` rows, so this
    cross-checks their validation. psi = phi / beta(x0) with
    phi = r/(1-r) + L(., alpha) off the base and r/(1-r) at it; beta(x0)
    is one positive factor on both sides, so the identity is checked on
    phi, in integers over one denominator: r.numerator^{1_{x=x0}} times the
    integer row sum of phi against r.denominator^{1_{x=x0}} times the
    table's denominator times phi's numerator at x. L is read through
    ``exact_martin_boundary`` once per distinct state, so a subclass's own
    kernel is the one checked. On the plane, where psi = r/(1-r) + a(x)
    with a the potential kernel, the same integer identity is checked on
    each of the integer parts of psi's p + q/pi numerators, both summed over
    one step (``window.one_step_sums_each``).

    Each part carries its array form as its ``array_values`` attribute: phi
    is a kernel sum with the constant r/(1-r) (``martin.kernel_sum_array``),
    and the plane's parts read the potential table's numerator arrays. Where
    the form gives the values for the whole window, every row off the base
    is compared in one array comparison
    (``OneStepSums.unbalanced``). The window is the radius's code array
    (``chain.code_window``), the base is found among its codes
    (``window.state_mask``), and a state is decoded and a ``Fraction``
    built only for a violation reported.
    """
    r = params.r
    if law_class(chain) is Z2Walk:
        from .potential import potential_table

        # psi(x) = odds + a(x) = (R(x) + S(x)/pi) / (odds.denominator * L), with
        # R = odds.numerator * L + odds.denominator * P and S = odds.denominator * Q
        # from the potential table's numerators P and Q over L
        table = potential_table(radius + 1)
        top, bottom = params.odds.numerator * table.scale, params.odds.denominator

        def part(k, shift):
            def fn(s):
                return shift + bottom * table.numerators(s)[k]

            def array_values(code_table, codes):
                xy = plane_coordinates(code_table, codes)
                if xy is None:
                    return None
                return rational_sum(
                    [(shift, 1, 1), (bottom, table.numerator_arrays(*xy)[k], 1)], len(codes)
                )

            fn.array_values = array_values
            return fn

        parts = [part(0, top), part(1, 0)]
        base = chain.base_point
    else:
        odds, base, alpha = params.odds, params.x0, params.alpha
        beta0 = chain.stationary(base)

        def phi(s):
            return odds if s == base else odds + exact_martin_boundary(chain, base, s, alpha)

        phi.array_values = kernel_sum_array(chain, base, [(alpha, 1)], constant=odds)
        parts = [phi]
    steps = one_step_sums_each(chain, radius, parts)
    table, codes = steps[0].table, steps[0].codes
    report = RowSumReport(chain.name, r, radius, checked=len(codes))
    bad = np.logical_or.reduce([s.unbalanced() for s in steps])
    at_base = state_mask(table, codes, base)
    # the base row is scaled by r: r.numerator * sum against r.denominator * value
    for i in np.flatnonzero(at_base).tolist():
        rows = [s.row(i) for s in steps]
        bad[i] = any(r.numerator * u != r.denominator * s.den * v for s, (u, v) in zip(steps, rows))
    failed = np.flatnonzero(bad)
    for x, i in zip(table.decode(codes[failed]), failed.tolist()):
        if len(steps) == 1:
            (s,) = steps
            scale = r if at_base[i] else Fraction(1)
            detail = f"{scale * s.average(i) / beta0} != {s.value(i) / beta0}"
        else:
            detail = "row identity failed"
        report.violations.append((chain.format_state(x), detail))
    return report


# ---------------------------------------------------------------------------
# Change-of-measure identity, checked pathwise


@dataclass
class RnIdentityReport:
    """Pathwise comparison of the two ways to weight a finite path.

    For every positive-probability length-n path w from x, the product of
    transformed rows must equal the parent path probability times
    (psi(w_n)/psi(x)) r^{#visits of w_0..w_{n-1} to the base}, exactly.
    """

    chain: str
    start: str
    n: int
    r: Fraction
    paths_checked: int = 0
    mismatches: int = 0
    max_discrepancy: Fraction = Fraction(0)

    @property
    def exact(self) -> bool:
        return self.paths_checked > 0 and self.mismatches == 0


def rn_identity_check(
    chain: ChainSpec,
    params: TransformParams,
    x: StateId,
    n: int,
    budget: int = 200_000,
) -> RnIdentityReport:
    """Compare transformed path probabilities against reweighted parent ones.

    The left side multiplies row entries of the constructed transformed
    chain step by step; the right side reweights the parent probability
    directly and never touches the constructed rows.
    """
    transformed = transformed_chain(chain, params)
    report = RnIdentityReport(chain.name, chain.format_state(x), n, params.r)
    px = transformed.weight(x)
    # left side: transformed rows (``_merged_row``) and the product of each
    # depth's prefix as an unreduced pair, recomputed from the first state
    # where a path leaves the previous one
    rows: dict = {}
    nums, dens = [1] * (n + 1), [1] * (n + 1)
    prev: tuple = ()
    # right side: psi(w_n)/psi(x) per end state and r^visits per count
    ratios: dict = {}
    damping: dict = {}
    for pw in enumerate_paths(chain, x, n, budget=budget):
        states = pw.states
        d = 1
        while d < len(prev) and states[d] == prev[d]:
            d += 1
        for i in range(d, n + 1):
            a = states[i - 1]
            row = rows.get(a)
            if row is None:
                row = rows[a] = _merged_row(transformed, a)
            p, q = row.get(states[i], (0, 1))
            nums[i], dens[i] = nums[i - 1] * p, dens[i - 1] * q
        prev = states
        end = states[-1]
        ratio = ratios.get(end)
        if ratio is None:
            ratio = ratios[end] = transformed.weight(end) / px
        visits = states[:-1].count(params.x0)
        rv = damping.get(visits)
        if rv is None:
            rv = damping[visits] = params.r**visits
        prob = pw.probability
        rhs_num = prob.numerator * ratio.numerator * rv.numerator
        rhs_den = prob.denominator * ratio.denominator * rv.denominator
        report.paths_checked += 1
        if nums[n] * rhs_den != rhs_num * dens[n]:
            report.mismatches += 1
            gap = abs(Fraction(nums[n], dens[n]) - Fraction(rhs_num, rhs_den))
            if gap > report.max_discrepancy:
                report.max_discrepancy = gap
    return report


# ---------------------------------------------------------------------------
# Ratio kernel of the transformed chain


def k_kernel(
    chain: ChainSpec,
    params: TransformParams,
    x: StateId,
    target,
    radius: Optional[int] = None,
) -> Fraction:
    """Ratio kernel of the transformed chain, in closed form.

    K(x, y) = (psi(x0)/psi(x)) (1 + ((1-r)/r) L_{x0}(x, y) 1_{x != x0});
    a boundary target uses the kernel's closed-form extension. At the
    conditioning point itself the value is identically 1 — the constant
    function is the transform's minimal harmonic function.
    """
    x0 = params.x0
    if x == x0:
        return Fraction(1)
    ratio = psi_weight(chain, params, x0) / psi_weight(chain, params, x)
    if isinstance(target, _BOUNDARY_TYPES):
        ell = exact_martin_boundary(chain, x0, x, target)
    elif target == x0:
        # the killed chain never reaches the base from elsewhere
        ell = Fraction(0)
    else:
        if radius is None:
            radius = default_radius(chain, [x0, x, target])
        ell = martin_kernel(chain, x0, x, target, radius=radius).value
    return ratio * (1 + ell / params.odds)


def transformed_green(
    chain: ChainSpec,
    params: TransformParams,
    x: StateId,
    y: StateId,
    radius: Optional[int] = None,
    exact: bool = True,
):
    """Green function of the transformed chain, sum over all path lengths.

    Evaluated through the parent chain: a length-n path from x to y carries
    transformed probability (psi(y)/psi(x)) r^{base visits before n} times
    its parent probability, so the transient Green function equals
    (psi(y)/psi(x)) W_r(x, y) with W_r the damped-visit kernel of
    ``green_solve_discounted``. Exact on chains with loop-exact windows.
    It stays public as the conditioned chain's own Green function.
    """
    if radius is None:
        radius = default_radius(chain, [params.x0, x, y])
    w = green_solve_discounted(
        chain, params.x0, params.r, [(x, y)], Truncation(radius), exact=exact
    )[0]
    scale = psi_weight(chain, params, y) / psi_weight(chain, params, x)
    return w * scale if exact else w * float(scale)


def k_kernel_numeric(
    chain: ChainSpec,
    params: TransformParams,
    x: StateId,
    y: StateId,
    radius: Optional[int] = None,
    exact: bool = True,
):
    """Ratio of transformed Green values, via the damped-visit linear system.

    Computes G(x,y)/G(x0,y) of the transformed chain without the ratio
    kernel's closed form: only the tilting weight and the linear solve of
    the damped-visit system enter, giving an independent route to compare
    ``k_kernel`` against. It stays public as that route: the tests check
    ``k_kernel`` against it.
    """
    if radius is None:
        radius = default_radius(chain, [params.x0, x, y])
    wx, w0 = green_solve_discounted(
        chain,
        params.x0,
        params.r,
        [(x, y), (params.x0, y)],
        Truncation(radius),
        exact=exact,
    )
    ratio = psi_weight(chain, params, params.x0) / psi_weight(chain, params, x)
    return ratio * wx / w0 if exact else float(ratio) * wx / w0


# ---------------------------------------------------------------------------
# Correspondence between parent profiles and transformed harmonic functions


def r_map(
    chain: ChainSpec,
    params: TransformParams,
    phi,
    radius: Optional[int] = None,
) -> Callable:
    """Carry a harmonic profile of the killed parent to a function that is
    harmonic for the transformed chain at every state:

        (phi(x) + (r/(1-r)) E_{x0}[phi(X_1)]) / psi(x).

    ``phi`` must vanish at the base and be harmonic off it; both are
    validated on ``window(radius)`` (``martin.check_harmonic_except``, which
    also gives the balance at the base) and failures raise
    ``PreconditionViolationError`` listing the offending states.
    """
    radius = chain.check_radius if radius is None else radius
    transformed = transformed_chain(chain, params)
    x0 = params.x0
    window = chain.window(radius)
    report = check_harmonic_except(chain, phi, x0, window if x0 in window else [*window, x0])
    violations = []
    base_value = phi(x0)
    if base_value != 0:
        violations.append(
            (chain.format_state(x0), f"value {base_value} at the base, expected 0")
        )
    violations += [
        (chain.format_state(x), f"one-step average {residual + phi(x)} != {phi(x)}")
        for x, residual in report.violations
    ]
    if violations:
        raise PreconditionViolationError("profile precondition failed", violations)
    shift = params.odds * report.balance_at_base

    def mapped(x):
        return (phi(x) + shift) / transformed.weight(x)

    return mapped


def r_map_inverse(
    chain: ChainSpec,
    params: TransformParams,
    h,
    radius: Optional[int] = None,
) -> Callable:
    """Inverse correspondence, from transformed-harmonic functions back to
    profiles of the killed parent:

        psi(x) h(x) - r E_{x0}[psi(X_1) h(X_1)].

    ``h`` must be harmonic for the transformed chain at every window state
    and at the base (``window.one_step_averages``); failures raise
    ``PreconditionViolationError``. The output vanishes at the base and is
    harmonic off it.
    """
    radius = chain.check_radius if radius is None else radius
    transformed = transformed_chain(chain, params)
    window = chain.window(radius)
    states = window if params.x0 in window else [*window, params.x0]
    violations = [
        (chain.format_state(x), f"one-step average {avg} != {value}")
        for x, avg, value in zip(states, *one_step_averages(transformed, states, h))
        if avg != value
    ]
    if violations:
        raise PreconditionViolationError(
            "transformed-harmonicity precondition failed", violations
        )
    # the base row is r p psi(y) / psi(x0), and h averages to h(x0) over it
    drop = transformed.weight(params.x0) * h(params.x0)

    def mapped(x):
        return transformed.weight(x) * h(x) - drop

    return mapped


# ---------------------------------------------------------------------------
# Ensemble witnesses


@dataclass
class ConvergenceReport:
    """Ensemble statistics of a boundary-convergence witness.

    ``snapshots`` maps a time to the quartiles of the witness statistic and
    the fraction of trajectories whose statistic exceeds the threshold at
    that time.
    """

    chain: str
    alpha: str
    r: Fraction
    trajectories: int
    steps: int
    seed: int
    witness: str
    threshold: float
    fraction_above: float
    final_median: float
    snapshots: dict


@dataclass
class TransienceReport:
    """Base-return statistics of the transformed chain (soft evidence of
    transience: returns stop early relative to the horizon)."""

    chain: str
    alpha: str
    r: Fraction
    trajectories: int
    steps: int
    seed: int
    mean_returns: float
    max_returns: int
    max_last_return: int
    fraction_settled_by_half: float


def convergence_stats(
    chain: ChainSpec,
    params: TransformParams,
    trajectories: int,
    steps: int,
    seed: int,
    threshold: Optional[float] = None,
    snapshots: Sequence[int] = (100, 1000, 10000),
) -> ConvergenceReport:
    """Ensemble witness that transformed trajectories approach the target.

    The witness statistic is chain-specific: signed position toward the
    chosen end on the line, position on the half line, agreement length
    with the target ray on the tree, Euclidean norm on the plane. All
    trajectories start at the base state. Snapshots record quartiles and
    threshold exceedance at intermediate times; trajectory i takes its draw
    n from the counter-based stream (seed, i, n), so results are
    reproducible for a seed and do not depend on the trajectory count. On
    the line and the half line a draw moves a run ``_SPAN`` steps by the
    exact multi-step law, and one step where a snapshot is nearer; on the
    tree a draw takes a whole sojourn off the ray, and a snapshot reads the
    agreement of the draw that reaches or passes it.
    """
    table, witness, default = _witness_lane(chain, params, trajectories, steps)
    marks = sorted({int(s) for s in snapshots if 0 < int(s) < steps} | {steps})
    stats = _run_lane(table, trajectories, steps, seed, marks, None)
    thr = float(default if threshold is None else threshold)
    snaps = {}
    for m in marks:
        arr = stats[m]
        q25, q50, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
        snaps[m] = {
            "q25": float(q25),
            "median": float(q50),
            "q75": float(q75),
            "fraction_above": float(np.mean(arr > thr)),
        }
    final = stats[steps]
    return ConvergenceReport(
        chain=chain.name,
        alpha=_alpha_label(params),
        r=params.r,
        trajectories=trajectories,
        steps=steps,
        seed=seed,
        witness=witness,
        threshold=thr,
        fraction_above=float(np.mean(final > thr)),
        final_median=float(np.median(final)),
        snapshots=snaps,
    )


def transience_witness(
    chain: ChainSpec,
    params: TransformParams,
    trajectories: int = 10**4,
    steps: int = 10**4,
    seed: int = 0,
) -> TransienceReport:
    """Track returns to the base state under the transformed chain.

    Reports the sample mean and maximum of the return counts, the latest
    return time seen, and the fraction of trajectories whose last base
    visit happened in the first half of the horizon. Soft evidence only:
    a recurrent chain would keep returning all the way to the horizon. On
    the line and the half line a draw moves a run ``_TRACKED_SPAN`` = 2
    steps, so a run is seen at every even time, the only times these
    bipartite walks started at the base can stand there. On the tree a
    draw takes a whole sojourn off the ray, from which a run comes back
    to the ray node it left: a return to the root counts at the time the
    sojourn ends, if that is within the horizon.
    """
    table, _, _ = _witness_lane(chain, params, trajectories, steps)
    track: dict = {}
    _run_lane(table, trajectories, steps, seed, [steps], track)
    counts, last = track["counts"], track["last"]
    return TransienceReport(
        chain=chain.name,
        alpha=_alpha_label(params),
        r=params.r,
        trajectories=trajectories,
        steps=steps,
        seed=seed,
        mean_returns=float(counts.mean()),
        max_returns=int(counts.max()),
        max_last_return=int(last.max()),
        fraction_settled_by_half=float(np.mean(last <= steps // 2)),
    )


def _alpha_label(params: TransformParams) -> str:
    return "point" if params.alpha is None else str(params.alpha)


def _witness_lane(chain: ChainSpec, params: TransformParams, trajectories: int, steps: int):
    """The witness table of the chain's law, its statistic and its default
    threshold.

    A lane simulates the conditioned walk of one built-in law and its own
    kernel, so it is looked up by ``law_class``: a chain with any other law,
    a subclass that overrides ``successors`` included, has no witness lane,
    and a chain whose kernel is not its law's (``chains.owns_kernel``) is
    refused, since its conditioned walk tilts by another kernel.
    """
    if trajectories < 1 or steps < 1:
        raise ValueError("trajectories and steps must be positive")
    law = law_class(chain)
    spec = _WITNESS_LANES.get(law)
    if spec is None:
        raise NotImplementedError(f"no witness lane for chain {chain.name!r}")
    build, witness, kind, threshold, base, target, base_message, target_message = spec
    if not owns_kernel(chain, law):
        raise NotImplementedError(
            f"the {kind} witness lane simulates {law.__name__}'s own "
            f"boundary kernel, but chain {chain.name!r} overrides it "
            f"({chain.exact_boundary_kernel.__qualname__})"
        )
    if params.x0 != base:
        raise ValueError(base_message)
    if not isinstance(params.alpha, target):
        raise ValueError(target_message)
    return build(chain, params, steps), witness, threshold


def _witness_draws(seed, n, draws, track, live=None):
    """Each draw's row for trajectories 0 .. n-1, in draw order.

    Draw d of trajectory i is the 52-bit integer counter_bits(key_i,
    d - 1), however many steps it moves the run. The draws are made for
    up to 64 draws per call, within 2^15 numbers so that the block stays
    in cache, one contiguous row per draw, into one chunk x n buffer that
    every call refills: a row is valid until the generator is resumed after
    its chunk's last row. ``live``, if given, is called before each chunk
    and returns the trajectories, in order, whose draws the chunk's rows
    hold; the rows end when it returns none.
    """
    purpose = CONVERGENCE_WITNESS if track is None else TRANSIENCE_WITNESS
    keys = stream_keys(seed, purpose, np.arange(n))
    chunk = max(1, min(64, (1 << 15) // n, draws))
    block, scratch = np.empty(chunk * n, dtype=np.int64), np.empty(chunk * n, dtype=np.int64)
    for lo in range(0, draws, chunk):
        m = min(chunk, draws - lo)
        runs = keys if live is None else keys.take(live())
        if not runs.size:
            return
        rows = block[: m * runs.size].reshape(m, runs.size)
        yield from counter_bits(runs, np.arange(lo, lo + m)[:, None], rows,
                                scratch[: rows.size].reshape(rows.shape))


def _draw_plan(steps, marks, span):
    """The steps each draw moves the runs, as (steps per draw, draws) pairs
    in draw order.

    From each time to the next mark (``steps`` the last), a draw moves
    ``span`` steps from every multiple of ``span`` whose ``span`` steps end
    by the mark, and one step otherwise, so some draw ends at every mark.
    """
    plan, t = [], 0
    for mark in sorted({m for m in marks if 0 < m < steps} | {steps}):
        lead = min(-t % span, mark - t)
        body, tail = divmod(mark - t - lead, span)
        plan += [(1, lead), (span, body), (1, tail)]
        t = mark
    return [(size, count) for size, count in plan if count]


@dataclass
class _Table:
    """A witness lane's transition table; ``_run_lane`` steps by it.

    ``cuts`` are int64 columns over the rows. Each cut of column i that is
    above a run's draw adds ``adds[i]`` to an index, and the run moves by
    ``move`` at that index: where every column adds 1, the index counts
    the cuts above the draw. ``jump(span)``, if set, returns the table of
    the exact span-step law over the same rows. ``lasts(b, state)``, if
    set, returns the steps each run's draw b lasts from its state, where a
    table's outcomes last different numbers of steps.
    """

    cuts: tuple
    adds: tuple
    move: np.ndarray
    start: int
    stat: Callable
    fit: Optional[Callable] = None
    jump: Optional[Callable] = None
    lasts: Optional[Callable] = None


def _table(columns, move, start, stat, adds=None, scale=None, fit=None, jump=None, lasts=None):
    """A table from one float column per cut, each entry a cumulative weight
    of its row's outcomes; the weights of a row sum to ``scale``, or to 1
    without one. Every column adds 1 unless ``adds`` says otherwise."""
    cuts = tuple(_draw_cuts(c, scale) for c in columns)
    adds = adds or (1,) * len(cuts)
    return _Table(cuts, adds, np.asarray(move, dtype=np.int64), start, stat, fit, jump, lasts)


def _span_table(span, tails, start, stat, jump):
    """The table of a birth-death walk's span-step law from its tails T_m,
    m = 1 .. span, over the rows (``_span_tails``): one cut column per m,
    so a draw below j of a row's cuts moves the run by 2j - span."""
    return _table(tails, np.arange(-span, span + 1, 2), start, stat, jump=jump)


def _columns(table):
    """A table's moves, its first (cut, add) column and the others."""
    first, *rest = zip(table.cuts, table.adds)
    return table.move, first, rest


def _under(b: np.ndarray, cut: np.ndarray, state: np.ndarray, add: int) -> np.ndarray:
    """``add`` where the draw b is below the cut of its run's state, else 0.

    ``cut`` is a column of integer cuts, read at ``state`` clipped to its
    ends (a negative state reads entry 0). The comparison writes into the
    gathered cuts, so the result is an int64 index with no boolean array
    in between.
    """
    d = cut.take(state, mode="clip")
    np.less(b, d, out=d)
    if add != 1:
        d *= add
    return d


def _run_lane(table, n, steps, seed, marks, track):
    """Run a witness lane for ``steps`` steps: its statistic at each mark.

    Each run holds one int64 state, from ``table.start``. A draw is one
    table lookup per run: with b the draw, a 52-bit integer, and r the
    state clipped to the table's rows (a negative state reads row 0, one
    past the last row the last), the integer cuts cuts[i][r] above b add
    up the index a = the sum of their adds[i], and the state moves by
    move[a].

    A table with a ``jump`` (the line's and the half line's) moves the runs
    ``_SPAN`` steps per draw by the table ``jump(_SPAN)``, or
    ``_TRACKED_SPAN`` steps when base visits are tracked, from each
    multiple of the span while the next mark is at least the span away,
    and one step by its own table otherwise (``_draw_plan``). The cuts of
    both are those of the correctly rounded tails of the exact law
    (``_span_tails``), so a run's law at every mark is the conditioned
    walk's, up to one rounding per cut. Both walks are bipartite and start
    at the base, so a base visit falls on an even time, and a span of 2
    sees every one.

    A table with ``lasts`` (the tree's) gives each run its own clock, which
    each draw advances by the steps that draw lasts, while the draw counter
    stays in lockstep: draw d of every run is its d-th. A mark reads the
    state after the draw that reaches or passes it, a base visit counts at
    a clock <= ``steps``, and a run leaves once its clock reaches
    ``steps``. The runs that left are dropped before each chunk of draws
    (``_witness_draws``' ``live``); till then they draw on, and count and
    read nothing.

    With c a cumulative weight of a row, the cut is the least m with
    m 2^-52 >= c, and on the plane, whose weights are not normalized, the
    least m with fl(m 2^-52 scale[r]) >= c (``rng._draw_cuts``). So b < cut
    exactly when the uniform u = b 2^-52 fails the comparison with c, and
    a draw takes exactly the move of comparing u entry by entry: on the
    tree c is a correctly rounded ratio or the float sum of two, and on the
    plane the float expression a per-run evaluation of the transformed row
    computes, in its order of operations. ``fit(state)``, if set, returns
    a wider table or None, the number of steps until its next call, and the
    states in the table it returns; a table that fits steps one step per
    draw. A ``track`` dict receives each run's base visits ("counts") and
    the time of its last ("last"); ``stat`` gives the statistic.

    This is the module's one loop over the draws.
    """
    if track is not None:
        counts = track["counts"] = np.zeros(n, dtype=np.int64)
        last = track["last"] = np.zeros(n, dtype=np.int64)
    span = 1 if table.jump is None else _SPAN if track is None else _TRACKED_SPAN
    lanes = {1: _columns(table)}
    if span > 1:
        lanes[span] = _columns(table.jump(span))
    state = np.full(n, table.start, dtype=np.int64)
    markset, out = set(marks), {}
    if table.lasts is None:
        plan = _draw_plan(steps, marks, span)
        sizes = itertools.chain.from_iterable(itertools.repeat(*p) for p in plan)
        draws = _witness_draws(seed, n, sum(count for _, count in plan), track)
    else:
        # per live run: its trajectory, its clock and the next mark it reads
        due = np.array([*sorted(markset), np.iinfo(np.int64).max])
        seen = np.empty(len(markset) * n, dtype=np.int64)  # by mark, then trajectory
        ids, clock, nxt = np.arange(n), np.zeros(n, dtype=np.int64), np.full(n, due[0])

        def live():
            nonlocal ids, clock, nxt, state
            going = np.flatnonzero(clock < steps)
            if going.size < ids.size:
                ids, clock, nxt, state = (a.take(going) for a in (ids, clock, nxt, state))
            return ids

        # a draw moves every run at least one step
        sizes, draws = itertools.repeat(1), _witness_draws(seed, n, steps, track, live)
    refit = 1 if table.fit else steps + 1
    time = 0
    for size, b in zip(sizes, draws):
        time += size
        if time == refit:
            wider, hold, state = table.fit(state)
            refit = time + hold
            if wider is not None:
                table = wider
                lanes[1] = _columns(table)
        if table.lasts is not None:
            clock += table.lasts(b, state)
        move, (first, add0), rest = lanes[size]
        index = _under(b, first, state, add0)
        for cut, add in rest:
            index += _under(b, cut, state, add)
        state += move.take(index)
        if table.lasts is None:
            if track is not None:
                at_base = np.flatnonzero(state == table.start)
                if at_base.size:
                    counts[at_base] += 1
                    last[at_base] = time
            if time in markset:
                out[time] = table.stat(state)
        else:
            if track is not None:
                at_base = (state == table.start).nonzero()[0]
                if at_base.size:
                    at_base = at_base[clock.take(at_base) <= steps]
                    counts[ids.take(at_base)] += 1
                    last[ids.take(at_base)] = clock.take(at_base)
            hit = (clock >= nxt).nonzero()[0]
            while hit.size:  # the marks each run reached or passed, one at a time
                at = due.searchsorted(nxt.take(hit))
                seen.put(at * n + ids.take(hit), state.take(hit))
                after = due.take(at + 1)
                nxt.put(hit, after)
                hit = hit[clock.take(hit) >= after]
    if table.lasts is not None:
        out = {m: table.stat(s) for m, s in zip(due.tolist(), seen.reshape(-1, n))}
    return out


def _span_tails(psi, lo, moves, r, v, span):
    """The span-step tails T_m(v) = P_v(at least m of the next span steps go
    toward the target), m = 1 .. span, of a psi-tilted birth-death walk from
    each position of the int array v, as a (span, len(v)) float array.

    ``psi`` holds psi's integer numerators over the positions lo, lo + 1, ...
    that the paths reach, pointing at the target, with the base at 0;
    ``moves`` holds the parent's integer (toward, away) weights (u, d) off
    the base and (u0, d0) at it, each pair summing to one denominator w. A
    path's transformed probability is its parent probability times
    psi(end)/psi(v) and r per step that leaves the base (the rows' product
    telescopes), so with r = p/s and W_j the sum over the paths with j
    steps toward the target of their steps' weights, each times s off the
    base and p at it, T_m(v) = sum_{j >= m} W_j psi(v + 2j - span) /
    ((w s)^span psi(v)), one correctly rounded int/int division
    (``window.exact_floats``). At least span from the base no path leaves
    it, and W_j is C(span, j) u^j d^(span - j) s^span; the fewer than
    2 span rows nearer take W_j from a span-step integer DP. A row whose
    full sum is not its denominator, psi failing harmonicity off the base
    or its balance at it, raises ``RowSumViolationError``. A position no
    path reaches carries no weight and reads psi at lo.
    """
    (u, d), (u0, d0) = moves
    p, s = r.numerator, r.denominator
    grow = (max(u + d, u0 + d0) * max(p, s)) ** span  # no row's weights sum past it
    if grow * int(psi.max()) >= 1 << 63:
        psi = psi.astype(object)  # the weighted ends would not fit int64
    dtype = np.int64 if grow < 1 << 63 else object
    binom = [[math.comb(span, j) * u**j * d ** (span - j) * s**span] for j in range(span + 1)]
    near = np.flatnonzero(abs(v) < span)
    ways = np.zeros((span + 1, near.size), dtype=dtype)  # by steps j toward the target
    ways[0] = 1
    # a step's weights toward and away from the target, off the base (0) and at it (1)
    up, down = np.array([u * s, u0 * p], dtype=dtype), np.array([d * s, d0 * p], dtype=dtype)
    for t in range(span):
        base = (v[near] + 2 * np.arange(span + 1)[:, None] == t).astype(np.intp)
        toward = ways * up[base]
        ways *= down[base]
        ways[1:] += toward[:-1]
    at = psi.take(v - lo + np.arange(-span, span + 1, 2)[:, None], mode="clip")
    ends = np.array(binom, dtype=dtype) * at
    ends[:, near] = ways * at[:, near]
    for m in range(span - 1, -1, -1):
        ends[m] += ends[m + 1]  # the sum over j >= m
    den = ((u + d) * s) ** span * psi[v - lo]
    bad = np.flatnonzero(ends[0] != den)
    if bad.size:
        raise RowSumViolationError(
            f"the {span}-step row at position {int(v[bad[0]])} sums to "
            f"{Fraction(int(ends[0][bad[0]]), int(den[bad[0]]))}"
        )
    return exact_floats(ends[1:], den)


def _line_table(chain, params, steps):
    """Conditioned line walk, in coordinates pointing at the target end.

    psi is proportional to a + 2b max(v, 0), with a/b = r/(1-r), and the
    parent steps each way with weight 1 off the base and at it, so every
    table is ``_span_tails`` of these integers: the one-step table (span 1)
    and ``jump(span)``, the exact span-step law over the same rows. The rows
    are the positions v reachable in ``steps`` steps, the state
    v + steps + 1: 2 steps + 3 rows, built per call.
    """
    a, b = params.odds.numerator, params.odds.denominator
    v = np.arange(-steps - 1, steps + 2)
    lo, hi = -steps - 1 - _SPAN, steps + 1 + _SPAN
    x = np.maximum(np.arange(lo, hi + 1), 0)
    if a + 2 * b * hi >= 1 << 63:
        x = x.astype(object)  # psi would not fit int64
    psi = a + 2 * b * x
    base = steps + 1

    def stat(s):
        return (s - base).astype(np.float64)

    def jump(span):
        tails = _span_tails(psi, lo, ((1, 1), (1, 1)), params.r, v, span)
        return _span_table(span, tails, base, stat, jump)

    return jump(1)


def _halfline_table(chain, params, steps):
    """Conditioned half-line walk; the reflecting base forces an up-step.

    The state is the position and its row: rows 0 .. 64 are exact and row
    65, the last, serves every position past 64 with the limit law
    Binomial(span, 1 - q). Off the base, psi(x) is beta(0) times
    r/(1-r) + L(x, alpha), whose integer numerators over one denominator
    come from one ``kernel_sum_array`` call. With q = a/b the parent steps
    toward the end with weight a and back with b - a off the base, and with
    b and 0 at it, so rows 0 .. 64 of the one-step table and of
    ``jump(span)``, the exact span-step law over the same rows, are
    ``_span_tails`` of these integers.
    """
    cutoff = _TABLE_CUTOFF
    states = list(range(cutoff + 1 + _SPAN))
    table = chain.code_table(states)
    form = kernel_sum_array(chain, 0, [(params.alpha, 1)], constant=params.odds)
    psi = form(table, table.encode(states))[0]
    a, b = chain.q.numerator, chain.q.denominator
    rows = np.arange(cutoff + 1)

    def stat(s):
        return s.astype(np.float64)

    def jump(span):
        limit = [math.comb(span, j) * (b - a) ** j * a ** (span - j) for j in range(span + 1)]
        tails = _span_tails(psi, 0, ((a, b - a), (b, 0)), params.r, rows, span)
        last = [[sum(limit[m:]) / b**span] for m in range(1, span + 1)]
        return _span_table(span, np.hstack([tails, last]), 0, stat, jump)

    return jump(1)


def _excursion_cuts(steps):
    """The cuts of an off-ray sojourn's length tau, the first return to 0 of
    a symmetric +-1 walk from 1: entry n - 1, n = 1 .. (steps + 1) // 2,
    is the least m with m 2^-52 >= P(tau <= 2n - 1) = 1 - C(2n, n)/4^n,
    that is 2^52 - floor(C(2n, n) 2^(52 - 2n)) (Feller, Vol. 1, ch. III).

    C(2n, n)/4^n, the product of (2i - 1)/(2i) over i <= n, is carried in
    fixed point with ``_GUARD_BITS`` below the 52, each factor's product
    floored. A floor loses less than one unit, and a factor below 1 does
    not grow what was lost before, so after n factors the value is less
    than n units below the exact one: its top bits are the exact floor
    unless adding n carries into them, and then, which is rare, the floor
    comes from ``math.comb``. So the cuts take time linear in ``steps``.
    """
    guard = _GUARD_BITS
    value, floors = 1 << (_DRAW_BITS + guard), []
    for n in range(1, (steps + 1) // 2 + 1):
        value = value * (2 * n - 1) // (2 * n)
        top = value >> guard
        if (value + n) >> guard != top:
            top = (math.comb(2 * n, n) << _DRAW_BITS) >> (2 * n)
        floors.append(top)
    return (1 << _DRAW_BITS) - np.array(floors, dtype=np.int64)


def _sojourn_steps(steps):
    """The steps a tree run's draw lasts, as ``_Table.lasts``: 1 on the ray,
    and tau = 2i + 1 from the pending row, i the excursion cuts at or below
    the draw b (``_excursion_cuts``).

    With w = 2^52 - b, b passes cut n exactly when F_n = 2^52 - cut_n, the
    floor of C(2n, n)/4^n 2^52, is at least w, so i counts the F_n >= w:
    C(2i, i)/4^i >= w 2^-52 > C(2i + 2, i + 1)/4^(i + 1). By Wallis-product
    bounds, 1/sqrt(pi (n + 1/2)) < C(2n, n)/4^n < 1/sqrt(pi (n + 1/4)) for
    n >= 1, so 2^104/(pi w^2) lies in [i + 1/4, i + 3/2): its floor, a
    few units in the last place away, is i or i + 1, and one comparison
    with F at the floor gives i exactly.
    """
    floors = (1 << _DRAW_BITS) - _excursion_cuts(steps).astype(np.float64)
    most = floors.size
    floors = np.concatenate([[2.0 ** (_DRAW_BITS + 1)], floors])  # F_0 passes every w
    top, scale = 2.0**_DRAW_BITS, 2.0 ** (2 * _DRAW_BITS) / math.pi
    twice = np.array([2, 0])  # by row, clipped: 2 on the pending row

    def lasts(b, state):
        w = np.subtract(top, b, dtype=np.float64)
        guess = w * w
        np.divide(scale, guess, out=guess)
        np.minimum(guess, most, out=guess)
        i = guess.astype(np.int64)
        i -= floors.take(i) < w
        i *= twice.take(state, mode="clip")
        i += 1
        return i

    return lasts


def _tree_table(chain, params, steps):
    """Conditioned tree walk, projected to (agreement j, overhang m).

    The weight depends only on the agreement length with the target ray,
    so the pair (j, m) — m the depth below the last ray node — is itself a
    Markov chain: on the ray, step to the father with probability
    psi_{j-1}/(2 psi_j), to the next ray node with psi_{j+1}/(2k psi_j),
    and off the ray with (k-1)/(2k); off the ray psi is constant, psi_j of
    the branch point, so all weight ratios are 1 and the overhang is the
    parent's symmetric +-1 walk until it returns to the ray node it left
    (as in ``green._tree_walk``). No witness statistic changes on the way,
    neither j nor the root visits, so a draw off the ray goes to overhang 1
    and the run's next draw takes the whole sojourn: it puts the run back on
    its ray node tau steps later, with tau the first return time from
    overhang 1 (``_sojourn_steps``).

    The state is j + 1 - m 2^32, so it is its own row once clipped to the
    table: the pending row first (every negative state, m = 1), then the
    root 1, the ray nodes 2 .. 65, and the deeper ray 66, the last. Two
    cuts, adding 1 and 2, name the four moves. On the ray they are the
    father's probability and that plus the next node's: a draw below both
    goes to the father (3), below the second only to the next node (2),
    and otherwise off the ray (0). On the pending row the first is 1, so
    every draw goes up to the ray (1), and the second 0.

    psi_j = gamma + k^j - 1, with gamma = (r/(1-r)) (k-1)/k = g/h, is kept
    as its integer numerator g + (k^j - 1) h over h, so each probability is
    one correctly rounded int/int division: the float of the exact ratio.
    """
    k = chain.k
    g, h = params.odds.numerator * (k - 1), params.odds.denominator * k
    cutoff = _TABLE_CUTOFF
    psi = [g + (k**j - 1) * h for j in range(cutoff + 2)]
    root = float(params.r / k + (1 - params.r))
    rows = [(1.0, 0.0), (0.0, root)]
    for j in range(1, cutoff + 1):
        up = psi[j - 1] / (2 * psi[j])
        rows.append((up, up + psi[j + 1] / (2 * k * psi[j])))
    up = 1.0 / (2 * k)
    rows.append((up, up + 0.5))
    big = 1 << 32
    return _table(np.array(rows).T, [-big, big, 1, -1], 1,
                  lambda s: ((s - 1) & (big - 1)).astype(np.float64), adds=(1, 2),
                  lasts=_sojourn_steps(steps))


def _plane_table(chain, params, steps, reach=32):
    """Conditioned planar walk on the cells of [-reach, reach]^2.

    A neighbor's weight is c + a(neighbor), with the potential kernel's
    exact table inside its radius and the logarithmic asymptote outside
    (relative error below 1e-4 there); each row is renormalized, which also
    absorbs the damping factor at the origin. Cell (x, y) is state and row
    (x + reach)(2 reach + 1) + y + reach, with cumulative weights
    c1 = w_e, c2 = c1 + w_w, c3 = c2 + w_n and scale c3 + w_s, which the
    cuts absorb. Each planar witness builds it for [-32, 32]^2; ``fit``
    rebuilds it twice as wide once a run comes within one cell of the edge,
    re-encoding every state in the wider square, and holds the table until
    the farthest run could first stand on the edge, so every lookup is from
    a cell of the square and no step leaves it.
    """
    from .potential import potential_float_array

    c, cut = float(params.odds), _TABLE_CUTOFF
    tbl = potential_float_array(cut)
    kappa = (2.0 * np.euler_gamma + np.log(8.0)) / np.pi
    side = 2 * reach + 1
    ax, ay = np.meshgrid(*[np.abs(np.arange(-reach - 1, reach + 2))] * 2, indexing="ij")
    vals = np.empty(ax.shape)
    inside = (ax <= cut) & (ay <= cut)
    vals[inside] = tbl[ax[inside], ay[inside]]
    far = ~inside
    vals[far] = np.log((ax[far] ** 2 + ay[far] ** 2).astype(np.float64)) / np.pi + kappa
    w = c + vals
    c1 = w[2:, 1:-1].ravel()
    c2 = c1 + w[:-2, 1:-1].ravel()
    c3 = c2 + w[1:-1, 2:].ravel()

    def xy(s):
        x, y = np.divmod(s, side)
        return x - reach, y - reach

    def stat(s):
        x, y = xy(s)
        return np.sqrt(x.astype(np.float64) ** 2 + y.astype(np.float64) ** 2)

    def fit(s):
        x, y = xy(s)
        near = int(max(np.abs(x).max(), np.abs(y).max()))
        if near < reach - 1:
            return None, reach - near, s
        wide = 2 * reach
        cells = (x + wide) * (2 * wide + 1) + y + wide
        return _plane_table(chain, params, steps, wide), wide - near, cells

    return _table([c1, c2, c3], [-1, 1, -side, side], reach * side + reach, stat,
                  scale=c3 + w[1:-1, :-2].ravel(), fit=fit)


#: law class -> (its table function, witness statistic, kind, default threshold,
#: base, target type, and the messages refusing another base or target)
_WITNESS_LANES = {
    ZWalk: (_line_table, "signed position toward the target end", "line", 50.0, 0, LineEnd,
            "the line witness is anchored at base 0",
            "the line witness needs a line-end target"),
    BangBangWalk: (_halfline_table, "position on the half line", "halfline", 100.0, 0,
                   HalfLineEnd,
                   "the half-line witness is anchored at base 0",
                   "the half-line witness needs the half-line end"),
    KaryTree: (_tree_table, "agreement length with the target ray", "tree", 10.0, ROOT,
               TreeRay,
               "the tree witness is anchored at the root",
               "the tree witness needs a ray target"),
    Z2Walk: (_plane_table, "euclidean norm of the position", "plane", 10.0, (0, 0),
             type(None),
             "the plane witness is anchored at the origin",
             "the plane has a single anonymous boundary point; pass alpha=None"),
}
