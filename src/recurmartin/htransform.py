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
is one table lookup; each one-step entry is the integer cut of the float
expression a per-run evaluation of the transformed row computes, which the
52-bit integer draws pass exactly when their uniforms pass that
expression. The half-line and tree tables take psi's integer numerators
and each probability as one correctly rounded int/int division, the float
of the exact ratio. On the line and the half line the conditioned walk is
a Doob transform of a birth-death walk, so its K-step law is exact and
small: a second table holds it, each cut that of a correctly rounded tail,
and a draw moves a run K steps (``_SPAN``, ``_TRACKED_SPAN``).

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

from .chains import (
    ChainSpec,
    StateId,
    _merged_row,
    distribution_after,
    enumerate_paths,
    law_class,
    owns_kernel,
)
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
        self._rows: dict = {}

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
        """The transformed row at x, built and validated once per state."""
        moves = self._rows.get(x)
        if moves is None:
            scale = self._row_scale(x) / self.weight(x)
            moves = [
                (y, scale * p * self.weight(y)) for y, p in self.parent.successors(x)
            ]
            total = sum((p for _, p in moves), Fraction(0))
            if total != 1:
                raise RowSumViolationError(
                    f"transformed row at {self.parent.format_state(x)} sums to {total}"
                )
            self._rows[x] = moves
        return list(moves)

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


_DEFAULT_THRESHOLDS = {"line": 50.0, "halfline": 100.0, "tree": 10.0, "plane": 10.0}


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
    exact multi-step law, and one step where a snapshot is nearer.
    """
    table, witness, kind = _witness_lane(chain, params, trajectories, steps)
    marks = sorted({int(s) for s in snapshots if 0 < int(s) < steps} | {steps})
    stats = _run_lane(table, trajectories, steps, seed, marks, None)
    thr = float(_DEFAULT_THRESHOLDS[kind] if threshold is None else threshold)
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
    bipartite walks started at the base can stand there.
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
    """The witness table of the chain's law, its statistic and its kind.

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
    build, witness, kind, base, target, base_message, target_message = spec
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
    return build(chain, params, steps), witness, kind


def _witness_draws(seed, n, draws, track):
    """Each draw's row for trajectories 0 .. n-1, in draw order.

    Draw d of trajectory i is the 52-bit integer counter_bits(key_i,
    d - 1), however many steps it moves the run. The draws are made for
    up to 64 draws per call, within 2^15 numbers so that the block stays
    in cache, one contiguous row per draw, into one chunk x n buffer that
    every call refills: a row is valid until the generator is resumed after
    its chunk's last row.
    """
    purpose = CONVERGENCE_WITNESS if track is None else TRANSIENCE_WITNESS
    keys = stream_keys(seed, purpose, np.arange(n))
    chunk = max(1, min(64, (1 << 15) // n, draws))
    block, scratch = np.empty((chunk, n), dtype=np.int64), np.empty((chunk, n), dtype=np.int64)
    for lo in range(0, draws, chunk):
        m = min(chunk, draws - lo)
        yield from counter_bits(keys, np.arange(lo, lo + m)[:, None], block[:m], scratch[:m])


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
    the exact span-step law over the same rows.
    """

    cuts: tuple
    adds: tuple
    move: np.ndarray
    start: int
    stat: Callable
    fit: Optional[Callable] = None
    jump: Optional[Callable] = None


def _table(columns, move, start, stat, adds=None, scale=None, fit=None, jump=None):
    """A table from one float column per cut, each entry a cumulative weight
    of its row's outcomes; the weights of a row sum to ``scale``, or to 1
    without one. Every column adds 1 unless ``adds`` says otherwise."""
    cuts = tuple(_draw_cuts(c, scale) for c in columns)
    adds = adds or (1,) * len(cuts)
    return _Table(cuts, adds, np.asarray(move, dtype=np.int64), start, stat, fit, jump)


def _span_table(span, tails, start, stat):
    """The table of a birth-death walk's span-step law, from its tails
    T_m = P(at least m of the span steps go up) over the rows, one column
    for each m = 1 .. span in turn: one cut column per m, the integer cuts
    of the floats T_m (``rng._draw_cuts``), so a draw below j of a row's
    cuts moves the run by 2j - span."""
    return _table(tails, np.arange(-span, span + 1, 2), start, stat)


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
    and one step by its own table otherwise (``_draw_plan``). Its cuts are
    those of the correctly rounded tails of the exact span-step law, so a
    run's law at every mark is the conditioned walk's, up to one rounding
    per cut. Both walks are bipartite and start at the base, so a base
    visit falls on an even time, and a span of 2 sees every one.

    The one-step cut columns are computed from the float expressions of
    the transformed row's cumulative weights that a per-run evaluation
    computes, in its order of operations: with c such an entry, the cut is
    the least m with m 2^-52 >= c, and on the plane, whose weights are not
    normalized, the least m with fl(m 2^-52 scale[r]) >= c
    (``rng._draw_cuts``). So b < cut exactly when the uniform u = b 2^-52
    fails the per-run comparison with c, and a one-step draw takes exactly
    the step of comparing u entry by entry. ``fit(state)``, if set, returns
    a wider table or None, the number of steps until its next call, and the
    states in the table it returns; a table that fits steps one step per
    draw. A ``track`` dict receives each run's base visits ("counts") and
    the time of its last ("last"); ``stat`` gives the statistic.

    This is the module's one loop over the draws.
    """
    if track is not None:
        track["counts"] = np.zeros(n, dtype=np.int64)
        track["last"] = np.zeros(n, dtype=np.int64)
    span = 1 if table.jump is None else _SPAN if track is None else _TRACKED_SPAN
    lanes = {1: _columns(table)}
    if span > 1:
        lanes[span] = _columns(table.jump(span))
    plan = _draw_plan(steps, marks, span)
    sizes = itertools.chain.from_iterable(itertools.repeat(*p) for p in plan)
    draws = _witness_draws(seed, n, sum(count for _, count in plan), track)
    markset, out = set(marks), {}
    state = np.full(n, table.start, dtype=np.int64)
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
        move, (first, add0), rest = lanes[size]
        index = _under(b, first, state, add0)
        for cut, add in rest:
            index += _under(b, cut, state, add)
        state += move.take(index)
        if track is not None:
            at_base = np.flatnonzero(state == table.start)
            if at_base.size:
                track["counts"][at_base] += 1
                track["last"][at_base] = time
        if time in markset:
            out[time] = table.stat(state)
    return out


#: ``_near_base_tails`` per law class, chain name, parameters, starts and span
_NEAR_BASE: dict = {}


def _near_base_tails(chain, params, starts, span):
    """The span-step tails T_m, m = 1 .. span, from each position of
    ``starts``, read off the exact law of the transformed chain
    (``chains.distribution_after``): each exact tail sum as its float, in
    a (len(starts), span) array. A position points at the target, so on the
    line toward -inf the position v is the state -v. Computed once per
    process for each law, chain name, parameters, starts and span, and
    returned read-only.
    """
    key = (law_class(chain), chain.name, params, tuple(starts), span)
    tails = _NEAR_BASE.get(key)
    if tails is None:
        sign = getattr(params.alpha, "sign", 1)
        moved = transformed_chain(chain, params)
        rows = []
        for v in starts:
            law = [Fraction(0)] * (span + 1)
            for y, p in distribution_after(moved, sign * v, span).items():
                law[(sign * y - v + span) // 2] += p
            rows.append([float(sum(law[m:])) for m in range(1, span + 1)])
        tails = _NEAR_BASE[key] = np.array(rows).reshape(len(starts), span)
        tails.flags.writeable = False
    return tails


def _line_tails(chain, params, v, span):
    """The conditioned line walk's span-step tails from the positions v:
    T_m(v) = P_v(at least m of the next span steps go toward the target),
    each the float of the exact value, yielded over v for m = 1 .. span.

    A path's transformed probability is its parent probability 2^-span
    times psi(end)/psi(v), and r per departure from the base (the rows'
    product telescopes), so from |v| >= span, where no path leaves the base
    before its end, j steps toward the target have probability
    C(span, j) 2^-span psi(v + 2j - span)/psi(v). psi is proportional to
    a + 2b max(v, 0), with a/b = r/(1-r), so at v >= span
    T_m = (S0_m (a + 2b(v - span)) + 4b S1_m) / (2^span (a + 2bv)), with S0_m
    and S1_m the sums of C(span, j) and j C(span, j) over j >= m, one
    correctly rounded int/int division, and at v <= -span the binomial tail
    S0_m / 2^span. The rows in between come from ``_near_base_tails``.
    """
    a, b = params.odds.numerator, params.odds.denominator
    binom = [math.comb(span, j) for j in range(span + 1)]
    near, far = v >= span, v <= -span
    inner = ~(near | far)
    x = v[near]
    if (a + 2 * b * (int(x.max(initial=0)) + 2 * span)) << span >= 1 << 63:
        x = x.astype(object)  # the products would not fit int64
    low, den = a + 2 * b * (x - span), (a + 2 * b * x) << span
    rows = _near_base_tails(chain, params, v[inner].tolist(), span)
    for m in range(1, span + 1):
        s0, s1 = sum(binom[m:]), sum(j * binom[j] for j in range(m, span + 1))
        tail = np.empty(v.size)
        tail[near] = exact_floats(low * s0 + 4 * b * s1, den)
        tail[far] = s0 / 2**span
        tail[inner] = rows[:, m - 1]
        yield tail


def _line_table(chain, params, steps):
    """Conditioned line walk, in coordinates pointing at the target end.

    Up-probability (c + 2v + 2) / (2(c + 2v)) above the base, (2 - r)/2 at
    it, and 1/2 on the far side, with c = r/(1-r); these are the exact row
    entries of the transformed chain, evaluated in floating point. The rows
    are the positions v reachable in ``steps`` steps, the state v + steps + 1:
    2 steps + 3 rows of one 8-byte cut, built per call; ``jump(span)``
    holds the exact span-step law over the same rows (``_line_tails``).
    """
    c = float(params.odds)
    v = np.arange(-steps - 1, steps + 2)
    vp = v[v >= 1].astype(np.float64)
    up = np.full(v.size, 0.5)
    up[v == 0] = (2.0 - float(params.r)) / 2.0
    up[v >= 1] = (c + 2.0 * vp + 2.0) / (2.0 * (c + 2.0 * vp))
    base = steps + 1

    def stat(s):
        return (s - base).astype(np.float64)

    def jump(span):
        return _span_table(span, _line_tails(chain, params, v, span), base, stat)

    return _table([up], [-1, 1], base, stat, jump=jump)


def _halfline_table(chain, params, steps):
    """Conditioned half-line walk; the reflecting base forces an up-step.

    The state is the position and its row: rows 0 .. 64 are exact and row
    65, the last, serves every position past 64 with the limit 1 - q of
    the up-probability. Off the base, psi(x) is beta(0) times
    r/(1-r) + L(x, alpha), whose integer numerators over one denominator
    come from one ``kernel_sum_array`` call, so each up-probability
    q psi(x+1) / psi(x) is one correctly rounded int/int division: the
    float of the exact ratio.

    ``jump(span)`` holds the exact span-step law over the same rows. With
    q = a/b, from x >= span, where no path leaves the base before its end,
    j up-steps have probability C(span, j) a^j (b - a)^(span - j)
    psi(x + 2j - span) / (b^span psi(x)), so each tail is one correctly
    rounded int/int division; the rows nearer the base come from
    ``_near_base_tails``, and the last row is the limit law Binomial(span,
    1 - q).
    """
    cutoff = _TABLE_CUTOFF
    states = list(range(cutoff + 2 + _SPAN))
    table = chain.code_table(states)
    form = kernel_sum_array(chain, 0, [(params.alpha, 1)], constant=params.odds)
    psi = form(table, table.encode(states))[0].tolist()
    a, b = chain.q.numerator, chain.q.denominator
    up = [1.0] + [a * psi[x + 1] / (b * psi[x]) for x in range(1, cutoff + 1)]
    up.append(float(1 - chain.q))

    def stat(s):
        return s.astype(np.float64)

    def jump(span):
        binom = [math.comb(span, j) for j in range(span + 1)]
        paths = [binom[j] * a**j * (b - a) ** (span - j) for j in range(span + 1)]
        limit = [binom[j] * (b - a) ** j * a ** (span - j) for j in range(span + 1)]
        rows = _near_base_tails(chain, params, range(span), span).tolist()
        for x in range(span, cutoff + 1):
            ends = [w * psi[x + 2 * j - span] for j, w in enumerate(paths)]
            rows.append([sum(ends[m:]) / (b**span * psi[x]) for m in range(1, span + 1)])
        rows.append([sum(limit[m:]) / b**span for m in range(1, span + 1)])
        return _span_table(span, np.array(rows).T, 0, stat)

    return _table([np.array(up)], [-1, 1], 0, stat, jump=jump)


def _tree_table(chain, params, steps):
    """Conditioned tree walk, projected to (agreement j, overhang m).

    The weight depends only on the agreement length with the target ray,
    so the pair (j, m) — m the depth below the last ray node — is itself a
    Markov chain: on the ray, step to the father with probability
    psi_{j-1}/(2 psi_j), to the next ray node with psi_{j+1}/(2k psi_j),
    and off the ray with (k-1)/(2k); off the ray all weight ratios are 1,
    leaving the symmetric up/down move of the parent. The state is
    j + 1 - m 2^32, so it is its own row once clipped to the table: the
    off-ray row first (every negative state), then the root 1, the ray
    nodes 2 .. 65, and the deeper ray 66, the last.

    Two cuts, adding 1 and 2, name the four moves. On the ray they are
    the father's probability and that plus the next node's: a draw below
    both goes to the father (3), below the second only to the next node
    (2), and otherwise off the ray (0). Off it the first is 1/2, the
    probability up toward the ray (1), and the second 0.

    psi_j = gamma + k^j - 1, with gamma = (r/(1-r)) (k-1)/k = g/h, is kept
    as its integer numerator g + (k^j - 1) h over h, so each probability is
    one correctly rounded int/int division: the float of the exact ratio.
    """
    k = chain.k
    g, h = params.odds.numerator * (k - 1), params.odds.denominator * k
    cutoff = _TABLE_CUTOFF
    psi = [g + (k**j - 1) * h for j in range(cutoff + 2)]
    root = float(params.r / k + (1 - params.r))
    rows = [(0.5, 0.0), (0.0, root)]
    for j in range(1, cutoff + 1):
        up = psi[j - 1] / (2 * psi[j])
        rows.append((up, up + psi[j + 1] / (2 * k * psi[j])))
    up = 1.0 / (2 * k)
    rows.append((up, up + 0.5))
    big = 1 << 32
    return _table(np.array(rows).T, [-big, big, 1, -1], 1,
                  lambda s: ((s - 1) & (big - 1)).astype(np.float64), adds=(1, 2))


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


#: law class -> (its table function, witness statistic, kind, base, target type,
#: and the messages refusing another base or target)
_WITNESS_LANES = {
    ZWalk: (_line_table, "signed position toward the target end", "line", 0, LineEnd,
            "the line witness is anchored at base 0",
            "the line witness needs a line-end target"),
    BangBangWalk: (_halfline_table, "position on the half line", "halfline", 0, HalfLineEnd,
                   "the half-line witness is anchored at base 0",
                   "the half-line witness needs the half-line end"),
    KaryTree: (_tree_table, "agreement length with the target ray", "tree", ROOT, TreeRay,
               "the tree witness is anchored at the root",
               "the tree witness needs a ray target"),
    Z2Walk: (_plane_table, "euclidean norm of the position", "plane", (0, 0), type(None),
             "the plane witness is anchored at the origin",
             "the plane has a single anonymous boundary point; pass alpha=None"),
}
