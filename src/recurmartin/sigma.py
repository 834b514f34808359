"""Sigma-finite path measures induced by a harmonic profile.

A profile phi vanishing at a base state x0 and harmonic elsewhere defines
a measure on paths through the restricted-weight formula: the measure of
{F_n happens and the walk never revisits x0 from time n on} equals
E_x[F_n * phi(X_n)]. Restricted weights are exact rational expectations;
plain cylinder events can carry infinite measure, so the cylinder
evaluator reports a monotone horizon sequence with an explicit verdict
instead of a single number, and the avoidance evaluator reports a
certified two-sided bracket.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .chains import ChainSpec, StateId, enumerate_paths
from .examplechains import Z2Walk
from .green import EXACT_SOLVE_LIMIT, _killed_column_values, state_norm
from .window import UNNAMED, SuccessorTable, sum_by_key, window_operator

#: Ceiling on window states materialized by the avoidance dynamic programs.
DP_STATE_BUDGET = 400_000

#: Relative increment below which a monotone sequence is called converged.
CONVERGED_REL = 1e-9

#: Ratio of successive increments above which a growing sequence is called
#: divergent (three positive increments required).
DIVERGES_RATIO = 0.9


# ---------------------------------------------------------------------------
# Horizon functionals


@dataclass(frozen=True)
class HorizonFunctional:
    """A nonnegative functional of the first ``horizon + 1`` path states.

    ``evaluate`` maps a state tuple (of length > horizon) to a number.
    ``allowed`` is the per-time constraint view used by the dynamic
    programs; it is present exactly for indicator-type functionals, where
    ``evaluate(path) = 1`` iff every ``(t, path[t])`` is allowed.
    """

    horizon: int
    evaluate: Callable[[tuple], object]
    allowed: Optional[Callable[[int, StateId], bool]] = None
    description: str = ""

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")


def path_indicator(states: Sequence[StateId]) -> HorizonFunctional:
    """Indicator of one explicit initial path X_0, ..., X_n."""
    fixed = list(states)
    if not fixed:
        raise ValueError("path must contain at least the starting state")
    n = len(fixed) - 1

    def ev(path):
        return Fraction(1) if list(path[: n + 1]) == fixed else Fraction(0)

    def ok(t, s):
        return t > n or s == fixed[t]

    return HorizonFunctional(n, ev, ok, f"path of length {n}")


def state_at_time(m: int, state: StateId) -> HorizonFunctional:
    """Indicator of X_m = state."""
    if m < 0:
        raise ValueError("time must be >= 0")

    def ev(path):
        return Fraction(1) if path[m] == state else Fraction(0)

    def ok(t, s):
        return t != m or s == state

    return HorizonFunctional(m, ev, ok, f"state pinned at time {m}")


def avoid_states(banned, horizon: int) -> HorizonFunctional:
    """Indicator of X_t outside ``banned`` for all t in [0, horizon]."""
    banned = frozenset(banned)

    def ev(path):
        return (
            Fraction(1)
            if all(s not in banned for s in path[: horizon + 1])
            else Fraction(0)
        )

    def ok(t, s):
        return t > horizon or s not in banned

    return HorizonFunctional(horizon, ev, ok, f"avoids {len(banned)} state(s)")


def constant_one(horizon: int = 0) -> HorizonFunctional:
    return HorizonFunctional(horizon, lambda path: Fraction(1), lambda t, s: True, "1")


def with_no_base_visits(
    f: HorizonFunctional, x0: StateId, start: int, stop: int
) -> HorizonFunctional:
    """f further restricted by {X_t != x0 for start <= t < stop}."""
    if stop <= start:
        raise ValueError("empty restriction range")

    def ev(path):
        if any(path[t] == x0 for t in range(start, min(stop, len(path)))):
            return Fraction(0)
        return f.evaluate(path)

    def ok(t, s):
        if start <= t < stop and s == x0:
            return False
        return f.allowed(t, s) if f.allowed else True

    return HorizonFunctional(
        max(f.horizon, stop - 1),
        ev,
        ok if f.allowed else None,
        f"{f.description}, base barred on [{start},{stop})",
    )


# ---------------------------------------------------------------------------
# Measure values


@dataclass
class MeasureValue:
    """A measure evaluation: exact, or a monotone horizon sequence.

    ``sequence`` entries are (horizon, value) pairs, nondecreasing in the
    value; ``bracket`` is a certified (lower, upper) enclosure when one
    is available. An inconclusive bracket is reported, never raised.
    """

    value: object
    mode: str  # "exact" | "monotone-sequence"
    sequence: Optional[list] = None
    verdict: Optional[str] = None
    bracket: Optional[tuple] = None
    note: str = ""

    def __float__(self):
        return float(self.value)


def _phi_eval(phi):
    return phi.evaluate if hasattr(phi, "evaluate") else phi


def restricted_measure(
    chain: ChainSpec, x0: StateId, phi, x: StateId, f: HorizonFunctional
) -> MeasureValue:
    """Measure of {f holds and no return to x0 from the horizon onward}.

    This is the measure's defining formula E_x[f(X_0..X_n) * phi(X_n)],
    evaluated exactly by path enumeration.
    """
    get = _phi_eval(phi)
    total = Fraction(0)
    for pw in enumerate_paths(chain, x, f.horizon):
        states = tuple(pw.states)
        weight = f.evaluate(states)
        if weight:
            total += pw.probability * weight * get(states[-1])
    return MeasureValue(value=total, mode="exact", note=f.description)


def _sequence_verdict(values) -> str:
    if len(values) >= 2:
        last = float(values[-1])
        inc = float(values[-1] - values[-2])
        if last != 0 and abs(inc) < CONVERGED_REL * abs(last):
            return "converged"
    if len(values) >= 4:
        d = [float(b - a) for a, b in zip(values[:-1], values[1:])]
        if min(d[-3:]) > 0 and d[-1] > DIVERGES_RATIO * d[-2]:
            return "diverges"
    return "undetermined"


def cylinder_measure(
    chain: ChainSpec,
    x0: StateId,
    phi,
    x: StateId,
    event: HorizonFunctional,
    horizons: Sequence[int],
) -> MeasureValue:
    """Monotone lower approximation of an indicator event's measure.

    For each horizon n >= the event horizon, the weight
    E_x[1_event * phi(X_n)] is computed by an exact forward dynamic
    program; these weights increase to the event's measure, which may be
    infinite. Verdict: «diverges» after three positive increments whose
    last ratio exceeds 0.9, «converged» when the last increment drops
    below 1e-9 of the value, else «undetermined».
    """
    if event.allowed is None:
        raise ValueError("cylinder_measure needs an indicator-type functional")
    horizons = list(horizons)
    if horizons != sorted(set(horizons)):
        raise ValueError("horizons must be strictly increasing")
    if not horizons or horizons[0] < event.horizon:
        raise ValueError(f"horizons must start at or after {event.horizon}")
    get = _phi_eval(phi)
    try:
        values = _cylinder_values(chain.code_table([x], horizons[-1]), get, x, event, horizons)
    except LookupError:  # the walk left the vectorized table's range
        values = _cylinder_values(SuccessorTable(chain), get, x, event, horizons)
    return MeasureValue(
        value=values[-1],
        mode="monotone-sequence",
        sequence=list(zip(horizons, values)),
        verdict=_sequence_verdict(values),
        note=event.description,
    )


def _cylinder_values(table, get, x, event, horizons):
    """The forward program over state codes with integer weights.

    After t steps the weight of a state is its numerator over the product
    of the steps' denominators; each horizon's value is one Fraction.
    Raises LookupError when a step reaches a state the table cannot name.
    """
    codes = table.encode([x]) if event.allowed(0, x) else np.zeros(0, dtype=np.int64)
    weights = np.ones(len(codes), dtype=object)
    states = table.decode(codes)
    scale = 1
    phis: dict = {}
    values = []
    t = 0
    for n in horizons:
        while t < n:
            succ, num, den = table.step(codes)
            live = num > 0
            flat = succ[live]
            if (flat == UNNAMED).any():
                raise LookupError("state outside the code table's range")
            codes, weights = sum_by_key(flat, (weights[:, None] * num)[live])
            states = table.decode(codes)
            keep = np.fromiter(
                (event.allowed(t + 1, s) for s in states), dtype=bool, count=len(states)
            )
            codes, weights = codes[keep], weights[keep]
            states = [s for s, k in zip(states, keep) if k]
            scale *= den
            t += 1
        for s in states:
            if s not in phis:
                phis[s] = get(s)
        values.append(_weighted_sum(weights.tolist(), [phis[s] for s in states], scale))
    return values


def _weighted_sum(weights, phis, scale):
    """sum(w * phi) / scale, as one Fraction when every phi is rational."""
    if all(isinstance(v, (int, Fraction)) for v in phis):
        lcd = math.lcm(1, *(Fraction(v).denominator for v in phis))
        total = sum(
            w * v.numerator * (lcd // v.denominator)
            for w, v in zip(weights, map(Fraction, phis))
        )
        return Fraction(total, scale * lcd)
    return sum((Fraction(w, scale) * v for w, v in zip(weights, phis)), Fraction(0))


# ---------------------------------------------------------------------------
# Concatenation consistency


@dataclass
class ConcatenationReport:
    paths_checked: int
    nonzero_paths: int
    max_discrepancy: Fraction

    @property
    def all_ok(self) -> bool:
        return self.max_discrepancy == 0


def verify_concatenation(
    chain: ChainSpec, x0: StateId, phi, x: StateId, y: StateId, n: int, p: int
) -> ConcatenationReport:
    """Split-at-time-n consistency over all length-p path indicators.

    For every path w of length p from x, the direct restricted weight
    P(w) [w_n = y] phi(w_p) must equal the product of an independently
    enumerated prefix weight P(w_0..w_n) and suffix weight P_y(w_n..w_p)
    times phi(w_p). Exact equality is required path by path; the two
    sides come from separate enumeration passes.
    """
    if not 0 <= n <= p:
        raise ValueError("need 0 <= n <= p")
    get = _phi_eval(phi)
    prefix = {
        tuple(pw.states): pw.probability
        for pw in enumerate_paths(chain, x, n)
        if pw.states[-1] == y
    }
    suffix = {
        tuple(pw.states): pw.probability for pw in enumerate_paths(chain, y, p - n)
    }
    worst = Fraction(0)
    checked = nonzero = 0
    for pw in enumerate_paths(chain, x, p):
        states = tuple(pw.states)
        checked += 1
        lhs = pw.probability * get(states[-1]) if states[n] == y else Fraction(0)
        rhs = (
            prefix.get(states[: n + 1], Fraction(0))
            * suffix.get(states[n:], Fraction(0))
            * get(states[-1])
        )
        if lhs or rhs:
            nonzero += 1
        worst = max(worst, abs(lhs - rhs))
    return ConcatenationReport(checked, nonzero, worst)


# ---------------------------------------------------------------------------
# Avoidance measure


@dataclass(frozen=True)
class AvoidanceConfig:
    """Tuning for the avoidance bracket.

    ``restriction_split`` places the base-barring time of the lower-bound
    program at that fraction of the first horizon; the bracket is called
    closed when its width is within ``tolerance`` of the midpoint.
    """

    horizons: tuple = (128, 256, 512, 1024)
    tolerance: float = 0.05
    restriction_split: float = 0.5
    state_budget: int = DP_STATE_BUDGET


def avoidance_function(
    chain: ChainSpec,
    x0: StateId,
    phi,
    x: StateId,
    y: StateId,
    config: AvoidanceConfig = AvoidanceConfig(),
) -> MeasureValue:
    """Measure of the paths from x that never visit y.

    Exact shortcuts: the event is empty for x = y, and for y = x0 the
    value is phi(x). When y separates x from x0, killing at y alone
    gives the weight U_m = E_x[1_{T_y > m} phi(X_m)], and optional
    stopping pins U_m - phi(y) P_x(T_y > m) = phi(x) - phi(y): a
    certified constant lower bound, with bracket width phi(y) P(T_y > m)
    shrinking to zero on recurrent chains. Otherwise the lower bound
    comes from doubly restricted weights (y barred throughout, x0 barred
    from a fixed intermediate time on), nondecreasing in the horizon,
    and the upper bound is the exact
    phi(x) + balance * E_x[visits to x0 before T_y]. A bracket wider
    than the tolerance is reported with verdict "inconclusive".
    """
    get = _phi_eval(phi)
    if x == y:
        return MeasureValue(
            Fraction(0), "exact", verdict="exact",
            note="start equals the barred state",
        )
    if y == x0:
        return MeasureValue(
            get(x), "exact", verdict="exact",
            note="barred state is the base point",
        )
    if chain.separating(y, x, x0):
        return _avoidance_separating(chain, x0, get, x, y, config)
    return _avoidance_generic(chain, x0, get, x, y, config)


def _finite_phi(get, s):
    """float(get(s)), or None when s is outside the profile's float range."""
    try:
        out = float(get(s))
    except (OverflowError, ValueError):
        return None
    return out if np.isfinite(out) else None


def _reachable_ball(chain, start, get, max_layers, budget):
    """States reachable from ``start`` in complete BFS layers, with the
    forward kernel and the profile over them.

    One vectorized breadth-first search over state codes: each layer lists
    the successors of the previous one in order of first occurrence.
    Growth stops at ``max_layers``, when the next layer would push the
    count past ``budget``, when the profile stops being float-representable
    on the next layer (fast-growing profiles on slim chains), or when the
    next layer leaves the code table's range; within ``completed_layers``
    steps no probability mass can leave the ball. The profile is evaluated
    once per state. Returns (states, completed_layers, kernel, phi_vec):
    ``kernel`` maps mass w to w P restricted to the ball.
    """
    from scipy.sparse import csr_matrix

    table = chain.code_table([start], max_layers)
    states, codes, phi, layers = _bfs(table, start, get, max_layers, budget)
    op = window_operator(table, codes)
    n = len(states)
    kernel = csr_matrix((op.float_values(), (op.indices, op.rows)), shape=(n, n))
    return states, layers, kernel, np.array(phi)


def _bfs(table, start, get, max_layers, budget):
    """Breadth-first layers over codes: (states, codes, phi, layers)."""
    frontier = table.encode([start])
    states, layer_codes = [start], [frontier]
    phi = [float(get(start))]
    seen = set(frontier.tolist())
    layers = 0
    while layers < max_layers and frontier.size:
        succ, num, _ = table.step(frontier)
        nxt = []
        for c in succ[num > 0].tolist():  # frontier order, then successor order
            if c not in seen:
                seen.add(c)
                nxt.append(c)
        if UNNAMED in seen or len(states) + len(nxt) > budget:
            break
        frontier = np.array(nxt, dtype=np.int64)
        nxt_states = table.decode(frontier)
        values = [_finite_phi(get, s) for s in nxt_states]
        if any(v is None for v in values):
            break
        states.extend(nxt_states)
        phi.extend(values)
        layer_codes.append(frontier)
        layers += 1
    return states, np.concatenate(layer_codes), phi, layers


def _trim_horizons(horizons, usable):
    kept = [m for m in sorted(horizons) if m <= usable]
    return kept or [max(1, usable)]


def _avoidance_separating(chain, x0, get, x, y, config):
    """Separation branch: one killing site, constant certified lower bound."""
    states, usable, kernel, phi_vec = _reachable_ball(
        chain, x, get, max(config.horizons), config.state_budget
    )
    horizons = _trim_horizons(config.horizons, usable)
    index = {s: i for i, s in enumerate(states)}
    phi_y = float(get(y))
    iy = index.get(y)
    w = np.zeros(len(states))
    w[index[x]] = 1.0
    seq = []
    t = 0
    for m in horizons:
        while t < m:
            w = kernel @ w
            if iy is not None:
                w[iy] = 0.0
            t += 1
        seq.append((m, float(w @ phi_vec) - phi_y * float(w.sum())))
    lower = seq[-1][1]
    upper = float(w @ phi_vec)
    return _bracket_value(
        seq, lower, upper, config.tolerance, True,
        "separation: reaching the base from here requires passing the barred state",
    )


def _avoidance_generic(chain, x0, get, x, y, config):
    """Generic branch: doubly restricted lower bound, visit-bound upper."""
    states, usable, kernel, phi_vec = _reachable_ball(
        chain, x, get, max(config.horizons), config.state_budget
    )
    horizons = _trim_horizons(config.horizons, usable)
    n_switch = max(1, int(config.restriction_split * horizons[0]))
    index = {s: i for i, s in enumerate(states)}
    phi_y = float(get(y))
    iy, ix0 = index.get(y), index.get(x0)

    w = np.zeros(len(states))
    w[index[x]] = 1.0
    seq = []
    t = 0
    for m in horizons:
        while t < m:
            w = kernel @ w
            if iy is not None:
                w[iy] = 0.0
            if t + 1 >= n_switch and ix0 is not None:
                w[ix0] = 0.0
            t += 1
        seq.append((m, float(w @ phi_vec) - phi_y * float(w.sum())))

    lower = max(max(v for _, v in seq), 0.0)
    balance = float(sum((p * get(s) for s, p in chain.successors(x0)), Fraction(0)))
    visits, certified = _base_visits_before(chain, x, y, x0)
    upper = float(get(x)) + balance * visits
    return _bracket_value(
        seq, lower, upper, config.tolerance, certified,
        "generic bracket: doubly restricted lower bound, visit-bound upper",
    )


def _bracket_value(seq, lower, upper, tolerance, certified, note):
    value = 0.5 * (lower + upper)
    closed = (
        certified
        and upper >= lower - 1e-12
        and upper - lower <= tolerance * max(abs(value), 1e-12)
    )
    return MeasureValue(
        value=value,
        mode="monotone-sequence",
        sequence=seq,
        verdict="bracket-closed" if closed else "inconclusive",
        bracket=(lower, upper),
        note=note,
    )


def _base_visits_before(chain, x, y, x0):
    """E_x[# visits to x0 strictly before hitting y] and its certification.

    On chains whose beyond-window excursions re-enter where they left,
    loop truncation at any connected window containing x, y and x0 is
    exact: the solve runs on their hull when the chain knows it (the
    interval on the line and the half line, the union of geodesics on the
    tree), else on a window of the containing radius. The planar walk gets
    the potential-kernel closed form. Anything else falls back to a
    generously windowed loop solve, flagged as uncertified.
    """
    if isinstance(chain, Z2Walk):
        from .potential import origin_killed_green, potential_table

        dx = (x[0] - y[0], x[1] - y[1])
        d0 = (x0[0] - y[0], x0[1] - y[1])
        radius = max(abs(c) for c in (*dx, *d0, dx[0] - d0[0], dx[1] - d0[1]))
        table = potential_table(radius)
        return float(origin_killed_green(table, dx, d0)), True
    certified = bool(getattr(chain, "loop_truncation_exact", False))
    window = chain.hull([x, y, x0]) if certified else None
    if window is None:
        margin = 2 if certified else 25
        radius = max(state_norm(chain, s) for s in (x, y, x0)) + margin
        window = chain.window(radius)
    exact = len(window) <= EXACT_SOLVE_LIMIT
    index, col = _killed_column_values(chain, y, window, [x0], "loop", exact)
    return float(col[x0][index[x]]), certified
