"""Sigma-finite path measures induced by a harmonic profile.

A profile phi vanishing at a base state x0 and harmonic elsewhere defines
a measure W on paths through the restricted-weight formula: the measure
of {F_n happens and the walk never revisits x0 from time n on} equals
E_x[F_n * phi(X_n)]. Restricted weights are exact rational expectations.

One martingale settles the rest on a recurrent chain. With the balance
b = sum_z P(x0, z) phi(z), M_n = phi(X_n) - b * #{k < n : X_k = x0} is a
martingale from any start: phi is harmonic off x0 and averages to b from
x0, where it vanishes.

- Cylinders. For an event F fixed by time m and n >= m,
  E_x[1_F phi(X_n)] = E_x[1_F (phi(X_m) + b * E_{X_m}[visits to x0 in
  n - m steps])], and recurrence sends the visit count to infinity. So
  W(F) is infinite exactly when b > 0 and P_x(F) > 0 (a nonzero profile
  has b > 0: with b = 0 it is harmonic everywhere, hence constant, hence
  0). The cylinder evaluator reports the monotone horizon sequence with
  that verdict.
- Avoidance. Stopping M at m ^ T_y gives U_m = E_x[phi(X_m); T_y > m] =
  phi(x) + b * E_x[visits to x0 before m ^ T_y] - phi(y) P_x(T_y <= m),
  which tends to
  W_x(T_y = oo) = phi(x) - phi(y) + b * E_x[visits to x0 before T_y].
  The avoidance evaluator returns this value wherever the visit count is
  certified, and a two-sided bracket elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .chains import ChainSpec, StateId, enumerate_paths, law_capability, law_class
from .examplechains import Z2Walk
from .green import EXACT_SOLVE_LIMIT, _killed_column_values
from .window import UNNAMED, SuccessorTable, sum_by_key, window_operator

#: Ceiling on states in the ball of the uncertified avoidance bracket.
DP_STATE_BUDGET = 400_000


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
    value; ``bracket`` is a (lower, upper) enclosure of an avoidance value,
    a single point when the value is exact. An inconclusive bracket is
    reported, never raised.
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


def _balance(chain, x0, get):
    """b = sum_z P(x0, z) phi(z), the profile's one-step average from x0."""
    return sum((p * get(s) for s, p in chain.successors(x0)), Fraction(0))


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
    program; these weights increase to the event's measure. On a
    recurrent chain that measure is infinite exactly when the balance b
    at the base and P_x(event) are both positive (module docstring), so
    the verdict is «diverges» then and «converged» otherwise. P_x(event)
    is the program's total weight at the event horizon.
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
        values, mass = _cylinder_values(
            chain.code_table([x], horizons[-1]), get, x, event, horizons
        )
    except LookupError:  # the walk left the vectorized table's range
        values, mass = _cylinder_values(SuccessorTable(chain), get, x, event, horizons)
    diverges = mass > 0 and _balance(chain, x0, get) > 0
    return MeasureValue(
        value=values[-1],
        mode="monotone-sequence",
        sequence=list(zip(horizons, values)),
        verdict="diverges" if diverges else "converged",
        note=event.description,
    )


def _cylinder_values(table, get, x, event, horizons):
    """The forward program over state codes with integer weights.

    After t steps the weight of a state is its numerator over the product
    of the steps' denominators; each horizon's value is one Fraction.
    Returns the values and P_x(event), the total weight at the event
    horizon. Raises LookupError when a step reaches a state the table
    cannot name.
    """
    codes = table.encode([x]) if event.allowed(0, x) else np.zeros(0, dtype=np.int64)
    weights = np.ones(len(codes), dtype=object)
    states = table.decode(codes)
    scale = 1
    phis: dict = {}
    values = []
    mass = Fraction(len(codes))
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
            if t == event.horizon:
                mass = Fraction(int(weights.sum()), scale)
        for s in states:
            if s not in phis:
                phis[s] = get(s)
        values.append(_weighted_sum(weights.tolist(), [phis[s] for s in states], scale))
    return values, mass


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
    """Tuning for the uncertified avoidance bracket.

    Chains whose visit count is certified get the exact identity and
    ignore it. For the others, the lower side is a forward program over a
    ball of at most ``state_budget`` states, run to each of ``horizons``,
    with the base barred from ``restriction_split`` of the first horizon
    on.
    """

    horizons: tuple = (128, 256, 512, 1024)
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

    The event is empty for x = y, and for y = x0 the value is phi(x).
    Otherwise, on a recurrent chain,

        W_x(T_y = oo) = phi(x) - phi(y) + b * E_x[visits to x0 before T_y]

    with b = sum_z P(x0, z) phi(z). Proof sketch: M_n = phi(X_n) -
    b * #{k < n : X_k = x0} is a martingale (phi is harmonic off x0 and
    averages to b from x0, where it vanishes); stopping it at m ^ T_y
    gives E_x[phi(X_m); T_y > m] = phi(x) + b * E_x[visits before m ^ T_y]
    - phi(y) P_x(T_y <= m). That is the measure of {T_y > m, no base
    visit from m on}; the part of it that reaches y later weighs at most
    phi(y) P_x(T_y > m), so recurrence sends it to the left side, and the
    right side to the identity. When y separates x from x0 the visit term
    is 0; otherwise it is ``_base_visits_before``, exact on the chains whose
    law certifies it (a ``Fraction`` for rational profiles; a float on the
    plane). The result is exact, with verdict "bracket-closed" and the
    one-point bracket (value, value).

    Chains without a certified visit count (user chains, laws changed by
    a subclass) get a bracket: the lower side comes from doubly
    restricted weights (y barred throughout, x0 barred from a fixed
    intermediate time on), nondecreasing in the horizon, and the upper
    side is the identity with an uncertified visit count, so the verdict
    is "inconclusive".
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
    if not _visits_certified(chain):
        return _avoidance_generic(chain, x0, get, x, y, config)
    if law_capability(chain, "separating")(y, x, x0):
        visits, note = 0, "; no base visits, the barred state separates"
    else:
        visits, note = _base_visits_before(chain, x, y, x0)[0], ""
    value = get(x) - get(y) + _balance(chain, x0, get) * visits
    return MeasureValue(
        value, "exact", verdict="bracket-closed", bracket=(float(value), float(value)),
        note="identity phi(x) - phi(y) + balance * E_x[visits to base before T_y]" + note,
    )


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


def _avoidance_generic(chain, x0, get, x, y, config):
    """Uncertified bracket: doubly restricted lower bound, visit-bound upper."""
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
    visits, _ = _base_visits_before(chain, x, y, x0)
    upper = float(get(x)) + float(_balance(chain, x0, get)) * float(visits)
    return MeasureValue(
        value=0.5 * (lower + upper),
        mode="monotone-sequence",
        sequence=seq,
        verdict="inconclusive",
        bracket=(lower, upper),
        note="generic bracket: doubly restricted lower bound, visit-bound upper",
    )


def _visits_certified(chain) -> bool:
    """Whether ``_base_visits_before`` is exact for the infinite chain."""
    return law_class(chain) is Z2Walk or bool(law_capability(chain, "loop_truncation_exact"))


def _base_visits_before(chain, x, y, x0):
    """E_x[# visits to x0 strictly before hitting y] and its certification.

    On chains whose beyond-window excursions re-enter where they left,
    loop truncation at any connected window containing x, y and x0 is
    exact: the solve runs on their hull when the chain knows it (the
    interval on the line and the half line, the union of geodesics on the
    tree), else on a window of the containing radius, and returns a
    ``Fraction`` while the window is within the exact solve limit. The
    planar walk's law gets the potential-kernel closed form, as a float.
    Anything else falls back to a generously windowed loop solve (see
    ``ChainSpec.radius_margin``), flagged as uncertified. Each capability
    counts only where the chain's law vouches for it (``law_capability``).
    """
    if law_class(chain) is Z2Walk:
        from .potential import origin_killed_green, potential_table

        dx = (x[0] - y[0], x[1] - y[1])
        d0 = (x0[0] - y[0], x0[1] - y[1])
        radius = max(abs(c) for c in (*dx, *d0, dx[0] - d0[0], dx[1] - d0[1]))
        table = potential_table(radius)
        return float(origin_killed_green(table, dx, d0)), True
    certified = _visits_certified(chain)
    window = law_capability(chain, "hull")([x, y, x0]) if certified else None
    if window is None:
        # an uncertified solve reaches five levels past the chain's own
        # solve margin: 25 on the line, 7 on the fast-growing tree
        margin = 2 if certified else chain.radius_margin + 5
        radius = max(chain.norm(s) for s in (x, y, x0)) + margin
        window = chain.window(radius)
    exact = len(window) <= EXACT_SOLVE_LIMIT
    index, col = _killed_column_values(chain, y, window, [x0], "loop", exact)
    visits = col[x0][index[x]]
    return (visits if exact else float(visits)), certified
