"""Sigma-finite path measures induced by a harmonic profile.

A profile phi, a callable vanishing at a base state x0 and harmonic
elsewhere, defines a measure W on paths through the restricted-weight
formula: the measure of {F_n happens and the walk never revisits x0 from
time n on} equals E_x[F_n * phi(X_n)]. Restricted weights are exact
rational expectations.

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
  certified. Elsewhere it brackets the value with the same identity, by
  visit counts solved on one window under each truncation policy. Every
  visit count is a column of a ``green.window_system`` operator killed at y.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .chains import ChainSpec, StateId, enumerate_paths, law_capability, law_class
from .examplechains import Z2Walk
from .green import EXACT_SOLVE_LIMIT, _solve_columns, _window_values, window_system
from .window import WINDOW_STATE_BUDGET, budgeted_window_size, one_step_averages, propagate, weighted_sum


# ---------------------------------------------------------------------------
# Horizon functionals


@dataclass(frozen=True)
class HorizonFunctional:
    """A nonnegative functional of the first ``horizon + 1`` path states.

    ``evaluate`` maps a state tuple (of length > horizon) to a number.
    ``allowed`` is the per-time constraint view used by the dynamic
    programs; it is present exactly for indicator-type functionals, whose
    ``evaluate`` is derived from it when not given: ``evaluate(path)`` is 1
    iff every ``(t, path[t])`` with t <= ``horizon`` is allowed, else 0.
    ``allowed(t, s)`` is only consulted for t <= ``horizon``: the event is
    fixed by then, so it must hold for every state at every later time.
    """

    horizon: int
    evaluate: Optional[Callable[[tuple], object]] = None
    allowed: Optional[Callable[[int, StateId], bool]] = None
    description: str = ""

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.evaluate is None:
            if self.allowed is None:
                raise ValueError("a functional needs evaluate or allowed")
            object.__setattr__(self, "evaluate", _indicator(self.horizon, self.allowed))


def _indicator(horizon: int, allowed) -> Callable[[tuple], Fraction]:
    """Fraction(1) on a path whose every ``(t, path[t])`` with t <= horizon
    is allowed, Fraction(0) on any other."""

    def evaluate(path):
        ok = all(allowed(t, s) for t, s in enumerate(path[: horizon + 1]))
        return Fraction(1) if ok else Fraction(0)

    return evaluate


def path_indicator(states: Sequence[StateId]) -> HorizonFunctional:
    """Indicator of one explicit initial path X_0, ..., X_n."""
    fixed = list(states)
    if not fixed:
        raise ValueError("path must contain at least the starting state")
    n = len(fixed) - 1

    def ok(t, s):
        return t > n or s == fixed[t]

    return HorizonFunctional(n, allowed=ok, description=f"path of length {n}")


def state_at_time(m: int, state: StateId) -> HorizonFunctional:
    """Indicator of X_m = state."""
    if m < 0:
        raise ValueError("time must be >= 0")

    def ok(t, s):
        return t != m or s == state

    return HorizonFunctional(m, allowed=ok, description=f"state pinned at time {m}")


def avoid_states(banned, horizon: int) -> HorizonFunctional:
    """Indicator of X_t outside ``banned`` for all t in [0, horizon]."""
    banned = frozenset(banned)

    def ok(t, s):
        return t > horizon or s not in banned

    return HorizonFunctional(horizon, allowed=ok, description=f"avoids {len(banned)} state(s)")


def constant_one(horizon: int = 0) -> HorizonFunctional:
    return HorizonFunctional(horizon, allowed=lambda t, s: True, description="1")


def with_no_base_visits(
    f: HorizonFunctional, x0: StateId, start: int, stop: int
) -> HorizonFunctional:
    """f further restricted by {X_t != x0 for start <= t < stop}."""
    if stop <= start:
        raise ValueError("empty restriction range")
    horizon = max(f.horizon, stop - 1)
    description = f"{f.description}, base barred on [{start},{stop})"
    if f.allowed:
        def ok(t, s):
            return not (start <= t < stop and s == x0) and f.allowed(t, s)

        return HorizonFunctional(horizon, allowed=ok, description=description)

    def ev(path):
        if any(path[t] == x0 for t in range(start, min(stop, len(path)))):
            return Fraction(0)
        return f.evaluate(path)

    return HorizonFunctional(horizon, ev, description=description)


# ---------------------------------------------------------------------------
# Measure values


@dataclass
class MeasureValue:
    """A measure evaluation: exact, a monotone horizon sequence, or a bracket.

    ``sequence`` entries are (horizon, value) pairs of a cylinder program,
    nondecreasing in the value; ``bracket`` is a (lower, upper) enclosure
    of an avoidance value, a single point when the value is exact. An
    inconclusive bracket is reported, never raised.
    """

    value: object
    mode: str  # "exact" | "monotone-sequence" | "bracket"
    sequence: Optional[list] = None
    verdict: Optional[str] = None
    bracket: Optional[tuple] = None
    note: str = ""

    def __float__(self):
        return float(self.value)


def restricted_measure(
    chain: ChainSpec, x0: StateId, phi, x: StateId, f: HorizonFunctional
) -> MeasureValue:
    """Measure of {f holds and no return to x0 from the horizon onward}.

    This is the measure's defining formula E_x[f(X_0..X_n) * phi(X_n)],
    evaluated exactly by path enumeration.
    """
    total = Fraction(0)
    for pw in enumerate_paths(chain, x, f.horizon):
        states = pw.states
        weight = f.evaluate(states)
        if weight:
            total += pw.probability * weight * phi(states[-1])
    return MeasureValue(value=total, mode="exact", note=f.description)


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

    def keep(t, states):  # past the horizon every state is allowed
        return [event.allowed(t, s) for s in states] if t <= event.horizon else None

    times = sorted({event.horizon, *horizons})
    laws = dict(zip(times, propagate(chain, x, times, keep)))
    phis = {s: phi(s) for s in dict.fromkeys(s for n in horizons for s in laws[n][0])}
    values = [weighted_sum(w, [phis[s] for s in states], scale)
              for states, w, scale in (laws[n] for n in horizons)]
    possible = sum(laws[event.horizon][1]) > 0  # P_x(event) > 0
    diverges = possible and one_step_averages(chain, [x0], phi)[0][0] > 0
    return MeasureValue(
        value=values[-1],
        mode="monotone-sequence",
        sequence=list(zip(horizons, values)),
        verdict="diverges" if diverges else "converged",
        note=event.description,
    )


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
    prefix = {
        pw.states: pw.probability
        for pw in enumerate_paths(chain, x, n)
        if pw.states[-1] == y
    }
    suffix = {pw.states: pw.probability for pw in enumerate_paths(chain, y, p - n)}
    worst = Fraction(0)
    checked = nonzero = 0
    for pw in enumerate_paths(chain, x, p):
        states = pw.states
        checked += 1
        lhs = pw.probability * phi(states[-1]) if states[n] == y else Fraction(0)
        rhs = (
            prefix.get(states[: n + 1], Fraction(0))
            * suffix.get(states[n:], Fraction(0))
            * phi(states[-1])
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
    ignore it. For the others, ``state_budget`` is the most states the
    bracket's solve window may hold; a larger window raises ValueError
    before it is built.
    """

    state_budget: int = WINDOW_STATE_BUDGET


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
    a subclass) get a bracket from the same identity, with visit counts
    solved on one window operator around x, y and x0 under each policy.
    A walk killed at the window edge makes no visits after it, so for
    b >= 0 the lower side max(0, phi(x) - phi(y) + b * V_kill) is
    certified (exact while the window is within the exact solve limit);
    the upper side phi(x) + b * V_loop drops phi(y) and takes the looped
    count, which no killed walk exceeds, so the bracket cannot invert for
    a nonnegative phi. The verdict is "inconclusive", the mode "bracket"
    and the value the midpoint.
    """
    if x == y:
        return MeasureValue(
            Fraction(0), "exact", verdict="exact",
            note="start equals the barred state",
        )
    if y == x0:
        return MeasureValue(
            phi(x), "exact", verdict="exact",
            note="barred state is the base point",
        )
    balance = one_step_averages(chain, [x0], phi)[0][0]
    if not _visits_certified(chain):
        v_kill, v_loop = _uncertified_visits(chain, x, y, x0, config.state_budget)
        lower = float(max(0, phi(x) - phi(y) + balance * v_kill))
        upper = float(phi(x)) + float(balance) * float(v_loop)
        return MeasureValue(
            0.5 * (lower + upper), "bracket", verdict="inconclusive",
            bracket=(lower, upper),
            note="uncertified bracket: identity with killed and looped visit counts",
        )
    if law_capability(chain, "separating")(y, x, x0):
        visits, note = 0, "; no base visits, the barred state separates"
    else:
        visits, note = _base_visits_before(chain, x, y, x0), ""
    value = phi(x) - phi(y) + balance * visits
    return MeasureValue(
        value, "exact", verdict="bracket-closed", bracket=(float(value), float(value)),
        note="identity phi(x) - phi(y) + balance * E_x[visits to base before T_y]" + note,
    )


def _visits_certified(chain) -> bool:
    """Whether ``_base_visits_before`` is exact for the infinite chain."""
    return law_class(chain) is Z2Walk or bool(law_capability(chain, "loop_truncation_exact"))


def _base_visits_before(chain, x, y, x0):
    """E_x[# visits to x0 strictly before hitting y], on a chain whose law
    certifies it (``_visits_certified``).

    On chains whose beyond-window excursions re-enter where they left,
    loop truncation at any connected window containing x, y and x0 is
    exact: a ``Fraction`` solved (``green._window_values``) on their hull
    when the chain knows it (the line's and half line's interval, the
    tree's geodesics), else on the radius window two past the farthest of
    them. The planar walk's law gets the
    potential-kernel closed form, as a float. Capabilities count only
    where the chain's law vouches for them (``law_capability``).
    """
    if law_class(chain) is Z2Walk:
        from .potential import origin_killed_green, potential_table

        dx = (x[0] - y[0], x[1] - y[1])
        d0 = (x0[0] - y[0], x0[1] - y[1])
        radius = max(abs(c) for c in (*dx, *d0, dx[0] - d0[0], dx[1] - d0[1]))
        table = potential_table(radius)
        return float(origin_killed_green(table, dx, d0))
    window = law_capability(chain, "hull")([x, y, x0])
    if window is None:
        window = max(chain.norm(s) for s in (x, y, x0)) + 2
    return _window_values(chain, window, [(x, x0)], True, kill_into=y)[0]


def _uncertified_visits(chain, x, y, x0, budget=WINDOW_STATE_BUDGET):
    """The visit count before T_y killed and looped at one window's edge.

    The window reaches ``chain.radius_margin`` + 5 past x, y and x0; past
    ``budget`` states (``window_size``) it raises ValueError unbuilt. Its
    one operator is solved exactly within the exact solve limit.
    """
    radius = max(chain.norm(s) for s in (x, y, x0)) + chain.radius_margin + 5
    size = budgeted_window_size(chain, radius, "uncertified avoidance", budget)
    exact = size <= EXACT_SOLVE_LIMIT
    (at0, at), op = window_system(chain, radius, [x0, x], kill_into=y, policy="kill")
    counts = [_solve_columns(o, [at0], exact)[0][at] for o in (op, op.looped())]
    return counts if exact else [float(c) for c in counts]
