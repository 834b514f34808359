"""Core chain abstractions: state spaces, trajectories, exact path algebra.

A chain is described by its one-step transition law with *exact* rational
probabilities. Everything downstream (Green-function solvers, harmonic
profiles, measure evaluations) builds on the small set of primitives here:
exact path enumeration, exact n-step distributions, seeded simulation, and
the stationary-measure identity check.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterator, Optional, Sequence

from .errors import MissingPredecessorsError, PathBudgetExceededError
from .rng import trajectory_generator
from .window import SuccessorTable

StateId = Hashable

#: Default cap on the number of paths enumerate_paths may produce.
DEFAULT_PATH_BUDGET = 10_000_000


class ChainSpec(ABC):
    """Transition structure of a countable-state Markov chain.

    Subclasses provide the successor law with exact `Fraction` probabilities
    and (when available) the predecessor law and an explicit stationary
    measure. `base_point` is the distinguished state the closed-form theory
    is anchored at (origin, root, ...).
    """

    #: Selector string, e.g. "z", "bangbang:q=1/3". Used by the CLI and reports.
    name: str = "chain"

    #: True when a self-loop at the window frontier reproduces excursions
    #: outside the window exactly (every excursion re-enters where it left).
    loop_truncation_exact: bool = False

    @property
    @abstractmethod
    def base_point(self) -> StateId:
        ...

    @abstractmethod
    def successors(self, x: StateId) -> list[tuple[StateId, Fraction]]:
        """Exact transition list [(y, p_xy)] with Σ p_xy = 1, finite support."""

    def predecessors(self, y: StateId) -> Optional[list[tuple[StateId, Fraction]]]:
        """[(x, p_xy)] over all x with p_xy > 0, or None when not tractable."""
        return None

    def stationary(self, x: StateId) -> Fraction:
        """Value β(x) of the (σ-finite) stationary measure, exact."""
        raise NotImplementedError(f"{self.name} does not expose a stationary measure")

    @abstractmethod
    def state_key(self, x: StateId):
        """Sort key inducing the chain's canonical total order on states."""

    @abstractmethod
    def format_state(self, x: StateId) -> str:
        ...

    @abstractmethod
    def parse_state(self, text: str) -> StateId:
        ...

    @abstractmethod
    def window(self, radius: int) -> list[StateId]:
        """All states within `radius` of the base point, canonically ordered."""

    def separating(self, y: StateId, x: StateId, x0: StateId) -> bool:
        """True when every path from x to x0 must pass through y."""
        return False

    def hull(self, states: Sequence[StateId]) -> Optional[list[StateId]]:
        """Smallest connected set of states containing ``states``, canonically
        ordered, or None when the chain does not know its graph's hulls."""
        return None

    def code_table(self, states: Sequence[StateId], reach: int = 1):
        """Integer state codes and the one-step law over them (see ``window``).

        The table names ``states`` and, as far as its range allows, every
        state within ``reach`` steps of them. It is the vectorized table of
        the class whose own ``successors`` gives this chain's law, when that
        class defines ``_vector_table(states, reach)`` and it returns one;
        otherwise the ``SuccessorTable`` derived from ``successors()``.
        """
        vector = law_class(self).__dict__.get("_vector_table")
        table = None if vector is None else vector(self, states, reach)
        return SuccessorTable(self) if table is None else table

    def sorted_states(self, states) -> list[StateId]:
        return sorted(states, key=self.state_key)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


def law_class(chain: ChainSpec) -> type:
    """The class whose own ``successors`` method gives ``chain``'s law.

    A vectorized description of a law (a code table, a Monte Carlo lane)
    belongs to this class: a subclass that overrides ``successors`` changes
    the law, so it runs the generic, ``successors``-driven paths.
    """
    return next(c for c in type(chain).__mro__ if "successors" in c.__dict__)


@dataclass(frozen=True)
class PathWeight:
    """One finite path with its exact probability."""

    path: "Trajectory"
    probability: Fraction

    @property
    def states(self) -> list:
        return self.path.states


@dataclass
class Trajectory:
    """A simulated path X_0, ..., X_n with occupation/hitting accessors."""

    states: list
    seed: Optional[int] = None
    index: Optional[int] = None

    def __len__(self) -> int:
        return len(self.states)

    @property
    def start(self) -> StateId:
        return self.states[0]

    @property
    def last(self) -> StateId:
        return self.states[-1]

    def occupation(self, y: StateId, n: Optional[int] = None) -> int:
        """Number of visits to y at times 0..n (whole path when n is None)."""
        if n is None:
            n = len(self.states) - 1
        return sum(1 for s in self.states[: n + 1] if s == y)

    def hitting_time(self, y: StateId) -> Optional[int]:
        """First n >= 0 with X_n = y, or None if y is never visited."""
        for n, s in enumerate(self.states):
            if s == y:
                return n
        return None

    def return_time(self, y: StateId) -> Optional[int]:
        """First n >= 1 with X_n = y, or None."""
        for n, s in enumerate(self.states):
            if n >= 1 and s == y:
                return n
        return None

    def visit_time(self, y: StateId, p: int) -> Optional[int]:
        """Time of the p-th visit to y, counting a visit at time 0."""
        if p < 1:
            raise ValueError("visit index must be >= 1")
        seen = 0
        for n, s in enumerate(self.states):
            if s == y:
                seen += 1
                if seen == p:
                    return n
        return None


def step_distribution(chain: ChainSpec, x: StateId) -> list[tuple[StateId, Fraction]]:
    """One-step law at x as [(state, probability)] in canonical state order."""
    moves = chain.successors(x)
    return sorted(moves, key=lambda sp: chain.state_key(sp[0]))


def distribution_after(chain: ChainSpec, x: StateId, n: int) -> dict:
    """Exact distribution of X_n started at x, as {state: Fraction}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    dist = {x: Fraction(1)}
    for _ in range(n):
        nxt: dict = {}
        for s, w in dist.items():
            for t, p in chain.successors(s):
                nxt[t] = nxt.get(t, Fraction(0)) + w * p
        dist = nxt
    return dist


def enumerate_paths(
    chain: ChainSpec,
    x: StateId,
    n: int,
    budget: int = DEFAULT_PATH_BUDGET,
) -> Iterator[PathWeight]:
    """Yield every length-n path from x with its exact probability.

    Raises PathBudgetExceededError as soon as more than `budget` paths would
    be produced.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    produced = 0
    stack: list[tuple[tuple, Fraction]] = [((x,), Fraction(1))]
    while stack:
        states, prob = stack.pop()
        if len(states) == n + 1:
            produced += 1
            if produced > budget:
                raise PathBudgetExceededError(produced, budget)
            yield PathWeight(Trajectory(list(states)), prob)
            continue
        for t, p in chain.successors(states[-1]):
            stack.append((states + (t,), prob * p))


def simulate(
    chain: ChainSpec,
    x: StateId,
    steps: int,
    seed: int,
    index: int = 0,
) -> Trajectory:
    """Simulate `steps` transitions from x on trajectory stream `index`.

    Deterministic in (chain, x, steps, seed, index): the same call always
    returns the same path.
    """
    gen = trajectory_generator(seed, index)
    states = [x]
    current = x
    for _ in range(steps):
        current = _sample_successor(chain, current, gen.random())
        states.append(current)
    return Trajectory(states, seed=seed, index=index)


def _sample_successor(chain: ChainSpec, x: StateId, u: float) -> StateId:
    """Map a uniform draw to a successor through the canonical ordering."""
    moves = sorted(chain.successors(x), key=lambda sp: chain.state_key(sp[0]))
    acc = 0.0
    for t, p in moves:
        acc += float(p)
        if u < acc:
            return t
    return moves[-1][0]


def row_sum(chain: ChainSpec, x: StateId) -> Fraction:
    """Exact sum of the outgoing probabilities at x (should be 1)."""
    return sum((p for _, p in chain.successors(x)), Fraction(0))


@dataclass
class StationaryRow:
    state: StateId
    measure: Fraction
    inflow: Fraction

    @property
    def ok(self) -> bool:
        return self.measure == self.inflow


@dataclass
class StationaryReport:
    rows: list[StationaryRow] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list[StationaryRow]:
        return [r for r in self.rows if not r.ok]


def verify_stationary(chain: ChainSpec, states: Sequence[StateId]) -> StationaryReport:
    """Check β(y) = Σ_x p_xy β(x) exactly on the given states.

    Requires the chain to expose predecessors; raises
    MissingPredecessorsError otherwise.
    """
    report = StationaryReport()
    for y in states:
        preds = chain.predecessors(y)
        if preds is None:
            raise MissingPredecessorsError(
                f"{chain.name} has no predecessor map; cannot verify stationarity"
            )
        inflow = sum((chain.stationary(x) * p for x, p in preds), Fraction(0))
        report.rows.append(StationaryRow(y, chain.stationary(y), inflow))
    return report
