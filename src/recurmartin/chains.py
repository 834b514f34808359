"""Core chain abstractions: state spaces and exact path algebra.

A chain is described by its one-step transition law with *exact* rational
probabilities. Everything downstream (Green-function solvers, harmonic
profiles, measure evaluations) builds on the primitives here: exact path
enumeration, exact n-step laws (``distribution_after``, stepped on the
chain's code table by ``window.propagate``) and the stationary-measure
identity check. The seeded Monte-Carlo ensembles live in ``green`` and ``htransform``.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterator, Optional, Sequence

from .errors import MissingPredecessorsError, PathBudgetExceededError
from .window import SuccessorTable, propagate

StateId = Hashable

#: Default cap on the number of paths enumerate_paths may produce.
DEFAULT_PATH_BUDGET = 10_000_000


class ChainSpec(ABC):
    """Transition structure of a countable-state Markov chain.

    Subclasses provide the successor law with exact `Fraction` probabilities
    and (when available) the predecessor law and an explicit stationary
    measure. `base_point` is the distinguished state (origin, root, ...):
    the default base of closed forms, which take any base, and the one
    base the Monte Carlo witness lanes run at.
    """

    #: Selector string, e.g. "z", "bangbang:q=1/3". Used by the CLI and reports.
    name: str = "chain"

    #: True when a self-loop at the window frontier reproduces excursions
    #: outside the window exactly (every excursion re-enters where it left).
    loop_truncation_exact: bool = False

    #: Radius a solve window takes beyond its farthest state
    #: (``green.default_radius``).
    radius_margin: int = 20

    #: Radius of the window a harmonicity check covers when none is given.
    check_radius: int = 25

    #: Separator between the states of a path's text form.
    path_separator: str = "."

    def norm(self, s: StateId) -> int:
        """Distance scale of a state: |x| for integers, length for tuples."""
        return len(s) if isinstance(s, tuple) else abs(int(s))

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

    def window_size(self, radius: int) -> int:
        """``len(window(radius))``, which fast-growing chains give in closed form."""
        return len(self.window(radius))

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

    def code_window(self, radius: int):
        """The radius window as ``(table, codes)``: a code table and the int64
        codes of ``window(radius)``'s states, in that order.

        The class whose own ``successors`` gives this chain's law gives the
        codes directly, without a state tuple, when it defines
        ``_window_codes(radius)``, lists its own ``window`` and returns a
        pair; otherwise the window is encoded on ``code_table(window)``.
        """
        law = law_class(self)
        direct = law.__dict__.get("_window_codes")
        if direct is not None and type(self).window is law.window:
            pair = direct(self, radius)
            if pair is not None:
                return pair
        window = self.window(radius)
        table = self.code_table(window)
        return table, table.encode(window)

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


def law_capability(chain: ChainSpec, name: str):
    """``chain``'s attribute ``name`` when its law vouches for it.

    A capability stating a fact about the law (``loop_truncation_exact``,
    ``separating``, ``hull``) holds only where ``law_class(chain)`` or one
    of its subclasses defines it; one inherited from above the law class
    described another law, so ``ChainSpec``'s default is returned instead.
    """
    law = law_class(chain)
    for cls in type(chain).__mro__:
        if name in cls.__dict__ and (cls is ChainSpec or issubclass(cls, law)):
            value = cls.__dict__[name]
            return value.__get__(chain, type(chain)) if hasattr(value, "__get__") else value
    raise AttributeError(name)


def owns_kernel(chain: ChainSpec, law: type) -> bool:
    """True when ``chain``'s ``exact_boundary_kernel`` (or its lack of one)
    is the one that ``law``, its ``law_class``, has.

    A description of the kernel kept beside the law (an array form, a
    witness lane's tilted table) stands for the chain's kernel only then:
    a subclass or instance that overrides the kernel has its own.
    """
    kernel = getattr(chain, "exact_boundary_kernel", None)
    return getattr(kernel, "__func__", kernel) is getattr(law, "exact_boundary_kernel", None)


def kernel_array(chain: ChainSpec):
    """The array form of ``chain``'s boundary kernel, bound to it, or None.

    ``_kernel_array(table, codes, alpha, base)`` gives the kernel at the
    states of ``codes`` as ``(nums, den)`` (integer numerators over one
    denominator), or None for a table it cannot read. It reads the codes
    through ``_code_depths``, so it stands for the kernel only where the law
    class defines that itself and the chain ``owns_kernel``; otherwise the
    kernel is evaluated state by state.
    """
    law = law_class(chain)
    if "_code_depths" not in law.__dict__ or not owns_kernel(chain, law):
        return None
    return chain._kernel_array


@dataclass(frozen=True)
class PathWeight:
    """One finite path X_0, ..., X_n with its exact probability."""

    states: tuple
    probability: Fraction


def step_distribution(chain: ChainSpec, x: StateId) -> list[tuple[StateId, Fraction]]:
    """One-step law at x as [(state, probability)] in canonical state order."""
    moves = chain.successors(x)
    return sorted(moves, key=lambda sp: chain.state_key(sp[0]))


def distribution_after(chain: ChainSpec, x: StateId, n: int) -> dict:
    """Exact law of X_n from x, {state: Fraction} over the states of positive probability."""
    ((states, weights, scale),) = propagate(chain, x, [n])
    return {s: Fraction(w, scale) for s, w in zip(states, weights)}


def _merged_row(chain: ChainSpec, x: StateId) -> dict:
    """The one-step law at x as {state: (numerator, denominator)}.

    A state listed more than once in ``successors(x)`` carries its summed
    probability, at the place of its first listing.
    """
    merged: dict = {}
    for t, p in chain.successors(x):
        merged[t] = merged.get(t, 0) + p
    return {t: p.as_integer_ratio() for t, p in merged.items()}


def enumerate_paths(
    chain: ChainSpec,
    x: StateId,
    n: int,
    budget: int = DEFAULT_PATH_BUDGET,
) -> Iterator[PathWeight]:
    """Yield every length-n path from x with its exact probability.

    A state listed more than once in a ``successors`` row is one step,
    carrying the summed probability, at the place of its first listing.
    Partial paths carry their probability as an unreduced integer pair,
    reduced once per yielded path. Raises PathBudgetExceededError as soon
    as more than `budget` paths (distinct state sequences) would be
    produced.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    produced = 0
    rows: dict = {}
    stack: list[tuple[tuple, int, int]] = [((x,), 1, 1)]
    while stack:
        states, num, den = stack.pop()
        if len(states) == n + 1:
            produced += 1
            if produced > budget:
                raise PathBudgetExceededError(produced, budget)
            yield PathWeight(states, Fraction(num, den))
            continue
        row = rows.get(states[-1])
        if row is None:
            row = rows[states[-1]] = list(_merged_row(chain, states[-1]).items())
        for t, (p, q) in row:
            stack.append((states + (t,), num * p, den * q))


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
