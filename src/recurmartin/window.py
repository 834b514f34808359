"""Integer window operators: a chain's one-step law over integer state codes.

A *code table* names states by int64 codes and gives the one-step law of
many states in one vectorized call. ``step(codes)`` returns ``(succ, num,
den)``: an (n, m) array of successor codes, an (n, m) array of integer
numerators over the common denominator ``den``, one row per state in the
order of the chain's ``successors`` list, and numerator 0 for an absent
entry. ``encode`` and ``decode`` map between states and codes; a successor
the table cannot name carries the code ``UNNAMED``.

``ChainSpec.code_table`` returns the table of the class whose own
``successors`` gives the chain's law (``chains.law_class``): the built-in
chains supply vectorized tables, everything else gets ``SuccessorTable``,
which derives the same table from ``successors()``.

``ChainSpec.code_window(radius)`` gives a radius window as a table and the
int64 codes of its states, directly from the law class where it defines
``_window_codes`` (the built-in laws), so no state of it is built;
``window_codes`` reads a window given as a radius this way and a state
sequence on ``code_table``. ``window_operator`` restricts a table to a set
of codes: a ``WindowOperator`` in CSR form with integer numerators over one
denominator. ``locate`` finds a few states' positions among a window's
codes by one ``encode`` call and one binary search over the sorted codes
(``code_positions``). Loop mass and duplicate entries are merged in
integers, so every float or ``Fraction`` entry taken from it is the
correctly rounded (or exact) value of the merged rational probability.

``propagate`` steps a table forward to exact n-step laws in integers and
``one_step_sums`` sums a function over one step's rows over one denominator,
both on ``SuccessorTable`` when the chain's table cannot name a successor.
A function's array form is its attribute ``array_values(table, codes)``: its
values at a step's codes as integer numerators over one denominator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

#: Code of a successor the table cannot name (outside its range).
UNNAMED = np.iinfo(np.int64).min

#: Numerators and denominators below this convert to float64 exactly.
_EXACT_FLOAT = 2**53

#: Nonnegative integers below this fit int64.
_INT64_BOUND = 2**63

#: Ceiling on the states of a window built on request.
WINDOW_STATE_BUDGET = 400_000


class _Unnamed(LookupError):
    """A step reached a live successor its code table cannot name."""


class SuccessorTable:
    """The default code table, derived from ``successors()``.

    Codes number states in the order the table first sees them, so it
    names every state; each ``step`` calls ``successors`` once per state
    and puts the row's probabilities over their least common denominator.
    """

    def __init__(self, chain):
        self.chain = chain
        self.states: list = []
        self._codes: dict = {}

    def _code(self, s) -> int:
        c = self._codes.get(s)
        if c is None:
            c = self._codes[s] = len(self.states)
            self.states.append(s)
        return c

    def encode(self, states) -> np.ndarray:
        return np.fromiter((self._code(s) for s in states), np.int64, len(states))

    def decode(self, codes) -> list:
        states = self.states
        return [states[c] for c in codes.tolist()]

    def step(self, codes):
        rows = [
            [(t, Fraction(p)) for t, p in self.chain.successors(s)]
            for s in self.decode(codes)
        ]
        den = math.lcm(1, *(p.denominator for row in rows for _, p in row))
        width = max((len(row) for row in rows), default=0)
        succ = np.array(
            [[self._code(t) for t, _ in row] + [UNNAMED] * (width - len(row)) for row in rows],
            dtype=np.int64,
        ).reshape(len(rows), width)
        num = int_array(
            [[p.numerator * (den // p.denominator) for _, p in row] + [0] * (width - len(row))
             for row in rows]
        ).reshape(len(rows), width)
        return succ, num, den


@dataclass
class WindowOperator:
    """A chain restricted to a window: CSR rows of integer numerators.

    Row i holds the transitions of window state i, with column indices
    ``indices[indptr[i]:indptr[i + 1]]`` in increasing order and
    probabilities ``num / den``. ``escaped[i] / den`` is the mass row i
    sends out of the window (dropped, the ``kill`` policy, until
    ``looped`` folds it into the diagonal; transitions into a killed state
    are not counted). ``len`` is the number of states; iterating yields
    each row's column indices.
    """

    indptr: np.ndarray
    indices: np.ndarray
    num: np.ndarray
    den: int
    escaped: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self):
        ptr = self.indptr.tolist()
        for i in range(len(ptr) - 1):
            yield self.indices[ptr[i] : ptr[i + 1]]

    @property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def looped(self) -> "WindowOperator":
        """The ``loop`` policy: escaped mass folded into self-loops, in integers."""
        folded = np.flatnonzero(self.escaped)
        return _operator(
            np.concatenate([self.rows, folded]),
            np.concatenate([self.indices, folded]),
            np.concatenate([self.num, self.escaped[folded]]),
            self.den,
            self.escaped,
        )

    def float_values(self) -> np.ndarray:
        """Entries as float64, each the correctly rounded num / den."""
        return exact_floats(self.num, self.den)


def exact_floats(num: np.ndarray, den) -> np.ndarray:
    """num / den as float64, each entry correctly rounded; ``den`` is one
    positive int or an array of them that broadcasts against ``num``."""
    den = np.asarray(den)
    if max(_max_abs(num), _max_abs(den.reshape(-1))) < _EXACT_FLOAT:
        return num.astype(np.float64) / den.astype(np.float64)
    num, den = np.broadcast_arrays(num, den)
    return np.array(
        [v / d for v, d in zip(num.ravel().tolist(), den.ravel().tolist())]
    ).reshape(num.shape)


def int_array(values) -> np.ndarray:
    """int64 array of Python ints, or an object array when they do not fit."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def sum_by_key(keys: np.ndarray, values: np.ndarray):
    """The distinct keys in increasing order, and the sum of each key's values."""
    rank = np.argsort(keys, kind="stable")
    keys, values = keys[rank], values[rank]
    if not keys.size:
        return keys, values
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(values, starts)


def _operator(rows, cols, vals, den, escaped) -> WindowOperator:
    """The operator of entries (rows, cols, vals), duplicates merged."""
    n = len(escaped)
    key, vals = sum_by_key(rows * n + cols, vals)
    rows, cols = np.divmod(key, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return WindowOperator(indptr, cols, vals, den, escaped)


def code_positions(codes: np.ndarray, order: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The position in ``codes`` of each code in ``wanted``, -1 where ``codes``
    lacks it, by one binary search; ``order`` is ``codes``' stable argsort."""
    if not len(codes):
        return np.full(len(wanted), -1, dtype=np.int64)
    at = np.searchsorted(codes[order], wanted)
    np.minimum(at, len(codes) - 1, out=at)
    at = order[at]  # position of the nearest code
    return np.where(codes[at] == wanted, at, -1)


def locate(table, codes: np.ndarray, order: np.ndarray, states) -> tuple:
    """The codes of ``states`` on ``table`` and their positions in the window
    ``codes`` (``code_positions``), from one ``encode`` call. A state the
    table refuses gets the code UNNAMED and position -1; only then are the
    states encoded one at a time, to find it."""
    try:
        found = table.encode(states)
    except (ValueError, OverflowError):
        found = np.array([_code_or_unnamed(table, s) for s in states], dtype=np.int64)
    return found, code_positions(codes, order, found)


def _code_or_unnamed(table, state) -> int:
    try:
        return int(table.encode([state])[0])
    except (ValueError, OverflowError):
        return UNNAMED


def window_codes(chain, window) -> tuple:
    """A window as ``(table, codes)``: a radius is read as
    ``chain.code_window(radius)``, with no state of it built, and a state
    sequence is encoded on ``chain.code_table(window)`` (an empty one on
    ``SuccessorTable``)."""
    if isinstance(window, (int, np.integer)):
        return chain.code_window(int(window))
    if not len(window):
        return SuccessorTable(chain), np.zeros(0, dtype=np.int64)
    table = chain.code_table(window)
    return table, table.encode(window)


def budgeted_window_size(chain, radius: int, what: str, budget: int = WINDOW_STATE_BUDGET) -> int:
    """``chain.window_size(radius)``, refused past ``budget`` before the window is built."""
    size = chain.window_size(radius)
    if size > budget:
        raise ValueError(f"the {what} window has {size} states, "
                         f"more than the state budget of {budget}")
    return size


def state_mask(table, codes: np.ndarray, state) -> np.ndarray:
    """Mask of the entries of ``codes`` that name ``state`` on ``table``
    (none, if the table cannot name it)."""
    return codes == _code_or_unnamed(table, state)


def window_operator(
    table,
    codes: np.ndarray,
    *,
    kill: Optional[int] = None,
    scale: Optional[dict] = None,
    order: Optional[np.ndarray] = None,
) -> WindowOperator:
    """The table's law restricted to the states ``codes``, in that order.

    Transitions to the code ``kill`` and transitions leaving the window
    are deleted; the latter stay in ``escaped`` for ``looped``. ``scale``
    maps row positions to rational factors of the whole row. ``order`` is
    ``codes``' stable argsort, when the caller has sorted them already.
    """
    n = len(codes)
    succ, num, den = table.step(codes)
    live = num > 0
    if kill is not None and kill != UNNAMED:
        live &= succ != kill
    rows, slot = np.nonzero(live)  # rows ascending, each in successor order
    succ, num = succ[rows, slot], num[rows, slot]
    del live, slot
    if order is None:
        order = np.argsort(codes, kind="stable")
    cols = code_positions(codes, order, succ)
    inside = cols >= 0
    out = np.zeros(n, dtype=num.dtype)
    np.add.at(out, rows[~inside], num[~inside])
    op = _operator(rows[inside], cols[inside], num[inside], den, out)
    if not scale:
        return op
    mult = math.lcm(*(Fraction(f).denominator for f in scale.values()))
    factor = [mult] * n
    for i, f in scale.items():
        factor[i] = int(Fraction(f) * mult)
    vals = int_array([v * factor[r] for v, r in zip(op.num.tolist(), op.rows.tolist())])
    out = int_array([v * f for v, f in zip(out.tolist(), factor)])
    return WindowOperator(op.indptr, op.indices, vals, den * mult, out)


def _step(table, codes):
    """``table.step(codes)`` and its live mask; ``_Unnamed`` if a live successor is UNNAMED."""
    succ, num, den = table.step(codes)
    live = num > 0
    if (succ[live] == UNNAMED).any():
        raise _Unnamed("a successor outside the code table's range")
    return succ, num, den, live


def _on_code_table(chain, states, reach, run):
    """``run(table)`` on the chain's code table for ``states`` and ``reach``,
    rerun on ``SuccessorTable`` when one of its steps raises ``_Unnamed``."""
    try:
        return run(chain.code_table(states, reach))
    except _Unnamed:
        return run(SuccessorTable(chain))


def propagate(chain, x, times, keep=None) -> list:
    """The exact law of X_t from x at each t of the increasing list ``times``:
    one ``(states, weights, scale)`` per time, the states of positive
    probability in code order and Python-int weights over the product of the
    steps' denominators, P_x(X_t = s) = w / scale. ``keep(t, states)`` masks
    the states kept at t = 0, 1, ... until it returns None.

    The weights are int64 while a step cannot overflow and Python ints (an
    object array) from the first step whose ``scale * den`` reaches 2^63: no
    weight exceeds ``scale``, so no product or sum exceeds ``scale * den``."""
    if not times or any(b <= a for a, b in zip([-1, *times], times)):
        raise ValueError("times must be a nonempty increasing list of nonnegative ints")

    def forward(table):
        codes, weights = table.encode([x]), np.ones(1, dtype=np.int64)
        scale, t, on, laws = 1, 0, keep, []
        while True:
            if on is not None and (mask := on(t, table.decode(codes))) is not None:
                mask = np.asarray(mask, dtype=bool)
                codes, weights = codes[mask], weights[mask]
            else:
                on = None
            if t == times[len(laws)]:
                laws.append((table.decode(codes), weights.tolist(), scale))
                if len(laws) == len(times):
                    return laws
            succ, num, den, live = _step(table, codes)
            if scale * den >= _INT64_BOUND:
                weights = weights.astype(object, copy=False)
            codes, weights = sum_by_key(succ[live], (weights[:, None] * num)[live])
            scale *= den
            t += 1

    return _on_code_table(chain, [x], times[-1], forward)


def rational_sum(terms, n: int) -> tuple:
    """The sum of c * nums / d over the terms (c, nums, d) at n points, as
    ``(numerators, denominator)``: the numerators over the lcm of the d,
    int64 while no product or sum can reach 2^63 and Python ints (an object
    array) otherwise. ``nums`` may be an array of length n or one int."""
    den = math.lcm(1, *(d for _, _, d in terms))
    scaled = [(c * (den // d), np.asarray(nums)) for c, nums, d in terms]
    bound = sum(abs(c) * max(1, _max_abs(nums)) for c, nums in scaled)
    dtype = np.int64 if bound < _INT64_BOUND else object
    total = np.zeros(n, dtype=dtype)
    for c, nums in scaled:
        total += nums.astype(dtype, copy=False) * c
    return total, den


def _max_abs(nums: np.ndarray) -> int:
    return int(np.abs(nums).max()) if nums.size else 0


@dataclass
class OneStepSums:
    """One step of f from each of a sequence of states, in integers where f
    is rational.

    ``values[i]`` is f(states[i]) as f returned it; it is None when f's
    array form gave the values, and ``value(i)`` reads either. When every
    value is an int or a Fraction (``exact``), ``sums`` and ``at`` are
    integer arrays (int64, or object arrays of Python ints): ``at[i] / lcd``
    is f(states[i]) and ``sums[i] / (den * lcd)`` is
    E[f(X_1) | X_0 = states[i]], with ``den`` the code table's denominator
    and ``lcd`` a common denominator of f's values. Otherwise ``sums[i]`` is
    that average itself, summed from ``Fraction(0)`` in canonical state
    order, ``at`` is ``values`` and ``den = lcd = 1``; in both cases f is
    harmonic at states[i] exactly when ``sums[i] - den * at[i] == 0``
    (``unbalanced``). ``table`` is the code table the step was taken on and
    ``codes`` the states' codes on it, in the window's order, so a caller
    finds a state among them (``state_mask``) and decodes only those it
    reports.
    """

    values: Optional[list]
    sums: Sequence
    at: Sequence
    den: int = 1
    lcd: int = 1
    exact: bool = False
    table: object = None
    codes: Optional[np.ndarray] = None

    def row(self, i: int) -> tuple:
        """``(sums[i], at[i])`` as Python numbers."""
        if self.exact:
            return int(self.sums[i]), int(self.at[i])
        return self.sums[i], self.at[i]

    def average(self, i: int):
        """E[f(X_1) | X_0 = states[i]]: a Fraction when ``exact``."""
        if self.exact:
            return Fraction(self.row(i)[0], self.den * self.lcd)
        return self.sums[i]

    def value(self, i: int):
        """f(states[i]): ``values[i]``, or the Fraction ``at[i] / lcd``."""
        if self.values is None:
            return Fraction(self.row(i)[1], self.lcd)
        return self.values[i]

    def unbalanced(self) -> np.ndarray:
        """Mask of the states where f is not harmonic, sums[i] - den * at[i]
        != 0: one array comparison when ``exact``."""
        if self.exact:
            return np.asarray(self.sums != self.den * self.at, dtype=bool)
        return np.array([s - a != 0 for s, a in zip(self.sums, self.at)], dtype=bool)


def one_step_sums(chain, window, f) -> OneStepSums:
    """The integer core of ``one_step_averages``: one step of the chain's
    code table from each state of ``window``, a radius or a state sequence
    (``window_codes``), with f's values at the distinct states of the step
    and each row sum taken in integers over one denominator. A step that
    reaches a successor the table cannot name is retaken on
    ``SuccessorTable``.

    f's values come from its array form when it has one, an attribute
    ``array_values(table, codes)`` (module docstring) that does not return
    None: one call for all the states' codes, and no state is decoded.
    Otherwise f is called once per distinct state.
    """
    return one_step_sums_each(chain, window, [f])[0]


def one_step_sums_each(chain, window, fs) -> list:
    """``one_step_sums`` of each function in ``fs``, all from one step: one
    table step, one ``np.unique`` and at most one ``decode`` serve every
    function."""
    table, codes = window_codes(chain, window)
    n = len(codes)
    if not n:
        empty = np.zeros(0, dtype=object)
        return [OneStepSums([], empty, empty, exact=True, table=table, codes=codes) for _ in fs]
    try:
        succ, num, den, live = _step(table, codes)
    except _Unnamed:
        states = table.decode(codes)
        table = SuccessorTable(chain)
        codes = table.encode(states)
        succ, num, den, live = _step(table, codes)
    named, slot = np.unique(np.concatenate([codes, succ[live]]), return_inverse=True)
    first = slot[:n]
    slot = slot[n:]
    points = None

    def sums_of(f):
        nonlocal points
        form = getattr(f, "array_values", None)
        arrays = None if form is None else form(table, named)
        if arrays is not None:
            ints, lcd = arrays
            values = None
            # no row sum and no den * at[i] exceeds reach * max |numerator|
            reach = max(den, int(num.sum(axis=1).max()))
            if ints.dtype != object and reach * _max_abs(ints) >= _INT64_BOUND:
                ints = ints.astype(object)
        else:
            if points is None:
                points = table.decode(named)
            values = [f(t) for t in points]
            rational = _over_lcd(values)
            at_states = [values[i] for i in first.tolist()]
            if rational is None:
                terms = [[] for _ in range(n)]
                for i, p, j in zip(np.nonzero(live)[0].tolist(), num[live].tolist(), slot.tolist()):
                    terms[i].append((chain.state_key(points[j]), Fraction(p, den) * values[j]))
                ordered = (sorted(row, key=lambda kt: kt[0]) for row in terms)
                sums = [sum((t for _, t in row), Fraction(0)) for row in ordered]
                return OneStepSums(at_states, sums, at_states, table=table, codes=codes)
            ints, lcd = np.array(rational[0], dtype=object), rational[1]
            values = at_states
        weights = np.zeros(succ.shape, dtype=ints.dtype)
        weights[live] = ints[slot]
        sums = (num * weights).sum(axis=1)
        return OneStepSums(
            values, sums, ints[first], den, lcd, exact=True, table=table, codes=codes
        )

    return [sums_of(f) for f in fs]


def one_step_averages(chain, states, f):
    """E[f(X_1) | X_0 = s] and f(s) for each s in the sequence ``states``:
    ``one_step_sums`` divided once per state (``OneStepSums.average``)."""
    step = one_step_sums(chain, states, f)
    n = len(states)
    return [step.average(i) for i in range(n)], [step.value(i) for i in range(n)]


def weighted_sum(weights, values, scale):
    """sum(w * v) / scale, as one Fraction when every value is rational."""
    rational = _over_lcd(values)
    if rational is None:
        return sum((Fraction(w, scale) * v for w, v in zip(weights, values)), Fraction(0))
    ints, lcd = rational
    return Fraction(sum(w * v for w, v in zip(weights, ints)), scale * lcd)


def _over_lcd(values):
    """Integer numerators of ``values`` over their least common denominator,
    and that denominator; None unless every value is an int or a Fraction."""
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    lcd = math.lcm(1, *(v.denominator for v in values))
    return [v.numerator * (lcd // v.denominator) for v in values], lcd
