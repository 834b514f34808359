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

``window_operator`` restricts a table to a set of codes: a ``WindowOperator``
in CSR form with integer numerators over one denominator. Loop mass and
duplicate entries are merged in integers, so every float or ``Fraction``
entry taken from it is the correctly rounded (or exact) value of the
merged rational probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

#: Code of a successor the table cannot name (outside its range).
UNNAMED = np.iinfo(np.int64).min

#: Numerators and denominators below this convert to float64 exactly.
_EXACT_FLOAT = 2**53


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
        num = _int_array(
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
    sends out of the window (folded into the diagonal under the ``loop``
    policy, dropped under ``kill``; transitions into a killed state are
    not counted). ``len`` is the number of states; iterating yields each
    row's column indices.
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

    def float_values(self) -> np.ndarray:
        """Entries as float64, each the correctly rounded num / den."""
        if self.den < _EXACT_FLOAT and (
            not self.num.size or int(np.abs(self.num).max()) < _EXACT_FLOAT
        ):
            return self.num.astype(np.float64) / self.den
        return np.array([v / self.den for v in self.num.tolist()], dtype=np.float64)

    def fraction_rows(self) -> list:
        """Rows as lists of (column, Fraction), the exact solver's input."""
        den = self.den
        nums = self.num.tolist()
        frac = {v: Fraction(v, den) for v in set(nums)}
        cols, ptr = self.indices.tolist(), self.indptr.tolist()
        return [
            [(cols[e], frac[nums[e]]) for e in range(ptr[i], ptr[i + 1])]
            for i in range(len(ptr) - 1)
        ]

    @classmethod
    def from_rows(cls, rows) -> "WindowOperator":
        """The operator of rows given as lists of (column, probability)."""
        rows = [[(j, Fraction(p)) for j, p in row] for row in rows]
        den = math.lcm(1, *(p.denominator for row in rows for _, p in row))
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(row) for row in rows])
        indices, num = [], []
        for row in rows:
            for j, p in sorted(row):
                indices.append(j)
                num.append(p.numerator * (den // p.denominator))
        return cls(
            indptr,
            np.asarray(indices, dtype=np.int64),
            _int_array(num),
            den,
            np.zeros(len(rows), dtype=np.int64),
        )


def _int_array(values) -> np.ndarray:
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
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.add.reduceat(values, starts)


def window_operator(
    table,
    codes: np.ndarray,
    *,
    kill: Optional[int] = None,
    policy: str = "kill",
    scale: Optional[dict] = None,
) -> WindowOperator:
    """The table's law restricted to the states ``codes``, in that order.

    Transitions to the code ``kill`` are deleted; transitions leaving the
    window are deleted (``kill``) or folded into a self-loop (``loop``).
    ``scale`` maps row positions to rational factors of the whole row.
    """
    n = len(codes)
    succ, num, den = table.step(codes)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return WindowOperator(np.zeros(1, dtype=np.int64), empty, empty, den, empty)
    live = num > 0
    if kill is not None and kill != UNNAMED:
        live &= succ != kill
    rows, slot = np.nonzero(live)  # rows ascending, each in successor order
    succ, num = succ[rows, slot], num[rows, slot]
    del live, slot
    order = np.argsort(codes, kind="stable")
    cols = np.searchsorted(codes[order], succ)
    np.minimum(cols, n - 1, out=cols)
    cols = order[cols]  # window position of the nearest code
    inside = codes[cols] == succ
    out = np.zeros(n, dtype=num.dtype)
    np.add.at(out, rows[~inside], num[~inside])
    rows, cols, vals = rows[inside], cols[inside], num[inside]
    if policy == "loop":
        folded = np.flatnonzero(out)
        rows = np.concatenate([rows, folded])
        cols = np.concatenate([cols, folded])
        vals = np.concatenate([vals, out[folded]])
    # order each row by column and merge duplicate entries
    key, vals = sum_by_key(rows * n + cols, vals)
    rows, cols = np.divmod(key, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    if scale:
        mult = math.lcm(*(Fraction(f).denominator for f in scale.values()))
        factor = [mult] * n
        for i, f in scale.items():
            factor[i] = int(Fraction(f) * mult)
        vals = _int_array([v * factor[r] for v, r in zip(vals.tolist(), rows.tolist())])
        out = _int_array([v * f for v, f in zip(out.tolist(), factor)])
        den *= mult
    return WindowOperator(indptr, cols, vals, den, out)
