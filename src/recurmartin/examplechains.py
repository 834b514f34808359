"""Built-in example chains with exact closed forms.

Four recurrent chains are provided:

``z``
    Simple random walk on the integers.
``bangbang:q=<rational>``
    Walk on {0, 1, 2, ...} that is pushed away from 0 with probability q
    and back with probability 1-q (reflection at 0 is forced). Requires
    0 < q < 1/2.
``tree:k=<int>``
    Walk on the rooted k-ary tree: from the root, each child with
    probability 1/k; elsewhere, father with probability 1/2 and each child
    with probability 1/(2k).
``z2``
    Simple random walk on the two-dimensional integer lattice.

The first three expose exact killed-Green / boundary-kernel closed forms
anchored at their canonical base point; the planar walk has no elementary
closed form and is handled through its potential kernel elsewhere.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional

import numpy as np

from .chains import ChainSpec, StateId
from .errors import UnsupportedBasePointError
from .window import UNNAMED

# ---------------------------------------------------------------------------
# Boundary points


@dataclass(frozen=True)
class LineEnd:
    """One of the two ends of the integer line: sign is +1 or -1."""

    sign: int

    def __str__(self) -> str:
        return "+inf" if self.sign > 0 else "-inf"


@dataclass(frozen=True)
class HalfLineEnd:
    """The single end of the half line."""

    def __str__(self) -> str:
        return "inf"


_RAY_RE = re.compile(r"^(?:(\d+(?:\.\d+)*))?\((\d+(?:\.\d+)*)\)\*$")


@dataclass(frozen=True)
class TreeRay:
    """An eventually periodic ray of the k-ary tree.

    Text form: dot-separated child indices, with the repeating block in
    parentheses followed by ``*``. ``"0.1(0)*"`` is the ray taking child 0,
    child 1, then child 0 forever; ``"(0)*"`` is the leftmost ray.
    """

    prefix: tuple
    period: tuple

    @classmethod
    def parse(cls, text: str) -> "TreeRay":
        m = _RAY_RE.match(text.strip())
        if m is None:
            raise ValueError(
                f"cannot parse ray {text!r}; expected e.g. '0.1(0)*' or '(0)*'"
            )
        prefix = tuple(int(t) for t in m.group(1).split(".")) if m.group(1) else ()
        period = tuple(int(t) for t in m.group(2).split("."))
        return cls(prefix, period)

    def digit(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def agreement(self, node: tuple) -> int:
        """Length of the common initial segment with a tree node's path."""
        j = 0
        for i, d in enumerate(node):
            if d != self.digit(i):
                break
            j += 1
        return j

    def __str__(self) -> str:
        head = ".".join(str(d) for d in self.prefix)
        body = ".".join(str(d) for d in self.period)
        return f"{head}({body})*"


BoundaryPoint = object  # LineEnd | HalfLineEnd | TreeRay


# ---------------------------------------------------------------------------
# Integer line


class ZWalk(ChainSpec):
    """Simple random walk on Z, base point 0, counting measure stationary."""

    name = "z"
    loop_truncation_exact = True

    @property
    def base_point(self) -> int:
        return 0

    def successors(self, x: int):
        return [(x - 1, Fraction(1, 2)), (x + 1, Fraction(1, 2))]

    def predecessors(self, y: int):
        return [(y - 1, Fraction(1, 2)), (y + 1, Fraction(1, 2))]

    def stationary(self, x: int) -> Fraction:
        return Fraction(1)

    def state_key(self, x: int):
        return x

    def format_state(self, x: int) -> str:
        return str(x)

    def parse_state(self, text: str) -> int:
        return int(text)

    def window(self, radius: int):
        return list(range(-radius, radius + 1))

    def separating(self, y: int, x: int, x0: int) -> bool:
        return min(x, x0) <= y <= max(x, x0)

    def hull(self, states):
        return list(range(min(states), max(states) + 1))

    def _vector_table(self, states, reach):
        return _LineTable(2, 1, 1)

    # -- closed forms, anchored at base point 0 --

    def _require_base(self, base: int) -> None:
        if base != 0:
            raise UnsupportedBasePointError(
                f"closed forms for {self.name} are anchored at 0, not {base}"
            )

    def exact_green(self, x: int, y: int, base: int = 0) -> Fraction:
        """Expected visits to y, started at x, before the first return to 0."""
        self._require_base(base)
        if x == 0:
            return Fraction(1)
        if y == 0:
            return Fraction(0)
        if (x > 0) != (y > 0):
            return Fraction(0)
        return Fraction(2 * min(abs(x), abs(y)))

    def boundary_points(self):
        return [LineEnd(1), LineEnd(-1)]

    def parse_boundary(self, text: str) -> LineEnd:
        t = text.strip().lower()
        if t in ("+inf", "inf", "+oo"):
            return LineEnd(1)
        if t in ("-inf", "-oo"):
            return LineEnd(-1)
        raise ValueError(f"unknown boundary point {text!r} for {self.name}")

    def exact_boundary_kernel(self, x: int, alpha: LineEnd, base: int = 0) -> Fraction:
        """Limit of the visit ratio toward one end of the line."""
        self._require_base(base)
        if x == 0:
            return Fraction(1)
        v = x if alpha.sign > 0 else -x
        return Fraction(2 * v) if v > 0 else Fraction(0)

    def exact_profile(self, x: int, alpha: LineEnd, base: int = 0) -> Fraction:
        """Normalized harmonic profile attached to one end (zero at base)."""
        self._require_base(base)
        if x == 0:
            return Fraction(0)
        return self.exact_boundary_kernel(x, alpha) / self.stationary(0)


# ---------------------------------------------------------------------------
# Half line with inward drift


class BangBangWalk(ChainSpec):
    """Walk on {0,1,2,...}: up with probability q, down with 1-q, reflected
    at 0. Positive recurrent for q < 1/2.

    Closed forms are written with a = (1-q)/q > 1.
    """

    loop_truncation_exact = True

    def __init__(self, q: Fraction = Fraction(1, 3)):
        q = Fraction(q)
        if not (0 < q < Fraction(1, 2)):
            raise ValueError("bang-bang walk needs 0 < q < 1/2")
        self.q = q
        self.alpha = (1 - q) / q
        self.name = f"bangbang:q={q}"

    @property
    def base_point(self) -> int:
        return 0

    def successors(self, x: int):
        if x < 0:
            raise ValueError(f"{x} is not a half-line state")
        if x == 0:
            return [(1, Fraction(1))]
        return [(x - 1, 1 - self.q), (x + 1, self.q)]

    def predecessors(self, y: int):
        if y == 0:
            return [(1, 1 - self.q)]
        if y == 1:
            return [(0, Fraction(1)), (2, 1 - self.q)]
        return [(y - 1, self.q), (y + 1, 1 - self.q)]

    def stationary(self, x: int) -> Fraction:
        q = self.q
        if x == 0:
            return (1 - 2 * q) / (2 * (1 - q))
        return (1 - 2 * q) / (2 * q * (1 - q) * self.alpha**x)

    def state_key(self, x: int):
        return x

    def format_state(self, x: int) -> str:
        return str(x)

    def parse_state(self, text: str) -> int:
        x = int(text)
        if x < 0:
            raise ValueError("half-line states are nonnegative")
        return x

    def window(self, radius: int):
        return list(range(0, radius + 1))

    def separating(self, y: int, x: int, x0: int) -> bool:
        return min(x, x0) <= y <= max(x, x0)

    def hull(self, states):
        return list(range(min(states), max(states) + 1))

    def _vector_table(self, states, reach):
        den = self.q.denominator
        return _LineTable(den, den - self.q.numerator, self.q.numerator, reflect=True)

    def _require_base(self, base: int) -> None:
        if base != 0:
            raise UnsupportedBasePointError(
                f"closed forms for {self.name} are anchored at 0, not {base}"
            )

    def exact_green(self, x: int, y: int, base: int = 0) -> Fraction:
        self._require_base(base)
        q, a = self.q, self.alpha
        if x == 0 and y == 0:
            return Fraction(1)
        if y == 0:
            return Fraction(0)
        if x == 0:
            return 1 / (q * a**y)
        m = min(x, y)
        return (a**m - 1) / ((1 - 2 * q) * a**y)

    def boundary_points(self):
        return [HalfLineEnd()]

    def parse_boundary(self, text: str) -> HalfLineEnd:
        if text.strip().lower() in ("inf", "+inf", "oo"):
            return HalfLineEnd()
        raise ValueError(f"unknown boundary point {text!r} for {self.name}")

    def exact_boundary_kernel(self, x: int, alpha: HalfLineEnd, base: int = 0) -> Fraction:
        self._require_base(base)
        if x == 0:
            return Fraction(1)
        return self.q * (self.alpha**x - 1) / (1 - 2 * self.q)

    def exact_profile(self, x: int, alpha: HalfLineEnd, base: int = 0) -> Fraction:
        self._require_base(base)
        if x == 0:
            return Fraction(0)
        return self.exact_boundary_kernel(x, alpha) / self.stationary(0)


# ---------------------------------------------------------------------------
# Rooted k-ary tree

ROOT: tuple = ()


class KaryTree(ChainSpec):
    """Walk on the rooted k-ary tree.

    States are tuples of child indices (the root is the empty tuple, printed
    ``@``). From the root each child has probability 1/k; elsewhere the
    father has probability 1/2 and each child 1/(2k).
    """

    loop_truncation_exact = True

    def __init__(self, k: int = 2):
        if k < 2:
            raise ValueError("tree arity must be at least 2")
        self.k = k
        self.name = f"tree:k={k}"

    @property
    def base_point(self) -> tuple:
        return ROOT

    def successors(self, x: tuple):
        k = self.k
        if any(not (0 <= c < k) for c in x):
            raise ValueError(f"{x!r} is not a node of the {k}-ary tree")
        if x == ROOT:
            return [(x + (c,), Fraction(1, k)) for c in range(k)]
        moves = [(x[:-1], Fraction(1, 2))]
        moves.extend((x + (c,), Fraction(1, 2 * k)) for c in range(k))
        return moves

    def predecessors(self, y: tuple):
        k = self.k
        if y == ROOT:
            return [((c,), Fraction(1, 2)) for c in range(k)]
        father = y[:-1]
        p_from_father = Fraction(1, k) if father == ROOT else Fraction(1, 2 * k)
        preds = [(father, p_from_father)]
        preds.extend((y + (c,), Fraction(1, 2)) for c in range(k))
        return preds

    def stationary(self, x: tuple) -> Fraction:
        k = self.k
        d = len(x)
        if d == 0:
            return Fraction(k, k - 1)
        return Fraction(2, k ** (d - 1) * (k - 1))

    def state_key(self, x: tuple):
        return (len(x), x)

    def format_state(self, x: tuple) -> str:
        return "@" if x == ROOT else ".".join(str(c) for c in x)

    def parse_state(self, text: str) -> tuple:
        t = text.strip()
        if t == "@":
            return ROOT
        node = tuple(int(c) for c in t.split("."))
        if any(not (0 <= c < self.k) for c in node):
            raise ValueError(f"child indices must lie in [0, {self.k})")
        return node

    def window(self, radius: int):
        out = [ROOT]
        frontier = [ROOT]
        for _ in range(radius):
            frontier = [x + (c,) for x in frontier for c in range(self.k)]
            out.extend(frontier)
        return out

    def separating(self, y: tuple, x: tuple, x0: tuple) -> bool:
        # On a tree, every path between two nodes crosses each node of the
        # geodesic between them.
        return y in _geodesic(x, x0)

    def hull(self, states):
        nodes = set()
        for s in states:
            nodes.update(_geodesic(states[0], s))
        return self.sorted_states(nodes)

    def _vector_table(self, states, reach):
        """Heap codes below the states' deepest common ancestor, lifted by
        up to ``reach`` levels while half the spare code depth allows."""
        k = self.k
        limit = _tree_depth_limit(k)
        anchor = tuple(states[0])
        deepest = len(anchor)
        for s in states:
            deepest = max(deepest, len(s))
            if s[: len(anchor)] != anchor:
                anchor = anchor[: self.meet_depth(anchor, s)]
        if deepest - len(anchor) > limit:
            return None
        if any(not (0 <= c < k) for c in anchor):
            raise ValueError(f"{anchor!r} is not a node of the {k}-ary tree")
        lift = min(len(anchor), reach, (limit - deepest + len(anchor)) // 2)
        return _TreeTable(k, anchor[: len(anchor) - lift], limit)

    def meet_depth(self, x: tuple, y: tuple) -> int:
        """Depth of the deepest common ancestor."""
        j = 0
        for a, b in zip(x, y):
            if a != b:
                break
            j += 1
        return j

    def _require_base(self, base: tuple) -> None:
        if base != ROOT:
            raise UnsupportedBasePointError(
                f"closed forms for {self.name} are anchored at the root"
            )

    def exact_green(self, x: tuple, y: tuple, base: tuple = ROOT) -> Fraction:
        self._require_base(base)
        k = self.k
        if x == ROOT and y == ROOT:
            return Fraction(1)
        if y == ROOT:
            return Fraction(0)
        p = len(y)
        if x == ROOT:
            return Fraction(2, k**p)
        j = self.meet_depth(x, y)
        return Fraction(2 * (k**j - 1), k ** (p - 1) * (k - 1))

    def boundary_points(self):
        return [TreeRay((), (c,)) for c in range(self.k)]

    def parse_boundary(self, text: str) -> TreeRay:
        ray = TreeRay.parse(text)
        digits = ray.prefix + ray.period
        if any(not (0 <= c < self.k) for c in digits):
            raise ValueError(f"ray child indices must lie in [0, {self.k})")
        return ray

    def exact_boundary_kernel(self, x: tuple, alpha: TreeRay, base: tuple = ROOT) -> Fraction:
        self._require_base(base)
        if x == ROOT:
            return Fraction(1)
        k = self.k
        j = alpha.agreement(x)
        return Fraction(k * (k**j - 1), k - 1)

    def exact_profile(self, x: tuple, alpha: TreeRay, base: tuple = ROOT) -> Fraction:
        self._require_base(base)
        if x == ROOT:
            return Fraction(0)
        return Fraction(self.k ** alpha.agreement(x) - 1)


def _tree_depth_limit(k: int) -> int:
    """Deepest level below an anchor whose nodes' children have int64 heap
    codes: the first code at depth d is (k^d - 1) / (k - 1)."""
    d = 0
    while (k ** (d + 3) - 1) // (k - 1) <= 2**63:
        d += 1
    return d


def _geodesic(x: tuple, y: tuple) -> list:
    """Vertices of the unique simple path from x to y in the tree."""
    j = 0
    for a, b in zip(x, y):
        if a != b:
            break
        j += 1
    down_from_x = [x[:i] for i in range(len(x), j, -1)]
    up_to_y = [y[:i] for i in range(j, len(y) + 1)]
    return down_from_x + up_to_y


# ---------------------------------------------------------------------------
# Planar lattice


class Z2Walk(ChainSpec):
    """Simple random walk on Z^2, base point (0, 0).

    Null recurrent; no elementary closed form for the killed Green
    function. Its harmonic structure is carried by the potential kernel
    (see the potential module).
    """

    name = "z2"
    loop_truncation_exact = False

    _STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))

    @property
    def base_point(self) -> tuple:
        return (0, 0)

    def successors(self, x: tuple):
        a, b = x
        return [((a + da, b + db), Fraction(1, 4)) for da, db in self._STEPS]

    def predecessors(self, y: tuple):
        return self.successors(y)

    def stationary(self, x: tuple) -> Fraction:
        return Fraction(1)

    def state_key(self, x: tuple):
        return (max(abs(x[0]), abs(x[1])), x)

    def format_state(self, x: tuple) -> str:
        return f"{x[0]},{x[1]}"

    def parse_state(self, text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError("planar states look like 'a,b'")
        return (int(parts[0]), int(parts[1]))

    def window(self, radius: int):
        rng = range(-radius, radius + 1)
        return sorted(((a, b) for a in rng for b in rng), key=self.state_key)

    def _vector_table(self, states, reach):
        top = max((max(abs(a), abs(b)) for a, b in states), default=0)
        return _PlaneTable() if top + reach < _PlaneTable.HALF else None

    def boundary_points(self):
        return []

    def parse_boundary(self, text: str):
        raise ValueError(f"{self.name} has no named boundary points")


# ---------------------------------------------------------------------------
# Vectorized code tables of the built-in laws (see the window module)


class _LineTable:
    """Nearest-neighbour walk on the integers; a state's code is itself.

    Rows are (x - 1, x + 1) with numerators (down, up) over ``den``; with
    ``reflect`` the walk lives on {0, 1, ...} and the row at 0 moves up
    with probability one.
    """

    def __init__(self, den: int, down: int, up: int, reflect: bool = False):
        self.den, self.down, self.up, self.reflect = den, down, up, reflect

    def encode(self, states) -> np.ndarray:
        codes = np.asarray(states, dtype=np.int64).reshape(len(states))
        if self.reflect and codes.size and codes.min() < 0:
            raise ValueError(f"{int(codes.min())} is not a half-line state")
        return codes

    def decode(self, codes) -> list:
        return codes.tolist()

    def step(self, codes):
        succ = np.stack([codes - 1, codes + 1], axis=1)
        num = np.empty_like(succ)
        num[:, 0], num[:, 1] = self.down, self.up
        if self.reflect:
            num[codes == 0] = (0, self.den)
        return succ, num, self.den


class _TreeTable:
    """k-ary tree nodes below ``anchor`` in heap order: the anchor is 0 and
    child c of code h is h k + c + 1. Rows are (father, child 0, ...,
    child k-1) over 2k. Children below ``limit`` levels, and the anchor's
    father unless the anchor is the root, are UNNAMED.
    """

    def __init__(self, k: int, anchor: tuple, limit: int):
        self.k, self.anchor, self.limit, self.den = k, anchor, limit, 2 * k
        self._firsts = np.array(
            [(k**d - 1) // (k - 1) for d in range(limit + 2)], dtype=np.int64
        )

    def encode(self, states) -> np.ndarray:
        k, anchor, a = self.k, self.anchor, len(self.anchor)
        codes = np.empty(len(states), dtype=np.int64)
        for i, s in enumerate(states):
            h = 0
            for c in s[a:]:
                if not 0 <= c < k:
                    raise ValueError(f"{s!r} is not a node of the {k}-ary tree")
                h = h * k + c + 1
            named = s[:a] == anchor and len(s) - a <= self.limit
            codes[i] = h if named else UNNAMED
        return codes

    def decode(self, codes) -> list:
        k, anchor = self.k, self.anchor
        depth = np.searchsorted(self._firsts, codes, side="right") - 1
        out = [None] * len(codes)
        for d in np.unique(depth).tolist():
            at = np.flatnonzero(depth == d)
            h = codes[at]
            digits = []
            for _ in range(d):  # peel digits from the deepest
                h = h - 1
                digits.append((h % k).tolist())
                h = h // k
            columns = [repeat(c, len(at)) for c in anchor] + digits[::-1]
            nodes = zip(*columns) if columns else repeat((), len(at))
            for i, node in zip(at.tolist(), nodes):
                out[i] = node
        return out

    def step(self, codes):
        k = self.k
        succ = np.empty((len(codes), k + 1), dtype=np.int64)
        succ[:, 0] = (codes - 1) // k
        succ[:, 1:] = codes[:, None] * k + np.arange(1, k + 1)
        succ[codes >= self._firsts[self.limit], 1:] = UNNAMED
        num = np.ones_like(succ)
        num[:, 0] = k
        top = codes == 0
        if self.anchor == ROOT:
            num[top] = [0] + [2] * k
        else:
            succ[top, 0] = UNNAMED
        return succ, num, self.den


class _PlaneTable:
    """Planar walk; state (a, b) has code a 2^32 + b. Rows are
    (a+1, b), (a-1, b), (a, b+1), (a, b-1) over 4."""

    SHIFT = 32
    HALF = 2**30  # coordinates below this in size keep codes unique
    den = 4
    _MOVES = np.array([1 << SHIFT, -(1 << SHIFT), 1, -1], dtype=np.int64)

    def encode(self, states) -> np.ndarray:
        xy = np.asarray(states, dtype=np.int64).reshape(len(states), 2)
        return (xy[:, 0] << self.SHIFT) + xy[:, 1]

    def decode(self, codes) -> list:
        a = (codes + (1 << (self.SHIFT - 1))) >> self.SHIFT
        b = codes - (a << self.SHIFT)
        return list(zip(a.tolist(), b.tolist()))

    def step(self, codes):
        succ = codes[:, None] + self._MOVES
        return succ, np.ones_like(succ), self.den


# ---------------------------------------------------------------------------
# Selector


def chain_from_selector(selector: str) -> ChainSpec:
    """Build a chain from a selector like ``z``, ``bangbang:q=1/3``,
    ``tree:k=2`` or ``z2``."""
    text = selector.strip().lower()
    head, _, params = text.partition(":")
    opts = {}
    if params:
        for item in params.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"malformed chain option {item!r}")
            opts[key.strip()] = val.strip()
    if head == "z":
        _reject_extras(opts, ())
        return ZWalk()
    if head == "z2":
        _reject_extras(opts, ())
        return Z2Walk()
    if head == "bangbang":
        _reject_extras(opts, ("q",))
        return BangBangWalk(Fraction(opts.get("q", "1/3")))
    if head == "tree":
        _reject_extras(opts, ("k",))
        return KaryTree(int(opts.get("k", "2")))
    raise ValueError(f"unknown chain selector {selector!r}")


def _reject_extras(opts: dict, allowed: tuple) -> None:
    extra = set(opts) - set(allowed)
    if extra:
        raise ValueError(f"unsupported chain options: {sorted(extra)}")


def exact_green(chain: ChainSpec, x0, x, y) -> Fraction:
    """Closed-form G_{x0}(x, y) for chains that publish one."""
    method = getattr(chain, "exact_green", None)
    if method is None:
        raise NotImplementedError(
            f"chain {chain.name!r} publishes no closed-form Green function"
        )
    return method(x, y, base=x0)


def exact_martin_boundary(chain: ChainSpec, x0, x, alpha) -> Fraction:
    """Closed-form boundary visit-ratio kernel L_{x0}(x, alpha)."""
    method = getattr(chain, "exact_boundary_kernel", None)
    if method is None:
        raise NotImplementedError(
            f"chain {chain.name!r} publishes no closed-form boundary kernel"
        )
    return method(x, alpha, base=x0)
