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

The first three are nearest-neighbour walks on trees, whose killed Green
function and boundary kernel come from one network formula at any base
point (``TreeNetwork``). The planar walk's killed Green function is exact
too, through its potential kernel a:
G_0(x, y) = a(x) + a(y) - a(x - y) in p + q/pi (see
``potential.origin_killed_green``).
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain as iter_chain, repeat

import numpy as np

from .chains import ChainSpec, distribution_after
from .errors import UnsupportedBasePointError
from .window import WINDOW_STATE_BUDGET, UNNAMED, int_array, state_mask

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
        prefix, period = self.prefix, self.period
        n, p = len(prefix), len(period)
        j = 0
        for d in node:
            if d != (prefix[j] if j < n else period[(j - n) % p]):
                break
            j += 1
        return j

    def agreements(self, table, codes) -> np.ndarray:
        """``agreement`` at the heap codes of a tree table: below its anchor, a
        node at depth d (offset o, its digits in base k) agrees with the ray
        down to d - t, t the fewest digits to drop from o and the ray's."""
        k, anchor = table.k, table.anchor
        start = self.agreement(anchor)
        if start < len(anchor):  # every node leaves the ray above the anchor
            return np.full(len(codes), start)
        depth = np.searchsorted(table._firsts, codes, side="right") - 1
        ray = [0]
        for d in range(start, start + int(depth.max(initial=0))):
            ray.append(ray[-1] * k + self.digit(d))
        off, ray_off = codes - table._firsts[depth], np.array(ray, dtype=np.int64)[depth]
        agree = depth + start
        while (differ := off != ray_off).any():
            agree -= differ
            off //= k
            ray_off //= k
        return agree

    def __str__(self) -> str:
        head = ".".join(str(d) for d in self.prefix)
        body = ".".join(str(d) for d in self.period)
        return f"{head}({body})*"


# ---------------------------------------------------------------------------
# Nearest-neighbour walks on trees

#: ``TreeNetwork._tables`` per law, the chain's class and name
_TABLES: dict = {}


class TreeNetwork(ChainSpec):
    """A nearest-neighbour walk on a tree, read as an electrical network.

    The edge (u, v) has conductance c(u, v) = beta(u) P(u, v), beta the
    stationary measure. The law is the same along every ray from the root,
    so rho(d), the resistance from the root to depth d, is the running sum
    of 1/c along one ray. With u ^ v the deepest common ancestor and x ^
    alpha where x's root path leaves the end alpha, at any base x1 and off
    it (Doyle and Snell 1984; Lyons and Peres 2016, ch. 2-3)

        G_{x1}(x, y) = beta(y) (rho(x1) - rho(x1 ^ x) - rho(x1 ^ y) + rho(x ^ y)),
        K_{x1}(x, alpha) = beta(x1) (rho(x1) - rho(x1 ^ x) + rho(x ^ alpha) - rho(x1 ^ alpha)),

    and at x1, G is beta(y) / beta(x1) and K is 1. A law gives only its
    geometry: the depths of u ^ v (``meet_depth``) and x ^ alpha
    (``end_depth``), the node of depth d on one ray (``ray_node``), and
    both depths over its code table (``_code_depths``).
    """

    @functools.cached_property
    def _tables(self) -> tuple:
        """rho, beta(x1) rho per base x1, and beta(x1) rho in integers per
        base and depth, shared by the chains of one class and ``name``."""
        return _TABLES.setdefault((type(self), self.name), ([Fraction(0)], {}, {}))

    def _resistance(self, depth: int) -> list:
        """rho(0), ..., rho(depth), and perhaps more, as Fractions; P(u, v)
        is read off the law's one-step law (``chains.distribution_after``)."""
        rho = self._tables[0]
        if depth >= WINDOW_STATE_BUDGET:
            raise ValueError(f"a resistance table to depth {depth} runs along {depth + 1} "
                             f"states, more than the state budget of {WINDOW_STATE_BUDGET}")
        for d in range(len(rho) - 1, depth):
            u, v = self.ray_node(d), self.ray_node(d + 1)
            rho.append(rho[-1] + 1 / (self.stationary(u) * distribution_after(self, u, 1)[v]))
        return rho

    def exact_green(self, x, y, base=None) -> Fraction:
        """Expected visits to y, started at x, before the first return to base."""
        x1 = self.base_point if base is None else base
        if x == x1:
            return self.stationary(y) / self.stationary(x1)
        meet = self.meet_depth
        n, i, j, m = meet(x1, x1), meet(x1, x), meet(x1, y), meet(x, y)
        rho = self._resistance(max(n, m))
        return self.stationary(y) * (rho[n] - rho[i] - rho[j] + rho[m])

    def exact_boundary_kernel(self, x, alpha, base=None) -> Fraction:
        """Limit of G(x, y) / G(base, y) as y runs to the end alpha."""
        x1 = self.base_point if base is None else base
        if x == x1:
            return Fraction(1)
        n, j = self.meet_depth(x1, x1), self.end_depth(x, alpha)
        scaled = self._tables[1].setdefault(x1, [])  # beta(x1) rho, kept per base
        if len(scaled) <= max(n, j):
            rho, beta = self._resistance(max(n, j)), self.stationary(x1)
            scaled.extend(beta * r for r in rho[len(scaled):])
        if not n:  # at the root every term of the base is 0
            return scaled[j]
        i, m = self.meet_depth(x1, x), self.end_depth(x1, alpha)
        return scaled[n] - scaled[i] + scaled[j] - scaled[m]

    def exact_profile(self, x, alpha, base=None) -> Fraction:
        """Normalized harmonic profile attached to alpha (zero at base)."""
        x1 = self.base_point if base is None else base
        if x == x1:
            return Fraction(0)
        return self.exact_boundary_kernel(x, alpha, x1) / self.stationary(x1)

    def _kernel_array(self, table, codes, alpha, base=None):
        """``exact_boundary_kernel`` at the states of ``codes`` on the law's
        code table, as ``(nums, den)`` (``chains.kernel_array``), or None
        for a table or end ``_code_depths`` cannot read: the depths index
        rho in integers, whose unit times beta(base) is c / den."""
        x1 = self.base_point if base is None else base
        n = self.meet_depth(x1, x1)
        depths = self._code_depths(table, codes, alpha, x1 if n else None)
        if depths is None:
            return None
        (end, meet), m = depths, self.end_depth(x1, alpha)
        top, rows = max(n, int(end.max(initial=0))), self._tables[2]
        if (x1, top) not in rows:  # beta(x1) rho(d) = c nums[d] / den for d <= top
            rho = self._resistance(top)[: top + 1]
            lcd = math.lcm(*(r.denominator for r in rho))
            nums = [r.numerator * (lcd // r.denominator) for r in rho]
            g = math.gcd(*nums) or 1
            c, den = (self.stationary(x1) * Fraction(g, lcd)).as_integer_ratio()
            wide = max(2 * c * nums[-1] // g, den) >= 2**63  # nums increase
            nums = int_array([v // g for v in nums])
            rows[x1, top] = nums.astype(object if wide else np.int64), c, den
        nums, c, den = rows[x1, top]
        values = c * (nums[end] - nums[meet] + (nums[n] - nums[m]))
        values[state_mask(table, codes, x1)] = den
        return values, den


# ---------------------------------------------------------------------------
# Integer line


class ZWalk(TreeNetwork):
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

    def window_size(self, radius: int) -> int:
        return 2 * radius + 1

    def separating(self, y: int, x: int, x0: int) -> bool:
        return min(x, x0) <= y <= max(x, x0)

    def hull(self, states):
        return list(range(min(states), max(states) + 1))

    def _vector_table(self, states, reach):
        return _LineTable(2, 1, 1)

    def _window_codes(self, radius):
        return self._vector_table((), 1), np.arange(-radius, radius + 1, dtype=np.int64)

    def meet_depth(self, x: int, y: int) -> int:
        return min(abs(x), abs(y)) if (x > 0) == (y > 0) else 0

    def end_depth(self, x: int, alpha: LineEnd) -> int:
        return max(x if alpha.sign > 0 else -x, 0)

    def ray_node(self, d: int) -> int:
        return d

    def _code_depths(self, table, codes, alpha, base):
        if type(table) is not _LineTable or not isinstance(alpha, LineEnd):
            return None
        end = np.maximum(codes if alpha.sign > 0 else -codes, 0)
        return end, 0 if base is None else np.clip(codes if base > 0 else -codes, 0, abs(base))

    def boundary_points(self):
        return [LineEnd(1), LineEnd(-1)]

    def parse_boundary(self, text: str) -> LineEnd:
        t = text.strip().lower()
        if t in ("+inf", "inf", "+oo"):
            return LineEnd(1)
        if t in ("-inf", "-oo"):
            return LineEnd(-1)
        raise ValueError(f"unknown boundary point {text!r} for {self.name}")


# ---------------------------------------------------------------------------
# Half line with inward drift


class BangBangWalk(TreeNetwork):
    """Walk on {0,1,2,...}: up with probability q, down with 1-q, reflected
    at 0. Positive recurrent for q < 1/2.

    The stationary measure is written with a = (1-q)/q > 1.
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

    def window_size(self, radius: int) -> int:
        return radius + 1

    def separating(self, y: int, x: int, x0: int) -> bool:
        return min(x, x0) <= y <= max(x, x0)

    def hull(self, states):
        return list(range(min(states), max(states) + 1))

    def _vector_table(self, states, reach):
        den = self.q.denominator
        return _LineTable(den, den - self.q.numerator, self.q.numerator, reflect=True)

    def _window_codes(self, radius):
        return self._vector_table((), 1), np.arange(0, radius + 1, dtype=np.int64)

    def meet_depth(self, x: int, y: int) -> int:
        if min(x, y) < 0:
            raise ValueError(f"{min(x, y)} is not a half-line state")
        return min(x, y)

    def end_depth(self, x: int, alpha: HalfLineEnd) -> int:
        return self.meet_depth(x, x)

    def ray_node(self, d: int) -> int:
        return d

    def _code_depths(self, table, codes, alpha, base):
        if type(table) is not _LineTable:
            return None
        return codes, 0 if base is None else np.minimum(codes, base)

    def boundary_points(self):
        return [HalfLineEnd()]

    def parse_boundary(self, text: str) -> HalfLineEnd:
        if text.strip().lower() in ("inf", "+inf", "oo"):
            return HalfLineEnd()
        raise ValueError(f"unknown boundary point {text!r} for {self.name}")


# ---------------------------------------------------------------------------
# Rooted k-ary tree

ROOT: tuple = ()


class KaryTree(TreeNetwork):
    """Walk on the rooted k-ary tree.

    States are tuples of child indices (the root is the empty tuple, printed
    ``@``). From the root each child has probability 1/k; elsewhere the
    father has probability 1/2 and each child 1/(2k).
    """

    loop_truncation_exact = True
    #: tree windows grow exponentially with depth, and any containing
    #: radius is already exact under frontier loops
    radius_margin = 2
    check_radius = 7
    #: node texts contain dots
    path_separator = "/"

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

    def window_size(self, radius: int) -> int:
        return (self.k ** (radius + 1) - 1) // (self.k - 1)

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
        for s in states:
            if not anchor:
                break
            if s[: len(anchor)] != anchor:
                anchor = anchor[: self.meet_depth(anchor, s)]
        deepest = max(map(len, states))
        if deepest - len(anchor) > limit:
            return None
        if any(not (0 <= c < k) for c in anchor):
            raise ValueError(f"{anchor!r} is not a node of the {k}-ary tree")
        lift = min(len(anchor), reach, (limit - deepest + len(anchor)) // 2)
        return _TreeTable(k, anchor[: len(anchor) - lift], limit)

    def _window_codes(self, radius):
        """Heap codes below the root, the window's breadth-first order."""
        limit = _tree_depth_limit(self.k)
        if radius > limit:
            return None
        return _TreeTable(self.k, ROOT, limit), np.arange(self.window_size(radius), dtype=np.int64)

    @staticmethod
    def meet_depth(x: tuple, y: tuple) -> int:
        j = 0
        for a, b in zip(x, y):
            if a != b:
                break
            j += 1
        return j

    def end_depth(self, x: tuple, alpha: TreeRay) -> int:
        return alpha.agreement(x)

    def ray_node(self, d: int) -> tuple:
        return (0,) * d

    def _code_depths(self, table, codes, alpha, base):
        """A node meets the base where it leaves a ray through the base."""
        if not (type(table) is _TreeTable and isinstance(alpha, TreeRay) and alpha.period
                and all(0 <= c < self.k for c in alpha.prefix + alpha.period)):
            return None
        meet = 0 if base is None else TreeRay(base, (0,)).agreements(table, codes)
        return alpha.agreements(table, codes), np.minimum(meet, len(base or ()))

    def boundary_points(self):
        return [TreeRay((), (c,)) for c in range(self.k)]

    def parse_boundary(self, text: str) -> TreeRay:
        ray = TreeRay.parse(text)
        digits = ray.prefix + ray.period
        if any(not (0 <= c < self.k) for c in digits):
            raise ValueError(f"ray child indices must lie in [0, {self.k})")
        return ray


@functools.cache
def _tree_depth_limit(k: int) -> int:
    """Deepest level below an anchor whose nodes' children have int64 heap
    codes: the first code at depth d is (k^d - 1) / (k - 1)."""
    d = 0
    while (k ** (d + 3) - 1) // (k - 1) <= 2**63:
        d += 1
    return d


def _geodesic(x: tuple, y: tuple) -> list:
    """Vertices of the unique simple path from x to y in the tree."""
    j = KaryTree.meet_depth(x, y)
    down_from_x = [x[:i] for i in range(len(x), j, -1)]
    up_to_y = [y[:i] for i in range(j, len(y) + 1)]
    return down_from_x + up_to_y


# ---------------------------------------------------------------------------
# Planar lattice


class Z2Walk(ChainSpec):
    """Simple random walk on Z^2, base point (0, 0).

    Null recurrent. Its harmonic structure is carried by the potential
    kernel a, which also gives the killed Green function exactly,
    G_0(x, y) = a(x) + a(y) - a(x - y) in p + q/pi
    (``potential.origin_killed_green``).
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

    def norm(self, x: tuple) -> int:
        return max(abs(x[0]), abs(x[1]))

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
        return _PlaneTable().decode(_plane_window_codes(radius))

    def window_size(self, radius: int) -> int:
        return (2 * radius + 1) ** 2

    def _vector_table(self, states, reach):
        try:
            xy = _plane_coordinates(states)
        except OverflowError:
            return None
        top = max(int(xy.max(initial=0)), -int(xy.min(initial=0)))
        return _PlaneTable() if top + reach < _PlaneTable.HALF else None

    def _window_codes(self, radius):
        if radius + 1 >= _PlaneTable.HALF:
            return None
        return _PlaneTable(), _plane_window_codes(radius)

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

    _MOVES = np.array([-1, 1], dtype=np.int64)

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
        succ = codes[:, None] + self._MOVES
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
        for d in np.flatnonzero(np.bincount(depth)).tolist():  # np.unique loads numpy.ma
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
        """Codes of planar states, UNNAMED for one with a coordinate of size
        HALF or more (its code could wrap onto another state's)."""
        xy = _plane_coordinates(states)
        codes = (xy[:, 0] << self.SHIFT) + xy[:, 1]
        codes[((xy >= self.HALF) | (xy <= -self.HALF)).any(axis=1)] = UNNAMED
        return codes

    def decode(self, codes) -> list:
        a, b = self.coordinates(codes)
        return list(zip(a.tolist(), b.tolist()))

    def coordinates(self, codes) -> tuple:
        """The int64 coordinate arrays (a, b) of planar codes."""
        a = (codes + (1 << (self.SHIFT - 1))) >> self.SHIFT
        return a, codes - (a << self.SHIFT)

    def step(self, codes):
        succ = codes[:, None] + self._MOVES
        return succ, np.ones_like(succ), self.den


def _plane_window_codes(radius: int) -> np.ndarray:
    """Codes of the planar window of the given radius, in ``state_key`` order:
    code order (a, then b) within each ring max(|a|, |b|)."""
    side = np.arange(-radius, radius + 1, dtype=np.int64)
    a, b = np.repeat(side, len(side)), np.tile(side, len(side))
    ring = np.maximum(np.abs(a), np.abs(b))
    return ((a << _PlaneTable.SHIFT) + b)[np.argsort(ring, kind="stable")]


def plane_coordinates(table, codes):
    """The coordinate arrays (a, b) of codes on ``table``, or None when it is
    not the planar walk's code table."""
    return table.coordinates(codes) if type(table) is _PlaneTable else None


def _plane_coordinates(states) -> np.ndarray:
    """The (n, 2) int64 array of planar states (a, b), read in one pass."""
    return np.fromiter(iter_chain.from_iterable(states), np.int64).reshape(len(states), 2)


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
    laws = {
        "z": (ZWalk, {}), "z2": (Z2Walk, {}),
        "bangbang": (BangBangWalk, {"q": Fraction}), "tree": (KaryTree, {"k": int}),
    }
    if head not in laws:
        raise ValueError(f"unknown chain selector {selector!r}")
    law, kinds = laws[head]
    extra = set(opts) - set(kinds)
    if extra:
        raise ValueError(f"unsupported chain options: {sorted(extra)}")
    try:
        return law(**{key: kinds[key](val) for key, val in opts.items()})
    except ZeroDivisionError as exc:
        raise ValueError(f"chain option with a zero denominator in {selector!r}") from exc


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
        raise UnsupportedBasePointError(
            f"chain {chain.name!r} publishes no closed-form boundary kernel"
        )
    return method(x, alpha, base=x0)
