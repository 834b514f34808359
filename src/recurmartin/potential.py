"""Exact potential kernel of the simple random walk on the square lattice.

Every value a(i, j) lies in Q + Q/pi: a(i, j) = p + q/pi with rational p
and q. Up to L-infinity radius N they share one scale,

    a(i, j) = (P(i, j) + Q(i, j)/pi) / L_N,   L_N = lcm(1, 3, ..., 2N - 1),

with integers P and Q: the diagonal closed form a(n, n) = (4/pi) * sum of
1/(2j - 1) over j <= n has denominators dividing L_N, and the column
recurrence that fills the rest of the octant has integer coefficients. So
the table stores the integer pairs (P, Q); the build, the harmonicity
check and the float rendering run in Python ints, and ``value`` returns
the reduced ``PiRational`` on demand. Since L_N is a product of odd
primes, every reduced denominator is odd. Exactness matters: the
recurrences amplify floating-point error geometrically along octant
shells, and P/L_N reaches about 2^500 at N = 200 while a is about 4.

Normalization: a(0,0) = 0, a is discretely harmonic everywhere except at
the origin, where the one-step average exceeds the value by exactly 1.
"""
from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .window import int_array


_PRECISION_DIGITS = 50

#: Bits of pi * 2**b beyond the operands' own bits in a float rendering;
#: about the 60 guard digits the decimal rendering keeps.
_GUARD_BITS = 200


@dataclass(frozen=True)
class PiRational:
    """Exact number p + q/pi with rational p and q."""

    p: Fraction
    q: Fraction

    @staticmethod
    def of(p=0, q=0) -> "PiRational":
        return PiRational(Fraction(p), Fraction(q))

    def __add__(self, other):
        other = _coerce(other)
        return PiRational(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return PiRational(self.p - other.p, self.q - other.q)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return PiRational(-self.p, -self.q)

    def __mul__(self, scalar):
        if isinstance(scalar, PiRational):
            raise TypeError("PiRational is not closed under multiplication")
        s = Fraction(scalar)
        return PiRational(self.p * s, self.q * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1 / Fraction(scalar))

    def __bool__(self):
        return bool(self.p) or bool(self.q)

    def __float__(self) -> float:
        p, q = self.p, self.q
        scale = math.lcm(p.denominator, q.denominator)
        return _floats(
            [p.numerator * (scale // p.denominator)],
            [q.numerator * (scale // q.denominator)],
            scale,
        )[0]

    def decimal(self, digits: int = 30) -> str:
        """Decimal rendering at the requested precision (>= 30 digits)."""
        digits = max(digits, 30)
        with _mp_value(self, digits) as (mp, value):
            return mp.nstr(value, digits)


def _coerce(v) -> PiRational:
    if isinstance(v, PiRational):
        return v
    return PiRational(Fraction(v), Fraction(0))


ZERO = PiRational.of(0, 0)


@contextmanager
def _mp_value(v: PiRational, digits: int):
    """Yield (mpmath, p + q/pi) inside one mpmath context.

    p and q can be huge while p + q/pi is small, so the working precision
    covers the operands' digits on top of ``digits`` (at least 50).
    """
    import mpmath

    bits = max(
        v.p.numerator.bit_length(), v.p.denominator.bit_length(),
        v.q.numerator.bit_length(), v.q.denominator.bit_length(),
    )
    with mpmath.workdps(max(_PRECISION_DIGITS, digits) + int(bits * 0.30103) + 10):
        yield mpmath, (mpmath.mpf(v.p.numerator) / v.p.denominator
                       + (mpmath.mpf(v.q.numerator) / v.q.denominator) / mpmath.pi)


def _floats(ps: Sequence[int], qs: Sequence[int], scale: int) -> list:
    """The floats of (P + Q/pi) / scale: one int/int division each.

    With Pi within 2 of pi * 2**b, (P*Pi + Q*2**b) / (scale*Pi) differs from
    the value by less than 2**-b * |Q| / scale, and Python rounds the
    int/int quotient correctly. P and Q can exceed the value by hundreds of
    bits (they cancel), so b is their bit count plus ``_GUARD_BITS``.
    """
    b = _GUARD_BITS + max(
        scale.bit_length(), *(v.bit_length() for v in ps), *(v.bit_length() for v in qs)
    )
    pi = _scaled_pi(b)
    den = scale * pi
    return [(P * pi + (Q << b)) / den for P, Q in zip(ps, qs)]


def _scaled_pi(bits: int) -> int:
    """An integer within 2 of pi * 2**bits, the same one for every call."""
    top = 1 << max(10, (bits - 1).bit_length())  # few distinct precisions
    return _machin_pi(top) >> (top - bits)


@functools.lru_cache(maxsize=None)
def _machin_pi(bits: int) -> int:
    """pi * 2**bits to within 1, from Machin's formula in integers.

    pi = 16 arctan(1/5) - 4 arctan(1/239); each series runs in fixed point
    with 32 guard bits, which absorb the one-unit truncation of every term.
    """
    one = 1 << (bits + 32)

    def arctan_inv(x: int) -> int:
        power, total, k, sign = one // x, 0, 1, 1
        while power:
            total += sign * (power // k)
            power //= x * x
            k += 2
            sign = -sign
        return total

    return (16 * arctan_inv(5) - 4 * arctan_inv(239)) >> 32


class PotentialTable:
    """Octant table of exact potential-kernel values up to L-infinity radius N.

    Stores a(i, j) for 0 <= j <= i <= N as integer numerators over the
    common odd scale L_N = lcm(1, 3, ..., 2N - 1): column i of the lists
    ``p`` and ``q`` holds P(i, j) and Q(i, j) for j = 0..i, and
    a(i, j) = (P + Q/pi) / L_N. The rest of the plane follows from the
    dihedral symmetry a(i, j) = a(j, i) = a(|i|, |j|).
    """

    def __init__(self, radius: int, scale: int, p: list, q: list):
        self.radius = radius
        self.scale = scale
        self._p = p
        self._q = q

    def numerators(self, x: Sequence[int]) -> tuple:
        """(P, Q) with a(x) = (P + Q/pi) / scale."""
        i, j = abs(int(x[0])), abs(int(x[1]))
        if j > i:
            i, j = j, i
        if i > self.radius:
            raise ValueError(
                f"point {tuple(x)} outside the radius-{self.radius} table"
            )
        return self._p[i][j], self._q[i][j]

    def numerator_arrays(self, a: np.ndarray, b: np.ndarray) -> tuple:
        """``numerators`` at the points (a[n], b[n]) of two coordinate
        arrays: the arrays of P and of Q (``window.int_array``)."""
        i, j = np.abs(a), np.abs(b)
        i, j = np.maximum(i, j), np.minimum(i, j)
        outside = np.flatnonzero(i > self.radius)
        if outside.size:
            n = outside[0]
            raise ValueError(
                f"point {(int(a[n]), int(b[n]))} outside the radius-{self.radius} table"
            )
        at = i * (i + 1) // 2 + j  # column i of the octant starts at i (i + 1) / 2
        return tuple(int_array([v for col in part for v in col])[at] for part in (self._p, self._q))

    def _exact(self, P: int, Q: int) -> PiRational:
        return PiRational(Fraction(P, self.scale), Fraction(Q, self.scale))

    def value(self, x: Sequence[int]) -> PiRational:
        return self._exact(*self.numerators(x))

    def float_value(self, x: Sequence[int]) -> float:
        return float(self.value(x))

    def octant_items(self):
        """((i, j), a(i, j)) for 0 <= j <= i <= N, sorted by (i, j)."""
        return [
            ((i, j), self._exact(P, Q))
            for i, (ps, qs) in enumerate(zip(self._p, self._q))
            for j, (P, Q) in enumerate(zip(ps, qs))
        ]

    def float_array(self) -> np.ndarray:
        """Dense (N+1, N+1) float rendering, symmetrized across the diagonal."""
        n = self.radius
        rows, cols = np.tril_indices(n + 1)  # the octant's (i, j), column by column
        arr = np.zeros((n + 1, n + 1))
        arr[rows, cols] = arr[cols, rows] = _floats(
            [v for col in self._p for v in col], [v for col in self._q for v in col], self.scale
        )
        return arr


def potential_table(radius: int) -> PotentialTable:
    """Build the exact octant table column by column, in integers over L_N.

    Start from a(0,0)=0, a(1,0)=1 and the diagonal closed form, whose
    numerator Q(n, n) = 4 * sum over j <= n of L_N/(2j - 1) is an integer;
    each new column n+1 is produced by harmonicity at (n,n) combined with
    symmetry,
    a(n+1, n) = 2 a(n,n) - a(n,n-1),
    then by harmonicity at (n, j) for j = n-1 down to 0,
    a(n+1, j) = 4 a(n,j) - a(n-1,j) - a(n,j+1) - a(n,j-1),
    where the j = 0 case reads a(n,-1) as a(n,1) by symmetry. The P and Q
    numerators follow the same recurrence separately.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    scale = math.lcm(*range(1, 2 * radius, 2))
    diagonal = 4 * scale
    p = [[0], [scale, 0]]
    q = [[0], [0, diagonal]]
    for n in range(1, radius):
        diagonal += 4 * scale // (2 * n + 1)
        p.append(_next_column(p[n - 1], p[n], 0))
        q.append(_next_column(q[n - 1], q[n], diagonal))
    return PotentialTable(radius, scale, p, q)


def _next_column(prev: list, cur: list, diagonal: int) -> list:
    """Column n + 1 of one numerator part from columns n - 1 and n."""
    n = len(cur) - 1
    below = [cur[1]] + cur[: n - 1]  # a(n, j - 1), reading a(n, -1) as a(n, 1)
    return [
        4 * c - b - up - down for c, b, up, down in zip(cur, prev, cur[1:], below)
    ] + [2 * cur[n] - cur[n - 1], diagonal]


_FLOAT_CACHE: dict = {}


def potential_float_array(radius: int) -> np.ndarray:
    """Cached float rendering of the exact table (used by sampling lanes)."""
    have = _FLOAT_CACHE.get("radius", -1)
    if have < radius:
        _FLOAT_CACHE["radius"] = radius
        _FLOAT_CACHE["array"] = potential_table(radius).float_array()
    return _FLOAT_CACHE["array"]


def origin_killed_green(table: PotentialTable, x, y) -> PiRational:
    """Expected visits to y strictly before hitting the origin, from x != 0.

    The value is a(x) + a(y) - a(x - y). Both sides solve the same linear
    problem: applying (one-step average minus identity) in x kills a(x) and
    a(x - y) except for unit defects at x = 0 and x = y, so the right side
    satisfies the visit-count recursion off the origin and vanishes at the
    origin. The difference from the true count is bounded, harmonic off the
    origin, and zero there, hence zero everywhere by optional stopping at
    the (almost surely finite) hitting time of the origin.
    """
    x = (int(x[0]), int(x[1]))
    y = (int(y[0]), int(y[1]))
    if x == (0, 0):
        raise ValueError("start must differ from the origin")
    return table.value(x) + table.value(y) - table.value((x[0] - y[0], x[1] - y[1]))


def asymptotic_residual(table: PotentialTable, x) -> float:
    """a(x) minus its logarithmic asymptote, evaluated at 50 digits.

    The asymptote is (2/pi) log|x| + (2*gamma + log 8)/pi with gamma the
    Euler-Mascheroni constant; the residual decays like 1/|x|^2.
    """
    i, j = int(x[0]), int(x[1])
    if (i, j) == (0, 0):
        raise ValueError("residual undefined at the origin")
    with _mp_value(table.value((i, j)), 20) as (mp, value):
        norm2 = mp.mpf(i) ** 2 + mp.mpf(j) ** 2
        asym = mp.log(norm2) / mp.pi + (2 * mp.euler + mp.log(8)) / mp.pi
        return float(value - asym)


@dataclass
class HarmonicityReport:
    radius: int
    checked: int
    violations: list
    origin_defect: Fraction
    symmetry_ok: bool
    patch_oracle_ok: Optional[bool]
    odd_denominator_note: str

    @property
    def all_ok(self) -> bool:
        return (
            not self.violations
            and self.origin_defect == 1
            and self.symmetry_ok
            and self.patch_oracle_ok is not False
        )


def verify_harmonicity(table: PotentialTable) -> HarmonicityReport:
    """Exact harmonicity, symmetry, and an independent local re-derivation.

    Checks 4 a(x) = sum of the four neighbour values at every point with
    all neighbours inside the table, except the origin, where the defect
    (one-step average minus the value) must be exactly 1; both run on the
    integer numerators, P and Q separately. Symmetry compares the two
    readers, ``numerators`` and ``numerator_arrays``, at the eight dihedral
    images of every point of [0, min(N, 6)]^2. Also re-derives a(3,1) by
    solving the harmonicity equations on a 9x9 patch whose outer ring is
    pinned to table values, and reports whether the rational parts keep
    odd denominators: each reduced denominator divides the odd scale L_N.
    """
    n, scale = table.radius, table.scale
    defects: dict = {}
    for part, col in enumerate((table._p, table._q)):
        # grid[n + i][n + j] = the part's numerator at (i, j), |i|, |j| <= n
        half = [[col[max(i, j)][min(i, j)] for j in range(n + 1)] for i in range(n + 1)]
        rows = [row[:0:-1] + row for row in half]
        grid = rows[:0:-1] + rows
        for i in range(1, 2 * n):
            up, mid, down = grid[i + 1], grid[i], grid[i - 1]
            for k, (u, d, left, c, right) in enumerate(
                zip(up[1:], down[1:], mid, mid[1:], mid[2:]), 1
            ):
                s = u + d + left + right - 4 * c
                if s and (i, k) != (n, n):
                    defects.setdefault((i - n, k - n), [0, 0])[part] = s
    violations = [(x, table._exact(*defects[x])) for x in sorted(defects)]

    neighbours = [table.numerators(x) for x in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    p0, q0 = table.numerators((0, 0))
    defect_q = sum(q for _, q in neighbours) - 4 * q0
    origin_defect = (
        Fraction(sum(p for p, _ in neighbours) - 4 * p0, 4 * scale)
        if defect_q == 0 else Fraction(-1)
    )

    # both readers fold a point onto the octant, each in its own way: at the
    # eight dihedral images of every point of [0, m]^2 they must agree with
    # each other and with the point itself
    m = min(n, 6)
    i, j = (g.ravel() for g in np.indices((m + 1, m + 1)))
    images = [(s * u, t * v) for u, v in ((i, j), (j, i)) for s in (1, -1) for t in (1, -1)]
    xs, ys = (np.concatenate(c) for c in zip(*images))
    folded = zip(*(part.tolist() for part in table.numerator_arrays(xs, ys)))
    own = [table.numerators(p) for p in zip(i.tolist(), j.tolist())] * len(images)
    symmetry_ok = all(
        table.numerators(p) == got == want
        for p, got, want in zip(zip(xs.tolist(), ys.tolist()), folded, own)
    )

    patch_ok = _patch_oracle_matches(table) if n >= 5 else None

    note = (
        "rational parts have odd denominators throughout"
        if scale % 2 == 1
        else "WARNING: an entry has an even denominator"
    )
    return HarmonicityReport(
        radius=n,
        checked=(2 * n - 1) ** 2 - 1,
        violations=violations,
        origin_defect=origin_defect,
        symmetry_ok=symmetry_ok,
        patch_oracle_ok=patch_ok,
        odd_denominator_note=note,
    )


def _patch_oracle_matches(table: PotentialTable) -> bool:
    """Re-derive a(3,1) from a Dirichlet solve on the 9x9 patch [-4,4]^2.

    Unknowns: the 49 interior points. Equations: harmonicity at each
    interior point except the origin, plus the pin a(0,0) = 0; the outer
    ring supplies boundary data from the table. The homogeneous system
    only admits multiples of the patch Green function at the origin, which
    the pin kills, so the solution is unique and must reproduce the table.
    """
    from .green import _eliminate

    interior = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    index = {pt: k for k, pt in enumerate(interior)}
    rows = [{} for _ in interior]
    rhs = [ZERO for _ in interior]
    for pt, k in index.items():
        if pt == (0, 0):
            rows[k][k] = 1
            continue
        rows[k][k] = 4
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (pt[0] + di, pt[1] + dj)
            kk = index.get(nb)
            if kk is None:
                rhs[k] = rhs[k] + table.value(nb)
            else:
                rows[k][kk] = -1
    # the p and q parts never mix under rational row operations: solve both
    # as two right-hand-side columns of one elimination, each equation
    # scaled to integers by the lcm of its p and q denominators
    b = []
    for row, r in zip(rows, rhs):
        m = math.lcm(r.p.denominator, r.q.denominator)
        for j in row:
            row[j] *= m
        b.append({c: v.numerator * (m // v.denominator) for c, v in enumerate((r.p, r.q)) if v})
    p_part, q_part = _eliminate(rows, b, 2)
    k = index[(3, 1)]
    return PiRational(p_part[k], q_part[k]) == table.value((3, 1))


def potential_mc(
    x,
    y_list: Sequence,
    trajectories: int,
    seed: int,
    step_cap: int = 10_000_000,
    on_cap: str = "error",
    escape_radius: int = 64,
):
    """Monte Carlo visit counts E_x[L^y before hitting the origin].

    The plane lane's one ensemble for ``green.green_mc_grid``'s single
    start x serves every y: a run jumps across squares that hold neither
    the origin nor a target, and ``step_cap`` counts those draws.
    ``trajectories`` must be at least 1. Returns the green-solver result
    objects (value, stderr, truncated run count, draws) in y_list order.
    Estimates should approach a(x) as the targets move far away.
    """
    from .examplechains import Z2Walk
    from .green import green_mc_grid

    x = (int(x[0]), int(x[1]))
    if x == (0, 0):
        raise ValueError("start must differ from the origin")
    targets = [(int(y[0]), int(y[1])) for y in y_list]
    grid = green_mc_grid(
        Z2Walk(), (0, 0), [x], targets, trajectories, seed,
        step_cap=step_cap, on_cap=on_cap, escape_radius=escape_radius,
    )
    return [grid[(x, t)] for t in targets]
