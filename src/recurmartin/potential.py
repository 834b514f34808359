"""Exact potential kernel of the simple random walk on the square lattice.

Every value a(i, j) lies in Q + Q/pi, so the table stores exact pairs
(p, q) meaning p + q/pi. Exactness matters: the defining recurrences
amplify floating-point error geometrically along octant shells, while the
pair arithmetic is closed under every operation the construction needs.

Normalization: a(0,0) = 0, a is discretely harmonic everywhere except at
the origin, where the one-step average exceeds the value by exactly 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np


_PRECISION_DIGITS = 50


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

    def _dps(self, digits: int) -> int:
        # p and q can be huge while p + q/pi is small; precision must cover
        # the cancellation, so scale it with the operand magnitudes
        bits = max(
            self.p.numerator.bit_length(), self.p.denominator.bit_length(),
            self.q.numerator.bit_length(), self.q.denominator.bit_length(),
        )
        return max(_PRECISION_DIGITS, digits) + int(bits * 0.30103) + 10

    def __float__(self) -> float:
        with mpmath.workdps(self._dps(20)):
            return float(mpmath.mpf(self.p.numerator) / self.p.denominator
                         + (mpmath.mpf(self.q.numerator) / self.q.denominator)
                         / mpmath.pi)

    def decimal(self, digits: int = 30) -> str:
        """Decimal rendering at the requested precision (>= 30 digits)."""
        digits = max(digits, 30)
        with mpmath.workdps(self._dps(digits)):
            val = (mpmath.mpf(self.p.numerator) / self.p.denominator
                   + (mpmath.mpf(self.q.numerator) / self.q.denominator)
                   / mpmath.pi)
            return mpmath.nstr(val, digits)


def _coerce(v) -> PiRational:
    if isinstance(v, PiRational):
        return v
    return PiRational(Fraction(v), Fraction(0))


ZERO = PiRational.of(0, 0)


def _diagonal_value(n: int) -> PiRational:
    """a(n, n) = (4/pi) * sum of reciprocals of the first n odd integers."""
    acc = Fraction(0)
    for j in range(1, n + 1):
        acc += Fraction(1, 2 * j - 1)
    return PiRational(Fraction(0), 4 * acc)


class PotentialTable:
    """Octant table of exact potential-kernel values up to L-infinity radius N.

    Stores a(i, j) for 0 <= j <= i <= N; the rest of the plane follows from
    the dihedral symmetry a(i, j) = a(j, i) = a(|i|, |j|).
    """

    def __init__(self, radius: int, entries: dict):
        self.radius = radius
        self._entries = entries

    def value(self, x: Sequence[int]) -> PiRational:
        i, j = abs(int(x[0])), abs(int(x[1]))
        if j > i:
            i, j = j, i
        if i > self.radius:
            raise ValueError(
                f"point {tuple(x)} outside the radius-{self.radius} table"
            )
        return self._entries[(i, j)]

    def float_value(self, x: Sequence[int]) -> float:
        return float(self.value(x))

    def octant_items(self):
        return sorted(self._entries.items())

    def float_array(self) -> np.ndarray:
        """Dense (N+1, N+1) float rendering, symmetrized across the diagonal."""
        n = self.radius
        arr = np.zeros((n + 1, n + 1))
        for (i, j), v in self._entries.items():
            arr[i, j] = float(v)
            arr[j, i] = arr[i, j]
        return arr


def potential_table(radius: int) -> PotentialTable:
    """Build the exact octant table column by column.

    Start from a(0,0)=0, a(1,0)=1 and the diagonal closed form; each new
    column n+1 is produced by harmonicity at (n,n) combined with symmetry,
    a(n+1, n) = 2 a(n,n) - a(n,n-1),
    then by harmonicity at (n, j) descending from j = n-1 to 0,
    a(n+1, j) = 4 a(n,j) - a(n-1,j) - a(n,j+1) - a(n,j-1),
    where the j = 0 case reads a(n,-1) as a(n,1) by symmetry.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    a = {(0, 0): ZERO, (1, 0): PiRational.of(1, 0), (1, 1): _diagonal_value(1)}
    for n in range(1, radius):
        a[(n + 1, n + 1)] = _diagonal_value(n + 1)
        a[(n + 1, n)] = 2 * a[(n, n)] - a[(n, n - 1)]
        for j in range(n - 1, -1, -1):
            below = a[(n, 1)] if j == 0 else a[(n, j - 1)]
            a[(n + 1, j)] = 4 * a[(n, j)] - a[(n - 1, j)] - a[(n, j + 1)] - below
    return PotentialTable(radius, a)


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
    exact = table.value((i, j))
    with mpmath.workdps(exact._dps(20)):
        val = (mpmath.mpf(exact.p.numerator) / exact.p.denominator
               + (mpmath.mpf(exact.q.numerator) / exact.q.denominator) / mpmath.pi)
        norm2 = mpmath.mpf(i) ** 2 + mpmath.mpf(j) ** 2
        asym = (mpmath.log(norm2) / mpmath.pi
                + (2 * mpmath.euler + mpmath.log(8)) / mpmath.pi)
        return float(val - asym)


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
    (one-step average minus the value) must be exactly 1. Also re-derives
    a(3,1) by solving the harmonicity equations on a 9x9 patch whose outer
    ring is pinned to table values, and reports whether the rational parts
    keep denominators dividing a product of odd integers.
    """
    n = table.radius
    violations = []
    checked = 0
    for i in range(-(n - 1), n):
        for j in range(-(n - 1), n):
            if (i, j) == (0, 0):
                continue
            checked += 1
            s = (
                table.value((i + 1, j))
                + table.value((i - 1, j))
                + table.value((i, j + 1))
                + table.value((i, j - 1))
                - 4 * table.value((i, j))
            )
            if s:
                violations.append(((i, j), s))
    defect = (
        table.value((1, 0)) + table.value((-1, 0))
        + table.value((0, 1)) + table.value((0, -1))
    ) / 4 - table.value((0, 0))
    origin_defect = defect.p if defect.q == 0 else Fraction(-1)

    symmetry_ok = all(
        table.value((i, j)) == table.value((j, i)) == table.value((-i, j))
        for i in range(0, min(n, 6) + 1)
        for j in range(0, min(n, 6) + 1)
    )

    patch_ok = _patch_oracle_matches(table) if n >= 5 else None

    odd_ok = all(
        _odd_denominator(v.p) and _odd_denominator(v.q)
        for _, v in table.octant_items()
    )
    note = (
        "rational parts have odd denominators throughout"
        if odd_ok
        else "WARNING: an entry has an even denominator"
    )
    return HarmonicityReport(
        radius=n,
        checked=checked,
        violations=violations,
        origin_defect=origin_defect,
        symmetry_ok=symmetry_ok,
        patch_oracle_ok=patch_ok,
        odd_denominator_note=note,
    )


def _odd_denominator(f: Fraction) -> bool:
    return f.denominator % 2 == 1


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
            rows[k][k] = Fraction(1)
            continue
        rows[k][k] = Fraction(4)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (pt[0] + di, pt[1] + dj)
            kk = index.get(nb)
            if kk is None:
                rhs[k] = rhs[k] + table.value(nb)
            else:
                rows[k][kk] = Fraction(-1)
    # the p and q parts never mix under rational row operations: solve both
    # as two right-hand-side columns of one elimination
    b = [{c: v for c, v in enumerate((r.p, r.q)) if v} for r in rhs]
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
    escape_radius: Optional[int] = 64,
):
    """Monte Carlo visit counts E_x[L^y before hitting the origin].

    One trajectory ensemble of the plane lane (``green._plane_walk``)
    serves every y: a run jumps across squares that hold neither the
    origin nor a target, and ``step_cap`` counts those draws. Returns the
    green-solver result objects (value, stderr, truncated run count, draws)
    in y_list order. Estimates should approach a(x) as the targets move
    far away.
    """
    from .green import _ensemble, _plane_walk

    x = (int(x[0]), int(x[1]))
    if x == (0, 0):
        raise ValueError("start must differ from the origin")
    targets = [(int(y[0]), int(y[1])) for y in y_list]
    return _ensemble(
        _plane_walk(x, targets, escape_radius), trajectories, seed, 0, step_cap, on_cap
    )
