"""Tests for the exact planar potential kernel and its consistency checks.

Verification strategy: the table's first entries are classical exact values
asserted verbatim; every interior point must satisfy the four-neighbour
mean property exactly, with the origin carrying a defect of exactly one;
an independent Dirichlet solve on a small patch must reproduce a table
entry; the large-distance residual against the logarithmic asymptote must
approach the known +-1/(6 pi) direction-dependent correction; Monte Carlo
visit counts are held to four standard errors at a fixed seed. The
integer table is held to a reference recurrence in ``Fraction`` pairs and
its floats to a per-entry mpmath rendering.
"""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurmartin.potential import (
    PiRational,
    PotentialTable,
    _scaled_pi,
    asymptotic_residual,
    origin_killed_green,
    potential_float_array,
    potential_mc,
    potential_table,
    verify_harmonicity,
)

TABLE = potential_table(26)


# ---------------------------------------------------------------------------
# Exact pi-rational arithmetic


def test_pirational_algebra():
    u = PiRational.of(1, 2)
    v = PiRational.of(3, -1)
    assert u + v == PiRational.of(4, 1)
    assert u - v == PiRational.of(-2, 3)
    assert -u == PiRational.of(-1, -2)
    assert 3 * u == PiRational.of(3, 6)
    assert u / 2 == PiRational.of(Fraction(1, 2), 1)
    assert u + 1 == PiRational.of(2, 2)
    assert bool(PiRational.of(0, 0)) is False
    assert bool(PiRational.of(0, 1)) is True


def test_pirational_products_are_refused():
    with pytest.raises(TypeError):
        PiRational.of(1, 0) * PiRational.of(0, 1)


def test_pirational_float_and_decimal():
    assert float(PiRational.of(1, 0)) == 1.0
    assert float(PiRational.of(0, 4)) == pytest.approx(4 / math.pi, rel=1e-15)
    text = PiRational.of(0, 4).decimal(30)
    assert text.startswith("1.2732395447351626861510701069")


def _mp_float(v: PiRational) -> float:
    """p + q/pi rendered in one mpmath context, 60 digits beyond the operands."""
    bits = max(
        v.p.numerator.bit_length(), v.p.denominator.bit_length(),
        v.q.numerator.bit_length(), v.q.denominator.bit_length(),
    )
    with mpmath.workdps(60 + int(bits * 0.30103)):
        return float(mpmath.mpf(v.p.numerator) / v.p.denominator
                     + (mpmath.mpf(v.q.numerator) / v.q.denominator) / mpmath.pi)


@settings(max_examples=60, deadline=None)
@given(
    p=st.fractions(max_denominator=10**30).filter(lambda f: abs(f) < 10**40),
    q=st.fractions(max_denominator=10**30).filter(lambda f: abs(f) < 10**40),
)
def test_pirational_float_is_the_rounded_value(p, q):
    assert float(PiRational(p, q)) == _mp_float(PiRational(p, q))


def test_float_survives_cancellation():
    # 355/113 is within 3e-7 of pi: p + q/pi cancels to below 1e-7 of |p|
    v = PiRational.of(-113 * 10**80, 355 * 10**80)
    assert float(v) == _mp_float(v)
    assert 0 < float(v) < 1e-7 * 113 * 10**80


@pytest.mark.parametrize("bits", [1, 53, 700, 3000])
def test_scaled_pi_is_within_two_units(bits):
    with mpmath.workprec(bits + 64):
        exact = mpmath.pi * mpmath.mpf(2) ** bits
        assert abs(_scaled_pi(bits) - exact) <= 2


# ---------------------------------------------------------------------------
# Table anchors


def test_first_table_entries_are_the_classical_values():
    assert TABLE.value((0, 0)) == PiRational.of(0, 0)
    assert TABLE.value((1, 0)) == PiRational.of(1, 0)
    assert TABLE.value((1, 1)) == PiRational.of(0, 4)
    assert TABLE.value((2, 0)) == PiRational.of(4, -8)
    assert TABLE.value((2, 1)) == PiRational.of(-1, 8)
    assert TABLE.value((2, 2)) == PiRational.of(0, Fraction(16, 3))


def test_table_respects_dihedral_symmetry():
    for i, j in ((3, 2), (5, 0), (4, 4), (6, 1)):
        v = TABLE.value((i, j))
        assert TABLE.value((j, i)) == v
        assert TABLE.value((-i, j)) == v
        assert TABLE.value((i, -j)) == v
        assert TABLE.value((-j, -i)) == v


def test_table_grows_along_the_axis():
    floats = [TABLE.float_value((n, 0)) for n in range(1, 12)]
    assert all(a < b for a, b in zip(floats, floats[1:]))


def test_points_outside_the_table_are_rejected():
    with pytest.raises(ValueError):
        TABLE.value((27, 0))
    with pytest.raises(ValueError):
        potential_table(0)


@settings(max_examples=40, deadline=None)
@given(i=st.integers(-10, 10), j=st.integers(-10, 10))
def test_four_neighbour_mean_property(i, j):
    if (i, j) == (0, 0):
        s = sum(
            (TABLE.value((i + di, j + dj)) for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))),
            PiRational.of(0, 0),
        )
        assert s == PiRational.of(4, 0)  # defect of exactly one
    else:
        s = sum(
            (TABLE.value((i + di, j + dj)) for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))),
            PiRational.of(0, 0),
        )
        assert s == 4 * TABLE.value((i, j))


# ---------------------------------------------------------------------------
# Integer table against the Fraction recurrence


def _fraction_table(radius: int) -> dict:
    """The octant built in reduced PiRational pairs, one Fraction per entry."""
    def diagonal(n):
        return PiRational.of(0, 4 * sum(Fraction(1, 2 * j - 1) for j in range(1, n + 1)))

    a = {(0, 0): PiRational.of(0, 0), (1, 0): PiRational.of(1, 0), (1, 1): diagonal(1)}
    for n in range(1, radius):
        a[(n + 1, n + 1)] = diagonal(n + 1)
        a[(n + 1, n)] = 2 * a[(n, n)] - a[(n, n - 1)]
        for j in range(n - 1, -1, -1):
            below = a[(n, 1)] if j == 0 else a[(n, j - 1)]
            a[(n + 1, j)] = 4 * a[(n, j)] - a[(n - 1, j)] - a[(n, j + 1)] - below
    return a


def test_integer_table_equals_the_fraction_recurrence():
    reference = _fraction_table(60)
    items = potential_table(60).octant_items()
    assert [x for x, _ in items] == sorted(reference)
    for x, v in items:
        assert (v.p, v.q) == (reference[x].p, reference[x].q)


def test_float_array_equals_the_per_entry_mpmath_rendering():
    table = potential_table(106)
    expected = np.zeros((107, 107))
    for (i, j), v in table.octant_items():
        expected[i, j] = expected[j, i] = _mp_float(v)
    arr = table.float_array()
    assert np.array_equal(arr, expected)
    assert table.float_value((106, 7)) == expected[106, 7] == float(table.value((7, -106)))


def test_reduced_denominators_divide_the_odd_scale():
    scale = math.lcm(*range(1, 240, 2))
    table = potential_table(120)
    assert table.scale == scale
    for _, v in table.octant_items():
        assert scale % v.p.denominator == 0
        assert scale % v.q.denominator == 0
    # the bound is attained: the diagonal a(120, 120) needs all of L_120
    assert table.value((120, 120)).q.denominator == scale


def test_harmonicity_report_names_each_defect():
    table = potential_table(9)
    table._q[4][2] += 3 * table.scale  # a(4, 2) gains 3/pi, and so do its images
    report = verify_harmonicity(table)
    assert not report.all_ok
    assert report.checked == 17 * 17 - 1
    defects = dict(report.violations)
    assert defects[(4, 2)] == PiRational.of(0, -12)
    assert defects[(-2, 4)] == PiRational.of(0, -12)
    assert defects[(5, 2)] == PiRational.of(0, 3)
    assert len(defects) == 8 * 5
    assert [x for x, _ in report.violations] == sorted(defects)
    assert report.origin_defect == 1
    # a corrupted entry is read at all its images alike: still symmetric
    assert report.symmetry_ok


# ---------------------------------------------------------------------------
# Consistency report


def test_harmonicity_report_is_clean():
    report = verify_harmonicity(potential_table(10))
    assert report.all_ok
    assert report.checked == 19 * 19 - 1
    assert report.violations == []
    assert report.origin_defect == 1
    assert report.symmetry_ok
    assert report.patch_oracle_ok is True
    assert "odd denominators" in report.odd_denominator_note


@pytest.mark.parametrize("reader", ["numerators", "numerator_arrays"])
def test_harmonicity_report_catches_a_broken_fold(monkeypatch, reader):
    # each reader folds the plane onto the octant itself; one that reads
    # (-i, j) as (0, j) serves an asymmetric function
    original = getattr(PotentialTable, reader)
    if reader == "numerators":
        broken = lambda self, x: original(self, (max(x[0], 0), x[1]))
    else:
        broken = lambda self, a, b: original(self, np.maximum(a, 0), b)
    monkeypatch.setattr(PotentialTable, reader, broken)
    report = verify_harmonicity(potential_table(8))
    assert not report.symmetry_ok and not report.all_ok


def test_patch_oracle_skipped_on_tiny_tables():
    report = verify_harmonicity(potential_table(4))
    assert report.patch_oracle_ok is None
    assert report.all_ok


# ---------------------------------------------------------------------------
# Killed Green values through the potential kernel


def test_origin_killed_green_closed_values():
    assert origin_killed_green(TABLE, (1, 0), (1, 0)) == PiRational.of(2, 0)
    assert origin_killed_green(TABLE, (1, 0), (0, 1)) == PiRational.of(2, -4)
    # visits are symmetric under swapping start and target (uniform weights)
    for x, y in (((2, 1), (1, 3)), ((4, 0), (1, 1))):
        assert origin_killed_green(TABLE, x, y) == origin_killed_green(TABLE, y, x)


def test_origin_killed_green_rejects_origin_start():
    with pytest.raises(ValueError):
        origin_killed_green(TABLE, (0, 0), (1, 0))


def test_origin_killed_green_nonnegative_on_sample():
    for x in ((1, 0), (2, 2), (5, 1)):
        for y in ((1, 0), (3, 2), (0, 4)):
            assert float(origin_killed_green(TABLE, x, y)) >= 0


# ---------------------------------------------------------------------------
# Asymptotics


def test_residual_decays_along_the_axis():
    r5 = abs(asymptotic_residual(TABLE, (5, 0)))
    r12 = abs(asymptotic_residual(TABLE, (12, 0)))
    r24 = abs(asymptotic_residual(TABLE, (24, 0)))
    assert r5 > r12 > r24
    assert r24 < 1e-4


def test_residual_approaches_direction_dependent_constant():
    # second-order term of the expansion: -1/(6 pi |x|^2) on the axis,
    # +1/(6 pi |x|^2) on the diagonal
    axis = asymptotic_residual(TABLE, (24, 0)) * 24**2
    diag = asymptotic_residual(TABLE, (24, 24)) * (2 * 24**2)
    assert axis * 6 * math.pi == pytest.approx(-1.0, abs=0.01)
    assert diag * 6 * math.pi == pytest.approx(1.0, abs=0.01)


def test_residual_rejects_origin():
    with pytest.raises(ValueError):
        asymptotic_residual(TABLE, (0, 0))


# ---------------------------------------------------------------------------
# Float rendering


def test_float_array_matches_exact_table():
    arr = potential_float_array(8)
    assert arr.shape[0] >= 9
    assert arr[0, 0] == 0.0
    assert arr[3, 1] == pytest.approx(TABLE.float_value((3, 1)), rel=1e-15)
    assert arr[1, 3] == arr[3, 1]
    small = potential_float_array(5)
    assert small.shape[0] >= 6
    assert np.array_equal(small[:9, :9][3:4, 1], arr[3:4, 1])


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_potential_mc_within_four_stderr():
    oracle = potential_table(34)
    targets = [(1, 0), (2, 1), (30, 0)]
    results = potential_mc(
        (1, 0), targets, 3000, seed=515, escape_radius=24, on_cap="truncate"
    )
    for y, res in zip(targets, results):
        exact = float(origin_killed_green(oracle, (1, 0), y))
        assert abs(res.value - exact) <= 4 * res.stderr
    # far targets approach a(x): direct visits vanish, the tail carries all
    assert abs(results[-1].value - 1.0) < 0.15


def test_potential_mc_rejects_origin_start():
    with pytest.raises(ValueError):
        potential_mc((0, 0), [(1, 0)], 100, seed=1)
