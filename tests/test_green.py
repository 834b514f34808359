"""Tests for the killed Green solver, visit-ratio kernel, and sampling lanes.

Verification strategy: exact window solves are compared against the chains'
independent hand closed forms; the kill-policy contract (certified lower
bounds, monotone in the radius) is asserted on explicit value sequences;
the discounted solver is tied to the killed solver through the algebraic
identity W = G + (r/(1-r)) G(base, .); Monte Carlo estimates must land
within four standard errors of exact values at fixed seeds, on the
vectorized lanes and on the generic lane that walks any chain's successor
table. The ensemble driver's runs must not depend on the run count, the
block schedule or the slab size, since every draw is keyed by trajectory and
step. The sparse
exact elimination is checked against a dense Gauss-Jordan oracle kept in
this module, on random sparse substochastic systems.
"""
import ast
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurmartin import green as green_module
from recurmartin.errors import RunawayRunError, SingularSystemError, ZeroDenominatorError
from recurmartin.examplechains import (
    ROOT,
    BangBangWalk,
    KaryTree,
    Z2Walk,
    ZWalk,
    exact_green,
)
from recurmartin.green import (
    EXACT_SOLVE_LIMIT,
    GreenResult,
    Truncation,
    _eliminate,
    _exit_level,
    _line_jumps,
    _solve_columns_float,
    _square_exit_law,
    _tree_jumps,
    default_radius,
    green_mc,
    green_mc_grid,
    green_solve,
    green_solve_discounted,
    martin_kernel,
    window_system,
)
from recurmartin.potential import origin_killed_green, potential_mc, potential_table
from recurmartin.rng import GREEN_ENSEMBLE, counter_bits, stream_keys
from recurmartin.window import SuccessorTable, WindowOperator

Z = ZWalk()
BB = BangBangWalk()
TREE = KaryTree(2)
TREE3 = KaryTree(3)
PLANE = Z2Walk()


def fraction_rows(op):
    """The operator's rows as lists of (column, Fraction), read from its CSR
    arrays: a reference view of the integer numerators."""
    cols, nums, ptr = op.indices.tolist(), op.num.tolist(), op.indptr.tolist()
    return [
        [(cols[e], Fraction(nums[e], op.den)) for e in range(ptr[i], ptr[i + 1])]
        for i in range(len(ptr) - 1)
    ]


def fraction_solve(rows, columns):
    """Solve (I - M) g = e_c for each column c, exactly, from rows of
    (column, Fraction) pairs: each equation is scaled to integers by the lcm
    of its row's denominators and handed to the integer elimination."""
    a, b = [], [{} for _ in rows]
    scales = [math.lcm(1, *(p.denominator for _, p in row)) for row in rows]
    for i, (row, m) in enumerate(zip(rows, scales)):
        entries = {i: m}
        for j, p in row:
            w = entries.get(j, 0) - p.numerator * (m // p.denominator)
            if w:
                entries[j] = w
            else:
                del entries[j]
        a.append(entries)
    for c_ix, c in enumerate(columns):
        b[c][c_ix] = scales[c]
    return _eliminate(a, b, len(columns))


# ---------------------------------------------------------------------------
# Window policies


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(radius=5, policy="fold")
    with pytest.raises(ValueError):
        Truncation(radius=0)


def test_exact_solve_matches_line_closed_form():
    pairs = [(2, 5), (5, 2), (-3, -1), (-1, -3), (3, -3), (0, 4), (4, 0), (4, 4), (0, 0)]
    for x, y in pairs:
        got = green_solve(Z, 0, [(x, y)], Truncation(12), exact=True)[0].value
        assert got == exact_green(Z, 0, x, y)


def test_exact_solve_matches_halfline_closed_form():
    for x in range(0, 7):
        for y in range(0, 7):
            got = green_solve(BB, 0, [(x, y)], Truncation(12), exact=True)[0].value
            assert got == exact_green(BB, 0, x, y)


@pytest.mark.parametrize("tree", [TREE, TREE3])
def test_exact_solve_matches_tree_closed_form(tree):
    # tree windows grow exponentially: batch all pairs into one solve
    nodes = [ROOT, (0,), (1,), (0, 0), (0, 1), (0, 0, 1)]
    queries = [(x, y) for x in nodes for y in nodes]
    results = green_solve(tree, ROOT, queries, Truncation(radius=4), exact=True)
    for (x, y), res in zip(queries, results):
        assert res.value == exact_green(tree, ROOT, x, y)


@settings(max_examples=20, deadline=None)
@given(x=st.integers(-10, 10), y=st.integers(-10, 10))
def test_solver_agrees_with_closed_form_on_random_pairs(x, y):
    got = green_solve(Z, 0, [(x, y)], Truncation(14), exact=True)[0].value
    assert got == exact_green(Z, 0, x, y)


def test_kill_policy_certified_lower_bounds():
    values = [
        green_solve(Z, 0, [(2, 5)], Truncation(rad, "kill"), exact=True)[0].value
        for rad in (6, 8, 10, 12)
    ]
    assert values == [
        Fraction(8, 7),
        Fraction(16, 9),
        Fraction(24, 11),
        Fraction(32, 13),
    ]
    assert all(v < exact_green(Z, 0, 2, 5) for v in values)
    assert values == sorted(values)


def test_loop_policy_is_radius_invariant_on_exact_chains():
    for chain, x0, x, y, radii in (
        (Z, 0, 2, 5, (6, 30)),
        (BB, 0, 3, 1, (5, 25)),
        (TREE, ROOT, (0, 0), (0,), (3, 5)),
    ):
        small = green_solve(chain, x0, [(x, y)], Truncation(radii[0]), exact=True)[0].value
        large = green_solve(chain, x0, [(x, y)], Truncation(radii[1]), exact=True)[0].value
        assert small == large


def test_states_outside_window_are_rejected_by_name():
    with pytest.raises(ValueError, match="30"):
        green_solve(Z, 0, [(30, 2)], Truncation(5), exact=True)


def test_window_errors_name_every_missing_state_in_order():
    # one check serves every window solve: each missing state once, in
    # state_key order
    names = r"states outside the radius-5 window: -9, 30$"
    with pytest.raises(ValueError, match=names):
        green_solve_discounted(
            Z, 0, Fraction(1, 2), [(30, -9), (-9, 30), (2, 3)], Truncation(5)
        )
    with pytest.raises(ValueError, match=names):
        green_solve(Z, 0, [(30, -9), (2, 3)], Truncation(5))
    with pytest.raises(ValueError, match=names):
        martin_kernel(Z, 0, 30, -9, radius=5)
    with pytest.raises(ValueError, match=r"radius-2 window: 0,3, 3,0$"):
        green_solve(PLANE, (0, 0), [((3, 0), (0, 3))], Truncation(2, "kill"))



class OneWayBase(ZWalk):
    """The line, except that the base steps up with certainty: killed at the
    base, the walk from it never reaches the minus side."""

    def successors(self, x):
        return [(1, Fraction(1))] if x == 0 else super().successors(x)


@pytest.mark.parametrize("exact", [True, False])
def test_martin_kernel_refuses_a_vanishing_denominator(exact):
    text = r"^G\(x0, y\) vanished for y=-3; ratio undefined$"
    with pytest.raises(ZeroDenominatorError, match=text):
        martin_kernel(OneWayBase(), 0, -1, -3, exact=exact)


DEEP_80 = ".".join(["0"] * 80)
MISSING_STATE_ERRORS = {
    "node not of the tree": (
        lambda: green_solve(TREE, ROOT, [((5,), (0,))], Truncation(3)),
        "states outside the radius-3 window: 5",
    ),
    "node below the window": (
        lambda: green_solve(TREE, ROOT, [((0,) * 80, (1,))], Truncation(3)),
        f"states outside the radius-3 window: {DEEP_80}",
    ),
    "both, float lane": (
        lambda: green_solve(TREE, ROOT, [((0, 1), (5,)), ((0,) * 80, (5,))], Truncation(3)),
        f"states outside the radius-3 window: 5, {DEEP_80}",
    ),
    "plane past the codes": (
        lambda: green_solve(PLANE, (0, 0), [((2**40, 0), (1, 0))], Truncation(3)),
        "states outside the radius-3 window: 1099511627776,0",
    ),
    "plane kernel": (
        lambda: martin_kernel(PLANE, (0, 0), (2**40, 0), (9, 9), radius=4),
        "states outside the radius-4 window: 9,9, 1099511627776,0",
    ),
    "half line query": (
        lambda: green_solve(BB, 0, [(-1, 2)], Truncation(4)),
        "states outside the radius-4 window: -1",
    ),
    "half line base": (
        lambda: green_solve(BB, -1, [(1, 2)], Truncation(4)),
        "states outside the radius-4 window: -1",
    ),
    "discounted base": (
        lambda: green_solve_discounted(Z, 9, Fraction(1, 2), [(1, 2)], Truncation(4)),
        "states outside the radius-4 window: 9",
    ),
    "line kernel": (
        lambda: martin_kernel(Z, 0, 30, -9, radius=5),
        "states outside the radius-5 window: -9, 30",
    ),
}


@pytest.mark.parametrize("case", sorted(MISSING_STATE_ERRORS))
def test_missing_state_errors_keep_their_text(case):
    # states a code table refuses (no tree node, a coordinate past the plane's
    # codes, a negative half-line state) or names outside the window get the
    # window's own message, not the table's
    solve, text = MISSING_STATE_ERRORS[case]
    with pytest.raises(ValueError) as info:
        solve()
    assert str(info.value) == text


def test_exact_lane_refuses_oversized_windows():
    window = PLANE.window(20)
    assert len(window) > EXACT_SOLVE_LIMIT
    with pytest.raises(ValueError, match="exact"):
        green_solve(PLANE, (0, 0), [((1, 0), (2, 0))], Truncation(20), exact=True)


def test_exact_lane_solves_forest_windows_past_the_limit():
    # 1,401 states of the line: past the limit, but a path eliminates
    # leaves first with no fill, so the exact lane takes it
    assert len(Z.window(700)) > EXACT_SOLVE_LIMIT
    queries = [(5, 650), (-690, -3), (0, 700)]
    results = green_solve(Z, 0, queries, Truncation(radius=700), exact=True)
    for (x, y), res in zip(queries, results):
        assert type(res.value) is Fraction and res.value == exact_green(Z, 0, x, y)


def test_exact_lane_matches_closed_forms_on_long_line():
    # 401 states: out of reach of a cubic dense solve, fill-free here
    ys = [-150, -7, 1, 60, 199]
    queries = [(x, y) for x in (-200, -3, 0, 5, 120, 200) for y in ys]
    results = green_solve(Z, 0, queries, Truncation(radius=200), exact=True)
    for (x, y), res in zip(queries, results):
        assert res.value == exact_green(Z, 0, x, y)


def test_exact_lane_matches_closed_forms_on_deep_tree():
    # 255 states of the binary tree
    nodes = [ROOT, (0,), (1, 1), (0, 1, 0), (1, 0, 1, 1, 0, 0), (0,) * 7]
    queries = [(x, y) for x in nodes for y in nodes]
    results = green_solve(TREE, ROOT, queries, Truncation(radius=7), exact=True)
    for (x, y), res in zip(queries, results):
        assert res.value == exact_green(TREE, ROOT, x, y)


def test_exact_planar_kill_lane_matches_float_lane():
    # 169 states; 2-D windows fill in under elimination but stay exact
    queries = [((1, 0), (2, 1)), ((3, -2), (0, 1)), ((-6, 6), (1, 0))]
    trunc = Truncation(radius=6, policy="kill")
    exact = green_solve(PLANE, (0, 0), queries, trunc, exact=True)
    floats = green_solve(PLANE, (0, 0), queries, trunc, exact=False)
    for e, f in zip(exact, floats):
        assert isinstance(e.value, Fraction)
        assert float(e.value) == pytest.approx(f.value, abs=1e-12)


def test_float_lane_matches_exact_lane():
    for x, y in ((2, 5), (-3, -1), (4, 4)):
        f = green_solve(Z, 0, [(x, y)], Truncation(12), exact=False)[0].value
        e = green_solve(Z, 0, [(x, y)], Truncation(12), exact=True)[0].value
        assert f == pytest.approx(float(e), abs=1e-12)



def _scoped_calls(node, scope=""):
    """Every call under ``node``, with the dotted name of its enclosing
    class and function definitions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scoped_calls(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _scoped_calls(child, scope)


def test_one_route_builds_and_solves_window_systems():
    # every window operator is built by window_system, and every exact
    # window solve eliminates through _solve_columns; the planar potential
    # kernel's patch oracle is the one other integer system. Every kernel
    # sum's array form (the profile, the mixture, the row-sum weight, the
    # half-line witness's psi) is built by kernel_sum_array, the one reader
    # of a kernel's array form
    allowed = {
        "window_operator": {("green", "window_system")},
        "_eliminate": {("green", "_solve_columns"), ("potential", "_patch_oracle_matches")},
        "kernel_array": {("martin", "kernel_sum_array")},
        "kernel_sum_array": {
            ("martin", "profile_from_boundary"),
            ("martin", "mixture_profile"),
            ("htransform", "verify_row_sums"),
            ("htransform", "_halfline_table"),
        },
    }
    seen = set()
    for path in sorted(Path(green_module.__file__).parent.glob("*.py")):
        for scope, call in _scoped_calls(ast.parse(path.read_text())):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in allowed:
                assert (path.stem, scope) in allowed[name], (path.name, scope, call.lineno)
                seen.add((path.stem, scope))
    assert seen == set().union(*allowed.values())

# ---------------------------------------------------------------------------
# Sparse exact elimination against a dense oracle


def _dense_solve_columns_fraction(rows: list, columns: list[int]) -> list[list[Fraction]]:
    """Solve (I - M) g = e_c for each column c, exactly."""
    n = len(rows)
    if n > EXACT_SOLVE_LIMIT:
        raise ValueError(
            f"window of {n} states is too large for the exact lane "
            f"(limit {EXACT_SOLVE_LIMIT}); use the floating solver"
        )
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = Fraction(1)
        for j, p in rows[i]:
            a[i][j] -= p
    b = [[Fraction(0)] * len(columns) for _ in range(n)]
    for c_ix, c in enumerate(columns):
        b[c][c_ix] = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularSystemError("window system has no pivot; window unusable")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] = [v * inv for v in b[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                arow, acol = a[r], a[col]
                a[r] = [arow[j] - f * acol[j] for j in range(n)]
                brow, bcol = b[r], b[col]
                b[r] = [brow[j] - f * bcol[j] for j in range(len(columns))]
    return [[b[r][c_ix] for r in range(n)] for c_ix in range(len(columns))]


@st.composite
def substochastic_systems(draw):
    """Sparse substochastic rows as (column, Fraction) lists, plus solve columns.

    Each row puts integer weights on up to three states plus an optional
    exit weight, and divides by their total, so the exit weight is the
    mass leaving the system. When ``closed`` > 0 the first ``closed``
    states form a class with no exit, so I - M is singular; singular
    systems also arise when no exit is reachable.
    """
    n = draw(st.integers(1, 25))
    closed = draw(st.integers(0, min(n, 4)))
    rows = []
    for i in range(n):
        inside = i < closed
        targets = draw(st.lists(
            st.integers(0, (closed if inside else n) - 1),
            min_size=1 if inside else 0, max_size=3,
        ))
        weights = [draw(st.integers(1, 4)) for _ in targets]
        exit_weight = 0 if inside else draw(st.integers(0, 3))
        total = sum(weights) + exit_weight
        entries: dict = {}
        for j, w in zip(targets, weights):
            entries[j] = entries.get(j, Fraction(0)) + Fraction(w, total)
        rows.append(sorted(entries.items()))
    columns = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    return rows, columns


@settings(max_examples=400, deadline=None, derandomize=True)
@given(system=substochastic_systems())
def test_sparse_elimination_matches_dense_oracle(system):
    rows, columns = system
    try:
        expected = _dense_solve_columns_fraction(rows, columns)
    except SingularSystemError:
        with pytest.raises(SingularSystemError):
            fraction_solve(rows, columns)
        return
    got = fraction_solve(rows, columns)
    assert got == expected
    assert all(type(v) is Fraction for col in got for v in col)


def test_sparse_elimination_detects_closed_class():
    # states 0 and 1 swap forever: (I - M) is singular in both lanes
    rows = [[(1, Fraction(1))], [(0, Fraction(1))], [(0, Fraction(1, 2))]]
    with pytest.raises(SingularSystemError):
        fraction_solve(rows, [2])
    # the same rows over the denominator 2; state 2 sends half its mass out
    op = WindowOperator(
        indptr=np.array([0, 1, 2, 3]),
        indices=np.array([1, 0, 0]),
        num=np.array([2, 2, 1]),
        den=2,
        escaped=np.array([0, 0, 1]),
    )
    assert fraction_rows(op) == rows
    with pytest.raises(SingularSystemError):
        _solve_columns_float(op, [2])


# ---------------------------------------------------------------------------
# Structural identities


def test_visits_to_base_occur_only_at_time_zero():
    for chain, x0, radius, probes in (
        (Z, 0, 8, [1, -4, 0]),
        (BB, 0, 8, [2, 5, 0]),
        (TREE, ROOT, 4, [(0,), (1, 1), ROOT]),
    ):
        queries = [(x, x0) for x in probes]
        results = green_solve(chain, x0, queries, Truncation(radius=radius), exact=True)
        for x, res in zip(probes, results):
            assert res.value == (1 if x == x0 else 0)


def test_green_from_base_is_stationary_ratio():
    for chain, x0, radius, probes in (
        (Z, 0, 10, [1, -3, 5]),
        (BB, 0, 10, [1, 2, 4]),
        (TREE, ROOT, 4, [(0,), (0, 1), (1, 0, 0)]),
    ):
        queries = [(x0, y) for y in probes]
        results = green_solve(chain, x0, queries, Truncation(radius=radius), exact=True)
        for y, res in zip(probes, results):
            assert res.value == chain.stationary(y) / chain.stationary(x0)


# ---------------------------------------------------------------------------
# Discounted visits


def test_discounted_base_visits_are_geometric():
    for r, expected in ((Fraction(1, 2), 2), (Fraction(1, 4), Fraction(4, 3))):
        trunc = Truncation(radius=12)
        (w,) = green_solve_discounted(Z, 0, r, [(0, 0)], trunc)
        assert w == expected
    trunc = Truncation(radius=12)
    (w,) = green_solve_discounted(BB, 0, Fraction(1, 2), [(0, 0)], trunc)
    assert w == 2


def test_discounted_visits_decompose_through_killed_green():
    r = Fraction(1, 2)
    odds = r / (1 - r)
    for chain, x0, radius, pairs in (
        (Z, 0, 12, [(2, 5), (-1, 3), (4, 1)]),
        (TREE, ROOT, 4, [((0,), (0, 0)), ((1,), (0,))]),
    ):
        values = green_solve_discounted(chain, x0, r, pairs, Truncation(radius=radius))
        for (x, y), w in zip(pairs, values):
            expected = exact_green(chain, x0, x, y) + odds * exact_green(chain, x0, x0, y)
            assert w == expected


def test_discount_must_be_strictly_inside_unit_interval():
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError):
            green_solve_discounted(Z, 0, bad, [(0, 0)], Truncation(radius=5))


# ---------------------------------------------------------------------------
# Visit-ratio kernel


def test_kernel_exact_values():
    assert martin_kernel(Z, 0, 3, 7).value == 6
    assert martin_kernel(Z, 0, -2, -5).value == 4
    got = martin_kernel(BB, 0, 2, 3).value
    assert got == exact_green(BB, 0, 2, 3) / exact_green(BB, 0, 0, 3)
    got = martin_kernel(TREE, ROOT, (0, 0), (0, 0, 1), radius=4).value
    assert got == exact_green(TREE, ROOT, (0, 0), (0, 0, 1)) / exact_green(
        TREE, ROOT, ROOT, (0, 0, 1)
    )


@pytest.mark.parametrize(
    "chain, x0, x, y, radius",
    [(Z, 0, 3, 7, None), (BB, 0, 2, 3, None), (TREE, ROOT, (0, 0), (0, 0, 1), 4)],
)
def test_kernel_float_lane_matches_exact_ratio(chain, x0, x, y, radius):
    got = martin_kernel(chain, x0, x, y, radius=radius, exact=False)
    assert isinstance(got.value, float) and got.method == "exact-solve"
    want = exact_green(chain, x0, x, y) / exact_green(chain, x0, x0, y)
    assert abs(got.value - float(want)) <= 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo lanes


def test_mc_line_fast_lane_within_four_stderr():
    for x, y in ((2, 5), (1, 7), (-3, -1)):
        res = green_mc(Z, 0, x, y, 4000, seed=101, step_cap=10**6, on_cap="truncate")
        exact = float(exact_green(Z, 0, x, y))
        assert res.runs == 4000
        assert abs(res.value - exact) <= 4 * res.stderr


def test_mc_line_analytic_tail_is_unbiased_and_untruncated():
    res = green_mc(Z, 0, 2, 5, 4000, seed=909, escape_radius=32)
    assert res.truncated_runs == 0
    assert "analytic tail" in res.note
    assert abs(res.value - 4.0) <= 4 * res.stderr
    res = green_mc(BB, 0, 1, 3, 4000, seed=910, escape_radius=32)
    assert res.truncated_runs == 0
    assert abs(res.value - float(exact_green(BB, 0, 1, 3))) <= 4 * res.stderr


def test_mc_generic_lane_agrees_with_fast_lane():
    # the fast lanes serve any run count, so these 400 runs take the line
    # lane; test_mc_generic_lane_off_the_half_line_base keeps the generic
    # lane checked against a closed form
    res = green_mc(Z, 0, 2, 5, 400, seed=77, step_cap=10**5, on_cap="truncate")
    assert abs(res.value - 4.0) <= 4 * res.stderr


def test_mc_generic_lane_off_the_half_line_base():
    # above the base 2 the half-line walk is the base-0 walk shifted by 2,
    # but no vectorized lane serves that base: G_2(3, y) = G_0(1, y - 2)
    for y in (3, 4):
        res = green_mc(BB, 2, 3, y, 2000, seed=31)
        assert res.lane == "generic"
        assert abs(res.value - float(exact_green(BB, 0, 1, y - 2))) <= 4 * res.stderr


def test_mc_halfline_start_at_the_base_takes_the_base_row():
    # the reflecting base forces the first step up, whatever the drift
    for y in (1, 2):
        res = green_mc(BB, 0, 0, y, 4000, seed=33)
        assert abs(res.value - float(exact_green(BB, 0, 0, y))) <= 4 * res.stderr


def test_mc_line_lane_off_the_base_point():
    # the line lane runs in coordinates shifted by the base, where the
    # closed forms of its escape tails are anchored: G_3(5, 6) = G_0(2, 3)
    res = green_mc(Z, 3, 5, 6, 2000, seed=1)
    assert res.runs == 2000
    assert abs(res.value - float(exact_green(Z, 0, 2, 3))) <= 5 * res.stderr
    # both sides of the base: G_{-4}(-2, 1) = G_0(2, 5)
    res = green_mc(Z, -4, -2, 1, 2000, seed=2)
    assert abs(res.value - float(exact_green(Z, 0, 2, 5))) <= 5 * res.stderr


def test_mc_halfline_within_four_stderr():
    for x, y in ((1, 2), (3, 1)):
        res = green_mc(BB, 0, x, y, 4000, seed=202)
        assert abs(res.value - float(exact_green(BB, 0, x, y))) <= 4 * res.stderr


def test_mc_tree_within_four_stderr():
    res = green_mc(TREE, ROOT, (0,), (0, 0), 4000, seed=303)
    assert abs(res.value - 1.0) <= 4 * res.stderr
    res = green_mc(TREE, ROOT, (0, 0), (0,), 4000, seed=304)
    assert abs(res.value - 2.0) <= 4 * res.stderr


def test_mc_tree_disjoint_branch_never_visits():
    res = green_mc(TREE, ROOT, (1,), (0,), 2000, seed=9)
    assert res.value == 0.0
    assert res.stderr == 0.0


def test_mc_plane_with_analytic_tail():
    table = potential_table(4)
    exact = origin_killed_green(table, (1, 0), (1, 0))
    res = green_mc(PLANE, (0, 0), (1, 0), (1, 0), 3000, seed=404, escape_radius=24)
    assert abs(res.value - float(exact)) <= 4 * res.stderr
    assert "analytic tail" in res.note


def test_mc_step_cap_error_and_truncation():
    with pytest.raises(RunawayRunError):
        green_mc(Z, 0, 2, 5, 600, seed=5, step_cap=8, on_cap="error")
    res = green_mc(Z, 0, 2, 5, 600, seed=5, step_cap=8, on_cap="truncate")
    assert res.truncated_runs > 0
    with pytest.raises(ValueError):
        green_mc(Z, 0, 2, 5, 10, seed=5, on_cap="drop")
    with pytest.raises(ValueError):
        green_mc(Z, 0, 2, 5, 0, seed=5)


def test_mc_grid_covers_every_pair():
    starts = [1, 2, 3]
    targets = [1, 3, 5]
    grid = green_mc_grid(Z, 0, starts, targets, 4000, seed=606, step_cap=10**6)
    assert set(grid) == {(x, y) for x in starts for y in targets}
    for (x, y), res in grid.items():
        exact = float(exact_green(Z, 0, x, y))
        margin = max(4 * res.stderr, 1e-12)
        assert abs(res.value - exact) <= margin


def test_mc_grid_tree_spine_and_fallback():
    grid = green_mc_grid(TREE, ROOT, [(0,)], [(0,), (0, 0)], 2000, seed=707)
    for (x, y), res in grid.items():
        assert abs(res.value - float(exact_green(TREE, ROOT, x, y))) <= 4 * max(
            res.stderr, 1e-9
        )
    # off-spine targets cannot share one spine: one tree ensemble per target
    grid = green_mc_grid(TREE, ROOT, [(0,)], [(0,), (1,)], 600, seed=708)
    assert set(grid) == {((0,), (0,)), ((0,), (1,))}


# ---------------------------------------------------------------------------
# Ensemble driver: lanes, counter-based draws, step caps


def test_mc_plane_off_the_origin_runs_on_the_plane_lane():
    # translation invariance: G_(1,0)((2,0), (2,1)) = G_0((1,0), (1,1)) = 4/pi;
    # the per-step lane took over 600 s for this call
    t0 = time.perf_counter()
    res = green_mc(PLANE, (1, 0), (2, 0), (2, 1), 2000, seed=3)
    assert time.perf_counter() - t0 < 30
    exact = float(origin_killed_green(potential_table(4), (1, 0), (1, 1)))
    assert res.lane == "fast-plane"
    assert res.truncated_runs == 0
    assert res.escaped_runs > 0
    assert abs(res.value - exact) <= 5 * res.stderr


def test_mc_results_name_their_lane():
    assert green_mc(Z, 3, 5, 6, 50, seed=1).lane == "fast-line"
    assert green_mc(BB, 0, 1, 2, 50, seed=1).lane == "fast-line"
    assert green_mc(TREE, ROOT, (0,), (0,), 50, seed=1).lane == "fast-tree"
    assert green_mc(TREE, ROOT, (1,), (0,), 50, seed=1).lane == "fast-tree"
    assert green_mc(PLANE, (0, 0), (1, 0), (1, 0), 50, seed=1).lane == "fast-plane"
    grid = green_mc_grid(TREE, ROOT, [(0,)], [(0,), (1,)], 50, seed=1)
    assert {r.lane for r in grid.values()} == {"fast-tree"}
    (res,) = potential_mc((1, 0), [(3, 0)], 50, seed=1)
    assert res.lane == "fast-plane"


class LazyBangBang(BangBangWalk):
    """The half-line walk holding with probability 1/2 at every step: its
    own successors, so no built-in vectorized law describes it."""

    def successors(self, x):
        return [(x, Fraction(1, 2))] + [(t, p / 2) for t, p in super().successors(x)]


def test_subclass_overriding_successors_takes_the_generic_lane():
    lazy = LazyBangBang()
    exact = green_solve(lazy, 0, [(2, 3)], Truncation(20), exact=True)[0].value
    assert exact == Fraction(9, 4)  # twice the walk's G_0(2, 3) = 9/8
    res = green_mc(lazy, 0, 2, 3, 2000, seed=41)
    assert res.lane == "generic"
    assert abs(res.value - float(exact)) <= 5 * res.stderr
    grid = green_mc_grid(lazy, 0, [2], [3], 300, seed=41)
    assert grid[(2, 3)].lane == "generic"


def test_generic_lane_leaves_numpy_ma_unloaded():
    # the plain np.unique imports numpy.ma (about 20 ms) on its first call
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from recurmartin.examplechains import BangBangWalk\n"
        "from recurmartin.green import green_mc\n"
        "class LazyBangBang(BangBangWalk):\n"
        "    def successors(self, x):\n"
        "        return [(x, Fraction(1, 2))] + [(t, p / 2) for t, p in super().successors(x)]\n"
        "res = green_mc(LazyBangBang(), 0, 2, 3, 50, seed=1)\n"
        "print(res.lane, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(green_module.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.stdout.split() == ["generic", "False"]


def test_generic_lane_on_the_tree_off_its_root(monkeypatch):
    # no vectorized lane serves the tree away from its root; the successor
    # table fills a row only where a run stands, so its states grow with the
    # steps taken, each filled row naming at most k + 1 new states. Returns
    # to the base are heavy-tailed, so the step cap bounds the work at any
    # seed; a truncated run stands at some z, from where it would still visit
    # y G_{x0}(z, y) <= G_{x0}(y, y) times on average, which bounds the bias
    tables, taken = [], []

    class RecordedTable(SuccessorTable):
        def __init__(self, chain):
            super().__init__(chain)
            tables.append(self)

    def counted_walk(*args):
        walk = table_walk(*args)
        step = walk.step

        def counted(state, u):
            taken.append(np.count_nonzero(walk.going(state)))  # one step of each live run
            return step(state, u)

        walk.step = counted
        return walk

    table_walk = green_module._table_walk
    monkeypatch.setattr(green_module, "SuccessorTable", RecordedTable)
    monkeypatch.setattr(green_module, "_table_walk", counted_walk)
    x0, x, y = (0,), ROOT, (1,)
    exact, at_y = green_solve(TREE, x0, [(x, y), (y, y)], Truncation(4), exact=True)
    runs, cap = 300, 2000
    res = green_mc(TREE, x0, x, y, runs, seed=8, step_cap=cap, on_cap="truncate")
    assert res.lane == "generic"
    bias = float(at_y.value) * res.truncated_runs / runs
    assert -5 * res.stderr - bias <= res.value - float(exact.value) <= 5 * res.stderr
    (table,) = tables
    assert sum(taken) <= runs * cap
    assert len(table.states) <= (TREE.k + 1) * sum(taken) + 3  # + x0, x, y


def test_float_solve_of_a_subclass_reads_its_successors():
    lazy = LazyBangBang()
    (res,) = green_solve(lazy, 0, [(2, 3)], Truncation(20))
    assert res.value == pytest.approx(2.25, rel=1e-12)


def _captured_totals(monkeypatch):
    """Record the per-run totals behind every Monte Carlo result."""
    captured = []
    original = green_module._mc_result

    def record(totals, *args, **kwargs):
        captured.append(totals.copy())
        return original(totals, *args, **kwargs)

    monkeypatch.setattr(green_module, "_mc_result", record)
    return captured


# (chain, base, start, targets, step cap, escape radius): the generic lane's
# tree runs from off the root are heavy-tailed, so a cap truncates some of
# them, the same ones in every layout; at escape radius 40 the plane lane's
# squares reach half-side 16, its top level
LAYOUT_CASES = [
    (Z, 0, 2, [1, 5, -3], 10**7, 16),
    (BB, 0, 0, [1, 4], 10**7, 16),
    (TREE, ROOT, (0, 1), [(0,), (0, 0, 1)], 10**7, 16),
    (PLANE, (0, 0), (2, 1), [(1, 0), (2, 1)], 10**7, 16),
    (PLANE, (0, 0), (9, 4), [(1, 0), (9, 4)], 10**7, 40),
    (LazyBangBang(), 0, 2, [1, 3], 10**7, 16),
    (BB, 2, 3, [2, 4, 6], 10**7, 16),
    (TREE, (0,), ROOT, [(1,), (0, 1), ROOT], 500, 16),
]


LAYOUT_IDS = [
    "line", "halfline-from-base", "tree", "plane", "plane-large-squares",
    "generic-lazy", "generic-halfline-base-2", "generic-tree-off-root",
]


@pytest.mark.parametrize("chain, x0, x, ys, cap, esc", LAYOUT_CASES, ids=LAYOUT_IDS)
def test_mc_runs_do_not_depend_on_the_run_count(
    monkeypatch, chain, x0, x, ys, cap, esc
):
    captured = _captured_totals(monkeypatch)
    green_mc_grid(chain, x0, [x], ys, 3000, seed=12, step_cap=cap, escape_radius=esc)
    green_mc_grid(chain, x0, [x], ys, 700, seed=12, step_cap=cap, escape_radius=esc)
    n = len(ys)
    for big, small in zip(captured[:n], captured[n:]):
        assert np.array_equal(big[:700], small)


@pytest.mark.parametrize("chain, x0, x, ys, cap, esc", LAYOUT_CASES, ids=LAYOUT_IDS)
def test_mc_results_do_not_depend_on_blocks_or_slabs(
    monkeypatch, chain, x0, x, ys, cap, esc
):
    def run():
        return green_mc_grid(
            chain, x0, [x], ys, 3000, seed=13, step_cap=cap, escape_radius=esc
        )

    reference = run()
    for first, slab, cells in ((1, 10_000, 10_000 * 512), (512, 10_000, 10_000 * 512),
                               (16, 257, 4000), (3, 1000, 1)):
        monkeypatch.setattr(green_module, "_FIRST_BLOCK", first)
        monkeypatch.setattr(green_module, "_SLAB", slab)
        monkeypatch.setattr(green_module, "_BLOCK_CELLS", cells)
        assert run() == reference


def _reference_ensemble(walk, runs, seed, offset, cap):
    """The ensemble driver with per-step compaction, for one start: draw n
    moves only the runs still going, and a run that ends leaves at once.
    ``_ensemble`` must give the same results, bit for bit."""
    (start,) = walk.start
    tgt = np.asarray(walk.targets, dtype=np.int64)
    keys = stream_keys(seed, GREEN_ENSEMBLE, np.arange(offset, offset + runs))
    visits = np.zeros((runs, len(tgt)))
    visits[:] = tgt == start  # time 0
    rows = np.arange(runs)
    state = np.full(runs, walk.launch if start == walk.origin else start, dtype=np.int64)
    draws = escaped = 0
    for n in range(cap):
        if not rows.size:
            break
        state = walk.step(state, counter_bits(keys.take(rows), n))
        draws += rows.size
        going = walk.going(state)
        visits[rows[going]] += state[going, None] == tgt
        away = ~going & (state != walk.origin)
        if away.any():
            visits[rows[away]] += walk.tail(state[away])
            escaped += int(away.sum())
        rows, state = rows[going], state[going]
    return [
        green_module._mc_result(
            visits[:, ti], runs, rows.size, walk.lane, escaped, walk.note, draws
        )
        for ti in range(len(tgt))
    ]


def _reference_grid(chain, x0, starts, targets, runs, seed, cap, escape_radius):
    """green_mc_grid with one ensemble per start and target group."""
    out = {}
    for k, x in enumerate(starts):
        for group in green_module._target_groups(chain, x0, targets):
            ((walk, _),) = green_module._lane_walks(chain, x0, [x], group, escape_radius)
            res = _reference_ensemble(walk, runs, seed, k * (runs + 1), cap)
            out.update(((x, t), r) for t, r in zip(group, res))
    return out


# (chain, base, starts, targets, step cap): starts at the base, starts that
# build boxes of their own (escape radius 16), targets at the base and on
# the plane's box edge, truncating caps
REFERENCE_CASES = [
    (Z, 0, [2, 0, -21, 40], [5, -3, 0], 9),
    (Z, 3, [5, 3, -30], [6, 3, 1], 10**7),
    (BB, 0, [0, 2, 30], [1, 4, 0], 10**7),
    (PLANE, (0, 0), [(2, 1), (0, 0), (18, 0), (-3, 30)], [(1, 0), (16, 2), (0, 0), (40, 0)], 12),
    (PLANE, (1, 0), [(2, 0), (1, 0), (-20, 5)], [(2, 1), (17, 0), (1, 0)], 10**7),
    (TREE, ROOT, [ROOT, (1, 0), (0, 1), (0, 0, 1)], [(0,), (0, 0, 1), ROOT], 10**7),
    (TREE, ROOT, [ROOT, (0,), (1, 1)], [(0,), (1,), ROOT], 2),
    (BB, 2, [3, 2, 6], [2, 4], 12),
    (TREE, (0,), [ROOT, (0,)], [(1,), (0,)], 60),
    (LazyBangBang(), 0, [0, 2], [1, 3, 0], 10**7),
]

REFERENCE_IDS = [
    "line-capped", "line-off-base", "halfline", "plane-capped", "plane-off-origin",
    "tree", "tree-groups-capped", "generic-halfline-capped", "generic-tree-capped",
    "generic-lazy",
]


@pytest.mark.parametrize("chain, x0, starts, ys, cap", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_grid_matches_the_per_step_reference_driver(chain, x0, starts, ys, cap):
    def summary(grid):
        return {
            key: (r.lane, r.value.hex(), r.stderr.hex(), r.draws, r.escaped_runs,
                  r.truncated_runs)
            for key, r in grid.items()
        }

    got = green_mc_grid(chain, x0, starts, ys, 500, seed=19, step_cap=cap, escape_radius=16)
    want = _reference_grid(chain, x0, starts, ys, 500, 19, cap, 16)
    assert list(got) == [(x, y) for x in starts for y in ys]
    assert summary(got) == summary(want)


def test_runaway_error_counts_only_finished_runs():
    # 25,000 runs fill three slabs; the first slab already has runs past the
    # cap, so the later slabs never start and none of their runs finished
    with pytest.raises(RunawayRunError) as info:
        green_mc(Z, 0, 2, 5, 25_000, seed=5, step_cap=8, on_cap="error")
    first_slab = green_mc(Z, 0, 2, 5, 10_000, seed=5, step_cap=8, on_cap="truncate")
    assert 0 < first_slab.truncated_runs < 10_000
    assert info.value.completed_runs == 10_000 - first_slab.truncated_runs


def test_runaway_error_counts_the_finished_runs_of_the_whole_grid():
    # start -200 builds a box of its own, where each run ends at its first
    # draw (escaped or absorbed), so its ensemble finishes; starts 2 and 3
    # share the next one, where runs pass the cap
    starts, runs = [-200, 2, 3], 600
    with pytest.raises(RunawayRunError) as info:
        green_mc_grid(Z, 0, starts, [5], runs, seed=5, step_cap=8, on_cap="error",
                      escape_radius=16)
    grid = green_mc_grid(Z, 0, starts, [5], runs, seed=5, step_cap=8, escape_radius=16)
    assert grid[(-200, 5)].truncated_runs == 0
    truncated = sum(grid[(x, 5)].truncated_runs for x in starts)
    assert truncated > 0
    assert info.value.completed_runs == len(starts) * runs - truncated


@pytest.mark.parametrize("bad", [None, 0, -3, 2.5, "64", True])
@pytest.mark.parametrize("entry", ["green_mc", "green_mc_grid", "potential_mc"])
def test_mc_entry_points_refuse_a_bad_escape_box(entry, bad):
    # every lane takes the box, so a bad one fails before any run starts
    call = {
        "green_mc": lambda: green_mc(TREE, ROOT, (0,), (0,), 10, seed=1, escape_radius=bad),
        "green_mc_grid": lambda: green_mc_grid(
            PLANE, (0, 0), [(1, 0)], [(2, 0)], 10, seed=1, escape_radius=bad
        ),
        "potential_mc": lambda: potential_mc((1, 0), [(2, 0)], 10, seed=1, escape_radius=bad),
    }[entry]
    with pytest.raises(ValueError, match="escape_radius"):
        call()


@pytest.mark.parametrize("bad", [0, -3])
@pytest.mark.parametrize("entry", ["green_mc", "green_mc_grid", "potential_mc"])
def test_mc_entry_points_refuse_fewer_than_one_trajectory(entry, bad):
    # no run would give a mean of nothing: refused before any lane is built
    call = {
        "green_mc": lambda: green_mc(TREE, ROOT, (0,), (0,), bad, seed=1),
        "green_mc_grid": lambda: green_mc_grid(PLANE, (0, 0), [(1, 0)], [(2, 0)], bad, seed=1),
        "potential_mc": lambda: potential_mc((1, 0), [(2, 0)], bad, seed=1),
    }[entry]
    with pytest.raises(ValueError, match="need at least one trajectory"):
        call()


# Calls of each lane at two seeds: (call, seed, start, target) -> value and
# stderr as float.hex, draws, escaped runs, truncated runs. A change to a
# law, a draw or the driver's bookkeeping moves them. The grid calls hold
# starts at the base and starts that build larger boxes than the others,
# targets at the base and on the plane's box edge, and truncating caps.
LANE_GOLDEN = {
    ("fast-line", 5, 2, 1): ("0x1.051eb851eb852p+1", "0x1.223d73aeae683p-4", 2043, 46, 0),
    ("fast-line", 5, 2, 5): ("0x1.b947ae147ae14p+1", "0x1.55cf5cc02d79ap-2", 2043, 46, 0),
    ("fast-line", 5, 2, -3): ("0x0.0p+0", "0x0.0p+0", 2043, 46, 0),
    ("fast-line", 6, 2, 1): ("0x1.02e147ae147aep+1", "0x1.210c9773d02e9p-4", 2364, 51, 0),
    ("fast-line", 6, 2, 5): ("0x1.1ab851eb851ecp+2", "0x1.90372c75f87f9p-2", 2364, 51, 0),
    ("fast-line", 6, 2, -3): ("0x0.0p+0", "0x0.0p+0", 2364, 51, 0),
    ("fast-tree", 5, (), (0,)): ("0x1.cb851eb851eb8p-1", "0x1.11bb8e65089e6p-4", 1047, 0, 0),
    ("fast-tree", 5, (), (0, 0, 1)): ("0x1.b851eb851eb85p-3", "0x1.91920f052f376p-5", 1047, 0, 0),
    ("fast-tree", 5, (1, 0), (0,)): ("0x0.0p+0", "0x0.0p+0", 400, 0, 0),
    ("fast-tree", 5, (1, 0), (0, 0, 1)): ("0x0.0p+0", "0x0.0p+0", 400, 0, 0),
    ("fast-tree", 5, (0, 1), (0,)): ("0x1.feb851eb851ecp+0", "0x1.1626770fd7553p-4", 1431, 0, 0),
    ("fast-tree", 5, (0, 1), (0, 0, 1)): ("0x1.1ae147ae147aep-1", "0x1.8c6a099090148p-4", 1431, 0, 0),
    ("fast-tree", 6, (), (0,)): ("0x1.20a3d70a3d70ap+0", "0x1.4c9fd5811184bp-4", 1234, 0, 0),
    ("fast-tree", 6, (), (0, 0, 1)): ("0x1.199999999999ap-2", "0x1.c301fad77e113p-5", 1234, 0, 0),
    ("fast-tree", 6, (1, 0), (0,)): ("0x0.0p+0", "0x0.0p+0", 400, 0, 0),
    ("fast-tree", 6, (1, 0), (0, 0, 1)): ("0x0.0p+0", "0x0.0p+0", 400, 0, 0),
    ("fast-tree", 6, (0, 1), (0,)): ("0x1.09eb851eb851fp+1", "0x1.1feb69b1fe08ep-4", 1417, 0, 0),
    ("fast-tree", 6, (0, 1), (0, 0, 1)): ("0x1.c28f5c28f5c29p-2", "0x1.09e4f09d238f7p-4", 1417, 0, 0),
    ("fast-plane", 5, (2, 1), (1, 0)): ("0x1.3b68b8de24041p+0", "0x1.9f9e7727e2062p-5", 6519, 223, 0),
    ("fast-plane", 5, (2, 1), (20, 0)): ("0x1.a6231a2d4e74cp+0", "0x1.35437240fd4e3p-4", 6519, 223, 0),
    ("fast-plane", 6, (2, 1), (1, 0)): ("0x1.36d0ccad402c1p+0", "0x1.8786c716e16fep-5", 6491, 207, 0),
    ("fast-plane", 6, (2, 1), (20, 0)): ("0x1.8a0ce2c5f5994p+0", "0x1.3894574c8bec3p-4", 6491, 207, 0),
    ("generic", 5, 3, 2): ("0x0.0p+0", "0x0.0p+0", 1100, 0, 18),
    ("generic", 5, 3, 4): ("0x1.8b851eb851eb8p-1", "0x1.037040dd28382p-4", 1100, 0, 18),
    ("generic", 6, 3, 2): ("0x0.0p+0", "0x0.0p+0", 1047, 0, 21),
    ("generic", 6, 3, 4): ("0x1.599999999999ap-1", "0x1.dfea58298fa13p-5", 1047, 0, 21),
    ("fast-line-grid", 5, 2, 5): ("0x1.3570a3d70a3d7p+1", "0x1.a0831183b8cd0p-3", 1072, 26, 35),
    ("fast-line-grid", 5, 2, -3): ("0x0.0p+0", "0x0.0p+0", 1072, 26, 35),
    ("fast-line-grid", 5, 2, 0): ("0x0.0p+0", "0x0.0p+0", 1072, 26, 35),
    ("fast-line-grid", 5, 0, 5): ("0x1.5333333333333p-1", "0x1.0aa4ef1fcef02p-3", 801, 27, 17),
    ("fast-line-grid", 5, 0, -3): ("0x1.c666666666666p-1", "0x1.00ba28f9b3bdfp-3", 801, 27, 17),
    ("fast-line-grid", 5, 0, 0): ("0x1.0000000000000p+0", "0x0.0p+0", 801, 27, 17),
    ("fast-line-grid", 5, -21, 5): ("0x0.0p+0", "0x0.0p+0", 588, 360, 9),
    ("fast-line-grid", 5, -21, -3): ("0x1.791eb851eb852p+2", "0x1.ea95e86fdde48p-5", 588, 360, 9),
    ("fast-line-grid", 5, -21, 0): ("0x0.0p+0", "0x0.0p+0", 588, 360, 9),
    ("fast-line-grid", 6, 2, 5): ("0x1.a800000000000p+1", "0x1.f5065aeb65c6ep-3", 1228, 45, 47),
    ("fast-line-grid", 6, 2, -3): ("0x0.0p+0", "0x0.0p+0", 1228, 45, 47),
    ("fast-line-grid", 6, 2, 0): ("0x0.0p+0", "0x0.0p+0", 1228, 45, 47),
    ("fast-line-grid", 6, 0, 5): ("0x1.599999999999ap-1", "0x1.0d35b91c48332p-3", 840, 23, 18),
    ("fast-line-grid", 6, 0, -3): ("0x1.d47ae147ae148p-1", "0x1.038924aaf7512p-3", 840, 23, 18),
    ("fast-line-grid", 6, 0, 0): ("0x1.0000000000000p+0", "0x0.0p+0", 840, 23, 18),
    ("fast-line-grid", 6, -21, 5): ("0x0.0p+0", "0x0.0p+0", 564, 368, 7),
    ("fast-line-grid", 6, -21, -3): ("0x1.7ca3d70a3d70ap+2", "0x1.5d230b0531085p-5", 564, 368, 7),
    ("fast-line-grid", 6, -21, 0): ("0x0.0p+0", "0x0.0p+0", 564, 368, 7),
    ("fast-plane-grid", 5, (2, 1), (1, 0)): ("0x1.612c772870ef8p-1", "0x1.335dc83facb49p-5", 3980, 72, 216),
    ("fast-plane-grid", 5, (2, 1), (16, 2)): ("0x1.1eb9efe6af2b3p-1", "0x1.f90e376fbc868p-5", 3980, 72, 216),
    ("fast-plane-grid", 5, (2, 1), (0, 0)): ("0x0.0p+0", "0x0.0p+0", 3980, 72, 216),
    ("fast-plane-grid", 5, (0, 0), (1, 0)): ("0x1.44f2f240bb2ecp-1", "0x1.69810a5907fb0p-5", 3032, 29, 151),
    ("fast-plane-grid", 5, (0, 0), (16, 2)): ("0x1.997627ef820c0p-3", "0x1.2b53094b56eb2p-5", 3032, 29, 151),
    ("fast-plane-grid", 5, (0, 0), (0, 0)): ("0x1.0000000000000p+0", "0x0.0p+0", 3032, 29, 151),
    ("fast-plane-grid", 5, (18, 0), (1, 0)): ("0x1.b7347cb5b0d1cp-1", "0x1.3e71148125d6fp-6", 2039, 330, 69),
    ("fast-plane-grid", 5, (18, 0), (16, 2)): ("0x1.a3e39beeae0aep+1", "0x1.117c540a3b03ep-4", 2039, 330, 69),
    ("fast-plane-grid", 5, (18, 0), (0, 0)): ("0x0.0p+0", "0x0.0p+0", 2039, 330, 69),
    ("fast-plane-grid", 6, (2, 1), (1, 0)): ("0x1.54440eefde211p-1", "0x1.2c1b3b3e0ede8p-5", 3988, 57, 223),
    ("fast-plane-grid", 6, (2, 1), (16, 2)): ("0x1.c59f5c2641f1cp-2", "0x1.c94a26f5e0e4ep-5", 3988, 57, 223),
    ("fast-plane-grid", 6, (2, 1), (0, 0)): ("0x0.0p+0", "0x0.0p+0", 3988, 57, 223),
    ("fast-plane-grid", 6, (0, 0), (1, 0)): ("0x1.1c1f60d64e9b9p-1", "0x1.506b241b7da64p-5", 2994, 23, 162),
    ("fast-plane-grid", 6, (0, 0), (16, 2)): ("0x1.4d62fd908ff73p-3", "0x1.135775643e549p-5", 2994, 23, 162),
    ("fast-plane-grid", 6, (0, 0), (0, 0)): ("0x1.0000000000000p+0", "0x0.0p+0", 2994, 23, 162),
    ("fast-plane-grid", 6, (18, 0), (1, 0)): ("0x1.b0a58cfa62676p-1", "0x1.477e6a5a54347p-6", 2017, 326, 73),
    ("fast-plane-grid", 6, (18, 0), (16, 2)): ("0x1.9f87990cd809cp+1", "0x1.0c25ddd856dfbp-4", 2017, 326, 73),
    ("fast-plane-grid", 6, (18, 0), (0, 0)): ("0x0.0p+0", "0x0.0p+0", 2017, 326, 73),
}

# call -> (the lane it runs, the call at a seed)
LANE_CALLS = {
    "fast-line": ("fast-line", lambda s: green_mc_grid(
        Z, 0, [2], [1, 5, -3], 400, s, escape_radius=16
    )),
    "fast-line-grid": ("fast-line", lambda s: green_mc_grid(
        Z, 0, [2, 0, -21], [5, -3, 0], 400, s, step_cap=9, escape_radius=16
    )),
    "fast-tree": ("fast-tree", lambda s: green_mc_grid(
        TREE, ROOT, [ROOT, (1, 0), (0, 1)], [(0,), (0, 0, 1)], 400, s
    )),
    "fast-plane": ("fast-plane", lambda s: green_mc_grid(
        PLANE, (0, 0), [(2, 1)], [(1, 0), (20, 0)], 400, s, escape_radius=16
    )),
    "fast-plane-grid": ("fast-plane", lambda s: green_mc_grid(
        PLANE, (0, 0), [(2, 1), (0, 0), (18, 0)], [(1, 0), (16, 2), (0, 0)], 400, s,
        step_cap=12, escape_radius=16,
    )),
    "generic": ("generic", lambda s: green_mc_grid(BB, 2, [3], [2, 4], 400, s, step_cap=12)),
}


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("name", sorted(LANE_CALLS))
def test_lane_outputs_match_their_golden(name, seed):
    lane, call = LANE_CALLS[name]
    results = call(seed)
    assert {r.lane for r in results.values()} == {lane}
    got = {
        (name, seed, x, y): (
            r.value.hex(), r.stderr.hex(), r.draws, r.escaped_runs, r.truncated_runs
        )
        for (x, y), r in results.items()
    }
    assert got == {k: v for k, v in LANE_GOLDEN.items() if k[:2] == (name, seed)}


# ---------------------------------------------------------------------------
# Plane lane: jumps across empty squares


@pytest.mark.parametrize("m", [1, 2, 4])
def test_square_exit_law_matches_the_exact_window_solve(m):
    # G of the killed square is symmetric, so the centre's column is its
    # row; leaving through w, a run steps across the edge (1/4) from the
    # square's state z next to w
    dx, dy, p = _square_exit_law(m)
    window = PLANE.window(m)
    index = {s: i for i, s in enumerate(window)}
    _, op = window_system(PLANE, window, policy="kill")
    (g,) = fraction_solve(fraction_rows(op), [index[(0, 0)]])
    for x, y, q in zip(dx.tolist(), dy.tolist(), p.tolist()):
        z = (max(-m, min(m, x)), max(-m, min(m, y)))
        assert abs(q - float(g[index[z]] / 4)) <= 1e-13


def test_square_exit_law_matches_the_float_window_solve_at_the_top_levels():
    for m in (8, 16):
        dx, dy, p = _square_exit_law(m)
        window = PLANE.window(m)
        index = {s: i for i, s in enumerate(window)}
        _, op = window_system(PLANE, window, policy="kill")
        (g,) = _solve_columns_float(op, [index[(0, 0)]])
        inner = [index[(max(-m, min(m, x)), max(-m, min(m, y)))]
                 for x, y in zip(dx.tolist(), dy.tolist())]
        assert np.abs(p - g[inner] / 4).max() <= 1e-13


def test_exit_levels_are_laws_with_the_square_symmetries():
    for k in range(7):
        m = (1 << k) // 2
        dx, dy, p = _square_exit_law(m)
        assert abs(p.sum() - 1) <= 1e-13
        law = dict(zip(zip(dx.tolist(), dy.tolist()), p.tolist()))
        assert len(law) == 4 * (2 * m + 1)
        assert all(max(abs(x), abs(y)) == m + 1 for x, y in law)
        for sx, sy, swap in product((1, -1), (1, -1), (False, True)):
            image = {}
            for (x, y), q in law.items():
                x, y = sx * x, sy * y
                image[(y, x) if swap else (x, y)] = q
            assert image == law
        keys, kx, ky = _exit_level(k)
        assert np.array_equal(kx, dx) and np.array_equal(ky, dy)
        assert np.all(np.diff(keys) >= 0)
        assert keys[0] > k << 52 and keys[-1] == (k + 1) << 52
    # the keys rank a draw exactly because every draw is a multiple of 2^-52
    keys = stream_keys(1, GREEN_ENSEMBLE, np.arange(1000))
    u = counter_bits(keys[:, None], np.arange(8)[None, :]) * 2.0**-52
    scaled = u * 2.0**52
    assert np.array_equal(scaled, np.floor(scaled))
    # the bottom level is the single step: west, east, south, north
    dx, dy, p = _square_exit_law(0)
    assert list(zip(dx.tolist(), dy.tolist())) == [(-1, 0), (1, 0), (0, -1), (0, 1)]
    assert p.tolist() == [0.25] * 4
    assert _exit_level(0)[0].tolist() == [2**50, 2**51, 3 * 2**50, 2**52]


def test_exit_tables_build_on_the_first_plane_ensemble():
    code = (
        "import sys\n"
        "import recurmartin.cli\n"
        "from recurmartin import green\n"
        "print(green._exit_level.cache_info().currsize)\n"
        "green.green_mc(green.Z2Walk(), (0, 0), (1, 0), (1, 0), 20, seed=1,"
        " escape_radius=16)\n"
        "print(green._exit_level.cache_info().currsize)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = str(Path(green_module.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    # nothing at import; radius 16 fits squares up to half-side 4 (levels
    # 0-3), built without the sparse solver
    assert out.stdout.split() == ["0", "4", "False"]


def test_plane_lane_jumps_from_criterion_2_start():
    table = potential_table(8)
    res = green_mc(PLANE, (0, 0), (2, 1), (1, 0), 2000, seed=21, escape_radius=32)
    assert res.lane == "fast-plane"
    assert res.draws <= 80 * res.runs
    exact = float(origin_killed_green(table, (2, 1), (1, 0)))
    assert abs(res.value - exact) <= 4 * res.stderr


# ---------------------------------------------------------------------------
# Line lane: jumps from mark to mark


def test_line_lane_reports_the_draws_its_runs_took(monkeypatch):
    taken = []
    line_walk = green_module._line_walk

    def counted_walk(*args):
        walk = line_walk(*args)
        step = walk.step

        def counted(state, u):
            # the driver steps runs that have ended too; those stay put
            taken.append(np.count_nonzero(walk.going(state)))  # runs going on
            return step(state, u)

        walk.step = counted
        return walk

    monkeypatch.setattr(green_module, "_line_walk", counted_walk)
    for cap in (10**7, 40):
        taken.clear()
        res = green_mc(Z, 0, 2, 5, 3000, seed=17, step_cap=cap, on_cap="truncate",
                       escape_radius=32)
        assert res.lane == "fast-line"
        assert res.draws == sum(taken) > 0
    assert res.truncated_runs > 0


def _exit_law(chain, w, a, b):
    """Exact law of the first of a, b that the chain meets from a < w < b,
    as {a: P, b: P}: G(w, .) on the open interval, by the exact window
    solve of the transposed killed system, times the steps out of it."""
    inner = list(range(a + 1, b))
    index = {v: i for i, v in enumerate(inner)}
    rows_t = [[] for _ in inner]
    out = {a: [0] * len(inner), b: [0] * len(inner)}
    for v in inner:
        for t, p in chain.successors(v):
            if t in index:
                rows_t[index[t]].append((index[v], p))
            else:
                out[t][index[v]] += p
    (g,) = fraction_solve(rows_t, [index[w]])
    return {e: sum((gz * pz for gz, pz in zip(g, out[e])), Fraction(0)) for e in (a, b)}


def _first_mark_law(chain, v, marks):
    """Exact law of the first mark a run at v meets at a time >= 1: from a
    non-mark, the exit law of the interval between its neighbouring marks;
    from a mark, that law after one step of its row."""
    def law_from(w):
        if w in marks:
            return {w: Fraction(1)}
        a = max(m for m in marks if m < w)
        return _exit_law(chain, w, a, min(m for m in marks if m > w))

    if v not in marks:
        return law_from(v)
    law = {}
    for w, p in chain.successors(v):
        for e, q in law_from(w).items():
            law[e] = law.get(e, 0) + p * q
    return law


def _cut(p):
    """The integer cut of the probability p: the least m with m 2^-52 >=
    float(p), at most 2^52, in exact arithmetic."""
    return min(2**52, max(0, math.ceil(Fraction(float(p)) * 2**52)))


@pytest.mark.parametrize("chain", [Z, BB], ids=["line", "halfline"])
@pytest.mark.parametrize("targets", [[2, 5], [1, 4]])
def test_line_jump_table_is_the_exact_first_mark_law(chain, targets):
    r = 8
    marks = tuple(sorted({-r, 0, r, *targets}))
    up_mass = [sum(p for t, p in chain.successors(v) if t == v + 1) for v in (1, 0)]
    dest, up_cut, back_cut = _line_jumps(*map(Fraction, up_mass), r, marks)
    assert not (dest.flags.writeable or up_cut.flags.writeable)
    assert len(dest) == 3 * (2 * r + 2) == 3 * len(up_cut) == 3 * len(back_cut)
    # the half line has no states below its base, which runs never reach;
    # row 2r + 1 is the base at time 0, a run's first draw from there
    rows = [(v, v + r) for v in range(-r if chain is Z else 0, r + 1)]
    for v, i in rows + [(0, 2 * r + 1)]:
        up, back, down = (dest[3 * i : 3 * i + 3] - r).tolist()
        if i == v + r and v in (-r, 0, r):  # absorbed or escaped: the run stays
            assert up == back == down == v
            assert up_cut[i] == back_cut[i] == 2**52
            continue
        law = _first_mark_law(chain, v, marks)
        assert set(law) <= {up, back, down} and up != down
        # each cut is that of the correctly rounded cumulative probability
        assert up_cut[i] == _cut(law.get(up, 0))
        assert back_cut[i] == _cut(1 - law.get(down, 0))


def test_line_lane_jumps_from_mark_to_mark():
    res = green_mc(Z, 0, 2, 5, 3000, seed=17)
    assert res.lane == "fast-line"
    assert res.draws <= 10 * res.runs  # steps average about 120 per run
    assert abs(res.value - 4.0) <= 4 * res.stderr


# ---------------------------------------------------------------------------
# Tree lane: the embedded spine chain


def _embedded_row(tree, spine, j):
    """Exact law of the spine depth after one step from depth j, read off
    the tree's successors: a child off the spine starts an excursion that
    comes back to its parent, which at the root is absorption."""
    law = {}
    for w, q in tree.successors(spine[:j]):
        d = len(w) if w == spine[: len(w)] else j
        law[d] = law.get(d, 0) + q
    return law


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("tree", [TREE, TREE3], ids=["k2", "k3"])
def test_tree_jump_table_is_the_exact_embedded_law(tree, p):
    spine = tuple((i + 1) % tree.k for i in range(p))
    dest, low_cut, high_cut = _tree_jumps(tree.k, p)
    assert not (dest.flags.writeable or low_cut.flags.writeable)
    assert len(dest) == 3 * (p + 3) == 3 * len(low_cut) == 3 * len(high_cut)
    # row 0 is the root, where runs have ended and stay; row p + 1 an
    # off-spine start whose excursion ends at the root; row p + 2 the root
    # at time 0
    for j in range(p + 3):
        row = dest[3 * j : 3 * j + 3].tolist()
        if j in (0, p + 1):
            law = {0: Fraction(1)}
        else:
            law = _embedded_row(tree, spine, j % (p + 2))
        assert set(law) <= set(row)
        # each cut is that of the correctly rounded cumulative probability
        # of the destinations of the outcomes up to it
        for k, cut in enumerate((low_cut[j], high_cut[j])):
            assert cut == _cut(sum(law.get(d, 0) for d in set(row[: k + 1])))


# ---------------------------------------------------------------------------
# Geometry helpers


def test_state_norm_per_chain():
    assert Z.norm(-7) == 7
    assert BB.norm(4) == 4
    assert TREE.norm((0, 1, 0)) == 3
    assert PLANE.norm((3, -5)) == 5


def test_default_radius_contains_states():
    assert default_radius(Z, [0, 2, -9]) == 29
    assert default_radius(TREE, [ROOT, (0, 1)]) == 4


def test_tree_kernel_default_window_stays_shallow():
    # a depth-21 window (the line's margin of 20) has 4 million nodes
    assert default_radius(TREE, [ROOT, (0,), (1,)]) == 3
    res = martin_kernel(TREE, ROOT, (0,), (1,))
    assert (res.value, res.radius) == (0, 3)
