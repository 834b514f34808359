"""Tests for the killed Green solver, visit-ratio kernel, and sampling lanes.

Verification strategy: exact window solves are compared against the chains'
independent hand closed forms; the kill-policy contract (certified lower
bounds, monotone in the radius) is asserted on explicit value sequences;
the discounted solver is tied to the killed solver through the algebraic
identity W = G + (r/(1-r)) G(base, .); Monte Carlo estimates must land
within four standard errors of exact values at fixed seeds, and vectorized
lanes are cross-checked against the generic per-step sampler. The ensemble
driver's runs must not depend on the run count, the block schedule or the
slab size, since every draw is keyed by trajectory and step. The sparse
exact elimination is checked against a dense Gauss-Jordan oracle kept in
this module, on random sparse substochastic systems.
"""
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurmartin import green as green_module
from recurmartin.errors import RunawayRunError, SingularSystemError
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
    _solve_columns_float,
    _solve_columns_fraction,
    default_radius,
    green_mc,
    green_mc_grid,
    green_solve,
    green_solve_discounted,
    green_value,
    martin_kernel,
    state_norm,
)
from recurmartin.potential import origin_killed_green, potential_mc, potential_table

Z = ZWalk()
BB = BangBangWalk()
TREE = KaryTree(2)
TREE3 = KaryTree(3)
PLANE = Z2Walk()


# ---------------------------------------------------------------------------
# Window policies


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(radius=5, policy="fold")
    with pytest.raises(ValueError):
        Truncation(radius=0)
    with pytest.raises(ValueError):
        Truncation(radius=5, margin=-1)


def test_exact_solve_matches_line_closed_form():
    pairs = [(2, 5), (5, 2), (-3, -1), (-1, -3), (3, -3), (0, 4), (4, 0), (4, 4), (0, 0)]
    for x, y in pairs:
        got = green_value(Z, 0, x, y, radius=12, exact=True).value
        assert got == exact_green(Z, 0, x, y)


def test_exact_solve_matches_halfline_closed_form():
    for x in range(0, 7):
        for y in range(0, 7):
            got = green_value(BB, 0, x, y, radius=12, exact=True).value
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
    got = green_value(Z, 0, x, y, radius=14, exact=True).value
    assert got == exact_green(Z, 0, x, y)


def test_kill_policy_certified_lower_bounds():
    values = [
        green_value(Z, 0, 2, 5, radius=rad, policy="kill", exact=True).value
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
        small = green_value(chain, x0, x, y, radius=radii[0], exact=True).value
        large = green_value(chain, x0, x, y, radius=radii[1], exact=True).value
        assert small == large


def test_margin_reports_window_sensitivity():
    looped = green_value(Z, 0, 2, 5, radius=8, exact=True, margin=4)
    assert looped.delta == 0.0
    killed = green_value(Z, 0, 2, 5, radius=8, policy="kill", exact=True, margin=4)
    assert killed.delta > 0


def test_states_outside_window_are_rejected_by_name():
    with pytest.raises(ValueError, match="30"):
        green_value(Z, 0, 30, 2, radius=5, exact=True)


def test_exact_lane_refuses_oversized_windows():
    window = PLANE.window(20)
    assert len(window) > EXACT_SOLVE_LIMIT
    with pytest.raises(ValueError, match="exact"):
        green_value(PLANE, (0, 0), (1, 0), (2, 0), radius=20, exact=True)


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
        f = green_value(Z, 0, x, y, radius=12, exact=False).value
        e = green_value(Z, 0, x, y, radius=12, exact=True).value
        assert f == pytest.approx(float(e), abs=1e-12)


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
    """Sparse substochastic rows in window_rows format, plus solve columns.

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
            _solve_columns_fraction(rows, columns)
        return
    got = _solve_columns_fraction(rows, columns)
    assert got == expected
    assert all(type(v) is Fraction for col in got for v in col)


def test_sparse_elimination_detects_closed_class():
    # states 0 and 1 swap forever: (I - M) is singular in both lanes
    rows = [[(1, Fraction(1))], [(0, Fraction(1))], [(0, Fraction(1, 2))]]
    with pytest.raises(SingularSystemError):
        _solve_columns_fraction(rows, [2])
    with pytest.raises(SingularSystemError):
        _solve_columns_float(rows, [2])


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


def test_kernel_mc_route_agrees():
    # null-recurrent returns have heavy tails: truncate, with negligible bias
    res = martin_kernel(
        Z, 0, 3, 7, method="mc", trajectories=4000, seed=51,
        step_cap=10**6, on_cap="truncate",
    )
    assert res.method == "monte-carlo"
    assert abs(res.value - 6) <= 4 * res.stderr


def test_kernel_mc_requires_seed():
    with pytest.raises(ValueError):
        martin_kernel(Z, 0, 3, 7, method="mc")
    with pytest.raises(ValueError):
        martin_kernel(Z, 0, 3, 7, method="quadrature")


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
    # lane; test_mc_generic_lane_off_the_half_line_base keeps the per-step
    # sampler checked against a closed form
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
    # off-spine targets cannot share one spine: the generic sampler takes over
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


LAYOUT_CASES = [
    (Z, 0, 2, [1, 5, -3]),
    (BB, 0, 0, [1, 4]),
    (TREE, ROOT, (0, 1), [(0,), (0, 0, 1)]),
    (PLANE, (0, 0), (2, 1), [(1, 0), (2, 1)]),
]


LAYOUT_IDS = ["line", "halfline-from-base", "tree", "plane"]


@pytest.mark.parametrize("chain, x0, x, ys", LAYOUT_CASES, ids=LAYOUT_IDS)
def test_mc_runs_do_not_depend_on_the_run_count(monkeypatch, chain, x0, x, ys):
    captured = _captured_totals(monkeypatch)
    green_mc_grid(chain, x0, [x], ys, 3000, seed=12, escape_radius=16)
    green_mc_grid(chain, x0, [x], ys, 700, seed=12, escape_radius=16)
    n = len(ys)
    for big, small in zip(captured[:n], captured[n:]):
        assert np.array_equal(big[:700], small)


@pytest.mark.parametrize("chain, x0, x, ys", LAYOUT_CASES, ids=LAYOUT_IDS)
def test_mc_results_do_not_depend_on_blocks_or_slabs(monkeypatch, chain, x0, x, ys):
    def run():
        return green_mc_grid(chain, x0, [x], ys, 3000, seed=13, escape_radius=16)

    reference = run()
    for first, slab, cells in ((1, 10_000, 10_000 * 512), (512, 10_000, 10_000 * 512),
                               (16, 257, 4000), (3, 1000, 1)):
        monkeypatch.setattr(green_module, "_FIRST_BLOCK", first)
        monkeypatch.setattr(green_module, "_SLAB", slab)
        monkeypatch.setattr(green_module, "_BLOCK_CELLS", cells)
        assert run() == reference


def test_runaway_error_counts_only_finished_runs():
    # 25,000 runs fill three slabs; the first slab already has runs past the
    # cap, so the later slabs never start and none of their runs finished
    with pytest.raises(RunawayRunError) as info:
        green_mc(Z, 0, 2, 5, 25_000, seed=5, step_cap=8, on_cap="error")
    first_slab = green_mc(Z, 0, 2, 5, 10_000, seed=5, step_cap=8, on_cap="truncate")
    assert 0 < first_slab.truncated_runs < 10_000
    assert info.value.completed_runs == 10_000 - first_slab.truncated_runs


# ---------------------------------------------------------------------------
# Geometry helpers


def test_state_norm_per_chain():
    assert state_norm(Z, -7) == 7
    assert state_norm(BB, 4) == 4
    assert state_norm(TREE, (0, 1, 0)) == 3
    assert state_norm(PLANE, (3, -5)) == 5


def test_default_radius_contains_states():
    assert default_radius(Z, [0, 2, -9]) == 29
    assert default_radius(TREE, [ROOT, (0, 1)]) == 22
