"""Path-measure evaluators checked against exact identities and brackets.

Restricted weights are pinned to hand-computed rationals and to the
defining formula evaluated through an independent distribution route.
Cylinder sequences must grow monotonically with the documented verdicts;
avoidance brackets must enclose the closed-form values with certified
sides.
"""
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurmartin.chains import distribution_after, enumerate_paths
from recurmartin.examplechains import (
    ROOT,
    BangBangWalk,
    HalfLineEnd,
    KaryTree,
    LineEnd,
    TreeRay,
    Z2Walk,
    ZWalk,
)
from recurmartin.martin import profile_from_boundary
from recurmartin.potential import origin_killed_green, potential_table
from recurmartin.sigma import (
    AvoidanceConfig,
    _base_visits_before,
    avoid_states,
    avoidance_function,
    constant_one,
    cylinder_measure,
    path_indicator,
    restricted_measure,
    state_at_time,
    verify_concatenation,
    with_no_base_visits,
)

Z = ZWalk()
PHI = profile_from_boundary(Z, 0, LineEnd(1))  # 2 * max(x, 0)


def assert_nondecreasing(seq):
    values = [v for _, v in seq]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), values


# ---------------------------------------------------------------------------
# Horizon functionals


def test_path_indicator_matches_explicit_paths():
    f = path_indicator([0, 1, 2])
    assert f.horizon == 2
    assert f.evaluate((0, 1, 2)) == 1
    assert f.evaluate((0, 1, 2, 3, 4)) == 1
    assert f.evaluate((0, 1, 0)) == 0
    assert f.evaluate((1, 1, 2)) == 0


def test_functional_validation():
    with pytest.raises(ValueError):
        path_indicator([])
    with pytest.raises(ValueError):
        state_at_time(-1, 0)
    with pytest.raises(ValueError):
        with_no_base_visits(constant_one(), 0, 3, 3)


def test_allowed_view_agrees_with_evaluate():
    f = avoid_states({0, -1}, 4)
    path = (2, 1, 2, 1, 2)
    assert f.evaluate(path) == 1
    assert all(f.allowed(t, s) for t, s in enumerate(path))
    bad = (2, 1, 0, 1, 2)
    assert f.evaluate(bad) == 0
    assert not f.allowed(2, 0)


# ---------------------------------------------------------------------------
# Restricted weights


def test_restricted_weight_of_single_path():
    mv = restricted_measure(Z, 0, PHI, 0, path_indicator([0, 1, 2]))
    assert mv.mode == "exact"
    assert mv.value == 1  # (1/4) * phi(2)


def test_restricted_weight_from_wrong_start_vanishes():
    mv = restricted_measure(Z, 0, PHI, 0, path_indicator([1, 2, 3]))
    assert mv.value == 0


def test_restricted_weight_of_pinned_state():
    # E_1[1_{X_3 = 2} phi(2)]: three paths of probability 1/8 each end at 2.
    mv = restricted_measure(Z, 0, PHI, 1, state_at_time(3, 2))
    assert mv.value == Fraction(3, 8) * 4


@given(x=st.integers(-3, 3), m=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_unit_functional_reduces_to_profile_transport(x, m):
    """With F = 1 the restricted weight is E_x[phi(X_m)], route-checked."""
    lhs = restricted_measure(Z, 0, PHI, x, constant_one(m)).value
    rhs = sum(
        p * PHI.evaluate(s) for s, p in distribution_after(Z, x, m).items()
    )
    assert lhs == rhs


@given(
    steps=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=3),
    extra=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_nested_base_restriction_telescopes(steps, extra):
    """Adding {no base visit on [n, p)} and moving the horizon to p is free."""
    path = [2]
    for d in steps:
        path.append(path[-1] + d)
    n = len(steps)
    f = path_indicator(path)
    lhs = restricted_measure(Z, 0, PHI, 2, f).value
    g = with_no_base_visits(f, 0, n, n + extra)
    rhs = restricted_measure(Z, 0, PHI, 2, g).value
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Cylinder sequences


def test_cylinder_growth_along_initial_path():
    f = path_indicator([0, 1, 2])
    mv = cylinder_measure(Z, 0, PHI, 0, f, [2, 3, 4, 5, 8])
    assert mv.mode == "monotone-sequence"
    assert [v for _, v in mv.sequence] == [
        Fraction(1),
        Fraction(1),
        Fraction(1),
        Fraction(17, 16),
        Fraction(9, 8),
    ]
    assert_nondecreasing(mv.sequence)
    assert mv.verdict == "undetermined"


def test_cylinder_divergence_verdict():
    f = path_indicator([0, 1, 2])
    mv = cylinder_measure(Z, 0, PHI, 0, f, [2, 5, 7, 9, 11])
    assert mv.verdict == "diverges"
    assert_nondecreasing(mv.sequence)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_weight_with_base_barred_is_constant(m):
    """Killing at the base costs nothing: the profile vanishes there."""
    mv = restricted_measure(Z, 0, PHI, 2, avoid_states({0}, m))
    assert mv.value == PHI.evaluate(2)


def test_sequence_verdict_thresholds():
    from recurmartin.sigma import _sequence_verdict

    assert _sequence_verdict([Fraction(4), Fraction(4)]) == "converged"
    assert _sequence_verdict([1, 2, 3, Fraction(399, 100)]) == "diverges"
    assert _sequence_verdict([1, 2, 3, Fraction(31, 10)]) == "undetermined"
    assert _sequence_verdict([Fraction(1)]) == "undetermined"


def test_cylinder_from_disallowed_start_is_zero():
    f = path_indicator([1, 2])
    mv = cylinder_measure(Z, 0, PHI, 0, f, [1, 3])
    assert [v for _, v in mv.sequence] == [Fraction(0), Fraction(0)]


def test_cylinder_horizon_validation():
    f = path_indicator([0, 1, 2])
    with pytest.raises(ValueError):
        cylinder_measure(Z, 0, PHI, 0, f, [1, 3])  # starts before the event horizon
    with pytest.raises(ValueError):
        cylinder_measure(Z, 0, PHI, 0, f, [4, 3])
    with pytest.raises(ValueError):
        cylinder_measure(Z, 0, PHI, 0, constant_one(0), [])
    plain = restricted_measure(Z, 0, PHI, 0, f)  # non-indicator rejection below
    assert plain.mode == "exact"
    from recurmartin.sigma import HorizonFunctional

    opaque = HorizonFunctional(2, lambda path: Fraction(1))
    with pytest.raises(ValueError):
        cylinder_measure(Z, 0, PHI, 0, opaque, [2, 4])


def reference_cylinder(chain, phi, x, event, horizons):
    """The forward program in Fractions over successors(), state by state."""
    weights = {x: Fraction(1)} if event.allowed(0, x) else {}
    values, t = [], 0
    for n in horizons:
        while t < n:
            nxt: dict = {}
            for s, w in weights.items():
                for s2, p in chain.successors(s):
                    if event.allowed(t + 1, s2):
                        nxt[s2] = nxt.get(s2, Fraction(0)) + w * p
            weights, t = nxt, t + 1
        values.append(sum((w * phi(s) for s, w in weights.items()), Fraction(0)))
    return values


TREE2 = KaryTree(2)
PHI_TREE = profile_from_boundary(TREE2, ROOT, TreeRay((), (0,)))
BB3 = BangBangWalk(Fraction(1, 3))
PHI_BB = profile_from_boundary(BB3, 0, HalfLineEnd())


@pytest.mark.parametrize("chain, phi, x, event, horizons", [
    (Z, PHI, 0, state_at_time(3, 1), [50, 100, 150]),
    (Z, PHI, 2, avoid_states({0, 5}, 30), [30, 40]),
    (BB3, PHI_BB, 0, constant_one(0), [0, 3, 10, 30]),
    (TREE2, PHI_TREE, ROOT, avoid_states({(1,)}, 6), [6, 8, 10]),
    (TREE2, PHI_TREE, (0, 1), state_at_time(2, (0,)), [2, 5]),
], ids=["z-pinned", "z-avoid", "halfline", "tree-avoid", "tree-pinned"])
def test_cylinder_values_equal_the_fraction_program(chain, phi, x, event, horizons):
    mv = cylinder_measure(chain, ROOT if x == ROOT else 0, phi, x, event, horizons)
    assert [v for _, v in mv.sequence] == reference_cylinder(chain, phi, x, event, horizons)
    assert all(type(v) is Fraction for _, v in mv.sequence)


def test_cylinder_beyond_the_tree_code_range_falls_back_to_successors():
    # 70 steps down the leftmost ray leave the range of int64 heap codes
    path = [(0,) * i for i in range(71)]
    mv = cylinder_measure(TREE2, ROOT, PHI_TREE, ROOT, path_indicator(path), [70])
    assert mv.value == Fraction(1, 2) * Fraction(1, 4) ** 69 * (2**70 - 1)


# ---------------------------------------------------------------------------
# Concatenation consistency


@pytest.mark.parametrize("x,y,n,p", [(1, 2, 1, 3), (0, 2, 2, 4)])
def test_concatenation_split_is_exact_on_the_line(x, y, n, p):
    rep = verify_concatenation(Z, 0, PHI, x, y, n, p)
    assert rep.all_ok
    assert rep.nonzero_paths > 0
    assert rep.max_discrepancy == 0


def test_concatenation_split_is_exact_on_the_tree():
    tree = KaryTree(2)
    phi = profile_from_boundary(tree, ROOT, TreeRay.parse("(0)*"))
    rep = verify_concatenation(tree, ROOT, phi, (0,), (0, 0), 1, 3)
    assert rep.all_ok
    assert rep.nonzero_paths > 0


def test_concatenation_counts_all_paths():
    rep = verify_concatenation(Z, 0, PHI, 1, 2, 1, 3)
    assert rep.paths_checked == 8  # binary steps, three of them


# ---------------------------------------------------------------------------
# Avoidance brackets


def test_avoidance_exact_shortcuts():
    mv = avoidance_function(Z, 0, PHI, 1, 1)
    assert mv.value == 0 and mv.mode == "exact" and mv.verdict == "exact"
    mv = avoidance_function(Z, 0, PHI, 3, 0)
    assert mv.value == PHI.evaluate(3) and mv.verdict == "exact"
    bb = BangBangWalk()
    pbb = profile_from_boundary(bb, 0, HalfLineEnd())
    mv = avoidance_function(bb, 0, pbb, 0, 0)
    assert mv.value == 0 and mv.verdict == "exact"


@pytest.mark.parametrize("x", [2, 3, 4])
def test_avoidance_separation_brackets_the_linear_profile_gap(x):
    """Never hitting 1 from x > 1 carries measure phi(x) - phi(1) = 2(x-1)."""
    mv = avoidance_function(Z, 0, PHI, x, 1)
    lo, up = mv.bracket
    truth = 2 * (x - 1)
    assert lo - 1e-9 <= truth <= up + 1e-9
    assert mv.verdict == "bracket-closed"
    assert (up - lo) <= 0.05 * float(mv.value)
    assert lo == pytest.approx(truth, abs=1e-9)
    assert_nondecreasing(mv.sequence)


def test_avoidance_separation_closes_fast_under_drift():
    bb = BangBangWalk()
    pbb = profile_from_boundary(bb, 0, HalfLineEnd())
    mv = avoidance_function(bb, 0, pbb, 4, 2)
    lo, up = mv.bracket
    truth = float(pbb.evaluate(4) - pbb.evaluate(2))
    assert mv.verdict == "bracket-closed"
    assert lo == pytest.approx(truth, abs=1e-9)
    assert up == pytest.approx(truth, abs=1e-6)


def test_avoidance_separation_on_the_tree_reports_honest_width():
    """The ball budget caps tree horizons; the lower side is still exact."""
    tree = KaryTree(2)
    phi = profile_from_boundary(tree, ROOT, TreeRay.parse("(0)*"))
    cfg = AvoidanceConfig(horizons=(8, 16), state_budget=40_000)
    mv = avoidance_function(tree, ROOT, phi, (0, 0, 0), (0,), cfg)
    lo, up = mv.bracket
    truth = float(phi.evaluate((0, 0, 0)) - phi.evaluate((0,)))
    assert lo - 1e-9 <= truth <= up + 1e-9
    assert lo == pytest.approx(truth, abs=1e-9)
    assert mv.verdict == "inconclusive"  # short horizons leave a wide top side


def test_avoidance_generic_branch_on_the_line():
    """y = -2 does not cut 3 off from 0: the two-sided bracket applies."""
    mv = avoidance_function(Z, 0, PHI, 3, -2)
    lo, up = mv.bracket
    # phi(3) + balance * visits-to-0-before-hitting(-2) = 6 + 1 * 4
    assert up == pytest.approx(10.0, abs=1e-9)
    assert 0 <= lo <= up
    assert_nondecreasing(mv.sequence)


def test_avoidance_generic_branch_tightens_with_later_base_barring():
    early = avoidance_function(
        Z, 0, PHI, 3, -2, AvoidanceConfig(horizons=(256, 1024), restriction_split=0.25)
    )
    late = avoidance_function(
        Z, 0, PHI, 3, -2, AvoidanceConfig(horizons=(256, 1024), restriction_split=0.9)
    )
    assert late.bracket[0] >= early.bracket[0] - 1e-12


def test_avoidance_generic_branch_on_the_plane():
    """Upper side must match the independent potential-kernel closure."""
    z2 = Z2Walk()
    table = potential_table(40)
    cfg = AvoidanceConfig(horizons=(16, 32), state_budget=120_000)
    mv = avoidance_function(z2, (0, 0), table.float_value, (3, 0), (1, 0), cfg)
    lo, up = mv.bracket
    closure = float(origin_killed_green(table, (2, 0), (-1, 0)))
    assert up == pytest.approx(table.float_value((3, 0)) + closure, rel=1e-12)
    assert 0 <= lo <= up
    assert_nondecreasing(mv.sequence)


def test_avoidance_inconclusive_is_reported_not_raised():
    cfg = AvoidanceConfig(horizons=(4, 8), tolerance=1e-6)
    mv = avoidance_function(Z, 0, PHI, 3, 1, cfg)
    assert mv.verdict == "inconclusive"
    lo, up = mv.bracket
    assert lo - 1e-9 <= 4 <= up + 1e-9


# The brackets below are pinned, bit for bit, to the values a ball search
# over successors() rows gives, with the profile evaluated state by state.
PINNED_BRACKETS = [
    (Z, 0, PHI, 3, 1,
     ("0x1.0000000000000p+2", "0x1.0660139015ffcp+2"),
     [(128, "0x1.ffffffffffffep+1"), (256, "0x1.fffffffffffffp+1"),
      (512, "0x1.ffffffffffffbp+1"), (1024, "0x1.0000000000000p+2")]),
    (Z, 0, PHI, 3, -2,
     ("0x1.04f047c6ef649p+3", "0x1.4000000000000p+3"),
     [(m, "0x1.04f047c6ef649p+3") for m in (128, 256, 512, 1024)]),
    (TREE2, ROOT, PHI_TREE, (0,), (1,),
     ("0x1.7400000000000p+0", "0x1.0000000000000p+1"), [(13, "0x1.7400000000000p+0")]),
    (TREE2, ROOT, PHI_TREE, (0, 0, 1), (0,),
     ("0x1.0000000000000p+1", "0x1.35a0000000000p+1"), [(13, "0x1.0000000000000p+1")]),
]


@pytest.mark.parametrize(
    "chain, x0, phi, x, y, bracket, sequence", PINNED_BRACKETS,
    ids=["z-separating", "z-generic", "tree-generic", "tree-separating"],
)
def test_avoidance_brackets_are_pinned_bit_for_bit(chain, x0, phi, x, y, bracket, sequence):
    mv = avoidance_function(chain, x0, phi, x, y, AvoidanceConfig(state_budget=40_000))
    assert tuple(v.hex() for v in mv.bracket) == bracket
    assert [(m, v.hex()) for m, v in mv.sequence] == sequence


def test_base_visits_on_deep_tree_nodes_solve_on_the_hull():
    # the hull of (0,)^70, (1,) and the root has 72 states; the radius-72
    # window the solve used to take has 2^73 - 1
    assert _base_visits_before(TREE2, (0,) * 70, (1,), ROOT) == (2.0, True)
    config = AvoidanceConfig(state_budget=40_000)
    start = time.perf_counter()
    mv = avoidance_function(TREE2, ROOT, PHI_TREE, (0,) * 70, (1,), config)
    assert mv.bracket[1] == float(2**70)
    assert time.perf_counter() - start < 10
    mv8 = avoidance_function(TREE2, ROOT, PHI_TREE, (0,) * 8, (1,), config)
    assert mv8.bracket == (255.0, 256.0)


def test_base_visits_on_the_line_solve_on_the_interval():
    # visits to 0 from 3 before hitting -2: by translation G_0(5, 2) = 4
    assert _base_visits_before(Z, 3, -2, 0) == (4.0, True)
    assert _base_visits_before(BangBangWalk(), 4, 1, 0) == (0.0, True)
