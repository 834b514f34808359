"""Path-measure evaluators checked against exact identities and brackets.

Restricted weights are pinned to hand-computed rationals and to the
defining formula evaluated through an independent distribution route.
Cylinder sequences must grow monotonically, with the divergence theorem's
verdict; avoidance values must equal the martingale identity exactly on
certified chains, and brackets elsewhere must enclose the truth.
"""
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurmartin.chains import ChainSpec, distribution_after, enumerate_paths
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
from recurmartin.chains import law_capability
from recurmartin.green import Truncation, green_solve
from recurmartin.martin import BoundaryMixture, mixture_profile, profile_from_boundary
from recurmartin.potential import origin_killed_green, potential_table
from recurmartin.sigma import (
    AvoidanceConfig,
    HorizonFunctional,
    _base_visits_before,
    _uncertified_visits,
    _visits_certified,
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


TREE2 = KaryTree(2)
INDICATORS = {
    "z": (Z, 0, {
        "path 0.1.2": lambda: path_indicator([0, 1, 2]),
        "path 0": lambda: path_indicator([0]),
        "path 0.-1.0.1": lambda: path_indicator([0, -1, 0, 1]),
        "at 2 = 0": lambda: state_at_time(2, 0),
        "at 3 = 1": lambda: state_at_time(3, 1),
        "avoid -2, 2 to 3": lambda: avoid_states({-2, 2}, 3),
        "avoid 1 to 0": lambda: avoid_states({1}, 0),
        "one to 2": lambda: constant_one(2),
        "path 0.1, base barred [1,4)": lambda: with_no_base_visits(path_indicator([0, 1]), 0, 1, 4),
        "at 2 = 2, base barred [2,3)": lambda: with_no_base_visits(state_at_time(2, 2), 0, 2, 3),
        "one, base barred [1,3)": lambda: with_no_base_visits(constant_one(), 0, 1, 3),
    }),
    "tree": (TREE2, ROOT, {
        "path @.0.01": lambda: path_indicator([ROOT, (0,), (0, 1)]),
        "at 2 = @": lambda: state_at_time(2, ROOT),
        "at 3 = 1": lambda: state_at_time(3, (1,)),
        "avoid 0 to 2": lambda: avoid_states({(0,)}, 2),
        "one to 3": lambda: constant_one(3),
        "at 4 = 01, base barred [1,4)": lambda: with_no_base_visits(state_at_time(4, (0, 1)), ROOT, 1, 4),
        "avoid 1 to 1, base barred [2,4)": lambda: with_no_base_visits(avoid_states({(1,)}, 1), ROOT, 2, 4),
    }),
}

# each indicator's value on every path of n steps, horizon <= n <= 4, in
# state-key order, one "|"-separated block per n, as recorded from the
# per-functional ``evaluate`` closures these indicators had before
# ``evaluate`` was derived from ``allowed``
RECORDED_INDICATORS = {
    ("z", "path 0.1.2"): "0001|00000011|0000000000001111",
    ("z", "path 0"): "1|11|1111|11111111|1111111111111111",
    ("z", "path 0.-1.0.1"): "00010000|0000001100000000",
    ("z", "at 2 = 0"): "0110|00111100|0000111111110000",
    ("z", "at 3 = 1"): "00010110|0000001100111100",
    ("z", "avoid -2, 2 to 3"): "00111100|0000111111110000",
    ("z", "avoid 1 to 0"): "1|11|1111|11111111|1111111111111111",
    ("z", "one to 2"): "1111|11111111|1111111111111111",
    ("z", "path 0.1, base barred [1,4)"): "00000011|0000000000001111",
    ("z", "at 2 = 2, base barred [2,3)"): "0001|00000011|0000000000001111",
    ("z", "one, base barred [1,3)"): "1001|11000011|1111000000001111",
    ("tree", "path @.0.01"): "001000|0000011100000000|000000000000000111111111000000000000000000000000",
    ("tree", "at 2 = @"): "100100|1100000011000000|111111000000000000000000111111000000000000000000",
    ("tree", "at 3 = 1"): "0100000001100100|000111000000000000000000000111111000000111000000",
    ("tree", "avoid 0 to 2"): "000111|0000000011111111|000000000000000000000000111111111111111111111111",
    ("tree", "one to 3"): "1111111111111111|111111111111111111111111111111111111111111111111",
    ("tree", "at 4 = 01, base barred [1,4)"): "000000001000000001100100000000000000000000000000",
    ("tree", "avoid 1 to 1, base barred [2,4)"): "0011111100000000|000000111111111111111111000000000000000000000000",
}


@pytest.mark.parametrize("chain_name, label", sorted(RECORDED_INDICATORS))
def test_indicator_evaluate_derived_from_allowed_matches_the_record(chain_name, label):
    chain, start, made = INDICATORS[chain_name]
    f = made[label]()
    blocks = []
    for n in range(f.horizon, 5):
        paths = sorted((pw.states for pw in enumerate_paths(chain, start, n)),
                       key=lambda p: [chain.state_key(s) for s in p])
        values = [f.evaluate(p) for p in paths]
        assert all(type(v) is Fraction and v in (0, 1) for v in values)
        blocks.append("".join(str(int(v)) for v in values))
    assert "|".join(blocks) == RECORDED_INDICATORS[chain_name, label]


def test_a_non_indicator_functional_keeps_its_own_evaluate():
    opaque = HorizonFunctional(2, lambda path: Fraction(len(path)))
    barred = with_no_base_visits(opaque, 0, 1, 3)
    assert barred.allowed is None
    assert barred.evaluate((1, 2, 3)) == 3 and barred.evaluate((1, 0, 3)) == 0
    with pytest.raises(ValueError):
        HorizonFunctional(2)


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
    assert mv.verdict == "diverges"


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


def test_cylinder_verdict_is_the_divergence_theorem():
    """W(F) is infinite exactly when the balance and P_x(F) are positive."""
    # no path from 0 starts 1, 2: P_0(F) = 0
    assert cylinder_measure(Z, 0, PHI, 0, path_indicator([1, 2]), [1, 3]).verdict == "converged"
    # the zero profile has balance 0
    zero = cylinder_measure(Z, 0, lambda s: 0, 0, path_indicator([0, 1, 2]), [2, 9])
    assert zero.verdict == "converged" and zero.value == 0
    # pinned at 2 at time 3 from 0: impossible by parity
    assert cylinder_measure(Z, 0, PHI, 0, state_at_time(3, 2), [3, 8]).verdict == "converged"
    # the mass counts at the event horizon even when phi vanishes there
    away = cylinder_measure(Z, 0, PHI, 0, state_at_time(2, -2), [2])
    assert away.value == 0 and away.verdict == "diverges"



def test_cylinder_with_a_float_profile_sums_in_floats():
    event = state_at_time(3, 1)
    exact = cylinder_measure(Z, 0, PHI, 0, event, [3, 10])
    assert [v for _, v in exact.sequence] == [Fraction(3, 4), Fraction(153, 128)]
    mv = cylinder_measure(Z, 0, lambda s: 2.0 * max(s, 0), 0, event, [3, 10])
    assert [v for _, v in mv.sequence] == [0.75, 1.1953125]
    assert all(type(v) is float for _, v in mv.sequence) and type(mv.value) is float


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
    (Z, PHI, 0, path_indicator([0, 1, 2, 1]), [3, 10, 40]),
    (TREE2, PHI_TREE, ROOT, path_indicator([ROOT, (0,), (0, 1), (0,)]), [3, 7]),
    (Z, PHI, 1, with_no_base_visits(state_at_time(4, 3), 0, 0, 6), [5, 12, 30]),
    (Z, PHI, 2, with_no_base_visits(constant_one(0), 0, 1, 9), [8, 20]),
    (TREE2, PHI_TREE, (1,), with_no_base_visits(avoid_states({(1, 1)}, 3), ROOT, 1, 5), [4, 9]),
    # climbs past the anchor of the start's code table: the default table's route
    (TREE2, PHI_TREE, (0,) * 61, path_indicator([(0,) * (61 - t) for t in range(32)]), [31, 33]),
], ids=[
    "z-pinned", "z-avoid", "halfline", "tree-avoid", "tree-pinned", "z-path", "tree-path",
    "z-pinned-no-base", "z-no-base", "tree-avoid-no-base", "deep-tree-climb",
])
def test_cylinder_values_equal_the_fraction_program(chain, phi, x, event, horizons):
    mv = cylinder_measure(chain, chain.base_point, phi, x, event, horizons)
    assert [v for _, v in mv.sequence] == reference_cylinder(chain, phi, x, event, horizons)
    assert all(type(v) is Fraction for _, v in mv.sequence)


@st.composite
def indicator_events(draw, depth=0):
    """An indicator functional of line states from one of the builders,
    with the base bar wrapped around any of them."""
    kinds = ["path", "pinned", "avoid", "one"] + (["no-base"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    states, times = st.integers(-6, 6), st.integers(0, 10)
    if kind == "path":
        return path_indicator(draw(st.lists(states, min_size=1, max_size=8)))
    if kind == "pinned":
        return state_at_time(draw(times), draw(states))
    if kind == "avoid":
        return avoid_states(draw(st.sets(states, max_size=4)), draw(times))
    if kind == "one":
        return constant_one(draw(times))
    inner = draw(indicator_events(depth + 1))
    start = draw(times)
    return with_no_base_visits(inner, draw(states), start, start + draw(st.integers(1, 10)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(event=indicator_events(), later=st.integers(1, 50), s=st.integers(-10, 10))
def test_allowed_holds_for_every_state_past_the_horizon(event, later, s):
    # the cylinder program consults allowed(t, s) only up to the horizon
    assert event.allowed(event.horizon + later, s)


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
# Avoidance values


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
    assert mv.value == 2 * (x - 1) and mv.mode == "exact"
    assert mv.verdict == "bracket-closed"
    assert mv.bracket == (2.0 * (x - 1), 2.0 * (x - 1))


def test_avoidance_separation_closes_fast_under_drift():
    bb = BangBangWalk()
    pbb = profile_from_boundary(bb, 0, HalfLineEnd())
    mv = avoidance_function(bb, 0, pbb, 4, 2)
    assert mv.value == pbb.evaluate(4) - pbb.evaluate(2)
    assert mv.verdict == "bracket-closed"


def test_avoidance_generic_branch_on_the_line():
    """y = -2 does not cut 3 off from 0: the visit term counts."""
    mv = avoidance_function(Z, 0, PHI, 3, -2)
    # phi(3) + balance * visits-to-0-before-hitting(-2) = 6 + 1 * 4
    assert mv.value == 10 and type(mv.value) is Fraction
    assert mv.bracket == (10.0, 10.0)


def test_avoidance_generic_branch_on_the_plane():
    """The visit term is the potential-kernel closed form; the balance is a(1,0) = 1."""
    table = potential_table(40)
    a = table.float_value
    mv = avoidance_function(Z2Walk(), (0, 0), a, (3, 0), (1, 0))
    closure = float(origin_killed_green(table, (2, 0), (-1, 0)))
    assert mv.value == a((3, 0)) - a((1, 0)) + closure
    assert mv.verdict == "bracket-closed" and mv.bracket == (mv.value, mv.value)


# phi(x) - phi(y) + balance * E_x[visits to the base before T_y], by hand:
# the line's balance is 1, the half line's (q = 1/3) 4, the tree's 1/2.
PINNED_VALUES = [
    (Z, 0, PHI, 3, 1, 4),  # 1 separates: 6 - 2
    (Z, 0, PHI, 3, -2, 10),  # 6 - 0 + 1 * G_0(5, 2) = 6 + 4
    (TREE2, ROOT, PHI_TREE, (0,), (1,), 2),  # 1 - 0 + 1/2 * 2
    (TREE2, ROOT, PHI_TREE, (0, 0, 1), (0,), 2),  # (0,) separates: 3 - 1
    (Z, 0, PHI, -2, 1, 0),  # 0 - 2 + 1 * 2
    (Z, 0, PHI, 0, -2, 4),  # from the base: 0 - 0 + 1 * 4 visits
    (BB3, 0, PHI_BB, 5, 2, 112),  # 2 separates: 124 - 12
    (BB3, 0, PHI_BB, 1, 3, 0),  # 4 - 28 + 4 * 6
    (TREE2, ROOT, PHI_TREE, (0, 0), (0, 1), 4),  # 3 - 1 + 1/2 * 4
    (TREE2, ROOT, PHI_TREE, (0, 1), (0, 0), 0),  # 1 - 3 + 1/2 * 4
    # a 1,204-state hull, past the exact limit but a path: 6 - 0 + 1 * 2400
    (Z, 0, PHI, 3, -1200, 2406),
]


@pytest.mark.parametrize(
    "chain, x0, phi, x, y, value", PINNED_VALUES,
    ids=["z-separating", "z-generic", "tree-generic", "tree-separating", "z-past-base",
         "z-from-base", "halfline-separating", "halfline-beyond", "tree-cousin", "tree-back",
         "z-past-exact-limit"],
)
def test_avoidance_brackets_are_pinned_bit_for_bit(chain, x0, phi, x, y, value):
    mv = avoidance_function(chain, x0, phi, x, y)
    assert type(mv.value) is Fraction and mv.value == value
    assert mv.mode == "exact" and mv.verdict == "bracket-closed"
    assert mv.bracket == (float(value), float(value)) and mv.sequence is None
    assert "identity" in mv.note


@pytest.mark.parametrize("m, weight", [(100, 8.4831), (1000, 9.4980)])
def test_singly_restricted_weights_stay_below_the_identity(m, weight):
    """U_m = E_3[phi(X_m); T_-2 > m] increases (phi(-2) = 0) to the
    identity's 10 like 1/sqrt(m)."""
    u = cylinder_measure(Z, 0, PHI, 3, avoid_states([-2], m), [m]).value
    assert float(u) == pytest.approx(weight, abs=5e-5)
    assert u < avoidance_function(Z, 0, PHI, 3, -2).value


def _killed_at(chain, x0, phi, x, y, m):
    """U_m = E_x[phi(X_m); T_y > m], E_x[visits to x0 before m ^ T_y] and
    P_x(T_y <= m), by a Fraction forward program over successors()."""
    weights, visits, hit = {x: Fraction(1)}, Fraction(0), Fraction(0)
    for _ in range(m):
        visits += weights.get(x0, 0)
        nxt: dict = {}
        for s, w in weights.items():
            for s2, p in chain.successors(s):
                nxt[s2] = nxt.get(s2, 0) + w * p
        hit += nxt.pop(y, 0)
        weights = nxt
    return sum((w * phi(s) for s, w in weights.items()), Fraction(0)), visits, hit


NODES = [ROOT, (0,), (1,), (0, 0), (0, 1), (1, 0), (0, 0, 0), (0, 1, 1)]
CHAINS = {
    "z": (Z, 0, PHI, list(range(-3, 5))),
    "halfline": (BB3, 0, PHI_BB, list(range(0, 6))),
    "tree": (TREE2, ROOT, PHI_TREE, NODES),
}


@given(name=st.sampled_from(sorted(CHAINS)), i=st.integers(0, 7), j=st.integers(0, 7),
       m=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_avoidance_identity_against_the_singly_restricted_program(name, i, j, m):
    """The stopped martingale holds exactly at every m. U_m tends to the
    identity's value; with phi(y) = 0 it increases, so it stays below."""
    chain, x0, phi, states = CHAINS[name]
    x, y = states[i % len(states)], states[j % len(states)]
    if x == y or y == x0:
        return
    u, visits, hit = _killed_at(chain, x0, phi.evaluate, x, y, m)
    balance = sum(p * phi.evaluate(s) for s, p in chain.successors(x0))
    assert u == phi.evaluate(x) + balance * visits - phi.evaluate(y) * hit
    if phi.evaluate(y) == 0:
        assert u <= avoidance_function(chain, x0, phi, x, y).value


def test_avoidance_identity_is_linear_in_the_profile():
    mixture = BoundaryMixture([(LineEnd(1), Fraction(1, 3)), (LineEnd(-1), Fraction(2, 3))])
    both = mixture_profile(Z, 0, mixture)
    minus = profile_from_boundary(Z, 0, LineEnd(-1))
    for x, y in ((3, -2), (-4, 1), (2, 5)):
        parts = [avoidance_function(Z, 0, p, x, y).value for p in (PHI, minus)]
        value = avoidance_function(Z, 0, both, x, y).value
        assert value == Fraction(1, 3) * parts[0] + Fraction(2, 3) * parts[1]


def test_base_visits_on_deep_tree_nodes_solve_on_the_hull():
    # the hull of (0,)^70, (1,) and the root has 72 states; the radius-72
    # window the solve used to take has 2^73 - 1
    assert _base_visits_before(TREE2, (0,) * 70, (1,), ROOT) == 2
    start = time.perf_counter()
    mv = avoidance_function(TREE2, ROOT, PHI_TREE, (0,) * 70, (1,))
    assert mv.value == 2**70  # 2^70 - 1 - 0 + 1/2 * 2
    assert time.perf_counter() - start < 10
    mv8 = avoidance_function(TREE2, ROOT, PHI_TREE, (0,) * 8, (1,))
    assert mv8.bracket == (256.0, 256.0)


class LazyPlane(Z2Walk):
    """The planar walk holding with probability 1/2: another law."""

    def successors(self, x):
        return [(x, Fraction(1, 2))] + [(y, p / 2) for y, p in super().successors(x)]


def test_base_visits_closed_form_follows_the_planar_law():
    assert _visits_certified(Z2Walk())
    assert _base_visits_before(Z2Walk(), (1, 0), (2, 0), (0, 0)) == 1.4535209105296747
    # holding doubles every visit count; the generic radius-27 loop solve
    # gives the simple walk 1.45497 there
    assert not _visits_certified(LazyPlane())
    visits = _uncertified_visits(LazyPlane(), (1, 0), (2, 0), (0, 0))[1]
    assert visits == pytest.approx(2 * 1.454970663242994, rel=1e-9)


def test_base_visits_on_the_line_solve_on_the_interval():
    # visits to 0 from 3 before hitting -2: by translation G_0(5, 2) = 4
    assert _base_visits_before(Z, 3, -2, 0) == Fraction(4)
    assert _base_visits_before(BangBangWalk(), 4, 1, 0) == Fraction(0)



class HulllessLine(ChainSpec):
    """The line's law as a chain of its own that vouches for exact loop
    truncation but knows no hulls."""

    name = "line-without-hull"
    base_point = 0
    loop_truncation_exact = True

    def successors(self, x):
        return [(x - 1, Fraction(1, 2)), (x + 1, Fraction(1, 2))]

    def state_key(self, x):
        return x

    def format_state(self, x):
        return str(x)

    def parse_state(self, text):
        return int(text)

    def window(self, radius):
        return list(range(-radius, radius + 1))


def test_base_visits_without_a_hull_solve_on_a_radius_window():
    line = HulllessLine()
    assert _visits_certified(line) and law_capability(line, "hull")([3, 0]) is None
    for (x, y), value in zip([(3, -2), (-4, 2), (5, 7), (-1, -6)], [10, 0, 0, 10]):
        mv = avoidance_function(line, 0, lambda s: 2 * max(s, 0), x, y)
        assert mv.value == value == avoidance_function(Z, 0, PHI, x, y).value
        assert mv.verdict == "bracket-closed"


class JumpZ(ZWalk):
    """Steps of +-1 and +-2, each with probability 1/4: another law on Z."""

    def successors(self, x):
        return [(x + d, Fraction(1, 4)) for d in (-2, -1, 1, 2)]


def test_law_capabilities_follow_the_law():
    """Interval hulls, separation and exact loop truncation are facts of the
    nearest-neighbour law; a jump of 2 skips a state, so none carries over."""
    jump = JumpZ()
    assert law_capability(jump, "loop_truncation_exact") is False
    assert law_capability(jump, "hull")([3, -2, 0]) is None
    assert law_capability(jump, "separating")(1, 3, 0) is False
    assert law_capability(Z, "separating")(1, 3, 0) is True

    class Renamed(ZWalk):  # same law: the line's capabilities still hold
        name = "z-renamed"

    assert law_capability(Renamed(), "hull")([3, -2, 0]) == list(range(-2, 4))
    assert _visits_certified(Renamed())
    assert _base_visits_before(Renamed(), 3, -2, 0) == 4
    assert not _visits_certified(jump)
    # the hull solve gave 2.18; a radius-200 kill solve 1.837
    assert float(_uncertified_visits(jump, 3, -2, 0)[1]) < 2
    mv = avoidance_function(jump, 0, PHI, 3, 1)
    assert mv.verdict == "inconclusive" and mv.mode == "bracket"


# ---------------------------------------------------------------------------
# The uncertified bracket


class LazyZ(ZWalk):
    """The line walk holding with probability 1/2: same profiles, same
    avoidance values, but a law the library does not certify."""

    def successors(self, x):
        return [(x - 1, Fraction(1, 4)), (x, Fraction(1, 2)), (x + 1, Fraction(1, 4))]


LAZY = LazyZ()


def test_uncertified_bracket_on_the_lazy_line():
    """The balance halves and the visits double: the truth is still 10."""
    mv = avoidance_function(LAZY, 0, PHI, 3, -2, AvoidanceConfig(state_budget=40_000))
    assert mv.verdict == "inconclusive" and mv.mode == "bracket" and mv.sequence is None
    # the lower side is 290/31: 6 - 0 + 1/2 * V_kill on the radius-28 window
    assert tuple(v.hex() for v in mv.bracket) == ("0x1.2b5ad6b5ad6b6p+3", "0x1.4000000000000p+3")
    assert mv.value == 0.5 * (mv.bracket[0] + mv.bracket[1])


@pytest.mark.parametrize("x, y", [(3, -2), (-4, 1), (6, 2), (1, 5), (0, -3)])
def test_uncertified_lower_side_is_the_killed_identity(x, y):
    """bracket[0] = max(0, phi(x) - phi(y) + b * V_kill), with V_kill the
    killed Green function of the uncertified solve's window."""
    radius = max(abs(x), abs(y)) + LAZY.radius_margin + 5
    (g,) = green_solve(LAZY, y, [(x, 0)], Truncation(radius, "kill"), exact=True)
    balance = sum(p * PHI.evaluate(s) for s, p in LAZY.successors(0))
    lower = max(0, PHI.evaluate(x) - PHI.evaluate(y) + balance * g.value)
    assert avoidance_function(LAZY, 0, PHI, x, y).bracket[0] == float(lower)


@given(x=st.integers(-8, 8), y=st.integers(-8, 8), end=st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_uncertified_bracket_holds_the_simple_walk_value(x, y, end):
    """Holding halves b and doubles the visits, so the lazy line's measure
    is the simple walk's, which the certified identity gives exactly."""
    if x == y or y == 0:
        return
    phi = profile_from_boundary(Z, 0, LineEnd(end))
    lo, up = avoidance_function(LAZY, 0, phi, x, y).bracket
    assert lo <= avoidance_function(Z, 0, phi, x, y).value <= up


def test_uncertified_window_over_the_state_budget_raises():
    # the radius-28 window holds 57 states
    with pytest.raises(ValueError, match="57 states, more than the state budget of 10"):
        avoidance_function(LAZY, 0, PHI, 3, -2, AvoidanceConfig(state_budget=10))


@given(x=st.integers(-6, 6), y=st.integers(-6, 6))
@example(x=3, y=-2)  # the ball DP gave the inverted (9.466, 8.833) here
@settings(max_examples=30, deadline=None)
def test_uncertified_bracket_stays_ordered_for_any_nonnegative_profile(x, y):
    """PHI is not harmonic under jumps of 2, and nothing checks that; still,
    a killed walk never makes more visits than a looped one, so the lower
    side cannot pass the upper."""
    if x == y or y == 0:
        return
    lo, up = avoidance_function(JumpZ(), 0, PHI, x, y).bracket
    assert 0 <= lo <= up


class LazyTree(KaryTree):
    """The tree walk holding with probability 1/2: another law."""

    def successors(self, x):
        return [(x, Fraction(1, 2))] + [(y, p / 2) for y, p in super().successors(x)]


def test_uncertified_bracket_on_the_lazy_tree():
    """Holding keeps the simple tree's value 2; the lower side is 9/5."""
    mv = avoidance_function(LazyTree(2), ROOT, PHI_TREE, (0,), (1,))
    assert mv.mode == "bracket" and mv.verdict == "inconclusive"
    assert tuple(v.hex() for v in mv.bracket) == ("0x1.ccccccccccccdp+0", "0x1.0000000000000p+1")


def test_avoidance_separation_on_the_tree_reports_honest_width():
    """When y separates, the killed count is 0 and the lower side is
    exact; without a certified visit count the bracket stays open."""
    cfg = AvoidanceConfig(state_budget=4_000)
    mv = avoidance_function(LazyTree(2), ROOT, PHI_TREE, (0, 0, 0), (0,), cfg)
    lo, up = mv.bracket
    truth = float(PHI_TREE.evaluate((0, 0, 0)) - PHI_TREE.evaluate((0,)))
    assert lo - 1e-9 <= truth <= up + 1e-9
    assert lo == truth and up == float(PHI_TREE.evaluate((0, 0, 0)))
    assert mv.verdict == "inconclusive"


def test_uncertified_bracket_steps_its_window_once(monkeypatch):
    """One window operator serves both policies: the 2,047-state window's
    rows plus the base row of the balance, 2,048 successors() calls."""
    calls = []
    original = LazyTree.successors
    monkeypatch.setattr(
        LazyTree, "successors", lambda self, x: calls.append(x) or original(self, x)
    )
    mv = avoidance_function(LazyTree(2), ROOT, PHI_TREE, (0, 0, 0), (0,))
    assert mv.bracket == (6.0, 7.0)
    assert len(calls) <= 2048


def test_uncertified_budget_is_checked_before_the_window_is_built(monkeypatch):
    def refuse(self, radius):
        raise AssertionError(f"built the radius-{radius} window")

    monkeypatch.setattr(LazyTree, "window", refuse)
    assert LazyTree(2).window_size(27) == 2**28 - 1
    with pytest.raises(ValueError, match="268435455 states, more than the state budget"):
        avoidance_function(LazyTree(2), ROOT, PHI_TREE, (0,) * 20, (1,))


def test_avoidance_inconclusive_is_reported_not_raised():
    mv = avoidance_function(LAZY, 0, PHI, 3, 1)
    assert mv.verdict == "inconclusive"
    lo, up = mv.bracket
    assert lo - 1e-9 <= 4 <= up + 1e-9
