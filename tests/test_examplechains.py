"""Closed forms of the built-in chains, checked against exact identities.

The killed Green function row G(x0, .) must reproduce the stationary-measure
ratio, the full array must satisfy its one-step recursion, and the boundary
kernels must be harmonic off the base point with the right total mass. All
checks are exact rational arithmetic.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurmartin.chains import verify_stationary
from recurmartin.errors import UnsupportedBasePointError
from recurmartin.examplechains import (
    BangBangWalk,
    HalfLineEnd,
    KaryTree,
    LineEnd,
    TreeRay,
    Z2Walk,
    ZWalk,
    chain_from_selector,
)

CLOSED_FORM_CHAINS = [ZWalk(), BangBangWalk(Fraction(1, 3)), KaryTree(2), KaryTree(3)]


def ids(chain):
    return chain.name


# ---------------------------------------------------------------------------
# Killed Green function


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_green_one_step_recursion(chain):
    """G(x, y) = [x == y] + sum_z p(x, z) G(z, y) with the z = x0 term killed."""
    x0 = chain.base_point
    states = chain.window(4)
    for y in states:
        for x in states:
            expected = Fraction(1 if x == y else 0)
            for z, p in chain.successors(x):
                if z != x0:
                    expected += p * chain.exact_green(z, y)
            assert chain.exact_green(x, y) == expected, (x, y)


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_green_base_row_is_stationary_ratio(chain):
    x0 = chain.base_point
    for y in chain.window(5):
        assert chain.exact_green(x0, y) == chain.stationary(y) / chain.stationary(x0)


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_green_base_column_is_indicator(chain):
    x0 = chain.base_point
    for x in chain.window(4):
        assert chain.exact_green(x, x0) == (1 if x == x0 else 0)


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_closed_forms_reject_other_base_points(chain):
    other = next(s for s in chain.window(2) if s != chain.base_point)
    with pytest.raises(UnsupportedBasePointError):
        chain.exact_green(other, other, base=other)


def test_green_values_z():
    chain = ZWalk()
    assert chain.exact_green(1, 1) == 2
    assert chain.exact_green(3, 5) == 6
    assert chain.exact_green(5, 3) == 6
    assert chain.exact_green(-2, -7) == 4
    assert chain.exact_green(2, -3) == 0
    assert chain.exact_green(0, 9) == 1


def test_green_values_bangbang_third():
    chain = BangBangWalk(Fraction(1, 3))
    # a = 2, 1 - 2q = 1/3
    assert chain.exact_green(2, 2) == Fraction(3 * (4 - 1), 4)  # (a^2-1)/((1-2q) a^2)
    assert chain.exact_green(5, 2) == chain.exact_green(2, 2)
    assert chain.exact_green(1, 3) == Fraction(3, 8)
    assert chain.exact_green(0, 3) == Fraction(3, 8)


# ---------------------------------------------------------------------------
# Boundary kernels and profiles


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_boundary_kernel_is_green_ratio_far_out(chain):
    """Against targets deep enough, the visit ratio equals its limit exactly."""
    x0 = chain.base_point
    targets = {
        "z": [9, -9],
        "bangbang:q=1/3": [9],
        "tree:k=2": [(0,) * 9, (1, 0, 0, 0, 0, 0, 0, 0)],
        "tree:k=3": [(2,) * 9],
    }[chain.name]
    for y in targets:
        alpha = _boundary_toward(chain, y)
        for x in chain.window(3):
            ratio = chain.exact_green(x, y) / chain.exact_green(x0, y)
            assert chain.exact_boundary_kernel(x, alpha) == ratio, (x, y)


def _boundary_toward(chain, y):
    if chain.name == "z":
        return LineEnd(1 if y > 0 else -1)
    if chain.name.startswith("bangbang"):
        return HalfLineEnd()
    return TreeRay((), y[-1:]) if len(set(y)) == 1 else TreeRay(y, (0,))


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_profile_vanishes_at_base_and_is_harmonic_elsewhere(chain):
    x0 = chain.base_point
    for alpha in _sample_boundary(chain):
        assert chain.exact_profile(x0, alpha) == 0
        for x in chain.window(4):
            if x == x0:
                continue
            mean = sum(p * chain.exact_profile(z, alpha) for z, p in chain.successors(x))
            assert chain.exact_profile(x, alpha) == mean, x


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_profile_mass_at_base_is_inverse_stationary_weight(chain):
    x0 = chain.base_point
    for alpha in _sample_boundary(chain):
        mass = sum(p * chain.exact_profile(z, alpha) for z, p in chain.successors(x0))
        assert mass == 1 / chain.stationary(x0)


def _sample_boundary(chain):
    if chain.name.startswith("tree"):
        return [TreeRay((), (0,)), TreeRay((0,), (1,))]
    return chain.boundary_points()


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_profile_is_kernel_over_base_weight(chain):
    x0 = chain.base_point
    for alpha in _sample_boundary(chain):
        for x in chain.window(4):
            if x == x0:
                continue
            expected = chain.exact_boundary_kernel(x, alpha) / chain.stationary(x0)
            assert chain.exact_profile(x, alpha) == expected


def test_kernel_at_base_point_is_one():
    for chain in CLOSED_FORM_CHAINS:
        for alpha in _sample_boundary(chain):
            assert chain.exact_boundary_kernel(chain.base_point, alpha) == 1


# ---------------------------------------------------------------------------
# Stationary measures


@settings(max_examples=30, deadline=None)
@given(num=st.integers(min_value=1, max_value=20), den=st.integers(min_value=3, max_value=50))
def test_bangbang_stationary_for_many_drifts(num, den):
    q = Fraction(num, den)
    if not (0 < q < Fraction(1, 2)):
        q = Fraction(1, den + 2)
    chain = BangBangWalk(q)
    assert verify_stationary(chain, chain.window(6)).all_ok


@pytest.mark.parametrize("k", [2, 3, 5])
def test_tree_stationary(k):
    chain = KaryTree(k)
    assert verify_stationary(chain, chain.window(4)).all_ok


# ---------------------------------------------------------------------------
# State and boundary text forms


@settings(max_examples=50, deadline=None)
@given(x=st.integers(min_value=-10**6, max_value=10**6))
def test_z_state_round_trip(x):
    chain = ZWalk()
    assert chain.parse_state(chain.format_state(x)) == x


@settings(max_examples=50, deadline=None)
@given(a=st.integers(min_value=-1000, max_value=1000), b=st.integers(min_value=-1000, max_value=1000))
def test_z2_state_round_trip(a, b):
    chain = Z2Walk()
    assert chain.parse_state(chain.format_state((a, b))) == (a, b)


@settings(max_examples=50, deadline=None)
@given(node=st.lists(st.integers(min_value=0, max_value=1), max_size=8).map(tuple))
def test_tree_state_round_trip(node):
    chain = KaryTree(2)
    assert chain.parse_state(chain.format_state(node)) == node


def test_tree_state_text_forms():
    chain = KaryTree(2)
    assert chain.format_state(()) == "@"
    assert chain.format_state((0, 1, 1)) == "0.1.1"
    assert chain.parse_state("@") == ()
    assert chain.parse_state("0.1.1") == (0, 1, 1)
    with pytest.raises(ValueError):
        chain.parse_state("0.2")


def test_tree_ray_parsing():
    ray = TreeRay.parse("0.1(0)*")
    assert ray.prefix == (0, 1) and ray.period == (0,)
    assert str(ray) == "0.1(0)*"
    assert TreeRay.parse("(0)*") == TreeRay((), (0,))
    assert [ray.digit(i) for i in range(6)] == [0, 1, 0, 0, 0, 0]
    assert ray.agreement((0,)) == 1
    assert ray.agreement((0, 1)) == 2
    assert ray.agreement((0, 1, 0, 0)) == 4
    assert ray.agreement((1,)) == 0
    assert ray.agreement((0, 0)) == 1
    with pytest.raises(ValueError):
        TreeRay.parse("0.1.0")
    with pytest.raises(ValueError):
        KaryTree(2).parse_boundary("0.3(0)*")


def test_boundary_parsing():
    z = ZWalk()
    assert z.parse_boundary("+inf") == LineEnd(1)
    assert z.parse_boundary("-inf") == LineEnd(-1)
    with pytest.raises(ValueError):
        z.parse_boundary("ray")
    bb = BangBangWalk()
    assert bb.parse_boundary("inf") == HalfLineEnd()
    with pytest.raises(ValueError):
        Z2Walk().parse_boundary("+inf")


def test_chain_selectors():
    assert chain_from_selector("z").name == "z"
    assert chain_from_selector("z2").name == "z2"
    assert chain_from_selector("bangbang").q == Fraction(1, 3)
    assert chain_from_selector("bangbang:q=2/5").q == Fraction(2, 5)
    assert chain_from_selector("tree:k=3").k == 3
    with pytest.raises(ValueError):
        chain_from_selector("pentagon")
    with pytest.raises(ValueError):
        chain_from_selector("tree:q=1/3")
    with pytest.raises(ValueError):
        chain_from_selector("bangbang:q=2/3")


# ---------------------------------------------------------------------------
# Structure helpers


def test_windows():
    assert ZWalk().window(3) == [-3, -2, -1, 0, 1, 2, 3]
    assert BangBangWalk().window(3) == [0, 1, 2, 3]
    tree = KaryTree(2).window(3)
    assert len(tree) == 15 and len(set(tree)) == 15
    plane = Z2Walk().window(2)
    assert len(plane) == 25 and len(set(plane)) == 25


@pytest.mark.parametrize("radius", range(13))
def test_plane_window_is_in_state_key_order(radius):
    plane = Z2Walk()
    side = range(-radius, radius + 1)
    window = plane.window(radius)
    assert window == sorted(((a, b) for a in side for b in side), key=plane.state_key)
    assert all(type(c) is int for s in window for c in s)
    assert len(window) == plane.window_size(radius)


@pytest.mark.parametrize(
    "chain", [ZWalk(), BangBangWalk(), KaryTree(2), KaryTree(3), KaryTree(5), Z2Walk()]
)
def test_window_size_counts_the_window(chain):
    for radius in range(5):
        assert chain.window_size(radius) == len(chain.window(radius))


def test_separating():
    z = ZWalk()
    assert z.separating(2, 5, 0)
    assert z.separating(0, 5, 0)
    assert not z.separating(-1, 5, 0)
    assert not z.separating(6, 5, 0)
    tree = KaryTree(2)
    assert tree.separating((0,), (0, 1, 1), ())
    assert tree.separating((), (0, 1), (1,))
    assert not tree.separating((1,), (0, 1, 1), ())
    assert not Z2Walk().separating((1, 0), (2, 0), (0, 0))


def test_bad_constructions():
    with pytest.raises(ValueError):
        BangBangWalk(Fraction(1, 2))
    with pytest.raises(ValueError):
        BangBangWalk(Fraction(0))
    with pytest.raises(ValueError):
        KaryTree(1)
