"""Closed forms of the built-in chains, checked against exact identities.

The killed Green function row G(x0, .) must reproduce the stationary-measure
ratio, the full array must satisfy its one-step recursion, and the boundary
kernels must be harmonic off the base point with the right total mass. All
checks are exact rational arithmetic.
"""
import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurmartin import chains as chains_module
from recurmartin import examplechains as examplechains_module
from recurmartin.chains import distribution_after, kernel_array, verify_stationary
from recurmartin.examplechains import (
    ROOT,
    BangBangWalk,
    HalfLineEnd,
    KaryTree,
    LineEnd,
    TreeRay,
    Z2Walk,
    ZWalk,
    chain_from_selector,
    plane_coordinates,
)
from recurmartin.green import Truncation, green_solve
from recurmartin.potential import potential_table

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


#: Bases off the root, and targets deep along an end beyond every state of
#: ``window(2)`` and those bases
OTHER_BASES = {
    "z": ([3, -2], [6, -6]),
    "bangbang:q=1/3": ([2, 4], [6]),
    "tree:k=2": ([(0,), (1, 0)], [(0,) * 4, (1,) * 4]),
    "tree:k=3": ([(2,)], [(2,) * 4, (0,) * 4]),
}


@pytest.mark.parametrize("chain", CLOSED_FORM_CHAINS, ids=ids)
def test_closed_forms_at_other_base_points_are_the_window_solve(chain):
    """Off the root, G is the exact loop-window solve (frontier loops are
    exact on these laws) and the kernel the visit ratio toward a deep
    target, both at the base and at every state of the window."""
    bases, far = OTHER_BASES[chain.name]
    for base in bases:
        states = chain.sorted_states({base, *chain.window(2)})
        pairs = [(x, y) for x in states for y in [*states, *far]]
        solved = green_solve(chain, base, pairs, Truncation(radius=8), exact=True)
        green = {pair: res.value for pair, res in zip(pairs, solved)}
        assert all(chain.exact_green(x, y, base) == g for (x, y), g in green.items())
        for y in far:
            alpha = _boundary_toward(chain, y)
            for x in states:
                ratio = green[x, y] / green[base, y]
                assert chain.exact_boundary_kernel(x, alpha, base) == ratio, (base, x, y)


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
# Array forms of the kernels: whole code arrays in integers


ARRAY_KERNEL_LAWS = {
    "z": ZWalk(),
    "bangbang:q=1/3": BangBangWalk(Fraction(1, 3)),
    "bangbang:q=2/5": BangBangWalk(Fraction(2, 5)),
    "tree:k=2": KaryTree(2),
    "tree:k=3": KaryTree(3),
}


def kernel_window(chain, data):
    """A window's code table and codes, a boundary point and a base."""
    if isinstance(chain, ZWalk):
        table, codes = chain.code_window(data.draw(st.integers(1, 40), "radius"))
        return table, codes, data.draw(st.sampled_from([LineEnd(1), LineEnd(-1)])), (
            data.draw(st.integers(-45, 45), "base")
        )
    if isinstance(chain, BangBangWalk):
        # past x = 62 the numerators leave int64
        table, codes = chain.code_window(data.draw(st.sampled_from([1, 7, 30, 62, 70]), "radius"))
        return table, codes, HalfLineEnd(), data.draw(st.integers(0, 75), "base")
    rays = ["(0)*", "(01)*", "(0.1)*", "1(0)*", "0.1(0)*"]
    ray = chain.parse_boundary(data.draw(st.sampled_from(rays)))
    # the subtree below a node of depth <= 2: a table anchored above the root
    # unless the node is the root itself
    top = data.draw(st.sampled_from(chain.window(2)), "subtree")
    states = [top + s for s in chain.window(data.draw(st.integers(0, 3), "radius"))]
    table = chain.code_table(states)
    return table, table.encode(states), ray, data.draw(st.sampled_from(chain.window(3)), "base")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(law=st.sampled_from(sorted(ARRAY_KERNEL_LAWS)), data=st.data())
def test_array_kernel_is_the_kernel_at_every_window_state(law, data):
    chain = ARRAY_KERNEL_LAWS[law]
    table, codes, alpha, base = kernel_window(chain, data)
    nums, den = kernel_array(chain)(table, codes, alpha, base)
    got = [Fraction(int(n), den) for n in nums]
    assert got == [chain.exact_boundary_kernel(x, alpha, base) for x in table.decode(codes)]


@pytest.mark.parametrize("radius, dtype", [(62, np.int64), (63, object), (70, object)])
def test_half_line_kernel_array_leaves_int64_past_62(radius, dtype):
    chain = BangBangWalk(Fraction(1, 3))  # L(x) = 2^x - 1 over 1
    table, codes = chain.code_window(radius)
    nums, den = kernel_array(chain)(table, codes, HalfLineEnd(), 0)
    assert nums.dtype == dtype and den == 1
    assert [int(n) for n in nums] == [1] + [2**x - 1 for x in range(1, radius + 1)]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(radius=st.integers(1, 14))
def test_plane_numerator_arrays_are_the_table_numerators(radius):
    table = potential_table(radius)
    code_table, codes = Z2Walk().code_window(radius)
    ps, qs = table.numerator_arrays(*plane_coordinates(code_table, codes))
    want = [table.numerators(s) for s in code_table.decode(codes)]
    assert [(int(p), int(q)) for p, q in zip(ps, qs)] == want
    # a point outside the table is refused as ``numerators`` refuses it
    wider, wider_codes = Z2Walk().code_window(radius + 1)
    with pytest.raises(ValueError) as exc:
        table.numerator_arrays(*plane_coordinates(wider, np.sort(wider_codes)))
    first = wider.decode(np.sort(wider_codes))[0]
    assert str(exc.value) == f"point {first} outside the radius-{radius} table"


FORMULA_LAWS = {
    "z": ZWalk(),
    **{f"bangbang:q={q}": BangBangWalk(Fraction(q)) for q in ("1/3", "1/5", "2/5")},
    "tree:k=2": KaryTree(2),
    "tree:k=3": KaryTree(3),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(law=st.sampled_from(sorted(FORMULA_LAWS)), data=st.data())
def test_network_formula_is_the_window_solve_at_any_base(law, data):
    """At a random base: G is the exact loop-window solve, the kernel the
    visit ratio toward a target y deep along the end (past where every
    state drawn and the base leave it), and the array form the kernel."""
    chain = FORMULA_LAWS[law]
    tree = isinstance(chain, KaryTree)
    near = chain.window(2 if tree else 5)
    base = data.draw(st.sampled_from(near), "base")
    xs = data.draw(st.lists(st.sampled_from(near), min_size=1, max_size=5, unique=True), "xs")
    if tree:
        rays = ["(0)*", "(1)*", "0.1(0)*", "(0.1)*", "1(0)*"]
        alpha = chain.parse_boundary(data.draw(st.sampled_from(rays), "alpha"))
        y, radius = tuple(alpha.digit(i) for i in range(4)), 5
    else:
        alpha = data.draw(st.sampled_from(chain.boundary_points()), "alpha")
        y, radius = 8 * getattr(alpha, "sign", 1), 10
    pairs = [(x, t) for x in [base, *xs] for t in [y, *xs]]
    solved = green_solve(chain, base, pairs, Truncation(radius), exact=True)
    green = {pair: res.value for pair, res in zip(pairs, solved)}
    assert all(chain.exact_green(x, t, base) == g for (x, t), g in green.items())
    for x in xs:
        assert chain.exact_boundary_kernel(x, alpha, base) == green[x, y] / green[base, y]
    table, codes = chain.code_window(3)
    nums, den = kernel_array(chain)(table, codes, alpha, base)
    got = [Fraction(int(n), den) for n in nums]
    assert got == [chain.exact_boundary_kernel(x, alpha, base) for x in table.decode(codes)]


@pytest.mark.parametrize("law", sorted(FORMULA_LAWS))
def test_resistance_is_read_off_one_step_rows(monkeypatch, law):
    """rho grows by one row of ``successors`` per depth, with no n-step law:
    a copy of the chain under a class of its own, so with an empty table,
    reaches a deep state while ``distribution_after`` raises, and its rho is
    the running sum of 1 / (beta(u) P(u, v)) with each P read through
    ``distribution_after``, so its kernel and Green values are the chain's."""
    chain = FORMULA_LAWS[law]
    depth = {ZWalk: 3000, BangBangWalk: 300, KaryTree: 40}[type(chain)]
    rho = [Fraction(0)]
    for d in range(depth):
        u, v = chain.ray_node(d), chain.ray_node(d + 1)
        rho.append(rho[-1] + 1 / (chain.stationary(u) * distribution_after(chain, u, 1)[v]))
    x, alpha = chain.ray_node(depth), chain.boundary_points()[0]
    values = (chain.exact_boundary_kernel(x, alpha), chain.exact_green(x, x))

    def refuse(*args):
        raise AssertionError("an n-step law was computed")

    deep = copy.copy(chain)
    deep.__class__ = type(type(chain).__name__, (type(chain),), {})
    deep.__dict__.pop("_tables", None)
    for module, name in ((chains_module, "distribution_after"), (chains_module, "propagate"),
                         (examplechains_module, "distribution_after")):
        monkeypatch.setattr(module, name, refuse, raising=False)
    assert (deep.exact_boundary_kernel(x, alpha), deep.exact_green(x, x)) == values
    assert deep._resistance(depth)[: depth + 1] == rho


@pytest.mark.parametrize("chain, base", [(BangBangWalk(), 2), (KaryTree(2), (0,))])
def test_array_kernel_takes_the_bases_the_kernel_takes(chain, base):
    table, codes = chain.code_window(3)
    alpha = chain.boundary_points()[0]
    nums, den = kernel_array(chain)(table, codes, alpha, base)
    got = [Fraction(int(n), den) for n in nums]
    assert got == [chain.exact_boundary_kernel(x, alpha, base) for x in table.decode(codes)]
    assert got[table.decode(codes).index(base)] == 1 and min(got) == 0


class _OwnKernel(ZWalk):
    def exact_boundary_kernel(self, x, alpha, base=0):
        return super().exact_boundary_kernel(x, alpha, base)


class _OwnLaw(ZWalk):
    def successors(self, x):
        return super().successors(x)


def test_array_kernel_belongs_to_the_law_class_own_kernel():
    assert kernel_array(ZWalk()) is not None
    assert kernel_array(_OwnKernel()) is None  # a subclass's own kernel
    assert kernel_array(_OwnLaw()) is None  # codes of another law's table
    assert kernel_array(Z2Walk()) is None  # no kernel at all
    own = ZWalk()
    own.exact_boundary_kernel = lambda x, alpha, base=0: Fraction(0)
    assert kernel_array(own) is None


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


def test_tree_ray_digits_are_dot_separated():
    # "01" is one digit, read as 1: the period-2 ray is written (0.1)*
    assert TreeRay.parse("(01)*") == TreeRay.parse("(1)*") == TreeRay((), (1,))
    ray = KaryTree(2).parse_boundary("(0.1)*")
    assert ray.prefix == () and ray.period == (0, 1)
    assert [ray.digit(i) for i in range(5)] == [0, 1, 0, 1, 0]


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
