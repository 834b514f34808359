"""Tests for boundary-point profiles, mixtures, and line decomposition.

Verification strategy: profiles have hand closed forms on every example
chain, asserted exactly; harmonicity off the base and the one-step balance
at the base are re-derived from raw transition rows by an independent
checker; the two-end decomposition on the integer line must round-trip
arbitrary nonnegative mixtures and reject anything outside the cone.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurmartin.chains import step_distribution
from recurmartin.errors import NotInConeError, UnsupportedBasePointError
from recurmartin.examplechains import (
    ROOT,
    BangBangWalk,
    HalfLineEnd,
    KaryTree,
    LineEnd,
    TreeRay,
    Z2Walk,
    ZWalk,
    exact_martin_boundary,
)
from recurmartin.green import Truncation, green_solve
from recurmartin.martin import (
    BoundaryMixture,
    HarmonicProfile,
    check_harmonic_except,
    decompose_profile_z,
    kernel_sum_array,
    mixture_profile,
    profile_from_boundary,
)

Z = ZWalk()
BB = BangBangWalk()
TREE = KaryTree(2)
TREE3 = KaryTree(3)
PLANE = Z2Walk()

PLUS = LineEnd(1)
MINUS = LineEnd(-1)
LEFT_RAY = TreeRay.parse("(0)*")


# ---------------------------------------------------------------------------
# Profile values


def test_line_end_profiles_closed_form():
    plus = profile_from_boundary(Z, 0, PLUS)
    minus = profile_from_boundary(Z, 0, MINUS)
    for x in range(-30, 31):
        assert plus(x) == 2 * max(x, 0)
        assert minus(x) == 2 * max(-x, 0)


def test_line_profile_translates_with_the_base():
    shifted = profile_from_boundary(Z, 3, PLUS)
    for x in range(-10, 15):
        assert shifted(x) == 2 * max(x - 3, 0)
    assert shifted(3) == 0


def test_halfline_profile_closed_form():
    phi = profile_from_boundary(BB, 0, HalfLineEnd())
    for x in range(0, 10):
        assert phi(x) == 4 * (2**x - 1)


def test_halfline_profile_general_drift():
    chain = BangBangWalk(Fraction(2, 5))
    phi = profile_from_boundary(chain, 0, HalfLineEnd())
    beta0 = chain.stationary(0)
    for x in range(1, 8):
        assert phi(x) == chain.exact_boundary_kernel(x, HalfLineEnd()) / beta0


@pytest.mark.parametrize("tree", [TREE, TREE3])
def test_tree_profile_counts_ray_agreement(tree):
    phi = profile_from_boundary(tree, ROOT, LEFT_RAY)
    k = tree.k
    cases = {
        ROOT: 0,
        (0,): k - 1,
        (0, 0): k**2 - 1,
        (0, 0, 0): k**3 - 1,
        (1,): 0,
        (0, 1): k - 1,
        (0, 1, 0): k - 1,
    }
    for node, expected in cases.items():
        assert phi(node) == expected


def test_profile_vanishes_at_base_regardless_of_fn():
    phi = HarmonicProfile(base_point=0, fn=lambda x: Fraction(99))
    assert phi.evaluate(0) == 0
    assert phi(5) == 99


# ---------------------------------------------------------------------------
# Harmonicity and base balance


@pytest.mark.parametrize(
    "chain,x0,alpha,radius,mass",
    [
        (Z, 0, PLUS, 20, Fraction(1)),
        (BB, 0, HalfLineEnd(), 20, Fraction(4)),
        (TREE, ROOT, LEFT_RAY, 5, Fraction(1, 2)),
    ],
)
def test_profiles_harmonic_off_base_with_expected_mass(chain, x0, alpha, radius, mass):
    phi = profile_from_boundary(chain, x0, alpha)
    report = check_harmonic_except(chain, phi, x0, chain.window(radius))
    assert report.all_ok
    assert report.balance_at_base == mass
    assert report.checked == len(chain.window(radius)) - 1


def test_harmonicity_checker_catches_violations():
    report = check_harmonic_except(
        Z, lambda x: Fraction(x) ** 2, 0, Z.window(10)
    )
    assert not report.all_ok
    assert len(report.violations) == 20
    # the one-step average of x^2 exceeds x^2 by exactly 1 everywhere
    assert all(residual == 1 for _, residual in report.violations)


@pytest.mark.parametrize(
    "chain, x0, radius, phi",
    [
        (PLANE, (0, 0), 4, lambda s: (0.1 * s[0] + 0.37 * s[1]) ** 2 / 3),
        (TREE, ROOT, 4, lambda s: 0.1 * len(s) + 0.3 * sum(s) if s else Fraction(0)),
        (BB, 0, 9, lambda x: 1.1**x / 7),
    ],
)
def test_float_profile_residuals_match_the_per_state_sums(chain, x0, radius, phi):
    """A float-valued phi keeps the per-state residuals bit for bit: each
    average is summed from Fraction(0) in canonical state order."""
    window = chain.window(radius)
    report = check_harmonic_except(chain, phi, x0, window)
    averages = {
        x: sum((p * phi(t) for t, p in step_distribution(chain, x)), Fraction(0))
        for x in window
    }
    expected = [(x, averages[x] - phi(x)) for x in window if x != x0]
    assert report.violations == [(x, r) for x, r in expected if r != 0]
    assert report.violations and all(type(r) is float for _, r in report.violations)
    assert report.balance_at_base == averages[x0]


# ---------------------------------------------------------------------------
# Mixtures


def test_mixture_weights_must_be_nonnegative():
    with pytest.raises(ValueError):
        BoundaryMixture([(PLUS, Fraction(-1))])


def test_mixture_total_mass():
    mixture = BoundaryMixture([(PLUS, 3), (MINUS, Fraction(1, 2))])
    assert mixture.total_mass == Fraction(7, 2)


def test_mixture_profile_is_weighted_kernel_sum():
    mixture = BoundaryMixture([(PLUS, 3), (MINUS, 5)])
    phi = mixture_profile(Z, 0, mixture)
    for x in range(-12, 13):
        assert phi(x) == 6 * max(x, 0) + 10 * max(-x, 0)


def test_mixture_balance_equals_total_mass():
    mixture = BoundaryMixture([(PLUS, 3), (MINUS, 5)])
    phi = mixture_profile(Z, 0, mixture)
    report = check_harmonic_except(Z, phi, 0, Z.window(15))
    assert report.all_ok
    assert report.balance_at_base == 8


# ---------------------------------------------------------------------------
# Kernel-sum array forms


def kernel_sum_window(data):
    """A chain, a window's code table and codes, its base and boundary points."""
    law = data.draw(st.sampled_from(["line", "halfline", "tree"]), "law")
    if law == "line":
        table, codes = Z.code_window(data.draw(st.integers(1, 40), "radius"))
        return Z, table, codes, data.draw(st.sampled_from([0, 3, -3]), "base"), [PLUS, MINUS]
    if law == "halfline":
        chain = BangBangWalk(data.draw(st.sampled_from([Fraction(1, 3), Fraction(2, 5)]), "q"))
        # past x = 62 the numerators leave int64
        table, codes = chain.code_window(data.draw(st.sampled_from([1, 7, 30, 62, 70]), "radius"))
        return chain, table, codes, 0, [HalfLineEnd()]
    tree = data.draw(st.sampled_from([TREE, TREE3]), "tree")
    rays = [tree.parse_boundary(t) for t in ("(0)*", "(0.1)*", "1(0)*", "0.1(0)*")]
    # the subtree below a node of depth <= 2: anchored above the root
    # unless the node is the root itself
    top = data.draw(st.sampled_from(tree.window(2)), "subtree")
    states = [top + s for s in tree.window(data.draw(st.integers(0, 3), "radius"))]
    table = tree.code_table(states)
    return tree, table, table.encode(states), ROOT, rays


class _OwnKernel(ZWalk):
    def exact_boundary_kernel(self, x, alpha, base=0):
        return super().exact_boundary_kernel(x, alpha, base)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernel_sum_array_is_the_kernel_sum_at_every_window_state(data):
    chain, table, codes, base, alphas = kernel_sum_window(data)
    weight = st.sampled_from([1, Fraction(2, 3), 5, Fraction(1, 7), 0])
    atoms = data.draw(st.lists(st.tuples(st.sampled_from(alphas), weight), min_size=1, max_size=3))
    r = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]), "r")
    constant = data.draw(st.sampled_from([0, r / (1 - r)]), "constant")
    divisor = data.draw(st.sampled_from([1, chain.stationary(base)]), "divisor")

    def value(x):  # the per-state value, the kernel read as 0 at the base
        ells = [0 if x == base else exact_martin_boundary(chain, base, x, a) for a, _ in atoms]
        return (constant + sum(w * ell for (_, w), ell in zip(atoms, ells))) / divisor

    nums, den = kernel_sum_array(chain, base, atoms, constant, divisor)(table, codes)
    assert [Fraction(int(n), den) for n in nums] == [value(x) for x in table.decode(codes)]
    # a subclass's own kernel has no array form
    assert kernel_sum_array(_OwnKernel(), 0, [(PLUS, 1)], constant) is None


# ---------------------------------------------------------------------------
# Two-end decomposition on the line


def test_decompose_pure_ends():
    plus = profile_from_boundary(Z, 0, PLUS)
    mixture = decompose_profile_z(plus)
    assert dict(mixture.atoms) == {PLUS: 1, MINUS: 0}


@settings(max_examples=30, deadline=None)
@given(
    a=st.fractions(min_value=0, max_value=9, max_denominator=20),
    b=st.fractions(min_value=0, max_value=9, max_denominator=20),
)
def test_decompose_round_trips_arbitrary_mixtures(a, b):
    phi = mixture_profile(Z, 0, BoundaryMixture([(PLUS, a), (MINUS, b)]))
    recovered = decompose_profile_z(phi, radius=20)
    assert dict(recovered.atoms) == {PLUS: a, MINUS: b}


def lambda_profile(fn):
    return HarmonicProfile(base_point=0, fn=lambda x: Fraction(fn(x)))


def test_decompose_accepts_absolute_value():
    recovered = decompose_profile_z(lambda_profile(abs))
    assert dict(recovered.atoms) == {PLUS: Fraction(1, 2), MINUS: Fraction(1, 2)}


def test_decompose_rejects_out_of_cone_profiles():
    with pytest.raises(NotInConeError):
        decompose_profile_z(lambda_profile(lambda x: x * x))
    with pytest.raises(NotInConeError):
        decompose_profile_z(lambda_profile(lambda x: -2 * max(x, 0)))
    off_base = HarmonicProfile(base_point=2, fn=lambda x: Fraction(0))
    with pytest.raises(NotInConeError):
        decompose_profile_z(off_base)


# ---------------------------------------------------------------------------
# Unsupported bases and boundaries


def test_plane_has_no_kernel_closed_form():
    with pytest.raises(UnsupportedBasePointError):
        profile_from_boundary(PLANE, (0, 0), None)((1, 0))


def test_noncanonical_bases_give_the_window_solve():
    # off the root, phi(x) is the visit ratio toward a target deep along
    # the end, over beta(x0), from the exact loop-window solve
    for chain, x0, alpha, xs, far in (
        (BB, 2, HalfLineEnd(), [0, 3, 5], 8),
        (TREE, (0,), LEFT_RAY, [ROOT, (1,), (0, 0), (0, 1, 1)], (0,) * 5),
    ):
        pairs = [(x, far) for x in [x0, *xs]]
        g0, *gs = green_solve(chain, x0, pairs, Truncation(radius=8), exact=True)
        phi = profile_from_boundary(chain, x0, alpha)
        assert [phi(x) for x in xs] == [g.value / g0.value / chain.stationary(x0) for g in gs]
