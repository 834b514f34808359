"""Tests for the conditioned (tilted and damped) transform of a chain.

Verification strategy: the tilting weight and the transformed rows have
hand-derived closed forms on the example chains, asserted exactly; the
row-sum identity, the pathwise change-of-measure identity, and the map
between parent profiles and transformed-harmonic functions are algebraic
and checked in exact rational arithmetic, with a corrupted-kernel negative
control proving the checkers can fail; the ratio kernel is computed by two
independent routes (closed form vs the damped-visit linear system) that
must agree exactly; ensemble witnesses are smoke-checked at reduced scale
against coarse, seed-stable expectations.
"""
import bisect
import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from recurmartin.chains import distribution_after
from recurmartin.cli import render
from recurmartin.errors import PreconditionViolationError, RowSumViolationError
from recurmartin.examplechains import (
    ROOT,
    BangBangWalk,
    HalfLineEnd,
    KaryTree,
    LineEnd,
    TreeRay,
    Z2Walk,
    ZWalk,
    exact_green,
    exact_martin_boundary,
)
from recurmartin import htransform as htransform_module
from recurmartin.htransform import (
    _SPAN,
    _TRACKED_SPAN,
    TransformParams,
    TransformedChain,
    _Table,
    _excursion_cuts,
    _run_lane,
    _span_tails,
    _witness_draws,
    _witness_lane,
    convergence_stats,
    k_kernel,
    k_kernel_numeric,
    psi_weight,
    r_map,
    r_map_inverse,
    rn_identity_check,
    transformed_chain,
    transformed_green,
    transience_witness,
    verify_row_sums,
)
from recurmartin.martin import (
    BoundaryMixture,
    check_harmonic_except,
    mixture_profile,
    profile_from_boundary,
)
from recurmartin.rng import CONVERGENCE_WITNESS, _draw_cuts, counter_bits, stream_keys
from recurmartin.window import one_step_sums, propagate

Z = ZWalk()
BB = BangBangWalk()
TREE = KaryTree(2)
PLANE = Z2Walk()

HALF = Fraction(1, 2)
P_Z = TransformParams(0, LineEnd(1), HALF)
P_BB = TransformParams(0, HalfLineEnd(), HALF)
P_TREE = TransformParams(ROOT, TreeRay.parse("(0)*"), HALF)
P_PLANE = TransformParams((0, 0), None, HALF)

R_GRID = (Fraction(1, 4), HALF, Fraction(3, 4))


def fresh_params(params, r):
    return TransformParams(params.x0, params.alpha, r)


# ---------------------------------------------------------------------------
# Parameters


@pytest.mark.parametrize("bad", [0, 1, Fraction(3, 2), Fraction(-1, 2)])
def test_damping_must_be_strictly_between_zero_and_one(bad):
    with pytest.raises(ValueError):
        TransformParams(0, LineEnd(1), bad)


def test_damping_coerced_to_fraction():
    params = TransformParams(0, LineEnd(1), "1/3")
    assert params.r == Fraction(1, 3)
    assert params.odds == Fraction(1, 2)


# ---------------------------------------------------------------------------
# Tilting weight


def test_line_weight_closed_form():
    assert psi_weight(Z, P_Z, 0) == 1
    assert psi_weight(Z, P_Z, 3) == 7
    for x in range(-6, 7):
        assert psi_weight(Z, P_Z, x) == 1 + 2 * max(x, 0)


def test_halfline_weight_closed_form():
    assert psi_weight(BB, P_BB, 0) == 4
    for x in range(1, 7):
        assert psi_weight(BB, P_BB, x) == 4 * 2**x


@pytest.mark.parametrize("chain,params", [(Z, P_Z), (BB, P_BB), (TREE, P_TREE)])
@pytest.mark.parametrize("r", R_GRID)
def test_weight_at_base_is_damping_odds_over_base_mass(chain, params, r):
    params = fresh_params(params, r)
    expected = r / ((1 - r) * chain.stationary(params.x0))
    assert psi_weight(chain, params, params.x0) == expected


def test_weight_positive_on_windows():
    for chain, params, radius in ((Z, P_Z, 30), (BB, P_BB, 30), (TREE, P_TREE, 7)):
        assert all(psi_weight(chain, params, x) > 0 for x in chain.window(radius))


# ---------------------------------------------------------------------------
# Transformed rows


def test_line_rows_closed_form():
    chain = transformed_chain(Z, P_Z)
    assert dict(chain.successors(0)) == {1: Fraction(3, 4), -1: Fraction(1, 4)}
    for x in range(1, 9):
        row = dict(chain.successors(x))
        assert row[x + 1] == Fraction(2 * x + 3, 4 * x + 2)
        assert row[x - 1] == Fraction(2 * x - 1, 4 * x + 2)
    for x in range(-8, 0):
        assert dict(chain.successors(x)) == {x + 1: HALF, x - 1: HALF}


def test_halfline_rows_closed_form():
    chain = transformed_chain(BB, P_BB)
    assert dict(chain.successors(0)) == {1: Fraction(1)}
    for x in range(1, 8):
        row = dict(chain.successors(x))
        assert row[x + 1] == Fraction(2, 3)
        assert row[x - 1] == Fraction(1, 3)


def test_transformed_chain_delegates_structure():
    chain = transformed_chain(Z, P_Z)
    assert chain.base_point == 0
    assert chain.loop_truncation_exact is False
    assert chain.window(4) == Z.window(4)
    assert chain.format_state(-3) == "-3"
    assert chain.parse_state("7") == 7
    assert chain.state_key(5) == Z.state_key(5)
    assert chain.separating(1, 3, 0) == Z.separating(1, 3, 0)
    with pytest.raises(NotImplementedError):
        chain.stationary(0)


def test_transformed_chain_reports_parent_geometry():
    chain = transformed_chain(TREE, P_TREE)
    assert chain.norm((0, 1, 0)) == TREE.norm((0, 1, 0)) == 3
    assert (chain.radius_margin, chain.check_radius, chain.path_separator) == (
        TREE.radius_margin, TREE.check_radius, TREE.path_separator,
    ) == (2, 7, "/")
    # the tree's closed-form window size, so a budget check builds nothing
    assert chain.window_size(30) == TREE.window_size(30) == 2**31 - 1


def test_transformed_predecessors_match_successor_entries():
    chain = transformed_chain(Z, P_Z)
    for y in range(-4, 5):
        for x, q in chain.predecessors(y):
            assert dict(chain.successors(x))[y] == q


def test_plane_has_no_rational_transformed_chain():
    with pytest.raises(NotImplementedError):
        transformed_chain(PLANE, P_PLANE)


# ---------------------------------------------------------------------------
# Row-sum identity


@pytest.mark.parametrize("chain,params,radius", [(Z, P_Z, 50), (BB, P_BB, 50), (TREE, P_TREE, 9)])
@pytest.mark.parametrize("r", R_GRID)
def test_row_sums_exact_on_windows(chain, params, radius, r):
    report = verify_row_sums(chain, fresh_params(params, r), radius)
    assert report.all_ok
    assert report.checked == len(chain.window(radius))


@pytest.mark.parametrize("r", R_GRID)
def test_plane_row_sums_exact_in_pi_rational_arithmetic(r):
    report = verify_row_sums(PLANE, fresh_params(P_PLANE, r), 12)
    assert report.all_ok
    assert report.checked == 25 * 25


@settings(max_examples=25, deadline=None)
@given(num=st.integers(1, 9), den=st.integers(2, 10), pick=st.integers(0, 2))
def test_row_sums_hold_for_arbitrary_damping(num, den, pick):
    if num >= den:
        num, den = den - 1, max(num, den)
    chain, params, radius = (
        (Z, P_Z, 8),
        (BB, P_BB, 8),
        (TREE, P_TREE, 4),
    )[pick]
    report = verify_row_sums(chain, fresh_params(params, Fraction(num, den)), radius)
    assert report.all_ok


@pytest.mark.parametrize("part", ["rational", "pi"])
def test_plane_row_sums_catch_a_corrupted_table_entry(monkeypatch, part):
    # one octant entry moved by 1 (or 1/pi): its eight images and their
    # neighbours break the row identity in that part alone
    from recurmartin import potential

    build = potential.potential_table

    def corrupted(radius):
        table = build(radius)
        (table._p if part == "rational" else table._q)[3][1] += table.scale
        return table

    monkeypatch.setattr(potential, "potential_table", corrupted)
    report = verify_row_sums(PLANE, P_PLANE, 6)
    bad = {state for state, _ in report.violations}
    assert {"3,1", "-1,3", "2,1", "3,0", "4,1"} <= bad
    assert "0,0" not in bad and "6,6" not in bad


@pytest.mark.parametrize("radius", [4, 8, 10])
@pytest.mark.parametrize("part", [None, "rational", "pi"])
def test_plane_row_sums_step_once_for_both_parts(monkeypatch, radius, part):
    # both integer parts of psi's numerators share one code-table step, and
    # the report equals the one of a step per part, violations included
    from recurmartin import examplechains, potential

    build = potential.potential_table

    def table_of(radius):
        table = build(radius)
        if part is not None:
            (table._p if part == "rational" else table._q)[3][1] += table.scale
        return table

    monkeypatch.setattr(potential, "potential_table", table_of)
    steps = []
    plane_step = examplechains._PlaneTable.step
    monkeypatch.setattr(
        examplechains._PlaneTable,
        "step",
        lambda self, codes: steps.append(1) or plane_step(self, codes),
    )
    one = verify_row_sums(PLANE, P_PLANE, radius)
    assert len(steps) == 1
    monkeypatch.setattr(
        htransform_module,
        "one_step_sums_each",
        lambda chain, states, fs: [one_step_sums(chain, states, f) for f in fs],
    )
    two = verify_row_sums(PLANE, P_PLANE, radius)
    assert len(steps) == 3
    assert one.checked == two.checked == (2 * radius + 1) ** 2
    assert one.violations == two.violations
    assert bool(one.violations) == (part is not None)


class _NonHarmonicKernel(ZWalk):
    """Negative control: a corrupted boundary kernel (x^2 is not harmonic)."""

    def exact_boundary_kernel(self, x, alpha, base=0):
        return Fraction(x * x)


def test_row_sum_checks_catch_a_corrupted_kernel():
    corrupted = _NonHarmonicKernel()
    params = TransformParams(0, LineEnd(1), HALF)
    report = verify_row_sums(corrupted, params, 6)
    assert not report.all_ok
    with pytest.raises(RowSumViolationError):
        TransformedChain(corrupted, params).successors(2)


class _BentHalfLineKernel(BangBangWalk):
    """Negative control: the half-line kernel with its value at 3 moved by 1/7."""

    def exact_boundary_kernel(self, x, alpha, base=0):
        bump = Fraction(1, 7) if x == 3 else 0
        return super().exact_boundary_kernel(x, alpha, base) + bump


class _BentTreeKernel(KaryTree):
    """Negative control: the tree kernel with its value at 01 moved by 1/5."""

    def exact_boundary_kernel(self, x, alpha, base=ROOT):
        bump = Fraction(1, 5) if x == (0, 1) else 0
        return super().exact_boundary_kernel(x, alpha, base) + bump


BENT = {
    "line": (_NonHarmonicKernel(), P_Z, 6, 2),
    "halfline": (_BentHalfLineKernel(), P_BB, 6, 3),
    "tree": (_BentTreeKernel(2), P_TREE, 3, (0, 1)),
}


@pytest.mark.parametrize("law", sorted(BENT))
def test_row_sum_checks_of_every_rational_law_catch_a_corrupted_kernel(law):
    # every violating state and detail is pinned with the reports below
    chain, params, radius, bad = BENT[law]
    report = verify_row_sums(chain, params, radius)
    assert chain.format_state(bad) in {state for state, _ in report.violations}
    with pytest.raises(RowSumViolationError):
        TransformedChain(chain, params).successors(bad)


def count_kernel_calls(monkeypatch, *more):
    """Record every state the kernels of the built-in laws and of the
    classes ``more``, and the potential table's ``numerators``, are called at."""
    from recurmartin.potential import PotentialTable

    calls = []
    kernels = [(cls, "exact_boundary_kernel") for cls in (ZWalk, BangBangWalk, KaryTree, *more)]
    for cls, name in [*kernels, (PotentialTable, "numerators")]:
        method = getattr(cls, name)
        monkeypatch.setattr(
            cls, name,
            lambda self, x, *args, method=method, **kw: calls.append(x) or method(self, x, *args, **kw),
        )
    return calls


@pytest.mark.parametrize("chain, params, radius", [
    (Z, P_Z, 15), (BB, P_BB, 15), (TREE, P_TREE, 5), (PLANE, P_PLANE, 8),
    (KaryTree(3), TransformParams(ROOT, TreeRay.parse("0.1(0)*"), HALF), 3),
], ids=["line", "halfline", "tree", "plane", "tree3"])
def test_exact_checks_call_no_kernel_per_state_on_the_built_in_laws(monkeypatch, chain, params, radius):
    calls = count_kernel_calls(monkeypatch)
    assert verify_row_sums(chain, params, radius).all_ok
    if params.alpha is not None:
        window = chain.window(radius)
        mixture = BoundaryMixture([(params.alpha, Fraction(2, 3)), (chain.boundary_points()[-1], 5)])
        for phi in (profile_from_boundary(chain, params.x0, params.alpha),
                    mixture_profile(chain, params.x0, mixture)):
            assert check_harmonic_except(chain, phi, params.x0, window).all_ok
    assert calls == []


@pytest.mark.parametrize("law", sorted(BENT))
def test_exact_checks_call_a_subclass_kernel_per_state(monkeypatch, law):
    chain, params, radius, bad = BENT[law]
    calls = count_kernel_calls(monkeypatch, type(chain))
    report = verify_row_sums(chain, params, radius)
    assert not report.all_ok and bad in calls
    calls.clear()
    phi = profile_from_boundary(chain, params.x0, params.alpha)
    check = check_harmonic_except(chain, phi, params.x0, chain.window(radius))
    assert bad in calls and check.violations


def test_a_user_callable_is_called_per_state():
    seen = []  # the x^2 negative control
    check = check_harmonic_except(Z, lambda s: seen.append(s) or Fraction(s) ** 2, 0, Z.window(8))
    assert sorted(seen) == list(range(-9, 10)) and len(check.violations) == 16


@pytest.mark.parametrize("chain, x0, alpha", [
    (BB, 2, HalfLineEnd()), (TREE, (0,), TreeRay.parse("(0)*")),
])
def test_array_paths_take_an_off_base_kernel(chain, x0, alpha):
    # off the root the array forms give the per-state values, harmonic off
    # the base, with the balances 1/beta(x0) and the mixture's mass there
    table, codes = chain.code_window(3)
    profile = profile_from_boundary(chain, x0, alpha)
    mixture = mixture_profile(chain, x0, BoundaryMixture([(alpha, Fraction(2, 3))]))
    for phi, balance in ((profile, 1 / chain.stationary(x0)), (mixture, Fraction(2, 3))):
        nums, den = phi.array_values(table, codes)
        assert [Fraction(int(n), den) for n in nums] == [phi(x) for x in table.decode(codes)]
        check = check_harmonic_except(chain, phi, x0, chain.window(3))
        assert check.all_ok and check.balance_at_base == balance
    assert verify_row_sums(chain, TransformParams(x0, alpha, HALF), 3).all_ok


# ---------------------------------------------------------------------------
# Kernel-derived values in integers: each equal, and of the same type, to
# the plain Fraction arithmetic it replaced


def plain_agreement(ray, node):
    j = 0
    for i, d in enumerate(node):
        if d != ray.digit(i):
            break
        j += 1
    return j


def plain_kernel(chain, x, alpha):
    """The built-in kernels as chains of normalising Fraction operations."""
    if type(chain) is ZWalk:
        v = x * alpha.sign
        return Fraction(1) if x == 0 else Fraction(2 * v) if v > 0 else Fraction(0)
    if type(chain) is BangBangWalk:
        if x == 0:
            return Fraction(1)
        return chain.q * (chain.alpha**x - 1) / (1 - 2 * chain.q)
    if x == ROOT:
        return Fraction(1)
    k = chain.k
    return Fraction(k * (k ** plain_agreement(alpha, x) - 1), k - 1)


def plain_profile(chain, x0, alpha, x):
    if x == x0:
        return Fraction(0)
    return exact_martin_boundary(chain, x0, x, alpha) / chain.stationary(x0)


def plain_mixture(chain, x0, atoms, x):
    if x == x0:
        return Fraction(0)
    return sum((w * exact_martin_boundary(chain, x0, x, alpha) for alpha, w in atoms), Fraction(0))


def plain_psi(chain, params, x):
    beta0 = chain.stationary(params.x0)
    if x == params.x0:
        return params.odds / beta0
    return (params.odds + exact_martin_boundary(chain, params.x0, x, params.alpha)) / beta0


class _FloatKernel(ZWalk):
    """A user kernel in floats toward +inf and in Fractions toward -inf."""

    def exact_boundary_kernel(self, x, alpha, base=0):
        ell = super().exact_boundary_kernel(x, alpha, base)
        return float(ell) / 3 if alpha.sign > 0 else ell


class _IntKernel(ZWalk):
    """A user chain whose kernel values and base weight are plain ints."""

    def stationary(self, x):
        return 1

    def exact_boundary_kernel(self, x, alpha, base=0):
        return int(super().exact_boundary_kernel(x, alpha, base))


VALUE_LAWS = {
    "z": Z,
    "bangbang:q=1/3": BangBangWalk(Fraction(1, 3)),
    "bangbang:q=1/4": BangBangWalk(Fraction(1, 4)),
    "bangbang:q=2/5": BangBangWalk(Fraction(2, 5)),
    "tree:k=2": TREE,
    "tree:k=3": KaryTree(3),
    **{f"bent {law}": chain for law, (chain, *_) in BENT.items()},
    "float kernel": _FloatKernel(),
    "int kernel": _IntKernel(),
}


def boundary_points(chain):
    if not isinstance(chain, KaryTree):
        return st.sampled_from(chain.boundary_points())
    digits = st.integers(0, chain.k - 1)
    return st.builds(
        lambda prefix, period: TreeRay(tuple(prefix), tuple(period)),
        st.lists(digits, max_size=3),
        st.lists(digits, min_size=1, max_size=3),
    )


def value_states(chain, rays):
    """States of the chain; tree nodes follow one of ``rays`` for a while."""
    if isinstance(chain, BangBangWalk):
        return st.integers(-3, 60)  # negative states are refused
    if not isinstance(chain, KaryTree):
        return st.integers(-60, 60)
    digits = st.integers(0, chain.k - 1)
    return st.builds(
        lambda ray, m, tail: tuple(ray.digit(i) for i in range(m)) + tuple(tail),
        st.sampled_from(rays),
        st.integers(0, 10),
        st.lists(digits, max_size=3),
    )


def assert_same_value(new, old):
    assert new == old and type(new) is type(old)


@settings(max_examples=300, deadline=None)
@given(law=st.sampled_from(sorted(VALUE_LAWS)), data=st.data())
def test_kernel_derived_values_equal_the_plain_fraction_arithmetic(law, data):
    chain = VALUE_LAWS[law]
    x0 = chain.base_point
    alphas = data.draw(st.lists(boundary_points(chain), min_size=1, max_size=3), "alphas")
    weights = st.fractions(0, 3, max_denominator=12)
    atoms = [(alpha, data.draw(weights, "weight")) for alpha in alphas]
    r = data.draw(st.fractions(0, 1, max_denominator=20).filter(lambda r: 0 < r < 1), "r")
    params = TransformParams(x0, alphas[0], r)
    profile = profile_from_boundary(chain, x0, alphas[0])
    mixture = mixture_profile(chain, x0, BoundaryMixture(atoms))
    states = [x0] + data.draw(st.lists(value_states(chain, alphas), min_size=1, max_size=6), "xs")
    for x in states:
        if isinstance(chain, BangBangWalk) and x < 0:  # not a state: every value refuses it
            for value in (profile, mixture, lambda x: psi_weight(chain, params, x)):
                with pytest.raises(ValueError, match=f"^{x} is not a half-line state$"):
                    value(x)
            continue
        assert_same_value(profile(x), plain_profile(chain, x0, alphas[0], x))
        assert_same_value(mixture(x), plain_mixture(chain, x0, atoms, x))
        assert_same_value(psi_weight(chain, params, x), plain_psi(chain, params, x))
        if law in {"z", "tree:k=2", "tree:k=3"} or law.startswith("bangbang"):
            for alpha in alphas:
                assert_same_value(
                    exact_martin_boundary(chain, x0, x, alpha), plain_kernel(chain, x, alpha)
                )


def test_float_and_int_kernels_keep_their_arithmetic():
    # the float end keeps float values, the int chain's profile int / int
    floats, ints = _FloatKernel(), _IntKernel()
    mixture = BoundaryMixture([(LineEnd(1), Fraction(1, 3)), (LineEnd(-1), Fraction(1, 2))])
    assert type(profile_from_boundary(floats, 0, LineEnd(1))(3)) is float
    assert type(mixture_profile(floats, 0, mixture)(-3)) is float
    assert type(psi_weight(floats, P_Z, 3)) is float
    assert type(profile_from_boundary(ints, 0, LineEnd(1))(3)) is float
    assert psi_weight(ints, P_Z, 3) == 7 and type(psi_weight(ints, P_Z, 3)) is Fraction


@pytest.mark.parametrize("law", sorted(BENT))
def test_integer_values_evaluate_the_subclass_kernel(law):
    chain, params, radius, _ = BENT[law]
    plain = {"line": Z, "halfline": BB, "tree": TREE}[law]
    mixture = BoundaryMixture([(params.alpha, Fraction(2, 3))])
    for make in (
        lambda c: profile_from_boundary(c, params.x0, params.alpha),
        lambda c: mixture_profile(c, params.x0, mixture),
        lambda c: lambda x: psi_weight(c, params, x),
    ):
        bent, kept = make(chain), make(plain)
        window = chain.window(radius)
        assert [bent(x) for x in window] != [kept(x) for x in window]


# ---------------------------------------------------------------------------
# Change-of-measure identity, pathwise


def test_one_step_reweighted_probabilities():
    chain = transformed_chain(Z, P_Z)
    # from the base, the step weight picks up one damping factor
    assert dict(chain.successors(0))[1] == HALF * psi_weight(Z, P_Z, 1) * HALF
    # away from the base it is a pure weight ratio
    assert dict(chain.successors(2))[3] == HALF * Fraction(7, 5)
    assert dict(chain.successors(2))[3] == Fraction(7, 10)


def test_two_step_path_weight_by_hand():
    chain = transformed_chain(Z, P_Z)
    lhs = dict(chain.successors(0))[1] * dict(chain.successors(1))[2]
    rhs = Fraction(1, 4) * psi_weight(Z, P_Z, 2) * HALF  # parent prob x weight x damping
    assert lhs == rhs == Fraction(5, 8)


@pytest.mark.parametrize(
    "chain,params,start,n",
    [
        (Z, P_Z, 0, 6),
        (Z, P_Z, 2, 6),
        (Z, P_Z, -1, 5),
        (BB, P_BB, 0, 6),
        (BB, P_BB, 1, 6),
        (TREE, P_TREE, ROOT, 5),
        (TREE, P_TREE, (0, 1), 4),
    ],
)
def test_change_of_measure_identity_exact(chain, params, start, n):
    report = rn_identity_check(chain, params, start, n)
    assert report.exact
    assert report.mismatches == 0
    assert report.max_discrepancy == 0
    assert report.paths_checked > 0


def test_change_of_measure_identity_trivial_at_horizon_zero():
    report = rn_identity_check(Z, P_Z, 3, 0)
    assert report.paths_checked == 1
    assert report.exact


@pytest.mark.parametrize("r", R_GRID)
def test_change_of_measure_identity_across_damping(r):
    assert rn_identity_check(Z, fresh_params(P_Z, r), 0, 4).exact


class _SwappedRow(TransformedChain):
    """The transformed line walk with its up and down entries swapped at 2.

    The row still sums to 1, so only the pathwise identity can notice."""

    def successors(self, x):
        moves = super().successors(x)
        if x != 2:
            return moves
        (down, p_down), (up, p_up) = moves
        return [(down, p_up), (up, p_down)]


def test_change_of_measure_identity_reports_a_corrupted_row(monkeypatch):
    monkeypatch.setattr(
        htransform_module, "transformed_chain", lambda chain, params: _SwappedRow(chain, params)
    )
    start, n = 1, 6
    report = rn_identity_check(Z, P_Z, start, n)
    # brute force: every path of the parent walk, each side as Fraction products
    bad = _SwappedRow(Z, P_Z)
    paths = [(start,)]
    for _ in range(n):
        paths = [w + (w[-1] + d,) for w in paths for d in (-1, 1)]
    gaps = []
    for w in paths:
        lhs = parent = Fraction(1)
        for a, b in zip(w, w[1:]):
            lhs *= dict(bad.successors(a))[b]
            parent *= dict(Z.successors(a))[b]
        visits = sum(1 for s in w[:-1] if s == P_Z.x0)
        rhs = parent * psi_weight(Z, P_Z, w[-1]) / psi_weight(Z, P_Z, start) * P_Z.r**visits
        gaps.append(abs(lhs - rhs))
    assert report.paths_checked == len(paths) == 64
    assert report.mismatches == sum(1 for g in gaps if g) > 0
    assert report.max_discrepancy == max(gaps) > 0
    assert not report.exact


# ---------------------------------------------------------------------------
# Ratio kernel of the transformed chain


def test_kernel_at_conditioning_point_is_one_on_window():
    for x in range(-20, 21):
        assert k_kernel(Z, P_Z, x, LineEnd(1)) == 1


@pytest.mark.parametrize("chain,params,states", [
    (BB, P_BB, range(0, 13)),
    (TREE, P_TREE, [ROOT, (0,), (0, 0), (1,), (0, 1, 0)]),
])
def test_kernel_at_conditioning_point_is_one_other_chains(chain, params, states):
    for x in states:
        assert k_kernel(chain, params, x, params.alpha) == 1


def test_kernel_from_base_is_one():
    for y in (1, 5, -3):
        assert k_kernel(Z, P_Z, 0, y) == 1


def test_kernel_interior_value_decomposes():
    # weight ratio 1/5 times (1 + visit ratio 4)
    assert psi_weight(Z, P_Z, 0) / psi_weight(Z, P_Z, 2) == Fraction(1, 5)
    assert exact_green(Z, 0, 2, 5) / exact_green(Z, 0, 0, 5) == 4
    assert k_kernel(Z, P_Z, 2, 5) == 1


def test_kernel_toward_unweighted_end():
    # conditioning at +inf leaves the -inf kernel as the bare weight ratio
    assert k_kernel(Z, P_Z, 3, LineEnd(-1)) == Fraction(1, 7)


def test_kernel_at_base_target_is_weight_ratio():
    assert k_kernel(Z, P_Z, 2, 0) == Fraction(1, 5)
    assert k_kernel(BB, P_BB, 2, 0) == Fraction(1, 4)


def test_transformed_green_by_hand():
    # damped visits W(2,5) = G(2,5) + G(0,5) = 5, scaled by the weight ratio 11/5
    assert transformed_green(Z, P_Z, 2, 5) == 11


@pytest.mark.parametrize(
    "chain,params,pairs",
    [
        (Z, P_Z, [(2, 5), (1, 3), (-2, 4), (4, 1), (3, 3)]),
        (BB, P_BB, [(3, 1), (1, 4), (2, 2), (5, 3)]),
        (TREE, P_TREE, [((0, 0), (0, 1)), ((1,), (0,)), ((0,), (0, 0, 0))]),
    ],
)
def test_kernel_formula_equals_damped_solve_exactly(chain, params, pairs):
    for x, y in pairs:
        assert k_kernel(chain, params, x, y) == k_kernel_numeric(chain, params, x, y)


@pytest.mark.parametrize("r", R_GRID)
def test_kernel_routes_agree_across_damping(r):
    params = fresh_params(P_Z, r)
    for x, y in ((2, 5), (3, 1), (-1, 2)):
        assert k_kernel(Z, params, x, y) == k_kernel_numeric(Z, params, x, y)


def test_kernel_routes_agree_in_floating_point():
    for chain, params, x, y in (
        (Z, P_Z, 2, 5),
        (BB, P_BB, 3, 1),
        (TREE, P_TREE, (0, 0), (0, 1)),
    ):
        numeric = k_kernel_numeric(chain, params, x, y, exact=False)
        assert abs(float(k_kernel(chain, params, x, y)) - numeric) < 1e-8


# ---------------------------------------------------------------------------
# Profile correspondence


def test_end_profile_maps_to_the_constant_function():
    phi = profile_from_boundary(Z, 0, LineEnd(1))
    mapped = r_map(Z, P_Z, phi)
    assert all(mapped(x) == 1 for x in range(-25, 26))


def test_constant_function_maps_back_to_the_end_profile():
    recovered = r_map_inverse(Z, P_Z, lambda x: Fraction(1))
    for x in range(-25, 26):
        assert recovered(x) == 2 * max(x, 0)


def test_zero_profile_maps_to_zero():
    mapped = r_map(Z, P_Z, lambda x: Fraction(0))
    assert all(mapped(x) == 0 for x in range(-10, 11))


@pytest.mark.parametrize(
    "chain,params,radius",
    [(Z, P_Z, 12), (BB, P_BB, 12), (TREE, P_TREE, 5)],
)
def test_round_trip_is_identity_on_window(chain, params, radius):
    phi = profile_from_boundary(chain, params.x0, params.alpha)
    mapped = r_map(chain, params, phi, radius=radius)
    recovered = r_map_inverse(chain, params, mapped, radius=radius)
    for x in chain.window(radius):
        assert recovered(x) == phi.evaluate(x)


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(0, 5),
    b=st.integers(0, 5),
    num=st.integers(1, 5),
    den=st.integers(2, 6),
)
def test_round_trip_and_cone_preservation_on_mixtures(a, b, num, den):
    if num >= den:
        num, den = den - 1, max(num, den)
    params = fresh_params(P_Z, Fraction(num, den))
    mixture = BoundaryMixture([(LineEnd(1), Fraction(a)), (LineEnd(-1), Fraction(b))])
    phi = mixture_profile(Z, 0, mixture)
    mapped = r_map(Z, params, phi, radius=10)
    recovered = r_map_inverse(Z, params, mapped, radius=10)
    for x in range(-10, 11):
        assert mapped(x) >= 0
        assert recovered(x) == phi.evaluate(x)


def test_non_harmonic_profile_is_rejected_with_details():
    with pytest.raises(PreconditionViolationError) as exc:
        r_map(Z, P_Z, lambda x: Fraction(x) ** 2)
    assert len(exc.value.violations) > 0
    state, detail = exc.value.violations[0]
    assert "one-step average" in detail


def test_profile_not_vanishing_at_base_is_rejected():
    with pytest.raises(PreconditionViolationError) as exc:
        r_map(Z, P_Z, lambda x: Fraction(1 + 2 * max(x, 0)))
    assert any("expected 0" in detail for _, detail in exc.value.violations)


def test_non_transformed_harmonic_function_is_rejected():
    with pytest.raises(PreconditionViolationError):
        r_map_inverse(Z, P_Z, lambda x: Fraction(x) ** 2)


def test_inverse_map_checks_a_base_outside_the_window():
    """Base 30 lies outside the radius-25 window; h = 1 off it is harmonic
    everywhere else, and its value 5 there must be rejected, not mapped
    to a function that is 4 at the base."""
    params = TransformParams(30, LineEnd(1), Fraction(1, 2))
    with pytest.raises(PreconditionViolationError) as exc:
        r_map_inverse(Z, params, lambda x: Fraction(5) if x == 30 else Fraction(1))
    assert [state for state, _ in exc.value.violations] == ["30"]
    recovered = r_map_inverse(Z, params, lambda x: Fraction(1))
    assert recovered(30) == 0
    assert recovered(31) == psi_weight(Z, params, 31) - psi_weight(Z, params, 30)


# ---------------------------------------------------------------------------
# Reports pinned to recorded values
#
# Each entry of ``golden/one_step_reports.json`` is the repr of the value
# below, recorded while psi was summed one Fraction per state and every
# residual was a Fraction: the verify suite's exact cases, the x^2 negative
# control, the benchmark's profile checks, the corrupted kernels and the
# profile correspondence.


def _profile_check(chain, x0, alpha, radius):
    phi = profile_from_boundary(chain, x0, chain.parse_boundary(alpha))
    return check_harmonic_except(chain, phi, x0, chain.window(radius))


def _report_cases():
    cases = {}
    for chain, alpha, radius in ((Z, "+inf", 20), (BB, "inf", 20), (TREE, "(0)*", 5)):
        cases[f"profile mass, {chain.name} r={radius}"] = (
            lambda chain=chain, alpha=alpha, radius=radius:
            _profile_check(chain, chain.base_point, alpha, radius)
        )
    verify_cases = ((Z, P_Z, 15), (BB, P_BB, 15), (TREE, P_TREE, 5), (PLANE, P_PLANE, 8))
    for chain, params, radius in verify_cases:
        for r in R_GRID:
            cases[f"row sums, {chain.name} r={radius} damping={r}"] = (
                lambda chain=chain, params=fresh_params(params, r), radius=radius:
                verify_row_sums(chain, params, radius)
            )
    cases["negative control, x^2 on z r=8"] = (
        lambda: check_harmonic_except(Z, lambda s: Fraction(s) ** 2, 0, Z.window(8))
    )
    for alpha in ("+inf", "-inf"):
        cases[f"profile.z {alpha} r=200"] = lambda alpha=alpha: _profile_check(Z, 0, alpha, 200)
    for alpha in ("(0)*", "(1)*", "(01)*", "1(0)*"):
        cases[f"profile.tree {alpha} r=7"] = (
            lambda alpha=alpha: _profile_check(TREE, ROOT, alpha, 7)
        )
    for law, (chain, params, radius, _) in BENT.items():
        cases[f"row sums, corrupted {law} kernel"] = (
            lambda chain=chain, params=params, radius=radius:
            verify_row_sums(chain, params, radius)
        )
    for chain, params, radius in ((Z, P_Z, 12), (BB, P_BB, 12), (TREE, P_TREE, 4)):
        window = chain.window(radius)
        phi = profile_from_boundary(chain, params.x0, params.alpha)
        cases[f"r_map and r_map_inverse, {chain.name}"] = (
            lambda chain=chain, params=params, window=window, phi=phi: (
                [r_map(chain, params, phi)(x) for x in window],
                [r_map_inverse(chain, params, lambda x: Fraction(1))(x) for x in window],
            )
        )
    return cases


REPORT_CASES = _report_cases()
REPORT_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "one_step_reports.json").read_text()
)


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_reports_equal_their_recorded_reprs(name):
    assert repr(REPORT_CASES[name]()) == REPORT_GOLDEN[name]


def test_every_recorded_report_has_a_case():
    assert sorted(REPORT_GOLDEN) == sorted(REPORT_CASES)


# ---------------------------------------------------------------------------
# Ensemble witnesses


def test_convergence_report_is_deterministic_and_serializable():
    kwargs = dict(trajectories=400, steps=300, seed=91, snapshots=(100,))
    first = convergence_stats(Z, P_Z, **kwargs)
    second = convergence_stats(Z, P_Z, **kwargs)
    assert first == second
    json.dumps(render(vars(first)))
    assert first.snapshots[100]["q25"] <= first.snapshots[100]["q75"]


def test_line_witness_drifts_toward_the_target_end():
    report = convergence_stats(Z, P_Z, 3000, 600, seed=20260819, snapshots=(100,))
    assert report.snapshots[100]["median"] < report.snapshots[600]["median"]
    assert report.final_median > 0


def test_mirrored_line_witness_matches_by_symmetry():
    params = TransformParams(0, LineEnd(-1), HALF)
    plus = convergence_stats(Z, P_Z, 1500, 300, seed=5)
    minus = convergence_stats(Z, params, 1500, 300, seed=5)
    assert plus.snapshots == minus.snapshots


def test_halfline_witness_is_ballistic():
    report = convergence_stats(BB, P_BB, 2000, 1000, seed=20260819, threshold=100)
    assert report.fraction_above >= 0.99


def test_tree_witness_agreement_grows():
    report = convergence_stats(
        TREE, P_TREE, 1000, 2000, seed=20260819, snapshots=(100, 500)
    )
    medians = [report.snapshots[m]["median"] for m in (100, 500, 2000)]
    assert medians[0] < medians[1] < medians[2]


def test_plane_witness_norm_grows():
    report = convergence_stats(PLANE, P_PLANE, 1000, 600, seed=20260819, snapshots=(100,))
    assert report.snapshots[100]["median"] < report.snapshots[600]["median"]


@pytest.mark.parametrize(
    "chain,params",
    [
        (Z, TransformParams(0, HalfLineEnd(), HALF)),
        (BB, TransformParams(0, LineEnd(1), HALF)),
        (TREE, TransformParams(ROOT, LineEnd(1), HALF)),
        (PLANE, TransformParams((0, 0), LineEnd(1), HALF)),
    ],
)
def test_witness_rejects_mismatched_boundary_targets(chain, params):
    with pytest.raises(ValueError):
        convergence_stats(chain, params, 10, 10, seed=0)


def test_witness_rejects_off_base_anchors():
    with pytest.raises(ValueError):
        convergence_stats(Z, TransformParams(3, LineEnd(1), HALF), 10, 10, seed=0)
    with pytest.raises(ValueError):
        convergence_stats(Z, P_Z, 0, 10, seed=0)


class LazyZ(ZWalk):
    """The line walk holding with probability 1/2: a law of its own."""

    def successors(self, x):
        return [(x, Fraction(1, 2))] + [(t, p / 2) for t, p in super().successors(x)]


def test_witness_refuses_a_subclass_with_its_own_law():
    # the line lane simulates ZWalk's rows, which are not this chain's law
    lazy = LazyZ()
    with pytest.raises(NotImplementedError, match="no witness lane"):
        convergence_stats(lazy, P_Z, 10, 10, seed=0)
    with pytest.raises(NotImplementedError, match="no witness lane"):
        transience_witness(lazy, P_Z, 10, 10, seed=0)


class _SuperKernel(ZWalk):
    """The line's own kernel, overridden only to call it."""

    def exact_boundary_kernel(self, x, alpha, base=0):
        return super().exact_boundary_kernel(x, alpha, base)


@pytest.mark.parametrize("law", [*sorted(BENT), "super"])
def test_witness_refuses_a_chain_whose_kernel_is_not_its_law_own(law):
    # the lanes tilt by the law class's own kernel, which is not this chain's
    chain, params = (_SuperKernel(), P_Z) if law == "super" else BENT[law][:2]
    override = type(chain).__name__ + ".exact_boundary_kernel"
    for witness in (convergence_stats, transience_witness):
        with pytest.raises(NotImplementedError, match="witness lane") as exc:
            witness(chain, params, 10, 10, seed=1)
        assert override in str(exc.value)


def test_transience_witness_settles_early():
    report = transience_witness(Z, P_Z, trajectories=2000, steps=4000, seed=20260819)
    assert report.fraction_settled_by_half >= 0.95
    assert report.mean_returns < 5.0
    assert report.max_last_return <= 4000
    json.dumps(render(vars(report)))


def test_transience_witness_other_lanes():
    bb = transience_witness(BB, P_BB, trajectories=1000, steps=2000, seed=3)
    tree = transience_witness(TREE, P_TREE, trajectories=1000, steps=2000, seed=3)
    assert bb.fraction_settled_by_half >= 0.95
    assert tree.fraction_settled_by_half >= 0.95


def _all_draws(*args):
    """Every row of ``_witness_draws``, copied before its buffer is refilled."""
    return np.stack([row.copy() for row in _witness_draws(*args)])


def test_witness_draws_are_per_trajectory_and_step():
    # 20,000 trajectories draw 1 step per call, 100 trajectories 64: the
    # numbers of trajectory i at step t must not depend on that layout
    big = _all_draws(7, 20_000, 130, None)
    small = _all_draws(7, 100, 130, None)
    assert big.shape == (130, 20_000) and small.shape == (130, 100)
    assert np.array_equal(big[:, :100], small)
    keys = stream_keys(7, CONVERGENCE_WITNESS, np.arange(100))
    assert np.array_equal(small[129], counter_bits(keys, 129))
    assert np.array_equal(np.ldexp(small[129], -52), counter_bits(keys, 129) * 2.0**-52)
    # the transience witness has its own streams
    other = _all_draws(7, 100, 130, {})
    assert not np.array_equal(other, small)


def test_witness_draws_refill_one_buffer():
    # a row is a view of the chunk buffer, valid until the generator moves
    # past its chunk: 100 runs draw 64 steps per chunk
    rows = list(_witness_draws(7, 100, 130, None))
    assert all(np.shares_memory(rows[t], rows[t + 64]) for t in range(66))
    assert not np.shares_memory(rows[0], rows[1])
    # so the first row now holds step 129's draws
    assert np.array_equal(rows[0], _all_draws(7, 100, 130, None)[128])


def test_transience_witness_is_deterministic():
    kwargs = dict(trajectories=500, steps=400, seed=11)
    first = transience_witness(Z, P_Z, **kwargs)
    second = transience_witness(Z, P_Z, **kwargs)
    assert first == second


def _with_states(table, grown=None):
    """The table with the runs' positions as its statistic, kept when it
    grows; ``grown`` receives the row count of each wider table.

    A position is the state, except on the plane (the one table that
    grows), whose state is the cell of its square: there it is the cell's
    (x, y) as x 2^32 + y, the same in every square.
    """
    stat = np.copy
    if table.fit is not None:
        side = int(np.sqrt(len(table.cuts[0])))
        reach = side // 2

        def stat(s):
            x, y = np.divmod(s, side)
            return ((x - reach) << 32) + y - reach

    def fit(s):
        wider, hold, s = table.fit(s)
        if wider is not None:
            if grown is not None:
                grown.append(len(wider.cuts[0]))
            wider = _with_states(wider, grown)
        return wider, hold, s
    return replace(table, stat=stat, fit=fit if table.fit else None)


@pytest.mark.parametrize(
    "chain,params", [(Z, P_Z), (BB, P_BB), (TREE, P_TREE), (PLANE, P_PLANE)],
    ids=["line", "halfline", "tree", "plane"],
)
def test_lane_runs_do_not_depend_on_the_trajectory_count(chain, params):
    # the first 100 of 1000 and of 20,000 runs are the runs of a 100-run
    # ensemble: their states, base visits and last visit times agree at
    # every mark (20,000 runs draw one row per chunk, and on the tree the
    # runs that left are dropped before every draw)
    marks, steps = [1, 37, 100, 250], 250
    for track in (False, True):
        runs = []
        for n in (100, 1000, 20_000):
            table, _, _ = _witness_lane(chain, params, n, steps)
            table = _with_states(table)
            tracked = {} if track else None
            runs.append((_run_lane(table, n, steps, 3, marks, tracked), tracked))
        (small, small_track), *larger = runs
        for big, big_track in larger:
            for t in marks:
                assert np.array_equal(small[t], big[t][:100])
            if track:
                for key in ("counts", "last"):
                    assert np.array_equal(small_track[key], big_track[key][:100])


def test_halfline_table_does_not_grow_with_the_horizon():
    # rows 0 .. 64 and one row for every position past 64, in the one-step
    # table and in each multi-step one
    short, _, _ = _witness_lane(BB, P_BB, 10, 10)
    long, _, _ = _witness_lane(BB, P_BB, 10, 10**7)
    assert [c.shape for c in short.cuts] == [c.shape for c in long.cuts] == [(66,)]
    for span in (_SPAN, _TRACKED_SPAN):
        shapes = [[c.shape for c in t.jump(span).cuts] for t in (short, long)]
        assert shapes[0] == shapes[1] == [(66,)] * span


def _exact_tail_cuts(chain, params, x, span, sign=1):
    """The cuts of the rounded tails of the exact span-step law from x:
    P(at least m of the span steps go toward the target), m = 1 .. span."""
    law = distribution_after(transformed_chain(chain, params), x, span)
    ups = [sum((p for y, p in law.items() if sign * (y - x) == 2 * j - span), Fraction(0))
           for j in range(span + 1)]
    return [int(_draw_cuts(float(sum(ups[m:])))) for m in range(1, span + 1)]


@pytest.mark.parametrize("span", [1, _TRACKED_SPAN, _SPAN])
@pytest.mark.parametrize("r", [Fraction(1, 4), HALF, Fraction(7, 9), Fraction(2**62, 2**62 + 1)])
def test_line_span_cuts_are_those_of_the_exact_law(r, span):
    # every row within 3 spans of the base, toward either end, where paths
    # leave the base, and three rows far from it whose one-step cut at
    # r = 1/4 is one unit off that of the float expression
    # (c + 2v + 2) / (2(c + 2v)); the last damping's odds 2^62 put the
    # path weights past int64
    steps = 2048
    for sign in (1, -1):
        params = TransformParams(0, LineEnd(sign), r)
        table, _, _ = _witness_lane(Z, params, 10, steps)
        jump = table if span == 1 else table.jump(span)
        assert jump.move.tolist() == list(range(-span, span + 1, 2))
        for v in [*range(-3 * span, 3 * span + 1), 562, 1023, 2047]:
            row = [int(c[v + steps + 1]) for c in jump.cuts]
            assert row == _exact_tail_cuts(Z, params, sign * v, span, sign), (sign, v)


@pytest.mark.parametrize("span", [1, _TRACKED_SPAN, _SPAN])
@pytest.mark.parametrize("r", [Fraction(1, 4), HALF, Fraction(7, 9)])
@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)])
def test_halfline_span_cuts_are_those_of_the_exact_law(q, r, span):
    # rows 0 .. 64 are the exact span-step law; the last, for every position
    # past 64, is its limit Binomial(span, 1 - q)
    chain, params = BangBangWalk(q), TransformParams(0, HalfLineEnd(), r)
    table, _, _ = _witness_lane(chain, params, 10, 10)
    rows = [list(map(int, row)) for row in zip(*(table if span == 1 else table.jump(span)).cuts)]
    assert rows[:-1] == [_exact_tail_cuts(chain, params, x, span) for x in range(65)]
    binom = [math.comb(span, j) * (1 - q) ** j * q ** (span - j) for j in range(span + 1)]
    assert rows[-1] == [int(_draw_cuts(float(sum(binom[m:])))) for m in range(1, span + 1)]


@pytest.mark.parametrize("span", [1, _TRACKED_SPAN, _SPAN])
@pytest.mark.parametrize("near", [True, False], ids=["near", "far"])
def test_span_tails_refuse_a_bent_psi(near, span):
    # the line's psi at r = 1/2 is 1 + 2 max(v, 0); one unit more at one
    # position breaks harmonicity there, which the rows reaching it must
    # show: at 1 for the rows within a span of the base, whose paths leave
    # it, and at 3 spans for rows 2 to 3 spans away (the negative control)
    lo = -4 * _SPAN
    v = np.arange(1 - span, span) if near else np.arange(2 * span, 3 * span + 1)
    psi = 1 + 2 * np.maximum(np.arange(lo, 4 * _SPAN + 1), 0)
    _span_tails(psi, lo, ((1, 1), (1, 1)), HALF, v, span)
    psi[(1 if near else 3 * span) - lo] += 1
    with pytest.raises(RowSumViolationError):
        _span_tails(psi, lo, ((1, 1), (1, 1)), HALF, v, span)


def _positions(chain, params, n, steps, seed):
    """Each run's position after ``steps`` steps of its witness lane."""
    table, _, _ = _witness_lane(chain, params, n, steps)
    (ends,) = _run_lane(_with_states(table), n, steps, seed, [steps], None).values()
    return ends - table.start


def _chi_square(sample, law):
    """Pearson's statistic of the sample against the exact law, and its
    degrees of freedom, with the cells of least mass merged into their
    neighbours until every cell expects at least 5 runs."""
    states = sorted(law)
    index = np.searchsorted(states, sample)
    assert np.array_equal(np.asarray(states)[index], sample)  # no run outside the law
    observed = np.bincount(index, minlength=len(states)).tolist()
    expected = [float(law[s]) * len(sample) for s in states]
    cells = [[o, e] for o, e in zip(observed, expected)]
    while len(cells) > 2 and min(e for _, e in cells) < 5:
        i = min(range(len(cells)), key=lambda k: cells[k][1])
        j = i + 1 if i == 0 or (i + 1 < len(cells) and cells[i + 1][1] < cells[i - 1][1]) else i - 1
        cells[j] = [cells[j][0] + cells[i][0], cells[j][1] + cells[i][1]]
        del cells[i]
    return sum((o - e) ** 2 / e for o, e in cells), len(cells) - 1


@pytest.mark.parametrize("chain,params", [(Z, P_Z), (BB, P_BB)], ids=["line", "halfline"])
def test_span_lanes_draw_the_exact_law_at_an_odd_horizon(chain, params):
    # 45 steps are 11 draws of 4 steps and one of a single step; the runs'
    # positions must fit the conditioned walk's exact law, and not the
    # untransformed walk's (the negative control)
    steps, n = 45, 20_000
    sample = _positions(chain, params, n, steps, seed=20261020)
    for law, fits in ((transformed_chain(chain, params), True), (chain, False)):
        stat, dof = _chi_square(sample, distribution_after(law, 0, steps))
        assert (stat < chi2.isf(1e-4, dof)) == fits, (law.name, stat, dof)


def _base_visits(chain, params, n, steps, seed):
    """Each run's base visits by ``steps``, tracked."""
    table, _, _ = _witness_lane(chain, params, n, steps)
    track: dict = {}
    _run_lane(table, n, steps, seed, [steps], track)
    return track["counts"]


@pytest.mark.parametrize("chain,params", [(Z, P_Z), (BB, P_BB)], ids=["line", "halfline"])
def test_tracked_span_lanes_count_every_base_visit(monkeypatch, chain, params):
    # a tracked run moves 2 steps per draw and is looked at on every even
    # time, so its mean base visits by step 45 are the exact expectation,
    # the sum of P(X_t = 0) over t <= 45; looked at every 4 steps, it would
    # miss the visits at t = 2 mod 4
    steps, n = 45, 20_000
    laws = propagate(transformed_chain(chain, params), 0, list(range(1, steps + 1)))
    mean = sum(Fraction(w, scale) for states, weights, scale in laws
               for s, w in zip(states, weights) if s == 0)
    counts = _base_visits(chain, params, n, steps, seed=20261020)
    assert abs(counts.mean() - float(mean)) < 4 * counts.std() / np.sqrt(n)
    monkeypatch.setattr(htransform_module, "_TRACKED_SPAN", 4)
    fewer = _base_visits(chain, params, n, steps, seed=20261020)
    assert abs(fewer.mean() - float(mean)) > 4 * fewer.std() / np.sqrt(n)


@pytest.mark.parametrize("r", [Fraction(1, 4), HALF, Fraction(7, 9)])
@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)])
def test_halfline_cuts_are_those_of_the_fraction_rows(q, r):
    # each up-probability is the float of the Fraction q psi(x+1) / psi(x)
    chain, params = BangBangWalk(q), TransformParams(0, HalfLineEnd(), r)
    psi = [psi_weight(chain, params, x) for x in range(66)]
    up = [1.0] + [float(q * psi[x + 1] / psi[x]) for x in range(1, 65)] + [float(1 - q)]
    table, _, _ = _witness_lane(chain, params, 10, 10)
    assert [c.tolist() for c in table.cuts] == [_draw_cuts(up).tolist()]


@pytest.mark.parametrize("r", [Fraction(1, 4), HALF, Fraction(7, 9)])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_tree_cuts_are_those_of_the_fraction_rows(k, r):
    # with gamma = r/(1-r) (k-1)/k and psi_j = gamma + k^j - 1, the ray rows
    # are the floats of the Fractions psi_{j-1}/(2 psi_j) and, added to that
    # float, psi_{j+1}/(2k psi_j); the pending row's one move is up to the ray
    params = TransformParams(ROOT, TreeRay.parse("(0)*"), r)
    gamma = params.odds * Fraction(k - 1, k)
    psi = [gamma + k**j - 1 for j in range(66)]
    up = [float(Fraction(1, 2) * psi[j - 1] / psi[j]) for j in range(1, 65)]
    ahead = [u + float(Fraction(1, 2 * k) * psi[j + 1] / psi[j]) for j, u in enumerate(up, 1)]
    rows = [(1.0, 0.0), (0.0, float(r / k + (1 - r))), *zip(up, ahead),
            (1 / (2 * k), 1 / (2 * k) + 0.5)]
    table, _, _ = _witness_lane(KaryTree(k), params, 10, 10)
    assert [c.tolist() for c in table.cuts] == [_draw_cuts(col).tolist() for col in zip(*rows)]


def _tree_rows(k, r):
    """The float entries of the conditioned tree walk's ray rows, j = 0 ..
    65: to the father, and that plus to the next ray node. Each is the
    float expression of the transformed row: the root's r/k + (1 - r), a
    ray node's psi_{j-1}/(2 psi_j) and that plus psi_{j+1}/(2k psi_j) up
    to depth 64, and their limits 1/(2k) and 1/(2k) + 1/2 beyond."""
    params = TransformParams(ROOT, TreeRay.parse("(0)*"), r)
    gamma = params.odds * Fraction(k - 1, k)
    psi = [gamma + k**j - 1 for j in range(66)]
    up = np.array([0.0] + [float(Fraction(1, 2) * psi[j - 1] / psi[j]) for j in range(1, 65)]
                  + [1.0 / (2 * k)])
    ahead = np.array([float(r / k + (1 - r))]
                     + [up[j] + float(Fraction(1, 2 * k) * psi[j + 1] / psi[j])
                        for j in range(1, 65)]
                     + [1.0 / (2 * k) + 0.5])
    return up, ahead


def _tree_reference(n, steps, seed, track):
    """Tree runs drawn from their own row, with no table: yields the
    agreement j, whether a run is off the ray and its clock, after each
    draw, and with ``track`` the root visits and the last of them by
    ``steps``.

    On the ray each run compares u with the entries of its row
    (``_tree_rows``): below the first it goes to the father, below the
    second to the next ray node, else off the ray, one step each. Off the
    ray it compares u with the Fractions P(tau <= 2i - 1) = 1 - C(2i, i)/4^i
    of the first return time tau from overhang 1 and comes back to its ray
    node 2i - 1 steps later, i the least with u below that Fraction. A run
    whose clock reached ``steps`` draws no more.
    """
    up, ahead = _tree_rows(TREE.k, P_TREE.r)
    within = [1 - Fraction(math.comb(2 * i, i), 4**i) for i in range(1, steps // 2 + 2)]
    j, off, clock = (np.zeros(n, dtype=np.int64) for _ in range(3))
    counts, last = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for b in _witness_draws(seed, n, steps, track):
        u = np.ldexp(b, -52)
        row, going = np.minimum(j, 65), clock < steps
        on = going & (off == 0)
        father = on & (u < up[row])
        ahead_ = on & ~father & (u < ahead[row])
        tau = np.ones(n, dtype=np.int64)
        for i in np.flatnonzero(going & (off == 1)).tolist():
            tau[i] = 2 * bisect.bisect_right(within, Fraction(int(b[i]), 2**52)) + 1
        clock += np.where(going, tau, 0)
        j = j - father + ahead_
        back = going & (off == 1)
        off = np.where(on & ~father & ~ahead_, 1, np.where(back, 0, off))
        root = going & (j == 0) & (off == 0) & (clock <= steps)
        counts += root
        last[root] = clock[root]
        yield j, off, clock, (counts, last)


@pytest.mark.parametrize("track", [False, True], ids=["convergence", "transience"])
def test_tree_table_draws_every_run_as_its_row_does(track):
    # a run's state after every draw, agreement j and whether it is off the
    # ray, and its clock must be the reference's: each state holds from the
    # time after the draw before it to the time the draw ends, which the
    # lane reads at every mark it reaches or passes (no draw leaves a state
    # as it was, so the marks give every draw's clock)
    n, steps = 1000, 400
    table, _, _ = _witness_lane(TREE, P_TREE, n, steps)
    tracked = {} if track else None
    states = _run_lane(_with_states(table), n, steps, 2, range(1, steps + 1), tracked)
    expected = np.zeros((steps + 1, n), dtype=np.int64)
    times, before, deep, draws = np.arange(steps + 1)[:, None], np.zeros(n, dtype=np.int64), 0, 0
    for j, off, clock, visits in _tree_reference(n, steps, 2, tracked):
        span = (times > before) & (times <= clock)
        expected[span] = np.broadcast_to(j + 1 - off * 2**32, span.shape)[span]
        before, deep, draws = clock.copy(), max(deep, int(j.max())), draws + 1
        if before.min() >= steps:
            break
    for t in range(1, steps + 1):
        assert np.array_equal(states[t], expected[t]), t
    if track:
        assert np.array_equal(tracked["counts"], visits[0])
        assert np.array_equal(tracked["last"], visits[1])
        assert visits[0].max() > 1
    assert deep > 65  # the runs reach the limit row
    assert draws < 0.7 * steps  # a draw crosses a whole sojourn


def test_excursion_cuts_are_the_exact_least_m_rule(monkeypatch):
    # the least m with m 2^-52 >= 1 - C(2n, n)/4^n, for n <= 500 and near
    # the end of a 100,000-step horizon, where the fixed-point floors have
    # lost most; with 6 guard bits most floors past n = 64 are undecided
    # and take the exact one
    def least(n):
        return math.ceil((1 - Fraction(math.comb(2 * n, n), 4**n)) * 2**52)

    exact = [least(n) for n in range(1, 501)]
    assert _excursion_cuts(1000).tolist()[:500] == exact
    far = _excursion_cuts(100_000)
    assert far.size == 50_000
    assert [int(far[n - 1]) for n in (49_990, 49_999, 50_000)] == [
        least(n) for n in (49_990, 49_999, 50_000)]
    monkeypatch.setattr(htransform_module, "_GUARD_BITS", 6)
    assert _excursion_cuts(1000).tolist() == exact


def test_sojourn_steps_count_the_cuts_at_both_sides_of_every_cut():
    # from the pending row a draw lasts 2i + 1 steps, i the cuts <= b; the
    # float guess and one comparison on either side give i exactly for b on
    # both sides of each cut, so everywhere between (both are monotone in b)
    steps = 100_000
    cuts = _excursion_cuts(steps)
    b = np.concatenate([[0, 2**52 - 1], cuts - 1, cuts])
    lasts = htransform_module._sojourn_steps(steps)
    pending = np.full(b.size, 1 - 2**32)
    assert np.array_equal(lasts(b, pending), 2 * np.searchsorted(cuts, b, side="right") + 1)
    assert np.array_equal(lasts(b, np.ones(b.size, dtype=np.int64)), np.ones(b.size))


def _tree_mean_agreement(k, marks):
    """The mean agreement j at each mark, by float propagation of the
    (j, m) chain from the root, and its standard deviation."""
    up, ahead = _tree_rows(k, HALF)
    top = max(marks) + 2
    rows = np.minimum(np.arange(top), 65)
    father, forward = up[rows], ahead[rows] - up[rows]
    law = np.zeros((top, max(marks) + 2))  # [j, m]
    law[0, 0] = 1.0
    out = {}
    for t in range(1, max(marks) + 1):
        on, nxt = law[:, 0], np.zeros_like(law)
        nxt[:-1, 0] += on[1:] * father[1:]
        nxt[1:, 0] += on[:-1] * forward[:-1]
        nxt[:, 1] += on * (1 - father - forward)
        nxt[:, 0] += law[:, 1] / 2
        nxt[:, 1:-1] += law[:, 2:] / 2
        nxt[:, 2:] += law[:, 1:-1] / 2
        law = nxt
        if t in marks:
            p, j = law.sum(axis=1), np.arange(top)
            mean = float(p @ j)
            out[t] = mean, float(np.sqrt(p @ j**2 - mean**2))
    return out


@pytest.mark.parametrize("k", [2, 3])
def test_tree_sojourn_draws_keep_the_law_of_the_agreement(monkeypatch, k):
    # the mean agreement at marks 100 and 300 of 20,000 runs lies within 4
    # standard errors of the (j, m) chain's; the negative control, every
    # sojourn two steps longer, fails the same gate
    n, marks = 20_000, (100, 300)
    exact = _tree_mean_agreement(k, marks)
    chain, params = KaryTree(k), TransformParams(ROOT, TreeRay.parse("(0)*"), HALF)

    def gaps():
        table, _, _ = _witness_lane(chain, params, n, max(marks))
        stats = _run_lane(table, n, max(marks), 20261021, marks, None)
        return [abs(stats[t].mean() - exact[t][0]) / (exact[t][1] / np.sqrt(n)) for t in marks]

    assert max(gaps()) < 4
    sojourn = htransform_module._sojourn_steps

    def longer(steps):
        lasts = sojourn(steps)
        return lambda b, state: lasts(b, state) + 2 * (state < 0)

    monkeypatch.setattr(htransform_module, "_sojourn_steps", longer)
    assert max(gaps()) > 4


def _plane_reference(n, steps, seed):
    """Planar runs stepped cell by cell from the transformed row's weights.

    No table: each step evaluates w = c + a(neighbor) for the four
    neighbors of every run and compares u (w_e + w_w + w_n + w_s) with
    w_e, w_e + w_w and w_e + w_w + w_n. Yields the positions after each step.
    """
    from recurmartin.potential import potential_float_array

    c, tbl = float(P_PLANE.odds), potential_float_array(64)
    kappa = (2.0 * np.euler_gamma + np.log(8.0)) / np.pi

    def weight(ix, iy):
        ax, ay = np.abs(ix), np.abs(iy)
        vals = np.empty(ax.shape)
        inside = (ax <= 64) & (ay <= 64)
        vals[inside] = tbl[ax[inside], ay[inside]]
        far = ~inside
        vals[far] = np.log((ax[far] ** 2 + ay[far] ** 2).astype(np.float64)) / np.pi + kappa
        return c + vals

    x, y = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for b in _witness_draws(seed, n, steps, None):
        u = np.ldexp(b, -52)
        w_e, w_w = weight(x + 1, y), weight(x - 1, y)
        w_n, w_s = weight(x, y + 1), weight(x, y - 1)
        u = u * (w_e + w_w + w_n + w_s)
        east = u < w_e
        west = ~east & (u < w_e + w_w)
        north = ~east & ~west & (u < w_e + w_w + w_n)
        south = ~(east | west | north)
        x = x + east - west
        y = y + north - south
        yield x, y


def test_plane_table_steps_every_run_exactly_while_it_grows():
    # a first square of half-width 4 is left and rebuilt again and again;
    # every run's position must equal the reference step's at every step
    # (a run that stepped past the square's edge before a rebuild would be
    # looked up in a wrong cell)
    n, steps, grown = 1000, 300, []
    table = _with_states(htransform_module._plane_table(PLANE, P_PLANE, steps, 4), grown)
    states = _run_lane(table, n, steps, 0, range(1, steps + 1), None)
    for t, (x, y) in enumerate(_plane_reference(n, steps, 0), 1):
        low = ((states[t] + 2**31) & (2**32 - 1)) - 2**31
        assert np.array_equal(low, y) and np.array_equal((states[t] - low) >> 32, x), t
    assert grown == [(2 * r + 1) ** 2 for r in (8, 16, 32, 64)]


def test_plane_table_is_built_by_each_plane_witness_and_grows():
    # a profile hook set before the import records every plane table build
    code = (
        "import sys\n"
        "built = []\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == '_plane_table':\n"
        "        built.append(frame.f_locals['reach'])\n"
        "sys.setprofile(watch)\n"
        "import recurmartin.cli\n"
        "from recurmartin import htransform as h\n"
        "print(len(built))\n"
        "h.convergence_stats(h.Z2Walk(), h.TransformParams((0, 0), None), 300, 400, seed=11)\n"
        "sys.setprofile(None)\n"
        "print(*built)\n"
    )
    src = str(Path(htransform_module.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    # nothing at import; the runs leave the first square [-32, 32]^2, so the
    # table is rebuilt on [-64, 64]^2
    assert out.stdout.split() == ["0", "32", "64"]


def test_plane_tables_are_freed_on_return():
    # a table that refers back to itself would wait for the cycle collector,
    # and the tables of successive witnesses would pile up in memory
    gc.collect()
    gc.disable()
    try:
        convergence_stats(PLANE, P_PLANE, 300, 400, seed=11)
        alive = [obj for obj in gc.get_objects() if isinstance(obj, _Table)]
    finally:
        gc.enable()
    assert alive == []
