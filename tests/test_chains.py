"""Core chain primitives: exact distributions, paths, stationarity.

``distribution_after`` is checked against the per-state ``Fraction`` loop
over ``successors()`` it replaced, kept here as a reference.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurmartin.chains import (
    ChainSpec,
    distribution_after,
    enumerate_paths,
    row_sum,
    step_distribution,
    verify_stationary,
)
from recurmartin.errors import MissingPredecessorsError, PathBudgetExceededError
from recurmartin.examplechains import BangBangWalk, KaryTree, LineEnd, Z2Walk, ZWalk
from recurmartin.htransform import TransformParams, rn_identity_check, transformed_chain
from recurmartin.sigma import verify_concatenation

ALL_CHAINS = [ZWalk(), BangBangWalk(Fraction(1, 3)), KaryTree(2), Z2Walk()]


@pytest.mark.parametrize("chain", ALL_CHAINS, ids=lambda c: c.name)
def test_rows_sum_to_one_exactly(chain):
    for x in chain.window(4):
        assert row_sum(chain, x) == 1


def test_one_step_laws():
    assert step_distribution(ZWalk(), 0) == [(-1, Fraction(1, 2)), (1, Fraction(1, 2))]
    assert step_distribution(BangBangWalk(Fraction(1, 3)), 0) == [(1, Fraction(1))]
    assert step_distribution(KaryTree(2), ()) == [
        ((0,), Fraction(1, 2)),
        ((1,), Fraction(1, 2)),
    ]


def test_malformed_states_are_rejected():
    with pytest.raises(ValueError):
        step_distribution(BangBangWalk(), -1)
    with pytest.raises(ValueError):
        step_distribution(KaryTree(2), (0, 5))


def test_distribution_after_z_is_binomial():
    dist = distribution_after(ZWalk(), 0, 4)
    assert dist == {
        -4: Fraction(1, 16),
        -2: Fraction(4, 16),
        0: Fraction(6, 16),
        2: Fraction(4, 16),
        4: Fraction(1, 16),
    }


@pytest.mark.parametrize("chain", ALL_CHAINS, ids=lambda c: c.name)
@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_distribution_after_total_mass(chain, n):
    dist = distribution_after(chain, chain.base_point, n)
    assert sum(dist.values()) == 1


def test_distribution_after_rejects_negative_horizon():
    with pytest.raises(ValueError):
        distribution_after(ZWalk(), 0, -1)


def reference_distribution(chain, x, n):
    """The n-step law by a per-state Fraction loop over successors()."""
    dist = {x: Fraction(1)}
    for _ in range(n):
        nxt: dict = {}
        for s, w in dist.items():
            for t, p in chain.successors(s):
                nxt[t] = nxt.get(t, Fraction(0)) + w * p
        dist = nxt
    return dist


class LazyZ(ZWalk):
    """The line walk holding with probability 1/2: a law without a vectorized table."""

    def successors(self, x):
        return [(x - 1, Fraction(1, 4)), (x, Fraction(1, 2)), (x + 1, Fraction(1, 4))]


LAWS = {
    "z": ZWalk(),
    "bangbang": BangBangWalk(Fraction(1, 3)),
    "tree": KaryTree(2),
    "z2": Z2Walk(),
    "lazy subclass": LazyZ(),
    # conditioned rows put each state's law over its own denominator
    "transformed chain": transformed_chain(ZWalk(), TransformParams(0, LineEnd(1), Fraction(1, 3))),
}


@settings(max_examples=80, deadline=None)
@given(law=st.sampled_from(sorted(LAWS)), data=st.data(), n=st.integers(0, 8))
def test_distribution_after_equals_the_fraction_loop(law, data, n):
    chain = LAWS[law]
    x = data.draw(st.sampled_from(chain.window(3)))
    want = {s: p for s, p in reference_distribution(chain, x, n).items() if p}
    got = distribution_after(chain, x, n)
    assert got == want
    assert all(type(p) is Fraction and p > 0 for p in got.values())


def test_distribution_after_lists_no_state_of_probability_zero():
    class Listed(ZWalk):  # lists a move of probability 0
        def successors(self, x):
            return [(x - 1, Fraction(1, 2)), (x + 5, Fraction(0)), (x + 1, Fraction(1, 2))]

    assert reference_distribution(Listed(), 0, 1)[5] == 0
    assert distribution_after(Listed(), 0, 1) == {-1: Fraction(1, 2), 1: Fraction(1, 2)}


@pytest.mark.parametrize("n", [0, 1])
def test_distribution_after_refuses_an_invalid_start(n):
    # the code table's encode refuses it, also before any step
    with pytest.raises(ValueError):
        distribution_after(BangBangWalk(), -1, n)


def test_enumerate_paths_counts_and_mass():
    paths = list(enumerate_paths(ZWalk(), 0, 10))
    assert len(paths) == 2**10
    assert sum(p.probability for p in paths) == 1
    assert all(len(p.states) == 11 and p.states[0] == 0 for p in paths)
    # paths are tuples, so callers key dicts by them without a copy
    assert all(type(p.states) is tuple for p in paths)


def test_enumerate_paths_agrees_with_pushforward():
    chain = KaryTree(2)
    n = 4
    endpoint_mass = {}
    for p in enumerate_paths(chain, chain.base_point, n):
        last = p.states[-1]
        endpoint_mass[last] = endpoint_mass.get(last, Fraction(0)) + p.probability
    assert endpoint_mass == distribution_after(chain, chain.base_point, n)


def test_enumerate_paths_budget():
    with pytest.raises(PathBudgetExceededError) as exc:
        list(enumerate_paths(ZWalk(), 0, 10, budget=100))
    assert exc.value.cap == 100


@pytest.mark.parametrize("chain", ALL_CHAINS, ids=lambda c: c.name)
def test_stationary_measure_verifies_exactly(chain):
    report = verify_stationary(chain, chain.window(4))
    assert report.all_ok
    assert report.failures() == []


def test_verify_stationary_needs_predecessors():
    class Opaque(ChainSpec):
        name = "opaque"

        @property
        def base_point(self):
            return 0

        def successors(self, x):
            return [(x + 1, Fraction(1))]

        def state_key(self, x):
            return x

        def format_state(self, x):
            return str(x)

        def parse_state(self, text):
            return int(text)

        def window(self, radius):
            return list(range(radius + 1))

    with pytest.raises(MissingPredecessorsError):
        verify_stationary(Opaque(), [0, 1])


def test_verify_stationary_flags_a_wrong_measure():
    class Lopsided(ZWalk):
        name = "lopsided"

        def stationary(self, x):
            return Fraction(2) if x == 0 else Fraction(1)

    report = verify_stationary(Lopsided(), [-1, 0, 1])
    assert not report.all_ok
    assert {r.state for r in report.failures()} == {-1, 0, 1}


class DupZ(ZWalk):
    """The line walk with its up-move listed twice, as 1/8 + 3/8: the same law."""

    def successors(self, x):
        return [(x - 1, Fraction(1, 2)), (x + 1, Fraction(1, 8)), (x + 1, Fraction(3, 8))]


def test_enumerate_paths_merges_repeated_successors():
    merged = [(p.states, p.probability) for p in enumerate_paths(DupZ(), 0, 3)]
    assert merged == [(p.states, p.probability) for p in enumerate_paths(ZWalk(), 0, 3)]
    # the budget counts distinct state sequences
    assert len(list(enumerate_paths(DupZ(), 0, 3, budget=8))) == 8


def test_path_identities_hold_with_repeated_successors():
    report = rn_identity_check(DupZ(), TransformParams(0, LineEnd(1)), 0, 4)
    assert (report.paths_checked, report.mismatches) == (16, 0)
    concat = verify_concatenation(DupZ(), 0, lambda s: 2 * max(s, 0), 0, 1, 1, 3)
    assert concat.max_discrepancy == 0 and concat.paths_checked == 8
