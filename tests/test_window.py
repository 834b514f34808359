"""Integer window operators and the chains' vectorized code tables.

Verification strategy: every built-in chain's vectorized table must give,
state by state, the same successors in the same order with the same
rational probabilities as ``successors()``, and the operator built from it
must equal, entry for entry, the one built from the ``successors``-derived
default table (window order, CSR arrays, numerators, denominator, escaped
mass), under both policies, with a killed state and with scaled rows. The
float and exact solves are compared bit for bit with a reference that
builds ``Fraction`` rows from ``successors()`` one state at a time; the
float reference factors in the program's column ordering, whose fill on
the z2 kill window of radius 30 must stay below COLAMD's. A
chain subclass that overrides ``successors`` must leave the vectorized
tables. ``one_step_averages`` must equal the per-state ``Fraction`` sum
over ``step_distribution`` on every kind of table, call its function once
per live successor, and let the one-step identities and the forward
programs (``distribution_after``, ``cylinder_measure``) of the built-in
laws run without a single ``successors()`` call. A forward program whose
walk leaves the vectorized table reruns on the default table; an error of
the caller's own code does not. Its integer core
``one_step_sums`` must give, for random rational f, the same averages over
its denominator and f's values over theirs, while a float f keeps the
canonical-order ``Fraction`` sum bit for bit. The operator's rows are read
back as ``Fraction`` lists from its CSR arrays, and solved exactly, by
test-local helpers. Each built-in law's radius window read as a code
array (``code_window``) must decode to ``window(radius)`` and give the
operator of the listed window, field by field; a changed law, a window of a
subclass's own and a tree past its code depth take the listed window.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from recurmartin.chains import ChainSpec, distribution_after, law_class, step_distribution
from recurmartin.examplechains import (
    ROOT,
    BangBangWalk,
    HalfLineEnd,
    KaryTree,
    LineEnd,
    TreeRay,
    Z2Walk,
    ZWalk,
    _tree_depth_limit,
)
from recurmartin.green import (
    FLOAT_LU_ORDERING,
    Truncation,
    _eliminate,
    green_solve,
    green_solve_discounted,
    window_system,
)
from recurmartin.htransform import TransformParams, transformed_chain, verify_row_sums
from recurmartin.martin import check_harmonic_except, profile_from_boundary
from recurmartin.sigma import constant_one, cylinder_measure, with_no_base_visits
from recurmartin.window import (
    UNNAMED,
    SuccessorTable,
    WindowOperator,
    _on_code_table,
    _step,
    one_step_averages,
    one_step_sums,
    propagate,
    sum_by_key,
    window_operator,
)

CHAINS = {
    "z": (ZWalk(), 0, 6),
    "bangbang:q=1/3": (BangBangWalk(Fraction(1, 3)), 0, 7),
    "bangbang:q=2/5": (BangBangWalk(Fraction(2, 5)), 0, 7),
    "tree:k=2": (KaryTree(2), ROOT, 3),
    "tree:k=3": (KaryTree(3), ROOT, 2),
    "z2": (Z2Walk(), (0, 0), 3),
}
DENOMINATORS = {
    "z": 2, "bangbang:q=1/3": 3, "bangbang:q=2/5": 5, "tree:k=2": 4, "tree:k=3": 6, "z2": 4,
}


def successor_driven(chain):
    """The same chain as an instance of a subclass whose ``successors``
    only delegates: its law is unchanged but no longer the built-in one."""
    base = type(chain)
    plain = type(f"Plain{base.__name__}", (base,), {
        "successors": lambda self, x: base.successors(self, x),
    })
    twin = object.__new__(plain)
    twin.__dict__.update(chain.__dict__)
    return twin


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


def reference_rows(chain, window, kill_into=None, row_scale=None, policy="loop"):
    """Window rows built one state at a time from successors(), as lists of
    (column, Fraction)."""
    index = {s: i for i, s in enumerate(window)}
    rows = []
    for s in window:
        scale = Fraction(1) if row_scale is None else row_scale.get(s, Fraction(1))
        entries: dict = {}
        escaped = Fraction(0)
        for t, p in chain.successors(s):
            if kill_into is not None and t == kill_into:
                continue
            j = index.get(t)
            if j is None:
                escaped += p
            else:
                entries[j] = entries.get(j, Fraction(0)) + p
        if policy == "loop" and escaped:
            i = index[s]
            entries[i] = entries.get(i, Fraction(0)) + escaped
        if scale != 1:
            entries = {j: scale * p for j, p in entries.items()}
        rows.append(sorted(entries.items()))
    return index, rows


def reference_float_solve(chain, x0, window, ys, policy):
    """Per-entry float assembly of I - M and a sparse LU solve in the
    program's column ordering."""
    index, rows = reference_rows(chain, window, kill_into=x0, policy=policy)
    n = len(rows)
    data, ri, ci = [], [], []
    for i in range(n):
        data.append(1.0)
        ri.append(i)
        ci.append(i)
        for j, p in rows[i]:
            data.append(-float(p))
            ri.append(i)
            ci.append(j)
    lu = splu(csc_matrix((data, (ri, ci)), shape=(n, n)), permc_spec=FLOAT_LU_ORDERING)
    rhs = np.zeros((n, len(ys)))
    for c, y in enumerate(ys):
        rhs[index[y], c] = 1.0
    sol = lu.solve(rhs)
    return index, {y: sol[:, c] for c, y in enumerate(ys)}


def assert_same_operator(a: WindowOperator, b: WindowOperator):
    assert a.den == b.den
    for field in ("indptr", "indices", "num", "escaped"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype == np.int64, field
        assert np.array_equal(x, y), field


# ---------------------------------------------------------------------------
# Code tables


@pytest.mark.parametrize("name", CHAINS)
def test_vector_table_rows_equal_successors(name):
    chain, _, radius = CHAINS[name]
    window = chain.window(radius + 1)
    table = chain.code_table(window)
    assert not isinstance(table, SuccessorTable)
    codes = table.encode(window)
    assert table.decode(codes) == window
    succ, num, den = table.step(codes)
    assert den == DENOMINATORS[name]
    for s, row_codes, row_num in zip(window, succ, num):
        live = row_num > 0
        got = list(zip(table.decode(row_codes[live]), (Fraction(int(v), den) for v in row_num[live])))
        assert got == chain.successors(s)


@pytest.mark.parametrize("name", CHAINS)
@pytest.mark.parametrize("policy", ["loop", "kill"])
def test_operator_equals_the_successor_derived_operator(name, policy):
    chain, x0, radius = CHAINS[name]
    plain = successor_driven(chain)
    assert isinstance(plain.code_table([x0]), SuccessorTable)
    window = chain.window(radius)
    y = window[-1]
    for kw in ({}, {"kill_into": x0}, {"row_scale": {x0: Fraction(2, 3), y: Fraction(1, 5)}}):
        pos, op = window_system(chain, window, window, policy=policy, **kw)
        ppos, pop = window_system(plain, window, window, policy=policy, **kw)
        assert pos == ppos == list(range(len(window)))
        assert_same_operator(op, pop)
        # and both equal the per-state Fraction rows
        _, ref = reference_rows(chain, window, policy=policy, **kw)
        assert fraction_rows(op) == ref
        assert len(op) == len(window)
        assert [len(r) for r in op] == [len(r) for r in ref]


def test_operator_keeps_escaped_and_killed_mass_apart():
    tree = KaryTree(2)
    window = tree.window(2)
    _, op = window_system(tree, window, kill_into=ROOT, policy="kill")
    total = np.add.reduceat(op.num, op.indptr[:-1]) + op.escaped
    killed = np.array([4 * sum(p for t, p in tree.successors(s) if t == ROOT) for s in window])
    assert np.array_equal(total + killed, np.full(len(window), op.den))
    assert op.escaped.tolist() == [0] * 3 + [2] * 4  # leaves: 2/4 down


def test_operator_merges_duplicates_and_loop_mass_in_integers():
    class Lazy(ZWalk):
        def successors(self, x):
            return [(x, Fraction(1, 6)), (x - 1, Fraction(1, 3)), (x, Fraction(1, 6)),
                    (x + 1, Fraction(1, 3))]

    _, op = window_system(Lazy(), [0, 1, 2], policy="loop")
    assert op.den == 6
    assert fraction_rows(op) == [
        [(0, Fraction(2, 3)), (1, Fraction(1, 3))],
        [(0, Fraction(1, 3)), (1, Fraction(1, 3)), (2, Fraction(1, 3))],
        [(1, Fraction(1, 3)), (2, Fraction(2, 3))],
    ]
    assert op.escaped.tolist() == [2, 0, 2]


def test_tree_codes_relative_to_a_deep_anchor():
    tree = KaryTree(2)
    deep = (0, 1) * 40
    table = tree.code_table([deep], 1024)
    assert table.anchor == deep[: len(deep) - 30]
    x, father, child = table.encode([deep, deep[:-1], deep + (1,)])
    assert table.decode(np.array([x, father, child])) == [deep, deep[:-1], deep + (1,)]
    succ, num, den = table.step(np.array([x]))
    assert table.decode(succ[0]) == [deep[:-1], deep + (0,), deep + (1,)]
    assert [Fraction(int(v), den) for v in num[0]] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    # the anchor's father and the children past the depth limit are unnamed
    anchor = table.encode([table.anchor])
    assert table.step(anchor)[0][0, 0] == UNNAMED
    bottom = table.encode([table.anchor + (1,) * table.limit])
    assert (table.step(bottom)[0][0, 1:] == UNNAMED).all()
    assert table.encode([(1,) + deep])[0] == UNNAMED


def reference_tree_table(tree, states, reach):
    """The full anchor scan over every state: the tree table's anchor and
    depth limit, or None where the states span more than its codes."""
    limit = _tree_depth_limit(tree.k)
    anchor = tuple(states[0])
    deepest = len(anchor)
    for s in states:
        deepest = max(deepest, len(s))
        if s[: len(anchor)] != anchor:
            anchor = anchor[: tree.meet_depth(anchor, s)]
    if deepest - len(anchor) > limit:
        return None
    lift = min(len(anchor), reach, (limit - deepest + len(anchor)) // 2)
    return anchor[: len(anchor) - lift], limit


DEEP_NODE = (0, 1) * 20 + (1,)
ANCHOR_CASES = {
    "root window": (KaryTree(2), KaryTree(2).window(6)),
    "window below a deep node": (KaryTree(3), [DEEP_NODE + s for s in KaryTree(3).window(3)]),
    "root last": (KaryTree(2), [DEEP_NODE, DEEP_NODE[:7] + (0,), (1, 1), ROOT]),
    "mixed depths": (KaryTree(2), [DEEP_NODE + (0, 1), DEEP_NODE[:30], DEEP_NODE + (1,),
                                   DEEP_NODE[:35] + (0, 0, 0)]),
    "past the codes": (KaryTree(2), [DEEP_NODE + (0,) * 30, DEEP_NODE[:3]]),
}


@pytest.mark.parametrize("reach", [0, 1, 5, 1024])
@pytest.mark.parametrize("case", sorted(ANCHOR_CASES))
def test_tree_table_anchor_equals_the_full_scan(case, reach):
    tree, states = ANCHOR_CASES[case]
    table = tree._vector_table(states, reach)
    found = None if table is None else (table.anchor, table.limit)
    assert found == reference_tree_table(tree, states, reach)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.lists(
        st.builds(lambda m, tail: DEEP_NODE[:m] + tuple(tail),
                  st.integers(0, len(DEEP_NODE)), st.lists(st.integers(0, 1), max_size=25)),
        min_size=1, max_size=8,
    ),
    reach=st.integers(0, 40),
)
def test_tree_table_anchor_of_unsorted_nodes(nodes, reach):
    table = KaryTree(2)._vector_table(nodes, reach)
    found = None if table is None else (table.anchor, table.limit)
    assert found == reference_tree_table(KaryTree(2), nodes, reach)


def test_tree_table_declines_states_spanning_more_than_its_codes():
    tree = KaryTree(2)
    assert isinstance(tree.code_table([ROOT, (0,) * 70]), SuccessorTable)
    with pytest.raises(ValueError):
        tree.code_table([(0, 1)]).encode([(0, 2)])


def test_plane_table_declines_states_beyond_its_coordinate_range():
    plane = Z2Walk()
    near = (2**30 - 2, -5)
    table = plane.code_table([(0, 0), near])
    assert not isinstance(table, SuccessorTable)
    assert table.decode(table.encode([near])) == [near]
    for far in [(2**30 - 1, 0), (0, -(2**40)), (2**63, 0), (-(2**63), 1), (3, 2**70)]:
        assert isinstance(plane.code_table([(0, 0), far]), SuccessorTable)
    # a state past the range encodes as unnamed, never as a wrapped code
    codes = table.encode([(2**40, 0), (0, -(2**30)), (2**30 - 1, 5)])
    assert codes[:2].tolist() == [UNNAMED] * 2
    assert table.decode(codes[2:]) == [(2**30 - 1, 5)]


def test_law_class_follows_the_successors_override(monkeypatch):
    class Relabelled(ZWalk):
        name = "z-relabelled"

    class Lazy(BangBangWalk):
        def successors(self, x):
            return [(x, Fraction(1, 2))] + [(t, p / 2) for t, p in super().successors(x)]

    assert law_class(Relabelled()) is ZWalk
    assert law_class(Lazy()) is Lazy
    assert not isinstance(Relabelled().code_table([0]), SuccessorTable)
    assert isinstance(Lazy().code_table([0]), SuccessorTable)
    # wrapping the class's own method in place (as a tracer does) keeps the law
    original = ZWalk.successors
    monkeypatch.setattr(ZWalk, "successors", lambda self, x: original(self, x))
    assert law_class(ZWalk()) is ZWalk
    assert not isinstance(ZWalk().code_table([0]), SuccessorTable)


def test_default_table_keeps_numerators_wider_than_int64():
    tilt = Fraction(1, 3**40)  # row denominators 2 * 3^40 > 2^63

    class Tilted(ZWalk):
        def successors(self, x):
            return [(x - 1, Fraction(1, 2) - tilt), (x + 1, Fraction(1, 2) + tilt)]

    chain = Tilted()
    window = chain.window(6)
    _, op = window_system(chain, window, kill_into=0, policy="loop")
    assert op.num.dtype == object
    assert fraction_rows(op) == reference_rows(chain, window, kill_into=0)[1]
    (exact,) = green_solve(chain, 0, [(2, 3)], Truncation(6), exact=True)
    (approx,) = green_solve(chain, 0, [(2, 3)], Truncation(6))
    index, col = reference_float_solve(chain, 0, window, [3], "loop")
    assert approx.value == max(float(col[3][index[2]]), 0.0)
    assert approx.value == pytest.approx(float(exact.value), rel=1e-12)


def test_empty_window_operator():
    op = window_operator(SuccessorTable(ZWalk()), np.zeros(0, dtype=np.int64))
    assert len(op) == 0 and fraction_rows(op) == []


# ---------------------------------------------------------------------------
# Code windows: the radius window as an int64 code array


CODE_WINDOW_CHAINS = {
    "z": ZWalk(),
    "bangbang:q=1/3": BangBangWalk(Fraction(1, 3)),
    "bangbang:q=2/5": BangBangWalk(Fraction(2, 5)),
    "tree:k=2": KaryTree(2),
    "tree:k=3": KaryTree(3),
    "z2": Z2Walk(),
}


def listed_operator(chain, window, kill_into, policy):
    """The operator of the listed window, encoded on ``code_table(window)``."""
    table = chain.code_table(window)
    op = window_operator(table, table.encode(window), kill=int(table.encode([kill_into])[0]))
    return op.looped() if policy == "loop" else op


@pytest.mark.parametrize("radius", range(1, 9))
@pytest.mark.parametrize("name", CODE_WINDOW_CHAINS)
def test_code_window_equals_the_listed_window(name, radius):
    chain = CODE_WINDOW_CHAINS[name]
    table, codes = chain.code_window(radius)
    assert not isinstance(table, SuccessorTable) and codes.dtype == np.int64
    window = chain.window(radius)
    assert table.decode(codes) == window
    x0 = chain.base_point
    for policy in ("loop", "kill"):
        (at,), op = window_system(chain, radius, [x0], kill_into=x0, policy=policy)
        assert at == window.index(x0)
        assert_same_operator(op, listed_operator(chain, window, x0, policy))


class LazyZ(ZWalk):
    def successors(self, x):
        return [(x, Fraction(1, 2))] + [(t, p / 2) for t, p in super().successors(x)]


class LazyPlane(Z2Walk):
    def successors(self, x):
        return [(x, Fraction(1, 2))] + [(t, p / 2) for t, p in super().successors(x)]


class OddLine(ZWalk):
    """The line's law on a window of its own: the odd states up to 2r + 1."""

    def window(self, radius):
        return list(range(1, 2 * radius + 2, 2))


@pytest.mark.parametrize("chain", [LazyZ(), LazyPlane(), OddLine()], ids=type)
def test_changed_laws_and_windows_take_the_listed_window(chain):
    table, codes = chain.code_window(4)
    window = chain.window(4)
    assert table.decode(codes) == window
    assert isinstance(table, SuccessorTable) == (law_class(chain) is type(chain))
    x0 = window[0]
    for policy in ("loop", "kill"):
        _, op = window_system(chain, 4, [x0], kill_into=x0, policy=policy)
        assert_same_operator(op, listed_operator(chain, window, x0, policy))


def test_tree_code_window_stops_at_the_depth_limit(monkeypatch):
    from recurmartin import examplechains

    tree = KaryTree(2)
    assert tree._window_codes(_tree_depth_limit(2) + 1) is None
    monkeypatch.setattr(examplechains, "_tree_depth_limit", lambda k: 3)
    within, _ = tree.code_window(3)
    assert not isinstance(within, SuccessorTable) and within.limit == 3
    table, codes = tree.code_window(4)
    assert isinstance(table, SuccessorTable)
    assert table.decode(codes) == tree.window(4)
    _, op = window_system(tree, 4, [ROOT], kill_into=ROOT, policy="loop")
    assert_same_operator(op, listed_operator(tree, tree.window(4), ROOT, "loop"))


# ---------------------------------------------------------------------------
# Solves through the operator, bit for bit


BENCH_WINDOWS = [
    (ZWalk(), 0, [(3, 5), (-7, -2), (12, 19)], 400, "loop"),
    (ZWalk(), 0, [(3, 5), (-17, -2)], 2000, "loop"),
    (KaryTree(2), ROOT, [((0, 1), (0,)), (ROOT, (1, 1, 0))], 9, "loop"),
    (KaryTree(2), ROOT, [((0, 1), (0,)), ((1,), (1, 1, 0))], 10, "loop"),
    (Z2Walk(), (0, 0), [((1, 0), (2, 1))], 20, "kill"),
    (Z2Walk(), (0, 0), [((1, 0), (2, 1)), ((1, 0), (0, 2))], 30, "kill"),
    (BangBangWalk(Fraction(2, 5)), 0, [(2, 3), (0, 5)], 30, "kill"),
    (KaryTree(3), ROOT, [((0, 1), (0,)), (ROOT, (1, 2))], 5, "kill"),
]


@pytest.mark.parametrize("chain, x0, pairs, radius, policy", BENCH_WINDOWS)
def test_float_solve_is_bit_identical_to_the_per_state_reference(chain, x0, pairs, radius, policy):
    got = green_solve(chain, x0, pairs, Truncation(radius, policy))
    ys = sorted({y for _, y in pairs}, key=chain.state_key)
    index, col = reference_float_solve(chain, x0, chain.window(radius), ys, policy)
    for r, (x, y) in zip(got, pairs):
        assert r.value == max(float(col[y][index[x]]), 0.0)


def test_float_solve_ordering_fills_less_than_colamd(monkeypatch):
    import scipy.sparse.linalg

    factored = []

    def recording_splu(a, **options):
        lu = splu(a, **options)
        factored.append((a, lu))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    green_solve(Z2Walk(), (0, 0), [((1, 0), (2, 1))], Truncation(30, "kill"))
    ((a, lu),) = factored
    assert a.shape == (3721, 3721)
    colamd = splu(a, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


@pytest.mark.parametrize("chain, x0, pairs, radius, policy", [
    (ZWalk(), 0, [(3, 5), (-7, -2)], 40, "kill"),
    (BangBangWalk(Fraction(2, 5)), 0, [(2, 3), (0, 5)], 20, "loop"),
    (KaryTree(3), ROOT, [((0, 1), (0,)), (ROOT, (1, 2))], 3, "kill"),
    (Z2Walk(), (1, 0), [((1, 1), (2, 1))], 4, "loop"),
])
def test_exact_solve_equals_the_per_state_reference(chain, x0, pairs, radius, policy):
    got = green_solve(chain, x0, pairs, Truncation(radius, policy), exact=True)
    window = chain.window(radius)
    ys = sorted({y for _, y in pairs}, key=chain.state_key)
    index, rows = reference_rows(chain, window, kill_into=x0, policy=policy)
    cols = fraction_solve(rows, [index[y] for y in ys])
    for r, (x, y) in zip(got, pairs):
        assert type(r.value) is Fraction
        assert r.value == cols[ys.index(y)][index[x]]


def test_discounted_solve_scales_rows_in_integers():
    z = ZWalk()
    r = Fraction(1, 3)
    exact = green_solve_discounted(z, 0, r, [(2, 3), (-1, 4)], Truncation(20))
    floats = green_solve_discounted(z, 0, r, [(2, 3), (-1, 4)], Truncation(20), exact=False)
    assert exact == [z.exact_green(2, 3) + r / (1 - r) * z.exact_green(0, 3),
                     r / (1 - r) * z.exact_green(0, 4)]
    assert floats == pytest.approx([float(v) for v in exact], rel=1e-12)


# ---------------------------------------------------------------------------
# One-step averages


class Skip(ChainSpec):
    """A user chain on Z: hold 1/2, down one 1/3, up two 1/6, listed out of
    canonical order."""

    name = "skip"
    base_point = 0

    def successors(self, x):
        return [(x + 2, Fraction(1, 6)), (x, Fraction(1, 2)), (x - 1, Fraction(1, 3))]

    def state_key(self, x):
        return x

    def format_state(self, x):
        return str(x)

    def parse_state(self, text):
        return int(text)

    def window(self, radius):
        return list(range(-radius, radius + 1))


class LazyTree(KaryTree):
    def successors(self, x):
        return [(x, Fraction(1, 2))] + [(t, p / 2) for t, p in super().successors(x)]


def reference_averages(chain, states, f):
    """The per-state loop: one Fraction sum over step_distribution per state."""
    return [sum((p * f(t) for t, p in step_distribution(chain, s)), Fraction(0)) for s in states]


def on_line(x):
    if x < 0 and x % 2:
        return Fraction(x**3, 7) - 2
    return Fraction(5 * x + 1, 3)


def on_tree(s):
    return Fraction(len(s) ** 2 + 3 * sum(s), 5)


def on_half_line(x):
    if x < 0:
        raise AssertionError("evaluated off the half line")
    return Fraction(7, 3) ** x


DEEP = [ROOT, (0,) * 61, (1, 0) * 30 + (1,)]  # children below int64 heap codes
AVERAGE_CASES = {
    "user chain": (Skip(), Skip().window(6), on_line),
    "lazy subclass": (LazyTree(2), LazyTree(2).window(3), on_tree),
    "half-line base row": (BangBangWalk(Fraction(2, 5)), [0, 1, 0, 4], on_half_line),
    "deep tree": (KaryTree(2), DEEP, on_tree),
    "transformed chain": (
        transformed_chain(ZWalk(), TransformParams(0, LineEnd(1), Fraction(1, 3))),
        ZWalk().window(5),
        on_line,
    ),
    "plane": (Z2Walk(), Z2Walk().window(3), lambda s: Fraction(s[0] ** 3 - s[1], 4)),
}


@pytest.mark.parametrize("case", AVERAGE_CASES)
def test_one_step_averages_equal_the_per_state_fraction_sums(case):
    chain, states, f = AVERAGE_CASES[case]
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    got, values = one_step_averages(chain, states, counted)
    assert got == reference_averages(chain, states, f)
    assert all(type(v) is Fraction for v in got)
    assert values == [f(s) for s in states]
    # one call per distinct state and live successor; never on a table's
    # padding or the half line's reflected entry
    live = {t for s in states for t, p in chain.successors(s) if p}
    assert len(calls) == len(live | set(states)) and set(calls) == live | set(states)


def test_deep_tree_averages_leave_the_vectorized_table():
    tree = KaryTree(2)
    table = tree.code_table(DEEP)
    assert not isinstance(table, SuccessorTable)
    succ, num, _ = table.step(table.encode(DEEP))
    assert (succ[num > 0] == UNNAMED).any()
    assert one_step_averages(tree, DEEP, len) == ([1, 61, 61], [0, 61, 61])


def test_deep_tree_propagation_leaves_the_vectorized_table():
    tree, deep = KaryTree(2), (0,) * 61
    climb = [deep[: 61 - t] for t in range(32)]  # 31 levels up, one past the lifted anchor
    assert len(tree.code_table([deep], 31).anchor) == 31

    def keep(t, states):
        return [s == climb[t] for s in states] if t < len(climb) else None

    ((states, weights, scale),) = propagate(tree, deep, [31], keep)
    assert states == [climb[-1]] and Fraction(weights[0], scale) == Fraction(1, 2**31)


def object_propagate(chain, x, times, keep=None):
    """The forward loop with Python-int (object) weights from step 0: the
    reference for the int64 weights and their switch."""

    def forward(table):
        codes, weights = table.encode([x]), np.ones(1, dtype=object)
        scale, t, on, laws = 1, 0, keep, []
        while True:
            if on is not None and (mask := on(t, table.decode(codes))) is not None:
                mask = np.asarray(mask, dtype=bool)
                codes, weights = codes[mask], weights[mask]
            else:
                on = None
            if t == times[len(laws)]:
                laws.append((table.decode(codes), weights.tolist(), scale))
                if len(laws) == len(times):
                    return laws
            succ, num, den, live = _step(table, codes)
            codes, weights = sum_by_key(succ[live], (weights[:, None] * num)[live])
            scale *= den
            t += 1

    return _on_code_table(chain, [x], times[-1], forward)


def until(t_end, mask):
    """A ``keep`` that applies ``mask`` before time t_end and stops there."""
    return lambda t, states: mask(states) if t < t_end else None


FORWARD_CASES = {
    # chain, start, times across the step whose scale * den reaches 2^63, keep
    "z": (ZWalk(), 0, [0, 1, 40, 61, 62, 63, 64, 100], None),
    "z, keep": (ZWalk(), 0, [0, 1, 40, 62, 63, 100], until(64, lambda s: [x >= -2 for x in s])),
    # the tree's laws spread over 3^t nodes unless a mask holds them
    "tree:k=3, keep": (KaryTree(3), ROOT, [0, 5, 23, 24, 25, 45],
                       until(46, lambda s: [len(x) <= 3 and x[:1] != (0,) for x in s])),
    "bangbang:q=1/3": (BangBangWalk(Fraction(1, 3)), 0, [0, 7, 38, 39, 40, 60], None),
    "bangbang:q=1/3, keep": (BangBangWalk(Fraction(1, 3)), 0, [0, 7, 39, 40, 60],
                             until(41, lambda s: [x != 3 for x in s])),
    "skip": (Skip(), 0, [0, 3, 22, 23, 24, 40], None),
    "skip, keep": (Skip(), 0, [0, 3, 23, 24, 40], until(30, lambda s: [x <= 10 for x in s])),
}


@pytest.mark.parametrize("case", sorted(FORWARD_CASES))
def test_int64_forward_weights_equal_the_object_weights(case):
    chain, x, times, keep = FORWARD_CASES[case]
    laws = propagate(chain, x, times, keep)
    assert laws == object_propagate(chain, x, times, keep)
    assert laws[1][2] < 2**63 <= laws[-1][2]  # the weights leave int64 on the way
    assert all(type(w) is int for _, weights, _ in laws for w in weights)


@pytest.mark.parametrize("times", [[], [3, 2], [2, 2], [-1, 4]])
def test_propagate_refuses_times_out_of_order(times):
    with pytest.raises(ValueError):
        propagate(ZWalk(), 0, times)


def test_the_fallback_reruns_only_on_the_tables_refusal(monkeypatch):
    # a KeyError from the caller's own code propagates, with no rerun on
    # the successors-derived table
    calls = []
    original = ZWalk.successors
    monkeypatch.setattr(ZWalk, "successors", lambda self, x: calls.append(x) or original(self, x))

    def missing(*args):
        raise KeyError(args)

    with pytest.raises(KeyError):
        one_step_sums(ZWalk(), [0, 1], missing)
    with pytest.raises(KeyError):
        propagate(ZWalk(), 0, [3], missing)
    with pytest.raises(KeyError):
        cylinder_measure(ZWalk(), 0, missing, 0, constant_one(0), [2])
    assert calls == []


def test_one_step_averages_of_no_states():
    assert one_step_averages(KaryTree(2), [], len) == ([], [])


SUM_LAWS = {
    "z": (ZWalk(), 5),
    "bangbang": (BangBangWalk(Fraction(2, 5)), 6),
    "tree": (KaryTree(3), 2),
    "z2": (Z2Walk(), 2),
    "lazy subclass": (LazyTree(2), 3),
}


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(sorted(SUM_LAWS)), data=st.data())
def test_one_step_sums_are_the_averages_in_integers(law, data):
    chain, radius = SUM_LAWS[law]
    on_successors = isinstance(chain.code_table([chain.base_point]), SuccessorTable)
    assert on_successors == (law == "lazy subclass")
    states = data.draw(st.lists(st.sampled_from(chain.window(radius)), min_size=1, max_size=6))
    drawn: dict = {}

    def f(t):  # a random rational function, drawn state by state
        if t not in drawn:
            drawn[t] = data.draw(st.integers(-40, 40) | st.fractions(max_denominator=24))
        return drawn[t]

    step = one_step_sums(chain, states, f)
    assert step.exact
    averages = [Fraction(t, step.den * step.lcd) for t in step.sums]
    assert averages == reference_averages(chain, states, f)
    assert (averages, step.values) == one_step_averages(chain, states, f)
    assert [Fraction(v, step.lcd) for v in step.at] == [f(s) for s in states]
    assert step.values == [f(s) for s in states]
    # a float-valued f keeps the canonical-order Fraction sum, bit for bit
    def g(t):
        return float(f(t))

    floats = one_step_sums(chain, states, g)
    assert not floats.exact
    want = reference_averages(chain, states, g)
    assert [v.hex() for v in floats.sums] == [v.hex() for v in want]
    assert one_step_averages(chain, states, g) == (floats.sums, [g(s) for s in states])


@pytest.mark.parametrize("chain", [ZWalk(), BangBangWalk(), KaryTree(2), Z2Walk()])
def test_one_step_identities_of_the_built_in_laws_call_no_successors(chain, monkeypatch):
    x0 = chain.base_point
    alpha = {ZWalk: LineEnd(1), BangBangWalk: HalfLineEnd(), KaryTree: TreeRay((), (0,))}
    if type(chain) is Z2Walk:  # xy is harmonic on the plane

        def phi(s):
            return Fraction(s[0] * s[1])

        params = TransformParams(x0, None, Fraction(1, 2))
    else:
        phi = profile_from_boundary(chain, x0, alpha[type(chain)])
        params = TransformParams(x0, alpha[type(chain)], Fraction(1, 2))
    calls = []
    original = type(chain).successors
    monkeypatch.setattr(
        type(chain), "successors", lambda self, x: calls.append(x) or original(self, x)
    )
    radius = 3 if type(chain) is KaryTree else 6
    assert check_harmonic_except(chain, phi, x0, chain.window(radius)).all_ok
    assert verify_row_sums(chain, params, radius).all_ok
    # and so do the forward programs, with and without an event filter
    assert sum(distribution_after(chain, x0, radius).values()) == 1
    event = with_no_base_visits(constant_one(0), x0, 1, 3)
    mv = cylinder_measure(chain, x0, phi, x0, event, [2, radius])
    assert mv.verdict == ("converged" if type(chain) is Z2Walk else "diverges")
    assert calls == []
