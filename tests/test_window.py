"""Integer window operators and the chains' vectorized code tables.

Verification strategy: every built-in chain's vectorized table must give,
state by state, the same successors in the same order with the same
rational probabilities as ``successors()``, and the operator built from it
must equal, entry for entry, the one built from the ``successors``-derived
default table (window order, CSR arrays, numerators, denominator, escaped
mass), under both policies, with a killed state and with scaled rows. The
float and exact solves are compared bit for bit with a reference that
builds ``Fraction`` rows from ``successors()`` one state at a time. A
chain subclass that overrides ``successors`` must leave the vectorized
tables.
"""
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from recurmartin.chains import law_class
from recurmartin.examplechains import ROOT, BangBangWalk, KaryTree, Z2Walk, ZWalk
from recurmartin.green import (
    Truncation,
    _solve_columns_fraction,
    green_solve,
    green_solve_discounted,
    window_rows,
)
from recurmartin.window import UNNAMED, SuccessorTable, WindowOperator, window_operator

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
    """Per-entry float assembly of I - M and a sparse LU solve."""
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
    lu = splu(csc_matrix((data, (ri, ci)), shape=(n, n)))
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
        index, op = window_rows(chain, window, policy=policy, **kw)
        pindex, pop = window_rows(plain, window, policy=policy, **kw)
        assert index == pindex and list(index) == window
        assert_same_operator(op, pop)
        # and both equal the per-state Fraction rows
        _, ref = reference_rows(chain, window, policy=policy, **kw)
        assert op.fraction_rows() == ref
        assert len(op) == len(window)
        assert [len(r) for r in op] == [len(r) for r in ref]


def test_operator_keeps_escaped_and_killed_mass_apart():
    tree = KaryTree(2)
    window = tree.window(2)
    _, op = window_rows(tree, window, kill_into=ROOT, policy="kill")
    total = np.add.reduceat(op.num, op.indptr[:-1]) + op.escaped
    killed = np.array([4 * sum(p for t, p in tree.successors(s) if t == ROOT) for s in window])
    assert np.array_equal(total + killed, np.full(len(window), op.den))
    assert op.escaped.tolist() == [0] * 3 + [2] * 4  # leaves: 2/4 down


def test_operator_merges_duplicates_and_loop_mass_in_integers():
    class Lazy(ZWalk):
        def successors(self, x):
            return [(x, Fraction(1, 6)), (x - 1, Fraction(1, 3)), (x, Fraction(1, 6)),
                    (x + 1, Fraction(1, 3))]

    _, op = window_rows(Lazy(), [0, 1, 2], policy="loop")
    assert op.den == 6
    assert op.fraction_rows() == [
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


def test_tree_table_declines_states_spanning_more_than_its_codes():
    tree = KaryTree(2)
    assert isinstance(tree.code_table([ROOT, (0,) * 70]), SuccessorTable)
    with pytest.raises(ValueError):
        tree.code_table([(0, 1)]).encode([(0, 2)])


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
    _, op = window_rows(chain, window, kill_into=0, policy="loop")
    assert op.num.dtype == object
    assert op.fraction_rows() == reference_rows(chain, window, kill_into=0)[1]
    (exact,) = green_solve(chain, 0, [(2, 3)], Truncation(6), exact=True)
    (approx,) = green_solve(chain, 0, [(2, 3)], Truncation(6))
    index, col = reference_float_solve(chain, 0, window, [3], "loop")
    assert approx.value == max(float(col[3][index[2]]), 0.0)
    assert approx.value == pytest.approx(float(exact.value), rel=1e-12)


def test_empty_window_operator():
    op = window_operator(SuccessorTable(ZWalk()), np.zeros(0, dtype=np.int64))
    assert len(op) == 0 and op.fraction_rows() == []


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
    cols = _solve_columns_fraction(rows, [index[y] for y in ys])
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
