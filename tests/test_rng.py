"""Tests for the counter-based draw, the package's one draw scheme.

A draw is a pure function of (seed, purpose, trajectory, step): the tests
check that it broadcasts consistently, that distinct key parts give
distinct streams, and that a million draws pass cheap moment and 2-bit
chi-square checks, single and serial. A draw is a 52-bit integer b, the
uniform is exactly b 2^-52, and a sampler compares b only against integer
cuts: the cut rule is checked against the float comparison it replaces,
at and next to every boundary. No module draws from another generator.
The source scans also keep type ladders out of the package, per-state
successors() sums out of its one-step identities and n-step laws, code
table steps inside ``window`` (and the generic lane's row cache), every Monte-Carlo
lane's draws in the ensemble driver's one loop, every witness lane's in
the witness driver's, no third loop over the draws anywhere in the
package, and no draw scaled to a float.
"""
import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recurmartin
from recurmartin.rng import (
    CONVERGENCE_WITNESS,
    GREEN_ENSEMBLE,
    TRANSIENCE_WITNESS,
    _draw_cuts,
    counter_bits,
    stream_keys,
)

PURPOSES = (GREEN_ENSEMBLE, CONVERGENCE_WITNESS, TRANSIENCE_WITNESS)


def test_no_module_draws_from_numpy_random():
    package = Path(recurmartin.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        text = path.read_text()
        assert "np.random" not in text and "numpy.random" not in text, path.name


def test_no_module_asks_a_chain_for_its_example_class():
    # chain-specific decisions are chain capabilities (norm, radii, closed
    # forms) or follow law_class: a type test hands a subclass that changes
    # the law its parent's closed forms
    ladder = re.compile(r"isinstance\(chain, \(?(ZWalk|BangBangWalk|KaryTree|Z2Walk)\b")
    for path in sorted(Path(recurmartin.__file__).parent.glob("*.py")):
        assert not ladder.search(path.read_text()), path.name


def _scoped_calls(node, scope=""):
    """Every call under ``node``, with the dotted name of its enclosing
    class and function definitions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scoped_calls(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _scoped_calls(child, scope)


def test_one_step_identities_read_the_code_table():
    # residuals, balances and row sums are window.one_step_averages and
    # n-step laws window.propagate; only the conditioned chain's own rows,
    # the pathwise identity, which multiplies single row entries, and the
    # single-row primitives of chains read successors() here
    allowed = {
        "TransformedChain.successors", "rn_identity_check",
        "_merged_row", "step_distribution", "row_sum",
    }
    package = Path(recurmartin.__file__).parent
    for name in ("martin", "htransform", "sigma", "chains"):
        text = (package / f"{name}.py").read_text()
        assert name == "chains" or "step_distribution" not in text, name
        for scope, call in _scoped_calls(ast.parse(text)):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "successors":
                assert scope in allowed, (name, scope, call.lineno)
    # a code table is stepped by window alone, and by the generic Monte
    # Carlo lane's row cache; green's walk.step is an ensemble walk's move
    for path in sorted(package.glob("*.py")):
        if path.stem == "window":
            continue
        for scope, call in _scoped_calls(ast.parse(path.read_text())):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "step":
                receiver = ast.unparse(func.value)
                assert (path.stem, scope) == ("green", "_TableRows.fill") or (
                    path.stem, receiver) == ("green", "walk"), (path.name, scope, call.lineno)


def test_a_draw_depends_on_its_key_and_step_only():
    keys = stream_keys(7, GREEN_ENSEMBLE, np.arange(50))
    block = counter_bits(keys[:, None], np.arange(20)[None, :]) * 2.0**-52
    assert block.shape == (50, 20)
    for i in (0, 17, 49):
        for t in (0, 5, 19):
            assert block[i, t] == counter_bits(keys[i : i + 1], t)[0] * 2.0**-52
    assert np.array_equal(stream_keys(7, GREEN_ENSEMBLE, np.arange(20, 30)), keys[20:30])
    assert np.array_equal(counter_bits(keys, 3) * 2.0**-52, block[:, 3])


def test_distinct_key_parts_give_distinct_streams():
    n = 20_000
    keys = np.concatenate([stream_keys(11, p, np.arange(n)) for p in PURPOSES])
    assert np.unique(keys).size == len(keys)
    firsts = counter_bits(keys[:, None], np.arange(4)[None, :]) * 2.0**-52
    assert np.unique(firsts, axis=0).shape[0] == len(keys)
    # the purpose is its own key part: purpose 1, trajectory 2 and purpose 2,
    # trajectory 1 are different streams
    a = stream_keys(11, 1, [2])
    b = stream_keys(11, 2, [1])
    assert a[0] != b[0]
    assert stream_keys(11, 1, [0])[0] != stream_keys(12, 1, [0])[0]


def test_negative_trajectory_index_is_rejected():
    with pytest.raises(ValueError):
        stream_keys(1, GREEN_ENSEMBLE, [-1])


def test_a_million_draws_pass_moment_and_chi_square_checks():
    keys = stream_keys(2024, GREEN_ENSEMBLE, np.arange(1000))
    u = counter_bits(keys[:, None], np.arange(1000)[None, :]) * 2.0**-52
    assert u.min() >= 0.0 and u.max() < 1.0
    n = u.size
    # mean and variance within 5 standard errors of 1/2 and 1/12
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / n)
    assert abs(u.var() - 1 / 12) < 5 * np.sqrt(1 / 180 / n)
    # top two bits: 4 cells (3 dof), and serial pairs along each stream and
    # across neighbouring streams: 16 cells (15 dof); bounds are the 1e-6
    # upper quantiles of the chi-square law
    bits = (u * 4).astype(np.int64)

    def chi2(cells, k):
        counts = np.bincount(cells.ravel(), minlength=k)
        expected = cells.size / k
        return float(((counts - expected) ** 2 / expected).sum())

    assert chi2(bits, 4) < 30.7
    assert chi2(4 * bits[:, :-1] + bits[:, 1:], 16) < 56.5
    assert chi2(4 * bits[:-1, :] + bits[1:, :], 16) < 56.5


#: The package's draw function.
_DRAWS = {"counter_bits"}


def _called(node):
    """The names of the functions called under ``node``."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _draw_functions(trees):
    """``_DRAWS`` and every function defined in ``trees`` that calls one."""
    return _DRAWS | {
        node.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and _DRAWS & set(_called(node))
    }


def _draw_loops(tree, scope="", sources=None, blocks=frozenset()):
    """The scope of every loop under ``tree`` that runs over the draws.

    A block of draws is a name assigned a draw function's result (one of
    ``sources``, by default ``_DRAWS`` and the functions of the module that
    call one) in the loop's function. The loop is a ``for`` loop whose
    iterable calls a draw function or reads a block of draws (``for u in
    draws.tolist()``), or a ``for v in range(...)`` loop that indexes by its
    variable an array column (``u[live, v]``) or a block of draws (``u[v]``).
    """
    if sources is None:
        sources = _draw_functions([tree])
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            drawn = {
                target.id
                for node in ast.walk(child)
                if isinstance(node, ast.Assign) and sources & set(_called(node.value))
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            inner = f"{scope}.{child.name}".lstrip(".")
            yield from _draw_loops(child, inner, sources, blocks | drawn)
            continue
        if isinstance(child, ast.For) and (
            sources & set(_called(child.iter))
            or blocks & {n.id for n in ast.walk(child.iter) if isinstance(n, ast.Name)}
            or _indexes_draws(child, blocks)
        ):
            yield scope
        yield from _draw_loops(child, scope, sources, blocks)


def _indexes_draws(loop, blocks):
    """Whether ``loop`` runs over ``range(...)`` and indexes an array column,
    or a block of draws, by its variable."""
    if not (
        isinstance(loop.target, ast.Name)
        and isinstance(loop.iter, ast.Call)
        and getattr(loop.iter.func, "id", None) == "range"
    ):
        return False
    var = loop.target.id
    for node in ast.walk(loop):
        if not isinstance(node, ast.Subscript):
            continue
        index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        names = [e.id if isinstance(e, ast.Name) else None for e in index]
        if isinstance(node.slice, ast.Tuple) and names[-1] == var:
            return True
        if getattr(node.value, "id", None) in blocks and var in names:
            return True
    return False


_SECOND_LOOPS = (
    # a walk stepping through its own block of draws
    "def _extra(keys):\n"
    "    u = counter_bits(keys, np.arange(9)[:, None])\n"
    "    for t in range(9):\n"
    "        x = u[t]\n",
    # a loop over a draw generator of the module
    "def _more_draws(keys):\n"
    "    yield from counter_bits(keys, np.arange(9)[:, None])\n\n\n"
    "def _extra(keys):\n"
    "    for b in _more_draws(keys):\n"
    "        x = b\n",
    # a loop over a drawn block
    "def _extra(keys):\n"
    "    draws = counter_bits(keys, np.arange(9))\n"
    "    for b in draws.tolist():\n"
    "        x = b\n",
)


def _assert_one_draw_loop(module, driver):
    text = (Path(recurmartin.__file__).parent / f"{module}.py").read_text()
    assert list(_draw_loops(ast.parse(text))) == [driver]
    # and the scan finds a second loop of either form
    for extra in _SECOND_LOOPS:
        assert list(_draw_loops(ast.parse(text + "\n\n" + extra))) == [driver, "_extra"]


def test_the_ensemble_driver_holds_the_one_loop_over_the_draws():
    # each lane is a step rule over one int state per run; the driver steps
    # the live runs, so no walk keeps a per-draw loop of its own
    _assert_one_draw_loop("green", "_ensemble")
    package = Path(recurmartin.__file__).parent
    unboxed = re.compile(r"escape_radius\s+is\s+(not\s+)?None")
    for path in sorted(package.glob("*.py")):
        assert not unboxed.search(path.read_text()), path.name


def test_the_witness_driver_holds_the_one_loop_over_the_draws():
    # each witness lane is a table over one int state per run, stepped by
    # the one driver
    _assert_one_draw_loop("htransform", "_run_lane")


def test_the_package_holds_two_loops_over_the_draws():
    # one driver per stopping rule: runs absorbed at the base, runs
    # stopped at a fixed horizon; a draw function of one module may be
    # looped over in another
    package = Path(recurmartin.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    sources = _draw_functions(trees.values())
    loops = [
        (name, scope) for name, tree in trees.items()
        for scope in _draw_loops(tree, sources=sources)
    ]
    assert loops == [("green", "_ensemble"), ("htransform", "_run_lane")]


def test_no_module_scales_a_draw_to_a_float():
    # a sampler compares its 52-bit draw with integer cuts; the uniform
    # b 2^-52 is never formed
    scaled = re.compile(r"counter_uniforms|ldexp|\*\s*2(\.0)?\s*\*\*\s*-\s*(52|_DRAW_BITS)")
    package = Path(recurmartin.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert not scaled.search(path.read_text()), path.name


_GRID = 2.0**-52


def _thresholds():
    """Floats c: exact multiples of 2^-52 and their neighbours, the ends of
    [0, 1] and beyond, and any float of [0, 1]."""
    multiple = st.integers(0, 2**52).map(lambda k: k * _GRID)
    near = multiple.flatmap(
        lambda c: st.sampled_from([c, float(np.nextafter(c, -1.0)), float(np.nextafter(c, 2.0))])
    )
    ends = st.sampled_from(
        [0.0, -0.0, -1.0, _GRID, 1.0 - _GRID, float(np.nextafter(1.0, 0.0)), 1.0, 2.0, np.inf]
    )
    return st.one_of(ends, near, st.floats(0.0, 1.0))


def _next_to(m):
    """The draws m - 1, m and m + 1 that lie in [0, 2^52)."""
    return [b for b in (m - 1, m, m + 1) if 0 <= b < 2**52]


@settings(max_examples=400, deadline=None)
@given(c=_thresholds())
def test_a_draw_passes_its_cut_exactly_when_its_uniform_passes(c):
    m = int(_draw_cuts(c))
    assert 0 <= m <= 2**52
    for b in _next_to(m):
        assert (b >= m) == (b * _GRID >= c), b


@settings(max_examples=400, deadline=None)
@given(c=_thresholds(), s=st.floats(1e-3, 1e6))
def test_a_scaled_cut_is_the_scaled_comparison(c, s):
    # the plane's rows are not normalized: its test is fl(u s) >= c, with
    # c anywhere on [0, s] and next to the products fl(m 2^-52 s)
    for t in (c * s, float(np.nextafter(c * s, np.inf)), float(np.nextafter(c * s, -np.inf))):
        m = int(_draw_cuts(t, s))
        assert 0 <= m <= 2**52
        for b in _next_to(m):
            assert (b >= m) == ((b * _GRID) * s >= t), (b, t)


def test_cuts_are_elementwise():
    cs = np.array([0.0, 0.25, _GRID, 1.0 - _GRID, 1.0, np.inf, 0.3, 3 * _GRID + 1e-30])
    scales = np.array([1.0, 3.0, 0.5, 7.25, 2.0, 1.0, 1e3, 1.5])
    assert _draw_cuts(cs).tolist() == [int(_draw_cuts(c)) for c in cs]
    assert _draw_cuts(cs, scales).tolist() == [int(_draw_cuts(c, s)) for c, s in zip(cs, scales)]
    assert _draw_cuts(cs).tolist()[:6] == [0, 2**50, 1, 2**52 - 1, 2**52, 2**52]


def test_uniforms_are_the_draws_times_two_to_the_minus_52():
    keys = stream_keys(5, CONVERGENCE_WITNESS, np.arange(300))
    bits = counter_bits(keys[:, None], np.arange(200)[None, :])
    assert bits.dtype == np.int64 and bits.min() >= 0 and bits.max() < 2**52
    # u = b 2^-52 is exact: scaling back gives the draw itself
    u = bits * _GRID
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal((u * 2.0**52).astype(np.int64), bits)


def test_a_reused_buffer_gives_the_bits_of_a_fresh_call():
    keys = stream_keys(9, TRANSIENCE_WITNESS, np.arange(500))
    out = np.full((8, 500), -7, dtype=np.int64)
    scratch = np.full((8, 500), 123456789, dtype=np.int64)
    for lo in (0, 8, 1000):
        steps = np.arange(lo, lo + 8)[:, None]
        got = counter_bits(keys, steps, out, scratch)
        assert got is out
        assert np.array_equal(out, counter_bits(keys, steps))
