"""Tests for the counter-based draw, the package's one draw scheme.

A draw is a pure function of (seed, purpose, trajectory, step): the tests
check that it broadcasts consistently, that distinct key parts give
distinct streams, and that a million draws pass cheap moment and 2-bit
chi-square checks, single and serial. No module draws from another
generator. The source scans also keep type ladders out of the package and
per-state successors() sums out of its one-step identities.
"""
import ast
import re
from pathlib import Path

import numpy as np
import pytest

import recurmartin
from recurmartin.rng import (
    CONVERGENCE_WITNESS,
    GREEN_ENSEMBLE,
    SIMULATION,
    TRANSIENCE_WITNESS,
    counter_uniforms,
    stream_keys,
)

PURPOSES = (GREEN_ENSEMBLE, CONVERGENCE_WITNESS, TRANSIENCE_WITNESS, SIMULATION)


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
    # residuals, balances and row sums are window.one_step_averages; only
    # the conditioned chain's own rows and the pathwise identity, which
    # multiplies single row entries, read successors() here
    allowed = {"TransformedChain.successors", "rn_identity_check"}
    package = Path(recurmartin.__file__).parent
    for name in ("martin", "htransform", "sigma"):
        text = (package / f"{name}.py").read_text()
        assert "step_distribution" not in text, name
        for scope, call in _scoped_calls(ast.parse(text)):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "successors":
                assert scope in allowed, (name, scope, call.lineno)


def test_a_draw_depends_on_its_key_and_step_only():
    keys = stream_keys(7, GREEN_ENSEMBLE, np.arange(50))
    block = counter_uniforms(keys[:, None], np.arange(20)[None, :])
    assert block.shape == (50, 20)
    for i in (0, 17, 49):
        for t in (0, 5, 19):
            assert block[i, t] == counter_uniforms(keys[i : i + 1], t)[0]
    assert np.array_equal(stream_keys(7, GREEN_ENSEMBLE, np.arange(20, 30)), keys[20:30])
    assert np.array_equal(counter_uniforms(keys, 3), block[:, 3])


def test_distinct_key_parts_give_distinct_streams():
    n = 20_000
    keys = np.concatenate([stream_keys(11, p, np.arange(n)) for p in PURPOSES])
    assert np.unique(keys).size == len(keys)
    firsts = counter_uniforms(keys[:, None], np.arange(4)[None, :])
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
    u = counter_uniforms(keys[:, None], np.arange(1000)[None, :])
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
