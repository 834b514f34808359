"""Reference values and result checks for the benchmark's operations.

Every expected value is computed once, while a workload is built, so that
checking an operation's result never calls back into the package under
test. Exact results must equal the closed form exactly (same type, same
rational); float results must agree within ``FLOAT_RTOL``; Monte-Carlo
estimates must lie within ``MC_SIGMAS`` standard errors of the closed form
(one-sided when the estimator truncated runs, since truncation only ever
removes visits).
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

FLOAT_RTOL = 1e-9
MC_SIGMAS = 5.0


def reference_killed_green(chain, x0, radius, policy, pairs):
    """G_{x0}(x, y) on a finite window, by an independent sparse float solve.

    Builds (I - M) from the chain's one-step rows with transitions into x0
    deleted and exits either dropped (``kill``) or folded into a self-loop
    (``loop``), then solves one column per distinct y.
    """
    import numpy as np
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    states = chain.window(radius)
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []
    for s in states:
        i = index[s]
        rows.append(i)
        cols.append(i)
        vals.append(1.0)
        for t, p in chain.successors(s):
            if t == x0:
                continue
            j = index.get(t, i if policy == "loop" else None)
            if j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(-float(p))
    n = len(states)
    lu = splu(csc_matrix((vals, (rows, cols)), shape=(n, n)))
    out = []
    for x, y in pairs:
        rhs = np.zeros(n)
        rhs[index[y]] = 1.0
        out.append(float(lu.solve(rhs)[index[x]]))
    return out


def diagonal_potential_q(n: int) -> Fraction:
    """The pi-coefficient of a(n, n) = (4/pi) * sum_{j<=n} 1/(2j - 1)."""
    return 4 * sum((Fraction(1, 2 * j - 1) for j in range(1, n + 1)), Fraction(0))


def exact_equal(value, expected) -> bool:
    return isinstance(value, Fraction) and value == expected


def float_close(value, expected, rtol: float = FLOAT_RTOL) -> bool:
    value = float(value)
    return math.isfinite(value) and abs(value - expected) <= rtol * max(abs(expected), 1e-300)


def mc_close(result, expected: float) -> bool:
    """Within MC_SIGMAS standard errors; one-sided for truncated estimators."""
    gap = result.value - expected
    slack = MC_SIGMAS * max(result.stderr, 1e-12)
    if result.truncated_runs:
        return gap <= slack
    return abs(gap) <= slack


def cli_json(outcome):
    """Parsed stdout of a successful in-process CLI call, else None."""
    rc, out, _ = outcome
    if rc != 0:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None
