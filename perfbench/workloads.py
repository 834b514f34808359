"""The benchmark's three workloads as lists of checked operations.

``build(workload, seed, size)`` returns the op list. Query states and
sampler seeds come from ``random.Random`` keyed by the workload and seed,
drawn from narrow ranges so that an op's cost does not depend on the seed.
Every op calls the package through module attributes (``green.green_solve``
rather than a captured function), so a tracer that rebinds those
attributes sees the call.

Op kinds: ``exact`` (rational results), ``float`` (floating solves and
brackets), ``mc`` (seeded Monte Carlo, whose results carry a standard
error) and ``cli`` (``cli.run(argv)`` in process, stdout captured).
"""
from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles as orc

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("exact", "sample", "measure")
SIZES = ("full", "tiny")

#: Sampler seed of the off-origin planar op. With 50 runs and a step cap,
#: the number of capped runs, and with it the op's cost and standard error,
#: swings widely from seed to seed; one fixed seed keeps the op's defect
#: (per-step lane, truncated runs) in every run without that noise.
PLANE_OFF_ORIGIN_SEED = 20141107


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    expect: Callable[[], object]
    check: Callable[[object, object], bool]
    #: For ``mc`` ops: the (value, stderr) pairs of a result.
    estimates: Optional[Callable[[object], list]] = None


def _pick(full, tiny, size):
    return full if size == "full" else tiny


def _green_estimates(result):
    if isinstance(result, dict):
        result = list(result.values())
    if not isinstance(result, list):
        result = [result]
    return [(r.value, r.stderr) for r in result]


def _cli_op(name, argv, check, expect=lambda: None):
    from recurmartin import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(list(argv))
        return rc, out.getvalue(), err.getvalue()

    return Op(name, "cli", run, expect, check)


def _golden_cli_op(name, argv, size):
    """A CLI op whose stdout must match the stored golden copy byte for byte."""
    path = GOLDEN_DIR / f"{name}.{size}.out"

    def expect():
        return path.read_text() if path.exists() else None

    def check(outcome, golden):
        rc, out, _ = outcome
        return rc == 0 and golden is not None and out == golden

    return _cli_op(name, argv, check, expect)


# ---------------------------------------------------------------------------
# exact: rational window solves and exact identity checks


def _exact_ops(rnd: random.Random, size: str) -> list:
    from recurmartin import examplechains as ec
    from recurmartin import green, htransform, potential

    z, bb, tree, plane = ec.ZWalk(), ec.BangBangWalk(), ec.KaryTree(2), ec.Z2Walk()
    ops = []

    def solve_op(name, chain, x0, pairs, radius, policy="loop"):
        trunc = green.Truncation(radius=radius, policy=policy)
        ops.append(Op(
            name, "exact",
            lambda: green.green_solve(chain, x0, pairs, trunc, exact=True),
            lambda: [ec.exact_green(chain, x0, x, y) for x, y in pairs],
            lambda res, exp: len(res) == len(exp)
            and all(orc.exact_equal(r.value, e) for r, e in zip(res, exp)),
        ))

    def z_state():
        return rnd.choice((1, -1)) * rnd.randint(1, 6)

    for i in range(3):
        x = z_state()
        y = (1 if x > 0 else -1) * rnd.randint(1, 6)
        solve_op(f"green_solve.z.single{i}", z, 0, [(x, y)], _pick(25, 8, size))
    y1, y2 = rnd.randint(1, 8), -rnd.randint(1, 8)
    xs = [rnd.randint(-8, 8) for _ in range(4)]
    solve_op(
        "green_solve.z.multi", z, 0,
        [(xs[0], y1), (xs[1], y1), (xs[2], y2), (xs[3], y2)], _pick(40, 10, size),
    )
    solve_op(
        "green_solve.halfline", bb, 0,
        [(rnd.randint(0, 5), rnd.randint(1, 6)) for _ in range(2)], _pick(50, 10, size),
    )

    def tree_node(depth_max):
        return tuple(rnd.randint(0, 1) for _ in range(rnd.randint(1, depth_max)))

    for radius in _pick((4, 5), (2, 3), size):
        pairs = [(rnd.choice([(), tree_node(radius - 1)]), tree_node(radius - 1))]
        solve_op(f"green_solve.tree.r{radius}", tree, (), pairs, radius)

    # z2 has no closed form on a kill window: the value must be a Fraction,
    # agree with an independent float solve, and stay strictly below the
    # infinite-space value a(x) + a(y) - a(x - y)
    px, py = (1, 0), rnd.choice([(1, 1), (2, 0), (0, 1), (1, -1), (2, 1)])
    kill_radius = _pick(3, 2, size)
    kill_trunc = green.Truncation(radius=kill_radius, policy="kill")
    ops.append(Op(
        "green_solve.plane.kill", "exact",
        lambda: green.green_solve(plane, (0, 0), [(px, py)], kill_trunc, exact=True),
        lambda: (
            orc.reference_killed_green(plane, (0, 0), kill_radius, "kill", [(px, py)])[0],
            float(potential.origin_killed_green(potential.potential_table(4), px, py)),
        ),
        lambda res, exp: isinstance(res[0].value, Fraction)
        and orc.float_close(res[0].value, exp[0], 1e-12)
        and float(res[0].value) < exp[1],
    ))

    # damped visits: W_r(x, y) = G(x, y) + r/(1-r) G(0, y) for x, y != 0
    dx = z_state()
    dy = (1 if dx > 0 else -1) * rnd.randint(1, 5)
    r_disc = rnd.choice([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
    disc_trunc = green.Truncation(radius=_pick(20, 6, size))
    ops.append(Op(
        "green_solve_discounted.z", "exact",
        lambda: green.green_solve_discounted(z, 0, r_disc, [(dx, dy)], disc_trunc, exact=True),
        lambda: z.exact_green(dx, dy) + r_disc / (1 - r_disc) * z.exact_green(0, dy),
        lambda res, exp: orc.exact_equal(res[0], exp),
    ))

    mx, my = rnd.randint(1, 8), rnd.randint(1, 8)
    m_radius = _pick(30, 10, size)
    ops.append(Op(
        "martin_kernel.z", "exact",
        lambda: green.martin_kernel(z, 0, mx, my, radius=m_radius),
        lambda: z.exact_green(mx, my) / z.exact_green(0, my),
        lambda res, exp: orc.exact_equal(res.value, exp),
    ))

    t_radius = _pick(100, 20, size)

    def table_ok(table, q_diag):
        return (
            table.value((t_radius, t_radius)).p == 0
            and table.value((t_radius, t_radius)).q == q_diag
            and (table.value((1, 0)).p, table.value((1, 0)).q) == (1, 0)
            and (table.value((2, 0)).p, table.value((2, 0)).q) == (4, -8)
            and (table.value((2, 1)).p, table.value((2, 1)).q) == (-1, 8)
        )

    ops.append(Op(
        "potential_table", "exact",
        lambda: potential.potential_table(t_radius),
        lambda: orc.diagonal_potential_q(t_radius),
        table_ok,
    ))

    h_radius = _pick(20, 8, size)
    h_table = potential.potential_table(h_radius)
    ops.append(Op(
        "verify_harmonicity", "exact",
        lambda: potential.verify_harmonicity(h_table),
        lambda: (2 * h_radius - 1) ** 2 - 1,
        lambda rep, exp: rep.all_ok and rep.checked == exp,
    ))

    r_rows = rnd.choice([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    row_cases = [
        (z, htransform.TransformParams(0, z.parse_boundary("+inf"), r_rows), _pick(40, 8, size)),
        (bb, htransform.TransformParams(0, bb.parse_boundary("inf"), r_rows), _pick(40, 8, size)),
        (tree, htransform.TransformParams((), tree.parse_boundary("(0)*"), r_rows), _pick(6, 3, size)),
        (plane, htransform.TransformParams((0, 0), None, r_rows), _pick(8, 3, size)),
    ]
    ops.append(Op(
        "verify_row_sums", "exact",
        lambda: [htransform.verify_row_sums(c, p, rad) for c, p, rad in row_cases],
        lambda: [len(c.window(rad)) for c, _, rad in row_cases],
        lambda reps, exp: all(r.all_ok and r.checked == n for r, n in zip(reps, exp)),
    ))

    rn_start, rn_len = rnd.randint(-2, 2), _pick(10, 4, size)
    rn_params = htransform.TransformParams(0, z.parse_boundary("+inf"), Fraction(1, 2))
    ops.append(Op(
        "rn_identity_check", "exact",
        lambda: htransform.rn_identity_check(z, rn_params, rn_start, rn_len),
        lambda: 2**rn_len,
        lambda rep, exp: rep.exact and rep.paths_checked == exp,
    ))

    ops.append(_golden_cli_op(
        "cli.green_exact",
        ["green", "--chain", "z", "--x0", "0", "--x", "2", "--y", "3",
         "--method", "exact", "--window-radius", str(_pick(50, 12, size))],
        size,
    ))
    ops.append(_golden_cli_op("cli.verify_exact", ["verify", "--suite", "exact"], size))
    return ops


# ---------------------------------------------------------------------------
# sample: seeded Monte-Carlo ensembles


def _sample_ops(rnd: random.Random, size: str) -> list:
    from recurmartin import examplechains as ec
    from recurmartin import green, htransform, potential

    z, bb, tree, plane = ec.ZWalk(), ec.BangBangWalk(), ec.KaryTree(2), ec.Z2Walk()
    half = Fraction(1, 2)
    ops = []

    def seed():
        return rnd.randrange(1, 2**31)

    def mc_op(name, call, expected):
        ops.append(Op(
            name, "mc", call, expected,
            lambda res, exp: orc.mc_close(res, exp),
            _green_estimates,
        ))

    def green_mc_op(name, chain, x0, x, y, runs, s, expected, **kw):
        mc_op(name, lambda: green.green_mc(chain, x0, x, y, runs, s, **kw), expected)

    y = rnd.randint(2, 5)
    green_mc_op("green_mc.line", z, 0, 2, y, _pick(10_000, 600, size), seed(),
                lambda y=y: float(z.exact_green(2, y)))
    y = rnd.randint(1, 3)
    green_mc_op("green_mc.halfline", bb, 0, 2, y, _pick(10_000, 600, size), seed(),
                lambda y=y: float(bb.exact_green(2, y)))
    ty = tuple(rnd.randint(0, 1) for _ in range(rnd.randint(1, 3)))
    green_mc_op("green_mc.tree", tree, (), (), ty, _pick(200_000, 600, size), seed(),
                lambda: float(tree.exact_green((), ty)))

    def table():
        return potential.potential_table(44)

    py = rnd.choice([(2, 0), (1, 1), (0, 2), (2, 1)])
    green_mc_op("green_mc.plane", plane, (0, 0), (1, 0), py, _pick(2000, 600, size), seed(),
                lambda: float(potential.origin_killed_green(table(), (1, 0), py)))
    # known defect: the line lane asks for the closed form at base 3 and raises
    # UnsupportedBasePointError; by translation the value is G_0(2, 3) = 4
    green_mc_op("green_mc.line_off_base", z, 3, 5, 6, _pick(2000, 600, size), seed(),
                lambda: float(z.exact_green(2, 3)))
    # known defect: off the origin the planar walk falls to the per-step lane;
    # the cap truncates runs (value by translation: G_0((1,0), (1,1)))
    green_mc_op("green_mc.plane_off_origin", plane, (1, 0), (2, 0), (2, 1),
                _pick(50, 10, size), PLANE_OFF_ORIGIN_SEED,
                lambda: float(potential.origin_killed_green(table(), (1, 0), (1, 1))),
                step_cap=_pick(10_000, 1000, size), on_cap="truncate")
    # generic per-step lane on a positive recurrent chain: above the base 2
    # the walk is the base-0 walk shifted by 2
    y = rnd.randint(3, 5)
    green_mc_op("green_mc.generic_halfline", bb, 2, 3, y, _pick(5000, 600, size), seed(),
                lambda y=y: float(bb.exact_green(1, y - 2)))

    starts = [1, 2, 3]
    targets = sorted(rnd.sample(range(2, 9), 3))
    grid_runs, grid_seed = _pick(3000, 600, size), seed()
    ops.append(Op(
        "green_mc_grid.line", "mc",
        lambda: green.green_mc_grid(z, 0, starts, targets, grid_runs, grid_seed),
        lambda: {(x, t): float(z.exact_green(x, t)) for x in starts for t in targets},
        lambda res, exp: set(res) == set(exp) and all(orc.mc_close(res[k], v) for k, v in exp.items()),
        _green_estimates,
    ))

    far = [(20, 0), (40, 0)]
    pot_runs, pot_seed = _pick(2000, 600, size), seed()
    ops.append(Op(
        "potential_mc", "mc",
        lambda: potential.potential_mc((1, 0), far, pot_runs, pot_seed, on_cap="truncate"),
        lambda: [float(potential.origin_killed_green(table(), (1, 0), t)) for t in far],
        lambda res, exp: len(res) == len(exp) and all(orc.mc_close(r, e) for r, e in zip(res, exp)),
        _green_estimates,
    ))

    # conditioned-chain witnesses, gated as in the conformance suite
    n_wit, steps = _pick(2000, 600, size), _pick(1000, 500, size)

    def increasing(rep):
        meds = [s["median"] for _, s in sorted(rep.snapshots.items())]
        return all(a < b for a, b in zip(meds, meds[1:]))

    witness = [
        ("line", z, htransform.TransformParams(0, z.parse_boundary("+inf"), half),
         dict(threshold=10), lambda rep, _: rep.fraction_above >= 0.93),
        ("halfline", bb, htransform.TransformParams(0, bb.parse_boundary("inf"), half),
         dict(threshold=100 if size == "full" else 50), lambda rep, _: rep.fraction_above >= 0.99),
        ("tree", tree, htransform.TransformParams((), tree.parse_boundary("(0)*"), half),
         dict(snapshots=(100, 300)), lambda rep, _: increasing(rep)),
        ("plane", plane, htransform.TransformParams((0, 0), None, half),
         dict(snapshots=(100, 300)), lambda rep, _: increasing(rep)),
    ]
    for kind, chain, params, kw, check in witness:
        ops.append(Op(
            f"convergence_stats.{kind}", "mc",
            lambda chain=chain, params=params, kw=kw, s=seed(): htransform.convergence_stats(
                chain, params, n_wit, steps, seed=s, **kw),
            lambda: None, check,
        ))
    tr_n, tr_steps, tr_seed = _pick(1000, 300, size), _pick(2000, 500, size), seed()
    ops.append(Op(
        "transience_witness.line", "mc",
        lambda: htransform.transience_witness(
            z, witness[0][2], trajectories=tr_n, steps=tr_steps, seed=tr_seed),
        lambda: None,
        lambda rep, _: rep.trajectories == tr_n and 0 <= rep.max_last_return <= tr_steps
        and rep.fraction_settled_by_half >= 0.5,
    ))

    def verify_ok(outcome, _):
        doc = orc.cli_json(outcome)
        return doc is not None and doc["result"]["counts"]["fail"] == 0

    ops.append(_cli_op("cli.verify_mc", ["verify", "--suite", "mc", "--seed", str(seed())], verify_ok))
    ops.append(_cli_op(
        "cli.potential_mc",
        ["potential", "--radius", "10", "--check", "mc", "--seed", str(seed()),
         "--trajectories", str(_pick(1000, 600, size))],
        lambda outcome, _: orc.cli_json(outcome) is not None,
    ))
    return ops


# ---------------------------------------------------------------------------
# measure: float windows, profiles and path-measure brackets


def _measure_ops(rnd: random.Random, size: str) -> list:
    from recurmartin import examplechains as ec
    from recurmartin import green, martin, sigma

    z, tree, plane = ec.ZWalk(), ec.KaryTree(2), ec.Z2Walk()
    ops = []

    def float_op(name, chain, x0, pairs, radius, expect, policy="loop"):
        trunc = green.Truncation(radius=radius, policy=policy)
        ops.append(Op(
            name, "float",
            lambda: green.green_solve(chain, x0, pairs, trunc),
            expect,
            lambda res, exp: len(res) == len(exp)
            and all(orc.float_close(r.value, e) for r, e in zip(res, exp)),
        ))

    def closed(chain, x0, pairs):
        return lambda: [float(ec.exact_green(chain, x0, x, y)) for x, y in pairs]

    for label, radius in (("dense", _pick(400, 30, size)), ("sparse", _pick(2000, 60, size))):
        pairs = []
        for _ in range(3):
            sign = rnd.choice((1, -1))
            pairs.append((sign * rnd.randint(1, 20), sign * rnd.randint(1, 20)))
        float_op(f"green_solve.z.{label}", z, 0, pairs, radius, closed(z, 0, pairs))
    for label, radius in (("dense", _pick(9, 3, size)), ("sparse", _pick(10, 4, size))):
        pairs = [
            (tuple(rnd.randint(0, 1) for _ in range(rnd.randint(0, 3))),
             tuple(rnd.randint(0, 1) for _ in range(rnd.randint(1, 3))))
            for _ in range(2)
        ]
        float_op(f"green_solve.tree.{label}", tree, (), pairs, radius, closed(tree, (), pairs))
    for label, radius in (("dense", _pick(20, 5, size)), ("sparse", _pick(30, 6, size))):
        pairs = [((1, 0), rnd.choice([(1, 1), (2, 0), (0, 2), (2, 1)]))]
        float_op(
            f"green_solve.plane.kill.{label}", plane, (0, 0), pairs, radius,
            lambda radius=radius, pairs=pairs: orc.reference_killed_green(
                plane, (0, 0), radius, "kill", pairs),
            policy="kill",
        )

    def profile_op(name, chain, x0, alpha_text, radius, points, mass):
        alpha = chain.parse_boundary(alpha_text)

        def run():
            phi = martin.profile_from_boundary(chain, x0, alpha)
            report = martin.check_harmonic_except(chain, phi, x0, chain.window(radius))
            return [phi(p) for p in points], report

        ops.append(Op(
            name, "exact", run,
            lambda: ([chain.exact_profile(p, alpha) for p in points], len(chain.window(radius)) - 1),
            lambda res, exp: all(orc.exact_equal(v, e) for v, e in zip(res[0], exp[0]))
            and res[1].all_ok and res[1].checked == exp[1] and res[1].balance_at_base == mass,
        ))

    profile_op("profile.z", z, 0, rnd.choice(["+inf", "-inf"]), _pick(200, 20, size),
               [rnd.randint(-50, 50) for _ in range(3)], Fraction(1))
    profile_op("profile.tree", tree, (), rnd.choice(["(0)*", "(1)*", "(01)*", "1(0)*"]),
               _pick(7, 3, size),
               [tuple(rnd.randint(0, 1) for _ in range(rnd.randint(1, 6))) for _ in range(3)],
               Fraction(1, 2))

    budget = _pick(40_000, 2000, size)
    config = sigma.AvoidanceConfig(state_budget=budget)
    phi_z = martin.profile_from_boundary(z, 0, z.parse_boundary("+inf"))
    ax = rnd.randint(2, 4)
    # separating branch: the value is phi(x) - phi(1) = 2x - 2
    ops.append(Op(
        "avoidance.z.separating", "float",
        lambda: sigma.avoidance_function(z, 0, phi_z, ax, 1, config),
        lambda: float(z.exact_profile(ax, z.parse_boundary("+inf")) - z.exact_profile(1, z.parse_boundary("+inf"))),
        lambda mv, exp: mv.verdict == "bracket-closed"
        and mv.bracket[0] - 1e-9 <= exp <= mv.bracket[1] + 1e-9,
    ))
    # generic branch: the upper bound phi(x) + balance * E[visits to the
    # root before (1,)] is 1 + (1/2) * 2 = 2 exactly
    phi_t = martin.profile_from_boundary(tree, (), tree.parse_boundary("(0)*"))
    ops.append(Op(
        "avoidance.tree.generic", "float",
        lambda: sigma.avoidance_function(tree, (), phi_t, (0,), (1,), config),
        lambda: 2.0,
        lambda mv, exp: orc.float_close(mv.bracket[1], exp)
        and 0.0 <= mv.bracket[0] <= mv.bracket[1],
    ))

    # cylinder {X_m = s} from 0 under phi = 2 max(x, 0): the weight at
    # horizon n is P_0(X_m = s) * E_s[phi(X_{n-m})], both binomial sums
    m = rnd.randint(2, 4)
    s_end = m - 2 * rnd.randint(0, 1)
    horizons = list(_pick((50, 100, 150, 200), (10, 20), size))

    def cylinder_expect():
        p_m = Fraction(math.comb(m, (m + s_end) // 2), 2**m)
        out = []
        for n in horizons:
            k = n - m
            e = sum(
                (Fraction(math.comb(k, j), 2**k) * 2 * max(s_end + 2 * j - k, 0) for j in range(k + 1)),
                Fraction(0),
            )
            out.append((n, p_m * e))
        return out

    ops.append(Op(
        "cylinder_measure.z", "exact",
        lambda: sigma.cylinder_measure(z, 0, phi_z, 0, sigma.state_at_time(m, s_end), horizons),
        cylinder_expect,
        lambda mv, exp: [(n, v) for n, v in mv.sequence] == exp
        and all(isinstance(v, Fraction) for _, v in mv.sequence),
    ))

    def measure_ok(outcome, _):
        doc = orc.cli_json(outcome)
        if doc is None:
            return False
        res = doc["result"]
        lo, hi = res["bracket"]
        return res["verdict"] == "bracket-closed" and lo - 1e-9 <= 2.0 <= hi + 1e-9

    ops.append(_cli_op(
        "cli.measure_avoid",
        ["measure", "--chain", "z", "--x0", "0", "--phi", "boundary:+inf", "--x", "2",
         "--event", "avoid:1"],
        measure_ok,
    ))

    def cli_value_ok(outcome, expected):
        doc = orc.cli_json(outcome)
        return doc is not None and orc.float_close(doc["result"]["value"], expected)

    ops.append(_cli_op(
        "cli.green_tree_window",
        ["green", "--chain", "tree:k=2", "--x0", "@", "--x", "0", "--y", "0.1",
         "--method", "exact", "--window-radius", str(_pick(9, 4, size))],
        cli_value_ok,
        lambda: 1.0,
    ))
    plane_radius = _pick(20, 9, size)  # both past the CLI's 300-state exact cap
    ops.append(_cli_op(
        "cli.green_plane_window",
        ["green", "--chain", "z2", "--x0", "0,0", "--x", "1,0", "--y", "2,1", "--method", "exact",
         "--policy", "kill", "--window-radius", str(plane_radius)],
        cli_value_ok,
        lambda: orc.reference_killed_green(plane, (0, 0), plane_radius, "kill", [((1, 0), (2, 1))])[0],
    ))
    ops.append(_golden_cli_op(
        "cli.martin_mixture",
        ["martin", "--chain", "tree:k=2", "--x0", "@", "--mixture", "1/2*(0)*+1/2*(1)*",
         "--eval", "@,0,0.1", "--window-radius", str(_pick(7, 3, size))],
        size,
    ))
    return ops


_OP_LISTS = {"exact": _exact_ops, "sample": _sample_ops, "measure": _measure_ops}


def build(workload: str, seed: int, size: str = "full") -> list:
    """The op list of one workload; the same seed gives the same inputs."""
    if workload not in _OP_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    return _OP_LISTS[workload](random.Random(f"{workload}:{seed}"), size)
