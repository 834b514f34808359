"""Command-line front end for the library.

Subcommands: ``green`` (killed Green values), ``martin`` (boundary
profiles), ``measure`` (path-space measure evaluations), ``simulate``
(transformed-chain ensembles), ``potential`` (planar potential-kernel
tables and checks), and ``verify`` (the conformance suite). All output is
JSON (or CSV where stated) on standard output; numeric rendering uses 12
significant digits; identical flag sets produce byte-identical output.
Exit codes: 0 success, 1 computation or check failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import RecurMartinError
from .examplechains import (
    ROOT,
    BangBangWalk,
    KaryTree,
    Z2Walk,
    ZWalk,
    chain_from_selector,
)
from .green import Truncation, default_radius, green_mc, green_solve
from .htransform import (
    TransformParams,
    convergence_stats,
    k_kernel,
    r_map,
    r_map_inverse,
    rn_identity_check,
    transience_witness,
    verify_row_sums,
)
from .martin import (
    BoundaryMixture,
    check_harmonic_except,
    mixture_profile,
    profile_from_boundary,
)
from .potential import (
    asymptotic_residual,
    origin_killed_green,
    potential_mc,
    potential_table,
    verify_harmonicity,
)
from .sigma import (
    avoidance_function,
    cylinder_measure,
    path_indicator,
    restricted_measure,
    state_at_time,
    verify_concatenation,
)

SIGNIFICANT_DIGITS = 12


# ---------------------------------------------------------------------------
# Chain selection and rendering


def _sig(value: float) -> float:
    return float(f"{float(value):.{SIGNIFICANT_DIGITS}g}")


def render(obj):
    """Recursive JSON-safe rendering: exact numbers as strings, floats at
    12 significant digits, with a ``numeric`` twin where helpful."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return _sig(obj)
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): render(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [render(v) for v in obj]
    if hasattr(obj, "p") and hasattr(obj, "q"):  # PiRational
        return {"p": str(obj.p), "q": str(obj.q), "numeric": _sig(float(obj))}
    return str(obj)


def emit(payload) -> None:
    sys.stdout.write(json.dumps(render(payload), sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation state; identical configs emit identical bytes."""

    subcommand: str
    options: tuple  # sorted (flag, value-text) pairs

    @staticmethod
    def from_args(subcommand: str, args: argparse.Namespace) -> "RunConfig":
        skip = {"func", "subcommand"}
        pairs = tuple(
            sorted(
                (k, str(v))
                for k, v in vars(args).items()
                if k not in skip and v is not None
            )
        )
        return RunConfig(subcommand, pairs)

    def as_dict(self) -> dict:
        return {"subcommand": self.subcommand, "options": dict(self.options)}


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_int_list(text: str) -> list:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _chain(selector, parser):
    try:
        return chain_from_selector(selector)
    except ValueError as exc:
        parser.error(f"--chain: {exc}")


def _state(chain, text, parser, flag):
    try:
        return chain.parse_state(text)
    except (ValueError, KeyError) as exc:
        parser.error(f"{flag}: {exc}")


def _boundary(chain, text, parser, flag):
    try:
        return chain.parse_boundary(text)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _mixture(chain, text, parser, flag) -> BoundaryMixture:
    # terms separate on '+' followed by a weight (digits); boundary-point
    # names such as +inf may themselves contain '+'
    atoms = []
    for term in re.split(r"\+(?=\d)", text):
        weight_text, sep, alpha_text = term.partition("*")
        if not sep:
            parser.error(f"{flag}: term {term!r} is not of the form weight*point")
        try:
            weight = Fraction(weight_text.strip())
        except (ValueError, ZeroDivisionError):
            parser.error(f"{flag}: bad weight in {term!r}")
        try:
            alpha = chain.parse_boundary(alpha_text.strip())
        except ValueError as exc:
            parser.error(f"{flag}: {exc}")
        atoms.append((alpha, weight))
    try:
        return BoundaryMixture(atoms)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _profile(chain, x0, phi_text, parser, flag):
    kind, sep, body = phi_text.partition(":")
    if not sep:
        parser.error(f"{flag}: expected boundary:<point> or mixture:<spec>")
    if kind == "boundary":
        return profile_from_boundary(chain, x0, _boundary(chain, body, parser, flag))
    if kind == "mixture":
        return mixture_profile(chain, x0, _mixture(chain, body, parser, flag))
    parser.error(f"{flag}: unknown profile kind {kind!r}")


def _path_states(chain, text, parser, flag):
    parts = [p for p in text.split(chain.path_separator) if p != ""]
    if not parts:
        parser.error(f"{flag}: empty path")
    return [_state(chain, p, parser, flag) for p in parts]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_green(args, parser):
    chain = _chain(args.chain, parser)
    x0 = _state(chain, args.x0, parser, "--x0")
    x = _state(chain, args.x, parser, "--x")
    y = _state(chain, args.y, parser, "--y")
    radius = args.window_radius
    if radius is None:
        radius = default_radius(chain, [x0, x, y])
    if args.method == "exact":
        window = chain.window(radius)
        exact = len(window) <= 300
        trunc = Truncation(radius=radius, policy=args.policy)
        (res,) = green_solve(chain, x0, [(x, y)], trunc, exact=exact)
        payload = {
            "value": float(res.value),
            "exact": str(res.value) if exact else None,
            "stderr": 0.0,
            "method": res.method,
            "window": {"radius": radius, "policy": args.policy},
        }
    else:
        if args.seed is None:
            parser.error("--seed is required for --method mc")
        res = green_mc(
            chain, x0, x, y, args.trajectories, args.seed,
            step_cap=args.step_cap, on_cap="truncate",
        )
        payload = {
            "value": res.value,
            "stderr": res.stderr,
            "method": res.method,
            "runs": res.runs,
            "truncated_runs": res.truncated_runs,
            "note": res.note,
        }
    emit({"config": RunConfig.from_args("green", args).as_dict(), "result": payload})
    return 0


def cmd_martin(args, parser):
    chain = _chain(args.chain, parser)
    x0 = _state(chain, args.x0, parser, "--x0")
    if (args.alpha is None) == (args.mixture is None):
        parser.error("exactly one of --alpha and --mixture is required")
    if args.alpha is not None:
        phi = profile_from_boundary(chain, x0, _boundary(chain, args.alpha, parser, "--alpha"))
    else:
        phi = mixture_profile(chain, x0, _mixture(chain, args.mixture, parser, "--mixture"))
    states = [_state(chain, t, parser, "--eval") for t in args.eval.split(",")]
    evaluations = {chain.format_state(s): phi.evaluate(s) for s in states}
    radius = args.window_radius or chain.check_radius
    report = check_harmonic_except(chain, phi, x0, chain.window(radius))
    payload = {
        "profile": phi.description,
        "evaluations": evaluations,
        "residuals": {
            "checked": report.checked,
            "all_ok": report.all_ok,
            "violations": [
                {"state": chain.format_state(s), "residual": r}
                for s, r in report.violations[:10]
            ],
            "balance_at_base": report.balance_at_base,
        },
    }
    emit({"config": RunConfig.from_args("martin", args).as_dict(), "result": payload})
    return 0


def cmd_measure(args, parser):
    chain = _chain(args.chain, parser)
    x0 = _state(chain, args.x0, parser, "--x0")
    x = _state(chain, args.x, parser, "--x")
    phi = _profile(chain, x0, args.phi, parser, "--phi")
    kind, sep, body = args.event.partition(":")
    if not sep:
        parser.error("--event: expected path:..., at:<m>=<state>, or avoid:<state>")
    if kind == "path":
        states = _path_states(chain, body, parser, "--event")
        if states[0] != x:
            parser.error("--event: path must start at --x")
        mv = restricted_measure(chain, x0, phi, x, path_indicator(states))
    elif kind == "at":
        time_text, eq, state_text = body.partition("=")
        if not eq:
            parser.error("--event: at needs the form at:<m>=<state>")
        try:
            m = int(time_text)
        except ValueError:
            parser.error("--event: time index must be an integer")
        target = _state(chain, state_text, parser, "--event")
        if not args.horizons:
            parser.error("--horizons is required for at: events")
        try:
            mv = cylinder_measure(chain, x0, phi, x, state_at_time(m, target), args.horizons)
        except ValueError as exc:
            parser.error(f"--horizons: {exc}")
    elif kind == "avoid":
        barred = _state(chain, body, parser, "--event")
        mv = avoidance_function(chain, x0, phi, x, barred)
    else:
        parser.error(f"--event: unknown event kind {kind!r}")
    payload = {
        "value": mv.value if mv.value is not None else None,
        "numeric": None if mv.value is None else float(mv.value),
        "mode": mv.mode,
        "verdict": mv.verdict,
        "sequence": mv.sequence,
        "bracket": mv.bracket,
        "note": mv.note,
    }
    emit({"config": RunConfig.from_args("measure", args).as_dict(), "result": payload})
    return 0


def cmd_simulate(args, parser):
    chain = _chain(args.chain, parser)
    x0 = _state(chain, args.x0, parser, "--x0")
    if not chain.boundary_points():
        alpha = None
        if args.alpha is not None:
            parser.error("--alpha: the planar walk has a single anonymous boundary point; omit the flag")
    else:
        if args.alpha is None:
            parser.error("--alpha is required for this chain")
        alpha = _boundary(chain, args.alpha, parser, "--alpha")
    params = TransformParams(x0, alpha, args.r)
    report = convergence_stats(
        chain, params, args.trajectories, args.steps, seed=args.seed,
        threshold=args.witness_threshold,
    )
    payload = report.as_dict()
    if args.transience:
        payload["transience"] = transience_witness(
            chain, params, trajectories=args.trajectories, steps=args.steps,
            seed=args.seed,
        ).as_dict()
    emit({"config": RunConfig.from_args("simulate", args).as_dict(), "result": payload})
    return 0


def cmd_potential(args, parser):
    if args.radius < 1:
        parser.error("--radius must be >= 1")
    if args.check is None:
        table = potential_table(args.radius)
        rows = [
            {"i": i, "j": j, "p": str(v.p), "q": str(v.q), "numeric": _sig(float(v))}
            for (i, j), v in table.octant_items()
        ]
        if args.emit == "csv":
            sys.stdout.write("i,j,p,q,numeric\n")
            for row in rows:
                sys.stdout.write(
                    f"{row['i']},{row['j']},{row['p']},{row['q']},{row['numeric']:.12g}\n"
                )
        else:
            emit({
                "config": RunConfig.from_args("potential", args).as_dict(),
                "result": {"radius": args.radius, "entries": rows},
            })
        return 0
    if args.emit == "csv":
        parser.error("--emit csv applies to table output only, not --check")
    if args.check == "harmonicity":
        report = verify_harmonicity(potential_table(args.radius))
        payload = {
            "radius": report.radius,
            "checked": report.checked,
            "violations": len(report.violations),
            "origin_defect": report.origin_defect,
            "symmetry_ok": report.symmetry_ok,
            "patch_oracle_ok": report.patch_oracle_ok,
            "note": report.odd_denominator_note,
        }
        ok = report.all_ok
    elif args.check == "asymptotics":
        if args.radius < 5:
            parser.error("--check asymptotics needs --radius >= 5 (it samples (5, 0), (10, 0), ...)")
        table = potential_table(args.radius)
        rows = []
        for n in range(5, args.radius + 1, 5):
            residual = asymptotic_residual(table, (n, 0))
            rows.append({
                "x": [n, 0],
                "residual": residual,
                "residual_times_norm2": residual * n**2,
            })
        bound = max(abs(r["residual_times_norm2"]) for r in rows)
        payload = {"radius": args.radius, "samples": rows, "bound": bound, "bounded": bound < 1.0}
        ok = bound < 1.0
    else:  # mc
        if args.seed is None:
            parser.error("--seed is required for --check mc")
        table = potential_table(max(args.radius, 44))
        x = (1, 0)
        targets = [(20, 0), (40, 0)]
        results = potential_mc(
            x, targets, args.trajectories, args.seed, on_cap="truncate"
        )
        rows = []
        ok = True
        for y, res in zip(targets, results):
            exact = float(origin_killed_green(table, x, y))
            within = abs(res.value - exact) <= 4 * max(res.stderr, 1e-12)
            ok = ok and within
            rows.append({
                "y": list(y),
                "estimate": res.value,
                "stderr": res.stderr,
                "exact": exact,
                "within_4_stderr": within,
            })
        payload = {"x": list(x), "trajectories": args.trajectories, "rows": rows}
    emit({
        "config": RunConfig.from_args("potential", args).as_dict(),
        "result": payload,
    })
    return 0 if ok else 1


def cmd_verify(args, parser):
    if args.suite in ("mc", "all") and args.seed is None:
        parser.error("--seed is required for --suite mc or all")
    report = verify_suite(args.suite, args.seed)
    emit({"config": RunConfig.from_args("verify", args).as_dict(), "result": report})
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Conformance suite


def _check(checks, check_id, reference, predicate, details):
    try:
        ok = predicate()
        status = "pass" if ok else "fail"
    except Exception as exc:  # a crashed check is a failed check
        status = "fail"
        details = f"{details}; raised {type(exc).__name__}: {exc}"
    checks.append({
        "id": check_id,
        "reference": reference,
        "status": status,
        "details": details,
    })


def _soft(checks, check_id, reference, details):
    checks.append({
        "id": check_id,
        "reference": reference,
        "status": "soft",
        "details": details,
    })


def _exact_checks(checks) -> None:
    z = ZWalk()
    bb = BangBangWalk()
    tree = KaryTree(2)
    plane = Z2Walk()
    half = Fraction(1, 2)
    pz = TransformParams(0, z.parse_boundary("+inf"), half)

    def green_closed_forms():
        pairs = [(2, 3), (3, 2), (-1, -4), (0, 2), (2, 0)]
        results = green_solve(z, 0, pairs, Truncation(radius=12), exact=True)
        if any(r.value != z.exact_green(x, y) for (x, y), r in zip(pairs, results)):
            return False
        if bb.exact_green(1, 1) != Fraction(3, 2) or bb.exact_green(0, 2) != Fraction(3, 4):
            return False
        bpairs = [(1, 1), (0, 2), (2, 3)]
        results = green_solve(bb, 0, bpairs, Truncation(radius=12), exact=True)
        if any(r.value != bb.exact_green(x, y) for (x, y), r in zip(bpairs, results)):
            return False
        nodes = [ROOT, (0,), (0, 1), (1, 0)]
        tpairs = [(a, b) for a in nodes for b in nodes]
        results = green_solve(tree, ROOT, tpairs, Truncation(radius=4), exact=True)
        return all(r.value == tree.exact_green(a, b) for (a, b), r in zip(tpairs, results))

    _check(
        checks, "green-closed-forms", "green.exact-window-solve",
        green_closed_forms,
        "exact window solves match the chains' closed-form visit counts",
    )

    def stationary_rows():
        for chain, x0, radius in ((z, 0, 15), (bb, 0, 15), (tree, ROOT, 4)):
            ys = [s for s in chain.window(radius) if s != x0][:12]
            results = green_solve(
                chain, x0, [(x0, y) for y in ys], Truncation(radius=radius), exact=True
            )
            for y, res in zip(ys, results):
                if res.value != chain.stationary(y) / chain.stationary(x0):
                    return False
        return True

    _check(
        checks, "green-stationary-row", "green.base-row-stationary-identity",
        stationary_rows,
        "visits from the base equal the stationary-mass ratio, exactly",
    )

    def profile_masses():
        for chain, x0, alpha, radius, mass in (
            (z, 0, z.parse_boundary("+inf"), 20, Fraction(1)),
            (bb, 0, bb.parse_boundary("inf"), 20, Fraction(4)),
            (tree, ROOT, tree.parse_boundary("(0)*"), 5, Fraction(1, 2)),
        ):
            phi = profile_from_boundary(chain, x0, alpha)
            rep = check_harmonic_except(chain, phi, x0, chain.window(radius))
            if not rep.all_ok or rep.balance_at_base != mass:
                return False
        return True

    _check(
        checks, "profile-harmonicity", "martin.profile-mass",
        profile_masses,
        "boundary profiles are harmonic off the base with masses 1, 4, 1/2",
    )

    phi_z = profile_from_boundary(z, 0, z.parse_boundary("+inf"))

    def sigma_enumeration():
        mv = restricted_measure(z, 0, phi_z, 0, path_indicator([0, 1, 2]))
        return mv.value == 1

    _check(
        checks, "sigma-restricted-enumeration", "sigma.defining-formula",
        sigma_enumeration,
        "restricted weight of the path 0,1,2 equals 1 exactly",
    )

    def sigma_concat():
        for chain, x0, x, y in ((z, 0, 1, 2), (tree, ROOT, (0,), (0, 1))):
            phi = (
                phi_z
                if chain is z
                else profile_from_boundary(tree, ROOT, tree.parse_boundary("(0)*"))
            )
            if not verify_concatenation(chain, x0, phi, x, y, 1, 3).all_ok:
                return False
        return verify_concatenation(z, 0, phi_z, 0, 2, 2, 4).all_ok

    _check(
        checks, "sigma-concatenation", "sigma.split-time-consistency",
        sigma_concat,
        "restricted weights split exactly at intermediate times",
    )

    def sigma_cylinder():
        mv = cylinder_measure(z, 0, phi_z, 0, path_indicator([0, 1, 2]), [2, 5, 7, 9, 11])
        values = [v for _, v in mv.sequence]
        increasing = all(a <= b for a, b in zip(values, values[1:]))
        strictly = values[-1] > values[0]
        return increasing and strictly and mv.verdict == "diverges"

    _check(
        checks, "sigma-cylinder-divergence", "sigma.monotone-cylinder-limit",
        sigma_cylinder,
        "the unrestricted initial-path cylinder grows without bound",
    )

    def row_sums():
        for chain, params, radius in (
            (z, pz, 15),
            (bb, TransformParams(0, bb.parse_boundary("inf"), half), 15),
            (tree, TransformParams(ROOT, tree.parse_boundary("(0)*"), half), 5),
            (plane, TransformParams((0, 0), None, half), 8),
        ):
            for r in (Fraction(1, 4), half, Fraction(3, 4)):
                rep = verify_row_sums(
                    chain, TransformParams(params.x0, params.alpha, r), radius
                )
                if not rep.all_ok:
                    return False
        return True

    _check(
        checks, "htransform-row-sums", "htransform.stochastic-rows",
        row_sums,
        "tilted and damped rows sum to one exactly on all four chains",
    )

    def rn_identity():
        return (
            rn_identity_check(z, pz, 0, 4).exact
            and rn_identity_check(bb, TransformParams(0, bb.parse_boundary("inf"), half), 0, 4).exact
            and rn_identity_check(
                tree, TransformParams(ROOT, tree.parse_boundary("(0)*"), half), ROOT, 3
            ).exact
        )

    _check(
        checks, "htransform-rn-identity", "htransform.change-of-measure",
        rn_identity,
        "pathwise change-of-measure identity holds exactly at short horizons",
    )

    def k_at_target():
        return all(k_kernel(z, pz, x, pz.alpha) == 1 for x in range(-10, 11))

    _check(
        checks, "htransform-kernel-at-target", "htransform.kernel-normalization",
        k_at_target,
        "the transformed kernel at the conditioning point is identically one",
    )

    def r_roundtrip():
        mapped = r_map(z, pz, phi_z)
        if any(mapped(x) != 1 for x in range(-12, 13)):
            return False
        recovered = r_map_inverse(z, pz, lambda x: Fraction(1))
        return all(recovered(x) == 2 * max(x, 0) for x in range(-12, 13))

    _check(
        checks, "htransform-profile-correspondence", "htransform.profile-bijection",
        r_roundtrip,
        "the profile map sends 2x+ to 1 and inverts exactly",
    )

    def potential_exact():
        table = potential_table(10)
        rep = verify_harmonicity(table)
        anchors = (
            table.value((1, 1)).p == 0 and table.value((1, 1)).q == 4
            and table.value((2, 0)).p == 4 and table.value((2, 0)).q == -8
            and table.value((2, 1)).p == -1 and table.value((2, 1)).q == 8
        )
        return rep.all_ok and anchors

    _check(
        checks, "potential-table", "potential.harmonicity-and-anchors",
        potential_exact,
        "potential table reproduces anchor values with exact harmonicity",
    )

    def negative_control():
        rep = check_harmonic_except(z, lambda s: Fraction(s) ** 2, 0, z.window(8))
        return (not rep.all_ok) and all(res == 1 for _, res in rep.violations)

    _check(
        checks, "negative-control-profile", "martin.residual-detection",
        negative_control,
        "a deliberately corrupted profile (x squared) is rejected with residual 1",
    )


def _mc_checks(checks, seed: int) -> None:
    z = ZWalk()
    bb = BangBangWalk()
    tree = KaryTree(2)
    half = Fraction(1, 2)

    def green_mc_line():
        res = green_mc(z, 0, 2, 3, 20_000, seed, step_cap=10**6, on_cap="truncate")
        return abs(res.value - float(z.exact_green(2, 3))) <= 4 * res.stderr

    _check(
        checks, "green-mc-line", "green.sampler-consistency",
        green_mc_line,
        "line sampler within four standard errors of the exact value",
    )

    def green_mc_tree():
        res = green_mc(tree, ROOT, (0,), (0, 0), 20_000, seed + 1)
        return abs(res.value - float(tree.exact_green((0,), (0, 0)))) <= 4 * res.stderr

    _check(
        checks, "green-mc-tree", "green.sampler-consistency",
        green_mc_tree,
        "tree sampler within four standard errors of the exact value",
    )

    def potential_mc_check():
        table = potential_table(34)
        (res,) = potential_mc(
            (1, 0), [(30, 0)], 10_000, seed + 2, on_cap="truncate", escape_radius=32
        )
        exact = float(origin_killed_green(table, (1, 0), (30, 0)))
        return abs(res.value - exact) <= 4 * res.stderr

    _check(
        checks, "potential-mc", "potential.far-target-limit",
        potential_mc_check,
        "planar visit estimates track the potential kernel toward far targets",
    )

    def witness_halfline():
        rep = convergence_stats(
            bb, TransformParams(0, bb.parse_boundary("inf"), half),
            4000, 1000, seed=seed + 3, threshold=100,
        )
        return rep.fraction_above >= 0.99

    _check(
        checks, "witness-halfline-ballistic", "htransform.target-convergence",
        witness_halfline,
        "conditioned half-line walk crosses 100 by step 1000 in >= 99% of runs",
    )

    def witness_line():
        rep = convergence_stats(
            z, TransformParams(0, z.parse_boundary("+inf"), half),
            4000, 1000, seed=seed + 4, threshold=10,
        )
        return rep.fraction_above >= 0.93

    _check(
        checks, "witness-line-calibrated", "htransform.target-convergence",
        witness_line,
        "conditioned line walk exceeds 10 by step 1000 in >= 93% of runs "
        "(diffusive scale: the witness statistic grows like the square root of time)",
    )

    def witness_tree():
        rep = convergence_stats(
            tree, TransformParams(ROOT, tree.parse_boundary("(0)*"), half),
            2000, 2000, seed=seed + 5, snapshots=(100, 500),
        )
        m = [rep.snapshots[s]["median"] for s in (100, 500, 2000)]
        return m[0] < m[1] < m[2]

    _check(
        checks, "witness-tree-agreement", "htransform.target-convergence",
        witness_tree,
        "median ray agreement strictly increases across step counts",
    )

    tr = transience_witness(
        z, TransformParams(0, z.parse_boundary("+inf"), half),
        trajectories=2000, steps=4000, seed=seed + 6,
    )
    _soft(
        checks, "transience-last-return", "htransform.transience",
        f"mean returns {tr.mean_returns:.3f}, max last-return step {tr.max_last_return} "
        f"of {4000}, settled by half-time in {tr.fraction_settled_by_half:.1%} of runs",
    )


def verify_suite(selector: str, seed: Optional[int]) -> dict:
    """Run the conformance checks; ``exact`` needs no randomness."""
    if selector not in ("exact", "mc", "all"):
        raise ValueError("selector must be exact, mc, or all")
    checks: list = []
    if selector in ("exact", "all"):
        _exact_checks(checks)
    if selector in ("mc", "all"):
        _mc_checks(checks, int(seed))
    counts = {
        "pass": sum(1 for c in checks if c["status"] == "pass"),
        "fail": sum(1 for c in checks if c["status"] == "fail"),
        "soft": sum(1 for c in checks if c["status"] == "soft"),
    }
    return {"suite": selector, "seed": seed, "counts": counts, "checks": checks}


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurmartin",
        description="Killed Green functions, boundary profiles, path-space "
        "measures, conditioned chains, and the planar potential kernel.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("green", help="killed Green function values")
    g.add_argument("--chain", required=True)
    g.add_argument("--x0", required=True, help="base state text")
    g.add_argument("--x", required=True)
    g.add_argument("--y", required=True)
    g.add_argument("--method", choices=("exact", "mc"), default="exact")
    g.add_argument("--window-radius", type=int, default=None)
    g.add_argument("--policy", choices=("loop", "kill"), default="loop")
    g.add_argument("--trajectories", type=int, default=10_000)
    g.add_argument(
        "--step-cap", type=int, default=10**6,
        help="draws per Monte Carlo run before it is truncated: one per step, "
        "on z (and bangbang at --x0 0) one per jump to the next of --x0, --y "
        "and the escape box's edges that the run meets, on z2 one per jump "
        "across a square holding neither --x0 nor --y",
    )
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_green)

    m = sub.add_parser("martin", help="boundary-point profiles and residuals")
    m.add_argument("--chain", required=True)
    m.add_argument("--x0", required=True)
    m.add_argument("--alpha", default=None, help="boundary point text")
    m.add_argument("--mixture", default=None, help='e.g. "1*+inf+2*-inf"')
    m.add_argument("--eval", required=True, help="comma-separated state texts")
    m.add_argument("--window-radius", type=int, default=None)
    m.set_defaults(func=cmd_martin)

    e = sub.add_parser("measure", help="path-space measure evaluations")
    e.add_argument("--chain", required=True)
    e.add_argument("--x0", required=True)
    e.add_argument("--phi", required=True, help="boundary:<point> or mixture:<spec>")
    e.add_argument("--x", required=True)
    e.add_argument(
        "--event", required=True,
        help="path:<p0.p1...> (slash-separated for trees), at:<m>=<state>, avoid:<state>",
    )
    e.add_argument("--horizons", type=_parse_int_list, default=None)
    e.set_defaults(func=cmd_measure)

    s = sub.add_parser("simulate", help="conditioned-chain trajectory ensembles")
    s.add_argument("--chain", required=True)
    s.add_argument("--x0", required=True)
    s.add_argument("--alpha", default=None)
    s.add_argument("--r", type=_parse_fraction, default=Fraction(1, 2))
    s.add_argument("--trajectories", type=int, default=10_000)
    s.add_argument("--steps", type=int, default=1000)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--witness-threshold", type=float, default=None)
    s.add_argument("--transience", action="store_true",
                   help="also report last-return statistics")
    s.set_defaults(func=cmd_simulate)

    p = sub.add_parser("potential", help="planar potential-kernel table and checks")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--emit", choices=("json", "csv"), default="json")
    p.add_argument("--check", choices=("asymptotics", "harmonicity", "mc"), default=None)
    p.add_argument("--trajectories", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_potential)

    v = sub.add_parser("verify", help="conformance suite")
    v.add_argument("--suite", choices=("exact", "mc", "all"), default="all")
    v.add_argument("--seed", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (RecurMartinError, ValueError, NotImplementedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
