"""End-to-end checks of the command-line front end.

Each test drives ``cli.run`` through real argv lists and inspects the JSON
(or CSV) it writes, so flag parsing, exit codes, and output determinism
are all exercised exactly as a shell user would see them.
"""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from recurmartin import cli
from recurmartin.cli import run, verify_suite
from recurmartin.examplechains import KaryTree, chain_from_selector
from recurmartin.green import Truncation, green_solve


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def glued(argv, flags):
    """``argv`` with each of ``flags`` and its value written as --flag=value."""
    out = []
    for word in argv:
        if out and out[-1] in flags:
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def assert_minus_values_read_as_glued(capsys, argv, flags):
    """A value beginning with '-' after one of ``flags`` is read as a value:
    the bytes and exit code are those of its --flag=value spelling."""
    spaced, joined = invoke(capsys, *argv), invoke(capsys, *glued(argv, flags))
    assert spaced == joined
    assert spaced[0] == 0


class TestGreen:
    def test_exact_line_value(self, capsys):
        code, doc = invoke_json(
            capsys, "green", "--chain", "z", "--x0", "0", "--x", "2",
            "--y", "3", "--method", "exact", "--window-radius", "50",
        )
        assert code == 0
        assert doc["result"]["value"] == 4.0
        assert doc["result"]["exact"] == "4"
        assert doc["result"]["window"]["radius"] == 50

    def test_exact_tree_defaults_to_small_window(self, capsys):
        code, doc = invoke_json(
            capsys, "green", "--chain", "tree:k=2", "--x0", "@",
            "--x", "0", "--y", "0.0",
        )
        assert code == 0
        assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["result"]["window"]["radius"] <= 8

    @pytest.mark.parametrize("chain, x0, x, radius, exact", [
        ("z", "0", "2", 149, True),        # 299 states
        ("z", "0", "2", 150, False),       # 301 states
        ("tree:k=2", "@", "0", 7, True),   # 255 states
        ("tree:k=2", "@", "0", 8, False),  # 511 states
    ])
    def test_exact_method_solves_in_fractions_up_to_300_states(
        self, capsys, chain, x0, x, radius, exact
    ):
        code, doc = invoke_json(
            capsys, "green", "--chain", chain, "--x0", x0, "--x", x, "--y", x,
            "--method", "exact", "--window-radius", str(radius),
        )
        assert code == 0
        assert (doc["result"]["exact"] is not None) == exact

    def test_mc_line_off_the_base_point(self, capsys):
        code, doc = invoke_json(
            capsys, "green", "--chain", "z", "--x0", "3", "--x", "5",
            "--y", "6", "--method", "mc", "--seed", "1",
            "--trajectories", "2000",
        )
        assert code == 0
        res = doc["result"]
        assert abs(res["value"] - 4.0) <= 5 * res["stderr"]

    def test_mc_plane_off_the_origin(self, capsys):
        # the per-step lane did not finish this call in 600 s
        t0 = time.perf_counter()
        code, doc = invoke_json(
            capsys, "green", "--chain", "z2", "--x0", "1,0", "--x", "2,0",
            "--y", "2,1", "--method", "mc", "--seed", "3",
            "--trajectories", "2000",
        )
        assert time.perf_counter() - t0 < 30
        assert code == 0
        res = doc["result"]
        assert abs(res["value"] - 4 / math.pi) <= 5 * res["stderr"]
        assert res["truncated_runs"] == 0
        # lane provenance stays off the default payload
        assert set(res) == {"value", "stderr", "method", "runs", "truncated_runs", "note"}

    def test_mc_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["green", "--chain", "z", "--x0", "0", "--x", "1",
                 "--y", "2", "--method", "mc"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_mc_runs_with_seed(self, capsys):
        code, doc = invoke_json(
            capsys, "green", "--chain", "z", "--x0", "0", "--x", "2",
            "--y", "3", "--method", "mc", "--seed", "11",
            "--trajectories", "4000",
        )
        assert code == 0
        res = doc["result"]
        assert abs(res["value"] - 4.0) <= 4 * res["stderr"]

    def test_unknown_chain_is_usage_error(self, capsys):
        for selector in ("nosuch", "bangbang:q=1/0"):
            with pytest.raises(SystemExit) as exc:
                run(["green", "--chain", selector, "--x0", "0", "--x", "1", "--y", "1"])
            assert exc.value.code == 2
            assert "--chain" in capsys.readouterr().err

    def test_bad_state_names_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["green", "--chain", "z", "--x0", "0", "--x", "north", "--y", "1"])
        assert exc.value.code == 2
        assert "--x" in capsys.readouterr().err

    def test_a_state_beginning_with_a_minus_is_a_value(self, capsys):
        assert_minus_values_read_as_glued(
            capsys, ["green", "--chain", "z2", "--x0", "0,0", "--x", "-1,0", "--y", "2,0",
                     "--window-radius", "6"], {"--x"})


@pytest.mark.parametrize("radius", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["green", "--chain", "z", "--x0", "0", "--x", "1", "--y", "2"],
        ["martin", "--chain", "z", "--x0", "0", "--alpha", "+inf", "--eval", "1"],
    ],
    ids=["green", "martin"],
)
def test_window_radius_below_one_is_usage_error(capsys, argv, radius):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--window-radius", radius])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--window-radius" in captured.err


class TestMartin:
    def test_line_profile_evaluations(self, capsys):
        code, doc = invoke_json(
            capsys, "martin", "--chain", "z", "--x0", "0",
            "--alpha", "+inf", "--eval=-3,0,2,5",
        )
        assert code == 0
        assert doc["result"]["evaluations"] == {"-3": "0", "0": "0", "2": "4", "5": "10"}
        assert doc["result"]["residuals"]["all_ok"] is True
        assert doc["result"]["residuals"]["balance_at_base"] == "1"

    def test_mixture_balance_is_total_mass(self, capsys):
        code, doc = invoke_json(
            capsys, "martin", "--chain", "z", "--x0", "0",
            "--mixture", "3*+inf+1/2*-inf", "--eval", "1",
        )
        assert code == 0
        assert doc["result"]["residuals"]["balance_at_base"] == "7/2"

    @pytest.mark.parametrize("argv, far", [
        (["--chain", "tree:k=2", "--x0", "0", "--alpha", "(0)*", "--eval", "@,1,0.0,0.1"], "0.0.0.0"),
        (["--chain", "bangbang", "--x0", "2", "--alpha", "inf", "--eval", "0,3,7"], "9"),
    ], ids=["tree", "bangbang"])
    def test_off_base_kernels_are_evaluated(self, capsys, argv, far):
        # each value is the visit ratio toward a target far along the end,
        # over beta(x0), from the exact loop-window solve
        code, doc = invoke_json(capsys, "martin", *argv)
        assert code == 0
        flags = dict(zip(argv[::2], argv[1::2]))
        chain = chain_from_selector(flags["--chain"])
        x0, y = chain.parse_state(flags["--x0"]), chain.parse_state(far)
        xs = [chain.parse_state(t) for t in flags["--eval"].split(",")]
        g0, *gs = green_solve(chain, x0, [(x, y) for x in [x0, *xs]], Truncation(radius=10), exact=True)
        beta0 = chain.stationary(x0)
        want = {chain.format_state(x): str(g.value / g0.value / beta0) for x, g in zip(xs, gs)}
        assert doc["result"]["evaluations"] == want
        assert doc["result"]["residuals"]["all_ok"] is True
        assert doc["result"]["residuals"]["balance_at_base"] == str(1 / beta0)

    @pytest.mark.parametrize("argv", [
        ["martin", "--chain", "z", "--x0", "0", "--alpha", "-inf", "--eval", "1"],
        ["martin", "--chain", "z", "--x0", "0", "--alpha", "+inf", "--eval", "-1,2"],
    ], ids=["alpha", "eval"])
    def test_values_beginning_with_a_minus_are_values(self, capsys, argv):
        assert_minus_values_read_as_glued(capsys, argv, {"--alpha", "--eval"})

    def test_alpha_and_mixture_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["martin", "--chain", "z", "--x0", "0", "--alpha", "+inf",
                 "--mixture", "1*+inf", "--eval", "1"])
        assert exc.value.code == 2


class TestMeasure:
    def test_path_event_exact(self, capsys):
        code, doc = invoke_json(
            capsys, "measure", "--chain", "z", "--x0", "0",
            "--phi", "boundary:+inf", "--x", "0", "--event", "path:0.1.2",
        )
        assert code == 0
        assert doc["result"]["value"] == "1"
        assert doc["result"]["mode"] == "exact"

    def test_at_event_diverges(self, capsys):
        code, doc = invoke_json(
            capsys, "measure", "--chain", "z", "--x0", "0",
            "--phi", "boundary:+inf", "--x", "0", "--event", "at:2=2",
            "--horizons", "2,5,7,9,11",
        )
        assert code == 0
        res = doc["result"]
        assert res["verdict"] == "diverges"
        assert [v for _, v in res["sequence"]] == ["1", "17/16", "9/8", "303/256", "317/256"]

    def test_avoid_event_off_the_base(self, capsys):
        # every path from 3 to the end passes 4; avoiding 1 leaves
        # phi(3) - phi(1) + E_3[visits to 2 before T_1] / beta(2) = 16 - 0 + (3/2) (16/3),
        # the visits being the loop-window solve G_1(3, 2) = 3/2
        for barred, value in (("4", "0"), ("1", "24")):
            code, doc = invoke_json(
                capsys, "measure", "--chain", "bangbang", "--x0", "2", "--phi", "boundary:inf",
                "--x", "3", "--event", f"avoid:{barred}",
            )
            assert code == 0 and doc["result"]["value"] == value

    def test_avoid_event_brackets_shifted_profile(self, capsys):
        code, doc = invoke_json(
            capsys, "measure", "--chain", "z", "--x0", "0",
            "--phi", "boundary:+inf", "--x", "3", "--event", "avoid:1",
        )
        assert code == 0
        lo, hi = doc["result"]["bracket"]
        assert lo <= 4.0 <= hi
        assert hi - lo < 0.05 * doc["result"]["numeric"]
        assert doc["result"]["value"] == "4"

    def test_avoid_event_on_the_tree_is_exact(self, capsys):
        start = time.perf_counter()
        code, doc = invoke_json(
            capsys, "measure", "--chain", "tree:k=2", "--x0", "@",
            "--phi", "boundary:(0)*", "--x", "0", "--event", "avoid:1",
        )
        assert time.perf_counter() - start < 0.5
        assert code == 0
        res = doc["result"]
        assert res["value"] == "2" and res["verdict"] == "bracket-closed"
        assert res["mode"] == "exact" and res["bracket"] == [2.0, 2.0]

    def test_tree_paths_use_slashes(self, capsys):
        code, doc = invoke_json(
            capsys, "measure", "--chain", "tree:k=2", "--x0", "@",
            "--phi", "boundary:(0)*", "--x", "0", "--event", "path:0/0.0",
        )
        assert code == 0
        assert doc["result"]["value"] == "3/4"

    def test_at_event_requires_horizons(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["measure", "--chain", "z", "--x0", "0", "--phi",
                 "boundary:+inf", "--x", "0", "--event", "at:2=2"])
        assert exc.value.code == 2
        assert "--horizons" in capsys.readouterr().err


class TestSimulate:
    def test_halfline_ballistic(self, capsys):
        code, doc = invoke_json(
            capsys, "simulate", "--chain", "bangbang:q=1/3", "--x0", "0",
            "--alpha", "inf", "--r", "1/2", "--trajectories", "500",
            "--steps", "600", "--seed", "42", "--witness-threshold", "100",
        )
        assert code == 0
        assert doc["result"]["fraction_above"] == 1.0

    def test_plane_needs_no_alpha(self, capsys):
        code, doc = invoke_json(
            capsys, "simulate", "--chain", "z2", "--x0", "0,0",
            "--trajectories", "200", "--steps", "200", "--seed", "9",
            "--transience",
        )
        assert code == 0
        assert doc["result"]["final_median"] > 3.0
        assert doc["result"]["transience"]["fraction_settled_by_half"] > 0.8

    def test_values_beginning_with_a_minus_are_values(self, capsys):
        argv = ["simulate", "--chain", "z", "--x0", "0", "--trajectories", "200",
                "--steps", "100", "--seed", "1"]
        assert_minus_values_read_as_glued(capsys, [*argv, "--alpha", "-inf"], {"--alpha"})
        # a negative damping is refused as r = 0 is, not as a missing value
        for r in ("-1/2", "0"):
            assert run([*argv, "--alpha", "+inf", "--r", r]) == 1
            assert "damping must satisfy 0 < r < 1" in capsys.readouterr().err
        # a long word is still an option: an unknown one is a usage error
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--alpha", "+inf", "--bogus", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_seed_is_mandatory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--chain", "z", "--x0", "0", "--alpha", "+inf"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestPotential:
    def test_json_table_has_classical_value(self, capsys):
        code, doc = invoke_json(capsys, "potential", "--radius", "2")
        assert code == 0
        by_point = {(e["i"], e["j"]): e for e in doc["result"]["entries"]}
        entry = by_point[(2, 1)]
        assert (entry["p"], entry["q"]) == ("-1", "8")
        assert entry["numeric"] == pytest.approx(8 / 3.14159265358979 - 1, abs=1e-10)

    def test_csv_columns(self, capsys):
        code, out = invoke(capsys, "potential", "--radius", "2", "--emit", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,p,q,numeric"
        assert lines[1] == "0,0,0,0,0"
        assert any(line.startswith("2,1,-1,8,") for line in lines)
        # the rows alone: no JSON envelope before or after them
        assert all(line[0].isdigit() for line in lines[1:])

    def test_harmonicity_check_passes(self, capsys):
        code, doc = invoke_json(
            capsys, "potential", "--radius", "12", "--check", "harmonicity",
        )
        assert code == 0
        assert doc["result"]["violations"] == 0
        assert doc["result"]["origin_defect"] == "1"

    def test_asymptotics_check_bounded(self, capsys):
        code, doc = invoke_json(
            capsys, "potential", "--radius", "20", "--check", "asymptotics",
        )
        assert code == 0
        assert doc["result"]["bounded"] is True
        assert doc["result"]["bound"] < 0.1

    def test_mc_check_needs_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["potential", "--radius", "10", "--check", "mc"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_mc_check_refuses_fewer_than_one_trajectory(self, capsys, runs):
        # no mean to print: no NaN estimate, no numpy error
        code = run([
            "potential", "--radius", "10", "--check", "mc", "--seed", "1",
            "--trajectories", runs,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: need at least one trajectory\n"

    @pytest.mark.parametrize("argv", [
        ("--radius", "0"),
        ("--radius", "-2", "--check", "harmonicity"),
        ("--radius", "3", "--check", "asymptotics"),
        ("--radius", "4", "--check", "asymptotics"),
    ])
    def test_radius_out_of_range_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(["potential", *argv])
        assert exc.value.code == 2
        assert "--radius" in capsys.readouterr().err

    def test_asymptotics_at_the_smallest_radius(self, capsys):
        code, doc = invoke_json(capsys, "potential", "--radius", "5", "--check", "asymptotics")
        assert code == 0
        assert [s["x"] for s in doc["result"]["samples"]] == [[5, 0]]


class TestPotentialGolden:
    """Potential-table stdout pinned byte for byte.

    Each file under ``tests/golden`` is the stdout of ``python -m recurmartin``
    with the argv below, recorded while the table was still built in
    ``Fraction`` pairs and rendered to floats through mpmath.
    """

    GOLDEN = Path(__file__).parent / "golden"
    CASES = {
        "potential_r40_csv": ("--radius", "40", "--emit", "csv"),
        "potential_r3_json": ("--radius", "3", "--emit", "json"),
        "potential_r20_harmonicity": ("--radius", "20", "--check", "harmonicity"),
        "potential_r25_asymptotics": ("--radius", "25", "--check", "asymptotics"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_matches_recorded_bytes(self, capsys, name):
        code, out = invoke(capsys, "potential", *self.CASES[name])
        assert code == 0
        assert out == (self.GOLDEN / f"{name}.out").read_text()


class TestExactGolden:
    """Exact-lane stdout pinned byte for byte.

    Each file under ``tests/golden`` is the stdout of ``python -m recurmartin``
    with the argv below, recorded while the window elimination still ran on
    ``Fraction`` entries. The z2 kill window of radius 8 (289 states) is the
    largest non-tree window the CLI still solves exactly. The two cylinder
    sequences were recorded while the cylinder program had its own forward
    loop, apart from the n-step laws. The half-line, line and 3-ary tree
    profiles, the tree mixture's avoidance value and the half-line cylinder
    were recorded while profile, mixture and kernel values were still chains
    of normalising ``Fraction`` operations. The tree profile off the root was
    recorded when the kernel first took bases off the root; its values are
    the loop-window solves of ``TestMartin.test_off_base_kernels_are_evaluated``.
    """

    GOLDEN = Path(__file__).parent / "golden"
    CASES = {
        "verify_exact": ("verify", "--suite", "exact"),
        "green_z_exact_r50": ("green", "--chain", "z", "--x0", "0", "--x", "2", "--y", "3",
                              "--method", "exact", "--window-radius", "50"),
        "martin_tree_mixture_r7": ("martin", "--chain", "tree:k=2", "--x0", "@",
                                   "--mixture", "1/2*(0)*+1/2*(1)*", "--eval", "@,0,0.1",
                                   "--window-radius", "7"),
        "green_z2_kill_exact_r8": ("green", "--chain", "z2", "--x0", "0,0", "--x", "1,0",
                                   "--y", "2,0", "--method", "exact", "--policy", "kill",
                                   "--window-radius", "8"),
        "measure_z_cylinder": ("measure", "--chain", "z", "--x0", "0", "--phi", "boundary:+inf",
                               "--x", "0", "--event", "at:3=1", "--horizons", "3,10,50"),
        "measure_tree_cylinder": ("measure", "--chain", "tree:k=2", "--x0", "@",
                                  "--phi", "boundary:(0)*", "--x", "@", "--event", "at:3=0",
                                  "--horizons", "3,6,9"),
        "martin_bangbang_boundary_r30": ("martin", "--chain", "bangbang:q=1/3", "--x0", "0",
                                         "--alpha", "inf", "--eval", "0,1,5,12",
                                         "--window-radius", "30"),
        "martin_z_mixture_r20": ("martin", "--chain", "z", "--x0", "0",
                                 "--mixture", "1/3*+inf+2/3*-inf", "--eval=-4,0,7",
                                 "--window-radius", "20"),
        "martin_tree3_mixture_r4": ("martin", "--chain", "tree:k=3", "--x0", "@",
                                    "--mixture", "1/3*(0)*+2/5*1(2)*+1/7*(0.1)*",
                                    "--eval", "@,0,1.2,0.1.0", "--window-radius", "4"),
        "measure_tree_mixture_avoid": ("measure", "--chain", "tree:k=2", "--x0", "@",
                                       "--phi", "mixture:1/3*(0)*+2/3*(1)*", "--x", "0",
                                       "--event", "avoid:1"),
        "measure_bangbang_cylinder": ("measure", "--chain", "bangbang:q=1/3", "--x0", "0",
                                      "--phi", "boundary:inf", "--x", "0", "--event", "at:4=2",
                                      "--horizons", "4,10,30"),
        "martin_tree_boundary_off_root": ("martin", "--chain", "tree:k=2", "--x0", "0",
                                          "--alpha", "(0)*", "--eval", "1,0.0,@"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_matches_recorded_bytes(self, capsys, name):
        code, out = invoke(capsys, *self.CASES[name])
        assert code == 0
        assert out == (self.GOLDEN / f"{name}.out").read_text()


class TestFloatGolden:
    """Float-lane stdout pinned byte for byte.

    Each file under ``tests/golden`` is the stdout of ``python -m recurmartin``
    with the argv below, recorded while the float solve still factored in
    SuperLU's COLAMD column order. The first two solve z2 windows past the
    CLI's 300-state exact switch; ``tree:k=3`` at its default radius stays
    exact, ``tree:k=2`` at radius 9 (1,023 states) goes to floats, and the
    avoidance value takes the separating branch.
    """

    GOLDEN = Path(__file__).parent / "golden"
    CASES = {
        "green_z2_float": ("green", "--chain", "z2", "--x0", "0,0", "--x", "1,0", "--y", "2,0"),
        "green_z2_kill_float_r20": ("green", "--chain", "z2", "--x0", "0,0", "--x", "1,0",
                                    "--y", "2,1", "--method", "exact", "--policy", "kill",
                                    "--window-radius", "20"),
        "green_tree3_float": ("green", "--chain", "tree:k=3", "--x0", "@", "--x", "1.2",
                              "--y", "1"),
        "green_tree2_float_r9": ("green", "--chain", "tree:k=2", "--x0", "@", "--x", "0",
                                 "--y", "0.1", "--method", "exact", "--window-radius", "9"),
        "measure_z_avoid": ("measure", "--chain", "z", "--x0", "0", "--phi", "boundary:+inf",
                            "--x", "2", "--event", "avoid:1"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_matches_recorded_bytes(self, capsys, name):
        code, out = invoke(capsys, *self.CASES[name])
        assert code == 0
        assert out == (self.GOLDEN / f"{name}.out").read_text()


def test_import_and_float_rendering_leave_mpmath_unloaded():
    code = (
        "import sys\n"
        "import recurmartin.cli\n"
        "from recurmartin import potential\n"
        "print('mpmath' in sys.modules)\n"
        "table = potential.potential_table(30)\n"
        "table.float_array(), float(table.value((7, 3)))\n"
        "print('mpmath' in sys.modules)\n"
        "table.value((7, 3)).decimal()\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    # only the decimal rendering (and the asymptotic residual) need mpmath
    assert out.stdout.split() == ["False", "False", "True"]


class TestVerify:
    def test_exact_suite_passes_without_seed(self, capsys):
        code, doc = invoke_json(capsys, "verify", "--suite", "exact")
        assert code == 0
        counts = doc["result"]["counts"]
        assert counts["fail"] == 0
        assert counts["pass"] >= 10

    def test_full_suite_exit_zero(self, capsys):
        code, doc = invoke_json(capsys, "verify", "--suite", "all", "--seed", "7")
        assert code == 0
        assert doc["result"]["counts"]["fail"] == 0

    def test_corrupted_profile_control_entry(self, capsys):
        code, doc = invoke_json(capsys, "verify", "--suite", "exact")
        ids = {c["id"]: c for c in doc["result"]["checks"]}
        control = ids["negative-control-profile"]
        assert control["status"] == "pass"
        assert "residual 1" in control["details"]

    def test_mc_suite_needs_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "mc"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_report_is_seed_stable(self):
        first = verify_suite("mc", 123)
        second = verify_suite("mc", 123)
        assert first == second

    def test_every_check_has_reference(self, capsys):
        code, doc = invoke_json(capsys, "verify", "--suite", "all", "--seed", "5")
        for check in doc["result"]["checks"]:
            assert check["reference"]
            assert check["status"] in ("pass", "fail", "soft")


class TestDeterminism:
    CASES = [
        ("green", "--chain", "z", "--x0", "0", "--x", "2", "--y", "3",
         "--method", "mc", "--seed", "17", "--trajectories", "2000"),
        ("martin", "--chain", "bangbang:q=1/3", "--x0", "0", "--alpha", "inf",
         "--eval", "0,1,2,3"),
        ("measure", "--chain", "z", "--x0", "0", "--phi", "boundary:+inf",
         "--x", "2", "--event", "avoid:1"),
        ("simulate", "--chain", "z", "--x0", "0", "--alpha", "+inf",
         "--trajectories", "300", "--steps", "200", "--seed", "31"),
        ("potential", "--radius", "6", "--emit", "csv"),
        ("verify", "--suite", "all", "--seed", "7"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_identical_invocations_emit_identical_bytes(self, capsys, argv):
        code1, out1 = invoke(capsys, *argv)
        code2, out2 = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_config_echoes_invocation(self, capsys):
        _, doc = invoke_json(
            capsys, "green", "--chain", "z", "--x0", "0", "--x", "1", "--y", "1",
        )
        cfg = doc["config"]
        assert cfg["subcommand"] == "green"
        assert cfg["options"]["chain"] == "z"


class TestWitnessGolden:
    """Witness stdout pinned byte for byte.

    Each file under ``tests/golden`` is the stdout of ``python -m recurmartin``
    with the argv below. The planar runs leave the lane's first table square
    [-32, 32]^2; the line and half-line files were recorded with their
    K-step draws, and the tree's with its off-ray sojourns drawn whole.
    """

    GOLDEN = Path(__file__).parent / "golden"
    SIZE = ("--trajectories", "300", "--steps", "400", "--seed", "11", "--transience")
    CASES = {
        "simulate_z": ("simulate", "--chain", "z", "--x0", "0", "--alpha", "+inf") + SIZE,
        "simulate_bangbang": ("simulate", "--chain", "bangbang:q=1/3", "--x0", "0",
                              "--alpha", "inf") + SIZE,
        "simulate_tree": ("simulate", "--chain", "tree:k=2", "--x0", "@",
                          "--alpha", "(0)*") + SIZE,
        "simulate_z2": ("simulate", "--chain", "z2", "--x0", "0,0") + SIZE,
        "verify_mc_seed7": ("verify", "--suite", "mc", "--seed", "7"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_matches_recorded_bytes(self, capsys, name):
        code, out = invoke(capsys, *self.CASES[name])
        assert code == 0
        assert out == (self.GOLDEN / f"{name}.out").read_text()


class TestOneOutputPath:
    """``run`` renders every payload: a refusal from the library, raised
    before or during the rendering, leaves stdout empty and says why in one
    ``error:`` line on stderr."""

    REFUSALS = {
        "green-no-trajectories": (
            "green", "--chain", "z", "--x0", "0", "--x", "2", "--y", "3",
            "--method", "mc", "--seed", "1", "--trajectories", "0",
        ),
        "green-window-over-budget": (
            "green", "--chain", "tree:k=99999", "--x0", "0", "--x", "0", "--y", "0",
        ),
        "martin-window-over-budget": (
            "martin", "--chain", "tree:k=99999", "--x0", "@", "--alpha", "(0)*", "--eval", "0",
        ),
        "simulate-line-off-base": (
            "simulate", "--chain", "z", "--x0", "3", "--alpha", "+inf", "--seed", "1",
        ),
    }

    @staticmethod
    def assert_refused(capsys, argv, message=None):
        assert run(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if message is not None:
            assert lines[0] == f"error: {message}"

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_a_library_refusal_prints_one_error_line(self, capsys, name):
        self.assert_refused(capsys, self.REFUSALS[name])

    @pytest.mark.parametrize("name, radius", [
        ("green-window-over-budget", 3), ("martin-window-over-budget", 7),
    ])
    def test_a_window_over_the_state_budget_is_refused_unbuilt(self, capsys, monkeypatch, name, radius):
        def refuse(*args):
            raise AssertionError("built a window")

        for method in ("window", "code_window", "code_table"):
            monkeypatch.setattr(KaryTree, method, refuse)
        size = (99999 ** (radius + 1) - 1) // 99998
        self.assert_refused(
            capsys, self.REFUSALS[name],
            f"the radius-{radius} window has {size} states, more than the state budget of 400000",
        )

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_mc_refuses_a_step_cap_below_one(self, capsys, cap):
        # every run would be cut before its first draw, reading 0 visits
        argv = ("green", "--chain", "z", "--x0", "0", "--x", "2", "--y", "3", "--method", "mc",
                "--seed", "1", "--trajectories", "100", "--step-cap", cap)
        self.assert_refused(capsys, argv, f"step_cap must be an int >= 1, not {cap}")

    def test_a_rendering_error_prints_nothing_on_stdout(self, capsys, monkeypatch):
        def refuse(obj):
            raise ValueError("cannot render")

        monkeypatch.setattr(cli, "render", refuse)
        self.assert_refused(capsys, ("potential", "--radius", "2"), "cannot render")

class TestSharedParser:
    """Every ``run`` call in one process parses with the parser the first
    one built; a usage error leaves nothing on it for the next call."""

    def test_runs_in_one_process_build_one_parser(self, capsys, monkeypatch):
        build = cli.build_parser
        assert build() is not build()
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_PARSER", None, raising=False)
        for argv in (
            TestFloatGolden.CASES["measure_z_avoid"],
            TestExactGolden.CASES["martin_tree_mixture_r7"],
            ("potential", "--radius", "3"),
        ):
            assert invoke(capsys, *argv)[0] == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            # refused by the subcommand, after the parse
            ("measure", "--chain", "nope", "--x0", "0", "--phi", "boundary:+inf",
             "--x", "2", "--event", "avoid:1"),
            # no --event: refused inside the parse
            ("measure", "--chain", "z", "--x0", "0", "--phi", "boundary:+inf", "--x", "2"),
        ],
        ids=["chain", "missing-flag"],
    )
    def test_a_usage_error_leaves_the_next_run_unchanged(self, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            run(list(bad))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        code, out = invoke(capsys, *TestFloatGolden.CASES["measure_z_avoid"])
        assert code == 0
        assert out == (TestFloatGolden.GOLDEN / "measure_z_avoid.out").read_text()
