"""Self-tests of the benchmark itself (not of recurmartin).

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They use the tiny op sizes, so the whole file takes about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact", "sample", "measure")
COUNTERS = ("examplechains.successors_calls", "rng.generator_calls", "green.window_nnz")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=1, cwd=ROOT, extra=()):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_runs_print_every_metric_with_its_unit():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            doc = _result(_run(workload, trace))
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"] is True, (workload, doc)
            assert doc["attempted"] >= 1
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            assert got == want, (workload, trace)
            for m in doc["metrics"].values():
                assert isinstance(m["value"], (int, float))
            if trace == 0:
                assert doc["metrics"]["setup_s"]["value"] > 0
                assert doc["metrics"]["wall_s"]["value"] > 0


def test_known_defect_is_the_only_failure():
    sys.path.insert(0, str(HERE))
    import run

    run.use_checkout_package()
    import workloads

    for workload in WORKLOADS:
        doc = _result(_run(workload, 0))
        if workload != "sample":
            assert doc["failed"] == 0, (workload, doc)
            continue
        # one failed op per pass: the off-base line query
        n_ops = len(workloads.build(workload, 1, "tiny"))
        assert doc["failed"] * n_ops == doc["attempted"], doc


def test_wrong_oracle_is_counted_as_failed():
    sys.path.insert(0, str(HERE))
    import run

    run.use_checkout_package()
    import workloads

    ops = workloads.build("exact", 1, "tiny")
    expected = [op.expect() for op in ops]
    first = run.summary([run.run_pass(ops, expected)])
    assert first["failed"] == 0 and first["correct"]
    expected[0] = [e + Fraction(1) for e in expected[0]]
    p = run.run_pass(ops, expected)
    second = run.summary([p])
    assert second["failed"] == 1 and not second["correct"]
    metrics = run.end_to_end([[p]], [1.0], 1024)
    assert metrics["ok_share"] == (len(ops) - 1) / len(ops)


def test_traced_counts_repeat_for_a_seed():
    for workload in WORKLOADS:
        a = _result(_run(workload, 1, seed=5))["metrics"]
        b = _result(_run(workload, 1, seed=5))["metrics"]
        counts = {k for k, m in a.items() if m["unit"] == "count"}
        assert set(COUNTERS) <= counts
        assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}
        assert a["examplechains.successors_calls"]["value"] > 0


def test_trace_file_holds_nested_spans():
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        path = Path(tmp) / "spans.json"
        _result(_run("exact", 1, extra=("--trace-file", str(path))))
        doc = json.loads(path.read_text())
    spans = doc["spans"]
    n = len(spans["name"])
    assert n > 0 and all(len(col) == n for col in spans.values())
    names = [doc["names"][i] for i in spans["name"]]
    assert "green.window_rows" in names and "cli.run" in names
    for i, p in enumerate(spans["parent"]):
        assert p < i  # a parent opens before its child ...
        if p >= 0:  # ... and encloses it
            assert spans["start"][p] <= spans["start"][i] <= spans["end"][i] <= spans["end"][p]
            assert spans["op"][p] == spans["op"][i]


def test_without_the_package_it_fails_without_a_result():
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("exact", 0, cwd=tmp)
        assert proc.returncode != 0
        assert "metrics" not in proc.stdout


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
