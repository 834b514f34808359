"""Span tracing of recurmartin's public layer calls, from outside the package.

``Tracer.install`` wraps every public module-level function of the traced
modules, plus ``successors`` and ``window`` on the four example chain
classes, and rebinds each wrapped function under every name it has in any
``recurmartin`` module namespace (``cli`` and ``sigma`` import solvers by
name, so patching only the defining module would miss those calls).
``Tracer.uninstall`` puts the originals back.

Each call records one span: name, start, end, parent span and op id, in
flat arrays kept in memory. A generator function gets one span per resume,
so the time spent producing each item is attributed to it. A few
functions also record counts at the same boundary (window states and
nonzeros, Monte-Carlo runs, witness steps, states checked, bracket
verdicts); ``layer_metrics`` turns the record into the per-layer metrics.
A span's self time is its duration minus the time its direct child spans
cover.
"""
from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

TRACED_MODULES = (
    "examplechains", "chains", "green", "martin", "sigma",
    "htransform", "potential", "rng", "cli",
)
CHAIN_CLASSES = ("ZWalk", "BangBangWalk", "KaryTree", "Z2Walk")
CHAIN_METHODS = ("successors", "window")

_CHAIN_KIND = {"ZWalk": "line", "BangBangWalk": "halfline", "KaryTree": "tree", "Z2Walk": "plane"}
MC_LANES = ("line", "halfline", "tree", "plane", "generic")
WITNESS_LANES = ("line", "halfline", "tree", "plane")


def _mc_lane(chain, x0, runs, targets) -> str:
    """The sampler lane green_mc dispatches to, read off its arguments.

    Mirrors the dispatch in ``green._fast_grid_lane``: vectorized lanes need
    at least 512 runs, the half line and the plane only at their canonical
    base, and the tree only at the root with targets on one spine.
    """
    kind = _CHAIN_KIND.get(type(chain).__name__)
    if runs < 512 or kind is None:
        return "generic"
    if kind == "halfline" and x0 != 0:
        return "generic"
    if kind == "plane" and x0 != (0, 0):
        return "generic"
    if kind == "tree":
        spine = max(targets, key=len, default=())
        if x0 != () or any(t != spine[: len(t)] for t in targets):
            return "generic"
    return kind


def _solve_label(a) -> str:
    if a.get("method", "exact") == "mc":
        return "mc"
    return "exact" if a["exact"] else "float"


def _window_note(a, result):
    index, rows = result
    return {"states": len(rows), "nnz": sum(len(r) for r in rows)}


def _mc_note(a, result):
    if "targets" in a:  # green_mc_grid: one ensemble per start
        targets = list(a["targets"])
        runs = a["trajectories"] * len(a["starts"])
        truncated = sum(
            max(result[(x, t)].truncated_runs for t in targets) for x in a["starts"]
        )
    else:
        targets = [a["y"]]
        runs, truncated = a["trajectories"], result.truncated_runs
    lane = _mc_lane(a["chain"], a["x0"], a["trajectories"], targets)
    return {"runs": runs, "truncated": truncated, "lane": lane}


def _witness_note(a, result):
    kind = _CHAIN_KIND.get(type(a["chain"]).__name__, "other")
    return {"steps": a["trajectories"] * a["steps"], "lane": kind}


# function name -> (label of the span from its bound arguments, note of counts)
HOOKS = {
    "green.green_solve": (_solve_label, None),
    "green.green_solve_discounted": (_solve_label, None),
    "green.martin_kernel": (_solve_label, None),
    "green.window_rows": (None, _window_note),
    "green.green_mc": (None, _mc_note),
    "green.green_mc_grid": (None, _mc_note),
    "htransform.convergence_stats": (None, _witness_note),
    "htransform.transience_witness": (None, _witness_note),
    "potential.potential_mc": (None, lambda a, r: {"runs": a["trajectories"]}),
    "martin.check_harmonic_except": (None, lambda a, r: {"states": r.checked + 1}),
    "sigma.avoidance_function": (
        None, lambda a, r: {"closed": int(r.verdict == "bracket-closed")}
    ),
}


class Tracer:
    """In-memory span record plus the patches that produce it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict = {}
        self.counts: dict = {}
        self.stack: list = []
        self.current_op = -1
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        k = (self.current_op, key)
        self.counts[k] = self.counts.get(k, 0) + n

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name):
        label, note = HOOKS.get(name, (None, None))
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        plain = self.name_id(name)
        sig = inspect.signature(fn) if (label or note) else None

        if sig is None:
            def wrapper(*args, **kwargs):
                i = self.open(plain)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
        else:
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                nid = plain if label is None else self.name_id(f"{name}[{label(a)}]")
                i = self.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(i)
                if note is not None:
                    self.notes[i] = note(a, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_generator(self, fn, name):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                i = self.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.count(f"{name}.items")
                yield item

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap the traced functions and rebind them in every namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"recurmartin.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "recurmartin" or mod_name.startswith("recurmartin.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        examplechains = sys.modules["recurmartin.examplechains"]
        for cls_name in CHAIN_CLASSES:
            cls = getattr(examplechains, cls_name)
            for meth in CHAIN_METHODS:
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, f"examplechains.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        op = np.frombuffer(self.op, dtype=np.int32) if len(self.op) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return name, parent, op, dur, dur - covered

    def write(self, path) -> None:
        """Write every span, note and count as one JSON object."""
        name, parent, op, dur, self_time = self.arrays()
        payload = {
            "names": self.names,
            "spans": {
                "name": name.tolist(),
                "parent": parent.tolist(),
                "op": op.tolist(),
                "start": list(self.start),
                "end": list(self.end),
            },
            "notes": {str(i): v for i, v in self.notes.items()},
            "counts": [[op_id, key, n] for (op_id, key), n in self.counts.items()],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def layer_metrics(tracer: Tracer, ops, scale: float = 1.0) -> dict:
    """Per-layer metrics over the spans whose op id is in ``ops``, with
    every duration multiplied by ``scale``."""
    name, parent, op, dur, self_time = tracer.arrays()
    dur, self_time = dur * scale, self_time * scale
    keep = np.isin(op, np.fromiter(ops, dtype=np.int32))
    names = tracer.names
    n_names = len(names)
    self_by = np.bincount(name[keep], weights=self_time[keep], minlength=n_names)
    calls_by = np.bincount(name[keep], minlength=n_names)

    def total(pred, arr=self_by) -> float:
        return float(sum(arr[i] for i, nm in enumerate(names) if pred(nm)))

    def base(nm):
        return nm.split("[", 1)[0]

    kept = set(np.nonzero(keep)[0].tolist())
    notes = {i: v for i, v in tracer.notes.items() if i in kept}
    out: dict = {}

    exact_s = total(lambda nm: nm.endswith("[exact]"))
    out["green.exact_solve_s"] = exact_s
    out["green.float_solve_s"] = total(lambda nm: nm.endswith("[float]"))

    window_states = window_nnz = exact_states = 0
    for i, nt in notes.items():
        if names[name[i]] == "green.window_rows":
            window_states += nt["states"]
            window_nnz += nt["nnz"]
            p = parent[i]
            if p >= 0 and names[name[p]].endswith("[exact]"):
                exact_states += nt["states"]
    out["green.exact_states_per_s"] = exact_states / exact_s if exact_s > 0 else 0.0
    out["green.window_states"] = window_states
    out["green.window_nnz"] = window_nnz
    out["green.window_rows_s"] = total(lambda nm: nm == "green.window_rows")
    out["examplechains.window_s"] = total(
        lambda nm: nm.startswith("examplechains.") and nm.endswith(".window")
    )
    out["examplechains.successors_calls"] = int(
        total(lambda nm: nm.endswith(".successors"), calls_by)
    )
    out["examplechains.successors_s"] = total(lambda nm: nm.endswith(".successors"))

    mc_names = ("green.green_mc", "green.green_mc_grid")
    runs = {lane: 0 for lane in MC_LANES}
    mc_time = {lane: 0.0 for lane in MC_LANES}
    truncated = 0
    wit_steps = {lane: 0 for lane in WITNESS_LANES}
    wit_time = {lane: 0.0 for lane in WITNESS_LANES}
    pot_runs, pot_time = 0, 0.0
    checked, check_time = 0, 0.0
    closed = 0
    for i, nt in notes.items():
        nm = base(names[name[i]])
        if nm in mc_names:
            p = parent[i]
            if p >= 0 and base(names[name[p]]) == "green.green_mc_grid":
                continue  # counted by the enclosing grid call
            runs[nt["lane"]] += nt["runs"]
            mc_time[nt["lane"]] += dur[i]
            truncated += nt["truncated"]
        elif nm in ("htransform.convergence_stats", "htransform.transience_witness"):
            if nt["lane"] in wit_steps:
                wit_steps[nt["lane"]] += nt["steps"]
                wit_time[nt["lane"]] += dur[i]
        elif nm == "potential.potential_mc":
            pot_runs += nt["runs"]
            pot_time += dur[i]
        elif nm == "martin.check_harmonic_except":
            checked += nt["states"]
            check_time += dur[i]
        elif nm == "sigma.avoidance_function":
            closed += nt["closed"]
    for lane in MC_LANES:
        out[f"green.mc_runs_per_s.{lane}"] = runs[lane] / mc_time[lane] if mc_time[lane] > 0 else 0.0
    all_runs = sum(runs.values())
    out["green.mc_truncated_share"] = truncated / all_runs if all_runs else 0.0
    for lane in WITNESS_LANES:
        out[f"htransform.witness_steps_per_s.{lane}"] = (
            wit_steps[lane] / wit_time[lane] if wit_time[lane] > 0 else 0.0
        )
    out["htransform.exact_checks_s"] = total(
        lambda nm: nm.startswith("htransform.")
        and base(nm) not in ("htransform.convergence_stats", "htransform.transience_witness")
    )
    out["rng.generator_calls"] = int(total(lambda nm: nm.startswith("rng."), calls_by))
    out["potential.table_s"] = total(
        lambda nm: nm in ("potential.potential_table", "potential.potential_float_array")
    )
    out["potential.harmonicity_s"] = total(lambda nm: nm == "potential.verify_harmonicity")
    out["potential.mc_runs_per_s"] = pot_runs / pot_time if pot_time > 0 else 0.0
    out["martin.harmonic_check_s"] = total(lambda nm: nm == "martin.check_harmonic_except")
    out["martin.states_checked_per_s"] = checked / check_time if check_time > 0 else 0.0
    out["sigma.avoidance_s"] = total(lambda nm: nm == "sigma.avoidance_function")
    out["sigma.cylinder_s"] = total(lambda nm: nm == "sigma.cylinder_measure")
    avoid_calls = int(total(lambda nm: nm == "sigma.avoidance_function", calls_by))
    out["sigma.bracket_closed_share"] = closed / avoid_calls if avoid_calls else 0.0
    out["chains.enumerate_paths_s"] = total(lambda nm: nm == "chains.enumerate_paths")
    out["chains.paths_enumerated"] = sum(
        n for (op_id, key), n in tracer.counts.items()
        if key == "chains.enumerate_paths.items" and op_id in ops
    )
    out["cli.run_s"] = total(
        lambda nm: nm.startswith("cli.") and nm not in ("cli.render", "cli.emit")
    )
    out["cli.render_s"] = total(lambda nm: nm in ("cli.render", "cli.emit"))
    return out
