"""In-memory span tracer installed from outside the program.

``Tracer.install`` wraps every public function of the seven homocon
layer modules and rebinds the wrapper at every binding of that function
inside ``homocon.*`` (including names one layer imports from another,
such as ``cli.simulate`` or ``cones.canonical_norm_many``), so calls
between layers are traced too. Spans carry name, start, end, parent span
and op id. Each thread keeps its own parent stack; a span opened on a
thread with an empty stack hangs under the op span that is current.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("cli", "certificates", "homogeneity", "protocols", "cones", "graphs", "simulation")


def _rows(args, kwargs, result):
    X = kwargs.get("X", args[1] if len(args) > 1 else None)
    shape = getattr(X, "shape", None)
    if shape is None:
        return None
    return int(shape[0]) if len(shape) > 1 else 1


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return None


# span name -> function computing a size for the span, evaluated after
# the span's end time is taken so it does not count as the layer's time
_EXTRAS = {
    "homogeneity.canonical_norm_many": _rows,
    "simulation.write_trajectory_csv": _file_bytes,
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "ok", "extra")

    def __init__(self, sid, name, start, end, parent, op, ok, extra):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.op, self.ok, self.extra = parent, op, ok, extra

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_span = None
        self._op = None
        self.wrapped: dict[str, int] = {}
        self._bindings: list = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._op_span
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, token, name: str, ok: bool, measure=None) -> None:
        sid, parent, start = token
        end = time.perf_counter()
        self._stack().pop()
        extra = measure() if measure is not None else None
        self.spans.append(Span(sid, name, start, end, parent, self._op, ok, extra))

    def run_op(self, op_id: str, name: str, fn):
        """Run ``fn`` as the root span of one benchmark op."""
        self._op = op_id
        token = self.open(name)
        self._op_span = token[0]
        ok = False
        try:
            result = fn()
            ok = True
            return result
        finally:
            self.close(token, name, ok)
            self._op_span = None
            self._op = None

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, name: str):
        extra_of = _EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.open(name)
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                measure = None
                if extra_of is not None and ok:
                    measure = lambda: extra_of(args, kwargs, result)  # noqa: E731
                tracer.close(token, name, ok, measure)

        return traced

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"homocon.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    targets[obj] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "homocon" and not modname.startswith("homocon."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._bindings.append((mod, attr, obj))
                    key = targets[obj]
                    self.wrapped[key] = self.wrapped.get(key, 0) + 1

    def uninstall(self) -> None:
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it covered by child spans."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: max(0.0, (s.end - s.start) - _covered(children.get(s.sid, ())))
        for s in spans
    }


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

METRIC_METRICS = ("settling_time", "overshoot_metric", "lyapunov_violation")
SOLVERS = ("certificates.solve_lmi_p", "certificates.solve_lmi_xy")
VERIFIERS = ("certificates.verify_lmi_p", "certificates.verify_lmi_xy")

# name -> (unit, better); the order is the print order
PER_LAYER = {
    "simulation.simulate.self_s": ("s", "lower"),
    "simulation.simulate_batch.self_s": ("s", "lower"),
    "simulation.write_trajectory_csv.s": ("s", "lower"),
    "simulation.csv_mb_per_s": ("MB/s", "higher"),
    "simulation.metrics.s": ("s", "lower"),
    "graphs.solve_transmitted.calls": ("count", "lower"),
    "graphs.solve_transmitted.self_s": ("s", "lower"),
    "graphs.solve_transmitted.failed": ("count", "lower"),
    "homogeneity.canonical_norm_many.calls.from_simulation": ("count", "lower"),
    "homogeneity.canonical_norm_many.rows.from_cones": ("count", "lower"),
    "homogeneity.canonical_norm_many.self_s": ("s", "lower"),
    "homogeneity.rows_per_s": ("1/s", "higher"),
    "protocols.control_input_many.calls": ("count", "lower"),
    "protocols.control_input_many.self_s": ("s", "lower"),
    "cones.invariance_monitor.self_s": ("s", "lower"),
    "cones.check_initial_admissible.s": ("s", "lower"),
    "certificates.solve_lmi_p.s": ("s", "lower"),
    "certificates.solve_lmi_xy.s": ("s", "lower"),
    "certificates.robustness_constants.s": ("s", "lower"),
    "certificates.verify_per_solve": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.build_scenario.self_s": ("s", "lower"),
    "cli.load_config.s": ("s", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "bench.self_s": ("s", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_metrics(spans, overhead_ratio: float) -> dict:
    """name -> (value, unit) over one traced pass (set-up plus one cycle).

    ``.s`` is the inclusive time of a function's calls and ``.self_s``
    their self time, both summed over the pass, except that the
    certificate ``.s`` metrics are the mean time per call. ``layer.*``
    and ``bench.self_s`` (the benchmark's own work inside its op spans)
    add up to ``trace.pass_s``.
    """
    selft = self_times(spans)
    by_id = {s.sid: s for s in spans}
    named: dict = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(name):
        return named.get(name, [])

    def incl(names):
        return sum(s.end - s.start for n in names for s in calls(n))

    def self_of(name):
        return sum(selft[s.sid] for s in calls(name))

    def per_call(name):
        c = calls(name)
        return incl([name]) / len(c) if c else 0.0

    def parent_layer(s):
        p = by_id.get(s.parent)
        return p.layer if p is not None else None

    norm = calls("homogeneity.canonical_norm_many")
    norm_rows = sum(s.extra or 0 for s in norm)
    norm_s = incl(["homogeneity.canonical_norm_many"])
    csv_bytes = sum(s.extra or 0 for s in calls("simulation.write_trajectory_csv"))
    csv_s = incl(["simulation.write_trajectory_csv"])
    solves = [s for n in SOLVERS for s in calls(n)]
    solve_ids = {s.sid for s in solves}
    verifies = sum(1 for n in VERIFIERS for s in calls(n) if s.parent in solve_ids)
    layer_self = {layer: 0.0 for layer in LAYERS}
    bench_self = 0.0
    for s in spans:
        if s.layer in layer_self:
            layer_self[s.layer] += selft[s.sid]
        else:
            bench_self += selft[s.sid]

    values = {
        "simulation.simulate.self_s": self_of("simulation.simulate"),
        "simulation.simulate_batch.self_s": self_of("simulation.simulate_batch"),
        "simulation.write_trajectory_csv.s": csv_s,
        "simulation.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "simulation.metrics.s": incl([f"simulation.{n}" for n in METRIC_METRICS]),
        "graphs.solve_transmitted.calls": len(calls("graphs.solve_transmitted")),
        "graphs.solve_transmitted.self_s": self_of("graphs.solve_transmitted"),
        "graphs.solve_transmitted.failed": sum(
            not s.ok for s in calls("graphs.solve_transmitted")
        ),
        "homogeneity.canonical_norm_many.calls.from_simulation": sum(
            parent_layer(s) == "simulation" for s in norm
        ),
        "homogeneity.canonical_norm_many.rows.from_cones": sum(
            s.extra or 0 for s in norm if parent_layer(s) == "cones"
        ),
        "homogeneity.canonical_norm_many.self_s": self_of("homogeneity.canonical_norm_many"),
        "homogeneity.rows_per_s": norm_rows / norm_s if norm_s else 0.0,
        "protocols.control_input_many.calls": len(calls("protocols.control_input_many")),
        "protocols.control_input_many.self_s": self_of("protocols.control_input_many"),
        "cones.invariance_monitor.self_s": self_of("cones.invariance_monitor"),
        "cones.check_initial_admissible.s": incl(["cones.check_initial_admissible"]),
        "certificates.solve_lmi_p.s": per_call("certificates.solve_lmi_p"),
        "certificates.solve_lmi_xy.s": per_call("certificates.solve_lmi_xy"),
        "certificates.robustness_constants.s": per_call("certificates.robustness_constants"),
        "certificates.verify_per_solve": verifies / len(solves) if solves else 0.0,
        "cli.main.self_s": self_of("cli.main"),
        "cli.build_scenario.self_s": self_of("cli.build_scenario"),
        "cli.load_config.s": incl(["cli.load_config"]),
        **{f"layer.{layer}.self_s": v for layer, v in layer_self.items()},
        "bench.self_s": bench_self,
        "trace.pass_s": sum(s.end - s.start for s in spans if s.parent is None),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
