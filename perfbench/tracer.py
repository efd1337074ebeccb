"""In-memory span tracer wrapped around platoonsim's public functions.

`install` replaces each traced function at every place a caller looks it up:
the module that defines it and every platoonsim module that bound it with
`from ... import`, or the class for engine methods. Spans are stored as
parallel arrays (name id, parent span, request, start, end); `layer_metrics`
derives self time from them and `save` writes them out.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (defining module, attribute, class name or None)
TARGETS = {
    "cli": ("platoonsim.cli", "main", None),
    "cli._platoon_metrics_batch": ("platoonsim.cli", "_platoon_metrics_batch", None),
    "config.load_config": ("platoonsim.config", "load_config", None),
    "config.build_scenario": ("platoonsim.config", "build_scenario", None),
    "dynamics.idm_accel_arrays": ("platoonsim.dynamics", "idm_accel_arrays", None),
    "dynamics.ovrv_accel_arrays": ("platoonsim.dynamics", "ovrv_accel_arrays", None),
    "dynamics.equilibrium_spacing": ("platoonsim.dynamics", "equilibrium_spacing", None),
    "metrics.default_fuel_coefficients": (
        "platoonsim.metrics", "default_fuel_coefficients", None),
    "metrics.summarize": ("platoonsim.metrics", "summarize", None),
    "metrics.log_fuel_exponents": ("platoonsim.metrics", "log_fuel_exponents", None),
    "optimizer.optimize": ("platoonsim.optimizer", "optimize", None),
    "optimizer.simulate_with_sensitivity": (
        "platoonsim.optimizer", "simulate_with_sensitivity", None),
    "optimizer.objective_j": ("platoonsim.optimizer", "objective_j", None),
    "optimizer.descent_direction": ("platoonsim.optimizer", "descent_direction", None),
    "simulator.assemble_trajectory": ("platoonsim.simulator", "assemble_trajectory", None),
    "simulator.check_safety": ("platoonsim.simulator", "check_safety", None),
    "simulator.write_trajectory_csv": (
        "platoonsim.simulator", "write_trajectory_csv", None),
    "simulator.PlatoonEngine.rhs": ("platoonsim.simulator", "rhs", "PlatoonEngine"),
    "simulator.PlatoonEngine.advance": ("platoonsim.simulator", "advance", "PlatoonEngine"),
    "simulator.PlatoonEngine.run": ("platoonsim.simulator", "run", "PlatoonEngine"),
    "simulator.PlatoonEngine.control_input": (
        "platoonsim.simulator", "control_input", "PlatoonEngine"),
}


def _steps(scenario) -> int:
    return int(round(scenario.t_f / scenario.dt))


def _fuel_cap() -> float:
    return sys.modules["platoonsim.metrics"]._MAX_EXPONENT


# Work counters recorded at the span boundary: fn(counts, args, result).
def _rhs_work(c, args, result):
    c["simulator.PlatoonEngine.rhs.lanes"] += math.prod(args[2].shape[:-1])


def _run_work(c, args, result):
    engine = args[0]
    c["simulator.PlatoonEngine.run.lane_steps"] += (
        _steps(engine.scenario) * math.prod(engine.batch_shape))
    c["simulator.floor_hits"] += engine.floor_hits


def _csv_work(c, args, result):
    c["simulator.write_trajectory_csv.bytes"] += os.path.getsize(args[1])


def _fuel_work(c, args, result):
    c["metrics.log_fuel_exponents.points"] += np.size(result)
    c["metrics.saturated_ops"] += int(np.count_nonzero(np.asarray(result) > _fuel_cap()))


def _optimize_work(c, args, result):
    objectives = result[1].objectives
    c["optimizer.optimize.iterations"] += len(objectives)
    c["optimizer.improving_iters"] += int(np.count_nonzero(np.diff(objectives) < 0))
    c["optimizer.iteration_steps"] += len(objectives) - 1


def _sens_work(c, args, result):
    c["optimizer.simulate_with_sensitivity.lane_steps"] += _steps(args[0])


WORK = {
    "simulator.PlatoonEngine.rhs": _rhs_work,
    "simulator.PlatoonEngine.run": _run_work,
    "simulator.write_trajectory_csv": _csv_work,
    "metrics.log_fuel_exponents": _fuel_work,
    "optimizer.optimize": _optimize_work,
    "optimizer.simulate_with_sensitivity": _sens_work,
}


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._request = -1

    def wrap(self, span_name: str, fn, work=None):
        """Traced stand-in for fn; call once per span name."""
        nid = len(self.names)
        self.names.append(span_name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1]
            if parent < 0:  # a root span opens a new request
                self._request = idx
            self.name.append(nid)
            self.parent.append(parent)
            self.request.append(self._request)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if work is not None:
                work(self.counts, args, result)
            return result

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        # copies, so the arrays stay appendable (a buffer view pins them)
        return {
            field: np.frombuffer(getattr(self, field), dtype=dtype).copy()
            for field, dtype in (("name", np.int32), ("parent", np.int32),
                                 ("request", np.int32), ("start", np.float64),
                                 ("end", np.float64))
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive time and self time (span minus child spans)."""
        sp = self.spans()
        n_names = len(self.names)
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(sp["name"], minlength=n_names)
        total = np.bincount(sp["name"], weights=dur, minlength=n_names)
        own = np.bincount(sp["name"], weights=self_t, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }


def install(tracer: Tracer) -> None:
    """Patch every lookup site of each target with its traced wrapper."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "platoonsim" or name.startswith("platoonsim.")]
    for span_name, (mod_name, attr, cls_name) in TARGETS.items():
        owner = sys.modules[mod_name]
        if cls_name is not None:
            cls = getattr(owner, cls_name)
            setattr(cls, attr, tracer.wrap(span_name, getattr(cls, attr), WORK.get(span_name)))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span_name, original, WORK.get(span_name))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)


# Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "simulator.PlatoonEngine.rhs.calls": "count",
    "simulator.PlatoonEngine.rhs.self_s": "s",
    "simulator.PlatoonEngine.rhs.lanes": "count",
    "simulator.PlatoonEngine.advance.calls": "count",
    "simulator.PlatoonEngine.advance.self_s": "s",
    "simulator.PlatoonEngine.run.calls": "count",
    "simulator.PlatoonEngine.run.self_s": "s",
    "simulator.PlatoonEngine.run.lane_steps": "count",
    "simulator.lane_steps_per_s": "1/s",
    "simulator.PlatoonEngine.control_input.self_s": "s",
    "dynamics.idm_accel_arrays.calls": "count",
    "dynamics.idm_accel_arrays.self_s": "s",
    "dynamics.ovrv_accel_arrays.calls": "count",
    "dynamics.ovrv_accel_arrays.self_s": "s",
    "dynamics.equilibrium_spacing.calls": "count",
    "dynamics.equilibrium_spacing.self_s": "s",
    "simulator.write_trajectory_csv.calls": "count",
    "simulator.write_trajectory_csv.self_s": "s",
    "simulator.write_trajectory_csv.bytes": "B",
    "simulator.assemble_trajectory.self_s": "s",
    "simulator.check_safety.self_s": "s",
    "simulator.floor_hits": "count",
    "optimizer.optimize.calls": "count",
    "optimizer.optimize.iterations": "count",
    "optimizer.improving_iter_ratio": "ratio",
    "optimizer.simulate_with_sensitivity.calls": "count",
    "optimizer.simulate_with_sensitivity.self_s": "s",
    "optimizer.simulate_with_sensitivity.lane_steps": "count",
    "optimizer.objective_j.self_s": "s",
    "optimizer.descent_direction.self_s": "s",
    "metrics.log_fuel_exponents.calls": "count",
    "metrics.log_fuel_exponents.self_s": "s",
    "metrics.log_fuel_exponents.points": "count",
    "cli._platoon_metrics_batch.self_s": "s",
    "metrics.summarize.calls": "count",
    "metrics.summarize.self_s": "s",
    "metrics.saturated_ops": "count",
    "config.load_config.self_s": "s",
    "config.build_scenario.self_s": "s",
    "metrics.default_fuel_coefficients.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between two runs of the same seed.
EXACT_COUNTS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "B")
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value except the overhead, which needs two runs."""
    per = tracer.per_name()
    counts = tracer.counts
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s"):
            out[metric] = per.get(span, {}).get(stat, 0)
        else:
            out[metric] = counts.get(metric, 0)
    run_s = per.get("simulator.PlatoonEngine.run", {}).get("total_s", 0.0)
    out["simulator.lane_steps_per_s"] = (
        counts.get("simulator.PlatoonEngine.run.lane_steps", 0) / run_s if run_s else 0.0)
    iters = counts.get("optimizer.iteration_steps", 0)
    out["optimizer.improving_iter_ratio"] = (
        counts.get("optimizer.improving_iters", 0) / iters if iters else 0.0)
    del out["trace.overhead_s"]
    return out
