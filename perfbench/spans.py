"""In-memory spans around the package's layer boundaries.

The tracer replaces the module and class attributes that callers look up
(``dualfuel._kernels.march``, ``dualfuel.calib.knock_integral_soc``,
``OperatingPoint.__post_init__``, ...) with wrappers that record one span per
call, and puts the originals back afterwards. No package file changes. A
span's self time is its duration minus the part of it that its child spans
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

LAYERS = ("kernels", "plant", "core", "model", "calib", "control",
          "scenarios", "harness", "cli")

CLI_COMMANDS = ("gen-data", "calibrate", "validate", "simulate",
                "sensitivity", "noise-study")

# per-layer metrics of a traced run: name -> (unit, better)
PER_LAYER = {
    "kernels.march_calls": ("count", "lower"),
    "kernels.march_s": ("s", "lower"),
    "kernels.march_us_per_call": ("us", "lower"),
    "kernels.nodes_needed": ("count", "lower"),
    "kernels.nodes_evaluated": ("count", "lower"),
    "kernels.useful_node_ratio": ("ratio", "higher"),
    "kernels.ns_per_node": ("ns", "lower"),
    "kernels.self_s": ("s", "lower"),
    "plant.soc_calls": ("count", "lower"),
    "plant.soc_self_s": ("s", "lower"),
    "plant.misfire_ratio": ("ratio", "lower"),
    "plant.step_cycle_calls": ("count", "lower"),
    "plant.step_cycle_self_us": ("us", "lower"),
    "plant.self_s": ("s", "lower"),
    "core.op_validations": ("count", "lower"),
    "core.op_validate_s": ("s", "lower"),
    "core.op_validations_per_cycle": ("ratio", "lower"),
    "core.cylinder_volume_calls": ("count", "lower"),
    "core.cylinder_volume_s": ("s", "lower"),
    "core.self_s": ("s", "lower"),
    "model.calls": ("count", "lower"),
    "model.s": ("s", "lower"),
    "model.points": ("count", "lower"),
    "model.ns_per_point": ("ns", "lower"),
    "model.self_s": ("s", "lower"),
    "calib.iterations": ("count", "lower"),
    "calib.objective_evals": ("count", "lower"),
    "calib.evals_per_iteration": ("ratio", "lower"),
    "calib.self_s": ("s", "lower"),
    "calib.generate_self_s": ("s", "lower"),
    "calib.dataset_write_s": ("s", "lower"),
    "calib.dataset_read_s": ("s", "lower"),
    "control.calls": ("count", "lower"),
    "control.us_per_cycle": ("us", "lower"),
    "control.self_s": ("s", "lower"),
    "scenarios.schedule_value_calls": ("count", "lower"),
    "scenarios.schedule_value_s": ("s", "lower"),
    "scenarios.self_s": ("s", "lower"),
    "harness.run_scenario_self_us_per_cycle": ("us", "lower"),
    "harness.summarize_s": ("s", "lower"),
    "harness.records_write_s": ("s", "lower"),
    "harness.sensitivity_s": ("s", "lower"),
    "harness.noise_study_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    **{f"cli.{c}_s": ("s", "lower") for c in CLI_COMMANDS},
    "cli.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Spans kept in parallel lists; a stack gives each span its parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def end(self, i: int):
        self.ends[i] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        """fn with a span per call; observe(counters, args, result) runs
        after the span ends, so its cost lands in the caller's self time."""
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".raised"] += 1
                raise
            finally:
                self.end(i)
            if observe is not None:
                observe(self.counters, args, result)
            return result
        return traced


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def span_totals(names, parents, starts, ends) -> dict:
    """Per span name: [calls, total seconds, self seconds]."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out: dict[str, list] = {}
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered(starts[i], ends[i], children.get(i, ()))
    return out


# ---------------------------------------------------------------------------
# kernel grid arithmetic (computed from the call, not counted in the kernel)

def nodes_needed(soi, step, theta_max, soc) -> int:
    """Grid nodes from the injection angle up to the crossing (up to the
    misfire limit when there is none)."""
    end = soc if math.isfinite(soc) else theta_max
    return math.ceil((end - soi) / step) + 1


def nodes_evaluated(backend, soi, step, theta_max, soc) -> int:
    """Integrand evaluations of one march on the active backend: the numpy
    path builds the whole grid up to the misfire limit, the scalar march
    stops at the crossing."""
    if backend == "numpy":
        return math.ceil((theta_max - soi) / step) + 1
    return nodes_needed(soi, step, theta_max, soc)


def kernel_backend(kernels) -> str:
    return "numpy" if kernels.march is kernels.march_numpy else "numba"


# ---------------------------------------------------------------------------
# wiring to the package

def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _points(index):
    def observe(counters, args, result):
        counters["model.points"] += _size(args[index])
    return observe


def targets(pkg, tracer: Tracer, backend: str):
    """(owner, attribute, replacement factory) for every traced boundary.

    Each entry names the attribute a caller looks up: calib calls
    knock_integral_soc through its own module namespace, plant calls the
    kernel through ``_kernels.march``, and so on.
    """
    k, pl, co, mo, ca, ha, sc, cl = (pkg._kernels, pkg.plant, pkg.core, pkg.model,
                                     pkg.calib, pkg.harness, pkg.scenarios, pkg.cli)

    def observe_march(counters, args, result):
        soi, step, theta_max = args[0], args[1], args[2]
        soc = result[0]
        counters["kernels.nodes_needed"] += nodes_needed(soi, step, theta_max, soc)
        counters["kernels.nodes_evaluated"] += nodes_evaluated(backend, soi, step,
                                                               theta_max, soc)

    def observe_calibrate(counters, args, result):
        counters["calib.iterations"] += result[0].iterations

    def span(name, observe=None):
        return lambda fn: tracer.wrap(fn, name, observe)

    def objective_factory(fn):
        return lambda *args: tracer.wrap(fn(*args), "calib.objective")

    out = [
        (k, "march", span("kernels.march", observe_march)),
        (ca, "knock_integral_soc", span("plant.knock_integral_soc")),
        (pl, "knock_integral_soc", span("plant.knock_integral_soc")),
        (pl.EnginePlant, "step_cycle", span("plant.step_cycle")),
        (co.OperatingPoint, "__post_init__", span("core.op_validate")),
        (ca, "predict_ca50", span("model.predict_ca50", _points(1))),
        (ca, "predict_soc", span("model.predict_soc", _points(1))),
        (ha, "ignition_delay", span("model.ignition_delay", _points(1))),
        (ha, "half_burn_angle", span("model.half_burn_angle", _points(0))),
        (ca, "calibrate", span("calib.calibrate", observe_calibrate)),
        (ca, "_objective", objective_factory),
        (sc, "builtin_case", span("scenarios.builtin_case")),
        (ha, "builtin_case", span("scenarios.builtin_case")),
        (ha, "schedule_value", span("scenarios.schedule_value")),
        (cl, "main", span("cli.main")),
    ]
    out += [(m, "cylinder_volume", span("core.cylinder_volume"))
            for m in (mo, pl, pkg.control, ha)]
    out += [(ca, f, span(f"calib.{f}"))
            for f in ("generate_dataset", "split_dataset", "rmse", "validate",
                      "read_dataset", "write_dataset", "write_report_csv",
                      "write_report_summary")]
    out += [(ha, f, span(f"control.{f}"))
            for f in ("compute_states", "adaptive_soi", "adaptive_update",
                      "feedforward_soi", "smooth_measurement")]
    out += [(ha, f, span(f"harness.{f}"))
            for f in ("run_scenario", "summarize_records", "summarize_rows",
                      "write_records_csv", "write_summary_txt", "run_sensitivity",
                      "write_sensitivity_csv", "run_noise_study")]
    out += [(cl, "cmd_" + c.replace("-", "_"), span(f"cli.{c}")) for c in CLI_COMMANDS]
    return out


def install(pkg, tracer: Tracer, backend: str):
    """Patch every boundary; returns what uninstall() needs to undo it."""
    patches = []
    try:
        for owner, attr, factory in targets(pkg, tracer, backend):
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, factory(original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, counters: dict, reps: int,
                  untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics per traced repetition from summed span totals."""
    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names) / reps

    def total(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / reps

    def self_time(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names) / reps

    def layer(prefix):
        return [n for n in totals if n.startswith(prefix + ".")]

    def count(name):
        return counters.get(name, 0.0) / reps

    march = calls("kernels.march")
    evaluated = count("kernels.nodes_evaluated")
    soc_calls = calls("plant.knock_integral_soc")
    cycles = calls("plant.step_cycle")
    model = layer("model")
    control = layer("control")
    iterations = count("calib.iterations")
    m = {
        "kernels.march_calls": march,
        "kernels.march_s": total("kernels.march"),
        "kernels.march_us_per_call": _ratio(total("kernels.march") * 1e6, march),
        "kernels.nodes_needed": count("kernels.nodes_needed"),
        "kernels.nodes_evaluated": evaluated,
        "kernels.useful_node_ratio": _ratio(count("kernels.nodes_needed"), evaluated),
        "kernels.ns_per_node": _ratio(total("kernels.march") * 1e9, evaluated),
        "plant.soc_calls": soc_calls,
        "plant.soc_self_s": self_time("plant.knock_integral_soc"),
        "plant.misfire_ratio": _ratio(count("plant.knock_integral_soc.raised"), soc_calls),
        "plant.step_cycle_calls": cycles,
        "plant.step_cycle_self_us": _ratio(self_time("plant.step_cycle") * 1e6, cycles),
        "core.op_validations": calls("core.op_validate"),
        "core.op_validate_s": total("core.op_validate"),
        "core.op_validations_per_cycle": _ratio(calls("core.op_validate"), cycles),
        "core.cylinder_volume_calls": calls("core.cylinder_volume"),
        "core.cylinder_volume_s": total("core.cylinder_volume"),
        "model.calls": calls(*model),
        "model.s": total(*model),
        "model.points": count("model.points"),
        "model.ns_per_point": _ratio(total(*model) * 1e9, count("model.points")),
        "calib.iterations": iterations,
        "calib.objective_evals": calls("calib.objective"),
        "calib.evals_per_iteration": _ratio(calls("calib.objective"), iterations),
        "calib.generate_self_s": self_time("calib.generate_dataset"),
        "calib.dataset_write_s": total("calib.write_dataset"),
        "calib.dataset_read_s": total("calib.read_dataset"),
        "control.calls": calls(*control),
        "control.us_per_cycle": _ratio(total(*control) * 1e6, cycles),
        "scenarios.schedule_value_calls": calls("scenarios.schedule_value"),
        "scenarios.schedule_value_s": total("scenarios.schedule_value"),
        "harness.run_scenario_self_us_per_cycle":
            _ratio(self_time("harness.run_scenario") * 1e6, cycles),
        "harness.summarize_s": total("harness.summarize_records"),
        "harness.records_write_s": total("harness.write_records_csv"),
        "harness.sensitivity_s": total("harness.run_sensitivity"),
        "harness.noise_study_s": total("harness.run_noise_study"),
        **{f"cli.{c}_s": total(f"cli.{c}") for c in CLI_COMMANDS},
        "bench.self_s": self_time("bench.rep"),
        "trace.spans": calls(*totals),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_ratio": _ratio(traced_wall - untraced_wall, untraced_wall),
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = self_time(*layer(name))
    return {name: m[name] for name in PER_LAYER}
