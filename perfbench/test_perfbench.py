"""Self-tests of the benchmark's own arithmetic and span wiring.

Run from the root of the checkout: python3 -m pytest perfbench
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import highest_percentile  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


# ---------------------------------------------------------------------------
# percentile selection

@pytest.mark.parametrize("n, expected_p", [
    (19, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_percentile_needs_ten_samples_beyond(n, expected_p):
    values = list(range(n, 0, -1))          # unsorted on purpose
    top = highest_percentile(values)
    if expected_p is None:
        assert top is None
        return
    p, value = top
    assert p == expected_p
    assert sum(v > value for v in values) >= 10
    assert value == math.ceil(Fraction(str(p)) * n / 100)   # nearest rank of 1..n


# ---------------------------------------------------------------------------
# self time

def test_covered_merges_overlapping_children():
    assert spans.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert spans.covered(0.0, 10.0, [(8.0, 12.0)]) == 2.0
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_self_time_with_nested_and_sibling_spans():
    # root [0, 10] holds siblings a [1, 4] and b [5, 7]; a holds a1 [2, 3]
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0]).__next__
    t = spans.Tracer(clock=clock)
    root = t.begin("bench.rep")
    a = t.begin("calib.a")
    a1 = t.begin("kernels.a1")
    t.end(a1)
    t.end(a)
    b = t.begin("calib.b")
    t.end(b)
    t.end(root)
    assert t.parents == [-1, root, a, root]
    totals = spans.span_totals(t.names, t.parents, t.starts, t.ends)
    assert totals["bench.rep"] == [1, 10.0, 5.0]
    assert totals["calib.a"] == [1, 3.0, 2.0]
    assert totals["kernels.a1"] == [1, 1.0, 1.0]
    assert totals["calib.b"] == [1, 2.0, 2.0]
    assert sum(row[2] for row in totals.values()) == 10.0


def test_wrap_counts_raised_exceptions():
    t = spans.Tracer()

    def boom():
        raise RuntimeError("x")
    traced = t.wrap(boom, "plant.boom")
    with pytest.raises(RuntimeError):
        traced()
    assert t.counters["plant.boom.raised"] == 1
    assert not math.isnan(t.ends[0])


# ---------------------------------------------------------------------------
# computed node counts against the kernels' own evaluations

def _march_args(pkg, soi, theta_max=None):
    core, plant = pkg.core, pkg.plant
    cfg = plant.PlantConfig(geom=core.default_geometry(),
                            coeffs=core.default_coefficients())
    op = core.OperatingPoint(speed=1350.0, phi_ng=0.45, phi_di=0.35, egr=0.2,
                             x_r=0.03, p_ivc=3.6, t_ivc=390.0)
    limit = plant.MISFIRE_LIMIT if theta_max is None else theta_max
    return (soi, cfg.quad_step, limit) + plant._kernel_args(op, cfg)


CASES = [(-20.0, None), (-13.7, None), (-10.0, None), (-15.0, -14.0)]  # last misfires


@pytest.mark.parametrize("soi, theta_max", CASES)
def test_numpy_node_count(pkg, monkeypatch, soi, theta_max):
    k = pkg._kernels
    evaluated = []
    original = k._integrand_numpy

    def counting(theta, *rest):
        evaluated.append(theta.size)
        return original(theta, *rest)
    monkeypatch.setattr(k, "_integrand_numpy", counting)
    args = _march_args(pkg, soi, theta_max)
    soc, _ = k.march_numpy(*args)
    assert math.isnan(soc) == (theta_max is not None)
    assert sum(evaluated) == spans.nodes_evaluated("numpy", soi, args[1], args[2], soc)


@pytest.mark.parametrize("soi, theta_max", CASES)
def test_scalar_node_count(pkg, monkeypatch, soi, theta_max):
    k = pkg._kernels
    calls = [0]

    def exp(x):
        calls[0] += 1            # the scalar march takes one exp per node
        return math.exp(x)
    counting_math = SimpleNamespace(**{n: getattr(math, n) for n in dir(math)
                                       if not n.startswith("_")})
    counting_math.exp = exp
    monkeypatch.setattr(k, "math", counting_math)
    args = _march_args(pkg, soi, theta_max)
    soc, _ = k._march_scalar(*args)
    assert math.isnan(soc) == (theta_max is not None)
    assert calls[0] == spans.nodes_evaluated("numba", soi, args[1], args[2], soc)
    assert calls[0] == spans.nodes_needed(soi, args[1], args[2], soc)


def test_both_backends_need_the_same_nodes(pkg):
    k = pkg._kernels
    for soi, theta_max in CASES:
        args = _march_args(pkg, soi, theta_max)
        a = spans.nodes_needed(soi, args[1], args[2], k.march_numpy(*args)[0])
        b = spans.nodes_needed(soi, args[1], args[2], k._march_scalar(*args)[0])
        assert a == b


# ---------------------------------------------------------------------------
# wiring

def test_install_and_uninstall_restore_every_attribute(pkg):
    t = spans.Tracer()
    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr, _ in spans.targets(pkg, t, "numpy")]
    spans.uninstall(spans.install(pkg, t, "numpy"))
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)


def test_traced_dataset_attribution(pkg):
    t = spans.Tracer()
    cfg = pkg.plant.PlantConfig(geom=pkg.core.default_geometry(),
                                coeffs=pkg.core.default_coefficients())
    patches = spans.install(pkg, t, spans.kernel_backend(pkg._kernels))
    try:
        root = t.begin("bench.rep")
        samples, misfires = pkg.calib.generate_dataset(None, 20, cfg, seed=1)
        t.end(root)
    finally:
        spans.uninstall(patches)
    totals = spans.span_totals(t.names, t.parents, t.starts, t.ends)
    m = spans.layer_metrics(totals, t.counters, 1, 1.0, 1.0)
    assert m["kernels.march_calls"] == m["plant.soc_calls"] == 20
    assert m["core.op_validations"] == 20
    assert m["model.calls"] == m["control.calls"] == m["calib.objective_evals"] == 0
    assert m["plant.misfire_ratio"] == misfires / 20
    layers = sum(m[f"{n}.self_s"] for n in (*spans.LAYERS, "bench"))
    assert layers == pytest.approx(totals["bench.rep"][1], rel=1e-9)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
