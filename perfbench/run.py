"""dualfuel benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {dataset,calibration,closed_loop,pipeline}
                             --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout, in this one process,
with no threads or subprocesses. Set-up (import, kernel warm-up, input
construction) runs several times and its median is reported. The workload
then repeats until ``--seconds`` have passed; every repetition's outputs are
hashed and the first is checked. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
untraced and traced repetitions alternate and it carries the per-layer
metrics. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans
from workloads import WORKLOADS, highest_percentile

ROOT = Path(__file__).resolve().parent.parent
# set-up repeats at least SETUPS times and for at least SETUP_SECONDS in all
SETUPS = 5
SETUP_SECONDS = 2.0
MODULES = ("_kernels", "core", "model", "plant", "calib", "control",
           "scenarios", "harness", "cli")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def load_package():
    """The package version and its modules, by name."""
    pkg = importlib.import_module("dualfuel")
    return SimpleNamespace(version=pkg.__version__,
                           **{m: importlib.import_module(f"dualfuel.{m}") for m in MODULES})


def warm_up(pkg):
    """One plant SOC: the JIT compile when numba is active, lazy numpy paths
    otherwise."""
    op = pkg.core.OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=0.4, egr=0.25,
                                 x_r=0.03, p_ivc=3.0, t_ivc=390.0)
    cfg = pkg.plant.PlantConfig(geom=pkg.core.default_geometry(),
                                coeffs=pkg.core.default_coefficients())
    pkg.plant.knock_integral_soc(op, -15.0, cfg)
    pkg.plant.knock_integral_value(op, -15.0, -10.0, cfg)


def set_up(workload, seed, workdir):
    """Repeated full set-ups, each from a fresh import of the package;
    returns (package, per-set-up seconds)."""
    times = []
    while len(times) < SETUPS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        for name in [m for m in sys.modules if m.split(".")[0] == "dualfuel"]:
            del sys.modules[name]
        pkg = load_package()
        warm_up(pkg)
        workload.setup(pkg, seed, workdir)
        times.append(time.perf_counter() - t0)
    return pkg, times


def pin_to_one_cpu():
    """Keep this single-threaded process on one CPU. The CPUs of a shared
    machine can run at different speeds; migrating between them makes a
    run's speed depend on where it lands. Returns the CPU, or None."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def numba_soc_diff(pkg, seed, points=200):
    """Max |SOC| difference [CAD] between the numba and numpy marches over
    random points of the default box, or None without numba."""
    k = pkg._kernels
    if not k.NUMBA_ENABLED:
        return None
    rng = np.random.default_rng(seed)
    ranges = pkg.calib.SampleRanges()
    cfg = pkg.plant.PlantConfig(geom=pkg.core.default_geometry(),
                                coeffs=pkg.core.default_coefficients())
    worst = 0.0
    for _ in range(points):
        vals = {f: rng.uniform(*getattr(ranges, f)) for f in
                ("speed", "phi_ng", "phi_di", "egr", "x_r", "p_ivc", "t_ivc")}
        args = ((rng.uniform(*ranges.soi), cfg.quad_step, pkg.plant.MISFIRE_LIMIT)
                + pkg.plant._kernel_args(pkg.core.OperatingPoint(**vals), cfg))
        worst = max(worst, abs(k.march_jit(*args)[0] - k.march_numpy(*args)[0]))
    return worst


def manifest(pkg, args, backend, cpu):
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "package_version": pkg.version,
        "kernel_backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "git_commit": git_commit(ROOT),
        "numba_vs_numpy_max_abs_soc_diff_cad": numba_soc_diff(pkg, args.seed),
    }


def measure(workload, pkg, seconds, tracer=None, backend=None):
    """Repeat the workload for `seconds`. With a tracer, untraced and traced
    repetitions alternate. Returns a namespace of the results."""
    res = SimpleNamespace(walls=[], traced_walls=[], op_times=[], attempted=0,
                          failed=0, first=None, digests=None, first_failed=0,
                          totals={}, counters={}, mismatches=0, errors=0)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        i += 1
        workload.prepare()
        res.attempted += workload.ops()
        patches = spans.install(pkg, tracer, backend) if traced else []
        try:
            root = tracer.begin("bench.rep") if traced else None
            t0 = time.perf_counter()
            out = workload.run()
            wall = time.perf_counter() - t0
            if traced:
                tracer.end(root)
        except Exception:
            traceback.print_exc()
            res.failed += workload.ops()
            res.errors += 1
            if traced:
                tracer.reset()
            continue
        finally:
            spans.uninstall(patches)
        digests = workload.digests(out)
        if res.first is None:
            res.first, res.digests = out, digests
            res.first_failed = workload.check(out)
            failed = res.first_failed
        elif digests == res.digests:
            failed = res.first_failed     # same bytes as the checked repetition
        else:
            res.mismatches += 1
            failed = workload.ops()
        res.failed += failed
        if traced:
            for name, row in spans.span_totals(tracer.names, tracer.parents,
                                               tracer.starts, tracer.ends).items():
                acc = res.totals.setdefault(name, [0, 0.0, 0.0])
                for j in range(3):
                    acc[j] += row[j]
            for name, value in tracer.counters.items():
                res.counters[name] = res.counters.get(name, 0.0) + value
            tracer.reset()
            res.traced_walls.append(wall)
        else:
            res.walls.append(wall)
            res.op_times += workload.op_times(out)
    return res


def describe(values, unit):
    """Median and the highest percentile with ten samples beyond it."""
    top = highest_percentile(values)
    tail = (f", p{top[0]:g} {top[1]:.6g} {unit}" if top
            else ", no percentile above the median has 10 samples beyond it")
    return f"median {statistics.median(values):.6g} {unit} of {len(values)}{tail}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dualfuel" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def bench(args, workdir):
    cpu = pin_to_one_cpu()
    workload = WORKLOADS[args.workload]()
    pkg, setup_times = set_up(workload, args.seed, workdir)
    backend = spans.kernel_backend(pkg._kernels)
    tracer = spans.Tracer() if args.trace else None
    res = measure(workload, pkg, args.seconds, tracer, backend)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("manifest " + json.dumps(manifest(pkg, args, backend, cpu), sort_keys=True))
    for name, digest in sorted((res.digests or {}).items()):
        print(f"digest {name} {digest}")

    correct = res.first is not None and res.failed == 0
    problems = []
    if res.errors:
        problems.append(f"{res.errors} repetition(s) raised")
    if res.mismatches:
        problems.append(f"{res.mismatches} repetition(s) differ from the first")
    if res.first_failed:
        problems.append(f"{res.first_failed} operation(s) failed their output check")

    if args.trace:
        reps = len(res.traced_walls)
        metrics = spans.layer_metrics(
            res.totals, res.counters, max(reps, 1),
            statistics.median(res.walls) if res.walls else 0.0,
            statistics.median(res.traced_walls) if res.traced_walls else 0.0)
        if res.first is not None and reps:
            for name, expected in workload.attribution(res.first):
                if metrics[name] != expected:
                    problems.append(f"attribution: {name} = {metrics[name]:g} per "
                                    f"repetition, expected {expected:g}")
            layer_sum = sum(metrics[f"{n}.self_s"] for n in (*spans.LAYERS, "bench"))
            root = res.totals["bench.rep"][1] / reps
            if abs(layer_sum - root) > 1e-9 * max(root, 1.0):
                problems.append(f"self times sum to {layer_sum:.9f} s, "
                                f"repetition span is {root:.9f} s")
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        print(f"traced repetitions {reps}, untraced {len(res.walls)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            # operations completed per second of timed work in the untraced
            # repetitions; steadier than the median repetition time on a shared
            # CPU (see README)
            "ops_per_s": len(res.walls) * workload.ops() / sum(res.walls) if res.walls else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"setup_s: {describe(setup_times, 's')}; first (cold) set-up "
              f"{setup_times[0]:.6g} s")
        if res.walls:
            print(f"repetition wall time: {describe(res.walls, 's')}")
            for name, value, unit in workload.report(res.walls, res.first, res.op_times):
                print(f"metric {name} {value:.6g} {unit}")
    print(f"metric fail_ratio {res.failed / max(res.attempted, 1):.6g} "
          f"({res.failed} of {res.attempted} operations)")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    correct = correct and not problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
