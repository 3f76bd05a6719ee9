#!/usr/bin/env python3
"""Benchmark canopy on closed-loop batch workloads.

    python3 perfbench/run.py --workload desk-stack --seed 2024 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One client process alternates set-up phases (each a few fresh imports of
canopy, seeded inputs and a warm-up on small inputs) with pipeline runs for
--seconds, and checks every output. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced pipeline runs and reports the per-layer metrics. It prints a
summary, writes a record (environment, every timing, spans) under
perfbench/out/, and ends with one JSON line. ``--workload all`` runs every
workload in its own process. See perfbench/README.md.
"""

import os

# one BLAS thread, set before numpy loads: the thread count moves NN timings,
# so both sides of a comparison must run with the same one
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, OpFailed, Ops, describe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "canopy" / "__init__.py"
EXPERIMENT = ROOT / "scripts" / "stacking_experiment.py"
DEMO_DATA = ROOT / "scripts" / "make_demo_data.py"
# before each pipeline run, set up again and again until the set-ups add up
# to SET_UP_PHASE_S: set-ups then sample the host's speed over the same
# stretch of time as the pipeline runs, and a cheap set-up gets many samples
SET_UP_PHASE_S = 2.0
CHILD_TIMEOUT_S = 900


def import_canopy() -> SimpleNamespace:
    """Import canopy and the experiment script afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "canopy" or m.startswith("canopy.")]:
        del sys.modules[name]
    canopy = importlib.import_module("canopy")
    if Path(canopy.__file__).resolve() != PACKAGE:
        raise RuntimeError(f"imported canopy from {canopy.__file__}, not from this checkout")
    spec = importlib.util.spec_from_file_location("stacking_experiment", EXPERIMENT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return SimpleNamespace(make_problem=script.make_problem, make_demo_data=DEMO_DATA)


def set_up(workload, seed: int, work: Path, times: list[float]):
    """Set up until SET_UP_PHASE_S have passed; return the last inputs.

    Each set-up replaces the inputs of the one before it, so the pipeline
    runs on inputs made by the canopy it last imported.
    """
    phase = 0.0
    while True:
        shutil.rmtree(work, ignore_errors=True)
        (work / "full").mkdir(parents=True)
        (work / "warm").mkdir()
        t0 = time.perf_counter()
        env = import_canopy()
        inputs = workload.generate(env, work / "full", seed, full=True)
        warm = workload.generate(env, work / "warm", seed, full=False)
        try:
            workload.run(warm, Ops())
        except OpFailed:
            pass  # the measured runs record the failure
        times.append(time.perf_counter() - t0)
        phase += times[-1]
        if phase >= SET_UP_PHASE_S:
            return inputs
        inputs = warm = None  # free them before the next set-up makes new ones


def measure(workload, seed: int, seconds: float, traced: bool, reference: dict | None, work: Path):
    """Alternate set-up phases and pipeline runs until ``seconds`` have passed.

    A traced measurement alternates untraced and traced pipeline runs and
    ends after at least one of each.
    """
    tracer = spans.Tracer()
    m = SimpleNamespace(walls=[], traced_walls=[], cpu=[], setups=[], attempted=0, failed=0,
                        failures=[], f2=None, digests=None, tracer=tracer)
    start = time.perf_counter()
    i = 0
    while True:
        inputs = ops = None  # free the last run's inputs and results before setting up
        inputs = set_up(workload, seed, work, m.setups)
        use_tracer = traced and i % 2 == 1
        ops = Ops()
        if use_tracer:
            tracer.run = i
            tracer.install(spans.PROBES)
            root = tracer.begin(spans.ROOT_SPAN)
        c0, t0 = os.times(), time.perf_counter()
        try:
            workload.run(inputs, ops)
        except OpFailed:
            pass
        finally:
            wall = time.perf_counter() - t0
            c1 = os.times()
            if use_tracer:
                tracer.end(root)
                tracer.restore()
        (m.traced_walls if use_tracer else m.walls).append(wall)
        if not use_tracer:
            m.cpu.append(c1.user + c1.system - c0.user - c0.system)
        ops.verify()
        if not ops.failures:
            judge(workload, inputs, ops, m, seed, reference)
        m.attempted += ops.attempted
        m.failed += len(ops.failures)
        m.failures += [f"run {i}: {name}: {why}" for name, why in ops.failures.items()]
        i += 1
        if time.perf_counter() - start >= seconds and (not traced or i >= 2):
            return m


def judge(workload, inputs, ops, m, seed: int, reference: dict | None) -> None:
    """Compare a run's f2 and digests with the first run and the reference."""
    try:
        f2, digests = workload.summary(inputs, ops.results)
    except Exception as exc:
        ops.failures["summary"] = describe(exc)
        return
    if m.digests is None:
        m.f2, m.digests = f2, digests
    expected = [(m.f2, m.digests, "differs from the first run")]
    if reference is not None and reference["seed"] == seed:
        expected.append((reference["f2"], reference["digests"], "differs from the reference"))
    for want_f2, want_digests, why in expected:
        for name in digests:
            if digests[name] != want_digests.get(name):
                ops.failures.setdefault(name, f"output digest {why}")
        if f2 != want_f2:
            for name in workload.f2_ops:
                ops.failures.setdefault(name, f"f2 {f2!r} {why} ({want_f2!r})")


def end_to_end(workload, m) -> tuple[dict, dict]:
    wall = statistics.median(m.walls)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(m.setups),
        "samples_per_s": workload.samples / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "f2": m.f2 if m.f2 is not None else 0.0,
    }
    runs = {"wall_s": len(m.walls), "setup_s": len(m.setups), "samples_per_s": len(m.walls),
            "peak_rss_mb": 1, "f2": len(m.walls)}
    return values, runs


def per_layer(workload, m) -> tuple[dict, dict]:
    silent = spans.silent_probes(m.tracer.spans, workload.name)
    if silent:
        raise RuntimeError(f"{workload.name}: probes recorded no call: {', '.join(silent)}")
    values, runs = spans.layer_metrics(m.tracer)
    for r in runs:
        if r.layer_self() > r.wall:
            raise RuntimeError(f"layer self time {r.layer_self():.6f} s exceeds traced wall {r.wall:.6f} s")
    counts = {name: len(runs) for name in values}
    values["proc.cpu_s"] = statistics.median(m.cpu)
    values["trace.overhead_s"] = statistics.median(m.traced_walls) - statistics.median(m.walls)
    counts["proc.cpu_s"] = len(m.cpu)
    counts["trace.overhead_s"] = min(len(m.cpu), len(runs))
    return values, counts


def wall_percentile(walls: list[float]) -> tuple[int, float] | None:
    """The highest of p90/p99/p99.9 with at least ten runs beyond it."""
    best = None
    for p in (90, 99, 99.9):
        if len(walls) * (100 - p) / 100 >= 10:
            best = (p, float(np.percentile(walls, p)))
    return best


# -- run record -------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the repository this checkout is the top of, if it is one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package and scripts, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> tuple[str, int | None]:
    """BLAS library and the thread count it reports, when it can be asked."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment() -> dict:
    blas, threads = blas_info()
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_declared() -> dict:
    """BENCHMARK.json's units by metric name, checked against what this code reports."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in declared["workloads"]}
    if names != set(WORKLOADS):
        raise RuntimeError(f"BENCHMARK.json workloads {sorted(names)} != {sorted(WORKLOADS)}")
    layer = set(spans.PER_LAYER) | set(spans.RUNNER_METRICS)
    if {m["name"] for m in declared["per_layer"]} != layer:
        raise RuntimeError("BENCHMARK.json per_layer metrics differ from perfbench/spans.py")
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


# -- entry points -----------------------------------------------------------


def run_one(name: str, seed: int | None, seconds: float, traced: bool) -> int:
    units = load_declared()
    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    references = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
    try:
        m = measure(workload, seed, seconds, traced, references.get(name), work)
        values, runs = per_layer(workload, m) if traced else end_to_end(workload, m)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"{name} seed={seed} trace={int(traced)} blas_threads={env['blas_threads']} "
          f"cpu={env['cpu_model']!r} nproc={env['nproc']}")
    for metric, value in values.items():
        print(f"  {metric:<30} {value:>16.6f} {units[metric]:<6} runs={runs[metric]}")
    error_rate = m.failed / m.attempted if m.attempted else 1.0
    print(f"  {'error_rate':<30} {error_rate:>16.6f} {'ratio':<6} runs={m.attempted} operations")
    if not traced and (tail := wall_percentile(m.walls)):
        print(f"  {'wall_s_p' + format(tail[0], 'g'):<30} {tail[1]:>16.6f} {'s':<6} runs={len(m.walls)}")
    for failure in m.failures:
        print(f"  FAILED {failure}")

    record = {
        "workload": name, "seed": seed, "trace": int(traced), "seconds": seconds,
        "environment": env,
        "metrics": {k: {"value": v, "unit": units[k], "runs": runs[k]} for k, v in values.items()},
        "error_rate": error_rate, "attempted": m.attempted, "failed": m.failed,
        "failures": m.failures, "f2": m.f2, "digests": m.digests,
        "walls_s": m.walls, "traced_walls_s": m.traced_walls, "setups_s": m.setups,
        "spans": m.tracer.as_records(),
    }
    path = out / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(seed: int | None, seconds: float, traced: bool) -> int:
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seconds", str(seconds),
                "--trace", str(int(traced))]
        if seed is not None:
            argv += ["--seed", str(seed)]
        worst = max(worst, subprocess.run(argv, timeout=CHILD_TIMEOUT_S).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (PACKAGE, EXPERIMENT, DEMO_DATA) if not p.is_file()]
    if missing:
        print(f"perfbench: canopy sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
