"""The benchmark's three pipelines reproduce their reference outputs: each
workload in perfbench/workloads.py, run once at its reference seed at full
size, gives the f2 and every output digest that perfbench/reference.json
records. The digests come from each workload's own ``summary``, so this
module holds no digest code; a refactor that moves one bit of an NN
prediction, a tuned cutoff, a curve, a report or a cv board fails here and
names the first output that differs."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_load("spans", BENCH / "spans.py")  # workloads.py imports its names from ``spans``
workloads = _load("perfbench_workloads", BENCH / "workloads.py")
# what perfbench/run.py's import_canopy hands the workloads, minus the fresh
# import of canopy: the test session's own canopy runs the pipelines
experiment = _load("stacking_experiment", ROOT / "scripts" / "stacking_experiment.py")
env = SimpleNamespace(make_problem=experiment.make_problem,
                      make_demo_data=ROOT / "scripts" / "make_demo_data.py")


def test_every_workload_has_a_reference():
    assert sorted(REFERENCE) == sorted(workloads.WORKLOADS)
    assert sum(len(r["digests"]) for r in REFERENCE.values()) == 40


@pytest.mark.parametrize("name", list(REFERENCE))
def test_workload_matches_its_reference(name, tmp_path, forks):
    workload, reference = workloads.WORKLOADS[name], REFERENCE[name]
    x = workload.generate(env, tmp_path, reference["seed"], full=True)
    ops = workloads.Ops()
    try:
        workload.run(x, ops)
    except workloads.OpFailed:
        pass  # ops.failures names the operation and why
    ops.verify()
    assert not ops.failures, ops.failures
    f2, digests = workload.summary(x, ops.results)
    assert list(digests) == list(reference["digests"])
    differ = [op for op, want in reference["digests"].items() if digests[op] != want]
    assert not differ, f"{name}: the digest of {differ[0]!r} differs from the reference " \
                       f"({len(differ)} of {len(digests)} differ)"
    assert f2 == reference["f2"], f"{name}: f2 {f2!r} differs from the reference"
