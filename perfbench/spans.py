"""Per-layer spans for canopy, recorded from outside the package.

A probe wraps one public function at the name its caller resolves
(``module:attr`` or ``module:Class.attr``) for the length of a traced
workload run and restores it afterwards, so untraced runs execute the
package untouched. Spans carry name, start, end, parent id and run id, stay
in memory, and are written out with the result when the run ends.

This module imports nothing from canopy at import time: the benchmark
re-imports the package during set-up and probes resolve their targets only
when installed.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

DESK, PAPER, CV = "desk-stack", "paper-ingest", "cv-forest"
ROOT_SPAN = "workload"


@dataclass
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    probe: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Probe:
    """Wrap ``target`` and record a span named ``span`` per call.

    ``workloads`` lists the workloads that must call the target at least
    once; ``count`` turns (args, kwargs, result) into work counters.
    """

    target: str
    span: str | Callable[[tuple], str]
    workloads: frozenset
    count: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, probe: str = "") -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.run, name, probe, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def install(self, probes) -> None:
        try:
            for probe in probes:
                owner, attr = _resolve(probe.target)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, probe))
                self._patches.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, probe: Probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = probe.span(args) if callable(probe.span) else probe.span
            span = self.begin(name, probe.target)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if probe.count is not None:
                span.counts = probe.count(args, kwargs, result)
            return result

        return traced

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _resolve(target: str) -> tuple[object, str]:
    """``pkg.mod:Class.attr`` -> (Class, "attr"); ``pkg.mod:attr`` -> (module, "attr")."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"probe target {target} no longer exists")
    return owner, attr


# -- work counters, taken at each probe boundary ----------------------------


def _candidates(args, kwargs, result):
    # distinct scores swept per optimizable label, counted from the inputs
    probs, truth = args[0], args[1]
    y = truth.as_bool()
    return {
        "candidates": sum(
            len(np.unique(probs.values[:, j])) for j in range(y.shape[1]) if y[:, j].any()
        )
    }


def _parsed(args, kwargs, result):
    return {"rows": result[1].n_samples, "bytes": os.path.getsize(args[0])}


def _epochs(args, kwargs, result):
    return {"epochs": result.epochs_run}


def _rows(args, kwargs, result):
    return {"rows": args[1].n_samples}


def _pixels(args, kwargs, result):
    img = args[0]
    return {"pixels": img.shape[0] * img.shape[1]}


def _cli_span(args) -> str:
    return "cli." + args[0][0]


def _on(*workloads: str) -> frozenset:
    return frozenset(workloads)


PROBES = (
    Probe("canopy.cli:main", _cli_span, _on(PAPER, CV)),
    Probe("canopy.thresholds:optimize_thresholds", "thresholds.optimize", _on(DESK), _candidates),
    Probe("canopy.thresholds:pr_curve", "thresholds.pr_curve", _on(DESK)),
    Probe("canopy.ensemble:train", "nn.train", _on(DESK), _epochs),
    Probe("canopy.nn.network:Network.loss_and_gradients", "nn.batch", _on(DESK)),
    Probe("canopy.ensemble:stack_train", "ensemble.stack_train", _on(DESK)),
    Probe("canopy.ensemble:StackModel.predict", "ensemble.predict", _on(DESK)),
    Probe("canopy.ensemble:weighted_vote", "ensemble.vote", _on(DESK)),
    Probe("canopy.cli:weighted_vote", "ensemble.vote", _on(PAPER)),
    Probe("canopy.classical:fit_multioutput", "classical.fit", _on(CV)),
    Probe("canopy.classical:predict_multioutput", "classical.predict", _on(CV), _rows),
    Probe("canopy.classical.forest:tree_fit", "classical.tree_fit", _on(CV)),
    Probe("canopy.classical.gbm:tree_fit", "classical.tree_fit", _on(CV)),
    Probe("canopy.classical.tree:DecisionTree.predict_value", "classical.tree_predict", _on(CV)),
    Probe("canopy.classical.tree:DecisionTree.predict_proba", "classical.tree_predict", _on(CV)),
    Probe("canopy.cli:load_tags", "data.parse", _on(PAPER, CV), _parsed),
    Probe("canopy.cli:load_probs", "data.parse", _on(PAPER), _parsed),
    Probe("canopy.cli:load_features", "data.parse", _on(CV), _parsed),
    Probe("canopy.data:load_probs", "data.parse", _on(PAPER), _parsed),
    Probe("canopy.splits:load_folds", "data.parse", _on(PAPER), _parsed),
    Probe("canopy.cli:save_probs", "data.write", _on(PAPER)),
    Probe("canopy.cli:save_folds", "data.write", _on(PAPER)),
    Probe("canopy.cli:stratified_kfold", "splits.kfold", _on(PAPER)),
    Probe("canopy.splits:stratified_kfold", "splits.kfold", _on(CV)),
    Probe("canopy.cli:cv_evaluate", "splits.cv_evaluate", _on(CV)),
    Probe("canopy.metrics:report", "metrics.report", _on(DESK, PAPER)),
    Probe("canopy.cli:report", "metrics.report", _on(PAPER)),
    Probe("canopy.splits:report", "metrics.report", _on(CV)),
    Probe("canopy.nn.training:sample_fbeta", "metrics.sample_fbeta", _on(DESK)),
    Probe("canopy.imageprep:preprocess", "imageprep.preprocess", _on(PAPER), _pixels),
    Probe("canopy.imageprep:augment", "imageprep.augment", _on(PAPER), _pixels),
)


def silent_probes(spans: list[Span], workload: str) -> list[str]:
    """Probes this workload must exercise that recorded no call."""
    called = {s.probe for s in spans}
    return [p.target for p in PROBES if workload in p.workloads and p.target not in called]


# -- per-layer metrics ------------------------------------------------------


class RunStats:
    """Inclusive time, self time, calls and counters of one traced run."""

    def __init__(self, spans: list[Span]):
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        self.incl: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, float] = defaultdict(float)
        self.wall = 0.0
        for s in spans:
            # children of one span never overlap: a single thread opens and
            # closes spans as a stack, so their summed durations are the
            # part of the parent they cover
            own = s.end - s.start - child_time[s.id]
            if s.name == ROOT_SPAN:
                self.wall = s.end - s.start
                continue
            self.incl[s.name] += s.end - s.start
            self.self[s.name] += own
            self.calls[s.name] += 1
            for key, value in s.counts.items():
                self.counts[f"{s.name}.{key}"] += value

    def layer_self(self) -> float:
        return sum(self.self.values())

    def prefixed(self, table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# per-layer metric -> its value in one traced run; units and directions
# are declared in BENCHMARK.json
PER_LAYER: dict[str, Callable[[RunStats], float]] = {
    "thresholds.optimize_s": lambda r: r.incl["thresholds.optimize"],
    "thresholds.candidates": lambda r: r.counts["thresholds.optimize.candidates"],
    "thresholds.candidates_per_s": lambda r: _ratio(
        r.counts["thresholds.optimize.candidates"], r.incl["thresholds.optimize"]),
    "thresholds.pr_curve_s": lambda r: r.incl["thresholds.pr_curve"],
    "nn.train_s": lambda r: r.incl["nn.train"],
    "nn.epochs": lambda r: r.counts["nn.train.epochs"],
    "nn.epoch_s": lambda r: _ratio(r.incl["nn.train"], r.counts["nn.train.epochs"]),
    "nn.batches": lambda r: r.calls["nn.batch"],
    "ensemble.stack_train_s": lambda r: r.incl["ensemble.stack_train"],
    "ensemble.vote_s": lambda r: r.incl["ensemble.vote"],
    "ensemble.predict_s": lambda r: r.incl["ensemble.predict"],
    "classical.tree_fit_s": lambda r: r.incl["classical.tree_fit"],
    "classical.trees": lambda r: r.calls["classical.tree_fit"],
    "classical.tree_predict_s": lambda r: r.incl["classical.tree_predict"],
    "classical.fit_s": lambda r: r.incl["classical.fit"],
    "classical.predict_s": lambda r: r.incl["classical.predict"],
    "classical.predict_rows_per_s": lambda r: _ratio(
        r.counts["classical.predict.rows"], r.incl["classical.predict"]),
    "data.parse_s": lambda r: r.incl["data.parse"],
    "data.parse_rows_per_s": lambda r: _ratio(
        r.counts["data.parse.rows"], r.incl["data.parse"]),
    "data.bytes_read": lambda r: r.counts["data.parse.bytes"],
    "data.write_s": lambda r: r.incl["data.write"],
    "cli.split_s": lambda r: r.incl["cli.split"],
    "cli.metrics_s": lambda r: r.incl["cli.metrics"],
    "cli.vote_s": lambda r: r.incl["cli.vote"],
    "cli.cv_s": lambda r: r.incl["cli.cv"],
    "cli.self_s": lambda r: r.prefixed(r.self, "cli."),
    "splits.kfold_s": lambda r: r.incl["splits.kfold"],
    "splits.cv_evaluate_s": lambda r: r.incl["splits.cv_evaluate"],
    "splits.cv_self_s": lambda r: r.self["splits.cv_evaluate"],
    "metrics.report_s": lambda r: r.incl["metrics.report"],
    "metrics.calls": lambda r: r.prefixed(r.calls, "metrics."),
    "imageprep.preprocess_s": lambda r: r.incl["imageprep.preprocess"],
    "imageprep.augment_s": lambda r: r.incl["imageprep.augment"],
    "imageprep.mpix_per_s": lambda r: _ratio(
        (r.counts["imageprep.preprocess.pixels"] + r.counts["imageprep.augment.pixels"]) / 1e6,
        r.incl["imageprep.preprocess"] + r.incl["imageprep.augment"]),
    "trace.wall_s": lambda r: r.wall,
    "trace.layer_self_s": lambda r: r.layer_self(),
}

# measured by the runner rather than from spans
RUNNER_METRICS = ("proc.cpu_s", "trace.overhead_s")


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[RunStats]]:
    """Median over traced runs of every PER_LAYER metric."""
    by_run: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_run[s.run].append(s)
    runs = [RunStats(run_spans) for _, run_spans in sorted(by_run.items())]
    values = {
        name: float(statistics.median(fn(r) for r in runs)) for name, fn in PER_LAYER.items()
    }
    return values, runs
