"""The benchmark's workloads: seeded inputs, timed pipelines, output checks.

An operation is one top-level step: one CLI invocation or one library
pipeline call. It fails if it raises, exits nonzero, or fails its check.
Checks are declared next to the operation and run after the timed pipeline.

Pipelines reach canopy through module attributes looked up when they run,
never through names bound at import, so a traced run's probes see every
call. Nothing here imports canopy at module level: the runner imports the
package afresh during each set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import runpy
import sys
import traceback
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import CV, DESK, PAPER

# sample-F2 from two formulas (bool-array kernel vs averaged counts) agrees
# to rounding only
SCORE_TOL = 1e-12
# printed floats carry 6 decimals; a mean of rounded values differs from the
# rounded mean by at most one unit in the last place
PRINTED_TOL = 1e-6


class OpFailed(Exception):
    """An operation raised; the pipeline run stops there."""


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Runs one pipeline's operations, keeping results and failures."""

    def __init__(self):
        self.attempted = 0
        self.results: dict[str, object] = {}
        self.failures: dict[str, str] = {}
        self._checks: list[tuple[str, object, object]] = []

    def __call__(self, name, fn, *args, check=None, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failures[name] = describe(exc)
            raise OpFailed(name) from exc
        self.results[name] = result
        if check is not None:
            self._checks.append((name, check, result))
        return result

    def verify(self) -> None:
        for name, check, result in self._checks:
            try:
                check(result)
            except Exception as exc:
                self.failures.setdefault(name, "check failed: " + describe(exc))


def describe(exc: Exception) -> str:
    """The exception and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{exc!r} at {Path(frame.filename).name}:{frame.lineno}"


def run_cli(argv: list[str]) -> str:
    """Invoke ``canopy.cli.main`` in-process; return its stdout."""
    from canopy import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise RuntimeError(f"canopy {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digest_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- checks shared by workloads --------------------------------------------


def check_coordinate(probs, truth, result) -> None:
    from canopy.metrics import sample_fbeta
    from canopy.thresholds import apply_thresholds

    cutoffs, score = result
    exact = sample_fbeta(apply_thresholds(probs, cutoffs), truth)
    expect(abs(exact - score) <= SCORE_TOL, f"score {score!r} != sample_fbeta {exact!r}")
    plain = sample_fbeta(apply_thresholds(probs, np.full(probs.n_labels, 0.5)), truth)
    expect(score + SCORE_TOL >= plain, f"tuned {score!r} < F2 at 0.5 {plain!r}")


def check_cutoffs(n_labels, result) -> None:
    cutoffs, score = result
    expect(cutoffs.shape == (n_labels,), f"cutoff shape {cutoffs.shape}")
    expect(bool(((cutoffs >= 0) & (cutoffs <= 1)).all()), "cutoff outside [0, 1]")
    expect(0.0 <= score <= 1.0, f"score {score} outside [0, 1]")


def check_pr_curve(scores, truth, curve) -> None:
    """Recount every point with a sorted search instead of the sweep."""
    t = truth.astype(bool)
    expected = np.unique(scores)
    if expected[0] > 0.0:
        expected = np.concatenate(([0.0], expected))
    expect(np.array_equal(curve.thresholds, expected), "thresholds are not the scores and 0")
    expect(curve.positive_count == int(t.sum()), "positive count")
    ordered, ordered_pos = np.sort(scores), np.sort(scores[t])
    predicted = len(ordered) - np.searchsorted(ordered, expected, side="left")
    tp = len(ordered_pos) - np.searchsorted(ordered_pos, expected, side="left")
    precision = np.divide(tp, predicted, out=np.zeros(len(expected)), where=predicted > 0)
    expect(np.array_equal(curve.precision, precision), "precision differs from a recount")
    expect(np.array_equal(curve.recall, tp / int(t.sum())), "recall differs from a recount")


def check_per_class(probs, truth, result) -> None:
    """The per-class score is the mean per-class F2 of its own cutoffs."""
    from canopy.metrics import report
    from canopy.thresholds import apply_thresholds

    cutoffs, score = result
    check_cutoffs(probs.n_labels, result)
    exact = float(np.mean(report(apply_thresholds(probs, cutoffs), truth).f2))
    expect(abs(exact - score) <= SCORE_TOL, f"score {score!r} != mean class F2 {exact!r}")
    plain = float(np.mean(report(apply_thresholds(probs, np.full(probs.n_labels, 0.5)), truth).f2))
    expect(score + SCORE_TOL >= plain, f"tuned {score!r} < mean class F2 at 0.5 {plain!r}")


def check_vote(hard, weights, voted) -> None:
    total = sum(w * h.values.astype(np.int64) for w, h in zip(weights, hard))
    expect(np.array_equal(voted.values, (2 * total > sum(weights)).astype(np.int8)),
           "vote differs from the weighted majority")


def check_report(n_labels, rep) -> None:
    expect(len(rep.class_names) == n_labels, "class rows")
    expect(all(0.0 <= v <= 1.0 for v in rep.total), f"Total row {rep.total}")


def check_probs(shape, probs) -> None:
    v = probs.values
    expect(v.shape == shape, f"shape {v.shape} != {shape}")
    expect(bool(((v >= 0) & (v <= 1)).all()), "probability outside [0, 1]")


# -- desk-stack -------------------------------------------------------------


class DeskStack:
    """The desk-scale stacking experiment, all in memory."""

    name = DESK
    default_seed = 2024
    samples = 2000
    f2_ops = ("tune meta coordinate",)

    def generate(self, env, workdir: Path, seed: int, full: bool):
        from canopy.data import LabelMatrix, ProbMatrix, make_rng
        from canopy.ensemble import StackedFeatures

        n, n_models, epochs = (self.samples, 11, 40) if full else (200, 3, 2)
        vocab, truth, models = env.make_problem(seed, n, n_models, 0.3, 0.65)
        va = make_rng(seed + 1).permutation(n)[int(n * 0.75):]
        return SimpleNamespace(
            seed=seed,
            vocab=vocab,
            truth=truth,
            va=va,
            epochs=epochs,
            val_truth=LabelMatrix(values=truth.values[va], vocab=vocab),
            val_probs=[ProbMatrix(values=m.values[va], vocab=vocab) for m in models],
            hard=[
                LabelMatrix(values=(m.values[va] >= 0.5).astype(np.int8), vocab=vocab)
                for m in models
            ],
            stacked=StackedFeatures(
                values=np.concatenate([m.values for m in models], axis=1),
                n_models=n_models,
                vocab=vocab,
            ),
        )

    def run(self, x, ops: Ops) -> None:
        from canopy import ensemble, metrics, thresholds
        from canopy.ensemble import MetaLearnerConfig
        from canopy.nn import TrainConfig

        vt = x.val_truth
        k = len(x.vocab)
        scores = []
        for i, pm in enumerate(x.val_probs):
            _, score = ops(f"tune base {i}", thresholds.optimize_thresholds, pm, vt, beta=2.0,
                           check=partial(check_coordinate, pm, vt))
            scores.append(score)
        ranks = np.argsort(np.argsort(scores))
        weights = [1 + int(r * 3 / len(scores)) for r in ranks]
        ops("vote", ensemble.weighted_vote, x.hard, weights,
            check=partial(check_vote, x.hard, weights))

        config = MetaLearnerConfig(
            train=TrainConfig(batch_size=128, max_epochs=x.epochs, patience=8,
                              learning_rate=0.01, optimizer="amsgrad", seed=x.seed)
        )
        meta = ops("stack_train", ensemble.stack_train, x.stacked, x.truth, config,
                   seed=x.seed, val_indices=x.va,
                   check=lambda m: expect(1 <= m.best_epoch <= x.epochs, "best epoch"))
        meta_val = ops("predict", meta.predict, x.stacked.values[x.va],
                       check=partial(check_probs, vt.values.shape))
        cutoffs, _ = ops("tune meta coordinate", thresholds.optimize_thresholds, meta_val, vt,
                         beta=2.0, check=partial(check_coordinate, meta_val, vt))
        ops("tune meta per-class", thresholds.optimize_thresholds, meta_val, vt, beta=2.0,
            mode="per-class", check=partial(check_per_class, meta_val, vt))
        for j, label in enumerate(x.vocab.names):
            if vt.values[:, j].any():
                scores, truth = meta_val.values[:, j], vt.values[:, j]
                ops(f"pr_curve {label}", thresholds.pr_curve, scores, truth,
                    check=partial(check_pr_curve, scores, truth))
        ops("report", metrics.report, thresholds.apply_thresholds(meta_val, cutoffs), vt,
            check=partial(check_report, k))

    def summary(self, x, results) -> tuple[float, dict[str, str]]:
        digests = {}
        for name, result in results.items():
            if name.startswith("tune "):
                cutoffs, score = result
                digests[name] = digest_arrays(cutoffs, np.float64(score))
            elif name.startswith("pr_curve "):
                digests[name] = digest_arrays(result.thresholds, result.precision, result.recall)
        digests["vote"] = digest_arrays(results["vote"].values)
        digests["predict"] = digest_arrays(results["predict"].values)
        rep = results["report"]
        digests["report"] = digest_arrays(rep.precision, rep.recall, rep.accuracy, rep.f1, rep.f2,
                                          np.array(rep.total))
        return results["tune meta coordinate"][1], digests


# -- paper-ingest -----------------------------------------------------------


def fold_report(report, pred, truth, idx):
    from canopy.data import LabelMatrix

    return report(
        LabelMatrix(values=pred.values[idx], vocab=pred.vocab),
        LabelMatrix(values=truth.values[idx], vocab=truth.vocab),
    )


def over_batch(fn, images, arg):
    """Apply ``fn(image, arg)`` to every image; keep the first output to check."""
    first = None
    for img in images:
        out = fn(img, arg)
        if first is None:
            first = out
    return first


def expected_pixels(img, name: str) -> np.ndarray:
    from canopy import imageprep

    a = np.asarray(img, dtype=np.float64)
    return {
        "tf": lambda: a / 127.5 - 1.0,
        "caffe": lambda: a[:, :, ::-1] - np.array(imageprep.CAFFE_BGR_MEAN),
        "torch": lambda: (a / 255.0 - np.array(imageprep.TORCH_MEAN)) / np.array(imageprep.TORCH_STD),
        "flip_lr": lambda: a[:, ::-1, :],
        "flip_ud": lambda: a[::-1, :, :],
        "rot90_cw": lambda: np.rot90(a, k=-1, axes=(0, 1)),
        "rot90_ccw": lambda: np.rot90(a, k=1, axes=(0, 1)),
    }[name]()


def check_pixels(img, name, out) -> None:
    expect(np.array_equal(out, expected_pixels(img, name)), f"{name} output differs")


def check_folds(ids, k, stdout, result) -> None:
    fold_ids, folds = result
    expect(fold_ids == ids, "fold file ids differ from the tag file")
    expect(folds.k == k, f"{folds.k} folds, expected {k}")
    sizes = np.bincount(folds.fold_of, minlength=k)
    expect(int(sizes.max() - sizes.min()) <= 1, f"fold sizes {sizes.tolist()}")
    printed = stdout.strip().removeprefix("fold sizes: ")
    expect([int(s) for s in printed.split(",")] == sizes.tolist(), "printed fold sizes")


def check_board(path, n_labels, stdout) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expect(len(rows) == n_labels + 2 and rows[-1][0] == "Total", "scoreboard rows")
    values = [float(v) for row in rows[1:] for v in row[1:]]
    expect(len(values) == 5 * (n_labels + 1), "scoreboard columns")
    expect(all(0.0 <= v <= 1.0 for v in values), "scoreboard value outside [0, 1]")
    expect(stdout.splitlines()[-1].split()[1:] == rows[-1][1:], "printed Total row")


def check_votes(ids, expected, result) -> None:
    vote_ids, voted = result
    expect(vote_ids == ids, "vote file ids differ from the tag file")
    expect(np.array_equal(voted.values, expected), "CLI vote differs from weighted_vote")


class PaperIngest:
    """Paper-scale files through the CLI and the library's readers."""

    name = PAPER
    default_seed = 2024
    samples = 40479
    models = 3
    weights = (3, 2, 1)
    k = 5
    # base-model noise, lower than the experiment's 0.3-0.65: there the
    # voted F2 at fixed 0.5 cutoffs hangs on 17 random per-label gains and
    # moves 5-9% between seeds; here it stays near 0.999 on every seed, so a
    # tight f2 bound holds. Parsing and writing cost does not depend on it:
    # every value is written with 6 decimals.
    noise = (0.05, 0.2)
    f2_ops = ("load votes",)

    def generate(self, env, workdir: Path, seed: int, full: bool):
        from canopy.data import AMAZON_LABELS, LabelMatrix, ProbMatrix, make_rng, save_probs, save_tags
        from canopy.ensemble import weighted_vote

        n, n_images, side = (self.samples, 32, 256) if full else (300, 2, 16)
        _, truth, models = env.make_problem(seed, n, self.models, *self.noise)
        truth = LabelMatrix(values=truth.values, vocab=AMAZON_LABELS)
        ids = [f"train_{i}" for i in range(n)]
        save_tags(workdir / "tags.csv", ids, truth)
        hard = []
        for i, m in enumerate(models):
            h = (m.values >= 0.5).astype(np.int8)
            save_probs(workdir / f"model_{i}_probs.csv", ids, ProbMatrix(values=m.values, vocab=AMAZON_LABELS))
            save_probs(workdir / f"model_{i}_hard.csv", ids,
                       ProbMatrix(values=h.astype(np.float64), vocab=AMAZON_LABELS))
            hard.append(LabelMatrix(values=h, vocab=AMAZON_LABELS))
        return SimpleNamespace(
            dir=workdir,
            seed=seed,
            ids=ids,
            truth=truth,
            images=make_rng(seed + 2).integers(0, 256, size=(n_images, side, side, 3), dtype=np.uint8),
            expected_vote=weighted_vote(hard, list(self.weights)).values,
        )

    def run(self, x, ops: Ops) -> None:
        from canopy import data, imageprep, metrics, splits

        d = x.dir
        tags = str(d / "tags.csv")
        folds_csv, votes_csv = d / "folds.csv", d / "votes.csv"
        n_labels = x.truth.n_labels
        split_out = ops("cli split", run_cli,
                        ["split", "--tags", tags, "--vocab", "amazon", "--k", str(self.k),
                         "--seed", str(x.seed), "--out", str(folds_csv)])
        for i in range(self.models):
            board = d / f"board_{i}.csv"
            ops(f"cli metrics {i}", run_cli,
                ["metrics", "--pred", str(d / f"model_{i}_probs.csv"), "--truth", tags,
                 "--vocab", "amazon", "--out", str(board)],
                check=partial(check_board, board, n_labels))
        hard_args = [a for i in range(self.models) for a in ("--pred", str(d / f"model_{i}_hard.csv"))]
        ops("cli vote", run_cli,
            ["vote", *hard_args, "--weights", ",".join(map(str, self.weights)),
             "--vocab", "amazon", "--out", str(votes_csv)])

        _, voted = ops("load votes", data.load_probs, votes_csv, x.truth.vocab,
                       check=partial(check_votes, x.ids, x.expected_vote))
        _, folds = ops("load folds", splits.load_folds, folds_csv,
                       check=partial(check_folds, x.ids, self.k, split_out))
        pred = data.LabelMatrix(values=voted.values.astype(np.int8), vocab=voted.vocab)
        for f in range(folds.k):
            ops(f"report fold {f}", fold_report, metrics.report, pred, x.truth,
                folds.fold_indices(f), check=partial(check_report, n_labels))

        for mode in imageprep.MODES:
            ops(f"preprocess {mode}", over_batch, imageprep.preprocess, x.images, mode,
                check=partial(check_pixels, x.images[0], mode))
        for op in imageprep.AUGMENT_OPS:
            ops(f"augment {op}", over_batch, imageprep.augment, x.images, op,
                check=partial(check_pixels, x.images[0], op))

    def summary(self, x, results) -> tuple[float, dict[str, str]]:
        from canopy.metrics import sample_fbeta

        _, voted = results["load votes"]
        d = x.dir
        digests = {"cli split": digest_file(d / "folds.csv"), "cli vote": digest_file(d / "votes.csv")}
        for i in range(self.models):
            digests[f"cli metrics {i}"] = digest_file(d / f"board_{i}.csv")
        return sample_fbeta(voted.values.astype(np.int8), x.truth), digests


# -- cv-forest --------------------------------------------------------------


def check_cv(path, k, stdout) -> None:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    expect(stdout.splitlines() == lines, "printed rows differ from the --out file")
    expect(lines[0] == "fold,precision,recall,accuracy,f1_score,f2_score", "cv header")
    rows = [line.split(",") for line in lines[1:]]
    expect([r[0] for r in rows] == [str(f) for f in range(k)] + ["average"], "cv row labels")
    table = np.array([[float(v) for v in r[1:]] for r in rows])
    expect(bool(((table >= 0) & (table <= 1)).all()), "cv value outside [0, 1]")
    gap = np.abs(table[:-1].mean(axis=0) - table[-1]).max()
    expect(gap <= PRINTED_TOL, f"average row is {gap:.2e} from the mean of the fold rows")


class CvForest:
    """``canopy cv`` with three tree ensembles on the demo dataset."""

    name = CV
    default_seed = 0
    samples = 1000
    k = 3
    learners = ("rf", "extra", "gbm")
    f2_ops = tuple(f"cli cv {name}" for name in learners)

    def generate(self, env, workdir: Path, seed: int, full: bool):
        argv = [str(env.make_demo_data), "--out-dir", str(workdir),
                "--samples", str(self.samples if full else 60), "--seed", str(seed)]
        saved = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(argv[0], run_name="__main__")
        finally:
            sys.argv = saved
        # the warm-up grows one tree per model: enough to load every code path
        trees = 10 if full else 1
        params = {"rf": f"n_estimators={trees}", "extra": f"n_estimators={trees}",
                  "gbm": f"n_stages={trees}"}
        return SimpleNamespace(dir=workdir, seed=seed, params=params)

    def run(self, x, ops: Ops) -> None:
        d = x.dir
        for learner in self.learners:
            out = d / f"cv_{learner}.csv"
            ops(f"cli cv {learner}", run_cli,
                ["cv", "--tags", str(d / "tags.csv"), "--features", str(d / "features.csv"),
                 "--learner", learner, "--param", x.params[learner], "--k", str(self.k),
                 "--seed", str(x.seed), "--vocab", "amazon", "--out", str(out)],
                check=partial(check_cv, out, self.k))

    def summary(self, x, results) -> tuple[float, dict[str, str]]:
        f2s, digests = [], {}
        for learner in self.learners:
            out = x.dir / f"cv_{learner}.csv"
            f2s.append(float(out.read_text(encoding="utf-8").splitlines()[-1].split(",")[-1]))
            digests[f"cli cv {learner}"] = digest_file(out)
        return float(np.mean(f2s)), digests


WORKLOADS = {w.name: w for w in (DeskStack(), PaperIngest(), CvForest())}
