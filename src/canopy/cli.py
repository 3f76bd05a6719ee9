"""Batch command-line front end.

Every run writes a manifest sidecar (JSON) recording the command, the
resolved configuration, the seed, sha256 digests of every input file, the
tool version, and timestamps, so identical inputs reproduce outputs
bit-identically and runs stay auditable.

Exit codes: 0 success, 1 data, validation or training error, 2 usage error.
Floats are printed with 6 decimals. The only environment variable honored
is CANOPY_SEED (default seed when --seed is not given).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classical import LEARNER_KINDS, LearnerSpec, fit_multioutput, predict_multioutput, save_model
from .data import (
    AMAZON_LABELS,
    DataError,
    FeatureMatrix,
    LabelMatrix,
    LabelVocabulary,
    ProbMatrix,
    load_features,
    load_probs,
    load_tags,
    open_csv,
    save_probs,
)
from .ensemble import MetaLearnerConfig, StackedFeatures, stack_train, weighted_vote
from .imageprep import MODES, augment, load_image_array, preprocess, random_augment, save_image_array
from .metrics import report, sample_fbeta
from .nn import TrainConfig, save_checkpoint
from .splits import cv_evaluate, load_folds, save_folds, stratified_kfold
from .thresholds import apply_thresholds, load_thresholds, optimize_thresholds, save_thresholds

FMT = "%.6f"
CONFIG_VERSION_LINE = "#canopy-config-v1"

# hard defaults, applied only after --config merging so that a config file
# can fill any flag the user left unset (explicit flags always win)
OPTION_DEFAULTS = {
    "cutoff": 0.5,
    "beta": 2.0,
    "mode": "coordinate",
    "vocab": "infer",
    "k": 5,
    "val_fold": 0,
    "hidden": "64",
    "dropout": 0.25,
    "batch_size": 128,
    "epochs": 50,
    "patience": 10,
    "optimizer": "amsgrad",
}


def _resolve_defaults(args: argparse.Namespace) -> None:
    for key, default in OPTION_DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, default)


def _default_seed() -> int:
    env = os.environ.get("CANOPY_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise DataError(f"CANOPY_SEED must be an integer, got {env!r}") from None


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines; '#' comments; keys use the long flag names."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Config-file values fill in flags the user did not set explicitly."""
    if not getattr(args, "config", None):
        return
    cfg = _read_config_file(args.config)
    for key, raw in cfg.items():
        if not hasattr(args, key):
            raise DataError(f"{args.config}: unknown config key {key!r}")
        if getattr(args, key) is not None:
            continue  # explicit flag wins
        setattr(args, key, raw)


def _digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self, command: str, args: argparse.Namespace):
        self.doc = {
            "tool": "canopy",
            "version": __version__,
            "command": command,
            "argv": sys.argv[1:],
            "config": {
                k: v for k, v in vars(args).items() if k not in ("func", "command")
            },
            "inputs": {},
            "outputs": [],
            "started": datetime.now(timezone.utc).isoformat(),
        }

    def add_input(self, path: str | Path | None):
        if path:
            self.doc["inputs"][str(path)] = _digest(path)

    def add_output(self, path: str | Path | None):
        if path:
            self.doc["outputs"].append(str(path))

    def write(self, primary_out: str | None, command: str):
        self.doc["finished"] = datetime.now(timezone.utc).isoformat()
        if primary_out:
            side = Path(str(primary_out) + ".manifest.json")
        else:
            side = Path(f"{command}.manifest.json")
        with open(side, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=2, default=str)


def _vocab_from_arg(args) -> LabelVocabulary | str:
    if getattr(args, "vocab", None) == "amazon":
        return AMAZON_LABELS
    return "infer"


def _align_rows(
    ids: list[str],
    file_ids: list[str] | None,
    matrix: ProbMatrix | FeatureMatrix,
    path: str,
    what: str,
    extra_ok: bool,
):
    """``matrix`` (read from ``path``, rows keyed by ``file_ids``) with its
    rows reordered to ``ids``. Every id needs a row; other rows are an error
    unless ``extra_ok``. A file without ids (a .npy feature matrix) must
    already be in ``ids`` order."""
    if file_ids is None:
        if len(matrix.values) != len(ids):
            raise DataError(f"{path}: {len(matrix.values)} feature rows for {len(ids)} samples")
        return matrix
    index = {s: i for i, s in enumerate(file_ids)}
    rows = []
    for s in ids:
        if s not in index:
            raise DataError(f"{path}: missing {what} for sample {s!r}")
        rows.append(index[s])
    if not extra_ok and len(file_ids) != len(ids):
        extra = (set(file_ids) - set(ids)).pop()
        raise DataError(f"{path}: sample {extra!r} not present in the truth file")
    return replace(matrix, values=matrix.values[rows])


def _parse_params(pairs: list[str] | None) -> dict:
    out: dict = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise DataError(f"--param expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[key.strip()] = value
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_metrics(args, manifest: Manifest) -> int:
    cutoff = float(args.cutoff)
    if not 0.0 <= cutoff <= 1.0:
        raise DataError(f"--cutoff must be a number in [0, 1], got {args.cutoff}")
    truth_ids, truth = load_tags(args.truth, _vocab_from_arg(args))
    manifest.add_input(args.truth)
    prob_ids, probs = load_probs(args.pred, truth.vocab)
    manifest.add_input(args.pred)
    probs = _align_rows(truth_ids, prob_ids, probs, args.pred, "predictions", extra_ok=False)
    if args.thresholds:
        manifest.add_input(args.thresholds)
        cutoffs = load_thresholds(args.thresholds, truth.vocab)
    else:
        cutoffs = np.full(truth.n_labels, cutoff)
    pred = apply_thresholds(probs, cutoffs)
    rep = report(pred, truth)
    print(rep.to_table_text(), end="")
    if args.out:
        Path(args.out).write_text(rep.to_csv_text(), encoding="utf-8")
        manifest.add_output(args.out)
    return 0


def cmd_tune_thresholds(args, manifest: Manifest) -> int:
    truth_ids, truth = load_tags(args.truth, _vocab_from_arg(args))
    manifest.add_input(args.truth)
    prob_ids, probs = load_probs(args.probs, truth.vocab)
    manifest.add_input(args.probs)
    probs = _align_rows(truth_ids, prob_ids, probs, args.probs, "predictions", extra_ok=False)
    cutoffs, score = optimize_thresholds(
        probs, truth, beta=float(args.beta), mode=args.mode
    )
    print(f"achieved {args.mode} F{args.beta:g} = {FMT % score}")
    if args.out:
        save_thresholds(args.out, truth.vocab, cutoffs)
        manifest.add_output(args.out)
    return 0


def _looks_like_probs(path: str) -> bool:
    return _csv_header(path) != ["image_name", "tags"]


def _probs_header_vocab(path: str) -> LabelVocabulary:
    """Build a vocabulary from a probability CSV's own label columns."""
    header = _csv_header(path)
    if not header or header[0] != "image_name" or len(header) < 2:
        raise DataError(f"{path}: expected header 'image_name,<label>,...'")
    return LabelVocabulary(names=tuple(header[1:]))


def _csv_header(path: str) -> list[str]:
    """The stripped cells of a CSV file's first row ([] for an empty file)."""
    with open_csv(path) as reader:
        return [c.strip() for c in next(reader, [])]


def _load_hard_predictions(path: str, vocab: LabelVocabulary) -> tuple[list[str], LabelMatrix]:
    """Load a tag file or a 0/1 probability CSV as a LabelMatrix."""
    if _looks_like_probs(path):
        ids, probs = load_probs(path, vocab)
        if not np.isin(probs.values, (0.0, 1.0)).all():
            raise DataError(f"{path}: vote requires hard 0/1 predictions")
        return ids, LabelMatrix(values=probs.values.astype(np.int8), vocab=vocab)
    return load_tags(path, vocab)


def cmd_vote(args, manifest: Manifest) -> int:
    if not args.pred:
        raise DataError("vote needs at least one --pred file")
    weights = (
        [int(w) for w in args.weights.split(",")] if args.weights else [1] * len(args.pred)
    )
    if len(weights) != len(args.pred):
        raise DataError(f"{len(args.pred)} --pred files but {len(weights)} weights")
    first = args.pred[0]
    if args.vocab == "amazon":
        vocab = AMAZON_LABELS
    elif _looks_like_probs(first):
        vocab = _probs_header_vocab(first)
    else:
        vocab = load_tags(first, "infer")[1].vocab
    preds = []
    ids0: list[str] | None = None
    for path in args.pred:
        manifest.add_input(path)
        ids, hard = _load_hard_predictions(path, vocab)
        if ids0 is None:
            ids0 = ids
        elif ids != ids0:
            raise DataError(f"{path}: sample ids/order differ from {first}")
        preds.append(hard)
    voted = weighted_vote(preds, weights)
    if args.out:
        out_probs = ProbMatrix(values=voted.values.astype(np.float64), vocab=voted.vocab)
        save_probs(args.out, ids0, out_probs)
        manifest.add_output(args.out)
    print(
        f"voted {len(preds)} models, total weight {sum(weights)}, "
        f"positives {int(voted.values.sum())}"
    )
    return 0


def cmd_split(args, manifest: Manifest) -> int:
    ids, truth = load_tags(args.tags, _vocab_from_arg(args))
    manifest.add_input(args.tags)
    folds = stratified_kfold(truth, int(args.k), int(args.seed))
    counts = np.bincount(folds.fold_of, minlength=folds.k)
    print("fold sizes: " + ", ".join(str(int(c)) for c in counts))
    if args.out:
        save_folds(args.out, ids, folds)
        manifest.add_output(args.out)
    return 0


def cmd_cv(args, manifest: Manifest) -> int:
    spec = LearnerSpec(kind=args.learner, params=_parse_params(args.param))
    ids, truth = load_tags(args.tags, _vocab_from_arg(args))
    manifest.add_input(args.tags)
    feat_ids, features = load_features(args.features)
    manifest.add_input(args.features)
    features = _align_rows(ids, feat_ids, features, args.features, "features", extra_ok=True)
    result = cv_evaluate(spec, features, truth, k=int(args.k), seed=int(args.seed))
    header = ("precision", "recall", "accuracy", "f1_score", "f2_score")
    print("fold," + ",".join(header))
    lines = ["fold," + ",".join(header)]
    for f, rep in enumerate(result.fold_reports):
        row = f"{f}," + ",".join(FMT % v for v in rep.total)
        print(row)
        lines.append(row)
    avg = "average," + ",".join(FMT % v for v in result.average_total)
    print(avg)
    lines.append(avg)
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest.add_output(args.out)
    if args.oof_out:
        save_probs(args.oof_out, ids, ProbMatrix(values=result.oof_probs, vocab=truth.vocab))
        manifest.add_output(args.oof_out)
    if args.folds_out:
        save_folds(args.folds_out, ids, result.folds)
        manifest.add_output(args.folds_out)
    return 0


def cmd_train(args, manifest: Manifest) -> int:
    spec = LearnerSpec(kind=args.learner, params=_parse_params(args.param))
    ids, truth = load_tags(args.tags, _vocab_from_arg(args))
    manifest.add_input(args.tags)
    feat_ids, features = load_features(args.features)
    manifest.add_input(args.features)
    features = _align_rows(ids, feat_ids, features, args.features, "features", extra_ok=True)
    model = fit_multioutput(spec, features, truth, seed=int(args.seed))
    probs = predict_multioutput(model, features)
    pred = apply_thresholds(probs, np.full(truth.n_labels, 0.5))
    print(f"training sample-F2 at cutoff 0.5: {FMT % sample_fbeta(pred, truth)}")
    if args.out:
        save_model(args.out, model)
        manifest.add_output(args.out)
    if args.probs_out:
        save_probs(args.probs_out, ids, probs)
        manifest.add_output(args.probs_out)
    return 0


def cmd_stack(args, manifest: Manifest) -> int:
    truth_ids, truth = load_tags(args.truth, _vocab_from_arg(args))
    manifest.add_input(args.truth)
    if not args.probs:
        raise DataError("stack needs at least one --probs file")
    blocks = []
    for path in args.probs:
        manifest.add_input(path)
        prob_ids, probs = load_probs(path, truth.vocab)
        probs = _align_rows(truth_ids, prob_ids, probs, path, "predictions", extra_ok=False)
        blocks.append(probs.values)
    features = StackedFeatures(
        values=np.concatenate(blocks, axis=1), n_models=len(blocks), vocab=truth.vocab
    )
    manifest.add_input(args.folds)
    fold_ids, folds = load_folds(args.folds)
    if fold_ids != truth_ids:
        raise DataError(f"{args.folds}: sample ids/order differ from {args.truth}")
    val_fold = int(args.val_fold)
    if not 0 <= val_fold < folds.k:
        raise DataError(f"--val-fold must lie in [0, {folds.k})")
    config = MetaLearnerConfig(
        hidden_units=tuple(int(h) for h in str(args.hidden).split(",")),
        dropout=float(args.dropout),
        train=TrainConfig(
            batch_size=int(args.batch_size),
            max_epochs=int(args.epochs),
            patience=int(args.patience),
            optimizer=args.optimizer,
            seed=int(args.seed),
        ),
    )
    model = stack_train(
        features,
        truth,
        config,
        seed=int(args.seed),
        val_indices=folds.fold_indices(val_fold),
    )
    va = folds.fold_indices(val_fold)
    val_probs = model.predict(features.values[va])
    val_truth = LabelMatrix(values=truth.values[va], vocab=truth.vocab)
    cutoffs, tuned = optimize_thresholds(val_probs, val_truth, beta=2.0)
    base = sample_fbeta(apply_thresholds(val_probs, np.full(truth.n_labels, 0.5)), val_truth)
    print(
        f"meta-learner val fold {val_fold}: F2@0.5 = {FMT % base}, "
        f"tuned F2 = {FMT % tuned} (best epoch {model.best_epoch})"
    )
    if args.out:
        save_probs(args.out, [truth_ids[i] for i in va], val_probs)
        manifest.add_output(args.out)
    if args.thresholds_out:
        save_thresholds(args.thresholds_out, truth.vocab, cutoffs)
        manifest.add_output(args.thresholds_out)
    if args.checkpoint:
        save_checkpoint(
            args.checkpoint,
            model.network,
            meta={"seed": int(args.seed), "n_models": model.n_models},
        )
        manifest.add_output(args.checkpoint)
    return 0


def cmd_preprocess(args, manifest: Manifest) -> int:
    manifest.add_input(args.infile)
    img = load_image_array(args.infile)
    if args.augment:
        for op in args.augment.split(","):
            img = augment(img, op.strip())
    if args.random_augment:
        img = random_augment(img, int(args.seed))
    out = preprocess(img, args.mode) if args.mode else img
    save_image_array(args.out, out)
    manifest.add_output(args.out)
    print(f"wrote {args.out} shape {out.shape}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_seed: bool = True):
    p.add_argument("--config", help="key=value config file; explicit flags win")
    if with_seed:
        p.add_argument("--seed", default=None, help="PRNG seed (default: $CANOPY_SEED or 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canopy",
        description="Multi-label scene-tagging toolkit: metrics, thresholds, ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"canopy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="per-class + Total scoreboard for predictions")
    p.add_argument("--pred", required=True, help="probability CSV (hard 0/1 also fine)")
    p.add_argument("--truth", required=True, help="tag CSV with ground truth")
    p.add_argument("--thresholds", help="label,threshold CSV; default uniform cutoff")
    p.add_argument("--cutoff", type=float, help="uniform cutoff in [0, 1] (default 0.5)")
    p.add_argument("--vocab", choices=("amazon", "infer"), help="default infer")
    p.add_argument("--out", help="write the scoreboard as CSV here")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("tune-thresholds", help="optimize per-class cutoffs on a validation split")
    p.add_argument("--probs", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--beta", type=float, help="F-beta weight (default 2)")
    p.add_argument("--mode", choices=("coordinate", "per-class"), help="default coordinate")
    p.add_argument("--vocab", choices=("amazon", "infer"), help="default infer")
    p.add_argument("--out", help="write label,threshold CSV here")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_tune_thresholds)

    p = sub.add_parser("vote", help="weighted majority vote over hard predictions")
    p.add_argument("--pred", action="append", help="prediction CSV (repeat per model)")
    p.add_argument("--weights", help="comma-separated positive integers, one per --pred")
    p.add_argument("--vocab", choices=("amazon", "infer"), help="default infer")
    p.add_argument("--out")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_vote)

    p = sub.add_parser("split", help="stratified k-fold assignment")
    p.add_argument("--tags", required=True)
    p.add_argument("--k", help="fold count (default 5)")
    p.add_argument("--vocab", choices=("amazon", "infer"), help="default infer")
    p.add_argument("--out", help="write image_name,fold CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("cv", help="stratified cross-validated evaluation of a learner")
    p.add_argument("--tags", required=True)
    p.add_argument("--features", required=True, help=".npy or image_name,... CSV")
    p.add_argument("--learner", choices=LEARNER_KINDS, required=True)
    p.add_argument("--param", action="append", help="learner hyperparameter key=value")
    p.add_argument("--k", help="fold count (default 5)")
    p.add_argument("--vocab", choices=("amazon", "infer"), help="default infer")
    p.add_argument("--out", help="fold Total rows + average as CSV")
    p.add_argument("--oof-out", help="write out-of-fold probabilities CSV")
    p.add_argument("--folds-out", help="write the fold assignment CSV")
    _add_common(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("train", help="fit a per-label classical model on all data")
    p.add_argument("--tags", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--learner", choices=LEARNER_KINDS, required=True)
    p.add_argument("--param", action="append")
    p.add_argument("--vocab", choices=("amazon", "infer"), help="default infer")
    p.add_argument("--out", help="write the model JSON here")
    p.add_argument("--probs-out", help="write training-set probabilities CSV")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("stack", help="train the integrated-stacking meta-learner")
    p.add_argument("--truth", required=True)
    p.add_argument("--probs", action="append", help="per-model OOF probability CSV (repeat)")
    p.add_argument("--folds", required=True, help="image_name,fold CSV")
    p.add_argument("--val-fold", help="default 0")
    p.add_argument("--hidden", help="comma list of hidden widths (default 64)")
    p.add_argument("--dropout", help="default 0.25")
    p.add_argument("--batch-size", help="default 128")
    p.add_argument("--epochs", help="default 50")
    p.add_argument("--patience", help="default 10")
    p.add_argument("--optimizer", choices=("adam", "amsgrad"), help="default amsgrad")
    p.add_argument("--vocab", choices=("amazon", "infer"), help="default infer")
    p.add_argument("--out", help="validation-fold meta probabilities CSV")
    p.add_argument("--thresholds-out", help="tuned label,threshold CSV")
    p.add_argument("--checkpoint", help="meta-learner checkpoint JSON")
    _add_common(p)
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("preprocess", help="pixel-convention preprocessing and augmentation")
    p.add_argument("--mode", choices=MODES, help="omit to only augment")
    p.add_argument("--in", dest="infile", required=True, help=".npy or pixel CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--augment", help="comma list of flip_lr,flip_ud,rot90_cw,rot90_ccw")
    p.add_argument("--random-augment", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        _resolve_defaults(args)
        if hasattr(args, "seed"):
            args.seed = _default_seed() if args.seed is None else int(args.seed)
        manifest = Manifest(args.command, args)
        code = args.func(args, manifest)
        manifest.write(getattr(args, "out", None), args.command)
        return code
    except (DataError, ValueError, OSError, RuntimeError) as exc:
        print(f"canopy {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
