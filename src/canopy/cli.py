"""Batch command-line front end.

Every run whose command line parses writes a manifest sidecar (JSON), a
failed run too: status (ok/error), exit code, error message, command,
resolved configuration and seed, tool version, timestamps, and the sha256
of every input read and every output written. Outputs are written beside
their destination and moved into place, so no file is ever half-written.
Identical inputs reproduce outputs bit-identically.

Exit codes: 0 success, 1 data, validation or training error, 2 usage error.
Floats are printed with 6 decimals. The only environment variable honored
is CANOPY_SEED (default seed when --seed is not given).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classical import LEARNER_KINDS, LearnerSpec, fit_multioutput, predict_multioutput, save_model
from .data import (
    AMAZON_LABELS,
    FLOAT_FMT,
    FOLD_HEADER,
    KEY_COLUMN,
    TAG_HEADER,
    THRESHOLD_HEADER,
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
from .imageprep import (AUGMENT_OPS, MODES, augment, load_image_array, preprocess,
                        random_augment, save_image_array)
from .metrics import check_beta, report, sample_fbeta, score_csv
from .nn import TrainConfig, save_checkpoint
from .splits import cv_evaluate, load_folds, save_folds, stratified_kfold
from .thresholds import (DEFAULT_CUTOFF, apply_thresholds, load_thresholds, optimize_thresholds,
                         save_thresholds)


def _checked(convert, accept):
    """``convert``, refusing a converted value ``accept`` rejects."""
    def check(value):
        out = convert(value)
        if not accept(out):
            raise ValueError(out)
        return out
    return check


_index = _checked(int, lambda n: n >= 0)
_count2 = _checked(int, lambda n: n >= 2)  # folds; batch-norm batches
_count = _checked(int, lambda n: n >= 1)
_rate = _checked(float, lambda r: 0.0 <= r < 1.0)  # NaN fails too
_unit = _checked(float, lambda u: 0.0 <= u <= 1.0)
_augment_ops = _checked(str, lambda ops: not ops or all(
    op.strip() in AUGMENT_OPS for op in ops.split(",")))


def _counts(value) -> tuple[int, ...]:
    return tuple(_count(v) for v in str(value).split(","))


def _beta(value) -> float:
    return check_beta(float(value))


KINDS = {
    _index: "a non-negative integer",
    _count2: "an integer >= 2",
    _count: "a positive integer",
    _counts: "comma-separated positive integers",
    _rate: "a number in [0, 1)",
    _unit: "a number in [0, 1]",
    _beta: "a finite number > 0 and <= ~1.41e146",
    _augment_ops: f"a comma list of {','.join(AUGMENT_OPS)}",
}

# option -> (hard default, conversion). Defaults apply only after --config
# merging, so a config file can fill any flag the user left unset (explicit
# flags always win); then every value is converted, once, before any input
# is read. A seed left unset comes from $CANOPY_SEED before the default.
OPTIONS = {
    "cutoff": (DEFAULT_CUTOFF, _unit),
    "beta": (2, _beta),
    "mode": ("coordinate", str),
    "vocab": ("infer", str),
    "k": (5, _count2),
    "seed": (0, _index),
    "weights": (None, _counts),
    "val_fold": (0, _index),
    "hidden": ("64", _counts),
    "dropout": (0.25, _rate),
    "batch_size": (128, _count2),
    "epochs": (50, _count),
    "patience": (10, _count),
    "optimizer": ("amsgrad", str),
    "augment": (None, _augment_ops),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _resolve_options(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Merge --config, fill defaults, and convert every option; a value that
    does not convert is an error naming its flag (or CANOPY_SEED)."""
    _apply_config(args, parser)
    for key, (default, convert) in OPTIONS.items():
        if not hasattr(args, key) or (key, args.command) == ("mode", "preprocess"):
            continue  # preprocess's --mode is the pixel convention and has no default
        name, value = _flag(key), getattr(args, key)
        if value is None and key == "seed" and "CANOPY_SEED" in os.environ:
            name, value = "CANOPY_SEED", os.environ["CANOPY_SEED"]
        elif value is None:
            value = default
        try:
            setattr(args, key, None if value is None else convert(value))
        except ValueError:
            raise DataError(f"{name} expects {KINDS[convert]}, got {value!r}") from None


def _read_config_file(path: str) -> dict[str, list[str]]:
    """key = value lines; '#' comments; keys use the long flag names. Each
    key maps to its values in file order (a repeatable flag takes them all)."""
    out: dict[str, list[str]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out.setdefault(key.strip(), []).append(value.strip())
    return out


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Config-file values fill in flags the user did not set explicitly. Keys
    are the long names of flags that take a value, ``config`` aside; each obeys
    its flag's ``choices``, and a repeatable (``append``) flag takes every value
    of its key, any other flag the last."""
    if not getattr(args, "config", None):
        return
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {flag[2:]: a for a in commands.choices[args.command]._actions
               for flag in a.option_strings if flag.startswith("--")}
    for key, values in _read_config_file(args.config).items():
        action = actions.get(key)
        if action is None:
            raise DataError(f"{args.config}: unknown config key {key!r}")
        if action.nargs == 0 or action.dest == "config":
            raise DataError(f"{args.config}: config key {key!r} cannot be set in a config file")
        for raw in values:
            if action.choices is not None and raw not in action.choices:
                allowed = ", ".join(action.choices)
                raise DataError(f"{args.config}: {key} must be one of {allowed}, got {raw!r}")
        if getattr(args, action.dest) is None:  # an explicit flag wins
            repeatable = isinstance(action, argparse._AppendAction)
            setattr(args, action.dest, values if repeatable else values[-1])


def _stamp(path: str | Path) -> tuple[int, int, int] | None:
    """(size, mtime in ns, inode) of a file, None if it cannot be stat'ed."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_size, st.st_mtime_ns, st.st_ino


def _digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _replace_file(path: str | Path, writer, *args) -> str:
    """``writer(tmp, *args)`` on a new file beside ``path`` (same suffix: some
    writers pick the format from it), moved onto ``path``; returns its sha256.
    The writer creates the file, so its mode follows the umask. On failure
    ``path`` is untouched and the temporary file removed."""
    dest = Path(path)
    tmp = dest.parent / f".{dest.stem}-tmp-{secrets.token_hex(8)}{dest.suffix}"
    try:
        writer(tmp, *args)
        digest = _digest(tmp)
        os.replace(tmp, dest)
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from exc
    except ValueError as exc:  # the writer refused its data, such as an id it cannot write
        raise DataError(f"{path}: {exc}") from None
    finally:
        tmp.unlink(missing_ok=True)  # already gone once replaced
    return digest


def _write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


class Manifest:
    """The run's audit record and the one way a subcommand reads or writes a
    file: ``load`` and ``output`` record each file's sha256."""

    def __init__(self, args: argparse.Namespace, argv: list[str]):
        self.doc = {
            "tool": "canopy",
            "version": __version__,
            "command": args.command,
            "argv": argv,
            "config": {},
            "inputs": {},
            "outputs": {},
            "started": datetime.now(timezone.utc).isoformat(),
        }

    def load(self, path: str, loader, *args):
        """``loader(path, *args)``, then the digest of the file it read. A
        file that changes in between is refused: the digest would not be of
        the bytes that were parsed."""
        before = _stamp(path)
        result = loader(path, *args)
        digest = _digest(path)
        if _stamp(path) != before:
            raise DataError(f"{path}: file changed while it was read")
        self.doc["inputs"][str(path)] = digest
        return result

    def output(self, path: str | None, writer, *args) -> None:
        """``writer(path, *args)`` through a temporary file, if ``path`` is set."""
        if path:
            self.doc["outputs"][str(path)] = _replace_file(path, writer, *args)

    def write(self, args: argparse.Namespace, code: int, error: str | None) -> None:
        """Write ``<out>.manifest.json`` (``<command>.manifest.json`` without
        --out). A failed run has reported its error already, so not this one's."""
        self.doc.update(
            config={k: v for k, v in vars(args).items() if k not in ("func", "command")},
            finished=datetime.now(timezone.utc).isoformat(),
            status="ok" if code == 0 else "error",
            exit_code=code,
            error=error,
        )
        side = f"{getattr(args, 'out', None) or args.command}.manifest.json"
        try:
            _replace_file(side, _write_text, json.dumps(self.doc, indent=2, default=str))
        except DataError:
            if error is None:
                raise


def _vocab_from_arg(args) -> LabelVocabulary | str:
    return AMAZON_LABELS if args.vocab == "amazon" else "infer"


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
    if file_ids == ids:
        return matrix
    index = {s: i for i, s in enumerate(file_ids)}
    try:
        rows = list(map(index.__getitem__, ids))
    except KeyError as exc:  # the first id in order without a row
        raise DataError(f"{path}: missing {what} for sample {exc.args[0]!r}") from None
    if not extra_ok and len(file_ids) != len(ids):
        wanted = set(ids)
        extra = next(s for s in file_ids if s not in wanted)  # the first in file order
        raise DataError(f"{path}: sample {extra!r} not present in the truth file")
    return matrix.take(rows)


def _check_k(args, truth: LabelMatrix) -> None:
    if args.k > truth.n_samples:
        raise DataError(f"--k must lie in [2, {truth.n_samples}] for {args.tags}, got {args.k}")


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
    truth_ids, truth = manifest.load(args.truth, load_tags, _vocab_from_arg(args))
    prob_ids, probs = manifest.load(args.pred, load_probs, truth.vocab)
    probs = _align_rows(truth_ids, prob_ids, probs, args.pred, "predictions", extra_ok=False)
    if args.thresholds:
        cutoffs = manifest.load(args.thresholds, load_thresholds, truth.vocab)
    else:
        cutoffs = np.full(truth.n_labels, args.cutoff)
    pred = apply_thresholds(probs, cutoffs)
    rep = report(pred, truth)
    print(rep.to_table_text(), end="")
    manifest.output(args.out, _write_text, rep.to_csv_text())
    return 0


def cmd_tune_thresholds(args, manifest: Manifest) -> int:
    truth_ids, truth = manifest.load(args.truth, load_tags, _vocab_from_arg(args))
    prob_ids, probs = manifest.load(args.probs, load_probs, truth.vocab)
    probs = _align_rows(truth_ids, prob_ids, probs, args.probs, "predictions", extra_ok=False)
    cutoffs, score = optimize_thresholds(probs, truth, beta=args.beta, mode=args.mode)
    print(f"achieved {args.mode} F{args.beta:g} = {FLOAT_FMT % score}")
    manifest.output(args.out, save_thresholds, truth.vocab, cutoffs)
    return 0


def _load_hard_predictions(
    path: str, vocab: LabelVocabulary | str
) -> tuple[list[str], LabelMatrix]:
    """Load a tag file or a 0/1 probability CSV as a LabelMatrix; with
    ``vocab`` "infer", a probability file's own label columns are the vocabulary."""
    with open_csv(path) as reader:
        header = [c.strip() for c in next(reader, [])]
    if header == list(TAG_HEADER):
        return load_tags(path, vocab)
    ids, probs = load_probs(path, vocab)
    try:
        return ids, LabelMatrix(values=probs.values, vocab=probs.vocab)
    except ValueError:  # LabelMatrix holds only 0 and 1
        raise DataError(f"{path}: vote requires hard 0/1 predictions") from None


def cmd_vote(args, manifest: Manifest) -> int:
    if not args.pred:
        raise DataError("vote needs at least one --pred file")
    weights = args.weights or (1,) * len(args.pred)
    if len(weights) != len(args.pred):
        raise DataError(f"{len(args.pred)} --pred files but {len(weights)} weights")
    first = args.pred[0]
    ids0, hard = manifest.load(first, _load_hard_predictions, _vocab_from_arg(args))
    preds = [hard]
    for path in args.pred[1:]:
        ids, hard = manifest.load(path, _load_hard_predictions, hard.vocab)
        if ids != ids0:
            raise DataError(f"{path}: sample ids/order differ from {first}")
        preds.append(hard)
    voted = weighted_vote(preds, weights)
    out_probs = ProbMatrix(values=voted.values, vocab=voted.vocab)
    manifest.output(args.out, save_probs, ids0, out_probs)
    positives = int(voted.values.sum())
    print(f"voted {len(preds)} models, total weight {sum(weights)}, positives {positives}")
    return 0


def cmd_split(args, manifest: Manifest) -> int:
    ids, truth = manifest.load(args.tags, load_tags, _vocab_from_arg(args))
    _check_k(args, truth)
    folds = stratified_kfold(truth, args.k, args.seed)
    counts = np.bincount(folds.fold_of, minlength=folds.k)
    print("fold sizes: " + ", ".join(str(int(c)) for c in counts))
    manifest.output(args.out, save_folds, ids, folds)
    return 0


def cmd_cv(args, manifest: Manifest) -> int:
    spec = LearnerSpec(kind=args.learner, params=_parse_params(args.param))
    ids, truth = manifest.load(args.tags, load_tags, _vocab_from_arg(args))
    feat_ids, features = manifest.load(args.features, load_features)
    features = _align_rows(ids, feat_ids, features, args.features, "features", extra_ok=True)
    _check_k(args, truth)
    result = cv_evaluate(spec, features, truth, k=args.k, seed=args.seed)
    rows = [(str(f), *rep.total) for f, rep in enumerate(result.fold_reports)]
    table = score_csv("fold", [*rows, ("average", *result.average_total)])
    print(table, end="")
    manifest.output(args.out, _write_text, table)
    oof = ProbMatrix(values=result.oof_probs, vocab=truth.vocab)
    manifest.output(args.oof_out, save_probs, ids, oof)
    manifest.output(args.folds_out, save_folds, ids, result.folds)
    return 0


def cmd_train(args, manifest: Manifest) -> int:
    spec = LearnerSpec(kind=args.learner, params=_parse_params(args.param))
    ids, truth = manifest.load(args.tags, load_tags, _vocab_from_arg(args))
    feat_ids, features = manifest.load(args.features, load_features)
    features = _align_rows(ids, feat_ids, features, args.features, "features", extra_ok=True)
    model = fit_multioutput(spec, features, truth, seed=args.seed)
    probs = predict_multioutput(model, features)
    pred = apply_thresholds(probs, np.full(truth.n_labels, DEFAULT_CUTOFF))
    score = sample_fbeta(pred, truth)
    print(f"training sample-F2 at cutoff {DEFAULT_CUTOFF:g}: {FLOAT_FMT % score}")
    manifest.output(args.out, save_model, model)
    manifest.output(args.probs_out, save_probs, ids, probs)
    return 0


def cmd_stack(args, manifest: Manifest) -> int:
    if not args.probs:
        raise DataError("stack needs at least one --probs file")
    train = TrainConfig(batch_size=args.batch_size, max_epochs=args.epochs,
                        patience=args.patience, optimizer=args.optimizer, seed=args.seed)
    config = MetaLearnerConfig(hidden_units=args.hidden, dropout=args.dropout, train=train)
    truth_ids, truth = manifest.load(args.truth, load_tags, _vocab_from_arg(args))
    blocks = []
    for path in args.probs:
        prob_ids, probs = manifest.load(path, load_probs, truth.vocab)
        probs = _align_rows(truth_ids, prob_ids, probs, path, "predictions", extra_ok=False)
        blocks.append(probs.values)
    values = np.concatenate(blocks, axis=1)
    features = StackedFeatures(values=values, n_models=len(blocks), vocab=truth.vocab)
    fold_ids, folds = manifest.load(args.folds, load_folds)
    if fold_ids != truth_ids:
        raise DataError(f"{args.folds}: sample ids/order differ from {args.truth}")
    if args.val_fold >= folds.k:
        raise DataError(f"--val-fold must lie in [0, {folds.k})")
    va = folds.fold_indices(args.val_fold)
    model = stack_train(features, truth, config, seed=args.seed, val_indices=va)
    val_probs = model.predict(features.values[va])
    val_truth = truth.take(va)
    cutoffs, tuned = optimize_thresholds(val_probs, val_truth, beta=2.0)
    uniform = np.full(truth.n_labels, DEFAULT_CUTOFF)
    base = sample_fbeta(apply_thresholds(val_probs, uniform), val_truth)
    print(
        f"meta-learner val fold {args.val_fold}: F2@{DEFAULT_CUTOFF:g} = {FLOAT_FMT % base}, "
        f"tuned F2 = {FLOAT_FMT % tuned} (best epoch {model.best_epoch})"
    )
    manifest.output(args.out, save_probs, [truth_ids[i] for i in va], val_probs)
    manifest.output(args.thresholds_out, save_thresholds, truth.vocab, cutoffs)
    meta = {"seed": args.seed, "n_models": model.n_models}
    manifest.output(args.checkpoint, save_checkpoint, model.network, meta)
    return 0


def cmd_preprocess(args, manifest: Manifest) -> int:
    img = manifest.load(args.infile, load_image_array)
    if args.augment:
        for op in args.augment.split(","):
            img = augment(img, op.strip())
    if args.random_augment:
        img = random_augment(img, args.seed)
    try:
        out = preprocess(img, args.mode) if args.mode else img
    except ValueError as exc:  # pixel values outside the mode's raw range
        raise DataError(f"{args.infile}: {exc}") from None
    manifest.output(args.out, save_image_array, out)
    print(f"wrote {args.out} shape {out.shape}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _option(p: argparse.ArgumentParser, key: str, text: str = "", **kwargs) -> None:
    """Add the flag of OPTIONS ``key``; its help ends with the default."""
    default = f"default {OPTIONS[key][0]}"
    p.add_argument(_flag(key), help=f"{text} ({default})" if text else default, **kwargs)


def _add_common(p: argparse.ArgumentParser, func, with_seed: bool = True, with_vocab: bool = True):
    p.set_defaults(func=func)
    if with_vocab:
        _option(p, "vocab", choices=("amazon", "infer"))
    p.add_argument("--config", help="key=value config file; explicit flags win")
    if with_seed:
        _option(p, "seed", "PRNG seed, else $CANOPY_SEED")


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
    p.add_argument("--thresholds", help=f"{','.join(THRESHOLD_HEADER)} CSV; default uniform cutoff")
    _option(p, "cutoff", "uniform cutoff in [0, 1]")
    p.add_argument("--out", help="write the scoreboard as CSV here")
    _add_common(p, cmd_metrics, with_seed=False)

    p = sub.add_parser("tune-thresholds", help="optimize per-class cutoffs on a validation split")
    p.add_argument("--probs", required=True)
    p.add_argument("--truth", required=True)
    _option(p, "beta", "F-beta weight")
    _option(p, "mode", choices=("coordinate", "per-class"))
    p.add_argument("--out", help=f"write {','.join(THRESHOLD_HEADER)} CSV here")
    _add_common(p, cmd_tune_thresholds, with_seed=False)

    p = sub.add_parser("vote", help="weighted majority vote over hard predictions")
    p.add_argument("--pred", action="append", help="prediction CSV (repeat per model)")
    p.add_argument("--weights", help="comma-separated positive integers, one per --pred")
    p.add_argument("--out")
    _add_common(p, cmd_vote, with_seed=False)

    p = sub.add_parser("split", help="stratified k-fold assignment")
    p.add_argument("--tags", required=True)
    _option(p, "k", "fold count")
    p.add_argument("--out", help=f"write {','.join(FOLD_HEADER)} CSV here")
    _add_common(p, cmd_split)

    p = sub.add_parser("cv", help="stratified cross-validated evaluation of a learner")
    p.add_argument("--tags", required=True)
    p.add_argument("--features", required=True, help=f".npy or {KEY_COLUMN},... CSV")
    p.add_argument("--learner", choices=LEARNER_KINDS, required=True)
    p.add_argument("--param", action="append", help="learner hyperparameter key=value")
    _option(p, "k", "fold count")
    p.add_argument("--out", help="fold Total rows + average as CSV")
    p.add_argument("--oof-out", help="write out-of-fold probabilities CSV")
    p.add_argument("--folds-out", help="write the fold assignment CSV")
    _add_common(p, cmd_cv)

    p = sub.add_parser("train", help="fit a per-label classical model on all data")
    p.add_argument("--tags", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--learner", choices=LEARNER_KINDS, required=True)
    p.add_argument("--param", action="append")
    p.add_argument("--out", help="write the model JSON here")
    p.add_argument("--probs-out", help="write training-set probabilities CSV")
    _add_common(p, cmd_train)

    p = sub.add_parser("stack", help="train the integrated-stacking meta-learner")
    p.add_argument("--truth", required=True)
    p.add_argument("--probs", action="append", help="per-model OOF probability CSV (repeat)")
    p.add_argument("--folds", required=True, help=f"{','.join(FOLD_HEADER)} CSV")
    _option(p, "val_fold")
    _option(p, "hidden", "comma list of hidden widths")
    _option(p, "dropout", "rate in [0, 1)")
    _option(p, "batch_size")
    _option(p, "epochs")
    _option(p, "patience")
    _option(p, "optimizer", choices=("adam", "amsgrad"))
    p.add_argument("--out", help="validation-fold meta probabilities CSV")
    p.add_argument("--thresholds-out", help=f"tuned {','.join(THRESHOLD_HEADER)} CSV")
    p.add_argument("--checkpoint", help="meta-learner checkpoint JSON")
    _add_common(p, cmd_stack)

    p = sub.add_parser("preprocess", help="pixel-convention preprocessing and augmentation")
    p.add_argument("--mode", choices=MODES, help="omit to only augment")
    p.add_argument("--in", dest="infile", required=True, help=".npy or pixel CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--augment", help=f"comma list of {','.join(AUGMENT_OPS)}")
    p.add_argument("--random-augment", action="store_true")
    _add_common(p, cmd_preprocess, with_vocab=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = Manifest(args, argv)
    try:
        _resolve_options(args, parser)
        code = args.func(args, manifest)
        manifest.write(args, code, None)
        return code
    except (DataError, ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"canopy {args.command}: error: {exc}", file=sys.stderr)
        manifest.write(args, 1, str(exc))
        return 1
    except Exception as exc:  # a bug: record the run, then let the traceback show
        manifest.write(args, 1, f"{type(exc).__name__}: {exc}")
        raise


if __name__ == "__main__":
    sys.exit(main())
