"""Batch command-line front end.

Every run whose command line parses writes a manifest sidecar (JSON), a
failed run too: status (ok/error), exit code, error message, command,
resolved configuration and seed, tool version, timestamps, and the sha256
of every input read and every output written (of the bytes parsed or
written). Outputs are staged and replace their destinations together after
the command's last write: a failed run replaces and lists none, and an
output that is an input or another output is refused. Identical inputs
reproduce outputs bit-identically.

Flags are spelled in full and never empty. Exit codes: 0 success, 1 data,
validation or training error, 2 usage error. Floats are printed with 6
decimals. CANOPY_SEED, the default --seed, is the only environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

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
    recording,
    save_probs,
    write_output,
)
from .ensemble import MetaLearnerConfig, StackedFeatures, stack_train, weighted_vote
from .imageprep import (AUGMENT_OPS, MODES, augment, load_image_array, preprocess,
                        random_augment, save_image_array)
from .metrics import check_beta, report, sample_fbeta, score_csv
from .nn import OPTIMIZERS, TrainConfig, save_checkpoint
from .splits import cv_evaluate, load_folds, save_folds, stratified_kfold
from .thresholds import (DEFAULT_CUTOFF, TUNING_MODES, apply_thresholds, load_thresholds,
                         optimize_thresholds, save_thresholds)


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
_augment_ops = _checked(str, lambda ops: all(op.strip() in AUGMENT_OPS for op in ops.split(",")))


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


class Flag:
    """A flag, declared once: ``--name`` on the command line, ``name`` as a
    config-file key, ``dest`` in the parsed arguments. A value left unset
    comes from the config file, then the ``env`` variable (none if empty:
    os.environ holds no empty name), then ``default``; ``kind`` (a KINDS
    converter) then converts it once. A ``repeat`` flag takes every value
    given; a ``valueless`` one is a switch. A plain slotted class: a
    dataclass would compile its methods on every import."""

    __slots__ = ("name", "help", "kind", "default", "choices", "required", "repeat",
                 "valueless", "env", "dest")

    def __init__(self, name: str, help: str = "", kind: Callable | None = None,
                 default: object = None, choices: tuple[str, ...] | None = None,
                 required: bool = False, repeat: bool = False, valueless: bool = False,
                 env: str = "", dest: str = ""):
        self.name, self.help, self.kind, self.default = name, help, kind, default
        self.choices, self.required, self.repeat = choices, required, repeat
        self.valueless, self.env, self.dest = valueless, env, dest or name.replace("-", "_")

    def help_text(self) -> str | None:
        """The help, ending in "required" or the default if there is one."""
        note = "required" if self.required else (
            self.default is not None and f"default {self.default}")
        return f"{self.help} ({note})" if self.help and note else self.help or note or None


Command = namedtuple("Command", "run help flags")  # a subcommand's function, help, Flags


def _merge_config(args: argparse.Namespace, flags: tuple[Flag, ...]) -> None:
    """Values from the ``key = value`` lines of the config file ('#' starts a
    comment) fill in flags the command line left unset. Keys are the long
    names of flags that take a value, ``config`` aside; each value obeys its
    flag's choices, and a repeatable flag takes every value of its key in
    file order, any other flag the last."""
    path, by_name, lines = args.config, {flag.name: flag for flag in flags}, {}
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
        lines.setdefault(key.strip(), []).append(value.strip())
    for key, values in lines.items():
        flag = by_name.get(key)
        if key in ("config", "help") or (flag is not None and flag.valueless):
            raise DataError(f"{path}: config key {key!r} cannot be set in a config file")
        if flag is None:
            raise DataError(f"{path}: unknown config key {key!r}")
        for raw in values:
            if flag.choices is not None and raw not in flag.choices:
                allowed = ", ".join(flag.choices)
                raise DataError(f"{path}: {key} must be one of {allowed}, got {raw!r}")
        if getattr(args, flag.dest) is None:  # an explicit flag wins
            setattr(args, flag.dest, values if flag.repeat else values[-1])


def _resolve(args: argparse.Namespace, command: Command, parser: argparse.ArgumentParser) -> None:
    """Fill every flag the command line left unset, from the config file,
    then its environment variable, then its default; a required flag still
    unset is a usage error (exit 2), an empty one a data error. Then convert
    each value once, before any input is read: a value that does not convert
    is an error naming its flag, or the variable it came from."""
    if args.config:
        _merge_config(args, command.flags)
    unset = [flag for flag in command.flags if getattr(args, flag.dest) is None]
    from_env = {flag.dest for flag in unset if flag.env in os.environ}
    for flag in unset:
        setattr(args, flag.dest, os.environ[flag.env] if flag.dest in from_env else flag.default)
    for flag in command.flags:  # an empty path would read as unset, or as no file
        value = getattr(args, flag.dest)
        if flag.kind is None and "" in (flag.repeat and value or [value]):
            raise DataError(f"--{flag.name} must not be empty")
    missing = [f"--{f.name}" for f in command.flags if f.required and getattr(args, f.dest) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    for flag in command.flags:
        value = getattr(args, flag.dest)
        if flag.kind is None or value is None:
            continue
        try:
            setattr(args, flag.dest, flag.kind(value))
        except ValueError:
            name = flag.env if flag.dest in from_env else f"--{flag.name}"
            raise DataError(f"{name} expects {KINDS[flag.kind]}, got {value!r}") from None


class Manifest:
    """The run's audit record. ``output`` is the one way a subcommand writes
    a file; ``data.recording`` puts the sha256 of each input and output in it."""

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

    def output(self, path: str | None, writer, *args) -> None:
        """``writer(path, *args)`` if ``path`` is set; data the writer refuses,
        such as an id it cannot write, is a DataError naming ``path``."""
        if path:
            try:
                writer(path, *args)
            except ValueError as exc:
                raise DataError(f"{path}: {exc}") from None

    def write(self, args: argparse.Namespace, code: int, error: str | None) -> None:
        """Write ``<out>.manifest.json`` (``<command>.manifest.json`` without
        --out). A failed run has reported its error already, so not this one's."""
        self.doc.update(
            config={k: v for k, v in vars(args).items() if k != "command"},
            finished=datetime.now(timezone.utc).isoformat(),
            status="ok" if code == 0 else "error",
            exit_code=code,
            error=error,
        )
        side = f"{getattr(args, 'out', None) or args.command}.manifest.json"
        try:
            write_output(side, [json.dumps(self.doc, indent=2, default=str).encode()])
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
    truth_ids, truth = load_tags(args.truth, _vocab_from_arg(args))
    prob_ids, probs = load_probs(args.pred, truth.vocab)
    probs = _align_rows(truth_ids, prob_ids, probs, args.pred, "predictions", extra_ok=False)
    if args.thresholds:
        cutoffs = load_thresholds(args.thresholds, truth.vocab)
    else:
        cutoffs = np.full(truth.n_labels, args.cutoff)
    pred = apply_thresholds(probs, cutoffs)
    rep = report(pred, truth)
    print(rep.to_table_text(), end="")
    manifest.output(args.out, write_output, [rep.to_csv_text().encode()])
    return 0


def cmd_tune_thresholds(args, manifest: Manifest) -> int:
    truth_ids, truth = load_tags(args.truth, _vocab_from_arg(args))
    prob_ids, probs = load_probs(args.probs, truth.vocab)
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
    ids0, hard = _load_hard_predictions(first, _vocab_from_arg(args))
    preds = [hard]
    for path in args.pred[1:]:
        ids, hard = _load_hard_predictions(path, hard.vocab)
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
    ids, truth = load_tags(args.tags, _vocab_from_arg(args))
    _check_k(args, truth)
    folds = stratified_kfold(truth, args.k, args.seed)
    counts = np.bincount(folds.fold_of, minlength=folds.k)
    print("fold sizes: " + ", ".join(str(int(c)) for c in counts))
    manifest.output(args.out, save_folds, ids, folds)
    return 0


def cmd_cv(args, manifest: Manifest) -> int:
    spec = LearnerSpec(kind=args.learner, params=_parse_params(args.param))
    ids, truth = load_tags(args.tags, _vocab_from_arg(args))
    feat_ids, features = load_features(args.features)
    features = _align_rows(ids, feat_ids, features, args.features, "features", extra_ok=True)
    _check_k(args, truth)
    result = cv_evaluate(spec, features, truth, k=args.k, seed=args.seed)
    rows = [(str(f), *rep.total) for f, rep in enumerate(result.fold_reports)]
    table = score_csv("fold", [*rows, ("average", *result.average_total)])
    print(table, end="")
    manifest.output(args.out, write_output, [table.encode()])
    oof = ProbMatrix(values=result.oof_probs, vocab=truth.vocab)
    manifest.output(args.oof_out, save_probs, ids, oof)
    manifest.output(args.folds_out, save_folds, ids, result.folds)
    return 0


def cmd_train(args, manifest: Manifest) -> int:
    spec = LearnerSpec(kind=args.learner, params=_parse_params(args.param))
    ids, truth = load_tags(args.tags, _vocab_from_arg(args))
    feat_ids, features = load_features(args.features)
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
    truth_ids, truth = load_tags(args.truth, _vocab_from_arg(args))
    blocks = []
    for path in args.probs:
        prob_ids, probs = load_probs(path, truth.vocab)
        probs = _align_rows(truth_ids, prob_ids, probs, path, "predictions", extra_ok=False)
        blocks.append(probs.values)
    values = np.concatenate(blocks, axis=1)
    features = StackedFeatures(values=values, n_models=len(blocks), vocab=truth.vocab)
    fold_ids, folds = load_folds(args.folds)
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
    img = load_image_array(args.infile)
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
# flags
# ---------------------------------------------------------------------------


_COMMON = (Flag("vocab", default="infer", choices=("amazon", "infer")),
           Flag("config", "key=value config file; explicit flags win"),
           Flag("seed", "PRNG seed, else $CANOPY_SEED", _index, 0, env="CANOPY_SEED"))
_VOCAB, _CONFIG, _SEED = _COMMON
_TAGS = Flag("tags", "tag CSV", required=True)
_TRUTH = Flag("truth", "tag CSV with ground truth", required=True)
_FIT = (Flag("features", f".npy or {KEY_COLUMN},... CSV", required=True),
        Flag("learner", choices=LEARNER_KINDS, required=True),
        Flag("param", "learner hyperparameter key=value", repeat=True))
_K = Flag("k", "fold count", _count2, 5)

# subcommand -> its function, help and flags, in --help order
SUBCOMMANDS = {
    "metrics": Command(cmd_metrics, "per-class + Total scoreboard for predictions", (
        Flag("pred", "probability CSV (hard 0/1 also fine)", required=True), _TRUTH,
        Flag("thresholds", f"{','.join(THRESHOLD_HEADER)} CSV; default uniform cutoff"),
        Flag("cutoff", "uniform cutoff in [0, 1]", _unit, DEFAULT_CUTOFF),
        Flag("out", "write the scoreboard as CSV here"), _VOCAB, _CONFIG)),
    "tune-thresholds": Command(
        cmd_tune_thresholds, "optimize per-class cutoffs on a validation split", (
            Flag("probs", "probability CSV", required=True), _TRUTH,
            Flag("beta", "F-beta weight", _beta, 2),
            Flag("mode", default="coordinate", choices=TUNING_MODES),
            Flag("out", f"write {','.join(THRESHOLD_HEADER)} CSV here"), _VOCAB, _CONFIG)),
    "vote": Command(cmd_vote, "weighted majority vote over hard predictions", (
        Flag("pred", "prediction CSV (repeat per model)", repeat=True),
        Flag("weights", "comma-separated positive integers, one per --pred", _counts),
        Flag("out"), _VOCAB, _CONFIG)),
    "split": Command(cmd_split, "stratified k-fold assignment", (
        _TAGS, _K, Flag("out", f"write {','.join(FOLD_HEADER)} CSV here"), *_COMMON)),
    "cv": Command(cmd_cv, "stratified cross-validated evaluation of a learner", (
        _TAGS, *_FIT, _K, Flag("out", "fold Total rows + average as CSV"),
        Flag("oof-out", "write out-of-fold probabilities CSV"),
        Flag("folds-out", "write the fold assignment CSV"), *_COMMON)),
    "train": Command(cmd_train, "fit a per-label classical model on all data", (
        _TAGS, *_FIT, Flag("out", "write the model JSON here"),
        Flag("probs-out", "write training-set probabilities CSV"), *_COMMON)),
    "stack": Command(cmd_stack, "train the integrated-stacking meta-learner", (
        _TRUTH, Flag("probs", "per-model OOF probability CSV (repeat)", repeat=True),
        Flag("folds", f"{','.join(FOLD_HEADER)} CSV", required=True),
        Flag("val-fold", kind=_index, default=0),
        Flag("hidden", "comma list of hidden widths", _counts, "64"),
        Flag("dropout", "rate in [0, 1)", _rate, 0.25),
        Flag("batch-size", kind=_count2, default=128), Flag("epochs", kind=_count, default=50),
        Flag("patience", kind=_count, default=10),
        Flag("optimizer", default="amsgrad", choices=OPTIMIZERS),
        Flag("out", "validation-fold meta probabilities CSV"),
        Flag("thresholds-out", f"tuned {','.join(THRESHOLD_HEADER)} CSV"),
        Flag("checkpoint", "meta-learner checkpoint JSON"), *_COMMON)),
    "preprocess": Command(cmd_preprocess, "pixel-convention preprocessing and augmentation", (
        Flag("mode", "omit to only augment", choices=MODES),
        Flag("in", ".npy or pixel CSV", required=True, dest="infile"),
        Flag("out", ".npy or pixel CSV to write", required=True),
        Flag("augment", f"comma list of {','.join(AUGMENT_OPS)}", _augment_ops),
        Flag("random-augment", valueless=True), _CONFIG, _SEED)),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and each subcommand's parser, built from SUBCOMMANDS.
    They split the command line, refuse a value outside a flag's choices and
    render --help; ``_resolve`` does everything else."""
    parser = argparse.ArgumentParser(
        prog="canopy", allow_abbrev=False,
        description="Multi-label scene-tagging toolkit: metrics, thresholds, ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"canopy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, command in SUBCOMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for flag in command.flags:
            how = ({"action": "store_true"} if flag.valueless else
                   {"action": "append" if flag.repeat else "store", "choices": flag.choices})
            p.add_argument(f"--{flag.name}", dest=flag.dest, help=flag.help_text(), **how)
    return parser, parsers


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, parsers = build_parser()
    args = parser.parse_args(argv)
    command = SUBCOMMANDS[args.command]
    manifest = Manifest(args, argv)
    try:
        _resolve(args, command, parsers[args.command])
        with recording(manifest.doc["inputs"], manifest.doc["outputs"]):
            code = command.run(args, manifest)
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
