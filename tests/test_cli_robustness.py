"""Broken input files at the CLI boundary.

Valid demo inputs (scripts/make_demo_data.py plus a fold file, a threshold
file and a pixel CSV) are damaged one file at a time: truncated, given a
0xff byte, a dropped or duplicated column, swapped header cells, a
nan/inf/negative cell, or emptied. Every subcommand must then exit 0 or 1
without a traceback, fail with one stderr line that names a file or a flag,
and leave a manifest whose status matches its exit and whose output
digests match the files on disk.

Numeric flags and learner parameters get the same contract for edge values
(0, -1, 2.5, nan, inf, true, null, 1e309): a run either works or fails with
one stderr line that names the flag or parameter.
"""

import contextlib
import hashlib
import io
import json
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canopy.classical import load_model
from canopy.cli import main
from canopy.data import AMAZON_LABELS, LabelMatrix, LabelVocabulary, load_features, load_tags, save_tags
from canopy.imageprep import save_image_array
from canopy.splits import save_folds, stratified_kfold
from canopy.thresholds import save_thresholds

DEMO_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_data.py"

# subcommand (and variant) -> (input flags and files, other options, output flags and files);
# each runs to exit 0 on the demo inputs, so damage to any of its files is reached
COMMANDS = {
    "metrics": (
        [("--pred", "model_a_probs.csv"), ("--truth", "tags.csv"), ("--thresholds", "cutoffs.csv")],
        ["--vocab", "amazon"],
        [("--out", "out.csv")],
    ),
    "tune-thresholds": (
        [("--probs", "model_a_probs.csv"), ("--truth", "tags.csv")],
        ["--vocab", "amazon"],
        [("--out", "out.csv")],
    ),
    "vote": (
        [("--pred", "model_a_hard.csv"), ("--pred", "model_b_hard.csv")],
        ["--weights", "2,1"],
        [("--out", "out.csv")],
    ),
    "split": ([("--tags", "tags.csv")], ["--k", "3"], [("--out", "out.csv")]),
    "cv": (
        [("--tags", "tags.csv"), ("--features", "features.csv")],
        ["--learner", "tree", "--param", "max_depth=2", "--k", "2"],
        [("--out", "out.csv"), ("--oof-out", "oof.csv"), ("--folds-out", "folds_out.csv")],
    ),
    "cv npy": (
        [("--tags", "tags.csv"), ("--features", "features.npy")],
        ["--learner", "tree", "--param", "max_depth=2", "--k", "2"],
        [("--out", "out.csv")],
    ),
    "train": (
        [("--tags", "tags.csv"), ("--features", "features.csv")],
        ["--learner", "tree", "--param", "max_depth=2"],
        [("--out", "model.json"), ("--probs-out", "train_probs.csv")],
    ),
    "stack": (
        [("--truth", "tags.csv"), ("--probs", "model_a_probs.csv"),
         ("--probs", "model_b_probs.csv"), ("--folds", "folds.csv")],
        ["--vocab", "amazon", "--hidden", "4", "--epochs", "2", "--batch-size", "8"],
        [("--out", "out.csv"), ("--thresholds-out", "stack_cutoffs.csv"),
         ("--checkpoint", "meta.json")],
    ),
    "preprocess": (
        [("--in", "pixels.csv")],
        ["--mode", "tf", "--augment", "flip_lr"],
        [("--out", "out.npy")],
    ),
    "preprocess npy": (
        [("--in", "pixels.npy")],
        ["--mode", "caffe"],
        [("--out", "out.csv")],
    ),
}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A directory of valid inputs for every subcommand."""
    root = tmp_path_factory.mktemp("demo")
    saved = sys.argv
    sys.argv = [str(DEMO_SCRIPT), "--out-dir", str(root), "--samples", "24", "--seed", "3"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(DEMO_SCRIPT), run_name="__main__")
    finally:
        sys.argv = saved
    ids, truth = load_tags(root / "tags.csv", AMAZON_LABELS)
    save_folds(root / "folds.csv", ids, stratified_kfold(truth, 3, 0))
    save_thresholds(root / "cutoffs.csv", AMAZON_LABELS, np.linspace(0.2, 0.8, len(AMAZON_LABELS)))
    pixels = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    save_image_array(root / "pixels.csv", pixels)
    np.save(root / "pixels.npy", pixels)
    np.save(root / "features.npy", load_features(root / "features.csv")[1].values)
    return root


def _cells(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode("utf-8").split("\n")]


def _joined(rows: list[list[str]]) -> bytes:
    return "\n".join(",".join(row) for row in rows).encode("utf-8")


BYTE_DEFECTS = ["truncate", "0xff", "empty"]
CSV_DEFECTS = ["drop column", "duplicate column", "swap header", "bad cell"]


@st.composite
def damage(draw, data: bytes, binary: bool):
    """``data`` with one defect; every defect keeps the file's name."""
    kind = draw(st.sampled_from(BYTE_DEFECTS + ([] if binary else CSV_DEFECTS)))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "0xff":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + b"\xff" + data[at + draw(st.integers(0, 1)):]
    if kind == "empty":
        return b""
    rows = _cells(data)
    width = len(rows[0])
    if kind == "swap header":
        i, j = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
        rows[0][i], rows[0][j] = rows[0][j], rows[0][i]
        return _joined(rows)
    if kind == "bad cell":
        body = [r for r, row in enumerate(rows) if r > 0 and len(row) > 1]
        r = draw(st.sampled_from(body))
        c = draw(st.integers(1, len(rows[r]) - 1))
        rows[r][c] = draw(st.sampled_from(["nan", "inf", "-inf", "-1", "-0.5", ""]))
        return _joined(rows)
    c = draw(st.integers(0, width - 1))
    for row in rows:
        if len(row) > c:
            if kind == "drop column":
                del row[c]
            else:
                row.insert(c, row[c])
    return _joined(rows)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(command: str, work: Path) -> tuple[int, str]:
    """Exit code and stderr of ``command`` on the inputs in ``work``."""
    inputs, options, outputs = COMMANDS[command]
    argv = [command.split()[0], *options]
    for flag, name in inputs + outputs:
        argv += [flag, str(work / name)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _copy_inputs(command: str, demo: Path, work: Path) -> list[str]:
    names = sorted({name for _, name in COMMANDS[command][0]})
    for name in names:
        shutil.copyfile(demo / name, work / name)
    return names


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_undamaged_input_succeeds(demo, tmp_path, command):
    _copy_inputs(command, demo, tmp_path)
    assert _run(command, tmp_path) == (0, "")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(COMMANDS)))
def test_damaged_input_fails_cleanly(demo, data, command):
    outputs = COMMANDS[command][2]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        names = _copy_inputs(command, demo, work)
        victim = data.draw(st.sampled_from(names), label="file")
        broken = damage((demo / victim).read_bytes(), binary=victim.endswith(".npy"))
        (work / victim).write_bytes(data.draw(broken, label="bytes"))
        code, err = _run(command, work)

        assert code in (0, 1)
        assert "Traceback" not in err
        if code == 1:
            assert len(err.strip().splitlines()) == 1, err
            named = names + [name for _, name in outputs]
            assert any(name in err for name in named) or " --" in err, err
        manifest = json.loads((work / (outputs[0][1] + ".manifest.json")).read_text())
        assert manifest["status"] == ("ok" if code == 0 else "error")
        assert manifest["exit_code"] == code
        assert (manifest["error"] is None) == (code == 0)
        for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert digest == _sha256(Path(path))
        if code == 0:
            assert sorted(manifest["outputs"]) == sorted(str(work / n) for _, n in outputs)
        # no temporary file survives, whatever the outcome
        assert not [p.name for p in work.iterdir() if "-tmp-" in p.name]


@pytest.mark.parametrize("command", ["train", "cv"])
def test_learner_that_cannot_fit_a_label_names_it(demo, tmp_path, command, capsys):
    """LDA needs two samples of each class; one demo label has a single positive."""
    code = main([command, "--tags", str(demo / "tags.csv"), "--features",
                 str(demo / "features.csv"), "--learner", "lda", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and len(err.strip().splitlines()) == 1, err
    assert "lda on label 'conventional_mine': every class needs at least 2 samples" in err


EDGE_VALUES = ["0", "-1", "2.5", "nan", "inf", "true", "null", "1e309"]

# flag -> (subcommand, words of which an error about the flag names one)
FLAGS = {
    "--hidden": ("stack", ("--hidden", "hidden widths")),
    "--dropout": ("stack", ("--dropout", "dropout")),
    "--epochs": ("stack", ("--epochs", "max_epochs")),
    "--batch-size": ("stack", ("--batch-size", "batch_size")),
    "--patience": ("stack", ("--patience", "patience")),
    "--val-fold": ("stack", ("--val-fold",)),
    "--k": ("split", ("--k",)),
    "--seed": ("split", ("--seed",)),
    "--cutoff": ("metrics", ("--cutoff",)),
    "--beta": ("tune-thresholds", ("--beta",)),
    "--weights": ("vote", ("--weights", "weights")),
}
STACK_OPTIONS = {"--hidden": "4", "--epochs": "2", "--batch-size": "8"}

# learner -> (settings that keep a fit small, parameters to set to an edge value)
PARAMS = {
    "rf": ("n_estimators=3", ("n_estimators", "max_depth", "min_samples_split")),
    "gbm": ("n_stages=3", ("n_stages", "learning_rate", "max_depth", "min_samples_split")),
    "lda": ("reg_lambda=1e-6", ("k_components", "reg_lambda")),
}
SETTINGS = [(flag, None) for flag in FLAGS] + [
    ("--param", (learner, key)) for learner, (_, keys) in PARAMS.items() for key in keys
]


@pytest.fixture(scope="module")
def learnable(demo):
    """Tags and features every learner can fit: two labels, each with many
    samples of both classes (LDA needs two of each)."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3)).round(6)
    ids = [f"s{i:02d}" for i in range(30)]
    truth = LabelMatrix(values=(X[:, :2] > 0).astype(np.int8), vocab=LabelVocabulary(("a", "b")))
    save_tags(demo / "learn_tags.csv", ids, truth)
    rows = [f"{i}," + ",".join(f"{v:.6f}" for v in x) for i, x in zip(ids, X)]
    (demo / "learn_features.csv").write_text("\n".join(["image_name,f0,f1,f2", *rows]) + "\n")
    return demo


def _flag_argv(flag: str, value: str, demo: Path, work: Path) -> tuple[list[str], tuple]:
    command, names = FLAGS[flag]
    if command == "vote":
        value = f"{value},1"  # one weight per --pred
    inputs, options, outputs = COMMANDS[command]
    # flag=value, so a value such as -1,1 is not taken for a flag
    if command == "stack":
        options = [f"{f}={v}" for f, v in {**STACK_OPTIONS, flag: value}.items()]
    else:
        options = [*options, f"{flag}={value}"]
    argv = [command, "--vocab", "amazon", *options]  # the demo tags miss some labels
    for opt, name in inputs:
        argv += [opt, str(demo / name)]
    return argv + [outputs[0][0], str(work / outputs[0][1])], names


@settings(max_examples=100, deadline=None)
@given(setting=st.sampled_from(SETTINGS), value=st.sampled_from(EDGE_VALUES))
def test_edge_flag_value_fails_cleanly(learnable, setting, value):
    flag, param = setting
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if param is None:
            argv, names = _flag_argv(flag, value, learnable, work)
        else:
            learner, key = param
            argv = [
                "train", "--tags", str(learnable / "learn_tags.csv"),
                "--features", str(learnable / "learn_features.csv"), "--learner", learner,
                "--param", PARAMS[learner][0], "--param", f"{key}={value}",
                "--out", str(work / "model.json"),
            ]
            names = (key,)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)  # a usage error (argparse's SystemExit) fails the test
        err = stderr.getvalue()
        out = argv[argv.index("--out") + 1]

        assert "Traceback" not in err
        assert any(name in err for name in names) or code == 0, err
        assert code in (0, 1)
        if code == 1:
            assert len(err.strip().splitlines()) == 1, err
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["status"] == ("ok" if code == 0 else "error")
        assert manifest["exit_code"] == code
        if code == 0 and param is not None:
            load_model(out)  # the model train saved loads back
