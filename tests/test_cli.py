import argparse
import builtins
import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from canopy.cli import SUBCOMMANDS, Manifest, main
from canopy.data import (
    LabelMatrix,
    ProbMatrix,
    load_probs,
    load_tags,
    make_rng,
    recording,
    save_probs,
    save_tags,
    write_output,
)
from canopy.thresholds import load_thresholds

from conftest import make_vocab

DEMO_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_data.py"


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """Small correlated truth/probability files plus features and folds."""
    monkeypatch.chdir(tmp_path)
    rng = make_rng(0)
    vocab = make_vocab(4)
    n = 40
    truth_values = (rng.random((n, 4)) < [0.5, 0.3, 0.2, 0.6]).astype(np.int8)
    truth_values[truth_values.sum(axis=1) == 0, 0] = 1
    ids = [f"img_{i:03d}" for i in range(n)]
    truth = LabelMatrix(values=truth_values, vocab=vocab)
    save_tags(tmp_path / "truth.csv", ids, truth)

    probs = np.clip(truth_values + rng.normal(0, 0.25, size=(n, 4)), 0, 1).round(6)
    save_probs(tmp_path / "probs.csv", ids, ProbMatrix(values=probs, vocab=vocab))

    features = rng.normal(size=(n, 3)).round(6)
    lines = ["image_name,f0,f1,f2"]
    for i, s in enumerate(ids):
        lines.append(s + "," + ",".join(f"{v:.6f}" for v in features[i]))
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
    return tmp_path, ids, vocab, truth, probs


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def one_line_error(code, capsys):
    """The stderr of a run that must fail with exit 1 and one line."""
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


class TestMetricsCommand:
    def test_scoreboard_and_manifest(self, workspace, capsys):
        tmp, ids, vocab, truth, _ = workspace
        code = main([
            "metrics", "--pred", "probs.csv", "--truth", "truth.csv",
            "--out", "report.csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Total" in out and "F2 Score" in out
        report = (tmp / "report.csv").read_text().strip().splitlines()
        assert len(report) == 1 + 4 + 1
        manifest = json.loads((tmp / "report.csv.manifest.json").read_text())
        assert manifest["command"] == "metrics"
        assert set(manifest["inputs"]) == {"truth.csv", "probs.csv"}
        assert manifest["outputs"] == {"report.csv": sha256(tmp / "report.csv")}
        assert "version" in manifest and "started" in manifest
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == ("ok", 0, None)

    def test_pred_rows_may_be_permuted(self, workspace, capsys):
        tmp, ids, vocab, truth, probs = workspace
        order = list(reversed(range(len(ids))))
        save_probs(
            tmp / "shuffled.csv",
            [ids[i] for i in order],
            ProbMatrix(values=probs[order], vocab=vocab),
        )
        assert main(["metrics", "--pred", "probs.csv", "--truth", "truth.csv"]) == 0
        first = capsys.readouterr().out
        assert main(["metrics", "--pred", "shuffled.csv", "--truth", "truth.csv"]) == 0
        assert capsys.readouterr().out == first

    def test_missing_and_extra_pred_rows_named(self, workspace, capsys):
        tmp, ids, vocab, truth, probs = workspace
        keep = [i for i in range(len(ids)) if i not in (5, 9)][::-1]  # img_009 first in file
        save_probs(tmp / "short.csv", [ids[i] for i in keep],
                   ProbMatrix(values=probs[keep], vocab=vocab))
        code = main(["metrics", "--pred", "short.csv", "--truth", "truth.csv"])
        assert "short.csv: missing predictions for sample 'img_005'" in one_line_error(code, capsys)
        save_probs(tmp / "long.csv", ids + ["img_999"],
                   ProbMatrix(values=np.vstack([probs, probs[:1]]), vocab=vocab))
        code = main(["metrics", "--pred", "long.csv", "--truth", "truth.csv"])
        assert "long.csv: sample 'img_999' not present in the truth file" in one_line_error(code, capsys)

    def test_first_extra_row_in_file_order_named(self, workspace, capsys):
        tmp, ids, vocab, truth, probs = workspace
        extra = [f"img_9{i:02d}" for i in range(20, 0, -1)]  # img_920 first in the file
        save_probs(tmp / "long.csv", ids + extra,
                   ProbMatrix(values=np.vstack([probs, probs[:20]]), vocab=vocab))
        code = main(["metrics", "--pred", "long.csv", "--truth", "truth.csv"])
        assert "long.csv: sample 'img_920' not present in the truth file" in one_line_error(code, capsys)

    def test_missing_sample_is_data_error(self, workspace, capsys):
        tmp, ids, vocab, truth, probs = workspace
        save_probs(tmp / "short.csv", ids[:-1], ProbMatrix(values=probs[:-1], vocab=vocab))
        code = main(["metrics", "--pred", "short.csv", "--truth", "truth.csv"])
        assert code == 1
        assert "img_039" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["nan", "7", "-0.5", "inf"])
    def test_bad_cutoff_rejected_before_reading(self, workspace, capsys, cutoff):
        code = main(["metrics", "--pred", "probs.csv", "--truth", "missing.csv",
                     "--cutoff", cutoff])
        assert "--cutoff" in one_line_error(code, capsys)

    def test_undecodable_thresholds_file_named(self, workspace, capsys):
        tmp, *_ = workspace
        (tmp / "cutoffs.csv").write_bytes(b"label,threshold\nlabel_0,0.5\xff\n")
        code = main(["metrics", "--pred", "probs.csv", "--truth", "truth.csv",
                     "--thresholds", "cutoffs.csv"])
        assert "cutoffs.csv" in one_line_error(code, capsys)

    def test_usage_error_exits_two(self, workspace):
        with pytest.raises(SystemExit) as err:
            main(["metrics", "--pred", "probs.csv"])  # --truth missing
        assert err.value.code == 2

    @pytest.mark.parametrize("argv,flag", [
        (["metrics", "--pred", "probs.csv", "--truth", "truth.csv", "--cutoff", "x"], "--cutoff"),
        (["tune-thresholds", "--probs", "probs.csv", "--truth", "truth.csv", "--beta", "x"],
         "--beta"),
    ])
    def test_numeric_flag_converted_once_exits_one(self, workspace, capsys, argv, flag):
        """--cutoff and --beta convert like every other option: a bad value on
        the command line is a one-line error naming the flag, with a manifest."""
        assert flag in one_line_error(main(argv), capsys)
        manifest = json.loads((workspace[0] / f"{argv[0]}.manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"]) == ("error", 1)
        assert flag in manifest["error"]


BAD_FLAG_VALUES = [
    (["split", "--tags", "missing.csv", "--k", "x"], "--k", None),
    (["split", "--tags", "missing.csv", "--seed", "abc"], "--seed", None),
    (["split", "--tags", "missing.csv", "--k", "2.5"], "--k", None),
    (["vote", "--pred", "missing.csv", "--weights", "a"], "--weights", None),
    (["vote", "--pred", "missing.csv", "--weights", "1,,2"], "--weights", None),
    (["cv", "--tags", "missing.csv", "--features", "missing.csv", "--learner", "tree",
      "--k", "three"], "--k", None),
    (["train", "--tags", "missing.csv", "--features", "missing.csv", "--learner", "tree",
      "--seed", "1e3"], "--seed", None),
    (["preprocess", "--in", "missing.npy", "--out", "o.npy", "--seed", "s"], "--seed", None),
    *[(["stack", "--truth", "missing.csv", "--folds", "missing.csv", option, value], option, None)
      for option, value in [("--val-fold", "x"), ("--hidden", "64,a"), ("--dropout", "half"),
                            ("--batch-size", "1.5"), ("--epochs", "x"), ("--patience", "p")]],
    (["tune-thresholds", "--probs", "missing.csv", "--truth", "missing.csv"], "--beta",
     "beta = abc"),
    (["metrics", "--pred", "missing.csv", "--truth", "missing.csv"], "--cutoff", "cutoff = x"),
    (["split", "--tags", "missing.csv"], "--k", "k = x"),
    *[(["tune-thresholds", "--probs", "missing.csv", "--truth", "missing.csv", "--beta", beta],
       "--beta", None) for beta in ["0", "-2", "nan", "inf", "1e200"]],
    (["split", "--tags", "missing.csv"], "run.cfg: vocab", "vocab = amazn"),
    (["tune-thresholds", "--probs", "missing.csv", "--truth", "missing.csv"], "run.cfg: mode",
     "mode = bogus"),
    (["stack", "--truth", "missing.csv", "--folds", "missing.csv"], "run.cfg: optimizer",
     "optimizer = bogus"),
    # each value refused by its kind, where a later check used to refuse it
    # without naming the flag, or only after reading every input
    *[(["stack", "--truth", "missing.csv", "--folds", "missing.csv", option, value], option, None)
      for option, value in [("--epochs", "0"), ("--batch-size", "-3"), ("--batch-size", "1"),
                            ("--patience", "0"), ("--hidden", "0"), ("--hidden", "64,0"),
                            ("--dropout", "1")]],
    (["vote", "--pred", "missing.csv", "--weights", "0,1"], "--weights", None),
    (["preprocess", "--in", "missing.npy", "--out", "o.npy", "--augment", "spin"],
     "--augment", None),
    (["preprocess", "--in", "missing.npy", "--out", "o.npy"], "--augment",
     "augment = flip_lr,spin"),
    (["metrics", "--pred", "missing.csv", "--truth", "missing.csv"], "--cutoff", "cutoff = 1.5"),
    (["split", "--tags", "missing.csv", "--k", "1"], "--k", None),
    (["cv", "--tags", "missing.csv", "--features", "missing.csv", "--learner", "tree",
      "--k", "0"], "--k", None),
    (["stack", "--truth", "missing.csv", "--folds", "missing.csv", "--val-fold", "-1"],
     "--val-fold", None),
    (["stack", "--truth", "missing.csv", "--folds", "missing.csv"], "--val-fold",
     "val-fold = -1"),
    (["cv", "--tags", "missing.csv", "--features", "missing.csv"], "run.cfg: learner",
     "learner = bogus"),
    (["preprocess", "--in", "missing.npy", "--out", "o.npy"], "run.cfg: mode", "mode = bogus"),
    # a missing repeatable input flag is refused before any file is read
    (["vote", "--out", "voted.csv"], "--pred", None),
    (["stack", "--truth", "missing.csv", "--folds", "missing.csv"], "--probs", None),
]


@pytest.mark.parametrize(
    "argv,flag,config", BAD_FLAG_VALUES,
    ids=[f"{a[0]} {c or ' '.join(a[-2:])}" for a, _, c in BAD_FLAG_VALUES],
)
def test_bad_flag_value_named_before_reading(workspace, capsys, argv, flag, config):
    """A value that does not convert is a one-line error naming its flag."""
    tmp, *_ = workspace
    if config is not None:
        (tmp / "run.cfg").write_text(config + "\n")
        argv = argv + ["--config", "run.cfg"]
    err = one_line_error(main(argv), capsys)
    assert flag in err and "missing" not in err


def test_every_option_has_a_bad_value_case():
    """A flag with a kind or choices, declared later, cannot skip the
    named-error check."""
    named = {flag.removeprefix("run.cfg: ").removeprefix("--") for _, flag, _ in BAD_FLAG_VALUES}
    checked = {flag.name for command in SUBCOMMANDS.values() for flag in command.flags
               if flag.kind is not None or flag.choices is not None}
    assert checked <= named


def test_help_shows_every_option_default(capsys):
    """Each subcommand's --help shows each flag's declared default, or marks
    it required, at the end of its help line, so no help string restates one."""
    for command, declared in SUBCOMMANDS.items():
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        for flag in declared.flags:
            shown = flag.help_text()
            if flag.required:
                assert shown.endswith(("required", "(required)")), shown
            elif flag.default is not None:
                default = f"default {flag.default}"
                assert shown.endswith((default, f"({default})")), shown
            else:
                continue
            assert f"--{flag.name}" in text and " ".join(shown.split()) in text, (command, shown)


@pytest.mark.parametrize("argv", [
    ["cv", "--tags", "truth.csv", "--features", "missing.npy", "--learner", "tree"],
    ["train", "--tags", "truth.csv", "--features", "missing.npy", "--learner", "tree"],
    ["preprocess", "--in", "missing.npy", "--out", "o.npy", "--mode", "tf"],
])
def test_missing_npy_input_named_like_any_input(workspace, capsys, argv):
    """A missing .npy used to print numpy's message without the path prefix."""
    err = one_line_error(main(argv), capsys)
    assert err.startswith(f"canopy {argv[0]}: error: missing.npy: [Errno 2] ")


class TestTuneThresholdsCommand:
    def test_tuned_cutoffs_beat_uniform_half(self, workspace, capsys):
        tmp, ids, vocab, truth, probs = workspace
        assert main([
            "tune-thresholds", "--probs", "probs.csv", "--truth", "truth.csv",
            "--beta", "2", "--out", "cutoffs.csv",
        ]) == 0
        text = capsys.readouterr().out
        assert "achieved coordinate F2" in text
        cutoffs = load_thresholds(tmp / "cutoffs.csv", vocab)
        from canopy.metrics import sample_fbeta
        from canopy.thresholds import apply_thresholds

        pm = ProbMatrix(values=probs, vocab=vocab)
        tuned = sample_fbeta(apply_thresholds(pm, cutoffs), truth)
        uniform = sample_fbeta(apply_thresholds(pm, np.full(4, 0.5)), truth)
        assert tuned >= uniform


class TestVoteCommand:
    def test_single_model_vote_is_identity(self, workspace, capsys):
        tmp, ids, vocab, truth, _ = workspace
        hard = (np.array([[1, 0, 1, 0]] * len(ids))).astype(float)
        save_probs(tmp / "hard.csv", ids, ProbMatrix(values=hard, vocab=vocab))
        assert main(["vote", "--pred", "hard.csv", "--out", "voted.csv"]) == 0
        _, voted = load_probs(tmp / "voted.csv", vocab)
        assert (voted.values == hard).all()

    @pytest.mark.parametrize("position", [0, 1])
    def test_undecodable_pred_file_named(self, workspace, capsys, position):
        tmp, ids, vocab, truth, _ = workspace
        save_probs(tmp / "hard.csv", ids, ProbMatrix(values=truth.values * 1.0, vocab=vocab))
        (tmp / "bad.csv").write_bytes(b"image_name,\xff\nimg_000,1\n")
        preds = ["hard.csv", "hard.csv"]
        preds[position] = "bad.csv"
        code = main(["vote", "--pred", preds[0], "--pred", preds[1]])
        assert "bad.csv" in one_line_error(code, capsys)

    def test_three_model_weighted_vote(self, workspace):
        tmp, ids, vocab, truth, _ = workspace
        rows = len(ids)
        a = np.ones((rows, 4))
        b = np.zeros((rows, 4))
        c = np.zeros((rows, 4))
        for name, values in (("a.csv", a), ("b.csv", b), ("c.csv", c)):
            save_probs(tmp / name, ids, ProbMatrix(values=values, vocab=vocab))
        assert main([
            "vote", "--pred", "a.csv", "--pred", "b.csv", "--pred", "c.csv",
            "--weights", "3,1,1", "--out", "voted.csv",
        ]) == 0
        _, voted = load_probs(tmp / "voted.csv", vocab)
        assert (voted.values == 1.0).all()  # v=3 > 5/2 everywhere

    def test_config_pred_and_weights_lines_match_flags(self, workspace, capsys):
        tmp, ids, vocab, truth, _ = workspace
        rng = make_rng(5)
        for name in ("a.csv", "b.csv", "c.csv"):
            hard = (rng.random((len(ids), 4)) < 0.5).astype(float)
            save_probs(tmp / name, ids, ProbMatrix(values=hard, vocab=vocab))
        (tmp / "vote.cfg").write_text(
            "pred = a.csv\npred = b.csv\npred = c.csv\nweights = 2,1,1\n"
        )
        assert main(["vote", "--config", "vote.cfg", "--out", "from_config.csv"]) == 0
        assert main(["vote", "--pred", "a.csv", "--pred", "b.csv", "--pred", "c.csv",
                     "--weights", "2,1,1", "--out", "from_flags.csv"]) == 0
        assert (tmp / "from_config.csv").read_bytes() == (tmp / "from_flags.csv").read_bytes()

    def test_soft_probabilities_rejected(self, workspace, capsys):
        code = main(["vote", "--pred", "probs.csv", "--out", "voted.csv"])
        assert code == 1
        assert "hard 0/1" in capsys.readouterr().err


class TestSplitAndCvCommands:
    def test_split_writes_fold_file(self, workspace, capsys):
        tmp, ids, vocab, truth, _ = workspace
        assert main(["split", "--tags", "truth.csv", "--k", "4",
                     "--seed", "3", "--out", "folds.csv"]) == 0
        from canopy.splits import load_folds

        fold_ids, folds = load_folds(tmp / "folds.csv")
        assert fold_ids == ids
        assert folds.k == 4

    @pytest.mark.parametrize("command", ["split", "cv"])
    @pytest.mark.parametrize("k", ["1", "41"])
    def test_fold_count_out_of_range_names_flag(self, workspace, capsys, command, k):
        argv = [command, "--tags", "truth.csv", "--k", k]
        if command == "cv":
            argv += ["--features", "features.csv", "--learner", "tree"]
        err = one_line_error(main(argv), capsys)
        # below 2 is refused by the flag's kind before any read; above n needs the file
        want = "--k expects an integer >= 2" if k == "1" else "truth.csv"
        assert "--k" in err and want in err

    def test_oversized_field_names_file(self, workspace, capsys):
        tmp, *_ = workspace
        (tmp / "big.csv").write_text("image_name,tags\nx," + "a" * 200_000 + "\n")
        code = main(["split", "--tags", "big.csv"])
        assert "big.csv" in one_line_error(code, capsys)

    def test_cv_average_row_is_mean_of_folds(self, workspace, capsys):
        tmp, ids, vocab, truth, _ = workspace
        assert main([
            "cv", "--tags", "truth.csv", "--features", "features.csv",
            "--learner", "tree", "--param", "max_depth=3", "--k", "3",
            "--seed", "1", "--out", "cv.csv", "--oof-out", "oof.csv",
        ]) == 0
        rows = (tmp / "cv.csv").read_text().strip().splitlines()
        assert rows[0].startswith("fold,")
        folds = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:-1]])
        avg = np.array([float(v) for v in rows[-1].split(",")[1:]])
        np.testing.assert_allclose(avg, folds.mean(axis=0), atol=5e-7)  # 6dp output
        _, oof = load_probs(tmp / "oof.csv", vocab)
        assert oof.values.shape == (len(ids), 4)


class TestLearnerParamErrors:
    """Bad --param input exits 1 with one stderr line naming the key."""

    @pytest.fixture
    def data_work(self, monkeypatch):
        """Names of the data-reading and fold-splitting calls made."""
        import canopy.cli
        import canopy.splits

        calls = []
        for module, name in ((canopy.cli, "load_tags"), (canopy.splits, "stratified_kfold")):
            original = getattr(module, name)

            def record(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, record)
        return calls

    def run(self, command, learner, param, capsys):
        code = main([
            command, "--tags", "truth.csv", "--features", "features.csv",
            "--learner", learner, "--param", param,
        ])
        return one_line_error(code, capsys)

    @pytest.mark.parametrize("command", ["cv", "train"])
    @pytest.mark.parametrize("learner,param", [
        ("rf", "n_trees=5"), ("tree", "seed=3"), ("rf", "criterion=mse"), ("extra", "criterion=mse"),
    ])
    def test_unknown_key_rejected_before_data_work(
        self, workspace, capsys, data_work, command, learner, param
    ):
        key = param.split("=")[0]
        err = self.run(command, learner, param, capsys)
        assert repr(key) in err and repr(learner) in err
        assert data_work == []

    def test_cv_bad_value_is_one_line_error(self, workspace, capsys):
        err = self.run("cv", "tree", "max_depth=0", capsys)
        assert "max_depth" in err

    @pytest.mark.parametrize("command", ["cv", "train"])
    @pytest.mark.parametrize("learner,param", [
        ("tree", "max_depth=0"), ("rf", "max_depth=0"), ("gbm", "max_depth=0"),
        ("rf", "n_estimators=0"), ("extra", "n_estimators=0"), ("gbm", "n_stages=0"),
        ("gbm", "learning_rate=2"), ("lda", "reg_lambda=-1"),
        ("rf", "n_estimators=2.5"), ("extra", "n_estimators=true"), ("gbm", "n_stages=2.5"),
        ("rf", "max_depth=NaN"), ("tree", "max_depth=1.5"), ("gbm", "max_depth=false"),
        ("tree", "min_samples_split=-4"), ("rf", "min_samples_split=1"),
        ("gbm", "min_samples_split=2.0"), ("lda", "k_components=1.5"), ("lda", "k_components=0"),
        ("lda", "reg_lambda=NaN"), ("lda", "reg_lambda=Infinity"), ("gbm", "learning_rate=NaN"),
        ("rf", 'bootstrap="no"'),
    ])
    def test_bad_value_rejected_before_data_work(
        self, workspace, capsys, data_work, command, learner, param
    ):
        err = self.run(command, learner, param, capsys)
        assert param.split("=")[0] in err
        assert data_work == []

    def test_value_of_wrong_type_rejected_before_data_work(self, workspace, capsys, data_work):
        err = self.run("cv", "rf", 'max_depth="deep"', capsys)
        assert repr("rf") in err
        assert data_work == []


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("features", ["nofeat.csv", "nofeat.npy"])
def test_feature_file_without_columns_named(workspace, capsys, command, features):
    """A feature file without columns used to fit priors only: cv printed a
    prior-only scoreboard and train saved leaf-only trees, both exit 0."""
    tmp, ids, *_ = workspace
    (tmp / "nofeat.csv").write_text("image_name\n" + "".join(f"{s}\n" for s in ids))
    np.save(tmp / "nofeat.npy", np.zeros((len(ids), 0)))
    code = main([command, "--tags", "truth.csv", "--features", features, "--learner", "tree",
                 "--out", "out.json"])
    assert f"error: {features}: feature matrix has no columns" in one_line_error(code, capsys)
    assert not (tmp / "out.json").exists()


class TestTrainCommand:
    def test_model_written_and_loadable(self, workspace, capsys):
        tmp, ids, vocab, truth, _ = workspace
        assert main([
            "train", "--tags", "truth.csv", "--features", "features.csv",
            "--learner", "extra", "--param", "n_estimators=5",
            "--seed", "2", "--out", "model.json",
        ]) == 0
        from canopy.classical import load_model

        model = load_model(tmp / "model.json")
        assert model.spec.kind == "extra"
        assert len(model.models) == 4


    def test_duplicate_feature_id_names_file_and_row(self, workspace, capsys):
        tmp, *_ = workspace
        with open(tmp / "features.csv", "a") as fh:
            fh.write("img_000,0.0,0.0,0.0\n")  # line 42, after 40 rows
        code = main(["train", "--tags", "truth.csv", "--features", "features.csv",
                     "--learner", "tree"])
        err = one_line_error(code, capsys)
        assert "features.csv: row 42: duplicate image_name 'img_000'" in err


class TestWorkerProcesses:
    """Label fits in worker processes write the files that one process writes."""

    @pytest.fixture(scope="class")
    def demo(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("demo")
        saved = sys.argv
        sys.argv = [str(DEMO_SCRIPT), "--out-dir", str(root), "--samples", "300", "--seed", "4"]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(DEMO_SCRIPT), run_name="__main__")
        finally:
            sys.argv = saved
        return root

    @pytest.mark.parametrize("argv,outputs", [
        (["cv", "--learner", "rf", "--param", "n_estimators=3", "--k", "3"],
         [("--out", "cv.csv"), ("--oof-out", "oof.csv")]),
        (["train", "--learner", "gbm", "--param", "n_stages=3"],
         [("--out", "model.json"), ("--probs-out", "probs.csv")]),
    ], ids=["cv-rf", "train-gbm"])
    def test_one_and_two_cpus_write_the_same_files(self, demo, tmp_path, monkeypatch, capsys,
                                                   forks, argv, outputs):
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            flags = [word for flag, name in outputs for word in (flag, str(out / name))]
            assert main([*argv, "--tags", str(demo / "tags.csv"),
                         "--features", str(demo / "features.csv"), "--vocab", "amazon",
                         "--seed", "3", *flags]) == 0
            manifest = json.loads((out / f"{outputs[0][1]}.manifest.json").read_text())
            runs.append((
                [(out / name).read_bytes() for _, name in outputs],
                [manifest["outputs"][str(out / name)] for _, name in outputs],
                capsys.readouterr().out,
                len(forks),
            ))
        (files_1, digests_1, printed_1, forks_1), (files_2, digests_2, printed_2, forks_2) = runs
        assert forks_1 == 0 and forks_2 > 0
        assert files_1 == files_2 and digests_1 == digests_2 and printed_1 == printed_2


class TestStackCommand:
    def test_stack_trains_and_emits_outputs(self, workspace, capsys):
        tmp, ids, vocab, truth, probs = workspace
        rng = make_rng(5)
        second = np.clip(truth.values + rng.normal(0, 0.35, truth.values.shape), 0, 1)
        save_probs(tmp / "probs2.csv", ids, ProbMatrix(values=second.round(6), vocab=vocab))
        assert main(["split", "--tags", "truth.csv", "--k", "4", "--seed", "0",
                     "--out", "folds.csv"]) == 0
        assert main([
            "stack", "--truth", "truth.csv",
            "--probs", "probs.csv", "--probs", "probs2.csv",
            "--folds", "folds.csv", "--val-fold", "1",
            "--epochs", "8", "--batch-size", "16", "--seed", "4",
            "--out", "meta.csv", "--thresholds-out", "meta_cutoffs.csv",
            "--checkpoint", "meta.json",
        ]) == 0
        out = capsys.readouterr().out
        assert "meta-learner val fold 1" in out
        from canopy.nn import load_checkpoint
        from canopy.splits import load_folds

        net, meta = load_checkpoint(tmp / "meta.json")
        assert net.spec.in_dim == 8
        assert meta["n_models"] == 2
        _, folds = load_folds(tmp / "folds.csv")
        val_ids, val_probs = load_probs(tmp / "meta.csv", vocab)
        assert len(val_ids) == len(folds.fold_indices(1))

    @pytest.mark.parametrize("option,named", [
        ("--hidden=0", "hidden"), ("--hidden=-3", "hidden"), ("--hidden=4,0", "hidden"),
        ("--dropout=nan", "dropout"), ("--dropout=1", "dropout"), ("--dropout=-0.5", "dropout"),
        ("--epochs=0", "epochs"), ("--epochs=-1", "epochs"),
    ])
    def test_bad_network_setting_is_one_line_error(self, workspace, capsys, option, named):
        assert main(["split", "--tags", "truth.csv", "--k", "4", "--out", "folds.csv"]) == 0
        capsys.readouterr()
        code = main(["stack", "--truth", "truth.csv", "--probs", "probs.csv",
                     "--folds", "folds.csv", "--checkpoint", "meta.json", option])
        assert named in one_line_error(code, capsys)
        assert not (workspace[0] / "meta.json").exists()

    def test_missing_probs_refused_before_the_truth_is_read(self, workspace, capsys):
        code = main(["stack", "--truth", "truth.csv", "--folds", "folds.csv"])
        assert "stack needs at least one --probs file" in one_line_error(code, capsys)
        manifest = json.loads((workspace[0] / "stack.manifest.json").read_text())
        assert manifest["inputs"] == {} and manifest["status"] == "error"

    def test_allocation_that_cannot_succeed_is_one_line_error(self, workspace, capsys, monkeypatch):
        """numpy refuses an array larger than memory (a huge --hidden, say)
        with a MemoryError; the run ends like any other failed one."""
        import canopy.cli

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 12.4 TiB for an array with shape "
                              "(17, 100000000000) and data type float64")

        monkeypatch.setattr(canopy.cli, "stack_train", refuse)
        assert main(["split", "--tags", "truth.csv", "--k", "4", "--out", "folds.csv"]) == 0
        capsys.readouterr()
        code = main(["stack", "--truth", "truth.csv", "--probs", "probs.csv",
                     "--folds", "folds.csv", "--out", "meta.csv"])
        assert "Unable to allocate 12.4 TiB" in one_line_error(code, capsys)
        manifest = json.loads((workspace[0] / "meta.csv.manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"]) == ("error", 1)
        assert not (workspace[0] / "meta.csv").exists()

    @pytest.mark.parametrize("fold", [10**30, 2**62])
    def test_huge_fold_index_is_one_line_error(self, workspace, capsys, fold):
        tmp, ids, *_ = workspace
        rows = "".join(f"{s},{fold if i == 3 else i % 2}\n" for i, s in enumerate(ids))
        (tmp / "folds.csv").write_text("image_name,fold\n" + rows)
        code = main(["stack", "--truth", "truth.csv", "--probs", "probs.csv",
                     "--folds", "folds.csv"])
        assert "folds.csv: row 5: fold" in one_line_error(code, capsys)

    def test_undecodable_folds_file_named(self, workspace, capsys):
        tmp, *_ = workspace
        (tmp / "folds.csv").write_bytes(b"image_name,fold\nimg_000,\xff\n")
        code = main(["stack", "--truth", "truth.csv", "--probs", "probs.csv",
                     "--folds", "folds.csv"])
        assert "folds.csv" in one_line_error(code, capsys)


class TestPreprocessCommand:
    def test_preprocess_with_augment(self, workspace, capsys):
        tmp, *_ = workspace
        from canopy.imageprep import load_image_array, save_image_array

        img = make_rng(7).uniform(0, 255, size=(4, 4, 3))
        save_image_array(tmp / "raw.npy", img)
        assert main([
            "preprocess", "--mode", "tf", "--in", "raw.npy", "--out", "pre.npy",
            "--augment", "flip_lr,rot90_cw",
        ]) == 0
        got = load_image_array(tmp / "pre.npy")
        from canopy.imageprep import augment, preprocess

        want = preprocess(augment(augment(img, "flip_lr"), "rot90_cw"), "tf")
        assert (got == want).all()


    def test_augment_only_without_mode(self, workspace, capsys):
        tmp, *_ = workspace
        img = make_rng(9).uniform(-5, 300, size=(2, 3, 3))  # any values: no convention applies
        np.save(tmp / "raw.npy", img)
        (tmp / "run.cfg").write_text("seed = 4\n")
        assert main(["preprocess", "--in", "raw.npy", "--out", "flip.npy", "--augment", "flip_lr",
                     "--config", "run.cfg"]) == 0
        assert (np.load(tmp / "flip.npy") == img[:, ::-1, :]).all()
        (tmp / "run.cfg").write_text("mode = torch\n")
        assert main(["preprocess", "--in", "raw.npy", "--out", "x.npy", "--config", "run.cfg"]) == 1

    def test_npy_output_is_a_real_npy_file(self, workspace, capsys):
        tmp, *_ = workspace
        from canopy.imageprep import save_image_array

        img = make_rng(8).uniform(0, 255, size=(3, 5, 3))
        save_image_array(tmp / "raw.npy", img)
        assert main(["preprocess", "--mode", "caffe", "--in", "raw.npy", "--out", "x.npy"]) == 0
        assert (tmp / "x.npy").read_bytes()[:6] == b"\x93NUMPY"
        from canopy.imageprep import preprocess

        assert (np.load(tmp / "x.npy") == preprocess(img, "caffe")).all()
        assert sorted(p.name for p in tmp.glob("x.*")) == ["x.npy", "x.npy.manifest.json"]

    @pytest.mark.parametrize("content,message", [
        ("#canopy-pixels-v1,1,1,3\n1,2,300\n", "[0, 255]"),
        ("#canopy-pixels-v1,1,1,3\n1,nan,3\n", "[0, 255]"),
        ("#canopy-pixels-v1,1,1,2\n1,2\n", "3 channels"),
        ("#canopy-pixels-v1,1,1,3\n1,2\n", "channels"),
        ("#canopy-pixels-v1,-1,-1,3\n1,2,3\n", "height,width"),
        ("#canopy-pixels-v1,1,1,x\n1,2,3\n", "malformed"),
        ("#canopy-pixels-v1,0,1,3\n", None),
    ])
    def test_bad_pixel_values_name_file(self, workspace, capsys, content, message):
        tmp, *_ = workspace
        (tmp / "raw.csv").write_text(content)
        code = main(["preprocess", "--mode", "tf", "--in", "raw.csv", "--out", "pre.csv"])
        if message is None:  # an empty image is valid
            assert code == 0
            return
        err = one_line_error(code, capsys)
        assert "raw.csv" in err and message in err

    @pytest.mark.parametrize("defect", ["truncated", "empty", "npz", "pickle", "2-D", "nan"])
    @pytest.mark.parametrize("command", ["preprocess", "cv"])
    def test_npy_input_without_a_usable_array_names_file(self, workspace, capsys, command, defect):
        tmp, *_ = workspace
        good = np.zeros((4, 4, 3)) if command == "preprocess" else np.zeros((40, 3))
        bad = {"2-D": np.zeros((4, 3)), "nan": np.full(good.shape, np.nan)}.get(defect, good)
        np.save(tmp / "in.npy", bad)
        data = (tmp / "in.npy").read_bytes()
        if defect == "truncated":
            (tmp / "in.npy").write_bytes(data[: len(data) // 2])
        elif defect == "empty":
            (tmp / "in.npy").write_bytes(b"")
        elif defect == "npz":
            np.savez(tmp / "in", a=good)
            (tmp / "in.npz").replace(tmp / "in.npy")
        elif defect == "pickle":
            (tmp / "in.npy").write_bytes(b"not an array")
        if command == "preprocess":
            argv = ["preprocess", "--mode", "tf", "--in", "in.npy", "--out", "pre.npy"]
        else:
            argv = ["cv", "--tags", "truth.csv", "--features", "in.npy", "--learner", "tree"]
        assert "in.npy" in one_line_error(main(argv), capsys)

    def test_blank_first_line_of_pixel_csv(self, workspace, capsys):
        tmp, *_ = workspace
        (tmp / "raw.csv").write_text("\n#canopy-pixels-v1,1,1,3\n1,2,3\n")
        code = main(["preprocess", "--in", "raw.csv", "--out", "pre.npy"])
        assert "raw.csv" in one_line_error(code, capsys)


# subcommand -> (flags given once by flag and once by config line, other
# options, output suffix); each run also sets --out, or ``out`` in the config
CONFIG_RUNS = {
    "metrics": ({"pred": "probs.csv", "truth": "truth.csv", "cutoff": "0.3"}, [], ".csv"),
    "tune-thresholds": ({"probs": "probs.csv", "truth": "truth.csv", "mode": "per-class"}, [],
                        ".csv"),
    "vote": ({"pred": "hard.csv", "weights": "3"}, [], ".csv"),
    "split": ({"tags": "truth.csv", "k": "3", "seed": "2"}, [], ".csv"),
    "cv": ({"tags": "truth.csv", "features": "features.csv", "learner": "tree"},
           ["--k", "2", "--param", "max_depth=2"], ".csv"),
    "train": ({"tags": "truth.csv", "features": "features.csv", "learner": "tree"},
              ["--param", "max_depth=2"], ".json"),
    "stack": ({"truth": "truth.csv", "folds": "folds.csv", "probs": "probs.csv"},
              ["--epochs", "2", "--batch-size", "8", "--hidden", "4"], ".csv"),
    "preprocess": ({"in": "raw.npy", "mode": "caffe", "augment": "flip_ud"}, [], ".npy"),
}


@pytest.fixture
def config_inputs(workspace):
    """The workspace plus hard predictions, folds and an image."""
    tmp, ids, vocab, truth, _ = workspace
    save_probs(tmp / "hard.csv", ids, ProbMatrix(values=truth.values * 1.0, vocab=vocab))
    folds = np.arange(len(ids)) % 4
    (tmp / "folds.csv").write_text(
        "image_name,fold\n" + "".join(f"{s},{f}\n" for s, f in zip(ids, folds)))
    np.save(tmp / "raw.npy", make_rng(3).uniform(0, 255, size=(3, 4, 3)))
    return tmp


class TestConfigAndSeeds:
    def test_config_file_fills_defaults_but_flags_win(self, workspace, capsys):
        tmp, ids, vocab, truth, _ = workspace
        (tmp / "run.cfg").write_text("#canopy-config-v1\nk = 4\nseed = 9\n")
        assert main(["split", "--tags", "truth.csv", "--config", "run.cfg",
                     "--out", "f1.csv"]) == 0
        from canopy.splits import load_folds

        _, folds = load_folds(tmp / "f1.csv")
        assert folds.k == 4
        assert main(["split", "--tags", "truth.csv", "--config", "run.cfg",
                     "--k", "2", "--out", "f2.csv"]) == 0
        _, folds2 = load_folds(tmp / "f2.csv")
        assert folds2.k == 2

    def test_config_keys_are_long_flag_names(self, workspace, capsys):
        """``in`` names --in, whose dest is ``infile``; the dest is no key."""
        tmp, *_ = workspace
        img = make_rng(3).uniform(0, 255, size=(2, 3, 3))
        np.save(tmp / "raw.npy", img)
        (tmp / "run.cfg").write_text("in = raw.npy\nmode = tf\n")
        assert main(["preprocess", "--in", "raw.npy", "--out", "x.npy", "--config", "run.cfg"]) == 0
        from canopy.imageprep import preprocess

        assert (np.load(tmp / "x.npy") == preprocess(img, "tf")).all()
        (tmp / "run.cfg").write_text("infile = raw.npy\n")
        code = main(["preprocess", "--in", "raw.npy", "--out", "y.npy", "--config", "run.cfg"])
        assert "run.cfg: unknown config key 'infile'" in one_line_error(code, capsys)

    @pytest.mark.parametrize("argv, key", [
        (["preprocess", "--in", "raw.npy", "--out", "x.npy"], "random_augment"),
        (["stack", "--probs", "p.csv", "--truth", "truth.csv", "--folds", "f.csv", "--out",
          "x.npy"], "batch_size"),
    ], ids=["preprocess", "stack"])
    def test_dest_spelling_is_no_key(self, workspace, capsys, argv, key):
        """Only long flag names are keys: ``random_augment`` and ``batch_size``
        are the dests of --random-augment and --batch-size."""
        tmp, *_ = workspace
        np.save(tmp / "raw.npy", np.zeros((2, 2, 3)))
        (tmp / "run.cfg").write_text(f"{key} = 8\n")
        code = main([*argv, "--config", "run.cfg"])
        assert f"run.cfg: unknown config key {key!r}" in one_line_error(code, capsys)
        assert not (tmp / "x.npy").exists()

    @pytest.mark.parametrize("key, value", [
        ("random-augment", "true"), ("config", "other.cfg"), ("help", "yes"),
    ])
    def test_config_key_of_a_flag_without_a_value_refused(self, workspace, capsys, key, value):
        """``random-augment = true`` and ``config = other.cfg`` used to be
        dropped without a word: the first flag takes no value, and the
        config file is read only once."""
        tmp, *_ = workspace
        np.save(tmp / "raw.npy", np.zeros((2, 2, 3)))
        (tmp / "run.cfg").write_text(f"{key} = {value}\n")
        code = main(["preprocess", "--in", "raw.npy", "--out", "x.npy", "--config", "run.cfg"])
        err = one_line_error(code, capsys)
        assert f"run.cfg: config key {key!r} cannot be set in a config file" in err
        assert not (tmp / "x.npy").exists()

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_required_flags_from_config_write_the_same_bytes(self, config_inputs, capsys,
                                                             command):
        """Every flag a CONFIG_RUNS entry sets, required ones and --out too,
        may come from --config: the run writes the bytes and records the
        settings that the same flags do."""
        tmp = config_inputs
        keys, options, suffix = CONFIG_RUNS[command]
        required = {f.name for f in SUBCOMMANDS[command].flags if f.required}
        assert required <= set(keys) | {"out"}
        flags = [arg for key, value in keys.items() for arg in (f"--{key}", value)]
        assert main([command, *flags, *options, "--out", f"flags{suffix}"]) == 0
        lines = [f"{key} = {value}" for key, value in keys.items()]
        (tmp / "run.cfg").write_text("\n".join([*lines, f"out = config{suffix}"]) + "\n")
        assert main([command, *options, "--config", "run.cfg"]) == 0
        assert (tmp / f"flags{suffix}").read_bytes() == (tmp / f"config{suffix}").read_bytes()
        records = [json.loads((tmp / f"{name}{suffix}.manifest.json").read_text())["config"]
                   for name in ("flags", "config")]
        for record in records:
            del record["out"], record["config"]
        assert records[0] == records[1]

    @pytest.mark.parametrize("command,missing", [
        (command, flag.name) for command, declared in SUBCOMMANDS.items()
        for flag in declared.flags if flag.required
    ])
    def test_required_flag_missing_from_flags_and_config_exits_two(
            self, config_inputs, capsys, command, missing):
        """A required flag set neither on the command line nor in the config
        file is a usage error after the merge: exit 2, argparse's wording, no
        manifest."""
        tmp = config_inputs
        keys, options, suffix = CONFIG_RUNS[command]
        lines = [f"{key} = {value}" for key, value in {**keys, "out": f"x{suffix}"}.items()
                 if key != missing]
        (tmp / "run.cfg").write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exit_:
            main([command, *options, "--config", "run.cfg"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"canopy {command}: error: the following arguments are required: "
                            f"--{missing}\n")
        assert not list(tmp.glob("*.manifest.json"))

    def test_unknown_config_key_is_error(self, workspace, capsys):
        tmp, *_ = workspace
        (tmp / "bad.cfg").write_text("mystery = 1\n")
        assert main(["split", "--tags", "truth.csv", "--config", "bad.cfg"]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_env_seed_default(self, workspace, monkeypatch, capsys):
        tmp, ids, vocab, truth, _ = workspace
        monkeypatch.setenv("CANOPY_SEED", "7")
        assert main(["split", "--tags", "truth.csv", "--out", "a.csv"]) == 0
        monkeypatch.delenv("CANOPY_SEED")
        assert main(["split", "--tags", "truth.csv", "--seed", "7",
                     "--out", "b.csv"]) == 0
        assert (tmp / "a.csv").read_text() == (tmp / "b.csv").read_text()

    def test_negative_seed_names_the_flag(self, workspace, capsys):
        tmp, *_ = workspace
        code = main(["split", "--tags", "truth.csv", "--seed", "-1", "--out", "f.csv"])
        assert "error: --seed expects a non-negative integer, got '-1'" in one_line_error(
            code, capsys)
        (tmp / "run.cfg").write_text("seed = -2\n")
        code = main(["split", "--tags", "truth.csv", "--config", "run.cfg", "--out", "f.csv"])
        assert "error: --seed expects a non-negative integer, got '-2'" in one_line_error(
            code, capsys)

    @pytest.mark.parametrize("env", ["-1", "-3", "seven"])
    def test_bad_env_seed_names_the_variable(self, workspace, monkeypatch, capsys, env):
        monkeypatch.setenv("CANOPY_SEED", env)
        code = main(["split", "--tags", "truth.csv", "--out", "f.csv"])
        err = one_line_error(code, capsys)
        assert f"error: CANOPY_SEED expects a non-negative integer, got '{env}'" in err

    def test_deterministic_outputs_for_fixed_seed(self, workspace):
        tmp, *_ = workspace
        for name in ("x.csv", "y.csv"):
            assert main(["split", "--tags", "truth.csv", "--k", "5",
                         "--seed", "11", "--out", name]) == 0
        assert (tmp / "x.csv").read_text() == (tmp / "y.csv").read_text()


class TestManifestFiles:
    """Every file a run reads or writes goes through the manifest."""

    def manifest(self):
        return Manifest(argparse.Namespace(command="test"), [])

    @pytest.mark.parametrize("recorded", [False, True], ids=["library", "run"])
    @pytest.mark.parametrize("existing", [None, b"old bytes\n"])
    def test_failing_chunks_leave_destination_untouched(self, tmp_path, existing, recorded):
        """Chunks that fail midway leave an absent destination absent and an
        old one as it was, with no new file left beside it."""
        dest = tmp_path / "out.csv"
        if existing is not None:
            dest.write_bytes(existing)

        def chunks():
            yield b"half a "
            raise RuntimeError("disk on fire")

        outputs = {}
        with pytest.raises(RuntimeError, match="disk on fire"):
            with recording({}, outputs) if recorded else contextlib.nullcontext():
                write_output(dest, chunks())
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else ["out.csv"])
        if existing is not None:
            assert dest.read_bytes() == existing
        assert outputs == {}

    @pytest.mark.parametrize("recorded", [False, True], ids=["library", "run"])
    def test_new_file_sits_beside_destination_with_the_umask_mode(self, tmp_path, recorded):
        (tmp_path / "sub").mkdir()
        dest = tmp_path / "sub" / "out.csv"
        beside = []

        def chunks():  # drawn once the new file is open
            beside.extend(p.name for p in dest.parent.iterdir())
            yield b"x,"
            yield b"y\n"

        outputs = {}
        old = os.umask(0o027)
        try:
            with recording({}, outputs) if recorded else contextlib.nullcontext():
                write_output(str(dest), chunks())
                assert dest.exists() is not recorded  # a run moves its outputs at its end
        finally:
            os.umask(old)
        (tmp,) = beside
        assert tmp != "out.csv"
        assert dest.read_bytes() == b"x,y\n"
        assert dest.stat().st_mode & 0o777 == 0o640  # the umask's, not mkstemp's 0600
        assert [p.name for p in dest.parent.iterdir()] == ["out.csv"]
        assert outputs == ({str(dest): sha256(dest)} if recorded else {})

    def test_unset_path_writes_nothing(self, tmp_path):
        calls = []
        manifest = self.manifest()
        manifest.output(None, lambda *a: calls.append(a))
        manifest.output("", lambda *a: calls.append(a))
        assert calls == [] and manifest.doc["outputs"] == {}

    def test_input_digest_keyed_as_spelled(self, workspace):
        """Each input's key is the path as given on the command line, a ``./``
        prefix included, for tag and feature files alike."""
        tmp, *_ = workspace
        assert main(["train", "--tags", "./truth.csv", "--features", "./features.csv",
                     "--learner", "tree", "--out", "model.json"]) == 0
        manifest = json.loads((tmp / "model.json.manifest.json").read_text())
        assert manifest["inputs"] == {"./truth.csv": sha256(tmp / "truth.csv"),
                                      "./features.csv": sha256(tmp / "features.csv")}

    def test_input_changed_after_read_keeps_the_digest_of_the_bytes_parsed(
            self, workspace, capsys, monkeypatch):
        """The digest is taken from the bytes the loader parsed, so a file
        that changes after it was read cannot make the record lie."""
        import canopy.cli

        tmp, *_ = workspace
        parsed = sha256(tmp / "truth.csv")

        def appending_loader(path, vocab):
            result = load_tags(path, vocab)
            with open(path, "a") as fh:
                fh.write("img_999,label_0\n")
            return result

        monkeypatch.setattr(canopy.cli, "load_tags", appending_loader)
        assert main(["split", "--tags", "truth.csv", "--out", "folds.csv"]) == 0
        manifest = json.loads((tmp / "folds.csv.manifest.json").read_text())
        assert manifest["inputs"] == {"truth.csv": parsed}
        assert sha256(tmp / "truth.csv") != parsed

    def test_input_rejected_after_read_is_listed(self, workspace, capsys):
        """A file read and then refused by its parser is an input of the run."""
        tmp, *_ = workspace
        (tmp / "dup.csv").write_text("image_name,tags\nimg_1,a\nimg_1,b\n")
        code = main(["split", "--tags", "dup.csv", "--out", "folds.csv"])
        assert "dup.csv: row 3: duplicate image_name 'img_1'" in one_line_error(code, capsys)
        manifest = json.loads((tmp / "folds.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["inputs"] == {"dup.csv": sha256(tmp / "dup.csv")}

    @pytest.mark.parametrize("folds_out, fault", [
        ("nodir/f.csv", "No such file or directory"), ("adir", "Is a directory")])
    def test_failed_cv_run_leaves_error_manifest(self, workspace, capsys, folds_out, fault):
        """A run that fails after some writes, or on its last output's
        destination, replaces none of its outputs and lists none."""
        tmp, *_ = workspace
        (tmp / "adir").mkdir()
        code = main([
            "cv", "--tags", "truth.csv", "--features", "features.csv", "--learner", "tree",
            "--k", "3", "--out", "cv.csv", "--oof-out", "oof.csv", "--folds-out", folds_out,
        ])
        err = one_line_error(code, capsys)
        assert f"{folds_out}: cannot write: {fault}" in err
        manifest = json.loads((tmp / "cv.csv.manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["exit_code"] == 1
        assert err.strip() == f"canopy cv: error: {manifest['error']}"
        assert manifest["outputs"] == {}
        assert set(manifest["inputs"]) == {"truth.csv", "features.csv"}
        assert not (tmp / "cv.csv").exists() and not (tmp / "oof.csv").exists()
        assert not (tmp / "nodir").exists() and not any((tmp / "adir").iterdir())
        assert not [p.name for p in tmp.iterdir() if "-tmp-" in p.name]

    def test_run_failing_after_training_keeps_the_old_outputs(self, workspace, capsys):
        """stack writes its probabilities and thresholds before the checkpoint
        it cannot write; the old files stay as they were."""
        tmp, *_ = workspace
        (tmp / "folds.csv").write_text(
            "image_name,fold\n" + "".join(f"img_{i:03d},{i % 4}\n" for i in range(40)))
        for name in ("meta.csv", "th.csv"):
            (tmp / name).write_bytes(b"old\n")
        code = main(["stack", "--truth", "truth.csv", "--probs", "probs.csv",
                     "--folds", "folds.csv", "--epochs", "1", "--out", "meta.csv",
                     "--thresholds-out", "th.csv", "--checkpoint", "nodir/ck.json"])
        assert "nodir/ck.json: cannot write" in one_line_error(code, capsys)
        assert (tmp / "meta.csv").read_bytes() == (tmp / "th.csv").read_bytes() == b"old\n"
        manifest = json.loads((tmp / "meta.csv.manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["outputs"] == {}
        assert not [p.name for p in tmp.iterdir() if "-tmp-" in p.name]

    @pytest.mark.parametrize("argv, message", [
        (["split", "--tags", "truth.csv", "--out", "truth.csv"],
         "truth.csv: output is the same file as input truth.csv"),
        (["split", "--tags", "truth.csv", "--out", "./truth.csv"],
         "./truth.csv: output is the same file as input truth.csv"),
        (["vote", "--pred", "truth.csv", "--out", "link.csv"],
         "link.csv: output is the same file as input truth.csv"),
        (["cv", "--tags", "truth.csv", "--features", "features.csv", "--learner", "tree",
          "--k", "3", "--out", "a.csv", "--oof-out", "a.csv"],
         "a.csv: output is the same file as output a.csv"),
        (["cv", "--tags", "truth.csv", "--features", "features.csv", "--learner", "tree",
          "--k", "3", "--out", "new/../a.csv", "--folds-out", "a.csv"],
         "a.csv: output is the same file as output new/../a.csv"),
    ], ids=["input", "input ./", "input by link", "output", "output not yet there"])
    def test_output_that_is_an_input_or_another_output_is_refused(self, workspace, capsys,
                                                                  argv, message):
        """Refused before any file is replaced, in one line naming both paths."""
        tmp, *_ = workspace
        (tmp / "new").mkdir()
        (tmp / "link.csv").symlink_to("truth.csv")
        before = _tree_digests(tmp)
        err = one_line_error(main(argv), capsys)
        assert err.strip().endswith(f"error: {message}")
        (side,) = tmp.glob("*.manifest.json")
        before[side.name] = sha256(side)  # the one new file
        assert _tree_digests(tmp) == before and (tmp / "link.csv").is_symlink()
        manifest = json.loads(side.read_text())
        assert manifest["error"] == message and manifest["outputs"] == {}

    def test_error_without_out_writes_command_manifest(self, workspace, capsys):
        tmp, *_ = workspace
        err = one_line_error(main(["split", "--tags", "missing.csv"]), capsys)
        manifest = json.loads((tmp / "split.manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"]) == ("error", 1)
        assert manifest["inputs"] == {} and manifest["outputs"] == {}
        assert "missing.csv" in manifest["error"] and "missing.csv" in err

    def test_unwritable_manifest_on_error_path_keeps_one_line(self, workspace, capsys):
        code = main(["split", "--tags", "missing.csv", "--out", "nodir/folds.csv"])
        err = one_line_error(code, capsys)
        assert "missing.csv" in err and "manifest" not in err

    def test_unwritable_manifest_after_success_is_an_error(self, workspace, capsys):
        tmp, *_ = workspace
        (tmp / "folds.csv.manifest.json").mkdir()
        code = main(["split", "--tags", "truth.csv", "--out", "folds.csv"])
        assert "folds.csv.manifest.json" in one_line_error(code, capsys)
        assert (tmp / "folds.csv").exists()
        assert not [p.name for p in tmp.iterdir() if "-tmp-" in p.name]

    def test_unexpected_exception_still_recorded(self, workspace, monkeypatch):
        import canopy.cli

        def broken(*args):
            raise KeyError("bug")

        monkeypatch.setattr(canopy.cli, "stratified_kfold", broken)
        with pytest.raises(KeyError):
            main(["split", "--tags", "truth.csv", "--out", "folds.csv"])
        manifest = json.loads((workspace[0] / "folds.csv.manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"]) == ("error", 1)
        assert manifest["error"] == "KeyError: 'bug'"

    def test_argv_records_the_command_line_run(self, workspace):
        argv = ["split", "--tags", "truth.csv", "--k", "4", "--out", "folds.csv"]
        assert main(argv) == 0
        manifest = json.loads((workspace[0] / "folds.csv.manifest.json").read_text())
        assert manifest["argv"] == argv
        assert manifest["config"]["k"] == 4 and manifest["config"]["seed"] == 0


# subcommand runs that between them read every kind of input: tag files
# (one quoted, so the streaming reader parses it), probability, 0/1
# probability, threshold, fold and feature files (CSV and .npy), and images
# (.npy and pixel CSV)
READ_RUNS = {
    "metrics": ["metrics", "--pred", "probs.csv", "--truth", "truth.csv",
                "--thresholds", "cutoffs.csv", "--out", "board.csv"],
    "tune-thresholds": ["tune-thresholds", "--probs", "probs.csv", "--truth", "truth.csv",
                        "--out", "t.csv"],
    "vote tags": ["vote", "--pred", "truth.csv", "--pred", "truth2.csv", "--out", "v.csv"],
    "vote probs": ["vote", "--pred", "hard.csv", "--pred", "hard2.csv", "--out", "v.csv"],
    "split quoted": ["split", "--tags", "quoted.csv", "--k", "3", "--out", "f.csv"],
    "cv npy": ["cv", "--tags", "truth.csv", "--features", "features.npy", "--learner", "tree",
               "--k", "2", "--oof-out", "oof.csv"],
    "train": ["train", "--tags", "./truth.csv", "--features", "features.csv", "--learner",
              "tree", "--out", "m.json"],
    "stack": ["stack", "--truth", "truth.csv", "--probs", "probs.csv", "--folds", "folds.csv",
              "--epochs", "1", "--batch-size", "8", "--hidden", "4", "--out", "s.csv"],
    "preprocess npy": ["preprocess", "--in", "raw.npy", "--out", "o.npy", "--mode", "tf"],
    "preprocess pixels": ["preprocess", "--in", "raw.csv", "--out", "o.npy", "--mode", "tf"],
}


@pytest.fixture
def read_inputs(config_inputs, monkeypatch):
    """The config inputs plus one file of every other kind READ_RUNS reads,
    and the reads of each file: path -> modes it was opened in to read."""
    from canopy.imageprep import save_image_array
    from canopy.thresholds import save_thresholds

    tmp = config_inputs
    for name in ("truth", "hard"):
        (tmp / f"{name}2.csv").write_bytes((tmp / f"{name}.csv").read_bytes())
    rows = (tmp / "truth.csv").read_text().splitlines()
    (tmp / "quoted.csv").write_text(
        "\n".join([rows[0], *(f'{key},"{tags}"' for key, tags in
                              (row.split(",") for row in rows[1:]))]) + "\n")
    save_thresholds(tmp / "cutoffs.csv", make_vocab(4), np.full(4, 0.4))
    np.save(tmp / "features.npy", make_rng(4).normal(size=(40, 3)))
    save_image_array(tmp / "raw.csv", np.load(tmp / "raw.npy"))
    reads: dict[str, list[str]] = {}
    real = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            reads.setdefault(os.path.normpath(file), []).append(mode)
        return real(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)  # Path.read_bytes and read_text
    return tmp, reads


@pytest.mark.parametrize("run", READ_RUNS)
def test_every_input_read_in_full_once(read_inputs, capsys, run):
    """Each input is read whole once, by the reader that parses it and
    records its digest; vote also reads the header of each file, to route it
    to the tag or the probability loader. No output, staged or in place, is
    read back."""
    tmp, reads = read_inputs
    argv = READ_RUNS[run]
    assert main(argv) == 0
    run_reads = {path: list(modes) for path, modes in reads.items()}
    manifest = json.loads(next(tmp.glob("*.manifest.json")).read_text())
    inputs, outputs = manifest["inputs"], manifest["outputs"]
    assert outputs  # every run writes a file
    assert not {os.path.normpath(path) for path in outputs} & set(run_reads)
    assert not [path for path in run_reads if "-tmp-" in path]
    spelled = {os.path.normpath(path) for path in inputs}
    assert {path: modes.count("rb") for path, modes in run_reads.items()} == dict.fromkeys(
        spelled, 1)
    peeks = {path: len(modes) - 1 for path, modes in run_reads.items() if len(modes) > 1}
    assert peeks == (dict.fromkeys(spelled, 1) if argv[0] == "vote" else {})
    flag_values = {argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    assert set(inputs) <= flag_values  # keyed as spelled, "./truth.csv" too


def _tree_digests(tmp: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in tmp.iterdir() if p.is_file()}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_shortened_flag_is_refused(config_inputs, capsys, command):
    """Flags are spelled in full: argparse would take ``train --probs x``
    for ``--probs-out x`` and overwrite x. Every proper prefix of a long flag
    that is not itself a flag is a usage error that touches no file."""
    tmp = config_inputs
    keys, options, suffix = CONFIG_RUNS[command]
    base = [command, *(arg for key, value in keys.items() for arg in (f"--{key}", value)),
            *options, "--out", f"x{suffix}"]
    declared = {f"--{flag.name}" for flag in SUBCOMMANDS[command].flags}
    before = _tree_digests(tmp)
    for flag in sorted(declared):
        for prefix in {flag[:end] for end in range(3, len(flag))} - declared:
            for argv in ([*base, prefix, "probs.csv"], [*base, f"{prefix}=probs.csv"]):
                with pytest.raises(SystemExit) as exit_:
                    main(argv)
                assert exit_.value.code == 2, argv
                assert "unrecognized arguments" in capsys.readouterr().err
    assert _tree_digests(tmp) == before


# (command line, config file, flag or variable named); each run would
# otherwise read no file, count a flag as unset or skip a step
EMPTY_VALUES = [
    (["split", "--tags", ""], None, "--tags must not be empty"),
    (["split"], "tags =", "--tags must not be empty"),
    (["split", "--tags", "truth.csv", "--out", ""], None, "--out must not be empty"),
    (["split", "--tags", "truth.csv"], "out =", "--out must not be empty"),
    (["split", "--tags", "truth.csv", "--config", ""], None, "--config must not be empty"),
    (["metrics", "--pred", "probs.csv", "--truth", "truth.csv", "--thresholds", ""], None,
     "--thresholds must not be empty"),
    (["vote", "--pred", "hard.csv", "--pred", ""], None, "--pred must not be empty"),
    (["stack", "--truth", "truth.csv", "--folds", "folds.csv"], "probs = probs.csv\nprobs =",
     "--probs must not be empty"),
    (["cv", "--tags", "truth.csv", "--features", "features.csv", "--learner", "tree",
      "--param", ""], None, "--param must not be empty"),
    (["preprocess", "--in", "raw.npy", "--out", "o.npy", "--augment", ""], None,
     "--augment expects"),
    (["split", "--tags", "truth.csv", "--seed", ""], None, "--seed expects"),
]


@pytest.mark.parametrize("argv,config,message", EMPTY_VALUES,
                         ids=[" ".join(a) + (f" [{c}]" if c else "") for a, c, _ in EMPTY_VALUES])
def test_empty_flag_value_is_refused_by_name(config_inputs, capsys, argv, config, message):
    """An empty value used to be read as a file named '' (an error naming
    no flag), count as unset (--out, --thresholds, --config) or do nothing
    (--augment). Each is now a one-line error naming the flag."""
    tmp = config_inputs
    if config is not None:
        (tmp / "run.cfg").write_text(config + "\n")
        argv = [*argv, "--config", "run.cfg"]
    before = _tree_digests(tmp)
    err = one_line_error(main(argv), capsys)
    assert f"canopy {argv[0]}: error: {message}" in err
    written = set(_tree_digests(tmp)) - set(before)
    assert len(written) == 1 and written.pop().endswith(".manifest.json")


def test_empty_env_seed_names_the_variable(workspace, monkeypatch, capsys):
    monkeypatch.setenv("CANOPY_SEED", "")
    code = main(["split", "--tags", "truth.csv", "--out", "f.csv"])
    assert "error: CANOPY_SEED expects a non-negative integer, got ''" in one_line_error(
        code, capsys)
