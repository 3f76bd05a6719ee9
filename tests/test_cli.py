import argparse
import hashlib
import json
import os

import numpy as np
import pytest

from canopy.cli import Manifest, main
from canopy.data import (
    LabelMatrix,
    ProbMatrix,
    load_probs,
    load_tags,
    make_rng,
    save_probs,
    save_tags,
)
from canopy.thresholds import load_thresholds

from conftest import make_vocab


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
       "--beta", None) for beta in ["0", "-2", "nan", "inf"]],
    (["split", "--tags", "missing.csv"], "run.cfg: vocab", "vocab = amazn"),
    (["tune-thresholds", "--probs", "missing.csv", "--truth", "missing.csv"], "run.cfg: mode",
     "mode = bogus"),
    (["stack", "--truth", "missing.csv", "--folds", "missing.csv"], "run.cfg: optimizer",
     "optimizer = bogus"),
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
        assert "--k" in err and "truth.csv" in err

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

    @pytest.mark.parametrize("existing", [None, b"old bytes\n"])
    def test_failing_writer_leaves_destination_untouched(self, tmp_path, existing):
        dest = tmp_path / "out.csv"
        if existing is not None:
            dest.write_bytes(existing)

        def writer(path, text):
            with open(path, "w") as fh:
                fh.write(text)
                fh.flush()
                raise RuntimeError("disk on fire")

        manifest = self.manifest()
        with pytest.raises(RuntimeError, match="disk on fire"):
            manifest.output(str(dest), writer, "half a file")
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else ["out.csv"])
        if existing is not None:
            assert dest.read_bytes() == existing
        assert manifest.doc["outputs"] == {}

    @pytest.mark.parametrize("name", ["out.csv", "image.npy", "no_suffix", "a.b.json"])
    def test_temporary_file_sits_beside_destination_with_its_suffix(self, tmp_path, name):
        seen = []

        def writer(path, text):
            seen.append(os.path.abspath(path))
            with open(path, "w") as fh:
                fh.write(text)

        dest = tmp_path / name
        old = os.umask(0o027)
        try:
            self.manifest().output(str(dest), writer, "x")
        finally:
            os.umask(old)
        (tmp,) = seen
        assert os.path.dirname(tmp) == str(tmp_path) and tmp != str(dest)
        assert os.path.splitext(tmp)[1] == os.path.splitext(name)[1]
        assert dest.stat().st_mode & 0o777 == 0o640  # the umask's, not mkstemp's 0600
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_unset_path_writes_nothing(self, tmp_path):
        calls = []
        manifest = self.manifest()
        manifest.output(None, lambda *a: calls.append(a))
        manifest.output("", lambda *a: calls.append(a))
        assert calls == [] and manifest.doc["outputs"] == {}

    def test_input_digest_recorded_after_load(self, workspace):
        tmp, *_ = workspace
        manifest = self.manifest()
        ids, truth = manifest.load("truth.csv", load_tags, "infer")
        assert manifest.doc["inputs"] == {"truth.csv": sha256(tmp / "truth.csv")}

    def test_failed_cv_run_leaves_error_manifest(self, workspace, capsys):
        tmp, *_ = workspace
        code = main([
            "cv", "--tags", "truth.csv", "--features", "features.csv", "--learner", "tree",
            "--k", "3", "--out", "cv.csv", "--oof-out", "oof.csv", "--folds-out", "nodir/f.csv",
        ])
        err = one_line_error(code, capsys)
        assert "nodir/f.csv" in err
        manifest = json.loads((tmp / "cv.csv.manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["exit_code"] == 1
        assert err.strip() == f"canopy cv: error: {manifest['error']}"
        assert manifest["outputs"] == {"cv.csv": sha256(tmp / "cv.csv"),
                                       "oof.csv": sha256(tmp / "oof.csv")}
        assert set(manifest["inputs"]) == {"truth.csv", "features.csv"}
        assert not (tmp / "nodir").exists()
        assert not [p.name for p in tmp.iterdir() if "-tmp-" in p.name]

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
