import numpy as np
import pytest

from canopy.data import (
    AMAZON_LABELS,
    DataError,
    LabelMatrix,
    LabelVocabulary,
    ProbMatrix,
    load_features,
    load_probs,
    load_tags,
    make_rng,
    save_probs,
    save_tags,
    spawn_seeds,
    validate_weather_block,
)
from canopy.splits import load_folds

VOCAB3 = LabelVocabulary(names=("a", "b", "c"))


class TestVocabulary:
    def test_amazon_shape(self):
        assert len(AMAZON_LABELS) == 17
        assert AMAZON_LABELS.weather_count == 4
        assert AMAZON_LABELS.names[0] == "clear"
        assert AMAZON_LABELS.index("water") == 16

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LabelVocabulary(names=("a", "a"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            LabelVocabulary(names=("a", ""))

    def test_weather_count_bounds(self):
        with pytest.raises(ValueError):
            LabelVocabulary(names=("a", "b"), weather_count=3)


class TestMatrices:
    def test_label_matrix_rejects_non_binary(self):
        with pytest.raises(ValueError):
            LabelMatrix(values=np.array([[0.0, 0.5, 1.0]]), vocab=VOCAB3)

    def test_label_matrix_immutable(self):
        m = LabelMatrix(values=np.zeros((2, 3)), vocab=VOCAB3)
        with pytest.raises(ValueError):
            m.values[0, 0] = 1

    def test_prob_matrix_range_check(self):
        with pytest.raises(ValueError):
            ProbMatrix(values=np.array([[0.1, 1.2, 0.0]]), vocab=VOCAB3)
        with pytest.raises(ValueError):
            ProbMatrix(values=np.array([[0.1, np.nan, 0.0]]), vocab=VOCAB3)

    def test_column_count_must_match_vocab(self):
        with pytest.raises(ValueError):
            LabelMatrix(values=np.zeros((2, 4)), vocab=VOCAB3)

    def test_weather_block_validation(self):
        vocab = LabelVocabulary(names=("w1", "w2", "g1"), weather_count=2)
        good = LabelMatrix(values=np.array([[1, 0, 1], [0, 1, 0]]), vocab=vocab)
        validate_weather_block(good)
        bad = LabelMatrix(values=np.array([[1, 1, 0]]), vocab=vocab)
        with pytest.raises(DataError):
            validate_weather_block(bad)


class TestRng:
    def test_fixed_seed_reproduces(self):
        a = make_rng(123).random(10)
        b = make_rng(123).random(10)
        assert (a == b).all()

    def test_spawned_seeds_are_stable_and_distinct(self):
        s1 = spawn_seeds(7, 4)
        s2 = spawn_seeds(7, 4)
        assert s1 == s2
        assert len(set(s1)) == 4


class TestTagFiles:
    def test_row_under_17_label_vocab(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("image_name,tags\ntrain_0,haze primary\n")
        ids, labels = load_tags(path, AMAZON_LABELS)
        assert ids == ["train_0"]
        row = labels.values[0]
        assert row[AMAZON_LABELS.index("haze")] == 1
        assert row[AMAZON_LABELS.index("primary")] == 1
        assert row.sum() == 2

    def test_empty_tags_cell_is_all_zero(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("image_name,tags\ntrain_0,\n")
        _, labels = load_tags(path, AMAZON_LABELS)
        assert labels.values.sum() == 0

    def test_unknown_label_under_explicit_vocab(self, tmp_path):
        path = tmp_path / "tags.csv"
        for text, line in [
            ("image_name,tags\ntrain_0,fog\n", 2),
            ("image_name,tags\n\n\ntrain_0,haze\ntrain_1,fog\n", 5),
        ]:
            path.write_text(text)
            with pytest.raises(DataError, match=f"row {line}: unknown label 'fog'"):
                load_tags(path, AMAZON_LABELS)

    def test_infer_vocab_is_sorted(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("image_name,tags\nx,zebra apple\ny,mango\n")
        _, labels = load_tags(path, "infer")
        assert labels.vocab.names == ("apple", "mango", "zebra")

    def test_duplicate_sample_id(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("image_name,tags\nx,a\nx,b\n")
        with pytest.raises(DataError, match="duplicate"):
            load_tags(path, "infer")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("id,labels\nx,a\n")
        with pytest.raises(DataError, match="header"):
            load_tags(path, "infer")

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(b"image_name,tags\r\nx,a b\r\n")
        _, labels = load_tags(path, "infer")
        assert labels.values.tolist() == [[1, 1]]

    def test_save_load_round_trip(self, tmp_path):
        rng = make_rng(5)
        values = (rng.random((20, 17)) < 0.3).astype(np.int8)
        labels = LabelMatrix(values=values, vocab=AMAZON_LABELS)
        ids = [f"img_{i}" for i in range(20)]
        path = tmp_path / "tags.csv"
        save_tags(path, ids, labels)
        ids2, labels2 = load_tags(path, AMAZON_LABELS)
        assert ids2 == ids
        assert (labels2.values == labels.values).all()


class TestProbFiles:
    def test_round_trip_identical(self, tmp_path):
        rng = make_rng(6)
        probs = ProbMatrix(values=rng.random((8, 3)).round(6), vocab=VOCAB3)
        path = tmp_path / "p.csv"
        save_probs(path, [f"s{i}" for i in range(8)], probs)
        _, probs2 = load_probs(path, VOCAB3)
        assert (probs2.values == probs.values).all()

    def test_permuted_columns_realigned(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_name,c,a,b\nx,0.3,0.1,0.2\n")
        _, probs = load_probs(path, VOCAB3)
        assert probs.values.tolist() == [[0.1, 0.2, 0.3]]

    def test_value_out_of_range(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_name,a,b,c\nx,0.1,1.2,0.3\n")
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            load_probs(path, VOCAB3)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_name,a,b,c\nx,0.1,oops,0.3\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_probs(path, VOCAB3)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_name,a,b\nx,0.1,0.2\n")
        with pytest.raises(DataError, match="missing label"):
            load_probs(path, VOCAB3)


class TestFeatureFiles:
    def test_csv_features(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("image_name,f0,f1\nx,1.5,-2.0\ny,0.0,3.25\n")
        ids, feats = load_features(path)
        assert ids == ["x", "y"]
        assert feats.values.tolist() == [[1.5, -2.0], [0.0, 3.25]]
        assert feats.feature_names == ("f0", "f1")

    def test_npy_features(self, tmp_path):
        arr = make_rng(0).normal(size=(4, 6))
        path = tmp_path / "f.npy"
        np.save(path, arr)
        ids, feats = load_features(path)
        assert ids is None
        assert (feats.values == arr).all()

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("image_name,f0\nx,inf\n")
        with pytest.raises(DataError):
            load_features(path)


class TestKeyChecks:
    @pytest.mark.parametrize(
        "load,header,cell",
        [(load_features, "image_name,f0", "1.5"), (load_folds, "image_name,fold", "0")],
    )
    @pytest.mark.parametrize(
        "key,message", [("x", "duplicate image_name 'x'"), ("", "empty image_name")]
    )
    def test_duplicate_or_empty_id_rejected(self, tmp_path, load, header, cell, key, message):
        path = tmp_path / "f.csv"
        path.write_text(f"{header}\nx,{cell}\n\n{key},{cell}\ny,{cell}\n")
        with pytest.raises(DataError, match=f"row 4: {message}"):
            load(path)
