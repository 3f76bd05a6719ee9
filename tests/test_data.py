import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canopy.data import (
    AMAZON_LABELS,
    DataError,
    FeatureMatrix,
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
from canopy.ensemble import StackedFeatures
from canopy.splits import FoldAssignment, load_folds

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

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_weather_count_must_be_an_integer(self, value):
        with pytest.raises(TypeError, match="^weather_count must be an integer, got "):
            LabelVocabulary(names=("a", "b"), weather_count=value)
        vocab = LabelVocabulary(names=("a", "b"), weather_count=np.int64(1))
        assert type(vocab.weather_count) is int


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


# container -> (caller's array of n rows and a given width, the array it holds)
CONTAINERS = {
    "LabelMatrix": (
        lambda rng, n, w: (rng.random((n, w)) < 0.5).astype(np.int8),
        lambda a, w: LabelMatrix(values=a, vocab=LabelVocabulary(tuple("abcd"[:w]))).values,
    ),
    "ProbMatrix": (
        lambda rng, n, w: rng.random((n, w)),
        lambda a, w: ProbMatrix(values=a, vocab=LabelVocabulary(tuple("abcd"[:w]))).values,
    ),
    "FeatureMatrix": (
        lambda rng, n, w: rng.normal(size=(n, w)),
        lambda a, w: FeatureMatrix(values=a).values,
    ),
    "StackedFeatures": (
        lambda rng, n, w: rng.random((n, 2 * w)),
        lambda a, w: StackedFeatures(
            values=a, n_models=2, vocab=LabelVocabulary(tuple("abcd"[:w]))
        ).values,
    ),
    "FoldAssignment": (
        lambda rng, n, w: rng.permutation(np.arange(n) % 2),
        lambda a, w: FoldAssignment(fold_of=a, k=2).fold_of,
    ),
}


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(CONTAINERS)),
    n=st.integers(2, 6),
    width=st.integers(1, 4),
    view=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_container_holds_a_read_only_copy(kind, n, width, view, seed):
    """Each container copies its input once and freezes the copy: the
    caller's array stays writable, and a later write to it does not reach
    the container."""
    make, hold = CONTAINERS[kind]
    caller = make(make_rng(seed), n, width)
    given_values = caller.copy()
    held = hold(caller[:] if view else caller, width)
    assert not held.flags.writeable
    assert caller.flags.writeable
    assert not np.shares_memory(held, caller)
    caller[...] = caller[::-1] + 1
    assert (held == given_values).all()


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

    @pytest.mark.parametrize("seed", [0.7, 2.9, True, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        """A float or bool seed used to be truncated without a word: 0.7
        drew as 0, True as 1 and spawn_seeds(2.9, 2) as spawn_seeds(2, 2)."""
        with pytest.raises(TypeError, match="^seed must be an integer, got "):
            make_rng(seed)
        with pytest.raises(TypeError, match="^seed must be an integer, got "):
            spawn_seeds(seed, 2)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5), np.int8(5)])
    def test_numpy_integer_seeds_draw_as_the_plain_int(self, seed):
        assert make_rng(seed).random(6).tobytes() == np.random.default_rng(5).random(6).tobytes()
        assert spawn_seeds(seed, 3) == spawn_seeds(5, 3)


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

    def test_repeated_label_column_named(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_name,a,a,b\nx,0.1,0.2,0.3\n")
        with pytest.raises(DataError) as err:
            load_probs(path, LabelVocabulary(names=("a", "b")))
        assert str(err.value) == (
            f"{path}: header does not match vocabulary: repeated column(s) ['a']"
        )

    def test_inferred_vocabulary_is_the_header_in_file_order(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_name,c,a,b\nx,0.3,0.1,0.2\ny,1,0,0.5\n")
        ids, probs = load_probs(path, "infer")
        assert probs.vocab == LabelVocabulary(names=("c", "a", "b"), weather_count=0)
        given_ids, given = load_probs(path, probs.vocab)
        assert ids == given_ids == ["x", "y"]
        assert probs.values.tobytes() == given.values.tobytes()

    @pytest.mark.parametrize("header,message", [
        ("image_name,a,a", "label names must be unique"),
        ("image_name,a,,b", "label names must be non-empty"),
        ("image_name", "vocabulary must contain at least one label"),
    ])
    def test_inferred_vocabulary_refuses_a_bad_header(self, tmp_path, header, message):
        path = tmp_path / "p.csv"
        cells = ",0.5" * header.count(",")
        path.write_text(f"{header}\nx{cells}\n")
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: {message}") + "$"):
            load_probs(path, "infer")

    def test_vocab_string_other_than_infer_refused(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_name,a\nx,0.5\n")
        with pytest.raises(ValueError, match="LabelVocabulary or the string 'infer'"):
            load_probs(path, "amazon")


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

    def test_missing_npy_is_a_data_error_naming_it(self, tmp_path):
        """A missing .npy used to raise a bare FileNotFoundError."""
        path = tmp_path / "missing.npy"
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: [Errno 2]")):
            load_features(path)

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
