"""The CSV writers: probability cells from the vectorized kernel against the
per-row ``%`` writer it replaced (reference_csv.py), the round trip through
load_probs, threshold cells, and the checks that keep every written key and
label name readable as itself."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_csv as ref
from canopy.data import (
    FLOAT_FMT,
    DataError,
    LabelMatrix,
    LabelVocabulary,
    ProbMatrix,
    format_rows,
    load_probs,
    load_tags,
    make_rng,
    save_probs,
    save_tags,
)
from canopy.splits import FoldAssignment, load_folds, save_folds
from canopy.thresholds import load_thresholds, save_thresholds


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("writers") / "file.csv"


def vocab_of(width):
    return LabelVocabulary(names=tuple(f"l{j}" for j in range(width)))


def same_bytes(path, ids, probs):
    """save_probs and the old per-row writer give the same file."""
    save_probs(path, ids, probs)
    old = path.with_name("old.csv")
    ref.save_probs(old, ids, probs)
    return path.read_bytes() == old.read_bytes()


# -- entries: where round-half-even of the exact binary value is hard to get

def half_way_neighbour(j, step):
    """(j + 0.5) / 1e6 or one of its nearest float64 neighbours, where v * 1e6
    can round onto the half-integer j + 0.5 while the exact product lies off it."""
    v = (j + 0.5) / 1e6
    for _ in range(abs(step)):
        v = float(np.nextafter(v, 2.0 if step > 0 else 0.0))
    return v


def tie_neighbour(k, step):
    """k / 128 (an exact tie: k * 7812.5) or one of its float64 neighbours."""
    v = k / 128
    for _ in range(abs(step)):
        v = float(np.nextafter(v, 2.0 if step > 0 else -1.0))
    return v if 0.0 <= v <= 1.0 else k / 128


entries = st.one_of(
    st.floats(0, 1),
    st.builds(tie_neighbour, st.integers(0, 128), st.integers(-2, 2)),
    st.builds(half_way_neighbour, st.integers(0, 999_999), st.integers(-2, 2)),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310, 5e-7, 0.9999995]),
)
# keys that read back as themselves, non-ASCII among them
keys = st.text(alphabet="aZ0_ ñ-", min_size=1, max_size=5).filter(lambda s: s == s.strip())


@st.composite
def prob_files(draw):
    """(ids, ProbMatrix) with 0 to 12 rows, as C, Fortran or sliced arrays."""
    n, width = draw(st.integers(0, 12)), draw(st.integers(1, 5))
    layout = draw(st.sampled_from(["C", "F", "sliced"]))
    shape = (2 * n, 2 * width) if layout == "sliced" else (n, width)
    cells = draw(st.lists(entries, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    values = np.array(cells, dtype=np.float64).reshape(shape)
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "sliced":
        values = values[1::2, ::-2]
    ids = draw(st.lists(keys, min_size=n, max_size=n, unique=True))
    return ids, ProbMatrix(values=values, vocab=vocab_of(width))


@settings(max_examples=300, deadline=None)
@given(case=prob_files())
def test_probability_writer_matches_its_old_code(path, case):
    assert same_bytes(path, *case)


def printed(values):
    """float(FLOAT_FMT % v) for every entry, as float64."""
    return np.array([float(FLOAT_FMT % v) for v in values.ravel()]).reshape(values.shape)


@settings(max_examples=200, deadline=None)
@given(case=prob_files())
def test_probability_file_round_trip(path, case):
    """Loading gives float(FLOAT_FMT % v) bit for bit, and writing what was
    loaded gives the same bytes again."""
    ids, probs = case
    save_probs(path, ids, probs)
    first = path.read_bytes()
    got_ids, loaded = load_probs(path, probs.vocab)
    assert got_ids == ids
    assert loaded.values.tobytes() == printed(probs.values).tobytes()
    save_probs(path, got_ids, loaded)
    assert path.read_bytes() == first


def test_ties_at_k_over_128_and_their_neighbours(path):
    """Every k/128 is an exact tie of v * 1e6, which rounds half to even;
    its float64 neighbours lie just off the tie on either side."""
    values = np.array([tie_neighbour(k, s) for k in range(129) for s in range(-2, 3)])
    probs = ProbMatrix(values=values.reshape(-1, 5), vocab=vocab_of(5))
    assert same_bytes(path, [f"k{i}" for i in range(129)], probs)


def test_every_half_way_point_and_its_neighbours(path):
    """All 10**6 values (j + 0.5) / 1e6 in [0, 1] and both float64 neighbours."""
    mid = (np.arange(1_000_000) + 0.5) / 1e6
    values = np.stack([np.nextafter(mid, 0.0), mid, np.nextafter(mid, 2.0)], axis=1)
    probs = ProbMatrix(values=values.reshape(-1, 15), vocab=vocab_of(15))
    assert same_bytes(path, [f"r{i}" for i in range(len(probs.values))], probs)


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_block_boundaries(path, n):
    rng = make_rng(n)
    values = rng.random((n, 4))
    values[rng.random((n, 4)) < 0.1] = -0.0
    values[rng.random((n, 4)) < 0.1] = 1.0
    ids = [f"id{'x' * (i % 7)}{i}" for i in range(n)]  # keys of several widths
    assert same_bytes(path, ids, ProbMatrix(values=values, vocab=vocab_of(4)))


def test_rows_of_a_strided_view():
    big = make_rng(1).random((9, 8))
    view = big[1::3, ::-2]
    want = "".join(f"k{i}" + "".join("," + FLOAT_FMT % v for v in row) + "\n"
                   for i, row in enumerate(view.tolist()))
    assert format_rows([f"k{i}" for i in range(3)], view) == want.encode()


def test_negative_zero_keeps_its_sign(path):
    probs = ProbMatrix(values=np.array([[-0.0, 0.0, 1.0]]), vocab=vocab_of(3))
    save_probs(path, ["x"], probs)
    assert path.read_text().splitlines()[1] == "x,-0.000000,0.000000,1.000000"


# -- threshold files -----------------------------------------------------------


def test_threshold_cells_are_the_printed_values(path):
    cutoffs = np.array([0.0, -0.0, 1.0, 5e-324, 1 / 128, half_way_neighbour(41, 1), 0.1234565])
    vocab = vocab_of(len(cutoffs))
    save_thresholds(path, vocab, cutoffs)
    want = "".join(f"{name},{FLOAT_FMT % t}\n" for name, t in zip(vocab.names, cutoffs))
    assert path.read_text() == "label,threshold\n" + want
    assert load_thresholds(path, vocab).tobytes() == printed(cutoffs).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.2])
def test_threshold_writer_refuses_a_cutoff_outside_the_unit_interval(tmp_path, bad):
    target = tmp_path / "th.csv"
    with pytest.raises(ValueError, match=r"for label 'l1' is not a finite number in \[0, 1\]"):
        save_thresholds(target, vocab_of(3), [0.5, bad, 0.5])
    assert not target.exists()


# -- keys: every writer refuses an id that would not read back as itself ------

WRITERS = {
    "probs": lambda p, ids: save_probs(
        p, ids, ProbMatrix(values=np.full((len(ids), 2), 0.5), vocab=vocab_of(2))
    ),
    "tags": lambda p, ids: save_tags(
        p, ids, LabelMatrix(values=np.ones((len(ids), 2)), vocab=vocab_of(2))
    ),
    "folds": lambda p, ids: save_folds(
        p, ids, FoldAssignment(fold_of=np.arange(len(ids)) % 2, k=2)
    ),
}
BAD_IDS = {
    "comma": (["a,b", "c"], "'a,b' holds ','"),
    "quote": (['"q"', "c"], "'\"q\"' holds '\"'"),
    "quote inside": (['a"b', "c"], "'a\"b' holds '\"'"),
    "CR": (["c", "a\rb"], r"'a\\rb' holds '\\r'"),
    "LF": (["c", "a\nb"], r"'a\\nb' holds '\\n'"),
    "NUL": (["c", "a\0b"], r"'a\\x00b' holds '\\x00'"),
    "spaces around": ([" c ", "d"], "' c ' has whitespace around it"),
    "tab after": (["c\t", "d"], r"'c\\t' has whitespace around it"),
    "duplicate": (["a", "b", "a"], "'a' repeats an earlier id"),
    "empty": (["a", ""], "'' is empty"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("case", sorted(BAD_IDS))
def test_writers_refuse_ids_that_do_not_read_back(tmp_path, writer, case):
    ids, message = BAD_IDS[case]
    target = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^id {message}, so it would not read back as written$"):
        WRITERS[writer](target, ids)
    assert not target.exists()


def test_first_bad_id_is_named(tmp_path):
    with pytest.raises(ValueError, match="^id 'b,' holds"):
        WRITERS["probs"](tmp_path / "out.csv", ["a", "b,", "a", ""])


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_written_ids_read_back(tmp_path, writer):
    ids = ["a b", "ñ-1", "x'y", "7", "\u00e9\u0301"]
    target = tmp_path / "out.csv"
    WRITERS[writer](target, ids)
    read = {
        "probs": lambda: load_probs(target, vocab_of(2))[0],
        "tags": lambda: load_tags(target, vocab_of(2))[0],
        "folds": lambda: load_folds(target)[0],
    }[writer]
    assert read() == ids


# -- label names: the vocabulary refuses names the files cannot carry ---------


@pytest.mark.parametrize(
    "name", ["a b", " a", "a ", "a\tb", "a\nb", "a\rb", "a\u00a0b", "a,b", '"a', "a\0b"]
)
def test_vocabulary_refuses_names_the_files_cannot_carry(name):
    with pytest.raises(ValueError, match="^" + re.escape(f"label name {name!r} holds")):
        LabelVocabulary(names=(name, "c"))


def test_names_the_files_can_carry_read_back(tmp_path):
    vocab = LabelVocabulary(names=('a"b', "ñ", "x'", "c_d-1"))
    ids = ["s0", "s1"]
    labels = LabelMatrix(values=np.array([[1, 1, 0, 1], [0, 1, 1, 0]]), vocab=vocab)
    save_tags(tmp_path / "t.csv", ids, labels)
    assert load_tags(tmp_path / "t.csv", vocab)[1].values.tolist() == labels.values.tolist()
    probs = ProbMatrix(values=np.array([[0.25, 0.5, 0.0, 1.0], [1.0, 0.0, 0.5, 0.75]]), vocab=vocab)
    save_probs(tmp_path / "p.csv", ids, probs)
    assert load_probs(tmp_path / "p.csv", vocab)[1].values.tolist() == probs.values.tolist()
    save_thresholds(tmp_path / "th.csv", vocab, [0.1, 0.2, 0.3, 0.4])
    assert load_thresholds(tmp_path / "th.csv", vocab).tolist() == [0.1, 0.2, 0.3, 0.4]


def test_cli_names_the_output_a_writer_refuses(tmp_path, capsys):
    """csv.reader keeps a quote inside an unquoted cell, so a read id can
    hold one; the fold writer refuses it, and the error names the file."""
    from canopy.cli import main

    tags = tmp_path / "tags.csv"
    tags.write_text('image_name,tags\ns0,a\nq"1,b\ns2,a b\ns3,b\n', encoding="utf-8")
    out = tmp_path / "folds.csv"
    assert main(["split", "--tags", str(tags), "--k", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"canopy split: error: {out}: id 'q\"1' holds '\"', so it would not read back as written"
    assert not out.exists()


def test_inferred_label_the_files_cannot_carry_names_the_file(tmp_path):
    tags = tmp_path / "tags.csv"
    tags.write_text('image_name,tags\ns0,"a,b c"\n', encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{tags}: label name 'a,b' holds")):
        load_tags(tags, "infer")
