"""The shared-reader CSV loaders against the per-format loaders they
replaced (reference_csv.py): valid files load to the same ids and
byte-identical arrays, malformed files are rejected by both, and the new
error names the file and the line of the bad row."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_csv as ref
from canopy.data import DataError, LabelVocabulary, load_features, load_probs, load_tags
from canopy.splits import load_folds
from canopy.thresholds import load_thresholds

VOCAB = LabelVocabulary(names=("a", "b", "c"))

# (new, reference) loader pairs, each returning (ids or None, array)
LOADERS = {
    "tags": (
        lambda p: _matrix(load_tags(p, VOCAB)),
        lambda p: _matrix(ref.load_tags(p, VOCAB)),
    ),
    "tags-infer": (
        lambda p: _matrix(load_tags(p, "infer")),
        lambda p: _matrix(ref.load_tags(p, "infer")),
    ),
    "probs": (
        lambda p: _matrix(load_probs(p, VOCAB)),
        lambda p: _matrix(ref.load_probs(p, VOCAB)),
    ),
    "features": (
        lambda p: _matrix(load_features(p)),
        lambda p: _matrix(ref.load_features(p)),
    ),
    "folds": (
        lambda p: _folds(load_folds(p)),
        lambda p: _folds(ref.load_folds(p)),
    ),
    "thresholds": (
        lambda p: (None, load_thresholds(p, VOCAB)),
        lambda p: (None, ref.load_thresholds(p, VOCAB)),
    ),
}


def _matrix(loaded):
    ids, matrix = loaded
    return ids, matrix.values


def _folds(loaded):
    ids, folds = loaded
    return ids, folds.fold_of


def outcome(load, path):
    """Everything a caller can observe: ids, dtype, shape and bytes."""
    try:
        ids, values = load(path)
    except DataError:
        return "DataError"
    return ids, values.dtype.str, values.shape, values.tobytes()


# -- file models: header cells and rows of cells, the key first ------------

keys = st.lists(st.integers(0, 99), min_size=1, max_size=6, unique=True).map(
    lambda ns: [f"s{n}" if n % 3 else f"ñ{n}" for n in ns]
)
unit_numbers = st.one_of(
    st.floats(0, 1).map(repr),
    st.floats(0, 1).map(lambda x: "%.6f" % x),
    st.floats(0, 1).map(lambda x: "%e" % x),
    st.sampled_from(["1e-3", "-0", "1", "0", "1.", ".5", "+0.25", "1E-1", "-0.0"]),
)
real_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e-3", "-0", "1", "-12", "1_000", "1e308", "-.5"]),
)


@st.composite
def probs_model(draw):
    labels = draw(st.permutations(VOCAB.names))
    rows = [[k] + [draw(unit_numbers) for _ in labels] for k in draw(keys)]
    return ["image_name", *labels], rows


@st.composite
def features_model(draw):
    names = [f"f{j}" for j in range(draw(st.integers(0, 3)))]
    rows = [[k] + [draw(real_numbers) for _ in names] for k in draw(keys)]
    return ["image_name", *names], rows


@st.composite
def tags_model(draw):
    def cell():
        tags = draw(st.lists(st.sampled_from(VOCAB.names), max_size=4))
        return draw(st.sampled_from([" ", "  "])).join(tags)

    return ["image_name", "tags"], [[k, cell()] for k in draw(keys)]


@st.composite
def folds_model(draw):
    k = draw(st.integers(2, 3))
    ids = draw(keys.filter(lambda ids: len(ids) >= k))
    folds = draw(st.permutations([i % k for i in range(len(ids))]))
    forms = st.sampled_from(["{}", "+{}", "0{}"])
    return ["image_name", "fold"], [[s, draw(forms).format(f)] for s, f in zip(ids, folds)]


@st.composite
def thresholds_model(draw):
    # a label outside the vocabulary is ignored by both loaders
    extra = ("zz",) if draw(st.booleans()) else ()
    labels = draw(st.permutations(VOCAB.names + extra))
    return ["label", "threshold"], [[label, draw(unit_numbers)] for label in labels]


MODELS = {
    "tags": tags_model(),
    "tags-infer": tags_model(),
    "probs": probs_model(),
    "features": features_model(),
    "folds": folds_model(),
    "thresholds": thresholds_model(),
}


def render(draw, header, rows):
    """File text with padded or quoted cells, blank lines before, between
    and after the rows, and LF or CRLF endings; plus each row's line."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.sampled_from(["", " ", "\t"])

    def cell(text):
        text = draw(pad) + text + draw(pad)
        return f'"{text}"' if draw(st.booleans()) else text

    lines = [] if header is None else [",".join(cell(c) for c in header)]
    row_lines = []
    for i in range(len(rows) + 1):
        lines += draw(st.lists(st.sampled_from(["", " "]), max_size=2))
        if i < len(rows):
            lines.append(",".join(cell(c) for c in rows[i]))
            row_lines.append(len(lines))
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), row_lines


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "file.csv"


def write(path, draw, header, rows):
    text, row_lines = render(draw, header, rows)
    path.write_bytes(text.encode("utf-8"))
    return row_lines


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(sorted(MODELS)))
def test_valid_files_load_identically(path, data, fmt):
    header, rows = data.draw(MODELS[fmt])
    write(path, data.draw, header, rows)
    new, old = LOADERS[fmt]
    assert outcome(new, path) == outcome(old, path)


VALUE_DEFECTS = {"non-numeric": "x1", "nan": "nan", "inf": "-inf", "out of range": "1.5"}
DEFECTS = {
    "tags": ("width", "no header", "wrong header", "unknown label"),
    "probs": (*VALUE_DEFECTS, "width", "no header", "wrong header"),
    "features": ("non-numeric", "nan", "inf", "width", "no header", "wrong header"),
    "folds": ("non-numeric", "nan", "inf", "width", "no header", "wrong header"),
    "thresholds": (*VALUE_DEFECTS, "width", "no header", "wrong header"),
}
CASES = st.sampled_from([(fmt, defect) for fmt, ds in DEFECTS.items() for defect in ds])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), case=CASES)
def test_malformed_files_rejected_by_both(path, data, case):
    fmt, defect = case
    header, rows = data.draw(MODELS[fmt])
    r = data.draw(st.integers(0, len(rows) - 1))
    row = rows[r]
    if defect in VALUE_DEFECTS:
        if len(row) < 2:  # a feature file with no feature columns
            return
        row[data.draw(st.integers(1, len(row) - 1))] = VALUE_DEFECTS[defect]
    elif defect == "width":
        rows[r] = row[:-1] if len(row) > 1 and data.draw(st.booleans()) else row + ["0"]
    elif defect == "no header":
        header = None
    elif defect == "wrong header":
        header[0] = "name"
    elif defect == "unknown label":
        row[1] += " zz"
    row_lines = write(path, data.draw, header, rows)
    new, old = LOADERS[fmt]
    with pytest.raises(DataError):
        old(path)
    with pytest.raises(DataError) as err:
        new(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ")
    assert "\n" not in message
    if "header" not in defect:
        assert f": row {row_lines[r]}: " in message


@settings(max_examples=100, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(sorted(DEFECTS)), duplicate=st.booleans())
def test_duplicate_or_empty_key_rejected(path, data, fmt, duplicate):
    """The one place the new loaders may reject more than the old ones."""
    header, rows = data.draw(MODELS[fmt])
    r = data.draw(st.integers(0, len(rows) - 1))
    if duplicate:
        rows.insert(r + 1, list(rows[r]))
        r += 1
    elif len(rows[r]) > 1:  # a lone empty key would be a blank line
        rows[r][0] = ""
    else:
        return
    row_lines = write(path, data.draw, header, rows)
    with pytest.raises(DataError, match="duplicate" if duplicate else "empty") as err:
        LOADERS[fmt][0](path)
    assert f"{path}: row {row_lines[r]}: " in str(err.value)
