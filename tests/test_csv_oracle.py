"""The shared-reader CSV loaders against the per-format loaders they
replaced (reference_csv.py): valid files load to the same ids and
byte-identical arrays, malformed files are rejected by both, and the new
error names the file and the line of the bad row. Files read in bulk
against the streaming reader: same table or same error text. Tag files
mapped once per distinct tags cell against the loop over rows, and the
writers against their old code: same matrix or error text, same bytes."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canopy.data
import reference_csv as ref
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
    read_table,
    save_probs,
    save_tags,
)
from canopy.splits import FoldAssignment, load_folds, save_folds
from canopy.thresholds import load_thresholds, save_thresholds

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


# -- numeric files: numpy's bulk reader against the streaming reader -------
#
# read_table reads probabilities, features and thresholds through one
# np.loadtxt call and falls back to streaming the file through csv.reader.
# reference_csv.read_table is the streaming reader as it was before; every
# file must give the same table (header, ids, lines and value bytes) or the
# same error text.

NUMERIC = {  # read_table's fixed header, width and bounds per format
    "probs": (("image_name",), None, (0.0, 1.0)),
    "features": (("image_name",), None, (-np.inf, np.inf)),
    "thresholds": (("label", "threshold"), 2, (0.0, 1.0)),
}


TEXT = {  # two-column text tables, read by str methods over the whole text
    "tags": (("image_name", "tags"), 2, None),
    "folds": (("image_name", "fold"), 2, None),
}
TABLES = {**NUMERIC, **TEXT}
TWO_COLUMN_HEADERS = {"thresholds": "label,threshold", "tags": "image_name,tags",
                      "folds": "image_name,fold"}


def table_outcome(read, path, fmt):
    try:
        t = read(path, *TABLES[fmt])
    except DataError as exc:
        return str(exc)
    values = t.values
    if fmt in TEXT:
        return t.header, t.ids, list(t.lines), values
    return t.header, t.ids, list(t.lines), values.dtype.str, values.shape, values.tobytes()


LIMIT = csv.field_size_limit()
HEADER = "image_name,a,b\n"
DIVERGENT = {  # where numpy's reader and csv.reader + float() could part
    "extra trailing cell": HEADER + "s1,0.1,0.2\ns2,0.3,0.4,0.5\n",
    "extra cell on every row": HEADER + "s1,0.1,0.2,0.3\ns2,0.3,0.4,0.5\n",
    "missing cell": HEADER + "s1,0.1\n",
    "# inside a key": HEADER + "s#1,0.1,0.2\n",
    "# inside a value": HEADER + "s1,0.1#,0.2\n",
    "# starting a row": HEADER + "#s1,0.1,0.2\n",
    "whitespace-only blank line": HEADER + "s1,0.1,0.2\n   \ns2,0.3,0.4\n",
    "tab-only blank line": HEADER + "s1,0.1,0.2\n\t\ns2,0.3,0.4\n",
    "empty line": HEADER + "\ns1,0.1,0.2\n\ns2,0.3,0.4\n\n",
    "quoted empty line": HEADER + 's1,0.1,0.2\n""\ns2,0.3,0.4\n',
    "bare CR endings": HEADER.replace("\n", "\r") + "s1,0.1,0.2\rs2,0.3,0.4\r",
    "CRLF endings": HEADER.replace("\n", "\r\n") + "s1,0.1,0.2\r\ns2,0.3,0.4\r\n",
    "CRLF header over LF rows": HEADER.replace("\n", "\r\n") + "s1,0.1,0.2\ns2,0.3,0.4\n",
    "LF rows with one CRLF line": HEADER + "s1,0.1,0.2\r\ns2,0.3,0.4\n",
    "space before an opening quote (value)": HEADER + 's1, "0.1",0.2\n',
    "space before an opening quote (key)": HEADER + ' "s1",0.1,0.2\n',
    "text after a closing quote": HEADER + '"s1" ,"0.1" ,0.2\n',
    "quote inside an unquoted cell": HEADER + 's"1",0."1",0.2\n',
    "doubled quote in a key": HEADER + '"s""1",0.1,0.2\n',
    "quoted numeric cell": HEADER + 's1,"0.1",0.2\ns2,0.3,0.4\n',
    "unterminated quote": HEADER + 's1,0.1,"0.2\n',
    "underscore digits": HEADER + "s1,0_1,0.2_5\n",
    "Arabic-Indic digit": HEADER + "s1,١,٠.٥\n",
    "full-width digit": HEADER + "s1,０.5,0.2\n",
    "NBSP padding": HEADER + "s1,\xa00.1\xa0,0.2\n",
    "vertical-tab padding": HEADER + "s1,\x0b0.1\x0b,0.2\n",
    "zero-width space": HEADER + "s1,\u200b0.1,0.2\n",
    "UTF-8 BOM": "\ufeff" + HEADER + "s1,0.1,0.2\n",
    "BOM inside a value": HEADER + "s1,\ufeff0.1,0.2\n",
    "header only": HEADER,
    "header only, no newline": HEADER.rstrip("\n"),
    "header then blank lines": HEADER + "\n \n",
    "empty file": "",
    "quoted key with a comma": HEADER + '"s,1",0.1,0.2\n',
    "key over two lines": HEADER + '"s\n1",0.1,0.2\ns2,0.3,0.4\n',
    "value over two lines": HEADER + 's1,"0.1\n",0.2\n',
    "NUL in a key": HEADER + "s\x001,0.1,0.2\n",
    "empty value": HEADER + "s1,,0.2\n",
    "empty key": HEADER + ",0.1,0.2\n",
    "duplicate key": HEADER + "s1,0.1,0.2\n s1 ,0.3,0.4\n",
    "nan": HEADER + "s1,0.1,nan\n",
    "infinity": HEADER + "s1,0.1,-Infinity\n",
    "overflow": HEADER + "s1,1e500,0.2\n",
    "out of range": HEADER + "s1,0.1,1.5\n",
    "negative zero": HEADER + "s1,-0,0.2\n",
    "hex float": HEADER + "s1,0x1p-1,0.2\n",
    "cell over the csv field limit": HEADER + "s1," + " " * 140_000 + "0.1,0.2\n",
    "line at the csv field limit": HEADER + "s1,0.1" + " " * (LIMIT - 10) + ",0.2\n",
    "line over the csv field limit": HEADER + "s1,0.1" + " " * (LIMIT - 9) + ",0.2\n",
    "lone key at the csv field limit": "image_name\n" + "s" * LIMIT + "\n",
    "lone key over the csv field limit": "image_name\n" + "s" * (LIMIT + 1) + "\n",
    "blank line in a one-column file": "image_name\ns1\n\ns2\n",
}


@pytest.mark.parametrize("fmt", sorted(TABLES))
@pytest.mark.parametrize("case", sorted(DIVERGENT))
def test_bulk_reader_matches_streaming_reader(path, case, fmt):
    text = DIVERGENT[case]
    if fmt in TWO_COLUMN_HEADERS:  # a two-column file of the same shape
        text = text.replace("image_name,a,b", TWO_COLUMN_HEADERS[fmt]).replace(",0.2", "")
    path.write_bytes(text.encode("utf-8"))
    assert table_outcome(read_table, path, fmt) == table_outcome(ref.read_table, path, fmt)


TWISTED_NUMBERS = ["1_000", "0_1", "١", "٠.٥", "0.5#", "#", " 0.5", '"0.5"x', "", "nan", "1e500"]
TWISTS = (
    "extra cell", "missing cell", "number", "# in key", "odd key",
    "blank lines", "bare CR", "space before quote", "odd padding", "BOM", "no rows",
)


@st.composite
def twisted_file(draw, fmt):
    """A file of ``fmt`` with up to three forms the two readers may treat
    differently, or none (then the bulk path must return the table)."""
    header, rows = draw(MODELS[fmt])
    twists = draw(st.sets(st.sampled_from(TWISTS), max_size=3))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if "extra cell" in twists:
        row.append(draw(unit_numbers))
    if "missing cell" in twists and len(row) > 1:
        row.pop()
    if "number" in twists and len(row) > 1:
        row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(TWISTED_NUMBERS))
    if "# in key" in twists:
        row[0] += "#"
    if "odd key" in twists:
        row[0] = draw(st.sampled_from(["s,1", "s 1", "s\n1", 's"1']))
    if "no rows" in twists:
        rows = []
    newline = "\r" if "bare CR" in twists else draw(st.sampled_from(["\n", "\r\n"]))
    pads = ["", " ", "\t"] + (["\xa0", "\x0b"] if "odd padding" in twists else [])
    quoting = ["none", "quoted"] + (["space before quote"] if "space before quote" in twists else [])

    def cell(text):
        text = draw(st.sampled_from(pads)) + text + draw(st.sampled_from(pads))
        how = draw(st.sampled_from(quoting))
        if how == "none":
            return text
        text = '"' + text.replace('"', '""') + '"'
        return text if how == "quoted" else " " + text

    lines = [",".join(cell(c) for c in header)]
    for r in rows:
        if "blank lines" in twists:
            lines += draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=1))
        lines.append(",".join(cell(c) for c in r))
    bom = "\ufeff" if "BOM" in twists else ""
    return bom + newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(sorted(NUMERIC)))
def test_bulk_reader_matches_streaming_reader_on_twisted_files(path, data, fmt):
    path.write_bytes(data.draw(twisted_file(fmt)).encode("utf-8"))
    assert table_outcome(read_table, path, fmt) == table_outcome(ref.read_table, path, fmt)


def refuse(*args):
    raise AssertionError("streaming reader called on a plain file")


def test_plain_probability_file_takes_the_bulk_path(path, monkeypatch):
    """A file as save_probs writes it never reaches the streaming reader."""
    ids = [f"s{i}" for i in range(50)]
    probs = ProbMatrix(values=make_rng(0).random((50, 3)), vocab=VOCAB)
    save_probs(path, ids, probs)
    monkeypatch.setattr(canopy.data, "_stream_table", refuse)
    got_ids, got = load_probs(path, VOCAB)
    assert got_ids == ids
    assert np.array_equal(got.values, np.round(probs.values, 6))


IDS = [f"s{i}" for i in range(50)]


def write_plain(fmt, path):
    """A 50-row file of ``fmt`` as canopy writes it."""
    rng = make_rng(0)
    if fmt == "tags":
        save_tags(path, IDS, LabelMatrix(values=rng.random((50, 3)) < 0.4, vocab=VOCAB))
    elif fmt == "probs":
        save_probs(path, IDS, ProbMatrix(values=rng.random((50, 3)), vocab=VOCAB))
    elif fmt == "folds":
        save_folds(path, IDS, FoldAssignment(fold_of=rng.permutation(np.arange(50) % 4), k=4))
    elif fmt == "thresholds":
        save_thresholds(path, VOCAB, rng.random(3))
    else:  # features, which canopy reads but never writes: repr keeps every float
        rows = rng.normal(scale=1e3, size=(50, 4)).tolist()
        path.write_text("image_name,f0,f1,f2,f3\n" + "".join(
            f"{key}," + ",".join(map(repr, row)) + "\n" for key, row in zip(IDS, rows)))


@pytest.mark.parametrize("newline", ["LF", "CRLF"])
@pytest.mark.parametrize("fmt", ["tags", "probs", "features", "folds", "thresholds"])
def test_plain_file_of_every_kind_takes_the_bulk_path(path, monkeypatch, fmt, newline):
    """A file as canopy writes it, with LF or CRLF endings, never reaches
    the streaming reader and loads as the reference loader loads it."""
    write_plain(fmt, path)
    if newline == "CRLF":
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    new, old = LOADERS[fmt]
    expected = outcome(old, path)
    monkeypatch.setattr(canopy.data, "_stream_table", refuse)
    assert outcome(new, path) == expected != "DataError"


def test_numeric_read_holds_one_copy_of_the_file(path, monkeypatch):
    """At the Amazon training set's size (40,479 x 17), a probability read
    peaks at under 3.3 times the file's size: the file's bytes, the parsed
    array (0.87) and the keys. A decoded copy of the text would add about
    1.0, and reading through a StringIO about 4."""
    n = 40_479
    probs = ProbMatrix(values=make_rng(0).random((n, 17)), vocab=AMAZON_LABELS)
    save_probs(path, [f"train_{i}" for i in range(n)], probs)
    monkeypatch.setattr(canopy.data, "_stream_table", refuse)
    tracemalloc.start()
    try:
        read_table(path, ("image_name",), bounds=(0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / path.stat().st_size < 3.3


# -- text files: str methods over the whole text against the streaming reader
#
# read_table reads tag and fold files by splitting the whole text at line
# ends and at commas, and falls back to the streaming reader wherever
# csv.reader could split it otherwise. The cases above run on both formats;
# these add what only that split can get wrong.

TAGS_HEADER = "image_name,tags\n"
TEXT_DIVERGENT = {
    "no final newline": TAGS_HEADER + "s1,a\ns2,b",
    "no final newline after a line without a comma": TAGS_HEADER + "s1,a\ns2",
    "third header cell": "image_name,tags,x\ns1,a\n",
    "one header cell": "image_name\ns1,a\n",
    "comma-only line": TAGS_HEADER + "s1,a\n,\n",
    "bare CR inside a cell": TAGS_HEADER + "s1,a\rb\n",
    "CRLF on the last line only": TAGS_HEADER + "s1,a\ns2,b\r\n",
    "quote inside a cell": TAGS_HEADER + 's1,a"b\n',
    "quoted cell": TAGS_HEADER + 's1,"a b"\n',
    "NUL in a cell": TAGS_HEADER + "s1,a\x00\n",
    "line breaks only str.splitlines sees": TAGS_HEADER + "s1,\x0ca\u2028\n\x1cs2\x85,b\x0b\n",
    "cell at the csv field limit": TAGS_HEADER + "s1," + "a" * LIMIT + "\n",
    "cell over the csv field limit": TAGS_HEADER + "s1," + "a" * (LIMIT + 1) + "\n",
    "key over the csv field limit": TAGS_HEADER + "s" * (LIMIT + 1) + ",a\n",
    "header cell over the csv field limit": f"image_name,tags,{'x' * (LIMIT + 1)}\ns1,a\n",
    "invalid UTF-8 past the first read chunk":
        (TAGS_HEADER + "".join(f"s{i},a\n" for i in range(2000))).encode() + b"s,\xff\n",
    "encoded surrogate": TAGS_HEADER.encode() + b"s1,\xed\xa0\x80\n",
}


@pytest.mark.parametrize("fmt", sorted(TEXT))
@pytest.mark.parametrize("case", sorted(TEXT_DIVERGENT))
def test_text_reader_matches_streaming_reader(path, case, fmt):
    text = TEXT_DIVERGENT[case]
    if isinstance(text, str):
        text = text.encode("utf-8")
    path.write_bytes(text.replace(b"image_name,tags", TWO_COLUMN_HEADERS[fmt].encode()))
    assert table_outcome(read_table, path, fmt) == table_outcome(ref.read_table, path, fmt)


def test_text_reader_keeps_the_header_width(path):
    """Without ``width``, a row needs as many cells as the header."""
    path.write_text("image_name,a,b\ns1,x\n")
    args = (("image_name",), None, None)
    assert str(pytest.raises(DataError, read_table, path, *args).value) == str(
        pytest.raises(DataError, ref.read_table, path, *args).value
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(sorted(TEXT)))
def test_text_reader_matches_streaming_reader_on_twisted_files(path, data, fmt):
    path.write_bytes(data.draw(twisted_file(fmt)).encode("utf-8"))
    assert table_outcome(read_table, path, fmt) == table_outcome(ref.read_table, path, fmt)


# -- tag files: each distinct tags cell mapped once against the row loop ------

TAG_CELLS = ["", "a", "b c", "c  a", "a\tb", "b \t c", "a a", "zz", "a zz b", "yy zz", "b yy"]


def tags_outcome(load, path, vocab):
    try:
        ids, labels = load(path, vocab)
    except DataError as exc:
        return str(exc)
    values = labels.values
    return ids, labels.vocab.names, values.dtype.str, values.shape, values.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(st.sampled_from(TAG_CELLS), min_size=1, max_size=12),
    blank=st.booleans(),
    vocab=st.sampled_from([VOCAB, "infer"]),
)
def test_tag_cells_mapped_once_match_the_row_loop(path, cells, blank, vocab):
    """Repeated cells, tabs and runs of spaces between tags, empty cells,
    and unknown labels (zz, yy) whose cell repeats; a blank line sends the
    file to the streaming reader and moves the later rows' line numbers."""
    lines = ["image_name,tags", *(f"s{i},{cell}" for i, cell in enumerate(cells))]
    if blank:
        lines.insert(2, "")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = tags_outcome(load_tags, path, vocab)
    assert got == tags_outcome(ref.load_tags_by_row, path, vocab)


def test_unknown_label_named_at_the_first_row_of_its_repeated_cell(path):
    path.write_text("image_name,tags\ns1,a b\ns2,a\ns3,b yy zz\ns4,a\ns5,b yy zz\ns6,zz\n")
    with pytest.raises(DataError) as err:
        load_tags(path, VOCAB)
    assert str(err.value) == f"{path}: row 4: unknown label 'yy'"


def test_plain_tag_file_takes_the_bulk_path(path, monkeypatch):
    """A file as save_tags writes it never reaches the streaming reader."""
    ids = [f"s{i}" for i in range(50)]
    labels = LabelMatrix(values=make_rng(0).random((50, 3)) < 0.4, vocab=VOCAB)
    save_tags(path, ids, labels)
    monkeypatch.setattr(canopy.data, "_stream_table", refuse)
    for vocab in (VOCAB, "infer"):
        got_ids, got = load_tags(path, vocab)
        assert got_ids == ids
        assert np.array_equal(got.values, labels.values)


def test_plain_fold_file_takes_the_bulk_path(path, monkeypatch):
    """A file as save_folds writes it never reaches the streaming reader."""
    ids = [f"s{i}" for i in range(50)]
    folds = FoldAssignment(fold_of=make_rng(0).permutation(np.arange(50) % 4), k=4)
    save_folds(path, ids, folds)
    monkeypatch.setattr(canopy.data, "_stream_table", refuse)
    got_ids, got = load_folds(path)
    assert got_ids == ids
    assert np.array_equal(got.fold_of, folds.fold_of) and got.k == 4


# -- writers against their old code ------------------------------------------

# ids the writers accept: unique, no whitespace around them
sample_ids = st.text(alphabet="aZ0_ ñ-", min_size=1, max_size=5).filter(lambda s: s == s.strip())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 25), width=st.integers(1, 5), fortran=st.booleans())
def test_tag_writer_matches_its_old_code(path, data, n, width, fortran):
    cells = data.draw(st.lists(st.integers(0, 1), min_size=n * width, max_size=n * width))
    values = np.array(cells, dtype=np.int8).reshape(n, width)
    vocab = LabelVocabulary(names=tuple(f"l{j}" for j in range(width)))
    labels = LabelMatrix(values=np.asfortranarray(values) if fortran else values, vocab=vocab)
    ids = data.draw(st.lists(sample_ids, min_size=n, max_size=n, unique=True))
    save_tags(path, ids, labels)
    ref.save_tags(path.with_name("old.csv"), ids, labels)
    assert path.read_bytes() == path.with_name("old.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(2, 5), extra=st.integers(0, 20))
def test_fold_writer_matches_its_old_code(path, data, k, extra):
    fold_of = data.draw(st.permutations([i % k for i in range(k + extra)]))
    folds = FoldAssignment(fold_of=np.array(fold_of), k=k)
    ids = data.draw(st.lists(sample_ids, min_size=k + extra, max_size=k + extra, unique=True))
    save_folds(path, ids, folds)
    ref.save_folds(path.with_name("old.csv"), ids, folds)
    assert path.read_bytes() == path.with_name("old.csv").read_bytes()
