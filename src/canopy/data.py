"""Shared data model: label vocabulary, matrices, tag/probability CSV I/O, seeded RNG.

All container types are immutable after construction (arrays are set
read-only) and safe to share across threads. Randomness everywhere in the
package flows through :func:`make_rng` / :func:`spawn_seeds`, which pin the
generator to numpy's PCG64 so a fixed seed reproduces bit-identical
sequences on the same build.
"""

from __future__ import annotations

import csv
import itertools
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from tokenize import TokenError
from typing import Iterator, NamedTuple, Sequence, TextIO

import numpy as np

FLOAT_FMT = "%.6f"  # all emitted floats carry 6 decimals


class DataError(Exception):
    """Malformed or inconsistent input data (bad CSV, unknown label, ...)."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single PRNG used across the package."""
    return np.random.default_rng(int(seed))


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive n independent child seeds deterministically from one seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(int(seed)).spawn(n)]


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered label names; the first ``weather_count`` are mutually exclusive.

    weather_count = 0 disables the exclusivity convention entirely.
    """

    names: tuple[str, ...]
    weather_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if not self.names:
            raise ValueError("vocabulary must contain at least one label")
        if any(not n for n in self.names):
            raise ValueError("label names must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("label names must be unique")
        if not 0 <= self.weather_count <= len(self.names):
            raise ValueError(f"weather_count must be in [0, {len(self.names)}]")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown label {name!r}") from None


#: Canonical 17-label Amazon rainforest scene vocabulary: 4 mutually
#: exclusive atmospheric labels followed by 13 ground labels.
AMAZON_LABELS = LabelVocabulary(
    names=(
        "clear",
        "cloudy",
        "haze",
        "partly_cloudy",
        "agriculture",
        "artisinal_mine",
        "bare_ground",
        "blooming",
        "blow_down",
        "conventional_mine",
        "cultivation",
        "habitation",
        "primary",
        "road",
        "selective_logging",
        "slash_burn",
        "water",
    ),
    weather_count=4,
)


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LabelMatrix:
    """Binary n_samples x n_labels assignment matrix tied to a vocabulary."""

    values: np.ndarray
    vocab: LabelVocabulary

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError("label matrix must be 2-D")
        if v.shape[1] != len(self.vocab):
            raise ValueError(
                f"label matrix has {v.shape[1]} columns, vocabulary has {len(self.vocab)}"
            )
        if v.dtype != np.int8:
            if not np.isin(np.asarray(v, dtype=float), (0.0, 1.0)).all():
                raise ValueError("label matrix entries must be exactly 0 or 1")
            v = v.astype(np.int8)
        elif not np.isin(v, (0, 1)).all():
            raise ValueError("label matrix entries must be exactly 0 or 1")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_labels(self) -> int:
        return self.values.shape[1]

    def as_bool(self) -> np.ndarray:
        return self.values.astype(bool)


@dataclass(frozen=True)
class ProbMatrix:
    """Real n_samples x n_labels score matrix with entries in [0, 1]."""

    values: np.ndarray
    vocab: LabelVocabulary

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("probability matrix must be 2-D")
        if v.shape[1] != len(self.vocab):
            raise ValueError(
                f"probability matrix has {v.shape[1]} columns, vocabulary has {len(self.vocab)}"
            )
        if not np.isfinite(v).all():
            raise ValueError("probability matrix entries must be finite")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("probability matrix entries must lie in [0, 1]")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_labels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FeatureMatrix:
    """Rectangular real-valued feature matrix with optional column names."""

    values: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if not np.isfinite(v).all():
            raise ValueError("feature matrix entries must be finite")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != v.shape[1]:
                raise ValueError("feature_names length must match column count")
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def validate_weather_block(labels: LabelMatrix) -> None:
    """Raise DataError unless every row has exactly one weather label set."""
    wc = labels.vocab.weather_count
    if wc == 0:
        return
    sums = labels.values[:, :wc].sum(axis=1)
    bad = np.nonzero(sums != 1)[0]
    if bad.size:
        raise DataError(
            f"row {bad[0]} has {int(sums[bad[0]])} weather labels set, expected exactly 1"
        )


# ---------------------------------------------------------------------------
# CSV input. Every canopy CSV (tags, probabilities, features, folds,
# thresholds) is UTF-8, starts with a header whose first cells are fixed,
# and has one row per key; read_table makes every check they share.
# ---------------------------------------------------------------------------


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle that keeps line endings as written; open, decode
    and CSV errors (such as a field over the csv module's size limit) become
    a DataError naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc})") from exc


@contextmanager
def open_csv(path: str | Path) -> Iterator[Iterator[list[str]]]:
    """A csv.reader over :func:`open_text`."""
    with open_text(path) as fh:
        yield csv.reader(fh)


def load_npy(path: str | Path, build):
    """``build(array)`` for the array in an .npy file; a file that holds no
    array (a damaged header makes numpy raise SyntaxError or TokenError), or
    one ``build`` rejects, is a DataError naming the file."""
    try:
        arr = np.load(path)
        if not isinstance(arr, np.ndarray):
            arr.close()
            raise ValueError("an .npz archive, not an .npy array")
        return build(arr)
    except (ValueError, TypeError, EOFError, SyntaxError, TokenError) as exc:
        raise DataError(f"{path}: {exc}") from None


def save_json(path: str | Path, fmt: str, version: int, body: dict) -> None:
    """Write ``body`` as one JSON object after its ``format``/``version`` header."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": fmt, "version": version, **body}, fh)


def load_json(path: str | Path, fmt: str, version: int, build):
    """``build(document)`` for a JSON object written by :func:`save_json` with
    this header. Invalid JSON or UTF-8, another header, a missing key, a value
    of the wrong type, or anything ``build`` rejects is a ValueError that
    starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != fmt:
            raise ValueError(f"not a {fmt} file")
        if doc.get("version") != version:
            what = fmt.rsplit("-", 1)[-1]  # "canopy-model" -> "model"
            raise ValueError(f"unsupported {what} version {doc.get('version')}")
        return build(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError, AttributeError, IndexError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


class Table(NamedTuple):
    """The rows of one keyed CSV file, in file order."""

    header: list[str]
    ids: list[str]
    lines: array  # file line number of each row, for error messages
    values: np.ndarray | list[str]


def read_table(
    path: str | Path,
    fixed: tuple[str, ...],
    width: int | None = None,
    bounds: tuple[float, float] | None = None,
) -> Table:
    """Read a CSV whose stripped header starts with ``fixed``.

    Blank lines are skipped. Every other row has ``width`` cells (default:
    the header's width), and its stripped first cell is a non-empty key
    unique in the file. With ``bounds=(lo, hi)``, ``values`` is a float64
    (rows, width - 1) array of the other cells, parsed as ``float()`` parses
    them and required finite and in [lo, hi]; without, it lists each row's
    stripped second cell. Errors name the file and the line of the offending
    row.

    A numeric table is read in bulk by numpy's C reader. A file the bulk
    read refuses or whose result fails a check is streamed again by
    :func:`_stream_table`, which raises the error naming its first bad row,
    or returns the table for the forms only ``float()`` accepts (``1_000``,
    non-ASCII digits).
    """
    if bounds is not None:
        table = _bulk_table(path, fixed, width, bounds)
        if table is not None:
            return table
    return _stream_table(path, fixed, width, bounds)


def _bulk_table(
    path: str | Path, fixed: tuple[str, ...], width: int | None, bounds: tuple[float, float]
) -> Table | None:
    """A numeric table through one ``np.loadtxt`` over the file handle, or
    None unless the streaming reader would return the same table.

    loadtxt splits cells as csv.reader does (a quote opens a quoted cell
    only at its start, doubled quotes escape, a bare CR ends a line), and
    its float parser accepts a subset of ``float()`` with the same
    whitespace stripping. The rest is checked on the whole result: the row
    width (loadtxt refuses rows of differing widths, so only the first is
    compared), the keys, the bounds, and one row per physical line. That
    last check sends blank lines and rows over several lines to the
    streaming reader, as does a line long enough to hold a cell over csv's
    size limit, which that reader rejects.
    """
    limit = csv.field_size_limit()
    keys: list[str] = []
    n_lines = 0

    def counted(lines):
        nonlocal n_lines
        for n_lines, line in enumerate(lines, 1):
            if len(line) > limit:
                raise ValueError("line longer than the csv field limit")
            yield line

    def key(cell: str) -> float:  # called on each row's first cell, in order
        keys.append(cell.strip())
        return 0.0

    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = [c.strip() for c in next(reader, [])]
        # no row (loadtxt would warn on an empty input) or a blank first line
        first = next(fh, "")
        if header[: len(fixed)] != list(fixed) or not first.strip():
            return None
        try:
            rows = np.loadtxt(
                counted(itertools.chain([first], fh)),
                delimiter=",",
                quotechar='"',
                comments=None,
                dtype=np.float64,
                converters={0: key},
                encoding="utf-8",  # str to the converter; numpy 1.x defaults to bytes
                ndmin=2,
            )
        except ValueError:
            return None
    n = len(keys)
    if rows.shape != (n, width or len(header)) or n_lines != n:
        return None
    if not all(keys) or len(set(keys)) != n:
        return None
    lo, hi = bounds
    values = rows[:, 1:]
    if not (np.isfinite(values) & (values >= lo) & (values <= hi)).all():
        return None
    start = reader.line_num + 1
    return Table(header, keys, array("l", range(start, start + n)), values)


def _stream_table(
    path: str | Path,
    fixed: tuple[str, ...],
    width: int | None,
    bounds: tuple[float, float] | None,
) -> Table:
    """:func:`read_table` one csv.reader row at a time: the reader of tag
    and fold files, and the error locator of numeric ones."""
    ids: list[str] = []
    seen: set[str] = set()
    lines = array("l")
    cells: list[str] = []
    buf = array("d")
    with open_csv(path) as reader:
        header = [c.strip() for c in next(reader, [])]
        if header[: len(fixed)] != list(fixed):
            raise DataError(f"{path}: expected header starting with {','.join(fixed)!r}")
        width = width or len(header)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            line = reader.line_num
            if len(row) != width:
                raise DataError(f"{path}: row {line}: expected {width} columns, got {len(row)}")
            key = row[0].strip()
            if not key:
                raise DataError(f"{path}: row {line}: empty {header[0]}")
            if key in seen:
                raise DataError(f"{path}: row {line}: duplicate {header[0]} {key!r}")
            seen.add(key)
            ids.append(key)
            lines.append(line)
            if bounds is None:
                cells.append(row[1].strip())
                continue
            for cell in row[1:]:
                try:
                    buf.append(float(cell.strip()))
                except ValueError:
                    raise DataError(
                        f"{path}: row {line}: non-numeric value {cell.strip()!r}"
                    ) from None
    if bounds is None:
        return Table(header, ids, lines, cells)
    lo, hi = bounds
    values = np.frombuffer(buf, dtype=np.float64).reshape(len(ids), width - 1)
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= lo) & (values <= hi)))
    if bad.size:
        i, j = divmod(int(bad[0]), width - 1)
        raise DataError(
            f"{path}: row {lines[i]}: column {header[j + 1]!r} value {float(values[i, j])!r} "
            f"is not a finite number in [{lo:g}, {hi:g}]"
        )
    return Table(header, ids, lines, values)


# ---------------------------------------------------------------------------
# Tag files: CSV with header `image_name,tags`, where the tags
# cell is a space-separated list of label names.
# ---------------------------------------------------------------------------


def load_tags(
    path: str | Path, vocab: LabelVocabulary | str = "infer"
) -> tuple[list[str], LabelMatrix]:
    """Load a tag file into (sample ids, LabelMatrix), rows in file order.

    With vocab="infer" the vocabulary is built from the sorted distinct tags
    (weather_count 0); an explicit vocabulary makes unknown labels an error.
    """
    table = read_table(path, ("image_name", "tags"), width=2)
    tag_sets = [cell.split() for cell in table.values]

    if isinstance(vocab, str):
        if vocab != "infer":
            raise ValueError("vocab must be a LabelVocabulary or the string 'infer'")
        distinct = sorted({t for tags in tag_sets for t in tags})
        if not distinct:
            raise DataError(f"{path}: cannot infer a vocabulary from a file with no tags")
        vocab = LabelVocabulary(names=tuple(distinct))

    index = {name: j for j, name in enumerate(vocab.names)}
    values = np.zeros((len(table.ids), len(vocab)), dtype=np.int8)
    for i, tags in enumerate(tag_sets):
        for t in tags:
            j = index.get(t)
            if j is None:
                raise DataError(f"{path}: row {table.lines[i]}: unknown label {t!r}")
            values[i, j] = 1
    return table.ids, LabelMatrix(values=values, vocab=vocab)


def save_tags(path: str | Path, ids: Sequence[str], labels: LabelMatrix) -> None:
    """Write a tag file; exact inverse of load_tags under the same vocab."""
    if len(ids) != labels.n_samples:
        raise ValueError("ids length must match the number of rows")
    names = labels.vocab.names
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("image_name,tags\n")
        for sample_id, row in zip(ids, labels.values):
            tags = " ".join(names[j] for j in np.nonzero(row)[0])
            fh.write(f"{sample_id},{tags}\n")


# ---------------------------------------------------------------------------
# Probability files: CSV with header `image_name,<label1>,...,<labelK>`.
# Any column permutation of the vocabulary is accepted and realigned.
# ---------------------------------------------------------------------------


def load_probs(path: str | Path, vocab: LabelVocabulary) -> tuple[list[str], ProbMatrix]:
    """Load a probability CSV, realigning columns to vocabulary order."""
    table = read_table(path, ("image_name",), bounds=(0.0, 1.0))
    file_labels = table.header[1:]
    if sorted(file_labels) != sorted(vocab.names):
        missing = set(vocab.names) - set(file_labels)
        extra = set(file_labels) - set(vocab.names)
        detail = []
        if missing:
            detail.append(f"missing label column(s) {sorted(missing)}")
        if extra:
            detail.append(f"unexpected column(s) {sorted(extra)}")
        raise DataError(f"{path}: header does not match vocabulary: {'; '.join(detail)}")
    order = [file_labels.index(name) for name in vocab.names]
    return table.ids, ProbMatrix(values=table.values[:, order], vocab=vocab)


def save_probs(path: str | Path, ids: Sequence[str], probs: ProbMatrix) -> None:
    """Write a probability CSV in canonical vocabulary order, 6 decimals."""
    if len(ids) != probs.n_samples:
        raise ValueError("ids length must match the number of rows")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("image_name," + ",".join(probs.vocab.names) + "\n")
        # one format per row, over Python floats converted a block at a time
        # (the whole matrix as Python floats would cost ~25 MB at 40,479 x 17)
        row_fmt = "%s" + ("," + FLOAT_FMT) * probs.n_labels + "\n"
        v = probs.values
        rows = itertools.chain.from_iterable(v[i : i + 4096].tolist() for i in range(0, len(v), 4096))
        fh.writelines(row_fmt % (sample_id, *row) for sample_id, row in zip(ids, rows))


def load_features(path: str | Path) -> tuple[list[str] | None, FeatureMatrix]:
    """Load a feature matrix from .npy (row-aligned, no ids) or from CSV
    with header `image_name,<f1>,...` (ids in the first column)."""
    path = Path(path)
    if path.suffix == ".npy":
        return None, load_npy(path, FeatureMatrix)
    table = read_table(path, ("image_name",), bounds=(-np.inf, np.inf))
    if not table.ids:
        raise DataError(f"{path}: no feature rows")
    names = tuple(table.header[1:])
    return table.ids, FeatureMatrix(values=table.values, feature_names=names or None)
