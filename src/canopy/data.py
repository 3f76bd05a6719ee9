"""Shared data model: label vocabulary, matrices, tag/probability CSV I/O, seeded RNG.

Every container holds a read-only copy of its input, built by the one
constructor :func:`frozen`: it never aliases the caller's array and is safe
to share across threads. Randomness everywhere in the
package flows through :func:`make_rng` / :func:`spawn_seeds`, which pin the
generator to numpy's PCG64 so a fixed seed reproduces bit-identical
sequences on the same build.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from tokenize import TokenError
from typing import Iterator, NamedTuple, Sequence

import numpy as np

DECIMALS = 6  # every float canopy writes or prints carries this many decimals
FLOAT_FMT = f"%.{DECIMALS}f"
KEY_COLUMN = "image_name"  # the first header cell of every per-sample CSV
TAG_HEADER = (KEY_COLUMN, "tags")
FOLD_HEADER = (KEY_COLUMN, "fold")


class DataError(Exception):
    """Malformed or inconsistent input data (bad CSV, unknown label, ...)."""


def check_int(name: str, value, least: int | None = None) -> int:
    """A count setting as a plain int: it must be an int (numpy ints too; not
    a bool, float, string or NaN), no smaller than ``least`` if one is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single PRNG used across the package."""
    return np.random.default_rng(check_int("seed", seed))


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive n independent child seeds deterministically from one seed."""
    root = np.random.SeedSequence(check_int("seed", seed))
    return [int(s.generate_state(1)[0]) for s in root.spawn(n)]


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
        for name in self.names:
            # a tags cell splits at whitespace, a header at commas, and a
            # leading quote opens a quoted cell; NUL ends the read before 3.11
            if name.split() != [name] or "," in name or name[0] == '"' or "\0" in name:
                raise ValueError(
                    f"label name {name!r} holds whitespace, a comma, NUL or a leading quote"
                )
        object.__setattr__(self, "weather_count", check_int("weather_count", self.weather_count))
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


def frozen(
    values, dtype, what: str, ndim: int = 2, width: int | None = None, entries: str | None = None
) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``, the array of every
    container. Checks the number of dimensions, the column count (``width``)
    and the entry rule: "binary" (exactly 0 or 1, before the cast), "finite"
    or "unit" (finite and in [0, 1]); each ValueError names ``what``."""
    a = np.asarray(values)
    if a.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D")
    if width is not None and a.shape[1] != width:
        raise ValueError(f"{what} has {a.shape[1]} columns, expected {width}")
    if entries == "binary" and a.dtype != bool and not np.isin(a, (0, 1)).all():
        raise ValueError(f"{what} entries must be exactly 0 or 1")
    out = np.array(a, dtype=dtype)
    if entries in ("finite", "unit") and not np.isfinite(out).all():
        raise ValueError(f"{what} entries must be finite")
    if entries == "unit" and out.size and (out.min() < 0.0 or out.max() > 1.0):
        raise ValueError(f"{what} entries must lie in [0, 1]")
    out.setflags(write=False)
    return out


class _Rows:
    """A container whose ``_rows`` field holds one row per sample."""

    _rows = "values"

    @property
    def n_samples(self) -> int:
        return getattr(self, self._rows).shape[0]

    def take(self, rows):
        """The same container over the given rows, in the given order."""
        return replace(self, **{self._rows: getattr(self, self._rows)[rows]})


class _LabelRows(_Rows):
    """A container of one column per vocabulary label."""

    @property
    def n_labels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelMatrix(_LabelRows):
    """Binary n_samples x n_labels assignment matrix tied to a vocabulary."""

    values: np.ndarray
    vocab: LabelVocabulary

    def __post_init__(self):
        v = frozen(self.values, np.int8, "label matrix", width=len(self.vocab), entries="binary")
        object.__setattr__(self, "values", v)

    def as_bool(self) -> np.ndarray:
        return self.values.astype(bool)


@dataclass(frozen=True)
class ProbMatrix(_LabelRows):
    """Real n_samples x n_labels score matrix with entries in [0, 1]."""

    values: np.ndarray
    vocab: LabelVocabulary

    def __post_init__(self):
        v = frozen(self.values, np.float64, "probability matrix", width=len(self.vocab),
                   entries="unit")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FeatureMatrix(_Rows):
    """Rectangular real-valued feature matrix with optional column names."""

    values: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        names = None if self.feature_names is None else tuple(self.feature_names)
        width = None if names is None else len(names)
        v = frozen(self.values, np.float64, "feature matrix", width=width, entries="finite")
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "values", v)

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
def open_csv(path: str | Path) -> Iterator[Iterator[list[str]]]:
    """A csv.reader over the file as UTF-8 text with line endings kept as
    written; open, decode and CSV errors (such as a field over the csv
    module's size limit) become a DataError naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield csv.reader(fh)
    except (OSError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc})") from exc


def load_npy(path: str | Path, build):
    """``build(array)`` for the array in an .npy file; a file that cannot be
    read, holds no array (a damaged header makes numpy raise SyntaxError or
    TokenError), or holds one ``build`` rejects, is a DataError naming it."""
    try:
        arr = np.load(path)
        if not isinstance(arr, np.ndarray):
            arr.close()
            raise ValueError("an .npz archive, not an .npy array")
        return build(arr)
    except (OSError, ValueError, TypeError, EOFError, SyntaxError, TokenError) as exc:
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
    lines: Sequence[int]  # file line number of each row, for error messages
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
    stripped second cell (so rows need two cells or more). Errors name the
    file and the line of the offending row.

    A plain file is read whole by :func:`_bulk_table`; any other file is
    streamed by :func:`_stream_table`, which raises the error naming its
    first bad row, or returns the table for the forms only it reads (quoted
    cells, blank lines, ``1_000`` and non-ASCII digits for ``float()``).
    """
    table = _bulk_table(path, fixed, width, bounds)
    return table if table is not None else _stream_table(path, fixed, width, bounds)


#: every byte but the ones csv.reader treats specially; a UTF-8 multi-byte
#: sequence never holds one of those
_PLAIN_BYTES = bytes(sorted(set(range(256)) - set(b',\n"\r\0')))


def _bulk_table(
    path: str | Path,
    fixed: tuple[str, ...],
    width: int | None,
    bounds: tuple[float, float] | None,
) -> Table | None:
    """:func:`read_table` over the file's bytes at once, or None unless
    :func:`_stream_table` would return the same table.

    The file must be plain: no quote, NUL or bare CR, every line (the last
    one too) ended by LF or every line by CRLF, ``width - 1`` commas on
    every line after the header, and no line longer than csv's field limit.
    csv.reader then splits each line at every comma and skips no line, so
    row i is on line i + 2. A text table is split by str methods; a numeric
    one is parsed by one ``np.loadtxt``, whose float parser accepts a subset
    of ``float()`` with the same whitespace stripping, over a BytesIO that
    shares the file's buffer: the file is held once, and decoded whole only
    to check that it is UTF-8, when it is not ASCII.
    """
    try:
        raw = Path(path).read_bytes()
        if not raw.isascii():
            raw.decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None  # the streaming reader words the error
    end = raw.find(b"\n") + 1
    if not end:
        return None
    nl = b"\r\n" if raw[:end].endswith(b"\r\n") else b"\n"
    head = raw[: end - len(nl)].decode()
    header = [c.strip() for c in head.split(",")]
    w = width or len(header)
    kept = raw.translate(None, _PLAIN_BYTES)
    n = kept.count(b"\n") - 1
    if kept != b"," * head.count(",") + nl + (b"," * (w - 1) + nl) * n:
        return None
    if header[: len(fixed)] != list(fixed):
        return None
    limit, pos = csv.field_size_limit(), 0
    while pos < len(raw):  # pos starts a line; it fits if an LF lies within limit + 1 bytes
        pos = raw.rfind(b"\n", pos, pos + limit + 1) + 1
        if not pos:
            return None
    if bounds is None:
        cells = raw.decode().replace(nl.decode(), ",").split(",")  # ..., key, value, ""
        keys = list(map(str.strip, cells[len(header) : -1 : w]))
        values = list(map(str.strip, cells[len(header) + 1 :: w]))
    else:
        keys = []

        def key(cell: str) -> float:  # called on each row's first cell, in order
            keys.append(cell.strip())
            return 0.0

        try:
            rows = np.loadtxt(
                io.BytesIO(raw),
                delimiter=",",
                comments=None,
                skiprows=1,
                converters={0: key},
                encoding="utf-8",  # str to the converter
                ndmin=2,
            ) if n else np.empty((0, w))  # loadtxt warns on an input without rows
        except ValueError:
            return None
        lo, hi = bounds
        values = rows[:, 1:]
        if not (np.isfinite(values) & (values >= lo) & (values <= hi)).all():
            return None
    if not all(keys) or len(set(keys)) != n:  # n keys: loadtxt skipped no blank line
        return None
    return Table(header, keys, range(2, n + 2), values)


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
# CSV output. Writers check that each key reads back as itself, and write
# floats through one vectorized kernel that gives FLOAT_FMT's exact bytes.
# ---------------------------------------------------------------------------

#: characters a key may not hold: csv.reader splits, quotes or ends a row at
#: them (and rejects NUL before Python 3.11)
_KEY_BREAKERS = ',"\r\n\0'


def written_ids(ids: Sequence, n: int) -> list[str]:
    """``ids`` as the strings a writer puts in the key column of its n rows.

    Raises ValueError for a count other than n, or naming the first id that
    would not read back as itself: one that is empty, repeats an earlier id,
    has whitespace around it, or holds a comma, a quote, CR, LF or NUL.
    """
    keys = list(map(str, ids))
    if len(keys) != n:
        raise ValueError("ids length must match the number of rows")
    joined = "".join(keys)
    if not (
        all(keys)
        and len(set(keys)) == n
        and keys == list(map(str.strip, keys))
        and not any(c in joined for c in _KEY_BREAKERS)
    ):
        seen: set[str] = set()
        for key in keys:  # name the first bad id
            if not key:
                fault = "is empty"
            elif key in seen:
                fault = "repeats an earlier id"
            elif key != key.strip():
                fault = "has whitespace around it"
            elif (bad := next((c for c in _KEY_BREAKERS if c in key), None)) is not None:
                fault = f"holds {bad!r}"
            else:
                seen.add(key)
                continue
            raise ValueError(f"id {key!r} {fault}, so it would not read back as written")
    return keys


_SCALE = 10.0**DECIMALS  # exact, and 5**DECIMALS fits in 26 bits
_SPLIT = 2.0**27 + 1  # Dekker's splitter for float64
# two ASCII bytes per uint16 in native order: the digit pairs 00..99, the
# leads "0." and "1.", and a cell's comma with no sign (NUL, deleted) or "-"
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)
_LEADS = np.frombuffer(b"0.1.", dtype=np.uint16)
_SIGNS = np.frombuffer(b",\0,-", dtype=np.uint16)
_CELL = DECIMALS + 4  # ",", sign, units, ".", decimals; DECIMALS is even


def _scaled(v: np.ndarray) -> np.ndarray:
    """int32 round-half-even of the exact ``v * 10**DECIMALS``: the digits
    ``FLOAT_FMT % v`` prints.

    ``p = v * _SCALE`` is off by less than half an ulp of p, and every
    half-integer below 2**52 is a multiple of that ulp, so ``rint(p)`` is
    already right unless p is a half-integer: then the product's exact error
    (Dekker 1971; the scale splits exactly) says whether the exact value
    lies above p, below it, or on it, where rint's half-even result stands.
    """
    p = v * _SCALE
    k = np.rint(p)
    half = np.abs(k - p) == 0.5
    if half.any():
        x, ph = v[half], p[half]
        t = _SPLIT * x
        hi = t - (t - x)
        err = (hi * _SCALE - ph) + (x - hi) * _SCALE
        k[half] = np.where(err > 0, ph + 0.5, np.where(err < 0, ph - 0.5, k[half]))
    return k.astype(np.int32)


def format_rows(keys: Sequence[str], values: np.ndarray) -> bytes:
    """The CSV lines ``key,FLOAT_FMT % v,...`` (LF-ended, UTF-8) of ``keys``
    and the rows of ``values``, whose entries lie in [0, 1] (or are -0.0).

    Each cell is built as uint16 byte pairs with the sign byte NUL unless the
    entry is -0.0, keys are NUL-padded to one width, and one ``translate``
    deletes the NULs; :func:`written_ids` keeps NUL out of keys. Call it on
    blocks of about a thousand rows: it makes one Python object per row.
    """
    n, m = values.shape
    key_bytes = np.array([key.encode() for key in keys], dtype=bytes)
    width = key_bytes.itemsize
    cells = np.empty((n, m, _CELL // 2), dtype=np.uint16)
    cells[..., 0] = _SIGNS.take(np.signbit(values).view(np.uint8))
    q = _scaled(values)
    for j in range(_CELL // 2 - 1, 1, -1):  # decimals, two at a time from the right
        r = q // 100
        cells[..., j] = _PAIRS.take(q - r * 100)
        q = r
    cells[..., 1] = _LEADS.take(q)
    rows = np.empty((n, width + _CELL * m + 1), dtype=np.uint8)
    rows[:, :width] = key_bytes.view(np.uint8).reshape(n, width)
    rows[:, width:-1] = cells.reshape(n, -1).view(np.uint8)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# Tag files: CSV with header TAG_HEADER, where the tags cell is a
# space-separated list of label names.
# ---------------------------------------------------------------------------


def _vocabulary(path: str | Path, vocab: LabelVocabulary | str, labels) -> LabelVocabulary:
    """``vocab``, or with "infer" the vocabulary of the file's ``labels`` in
    their order; labels no vocabulary can hold are a DataError naming the file."""
    if not isinstance(vocab, str):
        return vocab
    if vocab != "infer":
        raise ValueError("vocab must be a LabelVocabulary or the string 'infer'")
    try:
        return LabelVocabulary(names=tuple(labels))
    except ValueError as exc:  # such as "a,b" from a quoted cell, or a repeated column
        raise DataError(f"{path}: {exc}") from None


def load_tags(
    path: str | Path, vocab: LabelVocabulary | str = "infer"
) -> tuple[list[str], LabelMatrix]:
    """Load a tag file into (sample ids, LabelMatrix), rows in file order.

    With vocab="infer" the vocabulary is built from the sorted distinct tags
    (weather_count 0); an explicit vocabulary makes unknown labels an error.
    """
    table = read_table(path, TAG_HEADER, width=2)
    # each distinct tags cell is mapped once, in order of first appearance:
    # the first unknown label met is the one a walk over the rows meets first
    row_of = {cell: r for r, cell in enumerate(dict.fromkeys(table.values))}
    tag_sets = [cell.split() for cell in row_of]
    distinct = sorted({t for tags in tag_sets for t in tags})
    if vocab == "infer" and not distinct:
        raise DataError(f"{path}: cannot infer a vocabulary from a file with no tags")
    vocab = _vocabulary(path, vocab, distinct)

    index = {name: j for j, name in enumerate(vocab.names)}
    rows = np.zeros((len(row_of), len(vocab)), dtype=np.int8)
    for cell, r in row_of.items():
        for t in tag_sets[r]:
            j = index.get(t)
            if j is None:
                line = table.lines[table.values.index(cell)]
                raise DataError(f"{path}: row {line}: unknown label {t!r}")
            rows[r, j] = 1
    values = rows[list(map(row_of.__getitem__, table.values))]
    return table.ids, LabelMatrix(values=values, vocab=vocab)


def save_tags(path: str | Path, ids: Sequence[str], labels: LabelMatrix) -> None:
    """Write a tag file; exact inverse of load_tags under the same vocab."""
    keys = written_ids(ids, labels.n_samples)
    names = labels.vocab.names
    # each row as the bytes of its 0/1 cells; each distinct row is spelled once
    rows = np.ascontiguousarray(labels.values).view((np.void, len(names))).ravel().tolist()
    tags = {row: " ".join(name for name, bit in zip(names, row) if bit) for row in set(rows)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TAG_HEADER) + "\n")
        fh.writelines(f"{key},{tags[row]}\n" for key, row in zip(keys, rows))


# ---------------------------------------------------------------------------
# Probability files: CSV with header KEY_COLUMN,<label1>,...,<labelK>.
# Any column permutation of the vocabulary is accepted and realigned.
# ---------------------------------------------------------------------------


def load_probs(path: str | Path, vocab: LabelVocabulary | str) -> tuple[list[str], ProbMatrix]:
    """Load a probability CSV, realigning columns to vocabulary order; "infer"
    takes the header's labels in file order (weather_count 0)."""
    table = read_table(path, (KEY_COLUMN,), bounds=(0.0, 1.0))
    file_labels = table.header[1:]
    vocab = _vocabulary(path, vocab, file_labels)
    if sorted(file_labels) != sorted(vocab.names):
        faults = {
            "missing label": set(vocab.names) - set(file_labels),
            "unexpected": set(file_labels) - set(vocab.names),
            "repeated": {name for name in file_labels if file_labels.count(name) > 1},
        }
        detail = [f"{what} column(s) {sorted(names)}" for what, names in faults.items() if names]
        raise DataError(f"{path}: header does not match vocabulary: {'; '.join(detail)}")
    order = [file_labels.index(name) for name in vocab.names]
    return table.ids, ProbMatrix(values=table.values[:, order], vocab=vocab)


def save_probs(path: str | Path, ids: Sequence[str], probs: ProbMatrix) -> None:
    """Write a probability CSV in canonical vocabulary order, each cell
    exactly ``FLOAT_FMT % v``."""
    keys = written_ids(ids, probs.n_samples)
    v = probs.values
    with open(path, "wb") as fh:
        fh.write((",".join((KEY_COLUMN, *probs.vocab.names)) + "\n").encode())
        for i in range(0, len(v), 1024):
            fh.write(format_rows(keys[i : i + 1024], v[i : i + 1024]))


def load_features(path: str | Path) -> tuple[list[str] | None, FeatureMatrix]:
    """Load a feature matrix from .npy (row-aligned, no ids) or from CSV
    with header KEY_COLUMN,<f1>,... (ids in the first column)."""
    path = Path(path)
    if path.suffix == ".npy":
        return None, load_npy(path, FeatureMatrix)
    table = read_table(path, (KEY_COLUMN,), bounds=(-np.inf, np.inf))
    if not table.ids:
        raise DataError(f"{path}: no feature rows")
    names = tuple(table.header[1:])
    return table.ids, FeatureMatrix(values=table.values, feature_names=names or None)
