"""The CSV loaders as they were before the shared reader in ``canopy.data``,
kept as an oracle: each loader opens, decodes and checks its own file.

``test_csv_oracle.py`` writes valid files and requires the shared-reader
loaders to return the same ids and byte-identical arrays as these, and
requires both to reject the same malformed files.

``read_table`` is the shared reader as it was before numeric files moved to
numpy's bulk reader: one csv.reader row at a time, for every format. The
bulk path must return the same table, or raise the same message, for every
file.
"""

from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from canopy.data import DataError, FeatureMatrix, LabelMatrix, LabelVocabulary, ProbMatrix, Table
from canopy.splits import FoldAssignment


def _read_csv_rows(path: str | Path) -> list[list[str]]:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc})") from exc


def load_tags(
    path: str | Path, vocab: LabelVocabulary | str = "infer"
) -> tuple[list[str], LabelMatrix]:
    """Load a tag file into (sample ids, LabelMatrix), rows in file order.

    With vocab="infer" the vocabulary is built from the sorted distinct tags
    (weather_count 0); an explicit vocabulary makes unknown labels an error.
    """
    rows = _read_csv_rows(path)
    if not rows or [c.strip() for c in rows[0][:2]] != ["image_name", "tags"]:
        raise DataError(f"{path}: expected header 'image_name,tags'")
    body = rows[1:]
    ids: list[str] = []
    tag_sets: list[list[str]] = []
    seen: set[str] = set()
    for lineno, row in enumerate(body, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"{path}: row {lineno}: expected 2 columns, got {len(row)}")
        sample_id, cell = row[0].strip(), row[1].strip()
        if not sample_id:
            raise DataError(f"{path}: row {lineno}: empty sample id")
        if sample_id in seen:
            raise DataError(f"{path}: row {lineno}: duplicate sample id {sample_id!r}")
        seen.add(sample_id)
        ids.append(sample_id)
        tag_sets.append(cell.split() if cell else [])

    if isinstance(vocab, str):
        if vocab != "infer":
            raise ValueError("vocab must be a LabelVocabulary or the string 'infer'")
        distinct = sorted({t for tags in tag_sets for t in tags})
        if not distinct:
            raise DataError(f"{path}: cannot infer a vocabulary from a file with no tags")
        vocab = LabelVocabulary(names=tuple(distinct))

    index = {name: j for j, name in enumerate(vocab.names)}
    values = np.zeros((len(ids), len(vocab)), dtype=np.int8)
    for i, tags in enumerate(tag_sets):
        for t in tags:
            j = index.get(t)
            if j is None:
                raise DataError(f"{path}: row {i + 2}: unknown label {t!r}")
            values[i, j] = 1
    return ids, LabelMatrix(values=values, vocab=vocab)


def load_probs(path: str | Path, vocab: LabelVocabulary) -> tuple[list[str], ProbMatrix]:
    """Load a probability CSV, realigning columns to vocabulary order."""
    rows = _read_csv_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "image_name":
        raise DataError(f"{path}: expected first header column 'image_name'")
    file_labels = header[1:]
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

    ids: list[str] = []
    seen: set[str] = set()
    values = np.empty((len(rows) - 1, len(vocab)), dtype=np.float64)
    n = 0
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {lineno}: expected {len(header)} columns, got {len(row)}"
            )
        sample_id = row[0].strip()
        if not sample_id:
            raise DataError(f"{path}: row {lineno}: empty sample id")
        if sample_id in seen:
            raise DataError(f"{path}: row {lineno}: duplicate sample id {sample_id!r}")
        seen.add(sample_id)
        for j_out, j_in in enumerate(order):
            cell = row[1 + j_in].strip()
            try:
                x = float(cell)
            except ValueError:
                raise DataError(f"{path}: row {lineno}: non-numeric value {cell!r}") from None
            if not np.isfinite(x) or x < 0.0 or x > 1.0:
                raise DataError(f"{path}: row {lineno}: value {cell} outside [0, 1]")
            values[n, j_out] = x
        ids.append(sample_id)
        n += 1
    return ids, ProbMatrix(values=values[:n], vocab=vocab)


def load_features(path: str | Path) -> tuple[list[str] | None, FeatureMatrix]:
    """Load a feature matrix from .npy (row-aligned, no ids) or from CSV
    with header `image_name,<f1>,...` (ids in the first column)."""
    path = Path(path)
    if path.suffix == ".npy":
        arr = np.load(path)
        if arr.ndim != 2:
            raise DataError(f"{path}: expected a 2-D array, got shape {arr.shape}")
        return None, FeatureMatrix(values=arr)
    rows = _read_csv_rows(path)
    if not rows or not rows[0] or rows[0][0].strip() != "image_name":
        raise DataError(f"{path}: expected header starting with 'image_name'")
    names = tuple(c.strip() for c in rows[0][1:])
    ids: list[str] = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(names) + 1:
            raise DataError(
                f"{path}: row {lineno}: expected {len(names) + 1} columns, got {len(row)}"
            )
        ids.append(row[0].strip())
        try:
            values.append([float(c) for c in row[1:]])
        except ValueError:
            raise DataError(f"{path}: row {lineno}: non-numeric feature value") from None
    if not ids:
        raise DataError(f"{path}: no feature rows")
    try:
        return ids, FeatureMatrix(values=np.array(values), feature_names=names or None)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_folds(path: str | Path) -> tuple[list[str], FoldAssignment]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0][:2]] != ["image_name", "fold"]:
        raise DataError(f"{path}: expected header 'image_name,fold'")
    ids: list[str] = []
    fold_of: list[int] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"{path}: row {lineno}: expected 2 columns")
        try:
            fold = int(row[1])
        except ValueError:
            raise DataError(f"{path}: row {lineno}: non-integer fold") from None
        ids.append(row[0].strip())
        fold_of.append(fold)
    if not ids:
        raise DataError(f"{path}: no fold rows")
    try:
        return ids, FoldAssignment(fold_of=np.array(fold_of), k=max(fold_of) + 1)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_thresholds(path: str | Path, vocab: LabelVocabulary) -> np.ndarray:
    """Read a `label,threshold` CSV back into vocabulary order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0][:2]] != ["label", "threshold"]:
        raise DataError(f"{path}: expected header 'label,threshold'")
    seen: dict[str, float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"{path}: row {lineno}: expected 2 columns")
        name = row[0].strip()
        try:
            val = float(row[1])
        except ValueError:
            raise DataError(f"{path}: row {lineno}: non-numeric threshold") from None
        if not 0.0 <= val <= 1.0:
            raise DataError(f"{path}: row {lineno}: threshold outside [0, 1]")
        if name in seen:
            raise DataError(f"{path}: row {lineno}: duplicate label {name!r}")
        seen[name] = val
    try:
        return np.array([seen[name] for name in vocab.names])
    except KeyError as exc:
        raise DataError(f"{path}: missing threshold for label {exc.args[0]!r}") from None


@contextmanager
def _open_csv(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield csv.reader(fh)
    except (OSError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc})") from exc


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
    (rows, width - 1) array of the other cells, parsed with ``float()`` and
    required finite and in [lo, hi]; without, it lists each row's stripped
    second cell. Errors name the file and the line of the offending row.
    """
    ids: list[str] = []
    seen: set[str] = set()
    lines = array("l")
    cells: list[str] = []
    buf = array("d")
    with _open_csv(path) as reader:
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
