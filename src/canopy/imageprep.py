"""Bit-exact pixel preprocessing for the three pretrained-backbone input
conventions, plus the flip/rotate augmentation set.

Modes (raw input expected in [0, 255], RGB channel order):

* ``tf``    - x / 127.5 - 1, scaling into [-1, 1];
* ``caffe`` - reorder RGB -> BGR, then subtract the per-channel means
  (103.939, 116.779, 123.68) in BGR order, no scaling;
* ``torch`` - x / 255 into [0, 1], then per-channel (x - mean) / std. The
  source convention stops at the /255 step; the mean/std constants below
  are the commonly published ImageNet channel statistics, adopted here and
  not part of that convention's description.

Images are float arrays of shape (height, width, 3).
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .data import DataError, load_npy, make_rng, open_csv, read_input, text_chunks, write_output

CAFFE_BGR_MEAN = (103.939, 116.779, 123.68)
TORCH_MEAN = (0.485, 0.456, 0.406)  # outside-source ImageNet constants
TORCH_STD = (0.229, 0.224, 0.225)

MODES = ("tf", "caffe", "torch")

#: Which preprocessing mode each supported pretrained backbone expects.
#: Data, not logic; consumers look their model up here.
PREPROCESS_MODE_FOR_MODEL = {
    "ResNet50": "caffe",
    "ResNet101": "caffe",
    "ResNet152": "caffe",
    "VGG16": "caffe",
    "VGG19": "caffe",
    "ResNet50-V2": "tf",
    "ResNet101-V2": "tf",
    "ResNet152-V2": "tf",
    "Inception-V3": "tf",
    "Inception-ResNet-V2": "tf",
    "Xception": "tf",
    "DenseNet121": "torch",
    "DenseNet169": "torch",
    "DenseNet201": "torch",
}

# each augmentation op as a view of an (h, w, 3) array
_VIEWS = {
    "flip_lr": lambda a: a[:, ::-1, :],
    "flip_ud": lambda a: a[::-1, :, :],
    "rot90_cw": lambda a: np.rot90(a, k=-1, axes=(0, 1)),
    "rot90_ccw": lambda a: np.rot90(a, k=1, axes=(0, 1)),
}
AUGMENT_OPS = tuple(_VIEWS)


def _image(img) -> np.ndarray:
    """``img`` as an (h, w, 3) array. An ndarray of bools, integers or floats
    up to 64 bits keeps its dtype, and the kernels convert its values to
    float64 as they read them; anything else is converted here."""
    kind = img.dtype.kind if isinstance(img, np.ndarray) else ""
    if kind in ("b", "i", "u") or kind == "f" and img.dtype.itemsize <= 8:
        a = np.asarray(img)
    else:
        a = np.asarray(img, dtype=np.float64)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got shape {a.shape}")
    return a


def preprocess(img, mode: str) -> np.ndarray:
    """Apply one of the three pixel conventions to a raw [0, 255] image.

    Returns a new C-contiguous float64 array. The per-channel steps run one
    channel at a time, so each numpy loop covers whole rows of one channel
    rather than 3-wide pixels; the arithmetic is the same per value.
    """
    a = _image(img)
    if a.size and not (a.min() >= 0.0 and a.max() <= 255.0):  # NaN fails too
        raise ValueError("raw pixel values must lie in [0, 255]")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    out = np.empty(a.shape)
    if mode == "caffe":  # BGR order
        for c in range(3):
            np.subtract(a[:, :, 2 - c], CAFFE_BGR_MEAN[c], out=out[:, :, c], dtype=np.float64)
        return out
    np.divide(a, 127.5 if mode == "tf" else 255.0, out=out, dtype=np.float64)
    if mode == "tf":
        out -= 1.0
        return out
    for c in range(3):
        o = out[:, :, c]
        o -= TORCH_MEAN[c]
        o /= TORCH_STD[c]
    return out


def augment(img, op: str) -> np.ndarray:
    """Exact pixel permutation; rotations swap height and width. Returns a
    new C-contiguous float64 array, converted as it is copied."""
    a = _image(img)
    if op not in AUGMENT_OPS:  # a tuple: an unhashable op is refused too
        raise ValueError(f"op must be one of {AUGMENT_OPS}")
    return np.array(_VIEWS[op](a), dtype=np.float64, order="C")


def random_augment(img, seed: int) -> np.ndarray:
    """Apply each op in AUGMENT_OPS order independently with probability 1/2,
    drawn from the seeded stream (4 draws per call); like ``augment``, one
    copy of the composed views makes a new C-contiguous float64 array."""
    rng = make_rng(seed)
    a = _image(img)
    for op in AUGMENT_OPS:
        if rng.random() < 0.5:
            a = _VIEWS[op](a)
    return np.array(a, dtype=np.float64, order="C")


# ---------------------------------------------------------------------------
# Array exchange formats: NPY, or a versioned CSV-of-pixels whose first row
# is `#canopy-pixels-v1,<height>,<width>,<channels>` followed by one
# row-major pixel per line (three comma-separated channel values).
# ---------------------------------------------------------------------------

PIXELS_MAGIC = "#canopy-pixels-v1"


def save_image_array(path: str | Path, img) -> None:
    a = _image(img).astype(np.float64, copy=False)
    if Path(path).suffix == ".npy":
        np.save(buf := io.BytesIO(), a)
        write_output(path, [buf.getbuffer()])
        return
    h, w, c = a.shape
    lines = (",".join(repr(float(v)) for v in px) + "\n" for px in a.reshape(-1, c))
    write_output(path, text_chunks(f"{PIXELS_MAGIC},{h},{w},{c}\n", lines))


def load_image_array(path: str | Path) -> np.ndarray:
    """An (h, w, 3) image from .npy or a pixel CSV; a defect is a DataError naming ``path``."""
    if Path(path).suffix == ".npy":
        return load_npy(path, _image).astype(np.float64, copy=False)
    with open_csv(path, read_input(path)) as reader:
        rows = list(reader)
    if not rows or not rows[0] or rows[0][0] != PIXELS_MAGIC:
        raise DataError(f"{path}: expected a {PIXELS_MAGIC} header or an .npy file")
    try:
        h, w, c = (int(x) for x in rows[0][1:4])
    except ValueError:
        raise DataError(f"{path}: malformed pixel header") from None
    if min(h, w) < 0 or c != 3:
        raise DataError(f"{path}: pixel header needs height,width >= 0 and 3 channels")
    body = [r for r in rows[1:] if r]
    if len(body) != h * w:
        raise DataError(f"{path}: expected {h * w} pixel rows, got {len(body)}")
    if any(len(r) != c for r in body):
        raise DataError(f"{path}: expected {c} channels per pixel row")
    try:
        flat = np.array([[float(v) for v in r] for r in body], dtype=np.float64)
    except ValueError:
        raise DataError(f"{path}: non-numeric pixel value") from None
    return flat.reshape(h, w, c)
