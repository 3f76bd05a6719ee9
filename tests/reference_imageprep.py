"""``preprocess`` and ``augment`` as they were before they ran one channel at
a time, kept as an oracle: every input is first converted to a float64
array, and the pixel formulas broadcast over 3-wide pixels.

``test_imageprep.py`` requires the library's kernels to give the same
values, dtype and exception types as these for every input.
"""

from __future__ import annotations

import numpy as np

from canopy.imageprep import AUGMENT_OPS, CAFFE_BGR_MEAN, MODES, TORCH_MEAN, TORCH_STD


def check_image(img) -> np.ndarray:
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got shape {a.shape}")
    return a


def preprocess(img, mode: str) -> np.ndarray:
    a = check_image(img)
    if a.size and not (a.min() >= 0.0 and a.max() <= 255.0):  # NaN fails too
        raise ValueError("raw pixel values must lie in [0, 255]")
    if mode == "tf":
        return a / 127.5 - 1.0
    if mode == "caffe":
        bgr = a[:, :, ::-1].copy()
        return bgr - np.array(CAFFE_BGR_MEAN)
    if mode == "torch":
        return (a / 255.0 - np.array(TORCH_MEAN)) / np.array(TORCH_STD)
    raise ValueError(f"mode must be one of {MODES}")


def augment(img, op: str) -> np.ndarray:
    a = check_image(img)
    if op == "flip_lr":
        return a[:, ::-1, :].copy()
    if op == "flip_ud":
        return a[::-1, :, :].copy()
    if op == "rot90_cw":
        return np.rot90(a, k=-1, axes=(0, 1)).copy()
    if op == "rot90_ccw":
        return np.rot90(a, k=1, axes=(0, 1)).copy()
    raise ValueError(f"op must be one of {AUGMENT_OPS}")


def random_augment(img, seed: int) -> np.ndarray:
    from canopy.data import make_rng

    rng = make_rng(seed)
    out = check_image(img)
    for op in AUGMENT_OPS:
        if rng.random() < 0.5:
            out = augment(out, op)
    return out
