import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_imageprep as ref
from canopy.data import make_rng
from canopy.imageprep import (
    AUGMENT_OPS,
    MODES,
    PREPROCESS_MODE_FOR_MODEL,
    TORCH_MEAN,
    TORCH_STD,
    augment,
    load_image_array,
    preprocess,
    random_augment,
    save_image_array,
)


def gray(value, h=2, w=2):
    return np.full((h, w, 3), float(value))


class TestPreprocess:
    def test_tf_golden_endpoints(self):
        assert (preprocess(gray(0), "tf") == -1.0).all()
        assert (preprocess(gray(255), "tf") == 1.0).all()
        assert (preprocess(gray(127.5), "tf") == 0.0).all()

    def test_caffe_golden_pixel_is_exactly_zero(self):
        img = np.zeros((1, 1, 3))
        img[0, 0] = [123.68, 116.779, 103.939]  # RGB
        out = preprocess(img, "caffe")
        assert (out == 0.0).all()

    def test_caffe_swaps_channels_without_scaling(self):
        img = np.zeros((1, 2, 3))
        img[0, 0] = [10.0, 20.0, 30.0]
        img[0, 1] = [255.0, 0.0, 0.0]
        out = preprocess(img, "caffe")
        assert out[0, 0].tolist() == [
            30.0 - 103.939, 20.0 - 116.779, 10.0 - 123.68
        ]
        assert out[0, 1].tolist() == [-103.939, -116.779, 255.0 - 123.68]

    def test_torch_unit_scaling_then_standardization(self):
        out = preprocess(gray(255), "torch")
        want = (1.0 - np.array(TORCH_MEAN)) / np.array(TORCH_STD)
        np.testing.assert_allclose(out[0, 0], want, atol=1e-15)

    def test_all_modes_are_affine_per_channel(self):
        rng = make_rng(0)
        a = rng.uniform(0, 255, size=(3, 4, 3))
        b = rng.uniform(0, 255, size=(3, 4, 3))
        lam = 0.37
        for mode in ("tf", "caffe", "torch"):
            mixed = preprocess(lam * a + (1 - lam) * b, mode)
            np.testing.assert_allclose(
                mixed,
                lam * preprocess(a, mode) + (1 - lam) * preprocess(b, mode),
                atol=1e-10,
            )

    def test_out_of_range_input_rejected(self):
        with pytest.raises(ValueError, match="255"):
            preprocess(gray(300), "tf")
        with pytest.raises(ValueError, match="255"):
            preprocess(gray(-1), "caffe")

    def test_mode_table_matches_backbone_conventions(self):
        assert PREPROCESS_MODE_FOR_MODEL["ResNet50"] == "caffe"
        assert PREPROCESS_MODE_FOR_MODEL["VGG19"] == "caffe"
        assert PREPROCESS_MODE_FOR_MODEL["ResNet152-V2"] == "tf"
        assert PREPROCESS_MODE_FOR_MODEL["Inception-V3"] == "tf"
        assert PREPROCESS_MODE_FOR_MODEL["Xception"] == "tf"
        assert PREPROCESS_MODE_FOR_MODEL["DenseNet201"] == "torch"
        assert len(PREPROCESS_MODE_FOR_MODEL) == 14


class TestAugment:
    def checker(self):
        img = np.zeros((2, 2, 3))
        img[:, :, 0] = [[1, 2], [3, 4]]
        img[:, :, 1] = [[5, 6], [7, 8]]
        img[:, :, 2] = [[9, 10], [11, 12]]
        return img

    def test_flips_are_involutions(self):
        rng = make_rng(1)
        img = rng.uniform(0, 255, size=(5, 7, 3))
        for op in ("flip_lr", "flip_ud"):
            assert (augment(augment(img, op), op) == img).all()

    def test_rot90_cw_hand_example(self):
        out = augment(self.checker(), "rot90_cw")
        assert out[:, :, 0].tolist() == [[3, 1], [4, 2]]

    def test_rot90_four_times_is_identity(self):
        rng = make_rng(2)
        img = rng.uniform(0, 255, size=(4, 6, 3))
        out = img
        for _ in range(4):
            out = augment(out, "rot90_cw")
        assert (out == img).all()

    def test_cw_then_ccw_is_identity(self):
        rng = make_rng(3)
        img = rng.uniform(0, 255, size=(3, 5, 3))
        assert (augment(augment(img, "rot90_cw"), "rot90_ccw") == img).all()

    def test_rotation_swaps_height_and_width(self):
        img = np.zeros((3, 5, 3))
        assert augment(img, "rot90_ccw").shape == (5, 3, 3)

    def test_pixel_multiset_preserved_per_channel(self):
        rng = make_rng(4)
        img = rng.uniform(0, 255, size=(4, 4, 3))
        for op in AUGMENT_OPS:
            out = augment(img, op)
            for c in range(3):
                assert sorted(out[:, :, c].ravel()) == sorted(img[:, :, c].ravel())

    def test_random_augment_deterministic_and_composed_of_ops(self):
        rng = make_rng(5)
        img = rng.uniform(0, 255, size=(4, 4, 3))
        a = random_augment(img, seed=99)
        b = random_augment(img, seed=99)
        assert (a == b).all()
        for c in range(3):
            assert sorted(a[:, :, c].ravel()) == sorted(img[:, :, c].ravel())


class TestArrayIo:
    def test_npy_round_trip(self, tmp_path):
        img = make_rng(6).uniform(0, 255, size=(3, 4, 3))
        path = tmp_path / "img.npy"
        save_image_array(path, img)
        assert (load_image_array(path) == img).all()

    def test_pixel_csv_round_trip_bit_exact(self, tmp_path):
        img = make_rng(7).uniform(0, 255, size=(2, 3, 3))
        path = tmp_path / "img.csv"
        save_image_array(path, img)
        assert (load_image_array(path) == img).all()
        assert path.read_text().splitlines()[0] == "#canopy-pixels-v1,2,3,3"

    def test_bad_header_rejected(self, tmp_path):
        from canopy.data import DataError

        path = tmp_path / "img.csv"
        path.write_text("not,a,pixel,file\n")
        with pytest.raises(DataError):
            load_image_array(path)


# -- the kernels against the broadcasting formulas they replaced ------------

@st.composite
def raw_images(draw):
    """Valid raw images: uint8, float32 or float64 values in [0, 255], the
    endpoints 0 and 255 often, 0x0 and 1x1 shapes included, laid out as
    C-ordered, strided, reversed, transposed or Fortran-ordered arrays."""
    dtype = draw(st.sampled_from([np.uint8, np.float32, np.float64]))
    if dtype == np.uint8:
        values = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))
    else:
        width = 32 if dtype == np.float32 else 64
        values = st.one_of(st.sampled_from([0.0, 255.0]), st.floats(0, 255, width=width))
    layout = draw(st.sampled_from(["contiguous", "strided", "reversed", "transposed", "fortran"]))
    scale = 2 if layout == "strided" else 1
    h, w = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = draw(hnp.arrays(dtype, (h * scale, w * scale, 3), elements=values))
    if layout == "strided":
        return a[::2, 1::2]
    if layout == "reversed":
        return a[::-1, ::-1]
    if layout == "transposed":
        return a.swapaxes(0, 1)
    return np.asfortranarray(a) if layout == "fortran" else a


def same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float64 == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # tells -0.0 from 0.0, unlike ==


@settings(max_examples=300, deadline=None)
@given(raw_images(), st.integers(0, 2**32 - 1))
@example(np.zeros((0, 0, 3), dtype=np.uint8), 0)
@example(np.full((1, 1, 3), 255.0, dtype=np.float32), 1)
def test_kernels_match_oracle_bit_for_bit(img, seed):
    before = img.copy()
    for mode in MODES:
        got = preprocess(img, mode)
        same_bits(got, ref.preprocess(img, mode))
        assert got.flags.c_contiguous and not np.shares_memory(got, img)
    for op in AUGMENT_OPS:
        got = augment(img, op)
        same_bits(got, ref.augment(img, op))
        assert got.flags.c_contiguous and not np.shares_memory(got, img)
    same_bits(random_augment(img, seed), ref.random_augment(img, seed))
    assert np.array_equal(img, before)  # the input is left alone


@settings(max_examples=100, deadline=None)
@given(raw_images())
def test_saved_outputs_match_oracle_byte_for_byte(tmp_path_factory, img):
    """The pixel CSV holds the same bytes. So does the .npy file, except
    where the oracle's output kept a Fortran-ordered input's memory order:
    the kernels write C order, and np.save records the order it was given."""
    d = tmp_path_factory.mktemp("pixels")
    pairs = [(preprocess(img, m), ref.preprocess(img, m)) for m in MODES]
    pairs += [(augment(img, op), ref.augment(img, op)) for op in AUGMENT_OPS]
    for got, want in pairs:
        for suffix in (".csv", ".npy"):
            if suffix == ".npy" and want.flags.f_contiguous and not want.flags.c_contiguous:
                want = np.ascontiguousarray(want)
            save_image_array(d / f"got{suffix}", got)
            save_image_array(d / f"want{suffix}", want)
            assert (d / f"got{suffix}").read_bytes() == (d / f"want{suffix}").read_bytes()


def outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # the type and text are compared
        return type(exc), str(exc)
    return np.float64, out.tobytes()


BAD_IMAGES = [
    np.full((2, 2, 3), 256, dtype=np.int64),
    np.full((1, 1, 3), -1.0),
    np.full((2, 1, 3), np.float32(255.5)),
    np.full((1, 2, 3), np.inf),
    np.full((1, 1, 3), np.nan),
    np.full((2, 2, 3), np.float32(np.nan)),
    np.zeros((2, 2)),
    np.zeros((2, 2, 4), dtype=np.uint8),
    np.zeros((1, 2, 3, 1)),
    np.zeros(3, dtype=np.float32),
    np.full((1, 1, 3), "x"),
    np.array([[["1", "2", "3"]]]),
    np.full((1, 1, 3), None, dtype=object),
    [[[0, 1, "a"]]],
    [[[0, 1]], [[2, 3, 4]]],
    None,
    "image",
    np.zeros((1, 1, 3), dtype=np.complex128),
    np.zeros((1, 1, 3), dtype="datetime64[s]"),
    np.zeros((1, 1, 3), dtype=bool),
    np.full((1, 1, 3), 2**63 - 1, dtype=np.int64),
    np.full((1, 1, 3), 2**64 - 1, dtype=np.uint64),
]


@pytest.mark.parametrize("img", BAD_IMAGES, ids=range(len(BAD_IMAGES)))
def test_rejections_match_oracle(img):
    """Out-of-range, NaN, wrong-shape and non-numeric input: the same
    exception type and text as the oracle (or the same output, where both
    accept it); an unknown mode or op is refused after the image checks."""
    for mode in (*MODES, "bogus"):
        assert outcome(preprocess, img, mode) == outcome(ref.preprocess, img, mode)
    for op in (*AUGMENT_OPS, "bogus"):
        assert outcome(augment, img, op) == outcome(ref.augment, img, op)
    assert outcome(random_augment, img, 3) == outcome(ref.random_augment, img, 3)
