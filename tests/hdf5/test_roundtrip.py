"""Round-trip tests for the HDF5 subset: write with 'w', read with 'r'."""

import gc
import weakref

import numpy as np
import pytest

from repro import hdf5


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "test.h5")


def test_signature_and_superblock(path):
    with hdf5.File(path, "w") as f:
        f.create_dataset("x", data=np.arange(4, dtype=np.float32))
    raw = open(path, "rb").read()
    assert raw[:8] == b"\x89HDF\r\n\x1a\n"
    assert raw[8] == 0  # superblock version 0


def test_dataset_roundtrip_float64(path):
    data = np.linspace(-1, 1, 24, dtype=np.float64).reshape(2, 3, 4)
    with hdf5.File(path, "w") as f:
        f.create_dataset("weights", data=data)
    with hdf5.File(path, "r") as f:
        out = f["weights"].read()
    np.testing.assert_array_equal(out, data)
    assert out.dtype == np.float64


@pytest.mark.parametrize(
    "dtype",
    [np.float16, np.float32, np.float64, np.int8, np.int16, np.int32,
     np.int64, np.uint8, np.uint32, np.uint64],
)
def test_all_supported_dtypes(path, dtype):
    rng = np.random.default_rng(0)
    if np.dtype(dtype).kind == "f":
        data = rng.standard_normal(10).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=10,
                            dtype=dtype, endpoint=True)
    with hdf5.File(path, "w") as f:
        f.create_dataset("d", data=data)
    with hdf5.File(path, "r") as f:
        out = f["d"].read()
    np.testing.assert_array_equal(out, data)
    assert out.dtype == np.dtype(dtype)


def test_nested_groups(path):
    with hdf5.File(path, "w") as f:
        f.create_dataset("model_weights/block1_conv1/block1_conv1/kernel:0",
                         data=np.ones((3, 3, 3, 8), dtype=np.float32))
        f.create_dataset("model_weights/block1_conv1/block1_conv1/bias:0",
                         data=np.zeros(8, dtype=np.float32))
        f.create_group("optimizer_weights")
    with hdf5.File(path, "r") as f:
        assert "model_weights" in f
        assert "model_weights/block1_conv1/block1_conv1/kernel:0" in f
        kernel = f["model_weights/block1_conv1/block1_conv1/kernel:0"]
        assert kernel.shape == (3, 3, 3, 8)
        assert sorted(f.keys()) == ["model_weights", "optimizer_weights"]


def test_scalar_dataset(path):
    with hdf5.File(path, "w") as f:
        f.create_dataset("epoch", data=np.int64(20))
    with hdf5.File(path, "r") as f:
        assert f["epoch"].shape == ()
        assert f["epoch"].read()[()] == 20


def test_attributes_roundtrip(path):
    with hdf5.File(path, "w") as f:
        d = f.create_dataset("w", data=np.zeros(3, dtype=np.float32))
        d.attrs["epoch"] = 20
        d.attrs["lr"] = 0.01
        d.attrs["name"] = "conv1"
        f.attrs["framework"] = "tf_like"
    with hdf5.File(path, "r") as f:
        d = f["w"]
        assert d.attrs["epoch"] == 20
        assert d.attrs["lr"] == pytest.approx(0.01)
        assert d.attrs["name"] == "conv1"
        assert f.attrs["framework"] == "tf_like"


def test_array_attribute(path):
    with hdf5.File(path, "w") as f:
        d = f.create_dataset("w", data=np.zeros(3, dtype=np.float32))
        d.attrs["shape_hint"] = np.array([3, 3, 64], dtype=np.int32)
    with hdf5.File(path, "r") as f:
        np.testing.assert_array_equal(
            f["w"].attrs["shape_hint"], [3, 3, 64]
        )


def test_many_links_multiple_snods(path):
    """More links than one SNOD holds forces multiple symbol-table nodes."""
    n = 200
    with hdf5.File(path, "w") as f:
        g = f.create_group("layers")
        for i in range(n):
            g.create_dataset(f"layer_{i:04d}", data=np.full(2, i, np.float32))
    with hdf5.File(path, "r") as f:
        g = f["layers"]
        assert len(g.keys()) == n
        np.testing.assert_array_equal(
            f["layers/layer_0123"].read(), [123.0, 123.0]
        )


def test_visit_and_visititems(path):
    with hdf5.File(path, "w") as f:
        f.create_dataset("a/b/c", data=np.zeros(1, np.float32))
        f.create_dataset("a/d", data=np.zeros(1, np.float32))
    with hdf5.File(path, "r") as f:
        seen = []
        f.visit(seen.append)
        assert seen == ["a", "a/b", "a/b/c", "a/d"]
        pairs = []
        f.visititems(lambda name, obj: pairs.append((name, type(obj).__name__)))
        assert ("a/b/c", "Dataset") in pairs
        assert ("a/b", "Group") in pairs


def test_datasets_listing(path):
    with hdf5.File(path, "w") as f:
        f.create_dataset("g1/w", data=np.zeros(2, np.float32))
        f.create_dataset("g2/w", data=np.zeros(2, np.float32))
    with hdf5.File(path, "r") as f:
        names = [d.name for d in f.datasets()]
        assert names == ["/g1/w", "/g2/w"]


def test_empty_file(path):
    with hdf5.File(path, "w"):
        pass
    with hdf5.File(path, "r") as f:
        assert f.keys() == []


def test_read_missing_key_raises(path):
    with hdf5.File(path, "w") as f:
        f.create_dataset("x", data=np.zeros(1, np.float32))
    with hdf5.File(path, "r") as f:
        with pytest.raises(KeyError):
            f["nope"]
        with pytest.raises(KeyError):
            f["x/deeper"]


def test_unsupported_dtype_rejected(path):
    with hdf5.File(path, "w") as f:
        with pytest.raises(TypeError):
            f.create_dataset("c", data=np.zeros(2, dtype=np.complex128))


def test_duplicate_dataset_rejected(path):
    with hdf5.File(path, "w") as f:
        f.create_dataset("x", data=np.zeros(1, np.float32))
        with pytest.raises(ValueError):
            f.create_dataset("x", data=np.zeros(1, np.float32))


def test_write_mode_readback_before_close(path):
    with hdf5.File(path, "w") as f:
        f.create_dataset("x", data=np.arange(3, dtype=np.float32))
        np.testing.assert_array_equal(f["x"].read(), [0, 1, 2])


def test_fortran_order_input_stored_c_contiguous(path):
    data = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
    with hdf5.File(path, "w") as f:
        f.create_dataset("x", data=data)
    with hdf5.File(path, "r") as f:
        np.testing.assert_array_equal(f["x"].read(), data)


@pytest.mark.parametrize("mode", ["r", "r+"])
def test_file_is_freed_without_the_cyclic_collector(path, mode):
    """An open file, and the groups and datasets a walk hands out, hold no
    reference cycle: the file's buffer goes with its last reference, not
    at the cyclic collector's next pass."""
    with hdf5.File(path, "w") as f:
        f.create_dataset("model/conv/W", data=np.ones((2, 3)))
        f.create_dataset("model/b", data=np.zeros(3))
    gc.disable()
    try:
        f = hdf5.File(path, mode)
        assert [d.name for d in f.datasets()] == ["/model/b",
                                                  "/model/conv/W"]
        f.visititems(lambda name, obj: None)
        dataset = f["model/b"]
        ref = weakref.ref(f)
        del f
        assert ref() is not None  # the dataset still reads through it
        np.testing.assert_array_equal(dataset[...], np.zeros(3))
        del dataset
        assert ref() is None
    finally:
        gc.enable()
