"""A pure-Python/numpy implementation of an HDF5 on-disk format subset.

This package stands in for ``h5py`` in environments without the HDF5 C
library.  It writes and reads genuine HDF5 version-0 superblock files —
old-style groups (local heap + v1 B-tree + symbol-table nodes), version-1
object headers, contiguous numeric datasets, and attributes — which is the
layout deep-learning frameworks use for ``.h5`` checkpoints.

Typical use::

    from repro import hdf5

    with hdf5.File("ckpt.h5", "w") as f:
        f.create_dataset("model_weights/conv1/kernel", data=weights)
        f.attrs["epoch"] = 20

    with hdf5.File("ckpt.h5", "r+") as f:
        d = f["model_weights/conv1/kernel"]
        d.write_flat(7, corrupted_value)   # in-place bit surgery
"""

from .file import AttributeManager, Dataset, File, Group, Structure
from .validate import Finding, ValidationReport, validate_file
from .reader import DatasetInfo, GroupInfo, iter_datasets, parse_file
from .repack import RepackStats, decompress_checkpoint, repack
from .writer import serialize_file

__all__ = [
    "AttributeManager",
    "Dataset",
    "DatasetInfo",
    "File",
    "Finding",
    "Structure",
    "Group",
    "GroupInfo",
    "iter_datasets",
    "parse_file",
    "RepackStats",
    "decompress_checkpoint",
    "repack",
    "ValidationReport",
    "validate_file",
    "serialize_file",
]
