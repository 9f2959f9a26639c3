"""``h5ls``-style checkpoint inspector.

The paper's injection workflow starts by *identifying the objects that
correspond to each part of the model* inside the checkpoint (§IV-B).  This
CLI prints the hierarchy with shapes, dtypes, storage layout, attribute
values, and basic statistics — enough to pick ``locations_to_corrupt``.

Usage::

    python -m repro.hdf5.inspect ckpt.h5
    python -m repro.hdf5.inspect ckpt.h5 --stats --attrs
    python -m repro.hdf5.inspect ckpt.h5 --path model_weights/conv1
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .file import Dataset, File, Group


def format_dataset(dataset: Dataset, stats: bool = False) -> str:
    """One listing line for a dataset (shape, dtype, layout, stats)."""
    shape = "scalar" if dataset.shape == () else \
        "x".join(str(s) for s in dataset.shape)
    layout = "contiguous"
    if dataset.chunks is not None:
        layout = f"chunked{dataset.chunks}"
        if dataset.compression:
            layout += f"+{dataset.compression}"
    line = f"{dataset.name}  [{shape} {dataset.dtype}] ({layout})"
    if stats and dataset.dtype.kind == "f" and dataset.size:
        view = dataset.view()  # zero-copy for contiguous storage
        with np.errstate(invalid="ignore"):  # quiets a signaling NaN
            data = (dataset.read() if view is None else view).astype(
                np.float64)
        finite = data[np.isfinite(data)]
        nev = data.size - finite.size
        if finite.size:
            line += (f"  min={finite.min():.4g} max={finite.max():.4g} "
                     f"mean={finite.mean():.4g}")
        if nev:
            line += f"  !N-EV={nev}"
    return line


def format_attrs(obj, indent: str) -> list[str]:
    """Listing lines for an object's attributes."""
    lines = []
    for key, value in obj.attrs.items():
        lines.append(f"{indent}@{key} = {value!r}")
    return lines


def inspect_lines(handle: Group, stats: bool = False,
                  attrs: bool = False) -> list[str]:
    """All listing lines for a group subtree."""
    lines: list[str] = []
    if attrs:
        lines.extend(format_attrs(handle, ""))
    for path, obj in handle._walk():
        depth = path.count("/")
        indent = "  " * depth
        if isinstance(obj, Dataset):
            lines.append(indent + format_dataset(obj, stats=stats))
        else:
            lines.append(f"{indent}{path.rsplit('/', 1)[-1]}/")
        if attrs:
            lines.extend(format_attrs(obj, indent + "  "))
    return lines


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the inspector."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.hdf5.inspect",
        description="List the contents of an HDF5 checkpoint file.",
    )
    parser.add_argument("hdf5_file")
    parser.add_argument("--path", default=None,
                        help="restrict listing to this group/dataset")
    parser.add_argument("--stats", action="store_true",
                        help="include min/max/mean and N-EV counts")
    parser.add_argument("--attrs", action="store_true",
                        help="include attribute values")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.hdf5.inspect``."""
    args = build_parser().parse_args(argv)
    try:
        with File(args.hdf5_file, "r") as handle:
            target: Group | Dataset = handle
            if args.path:
                try:
                    target = handle[args.path]
                except KeyError:
                    print(f"path not found: {args.path}", file=sys.stderr)
                    return 2
            if isinstance(target, Dataset):
                print(format_dataset(target, stats=args.stats))
                if args.attrs:
                    for line in format_attrs(target, "  "):
                        print(line)
            else:
                for line in inspect_lines(target, stats=args.stats,
                                          attrs=args.attrs):
                    print(line)
    except BrokenPipeError:  # output piped into head/less and closed
        return 0
    except (OSError, ValueError) as error:
        print(f"cannot read {args.hdf5_file}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
