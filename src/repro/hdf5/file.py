"""h5py-like public API over the :mod:`repro.hdf5` codecs.

Supported modes:

``"w"``
    Create/truncate.  Objects are staged in memory and serialized to disk on
    :meth:`File.close` (or context-manager exit).
``"r"``
    Read-only.  The file is loaded into memory and parsed once.
``"r+"``
    Read/write of *dataset contents only* (structure is immutable).  The
    whole file is mapped with ``np.memmap``, so element and full-array
    writes go straight to the on-disk bytes — exactly the operation a
    checkpoint corrupter needs — and :meth:`Dataset.view` can hand out
    writable arrays that alias the mapped storage with zero copies.
"""

from __future__ import annotations

# np.memmap imports mmap on first use; importing it with this module pays
# that once, before a campaign forks, not in every trial child
import mmap  # noqa: F401
import os
import time
from typing import Callable, Iterator

import numpy as np

from .. import telemetry
from .messages import AttributeValue
from .reader import DatasetInfo, GroupInfo, parse_file
from .tree import DatasetNode, GroupNode
from .writer import serialize_file


class AttributeManager:
    """Dict-like view of an object's attributes."""

    def __init__(self, store: dict[str, AttributeValue], writable: bool):
        self._store = store
        self._writable = writable

    def __getitem__(self, name: str) -> object:
        return self._store[name].to_python()

    def __setitem__(self, name: str, value: object) -> None:
        if not self._writable:
            raise PermissionError("attributes are writable only in 'w' mode")
        self._store[name] = AttributeValue.from_python(name, value)

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def __iter__(self) -> Iterator[str]:
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def keys(self):
        return self._store.keys()

    def items(self):
        return [(name, attr.to_python()) for name, attr in self._store.items()]


class Dataset:
    """A dataset handle; reads/writes go to staged memory or the file."""

    def __init__(self, file: "File", name: str, staged: DatasetNode | None,
                 info: DatasetInfo | None):
        self._file = file
        self.name = name
        self._staged = staged
        self._info = info

    # -- geometry ----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._staged.shape if self._staged is not None else self._info.shape

    @property
    def dtype(self) -> np.dtype:
        return self._staged.dtype if self._staged is not None else self._info.dtype

    @property
    def size(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def attrs(self) -> AttributeManager:
        store = (
            self._staged.attrs if self._staged is not None else self._info.attrs
        )
        return AttributeManager(store, writable=self._staged is not None)

    @property
    def chunks(self) -> tuple[int, ...] | None:
        if self._staged is not None:
            return self._staged.chunks
        return self._info.chunk_shape

    @property
    def compression(self) -> str | None:
        if self._staged is not None:
            return ("gzip" if self._staged.compression is not None else None)
        return "gzip" if self._info.compressed else None

    @property
    def supports_inplace_writes(self) -> bool:
        """False for compressed chunks, whose stored sizes would change."""
        if self._staged is not None:
            return True
        return not (self._info.is_chunked and self._info.compressed)

    # -- reading -----------------------------------------------------------
    def view(self) -> np.ndarray | None:
        """An array aliasing the dataset's storage, or ``None``.

        The fast path behind :meth:`__getitem__`/:meth:`__setitem__` and the
        vectorized injection engine.  Semantics by storage class:

        * staged (``"w"`` mode): the staged array itself (writable);
        * contiguous layout in ``"r+"``: a dtype view of the file's
          ``np.memmap`` — writes land directly in the mapped file bytes;
        * contiguous layout in ``"r"``: a read-only view of the in-memory
          buffer (``writeable=False``);
        * chunked layout (compressed or not): ``None`` — element storage is
          not contiguous, callers must fall back to read/modify/write.

        On staged datasets the view is invalidated by :meth:`write` (which
        replaces the staged array); re-call :meth:`view` after a full write.
        """
        if self._staged is not None:
            return self._staged.data
        info = self._info
        if info.is_chunked:
            return None
        buf = self._file._buffer
        if isinstance(buf, np.ndarray):
            flat = buf[info.data_offset:info.data_offset + info.data_size]
            # asarray strips the np.memmap subclass: same memory, but
            # without memmap's per-operation bookkeeping on every slice
            return np.asarray(flat).view(info.dtype).reshape(info.shape)
        arr = np.frombuffer(buf, dtype=info.dtype, count=info.size,
                            offset=info.data_offset).reshape(info.shape)
        arr = arr.view()
        arr.flags.writeable = False  # "r" mode hands out read-only aliases
        return arr

    def read(self) -> np.ndarray:
        """Return the full dataset contents as a fresh array."""
        if self._staged is not None:
            return self._staged.data.copy()
        start = time.perf_counter() if telemetry.enabled() else None
        info = self._info
        if info.is_chunked:
            out = self._read_chunked()
        else:
            raw = self._file._read_bytes(info.data_offset, info.data_size)
            out = np.frombuffer(raw, dtype=info.dtype
                                ).reshape(info.shape).copy()
        if start is not None:
            telemetry.observe("hdf5.read_seconds",
                              time.perf_counter() - start)
        return out

    def _read_chunked(self) -> np.ndarray:
        from . import chunked as chunked_mod
        info = self._info
        out = np.zeros(info.shape, dtype=info.dtype)
        for record in info.chunk_records:
            payload = self._file._read_bytes(record.address,
                                             record.stored_size)
            piece = chunked_mod.decompress_chunk(
                payload, info.compressed, info.dtype, info.chunk_shape
            )
            chunked_mod.place_chunk(out, piece, record.offsets)
        return out

    def _chunk_element_location(self, index: int) -> tuple[int, int] | None:
        """(file offset, itemsize) of flat *index* in uncompressed chunks."""
        info = self._info
        coords = np.unravel_index(index, info.shape)
        origin = tuple(
            (c // chunk) * chunk
            for c, chunk in zip(coords, info.chunk_shape)
        )
        for record in info.chunk_records:
            if record.offsets == origin:
                within = tuple(c - o for c, o in zip(coords, origin))
                flat_within = int(
                    np.ravel_multi_index(within, info.chunk_shape)
                )
                return (record.address
                        + flat_within * info.dtype.itemsize,
                        info.dtype.itemsize)
        return None

    def read_flat(self, index: int) -> np.generic:
        """Read a single element by flat (C-order) index."""
        if index < 0 or index >= self.size:
            raise IndexError(index)
        if self._staged is not None:
            return self._staged.data.reshape(-1)[index]
        info = self._info
        if info.is_chunked:
            if info.compressed:
                return self.read().reshape(-1)[index]
            location = self._chunk_element_location(index)
            if location is None:
                raise KeyError(f"no chunk covers element {index}")
            raw = self._file._read_bytes(*location)
            return np.frombuffer(raw, dtype=info.dtype)[0]
        itemsize = info.dtype.itemsize
        raw = self._file._read_bytes(
            info.data_offset + index * itemsize, itemsize
        )
        return np.frombuffer(raw, dtype=info.dtype)[0]

    def __getitem__(self, key) -> np.ndarray | np.generic:
        view = self.view()
        if view is not None:
            if key is Ellipsis or (isinstance(key, slice)
                                   and key == slice(None)):
                return view.copy() if view.shape else view[()]
            out = view[key]
            if isinstance(out, np.ndarray):
                out = out.copy()  # h5py semantics: selections own their data
            return out
        # chunked storage: assemble once, then slice the copy
        data = self.read()
        if key is Ellipsis or key == () or (isinstance(key, slice)
                                            and key == slice(None)):
            return data if data.shape else data[()]
        return data[key]

    # -- writing -----------------------------------------------------------
    def write_flat(self, index: int, value) -> None:
        """Overwrite a single element by flat (C-order) index, in place."""
        if index < 0 or index >= self.size:
            raise IndexError(index)
        if self._staged is not None:
            self._staged.data.reshape(-1)[index] = value
            return
        self._file._check_writable()
        info = self._info
        element = np.asarray(value, dtype=info.dtype)
        if info.is_chunked:
            if info.compressed:
                raise PermissionError(
                    "in-place element writes are not supported on "
                    "compressed chunks; read, modify, and rewrite instead"
                )
            location = self._chunk_element_location(index)
            if location is None:
                raise KeyError(f"no chunk covers element {index}")
            self._file._write_bytes(location[0], element.tobytes())
            return
        self._file._write_bytes(
            info.data_offset + index * info.dtype.itemsize, element.tobytes()
        )

    def write(self, data: np.ndarray) -> None:
        """Overwrite the entire dataset (shape and dtype must match)."""
        array = np.ascontiguousarray(data, dtype=self.dtype)
        if array.shape != self.shape:
            raise ValueError(
                f"shape mismatch: dataset {self.shape}, data {array.shape}"
            )
        if self._staged is not None:
            self._staged.data = array.copy()
            return
        self._file._check_writable()
        start = time.perf_counter() if telemetry.enabled() else None
        info = self._info
        if info.is_chunked:
            if info.compressed:
                raise PermissionError(
                    "in-place writes are not supported on compressed "
                    "chunks (stored sizes would change)"
                )
            from . import chunked as chunked_mod
            for record in info.chunk_records:
                piece = chunked_mod.slice_chunk(array, record.offsets,
                                                info.chunk_shape)
                self._file._write_bytes(record.address, piece.tobytes())
        else:
            self._file._write_bytes(info.data_offset, array.tobytes())
        if start is not None:
            telemetry.observe("hdf5.write_seconds",
                              time.perf_counter() - start)

    def __setitem__(self, key, value) -> None:
        view = self.view()
        if view is not None and view.flags.writeable:
            if self._staged is None:
                self._file._check_writable()
            view[key] = value
            return
        # chunked storage (read/modify/write), or a read-only file — in
        # which case write() raises the same PermissionError as before.
        if key is Ellipsis or (isinstance(key, slice) and key == slice(None)):
            full = np.broadcast_to(
                np.asarray(value, dtype=self.dtype), self.shape
            )
            self.write(full)
            return
        # chunked/compressed datasets have no writable view(); the
        # read-modify-write round trip is the only correct path here
        data = self.read()
        data[key] = value
        self.write(data)  # repro-lint: disable=view-discipline

    def __repr__(self) -> str:
        return f"<repro.hdf5 Dataset {self.name!r} {self.shape} {self.dtype}>"


class Group:
    """A group handle over either a staged node or parsed metadata."""

    def __init__(self, file: "File", name: str, staged: GroupNode | None,
                 info: GroupInfo | None):
        self._file = file
        self.name = name
        self._staged = staged
        self._info = info

    # -- structure ---------------------------------------------------------
    def keys(self) -> list[str]:
        if self._staged is not None:
            return sorted(self._staged.children)
        return sorted(list(self._info.groups) + list(self._info.datasets))

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, path: str) -> bool:
        try:
            self[path]
            return True
        except KeyError:
            return False

    def __getitem__(self, path: str) -> "Group | Dataset":
        parts = [part for part in path.split("/") if part]
        if path.startswith("/"):
            return self._file["/".join(parts)] if parts else self._file.root
        node: Group | Dataset = self
        for part in parts:
            if not isinstance(node, Group):
                raise KeyError(path)
            node = node._child(part)
        return node

    def _child(self, name: str) -> "Group | Dataset":
        child_name = f"{self.name.rstrip('/')}/{name}"
        if self._staged is not None:
            try:
                child = self._staged.children[name]
            except KeyError:
                raise KeyError(child_name) from None
            if isinstance(child, GroupNode):
                return Group(self._file, child_name, child, None)
            return Dataset(self._file, child_name, child, None)
        if name in self._info.groups:
            return Group(self._file, child_name, None, self._info.groups[name])
        if name in self._info.datasets:
            return Dataset(self._file, child_name, None,
                           self._info.datasets[name])
        raise KeyError(child_name)

    @property
    def attrs(self) -> AttributeManager:
        store = (
            self._staged.attrs if self._staged is not None else self._info.attrs
        )
        return AttributeManager(store, writable=self._staged is not None)

    # -- creation (w mode only) ---------------------------------------------
    def create_group(self, name: str) -> "Group":
        self._require_staged()
        node = self._staged.create_group(name)
        return Group(self._file, f"{self.name.rstrip('/')}/{name}", node, None)

    def require_group(self, name: str) -> "Group":
        return self.create_group(name)

    def create_dataset(self, name: str, data=None, shape=None,
                       dtype=None, chunks: tuple[int, ...] | None = None,
                       compression: str | int | None = None,
                       compression_opts: int = 4) -> Dataset:
        """Create a dataset.

        ``chunks`` selects chunked storage; ``compression="gzip"`` (with
        deflate level ``compression_opts``) additionally compresses each
        chunk, as in h5py.
        """
        self._require_staged()
        if data is None:
            if shape is None:
                raise ValueError("either data or shape is required")
            data = np.zeros(shape, dtype=dtype or np.float32)
        array = np.asarray(data)
        if dtype is not None:
            array = array.astype(dtype)
        level: int | None
        if compression is None:
            level = None
        elif compression == "gzip":
            level = int(compression_opts)
        elif isinstance(compression, int):
            level = compression
        else:
            raise ValueError(f"unsupported compression: {compression!r}")
        node = self._staged.create_dataset(name, array, chunks=chunks,
                                           compression=level)
        return Dataset(self._file, f"{self.name.rstrip('/')}/{name}", node,
                       None)

    def _require_staged(self) -> None:
        if self._staged is None:
            raise PermissionError(
                "structural changes require 'w' mode; "
                "'r+' only allows dataset content writes"
            )

    # -- traversal -----------------------------------------------------------
    def visit(self, func: Callable[[str], object]) -> object:
        """Call ``func(relative_path)`` for every descendant (h5py semantics:
        stop and return the first non-None result)."""
        for path, _ in self._walk():
            result = func(path)
            if result is not None:
                return result
        return None

    def visititems(self, func: Callable[[str, object], object]) -> object:
        for path, obj in self._walk():
            result = func(path, obj)
            if result is not None:
                return result
        return None

    def _walk(self) -> list[tuple[str, "Group | Dataset"]]:
        out: list[tuple[str, Group | Dataset]] = []

        def recurse(group: Group, prefix: str) -> None:
            for name in group.keys():
                child = group._child(name)
                path = f"{prefix}/{name}" if prefix else name
                out.append((path, child))
                if isinstance(child, Group):
                    recurse(child, path)

        recurse(self, "")
        return out

    def datasets(self) -> list[Dataset]:
        """All datasets below this group, depth-first by name."""
        return [obj for _, obj in self._walk() if isinstance(obj, Dataset)]

    def __repr__(self) -> str:
        return f"<repro.hdf5 Group {self.name!r} ({len(self.keys())} members)>"


class File(Group):
    """An open HDF5 file.  See module docstring for mode semantics.

    *template* (read modes only) is another open :class:`File` whose
    *structure* is byte-identical to this one — the situation a fault
    campaign creates when it copies one baseline checkpoint N times and
    flips bits in dataset payloads only.  Structure determines every
    group/dataset offset, so the template's parsed metadata tree can be
    borrowed instead of re-parsed; dataset *contents* still come from this
    file's own bytes.  If the file sizes differ the template is ignored and
    the file is parsed normally, but a same-sized file with genuinely
    different structure would be misread — callers are responsible for the
    provenance guarantee.
    """

    def __init__(self, path: str | os.PathLike, mode: str = "r",
                 template: "File | None" = None):
        self.filename = os.fspath(path)
        self.mode = mode
        self._closed = False
        self._handle = None
        self._nbytes: int | None = None
        with telemetry.span("hdf5.open", mode=mode) as span:
            if mode == "w":
                root = GroupNode()
                super().__init__(self, "/", root, None)
                self._buffer = None
            elif mode in ("r", "r+"):
                with open(self.filename, "rb") as handle:
                    raw = handle.read()
                self._nbytes = len(raw)
                info = None
                if (template is not None
                        and template._info is not None
                        and template._nbytes == len(raw)):
                    info = template._info
                    span.set(structure_reused=True)
                if info is None:
                    info = parse_file(raw)
                super().__init__(self, "/", None, info)
                if mode == "r+":
                    # Map the whole file: Dataset.view() hands out dtype
                    # views of this array, and byte-level writes mutate it
                    # directly, so both paths stay coherent with zero extra
                    # copies.
                    self._buffer = np.memmap(self.filename, dtype=np.uint8,
                                             mode="r+")
                else:
                    self._buffer = bytearray(raw)
                span.set(bytes=len(raw))
            else:
                raise ValueError(f"unsupported mode: {mode!r}")

    @property
    def root(self) -> Group:
        return Group(self, "/", self._staged, self._info)

    # -- byte-level access used by Dataset -----------------------------------
    def _read_bytes(self, offset: int, size: int) -> bytes:
        telemetry.count("hdf5.bytes_read", size)
        chunk = self._buffer[offset : offset + size]
        if isinstance(chunk, np.ndarray):
            return chunk.tobytes()
        return bytes(chunk)

    def _write_bytes(self, offset: int, data: bytes) -> None:
        telemetry.count("hdf5.bytes_written", len(data))
        if isinstance(self._buffer, np.ndarray):
            self._buffer[offset : offset + len(data)] = np.frombuffer(
                data, dtype=np.uint8
            )
        else:
            self._buffer[offset : offset + len(data)] = data

    def _check_writable(self) -> None:
        if self.mode != "r+":
            raise PermissionError(
                f"file opened in mode {self.mode!r} is not writable in place"
            )
        if self._closed:
            raise ValueError("I/O operation on closed file")

    # -- lifecycle ------------------------------------------------------------
    def flush(self) -> None:
        if self._closed:
            return
        if self.mode == "w":
            data = serialize_file(self._staged)
            with open(self.filename, "wb") as handle:
                handle.write(data)
        elif isinstance(self._buffer, np.memmap):
            self._buffer.flush()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        # The memmap (if any) is kept alive: outstanding Dataset.view()
        # arrays alias it, and reads remain legal on a closed handle.
        self._closed = True

    def __enter__(self) -> "File":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"mode={self.mode!r}"
        return f"<repro.hdf5 File {self.filename!r} ({state})>"
