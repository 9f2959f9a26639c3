"""Durable file operations: every commit, lease and journal tail in repro.

A campaign of thousands of inject-and-resume trials must survive
``kill -9`` at any instant and resume exactly, so every file the pipeline
trusts after a crash is written by one of the protocols here:

* :func:`atomic_write` and :func:`publish` — the commit.  A complete,
  fsynced temp file in the target's directory is ``os.replace``-d over the
  target, then the directory is fsynced so the rename itself survives
  power loss.  A reader sees the old content or the new, never a torn
  file.  :func:`write_json` and :func:`read_json` are the JSON pair.
* :class:`Lease` — an expiring claim held as a lock file: the serve
  layer's shard and planning leases and the baseline cache lock.
* :func:`append_fsynced` — the journal append: one ``O_APPEND`` write,
  fsynced.  A crash leaves at most one torn final line.
* :class:`JsonlTail` — the torn-line-tolerant, offset-resumable reader of
  such append-only streams.

``tests/durable`` proves each protocol by forking a writer and killing it
at every step.  The ``durable-io`` lint rule keeps ``os.replace``,
``os.rename``, ``os.link`` and ``O_EXCL`` opens inside this module.  Calls
go through ``os.<name>`` at call time, never ``from os import``, so the
crash harness and the benchmark tracer can patch them.
"""

from __future__ import annotations

import fcntl
import json
import os
import socket
import time
import uuid


def _temp_beside(path: str) -> str:
    """A fresh name in *path*'s directory (same filesystem, so the final
    rename is atomic), unique per process and call."""
    return f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"


def _write_new(path: str, data: bytes) -> int:
    """Create *path* holding *data* (never an existing file); returns the
    new file's inode.  Not fsynced: callers decide."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        return os.fstat(fd).st_ino
    finally:
        os.close(fd)


def _fsync(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _discard(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


# ---------------------------------------------------------------------------
# Commits
# ---------------------------------------------------------------------------

def publish(temp: str, path: str) -> None:
    """Commit *temp*, a file another writer filled, as *path*.

    The bytes are fsynced before the rename (a rename can reach the disk
    before unsynced data does, which would commit a name pointing at
    garbage), and the directory after it.  *temp* must live in *path*'s
    directory.
    """
    _fsync(temp)
    os.replace(temp, path)
    _fsync(os.path.dirname(os.path.abspath(path)))


def atomic_write(path: str, data: bytes) -> None:
    """Replace *path* with *data*; no crash leaves it empty or torn.

    Concurrent writers of one target never share a temp file; the last
    rename wins.  A failed write removes its temp file.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    temp = _temp_beside(path)
    try:
        _write_new(temp, data)
        publish(temp, path)
    except BaseException:
        _discard(temp)
        raise


def write_json(path: str, payload: dict) -> None:
    """:func:`atomic_write` of *payload* as sorted-key JSON."""
    atomic_write(path, json.dumps(payload, sort_keys=True).encode("utf-8"))


def read_json(path: str) -> dict | None:
    """The parsed document, or ``None`` while it does not exist yet.

    Every JSON document in a store is committed by :func:`write_json`, so
    a present file is complete and a parse error is real corruption: it
    propagates.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# Journals
# ---------------------------------------------------------------------------

def append_fsynced(path: str, data: bytes) -> None:
    """Append *data* to *path* in one ``O_APPEND`` write and fsync it.

    Each record is one write of its complete line, so a crash leaves every
    earlier record intact plus at most a torn final line, which readers
    (``Journal.load``, :class:`JsonlTail`) skip.
    """
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


class JsonlTail:
    """Incremental, torn-line-tolerant JSONL reader.

    Each :meth:`poll` reads from the remembered byte offset to EOF and
    returns the newly completed records.  A trailing partial line (a write
    caught mid-append) is buffered until its newline arrives; a file that
    shrinks (rotation/truncation) restarts the tail from byte 0; a file
    that does not exist yet simply yields nothing.

    ``offset`` seeds the tail mid-file — the resume hook for readers (the
    sensitivity atlas ingester) that persist how far they got.
    :attr:`consumed` is the byte offset of the last *complete* line
    returned so far (the buffered partial tail excluded): the durable
    high-water mark such readers record, so a torn final line is re-read
    on the next resume instead of being silently lost.
    """

    def __init__(self, path: str, offset: int = 0):
        self.path = path
        self.offset = int(offset)
        self._partial = b""

    @property
    def consumed(self) -> int:
        """Byte offset just past the last complete line seen by poll()."""
        return self.offset - len(self._partial)

    def poll(self) -> list[dict]:
        return [record for record, _ in self.poll_with_offsets()]

    def poll_with_offsets(self) -> list[tuple[dict, int]]:
        """Like :meth:`poll`, but pairs each record with the byte offset
        just past its line — the line-boundary bookkeeping readers with
        deterministic segmentation (the atlas ingester) resume from."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self.offset:
            self.offset = 0
            self._partial = b""
        if size <= self.offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            chunk = handle.read()
        base = self.offset - len(self._partial)
        self.offset += len(chunk)
        data = self._partial + chunk
        lines = data.split(b"\n")
        self._partial = lines.pop()  # b"" when data ended on a newline
        records: list[tuple[dict, int]] = []
        position = base
        for line in lines:
            position += len(line) + 1  # +1: the newline split() consumed
            stripped = line.strip()
            if not stripped:
                continue
            try:
                parsed = json.loads(stripped)
            except json.JSONDecodeError:
                continue  # torn line that happened to end in \n garbage
            if isinstance(parsed, dict):
                records.append((parsed, position))
        return records


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------

#: Seconds between attempts of a blocking :meth:`Lease.acquire`.
POLL_INTERVAL = 0.05


def _pid_alive(pid) -> bool:
    """True when *pid* names a live process on this host."""
    if type(pid) is not int or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _read_lease(path: str) -> tuple[dict, os.stat_result | None]:
    """``(holder, stat)`` of a lease file; ``stat`` is ``None`` when the
    file is absent, and ``holder`` is ``{}`` when its content is not a
    holder record (a lease torn by power loss before its bytes landed)."""
    try:
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            data = handle.read()
    except FileNotFoundError:
        return {}, None
    try:
        holder = json.loads(data)
    except ValueError:
        return {}, stat
    return (holder if isinstance(holder, dict) else {}), stat


def lease_info(path: str, ttl: float | None = None) -> dict | None:
    """Read-only snapshot of a lease file for observability.

    Returns ``{"owner", "pid", "host", "claimed_at", "age", "expired"?}``
    or ``None`` while no holder is recorded.  ``age`` is seconds since the
    last heartbeat renewal; ``expired`` is included when *ttl* is given and
    uses the mtime criterion only (the pid criterion is
    :meth:`Lease.is_expired`).
    """
    holder, stat = _read_lease(path)
    if not holder:
        return None
    info = dict(holder)
    info["age"] = max(0.0, time.time() - stat.st_mtime)
    if ttl is not None:
        info["expired"] = info["age"] > ttl
    return info


class Lease:
    """An expiring, renewable claim on one unit of work.

    The lease file records its holder's pid, host and name, and is written
    in full before it appears: the payload goes to a temp file that is
    then hard-linked to the lease path (``os.link`` fails when the lease
    exists, so exactly one creator wins), and no crash can leave an empty
    lease.

    The lease is *expired* when its mtime is older than ``ttl`` (a
    heartbeat keeps a working holder's mtime fresh through :meth:`renew`),
    or when its holder ran on this host and that pid is dead.  With
    ``ttl=None`` only the dead pid expires it: the baseline cache lock,
    whose holder may train for minutes without renewing.  A file without
    a holder record can only be a lease torn by power loss, and is
    expired.

    Reclaiming an expired lease elects exactly one winner.  A reclaimer
    takes the ``.reclaim`` guard (an ``flock``, which dies with its holder,
    so a crash mid-reclaim leaves no stale guard), re-judges the lease
    under it against the inode it judged expired, and renames its own
    payload over the expired file.  The lease path never stops existing,
    so no concurrent create can slip in, and a slow reclaimer finds the
    inode changed and backs off.
    """

    def __init__(self, path: str, owner: str = "",
                 ttl: float | None = None):
        self.path = path
        self.owner = owner or f"pid-{os.getpid()}"
        self.ttl = ttl
        #: how the current hold was won: "create" (fresh lease) or
        #: "reclaim" (expired takeover); ``None`` while not held —
        #: observability provenance for the fleet's reclaim counters
        self.acquired_via: str | None = None
        self._ino: int | None = None  # the lease file we hold

    @property
    def held(self) -> bool:
        return self._ino is not None

    def _payload(self) -> bytes:
        return json.dumps({"pid": os.getpid(), "host": socket.gethostname(),
                           "owner": self.owner,
                           "claimed_at": time.time()}).encode("ascii")

    def _expired(self, holder: dict, stat: os.stat_result) -> bool:
        if not holder:
            return True
        if self.ttl is not None and time.time() - stat.st_mtime > self.ttl:
            return True
        # another host's pid says nothing here; its ttl expires it
        return holder.get("host") == socket.gethostname() and \
            not _pid_alive(holder.get("pid"))

    def is_expired(self) -> bool:
        holder, stat = _read_lease(self.path)
        return stat is not None and self._expired(holder, stat)

    # -- claiming ----------------------------------------------------------

    def try_claim(self) -> bool:
        """One attempt: create the lease, or reclaim it if expired."""
        holder, stat = _read_lease(self.path)
        if stat is None:
            if self._create():
                self.acquired_via = "create"
                return True
            holder, stat = _read_lease(self.path)
        if stat is not None and self._expired(holder, stat) and \
                self._reclaim(stat.st_ino):
            self.acquired_via = "reclaim"
            return True
        return False

    def acquire(self, timeout: float | None = None) -> "Lease":
        """Claim the lease, polling until *timeout* seconds pass (``None``
        waits forever); raises ``TimeoutError``.  Returns the lease, so
        ``with Lease(path).acquire(60):`` holds it for the block."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.try_claim():
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"lease {self.path} is held (waited {timeout}s)")
            time.sleep(POLL_INTERVAL)
        return self

    def _create(self) -> bool:
        os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                    exist_ok=True)
        temp = _temp_beside(self.path)
        try:
            ino = _write_new(temp, self._payload())
            os.link(temp, self.path)
        except FileExistsError:
            return False
        finally:
            _discard(temp)
        self._ino = ino
        return True

    def _reclaim(self, judged_ino: int) -> bool:
        """Single-winner takeover of the expired lease file *judged_ino*."""
        guard = os.open(f"{self.path}.reclaim", os.O_CREAT | os.O_RDWR,
                        0o644)
        try:
            fcntl.flock(guard, fcntl.LOCK_EX)
            holder, stat = _read_lease(self.path)
            if stat is None or stat.st_ino != judged_ino or \
                    not self._expired(holder, stat):
                return False  # released, or already taken over
            temp = _temp_beside(self.path)
            try:
                ino = _write_new(temp, self._payload())
                os.replace(temp, self.path)
            except BaseException:
                _discard(temp)
                raise
            self._ino = ino
            return True
        finally:
            os.close(guard)

    # -- lifetime ----------------------------------------------------------

    def renew(self) -> None:
        """Heartbeat: refresh the lease's mtime so it cannot expire while
        its holder is alive and working."""
        if self.held:
            try:
                os.utime(self.path)
            except FileNotFoundError:
                pass  # force-released under us; the holder notices at done

    def release(self) -> None:
        """Give the lease up.  A lease file that is no longer the one this
        holder wrote (it expired and was reclaimed) is left alone."""
        ino, self._ino = self._ino, None
        self.acquired_via = None
        if ino is None:
            return
        try:
            if os.stat(self.path).st_ino == ino:
                os.unlink(self.path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "Lease":
        return self if self.held else self.acquire(timeout=0)

    def __exit__(self, *exc_info) -> None:
        self.release()
