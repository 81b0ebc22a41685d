"""Shared-memory segments: the transport under sharded columns.

A *segment* is a named region of bytes one process creates and fills
and any number of worker processes attach read-only. Two backends
implement the same four-method surface (``buf``, ``token``, ``close``,
``unlink``):

* **shm** — :class:`multiprocessing.shared_memory.SharedMemory`
  (POSIX ``shm_open``, visible under ``/dev/shm`` on Linux). The
  preferred backend: attach is a pure ``mmap`` of an existing kernel
  object, no filesystem I/O.
* **mmap** — a sized temporary file mapped with :mod:`mmap`. The
  fallback for platforms or containers without a usable POSIX shm
  mount; same zero-copy property once mapped, at the cost of going
  through the filesystem.

**Ownership and lifecycle.** Exactly one process — the one that called
:func:`create_segment` — *owns* a segment and is the only one allowed
to :meth:`~ShmSegment.unlink` it. Workers attach via the segment's
pickled :func:`token <attach_segment>` and only ever ``close`` their
mapping (worker death releases it implicitly, which is why a SIGKILLed
worker cannot leak a segment: the name lives on until the owner
unlinks, and the owner's clean ``close()`` — or, if the owner itself
dies, the ``multiprocessing`` resource tracker that registered the
segment at creation — removes it).

**The attach-registration trap.** On CPython < 3.13,
``SharedMemory(name=...)`` *attach* also registers the segment with
the resource tracker (python/cpython #82300). For independent
processes that would be fatal — their own tracker would unlink a
segment they never owned at exit. Our workers are always
``multiprocessing`` children, which inherit the *coordinator's*
tracker, so the duplicate register is a harmless set-add there; an
explicit ``unregister`` after attach would instead erase the owner's
registration in that same shared tracker and break crash cleanup.
Hence: ``track=False`` where the stdlib offers it (3.13+), plain
attach otherwise, never unregister.
"""

from __future__ import annotations

import mmap
import os
import secrets
import tempfile
from multiprocessing import shared_memory as _shared_memory

from repro.exceptions import ShardingError

__all__ = [
    "MmapSegment",
    "ShmSegment",
    "attach_segment",
    "create_segment",
]

#: Prefix of every segment name/file this module creates — what the
#: leak tests scan ``/dev/shm`` for.
SEGMENT_PREFIX = "repro_shard_"


def _untracked_attach(name: str):
    """Attach an existing shm block without taking over its cleanup."""
    try:
        # Python >= 3.13 spells it directly.
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # < 3.13: the attach registers with the shared tracker — a
        # no-op set-add, see the module docstring. Do NOT unregister.
        return _shared_memory.SharedMemory(name=name)


class ShmSegment:
    """A POSIX shared-memory segment (``/dev/shm`` on Linux)."""

    backend = "shm"

    def __init__(self, shm, size: int, *, owner: bool) -> None:
        self._shm = shm
        self._size = size
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, size: int) -> "ShmSegment":
        # Explicit names (rather than the stdlib's anonymous ones) give
        # the leak tests a recognisable prefix to scan for; retry on
        # the astronomically unlikely collision.
        for _ in range(16):
            name = f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(8)}"
            try:
                shm = _shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
            except FileExistsError:  # pragma: no cover - 64-bit token
                continue
            return cls(shm, size, owner=True)
        raise ShardingError(  # pragma: no cover - unreachable in practice
            "could not allocate a unique shared-memory name"
        )

    @classmethod
    def attach(cls, name: str, size: int) -> "ShmSegment":
        try:
            shm = _untracked_attach(name)
        except FileNotFoundError:
            raise ShardingError(
                f"shared-memory segment {name!r} does not exist (was the "
                "owning engine closed while workers were still attached?)"
            ) from None
        return cls(shm, size, owner=False)

    @property
    def buf(self):
        return self._shm.buf

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return self._size

    def token(self) -> tuple:
        """The picklable attach recipe workers receive."""
        return ("shm", self._shm.name, self._size)

    def close(self) -> None:
        """Release this process's mapping (idempotent).

        Live numpy views over the buffer keep the mapping pinned; the
        ``BufferError`` that raises is swallowed because the segment is
        about to be unlinked anyway — the mapping dies with the last
        view, the *name* dies with :meth:`unlink`.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Remove the segment's name (owner only; idempotent)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class MmapSegment:
    """A sized temporary file mapped into memory — the shm fallback."""

    backend = "mmap"

    def __init__(self, path: str, fileobj, mapping, size: int, *, owner: bool) -> None:
        self._path = path
        self._file = fileobj
        self._map = mapping
        self._size = size
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, size: int) -> "MmapSegment":
        fd, path = tempfile.mkstemp(prefix=SEGMENT_PREFIX, suffix=".seg")
        try:
            os.ftruncate(fd, size)
            fileobj = os.fdopen(fd, "r+b")
        except BaseException:
            os.close(fd)
            os.unlink(path)
            raise
        mapping = mmap.mmap(fileobj.fileno(), size, access=mmap.ACCESS_WRITE)
        return cls(path, fileobj, mapping, size, owner=True)

    @classmethod
    def attach(cls, path: str, size: int) -> "MmapSegment":
        try:
            fileobj = open(path, "rb")
            mapping = mmap.mmap(
                fileobj.fileno(), size, access=mmap.ACCESS_READ
            )
        except FileNotFoundError:
            raise ShardingError(
                f"segment file {path!r} does not exist (was the owning "
                "engine closed while workers were still attached?)"
            ) from None
        return cls(path, fileobj, mapping, size, owner=False)

    @property
    def buf(self):
        return self._map

    @property
    def name(self) -> str:
        return self._path

    @property
    def size(self) -> int:
        return self._size

    def token(self) -> tuple:
        return ("mmap", self._path, self._size)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._map.close()
        except BufferError:
            pass
        self._file.close()

    def unlink(self) -> None:
        if not self._owner:
            return
        try:
            os.unlink(self._path)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def create_segment(size: int, prefer: str | None = None):
    """Create an owned segment of ``size`` bytes.

    ``prefer`` pins the backend (``"shm"`` or ``"mmap"``); ``None``
    tries shm first and falls back to the mmap-file backend when the
    platform refuses (no shm mount, permission, size limits).
    """
    if size < 1:
        raise ValueError(f"segment size must be positive, got {size}")
    if prefer not in (None, "shm", "mmap"):
        raise ValueError(f"unknown segment backend {prefer!r}")
    if prefer == "mmap":
        return MmapSegment.create(size)
    try:
        return ShmSegment.create(size)
    except (OSError, ShardingError):
        if prefer == "shm":
            raise
    return MmapSegment.create(size)


def attach_segment(token: tuple):
    """Attach the segment a :meth:`token` describes (worker side)."""
    backend, name, size = token
    if backend == "shm":
        return ShmSegment.attach(name, size)
    if backend == "mmap":
        return MmapSegment.attach(name, size)
    raise ShardingError(f"unknown segment token backend {backend!r}")
