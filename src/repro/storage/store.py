"""Bitmap stores: codec-encoded bitmap blobs addressed by key.

:class:`BitmapStore` keeps encoded payloads in memory;
:class:`DirectoryStore` additionally writes each bitmap to its own file
under a directory, mirroring the paper's one-file-region-per-bitmap
layout on the Unix file system.  Neither store caches decoded bitmaps —
caching is the :class:`~repro.storage.buffer.BufferPool`'s job, so that
buffer-size effects are observable.

Durability: :class:`DirectoryStore` names every blob after its *key*
(a deterministic digest, so the same key always maps to the same file
across processes — no sequential counter to collide after a restart)
and writes through :func:`atomic_write_bytes` (temp file → fsync →
rename), so a blob file on disk is always a complete former or current
payload, never a torn mix.  Both paths report durable operations to the
:mod:`repro.storage.faults` injection layer when one is installed.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress import Codec, get_codec
from repro.errors import StorageError
from repro.storage import faults
from repro.storage.pages import DEFAULT_PAGE_SIZE, pages_for, validate_page_size

#: Suffix of every bitmap blob file in a :class:`DirectoryStore`.
BLOB_SUFFIX = ".bm"
#: Suffix of in-flight temp files (never a committed blob).
TMP_SUFFIX = ".tmp"

_NAME_SAFE = re.compile(r"[^A-Za-z0-9]+")


def _canonical_key(key) -> str:
    """Injective textual form of a key, for stable file naming.

    Only deterministic value types may name a file: ints, strings,
    bytes, bools, None and (nested) tuples of those.  Anything else
    (an object whose repr embeds its memory address, say) would produce
    a different file name in every process.
    """
    if key is None:
        return "n"
    if isinstance(key, bool):
        return "t" if key else "f"
    if isinstance(key, int):
        return f"i{key}"
    if isinstance(key, str):
        return f"s{len(key)}:{key}"
    if isinstance(key, bytes):
        return f"b{key.hex()}"
    if isinstance(key, tuple):
        return "(" + ",".join(_canonical_key(part) for part in key) + ")"
    raise StorageError(
        f"key {key!r} cannot be mapped to a stable file name; use ints, "
        f"strings, bytes or tuples of those"
    )


def stable_blob_name(key: Hashable) -> str:
    """Deterministic blob file name for ``key``.

    A human-readable sanitized prefix plus a 16-hex-digit digest of the
    canonical key form; the digest makes distinct keys collision-free
    regardless of how the prefix sanitizes.
    """
    canonical = _canonical_key(key)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    prefix = _NAME_SAFE.sub("-", str(key)).strip("-")[:40].strip("-")
    if prefix:
        return f"{prefix}-{digest}{BLOB_SUFFIX}"
    return f"{digest}{BLOB_SUFFIX}"


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a rename inside it is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse directory fsync
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp → fsync → rename.

    A crash at any point leaves either the previous file content or the
    new one at ``path`` — never a torn mix (at worst a stray ``.tmp``
    file, which readers ignore).  Durable steps report to the fault
    injection layer, which may corrupt the payload or simulate a crash.
    """
    path = Path(path)
    tmp = path.parent / (path.name + TMP_SUFFIX)
    if not isinstance(data, bytes):
        data = bytes(data)  # memoryview/ndarray payloads (zero-copy views)
    data = faults.step("write", path.name, data=data, path=tmp)
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        faults.step("fsync", path.name, path=tmp)
        os.fsync(fh.fileno())
    faults.step("rename", path.name, path=tmp)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


@dataclass(frozen=True)
class StoredBitmapInfo:
    """Metadata for one stored bitmap."""

    key: Hashable
    length: int
    encoded_bytes: int
    pages: int


class BitmapStore:
    """In-memory store of codec-encoded bitmaps.

    Parameters
    ----------
    codec:
        Codec instance or registry name (``"raw"``, ``"bbc"``, ...).
    page_size:
        Page granularity for space and I/O accounting.
    """

    def __init__(
        self,
        codec: Codec | str = "raw",
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        self._codec = get_codec(codec) if isinstance(codec, str) else codec
        self._page_size = validate_page_size(page_size)
        self._blobs: dict[Hashable, bytes] = {}
        self._lengths: dict[Hashable, int] = {}
        self._versions: dict[Hashable, int] = {}

    @property
    def codec(self) -> Codec:
        """The codec used for every bitmap in this store."""
        return self._codec

    @property
    def page_size(self) -> int:
        """Page size used for space accounting."""
        return self._page_size

    # ------------------------------------------------------------------

    def put(self, key: Hashable, vector: BitVector) -> StoredBitmapInfo:
        """Encode and store ``vector`` under ``key`` (replacing any old one)."""
        payload = self._codec.encode(vector)
        return self.put_payload(key, payload, len(vector))

    def put_many(
        self, items: Iterable[tuple[Hashable, BitVector]]
    ) -> list[StoredBitmapInfo]:
        """Encode and store many ``(key, vector)`` pairs in one codec call.

        Same payloads as one :meth:`put` per pair; each still goes
        through :meth:`put_payload`, so a persistent store writes it.
        """
        items = list(items)
        payloads = self._codec.encode_many(vector for _, vector in items)
        return [
            self.put_payload(key, payload, len(vector))
            for (key, vector), payload in zip(items, payloads)
        ]

    def put_payload(
        self, key: Hashable, payload: bytes, length: int
    ) -> StoredBitmapInfo:
        """Store an already-encoded ``payload`` of ``length`` bits.

        Used by persistence, which moves encoded blobs byte-identically
        between stores without a decode/re-encode roundtrip.
        """
        self._store_payload(key, payload)
        return self.attach_payload(key, payload, length)

    def attach_payload(
        self, key: Hashable, payload: bytes, length: int
    ) -> StoredBitmapInfo:
        """Register ``payload`` in memory without the persistence hook.

        Index loading attaches payloads it just read (and verified) from
        disk; writing them back out again would turn every load into a
        rewrite of the whole directory.
        """
        self._blobs[key] = bytes(payload)
        self._lengths[key] = int(length)
        self._versions[key] = self._versions.get(key, 0) + 1
        return self.info(key)

    def _store_payload(self, key: Hashable, payload: bytes) -> None:
        """Hook for persistent subclasses."""

    def get(self, key: Hashable) -> BitVector:
        """Decode and return the bitmap stored under ``key``."""
        payload = self._payload(key)
        return self._codec.decode(payload, self._lengths[key])

    def get_view(self, key: Hashable) -> BitVector:
        """Decode through the payload view — zero-copy when possible.

        With a raw codec the returned vector's words *alias* the stored
        payload (the mmap itself for a
        :class:`~repro.storage.mmap_store.MappedDirectoryStore`, the
        in-memory blob otherwise) — treat it as read-only.  Other
        codecs decode normally.  Identical ``codec.decode.*`` obs
        accounting to :meth:`get`.
        """
        return self._codec.decode_view(self.payload_view(key), self._lengths[key])

    def payload_view(self, key: Hashable) -> np.ndarray:
        """Read-only ``uint8`` view of the stored payload.

        The base store serves a view over its in-memory copy and counts
        ``storage.mmap.copy_fallbacks`` — every handout that *could*
        have been zero-copy from a mapping but was not is visible.  The
        mapped subclass serves the mmap and counts
        ``storage.mmap.view_bytes`` instead.
        """
        payload = self._payload(key)
        view = (
            payload
            if isinstance(payload, np.ndarray)
            else np.frombuffer(payload, dtype=np.uint8)
        )
        o = _obs.active()
        if o is not None:
            o.count("storage.mmap.copy_fallbacks", 1)
        return view

    def get_payload(self, key: Hashable) -> tuple[bytes, int]:
        """The stored (encoded payload, bit length) without decoding.

        Used by compressed-domain evaluation, which operates on encoded
        payloads directly.
        """
        return self._payload(key), self._lengths[key]

    def _payload(self, key: Hashable) -> bytes:
        try:
            return self._blobs[key]
        except KeyError:
            raise StorageError(f"no bitmap stored under key {key!r}") from None

    def version(self, key: Hashable) -> int:
        """Monotonic per-key write counter (0 for a never-stored key).

        Bumped on every :meth:`put`/:meth:`put_payload`/:meth:`attach_payload`,
        so a cache holding a decoded copy of ``key`` can detect that the
        stored payload was replaced (an append rewrites every bitmap)
        and re-read instead of serving the stale object.
        """
        return self._versions.get(key, 0)

    def info(self, key: Hashable) -> StoredBitmapInfo:
        """Metadata for the bitmap stored under ``key``."""
        payload = self._payload(key)
        return StoredBitmapInfo(
            key=key,
            length=self._lengths[key],
            encoded_bytes=len(payload),
            pages=pages_for(len(payload), self._page_size),
        )

    # ------------------------------------------------------------------

    def __contains__(self, key: Hashable) -> bool:
        return key in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)

    def keys(self) -> Iterator[Hashable]:
        """All stored keys."""
        return iter(self._blobs)

    def total_bytes(self) -> int:
        """Sum of encoded payload sizes."""
        return sum(len(blob) for blob in self._blobs.values())

    def total_pages(self) -> int:
        """Sum of page footprints (the store's disk-space cost)."""
        return sum(
            pages_for(len(blob), self._page_size) for blob in self._blobs.values()
        )


class DirectoryStore(BitmapStore):
    """A :class:`BitmapStore` that also persists blobs to files.

    Each bitmap is written to ``directory / stable_blob_name(key)``.
    Deriving the file name from the key (rather than a sequential
    counter) means a store constructed over a non-empty directory can
    never hand a new key a file that already belongs to a different
    key, and the same key always lands on the same file across
    processes.  Writes are atomic (temp → fsync → rename).
    """

    def __init__(
        self,
        directory: str | Path,
        codec: Codec | str = "raw",
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(codec, page_size)
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        """The directory blobs are written under."""
        return self._directory

    def _store_payload(self, key: Hashable, payload: bytes) -> None:
        atomic_write_bytes(self._directory / stable_blob_name(key), payload)

    def path_for(self, key: Hashable) -> Path:
        """Filesystem path of the bitmap stored under ``key``."""
        if key not in self._blobs:
            raise StorageError(f"no bitmap stored under key {key!r}")
        return self._directory / stable_blob_name(key)

    def read_from_disk(self, key: Hashable) -> BitVector:
        """Decode the bitmap by actually reading its file."""
        payload = self.path_for(key).read_bytes()
        return self._codec.decode(payload, self._lengths[key])
