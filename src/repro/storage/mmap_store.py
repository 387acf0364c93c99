"""Zero-copy mmap-backed bitmap store.

:class:`MappedDirectoryStore` is a :class:`~repro.storage.store.DirectoryStore`
whose payloads are memory-mapped read-only instead of copied into the
heap.  :meth:`~repro.storage.store.BitmapStore.payload_view` then hands
out ``uint8`` views *into the mapping* — the OS page cache is the only
copy of the encoded index, and a raw-codec
:meth:`~repro.storage.store.BitmapStore.get_view` aliases it directly
as ``uint64`` words.

Safety properties:

* **Verified before mapped.**  :meth:`attach_mapped` checks the blob's
  byte length and CRC32 against the manifest *before* registering the
  mapping, raising the same typed errors as the copying loader
  (:class:`~repro.errors.TruncatedBlobError`,
  :class:`~repro.errors.ManifestMismatchError`,
  :class:`~repro.errors.ChecksumMismatchError`,
  :class:`~repro.errors.MissingBlobError`) — a corrupt file never
  becomes a live view.
* **Read-only.**  Mappings use ``mmap.ACCESS_READ``, so the numpy views
  are non-writeable; accidental in-place mutation of a fetched bitmap
  raises instead of silently corrupting the store.
* **Rename-safe.**  :func:`~repro.storage.store.atomic_write_bytes`
  replaces blobs via ``os.replace``; an existing mapping keeps the old
  inode alive until its views are garbage collected, so readers holding
  a view across an append never see torn bytes.
* **Fault-mode fallback.**  When a
  :class:`~repro.storage.faults.FaultInjector` is installed the store
  degrades to the copying path (counted as
  ``storage.mmap.copy_fallbacks``), because fault tests deliberately
  rewrite files under the reader.

Obs counters: ``storage.mmap.maps`` (mappings established),
``storage.mmap.view_bytes`` (bytes handed out as zero-copy views) and
``storage.mmap.copy_fallbacks`` (handouts served from a heap copy).
"""

from __future__ import annotations

import mmap
import zlib
from collections.abc import Hashable
from pathlib import Path

import numpy as np

from repro import obs as _obs
from repro.errors import (
    ChecksumMismatchError,
    ManifestMismatchError,
    MissingBlobError,
    TruncatedBlobError,
)
from repro.storage import faults
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.store import DirectoryStore, StoredBitmapInfo, stable_blob_name

_EMPTY = np.empty(0, dtype=np.uint8)


class MappedDirectoryStore(DirectoryStore):
    """A :class:`DirectoryStore` serving payloads as read-only mmap views."""

    def __init__(
        self,
        directory: str | Path,
        codec="raw",
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(directory, codec, page_size)
        self._maps: dict[Hashable, np.ndarray] = {}
        self._mmaps: dict[Hashable, mmap.mmap] = {}

    # ------------------------------------------------------------------

    def attach_mapped(
        self,
        key: Hashable,
        length: int,
        path: str | Path | None = None,
        expected_bytes: int | None = None,
        expected_crc: int | None = None,
    ) -> StoredBitmapInfo:
        """Map the blob file for ``key`` and register it under the key.

        Verification happens *on the mapped bytes, before registration*:
        a size or checksum disagreement raises the same typed error the
        copying loader would, and the store is left without the key —
        a poisoned view can never be handed out.  With a fault injector
        installed the file is read and attached as a heap copy instead
        (fault tests rewrite blobs in place, which would invalidate a
        live mapping).
        """
        if path is None:
            path = self._directory / stable_blob_name(key)
        path = Path(path)

        if faults.active() is not None:
            payload = self._read_checked(path, key, expected_bytes, expected_crc)
            return self.attach_payload(key, payload, length)

        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            raise MissingBlobError(
                f"bitmap {key!r}: file {path.name} is missing from {path.parent}"
            ) from None
        with fh:
            size = fh.seek(0, 2)
            self._check_size(size, key, path, expected_bytes)
            if size == 0:
                mapping = None
                view = _EMPTY
            else:
                mapping = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
                view = np.frombuffer(mapping, dtype=np.uint8)
        if expected_crc is not None:
            actual_crc = zlib.crc32(view) & 0xFFFFFFFF
            if actual_crc != expected_crc:
                if mapping is not None:
                    del view  # release the exported pointer, then unmap
                    mapping.close()
                raise ChecksumMismatchError(
                    f"bitmap {key!r}: file {path.name} CRC32 {actual_crc:#010x} "
                    f"does not match manifest {expected_crc:#010x}"
                )

        self._drop_mapping(key)
        self._blobs[key] = view  # the view itself, never a copy
        self._lengths[key] = int(length)
        self._versions[key] = self._versions.get(key, 0) + 1
        self._maps[key] = view
        if mapping is not None:
            self._mmaps[key] = mapping
        o = _obs.active()
        if o is not None:
            o.count("storage.mmap.maps", 1)
        return self.info(key)

    def _check_size(
        self, size: int, key: Hashable, path: Path, expected_bytes: int | None
    ) -> None:
        if expected_bytes is None:
            return
        if size < expected_bytes:
            raise TruncatedBlobError(
                f"bitmap {key!r}: file {path.name} holds {size} bytes, "
                f"manifest records {expected_bytes}"
            )
        if size > expected_bytes:
            raise ManifestMismatchError(
                f"bitmap {key!r}: file {path.name} holds {size} bytes, "
                f"longer than the {expected_bytes} the manifest records"
            )

    def _read_checked(
        self,
        path: Path,
        key: Hashable,
        expected_bytes: int | None,
        expected_crc: int | None,
    ) -> bytes:
        """Copying fallback with identical verification and errors."""
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            raise MissingBlobError(
                f"bitmap {key!r}: file {path.name} is missing from {path.parent}"
            ) from None
        self._check_size(len(payload), key, path, expected_bytes)
        if expected_crc is not None:
            actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
            if actual_crc != expected_crc:
                raise ChecksumMismatchError(
                    f"bitmap {key!r}: file {path.name} CRC32 {actual_crc:#010x} "
                    f"does not match manifest {expected_crc:#010x}"
                )
        return payload

    # ------------------------------------------------------------------

    def _put(self, key, payload, length) -> None:
        """Write the blob durably, then serve it from a fresh mapping."""
        super()._put(key, payload, length)
        if faults.active() is None:  # fault runs stay on the copying path
            self.attach_mapped(key, length)

    def _attach(self, key, payload, length) -> None:
        self._drop_mapping(key)
        super()._attach(key, payload, length)

    def payload_view(self, key: Hashable) -> np.ndarray:
        view = self._maps.get(key)
        if view is None:
            return super().payload_view(key)  # counts copy_fallbacks
        if key not in self._blobs:
            return super().payload_view(key)  # raises StorageError
        o = _obs.active()
        if o is not None:
            o.count("storage.mmap.view_bytes", int(view.nbytes))
        return view

    def is_mapped(self, key: Hashable) -> bool:
        """True iff ``key`` is currently served zero-copy from a mapping."""
        return key in self._maps

    def _drop_mapping(self, key: Hashable) -> None:
        self._maps.pop(key, None)
        mapping = self._mmaps.pop(key, None)
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                pass  # outstanding views keep the pages alive; GC reclaims

    def close(self) -> None:
        """Best-effort release of every mapping.

        Views already handed out keep their pages alive until collected;
        ``close`` only drops the store's own references.
        """
        for key in list(self._mmaps):
            self._drop_mapping(key)
        self._maps.clear()
