"""Simulated storage stack.

The paper measured wall-clock time on a 1999 disk; this reproduction
substitutes an exactly-accounted simulation (see DESIGN.md §1): bitmaps
are stored page-granular through a codec, reads go through one LRU
buffer pool (whose :class:`~repro.storage.buffer.Residency` keeps
decoded bitmaps or, under the compressed convention, encoded payloads),
and a :class:`~repro.storage.iomodel.CostClock` converts
page reads, decompressed bytes and word operations into simulated time
using a :class:`~repro.storage.iomodel.DiskModel`.
"""

from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.faults import FaultInjector, InjectedCrash
from repro.storage.iomodel import (
    DEFAULT_DISK_MODEL,
    DISK_MODEL_PRESETS,
    CostClock,
    DiskModel,
    get_disk_model,
)
from repro.storage.mmap_store import MappedDirectoryStore
from repro.storage.pages import DEFAULT_PAGE_SIZE, pages_for, validate_page_size
from repro.storage.store import (
    BitmapStore,
    DirectoryStore,
    StoredBitmapInfo,
    atomic_write_bytes,
    stable_blob_name,
)

__all__ = [
    "BitmapStore",
    "DirectoryStore",
    "MappedDirectoryStore",
    "StoredBitmapInfo",
    "BufferPool",
    "BufferStats",
    "DiskModel",
    "CostClock",
    "DEFAULT_DISK_MODEL",
    "DISK_MODEL_PRESETS",
    "get_disk_model",
    "DEFAULT_PAGE_SIZE",
    "pages_for",
    "validate_page_size",
    "atomic_write_bytes",
    "stable_blob_name",
    "FaultInjector",
    "InjectedCrash",
]
