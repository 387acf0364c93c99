"""Page-granularity helpers.

Bitmaps are stored and read in whole pages, as on the paper's Unix file
system; all space and I/O accounting rounds byte counts up to pages.
"""

from __future__ import annotations

from repro.errors import StorageError

#: Default page size (8 KiB, a typical DBMS page).
DEFAULT_PAGE_SIZE = 8192


def validate_page_size(page_size: int) -> int:
    """Return ``page_size`` after checking it is a usable positive size.

    Stores validate at construction time so a bad page size fails
    immediately rather than on the first accounting call.
    """
    if page_size < 1:
        raise StorageError(f"page size must be >= 1, got {page_size}")
    return page_size


def pages_for(num_bytes: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Number of whole pages needed to store ``num_bytes`` bytes.

    Zero bytes still occupy one page (every stored bitmap has a page of
    its own; the paper stores each bitmap as a separate file region).
    """
    if num_bytes < 0:
        raise StorageError(f"byte count must be >= 0, got {num_bytes}")
    validate_page_size(page_size)
    return max(1, -(-num_bytes // page_size))


def decoded_pages(length: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Pages one decoded ``length``-bit bitmap occupies (whole words)."""
    return pages_for(8 * -(-length // 64), page_size)
