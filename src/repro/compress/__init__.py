"""Bitmap compression codecs.

The paper's experiments store indexes both uncompressed and compressed
with "a byte-aligned run-length encoding scheme proposed by Antoshenkov"
(the BBC codec used by Oracle 8).  This subpackage provides:

* :mod:`repro.compress.raw` — identity codec (uncompressed storage);
* :mod:`repro.compress.bbc` — a byte-aligned run-length codec following
  the BBC atom structure;
* :mod:`repro.compress.wah` — 32-bit Word-Aligned Hybrid, the codec that
  later superseded BBC in FastBit (included as a cross-check/ablation);
* :mod:`repro.compress.ewah` — 64-bit Enhanced WAH (ablation);
* :mod:`repro.compress.roaring` — the Roaring container codec
  (2^16-bit chunks with array/bitmap/run containers), an extension
  beyond the paper's run-length family;
* :mod:`repro.compress.position_list` / :mod:`repro.compress.range_list`
  — roaring's array and run containers lifted to whole bitmaps (sorted
  positions, sorted maximal runs);
* :mod:`repro.compress.adaptive` — the ``auto`` meta-codec, which
  measures each bitmap's shape at encode time and tags the payload with
  the cheapest concrete codec (see ``docs/adaptive.md``).

Codecs are looked up by name via :func:`get_codec`.  Every codec except
``raw`` supports compressed-domain AND/OR/XOR/NOT and popcount
(``raw`` gets the same payload-level entry points, which are simply the
plain word operations); :class:`CompressedBitmap` wraps any codec in
:data:`COMPRESSED_DOMAIN_CODECS` behind the ``BitVector`` operator
protocol.
"""

from repro.compress.base import Codec, available_codecs, get_codec, register_codec
from repro.compress.bbc import BbcCodec
from repro.compress.bbc_ops import bbc_count, bbc_logical, bbc_not
from repro.compress.compressed_ops import (
    COMPRESSED_DOMAIN_CODECS,
    COUNT_OPS,
    LOGICAL_OPS,
    NOT_OPS,
    CompressedBitmap,
    ewah_count,
    ewah_logical,
    ewah_not,
    register_compressed_ops,
)
from repro.compress.ewah import EwahCodec
from repro.compress.raw import RawCodec, raw_count, raw_logical, raw_not
from repro.compress.roaring import RoaringCodec
from repro.compress.roaring_ops import roaring_count, roaring_logical, roaring_not
from repro.compress.stats import CompressionStats, measure_all_codecs, measure_codec
from repro.compress.streams import (
    BlockStream,
    open_stream,
    register_stream,
)
from repro.compress.wah import WahCodec
from repro.compress.wah_ops import wah_count, wah_logical, wah_not

# Self-registering codecs: importing these modules adds them to the
# codec registry, the compressed-domain op tables and the stream table,
# so they must come after the registries they extend.
from repro.compress.position_list import (  # noqa: E402
    PositionListCodec,
    position_list_count,
    position_list_logical,
    position_list_not,
)
from repro.compress.range_list import (  # noqa: E402
    RangeListCodec,
    range_list_count,
    range_list_logical,
    range_list_not,
)
from repro.compress.adaptive import (  # noqa: E402
    CODEC_IDS,
    AutoCodec,
    ShapeStats,
    auto_count,
    auto_logical,
    auto_not,
    measure,
    payload_codec_name,
    select_codec,
    split_payload,
)

__all__ = [
    "Codec",
    "RawCodec",
    "BbcCodec",
    "WahCodec",
    "EwahCodec",
    "RoaringCodec",
    "get_codec",
    "register_codec",
    "available_codecs",
    "CompressionStats",
    "measure_codec",
    "measure_all_codecs",
    "CompressedBitmap",
    "COMPRESSED_DOMAIN_CODECS",
    "LOGICAL_OPS",
    "NOT_OPS",
    "COUNT_OPS",
    "ewah_logical",
    "ewah_not",
    "ewah_count",
    "wah_logical",
    "wah_not",
    "wah_count",
    "bbc_logical",
    "bbc_not",
    "bbc_count",
    "roaring_logical",
    "roaring_not",
    "roaring_count",
    "raw_logical",
    "raw_not",
    "raw_count",
    "PositionListCodec",
    "position_list_logical",
    "position_list_not",
    "position_list_count",
    "RangeListCodec",
    "range_list_logical",
    "range_list_not",
    "range_list_count",
    "AutoCodec",
    "ShapeStats",
    "CODEC_IDS",
    "measure",
    "select_codec",
    "split_payload",
    "payload_codec_name",
    "auto_logical",
    "auto_not",
    "auto_count",
    "register_compressed_ops",
    "register_stream",
    "BlockStream",
    "open_stream",
]
