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

Codecs are looked up by name via :func:`get_codec`.  Each format has
one module and one reader: a :class:`BlockStream`
(:mod:`repro.compress.streams`) defined beside the codec and opened by
its ``_stream`` method.  Decode is the stream's full window; logical
operations on encoded bitmaps run through :func:`repro.expr.evaluate`'s
range walk over the streams, and :class:`CompressedBitmap` puts that
walk behind the ``BitVector`` operator protocol for any codec in
:data:`COMPRESSED_DOMAIN_CODECS` (every registered codec except
``raw``).  A new codec needs one :func:`register_codec` call, nothing
else.
"""

from repro.compress.adaptive import (
    CODEC_IDS,
    AutoCodec,
    ShapeStats,
    measure,
    payload_codec_name,
    select_codec,
    split_payload,
)
from repro.compress.base import Codec, available_codecs, get_codec, register_codec
from repro.compress.bbc import BbcCodec
from repro.compress.compressed_ops import COMPRESSED_DOMAIN_CODECS, CompressedBitmap
from repro.compress.ewah import EwahCodec
from repro.compress.position_list import PositionListCodec
from repro.compress.range_list import RangeListCodec
from repro.compress.raw import RawCodec
from repro.compress.roaring import RoaringCodec
from repro.compress.stats import CompressionStats, measure_all_codecs, measure_codec
from repro.compress.streams import BlockStream, open_stream
from repro.compress.wah import WahCodec

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
    "PositionListCodec",
    "RangeListCodec",
    "AutoCodec",
    "ShapeStats",
    "CODEC_IDS",
    "measure",
    "select_codec",
    "split_payload",
    "payload_codec_name",
    "BlockStream",
    "open_stream",
]
