"""Fixed-length bit vectors backed by numpy ``uint64`` words.

The paper's whole premise is that bitmap manipulation maps onto bulk
bit-wise instructions.  :class:`BitVector` mirrors that: every logical
operation is a single vectorized numpy expression over 64-bit words, and
bits past the logical length are kept zero at all times (the *padding
invariant*) so that popcounts and comparisons never need masking.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import BitmapError

_WORD_BITS = 64
_FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _num_words(num_bits: int) -> int:
    """Number of 64-bit words needed to hold ``num_bits`` bits."""
    return (num_bits + _WORD_BITS - 1) // _WORD_BITS


class BitVector:
    """A fixed-length sequence of bits supporting bulk logical operations.

    Instances are mutable (bits can be set and cleared in place) but all
    logical operators (``&``, ``|``, ``^``, ``~``) return new vectors, which
    matches how query evaluation treats stored bitmaps as read-only inputs.

    Parameters
    ----------
    length:
        The number of bits (the cardinality of the indexed relation).
    words:
        Optional backing array.  When given it is used directly (not
        copied); it must be a ``uint64`` array of exactly the right size
        with zero padding bits.  This is an internal fast path used by the
        builders and codecs.
    """

    __slots__ = ("_length", "_words")

    def __init__(self, length: int, words: np.ndarray | None = None):
        if length < 0:
            raise BitmapError(f"bit vector length must be >= 0, got {length}")
        self._length = length
        if words is None:
            self._words = np.zeros(_num_words(length), dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (_num_words(length),):
                raise BitmapError(
                    "backing words must be a uint64 array of "
                    f"{_num_words(length)} words, got {words.dtype} array "
                    f"of shape {words.shape}"
                )
            self._words = words

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        """An all-zero vector of ``length`` bits."""
        return cls(length)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        """An all-one vector of ``length`` bits."""
        vec = cls(length)
        vec._words[:] = _FULL_WORD
        vec._mask_padding()
        return vec

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitVector":
        """A vector with exactly the bits at ``indices`` set.

        Raises :class:`BitmapError` if any index is out of range.
        """
        vec = cls(length)
        idx = np.fromiter(indices, dtype=np.int64)
        if idx.size == 0:
            return vec
        if idx.min() < 0 or idx.max() >= length:
            raise BitmapError(
                f"bit index out of range for length {length}: "
                f"[{idx.min()}, {idx.max()}]"
            )
        words, offsets = np.divmod(idx, _WORD_BITS)
        np.bitwise_or.at(vec._words, words, np.uint64(1) << offsets.astype(np.uint64))
        return vec

    @classmethod
    def from_bools(cls, bits: Sequence[bool] | np.ndarray) -> "BitVector":
        """A vector whose i-th bit equals ``bool(bits[i])``."""
        arr = np.asarray(bits, dtype=bool)
        if arr.ndim != 1:
            raise BitmapError(f"expected a 1-d boolean sequence, got ndim={arr.ndim}")
        length = arr.shape[0]
        vec = cls(length)
        if length == 0:
            return vec
        packed = np.packbits(arr, bitorder="little")
        padded = np.zeros(_num_words(length) * 8, dtype=np.uint8)
        padded[: packed.shape[0]] = packed
        vec._words = padded.view(np.uint64)
        return vec

    @classmethod
    def from_bytes(cls, length: int, payload: bytes) -> "BitVector":
        """Inverse of :meth:`to_bytes`."""
        expected = _num_words(length) * 8
        if len(payload) != expected:
            raise BitmapError(
                f"payload has {len(payload)} bytes; length {length} needs {expected}"
            )
        words = np.frombuffer(payload, dtype=np.uint64).copy()
        vec = cls(length, words)
        vec._mask_padding()
        return vec

    def copy(self) -> "BitVector":
        """An independent copy of this vector."""
        return BitVector(self._length, self._words.copy())

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def words(self) -> np.ndarray:
        """The backing ``uint64`` word array (read-mostly; padding is zero)."""
        return self._words

    @property
    def num_words(self) -> int:
        """Number of backing 64-bit words."""
        return self._words.shape[0]

    def __getitem__(self, index: int) -> bool:
        index = self._check_index(index)
        word, offset = divmod(index, _WORD_BITS)
        return bool((self._words[word] >> np.uint64(offset)) & np.uint64(1))

    def __setitem__(self, index: int, value: bool) -> None:
        index = self._check_index(index)
        word, offset = divmod(index, _WORD_BITS)
        mask = np.uint64(1) << np.uint64(offset)
        if value:
            self._words[word] |= mask
        else:
            self._words[word] &= ~mask

    def _check_index(self, index: int) -> int:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise BitmapError(f"bit index {index} out of range for length {self._length}")
        return index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash((self._length, self._words.tobytes()))

    def __repr__(self) -> str:
        if self._length <= 80:
            bits = "".join("1" if b else "0" for b in self.to_bools())
            return f"BitVector({self._length}, '{bits}')"
        return f"BitVector({self._length}, popcount={self.count()})"

    # ------------------------------------------------------------------
    # Logical operations (the hardware-friendly core)
    # ------------------------------------------------------------------

    def _check_same_length(self, other: "BitVector") -> None:
        if self._length != other._length:
            raise BitmapError(
                f"length mismatch: {self._length} vs {other._length}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector(self._length, self._words & other._words)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector(self._length, self._words | other._words)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector(self._length, self._words ^ other._words)

    def __invert__(self) -> "BitVector":
        result = BitVector(self._length, ~self._words)
        result._mask_padding()
        return result

    def __iand__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        self._words &= other._words
        return self

    def __ior__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        self._words |= other._words
        return self

    def __ixor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        self._words ^= other._words
        return self

    def invert_inplace(self) -> "BitVector":
        """Complement every bit in place and return ``self``."""
        np.invert(self._words, out=self._words)
        self._mask_padding()
        return self

    def _mask_padding(self) -> None:
        """Clear the padding bits in the last word (the padding invariant)."""
        tail = self._length % _WORD_BITS
        if tail and self._words.shape[0]:
            self._words[-1] &= (np.uint64(1) << np.uint64(tail)) - np.uint64(1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def count(self) -> int:
        """Number of set bits (population count)."""
        return int(np.bitwise_count(self._words).sum())

    def any(self) -> bool:
        """True iff at least one bit is set."""
        return bool(self._words.any())

    def all(self) -> bool:
        """True iff every bit (within the logical length) is set."""
        return self.count() == self._length

    def to_bools(self) -> np.ndarray:
        """The bits as a boolean numpy array of the logical length."""
        as_bytes = self._words.view(np.uint8)
        bits = np.unpackbits(as_bytes, bitorder="little")
        return bits[: self._length].astype(bool)

    def take(self, positions: np.ndarray) -> np.ndarray:
        """The bits at ``positions`` (an int64 array) as a boolean array:
        one word gather and one shift, no unpacking."""
        shifts = (positions & 63).astype(np.uint64)
        return ((self._words[positions >> 6] >> shifts) & np.uint64(1)).astype(bool)

    def to_indices(self) -> np.ndarray:
        """Sorted array of the positions of set bits."""
        return np.flatnonzero(self.to_bools())

    def to_bytes(self) -> bytes:
        """The raw little-endian word payload (inverse of :meth:`from_bytes`)."""
        return self._words.tobytes()

    def density(self) -> float:
        """Fraction of set bits, 0.0 for the empty vector."""
        if self._length == 0:
            return 0.0
        return self.count() / self._length

    def iter_set_bits(self) -> Iterator[int]:
        """Iterate over positions of set bits in increasing order."""
        yield from self.to_indices().tolist()
