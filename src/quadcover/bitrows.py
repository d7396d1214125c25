"""Bit rows: the one layout of every relation the package holds packed.

A relation on n columns (perp, ovoid membership, tangency, completion
adjacency) is held as rows of little-endian uint64 words: bit j % 64 of
word j // 64 of a row is column j, and the row has `n_words(n)` words, the
bits past column n - 1 clear.  This module alone knows that layout; the
others pack, read, mask and transpose rows through it, one block of rows
a call.  At q <= 8 a completion row (q^2 <= 64 columns) is one word.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

# the stages of `transpose_rows`: j, and the mask of the bits whose column has bit j clear
_BUTTERFLY = [(j, np.uint64(sum(1 << t for t in range(64) if not t & j)))
              for j in (32, 16, 8, 4, 2, 1)]


def n_words(n: int) -> int:
    """The words of a row of n columns."""
    return -(-n // 64)


def pad_mask(n: int) -> np.uint64:
    """The column bits of the last word of a row of n columns."""
    return ~np.uint64(0) >> np.uint64(-n % 64)


def pack_rows(S: np.ndarray) -> np.ndarray:
    """The rows of an array as uint64 words along the last axis, bit set
    where the entry is nonzero, zero padded to a whole word: bit j % 64 of
    word [..., i, j // 64] is S[..., i, j] != 0.  Rows are padded to whole
    bytes and packed as one run, which numpy does about 50 times faster
    than packing rows of 16 one at a time."""
    n = S.shape[-1]
    if n % 8:
        S = np.concatenate([S, np.zeros(S.shape[:-1] + (-n % 8,), dtype=S.dtype)], axis=-1)
    packed = np.packbits(S.reshape(-1), bitorder="little").reshape(
        S.shape[:-1] + (S.shape[-1] // 8,))
    words = np.zeros(packed.shape[:-1] + (n_words(n) * 8,), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view("<u8")


def unpack_rows(words: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    """The first n bits (all when n is None) of rows packed by `pack_rows`, as booleans."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def row_bits(words: np.ndarray, rows, cols) -> np.ndarray:
    """Bit cols of packed row rows (broadcast together), as uint8, nonzero
    where the bit is set: byte cols >> 3 of the row, masked with bit cols & 7."""
    b = words.view(np.uint8)
    return (b.ravel()[rows * b.shape[1] + (cols >> 3)]
            & np.left_shift(1, cols & 7).astype(np.uint8))


def set_bits(rows: np.ndarray, ids: np.ndarray) -> None:
    """Set bit ids[i, k] of packed row i, for every i and k.  Ids of one
    row may share a word, so the bits are ORed in by `np.bitwise_or.at`."""
    np.bitwise_or.at(rows, (np.arange(len(ids))[:, None], ids >> 6),
                     np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64)))


def clear_diagonal(rows: np.ndarray, lo: int) -> None:
    """Clear bit lo + i of packed row i, in every row i."""
    pts = np.arange(lo, lo + len(rows))
    rows[pts - lo, pts >> 6] &= ~(np.uint64(1) << (pts & 63).astype(np.uint64))


def above_diagonal(n: int) -> np.ndarray:
    """The packed n x n mask whose row i holds the columns i < j < n."""
    i = np.arange(n)
    out = np.where(np.arange(n_words(n)) > (i >> 6)[:, None], ~np.uint64(0), np.uint64(0))
    out[i, i >> 6] = np.left_shift(~np.uint64(1), (i & 63).astype(np.uint64))
    out[:, -1] &= pad_mask(n)
    return out


def lowest_set_bits(x: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k lowest set bits of each uint64 word, ascending,
    along a new last axis.  A word with fewer than k set bits is padded with
    the sentinel 64: the lowest set bit of an exhausted word is 0, and 0 - 1
    has 64 set bits."""
    x = x.copy()
    out = np.empty(x.shape + (k,), dtype=np.uint8)
    one = np.uint64(1)
    for r in range(k):
        low = x & (~x + one)
        out[..., r] = np.bitwise_count(low - one)
        x ^= low
    return out


def first_set_bits(rows: np.ndarray) -> np.ndarray:
    """The column of the lowest set bit of each packed row, along the last
    axis, in rows that have a set bit."""
    word = (rows != 0).argmax(axis=-1)
    low = np.take_along_axis(rows, word[..., None], axis=-1)[..., 0]
    return word * 64 + lowest_set_bits(low, 1)[..., 0]


def upper_pairs(P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The adjacent pairs w < z of each group of packed rows, in row-major
    order, as ``nonzero(triu(S, 1))`` lists them.

    P[e, w] is row w of group e's adjacency S, as `pack_rows` packs it into
    one word (at most 64 rows a group).  Each row keeps only its bits above
    w, and the positions of those bits are read lowest first.  Returns the
    flat indices into ``P.ravel()`` of rows w and z, pair by pair.
    """
    B, n = P.shape
    U = P & above_diagonal(n)[:, 0]
    up = np.bitwise_count(U)
    Z = lowest_set_bits(U, int(up.max(initial=0)))
    w = np.repeat(np.arange(B * n), up.ravel())
    z = np.repeat(np.arange(0, B * n, n), up.sum(axis=1, dtype=np.intp)) + Z[Z < 64]
    return w, z


def transpose_rows(words: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    """The first n rows (len(words) when n is None) of the transpose of the
    bit matrix whose rows `pack_rows` packed into words, in the same layout,
    its padding bits zero.  Each 64 x 64 block of bits is transposed in its
    64 words by a butterfly: at stage j = 32, 16, ..., 1, in every 2j x 2j
    sub-block the top right and bottom left j x j quarters swap, by a mask
    and a shift of whole words."""
    r, w = words.shape
    # blocks[c, b, i] is word c of row 64 b + i: one 64 x 64 block a row of 64 words
    blocks = np.zeros((w, n_words(r), 64), dtype="<u8")
    blocks.reshape(w, -1)[:, :r] = words.T
    for j, low in _BUTTERFLY:
        halves = blocks.reshape(w, -1, 2, j)
        top, bottom = halves[:, :, 0], halves[:, :, 1]
        swap = ((top >> j) ^ bottom) & low
        bottom ^= swap
        top ^= swap << j
    # now bit i of blocks[c, b, t] is bit t of word c of row 64 b + i: it is
    # bit i of word b of the transpose's row 64 c + t
    return blocks.transpose(0, 2, 1).reshape(64 * w, -1)[:r if n is None else n]


def transposed_bands(words: np.ndarray, block: int) -> Iterator[Tuple[slice, np.ndarray]]:
    """(rows, t) for each band of the square table's rows, in order: rows
    the band's slice, t the same rows of the table's transpose.  A band is
    64 rows for each of its words of columns, as many as keep it within
    `block` entries, or one word's.  Each t is taken once the band before
    it was yielded, so it reads what the caller wrote there."""
    step = max(1, block // (64 * len(words)))
    for w in range(0, words.shape[1], step):
        rows = slice(64 * w, 64 * (w + step))
        yield rows, transpose_rows(words[:, w:w + step], len(words[rows]))
