"""The helpers of `bitrows` that mask, set, find and transpose bits, each
against a boolean numpy reference, at widths on both sides of a word
boundary and at V = 2016 (q = 8), with the padding bits past the last
column clear in every packed result.  `pack_rows`, `unpack_rows`,
`row_bits`, `lowest_set_bits`, `upper_pairs` and `transpose_rows` are
diffed the same way in `test_cliquecensus.py` and `test_tangency.py`."""

import numpy as np
import pytest

from quadcover.bitrows import (above_diagonal, clear_diagonal, first_set_bits, n_words,
                               pack_rows, pad_mask, set_bits, transposed_bands)

WIDTHS = [1, 63, 64, 65, 129, 2016]


def _bits(words: np.ndarray) -> np.ndarray:
    """Every bit of packed rows, padding included, by shifts of whole words:
    bit j % 64 of word j // 64, as booleans."""
    j = np.arange(64 * words.shape[-1])
    return ((words[..., j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)).astype(bool)


def _assert_rows(words: np.ndarray, S: np.ndarray) -> None:
    """words are the rows of the boolean S packed, padding clear."""
    n = S.shape[-1]
    assert words.dtype == np.uint64 and words.shape == S.shape[:-1] + (n_words(n),)
    bits = _bits(words)
    np.testing.assert_array_equal(bits[..., :n], S)
    assert not bits[..., n:].any()


def _random(rng, rows: int, n: int) -> np.ndarray:
    return rng.random((rows, n)) < rng.random((rows, 1))     # densities 0..1


@pytest.mark.parametrize("n", WIDTHS)
def test_word_count_and_padding_mask(n):
    assert n_words(n) == len(range(0, n, 64))
    last = _bits(np.array([pad_mask(n)], dtype=np.uint64))
    np.testing.assert_array_equal(last, np.arange(64) < n - 64 * (n_words(n) - 1))


@pytest.mark.parametrize("n", WIDTHS)
def test_set_bits_ors_in_every_id(n):
    rng = np.random.default_rng(n + 1)
    base = _random(rng, 30, n)
    ids = rng.integers(0, n, (30, 9))
    ids[:, 1] = ids[:, 0]                         # a repeated id
    ids[:, 2] = np.minimum(ids[:, 0] ^ 1, n - 1)  # a neighbour in the same word
    ids[0] = n - 1                                # only the last column
    want = base.copy()
    want[np.arange(30)[:, None], ids] = True
    words = pack_rows(base)
    set_bits(words, ids)
    _assert_rows(words, want)


@pytest.mark.parametrize("n", WIDTHS)
def test_clear_diagonal_from_any_row(n):
    rng = np.random.default_rng(n + 2)
    for lo in sorted({0, n // 3, n - 1}):
        S = _random(rng, n - lo, n) | (rng.random() < 0.5)   # some tables full
        want = S.copy()
        want[np.arange(n - lo), np.arange(lo, n)] = False
        words = pack_rows(S)
        clear_diagonal(words, lo)
        _assert_rows(words, want)


@pytest.mark.parametrize("n", WIDTHS)
def test_above_diagonal_is_the_strict_upper_triangle(n):
    _assert_rows(above_diagonal(n), np.triu(np.ones((n, n), dtype=bool), 1))


@pytest.mark.parametrize("n", WIDTHS)
def test_first_set_bits_is_the_first_true_column(n):
    rng = np.random.default_rng(n + 3)
    S = rng.random((4, 25, n)) < rng.random((4, 25, 1)) / 8
    S[..., -1] = True                               # every row has a bit
    S[0, 0] = np.arange(n) == n - 1                 # only the last column
    got = first_set_bits(pack_rows(S))
    np.testing.assert_array_equal(got, S.argmax(axis=-1))
    assert first_set_bits(pack_rows(S[1, 3])) == S[1, 3].argmax()


@pytest.mark.parametrize("n", WIDTHS)
def test_transposed_bands_cover_the_transpose(n):
    rng = np.random.default_rng(n + 5)
    A = rng.random((n, n)) < 0.5
    T = pack_rows(A)
    # one band of one word, bands of three words, and a single band
    for block in (1, 3 * 64 * n, n * n):
        bands = list(transposed_bands(T, block))
        assert [r.start for r, _ in bands] == list(range(0, n, bands[0][0].stop))
        _assert_rows(np.concatenate([t for _, t in bands]), A.T)
        # each band's transpose is taken after the rows before it are
        # written: the upper triangle, ORed with it band by band, fills in
        # the lower one
        U = pack_rows(np.triu(A))
        for rows, t in transposed_bands(U, block):
            U[rows] |= t
        _assert_rows(U, np.triu(A) | np.triu(A).T)
