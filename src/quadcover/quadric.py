"""The elliptic quadric in PG(5, q), its lines, hyperplane section, nucleus, elation.

The model is built by brute enumeration: evaluate the quadratic form on every
point of PG(5, q), collect the zeros, and recover all structure (lines,
nucleus, elation) from the form itself.  Everything downstream speaks in dense
quadric point indices and reads the bilinear form in blocks, from three
q^2-row tables, one per hyperbolic pair of coordinates, with no |Q| x |Q|
array held.  One kernel evaluates it: take the tables' columns, then gather
their rows by each point's key.  The form has two readings, each taking the
columns once and yielding rows in blocks: `QuadricModel.alpha_blocks`, the
uint8 values (`alpha` is its one-block case), and `perp_blocks`, the bits
[alpha == 0] as packed rows, from the tables' packed bit planes.

Coordinates: f(x) = x1*x2 + x3*x4 + x5^2 + x5*x6 + lam*x6^2 with trace(lam) = 1,
polarized to alpha(u, v) = u1*v2 + u2*v1 + u3*v4 + u4*v3 + u5*v6 + u6*v5.
The distinguished hyperplane is {x6 = 0}; its parabolic quadric section, the
radical point of alpha restricted to it (the nucleus), and the central
elation fixing it pointwise are computed, not assumed.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .bitrows import n_words, pack_rows, pad_mask, row_bits
from .gf2n import FieldCtx, trace
from .projgeom import Vec, enumerate_points, normalize_tuple, null_space

MAX_BUILD_DEGREE = 3  # model enumeration is desk-scale only through q = 8
PERP_BLOCK = 1 << 19  # bytes of perp rows a block of _build_lines: alpha entries or packed words


class QuadricModel:
    """Full incidence model of the elliptic quadric and its parabolic section.

    Attributes
    ----------
    ctx, lam : field context and the trace-1 form parameter.
    coords : (|Q|, 6) int16 array of the normalized quadric points, sorted
        lexicographically; a point's row is its dense index.
    index_by_code : (2^(6n),) int32 array, the dense index of each point
        read as a 6n-bit code (see `_point_codes`), -1 off the quadric.
    lines : (L, q+1) int32 array, the ascending point indices of each quadric
        line, rows in ascending order.
    lines_through : (|Q|, q^2+1) int32 array, the ascending ids of the lines
        through each point.
    pair_tables, pair_keys : (3q^2, |Q|) uint8 and (3, |Q|) intp arrays.
        Rows i*q^2 + a*q + b, i = 0, 1, 2, hold a*y_{2i+2} + b*y_{2i+1} over
        all points y; point x's keys are i*q^2 + x_{2i+1}*q + x_{2i+2}.  Read
        only by the form's two readings, `alpha_blocks` and `perp_blocks`.
    in_section : boolean mask of points lying in the hyperplane {x6 = 0}.
    section_points / affine_points : ascending int32 arrays of the point
        indices on the two sides of the split.
    section_index : (|Q|,) int32 array, each section point's position in
        section_points (its dense section index), -1 at affine points.
    nucleus : coordinates of the radical point of the restricted form (off Q).
    elation_perm : involutive permutation of point indices with axis {x6 = 0}.
    """

    def __init__(self, ctx: FieldCtx, lam: int):
        self.ctx = ctx
        self.lam = lam
        self.coords: np.ndarray
        self.index_by_code: np.ndarray
        self.lines: np.ndarray
        self.lines_through: np.ndarray
        self.pair_tables: np.ndarray
        self.pair_keys: np.ndarray
        self.in_section: np.ndarray
        self.section_points: np.ndarray
        self.affine_points: np.ndarray
        self.section_index: np.ndarray
        self.nucleus: Vec
        self.elation_perm: np.ndarray

    # -- scalar form evaluation ----------------------------------------------

    def f_scalar(self, v: Sequence[int]) -> int:
        M = self.ctx.mul_rows
        x1, x2, x3, x4, x5, x6 = v
        return M[x1][x2] ^ M[x3][x4] ^ M[x5][x5 ^ x6] ^ M[self.lam][M[x6][x6]]

    def alpha_scalar(self, u: Sequence[int], v: Sequence[int]) -> int:
        M = self.ctx.mul_rows
        u1, u2, u3, u4, u5, u6 = u
        v1, v2, v3, v4, v5, v6 = v
        return M[u1][v2] ^ M[u2][v1] ^ M[u3][v4] ^ M[u4][v3] ^ M[u5][v6] ^ M[u6][v5]

    def index_of(self, v: Sequence[int]) -> Optional[int]:
        """Dense index of a quadric point given by any representative, else None."""
        code, n = 0, self.ctx.n
        for a in normalize_tuple(self.ctx, v):
            code = (code << n) | a
        i = self.index_by_code.item(code)
        return None if i < 0 else i

    def point(self, i: int) -> Vec:
        return tuple(self.coords[i].tolist())

    @property
    def n_points(self) -> int:
        return len(self.coords)

    def alpha(self, rows, cols) -> np.ndarray:
        """The uint8 block [alpha(x, y)] over point indices x in rows and y in
        cols: `alpha_blocks` in one block, with no generator frame."""
        return _xor_keys(self.pair_tables.take(cols, axis=1), self.pair_keys.take(rows, axis=1))

    def alpha_blocks(self, rows, cols, step: int) -> Iterator[np.ndarray]:
        """The rows of the block `alpha(rows, cols)`, yielded `step` rows at
        a time.  The pair tables' columns are taken once, then each block's
        rows gathered from them by key: columns first was faster than rows
        first on every block shape the package reads at q = 8, and taking
        them once saves one 3q^2 x len(cols) take a block.  The callers take
        each block with `next` and bind no name to it, so that it is freed
        before the next one is gathered."""
        table = self.pair_tables.take(cols, axis=1)
        for lo in range(0, len(rows), step):
            yield _xor_keys(table, self.pair_keys.take(rows[lo:lo + step], axis=1))

    def perp_blocks(self, rows, cols, step: int) -> Iterator[np.ndarray]:
        """The rows of `pack_rows(collinear(rows, cols))`, `step` rows a
        block.  alpha is the XOR of three pair-table entries, and XOR acts on
        each bit plane alone: the column table's n bit planes are packed
        once, and a row is the XOR of its keys' packed planes, ORed over the
        planes, inverted, padding cleared.  At q = 8 it is 1.6-3.5 times as
        fast as packing `alpha_blocks` on large blocks, slower on small ones."""
        table = self.pair_tables.take(cols, axis=1)
        planes = [pack_rows(table & (1 << b)) for b in range(self.ctx.n)]
        del table                       # the blocks read only the planes
        for lo in range(0, len(rows), step):
            keys = self.pair_keys.take(rows[lo:lo + step], axis=1)
            out = _xor_keys(planes[0], keys)
            for plane in planes[1:]:
                out |= _xor_keys(plane, keys)
            np.invert(out, out=out)
            out[:, -1:] &= pad_mask(len(cols))
            yield out

    def collinear(self, rows, cols) -> np.ndarray:
        """The boolean block [alpha(x, y) == 0] over point indices x in rows
        and y in cols: collinearity for two quadric points.  The diagonal of
        a square block is True, as alpha(x, x) = 0."""
        return self.alpha(rows, cols) == 0


def _xor_keys(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """XOR over the hyperbolic pairs of a column table's rows at each point's keys."""
    part = table.take(keys, axis=0)
    out = part[0] ^ part[1]
    out ^= part[2]
    return out


def _f_vectorized(ctx: FieldCtx, lam: int, coords: np.ndarray) -> np.ndarray:
    M = ctx.mul_table
    c = coords
    out = M[c[:, 0], c[:, 1]] ^ M[c[:, 2], c[:, 3]] ^ M[c[:, 4], c[:, 4]] ^ M[c[:, 4], c[:, 5]]
    out ^= M[np.full(len(c), lam), M[c[:, 5], c[:, 5]]]
    return out


def build_model(ctx: FieldCtx, lam=None) -> QuadricModel:
    """Enumerate the quadric and all derived structure; verifies counts as it goes."""
    if ctx.n > MAX_BUILD_DEGREE:
        raise ValueError(f"model enumeration supported for n <= {MAX_BUILD_DEGREE}")
    if lam is None:
        lam = ctx.default_form_parameter()
    lam = int(lam)
    if not 0 <= lam < ctx.q:
        raise ValueError(f"form parameter must be a field element in 0..{ctx.q - 1}")
    if trace(ctx, lam) != 1:
        raise ValueError("form parameter must have trace 1")
    q = ctx.q
    model = QuadricModel(ctx, lam)

    pg = enumerate_points(ctx, 6)
    model.coords = pg[_f_vectorized(ctx, lam, pg) == 0]
    nq = model.n_points
    if nq != (q + 1) * (q**3 + 1):
        raise AssertionError(f"|Q| = {nq}, expected {(q + 1) * (q**3 + 1)}")
    model.index_by_code = np.full(1 << (6 * ctx.n), -1, dtype=np.int32)
    model.index_by_code[_point_codes(ctx.n, model.coords)] = np.arange(nq)

    # one table per hyperbolic pair of coordinates, read by `alpha`
    c, M = model.coords, ctx.mul_table.astype(np.uint8)
    tables = np.empty((3, q, q, nq), dtype=np.uint8)
    for t, i in zip(tables, (0, 2, 4)):
        np.bitwise_xor(M[:, None, c[:, i + 1]], M[None, :, c[:, i]], out=t)
    model.pair_tables = tables.reshape(3 * q * q, nq)
    keys = c[:, 0::2] * q + c[:, 1::2] + np.arange(0, 3 * q * q, q * q)
    model.pair_keys = np.ascontiguousarray(keys.T, dtype=np.intp)
    _build_lines(model)

    model.in_section = model.coords[:, 5] == 0
    model.section_points = np.flatnonzero(model.in_section).astype(np.int32)
    model.affine_points = np.flatnonzero(~model.in_section).astype(np.int32)
    if len(model.section_points) != (q + 1) * (q**2 + 1):
        raise AssertionError("hyperplane section point count mismatch")
    model.section_index = np.full(nq, -1, dtype=np.int32)
    model.section_index[model.section_points] = np.arange(len(model.section_points))

    _find_nucleus(model)
    _build_elation(model)
    return model


def _point_codes(n: int, rows: np.ndarray) -> np.ndarray:
    """Each coordinate row (..., 6) read as one 6n-bit integer.  The points
    are sorted lexicographically, so their codes are increasing."""
    code = np.zeros(rows.shape[:-1], dtype=np.int64)
    for j in range(6):
        code = (code << n) | rows[..., j]
    return code


def _build_lines(model: QuadricModel) -> None:
    """The totally singular lines, each emitted once from its two smallest points.

    In characteristic 2 the line joining two quadric points lies on the
    quadric exactly when the points are perpendicular.  Let piv be the first
    nonzero coordinate of a normalized point.  A line's smallest point x is
    its only point with the largest piv, and its second point k is the one
    with k[piv(x)] = 0; its points are x and k + t*x for t = 0, 1, ..., q-1,
    in sorted order.  So the lines are the perp pairs (x, k) with
    piv(k) < piv(x) and k[piv(x)] = 0.  The laws checked: there are
    (q^3+1)(q^2+1) lines, every point of a line is on the quadric and
    perpendicular to the others, the common perp of x and k is the line,
    each point's perp is the union of its q^2+1 lines, and the sorted
    (line, point) keys of `lines_through` are those of `lines`.

    Every block is sized from PERP_BLOCK, to a few MiB at any q: row
    blocks of PERP_BLOCK alpha entries or perp bits (113 rows of all |Q|
    points at q = 8, 7 at q = 16), and line checks on as many lines as have
    PERP_BLOCK bytes of packed perp rows at their smallest points (897 at
    q = 8, 60 at q = 16).
    """
    ctx = model.ctx
    q = ctx.q
    nq = model.n_points
    c = model.coords
    piv = (c != 0).argmax(axis=1)
    xs, ks = [], []
    for p in range(5, 0, -1):           # points with a larger pivot sort first
        X = np.flatnonzero(piv == p)
        K = np.flatnonzero((piv < p) & (c[:, p] == 0))
        step = max(1, PERP_BLOCK // len(K))
        blocks = model.alpha_blocks(X, K, step)
        for lo in range(0, len(X), step):
            i, j = np.nonzero(next(blocks) == 0)
            xs.append(X[lo + i])
            ks.append(K[j])
    x, k = np.concatenate(xs), np.concatenate(ks)
    expected = nq * (q * q + 1) // (q + 1)
    if len(x) != expected:
        raise AssertionError(f"{len(x)} lines, expected {expected}")

    # code(k + t*x) = code(k) ^ code(t*x), with multiples[t, x] = code(t*x)
    multiples = _point_codes(ctx.n, ctx.mul_table[np.arange(q)[:, None, None], c])
    ln = np.empty((len(x), q + 1), dtype=np.int32)
    ln[:, 0] = x
    ln[:, 1:] = model.index_by_code[_point_codes(ctx.n, c)[k][:, None] ^ multiples[:, x].T]
    # the perp rows, packed: bit y of row x is set exactly when alpha(x, y) == 0
    pts = np.arange(nq)
    words = np.empty((nq, n_words(nq)), dtype="<u8")
    step = max(1, PERP_BLOCK // nq)
    blocks = model.perp_blocks(pts, pts, step)
    for lo in range(0, nq, step):
        words[lo:lo + step] = next(blocks)
    i, j = np.triu_indices(q + 1, 1)
    step = max(1, PERP_BLOCK // words[0].nbytes)
    for lo in range(0, len(x), step):
        chunk = ln[lo:lo + step]
        if (chunk < 0).any() or not row_bits(words, chunk[:, i], chunk[:, j]).all():
            raise AssertionError("a line is not totally singular")
        common = np.bitwise_count(words[x[lo:lo + step]] & words[k[lo:lo + step]]).sum(axis=1)
        if (common != q + 1).any():
            raise AssertionError("common perp of collinear points is not a line")
    # distinct lines through a point meet only there: q^2+1 of them cover
    # q(q^2+1) perps, and a point with more perps has a perp pair on no line
    on = np.bincount(ln.ravel(), minlength=nq)
    perps = np.bitwise_count(words).sum(axis=1) - 1
    del words
    if ((on != q * q + 1) | (perps != q * on)).any():
        raise AssertionError("some point is not on q^2+1 lines that cover its perp")

    model.lines = ln
    model.lines_through = through = incidence_transpose(ln, nq).reshape(nq, q * q + 1)
    key = np.min_scalar_type(len(ln) * nq)      # (line, point) keys, sized from the count
    have = through.astype(key) * nq + pts.astype(key)[:, None]
    want = np.arange(len(ln), dtype=key)[:, None] * nq + ln.astype(key)
    if not np.array_equal(np.sort(have, axis=None), np.sort(want, axis=None)):
        raise AssertionError("lines_through is not the transpose of lines")


def incidence_transpose(table: np.ndarray, n: int) -> np.ndarray:
    """The rows of a 2-D table of ids below n that hold each id, id after id,
    ascending: a stable sort of keys sized from n, as one flat int32 array."""
    keys = table.ravel().astype(np.min_scalar_type(n))
    return (np.argsort(keys, kind="stable") // table.shape[1]).astype(np.int32)


def _find_nucleus(model: QuadricModel) -> None:
    """Radical of the bilinear form restricted to {x6 = 0}, as a projective point."""
    ctx = model.ctx
    basis = [tuple(1 if j == i else 0 for j in range(6)) for i in range(5)]
    restricted = [
        [model.alpha_scalar(bi, bj) for bj in basis] for bi in basis
    ]
    kernel = null_space(ctx, restricted)
    if len(kernel) != 1:
        raise AssertionError("restricted form does not have a 1-dimensional radical")
    nucleus = normalize_tuple(ctx, tuple(kernel[0]) + (0,))
    if model.f_scalar(nucleus) == 0:
        raise AssertionError("nucleus unexpectedly lies on the quadric")
    model.nucleus = nucleus


def second_intersection(model: QuadricModel, x: Sequence[int],
                        c: Sequence[int]) -> Optional[Vec]:
    """Second quadric point on the line through x (on Q) and c (off Q).

    Returns None when the line is tangent at x.  On the affine parametrisation
    c + t*x the quadric condition reads f(c) + t*alpha(c, x) = 0.
    """
    a = model.alpha_scalar(c, x)
    if a == 0:
        return None
    ctx = model.ctx
    t = ctx.mul_rows[ctx.mul_rows[model.f_scalar(c)][ctx.inv_row[a]]]  # t's row
    return normalize_tuple(ctx, [ci ^ t[xi] for ci, xi in zip(c, x)])


def second_intersections(model: QuadricModel, idx: np.ndarray,
                         c: Sequence[int]) -> np.ndarray:
    """`second_intersection` of each quadric point in ``idx`` toward c (off Q),
    as point indices in one pass: y = c + (f(c) / alpha(c, x)) * x.  The
    index is -1 where the line is tangent at x."""
    M = model.ctx.mul_table
    inv = model.ctx.inv_table
    x = model.coords[idx]
    c = np.asarray(c)
    a = np.zeros(len(x), dtype=np.uint16)
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)):
        a ^= M[c[i], x[:, j]]
    t = M[model.f_scalar(c), inv[a]]
    y = c ^ M[t[:, None], x]
    lead = y[np.arange(len(y)), (y != 0).argmax(axis=1)]
    out = model.index_by_code[_point_codes(model.ctx.n, M[inv[lead][:, None], y])]
    out[a == 0] = -1
    return out


def _build_elation(model: QuadricModel) -> None:
    """Pair each point off the axis with its second intersection toward the
    nucleus."""
    nq = model.n_points
    aff = model.affine_points
    other = second_intersections(model, aff, model.nucleus)
    if (other < 0).any():
        raise AssertionError("nucleus line is not a secant")
    perm = np.arange(nq, dtype=np.int32)
    perm[aff] = other
    if not np.array_equal(perm[perm], np.arange(nq)):
        raise AssertionError("elation is not an involution")
    if (perm[aff] == aff).any():
        raise AssertionError("elation fixes a point off its axis")
    model.elation_perm = perm
