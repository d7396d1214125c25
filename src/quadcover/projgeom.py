"""Points of PG(5, q): canonical forms, lines, row reduction, enumeration.

Projective points are normalized 6-tuples of field bit masks whose first
nonzero coordinate is 1, so point equality is tuple equality.  Row spaces
are reduced to reduced row echelon form, their canonical basis.  Dense point
indices live in the quadric model (`quadric.QuadricModel`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .gf2n import FieldCtx

Vec = Tuple[int, ...]


# -- vector helpers -----------------------------------------------------------


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple([a ^ b for a, b in zip(u, v)])


def vec_scale(ctx: FieldCtx, c: int, v: Sequence[int]) -> Vec:
    row = ctx.mul_rows[c]
    return tuple([row[a] for a in v])


def normalize_tuple(ctx: FieldCtx, raw: Sequence[int]) -> Vec:
    """Scale `raw` so its first nonzero coordinate is 1; rejects the zero vector."""
    for a in raw:
        if a:
            if a == 1:
                return tuple(raw)
            row = ctx.mul_rows[ctx.inv_row[a]]
            return tuple([row[b] for b in raw])
    raise ValueError("cannot normalize the zero vector")


def line_points(ctx: FieldCtx, a: Sequence[int], b: Sequence[int]) -> List[Vec]:
    """The q+1 normalized points of the line through distinct points a, b."""
    an = normalize_tuple(ctx, a)
    bn = normalize_tuple(ctx, b)
    if an == bn:
        raise ValueError("line through a single point is undefined")
    pts = [an, bn]
    for t in ctx.nonzero():
        pts.append(normalize_tuple(ctx, vec_add(an, vec_scale(ctx, t, bn))))
    out = sorted(set(pts))
    if len(out) != ctx.q + 1:
        raise AssertionError("line does not have q+1 distinct points")
    return out


# -- Gaussian elimination -----------------------------------------------------


def rref(ctx: FieldCtx, rows: Iterable[Sequence[int]]) -> Tuple[Vec, ...]:
    """Reduced row echelon form over GF(2^n); the canonical basis of the row space."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = ctx.inv(mat[pivot_row][col])
        mat[pivot_row] = [ctx.mul(inv, x) for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [x ^ ctx.mul(c, y) for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


def null_space(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> Tuple[Vec, ...]:
    """Canonical basis of {v : M v = 0} for the matrix with the given rows."""
    if not rows:
        return ()
    reduced = rref(ctx, rows)
    ncols = len(rows[0])
    pivots = []
    for row in reduced:
        pivots.append(next(i for i, x in enumerate(row) if x))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for prow, pcol in zip(reduced, pivots):
            v[pcol] = prow[fc]
        basis.append(tuple(v))
    return rref(ctx, basis) if basis else ()


# -- enumeration --------------------------------------------------------------


def enumerate_points(ctx: FieldCtx, dim: int = 6) -> np.ndarray:
    """All normalized points of PG(dim-1, q) as one (N, dim) int16 array,
    rows sorted lexicographically by bit mask.

    Read as a base-q code, a normalized point with t coordinates after its
    leading 1 lies in [q^t, 2 q^t), so the ascending codes are those ranges
    for t = 0..dim-1 and their digits are the rows in lexicographic order.
    """
    codes = np.concatenate([np.arange(1 << (ctx.n * t), 2 << (ctx.n * t))
                            for t in range(dim)])
    shifts = ctx.n * np.arange(dim - 1, -1, -1)
    return ((codes[:, None] >> shifts) & (ctx.q - 1)).astype(np.int16)
