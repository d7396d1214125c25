"""The elliptic quadric in PG(5, q), its lines, hyperplane section, nucleus, elation.

The model is built by brute enumeration: evaluate the quadratic form on every
point of PG(5, q), collect the zeros, and recover all structure (lines,
nucleus, elation) from the form itself.  Everything downstream speaks in dense
quadric point indices; the pairwise bilinear-form matrix (``gram``) is the
single numpy artifact that makes the censuses fast.

Coordinates: f(x) = x1*x2 + x3*x4 + x5^2 + x5*x6 + lam*x6^2 with trace(lam) = 1,
polarized to alpha(u, v) = u1*v2 + u2*v1 + u3*v4 + u4*v3 + u5*v6 + u6*v5.
The distinguished hyperplane is {x6 = 0}; its parabolic quadric section, the
radical point of alpha restricted to it (the nucleus), and the central
elation fixing it pointwise are computed, not assumed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .gf2n import FieldCtx, trace
from .projgeom import (
    PointTable,
    Subspace,
    Vec,
    enumerate_points,
    normalize_tuple,
    null_space,
    span,
)

MAX_BUILD_DEGREE = 3  # model enumeration is desk-scale only through q = 8


class QuadricModel:
    """Full incidence model of the elliptic quadric and its parabolic section.

    Attributes
    ----------
    ctx, lam : field context and the trace-1 form parameter.
    q_table : PointTable over the quadric points (dense, lexicographically sorted).
    coords : (|Q|, 6) int16 array of the same points.
    lines : sorted list of (q+1)-tuples of point indices, one per quadric line.
    lines_through : per-point list of line ids.
    gram : (|Q|, |Q|) uint8 array of pairwise bilinear-form values.
    in_section : boolean mask of points lying in the hyperplane {x6 = 0}.
    section_points / affine_points : index lists for the two sides of the split.
    nucleus : coordinates of the radical point of the restricted form (off Q).
    elation_perm : involutive permutation of point indices with axis {x6 = 0}.
    """

    def __init__(self, ctx: FieldCtx, lam: int):
        self.ctx = ctx
        self.lam = lam
        self.q_table: PointTable
        self.coords: np.ndarray
        self.lines: List[Tuple[int, ...]]
        self.lines_through: List[List[int]]
        self.gram: np.ndarray
        self.in_section: np.ndarray
        self.section_points: List[int]
        self.affine_points: List[int]
        self.section_index: Dict[int, int]
        self.nucleus: Vec
        self.elation_perm: np.ndarray

    # -- scalar form evaluation ----------------------------------------------

    def f_scalar(self, v: Sequence[int]) -> int:
        m = self.ctx.mul
        x1, x2, x3, x4, x5, x6 = v
        return m(x1, x2) ^ m(x3, x4) ^ m(x5, x5) ^ m(x5, x6) ^ m(self.lam, m(x6, x6))

    def alpha_scalar(self, u: Sequence[int], v: Sequence[int]) -> int:
        m = self.ctx.mul
        return (
            m(u[0], v[1]) ^ m(u[1], v[0])
            ^ m(u[2], v[3]) ^ m(u[3], v[2])
            ^ m(u[4], v[5]) ^ m(u[5], v[4])
        )

    def index_of(self, v: Sequence[int]) -> Optional[int]:
        """Dense index of a quadric point given by any representative, else None."""
        return self.q_table.get(normalize_tuple(self.ctx, v))

    def point(self, i: int) -> Vec:
        return self.q_table.point(i)

    @property
    def n_points(self) -> int:
        return len(self.q_table)


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
    pg_arr = np.array(pg, dtype=np.int16)
    fvals = _f_vectorized(ctx, lam, pg_arr)
    q_pts = [pg[i] for i in np.nonzero(fvals == 0)[0]]
    model.q_table = PointTable(q_pts)
    nq = len(model.q_table)
    if nq != (q + 1) * (q**3 + 1):
        raise AssertionError(f"|Q| = {nq}, expected {(q + 1) * (q**3 + 1)}")
    model.coords = np.array(list(model.q_table), dtype=np.int16)

    model.gram = _gram_matrix(ctx, model.coords)
    _build_lines(model)

    model.in_section = model.coords[:, 5] == 0
    model.section_points = [int(i) for i in np.nonzero(model.in_section)[0]]
    model.affine_points = [int(i) for i in np.nonzero(~model.in_section)[0]]
    model.section_index = {p: i for i, p in enumerate(model.section_points)}
    if len(model.section_points) != (q + 1) * (q**2 + 1):
        raise AssertionError("hyperplane section point count mismatch")

    _find_nucleus(model)
    _build_elation(model)
    return model


def _gram_matrix(ctx: FieldCtx, coords: np.ndarray) -> np.ndarray:
    M = ctx.mul_table
    n = len(coords)
    gram = np.empty((n, n), dtype=np.uint8)
    pairs = ((0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4))
    block = 1024
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        acc = np.zeros((hi - lo, n), dtype=np.uint8)
        for i, j in pairs:
            acc ^= M[coords[lo:hi, i][:, None], coords[None, :, j]].astype(np.uint8)
        gram[lo:hi] = acc
    return gram


def _build_lines(model: QuadricModel) -> None:
    """Collect the totally singular lines as common perps of collinear pairs.

    In characteristic 2 the line joining two quadric points lies on the
    quadric exactly when the points are perpendicular, and in a generalized
    quadrangle the points collinear with two collinear points x, y are
    exactly the points of line xy.  Each point x walks its later perp
    neighbours not yet on a line through x, so every line is emitted once,
    from its two smallest points, and in sorted order.
    """
    q = model.ctx.q
    nq = model.n_points
    gram = model.gram
    ids = list(range(nq))     # line tuples share these ints: at q = 8 fresh ones cost ~8 MB
    lines: List[Tuple[int, ...]] = []
    through: List[List[int]] = [[] for _ in range(nq)]
    for x in range(nq):
        perp_x = gram[x] == 0
        todo = perp_x.copy()
        todo[:x + 1] = False
        for li in through[x]:
            todo[list(lines[li])] = False
        for y in np.nonzero(todo)[0]:
            if not todo[y]:
                continue
            pts = np.nonzero(perp_x & (gram[y] == 0))[0]
            if len(pts) != q + 1:
                raise AssertionError("common perp of collinear points is not a line")
            todo[pts] = False
            for p in pts:
                through[p].append(len(lines))
            lines.append(tuple(ids[p] for p in pts))
    model.lines = lines
    expected = nq * (q * q + 1) // (q + 1)
    if len(lines) != expected:
        raise AssertionError(f"{len(lines)} lines, expected {expected}")
    ln = np.array(lines)
    if gram[ln[:, :, None], ln[:, None, :]].any():
        raise AssertionError("a line is not totally singular")
    if any(len(t) != q * q + 1 for t in through):
        raise AssertionError("some point is not on q^2+1 lines")
    model.lines_through = through


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
    t = model.ctx.mul(model.f_scalar(c), model.ctx.inv(a))
    y = tuple(ci ^ model.ctx.mul(t, xi) for ci, xi in zip(c, x))
    return normalize_tuple(model.ctx, y)


def _build_elation(model: QuadricModel) -> None:
    """Pair each point off the axis with the second quadric point toward the nucleus."""
    nq = model.n_points
    perm = np.arange(nq, dtype=np.int32)
    for x in model.affine_points:
        other = second_intersection(model, model.point(x), model.nucleus)
        if other is None:
            raise AssertionError("nucleus line is not a secant")
        perm[x] = model.q_table.index(other)
    if not np.array_equal(perm[perm], np.arange(nq)):
        raise AssertionError("elation is not an involution")
    if (perm[model.affine_points] == model.affine_points).any():
        raise AssertionError("elation fixes a point off its axis")
    model.elation_perm = perm


# -- 3-space sections of the hyperplane ---------------------------------------


def _section_dual_functional(model: QuadricModel, s: Subspace) -> Vec:
    """The hyperplane-of-{x6=0} functional cutting out the rank-4 subspace s."""
    if s.rank != 4:
        raise ValueError("section classification expects a rank-4 subspace")
    if any(row[5] != 0 for row in s.basis):
        raise ValueError("subspace is not inside the hyperplane {x6 = 0}")
    kernel = null_space(model.ctx, [row[:5] for row in s.basis])
    if len(kernel) != 1:
        raise AssertionError("rank-4 subspace has no unique dual functional")
    return kernel[0]


def _classify_functional(model: QuadricModel, w: Sequence[int], sect_coords: np.ndarray,
                         sect_qidx: np.ndarray) -> Tuple[str, List[int]]:
    M = model.ctx.mul_table
    q = model.ctx.q
    vals = np.zeros(len(sect_coords), dtype=np.uint16)
    for j in range(5):
        if w[j]:
            vals ^= M[np.full(len(sect_coords), w[j]), sect_coords[:, j]]
    hit = sect_qidx[vals == 0]
    count = len(hit)
    if count == q * q + 2 * q + 1:
        return "hyperbolic", [int(i) for i in hit]
    if count == q * q + q + 1:
        return "cone", [int(i) for i in hit]
    if count == q * q + 1:
        sub = model.gram[np.ix_(hit, hit)]
        off_diag_perp = (sub == 0).sum() - count
        if off_diag_perp == 0:
            return "elliptic", [int(i) for i in hit]
        return "cone", [int(i) for i in hit]
    raise AssertionError(f"unexpected section size {count}")


def section_type(model: QuadricModel, s: Subspace) -> str:
    """Classify a 3-space of {x6=0} by its quadric section: elliptic, hyperbolic, cone."""
    w = _section_dual_functional(model, s)
    sect_coords = model.coords[model.section_points][:, :5].astype(np.int64)
    sect_qidx = np.array(model.section_points)
    kind, _ = _classify_functional(model, w, sect_coords, sect_qidx)
    return kind


def solid_section_census(model: QuadricModel):
    """Classify every 3-space of the hyperplane; the independent ovoid oracle.

    Returns (counts, elliptic_sections) where elliptic_sections is the list of
    section-point index tuples of all elliptic 3-space sections.
    """
    ctx = model.ctx
    duals = enumerate_points(ctx, 5)
    sect_coords = model.coords[model.section_points][:, :5].astype(np.int64)
    sect_qidx = np.array(model.section_points)
    counts = {"elliptic": 0, "hyperbolic": 0, "cone": 0}
    elliptic: List[Tuple[int, ...]] = []
    for w in duals:
        kind, pts = _classify_functional(model, w, sect_coords, sect_qidx)
        counts[kind] += 1
        if kind == "elliptic":
            elliptic.append(tuple(pts))
    return counts, elliptic


def alpha_perp(model: QuadricModel, s: Subspace) -> Subspace:
    """Perpendicular subspace of s under the bilinear form, canonical basis."""
    rows = [(b[1], b[0], b[3], b[2], b[5], b[4]) for b in s.basis]
    return span(model.ctx, null_space(model.ctx, rows))


def verify_gq_axioms(model: QuadricModel) -> dict:
    """Point/line axioms of a generalized quadrangle on every (point, line)
    pair: a point on a line is collinear with all q+1 of its points, a point
    off it with exactly one."""
    nq = model.n_points
    q = model.ctx.q
    for ln in np.array(model.lines):
        perp_counts = (model.gram[:, ln] == 0).sum(axis=1)
        on_line = np.zeros(nq, dtype=bool)
        on_line[ln] = True
        ok = np.where(on_line, perp_counts == q + 1, perp_counts == 1)
        if not ok.all():
            bad = int(np.nonzero(~ok)[0][0])
            return {
                "pass": False,
                "counterexample": {"line": [int(p) for p in ln], "point": bad},
            }
    return {"pass": True, "lines_checked": len(model.lines)}


def nucleus_tangency_check(model: QuadricModel) -> bool:
    """Every line of the hyperplane through the nucleus meets the section at
    most once; equivalently no two section points differ only in the nucleus
    direction.  The radical of x1y2 + x2y1 + x3y4 + x4y3 on {x6 = 0} is e5
    for every modulus and lam, so dropping that coordinate keys the lines."""
    dirs = [j for j, c in enumerate(model.nucleus) if c]
    if len(dirs) != 1:
        raise AssertionError("nucleus is not a coordinate point")
    seen = set()
    for i in model.section_points:
        key = tuple(c for j, c in enumerate(model.point(i)) if j != dirs[0])
        if key in seen:
            return False
        seen.add(key)
    return True
