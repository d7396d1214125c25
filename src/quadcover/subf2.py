"""Binary subgeometries underlying centric figures.

With representatives scaled so that each opposite pair sums to the center,
the vertices of a centric figure generate a GF(2)-subspace of the ambient
GF(2^n)^6 whose nonzero subset sums form a projective subgeometry:

* hexagon vertices plus the three opposite-edge intersection points span a
  rank-4 structure whose quadric points form a hyperbolic quadric Q+(3,2);
* cube vertices plus six edge points and the common face-sum point span a
  rank-5 structure carrying a parabolic quadric Q(4,2) with its own
  nucleus, distinct from the ambient nucleus;
* dodecade vertices span rank 6 and carry an elliptic quadric Q-(5,2).

This module scales representatives, builds the closures, recognizes the
resulting subgeometries by incidence counts and quadrangle axioms, and
checks the exact counting identities tying the number of elliptic binary
subgeometries to the dodecade census.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .gf2n import FieldCtx
from .projgeom import Vec, normalize_tuple
from .quadric import QuadricModel
from .figures import CentricFigure, formula_n6_bar
from .cliquecensus import formula_n6

# (point count, line count) -> recognized type and order (s, t)
_SIGNATURES = {
    (9, 6): ("Qplus32", (2, 1)),
    (15, 15): ("Q42", (2, 2)),
    (27, 45): ("Qminus52", (2, 4)),
}


@dataclass(frozen=True)
class F2Span:
    """GF(2)-span of a vector family inside GF(2^n)^6.

    Attributes
    ----------
    basis : tuple of Vec
        Greedily selected subset-sum-independent generators.
    sums : tuple of Vec
        All 2^rank - 1 nonzero subset sums, as raw vectors.
    points : tuple of Vec
        The same sums normalized projectively (deduplicated, sorted).
    quadric_points : tuple of Vec
        The subset of `points` lying on the quadric.
    ok : bool
        True when rank <= 6 and the sums are pairwise projectively distinct.
    failure : dict or None
        Diagnostic with the offending vector when ok is False.
    """

    basis: Tuple[Vec, ...]
    sums: Tuple[Vec, ...]
    points: Tuple[Vec, ...]
    quadric_points: Tuple[Vec, ...]
    ok: bool
    failure: Optional[dict] = None

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass
class SubgeometryReport:
    """Recognition result for the quadric points of an F2 span."""

    type_tag: str
    point_count: int
    line_count: int
    contains_n0: bool
    contains_center: bool
    degrees: Tuple[int, ...] = field(default_factory=tuple)
    gq_ok: bool = False


# -- representative scaling ----------------------------------------------------


def _solve_pair_scaling(ctx: FieldCtx, va: Vec, vb: Vec, c: Vec) -> Tuple[int, int]:
    """Scalars (s, t) with s*va + t*vb = c, via a 2x2 coordinate minor."""
    n = len(va)
    for i in range(n):
        for j in range(i + 1, n):
            det = ctx.mul(va[i], vb[j]) ^ ctx.mul(va[j], vb[i])
            if det == 0:
                continue
            di = ctx.inv(det)
            s = ctx.mul(di, ctx.mul(c[i], vb[j]) ^ ctx.mul(c[j], vb[i]))
            t = ctx.mul(di, ctx.mul(va[i], c[j]) ^ ctx.mul(va[j], c[i]))
            got = tuple(ctx.mul(s, a) ^ ctx.mul(t, b) for a, b in zip(va, vb))
            if got != c:
                raise ValueError("center is not on the pair line")
            if s == 0 or t == 0:
                raise ValueError("center coincides with a pair point")
            return s, t
    raise ValueError("pair points are proportional")


def scale_figure_representatives(model: QuadricModel, fig: CentricFigure) -> List[Vec]:
    """Representatives with rep(x1) + rep(x2) = rep(center) for every pair.

    The center representative is its normalized coordinate tuple, making the
    output deterministic.  Returns 2m vectors in pair order.
    """
    ctx = model.ctx
    c = fig.center
    out: List[Vec] = []
    for a, b in fig.pairs:
        va, vb = model.point(a), model.point(b)
        s, t = _solve_pair_scaling(ctx, va, vb, c)
        out.append(tuple(ctx.mul(s, x) for x in va))
        out.append(tuple(ctx.mul(t, x) for x in vb))
    return out


# -- derived closure points ----------------------------------------------------


def _vec_sum(vecs: Sequence[Vec]) -> Vec:
    out = [0] * len(vecs[0])
    for v in vecs:
        for i, x in enumerate(v):
            out[i] ^= x
    return tuple(out)


def _line_meet(ctx: FieldCtx, a: Vec, b: Vec, c: Vec, d: Vec) -> Vec:
    """Intersection point of lines ab and cd (must meet in one point)."""
    from .projgeom import span, subspace_intersection

    inter = subspace_intersection(ctx, span(ctx, [a, b]), span(ctx, [c, d]))
    if len(inter.basis) != 1:
        raise ValueError("lines do not meet in a single point")
    return normalize_tuple(ctx, inter.basis[0])


def opposite_edge_points(model: QuadricModel, fig: CentricFigure,
                         scaled: Sequence[Vec]) -> List[Vec]:
    """One derived point per antipodal edge class of the figure.

    Opposite edges {x,y} and {x',y'} (primed = pair partners) span quadric
    lines meeting in a single point, which with pair-sum scaling equals the
    raw sum rep(x) + rep(y).  Both computations are run and compared.
    """
    ctx = model.ctx
    verts = [i for p in fig.pairs for i in p]
    rep_of = dict(zip(verts, scaled))
    partner = fig.partner
    vecs = {i: model.point(i) for i in verts}
    seen: Set[frozenset] = set()
    out: List[Vec] = []
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if partner[u] == w or model.gram[u, w] != 0:
                continue
            key = frozenset({frozenset({u, w}), frozenset({partner[u], partner[w]})})
            if key in seen:
                continue
            seen.add(key)
            summed = _vec_sum([rep_of[u], rep_of[w]])
            met = _line_meet(ctx, vecs[u], vecs[w],
                             vecs[partner[u]], vecs[partner[w]])
            if normalize_tuple(ctx, summed) != met:
                raise AssertionError("edge sum disagrees with the line meet")
            if model.f_scalar(summed) != 0:
                raise AssertionError("edge point fell off the quadric")
            out.append(summed)
    return out


def face_point(model: QuadricModel, fig: CentricFigure,
               scaled: Sequence[Vec]) -> Vec:
    """The common sum of the four vertices of each face of a cube.

    Faces are the six transversals picking one vertex per pair with exactly
    two picks in each half of the bipartition; all six sums must agree.
    """
    if fig.kind != "cube":
        raise ValueError("face points are defined for cubes")
    row0 = set(fig.rows[0])
    verts = [i for p in fig.pairs for i in p]
    rep_of = dict(zip(verts, scaled))
    sums = set()
    from itertools import product

    for picks in product(*fig.pairs):
        if sum(1 for x in picks if x in row0) != 2:
            continue
        sums.add(_vec_sum([rep_of[x] for x in picks]))
    if len(sums) != 1:
        raise AssertionError(f"face sums are not constant ({len(sums)} values)")
    p0 = sums.pop()
    if model.f_scalar(p0) != 0:
        raise AssertionError("face point fell off the quadric")
    return p0


def closure_vectors(model: QuadricModel, fig: CentricFigure) -> List[Vec]:
    """Generating vectors of the binary closure of a figure.

    Hexagons contribute their six scaled vertices and three edge points;
    cubes add six edge points and the face point; dodecades span already.
    Decades have no closure construction here.
    """
    scaled = scale_figure_representatives(model, fig)
    if fig.kind == "hexagon":
        return list(scaled) + opposite_edge_points(model, fig, scaled)
    if fig.kind == "cube":
        return (list(scaled) + opposite_edge_points(model, fig, scaled)
                + [face_point(model, fig, scaled)])
    if fig.kind == "dodecade":
        return list(scaled)
    raise ValueError(f"no closure construction for kind {fig.kind!r}")


# -- F2 spans ------------------------------------------------------------------


def f2_closure(model: QuadricModel, vectors: Sequence[Vec]) -> F2Span:
    """Greedy subset-sum span of a vector family.

    A new vector is independent exactly when it is not already a subset sum
    of the current basis; rank beyond 6 or a projective collision between
    sums marks the span as failed (reported, not raised).
    """
    if not vectors:
        raise ValueError("empty input")
    ctx = model.ctx
    basis: List[Vec] = []
    sums: Set[Vec] = set()
    failure = None
    for v in vectors:
        v = tuple(int(x) for x in v)
        if not any(v):
            failure = {"reason": "zero vector in input", "vector": v}
            break
        if v in sums:
            continue
        if len(basis) == 6:
            failure = {"reason": "rank exceeds 6", "vector": v}
            break
        basis.append(v)
        new = {tuple(a ^ b for a, b in zip(s, v)) for s in sums}
        sums |= new | {v}
    sums_t = tuple(sorted(sums))
    points = tuple(sorted({normalize_tuple(ctx, s) for s in sums_t}))
    ok = failure is None
    if ok and len(points) != len(sums_t):
        ok = False
        failure = {"reason": "subset sums collide projectively"}
    quadric = tuple(p for p in points if model.f_scalar(p) == 0)
    return F2Span(basis=tuple(basis), sums=sums_t, points=points,
                  quadric_points=quadric, ok=ok, failure=failure)


def span_f2_radical(model: QuadricModel, span: F2Span) -> List[Vec]:
    """Span points orthogonal to the whole span under the polarization."""
    out = []
    for s in span.sums:
        if all(model.alpha_scalar(s, b) == 0 for b in span.basis):
            out.append(normalize_tuple(model.ctx, s))
    return sorted(set(out))


# -- recognition ---------------------------------------------------------------


def recognize_subgeometry(model: QuadricModel, span: F2Span,
                          center: Optional[Vec] = None) -> SubgeometryReport:
    """Classify the quadric points of a span by incidence structure.

    Induced lines are quadric lines meeting the point set in at least two
    points; the (points, lines, degrees) profile is matched against the
    three binary quadric signatures, and the generalized-quadrangle axiom
    (a point off a line sees exactly one of its points) is checked for the
    matched order.  Collinearity and the lines are read from the model's
    ``gram``, ``lines`` and ``lines_through``.
    """
    ctx = model.ctx
    idx = [model.index_of(p) for p in span.quadric_points]
    npts = len(idx)
    local = {x: k for k, x in enumerate(idx)}
    coll = (model.gram[np.ix_(idx, idx)] == 0).tolist()

    # two collinear quadric points lie on exactly one quadric line, so the
    # lines through two or more of the points are the ids met twice
    line_ids, seen = np.unique(model.lines_through[idx], return_counts=True)
    lines = [frozenset(local[p] for p in pts if p in local)
             for pts in model.lines[line_ids[seen >= 2]].tolist()]

    degrees = [0] * npts
    for l in lines:
        for k in l:
            degrees[k] += 1
    deg_profile = tuple(sorted(set(degrees))) if degrees else ()

    n0 = normalize_tuple(ctx, model.nucleus)
    report = SubgeometryReport(
        type_tag="none", point_count=npts, line_count=len(lines),
        contains_n0=n0 in span.points,
        contains_center=(center is not None
                         and normalize_tuple(ctx, center) in span.points),
        degrees=deg_profile)

    sig = _SIGNATURES.get((npts, len(lines)))
    if sig is None:
        return report
    tag, (s_ord, t_ord) = sig
    if any(len(l) != s_ord + 1 for l in lines):
        return report
    if deg_profile != (t_ord + 1,):
        return report
    for k in range(npts):
        for l in lines:
            if k in l:
                continue
            hits = sum(1 for x in l if coll[k][x])
            if hits != 1:
                return report
    report.type_tag = tag
    report.gq_ok = True
    return report


def closure_report(model: QuadricModel, fig: CentricFigure
                   ) -> Tuple[F2Span, SubgeometryReport]:
    """Closure vectors -> span -> recognition, in one call."""
    span = f2_closure(model, closure_vectors(model, fig))
    rep = recognize_subgeometry(model, span, center=fig.center)
    return span, rep


# -- counting identities -------------------------------------------------------


def subgeometry_count_formula(q: int) -> int:
    """Number of elliptic binary subgeometries:
    (q^3+1)(q^2+1)(q+1)^2 q^6 (q-1)^2 / 25920."""
    num = (q ** 3 + 1) * (q ** 2 + 1) * (q + 1) ** 2 * q ** 6 * (q - 1) ** 2
    if num % 25920:
        raise AssertionError("subgeometry count formula is not integral")
    return num // 25920


def count_identities(n_range: Sequence[int]) -> dict:
    """Exact-integer check of subgeometries x 36 = centric-dodecade count
    = dodecade-census count x off-quadric points, for each degree.

    The subgeometry formula only counts anything at odd degrees (elliptic
    binary subgeometries exist exactly then); at even degrees the remaining
    two-sided identity is still checked.
    """
    per: Dict[int, dict] = {}
    all_ok = True
    for n in n_range:
        q = 2 ** n
        bar = formula_n6_bar(q)
        off = (q ** 6 - 1) // (q - 1) - (q + 1) * (q ** 3 + 1)
        via_census = formula_n6(q) * off
        ok = bar == via_census
        sub: Optional[int] = None
        if n % 2 == 1:
            sub = subgeometry_count_formula(q)
            ok = ok and sub * 36 == bar
        if n == 1:
            ok = ok and sub == 1 and bar == 36
        per[n] = {"q": q, "subgeometries": sub, "centric_dodecades": bar,
                  "census_times_off_quadric": via_census, "ok": ok}
        all_ok = all_ok and ok
    return {"per_n": per, "all_ok": all_ok}
