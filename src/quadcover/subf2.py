"""Binary subgeometries underlying centric figures.

With representatives scaled so that each opposite pair sums to the center,
the vertices of a centric figure generate a GF(2)-subspace of the ambient
GF(2^n)^6 whose nonzero subset sums form a projective subgeometry:

* hexagon vertices span rank 4, and the quadric points of the span form a
  hyperbolic quadric Q+(3,2);
* cube vertices span rank 5, carrying a parabolic quadric Q(4,2) with its
  own nucleus, distinct from the ambient nucleus;
* dodecade vertices span rank 6 and carry an elliptic quadric Q-(5,2).

The span holds the figure's derived points with no construction of their
own.  Opposite edges {u, w} and {u', w'} (primed = pair partner) have one
sum: rep(u) + rep(w) + rep(u') + rep(w') = c + c = 0 for the center c.  That
sum lies on both edge lines, and on the quadric, since f(s x_u + t x_w) =
st alpha(x_u, x_w) = 0 for collinear u, w.  A cube's face sums pick one
vertex of each pair, two in each row; two such picks differ by swapping an
even number of pairs, so they differ by an even number of c's and all six
face sums are one point.

This module scales representatives, spans them, recognizes the resulting
subgeometries by incidence counts and quadrangle axioms, and checks the
exact counting identities tying the number of elliptic binary subgeometries
to the dodecade census.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .projgeom import Vec, normalize_tuple, vec_add, vec_scale
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


def scale_figure_representatives(model: QuadricModel, fig: CentricFigure) -> List[Vec]:
    """Representatives with rep(x1) + rep(x2) = rep(center) for every pair.

    The center representative is its normalized coordinate tuple, making the
    output deterministic.  Returns 2m vectors in pair order.  With
    g = alpha(va, vb) != 0, c = s*va + t*vb forces s = alpha(vb, c) / g and
    t = alpha(va, c) / g; the sum is then checked.
    """
    ctx = model.ctx
    c = fig.center
    out: List[Vec] = []
    firsts, seconds = zip(*fig.pairs)
    for (a, b), g in zip(fig.pairs, model.alpha(firsts, seconds).diagonal().tolist()):
        va, vb = model.point(a), model.point(b)
        if g == 0:
            raise ValueError("pair points are collinear")
        gi = ctx.mul_rows[ctx.inv_row[g]]
        s, t = gi[model.alpha_scalar(vb, c)], gi[model.alpha_scalar(va, c)]
        ra, rb = vec_scale(ctx, s, va), vec_scale(ctx, t, vb)
        if vec_add(ra, rb) != c:
            raise ValueError("center is not on the pair line")
        if s == 0 or t == 0:
            raise ValueError("center coincides with a pair point")
        out += [ra, rb]
    return out


# -- F2 spans ------------------------------------------------------------------


def f2_closure(model: QuadricModel, vectors: Sequence[Vec]) -> F2Span:
    """Greedy subset-sum span of a vector family.

    A new vector is independent exactly when it is not already a subset sum
    of the current basis; rank beyond 6 or a projective collision between
    sums marks the span as failed (reported, not raised).  The form is
    carried along the sums: f(s + v) = f(s) + f(v) + alpha(s, v), where
    alpha(s, v) sums alpha(b, v) over the basis vectors b in s, so f is
    evaluated on the basis only.  A scale leaves f = 0 unchanged, so the
    quadric points are the normalized sums with f = 0.
    """
    if not vectors:
        raise ValueError("empty input")
    ctx = model.ctx
    basis: List[Vec] = []
    # f of each subset sum, the zero sum included, keyed in basis-mask order
    forms: Dict[Vec, int] = {(0,) * 6: 0}
    failure = None
    for v in vectors:
        v = tuple([int(x) for x in v])
        if not any(v):
            failure = {"reason": "zero vector in input", "vector": v}
            break
        if v in forms:
            continue
        if len(basis) == 6:
            failure = {"reason": "rank exceeds 6", "vector": v}
            break
        # alpha(s, v) for each mask s, one basis vector at a time
        alphas = [0]
        for u in basis:
            au = model.alpha_scalar(u, v)
            alphas += [x ^ au for x in alphas]
        fv = model.f_scalar(v)
        forms.update({tuple([a ^ b for a, b in zip(s, v)]): f ^ fv ^ x
                      for (s, f), x in zip(list(forms.items()), alphas)})
        basis.append(v)
    del forms[(0,) * 6]
    sums_t = tuple(sorted(forms))
    norm = {s: normalize_tuple(ctx, s) for s in sums_t}
    points = tuple(sorted(set(norm.values())))
    ok = failure is None
    if ok and len(points) != len(sums_t):
        ok = False
        failure = {"reason": "subset sums collide projectively"}
    quadric = tuple(sorted({norm[s] for s, f in forms.items() if f == 0}))
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
    ``collinear``, ``lines`` and ``lines_through``.
    """
    ctx = model.ctx
    idx = [model.index_of(p) for p in span.quadric_points]
    npts = len(idx)
    # two collinear quadric points lie on exactly one quadric line, so the
    # lines through two or more of the points are the ids met twice
    line_ids, seen = np.unique(model.lines_through[idx], return_counts=True)
    local = np.full(model.n_points, -1)
    local[idx] = np.arange(npts)
    on = local[model.lines[line_ids[seen >= 2]]]
    inc = np.zeros((npts, len(on)), dtype=np.int64)  # point-line incidence
    li, k = np.nonzero(on >= 0)
    inc[on[li, k], li] = 1
    deg_profile = tuple(sorted(set(inc.sum(axis=1).tolist())))

    n0 = normalize_tuple(ctx, model.nucleus)
    report = SubgeometryReport(
        type_tag="none", point_count=npts, line_count=len(on),
        contains_n0=n0 in span.points,
        contains_center=(center is not None
                         and normalize_tuple(ctx, center) in span.points),
        degrees=deg_profile)

    sig = _SIGNATURES.get((npts, len(on)))
    if sig is None:
        return report
    tag, (s_ord, t_ord) = sig
    if (inc.sum(axis=0) != s_ord + 1).any():
        return report
    if deg_profile != (t_ord + 1,):
        return report
    # hits[x, l]: points of line l collinear with x, which must be one for x off l
    hits = model.collinear(idx, idx).astype(np.int64) @ inc
    if ((hits != 1) & (inc == 0)).any():
        return report
    report.type_tag = tag
    report.gq_ok = True
    return report


def closure_report(model: QuadricModel, fig: CentricFigure
                   ) -> Tuple[F2Span, SubgeometryReport]:
    """The F2 span of a figure's pair-scaled vertices, recognized.

    Hexagons, cubes and dodecades only; decades have no closure construction
    here.  The span already holds the edge and face points (see the module
    docstring), which recognition finds among its quadric points.
    """
    if fig.kind not in ("hexagon", "cube", "dodecade"):
        raise ValueError(f"no closure construction for kind {fig.kind!r}")
    span = f2_closure(model, scale_figure_representatives(model, fig))
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
