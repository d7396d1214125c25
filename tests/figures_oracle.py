"""The scalar figure path that the incremental checks and hyperbolic frames replaced.

Kept as the reference the figure layer is diffed against:

* the frame change inverts the 6x6 basis matrix by Gauss-Jordan
  (`mat_inv`, `mat_vec`) and takes the perp plane from `alpha_perp`
  (a null space, then its canonical span);
* every candidate the solvers and brute-force scans build is re-verified in
  full by this module's own `make_figure` / `verify_centric_figure`, the
  check loop as it was before it learned to start from a new pair;
* the brute-force scans call the scalar `second_intersection` per point;
* the pair scaling solves a 2x2 coordinate minor (`_solve_pair_scaling`),
  and each edge point is met as the Zassenhaus intersection of two lines
  (`_line_meet`);
* the closure spans the scaled vertices together with every edge point
  and, for a cube, the face point (`closure_vectors`, `face_point`), each
  checked to be on the quadric, and evaluates the form on every point of
  the span (`f2_closure`);
* the recognition checks the quadrangle axiom point by point and line by
  line (`recognize_subgeometry`);
* the form is read from `quadric_oracle.alpha_table`, never through the
  model's `alpha`.

`fundamental_cube` builds the cube on the standard quadrangle with a given
center, which need not be the nucleus, and checks it in full here.
Everything else (labels and the parametric cube vertices) is imported from
the package unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from projgeom_oracle import Subspace, span, subspace_intersection
from quadric_oracle import alpha_table
from quadcover.figures import (KIND_BY_SIZE, SIZE_BY_KIND, CentricFigure, CubeParams,
                               _cube_vertex_pairs, cube_center, cube_labels,
                               hexagon_labels)
from quadcover.gf2n import FieldCtx, conic_solution_set, solve_artin_schreier
from quadcover.projgeom import Vec, normalize_tuple, null_space, vec_add, vec_scale
from quadcover.quadric import QuadricModel, second_intersection
from quadcover.subf2 import _SIGNATURES, F2Span, SubgeometryReport


def mat_vec(ctx: FieldCtx, m: Sequence[Sequence[int]], v: Sequence[int]) -> Vec:
    out = []
    for row in m:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc ^= ctx.mul(a, b)
        out.append(acc)
    return tuple(out)


def mat_mul(ctx: FieldCtx, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Tuple[Vec, ...]:
    bt = list(zip(*b))
    return tuple(tuple(_dot(ctx, row, col) for col in bt) for row in a)


def _dot(ctx: FieldCtx, u: Sequence[int], v: Sequence[int]) -> int:
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc ^= ctx.mul(a, b)
    return acc


def mat_inv(ctx: FieldCtx, m: Sequence[Sequence[int]]) -> Tuple[Vec, ...]:
    """Inverse by Gauss-Jordan; raises on singular input."""
    size = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(size)] for i, row in enumerate(m)]
    for col in range(size):
        sel = next((r for r in range(col, size) if aug[r][col]), None)
        if sel is None:
            raise ValueError("matrix is singular")
        aug[col], aug[sel] = aug[sel], aug[col]
        inv = ctx.inv(aug[col][col])
        aug[col] = [ctx.mul(inv, x) for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x ^ ctx.mul(c, y) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[size:]) for row in aug)


def alpha_perp(model: QuadricModel, s: Subspace) -> Subspace:
    """Perpendicular subspace of s under the bilinear form, canonical basis."""
    rows = [(b[1], b[0], b[3], b[2], b[5], b[4]) for b in s.basis]
    return span(model.ctx, null_space(model.ctx, rows))


def make_figure(model: QuadricModel, pairs: Sequence[Tuple[int, int]],
                center: Sequence[int]) -> CentricFigure:
    """The checked centric figure on these pairs and center.

    Raises ValueError when no figure kind has this many pairs, and otherwise
    with the reason of ``verify_centric_figure`` when the check fails.
    """
    m = len(pairs)
    if m not in KIND_BY_SIZE:
        raise ValueError(f"no figure kind with {m} pairs")
    fig = CentricFigure(kind=KIND_BY_SIZE[m],
                        pairs=tuple((int(a), int(b)) for a, b in pairs),
                        center=normalize_tuple(model.ctx, tuple(center)),
                        rows=((), ()))
    rep = verify_centric_figure(model, fig)
    if not rep["pass"]:
        raise ValueError(rep["reason"])
    return replace(fig, rows=rep["rows"])


def _made(model: QuadricModel, pairs: Sequence[Tuple[int, int]],
          center: Sequence[int], what: str) -> CentricFigure:
    """``make_figure`` on a figure this module constructed.  A failed check
    there is a broken law, not bad input, so it raises AssertionError."""
    try:
        return make_figure(model, pairs, center)
    except ValueError as exc:
        raise AssertionError(f"{what} failed check: {exc}") from None


def fundamental_cube(model: QuadricModel, par: CubeParams) -> CentricFigure:
    """The unique cube on the standard quadrangle with the given center.

    Vertices are rational functions of (u, v, r, s); the returned figure is
    checked structurally before being handed back.
    """
    return _made(model, _cube_vertex_pairs(model, par), cube_center(model, par),
                 "fundamental cube")


def verify_centric_figure(model: QuadricModel, fig: CentricFigure) -> dict:
    """Check the full centric-figure axioms; returns a pass/fail report.

    The report carries the derived bipartition as ``rows`` (two tuples of
    quadric point indices) when the check passes, and a ``reason`` string
    when it does not.  Collinearity of quadric points is read from
    `quadric_oracle.alpha_table`.  The center is off Q, so the line through
    a pair's first point and the center meets Q in at most one other point:
    the pair is concurrent with the center exactly when that point is the
    second one.
    """
    m = len(fig.pairs)
    out: dict = {"pass": False, "kind": fig.kind, "m": m}
    if SIZE_BY_KIND.get(fig.kind) != m:
        out["reason"] = "kind does not match number of pairs"
        return out
    pts = [i for p in fig.pairs for i in p]
    if len(set(pts)) != 2 * m:
        out["reason"] = "repeated point"
        return out
    if model.f_scalar(fig.center) == 0:
        out["reason"] = "center lies on the quadric"
        return out
    for a, b in fig.pairs:
        if second_intersection(model, model.point(a), fig.center) != model.point(b):
            out["reason"] = f"pair ({a},{b}) not concurrent with the center"
            return out

    g = alpha_table(model)
    partner = fig.partner
    # Two-colour against the reference pair, then check the full relation:
    # collinear <=> different pair and different row.
    row = {fig.pairs[0][0]: 0, fig.pairs[0][1]: 1}
    ra, rb = fig.pairs[0]
    for a, b in fig.pairs[1:]:
        for x in (a, b):
            hits = not g[x, ra], not g[x, rb]
            if hits == (True, False):
                row[x] = 1
            elif hits == (False, True):
                row[x] = 0
            else:
                out["reason"] = f"point {x} sees the reference pair {hits}"
                return out
        if row[a] == row[b]:
            out["reason"] = f"pair ({a},{b}) landed in one row"
            return out
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            want = partner[u] != v and row[u] != row[v]
            if (g[u, v] == 0) != want:
                out["reason"] = f"adjacency mismatch at ({u},{v})"
                return out

    out["pass"] = True
    out["rows"] = (tuple(sorted(x for x in pts if row[x] == 0)),
                   tuple(sorted(x for x in pts if row[x] == 1)))
    return out


class FrameMap:
    """Coordinate change carrying an adapted basis to the standard frame.

    Rows v1..v6 satisfy f(v1)=..=f(v4)=0, f(v5)=1, f(v6)=lam and the only
    nonzero polarization values are alpha(v1,v2)=alpha(v3,v4)=alpha(v5,v6)=1,
    so the quadric polynomial has the same expression in both coordinate
    systems.
    """

    def __init__(self, model: QuadricModel, rows: Sequence[Vec]):
        self.model = model
        self.ctx = model.ctx
        self._t = tuple(tuple(col) for col in zip(*rows))  # columns are v_i
        self._tinv = mat_inv(self.ctx, self._t)

    def to_frame(self, x: Sequence[int]) -> Vec:
        return mat_vec(self.ctx, self._tinv, x)

    def from_frame(self, y: Sequence[int]) -> Vec:
        return mat_vec(self.ctx, self._t, y)


def build_adapted_frame(model: QuadricModel, a1: int, c1: int, b1: int,
                        d1: Optional[int] = None) -> FrameMap:
    """Frame sending a1 -> e1, c1 -> e2, b1 -> e3 (and d1 -> e4 if given).

    Needs alpha(a1, c1) != 0 and b1 (resp. d1) collinear with both a1 and c1;
    when d1 is omitted the first quadric point with the right incidences is
    taken.  The remaining two basis vectors come from the perp of the first
    four, normalized against the quadric polynomial.  The values of alpha on
    the four quadric points are read from `quadric_oracle.alpha_table`.
    """
    ctx = model.ctx
    g = alpha_table(model)
    if g[a1, c1] == 0:
        raise ValueError("frame points a1, c1 must be non-collinear")
    if g[a1, b1] or g[c1, b1]:
        raise ValueError("frame point b1 must be collinear with a1 and c1")
    if d1 is None:
        found = np.nonzero((g[a1] == 0) & (g[c1] == 0) & (g[b1] != 0))[0]
        if len(found) == 0:
            raise AssertionError("no fourth frame point found")
        d1 = int(found[0])
    if g[b1, d1] == 0 or g[a1, d1] or g[c1, d1]:
        raise ValueError("fourth frame point has wrong incidences")
    v1, v3 = model.point(a1), model.point(b1)
    v2 = vec_scale(ctx, ctx.inv(int(g[a1, c1])), model.point(c1))
    v4 = vec_scale(ctx, ctx.inv(int(g[b1, d1])), model.point(d1))

    # perp of v1..v4 is a plane on which f is anisotropic
    w = alpha_perp(model, span(ctx, (v1, v2, v3, v4))).basis
    if len(w) != 2:
        raise AssertionError(f"perp space has dimension {len(w)}, wanted 2")
    plane = [vec_add(vec_scale(ctx, a, w[0]), vec_scale(ctx, b, w[1]))
             for a in range(ctx.q) for b in range(ctx.q) if a or b]
    v5 = next((x for x in plane if model.f_scalar(x) == 1), None)
    if v5 is None:
        raise AssertionError("no unit vector in the perp plane")
    v6 = next((x for x in plane if model.alpha_scalar(v5, x) == 1
               and model.f_scalar(x) == model.lam), None)
    if v6 is None:
        raise AssertionError("frame completion failed")
    return FrameMap(model, (v1, v2, v3, v4, v5, v6))


def _frame_and_center(model: QuadricModel, fig: CentricFigure,
                      lab: Dict[str, int]) -> Tuple[FrameMap, Vec]:
    """The adapted frame on a figure's labels (d1 only when labelled), and
    the figure's center carried into it and scaled to f = 1."""
    ctx = model.ctx
    fm = build_adapted_frame(model, lab["a1"], lab["c1"], lab["b1"], lab.get("d1"))
    p = fm.to_frame(fig.center)
    fp = model.f_scalar(p)  # the form has the standard expression in-frame
    if fp == 0:
        raise AssertionError("center moved onto the quadric")
    sc = ctx.inv(ctx.sqrt(fp))
    return fm, tuple(ctx.mul(sc, x) for x in p)


def _completions_bruteforce(model: QuadricModel, fig: CentricFigure,
                            mask: np.ndarray) -> List[CentricFigure]:
    """Figures that add one opposite pair to ``fig``, scanning the quadric
    points in ``mask``; the opposite point is the second intersection of the
    line through the candidate and the center.  No solver calls this."""
    out: List[CentricFigure] = []
    seen = set()
    for i in np.nonzero(mask)[0]:
        i = int(i)
        y = second_intersection(model, model.point(i), fig.center)
        j = model.index_of(y) if y is not None else None
        if j is None or j == i or frozenset((i, j)) in seen:
            continue
        seen.add(frozenset((i, j)))
        try:
            out.append(make_figure(model, list(fig.pairs) + [(i, j)], fig.center))
        except ValueError:
            pass
    return out


def extend_hexagon_to_cubes(model: QuadricModel, fig: CentricFigure) -> List[CentricFigure]:
    """All cubes containing a given centric hexagon (exactly q+1 of them).

    The hexagon frame (a1, c1, b1) is carried to the standard frame and the
    center scaled to f = 1; candidate fourth pairs then live on a conic with
    parameter mu = 1 + p1*p2/p4^2, giving q+1 solutions.  Every candidate is
    rebuilt in the original coordinates and fully re-verified.
    """
    ctx = model.ctx
    fm, p = _frame_and_center(model, fig, hexagon_labels(model, fig))
    p1, p2, p3, p4, p5, p6 = p
    if p1 == 0 or p2 == 0 or p4 == 0:
        raise AssertionError("hexagon center misses a frame incidence")

    p4i = ctx.inv(p4)
    mu = 1 ^ ctx.mul(ctx.mul(p1, p2), ctx.mul(p4i, p4i))
    shift5 = ctx.mul(p5, p4i)
    shift6 = ctx.mul(p6, p4i)
    out: List[CentricFigure] = []
    for x, y in sorted(conic_solution_set(ctx, model.lam, mu)):
        d5, d6 = x ^ shift5, y ^ shift6
        d3 = ctx.mul(d5, d5) ^ ctx.mul(d5, d6) ^ ctx.mul(model.lam, ctx.mul(d6, d6))
        dd1 = (0, 0, d3, 1, d5, d6)
        dd2 = tuple(ctx.mul(p4, a) ^ b for a, b in zip(dd1, p))
        i1 = model.index_of(fm.from_frame(dd1))
        i2 = model.index_of(fm.from_frame(dd2))
        if i1 is None or i2 is None:
            raise AssertionError("solved pair fell off the quadric")
        out.append(_made(model, list(fig.pairs) + [(i1, i2)], fig.center,
                         "candidate cube"))
    if len({c.key() for c in out}) != ctx.q + 1:
        raise AssertionError("hexagon extension count is not q+1")
    return out


def extend_hexagon_to_cubes_bruteforce(model: QuadricModel,
                                       fig: CentricFigure) -> List[CentricFigure]:
    """Scan all quadric points for fourth pairs completing the hexagon.

    Candidates d must be collinear with a1, c1, b2 and not with b1, a2, c2;
    the opposite point is the second intersection of line(d, center).  Kept
    independent of the frame solver for cross-checking.
    """
    lab = hexagon_labels(model, fig)
    g = alpha_table(model)
    mask = ((g[lab["a1"]] == 0) & (g[lab["c1"]] == 0) & (g[lab["b2"]] == 0)
            & (g[lab["b1"]] != 0) & (g[lab["a2"]] != 0) & (g[lab["c2"]] != 0))
    return _completions_bruteforce(model, fig, mask)


def cube_params(model: QuadricModel, fig: CentricFigure) -> Tuple[CubeParams, FrameMap]:
    """Carry a cube to the standard frame and read off its parameters.

    Asserts that the transported cube equals the parametric cube on those
    parameters, which pins down the normalization.
    """
    ctx = model.ctx
    fm, p = _frame_and_center(model, fig, cube_labels(model, fig))
    if p[0] == 0 or p[2] == 0:
        raise AssertionError("cube center has a zero frame parameter")
    if p[1] != ctx.inv(p[0]) or p[3] != ctx.inv(p[2]):
        raise AssertionError("cube center is not in parametric form")
    par = CubeParams(u=p[0], v=p[2], r=p[4], s=p[5])
    moved = {normalize_tuple(ctx, fm.to_frame(model.point(i)))
             for i in fig.point_indices()}
    want = {model.point(i) for pr in _cube_vertex_pairs(model, par) for i in pr}
    if moved != want:
        raise AssertionError("transported cube disagrees with parametric cube")
    return par, fm


def extend_cube(model: QuadricModel, fig: CentricFigure) -> dict:
    """Decades and the dodecade over a cube.

    In the standard frame the fifth pairs are parametrized by the conic
    e5^2 (s^2+1) + e5 e6 + e6^2 (r^2+lam) = 0, which has two projective
    solutions when the field degree is odd and none when it is even; the two
    decades then merge into a single dodecade.  Returns a dict with keys
    ``decades`` (list) and ``dodecade`` (figure or None).
    """
    ctx = model.ctx
    par, fm = cube_params(model, fig)
    u, v, r, s = par.u, par.v, par.r, par.s
    mu = ctx.mul
    A = mu(s, s) ^ 1
    C = mu(r, r) ^ model.lam

    sols: List[Tuple[int, int]] = []
    if A == 0:
        sols = [(1, 0), (C, 1)]
    else:
        roots = solve_artin_schreier(ctx, mu(A, C))
        sols = [(mu(ctx.inv(A), t), 1) for t in sorted(roots)]
    if ctx.n % 2 == 0 and sols:
        raise AssertionError("even-degree field admitted a fifth pair")
    if ctx.n % 2 == 1 and len(sols) != 2:
        raise AssertionError("odd-degree field did not yield two fifth pairs")

    ui, vi = ctx.inv(u), ctx.inv(v)
    rs1 = mu(r, s) ^ 1
    pairs_new: List[Tuple[int, int]] = []
    for e5, e6 in sols:
        p1v = (mu(mu(u, s), e5) ^ mu(mu(u, r), e6),
               mu(mu(ui, s), e5) ^ mu(mu(ui, r), e6), 0, 0, e5, e6)
        p2v = (0, 0, mu(mu(v, s), e5) ^ mu(mu(v, r), e6),
               mu(mu(vi, s), e5) ^ mu(mu(vi, r), e6),
               mu(rs1, e5) ^ mu(mu(r, r), e6),
               mu(mu(s, s), e5) ^ mu(rs1, e6))
        i1 = model.index_of(fm.from_frame(p1v))
        i2 = model.index_of(fm.from_frame(p2v))
        if i1 is None or i2 is None:
            raise AssertionError("fifth pair fell off the quadric")
        pairs_new.append((i1, i2))

    decades = [_made(model, list(fig.pairs) + [pr], fig.center, "decade")
               for pr in pairs_new]
    dodecade = None
    if pairs_new:
        dodecade = _made(model, list(fig.pairs) + pairs_new, fig.center, "dodecade")
    return {"decades": decades, "dodecade": dodecade}


def extend_cube_bruteforce(model: QuadricModel, fig: CentricFigure) -> dict:
    """Scan the quadric for fifth pairs over a cube; definitional oracle."""
    if fig.kind != "cube":
        raise ValueError("not a centric cube")
    row0, row1 = fig.rows
    g = alpha_table(model)
    m0 = np.ones(model.n_points, dtype=bool)
    m1 = np.ones_like(m0)
    for x in row0:
        m0 &= g[x] == 0
        m1 &= g[x] != 0
    for x in row1:
        m0 &= g[x] != 0
        m1 &= g[x] == 0
    decades = _completions_bruteforce(model, fig, m0 | m1)
    dodecade = None
    if decades:
        extra = [pr for d in decades for pr in d.pairs[4:]]
        dodecade = _made(model, list(fig.pairs) + extra, fig.center,
                         "merge of the brute-force fifth pairs")
    return {"decades": decades, "dodecade": dodecade}


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


def _vec_sum(vecs: Sequence[Vec]) -> Vec:
    out = [0] * len(vecs[0])
    for v in vecs:
        for i, x in enumerate(v):
            out[i] ^= x
    return tuple(out)


def _line_meet(ctx: FieldCtx, a: Vec, b: Vec, c: Vec, d: Vec) -> Vec:
    """Intersection point of lines ab and cd (must meet in one point)."""
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
    gram = alpha_table(model)
    verts = [i for p in fig.pairs for i in p]
    rep_of = dict(zip(verts, scaled))
    partner = fig.partner
    vecs = {i: model.point(i) for i in verts}
    seen: Set[frozenset] = set()
    out: List[Vec] = []
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if partner[u] == w or gram[u, w] != 0:
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


def f2_closure(model: QuadricModel, vectors: Sequence[Vec]) -> F2Span:
    """Greedy subset-sum span of a vector family, the form evaluated on
    every normalized point of it.

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


def recognize_subgeometry(model: QuadricModel, span: F2Span,
                          center: Optional[Vec] = None) -> SubgeometryReport:
    """Classify the quadric points of a span by incidence structure.

    Induced lines are quadric lines meeting the point set in at least two
    points; the (points, lines, degrees) profile is matched against the
    three binary quadric signatures, and the generalized-quadrangle axiom
    (a point off a line sees exactly one of its points) is checked for the
    matched order.  Collinearity is read from `quadric_oracle.alpha_table`
    and the lines from the model's ``lines`` and ``lines_through``.
    """
    ctx = model.ctx
    idx = [model.index_of(p) for p in span.quadric_points]
    npts = len(idx)
    local = {x: k for k, x in enumerate(idx)}
    coll = (alpha_table(model)[np.ix_(idx, idx)] == 0).tolist()

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
