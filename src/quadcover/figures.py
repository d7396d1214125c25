"""Centric point configurations on the elliptic quadric.

A *centric figure* is a set of 2m quadric points split into m opposite pairs,
together with a center point off the quadric, such that

* every pair spans a line through the center, and
* the collinearity graph induced on the 2m points is the complement of the
  m-by-2 rook grid (equivalently: two points are collinear exactly when they
  lie in different pairs and in different halves of the bipartition).

For m = 3,4,5,6 these are called hexagons, cubes, decades and dodecades.
Hexagons and cubes with center at the quadric nucleus are exactly the lifts
of non-linear 3- and 4-cliques of the tangency graph; this module provides
the lift, parametric solvers that extend a hexagon to its cubes and a cube
to its decades/dodecade, and brute-force enumerations used to cross-check
every solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .bitrows import pack_rows, unpack_rows
from .gf2n import FieldCtx, conic_solution_set, solve_artin_schreier
from .projgeom import Vec, enumerate_points, normalize_tuple, rref, vec_add, vec_scale
from .quadric import QuadricModel, second_intersection, second_intersections
from .covering import CoveringMap

KIND_BY_SIZE = {3: "hexagon", 4: "cube", 5: "decade", 6: "dodecade"}
SIZE_BY_KIND = {v: k for k, v in KIND_BY_SIZE.items()}


@dataclass(frozen=True)
class CubeParams:
    """Parameters (u, v, r, s) of a cube on the standard frame.

    The center is [u, 1/u, v, 1/v, r, s]; validity needs u, v nonzero and
    r^2 + r*s + lam*s^2 = 1.
    """

    u: int
    v: int
    r: int
    s: int


@dataclass(frozen=True)
class CentricFigure:
    """2m quadric points in m opposite pairs concurrent through a center.

    Figures come from ``make_figure``, which checks the axioms once; the
    functions that take a figure trust its ``kind`` and ``rows``.

    Attributes
    ----------
    kind : str
        One of "hexagon", "cube", "decade", "dodecade".
    pairs : tuple of (int, int)
        Opposite pairs as quadric point indices.
    center : Vec
        Normalized coordinates of the center (not on the quadric).
    rows : tuple of two sorted tuples of int
        The bipartition derived by the check.  It is determined by the
        pairs, so it takes no part in equality or ``key()``.
    """

    kind: str
    pairs: Tuple[Tuple[int, int], ...]
    center: Vec
    rows: Tuple[Tuple[int, ...], Tuple[int, ...]] = field(compare=False)

    def key(self) -> Tuple[str, frozenset, Vec]:
        """Canonical identity, independent of pair order and orientation."""
        return (self.kind, frozenset(frozenset(p) for p in self.pairs), self.center)

    def point_indices(self) -> List[int]:
        return sorted(i for p in self.pairs for i in p)

    @property
    def partner(self) -> Dict[int, int]:
        """The opposite point of each point."""
        return {x: y for a, b in self.pairs for x, y in ((a, b), (b, a))}


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


def extend_figure(model: QuadricModel, fig: CentricFigure,
                  new_pairs: Sequence[Tuple[int, int]]) -> CentricFigure:
    """``fig`` (made by ``make_figure`` or here) with ``new_pairs`` added.

    Only what the new pairs add is checked; a failure raises ValueError with
    the reason ``make_figure`` would give on the whole figure.
    """
    pairs = fig.pairs + tuple((int(a), int(b)) for a, b in new_pairs)
    m = len(pairs)
    if m not in KIND_BY_SIZE:
        raise ValueError(f"no figure kind with {m} pairs")
    row = dict.fromkeys(fig.rows[0], 0)
    row.update(dict.fromkeys(fig.rows[1], 1))
    rows = _check_pairs(model, pairs, fig.center, len(fig.pairs), row)
    return CentricFigure(KIND_BY_SIZE[m], pairs, fig.center, rows)


def _made(what: str, build, *args) -> CentricFigure:
    """``make_figure`` or ``extend_figure`` on a figure this module
    constructed.  A failed check there is a broken law, not bad input, so it
    raises AssertionError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise AssertionError(f"{what} failed check: {exc}") from None


# -- structure verification ----------------------------------------------------


def verify_centric_figure(model: QuadricModel, fig: CentricFigure) -> dict:
    """Check the full centric-figure axioms; returns a pass/fail report.

    The report carries the derived bipartition as ``rows`` (two tuples of
    quadric point indices) when the check passes, and a ``reason`` string
    when it does not.
    """
    m = len(fig.pairs)
    out: dict = {"pass": False, "kind": fig.kind, "m": m}
    if SIZE_BY_KIND.get(fig.kind) != m:
        out["reason"] = "kind does not match number of pairs"
        return out
    try:
        out["rows"] = _check_pairs(model, fig.pairs, fig.center, 0, {})
    except ValueError as exc:
        out["reason"] = str(exc)
        return out
    out["pass"] = True
    return out


def _check_pairs(model: QuadricModel, pairs: Sequence[Tuple[int, int]], center: Vec,
                 k: int, row: Dict[int, int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The rows of a centric figure on ``pairs``, checked from pair k on.

    ``pairs[:k]`` must be a checked figure on ``center`` with its rows in
    ``row`` (empty for k = 0).  The axioms run in the order of a full check,
    on what the new pairs add: distinct points, the center off Q (k = 0
    only), concurrency, the rows against the reference pair ``pairs[0]``,
    then collinear <=> different pair and different row for every pair of
    points with a new one.  So the first failure raises ValueError with the
    reason the full check gives.

    Collinearity is read once, as one block of ``model.collinear``: the
    rows of the new points (of every point when k = 0) against all the
    points.  alpha is symmetric, so the block is read transposed, a pair of
    points with a new one at the new point's row.  The center c is off Q,
    so the line through a pair's first point x and c meets Q in at most one
    other point: the pair is concurrent with the center exactly when that
    point is the second one.  On c + t*x the quadric condition reads
    f(c) + t*alpha(c, x) = 0, so the point is [c + (f(c) / alpha(c, x)) x],
    and there is none when alpha(c, x) is 0; f(c) is evaluated once.
    """
    pts = [i for p in pairs for i in p]
    if len(set(pts)) != len(pts):
        raise ValueError("repeated point")
    fc = model.f_scalar(center)
    if k == 0 and fc == 0:
        raise ValueError("center lies on the quadric")
    ctx = model.ctx
    M, fc_row = ctx.mul_rows, ctx.mul_rows[fc]
    for a, b in pairs[k:]:
        x = model.point(a)
        s = model.alpha_scalar(center, x)
        t = M[fc_row[ctx.inv_row[s]]]                   # t's row; 0 when s is 0
        if not s or normalize_tuple(
                ctx, [ci ^ t[xi] for ci, xi in zip(center, x)]) != model.point(b):
            raise ValueError(f"pair ({a},{b}) not concurrent with the center")

    new = 2 * k
    coll = model.collinear(pts[new:], pts).tolist()
    ra, rb = pairs[0]
    if k == 0:
        row[ra], row[rb] = 0, 1
    for i in range(2 * max(k, 1), len(pts)):
        x = pts[i]
        hits = coll[i - new][0], coll[i - new][1]
        if hits == (True, False):
            row[x] = 1
        elif hits == (False, True):
            row[x] = 0
        else:
            raise ValueError(f"point {x} sees the reference pair {hits}")
        if i % 2 and row[pts[i - 1]] == row[x]:
            raise ValueError(f"pair ({pts[i - 1]},{x}) landed in one row")
    # pts[i] and pts[j] are partners exactly when i // 2 == j // 2
    for i, u in enumerate(pts):
        for j in range(max(i + 1, new), len(pts)):
            v = pts[j]
            if coll[j - new][i] != (i // 2 != j // 2 and row[u] != row[v]):
                raise ValueError(f"adjacency mismatch at ({u},{v})")
    return (tuple(sorted(x for x in pts if row[x] == 0)),
            tuple(sorted(x for x in pts if row[x] == 1)))


# -- lifting cliques -----------------------------------------------------------


def lift_clique_to_figure(cov: CoveringMap, clique: Sequence[int]) -> CentricFigure:
    """Lift a non-linear tangency clique to the centric figure over the nucleus.

    The preimage of each clique vertex is a fiber pair of affine quadric
    points; the union of fibers is returned as a centric figure centered at
    the nucleus.  Linear cliques do not lift to figures and are rejected.
    """
    gx = cov.geom
    model = gx.model
    if len(clique) != len(set(clique)):
        raise ValueError("repeated clique vertex")
    tangent = unpack_rows(gx.tangency[list(clique)], gx.n_ovoids)
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            if not tangent[i, b]:
                raise ValueError(f"ovoids {a} and {b} are not tangent")
    if len(clique) not in KIND_BY_SIZE:
        raise ValueError(f"no figure kind with {len(clique)} pairs")
    # pairwise tangent ovoids share their tangency points exactly when they
    # all pass through one point
    if gx.member_matrix[list(clique)].all(axis=0).any():
        raise ValueError("linear clique: all tangencies share one point")
    return _made("lift", make_figure, model, [cov.point_fiber[a] for a in clique],
                 model.nucleus)


def figure_to_clique(cov: CoveringMap, fig: CentricFigure) -> Tuple[int, ...]:
    """Project a figure's opposite pairs back to tangency-graph vertices."""
    out = []
    for a, b in fig.pairs:
        oa, ob = int(cov.point_image[a]), int(cov.point_image[b])
        if oa < 0 or oa != ob:
            raise ValueError(f"pair ({a},{b}) is not a point fiber")
        out.append(oa)
    return tuple(sorted(out))


# -- the standard cube family --------------------------------------------------


def fundamental_quadrangle(model: QuadricModel) -> Tuple[int, int, int, int]:
    """Indices of the standard quadrangle e1, e3, e2, e4 (a 4-cycle)."""
    e = [tuple(1 if j == i else 0 for j in range(6)) for i in range(4)]
    a1, c1, b1, d1 = (model.index_of(v) for v in e)
    return a1, b1, c1, d1  # type: ignore[return-value]


def cube_center(model: QuadricModel, par: CubeParams) -> Vec:
    ctx = model.ctx
    c = (par.u, ctx.inv(par.u), par.v, ctx.inv(par.v), par.r, par.s)
    return normalize_tuple(ctx, c)


def _cube_vertex_pairs(model: QuadricModel, par: CubeParams) -> List[Tuple[int, int]]:
    """Opposite pairs of the cube on the standard quadrangle with parameters
    ``par``, as rational functions of (u, v, r, s)."""
    M = model.ctx.mul_rows
    u, v, r, s = par.u, par.v, par.r, par.s
    if u == 0 or v == 0:
        raise ValueError("cube parameters need u, v nonzero")
    if M[r][r ^ s] ^ M[model.lam][M[s][s]] != 1:
        raise ValueError("cube parameters must satisfy the center conic")
    ui, vi = model.ctx.inv_row[u], model.ctx.inv_row[v]
    U, V, Ui, Vi = M[u], M[v], M[ui], M[vi]

    a1 = (1, 0, 0, 0, 0, 0)
    b1 = (0, 0, 1, 0, 0, 0)
    c1 = (0, 1, 0, 0, 0, 0)
    d1 = (0, 0, 0, 1, 0, 0)
    a2 = (0, Ui[ui], Ui[v], Ui[vi], Ui[r], Ui[s])
    b2 = (U[vi], Vi[ui], 0, Vi[vi], Vi[r], Vi[s])
    c2 = (U[u], 0, U[v], U[vi], U[r], U[s])
    d2 = (U[v], V[ui], V[v], 0, V[r], V[s])

    pairs = []
    for x, y in ((a1, a2), (b1, b2), (c1, c2), (d1, d2)):
        ix, iy = model.index_of(x), model.index_of(y)
        if ix is None or iy is None:
            raise AssertionError("cube vertex fell off the quadric")
        pairs.append((ix, iy))
    return pairs


def enumerate_cube_centers(model: QuadricModel) -> Set[Vec]:
    """Centers of cubes on the standard quadrangle, parametrically.

    These are the points [u, 1/u, v, 1/v, r, s] with u, v nonzero and (r, s)
    on the conic r^2 + r*s + lam*s^2 = 1; there are (q-1)^2 (q+1) of them.
    """
    ctx = model.ctx
    conic = conic_solution_set(ctx, model.lam, 0)
    out: Set[Vec] = set()
    for u in range(1, ctx.q):
        for v in range(1, ctx.q):
            for r, s in conic:
                out.add(cube_center(model, CubeParams(u, v, r, s)))
    expect = (ctx.q - 1) ** 2 * (ctx.q + 1)
    if len(out) != expect:
        raise AssertionError("parametric center count off")
    return out


def enumerate_cube_centers_bruteforce(model: QuadricModel) -> Set[Vec]:
    """Scan all of PG(5,q) off Q for points that center a cube on the
    standard quadrangle; definitional cross-check for the parametric set."""
    ctx = model.ctx
    a1, b1, c1, d1 = fundamental_quadrangle(model)
    frame = [model.point(i) for i in (a1, b1, c1, d1)]
    out: Set[Vec] = set()
    for p in enumerate_points(ctx, 6).tolist():
        if model.f_scalar(p) == 0:
            continue
        # the center must be perp-free on the frame
        if any(model.alpha_scalar(p, x) == 0 for x in frame):
            continue
        pairs = []
        ok = True
        for x in frame:
            y = second_intersection(model, x, p)
            iy = model.index_of(y) if y is not None else None
            ix = model.index_of(x)
            if iy is None or iy == ix:
                ok = False
                break
            pairs.append((ix, iy))
        if not ok:
            continue
        try:
            out.add(make_figure(model, pairs, p).center)
        except ValueError:
            pass
    return out


# -- adapted frames ------------------------------------------------------------


class FrameMap:
    """Coordinate change carrying an adapted basis to the standard frame.

    Rows v1..v6 satisfy f(v1)=..=f(v4)=0, f(v5)=1, f(v6)=lam and the only
    nonzero polarization values are alpha(v1,v2)=alpha(v3,v4)=alpha(v5,v6)=1,
    so the quadric polynomial has the same expression in both coordinate
    systems.  The basis is hyperbolic, so the frame coordinates of x are its
    pairings alpha(x, v2), alpha(x, v1), alpha(x, v4), alpha(x, v3),
    alpha(x, v6), alpha(x, v5); the pairings are checked once, here.
    """

    def __init__(self, model: QuadricModel, rows: Sequence[Vec]):
        self.model = model
        self.ctx = model.ctx
        self.rows = tuple(tuple(r) for r in rows)
        for i in range(6):
            for j in range(i + 1, 6):
                want = int(j == i + 1 and i % 2 == 0)
                if model.alpha_scalar(self.rows[i], self.rows[j]) != want:
                    raise AssertionError(f"frame pairing ({i + 1},{j + 1}) is not {want}")

    def to_frame(self, x: Sequence[int]) -> Vec:
        return tuple([self.model.alpha_scalar(x, self.rows[i ^ 1]) for i in range(6)])

    def from_frame(self, y: Sequence[int]) -> Vec:
        return tuple(_combination(self.ctx, y, self.rows))


def _combination(ctx: FieldCtx, coeffs: Sequence[int], vecs: Sequence[Vec]) -> List[int]:
    """sum_i coeffs[i] * vecs[i], skipping zero coefficients."""
    M = ctx.mul_rows
    o1 = o2 = o3 = o4 = o5 = o6 = 0
    for c, (a1, a2, a3, a4, a5, a6) in zip(coeffs, vecs):
        if c:
            r = M[c]
            o1, o2, o3, o4, o5, o6 = (o1 ^ r[a1], o2 ^ r[a2], o3 ^ r[a3],
                                      o4 ^ r[a4], o5 ^ r[a5], o6 ^ r[a6])
    return [o1, o2, o3, o4, o5, o6]


def build_adapted_frame(model: QuadricModel, a1: int, c1: int, b1: int,
                        d1: Optional[int] = None) -> FrameMap:
    """Frame sending a1 -> e1, c1 -> e2, b1 -> e3 (and d1 -> e4 if given).

    Needs alpha(a1, c1) != 0 and b1 (resp. d1) collinear with both a1 and c1;
    when d1 is omitted the first quadric point with the right incidences is
    taken.  The remaining two basis vectors come from the perp of the first
    four, normalized against the quadric polynomial.  The values of alpha on
    the four quadric points are read from one block: every point against
    a1, c1 and b1.
    """
    ctx = model.ctx
    M = ctx.mul_rows
    ga, gc, gb = model.alpha(np.arange(model.n_points), [a1, c1, b1]).T
    if ga[c1] == 0:
        raise ValueError("frame points a1, c1 must be non-collinear")
    if ga[b1] or gc[b1]:
        raise ValueError("frame point b1 must be collinear with a1 and c1")
    if d1 is None:
        found = np.nonzero((ga == 0) & (gc == 0) & (gb != 0))[0]
        if len(found) == 0:
            raise AssertionError("no fourth frame point found")
        d1 = int(found[0])
    if gb[d1] == 0 or ga[d1] or gc[d1]:
        raise ValueError("fourth frame point has wrong incidences")
    v1, v3 = model.point(a1), model.point(b1)
    v2 = vec_scale(ctx, ctx.inv_row[ga[c1]], model.point(c1))
    v4 = vec_scale(ctx, ctx.inv_row[gb[d1]], model.point(d1))

    # The perp of v1..v4 is a plane on which f is anisotropic.  Projecting
    # e_j off the two hyperbolic pairs, e_j + alpha(e_j, v2) v1 + ..., spans
    # it; alpha(e_j, v) = v[j ^ 1].  Its reduced echelon basis is canonical.
    proj = []
    for j in range(6):
        x = _combination(ctx, (v2[j ^ 1], v1[j ^ 1], v4[j ^ 1], v3[j ^ 1]),
                         (v1, v2, v3, v4))
        x[j] ^= 1
        proj.append(x)
    w = rref(ctx, proj)
    if len(w) != 2:
        raise AssertionError(f"perp space has dimension {len(w)}, wanted 2")
    # On a*w0 + b*w1: f = a^2 f(w0) + ab alpha(w0, w1) + b^2 f(w1), and
    # alpha(v5, .) = a alpha(v5, w0) + b alpha(v5, w1).  Both searches scan
    # (a, b) in lexicographic order: v5 and v6 are the first vectors that fit.
    f0, f1 = M[model.f_scalar(w[0])], M[model.f_scalar(w[1])]
    a01 = M[model.alpha_scalar(w[0], w[1])]
    plane = [(a, b) for a in range(ctx.q) for b in range(ctx.q) if a or b]

    def f_at(a, b):
        return f0[M[a][a]] ^ a01[M[a][b]] ^ f1[M[b][b]]

    ab5 = next((ab for ab in plane if f_at(*ab) == 1), None)
    if ab5 is None:
        raise AssertionError("no unit vector in the perp plane")
    v5 = tuple(_combination(ctx, ab5, w))
    s0, s1 = M[model.alpha_scalar(v5, w[0])], M[model.alpha_scalar(v5, w[1])]
    ab6 = next((ab for ab in plane if s0[ab[0]] ^ s1[ab[1]] == 1
                and f_at(*ab) == model.lam), None)
    if ab6 is None:
        raise AssertionError("frame completion failed")
    return FrameMap(model, (v1, v2, v3, v4, v5, tuple(_combination(ctx, ab6, w))))


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
    return fm, vec_scale(ctx, ctx.inv_row[ctx.sqrt(fp)], p)


def _completions_bruteforce(model: QuadricModel, fig: CentricFigure,
                            mask: np.ndarray) -> List[CentricFigure]:
    """Figures that add one opposite pair to ``fig``, scanning the quadric
    points in ``mask``; the opposite point is the second intersection of the
    line through the candidate and the center.  No solver calls this."""
    out: List[CentricFigure] = []
    seen = set()
    idx = np.flatnonzero(mask)
    if len(idx) == 0:  # the cube scans at even degree: skip the array pass
        return out
    for i, j in zip(idx.tolist(), second_intersections(model, idx, fig.center).tolist()):
        if j < 0 or j == i or frozenset((i, j)) in seen:
            continue
        seen.add(frozenset((i, j)))
        try:
            out.append(extend_figure(model, fig, [(i, j)]))
        except ValueError:
            pass
    return out


# -- hexagon -> cubes ----------------------------------------------------------


def hexagon_labels(model: QuadricModel, fig: CentricFigure) -> Dict[str, int]:
    """Walk the 6-cycle of a hexagon into labels a1-b1-c1-a2-b2-c2."""
    if fig.kind != "hexagon":
        raise ValueError("not a centric hexagon")
    partner = fig.partner
    a1 = fig.pairs[0][0]
    pts = fig.point_indices()
    nbrs = [x for x, coll in zip(pts, model.collinear([a1], pts)[0].tolist())
            if coll and x != a1 and x != partner[a1]]
    if len(nbrs) != 2:
        raise AssertionError("hexagon vertex degree is not 2")
    b1, c2 = nbrs
    return {"a1": a1, "b1": b1, "c1": partner[c2], "a2": partner[a1],
            "b2": partner[b1], "c2": c2}


def extend_hexagon_to_cubes(model: QuadricModel, fig: CentricFigure) -> List[CentricFigure]:
    """All cubes containing a given centric hexagon (exactly q+1 of them).

    The hexagon frame (a1, c1, b1) is carried to the standard frame and the
    center scaled to f = 1; candidate fourth pairs then live on a conic with
    parameter mu = 1 + p1*p2/p4^2, giving q+1 solutions.  Every candidate is
    rebuilt in the original coordinates and checked as an extension.
    """
    ctx = model.ctx
    fm, p = _frame_and_center(model, fig, hexagon_labels(model, fig))
    p1, p2, p3, p4, p5, p6 = p
    if p1 == 0 or p2 == 0 or p4 == 0:
        raise AssertionError("hexagon center misses a frame incidence")

    M = ctx.mul_rows
    p4i = ctx.inv_row[p4]
    mu = 1 ^ M[M[p1][p2]][M[p4i][p4i]]
    shift5, shift6 = M[p4i][p5], M[p4i][p6]
    center = fm.from_frame(p)
    out: List[CentricFigure] = []
    for x, y in sorted(conic_solution_set(ctx, model.lam, mu)):
        d5, d6 = x ^ shift5, y ^ shift6
        d3 = M[d5][d5 ^ d6] ^ M[model.lam][M[d6][d6]]
        # the pair is dd1 = (0, 0, d3, 1, d5, d6) and p4*dd1 + p in the frame
        x1 = fm.from_frame((0, 0, d3, 1, d5, d6))
        i1 = model.index_of(x1)
        i2 = model.index_of(vec_add(vec_scale(ctx, p4, x1), center))
        if i1 is None or i2 is None:
            raise AssertionError("solved pair fell off the quadric")
        out.append(_made("candidate cube", extend_figure, model, fig, [(i1, i2)]))
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
    a1, c1, b2, b1, a2, c2 = model.collinear(
        np.arange(model.n_points), [lab[k] for k in ("a1", "c1", "b2", "b1", "a2", "c2")]).T
    mask = a1 & c1 & b2 & ~(b1 | a2 | c2)
    return _completions_bruteforce(model, fig, mask)


# -- cube -> decades and dodecade ----------------------------------------------


def cube_labels(model: QuadricModel, fig: CentricFigure) -> Dict[str, int]:
    """Label a cube so that (a1, b1, c1, d1) is a face 4-cycle."""
    if fig.kind != "cube":
        raise ValueError("not a centric cube")
    row0, row1 = fig.rows
    # one vertex of each pair, from alternating rows
    a1, b1, c1, d1 = (a if a in row else b
                      for (a, b), row in zip(fig.pairs, (row0, row1, row0, row1)))
    partner = fig.partner
    return {"a1": a1, "b1": b1, "c1": c1, "d1": d1,
            "a2": partner[a1], "b2": partner[b1],
            "c2": partner[c1], "d2": partner[d1]}


def cube_params(model: QuadricModel, fig: CentricFigure) -> Tuple[CubeParams, FrameMap]:
    """Carry a cube to the standard frame and read off its parameters.

    Asserts that the transported cube equals the parametric cube on those
    parameters, which pins down the normalization.
    """
    ctx = model.ctx
    fm, p = _frame_and_center(model, fig, cube_labels(model, fig))
    if p[0] == 0 or p[2] == 0:
        raise AssertionError("cube center has a zero frame parameter")
    if p[1] != ctx.inv_row[p[0]] or p[3] != ctx.inv_row[p[2]]:
        raise AssertionError("cube center is not in parametric form")
    par = CubeParams(u=p[0], v=p[2], r=p[4], s=p[5])
    want = [i for pr in _cube_vertex_pairs(model, par) for i in pr]
    if {model.index_of(fm.from_frame(model.point(i))) for i in want} \
            != set(fig.point_indices()):
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
    M = ctx.mul_rows
    par, fm = cube_params(model, fig)
    u, v, r, s = par.u, par.v, par.r, par.s
    rr, ss = M[r][r], M[s][s]
    A, C = ss ^ 1, rr ^ model.lam

    sols: List[Tuple[int, int]] = []
    if A == 0:
        sols = [(1, 0), (C, 1)]
    else:
        roots = solve_artin_schreier(ctx, M[A][C])
        sols = [(M[ctx.inv_row[A]][t], 1) for t in sorted(roots)]
    if ctx.n % 2 == 0 and sols:
        raise AssertionError("even-degree field admitted a fifth pair")
    if ctx.n % 2 == 1 and len(sols) != 2:
        raise AssertionError("odd-degree field did not yield two fifth pairs")

    ui, vi = ctx.inv_row[u], ctx.inv_row[v]
    rs1 = M[r][s] ^ 1
    pairs_new: List[Tuple[int, int]] = []
    for e5, e6 in sols:
        w = M[s][e5] ^ M[r][e6]         # s e5 + r e6, scaled by u, 1/u, v and 1/v below
        p1v = (M[u][w], M[ui][w], 0, 0, e5, e6)
        p2v = (0, 0, M[v][w], M[vi][w], M[rs1][e5] ^ M[rr][e6], M[ss][e5] ^ M[rs1][e6])
        i1 = model.index_of(fm.from_frame(p1v))
        i2 = model.index_of(fm.from_frame(p2v))
        if i1 is None or i2 is None:
            raise AssertionError("fifth pair fell off the quadric")
        pairs_new.append((i1, i2))

    decades = [_made("decade", extend_figure, model, fig, [pr]) for pr in pairs_new]
    dodecade = None
    if pairs_new:
        dodecade = _made("dodecade", extend_figure, model, fig, pairs_new)
    return {"decades": decades, "dodecade": dodecade}


def extend_cube_bruteforce(model: QuadricModel, fig: CentricFigure) -> dict:
    """Scan the quadric for fifth pairs over a cube; definitional oracle."""
    if fig.kind != "cube":
        raise ValueError("not a centric cube")
    row0, row1 = fig.rows
    # a cube's rows hold one point of each of its 4 pairs, so a point's
    # collinearity with row0 + row1 packs into one byte; a fifth pair's point
    # sees all of one row and none of the other: 0xF0 or 0x0F
    code = pack_rows(model.collinear(np.arange(model.n_points), row0 + row1))[:, 0]
    decades = _completions_bruteforce(model, fig, (code == 0xF0) | (code == 0x0F))
    dodecade = None
    if decades:
        extra = [pr for d in decades for pr in d.pairs[4:]]
        dodecade = _made("merge of the brute-force fifth pairs", extend_figure,
                         model, fig, extra)
    return {"decades": decades, "dodecade": dodecade}


# -- quadrangle counting -------------------------------------------------------


def count_quadrangles_formula(q: int) -> int:
    """Number of unordered quadrangles on the quadric:
    (q^3+1)(q^2+1)(q+1) q^6 / 8."""
    num = (q ** 3 + 1) * (q ** 2 + 1) * (q + 1) * q ** 6
    if num % 8:
        raise AssertionError("quadrangle formula is not integral")
    return num // 8


def count_quadrangles_exhaustive(model: QuadricModel) -> int:
    """Count quadrangles by scanning diagonals; refuses fields beyond q = 4.

    For each non-collinear pair {a, c} the common neighbours form a coclique
    of size q^2 + 1 (asserted), so each such pair carries C(q^2+1, 2)
    quadrangles and every quadrangle is counted once per diagonal.
    """
    q = model.ctx.q
    if q > 4:
        raise ValueError("exhaustive quadrangle count supported only for q <= 4")
    n = model.n_points
    g0 = model.collinear(np.arange(n), np.arange(n))
    np.fill_diagonal(g0, False)
    total = 0
    for a in range(n):
        for c in range(a + 1, n):
            if g0[a, c]:
                continue
            common = g0[a] & g0[c]
            k = int(common.sum())
            if k != q * q + 1:
                raise AssertionError("perp-pair neighbourhood has wrong size")
            sub = g0[np.ix_(np.nonzero(common)[0], np.nonzero(common)[0])]
            if sub.any():
                raise AssertionError("common neighbourhood is not a coclique")
            total += k * (k - 1) // 2
    if total % 2:
        raise AssertionError("diagonal double-count is odd")
    return total // 2


def formula_n6_bar(q: int) -> int:
    """Centric-dodecade count over all centers:
    (q^3+1)(q^4-1)(q^2-1) q^6 / 720."""
    num = (q ** 3 + 1) * (q ** 4 - 1) * (q ** 2 - 1) * q ** 6
    if num % 720:
        raise AssertionError("dodecade formula is not integral")
    return num // 720
