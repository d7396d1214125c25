"""The affine quadrangle, its elation-orbit quotient, and the 2-fold covering.

Removing the hyperplane section from the quadric leaves the affine quadrangle:
its points are the affine quadric points, its lines the punctured quadric
lines, each remembering the single section point it lost (the point at
infinity).  Sending an affine point to its perpendicular section and a
punctured line to the pencil based at its infinity point is a 2-to-1 covering
of the ovoid geometry; the fiber over an ovoid is exactly one elation orbit,
and the quotient by orbits reproduces the ovoid geometry on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .ovoid import OvoidGeometry
from .quadric import QuadricModel


@dataclass(eq=False)
class AffineQuadrangle:
    """Points and punctured lines of the quadric away from the hyperplane.

    points: affine quadric point indices (sorted).
    lines: per affine line, (tuple of its q affine points, infinity point).
    pencils: per affine point index, list of affine line ids through it.
    adjacency: collinearity matrix over dense affine indices.
    """

    model: QuadricModel
    points: List[int]
    lines: List[Tuple[Tuple[int, ...], int]]
    pencils: Dict[int, List[int]]
    adjacency: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass(eq=False)
class CoveringMap:
    """The canonical 2-fold covering onto the ovoid geometry, with its fibers."""

    affine: AffineQuadrangle
    geom: OvoidGeometry
    point_image: np.ndarray                 # quadric point index -> ovoid id (-1 off P̂)
    line_image: np.ndarray                  # affine line id -> rosette id
    point_fiber: List[Tuple[int, int]]      # ovoid id -> pair of affine point indices
    line_fiber: List[Tuple[int, int]]       # rosette id -> pair of affine line ids

    @cached_property
    def fiber_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense affine indices of the first and of the second fiber points."""
        aidx = self.affine.model.affine_index
        return (np.array([aidx[f[0]] for f in self.point_fiber]),
                np.array([aidx[f[1]] for f in self.point_fiber]))


def build_affine(model: QuadricModel) -> AffineQuadrangle:
    """Split the model's lines along the hyperplane and keep the punctured ones."""
    q = model.ctx.q
    lines: List[Tuple[Tuple[int, ...], int]] = []
    for ln in model.lines:
        inf = [p for p in ln if model.in_section[p]]
        if len(inf) == q + 1:
            continue
        if len(inf) != 1:
            raise AssertionError("line meets the hyperplane section in "
                                 f"{len(inf)} points, expected 1 or q+1")
        lines.append((tuple(p for p in ln if not model.in_section[p]), inf[0]))
    pencils: Dict[int, List[int]] = {p: [] for p in model.affine_points}
    for li, (pts, _) in enumerate(lines):
        for p in pts:
            pencils[p].append(li)
    if any(len(v) != q * q + 1 for v in pencils.values()):
        raise AssertionError("some affine point is not on q^2+1 punctured lines")
    aff = model.affine_points
    sub = model.gram[np.ix_(aff, aff)] == 0
    np.fill_diagonal(sub, False)
    return AffineQuadrangle(model=model, points=list(aff), lines=lines,
                            pencils=pencils, adjacency=sub)


def canonical_covering(model: QuadricModel, gx: OvoidGeometry) -> CoveringMap:
    """Map affine points to their perpendicular-section ovoids and punctured
    lines to the pencils at their infinity points; collect the 2-element fibers."""
    if gx.model is not model:
        raise ValueError("geometry was built from a different model")
    affine = build_affine(model)
    q = model.ctx.q

    point_fiber = [ov.orbit for ov in gx.ovoids]
    orbits = np.array(point_fiber)
    # both orbit points must have the same perpendicular section
    sect = model.section_points
    if not np.array_equal(model.gram[np.ix_(orbits[:, 0], sect)] == 0,
                          model.gram[np.ix_(orbits[:, 1], sect)] == 0):
        raise AssertionError("elation orbit points have different perp sections")
    point_image = np.full(model.n_points, -1, dtype=np.int32)
    point_image[orbits] = np.arange(len(orbits), dtype=np.int32)[:, None]

    line_image = np.full(len(affine.lines), -1, dtype=np.int32)
    line_fiber_acc: Dict[int, List[int]] = {}
    member_lookup = {
        (r.base, frozenset(r.members)): r.id for r in gx.rosettes
    }
    for li, (pts, inf) in enumerate(affine.lines):
        images = [int(point_image[p]) for p in pts]
        if len(set(images)) != q:
            raise AssertionError("punctured line does not map injectively")
        rid = member_lookup.get((inf, frozenset(images)))
        if rid is None:
            raise AssertionError("image of a punctured line is not a pencil "
                                 "based at its infinity point")
        line_image[li] = rid
        line_fiber_acc.setdefault(rid, []).append(li)
    if sorted(line_fiber_acc) != list(range(len(gx.rosettes))):
        raise AssertionError("line map is not surjective onto the pencils")
    if any(len(v) != 2 for v in line_fiber_acc.values()):
        raise AssertionError("some pencil has a line fiber of size != 2")
    line_fiber = [tuple(sorted(line_fiber_acc[r])) for r in range(len(gx.rosettes))]
    return CoveringMap(affine=affine, geom=gx, point_image=point_image,
                       line_image=line_image, point_fiber=point_fiber,
                       line_fiber=line_fiber)


def lift_path(cov: CoveringMap, path: Sequence[int], start: int) -> List[int]:
    """Unique path upstairs over a walk of pairwise-tangent ovoids, from start.

    path is a sequence of ovoid ids with consecutive entries tangent; start is
    an affine point over path[0].  Each step crosses to the unique fiber point
    of the next ovoid collinear with the current point.
    """
    geom, affine = cov.geom, cov.affine
    if int(cov.point_image[start]) != path[0]:
        raise ValueError("start point is not in the fiber of the first vertex")
    aidx = affine.model.affine_index
    out = [start]
    cur = start
    for prev_ov, next_ov in zip(path, path[1:]):
        if not geom.adjacency[prev_ov, next_ov]:
            raise ValueError("consecutive path vertices are not tangent")
        cands = [b for b in cov.point_fiber[next_ov]
                 if affine.adjacency[aidx[cur], aidx[b]]]
        if len(cands) != 1:
            raise AssertionError("edge does not lift uniquely")
        cur = cands[0]
        out.append(cur)
    return out


def verify_covering(cov: CoveringMap) -> dict:
    """Re-check the covering laws from the stored maps: fiber sizes and orbit
    structure, per-line and per-pencil bijectivity, and the isomorphism of the
    orbit quotient with the ovoid geometry.  Failures carry coordinates."""
    model = cov.affine.model
    geom = cov.geom
    q = model.ctx.q
    report: dict = {
        "fibers_ok": True, "line_bijections_ok": True,
        "pencil_bijections_ok": True, "quotient_iso_ok": True,
    }

    # point fibers: size 2, elation orbits, consistent with the direction map
    perm = model.elation_perm
    for oid, fib in enumerate(cov.point_fiber):
        ok = (len(set(fib)) == 2
              and int(perm[fib[0]]) == fib[1]
              and all(int(cov.point_image[x]) == oid for x in fib))
        if not ok:
            report["fibers_ok"] = False
            report["counterexample"] = {"kind": "point_fiber", "ovoid": oid}
            return report
    covered = [int(cov.point_image[x]) for x in cov.affine.points]
    if sorted(set(covered)) != list(range(geom.n_ovoids)):
        report["fibers_ok"] = False
        report["counterexample"] = {"kind": "point_map_not_surjective"}
        return report

    # line restrictions: each punctured line maps bijectively onto its pencil
    for li, (pts, inf) in enumerate(cov.affine.lines):
        rid = int(cov.line_image[li])
        r = geom.rosettes[rid]
        images = sorted(int(cov.point_image[p]) for p in pts)
        if r.base != inf or images != sorted(r.members) or len(set(images)) != q:
            report["line_bijections_ok"] = False
            report["counterexample"] = {"kind": "line_restriction", "line": li,
                                        "infinity": inf, "rosette": rid}
            return report
    for rid, fib in enumerate(cov.line_fiber):
        if len(set(fib)) != 2 or any(int(cov.line_image[l]) != rid for l in fib):
            report["line_bijections_ok"] = False
            report["counterexample"] = {"kind": "line_fiber", "rosette": rid}
            return report

    # pencil restrictions: lines through x <-> pencils through the image ovoid
    for x in cov.affine.points:
        rids = sorted(int(cov.line_image[l]) for l in cov.affine.pencils[x])
        want = sorted(geom.incidence[int(cov.point_image[x])])
        if rids != want:
            report["pencil_bijections_ok"] = False
            report["counterexample"] = {"kind": "pencil_restriction", "point": x}
            return report

    # quotient by orbits is the ovoid geometry: the class map [x] -> image
    # ovoid is constant on orbits and carries quotient lines onto pencils
    qlines = {}
    for li, (pts, _) in enumerate(cov.affine.lines):
        orbit_class = frozenset(min(p, int(perm[p])) for p in pts)
        members = frozenset(int(cov.point_image[p]) for p in pts)
        prev = qlines.setdefault(orbit_class, (members, li))
        if prev[0] != members:
            report["quotient_iso_ok"] = False
            report["counterexample"] = {"kind": "quotient_line", "lines": [prev[1], li]}
            return report
    rosette_sets = {frozenset(r.members) for r in geom.rosettes}
    image_sets = [v[0] for v in qlines.values()]
    if (len(qlines) != len(geom.rosettes)
            or len(set(image_sets)) != len(image_sets)
            or set(image_sets) != rosette_sets):
        report["quotient_iso_ok"] = False
        report["counterexample"] = {"kind": "quotient_line_sets"}
        return report
    return report


def verify_adjacency_oracle(cov: CoveringMap) -> dict:
    """Tangency downstairs equals cross-fiber collinearity upstairs.

    Checks, for every ovoid pair, that |A∩B| = 1 exactly when some point of
    A's fiber is collinear with some point of B's fiber."""
    geom, affine = cov.geom, cov.affine
    x1, x2 = cov.fiber_rows
    A = affine.adjacency
    cross = (A[np.ix_(x1, x1)] | A[np.ix_(x1, x2)]
             | A[np.ix_(x2, x1)] | A[np.ix_(x2, x2)])
    agree = cross == geom.adjacency
    np.fill_diagonal(agree, True)
    return {"pass": bool(agree.all()),
            "pairs_checked": geom.n_ovoids * (geom.n_ovoids - 1) // 2}


def fiber_distances(cov: CoveringMap) -> dict:
    """Distance upstairs between the two points of every fiber, plus diameters.

    Uses boolean/float32 powers of the collinearity matrix; the two fiber
    points must be non-adjacent, share no neighbour, and be joined by a
    3-step walk, and the whole graph must have diameter exactly 3."""
    affine, geom = cov.affine, cov.geom
    A = affine.adjacency
    af = A.astype(np.float32)
    A2 = af @ af
    A3 = af @ A2
    x1, x2 = cov.fiber_rows
    fibers_at_3 = bool((~A[x1, x2]).all() and (A2[x1, x2] == 0).all()
                       and (A3[x1, x2] > 0).all())

    n = len(A)
    reach2 = A | (A2 > 0)
    np.fill_diagonal(reach2, True)
    reach = reach2 | (A3 > 0)
    diam3 = bool(reach.all()) and not bool(reach2.all())   # not already within 2
    return {"pass": fibers_at_3 and diam3,
            "fibers_at_distance_3": fibers_at_3,
            "diameter_is_3": diam3,
            "n_points": n}


def quotient_graph_diameter(geom: OvoidGeometry) -> int:
    """Diameter of the tangency graph on ovoids (complete at q=2, else 2)."""
    A = geom.adjacency.astype(np.float32)
    n = len(A)
    reach = geom.adjacency.copy()
    np.fill_diagonal(reach, True)
    if reach.all():
        return 1
    reach |= (A @ A) > 0
    if reach.all():
        return 2
    raise AssertionError("tangency graph has diameter > 2")


def rook_grid_complement_check(cov: CoveringMap) -> dict:
    """At q=2 the affine collinearity graph is the complement of a 2-by-6 grid.

    The complement must decompose into two disjoint 6-cliques (the grid rows)
    plus a perfect matching between them (the columns), with no other edges."""
    affine = cov.affine
    model = affine.model
    if model.ctx.q != 2:
        raise ValueError("grid complement structure is specific to q = 2")
    n = affine.n_points
    C = ~affine.adjacency
    np.fill_diagonal(C, False)
    perm = model.elation_perm
    aidx = model.affine_index
    matching = {(aidx[x], aidx[int(perm[x])]) for x in affine.points}
    matching = {tuple(sorted(e)) for e in matching}
    if len(matching) != 6 or not all(C[a, b] for a, b in matching):
        return {"pass": False, "reason": "orbit matching not in complement"}
    v0 = 0
    partner = dict()
    for a, b in matching:
        partner[a] = b
        partner[b] = a
    row0 = sorted(set(np.nonzero(C[v0])[0].tolist()) - {partner[v0]} | {v0})
    row1 = sorted(set(range(n)) - set(row0))
    if len(row0) != 6 or len(row1) != 6:
        return {"pass": False, "reason": "rows are not two sixes"}
    for row in (row0, row1):
        sub = C[np.ix_(row, row)]
        if not sub[~np.eye(6, dtype=bool)].all():
            return {"pass": False, "reason": "a row is not a 6-clique"}
    expected_edges = {tuple(sorted((a, b))) for row in (row0, row1)
                      for i, a in enumerate(row) for b in row[i + 1:]}
    expected_edges |= matching
    actual = {tuple(sorted((int(i), int(j)))) for i, j in zip(*np.nonzero(C)) if i < j}
    if actual != expected_edges:
        return {"pass": False, "reason": "extra or missing complement edges"}
    if not all(len({a, b} & set(row0)) == 1 for a, b in matching):
        return {"pass": False, "reason": "matching does not join the two rows"}
    return {"pass": True, "rows": [row0, row1], "matching": sorted(matching)}
