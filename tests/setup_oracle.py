"""Reference loops for the model and geometry set-up, which
`quadcover.quadric` and `quadcover.ovoid` now build in array passes.

Kept only as oracles for the diff tests in `test_setup.py`: the point
index from a scan of every coordinate tuple, the per-point common-perp walk
for the lines, one scalar `second_intersection` per point for the elation,
one `span` per ovoid, the per-point S.S = q.S grouping of the pencils and
the per-member incidence lists.  They share no code with the array passes.
`loop_point_index`, `loop_build_lines`, `loop_build_elation`,
`loop_build_rosettes` and `loop_incidence` fill the same fields of the
model or geometry they are given as the function they replaced;
`loop_build_geometry` is the whole former `build_geometry`, but for its
table of tangency points, which `loop_tangency_point` computes as that did:
by a position-weighted product over the membership matrix.  Each packages
its loop's results into the same index arrays the set-up fills.  The loops read the form from
`quadric_oracle.alpha_table`, not from the model's `alpha`.
"""

from itertools import product
from typing import List, Tuple

import numpy as np

from projgeom_oracle import span
from quadric_oracle import alpha_table
from quadcover.ovoid import OvoidGeometry
from tangency_oracle import tangency_matrix
from quadcover.bitrows import pack_rows
from quadcover.quadric import QuadricModel, second_intersection


def loop_point_index(model: QuadricModel) -> None:
    """Intern the quadric points through a tuple-to-index dict, as the
    former point table did: every coordinate tuple whose first nonzero entry
    is 1 and on which the scalar form vanishes, in sorted order.  A point's
    code is its coordinates read as base-q digits."""
    q = model.ctx.q
    pts = [v for v in product(range(q), repeat=6)
           if any(v) and next(a for a in v if a) == 1 and model.f_scalar(v) == 0]
    index = {p: i for i, p in enumerate(sorted(pts))}
    by_code = np.full(q ** 6, -1, dtype=np.int32)
    for p, i in index.items():
        by_code[sum(a * q ** (5 - j) for j, a in enumerate(p))] = i
    section = [i for p, i in index.items() if p[5] == 0]
    section_index = np.full(len(index), -1, dtype=np.int32)
    for k, i in enumerate(section):
        section_index[i] = k
    model.coords = np.array(list(index), dtype=np.int16)
    model.index_by_code = by_code
    model.in_section = model.coords[:, 5] == 0
    model.section_points = np.array(section, dtype=np.int32)
    model.affine_points = np.array([i for p, i in index.items() if p[5] != 0],
                                   dtype=np.int32)
    model.section_index = section_index


def loop_build_lines(model: QuadricModel) -> None:
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
    gram = alpha_table(model)
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
            lines.append(tuple(pts.tolist()))
    expected = nq * (q * q + 1) // (q + 1)
    if len(lines) != expected:
        raise AssertionError(f"{len(lines)} lines, expected {expected}")
    ln = np.array(lines)
    if gram[ln[:, :, None], ln[:, None, :]].any():
        raise AssertionError("a line is not totally singular")
    if any(len(t) != q * q + 1 for t in through):
        raise AssertionError("some point is not on q^2+1 lines")
    model.lines = ln.astype(np.int32)
    model.lines_through = np.array(through, dtype=np.int32)


def loop_build_elation(model: QuadricModel) -> None:
    """Pair each point off the axis with the second quadric point toward the nucleus."""
    nq = model.n_points
    index = {tuple(p): i for i, p in enumerate(model.coords.tolist())}
    perm = np.arange(nq, dtype=np.int32)
    for x in model.affine_points.tolist():
        other = second_intersection(model, model.point(x), model.nucleus)
        if other is None:
            raise AssertionError("nucleus line is not a secant")
        perm[x] = index[other]
    if not np.array_equal(perm[perm], np.arange(nq)):
        raise AssertionError("elation is not an involution")
    if (perm[model.affine_points] == model.affine_points).any():
        raise AssertionError("elation fixes a point off its axis")
    model.elation_perm = perm


def loop_build_geometry(model: QuadricModel) -> OvoidGeometry:
    """Assemble ovoids, the tangency matrix and rosettes, asserting the structure laws.

    There is one ovoid per elation orbit of the affine points: the section
    points perpendicular to the orbit's smaller point x.  As x6 != 0 at x,
    x^perp meets {x6 = 0} in a solid that holds the ovoid; a plane meets an
    elliptic quadric in at most q+1 points, so q+2 ovoid points of rank 4
    span exactly that solid.
    """
    q = model.ctx.q
    geom = OvoidGeometry(model)
    reps = [x for x in model.affine_points if model.elation_perm[x] > x]
    n_ov = len(reps)
    if n_ov != q * q * (q * q - 1) // 2:
        raise AssertionError(f"{n_ov} ovoids, expected {q * q * (q * q - 1) // 2}")
    n_q0 = len(model.section_points)
    sect = np.array(model.section_points, dtype=np.int16)
    member = alpha_table(model)[np.ix_(reps, model.section_points)] == 0
    if (member.sum(axis=1) != q * q + 1).any():
        raise AssertionError("perp section has the wrong size")
    geom.member_matrix = member
    orbits, points, spans = [], [], []
    for i, x in enumerate(reps):
        pts = tuple(sect[member[i]].tolist())
        sp = span(model.ctx, [model.point(p) for p in pts[:q + 2]])
        if sp.rank != 4:
            raise AssertionError("ovoid does not span a 3-space")
        orbits.append((x, int(model.elation_perm[x])))
        points.append(pts)
        spans.append(sp.basis)
    geom.ovoid_orbit = np.array(orbits, dtype=np.int32)
    geom.ovoid_points = np.array(points, dtype=np.int32)
    geom.ovoid_span = np.array(spans, dtype=np.int16)

    mf = member.astype(np.float32)
    inter = (mf @ mf.T).astype(np.int32)
    np.fill_diagonal(inter, 0)
    off = inter[~np.eye(n_ov, dtype=bool)]
    if not np.isin(off, (1, q + 1)).all():
        raise AssertionError("some ovoid pair meets in neither a point nor a conic")
    geom.tangency = pack_rows(inter == 1)

    through = [np.nonzero(member[:, k])[0] for k in range(n_q0)]
    per_point = q * q * (q - 1) // 2
    if any(len(t) != per_point for t in through):
        raise AssertionError("wrong number of ovoids through a section point")
    geom.through = np.array(through, dtype=np.int32)

    loop_build_rosettes(geom)
    loop_incidence(geom)
    return geom


def loop_tangency_point(geom: OvoidGeometry) -> np.ndarray:
    """The former (V, V) int16 table of the common quadric point of every
    tangent pair, -1 elsewhere.  In a position-weighted product over the
    membership matrix the entry of a tangent pair is the dense index of its
    unique common point (exact in float32, values < 2^24)."""
    sect = geom.model.section_points
    mf = geom.member_matrix.astype(np.float32)
    weighted = mf * np.arange(len(sect), dtype=np.float32)
    tp_dense = (mf @ weighted.T).astype(np.int32)
    return np.where(tangency_matrix(geom), sect[np.clip(tp_dense, 0, len(sect) - 1)],
                    -1).astype(np.int16)


def loop_build_rosettes(geom: OvoidGeometry) -> None:
    """Group the ovoids through each point into pencils of pairwise tangent ones.

    With S the tangency matrix of the ovoids through p, diagonal set,
    S.S = q.S holds exactly when tangency at p is an equivalence relation
    with classes of q pairwise tangent ovoids; each pencil is the row of S
    at its smallest member.  Once every point is grouped, the members of
    each pencil must meet pairwise only at its base.  No ovoid through p
    meets p^perp beyond p, so a pencil's members meet p^perp only at p, and
    their union (pairwise meeting only at p) has q^3+1 points.
    """
    model = geom.model
    q = model.ctx.q
    sect = np.array(model.section_points)
    A = tangency_matrix(geom)
    bases: List[int] = []
    members: List[Tuple[int, ...]] = []
    for k, p in enumerate(model.section_points):
        cands = geom.through[k]
        S = A[np.ix_(cands, cands)]
        np.fill_diagonal(S, True)
        Sf = S.astype(np.float32)
        if not np.array_equal(Sf @ Sf, q * Sf):
            raise AssertionError("tangency at a point is not an equivalence "
                                 "with classes of size q")
        for i in np.nonzero(S.argmax(axis=1) == np.arange(len(cands)))[0]:
            bases.append(p)
            members.append(tuple(cands[S[i]].tolist()))
    for p, ms in zip(bases, members):
        shared = geom.member_matrix[list(ms)].sum(axis=0) > 1
        if sect[shared].tolist() != [p]:
            raise AssertionError("ovoids sharing a point are tangent elsewhere")
    gram = alpha_table(model)
    for k, p in enumerate(model.section_points):
        meets = geom.member_matrix[np.ix_(geom.through[k], gram[p, sect] == 0)]
        if (meets.sum(axis=1) != 1).any():
            raise AssertionError("an ovoid through a point meets its perp beyond the point")
    geom.pencil_base = np.array(bases, dtype=np.int32)
    geom.pencil_members = np.array(members, dtype=np.int32)


def loop_incidence(geom: OvoidGeometry) -> None:
    q = geom.model.ctx.q
    incidence: List[List[int]] = [[] for _ in range(geom.n_ovoids)]
    for rid, members in enumerate(geom.pencil_members.tolist()):
        for m in members:
            incidence[m].append(rid)
    if any(len(t) != q * q + 1 for t in incidence):
        raise AssertionError("some ovoid is not on q^2+1 pencils")
    geom.incidence = np.array(incidence, dtype=np.int32)
