"""Reference versions of the covering checks, kept only as oracles for the
diff tests in `test_covering.py`.

`loop_verify_covering` checks the covering laws that
`quadcover.covering.verify_covering` now checks in array passes: one Python
pass per law over the ovoids, the punctured lines, the pencils and the
affine points, with ``frozenset`` keys for the orbit quotient.  It reads the
same `CoveringMap` arrays and reports the same counterexamples.

`product_fiber_distances` is the `fiber_distances` that the packed 2-walk
rows replaced: it takes the fiber and diameter laws from two dense float32
products, A @ A and A @ (A @ A), of the affine collinearity matrix.
`line_row_fiber_distances` is the packed kernel that the near rows and the
pairwise test replaced: the two-step row of every point, built as the OR of
line rows, each the OR of its points' neighbour rows.  Both map a fiber
through the dense affine ids, so that a fiber holding a point off the
affine part fails, as it does in `fiber_distances`.

`lift_path`, `quotient_graph_diameter` and `rook_grid_complement_check` are
covering facts that no command reports: unique path lifting, the diameter of
the tangency graph, and the rook-grid complement at q = 2.
"""

from typing import List, Sequence

import numpy as np

from quadric_oracle import alpha_table
from tangency_oracle import tangency_matrix
from quadcover.covering import CoveringMap
from quadcover.ovoid import OvoidGeometry
from quadcover.quadric import (QuadricModel, incidence_transpose, pack_rows,
                               row_bits, unpack_rows)

_CHUNK = 1 << 16                # uint64 words gathered per line-row kernel step


def loop_verify_covering(cov: CoveringMap) -> dict:
    """`verify_covering`, one law and one object at a time."""
    model = cov.model
    geom = cov.geom
    q = model.ctx.q
    report: dict = {
        "fibers_ok": True, "line_bijections_ok": True,
        "pencil_bijections_ok": True, "quotient_iso_ok": True,
    }
    point_image = cov.point_image.tolist()
    line_image = cov.line_image.tolist()
    lines = cov.lines.tolist()
    infinity = cov.infinity.tolist()

    # point fibers: size 2, elation orbits, consistent with the direction map
    perm = model.elation_perm.tolist()
    for oid, fib in enumerate(cov.point_fiber.tolist()):
        ok = (len(set(fib)) == 2
              and perm[fib[0]] == fib[1] and perm[fib[1]] == fib[0]
              and all(point_image[x] == oid for x in fib))
        if not ok:
            report["fibers_ok"] = False
            report["counterexample"] = {"kind": "point_fiber", "ovoid": oid}
            return report
    affine = model.affine_points.tolist()
    covered = [point_image[x] for x in affine]
    if sorted(set(covered)) != list(range(geom.n_ovoids)):
        report["fibers_ok"] = False
        report["counterexample"] = {"kind": "point_map_not_surjective"}
        return report
    if len(cov.point_fiber) != geom.n_ovoids:
        report["fibers_ok"] = False
        report["counterexample"] = {"kind": "point_fiber_count"}
        return report

    # line restrictions: each punctured line maps bijectively onto its pencil
    bases = geom.pencil_base.tolist()
    pencils = geom.pencil_members.tolist()
    n_pencils = len(pencils)
    for li, (pts, inf) in enumerate(zip(lines, infinity)):
        rid = line_image[li]
        images = sorted(point_image[p] for p in pts)
        if (not 0 <= rid < n_pencils or bases[rid] != inf
                or images != sorted(pencils[rid])
                or len(set(images)) != q):
            report["line_bijections_ok"] = False
            report["counterexample"] = {"kind": "line_restriction", "line": li,
                                        "infinity": inf, "rosette": rid}
            return report
    line_fiber = {rid: [] for rid in range(n_pencils)}
    for li, rid in enumerate(line_image):
        line_fiber[rid].append(li)
    for rid, fib in line_fiber.items():
        if len(fib) != 2:
            report["line_bijections_ok"] = False
            report["counterexample"] = {"kind": "line_fiber", "rosette": rid}
            return report

    # pencil restrictions: lines through x <-> pencils through the image ovoid
    lines_at = {x: [] for x in affine}
    for li, pts in enumerate(lines):
        for p in pts:
            lines_at[p].append(li)
    incidence = geom.incidence.tolist()
    for x in affine:
        rids = sorted(line_image[l] for l in lines_at[x])
        if rids != sorted(incidence[point_image[x]]):
            report["pencil_bijections_ok"] = False
            report["counterexample"] = {"kind": "pencil_restriction", "point": x}
            return report

    # quotient by orbits is the ovoid geometry: the class map [x] -> image
    # ovoid is constant on orbits and carries quotient lines onto pencils
    qlines = {}
    for li, pts in enumerate(lines):
        orbit_class = frozenset(min(p, perm[p]) for p in pts)
        members = frozenset(point_image[p] for p in pts)
        prev = qlines.setdefault(orbit_class, (members, li))
        if prev[0] != members:
            report["quotient_iso_ok"] = False
            report["counterexample"] = {"kind": "quotient_line", "lines": [prev[1], li]}
            return report
    rosette_sets = {frozenset(members) for members in pencils}
    image_sets = [v[0] for v in qlines.values()]
    if (len(qlines) != n_pencils
            or len(set(image_sets)) != len(image_sets)
            or set(image_sets) != rosette_sets):
        report["quotient_iso_ok"] = False
        report["counterexample"] = {"kind": "quotient_line_sets"}
        return report
    return report


def _affine_collinearity(model: QuadricModel) -> np.ndarray:
    """Collinearity matrix of the affine points, over their dense indices
    (positions in ``model.affine_points``)."""
    aff = model.affine_points
    A = model.collinear(aff, aff)
    np.fill_diagonal(A, False)
    return A


def _dense_fibers(cov: CoveringMap) -> tuple:
    """The two dense affine ids of every fiber, and which fibers hold only
    affine points (a point off the affine part has id -1)."""
    aff = cov.model.affine_points
    dense = np.full(cov.model.n_points, -1, dtype=np.intp)
    dense[aff] = np.arange(len(aff))
    x1, x2 = dense[cov.point_fiber].T
    return x1, x2, (x1 >= 0) & (x2 >= 0)


def product_fiber_distances(cov: CoveringMap) -> dict:
    """Distance upstairs between the two points of every fiber, plus diameters.

    Uses boolean/float32 powers of the collinearity matrix; the two fiber
    points must be affine, non-adjacent, share no neighbour, and be joined
    by a 3-step walk, the whole graph must have diameter exactly 3, and the
    pairs more than two steps apart must be exactly the fibers."""
    A = _affine_collinearity(cov.model)
    af = A.astype(np.float32)
    A2 = af @ af
    A3 = af @ A2
    x1, x2, on = _dense_fibers(cov)
    fibers_at_3 = bool(on.all()) and bool(
        (~A[x1, x2]).all() and (A2[x1, x2] == 0).all() and (A3[x1, x2] > 0).all())

    n = len(A)
    reach2 = A | (A2 > 0)
    np.fill_diagonal(reach2, True)
    reach = reach2 | (A3 > 0)
    diam3 = bool(reach.all()) and not bool(reach2.all())   # not already within 2
    # the far pairs, more than two steps apart, are the fibers in both orders
    fibers = np.zeros_like(A)
    fibers[x1[on], x2[on]] = fibers[x2[on], x1[on]] = True
    far_are_fibers = bool(on.all()) and bool(np.array_equal(~reach2, fibers))
    return {"pass": fibers_at_3 and diam3 and far_are_fibers,
            "fibers_at_distance_3": fibers_at_3,
            "diameter_is_3": diam3,
            "far_pairs": int((~reach2).sum()),
            "far_pairs_are_fibers": far_are_fibers,
            "n_points": n}


def _three_walks(P: np.ndarray, B2: np.ndarray, x: np.ndarray, y: np.ndarray) -> bool:
    """Whether some neighbour of x[i] is within two steps of y[i], for every
    i: a 3-walk joining them, when x[i] and y[i] share no neighbour.
    Gathers at most _CHUNK words a step."""
    step = max(1, _CHUNK // P.shape[1])
    return all((P[x[k:k + step]] & B2[y[k:k + step]]).any(axis=1).all()
               for k in range(0, len(x), step))


def _or_rows(rows: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """out[i] = the OR of rows[index[i, j]] over j.  Each step takes at most
    _CHUNK words into out and one preallocated buffer."""
    buf = np.empty((max(1, _CHUNK // rows.shape[1]), rows.shape[1]), dtype=rows.dtype)
    for lo in range(0, len(index), len(buf)):
        hi = min(len(index), lo + len(buf))
        np.take(rows, index[lo:hi, 0], axis=0, out=out[lo:hi])
        for j in range(1, index.shape[1]):
            out[lo:hi] |= np.take(rows, index[lo:hi, j], axis=0, out=buf[:hi - lo])


def line_row_fiber_distances(cov: CoveringMap) -> dict:
    """`fiber_distances` from the two-step row of every point.

    P[x] holds the neighbours of x, read from one collinearity block.
    LN[l], the OR of P over the q points of line l, holds the points within
    one step of l; B2[x], the OR of LN over the lines through x, holds the
    points within two steps of x, when the lines through each point
    partition its neighbours (`fiber_distances` checks that, and this
    kernel assumes it).  The far pairs are the bits clear in B2, off the
    diagonal, and a far pair (x, y) is joined by a 3-walk when P[x] & B2[y]
    is nonzero."""
    model = cov.model
    aff = model.affine_points
    n = len(aff)
    A = _affine_collinearity(model)
    w = -(-n // 64)
    P = pack_rows(A)
    dense = np.full(model.n_points, -1, dtype=np.int32)
    dense[aff] = np.arange(n)
    lines = dense[cov.lines]
    n_lines = len(lines)
    count = np.bincount(lines.ravel(), minlength=n)
    start = np.concatenate(([0], np.cumsum(count)))
    line_of = incidence_transpose(lines, n)
    # the lines through each point as rows, padded with the empty line n_lines
    width = max(1, int(count.max(initial=0)))
    through = np.full((n, width), n_lines, dtype=np.int32)
    through.ravel()[np.arange(len(line_of))
                    + np.repeat(np.arange(n) * width - start[:-1], count)] = line_of
    LN = np.zeros((n_lines + 1, w), dtype=np.uint64)
    _or_rows(P, lines, LN[:-1])
    B2 = np.empty_like(P)
    _or_rows(LN, through, B2)

    x1, x2, on = _dense_fibers(cov)
    fibers_at_3 = bool(on.all()) and (not row_bits(B2, x1, x2).any()
                                      and _three_walks(P, B2, x1, x2))

    # far pairs: the bits clear in B2, over the n real columns and off the
    # diagonal (B2 holds a point itself only when it has a neighbour)
    far = ~B2
    far[:, -1] &= ~np.uint64(0) >> np.uint64(-n % 64)
    pts = np.arange(n)
    far[pts, pts >> 6] &= ~(np.uint64(1) << (pts & 63).astype(np.uint64))
    far_pairs = int(np.bitwise_count(far).sum(dtype=np.intp))
    # the fibers in both orders, as sorted keys x * n + y; a fiber off the
    # affine part is the key -1, which no far pair has
    fibers = np.unique(np.where(on, np.concatenate([[x1 * n + x2], [x2 * n + x1]]), -1))
    rows, cols = np.nonzero(far)                # words holding a far pair
    diam3, far_are_fibers = len(rows) > 0, far_pairs == len(fibers)
    step = max(1, _CHUNK // (64 * w))
    for lo in range(0, len(rows), step):
        if not (diam3 or far_are_fibers):
            break
        r, c = rows[lo:lo + step], cols[lo:lo + step]
        e, b = np.nonzero(unpack_rows(far[r, c][:, None]))
        x, y = r[e], 64 * c[e] + b
        diam3 = diam3 and _three_walks(P, B2, x, y)
        key = x * n + y
        far_are_fibers = far_are_fibers and bool(
            (fibers.take(np.searchsorted(fibers, key), mode="clip") == key).all())
    return {"pass": fibers_at_3 and diam3 and far_are_fibers,
            "fibers_at_distance_3": fibers_at_3,
            "diameter_is_3": diam3,
            "far_pairs": far_pairs,
            "far_pairs_are_fibers": far_are_fibers,
            "n_points": n}


def lift_path(cov: CoveringMap, path: Sequence[int], start: int) -> List[int]:
    """Unique path upstairs over a walk of pairwise-tangent ovoids, from start.

    path is a sequence of ovoid ids with consecutive entries tangent; start is
    an affine point over path[0].  Each step crosses to the unique fiber point
    of the next ovoid collinear with the current point.
    """
    geom, gram = cov.geom, alpha_table(cov.model)
    if int(cov.point_image[start]) != path[0]:
        raise ValueError("start point is not in the fiber of the first vertex")
    A = tangency_matrix(geom)
    out = [start]
    cur = start
    for prev_ov, next_ov in zip(path, path[1:]):
        if not A[prev_ov, next_ov]:
            raise ValueError("consecutive path vertices are not tangent")
        cands = [int(b) for b in cov.point_fiber[next_ov] if gram[cur, b] == 0]
        if len(cands) != 1:
            raise AssertionError("edge does not lift uniquely")
        cur = cands[0]
        out.append(cur)
    return out


def quotient_graph_diameter(geom: OvoidGeometry) -> int:
    """Diameter of the tangency graph on ovoids (complete at q=2, else 2)."""
    reach = tangency_matrix(geom)
    A = reach.astype(np.float32)
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
    model = cov.model
    if model.ctx.q != 2:
        raise ValueError("grid complement structure is specific to q = 2")
    C = ~_affine_collinearity(model)
    np.fill_diagonal(C, False)
    n = len(C)
    aff = model.affine_points
    partner = np.searchsorted(aff, model.elation_perm[aff]).tolist()
    matching = {tuple(sorted((a, b))) for a, b in enumerate(partner)}
    if len(matching) != 6 or not all(C[a, b] for a, b in matching):
        return {"pass": False, "reason": "orbit matching not in complement"}
    v0 = 0
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
