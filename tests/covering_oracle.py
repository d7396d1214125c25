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
"""

import numpy as np

from quadcover.covering import CoveringMap, _affine_collinearity


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


def product_fiber_distances(cov: CoveringMap) -> dict:
    """Distance upstairs between the two points of every fiber, plus diameters.

    Uses boolean/float32 powers of the collinearity matrix; the two fiber
    points must be non-adjacent, share no neighbour, and be joined by a
    3-step walk, and the whole graph must have diameter exactly 3."""
    A = _affine_collinearity(cov.model)
    af = A.astype(np.float32)
    A2 = af @ af
    A3 = af @ A2
    x1, x2 = np.searchsorted(cov.model.affine_points, cov.point_fiber).T
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

