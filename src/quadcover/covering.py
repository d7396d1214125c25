"""The affine quadrangle, its elation-orbit quotient, and the 2-fold covering.

Removing the hyperplane section from the quadric leaves the affine quadrangle:
its points are the affine quadric points, its lines the punctured quadric
lines, each remembering the single section point it lost (the point at
infinity).  Sending an affine point to its perpendicular section and a
punctured line to the pencil based at its infinity point is a 2-to-1 covering
of the ovoid geometry; the fiber over an ovoid is exactly one elation orbit,
and the quotient by orbits reproduces the ovoid geometry on the nose.

Distances upstairs are read off the same lines: the neighbour rows of the
points on a few lines through x lie within two steps of x, so their OR
leaves clear every point far from x, and only those candidates are tested,
each exactly, by one AND of two neighbour rows (see `fiber_distances`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .ovoid import OvoidGeometry
from .quadric import QuadricModel, incidence_transpose, pack_rows, row_bits, unpack_rows

_CHUNK = 1 << 16                # uint64 words a block of fiber_distances and the adjacency oracle
NEAR_LINES = 3                  # lines through a point read into its fiber_distances near row


@dataclass(eq=False)
class CoveringMap:
    """The canonical 2-fold covering onto the ovoid geometry, over index arrays.

    point_image: quadric point index -> ovoid id (-1 off the affine points).
    point_fiber: (ovoids, 2) array, the elation orbit over each ovoid.
    lines: (L, q) array, the affine points of each punctured line, ascending.
    infinity: (L,) array, the section point each punctured line lost.
    line_image: (L,) array, the pencil (rosette) id of each punctured line.
    """

    model: QuadricModel
    geom: OvoidGeometry
    point_image: np.ndarray
    point_fiber: np.ndarray
    lines: np.ndarray
    infinity: np.ndarray
    line_image: np.ndarray


def canonical_covering(model: QuadricModel, gx: OvoidGeometry) -> CoveringMap:
    """Map affine points to their perpendicular-section ovoids and punctured
    lines to the pencils at their infinity points, checking that every line
    maps injectively onto a pencil and every pencil has two lines over it."""
    if gx.model is not model:
        raise ValueError("geometry was built from a different model")
    q = model.ctx.q

    ln = model.lines
    on = model.in_section[ln]
    n_inf = on.sum(axis=1)
    if not np.isin(n_inf, (1, q + 1)).all():
        bad = int(n_inf[~np.isin(n_inf, (1, q + 1))][0])
        raise AssertionError("line meets the hyperplane section in "
                             f"{bad} points, expected 1 or q+1")
    punctured = n_inf == 1
    infinity = ln[punctured][on[punctured]]
    lines = ln[punctured][~on[punctured]].reshape(-1, q)
    per_point = np.bincount(lines.ravel(), minlength=model.n_points)
    if (per_point[model.affine_points] != q * q + 1).any():
        raise AssertionError("some affine point is not on q^2+1 punctured lines")

    orbits = gx.ovoid_orbit
    # both orbit points must have the same perpendicular section: rows 2i
    # and 2i + 1 of one read hold orbit i's two points
    sect = model.section_points
    perp = next(model.perp_blocks(orbits.ravel(), sect, orbits.size))
    if not np.array_equal(perp[0::2], perp[1::2]):
        raise AssertionError("elation orbit points have different perp sections")
    point_image = np.full(model.n_points, -1, dtype=np.int32)
    point_image[orbits] = np.arange(len(orbits), dtype=np.int32)[:, None]

    images = np.sort(point_image[lines], axis=1)
    if (images[:, 1:] == images[:, :-1]).any():
        raise AssertionError("punctured line does not map injectively")
    # the pencil based at a section point that holds a given ovoid through it
    members = gx.pencil_members
    dense = model.section_index
    pencil_of = np.full((gx.n_ovoids, len(sect)), -1, dtype=np.int32)
    pencil_of[members, dense[gx.pencil_base][:, None]] = np.arange(len(members))[:, None]
    line_image = pencil_of[images[:, 0], dense[infinity]]
    if ((line_image < 0) | (members[line_image] != images).any(axis=1)).any():
        raise AssertionError("image of a punctured line is not a pencil "
                             "based at its infinity point")
    fiber_size = np.bincount(line_image, minlength=len(members))
    if (fiber_size == 0).any():
        raise AssertionError("line map is not surjective onto the pencils")
    if (fiber_size != 2).any():
        raise AssertionError("some pencil has a line fiber of size != 2")
    return CoveringMap(model=model, geom=gx, point_image=point_image,
                       point_fiber=orbits, lines=lines, infinity=infinity,
                       line_image=line_image)


def _as_sets(rows: np.ndarray) -> np.ndarray:
    """Each row of non-negative entries as a set: sorted, with repeats
    replaced by -1 and moved first, so that two rows are equal exactly when
    their sets are."""
    s = np.sort(rows, axis=1)
    s[:, 1:][s[:, 1:] == s[:, :-1]] = -1
    return np.sort(s, axis=1)


def verify_covering(cov: CoveringMap) -> dict:
    """Re-check the covering laws from the stored maps: fiber sizes and orbit
    structure, per-line and per-pencil bijectivity, and the isomorphism of the
    orbit quotient with the ovoid geometry.  Failures carry coordinates; the
    one reported is the first in point, ovoid, line or pencil order."""
    model = cov.model
    geom = cov.geom
    q = model.ctx.q
    report: dict = {
        "fibers_ok": True, "line_bijections_ok": True,
        "pencil_bijections_ok": True, "quotient_iso_ok": True,
    }

    def fail(law, **counterexample):
        report[law] = False
        report["counterexample"] = counterexample
        return report

    # point fibers: size 2, elation orbits, consistent with the direction map
    perm = model.elation_perm
    fib = cov.point_fiber
    bad = ((fib[:, 0] == fib[:, 1]) | (perm[fib] != fib[:, ::-1]).any(axis=1)
           | (cov.point_image[fib] != np.arange(len(fib))[:, None]).any(axis=1))
    if bad.any():
        return fail("fibers_ok", kind="point_fiber", ovoid=int(np.argmax(bad)))
    aff = model.affine_points
    if not np.array_equal(np.unique(cov.point_image[aff]), np.arange(geom.n_ovoids)):
        return fail("fibers_ok", kind="point_map_not_surjective")
    if len(fib) != geom.n_ovoids:
        return fail("fibers_ok", kind="point_fiber_count")

    # line restrictions: each punctured line maps bijectively onto its pencil
    members = geom.pencil_members
    n_pencils = len(members)
    rid = cov.line_image
    in_range = (rid >= 0) & (rid < n_pencils)
    r = np.where(in_range, rid, 0)
    bases = geom.pencil_base
    images = np.sort(cov.point_image[cov.lines], axis=1)
    bad = (~in_range | (bases[r] != cov.infinity)
           | (images != members[r]).any(axis=1))
    if bad.any():
        li = int(np.argmax(bad))
        return fail("line_bijections_ok", kind="line_restriction", line=li,
                    infinity=int(cov.infinity[li]), rosette=int(rid[li]))
    bad = np.bincount(rid, minlength=n_pencils) != 2
    if bad.any():
        return fail("line_bijections_ok", kind="line_fiber", rosette=int(np.argmax(bad)))

    # pencil restrictions: lines through x <-> pencils through the image ovoid.
    # Both sides are sorted (point, pencil) keys; the first point whose keys
    # differ sits at the first position where the two key lists differ.
    have = np.sort(cov.lines.ravel().astype(np.int64) * n_pencils
                   + np.repeat(rid, q))
    want = np.sort((aff[:, None].astype(np.int64) * n_pencils
                    + geom.incidence[cov.point_image[aff]]).ravel())
    if not np.array_equal(have, want):
        n = min(len(have), len(want))
        diff = np.flatnonzero(have[:n] != want[:n])
        i = int(diff[0]) if len(diff) else n
        point = min(int(k[i]) // n_pencils for k in (have, want) if i < len(k))
        return fail("pencil_bijections_ok", kind="pencil_restriction", point=point)

    # quotient by orbits is the ovoid geometry: the class map [x] -> image
    # ovoid is constant on orbits and carries quotient lines onto pencils.
    # Each row of images is now its pencil's row of members, a sorted set,
    # and every pencil is the image of a line, so the quotient lines map
    # onto the pencils, one to one exactly when there are as many of them.
    first, n_classes = _first_of_class(_as_sets(np.minimum(cov.lines, perm[cov.lines])))
    bad = (images != images[first]).any(axis=1)
    if bad.any():
        li = int(np.argmax(bad))
        return fail("quotient_iso_ok", kind="quotient_line",
                    lines=[int(first[li]), li])
    if n_classes != n_pencils:
        return fail("quotient_iso_ok", kind="quotient_line_sets")
    return report


def _first_of_class(rows: np.ndarray) -> Tuple[np.ndarray, int]:
    """For each row, the smallest index of a row equal to it; and the number
    of distinct rows.  Each row is one key, its bytes as a void scalar, and
    the keys are sorted stably: equal rows have equal bytes, so they come
    together, each run of them starting at its smallest index."""
    key = np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    keys = np.ascontiguousarray(rows).view(key).ravel()
    order = np.argsort(keys, kind="stable")
    s = keys[order]
    starts = np.ones(len(s), dtype=bool)
    starts[1:] = s[1:] != s[:-1]
    first = np.empty_like(order)
    first[order] = order[np.maximum.accumulate(np.where(starts, np.arange(len(s)), 0))]
    return first, int(starts.sum())


def verify_adjacency_oracle(cov: CoveringMap) -> dict:
    """Tangency downstairs equals cross-fiber collinearity upstairs.

    Checks, for every ovoid pair, that |A∩B| = 1 exactly when some point of
    A's fiber is collinear with some point of B's fiber.  It is read as
    packed rows, in blocks of at most _CHUNK words (or one ovoid), from two
    `perp_blocks` calls: a block's rows are its ovoids' first points, then
    their second points, and the columns every ovoid's first point in one
    call, every second point in the other.  The OR of the two blocks and of
    their row halves is the cross-fibre collinearity, compared word for
    word with the same rows of `geom.tangency`, the diagonal aside.

    A failing report names the first disagreeing pair in row order, a < b
    when both matrices are symmetric, and whether it is tangent and its
    fibres cross-collinear; it gives no pair count, as the scan stops
    there."""
    geom = cov.geom
    n = geom.n_ovoids
    fib = cov.point_fiber
    step = max(1, _CHUNK // (2 * geom.tangency.shape[1]))
    rows = np.concatenate([fib[lo:lo + step].T.ravel() for lo in range(0, n, step)])
    firsts, seconds = (cov.model.perp_blocks(rows, fib[:, j], 2 * step) for j in (0, 1))
    for lo in range(0, n, step):
        Z = next(firsts) | next(seconds)
        cross = Z[:len(Z) // 2] | Z[len(Z) // 2:]
        diff = cross ^ geom.tangency[lo:lo + step]
        _clear_diagonal(diff, lo)
        diff[:, -1:] &= ~np.uint64(0) >> np.uint64(-n % 64)      # not the padding
        if diff.any():
            i, b = (int(t) for t in np.argwhere(unpack_rows(diff))[0])
            return {"pass": False, "pair": [lo + i, b],
                    "tangent": bool(row_bits(geom.tangency, lo + i, b)),
                    "cross_collinear": bool(row_bits(cross, i, b))}
    return {"pass": True, "pairs_checked": n * (n - 1) // 2}


def _clear_diagonal(rows: np.ndarray, lo: int) -> None:
    """Clear bit lo + i of packed row i, in every row i."""
    pts = np.arange(lo, lo + len(rows))
    rows[pts - lo, pts >> 6] &= ~(np.uint64(1) << (pts & 63).astype(np.uint64))


def _line_rows(P: np.ndarray, lines: np.ndarray, through: np.ndarray,
               out: np.ndarray) -> None:
    """out[i] |= the OR of P over the points of the lines through[i].  The
    last line of `lines` is the empty line, whose points are all the last
    row of P, which is zero.  Each step gathers at most _CHUNK words, or
    one row's points."""
    per_row = through.shape[1] * lines.shape[1]
    step = max(1, _CHUNK // max(1, per_row * P.shape[1]))
    for lo in range(0, len(through), step):
        rows = through[lo:lo + step]
        pts = lines.take(rows, axis=0).reshape(len(rows), per_row)
        out[lo:lo + step] |= np.bitwise_or.reduce(P.take(pts, axis=0), axis=1)


def _candidates(P: np.ndarray, lines: np.ndarray, through: np.ndarray, step: int):
    """The pairs (x, y), x != y, whose bit y of near[x] is clear, with
    near[x], in batches of at most `step` pairs, or of one word's bits when
    a word holds more.  near is built `step` rows at a time, and the words
    of a block that hold a candidate are cut into runs: a run is the words
    whose last candidate falls in one window of step - 63 candidates, so it
    holds at most 63 more, from its first word."""
    n = len(P) - 1
    pad = ~np.uint64(0) >> np.uint64(-n % 64)
    window = max(1, step - 63)
    for lo in range(0, n, step):
        near = P[lo:min(n, lo + step)].copy()
        _line_rows(P, lines, through[lo:lo + step, :NEAR_LINES], near)
        free = ~near
        free[:, -1] &= pad
        _clear_diagonal(free, lo)
        r, c = np.nonzero(free)
        ends = np.cumsum(np.bitwise_count(free[r, c]), dtype=np.intp) - 1
        cuts = np.flatnonzero(np.diff(ends // window)) + 1
        for rr, cc in zip(np.split(r, cuts), np.split(c, cuts)):
            e, b = np.nonzero(unpack_rows(free[rr, cc][:, None]))
            yield lo + rr[e], 64 * cc[e] + b, near[rr[e]]


def fiber_distances(cov: CoveringMap) -> dict:
    """Distance upstairs between the two points of every fiber, plus diameters.

    Works on bit-packed rows of the affine collinearity graph: P[x] holds
    the neighbours of x.  P is built one block of rows at a time, and each
    block is checked against the punctured lines before any row is used:
    every line is a clique, every collinear pair is on a line, and the
    lines through a point meet only there, so they partition its
    neighbours.  A violation raises AssertionError.

    Two points are far when they are more than two steps apart.  Each pair
    is tested exactly, by its own rows: x != y are far when bit y of P[x] is
    clear and P[x] & P[y] is zero.  A far pair is joined by a 3-step walk
    when the two-step row of x meets P[y]: the two-step row is the OR of P
    over every point of every line through x, and the lines partition x's
    neighbours, so that is exactly the points within two steps of x (x
    itself when it has a neighbour).  Only a few pairs need either row:

    - near[x] is P[x] ORed with the P rows of the points on the first
      NEAR_LINES lines through x.  Each such point is x or a neighbour of x,
      since lines are cliques, so near[x] lies inside the two-step row of
      x, and every far pair (x, y) is a bit y left clear in near[x]: the
      candidates, tested one pair at a time.  Bit y of P[x] is clear for
      each, as near[x] holds P[x], so only P[x] & P[y] is read.  Results
      do not depend on NEAR_LINES; at 3 there are 7 candidates a point at
      q = 8.  Only one block of near rows is held at a time.
    - For a far pair, near[x] & P[y] nonzero certifies a 3-walk: such a
      bit z is within two steps of x and a neighbour of y, and neither x
      nor a neighbour of x, as y is far from x.  Only the far pairs it
      does not certify have x's full two-step row built.

    The two fiber points must be far and joined by a 3-step walk: every
    fiber, in both orders, is one of the far pairs walked, and a fiber
    holding a point off the affine part is none.  The whole graph must
    have diameter exactly 3: some pair is far, and every far pair is joined
    by a 3-step walk.  And the far pairs must be exactly the fibers, in
    both orders: two non-collinear points x, y of Q have q^2 + 1 common
    neighbours, and they all lie at infinity exactly when x^perp and y^perp
    cut the same ovoid from {x6 = 0}, that is, when x and y form one elation
    orbit.  ``far_pairs`` counts the ordered far pairs: two a fiber,
    q^4 - q^2 in all, when the law holds.  Every step gathers at most
    _CHUNK words (one row, or one word's candidates, at the least), whatever
    the number of candidates."""
    model = cov.model
    aff = model.affine_points
    n = len(aff)
    dense = np.full(model.n_points, -1, dtype=np.int32)
    dense[aff] = np.arange(n)
    lines = dense[cov.lines]
    if (lines < 0).any():
        raise AssertionError("a punctured line holds a point off the affine part")
    n_lines, k = lines.shape
    # the lines through each point, point after point
    count = np.bincount(lines.ravel(), minlength=n)
    start = np.concatenate(([0], np.cumsum(count)))
    line_of = incidence_transpose(lines, n)

    # P, one block of rows at a time, each checked against the packed
    # line-mates of its points: every line is a clique, every collinear pair
    # is on a line, and the lines through a point meet only there.  Row n
    # stays zero: it is the row of the empty line's points.
    w = -(-n // 64)
    P = np.zeros((n + 1, w), dtype=np.uint64)
    step = max(1, 8 * _CHUNK // n)
    mates = np.empty((step, n), dtype=bool)
    blocks = model.perp_blocks(aff, aff, step)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        P[lo:hi] = next(blocks)
        _clear_diagonal(P[lo:hi], lo)
        # the flat positions of each point's line-mates in its row
        at = lines.take(line_of[start[lo]:start[hi]], axis=0)
        at += np.repeat(np.arange(0, (hi - lo) * n, n, dtype=np.int32),
                        count[lo:hi])[:, None]
        mates[:] = False
        mates.ravel()[at] = True
        mates.ravel()[np.arange(hi - lo) * (n + 1) + lo] = False
        if not np.array_equal(P[lo:hi], pack_rows(mates[:hi - lo])):
            raise AssertionError("the punctured lines do not cover the "
                                 "affine collinearity exactly")
    del blocks, mates, at               # with the column planes the kernel holds
    if (np.bitwise_count(P[:n]).sum(axis=1, dtype=np.intp) != count * (k - 1)).any():
        raise AssertionError("two lines through a point meet again")

    # the lines through each point as rows, padded with the empty line
    # n_lines, whose points are all the zero row n of P
    width = max(1, int(count.max(initial=0)))
    through = np.full((n, width), n_lines, dtype=np.int32)
    through[np.arange(width) < count[:, None]] = line_of     # row-major, as line_of
    del line_of
    lines = np.vstack([lines, np.full((1, k), n, dtype=lines.dtype)])

    # the fibers in both orders, as sorted keys x * n + y; a fiber off the
    # affine part is the key -1, which no far pair has
    x1, x2 = dense[cov.point_fiber].astype(np.intp).T
    fibers = np.unique(np.where((x1 >= 0) & (x2 >= 0),
                                np.concatenate([[x1 * n + x2], [x2 * n + x1]]), -1))
    far_pairs, fibers_walked, diam3, far_are_fibers = 0, 0, True, True
    for x, y, near in _candidates(P, lines, through, max(1, _CHUNK // w)):
        Py = P[y]
        far = ~(P[x] & Py).any(axis=1)
        x, y, near, Py = x[far], y[far], near[far], Py[far]
        walked = (near & Py).any(axis=1)
        rest = np.flatnonzero(~walked)
        if len(rest):
            # the full two-step rows of the far pairs near does not certify
            xs, at = np.unique(x[rest], return_inverse=True)
            two = np.zeros((len(xs), w), dtype=P.dtype)
            _line_rows(P, lines, through[xs], two)
            walked[rest] = (two[at] & Py[rest]).any(axis=1)
        key = x * n + y
        fiber = fibers.take(np.searchsorted(fibers, key), mode="clip") == key
        far_pairs += len(key)
        fibers_walked += int(np.count_nonzero(fiber & walked))
        diam3 = diam3 and bool(walked.all())
        far_are_fibers = far_are_fibers and bool(fiber.all())
    # every fiber, in both orders, is a far pair joined by a 3-walk
    fibers_at_3 = fibers_walked == len(fibers)
    diam3 = diam3 and far_pairs > 0
    far_are_fibers = far_are_fibers and far_pairs == len(fibers)
    return {"pass": fibers_at_3 and diam3 and far_are_fibers,
            "fibers_at_distance_3": fibers_at_3,
            "diameter_is_3": diam3,
            "far_pairs": far_pairs,
            "far_pairs_are_fibers": far_are_fibers,
            "n_points": n}
