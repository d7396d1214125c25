"""Reference loops for the structural laws of the ovoid geometry, which
`quadcover.ovoid` and `quadcover.cliquecensus.rosette_maximality` now read
from bit planes of pencil counts, and per-pair queries that no command runs.

Kept only as oracles for the diff tests in `test_ovoid.py` and
`test_cliquecensus.py`: the per-point byte sums of tangency rows that the
bit planes replaced, a Python loop over the pencils for the semipartial
and maximality laws, and a scalar loop over ovoid pairs and points for the
common-tangent law.  They share no code with the bit planes or the
per-point products.  `byte_pencil_counts` is the bit-plane kernel as it
was on bytes, before it came to work on uint64 words; the planes are
diffed against it.  The queries classify the meet of two ovoids, recover a
pencil from one tangent pair by its definition, and intersect the member
spans of a pencil into its tangent plane.  `tangency_points` rebuilds, from
the ovoids' point sets alone, the table of tangency points that the set-up
no longer keeps.
"""

from itertools import zip_longest
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from projgeom_oracle import Subspace, subspace_contains, subspace_intersection, subspace_points
from quadric_oracle import alpha_table
from tangency_oracle import tangency_matrix
from quadcover import ovoid
from quadcover.ovoid import OvoidGeometry


def tangency_points(geom: OvoidGeometry) -> np.ndarray:
    """The (V, V) int16 table of the common quadric point of every pair of
    ovoids that meet in exactly one point, -1 elsewhere (the diagonal
    included).  Read from `ovoid_points` as sets: each point adds itself to
    the intersection of every pair of ovoids through it, so a pair's count is
    the size of its intersection and its last entry the largest common
    point."""
    pts = geom.ovoid_points
    n = len(pts)
    size = np.zeros((n, n), dtype=np.int16)
    last = np.zeros((n, n), dtype=np.int16)
    for x in np.unique(pts):
        on = np.flatnonzero((pts == x).any(axis=1))
        size[np.ix_(on, on)] += 1
        last[np.ix_(on, on)] = x
    return np.where(size == 1, last, -1).astype(np.int16)


def byte_pencil_counts(geom: OvoidGeometry, packed: np.ndarray
                       ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """`quadcover.ovoid.pencil_counts` on bytes, the kernel that its uint64
    words replaced.  Blocks of PENCIL_BLOCK pencils, in pencil order: the id
    lo of the block's first pencil, the bits ``on`` of each pencil's
    members, and the bit planes of C, where C[j, v] is the number of
    members of pencil lo + j tangent to ovoid v under the tangency matrix
    whose rows `pack_rows` packed into ``packed``.  Plane i holds bit i of
    every count; ``on`` and the planes are bytes of rows in that layout,
    and the members' packed rows are added into the planes by a
    ripple-carry adder.  A count is at most q = 2^n, so there are n + 1
    planes, and the top one is set exactly where the count is q."""
    q = geom.model.ctx.q
    packed = packed.view(np.uint8)
    for lo in range(0, len(geom.pencil_members), ovoid.PENCIL_BLOCK):
        members = geom.pencil_members[lo:lo + ovoid.PENCIL_BLOCK]
        on = np.zeros((len(members), packed.shape[1]), dtype=np.uint8)
        np.bitwise_or.at(on, (np.arange(len(members))[:, None], members >> 3),
                         np.left_shift(1, members & 7).astype(np.uint8))
        planes = np.zeros((q.bit_length(),) + on.shape, dtype=np.uint8)
        carry, spill = np.empty_like(planes[0]), np.empty_like(planes[0])
        for k, column in enumerate(members.T, start=1):
            packed.take(column, axis=0, out=carry)
            # k rows in, so a carry reaches no plane beyond bit_length(k)
            for plane in planes[:k.bit_length()]:
                np.bitwise_and(plane, carry, out=spill)
                plane ^= carry
                carry, spill = spill, carry
        yield lo, on, planes


def check_word_planes(geom: OvoidGeometry, packed: np.ndarray) -> int:
    """Assert that `quadcover.ovoid.pencil_counts` yields the blocks of
    `byte_pencil_counts`, its member bits and bit planes read as bytes; the
    number of blocks."""
    blocks = list(zip_longest(ovoid.pencil_counts(geom, packed),
                              byte_pencil_counts(geom, packed)))
    for (lo, on, planes), (want_lo, want_on, want_planes) in blocks:
        assert lo == want_lo
        assert on.dtype == planes.dtype == np.uint64
        np.testing.assert_array_equal(on.view(np.uint8), want_on)
        np.testing.assert_array_equal(planes.view(np.uint8), want_planes)
    return len(blocks)


def point_pencil_counts(geom: OvoidGeometry, A: np.ndarray):
    """Per dense section index: the members of the pencils based there (one
    row of q sorted ovoid ids per pencil, in pencil order), and C, where
    C[j, v] is the number of members of pencil j tangent to ovoid v under
    the tangency matrix A: the sum of the members' rows of A."""
    q = geom.model.ctx.q
    for members in geom.pencil_members.reshape(len(geom.through), -1, q):
        yield members, A[members].sum(axis=1, dtype=np.uint8)


def point_semipartial(geom: OvoidGeometry) -> dict:
    """`quadcover.ovoid.verify_semipartial` on the per-point byte sums: the
    same report, the first failing (pencil, ovoid) pair in pencil order."""
    q = geom.model.ctx.q
    if geom.pencil_members.shape != (len(geom.pencil_base), q):
        return {"pass": False, "reason": "line size"}
    if geom.incidence.shape != (geom.n_ovoids, q * q + 1):
        return {"pass": False, "reason": "point degree"}
    checked = 0
    for k, (members, C) in enumerate(point_pencil_counts(geom, tangency_matrix(geom))):
        rows = np.arange(len(members))[:, None]
        bad = (C != 0) & (C != 2)
        bad[rows, members] = C[rows, members] != q - 1
        if bad.any():
            j, v = (int(i) for i in np.argwhere(bad)[0])
            reason = "member degree" if v in members[j] else "alpha condition"
            return {"pass": False, "reason": reason, "rosette": k * len(members) + j,
                    "ovoid": v}
        checked += C.size - members.size
    return {"pass": True, "pairs_checked": checked}


def loop_semipartial(geom: OvoidGeometry) -> dict:
    """Line size q, point degree q^2+1, and 0 or 2 members of every pencil
    tangent to every ovoid off it, one pencil at a time."""
    q = geom.model.ctx.q
    if any(len(r) != q for r in geom.pencil_members):
        return {"pass": False, "reason": "line size"}
    if any(len(t) != q * q + 1 for t in geom.incidence):
        return {"pass": False, "reason": "point degree"}
    A = tangency_matrix(geom)
    checked = 0
    for rid, members in enumerate(geom.pencil_members):
        counts = A[members].sum(axis=0)
        counts[members] = 0
        if not np.isin(counts[np.setdiff1d(np.arange(geom.n_ovoids), members)], (0, 2)).all():
            return {"pass": False, "reason": "alpha condition", "rosette": rid}
        checked += geom.n_ovoids - q
    return {"pass": True, "pairs_checked": checked}


def loop_rosette_maximality(A: np.ndarray, gx: OvoidGeometry) -> Tuple[int, int]:
    """(number of pencils that are maximal cliques, total pencils)."""
    n_max = 0
    for members in gx.pencil_members:
        common = A[members].all(axis=0)
        common[members] = False
        if not common.any():
            n_max += 1
    return n_max, len(gx.pencil_members)


def common_tangents_through(geom: OvoidGeometry, a: int, b: int, x: int,
                            A: Optional[np.ndarray] = None) -> List[int]:
    """Ovoid ids through section point x tangent to both ovoids a and b,
    read from A, the geometry's tangency matrix when not given."""
    A = tangency_matrix(geom) if A is None else A
    k = geom.model.section_index[x]
    out = []
    for oid in geom.through[k]:
        oid = int(oid)
        if oid in (a, b):
            continue
        if A[oid, a] and A[oid, b]:
            out.append(oid)
    return out


def loop_common_tangent_counts(geom: OvoidGeometry) -> dict:
    """Through a point of exactly one of two tangent ovoids there is a unique
    common tangent ovoid; for a conic pair there are two through an outside
    point and none through a common one.  Checks each unordered pair a < b
    at the points of a only."""
    n = geom.n_ovoids
    A = tangency_matrix(geom)
    checked = 0
    for a in range(n):
        pa = set(geom.ovoid_points[a].tolist())
        for b in range(a + 1, n):
            pb = set(geom.ovoid_points[b].tolist())
            tangent = bool(A[a, b])
            for x in sorted(pa - pb):
                want = 1 if tangent else 2
                got = len(common_tangents_through(geom, a, b, x, A))
                if got != want:
                    return {"pass": False, "pair": (a, b), "point": x,
                            "expected": want, "got": got}
                checked += 1
            if not tangent:
                for x in sorted(pa & pb):
                    got = len(common_tangents_through(geom, a, b, x, A))
                    if got != 0:
                        return {"pass": False, "pair": (a, b), "point": x,
                                "expected": 0, "got": got}
                    checked += 1
    return {"pass": True, "cases_checked": checked}


def _check_rosette_partition(geom: OvoidGeometry, members: Sequence[int], p: int,
                             p_dense: int) -> None:
    model = geom.model
    q = model.ctx.q
    union = np.zeros(len(model.section_points), dtype=bool)
    for m in members:
        union |= geom.member_matrix[m]
    if union.sum() != q**3 + 1:
        raise AssertionError("pencil members overlap outside the base point")
    perp = alpha_table(model)[p, model.section_points] == 0
    bad = union & perp
    if bad.sum() != 1 or not bad[p_dense]:
        raise AssertionError("pencil union meets the perp of its base beyond the base")


def intersection_kind(geom: OvoidGeometry, a: int,
                      b: int) -> Tuple[str, Tuple[int, ...]]:
    """Classify the intersection of two distinct ovoids, given by id: tangent
    point or conic."""
    if a == b:
        raise ValueError("intersection kind is defined for distinct ovoids")
    pa, pb = geom.ovoid_points[a], geom.ovoid_points[b]
    common = tuple(np.intersect1d(pa, pb).tolist())
    if len(common) == 1:
        return "tangent", common
    if (len(common) - 1) ** 2 == len(pa) - 1:
        return "conic", common
    raise AssertionError(f"ovoids meet in {len(common)} points")


def rosette_from_pair(geom: OvoidGeometry, a: int, b: int) -> int:
    """Definition-driven pencil recovery from two ovoids tangent at a point.

    Collects every ovoid through the tangency point whose intersection with
    each input is exactly that point, then checks the partition property.
    Returns the id of the stored pencil with those members, -1 if none.
    """
    kind, common = intersection_kind(geom, a, b)
    if kind != "tangent":
        raise ValueError("pencil recovery requires a tangent pair")
    p = common[0]
    k = int(geom.model.section_index[p])
    A = tangency_matrix(geom)
    members = []
    for oid in geom.through[k].tolist():
        if oid in (a, b):
            members.append(oid)
            continue
        if A[oid, a] and A[oid, b]:
            members.append(oid)
    q = geom.model.ctx.q
    if len(members) != q:
        raise AssertionError("pencil recovery did not find q members")
    _check_rosette_partition(geom, members, p, k)
    m = q * (q - 1) // 2
    hit = np.flatnonzero((geom.pencil_members[k * m:(k + 1) * m] == members).all(axis=1))
    return k * m + int(hit[0]) if len(hit) else -1


def tangent_plane(geom: OvoidGeometry, r: int) -> Subspace:
    """The tangent plane of pencil r: the common intersection of its member
    spans.

    Every member pair is intersected, and all the resulting planes are
    required to coincide; the plane's points are enumerated to confirm that
    it meets the section only at the base.
    """
    model = geom.model
    ms = geom.pencil_members[r].tolist()
    spans = {a: Subspace(tuple(map(tuple, geom.ovoid_span[a].tolist()))) for a in ms}
    planes = []
    base_pt = model.point(int(geom.pencil_base[r]))
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            pl = subspace_intersection(model.ctx, spans[a], spans[b])
            if pl.rank != 3:
                raise AssertionError("member spans do not meet in a plane")
            if not subspace_contains(model.ctx, pl, base_pt):
                raise AssertionError("tangent plane misses the base point")
            hits = [v for v in subspace_points(model.ctx, pl)
                    if model.f_scalar(v) == 0 and v[5] == 0]
            if hits != [base_pt]:
                raise AssertionError("tangent plane meets the section beyond the base point")
            planes.append(pl)
    if any(p.basis != planes[0].basis for p in planes[1:]):
        raise AssertionError("different member pairs give different planes")
    return planes[0]
