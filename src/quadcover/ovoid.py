"""Elliptic ovoids of the hyperplane section, tangency, rosettes.

An ovoid here is the perpendicular section of an affine quadric point; the two
points of an elation orbit give the same ovoid, so ovoids are indexed by
orbits.  Two distinct ovoids meet in a single point (tangent) or in a conic of
q+1 points; the maximal pencils of pairwise tangent ovoids at a point (the
rosettes) are the lines of a semipartial geometry with parameters
(q-1, q^2, 2, 2q(q-1)).

The pairwise intersection sizes are integer matrix products over the
membership matrix, one block of ovoid rows at a time against the columns
from the block on: the upper triangle, each pair once.  Each block's
tangency (size 1) is packed by `quadric.pack_rows` into the one tangency
table; the product is symmetric, so the lower triangle is then filled from
the table's transpose, `quadric.transpose_rows`, in bands of 64 rows.  No
block holds more than PAIR_BLOCK ovoid pairs, so no V x V array and no
second tangency table is held.  Two tangent ovoids meet only at their
tangency point, so the pencils at a point are the tangency classes among
the ovoids through it, and no table of tangency points is needed; they are
found a block of section points at a time (`_build_rosettes`).
The semipartial, maximality and common-tangent laws are checked
exhaustively on one table: for every pencil and ovoid, the number of the
pencil's members tangent to the ovoid, added from the packed rows into bit
planes a block of pencils at a time.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .gf2n import FieldCtx
from .quadric import (QuadricModel, incidence_transpose, lowest_set_bits, pack_rows,
                      row_bits, transpose_rows, unpack_rows)

PAIR_BLOCK = 1 << 19              # ovoid pairs per block of a set-up product or transpose
POINT_BLOCK = 1 << 16             # tangency words per block of rosette points
PENCIL_BLOCK = 1 << 9             # pencils per block of pencil counts


class OvoidGeometry:
    """The ovoids and pencils (rosettes) of one quadric model, as index arrays.

    Attributes
    ----------
    model : the underlying quadric model.
    ovoid_orbit : (V, 2) int32 array, the defining elation orbit of each
        ovoid, ascending.
    ovoid_points : (V, q^2+1) int32 array, the ascending quadric point
        indices of each ovoid, all in the section.
    ovoid_span : (V, 4, 6) int16 array, the reduced row echelon basis of the
        rank-4 subspace of the hyperplane each ovoid spans.
    pencil_base : (R,) int32 array, the quadric point index of each pencil's
        common point.
    pencil_members : (R, q) int32 array, the ascending member ovoids of each
        pencil.  Pencils are sorted by base and then by smallest member, and
        every section point is the base of m = q(q-1)/2 of them, so the
        pencils at dense section index k are rows k*m .. (k+1)*m - 1.
    incidence : (V, q^2+1) int32 array, the ascending pencil ids through
        each ovoid.
    member_matrix : (V, |Q0|) boolean membership matrix.
    tangency : the tangency matrix (meet in one point), rows packed by `pack_rows`.
    through : (|Q0|, q^2(q-1)/2) int32 array, the ascending ovoid ids through
        each point, by dense section index.
    """

    def __init__(self, model: QuadricModel):
        self.model = model
        self.ovoid_orbit: np.ndarray
        self.ovoid_points: np.ndarray
        self.ovoid_span: np.ndarray
        self.pencil_base: np.ndarray
        self.pencil_members: np.ndarray
        self.incidence: np.ndarray
        self.member_matrix: np.ndarray
        self.tangency: np.ndarray
        self.through: np.ndarray

    @property
    def n_ovoids(self) -> int:
        return len(self.ovoid_orbit)


def build_geometry(model: QuadricModel) -> OvoidGeometry:
    """Assemble ovoids, the packed tangency table and rosettes, asserting the structure laws.

    There is one ovoid per elation orbit of the affine points: the section
    points perpendicular to the orbit's smaller point x.  As x6 != 0 at x,
    x^perp meets {x6 = 0} in a solid that holds the ovoid; a plane meets an
    elliptic quadric in at most q+1 points, so q+2 ovoid points of rank 4
    span exactly that solid.  One batched row reduction gives every span.
    """
    q = model.ctx.q
    geom = OvoidGeometry(model)
    aff = model.affine_points
    reps = aff[model.elation_perm[aff] > aff]
    n_ov = len(reps)
    if n_ov != q * q * (q * q - 1) // 2:
        raise AssertionError(f"{n_ov} ovoids, expected {q * q * (q * q - 1) // 2}")
    sect = model.section_points
    n_q0 = len(sect)
    member = model.collinear(reps, sect)
    if (member.sum(axis=1) != q * q + 1).any():
        raise AssertionError("perp section has the wrong size")
    geom.member_matrix = member
    cols = np.nonzero(member)[1].reshape(n_ov, q * q + 1)
    basis, rank = _batched_rref(model.ctx, model.coords[sect[cols[:, :q + 2]]])
    if (rank != 4).any():
        raise AssertionError("ovoid does not span a 3-space")
    geom.ovoid_orbit = np.column_stack([reps, model.elation_perm[reps]])
    geom.ovoid_points = sect[cols]
    geom.ovoid_span = basis[:, :4].astype(np.int16)

    # the upper triangle of the product, packed one block of ovoid rows at
    # a time: each block against the columns from the word holding its
    # first diagonal entry on, so that its packed rows start at a whole
    # word (some pairs near the diagonal are computed twice).  float32
    # products are exact here: every entry is an integer below 2^24.
    mf = member.astype(np.float32)
    T = geom.tangency = np.zeros((n_ov, -(-n_ov // 64)), dtype="<u8")
    step = max(1, PAIR_BLOCK // n_ov)
    for lo in range(0, n_ov, step):
        word = lo // 64
        inter = mf[lo:lo + step] @ mf[64 * word:].T
        # the diagonal is no pair: count it as a conic, lawful and not tangent
        np.fill_diagonal(inter[:, lo % 64:], q + 1)
        if not ((inter == 1) | (inter == q + 1)).all():
            raise AssertionError("some ovoid pair meets in neither a point nor a conic")
        T[lo:lo + step, word:] = pack_rows(inter == 1)
        del inter
    del mf
    # the product is symmetric, so the transpose of the upper triangle
    # fills in the lower one, PAIR_BLOCK pairs or one band of 64 rows a
    # step.  A band transposed after the rows above it were filled in reads
    # their new bits too; they are bits of the product, so nothing changes.
    step = max(1, PAIR_BLOCK // (64 * n_ov))
    for word in range(0, T.shape[1], step):
        band = T[64 * word:64 * (word + step)]
        band |= transpose_rows(T[:, word:word + step], len(band))

    per_point = q * q * (q - 1) // 2
    if (member.sum(axis=0) != per_point).any():
        raise AssertionError("wrong number of ovoids through a section point")
    geom.through = np.nonzero(member.T)[1].astype(np.int32).reshape(n_q0, per_point)

    _build_rosettes(geom)
    if (np.bincount(geom.pencil_members.ravel(), minlength=n_ov) != q * q + 1).any():
        raise AssertionError("some ovoid is not on q^2+1 pencils")
    geom.incidence = incidence_transpose(geom.pencil_members, n_ov).reshape(n_ov, q * q + 1)
    return geom


def _batched_rref(ctx: FieldCtx, mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form over GF(q) of every matrix in a (B, R, C)
    stack, one column at a time for the whole stack: the first rank rows of
    each are the canonical basis `projgeom.rref` gives, the rest are zero.
    Returns the reduced stack and the rank of each matrix."""
    M = ctx.mul_table
    A = mats.astype(np.uint16)
    B, R, C = A.shape
    rank = np.zeros(B, dtype=np.intp)
    for col in range(C):
        cand = (A[:, :, col] != 0) & (np.arange(R) >= rank[:, None])
        has = np.flatnonzero(cand.any(axis=1))
        top, sel = rank[has], cand[has].argmax(axis=1)
        row = A[has, sel]
        A[has, sel] = A[has, top]
        row = M[ctx.inv_table[row[:, col]][:, None], row]
        A[has, top] = row
        factor = A[has, :, col]
        factor[np.arange(len(has)), top] = 0
        A[has] ^= M[factor[:, :, None], row[:, None, :]]
        rank[has] += 1
    return A, rank


def _build_rosettes(geom: OvoidGeometry) -> None:
    """Group the ovoids through each point into pencils of pairwise tangent ones.

    Two tangent ovoids through p meet only at p, so the pencils at p are the
    classes of tangency among T, the ovoids listed through p, ascending.  For
    a in T let R[a] be a's packed tangency row masked to T, with a's own bit
    set (a's row of S, the tangency matrix of T with the diagonal set), and
    least(a) its lowest set bit: the smallest of a's class, if tangency at p
    is an equivalence, as S.argmax(axis=1) reads it.  Tangency at p is
    an equivalence with classes of size q exactly when, with T sorted stably
    by least, the q rows of each consecutive group of q are equal and have q
    bits.  For then each group's shared row X holds all q of the group's
    members, as each row holds its own bit, so X is the group, and S, rows
    and columns in that order, is block diagonal with q x q blocks of ones;
    the converse is plain.  T in that order is the pencils based at p, q at a
    time, sorted by (base, smallest member).

    The members of each pencil meet pairwise only at p, which holds exactly
    when their union has q^3+1 points; the tangency table is checked against
    the ovoids' points this way.  No ovoid through p meets p^perp beyond p, so
    a pencil's members meet p^perp only at p.

    One loop runs over blocks of section points, at most POINT_BLOCK words of
    rows R a block (one point at q = 16, 7.8 MB), and checks all three laws
    on rows packed by `pack_rows`: R, and the membership rows of the ovoids
    through the points.  A grouping failure raises at once; the union and
    perp laws raise after every point is grouped, in that order, so that a
    table whose grouping fails at a later point reports that failure.
    """
    model = geom.model
    q = model.ctx.q
    n_q0, per_point = geom.through.shape
    m = q * (q - 1) // 2
    if per_point != q * m:
        raise AssertionError("some point is not the base of q(q-1)/2 pencils")
    sect = model.section_points
    on_ovoid = pack_rows(geom.member_matrix)
    perp = pack_rows(model.collinear(sect, sect))
    n_words = geom.tangency.shape[1]
    pencils = np.empty_like(geom.through)
    united = clear = True
    step = max(1, POINT_BLOCK // (per_point * n_words))
    for lo in range(0, n_q0, step):
        T = geom.through[lo:lo + step]
        b = len(T)
        # masked by the ovoids listed through the points: the membership
        # matrix is read only by the union and perp laws
        listed = np.zeros((b, geom.n_ovoids), dtype=bool)
        listed[np.arange(b)[:, None], T] = True
        R = geom.tangency.take(T, axis=0)
        R &= pack_rows(listed)[:, None]
        own = T.ravel()
        R.reshape(-1, n_words)[np.arange(len(own)), own >> 6] |= np.left_shift(
            np.uint64(1), (own & 63).astype(np.uint64))
        word = (R != 0).argmax(axis=2)
        low = np.take_along_axis(R, word[..., None], axis=2)[..., 0]
        least = word * 64 + lowest_set_bits(low, 1)[..., 0]
        # one flat take per block: row i of point j is row j * per_point + i
        order = least.argsort(axis=1, kind="stable")
        order += np.arange(0, b * per_point, per_point)[:, None]
        R = R.reshape(-1, n_words).take(order, axis=0).reshape(b, m, q, n_words)
        if ((np.bitwise_count(R[:, :, 0]).sum(axis=2) != q).any()
                or (R != R[:, :, :1]).any()):
            raise AssertionError("tangency at a point is not an equivalence "
                                 "with classes of size q")
        block = T.take(order, out=pencils[lo:lo + step])
        points = on_ovoid.take(block, axis=0)
        union = np.bitwise_or.reduce(points.reshape(b, m, q, -1), axis=2)
        united &= bool((np.bitwise_count(union).sum(axis=2) == q ** 3 + 1).all())
        points &= perp[lo:lo + step, None]
        clear &= bool((np.bitwise_count(points).sum(axis=2) == 1).all())
    if not united:
        raise AssertionError("ovoids sharing a point are tangent elsewhere")
    if not clear:
        raise AssertionError("an ovoid through a point meets its perp beyond the point")
    geom.pencil_base = np.repeat(sect, m)
    geom.pencil_members = pencils.reshape(-1, q)


# -- semipartial geometry and common-tangent laws ------------------------------


def pencil_counts(geom: OvoidGeometry, packed: np.ndarray
                  ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Blocks of PENCIL_BLOCK pencils, in pencil order: the id lo of the
    block's first pencil, the bits ``on`` of each pencil's members, and the
    bit planes of C, where C[j, v] is the number of members of pencil lo + j
    tangent to ovoid v under the tangency matrix whose rows `pack_rows`
    packed into ``packed``.  Plane i holds bit i of every count; ``on`` and
    the planes are bytes of rows in that layout, and the members' packed
    rows are added into the planes by a ripple-carry adder.  A count is at
    most q = 2^n, so there are n + 1 planes, and the top one is set exactly
    where the count is q."""
    q = geom.model.ctx.q
    packed = packed.view(np.uint8)
    for lo in range(0, len(geom.pencil_members), PENCIL_BLOCK):
        members = geom.pencil_members[lo:lo + PENCIL_BLOCK]
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


def verify_semipartial(geom: OvoidGeometry) -> dict:
    """Check the semipartial axioms: line size q, point degree q^2+1, and for
    every non-incident (ovoid, pencil) pair either 0 or exactly 2 members
    tangent to the ovoid.  Each member must be tangent to the other q-1
    members; a member that is not fails with reason "member degree".

    On the bit planes of `pencil_counts`, flipped on the members below the
    top plane (the bits of q - 1), a set bit is a failure, save in plane 1
    off the members, where a count of 2 sets it."""
    q = geom.model.ctx.q
    if geom.pencil_members.shape != (len(geom.pencil_base), q):
        return {"pass": False, "reason": "line size"}
    if geom.incidence.shape != (geom.n_ovoids, q * q + 1):
        return {"pass": False, "reason": "point degree"}
    for lo, on, planes in pencil_counts(geom, geom.tangency):
        planes[:-1] ^= on
        planes[1] &= on
        bad = np.bitwise_or.reduce(planes)
        hit = np.flatnonzero(bad.any(axis=1))
        if len(hit):
            j = int(hit[0])
            v = int(unpack_rows(bad[j]).argmax())
            reason = "member degree" if v in geom.pencil_members[lo + j] else "alpha condition"
            return {"pass": False, "reason": reason, "rosette": lo + j, "ovoid": v}
    return {"pass": True, "pairs_checked": len(geom.pencil_base) * (geom.n_ovoids - q)}


def verify_common_tangent_counts(geom: OvoidGeometry) -> dict:
    """Exhaustive law check over all ordered ovoid pairs (a, b) and points x
    of a: through x there is a unique ovoid tangent to both when a, b are
    tangent and x is not on b, two when they meet in a conic and x is not on
    b, and none when they meet in a conic through x.

    Let a be in the pencil p at x, b not in p, and C[p, b] the number of
    p's members tangent to b (`pencil_counts`).  Where the table has no loop
    and the ovoids through x are grouped into the pencils at x, as
    `_build_rosettes` requires, a's tangents through x are p's other
    members, and N = C[p, b] - A[a, b] of them are tangent to b.  So the law
    reads C[p, b] = 2 where b misses x, for the q members of p at once, and
    the grouping C[p, b] = q - 1 on p and 0 off p through x.  The first
    pencil with a wrong count fails: through x as "pencil grouping", where N
    need not be C - A; else at its smallest member and lowest wrong b, N
    recounted, as the per-point product A[T].T @ A[T] (T the ovoids through
    x) fails first on a symmetric table."""
    q = geom.model.ctx.q
    m = q * (q - 1) // 2
    # bit b of row k: ovoid b misses section point k, its padding clear
    missing = pack_rows(~geom.member_matrix.T).view(np.uint8)
    for lo, on, planes in pencil_counts(geom, geom.tangency):
        off = missing.take(np.arange(lo, lo + len(on)) // m, axis=0)
        planes[:-1] ^= on
        planes[1] ^= off
        bad = np.bitwise_or.reduce(planes)
        hit = np.flatnonzero(bad.any(axis=1))
        if len(hit):
            j = int(hit[0])
            grouping = bad[j] & ~off[j]
            if grouping.any():
                return {"pass": False, "reason": "pencil grouping", "rosette": lo + j,
                        "ovoid": int(unpack_rows(grouping).argmax())}
            a, b = int(geom.pencil_members[lo + j, 0]), int(unpack_rows(bad[j]).argmax())
            both = row_bits(geom.tangency, geom.through[(lo + j) // m], np.array([[a], [b]]))
            return {"pass": False, "pair": [a, b], "point": int(geom.pencil_base[lo + j]),
                    "expected": 2 - bool(row_bits(geom.tangency, a, b)),
                    "got": int(both.all(axis=0).sum())}
    return {"pass": True, "cases_checked": q * len(geom.pencil_base) * (geom.n_ovoids - q)}


def export_incidence_csv(geom: OvoidGeometry, path: str) -> None:
    """Write the rosette/ovoid incidence as CSV rows: rosette id, base point,
    member ovoid ids."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rosette_id", "base_point", "member_ovoids"])
        for rid, (base, members) in enumerate(zip(geom.pencil_base.tolist(),
                                                  geom.pencil_members.tolist())):
            w.writerow([rid, base, " ".join(str(m) for m in members)])
