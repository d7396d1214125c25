"""Elliptic ovoids of the hyperplane section, tangency, rosettes, tangent planes.

An ovoid here is the perpendicular section of an affine quadric point; the two
points of an elation orbit give the same ovoid, so ovoids are indexed by
orbits.  Two distinct ovoids meet in a single point (tangent) or in a conic of
q+1 points; the maximal pencils of pairwise tangent ovoids at a point (the
rosettes) are the lines of a semipartial geometry with parameters
(q-1, q^2, 2, 2q(q-1)).

All pairwise intersection sizes are computed with one integer matrix product
over the membership matrix, and the common point of each tangent pair drops
out of a second, position-weighted product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .projgeom import (
    Subspace,
    span,
    subspace_contains,
    subspace_intersection,
    subspace_points,
)
from .quadric import QuadricModel


@dataclass(eq=False)
class Ovoid:
    """One elliptic ovoid: q^2+1 pairwise non-perpendicular section points."""

    id: int
    orbit: Tuple[int, int]          # the defining elation orbit, ascending
    points: Tuple[int, ...]         # sorted quadric point indices, all in the section
    span: Subspace                  # rank-4 subspace of the hyperplane

    def __len__(self) -> int:
        return len(self.points)


@dataclass(eq=False)
class Rosette:
    """Maximal pencil of q ovoids pairwise tangent at the base point."""

    id: int
    base: int                       # quadric point index of the common point
    members: Tuple[int, ...]        # sorted ovoid ids

    def __len__(self) -> int:
        return len(self.members)


class OvoidGeometry:
    """The ovoids and rosettes of one quadric model, with tangency tables.

    Attributes
    ----------
    model : the underlying quadric model.
    ovoids, rosettes : the point and line lists of the geometry.
    incidence : per-ovoid sorted list of rosette ids.
    member_matrix : (n_ovoids, |Q0|) boolean membership matrix.
    inter_count : (n_ovoids, n_ovoids) uint8 pairwise intersection sizes.
    adjacency : boolean tangency matrix (intersection size 1, off-diagonal).
    tangency_point : int16 matrix of the common quadric point index of each
        tangent pair, -1 elsewhere.
    through : per dense section index, array of ovoid ids containing it.
    rosettes_at : per dense section index, list of rosette ids based there.
    """

    def __init__(self, model: QuadricModel):
        self.model = model
        self.ovoids: List[Ovoid] = []
        self.rosettes: List[Rosette] = []
        self.incidence: List[List[int]] = []
        self.member_matrix: np.ndarray
        self.inter_count: np.ndarray
        self.adjacency: np.ndarray
        self.tangency_point: np.ndarray
        self.through: List[np.ndarray] = []
        self.rosettes_at: List[List[int]] = []

    @property
    def n_ovoids(self) -> int:
        return len(self.ovoids)


def build_geometry(model: QuadricModel) -> OvoidGeometry:
    """Assemble ovoids, tangency tables and rosettes, asserting the structure laws.

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
    member = model.gram[np.ix_(reps, model.section_points)] == 0
    if (member.sum(axis=1) != q * q + 1).any():
        raise AssertionError("perp section has the wrong size")
    geom.member_matrix = member
    for i, x in enumerate(reps):
        pts = tuple(sect[member[i]].tolist())
        sp = span(model.ctx, [model.point(p) for p in pts[:q + 2]])
        if sp.rank != 4:
            raise AssertionError("ovoid does not span a 3-space")
        geom.ovoids.append(Ovoid(id=i, orbit=(x, int(model.elation_perm[x])),
                                 points=pts, span=sp))

    mf = member.astype(np.float32)
    inter = (mf @ mf.T).astype(np.int32)
    np.fill_diagonal(inter, 0)
    off = inter[~np.eye(n_ov, dtype=bool)]
    if not np.isin(off, (1, q + 1)).all():
        raise AssertionError("some ovoid pair meets in neither a point nor a conic")
    geom.inter_count = inter.astype(np.uint8)
    geom.adjacency = inter == 1

    # position-weighted product: for tangent pairs the entry is the dense
    # index of the unique common point (exact in float32, values < 2^24)
    weighted = mf * np.arange(n_q0, dtype=np.float32)
    tp_dense = (mf @ weighted.T).astype(np.int32)
    tp = np.where(geom.adjacency, sect[np.clip(tp_dense, 0, n_q0 - 1)], -1).astype(np.int16)
    geom.tangency_point = tp

    geom.through = [np.nonzero(member[:, k])[0] for k in range(n_q0)]
    per_point = q * q * (q - 1) // 2
    if any(len(t) != per_point for t in geom.through):
        raise AssertionError("wrong number of ovoids through a section point")

    _build_rosettes(geom)
    _verify_incidence(geom)
    return geom


def _build_rosettes(geom: OvoidGeometry) -> None:
    """Group the ovoids through each point into pencils of pairwise tangent ones.

    With S the tangency matrix of the ovoids through p, diagonal set,
    S.S = q.S holds exactly when tangency at p is an equivalence relation
    with classes of q pairwise tangent ovoids; each pencil is the row of S
    at its smallest member.  No ovoid through p meets p^perp beyond p, so a
    pencil's members meet p^perp only at p, and their union (pairwise
    meeting only at p) has q^3+1 points.
    """
    model = geom.model
    q = model.ctx.q
    sect = np.array(model.section_points)
    rosettes: List[Rosette] = []
    rosettes_at: List[List[int]] = []
    for k, p in enumerate(model.section_points):
        cands = geom.through[k]
        S = geom.adjacency[np.ix_(cands, cands)]
        if not (geom.tangency_point[np.ix_(cands, cands)][S] == p).all():
            raise AssertionError("ovoids sharing a point are tangent elsewhere")
        np.fill_diagonal(S, True)
        Sf = S.astype(np.float32)
        if not np.array_equal(Sf @ Sf, q * Sf):
            raise AssertionError("tangency at a point is not an equivalence "
                                 "with classes of size q")
        meets = geom.member_matrix[np.ix_(cands, model.gram[p, sect] == 0)]
        if (meets.sum(axis=1) != 1).any():
            raise AssertionError("an ovoid through a point meets its perp beyond the point")
        ids_here = []
        for i in np.nonzero(S.argmax(axis=1) == np.arange(len(cands)))[0]:
            ids_here.append(len(rosettes))
            rosettes.append(Rosette(id=len(rosettes), base=p,
                                    members=tuple(cands[S[i]].tolist())))
        rosettes_at.append(ids_here)
    geom.rosettes = rosettes
    geom.rosettes_at = rosettes_at


def _check_rosette_partition(geom: OvoidGeometry, members: Sequence[int], p: int,
                             p_dense: int) -> None:
    model = geom.model
    q = model.ctx.q
    union = np.zeros(len(model.section_points), dtype=bool)
    for m in members:
        union |= geom.member_matrix[m]
    if union.sum() != q**3 + 1:
        raise AssertionError("pencil members overlap outside the base point")
    sect = np.array(model.section_points)
    perp = model.gram[p, sect] == 0
    bad = union & perp
    if bad.sum() != 1 or not bad[p_dense]:
        raise AssertionError("pencil union meets the perp of its base beyond the base")


def _verify_incidence(geom: OvoidGeometry) -> None:
    q = geom.model.ctx.q
    incidence: List[List[int]] = [[] for _ in range(geom.n_ovoids)]
    for r in geom.rosettes:
        for m in r.members:
            incidence[m].append(r.id)
    if any(len(t) != q * q + 1 for t in incidence):
        raise AssertionError("some ovoid is not on q^2+1 pencils")
    geom.incidence = incidence


# -- intersection queries ------------------------------------------------------


def intersection_kind(a: Ovoid, b: Ovoid) -> Tuple[str, Tuple[int, ...]]:
    """Classify the intersection of two distinct ovoids: tangent point or conic."""
    if a.id == b.id or a.points == b.points:
        raise ValueError("intersection kind is defined for distinct ovoids")
    common = sorted(set(a.points) & set(b.points))
    q2 = len(a.points) - 1
    if len(common) == 1:
        return "tangent", tuple(common)
    if (len(common) - 1) ** 2 == q2:
        return "conic", tuple(common)
    raise AssertionError(f"ovoids meet in {len(common)} points")


def rosette_from_pair(geom: OvoidGeometry, a: Ovoid, b: Ovoid) -> Rosette:
    """Definition-driven pencil recovery from two ovoids tangent at a point.

    Collects every ovoid through the tangency point whose intersection with
    each input is exactly that point, then checks the partition property.
    """
    kind, common = intersection_kind(a, b)
    if kind != "tangent":
        raise ValueError("pencil recovery requires a tangent pair")
    p = common[0]
    k = geom.model.section_index[p]
    members = []
    for oid in geom.through[k]:
        oid = int(oid)
        if oid in (a.id, b.id):
            members.append(oid)
            continue
        if geom.inter_count[oid, a.id] == 1 and geom.inter_count[oid, b.id] == 1:
            members.append(oid)
    q = geom.model.ctx.q
    if len(members) != q:
        raise AssertionError("pencil recovery did not find q members")
    members = tuple(sorted(members))
    _check_rosette_partition(geom, members, p, k)
    existing = [r for r in geom.rosettes_at[k] if geom.rosettes[r].members == members]
    rid = existing[0] if existing else -1
    return Rosette(id=rid, base=p, members=members)


def tangent_plane(geom: OvoidGeometry, r: Rosette) -> Subspace:
    """The pencil's tangent plane: the common intersection of its member spans.

    Every member pair is intersected, and all the resulting planes are
    required to coincide; the plane's points are enumerated to confirm that
    it meets the section only at the base.
    """
    model = geom.model
    ms = r.members
    planes = []
    base_pt = model.point(r.base)
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            pl = subspace_intersection(model.ctx, geom.ovoids[a].span, geom.ovoids[b].span)
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


# -- semipartial geometry and common-tangent laws ------------------------------


def verify_semipartial(geom: OvoidGeometry, sample: Optional[int] = None,
                       seed: int = 0) -> dict:
    """Check the semipartial axioms: line size q, point degree q^2+1, and for
    every non-incident (ovoid, pencil) pair either 0 or exactly 2 members
    tangent to the ovoid.  Exhaustive by default; sampled over pairs if asked."""
    q = geom.model.ctx.q
    if any(len(r) != q for r in geom.rosettes):
        return {"pass": False, "reason": "line size"}
    if any(len(t) != q * q + 1 for t in geom.incidence):
        return {"pass": False, "reason": "point degree"}
    rng = np.random.default_rng(seed)
    n_r = len(geom.rosettes)
    if sample is None:
        rosette_ids = range(n_r)
    else:
        rosette_ids = [int(i) for i in rng.integers(0, n_r, size=max(1, sample // geom.n_ovoids))]
    checked = 0
    for rid in rosette_ids:
        r = geom.rosettes[rid]
        members = np.array(r.members)
        counts = geom.adjacency[members].sum(axis=0)
        counts[members] = 0
        if not np.isin(counts[np.setdiff1d(np.arange(geom.n_ovoids), members)], (0, 2)).all():
            return {"pass": False, "reason": "alpha condition", "rosette": rid}
        checked += geom.n_ovoids - q
    return {"pass": True, "pairs_checked": checked,
            "mode": "full" if sample is None else "sampled"}


def common_tangents_through(geom: OvoidGeometry, a: int, b: int, x: int) -> List[int]:
    """Ovoid ids through section point x tangent to both ovoids a and b."""
    k = geom.model.section_index[x]
    out = []
    for oid in geom.through[k]:
        oid = int(oid)
        if oid in (a, b):
            continue
        if geom.adjacency[oid, a] and geom.adjacency[oid, b]:
            out.append(oid)
    return out


def verify_common_tangent_counts(geom: OvoidGeometry) -> dict:
    """Exhaustive law check over all ovoid pairs: through a point of exactly one
    of two tangent ovoids there is a unique common tangent ovoid; for a conic
    pair there are two through an outside point and none through a common one."""
    n = geom.n_ovoids
    checked = 0
    for a in range(n):
        pa = set(geom.ovoids[a].points)
        for b in range(a + 1, n):
            pb = set(geom.ovoids[b].points)
            tangent = bool(geom.adjacency[a, b])
            for x in sorted(pa - pb):
                want = 1 if tangent else 2
                got = len(common_tangents_through(geom, a, b, x))
                if got != want:
                    return {"pass": False, "pair": (a, b), "point": x,
                            "expected": want, "got": got}
                checked += 1
            if not tangent:
                for x in sorted(pa & pb):
                    got = len(common_tangents_through(geom, a, b, x))
                    if got != 0:
                        return {"pass": False, "pair": (a, b), "point": x,
                                "expected": 0, "got": got}
                    checked += 1
    return {"pass": True, "cases_checked": checked}


def export_incidence_csv(geom: OvoidGeometry, path: str) -> None:
    """Write the rosette/ovoid incidence as CSV rows: rosette id, base point,
    member ovoid ids."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rosette_id", "base_point", "member_ovoids"])
        for r in geom.rosettes:
            w.writerow([r.id, r.base, " ".join(str(m) for m in r.members)])
