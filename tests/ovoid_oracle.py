"""Reference loops for the structural laws of the ovoid geometry, which
`quadcover.ovoid` and `quadcover.cliquecensus.rosette_maximality` now read
from per-point pencil counts.

Kept only as oracles for the diff tests in `test_ovoid.py` and
`test_cliquecensus.py`: a Python loop over the pencils for the semipartial
and maximality laws, and a scalar loop over ovoid pairs and points for the
common-tangent law.  They share no code with the per-point products.
"""

from typing import List, Tuple

import numpy as np

from quadcover.ovoid import OvoidGeometry


def loop_semipartial(geom: OvoidGeometry) -> dict:
    """Line size q, point degree q^2+1, and 0 or 2 members of every pencil
    tangent to every ovoid off it, one pencil at a time."""
    q = geom.model.ctx.q
    if any(len(r) != q for r in geom.pencil_members):
        return {"pass": False, "reason": "line size"}
    if any(len(t) != q * q + 1 for t in geom.incidence):
        return {"pass": False, "reason": "point degree"}
    checked = 0
    for rid, members in enumerate(geom.pencil_members):
        counts = geom.adjacency[members].sum(axis=0)
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


def loop_common_tangent_counts(geom: OvoidGeometry) -> dict:
    """Through a point of exactly one of two tangent ovoids there is a unique
    common tangent ovoid; for a conic pair there are two through an outside
    point and none through a common one.  Checks each unordered pair a < b
    at the points of a only."""
    n = geom.n_ovoids
    checked = 0
    for a in range(n):
        pa = set(geom.ovoid_points[a].tolist())
        for b in range(a + 1, n):
            pb = set(geom.ovoid_points[b].tolist())
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
