"""Projective subspaces as canonical echelon bases: spans, membership, point
enumeration and intersection.

No command or benchmark path of the package needs them, so they live here,
for the tests and the other oracles: the scalar Zassenhaus line meet of
`figures_oracle`, the per-ovoid spans of `setup_oracle`, the tangent planes
of `ovoid_oracle` and the solid sections of `quadric_oracle`.  They reduce
with the package's own `rref`.
"""

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from quadcover.gf2n import FieldCtx
from quadcover.projgeom import Vec, normalize_tuple, rref


@dataclass(frozen=True)
class Subspace:
    """A projective subspace as the reduced row echelon basis of its row space."""

    basis: Tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def span(ctx: FieldCtx, points: Iterable[Sequence[int]]) -> Subspace:
    """Projective span of the given points as a canonical subspace."""
    rows = [tuple(p) for p in points]
    if not rows:
        raise ValueError("span of an empty point list is undefined")
    return Subspace(rref(ctx, rows))


def subspace_contains(ctx: FieldCtx, sub: Subspace, vec: Sequence[int]) -> bool:
    """Membership test by reducing `vec` against the echelon basis."""
    v = list(vec)
    for row in sub.basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            c = v[lead]
            v = [x ^ ctx.mul(c, y) for x, y in zip(v, row)]
    return not any(v)


def subspace_points(ctx: FieldCtx, sub: Subspace) -> List[Vec]:
    """All normalized points of the subspace (enumerates q^rank combinations)."""
    pts = set()
    combos = [()]  # coefficient tuples built up per basis row
    for _ in sub.basis:
        combos = [c + (t,) for c in combos for t in ctx.elements()]
    for coeffs in combos:
        v = [0] * len(sub.basis[0]) if sub.basis else []
        for c, row in zip(coeffs, sub.basis):
            if c:
                v = [x ^ ctx.mul(c, y) for x, y in zip(v, row)]
        if any(v):
            pts.add(normalize_tuple(ctx, v))
    return sorted(pts)


def subspace_intersection(ctx: FieldCtx, a: Subspace, b: Subspace) -> Subspace:
    """Intersection of row spaces by the doubled-matrix (Zassenhaus) method."""
    ncols = len(a.basis[0])
    rows = [list(r) + list(r) for r in a.basis] + [list(r) + [0] * ncols for r in b.basis]
    reduced = rref(ctx, rows)
    inter = [r[ncols:] for r in reduced if not any(r[:ncols]) and any(r[ncols:])]
    return Subspace(rref(ctx, inter))
