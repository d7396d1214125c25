"""Paper claims about the quadric model that no command reports: the census
of the solids of the section hyperplane, the generalized-quadrangle axioms
on every (point, line) pair, and the nucleus tangency of the section.

Kept as oracles for `test_quadric.py`.  `solid_section_census` classifies
every 3-space of {x6 = 0} by its quadric section, independently of the ovoid
geometry that `quadcover.ovoid` builds from perps.

The test oracles read the bilinear form from `alpha_table`: the full
|Q| x |Q| table from `loop_gram_matrix`, which shares no code with
`QuadricModel.alpha`, or the explicit table of a `TableModel`, the model
copy the corruption tests edit.
"""

import weakref
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from projgeom_oracle import Subspace
from quadcover.gf2n import FieldCtx
from quadcover.projgeom import Vec, enumerate_points, null_space
from quadcover.quadric import QuadricModel, pack_rows


def loop_gram_matrix(ctx: FieldCtx, coords: np.ndarray) -> np.ndarray:
    """alpha(x, y) for every pair of coordinate rows, one scalar-table
    product per coordinate pair, in row blocks."""
    M = ctx.mul_table
    n = len(coords)
    gram = np.empty((n, n), dtype=np.uint8)
    pairs = ((0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4))
    block = 1024
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        acc = np.zeros((hi - lo, n), dtype=np.uint8)
        for i, j in pairs:
            acc ^= M[coords[lo:hi, i][:, None], coords[None, :, j]].astype(np.uint8)
        gram[lo:hi] = acc
    return gram


class TableModel(QuadricModel):
    """A copy of a model whose `alpha`, `alpha_blocks` and `perp_blocks`
    read the explicit |Q| x |Q| table it is given, so that a test can
    corrupt single entries of the form.  It overrides every model method
    that reads the pair tables (`test_imports.py` checks)."""

    def __init__(self, model: QuadricModel, table: np.ndarray):
        vars(self).update(vars(model))
        self.table = table

    def alpha(self, rows, cols) -> np.ndarray:
        return np.take(np.take(self.table, rows, axis=0), cols, axis=1)

    def alpha_blocks(self, rows, cols, step: int) -> Iterator[np.ndarray]:
        for lo in range(0, len(rows), step):
            yield self.alpha(rows[lo:lo + step], cols)

    def perp_blocks(self, rows, cols, step: int) -> Iterator[np.ndarray]:
        for lo in range(0, len(rows), step):
            yield pack_rows(self.alpha(rows[lo:lo + step], cols) == 0)


_TABLES: "weakref.WeakKeyDictionary[QuadricModel, np.ndarray]" = weakref.WeakKeyDictionary()


def alpha_table(model: QuadricModel) -> np.ndarray:
    """The (|Q|, |Q|) uint8 table of alpha: a `TableModel`'s own, else
    `loop_gram_matrix` on the model's points, computed once per model."""
    if isinstance(model, TableModel):
        return model.table
    if model not in _TABLES:
        _TABLES[model] = loop_gram_matrix(model.ctx, model.coords)
    return _TABLES[model]


def _section_dual_functional(model: QuadricModel, s: Subspace) -> Vec:
    """The hyperplane-of-{x6=0} functional cutting out the rank-4 subspace s."""
    if s.rank != 4:
        raise ValueError("section classification expects a rank-4 subspace")
    if any(row[5] != 0 for row in s.basis):
        raise ValueError("subspace is not inside the hyperplane {x6 = 0}")
    kernel = null_space(model.ctx, [row[:5] for row in s.basis])
    if len(kernel) != 1:
        raise AssertionError("rank-4 subspace has no unique dual functional")
    return kernel[0]


def _classify_functional(model: QuadricModel, w: Sequence[int],
                         sect_coords: np.ndarray) -> Tuple[str, List[int]]:
    M = model.ctx.mul_table
    q = model.ctx.q
    vals = np.zeros(len(sect_coords), dtype=np.uint16)
    for j in range(5):
        if w[j]:
            vals ^= M[np.full(len(sect_coords), w[j]), sect_coords[:, j]]
    hit = model.section_points[vals == 0]
    count = len(hit)
    if count == q * q + 2 * q + 1:
        return "hyperbolic", [int(i) for i in hit]
    if count == q * q + q + 1:
        return "cone", [int(i) for i in hit]
    if count == q * q + 1:
        sub = alpha_table(model)[np.ix_(hit, hit)]
        off_diag_perp = (sub == 0).sum() - count
        if off_diag_perp == 0:
            return "elliptic", [int(i) for i in hit]
        return "cone", [int(i) for i in hit]
    raise AssertionError(f"unexpected section size {count}")


def section_type(model: QuadricModel, s: Subspace) -> str:
    """Classify a 3-space of {x6=0} by its quadric section: elliptic, hyperbolic, cone."""
    w = _section_dual_functional(model, s)
    sect_coords = model.coords[model.section_points][:, :5].astype(np.int64)
    kind, _ = _classify_functional(model, w, sect_coords)
    return kind


def solid_section_census(model: QuadricModel):
    """Classify every 3-space of the hyperplane; the independent ovoid oracle.

    Returns (counts, elliptic_sections) where elliptic_sections is the list of
    section-point index tuples of all elliptic 3-space sections.
    """
    sect_coords = model.coords[model.section_points][:, :5].astype(np.int64)
    counts = {"elliptic": 0, "hyperbolic": 0, "cone": 0}
    elliptic: List[Tuple[int, ...]] = []
    for w in enumerate_points(model.ctx, 5).tolist():
        kind, pts = _classify_functional(model, w, sect_coords)
        counts[kind] += 1
        if kind == "elliptic":
            elliptic.append(tuple(pts))
    return counts, elliptic


def verify_gq_axioms(model: QuadricModel) -> dict:
    """Point/line axioms of a generalized quadrangle on every (point, line)
    pair: a point on a line is collinear with all q+1 of its points, a point
    off it with exactly one."""
    nq = model.n_points
    q = model.ctx.q
    gram = alpha_table(model)
    for ln in model.lines:
        perp_counts = (gram[:, ln] == 0).sum(axis=1)
        on_line = np.zeros(nq, dtype=bool)
        on_line[ln] = True
        ok = np.where(on_line, perp_counts == q + 1, perp_counts == 1)
        if not ok.all():
            bad = int(np.nonzero(~ok)[0][0])
            return {
                "pass": False,
                "counterexample": {"line": [int(p) for p in ln], "point": bad},
            }
    return {"pass": True, "lines_checked": len(model.lines)}


def nucleus_tangency_check(model: QuadricModel) -> bool:
    """Every line of the hyperplane through the nucleus meets the section at
    most once; equivalently no two section points differ only in the nucleus
    direction.  The radical of x1y2 + x2y1 + x3y4 + x4y3 on {x6 = 0} is e5
    for every modulus and lam, so dropping that coordinate keys the lines."""
    dirs = [j for j, c in enumerate(model.nucleus) if c]
    if len(dirs) != 1:
        raise AssertionError("nucleus is not a coordinate point")
    seen = set()
    for i in model.section_points:
        key = tuple(c for j, c in enumerate(model.point(i)) if j != dirs[0])
        if key in seen:
            return False
        seen.add(key)
    return True
