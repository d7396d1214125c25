"""Projective-space primitives: normal forms, spans, duals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projgeom_oracle import span, subspace_intersection, subspace_points
from quadcover.gf2n import FieldCtx
from quadcover.projgeom import (enumerate_points, line_points, normalize_tuple, null_space,
                                rref, vec_add, vec_scale)

CTX = FieldCtx(2)


def _vec_strategy(q=4, dim=6):
    return st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim)


@settings(max_examples=60, deadline=None)
@given(_vec_strategy(), st.integers(1, 3))
def test_normalize_is_scale_invariant(v, c):
    if not any(v):
        return
    assert normalize_tuple(CTX, vec_scale(CTX, c, v)) == normalize_tuple(CTX, v)


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize_tuple(CTX, (0,) * 6)


def test_point_counts_by_dimension():
    for n, q in ((1, 2), (2, 4)):
        ctx = FieldCtx(n)
        for dim in (2, 3, 6):
            pts = [tuple(p) for p in enumerate_points(ctx, dim).tolist()]
            assert len(pts) == (q ** dim - 1) // (q - 1)
            assert len(set(pts)) == len(pts)
            assert all(p == normalize_tuple(ctx, p) for p in pts)


def _tuple_enumeration(ctx, dim):
    """The list-of-tuples enumeration that the array pass replaced: each
    leading position, all tails, one sort."""
    pts = []
    for lead in range(dim):
        stack = [(0,) * lead + (1,)]
        for _ in range(dim - lead - 1):
            stack = [t + (c,) for t in stack for c in ctx.elements()]
        pts.extend(stack)
    pts.sort()
    return pts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_array_matches_the_tuple_enumeration(n):
    ctx = FieldCtx(n)
    for dim in range(2, 7):
        pts = enumerate_points(ctx, dim)
        assert pts.dtype == np.int16
        assert pts.shape == ((ctx.q ** dim - 1) // (ctx.q - 1), dim)
        assert [tuple(p) for p in pts.tolist()] == _tuple_enumeration(ctx, dim)


def test_line_through_two_points():
    a = (1, 0, 0, 0, 0, 0)
    b = (0, 1, 0, 0, 0, 0)
    pts = line_points(CTX, a, b)
    assert len(pts) == CTX.q + 1
    assert normalize_tuple(CTX, vec_add(a, b)) in pts


def test_rref_is_canonical_under_row_scrambling():
    rows = [(1, 2, 0, 3, 0, 1), (0, 1, 1, 0, 2, 0), (1, 3, 1, 3, 2, 1)]
    base = rref(CTX, rows)
    scrambled = [vec_add(rows[0], rows[1]), rows[2], vec_scale(CTX, 3, rows[1])]
    assert rref(CTX, scrambled) == base


def test_span_and_membership():
    s = span(CTX, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    assert s.rank == 2
    assert len(subspace_points(CTX, s)) == CTX.q + 1


def test_null_space_dimensions():
    rows = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]
    ns = null_space(CTX, rows)
    assert len(ns) == 4
    for v in ns:
        assert v[0] == 0 and v[1] == 0


def test_null_space_annihilates():
    rows = [(1, 2, 3, 0, 1, 0), (0, 1, 0, 2, 0, 3)]
    for v in null_space(CTX, rows):
        for r in rows:
            acc = 0
            for a, b in zip(r, v):
                acc ^= CTX.mul(a, b)
            assert acc == 0


def test_subspace_intersection_of_planes():
    a = span(CTX, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    b = span(CTX, [(0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0)])
    inter = subspace_intersection(CTX, a, b)
    assert inter.rank == 2
    assert inter == span(CTX, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
