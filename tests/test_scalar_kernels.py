"""The scalar kernels that read rows of the field's product table, against
the numpy-table forms of the same maps and against the shift-and-add
product of `gf2n_oracle`.

`f_scalar`, `alpha_scalar`, `second_intersection`, `normalize_tuple`,
`vec_scale`, `figures._combination` and `conic_solution_set` index
``FieldCtx.mul_rows`` and ``inv_row``.  Each is compared on every point of
PG(5, q) or of the quadric at q = 2, 4, 8, on seeded vectors off the
quadric, and in every field with every trace-one form parameter at q <= 4.
"""

import numpy as np
import pytest

from gf2n_oracle import poly_mulmod
from quadcover.figures import _combination
from quadcover.gf2n import FieldCtx, conic_solution_set, is_irreducible, trace
from quadcover.projgeom import enumerate_points, normalize_tuple, vec_scale
from quadcover.quadric import (QuadricModel, _f_vectorized, build_model, second_intersection,
                               second_intersections)

# every (n, modulus, lam) with q <= 4, then the default q = 8 field
SMALL = [(n, m, lam) for n in (1, 2) for m in range(1 << n, 2 << n) if is_irreducible(m)
         for lam in range(1 << n) if trace(FieldCtx(n, m), lam) == 1]
FIELDS = SMALL + [(3, None, None)]
IDS = [f"n{n}-{m}-lam{lam}" for n, m, lam in FIELDS]


def _model(request, n, modulus, lam):
    if n == 3:
        return request.getfixturevalue("model_q8")
    return build_model(FieldCtx(n, modulus), lam=lam)


def _f(ctx, lam, v):
    """f(x) = x1 x2 + x3 x4 + x5^2 + x5 x6 + lam x6^2, by shift-and-add products."""
    m = ctx.modulus
    x1, x2, x3, x4, x5, x6 = v
    return (poly_mulmod(x1, x2, m) ^ poly_mulmod(x3, x4, m) ^ poly_mulmod(x5, x5, m)
            ^ poly_mulmod(x5, x6, m) ^ poly_mulmod(lam, poly_mulmod(x6, x6, m), m))


def _alpha(ctx, u, v):
    m = ctx.modulus
    return (poly_mulmod(u[0], v[1], m) ^ poly_mulmod(u[1], v[0], m)
            ^ poly_mulmod(u[2], v[3], m) ^ poly_mulmod(u[3], v[2], m)
            ^ poly_mulmod(u[4], v[5], m) ^ poly_mulmod(u[5], v[4], m))


def _scale(ctx, c, v):
    return tuple(poly_mulmod(c, a, ctx.modulus) for a in v)


def _inv(ctx, a):
    return next(b for b in ctx.nonzero() if poly_mulmod(a, b, ctx.modulus) == 1)


def _normalized(ctx, v):
    return _scale(ctx, _inv(ctx, next(a for a in v if a)), v)


def _raw(ctx, rng, k):
    """k seeded vectors of F_q^6, none zero, most off the quadric and not normalized."""
    v = rng.integers(0, ctx.q, size=(k, 6))
    v[~v.any(axis=1), 5] = 1
    return v.tolist()


@pytest.mark.parametrize("n,modulus,lam", FIELDS, ids=IDS)
def test_f_scalar_matches_the_table_pass_and_the_product(n, modulus, lam):
    ctx = FieldCtx(n, modulus)
    lam = ctx.default_form_parameter() if lam is None else lam
    model = QuadricModel(ctx, lam)          # the form needs no built model
    pg = enumerate_points(ctx, 6)
    pts = pg.tolist() + _raw(ctx, np.random.default_rng(n), 500)
    got = [model.f_scalar(p) for p in pts]
    assert got[:len(pg)] == _f_vectorized(ctx, lam, pg).tolist()
    assert got == [_f(ctx, lam, p) for p in pts]


@pytest.mark.parametrize("n,modulus,lam", FIELDS, ids=IDS)
def test_alpha_scalar_matches_the_model_blocks_and_the_product(request, n, modulus, lam):
    model = _model(request, n, modulus, lam)
    ctx, nq = model.ctx, model.n_points
    rng = np.random.default_rng(11)
    cols = np.arange(nq) if nq < 400 else np.sort(rng.choice(nq, 16, replace=False))
    pts = [model.point(i) for i in range(nq)]
    got = [[model.alpha_scalar(pts[i], pts[j]) for j in cols] for i in range(nq)]
    assert got == model.alpha(np.arange(nq), cols).tolist()
    raw = _raw(ctx, rng, 300)
    assert [model.alpha_scalar(u, v) for u, v in zip(raw, raw[1:] + pts[:1])] \
        == [_alpha(ctx, u, v) for u, v in zip(raw, raw[1:] + pts[:1])]


@pytest.mark.parametrize("n,modulus,lam", FIELDS, ids=IDS)
def test_second_intersection_matches_the_array_pass(request, n, modulus, lam):
    """Every quadric point toward the nucleus and seeded centers off Q, some
    of them given by a representative that is not normalized."""
    model = _model(request, n, modulus, lam)
    ctx = model.ctx
    rng = np.random.default_rng(17)
    off = [v for v in _raw(ctx, rng, 200) if _f(ctx, model.lam, v) != 0]
    centers = [model.nucleus] + off[:4]
    idx = np.arange(model.n_points)
    for c in centers:
        want = second_intersections(model, idx, c).tolist()
        fc = _f(ctx, model.lam, c)
        for i in idx.tolist():
            x = model.point(i)
            y = second_intersection(model, x, c)
            assert (-1 if y is None else model.index_of(y)) == want[i]
            a = _alpha(ctx, c, x)
            if a:       # y = [c + (f(c) / alpha(c, x)) x]
                t = poly_mulmod(fc, _inv(ctx, a), ctx.modulus)
                assert y == _normalized(ctx, tuple(ci ^ xi for ci, xi in
                                                   zip(c, _scale(ctx, t, x))))


@pytest.mark.parametrize("n,modulus", sorted({(n, m) for n, m, _ in FIELDS}, key=str))
def test_normalize_and_scale_match_the_product(n, modulus):
    ctx = FieldCtx(n, modulus)
    rng = np.random.default_rng(19)
    pts = enumerate_points(ctx, 6).tolist()
    scales = rng.integers(1, ctx.q, size=len(pts)).tolist()
    for c, p in zip(scales, pts):
        v = vec_scale(ctx, c, p)
        assert v == _scale(ctx, c, p)
        assert normalize_tuple(ctx, v) == tuple(p)
    for v in _raw(ctx, rng, 500):
        assert normalize_tuple(ctx, v) == _normalized(ctx, v)
        assert vec_scale(ctx, 0, v) == (0,) * 6
    with pytest.raises(ValueError, match="^cannot normalize the zero vector$"):
        normalize_tuple(ctx, (0,) * 6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_combination_matches_the_product(n):
    ctx = FieldCtx(n)
    rng = np.random.default_rng(23)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        coeffs = rng.integers(0, ctx.q, size=k).tolist()
        vecs = [tuple(v) for v in rng.integers(0, ctx.q, size=(k, 6)).tolist()]
        want = [0] * 6
        for c, v in zip(coeffs, vecs):
            want = [w ^ s for w, s in zip(want, _scale(ctx, c, v))]
        assert _combination(ctx, coeffs, vecs) == want


@pytest.mark.parametrize("n,modulus", [(n, m) for n in (1, 2, 3)
                                       for m in range(1 << n, 2 << n) if is_irreducible(m)])
def test_conic_solution_set_matches_the_product(n, modulus):
    ctx = FieldCtx(n, modulus)
    for lam in ctx.elements():
        if trace(ctx, lam) != 1:
            continue
        for mu in ctx.elements():
            want = {(x, y) for x in ctx.elements() for y in ctx.elements()
                    if poly_mulmod(x, x ^ y, modulus)
                    ^ poly_mulmod(lam, poly_mulmod(y, y, modulus), modulus) ^ mu == 1}
            assert conic_solution_set(ctx, lam, mu) == want
