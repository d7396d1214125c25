"""Quadric model structure: counts, polarity, lines, nucleus, sections."""

import copy

import numpy as np
import pytest

from figures_oracle import alpha_perp
from projgeom_oracle import span
from quadcover import bitrows, covering, ovoid, projgeom, quadric
from quadcover.gf2n import FieldCtx, is_irreducible, trace
from quadcover.ovoid import build_geometry
from quadcover.projgeom import enumerate_points, line_points, vec_scale
from quadcover.quadric import build_model
from quadric_oracle import (alpha_table, nucleus_tangency_check, section_type,
                            solid_section_census, verify_gq_axioms)


def test_build_rejects_large_degree():
    with pytest.raises(ValueError):
        build_model(FieldCtx(4))


@pytest.mark.parametrize("lam", [-1, 4])
def test_build_rejects_lambda_outside_the_field(lam):
    with pytest.raises(ValueError, match="field element"):
        build_model(FieldCtx(2), lam=lam)


def test_build_rejects_trace_zero_lambda():
    ctx = FieldCtx(2)
    zero_tr = next(a for a in ctx.nonzero() if trace(ctx, a) == 0)
    with pytest.raises(ValueError):
        build_model(ctx, lam=zero_tr)


@pytest.mark.parametrize("fix,q", [("model_q2", 2), ("model_q4", 4), ("model_q8", 8)])
def test_point_and_line_counts(fix, q, request):
    model = request.getfixturevalue(fix)
    assert model.n_points == (q + 1) * (q ** 3 + 1)
    assert len(model.section_points) == (q + 1) * (q ** 2 + 1)
    assert len(model.affine_points) == q ** 4 - q ** 2
    assert model.lines.shape == ((q ** 3 + 1) * (q ** 2 + 1), q + 1)
    assert model.lines_through.shape == (model.n_points, q ** 2 + 1)
    # each line id is listed at exactly its q+1 points
    assert (model.lines[model.lines_through] == np.arange(model.n_points)[:, None, None]
            ).any(axis=2).all()


@pytest.mark.parametrize("fix", ["model_q2", "model_q4", "model_q8"])
def test_point_lookup(fix, request):
    """index_of inverts point, finds a point from any nonzero multiple, and
    finds nothing at the points of PG(5, q) off the quadric."""
    model = request.getfixturevalue(fix)
    ctx = model.ctx
    for i in range(model.n_points):
        p = model.point(i)
        assert all(model.index_of(vec_scale(ctx, c, p)) == i for c in ctx.nonzero())
    off = [p for p in enumerate_points(ctx, 6).tolist() if model.f_scalar(p) != 0]
    assert len(off) == (ctx.q ** 6 - 1) // (ctx.q - 1) - model.n_points
    assert all(model.index_of(p) is None for p in off)
    with pytest.raises(ValueError):
        model.index_of((0,) * 6)


def test_form_vanishes_exactly_on_points(model_q4):
    model = model_q4
    for i in range(0, model.n_points, 37):
        assert model.f_scalar(model.point(i)) == 0
    assert model.f_scalar(model.nucleus) != 0


@pytest.mark.parametrize("name", ["model_q2", "model_q4"])
def test_gram_matches_bilinear(request, name):
    # every pair: the figure layer reads alpha blocks in place of the scalar form
    model = request.getfixturevalue(name)
    pts = [model.point(i) for i in range(model.n_points)]
    scalar = np.array([[model.alpha_scalar(u, v) for v in pts] for u in pts])
    idx = np.arange(model.n_points)
    block = model.alpha(idx, idx)
    assert (block == scalar).all()
    assert (block == block.T).all()
    assert (np.diagonal(block) == 0).all()


def test_lines_are_totally_singular(model_q2):
    model = model_q2
    gram = alpha_table(model)
    for line in model.lines:
        pts = list(line)
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                assert gram[a, b] == 0


def test_collinear_pairs_lie_on_lines(model_q4):
    # alpha == 0 between distinct points is exactly co-line membership
    model = model_q4
    on_line = set()
    for line in model.lines:
        pts = list(line)
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                on_line.add((min(a, b), max(a, b)))
    zero = np.argwhere(np.triu(alpha_table(model) == 0, 1))
    assert {(int(a), int(b)) for a, b in zero} == on_line


@pytest.mark.parametrize("name", ["model_q2", "model_q4"])
def test_lines_match_line_points_oracle(request, name):
    # the lines are read off the form; rebuild them from coordinates instead
    model = request.getfixturevalue(name)
    index = {tuple(p): i for i, p in enumerate(model.coords.tolist())}
    want = set()
    for a, b in np.argwhere(np.triu(alpha_table(model) == 0, 1)):
        pts = line_points(model.ctx, model.point(int(a)), model.point(int(b)))
        want.add(tuple(sorted(index[p] for p in pts)))
    assert [tuple(line) for line in model.lines.tolist()] == sorted(want)


def test_construction_makes_no_line_points_call(monkeypatch):
    """The q = 4 model and geometry make no line_points call, one null_space
    call (two rref calls), for the nucleus, and only the scalar field
    products of the nucleus and the field's own tables.  The package defines
    no span: that lives with the test oracles."""
    assert not hasattr(projgeom, "span")
    calls = {"line_points": 0, "null_space": 0, "rref": 0, "mul": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in ("line_points", "null_space", "rref"):
        wrapper = counting(name, getattr(projgeom, name))
        for mod in (projgeom, quadric, ovoid, covering):
            monkeypatch.setattr(mod, name, wrapper, raising=False)
    monkeypatch.setattr(FieldCtx, "mul", counting("mul", FieldCtx.mul))
    build_geometry(build_model(FieldCtx(2)))
    mul = calls.pop("mul")
    assert calls == {"line_points": 0, "null_space": 1, "rref": 2}
    assert mul < 300


def test_nucleus_properties(model_q2, model_q4, model_q8):
    for model in (model_q2, model_q4, model_q8):
        n0 = model.nucleus
        assert model.index_of(n0) is None  # not on the quadric
        # perp of the nucleus meets every coordinate of the section split
        nz = [i for i, x in enumerate(n0) if x]
        assert nz  # nonzero
        assert nucleus_tangency_check(model)


@pytest.mark.parametrize("name", ["model_q2", "model_q4"])
def test_elation_is_a_fixed_point_free_section_involution(request, name):
    model = request.getfixturevalue(name)
    perm = model.elation_perm
    assert (perm[perm] == np.arange(model.n_points)).all()
    sect = np.array(model.section_points)
    aff = np.array(model.affine_points)
    assert (perm[sect] == sect).all()
    assert (perm[aff] != aff).all()
    # orbits stay collinear with the nucleus: x, nu(x), n0 on a line
    for x in aff:
        x = int(x)
        y = int(perm[x])
        rowspace = span(model.ctx, [model.point(x), model.point(y),
                                    model.nucleus])
        assert rowspace.rank == 2


def test_perp_sections_are_ovoid_sized(geom_q4):
    model = geom_q4.model
    q = model.ctx.q
    sect = np.array(model.section_points)
    for (x, _), row in zip(geom_q4.ovoid_orbit, geom_q4.member_matrix):
        assert row.sum() == q * q + 1
        assert (alpha_table(model)[x, sect[row]] == 0).all()
        assert model.in_section[sect[row]].all()


def test_solid_section_census_counts(model_q2, model_q4):
    for model in (model_q2, model_q4):
        q = model.ctx.q
        counts, _ = solid_section_census(model)
        assert counts["elliptic"] == q * q * (q * q - 1) // 2
        assert counts["hyperbolic"] == q * q * (q * q + 1) // 2
        assert counts["cone"] == (q + 1) * (q * q + 1)
        assert sum(counts.values()) == (q ** 5 - 1) // (q - 1)


def test_section_type_of_explicit_solids(model_q4):
    model = model_q4
    # the section hyperplane meets Q in Q0; a solid inside it through a
    # tangent-plane-like pencil is degenerate, while a generic one is not
    counts, elliptic = solid_section_census(model)
    some = elliptic[0]
    s = span(model.ctx, [model.point(i) for i in some])
    assert section_type(model, s) == "elliptic"


def test_alpha_perp_is_an_involution_on_solids(model_q2):
    model = model_q2
    counts, elliptic = solid_section_census(model)
    s = span(model.ctx, [model.point(i) for i in elliptic[0]])
    p = alpha_perp(model, s)
    assert p.rank == 6 - s.rank
    assert alpha_perp(model, p) == s


def test_gq_axioms(model_q2, model_q4):
    assert verify_gq_axioms(model_q2) == {"pass": True, "lines_checked": 45}
    assert verify_gq_axioms(model_q4) == {"pass": True, "lines_checked": 1105}


@pytest.mark.parametrize("n,k", [(6, 4), (4617, 65), (69649, 257), (100000, 3)])
def test_incidence_transpose_matches_an_int64_argsort(n, k):
    # ids below n in rows of k, each id held by some rows: up to |Q| at
    # q = 16 (69,649 points on 257 lines each) and beyond 2^16
    rng = np.random.default_rng(n)
    table = rng.integers(0, n, (max(n, 2000) // k + 50, k)).astype(np.int32)
    table[0, 0], table[-1, -1] = n - 1, 0
    want = np.argsort(table.ravel().astype(np.int64), kind="stable") // k
    got = quadric.incidence_transpose(table, n)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, want)
    if n > 1 << 16:
        # the 16-bit keys that the set-up sorted before wrap above 2^16
        old = np.argsort(table.ravel().astype(np.uint16), kind="stable") // k
        assert not np.array_equal(old, want)


def _narrow_keys(table, n):
    """The transpose from 8-bit keys, which wrap above 255 ids."""
    return (np.argsort(table.ravel().astype(np.uint8), kind="stable")
            // table.shape[1]).astype(np.int32)


_TRANSPOSE = quadric.incidence_transpose


def _exchanged(table, n):
    """The transpose with two points' first lines exchanged: every point
    keeps q^2 + 1 lines and every line q + 1 points."""
    flat = _TRANSPOSE(table, n)
    k = len(flat) // n
    p = np.flatnonzero(flat[::k] != flat[0])[0]     # a point off point 0's first line
    flat[[0, p * k]] = flat[[p * k, 0]]
    return flat


@pytest.mark.parametrize("transpose", [_narrow_keys, _exchanged], ids=lambda f: f.__name__)
def test_lines_through_law_rejects_a_corrupted_transpose(monkeypatch, model_q4, transpose):
    # at q = 4 the 325 points overflow 8-bit keys as the 69,649 points of
    # q = 16 overflowed the 16-bit keys the set-up sorted before
    monkeypatch.setattr(quadric, "incidence_transpose", transpose)
    with pytest.raises(AssertionError, match="lines_through is not the transpose of lines"):
        quadric._build_lines(copy.copy(model_q4))


def _perp_shapes(model, rng):
    """Row and column index arrays for `perp_blocks`: the package's large
    blocks, column counts on both sides of a word (63, 64, 65, 129), a
    single column, no rows, no columns, and unsorted, repeated points."""
    pts = np.arange(model.n_points)
    aff, sect = model.affine_points, model.section_points
    yield pts[:1024], pts
    yield aff[:600], aff
    yield aff, sect
    yield sect, sect
    for m in (1, 63, 64, 65, 129):
        yield rng.permutation(pts)[:300], rng.integers(0, len(pts), m)
    yield pts[:0], pts
    yield pts[:5], pts[:0]


def _assert_perp_blocks_match(model, rows, cols):
    # at steps 1, 7, len - 1, len and len + 5: the rows of
    # pack_rows(collinear), step rows a block, the padding bits clear
    want = bitrows.pack_rows(model.collinear(rows, cols))
    n = len(rows)
    for step in sorted({1, 7, max(1, n - 1), max(1, n), n + 5}):
        got = list(model.perp_blocks(rows, cols, step))
        assert [len(b) for b in got] == [min(step, n - lo) for lo in range(0, n, step)]
        assert all(b.dtype == np.uint64 and b.shape[1] == want.shape[1] for b in got)
        got = np.concatenate(got) if got else want[:0]
        assert np.array_equal(got, want)
        assert not bitrows.unpack_rows(got)[:, len(cols):].any()


@pytest.mark.parametrize("name", ["model_q2", "model_q4", "model_q8"])
def test_perp_blocks_match_packed_collinearity(request, name):
    model = request.getfixturevalue(name)
    for rows, cols in _perp_shapes(model, np.random.default_rng(23)):
        _assert_perp_blocks_match(model, rows, cols)


@pytest.mark.parametrize("n,modulus,lam", [
    (n, m, lam) for n in (1, 2) for m in range(1 << n, 2 << n) if is_irreducible(m)
    for lam in range(1 << n) if trace(FieldCtx(n, m), lam) == 1])
def test_perp_blocks_match_packed_collinearity_in_every_small_field(n, modulus, lam):
    model = build_model(FieldCtx(n, modulus), lam=lam)
    for rows, cols in _perp_shapes(model, np.random.default_rng(29)):
        _assert_perp_blocks_match(model, rows, cols)


@pytest.mark.parametrize("n,rows", [(1, 4), (2, 3)])
def test_set_up_perp_rows_are_the_packed_collinearity(monkeypatch, request, n, rows):
    # PERP_BLOCK patched to a few perp rows a block, the last one short
    # (15 = 3 * 4 + 3 points at q = 2, 325 = 108 * 3 + 1 at q = 4): each
    # block the set-up reads is diffed as it is yielded, and the model is
    # the unpatched one
    real = quadric.QuadricModel.perp_blocks
    seen = []

    def checked(self, rows, cols, step):
        for lo, block in zip(range(0, len(rows), step), real(self, rows, cols, step)):
            want = bitrows.pack_rows(self.collinear(rows[lo:lo + step], cols))
            assert np.array_equal(block, want)
            seen.append(len(block))
            yield block

    ref = request.getfixturevalue(f"model_q{2 ** n}")
    monkeypatch.setattr(quadric.QuadricModel, "perp_blocks", checked)
    monkeypatch.setattr(quadric, "PERP_BLOCK", rows * ref.n_points)
    model = build_model(ref.ctx)
    nq = ref.n_points
    assert seen == [rows] * (nq // rows) + [nq % rows] * (nq % rows > 0)
    for key, value in vars(model).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, getattr(ref, key)), key
