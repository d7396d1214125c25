"""The figure layer against the scalar path it replaced (`figures_oracle`).

Solver lists (in order, with their rows), brute-force lists, cube
parameters and frames, decades and dodecades, and closure reports must be
equal on every hexagon and cube at q = 2 and q = 4, and on a seeded 300 of
each at q = 8.  Corrupted extension candidates must fail the incremental
check with the reason the full check gives, and frame points with one
broken incidence must be refused with the oracle frame's reason.
"""

import numpy as np
import pytest

import figures_oracle as old
from quadric_oracle import TableModel, alpha_table
from quadcover import figures as new
from quadcover import subf2
from quadcover.gf2n import FieldCtx
from quadcover.projgeom import enumerate_points
from quadcover.quadric import second_intersection, second_intersections

Q8_SAMPLE = 300
CASES = [("model_q2", "cov_q2", "census_q2"), ("model_q4", "cov_q4", "census_q4"),
         ("model_q8", "cov_q8", "census_q8_sampled")]
REASONS = ("repeated point", "not concurrent", "sees the reference pair",
           "landed in one row", "adjacency mismatch")


def _rows(request, cen_name, attr):
    rows = getattr(request.getfixturevalue(cen_name), attr)
    if cen_name == "census_q8_sampled":
        rng = np.random.default_rng(2024)
        rows = rows[rng.choice(len(rows), size=Q8_SAMPLE, replace=False)]
    return rows


def _figs(figs):
    """Figures with their rows, which equality leaves out."""
    return [(f.kind, f.pairs, f.center, f.rows) for f in figs]


def _ext(ext):
    return _figs(ext["decades"]), ext["dodecade"] and _figs([ext["dodecade"]])


def _same_closure(model, fig):
    span, rep = subf2.closure_report(model, fig)
    span_o, rep_o = old.closure_report(model, fig)
    assert span == span_o  # basis, sums, points, quadric points, ok, failure
    assert rep == rep_o


@pytest.mark.parametrize("mname,cov_name,cen_name", CASES)
def test_hexagon_path_matches_the_scalar_oracle(request, mname, cov_name, cen_name):
    model = request.getfixturevalue(mname)
    cov = request.getfixturevalue(cov_name)
    for row in _rows(request, cen_name, "triangles"):
        hexf = new.lift_clique_to_figure(cov, [int(v) for v in row])
        assert _figs(new.extend_hexagon_to_cubes(model, hexf)) \
            == _figs(old.extend_hexagon_to_cubes(model, hexf))
        assert _figs(new.extend_hexagon_to_cubes_bruteforce(model, hexf)) \
            == _figs(old.extend_hexagon_to_cubes_bruteforce(model, hexf))
        _same_closure(model, hexf)


@pytest.mark.parametrize("mname,cov_name,cen_name", CASES)
def test_cube_path_matches_the_scalar_oracle(request, mname, cov_name, cen_name):
    model = request.getfixturevalue(mname)
    cov = request.getfixturevalue(cov_name)
    for row in _rows(request, cen_name, "cliques4"):
        cube = new.lift_clique_to_figure(cov, [int(v) for v in row])
        par, fm = new.cube_params(model, cube)
        par_o, fm_o = old.cube_params(model, cube)
        assert par == par_o
        assert fm.rows == tuple(zip(*fm_o._t))
        ext = new.extend_cube(model, cube)
        assert _ext(ext) == _ext(old.extend_cube(model, cube))
        assert _ext(new.extend_cube_bruteforce(model, cube)) \
            == _ext(old.extend_cube_bruteforce(model, cube))
        _same_closure(model, cube)
        if ext["dodecade"] is not None:
            _same_closure(model, ext["dodecade"])


def _broken_frames(model, lab):
    """A cube's frame points (a1, c1, b1, d1) with one incidence the frame
    checks broken at a time, in the order it checks them: c1 collinear with
    a1; b1 off the perp of c1, then of a1; d1 collinear with b1, then off
    the perp of a1, then of c1."""
    g = alpha_table(model)
    a1, c1, b1, d1 = (lab[k] for k in ("a1", "c1", "b1", "d1"))

    def first(mask):
        return int(np.flatnonzero(mask)[0])
    yield first((g[a1] == 0) & (np.arange(model.n_points) != a1)), b1, d1
    yield c1, first((g[a1] == 0) & (g[c1] != 0)), d1
    yield c1, first((g[a1] != 0) & (g[c1] == 0)), d1
    yield c1, b1, first((g[a1] == 0) & (g[c1] == 0) & (g[b1] == 0))
    yield c1, b1, first((g[a1] != 0) & (g[c1] == 0) & (g[b1] != 0))
    yield c1, b1, first((g[a1] == 0) & (g[c1] != 0) & (g[b1] != 0))


@pytest.mark.parametrize("mname,cov_name,cen_name", CASES[1:])
def test_frame_rejects_each_broken_incidence_as_the_oracle_does(request, mname, cov_name,
                                                                cen_name):
    model = request.getfixturevalue(mname)
    cov = request.getfixturevalue(cov_name)
    row = request.getfixturevalue(cen_name).cliques4[0]
    lab = new.cube_labels(model, new.lift_clique_to_figure(cov, [int(v) for v in row]))
    reasons = []
    for c1, b1, d1 in _broken_frames(model, lab):
        with pytest.raises(ValueError) as exc:
            new.build_adapted_frame(model, lab["a1"], c1, b1, d1)
        with pytest.raises(ValueError) as want:
            old.build_adapted_frame(model, lab["a1"], c1, b1, d1)
        assert str(exc.value) == str(want.value)
        reasons.append(str(exc.value).split()[1])
    assert reasons == ["points"] + ["point"] * 2 + ["frame"] * 3


def test_recognition_matches_the_scalar_oracle_off_signature(model_q4):
    """Spans that are no binary quadric, or a quadric with the wrong order,
    get the same report from both recognitions."""
    e = [tuple(int(i == j) for i in range(6)) for j in range(6)]
    rng = np.random.default_rng(11)
    families = [e, e[:3], e[:4], e[1:5], [(1, 2, 0, 0, 0, 0), (0, 0, 1, 3, 0, 0)]]
    families += [[tuple(int(x) for x in rng.integers(0, 4, 6)) for _ in range(k)]
                 for k in (2, 3, 4, 5, 6) for _ in range(4)]
    tags = set()
    for vecs in families:
        span = subf2.f2_closure(model_q4, vecs)
        rep = subf2.recognize_subgeometry(model_q4, span, center=vecs[0])
        assert rep == old.recognize_subgeometry(model_q4, span, center=vecs[0])
        tags.add(rep.type_tag)
    assert {"none", "Q42"} <= tags


@pytest.mark.parametrize("mname", ["model_q2", "model_q4", "model_q8"])
def test_span_forms_match_the_per_point_oracle(request, mname):
    """The form carried along the subset sums marks the same quadric points
    as the oracle's form on every point, failed spans included."""
    model = request.getfixturevalue(mname)
    q = model.ctx.q
    e = [tuple(int(i == j) for i in range(6)) for j in range(6)]
    rng = np.random.default_rng(q)
    families = [e, e[:3], e[1:5], e + [e[0]], [e[0], (0,) * 6],
                [e[0], e[1], tuple(q - 1 if i == 0 else 0 for i in range(6))]]
    families += [[tuple(int(x) for x in rng.integers(0, q, 6)) for _ in range(k)]
                 for k in (1, 2, 3, 4, 5, 6, 7) for _ in range(6)]
    points = enumerate_points(model.ctx)
    families += [[tuple(points[i]) for i in rng.choice(len(points), size=k, replace=False)]
                 for k in (3, 4, 5, 6) for _ in range(6)]
    for vecs in families:
        assert subf2.f2_closure(model, vecs) == old.f2_closure(model, vecs)


def test_frame_coordinates_invert_the_frame(model_q4, cov_q4, census_q4):
    """to_frame by pairings is the inverse of from_frame, as the oracle's
    Gauss-Jordan inverse is, on every quadric point."""
    model = model_q4
    cube = new.lift_clique_to_figure(cov_q4, [int(v) for v in census_q4.cliques4[0]])
    _, fm = new.cube_params(model, cube)
    _, fm_o = old.cube_params(model, cube)
    for i in range(model.n_points):
        x = model.point(i)
        assert fm.from_frame(fm.to_frame(x)) == x
        assert fm.to_frame(x) == fm_o.to_frame(x)


def test_matrix_inverse_roundtrip():
    ctx = FieldCtx(2)
    m = [(2, 1, 0, 3, 1, 2), (0, 1, 2, 0, 0, 1), (0, 0, 3, 1, 2, 0),
         (0, 0, 0, 1, 3, 1), (0, 0, 0, 0, 2, 3), (0, 0, 0, 0, 0, 1)]
    mi = old.mat_inv(ctx, m)
    prod = old.mat_mul(ctx, m, mi)
    ident = tuple(tuple(1 if i == j else 0 for j in range(6)) for i in range(6))
    assert prod == ident
    v = (1, 3, 2, 0, 1, 2)
    assert old.mat_vec(ctx, m, old.mat_vec(ctx, mi, v)) == v


def test_matrix_inverse_rejects_singular():
    m = [(1, 0, 0, 0, 0, 0)] * 6
    with pytest.raises(ValueError):
        old.mat_inv(FieldCtx(2), m)


def test_frame_rejects_a_basis_that_is_not_hyperbolic(model_q4):
    e = [tuple(int(i == j) for i in range(6)) for j in range(6)]
    with pytest.raises(AssertionError, match="frame pairing"):
        new.FrameMap(model_q4, [e[0], e[2], e[1]] + e[3:])


def _corruptions(model, hexf, cubes):
    """Fourth pairs for a hexagon: every second intersection from a quadric
    point toward the center (the solved pairs pass, most others break the
    rows or the adjacency, some repeat a point), the solved pairs with
    partners swapped between two cubes, a pair reusing a hexagon point, and
    non-concurrent pairs."""
    c = hexf.center
    for i in range(model.n_points):
        y = second_intersection(model, model.point(i), c)
        if y is not None:
            yield i, model.index_of(y)
    (d1, d2), (e1, e2) = cubes[0].pairs[3], cubes[1].pairs[3]
    yield d1, e2
    yield e1, d2
    yield d1, hexf.pairs[0][1]
    yield d1, d1
    for i in range(0, model.n_points, 7):
        yield d1, i


def _one_row_model(model, hexf, pair):
    """A `TableModel` copy of the model whose form table puts b on a's side
    of the reference pair.  No concurrent pair lands in one row of a true
    figure, so this is the way to reach that reason; concurrency reads
    coordinates and holds."""
    table = alpha_table(model).copy()
    (a, b), ref = pair, hexf.pairs[0]
    table[b, ref] = table[ref, b] = table[a, ref]
    return TableModel(model, table)


@pytest.mark.parametrize("mname,cov_name,cen_name", CASES[:2])
def test_corrupted_extensions_fail_with_the_full_check_reason(request, mname, cov_name,
                                                              cen_name):
    model = request.getfixturevalue(mname)
    cov = request.getfixturevalue(cov_name)
    tris = request.getfixturevalue(cen_name).triangles
    seen = set()
    for row in tris[:3]:
        hexf = new.lift_clique_to_figure(cov, [int(v) for v in row])
        cubes = new.extend_hexagon_to_cubes(model, hexf)
        cases = [(model, pair) for pair in _corruptions(model, hexf, cubes)]
        cases.append((_one_row_model(model, hexf, cubes[0].pairs[3]), cubes[0].pairs[3]))
        for mod, pair in cases:
            full = new.CentricFigure("cube", hexf.pairs + (pair,), hexf.center, ((), ()))
            rep = new.verify_centric_figure(mod, full)
            assert rep == old.verify_centric_figure(mod, full)
            if rep["pass"]:
                assert new.extend_figure(mod, hexf, [pair]).rows == rep["rows"]
                continue
            with pytest.raises(ValueError) as exc:
                new.extend_figure(mod, hexf, [pair])
            assert str(exc.value) == rep["reason"]
            seen |= {k for k in REASONS if k in rep["reason"]}
    assert seen == set(REASONS) - ({"sees the reference pair", "adjacency mismatch"}
                                   if mname == "model_q2" else set())


@pytest.mark.parametrize("n", [1, 2])
def test_second_intersections_match_the_scalar_pass(n, request):
    model = request.getfixturevalue(f"model_q{2 ** n}")
    ctx = model.ctx
    off = [p for p in enumerate_points(ctx, 6).tolist() if model.f_scalar(p) != 0]
    rng = np.random.default_rng(5)
    centers = [model.nucleus] + [off[k] for k in rng.choice(len(off), 5, replace=False)]
    idx = np.arange(model.n_points)
    for c in centers:
        got = second_intersections(model, idx, c)
        assert got.dtype == np.int32
        for i in range(model.n_points):
            y = second_intersection(model, model.point(i), c)
            assert got[i] == (-1 if y is None else model.index_of(y))

