"""Binary closures of centric figures and their recognized subgeometries."""

import pytest

from figures_oracle import face_point, fundamental_cube, opposite_edge_points
from quadcover.figures import (
    CubeParams,
    extend_cube,
    extend_hexagon_to_cubes,
    lift_clique_to_figure,
)
from quadcover.projgeom import normalize_tuple
from quadcover.subf2 import (
    closure_report,
    count_identities,
    f2_closure,
    recognize_subgeometry,
    scale_figure_representatives,
    span_f2_radical,
    subgeometry_count_formula,
)


def _hexagon(cov, rep, k=0):
    return lift_clique_to_figure(cov, [int(v) for v in rep.triangles[k]])


def _cube(model, cov, rep, k=0):
    return extend_hexagon_to_cubes(model, _hexagon(cov, rep, k))[0]


def _e(i):
    return tuple(1 if j == i else 0 for j in range(6))


def test_pair_sum_scaling(model_q4, cov_q4, census_q4):
    model = model_q4
    ctx = model.ctx
    for fig in (_hexagon(cov_q4, census_q4), _cube(model, cov_q4, census_q4)):
        scaled = scale_figure_representatives(model, fig)
        assert len(scaled) == 2 * len(fig.pairs)
        for k, (a, b) in enumerate(fig.pairs):
            ra, rb = scaled[2 * k], scaled[2 * k + 1]
            assert tuple(x ^ y for x, y in zip(ra, rb)) == fig.center
            assert normalize_tuple(ctx, ra) == model.point(a)
            assert normalize_tuple(ctx, rb) == model.point(b)


def test_scaling_is_identity_over_the_binary_field(model_q2, cov_q2, census_q2):
    fig = _hexagon(cov_q2, census_q2)
    scaled = scale_figure_representatives(model_q2, fig)
    verts = [i for p in fig.pairs for i in p]
    assert scaled == [model_q2.point(i) for i in verts]


def test_opposite_edge_points(model_q4, cov_q4, census_q4):
    model = model_q4
    hexf = _hexagon(cov_q4, census_q4)
    pts = opposite_edge_points(model, hexf, scale_figure_representatives(model, hexf))
    assert len(pts) == 3
    assert all(model.f_scalar(p) == 0 for p in pts)
    cube = _cube(model, cov_q4, census_q4)
    pts = opposite_edge_points(model, cube, scale_figure_representatives(model, cube))
    assert len(pts) == 6
    assert all(model.f_scalar(p) == 0 for p in pts)


def test_face_point(model_q4, cov_q4, census_q4):
    model = model_q4
    cube = _cube(model, cov_q4, census_q4)
    fp = face_point(model, cube, scale_figure_representatives(model, cube))
    assert model.f_scalar(fp) == 0
    hexf = _hexagon(cov_q4, census_q4)
    with pytest.raises(ValueError):
        face_point(model, hexf, scale_figure_representatives(model, hexf))


def test_hexagon_closure_is_a_binary_hyperbolic_quadric(model_q4, cov_q4, census_q4):
    span, rep = closure_report(model_q4, _hexagon(cov_q4, census_q4))
    assert span.ok and span.rank == 4
    assert len(span.points) == 15
    assert (rep.type_tag, rep.point_count, rep.line_count) == ("Qplus32", 9, 6)
    assert rep.gq_ok
    assert rep.degrees == (2,)
    assert rep.contains_center and rep.contains_n0  # lifted figures center at n0
    assert span_f2_radical(model_q4, span) == []


def test_cube_closure_is_a_binary_parabolic_quadric(model_q4, cov_q4, census_q4):
    model = model_q4
    span, rep = closure_report(model, _cube(model, cov_q4, census_q4))
    assert span.ok and span.rank == 5
    assert len(span.points) == 31
    assert (rep.type_tag, rep.point_count, rep.line_count) == ("Q42", 15, 15)
    assert rep.gq_ok and rep.degrees == (3,)
    assert rep.contains_center and rep.contains_n0
    rad = span_f2_radical(model, span)
    assert len(rad) == 1
    n_s = rad[0]
    assert n_s != normalize_tuple(model.ctx, model.nucleus)
    assert model.f_scalar(n_s) != 0  # the sub-nucleus is off the quadric
    assert n_s in span.points and n_s not in span.quadric_points


def test_generic_center_cube_closure(model_q4):
    fig = fundamental_cube(model_q4, CubeParams(u=2, v=3, r=1, s=0))
    span, rep = closure_report(model_q4, fig)
    assert span.ok and span.rank == 5
    assert rep.type_tag == "Q42" and rep.gq_ok
    assert rep.contains_center


@pytest.mark.parametrize("mname,cov_name,cen_name",
                         [("model_q2", "cov_q2", "census_q2"),
                          ("model_q8", "cov_q8", "census_q8_sampled")])
def test_dodecade_closure_is_a_binary_elliptic_quadric(request, mname, cov_name, cen_name):
    model = request.getfixturevalue(mname)
    cube = _cube(model, request.getfixturevalue(cov_name),
                 request.getfixturevalue(cen_name))
    ext = extend_cube(model, cube)
    span, rep = closure_report(model, ext["dodecade"])
    assert span.ok and span.rank == 6
    assert len(span.points) == 63
    assert (rep.type_tag, rep.point_count, rep.line_count) == ("Qminus52", 27, 45)
    assert rep.gq_ok and rep.degrees == (5,)
    assert rep.contains_center and rep.contains_n0
    assert span_f2_radical(model, span) == []
    # the 24 scaled vertices and 3 edge sums sit among the quadric points
    assert {normalize_tuple(model.ctx, model.point(i))
            for i in ext["dodecade"].point_indices()} <= set(span.quadric_points)


def test_decade_closure_is_not_defined(model_q2, cov_q2, census_q2):
    cube = _cube(model_q2, cov_q2, census_q2)
    decade = extend_cube(model_q2, cube)["decades"][0]
    with pytest.raises(ValueError, match="no closure construction for kind 'decade'"):
        closure_report(model_q2, decade)


def test_f2_closure_of_the_standard_basis(model_q4):
    span = f2_closure(model_q4, [_e(i) for i in range(6)])
    assert span.ok and span.rank == 6
    assert len(span.sums) == 63 == len(span.points)
    # binary vectors hitting the quadric form a parabolic subquadric here
    rep = recognize_subgeometry(model_q4, span)
    assert (rep.point_count, rep.line_count, rep.type_tag) == (15, 15, "Q42")


def test_f2_closure_failure_reports(model_q4):
    span = f2_closure(model_q4, [(0, 0, 0, 0, 0, 0)])
    assert not span.ok and span.failure["reason"] == "zero vector in input"

    vecs = [_e(i) for i in range(6)] + [(2, 0, 0, 0, 0, 0)]
    span = f2_closure(model_q4, vecs)
    assert not span.ok and span.failure["reason"] == "rank exceeds 6"

    span = f2_closure(model_q4, [_e(0), (2, 0, 0, 0, 0, 0)])
    assert not span.ok
    assert span.failure["reason"] == "subset sums collide projectively"

    with pytest.raises(ValueError):
        f2_closure(model_q4, [])


def test_recognition_returns_none_tag_off_signature(model_q4):
    span = f2_closure(model_q4, [_e(0), _e(1), _e(2)])
    rep = recognize_subgeometry(model_q4, span)
    assert rep.type_tag == "none"
    assert not rep.gq_ok


def test_subgeometry_count_values():
    assert subgeometry_count_formula(2) == 1
    assert subgeometry_count_formula(8) == 1338494976


def test_count_identities_across_degrees():
    out = count_identities(range(1, 10))
    assert out["all_ok"]
    per = out["per_n"]
    assert sorted(per) == list(range(1, 10))
    assert per[1]["subgeometries"] == 1 and per[1]["centric_dodecades"] == 36
    for n in (2, 4, 6, 8):
        assert per[n]["subgeometries"] is None
    for n in (1, 3, 5, 7, 9):
        got = per[n]
        assert got["subgeometries"] * 36 == got["centric_dodecades"]
    assert per[3]["subgeometries"] == 1338494976
    for n in per:
        assert per[n]["centric_dodecades"] == per[n]["census_times_off_quadric"]
