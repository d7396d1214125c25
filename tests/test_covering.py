"""The affine quadrangle and its 2-fold covering of the ovoid geometry."""

import numpy as np
import pytest

from quadcover.covering import (
    CoveringMap,
    canonical_covering,
    fiber_distances,
    lift_path,
    quotient_graph_diameter,
    rook_grid_complement_check,
    verify_adjacency_oracle,
    verify_covering,
)


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4"])
def test_affine_quadrangle_structure(request, name):
    affine = request.getfixturevalue(name).affine
    q = affine.model.ctx.q
    assert affine.n_points == q ** 4 - q ** 2
    assert len(affine.lines) == q * (q * q + 1) * (q * q - 1)
    for pts, inf in affine.lines:
        assert len(pts) == q
        assert affine.model.in_section[inf]
        assert not any(affine.model.in_section[p] for p in pts)
    assert all(len(v) == q * q + 1 for v in affine.pencils.values())
    # collinearity degree: q^2+1 punctured lines with q-1 other points each
    assert (affine.adjacency.sum(axis=1) == (q * q + 1) * (q - 1)).all()


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4"])
def test_covering_laws_hold(request, name):
    rep = verify_covering(request.getfixturevalue(name))
    assert rep["fibers_ok"]
    assert rep["line_bijections_ok"]
    assert rep["pencil_bijections_ok"]
    assert rep["quotient_iso_ok"]
    assert "counterexample" not in rep


def test_corrupted_point_fiber_is_detected(cov_q2):
    cov = cov_q2
    fibers = list(cov.point_fiber)
    fibers[0] = (fibers[0][0], fibers[0][0])
    bad = CoveringMap(affine=cov.affine, geom=cov.geom,
                      point_image=cov.point_image.copy(),
                      line_image=cov.line_image.copy(),
                      point_fiber=fibers, line_fiber=list(cov.line_fiber))
    rep = verify_covering(bad)
    assert not rep["fibers_ok"]
    assert rep["counterexample"] == {"kind": "point_fiber", "ovoid": 0}


def test_corrupted_line_image_is_detected(cov_q2):
    cov = cov_q2
    li = cov.line_image.copy()
    wrong = next(r for r in range(len(cov.geom.rosettes)) if r != int(li[0]))
    li[0] = wrong
    bad = CoveringMap(affine=cov.affine, geom=cov.geom,
                      point_image=cov.point_image.copy(), line_image=li,
                      point_fiber=list(cov.point_fiber),
                      line_fiber=list(cov.line_fiber))
    rep = verify_covering(bad)
    assert not rep["line_bijections_ok"]
    assert rep["counterexample"]["kind"] in ("line_restriction", "line_fiber")


def test_covering_rejects_foreign_geometry(model_q2, geom_q4):
    with pytest.raises(ValueError):
        canonical_covering(model_q2, geom_q4)


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4", "cov_q8"])
def test_tangency_matches_cross_fiber_collinearity(request, name):
    v = {"cov_q2": 6, "cov_q4": 120, "cov_q8": 2016}[name]
    rep = verify_adjacency_oracle(request.getfixturevalue(name))
    assert rep == {"pass": True, "pairs_checked": v * (v - 1) // 2}


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4"])
def test_fiber_points_sit_at_distance_three(request, name):
    cov = request.getfixturevalue(name)
    rep = fiber_distances(cov)
    assert rep["pass"]
    assert rep["fibers_at_distance_3"]
    assert rep["diameter_is_3"]
    assert rep["n_points"] == cov.affine.n_points


def test_quotient_graph_diameter_values(geom_q2, geom_q4):
    assert quotient_graph_diameter(geom_q2) == 1
    assert quotient_graph_diameter(geom_q4) == 2


def test_rook_grid_complement_at_q2(cov_q2, cov_q4):
    rep = rook_grid_complement_check(cov_q2)
    assert rep["pass"]
    row0, row1 = rep["rows"]
    assert len(row0) == len(row1) == 6
    assert not set(row0) & set(row1)
    assert len(rep["matching"]) == 6
    with pytest.raises(ValueError):
        rook_grid_complement_check(cov_q4)


def _is_linear(geom, a, b, c):
    tp = geom.tangency_point
    return tp[a, b] == tp[a, c] == tp[b, c]


def test_lift_of_an_edge_crosses_to_the_right_fiber(cov_q4):
    cov = cov_q4
    geom = cov.geom
    a, b = map(int, np.argwhere(geom.adjacency)[0])
    for start in cov.point_fiber[a]:
        lifted = lift_path(cov, [a, b], start)
        assert lifted[0] == start
        assert lifted[1] in cov.point_fiber[b]
        aidx = cov.affine.model.affine_index
        assert cov.affine.adjacency[aidx[start], aidx[lifted[1]]]


def test_nonlinear_triangle_lifts_to_a_six_cycle(cov_q2):
    # every triangle at q=2 avoids the pencils, so the closed walk downstairs
    # comes back to the other fiber point and only closes after two rounds
    cov = cov_q2
    geom = cov.geom
    tris = [(a, b, c)
            for a in range(geom.n_ovoids)
            for b in range(a + 1, geom.n_ovoids) if geom.adjacency[a, b]
            for c in range(b + 1, geom.n_ovoids)
            if geom.adjacency[a, c] and geom.adjacency[b, c]]
    assert tris and not any(_is_linear(geom, *t) for t in tris)
    a, b, c = tris[0]
    start = cov.point_fiber[a][0]
    once = lift_path(cov, [a, b, c, a], start)
    assert once[-1] == cov.point_fiber[a][1]
    twice = lift_path(cov, [a, b, c, a, b, c, a], start)
    assert twice[-1] == start


def test_linear_triangle_lifts_closed(cov_q4):
    cov = cov_q4
    geom = cov.geom
    r = geom.rosettes[0]
    a, b, c = r.members[:3]
    assert _is_linear(geom, a, b, c)
    start = cov.point_fiber[a][0]
    lifted = lift_path(cov, [a, b, c, a], start)
    assert lifted[-1] == start
    # and the lift stays inside one punctured line over the pencil
    aidx = cov.affine.model.affine_index
    line_pts = [set(pts) for pts, _ in (cov.affine.lines[l] for l in cov.line_fiber[r.id])]
    assert any(set(lifted) <= pts for pts in line_pts)


def test_lift_path_rejects_bad_walks(cov_q4):
    cov = cov_q4
    geom = cov.geom
    a, b = map(int, np.argwhere(geom.adjacency)[0])
    other = next(x for x in range(geom.n_ovoids) if x != a)
    with pytest.raises(ValueError):
        lift_path(cov, [a, b], start=cov.point_fiber[other][0])
    c = next(x for x in range(geom.n_ovoids)
             if x not in (a,) and not geom.adjacency[a, x])
    with pytest.raises(ValueError):
        lift_path(cov, [a, c], start=cov.point_fiber[a][0])
