"""Centric figures: verification, clique lifting, the cube family, extensions."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from figures_oracle import fundamental_cube
from tangency_oracle import tangency_matrix
from quadcover.figures import (
    CubeParams,
    count_quadrangles_exhaustive,
    count_quadrangles_formula,
    cube_labels,
    cube_params,
    enumerate_cube_centers,
    enumerate_cube_centers_bruteforce,
    extend_cube,
    extend_cube_bruteforce,
    extend_hexagon_to_cubes,
    extend_hexagon_to_cubes_bruteforce,
    figure_to_clique,
    formula_n6_bar,
    fundamental_quadrangle,
    hexagon_labels,
    lift_clique_to_figure,
    make_figure,
    verify_centric_figure,
)
from quadcover.gf2n import conic_solution_set
from quadcover.quadric import second_intersection


def _alpha(model, i, j):
    return model.alpha_scalar(model.point(i), model.point(j))


def _some_hexagon(cov, rep):
    return lift_clique_to_figure(cov, [int(v) for v in rep.triangles[0]])


def test_fundamental_quadrangle_is_a_four_cycle(model_q4):
    a1, b1, c1, d1 = fundamental_quadrangle(model_q4)
    cycle = [(a1, b1), (b1, c1), (c1, d1), (d1, a1)]
    for i, j in cycle:
        assert _alpha(model_q4, i, j) == 0
    for i, j in ((a1, c1), (b1, d1)):
        assert _alpha(model_q4, i, j) != 0


@pytest.mark.parametrize("name", ["model_q2", "model_q4"])
def test_fundamental_cube_verifies(request, name):
    model = request.getfixturevalue(name)
    for r, s in sorted(conic_solution_set(model.ctx, model.lam, 0)):
        fig = fundamental_cube(model, CubeParams(u=1, v=1, r=r, s=s))
        rep = verify_centric_figure(model, fig)
        assert rep["pass"]
        assert tuple(map(len, rep["rows"])) == (4, 4)


def test_fundamental_cube_rejects_bad_params(model_q4):
    with pytest.raises(ValueError):
        fundamental_cube(model_q4, CubeParams(u=0, v=1, r=1, s=0))
    with pytest.raises(ValueError):
        fundamental_cube(model_q4, CubeParams(u=1, v=1, r=0, s=0))


def test_cube_labels_and_parameter_read_back(model_q4):
    ctx = model_q4.ctx
    fig = fundamental_cube(model_q4, CubeParams(u=2, v=3, r=1, s=0))
    lab = cube_labels(model_q4, fig)
    assert sorted(lab) == ["a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"]
    face = [lab["a1"], lab["b1"], lab["c1"], lab["d1"]]
    for i, j in zip(face, face[1:] + face[:1]):
        assert _alpha(model_q4, i, j) == 0
    assert _alpha(model_q4, face[0], face[2]) != 0
    assert _alpha(model_q4, face[1], face[3]) != 0
    par, fm = cube_params(model_q4, fig)
    lhs = ctx.mul(par.r, par.r) ^ ctx.mul(par.r, par.s) \
        ^ ctx.mul(model_q4.lam, ctx.mul(par.s, par.s))
    assert lhs == 1
    # the adapted frame carries the cube onto the parametric cube on par
    from quadcover.figures import cube_center
    from quadcover.projgeom import normalize_tuple

    ref = fundamental_cube(model_q4, par)
    moved = {normalize_tuple(ctx, fm.to_frame(model_q4.point(i)))
             for i in fig.point_indices()}
    assert moved == {model_q4.point(i) for i in ref.point_indices()}
    assert normalize_tuple(ctx, fm.to_frame(fig.center)) == cube_center(model_q4, par)


@pytest.mark.parametrize("name,count", [("model_q2", 3), ("model_q4", 45), ("model_q8", 441)])
def test_cube_centers_parametric_equals_bruteforce(request, name, count):
    model = request.getfixturevalue(name)
    q = model.ctx.q
    parametric = enumerate_cube_centers(model)
    assert len(parametric) == count == (q - 1) ** 2 * (q + 1)
    assert enumerate_cube_centers_bruteforce(model) == parametric


def test_second_intersection_generic_and_tangent(model_q4):
    from quadcover.projgeom import enumerate_points, rref

    model = model_q4
    x = model.point(0)
    generic = tangent = None
    for c in enumerate_points(model.ctx, 6).tolist():
        if model.f_scalar(c) == 0:
            continue
        if model.alpha_scalar(c, x) != 0 and generic is None:
            generic = c
        if model.alpha_scalar(c, x) == 0 and tangent is None:
            tangent = c
        if generic and tangent:
            break
    y = second_intersection(model, x, generic)
    assert y is not None and y != x
    assert model.f_scalar(y) == 0
    assert len(rref(model.ctx, [x, generic, y])) == 2
    assert second_intersection(model, x, tangent) is None


def test_lift_project_round_trip(cov_q4, census_q4):
    cov = cov_q4
    nucleus = cov.model.nucleus
    rng = np.random.default_rng(1)
    tris = census_q4.triangles
    for row in tris[rng.choice(len(tris), size=40, replace=False)]:
        fig = lift_clique_to_figure(cov, [int(v) for v in row])
        assert fig.kind == "hexagon"
        assert fig.center == nucleus
        assert figure_to_clique(cov, fig) == tuple(sorted(int(v) for v in row))
    quads = census_q4.cliques4
    for row in quads[rng.choice(len(quads), size=20, replace=False)]:
        fig = lift_clique_to_figure(cov, [int(v) for v in row])
        assert fig.kind == "cube"
        assert verify_centric_figure(cov.model, fig)["pass"]
        assert figure_to_clique(cov, fig) == tuple(sorted(int(v) for v in row))


def test_lift_rejects_bad_cliques(cov_q4):
    geom = cov_q4.geom
    # every 3- and 4-subset of every pencil is a linear clique
    for members in geom.pencil_members.tolist():
        for size in (3, 4):
            for clique in combinations(members, size):
                with pytest.raises(ValueError) as err:
                    lift_clique_to_figure(cov_q4, clique)
                assert str(err.value) == "linear clique: all tangencies share one point"
    a = 0
    b = next(x for x in range(geom.n_ovoids) if x != a and not tangency_matrix(geom)[a, x])
    with pytest.raises(ValueError, match="not tangent"):
        lift_clique_to_figure(cov_q4, [a, b])
    with pytest.raises(ValueError, match="repeated"):
        lift_clique_to_figure(cov_q4, [a, a])


def test_verify_rejects_malformed_figures(model_q2, cov_q2, census_q2):
    model = model_q2
    hexf = _some_hexagon(cov_q2, census_q2)
    assert verify_centric_figure(model, hexf)["pass"]

    # make_figure runs the check and raises with the verifier's reason
    with pytest.raises(ValueError, match="center lies on the quadric"):
        make_figure(model, hexf.pairs, model.point(0))

    wrong_kind = replace(hexf, kind="cube")
    rep = verify_centric_figure(model, wrong_kind)
    assert not rep["pass"] and "kind" in rep["reason"]

    (a1, a2), (b1, b2), (c1, c2) = hexf.pairs
    with pytest.raises(ValueError, match="repeated point"):
        make_figure(model, [(a1, a2), (b1, b2), (c1, a1)], hexf.center)

    with pytest.raises(ValueError, match="concurrent"):
        make_figure(model, [(a1, b2), (b1, a2), (c1, c2)], hexf.center)

    # a different valid center cannot carry this hexagon's pairs
    other = next(c for c in enumerate_cube_centers(model) if c != hexf.center)
    with pytest.raises(ValueError):
        make_figure(model, hexf.pairs, other)

    with pytest.raises(ValueError, match="no figure kind with 2 pairs"):
        make_figure(model, hexf.pairs[:2], hexf.center)


def test_made_figures_carry_the_verified_rows(model_q2, cov_q2, census_q2):
    model = model_q2
    hexf = _some_hexagon(cov_q2, census_q2)
    cubes = extend_hexagon_to_cubes(model, hexf)
    ext = extend_cube(model, cubes[0])
    figs = [hexf, lift_clique_to_figure(cov_q2, [int(v) for v in census_q2.cliques4[0]]),
            fundamental_cube(model, CubeParams(1, 1, 1, 0)), *cubes,
            *ext["decades"], ext["dodecade"]]
    for fig in figs:
        assert fig.rows == verify_centric_figure(model, fig)["rows"]
    # rows are derived, so they take no part in equality
    assert replace(hexf, rows=((), ())) == hexf


def test_hexagon_extension_checks_each_cube_once(monkeypatch, model_q4, cov_q4, census_q4):
    """One run of the check loop per candidate cube, from its new pair on,
    and the rows it derives are those of the full check."""
    import quadcover.figures as figures

    hexf = _some_hexagon(cov_q4, census_q4)
    calls = []
    check = figures._check_pairs

    def counting(model, pairs, center, k, row):
        calls.append((len(pairs), k))
        return check(model, pairs, center, k, row)

    monkeypatch.setattr(figures, "_check_pairs", counting)
    cubes = extend_hexagon_to_cubes(model_q4, hexf)
    monkeypatch.undo()
    q = model_q4.ctx.q
    assert len(cubes) == q + 1
    assert calls == [(4, 3)] * (q + 1)
    for cube in cubes:
        assert cube.rows == verify_centric_figure(model_q4, cube)["rows"]


def test_hexagon_labels_walk_the_six_cycle(model_q4, cov_q4, census_q4):
    hexf = _some_hexagon(cov_q4, census_q4)
    lab = hexagon_labels(model_q4, hexf)
    cyc = [lab[k] for k in ("a1", "b1", "c1", "a2", "b2", "c2")]
    for i, j in zip(cyc, cyc[1:] + cyc[:1]):
        assert _alpha(model_q4, i, j) == 0
    for k in range(3):  # long diagonals are the opposite pairs
        assert _alpha(model_q4, cyc[k], cyc[k + 3]) != 0
    with pytest.raises(ValueError):
        hexagon_labels(model_q4, fundamental_cube(model_q4, CubeParams(1, 1, 1, 0)))


@pytest.mark.parametrize(
    "mname,cov_name,cen_name,n_hex",
    [("model_q2", "cov_q2", "census_q2", 20),
     ("model_q4", "cov_q4", "census_q4", 12),
     ("model_q8", "cov_q8", "census_q8_sampled", 3)])
def test_hexagon_extension_matches_bruteforce(request, mname, cov_name, cen_name, n_hex):
    model = request.getfixturevalue(mname)
    cov = request.getfixturevalue(cov_name)
    rep = request.getfixturevalue(cen_name)
    q = model.ctx.q
    rng = np.random.default_rng(13)
    tris = rep.triangles
    rows = tris if n_hex >= len(tris) else tris[rng.choice(len(tris), n_hex, replace=False)]
    for row in rows:
        hexf = lift_clique_to_figure(cov, [int(v) for v in row])
        cubes = extend_hexagon_to_cubes(model, hexf)
        assert len(cubes) == q + 1
        assert all(c.kind == "cube" for c in cubes)
        assert all(set(hexf.pairs) <= set(c.pairs) for c in cubes)
        brute = extend_hexagon_to_cubes_bruteforce(model, hexf)
        assert {c.key() for c in cubes} == {c.key() for c in brute}


@pytest.mark.parametrize(
    "mname,cov_name,cen_name",
    [("model_q2", "cov_q2", "census_q2"), ("model_q8", "cov_q8", "census_q8_sampled")])
def test_cube_extension_odd_degree(request, mname, cov_name, cen_name):
    model = request.getfixturevalue(mname)
    cov = request.getfixturevalue(cov_name)
    rep = request.getfixturevalue(cen_name)
    hexf = _some_hexagon(cov, rep)
    for cube in extend_hexagon_to_cubes(model, hexf)[:2]:
        ext = extend_cube(model, cube)
        assert len(ext["decades"]) == 2
        assert all(d.kind == "decade" for d in ext["decades"])
        dod = ext["dodecade"]
        assert dod is not None and dod.kind == "dodecade"
        assert verify_centric_figure(model, dod)["pass"]
        # the two decades overlap exactly in the cube and merge to the dodecade
        assert set(ext["decades"][0].pairs) & set(ext["decades"][1].pairs) == set(cube.pairs)
        assert set(dod.pairs) == set(ext["decades"][0].pairs) | set(ext["decades"][1].pairs)
        brute = extend_cube_bruteforce(model, cube)
        assert ({d.key() for d in ext["decades"]} == {d.key() for d in brute["decades"]})
        assert brute["dodecade"].key() == dod.key()


def test_cube_extension_empty_for_even_degree(model_q4, cov_q4, census_q4):
    hexf = _some_hexagon(cov_q4, census_q4)
    cube = extend_hexagon_to_cubes(model_q4, hexf)[0]
    ext = extend_cube(model_q4, cube)
    assert ext["decades"] == [] and ext["dodecade"] is None
    brute = extend_cube_bruteforce(model_q4, cube)
    assert brute["decades"] == [] and brute["dodecade"] is None


def test_q2_dodecade_is_the_whole_affine_part(model_q2, cov_q2, census_q2):
    hexf = _some_hexagon(cov_q2, census_q2)
    cube = extend_hexagon_to_cubes(model_q2, hexf)[0]
    dod = extend_cube(model_q2, cube)["dodecade"]
    assert sorted(dod.point_indices()) == sorted(int(x) for x in model_q2.affine_points)


def test_quadrangle_count_formula_and_exhaustive(model_q2, model_q8):
    assert count_quadrangles_formula(2) == 1080
    assert count_quadrangles_formula(4) == 2828800
    assert count_quadrangles_exhaustive(model_q2) == 1080
    with pytest.raises(ValueError):
        count_quadrangles_exhaustive(model_q8)


def test_dodecade_count_over_all_centers():
    assert formula_n6_bar(2) == 36
    # equals the dodecade count per center times the number of off-quadric
    # centers |PG(5,q) \ Q| = (q^6-1)/(q-1) - (q+1)(q^3+1)
    for q in (2, 8):
        off = (q ** 6 - 1) // (q - 1) - (q + 1) * (q ** 3 + 1)
        n6 = (q ** 4 - 1) * (q ** 2 - 1) * q ** 4 // 720
        assert formula_n6_bar(q) == n6 * off
