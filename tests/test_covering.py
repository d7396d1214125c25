"""The affine quadrangle and its 2-fold covering of the ovoid geometry."""

import copy
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from covering_oracle import (
    lift_path,
    line_row_fiber_distances,
    loop_verify_covering,
    product_fiber_distances,
    quotient_graph_diameter,
    rook_grid_complement_check,
)
from memory_peak import traced_peak
from ovoid_oracle import tangency_points
from quadric_oracle import TableModel, alpha_table
from tangency_oracle import tangency_matrix
from quadcover import covering
from quadcover.covering import (
    canonical_covering,
    fiber_distances,
    verify_adjacency_oracle,
    verify_covering,
)
from quadcover.quadric import QuadricModel


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4"])
def test_affine_quadrangle_structure(request, name):
    cov = request.getfixturevalue(name)
    model = cov.model
    q = model.ctx.q
    aff = np.array(model.affine_points)
    assert len(aff) == q ** 4 - q ** 2
    n_lines = q * (q * q + 1) * (q * q - 1)
    assert cov.lines.shape == (n_lines, q) and cov.infinity.shape == (n_lines,)
    assert model.in_section[cov.infinity].all()
    assert not model.in_section[cov.lines].any()
    assert (np.diff(cov.lines, axis=1) > 0).all()
    # each punctured line is a quadric line less its infinity point
    whole = {tuple(ln) for ln in model.lines.tolist()}
    assert all(tuple(sorted([*pts, inf])) in whole
               for pts, inf in zip(cov.lines.tolist(), cov.infinity.tolist()))
    assert (np.bincount(cov.lines.ravel(), minlength=model.n_points)[aff]
            == q * q + 1).all()
    # collinearity degree: q^2+1 punctured lines with q-1 other points each
    # (alpha is 0 on the diagonal, so each row also counts its own point)
    collinear = alpha_table(model)[np.ix_(aff, aff)] == 0
    assert (collinear.sum(axis=1) - 1 == (q * q + 1) * (q - 1)).all()
    assert cov.point_fiber.shape == (cov.geom.n_ovoids, 2)
    assert np.array_equal(cov.point_fiber, cov.geom.ovoid_orbit)


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4"])
def test_covering_laws_hold(request, name):
    rep = verify_covering(request.getfixturevalue(name))
    assert rep["fibers_ok"]
    assert rep["line_bijections_ok"]
    assert rep["pencil_bijections_ok"]
    assert rep["quotient_iso_ok"]
    assert "counterexample" not in rep
    assert rep == loop_verify_covering(request.getfixturevalue(name))


def _point_fiber(cov):
    # ovoid 0's fiber repeats its first point
    fib = cov.point_fiber.copy()
    fib[0, 1] = fib[0, 0]
    return replace(cov, point_fiber=fib)


def _fiber_at_infinity(cov):
    # ovoid 0's fiber is one section point, which the elation fixes, given
    # ovoid 0 as its image
    s = cov.model.section_points[0]
    image, fib = cov.point_image.copy(), cov.point_fiber.copy()
    image[s], fib[0] = 0, s
    return replace(cov, point_image=image, point_fiber=fib)


def _split_fiber(cov):
    # the larger point over ovoid 0 is sent to ovoid 1
    image = cov.point_image.copy()
    image[cov.point_fiber[0, 1]] = 1
    return replace(cov, point_image=image)


def _crossed_fibers(cov):
    # ovoids 0 and 1 swap their larger points, images and all
    image, fib = cov.point_image.copy(), cov.point_fiber.copy()
    fib[[0, 1], 1] = fib[[1, 0], 1]
    image[fib[:2, 1]] = [0, 1]
    return replace(cov, point_image=image, point_fiber=fib)


def _point_map_not_surjective(cov):
    # the last ovoid loses its fiber and its two points their image
    image = cov.point_image.copy()
    image[cov.point_fiber[-1]] = -1
    return replace(cov, point_image=image, point_fiber=cov.point_fiber[:-1])


def _dropped_fiber(cov):
    # the last ovoid loses its fiber row but keeps its points' images, so
    # every fiber row is sound and the point map is still onto
    return replace(cov, point_fiber=cov.point_fiber[:-1])


def _line_restriction(cov):
    # line 0 is sent to a pencil it does not cover
    li = cov.line_image.copy()
    li[0] = next(r for r in range(len(cov.geom.pencil_base)) if r != int(li[0]))
    return replace(cov, line_image=li)


def _negative_line_image(cov):
    # line 0's pencil id is given as the negative index of the same pencil
    li = cov.line_image.copy()
    li[0] -= len(cov.geom.pencil_base)
    return replace(cov, line_image=li)


def _line_at_infinity(cov):
    # line 0 loses the right point at infinity, so its pencil has the wrong base
    inf = cov.infinity.copy()
    inf[0] = next(p for p in cov.model.section_points if p != inf[0])
    return replace(cov, infinity=inf)


def _line_fiber(cov):
    # line 0 is overwritten by a line over another pencil, which then has
    # three lines over it while line 0's pencil has one
    other = int(np.flatnonzero(cov.line_image != cov.line_image[0])[0])
    lines, inf, li = cov.lines.copy(), cov.infinity.copy(), cov.line_image.copy()
    lines[0], inf[0], li[0] = lines[other], inf[other], li[other]
    return replace(cov, lines=lines, infinity=inf, line_image=li)


def _pencil_restriction(cov):
    # ovoid 0's smaller point x gives up its line over its last pencil r to
    # its partner y: the images stay the same, but y is now on two lines
    # over r and x on q^2 lines, the first keys of x to differ being its last
    x, y = cov.point_fiber[0]
    r = max(cov.geom.incidence[0])
    line = next(l for l in np.flatnonzero(cov.line_image == r) if x in cov.lines[l])
    lines = cov.lines.copy()
    lines[line][lines[line] == x] = y
    lines[line].sort()
    return replace(cov, lines=lines)


def _with_elation(cov, larger_to):
    # the elation keeps each orbit's smaller point and sends its larger
    # point to larger_to(point): only the fiber law's larger-point direction
    # sees it
    model = copy.copy(cov.model)
    model.elation_perm = cov.model.elation_perm.copy()
    big = cov.point_fiber[:, 1]
    model.elation_perm[big] = larger_to(big)
    return replace(cov, model=model)


def _quotient_line(cov):
    # every larger orbit point falls into the class of point 0: the lines
    # made only of larger orbit points would share the class {0} but cover
    # different pencils
    return _with_elation(cov, np.zeros_like)


def _quotient_line_sets(cov):
    # the larger orbit points are fixed: the two lines over each pencil would
    # fall into different classes, twice too many quotient lines
    return _with_elation(cov, lambda big: big)


def _swapped_partners(cov):
    # ovoids 0 and 1 swap the elation images of their larger points
    small = cov.point_fiber[:, 0]
    return _with_elation(cov, lambda big: np.r_[small[1], small[0], small[2:]])


CORRUPTIONS = [
    ("point_fiber", _point_fiber),
    ("point_fiber", _fiber_at_infinity),
    ("point_fiber", _crossed_fibers),
    ("point_fiber", _split_fiber),
    ("point_map_not_surjective", _point_map_not_surjective),
    ("point_fiber_count", _dropped_fiber),
    ("line_restriction", _line_restriction),
    ("line_restriction", _negative_line_image),
    ("line_restriction", _line_at_infinity),
    ("line_fiber", _line_fiber),
    ("pencil_restriction", _pencil_restriction),
    # the fiber law checks the elation at both orbit points, so it catches
    # these before the quotient laws can
    ("point_fiber", _quotient_line),
    ("point_fiber", _quotient_line_sets),
    ("point_fiber", _swapped_partners),
]


@pytest.mark.parametrize("kind,corrupt", CORRUPTIONS,
                         ids=[f.__name__.strip("_") for _, f in CORRUPTIONS])
@pytest.mark.parametrize("name", ["cov_q2", "cov_q4"])
def test_corrupted_covering_reports_its_counterexample(request, name, kind, corrupt):
    bad = corrupt(request.getfixturevalue(name))
    rep = verify_covering(bad)
    assert rep["counterexample"]["kind"] == kind
    assert json.loads(json.dumps(rep)) == rep
    assert sum(not v for v in rep.values() if isinstance(v, bool)) == 1
    assert rep == loop_verify_covering(bad)


def test_orbit_classes_are_compared_as_sets(cov_q4):
    # two disjoint lines over different pencils, all of whose points are
    # larger orbit points, with the classes [0, 0, 1, 2] and [0, 1, 1, 2]:
    # one set, two multisets.  The fiber law now stops such an elation
    # before the quotient law, so the class rows are compared directly.
    cov = cov_q4
    larger = np.zeros(cov.model.n_points, dtype=bool)
    larger[cov.point_fiber[:, 1]] = True
    l1, l2 = (int(l) for l in np.flatnonzero(larger[cov.lines].all(axis=1))[:2])
    assert not set(cov.lines[l1]) & set(cov.lines[l2])
    assert cov.line_image[l1] != cov.line_image[l2]
    model = copy.copy(cov.model)
    model.elation_perm = cov.model.elation_perm.copy()
    model.elation_perm[cov.lines[l1]] = [0, 0, 1, 2]
    model.elation_perm[cov.lines[l2]] = [0, 1, 1, 2]
    bad = replace(cov, model=model)
    rep = verify_covering(bad)
    assert rep["counterexample"]["kind"] == "point_fiber"
    assert rep == loop_verify_covering(bad)
    classes = covering._as_sets(np.array([[0, 0, 1, 2], [0, 1, 1, 2], [0, 1, 2, 3]]))
    assert (classes[0] == classes[1]).all() and (classes[0] != classes[2]).any()


def test_corrupted_point_fiber_is_detected(cov_q2):
    rep = verify_covering(_point_fiber(cov_q2))
    assert not rep["fibers_ok"]
    assert rep["counterexample"] == {"kind": "point_fiber", "ovoid": 0}


def test_corrupted_line_image_is_detected(cov_q2):
    bad = _line_restriction(cov_q2)
    rep = verify_covering(bad)
    assert not rep["line_bijections_ok"]
    assert rep["counterexample"] == {"kind": "line_restriction", "line": 0,
                                     "infinity": int(bad.infinity[0]),
                                     "rosette": int(bad.line_image[0])}


def test_covering_rejects_foreign_geometry(model_q2, geom_q4):
    with pytest.raises(ValueError):
        canonical_covering(model_q2, geom_q4)


@pytest.mark.parametrize("row", [0, -1])
def test_covering_rejects_orbit_points_with_different_perps(model_q4, geom_q4, row):
    # one orbit's larger point swapped for another orbit's: its perp
    # section is another ovoid
    gx = copy.copy(geom_q4)
    gx.ovoid_orbit = geom_q4.ovoid_orbit.copy()
    gx.ovoid_orbit[row, 1] = geom_q4.ovoid_orbit[row + 1, 1]
    with pytest.raises(AssertionError, match="different perp sections"):
        canonical_covering(model_q4, gx)


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4", "cov_q8"])
def test_tangency_matches_cross_fiber_collinearity(request, name):
    v = {"cov_q2": 6, "cov_q4": 120, "cov_q8": 2016}[name]
    rep = verify_adjacency_oracle(request.getfixturevalue(name))
    assert rep == {"pass": True, "pairs_checked": v * (v - 1) // 2}


def _with_table(cov, edit):
    # a model copy whose alpha reads a copy of the oracle table, edited in
    # place by edit(table)
    model = TableModel(cov.model, alpha_table(cov.model).copy())
    edit(model.table)
    return replace(cov, model=model)


def _edited_pair(corrupt, cov):
    """The ovoid pair i < j that corrupt edits: the first non-tangent pair,
    or the first tangent one, in row order from row n / 2 on, so that it
    lies past the first block of a blocked scan."""
    adj = tangency_matrix(cov.geom)
    n = len(adj)
    pairs = adj if corrupt is _separated_tangent else ~adj
    i, j = np.argwhere(np.triu(pairs, 1)[n // 2:])[0]
    return [int(i) + n // 2, int(j)]


def _oracle_failure(corrupt, cov):
    """The report of the adjacency oracle on cov corrupted by corrupt: the
    pair it edits, which was tangent exactly when its fibres are no longer
    cross-collinear."""
    tangent = corrupt is _separated_tangent
    return {"pass": False, "pair": _edited_pair(corrupt, cov), "tangent": tangent,
            "cross_collinear": not tangent}


def _made_collinear(cov, a, b):
    # point a of the earlier and point b of the later fibre of two
    # non-tangent ovoids made collinear
    i, j = _edited_pair(_collinear_non_tangent, cov)
    x, y = cov.point_fiber[i, a], cov.point_fiber[j, b]
    assert alpha_table(cov.model)[x, y] != 0

    def edit(table):
        table[x, y] = table[y, x] = 0
    return _with_table(cov, edit)


def _collinear_non_tangent(cov):
    # one cross-fibre pair of two non-tangent ovoids made collinear
    return _made_collinear(cov, 0, 1)


def _collinear_second_to_first(cov):
    # the same from the earlier ovoid's second point, so that only the
    # second half of its fibre rows sees it
    return _made_collinear(cov, 1, 0)


def _separated_tangent(cov):
    # every cross-fibre collinearity of one tangent pair cleared
    i, j = _edited_pair(_separated_tangent, cov)
    block = np.ix_(cov.point_fiber[i], cov.point_fiber[j])
    assert (alpha_table(cov.model)[block] == 0).any()

    def edit(table):
        table[block] = np.where(table[block] == 0, 1, table[block])
        table.T[block] = table[block]
    return _with_table(cov, edit)


@pytest.mark.parametrize("corrupt", [_collinear_non_tangent, _collinear_second_to_first,
                                     _separated_tangent],
                         ids=lambda f: f.__name__.strip("_"))
def test_adjacency_oracle_reports_a_corrupted_gram(cov_q4, corrupt):
    bad = corrupt(cov_q4)
    changed = bad.model.table != alpha_table(cov_q4.model)
    assert changed.any() and (changed == changed.T).all()
    rep = verify_adjacency_oracle(bad)
    assert rep == _oracle_failure(corrupt, cov_q4)


@pytest.mark.parametrize("name,rows,corrupt", [
    ("cov_q2", 4, None), ("cov_q4", 7, None),
    ("cov_q4", 7, _collinear_non_tangent), ("cov_q4", 7, _separated_tangent),
    ("cov_q4", 1, _collinear_non_tangent), ("cov_q4", 1, _separated_tangent)],
    ids=["q2", "q4", "q4_collinear_non_tangent", "q4_separated_tangent",
         "q4_collinear_non_tangent_by_row", "q4_separated_tangent_by_row"])
def test_adjacency_oracle_in_ragged_blocks(monkeypatch, request, name, rows, corrupt):
    # blocks of a few ovoid rows, the last one short: 6 = 4 + 2 ovoids at
    # q = 2 and 120 = 17 * 7 + 1 at q = 4; or one row a block.  A block of
    # b ovoids takes 2b packed fibre rows of the tangency's width.  The
    # edited pair's row, 60 or more, lies in block 8 or later
    cov = request.getfixturevalue(name)
    n = cov.geom.n_ovoids
    want = {"pass": True, "pairs_checked": n * (n - 1) // 2}
    if corrupt is not None:
        want = _oracle_failure(corrupt, cov)
        cov = corrupt(cov)
    monkeypatch.setattr(covering, "_CHUNK", rows * 2 * cov.geom.tangency.shape[1])
    rep = verify_adjacency_oracle(cov)
    assert rep == want


def test_adjacency_oracle_peak_stays_below_8_mib(cov_q8):
    # one block of fiber rows: at most _CHUNK words of packed rows a call
    _, peak = traced_peak(lambda: verify_adjacency_oracle(cov_q8))
    assert peak < 8 * 2 ** 20


def _unique_first_of_class(rows):
    """`covering._first_of_class` by ``np.unique(rows, axis=0)``."""
    _, first, cls = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first[cls.ravel()], len(first)


GROUPING_CASES = ([(name, None) for name in ("cov_q2", "cov_q4", "cov_q8")]
                  + [(name, f) for name in ("cov_q2", "cov_q4") for _, f in CORRUPTIONS])


@pytest.mark.parametrize("name,corrupt", GROUPING_CASES,
                         ids=[f"{name}-{f.__name__.strip('_') if f else 'clean'}"
                              for name, f in GROUPING_CASES])
def test_orbit_classes_group_as_np_unique_does(request, name, corrupt):
    cov = request.getfixturevalue(name)
    if corrupt is not None:
        cov = corrupt(cov)
    perm = cov.model.elation_perm
    rows = covering._as_sets(np.minimum(cov.lines, perm[cov.lines]))
    first, n_classes = covering._first_of_class(rows)
    want, n_want = _unique_first_of_class(rows)
    assert n_classes == n_want
    np.testing.assert_array_equal(first, want)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_first_of_class_on_random_rows(seed):
    # few distinct values, so that most rows repeat, and rows equal up to
    # their last column
    rng = np.random.default_rng(seed)
    rows = rng.integers(-1, 3, (500, 4))
    rows[::7, -1] = 5
    for r in (rows, rows[:1], rows[:0]):
        first, n_classes = covering._first_of_class(r)
        want, n_want = _unique_first_of_class(r)
        assert n_classes == n_want
        np.testing.assert_array_equal(first, want)


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4", "cov_q8"])
def test_fiber_points_sit_at_distance_three(request, name):
    cov = request.getfixturevalue(name)
    rep = fiber_distances(cov)
    assert rep["pass"]
    assert rep["fibers_at_distance_3"]
    assert rep["diameter_is_3"]
    assert rep["n_points"] == len(cov.model.affine_points)
    # the far pairs are the fibers, in both orders: q^4 - q^2 of them
    assert rep["far_pairs_are_fibers"]
    assert rep["far_pairs"] == {"cov_q2": 12, "cov_q4": 240, "cov_q8": 4032}[name]


def _rolled_partners(cov):
    # each ovoid's larger point moves to the next ovoid: a non-partner,
    # hence at distance at most 2
    fib = cov.point_fiber.copy()
    fib[:, 1] = np.roll(fib[:, 1], 1)
    return replace(cov, point_fiber=fib)


def _fiber_dropped(cov):
    # the last ovoid's fiber left out: its points are still a far pair,
    # and every remaining fiber keeps its distance
    return replace(cov, point_fiber=cov.point_fiber[:-1])


@pytest.mark.parametrize("corrupt", [None, _rolled_partners, _point_fiber, _fiber_dropped],
                         ids=["lawful", "rolled_partners", "self_partnered", "fiber_dropped"])
@pytest.mark.parametrize("name", ["cov_q2", "cov_q4", "cov_q8"])
def test_fiber_distances_match_the_product_oracle(request, name, corrupt):
    cov = request.getfixturevalue(name)
    if corrupt is not None:
        cov = corrupt(cov)
    rep = fiber_distances(cov)
    assert rep == product_fiber_distances(cov)
    assert rep == line_row_fiber_distances(cov)
    assert rep["fibers_at_distance_3"] == (corrupt in (None, _fiber_dropped))
    assert rep["diameter_is_3"]


@pytest.mark.parametrize("corrupt", [_fiber_dropped, _rolled_partners],
                         ids=["fiber_dropped", "rolled_partners"])
@pytest.mark.parametrize("name", ["cov_q2", "cov_q4", "cov_q8"])
def test_far_pairs_off_the_fibers_fail_the_law(request, name, corrupt):
    cov = request.getfixturevalue(name)
    bad = corrupt(cov)
    rep = fiber_distances(bad)
    assert rep["far_pairs"] == len(cov.model.affine_points)
    assert not rep["far_pairs_are_fibers"] and not rep["pass"]
    assert rep["fibers_at_distance_3"] == (corrupt is _fiber_dropped)
    assert rep["diameter_is_3"]
    assert rep == line_row_fiber_distances(bad)
    if name != "cov_q8":
        assert rep == product_fiber_distances(bad)


def _partner_off_affine(cov):
    # the first larger fiber point that follows a section point is replaced
    # by that section point, which a search over the sorted affine points
    # would read as the point it replaced
    fib = cov.point_fiber.copy()
    i = int(np.flatnonzero(cov.model.in_section[fib[:, 1] - 1])[0])
    fib[i, 1] -= 1
    return replace(cov, point_fiber=fib)


def _extra_fiber_off_affine(cov):
    # every lawful fiber kept, and one more pairing ovoid 0's smaller point
    # with a section point: the far pairs are still fibers, but this fiber
    # is no far pair
    extra = [cov.point_fiber[0, 0], cov.model.section_points[0]]
    return replace(cov, point_fiber=np.vstack([cov.point_fiber, extra]))


@pytest.mark.parametrize("corrupt", [_partner_off_affine, _fiber_at_infinity,
                                     _extra_fiber_off_affine],
                         ids=["partner_off_affine", "fiber_at_infinity", "extra_fiber"])
@pytest.mark.parametrize("name", ["cov_q2", "cov_q4", "cov_q8"])
def test_a_fiber_off_the_affine_part_fails_the_fiber_law(request, name, corrupt):
    # the graph is unchanged, so its far pairs are still the lawful fibers,
    # and one fiber is not among them
    cov = request.getfixturevalue(name)
    bad = corrupt(cov)
    rep = fiber_distances(bad)
    assert not rep["fibers_at_distance_3"] and not rep["pass"]
    assert not rep["far_pairs_are_fibers"]
    assert rep["diameter_is_3"]
    assert rep["far_pairs"] == len(cov.model.affine_points)
    assert rep == line_row_fiber_distances(bad)
    if name != "cov_q8":
        assert rep == product_fiber_distances(bad)


def _graph_covering(adj, partners):
    """A stand-in covering whose affine collinearity graph is adj: the
    affine points are every other point of a form table with three extra
    points after them, the lines are the edges, as 2-point lines, and the
    fibers are the given vertex pairs."""
    n = len(adj)
    aff = np.arange(0, 2 * n, 2)
    table = np.ones((2 * n + 3,) * 2, dtype=np.uint8)
    table[np.ix_(aff, aff)] = ~adj
    bare = QuadricModel(ctx=None, lam=0)    # only coords and the affine points
    bare.affine_points = aff
    bare.coords = np.zeros((len(table), 6), dtype=np.uint8)
    model = TableModel(bare, table)
    return SimpleNamespace(model=model, lines=aff[np.argwhere(np.triu(adj, 1))],
                           point_fiber=aff[np.array(partners)])


def _call_site_blocks(cov):
    """The (rows, cols) index arrays of the form blocks that the package
    reads: affine points, fibre order, orbit rows x section, ovoid
    representatives x section, section x section, the line search's pivot
    classes, a row block of the packed perp rows against every point, every
    point against a figure's points (frames and brute-force scans) and a
    figure's pairs (representative scaling)."""
    model = cov.model
    aff, sect, fib = model.affine_points, model.section_points, cov.point_fiber
    pts = np.arange(model.n_points)
    yield aff, aff
    yield pts[:1024], pts
    yield pts, fib[:4].ravel()
    yield fib[:4, 0], fib[:4, 1]
    yield fib.ravel(), fib.ravel()
    yield fib[:, 0], sect
    yield fib[:, 1], sect
    yield aff[model.elation_perm[aff] > aff], sect
    yield sect, sect
    piv = (model.coords != 0).argmax(axis=1)
    for p in range(1, 6):
        yield (np.flatnonzero(piv == p),
               np.flatnonzero((piv < p) & (model.coords[:, p] == 0)))


def _odd_blocks(n, rng):
    """Unsorted, repeated and empty index arrays over n points, and a list."""
    yield rng.permutation(n), rng.permutation(n)[: n // 3]
    yield rng.integers(0, n, 50), rng.integers(0, n, 7)
    yield np.array([], dtype=np.intp), rng.integers(0, n, 5)
    yield rng.integers(0, n, 5), np.array([], dtype=np.intp)
    yield [3, 1, 3, 0], [0, 0, 2]


def _assert_collinear_matches_ix(model, blocks):
    # alpha and collinear against the oracle table's two-index gather
    table = alpha_table(model)
    for rows, cols in blocks:
        for dtype in (np.int32, np.intp):
            r, c = np.asarray(rows, dtype=dtype), np.asarray(cols, dtype=dtype)
            want = table[np.ix_(r, c)]
            got = model.alpha(r, c)
            assert got.dtype == np.uint8 and np.array_equal(got, want)
            got = model.collinear(r, c)
            assert got.dtype == bool and np.array_equal(got, want == 0)
        want = table[np.ix_(rows, cols)]
        assert np.array_equal(model.alpha(rows, cols), want)
        assert np.array_equal(model.collinear(rows, cols), want == 0)


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4", "cov_q8"])
def test_collinear_matches_the_ix_gather(request, name):
    cov = request.getfixturevalue(name)
    model = cov.model
    rng = np.random.default_rng(17)
    _assert_collinear_matches_ix(model, _call_site_blocks(cov))
    _assert_collinear_matches_ix(model, _odd_blocks(model.n_points, rng))
    # alpha(x, x) = 0: a square block is True on its diagonal
    assert model.collinear(model.affine_points, model.affine_points).diagonal().all()


def _assert_blocks_match_ix(model, blocks):
    # alpha_blocks, at steps 1, 7, len - 1, len and len + 5, against the
    # oracle table's two-index gather: the rows in order, step rows a block
    table = alpha_table(model)
    for rows, cols in blocks:
        want = table[np.ix_(rows, cols)]
        n = len(rows)
        forms = [(np.asarray(rows, dtype=t), np.asarray(cols, dtype=t))
                 for t in (np.int32, np.intp)]
        forms.append((np.asarray(rows).tolist(), np.asarray(cols).tolist()))
        for step in sorted({1, 7, max(1, n - 1), max(1, n), n + 5}):
            for r, c in forms:
                got = list(model.alpha_blocks(r, c, step))
                assert [len(b) for b in got] == [min(step, n - lo) for lo in range(0, n, step)]
                assert all(b.dtype == np.uint8 for b in got)
                assert np.array_equal(np.concatenate(got) if got else want[:0], want)


@pytest.mark.parametrize("name", ["cov_q2", "cov_q4", "cov_q8"])
def test_alpha_blocks_match_the_ix_gather(request, name):
    cov = request.getfixturevalue(name)
    rng = np.random.default_rng(19)
    _assert_blocks_match_ix(cov.model, _call_site_blocks(cov))
    _assert_blocks_match_ix(cov.model, _odd_blocks(cov.model.n_points, rng))


def test_collinear_matches_the_ix_gather_on_a_synthetic_gram():
    rng = np.random.default_rng(17)
    adj = rng.random((40, 40)) < 0.3
    adj = np.triu(adj, 1) | np.triu(adj, 1).T
    model = _graph_covering(adj, [(0, 1)]).model
    aff = model.affine_points
    _assert_collinear_matches_ix(model, [(aff, aff), (aff[::-1], np.arange(len(model.table)))])
    _assert_collinear_matches_ix(model, _odd_blocks(len(model.table), rng))
    _assert_blocks_match_ix(model, _odd_blocks(len(model.table), rng))
    assert np.array_equal(model.collinear(aff, aff), adj)
    # an asymmetric table tells rows from columns
    model.table = rng.integers(0, 3, (30, 30)).astype(np.uint8)
    _assert_collinear_matches_ix(model, _odd_blocks(30, rng))


def _path(n):
    adj = np.zeros((n, n), dtype=bool)
    i = np.arange(n - 1)
    adj[i, i + 1] = adj[i + 1, i] = True
    return adj


def _cycle(n):
    adj = _path(n)
    adj[0, n - 1] = adj[n - 1, 0] = True
    return adj


def _layers(sizes, seed):
    # consecutive layers completely joined and sparse random edges inside
    # each layer: irregular degrees, and diameter len(sizes) - 1
    rng = np.random.default_rng(seed)
    layer = np.repeat(np.arange(len(sizes)), sizes)
    adj = np.abs(layer[:, None] - layer[None, :]) == 1
    inside = np.triu((layer[:, None] == layer[None, :]) & (rng.random(adj.shape) < 0.2), 1)
    adj |= inside | inside.T
    return adj


def _with_isolated(adj):
    out = np.zeros((len(adj) + 1,) * 2, dtype=bool)
    out[:-1, :-1] = adj
    return out


def _random_graph(n, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < rng.random((n, 1)) * 0.1, 1)
    return upper | upper.T


STUB_GRAPHS = [
    # name, adjacency, fibers, expected (fibers_at_distance_3, diameter_is_3)
    ("complete_5", ~np.eye(5, dtype=bool), [(0, 1)], (False, False)),
    ("edgeless_3", np.zeros((3, 3), dtype=bool), [(0, 1)], (False, False)),
    ("path_5", _path(5), [(0, 3), (1, 4)], (True, False)),
    ("cycle_6", _cycle(6), [(0, 3), (1, 4), (2, 5)], (True, True)),
    ("cycle_6_and_isolated", _with_isolated(_cycle(6)), [(0, 3)], (True, False)),
    ("isolated_partner", _with_isolated(_cycle(6)), [(0, 6)], (False, False)),
    ("cycle_6_near_partners", _cycle(6), [(0, 2), (1, 4)], (False, True)),
    # every far pair is a fiber, but one fiber is not a far pair
    ("cycle_6_extra_partners", _cycle(6), [(0, 3), (1, 4), (2, 5), (0, 1)], (False, True)),
    # adjacent partners with no common neighbour: joined by a 3-walk
    ("cycle_6_adjacent_partners", _cycle(6), [(0, 1)], (False, True)),
    ("layers_70", _layers([10, 30, 25, 5], 1), [(0, 69), (5, 65)], (True, True)),
    ("layers_130", _layers([40, 30, 20, 40], 2), [(0, 129), (39, 90)], (True, True)),
    ("layers_128", _layers([32, 32, 32, 32], 3), [(0, 127)], (True, True)),
    ("layers_64_near", _layers([20, 12, 12, 20], 4), [(0, 25)], (False, True)),
    ("layers_200_long", _layers([50, 40, 30, 40, 40], 5), [(0, 199)], (False, False)),
    ("random_150", _random_graph(150, 6), [(0, 1), (2, 149)], None),
]


@pytest.mark.parametrize("adj,partners,expected", [g[1:] for g in STUB_GRAPHS],
                         ids=[g[0] for g in STUB_GRAPHS])
def test_fiber_distances_on_small_graphs(adj, partners, expected):
    cov = _graph_covering(adj, partners)
    rep = fiber_distances(cov)
    assert rep == product_fiber_distances(cov)
    assert rep == line_row_fiber_distances(cov)
    assert rep["n_points"] == len(adj)
    if expected is not None:
        assert (rep["fibers_at_distance_3"], rep["diameter_is_3"]) == expected


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
    tp = tangency_points(geom)
    return tp[a, b] == tp[a, c] == tp[b, c]


def test_lift_of_an_edge_crosses_to_the_right_fiber(cov_q4):
    cov = cov_q4
    geom = cov.geom
    a, b = map(int, np.argwhere(tangency_matrix(geom))[0])
    for start in cov.point_fiber[a]:
        lifted = lift_path(cov, [a, b], start)
        assert lifted[0] == start
        assert lifted[1] in cov.point_fiber[b]
        assert alpha_table(cov.model)[start, lifted[1]] == 0


def test_nonlinear_triangle_lifts_to_a_six_cycle(cov_q2):
    # every triangle at q=2 avoids the pencils, so the closed walk downstairs
    # comes back to the other fiber point and only closes after two rounds
    cov = cov_q2
    geom = cov.geom
    A = tangency_matrix(geom)
    tris = [(a, b, c)
            for a in range(geom.n_ovoids)
            for b in range(a + 1, geom.n_ovoids) if A[a, b]
            for c in range(b + 1, geom.n_ovoids)
            if A[a, c] and A[b, c]]
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
    a, b, c = geom.pencil_members[0, :3].tolist()
    assert _is_linear(geom, a, b, c)
    start = cov.point_fiber[a][0]
    lifted = lift_path(cov, [a, b, c, a], start)
    assert lifted[-1] == start
    # and the lift stays inside one punctured line over the pencil
    line_pts = [set(cov.lines[l].tolist()) for l in np.flatnonzero(cov.line_image == 0)]
    assert any(set(lifted) <= pts for pts in line_pts)


def test_lift_path_rejects_bad_walks(cov_q4):
    cov = cov_q4
    geom = cov.geom
    A = tangency_matrix(geom)
    a, b = map(int, np.argwhere(A)[0])
    other = next(x for x in range(geom.n_ovoids) if x != a)
    with pytest.raises(ValueError):
        lift_path(cov, [a, b], start=cov.point_fiber[other][0])
    c = next(x for x in range(geom.n_ovoids)
             if x not in (a,) and not A[a, x])
    with pytest.raises(ValueError):
        lift_path(cov, [a, c], start=cov.point_fiber[a][0])


# (_CHUNK, NEAR_LINES), None keeping the module's count
CHUNK_CASES = [(chunk, lines) for lines in (None, 0, 1) for chunk in (1, 200, 350)]


@pytest.mark.parametrize("chunk,lines", CHUNK_CASES,
                         ids=[str(c) if k is None else f"{c}-lines{k}" for c, k in CHUNK_CASES])
def test_fiber_distances_in_small_chunks(monkeypatch, cov_q4, chunk, lines):
    # every chunked loop takes many steps.  At q = 4 (240 points of 4 words,
    # 1,020 lines of 4 points, 17 through each point) chunk 200 gives blocks
    # of 6 rows of P, candidate batches of 50 (one word a run) and near rows
    # 4 at a time, and chunk 350 blocks of 11 rows, batches of 87 and near
    # rows 7 at a time: all ragged; a full two-step row takes a step of its
    # own.  With 0 lines near is P, so every far pair's walk is found
    # (cycle_6, the layers at distance 3) or not (the layers at distance 4)
    # in its full two-step row; with 1 line there are many candidates at q = 4
    monkeypatch.setattr(covering, "_CHUNK", chunk)
    if lines is not None:
        monkeypatch.setattr(covering, "NEAR_LINES", lines)
    for cov in (cov_q4, _rolled_partners(cov_q4),
                _graph_covering(_layers([40, 30, 20, 40], 2), [(0, 129), (39, 90)]),
                # forty partners at distance 3, then one at distance 4
                _graph_covering(_layers([50, 40, 30, 40, 40], 5),
                                [(i, 120 + i) for i in range(40)] + [(0, 199)]),
                _graph_covering(_cycle(6), [(0, 3), (1, 4), (2, 5)])):
        rep = fiber_distances(cov)
        assert rep == product_fiber_distances(cov)
        assert rep == line_row_fiber_distances(cov)


def _line_dropped(cov):
    return replace(cov, lines=cov.lines[1:])


def _line_over_another(cov):
    # line 0 is overwritten by line 1, so the pairs on line 0 are on no line
    lines = cov.lines.copy()
    lines[0] = lines[1]
    return replace(cov, lines=lines)


def _line_repeated(cov):
    # line 0 appears twice: every pair is still on a line, but the lines
    # through its points meet again
    return replace(cov, lines=np.vstack([cov.lines, cov.lines[:1]]))


def _line_point_moved(cov):
    # the last point of line 0 moves to an affine point that is not
    # collinear with its first point
    model, line = cov.model, cov.lines[0]
    far = model.affine_points[~model.collinear(line[:1], model.affine_points)[0]]
    lines = cov.lines.copy()
    lines[0, -1] = far[0]
    return replace(cov, lines=lines)


def _line_at_infinity_point(cov):
    lines = cov.lines.copy()
    lines[0, -1] = cov.infinity[0]
    return replace(cov, lines=lines)


LINE_MUTANTS = [
    (_line_dropped, "do not cover the affine collinearity"),
    (_line_over_another, "do not cover the affine collinearity"),
    (_line_repeated, "meet again"),
    (_line_point_moved, "do not cover the affine collinearity"),
    (_line_at_infinity_point, "off the affine part"),
]


@pytest.mark.parametrize("corrupt,reason", LINE_MUTANTS,
                         ids=[f.__name__.strip("_") for f, _ in LINE_MUTANTS])
def test_fiber_distances_rejects_lines_that_miss_the_collinearity(cov_q4, corrupt, reason):
    with pytest.raises(AssertionError, match=reason):
        fiber_distances(corrupt(cov_q4))


def test_fiber_distances_peak_stays_below_9_mib(cov_q8):
    # the largest array is P (2 MB at q = 8), then the line tables (1 MB
    # each); the near rows are built a block at a time, and every block and
    # gather is bounded by _CHUNK words: the traced peak is 7.7 MiB.  Near
    # rows held for every point put it at 9.1 MiB, and the line rows LN
    # (16.5 MB) of the kernel before them at 22.7 MiB
    _, peak = traced_peak(lambda: fiber_distances(cov_q8))
    assert peak < 9 * 2 ** 20
