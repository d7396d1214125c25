"""The model and geometry set-up against the loops it replaced.

`setup_oracle` holds the former scalar and per-point set-up.  Every field
the set-up fills, the point index included, is diffed against it, with its
dtype and shape, at q = 2 and q = 4 for every modulus and trace-one form
parameter, and at q = 8 for the default field.  So are `alpha` on every
pair of points, against `quadric_oracle.loop_gram_matrix`, and the table of
tangency points that the tests read off the ovoids' point sets, against the
former position-weighted product.  The set-up's blocks are also patched
to a few rows, with a short last block, and must give the same arrays.
Corrupted copies of the tables, and of the form through
`quadric_oracle.TableModel`, show that the line, point-or-conic and
grouping laws still fire; each grouping corruption raises the same message
from `_build_rosettes`, from the per-point kernel it replaced
(`tangency_oracle.boolean_pencils`) and from the loop, some also with the
section points grouped one or a few a block.
"""

import copy

import numpy as np
import pytest

from memory_peak import traced_peak
from ovoid_oracle import tangency_points
from quadric_oracle import TableModel, alpha_table
from setup_oracle import (loop_build_elation, loop_build_geometry, loop_build_lines,
                          loop_build_rosettes, loop_point_index, loop_tangency_point)
from tangency_oracle import boolean_pencils, tangency_matrix, with_tangency
from quadcover import ovoid, quadric
from quadcover.gf2n import FieldCtx, is_irreducible, trace
from quadcover.ovoid import _batched_rref, _build_rosettes, build_geometry
from quadcover.projgeom import rref
from quadcover.quadric import _build_elation, _build_lines, build_model

FIELDS = [(n, m, lam) for n in (1, 2)
          for m in range(1 << n, 2 << n) if is_irreducible(m)
          for lam in range(1 << n) if trace(FieldCtx(n, m), lam) == 1]


def assert_same_fields(new, old, names):
    for name in names:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def assert_same_model(model):
    oracle = copy.copy(model)
    loop_point_index(oracle)
    loop_build_lines(oracle)
    loop_build_elation(oracle)
    assert_same_fields(model, oracle, (
        "coords", "index_by_code", "in_section", "section_points", "affine_points",
        "section_index", "lines", "lines_through", "elation_perm"))
    # alpha on every pair against loop_gram_matrix on the oracle's points
    pts = np.arange(model.n_points)
    block = model.alpha(pts, pts)
    assert block.dtype == np.uint8 and np.array_equal(block, alpha_table(oracle))
    q = model.ctx.q
    assert model.coords.shape == ((q + 1) * (q ** 3 + 1), 6)
    assert model.index_by_code.shape == (q ** 6,)
    assert model.section_index.shape == (model.n_points,)
    assert model.lines.shape == ((q ** 3 + 1) * (q * q + 1), q + 1)
    assert model.lines_through.shape == (model.n_points, q * q + 1)


def assert_same_geometry(geom):
    oracle = loop_build_geometry(geom.model)
    assert_same_fields(geom, oracle, (
        "ovoid_orbit", "ovoid_points", "ovoid_span", "member_matrix", "tangency",
        "through", "pencil_base", "pencil_members", "incidence"))
    assert np.array_equal(tangency_points(geom), loop_tangency_point(oracle))
    q = geom.model.ctx.q
    assert geom.ovoid_span.shape == (geom.n_ovoids, 4, 6)
    assert geom.pencil_members.shape == (len(geom.pencil_base), q)
    assert geom.incidence.shape == (geom.n_ovoids, q * q + 1)


@pytest.mark.parametrize("n,modulus,lam", FIELDS)
def test_small_setup_matches_the_loop_oracle(n, modulus, lam):
    model = build_model(FieldCtx(n, modulus), lam=lam)
    assert_same_model(model)
    assert_same_geometry(build_geometry(model))


def test_q8_setup_matches_the_loop_oracle(model_q8, geom_q8):
    assert_same_model(model_q8)
    assert_same_geometry(geom_q8)


@pytest.mark.parametrize("n,rows", [(1, 4), (2, 7)])
def test_setup_in_ragged_blocks_matches_the_loop_oracle(monkeypatch, n, rows):
    # blocks of a few ovoid rows, the last one short: 6 = 4 + 2 ovoids at
    # q = 2 and 120 = 17 * 7 + 1 at q = 4
    q = 2 ** n
    monkeypatch.setattr(ovoid, "PAIR_BLOCK", rows * q * q * (q * q - 1) // 2)
    assert_same_geometry(build_geometry(build_model(FieldCtx(n))))


@pytest.mark.parametrize("n,points", [(1, 4), (2, 7)])
def test_rosettes_in_ragged_point_blocks_match_the_loop_oracle(monkeypatch, n, points):
    # blocks of a few section points, the last one short: 15 = 3 * 4 + 3
    # points at q = 2 and 85 = 12 * 7 + 1 at q = 4
    q = 2 ** n
    per_point, n_ovoids = q * q * (q - 1) // 2, q * q * (q * q - 1) // 2
    monkeypatch.setattr(ovoid, "POINT_BLOCK", points * per_point * -(-n_ovoids // 64))
    assert_same_geometry(build_geometry(build_model(FieldCtx(n))))


@pytest.mark.parametrize("block", [1, 3 * 325])
def test_model_in_ragged_perp_blocks_matches_the_unpatched_build(monkeypatch, model_q4, block):
    # PERP_BLOCK of 1 byte: one perp row, one pivot row and one line a
    # block.  Of 3 * 325 bytes: 3 perp rows (325 = 108 * 3 + 1), 14 and 18
    # pivot rows (16 = 14 + 2, 52 = 2 * 18 + 16) and 20 lines of 48 bytes
    # (1105 = 55 * 20 + 5) a block
    monkeypatch.setattr(quadric, "PERP_BLOCK", block)
    model = build_model(model_q4.ctx)
    assert_same_fields(model, model_q4, [k for k, v in vars(model).items()
                                         if isinstance(v, np.ndarray)])


@pytest.mark.parametrize("rows", [100, 192])
def test_tangency_in_ragged_blocks_and_bands_matches_the_unpatched_build(
        monkeypatch, geom_q8, rows):
    # the product a few rows a block, the last one short (2016 = 20 * 100 +
    # 16 and 10 * 192 + 96), and the transpose one band (100 rows) or three
    # (192 rows) a step, the last step short (32 words = 10 * 3 + 2)
    V = geom_q8.n_ovoids
    monkeypatch.setattr(ovoid, "PAIR_BLOCK", rows * V)
    geom = build_geometry(geom_q8.model)
    assert_same_fields(geom, geom_q8, [k for k, v in vars(geom).items()
                                       if isinstance(v, np.ndarray)])


@pytest.mark.parametrize("rows", [None, 7])
def test_product_rejects_a_pair_meeting_in_two_points(monkeypatch, geom_q4, rows):
    """The last ovoid i given a point of j, the first ovoid tangent to it,
    in place of one of its own points off j: the pair j < i meets in two
    points (and other pairs of i break the law too).  With 7 rows a block,
    i = 119 is alone in the last block, whose columns start at 64, so the
    pair (j, i) is read only in j's block."""
    if rows:
        monkeypatch.setattr(ovoid, "PAIR_BLOCK", rows * geom_q4.n_ovoids)
    q = geom_q4.model.ctx.q
    i = geom_q4.n_ovoids - 1
    j = int(np.flatnonzero(tangency_matrix(geom_q4)[i])[0])
    assert j < 64
    gain = np.setdiff1d(geom_q4.ovoid_points[j], geom_q4.ovoid_points[i])[-1]
    lose = np.setdiff1d(geom_q4.ovoid_points[i], geom_q4.ovoid_points[j])[-1]
    points = np.union1d(np.setdiff1d(geom_q4.ovoid_points[i], [lose]), [gain])
    # the span law reads the first q + 2 points, which keep their solid
    assert max(gain, lose) > points[q + 1]
    table = alpha_table(geom_q4.model).copy()
    x = geom_q4.ovoid_orbit[i, 0]
    table[[x, gain], [gain, x]] = 0
    table[[x, lose], [lose, x]] = 1
    model = TableModel(geom_q4.model, table)
    for build in (build_geometry, loop_build_geometry):
        with pytest.raises(AssertionError, match="neither a point nor a conic"):
            build(model)


def test_build_model_peak_stays_below_13_mib():
    # the packed perp rows (2.7 MB) beside the line checks, read in blocks
    # of PERP_BLOCK bytes, then the line tables and the point index (1 MB)
    # beside the sort keys of the lines_through law; the perp rows are
    # freed before the sort keys are made
    _, peak = traced_peak(lambda: build_model(FieldCtx(3)))
    assert peak < 13 * 2 ** 20


def test_build_geometry_peak_stays_below_28_mib(model_q8):
    # the kept tables (0.5 MB packed tangency, 1 MB membership) and one
    # product block of at most PAIR_BLOCK float32 entries, and its packed
    # copy, beside the float copy of the membership matrix
    _, peak = traced_peak(lambda: build_geometry(model_q8))
    assert peak < 28 * 2 ** 20


def _flipped_pair(model, flip):
    """A perpendicular pair on the first line (its two smallest points, from
    which it is emitted, or its last two), or a non-perpendicular pair: the
    first one, the first of two points with leading coordinate 1 (both pivot
    0, so never a pair a line is emitted from), or the last point with its
    last non-perpendicular partner."""
    if flip == "perp_emitting":
        return model.lines[0, :2]
    if flip == "perp_later":
        return model.lines[0, -2:]
    if flip == "non_perp_last":
        return model.n_points - 1, int(np.flatnonzero(alpha_table(model)[-1])[-1])
    pts = np.arange(model.n_points)
    if flip == "non_perp_leading":
        pts = np.flatnonzero(model.coords[:, 0] == 1)
    i, j = np.argwhere(np.triu(alpha_table(model)[np.ix_(pts, pts)] != 0, 1))[0]
    return int(pts[i]), int(pts[j])


# the law each flip breaks first in _build_lines; the oracle raises too
LINE_LAWS = {"perp_emitting": "1104 lines, expected 1105",
             "perp_later": "a line is not totally singular",
             "non_perp_first": "1106 lines, expected 1105",
             "non_perp_leading": "common perp of collinear points is not a line",
             "non_perp_last": "some point is not on q\\^2\\+1 lines that cover its perp"}


@pytest.mark.parametrize("flip", list(LINE_LAWS))
def test_line_laws_reject_a_flipped_gram_entry(model_q4, flip):
    table = alpha_table(model_q4).copy()
    x, y = _flipped_pair(model_q4, flip)
    table[[x, y], [y, x]] = 0 if flip.startswith("non_perp") else 1
    model = TableModel(model_q4, table)
    with pytest.raises(AssertionError, match=LINE_LAWS[flip]):
        _build_lines(copy.copy(model))
    with pytest.raises(AssertionError):
        loop_build_lines(copy.copy(model))


def test_elation_rejects_a_nucleus_on_the_quadric(model_q4):
    """A quadric point in place of the nucleus is perpendicular to some
    affine points, so their lines toward it are not secants."""
    model = copy.copy(model_q4)
    model.nucleus = model.point(0)
    for build in (_build_elation, loop_build_elation):
        with pytest.raises(AssertionError, match="nucleus line is not a secant"):
            build(copy.copy(model))


# the block kernel, the per-point kernel it replaced and the S.S = q.S loop
REBUILDS = (_build_rosettes, boolean_pencils, loop_build_rosettes)


@pytest.mark.parametrize("corruption", ["swapped", "one_way"])
def test_grouping_rejects_tangencies_that_keep_every_count(geom_q4, corruption):
    """Two pencils {a1..a4}, {b1..b4} at the first section point p, with
    a1 < b1.  "swapped": a1-a2 and b1-b2 made non-tangent, a1-b1 and a2-b2
    made tangent.  "one_way": each b made tangent to a1, a2, a3 and to no
    other b, while the a rows stay as they are; every smallest class member
    is then a1, and only symmetry fails.  Either way every ovoid keeps its
    (q - 1)(q^2 + 1) tangents."""
    q = geom_q4.model.ctx.q
    first, second = map(tuple, geom_q4.pencil_members[:2].tolist())   # both at point 0
    A = tangency_matrix(geom_q4)
    if corruption == "swapped":
        for u, v, tangent in ((first[0], first[1], False), (second[0], second[1], False),
                              (first[0], second[0], True), (first[1], second[1], True)):
            A[[u, v], [v, u]] = tangent
    else:
        rows = np.array(second)[:, None]
        A[rows, np.array(second)] = False
        A[rows, np.array(first[:q - 1])] = True
    assert (A.sum(axis=1) == (q - 1) * (q * q + 1)).all()
    geom = with_tangency(geom_q4, A)
    for build in REBUILDS:
        with pytest.raises(AssertionError, match="not an equivalence"):
            build(geom)


def test_grouping_rejects_a_one_way_tangency_that_keeps_the_counts_at_every_point(geom_q4):
    """b1, the first member of the second pencil at the first section point,
    made tangent to a1, the first member of the first pencil, in its own row
    only, and non-tangent in its row to one pencil mate at each of the q + 1
    points it shares with a1.  Every row of the tangency matrix among the
    ovoids through each point still holds q - 1 tangents, and only symmetry
    fails."""
    q = geom_q4.model.ctx.q
    A = tangency_matrix(geom_q4)
    a1, b1 = geom_q4.pencil_members[:2, 0]
    A[b1, a1] = True
    for k in np.flatnonzero(geom_q4.member_matrix[a1] & geom_q4.member_matrix[b1]):
        T = geom_q4.through[k]
        A[b1, T[A[b1, T] & (T != a1)][0]] = False
    for T in geom_q4.through:
        assert (A[np.ix_(T, T)].sum(axis=1) == q - 1).all()
    geom = with_tangency(geom_q4, A)
    for build in REBUILDS:
        with pytest.raises(AssertionError, match="not an equivalence"):
            build(geom)


def test_grouping_rejects_tangency_of_every_pair(geom_q4):
    """Every ovoid pair made tangent: at each point the rows of the ovoids
    through it are all equal, and only their size, q^2(q-1)/2 bits and not
    q, breaks the law."""
    geom = with_tangency(geom_q4, ~np.eye(geom_q4.n_ovoids, dtype=bool))
    for build in REBUILDS:
        with pytest.raises(AssertionError, match="not an equivalence"):
            build(geom)


def _retangent(geom, corruption, point=0):
    """The q = 4 geometry with pairs through section point p (the first
    unless point, a dense section index, says otherwise) made tangent or
    non-tangent, keeping the relation symmetric.  P1 and P2 are the first two
    pencils at the first point, (u, v) the first pair of the last pencil,
    whose base is the last point.  "cleared": (u, v) made non-tangent, so u
    and v have q - 2 tangents at their point.  "moved": (u, v) cleared and
    P1[0] made tangent to P2[0]: the number of tangent pairs is kept, but
    P1[0] and P2[0] have q tangents at the first point.  "doubled": P2[0]
    made tangent to none of P2 and P1[0] to all of it, so P1[0] has 2(q - 1)
    tangents at the first point, P2[0] none and every other ovoid q - 1
    there.  "shifted": a and b, the first two consecutive ovoids through p in
    different pencils, and y a pencil mate of a; (a, y) cleared and (b, y)
    made tangent, so a has q - 2 tangents at p and b has q."""
    A = tangency_matrix(geom)
    P1, P2 = geom.pencil_members[:2].tolist()              # both at point p
    u, v = geom.pencil_members[-1, :2].tolist()
    if corruption == "cleared":
        edits = [(u, v, False)]
    elif corruption == "moved":
        edits = [(u, v, False), (P1[0], P2[0], True)]
    elif corruption == "doubled":
        edits = [(P2[0], w, False) for w in P2[1:]] + [(P1[0], w, True) for w in P2[1:]]
    else:
        through = geom.through[point].tolist()
        a, b = next((a, b) for a, b in zip(through, through[1:]) if not A[a, b])
        y = next(y for y in through if A[a, y] and y != b)
        edits = [(a, y, False), (b, y, True)]
    for x, y, tangent in edits:
        assert A[x, y] != tangent
        A[[x, y], [y, x]] = tangent
    return with_tangency(geom, A)


@pytest.mark.parametrize("corruption", ["cleared", "moved", "doubled", "shifted"])
def test_grouping_rejects_a_wrong_number_of_tangents_at_a_point(geom_q4, corruption):
    geom = _retangent(geom_q4, corruption)
    for build in REBUILDS:
        with pytest.raises(AssertionError, match="not an equivalence"):
            build(geom)


@pytest.mark.parametrize("points", [None, 7])
@pytest.mark.parametrize("corruption", ["cleared", "shifted"])
def test_grouping_rejects_a_corruption_at_the_last_point(monkeypatch, geom_q4, corruption,
                                                        points):
    """Tangency broken at the last section point.  "cleared" touches only the
    pair (u, v), tangent there and nowhere else; "shifted" is made there, but
    the pair it makes tangent meets in a conic, so it breaks the grouping at
    the conic's other points too.  The q = 4 points are grouped in one block,
    or 7 a block, so that the last point is alone in a short last block."""
    geom = _retangent(geom_q4, corruption, point=-1)
    if points:
        per_point, n_words = geom.through.shape[1], geom.tangency.shape[1]
        monkeypatch.setattr(ovoid, "POINT_BLOCK", points * per_point * n_words)
    for build in REBUILDS:
        with pytest.raises(AssertionError, match="not an equivalence"):
            build(geom)


def _regroup(geom, corruption):
    """The q = 4 geometry with its tables made inconsistent with the ovoids'
    points.  "regrouped": the first two pencils at the first section point p
    exchange their last two members, so that pairs meeting in a conic are
    marked tangent; tangency at p stays an equivalence with classes of size
    q, and fails to be one at the conic pair's second common point.
    "mate_point": the first ovoid of the first pencil given, in the
    membership matrix, a point of its pencil mate other than p, so that the
    two share two points.  "perp_in_ovoid": two points of the first ovoid
    made perpendicular in the form table of a `TableModel` copy of the
    model."""
    geom = copy.copy(geom)
    first, second = map(tuple, geom.pencil_members[:2].tolist())   # both at point 0
    if corruption == "regrouped":
        A = tangency_matrix(geom)
        for u in first[:2] + second[:2]:
            old = first[2:] if u in first else second[2:]
            new = second[2:] if u in first else first[2:]
            for v, tangent in [(v, False) for v in old] + [(v, True) for v in new]:
                A[[u, v], [v, u]] = tangent
        geom = with_tangency(geom, A)
    elif corruption == "mate_point":
        a, b = first[:2]
        geom.member_matrix = geom.member_matrix.copy()
        x = np.flatnonzero(geom.member_matrix[b] & ~geom.member_matrix[a])[0]
        geom.member_matrix[a, x] = True
    else:
        table = alpha_table(geom.model).copy()
        x, y = geom.ovoid_points[0, :2]
        table[[x, y], [y, x]] = 0
        geom.model = TableModel(geom.model, table)
    return geom


REGROUPED = [
    ("regrouped", "not an equivalence"),
    ("mate_point", "ovoids sharing a point are tangent elsewhere"),
    ("perp_in_ovoid", "an ovoid through a point meets its perp beyond the point")]


@pytest.mark.parametrize("corruption,law", REGROUPED)
def test_grouping_rejects_tables_that_disagree_with_the_points(geom_q4, corruption, law):
    geom = _regroup(geom_q4, corruption)
    for build in REBUILDS:
        with pytest.raises(AssertionError, match=law):
            build(geom)


@pytest.mark.parametrize("corruption,law", REGROUPED)
def test_grouping_laws_keep_their_order_in_one_point_blocks(monkeypatch, geom_q4,
                                                          corruption, law):
    """The same tables, grouped one section point a block.  "regrouped"
    breaks the union law in the first block and grouping only at a later
    point, and the grouping failure is the one raised, as the per-point
    kernel raises it after grouping every point."""
    geom = _regroup(geom_q4, corruption)
    per_point, n_words = geom.through.shape[1], geom.tangency.shape[1]
    monkeypatch.setattr(ovoid, "POINT_BLOCK", per_point * n_words)
    for build in REBUILDS:
        with pytest.raises(AssertionError, match=law):
            build(geom)


@pytest.mark.parametrize("n,rows", [(1, 4), (2, 7), (3, 4), (3, 10)])
def test_batched_rref_matches_rref(n, rows):
    """Random stacks with repeated rows, scaled rows, an empty column and
    zero matrices, reduced at once and one at a time."""
    ctx = FieldCtx(n)
    rng = np.random.default_rng(rows)
    mats = rng.integers(0, ctx.q, (300, rows, 6))
    mats[::3, 2] = mats[::3, 0]
    mats[1::3, -1] = ctx.mul_table[rng.integers(1, ctx.q), mats[1::3, 1]]
    mats[2::5, :, 1] = 0
    mats[::11] = 0
    basis, rank = _batched_rref(ctx, mats)
    for m, b, r in zip(mats, basis, rank):
        want = rref(ctx, m.tolist())
        assert r == len(want)
        assert tuple(map(tuple, b[:r].tolist())) == want
        assert not b[r:].any()
