"""Elliptic ovoids, tangency, rosettes and the semipartial axioms."""

import csv
import json

import numpy as np
import pytest

from memory_peak import traced_peak
from ovoid_oracle import (
    common_tangents_through,
    intersection_kind,
    loop_common_tangent_counts,
    loop_semipartial,
    point_semipartial,
    rosette_from_pair,
    tangency_points,
    tangent_plane,
)
from setup_oracle import loop_build_rosettes
from tangency_oracle import (boolean_common_tangent_counts, boolean_pencils,
                             check_common_tangents, tangency_matrix, with_tangency)
from quadcover import ovoid
from quadcover.gf2n import FieldCtx, is_irreducible, trace
from quadcover.ovoid import (
    _build_rosettes,
    build_geometry,
    export_incidence_csv,
    verify_common_tangent_counts,
    verify_semipartial,
)
from quadcover.quadric import build_model


def _intersection_sizes(geom):
    """|A ∩ B| for every pair of ovoids, from the membership matrix."""
    member = geom.member_matrix.astype(np.int32)
    return member @ member.T


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4", "geom_q8"])
def test_ovoid_counts_and_sizes(request, name):
    geom = request.getfixturevalue(name)
    q = geom.model.ctx.q
    assert geom.n_ovoids == q * q * (q * q - 1) // 2
    assert geom.ovoid_points.shape == (geom.n_ovoids, q * q + 1)
    assert geom.ovoid_span.shape == (geom.n_ovoids, 4, 6)
    # each span is a rank-4 echelon basis: its pivots rise along its rows
    pivots = (geom.ovoid_span != 0).argmax(axis=2)
    assert geom.ovoid_span.any(axis=2).all() and (np.diff(pivots, axis=1) > 0).all()
    assert geom.model.in_section[geom.ovoid_points].all()
    assert (np.diff(geom.ovoid_points, axis=1) > 0).all()
    assert (geom.member_matrix.sum(axis=1) == q * q + 1).all()
    orbit = geom.ovoid_orbit
    assert (orbit[:, 0] < orbit[:, 1]).all()
    assert (geom.model.elation_perm[orbit[:, 0]] == orbit[:, 1]).all()


def test_ovoid_of_affine_point(cov_q2):
    for x in cov_q2.geom.model.affine_points:
        assert x in cov_q2.geom.ovoid_orbit[cov_q2.point_image[x]]


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_pairwise_intersection_sizes(request, name):
    geom = request.getfixturevalue(name)
    q = geom.model.ctx.q
    off_diagonal = ~np.eye(geom.n_ovoids, dtype=bool)
    sizes = _intersection_sizes(geom)
    assert set(np.unique(sizes[off_diagonal]).tolist()) <= {1, q + 1}
    A = tangency_matrix(geom)
    assert np.array_equal(A, (sizes == 1) & off_diagonal)
    # each ovoid is tangent to q-1 others on each of its q^2+1 pencils
    assert (A.sum(axis=1) == (q * q + 1) * (q - 1)).all()


def test_tangency_point_matrix(geom_q4):
    geom = geom_q4
    tp = tangency_points(geom)
    rng = np.random.default_rng(3)
    A = tangency_matrix(geom)
    pairs = np.argwhere(A)
    for a, b in pairs[rng.choice(len(pairs), size=50, replace=False)]:
        common = np.intersect1d(geom.ovoid_points[a], geom.ovoid_points[b])
        assert common.tolist() == [tp[a, b]]
    non = np.argwhere(~A)
    for a, b in non[rng.choice(len(non), size=50, replace=False)]:
        assert tp[a, b] == -1


def test_intersection_kind_classifies_pairs(geom_q4):
    geom = geom_q4
    q = geom.model.ctx.q
    a, b = map(int, np.argwhere(tangency_matrix(geom))[0])
    kind, common = intersection_kind(geom, a, b)
    assert kind == "tangent" and common == (tangency_points(geom)[a, b],)
    c, d = map(int, np.argwhere(_intersection_sizes(geom) == q + 1)[0])
    kind, common = intersection_kind(geom, c, d)
    assert kind == "conic" and len(common) == q + 1
    assert set(common) == set(geom.ovoid_points[c].tolist()) & set(geom.ovoid_points[d].tolist())
    with pytest.raises(ValueError):
        intersection_kind(geom, 0, 0)


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_ovoids_through_each_section_point(request, name):
    geom = request.getfixturevalue(name)
    q = geom.model.ctx.q
    assert geom.through.shape == (len(geom.model.section_points), q * q * (q - 1) // 2)
    for k, t in enumerate(geom.through):
        assert np.array_equal(t, np.flatnonzero(geom.member_matrix[:, k]))


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_rosette_structure(request, name):
    geom = request.getfixturevalue(name)
    q = geom.model.ctx.q
    n_q0 = len(geom.model.section_points)
    tp = tangency_points(geom)
    A = tangency_matrix(geom)
    assert geom.pencil_members.shape == (n_q0 * q * (q - 1) // 2, q)
    # pencils are grouped by base, q(q-1)/2 at each section point in turn
    assert np.array_equal(geom.pencil_base,
                          np.repeat(geom.model.section_points, q * (q - 1) // 2))
    for base, members in zip(geom.pencil_base, geom.pencil_members):
        sub = A[np.ix_(members, members)]
        assert sub[~np.eye(q, dtype=bool)].all()
        assert (tp[np.ix_(members, members)][sub] == base).all()
        union = np.zeros(n_q0, dtype=bool)
        for m in members:
            union |= geom.member_matrix[m]
        assert int(union.sum()) == q ** 3 + 1


def test_incidence_lists_match_membership(geom_q4):
    geom = geom_q4
    q = geom.model.ctx.q
    assert geom.incidence.shape == (geom.n_ovoids, q * q + 1)
    for oid, rids in enumerate(geom.incidence):
        for rid in rids:
            assert oid in geom.pencil_members[rid]


def test_tangent_plane_of_every_pencil(geom_q2, geom_q4):
    for geom in (geom_q2, geom_q4):
        for r in range(len(geom.pencil_base)):
            assert tangent_plane(geom, r).rank == 3


def test_rosette_recovery_from_a_tangent_pair(geom_q2, geom_q4):
    for geom in (geom_q2, geom_q4):
        for r, members in enumerate(geom.pencil_members.tolist()):
            assert rosette_from_pair(geom, members[0], members[1]) == r
    geom = geom_q4
    q = geom.model.ctx.q
    c, d = map(int, np.argwhere(_intersection_sizes(geom) == q + 1)[0])
    with pytest.raises(ValueError):
        rosette_from_pair(geom, c, d)


def test_grouping_rejects_a_broken_tangency_class(geom_q4):
    A = tangency_matrix(geom_q4)
    a, b = geom_q4.pencil_members[0, :2]
    A[[a, b], [b, a]] = False
    geom = with_tangency(geom_q4, A)
    for build in (_build_rosettes, boolean_pencils, loop_build_rosettes):
        with pytest.raises(AssertionError, match="not an equivalence"):
            build(geom)


@pytest.fixture(scope="module", params=["cleared_first", "cleared_last", "added"])
def geom_q4_broken(request, geom_q4):
    """The q = 4 geometry with one tangency flipped: a tangent pair of the
    first or the last pencil made non-tangent, or a conic pair made tangent.
    Returns (flip, geometry)."""
    geom = geom_q4
    flip = request.param
    if flip == "added":
        a = geom.pencil_members[0, 0]
        b = int(np.flatnonzero(_intersection_sizes(geom)[a] == geom.model.ctx.q + 1)[0])
    else:
        a, b = geom.pencil_members[0 if flip == "cleared_first" else -1, :2]
    A = tangency_matrix(geom_q4)
    A[[a, b], [b, a]] = flip == "added"
    return flip, with_tangency(geom_q4, A)


# non-incident (ovoid, pencil) pairs: pencils times (ovoids - q)
SEMIPARTIAL_PAIRS = {"geom_q2": 15 * 4, "geom_q4": 510 * 116, "geom_q8": 32_891_040}


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4", "geom_q8"])
def test_semipartial_axioms_hold_exhaustively(request, name):
    rep = verify_semipartial(request.getfixturevalue(name))
    assert rep == {"pass": True, "pairs_checked": SEMIPARTIAL_PAIRS[name]}


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_semipartial_matches_pencil_loop(request, name):
    geom = request.getfixturevalue(name)
    assert verify_semipartial(geom) == loop_semipartial(geom)


def _flipped(geom, rng, k):
    """A copy of geom with one or two symmetric off-diagonal entries of its
    tangency matrix flipped: for even k, one or two random pairs (the same
    pair twice restores it); for odd k, two members of a pencil drawn from
    the first k, so that some pencil fails first on a member."""
    A = tangency_matrix(geom)
    if k % 2:
        pairs = [geom.pencil_members[rng.integers(min(k, len(geom.pencil_members))), :2]]
    else:
        pairs = [rng.choice(geom.n_ovoids, 2, replace=False) for _ in range(1 + k % 4 // 2)]
    for a, b in pairs:
        A[[a, b], [b, a]] ^= True
    return with_tangency(geom, A)


@pytest.mark.parametrize("block", [None, 1, 7, "above"])
@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_semipartial_matches_per_point_sums(monkeypatch, request, name, block):
    # the bit planes against the per-point byte sums they replaced, whole
    # reports, on the clean geometry and 100 seeded corruptions, in blocks
    # of PENCIL_BLOCK pencils, of one, of a few (the last one short) and of
    # more than there are pencils
    geom = request.getfixturevalue(name)
    if block is not None:
        n_pencils = len(geom.pencil_members)
        monkeypatch.setattr(ovoid, "PENCIL_BLOCK", n_pencils + 1 if block == "above" else block)
    rng = np.random.default_rng(24)
    reasons = set()
    for g in [geom] + [_flipped(geom, rng, k) for k in range(100)]:
        rep = verify_semipartial(g)
        assert rep == point_semipartial(g)
        reasons.add(rep.get("reason"))
    assert {None, "member degree", "alpha condition"} <= reasons


@pytest.mark.parametrize("block", [None, 1, 7, "above"])
@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_common_tangents_match_the_per_point_kernel(monkeypatch, request, name, block):
    # the pencil-count reader against the per-point products it replaced,
    # on the clean geometry and the corruptions above, in the same blocks
    geom = request.getfixturevalue(name)
    if block is not None:
        n_pencils = len(geom.pencil_members)
        monkeypatch.setattr(ovoid, "PENCIL_BLOCK", n_pencils + 1 if block == "above" else block)
    rng = np.random.default_rng(24)
    kinds = set()
    for g in [geom] + [_flipped(geom, rng, k) for k in range(100)]:
        rep = check_common_tangents(g)
        kinds.add(rep.get("reason", "pass" if rep["pass"] else "case"))
    assert kinds == {"pass", "case", "pencil grouping"}


FIELDS = [(n, m, lam) for n in (1, 2)
          for m in range(1 << n, 2 << n) if is_irreducible(m)
          for lam in range(1 << n) if trace(FieldCtx(n, m), lam) == 1] + [(3, 0b1101, None)]


@pytest.mark.parametrize("n,modulus,lam", FIELDS)
def test_common_tangents_match_the_per_point_kernel_in_every_field(n, modulus, lam):
    # every modulus and trace-one form parameter at q <= 4, and the q = 8
    # field that is not the default
    geom = build_geometry(build_model(FieldCtx(n, modulus), lam=lam))
    q = geom.model.ctx.q
    cases = q * len(geom.pencil_members) * (geom.n_ovoids - q)
    rep = verify_common_tangent_counts(geom)
    assert rep == boolean_common_tangent_counts(geom) == {"pass": True, "cases_checked": cases}


def test_semipartial_peak_stays_below_3_mib(geom_q8):
    # one block of PENCIL_BLOCK pencils: its bit planes, carry rows and
    # member mask, beside the packed tangency rows (0.5 MiB at q = 8)
    rep, peak = traced_peak(lambda: verify_semipartial(geom_q8))
    assert rep["pass"]
    assert peak < 3 * 2 ** 20


def test_semipartial_names_a_violating_pair(geom_q4_broken):
    flip, geom = geom_q4_broken
    q = geom.model.ctx.q
    rep = verify_semipartial(geom)
    assert not rep["pass"]
    assert json.loads(json.dumps(rep)) == rep
    members = geom.pencil_members[rep["rosette"]].tolist()
    v = rep["ovoid"]
    seen = int(tangency_matrix(geom)[v, members].sum())   # recount from the table
    if flip == "cleared_first":
        # pencil 0 comes first, and its two members lost a tangent
        assert rep["reason"] == "member degree" and rep["rosette"] == 0
        assert v in members and seen == q - 2
    else:
        # members are intact up to the first failing pencil, which is the loop's
        assert rep["reason"] == "alpha condition" and v not in members
        assert seen not in (0, 2)
        assert rep["rosette"] == loop_semipartial(geom)["rosette"]


def test_common_tangent_laws_exhaustive(geom_q2, geom_q4, geom_q8):
    # ordered (pair, point) cases: twice the unordered cases of the scalar loop
    for geom, cases in ((geom_q2, 120), (geom_q4, 236_640), (geom_q8, 263_128_320)):
        assert verify_common_tangent_counts(geom) == {"pass": True, "cases_checked": cases}


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_common_tangent_laws_match_scalar_loop(request, name):
    geom = request.getfixturevalue(name)
    rep, oracle = verify_common_tangent_counts(geom), loop_common_tangent_counts(geom)
    assert rep["pass"] and oracle["pass"]
    assert rep["cases_checked"] == 2 * oracle["cases_checked"]


def test_common_tangent_law_names_a_violating_case(geom_q4_broken):
    flip, geom = geom_q4_broken
    rep = check_common_tangents(geom)
    assert not rep["pass"]
    assert json.loads(json.dumps(rep)) == rep
    if flip == "cleared_first":
        # pencil 0 comes first, and its two members lost a tangent: the
        # ovoids through its base are no longer grouped into the pencils
        assert rep["reason"] == "pencil grouping" and rep["rosette"] == 0
        assert rep["ovoid"] in geom.pencil_members[0]
        return
    (a, b), x = rep["pair"], rep["point"]
    A = tangency_matrix(geom)
    pa, pb = set(geom.ovoid_points[a].tolist()), set(geom.ovoid_points[b].tolist())
    assert x in pa
    if x in pb:
        assert not A[a, b]
        want = 0
    else:
        want = 1 if A[a, b] else 2
    # recount from the table: ovoids through x tangent to both
    got = sum(1 for c in range(geom.n_ovoids) if x in geom.ovoid_points[c]
              and A[c, a] and A[c, b])
    assert (rep["expected"], rep["got"]) == (want, got)
    assert got != want


def test_common_tangents_through_sampled(geom_q4):
    geom = geom_q4
    rng = np.random.default_rng(9)
    n = geom.n_ovoids
    A = tangency_matrix(geom)
    checked = 0
    while checked < 60:
        a, b = map(int, rng.integers(0, n, size=2))
        if a == b:
            continue
        pa, pb = set(geom.ovoid_points[a].tolist()), set(geom.ovoid_points[b].tolist())
        tangent = bool(A[a, b])
        x = sorted(pa - pb)[int(rng.integers(0, len(pa - pb)))]
        assert len(common_tangents_through(geom, a, b, x)) == (1 if tangent else 2)
        if not tangent:
            y = sorted(pa & pb)[0]
            assert common_tangents_through(geom, a, b, y) == []
        checked += 1


def test_incidence_csv_round_trip(tmp_path, geom_q2):
    path = tmp_path / "incidence.csv"
    export_incidence_csv(geom_q2, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rosette_id", "base_point", "member_ovoids"]
    assert len(rows) - 1 == len(geom_q2.pencil_base)
    for rid, row in enumerate(rows[1:]):
        assert int(row[0]) == rid
        assert int(row[1]) == geom_q2.pencil_base[rid]
        assert [int(m) for m in row[2].split()] == geom_q2.pencil_members[rid].tolist()
