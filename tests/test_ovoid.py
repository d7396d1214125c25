"""Elliptic ovoids, tangency, rosettes and the semipartial axioms."""

import copy
import csv

import numpy as np
import pytest

from quadcover.ovoid import (
    _build_rosettes,
    common_tangents_through,
    export_incidence_csv,
    intersection_kind,
    rosette_from_pair,
    tangent_plane,
    verify_common_tangent_counts,
    verify_semipartial,
)


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4", "geom_q8"])
def test_ovoid_counts_and_sizes(request, name):
    geom = request.getfixturevalue(name)
    q = geom.model.ctx.q
    assert geom.n_ovoids == q * q * (q * q - 1) // 2
    section = set(geom.model.section_points)
    for ov in geom.ovoids:
        assert len(ov) == q * q + 1
        assert ov.span.rank == 4
        assert set(ov.points) <= section
        assert int(geom.member_matrix[ov.id].sum()) == q * q + 1
        assert ov.orbit[0] < ov.orbit[1]
        assert geom.model.elation_perm[ov.orbit[0]] == ov.orbit[1]


def test_ovoid_of_affine_point(cov_q2):
    for x in cov_q2.geom.model.affine_points:
        ov = cov_q2.geom.ovoids[int(cov_q2.point_image[x])]
        assert int(x) in ov.orbit


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_pairwise_intersection_sizes(request, name):
    geom = request.getfixturevalue(name)
    q = geom.model.ctx.q
    off = geom.inter_count[~np.eye(geom.n_ovoids, dtype=bool)]
    assert set(np.unique(off).tolist()) <= {1, q + 1}
    # each ovoid is tangent to q-1 others on each of its q^2+1 pencils
    assert (geom.adjacency.sum(axis=1) == (q * q + 1) * (q - 1)).all()


def test_tangency_point_matrix(geom_q4):
    geom = geom_q4
    rng = np.random.default_rng(3)
    pairs = np.argwhere(geom.adjacency)
    for a, b in pairs[rng.choice(len(pairs), size=50, replace=False)]:
        common = set(geom.ovoids[a].points) & set(geom.ovoids[b].points)
        assert common == {int(geom.tangency_point[a, b])}
    non = np.argwhere(~geom.adjacency)
    for a, b in non[rng.choice(len(non), size=50, replace=False)]:
        assert geom.tangency_point[a, b] == -1


def test_intersection_kind_classifies_pairs(geom_q4):
    geom = geom_q4
    q = geom.model.ctx.q
    a, b = map(int, np.argwhere(geom.adjacency)[0])
    kind, common = intersection_kind(geom.ovoids[a], geom.ovoids[b])
    assert kind == "tangent" and len(common) == 1
    c, d = map(int, np.argwhere(geom.inter_count == q + 1)[0])
    kind, common = intersection_kind(geom.ovoids[c], geom.ovoids[d])
    assert kind == "conic" and len(common) == q + 1
    assert set(common) == set(geom.ovoids[c].points) & set(geom.ovoids[d].points)
    with pytest.raises(ValueError):
        intersection_kind(geom.ovoids[0], geom.ovoids[0])


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_ovoids_through_each_section_point(request, name):
    geom = request.getfixturevalue(name)
    q = geom.model.ctx.q
    for t in geom.through:
        assert len(t) == q * q * (q - 1) // 2


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_rosette_structure(request, name):
    geom = request.getfixturevalue(name)
    q = geom.model.ctx.q
    n_q0 = len(geom.model.section_points)
    assert len(geom.rosettes) == n_q0 * q * (q - 1) // 2
    for r in geom.rosettes:
        assert len(r) == q
        sub = geom.adjacency[np.ix_(r.members, r.members)]
        assert sub[~np.eye(q, dtype=bool)].all()
        assert (geom.tangency_point[np.ix_(r.members, r.members)][sub] == r.base).all()
        union = np.zeros(n_q0, dtype=bool)
        for m in r.members:
            union |= geom.member_matrix[m]
        assert int(union.sum()) == q ** 3 + 1


def test_incidence_lists_match_membership(geom_q4):
    geom = geom_q4
    q = geom.model.ctx.q
    for oid, rids in enumerate(geom.incidence):
        assert len(rids) == q * q + 1
        for rid in rids:
            assert oid in geom.rosettes[rid].members


def test_tangent_plane_of_every_pencil(geom_q2, geom_q4):
    for geom in (geom_q2, geom_q4):
        for r in geom.rosettes:
            assert tangent_plane(geom, r).rank == 3


def test_rosette_recovery_from_a_tangent_pair(geom_q2, geom_q4):
    for geom in (geom_q2, geom_q4):
        for r in geom.rosettes:
            a, b = geom.ovoids[r.members[0]], geom.ovoids[r.members[1]]
            rec = rosette_from_pair(geom, a, b)
            assert rec.members == r.members
            assert rec.base == r.base
            assert rec.id == r.id
    geom = geom_q4
    q = geom.model.ctx.q
    c, d = map(int, np.argwhere(geom.inter_count == q + 1)[0])
    with pytest.raises(ValueError):
        rosette_from_pair(geom, geom.ovoids[c], geom.ovoids[d])


def test_grouping_rejects_a_broken_tangency_class(geom_q4):
    geom = copy.copy(geom_q4)
    a, b = geom.rosettes[0].members[:2]
    geom.adjacency = geom_q4.adjacency.copy()
    geom.tangency_point = geom_q4.tangency_point.copy()
    geom.adjacency[[a, b], [b, a]] = False
    geom.tangency_point[[a, b], [b, a]] = -1
    with pytest.raises(AssertionError, match="not an equivalence"):
        _build_rosettes(geom)


@pytest.mark.parametrize("name", ["geom_q2", "geom_q4"])
def test_semipartial_axioms_hold_exhaustively(request, name):
    rep = verify_semipartial(request.getfixturevalue(name))
    assert rep["pass"]
    assert rep["mode"] == "full"


def test_semipartial_sampled_mode(geom_q8):
    geom = geom_q8
    rep = verify_semipartial(geom, sample=20000, seed=2)
    assert rep["pass"]
    assert rep["mode"] == "sampled"
    # whole pencils are sampled, n_ovoids - q non-member pairs per pencil
    n, q = geom.n_ovoids, geom.model.ctx.q
    assert rep["pairs_checked"] == (20000 // n) * (n - q)


def test_common_tangent_laws_exhaustive(geom_q2):
    rep = verify_common_tangent_counts(geom_q2)
    assert rep["pass"]
    assert rep["cases_checked"] > 0


def test_common_tangents_through_sampled(geom_q4):
    geom = geom_q4
    rng = np.random.default_rng(9)
    n = geom.n_ovoids
    checked = 0
    while checked < 60:
        a, b = map(int, rng.integers(0, n, size=2))
        if a == b:
            continue
        pa, pb = set(geom.ovoids[a].points), set(geom.ovoids[b].points)
        tangent = bool(geom.adjacency[a, b])
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
    assert len(rows) - 1 == len(geom_q2.rosettes)
    for row in rows[1:]:
        r = geom_q2.rosettes[int(row[0])]
        assert int(row[1]) == r.base
        assert tuple(int(m) for m in row[2].split()) == r.members
