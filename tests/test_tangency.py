"""The packed tangency table against the boolean matrix it replaced.

Every reader of `OvoidGeometry.tangency` is diffed against the boolean read
it replaced (`tangency_oracle`), whole reports or raised messages, at
q = 2, 4 and 8, on the clean table and on corrupted ones: an entry cleared
without its mirror, a loop, a tangent pair of the first pencil cleared (the
grouping corruption of `test_ovoid.py`), a conic pair made tangent, and two
tangent pairs of the first two pencils swapped for two conic pairs, which
keeps every degree (as in `test_setup.py`).  The one report that is not
diffed whole is the common-tangent reader's "pencil grouping": the pencil
counts it reads stand for the per-point products only while the pencils at
each point are its tangency classes, so where a corruption breaks them the
kernel's verdict and a recount of the named pencil and ovoid are checked
instead (`check_common_tangents`).  A corrupted table is a boolean
copy, edited and installed packed.  The census corruptions are diffed in
`test_cliquecensus.py`.  The symmetry check of `build_tangency_graph` also
meets asymmetric bits in its first and last bands, and `transpose_rows` is
diffed against the transpose of the unpacked table.
"""

import copy
import csv
from dataclasses import replace

import numpy as np
import pytest

from census_oracle import boolean_census
from memory_peak import traced_peak
from ovoid_oracle import loop_rosette_maximality, point_semipartial
from tangency_oracle import (bit_unpack, boolean_adjacency_oracle, boolean_edge_keys,
                             boolean_pencils, boolean_srg, boolean_tangency_graph,
                             check_common_tangents, tangency_matrix, with_tangency)
from quadcover import cliquecensus
from quadcover.cliquecensus import (build_tangency_graph, census, edge_keys, edge_list,
                                    export_edges_csv, rosette_maximality, verify_srg)
from quadcover.covering import verify_adjacency_oracle
from quadcover.ovoid import _build_rosettes, verify_semipartial
from quadcover.quadric import pack_rows, row_bits, transpose_rows, unpack_rows


def _one_way(A, geom):
    a, b = geom.pencil_members[0, :2]
    A[a, b] = False


def _loop(A, geom):
    A[5, 5] = True


def _cleared_pair(A, geom):
    a, b = geom.pencil_members[0, :2]
    A[[a, b], [b, a]] = False


def _added_pair(A, geom):
    a = geom.pencil_members[0, 0]
    b = int(np.flatnonzero(~A[a])[1])        # [0] is a itself
    A[[a, b], [b, a]] = True


def _swapped(A, geom):
    first, second = geom.pencil_members[:2, :2].tolist()   # both at the first point
    for u, v, tangent in ((first[0], first[1], False), (second[0], second[1], False),
                          (first[0], second[0], True), (first[1], second[1], True)):
        A[[u, v], [v, u]] = tangent


CORRUPTIONS = {"clean": None, "one_way": _one_way, "loop": _loop,
               "cleared_pair": _cleared_pair, "added_pair": _added_pair,
               "swapped": _swapped}
# at q = 2 the graph is complete, with one pencil at each point
CASES = [f"q{q}_{name}" for q in (2, 4, 8) for name in CORRUPTIONS
         if q > 2 or name not in ("added_pair", "swapped")]


@pytest.fixture(scope="module")
def tables():
    return {}


@pytest.fixture(params=CASES)
def case(request, tables):
    """(name, geometry, boolean matrix, packed table, covering) of one case."""
    name = request.param
    if name not in tables:
        q, corruption = name[1:].split("_", 1)
        geom = request.getfixturevalue(f"geom_q{q}")
        cov = request.getfixturevalue(f"cov_q{q}")
        A = tangency_matrix(geom)
        if CORRUPTIONS[corruption]:
            CORRUPTIONS[corruption](A, geom)
            assert not np.array_equal(A, tangency_matrix(geom))
        bad = with_tangency(geom, A)
        tables[name] = (name, bad, A, bad.tangency, replace(cov, geom=bad))
    return tables[name]


def _outcome(f, *args, **kw):
    """f(*args, **kw), or the message of the AssertionError it raises."""
    try:
        return f(*args, **kw)
    except AssertionError as err:
        return ("raised", str(err))


def test_unpack_rows_and_row_bits_read_the_boolean_matrix(case):
    _, geom, A, T, _ = case
    V = len(A)
    np.testing.assert_array_equal(unpack_rows(T, V), A)
    np.testing.assert_array_equal(pack_rows(A), T)
    np.testing.assert_array_equal(row_bits(T, np.arange(V)[:, None], np.arange(V)) != 0, A)
    for a, b in ((0, V - 1), (V - 1, 0), (5, 5), *geom.pencil_members[:2, :2].tolist()):
        assert bool(row_bits(T, a, b)) == A[a, b]


def test_build_tangency_graph_matches_the_boolean_checks(case):
    _, geom, A, T, _ = case
    got, want = _outcome(build_tangency_graph, geom), _outcome(boolean_tangency_graph, geom)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got is T and np.array_equal(unpack_rows(got, len(A)), want)
    # only the clean and the degree-keeping tables are simple regular graphs
    assert case[0].endswith(("clean", "swapped")) == (not isinstance(got, tuple))


def test_verify_srg_matches_the_boolean_products(case):
    _, _, A, T, _ = case
    assert verify_srg(T) == boolean_srg(A)


def test_edge_keys_and_csv_match_the_boolean_scan(tmp_path, case):
    name, _, A, T, _ = case
    want = boolean_edge_keys(A)
    got = edge_keys(T)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    for g, w in zip(edge_list(T), np.nonzero(np.triu(A, 1))):
        np.testing.assert_array_equal(g, w)
    if name.startswith("q8"):
        return                  # 458,640 rows of CSV: 2 s a case
    path = tmp_path / "edges.csv"
    export_edges_csv(T, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["ovoid_a", "ovoid_b"]] + [[str(a), str(b)]
                                               for a, b in zip(*np.nonzero(np.triu(A, 1)))]


def test_sampled_census_matches_the_boolean_census(case):
    _, geom, A, T, _ = case
    kw = dict(mode="sampled", seed=11, n_samples=300, collect=True)
    got, want = _outcome(census, T, geom, **kw), _outcome(boolean_census, A, geom, **kw)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.to_dict() == want.to_dict()
        np.testing.assert_array_equal(got.triangles, want.triangles)
        np.testing.assert_array_equal(got.cliques4, want.cliques4)


def test_pencil_counts_match_the_boolean_loops(case):
    _, geom, A, T, _ = case
    assert verify_semipartial(geom) == point_semipartial(geom)
    assert rosette_maximality(T, geom) == loop_rosette_maximality(A, geom)


def test_build_rosettes_matches_the_boolean_takes(case):
    _, geom, _, _, _ = case
    grouped = copy.copy(geom)
    got = _outcome(lambda: _build_rosettes(grouped) or grouped.pencil_members)
    want = _outcome(boolean_pencils, geom)
    if isinstance(want, tuple):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


def test_common_tangent_counts_match_the_boolean_products(case):
    # the reader names the kernel's case where the pencils at each point
    # stay the tangency classes there; where a corruption breaks them it
    # reports the grouping
    name, geom, _, _, _ = case
    rep = check_common_tangents(geom)
    assert (rep.get("reason") == "pencil grouping") == (
        not name.endswith(("clean", "added_pair")))


def test_adjacency_oracle_matches_the_boolean_rows(case):
    cov = case[4]
    assert verify_adjacency_oracle(cov) == boolean_adjacency_oracle(cov)


def test_oracle_unpack_is_unpack_rows():
    # the oracle's unpack shares no code with unpack_rows; both against a
    # random table across word boundaries
    rng = np.random.default_rng(26)
    for n in (1, 6, 64, 65, 120, 2016):
        A = rng.random((7, n)) < 0.5
        T = pack_rows(A)
        np.testing.assert_array_equal(bit_unpack(T, n), A)
        np.testing.assert_array_equal(unpack_rows(T, n), A)
        assert unpack_rows(T).shape == (7, 64 * T.shape[1])
        assert not unpack_rows(T)[:, n:].any()


@pytest.mark.parametrize("n", [1, 6, 63, 64, 65, 120, 130, 2016])
def test_transpose_rows_is_the_unpacked_transpose(n):
    # random and symmetric square tables, across word and band boundaries;
    # the transpose's padding bits are zero
    rng = np.random.default_rng(n)
    A = rng.random((n, n)) < 0.5
    for M in (A, A | A.T):
        w = pack_rows(M)
        got = transpose_rows(w)
        np.testing.assert_array_equal(got, pack_rows(unpack_rows(w, n).T))
        assert got.shape == w.shape and not unpack_rows(got)[:, n:].any()


def _first_word(A):
    A[0, 1] = not A[0, 1]


def _last_band(A):
    A[-1, -32] = not A[-1, -32]


def _last_loop(A):
    A[-1, -1] = True


@pytest.mark.parametrize("bands", [None, 1])
@pytest.mark.parametrize("corruption", [_first_word, _last_band, _last_loop],
                         ids=lambda f: f.__name__[1:])
def test_build_tangency_graph_rejects_what_the_boolean_checks_reject(
        monkeypatch, geom_q8, adj_q8, corruption, bands):
    """One asymmetric bit in the first word; one asymmetric bit between rows
    1,984 and 2,015 (the last, half-filled band); and a loop at the last
    ovoid.  The bands are compared KEY_BLOCK entries or one band at a time."""
    if bands:
        monkeypatch.setattr(cliquecensus, "KEY_BLOCK", 64 * len(adj_q8) * bands)
    A = adj_q8.copy()
    corruption(A)
    geom = with_tangency(geom_q8, A)
    got, want = _outcome(build_tangency_graph, geom), _outcome(boolean_tangency_graph, geom)
    assert got == want == ("raised", "tangency matrix is not a simple graph")


@pytest.mark.parametrize("name", ["model", "geom"])
@pytest.mark.parametrize("q", [4, 8])
def test_no_v_by_v_array_is_held(request, name, q):
    obj = request.getfixturevalue(f"{name}_q{q}")
    V = q * q * (q * q - 1) // 2
    shapes = {key: value.shape for key, value in vars(obj).items()
              if isinstance(value, np.ndarray)}
    assert shapes and (V, V) not in shapes.values()
    if name == "geom":
        assert shapes["tangency"] == (V, -(-V // 64))
        assert "adjacency" not in vars(obj)


def test_build_tangency_graph_peak_stays_below_10_mib(geom_q8):
    # the unpacked matrix and its transposed compare, 4 MB each
    _, peak = traced_peak(lambda: build_tangency_graph(geom_q8))
    assert peak < 10 * 2 ** 20


def test_build_tangency_graph_peak_stays_below_3_mib(geom_q8):
    # the diagonal bits and one transposed band step of the 0.5 MB table
    _, peak = traced_peak(lambda: build_tangency_graph(geom_q8))
    assert peak < 3 * 2 ** 20
