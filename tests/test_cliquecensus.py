"""Tangency graph census: strong regularity, clique counts, spectra."""

import copy
import sys
import threading
from itertools import combinations

import numpy as np
import pytest

import census_oracle
from census_oracle import (
    SplitMix64,
    bk_neighborhood_spectrum,
    bk_spectrum,
    boolean_census,
    classify_clique,
    flat_bits,
    flat_completion_rows,
    maximal_cliques,
    pair_srg_values,
)
from memory_peak import traced_peak
from ovoid_oracle import loop_rosette_maximality, tangency_points
from tangency_oracle import boolean_srg, tangency_matrix
from quadcover import cliquecensus, ovoid
from quadcover.cliquecensus import (
    census,
    edge_keys,
    edge_list,
    export_edges_csv,
    formula_n3,
    formula_n4,
    formula_n5,
    formula_n6,
    formula_srg_params,
    rosette_maximality,
    sampled_edge_keys,
    splitmix_below,
    upper_pairs,
    verify_srg,
)
from quadcover.quadric import lowest_set_bits, pack_rows, row_bits, unpack_rows


def test_formula_values():
    assert [formula_n3(q) for q in (2, 4, 8)] == [20, 16320, 9784320]
    assert [formula_n4(q) for q in (2, 4, 8)] == [15, 20400, 22014720]
    assert formula_n5(2) == 6 and formula_n5(8) == 8805888
    assert formula_n6(2) == 1 and formula_n6(8) == 1467648
    assert formula_srg_params(2) == (6, 5, 4, 4)
    assert formula_srg_params(4) == (120, 51, 18, 24)
    assert formula_srg_params(8) == (2016, 455, 70, 112)


@pytest.mark.parametrize("name,q", [("tg_q2", 2), ("tg_q4", 4), ("tg_q8", 8)])
def test_tangency_graph_shape(request, name, q):
    g = request.getfixturevalue(name)
    v, k, _, _ = formula_srg_params(q)
    assert g.shape == (v, -(-v // 64)) and g.dtype == np.uint64
    assert np.bitwise_count(g).sum() // 2 == v * k // 2


@pytest.mark.parametrize("name,q", [("tg_q4", 4), ("tg_q8", 8)])
def test_strong_regularity_exhaustive(request, name, q):
    rep = verify_srg(request.getfixturevalue(name))
    assert rep["pass"]
    v, k, lam, mu = formula_srg_params(q)
    assert (rep["v"], rep["k"], rep["lambda"], rep["mu"]) == (v, k, lam, mu)
    assert rep["feasibility_ok"]
    assert not rep["mu_vacuous"]
    assert rep["pairs_checked"] == v * (v - 1) // 2


def _boolean(request, tname):
    """The boolean matrix of the tangency graph fixture tname (tg_q*)."""
    return request.getfixturevalue(tname.replace("tg_", "adj_"))


def _cycle(n):
    A = np.zeros((n, n), dtype=bool)
    i = np.arange(n)
    A[i, (i + 1) % n] = A[(i + 1) % n, i] = True
    return A


def _edge_removed(A):
    A = A.copy()
    i, j = np.argwhere(A)[0]
    A[i, j] = A[j, i] = False
    return A


def _loop_added(A):
    A = A.copy()
    A[3, 3] = True
    return A


def _random_symmetric(n, seed):
    A = np.random.default_rng(seed).random((n, n)) < 0.3
    return A | A.T          # loops where the draw hit the diagonal


def _one_way(A):
    """A with one entry (b, a) of an edge a < b cleared, a and b in one
    group of four columns: one lane column of verify_srg at q = 4, where a
    one-row block of row b starts its first lane column at a or before."""
    A = A.copy()
    a, b = next((a, b) for a, b in np.argwhere(np.triu(A, 1)) if a // 4 == b // 4)
    A[b, a] = False
    return A


def _random(n, p, seed, loops, bits):
    """A random symmetric graph on n vertices whose largest degree has bit
    length ``bits``: verify_srg packs 24 // bits counts in a float32 lane."""
    A = np.random.default_rng(seed).random((n, n)) < p
    A = np.triu(A, 0 if loops else 1)
    A |= A.T
    assert int(A.sum(axis=1).max()).bit_length() == bits
    return A


SRG_CASES = [
    # name, the graph made from the q = 4 tangency graph, whether it passes
    ("tg_q4", lambda A: A, True),
    ("tg_q4_edge_removed", _edge_removed, False),
    ("tg_q4_loop_added", _loop_added, False),
    ("tg_q4_one_way", _one_way, False),
    ("cycle_5", lambda A: _cycle(5), True),     # strongly regular (5, 2, 0, 1)
    ("cycle_6", lambda A: _cycle(6), False),    # mu in {0, 1}
    ("random_60_with_loops", lambda A: _random_symmetric(60, 3), False),
    # odd V: the last lane column holds one count of four, one of two
    ("random_61", lambda A: _random(61, 0.3, 4, False, 5), False),
    ("random_301_with_loops", lambda A: _random(301, 0.9, 5, True, 9), False),
    # 12-bit fields, two lanes: the lane sums reach 16,387,999, just below 2^24
    ("random_4001_with_loops", lambda A: _random(4001, 0.998, 6, True, 12), False),
    # a degree of at least 4096: one count a lane
    ("random_4201", lambda A: _random(4201, 0.99, 7, False, 13), False),
]
# The two large graphs run at the shipped budget only, which cuts them into
# ragged blocks of 131 and 124 rows, and skip the pair-by-pair loop.
LARGE_SRG_CASES = ("random_4001_with_loops", "random_4201")
SRG_RUNS = [pytest.param(name, make, passes, block, id=f"{name}-{block}")
            for name, make, passes in SRG_CASES
            for block in (cliquecensus.SRG_BLOCK, 900, 1)
            if name not in LARGE_SRG_CASES or block == cliquecensus.SRG_BLOCK]


@pytest.mark.parametrize("name,make,passes,block", SRG_RUNS)
def test_srg_verdict_matches_the_pair_oracle(monkeypatch, adj_q4, name, make, passes, block):
    # block 900 splits the 120 rows at q = 4 into blocks of 7, the last
    # ragged, and block 1 takes one row a block: at q = 4 (four counts a
    # lane) both start blocks inside a lane column
    monkeypatch.setattr(cliquecensus, "SRG_BLOCK", block)
    A = make(adj_q4)
    rep = verify_srg(pack_rows(A))
    assert rep == boolean_srg(A)
    # the pair oracle reads A @ A, which is the A A^T of verify_srg only
    # for a symmetric A
    if name not in LARGE_SRG_CASES and np.array_equal(A, A.T):
        want = pair_srg_values(A)
        assert {key: rep[key] for key in want} == want
    assert rep["pass"] == passes


def test_srg_report_does_not_depend_on_the_block_on_a_one_way_table(monkeypatch, adj_q4):
    # each pair is keyed once, from the upper triangle, so the entry left
    # below the diagonal of a block's square is never read as a pair
    A = _one_way(adj_q4)
    reports = []
    for block in (cliquecensus.SRG_BLOCK, 900, 1):
        monkeypatch.setattr(cliquecensus, "SRG_BLOCK", block)
        reports.append(verify_srg(pack_rows(A)))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["mu_values"] == [23, 24]


def test_srg_degenerates_to_complete_graph_at_q2(tg_q2):
    rep = verify_srg(tg_q2)
    assert rep["pass"]
    assert rep["mu_vacuous"]
    assert (rep["v"], rep["k"], rep["lambda"]) == (6, 5, 4)


def test_verify_srg_peak_stays_below_18_mib(tg_q8):
    # the lane-packed right operand (V^2 4 / L bytes, 8 MB at q = 8 with two
    # counts a lane) and one block of SRG_BLOCK counts: its unpacked rows,
    # their float copy, the lanes of its product and the keys
    rep, peak = traced_peak(lambda: verify_srg(tg_q8))
    assert rep["pass"]
    assert peak < 18 * 2 ** 20


@pytest.mark.parametrize("cname", ["census_q2", "census_q4"])
def test_triangle_total_matches_matrix_trace(request, cname):
    rep = request.getfixturevalue(cname)
    g = request.getfixturevalue({"census_q2": "adj_q2", "census_q4": "adj_q4"}[cname])
    af = g.astype(np.float64)
    assert int(np.trace(af @ af @ af)) == 6 * (rep.linear_triangles + rep.n3)


def test_triangle_classification_matches_brute_force(geom_q4, adj_q4, census_q4):
    A, tp = adj_q4, tangency_points(geom_q4)
    lin = nl = 0
    for a in range(geom_q4.n_ovoids):
        for b in np.nonzero(A[a])[0]:
            if b <= a:
                continue
            cs = np.nonzero(A[a] & A[b])[0]
            for c in cs[cs > b]:
                if tp[a, b] == tp[a, c] == tp[b, c]:
                    lin += 1
                else:
                    nl += 1
    assert (lin, nl) == (census_q4.linear_triangles, census_q4.n3)


def _bits(x):
    while x:
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb


def _count_k4_bitmask(adj):
    n = len(adj)
    rows = [int.from_bytes(np.packbits(adj[i], bitorder="little").tobytes(), "little")
            for i in range(n)]
    total = 0
    for a in range(n):
        above_a = rows[a] >> (a + 1) << (a + 1)
        for b in _bits(above_a):
            mab = rows[b] & above_a
            for c in _bits(mab >> (b + 1) << (b + 1)):
                total += ((mab & rows[c]) >> (c + 1)).bit_count()
    return total


@pytest.mark.parametrize("cname,gname", [("census_q2", "tg_q2"), ("census_q4", "tg_q4")])
def test_four_clique_totals_match_bitmask_brute_force(request, cname, gname):
    rep = request.getfixturevalue(cname)
    g = _boolean(request, gname)
    q = rep.q
    n_linear_k4 = len(request.getfixturevalue(
        {"census_q2": "geom_q2", "census_q4": "geom_q4"}[cname]).pencil_base) \
        * (1 if q >= 4 else 0)  # C(q, 4) pencil subsets: 1 at q=4, 0 at q=2
    assert _count_k4_bitmask(g) == rep.n4 + n_linear_k4


def test_census_values_q2(census_q2):
    rep = census_q2
    assert (rep.linear_triangles, rep.n3, rep.n4, rep.n5, rep.n6) == (0, 20, 15, 6, 1)
    assert rep.spectrum == [6]
    assert rep.spectrum_by_kind == {"linear": [], "nonlinear": [6]}
    assert rep.linear_max_cliques == 0
    assert rep.extension_counts == {"3to4": [3], "4to5": [2], "4to6": [1]}
    assert rep.no_mixed and rep.ok
    assert all(rep.identities.values())


def test_census_values_q4(census_q4):
    rep = census_q4
    assert (rep.linear_triangles, rep.n3, rep.n4) == (2040, 16320, 20400)
    assert (rep.n5, rep.n6) == (0, 0)
    assert rep.spectrum == [4]
    assert rep.spectrum_by_kind == {"linear": [4], "nonlinear": [4]}
    assert rep.linear_max_cliques == 510
    assert rep.extension_counts == {"3to4": [5], "4to5": [0], "4to6": [0]}
    assert rep.no_mixed and rep.ok
    assert all(rep.identities.values())
    assert rep.identities["n4_from_n3"]
    assert "n5_formula" not in rep.identities  # even-degree field has no 5-cliques


def test_census_report_dict(census_q4):
    d = census_q4.to_dict()
    assert d["pass"] is True
    assert "counterexample" not in d
    for key in ("q", "n", "mode", "formulas", "identities", "spectrum"):
        assert key in d


def test_collected_triangles_and_four_cliques(geom_q4, census_q4):
    tris, quads = census_q4.triangles, census_q4.cliques4
    assert tris.shape == (16320, 3)
    assert (np.diff(tris, axis=1) > 0).all()
    assert len({tuple(r) for r in tris.tolist()}) == len(tris)
    assert quads.shape == (20400, 4)
    assert (np.diff(quads, axis=1) > 0).all()
    assert len({tuple(r) for r in quads.tolist()}) == len(quads)
    rng = np.random.default_rng(0)
    for row in tris[rng.choice(len(tris), size=20, replace=False)]:
        rec = classify_clique(geom_q4, row)
        assert rec.kind == "nonlinear" and not rec.maximal
    for row in quads[rng.choice(len(quads), size=20, replace=False)]:
        rec = classify_clique(geom_q4, row)
        assert rec.kind == "nonlinear" and rec.maximal


def test_classify_clique_linear_and_errors(geom_q4, adj_q4):
    rec = classify_clique(geom_q4, geom_q4.pencil_members[0])
    assert rec.kind == "linear"
    assert rec.base == geom_q4.pencil_base[0]
    assert rec.maximal
    with pytest.raises(ValueError):
        classify_clique(geom_q4, [0])
    non_adj = next((a, b) for a in range(geom_q4.n_ovoids)
                   for b in range(a + 1, geom_q4.n_ovoids)
                   if not adj_q4[a, b])
    with pytest.raises(ValueError):
        classify_clique(geom_q4, non_adj)


def test_sampled_census_is_deterministic(tg_q4, geom_q4):
    r1 = census(tg_q4, geom_q4, mode="sampled", seed=7, n_samples=400)
    r2 = census(tg_q4, geom_q4, mode="sampled", seed=7, n_samples=400)
    assert r1.to_dict() == r2.to_dict()
    assert r1.ok
    assert r1.edges_checked == 400
    assert r1.n3 is None  # sampled mode checks laws, not totals


def test_sampled_census_q8(census_q8_sampled):
    rep = census_q8_sampled
    assert rep.mode == "sampled" and rep.ok
    assert rep.counterexample is None
    assert rep.extension_counts == {"3to4": [9], "4to5": [2], "4to6": [1]}


def _assert_same_census(rep, ref):
    assert rep.to_dict() == ref.to_dict()
    for got, want in ((rep.triangles, ref.triangles), (rep.cliques4, ref.cliques4)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)  # row for row, same order


@pytest.mark.parametrize("cname,gname,tname", [("census_q2", "geom_q2", "tg_q2"),
                                               ("census_q4", "geom_q4", "tg_q4")])
def test_full_census_matches_boolean_oracle(request, cname, gname, tname):
    ref = boolean_census(_boolean(request, tname),
                         request.getfixturevalue(gname), collect=True)
    _assert_same_census(request.getfixturevalue(cname), ref)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_q8_census_matches_boolean_oracle(tg_q8, adj_q8, geom_q8, census_q8_sampled,
                                                  seed):
    kw = dict(mode="sampled", seed=seed, n_samples=4000, collect=True)
    rep = census_q8_sampled if seed == 1 else census(tg_q8, geom_q8, **kw)
    _assert_same_census(rep, boolean_census(adj_q8, geom_q8, **kw))


@pytest.mark.parametrize("tname,gname,edges", [("tg_q2", "geom_q2", 4),
                                               ("tg_q4", "geom_q4", 3)])
def test_full_census_in_ragged_s_blocks_matches_boolean_oracle(monkeypatch, request,
                                                               tname, gname, edges):
    # S gathered a few edges at a time: 15 = 3 * 4 + 3 edges at q = 2, and
    # batches of 512 = 170 * 3 + 2 edges at q = 4, the last of them 500 long
    A, geom = request.getfixturevalue(tname), request.getfixturevalue(gname)
    q = geom.model.ctx.q
    ref = boolean_census(tangency_matrix(geom), geom, collect=True)
    monkeypatch.setattr(cliquecensus, "S_BLOCK", edges * q ** 4)
    _assert_same_census(census(A, geom, collect=True), ref)


def test_sampled_q8_census_in_ragged_s_blocks_matches_boolean_oracle(monkeypatch, tg_q8,
                                                                     adj_q8, geom_q8):
    # 100 edges a step: batches of 128 = 100 + 28 edges, the last of them 88
    kw = dict(mode="sampled", seed=5, n_samples=600, collect=True)
    ref = boolean_census(adj_q8, geom_q8, **kw)
    monkeypatch.setattr(cliquecensus, "S_BLOCK", 100 * 64 * 64)
    _assert_same_census(census(tg_q8, geom_q8, **kw), ref)


def test_sampled_census_peak_stays_below_24_mib(tg_q8, geom_q8):
    # the 3.7 MB of edge keys (twice while their row blocks are joined) and
    # one batch for each running thread, the main thread and at most
    # MAX_WORKERS workers; the S gather index is at most S_BLOCK int64 entries
    _, peak = traced_peak(lambda: census(tg_q8, geom_q8, mode="sampled", seed=1, n_samples=4000))
    assert peak < 24 * 2 ** 20


def _cpus(monkeypatch, n):
    """Let census_workers see n CPUs."""
    monkeypatch.setattr(cliquecensus.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(cliquecensus.os, "cpu_count", lambda: n)


@pytest.mark.parametrize("cpus,workers", [(1, 0), (2, 1), (32, 1), (256, 1)])
def test_census_workers_are_capped(monkeypatch, cpus, workers):
    _cpus(monkeypatch, cpus)
    assert cliquecensus.census_workers() == workers


def test_sampled_census_peak_on_many_cpus_stays_below_24_mib(monkeypatch, tg_q8, geom_q8):
    # 32 CPUs: 4,000 edges make 32 batches of 128, enough for 31 workers,
    # of which MAX_WORKERS start (one batch held each)
    _cpus(monkeypatch, 32)
    started = []
    thread_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda t: (started.append(t), thread_start(t))[1])
    _, peak = traced_peak(lambda: census(tg_q8, geom_q8, mode="sampled", seed=1, n_samples=4000))
    assert len(started) == cliquecensus.MAX_WORKERS
    assert peak < 24 * 2 ** 20


def test_lowest_set_bits_against_nonzero():
    rng = np.random.default_rng(6)
    bits = rng.random((300, 64)) < rng.random((300, 1))   # densities 0..1
    bits[:40, 63] = True                                   # q = 8 uses column 63
    bits[40] = True                                        # all ones
    bits[41] = False                                       # exhausted from the start
    bits[42] = np.arange(64) == 63                         # only the top bit
    for w in (4, 16, 64):                                  # row widths at q = 2, 4, 8
        words = pack_rows(bits[:, :w])
        assert words.dtype == np.uint64 and words.shape == (300, 1)
        words = words[:, 0]
        np.testing.assert_array_equal(np.bitwise_count(words), bits[:, :w].sum(axis=1))
        pos = lowest_set_bits(words, w + 1)
        for row, p in zip(bits[:, :w], pos):
            c = row.sum()
            np.testing.assert_array_equal(p[:c], np.nonzero(row)[0])
            assert (p[c:] == 64).all()   # the sentinel fills only exhausted slots
            # census keeps positions below the row width: exactly the set bits
            np.testing.assert_array_equal(p[p < w], np.nonzero(row)[0])


@pytest.mark.parametrize("seed", [0, 1, 1288, 2**64 - 1])
def test_splitmix_draws_match_the_scalar_stream(seed):
    n = 458640                     # the edge count at q = 8
    sm = SplitMix64(seed)
    assert splitmix_below(seed, n, 5000).tolist() == [sm.randbelow(n) for _ in range(5000)]


def test_splitmix_draws_at_the_extreme_bounds():
    assert splitmix_below(7, 1, 300).tolist() == [0] * 300
    assert len(splitmix_below(7, 458640, 0)) == 0
    # 2^64 mod n = 2^63 - 1: raw draws at or above n are rejected, about
    # half of them; the state counts the raw draws
    n = 2**63 + 1
    sm = SplitMix64(1288)
    want = [sm.randbelow(n) for _ in range(2000)]
    raw = (sm.state - 1288) * pow(0x9E3779B97F4A7C15, -1, 2**64) % 2**64
    assert 1800 < raw - 2000 < 2200
    got = splitmix_below(1288, n, 2000)
    assert got.dtype == np.uint64 and got.tolist() == want


def _irregular(A, geom):
    """A copy of A with a pencil completion and a non-linear completion of
    edge 0 joined, as in `test_census_reports_a_mixed_four_clique`, the
    first pencil pair cleared and a loop at vertex 5: no longer regular, nor
    simple."""
    _, _, R, W = _edge(A, geom, 0)
    A = A.copy()
    A[[R[0], W[0]], [W[0], R[0]]] = True
    a, b = geom.pencil_members[0, :2]
    A[[a, b], [b, a]] = False
    A[5, 5] = True
    assert len(set(A.sum(axis=1).tolist())) > 1
    return A


@pytest.mark.parametrize("tname", ["tg_q2", "tg_q4", "tg_q8", "irregular_q4"])
def test_edge_list_matches_nonzero_triu(request, tname):
    if tname == "irregular_q4":
        A = _irregular(request.getfixturevalue("adj_q4"), request.getfixturevalue("geom_q4"))
    else:
        A = _boolean(request, tname)
    got, want = edge_list(pack_rows(A)), np.nonzero(np.triu(A, 1))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("tname", ["tg_q2", "tg_q4", "tg_q8", "irregular_q4"])
@pytest.mark.parametrize("block", [1, 900, 2016 * 300])
def test_edge_keys_in_row_blocks_match_flatnonzero_triu(monkeypatch, request, tname, block):
    # one row a step; 900 // V rows a step, 7 at q = 4 (the last step one
    # row long) and one at q = 8; and 300 rows a step at q = 8 (the last
    # step 216 rows long)
    if tname == "irregular_q4":
        A = _irregular(request.getfixturevalue("adj_q4"), request.getfixturevalue("geom_q4"))
    else:
        A = _boolean(request, tname)
    monkeypatch.setattr(cliquecensus, "KEY_BLOCK", block)
    got, want = edge_keys(pack_rows(A)), np.flatnonzero(np.triu(A, 1))
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [16, 64])             # completions at q = 4 and q = 8
def test_upper_pairs_against_nonzero_triu(n):
    rng = np.random.default_rng(n)
    S = np.triu(rng.random((40, n, n)) < rng.random((40, 1, 1)), 1)  # densities 0..1
    S[0] = False                                          # no pair at all
    S[1] = np.triu(np.ones((n, n), dtype=bool), 1)        # every pair
    S[2, :, n // 2:] = False                              # rows from n/2 on: no bit above
    S[3] = np.eye(n, k=1, dtype=bool)                     # one pair per row but the last
    S[4, :, n - 1] = True                                 # the last row is full below
    S |= S.transpose(0, 2, 1)
    S[:, np.arange(n), np.arange(n)] = False
    P = pack_rows(S)[..., 0]
    w, z = upper_pairs(P)
    bb, ww, zz = np.nonzero(np.triu(S, 1))
    np.testing.assert_array_equal(w, bb * n + ww)
    np.testing.assert_array_equal(z, bb * n + zz)
    # rows with no bits above them give no pair, row n - 1 among them
    empty = ~np.triu(S, 1).any(axis=2)
    assert empty[:, n - 1].all() and empty[0].all() and empty[2, n // 2:].all()
    assert not np.isin(np.flatnonzero(empty), w).any()


# from 8 on, every width the package packs: a cube's 8 points, then |Q0|, V
# and |Q| at q = 2, 4 and 8
@pytest.mark.parametrize("width", [1, 16, 63, 64, 65, 128, 240, 4032, 8, 15, 85, 585,
                                   6, 120, 2016, 45, 325, 4617])
def test_pack_rows_across_words(width):
    rng = np.random.default_rng(width)
    S = rng.random((2, 3, width)) < 0.5
    words = pack_rows(S)
    assert words.dtype == np.uint64 and words.shape == (2, 3, -(-width // 64))
    # bit j % 64 of word j // 64, and no bit in the padding
    j = np.arange(64 * words.shape[-1])
    bits = (words[..., j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)
    np.testing.assert_array_equal(bits[..., :width], S)
    assert not bits[..., width:].any()
    # any nonzero byte sets its bit, as in the masked bytes the census packs
    masked = S * rng.integers(1, 256, S.shape).astype(np.uint8)
    np.testing.assert_array_equal(pack_rows(masked), words)
    # unpack_rows and row_bits read the same bits back
    np.testing.assert_array_equal(unpack_rows(words, width), S)
    rows = words.reshape(6, -1)
    got = row_bits(rows, np.arange(6)[:, None], np.arange(width))
    np.testing.assert_array_equal(got != 0, S.reshape(6, width))


def test_census_input_validation(tg_q2, geom_q2):
    with pytest.raises(ValueError):
        census(tg_q2, geom_q2, mode="sampled")
    with pytest.raises(ValueError):
        census(tg_q2, geom_q2, mode="everything")


@pytest.mark.parametrize("n_samples", [0, -1])
def test_sampled_census_that_would_check_nothing_is_refused(tg_q2, geom_q2, n_samples):
    # a census of no edge would report pass: true having checked nothing
    with pytest.raises(ValueError, match="n_samples >= 1"):
        census(tg_q2, geom_q2, mode="sampled", seed=1, n_samples=n_samples)


@pytest.mark.parametrize("n,count", [(1, -1), (100, -1), (458640, -5000)])
def test_splitmix_refuses_a_negative_count(n, count):
    # a negative count made the draw loop run for ever
    with pytest.raises(ValueError, match="at least 0"):
        splitmix_below(1, n, count)


def test_rosette_maximality(tg_q2, geom_q2, tg_q4, geom_q4, tg_q8, geom_q8):
    assert rosette_maximality(tg_q2, geom_q2) == (0, 15)
    assert rosette_maximality(tg_q4, geom_q4) == (510, 510)
    assert rosette_maximality(tg_q8, geom_q8) == (16380, 16380)


def test_rosette_maximality_matches_pencil_loop(monkeypatch, adj_q2, geom_q2, adj_q4, geom_q4):
    # and on a q = 4 graph where an ovoid tangent to two members of pencil 0
    # is made tangent to all q: pencil 0 is no longer maximal, others are
    members = geom_q4.pencil_members[0]
    bent = adj_q4.copy()
    v = int(np.flatnonzero(bent[:, members].sum(axis=1) == 2)[0])
    bent[v, members] = bent[members, v] = True
    n_max, n_pencils = loop_rosette_maximality(bent, geom_q4)
    assert 0 < n_max < n_pencils
    for block in (ovoid.PENCIL_BLOCK, 7):    # 7: ragged blocks
        monkeypatch.setattr(ovoid, "PENCIL_BLOCK", block)
        for A, gx in ((adj_q2, geom_q2), (adj_q4, geom_q4), (bent, geom_q4)):
            assert rosette_maximality(pack_rows(A), gx) == loop_rosette_maximality(A, gx)


def test_rosette_maximality_does_not_count_a_members_loop(adj_q4, geom_q4):
    # a loop at ovoid 5 lifts its own count on its q^2+1 pencils to q; no
    # other ovoid is tangent to all q members, so every pencil stays maximal
    A = adj_q4.copy()
    A[5, 5] = True
    assert rosette_maximality(pack_rows(A), geom_q4) == (510, 510)
    assert loop_rosette_maximality(A, geom_q4) == (510, 510)


def test_census_raises_on_a_cleared_tangent_pair(adj_q4, geom_q4):
    A = adj_q4.copy()
    a, b = geom_q4.pencil_members[0, :2]
    A[[a, b], [b, a]] = False
    with pytest.raises(AssertionError, match="common neighbour count differs from lambda"):
        census(pack_rows(A), geom_q4)


def _edge(A, geom, e):
    """Edge e (a, b) of the tangency graph, in row-major order, with its
    pencil completions and its non-linear completions, each ascending."""
    tp = tangency_points(geom)
    iu, ju = np.nonzero(np.triu(A, 1))
    a, b = int(iu[e]), int(ju[e])
    common = np.flatnonzero(A[a] & A[b])
    on_pencil = (tp[a, common] == tp[a, b]) & (tp[b, common] == tp[a, b])
    return a, b, common[on_pencil], common[~on_pencil]


def _seed_edge(A):
    """The index of the edge that seed 1288 draws first."""
    return SplitMix64(1288).randbelow(int(np.triu(A, 1).sum()))


def _census_of_seed_edge(A, geom, edge):
    """Census of the one edge that seed 1288 draws, checked against the
    boolean kernel."""
    assert _edge(A, geom, _seed_edge(A))[:2] == edge
    kw = dict(mode="sampled", seed=1288, n_samples=1)
    rep = census(pack_rows(A), geom, **kw)
    assert rep.to_dict() == boolean_census(A, geom, **kw).to_dict()
    assert not rep.ok
    return rep


def test_census_reports_a_mixed_four_clique(adj_q4, geom_q4):
    # join a pencil completion r of the first edge (a, b) to a non-linear
    # completion w of it: {a, b, r, w} becomes a clique that is neither.
    # The new edge makes seed 1288 draw edge 0.
    a, b, R, W = _edge(adj_q4, geom_q4, 0)
    r, w = int(R[0]), int(W[0])
    A = adj_q4.copy()
    A[[r, w], [w, r]] = True
    rep = _census_of_seed_edge(A, geom_q4, (a, b))
    assert rep.counterexample == {"kind": "mixed_4_clique", "vertices": [a, b, r, w]}


def _mixed_in_several_batches(A, geom):
    """A copy of A with two mixed 4-cliques made as in
    `test_census_reports_a_mixed_four_clique`, on edge 0 and on the last edge
    whose vertices avoid edge 0's, and the edges on which a census of the
    copy reaches a report: those with no joined vertex as an end (the others
    fail the lambda law) and without both joined vertices of a pair among
    their non-linear completions (those fail the adjacent-pair count).
    Returns the copy, those edges, the ones among them with a mixed clique,
    and edge 0's clique."""
    first = _edge(A, geom, 0)
    quad0 = [first[0], first[1], int(first[2][0]), int(first[3][0])]
    for e in range(int(np.triu(A, 1).sum()) - 1, 0, -1):
        a, b, R, W = _edge(A, geom, e)
        quad = [a, b, int(R[0]), int(W[0])]
        if not set(quad) & set(quad0):
            break
    joined = [quad0[2:], quad[2:]]
    A = A.copy()
    for r, w in joined:
        A[[r, w], [w, r]] = True
    iu, ju = np.nonzero(np.triu(A, 1))
    ends = np.array(joined).ravel()
    edges, mixed = [], []
    for e in np.flatnonzero(~np.isin(iu, ends) & ~np.isin(ju, ends)).tolist():
        _, _, R, W = _edge(A, geom, e)
        if any(np.isin([r, w], W).all() for r, w in joined):
            continue
        if A[np.ix_(R, W)].any():
            mixed.append(len(edges))
        edges.append(e)
    return A, np.array(edges), mixed, quad0


@pytest.fixture(scope="module")
def mixed_q4(adj_q4, geom_q4):
    return _mixed_in_several_batches(adj_q4, geom_q4)


def test_census_keeps_the_first_mixed_four_clique(monkeypatch, mixed_q4, geom_q4):
    # the census draws the reachable edges in order (a sampled census with
    # its draws replaced), once in batches of 512 and once of 97; mixed
    # cliques turn up in several batches either way, and the report is
    # edge 0's clique both times, as in the boolean kernel
    A, edges, mixed, quad0 = mixed_q4
    assert edges[mixed[0]] == 0 and _edge(A, geom_q4, 0)[:2] == tuple(quad0[:2])
    monkeypatch.setattr(cliquecensus, "splitmix_below",
                        lambda seed, n, count: edges[:count])

    class Draws:
        def __init__(self, seed):
            self.draws = iter(edges.tolist())

        def randbelow(self, n):
            return next(self.draws)
    monkeypatch.setattr(census_oracle, "SplitMix64", Draws)
    kw = dict(mode="sampled", seed=0, n_samples=len(edges))
    reports = []
    for batch in (512, 97):
        assert len({i // batch for i in mixed}) > 2
        # BATCH counts completions, q^2 = 16 an edge
        monkeypatch.setattr(cliquecensus, "BATCH", 16 * batch)
        monkeypatch.setattr(census_oracle, "BATCH", 16 * batch)
        rep = census(pack_rows(A), geom_q4, **kw)
        assert rep.to_dict() == boolean_census(A, geom_q4, **kw).to_dict()
        reports.append(rep.to_dict())
    assert reports[0] == reports[1]
    assert not reports[0]["no_mixed"]
    assert reports[0]["counterexample"] == {"kind": "mixed_4_clique", "vertices": quad0}


def _census_per_worker_count(monkeypatch, *args, **kw):
    """The census of args, kw with 0, 1, 2 and 3 worker threads; after each
    call as many threads run as before it."""
    reports = []
    for workers in range(4):
        monkeypatch.setattr(cliquecensus, "census_workers", lambda: workers)
        before = threading.active_count()
        reports.append(census(*args, **kw))
        assert threading.active_count() == before
    return reports


@pytest.mark.parametrize("tname,gname,edges", [("tg_q2", "geom_q2", None),
                                               ("tg_q2", "geom_q2", 4),
                                               ("tg_q4", "geom_q4", None),
                                               ("tg_q4", "geom_q4", 97)])
def test_full_census_does_not_depend_on_the_worker_count(monkeypatch, request, tname,
                                                         gname, edges):
    # edges a batch: all 15 at q = 2 (no worker starts) or 4, the last
    # batch 3 long; 512 at q = 4 (6 batches) or 97 (32 batches)
    A, geom = request.getfixturevalue(tname), request.getfixturevalue(gname)
    if edges:
        monkeypatch.setattr(cliquecensus, "BATCH", edges * geom.model.ctx.q ** 2)
    ref, *reports = _census_per_worker_count(monkeypatch, A, geom, collect=True)
    assert ref.ok
    for rep in reports:
        _assert_same_census(rep, ref)


def test_census_with_fast_thread_switches_matches_one_thread(monkeypatch, tg_q4, geom_q4):
    # 765 batches of 4 edges on three workers and the main thread, switching
    # threads every microsecond: a batch taken twice or lost would change
    # the totals or the collected rows
    monkeypatch.setattr(cliquecensus, "BATCH", 4 * 16)
    monkeypatch.setattr(cliquecensus, "census_workers", lambda: 0)
    ref = census(tg_q4, geom_q4, collect=True)
    monkeypatch.setattr(cliquecensus, "census_workers", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rep = census(tg_q4, geom_q4, collect=True)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_census(rep, ref)


def test_sampled_q8_census_in_ragged_s_blocks_does_not_depend_on_the_worker_count(
        monkeypatch, tg_q8, geom_q8):
    # batches of 128 edges, S gathered 100 edges a step: 128 = 100 + 28 and
    # 600 = 4 * 128 + 88
    monkeypatch.setattr(cliquecensus, "S_BLOCK", 100 * 64 * 64)
    ref, *reports = _census_per_worker_count(monkeypatch, tg_q8, geom_q8, mode="sampled",
                                             seed=5, n_samples=600, collect=True)
    assert ref.ok
    for rep in reports:
        _assert_same_census(rep, ref)


def _census_first_batch_last(monkeypatch, workers, first_edge, found, *args, **kw):
    """The census of args, kw with `workers` worker threads, in which the
    batch that starts with first_edge runs only once a later batch has
    returned a part for which found(part) holds; after the call as many
    threads run as before it."""
    later = threading.Event()
    kernel = cliquecensus._census_batch

    def first_batch_last(T, member, q, n_odd, a, b, collect):
        first = (a[0], b[0]) == tuple(first_edge)
        if first:
            assert later.wait(timeout=60)
        part = kernel(T, member, q, n_odd, a, b, collect)
        if found(part) and not first:
            later.set()
        return part
    monkeypatch.setattr(cliquecensus, "_census_batch", first_batch_last)
    monkeypatch.setattr(cliquecensus, "census_workers", lambda: workers)
    before = threading.active_count()
    rep = census(*args, **kw)
    assert threading.active_count() == before
    assert later.is_set()
    return rep


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_mixed_clique_wins_whichever_thread_finds_one_first(monkeypatch, mixed_q4,
                                                                   geom_q4, workers):
    # batches of 97 edges; the batch of edge 0 waits until a later batch has
    # found its own mixed clique, and edge 0's clique is still reported
    A, edges, _, quad0 = mixed_q4
    A = pack_rows(A)
    monkeypatch.setattr(cliquecensus, "splitmix_below",
                        lambda seed, n, count: edges[:count])
    monkeypatch.setattr(cliquecensus, "BATCH", 16 * 97)
    kw = dict(mode="sampled", seed=0, n_samples=len(edges))
    ref = _census_per_worker_count(monkeypatch, A, geom_q4, **kw)[0]
    assert ref.counterexample == {"kind": "mixed_4_clique", "vertices": quad0}
    rep = _census_first_batch_last(monkeypatch, workers, quad0[:2],
                                   lambda part: part.mixed is not None, A, geom_q4, **kw)
    assert rep.to_dict() == ref.to_dict()


def _rejoined_completion(A, geom):
    """A copy of A in which completion W[0] of the edge (a, b) that seed
    1288 draws trades a tangent completion W[i] for a non-tangent one W[j],
    and (a, b, W, i, j)."""
    a, b, _, W = _edge(A, geom, _seed_edge(A))
    S = A[np.ix_(W, W)]
    i = int(np.flatnonzero(S[0])[0])
    j = int(np.flatnonzero(~S[0, 1:])[0]) + 1
    A = A.copy()
    A[[W[0], W[i]], [W[i], W[0]]] = False
    A[[W[0], W[j]], [W[j], W[0]]] = True
    return A, (a, b, W, i, j)


def test_census_reports_a_triangle_extension(adj_q4, geom_q4):
    # the adjacent-pair total stays the same, but {a, b, W[i]} now has q
    # four-cliques over it and {a, b, W[j]} has q + 2
    q = 4
    A, (a, b, W, i, j) = _rejoined_completion(adj_q4, geom_q4)
    rep = _census_of_seed_edge(A, geom_q4, (a, b))
    first = min(i, j)
    assert rep.counterexample == {"kind": "triangle_extension",
                                  "triangle": [a, b, int(W[first])],
                                  "got": q if first == i else q + 2}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_other_counterexample_wins_whichever_thread_finds_one_first(
        monkeypatch, adj_q4, geom_q4, workers):
    # every edge away from W[0], W[i] and W[j] that has all three as common
    # neighbours reports a triangle extension of its own.  One edge a
    # batch; the first batch waits until a later one has found its own.
    A, (_, _, W, i, j) = _rejoined_completion(adj_q4, geom_q4)
    three = [W[0], W[i], W[j]]
    iu, ju = np.nonzero(np.triu(A, 1))
    edges = np.flatnonzero((A[iu][:, three] & A[ju][:, three]).all(axis=1)
                           & ~np.isin(iu, three) & ~np.isin(ju, three))
    assert len(edges) > 2
    monkeypatch.setattr(cliquecensus, "splitmix_below",
                        lambda seed, n, count: edges[:count])
    monkeypatch.setattr(cliquecensus, "BATCH", 16)
    kw = dict(mode="sampled", seed=0, n_samples=len(edges))
    T = pack_rows(A)
    ref = _census_per_worker_count(monkeypatch, T, geom_q4, **kw)[0]
    first = [int(iu[edges[0]]), int(ju[edges[0]])]
    assert ref.counterexample["kind"] == "triangle_extension"
    assert ref.counterexample["triangle"][:2] == first
    rep = _census_first_batch_last(monkeypatch, workers, first,
                                   lambda part: part.other is not None, T, geom_q4, **kw)
    assert rep.to_dict() == ref.to_dict()


def _switched_completion_pairs(A, geom):
    """A copy of A in which tangent pairs (w1, z1), (w2, z2) among the
    non-linear completions W of the edge (a, b) that seed 1288 draws are
    switched to (w1, z2), (w2, z1), so that the completions are no longer
    triangle-free, and (a, b, W, T), T the new adjacency among W."""
    a, b, _, W = _edge(A, geom, _seed_edge(A))
    S = A[np.ix_(W, W)]
    assert not (S.astype(int) @ S.astype(int) * S).any()
    for (w1, z1), (w2, z2) in combinations(np.argwhere(np.triu(S)).tolist(), 2):
        if len({w1, z1, w2, z2}) < 4 or S[w1, z2] or S[w2, z1]:
            continue
        T = S.copy()
        T[[w1, z1, w2, z2], [z1, w1, z2, w2]] = False
        T[[w1, z2, w2, z1], [z2, w1, z1, w2]] = True
        if (T.astype(int) @ T.astype(int) * T).any():
            break
    else:
        pytest.fail("no switch of two tangent pairs makes a triangle")
    A = A.copy()
    A[np.ix_(W, W)] = T
    return A, (a, b, W, T)


def test_census_reports_a_four_clique_five_extension(adj_q4, geom_q4):
    # every completion keeps q + 1 tangent ones, but some 4-clique through
    # the edge gains a 5-extension (even degree allows none)
    A, (a, b, W, T) = _switched_completion_pairs(adj_q4, geom_q4)
    rep = _census_of_seed_edge(A, geom_q4, (a, b))
    # the first adjacent pair w < z, in row-major order, with a common neighbour
    w, z = next((w, z) for w, z in np.argwhere(np.triu(T)).tolist()
                if (T[w] & T[z]).any())
    assert rep.counterexample == {"kind": "four_clique_five_extension",
                                  "clique": [a, b, int(W[w]), int(W[z])],
                                  "got": int((T[w] & T[z]).sum())}


def _assert_seed_edge_raises(A, geom, edge, message):
    """Census of the one edge that seed 1288 draws raises message, as the
    boolean kernel does."""
    assert _edge(A, geom, _seed_edge(A))[:2] == edge
    kw = dict(mode="sampled", seed=1288, n_samples=1)
    for kernel, table in ((census, pack_rows(A)), (boolean_census, A)):
        with pytest.raises(AssertionError) as err:
            kernel(table, geom, **kw)
        assert str(err.value) == message


def test_census_raises_on_an_extra_pencil_completion(adj_q4, geom_q4):
    # a non-linear completion w of the sampled edge (a, b) moved from its
    # tangency points with a and b to their common point p, in the
    # membership matrix that the census reads and in the point sets that
    # the boolean kernel reads: q - 1 pencil completions
    a, b, _, W = _edge(adj_q4, geom_q4, _seed_edge(adj_q4))
    w = int(W[0])
    tp = tangency_points(geom_q4)
    sect_index = geom_q4.model.section_index
    geom = copy.copy(geom_q4)
    geom.ovoid_points = geom_q4.ovoid_points.copy()
    geom.member_matrix = geom_q4.member_matrix.copy()
    row = geom.ovoid_points[w]
    row[np.isin(row, [tp[a, w], tp[b, w]])] = tp[a, b]
    geom.member_matrix[w] = False
    geom.member_matrix[w, sect_index[row]] = True
    _assert_seed_edge_raises(adj_q4, geom, (a, b),
                             "pencil completion count differs from q-2")


def _missing_completion_pair(A, geom):
    """A copy of A in which the tangent completions W[0], W[i] of the edge
    (a, b) that seed 1288 draws are non-tangent, one pair short of the
    uniform count, and (a, b).  A new edge in row min(W[0], W[i]), away
    from a, b and the completions, keeps the edge count and the position of
    (a, b), so seed 1288 still draws it."""
    A = A.copy()
    a, b, _, W = _edge(A, geom, _seed_edge(A))
    S = A[np.ix_(W, W)]
    i = int(np.flatnonzero(S[0])[0])
    u = int(min(W[0], W[i]))
    free = ~A[u] & (np.arange(len(A)) > u)
    free[[a, b, *W]] = False
    v = int(np.flatnonzero(free)[0])
    A[[W[0], W[i]], [W[i], W[0]]] = False
    A[[u, v], [v, u]] = True
    return A, (a, b)


def test_census_raises_on_a_missing_completion_pair(adj_q4, geom_q4):
    A, edge = _missing_completion_pair(adj_q4, geom_q4)
    _assert_seed_edge_raises(A, geom_q4, edge,
                             "adjacent-pair count among completions not uniform")


def _gather_case(request, case):
    """The graph, geometry and census arguments of one packed-gather diff
    case, and the edge indices its sampled census draws (None: the draws
    of its seed).  The corrupted graphs are those of the counterexample
    tests; their census draws the seed edge, whose completions the
    corruption edits, seven times over."""
    tg, geom = request.getfixturevalue("adj_q4"), request.getfixturevalue("geom_q4")
    if case == "q4_mixed":
        A, edges = request.getfixturevalue("mixed_q4")[:2]
        return A, geom, dict(mode="sampled", seed=0, n_samples=len(edges)), edges
    corrupt = {"q4_triangle_extension": _rejoined_completion,
               "q4_five_extension": _switched_completion_pairs,
               "q4_missing_pair": _missing_completion_pair}.get(case)
    if corrupt:
        A = corrupt(tg, geom)[0]
        return A, geom, dict(mode="sampled", seed=0, n_samples=7), [_seed_edge(A)] * 7
    q = int(case[1:])
    A, geom = request.getfixturevalue(f"adj_q{q}"), request.getfixturevalue(f"geom_q{q}")
    if q == 8:
        return A, geom, dict(mode="sampled", seed=5, n_samples=600, collect=True), None
    return A, geom, dict(collect=True), None


@pytest.mark.parametrize("edges", [None, 3])   # S_BLOCK as shipped, or 3 edges a step
@pytest.mark.parametrize("case", ["q2", "q4", "q8", "q4_mixed", "q4_triangle_extension",
                                  "q4_five_extension", "q4_missing_pair"])
def test_packed_gathers_match_the_flat_gathers(monkeypatch, request, case, edges):
    # every gather the census makes, from the cross block to each S step,
    # is diffed against the flat boolean gather of the same indices; a
    # census that a corruption makes raise has diffed its gathers first
    A, geom, kw, draws = _gather_case(request, case)
    if draws is not None:
        draws = np.array(draws)
        monkeypatch.setattr(cliquecensus, "splitmix_below",
                            lambda seed, n, count: draws[:count])
    if edges:
        monkeypatch.setattr(cliquecensus, "S_BLOCK", edges * geom.model.ctx.q ** 4)
    bits, rows = cliquecensus.row_bits, cliquecensus.completion_rows
    diffs = []

    def diffed_bits(T, r, c):
        got = bits(T, r, c)
        diffs.append(("bits", got.shape == np.broadcast_shapes(r.shape, c.shape)
                      and np.array_equal(got != 0, flat_bits(A, r, c))))
        return got

    def diffed_rows(T, Wi):
        got = rows(T, Wi)
        diffs.append(("rows", np.array_equal(got, flat_completion_rows(A, Wi))))
        return got
    monkeypatch.setattr(cliquecensus, "row_bits", diffed_bits)
    monkeypatch.setattr(cliquecensus, "completion_rows", diffed_rows)
    try:
        census(pack_rows(A), geom, **kw)
    except AssertionError:
        assert case == "q4_missing_pair"
    assert {name for name, _ in diffs} == {"bits", "rows"}
    assert all(same for _, same in diffs)


def _asymmetric(A):
    """A copy of A read as a directed graph: rows 0 and V/2 with no bit
    above the diagonal, row 10 with one, in its last word, a loop at
    vertex 5 and one entry flipped without its mirror."""
    V = len(A)
    A = A.copy()
    A[0, 1:] = False
    A[V // 2, V // 2 + 1:] = False
    A[10, 11:] = False
    A[10, V - 1] = True
    A[5, 5] = True
    A[20, 21] = ~A[20, 21]
    assert not np.array_equal(A, A.T)
    return A


def _rank_case(request, tname):
    if tname.startswith("asymmetric"):
        return _asymmetric(request.getfixturevalue("adj" + tname[len("asymmetric"):]))
    return _boolean(request, tname)


RANK_GRAPHS = ["tg_q2", "tg_q4", "tg_q8", "asymmetric_q4", "asymmetric_q8"]


@pytest.mark.parametrize("seed,n_samples", [(1, 1), (7, 500), (99, 4000)])
@pytest.mark.parametrize("tname", RANK_GRAPHS)
def test_sampled_edge_keys_match_the_listed_edges(request, tname, seed, n_samples):
    A = _rank_case(request, tname)
    want = edge_keys(pack_rows(A))
    E, keys = sampled_edge_keys(pack_rows(A), seed, n_samples)
    assert E == len(want)
    want = want[splitmix_below(seed, E, n_samples).astype(np.intp)]
    assert keys.dtype == want.dtype
    np.testing.assert_array_equal(keys, want)


@pytest.mark.parametrize("tname", RANK_GRAPHS)
def test_sampled_edge_keys_select_every_rank(monkeypatch, request, tname):
    # every rank from E - 1 down to 0 at q <= 4, and every 91st with the
    # two ends at q = 8; the rows without an edge above the diagonal (the
    # last row, and rows 0 and V/2 of the asymmetric graphs) own no rank
    A = _rank_case(request, tname)
    want = edge_keys(pack_rows(A))
    E = len(want)
    draws = np.concatenate([[E - 1, 0], np.arange(E)[::-max(1, E // 5000)]])
    monkeypatch.setattr(cliquecensus, "splitmix_below", lambda seed, n, count: draws[:count])
    got_E, keys = sampled_edge_keys(pack_rows(A), 0, len(draws))
    assert got_E == E
    np.testing.assert_array_equal(keys, want[draws])
    empty = np.flatnonzero(~np.triu(A, 1).any(axis=1))
    assert len(A) - 1 in empty and not np.isin(keys // len(A), empty).any()
    if tname.startswith("asymmetric"):
        assert {0, len(A) // 2} <= set(empty.tolist())


@pytest.mark.parametrize("first", ["lambda", "pairs"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_law_broken_in_a_worker_raises_the_first_failing_batch(monkeypatch, adj_q4,
                                                                 geom_q4, workers, first):
    # one edge a batch: the first fails one law and the three after it the
    # other, and the error of the first batch is raised whoever ran it
    A, pairs_edge = _missing_completion_pair(adj_q4, geom_q4)
    iu, ju = np.nonzero(np.triu(A, 1))
    lam = formula_srg_params(4)[2]
    lam_edges = np.flatnonzero((A[iu] & A[ju]).sum(axis=1) != lam)
    edges = {"lambda": lam_edges[0], "pairs": _seed_edge(A)}
    assert (iu[edges["pairs"]], ju[edges["pairs"]]) == pairs_edge
    later = edges["pairs" if first == "lambda" else "lambda"]
    draws = np.array([edges[first]] + [later] * 3)
    monkeypatch.setattr(cliquecensus, "splitmix_below", lambda seed, n, count: draws[:count])
    monkeypatch.setattr(cliquecensus, "BATCH", 16)
    kw = dict(mode="sampled", seed=0, n_samples=len(draws))
    message = {"lambda": "common neighbour count differs from lambda",
               "pairs": "adjacent-pair count among completions not uniform"}[first]
    kernel = cliquecensus._census_batch
    calls = []

    def counted(*args):
        calls.append(1)
        return kernel(*args)
    monkeypatch.setattr(cliquecensus, "_census_batch", counted)
    monkeypatch.setattr(cliquecensus, "census_workers", lambda: 0)
    with pytest.raises(AssertionError) as err:
        census(pack_rows(A), geom_q4, **kw)
    assert str(err.value) == message and len(calls) == 1

    # each thread takes one batch and waits for the others, so every thread
    # fails, each in its own batch
    everyone = threading.Barrier(workers + 1)

    def together(*args):
        everyone.wait(timeout=60)
        return counted(*args)
    monkeypatch.setattr(cliquecensus, "_census_batch", together)
    monkeypatch.setattr(cliquecensus, "census_workers", lambda: workers)
    calls.clear()
    before = threading.active_count()
    with pytest.raises(AssertionError) as err:
        census(pack_rows(A), geom_q4, **kw)
    assert str(err.value) == message
    assert threading.active_count() == before
    # and no thread takes a batch after its failure
    assert len(calls) == workers + 1


def test_maximal_cliques_on_small_graphs():
    cycle4 = np.array([[0, 1, 0, 1],
                       [1, 0, 1, 0],
                       [0, 1, 0, 1],
                       [1, 0, 1, 0]], dtype=bool)
    found = sorted(tuple(sorted(c)) for c in maximal_cliques(cycle4))
    assert found == [(0, 1), (0, 3), (1, 2), (2, 3)]
    tri_pendant = np.zeros((4, 4), dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        tri_pendant[a, b] = tri_pendant[b, a] = True
    found = sorted(tuple(sorted(c)) for c in maximal_cliques(tri_pendant))
    assert found == [(0, 1, 2), (2, 3)]


def test_independent_maximal_clique_spectra(adj_q2, adj_q4):
    assert bk_spectrum(adj_q2) == {6: 1}
    assert bk_spectrum(adj_q4) == {4: 20910}  # 20400 nonlinear + 510 pencils


def test_neighborhood_spectrum_q8(adj_q8):
    # through one ovoid: 65 pencils of size 8 and 1467648 * 6 / 2016 six-cliques
    assert bk_neighborhood_spectrum(adj_q8, 0) == {6: 4368, 8: 65}


def test_edges_csv_round_trip(tmp_path, tg_q2):
    import csv

    path = tmp_path / "edges.csv"
    export_edges_csv(tg_q2, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ovoid_a", "ovoid_b"]
    assert len(rows) - 1 == np.bitwise_count(tg_q2).sum() // 2
    for a, b in rows[1:]:
        assert row_bits(tg_q2, int(a), int(b))
