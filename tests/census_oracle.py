"""Reference census: the boolean-matrix kernel that `quadcover.cliquecensus.census`
replaced with bit-packed completion rows, and an independent pivoting clique
search.

Kept only as an oracle for the diff tests in `test_cliquecensus.py`.  It
gathers the completion adjacency S as a dense boolean array, lists adjacent
completion pairs with ``nonzero(triu(S))`` and counts the 4->5 and 4->6
extensions through a dense ``B x q^2 x q^2(q+1)/2`` gather.  It lists the
edges with ``nonzero(triu(A, 1))`` and draws sampled edges one at a time
from the scalar `SplitMix64`, the stream the shipped kernel draws in arrays.
Checks, counterexamples and the report are those of the shipped kernel.

`flat_bits` and `flat_completion_rows` are the gathers that the census
made from the flat boolean adjacency, at row * V + col, before it read the
bit-packed rows through `bitrows.row_bits` and `completion_rows`.

`pair_srg_values` reads the common-neighbour counts of `verify_srg` pair
by pair from a float64 product ``A @ A``.

`maximal_cliques` lists every maximal clique by a pivoting search on bitmask
rows; its size histograms cross-check the census spectrum on small graphs
and on sampled neighbourhoods.  `classify_clique` decides linearity and
maximality of one clique from the tangency matrix and the tangency points.

The tangency points come from `ovoid_oracle.tangency_points`, which reads
them off the ovoids' point sets.
"""

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ovoid_oracle import tangency_points
from quadcover import cliquecensus
from quadcover.bitrows import pack_rows
from quadcover.cliquecensus import (
    BATCH,
    MASK64,
    CensusReport,
    formula_n3,
    formula_n4,
    formula_n5,
    formula_n6,
    rosette_maximality,
)
from quadcover.ovoid import OvoidGeometry
from tangency_oracle import tangency_matrix


class SplitMix64:
    """Tiny 64-bit split-mix generator; deterministic across platforms.  One
    scalar draw at a time, the stream `splitmix_below` draws in arrays."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        lim = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < lim:
                return v % n


def flat_bits(A: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A[rows, cols], rows and cols broadcast together, read from the flat
    boolean adjacency at row * V + col."""
    return A.ravel()[rows * len(A) + cols]


def flat_completion_rows(A: np.ndarray, Wi: np.ndarray) -> np.ndarray:
    """`cliquecensus.completion_rows` from the flat boolean adjacency:
    P[e, i] is row i of A[Wi[e]][:, Wi[e]] packed into one word, gathered
    S_BLOCK pairs at a time."""
    B, n = Wi.shape
    step = max(1, cliquecensus.S_BLOCK // (n * n))
    P = np.empty((B, n), dtype=np.uint64)
    for k in range(0, B, step):
        W = Wi[k:k + step]
        P[k:k + step] = pack_rows(flat_bits(A, W[:, :, None], W[:, None, :]))[..., 0]
    return P


def boolean_census(A: np.ndarray, gx: OvoidGeometry, mode: str = "full",
                   seed: Optional[int] = None, n_samples: Optional[int] = None,
                   collect: bool = False) -> CensusReport:
    """`census` with the boolean kernel; same arguments, same report."""
    model = gx.model
    q = model.ctx.q
    ndeg = model.ctx.n
    n_odd = ndeg % 2 == 1
    tp = tangency_points(gx)
    iu, ju = np.nonzero(np.triu(A, 1))
    E = len(iu)

    if mode == "sampled":
        if seed is None or n_samples is None:
            raise ValueError("sampled mode needs seed and n_samples")
        sm = SplitMix64(seed)
        edge_sel = np.array([sm.randbelow(E) for _ in range(n_samples)])
    elif mode == "full":
        edge_sel = np.arange(E)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    lam = q * q + q - 2
    n_nl = q * q                  # non-linear completions per edge
    n_r = q - 2                   # pencil completions per edge
    s_edges = n_nl * (q + 1) // 2  # adjacent pairs among them, once uniform

    tot_lin3 = 0
    tot_nl3 = 0
    tot_pairs4 = 0
    tot_five = 0
    tot_six = 0
    obs_3to4: Set[int] = set()
    obs_4to5: Set[int] = set()
    obs_4to6: Set[int] = set()
    no_mixed = True
    counterexample: Optional[dict] = None
    tris: List[np.ndarray] = []
    quads: List[np.ndarray] = []

    step = max(1, BATCH // n_nl)  # edges per batch, as in `census`
    for lo in range(0, len(edge_sel), step):
        sel = edge_sel[lo:lo + step]
        B = len(sel)
        a, b = iu[sel], ju[sel]
        C = A[a] & A[b]
        t_ab = tp[a, b]
        eq_both = (tp[a] == t_ab[:, None]) & (tp[b] == t_ab[:, None])
        Rm = C & eq_both
        Wm = C & ~eq_both
        if not (C.sum(axis=1) == lam).all():
            raise AssertionError("common neighbour count differs from lambda")
        if not (Rm.sum(axis=1) == n_r).all():
            raise AssertionError("pencil completion count differs from q-2")
        Wi = np.nonzero(Wm)[1].reshape(B, n_nl)
        if n_r and no_mixed:
            Ri = np.nonzero(Rm)[1].reshape(B, n_r)
            cross = A[Ri[:, :, None], Wi[:, None, :]]
            if cross.any():
                no_mixed = False
                eb, ei, ej = np.argwhere(cross)[0]
                counterexample = {"kind": "mixed_4_clique",
                                  "vertices": [int(a[eb]), int(b[eb]),
                                               int(Ri[eb, ei]), int(Wi[eb, ej])]}
        tot_lin3 += B * n_r
        tot_nl3 += B * n_nl

        S = A[Wi[:, :, None], Wi[:, None, :]]
        rows = S.sum(axis=2)
        obs_3to4.update(int(x) for x in np.unique(rows))
        if not (rows == q + 1).all() and counterexample is None:
            eb, ei = np.argwhere(rows != q + 1)[0]
            counterexample = {"kind": "triangle_extension",
                              "triangle": [int(a[eb]), int(b[eb]), int(Wi[eb, ei])],
                              "got": int(rows[eb, ei])}
        tot_pairs4 += int(S.sum()) // 2

        if collect:
            rsel, csel = np.nonzero(Wi > b[:, None])
            tris.append(np.stack([a[rsel], b[rsel], Wi[rsel, csel]], axis=1))

        triu_s = np.triu(S, 1)
        bb, ww, zz = np.nonzero(triu_s)
        if len(bb) != B * s_edges:
            raise AssertionError("adjacent-pair count among completions not uniform")
        ww = ww.reshape(B, s_edges)
        zz = zz.reshape(B, s_edges)
        b_ix = np.arange(B)[:, None, None]
        v_ix = np.arange(n_nl)[None, :, None]
        F = S[b_ix, v_ix, ww[:, None, :]] & S[b_ix, v_ix, zz[:, None, :]]
        col = F.sum(axis=1)       # 5-extension count of each 4-clique
        obs_4to5.update(int(x) for x in np.unique(col))
        want5 = 2 if n_odd else 0
        if not (col == want5).all() and counterexample is None:
            eb, ei = np.argwhere(col != want5)[0]
            counterexample = {"kind": "four_clique_five_extension",
                              "clique": [int(a[eb]), int(b[eb]),
                                         int(Wi[eb, ww[eb, ei]]), int(Wi[eb, zz[eb, ei]])],
                              "got": int(col[eb, ei])}
        tot_five += int(col.sum())

        if collect:
            wv = Wi[np.arange(B)[:, None], ww]
            zv = Wi[np.arange(B)[:, None], zz]
            keep = wv > b[:, None]
            quads.append(np.stack([np.broadcast_to(a[:, None], wv.shape)[keep],
                                   np.broadcast_to(b[:, None], wv.shape)[keep],
                                   wv[keep], zv[keep]], axis=1))

        if not n_odd:
            obs_4to6.add(0)
            continue
        Ft = F.transpose(0, 2, 1)
        fb, fe, fv = np.nonzero(Ft)
        if len(fb) != B * s_edges * 2:
            raise AssertionError("five-extension support is not two vertices each")
        ys = fv.reshape(B, s_edges, 2)
        six = S[np.arange(B)[:, None], ys[:, :, 0], ys[:, :, 1]]
        obs_4to6.update(int(x) for x in np.unique(six.astype(np.int64)))
        if not six.all() and counterexample is None:
            eb, ei = np.argwhere(~six)[0]
            counterexample = {"kind": "four_clique_six_extension",
                              "edge": [int(a[eb]), int(b[eb])], "got": 0}
        tot_six += int(six.sum())

    lin3 = n3 = n4 = n5 = n6 = None
    identities: Dict[str, bool] = {}
    spectrum = spectrum_by_kind = None
    linear_max = None
    if mode == "full":
        if tot_nl3 % 3 or tot_lin3 % 3 or tot_pairs4 % 6 or tot_five % 30 or tot_six % 90:
            raise AssertionError("incidence sums are not divisible by symmetry orders")
        lin3, n3, n4 = tot_lin3 // 3, tot_nl3 // 3, tot_pairs4 // 6
        n5, n6 = tot_five // 30, tot_six // 90
        rosette_c3 = q * (q - 1) * (q - 2) // 6
        # every edge was checked to have lam common neighbours
        identities["triangle_total"] = 3 * (lin3 + n3) == E * lam
        identities["linear_triangles_from_pencils"] = lin3 == len(gx.pencil_base) * rosette_c3
        identities["n3_formula"] = n3 == formula_n3(q)
        identities["n4_formula"] = n4 == formula_n4(q)
        identities["n4_from_n3"] = 4 * n4 == n3 * (q + 1)
        if n_odd:
            identities["n5_formula"] = n5 == formula_n5(q)
            identities["n6_formula"] = n6 == formula_n6(q)
            identities["n5_from_n4"] = 5 * n5 == 2 * n4
            identities["n6_from_n4"] = 15 * n6 == n4
        identities["five_cliques_iff_odd_degree"] = (n5 > 0) == n_odd

        linear_max, n_ros = rosette_maximality(pack_rows(A), gx)
        if linear_max not in (0, n_ros):
            raise AssertionError("pencil maximality is not uniform")
        lin_spec = [q] if linear_max else []
        # non-linear sizes: triangles always extend (q+1 > 0); for even degree
        # 4-cliques have no 5-extension, hence are maximal; for odd degree the
        # census verified two 5-extensions per 4-clique and one 6-clique over
        # each, both 5-extensions lying inside it, so sizes 3..5 all extend,
        # 6-cliques are maximal, and 7 would need a 4-subclique with three
        # 5-extensions.
        if n_odd:
            nl_spec = [6] if n6 > 0 else []
        else:
            nl_spec = [4] if n4 > 0 else []
        spectrum = sorted(set(lin_spec) | set(nl_spec), reverse=True)
        spectrum_by_kind = {"linear": lin_spec, "nonlinear": nl_spec}

    report = CensusReport(
        q=q, n=ndeg, mode=mode, seed=seed,
        edges_total=E, edges_checked=len(edge_sel),
        linear_triangles=lin3, n3=n3, n4=n4, n5=n5, n6=n6,
        extension_counts={"3to4": sorted(obs_3to4), "4to5": sorted(obs_4to5),
                          "4to6": sorted(obs_4to6)},
        no_mixed=no_mixed, spectrum=spectrum, spectrum_by_kind=spectrum_by_kind,
        linear_max_cliques=linear_max,
        identities=identities,
        formulas={"n3": formula_n3(q), "n4": formula_n4(q),
                  "n5": formula_n5(q) if n_odd else 0,
                  "n6": formula_n6(q) if n_odd else 0},
        counterexample=counterexample,
        triangles=np.concatenate(tris) if collect and tris else None,
        cliques4=np.concatenate(quads) if collect and quads else None,
    )
    return report


@dataclass(frozen=True)
class CliqueRecord:
    vertices: Tuple[int, ...]
    kind: str                     # "linear" | "nonlinear"
    base: Optional[int]           # common tangency point for linear cliques
    maximal: bool


def classify_clique(gx: OvoidGeometry, vertices: Sequence[int]) -> CliqueRecord:
    """Decide linearity from the tangency points and test maximality."""
    vs = tuple(sorted(int(v) for v in vertices))
    if len(vs) < 2 or len(set(vs)) != len(vs):
        raise ValueError("need at least two distinct vertices")
    A = tangency_matrix(gx)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if not A[u, v]:
                raise ValueError(f"vertices {u} and {v} are not adjacent")
    tp = tangency_points(gx)
    tps = {int(tp[u, v]) for i, u in enumerate(vs) for v in vs[i + 1:]}
    linear = len(tps) == 1
    common = A[vs[0]].copy()
    for v in vs[1:]:
        common &= A[v]
    common[list(vs)] = False
    return CliqueRecord(vertices=vs,
                        kind="linear" if linear else "nonlinear",
                        base=tps.pop() if linear else None,
                        maximal=not bool(common.any()))


def pair_srg_values(A: np.ndarray) -> dict:
    """`verify_srg`'s verdict, one vertex pair at a time: the common-neighbour
    counts of adjacent and non-adjacent pairs i < j from a float64 ``A @ A``.
    A vertex with a loop counts as an adjacent pair with itself."""
    n = len(A)
    C = A.astype(np.float64) @ A.astype(np.float64)
    adj = A.tolist()
    lam, mu = set(), set()
    for i in range(n):
        if adj[i][i]:
            lam.add(int(C[i, i]))
        for j in range(i + 1, n):
            (lam if adj[i][j] else mu).add(int(C[i, j]))
    degrees = {sum(row) for row in adj}
    k = sum(adj[0])
    feasible = True
    if len(lam) == 1 and len(mu) == 1:
        feasible = k * (k - min(lam) - 1) == min(mu) * (n - k - 1)
    return {"pass": len(degrees) == 1 and len(lam) == 1 and len(mu) <= 1 and feasible,
            "lambda_values": sorted(lam), "mu_values": sorted(mu),
            "feasibility_ok": feasible}


def _bitmask_rows(adj: np.ndarray) -> List[int]:
    return [int.from_bytes(np.packbits(adj[i], bitorder="little").tobytes(), "little")
            for i in range(len(adj))]


def maximal_cliques(adj: np.ndarray) -> Iterator[List[int]]:
    """All maximal cliques via recursive pivoting search on bitmask rows."""
    n = len(adj)
    rows = _bitmask_rows(adj)
    full = (1 << n) - 1

    def bits(x: int) -> Iterator[int]:
        while x:
            lsb = x & -x
            yield lsb.bit_length() - 1
            x ^= lsb

    def expand(r: List[int], p: int, x: int):
        if p == 0 and x == 0:
            yield list(r)
            return
        pux = p | x
        pivot = max(bits(pux), key=lambda u: (p & rows[u]).bit_count())
        for v in bits(p & ~rows[pivot]):
            vb = 1 << v
            r.append(v)
            yield from expand(r, p & rows[v], x & rows[v])
            r.pop()
            p &= ~vb
            x |= vb
    yield from expand([], full, 0)


def bk_spectrum(adj: np.ndarray) -> Dict[int, int]:
    """Size histogram of all maximal cliques (use on small graphs)."""
    hist: Dict[int, int] = {}
    for c in maximal_cliques(adj):
        hist[len(c)] = hist.get(len(c), 0) + 1
    return dict(sorted(hist.items()))


def bk_neighborhood_spectrum(A: np.ndarray, vertex: int) -> Dict[int, int]:
    """Size histogram of maximal cliques through one vertex, via its
    neighbourhood subgraph (sizes include the vertex itself)."""
    nbrs = np.nonzero(A[vertex])[0]
    sub = A[np.ix_(nbrs, nbrs)]
    hist: Dict[int, int] = {}
    for c in maximal_cliques(sub):
        hist[len(c) + 1] = hist.get(len(c) + 1, 0) + 1
    return dict(sorted(hist.items()))
