"""Tangency graph of the ovoids, strong regularity, and the full clique census.

Vertices are ovoids, edges are tangent pairs.  A clique is linear when all its
pairwise tangency points coincide (it then sits inside one pencil) and
non-linear otherwise.  The census walks every edge once and works inside the
common-neighbour set, which splits into the q-2 remaining pencil members and
q^2 non-linear completions; all counting and the extension laws (each
non-linear triangle grows to exactly q+1 four-cliques, each non-linear
four-clique to exactly two five-cliques and one six-clique when the field
degree is odd, and to none when it is even) are verified on that split.

Strong regularity is checked on every pair by `verify_srg`, from float32
products of unpacked row blocks of T against a right operand that packs
several common-neighbour counts in each lane (two at q = 8).

Edges are kept as flat keys a * V + b of T, the packed tangency table of
the geometry.  The full census lists them in one scan of T's unpacked
upper triangle, KEY_BLOCK entries at a time.  A sampled census draws edge
ranks in one vectorised SplitMix64 pass and finds the key of each rank
from the popcounts of T's rows, so no edge list is made.  The selected
edges are cut into batches of BATCH non-linear completions (BATCH // q^2
edges, 512 at q = 4 and 128 at q = 8), small
enough that the batch a worker holds beside the main thread's adds little
to the peak memory.  The main thread and one worker thread for each
other CPU the process may use, at most MAX_WORKERS of them, take the batches
in edge order, each the next one not yet taken (numpy releases the
interpreter lock in the gathers, so the threads overlap).  MAX_WORKERS is 1,
the count that has been timed: every worker adds a batch to the peak memory,
and more threads have not been measured.  A batch returns its own partial
report: sums, the values its laws took, its first mixed 4-clique, its first
counterexample of another kind, and its collected rows; a batch that breaks
a law outright raises.  The partial reports are merged in batch order, so
the report is that of the batches run one after another on one thread,
whatever the number of CPUs and whichever thread finishes first: the
first mixed 4-clique replaces any other counterexample, the first other
counterexample is kept, rows are collected in edge order, and the error of
the first failing batch is raised once every thread has stopped.

A common neighbour of an edge (a, b), a bit of T[a] & T[b], is a pencil
completion exactly when it passes through the common point of a and b,
which the membership matrix gives; all three are then tangent there.  The
adjacency between an edge's pencil and non-linear completions, and among
its non-linear completions (S_BLOCK pairs at a time), are read as bits of
T through `quadric.row_bits` (T takes 0.5 MB at q = 8, which fits in L2);
the pencil test reads the flat membership matrix at row * width + col.
For each edge the adjacency among its q^2 non-linear completions is
packed into one uint64 per completion (q^2 <= 64 for every buildable
field), bit z of word w set when completions w and z are tangent.  A
word's popcount is the triangle's 4-clique count; the adjacent pairs w < z
are read off word w with its bits up to w cleared, lowest bit first, in the
order nonzero(triu(S)) lists them; the popcount of P[w] & P[z] is the
4-clique's 5-extension count, and its two set bits y1 < y2 give a 6-clique
exactly when bit y2 of P[y1] is set.

The maximal-size spectrum follows from the same data: pencils are maximal
exactly when their members have no common neighbour, non-linear cliques stop
growing exactly where the extension counts say they do, and a clique of seven
or more would force some four-subclique to have at least three five-cliques
over it, contradicting the uniform count of two.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .ovoid import OvoidGeometry, pencil_counts
from .quadric import lowest_set_bits, pack_rows, row_bits, transpose_rows, unpack_rows

MASK64 = (1 << 64) - 1
BATCH = 1 << 13                   # non-linear completions (edges x q^2) per census batch
KEY_BLOCK = 1 << 20               # tangency entries per step of the edge keys or symmetry check
SRG_BLOCK = 1 << 19               # common-neighbour counts per verify_srg step
S_BLOCK = 1 << 16                 # completion pairs gathered per census S step
MAX_WORKERS = 1                   # census worker threads beside the main thread, at most
# _ABOVE[w] keeps the bits above bit w of a word
_ABOVE = np.array([MASK64 ^ ((2 << w) - 1) for w in range(64)], dtype=np.uint64)


# -- closed-form counts --------------------------------------------------------


def formula_srg_params(q: int) -> Tuple[int, int, int, int]:
    """(v, k, lambda, mu) of the tangency graph as exact integers."""
    return (q * q * (q * q - 1) // 2, (q - 1) * (q * q + 1),
            q * q + q - 2, 2 * q * (q - 1))


def formula_n3(q: int) -> int:
    """Non-linear triangle count."""
    return (q**4 - 1) * (q - 1) * q**4 // 12


def formula_n4(q: int) -> int:
    """Non-linear 4-clique count."""
    return (q**4 - 1) * (q**2 - 1) * q**4 // 48


def formula_n5(q: int) -> int:
    """Non-linear 5-clique count (meaningful for odd field degree only)."""
    return (q**4 - 1) * (q**2 - 1) * q**4 // 120


def formula_n6(q: int) -> int:
    """Non-linear 6-clique count (meaningful for odd field degree only)."""
    return (q**4 - 1) * (q**2 - 1) * q**4 // 720


# -- graph ---------------------------------------------------------------------


def build_tangency_graph(gx: OvoidGeometry) -> np.ndarray:
    """The geometry's packed tangency table (vertex i is ovoid i), checked
    to be a simple regular graph of the expected degree: no bit on the
    diagonal, and each band of 64 rows equal to that band of the transpose,
    KEY_BLOCK entries or one band at a time."""
    T = gx.tangency
    ovoids = np.arange(len(T))
    simple = not row_bits(T, ovoids, ovoids).any()
    step = max(1, KEY_BLOCK // (64 * len(T)))
    for w in range(0, T.shape[1], step):
        band = T[64 * w:64 * (w + step)]
        simple &= np.array_equal(transpose_rows(T[:, w:w + step], len(band)), band)
    if not simple:
        raise AssertionError("tangency matrix is not a simple graph")
    q = gx.model.ctx.q
    k = (q - 1) * (q * q + 1)
    if not (np.bitwise_count(T).sum(axis=1) == k).all():
        raise AssertionError(f"graph is not {k}-regular")
    return T


def verify_srg(T: np.ndarray) -> dict:
    """Exhaustive strong-regularity check: common-neighbour counts on every
    adjacent and non-adjacent pair, plus the feasibility identity.  T is a
    symmetric boolean adjacency matrix A, its rows packed by `pack_rows`.

    C = A A^T is read one block of rows at a time, rows lo..hi against the
    columns from lo on, so the blocks cover the upper triangle and no V x V
    product is held.  Every count C[i, j] is at most the degree of i, so it
    fits in b bits, b the bit length of the largest degree, and a float32
    lane carries L = 24 // b of them: row j of the right operand R is
    sum_c 2^(b c) A[L j + c], so (A R^T)[i, j] = sum_c 2^(b c) C[i, L j + c].
    Each partial sum is an integer below 2^(b L) <= 2^24, where float32 is
    exact, and shifts and masks split the lanes.  R takes V^2 4 / L bytes
    (8 MB at q = 8, where L = 2) and the product a 1 / L share of the flops
    of the unpacked one.  Which counts occur on non-adjacent (row 0) and
    adjacent (row 1) pairs is read through one flat key per pair,
    count + (n + 1) * row, built in place from the block's rows and the
    lanes of its product.  Row 2 takes the diagonal, no pair unless A has a
    loop there, and what lies below it in each block's square: each pair
    i < j is keyed once, from row i, and counted in ``pairs_checked``."""
    n = len(T)
    deg = np.bitwise_count(T).sum(axis=1)
    k = int(deg[0])
    b = max(1, int(deg.max()).bit_length())
    L = 24 // b                       # counts per float32 lane
    # R = sum_c 2^(b c) A[c::L], summed from the top lane down
    R = np.zeros((-(-n // L), n), dtype=np.float32)
    for c in reversed(range(L)):
        R *= 1 << b
        bits = unpack_rows(T[c::L], n)
        np.add(R[:len(bits)], bits, out=R[:len(bits)])
    mask = np.uint32((1 << b) - 1)
    seen = np.zeros((3, n + 1), dtype=bool)
    step = max(1, SRG_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        rows = unpack_rows(T[lo:hi], n)
        j0 = lo // L                  # the lane column that holds column lo
        P = (rows.astype(np.float32) @ R[j0:].T).astype(np.uint32)
        key = rows[:, lo:].astype(np.min_scalar_type(3 * n + 2))
        key *= n + 1
        for c in range(L):
            # lane c holds the columns L j + c: key's columns s, s + L, ...
            s = (c - lo) % L
            cols = key[:, s::L]
            count = P[:, (lo + s) // L - j0:][:, :cols.shape[1]]
            if c:
                count = count >> np.uint32(b * c)
            if c < L - 1:             # the top lane has no bits above it
                count = count & mask
            np.add(cols, count, out=cols, casting="unsafe")
        key[:, :hi - lo][np.tri(hi - lo, k=-1, dtype=bool)] = 2 * (n + 1)
        diag = key.ravel()[::n - lo + 1]
        np.add(diag, 2 * (n + 1), out=diag, where=~rows.ravel()[lo::n + 1])
        seen.ravel()[key.ravel()] = True
    lam_vals = np.flatnonzero(seen[1]).tolist()
    mu_vals = np.flatnonzero(seen[0]).tolist()
    regular = bool((deg == k).all())
    lam_ok = len(lam_vals) == 1
    mu_vacuous = not mu_vals
    mu_ok = mu_vacuous or len(mu_vals) == 1
    lam = lam_vals[0] if lam_ok else None
    mu = mu_vals[0] if (mu_ok and not mu_vacuous) else None
    feasible = True
    if lam is not None and mu is not None:
        feasible = k * (k - lam - 1) == mu * (n - k - 1)
    return {
        "pass": bool(regular and lam_ok and mu_ok and feasible),
        "v": n, "k": k, "lambda": lam, "mu": mu,
        "mu_vacuous": mu_vacuous, "feasibility_ok": feasible,
        "lambda_values": lam_vals,
        "mu_values": mu_vals,
        "pairs_checked": n * (n - 1) // 2,
    }


# -- edges and seeded edge draws ----------------------------------------------


def edge_keys(T: np.ndarray) -> np.ndarray:
    """The edges i < j of A, its rows packed into T, as flat keys i * V + j,
    ascending, as ``flatnonzero(triu(A, 1))`` lists them, read off the upper
    triangle of unpacked row blocks KEY_BLOCK entries at a time."""
    V = len(T)
    step = max(1, KEY_BLOCK // V)
    return np.concatenate([np.flatnonzero(np.triu(unpack_rows(T[lo:lo + step], V), lo + 1))
                           + lo * V for lo in range(0, V, step)])


def edge_list(T: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The edges i < j of A (packed in T) in row-major order, as ``nonzero(triu(A, 1))``."""
    return np.divmod(edge_keys(T), len(T))


_GAMMA = 0x9E3779B97F4A7C15


def splitmix_below(seed: int, n: int, count: int) -> np.ndarray:
    """``count`` uint64 draws below n from the SplitMix64 stream of seed.

    Raw output k (k = 1, 2, ...) mixes the state seed + k * 0x9E3779B97F4A7C15
    mod 2^64.  A raw draw at or above the largest multiple of n that fits in
    64 bits is rejected and the next one taken, so the draws are unbiased and
    deterministic across platforms.  The stream is mixed in uint64 arrays,
    whose products wrap mod 2^64.
    """
    if count < 0:
        raise ValueError(f"draw count must be at least 0, got {count}")
    top = np.uint64(MASK64 - (1 << 64) % n)   # the largest accepted raw draw
    out: List[np.ndarray] = []
    need, k0 = count, 0
    while True:
        m = need + 16             # raw draws, with a few spare for rejections
        z = np.uint64(seed & MASK64) + np.arange(k0 + 1, k0 + m + 1, dtype=np.uint64) \
            * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        z = z[z <= top][:need]
        out.append(z % np.uint64(n))
        need -= len(z)
        k0 += m
        if not need:
            return np.concatenate(out)


def sampled_edge_keys(T: np.ndarray, seed: int, n_samples: int) -> Tuple[int, np.ndarray]:
    """(E, keys): the edge count E of the matrix whose rows `pack_rows`
    packed into T, and ``edge_keys(T)[splitmix_below(seed, E, n_samples)]``,
    found by rank without listing the edges.

    The upper triangle is read as stored.  Row i's edges are its set bits
    above bit i; with cum the running popcount of a row's words, those are
    its last cum[i, -1] - low[i] bits, low[i] its bits up to the diagonal.
    The draw s lies in the row r whose running edge count first exceeds it,
    and is bit number s - (edges before row r) + low[r] of row r, counted
    from bit 0: the comparison with r's running word counts gives its word,
    and the running count of that word's bits its position."""
    V = len(T)
    rows = np.arange(V)
    counts = np.bitwise_count(T)
    cum = np.cumsum(counts, axis=1, dtype=np.min_scalar_type(64 * T.shape[1]))
    diag = T[rows, rows >> 6]
    low = cum[rows, rows >> 6] - np.bitwise_count(diag & _ABOVE[rows & 63])
    upper = cum[:, -1] - low
    ends = np.cumsum(upper, dtype=np.intp)
    E = int(ends[-1])
    s = splitmix_below(seed, E, n_samples).astype(np.intp)
    r = np.searchsorted(ends, s, side="right")
    t = s - (ends[r] - upper[r]) + low[r]
    c = cum[r]
    w = (c <= t[:, None]).sum(axis=1)
    t -= c[np.arange(len(r)), w] - counts[r, w]
    bits = unpack_rows(T[r, w][:, None])
    j = (np.cumsum(bits, axis=1, dtype=np.uint8) <= t[:, None]).sum(axis=1)
    return E, r * V + 64 * w + j


# -- census --------------------------------------------------------------------


def completion_rows(T: np.ndarray, Wi: np.ndarray) -> np.ndarray:
    """P[e, i]: row i of the adjacency S = A[Wi[e]][:, Wi[e]] among each
    edge's non-linear completions, read from T and packed into one word
    (at most 64 completions an edge), gathered S_BLOCK pairs at a time."""
    B, n = Wi.shape
    step = max(1, S_BLOCK // (n * n))      # edges per gather
    P = np.empty((B, n), dtype=np.uint64)
    for k in range(0, B, step):
        W = Wi[k:k + step]
        P[k:k + step] = pack_rows(row_bits(T, W[:, :, None], W[:, None, :]))[..., 0]
    return P


def upper_pairs(P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The adjacent pairs w < z of each group of packed rows, in row-major
    order, as ``nonzero(triu(S, 1))`` lists them.

    P[e, w] is row w of group e's adjacency S, as `pack_rows` packs it into
    one word (at most 64 rows a group).  Each row keeps only its bits above
    w, and the positions of those bits are read lowest first.  Returns the
    flat indices into ``P.ravel()`` of rows w and z, pair by pair.
    """
    B, n = P.shape
    U = P & _ABOVE[:n]
    up = np.bitwise_count(U)
    Z = lowest_set_bits(U, int(up.max(initial=0)))
    w = np.repeat(np.arange(B * n), up.ravel())
    z = np.repeat(np.arange(0, B * n, n), up.sum(axis=1, dtype=np.intp)) + Z[Z < 64]
    return w, z


def _values(x: np.ndarray) -> List[int]:
    """The distinct values of an array of small non-negative integers.  A
    law that holds leaves one value, which two reductions find."""
    lo, hi = int(x.min()), int(x.max())
    if lo == hi:
        return [lo]
    return np.flatnonzero(np.bincount(x.ravel())).tolist()


@dataclass(eq=False)
class CensusReport:
    q: int
    n: int
    mode: str
    seed: Optional[int]
    edges_total: int
    edges_checked: int
    linear_triangles: Optional[int]
    n3: Optional[int]
    n4: Optional[int]
    n5: Optional[int]
    n6: Optional[int]
    extension_counts: Dict[str, List[int]]
    no_mixed: bool
    spectrum: Optional[List[int]]
    spectrum_by_kind: Optional[Dict[str, List[int]]]
    linear_max_cliques: Optional[int]
    identities: Dict[str, bool]
    formulas: Dict[str, int]
    counterexample: Optional[dict] = None
    triangles: Optional[np.ndarray] = field(default=None, repr=False)
    cliques4: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return (self.no_mixed and self.counterexample is None
                and all(self.identities.values()))

    def to_dict(self) -> dict:
        """JSON-ready report: every field but the collected clique arrays,
        the counterexample only when there is one, and the verdict."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("triangles", "cliques4")}
        if self.counterexample is None:
            del out["counterexample"]
        out["pass"] = self.ok
        return out


def rosette_maximality(T: np.ndarray, gx: OvoidGeometry) -> Tuple[int, int]:
    """(number of pencils that are maximal cliques, total pencils), for the
    tangency matrix whose rows `pack_rows` packed into T.  A pencil is
    maximal exactly when no other ovoid is tangent to all q of its members:
    when the top bit plane of its counts is clear off the members, whose
    own counts reach q only through a loop."""
    n_max = sum(len(on) - int((planes[-1] & ~on).any(axis=1).sum())
                for _, on, planes in pencil_counts(gx, T))
    return n_max, len(gx.pencil_base)


@dataclass(eq=False)
class _Batch:
    """One census batch's share of the report."""
    pairs4: int                   # adjacent completion pairs
    five: int                     # 5-extensions of the 4-cliques
    six: int                      # 6-cliques over the 4-cliques
    values: Dict[str, List[int]]  # the values each extension count took
    mixed: Optional[dict]         # the batch's first mixed 4-clique
    other: Optional[dict]         # its first counterexample of another kind
    tris: Optional[np.ndarray]
    quads: Optional[np.ndarray]


def _census_batch(T: np.ndarray, member: np.ndarray, q: int, n_odd: bool,
                  a: np.ndarray, b: np.ndarray, collect: bool) -> _Batch:
    """The census of the edges (a[i], b[i]) of the matrix whose rows
    `pack_rows` packed into T.  A broken law that leaves counts to report
    gives a counterexample; any other raises AssertionError."""
    B, V = len(a), len(T)
    Mf = member.ravel()
    n_q0 = member.shape[1]
    lam = q * q + q - 2
    n_nl = q * q                  # non-linear completions per edge
    n_r = q - 2                   # pencil completions per edge
    s_edges = n_nl * (q + 1) // 2  # adjacent pairs among them, once uniform
    mixed = other = tris = quads = None

    C = unpack_rows(T[a] & T[b], V)
    if not (C.sum(axis=1) == lam).all():
        raise AssertionError("common neighbour count differs from lambda")
    # every row holds lam common neighbours, so the flat scan reshapes
    Ci = np.flatnonzero(C).reshape(B, lam) - (np.arange(B) * V)[:, None]
    del C                         # each step frees what no later step reads
    # a common neighbour is tangent to a and b at their common point p
    # exactly when it passes through p
    p = (member[a] & member[b]).argmax(axis=1)
    on_pencil = Mf[Ci * n_q0 + p[:, None]]
    if not (on_pencil.sum(axis=1) == n_r).all():
        raise AssertionError("pencil completion count differs from q-2")
    Wi = Ci[~on_pencil].reshape(B, n_nl)
    if n_r:
        Ri = Ci[on_pencil].reshape(B, n_r)
        cross = row_bits(T, Ri[:, :, None], Wi[:, None, :])
        if cross.any():
            eb, ei, ej = np.argwhere(cross)[0]
            mixed = {"kind": "mixed_4_clique",
                     "vertices": [int(a[eb]), int(b[eb]), int(Ri[eb, ei]), int(Wi[eb, ej])]}
        del Ri, cross
    del Ci, on_pencil

    P = completion_rows(T, Wi)
    rows = np.bitwise_count(P)
    values = {"3to4": _values(rows)}
    if not (rows == q + 1).all():
        eb, ei = np.argwhere(rows != q + 1)[0]
        other = {"kind": "triangle_extension",
                 "triangle": [int(a[eb]), int(b[eb]), int(Wi[eb, ei])],
                 "got": int(rows[eb, ei])}

    if collect:
        keep = Wi > b[:, None]
        tris = np.stack([np.broadcast_to(a[:, None], Wi.shape)[keep],
                         np.broadcast_to(b[:, None], Wi.shape)[keep],
                         Wi[keep]], axis=1)

    # adjacent completion pairs w < z, as flat rows of P
    wrow, zrow = upper_pairs(P)
    if len(wrow) != B * s_edges:
        raise AssertionError("adjacent-pair count among completions not uniform")
    wrow, zrow = wrow.reshape(B, s_edges), zrow.reshape(B, s_edges)
    Pf, Wf = P.ravel(), Wi.ravel()
    X = Pf[wrow] & Pf[zrow]             # completions adjacent to w and z
    col = np.bitwise_count(X)           # 5-extension count of each 4-clique
    values["4to5"] = _values(col)
    want5 = 2 if n_odd else 0
    if not (col == want5).all() and other is None:
        eb, ei = np.argwhere(col != want5)[0]
        other = {"kind": "four_clique_five_extension",
                 "clique": [int(a[eb]), int(b[eb]),
                            int(Wf[wrow[eb, ei]]), int(Wf[zrow[eb, ei]])],
                 "got": int(col[eb, ei])}

    n6 = 0
    if not n_odd:
        values["4to6"] = [0]
    else:
        if (col != 2).any():
            raise AssertionError("five-extension support is not two vertices each")
        # X has bits y1 < y2 and row y1 has no bit y1 (A has no loops), so
        # P[y1] & X is nonzero exactly when y1 and y2 are adjacent
        y1 = lowest_set_bits(X, 1)[..., 0]
        six = (Pf[(np.arange(B) * n_nl)[:, None] + y1] & X) != 0
        values["4to6"] = _values(six)
        if not six.all() and other is None:
            eb, ei = np.argwhere(~six)[0]
            other = {"kind": "four_clique_six_extension",
                     "edge": [int(a[eb]), int(b[eb])], "got": 0}
        n6 = int(six.sum())
    del X

    if collect:
        # the 4-cliques {a, b, w, z} with b < w, in row-major order
        e, k = np.nonzero(Wf[wrow] > b[:, None])
        quads = np.empty((len(e), 4), dtype=np.intp)
        quads[:, 0], quads[:, 1] = a[e], b[e]
        quads[:, 2], quads[:, 3] = Wf[wrow[e, k]], Wf[zrow[e, k]]
    return _Batch(pairs4=int(rows.sum()) // 2, five=int(col.sum()), six=n6, values=values,
                  mixed=mixed, other=other, tris=tris, quads=quads)


def census_workers() -> int:
    """The worker threads a census runs beside the main thread: one for
    each other CPU this process may use, at most MAX_WORKERS.  Each worker
    holds a batch of its own, so the cap also bounds the peak memory."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus - 1, MAX_WORKERS)


def _in_order(job: Callable[[int], _Batch], n: int) -> List[_Batch]:
    """[job(0), ..., job(n - 1)], run by the main thread and up to
    `census_workers` worker threads, each taking the lowest index not yet
    taken.  After a job raises no index is taken; once every thread has
    stopped, the error of the lowest failing index is raised (every lower
    index was taken before it and has finished)."""
    results: list = [None] * n
    order = iter(range(n))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with lock:
                i = next(order, n)
            if i == n:
                return
            try:
                results[i] = job(i)
            except Exception as err:    # raised below, in index order
                results[i] = err
                stop.set()

    threads = [threading.Thread(target=work) for _ in range(min(census_workers(), n - 1))]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        stop.set()                      # workers stop too if the main thread is interrupted
        for t in threads:
            t.join()
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def census(T: np.ndarray, gx: OvoidGeometry, mode: str = "full",
           seed: Optional[int] = None, n_samples: Optional[int] = None,
           collect: bool = False) -> CensusReport:
    """Edge-driven clique census with classification and extension-law checks
    up to 6-cliques, the largest size a non-linear clique reaches.

    ``T`` is the packed tangency table from `build_tangency_graph`.  In full mode
    every edge is processed and the totals are exact enumerated counts; in
    sampled mode a seeded subset of edges is processed and only the per-edge
    laws are checked.  collect=True additionally gathers the vertex arrays of
    the non-linear triangles and 4-cliques through the processed edges, each
    once in full mode.  The edge batches run on the main thread and
    `census_workers` worker threads; the report does not depend on how many.
    """
    model = gx.model
    q = model.ctx.q
    ndeg = model.ctx.n
    n_odd = ndeg % 2 == 1
    V = len(T)

    # the edges a < b to check, as keys a * V + b
    if mode == "sampled":
        if seed is None or n_samples is None:
            raise ValueError("sampled mode needs seed and n_samples")
        if n_samples < 1:
            raise ValueError(f"sampled mode needs n_samples >= 1, got {n_samples}")
        E, keys = sampled_edge_keys(T, seed, n_samples)
    elif mode == "full":
        keys = edge_keys(T)
        E = len(keys)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    step = max(1, BATCH // (q * q))   # edges per batch

    def batch(i: int) -> _Batch:
        a, b = np.divmod(keys[i * step:(i + 1) * step], V)
        return _census_batch(T, gx.member_matrix, q, n_odd, a, b, collect)

    parts = _in_order(batch, -(-len(keys) // step))
    tot_lin3 = len(keys) * (q - 2)    # every edge has q - 2 pencil completions
    tot_nl3 = len(keys) * q * q       # and q^2 non-linear ones
    tot_pairs4 = sum(p.pairs4 for p in parts)
    tot_five = sum(p.five for p in parts)
    tot_six = sum(p.six for p in parts)
    # the first mixed clique, in edge order, replaces any other counterexample
    mixed = next((p.mixed for p in parts if p.mixed), None)
    other = next((p.other for p in parts if p.other), None)

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
        # every edge was checked to have lambda common neighbours
        identities["triangle_total"] = 3 * (lin3 + n3) == E * (q * q + q - 2)
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

        linear_max, n_ros = rosette_maximality(T, gx)
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

    return CensusReport(
        q=q, n=ndeg, mode=mode, seed=seed,
        edges_total=E, edges_checked=len(keys),
        linear_triangles=lin3, n3=n3, n4=n4, n5=n5, n6=n6,
        extension_counts={k: sorted(set().union(*(p.values[k] for p in parts)))
                          for k in ("3to4", "4to5", "4to6")},
        no_mixed=mixed is None, spectrum=spectrum, spectrum_by_kind=spectrum_by_kind,
        linear_max_cliques=linear_max,
        identities=identities,
        formulas={"n3": formula_n3(q), "n4": formula_n4(q),
                  "n5": formula_n5(q) if n_odd else 0,
                  "n6": formula_n6(q) if n_odd else 0},
        counterexample=mixed or other,
        triangles=np.concatenate([p.tris for p in parts]) if collect else None,
        cliques4=np.concatenate([p.quads for p in parts]) if collect else None,
    )


def export_edges_csv(T: np.ndarray, path: str) -> None:
    """Write the edge list of T as CSV rows: ovoid id, ovoid id."""
    import csv

    iu, ju = edge_list(T)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ovoid_a", "ovoid_b"])
        for u, v in zip(iu, ju):
            w.writerow([int(u), int(v)])
