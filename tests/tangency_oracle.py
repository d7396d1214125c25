"""The boolean V x V tangency matrix, and the readers of it that the package
replaced when the geometry came to keep tangency only as packed rows.

`tangency_matrix` unpacks a geometry's `tangency` table into the boolean
matrix that the set-up used to hold, and `with_tangency` installs a boolean
matrix, packed by `pack_rows`, in a copy of a geometry: the tests corrupt a
boolean copy and install it this way.  `bit_unpack` is a second unpack, one
bit at a time through word shifts, that shares no code with `unpack_rows`.

The readers are the package's readers as they were on the boolean matrix,
with the same checks, reports and messages, kept as oracles for the diff
tests in `test_tangency.py`:
- `boolean_tangency_graph`: `build_tangency_graph`'s symmetry, loop and
  degree checks;
- `boolean_srg`: the kernel `verify_srg` replaced when it came to carry
  several counts in each float32 lane: block products of the unpacked
  matrix, one count an entry, with the same report (`pairs_checked`
  included);
- `keyed_srg`: the lane-packed kernel `verify_srg` replaced when it came
  to compare each lane with a reference count: every count split out of
  its lane and keyed;
- `boolean_edge_keys`: `edge_keys`' scan of the upper triangle;
- `boolean_pencils`: the per-point kernel that `_build_rosettes` ran
  before its block kernel, a take of rows and columns at each point;
- `boolean_common_tangent_counts`: the per-point product kernel that
  `verify_common_tangent_counts` ran before it came to read the pencil
  counts, at each point a product of the tangency rows of the ovoids
  through it; `check_common_tangents` diffs the two;
- `boolean_adjacency_oracle`: `verify_adjacency_oracle`'s block compare.
The pencil counts of `verify_semipartial` and `rosette_maximality` are
diffed against `ovoid_oracle`'s loops, which read this matrix too.
"""

import copy

import numpy as np

from quadcover import cliquecensus
from quadcover.covering import CoveringMap
from quadcover.ovoid import OvoidGeometry, verify_common_tangent_counts
from quadcover.bitrows import pack_rows, unpack_rows


def bit_unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Bits 0..n-1 of each row of uint64 words in the layout of `pack_rows`,
    as a C-ordered boolean array: bit j % 64 of word j // 64.  (The gather
    comes out in Fortran order, which would turn the flat diagonal views of
    `boolean_srg` into copies.)"""
    j = np.arange(n)
    bits = (words[..., j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)
    return np.ascontiguousarray(bits, dtype=bool)


def tangency_matrix(geom: OvoidGeometry) -> np.ndarray:
    """The geometry's tangency as a new (V, V) boolean matrix."""
    return bit_unpack(geom.tangency, geom.n_ovoids)


def with_tangency(geom: OvoidGeometry, A: np.ndarray) -> OvoidGeometry:
    """A shallow copy of geom whose tangency table is the boolean matrix A,
    packed."""
    out = copy.copy(geom)
    out.tangency = pack_rows(A)
    return out


def boolean_tangency_graph(geom: OvoidGeometry) -> np.ndarray:
    """`build_tangency_graph` on the boolean matrix: the matrix, checked to
    be a simple regular graph of the expected degree."""
    A = tangency_matrix(geom)
    if not np.array_equal(A, A.T) or A.diagonal().any():
        raise AssertionError("tangency matrix is not a simple graph")
    q = geom.model.ctx.q
    k = (q - 1) * (q * q + 1)
    if not (A.sum(axis=1) == k).all():
        raise AssertionError(f"graph is not {k}-regular")
    return A


def boolean_srg(A: np.ndarray) -> dict:
    """`verify_srg` on a boolean adjacency matrix A."""
    n = len(A)
    deg = A.sum(axis=1)
    af = A.astype(np.float32)
    seen = np.zeros((3, n + 1), dtype=bool)
    step = max(1, cliquecensus.SRG_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        key = A[lo:hi, lo:].astype(np.min_scalar_type(3 * n + 2))
        key *= n + 1
        np.add(key, af[lo:hi] @ af[lo:].T, out=key, casting="unsafe")
        key[:, :hi - lo][np.tri(hi - lo, k=-1, dtype=bool)] = 2 * (n + 1)
        diag = key.ravel()[::n - lo + 1]
        np.add(diag, 2 * (n + 1), out=diag, where=~A.diagonal()[lo:hi])
        seen.ravel()[key.ravel()] = True
    return _srg_report(deg, seen)


def keyed_srg(T: np.ndarray) -> dict:
    """`verify_srg` by the kernel it replaced when it came to compare each
    lane with a reference: every count of a block's product is split out of
    its lane and keyed, count + (n + 1) * row, row 1 for an adjacent pair,
    0 for a non-adjacent one, and 2 for the diagonal (save at a loop) and
    what lies below it in the block's square.  Counts are unsigned, b bits
    each, b the bit length of the largest degree, L = 24 // b a lane."""
    n = len(T)
    deg = np.bitwise_count(T).sum(axis=1)
    b = max(1, int(deg.max()).bit_length())
    L = 24 // b
    R = np.zeros((-(-n // L), n), dtype=np.float32)
    for c in reversed(range(L)):
        R *= 1 << b
        bits = unpack_rows(T[c::L], n)
        np.add(R[:len(bits)], bits, out=R[:len(bits)])
    mask = np.uint32((1 << b) - 1)
    seen = np.zeros((3, n + 1), dtype=bool)
    step = max(1, cliquecensus.SRG_BLOCK // n)
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
    return _srg_report(deg, seen)


def _srg_report(deg: np.ndarray, seen: np.ndarray) -> dict:
    """`verify_srg`'s report from the degrees and the counts seen on
    non-adjacent (row 0) and adjacent (row 1) pairs."""
    n = len(deg)
    k = int(deg[0])
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


def boolean_edge_keys(A: np.ndarray) -> np.ndarray:
    """`edge_keys` on a boolean matrix: the upper triangle, KEY_BLOCK
    entries at a time."""
    V = len(A)
    step = max(1, cliquecensus.KEY_BLOCK // V)
    return np.concatenate([np.flatnonzero(np.triu(A[lo:lo + step], lo + 1)) + lo * V
                           for lo in range(0, V, step)])


def boolean_pencils(geom: OvoidGeometry) -> np.ndarray:
    """The pencils of `_build_rosettes`, or its raise, by the per-point
    kernel that the block kernel replaced, read from the boolean matrix: at
    each point, a take of the rows and then of the columns of the ovoids
    through it, the diagonal set, stably sorted by each row's first set
    column and compared with q x q blocks of ones.  Then the union law over
    every pencil and the perp law at every point, on boolean rows."""
    A = tangency_matrix(geom)
    q = geom.model.ctx.q
    per_point = geom.through.shape[1]
    m = q * (q - 1) // 2
    diagonal = np.eye(per_point, dtype=bool)
    classes = np.kron(np.eye(m, dtype=bool), np.ones((q, q), dtype=bool))
    pencils = np.empty_like(geom.through)
    for T, out in zip(geom.through, pencils):
        S = A.take(T, axis=0).take(T, axis=1)
        S |= diagonal
        order = S.argmax(axis=1).argsort(kind="stable")
        if (S.take(order, axis=0).take(order, axis=1) != classes).any():
            raise AssertionError("tangency at a point is not an equivalence "
                                 "with classes of size q")
        T.take(order, out=out)
    pencils = pencils.reshape(-1, q)
    member = geom.member_matrix
    union = member[pencils[:, 0]]
    for column in pencils[:, 1:].T:
        union |= member[column]
    if (union.sum(axis=1) != q ** 3 + 1).any():
        raise AssertionError("ovoids sharing a point are tangent elsewhere")
    sect = geom.model.section_points
    perp = geom.model.collinear(sect, sect)
    for T, row in zip(geom.through, perp):
        if ((member[T] & row).sum(axis=1) != 1).any():
            raise AssertionError("an ovoid through a point meets its perp beyond the point")
    return pencils


def boolean_common_tangent_counts(geom: OvoidGeometry) -> dict:
    """The common-tangent law on the boolean matrix, one section point x at
    a time: with T the ovoids through x, A[T][:, T].T @ A[T] counts the
    common tangents through x of every ovoid pair with one member in T."""
    A = tangency_matrix(geom)
    sect = geom.model.section_points
    checked = 0
    for k, T in enumerate(geom.through):
        AT = A[T]
        Af = AT.astype(np.float32)
        N = Af[:, T].T @ Af
        want = np.where(AT, 1, 2).astype(np.int8)
        want[:, T] = np.where(AT[:, T] | np.eye(len(T), dtype=bool), -1, 0)
        law = want >= 0
        bad = law & (N != want)
        if bad.any():
            i, b = np.argwhere(bad)[0]
            return {"pass": False, "pair": [int(T[i]), int(b)], "point": int(sect[k]),
                    "expected": int(want[i, b]), "got": int(N[i, b])}
        checked += int(law.sum())
    return {"pass": True, "cases_checked": checked}


def check_common_tangents(geom: OvoidGeometry) -> dict:
    """`verify_common_tangent_counts` of geom, asserted to agree with
    `boolean_common_tangent_counts`.  A report that names a (pair, point)
    case must be the kernel's, whole.  A "pencil grouping" report must come
    with a failing kernel, and its pencil and ovoid must break the grouping,
    recounted from the boolean matrix: the ovoid passes through the
    pencil's base, and the number of the pencil's members tangent to it is
    not q - 1 for a member and not 0 for any other ovoid."""
    got, want = verify_common_tangent_counts(geom), boolean_common_tangent_counts(geom)
    if got.get("reason") != "pencil grouping":
        assert got == want
        return got
    assert not want["pass"]
    j, v = got["rosette"], got["ovoid"]
    members = geom.pencil_members[j]
    assert geom.pencil_base[j] in geom.ovoid_points[v]
    lawful = geom.model.ctx.q - 1 if v in members else 0
    assert tangency_matrix(geom)[members, v].sum() != lawful
    return got


def boolean_adjacency_oracle(cov: CoveringMap) -> dict:
    """`verify_adjacency_oracle` against rows of the boolean matrix."""
    A = tangency_matrix(cov.geom)
    n = len(A)
    fib = cov.point_fiber
    step = max(1, (1 << 20) // (4 * n))     # at most 2^20 collinearity entries a block
    rows = np.concatenate([fib[lo:lo + step].T.ravel() for lo in range(0, n, step)])
    blocks = cov.model.alpha_blocks(rows, fib.T.ravel(), 2 * step)
    for lo in range(0, n, step):
        Z = next(blocks) == 0
        b = len(Z) // 2
        Z[:b] |= Z[b:]
        cross = Z[:b, :n]
        cross |= Z[:b, n:]
        agree = cross == A[lo:lo + step]
        np.fill_diagonal(agree[:, lo:], True)
        if not agree.all():
            i, b = (int(t) for t in np.argwhere(~agree)[0])
            return {"pass": False, "pair": [lo + i, b],
                    "tangent": bool(A[lo + i, b]),
                    "cross_collinear": bool(cross[i, b])}
    return {"pass": True, "pairs_checked": n * (n - 1) // 2}
