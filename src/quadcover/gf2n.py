"""Arithmetic in GF(2^n), 1 <= n <= 8, with elements stored as polynomial
coefficient bit masks.

The context object owns the modulus and one arithmetic: the dense product
table ``FieldCtx.mul_table``, built once by a vectorised carry-less product,
and the tables derived from it (``FieldCtx.inv_table`` with 0 mapped to 0,
square roots, traces and Artin-Schreier roots).  Array passes elsewhere in
the package index the numpy tables.  Scalar code reads Python-list copies of
the same tables: ``mul_rows[a][b]`` is a*b and ``inv_row[a]`` is 1/a (0 at
0), so a routine that multiplies many elements by one c takes the row
``mul_rows[c]`` once and indexes it.  The methods (``mul``, ``inv``, ...)
take and return plain ints below 2^n and read the same lists.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

MAX_DEGREE = 8  # the product table is q x q


def poly_degree(a: int) -> int:
    """Degree of the polynomial with coefficient mask `a` (-1 for the zero polynomial)."""
    return a.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    """Remainder of carry-less polynomial division of `a` by `m` (m != 0)."""
    dm = poly_degree(m)
    while True:
        da = poly_degree(a)
        if da < dm:
            return a
        a ^= m << (da - dm)


def is_irreducible(poly: int) -> bool:
    """Trial-division irreducibility test over F_2.

    Divides by every polynomial of degree 1..deg/2; degree-1 polynomials are
    irreducible by convention, constants are not.
    """
    d = poly_degree(poly)
    if d < 1:
        return False
    for cand in range(2, 1 << (d // 2 + 1)):
        if poly_mod(poly, cand) == 0:
            return False
    return True


def default_modulus(n: int) -> int:
    """Lexicographically least irreducible polynomial of degree n (as a bit mask)."""
    for cand in range(1 << n, 1 << (n + 1)):
        if is_irreducible(cand):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {n}")  # unreachable


class FieldCtx:
    """GF(2^n) arithmetic context, immutable after construction.

    Parameters
    ----------
    n : int
        Field degree, 1 <= n <= MAX_DEGREE.
    modulus : int, optional
        Bit mask of an irreducible degree-n polynomial; defaults to the
        lexicographically least one.
    """

    def __init__(self, n: int, modulus: Optional[int] = None):
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"n must be in 1..{MAX_DEGREE}, got {n}")
        if modulus is None:
            modulus = default_modulus(n)
        if poly_degree(modulus) != n:
            raise ValueError(f"modulus {modulus:#b} does not have degree {n}")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#b} is reducible")
        self.n = n
        self.q = q = 1 << n
        self.modulus = modulus
        # carry-less products t[a, b] of every pair, one shift-and-XOR pass
        # per bit of b, then one reduction pass per bit above degree n - 1
        elems = np.arange(q)
        t = np.zeros((q, q), dtype=np.int32)
        for i in range(n):
            t ^= (elems[:, None] << i) * ((elems >> i) & 1)
        for d in range(2 * n - 2, n - 1, -1):
            t ^= ((t >> d) & 1) * (modulus << (d - n))
        self.mul_table: np.ndarray = t.astype(np.uint16)
        # inverses with 0 -> 0: row 0 holds no 1, so argmax lands on column 0
        self.inv_table: np.ndarray = (self.mul_table == 1).argmax(axis=1).astype(np.uint16)
        squares = self.mul_table[elems, elems]
        tr, x = np.zeros(q, dtype=np.int64), elems
        for _ in range(n):
            tr ^= x
            x = squares[x]
        if not np.isin(tr, (0, 1)).all():
            raise AssertionError("trace fell outside F_2")
        # t -> t^2 + t is two-to-one with fibers {t, t ^ 1}; the even t is
        # the smaller root of t^2 + t = c
        as_root = np.full(q, -1, dtype=np.int64)
        as_root[(squares ^ elems)[::2]] = elems[::2]
        # scalar code reads Python-list copies of the same tables
        self.mul_rows = self.mul_table.tolist()
        self.inv_row = self.inv_table.tolist()
        # square roots invert squaring, a bijection in characteristic 2
        self._sqrt = np.argsort(squares).tolist()
        self._trace = tr.tolist()
        self._as_root = as_root.tolist()

    # -- scalar operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mul_rows[a][b]

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_row[a]

    def sqrt(self, a: int) -> int:
        """The unique square root: squaring is a bijection in characteristic 2."""
        return self._sqrt[a]

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def least_trace_one(self) -> int:
        return self._trace.index(1)  # the trace is onto F_2

    def default_form_parameter(self) -> int:
        """Default trace-1 parameter for the quadratic form: 1 when n is odd,
        otherwise the least trace-1 element."""
        if self.n % 2 == 1:
            return 1
        return self.least_trace_one()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(n={self.n}, modulus={self.modulus:#b})"


def trace(ctx: FieldCtx, x: int) -> int:
    """Absolute trace sum_{i<n} x^(2^i), always 0 or 1."""
    return ctx._trace[x]


def solve_artin_schreier(ctx: FieldCtx, c: int) -> Set[int]:
    """All t with t^2 + t + c = 0.

    Two solutions differing by 1 when trace(c) = 0, none when trace(c) = 1.
    """
    t = ctx._as_root[c]
    if t == -1:
        return set()
    return {t, t ^ 1}


def conic_solution_set(ctx: FieldCtx, lam: int, mu: int) -> Set[Tuple[int, int]]:
    """All (x, y) with x^2 + x*y + lam*y^2 + mu = 1, for trace-1 lam.

    The form x^2 + x*y + lam*y^2 is anisotropic exactly when trace(lam) = 1,
    and then the solution set has q+1 points for mu != 1 and collapses to
    {(0, 0)} for mu = 1.
    """
    if trace(ctx, lam) != 1:
        raise ValueError("lam must have trace 1")
    sols: Set[Tuple[int, int]] = set()
    rhs = mu ^ 1  # move mu across: x^2 + xy + lam y^2 = 1 + mu
    sols.add((ctx.sqrt(rhs), 0))
    M, inv = ctx.mul_rows, ctx.inv_row
    for y in ctx.nonzero():
        # with x = t*y the equation becomes t^2 + t + lam + (1+mu)/y^2 = 0
        c = lam ^ M[rhs][inv[M[y][y]]]
        for t in solve_artin_schreier(ctx, c):
            sols.add((M[y][t], y))
    return sols
