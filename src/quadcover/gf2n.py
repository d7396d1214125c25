"""Arithmetic in GF(2^n) with elements stored as polynomial coefficient bit masks.

The context object owns the modulus and the (eagerly built) exp/log tables;
all scalar operations take and return plain ints below 2^n.
Array passes elsewhere in the package consume ``FieldCtx.mul_table``, a dense
numpy multiplication table available for n <= 8, and ``FieldCtx.inv_table``,
the inverses as one array with 0 mapped to 0.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

MAX_DEGREE = 16


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


def poly_mulmod(a: int, b: int, m: int) -> int:
    """Carry-less shift-and-add product of `a` and `b`, reduced mod `m`."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    return poly_mod(acc, m)


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
        Field degree, 1 <= n <= 16.
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
        self.q = 1 << n
        self.modulus = modulus
        self._build_tables()
        self._as_root: Optional[list] = None  # lazy: c -> root of t^2+t+c, or -1

    # -- construction helpers -------------------------------------------------

    def _build_tables(self) -> None:
        q = self.q
        if q == 2:
            exp = [1]
            generator = 1
        else:
            generator = None
            exp = []
            for g in range(2, q):
                exp = [1]
                x = 1
                for _ in range(q - 2):
                    x = poly_mulmod(x, g, self.modulus)
                    if x == 1:
                        break
                    exp.append(x)
                if len(exp) == q - 1 and poly_mulmod(exp[-1], g, self.modulus) == 1:
                    generator = g
                    break
            if generator is None:
                raise AssertionError("no multiplicative generator found")
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = generator
        self._exp = exp
        self._log = log
        # trace by repeated squaring, tabulated once
        tr = [0] * q
        for a in range(1, q):
            acc, x = 0, a
            for _ in range(self.n):
                acc ^= x
                x = self.mul(x, x)
            tr[a] = acc
        if any(t not in (0, 1) for t in tr):
            raise AssertionError("trace fell outside F_2")
        self._trace = tr
        # inverse table for vectorized callers, 0 -> 0
        inv = np.zeros(q, dtype=np.uint16)
        inv[exp] = np.array(exp, dtype=np.uint16)[(-np.arange(q - 1)) % (q - 1)]
        self.inv_table: np.ndarray = inv
        # dense numpy product table for vectorized callers (small fields only)
        if self.n <= 8:
            t = np.zeros((q, q), dtype=np.uint16)
            for a in range(1, q):
                for b in range(1, q):
                    t[a, b] = self._exp[(self._log[a] + self._log[b]) % (q - 1)]
            self.mul_table: Optional[np.ndarray] = t
        else:
            self.mul_table = None

    # -- scalar operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def sqrt(self, a: int) -> int:
        """The unique square root: squaring is a bijection in characteristic 2."""
        return self.pow(a, 1 << (self.n - 1))

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def least_trace_one(self) -> int:
        for a in range(self.q):
            if self._trace[a] == 1:
                return a
        raise AssertionError("trace is surjective onto F_2")  # unreachable

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
    if ctx._as_root is None:
        # invert t -> t^2 + t once; each image has the fiber {t, t+1}
        table = [-1] * ctx.q
        for t in range(ctx.q):
            v = ctx.mul(t, t) ^ t
            if table[v] == -1:
                table[v] = t
        ctx._as_root = table
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
    for y in ctx.nonzero():
        # with x = t*y the equation becomes t^2 + t + lam + (1+mu)/y^2 = 0
        c = lam ^ ctx.div(rhs, ctx.square(y))
        for t in solve_artin_schreier(ctx, c):
            sols.add((ctx.mul(t, y), y))
    return sols


def conic_solution_count_bruteforce(ctx: FieldCtx, lam: int, mu: int) -> int:
    """Literal double loop over F_q^2; the oracle for conic_solution_set."""
    count = 0
    for x in ctx.elements():
        for y in ctx.elements():
            v = ctx.mul(x, x) ^ ctx.mul(x, y) ^ ctx.mul(lam, ctx.mul(y, y)) ^ mu
            if v == 1:
                count += 1
    return count

