"""Scalar definitions of GF(2^n) arithmetic, which `quadcover.gf2n` now
reads from one product table.

Kept only as oracles for `test_gf2n.py` and `test_acceptance.py`: the
carry-less shift-and-add product, and a literal double loop over F_q^2 for
the conic solution count.  Neither reads the product table.
"""

from quadcover.gf2n import FieldCtx, poly_mod


def poly_mulmod(a: int, b: int, m: int) -> int:
    """Carry-less shift-and-add product of `a` and `b`, reduced mod `m`."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    return poly_mod(acc, m)


def conic_solution_count_bruteforce(ctx: FieldCtx, lam: int, mu: int) -> int:
    """Literal double loop over F_q^2; the oracle for conic_solution_set."""
    count = 0
    for x in ctx.elements():
        for y in ctx.elements():
            v = ctx.mul(x, x) ^ ctx.mul(x, y) ^ ctx.mul(lam, ctx.mul(y, y)) ^ mu
            if v == 1:
                count += 1
    return count
