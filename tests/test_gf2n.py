"""Field arithmetic, trace machinery, and the conic solution law."""

import pytest
from hypothesis import given, settings, strategies as st

from gf2n_oracle import conic_solution_count_bruteforce, poly_mulmod
from quadcover.gf2n import (MAX_DEGREE, FieldCtx, conic_solution_set, default_modulus,
                            is_irreducible, solve_artin_schreier, trace)

CTX3 = FieldCtx(3)
CTX4 = FieldCtx(4)


def test_default_moduli_are_irreducible():
    for n in range(1, 9):
        assert is_irreducible(default_modulus(n))


def test_inverse_table():
    for n in range(1, 9):
        ctx = FieldCtx(n)
        a = list(range(1, ctx.q))
        assert ctx.inv_table[0] == 0
        assert (ctx.mul_table[a, ctx.inv_table[a]] == 1).all()


def test_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldCtx(3, modulus=0b1010)  # x^3 + x = x(x+1)^2


@pytest.mark.parametrize("n", [0, MAX_DEGREE + 1, 16])
def test_rejects_degree_outside_the_tables(n):
    with pytest.raises(ValueError):
        FieldCtx(n)


MODULI = [(n, m) for n in range(1, MAX_DEGREE + 1) for m in range(1 << n, 2 << n)
          if is_irreducible(m)]


def test_every_irreducible_modulus_is_listed():
    # 2, 1, 2, 3, 6, 9, 18, 30 irreducible polynomials of degree 1..8
    assert MAX_DEGREE == 8 and len(MODULI) == 71


@pytest.mark.parametrize("n,m", MODULI, ids=[f"{n}-{m:#b}" for n, m in MODULI])
def test_tables_match_the_scalar_definitions(n, m):
    """Every table entry, both as numpy tables and as the Python-list rows,
    and every scalar operation against shift-and-add products."""
    ctx = FieldCtx(n, m)
    elems = range(ctx.q)
    mul = [[poly_mulmod(a, b, m) for b in elems] for a in elems]
    assert ctx.mul_table.tolist() == mul
    assert ctx.mul_rows == mul
    assert [[ctx.mul(a, b) for b in elems] for a in elems] == mul
    inv = [0] + [mul[a].index(1) for a in ctx.nonzero()]
    assert ctx.inv_table.tolist() == inv
    assert ctx.inv_row == inv
    assert [ctx.inv(a) for a in ctx.nonzero()] == inv[1:]
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    squares = [mul[a][a] for a in elems]
    assert [ctx.sqrt(a) for a in elems] == [squares.index(a) for a in elems]
    for a in elems:
        acc, x = 0, a
        for _ in range(n):
            acc ^= x
            x = mul[x][x]
        assert trace(ctx, a) == acc
    roots = {c: set() for c in elems}
    for t in elems:
        roots[squares[t] ^ t].add(t)
    assert [solve_artin_schreier(ctx, c) for c in elems] == [roots[c] for c in elems]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_ring_axioms_gf16(a, b, c):
    mul = CTX4.mul
    assert mul(a, b) == mul(b, a)
    assert mul(a, mul(b, c)) == mul(mul(a, b), c)
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 15))
def test_inverse_and_sqrt_gf16(a):
    assert CTX4.mul(a, CTX4.inv(a)) == 1
    assert CTX4.mul(CTX4.sqrt(a), CTX4.sqrt(a)) == a


def test_frobenius_fixes_prime_subfield():
    for ctx in (CTX3, CTX4):
        fixed = [a for a in ctx.elements() if ctx.square(a) == a]
        assert fixed == [0, 1]


def test_trace_is_additive_and_onto():
    for ctx in (CTX3, CTX4):
        vals = {trace(ctx, a) for a in ctx.elements()}
        assert vals == {0, 1}
        for a in ctx.elements():
            for b in ctx.elements():
                assert trace(ctx, a ^ b) == trace(ctx, a) ^ trace(ctx, b)
        # each trace value is hit equally often
        assert sum(trace(ctx, a) for a in ctx.elements()) == ctx.q // 2


def test_artin_schreier_solvability():
    for ctx in (CTX3, CTX4):
        for c in ctx.elements():
            roots = solve_artin_schreier(ctx, c)
            if trace(ctx, c) == 0:
                assert len(roots) == 2
                r = min(roots)
                assert roots == {r, r ^ 1}
                assert ctx.square(r) ^ r == c
            else:
                assert roots == set()


def test_least_trace_one_element():
    for n in (1, 2, 3, 4):
        ctx = FieldCtx(n)
        lam = ctx.least_trace_one()
        assert trace(ctx, lam) == 1
        assert all(trace(ctx, a) == 0 for a in range(lam))


def test_conic_solution_sets_are_solutions():
    ctx = CTX3
    lam = ctx.least_trace_one()
    for mu in ctx.elements():
        for x, y in conic_solution_set(ctx, lam, mu):
            lhs = ctx.square(x) ^ ctx.mul(x, y) ^ ctx.mul(lam, ctx.square(y)) ^ mu
            assert lhs == 1


def test_conic_counts_all_fields_all_parameters():
    # q+1 points for every trace-one lambda and every mu != 1, at q up to 16
    for n in (1, 2, 3, 4):
        ctx = FieldCtx(n)
        lams = [l for l in ctx.elements() if trace(ctx, l) == 1]
        assert lams
        for lam in lams:
            for mu in ctx.elements():
                want = ctx.q + 1 if mu != 1 else None
                got = conic_solution_set(ctx, lam, mu)
                brute = conic_solution_count_bruteforce(ctx, lam, mu)
                assert len(got) == brute
                if want is not None:
                    assert len(got) == want


def test_mu_one_degenerate_count():
    # at mu = 1 the equation degenerates to the anisotropic form vanishing,
    # leaving only the origin
    for n in (1, 2, 3):
        ctx = FieldCtx(n)
        lam = ctx.least_trace_one()
        assert conic_solution_count_bruteforce(ctx, lam, 1) == 1
