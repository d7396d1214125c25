"""Acceptance suite: one test per headline claim, one PASS/FAIL line each.

Each test prints a single summary line (visible with ``pytest -s`` or in the
captured output); the assertions inside carry the exact expected values.
Runtime bounds cover the verification computations themselves, on structures
prepared once per session by the fixtures.
"""

import time

import numpy as np
import pytest

from gf2n_oracle import conic_solution_count_bruteforce
from quadcover.cliquecensus import (
    census,
    formula_n3,
    formula_n4,
    formula_n5,
    formula_n6,
    verify_srg,
)
from quadcover.covering import verify_covering
from quadcover.figures import (
    enumerate_cube_centers,
    enumerate_cube_centers_bruteforce,
    extend_cube,
    extend_hexagon_to_cubes,
    extend_hexagon_to_cubes_bruteforce,
    figure_to_clique,
    formula_n6_bar,
    lift_clique_to_figure,
    verify_centric_figure,
)
from quadcover.gf2n import FieldCtx, conic_solution_set, trace
from quadcover.ovoid import verify_semipartial
from quadcover.subf2 import closure_report, count_identities, subgeometry_count_formula


class _criterion:
    """Prints exactly one PASS/FAIL line for the enclosed checks."""

    def __init__(self, label):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"{'FAIL' if exc_type else 'PASS'} {self.label}")
        return False


def test_binary_field_census_and_unique_dodecade(tg_q2, geom_q2, cov_q2, model_q2):
    with _criterion("q=2 census 20/15/6/1 on K6 and the affine part as the "
                    "unique centric dodecade, under 1 s"):
        t0 = time.perf_counter()
        rep = census(tg_q2, geom_q2)
        elapsed = time.perf_counter() - t0

        assert len(tg_q2) == 6
        assert np.bitwise_count(tg_q2).sum() // 2 == 15  # complete graph
        assert (rep.n3, rep.n4, rep.n5, rep.n6) == (20, 15, 6, 1)
        assert rep.linear_triangles == 0
        assert (rep.n3, rep.n4) == (formula_n3(2), formula_n4(2))
        assert (rep.n5, rep.n6) == (formula_n5(2), formula_n6(2))
        assert rep.ok

        # the one 6-clique is the whole vertex set; its lift is a centric
        # dodecade filling the complement of the hyperplane section
        fig = lift_clique_to_figure(cov_q2, list(range(6)))
        assert fig.kind == "dodecade"
        assert verify_centric_figure(model_q2, fig)["pass"]
        assert fig.center == model_q2.nucleus
        assert sorted(fig.point_indices()) == sorted(
            int(x) for x in model_q2.affine_points)

        assert elapsed < 1.0, f"census took {elapsed:.3f}s"


def test_q4_regularity_semipartial_axioms_and_full_census(tg_q4, geom_q4):
    with _criterion("q=4 SRG(120,51,18,24), semipartial axioms, census "
                    "16320/20400/0, spectrum {4}, under 1 min"):
        t0 = time.perf_counter()
        srg = verify_srg(tg_q4)                    # every pair, matrix product
        semi = verify_semipartial(geom_q4)         # every non-incident pair
        rep = census(tg_q4, geom_q4)
        elapsed = time.perf_counter() - t0

        assert srg["pass"]
        assert (srg["v"], srg["k"], srg["lambda"], srg["mu"]) == (120, 51, 18, 24)
        assert semi == {"pass": True, "pairs_checked": 510 * (120 - 4)}
        assert (rep.linear_triangles, rep.n3, rep.n4) == (2040, 16320, 20400)
        assert rep.n5 == 0 and rep.n6 == 0         # even field degree
        assert rep.spectrum == [4]
        assert 2040 + 16320 == 120 * 51 * 18 // 6  # triangle identity
        assert rep.ok

        assert elapsed < 60.0, f"q=4 suite took {elapsed:.1f}s"


def test_q8_full_census_extension_laws_and_spectrum(tg_q8, geom_q8):
    with _criterion("q=8 SRG(2016,455,70,112), full census 9784320/22014720 "
                    "with (2,1)-extension law on every 4-clique, derived "
                    "8805888/1467648, spectrum {8,6}, under 15 min"):
        t0 = time.perf_counter()
        srg = verify_srg(tg_q8)                    # exhaustive at pair level
        rep = census(tg_q8, geom_q8)               # every edge processed
        elapsed = time.perf_counter() - t0

        assert srg["pass"]
        assert (srg["v"], srg["k"], srg["lambda"], srg["mu"]) == (2016, 455, 70, 112)
        assert rep.edges_checked == rep.edges_total
        assert rep.linear_triangles == 16380 * 56
        assert rep.n3 == 9784320
        assert rep.n4 == 22014720
        # full mode covers every non-linear 4-clique, far beyond 10^4 samples:
        # each extends to exactly two 5-cliques, merging into one 6-clique
        assert rep.extension_counts == {"3to4": [9], "4to5": [2], "4to6": [1]}
        assert rep.n5 == 8805888 == formula_n5(8)
        assert rep.n6 == 1467648 == formula_n6(8)
        assert rep.spectrum == [8, 6]
        assert rep.ok

        assert elapsed < 900.0, f"q=8 suite took {elapsed:.0f}s"


def test_anisotropic_conic_counts_through_gf16():
    with _criterion("conic solution count q+1 for all trace-one lambda and "
                    "all mu != 1 over GF(2..16)"):
        for n in (1, 2, 3, 4):
            ctx = FieldCtx(n)
            lams = [x for x in ctx.elements() if trace(ctx, x) == 1]
            assert len(lams) == ctx.q // 2
            for lam in lams:
                for mu in ctx.elements():
                    if mu == 1:
                        continue
                    sols = conic_solution_set(ctx, lam, mu)
                    assert len(sols) == ctx.q + 1
                    assert conic_solution_count_bruteforce(ctx, lam, mu) == ctx.q + 1


@pytest.mark.parametrize("mname,count", [("model_q2", 3), ("model_q4", 45),
                                         ("model_q8", 441)])
def test_cube_center_solver_agrees_with_projective_scan(request, mname, count):
    model = request.getfixturevalue(mname)
    with _criterion(f"cube-center solver equals brute-force scan, {count} "
                    f"centers at q={model.ctx.q}"):
        par = enumerate_cube_centers(model)
        assert len(par) == count
        assert enumerate_cube_centers_bruteforce(model) == par


@pytest.mark.parametrize("cov_name", ["cov_q2", "cov_q4", "cov_q8"])
def test_covering_laws_exhaustive_all_fields(request, cov_name):
    cov = request.getfixturevalue(cov_name)
    q = cov.model.ctx.q
    with _criterion(f"two-fold covering laws exhaustive at q={q}"):
        rep = verify_covering(cov)
        assert rep["fibers_ok"]
        assert rep["line_bijections_ok"]
        assert rep["pencil_bijections_ok"]
        assert rep["quotient_iso_ok"]
        assert "counterexample" not in rep


def test_lift_project_identity_on_nonlinear_cliques(cov_q4, census_q4, cov_q8,
                                                    census_q8_sampled):
    with _criterion("lift-then-project identity on every non-linear 3-/4-clique "
                    "at q=4 and on over 10^4 samples at q=8, centered at the "
                    "nucleus"):
        n0_4 = cov_q4.model.nucleus
        for rows in (census_q4.triangles, census_q4.cliques4):
            for row in rows:
                clique = tuple(int(v) for v in row)
                fig = lift_clique_to_figure(cov_q4, clique)   # verifies centric
                assert fig.center == n0_4
                assert figure_to_clique(cov_q4, fig) == clique

        n0_8 = cov_q8.model.nucleus
        rng = np.random.default_rng(42)
        checked = 0
        for rows, take in ((census_q8_sampled.triangles, 6000),
                           (census_q8_sampled.cliques4, 6000)):
            sel = rng.choice(len(rows), size=min(take, len(rows)), replace=False)
            for row in rows[sel]:
                clique = tuple(sorted(int(v) for v in row))
                fig = lift_clique_to_figure(cov_q8, clique)
                assert fig.center == n0_8
                assert figure_to_clique(cov_q8, fig) == clique
                checked += 1
        assert checked >= 10 ** 4


def test_hexagon_extension_solver_vs_bruteforce(model_q2, cov_q2, census_q2,
                                                model_q4, cov_q4, census_q4,
                                                model_q8, cov_q8, census_q8_sampled):
    with _criterion("every hexagon extends to exactly q+1 cubes; solver equals "
                    "brute force on all hexagons at q=2,4 and 1000 random at q=8"):
        jobs = [(model_q2, cov_q2, census_q2.triangles, None),
                (model_q4, cov_q4, census_q4.triangles, None),
                (model_q8, cov_q8, census_q8_sampled.triangles, 1000)]
        rng = np.random.default_rng(7)
        for model, cov, tris, limit in jobs:
            if limit is not None:
                tris = tris[rng.choice(len(tris), size=limit, replace=False)]
            q = model.ctx.q
            for row in tris:
                hexf = lift_clique_to_figure(cov, [int(v) for v in row])
                cubes = extend_hexagon_to_cubes(model, hexf)
                assert len(cubes) == q + 1
                brute = extend_hexagon_to_cubes_bruteforce(model, hexf)
                assert {c.key() for c in cubes} == {c.key() for c in brute}


def test_binary_subgeometry_recognition(model_q4, cov_q4, census_q4,
                                        model_q8, cov_q8, census_q8_sampled):
    with _criterion("binary closures recognized as (9,6)/(15,15)/(27,45) "
                    "quadrangles with the nucleus in the span: all figures at "
                    "q=4; 1000 hexagons, 300 cubes and their 300 dodecades at "
                    "q=8"):
        for row in census_q4.triangles:
            fig = lift_clique_to_figure(cov_q4, [int(v) for v in row])
            span, rep = closure_report(model_q4, fig)
            assert span.ok
            assert (rep.type_tag, rep.point_count, rep.line_count) == ("Qplus32", 9, 6)
            assert rep.gq_ok and rep.contains_n0
        for row in census_q4.cliques4:
            fig = lift_clique_to_figure(cov_q4, [int(v) for v in row])
            span, rep = closure_report(model_q4, fig)
            assert span.ok
            assert (rep.type_tag, rep.point_count, rep.line_count) == ("Q42", 15, 15)
            assert rep.gq_ok and rep.contains_n0

        rng = np.random.default_rng(3)
        tris = census_q8_sampled.triangles
        for row in tris[rng.choice(len(tris), size=1000, replace=False)]:
            fig = lift_clique_to_figure(cov_q8, [int(v) for v in row])
            span, rep = closure_report(model_q8, fig)
            assert span.ok and rep.type_tag == "Qplus32" and rep.contains_n0
        quads = census_q8_sampled.cliques4
        for row in quads[rng.choice(len(quads), size=300, replace=False)]:
            fig = lift_clique_to_figure(cov_q8, [int(v) for v in row])
            span, rep = closure_report(model_q8, fig)
            assert span.ok and rep.type_tag == "Q42" and rep.contains_n0
            dod = extend_cube(model_q8, fig)["dodecade"]
            span, rep = closure_report(model_q8, dod)
            assert span.ok and rep.type_tag == "Qminus52" and rep.contains_n0


def test_exact_integer_identity_chain():
    with _criterion("exact integer identities for degrees 1..9: clique-count "
                    "ladder, dodecade total, subgeometry count, and the q=2 "
                    "unique subgeometry"):
        for n in range(1, 10):
            q = 2 ** n
            n3, n4 = formula_n3(q), formula_n4(q)
            assert (n3 * (q + 1)) % 4 == 0 and n4 == n3 * (q + 1) // 4
            off = (q ** 6 - 1) // (q - 1) - (q + 1) * (q ** 3 + 1)
            if n % 2 == 1:
                n5, n6 = formula_n5(q), formula_n6(q)
                assert (2 * n4) % 5 == 0 and n5 == 2 * n4 // 5
                assert n4 % 15 == 0 and n6 == n4 // 15
                assert formula_n6_bar(q) == n6 * off
                sub = subgeometry_count_formula(q)
                assert sub * 36 == formula_n6_bar(q)
        assert subgeometry_count_formula(2) == 1
        assert count_identities(range(1, 10))["all_ok"]
