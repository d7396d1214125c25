"""The benchmark's workloads.

Each workload drives quadcover from outside, through the public functions of
its modules.  ``setup`` builds what the timed phase consumes; ``round`` is one
timed unit of work (a census call, a verifier chain, a figure or a CLI
command) and checks every output it gets back.  The library receives only
inputs generated here from the workload seed.

Why each workload exists is recorded in BENCHMARK.json and on its class.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

import numpy as np

from quadcover import cli
from quadcover.cliquecensus import build_tangency_graph, census, verify_srg
from quadcover.covering import (canonical_covering, fiber_distances,
                                verify_adjacency_oracle, verify_covering)
from quadcover.figures import (extend_cube, extend_cube_bruteforce,
                               extend_hexagon_to_cubes,
                               extend_hexagon_to_cubes_bruteforce,
                               figure_to_clique, lift_clique_to_figure,
                               verify_centric_figure)
from quadcover.gf2n import FieldCtx, is_irreducible, trace
from quadcover.ovoid import build_geometry, verify_semipartial
from quadcover.quadric import build_model
from quadcover.subf2 import closure_report

from tracing import Tracer

# Expected closure of a lifted figure: (type tag, points, lines).
CLOSURE = {"hexagon": ("Qplus32", 9, 6), "cube": ("Q42", 15, 15)}
MIX_SIZE = 11  # commands in one pass of the cli-q4 mix
COVERING_LAWS = ("fibers_ok", "line_bijections_ok", "pencil_bijections_ok",
                 "quotient_iso_ok")


def srg_params(q: int) -> Tuple[int, int, int, object]:
    """(v, k, lambda, mu) of the tangency graph; mu is None when the graph
    is complete (q = 2), as ``verify_srg`` reports it."""
    v, k = q * q * (q * q - 1) // 2, (q - 1) * (q * q + 1)
    return v, k, q * q + q - 2, (2 * q * (q - 1) if v - k - 1 else None)


def semipartial_pairs(q: int) -> int:
    """Non-incident (ovoid, pencil) pairs: pencils times (ovoids - q)."""
    v = srg_params(q)[0]
    return v * (q * q + 1) // q * (v - q)


def extension_counts(n: int) -> Dict[str, List[int]]:
    """Clique extension laws: 3->4 is q+1; 4->5 and 4->6 hold at odd degree."""
    odd = n % 2
    return {"3to4": [2 ** n + 1], "4to5": [2 * odd], "4to6": [odd]}


def round_seed(seed: int, i: int) -> int:
    return int(np.random.default_rng([seed, i]).integers(2 ** 62))


class Round:
    """Checks of one timed round, grouped by the operation they belong to."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.ops: Dict[str, bool] = {}

    def check(self, op: str, layer: str, ok) -> None:
        ok = bool(ok)
        self.ops[op] = self.ops.get(op, True) and ok
        if not ok:
            self.tr.fail(layer)


class Workload:
    """One benchmark workload: ``setup`` once, then timed ``round`` calls."""

    name = ""
    operations: Tuple[str, ...] = ()   # operations of one round

    def __init__(self, seed: int, tiny: bool, out_dir: str):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir

    def setup(self, tr: Tracer) -> None:
        raise NotImplementedError

    def round(self, tr: Tracer, i: int, rnd: Round) -> None:
        raise NotImplementedError

    def traced_rounds(self) -> int:
        """Rounds of a traced pass: fixed, so its counts repeat exactly."""
        return 1

    def close(self) -> None:
        pass

    def _build(self, tr: Tracer, ctx: FieldCtx, lam=None) -> None:
        self.model = tr.call("quadric.build_model", build_model, ctx, lam=lam, mem="rss")
        self.gx = tr.call("ovoid.build_geometry", build_geometry, self.model, mem="rss")


class CensusQ8(Workload):
    """Sampled q = 8 census: the per-edge kernel, at odd degree so that the
    4->5 and 4->6 laws run.  The full census (~4 min) is too long to repeat."""

    name = "census-q8"
    operations = ("census",)

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.n = 1 if tiny else 3
        self.n_edges = 200 if tiny else 4000

    def setup(self, tr):
        self._build(tr, FieldCtx(self.n))
        self.g = tr.call("cliquecensus.build_tangency_graph", build_tangency_graph, self.gx)

    def round(self, tr, i, rnd):
        rep = tr.call("cliquecensus.census", census, self.g, self.gx, mode="sampled",
                      seed=round_seed(self.seed, i), n_samples=self.n_edges, mem="heap")
        rnd.check("census", "cliquecensus", rep.ok)
        rnd.check("census", "cliquecensus",
                  rep.extension_counts == extension_counts(self.n))
        rnd.check("census", "cliquecensus", rep.edges_checked == self.n_edges)
        tr.add("cliquecensus.edges_checked", rep.edges_checked)


class VerifyQ8(Workload):
    """q = 8 construction and structural verifiers; the census does no work
    here, so this is the control for census-kernel changes.  The seed picks
    the field modulus and the trace-one form parameter."""

    name = "verify-q8"
    operations = ("canonical_covering", "verify_covering", "fiber_distances",
                  "verify_adjacency_oracle", "verify_srg", "verify_semipartial")

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.n = 1 if tiny else 3
        moduli = [m for m in range(1 << self.n, 2 << self.n) if is_irreducible(m)]
        self.modulus = moduli[seed % len(moduli)]
        ctx = FieldCtx(self.n, modulus=self.modulus)
        lams = [a for a in ctx.elements() if trace(ctx, a) == 1]
        self.lam = lams[seed // len(moduli) % len(lams)]

    def setup(self, tr):
        self._build(tr, FieldCtx(self.n, modulus=self.modulus), lam=self.lam)

    def round(self, tr, i, rnd):
        q = 2 ** self.n
        v, k, lam, mu = srg_params(q)
        cov = tr.call("covering.canonical_covering", canonical_covering, self.model, self.gx)
        rnd.check("canonical_covering", "covering", len(cov.point_fiber) == v)
        rep = tr.call("covering.verify_covering", verify_covering, cov)
        rnd.check("verify_covering", "covering",
                  all(rep[law] for law in COVERING_LAWS) and "counterexample" not in rep)
        dist = tr.call("covering.fiber_distances", fiber_distances, cov, mem="heap")
        rnd.check("fiber_distances", "covering",
                  dist["fibers_at_distance_3"] and dist["diameter_is_3"])
        orc = tr.call("covering.verify_adjacency_oracle", verify_adjacency_oracle, cov)
        rnd.check("verify_adjacency_oracle", "covering",
                  orc["pass"] and orc["pairs_checked"] == v * (v - 1) // 2)
        g = tr.call("cliquecensus.build_tangency_graph", build_tangency_graph, self.gx)
        srg = tr.call("cliquecensus.verify_srg", verify_srg, g)
        rnd.check("verify_srg", "cliquecensus",
                  srg["pass"] and (srg["v"], srg["k"], srg["lambda"], srg["mu"]) == (v, k, lam, mu))
        semi = tr.call("ovoid.verify_semipartial", verify_semipartial, self.gx)
        rnd.check("verify_semipartial", "ovoid",
                  semi["pass"] and semi.get("pairs_checked") == semipartial_pairs(q))
        tr.add("ovoid.semipartial_pairs_checked", semi.get("pairs_checked", 0))


class _CensusCliques(Workload):
    """Set-up shared by the q = 4 workloads: the full census with the
    non-linear triangles and 4-cliques collected."""

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.n = 1 if tiny else 2

    def setup(self, tr):
        self._build(tr, FieldCtx(self.n))
        self.g = tr.call("cliquecensus.build_tangency_graph", build_tangency_graph, self.gx)
        rep = tr.call("cliquecensus.census", census, self.g, self.gx, collect=True, mem="heap")
        if not (rep.ok and rep.extension_counts == extension_counts(self.n)):
            raise RuntimeError(f"set-up census failed: {rep.to_dict()}")
        self.cliques = {"hexagon": rep.triangles, "cube": rep.cliques4}


class FiguresQ4(_CensusCliques):
    """Scalar figure and subgeometry path at q = 4, behind the slowest
    acceptance tests; the census does little work here.  A round is one
    hexagon and one cube, lifted from seeded cliques."""

    name = "figures-q4"
    operations = ("hexagon", "cube")

    def setup(self, tr):
        super().setup(tr)
        self.cov = tr.call("covering.canonical_covering", canonical_covering, self.model, self.gx)

    def traced_rounds(self):
        return 10 if self.tiny else 1000

    def round(self, tr, i, rnd):
        rng = np.random.default_rng([self.seed, i])
        for kind in self.operations:
            rows = self.cliques[kind]
            self._figure(tr, rnd, kind, tuple(int(x) for x in rows[rng.integers(len(rows))]))

    def _figure(self, tr, rnd, kind, clique):
        q, odd = 2 ** self.n, self.n % 2
        model, cov = self.model, self.cov
        fig = tr.call("figures.lift_clique_to_figure", lift_clique_to_figure, cov, clique)
        back = tr.call("figures.figure_to_clique", figure_to_clique, cov, fig)
        rnd.check(kind, "figures", back == tuple(sorted(clique)))
        rep = tr.call("figures.verify_centric_figure", verify_centric_figure, model, fig)
        rnd.check(kind, "figures", rep["pass"])
        if kind == "hexagon":
            cubes = tr.call("figures.extend_hexagon_to_cubes",
                            extend_hexagon_to_cubes, model, fig)
            brute = tr.call("figures.extend_hexagon_to_cubes_bruteforce",
                            extend_hexagon_to_cubes_bruteforce, model, fig)
            rnd.check(kind, "figures", len(cubes) == q + 1)
            rnd.check(kind, "figures", {c.key() for c in cubes} == {c.key() for c in brute})
        else:
            ext = tr.call("figures.extend_cube", extend_cube, model, fig)
            brute = tr.call("figures.extend_cube_bruteforce", extend_cube_bruteforce, model, fig)
            rnd.check(kind, "figures", len(ext["decades"]) == 2 * odd
                      and (ext["dodecade"] is None) == (not odd))
            rnd.check(kind, "figures", {d.key() for d in ext["decades"]}
                      == {d.key() for d in brute["decades"]})
        span, sub = tr.call("subf2.closure_report", closure_report, model, fig, label=kind)
        rnd.check(kind, "subf2", span.ok and sub.gq_ok and sub.contains_n0
                  and (sub.type_tag, sub.point_count, sub.line_count) == CLOSURE[kind])


class CliQ4(_CensusCliques):
    """Every CLI subcommand at n <= 2, in process through ``cli.main``; the
    only workload that measures the cli layer, and the even-degree path of
    construction and census at small q.  A round is one pass over the mix."""

    name = "cli-q4"
    operations = tuple(f"command{j}" for j in range(MIX_SIZE))

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        # n = 2 even when tiny: at n = 1 `verify srg` compares the vacuous mu
        # of the complete tangency graph with the formula and fails.
        self.n = 2

    def setup(self, tr):
        super().setup(tr)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=self.out_dir)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def mix(self, i: int) -> List[Tuple[str, List[str]]]:
        """Round ``i``: every subcommand, with clique ids drawn from the seed."""
        rng = np.random.default_rng([self.seed, i])

        def draw(kind):
            rows = self.cliques[kind]
            return ",".join(str(int(x)) for x in rows[rng.integers(len(rows))])

        # `verify semipartial` and `figures verify` run at n = 1: at n = 2 they
        # take 2 s and 1.5 s, and a pass that short fits several times into a run.
        n, n1 = ["--n", str(self.n)], ["--n", "1"]
        tri, quad = draw("hexagon"), draw("cube")
        return [
            ("build", ["build", *n]),
            ("verify_srg", ["verify", "srg", *n]),
            ("verify_covering", ["verify", "covering", *n]),
            ("verify_semipartial", ["verify", "semipartial", *n1]),
            ("census", ["census", *n]),
            ("lift", ["lift", *n, "--clique", quad]),
            ("subgeometry", ["subgeometry", *n, "--clique", tri]),
            ("subgeometry", ["subgeometry", *n, "--clique", quad]),
            ("subgeometry", ["subgeometry", *n1, "--clique", "0,1,2,3",
                             "--extend-dodecade"]),
            ("figures_verify", ["figures", "verify", *n1,
                                "--seed", str(int(rng.integers(2 ** 31)))]),
            ("counts", ["counts"]),
        ]

    def round(self, tr, i, rnd):
        for op, (label, argv) in zip(self.operations, self.mix(i)):
            out = os.path.join(self.tmp, f"{op}.json")
            t0 = time.perf_counter()
            try:
                rc = tr.call("cli.main", cli.main, [*argv, "--out", out], label=label)
            except SystemExit as exc:      # argparse rejected the command line
                rc = exc.code
            wall = time.perf_counter() - t0
            report = {}
            if rc in (0, 1):
                with open(out) as fh:
                    report = json.load(fh)
                os.remove(out)
            rnd.check(op, "cli", rc == 0 and report.get("pass") is True)
            tr.sample("cli.untimed_ms",
                      1000 * (wall - sum(report.get("timings", {}).values())))


WORKLOADS = {w.name: w for w in (CensusQ8, VerifyQ8, FiguresQ4, CliQ4)}
