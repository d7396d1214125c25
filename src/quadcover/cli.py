"""Command-line surface for building models and running verification suites.

Subcommands
-----------
build               model summary and point/line count checks
verify srg          strong regularity of the tangency graph
verify covering     fiber, line, pencil and quotient laws of the double cover
verify semipartial  point-line axioms of the ovoid geometry
census              clique census with classification and identity checks
lift                lift a clique to its centric figure
figures verify      parametric solvers against brute-force enumeration
subgeometry         binary closure and recognition for a lifted clique
counts              exact-integer identity checks across field degrees

Reports are JSON (stdout or ``--out``), with a ``schema`` version, a config
echo, per-check expected/actual/source rows, and timings kept in a separate
object so that identical configurations produce byte-identical payloads.
Exit status: 0 all checks pass, 1 a check failed, 2 bad configuration or an
output path (`--out`, `--export-*`) that cannot be written.

Every command runs on one `Run`: its stages (model, ovoid geometry, covering)
are built on first use and timed once each, so a command only adds its check
rows and payload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import cache, cached_property
from itertools import combinations
from typing import Optional, Sequence, Tuple

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Validated run parameters; the JSON config echo serializes this.

    The field defaults are the only defaults of the matching command-line
    flags: the parser leaves out every flag that was not given."""

    command: str
    n: int = 1
    modulus: Optional[str] = None
    lam: Optional[int] = None
    mode: str = "full"
    samples: Optional[int] = None
    seed: int = 0
    n_max: int = 9
    clique: Optional[Tuple[int, ...]] = None
    extend_dodecade: bool = False
    what: Optional[str] = None

    @property
    def label(self) -> str:
        return self.command if self.what is None else f"{self.command} {self.what}"

    def validate(self) -> None:
        from .quadric import MAX_BUILD_DEGREE

        if not 1 <= self.n <= MAX_BUILD_DEGREE:
            raise ValueError(f"field degree must be between 1 and {MAX_BUILD_DEGREE}")
        if self.mode not in ("full", "sampled"):
            raise ValueError("mode must be full or sampled")
        if self.modulus is not None and (self.modulus == ""
                                         or set(self.modulus) - {"0", "1"}):
            raise ValueError("modulus must be a binary literal")
        if not 1 <= self.n_max <= 9:
            raise ValueError("n-max must be between 1 and 9")
        q = 2 ** self.n
        if self.lam is not None and not 0 <= self.lam < q:
            raise ValueError(f"lambda must be a field element in 0..{q - 1}")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.command in ("lift", "subgeometry"):
            if not self.clique or len(self.clique) not in (3, 4):
                raise ValueError("a clique of 3 or 4 vertex ids is required")
            n_ovoids = q * q * (q * q - 1) // 2
            if (len(set(self.clique)) != len(self.clique)
                    or not all(0 <= v < n_ovoids for v in self.clique)):
                raise ValueError(f"clique ids must be distinct and in 0..{n_ovoids - 1}")
            if self.extend_dodecade and len(self.clique) != 4:
                raise ValueError("dodecade extension needs a 4-clique")


def _check(name: str, expected, actual, source: str) -> dict:
    return {"name": name, "expected": expected, "actual": actual,
            "source": source, "pass": expected == actual}


def _bool_check(name: str, actual: bool, source: str, cases=None) -> dict:
    """A pass/fail row; with `cases`, the number of cases the check covered."""
    row = _check(name, True, bool(actual), source)
    return row if cases is None else row | {"cases": cases}


# -- the staged pipeline -------------------------------------------------------


class Run:
    """The stages of one run.  ``model``, ``gx`` (ovoid geometry) and ``cov``
    (covering) are built on first use and each timed once under its report
    key; commands time their own checks with ``timed``."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.timings: dict = {}

    @contextmanager
    def timed(self, key: str):
        """Time the block under ``key``.  Resolve the stages a block uses
        before entering it, so that no stage is timed twice."""
        t0 = time.perf_counter()
        yield
        self.timings[key] = time.perf_counter() - t0

    def built(self, stage: str) -> bool:
        return stage in self.__dict__      # where cached_property keeps a stage

    @cached_property
    def model(self):
        from .gf2n import FieldCtx
        from .quadric import build_model

        modulus = int(self.cfg.modulus, 2) if self.cfg.modulus else None
        with self.timed("build_model"):
            return build_model(FieldCtx(self.cfg.n, modulus=modulus), lam=self.cfg.lam)

    @cached_property
    def gx(self):
        from .ovoid import build_geometry

        model = self.model
        with self.timed("geometry"):
            return build_geometry(model)

    @cached_property
    def cov(self):
        from .covering import canonical_covering

        model, gx = self.model, self.gx
        with self.timed("covering"):
            return canonical_covering(model, gx)


def _model_summary(model) -> dict:
    ctx = model.ctx
    return {
        "n": ctx.n, "q": ctx.q, "modulus": format(ctx.modulus, "b"),
        "lambda": model.lam,
        "points": model.n_points,
        "section_points": len(model.section_points),
        "affine_points": len(model.affine_points),
        "lines": len(model.lines),
        "nucleus": list(model.nucleus),
    }


def _figure_summary(fig) -> dict:
    return {"kind": fig.kind, "pairs": [list(p) for p in fig.pairs],
            "center": list(fig.center)}


# -- commands ------------------------------------------------------------------


def cmd_build(run: Run, args) -> dict:
    model = run.model
    q = model.ctx.q
    payload = {"checks": [
        _check("point_count", (q + 1) * (q ** 3 + 1), model.n_points, "formula"),
        _check("section_point_count", (q + 1) * (q ** 2 + 1),
               len(model.section_points), "formula"),
        _check("affine_point_count", q ** 4 - q ** 2,
               len(model.affine_points), "formula"),
        _check("line_count", (q ** 3 + 1) * (q ** 2 + 1),
               len(model.lines), "formula"),
    ]}
    if args.export_lines:
        with open(args.export_lines, "w") as fh:
            fh.write("line_id," + ",".join(f"p{i}" for i in range(q + 1)) + "\n")
            for lid, line in enumerate(model.lines.tolist()):
                fh.write(f"{lid}," + ",".join(str(p) for p in line) + "\n")
        payload["exports"] = {"lines_csv": args.export_lines}
    return payload


def cmd_verify_srg(run: Run, args) -> dict:
    from .cliquecensus import build_tangency_graph, formula_srg_params, verify_srg

    gx = run.gx
    with run.timed("verify"):
        rep = verify_srg(build_tangency_graph(gx))
    v, k, lam, mu = formula_srg_params(run.model.ctx.q)
    if v - k - 1 == 0:
        mu = None      # complete graph (q = 2): no non-adjacent pair to count
    return {"srg": rep, "checks": [
        _check("srg_params", [v, k, lam, mu],
               [rep["v"], rep["k"], rep["lambda"], rep["mu"]], "formula"),
        _bool_check("strong_regularity", rep["pass"], "enumeration", rep["pairs_checked"]),
        _bool_check("feasibility_identity", rep["feasibility_ok"], "oracle"),
    ]}


def cmd_verify_covering(run: Run, args) -> dict:
    from .covering import fiber_distances, verify_covering

    cov = run.cov
    with run.timed("verify"):
        rep = verify_covering(cov)
        dist = fiber_distances(cov)
    checks = [_bool_check(key, rep[key], "enumeration")
              for key in ("fibers_ok", "line_bijections_ok",
                          "pencil_bijections_ok", "quotient_iso_ok")]
    # the fibers tested, and the far pairs walked and compared with them
    checks += [_bool_check("fibers_at_distance_3", dist["fibers_at_distance_3"],
                           "enumeration", len(cov.point_fiber))]
    checks += [_bool_check(key, dist[key], "enumeration", dist["far_pairs"])
               for key in ("diameter_is_3", "far_pairs_are_fibers")]
    payload = {"covering": rep, "checks": checks}
    if "counterexample" in rep:
        payload["counterexample"] = rep["counterexample"]
    return payload


def cmd_verify_semipartial(run: Run, args) -> dict:
    from .ovoid import export_incidence_csv, verify_common_tangent_counts, verify_semipartial

    gx = run.gx
    with run.timed("verify"):
        rep = verify_semipartial(gx)
        tangents = verify_common_tangent_counts(gx)
    payload = {"semipartial": rep, "common_tangents": tangents, "checks": [
        _bool_check("semipartial_axioms", rep["pass"], "enumeration",
                    rep.get("pairs_checked")),
        _bool_check("common_tangent_counts", tangents["pass"], "enumeration",
                    tangents.get("cases_checked"))]}
    if args.export_incidence:
        export_incidence_csv(gx, args.export_incidence)
        payload["exports"] = {"incidence_csv": args.export_incidence}
    return payload


def cmd_census(run: Run, args) -> dict:
    from .cliquecensus import build_tangency_graph, census, export_edges_csv, verify_srg

    cfg, gx = run.cfg, run.gx
    with run.timed("census"):
        g = build_tangency_graph(gx)
        rep = census(g, gx, mode=cfg.mode, seed=cfg.seed,
                     n_samples=cfg.samples or 20000)
    with run.timed("srg"):
        srg = verify_srg(g)
    checks = [_bool_check("census_identities", rep.ok, "enumeration"),
              _bool_check("strong_regularity", srg["pass"], "enumeration",
                          srg["pairs_checked"])]
    if cfg.mode == "full":
        checks += [_check(f"nonlinear_{k}_cliques", rep.formulas[f"n{k}"],
                          getattr(rep, f"n{k}"), "formula") for k in (3, 4, 5, 6)]
    payload = {"census": rep.to_dict(), "srg": srg, "checks": checks}
    if args.export_edges:
        export_edges_csv(g, args.export_edges)
        payload["exports"] = {"edges_csv": args.export_edges}
    return payload


def _lift(run: Run):
    """The centric figure of the configured clique, extended to its dodecade
    when asked; raises ValueError for a clique that has none."""
    from .figures import extend_cube, lift_clique_to_figure

    cfg, model, cov = run.cfg, run.model, run.cov
    with run.timed("lift"):
        fig = lift_clique_to_figure(cov, cfg.clique)
        if cfg.extend_dodecade:
            fig = extend_cube(model, fig)["dodecade"]
            if fig is None:
                raise ValueError("no dodecade exists at even field degree")
    return fig


def cmd_lift(run: Run, args) -> dict:
    from .figures import figure_to_clique
    from .quadric import row_bits

    gx = run.gx
    for a, b in combinations(run.cfg.clique, 2):  # ids that are no clique: bad input
        if not row_bits(gx.tangency, a, b):
            raise ValueError(f"ovoids {a} and {b} are not tangent")
    try:
        fig = _lift(run)
    except ValueError as exc:
        return {"checks": [_check("liftable", True, False, "enumeration")],
                "reason": str(exc)}
    back = figure_to_clique(run.cov, fig)
    # the lift returns only a figure that passed verify_centric_figure
    return {"figure": _figure_summary(fig), "checks": [
        _bool_check("liftable", True, "enumeration"),
        _bool_check("centric_figure", True, "enumeration"),
        _check("projects_back", sorted(run.cfg.clique), sorted(back), "oracle"),
    ]}


def cmd_figures_verify(run: Run, args) -> dict:
    import numpy as np

    from .cliquecensus import build_tangency_graph, census
    from .figures import (count_quadrangles_exhaustive, count_quadrangles_formula,
                          enumerate_cube_centers, enumerate_cube_centers_bruteforce,
                          extend_cube, extend_cube_bruteforce,
                          extend_hexagon_to_cubes, extend_hexagon_to_cubes_bruteforce,
                          lift_clique_to_figure)

    cfg, model, gx, cov = run.cfg, run.model, run.gx, run.cov
    q = model.ctx.q
    checks = []

    with run.timed("cube_centers"):
        par = enumerate_cube_centers(model)
        bf = enumerate_cube_centers_bruteforce(model)
        checks.append(_check("cube_center_sets_agree", sorted(par), sorted(bf), "oracle"))
        checks.append(_check("cube_center_count", (q - 1) ** 2 * (q + 1),
                             len(par), "formula"))

    with run.timed("hexagon_extensions"):
        g = build_tangency_graph(gx)
        mode = "full" if cfg.n <= 2 else "sampled"
        rep = census(g, gx, mode=mode, seed=cfg.seed,
                     n_samples=4000 if mode == "sampled" else None, collect=True)
        rng = np.random.default_rng(cfg.seed)
        n_hex = min(cfg.samples or 20, len(rep.triangles))
        sel = rng.choice(len(rep.triangles), size=n_hex, replace=False)
        hex_ok = ext_ok = True
        for k in sel:
            hexf = lift_clique_to_figure(cov, tuple(int(x) for x in rep.triangles[k]))
            cubes = extend_hexagon_to_cubes(model, hexf)
            brute = extend_hexagon_to_cubes_bruteforce(model, hexf)
            hex_ok &= {c.key() for c in cubes} == {c.key() for c in brute}
            ext_ok &= len(cubes) == q + 1
        checks.append(_bool_check("hexagon_solver_matches_bruteforce", hex_ok, "oracle"))
        checks.append(_bool_check("hexagon_extension_count_q_plus_1", ext_ok, "formula"))

    with run.timed("cube_extensions"):
        n_cube = min(cfg.samples or 10, len(rep.cliques4))
        sel4 = rng.choice(len(rep.cliques4), size=n_cube, replace=False)
        want_decades = 2 if cfg.n % 2 == 1 else 0
        cube_ok = parity_ok = True
        n_decades = set()
        for k in sel4:
            cubef = lift_clique_to_figure(cov, tuple(int(x) for x in rep.cliques4[k]))
            ext = extend_cube(model, cubef)
            brute = extend_cube_bruteforce(model, cubef)
            cube_ok &= ({d.key() for d in ext["decades"]}
                        == {d.key() for d in brute["decades"]})
            n_decades.add(len(ext["decades"]))
            parity_ok &= len(ext["decades"]) == want_decades
            parity_ok &= (ext["dodecade"] is not None) == (want_decades > 0)
        checks.append(_bool_check("cube_solver_matches_bruteforce", cube_ok, "oracle"))
        checks.append(_check("decades_per_cube", [want_decades], sorted(n_decades),
                             "formula"))
        checks.append(_bool_check("fifth_pair_parity_law", parity_ok, "formula"))

    if q <= 4:  # the exhaustive count is out of reach above q = 4
        with run.timed("quadrangles"):
            checks.append(_check("quadrangle_count", count_quadrangles_formula(q),
                                 count_quadrangles_exhaustive(model), "enumeration"))

    return {"checks": checks, "samples": {"hexagons": int(n_hex), "cubes": int(n_cube)}}


def cmd_subgeometry(run: Run, args) -> dict:
    from .projgeom import normalize_tuple
    from .subf2 import closure_report, span_f2_radical

    fig = _lift(run)
    model = run.model
    with run.timed("closure"):
        span, rep = closure_report(model, fig)
    expect = {"hexagon": "Qplus32", "cube": "Q42", "dodecade": "Qminus52"}
    checks = [
        _bool_check("span_consistent", span.ok, "enumeration"),
        _check("subgeometry_type", expect[fig.kind], rep.type_tag, "oracle"),
        _bool_check("quadrangle_axioms", rep.gq_ok, "enumeration"),
        _bool_check("contains_ambient_nucleus", rep.contains_n0, "enumeration"),
    ]
    if fig.kind == "cube":
        rad = span_f2_radical(model, span)
        n0 = normalize_tuple(model.ctx, model.nucleus)
        checks.append(_bool_check("own_nucleus_differs",
                                  len(rad) == 1 and rad[0] != n0, "enumeration"))
    return {
        "figure": _figure_summary(fig),
        "subgeometry": {
            "type_tag": rep.type_tag, "point_count": rep.point_count,
            "line_count": rep.line_count, "contains_n0": rep.contains_n0,
            "contains_center": rep.contains_center,
            "degrees": list(rep.degrees),
        },
        "basis": [list(b) for b in span.basis],
        "checks": checks,
    }


def cmd_counts(run: Run, args) -> dict:
    from .subf2 import count_identities

    with run.timed("counts"):
        rep = count_identities(range(1, run.cfg.n_max + 1))
    checks = [_bool_check(f"identities_degree_{n}", info["ok"], "formula")
              for n, info in sorted(rep["per_n"].items())]
    return {"identities": {str(n): info for n, info in rep["per_n"].items()},
            "checks": checks}


_COMMANDS = {
    "build": cmd_build,
    "verify srg": cmd_verify_srg,
    "verify covering": cmd_verify_covering,
    "verify semipartial": cmd_verify_semipartial,
    "census": cmd_census,
    "lift": cmd_lift,
    "figures verify": cmd_figures_verify,
    "subgeometry": cmd_subgeometry,
    "counts": cmd_counts,
}


# -- argument parsing ----------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None,
                   help="write the JSON report here instead of stdout")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="field degree (q = 2^n)")
    p.add_argument("--modulus", type=str,
                   help="irreducible modulus as a binary literal, e.g. 1011")
    p.add_argument("--lambda", dest="lam", type=int,
                   help="quadric form parameter override (trace-one element)")
    _add_output_flags(p)


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="PRNG seed")
    p.add_argument("--samples", type=int, help="sample count for sampled checks")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once a process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="quadcover",
        description="elliptic quadric double covers: build and verify")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        # flags left out of the command line stay out of the namespace, so
        # that RunConfig supplies their defaults
        return sub.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)

    p = add("build", help="build a model and print its summary")
    _add_model_flags(p)
    p.add_argument("--export-lines", type=str, default=None,
                   help="CSV dump of quadric lines")

    p = add("verify", help="run a verification suite")
    p.add_argument("what", choices=("srg", "covering", "semipartial"))
    _add_model_flags(p)
    p.add_argument("--export-incidence", type=str, default=None,
                   help="CSV dump of the pencil incidence (semipartial only)")

    p = add("census", help="clique census")
    _add_model_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--mode", choices=("full", "sampled"))
    p.add_argument("--export-edges", type=str, default=None,
                   help="CSV dump of tangency edges")

    p = add("lift", help="lift a clique to a centric figure")
    _add_model_flags(p)
    p.add_argument("--clique", type=str, required=True,
                   help="comma-separated tangency-graph vertex ids")

    p = add("figures", help="figure solver cross-checks")
    p.add_argument("what", choices=("verify",))
    _add_model_flags(p)
    _add_sampling_flags(p)

    p = add("subgeometry", help="binary closure of a lifted clique")
    _add_model_flags(p)
    p.add_argument("--clique", type=str, required=True,
                   help="comma-separated tangency-graph vertex ids")
    p.add_argument("--extend-dodecade", action="store_true",
                   help="extend a 4-clique cube to its dodecade first")

    p = add("counts", help="exact-integer identity checks")
    p.add_argument("--n-max", type=int)
    _add_output_flags(p)

    return ap


def _config_from_args(args) -> RunConfig:
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if hasattr(args, f.name)}
    if "clique" in given:
        given["clique"] = tuple(int(x) for x in given["clique"].split(","))
    cfg = RunConfig(**given)
    cfg.validate()
    return cfg


def _resolve_out(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get("QUADCOVER_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        run = Run(cfg)
        payload = _COMMANDS[cfg.label](run, args)
    except (ValueError, OSError) as exc:     # bad input, or an unwritable --export-*
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if run.built("model"):
        payload["model"] = _model_summary(run.model)

    ok = all(c["pass"] for c in payload["checks"])
    report = {
        "schema": SCHEMA_VERSION,
        "command": cfg.label,
        "config": asdict(cfg),
        "pass": ok,
    }
    report.update(payload)
    report["timings"] = {k: round(v, 6) for k, v in run.timings.items()}

    text = json.dumps(report, indent=2, sort_keys=True)
    out = _resolve_out(args.out)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
