"""Measurement of one workload: the untraced run with its end-to-end
metrics, and the traced run with its per-layer metrics.

Imported by run.py once the BLAS thread caps are in the environment, since
importing the workloads loads numpy.
"""

import gc
import os
import resource
import statistics
import sys
import time
import traceback

from hostspeed import HostSpeed
from tracing import Tracer
from workloads import Round

SETUP_REPEATS = 3   # set-up is timed this many times; the median is reported
# A run makes at least this many rounds, even past --seconds: a verify-q8
# round takes about 12 s, and one round alone varies by +-5 % after scaling.
MIN_ROUNDS = 2
CLI_LABELS = ("build", "verify_srg", "verify_covering", "verify_semipartial",
              "census", "lift", "subgeometry", "figures_verify", "counts")
LAYERS = ("gf2n", "projgeom", "quadric", "ovoid", "covering", "cliquecensus",
          "figures", "subf2", "cli")


def run_round(wl, tr, i):
    """One timed round; returns (operations attempted, operations failed)."""
    rnd = Round(tr)
    try:
        with tr.scope(f"bench.{wl.name}", op=i):
            wl.round(tr, i, rnd)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return len(wl.operations), len(wl.operations)
    return len(rnd.ops), sum(not ok for ok in rnd.ops.values())


def untraced(cls, args, import_s):
    """End-to-end metrics: set-up timed SETUP_REPEATS times, then rounds for
    ``--seconds`` and at least MIN_ROUNDS; every time host-scaled (see
    hostspeed.py)."""
    off = Tracer(False)
    with HostSpeed() as hs:
        setups = []
        wl = None
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
                wl = None
                gc.collect()
            wl = cls(args.seed, args.tiny, args.out_dir)
            t0 = hs.now()
            wl.setup(off)
            setups.append(hs.scaled(t0, hs.now()))

        attempted = failed = rounds = 0
        start = hs.now()
        while rounds < MIN_ROUNDS or time.perf_counter() - start[0] < args.seconds:
            a, f = run_round(wl, off, rounds)
            rounds += 1
            attempted, failed = attempted + a, failed + f
        timed = hs.scaled(start, hs.now())
    wl.close()

    # Imports ran before the sampler started; each set-up's own factor scales them.
    setup_s = statistics.median((import_s + raw) * scaled / raw for raw, scaled in setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "round_ms": (1000 * timed[1] / rounds, "ms"),
    }
    print(f"{rounds} rounds; raw: setup {import_s + statistics.median(r for r, _ in setups):.3f} s, "
          f"round {1000 * timed[0] / rounds:.3f} ms; host factor {timed[1] / timed[0]:.3f}, "
          f"{hs.n} reference samples", file=sys.stderr)
    return attempted, failed, metrics


def one_pass(cls, args, tr):
    """Set-up once and a fixed number of rounds; returns (wall s, attempted,
    failed, round times)."""
    attempted = failed = 0
    times = []
    t0 = time.perf_counter()
    wl = cls(args.seed, args.tiny, args.out_dir)
    with tr.scope("bench.setup"):
        wl.setup(tr)
    for i in range(wl.traced_rounds()):
        t1 = time.perf_counter()
        a, f = run_round(wl, tr, i)
        times.append(time.perf_counter() - t1)
        attempted, failed = attempted + a, failed + f
    wall = time.perf_counter() - t0
    wl.close()
    return wall, attempted, failed, times


def traced(cls, args):
    """Per-layer metrics from a traced pass, then an untraced pass over the
    same set-up and rounds that gives the tracing overhead.  The traced pass
    goes first so that its set-up builds start from a fresh process."""
    tr = Tracer(True)
    with tr.counters():
        wall, attempted, failed, _ = one_pass(cls, args, tr)
    gc.collect()
    ref_wall, _, _, ref_times = one_pass(cls, args, Tracer(False))
    metrics = layer_metrics(tr)
    # The tail from the untraced pass, where 1,000 rounds (figures-q4) leave
    # ten beyond the 99th percentile.
    tail = statistics.quantiles(ref_times, n=100)[98] if len(ref_times) >= 1000 else 0.0
    metrics["figures.pair_p99_ms"] = (1000 * tail, "ms")
    metrics["trace.untraced_s"] = (ref_wall, "s")
    metrics["trace.overhead_s"] = (wall - ref_wall, "s")
    tr.dump(os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "wall_s": wall,
             "untraced_wall_s": ref_wall})
    return attempted, failed, metrics


def layer_metrics(tr):
    """Per-layer metrics of BENCHMARK.json; 0 where a workload leaves a layer idle."""

    def p50_ms(name, label=None):
        d = tr.durations(name, label)
        return 1000 * statistics.median(d) if d else 0.0

    def total_s(name):
        return sum(tr.durations(name))

    m = {}
    for key in ("gf2n.mul_calls", "gf2n.inv_calls", "projgeom.line_points_calls",
                "projgeom.rref_calls", "projgeom.normalize_tuple_calls",
                "projgeom.null_space_calls", "cliquecensus.edges_checked",
                "ovoid.semipartial_pairs_checked"):
        m[key] = (tr.counts[key], "count")
    for span in ("quadric.build_model", "ovoid.build_geometry", "ovoid.verify_semipartial",
                 "covering.canonical_covering", "covering.verify_covering",
                 "covering.fiber_distances", "covering.verify_adjacency_oracle",
                 "cliquecensus.build_tangency_graph", "cliquecensus.census",
                 "cliquecensus.verify_srg"):
        m[span + "_s"] = (total_s(span), "s")
    for span in ("quadric.build_model", "ovoid.build_geometry",
                 "covering.fiber_distances", "cliquecensus.census"):
        m[span + "_peak_mb"] = (tr.peak_mb(span), "MB")
    for metric, span in (("lift", "lift_clique_to_figure"),
                         ("verify_centric", "verify_centric_figure"),
                         ("extend_hexagon", "extend_hexagon_to_cubes"),
                         ("extend_hexagon_bruteforce", "extend_hexagon_to_cubes_bruteforce"),
                         ("extend_cube", "extend_cube"),
                         ("extend_cube_bruteforce", "extend_cube_bruteforce")):
        m[f"figures.{metric}_p50_ms"] = (p50_ms("figures." + span), "ms")
    for kind in ("hexagon", "cube"):
        m[f"subf2.closure_{kind}_p50_ms"] = (p50_ms("subf2.closure_report", kind), "ms")
    for layer in ("figures", "subf2"):
        m[f"{layer}.busy_s"] = (tr.busy(layer), "s")
    for label in CLI_LABELS:
        m[f"cli.{label}_ms"] = (p50_ms("cli.main", label), "ms")
    untimed = tr.samples["cli.untimed_ms"]
    m["cli.untimed_ms"] = (statistics.median(untimed) if untimed else 0.0, "ms")
    for layer in LAYERS:
        m[f"{layer}.failed"] = (tr.failed[layer], "count")
    return m
