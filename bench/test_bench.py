"""Self-test of the benchmark: tiny runs of every workload.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that outputs pass their checks, that the gf2n/projgeom call counts of two
traced runs with the same seed agree exactly, that the benchmark refuses to
run without the program's sources, and that host scaling leaves out the time
of its own reference samples.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args, "--seconds", "0.5",
                           "--tiny"], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(result, specs):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in specs})


def test_every_workload_emits_end_to_end_metrics():
    proc = run_bench("--workload", "all", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert [r.pop("workload") for r in results] == NAMES
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        check_result(result, SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat(workload):
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", workload, "--seed", "5", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check_result(result, SPEC["per_layer"])
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.startswith(("gf2n.", "projgeom.")) and k.endswith("_calls")})
    assert counts[0] == counts[1]
    assert counts[0]["gf2n.mul_calls"] > 0 and counts[0]["projgeom.rref_calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_scaling_takes_out_the_reference():
    sys.path.insert(0, str(BENCH))
    from hostspeed import REF_S, HostSpeed

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed(every=0.01) as hs:
        a = hs.now()
        while hs.n < 6:
            sum(range(10000))
        b = hs.now()
    assert signal.getsignal(signal.SIGALRM) == before
    raw, scaled = hs.scaled(a, b)
    assert 0 < raw < b[0] - a[0]          # the samples' own time is left out
    at, ref = hs.samples()
    inside = ref[(at >= a[0]) & (at <= b[0])]
    assert len(inside) >= 5
    assert scaled == pytest.approx(raw * REF_S * (1 / inside).mean())
