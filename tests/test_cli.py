"""End-to-end CLI runs: exit codes, JSON reports, exports, determinism."""

import csv
import json

import pytest

from quadcover import cli
from quadcover.cli import main


def _run(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return rc, data


def test_build_report(tmp_path):
    rc, data = _run(tmp_path, ["build", "--n", "1"])
    assert rc == 0
    assert data["schema"] == 1
    assert data["command"] == "build"
    assert data["pass"] is True
    assert data["config"]["n"] == 1
    assert data["model"]["points"] == 27
    assert data["model"]["q"] == 2
    assert all(c["pass"] for c in data["checks"])
    assert {c["name"] for c in data["checks"]} == {
        "point_count", "section_point_count", "affine_point_count", "line_count"}


def test_build_with_explicit_modulus(tmp_path):
    rc, data = _run(tmp_path, ["build", "--n", "3", "--modulus", "1011"])
    assert rc == 0
    assert data["model"]["points"] == 4617
    assert data["model"]["modulus"] == "1011"


def test_build_export_lines(tmp_path, model_q2):
    path = tmp_path / "lines.csv"
    rc, data = _run(tmp_path, ["build", "--n", "1", "--export-lines", str(path)])
    assert rc == 0
    assert data["exports"] == {"lines_csv": str(path)}
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["line_id", "p0", "p1", "p2"]
    assert len(rows) - 1 == data["model"]["lines"] == 45
    assert [[int(v) for v in row] for row in rows[1:]] == [
        [lid, *line] for lid, line in enumerate(model_q2.lines.tolist())]


def test_verify_srg(tmp_path):
    rc, data = _run(tmp_path, ["verify", "srg", "--n", "2"])
    assert rc == 0
    assert data["command"] == "verify srg"
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["srg_params"]["expected"] == [120, 51, 18, 24]
    assert by_name["srg_params"]["pass"]
    assert by_name["strong_regularity"]["pass"]
    assert by_name["feasibility_identity"]["pass"]
    # every unordered pair of the 120 ovoids at q = 4
    assert by_name["strong_regularity"]["cases"] == data["srg"]["pairs_checked"] == 7140


def test_verify_srg_complete_graph_q2(tmp_path):
    # at q = 2 the tangency graph is K6: no non-adjacent pair, so mu is vacuous
    rc, data = _run(tmp_path, ["verify", "srg", "--n", "1"])
    assert rc == 0
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["srg_params"]["expected"] == [6, 5, 4, None]
    assert data["srg"]["mu_vacuous"] is True
    assert by_name["strong_regularity"]["cases"] == 15


def test_verify_covering(tmp_path):
    rc, data = _run(tmp_path, ["verify", "covering", "--n", "1"])
    assert rc == 0
    names = {c["name"] for c in data["checks"]}
    assert {"fibers_ok", "line_bijections_ok", "pencil_bijections_ok",
            "quotient_iso_ok", "fibers_at_distance_3", "diameter_is_3",
            "far_pairs_are_fibers"} == names
    assert all(c["pass"] for c in data["checks"])
    # the 6 fibers at q = 2, and the ordered far pairs, two for each fiber
    cases = {c["name"]: c["cases"] for c in data["checks"] if "cases" in c}
    assert cases == {"fibers_at_distance_3": 6, "diameter_is_3": 12,
                     "far_pairs_are_fibers": 12}


def test_verify_semipartial_with_incidence_export(tmp_path):
    path = tmp_path / "inc.csv"
    rc, data = _run(tmp_path, ["verify", "semipartial", "--n", "1",
                               "--export-incidence", str(path)])
    assert rc == 0
    assert data["semipartial"]["pass"] is True
    assert {c["name"] for c in data["checks"]} == {
        "semipartial_axioms", "common_tangent_counts"}
    # the rows carry the cases their reports counted at q = 2
    cases = {c["name"]: c["cases"] for c in data["checks"]}
    assert cases == {"semipartial_axioms": 60, "common_tangent_counts": 120}
    rows = list(csv.reader(path.open()))
    assert rows[0][0] == "rosette_id"
    assert len(rows) - 1 == 15


def test_verify_semipartial_q8(tmp_path):
    # every law exhaustively at q = 8: 16,380 pencils against the 2,016 - 8
    # ovoids off each, and q (pair, point) cases for each such pair
    rc, data = _run(tmp_path, ["verify", "semipartial", "--n", "3"])
    assert rc == 0 and data["pass"] is True
    assert all(c["pass"] for c in data["checks"])
    cases = {c["name"]: c["cases"] for c in data["checks"]}
    assert cases == {"semipartial_axioms": 32_891_040, "common_tangent_counts": 263_128_320}


def test_census_full_q4(tmp_path):
    path = tmp_path / "edges.csv"
    rc, data = _run(tmp_path, ["census", "--n", "2", "--export-edges", str(path)])
    assert rc == 0
    cen = data["census"]
    assert (cen["linear_triangles"], cen["n3"], cen["n4"]) == (2040, 16320, 20400)
    assert cen["spectrum"] == [4]
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["nonlinear_3_cliques"]["expected"] == 16320
    assert by_name["nonlinear_5_cliques"]["expected"] == 0  # even field degree
    assert by_name["strong_regularity"]["pass"]
    assert by_name["strong_regularity"]["cases"] == 7140
    assert (data["srg"]["v"], data["srg"]["k"]) == (120, 51)
    # verify_srg is timed apart from the census
    assert {"census", "srg"} <= data["timings"].keys()
    assert all(c["pass"] for c in data["checks"])
    assert len(list(csv.reader(path.open()))) - 1 == 3060


def test_census_sampled_is_deterministic_modulo_timings(tmp_path):
    argv = ["census", "--n", "2", "--mode", "sampled",
            "--samples", "300", "--seed", "5"]
    rc1, d1 = _run(tmp_path, argv, "a.json")
    rc2, d2 = _run(tmp_path, argv, "b.json")
    assert rc1 == rc2 == 0
    d1.pop("timings")
    d2.pop("timings")
    assert d1 == d2
    assert d1["census"]["edges_checked"] == 300
    assert d1["census"]["n3"] is None


def test_lift_triangle(tmp_path, census_q4):
    clique = ",".join(str(v) for v in census_q4.triangles[0])
    rc, data = _run(tmp_path, ["lift", "--n", "2", "--clique", clique])
    assert rc == 0
    assert data["figure"]["kind"] == "hexagon"
    assert data["figure"]["center"] == [0, 0, 0, 0, 1, 0]
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["projects_back"]["pass"]


def test_lift_linear_clique_fails_with_reason(tmp_path, geom_q4):
    clique = ",".join(str(v) for v in geom_q4.pencil_members[0, :3])
    rc, data = _run(tmp_path, ["lift", "--n", "2", "--clique", clique])
    assert rc == 1
    assert data["pass"] is False
    assert "linear" in data["reason"]
    assert data["checks"] == [{"name": "liftable", "expected": True,
                               "actual": False, "source": "enumeration",
                               "pass": False}]


def test_subgeometry_of_a_triangle(tmp_path, census_q4):
    clique = ",".join(str(v) for v in census_q4.triangles[1])
    rc, data = _run(tmp_path, ["subgeometry", "--n", "2", "--clique", clique])
    assert rc == 0
    sub = data["subgeometry"]
    assert sub["type_tag"] == "Qplus32"
    assert (sub["point_count"], sub["line_count"]) == (9, 6)
    assert sub["contains_n0"] is True


def test_subgeometry_of_a_four_clique(tmp_path, census_q4):
    clique = ",".join(str(v) for v in census_q4.cliques4[0])
    rc, data = _run(tmp_path, ["subgeometry", "--n", "2", "--clique", clique])
    assert rc == 0
    assert data["subgeometry"]["type_tag"] == "Q42"
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["own_nucleus_differs"]["pass"]


def test_subgeometry_dodecade_extension(tmp_path, census_q2, census_q4, capsys):
    clique = ",".join(str(v) for v in census_q2.cliques4[0])
    rc, data = _run(tmp_path, ["subgeometry", "--n", "1", "--clique", clique,
                               "--extend-dodecade"])
    assert rc == 0
    assert data["figure"]["kind"] == "dodecade"
    assert data["subgeometry"]["type_tag"] == "Qminus52"
    # even degrees have no dodecade over a cube, so extension must refuse
    clique4 = ",".join(str(v) for v in census_q4.cliques4[0])
    rc, _ = _run(tmp_path, ["subgeometry", "--n", "2", "--clique", clique4,
                            "--extend-dodecade"], "even.json")
    assert rc == 2
    assert "no dodecade" in capsys.readouterr().err


def test_figures_verify_command(tmp_path):
    rc, data = _run(tmp_path, ["figures", "verify", "--n", "1"])
    assert rc == 0
    names = {c["name"] for c in data["checks"]}
    assert {"cube_center_sets_agree", "cube_center_count",
            "hexagon_solver_matches_bruteforce", "hexagon_extension_count_q_plus_1",
            "cube_solver_matches_bruteforce", "decades_per_cube",
            "fifth_pair_parity_law", "quadrangle_count"} == names
    assert all(c["pass"] for c in data["checks"])
    assert data["samples"]["hexagons"] == 20
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["decades_per_cube"]["actual"] == [2]   # over every sampled cube


def test_figures_verify_q8_reports_only_checks_that_ran(tmp_path):
    # the quadrangle count is enumerated only up to q = 4; at q = 8 no row
    # stands in for it
    rc, data = _run(tmp_path, ["figures", "verify", "--n", "3"])
    assert rc == 0
    assert data["pass"] is True
    names = {c["name"] for c in data["checks"]}
    assert not any(name.startswith("quadrangle_count") for name in names)
    assert all(c["pass"] for c in data["checks"])
    assert {c["name"]: c for c in data["checks"]}["decades_per_cube"]["actual"] == [2]


def test_counts_command(tmp_path):
    rc, data = _run(tmp_path, ["counts", "--n-max", "9"])
    assert rc == 0
    assert sorted(data["identities"], key=int) == [str(n) for n in range(1, 10)]
    assert len(data["checks"]) == 9
    assert all(c["pass"] for c in data["checks"])
    assert data["identities"]["3"]["subgeometries"] == 1338494976


def test_stdout_report(capsys):
    rc = main(["counts", "--n-max", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1


def test_out_dir_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("QUADCOVER_OUT_DIR", str(tmp_path))
    rc = main(["counts", "--n-max", "1", "--out", "nested.json"])
    assert rc == 0
    assert json.loads((tmp_path / "nested.json").read_text())["pass"] is True


@pytest.mark.parametrize("argv", [
    ["build", "--n", "7"],
    ["build", "--n", "0"],
    ["build", "--n", "17"],
    ["build", "--modulus", "1021", "--n", "1"],
    ["subgeometry", "--n", "1", "--clique", "0,1,2", "--extend-dodecade"],
    ["lift", "--n", "2", "--clique", "1,2"],
    ["lift", "--n", "2", "--clique", "1,2,3,4,5"],
    ["counts", "--n-max", "12"],
    ["build", "--n", "1", "--lambda", "5"],
    ["build", "--n", "1", "--lambda", "-1"],
    ["lift", "--n", "1", "--clique", "0,1,99"],
    ["lift", "--n", "1", "--clique", "0,1,1"],
    # ovoids 0 and 1 are not tangent: no clique, so bad input, not a failed lift
    ["lift", "--n", "2", "--clique", "0,1,2"],
    ["census", "--n", "1", "--mode", "sampled", "--samples", "0"],
    ["census", "--n", "1", "--mode", "sampled", "--samples", "-3"],
    ["figures", "verify", "--n", "1", "--samples", "0"],
    # unwritable output paths: a directory that does not exist
    ["build", "--n", "1", "--out", "/nonexistent/d/x.json"],
    ["build", "--n", "1", "--export-lines", "/nonexistent/d/x.csv"],
    ["build", "--n", "1", "--modulus", ""],
    # a negative seed names the flag: numpy rejected it in figures, and the
    # census masked it to 2^64 - 1
    ["figures", "verify", "--n", "1", "--seed", "-5"],
    ["census", "--n", "1", "--mode", "sampled", "--seed", "-1"],
])
def test_bad_configurations_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_negative_seed_names_the_flag(capsys):
    assert main(["census", "--n", "1", "--mode", "sampled", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"


def test_sampling_flags_only_where_read():
    # verify, build, lift and subgeometry read no seed or sample count
    with pytest.raises(SystemExit) as exc:
        main(["verify", "semipartial", "--n", "1", "--samples", "5"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys):
    # main builds its parser once a process; a run of commands through it
    # reports, exits and errs as the same run through a fresh parser a call
    runs = [["counts", "--n-max", "2"], ["build", "--n", "1"],
            ["verify", "srg", "--n", "1"],
            ["census", "--n", "1", "--mode", "sampled", "--samples", "5", "--seed", "3"],
            ["lift", "--n", "1", "--clique", "0,1,99"],                  # exits 2
            ["verify", "semipartial", "--n", "1", "--samples", "5"],     # argparse error
            ["--help"], ["figures", "verify", "--n", "1", "--samples", "3"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out, err = capsys.readouterr()
        if out.startswith("{"):
            out = json.loads(out)
            del out["timings"]
        return code, out, err

    cli.build_parser.cache_clear()
    shared = [outcome(argv) for argv in runs]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, ("exit", 2), ("exit", 0), 0]
    assert cli.build_parser() is cli.build_parser()
