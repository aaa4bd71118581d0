import csv
import json

import pytest

from relnet.cli import main
from conftest import DATA_DIR


def run(args):
    return main(args)


@pytest.fixture()
def path_graph_file(tmp_path):
    p = tmp_path / "path.edges"
    p.write_text("0 1 0.6\n1 2 0.5\n")
    return p


@pytest.fixture()
def grid_file(tmp_path):
    out = tmp_path / "grid.edges"
    assert run(["gen", "--kind", "grid", "--rows", "3", "--cols", "3",
                "--seed", "4", "--out", str(out)]) == 0
    return out


class TestEstimate:
    def test_path_is_solved_by_decomposition(self, path_graph_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["estimate", "--graph", str(path_graph_file),
                    "--terminals", "0,2", "--s", "100", "--w", "4",
                    "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["estimate"] == pytest.approx(0.3)
        assert rep["samples_used"] == 0
        assert rep["exact"] is True

    def test_matches_brute_force_in_exact_regime(self, tmp_path):
        from relnet.exact import brute_force_reliability
        from relnet.graph import load_graph, TerminalSet
        from relnet.generate import random_connected_graph
        from relnet.graph import write_graph

        g = random_connected_graph(8, 16, seed=21)
        gf = tmp_path / "g.edges"
        write_graph(g, gf)
        out = tmp_path / "rep.json"
        code = run(["estimate", "--graph", str(gf), "--terminals", "0,3,7",
                    "--s", "10000", "--w", "10000", "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        ref = brute_force_reliability(load_graph(gf), TerminalSet.of([0, 3, 7]))
        assert rep["estimate"] == pytest.approx(ref.reliability, abs=1e-9)

    def test_seed_reproducibility(self, grid_file, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"rep{i}.json"
            assert run(["estimate", "--graph", str(grid_file),
                        "--terminals", "0,8", "--s", "500", "--w", "2",
                        "--seed", "7", "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_bdd_baseline(self, grid_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["estimate", "--graph", str(grid_file), "--terminals", "0,8",
                    "--s", "400", "--no-bdd", "--seed", "1",
                    "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["samples_used"] == 400
        assert rep["p_c"] == 0.0 and rep["p_d"] == 0.0
        assert rep["preprocessed"] is False

    def test_trace_file(self, grid_file, tmp_path):
        trace = tmp_path / "trace.csv"
        assert run(["estimate", "--graph", str(grid_file), "--terminals", "0,8",
                    "--s", "200", "--w", "2", "--trace", str(trace),
                    "--output", str(tmp_path / "r.json")]) == 0
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        assert rows
        assert set(rows[0]) == {"layer", "width", "p_c", "p_d",
                                "deleted_mass", "samples_drawn"}

    def test_trace_with_no_bdd_is_usage_error(self, grid_file, tmp_path):
        # the plain baseline has no layers, so there is nothing to trace
        trace, out = tmp_path / "trace.csv", tmp_path / "r.json"
        assert run(["estimate", "--graph", str(grid_file), "--terminals", "0,8",
                    "--no-bdd", "--trace", str(trace), "--output", str(out)]) == 2
        assert not trace.exists() and not out.exists()

    def test_timings_flag_adds_section(self, path_graph_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["estimate", "--graph", str(path_graph_file),
                    "--terminals", "0,2", "--timings",
                    "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert "timings" in rep

    def test_exact_precision_estimate_carries_raw(self, path_graph_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["estimate", "--graph", str(path_graph_file),
                    "--terminals", "0,2", "--precision", "exact",
                    "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["raw"]["estimate"] == "3/10"

    def test_no_bdd_ht_baseline(self, grid_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["estimate", "--graph", str(grid_file), "--terminals", "0,8",
                    "--s", "200", "--no-bdd", "--estimator", "ht",
                    "--seed", "2", "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["estimator"] == "ht"
        assert 0.0 <= rep["estimate"] <= 1.0

    def test_terminals_from_file(self, path_graph_file, tmp_path):
        tf = tmp_path / "terms.txt"
        tf.write_text("0\n2\n")
        out = tmp_path / "rep.json"
        assert run(["estimate", "--graph", str(path_graph_file),
                    "--terminals", f"@{tf}", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["estimate"] == pytest.approx(0.3)


class TestExact:
    def test_small_graph_uses_brute_force(self, path_graph_file, capsys):
        assert run(["exact", "--graph", str(path_graph_file),
                    "--terminals", "0,2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["method"] == "brute"
        assert rep["reliability"] == pytest.approx(0.3)

    def test_large_graph_uses_diagram(self, tmp_path, capsys):
        from relnet.generate import tree_rich_graph
        from relnet.graph import write_graph

        g = tree_rich_graph(50, cycle_count=4, seed=3)
        gf = tmp_path / "g.edges"
        write_graph(g, gf)
        assert run(["exact", "--graph", str(gf), "--terminals", "0,9"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["method"] == "diagram"

    def test_both_methods_agree(self, tmp_path, capsys):
        from relnet.generate import random_connected_graph
        from relnet.graph import write_graph

        g = random_connected_graph(8, 14, seed=12)
        gf = tmp_path / "g.edges"
        write_graph(g, gf)
        values = []
        for method in ("brute", "diagram"):
            assert run(["exact", "--graph", str(gf), "--terminals", "1,5",
                        "--method", method]) == 0
            values.append(json.loads(capsys.readouterr().out)["reliability"])
        assert values[0] == pytest.approx(values[1], abs=1e-9)

    def test_exact_precision_raw_field(self, path_graph_file, capsys):
        assert run(["exact", "--graph", str(path_graph_file),
                    "--terminals", "0,2", "--precision", "exact"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["raw"]["reliability"] == "3/10"


class TestPreprocessCmd:
    def test_triangle_barbell_collapses_entirely(self, tmp_path, capsys):
        gf = tmp_path / "barbell.edges"
        gf.write_text(
            "0 1 0.5\n0 2 0.5\n1 2 0.5\n2 3 0.6\n3 4 0.5\n3 5 0.5\n4 5 0.5\n"
        )
        out_dir = tmp_path / "parts"
        assert run(["preprocess", "--graph", str(gf), "--terminals", "0,5",
                    "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        # triangles are series-parallel: each reduces to a single edge of
        # probability 0.625 which then factors as a bridge
        assert manifest["bridge_factor"] == pytest.approx(0.6 * 0.625 * 0.625)
        assert manifest["parts"] == []

    def test_manifest_and_parts(self, tmp_path, capsys):
        # two K4 blocks joined by a bridge resist series-parallel reduction
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        lines = [f"{u} {v} 0.5" for u, v in k4]
        lines += [f"{u + 4} {v + 4} 0.5" for u, v in k4]
        lines.append("3 4 0.7")
        gf = tmp_path / "k4pair.edges"
        gf.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "parts"
        assert run(["preprocess", "--graph", str(gf), "--terminals", "0,7",
                    "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["bridge_factor"] == pytest.approx(0.7)
        assert len(manifest["parts"]) == 2
        for meta in manifest["parts"]:
            assert (out_dir / meta["path"]).exists()
            assert len(meta["terminals"]) >= 2


class TestGen:
    def test_grid_file(self, tmp_path):
        out = tmp_path / "g.edges"
        assert run(["gen", "--kind", "grid", "--rows", "5", "--cols", "5",
                    "--out", str(out)]) == 0
        from relnet.graph import load_graph

        g = load_graph(out)
        assert g.n == 25 and g.m == 40

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for f in (a, b):
            assert run(["gen", "--kind", "random", "--n", "12", "--m", "20",
                        "--seed", "5", "--out", str(f)]) == 0
        assert a.read_text() == b.read_text()

    def test_log_degree_probabilities(self, tmp_path):
        out = tmp_path / "g.edges"
        assert run(["gen", "--kind", "scale-free", "--n", "25",
                    "--probs", "log-degree", "--out", str(out)]) == 0
        from relnet.graph import load_graph

        g = load_graph(out)
        assert all(0.0 < p < 1.0 for p in g.probs)


class TestBench:
    def test_single_run_aggregates_match_row(self, grid_file, tmp_path):
        out = tmp_path / "bench.json"
        assert run(["bench", "--graph", str(grid_file), "--k", "3",
                    "--q1", "1", "--q2", "1", "--s", "200", "--w", "4",
                    "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        for method, agg in rep["methods"].items():
            row = next(r for r in rep["runs"] if r["method"] == method)
            err = row["exact"] - row["estimate"]
            assert agg["variance"] == pytest.approx(err * err, rel=1e-6, abs=1e-15)
            if row["exact"] > 0:
                assert agg["error_rate"] == pytest.approx(
                    abs(err) / row["exact"], rel=1e-6, abs=1e-15
                )

    def test_csv_format(self, grid_file, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--graph", str(grid_file), "--k", "2",
                    "--q1", "1", "--q2", "2", "--s", "100", "--w", "4",
                    "--format", "csv", "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 8  # 4 methods x q1 x q2
        assert {"method", "search", "rep", "estimate", "exact"} <= set(rows[0])


class TestErrorPaths:
    def test_missing_file_is_data_error(self):
        assert run(["estimate", "--graph", "/nonexistent.edges",
                    "--terminals", "0,1"]) == 3

    def test_bad_probability_is_data_error(self, tmp_path):
        gf = tmp_path / "bad.edges"
        gf.write_text("0 1 1.5\n")
        assert run(["exact", "--graph", str(gf), "--terminals", "0,1"]) == 3

    def test_bad_terminals_is_data_error(self, path_graph_file):
        assert run(["estimate", "--graph", str(path_graph_file),
                    "--terminals", "0,99"]) == 3

    def test_usage_error_is_exit_two(self):
        assert run(["estimate", "--graph"]) == 2
        assert run(["nonsense"]) == 2

    def test_invalid_k_is_usage_error(self, path_graph_file):
        assert run(["bench", "--graph", str(path_graph_file), "--k", "1"]) == 2

    def test_bench_bad_budget_or_width_is_usage_error(self, path_graph_file):
        base = ["bench", "--graph", str(path_graph_file), "--k", "2",
                "--q1", "1", "--q2", "1", "--no-exact"]
        for bad in (["--s", "0"], ["--s", "-3"], ["--w", "0"]):
            assert run(base + bad) == 2, bad

    def test_nonsense_caps_are_usage_errors(self):
        io = ["--graph", str(DATA_DIR / "karate.edges")]
        terms = ["--terminals", "0,16,33"]
        for argv in (
            ["estimate", *io, *terms, "--width-cap", "0"],
            ["estimate", *io, *terms, "--width-cap", "-5"],
            ["exact", *io, *terms, "--method", "diagram", "--width-cap", "0"],
            ["exact", *io, *terms, "--method", "brute", "--brute-cap", "-1"],
            ["bench", *io, "--k", "2", "--q1", "1", "--q2", "1", "--s", "10",
             "--no-exact", "--width-cap", "0"],
        ):
            assert run(argv) == 2, argv

    def test_brute_cap_is_resource_error(self, tmp_path):
        from relnet.generate import random_connected_graph
        from relnet.graph import write_graph

        g = random_connected_graph(10, 20, seed=1)
        gf = tmp_path / "g.edges"
        write_graph(g, gf)
        assert run(["exact", "--graph", str(gf), "--terminals", "0,1",
                    "--method", "brute", "--brute-cap", "12"]) == 4

    def test_width_cap_is_resource_error(self, tmp_path):
        assert run(["exact", "--graph", str(DATA_DIR / "karate.edges"),
                    "--terminals", "0,16,33", "--method", "diagram",
                    "--width-cap", "40"]) == 4
