import csv
import json

import pytest

from relnet import cli, diagram
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
        # the pipeline at width 0: one part, whose root is deleted at once
        [part] = rep["parts"]
        assert part["layers"] == 0 and part["max_width"] == 1
        assert part["samples_used"] == 400

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

    def test_exact_precision_with_no_bdd_is_usage_error(self, grid_file, tmp_path):
        # the plain baseline is a float sample mean with no exact reading
        out = tmp_path / "r.json"
        assert run(["estimate", "--graph", str(grid_file), "--terminals", "0,8",
                    "--no-bdd", "--precision", "exact", "--output", str(out)]) == 2
        assert not out.exists()

    def test_csv_report_quotes_values_with_commas(self, tmp_path):
        out = tmp_path / "rep.csv"
        assert run(["estimate", "--graph", str(DATA_DIR / "karate.edges"),
                    "--terminals", "6,7,9", "--s", "100", "--w", "10",
                    "--format", "csv", "--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        assert dict(rows[1:])["config.terminals"] == "6,7,9"

    def test_text_format(self, tmp_path):
        argv = ["estimate", "--graph", str(DATA_DIR / "karate.edges"),
                "--terminals", "6,7,9", "--s", "100", "--w", "10"]
        out = tmp_path / "rep.json"
        assert run(argv + ["--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        out = tmp_path / "rep.txt"
        assert run(argv + ["--format", "text", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "" not in lines  # one part: no list entries to separate
        assert f"estimate: {rep['estimate']}" in lines
        assert "parts: [1 entries]" in lines
        assert f"  samples_used: {rep['parts'][0]['samples_used']}" in lines

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
    def test_default_method_never_enumerates(self, path_graph_file, capsys,
                                             monkeypatch):
        def brute(*args, **kwargs):
            raise AssertionError("the default method enumerated")

        monkeypatch.setattr(cli, "brute_force_reliability", brute)
        assert run(["exact", "--graph", str(path_graph_file),
                    "--terminals", "0,2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["method"] == "diagram" and "enumerated" not in rep
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

    def test_width_cap_applies_to_parts(self, tmp_path, capsys):
        # preprocessing leaves no part, where the whole-graph build reaches
        # width 1,050
        from relnet.generate import tree_rich_graph
        from relnet.graph import write_graph

        g = tree_rich_graph(50, cycle_count=4, seed=3)
        gf = tmp_path / "g.edges"
        write_graph(g, gf)
        assert run(["exact", "--graph", str(gf), "--terminals", "0,9",
                    "--width-cap", "100"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["reliability"] == pytest.approx(0.027021888787760236, abs=1e-12)

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

    def test_part_files_reload_with_exact_probabilities(self, tmp_path, capsys):
        # reduction's exact products need more digits than a float's repr
        from relnet.graph import TerminalSet, load_graph
        from relnet.reduction import preprocess

        karate = DATA_DIR / "karate.edges"
        out_dir = tmp_path / "parts"
        assert run(["preprocess", "--graph", str(karate), "--terminals",
                    "6,7,9,18,27", "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        deco = preprocess(load_graph(karate), TerminalSet.of([6, 7, 9, 18, 27]))
        assert len(manifest["parts"]) == len(deco.parts) > 0
        for meta, (pg, _) in zip(manifest["parts"], deco.parts):
            assert load_graph(out_dir / meta["path"]) == pg


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
        # a generated float reads back as itself, so the file holds its repr
        from relnet.generate import random_connected_graph

        g = random_connected_graph(12, 20, seed=5)
        lines = [x for x in a.read_text().splitlines() if not x.startswith("#")]
        assert lines == [f"{u} {v} {p!r}" for (u, v), p in zip(g.edges, g.probs)]

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

    def test_text_format_separates_runs(self, grid_file, tmp_path):
        argv = ["bench", "--graph", str(grid_file), "--k", "2", "--q1", "1",
                "--q2", "2", "--s", "100", "--w", "4", "--no-exact"]
        out = tmp_path / "bench.json"
        assert run(argv + ["--output", str(out)]) == 0
        rows = json.loads(out.read_text())["runs"]
        out = tmp_path / "bench.txt"
        assert run(argv + ["--format", "text", "--output", str(out)]) == 0
        text = out.read_text()
        head, runs = text.split("runs: [8 entries]\n")
        # with --no-exact the methods block and every run's exact value are
        # empty: their keys stand alone, and no line ends in whitespace
        assert head.endswith("\nmethods:\n")
        assert text.count("\n  exact:\n") == 8
        assert all(line == line.rstrip() for line in text.splitlines())
        entries = runs.rstrip("\n").split("\n\n")
        assert len(entries) == len(rows) == 8
        for entry, row in zip(entries, rows):
            fields = [line.strip().partition(":") for line in entry.splitlines()]
            assert {key: val.strip() for key, _, val in fields} == {
                key: str(val) for key, val in row.items()
            }

    def test_one_build_per_search(self, tmp_path, monkeypatch):
        # only a cold build orders the edges: each method's repetitions run
        # together, so more repetitions add no build
        builds = []
        order_edges = diagram.order_edges

        def counted(*args):
            builds.append(args)
            return order_edges(*args)

        monkeypatch.setattr(diagram, "order_edges", counted)
        counts = []
        for q2 in ("1", "3"):
            diagram._build.cache_clear()
            builds.clear()
            assert run(["bench", "--graph", str(DATA_DIR / "karate.edges"),
                        "--k", "5", "--q1", "1", "--q2", q2, "--s", "100",
                        "--w", "10", "--no-exact",
                        "--output", str(tmp_path / "bench.json")]) == 0
            counts.append(len(builds))
        assert counts[0] == counts[1] > 0

    def test_timings_add_per_method_seconds(self, grid_file, tmp_path):
        argv = ["bench", "--graph", str(grid_file), "--k", "3", "--q1", "1",
                "--q2", "2", "--s", "100", "--w", "2"]
        reports = []
        for extra in ([], ["--timings"]):
            out = tmp_path / "bench.json"
            assert run(argv + extra + ["--output", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        plain, timed = reports
        assert sorted(timed["methods"]) == ["ours-ht", "ours-mc",
                                            "sampling-ht", "sampling-mc"]
        seconds = [agg.pop("seconds") for agg in timed["methods"].values()]
        assert all(s > 0 for s in seconds)
        assert sum(seconds) <= timed["timings"]["total"]
        # without --timings the report has no seconds, and the draws match
        assert timed["methods"] == plain["methods"]
        assert timed["runs"] == plain["runs"]


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
        for k in ("1", "1000"):
            assert run(["bench", "--graph", str(path_graph_file), "--k", k]) == 2, k

    def test_bench_bad_budget_or_width_is_usage_error(self, path_graph_file):
        base = ["bench", "--graph", str(path_graph_file), "--k", "2",
                "--q1", "1", "--q2", "1", "--no-exact"]
        for bad in (["--s", "0"], ["--s", "-3"], ["--w", "0"]):
            assert run(base + bad) == 2, bad

    def test_numeric_flags_are_checked_before_input_is_read(self):
        missing = ["--graph", "/nonexistent.edges"]
        for argv in (
            ["estimate", *missing, "--terminals", "0,1", "--s", "0"],
            ["estimate", *missing, "--terminals", "0,1", "--w", "0"],
            ["bench", *missing, "--q1", "0"],
            ["bench", *missing, "--q2", "0"],
            ["bench", *missing, "--s", "0"],
            ["bench", *missing, "--w", "-1"],
            ["bench", *missing, "--k", "1"],
        ):
            assert run(argv) == 2, argv

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

    def test_degenerate_generator_flags_are_usage_errors(self, tmp_path):
        out = ["--out", str(tmp_path / "g.edges")]
        for argv in (
            ["gen", "--kind", "scale-free", "--n", "5", "--attach", "0", *out],
            ["gen", "--kind", "tree-rich", "--n", "10", "--cycles", "-1", *out],
        ):
            assert run(argv) == 2, argv
        assert not (tmp_path / "g.edges").exists()

    def test_too_small_tree_rich_graph_is_data_error(self, tmp_path):
        out = tmp_path / "g.edges"
        assert run(["gen", "--kind", "tree-rich", "--n", "1",
                    "--out", str(out)]) == 3
        assert not out.exists()

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
