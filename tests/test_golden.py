"""Golden reports: CLI output that a pure refactor must keep byte-identical.

Each case runs ``relnet estimate`` on a fixed input and compares the JSON
report (and, for the grid, the ``--trace`` CSV) with its file under
``data/golden``.  Graph files are written under fixed relative names, so the
``config.graph`` field of every report is stable.  After a change that is
meant to move the numbers, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""

import os
import tempfile
from pathlib import Path

from relnet.cli import main
from relnet.generate import grid_graph, random_connected_graph
from relnet.graph import write_graph
from conftest import DATA_DIR, small_case

GOLDEN_DIR = DATA_DIR / "golden"

# (name, graph file, terminals, extra argv); the name is the report's stem
CASES = (
    ("criterion8-mc", "criterion8.edges", "0,5,11",
     ["--s", "2000", "--w", "4", "--seed", "42"]),
    ("criterion8-ht", "criterion8.edges", "0,5,11",
     ["--s", "2000", "--w", "4", "--seed", "42", "--estimator", "ht"]),
    ("karate-mc", "karate.edges", "6,7,9,18,27", ["--w", "100", "--seed", "0"]),
    ("karate-ht", "karate.edges", "6,7,9,18,27",
     ["--w", "100", "--seed", "0", "--estimator", "ht"]),
    ("grid10-mc", "grid10.edges", "0,55,99",
     ["--w", "100", "--seed", "1", "--trace", "grid10-mc.trace.csv"]),
    ("karate-plain-mc", "karate.edges", "6,7,9,18,27",
     ["--no-bdd", "--s", "2000", "--seed", "0"]),
    ("karate-plain-ht", "karate.edges", "6,7,9,18,27",
     ["--no-bdd", "--s", "2000", "--seed", "0", "--estimator", "ht"]),
    ("small5-exact", "small5.edges",
     ",".join(map(str, small_case(5)[1].sorted())),
     ["--w", "2", "--precision", "exact"]),
)


def _write_inputs() -> None:
    write_graph(random_connected_graph(12, 24, seed=5), "criterion8.edges")
    write_graph(grid_graph(10, 10, seed=0), "grid10.edges")
    write_graph(small_case(5)[0], "small5.edges")
    Path("karate.edges").write_bytes((DATA_DIR / "karate.edges").read_bytes())


def _run_cases() -> dict[str, bytes]:
    """Run every case in the current directory; returns output file bytes."""
    _write_inputs()
    for name, graph, terminals, extra in CASES:
        argv = ["estimate", "--graph", graph, "--terminals", terminals,
                "--output", f"{name}.json", *extra]
        assert main(argv) == 0, name
    return {p.name: p.read_bytes() for p in sorted(Path().iterdir())
            if p.suffix in (".json", ".csv")}


def test_reports_match_golden_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    produced = _run_cases()
    assert sorted(produced) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    for name, blob in produced.items():
        assert blob == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, blob in _run_cases().items():
            (GOLDEN_DIR / name).write_bytes(blob)
