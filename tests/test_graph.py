import io
import random
from fractions import Fraction

import pytest

from relnet import graph as graph_module
from relnet.graph import (
    GraphFormatError,
    GraphInvariantError,
    TerminalSet,
    UncertainGraph,
    assignment_probability,
    load_graph,
    parse_graph,
    sample_possible_graph,
    terminals_connected,
    write_graph,
)
from relnet.generate import grid_graph
from relnet.pipeline import exact_pipeline
from relnet.rng import stream
from conftest import DATA_DIR, small_case


class TestLoadGraph:
    def test_minimal_file(self):
        g = parse_graph("0 1 0.7")
        assert g.n == 2 and g.m == 1
        assert g.probs == (0.7,)

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# header\n\n0 1 0.5\n# tail\n1 2 0.25\n")
        assert g.m == 2

    def test_probability_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 1.*range"):
            parse_graph("0 1 1.2")
        with pytest.raises(GraphFormatError, match="range"):
            parse_graph("0 1 0.0")

    def test_parse_error_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("0 1 0.5\n0 two 0.5")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("1 1 0.5")

    def test_disconnected_rejected(self):
        with pytest.raises(GraphFormatError, match="not connected"):
            parse_graph("0 1 0.5\n2 3 0.5")

    def test_id_gap_rejected_before_the_graph_is_built(self, monkeypatch):
        # a vertex id past the others leaves ids no edge names; the loader
        # must not make one incidence list per id before it says so
        def refuse(*args, **kwargs):
            raise AssertionError("UncertainGraph constructed")

        monkeypatch.setattr(graph_module, "UncertainGraph", refuse)
        with pytest.raises(GraphFormatError, match="not connected"):
            parse_graph("0 1 0.5\n1 50000 0.5")

    def test_parallel_edges_allowed(self):
        g = parse_graph("0 1 0.5\n0 1 0.5")
        assert g.m == 2

    def test_karate_file(self):
        g = load_graph(DATA_DIR / "karate.edges")
        assert g.n == 34
        assert g.m == 78
        assert all(0.0 < p <= 1.0 for p in g.probs)

    def test_edge_order_is_file_order(self):
        g = parse_graph("2 3 0.5\n0 1 0.5\n1 2 0.5")
        assert g.edges == ((2, 3), (0, 1), (1, 2))

    def test_stream_source(self):
        g = load_graph(io.StringIO("0 1 0.5\n1 2 0.5"))
        assert g.m == 2


class TestModel:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphInvariantError, match="self-loop"):
            UncertainGraph(2, ((0, 0), (0, 1)), (0.5, 0.5))

    def test_readings_of_one_text_are_equal(self):
        text = "0 1 0.1\n1 2 0.3\n0 2 0.7"
        a, b = parse_graph(text), parse_graph(text)
        assert a is not b
        h = hash(a)  # a keeps its hash, b has not computed one yet
        assert a == b and b == a
        assert hash(b) == h == hash(a)


class TestExactEntries:
    # an exact entry is None (the float's shortest-repr reading) or a
    # Fraction that rounds to the edge's float

    def test_float_entry_rejected(self):
        # 0.1 == Fraction(0.1) and both hash alike, yet 0.1 reads as 1/10
        with pytest.raises(GraphInvariantError, match="edge 0"):
            UncertainGraph(2, ((0, 1),), (0.1,), (0.1,))

    def test_entry_off_the_float_rejected(self):
        with pytest.raises(GraphInvariantError, match="edge 1"):
            UncertainGraph(3, ((0, 1), (1, 2)), (0.5, 0.5), (None, Fraction(1, 3)))

    def test_entry_that_rounds_to_the_float_kept(self):
        g = UncertainGraph(3, ((0, 1), (1, 2)), (0.1, 1 / 3), (None, Fraction(1, 3)))
        assert g.exact_probs == (None, Fraction(1, 3))
        assert g.prob_values(True) == (Fraction(1, 10), Fraction(1, 3))
        assert g.exact_prob(0) == Fraction(1, 10)

    def test_file_graph_equals_the_same_floats_in_memory(self, tmp_path):
        # a literal is an entry only where it reads as another value than
        # its float's shortest repr
        g = grid_graph(6, 100, seed=0)
        write_graph(g, tmp_path / "strip.edges")
        read = load_graph(tmp_path / "strip.edges")
        assert read.exact_probs is None
        assert read == g and hash(read) == hash(g)
        assert load_graph(DATA_DIR / "karate.edges").exact_probs is None
        assert parse_graph("0 1 0.50").exact_probs is None
        binary = "0.1000000000000000055511151231257827021181583404541015625"
        (tmp_path / "binary.edges").write_text(f"0 1 {binary}\n")
        one = load_graph(tmp_path / "binary.edges")
        assert one.exact_probs == (Fraction(binary),)
        assert exact_pipeline(one, TerminalSet.of([0, 1]), precision="exact") == Fraction(
            3602879701896397, 36028797018963968
        )

    def test_no_entries_stored_as_none(self):
        edges, probs = ((0, 1), (1, 2)), (0.1, 0.7)
        lazy = UncertainGraph(3, edges, probs, (None, None))
        plain = UncertainGraph(3, edges, probs)
        assert lazy.exact_probs is None
        assert lazy == plain and hash(lazy) == hash(plain)
        assert lazy.prob_values(True) == (Fraction(1, 10), Fraction(7, 10))


class TestTerminals:
    def test_requires_two(self):
        with pytest.raises(GraphInvariantError):
            TerminalSet.of([3])

    def test_validate_membership(self):
        g = parse_graph("0 1 0.5")
        with pytest.raises(GraphInvariantError):
            TerminalSet.of([0, 5]).validate(g)


class TestAssignmentProbability:
    def test_four_existent_two_missing(self):
        # six edges all at 0.7, four on and two off
        g = parse_graph("\n".join(f"{u} {v} 0.7" for u, v in
                                  [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)]))
        p = assignment_probability(g, 0b001111)
        assert p == pytest.approx(0.7 ** 4 * 0.3 ** 2)
        assert round(p, 4) == 0.0216

    def test_two_halves(self):
        g = parse_graph("0 1 0.5\n1 2 0.5")
        assert assignment_probability(g, 0b11) == 0.25

    def test_exhaustive_realizations_sum_to_one(self):
        for seed in (0, 3, 9):
            g, _ = small_case(seed, max_edges=12)
            total = 0.0
            for mask in range(1 << g.m):
                total += assignment_probability(g, mask)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_one_draw_per_edge_in_index_order(self):
        # reports stay reproducible only if a draw consumes exactly one
        # random() per edge, tested as rnd < p in edge-index order
        for seed in range(10):
            g, _ = small_case(seed)
            rng, ref = stream(seed, "draw"), stream(seed, "draw")
            for _ in range(5):
                expected = 0
                for i, p in enumerate(g.probs):
                    if ref.random() < p:
                        expected |= 1 << i
                assert sample_possible_graph(g, rng) == expected
            assert rng.random() == ref.random()

    def test_probability_above_rng_resolution_forces_existent(self):
        g = parse_graph(f"0 1 {1.0 - 2.0 ** -60}")
        rng = stream(123)
        for _ in range(200):
            assert sample_possible_graph(g, rng) == 1

    def test_empirical_frequency(self):
        g = parse_graph("0 1 0.7")
        rng = stream(42)
        hits = 0
        draws = 100_000
        for _ in range(draws):
            hits += sample_possible_graph(g, rng)
        assert abs(hits / draws - 0.7) < 0.01


class TestConnectivity:
    def test_path_connected(self):
        g = parse_graph("0 1 0.5\n1 2 0.5")
        t = TerminalSet.of([0, 2])
        assert terminals_connected(g, 0b11, t)

    def test_path_broken(self):
        g = parse_graph("0 1 0.5\n1 2 0.5")
        t = TerminalSet.of([0, 2])
        assert not terminals_connected(g, 0b01, t)

    def test_three_terminal_realization(self):
        # four existent edges joining all three terminals, two absent
        g = parse_graph("\n".join(f"{u} {v} 0.7" for u, v in
                                  [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)]))
        t = TerminalSet.of([0, 1, 3])
        assert terminals_connected(g, 0b001111, t)

    def test_agrees_with_matrix_reachability(self):
        for seed in range(20):
            g, t = small_case(seed, max_edges=12)
            rng = random.Random(seed * 7 + 1)
            mask = sum(rng.choice((1, 0)) << j for j in range(g.m))
            # boolean transitive closure over the existent subgraph
            reach = [[i == j for j in range(g.n)] for i in range(g.n)]
            for j in range(g.m):
                if mask >> j & 1:
                    u, v = g.edges[j]
                    reach[u][v] = reach[v][u] = True
            for h in range(g.n):
                for i in range(g.n):
                    if reach[i][h]:
                        row_i, row_h = reach[i], reach[h]
                        for j in range(g.n):
                            if row_h[j]:
                                row_i[j] = True
            terms = t.sorted()
            expected = all(reach[terms[0]][x] for x in terms)
            assert terminals_connected(g, mask, t) == expected


def test_rng_streams_are_independent_and_stable():
    a = stream(5, "layer", 1).random()
    b = stream(5, "layer", 2).random()
    assert a != b
    assert stream(5, "layer", 1).random() == a
