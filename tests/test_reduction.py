import random

import pytest

from relnet.exact import brute_force_reliability
from relnet.graph import TerminalSet, UncertainGraph, parse_graph
from relnet.generate import random_connected_graph, random_terminals
from relnet.reduction import (
    build_structure_index,
    decompose,
    preprocess,
    transform,
)
from conftest import small_case


def barbell():
    # two triangles joined by one bridge
    return parse_graph(
        "0 1 0.5\n0 2 0.5\n1 2 0.5\n2 3 0.6\n3 4 0.5\n3 5 0.5\n4 5 0.5"
    )


class TestStructureIndex:
    def test_tree_every_edge_bridge(self):
        g = parse_graph("0 1 0.5\n1 2 0.5\n1 3 0.5")
        idx = build_structure_index(g)
        assert idx.bridges == frozenset({0, 1, 2})
        assert idx.component_of == (0, 1, 2, 3)

    def test_cycle_no_bridges(self):
        g = parse_graph("0 1 0.5\n1 2 0.5\n2 0 0.5")
        idx = build_structure_index(g)
        assert idx.bridges == frozenset()
        assert idx.component_of == (0, 0, 0)

    def test_barbell(self):
        idx = build_structure_index(barbell())
        assert idx.bridges == frozenset({3})  # edge 2-3
        assert idx.component_of == (0, 0, 0, 3, 3, 3)

    def test_parallel_pair_is_not_a_bridge(self):
        g = parse_graph("0 1 0.5\n0 1 0.5\n1 2 0.5")
        idx = build_structure_index(g)
        assert idx.bridges == frozenset({2})

    def test_matches_single_edge_removal(self):
        # definition check: an edge is a bridge iff removing it disconnects
        for seed in range(20):
            g, _ = small_case(seed, max_edges=12)
            idx = build_structure_index(g)
            for j in range(g.m):
                keep = [x for x in range(g.m) if x != j]
                sub = UncertainGraph(
                    n=g.n,
                    edges=tuple(g.edges[x] for x in keep),
                    probs=tuple(g.probs[x] for x in keep),
                )
                assert (not sub.is_connected()) == (j in idx.bridges)


def product(deco):
    """Reliability of a decomposition, each part by enumeration."""
    prod = deco.bridge_factor
    for pg, pt in deco.parts:
        prod *= brute_force_reliability(pg, pt).reliability
    return prod


class TestPrune:
    # decompose drops every bridge without terminals on both sides, and
    # everything beyond it

    def test_pendant_path_removed(self):
        g = parse_graph("0 1 0.5\n1 2 0.5\n2 3 0.5\n3 4 0.5")
        deco = decompose(g, TerminalSet.of([0, 2]))
        assert deco.bridge_factor == 0.25  # two kept bridges of four
        assert deco.parts == ()

    def test_all_vertices_terminal_unchanged(self):
        g = barbell()
        deco = decompose(g, TerminalSet.of(range(g.n)))
        assert deco.bridge_factor == 0.6
        assert [pg.m for pg, _ in deco.parts] == [3, 3]
        assert [pt.k for _, pt in deco.parts] == [3, 3]

    def test_reliability_preserved(self):
        for seed in range(30):
            g, t = small_case(seed, max_edges=12)
            before = brute_force_reliability(g, t).reliability
            assert product(decompose(g, t)) == pytest.approx(before, abs=1e-9)

    def test_terminal_articulation_point_kept(self):
        g = parse_graph("0 1 0.5\n1 2 0.5")
        deco = decompose(g, TerminalSet.of([0, 1]))
        assert deco.bridge_factor == 0.5
        assert deco.parts == ()


class TestDecompose:
    def test_path_fully_factored(self):
        g = parse_graph("0 1 0.6\n1 2 0.5")
        deco = decompose(g, TerminalSet.of([0, 2]))
        assert deco.bridge_factor == pytest.approx(0.3)
        assert deco.parts == ()
        # brute force over the four realizations agrees
        assert brute_force_reliability(g, TerminalSet.of([0, 2])).reliability == (
            pytest.approx(0.3)
        )

    def test_bridgeless_graph_single_part(self):
        g = parse_graph("0 1 0.5\n1 2 0.5\n2 0 0.5")
        deco = decompose(g, TerminalSet.of([0, 1]))
        assert deco.bridge_factor == 1.0
        assert len(deco.parts) == 1

    def test_barbell_product_identity(self):
        g = barbell()
        t = TerminalSet.of([0, 5])
        deco = decompose(g, t)
        assert deco.bridge_factor == pytest.approx(0.6)
        assert len(deco.parts) == 2
        assert product(deco) == pytest.approx(
            brute_force_reliability(g, t).reliability, abs=1e-9
        )

    def test_unpruned_input_product_identity(self):
        t = TerminalSet.of([0, 1])
        for text in (
            # pendant bridge to a terminal-free vertex
            "0 1 0.5\n1 2 0.5\n2 0 0.5\n2 3 0.5",
            # terminal-free triangle hung off a bridge
            "0 1 0.5\n1 2 0.5\n2 0 0.5\n2 3 0.7\n3 4 0.5\n4 5 0.5\n5 3 0.5",
        ):
            g = parse_graph(text)
            deco = decompose(g, t)
            assert deco.bridge_factor == 1.0
            assert [pg.m for pg, _ in deco.parts] == [3]
            assert product(deco) == pytest.approx(
                brute_force_reliability(g, t).reliability, abs=1e-12
            )

    def test_chains_with_pendant_triangles_product_identity(self):
        from relnet.diagram import exact_reliability

        multi_part = 0
        for seed in range(12):
            g, t = _chain_with_pendant_triangles(seed)
            deco = decompose(g, t)
            multi_part += len(deco.parts) >= 2
            if g.m <= 20:
                ref = brute_force_reliability(g, t).reliability
            else:
                ref = exact_reliability(g, t)
            assert product(deco) == pytest.approx(ref, abs=1e-12), seed
        assert multi_part >= 5


class TestTransform:
    def test_series_chain(self):
        g = parse_graph("0 1 0.5\n1 2 0.5")
        out, terms = transform(g, TerminalSet.of([0, 2]))
        assert out.m == 1
        assert out.probs[0] == pytest.approx(0.25)

    def test_parallel_pair(self):
        g = parse_graph("0 1 0.5\n0 1 0.5")
        out, _ = transform(g, TerminalSet.of([0, 1]))
        assert out.m == 1
        assert out.probs[0] == pytest.approx(0.75)

    def test_terminal_chain_untouched(self):
        g = parse_graph("0 1 0.5\n1 2 0.5")
        out, _ = transform(g, TerminalSet.of([0, 1, 2]))
        assert out.m == 2

    def test_triangle_with_spurious_vertex_collapses(self):
        # non-terminal degree-2 vertex inside a triangle contract-merges
        g = parse_graph("0 1 0.5\n0 2 0.4\n1 2 0.6")
        out, terms = transform(g, TerminalSet.of([0, 1]))
        assert out.m == 1
        assert out.probs[0] == pytest.approx(1 - (1 - 0.5) * (1 - 0.4 * 0.6))

    def test_reliability_preserved(self):
        for seed in range(30):
            g, t = small_case(seed, max_edges=12)
            before = brute_force_reliability(g, t).reliability
            out, terms = transform(g, t)
            assert out.m <= g.m
            after = brute_force_reliability(out, terms).reliability
            assert after == pytest.approx(before, abs=1e-9)

    def test_fixpoint_is_stable(self):
        for seed in range(10):
            g, t = small_case(seed, max_edges=12)
            once, terms1 = transform(g, t)
            twice, terms2 = transform(once, terms1)
            assert twice.edges == once.edges
            assert twice.probs == once.probs


class TestPreprocess:
    def test_tree_with_leaf_terminals(self):
        g = parse_graph("0 1 0.9\n1 2 0.8\n1 3 0.7")
        deco = preprocess(g, TerminalSet.of([0, 2]))
        assert deco.parts == ()
        assert deco.bridge_factor == pytest.approx(0.72)

    def test_two_connected_all_terminals(self):
        g = parse_graph("0 1 0.5\n1 2 0.5\n2 3 0.5\n3 0 0.5")
        deco = preprocess(g, TerminalSet.of([0, 1, 2, 3]))
        assert deco.bridge_factor == 1.0
        assert len(deco.parts) == 1
        assert deco.parts[0][0].m == 4

    def test_product_identity_end_to_end(self):
        for seed in range(40):
            g, t = small_case(seed, max_edges=13)
            ref = brute_force_reliability(g, t).reliability
            assert product(preprocess(g, t)) == pytest.approx(ref, abs=1e-9)

    def test_idempotent(self):
        for seed in range(10):
            g, t = small_case(seed, max_edges=12)
            deco = preprocess(g, t)
            for pg, pt in deco.parts:
                again = preprocess(pg, pt)
                assert again.bridge_factor == pytest.approx(1.0)
                assert len(again.parts) == 1
                assert again.parts[0][0].m == pg.m

    def test_karate_shrinks_and_preserves(self, karate_graph):
        from relnet.diagram import exact_reliability
        from relnet.generate import random_terminals

        t = random_terminals(karate_graph, 5, seed=7)
        deco = preprocess(karate_graph, t)
        total_edges = sum(pg.m for pg, _ in deco.parts)
        assert total_edges <= karate_graph.m
        prod = deco.bridge_factor
        for pg, pt in deco.parts:
            prod *= exact_reliability(pg, pt, width_cap=2_000_000)
        ref = exact_reliability(karate_graph, t, width_cap=2_000_000)
        assert prod == pytest.approx(ref, abs=1e-9)

    def test_parts_sorted_largest_first(self):
        g = barbell()
        deco = preprocess(g, TerminalSet.of([0, 1, 4, 5]))
        sizes = [pg.m for pg, _ in deco.parts]
        assert sizes == sorted(sizes, reverse=True)


class TestVarianceEffect:
    def test_decomposition_usually_lowers_estimator_variance(self):
        # bridge-decomposable instances, estimated with and without the
        # reduction at a width that forces sampling
        import statistics

        from relnet.pipeline import estimate_pipeline

        wins = 0
        eligible = 0
        for seed in range(20):
            g = _decomposable_graph(seed)
            t = TerminalSet.of([0, g.n - 1])
            runs_with = []
            runs_without = []
            for rep in range(100):
                with_red = estimate_pipeline(
                    g, t, s=60, w=2, seed=rep, use_preprocess=True
                )
                without = estimate_pipeline(
                    g, t, s=60, w=2, seed=rep, use_preprocess=False
                )
                runs_with.append(with_red.estimate)
                runs_without.append(without.estimate)
            var_with = statistics.pvariance(runs_with)
            var_without = statistics.pvariance(runs_without)
            eligible += 1
            if var_with <= var_without:
                wins += 1
        assert eligible == 20
        assert wins >= 16  # 80 percent of instances


def _decomposable_graph(seed):
    rng = random.Random(seed)
    # two small random blocks joined by a bridge
    left = random_connected_graph(4, rng.randint(4, 6), seed=seed * 2 + 1)
    right = random_connected_graph(4, rng.randint(4, 6), seed=seed * 2 + 2)
    edges = list(left.edges)
    probs = list(left.probs)
    for (u, v), p in zip(right.edges, right.probs):
        edges.append((u + 4, v + 4))
        probs.append(p)
    edges.append((3, 4))
    probs.append(round(rng.uniform(0.3, 0.9), 4))
    return UncertainGraph(n=8, edges=tuple(edges), probs=tuple(probs))


def _chain_with_pendant_triangles(seed):
    """2-4 random blocks in a chain of bridges, each block with a
    terminal-free triangle hung off it by one more bridge."""
    rng = random.Random(seed)
    edges, probs, blocks = [], [], []
    n = 0
    for b in range(rng.randint(2, 4)):
        size = rng.randint(3, 5)
        block = random_connected_graph(
            size, rng.randint(size, min(size + 2, size * (size - 1) // 2)), seed=seed * 10 + b
        )
        edges += [(u + n, v + n) for u, v in block.edges]
        probs += block.probs
        vertices = list(range(n, n + size))
        if blocks:
            edges.append((rng.choice(blocks[-1]), rng.choice(vertices)))
            probs.append(round(rng.uniform(0.3, 0.95), 4))
        blocks.append(vertices)
        n += size
    for vertices in blocks:
        a, x, y, z = rng.choice(vertices), n, n + 1, n + 2
        edges += [(a, x), (x, y), (y, z), (z, x)]
        probs += [round(rng.uniform(0.3, 0.95), 4) for _ in range(4)]
        n += 3
    pool = [v for vertices in blocks for v in vertices]
    terminals = TerminalSet.of(rng.sample(pool, rng.randint(2, 4)))
    return UncertainGraph(n=n, edges=tuple(edges), probs=tuple(probs)), terminals
