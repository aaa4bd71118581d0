import math

import pytest

from relnet.generate import (
    grid_graph,
    log_weight_probability,
    preferential_graph,
    random_connected_graph,
    random_terminals,
    tree_rich_graph,
)


def test_grid_shape():
    g = grid_graph(5, 5, seed=1)
    assert g.n == 25
    assert g.m == 40
    assert g.is_connected()


def test_grid_reproducible():
    a = grid_graph(4, 3, seed=9)
    b = grid_graph(4, 3, seed=9)
    assert a.edges == b.edges and a.probs == b.probs


def test_random_graph_connected_and_sized():
    for seed in range(10):
        g = random_connected_graph(9, 14, seed=seed)
        assert g.n == 9 and g.m == 14
        assert g.is_connected()


def test_preferential_graph_connected():
    g = preferential_graph(30, attach=2, seed=2)
    assert g.is_connected()
    assert g.m == 1 + 2 * 28


@pytest.mark.parametrize("make", [
    lambda: preferential_graph(5, attach=0),
    lambda: preferential_graph(5, attach=-1),
    lambda: tree_rich_graph(1),
    lambda: tree_rich_graph(0),
    lambda: tree_rich_graph(10, cycle_count=-1),
], ids=["attach-0", "attach-negative", "one-vertex-tree", "empty-tree",
        "negative-cycles"])
def test_generators_reject_degenerate_parameters(make):
    with pytest.raises(ValueError):
        make()


def test_tree_rich_without_chords_is_a_tree():
    g = tree_rich_graph(12, cycle_count=0, seed=2)
    assert g.is_connected() and g.m == g.n - 1


def test_tree_rich_mostly_bridges():
    from relnet.reduction import build_structure_index

    g = tree_rich_graph(80, cycle_count=6, seed=4)
    assert g.is_connected()
    idx = build_structure_index(g)
    assert len(idx.bridges) > g.m // 2


def test_log_weight_probability_below_one():
    # largest weight still maps strictly inside (0, 1)
    wmax = 17
    p = log_weight_probability(wmax, wmax)
    assert p == pytest.approx(math.log(wmax + 1) / math.log(wmax + 2))
    assert 0.0 < p < 1.0


def test_log_degree_assignment_in_range():
    g = random_connected_graph(20, 40, seed=5, probs="log-degree")
    assert all(0.0 < p < 1.0 for p in g.probs)


def test_random_terminals_distinct_members():
    g = grid_graph(4, 4, seed=0)
    t = random_terminals(g, 5, seed=1)
    assert t.k == 5
    assert all(0 <= v < g.n for v in t.vertices)
