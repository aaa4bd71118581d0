"""Shared helpers: an independent naive oracle and corpus builders.

The naive oracle below deliberately avoids every optimization used by the
package (no Gray code, no incremental products, BFS instead of union-find)
so the production paths are checked against genuinely independent code.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from relnet.graph import TerminalSet, UncertainGraph
from relnet.generate import random_connected_graph, random_terminals

DATA_DIR = Path(__file__).parent / "data"


def naive_reliability(g: UncertainGraph, terminals: TerminalSet) -> float:
    """Plain enumeration: fresh probability product and BFS per realization."""
    m = g.m
    terms = terminals.sorted()
    total = 0.0
    for mask in range(1 << m):
        prob = 1.0
        adj = [[] for _ in range(g.n)]
        for j in range(m):
            u, v = g.edges[j]
            if mask >> j & 1:
                prob *= g.probs[j]
                adj[u].append(v)
                adj[v].append(u)
            else:
                prob *= 1.0 - g.probs[j]
        if _bfs_all_reached(adj, terms):
            total += prob
    return total


def _bfs_all_reached(adj, terms) -> bool:
    seen = {terms[0]}
    stack = [terms[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return all(t in seen for t in terms)


def small_case(seed: int, *, max_edges: int = 14):
    """One random (graph, terminals) pair sized for enumeration."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    m = rng.randint(n - 1, min(max_edges, n * (n - 1) // 2))
    g = random_connected_graph(n, m, seed=seed)
    k = rng.randint(2, min(4, n))
    return g, random_terminals(g, k, seed=seed)


@pytest.fixture(scope="session")
def karate_graph():
    from relnet.graph import load_graph

    return load_graph(DATA_DIR / "karate.edges")
