"""Synthetic uncertain-graph generators for benchmarks and tests.

All generators take an explicit seed and produce connected graphs.  Edge
probabilities come either from a uniform range or from a log-scaled edge
weight: p(e) = log(a + 1) / log(a_max + 2) for weight a, which keeps every
probability in (0, 1).
"""

from __future__ import annotations

import math
from random import Random
from .graph import TerminalSet, UncertainGraph
from .rng import stream


def _uniform_probs(rng: Random, m: int, lo: float = 0.1, hi: float = 0.9) -> list[float]:
    return [round(rng.uniform(lo, hi), 6) for _ in range(m)]


def log_weight_probability(weight: float, max_weight: float) -> float:
    """Probability assignment from a nonnegative edge weight."""
    return math.log(weight + 1.0) / math.log(max_weight + 2.0)


def assign_probabilities(
    edges: list[tuple[int, int]],
    mode: str,
    rng: Random,
    *,
    lo: float = 0.1,
    hi: float = 0.9,
) -> list[float]:
    if mode == "uniform":
        return _uniform_probs(rng, len(edges), lo, hi)
    if mode == "log-degree":
        deg: dict[int, int] = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        weights = [min(deg[u], deg[v]) for u, v in edges]
        wmax = max(weights)
        return [round(log_weight_probability(w, wmax), 6) for w in weights]
    raise ValueError(f"unknown probability mode {mode!r}")


def grid_graph(rows: int, cols: int, *, seed: int = 0, probs: str = "uniform") -> UncertainGraph:
    """Road-like rows x cols lattice."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least 2 vertices")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    rng = stream(seed, "gen", "grid")
    return UncertainGraph(
        n=rows * cols,
        edges=tuple(edges),
        probs=tuple(assign_probabilities(edges, probs, rng)),
    )


def preferential_graph(
    n: int, attach: int = 2, *, seed: int = 0, probs: str = "uniform"
) -> UncertainGraph:
    """Scale-free-like growth: each new vertex attaches to ``attach`` targets
    chosen with probability proportional to degree."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if attach < 1:
        raise ValueError("each new vertex must attach to at least 1 target")
    rng = stream(seed, "gen", "pa")
    edges: list[tuple[int, int]] = [(0, 1)]
    endpoint_pool = [0, 1]
    for v in range(2, n):
        targets: set[int] = set()
        want = min(attach, v)
        while len(targets) < want:
            targets.add(endpoint_pool[rng.randrange(len(endpoint_pool))])
        for t in sorted(targets):
            edges.append((t, v))
            endpoint_pool.append(t)
            endpoint_pool.append(v)
    return UncertainGraph(
        n=n,
        edges=tuple(edges),
        probs=tuple(assign_probabilities(edges, probs, rng)),
    )


def random_connected_graph(
    n: int,
    m: int,
    *,
    seed: int = 0,
    probs: str = "uniform",
    lo: float = 0.1,
    hi: float = 0.9,
    allow_parallel: bool = False,
) -> UncertainGraph:
    """Random spanning tree plus extra random edges."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if m < n - 1:
        raise ValueError("too few edges for a connected graph")
    max_simple = n * (n - 1) // 2
    if not allow_parallel and m > max_simple:
        raise ValueError("too many edges for a simple graph")
    rng = stream(seed, "gen", "random")
    perm = list(range(n))
    rng.shuffle(perm)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i in range(1, n):
        u = perm[rng.randrange(i)]
        v = perm[i]
        e = (min(u, v), max(u, v))
        edges.append(e)
        seen.add(e)
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if not allow_parallel and e in seen:
            continue
        edges.append(e)
        seen.add(e)
    return UncertainGraph(
        n=n,
        edges=tuple(edges),
        probs=tuple(assign_probabilities(edges, probs, rng, lo=lo, hi=hi)),
    )


def tree_rich_graph(
    n: int,
    *,
    cycle_count: int = 8,
    seed: int = 0,
    probs: str = "uniform",
) -> UncertainGraph:
    """Sparse bridge-dominated graph, shaped like an affiliation network.

    A random tree plus a few sibling chords; each chord closes one local
    triangle, so removing bridges leaves only small components.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if cycle_count < 0:
        raise ValueError("cycle count must be >= 0")
    rng = stream(seed, "gen", "tree-rich")
    parent = [0] * n
    edges: list[tuple[int, int]] = []
    children: dict[int, list[int]] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        parent[v] = u
        edges.append((u, v))
        children.setdefault(u, []).append(v)
    seen = set(edges)
    candidates = [c for c in children.values() if len(c) >= 2]
    added = 0
    attempt = 0
    while added < cycle_count and attempt < 20 * cycle_count and candidates:
        attempt += 1
        sibs = candidates[rng.randrange(len(candidates))]
        a, b = rng.sample(sibs, 2)
        e = (min(a, b), max(a, b))
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
        added += 1
    return UncertainGraph(
        n=n,
        edges=tuple(edges),
        probs=tuple(assign_probabilities(edges, probs, rng)),
    )


def random_terminals(
    g: UncertainGraph, k: int, *, seed: int = 0, tag: str = "terms"
) -> TerminalSet:
    rng = stream(seed, "gen", tag)
    if k > g.n:
        raise ValueError("more terminals than vertices")
    return TerminalSet.of(rng.sample(range(g.n), k))
