"""Reliability-preserving preprocessing.

Three rewrites shrink the problem before estimation, none of which change
the k-terminal reliability:

* prune:     drop everything outside the minimal bridge-tree subtree that
             spans the terminals;
* decompose: factor on bridges, splitting the graph into independent parts
             whose reliabilities multiply (times the bridge probabilities);
* transform: collapse series chains, parallel edges, and self-loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import GraphInvariantError, TerminalSet, UncertainGraph, terminals_connected
from .numerics import to_fraction


@dataclass(frozen=True)
class StructureIndex:
    """Bridges, their endpoints, and nontrivial 2-edge-connected components."""

    bridges: frozenset[int]  # edge indices
    articulation_points: frozenset[int]  # bridge endpoints
    components: tuple[frozenset[int], ...]  # vertex sets, size >= 2
    component_of: tuple[int, ...]  # vertex -> component id (own singleton id if trivial)


def build_structure_index(g: UncertainGraph) -> StructureIndex:
    """Linear-time bridge finding (iterative low-link, parallel-edge aware)."""
    n, m = g.n, g.m
    disc = [-1] * n
    low = [0] * n
    bridges: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # stack entries: (vertex, incoming edge id, iterator index)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, in_edge, it = stack[-1]
            inc = g.incident(v)
            if it < len(inc):
                stack[-1] = (v, in_edge, it + 1)
                j = inc[it]
                if j == in_edge:
                    continue
                a, b = g.edges[j]
                w = b if a == v else a
                if w == v:
                    continue  # self-loop
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, j, 0))
                else:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        bridges.append(in_edge)

    bridge_set = frozenset(bridges)
    # 2ECC = connected components after deleting bridges
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, (u, v) in enumerate(g.edges):
        if j not in bridge_set and u != v:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru

    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    nontrivial = [vs for vs in groups.values() if len(vs) >= 2]
    nontrivial.sort(key=min)
    comp_of = list(range(n))
    for cid, vs in enumerate(nontrivial):
        for v in vs:
            comp_of[v] = n + cid  # ids above n mark nontrivial membership

    arts = set()
    for j in bridge_set:
        u, v = g.edges[j]
        arts.add(u)
        arts.add(v)
    return StructureIndex(
        bridges=bridge_set,
        articulation_points=frozenset(arts),
        components=tuple(frozenset(vs) for vs in nontrivial),
        component_of=tuple(comp_of),
    )


# ---------------------------------------------------------------------------
# Prune
# ---------------------------------------------------------------------------

def prune(
    g: UncertainGraph, terminals: TerminalSet, index: Optional[StructureIndex] = None
) -> tuple[UncertainGraph, TerminalSet]:
    """Remove structure that cannot affect terminal connectivity.

    The graph condenses to a tree: one vertex per nontrivial 2-edge-connected
    component, one per remaining vertex, with bridge endpoints inside a
    component attached to it as separate tree vertices.  Everything outside
    the minimal subtree spanning the terminals is deleted; vertex ids are
    re-densified.
    """
    terminals.validate(g)
    if index is None:
        index = build_structure_index(g)

    n = g.n
    # tree vertices: 0..n-1 are original vertices, n+cid are components
    adj: dict[int, set[int]] = {}

    def touch(x: int) -> None:
        adj.setdefault(x, set())

    comp_of = index.component_of
    for v in range(n):
        touch(comp_of[v]) if comp_of[v] >= n else touch(v)
    for v in index.articulation_points:
        if comp_of[v] >= n:
            touch(v)
            adj[v].add(comp_of[v])
            adj[comp_of[v]].add(v)
    for j in index.bridges:
        u, v = g.edges[j]
        # bridge endpoints stand for themselves in the tree
        touch(u)
        touch(v)
        adj[u].add(v)
        adj[v].add(u)

    tree_terminals = set()
    for t in terminals.vertices:
        if comp_of[t] >= n and t not in index.articulation_points:
            tree_terminals.add(comp_of[t])
        else:
            tree_terminals.add(t)

    # trim non-terminal leaves until only the spanning subtree remains
    degree = {x: len(ys) for x, ys in adj.items()}
    leaves = [x for x, dg in degree.items() if dg <= 1 and x not in tree_terminals]
    removed = set()
    while leaves:
        x = leaves.pop()
        if x in removed:
            continue
        removed.add(x)
        for y in adj[x]:
            if y in removed:
                continue
            degree[y] -= 1
            if degree[y] <= 1 and y not in tree_terminals:
                leaves.append(y)

    keep_vertices = set()
    for x in adj:
        if x in removed:
            continue
        if x >= n:
            keep_vertices.update(index.components[x - n])
        else:
            keep_vertices.add(x)

    if len(keep_vertices) == g.n:
        return g, terminals

    remap = {v: i for i, v in enumerate(sorted(keep_vertices))}
    edges: list[tuple[int, int]] = []
    probs: list[float] = []
    exacts: list[Fraction] = []
    has_exact = g.exact_probs is not None
    for j, (u, v) in enumerate(g.edges):
        if u in remap and v in remap:
            edges.append((remap[u], remap[v]))
            probs.append(g.probs[j])
            if has_exact:
                exacts.append(g.exact_probs[j])
    pruned = UncertainGraph(
        n=len(remap),
        edges=tuple(edges),
        probs=tuple(probs),
        exact_probs=tuple(exacts) if has_exact else None,
    )
    new_terms = TerminalSet.of(remap[t] for t in terminals.vertices)
    return pruned, new_terms


# ---------------------------------------------------------------------------
# Decompose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Bridge factor and the independent remaining parts.

    Reliability of the original problem equals ``bridge_factor`` times the
    product of the parts' reliabilities.
    """

    bridge_factor: float
    bridge_factor_exact: Optional[Fraction]
    parts: tuple[tuple[UncertainGraph, TerminalSet], ...]


def decompose(
    g: UncertainGraph, terminals: TerminalSet, index: Optional[StructureIndex] = None
) -> Decomposition:
    """Factor on every bridge.

    Requires a pruned input (every bridge on a terminal-connecting path);
    a leaf part without an original terminal signals a skipped prune.
    """
    terminals.validate(g)
    if index is None:
        index = build_structure_index(g)
    bridges = index.bridges

    pb_exact = Fraction(1)
    has_exact = g.exact_probs is not None
    pb = 1.0
    for j in bridges:
        pb *= g.probs[j]
        pb_exact *= g.exact_probs[j] if has_exact else to_fraction(g.probs[j])

    # split on bridges
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, (u, v) in enumerate(g.edges):
        if j not in bridges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru

    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    part_vertices = sorted(groups.values(), key=min)
    part_id = {}
    for i, vs in enumerate(part_vertices):
        for v in vs:
            part_id[v] = i

    incident_bridges = [0] * len(part_vertices)
    part_terms: list[set[int]] = [set() for _ in part_vertices]
    for t in terminals.vertices:
        part_terms[part_id[t]].add(t)
    for j in bridges:
        u, v = g.edges[j]
        incident_bridges[part_id[u]] += 1
        incident_bridges[part_id[v]] += 1
        part_terms[part_id[u]].add(u)
        part_terms[part_id[v]].add(v)

    for i, vs in enumerate(part_vertices):
        has_original = any(t in terminals.vertices for t in part_terms[i])
        if bridges and incident_bridges[i] <= 1 and not has_original:
            raise GraphInvariantError(
                "bridge removal strands a terminal-free part; prune first"
            )

    parts: list[tuple[UncertainGraph, TerminalSet]] = []
    for i, vs in enumerate(part_vertices):
        terms = part_terms[i]
        if len(terms) < 2:
            continue  # single-terminal part is always reliable: factor 1
        remap = {v: idx for idx, v in enumerate(sorted(vs))}
        edges = []
        probs = []
        exacts = []
        for j, (u, v) in enumerate(g.edges):
            if j in bridges:
                continue
            if u in remap and v in remap:
                edges.append((remap[u], remap[v]))
                probs.append(g.probs[j])
                if has_exact:
                    exacts.append(g.exact_probs[j])
        part_graph = UncertainGraph(
            n=len(remap),
            edges=tuple(edges),
            probs=tuple(probs),
            exact_probs=tuple(exacts) if has_exact else None,
        )
        parts.append((part_graph, TerminalSet.of(remap[t] for t in terms)))

    parts.sort(key=lambda pt: -pt[0].m)  # dominant cost first
    return Decomposition(
        bridge_factor=pb,
        bridge_factor_exact=pb_exact if has_exact else None,
        parts=tuple(parts),
    )


# ---------------------------------------------------------------------------
# Transform
# ---------------------------------------------------------------------------

def transform(
    g: UncertainGraph, terminals: TerminalSet
) -> tuple[UncertainGraph, TerminalSet]:
    """Collapse series chains, parallel edges, and loops to a fixpoint.

    Series: a non-terminal degree-2 vertex contracts, its two edge
    probabilities multiplying, unless the replacement edge would duplicate an
    existing one (the parallel rule then merges them on the next sweep).
    Parallel: duplicate edges merge with complement-product probability.
    Every rule application removes at least one edge, so the loop terminates.
    """
    terminals.validate(g)
    has_exact = g.exact_probs is not None
    edges = list(g.edges)
    probs: list[Fraction | float] = (
        list(g.exact_probs) if has_exact else list(g.probs)
    )
    terms = set(terminals.vertices)
    alive = [True] * len(edges)

    def one() -> Fraction | float:
        return Fraction(1) if has_exact else 1.0

    changed = True
    while changed:
        changed = False

        # loops
        for j, (u, v) in enumerate(edges):
            if alive[j] and u == v:
                alive[j] = False
                changed = True

        # parallel edges
        by_pair: dict[tuple[int, int], int] = {}
        for j, (u, v) in enumerate(edges):
            if not alive[j] or u == v:
                continue
            key = (u, v) if u < v else (v, u)
            prev = by_pair.get(key)
            if prev is None:
                by_pair[key] = j
            else:
                probs[prev] = one() - (one() - probs[prev]) * (one() - probs[j])
                alive[j] = False
                changed = True

        # series contraction; a duplicate (a, b) edge may appear here and is
        # merged by the parallel rule on the next sweep
        inc: dict[int, list[int]] = {}
        for j, (u, v) in enumerate(edges):
            if alive[j]:
                inc.setdefault(u, []).append(j)
                inc.setdefault(v, []).append(j)
        for v, js in inc.items():
            if v in terms or len(js) != 2:
                continue
            j1, j2 = js
            if not (alive[j1] and alive[j2]):
                continue
            a = edges[j1][1] if edges[j1][0] == v else edges[j1][0]
            b = edges[j2][1] if edges[j2][0] == v else edges[j2][0]
            if a == v or b == v:
                continue  # loop at v, handled above
            alive[j1] = alive[j2] = False
            changed = True
            if a == b:
                # both edges run to the same neighbor; v adds nothing
                continue
            edges.append((a, b))
            probs.append(probs[j1] * probs[j2])
            alive.append(True)
            inc_a = inc.get(a)
            inc_b = inc.get(b)
            if inc_a is not None:
                inc_a[:] = [x for x in inc_a if x != j1 and x != j2]
                inc_a.append(len(edges) - 1)
            if inc_b is not None:
                inc_b[:] = [x for x in inc_b if x != j1 and x != j2]
                inc_b.append(len(edges) - 1)

    final_edges = [edges[j] for j in range(len(edges)) if alive[j]]
    final_probs = [probs[j] for j in range(len(edges)) if alive[j]]
    used = sorted({v for e in final_edges for v in e} | terms)
    remap = {v: i for i, v in enumerate(used)}
    out_edges = tuple((remap[u], remap[v]) for u, v in final_edges)
    if has_exact:
        out = UncertainGraph(
            n=len(used),
            edges=out_edges,
            probs=tuple(float(p) for p in final_probs),
            exact_probs=tuple(final_probs),  # type: ignore[arg-type]
        )
    else:
        out = UncertainGraph(n=len(used), edges=out_edges, probs=tuple(final_probs))
    return out, TerminalSet.of(remap[t] for t in terms)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def undecomposed(g: UncertainGraph, terminals: TerminalSet) -> Decomposition:
    """The unreduced problem as its only part, with bridge factor 1.

    Terminals in different components give reliability 0 and no parts.
    """
    if not terminals_connected(g, (1 << g.m) - 1, terminals):
        zero = Fraction(0) if g.exact_probs is not None else None
        return Decomposition(bridge_factor=0.0, bridge_factor_exact=zero, parts=())
    one = Fraction(1) if g.exact_probs is not None else None
    return Decomposition(
        bridge_factor=1.0, bridge_factor_exact=one, parts=((g, terminals),)
    )


def preprocess(g: UncertainGraph, terminals: TerminalSet) -> Decomposition:
    """Prune, re-index, decompose, transform, to a fixpoint.

    Transforming a part can expose fresh bridges (a collapsed chain between
    two terminals, say), so any part whose edge count dropped goes through
    another round.  Each round strictly shrinks re-queued parts, so the loop
    terminates.  Terminals in different components give reliability 0 and
    no parts.
    """
    whole = undecomposed(g, terminals)
    if not whole.parts:
        return whole
    pb = 1.0
    pb_exact = Fraction(1)
    any_exact = g.exact_probs is not None
    final: list[tuple[UncertainGraph, TerminalSet]] = []
    work: list[tuple[UncertainGraph, TerminalSet]] = [(g, terminals)]
    while work:
        wg, wt = work.pop()
        pg, pt = prune(wg, wt)
        # bridge status can change after pruning, so the index is rebuilt
        deco = decompose(pg, pt, build_structure_index(pg))
        pb *= deco.bridge_factor
        if deco.bridge_factor_exact is not None:
            pb_exact *= deco.bridge_factor_exact
        else:
            pb_exact *= to_fraction(deco.bridge_factor)
        for part_g, part_t in deco.parts:
            tg, tt = transform(part_g, part_t)
            if tg.m < part_g.m:
                work.append((tg, tt))
            else:
                final.append((tg, tt))
    final.sort(key=lambda pt: -pt[0].m)
    return Decomposition(
        bridge_factor=pb,
        bridge_factor_exact=pb_exact if any_exact else None,
        parts=tuple(final),
    )
