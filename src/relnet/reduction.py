"""Reliability-preserving preprocessing.

Two rewrites shrink the problem before estimation, neither of which changes
the k-terminal reliability:

* decompose: drop every bridge that does not separate terminals, with all
             that lies beyond it, and factor on the rest, splitting the graph
             into independent parts whose reliabilities multiply (times the
             kept bridges' probabilities);
* transform: collapse series chains and parallel edges.

Both multiply exact values (``prob_values(True)``) in every precision; a
part graph carries its exact values, and each float they compute is an
exact value rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .graph import TerminalSet, UncertainGraph, _find, terminals_connected


@dataclass(frozen=True)
class StructureIndex:
    """Bridges and the 2-edge-connected component of every vertex."""

    bridges: frozenset[int]  # edge indices
    component_of: tuple[int, ...]  # vertex -> smallest vertex of its component


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
    for j, (u, v) in enumerate(g.edges):
        if j not in bridge_set:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[rv] = ru
    smallest: dict[int, int] = {}  # root -> its smallest vertex, the first seen
    component_of = tuple(smallest.setdefault(_find(parent, v), v) for v in range(n))
    return StructureIndex(bridges=bridge_set, component_of=component_of)


# ---------------------------------------------------------------------------
# Decompose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Bridge factor and the independent remaining parts.

    Reliability of the original problem equals the exact bridge factor times
    the product of the parts' reliabilities; ``bridge_factor`` rounds it,
    once per decomposition.
    """

    bridge_factor_exact: Fraction
    parts: tuple[tuple[UncertainGraph, TerminalSet], ...]

    @cached_property
    def bridge_factor(self) -> float:
        return float(self.bridge_factor_exact)


# reliability 0 and no parts: the terminals lie in different components
_UNRELIABLE = Decomposition(bridge_factor_exact=Fraction(0), parts=())


def decompose(g: UncertainGraph, terminals: TerminalSet) -> Decomposition:
    """Prune to the terminals and factor on every bridge that separates them.

    The 2-edge-connected components, joined by the bridges, form a forest:
    the bridge tree.  Trimming its terminal-free leaves until none is left
    keeps exactly the bridges with terminals on both sides; any other bridge,
    and everything beyond it, cannot affect terminal connectivity.  Every
    kept bridge must be up, so its exact probability joins the bridge factor
    and its endpoints become terminals of their components.  A component
    with at least two terminals is a part: vertices renumbered in ascending
    order, edges in input order with their floats and exact values.  A
    component with fewer is connected with probability 1.

    Parts come ordered by smallest original vertex, then stably by
    descending edge count.  Terminals in different components of ``g``
    give reliability 0 and no parts: the trimmed bridge forest then keeps
    more than one tree.
    """
    terminals.validate(g)
    index = build_structure_index(g)
    comp = index.component_of
    bridges = sorted(index.bridges)

    tree: dict[int, list[int]] = {c: [] for c in comp}  # component -> bridges
    for j in bridges:
        u, v = g.edges[j]
        tree[comp[u]].append(j)
        tree[comp[v]].append(j)
    holds_terminal = {comp[t] for t in terminals.vertices}
    degree = {c: len(js) for c, js in tree.items()}
    leaves = [c for c, d in degree.items() if d <= 1 and c not in holds_terminal]
    trimmed: set[int] = set()
    while leaves:
        c = leaves.pop()
        trimmed.add(c)
        for j in tree[c]:
            u, v = g.edges[j]
            other = comp[v] if comp[u] == c else comp[u]
            degree[other] -= 1
            # degrees only fall, so each component is queued at most once
            if degree[other] == 1 and other not in holds_terminal:
                leaves.append(other)
    kept = [
        j for j in bridges
        if comp[g.edges[j][0]] not in trimmed and comp[g.edges[j][1]] not in trimmed
    ]
    # the kept groups and bridges form a forest in which every tree holds a
    # terminal; it has one tree per kept group, less one per kept bridge
    if len(tree) - len(trimmed) - len(kept) > 1:
        return _UNRELIABLE

    part_terms: dict[int, set[int]] = {}
    for t in terminals.vertices:
        part_terms.setdefault(comp[t], set()).add(t)
    for j in kept:
        for x in g.edges[j]:
            part_terms.setdefault(comp[x], set()).add(x)
    # component ids are smallest vertices, so this orders parts by them
    members: dict[int, list[int]] = {
        c: [] for c in sorted(part_terms) if len(part_terms[c]) >= 2
    }
    for v in range(g.n):
        if comp[v] in members:
            members[comp[v]].append(v)
    local = {v: i for vs in members.values() for i, v in enumerate(vs)}
    part_edges: dict[int, list[int]] = {c: [] for c in members}
    for j, (u, v) in enumerate(g.edges):
        if j not in index.bridges and comp[u] in part_edges:
            part_edges[comp[u]].append(j)

    exact = g.prob_values(True)
    parts: list[tuple[UncertainGraph, TerminalSet]] = []
    for c, js in part_edges.items():
        part_graph = UncertainGraph(
            n=len(members[c]),
            edges=tuple((local[g.edges[j][0]], local[g.edges[j][1]]) for j in js),
            probs=tuple(g.probs[j] for j in js),
            exact_probs=tuple(exact[j] for j in js),
        )
        parts.append((part_graph, TerminalSet.of(local[t] for t in part_terms[c])))
    parts.sort(key=lambda pt: -pt[0].m)  # dominant cost first
    return Decomposition(
        bridge_factor_exact=math.prod((exact[j] for j in kept), start=Fraction(1)),
        parts=tuple(parts),
    )


# ---------------------------------------------------------------------------
# Transform
# ---------------------------------------------------------------------------

def transform(
    g: UncertainGraph, terminals: TerminalSet
) -> tuple[UncertainGraph, TerminalSet]:
    """Collapse series chains and parallel edges to a fixpoint.

    Series: a non-terminal degree-2 vertex contracts, its two edges' exact
    probabilities multiplying, unless the replacement edge would duplicate an
    existing one (the parallel rule then merges them on the next sweep).
    Parallel: duplicate edges merge with complement-product probability.
    Every rule application removes at least one edge, so the loop terminates.
    """
    terminals.validate(g)
    edges = list(g.edges)
    probs: list[Fraction] = list(g.prob_values(True))  # type: ignore[arg-type]
    terms = set(terminals.vertices)
    alive = [True] * len(edges)

    changed = True
    while changed:
        changed = False

        # parallel edges
        by_pair: dict[tuple[int, int], int] = {}
        for j, (u, v) in enumerate(edges):
            if not alive[j]:
                continue
            key = (u, v) if u < v else (v, u)
            prev = by_pair.get(key)
            if prev is None:
                by_pair[key] = j
            else:
                probs[prev] = 1 - (1 - probs[prev]) * (1 - probs[j])
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
    out = UncertainGraph(
        n=len(used),
        edges=tuple((remap[u], remap[v]) for u, v in final_edges),
        probs=tuple(float(p) for p in final_probs),
        exact_probs=tuple(final_probs),
    )
    return out, TerminalSet.of(remap[t] for t in terms)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def undecomposed(g: UncertainGraph, terminals: TerminalSet) -> Decomposition:
    """The unreduced problem as its only part, with bridge factor 1.

    Terminals in different components give reliability 0 and no parts.
    """
    if not terminals_connected(g, (1 << g.m) - 1, terminals):
        return _UNRELIABLE
    return Decomposition(bridge_factor_exact=Fraction(1), parts=((g, terminals),))


def preprocess(g: UncertainGraph, terminals: TerminalSet) -> Decomposition:
    """Decompose, transform, to a fixpoint.

    Transforming a part can expose fresh bridges (a collapsed chain between
    two terminals, say), so any part whose edge count dropped goes through
    another round.  Each round strictly shrinks re-queued parts, so the loop
    terminates.  Terminals in different components give reliability 0 and
    no parts, as the first round finds.
    """
    pb = Fraction(1)
    final: list[tuple[UncertainGraph, TerminalSet]] = []
    work: list[tuple[UncertainGraph, TerminalSet]] = [(g, terminals)]
    while work:
        deco = decompose(*work.pop())
        pb *= deco.bridge_factor_exact
        for part_g, part_t in deco.parts:
            tg, tt = transform(part_g, part_t)
            if tg.m < part_g.m:
                work.append((tg, tt))
            else:
                final.append((tg, tt))
    final.sort(key=lambda pt: -pt[0].m)
    return Decomposition(bridge_factor_exact=pb, parts=tuple(final))
