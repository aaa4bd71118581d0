"""Width-bounded frontier diagram: bounds computation plus sampling scheduler.

Edges are decided one per layer.  A node summarizes every realization prefix
that is still undecided, keeping only per-frontier attributes: connected
component ids and per-component terminal counts.  A component's count of
undecided incident edges, which deletion priorities read, is derived per
layer from its frontier vertices.  Prefixes proven connected or disconnected
leave the diagram immediately and feed two running masses, the lower bound
``p_c`` and the complement of the upper bound ``p_d``.  Only one layer is
resident at a time.

When a layer outgrows the configured width, the lowest-priority nodes are
deleted and become sampling strata.  A stratum's nodes share the layer's
undecided edges (the suffix of the order), so the suffix is mapped onto
endpoint slots once per stratum; each draw then completes one node in a
single union-find pass over the suffix, skipping the edges internal to the
node's components.  The final estimate combines the bounds with the
per-stratum draws.

Only the draws depend on the seed, so a construction is a seed-free build
(layers, bounds, deleted nodes, per-layer budgets) followed by a sampling
pass over the strata it scheduled.  The most recent build is kept and reused.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import rng as rngmod
from .estimators import (
    Bounds,
    EstimateReport,
    SampleBudget,
    StratumDraw,
    combine_strata,
    reduced_sample_count,
    strata_variance,
)
from .graph import (
    GraphInvariantError,
    TerminalSet,
    UncertainGraph,
    # unused here; perfbench/test_perfbench.py checks that its tracer rebinds it
    sample_possible_graph,  # noqa: F401
)
from .numerics import KahanSum, Probability, to_fraction


class WidthCapExceeded(RuntimeError):
    """Unbounded construction grew past the configured hard cap."""


# ---------------------------------------------------------------------------
# Edge ordering and frontiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeOrder:
    """A processing order for the edges and the induced frontier profile.

    ``order[l]`` is the original index of the edge decided at layer l.
    ``frontiers[l]`` lists the vertices incident to both decided and
    undecided edges just before layer l is processed; it is derived from the
    order alone.
    """

    order: tuple[int, ...]
    first: tuple[int, ...]
    frontiers: tuple[tuple[int, ...], ...]
    incident_positions: tuple[tuple[int, ...], ...]

    @property
    def max_frontier(self) -> int:
        return max((len(f) for f in self.frontiers), default=0)


def order_edges(g: UncertainGraph, terminals: TerminalSet) -> EdgeOrder:
    """Default ordering: breadth-first from the smallest terminal.

    Edges are emitted when their first endpoint is dequeued, which keeps the
    frontier narrow on path-like and planar-like graphs.
    """
    m = g.m
    start = min(terminals.vertices)
    emitted = [False] * m
    order: list[int] = []
    visited = [False] * g.n
    visited[start] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for j in g.incident(u):
            if emitted[j]:
                continue
            emitted[j] = True
            order.append(j)
            a, b = g.edges[j]
            x = b if a == u else a
            if not visited[x]:
                visited[x] = True
                queue.append(x)
    if len(order) != m:
        raise GraphInvariantError("graph is not connected")

    positions = [0] * m
    for pos, j in enumerate(order):
        positions[j] = pos
    inc_pos: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        inc_pos[v] = sorted(positions[j] for j in g.incident(v))
    first = [p[0] if p else m for p in inc_pos]
    # frontiers[l] holds v iff first[v] < l <= last[v]: sweep the layers,
    # entering v after layer first[v] and leaving after layer last[v]
    enter: list[list[int]] = [[] for _ in range(m)]
    leave: list[list[int]] = [[] for _ in range(m)]
    for v, p in enumerate(inc_pos):
        if p:
            enter[p[0]].append(v)
            leave[p[-1]].append(v)
    frontier: list[int] = []
    frontiers: list[tuple[int, ...]] = [()]
    for pos in range(m):
        for v in enter[pos]:
            insort(frontier, v)
        for v in leave[pos]:
            del frontier[bisect_left(frontier, v)]
        frontiers.append(tuple(frontier))
    return EdgeOrder(
        order=tuple(order),
        first=tuple(first),
        frontiers=tuple(frontiers),
        incident_positions=tuple(tuple(p) for p in inc_pos),
    )


# ---------------------------------------------------------------------------
# Nodes and transitions
# ---------------------------------------------------------------------------

class Node:
    """Frontier summary of a set of undecided realization prefixes.

    ``comp[i]`` is the component id of the i-th frontier vertex, ids
    canonical by first occurrence along the frontier.  ``t[c]`` counts the
    terminals connected into component c.  A component's undecided edge
    endpoints are not stored: they follow from ``comp`` and the layer, see
    :func:`node_priority`.
    """

    __slots__ = ("p", "comp", "t")

    def __init__(
        self, p: Probability, comp: tuple[int, ...], t: tuple[int, ...]
    ) -> None:
        self.p = p
        self.comp = comp
        self.t = t

    def __repr__(self) -> str:  # diagnostic only
        return f"Node(p={self.p!r}, comp={self.comp}, t={self.t})"


ONE_SINK = "one"
ZERO_SINK = "zero"


@dataclass(frozen=True)
class _LayerStep:
    """Precomputed geometry for deciding the edge at one layer."""

    edge_index: int
    u_pos: int  # position of u in the old frontier, -1 if entering
    v_pos: int
    u_tinit: int  # terminal count of u's singleton component on entry
    v_tinit: int
    next_src: tuple[int, ...]  # per new-frontier vertex: old pos, or -2 (u) / -3 (v)
    rem: tuple[int, ...]  # per new-frontier vertex: incident edges after this layer


def _make_step(
    g: UncertainGraph, eo: EdgeOrder, layer: int, terminals: TerminalSet
) -> _LayerStep:
    j = eo.order[layer]
    u, v = g.edges[j]
    fl = eo.frontiers[layer]
    fn = eo.frontiers[layer + 1]
    pos = {x: i for i, x in enumerate(fl)}
    src = []
    for x in fn:
        if x == u:
            src.append(-2)
        elif x == v:
            src.append(-3)
        else:
            src.append(pos[x])
    inc = eo.incident_positions
    return _LayerStep(
        edge_index=j,
        u_pos=pos.get(u, -1),
        v_pos=pos.get(v, -1),
        u_tinit=1 if u in terminals.vertices else 0,
        v_tinit=1 if v in terminals.vertices else 0,
        next_src=tuple(src),
        rem=tuple(len(inc[x]) - bisect_right(inc[x], layer) for x in fn),
    )


def _finish(src, t, nc, merged_from, merged_to):
    """Renumber surviving components over the new frontier.

    Returns ZERO_SINK when a terminal-bearing component has no member left,
    else (comp ids, t, t-sign pattern), ids canonical by first occurrence.
    """
    remap = [-1] * nc
    cc: list[int] = []
    ct: list[int] = []
    sign: list[bool] = []
    fresh = 0
    for c in src:
        if c == merged_from:
            c = merged_to
        i = remap[c]
        if i < 0:
            i = fresh
            fresh += 1
            remap[c] = i
            tc = t[c]
            ct.append(tc)
            sign.append(tc > 0)
        cc.append(i)
    for c in range(nc):
        if t[c] > 0 and remap[c] < 0 and c != merged_from:
            return ZERO_SINK
    return (tuple(cc), tuple(ct), tuple(sign))


def _apply_both(node: Node, step: _LayerStep, k: int):
    """Both transitions of a node across one edge decision.

    Returns (off, on) where each entry is ONE_SINK, ZERO_SINK, or the child
    attribute tuple produced by :func:`_finish`.  The shared bookkeeping
    (component entry) is done once.
    """
    comp = node.comp
    baset = list(node.t)

    u_pos = step.u_pos
    if u_pos >= 0:
        cu = comp[u_pos]
    else:
        cu = len(baset)
        baset.append(step.u_tinit)
    v_pos = step.v_pos
    if v_pos >= 0:
        cv = comp[v_pos]
    else:
        cv = len(baset)
        baset.append(step.v_tinit)
    nc = len(baset)

    src = [
        comp[s] if s >= 0 else (cu if s == -2 else cv)
        for s in step.next_src
    ]
    off = _finish(src, baset, nc, -1, -1)
    if cu == cv:
        # a cycle-closing edge changes nothing structural either way
        return off, off
    tcu = baset[cu] + baset[cv]
    if tcu == k:
        return off, ONE_SINK
    newt = list(baset)
    newt[cu] = tcu
    return off, _finish(src, newt, nc, cv, cu)


# ---------------------------------------------------------------------------
# Priorities and deletion
# ---------------------------------------------------------------------------

def node_priority(node: Node, k: int, rem: Sequence[int]) -> float:
    """Deletion priority: mass times closeness to either sink.

    A component scores t/k (nearly all terminals gathered) or 1/d (nearly
    out of undecided edges), whichever is larger; nodes with no
    terminal-bearing component score 0 and are deleted first.  d sums
    ``rem``, the layer's undecided incident edges per frontier vertex, over
    the component's frontier vertices.
    """
    d = [0] * len(node.t)
    for c, r in zip(node.comp, rem):
        d[c] += r
    best = 0.0
    for c, tc in enumerate(node.t):
        if tc > 0:
            score = max(tc / k, 1.0 / d[c])
            if score > best:
                best = score
    return float(node.p) * best


def split_layer(
    nodes: list[Node], width: int, k: int, rem: Sequence[int]
) -> tuple[list[Node], list[Node]]:
    """Keep the ``width`` highest-priority nodes; the rest are deleted.

    Ties keep the input order, which is the layer's creation order.
    """
    if len(nodes) <= width:
        return nodes, []
    ranked = sorted(nodes, key=lambda nd: -node_priority(nd, k, rem))
    return ranked[:width], ranked[width:]


# ---------------------------------------------------------------------------
# Stratum sampling (one pass over the shared undecided suffix)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Suffix:
    """The undecided edges at a layer, over node-independent endpoint slots.

    Slot i < ``frontier`` is the i-th frontier vertex.  The vertices the
    ordering has not reached follow: the unreached terminals first, sorted,
    then the others in order of first appearance along the suffix.  ``edges``
    holds (slot, slot, p, 1 - p) per undecided edge in processing order;
    edges with both endpoints on one slot are left out.
    """

    frontier: int
    extras: int
    terminals: int
    edges: tuple[tuple[int, int, float, float], ...]


def _suffix(
    g: UncertainGraph, eo: EdgeOrder, layer: int, terminals: TerminalSet
) -> _Suffix:
    fl = eo.frontiers[layer]
    f = len(fl)
    slot = {x: i for i, x in enumerate(fl)}
    for x in sorted(terminals.vertices):
        if eo.first[x] >= layer:
            slot[x] = len(slot)
    n_terminals = len(slot) - f
    edges: list[tuple[int, int, float, float]] = []
    for j in eo.order[layer:]:
        u, v = g.edges[j]
        a = slot.setdefault(u, len(slot))
        b = slot.setdefault(v, len(slot))
        if a != b:
            p = g.probs[j]
            edges.append((a, b, p, 1.0 - p))
    return _Suffix(f, len(slot) - f, n_terminals, tuple(edges))


def stratum_quotient(
    g: UncertainGraph, eo: EdgeOrder, layer: int, node: Node, terminals: TerminalSet
) -> tuple[UncertainGraph, TerminalSet]:
    """Collapse a node's decided prefix onto its components.

    The quotient has one vertex per live component plus one per vertex not
    yet reached by the ordering; its edges are the undecided edges of the
    original graph.  All completions of the node connect the terminals iff
    the corresponding quotient realization connects every terminal-bearing
    component and every unreached terminal.  :func:`sample_group_stratum`
    draws from this graph without building it.
    """
    sfx = _suffix(g, eo, layer, terminals)
    nc = len(node.t)
    ids = list(node.comp)
    ids.extend(range(nc, nc + sfx.extras))
    qedges: list[tuple[int, int]] = []
    qprobs: list[float] = []
    for a, b, p, _ in sfx.edges:
        mu, mv = ids[a], ids[b]
        if mu != mv:  # internal to a component, cannot change connectivity
            qedges.append((mu, mv))
            qprobs.append(p)
    targets = [c for c in range(nc) if node.t[c] > 0]
    targets.extend(range(nc, nc + sfx.terminals))
    quotient = UncertainGraph(
        n=nc + sfx.extras, edges=tuple(qedges), probs=tuple(qprobs)
    )
    return quotient, TerminalSet.of(targets)


def _node_pass(sfx: _Suffix, node: Node) -> tuple[list[int], list, list[int]]:
    """A node's union-find parents, kept edges and target slots over ``sfx``.

    Frontier slots start under the first slot of their component, so the
    kept edges are the suffix minus those joining two slots of one
    component: the quotient's edges, in its order.
    """
    f = sfx.frontier
    first: dict[int, int] = {}
    parents = [first.setdefault(c, i) for i, c in enumerate(node.comp)]
    parents.extend(range(f, f + sfx.extras))
    kept = [e for e in sfx.edges if parents[e[0]] != parents[e[1]]]
    targets = [first[c] for c, tc in enumerate(node.t) if tc > 0]
    targets.extend(range(f, f + sfx.terminals))
    return parents, kept, targets


def sample_group_stratum(
    g: UncertainGraph,
    eo: EdgeOrder,
    layer: int,
    terminals: TerminalSet,
    nodes: Sequence[Node],
    mass: float,
    draws: int,
    *,
    seed: int = 0,
    kind: str,
    want_outcomes: bool = False,
) -> StratumDraw:
    """Sample a pooled group of same-layer nodes as one stratum.

    Each draw first picks a node with probability proportional to its mass
    (the group is one stratum; per-node masses are usually far too small to
    budget individually), then completes the node over the layer's undecided
    suffix.  The suffix is mapped onto endpoint slots once per stratum; a
    node hit for the first time caches its union-find parents, kept edges
    and target slots, and each draw is one pass over the kept edges, one
    ``random()`` per edge, joining the endpoints of every edge drawn.  This
    draws exactly what sampling :func:`stratum_quotient` would.

    The stratum draws from its own stream, named by its layer and ``kind``:
    a layer has at most one ``"deleted"`` and one ``"resident"`` stratum.
    An HT outcome is keyed by the node's index in ``nodes`` and the edge
    mask drawn over its kept edges; its probability multiplies the edge
    factors in edge order, as :func:`assignment_probability` does.
    """
    rng = rngmod.stream(seed, "layer", layer, kind)
    rnd = rng.random
    masses = [float(nd.p) for nd in nodes]
    cum: list[float] = []
    acc = 0.0
    for x in masses:
        acc += x
        cum.append(acc)
    total = acc
    sfx = _suffix(g, eo, layer, terminals)
    cache: dict[int, tuple[list[int], list, list[int]]] = {}
    successes = 0
    outcomes: Optional[list] = [] if want_outcomes else None
    for _ in range(draws):
        i = bisect_right(cum, rnd() * total)
        if i >= len(nodes):
            i = len(nodes) - 1
        entry = cache.get(i)
        if entry is None:
            entry = cache[i] = _node_pass(sfx, nodes[i])
        parents, kept, targets = entry
        parent = parents[:]
        if want_outcomes:
            mask = 0
            bit = 1
            q = 1.0
            for a, b, p, p_off in kept:
                if rnd() < p:
                    mask |= bit
                    q *= p
                    while parent[a] != a:
                        parent[a] = parent[parent[a]]
                        a = parent[a]
                    while parent[b] != b:
                        parent[b] = parent[parent[b]]
                        b = parent[b]
                    parent[b] = a
                else:
                    q *= p_off
                bit <<= 1
        else:
            for a, b, p, _ in kept:
                if rnd() < p:
                    while parent[a] != a:
                        parent[a] = parent[parent[a]]
                        a = parent[a]
                    while parent[b] != b:
                        parent[b] = parent[parent[b]]
                        b = parent[b]
                    parent[b] = a
        roots = set()
        for x in targets:
            while parent[x] != x:
                x = parent[x]
            roots.add(x)
        ok = len(roots) == 1
        if ok:
            successes += 1
        if want_outcomes:
            outcomes.append(((i, mask), (masses[i] / total) * q, ok))
    return StratumDraw(mass=mass, draws=draws, successes=successes, outcomes=outcomes)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

@dataclass
class BuildConfig:
    width: Optional[int] = None  # None: unbounded (exact construction)
    samples: int = 0
    estimator: str = "mc"
    seed: int = 0
    precision: str = "double"  # or "exact"
    width_cap: Optional[int] = 1_000_000

    def __post_init__(self) -> None:
        if self.width is not None and self.width < 1:
            raise ValueError("width must be >= 1")
        if self.samples < 0:
            raise ValueError("sample count must be >= 0")
        if self.estimator not in ("mc", "ht"):
            raise ValueError("estimator must be 'mc' or 'ht'")
        if self.precision not in ("double", "exact"):
            raise ValueError("precision must be 'double' or 'exact'")


class _MassAccumulator:
    """Kahan in double mode, exact rational otherwise."""

    def __init__(self, exact: bool) -> None:
        self.exact = exact
        self._kahan = KahanSum()
        self._frac = Fraction(0)

    def add(self, x: Probability) -> None:
        if self.exact:
            self._frac += x
        else:
            self._kahan.add(x)  # type: ignore[arg-type]

    @property
    def value(self) -> float:
        return float(self._frac) if self.exact else self._kahan.value

    @property
    def raw(self) -> Probability:
        return self._frac if self.exact else self._kahan.value


def expand_layer(
    nodes: list[Node],
    step: _LayerStep,
    pe: Probability,
    k: int,
    p_c: _MassAccumulator,
    p_d: _MassAccumulator,
) -> tuple[list[Node], float]:
    """Decide one layer's edge for every node of the layer.

    Children that reach a sink add their mass to ``p_c`` or ``p_d``.  The
    rest merge by component pattern and terminal signs: such children
    transition to the same sinks under every continuation, so their masses
    add without changing the bounds trajectory.  Returns the next layer, in
    creation order, and its total mass.
    """
    pe_off = 1 - pe
    nxt: dict[tuple, Node] = {}
    nxt_get = nxt.get
    resident_mass = 0.0
    for nd in nodes:
        off, on = _apply_both(nd, step, k)
        np_ = nd.p
        for res, mass in ((off, np_ * pe_off), (on, np_ * pe)):
            if res is ONE_SINK:
                p_c.add(mass)
            elif res is ZERO_SINK:
                p_d.add(mass)
            else:
                comp, t, sign = res
                key = (comp, sign)
                kept = nxt_get(key)
                if kept is None:
                    nxt[key] = Node(mass, comp, t)
                else:
                    kept.p = kept.p + mass
                resident_mass += mass
    return list(nxt.values()), resident_mass


@dataclass(frozen=True)
class _Build:
    """Everything a construction decides before its first draw.

    ``strata`` lists the node groups that get draws, as (layer, kind, nodes,
    mass, draws); groups with no draws are already in ``residual``.  The
    nodes are shared by every sampling pass and must not be mutated; ``rows``
    are the trace rows, copied out to each caller.
    """

    eo: EdgeOrder
    strata: tuple[tuple[int, str, tuple[Node, ...], float, int], ...]
    p_c: Probability
    p_d: Probability
    bounds: Bounds
    residual: float
    drawn: int
    layers: int
    max_width: int
    rows: tuple[dict, ...]


@lru_cache(maxsize=1)
def _build(
    g: UncertainGraph,
    exact_probs: Optional[tuple[Fraction, ...]],
    terminals: TerminalSet,
    width: Optional[int],
    samples: int,
    precision: str,
    width_cap: Optional[int],
) -> _Build:
    """The seed-free part of :func:`construct`: layers, bounds and strata.

    Every stratum draws from its own stream named by its layer and kind, so
    neither the seed nor the estimator changes what is built, and a build is
    reused across seeds.  ``exact_probs`` is part of the cache key because
    graph equality ignores it while exact precision reads it.
    """
    # a miss: drop the previous build now, so at most one is alive at a time
    # (this also zeroes the cache_info() counts)
    _build.cache_clear()
    exact = precision == "exact"
    eo = order_edges(g, terminals)
    probs = g.prob_values(exact)
    k = terminals.k
    s = samples

    p_c = _MassAccumulator(exact)
    p_d = _MassAccumulator(exact)
    one: Probability = Fraction(1) if exact else 1.0
    layer_nodes: list[Node] = [Node(one, (), ())]
    strata: list[tuple[int, str, tuple[Node, ...], float, int]] = []
    rows: list[dict] = []
    unsampled_mass = KahanSum()
    drawn = 0
    max_width = 1
    layers_done = 0
    s_prime = s

    def current_bounds() -> Bounds:
        pc = min(1.0, p_c.value)
        pd = min(1.0, p_d.value)
        if pc + pd > 1.0:  # shave accumulated dust
            pd = max(0.0, 1.0 - pc)
        return Bounds(pc, pd)

    def mass_of(nodes: list[Node]) -> float:
        acc = _MassAccumulator(exact)
        for nd in nodes:
            acc.add(nd.p)
        return acc.value

    def add_stratum(nodes: list[Node], mass: float, layer: int, kind: str) -> int:
        """Schedule a pooled node group as one stratum; returns its draws.

        The group gets its mass's share of the reduced budget, never past
        the request; a group with no draws leaves its mass unsampled.
        """
        nonlocal drawn
        draws = max(0, min(int(s_prime * mass), s - drawn))
        if draws == 0:
            if mass > 0:
                unsampled_mass.add(mass)
            return 0
        strata.append((layer, kind, tuple(nodes), mass, draws))
        drawn += draws
        return draws

    def row(layer: int, width: int, deleted: float, drawn_here: int,
            resident: float) -> dict:
        """One trace row, with the running bounds masses."""
        return {
            "layer": layer,
            "width": width,
            "p_c": p_c.value,
            "p_d": p_d.value,
            "deleted_mass": deleted,
            "samples_drawn": drawn_here,
            "resident_mass": resident,
        }

    for layer in range(g.m):
        step = _make_step(g, eo, layer, terminals)
        layer_nodes, resident_mass = expand_layer(
            layer_nodes, step, probs[step.edge_index], k, p_c, p_d
        )
        layers_done = layer + 1
        if width_cap is not None and len(layer_nodes) > width_cap:
            raise WidthCapExceeded(
                f"layer {layer + 1} width {len(layer_nodes)} exceeds cap {width_cap}"
            )
        max_width = max(max_width, len(layer_nodes))
        s_prime = reduced_sample_count(s, current_bounds())

        deleted_mass = 0.0
        samples_layer = 0
        if width is not None and len(layer_nodes) > width:
            layer_nodes, deleted = split_layer(layer_nodes, width, k, step.rem)
            deleted_mass = mass_of(deleted)
            samples_layer = add_stratum(deleted, deleted_mass, layer + 1, "deleted")
            resident_mass = mass_of(layer_nodes)
        rows.append(
            row(layer + 1, len(layer_nodes), deleted_mass, samples_layer, resident_mass)
        )

        if not layer_nodes:
            break

        # Budget check: once sampling has begun, stop constructing as soon
        # as finishing by sampling the resident nodes meets the budget.
        if drawn > 0 and drawn + int(s_prime * resident_mass) >= s_prime:
            batch = add_stratum(layer_nodes, resident_mass, layer + 1, "resident")
            rows.append(row(layer + 1, 0, resident_mass, batch, 0.0))
            layer_nodes = []
            break

    residual = unsampled_mass.value
    if layer_nodes:
        # Natural completion leaves no nodes; anything left means the loop
        # ended without consuming them (possible only with zero layers).
        residual += sum(float(nd.p) for nd in layer_nodes)
    return _Build(
        eo=eo,
        strata=tuple(strata),
        p_c=p_c.raw,
        p_d=p_d.raw,
        bounds=current_bounds(),
        residual=residual,
        drawn=drawn,
        layers=layers_done,
        max_width=max_width,
        rows=tuple(rows),
    )


def construct(
    g: UncertainGraph,
    terminals: TerminalSet,
    config: BuildConfig,
    trace: Optional[list] = None,
) -> EstimateReport:
    """Run the full layered construction and return the estimate report.

    Bounds accumulate monotonically as prefixes reach the sinks; the sample
    budget is re-reduced after every layer from the current bounds; deleted
    and leftover nodes are sampled over the undecided suffix.  The most
    recent build is reused when only the seed or the estimator changes.
    """
    terminals.validate(g)
    t_start = time.perf_counter()
    build = _build(
        g, g.exact_probs, terminals, config.width, config.samples,
        config.precision, config.width_cap,
    )
    if trace is not None:
        trace.extend(dict(row) for row in build.rows)

    t_sample = time.perf_counter()
    want_outcomes = config.estimator == "ht"
    strata = [
        sample_group_stratum(
            g, build.eo, layer, terminals, nodes, mass, draws,
            seed=config.seed, kind=kind, want_outcomes=want_outcomes,
        )
        for layer, kind, nodes, mass, draws in build.strata
    ]

    t_est = time.perf_counter()
    bounds = build.bounds
    residual = build.residual
    drawn = build.drawn
    budget_final = SampleBudget(
        requested=config.samples, reduced=reduced_sample_count(config.samples, bounds)
    )
    is_exact = bounds.undecided <= 1e-12 and not strata
    if is_exact:
        estimate = bounds.p_c
        variance = 0.0
    else:
        estimate = combine_strata(config.estimator, strata, bounds, residual)
        variance = strata_variance(config.estimator, strata, bounds, estimate, drawn)
        variance += (0.5 * residual) ** 2  # midpoint fallback allowance

    report = EstimateReport(
        estimate=float(estimate),
        bounds=bounds,
        budget=budget_final,
        samples_used=drawn,
        variance=variance,
        estimator=config.estimator,
        exact=is_exact,
        unsampled_mass=residual,
        layers=build.layers,
        max_width=build.max_width,
        timings={
            "construct": t_sample - t_start,
            "sample": t_est - t_sample,
            "finalize": time.perf_counter() - t_est,
        },
    )
    if config.precision == "exact":
        report.raw = {
            "p_c": str(build.p_c),
            "p_d": str(build.p_d),
        }
        if is_exact:
            report.raw["estimate"] = str(build.p_c)
    return report


def exact_reliability(
    g: UncertainGraph,
    terminals: TerminalSet,
    *,
    width_cap: int = 1_000_000,
    precision: str = "double",
) -> Probability:
    """Exact reliability via the unbounded construction.

    Fails with :class:`WidthCapExceeded` when any layer outgrows the cap.
    """
    cfg = BuildConfig(
        width=None, samples=0, precision=precision, width_cap=width_cap
    )
    report = construct(g, terminals, cfg)
    gap = 1.0 - report.bounds.p_c - report.bounds.p_d
    if abs(gap) > 1e-9:
        raise GraphInvariantError(
            f"construction left {gap} mass undecided in exact run"
        )
    if precision == "exact":
        return to_fraction(Fraction(report.raw["p_c"]))
    return report.bounds.p_c
