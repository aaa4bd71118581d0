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
undecided edges, a suffix of the order's edge table, and draw all of it.
Each draw completes one node with a union-find over vertex ids that starts
with the node's components joined; an edge inside a component joins nothing.
An MC draw stops at the first checkpoint where its outcome is decided and
passes its random stream over the edges it leaves, so it draws what a full
pass would.  The final estimate combines the bounds with the per-stratum
draws.

Only the draws depend on the seed, so a construction is a seed-free build
(layers, bounds, per-layer budgets and one flat record per scheduled
stratum) followed by a sampling pass over those records.  A record keeps its
nodes as plain columns, with no node object, together with what every draw
of the stratum shares: its unreached terminals and checkpoint stretches.  A
node's union-find start is made the first time a draw picks it and kept in
the record, so a warm call, one that reuses the build with a new seed, does
only the work that depends on the seed.  Only the most recent build is
kept, so a graph that preprocessing splits into several parts rebuilds each
part on every call.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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
from .numerics import FractionSum, KahanSum, Probability


class WidthCapExceeded(RuntimeError):
    """Unbounded construction grew past the configured hard cap."""


# ---------------------------------------------------------------------------
# Edge ordering and frontiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeOrder:
    """A processing order for the edges and the induced frontier profile.

    ``order[l]`` is the original index of the edge decided at layer l, and
    ``edges[l]`` is that edge as (u, v, p, 1 - p); the undecided edges at
    layer l are ``edges[l:]``.  ``frontiers[l]`` lists the vertices incident
    to both decided and undecided edges just before layer l is processed; it
    is derived from the order alone.
    """

    order: tuple[int, ...]
    edges: tuple[tuple[int, int, float, float], ...]
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
    probs = g.probs
    return EdgeOrder(
        order=tuple(order),
        edges=tuple((*g.edges[j], probs[j], 1.0 - probs[j]) for j in order),
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
# Stratum sampling (over the order's undecided edges, MC draws stopping early)
# ---------------------------------------------------------------------------

def stratum_quotient(
    g: UncertainGraph, eo: EdgeOrder, layer: int, node: Node, terminals: TerminalSet
) -> tuple[UncertainGraph, TerminalSet]:
    """Collapse a node's decided prefix onto its components.

    The quotient has one vertex per live component plus one per vertex not
    yet reached by the ordering; its edges are the undecided edges of the
    original graph, taken from the order's edge table, less those inside one
    component, which would be self-loops.  All completions of the node
    connect the terminals iff the corresponding quotient realization
    connects every terminal-bearing component and every unreached terminal.
    :func:`sample_group_stratum` draws the same connectivity without building
    this graph: it also draws the internal edges, which join nothing.
    """
    unreached = _unreached(eo, layer, terminals)
    joins, targets = _node_pass(eo.frontiers[layer], node.comp, node.t, unreached)
    it = iter(joins)
    roots = dict(zip(it, it))
    # components in frontier order, then the unreached terminals, then the
    # other unreached vertices as the quotient's edges reach them
    ids: dict[int, int] = {}
    for x in (*eo.frontiers[layer], *unreached):
        ids.setdefault(roots.get(x, x), len(ids))
    qedges = []
    qprobs = []
    for a, b, p, _ in eo.edges[layer:]:
        a, b = roots.get(a, a), roots.get(b, b)
        if a != b:
            mu = ids.setdefault(a, len(ids))
            qedges.append((mu, ids.setdefault(b, len(ids))))
            qprobs.append(p)
    quotient = UncertainGraph(n=len(ids), edges=tuple(qedges), probs=tuple(qprobs))
    return quotient, TerminalSet.of(ids[x] for x in targets)


def _unreached(eo: EdgeOrder, layer: int, terminals: TerminalSet) -> tuple[int, ...]:
    """The terminals the order has not reached before ``layer``, ascending."""
    return tuple(x for x in terminals.sorted() if eo.first[x] >= layer)


def _node_pass(
    frontier: Sequence[int],
    comp: Sequence[int],
    t: Sequence[int],
    unreached: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A node's union-find start over vertex ids, as (joins, targets).

    ``frontier`` is the layer's frontier and ``comp`` and ``t`` are the
    node's component ids and terminal counts.  Each frontier vertex starts
    under the first frontier vertex of its component and every other vertex
    under itself, so every parent is a root: ``joins`` is (x1, r1, x2, r2,
    ...), the frontier vertices that are not first, each followed by its
    root.  The targets are one vertex per terminal-bearing component plus
    the ``unreached`` terminals.  Both are tuples of ints, which the
    collector stops tracking.
    """
    first: dict[int, int] = {}
    joins: list[int] = []
    for x, c in zip(frontier, comp):
        root = first.setdefault(c, x)
        if root != x:
            joins += (x, root)
    targets = tuple([first[c] for c, tc in enumerate(t) if tc > 0])
    return tuple(joins), targets + unreached


CHECK_SPACING = 8  # suffix edges between two checks, per root find a check takes


def _checkpoints(
    eo: EdgeOrder, layer: int, k: int, unreached: Sequence[int]
) -> tuple[tuple[int, int, Optional[tuple]], ...]:
    """The stretches [lo, hi) of a stratum's suffix between MC checkpoints.

    Returns (lo, hi, check) in position order, covering ``layer`` to the
    end.  A stretch is ``CHECK_SPACING`` times (k + frontier at lo) edges
    long, and the last one, whose check is None, is as long or longer.
    Otherwise the check, made once every suffix edge before hi is drawn, is
    (live, rest): ``eo.frontiers[hi]`` plus the ``unreached`` terminals
    still unreached at hi, and the count of suffix edges from hi on.  A
    target whose root is no live vertex's root is in a component with no
    undecided edge left.
    """
    m = len(eo.edges)
    frontiers = eo.frontiers
    first = eo.first
    plan: list[tuple[int, int, Optional[tuple]]] = []
    lo = layer
    while True:
        gap = CHECK_SPACING * (k + len(frontiers[lo]))
        hi = lo + gap
        if m - hi < gap:
            break
        live = frontiers[hi] + tuple(x for x in unreached if first[x] >= hi)
        plan.append((lo, hi, (live, m - hi)))
        lo = hi
    plan.append((lo, m, None))
    return tuple(plan)


class Stratum:
    """One scheduled stratum: a group of same-layer nodes drawn as one.

    A flat, seed-free record that a build makes once and every sampling
    pass reads as it is.  ``layer`` and ``kind`` name the stratum's random
    stream; ``draws`` is its share of the budget and ``mass`` its absolute
    probability mass.  The nodes are kept as columns, no :class:`Node`
    object: ``ps`` their float masses, ``cum`` the running sums of ``ps``,
    ``comps`` and ``ts`` their component ids and terminal counts.

    ``edges`` is the order's edge table, ``n`` the vertex count,
    ``frontier`` the layer's frontier, ``unreached`` the terminals the order
    has not reached before ``layer``, and ``plan`` the checkpoint stretches
    of :func:`_checkpoints` as (lo, hi, check).  A pass slices the table at
    them: a build of a deep instance would hold every stratum's suffix
    otherwise.  ``starts``, made by the first pass, is (joins, targets,
    shared): node i's joins and targets from :func:`_node_pass` at i, None
    until a draw first picks node i and then kept, so later passes over a
    reused build find them.  Equal targets, which most nodes share, are
    kept once through ``shared``.
    """

    __slots__ = ("layer", "kind", "draws", "mass", "ps", "cum", "comps", "ts",
                 "edges", "n", "frontier", "unreached", "plan", "starts")

    def __init__(
        self,
        eo: EdgeOrder,
        terminals: TerminalSet,
        layer: int,
        kind: str,
        ps: tuple[float, ...],
        comps: tuple[tuple[int, ...], ...],
        ts: tuple[tuple[int, ...], ...],
        mass: float,
        draws: int,
    ) -> None:
        self.layer = layer
        self.kind = kind
        self.draws = draws
        self.mass = mass
        self.ps = ps
        self.cum = tuple(accumulate(ps))
        self.comps = comps
        self.ts = ts
        self.edges = eo.edges
        self.n = len(eo.first)
        self.frontier = eo.frontiers[layer]
        self.unreached = _unreached(eo, layer, terminals)
        self.plan = _checkpoints(eo, layer, terminals.k, self.unreached)
        self.starts: Optional[tuple[list, list, dict]] = None


def sample_group_stratum(
    stratum: Stratum, *, seed: int = 0, want_outcomes: bool = False
) -> StratumDraw:
    """Sample a pooled group of same-layer nodes as one stratum.

    Each draw first picks a node with probability proportional to its mass
    (the group is one stratum; per-node masses are usually far too small to
    budget individually), found by bisecting ``stratum.cum``, then completes
    the node over the layer's undecided suffix.

    Every node draws the same edges: the whole suffix, cut at the
    checkpoints of ``stratum.plan``.  A draw copies the identity over vertex
    ids and applies the node's joins from ``stratum.starts`` (made on the
    node's first pick), so each of its components is already joined.  It
    takes one ``random()`` per suffix edge, in order, joining the endpoints
    of every edge drawn; an edge inside one component joins nothing, so the
    draw connects what sampling :func:`stratum_quotient` would.  An MC draw
    stops at the first checkpoint (see :func:`_checkpoints`) that decides
    it: all targets share one root, or a target's component has no
    undecided edge left.  It then passes the stream over the ``rest`` suffix
    edges it leaves with one ``getrandbits(64 * rest)``, which reads the
    same 32-bit words as ``rest`` calls of ``random()``.

    The stratum draws from its own stream, named by its layer and kind: a
    layer has at most one ``"deleted"`` and one ``"resident"`` stratum.  An
    HT draw takes every suffix edge: its outcome is keyed by the node's
    index and the suffix mask drawn, and its probability is the node's mass
    share times the edge factors multiplied in edge order, as
    :func:`assignment_probability` does.
    """
    st = stratum
    rng = rngmod.stream(seed, "layer", st.layer, st.kind)
    rnd = rng.random
    skip = rng.getrandbits
    cum = st.cum
    total = cum[-1]
    last = len(cum) - 1
    edges = st.edges
    segments = [(edges[lo:hi], check) for lo, hi, check in st.plan]
    base = list(range(st.n))
    if st.starts is None:
        st.starts = ([None] * len(cum), [None] * len(cum), {})
    joins_of, targets_of, shared = st.starts
    successes = 0
    outcomes: Optional[list] = [] if want_outcomes else None
    for _ in range(st.draws):
        i = bisect_right(cum, rnd() * total)
        if i > last:
            i = last
        joins = joins_of[i]
        if joins is None:
            joins, targets = _node_pass(
                st.frontier, st.comps[i], st.ts[i], st.unreached
            )
            joins_of[i] = joins
            targets_of[i] = targets = shared.setdefault(targets, targets)
        else:
            targets = targets_of[i]
        parent = base[:]
        if joins:
            it = iter(joins)
            for x, root in zip(it, it):
                parent[x] = root
        if want_outcomes:
            mask = 0
            bit = 1
            q = 1.0
            for seg, _ in segments:
                for a, b, p, p_off in seg:
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
            for seg, check in segments:
                for a, b, p, _ in seg:
                    if rnd() < p:
                        while parent[a] != a:
                            parent[a] = parent[parent[a]]
                            a = parent[a]
                        while parent[b] != b:
                            parent[b] = parent[parent[b]]
                            b = parent[b]
                        parent[b] = a
                if check is None:
                    break
                roots = set()
                for x in targets:
                    while parent[x] != x:
                        x = parent[x]
                    roots.add(x)
                live, rest = check
                if len(roots) > 1:
                    live_roots = set()
                    for x in live:
                        while parent[x] != x:
                            x = parent[x]
                        live_roots.add(x)
                    if roots <= live_roots:
                        continue  # undecided: draw the next segment
                skip(64 * rest)
                break
        roots = set()
        for x in targets:
            while parent[x] != x:
                x = parent[x]
            roots.add(x)
        ok = len(roots) == 1
        if ok:
            successes += 1
        if want_outcomes:
            outcomes.append(((i, mask), (st.ps[i] / total) * q, ok))
    return StratumDraw(
        mass=st.mass, draws=st.draws, successes=successes, outcomes=outcomes
    )


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


def expand_layer(
    nodes: list[Node],
    step: _LayerStep,
    pe: Probability,
    k: int,
    p_c: KahanSum | FractionSum,
    p_d: KahanSum | FractionSum,
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

    ``strata`` lists the :class:`Stratum` records of the node groups that
    get draws; groups with no draws are already in ``residual``.  A record
    holds no :class:`Node`, only plain columns and what its draws share, and
    gains its nodes' start states as passes pick them; the records are
    created and freed with the build.  ``reduced`` is the budget reduced by
    the final bounds; ``rows`` are the trace rows, copied out to each
    caller.
    """

    eo: EdgeOrder
    strata: tuple[Stratum, ...]
    p_c: Probability
    p_d: Probability
    bounds: Bounds
    residual: float
    drawn: int
    reduced: int
    layers: int
    max_width: int
    rows: tuple[dict, ...]


@lru_cache(maxsize=1)
def _build(
    g: UncertainGraph,
    terminals: TerminalSet,
    width: Optional[int],
    samples: int,
    precision: str,
    width_cap: Optional[int],
) -> _Build:
    """The seed-free part of :func:`construct`: layers, bounds and strata.

    Every stratum draws from its own stream named by its layer and kind, so
    neither the seed nor the estimator changes what is built, and a build is
    reused across seeds.
    """
    # a miss: drop the previous build now, so at most one is alive at a time
    # (this also zeroes the cache_info() counts)
    _build.cache_clear()
    exact = precision == "exact"
    eo = order_edges(g, terminals)
    probs = g.prob_values(exact)
    k = terminals.k
    s = samples

    mass_sum, one = (FractionSum, Fraction(1)) if exact else (KahanSum, 1.0)
    p_c = mass_sum()
    p_d = mass_sum()
    layer_nodes: list[Node] = [Node(one, (), ())]
    strata: list[Stratum] = []
    shared_t = {}.setdefault
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
        acc = mass_sum()
        for nd in nodes:
            acc.add(nd.p)
        return acc.value

    def add_stratum(nodes: list[Node], mass: float, layer: int, kind: str) -> int:
        """Schedule a pooled node group as one stratum; returns its draws.

        The group gets its mass's share of the reduced budget, never past
        the request; a group with no draws leaves its mass unsampled.  Equal
        terminal counts, which most nodes of a layer share, are kept once.
        """
        nonlocal drawn
        draws = max(0, min(int(s_prime * mass), s - drawn))
        if draws == 0:
            if mass > 0:
                unsampled_mass.add(mass)
            return 0
        strata.append(Stratum(
            eo, terminals, layer, kind,
            tuple(float(nd.p) for nd in nodes),
            tuple(nd.comp for nd in nodes),
            tuple(shared_t(nd.t, nd.t) for nd in nodes),
            mass, draws,
        ))
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

    # nodes are left only when the graph has no edges, so the terminals
    # cannot connect
    for nd in layer_nodes:
        p_d.add(nd.p)
    return _Build(
        eo=eo,
        strata=tuple(strata),
        p_c=p_c.raw,
        p_d=p_d.raw,
        bounds=current_bounds(),
        residual=unsampled_mass.value,
        drawn=drawn,
        reduced=s_prime,
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
        g, terminals, config.width, config.samples,
        config.precision, config.width_cap,
    )
    if trace is not None:
        trace.extend(dict(row) for row in build.rows)

    t_sample = time.perf_counter()
    want_outcomes = config.estimator == "ht"
    strata = [
        sample_group_stratum(st, seed=config.seed, want_outcomes=want_outcomes)
        for st in build.strata
    ]

    t_est = time.perf_counter()
    bounds = build.bounds
    residual = build.residual
    drawn = build.drawn
    budget_final = SampleBudget(requested=config.samples, reduced=build.reduced)
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
    cfg = BuildConfig(width=None, precision=precision, width_cap=width_cap)
    terminals.validate(g)
    build = _build(g, terminals, None, 0, cfg.precision, cfg.width_cap)
    gap = 1.0 - build.bounds.p_c - build.bounds.p_d
    if abs(gap) > 1e-9:
        raise GraphInvariantError(
            f"construction left {gap} mass undecided in exact run"
        )
    return build.p_c if precision == "exact" else build.bounds.p_c
