"""Width-bounded frontier diagram: bounds computation plus sampling scheduler.

Edges are decided one per layer.  A node summarizes every realization prefix
that is still undecided by its state: one flat ``bytes`` object holding the
frontier's component ids, one byte per frontier vertex, and then the
per-component terminal flags.  A ``bytes`` object keeps its hash once
computed, so a state is hashed once however often it is looked up; an order
whose widest frontier holds more vertices than a byte has ids for packs the
same layout into a ``tuple``, a rule fixed once per build.  Prefixes proven
connected or disconnected leave the diagram immediately and feed two running
masses, the lower bound ``p_c`` and the complement of the upper bound
``p_d``.  Only one layer is resident at a time: expanding a node releases it.

The edge order is the build's one plan (:class:`EdgeOrder`).  One sweep
over its layers gives each layer's frontier and step, and the points where
a suffix draw is checked.  A node's two transitions depend only on its
state and on the layer's step: the positions and terminal flags of the
decided edge's endpoints, where each next-frontier vertex comes from, and
whether every terminal is reached.  Along a regular order such as a grid
strip's, one step comes back once a column, so the layers of a recurring
step share one table of transitions keyed by the state, whose values are
the children's states, and each looks its nodes up there before computing
any.  A table lives from its step's first occurrence to its last, which
reads it and adds nothing, so each transition is computed once per step and
no table outlives the build.

When a layer outgrows the configured width, the lightest nodes are deleted
and become sampling strata.  A stratum's nodes share the layer's
undecided edges, a suffix of the order's edge table, and draw all of it.
Each draw completes one node with a union-find over vertex ids that starts
with the node's components joined; an edge inside a component joins nothing.
An MC draw stops at the first of the order's checks where its outcome is
decided and passes its random stream over the edges it leaves, so it draws
what a full pass would.  An HT stratum, and an MC stratum with at least as
many draws as suffix edges, draws as bit-sliced lanes instead: it reads
the same stream words in bulk, builds each edge's mask of lanes from their
top bytes, and decides every lane's full pass by reachability over those
masks and its node's joins; HT records each lane's mask and probability.
An early-stopped draw reaches the full pass's verdict and skips the words
the full pass reads, so the lanes' successes and end state are the loop's.
Once a layer has been split, the build stops as soon as the nodes still
resident hold less mass than one requested draw stands for, and their mass
is left unsampled.  The final estimate combines the bounds with the
per-stratum draws.

Only the draws depend on the seed, so a construction is a seed-free build
(layers, bounds, per-layer budgets and one flat record per scheduled
stratum) followed by a sampling pass over those records.  A record keeps its
nodes as plain columns, with no node object, together with what every draw
of the stratum shares: its unreached terminals and the order's checks.  A
node's union-find start is made the first time a draw picks it and kept in
the record, so a warm call, one that reuses the build with a new seed, does
only the work that depends on the seed.  The plain-sampling baseline is a
width-0 build, whose root is deleted before layer 1, and is kept and reused
like any other.  Only the most recent build is kept, so a graph that
preprocessing splits into several parts rebuilds each part on every call,
and calls that alternate between the diagram and the baseline rebuild both.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, bisect_right, insort
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, prod
from operator import getitem, itemgetter
from struct import Struct
from typing import Optional, Sequence

from . import rng as rngmod
from .estimators import (
    Bounds,
    EstimateReport,
    StratumDraw,
    combine_strata,
    reduced_sample_count,
)
from .graph import (
    GraphInvariantError,
    TerminalSet,
    UncertainGraph,
    # unused here; perfbench/test_perfbench.py checks that its tracer rebinds it
    sample_possible_graph,  # noqa: F401
)
from .numerics import FractionSum, KahanSum, Probability


DEFAULT_WIDTH_CAP = 1_000_000


class WidthCapExceeded(RuntimeError):
    """A layer grew past the configured hard cap.

    Every build checks each expanded layer before any deletion, whatever its
    width, so a bounded build with a cap below twice its width can raise it
    too.
    """


# ---------------------------------------------------------------------------
# Edge ordering and frontiers
# ---------------------------------------------------------------------------

CHECK_SPACING = 8  # order edges between two checks, per root find a check takes


@dataclass(frozen=True)
class EdgeOrder:
    """A processing order for the edges, and all that both phases read of it.

    ``order[l]`` is the original index of the edge decided at layer l, and
    ``edges[l]`` is that edge as (u, v, p, 1 - p); the undecided edges at
    layer l are ``edges[l:]``.  ``first[v]`` is the first layer whose edge
    touches v (m if none), and ``frontiers[l]`` lists the vertices incident
    to both decided and undecided edges just before layer l is processed.

    ``steps[l]`` is all that :func:`_apply_both` reads of the step deciding
    layer l: (u_pos, v_pos, u_tinit, v_tinit, next_src, closing, width), the
    positions of the edge's endpoints in ``frontiers[l]`` (-1 if entering),
    the terminal flag of each endpoint's singleton component on entry, per
    vertex of ``frontiers[l + 1]`` its position in ``frontiers[l]``, or -2
    (u) / -3 (v), whether every terminal has been reached once layer l is
    decided, and the width of ``frontiers[l]``, where a node state's flags
    begin.  Two layers with equal steps, which share one tuple, give every
    node the same transitions, whatever their edge or undecided edges.

    ``checks`` are the points where an MC draw over a suffix is checked, as
    (pos, live, rest) in position order: one every ``CHECK_SPACING`` times
    (k + frontier width) edges from layer 0, the last stretch as long or
    longer, and then the end of the order, ``(m, (), 0)``.  ``live`` is
    ``frontiers[pos]`` plus the terminals not reached before pos, and
    ``rest`` the count of edges from pos on.  A draw's target whose root is
    no live vertex's root is in a component with no undecided edge left.
    """

    order: tuple[int, ...]
    edges: tuple[tuple[int, int, float, float], ...]
    first: tuple[int, ...]
    frontiers: tuple[tuple[int, ...], ...]
    terminals: TerminalSet
    steps: tuple[tuple, ...]
    checks: tuple[tuple[int, tuple[int, ...], int], ...]

    @property
    def max_frontier(self) -> int:
        return max((len(f) for f in self.frontiers), default=0)


def order_edges(g: UncertainGraph, terminals: TerminalSet) -> EdgeOrder:
    """Default ordering: breadth-first from the smallest terminal.

    Edges are emitted when their first endpoint is dequeued, which keeps the
    frontier narrow on path-like and planar-like graphs.  One sweep over the
    layers then makes the frontiers and the steps, and the checks are read
    off the frontiers.
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

    first = [m] * g.n
    last = [-1] * g.n
    for pos, j in enumerate(order):
        for v in g.edges[j]:
            if first[v] == m:
                first[v] = pos
            last[v] = pos
    # frontiers[l] holds v iff first[v] < l <= last[v]: sweep the layers,
    # entering v after layer first[v] and leaving after layer last[v]
    enter: list[list[int]] = [[] for _ in range(m)]
    leave: list[list[int]] = [[] for _ in range(m)]
    for v in range(g.n):
        if last[v] >= 0:
            enter[first[v]].append(v)
            leave[last[v]].append(v)
    tset = terminals.vertices
    all_reached = max(first[x] for x in tset)  # the last terminal's first layer
    shared = {}.setdefault
    frontier: list[int] = []
    frontiers: list[tuple[int, ...]] = [()]
    steps = []
    for pos, j in enumerate(order):
        u, v = g.edges[j]
        index = {x: i for i, x in enumerate(frontier)}
        for x in enter[pos]:
            insort(frontier, x)
        for x in leave[pos]:
            del frontier[bisect_left(frontier, x)]
        frontiers.append(tuple(frontier))
        src = tuple([-2 if x == u else -3 if x == v else index[x] for x in frontier])
        step = (index.get(u, -1), index.get(v, -1), u in tset, v in tset, src,
                pos >= all_reached, len(index))
        steps.append(shared(step, step))

    checks = []
    pos = 0
    while True:
        gap = CHECK_SPACING * (terminals.k + len(frontiers[pos]))
        if m - pos < 2 * gap:
            break
        pos += gap
        live = frontiers[pos] + tuple(x for x in terminals.sorted() if first[x] >= pos)
        checks.append((pos, live, m - pos))
    checks.append((m, (), 0))
    probs = g.probs
    return EdgeOrder(
        order=tuple(order),
        edges=tuple((*g.edges[j], probs[j], 1.0 - probs[j]) for j in order),
        first=tuple(first),
        frontiers=tuple(frontiers),
        terminals=terminals,
        steps=tuple(steps),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Nodes and transitions
# ---------------------------------------------------------------------------

class Node:
    """Frontier summary of a set of undecided realization prefixes.

    ``state`` is one flat sequence over the layer's frontier of width f:
    ``state[i]`` for i < f is the component id of the i-th frontier vertex,
    ids canonical by first occurrence along the frontier, and
    ``state[f + c]`` is 1 when component c holds a terminal, else 0.  It is
    ``bytes``, which keeps its hash once computed, unless the order's widest
    frontier has more than ``_BYTE_FRONTIER`` vertices, whose ids a byte
    cannot hold; then the build packs the same layout into a ``tuple``.
    The state is the node's merge key and its transition tables' key.
    """

    __slots__ = ("p", "state")

    def __init__(self, p: Probability, state: bytes | tuple[int, ...]) -> None:
        self.p = p
        self.state = state

    def __repr__(self) -> str:  # diagnostic only
        return f"Node(p={self.p!r}, state={self.state!r})"


# the widest frontier whose states pack into bytes: every id is below it
_BYTE_FRONTIER = 256


ONE_SINK = "one"
ZERO_SINK = "zero"


def _finish(src, t, merged_from, merged_to, pack):
    """Renumber surviving components over the new frontier.

    Returns ZERO_SINK when a terminal-bearing component has no member left,
    else the child state, its ids canonical by first occurrence followed by
    its flags, packed by ``pack`` (``bytes`` or ``tuple``).
    """
    remap = [-1] * len(t)
    cc: list[int] = []
    ct: list[bool] = []
    fresh = 0
    for c in src:
        if c == merged_from:
            c = merged_to
        i = remap[c]
        if i < 0:
            i = fresh
            fresh += 1
            remap[c] = i
            ct.append(t[c])
        cc.append(i)
    for c, tc in enumerate(t):
        if tc and remap[c] < 0 and c != merged_from:
            return ZERO_SINK
    cc += ct
    return pack(cc)


def _apply_both(state: bytes | tuple[int, ...], step: tuple):
    """Both transitions of a node's ``state`` across one edge decision.

    ``step`` is the layer's, from :attr:`EdgeOrder.steps`; its last entry,
    the frontier's width, is where the state's flags begin.  Returns (off,
    on) where each entry is ONE_SINK, ZERO_SINK, or the child state produced
    by :func:`_finish`, packed like ``state``.  Joining two flagged
    components is ONE_SINK once every terminal is reached and no other
    component is flagged, since a reached terminal stranded off the
    frontier was ZERO_SINK already.
    """
    u_pos, v_pos, u_tinit, v_tinit, next_src, closing, width = step
    baset = list(state[width:])

    if u_pos >= 0:
        cu = state[u_pos]
    else:
        cu = len(baset)
        baset.append(u_tinit)
    if v_pos >= 0:
        cv = state[v_pos]
    else:
        cv = len(baset)
        baset.append(v_tinit)

    src = [
        state[s] if s >= 0 else (cu if s == -2 else cv)
        for s in next_src
    ]
    pack = state.__class__
    off = _finish(src, baset, -1, -1, pack)
    if cu == cv:
        # a cycle-closing edge changes nothing structural either way
        return off, off
    if closing and baset[cu] and baset[cv] and baset.count(True) == 2:
        return off, ONE_SINK
    baset[cu] = baset[cu] or baset[cv]
    return off, _finish(src, baset, cv, cu, pack)


# ---------------------------------------------------------------------------
# Deletion
# ---------------------------------------------------------------------------

def split_layer(nodes: list[Node], width: int) -> tuple[list[Node], list[Node]]:
    """Keep the ``width`` heaviest nodes; the rest are deleted.

    Ties keep the input order, which is the layer's creation order.
    """
    if len(nodes) <= width:
        return nodes, []
    ranked = sorted(nodes, key=lambda nd: nd.p, reverse=True)
    return ranked[:width], ranked[width:]


# ---------------------------------------------------------------------------
# Stratum sampling (over the order's undecided edges, MC draws stopping early)
# ---------------------------------------------------------------------------

def stratum_quotient(
    eo: EdgeOrder, layer: int, node: Node
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
    unreached = _unreached(eo, layer)
    joins, targets = _node_pass(eo.frontiers[layer], node.state, unreached)
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


def _unreached(eo: EdgeOrder, layer: int) -> tuple[int, ...]:
    """The terminals the order has not reached before ``layer``, ascending."""
    return tuple(x for x in eo.terminals.sorted() if eo.first[x] >= layer)


def _node_pass(
    frontier: Sequence[int],
    state: Sequence[int],
    unreached: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A node's union-find start over vertex ids, as (joins, targets).

    ``frontier`` is the layer's frontier and ``state`` the node's
    (:class:`Node`), component ids and then flags.  Each frontier vertex starts
    under the first frontier vertex of its component and every other vertex
    under itself, so every parent is a root: ``joins`` is (x1, r1, x2, r2,
    ...), the frontier vertices that are not first, each followed by its
    root.  The targets are one vertex per terminal-bearing component plus
    the ``unreached`` terminals.  Both are tuples of ints, which the
    collector stops tracking.
    """
    first: dict[int, int] = {}
    joins: list[int] = []
    for x, c in zip(frontier, state):  # the ids: zip stops at the flags
        root = first.setdefault(c, x)
        if root != x:
            joins += (x, root)
    targets = tuple([first[c] for c, tc in enumerate(state[len(frontier):]) if tc])
    return tuple(joins), targets + unreached


class Stratum:
    """One scheduled stratum: a group of same-layer nodes drawn as one.

    A flat, seed-free record that a build makes once and every sampling
    pass reads as it is.  ``layer`` and ``kind`` name the stratum's random
    stream; ``draws`` is its share of the budget and ``mass`` its absolute
    probability mass.  The nodes are kept as columns, no :class:`Node`
    object: ``ps`` their float masses, ``cum`` the running sums of ``ps``,
    ``states`` their states (:class:`Node`), shared with the build.

    ``edges`` is the order's edge table, ``n`` the vertex count,
    ``frontier`` the layer's frontier, ``unreached`` the terminals the order
    has not reached before ``layer``, and ``plan`` the order's checks after
    ``layer`` (:attr:`EdgeOrder.checks`), the end of the order last.  A pass
    slices the table at them into stretches, the first from ``layer``: a
    build of a deep instance would hold every stratum's suffix otherwise.
    ``starts``, made by the first pass, is (joins, targets, shared): node
    i's joins and targets from :func:`_node_pass` at i, None until a draw
    first picks node i and then kept, so later passes over a reused build
    find them.  Equal targets, which most nodes share, are kept once
    through ``shared``.
    """

    __slots__ = ("layer", "kind", "draws", "mass", "ps", "cum", "states",
                 "edges", "n", "frontier", "unreached", "plan", "starts")

    def __init__(
        self,
        eo: EdgeOrder,
        layer: int,
        kind: str,
        ps: tuple[float, ...],
        states: tuple[bytes | tuple[int, ...], ...],
        mass: float,
        draws: int,
    ) -> None:
        self.layer = layer
        self.kind = kind
        self.draws = draws
        self.mass = mass
        self.ps = ps
        self.cum = tuple(accumulate(ps))
        self.states = states
        self.edges = eo.edges
        self.n = len(eo.first)
        self.frontier = eo.frontiers[layer]
        self.unreached = _unreached(eo, layer)
        # the order's checks after ``layer``; the end of the order, the last
        # check, is in every plan
        checks = eo.checks
        self.plan = checks[
            bisect_right(checks, layer, 0, len(checks) - 1, key=itemgetter(0)):
        ]
        self.starts: Optional[tuple[list, list, dict]] = None


def sample_group_stratum(
    stratum: Stratum, *, seed: int = 0, want_outcomes: bool = False
) -> StratumDraw:
    """Sample a pooled group of same-layer nodes as one stratum.

    Each draw first picks a node with probability proportional to its mass
    (the group is one stratum; per-node masses are usually far too small to
    budget individually), found by bisecting ``stratum.cum``, then completes
    the node over the layer's undecided suffix.

    Every node draws the same edges: the whole suffix, cut at the checks of
    ``stratum.plan``.  A draw copies the identity over vertex ids and
    applies the node's joins from ``stratum.starts`` (made on the node's
    first pick), so each of its components is already joined.  It takes one
    ``random()`` per suffix edge, in order, joining the endpoints of every
    edge drawn; an edge inside one component joins nothing, so the draw
    connects what sampling :func:`stratum_quotient` would.  A draw
    succeeds when all its targets share one root.

    An MC draw finds its targets' roots at each check of the plan (see
    :class:`EdgeOrder`) and stops at the first that decides it: all targets
    share one root, or a target's component has no undecided edge left.
    The last check is the end of the suffix, so the roots found at the
    check that stops a draw are its verdict.  A draw that stops before the
    end passes the stream over the ``rest`` suffix edges it leaves with one
    ``getrandbits(64 * rest)``, which reads the same 32-bit words as
    ``rest`` calls of ``random()``.  Where the checks sit changes neither
    the verdict nor the words read, only how many are read one by one.

    So every MC draw reads the words of 1 + L ``random()`` calls, L the
    suffix length, and reaches the full pass's verdict.  Bit-sliced lanes
    (:func:`_draw_lanes`) read the same words in bulk and decide the full
    pass of each draw, so their successes and their stream's end state are
    those of the draw-by-draw loop (:func:`_draw_scalar`).  An MC stratum
    with at least L draws takes the lanes; one with fewer keeps the loop,
    whose early stops pay off on long suffixes.

    Every HT stratum takes the lanes, which also record each draw's outcome:
    keyed by the node's index and the suffix mask drawn, it has the node's
    mass share times the edge factors, multiplied in edge order as
    :func:`assignment_probability` does, as its probability.  The stratum
    draws from its own stream, named by its layer and kind: a layer has at
    most one ``"deleted"`` and one ``"resident"`` stratum.
    """
    st = stratum
    rng = rngmod.stream(seed, "layer", st.layer, st.kind)
    outcomes = [] if want_outcomes else None
    if want_outcomes or st.draws >= len(st.edges) - st.layer:
        successes = _draw_lanes(st, rng, outcomes)
    else:
        successes = _draw_scalar(st, rng)
    return StratumDraw(
        mass=st.mass, draws=st.draws, successes=successes, outcomes=outcomes
    )


def _start(st: Stratum, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Node i's (joins, targets), made on its first pick and kept in the record."""
    if st.starts is None:
        st.starts = ([None] * len(st.cum), [None] * len(st.cum), {})
    joins_of, targets_of, shared = st.starts
    joins = joins_of[i]
    if joins is None:
        joins, targets = _node_pass(st.frontier, st.states[i], st.unreached)
        joins_of[i] = joins
        targets_of[i] = targets = shared.setdefault(targets, targets)
        return joins, targets
    return joins, targets_of[i]


def _draw_scalar(st: Stratum, rng: random.Random) -> int:
    """Draw the stratum's MC draws one at a time; returns the successes.

    See :func:`sample_group_stratum`.
    """
    rnd = rng.random
    skip = rng.getrandbits
    cum = st.cum
    total = cum[-1]
    last = len(cum) - 1
    edges = st.edges
    segments = []
    lo = st.layer
    for hi, live, rest in st.plan:
        segments.append((edges[lo:hi], live, rest))
        lo = hi
    base = list(range(st.n))
    successes = 0
    for _ in range(st.draws):
        i = bisect_right(cum, rnd() * total)
        if i > last:
            i = last
        joins, targets = _start(st, i)
        parent = base[:]
        if joins:
            it = iter(joins)
            for x, root in zip(it, it):
                parent[x] = root
        for seg, live, rest in segments:
            for a, b, p, _ in seg:
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
            if rest:
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
        if len(roots) == 1:
            successes += 1
    return successes


_LANE_BYTES = 1 << 18  # stream bytes that one chunk of lanes reads, at most
_LOW45 = (1 << 45) - 1
_TWO_TO_53 = float(1 << 53)
_INV_TWO_TO_53 = 1.0 / _TWO_TO_53
# _BELOW[c] translates a byte to b"1" when it is below c, else to b"0" (p = 1: c = 256)
_BELOW = tuple(b"1" * c + b"0" * (256 - c) for c in range(257))


def _draw_lanes(
    st: Stratum, rng: random.Random, outcomes: Optional[list] = None
) -> int:
    """Draw the stratum as bit-sliced lanes; returns the successes.

    Draws go in chunks of W lanes, W sized so that a chunk reads at most
    ``_LANE_BYTES`` of stream.  A chunk reads, in one ``getrandbits``, the
    words that W draws of :func:`_draw_scalar` read: per draw, two for the
    node pick and two per suffix edge.  ``random()`` turns a word pair
    (w0, w1) into k / 2**53, k = (w0 >> 5) * 2**26 + (w1 >> 6), and
    ``random() < p`` holds iff k < ceil(p * 2**53), the edge's cut.

    An edge's W-bit lane mask compares each lane's top byte of w0, which is
    k's top byte, with the cut's; the lanes where the two tie, about one in
    256, are decided from k itself.  The picks decode as ``random()`` does
    and bisect ``st.cum``.  Connectivity is then reachability: each vertex
    holds the mask of lanes in which it is joined to the lane's first
    target, seeded there and relaxed over the edges and the picked nodes'
    joins, grouped per distinct join, until nothing changes.  A lane
    succeeds when every one of its targets is reached: the verdict of the
    full pass, which an early-stopped scalar draw reaches too.

    Given an ``outcomes`` list, the draws are HT draws: each chunk keeps its
    picks and edge masks, and appends per draw, in draw order, the record
    ``((i, mask), (ps[i] / total) * q, verdict)``.  Mask bit e is edge e's
    lane bit, and q multiplies p or 1 - p over the edges in order from 1.0.
    """
    keep = outcomes is not None
    suffix = st.edges[st.layer:]
    stride = 8 * (len(suffix) + 1)  # stream bytes per draw
    width = max(1, _LANE_BYTES // stride)
    edges = []
    for e, (a, b, p, _) in enumerate(suffix):
        # the edge's cut, and the offset of the top byte of its w0 in a
        # draw's block
        edges.append((a, b, ceil(p * _TWO_TO_53), stride - 12 - 8 * e))
    # HT only: each edge's factor by lane bit, for math.prod to take in order
    factors = [{"0": p_off, "1": p} for _, _, p, p_off in suffix] if keep else ()
    cum = st.cum
    total = cum[-1]
    last = len(cum) - 1
    successes = 0
    left = st.draws
    while left:
        w = min(width, left)
        left -= w
        # big-endian, the chunk's words run backward: block j of ``stride``
        # bytes is draw w - 1 - j, its word i at stride - 4 - 4 * i, so a
        # mask read from one byte per block has draw d at bit d
        buf = rng.getrandbits(8 * stride * w).to_bytes(stride * w, "big")
        full = (1 << w) - 1

        picked: list[int] = []  # HT only: block j's node at j
        if last:
            node_lanes: dict[int, int] = {}
            picks = Struct(">" + f"{stride - 8}xQ" * w).unpack(buf)
            for j, v in enumerate(picks):
                u = ((v & 0xFFFFFFFF) >> 5 << 26 | v >> 38) * _INV_TWO_TO_53
                i = bisect_right(cum, u * total)
                if i > last:
                    i = last
                node_lanes[i] = node_lanes.get(i, 0) | 1 << (w - 1 - j)
                if keep:
                    picked.append(i)
        else:
            node_lanes = {0: full}
            if keep:
                picked = [0] * w

        joined: dict[tuple[int, int], int] = {}
        by_targets: dict[tuple[int, ...], int] = {}
        for i, lanes in node_lanes.items():
            joins, targets = _start(st, i)
            it = iter(joins)
            for pair in zip(it, it):
                joined[pair] = joined.get(pair, 0) | lanes
            by_targets[targets] = by_targets.get(targets, 0) | lanes
        links = [(x, root, lanes) for (x, root), lanes in joined.items()]

        masks = []  # HT only: each edge's lanes
        for a, b, cut, off in edges:
            top = buf[off::stride]
            lanes = int(top.translate(_BELOW[cut >> 45]), 2)
            if cut & _LOW45:
                tie = cut >> 45
                j = top.find(tie)
                while j >= 0:
                    q = j * stride + off
                    v = int.from_bytes(buf[q - 4:q + 4], "big")
                    if ((v & 0xFFFFFFFF) >> 5 << 26 | v >> 38) < cut:
                        lanes |= 1 << (w - 1 - j)
                    j = top.find(tie, j + 1)
            if lanes:
                links.append((a, b, lanes))
            if keep:
                masks.append(lanes)
        del buf  # so that no two chunks' words are alive at once

        reach = [0] * st.n
        for targets, lanes in by_targets.items():
            reach[targets[0]] |= lanes
        changed = True
        while changed:
            changed = False
            for a, b, lanes in links:
                new = (reach[a] ^ reach[b]) & lanes
                if new:
                    reach[a] |= new
                    reach[b] |= new
                    changed = True
            links.reverse()
        wins = 0
        for targets, lanes in by_targets.items():
            for x in targets:
                lanes &= reach[x]
            wins |= lanes
        successes += wins.bit_count()

        if keep:
            # a row of verdicts, then one of bits per edge, each reversed so
            # that column d, read one at a time, is draw d's
            rows = [format(lanes, f"0{w}b")[::-1] for lanes in (wins, *masks)]
            for i, col in zip(reversed(picked), zip(*rows)):
                q = prod(map(getitem, factors, col[1:]), start=1.0)
                mask = int("".join(reversed(col)), 2) >> 1
                outcomes.append(((i, mask), (st.ps[i] / total) * q, col[0] == "1"))
    return successes


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

@dataclass
class BuildConfig:
    # None: unbounded (exact construction); 0: the root is deleted before
    # layer 1, so its one stratum draws every edge (plain sampling)
    width: Optional[int] = None
    samples: int = 0
    estimator: str = "mc"
    seed: int = 0
    precision: str = "double"  # or "exact"
    width_cap: Optional[int] = DEFAULT_WIDTH_CAP

    def __post_init__(self) -> None:
        if self.width is not None and self.width < 0:
            raise ValueError("width must be >= 0")
        if self.samples < 0:
            raise ValueError("sample count must be >= 0")
        if self.estimator not in ("mc", "ht"):
            raise ValueError("estimator must be 'mc' or 'ht'")
        if self.precision not in ("double", "exact"):
            raise ValueError("precision must be 'double' or 'exact'")
        if self.width_cap is not None and self.width_cap < 1:
            raise ValueError("width cap must be >= 1")


def expand_layer(
    nodes: list[Node],
    step: tuple,
    pe: Probability,
    p_c: KahanSum | FractionSum,
    p_d: KahanSum | FractionSum,
    table: Optional[dict] = None,
    record: Optional[dict] = None,
) -> tuple[list[Node], float]:
    """Decide one layer's edge for every node of the layer.

    Children that reach a sink add their mass to ``p_c`` or ``p_d``.  The
    rest merge by state (:class:`Node`): such children transition to the same
    sinks under every continuation, so their masses add without changing
    the bounds trajectory.  Returns the next layer, in creation order, and
    its total mass.

    ``step`` is the layer's, from :attr:`EdgeOrder.steps`, and ``table``
    maps a node's state to the (off, on) pair that :func:`_apply_both` gave
    it at a layer with the same step; a node found there is not recomputed.
    ``record``, when given, receives the pair of every node not found there,
    under the same key.  ``nodes`` is consumed: each parent is released as
    soon as it is expanded, so the two layers are never both resident in
    full.
    """
    pe_off = 1 - pe
    known = {}.get if table is None else table.get
    add_c, add_d = p_c.add, p_d.add
    nxt: dict[bytes | tuple, Node] = {}
    nxt_get = nxt.get
    resident_mass = 0.0
    nodes.reverse()
    pop = nodes.pop
    while nodes:
        nd = pop()
        state = nd.state
        both = known(state)
        if both is None:
            both = _apply_both(state, step)
            if record is not None:
                record[state] = both
        off, on = both
        np_ = nd.p
        # the off child first, as the sums' bits depend on the order of their
        # adds; leaving an edge out connects nothing, so off is never ONE_SINK
        mass = np_ * pe_off
        if off is ZERO_SINK:
            add_d(mass)
        else:
            kept = nxt_get(off)
            if kept is None:
                nxt[off] = Node(mass, off)
            else:
                kept.p = kept.p + mass
            resident_mass += mass
        mass = np_ * pe
        if on is ONE_SINK:
            add_c(mass)
        elif on is ZERO_SINK:
            add_d(mass)
        else:
            kept = nxt_get(on)
            if kept is None:
                nxt[on] = Node(mass, on)
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

    Layers with equal steps share transitions: the layers of a recurring
    step read and extend one table, made at its first occurrence.  The last
    occurrence only reads it and drops it, and a step that never recurs gets
    no table, since a table written there would only raise the build's peak
    memory.  So each state's transitions are computed once per step, and no
    table outlives the build.

    Once some layer has been split, the build stops after the first layer
    whose resident nodes either meet the budget when sampled or hold less
    mass than one requested draw stands for (``s * mass < 1``); they become
    a last ``"resident"`` stratum, which in the second case gets no draws
    and leaves its mass unsampled.  A build that never splits, the exact
    route's included, expands every layer.
    """
    # a miss: drop the previous build now, so at most one is alive at a time
    # (this also zeroes the cache_info() counts)
    _build.cache_clear()
    exact = precision == "exact"
    eo = order_edges(g, terminals)
    probs = g.prob_values(exact)
    s = samples

    mass_sum, one = (FractionSum, Fraction(1)) if exact else (KahanSum, 1.0)
    p_c = mass_sum()
    p_d = mass_sum()
    # one packing per build, fixed by the order's widest frontier
    root = b"" if eo.max_frontier <= _BYTE_FRONTIER else ()
    layer_nodes: list[Node] = [Node(one, root)]
    strata: list[Stratum] = []
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
        the request; a group with no draws leaves its mass unsampled.
        """
        nonlocal drawn
        draws = min(int(s_prime * mass), s - drawn)
        if draws == 0:
            if mass > 0:
                unsampled_mass.add(mass)
            return 0
        strata.append(Stratum(
            eo, layer, kind,
            tuple(float(nd.p) for nd in nodes),
            tuple(nd.state for nd in nodes),
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

    if width == 0:
        # the root is deleted before layer 1: one stratum of mass 1 draws
        # every edge, and no layer is expanded
        add_stratum(layer_nodes, 1.0, 0, "deleted")
        layer_nodes = []
    steps = () if width == 0 else eo.steps
    recurrences = Counter(steps)
    tables: dict[tuple, dict] = {}
    for layer, step in enumerate(steps):
        recurrences[step] -= 1
        if recurrences[step]:
            table = record = tables.setdefault(step, {})
        else:
            table, record = tables.pop(step, None), None
        layer_nodes, resident_mass = expand_layer(
            layer_nodes, step, probs[eo.order[layer]], p_c, p_d, table, record,
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
            layer_nodes, deleted = split_layer(layer_nodes, width)
            deleted_mass = mass_of(deleted)
            samples_layer = add_stratum(deleted, deleted_mass, layer + 1, "deleted")
            del deleted
            resident_mass = mass_of(layer_nodes)
        rows.append(
            row(layer + 1, len(layer_nodes), deleted_mass, samples_layer, resident_mass)
        )

        if not layer_nodes:
            break

        # Once some layer has been split, stop when sampling the resident
        # nodes meets the budget, or when they hold less mass than one
        # requested draw stands for (1/s): the budget never grows, so no
        # descendant of theirs could earn a draw, and their stratum gets
        # none, leaving its mass unsampled.
        budget_met = drawn > 0 and drawn + int(s_prime * resident_mass) >= s_prime
        too_light = (
            s > 0 and s * resident_mass < 1
            and (drawn > 0 or unsampled_mass.value > 0)
        )
        if budget_met or too_light:
            batch = add_stratum(layer_nodes, resident_mass, layer + 1, "resident")
            rows.append(row(layer + 1, 0, resident_mass, batch, 0.0))
            layer_nodes = []
            break

    # nodes are left only when the graph has no edges, so the terminals
    # cannot connect
    for nd in layer_nodes:
        p_d.add(nd.p)
    return _Build(
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
    and leftover nodes are sampled over the undecided suffix.  A split build
    stops once its resident nodes cannot earn a draw (less than ``1/s`` of
    mass), and their mass is reported as unsampled.  The most recent build
    is reused when only the seed or the estimator changes.
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
    is_exact = bounds.undecided <= 1e-12 and not strata
    if is_exact:
        estimate, variance = bounds.p_c, 0.0
    else:
        estimate, variance = combine_strata(
            config.estimator, strata, bounds, build.residual
        )

    report = EstimateReport(
        estimate=float(estimate),
        bounds=bounds,
        s=config.samples,
        s_reduced=build.reduced,
        samples_used=build.drawn,
        variance=variance,
        estimator=config.estimator,
        exact=is_exact,
        unsampled_mass=build.residual,
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
    width_cap: int = DEFAULT_WIDTH_CAP,
    precision: str = "double",
) -> Probability:
    """Exact reliability of the whole graph via the unbounded construction.

    No preprocessing: this is :func:`construct` with no width and no draws.
    Fails with :class:`WidthCapExceeded` when any layer outgrows the cap.
    """
    rep = construct(
        g, terminals, BuildConfig(width=None, precision=precision, width_cap=width_cap)
    )
    if not rep.exact:
        raise GraphInvariantError(
            f"construction left {rep.bounds.undecided} mass undecided in exact run"
        )
    return Fraction(rep.raw["estimate"]) if precision == "exact" else rep.estimate
