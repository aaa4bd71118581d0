import gc
import json
import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest

from relnet.diagram import (
    ONE_SINK,
    ZERO_SINK,
    BuildConfig,
    EdgeOrder,
    Node,
    Stratum,
    WidthCapExceeded,
    _apply_both,
    _build,
    construct,
    exact_reliability,
    expand_layer,
    order_edges,
    sample_group_stratum,
    split_layer,
    stratum_quotient,
)
from relnet import diagram, rng as rngmod
from relnet.estimators import (
    Bounds,
    StratumDraw,
    combine_strata,
    reduced_sample_count,
)
from relnet.exact import brute_force_reliability
from relnet.graph import (
    TerminalSet,
    UncertainGraph,
    assignment_probability,
    parse_graph,
    sample_possible_graph,
    terminals_connected,
)
from relnet.generate import (
    grid_graph,
    preferential_graph,
    random_connected_graph,
    random_terminals,
    tree_rich_graph,
)
from relnet.numerics import KahanSum
from relnet.pipeline import estimate_pipeline
from conftest import naive_reliability, small_case


def path_graph(k=3, p=0.5):
    return parse_graph("\n".join(f"{i} {i + 1} {p}" for i in range(k)))


class TestOrderEdges:
    def test_path_order_and_frontier(self):
        g = path_graph(5)
        eo = order_edges(g, TerminalSet.of([0, 5]))
        assert list(eo.order) == [0, 1, 2, 3, 4]
        assert eo.max_frontier == 1

    def test_star_frontier_is_center(self):
        g = parse_graph("0 1 0.5\n0 2 0.5\n0 3 0.5\n0 4 0.5")
        eo = order_edges(g, TerminalSet.of([1, 4]))
        for l in range(1, g.m):
            assert eo.frontiers[l] == (0,)

    def test_every_edge_once(self):
        for seed in range(10):
            g, t = small_case(seed)
            eo = order_edges(g, t)
            assert sorted(eo.order) == list(range(g.m))

    def test_karate_frontier_below_vertex_count(self, karate_graph):
        eo = order_edges(karate_graph, TerminalSet.of([0, 33]))
        assert 0 < eo.max_frontier < karate_graph.n

    def test_frontier_profile_on_known_graph(self):
        # after the first two edges only b and c touch decided and undecided
        g = parse_graph(
            "0 1 0.5\n0 2 0.5\n1 2 0.5\n1 3 0.5\n2 3 0.5\n3 4 0.5"
        )
        eo = order_edges(g, TerminalSet.of([0, 4]))
        assert list(eo.order) == [0, 1, 2, 3, 4, 5]
        assert eo.frontiers[2] == (1, 2)

    def test_fields_match_the_definition(self, karate_graph):
        from relnet.reduction import preprocess

        cases = [small_case(seed) for seed in range(60)]
        cases.append((karate_graph, TerminalSet.of([0, 33])))
        cases.append((grid_graph(40, 40, seed=0), TerminalSet.of([0, 1599])))
        # the strip's part is long enough for checks before its end, which
        # karate and the grid above have none of
        strip = grid_graph(6, 100, seed=0)
        (part,) = preprocess(strip, TerminalSet.of([0, 350, 599])).parts
        cases.append(part)
        edgeless = (UncertainGraph(2, (), ()), TerminalSet.of([0, 1]))
        cases.append(edgeless)
        pref = preferential_graph(60, 2, seed=3)
        cases.append((pref, TerminalSet.of([0, 17, 33, 51])))
        # terminal 25 enters at the path's one check, layer 24, so it is live
        cases.append((path_graph(60), TerminalSet.of([0, 25, 60])))
        inner_checks = 0
        for g, t in cases:
            eo = order_edges(g, t)
            assert sorted(eo.order) == list(range(g.m))
            assert eo == _edge_order_by_definition(g, t, eo.order)
            inner_checks += len(eo.checks) - 1
        assert inner_checks > 10
        assert order_edges(*edgeless).steps == ()

    def test_equal_steps_share_one_tuple(self):
        g, t = TestTransitionTables.STRIP
        steps = order_edges(g, t).steps
        assert len({id(step) for step in steps}) == len(set(steps)) < g.m / 5


def _edge_order_by_definition(g, t, order):
    """EdgeOrder fields derived from ``order`` straight from their definitions."""
    m = g.m
    positions = {j: pos for pos, j in enumerate(order)}
    inc_pos = [sorted(positions[j] for j in g.incident(v)) for v in range(g.n)]
    first = [p[0] if p else m for p in inc_pos]
    last = [p[-1] if p else -1 for p in inc_pos]
    frontiers = tuple(
        tuple(v for v in range(g.n) if first[v] < l <= last[v])
        for l in range(m + 1)
    )

    def unreached(pos):
        return tuple(x for x in sorted(t.vertices) if first[x] >= pos)

    steps = []
    for layer, j in enumerate(order):
        u, v = g.edges[j]
        old, new = frontiers[layer], frontiers[layer + 1]
        steps.append((
            old.index(u) if u in old else -1,
            old.index(v) if v in old else -1,
            u in t.vertices,
            v in t.vertices,
            tuple(-2 if x == u else -3 if x == v else old.index(x) for x in new),
            not unreached(layer + 1),
            len(old),
        ))
    # a check CHECK_SPACING * (k + frontier width) edges after the previous
    # one, while the stretch after it is as long; then the end of the order
    checks = []
    pos = 0
    gap = diagram.CHECK_SPACING * (t.k + len(frontiers[pos]))
    while pos + 2 * gap <= m:
        pos += gap
        checks.append((pos, frontiers[pos] + unreached(pos), m - pos))
        gap = diagram.CHECK_SPACING * (t.k + len(frontiers[pos]))
    checks.append((m, (), 0))
    return EdgeOrder(
        order=tuple(order),
        edges=tuple((*g.edges[j], g.probs[j], 1 - g.probs[j]) for j in order),
        first=tuple(first),
        frontiers=frontiers,
        terminals=t,
        steps=tuple(steps),
        checks=tuple(checks),
    )


ROOT = Node(1.0, b"")


def _state(comp, t):
    """A node state: component ids, then per component its terminal flag."""
    return bytes(comp) + bytes(t)


def _stratum(eo, layer, kind, nodes, mass, draws):
    """The sampler's record of ``nodes``, as a build makes it."""
    return Stratum(
        eo, layer, kind,
        tuple(float(nd.p) for nd in nodes),
        tuple(nd.state for nd in nodes),
        mass, draws,
    )


def _nodes(st):
    """The nodes of a stratum record, with their float masses."""
    return [Node(p, state) for p, state in zip(st.ps, st.states)]


def _both(g, t, layer, node):
    """(off, on) results of the real transition at one layer."""
    return _apply_both(node.state, order_edges(g, t).steps[layer])


def _child(res):
    """A node for a non-sink transition result (its mass is not tracked)."""
    return Node(1.0, res)


def _expand(g, t, layer, nodes):
    """One real construction step: (next layer, p_c, p_d)."""
    p_c, p_d = KahanSum(), KahanSum()
    eo = order_edges(g, t)
    pe = g.probs[eo.order[layer]]
    nxt, _ = expand_layer(nodes, eo.steps[layer], pe, p_c, p_d)
    return nxt, p_c.value, p_d.value


class TestTransitions:
    def test_joining_edge_hits_one_sink(self):
        g = parse_graph("0 1 0.7")
        t = TerminalSet.of([0, 1])
        _off, on = _both(g, t, 0, ROOT)
        assert on is ONE_SINK
        nxt, p_c, p_d = _expand(g, t, 0, [ROOT])
        assert nxt == []
        assert p_c == pytest.approx(0.7)

    def test_missing_sole_edge_hits_zero_sink(self):
        g = parse_graph("0 1 0.7")
        t = TerminalSet.of([0, 1])
        off, _on = _both(g, t, 0, ROOT)
        assert off is ZERO_SINK
        _nxt, _p_c, p_d = _expand(g, t, 0, [ROOT])
        assert p_d == pytest.approx(0.3)

    def test_component_out_of_undecided_edges_sinks(self):
        # path 0-1-2, terminals {0,2}: take e0, drop e1
        g = path_graph(2)
        t = TerminalSet.of([0, 2])
        nxt, _p_c, p_d = _expand(g, t, 0, [ROOT])
        assert len(nxt) == 1
        assert nxt[0].p == pytest.approx(0.5)
        assert p_d == pytest.approx(0.5)  # dropping e0 strands terminal 0
        off, _on = _both(g, t, 1, nxt[0])
        assert off is ZERO_SINK

    def test_child_attributes_on_triangle(self):
        g = parse_graph("0 1 0.5\n0 2 0.5\n1 2 0.5")
        t = TerminalSet.of([0, 1, 2])
        split, both_in = _both(g, t, 0, ROOT)
        assert both_in == _state((0, 0), (True,))
        assert split == _state((0, 1), (True, True))

    def test_not_connected_when_no_terminals_gathered(self):
        g = path_graph(3)
        t = TerminalSet.of([0, 3])
        _off, on = _both(g, t, 0, ROOT)
        assert on is not ONE_SINK

    def test_nodes_carry_attributes_for_their_layer_frontier(self):
        for seed in (0, 4, 6):
            g, t = small_case(seed, max_edges=9)
            eo = order_edges(g, t)
            nodes = [ROOT]
            for layer in range(g.m):
                # the ids cover the frontier, one flag follows per component
                width = len(eo.frontiers[layer])
                assert all(len(nd.state) == width + len(set(nd.state[:width]))
                           for nd in nodes)
                nodes, _, _ = _expand(g, t, layer, nodes)
            assert nodes == []

    def test_sink_verdicts_sound_against_enumeration(self):
        # every sink produced anywhere in the prefix tree must agree with a
        # brute-force check over all completions of that prefix, and ONE_SINK
        # is complete: a child left in the diagram has some completion that
        # does not connect.  ZERO_SINK is not complete (a stranded terminal
        # component is seen only once it leaves the frontier), so a child may
        # connect under no completion.
        cases = [small_case(seed, max_edges=8) for seed in (0, 1, 2, 5)]
        cases += [small_case(seed, max_edges=9) for seed in range(40)]
        children = 0
        for g, t in cases:
            eo = order_edges(g, t)
            stack = [(0, ROOT, [])]
            while stack:
                layer, node, prefix = stack.pop()
                results = _both(g, t, layer, node)
                for existent, res in zip((False, True), results):
                    states = prefix + [existent]
                    all_conn, none_conn = _completion_profile(g, eo, t, states)
                    if res is ONE_SINK:
                        assert all_conn
                    elif res is ZERO_SINK:
                        assert none_conn
                    else:
                        assert not all_conn
                        children += 1
                        stack.append((layer + 1, _child(res), states))
        assert children > 1000


def _completion_mask(eo, decided, rest_mask):
    """Edge mask of the possible graph that takes the decided prefix (by
    layer) and then bit i of ``rest_mask`` for the i-th undecided layer."""
    mask = 0
    for pos, on in enumerate(decided):
        if on:
            mask |= 1 << eo.order[pos]
    for bit in range(len(eo.order) - len(decided)):
        if rest_mask >> bit & 1:
            mask |= 1 << eo.order[len(decided) + bit]
    return mask


def _completion_profile(g, eo, t, decided):
    """(all connected?, none connected?) over completions of a prefix."""
    seen_conn = False
    seen_disc = False
    for rest_mask in range(1 << (g.m - len(decided))):
        if terminals_connected(g, _completion_mask(eo, decided, rest_mask), t):
            seen_conn = True
        else:
            seen_disc = True
        if seen_conn and seen_disc:
            break
    return (not seen_disc, not seen_conn)


class TestMerge:
    # layer 2 of a 2x3 grid decides edge 1-2 over the frontier (1, 3); both
    # stay on the next frontier (1, 2, 3) and vertex 2 enters with no terminal
    GRID = "0 1 0.5\n1 2 0.5\n0 3 0.5\n1 4 0.5\n2 5 0.5\n3 4 0.5\n4 5 0.5"
    TERMS = (0, 4, 5)

    def _layer(self, *nodes):
        return _expand(parse_graph(self.GRID), TerminalSet.of(self.TERMS), 2, list(nodes))

    def test_equal_sign_patterns_merge(self):
        a = Node(0.25, _state((0, 1), (True, False)))
        b = Node(0.5, _state((0, 1), (True, False)))
        nxt, p_c, p_d = self._layer(a, b)
        assert p_c == p_d == 0.0
        assert [nd.state for nd in nxt] == [
            _state((0, 1, 2), (True, False, False)), _state((0, 0, 1), (True, False))
        ]
        assert [nd.p for nd in nxt] == pytest.approx([0.375, 0.375])

    def test_different_sign_patterns_stay_apart(self):
        a = Node(0.25, _state((0, 1), (True, False)))
        b = Node(0.5, _state((0, 1), (False, True)))
        nxt, _, _ = self._layer(a, b)
        assert len(nxt) == 4

    def test_different_component_patterns_stay_apart(self):
        a = Node(0.25, _state((0, 0), (True,)))
        b = Node(0.5, _state((0, 1), (True, True)))
        nxt, _, _ = self._layer(a, b)
        assert len(nxt) == 4

    def test_layer_is_transitions_grouped_by_pattern(self):
        # expand_layer keeps exactly one node per state of the
        # transitions' children, carrying their summed mass
        for seed in range(15):
            g, t = small_case(seed, max_edges=10)
            eo = order_edges(g, t)
            nodes = [ROOT]
            for layer in range(g.m):
                expected: dict = {}
                for nd in nodes:
                    pe = g.probs[eo.order[layer]]
                    for res, mass in zip(_both(g, t, layer, nd),
                                         (nd.p * (1 - pe), nd.p * pe)):
                        if res is not ONE_SINK and res is not ZERO_SINK:
                            expected[res] = expected.get(res, 0.0) + mass
                nodes, _, _ = _expand(g, t, layer, nodes)
                got = {nd.state: nd.p for nd in nodes}
                assert got.keys() == expected.keys()
                for key, mass in expected.items():
                    assert got[key] == pytest.approx(mass, abs=1e-15)


class TestTransitionTables:
    # a 6x40 strip: its BFS order repeats most step signatures a column later
    STRIP = (grid_graph(6, 40, seed=0), TerminalSet.of([0, 119, 239]))

    def test_a_hit_returns_what_apply_both_returns(self, monkeypatch):
        g, t = self.STRIP
        layer = 40
        nodes = [ROOT]
        for done in range(layer):
            nodes, _, _ = _expand(g, t, done, nodes)
        eo = order_edges(g, t)
        sig = eo.steps[layer]

        def expand(table, record):
            p_c, p_d = KahanSum(), KahanSum()
            fresh = [Node(nd.p, nd.state) for nd in nodes]
            nxt, mass = expand_layer(
                fresh, sig, g.probs[eo.order[layer]], p_c, p_d, table, record
            )
            assert not fresh  # every parent is released
            return ([(nd.p.hex(), nd.state) for nd in nxt], mass.hex(),
                    p_c.value.hex(), p_d.value.hex())

        table: dict = {}
        computed = expand(None, table)
        assert len(table) == len(nodes) > 50
        assert computed[3] != (0.0).hex()  # some children reach a sink

        def no_transition(*args):
            raise AssertionError("a table hit recomputed a transition")

        monkeypatch.setattr(diagram, "_apply_both", no_transition)
        assert expand(table, None) == computed

    def test_build_computes_few_transitions(self, monkeypatch):
        g, t = self.STRIP
        counts = {"computed": 0, "expanded": 0}
        real_apply, real_expand = diagram._apply_both, diagram.expand_layer

        def apply_both(*args):
            counts["computed"] += 1
            return real_apply(*args)

        def expand(nodes, *args):
            counts["expanded"] += len(nodes)
            return real_expand(nodes, *args)

        monkeypatch.setattr(diagram, "_apply_both", apply_both)
        monkeypatch.setattr(diagram, "expand_layer", expand)
        _build.cache_clear()
        _build(g, t, 100, 10000, "double", None)
        _build.cache_clear()
        assert counts["expanded"] > 10000
        assert counts["computed"] <= 0.3 * counts["expanded"]

    @pytest.mark.parametrize("width", [100, 1000])
    def test_each_state_computed_once_per_signature(self, monkeypatch, width):
        # one table serves every layer of a recurring step, and the
        # structure keeps it: a state computed at a layer that writes is
        # never computed again, at a later layer or by a later build of the
        # strip with other probabilities.  Only a layer that reads alone, a
        # step's last occurrence or a step that occurs once, computes a state
        # again, at most once per build
        g, t = self.STRIP
        other = grid_graph(6, 40, seed=1)
        assert other.edges == g.edges and other.probs != g.probs
        writes = [False]
        calls: dict[tuple, list[bool]] = {}
        real_apply, real_expand = diagram._apply_both, diagram.expand_layer

        def apply_both(state, sig):
            calls.setdefault((sig, state), []).append(writes[0])
            return real_apply(state, sig)

        def expand(nodes, sig, pe, p_c, p_d, table, record):
            writes[0] = record is not None
            return real_expand(nodes, sig, pe, p_c, p_d, table, record)

        monkeypatch.setattr(diagram, "_apply_both", apply_both)
        monkeypatch.setattr(diagram, "expand_layer", expand)
        _build.cache_clear()
        diagram._structure.cache_clear()
        _build(g, t, width, 10000, "double", None)
        first = sum(map(len, calls.values()))
        _build(other, t, width, 10000, "double", None)
        _build.cache_clear()
        second = sum(map(len, calls.values())) - first
        assert first > 4000
        assert 0 < second < first / 2
        assert max(map(len, calls.values())) <= 2
        assert not any(True in flags[:-1] for flags in calls.values())

    def test_only_recurring_occurrences_write(self, monkeypatch, karate_graph):
        # a signature's last occurrence reads its table and writes nothing,
        # and a signature that never recurs gets no table: a table written
        # there would only grow a build's peak memory
        cases = [
            (*self.STRIP, None),  # unbounded: every layer is expanded
            (karate_graph, random_terminals(karate_graph, 5, seed=7), 100),
        ]
        real_expand = diagram.expand_layer
        for g, t, width in cases:
            seen = []

            def expand(nodes, sig, pe, p_c, p_d, table, record):
                seen.append((sig, table, record))
                return real_expand(nodes, sig, pe, p_c, p_d, table, record)

            monkeypatch.setattr(diagram, "expand_layer", expand)
            _build.cache_clear()
            _build(g, t, width, 10000, "double", None)
            _build.cache_clear()
            eo = order_edges(g, t)
            sigs = list(eo.steps)
            last = {sig: layer for layer, sig in enumerate(sigs)}
            assert [sig for sig, _, _ in seen] == sigs[:len(seen)]
            assert width is not None or len(seen) == g.m
            tables = {}
            for layer, (sig, table, record) in enumerate(seen):
                if layer == last[sig]:
                    assert record is None
                    assert table is tables.get(sig)
                else:
                    assert record is not None and record is table
                    assert tables.setdefault(sig, table) is table

    def test_no_table_outlives_its_structure(self):
        # the strip's tables stay with its structure after its build returns,
        # until a build of another structure replaces them
        g, t = self.STRIP
        small = path_graph(3), TerminalSet.of([0, 3])
        _build(*small, 100, 10000, "double", None)
        _build.cache_clear()
        gc.collect()
        before = len(gc.get_objects())
        _build(g, t, 100, 10000, "double", None)
        _build.cache_clear()
        kept = {id(tb): tb for tb in diagram._structure(g.n, g.edges, t).tables if tb}
        assert sum(map(len, kept.values())) > 1000
        del kept
        _build(*small, 100, 10000, "double", None)
        _build.cache_clear()
        gc.collect()
        assert abs(len(gc.get_objects()) - before) <= 20


class TestStructureReuse:
    """A kept structure and its tables change no build, only its cost."""

    T = TerminalSet.of([0, 350, 599])

    @staticmethod
    def _clear():
        from relnet.pipeline import _decomposition

        _decomposition.cache_clear()
        _build.cache_clear()
        diagram._structure.cache_clear()

    def test_builds_in_sequence_equal_fresh_builds(self, monkeypatch):
        # the strips' parts share one structure and differ in probabilities
        from relnet.reduction import preprocess

        parts = [
            preprocess(grid_graph(6, 100, seed=seed), self.T).parts[0]
            for seed in range(4)
        ]
        assert len({(pg.edges, pt) for pg, pt in parts}) == 1
        computed = [0]
        real_apply = diagram._apply_both

        def apply_both(*args):
            computed[0] += 1
            return real_apply(*args)

        monkeypatch.setattr(diagram, "_apply_both", apply_both)

        def build(part):
            computed[0] = 0
            fields = _build_fields(_build(*part, 100, 10_000, "double", None))
            return fields, computed[0]

        self._clear()
        in_sequence = [build(part) for part in parts]
        fresh = []
        for part in parts:
            self._clear()
            fresh.append(build(part))
        self._clear()
        assert [f for f, _ in in_sequence] == [f for f, _ in fresh]
        assert in_sequence[0][1] == fresh[0][1]
        for (_, warm), (_, cold) in zip(in_sequence[1:], fresh[1:]):
            assert warm < cold / 2

    def test_equal_structure_other_probabilities(self):
        g, t = TestTransitionTables.STRIP
        other = grid_graph(6, 40, seed=1)
        diagram._structure.cache_clear()
        kept = order_edges(g, t)
        reused = order_edges(other, t)
        diagram._structure.cache_clear()
        fresh = order_edges(other, t)
        diagram._structure.cache_clear()
        assert reused.order is kept.order and reused.steps is kept.steps
        assert reused == fresh
        assert reused.edges == fresh.edges != kept.edges

    def test_exact_fraction_after_a_double_build(self, monkeypatch, karate_graph):
        # the exact build of karate's part reads the tables that a width-100
        # double build of the same part wrote, and gets the same Fraction
        from relnet.pipeline import exact_pipeline

        t = TerminalSet.of([6, 7, 9, 18, 27])
        computed = [0]
        real_apply = diagram._apply_both

        def apply_both(*args):
            computed[0] += 1
            return real_apply(*args)

        monkeypatch.setattr(diagram, "_apply_both", apply_both)
        self._clear()
        first = exact_pipeline(karate_graph, t, precision="exact")
        cold = computed[0]
        self._clear()
        estimate_pipeline(karate_graph, t, s=10_000, w=100)
        computed[0] = 0
        after = exact_pipeline(karate_graph, t, precision="exact")
        warm = computed[0]
        self._clear()
        assert after == first
        assert float(first) == 0.6340727820325954
        assert warm < cold


def _complete_bipartite_2(n, p0, p1):
    """K_{2,n}: hubs 0 and 1, spokes from 0 at ``p0`` and from 1 at ``p1``."""
    spokes = range(2, n + 2)
    return UncertainGraph(
        n=n + 2,
        edges=tuple([(0, x) for x in spokes] + [(1, x) for x in spokes]),
        probs=(p0,) * n + (p1,) * n,
    )


def _build_fields(build):
    """Every field of a build, each stratum's slots included, states as tuples."""
    strata = [
        {name: getattr(st, name) for name in Stratum.__slots__ if name != "states"}
        | {"states": [tuple(state) for state in st.states]}
        for st in build.strata
    ]
    return {
        name: getattr(build, name) for name in build.__dataclass_fields__
    } | {"strata": strata}


class TestStatePacking:
    """A state is bytes while every id fits one byte, else the same tuple."""

    def test_wide_frontier_packs_tuples(self):
        # BFS from hub 0 puts all 300 spokes on the frontier, whose ids a
        # byte cannot hold; the report is the one the nested-tuple state gave
        g, t = _complete_bipartite_2(300, 0.001, 0.5), TerminalSet.of([0, 1])
        assert order_edges(g, t).max_frontier > diagram._BYTE_FRONTIER
        _build.cache_clear()
        res = estimate_pipeline(g, t, s=2000, w=4, seed=0, use_preprocess=False)
        build = _build(g, t, 4, 2000, "double", diagram.DEFAULT_WIDTH_CAP)
        _build.cache_clear()
        assert build.strata and all(
            type(state) is tuple for st in build.strata for state in st.states
        )
        assert res.estimate == 0.13056363002986734
        assert res.p_c == 0.0014828969612734743
        assert 1.0 - res.p_d == 0.25781007088262686
        r = 1 - (1 - 0.001 * 0.5) ** 300
        assert res.p_c <= r <= 1.0 - res.p_d

    def test_tuple_packing_builds_what_bytes_packing_builds(
        self, monkeypatch, karate_graph
    ):
        cases = [(*small_case(seed), w, 200) for seed in range(60) for w in (1, 2, 4, 16)]
        cases.append((karate_graph, random_terminals(karate_graph, 5, seed=7), 100, 10000))

        def builds():
            out = []
            for g, t, w, s in cases:
                _build.cache_clear()
                build = _build(g, t, w, s, "double", None)
                # a sampling pass makes the start states, kept in the records
                draws = [sample_group_stratum(st, seed=1).successes for st in build.strata]
                out.append((build, _build_fields(build), draws))
            _build.cache_clear()
            return out

        packed = builds()
        monkeypatch.setattr(diagram, "_BYTE_FRONTIER", -1)
        tupled = builds()
        types = Counter()
        for (b_build, b_fields, b_draws), (t_build, t_fields, t_draws) in zip(packed, tupled):
            assert t_fields == b_fields
            assert t_draws == b_draws
            for build, kind in ((b_build, bytes), (t_build, tuple)):
                for st in build.strata:
                    assert all(type(state) is kind for state in st.states)
                    types[kind] += len(st.states)
        assert types[bytes] == types[tuple] > 1000


class TestSplitLayer:
    def test_keeps_the_heaviest(self):
        nodes = [Node(p, _state((0,), (True,))) for p in (0.1, 0.5, 0.3)]
        survivors, deleted = split_layer(nodes, 2)
        assert [nd.p for nd in survivors] == [0.5, 0.3]
        assert [nd.p for nd in deleted] == [0.1]

    def test_ties_keep_input_order(self):
        nodes = [Node(0.5, _state((0,), (True,))) for _ in range(4)]
        survivors, deleted = split_layer(nodes, 2)
        assert survivors == nodes[:2] and deleted == nodes[2:]

    def test_noop_when_under_width(self):
        nodes = [Node(0.5, _state((0,), (True,)))]
        survivors, deleted = split_layer(nodes, 5)
        assert survivors == nodes and deleted == []

    def test_no_deleted_node_outweighs_a_kept_node(self, karate_graph, monkeypatch):
        # every real split of a build, copied because expanding the next
        # layer releases the kept nodes; among nodes as heavy as the lightest
        # kept one, those kept come first in creation order
        splits = []

        def recording(nodes, width):
            kept, deleted = split_layer(nodes, width)
            splits.append((list(nodes), list(kept), list(deleted)))
            return kept, deleted

        monkeypatch.setattr(diagram, "split_layer", recording)
        cases = [(*small_case(seed), 2, 200) for seed in range(60)]
        cases.append((karate_graph, TerminalSet.of([6, 7, 9, 18, 27]), 100, 10000))
        # equal edge probabilities make equal masses, so some split cuts a tie
        grid = grid_graph(4, 8)
        uniform = UncertainGraph(n=grid.n, edges=grid.edges, probs=(0.9,) * grid.m)
        cases.append((uniform, TerminalSet.of([0, 13, 31]), 4, 1000))
        _build.cache_clear()
        for g, t, w, s in cases:
            _build(g, t, w, s, "double", None)
        _build.cache_clear()
        assert len(splits) > 100
        cut_ties = 0
        for nodes, kept, deleted in splits:
            assert len(kept) + len(deleted) == len(nodes) and deleted
            floor = min(nd.p for nd in kept)
            assert max(nd.p for nd in deleted) <= floor
            kept_ids = {id(nd) for nd in kept}
            ties = [id(nd) in kept_ids for nd in nodes if nd.p == floor]
            assert ties == sorted(ties, reverse=True)
            cut_ties += not all(ties)
        assert cut_ties > 0


class TestDeleteAndSample:
    def _layer(self, seed):
        g, t = small_case(seed, max_edges=10)
        eo = order_edges(g, t)
        nodes = [ROOT]
        layer = 0
        while len(nodes) < 4 and layer < g.m - 1:
            nodes, _, _ = _expand(g, t, layer, nodes)
            layer += 1
        return g, eo, t, nodes, layer

    def test_under_width_is_noop(self):
        _g, _eo, _t, nodes, _layer = self._layer(6)
        survivors, deleted = split_layer(nodes, len(nodes))
        assert survivors == nodes
        assert deleted == []

    def test_deleted_nodes_become_a_stratum(self):
        g, eo, t, nodes, layer = self._layer(6)
        assert len(nodes) >= 2
        survivors, deleted = split_layer(nodes, 1)
        mass = sum(float(nd.p) for nd in deleted)
        stratum = sample_group_stratum(
            _stratum(eo, layer, "deleted", deleted, mass, 30), seed=0
        )
        assert len(survivors) == 1
        assert stratum.draws == 30
        assert 0 <= stratum.successes <= 30
        assert stratum.mass == mass
        assert mass == pytest.approx(sum(float(n.p) for n in nodes)
                                     - float(survivors[0].p))

    def test_zero_budget_reports_mass_only(self):
        g, t = small_case(6, max_edges=10)
        rep = construct(g, t, BuildConfig(width=1, samples=0))
        assert rep.unsampled_mass > 0.0
        assert rep.samples_used == 0


class TestStratumQuotient:
    def test_quotient_reliability_matches_prefix_conditional(self):
        for seed in (1, 3, 4, 8, 11):
            g, t = small_case(seed, max_edges=9)
            eo = order_edges(g, t)
            # walk a fixed prefix, skipping states that sink
            node, layer, decided = ROOT, 0, []
            while layer < g.m - 2:
                advanced = False
                results = _both(g, t, layer, node)
                for existent in (bool(seed % 2), not bool(seed % 2)):
                    res = results[existent]
                    if res is not ONE_SINK and res is not ZERO_SINK:
                        node, layer = _child(res), layer + 1
                        decided.append(existent)
                        advanced = True
                        break
                if not advanced:
                    break
            if layer == 0:
                continue
            quotient, qterms = stratum_quotient(eo, layer, node)
            got = brute_force_reliability(quotient, qterms).reliability
            expected = _conditional_reliability(g, eo, t, decided)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_root_quotient_has_the_graphs_reliability(self):
        # the plain baseline samples the root's quotient in place of the graph
        for seed in range(40):
            g, t = small_case(seed)
            quotient, qterms = stratum_quotient(order_edges(g, t), 0, ROOT)
            assert quotient.m == g.m
            assert naive_reliability(quotient, qterms) == pytest.approx(
                naive_reliability(g, t), abs=1e-12
            )


def _suffix_graph(g, eo, layer):
    """The undecided edges at ``layer`` as a graph on the original vertex ids."""
    suffix = eo.edges[layer:]
    return UncertainGraph(
        n=g.n, edges=tuple(e[:2] for e in suffix), probs=tuple(e[2] for e in suffix)
    )


def _crossing_bits(eo, layer, node):
    """Suffix mask bits of the edges not inside one of the node's components."""
    comp = dict(zip(eo.frontiers[layer], node.state))  # the ids, not the flags
    return [
        bit for bit, (a, b, _, _) in enumerate(eo.edges[layer:])
        if not (a in comp and b in comp and comp[a] == comp[b])
    ]


def _quotient_mask(mask, bits):
    """The quotient's edge mask: the suffix ``mask`` read at ``bits``."""
    return sum(1 << i for i, bit in enumerate(bits) if mask >> bit & 1)


def _reference_stratum(g, eo, layer, t, nodes, draws, seed, kind):
    """Draw a stratum by sampling the suffix graph for each picked node.

    Returns (successes, HT outcome records, hit nodes with an internal
    edge), drawn from the stream the sampler uses: a node picked by
    bisecting the cumulative masses, then a possible graph of the suffix.
    Connectivity is read off the node's quotient, which keeps the suffix
    edges not inside a component, in order; the probability is the node's
    mass share times the suffix mask's.
    """
    rng = rngmod.stream(seed, "layer", layer, kind)
    suffix = _suffix_graph(g, eo, layer)
    masses = [float(nd.p) for nd in nodes]
    cum = list(accumulate(masses))
    total = cum[-1]
    quotients = {}
    successes = 0
    outcomes = []
    for _ in range(draws):
        i = min(bisect_right(cum, rng.random() * total), len(nodes) - 1)
        if i not in quotients:
            quotient, qterms = stratum_quotient(eo, layer, nodes[i])
            bits = _crossing_bits(eo, layer, nodes[i])
            assert len(bits) == quotient.m
            quotients[i] = quotient, qterms, bits
        quotient, qterms, bits = quotients[i]
        mask = sample_possible_graph(suffix, rng)
        ok = terminals_connected(quotient, _quotient_mask(mask, bits), qterms)
        successes += ok
        q = (masses[i] / total) * assignment_probability(suffix, mask)
        outcomes.append(((i, mask), q, ok))
    chorded = sum(len(bits) < suffix.m for _, _, bits in quotients.values())
    return successes, outcomes, chorded


class TestSamplerMatchesQuotientSampling:
    """The sampler draws exactly what the reference draws from the suffix.

    The reference reads connectivity off each node's quotient.  Each corpus
    must hit nodes with an edge inside one of their components, which the
    quotient leaves out and the sampler draws without joining anything.
    """

    @staticmethod
    def _check(g, t, eo, st, seed, scalar=False):
        """Returns the hit nodes with an internal suffix edge.

        With ``scalar``, the MC draws go through the draw-by-draw loop
        whatever the stratum's size.
        """
        successes, outcomes, chorded = _reference_stratum(
            g, eo, st.layer, t, _nodes(st), st.draws, seed, st.kind
        )
        if scalar:
            stream = rngmod.stream(seed, "layer", st.layer, st.kind)
            mc = diagram._draw_scalar(st, stream)
        else:
            mc = sample_group_stratum(st, seed=seed).successes
        ht = sample_group_stratum(st, seed=seed, want_outcomes=True)
        assert mc == ht.successes == successes
        assert ht.outcomes == outcomes
        return chorded

    def _check_build_and_root(self, g, t, w, s, seed):
        """Returns the build's strata and their hit nodes with an internal edge."""
        build = _build(g, t, w, s, "double", None)
        eo = order_edges(g, t)
        chorded = sum(self._check(g, t, eo, st, seed) for st in build.strata)
        root = _stratum(eo, 0, "deleted", [ROOT], 1.0, 300)
        self._check(g, t, eo, root, seed)
        return len(build.strata), chorded

    def test_small_cases(self):
        strata = chorded = 0
        for seed in range(60):
            g, t = small_case(seed)
            for w in (1, 2, 4, 16):
                n, c = self._check_build_and_root(g, t, w, 200, seed)
                strata += n
                chorded += c
        assert strata > 300
        assert chorded > 0

    def test_karate(self, karate_graph):
        t = TerminalSet.of([6, 7, 9, 18, 27])
        strata, chorded = self._check_build_and_root(karate_graph, t, 100, 10000, 0)
        assert strata > 0 and chorded > 0

    def test_grid(self):
        g = grid_graph(10, 10, seed=0)
        t = TerminalSet.of([0, 55, 99])
        strata, chorded = self._check_build_and_root(g, t, 100, 10000, 1)
        assert strata > 0 and chorded > 0

    def test_karate_root_over_ragged_chunks(self, karate_graph):
        # the HT lanes' records stay in draw order across chunks: 1,000
        # draws at 414 lanes a chunk end in a chunk of 172
        t = TerminalSet.of([6, 7, 9, 18, 27])
        eo = order_edges(karate_graph, t)
        root = _stratum(eo, 0, "deleted", [ROOT], 1.0, 1000)
        lanes = diagram._LANE_BYTES // (8 * (karate_graph.m + 1))
        assert 2 * lanes < root.draws < 3 * lanes
        for seed in range(2):
            self._check(karate_graph, t, eo, root, seed)

    def test_edgeless_graph_at_width_0(self):
        # an empty suffix: one HT record per draw, with mask 0 and q = 1.0
        g = UncertainGraph(2, (), ())
        t = TerminalSet.of([0, 1])
        (root,) = _build(g, t, 0, 100, "double", None).strata
        assert root.draws == 100
        self._check(g, t, order_edges(g, t), root, 0)
        ht = sample_group_stratum(root, want_outcomes=True)
        assert ht.outcomes == [((0, 0), 1.0, False)] * 100

    def _check_long_suffixes(self, monkeypatch, g, t, w, s, seed):
        """Per stratum: the MC stream ends where the reference's does.

        Returns the reference's and the MC sampler's ``random()`` calls,
        summed over the build's strata and its root.  The MC draws take the
        draw-by-draw loop on every stratum: the lanes make no ``random()``
        call, so their count would bound nothing.  The HT draws take the
        lanes, so only their stream's end state is compared.
        """
        streams = []

        def counting(root, *path):
            streams.append(_CountingRandom(rngmod.derive_seed(root, *path)))
            return streams[-1]

        monkeypatch.setattr(rngmod, "stream", counting)
        build = _build(g, t, w, s, "double", None)
        eo = order_edges(g, t)
        root = _stratum(eo, 0, "deleted", [ROOT], 1.0, 300)
        calls = [0, 0]
        for st in (*build.strata, root):
            streams.clear()
            self._check(g, t, eo, st, seed, scalar=True)
            ref, mc, ht = streams
            assert mc.getstate() == ref.getstate() == ht.getstate()
            assert mc.calls <= ref.calls
            calls[0] += ref.calls
            calls[1] += mc.calls
        return calls

    def test_long_suffix_early_failures(self, monkeypatch):
        # most draws on a long grid break a path early
        g = grid_graph(4, 40, seed=2)
        t = TerminalSet.of([0, 79, 159])
        ref, mc = self._check_long_suffixes(monkeypatch, g, t, 8, 2000, 3)
        assert mc < ref / 2

    def test_long_suffix_early_successes(self, monkeypatch):
        # most draws on a dense reliable graph join the terminals early; the
        # parallel edges keep the frontier narrow and the suffix long
        g = random_connected_graph(12, 200, seed=5, lo=0.8, hi=0.99,
                                   allow_parallel=True)
        t = random_terminals(g, 4, seed=5)
        ref, mc = self._check_long_suffixes(monkeypatch, g, t, 8, 2000, 4)
        assert mc < ref / 2

    def test_long_suffix_unreached_terminal_stays_live(self, monkeypatch):
        # the ladder's far terminal is unreached at the early checkpoints:
        # its one-vertex component is not closed, and a third of the draws
        # join it
        g = grid_graph(2, 30, seed=1, probs="log-degree")
        t = TerminalSet.of([0, 59])
        ref, mc = self._check_long_suffixes(monkeypatch, g, t, 8, 2000, 4)
        assert mc < ref


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``random()`` calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


@pytest.mark.parametrize("n", [0, 1, 2, 311, 312, 313, 624, 625, 1000, 2500])
def test_stream_skip_matches_random_calls(n):
    # an MC draw decided early passes its stream over the edges it leaves
    # with one getrandbits(64 * n); later draws rely on it reading exactly
    # the words of n random() calls
    skipped = random.Random(n)
    skipped.getrandbits(64 * n)
    drawn = random.Random(n)
    for _ in range(n):
        drawn.random()
    assert skipped.getstate() == drawn.getstate()


@pytest.mark.parametrize("n", [0, 1, 2, 311, 312, 313, 624, 625, 1000, 2500])
def test_stream_words_rebuild_random_values(n):
    # the lanes read getrandbits(64 * n) as n word pairs, first word least
    # significant, and rebuild from each pair the 53-bit value of one random()
    data = random.Random(n).getrandbits(64 * n).to_bytes(8 * n, "little")
    drawn = random.Random(n)
    for i in range(n):
        w0 = int.from_bytes(data[8 * i:8 * i + 4], "little")
        w1 = int.from_bytes(data[8 * i + 4:8 * i + 8], "little")
        assert (w0 >> 5) * 2**26 + (w1 >> 6) == drawn.random() * 2**53


def _draw_both(st, seed):
    """Successes of the draw-by-draw loop and of the lanes, from equal streams.

    Also checks that the two streams end in one state.
    """
    loop = rngmod.stream(seed, "layer", st.layer, st.kind)
    lanes = rngmod.stream(seed, "layer", st.layer, st.kind)
    successes = diagram._draw_scalar(st, loop)
    assert diagram._draw_lanes(st, lanes) == successes
    assert lanes.getstate() == loop.getstate()
    return successes


def _draw_corpus(strata):
    """Draws every stratum both ways with three seeds; returns what it met.

    Counts the strata, those with several nodes whose picked nodes have
    joins, those whose draws are no multiple of a chunk's lanes, and those
    that span two chunks or more.
    """
    seen = Counter()
    for st in strata:
        for seed in range(3):
            _draw_both(st, seed)
        lanes = max(1, diagram._LANE_BYTES // (8 * (len(st.edges) - st.layer + 1)))
        seen["strata"] += 1
        seen["joined"] += len(st.ps) > 1 and any(st.starts[0])
        seen["ragged"] += st.draws % lanes > 0
        seen["chunked"] += st.draws > lanes
    return seen


class TestLanesMatchScalarDraws:
    """The lanes draw every stratum exactly as the draw-by-draw loop does.

    Each corpus runs both paths by name on every stratum, with three seeds,
    whatever path :func:`sample_group_stratum` would take.  Together the
    corpora hold multi-node strata whose picked nodes have joins, draw
    counts that are no multiple of the chunk's lanes, and strata that span
    two chunks or more.
    """

    def test_small_cases(self):
        seen = Counter()
        for seed in range(60):
            g, t = small_case(seed)
            for w in (0, 1, 2, 4, 16):
                for s in (200, 2000):
                    seen += _draw_corpus(_build(g, t, w, s, "double", None).strata)
        assert seen["strata"] > 800
        assert seen["joined"] > 0 and seen["ragged"] > 0

    def test_karate(self, karate_graph):
        t = TerminalSet.of([6, 7, 9, 18, 27])
        seen = Counter()
        for w in (0, 100):
            build = _build(karate_graph, t, w, 10000, "double", None)
            seen += _draw_corpus(build.strata)
        assert seen["joined"] > 0 and seen["ragged"] > 0 and seen["chunked"] > 0

    def test_criterion_7_graph(self, monkeypatch):
        from relnet.pipeline import estimate_pipeline

        strata = []
        real = diagram.sample_group_stratum

        def recording(st, **kw):
            strata.append(st)
            return real(st, **kw)

        monkeypatch.setattr(diagram, "sample_group_stratum", recording)
        g = random_connected_graph(20, 40, seed=77, lo=0.5, hi=0.95)
        t = random_terminals(g, 4, seed=77)
        estimate_pipeline(g, t, s=20000, w=256, seed=0)
        assert _draw_corpus(strata)["joined"] > 0

    def test_grid(self):
        g = grid_graph(10, 10, seed=0)
        t = TerminalSet.of([0, 55, 99])
        seen = _draw_corpus(_build(g, t, 100, 10000, "double", None).strata)
        assert seen["joined"] > 0

    def test_wide_mc_strata_draw_lanes(self, monkeypatch, karate_graph):
        # every HT stratum, and an MC stratum with at least as many draws as
        # suffix edges, takes the lanes; narrower MC strata take the loop
        taken = []
        for name in ("_draw_lanes", "_draw_scalar"):
            real = getattr(diagram, name)

            def recording(st, *args, _name=name, _real=real):
                taken.append((_name, st))
                return _real(st, *args)

            monkeypatch.setattr(diagram, name, recording)
        t = TerminalSet.of([6, 7, 9, 18, 27])
        build = _build(karate_graph, t, 100, 10000, "double", None)
        for want_outcomes in (False, True):
            taken.clear()
            for st in build.strata:
                sample_group_stratum(st, seed=1, want_outcomes=want_outcomes)
            wide = [
                want_outcomes or st.draws >= len(st.edges) - st.layer
                for _, st in taken
            ]
            assert [name == "_draw_lanes" for name, _ in taken] == wide
            assert len(taken) == len(build.strata)
        # the build has strata on both sides of the rule
        assert {st.draws >= len(st.edges) - st.layer for st in build.strata} == {
            True, False
        }
        eo = order_edges(karate_graph, t)
        for draws, name in ((karate_graph.m - 1, "_draw_scalar"),
                            (karate_graph.m, "_draw_lanes")):
            taken.clear()
            sample_group_stratum(_stratum(eo, 0, "deleted", [ROOT], 1.0, draws))
            assert [n for n, _ in taken] == [name]
            taken.clear()
            sample_group_stratum(
                _stratum(eo, 0, "deleted", [ROOT], 1.0, draws), want_outcomes=True
            )
            assert [n for n, _ in taken] == ["_draw_lanes"]


class _WordStream:
    """A stream that serves given 32-bit words, as ``random.Random`` reads them."""

    def __init__(self, words):
        self.words = iter(words)

    def random(self):
        a = next(self.words) >> 5
        b = next(self.words) >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k):
        assert k % 32 == 0
        return sum(next(self.words) << 32 * i for i in range(k // 32))


def _words_of(k, junk):
    """A word pair whose ``random()`` value is k / 2**53, low bits ``junk``."""
    return (k >> 26) << 5 | junk & 31, (k & (1 << 26) - 1) << 6 | junk & 63


class TestLaneThresholds:
    """An edge is on in a lane iff its 53-bit value is below ceil(p * 2**53)."""

    # (p, ceil(p * 2**53)); 0.5's cut is its top byte alone
    CUTS = ((1.0, 2**53), (0.5, 2**52), (2.0**-60, 1), (1.0 - 2.0**-53, 2**53 - 1))
    PROBS = tuple(p for p, _ in CUTS)

    @staticmethod
    def _edge_stratum(p, draws):
        g = UncertainGraph(2, ((0, 1),), (p,))
        t = TerminalSet.of([0, 1])
        return _stratum(order_edges(g, t), 0, "deleted", [ROOT], 1.0, draws)

    @pytest.mark.parametrize("p, cut", CUTS)
    def test_values_next_to_the_cut(self, p, cut):
        ks = sorted({
            min(max(k, 0), 2**53 - 1)
            for k in (0, 1, cut - 2, cut - 1, cut, cut + 1, 2**53 - 1)
        })
        words = []
        for d, k in enumerate(k for k in ks for _ in range(2)):
            # every k twice, with and without junk in the bits random() drops
            pair = _words_of(k, -(d % 2))
            assert _WordStream(pair).random() * 2**53 == k
            words += [d * 7919, 0xFFFFFFFF, *pair]  # the node pick, the edge
        expected = 2 * sum(k < cut for k in ks)
        st = self._edge_stratum(p, 2 * len(ks))
        assert diagram._draw_scalar(st, _WordStream(words)) == expected
        assert diagram._draw_lanes(st, _WordStream(words)) == expected
        # an HT draw's mask bit, verdict and edge factor all follow k < cut
        outcomes = []
        assert diagram._draw_lanes(st, _WordStream(words), outcomes) == expected
        assert outcomes == self._ht_records(p, [k < cut for k in ks for _ in range(2)])

    @pytest.mark.parametrize("p", PROBS)
    def test_random_streams(self, p):
        # about one lane in 256 ties the cut's top byte; 0.5's cut is its
        # top byte alone
        st = self._edge_stratum(p, 3000)
        for seed in range(3):
            _draw_both(st, seed)
            rng = rngmod.stream(seed, "layer", st.layer, st.kind)
            on = []
            for _ in range(st.draws):
                rng.random()  # the node pick
                on.append(rng.random() < p)
            ht = sample_group_stratum(st, seed=seed, want_outcomes=True)
            assert ht.outcomes == self._ht_records(p, on)

    @staticmethod
    def _ht_records(p, on):
        """The one-edge stratum's HT records for the draws' edge bits ``on``."""
        return [((0, int(o)), p if o else 1.0 - p, o) for o in on]


def _conditional_reliability(g, eo, t, decided):
    hits = 0.0
    total = 0.0
    for rest_mask in range(1 << (g.m - len(decided))):
        mask = _completion_mask(eo, decided, rest_mask)
        prob = assignment_probability(g, mask)
        total += prob
        if terminals_connected(g, mask, t):
            hits += prob
    return hits / total


class TestConstruct:
    def test_unbounded_run_is_exact(self):
        for seed in range(20):
            g, t = small_case(seed, max_edges=12)
            rep = construct(g, t, BuildConfig(width=None, samples=0))
            ref = brute_force_reliability(g, t).reliability
            assert rep.exact
            assert rep.bounds.p_c + rep.bounds.p_d == pytest.approx(1.0, abs=1e-9)
            assert rep.estimate == pytest.approx(ref, abs=1e-9)
            assert rep.samples_used == 0

    def test_certain_graph(self):
        g = parse_graph("0 1 1\n1 2 1\n0 2 1")
        rep = construct(g, TerminalSet.of([0, 1, 2]), BuildConfig(width=None))
        assert rep.estimate == 1.0
        assert rep.bounds.p_c == 1.0

    def test_edgeless_graph_reads_zero(self):
        from fractions import Fraction

        g = UncertainGraph(2, (), ())
        t = TerminalSet.of([0, 1])
        for estimator in ("mc", "ht"):
            for precision in ("double", "exact"):
                cfg = BuildConfig(
                    width=2, samples=100, estimator=estimator, precision=precision
                )
                rep = construct(g, t, cfg)
                assert (rep.estimate, rep.variance) == (0.0, 0.0)
                assert (rep.bounds.p_c, rep.bounds.p_d) == (0.0, 1.0)
                assert rep.exact and rep.unsampled_mass == 0.0
        assert rep.raw == {"p_c": "0", "p_d": "1", "estimate": "0"}
        assert exact_reliability(g, t) == 0.0
        r = exact_reliability(g, t, precision="exact")
        assert isinstance(r, Fraction) and r == 0

    def test_bounds_sandwich_and_monotone_at_small_widths(self):
        for seed in range(12):
            g, t = small_case(seed, max_edges=12)
            ref = brute_force_reliability(g, t).reliability
            for w in (1, 2, 8):
                trace = []
                rep = construct(
                    g, t, BuildConfig(width=w, samples=300, seed=seed), trace=trace
                )
                prev_c, prev_d = 0.0, 0.0
                for row in trace:
                    assert row["p_c"] <= ref + 1e-9
                    assert ref <= 1.0 - row["p_d"] + 1e-9
                    assert row["p_c"] >= prev_c - 1e-12
                    assert row["p_d"] >= prev_d - 1e-12
                    prev_c, prev_d = row["p_c"], row["p_d"]
                assert rep.bounds.p_c - 1e-9 <= rep.estimate <= 1 - rep.bounds.p_d + 1e-9
                assert rep.samples_used <= 300

    def test_mass_conservation_per_layer(self):
        for seed in range(10):
            g, t = small_case(seed, max_edges=12)
            trace = []
            construct(g, t, BuildConfig(width=2, samples=150, seed=seed), trace=trace)
            cum_deleted = 0.0
            for row in trace:
                cum_deleted += row["deleted_mass"]
                total = row["resident_mass"] + cum_deleted + row["p_c"] + row["p_d"]
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_reports(self):
        g, t = small_case(7, max_edges=12)
        cfg = BuildConfig(width=2, samples=250, seed=11)
        d1 = json.dumps(construct(g, t, cfg).to_dict(), sort_keys=True)
        d2 = json.dumps(construct(g, t, cfg).to_dict(), sort_keys=True)
        assert d1 == d2

    def test_reused_build_matches_fresh_build(self):
        sampled = 0
        for seed in (3, 5, 7):
            g, t = small_case(seed, max_edges=12)
            for cfg in (
                BuildConfig(width=2, samples=300, seed=1),
                BuildConfig(width=2, samples=300, estimator="ht", seed=1),
                BuildConfig(width=2, samples=300, seed=1, precision="exact"),
                BuildConfig(width=0, samples=300, seed=1),
                BuildConfig(width=0, samples=300, estimator="ht", seed=1),
            ):
                _build.cache_clear()
                runs = []
                for _ in range(2):
                    rows = []
                    rep = construct(g, t, cfg, trace=rows)
                    runs.append((json.dumps(rep.to_dict(), sort_keys=True), rows))
                assert _build.cache_info().hits == 1
                assert runs[0] == runs[1]
                sampled += rep.samples_used
        assert sampled > 0

    def test_estimator_switch_reuses_build(self):
        g, t = small_case(5, max_edges=12)
        mc = BuildConfig(width=2, samples=300, estimator="mc", seed=2)
        ht = BuildConfig(width=2, samples=300, estimator="ht", seed=2)
        _build.cache_clear()
        fresh = construct(g, t, ht).to_dict()
        _build.cache_clear()
        construct(g, t, mc)
        assert construct(g, t, ht).to_dict() == fresh
        assert _build.cache_info().hits == 1

    def test_trace_rows_are_the_callers_own(self):
        g, t = small_case(7, max_edges=12)
        cfg = BuildConfig(width=2, samples=250, seed=11)
        first = []
        construct(g, t, cfg, trace=first)
        expected = [dict(row) for row in first]
        first[0]["p_c"] = -1.0
        first.append({"layer": 0})
        second = []
        construct(g, t, cfg, trace=second)
        assert second == expected

    def test_exact_probs_are_part_of_the_build(self):
        from fractions import Fraction

        decimal = parse_graph("0 1 0.1\n1 2 0.1\n0 2 0.1")
        binary = UncertainGraph(
            decimal.n, decimal.edges, decimal.probs,
            exact_probs=tuple(Fraction(p) for p in decimal.probs),
        )
        assert decimal != binary
        t = TerminalSet.of([0, 1, 2])
        cfg = BuildConfig(width=None, precision="exact")
        a = construct(decimal, t, cfg).raw
        b = construct(binary, t, cfg).raw
        assert a["p_c"] != b["p_c"]
        _build.cache_clear()
        assert construct(binary, t, cfg).raw == b

    def test_width_cap_raises_on_every_call(self, karate_graph):
        cfg = BuildConfig(width=None, width_cap=50)
        for _ in range(2):
            with pytest.raises(WidthCapExceeded):
                construct(karate_graph, TerminalSet.of([0, 16, 33]), cfg)

    def test_width_one_still_within_bounds(self):
        g, t = small_case(3, max_edges=10)
        rep = construct(g, t, BuildConfig(width=1, samples=100, seed=0))
        assert rep.bounds.p_c - 1e-9 <= rep.estimate <= 1 - rep.bounds.p_d + 1e-9

    def test_ht_estimator_runs(self):
        g, t = small_case(5, max_edges=10)
        rep = construct(g, t, BuildConfig(width=2, samples=200, estimator="ht", seed=2))
        assert rep.estimator == "ht"
        assert rep.bounds.p_c - 1e-9 <= rep.estimate <= 1 - rep.bounds.p_d + 1e-9

    def test_tree_rich_pipeline_stays_exact_at_default_width(self):
        from relnet.pipeline import estimate_pipeline

        g = tree_rich_graph(141, cycle_count=10, seed=9)
        t = random_terminals(g, 5, seed=9)
        res = estimate_pipeline(g, t, s=10000, w=10000, seed=0)
        assert res.exact
        assert res.samples_used == 0

    def test_build_keeps_no_node(self, karate_graph):
        # a build's strata are plain columns: once it is made, no Node of a
        # stratum is alive
        t = TerminalSet.of([6, 7, 9, 18, 27])

        def nodes_alive():
            gc.collect()
            return sum(isinstance(x, Node) for x in gc.get_objects())

        _build.cache_clear()
        before = nodes_alive()
        build = _build(karate_graph, t, 100, 10000, "double", None)
        assert build.strata and sum(len(st.ps) for st in build.strata) > 100
        assert nodes_alive() == before

    def test_warm_calls_leave_no_tracked_objects(self, karate_graph):
        # start states are tuples of ints, which the collector stops
        # tracking; warm calls add none that it keeps walking
        t = TerminalSet.of([6, 7, 9, 18, 27])
        cfg = BuildConfig(width=100, samples=500)
        _build.cache_clear()
        construct(karate_graph, t, cfg)
        gc.collect()
        before = len(gc.get_objects())
        for seed in range(200):
            cfg.seed = seed
            construct(karate_graph, t, cfg)
        gc.collect()
        assert _build.cache_info().hits == 200
        assert abs(len(gc.get_objects()) - before) <= 20

    def test_derived_seeds_are_pinned(self):
        # every stream, and so every golden report, hangs on these digests
        assert rngmod.derive_seed(0, "part", 0) == 3047087690926023199
        assert rngmod.derive_seed(42, "layer", 17, "deleted") == 3526696783772828646
        assert rngmod.derive_seed(-3, "bench", 2, 5) == 9713485646200810147

    def test_every_stratum_draws_from_its_own_stream(self, monkeypatch):
        import relnet.diagram

        paths = []
        real = relnet.diagram.rngmod.stream

        def recording(root, *path):
            paths.append((root, path))
            return real(root, *path)

        monkeypatch.setattr(relnet.diagram.rngmod, "stream", recording)
        sampled = 0
        for seed in range(60):
            g, t = small_case(seed)
            for w in (1, 2, 4, 16):
                paths.clear()
                construct(g, t, BuildConfig(width=w, samples=2000, seed=seed))
                assert len(set(paths)) == len(paths), (seed, w, paths)
                sampled += len(paths)
        assert sampled > 0

    def test_stratified_mc_is_unbiased(self):
        # a stratum's sample mean has expectation sum_i (m_i/M) R(quotient_i)
        # exactly, so the estimate's expectation before clamping is computed
        # without drawing; unsampled mass enters at its midpoint
        exact_cases = strata_seen = 0
        for seed in range(60):
            g, t = small_case(seed)
            ref = naive_reliability(g, t)
            eo = order_edges(g, t)
            for w in (1, 2, 4, 16):
                for s in (20, 200):
                    build = _build(g, t, w, s, "double", None)
                    # the stored budget is the final bounds' reduction
                    assert build.reduced == reduced_sample_count(s, build.bounds)
                    expected = build.p_c + 0.5 * build.residual
                    for st in build.strata:
                        nodes = _nodes(st)
                        total = sum(float(nd.p) for nd in nodes)
                        mean = sum(
                            float(nd.p) / total * naive_reliability(
                                *stratum_quotient(eo, st.layer, nd)
                            )
                            for nd in nodes
                        )
                        expected += st.mass * mean
                        strata_seen += 1
                    if build.residual == 0:
                        exact_cases += 1
                        assert expected == pytest.approx(ref, abs=1e-12)
                    else:
                        assert abs(expected - ref) <= 0.5 * build.residual + 1e-12
        assert exact_cases > 0 and strata_seen > 0

    def test_stratified_ht_is_unbiased(self):
        # enumerate a stratum's outcomes ((node index, suffix mask),
        # conditional probability, connected) and average the HT estimate
        # exactly over every d-draw sequence; mass <= 0.5 keeps the estimate
        # below the clamp at 1 for d <= 2
        pairs_seen = 0
        for seed in range(60):
            g, t = small_case(seed)
            eo = order_edges(g, t)
            for w in (1, 2, 4):
                build = _build(g, t, w, 200, "double", None)
                for st in build.strata:
                    layer, mass, nodes = st.layer, st.mass, _nodes(st)
                    if mass > 0.5:
                        continue
                    suffix = _suffix_graph(g, eo, layer)
                    if len(nodes) << suffix.m > 64:
                        continue
                    masses = [float(nd.p) for nd in nodes]
                    total = 0.0  # summed in order, as the build sums
                    for x in masses:
                        total += x
                    table = []
                    for i, nd in enumerate(nodes):
                        quotient, qterms = stratum_quotient(eo, layer, nd)
                        bits = _crossing_bits(eo, layer, nd)
                        table.extend(
                            ((i, mask),
                             (masses[i] / total) * assignment_probability(suffix, mask),
                             terminals_connected(
                                 quotient, _quotient_mask(mask, bits), qterms
                             ))
                            for mask in range(1 << suffix.m)
                        )
                    expected = mass * sum(q for _, q, ok in table if ok)
                    for d in (1, 2):
                        seqs = [((), 1.0)]
                        for _ in range(d):
                            seqs = [(seq + (o,), pr * o[1])
                                    for seq, pr in seqs for o in table]
                        mean = sum(
                            pr * combine_strata(
                                "ht",
                                [StratumDraw(mass, d, sum(o[2] for o in seq), list(seq))],
                                Bounds(0.0, 0.0),
                            )[0]
                            for seq, pr in seqs
                        )
                        assert mean == pytest.approx(expected, abs=1e-12)
                        pairs_seen += 1
                    drawn = sample_group_stratum(st, seed=seed, want_outcomes=True)
                    rows = set(table)
                    assert all(rec in rows for rec in drawn.outcomes)
        assert pairs_seen > 100

    def test_statistical_agreement_with_oracle(self):
        import statistics

        g, t = small_case(13, max_edges=12)
        ref = brute_force_reliability(g, t).reliability
        ests = [
            construct(g, t, BuildConfig(width=2, samples=400, seed=i)).estimate
            for i in range(100)
        ]
        mean = statistics.fmean(ests)
        se = statistics.stdev(ests) / 10.0
        assert abs(mean - ref) <= 3 * se + 1e-9


class TestStopRule:
    """A split build stops once its resident nodes cannot earn a draw."""

    S = 10_000

    @pytest.fixture(scope="class")
    def strip(self):
        from relnet.pipeline import exact_pipeline

        g = grid_graph(6, 40, seed=3)
        t = TerminalSet.of([0, 119, 239])
        return g, t, exact_pipeline(g, t)

    def test_split_build_stops_below_one_draw(self, strip):
        from relnet.pipeline import estimate_pipeline

        g, t, exact = strip
        trace = []
        res = estimate_pipeline(g, t, s=self.S, w=100, seed=3, trace=trace)
        (part,), ((_, m),) = res.parts, res.part_shapes
        assert part.layers < m
        last = trace[-1]
        assert (last["width"], last["samples_drawn"], last["resident_mass"]) == (0, 0, 0.0)
        # the stop keys on the requested budget: keyed on the reduced one,
        # which collapses with the bounds while p_c is 0, it fires earlier,
        # on mass that could still have earned draws
        stopped = last["deleted_mass"]
        assert 0 < stopped < 1 / self.S
        # every group that got no draw, the stopped one included, is unsampled
        undrawn = sum(r["deleted_mass"] for r in trace if r["samples_drawn"] == 0)
        assert part.unsampled_mass == pytest.approx(undrawn, rel=1e-12)
        assert not res.exact
        assert res.p_c <= exact <= 1 - res.p_d

    def test_unbounded_width_stays_exact(self, strip):
        # the stop waits for a split: the resident mass of this build falls
        # below 1/s long before its last layer
        from relnet.pipeline import estimate_pipeline

        g, t, exact = strip
        res = estimate_pipeline(g, t, s=self.S, w=100_000, seed=3)
        assert res.exact
        assert res.estimate == exact
        assert res.estimate == pytest.approx(exact_reliability(g, t), rel=1e-12)

    # exact_pipeline's R of grid_graph(6, 100, seed=0), terminals 0, 350, 599
    RARE_R = 1.8344893633942876e-08

    @pytest.fixture(scope="class")
    def rare(self):
        g = grid_graph(6, 100, seed=0)
        trace = []
        res = estimate_pipeline(
            g, TerminalSet.of([0, 350, 599]), s=self.S, w=1000, seed=0, trace=trace
        )
        return res, trace

    def test_rare_event_upper_bound_within_30x(self, rare):
        # the build keeps expanding nodes that cannot earn a draw while they
        # outweigh the mass already unsampled, so on a rare event the upper
        # bound follows R down instead of stopping at about 1/s
        res, _ = rare
        assert res.p_c <= self.RARE_R <= 1 - res.p_d
        assert (1 - res.p_d) / self.RARE_R <= 30

    def test_resident_mass_above_unsampled_keeps_expanding(self, rare):
        res, trace = rare
        (part,) = res.parts
        *rows, stop = trace
        assert (stop["width"], stop["samples_drawn"]) == (0, 0) and part.samples_used == 0
        unsampled = 0.0
        light = []  # after a split, the layers whose nodes cannot earn a draw
        for r in rows:
            unsampled += r["deleted_mass"]
            if unsampled > 0 and self.S * r["resident_mass"] < 1:
                light.append((r["resident_mass"], unsampled))
        # the first such layer outweighs the unsampled mass many times over,
        # and the build goes on past it to the first layer that does not
        assert len(light) > 100
        assert light[0][0] > 100 * light[0][1]
        assert light[-1][0] <= light[-1][1] < light[-2][0]
        assert stop["deleted_mass"] == light[-1][0]
        assert part.unsampled_mass == pytest.approx(light[-1][0] + light[-1][1], rel=1e-12)

    def test_no_budget_never_stops(self, strip):
        # s = 0 asks for bounds only: every layer is expanded
        g, t, _ = strip
        rep = construct(g, t, BuildConfig(width=100, samples=0))
        assert rep.layers == g.m and rep.samples_used == 0


class TestExactReliability:
    def test_single_edge(self):
        g = parse_graph("0 1 0.7")
        assert exact_reliability(g, TerminalSet.of([0, 1])) == pytest.approx(0.7)

    def test_triangle(self):
        g = parse_graph("0 1 0.5\n0 2 0.5\n1 2 0.5")
        r = exact_reliability(g, TerminalSet.of([0, 1, 2]))
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_sweep_against_naive_oracle(self):
        for seed in range(30):
            g, t = small_case(seed, max_edges=11)
            assert exact_reliability(g, t) == pytest.approx(
                naive_reliability(g, t), abs=1e-9
            )

    def test_width_cap_raises(self, karate_graph):
        with pytest.raises(WidthCapExceeded):
            exact_reliability(karate_graph, TerminalSet.of([0, 16, 33]), width_cap=50)

    def test_exact_precision_mode(self):
        from fractions import Fraction

        g = parse_graph("0 1 0.5\n0 2 0.5\n1 2 0.5")
        r = exact_reliability(g, TerminalSet.of([0, 1, 2]), precision="exact")
        assert r == Fraction(1, 2)

    def test_exact_precision_survives_underflow(self):
        from fractions import Fraction

        lines = "\n".join(f"{i} {i + 1} 1e-20" for i in range(20))
        g = parse_graph(lines)
        r = exact_reliability(g, TerminalSet.of([0, 20]), precision="exact")
        assert r == Fraction(1, 10 ** 400)
