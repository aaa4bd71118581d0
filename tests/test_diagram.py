import gc
import json
import random
from bisect import bisect_right
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
    _make_step,
    _build,
    construct,
    exact_reliability,
    expand_layer,
    node_priority,
    order_edges,
    sample_group_stratum,
    split_layer,
    stratum_quotient,
)
from relnet import rng as rngmod
from relnet.estimators import (
    Bounds,
    StratumDraw,
    ht_estimate,
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
    random_connected_graph,
    random_terminals,
    tree_rich_graph,
)
from relnet.numerics import KahanSum
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
        cases = [small_case(seed) for seed in range(60)]
        cases.append((karate_graph, TerminalSet.of([0, 33])))
        cases.append((grid_graph(40, 40, seed=0), TerminalSet.of([0, 1599])))
        for g, t in cases:
            eo = order_edges(g, t)
            assert sorted(eo.order) == list(range(g.m))
            assert eo == _edge_order_by_definition(g, eo.order)


def _edge_order_by_definition(g, order):
    """EdgeOrder fields derived from ``order`` straight from their definitions."""
    positions = {j: pos for pos, j in enumerate(order)}
    inc_pos = [sorted(positions[j] for j in g.incident(v)) for v in range(g.n)]
    first = [p[0] if p else g.m for p in inc_pos]
    last = [p[-1] if p else -1 for p in inc_pos]
    frontiers = tuple(
        tuple(v for v in range(g.n) if first[v] < l <= last[v])
        for l in range(g.m + 1)
    )
    return EdgeOrder(
        order=tuple(order),
        edges=tuple((*g.edges[j], g.probs[j], 1 - g.probs[j]) for j in order),
        first=tuple(first),
        frontiers=frontiers,
        incident_positions=tuple(tuple(p) for p in inc_pos),
    )


ROOT = Node(1.0, (), ())


def _stratum(eo, t, layer, kind, nodes, mass, draws):
    """The sampler's record of ``nodes``, as a build makes it."""
    return Stratum(
        eo, t, layer, kind,
        tuple(float(nd.p) for nd in nodes),
        tuple(nd.comp for nd in nodes),
        tuple(nd.t for nd in nodes),
        mass, draws,
    )


def _nodes(st):
    """The nodes of a stratum record, with their float masses."""
    return [Node(p, comp, tt) for p, comp, tt in zip(st.ps, st.comps, st.ts)]


def _both(g, t, layer, node):
    """(off, on) results of the real transition at one layer."""
    return _apply_both(node, _make_step(g, order_edges(g, t), layer, t), t.k)


def _child(res):
    """A node for a non-sink transition result (its mass is not tracked)."""
    comp, tt, _ = res
    return Node(1.0, comp, tt)


def _expand(g, t, layer, nodes):
    """One real construction step: (next layer, p_c, p_d)."""
    p_c, p_d = KahanSum(), KahanSum()
    step = _make_step(g, order_edges(g, t), layer, t)
    nxt, _ = expand_layer(nodes, step, g.probs[step.edge_index], t.k, p_c, p_d)
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
        assert both_in[:2] == ((0, 0), (2,))
        assert split[:2] == ((0, 1), (1, 1))

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
                assert all(len(nd.comp) == len(eo.frontiers[layer]) for nd in nodes)
                nodes, _, _ = _expand(g, t, layer, nodes)
            assert nodes == []

    def test_sink_verdicts_sound_against_enumeration(self):
        # every sink produced anywhere in the prefix tree must agree with a
        # brute-force check over all completions of that prefix
        for seed in (0, 1, 2, 5):
            g, t = small_case(seed, max_edges=8)
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
                        stack.append((layer + 1, _child(res), states))


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
        a = Node(0.25, (0, 1), (2, 0))
        b = Node(0.5, (0, 1), (1, 0))
        nxt, p_c, p_d = self._layer(a, b)
        assert p_c == p_d == 0.0
        assert [nd.comp for nd in nxt] == [(0, 1, 2), (0, 0, 1)]
        assert [nd.p for nd in nxt] == pytest.approx([0.375, 0.375])
        assert [nd.t for nd in nxt] == [(2, 0, 0), (2, 0)]  # first child's t kept

    def test_different_sign_patterns_stay_apart(self):
        a = Node(0.25, (0, 1), (1, 0))
        b = Node(0.5, (0, 1), (0, 1))
        nxt, _, _ = self._layer(a, b)
        assert len(nxt) == 4

    def test_different_component_patterns_stay_apart(self):
        a = Node(0.25, (0, 0), (1,))
        b = Node(0.5, (0, 1), (1, 1))
        nxt, _, _ = self._layer(a, b)
        assert len(nxt) == 4

    def test_layer_is_transitions_grouped_by_pattern(self):
        # expand_layer keeps exactly one node per (comp, sign) pattern of the
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
                            key = (res[0], res[2])
                            expected[key] = expected.get(key, 0.0) + mass
                nodes, _, _ = _expand(g, t, layer, nodes)
                got = {(nd.comp, tuple(x > 0 for x in nd.t)): nd.p for nd in nodes}
                assert got.keys() == expected.keys()
                for key, mass in expected.items():
                    assert got[key] == pytest.approx(mass, abs=1e-15)


class TestPriority:
    def test_formula(self):
        nd = Node(0.1, (0,), (2,))
        assert node_priority(nd, 4, (3,)) == pytest.approx(0.05)

    def test_zero_without_terminals(self):
        nd = Node(0.9, (0, 1), (0, 0))
        assert node_priority(nd, 3, (2, 2)) == 0.0

    def test_linear_in_mass(self):
        lo = Node(0.1, (0,), (1,))
        hi = Node(0.4, (0,), (1,))
        assert node_priority(hi, 3, (2,)) == pytest.approx(
            4 * node_priority(lo, 3, (2,))
        )

    def test_component_degree_sums_its_frontier_vertices(self):
        # d of component 0 is 1 + 2 = 3, so it scores max(1/3, 1/3)
        nd = Node(0.6, (0, 1, 0), (1, 0))
        assert node_priority(nd, 3, (1, 5, 2)) == pytest.approx(0.2)

    def test_split_layer_keeps_top(self):
        nodes = [Node(p, (0,), (1,)) for p in (0.1, 0.5, 0.3)]
        survivors, deleted = split_layer(nodes, 2, 2, (1,))
        assert [nd.p for nd in survivors] == [0.5, 0.3]
        assert [nd.p for nd in deleted] == [0.1]

    def test_split_layer_ties_keep_input_order(self):
        nodes = [Node(0.5, (0,), (1,)) for _ in range(4)]
        survivors, deleted = split_layer(nodes, 2, 2, (1,))
        assert survivors == nodes[:2] and deleted == nodes[2:]

    def test_split_layer_noop_when_under_width(self):
        nodes = [Node(0.5, (0,), (1,))]
        survivors, deleted = split_layer(nodes, 5, 2, (1,))
        assert survivors == nodes and deleted == []

    def test_rem_counts_incident_edges_after_the_layer(self, karate_graph):
        cases = [small_case(seed) for seed in range(60)]
        cases.append((karate_graph, TerminalSet.of([6, 7, 9, 18, 27])))
        for g, t in cases:
            eo = order_edges(g, t)
            for layer in range(g.m):
                later = [g.edges[eo.order[pos]] for pos in range(layer + 1, g.m)]
                expected = tuple(
                    sum(x in edge for edge in later) for x in eo.frontiers[layer + 1]
                )
                assert _make_step(g, eo, layer, t).rem == expected


class TestDeleteAndSample:
    def _layer(self, seed):
        g, t = small_case(seed, max_edges=10)
        eo = order_edges(g, t)
        nodes = [ROOT]
        layer = 0
        while len(nodes) < 4 and layer < g.m - 1:
            nodes, _, _ = _expand(g, t, layer, nodes)
            layer += 1
        rem = _make_step(g, eo, layer - 1, t).rem
        return g, eo, t, nodes, layer, rem

    def test_under_width_is_noop(self):
        _g, _eo, t, nodes, _layer, rem = self._layer(6)
        survivors, deleted = split_layer(nodes, len(nodes), t.k, rem)
        assert survivors == nodes
        assert deleted == []

    def test_deleted_nodes_become_a_stratum(self):
        g, eo, t, nodes, layer, rem = self._layer(6)
        assert len(nodes) >= 2
        survivors, deleted = split_layer(nodes, 1, t.k, rem)
        mass = sum(float(nd.p) for nd in deleted)
        stratum = sample_group_stratum(
            _stratum(eo, t, layer, "deleted", deleted, mass, 30), seed=0
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
            quotient, qterms = stratum_quotient(g, eo, layer, node, t)
            got = brute_force_reliability(quotient, qterms).reliability
            expected = _conditional_reliability(g, eo, t, decided)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_root_quotient_has_the_graphs_reliability(self):
        # the plain baseline samples the root's quotient in place of the graph
        for seed in range(40):
            g, t = small_case(seed)
            quotient, qterms = stratum_quotient(g, order_edges(g, t), 0, ROOT, t)
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
    comp = dict(zip(eo.frontiers[layer], node.comp))
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
            quotient, qterms = stratum_quotient(g, eo, layer, nodes[i], t)
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
    def _check(g, t, eo, st, seed):
        """Returns the hit nodes with an internal suffix edge."""
        successes, outcomes, chorded = _reference_stratum(
            g, eo, st.layer, t, _nodes(st), st.draws, seed, st.kind
        )
        mc = sample_group_stratum(st, seed=seed)
        ht = sample_group_stratum(st, seed=seed, want_outcomes=True)
        assert mc.successes == ht.successes == successes
        assert ht.outcomes == outcomes
        return chorded

    def _check_build_and_root(self, g, t, w, s, seed):
        """Returns the build's strata and their hit nodes with an internal edge."""
        build = _build(g, t, w, s, "double", None)
        chorded = sum(self._check(g, t, build.eo, st, seed) for st in build.strata)
        root = _stratum(build.eo, t, 0, "deleted", [ROOT], 1.0, 300)
        self._check(g, t, build.eo, root, seed)
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

    def _check_long_suffixes(self, monkeypatch, g, t, w, s, seed):
        """Per stratum: the MC stream ends where the reference's does.

        Returns the reference's and the MC sampler's ``random()`` calls,
        summed over the build's strata and its root.
        """
        streams = []

        def counting(root, *path):
            streams.append(_CountingRandom(rngmod.derive_seed(root, *path)))
            return streams[-1]

        monkeypatch.setattr(rngmod, "stream", counting)
        build = _build(g, t, w, s, "double", None)
        root = _stratum(build.eo, t, 0, "deleted", [ROOT], 1.0, 300)
        calls = [0, 0]
        for st in (*build.strata, root):
            streams.clear()
            self._check(g, t, build.eo, st, seed)
            ref, mc, ht = streams
            assert mc.getstate() == ref.getstate() == ht.getstate()
            assert mc.calls <= ref.calls == ht.calls
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
                                *stratum_quotient(g, build.eo, st.layer, nd, t)
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
            for w in (1, 2, 4):
                build = _build(g, t, w, 200, "double", None)
                for st in build.strata:
                    layer, mass, nodes = st.layer, st.mass, _nodes(st)
                    if mass > 0.5:
                        continue
                    suffix = _suffix_graph(g, build.eo, layer)
                    if len(nodes) << suffix.m > 64:
                        continue
                    masses = [float(nd.p) for nd in nodes]
                    total = 0.0  # summed in order, as the build sums
                    for x in masses:
                        total += x
                    table = []
                    for i, nd in enumerate(nodes):
                        quotient, qterms = stratum_quotient(g, build.eo, layer, nd, t)
                        bits = _crossing_bits(build.eo, layer, nd)
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
                            pr * ht_estimate(
                                [StratumDraw(mass, d, sum(o[2] for o in seq), list(seq))],
                                Bounds(0.0, 0.0),
                            )
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
