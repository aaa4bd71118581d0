import random
from fractions import Fraction

import pytest

from relnet.exact import EdgeCapExceeded, brute_force_reliability
from relnet.graph import TerminalSet, UncertainGraph, parse_graph, terminals_connected
from relnet.generate import random_connected_graph
from conftest import naive_reliability, small_case


def test_single_edge():
    g = parse_graph("0 1 0.7")
    res = brute_force_reliability(g, TerminalSet.of([0, 1]))
    assert res.reliability == pytest.approx(0.7, abs=1e-12)
    assert res.enumerated_count == 2


def test_two_parallel_edges():
    g = parse_graph("0 1 0.5\n0 1 0.5")
    res = brute_force_reliability(g, TerminalSet.of([0, 1]))
    assert res.reliability == pytest.approx(0.75, abs=1e-12)


def test_triangle_all_terminals():
    # all three connected iff at least two of the three edges exist:
    # 3 * (1/8) + 1/8 = 0.5
    g = parse_graph("0 1 0.5\n0 2 0.5\n1 2 0.5")
    res = brute_force_reliability(g, TerminalSet.of([0, 1, 2]))
    assert res.reliability == pytest.approx(0.5, abs=1e-12)
    assert res.enumerated_count == 8


def test_cap_enforced():
    g = random_connected_graph(8, 14, seed=1)
    with pytest.raises(EdgeCapExceeded):
        brute_force_reliability(g, TerminalSet.of([0, 1]), cap=10)


def test_matches_naive_enumeration():
    for seed in range(25):
        g, t = small_case(seed, max_edges=11)
        mine = brute_force_reliability(g, t).reliability
        ref = naive_reliability(g, t)
        assert mine == pytest.approx(ref, abs=1e-10)


def test_exact_fraction_mode():
    g = parse_graph("0 1 0.5\n0 2 0.5\n1 2 0.5")
    res = brute_force_reliability(g, TerminalSet.of([0, 1, 2]), exact=True)
    assert res.reliability == Fraction(1, 2)


def _fraction_enumeration(g, t):
    """Exact reliability by a fresh Fraction product per realization."""
    total = Fraction(0)
    for mask in range(1 << g.m):
        if terminals_connected(g, mask, t):
            prob = Fraction(1)
            for j, p in enumerate(g.prob_values(True)):
                prob *= p if mask >> j & 1 else 1 - p
            total += prob
    return total


def test_exact_mode_matches_fraction_enumeration():
    cases = [small_case(seed, max_edges=10) for seed in range(12)]
    # edges of probability 1 cannot be divided out of the running weight
    cases.append((parse_graph("0 1 1\n1 2 0.3\n0 2 1\n2 3 0.7\n1 3 1"),
                  TerminalSet.of([0, 3])))
    exact_probs = (Fraction(1, 3), Fraction(2, 7), Fraction(1), Fraction(5, 6))
    cases.append((UncertainGraph(3, ((0, 1), (1, 2), (0, 2), (0, 1)),
                                 tuple(float(p) for p in exact_probs), exact_probs),
                  TerminalSet.of([0, 2])))
    for g, t in cases:
        res = brute_force_reliability(g, t, exact=True).reliability
        assert isinstance(res, Fraction)
        assert res == _fraction_enumeration(g, t)


def test_probability_one_edges():
    g = parse_graph("0 1 1\n1 2 0.5")
    res = brute_force_reliability(g, TerminalSet.of([0, 2]))
    assert res.reliability == pytest.approx(0.5, abs=1e-12)


def test_all_certain_graph_is_reliable():
    g = parse_graph("0 1 1\n1 2 1\n2 3 1")
    res = brute_force_reliability(g, TerminalSet.of([0, 3]))
    assert res.reliability == pytest.approx(1.0, abs=1e-12)


def test_monotone_in_edge_probability():
    for seed in range(8):
        g, t = small_case(seed, max_edges=10)
        base = brute_force_reliability(g, t).reliability
        rng = random.Random(seed)
        j = rng.randrange(g.m)
        probs = list(g.probs)
        probs[j] = min(1.0, probs[j] + 0.2)
        bumped = type(g)(n=g.n, edges=g.edges, probs=tuple(probs))
        assert brute_force_reliability(bumped, t).reliability >= base - 1e-12


def test_isolatable_terminal_low_reliability():
    # terminal 3 hangs on one weak edge; reliability is capped by it
    g = parse_graph("0 1 0.9\n1 2 0.9\n2 3 0.05")
    r = brute_force_reliability(g, TerminalSet.of([0, 3])).reliability
    assert r <= 0.05 + 1e-12
