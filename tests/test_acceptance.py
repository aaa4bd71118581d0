"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one PASS line on success; a pytest failure is the FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import statistics
import time

import pytest

from relnet.diagram import BuildConfig, construct, exact_reliability
from relnet.estimators import Bounds, mc_variance, reduced_sample_count, stratified_mc_variance
from relnet.exact import brute_force_reliability
from relnet.graph import TerminalSet, UncertainGraph, write_graph
from relnet.generate import random_connected_graph, random_terminals, tree_rich_graph
from relnet.pipeline import estimate_pipeline, exact_pipeline, plain_sample_estimate
from relnet.reduction import build_structure_index, preprocess
from relnet.cli import main as cli_main

def _corpus_case(i: int):
    rng = random.Random(1000 + i)
    n = rng.randint(4, 10)
    m = rng.randint(n - 1, min(16, n * (n - 1) // 2))
    g = random_connected_graph(n, m, seed=3000 + i)
    k = (2, 3, 4)[i % 3]
    t = random_terminals(g, min(k, n), seed=3000 + i)
    return g, t


@pytest.fixture(scope="session")
def corpus():
    """200 seeded small graphs with their brute-force reliabilities."""
    out = []
    for i in range(200):
        g, t = _corpus_case(i)
        out.append((g, t, brute_force_reliability(g, t).reliability))
    return out


def test_criterion_1_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for g, t, ref in corpus:
        got = exact_reliability(g, t)
        worst = max(worst, abs(got - ref))
        assert abs(got - ref) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: 200 graphs, max |diagram - brute| = {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_2_bounds_sandwich(corpus):
    violations = 0
    checked = 0
    for idx, (g, t, ref) in enumerate(corpus):
        for w in (1, 2, 8, None):
            trace = []
            construct(
                g, t,
                BuildConfig(width=w, samples=200, seed=idx),
                trace=trace,
            )
            prev_c = prev_d = 0.0
            for row in trace:
                checked += 1
                if not (row["p_c"] <= ref + 1e-9 and ref <= 1 - row["p_d"] + 1e-9):
                    violations += 1
                if row["p_c"] < prev_c - 1e-12 or row["p_d"] < prev_d - 1e-12:
                    violations += 1
                prev_c, prev_d = row["p_c"], row["p_d"]
    assert violations == 0
    print(f"\nACCEPTANCE 2 PASS: {checked} layer checks across widths "
          f"{{1, 2, 8, inf}}, zero violations")


def test_criterion_3_sample_count_golden_table():
    golden = [
        (10000, 0.0, 0.5, 5000),
        (10000, 0.1, 0.1, 6400),
        (10000, 0.1, 0.2, 6800),
        (10000, 0.3, 0.1, 7200),
    ]
    for s, pc, pd, expected in golden:
        got = reduced_sample_count(s, Bounds(pc, pd))
        assert got == expected, (pc, pd, got, expected)
    over = 0
    for i in range(101):
        for j in range(101 - i):
            if reduced_sample_count(10000, Bounds(i / 100, j / 100)) > 10000:
                over += 1
    assert over == 0
    print("\nACCEPTANCE 3 PASS: golden counts 5000/6400/6800/7200 exact, "
          "s' <= s on the 101x101 simplex grid")


def test_criterion_4_variance_dominance():
    violations = 0
    checked = 0
    for i in range(101):
        for j in range(101 - i):
            b = Bounds(i / 100, j / 100)
            lo, hi = b.p_c, 1 - b.p_d
            for step in range(11):
                r = lo + (hi - lo) * step / 10
                checked += 1
                if stratified_mc_variance(r, b, 97) > mc_variance(r, 97) + 1e-15:
                    violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 4 PASS: stratified <= plain variance at {checked} "
          "grid points, zero violations")


def _reduction_corpus():
    """200 graphs: plain, bridge-heavy, and series/parallel-injected."""
    cases = []
    for i in range(100):
        rng = random.Random(7000 + i)
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(13, n * (n - 1) // 2))
        g = random_connected_graph(n, m, seed=7000 + i)
        cases.append((g, random_terminals(g, rng.randint(2, 3), seed=7000 + i)))
    for i in range(50):  # bridge-heavy: two blocks and a bridge
        rng = random.Random(8000 + i)
        left = random_connected_graph(4, rng.randint(4, 6), seed=8000 + 2 * i)
        right = random_connected_graph(4, rng.randint(4, 6), seed=8001 + 2 * i)
        edges = list(left.edges) + [(u + 4, v + 4) for u, v in right.edges]
        probs = list(left.probs) + list(right.probs)
        edges.append((rng.randrange(4), 4 + rng.randrange(4)))
        probs.append(round(rng.uniform(0.2, 0.9), 4))
        g = UncertainGraph(n=8, edges=tuple(edges), probs=tuple(probs))
        cases.append((g, TerminalSet.of(rng.sample(range(8), 2))))
    for i in range(50):  # series chains and parallel duplicates injected
        rng = random.Random(9000 + i)
        g0 = random_connected_graph(5, rng.randint(5, 7), seed=9000 + i)
        edges = list(g0.edges)
        probs = list(g0.probs)
        u, v = edges[0]
        edges.append((u, v))  # parallel duplicate
        probs.append(round(rng.uniform(0.2, 0.9), 4))
        w0 = rng.randrange(5)
        edges.append((w0, 5))  # pendant chain -> series after terminals chosen
        probs.append(round(rng.uniform(0.2, 0.9), 4))
        edges.append((5, 6))
        probs.append(round(rng.uniform(0.2, 0.9), 4))
        g = UncertainGraph(n=7, edges=tuple(edges), probs=tuple(probs))
        terms = {6, rng.randrange(5)}
        if len(terms) == 1:
            terms.add((next(iter(terms)) + 1) % 5)
        cases.append((g, TerminalSet.of(terms)))
    return cases


def test_criterion_5_reduction_preservation():
    cases = _reduction_corpus()
    assert len(cases) == 200
    with_bridges = 0
    worst = 0.0
    for g, t in cases:
        if build_structure_index(g).bridges:
            with_bridges += 1
        ref = brute_force_reliability(g, t).reliability
        deco = preprocess(g, t)
        prod = deco.bridge_factor
        for pg, pt in deco.parts:
            prod *= brute_force_reliability(pg, pt).reliability
        worst = max(worst, abs(prod - ref))
        assert abs(prod - ref) <= 1e-9
    assert with_bridges >= 50
    print(f"\nACCEPTANCE 5 PASS: 200 graphs ({with_bridges} with bridges), "
          f"max |product - brute| = {worst:.2e}")


def test_criterion_6_accuracy_at_desk_scale(karate_graph):
    terminals = random_terminals(karate_graph, 5, seed=7)
    ref = float(exact_reliability(karate_graph, terminals, width_cap=2_000_000))

    runs = 100
    ours = [
        estimate_pipeline(karate_graph, terminals, s=10000, w=10000, seed=i).estimate
        for i in range(runs)
    ]
    base = [
        plain_sample_estimate(karate_graph, terminals, s=10000, seed=i).estimate
        for i in range(runs)
    ]
    mean = statistics.fmean(ours)
    sd = statistics.stdev(ours)
    se = sd / runs ** 0.5
    assert abs(mean - ref) <= 3 * se + 1e-9
    var_ours = statistics.fmean((x - ref) ** 2 for x in ours)
    var_base = statistics.fmean((x - ref) ** 2 for x in base)
    assert var_ours <= var_base

    # sparse tree-rich graph: reduction reaches the exact regime, so the
    # error rate over repeated runs is identically zero
    g = tree_rich_graph(141, cycle_count=10, seed=9)
    t = random_terminals(g, 5, seed=9)
    exact_ref = float(exact_pipeline(g, t))
    err = 0.0
    for i in range(100):
        res = estimate_pipeline(g, t, s=10000, w=10000, seed=i)
        assert res.exact
        err += abs(res.estimate - exact_ref) / exact_ref
    assert err == 0.0
    print(f"\nACCEPTANCE 6 PASS: karate mean |bias| = {abs(mean - ref):.2e} "
          f"(<= 3 SE = {3 * se:.2e}), variance {var_ours:.2e} <= MC {var_base:.2e}; "
          "tree-rich error rate exactly 0 over 100 runs")


def test_criterion_7_sampling_efficiency():
    # part 1: on instances whose every allocation happened after the bounds
    # had reached 0.5, the draws taken never exceed the final reduced count
    s = 4000
    qualifying = 0
    for i in range(40):
        rng = random.Random(40 + i)
        n = rng.randint(6, 9)
        m = rng.randint(n + 2, min(16, n * (n - 1) // 2))
        g = random_connected_graph(n, m, seed=500 + i, lo=0.55, hi=0.95)
        t = random_terminals(g, 2, seed=500 + i)
        trace = []
        rep = construct(g, t, BuildConfig(width=2, samples=s, seed=i), trace=trace)
        alloc_rows = [r for r in trace if r["samples_drawn"] > 0]
        if not alloc_rows:
            continue
        if all(r["p_c"] + r["p_d"] >= 0.5 for r in alloc_rows):
            qualifying += 1
            s_final = reduced_sample_count(s, rep.bounds)
            assert rep.samples_used <= s_final, (
                i, rep.samples_used, s_final, rep.bounds
            )
    assert qualifying >= 10

    # part 2: sampling-phase wall time of the full pipeline stays within
    # the reduced-count share of the baseline, plus 25 percent overhead
    g = random_connected_graph(20, 40, seed=77, lo=0.5, hi=0.95)
    t = random_terminals(g, 4, seed=77)
    s_big = 20000
    base_times = []
    for rep_i in range(3):
        res_base = plain_sample_estimate(g, t, s=s_big, seed=rep_i)
        base_times.append(res_base.timings["sample"])
    t_base = statistics.median(base_times)
    pipe_times = []
    ratios = []
    for rep_i in range(3):
        res_pipe = estimate_pipeline(g, t, s=s_big, w=256, seed=rep_i)
        pipe_times.append(res_pipe.timings["sample"])
        ratios.append(res_pipe.s_reduced / s_big)
    t_pipe = statistics.median(pipe_times)
    ratio = statistics.median(ratios)
    assert t_pipe <= t_base * (ratio + 0.25), (t_pipe, t_base, ratio)
    print(f"\nACCEPTANCE 7 PASS: {qualifying} qualifying instances respect "
          f"s' cap; sampling time {t_pipe:.3f}s <= {t_base:.3f}s * "
          f"({ratio:.2f} + 0.25)")


def test_criterion_8_determinism(tmp_path):
    gf = tmp_path / "g.edges"
    write_graph(random_connected_graph(12, 24, seed=5), gf)
    blobs = []
    for i in range(3):
        out = tmp_path / f"run{i}.json"
        code = cli_main([
            "estimate", "--graph", str(gf), "--terminals", "0,5,11",
            "--s", "2000", "--w", "4", "--seed", "42",
            "--output", str(out),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    json.loads(blobs[0])  # schema sanity
    print("\nACCEPTANCE 8 PASS: three identical runs produced byte-identical "
          "JSON reports")
