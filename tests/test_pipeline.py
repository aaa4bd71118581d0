import json
import statistics
from fractions import Fraction
from functools import lru_cache

import pytest

from relnet import estimators, pipeline
from relnet.diagram import _build, exact_reliability
from relnet.exact import brute_force_reliability
from relnet.pipeline import (
    _decomposition,
    estimate_pipeline,
    exact_pipeline,
    plain_sample_estimate,
    split_budget,
)
from relnet.generate import grid_graph, random_connected_graph, random_terminals
from relnet.graph import TerminalSet, UncertainGraph, load_graph, parse_graph
from relnet.reduction import preprocess
from conftest import DATA_DIR, small_case


class TestSplitBudget:
    def test_proportional(self):
        assert split_budget(100, [3, 1]) == [75, 25]

    def test_minimum_one_per_part(self):
        alloc = split_budget(10, [1000, 1, 1])
        assert all(a >= 1 for a in alloc)
        assert sum(alloc) == 10

    def test_empty(self):
        assert split_budget(50, []) == []


class TestEstimatePipeline:
    def test_exact_on_decomposable_graph(self):
        g = random_connected_graph(6, 8, seed=4)
        t = random_terminals(g, 2, seed=4)
        res = estimate_pipeline(g, t, s=500, w=None, seed=0)
        ref = brute_force_reliability(g, t).reliability
        assert res.estimate == pytest.approx(ref, abs=1e-9)
        assert res.exact

    def test_bounds_bracket_estimate(self):
        for seed in range(10):
            g, t = small_case(seed, max_edges=12)
            res = estimate_pipeline(g, t, s=200, w=2, seed=seed)
            assert res.p_c - 1e-9 <= res.estimate <= 1 - res.p_d + 1e-9

    def test_with_and_without_preprocess_statistically_agree(self):
        g, t = small_case(23, max_edges=12)
        ref = brute_force_reliability(g, t).reliability
        with_red = []
        without = []
        for i in range(60):
            with_red.append(
                estimate_pipeline(g, t, s=200, w=2, seed=i).estimate
            )
            without.append(
                estimate_pipeline(g, t, s=200, w=2, seed=i,
                                  use_preprocess=False).estimate
            )
        for values in (with_red, without):
            mean = statistics.fmean(values)
            sd = statistics.stdev(values)
            se = sd / len(values) ** 0.5
            assert abs(mean - ref) <= 3 * se + 1e-9

    @pytest.mark.parametrize("text", [
        "0 1 0.5\n1 2 0.5",  # both edges are bridges
        "0 1 0.5\n1 2 0.5\n0 2 0.5",  # collapses to a bridge
    ], ids=["path", "triangle"])
    @pytest.mark.parametrize("option", [
        {"s": -5}, {"w": 0}, {"estimator": "bogus"}, {"precision": "fuzzy"},
    ], ids=["s", "w", "estimator", "precision"])
    def test_options_are_checked_when_no_part_is_left(self, text, option):
        g = parse_graph(text)
        t = TerminalSet.of([0, 2])
        assert preprocess(g, t).parts == ()
        with pytest.raises(ValueError):
            estimate_pipeline(g, t, **{"s": 10, "w": 4, **option})

    def test_samples_within_request(self):
        for seed in range(8):
            g, t = small_case(seed, max_edges=12)
            res = estimate_pipeline(g, t, s=100, w=1, seed=seed)
            assert res.samples_used <= 100


class TestDecompositionReuse:
    KARATE_TERMINALS = TerminalSet.of([6, 7, 9, 18, 27])

    @staticmethod
    def _count_preprocess(monkeypatch):
        calls = []
        real = pipeline.preprocess

        def counting(g, terminals):
            calls.append(g)
            return real(g, terminals)

        monkeypatch.setattr(pipeline, "preprocess", counting)
        _decomposition.cache_clear()
        return calls

    def test_same_input_preprocesses_once(self, karate_graph, monkeypatch):
        calls = self._count_preprocess(monkeypatch)
        t = self.KARATE_TERMINALS
        for seed in (1, 2):
            estimate_pipeline(karate_graph, t, s=500, w=50, seed=seed)
        assert len(calls) == 1
        other = random_connected_graph(12, 20, seed=3)
        other_t = random_terminals(other, 3, seed=3)
        for g, terminals in ((other, other_t), (karate_graph, t)):
            estimate_pipeline(g, terminals, s=500, w=50, seed=3)
        assert len(calls) == 3

    @pytest.mark.parametrize("estimator, precision", [
        ("mc", "double"), ("ht", "double"), ("mc", "exact"),
    ])
    def test_reused_call_matches_a_fresh_one(self, karate_graph, estimator,
                                             precision):
        t = self.KARATE_TERMINALS

        def call(seed):
            rows = []
            res = estimate_pipeline(karate_graph, t, s=2000, w=100, seed=seed,
                                    estimator=estimator, precision=precision,
                                    trace=rows)
            return res.to_dict(), rows

        _decomposition.cache_clear()
        _build.cache_clear()
        call(1)
        reused = call(2)
        assert _decomposition.cache_info().hits == _build.cache_info().hits == 1
        _decomposition.cache_clear()
        _build.cache_clear()
        fresh = call(2)
        assert reused == fresh
        assert fresh[0]["samples_used"] > 0

    def test_exact_probs_are_part_of_the_key(self):
        decimal = parse_graph("0 1 0.1\n1 2 0.1")
        binary = UncertainGraph(
            decimal.n, decimal.edges, decimal.probs,
            exact_probs=tuple(Fraction(p) for p in decimal.probs),
        )
        assert decimal != binary
        t = TerminalSet.of([0, 2])

        def factor(g):
            res = estimate_pipeline(g, t, s=10, w=None, precision="exact")
            return res.raw["bridge_factor"]

        a = factor(decimal)
        b = factor(binary)
        assert a == "1/100" and a != b
        _decomposition.cache_clear()
        _build.cache_clear()
        assert factor(binary) == b

    def test_warm_call_hashes_no_probability(self, monkeypatch):
        # each graph caches its hash, so a repeated call's cache keys do not
        # walk the exact probabilities again
        g = load_graph(DATA_DIR / "karate.edges")
        t = self.KARATE_TERMINALS
        _decomposition.cache_clear()
        _build.cache_clear()
        estimate_pipeline(g, t, s=1000, w=100, seed=1)
        calls = []
        real = Fraction.__hash__

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        estimate_pipeline(g, t, s=1000, w=100, seed=2)
        assert _decomposition.cache_info().hits == _build.cache_info().hits == 1
        assert calls == []

    @pytest.mark.parametrize("estimator", ["mc", "ht"])
    @pytest.mark.parametrize("case", ["karate", "grid10"])
    def test_report_does_not_depend_on_the_cache_state(self, karate_graph, case,
                                                       estimator):
        # a build's strata gain start states as draws pick their nodes;
        # the report for a seed is the same cold, warm and after a clear
        if case == "karate":
            g, t = karate_graph, self.KARATE_TERMINALS
        else:
            g, t = grid_graph(10, 10, seed=0), TerminalSet.of([0, 55, 99])

        def call(seed):
            rows = []
            res = estimate_pipeline(g, t, s=10000, w=100, seed=seed,
                                    estimator=estimator, trace=rows)
            return json.dumps(res.to_dict(), sort_keys=True), rows

        _decomposition.cache_clear()
        _build.cache_clear()
        cold = call(5)
        for seed in (1, 2, 3):
            call(seed)
        warm = call(5)
        _build.cache_clear()
        cleared = call(5)
        assert cold == warm == cleared
        assert json.loads(cold[0])["samples_used"] > 0

    def test_preprocess_flag_is_part_of_the_key(self, karate_graph, monkeypatch):
        calls = self._count_preprocess(monkeypatch)
        t = self.KARATE_TERMINALS
        reduced = estimate_pipeline(karate_graph, t, s=500, w=50)
        whole = estimate_pipeline(karate_graph, t, s=500, w=50,
                                  use_preprocess=False)
        assert len(calls) == 1
        assert reduced.preprocessed and not whole.preprocessed
        assert whole.part_shapes == [(karate_graph.n, karate_graph.m)]
        assert reduced.part_shapes != whole.part_shapes


@lru_cache(maxsize=1)
def _float_only_corpus():
    """Graphs made from floats alone, with their exact brute-force values.

    A triangle whose reduction merges 0.1 * 0.1 with 0.1, and 200 random
    graphs with 9 vertices and 13 edges, three terminals each.
    """
    cases = [(UncertainGraph(3, ((0, 1), (1, 2), (0, 2)), (0.1, 0.1, 0.1)),
              TerminalSet.of([0, 2]))]
    for seed in range(200):
        g = random_connected_graph(9, 13, seed=seed)
        cases.append((g, random_terminals(g, 3, seed=seed)))
    return [
        (g, t, brute_force_reliability(g, t, exact=True).reliability)
        for g, t in cases
    ]


class TestExactPipeline:
    def test_exact_precision_matches_brute_force_on_float_graphs(self):
        # reduction multiplies the floats' exact readings, not the floats
        assert _float_only_corpus()[0][2] == Fraction(109, 1000)
        for g, t, ref in _float_only_corpus():
            assert exact_pipeline(g, t, precision="exact") == ref

    def test_exact_estimate_matches_brute_force_on_float_graphs(self):
        for g, t, ref in _float_only_corpus():
            res = estimate_pipeline(g, t, s=10, w=None, precision="exact")
            assert Fraction(res.raw["estimate"]) == ref

    def test_matches_brute_force(self):
        for seed in range(15):
            g, t = small_case(seed, max_edges=13)
            assert float(exact_pipeline(g, t)) == pytest.approx(
                brute_force_reliability(g, t).reliability, abs=1e-9
            )

    def test_no_preprocess_variant(self):
        g, t = small_case(3, max_edges=12)
        a = float(exact_pipeline(g, t))
        b = float(exact_reliability(g, t))
        assert a == pytest.approx(b, abs=1e-9)


class TestDisconnectedTerminals:
    # terminals in different components: no realization connects them
    CASES = (
        ("0 1 0.5\n2 3 0.6", [0, 2]),
        ("0 1 0.5\n1 2 0.5\n0 2 0.5\n3 4 0.5\n4 5 0.5\n3 5 0.5", [0, 1, 4]),
    )

    @pytest.mark.parametrize("text, terms", CASES)
    def test_reliability_is_zero(self, text, terms):
        g = parse_graph(text, require_connected=False)
        t = TerminalSet.of(terms)
        ref = brute_force_reliability(g, t).reliability
        ref_exact = brute_force_reliability(g, t, exact=True).reliability
        assert ref == 0.0 and ref_exact == 0
        for w in (2, None):
            res = estimate_pipeline(g, t, s=100, w=w, seed=0)
            assert res.estimate == ref and res.exact
            res = estimate_pipeline(g, t, s=100, w=w, seed=0, precision="exact")
            assert res.estimate == ref and res.exact
            assert Fraction(res.raw["estimate"]) == ref_exact
        assert exact_pipeline(g, t) == ref
        assert exact_pipeline(g, t, precision="exact") == ref_exact

    def test_reads_zero_without_preprocessing(self):
        g = parse_graph(self.CASES[0][0], require_connected=False)
        t = TerminalSet.of(self.CASES[0][1])
        for w in (2, None):
            for precision in ("double", "exact"):
                res = estimate_pipeline(g, t, s=100, w=w, seed=0, precision=precision,
                                        use_preprocess=False)
                assert res.estimate == 0.0 and res.exact and not res.parts
                assert res.p_c == 0.0 and res.p_d == 1.0
                if precision == "exact":
                    assert res.raw == {"bridge_factor": "0", "estimate": "0"}


class TestPlainSampling:
    def test_mc_is_mean_indicator(self):
        g, t = small_case(2, max_edges=12)
        s = 321
        res = plain_sample_estimate(g, t, s=s, seed=9)
        assert res.samples_used == s
        count = res.estimate * s
        assert count == pytest.approx(round(count), abs=1e-9)

    @pytest.mark.parametrize("option", [{"s": 0}, {"estimator": "xx"}],
                             ids=["s", "estimator"])
    def test_options_are_checked_before_drawing(self, option, monkeypatch):
        def sampler(*args, **kwargs):
            raise AssertionError("drew before checking the options")

        monkeypatch.setattr(pipeline, "sample_group_stratum", sampler)
        g, t = small_case(2, max_edges=12)
        with pytest.raises(ValueError):
            plain_sample_estimate(g, t, **{"s": 100, **option})

    def test_mc_statistically_unbiased(self):
        g, t = small_case(17, max_edges=12)
        ref = brute_force_reliability(g, t).reliability
        ests = [plain_sample_estimate(g, t, s=250, seed=i).estimate
                for i in range(60)]
        mean = statistics.fmean(ests)
        se = statistics.stdev(ests) / len(ests) ** 0.5
        assert abs(mean - ref) <= 3 * se + 1e-9

    def test_ht_with_realizations_below_double_resolution(self):
        # every realization of 60 parallel edges has mass 2^-60, so 1 - pr
        # rounds to 1.0; nearly every draw is a distinct connected outcome
        g = parse_graph("\n".join(["0 1 0.5"] * 60))
        res = plain_sample_estimate(g, TerminalSet.of([0, 1]), s=100,
                                    estimator="ht", seed=0)
        assert res.estimate == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("copies, p, expected", [
        (3, 0.9, 1.0),
        (60, 0.5, 1.0),
    ])
    def test_ht_variance_clamped_at_zero(self, copies, p, expected, monkeypatch):
        # the simplified HT correction overshoots on parallel edges (about
        # -18.75 and -3.7e-35 unclamped at seed 0); the reported variance is
        # clamped at 0 and the estimate must not move
        unclamped = []
        real = estimators.ht_variance

        def spy(*args):
            unclamped.append(real(*args))
            return unclamped[-1]

        monkeypatch.setattr(estimators, "ht_variance", spy)
        g = parse_graph("\n".join([f"0 1 {p}"] * copies))
        res = plain_sample_estimate(g, TerminalSet.of([0, 1]), s=100,
                                    estimator="ht", seed=0)
        assert res.estimate == expected
        assert unclamped and unclamped[0] < 0.0
        assert res.variance == 0.0

    def test_ht_with_realizations_that_underflow_to_zero(self):
        # every realization of 1100 parallel edges has mass 2^-1100, which
        # underflows to 0.0; each connected draw still counts 1/s
        g = parse_graph("\n".join(["0 1 0.5"] * 1100))
        t = TerminalSet.of([0, 1])
        ht = plain_sample_estimate(g, t, s=20, estimator="ht", seed=0)
        mc = plain_sample_estimate(g, t, s=20, estimator="mc", seed=0)
        assert 0.0 <= ht.estimate <= 1.0
        assert ht.estimate == pytest.approx(mc.estimate, abs=1e-9)
        assert mc.estimate == 1.0
        assert ht.variance >= 0.0

    def test_ht_estimator_runs_and_brackets(self):
        g, t = small_case(6, max_edges=12)
        res = plain_sample_estimate(g, t, s=300, estimator="ht", seed=3)
        assert 0.0 <= res.estimate <= 1.0
