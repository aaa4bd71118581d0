import statistics
from fractions import Fraction

import pytest

from relnet import estimators
from relnet.diagram import exact_reliability
from relnet.exact import brute_force_reliability
from relnet.pipeline import (
    estimate_pipeline,
    exact_pipeline,
    plain_sample_estimate,
    split_budget,
)
from relnet.generate import random_connected_graph, random_terminals
from relnet.graph import TerminalSet, parse_graph
from conftest import small_case


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

    def test_samples_within_request(self):
        for seed in range(8):
            g, t = small_case(seed, max_edges=12)
            res = estimate_pipeline(g, t, s=100, w=1, seed=seed)
            assert res.samples_used <= 100


class TestExactPipeline:
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


class TestPlainSampling:
    def test_mc_is_mean_indicator(self):
        g, t = small_case(2, max_edges=12)
        s = 321
        res = plain_sample_estimate(g, t, s=s, seed=9)
        assert res.samples_used == s
        count = res.estimate * s
        assert count == pytest.approx(round(count), abs=1e-9)

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
