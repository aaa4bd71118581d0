import math
import random
import statistics
from fractions import Fraction

import pytest

from relnet.estimators import (
    Bounds,
    EstimateReport,
    EstimatorError,
    StratumDraw,
    combine_strata,
    ht_variance,
    inclusion_probability,
    mc_variance,
    reduced_sample_count,
    stratified_mc_variance,
)
from relnet.graph import TerminalSet, parse_graph, sample_possible_graph, terminals_connected, assignment_probability
from relnet.rng import stream


class TestBounds:
    def test_valid(self):
        b = Bounds(0.2, 0.3)
        assert b.lower == 0.2
        assert b.upper == 0.7
        assert b.undecided == pytest.approx(0.5)

    def test_mass_overflow_rejected(self):
        with pytest.raises(EstimatorError):
            Bounds(0.7, 0.6)

    def test_negative_rejected(self):
        with pytest.raises(EstimatorError):
            Bounds(-0.1, 0.0)


class TestVariances:
    def test_mc_variance_half(self):
        assert mc_variance(0.5, 100) == pytest.approx(0.0025)

    def test_mc_variance_degenerate(self):
        assert mc_variance(0.0, 10) == 0.0
        assert mc_variance(1.0, 10) == 0.0

    def test_mc_variance_point_three(self):
        assert mc_variance(0.3, 1000) == pytest.approx(2.1e-4)

    def test_stratified_shrinks(self):
        assert stratified_mc_variance(0.5, Bounds(0.2, 0.2), 100) == pytest.approx(0.0009)

    def test_stratified_zero_at_bound(self):
        assert stratified_mc_variance(0.2, Bounds(0.2, 0.1), 50) == 0.0

    def test_stratified_collapses_without_bounds(self):
        assert stratified_mc_variance(0.5, Bounds(), 100) == mc_variance(0.5, 100)

    def test_stratified_never_exceeds_plain(self):
        grid = [i / 20 for i in range(21)]
        for pc in grid:
            for pd in grid:
                if pc + pd > 1:
                    continue
                b = Bounds(pc, pd)
                for frac in range(11):
                    r = pc + (1 - pd - pc) * frac / 10
                    assert (
                        stratified_mc_variance(r, b, 37)
                        <= mc_variance(r, 37) + 1e-15
                    )

    def test_ht_variance_reduces_to_mc_without_mass(self):
        draws = [(0.0, True)] * 5
        assert ht_variance(0.4, draws, 5, Bounds()) == pytest.approx(mc_variance(0.4, 5))

    def test_ht_variance_single_draw_has_no_correction(self):
        assert ht_variance(0.4, [(0.3, True)], 1, Bounds()) == pytest.approx(mc_variance(0.4, 1))

    def test_ht_variance_matches_direct_formula(self):
        draws = [(0.11, True), (0.04, False), (0.2, True), (0.07, True)]
        s = 4
        r = 0.55
        # independent evaluation of the same simplified expression
        expected = r * (1 - r) / s - (s - 1) * sum(
            p * p for p, ok in draws if ok
        ) / (2 * s)
        assert ht_variance(r, draws, s, Bounds()) == pytest.approx(expected, abs=1e-15)


class TestReducedSampleCount:
    def test_golden_values(self):
        assert reduced_sample_count(10000, Bounds(0.0, 0.5)) == 5000
        assert reduced_sample_count(10000, Bounds(0.1, 0.1)) == 6400
        assert reduced_sample_count(10000, Bounds(0.1, 0.2)) == 6800
        assert reduced_sample_count(10000, Bounds(0.3, 0.1)) == 7200

    def test_no_bounds_no_reduction(self):
        assert reduced_sample_count(1000, Bounds()) == 1000

    def test_never_exceeds_request(self):
        for i in range(0, 101, 4):
            for j in range(0, 101 - i, 4):
                b = Bounds(i / 100, j / 100)
                assert 0 <= reduced_sample_count(777, b) <= 777

    def test_monotone_along_axes(self):
        # tightening the only active bound never raises the count
        s = 5000
        prev = s + 1
        for pc in [x / 50 for x in range(0, 50)]:
            cur = reduced_sample_count(s, Bounds(pc, 0.0))
            assert cur <= prev
            prev = cur
        prev = s + 1
        for pd in [x / 50 for x in range(0, 50)]:
            cur = reduced_sample_count(s, Bounds(0.0, pd))
            assert cur <= prev
            prev = cur

    def test_monotone_within_case_regions(self):
        # the closed form is piecewise; inside each case region the count
        # still falls as either bound grows
        s = 5000
        for pd in (0.3, 0.6):
            prev = s + 1
            hi = min(int(pd * 100), int((1 - pd) * 100))
            for pc in [x / 100 for x in range(1, hi)]:  # p_c < p_d
                cur = reduced_sample_count(s, Bounds(pc, pd))
                assert cur <= prev
                prev = cur
        for pc in (0.3, 0.6):
            prev = s + 1
            hi = min(int(pc * 100), int((1 - pc) * 100))
            for pd in [x / 100 for x in range(1, hi)]:  # p_d < p_c
                cur = reduced_sample_count(s, Bounds(pc, pd))
                assert cur <= prev
                prev = cur

    def test_budget_type(self):
        def report(s, s_reduced):
            return EstimateReport(
                estimate=0.5, bounds=Bounds(), s=s, s_reduced=s_reduced,
                samples_used=0, variance=0.0, estimator="mc",
            )

        rep = report(100, 40)
        assert rep.s == 100 and rep.s_reduced == 40
        with pytest.raises(EstimatorError):
            report(10, 11)

    def test_floats_first_equals_the_rational_path(self):
        # the closed form over the bounds' decimal readings, all in Fractions
        def factor(pc, pd):
            pc, pd = Fraction(str(pc)), Fraction(str(pd))
            if pc == 0:
                return 1 - pd
            if pd == 0:
                return 1 - pc
            if pc == pd:
                return 1 - 4 * pc * (1 - pc)
            if pc < pd:
                return 1 - 4 * pc * (1 - pd)
            return 1 - min(4 * pc * (1 - pc), 4 * (pc * (1 - pd) + (pd - pc)))

        rng = random.Random(20)
        pairs = [(0.0, 0.0), (0.0, 0.5), (0.1, 0.1), (0.1, 0.2), (0.3, 0.1)]
        pairs += [(i / 100, j / 100) for i in range(101) for j in range(101 - i)]
        for _ in range(2000):
            x = rng.random()
            pairs += [(0.0, x), (x, 0.0), (x / 2, x / 2)]
        for _ in range(5000):
            pc = rng.random() * rng.choice((1.0, 1e-3, 1e-8))
            pairs.append((pc, rng.random() * (1.0 - pc)))
        for _ in range(2000):
            # bounds on a 1/s grid, so that many products land on integers
            q = rng.choice((20, 100, 12345))
            i = rng.randrange(q + 1)
            pairs.append((i / q, rng.randrange(q + 1 - i) / q))
        sizes = (1, 20, 100, 10**4, 12345, 10**6)
        assert len(pairs) * len(sizes) >= 10**5
        on_integers = 0
        for pc, pd in pairs:
            f = factor(pc, pd)
            bounds = Bounds(pc, pd)
            for s in sizes:
                expected = max(0, min(s, math.floor(s * f)))
                assert reduced_sample_count(s, bounds) == expected, (pc, pd, s)
                on_integers += (s * f).denominator == 1
        assert on_integers > 10**4


class TestMcEstimate:
    def test_offset_plus_stratum(self):
        strata = [StratumDraw(mass=0.4, draws=20, successes=10)]
        assert combine_strata("mc", strata, Bounds(0.3, 0.0))[0] == pytest.approx(0.5)

    def test_bounds_only(self):
        assert combine_strata("mc", [], Bounds(0.7, 0.3))[0] == pytest.approx(0.7)

    def test_collapses_to_plain_mc(self):
        strata = [StratumDraw(mass=1.0, draws=100, successes=70)]
        assert combine_strata("mc", strata, Bounds())[0] == pytest.approx(0.7)

    def test_clamped_into_bounds(self):
        strata = [StratumDraw(mass=0.5, draws=10, successes=10)]
        est = combine_strata("mc", strata, Bounds(0.2, 0.4))[0]
        assert est <= 0.6 + 1e-12
        # a sum past 1 - p_d stays past it after the midpoint term, which
        # the one clamp then reads as exactly the upper bound
        strata = [StratumDraw(mass=0.3, draws=10, successes=10)]
        est = combine_strata("mc", strata, Bounds(0.35, 0.4), unsampled_mass=0.1)[0]
        assert est == 1.0 - 0.4


class TestHtEstimate:
    def test_certain_outcome_contributes_full_mass(self):
        strata = [
            StratumDraw(mass=0.25, draws=9, successes=9,
                        outcomes=[("x", 1.0, True)] * 9)
        ]
        assert combine_strata("ht", strata, Bounds(0.1, 0.0))[0] == pytest.approx(0.35)
        # pi = 1 for q = 1.0, so the outcome adds q itself
        assert inclusion_probability(1.0, 3) == 1.0
        strata = [StratumDraw(mass=1.0, draws=3, successes=3,
                              outcomes=[("x", 1.0, True)] * 3)]
        assert combine_strata("ht", strata, Bounds())[0] == 1.0

    def test_no_connected_draws_returns_lower_bound(self):
        strata = [
            StratumDraw(mass=0.5, draws=3, successes=0,
                        outcomes=[("a", 0.3, False), ("b", 0.3, False), ("a", 0.3, False)])
        ]
        assert combine_strata("ht", strata, Bounds(0.2, 0.1))[0] == pytest.approx(0.2)

    def test_outcome_below_double_resolution(self):
        # 1 - 1e-20 rounds to 1.0, so the naive (1-q)^d inclusion
        # probability is 0; the outcome still counts q / (d*q) = 1/d
        strata = [StratumDraw(mass=1.0, draws=10, successes=1,
                              outcomes=[("a", 1e-20, True)])]
        assert combine_strata("ht", strata, Bounds())[0] == pytest.approx(0.1)

    def test_zero_probability_counts_its_limit(self):
        # q underflowed to 0.0: q/pi tends to 1/d as q -> 0
        strata = [StratumDraw(mass=0.5, draws=4, successes=2,
                              outcomes=[("a", 0.0, True), ("b", 0.0, False),
                                        ("a", 0.0, True), ("c", 0.0, True)])]
        assert combine_strata("ht", strata, Bounds(0.25, 0.0))[0] == pytest.approx(0.25 + 0.5 * 2 / 4)

    def test_negative_probability_rejected(self):
        strata = [StratumDraw(mass=1.0, draws=1, successes=1,
                              outcomes=[("a", -0.1, True)])]
        with pytest.raises(EstimatorError):
            combine_strata("ht", strata, Bounds())

    def test_unbiased_on_two_edge_parallel_graph(self):
        # true reliability 0.75; empirical mean over repetitions
        g = parse_graph("0 1 0.5\n0 1 0.5")
        t = TerminalSet.of([0, 1])
        s = 50
        estimates = []
        for rep in range(200):
            rng = stream(900 + rep)
            outcomes = []
            hits = 0
            for _ in range(s):
                mask = sample_possible_graph(g, rng)
                ok = terminals_connected(g, mask, t)
                hits += ok
                outcomes.append((mask, assignment_probability(g, mask), ok))
            strata = [StratumDraw(mass=1.0, draws=s, successes=hits, outcomes=outcomes)]
            estimates.append(combine_strata("ht", strata, Bounds())[0])
        mean = statistics.fmean(estimates)
        se = statistics.stdev(estimates) / len(estimates) ** 0.5
        # the absolute term guards the near-degenerate regime where every
        # outcome is drawn in all repetitions and the spread collapses
        assert abs(mean - 0.75) < 3 * se + 1e-6


class TestCombineStrata:
    def test_unsampled_mass_contributes_midpoint(self):
        # half the unsampled mass to the estimate, that half squared to the
        # variance
        out = combine_strata("mc", [], Bounds(0.2, 0.2), unsampled_mass=0.6)
        assert out == pytest.approx((0.5, 0.09))
        # HT with no draws reports only the midpoint allowance too
        idle = [StratumDraw(mass=0.6, draws=0, successes=0)]
        out = combine_strata("ht", idle, Bounds(0.2, 0.2), unsampled_mass=0.6)
        assert out == pytest.approx((0.5, 0.09))
        # so does an MC stratum with mass but no draws, which adds nothing
        out = combine_strata("mc", [StratumDraw(mass=0.2, draws=0, successes=0)], Bounds())
        assert out == (0.0, 0.0)

    def test_unknown_kind(self):
        with pytest.raises(EstimatorError):
            combine_strata("median", [], Bounds())
