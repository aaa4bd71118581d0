"""The statistical gate that a change moving drawn numbers must pass.

Sixty small enumerable instances, each estimated with twenty seeds at width
2 and 200 draws, against the naive oracle.  Only calls that do not read
exact are judged.  The gate has two halves:

* bias: the mean error over those calls is within 3 standard errors of 0,
  with the standard error taken from the errors' own spread;
* calibration: no such call reports variance 0, and at least 90% of them
  have an error within 2 reported standard deviations.

The MC estimator is gated; HT fails the calibration half and is left out.
"""

import math
import statistics

import pytest

from relnet.pipeline import estimate_pipeline
from conftest import naive_reliability, small_case

CASES = range(60)
SEEDS = range(20)


@pytest.fixture(scope="module")
def mc_calls():
    """(error, reported variance) of every non-exact MC call."""
    calls = []
    for case in CASES:
        g, t = small_case(case)
        ref = naive_reliability(g, t)
        for seed in SEEDS:
            res = estimate_pipeline(g, t, s=200, w=2, seed=seed)
            if not res.exact:
                calls.append((res.estimate - ref, res.variance))
    assert len(calls) >= 400  # the gate judges sampled calls, not exact ones
    return calls


def test_mc_is_unbiased(mc_calls):
    errors = [err for err, _ in mc_calls]
    se = statistics.stdev(errors) / math.sqrt(len(errors))
    assert abs(statistics.fmean(errors)) <= 3 * se


def test_mc_variance_covers_the_error(mc_calls):
    assert all(var > 0 for _, var in mc_calls)
    covered = sum(abs(err) <= 2 * math.sqrt(var) for err, var in mc_calls)
    assert covered >= 0.9 * len(mc_calls)
