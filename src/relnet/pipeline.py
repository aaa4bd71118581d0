"""End-to-end estimation: preprocess, per-part construction, product.

The reliability of a decomposed problem is the bridge factor times the
product of the parts' reliabilities, so per-part estimates (or exact values)
combine multiplicatively.  Sample budgets split across parts proportionally
to edge counts.  A plain-sampling baseline without bounds or preprocessing
is provided for comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import rng as rngmod
from .diagram import (
    BuildConfig,
    Stratum,
    construct,
    exact_reliability,
    order_edges,
    sample_group_stratum,
)
from .estimators import (
    Bounds,
    EstimateReport,
    combine_strata,
    reduced_sample_count,
    strata_variance,
)
from .graph import TerminalSet, UncertainGraph
from .numerics import Probability, round_sig
from .reduction import Decomposition, preprocess, undecomposed


@dataclass
class PipelineResult:
    estimate: float
    bridge_factor: float
    p_c: float  # product-form lower bound
    p_d: float  # complement of the product-form upper bound
    s: int
    s_reduced: int
    samples_used: int
    variance: float
    estimator: str
    exact: bool
    preprocessed: bool
    parts: list[EstimateReport] = field(default_factory=list)
    part_shapes: list[tuple[int, int]] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    raw: dict[str, str] = field(default_factory=dict)

    def to_dict(self, *, include_timings: bool = False) -> dict:
        out = {
            "estimate": round_sig(self.estimate),
            "bridge_factor": round_sig(self.bridge_factor),
            "p_c": round_sig(self.p_c),
            "p_d": round_sig(self.p_d),
            "s": self.s,
            "s_reduced": self.s_reduced,
            "samples_used": self.samples_used,
            "variance": round_sig(self.variance),
            "estimator": self.estimator,
            "exact": self.exact,
            "preprocessed": self.preprocessed,
            "parts": [
                dict(p.to_dict(include_timings=include_timings),
                     n=shape[0], m=shape[1])
                for p, shape in zip(self.parts, self.part_shapes)
            ],
        }
        if self.raw:
            out["raw"] = dict(sorted(self.raw.items()))
        if include_timings:
            out["timings"] = {k: round(v, 6) for k, v in sorted(self.timings.items())}
        return out


def split_budget(total: int, weights: list[int]) -> list[int]:
    """Proportional split with a minimum of one per positive-weight part."""
    n = len(weights)
    if n == 0:
        return []
    wsum = sum(weights)
    if wsum <= 0 or total <= 0:
        return [0] * n
    shares = [total * w / wsum for w in weights]
    alloc = [int(x) for x in shares]
    leftover = total - sum(alloc)
    order = sorted(range(n), key=lambda i: (-(shares[i] - alloc[i]), i))
    for i in order[:leftover]:
        alloc[i] += 1
    for i in range(n):
        if alloc[i] == 0 and weights[i] > 0:
            donor = max(range(n), key=lambda j: alloc[j])
            if alloc[donor] >= 2:
                alloc[donor] -= 1
                alloc[i] = 1
    return alloc


@lru_cache(maxsize=1)
def _decomposition(
    g: UncertainGraph, terminals: TerminalSet, use_preprocess: bool
) -> Decomposition:
    """The seed-free first step of :func:`estimate_pipeline`, reused.

    The result is frozen and holds only tuples, so calls share it.
    """
    # a miss: drop the previous decomposition now, so at most one is alive
    _decomposition.cache_clear()
    return preprocess(g, terminals) if use_preprocess else undecomposed(g, terminals)


def estimate_pipeline(
    g: UncertainGraph,
    terminals: TerminalSet,
    *,
    s: int,
    w: Optional[int],
    estimator: str = "mc",
    seed: int = 0,
    precision: str = "double",
    use_preprocess: bool = True,
    width_cap: Optional[int] = 1_000_000,
    trace: Optional[list] = None,
) -> PipelineResult:
    """Full pipeline: preprocess, construct per part, combine by product.

    The most recent decomposition is reused when only the seed, the
    estimator or the budgets change.  Options are checked once, up front.
    """
    config = BuildConfig(
        width=w, samples=s, estimator=estimator, seed=seed,
        precision=precision, width_cap=width_cap,
    )
    t0 = time.perf_counter()
    deco = _decomposition(g, terminals, use_preprocess)
    t_pre = time.perf_counter() - t0

    budgets = split_budget(s, [pg.m for pg, _ in deco.parts])
    parts: list[EstimateReport] = []
    shapes: list[tuple[int, int]] = []
    construct_time = 0.0
    sample_time = 0.0
    for idx, ((pg, pt), budget) in enumerate(zip(deco.parts, budgets)):
        # the parts share the one checked config; only budget and seed differ
        config.samples = budget
        config.seed = rngmod.derive_seed(seed, "part", idx)
        rep = construct(pg, pt, config, trace=trace)
        parts.append(rep)
        shapes.append((pg.n, pg.m))
        construct_time += rep.timings.get("construct", 0.0)
        sample_time += rep.timings.get("sample", 0.0)

    pb = deco.bridge_factor
    estimate = pb
    lower = pb
    upper = pb
    all_exact = True
    samples_used = 0
    s_reduced = 0
    # product variance: Var(prod) = prod(v_i + r_i^2) - prod(r_i^2), scaled
    # by the squared (deterministic) bridge factor
    var_acc = 1.0
    sq_acc = 1.0
    for rep in parts:
        estimate *= rep.estimate
        lower *= rep.bounds.p_c
        upper *= 1.0 - rep.bounds.p_d
        all_exact = all_exact and rep.exact
        samples_used += rep.samples_used
        s_reduced += rep.budget.reduced
        var_acc *= rep.variance + rep.estimate * rep.estimate
        sq_acc *= rep.estimate * rep.estimate
    variance = max(0.0, pb * pb * (var_acc - sq_acc))
    s_reduced = min(s, s_reduced) if parts else 0

    result = PipelineResult(
        estimate=estimate,
        bridge_factor=pb,
        p_c=lower,
        p_d=1.0 - upper,
        s=s,
        s_reduced=s_reduced if parts else 0,
        samples_used=samples_used,
        variance=variance,
        estimator=estimator,
        exact=all_exact,
        preprocessed=use_preprocess,
        parts=parts,
        part_shapes=shapes,
        timings={
            "preprocess": t_pre,
            "construct": construct_time,
            "sample": sample_time,
            "total": time.perf_counter() - t0,
        },
    )
    if precision == "exact":
        result.raw["bridge_factor"] = str(deco.bridge_factor_exact)
        if all_exact:
            value = deco.bridge_factor_exact
            for rep in parts:
                value *= Fraction(rep.raw["estimate"])
            result.raw["estimate"] = str(value)
    return result


def exact_pipeline(
    g: UncertainGraph,
    terminals: TerminalSet,
    *,
    width_cap: int = 1_000_000,
    precision: str = "double",
) -> Probability:
    """Exact reliability through the same decomposition path.

    This is the reference the benchmark harness compares estimates against;
    parts are solved by the unbounded construction.
    """
    deco = preprocess(g, terminals)
    value: Probability = (
        deco.bridge_factor_exact if precision == "exact" else deco.bridge_factor
    )
    for pg, pt in deco.parts:
        value = value * exact_reliability(
            pg, pt, width_cap=width_cap, precision=precision
        )
    return value


# ---------------------------------------------------------------------------
# Plain-sampling baselines (no bounds, no preprocessing)
# ---------------------------------------------------------------------------

def plain_sample_estimate(
    g: UncertainGraph,
    terminals: TerminalSet,
    *,
    s: int,
    estimator: str = "mc",
    seed: int = 0,
) -> PipelineResult:
    """Independent draws over the whole realization space.

    The whole space is the root of a width-0 diagram, deleted before layer
    1: one stratum of mass 1 with bounds of 0, drawn by the diagram's
    sampler and combined and assessed by the same estimator code as the
    diagram's strata.  Like :func:`construct`, it needs every edge
    reachable from the smallest terminal.
    """
    terminals.validate(g)
    if s < 1:
        raise ValueError("sample count must be >= 1")
    if estimator not in ("mc", "ht"):
        raise ValueError("estimator must be 'mc' or 'ht'")
    t0 = time.perf_counter()
    root = Stratum(
        order_edges(g, terminals), terminals, 0, "deleted",
        (1.0,), ((),), ((),), 1.0, s,
    )
    strata = [
        sample_group_stratum(root, seed=seed, want_outcomes=estimator == "ht")
    ]
    bounds = Bounds(0.0, 0.0)
    est = combine_strata(estimator, strata, bounds)
    variance = strata_variance(estimator, strata, bounds, est, s)
    elapsed = time.perf_counter() - t0
    return PipelineResult(
        estimate=est,
        bridge_factor=1.0,
        p_c=bounds.p_c,
        p_d=bounds.p_d,
        s=s,
        s_reduced=reduced_sample_count(s, bounds),
        samples_used=s,
        variance=variance,
        estimator=estimator,
        exact=False,
        preprocessed=False,
        timings={"preprocess": 0.0, "construct": 0.0, "sample": elapsed, "total": elapsed},
    )
