"""End-to-end estimation: preprocess, per-part construction, product.

The reliability of a decomposed problem is the bridge factor times the
product of the parts' reliabilities, so per-part estimates (or exact values)
combine multiplicatively.  Sample budgets split across parts proportionally
to edge counts.  :func:`estimate_pipeline` assembles every result: width
``None`` is the exact construction, and width 0 deletes each part's root
before layer 1, so its one stratum draws every edge.  The plain-sampling
baseline, :func:`plain_sample_estimate`, is width 0 over the whole graph,
without preprocessing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import rng as rngmod
from .diagram import DEFAULT_WIDTH_CAP, BuildConfig, construct
from .estimators import EstimateReport
from .graph import GraphInvariantError, TerminalSet, UncertainGraph
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
    width_cap: Optional[int] = DEFAULT_WIDTH_CAP,
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
    # product variance, one part at a time: for independent X and a part
    # with estimate r and variance v, Var(X r) = Var(X)(v + r^2) + v E[X]^2.
    # Every term is nonnegative, so nothing cancels; the bridge factor is
    # deterministic and scales the result by its square
    var_acc = 0.0
    sq_acc = 1.0
    for rep in parts:
        estimate *= rep.estimate
        lower *= rep.bounds.p_c
        upper *= 1.0 - rep.bounds.p_d
        all_exact = all_exact and rep.exact
        samples_used += rep.samples_used
        s_reduced += rep.s_reduced
        r2 = rep.estimate * rep.estimate
        var_acc = var_acc * (rep.variance + r2) + rep.variance * sq_acc
        sq_acc *= r2
    variance = pb * pb * var_acc
    s_reduced = min(s, s_reduced) if parts else 0

    result = PipelineResult(
        estimate=estimate,
        bridge_factor=pb,
        p_c=lower,
        p_d=1.0 - upper,
        s=s,
        s_reduced=s_reduced,
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
    width_cap: int = DEFAULT_WIDTH_CAP,
    precision: str = "double",
) -> Probability:
    """Exact reliability: :func:`estimate_pipeline` with no width and no draws.

    Each part is solved by the unbounded construction.  This is the
    reference ``relnet bench`` compares estimates against.
    """
    res = estimate_pipeline(
        g, terminals, s=0, w=None, precision=precision, width_cap=width_cap
    )
    if not res.exact:
        raise GraphInvariantError("construction left mass undecided in exact run")
    return Fraction(res.raw["estimate"]) if precision == "exact" else res.estimate


# ---------------------------------------------------------------------------
# Plain-sampling baseline (width 0, no preprocessing)
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

    This is :func:`estimate_pipeline` at width 0 without preprocessing: the
    diagram's root is deleted before layer 1, so one stratum of mass 1 with
    bounds of 0 draws every edge.  Like any construction, it needs every
    edge reachable from the smallest terminal, and a repeated call reuses
    the build.
    """
    if s < 1:
        raise ValueError("sample count must be >= 1")
    return estimate_pipeline(
        g, terminals, s=s, w=0, estimator=estimator, seed=seed,
        use_preprocess=False,
    )
