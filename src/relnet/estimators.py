"""Estimators and the bounds-driven sample-count reduction.

The realization space splits into three groups: proven connected (mass
``p_c``), proven disconnected (mass ``p_d``), and undecided.  Only the
undecided region is ever sampled, which turns plain Monte Carlo into a
stratified scheme whose variance shrinks as the bounds tighten, and lets the
requested sample count be cut ahead of time without losing accuracy.

Count reductions are computed in exact rational arithmetic over the decimal
reading of the bounds, so floor thresholds land exactly (10000 samples with
p_c = p_d = 0.1 reduce to 6400, not 6399).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from .numerics import PROB_TOLERANCE, clamp, round_sig, to_fraction


class EstimatorError(ValueError):
    pass


@dataclass(frozen=True)
class Bounds:
    """Running lower/upper reliability bounds: p_c <= R <= 1 - p_d."""

    p_c: float = 0.0
    p_d: float = 0.0

    def __post_init__(self) -> None:
        if self.p_c < 0 or self.p_d < 0:
            raise EstimatorError("bound masses must be nonnegative")
        if self.p_c + self.p_d > 1.0 + PROB_TOLERANCE:
            raise EstimatorError(f"p_c + p_d = {self.p_c + self.p_d} exceeds 1")

    @property
    def lower(self) -> float:
        return self.p_c

    @property
    def upper(self) -> float:
        return 1.0 - self.p_d

    @property
    def undecided(self) -> float:
        return max(0.0, 1.0 - self.p_c - self.p_d)

    @property
    def width(self) -> float:
        return max(0.0, self.upper - self.lower)


@dataclass(frozen=True)
class SampleBudget:
    requested: int
    reduced: int

    def __post_init__(self) -> None:
        if not (0 <= self.reduced <= self.requested):
            raise EstimatorError("reduced count outside [0, requested]")


@dataclass
class StratumDraw:
    """Sampling record for one stratum of the undecided region.

    ``mass`` is the stratum's absolute probability mass.  For the
    Horvitz-Thompson estimator, ``outcomes`` holds one record per draw:
    (outcome identity, probability of the outcome conditioned on the stratum,
    connected flag).  Identities distinguish realizations that happen to
    share a probability; duplicates of the same identity are one sampled
    unit.
    """

    mass: float
    draws: int
    successes: int
    outcomes: Optional[list[tuple[Hashable, float, bool]]] = None

    def __post_init__(self) -> None:
        if self.successes > self.draws:
            raise EstimatorError("more successes than draws")
        if self.mass < 0:
            raise EstimatorError("negative stratum mass")


# ---------------------------------------------------------------------------
# Variance formulas
# ---------------------------------------------------------------------------

def mc_variance(r_hat: float, s: int) -> float:
    """Plain Monte Carlo variance estimate R(1-R)/s."""
    if s < 1:
        raise EstimatorError("sample count must be >= 1")
    return r_hat * (1.0 - r_hat) / s


def stratified_mc_variance(r_hat: float, bounds: Bounds, s: int) -> float:
    """Variance with the decided strata removed: (R-p_c)(1-p_d-R)/s.

    Never exceeds :func:`mc_variance` for the same estimate and count.
    """
    if s < 1:
        raise EstimatorError("sample count must be >= 1")
    if r_hat < bounds.p_c - PROB_TOLERANCE or r_hat > 1.0 - bounds.p_d + PROB_TOLERANCE:
        raise EstimatorError(
            f"estimate {r_hat} outside bounds [{bounds.p_c}, {1.0 - bounds.p_d}]"
        )
    return max(0.0, (r_hat - bounds.p_c) * (1.0 - bounds.p_d - r_hat)) / s


def ht_variance(
    r_hat: float,
    draws: Sequence[tuple[float, bool]],
    s: int,
    bounds: Optional[Bounds] = None,
) -> float:
    """Horvitz-Thompson variance estimate (simplified form).

    First term is the Monte Carlo variance, or its stratified counterpart
    when bounds are supplied; the correction subtracts
    (s-1) * sum(I_i * Pr_i^2) / (2s) over the draw list.
    """
    if s < 1:
        raise EstimatorError("sample count must be >= 1")
    if bounds is None:
        base = mc_variance(r_hat, s)
    else:
        base = stratified_mc_variance(r_hat, bounds, s)
    corr = 0.0
    for pr, connected in draws:
        if connected:
            corr += pr * pr
    return base - (s - 1) * corr / (2.0 * s)


# ---------------------------------------------------------------------------
# Sample-count reduction
# ---------------------------------------------------------------------------

def reduced_sample_count(s: int, bounds: Bounds) -> int:
    """Samples needed to match the accuracy of s bound-free draws.

    Closed form by case on the bound masses; the result never exceeds s and
    shrinks as either bound grows.
    """
    if s < 0:
        raise EstimatorError("sample count must be nonnegative")
    pc = to_fraction(bounds.p_c)
    pd = to_fraction(bounds.p_d)
    if pc == 0:
        factor = 1 - pd
    elif pd == 0:
        factor = 1 - pc
    elif pc == pd:
        factor = 1 - 4 * pc * (1 - pc)
    elif pc < pd:
        factor = 1 - 4 * pc * (1 - pd)
    else:
        factor = 1 - min(4 * pc * (1 - pc), 4 * (pc * (1 - pd) + (pd - pc)))
    reduced = math.floor(s * factor)
    return max(0, min(s, reduced))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def inclusion_probability(q: float, d: int) -> float:
    """Chance 1 - (1-q)^d that an outcome of probability q shows up in d draws.

    Computed as -expm1(d * log1p(-q)), which stays positive when q is too
    small for 1 - q to differ from 1 in double precision.
    """
    if q >= 1.0:
        return 1.0
    return -math.expm1(d * math.log1p(-q))


def mc_estimate(strata: Sequence[StratumDraw], bounds: Bounds) -> float:
    """Stratified Monte Carlo combination: p_c + sum(mass_i * mean_i).

    Strata with zero mass are ignored; a positive-mass stratum with no draws
    is an error (the caller decides how to treat unsampled mass).
    """
    est = bounds.p_c
    for st in strata:
        if st.mass == 0:
            continue
        if st.draws < 1:
            raise EstimatorError("positive-mass stratum with zero draws")
        est += st.mass * (st.successes / st.draws)
    return float(clamp(est, bounds.p_c, 1.0 - bounds.p_d))


def ht_estimate(strata: Sequence[StratumDraw], bounds: Bounds) -> float:
    """Horvitz-Thompson combination over the undecided strata.

    Within a stratum sampled ``d`` times, a distinct outcome with conditional
    probability q has inclusion probability pi = 1 - (1-q)^d and contributes
    q/pi when connected; the stratum total is scaled by its mass and offset
    by p_c like the Monte Carlo combination.  An outcome drawn although its
    probability underflowed to 0.0 contributes the limit of q/pi as q -> 0,
    which is 1/d.
    """
    est = bounds.p_c
    for st in strata:
        if st.mass == 0:
            continue
        if st.outcomes is None or st.draws < 1:
            raise EstimatorError("stratum lacks per-draw outcome records")
        seen: dict[Hashable, tuple[float, bool]] = {}
        for key, q, connected in st.outcomes:
            if q < 0.0:
                raise EstimatorError("negative draw probability")
            seen[key] = (q, connected)
        part = 0.0
        d = st.draws
        for q, connected in seen.values():
            if connected:
                part += q / inclusion_probability(q, d) if q > 0.0 else 1.0 / d
        est += st.mass * part
    return float(clamp(est, bounds.p_c, 1.0 - bounds.p_d))


def combine_strata(
    kind: str,
    strata: Sequence[StratumDraw],
    bounds: Bounds,
    unsampled_mass: float = 0.0,
) -> float:
    """Final estimate assembly used by the diagram builder and plain sampling.

    Undecided mass that received no draws contributes the midpoint of its
    possible range (half its mass), which reduces to the midpoint rule for a
    zero sample budget.
    """
    sampled = [st for st in strata if st.draws > 0 and st.mass > 0]
    if kind == "mc":
        est = mc_estimate(sampled, bounds)
    elif kind == "ht":
        est = ht_estimate(sampled, bounds)
    else:
        raise EstimatorError(f"unknown estimator kind {kind!r}")
    est += 0.5 * unsampled_mass
    return float(clamp(est, bounds.p_c, 1.0 - bounds.p_d))


def strata_variance(
    kind: str,
    strata: Sequence[StratumDraw],
    bounds: Bounds,
    estimate: float,
    draws: int,
) -> float:
    """Variance estimate for a :func:`combine_strata` result over ``draws`` draws.

    Monte Carlo uses the stratified form; Horvitz-Thompson scales each
    outcome's conditional probability by its stratum mass.
    """
    if draws < 1:
        return 0.0
    if kind == "mc":
        return stratified_mc_variance(estimate, bounds, draws)
    records = [
        (st.mass * q, connected)
        for st in strata if st.outcomes
        for _, q, connected in st.outcomes
    ]
    # the simplified correction can overshoot; a variance estimate reported
    # to users stays nonnegative
    return max(0.0, ht_variance(estimate, records, draws, bounds))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class EstimateReport:
    """Outcome of one reliability estimation run."""

    estimate: float
    bounds: Bounds
    budget: SampleBudget
    samples_used: int
    variance: float
    estimator: str
    exact: bool = False
    unsampled_mass: float = 0.0
    layers: int = 0
    max_width: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    # exact-precision mode only: full-precision rational values as strings
    raw: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lo, hi = self.bounds.p_c, 1.0 - self.bounds.p_d
        if not (lo - PROB_TOLERANCE <= self.estimate <= hi + PROB_TOLERANCE):
            raise EstimatorError(
                f"estimate {self.estimate} outside [{lo}, {hi}]"
            )

    def to_dict(self, *, include_timings: bool = False) -> dict:
        out = {
            "estimate": round_sig(self.estimate),
            "p_c": round_sig(self.bounds.p_c),
            "p_d": round_sig(self.bounds.p_d),
            "s": self.budget.requested,
            "s_reduced": self.budget.reduced,
            "samples_used": self.samples_used,
            "variance": round_sig(self.variance),
            "estimator": self.estimator,
            "exact": self.exact,
            "unsampled_mass": round_sig(self.unsampled_mass),
            "layers": self.layers,
            "max_width": self.max_width,
        }
        if self.raw:
            out["raw"] = dict(sorted(self.raw.items()))
        if include_timings:
            out["timings"] = {k: round(v, 6) for k, v in sorted(self.timings.items())}
        return out
