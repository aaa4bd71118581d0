"""Ground-truth reliability by exhaustive realization enumeration.

Every other estimator in the package is validated against this module, so it
stays deliberately direct: walk all 2^m possible graphs, test terminal
connectivity, and sum the masses of the connected ones.  Enumeration follows
a Gray code so each step flips a single edge and the running probability is
updated with one multiply; in exact mode it is an integer over the common
denominator of the probabilities, updated with one exact division and one
multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import GraphInvariantError, TerminalSet, UncertainGraph
from .numerics import KahanSum, Probability

DEFAULT_EDGE_CAP = 24


class EdgeCapExceeded(GraphInvariantError):
    """Graph too large for exhaustive enumeration."""


@dataclass(frozen=True)
class ExactResult:
    reliability: Probability
    enumerated_count: int


def brute_force_reliability(
    g: UncertainGraph,
    terminals: TerminalSet,
    *,
    cap: int = DEFAULT_EDGE_CAP,
    exact: bool = False,
) -> ExactResult:
    terminals.validate(g)
    m = g.m
    if m > cap:
        raise EdgeCapExceeded(f"{m} edges exceeds enumeration cap {cap}")

    probs = g.prob_values(exact)
    n = g.n
    eu = [e[0] for e in g.edges]
    ev = [e[1] for e in g.edges]
    terms = terminals.sorted()
    t0 = terms[0]
    rest = terms[1:]
    need = len(terms) - 1  # fewer existent edges than this cannot connect

    active = [False] * m
    active_count = 0
    if exact:
        # integer weights over the common denominator prod(b_j) of the
        # probabilities a_j / b_j: an edge weighs a_j on and b_j - a_j off,
        # and a flip divides one factor out exactly
        on_w = [p.numerator for p in probs]
        off_w = [p.denominator - p.numerator for p in probs]
        weight = math.prod(off_w)
    else:
        weight = 1.0
        for p in probs:
            weight *= 1.0 - p
        ratio_on = [p / (1.0 - p) if p != 1.0 else None for p in probs]

    total = KahanSum() if not exact else None
    total_exact = 0

    # A factor of 0 (p == 1 off, or p == 0 on) cannot be divided out, so
    # steps that flip such an edge recompute the product from scratch.
    def full_product(states: list[bool]) -> int | float:
        if exact:
            return math.prod(on_w[j] if on else off_w[j] for j, on in enumerate(states))
        acc = 1.0
        for j, on in enumerate(states):
            acc *= probs[j] if on else (1 - probs[j])
        return acc

    count = 1 << m
    for i in range(count):
        if i > 0:
            # Gray code: step i flips the bit at the lowest set position of i.
            j = (i & -i).bit_length() - 1
            active[j] = not active[j]
            if exact:
                out, into = (off_w[j], on_w[j]) if active[j] else (on_w[j], off_w[j])
                weight = full_product(active) if out == 0 else weight // out * into
            else:
                r = ratio_on[j]
                if r is None:
                    weight = full_product(active)
                else:
                    weight = weight * r if active[j] else weight / r
            active_count += 1 if active[j] else -1
        if active_count < need:
            continue
        # Union-find over existent edges only.
        parent = list(range(n))
        for j in range(m):
            if active[j]:
                x = eu[j]
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                y = ev[j]
                while parent[y] != y:
                    parent[y] = parent[parent[y]]
                    y = parent[y]
                if x != y:
                    parent[y] = x
        x = t0
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        root = x
        ok = True
        for t in rest:
            x = t
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            if x != root:
                ok = False
                break
        if ok:
            if exact:
                total_exact += weight
            else:
                total.add(weight)  # type: ignore[union-attr, arg-type]

    if exact:
        denominator = math.prod(p.denominator for p in probs)
        return ExactResult(
            reliability=Fraction(total_exact, denominator), enumerated_count=count
        )
    return ExactResult(reliability=min(1.0, total.value), enumerated_count=count)
