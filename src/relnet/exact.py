"""Ground-truth reliability by exhaustive realization enumeration.

Every other estimator in the package is validated against this module, so it
stays deliberately direct: walk all 2^m possible graphs, test terminal
connectivity, and sum the masses of the connected ones.  Enumeration follows
a Gray code so each step flips a single edge and the running probability is
updated with one multiply.
"""

from __future__ import annotations

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
        prob: Probability = Fraction(1)
        for p in probs:
            prob *= 1 - p
        ratio_on = [p / (1 - p) if p != 1 else None for p in probs]
    else:
        prob = 1.0
        for p in probs:
            prob *= 1.0 - p
        ratio_on = [p / (1.0 - p) if p != 1.0 else None for p in probs]

    total = KahanSum() if not exact else None
    total_exact = Fraction(0)

    # Edges with p == 1 have zero mass on their off branch; the incremental
    # ratio is undefined there, so recompute the product from scratch on
    # steps that flip such an edge.
    def full_product(states: list[bool]) -> Probability:
        acc: Probability = Fraction(1) if exact else 1.0
        for j, on in enumerate(states):
            acc *= probs[j] if on else (1 - probs[j])
        return acc

    count = 1 << m
    for i in range(count):
        if i > 0:
            # Gray code: step i flips the bit at the lowest set position of i.
            j = (i & -i).bit_length() - 1
            if active[j]:
                active[j] = False
                active_count -= 1
                r = ratio_on[j]
                prob = full_product(active) if r is None else prob / r
            else:
                active[j] = True
                active_count += 1
                r = ratio_on[j]
                prob = full_product(active) if r is None else prob * r
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
                total_exact += prob  # type: ignore[operator]
            else:
                total.add(prob)  # type: ignore[union-attr, arg-type]

    if exact:
        return ExactResult(reliability=total_exact, enumerated_count=count)
    return ExactResult(reliability=min(1.0, total.value), enumerated_count=count)
