"""Uncertain-graph model: vertices, probabilistic edges, possible graphs.

An uncertain graph is undirected; every edge carries an independent existence
probability in (0, 1].  A *possible graph* decides every edge and is stored as
an ``int`` edge mask: bit i is set iff edge i exists.  Edge indices follow
input order and everything downstream (diagram layers, trace output, edge
masks) keys off that order.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Iterable, Optional, Sequence

from .numerics import Probability, decimal_text, to_fraction


class GraphFormatError(ValueError):
    """Malformed edge-list or terminal input."""


class GraphInvariantError(ValueError):
    """Structurally invalid graph for the requested operation."""


@dataclass(frozen=True)
class UncertainGraph:
    """Immutable undirected multigraph with per-edge probabilities.

    Vertices are dense ids 0..n-1.  Parallel edges are allowed (they arise
    naturally during reduction); self-loops are rejected.  Two graphs are
    equal, and hash alike, when their vertex counts, edges, probabilities
    and exact probabilities all are.  The hash is computed on first use and
    kept, so a graph used again as a cache key costs nothing to hash.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    probs: tuple[float, ...]
    # Exact values of the probabilities, one entry per edge: a Fraction (a
    # text graph's literal, a reduced edge's exact product) that rounds to
    # the edge's float, or None, which reads the float's shortest repr; a
    # tuple of None entries is stored as None.  See prob_values.
    exact_probs: Optional[tuple[Optional[Fraction], ...]] = None
    _incident: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _hash: Optional[int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.probs):
            raise GraphInvariantError("edge and probability counts differ")
        exact = self.exact_probs
        if exact is not None:
            if len(exact) != len(self.edges):
                raise GraphInvariantError("edge and exact probability counts differ")
            # a float entry would equal, and hash like, the Fraction of its
            # binary value, so only Fractions that round to the float count
            known = [i for i, x in enumerate(exact) if x is not None]
            for i in known:
                x = exact[i]
                if not isinstance(x, Fraction) or float(x) != self.probs[i]:
                    raise GraphInvariantError(
                        f"edge {i} exact probability {x!r} does not round to "
                        f"its probability {self.probs[i]!r}"
                    )
            if not known:
                # one graph, one representation: equal graphs are equal keys
                object.__setattr__(self, "exact_probs", None)
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphInvariantError(f"edge {i} endpoint out of range")
            if u == v:
                raise GraphInvariantError(f"edge {i} is a self-loop")
            inc[u].append(i)
            inc[v].append(i)
        for p in self.probs:
            if not (0.0 < p <= 1.0):
                raise GraphInvariantError(f"probability {p} out of range (0, 1]")
        object.__setattr__(self, "_incident", tuple(tuple(x) for x in inc))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self.edges, self.probs, self.exact_probs))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> tuple[int, ...]:
        return self._incident[v]

    def prob_values(self, exact: bool = False) -> Sequence[Probability]:
        """The float probabilities, or with ``exact`` the exact ones.

        An edge without an exact entry has its exact value read from its
        float's shortest repr, on every call; see :meth:`exact_prob`.
        """
        if not exact:
            return self.probs
        return tuple(map(self.exact_prob, range(self.m)))

    def exact_prob(self, j: int) -> Fraction:
        """The exact probability of edge ``j``."""
        x = None if self.exact_probs is None else self.exact_probs[j]
        return to_fraction(self.probs[j]) if x is None else x

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        parent = list(range(self.n))
        for u, v in self.edges:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[rv] = ru
        root = _find(parent, 0)
        return all(_find(parent, v) == root for v in range(1, self.n))


@dataclass(frozen=True)
class TerminalSet:
    vertices: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise GraphInvariantError("at least 2 terminals required")

    @classmethod
    def of(cls, ids: Iterable[int]) -> "TerminalSet":
        return cls(frozenset(int(v) for v in ids))

    def validate(self, g: UncertainGraph) -> None:
        bad = [v for v in self.vertices if not (0 <= v < g.n)]
        if bad:
            raise GraphInvariantError(f"terminals not in graph: {sorted(bad)}")

    @property
    def k(self) -> int:
        return len(self.vertices)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


# ---------------------------------------------------------------------------
# Possible graphs
# ---------------------------------------------------------------------------

def assignment_probability(g: UncertainGraph, mask: int) -> float:
    """Probability of the possible graph ``mask``.

    Existent edges contribute p(e), absent ones 1 - p(e), multiplied in
    edge-index order.
    """
    acc = 1.0
    for i, p in enumerate(g.probs):
        acc *= p if mask >> i & 1 else 1.0 - p
    return acc


def sample_possible_graph(g: UncertainGraph, rng: Random) -> int:
    """Draw a possible graph: one ``rng.random()`` per edge, in index order.

    Draws are independent across calls (with-replacement semantics).
    """
    rnd = rng.random
    mask = 0
    bit = 1
    for p in g.probs:
        if rnd() < p:
            mask |= bit
        bit <<= 1
    return mask


def terminals_connected(g: UncertainGraph, mask: int, terminals: TerminalSet) -> bool:
    """True iff all terminals share a component of the edges set in ``mask``."""
    parent = list(range(g.n))
    edges = g.edges
    while mask:
        low = mask & -mask
        mask ^= low
        u, v = edges[low.bit_length() - 1]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[rv] = ru
    it = iter(terminals.vertices)
    root = _find(parent, next(it))
    return all(_find(parent, t) == root for t in it)


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

def parse_graph(text: str, *, require_connected: bool = True) -> UncertainGraph:
    return load_graph(io.StringIO(text), require_connected=require_connected)


def load_graph(source, *, require_connected: bool = True) -> UncertainGraph:
    """Read the ``u v p`` edge-list format.

    One edge per line, whitespace separated, 0-based integer vertex ids and a
    decimal probability; ``#`` starts a comment line.  Edge order in the file
    defines edge indices.  A probability's literal is the edge's exact entry
    only where it differs from the reading of its float's shortest repr.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_graph(fh, require_connected=require_connected)

    edges: list[tuple[int, int]] = []
    probs: list[float] = []
    literals: list[Optional[Fraction]] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v p', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad vertex id") from None
        try:
            p = float(parts[2])
            p_exact = Fraction(parts[2])
        except (ValueError, ZeroDivisionError):
            raise GraphFormatError(f"line {lineno}: bad probability {parts[2]!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop not allowed")
        if not (0.0 < p <= 1.0):
            raise GraphFormatError(f"line {lineno}: probability out of range (0, 1]")
        edges.append((u, v))
        probs.append(p)
        # no entry where the float reads back as the literal's value, so a
        # file's graph equals the same floats made in memory
        literals.append(None if p_exact == to_fraction(p) else p_exact)
        seen.update((u, v))

    if not edges:
        raise GraphFormatError("empty edge list")
    n = max(seen) + 1
    if require_connected and len(seen) < n:
        # an id no edge names is isolated: fail before one list per id is made
        raise GraphFormatError("graph is not connected")
    g = UncertainGraph(
        n=n,
        edges=tuple(edges),
        probs=tuple(probs),
        exact_probs=tuple(literals),
    )
    if require_connected and not g.is_connected():
        raise GraphFormatError("graph is not connected")
    return g


def write_graph(g: UncertainGraph, path, *, header: str | None = None) -> None:
    """Write the edge-list format that :func:`load_graph` reads.

    A probability is written as its float's repr, or as its exact decimal
    expansion where the repr reads back as another value.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for (u, v), p, x in zip(g.edges, g.probs, g.prob_values(True)):
            text = repr(p)
            if Fraction(text) != x:
                text = decimal_text(x) or text
            fh.write(f"{u} {v} {text}\n")


def parse_terminals(spec: str, g: UncertainGraph) -> TerminalSet:
    """Terminals from a comma list such as ``0,5,9`` or ``@file`` reference."""
    if spec.startswith("@"):
        return load_terminals(spec[1:], g)
    try:
        ids = [int(x) for x in spec.split(",") if x.strip() != ""]
    except ValueError:
        raise GraphFormatError(f"bad terminal list {spec!r}") from None
    ts = TerminalSet.of(ids)
    ts.validate(g)
    return ts


def load_terminals(path, g: UncertainGraph) -> TerminalSet:
    ids: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                ids.append(int(line))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad terminal id") from None
    ts = TerminalSet.of(ids)
    ts.validate(g)
    return ts

