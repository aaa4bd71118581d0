"""Numeric helpers shared across the package.

Probabilities are plain floats by default.  Operations that accumulate many
small disjoint-event masses use compensated (Kahan) summation so running
totals such as sink masses stay within 1e-9 of the true sum.  An exact mode
backed by fractions.Fraction is available for audits of graphs whose
realization probabilities underflow doubles; in that mode a float is read as
the exact decimal value of its shortest repr.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

Probability = Union[float, Fraction]

PROB_TOLERANCE = 1e-9


class KahanSum:
    """Compensated accumulator for nonnegative probability masses."""

    __slots__ = ("_total", "_carry")

    def __init__(self) -> None:
        self._total = 0.0
        self._carry = 0.0

    def add(self, x: float) -> None:
        y = x - self._carry
        t = self._total + y
        self._carry = (t - self._total) - y
        self._total = t

    @property
    def value(self) -> float:
        return self._total

    raw = value  # the running sum is already the accumulator's own value


class FractionSum:
    """Exact accumulator: ``raw`` is the sum, ``value`` rounds it."""

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total = Fraction(0)

    def add(self, x: Fraction) -> None:
        self._total += x

    @property
    def value(self) -> float:
        return float(self._total)

    @property
    def raw(self) -> Fraction:
        return self._total


def to_fraction(x: Probability) -> Fraction:
    """Exact rational reading of a probability.

    Floats are interpreted through their shortest decimal repr, so 0.1 maps
    to 1/10 rather than to the binary double closest to it.  Thresholded
    integer computations (sample-count floors) then land exactly where the
    decimal arithmetic says they should.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def decimal_text(x: Fraction) -> Optional[str]:
    """The exact finite decimal expansion of a nonnegative ``x``, or None.

    A denominator 2^a 5^b needs max(a, b) < its bit length places.
    """
    places = x.denominator.bit_length()
    scaled = x * 10**places
    if scaled.denominator != 1:
        return None
    digits = str(scaled.numerator).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}".rstrip("0").rstrip(".")


def clamp(x: Probability, lo: Probability, hi: Probability) -> Probability:
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def round_sig(x: float) -> float:
    """Round to 12 significant digits for stable report output."""
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")
