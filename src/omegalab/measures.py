"""The five halting-probability-style sums at a fixed enumeration budget.

All values are lower bounds for the ideal machine and exact values for the
budget-truncated machine when the enumeration is exhaustive.  Sums whose
terms are 2**(-k) for integer k are exact dyadics; rational temperatures
introduce terms 2**(-num/den) which are enclosed by outward-rounded
intervals of per-term width <= 2**-prec.  No floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dyadic import Dyadic, DyadicInterval, SharedRootPow2, pow2_enclosure
from .enumerator import EnumerationResult


def _as_temperature(T) -> Fraction:
    t = Fraction(T)
    if t <= 0:
        raise ValueError("temperature must be positive")
    return t


def pow2_term(exponent: Fraction, prec: int) -> DyadicInterval:
    """Enclosure of 2**-exponent for a nonnegative rational exponent."""
    if exponent.denominator == 1:
        return DyadicInterval.point(Dyadic.pow2(exponent.numerator))
    return pow2_enclosure(exponent.numerator, exponent.denominator, prec)


class PartialSums:
    """Partial sums S_k = sum_{i<=k} w_i 2**(-l_i/x) over a fixed length sequence.

    w_i is l_i for a weighted table and 1 otherwise.  Entries are grown only
    as far as a caller asks.  prec None means every exponent l_i/x is an
    integer, so every entry is exact at any precision.
    """

    __slots__ = ("lengths", "x", "weighted", "sums", "_pow2")

    def __init__(self, lengths: tuple[int, ...], x: Fraction, prec: int | None, weighted: bool):
        self.lengths = lengths
        self.x = x
        self.weighted = weighted
        self.sums = [DyadicInterval.zero()]
        self._pow2 = SharedRootPow2(prec) if prec is not None else None

    def at(self, k: int) -> DyadicInterval:
        """S_k for 0 <= k <= len(lengths)."""
        if not 0 <= k <= len(self.lengths):
            raise ValueError(f"k={k} out of range (stream length {len(self.lengths)})")
        sums = self.sums
        if k >= len(sums):
            p, q = self.x.numerator, self.x.denominator
            total = sums[-1]
            for length in self.lengths[len(sums) - 1 : k]:
                if self._pow2 is None:
                    term = DyadicInterval.point(Dyadic.pow2(length * q // p))
                else:
                    term = self._pow2.enclosure(length * q, p)
                if self.weighted:
                    term = term.scale(length)
                total = total + term
                sums.append(total)
        return sums[k]

    def full(self) -> list[DyadicInterval]:
        """Every entry S_0 .. S_K, K the number of lengths."""
        self.at(len(self.lengths))
        return self.sums


def stream_sums(enum: EnumerationResult, x, prec: int | None, weighted: bool = False) -> PartialSums:
    """Partial-sum table over the compressible stream (threshold 1) at temperature x.

    Kept on the result under (x, prec, weighted), or (x, None, weighted)
    when every l_i/x is an integer, so all precisions share one exact table.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("temperature must be positive")
    lengths = enum.compressible_stream(1).lengths
    if gcd(*lengths) % x.numerator == 0:
        prec = None
    return enum.partial_sums(
        (x, prec, weighted), lambda: PartialSums(lengths, x, prec, weighted)
    )


def _pow2_sum(lengths) -> Dyadic:
    """Exact sum of 2**-l over lengths, added as one integer at the largest exponent."""
    counts = Counter(lengths)
    top = max(counts, default=0)
    return Dyadic(sum(n << (top - length) for length, n in counts.items()), top)


def omega_lower(enum: EnumerationResult) -> Dyadic:
    """Sum of 2**-|p| over discovered halting programs; exact dyadic."""
    return _pow2_sum(len(ev.program) for ev in enum.events)


def cs_lower(enum: EnumerationResult) -> Dyadic:
    """Sum of 2**-|s| over compressible strings (H_up(s) < |s|); exact dyadic."""
    return _pow2_sum(map(len, enum.compressible_stream(1).members))


def z_lower(enum: EnumerationResult, T, prec: int = 64) -> DyadicInterval:
    """Enclosure of the tempered halting sum: 2**(-|p|/T) over halt programs.

    Degenerates to the plain halting sum at T=1 and to exact dyadics
    whenever num(T) divides every |p| * den(T).  Terms are equal within a
    program length, and N equal intervals add up to exactly scale(N).
    """
    t = _as_temperature(T)
    total = DyadicInterval.zero()
    for length, n in Counter(len(ev.program) for ev in enum.events).items():
        total = total + pow2_term(Fraction(length) / t, prec).scale(n)
    return total


def cst_lower(enum: EnumerationResult, T, prec: int = 64, trend: bool = False) -> DyadicInterval:
    """Enclosure of sum 2**(-|s|/T) over compressible strings (H_up(s) < |s|).

    The membership test does not involve T; only the exponent does.  For
    T > 1 the family diverges in the limit, so only flagged partial-sum
    trends are allowed: pass trend=True to get the partial sum anyway.
    """
    t = _as_temperature(T)
    if t > 1 and not trend:
        raise ValueError("T > 1 is a divergent family; pass trend=True for partial sums")
    return stream_sums(enum, t, prec).full()[-1]


def csbt_lower(enum: EnumerationResult, T, trend: bool = False) -> Dyadic:
    """Sum of 2**-|s| over strings with H_up(s) < T|s|; exact dyadic.

    T enters only through the membership threshold, so every term is dyadic.
    """
    t = _as_temperature(T)
    if t > 1 and not trend:
        raise ValueError("T > 1 is a divergent family; pass trend=True for partial sums")
    return _pow2_sum(map(len, enum.compressible_stream(t).members))


def t_convergence_sum(enum: EnumerationResult, T) -> Dyadic:
    """Sum over compressible strings of (2**(-|s|/T))**T, by exponent algebra.

    (|s|/T) * T == |s| exactly in rational arithmetic, so the sum is the
    plain compressible-string sum, bit for bit; computed here through the
    exponent route as an independent identity check.
    """
    t = _as_temperature(T)
    total = Dyadic.zero()
    for s in enum.compressible_stream(1).members:
        inner = Fraction(len(s)) / t
        outer = inner * t
        if outer.denominator != 1:
            raise ArithmeticError("exponent algebra failed to cancel")
        total = total + Dyadic.pow2(outer.numerator)
    return total


@dataclass(frozen=True)
class MeasureReport:
    quantity: str
    T: Fraction | None
    interval: DyadicInterval
    prec: int | None
    divergent_family: bool

    def to_json(self, enum: EnumerationResult) -> dict:
        d = {
            "quantity": self.quantity,
            "T": f"{self.T.numerator}/{self.T.denominator}" if self.T is not None else None,
            "budget": {
                "max_len": enum.budget.max_len,
                "max_rounds": enum.budget.max_rounds,
            },
            "exhaustive": enum.is_exhaustive(),
            "lo": self.interval.lo.decimal(),
            "hi": self.interval.hi.decimal(),
            "exact": self.interval.exact,
            "prec": self.prec,
            "machine": enum.machine_digest,
        }
        if self.divergent_family:
            d["divergent_family"] = True
        return d


def evaluate(enum: EnumerationResult, quantity: str, T=None, prec: int = 64) -> MeasureReport:
    """Uniform entry point used by the command line."""
    t = _as_temperature(T) if T is not None else None
    divergent = t is not None and t > 1
    if quantity == "omega":
        iv, t, prec_out = DyadicInterval.point(omega_lower(enum)), None, None
        divergent = False
    elif quantity == "cs":
        iv, t, prec_out = DyadicInterval.point(cs_lower(enum)), None, None
        divergent = False
    elif quantity == "z":
        if t is None:
            raise ValueError("z requires --T")
        iv, prec_out = z_lower(enum, t, prec), prec
    elif quantity == "cst":
        if t is None:
            raise ValueError("cst requires --T")
        iv, prec_out = cst_lower(enum, t, prec, trend=divergent), prec
    elif quantity == "csbt":
        if t is None:
            raise ValueError("csbt requires --T")
        iv, prec_out = DyadicInterval.point(csbt_lower(enum, t, trend=divergent)), None
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    return MeasureReport(quantity, t, iv, prec_out, divergent)
