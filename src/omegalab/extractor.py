"""Cutoff search and incompressible-string extraction.

These are the effective procedures hiding inside the convergence proofs:
given a true binary prefix of one of the sums, find how many enumeration
terms push the partial sum past it (the cutoff), and use the per-length
census to produce a string the budgeted machine cannot compress.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .bits import pair_to_bits
from .census import census
from .dyadic import Dyadic, DyadicInterval
from .enumerator import EnumerationResult
from .measures import PartialSums, stream_sums


class NoCutoff(Exception):
    """The full-budget sum never exceeds the given prefix value."""


def _mode_sums(enum: EnumerationResult, T, mode: str, prec: int) -> PartialSums:
    """Partial-sum table of one of the two sum families, for 0 < T <= 1.

    cs mode sums 2**(-|s|/T) over strings with H_up(s) < |s|; csb mode sums
    2**(-|s|) over strings with H_up(s) < T|s|, so every csb entry is exact.
    """
    t = Fraction(T)
    if not 0 < t <= 1:
        raise ValueError("cutoff and tail need 0 < T <= 1")
    if mode == "cs":
        return stream_sums(enum, t, prec)
    if mode == "csb":
        return enum.partial_sums(
            ("csb", t),
            lambda: PartialSums(enum.compressible_stream(t).lengths, 1, None, False),
        )
    raise ValueError(f"unknown mode {mode!r}")


def find_cutoff(
    enum: EnumerationResult, alpha_prefix: str, T=1, mode: str = "cs", prec: int = 64
) -> int:
    """Least k with (certified lower bound of) sum of first k terms > 0.alpha_prefix.

    Comparing against the interval's lower end keeps the strict inequality
    sound under outward rounding; lower ends never decrease along the table.
    """
    sums = _mode_sums(enum, T, mode, prec).full()
    alpha = Dyadic(int(alpha_prefix, 2) if alpha_prefix else 0, len(alpha_prefix))
    k = bisect_right(sums, alpha, key=lambda iv: iv.lo)
    if k == len(sums):
        raise NoCutoff(f"budget sum never exceeds 0.{alpha_prefix}")
    return k


def extract_incompressible(
    enum: EnumerationResult, n: int, T=1, mode: str = "cs"
) -> str:
    """Lexicographically least length-m string outside the census set.

    m is floor(T*n) in cs mode and n in csb mode.  Existence is guaranteed:
    the census set at any length m has fewer than 2**m members.
    """
    t = Fraction(T)
    if not 0 < t <= 1:
        raise ValueError("extraction needs 0 < T <= 1")
    if mode == "cs":
        m = (t.numerator * n) // t.denominator
        row = census(enum, m, 1)
    elif mode == "csb":
        m = n
        row = census(enum, m, t)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if m < 1:
        raise ValueError("target length floor(T*n) (or n) must be >= 1")
    for val in range(1 << m):
        s = pair_to_bits(val, m)
        if s not in row.members:
            return s
    raise AssertionError("census covered all strings of its length")  # unreachable


def verify_incompressible(enum: EnumerationResult, s: str, T=1) -> bool:
    """True iff no discovered program p outputs s with |p| < T|s|."""
    t = Fraction(T)
    h = enum.complexity_upper(s)
    if h is None:
        return True
    return h * t.denominator >= t.numerator * len(s)


def tail_after_cutoff(
    enum: EnumerationResult, k: int, T=1, mode: str = "cs", prec: int = 64
) -> DyadicInterval:
    """Enclosure of the sum of terms strictly after position k, 0 <= k <= K.

    The difference S_K - S_k of two table entries: exact on exact tables,
    otherwise wider than the sum of the tail's own enclosures by twice the
    width of S_k.
    """
    sums = _mode_sums(enum, T, mode, prec)
    return sums.full()[-1] - sums.at(k)
