"""Cutoff search and incompressible-string extraction.

These are the effective procedures hiding inside the convergence proofs:
given a true binary prefix of one of the sums, find how many enumeration
terms push the partial sum past it (the cutoff), and use the first-witness
table to produce a string the budgeted machine cannot compress.  Both
sum families read measures.stream_sums tables: integer rows (lo, hi, e),
kept on the result under the one key that stream_sums forms.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .bits import pair_to_bits
from .dyadic import DyadicInterval
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
        return stream_sums(enum, 1, prec, threshold=t)
    raise ValueError(f"unknown mode {mode!r}")


def find_cutoff(
    enum: EnumerationResult, alpha_prefix: str, T=1, mode: str = "cs", prec: int = 64
) -> int:
    """Least k with (certified lower bound of) sum of first k terms > 0.alpha_prefix.

    Rows' lower ends, compared as integers over 2**top, keep the strict
    inequality sound under outward rounding, and never decrease along the table.
    """
    rows = _mode_sums(enum, T, mode, prec).full()
    top = max(rows[-1][2], len(alpha_prefix))
    alpha = (int(alpha_prefix, 2) if alpha_prefix else 0) << (top - len(alpha_prefix))
    k = bisect_right(rows, alpha, key=lambda row: row[0] << (top - row[2]))
    if k == len(rows):
        raise NoCutoff(f"budget sum never exceeds 0.{alpha_prefix}")
    return k


def extract_incompressible(
    enum: EnumerationResult, n: int, T=1, mode: str = "cs"
) -> str:
    """Lexicographically least length-m string that verify_incompressible accepts.

    m is floor(T*n) at threshold 1 in cs mode, and n at threshold T in csb
    mode: the least length-m string outside that threshold's census row.
    Existence is guaranteed: fewer than 2**m strings of length m have a
    program shorter than m.
    """
    t = Fraction(T)
    if not 0 < t <= 1:
        raise ValueError("extraction needs 0 < T <= 1")
    if mode == "cs":
        m, threshold = (t.numerator * n) // t.denominator, 1
    elif mode == "csb":
        m, threshold = n, t
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if m < 1:
        raise ValueError("target length floor(T*n) (or n) must be >= 1")
    for val in range(1 << m):
        s = pair_to_bits(val, m)
        if verify_incompressible(enum, s, threshold):
            return s
    raise AssertionError("every string of its length compresses")  # unreachable


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

    The difference S_K - S_k of two table rows: exact on exact tables,
    otherwise wider than the sum of the tail's own enclosures by twice the
    width of S_k.
    """
    sums = _mode_sums(enum, T, mode, prec)
    return DyadicInterval.from_row(sums.full()[-1]) - DyadicInterval.from_row(sums.row(k))
