"""Cutoff search and incompressible-string extraction.

These are the effective procedures hiding inside the convergence proofs:
given a true binary prefix of one of the sums, find how many enumeration
terms push the partial sum past it (the cutoff), and use the first-witness
table to produce a string the budgeted machine cannot compress.  Both
sum families are read as integer rows (lo, hi, e): the cutoff is a Walk's,
which sums on over the stream's segments and bisects for k, and a tail
is a whole sum less a Walk's row.
"""

from __future__ import annotations

from fractions import Fraction

from .bits import pair_to_bits
from .dyadic import DyadicInterval
from .enumerator import EnumerationResult, _check_memory
from .measures import Walk, _pow2_sum


class NoCutoff(Exception):
    """The full-budget sum never exceeds the given prefix value."""


def _mode(T, mode: str) -> tuple[Fraction, Fraction]:
    """The stream threshold and temperature x of one of the two sum families, for 0 < T <= 1.

    cs mode sums 2**(-|s|/T) over strings with H_up(s) < |s|; csb mode sums
    2**(-|s|) over strings with H_up(s) < T|s|, so every csb term is exact.
    """
    t = Fraction(T)
    if not 0 < t <= 1:
        raise ValueError("cutoff, tail and extraction need 0 < T <= 1")
    if mode == "cs":
        return Fraction(1), t
    if mode == "csb":
        return t, Fraction(1)
    raise ValueError(f"unknown mode {mode!r}")


def find_cutoff(
    enum: EnumerationResult, alpha_prefix: str, T=1, mode: str = "cs", prec: int = 64
) -> int:
    """Least k with (certified lower bound of) sum of first k terms > 0.alpha_prefix."""
    threshold, x = _mode(T, mode)
    if (k := Walk(enum.compressible_stream(threshold).segments, x, prec).cutoff(alpha_prefix)) is None:
        raise NoCutoff(f"budget sum never exceeds 0.{alpha_prefix}")
    return k


def extract_incompressible(
    enum: EnumerationResult, n: int, T=1, mode: str = "cs"
) -> str:
    """Lexicographically least length-m string that verify_incompressible accepts.

    m is floor(x*n) for _mode's temperature x: floor(T*n) at threshold 1 in
    cs mode, and n at threshold T in csb mode; the string is the least
    length-m one outside that threshold's census row.
    Existence is guaranteed: fewer than 2**m strings of length m have a
    program shorter than m.  An m past memory is refused with ValueError
    before any m-bit string is spelled.
    """
    threshold, x = _mode(T, mode)
    m = x.numerator * n // x.denominator
    if m < 1:
        raise ValueError("target length floor(T*n) (or n) must be >= 1")
    _check_memory(m, f"the bits of the {m}-bit string")
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

    The whole sum S_K less the prefix sum S_k: exact on exact streams,
    otherwise wider than the sum of the tail's own enclosures by twice the
    width of S_k.
    """
    threshold, x = _mode(T, mode)
    segments = enum.compressible_stream(threshold).segments
    head = Walk(segments, x, prec).to(k)
    return DyadicInterval.from_row(_pow2_sum(segments, x, prec)) - DyadicInterval.from_row(head)
