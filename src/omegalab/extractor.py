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
from .enumerator import CompressibleStream, EnumerationResult, _check_memory
from .measures import Walk, _pow2_sum


class NoCutoff(Exception):
    """The full-budget sum never exceeds the given prefix value."""


def _mode_stream(enum: EnumerationResult, T, mode: str) -> tuple[CompressibleStream, Fraction]:
    """The stream and temperature of one of the two sum families, for 0 < T <= 1.

    cs mode sums 2**(-|s|/T) over strings with H_up(s) < |s|; csb mode sums
    2**(-|s|) over strings with H_up(s) < T|s|, so every csb term is exact.
    """
    t = Fraction(T)
    if not 0 < t <= 1:
        raise ValueError("cutoff and tail need 0 < T <= 1")
    if mode == "cs":
        return enum.compressible_stream(1), t
    if mode == "csb":
        return enum.compressible_stream(t), Fraction(1)
    raise ValueError(f"unknown mode {mode!r}")


def find_cutoff(
    enum: EnumerationResult, alpha_prefix: str, T=1, mode: str = "cs", prec: int = 64
) -> int:
    """Least k with (certified lower bound of) sum of first k terms > 0.alpha_prefix."""
    stream, x = _mode_stream(enum, T, mode)
    if (k := Walk(stream.segments, x, prec).cutoff(alpha_prefix)) is None:
        raise NoCutoff(f"budget sum never exceeds 0.{alpha_prefix}")
    return k


def extract_incompressible(
    enum: EnumerationResult, n: int, T=1, mode: str = "cs"
) -> str:
    """Lexicographically least length-m string that verify_incompressible accepts.

    m is floor(T*n) at threshold 1 in cs mode, and n at threshold T in csb
    mode: the least length-m string outside that threshold's census row.
    Existence is guaranteed: fewer than 2**m strings of length m have a
    program shorter than m.  An m past memory is refused with ValueError
    before any m-bit string is spelled.
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
    stream, x = _mode_stream(enum, T, mode)
    head = Walk(stream.segments, x, prec).to(k)
    return DyadicInterval.from_row(_pow2_sum(stream.segments, x, prec)) - DyadicInterval.from_row(head)
