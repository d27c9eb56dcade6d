"""Bit strings, the string/number identification, and the Elias gamma code.

Bit strings are plain Python strings over '0'/'1'.  The empty string is a
valid bit string.  Every string s is identified with the natural number
``int('1' + s, 2) - 1``, which enumerates {0,1}* in length-then-lexicographic
order (lambda -> 0, '0' -> 1, '1' -> 2, '00' -> 3, ...).
"""

from __future__ import annotations

from fractions import Fraction

_BITSET = frozenset("01")


def check_bits(s: str) -> str:
    if not _BITSET.issuperset(s):
        raise ValueError(f"not a bit string: {s!r}")
    return s


def string_to_nat(s: str) -> int:
    """Natural number identified with the bit string s."""
    check_bits(s)
    return int("1" + s, 2) - 1


def nat_to_string(n: int) -> str:
    """Inverse of string_to_nat."""
    if n < 0:
        raise ValueError("natural number expected")
    return bin(n + 1)[3:]


def bits_to_pair(s: str) -> tuple[int, int]:
    """Pack a bit string into (value, length), MSB first."""
    check_bits(s)
    return (int(s, 2) if s else 0, len(s))


def pair_to_bits(val: int, length: int) -> str:
    if length == 0:
        return ""
    return format(val, f"0{length}b")


def gamma_encode(n: int) -> str:
    """Elias gamma codeword: floor(log2 n) zeros, then n in binary."""
    if n < 1:
        raise ValueError("gamma code is defined for positive integers")
    numeral = bin(n)[2:]
    return "0" * (len(numeral) - 1) + numeral


def bit_prefix_value(prefix: str) -> Fraction:
    """Value of 0.prefix as an exact rational."""
    check_bits(prefix)
    if not prefix:
        return Fraction(0)
    return Fraction(int(prefix, 2), 1 << len(prefix))


def expansion_prefix(value: Fraction, n: int, *, ones: bool = False) -> str:
    """First n bits of the base-two expansion of value's fractional part.

    With ones=False this is the expansion with infinitely many zeros
    (terminating, for dyadic values); with ones=True, the expansion with
    infinitely many ones, whose n-bit prefix always satisfies
    0.prefix < value.  ones=True requires value > floor(value).
    """
    if n < 1:
        raise ValueError("n must be positive")
    den = value.denominator
    frac = value.numerator % den  # the fractional part is frac / den
    if ones:
        if frac == 0:
            raise ValueError("expansion with infinitely many ones needs a nonzero fractional part")
        k = -((-frac << n) // den) - 1  # ceil - 1
    else:
        k = (frac << n) // den
    return format(k, f"0{n}b")
