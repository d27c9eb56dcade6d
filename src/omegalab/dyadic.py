"""Exact dyadic arithmetic and outward-rounded enclosures of 2**(-num/den).

Dyadic numbers are num / 2**exp with arbitrary-size integer numerators.
All arithmetic here is exact; the only rounding in the package happens in
pow2_enclosure, which rounds outward so that enclosures are always sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt


def iroot(x: int, n: int) -> tuple[int, bool]:
    """Floor n-th root of x >= 0 with an exactness flag.

    Newton iteration on integers; returns (r, exact) with r**n <= x < (r+1)**n
    and exact iff r**n == x.
    """
    if x < 0 or n < 1:
        raise ValueError("iroot needs x >= 0, n >= 1")
    if n == 1 or x < 2:
        return x, True
    r = 1 << -(-x.bit_length() // n)  # upper start: r**n >= x
    while True:
        nxt = ((n - 1) * r + x // r ** (n - 1)) // n
        if nxt >= r:
            break
        r = nxt
    while r ** n > x:  # Newton can overshoot by one near powers
        r -= 1
    return r, r ** n == x


@total_ordering
class Dyadic:
    """num / 2**exp in canonical form (odd numerator, or zero with exp 0)."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp > 0:
            tz = min((num & -num).bit_length() - 1, exp)  # trailing zero bits to strip
            num >>= tz
            exp -= tz
        self.num = num
        self.exp = exp

    @classmethod
    def zero(cls) -> "Dyadic":
        return cls(0)

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """2**-k (k may be negative)."""
        return cls(1, k) if k >= 0 else cls(1 << -k, 0)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Dyadic":
        den = f.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{f} is not dyadic")
        return cls(f.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp), e

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._aligned(other)
        return Dyadic(a - b, e)

    def __mul__(self, other: "int | Dyadic") -> "Dyadic":
        if isinstance(other, int):
            return Dyadic(self.num * other, self.exp)
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other: "Dyadic") -> bool:
        a, b, _ = self._aligned(other)
        return a < b

    def __hash__(self):
        return hash((self.num, self.exp))

    def __bool__(self) -> bool:
        return self.num != 0

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    def decimal(self) -> str:
        """Exact decimal string (dyadics have terminating decimals).

        Digits go through Decimal, which has no int-to-string digit limit.
        """
        num, exp = self.num, self.exp
        sign = "-" if num < 0 else ""
        num = abs(num) * 5 ** exp
        digits = str(Decimal(num)).rjust(exp + 1, "0")
        whole, frac = digits[: len(digits) - exp], digits[len(digits) - exp :]
        return sign + (f"{whole}.{frac}" if frac else whole)

    @classmethod
    def from_decimal(cls, s: str) -> "Dyadic":
        sign = -1 if s.startswith("-") else 1
        s = s.lstrip("+-")
        whole, _, frac = s.partition(".")
        exp = len(frac)
        scaled = int(Decimal((whole or "0") + frac))
        if scaled % 5 ** exp:
            raise ValueError(f"{s} is not an exact dyadic decimal")
        return cls(sign * scaled // 5 ** exp, exp)


@dataclass(frozen=True)
class DyadicInterval:
    """Enclosure [lo, hi] of a real; degenerate (lo == hi) means exact."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def point(cls, d: Dyadic) -> "DyadicInterval":
        return cls(d, d)

    @classmethod
    def zero(cls) -> "DyadicInterval":
        return cls.point(Dyadic.zero())

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def __add__(self, other: "DyadicInterval") -> "DyadicInterval":
        return DyadicInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "DyadicInterval") -> "DyadicInterval":
        return DyadicInterval(self.lo - other.hi, self.hi - other.lo)

    def scale(self, k: int) -> "DyadicInterval":
        if k < 0:
            raise ValueError("nonnegative scale only")
        return DyadicInterval(self.lo * k, self.hi * k)

    def __contains__(self, value: Fraction) -> bool:
        return self.lo.as_fraction() <= value <= self.hi.as_fraction()


_ROOT_METHOD_MAX_DEN = 64


def pow2_enclosure(num: int, den: int, prec: int) -> DyadicInterval:
    """Enclosure of 2**(-num/den) with width <= 2**-prec.

    Exact (degenerate) whenever den divides num.  Small denominators use a
    floor den-th root with remainder on a shifted power of two; large ones
    a square-root ladder over the exponent's binary digits.  Both round
    outward, so the enclosure is always sound.
    """
    return SharedRootPow2(prec).enclosure(num, den)


def _fraction_root(r: int, den: int, prec: int) -> int:
    """floor(2**(prec + 1 - r/den)): one floor den-th root of a power of two."""
    return iroot(1 << ((prec + 1) * den - r), den)[0]


def _pow2_by_root(num: int, den: int, prec: int, root: int) -> DyadicInterval:
    """2**(-num/den), den not dividing num, from root = _fraction_root(num % den, den, prec).

    With q = num // den and shift = prec, or q + 1 + prec when num/den > prec,
    floor(2**(shift - num/den)) == root >> (prec + 1 - (shift - q)), a shift
    that is never negative.  So every exponent with the same fractional part
    r/den shares one root.
    """
    q = num // den
    shift = prec if prec * den >= num else q + 1 + prec
    floor = root >> (prec + 1 - (shift - q))
    return DyadicInterval(Dyadic(floor, shift), Dyadic(floor + 1, shift))


class SharedRootPow2:
    """Enclosures of 2**(-num/den) at one precision, computing each den-th root once.

    Roots are keyed by (num % den, den) after reduction: exponents of one
    partial-sum table reduce to different denominators (|s| * 5/4 gives 4, 2
    or 1), and the remainder alone would mix them up.
    """

    __slots__ = ("prec", "_roots")

    def __init__(self, prec: int):
        if prec < 1:
            raise ValueError("need prec >= 1")
        self.prec = prec
        self._roots: dict[tuple[int, int], int] = {}

    def enclosure(self, num: int, den: int) -> DyadicInterval:
        """Enclosure of 2**(-num/den) with width <= 2**-self.prec."""
        if num < 0 or den < 1:
            raise ValueError("need num >= 0, den >= 1")
        g = gcd(num, den)
        num, den = num // g, den // g
        if den == 1:
            return DyadicInterval.point(Dyadic.pow2(num))
        if den > _ROOT_METHOD_MAX_DEN:
            return _pow2_by_ladder(num, den, self.prec)
        key = (num % den, den)
        root = self._roots.get(key)
        if root is None:
            root = self._roots[key] = _fraction_root(*key, self.prec)
        return _pow2_by_root(num, den, self.prec, root)


def _pow2_by_ladder(num: int, den: int, prec: int) -> DyadicInterval:
    """2**-(q + r/den) via interval square roots of 1/2, one per exponent bit."""
    q, r = divmod(num, den)
    work = prec + 16
    while True:
        scale = 1 << work
        # interval chain s_i enclosing 2**(-2**-i), starting at 2**-1/2
        lo_i = isqrt(scale * scale // 2)
        hi_i = lo_i + 1
        frac = (r << work) // den  # floor of r/den to `work` bits; tail in [0, 2**-work)
        lo, hi = scale, scale
        for i in range(1, work + 1):
            if (frac >> (work - i)) & 1:
                lo = (lo * lo_i) >> work
                hi = ((hi * hi_i) >> work) + 1
            if i < work:
                lo_i = isqrt(lo_i << work)
                v = hi_i << work
                hi_i = isqrt(v)
                if hi_i * hi_i < v:
                    hi_i += 1
        # dropped exponent tail: divide by 2**t with t < 2**-work
        lo = lo - (lo >> work) - 1
        if hi - lo <= 1 << (work - prec):
            return DyadicInterval(Dyadic(max(lo, 0), work + q), Dyadic(hi, work + q))
        work += 32
