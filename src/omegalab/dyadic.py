"""Exact dyadic arithmetic and outward-rounded enclosures of 2**(-num/den).

Dyadic numbers are num / 2**exp with arbitrary-size integer numerators.
All arithmetic here is exact; the only rounding in the package happens in
the enclosures of 2**(-num/den) that pow2_enclosure takes and _segment_sums
adds up, which round outward so that they are always sound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, localcontext
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, log2


def iroot(x: int, n: int) -> tuple[int, bool]:
    """Floor n-th root of x >= 0 with an exactness flag.

    Newton iteration on integers; returns (r, exact) with r**n <= x < (r+1)**n
    and exact iff r**n == x.  It starts from a float estimate of
    2**(log2(x)/n), taken from x's top 64 bits and padded upward past the
    float's rounding, so that a step or two reaches the root; the estimate
    is doubled until it bounds the root from above, where Newton needs it.
    """
    if x < 0 or n < 1:
        raise ValueError("iroot needs x >= 0, n >= 1")
    if n == 1 or x < 2:
        return x, True
    shift = max(x.bit_length() - 64, 0)
    e = (log2((x >> shift) + 1) + shift) / n * (1 + 2**-40)  # log2 of an upper bound, over n
    whole = int(e)
    r = ((int(2 ** (e - whole) * 2**53) << whole) >> 53) + 1
    while r ** n < x:
        r <<= 1
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
        return f"Dyadic({_digits(self.num)}, {self.exp})"

    def decimal(self) -> str:
        """Exact decimal string (dyadics have terminating decimals): the digits of num * 5**exp."""
        num, exp = self.num, self.exp
        sign = "-" if num < 0 else ""
        digits = _digits(abs(num), exp).rjust(exp + 1, "0")
        whole, frac = digits[: len(digits) - exp], digits[len(digits) - exp :]
        return sign + (f"{whole}.{frac}" if frac else whole)

    @classmethod
    def from_decimal(cls, s: str) -> "Dyadic":
        """Parse the form decimal() prints, -?digits(.digits)?, and nothing else."""
        m = re.fullmatch(r"(-?)([0-9]+)(?:\.([0-9]+))?", s)
        if m is None:
            raise ValueError(f"{s!r} is not of the form -?digits(.digits)?")
        sign, whole, frac = m.groups("")
        exp = len(frac)
        scaled = int(Decimal(whole + frac))
        if scaled % 5 ** exp:
            raise ValueError(f"{s} is not an exact dyadic decimal")
        return cls((-scaled if sign else scaled) // 5 ** exp, exp)


def _digits(n: int, fives: int = 0) -> str:
    """str(n * 5**fives) with no digit limit, in Decimal arithmetic exact to MAX_PREC digits.

    libmpdec multiplies fast; only Decimal(int) is quadratic, so n is split in halves first.
    """
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX)):
        return str(_by_halves(n) * Decimal(5) ** fives)


def _by_halves(n: int) -> Decimal:
    """Decimal(n), recombined from its halves with a power of two above 2**16 bits; needs an exact context."""
    k = n.bit_length() >> 1
    if k < 1 << 15:
        return Decimal(n)
    return _by_halves(n >> k) * Decimal(2) ** k + _by_halves(n & ((1 << k) - 1))


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

    @classmethod
    def from_row(cls, row: tuple[int, int, int]) -> "DyadicInterval":
        """[lo/2**e, hi/2**e] from the integers (lo, hi, e) of an enclosure or a partial-sum row."""
        return cls(Dyadic(row[0], row[2]), Dyadic(row[1], row[2]))

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def __add__(self, other: "DyadicInterval") -> "DyadicInterval":
        return DyadicInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "DyadicInterval") -> "DyadicInterval":
        return DyadicInterval(self.lo - other.hi, self.hi - other.lo)


_ROOT_METHOD_MAX_DEN = 64


def pow2_enclosure(num: int, den: int, prec: int) -> DyadicInterval:
    """Enclosure of 2**(-num/den) with width <= 2**-prec.

    Exact (degenerate) whenever den divides num.  Small denominators use a
    floor den-th root with remainder on a shifted power of two; large ones
    a square-root ladder over the exponent's binary digits.  Both round
    outward, so the enclosure is always sound.
    """
    return DyadicInterval.from_row(_endpoints(num, den, prec, {}, {}))


def _endpoints(num: int, den: int, prec: int, roots: dict, rungs: dict) -> tuple[int, int, int]:
    """Integers (a, b, e) with a/2**e <= 2**(-num/den) <= b/2**e, width <= 2**-prec.

    den 1 is exact and den > 64 takes the ladder over rungs.  Otherwise,
    with r = num % den and q = num // den, roots[den][r] =
    floor(2**(prec + 1 - r/den)) is den's root for residue r, filled on
    first use (_fill_roots).  With shift = prec, or q + 1 + prec when
    num/den > prec, floor(2**(shift - num/den)) == root >> (prec + 1 - (shift - q)),
    a shift that is never negative.  Tables shared by calls at one prec
    take one root per denominator and one rung chain per working precision.
    """
    if num < 0 or den < 1 or prec < 1:
        raise ValueError("need num >= 0, den >= 1, prec >= 1")
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return 1, 1, num
    if den > _ROOT_METHOD_MAX_DEN:
        return _pow2_by_ladder(num, den, prec, rungs)
    residues = roots.get(den)
    if residues is None:
        residues = roots[den] = _fill_roots(prec, den)
    q, r = divmod(num, den)
    shift = prec if prec * den >= num else q + 1 + prec
    floor = residues[r] >> (prec + 1 - (shift - q))
    return floor, floor + 1, shift


def _segment_sums(x: Fraction, prec: int, weighted: bool = False):
    """The function (a, b, n) -> row (lo, hi, e) enclosing sum n 2**(-l/x), weighted n l 2**(-l/x), over a <= l < b.

    Terms are _endpoints added exactly at the largest exponent of any, so a
    row is the term-by-term sum bit for bit however they are grouped.  With
    x = p/q, past prec (l q > prec p) the term at l + p is the term at l
    with its exponent larger by q, so a residue's unit is enclosed once, and
    a range is min(p, b - a) classes: class l, l + p, ... of J terms is its
    first term times G = (y**J - 1) / (y - 1), y = 2**q (never formed where
    J = 1), at its last exponent; weighted, times l G + p (G - J) / (y - 1).
    """
    if prec < 1:
        raise ValueError("need prec >= 1")
    p, q, limit = x.numerator, x.denominator, prec * x.numerator
    roots, rungs, units = {}, {}, {}  # den -> residue roots, work -> rungs, residue -> unit

    def sums(start: int, stop: int, n: int) -> tuple[int, int, int]:
        past = max(start, min(stop, limit // q + 1))  # the first length past prec
        row, firsts = (0, 0, 0), {}  # firsts: J > 1 -> the rows of the first terms of the classes of J terms
        for length in range(start, min(stop, past + p)):
            if length < past:
                a, b, f = _endpoints(length * q, p, prec, roots, rungs)
            else:
                qq, r = divmod(length * q, p)
                if r not in units:
                    a, b, f = _endpoints(length * q, p, prec, roots, rungs)
                    units[r] = a, b, f - qq
                a, b, f = units[r]
                f += qq
            terms = 1 if length < past else -(-(stop - length) // p)  # J, the terms of length's class
            w = n * length if weighted else n
            if terms == 1:
                row = _add_rows(row, (w * a, w * b, f))
                continue
            plain, heavy = firsts.get(terms, ((0, 0, 0), (0, 0, 0)))  # n times each first term, and w times it
            plain = _add_rows(plain, (n * a, n * b, f))
            firsts[terms] = plain, _add_rows(heavy, (w * a, w * b, f)) if weighted else plain
        for terms, ((lo, hi, e), (a, b, _)) in firsts.items():
            y = (1 << q) - 1  # G and p H of a class of J terms, both exact
            g = ((1 << terms * q) - 1) // y
            if weighted:
                h = p * ((g - terms) // y)
                lo, hi = a * g + lo * h, b * g + hi * h
            else:
                lo, hi = lo * g, hi * g
            row = _add_rows(row, (lo, hi, e + (terms - 1) * q))
        return row

    return sums


def _add_rows(row: tuple[int, int, int], other: tuple[int, int, int]) -> tuple[int, int, int]:
    """Two rows (lo, hi, e) added at the larger exponent."""
    (lo, hi, e), (a, b, f) = row, other
    if f > e:
        return (lo << (f - e)) + a, (hi << (f - e)) + b, f
    return lo + (a << (e - f)), hi + (b << (e - f)), e


def _scaled_lt(a: int, sa: int, b: int, sb: int) -> bool:
    """a * 2**sa < b * 2**sb, in integers: a row end lo/2**e or hi/2**e against a rational, cross-multiplied."""
    s = min(sa, sb)
    return a << (sa - s) < b << (sb - s)


def _fill_roots(prec: int, den: int) -> list[int]:
    """floor(2**(prec + 1 - r/den)) at index r, for every 0 < r < den, from one den-th root.

    y = floor(2**(w - 1/den)), w = prec + 1 + guard, and y + 1 enclose
    2**(w - 1/den); their r-th powers, each product rounded outward at w
    bits, enclose 2**(w - r/den).  Where both ends agree above the guard
    bits, that is the exact floor of 2**(w - r/den) / 2**guard; at the first
    residue where they differ, the fill starts again with twice the guard.
    """
    guard = 16
    while True:
        w = prec + 1 + guard
        y = iroot(1 << (w * den - 1), den)[0]
        lo = hi = 1 << w
        roots = [0]
        for _ in range(1, den):
            lo = (lo * y) >> w
            hi = -((-hi * (y + 1)) >> w)
            if lo >> guard != hi >> guard:
                break
            roots.append(lo >> guard)
        else:
            return roots
        guard *= 2


def _pow2_by_ladder(num: int, den: int, prec: int, rungs: dict) -> tuple[int, int, int]:
    """(a, b, e) enclosing 2**-(q + r/den) as in _endpoints, via interval square roots of 1/2.

    rungs maps a working precision to its chain of roots, built on first use.
    """
    q, r = divmod(num, den)
    work = prec + 16
    while True:
        scale = 1 << work
        chain = rungs.get(work)
        if chain is None:
            # rung i encloses 2**(-2**-i) in [lo_i, hi_i] / 2**work, starting at 2**-1/2
            lo_i = isqrt(scale * scale // 2)
            chain = rungs[work] = [(lo_i, lo_i + 1)]
            for _ in range(1, work):
                lo_i, hi_i = chain[-1]
                chain.append((isqrt(lo_i << work), isqrt((hi_i << work) - 1) + 1))
        frac = (r << work) // den  # floor of r/den to `work` bits; tail in [0, 2**-work)
        lo, hi = scale, scale
        for i, (lo_i, hi_i) in enumerate(chain, 1):
            if (frac >> (work - i)) & 1:
                lo = (lo * lo_i) >> work
                hi = ((hi * hi_i) >> work) + 1
        # dropped exponent tail: divide by 2**t with t < 2**-work
        lo = lo - (lo >> work) - 1
        if hi - lo <= 1 << (work - prec):
            return max(lo, 0), hi, work + q
        work += 32
