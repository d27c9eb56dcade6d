"""The five halting-probability-style sums at a fixed enumeration budget.

All values are lower bounds for the ideal machine and exact values for the
budget-truncated machine when the enumeration is exhaustive.  Sums whose
terms are 2**(-k) for integer k are exact dyadics; rational temperatures
introduce terms 2**(-num/den) which are enclosed by outward-rounded
intervals of per-term width <= 2**-prec.  No floating point anywhere.
Inside the package a sum stays an integer row (lo, hi, e), the enclosure
[lo/2**e, hi/2**e], as dyadic._running_sums yields it; DyadicInterval.from_row
wraps one only where a public function returns it.
A whole sum reads only per-length counts: the result's halts for the
halting sums, a stream's length histogram for the others.  A partial sum
S_k is read only by a Walk, which steps over a stream's (length, count)
pairs to any k or to a cutoff; no table of rows is kept.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, pairwise

from .dyadic import Dyadic, DyadicInterval, _running_sums, _scaled_lt
from .enumerator import EnumerationResult


def _as_temperature(T) -> Fraction:
    t = Fraction(T)
    if t <= 0:
        raise ValueError("temperature must be positive")
    return t


class Walk:
    """Partial sums S_k = sum_{i<=k} 2**(-l_i/x) over a stream's segments, read forward; weighted, l_i 2**(-l_i/x).

    It steps by (length, count) pairs and holds only the member count and
    _running_sums' row at both ends of the pair it is in: inside a pair every
    member adds one term at one exponent, so row k there is an exact integer
    interpolation between the two.
    """

    def __init__(self, segments, x, prec: int, weighted: bool = False):
        counts = (n for a, b, n in segments for _ in range(a, b))
        terms = ((m, m * n if weighted else n) for a, b, n in segments for m in range(a, b))
        ends = zip(accumulate(counts), _running_sums(terms, _as_temperature(x), prec))
        self._pairs = pairwise(chain([(0, (0, 0, 0))], ends))
        self._pair = ((-1, (0, 0, 0)), (0, (0, 0, 0)))  # row 0, as the end of a pair before the stream
        self._size = sum((b - a) * n for a, b, n in segments)
        self.k = 0  # the position, past the start of the walk's pair

    def _row(self, k: int) -> tuple[int, int, int]:
        """Row k, for k past the start of the walk's pair and up to its end, at the end's exponent."""
        (base, (lo0, hi0, e0)), (top, (lo, hi, e)) = self._pair
        lo0, hi0 = lo0 << (e - e0), hi0 << (e - e0)
        return lo0 + (lo - lo0) * (k - base) // (top - base), hi0 + (hi - hi0) * (k - base) // (top - base), e

    def to(self, k: int) -> tuple[int, int, int]:
        """Row k, for the walk's position <= k <= the stream's length; the walk moves to k."""
        if not self.k <= k <= self._size:
            raise ValueError(f"k={k} out of range (walk at {self.k}, stream length {self._size})")
        while self._pair[1][0] < k:
            self._pair = next(self._pairs)
        self.k = k
        return self._row(k)

    def cutoff(self, prefix: str) -> int | None:
        """Least k >= the walk's position whose row's lower end exceeds 0.prefix, where the walk moves; None if none.

        Lower ends, compared exactly, keep the strict inequality sound under
        outward rounding.  They only grow, so the walk steps to the first
        pair whose end exceeds 0.prefix and bisects inside it.
        """
        alpha, bits = int(prefix or "0", 2), len(prefix)

        def exceeds(k):
            return _scaled_lt(alpha, self._pair[1][1][2], self._row(k)[0], bits)

        while not exceeds(self._pair[1][0]):
            if self._pair[1][0] == self._size:
                return None
            self._pair = next(self._pairs)
        ks = range(max(self.k, self._pair[0][0] + 1), self._pair[1][0] + 1)
        self.k = ks[bisect_left(ks, True, key=exceeds)]
        return self.k


def _pow2_sum(histogram, x=1, prec: int = 64) -> tuple[int, int, int]:
    """Row (lo, hi, e) enclosing sum n 2**(-l/x) over the items (l, n) of histogram, in one pass.

    This is dyadic._running_sums' last value: exact integers added at the largest
    exponent, so no grouping or order of the terms changes it, and it equals
    the term-by-term sum (a Walk's last row) bit for bit.
    """
    row = (0, 0, 0)
    for row in _running_sums(histogram.items(), _as_temperature(x), prec):
        pass
    return row


def omega_lower(enum: EnumerationResult) -> Dyadic:
    """Sum of 2**-|p| over discovered halting programs; exact dyadic."""
    return DyadicInterval.from_row(_pow2_sum(enum.halts)).lo


def cs_lower(enum: EnumerationResult) -> Dyadic:
    """Sum of 2**-|s| over compressible strings (H_up(s) < |s|); exact dyadic."""
    return DyadicInterval.from_row(_pow2_sum(enum.compressible_stream(1).histogram)).lo


def z_lower(enum: EnumerationResult, T, prec: int = 64) -> DyadicInterval:
    """Enclosure of the tempered halting sum: 2**(-|p|/T) over halt programs.

    Degenerates to the plain halting sum at T=1 and to exact dyadics
    whenever num(T) divides every |p| * den(T).
    """
    return DyadicInterval.from_row(_pow2_sum(enum.halts, _as_temperature(T), prec))


def cst_lower(enum: EnumerationResult, T, prec: int = 64, trend: bool = False) -> DyadicInterval:
    """Enclosure of sum 2**(-|s|/T) over compressible strings (H_up(s) < |s|).

    The membership test does not involve T; only the exponent does.  For
    T > 1 the family diverges in the limit, so only flagged partial-sum
    trends are allowed: pass trend=True to get the partial sum anyway.
    """
    t = _as_temperature(T)
    if t > 1 and not trend:
        raise ValueError("T > 1 is a divergent family; pass trend=True for partial sums")
    return DyadicInterval.from_row(_pow2_sum(enum.compressible_stream(1).histogram, t, prec))


def csbt_lower(enum: EnumerationResult, T, trend: bool = False) -> Dyadic:
    """Sum of 2**-|s| over strings with H_up(s) < T|s|; exact dyadic.

    T enters only through the membership threshold, so every term is dyadic.
    """
    t = _as_temperature(T)
    if t > 1 and not trend:
        raise ValueError("T > 1 is a divergent family; pass trend=True for partial sums")
    return DyadicInterval.from_row(_pow2_sum(enum.compressible_stream(t).histogram)).lo


def t_convergence_sum(enum: EnumerationResult, T) -> Dyadic:
    """Sum over compressible strings of (2**(-|s|/T))**T, by exponent algebra.

    (|s|/T) * T == |s| exactly in rational arithmetic, so the sum is the
    plain compressible-string sum, bit for bit; computed here through the
    exponent route as an independent identity check.
    """
    t = _as_temperature(T)
    total = Dyadic.zero()
    for length, n in enum.compressible_stream(1).histogram.items():
        inner = Fraction(length) / t
        outer = inner * t
        if outer.denominator != 1:
            raise ArithmeticError("exponent algebra failed to cancel")
        total = total + Dyadic.pow2(outer.numerator) * n
    return total


def evaluate(enum: EnumerationResult, quantity: str, T=None, prec: int = 64) -> dict:
    """The measure artifact of one quantity, the dict the command line emits as JSON.

    T is validated whenever it is given; a T above 1 is flagged divergent_family.
    """
    t = _as_temperature(T) if T is not None else None
    if quantity in ("omega", "cs"):
        iv = DyadicInterval.point(omega_lower(enum) if quantity == "omega" else cs_lower(enum))
        t = prec = None
    elif quantity not in ("z", "cst", "csbt"):
        raise ValueError(f"unknown quantity {quantity!r}")
    elif t is None:
        raise ValueError(f"{quantity} requires --T")
    elif quantity == "z":
        iv = z_lower(enum, t, prec)
    elif quantity == "cst":
        iv = cst_lower(enum, t, prec, trend=t > 1)
    else:
        iv, prec = DyadicInterval.point(csbt_lower(enum, t, trend=t > 1)), None
    d = {
        **enum.provenance(),
        "quantity": quantity,
        "T": f"{t.numerator}/{t.denominator}" if t is not None else None,
        "exhaustive": enum.is_exhaustive(),
        "lo": iv.lo.decimal(),
        "hi": iv.hi.decimal(),
        "exact": iv.exact,
        "prec": prec,
    }
    if t is not None and t > 1:
        d["divergent_family"] = True
    return d
