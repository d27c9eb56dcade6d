"""The five halting-probability-style sums at a fixed enumeration budget.

All values are lower bounds for the ideal machine and exact values for the
budget-truncated machine when the enumeration is exhaustive.  Sums whose
terms are 2**(-k) for integer k are exact dyadics; rational temperatures
introduce terms 2**(-num/den) which are enclosed by outward-rounded
intervals of per-term width <= 2**-prec.  No floating point anywhere.
Inside the package a sum stays an integer row (lo, hi, e), the enclosure
[lo/2**e, hi/2**e], as dyadic._segment_sums gives it; DyadicInterval.from_row
wraps one only where a public function returns it.
A sum reads segments (a, b, n), n terms at each length a <= l < b, in one
closed form each: the result's halts, a length each, for the halting sums,
a stream's segments for the others.  A partial sum S_k is read only by a
Walk, which sums on over a stream's segments to any k or to a cutoff; no
table of rows is kept.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

from .dyadic import Dyadic, DyadicInterval, _add_rows, _scaled_lt, _segment_sums
from .enumerator import EnumerationResult


def _as_temperature(T) -> Fraction:
    t = Fraction(T)
    if t <= 0:
        raise ValueError("temperature must be positive")
    return t


class Walk:
    """Partial sums S_k = sum_{i<=k} 2**(-l_i/x) over a stream's segments, read forward; weighted, l_i 2**(-l_i/x).

    It holds only its position k and row S_k, and moves on by adding the
    members in between, a closed form (dyadic._segment_sums) for each part
    of a segment: the whole lengths, and a length that k splits.
    """

    def __init__(self, segments, x, prec: int, weighted: bool = False):
        self._segments, self._sums = segments, _segment_sums(_as_temperature(x), prec, weighted)
        self._starts = list(accumulate(((b - a) * n for a, b, n in segments), initial=0))
        self.k, self._row = 0, (0, 0, 0)

    def _on(self, k: int, row: tuple[int, int, int], top: int) -> tuple[int, int, int]:
        """Row top, from row k <= top."""
        i = bisect_right(self._starts, k) - 1
        while k < top:
            (a, _, n), start = self._segments[i], self._starts[i]
            end = min(top, self._starts[i + 1])
            first, last = (k - start) // n, (end - start - 1) // n  # the lengths, past a, of members k + 1 and end
            row = _add_rows(row, self._sums(a + first, a + last + 1, n))
            for m, extra in ((first, k - start - first * n), (last, start + (last + 1) * n - end)):
                if extra:  # the members of the first and last lengths outside (k, end], taken off exactly
                    row = _add_rows(row, self._sums(a + m, a + m + 1, -extra))
            k, i = end, i + 1
        return row

    def to(self, k: int) -> tuple[int, int, int]:
        """Row k, for the walk's position <= k <= the stream's length; the walk moves to k."""
        if not self.k <= k <= self._starts[-1]:
            raise ValueError(f"k={k} out of range (walk at {self.k}, stream length {self._starts[-1]})")
        self.k, self._row = k, self._on(self.k, self._row, k)
        return self._row

    def cutoff(self, prefix: str) -> int | None:
        """Least k >= the walk's position whose row's lower end exceeds 0.prefix, where the walk moves; None if none.

        Lower ends, compared exactly, keep the strict inequality sound under
        outward rounding.  They only grow, so the walk sums on in doubling
        steps to a row that exceeds 0.prefix, then bisects the last step.
        """
        alpha, bits = int(prefix or "0", 2), len(prefix)

        def exceeds(row):
            return _scaled_lt(alpha, row[2], row[0], bits)

        k, row, step, end = self.k, self._row, 0, self._starts[-1]
        while not exceeds(top_row := self._on(k, row, top := min(k + step, end))):
            if top == end:
                return None
            k, row, step = top, top_row, 2 * step or 1
        while top - k > 1:
            mid = (k + top) // 2
            if exceeds(mid_row := self._on(k, row, mid)):
                top, top_row = mid, mid_row
            else:
                k, row = mid, mid_row
        self.k, self._row = top, top_row
        return top


def _pow2_sum(segments, x=1, prec: int = 64) -> tuple[int, int, int]:
    """Row (lo, hi, e) enclosing sum n 2**(-l/x) over segments (a, b, n): a Walk's last row."""
    walk = Walk(segments, x, prec)
    return walk.to(walk._starts[-1])


def omega_lower(enum: EnumerationResult) -> Dyadic:
    """Sum of 2**-|p| over discovered halting programs, z_lower at T = 1; exact dyadic."""
    return z_lower(enum, 1).lo


def cs_lower(enum: EnumerationResult) -> Dyadic:
    """Sum of 2**-|s| over compressible strings (H_up(s) < |s|); exact dyadic."""
    return DyadicInterval.from_row(_pow2_sum(enum.compressible_stream(1).segments)).lo


def z_lower(enum: EnumerationResult, T, prec: int = 64) -> DyadicInterval:
    """Enclosure of the tempered halting sum: 2**(-|p|/T) over halt programs.

    Degenerates to the plain halting sum at T=1 and to exact dyadics
    whenever num(T) divides every |p| * den(T).
    """
    halts = [(m, m + 1, n) for m, n in enum.halts.items()]
    return DyadicInterval.from_row(_pow2_sum(halts, _as_temperature(T), prec))


def cst_lower(enum: EnumerationResult, T, prec: int = 64, trend: bool = False) -> DyadicInterval:
    """Enclosure of sum 2**(-|s|/T) over compressible strings (H_up(s) < |s|).

    The membership test does not involve T; only the exponent does.  For
    T > 1 the family diverges in the limit, so only flagged partial-sum
    trends are allowed: pass trend=True to get the partial sum anyway.
    """
    t = _as_temperature(T)
    if t > 1 and not trend:
        raise ValueError("T > 1 is a divergent family; pass trend=True for partial sums")
    return DyadicInterval.from_row(_pow2_sum(enum.compressible_stream(1).segments, t, prec))


def csbt_lower(enum: EnumerationResult, T, trend: bool = False) -> Dyadic:
    """Sum of 2**-|s| over strings with H_up(s) < T|s|; exact dyadic.

    T enters only through the membership threshold, so every term is dyadic.
    """
    t = _as_temperature(T)
    if t > 1 and not trend:
        raise ValueError("T > 1 is a divergent family; pass trend=True for partial sums")
    return DyadicInterval.from_row(_pow2_sum(enum.compressible_stream(t).segments)).lo


def t_convergence_sum(enum: EnumerationResult, T) -> Dyadic:
    """Sum over compressible strings of (2**(-|s|/T))**T, by exponent algebra.

    (|s|/T) * T == |s| exactly in rational arithmetic, so the sum is the
    plain compressible-string sum, bit for bit; computed here through the
    exponent route as an independent identity check.
    """
    t = _as_temperature(T)
    total = Dyadic.zero()
    for a, b, n in enum.compressible_stream(1).segments:
        for length in range(a, b):
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
