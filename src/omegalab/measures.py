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
S_k is the whole sum of the first k lengths' histogram, or a forward Walk
where S_k is read at many k in order; no table of rows is kept.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat

from .dyadic import Dyadic, DyadicInterval, _running_sums
from .enumerator import EnumerationResult


def _as_temperature(T) -> Fraction:
    t = Fraction(T)
    if t <= 0:
        raise ValueError("temperature must be positive")
    return t


class Walk:
    """Partial sums S_k = sum_{i<=k} 2**(-l_i/x) over a length sequence, read forward.

    It holds its position k and row S_k, as _running_sums yields it, and no other row.
    """

    def __init__(self, lengths, x, prec: int):
        self.k, self.row = 0, (0, 0, 0)
        self._running = _running_sums(zip(lengths, repeat(1)), _as_temperature(x), prec)

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, int, int]:
        self.row = next(self._running)
        self.k += 1
        return self.row

    def to(self, k: int) -> tuple[int, int, int]:
        """Row k, for the walk's position <= k <= the number of lengths."""
        while self.k < k:
            next(self)
        return self.row


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


def _prefix(lengths, k: int) -> Counter:
    """Histogram of the first k lengths, 0 <= k <= len(lengths): its _pow2_sum is a Walk's row k."""
    if not 0 <= k <= len(lengths):
        raise ValueError(f"k={k} out of range (stream length {len(lengths)})")
    return Counter(lengths[:k])


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
