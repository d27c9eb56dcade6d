"""Per-length census of compressible strings.

A census row counts the length-n strings found compressible at the current
budget, summed over the stream's segments that hold length n.  In exhaustive
mode the count is exact for the truncated machine, and the strict-subset
property (fewer than 2**n members at every n) is a theorem, not an observation.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, localcontext
from functools import cache
from typing import NamedTuple

from ._purecore import output_kind
from .enumerator import EnumerationResult, _check_memory


class CensusRow(NamedTuple):
    n: int
    count: int
    h_upper_n: int | None  # H_up of the string identified with the number n

    @property
    def gap(self) -> float | None:
        """n - log2(count); diagnostic only, never asserted against a constant."""
        if self.count == 0:
            return None
        return self.n - math.log2(self.count)


def census(enum: EnumerationResult, n: int, T=1) -> CensusRow:
    """Length-n compressible strings under threshold T (H_up(s) < T*n): row n of census_profile, alone."""
    if n < 0:
        raise ValueError("n must be a natural number")
    count = sum(k for a, b, k in enum.compressible_stream(T).segments if a <= n < b)
    # the string of n is bin(n + 1) less its leading 1, and H_up reads only its length and kind
    return CensusRow(n, count, enum.complexity_upper(output_kind(n + 1)))


def census_profile(enum: EnumerationResult, T=1, n_max: int | None = None) -> list[CensusRow]:
    """Census rows for n = 0 .. n_max (default: longest compressible string).

    Refused with ValueError, before any row is built, where the CSV's
    two_pow_n column alone would outgrow memory: 2**n has at least 3n/10
    digits, so the rows up to n_max spell at least 3 n_max (n_max + 1) / 20.
    """
    counts = Counter()
    for a, b, k in enum.compressible_stream(T).segments:
        counts.update(range(a, b) if k == 1 else dict.fromkeys(range(a, b), k))
    if n_max is None:
        n_max = max(counts, default=0)
    _check_memory(3 * n_max * (n_max + 1) // 20, "the two_pow_n digits of the census rows")
    h_upper = cache(enum.complexity_upper)
    return [CensusRow(n, counts[n], h_upper(output_kind(n + 1))) for n in range(n_max + 1)]


def write_profile_csv(rows: list[CensusRow], path) -> None:
    """The rows as CSV, each written as the csv module's excel dialect writes it."""
    with open(path, "w", newline="") as fh, localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX)):
        fh.write("n,count,two_pow_n,gap,h_upper_n\r\n")
        n, two_pow_n = 0, Decimal(1)
        for row in rows:
            # exact, with no int-to-string digit limit, and doubled from the row before when it can be
            two_pow_n = two_pow_n + two_pow_n if row.n == n + 1 else Decimal(2) ** row.n
            n = row.n
            gap = "" if row.gap is None else f"{row.gap:.6f}"
            h_upper_n = "" if row.h_upper_n is None else row.h_upper_n
            fh.write("%d,%d,%s,%s,%s\r\n" % (n, row.count, two_pow_n, gap, h_upper_n))
