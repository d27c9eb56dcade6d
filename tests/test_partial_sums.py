"""Partial-sum tables and the caches on EnumerationResult.

The oracle is the per-term loop the tables replaced: one pow2_enclosure per
stream element, added interval by interval.  Dyadic sums are exact, so
every table row, made an interval by DyadicInterval.from_row, must equal
the oracle's running sum bit for bit.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegalab import enumerator
from omegalab.dyadic import DyadicInterval, pow2_enclosure
from omegalab.bits import expansion_prefix
from omegalab.enumerator import CompressibleStream
from omegalab.extractor import find_cutoff, tail_after_cutoff
from omegalab.fixedpoint import (
    default_context,
    derive_constants,
    lower_gap_sweep,
    reconstruction_roundtrip,
    upper_gap_sweep,
    w_k,
    z_k,
)
from omegalab.measures import PartialSums, _pow2_sum, cs_lower, cst_lower, stream_sums

# 65/67 sends l*67/65 to the square-root ladder unless 5 or 13 divides l (den 65 > 64);
# the fixedpoint grid points 35/68, 49/68 and 25/51 reduce l*q/p to several
# denominators (35, 7, 5, 1; 49, 7, 1; 25, 5, 1), so one sum takes units of each
UNIT_TEMPERATURES = [Fraction(35, 68), Fraction(49, 68), Fraction(25, 51)]
TEMPERATURES = [
    Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(5, 6), Fraction(65, 67),
    *UNIT_TEMPERATURES,
]
PRECISIONS = [1, 8, 64, 96, 200]


def sum_pow2(exponents, prec):
    total = DyadicInterval.zero()
    for e in exponents:
        total = total + pow2_enclosure(e.numerator, e.denominator, prec)
    return total


def oracle_prefix_sums(lengths, x, prec, weighted):
    sums = [DyadicInterval.zero()]
    for length in lengths:
        e = Fraction(length) / x
        term = pow2_enclosure(e.numerator, e.denominator, prec)
        if weighted:
            term = DyadicInterval(term.lo * length, term.hi * length)
        sums.append(sums[-1] + term)
    return sums


@pytest.mark.parametrize("x", TEMPERATURES, ids=str)
@pytest.mark.parametrize("prec", PRECISIONS)
def test_table_entries_match_per_term_loop(enum14, x, prec):
    lengths = enum14.compressible_stream(1).lengths
    table = stream_sums(enum14, x, prec)
    rows = [DyadicInterval.from_row(table.row(k)) for k in range(len(lengths) + 1)]
    assert rows == oracle_prefix_sums(lengths, x, prec, False)
    want = oracle_prefix_sums(lengths, x, prec, True)
    for k in (0, 1, 2, len(lengths) // 2, len(lengths)):
        assert w_k(enum14, k, x, prec) == want[k]
    members = enum14.compressible_stream(1).members
    assert cst_lower(enum14, x, prec) == sum_pow2((Fraction(len(s)) / x for s in members), prec)


@pytest.mark.parametrize("x", [Fraction(2, 3), Fraction(4, 5)], ids=str)
def test_table_entries_match_per_term_loop_l18(enum18, x):
    lengths = enum18.compressible_stream(1).lengths
    assert len(lengths) == len(set(lengths)) == 499  # no two members share a length
    rows = [DyadicInterval.from_row(row) for row in stream_sums(enum18, x, 64).full()]
    assert rows == oracle_prefix_sums(lengths, x, 64, False)


def test_tables_grow_only_as_asked(enum14):
    x = Fraction(7, 11)
    table = stream_sums(enum14, x, 64)
    assert z_k(enum14, 3, x) == DyadicInterval.from_row(table.row(3))
    assert len(table.rows) == 4
    assert w_k(enum14, 2, x).hi > DyadicInterval.zero().hi
    with pytest.raises(ValueError):
        table.row(len(table.lengths) + 1)
    with pytest.raises(ValueError):
        table.row(-1)


def test_only_reread_tables_are_cached(machine):
    # a fresh result, so no other test's lookups are in its cache
    res = enumerator.enumerate_domain(machine, enumerator.Budget(14))
    T, t = Fraction(2, 3), Fraction(4, 5)
    consts = derive_constants(res, T, t)
    grid = [T + (t - T) * Fraction(j, 5) for j in range(1, 5)]
    assert all(upper_gap_sweep(res, consts, x) for x in grid)
    assert lower_gap_sweep(res, consts, t)
    # keys are (threshold, x, prec); checked before the context's lookups could evict anything
    assert not [key for key in res._sum_tables if key[1] in grid or key[1] == t]
    default_context(res, T, t)
    cst_lower(res, Fraction(5, 7))
    keys = list(res._sum_tables)
    assert not [key for key in keys if key[1] in grid or key[1] in (t, Fraction(5, 7))]
    # T's own table is read by both sweeps; the context's one bound is a one-pass sum
    assert [key for key in keys if key[1] == T] == [(1, T, 96)]


def test_exact_tables_are_kept_once_at_any_precision(machine):
    """At x = 1/q every row is exact: one table per (threshold, x), whatever prec reads it."""
    res = enumerator.enumerate_domain(machine, enumerator.Budget(14))
    T = Fraction(1, 2)
    # the round trip first: its f tables are inexact, and the lookups below find the exact ones kept
    assert reconstruction_roundtrip(res, T, 8, default_context(res, T, Fraction(3, 4))).ok
    prefix = expansion_prefix(cs_lower(res).as_fraction(), 8, ones=True)
    for prec in (8, 64, 96):
        find_cutoff(res, prefix, prec=prec)
        find_cutoff(res, "0", Fraction(2, 3), "csb", prec)
        tail_after_cutoff(res, 3, T, "cs", prec)
        z_k(res, 5, T, prec)
    exact = {key: table for key, table in res._sum_tables.items() if key[1].numerator == 1}
    assert set(exact) == {(1, 1), (1, T), (Fraction(2, 3), 1)}
    assert all(len(key) == 3 for key in res._sum_tables if key not in exact)
    for (threshold, x), table in exact.items():
        lengths = res.compressible_stream(threshold).lengths
        for prec in (8, 64, 96):
            assert table.full() == PartialSums(lengths, x, prec).full()


def test_streams_built_once(enum14):
    assert enum14.compressible_stream(Fraction(2, 3)) is enum14.compressible_stream(Fraction(2, 3))


def test_table_cache_is_bounded(machine):
    res = enumerator.enumerate_domain(machine, enumerator.Budget(14))
    xs = [Fraction(1, 2) + Fraction(j, 4000) for j in range(1, 1001)]
    for x in xs:
        z_k(res, 1, x)
        assert len(res._sum_tables) <= enumerator._MAX_CACHED
    for j in range(1, 1001):
        res.compressible_stream(Fraction(j, 1000))
    assert len(res._streams) <= enumerator._MAX_CACHED
    # least recently used goes first: the last lookups are still cached
    last = stream_sums(res, xs[-1], 64)
    assert stream_sums(res, xs[-1], 64) is last
    assert (1, xs[0], 64) not in res._sum_tables


def test_stream_membership(enum14):
    stream = enum14.compressible_stream(1)
    same = CompressibleStream(stream.threshold, stream.members)
    assert same == stream and hash(same) == hash(stream)
    assert "lengths" not in repr(same)
    assert stream.lengths == tuple(len(s) for s in stream.members)


@pytest.mark.parametrize("threshold", [Fraction(1), Fraction(2, 3), Fraction(1, 2)], ids=str)
def test_histogram_counts_the_stream_lengths(enum14, threshold):
    stream = enum14.compressible_stream(threshold)
    assert stream.histogram == Counter(stream.lengths)
    assert stream.histogram is stream.histogram


@pytest.mark.parametrize(
    "x",
    [Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(5, 7), Fraction(65, 67), *UNIT_TEMPERATURES],
    ids=str,
)
@given(
    lengths=st.lists(
        st.one_of(st.integers(min_value=1, max_value=24), st.integers(min_value=25, max_value=600)),
        max_size=24,
    ),
    prec=st.sampled_from([1, 8, 96]),
    weighted=st.booleans(),
)
def test_whole_sum_matches_per_term_sum(x, lengths, prec, weighted):
    # small lengths repeat often, so grouped terms are exercised; long ones put
    # exponents past prec in the same sum as exponents below it
    histogram = Counter(lengths)
    if weighted:
        histogram = {length: length * n for length, n in histogram.items()}
    got = DyadicInterval.from_row(_pow2_sum(histogram, x, prec))
    assert got == oracle_prefix_sums(lengths, x, prec, weighted)[-1]


def test_whole_sum_edges(enum14):
    for x in (Fraction(1), Fraction(2, 3), Fraction(65, 67)):
        assert _pow2_sum({}, x, 8) == (0, 0, 0)
    # prec < 1 raises on the exact path too, where no root is ever taken
    with pytest.raises(ValueError):
        _pow2_sum({3: 1, 6: 1}, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        cst_lower(enum14, Fraction(1, 3), prec=0)
