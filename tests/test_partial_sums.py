"""Partial-sum tables and the caches on EnumerationResult.

The oracle is the per-term loop the tables replaced: one pow2_term per
stream element, added interval by interval.  Dyadic sums are exact, so
every table entry must equal the oracle's running sum bit for bit.
"""

from fractions import Fraction

import pytest

from omegalab import enumerator
from omegalab.dyadic import DyadicInterval
from omegalab.enumerator import CompressibleStream
from omegalab.fixedpoint import w_k, z_k
from omegalab.measures import cst_lower, pow2_term, stream_sums

TEMPERATURES = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(5, 6)]
PRECISIONS = [1, 8, 64, 96, 200]


def sum_pow2(exponents, prec):
    total = DyadicInterval.zero()
    for e in exponents:
        total = total + pow2_term(e, prec)
    return total


def oracle_prefix_sums(lengths, x, prec, weighted):
    sums = [DyadicInterval.zero()]
    for length in lengths:
        term = pow2_term(Fraction(length) / x, prec)
        sums.append(sums[-1] + (term.scale(length) if weighted else term))
    return sums


@pytest.mark.parametrize("x", TEMPERATURES, ids=str)
@pytest.mark.parametrize("prec", PRECISIONS)
def test_table_entries_match_per_term_loop(enum14, x, prec):
    lengths = enum14.compressible_stream(1).lengths
    for weighted in (False, True):
        want = oracle_prefix_sums(lengths, x, prec, weighted)
        table = stream_sums(enum14, x, prec, weighted)
        assert [table.at(k) for k in range(len(lengths) + 1)] == want
    members = enum14.compressible_stream(1).members
    assert cst_lower(enum14, x, prec) == sum_pow2((Fraction(len(s)) / x for s in members), prec)


@pytest.mark.parametrize("x", [Fraction(2, 3), Fraction(4, 5)], ids=str)
def test_table_entries_match_per_term_loop_l18(enum18, x):
    lengths = enum18.compressible_stream(1).lengths
    assert len(lengths) == len(set(lengths)) == 499  # no two members share a length
    assert stream_sums(enum18, x, 64).full() == oracle_prefix_sums(lengths, x, 64, False)


def test_tables_grow_only_as_asked(enum14):
    x = Fraction(7, 11)
    table = stream_sums(enum14, x, 64)
    assert z_k(enum14, 3, x) == table.at(3)
    assert len(table.sums) == 4
    assert w_k(enum14, 2, x).hi > DyadicInterval.zero().hi
    with pytest.raises(ValueError):
        table.at(len(table.lengths) + 1)
    with pytest.raises(ValueError):
        table.at(-1)


def test_exact_tables_are_shared_across_precisions(enum14):
    # |s| / (1/3) = 3|s| is an integer for every member: one table for all prec
    third = Fraction(1, 3)
    tables = {id(stream_sums(enum14, third, prec)) for prec in range(9, 57)}
    assert len(tables) == 1
    assert all(cst_lower(enum14, third, prec).exact for prec in (9, 56))
    assert stream_sums(enum14, Fraction(2, 3), 9) is not stream_sums(enum14, Fraction(2, 3), 10)


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
    assert (xs[0], 64, False) not in res._sum_tables


def test_stream_membership(enum14):
    stream = enum14.compressible_stream(1)
    assert all(s in stream for s in stream.members)
    assert "0" * 200 not in stream
    same = CompressibleStream(stream.threshold, stream.members)
    assert same == stream and hash(same) == hash(stream)
    assert "_member_set" not in repr(same) and "lengths" not in repr(same)
    assert stream.lengths == tuple(len(s) for s in stream.members)
