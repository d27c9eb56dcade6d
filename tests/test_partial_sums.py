"""Partial sums, walked forward or taken whole, and the streams they read.

The oracle is the per-term loop the sums replaced: one pow2_enclosure per
stream element, added interval by interval.  Dyadic sums are exact, so
every row, made an interval by DyadicInterval.from_row, must equal the
oracle's running sum bit for bit.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegalab import enumerator
from omegalab.dyadic import DyadicInterval, pow2_enclosure
from omegalab.enumerator import CompressibleStream
from omegalab.fixedpoint import (
    default_context,
    derive_constants,
    lower_gap_sweep,
    reconstruction_roundtrips,
    upper_gap_sweep,
    w_k,
    z_k,
)
from omegalab.measures import Walk, _pow2_sum, _prefix, cst_lower

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
    walk = Walk(lengths, x, prec)
    rows = [DyadicInterval.from_row(walk.to(k)) for k in range(len(lengths) + 1)]
    oracle = oracle_prefix_sums(lengths, x, prec, False)
    assert rows == oracle
    for k in (0, 1, 2, len(lengths) // 2, len(lengths)):
        assert DyadicInterval.from_row(_pow2_sum(_prefix(lengths, k), x, prec)) == oracle[k]
    want = oracle_prefix_sums(lengths, x, prec, True)
    for k in (0, 1, 2, len(lengths) // 2, len(lengths)):
        assert w_k(enum14, k, x, prec) == want[k]
    members = enum14.compressible_stream(1).members
    assert cst_lower(enum14, x, prec) == sum_pow2((Fraction(len(s)) / x for s in members), prec)


@pytest.mark.parametrize("x", [Fraction(2, 3), Fraction(4, 5)], ids=str)
def test_table_entries_match_per_term_loop_l18(enum18, x):
    lengths = enum18.compressible_stream(1).lengths
    assert len(lengths) == len(set(lengths)) == 499  # no two members share a length
    rows = [DyadicInterval.from_row(row) for row in Walk(lengths, x, 64)]
    assert rows == oracle_prefix_sums(lengths, x, 64, False)[1:]


def test_tables_grow_only_as_asked(enum14):
    x = Fraction(7, 11)
    lengths = enum14.compressible_stream(1).lengths
    walk = Walk(lengths, x, 64)
    assert z_k(enum14, 3, x) == DyadicInterval.from_row(walk.to(3))
    assert walk.k == 3 and walk.to(3) == walk.row
    assert next(walk) == walk.to(4) == _pow2_sum(_prefix(lengths, 4), x, 64)
    assert w_k(enum14, 2, x).hi > DyadicInterval.zero().hi
    last = walk.to(len(lengths))
    with pytest.raises(StopIteration):
        next(walk)
    assert (walk.k, walk.row) == (len(lengths), last)
    for k in (-1, len(lengths) + 1):
        with pytest.raises(ValueError):
            _prefix(lengths, k)


@pytest.mark.parametrize("threshold", [Fraction(1), Fraction(2, 3)], ids=str)
@pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 2), Fraction(1, 3)], ids=str)
def test_exact_sums_are_the_same_at_any_precision(enum14, threshold, x):
    """At x = 1/q every exponent l/x is an integer, so every partial sum is exact whatever prec reads it."""
    lengths = enum14.compressible_stream(threshold).lengths
    rows = list(Walk(lengths, x, 8))
    assert all(lo == hi for lo, hi, _ in rows)
    for prec in (1, 64, 96, 200):
        assert list(Walk(lengths, x, prec)) == rows
        assert _pow2_sum(enum14.compressible_stream(threshold).histogram, x, prec) == rows[-1]


def test_streams_are_built_on_each_call(enum14):
    """A stream is built from the runs on each call, and the result keeps none."""
    keys = set(vars(enum14))
    first = enum14.compressible_stream(Fraction(2, 3))
    again = enum14.compressible_stream(Fraction(2, 3))
    assert first is not again and first == again
    assert first.lengths == again.lengths and first.histogram == again.histogram
    assert set(vars(enum14)) == keys


def test_result_keeps_no_stream(machine):
    """A sweep over 1000 thresholds leaves the result as it was; the streams grow with the threshold."""
    res = enumerator.enumerate_domain(machine, enumerator.Budget(14))
    keys = set(vars(res))
    thresholds = [Fraction(j, 1000) for j in range(1, 1001)]
    histograms = [res.compressible_stream(threshold).histogram for threshold in thresholds]
    assert set(vars(res)) == keys == {"runs", "halts", "budget", "machine_digest", "machine_identity", "counts"}
    assert all(a <= b for a, b in zip(histograms, histograms[1:]))
    assert histograms[-1] == res.compressible_stream(1).histogram and not histograms[0]


def test_no_fixedpoint_path_keeps_partial_sums(machine, monkeypatch):
    """Constants, both sweeps, the context and a round-trip loop walk or sum: nothing keeps a row or a member."""
    res = enumerator.enumerate_domain(machine, enumerator.Budget(16))
    streams = []
    build = enumerator.EnumerationResult.compressible_stream

    def kept(self, threshold):
        streams.append(build(self, threshold))
        return streams[-1]

    monkeypatch.setattr(enumerator.EnumerationResult, "compressible_stream", kept)
    T, t = Fraction(1, 2), Fraction(3, 4)
    consts = derive_constants(res, T, t)
    assert upper_gap_sweep(res, consts, [T + (t - T) * Fraction(j, 5) for j in range(1, 5)])
    assert lower_gap_sweep(res, consts, t)
    ctx = default_context(res, T, t)
    assert all(trip.ok for trip in reconstruction_roundtrips(res, T, range(1, 25), ctx))
    assert set(vars(res)) == {"runs", "halts", "budget", "machine_digest", "machine_identity", "counts"}
    assert streams
    for stream in streams:
        assert set(vars(stream)) <= {"threshold", "runs", "lengths", "histogram"}


def test_stream_membership(enum14):
    stream = enum14.compressible_stream(1)
    same = CompressibleStream(stream.threshold, stream.runs)
    assert same == stream and hash(same) == hash(stream)
    assert "lengths" not in repr(same) and "members" not in repr(same)
    assert stream.lengths == tuple(len(s) for s in stream.members)
    assert len(stream) == len(stream.members) == len(set(stream.members))


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
        _pow2_sum({}, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        cst_lower(enum14, Fraction(1, 3), prec=0)
