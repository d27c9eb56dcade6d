"""Partial sums, walked forward or taken whole, and the streams they read.

The oracle is the per-term loop the sums replaced: one pow2_enclosure per
stream element, added interval by interval.  Dyadic sums are exact, so
every row, made an interval by DyadicInterval.from_row, must equal the
oracle's running sum bit for bit, inside a (length, count) pair of a Walk
as much as at its ends.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegalab import enumerator
from omegalab.bits import pair_to_bits
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
from omegalab.measures import Walk, _pow2_sum, cst_lower
from test_enumerator import expand

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


def walk_rows(segments, x, prec, weighted=False):
    """Rows 0 .. K of one Walk over segments, read at every k in turn."""
    walk = Walk(segments, x, prec, weighted)
    return [walk.to(k) for k in range(len(expand(segments)) + 1)]


@pytest.mark.parametrize("x", TEMPERATURES, ids=str)
@pytest.mark.parametrize("prec", PRECISIONS)
def test_table_entries_match_per_term_loop(enum14, x, prec):
    segments = enum14.compressible_stream(1).segments
    lengths = expand(segments)
    rows = [DyadicInterval.from_row(row) for row in walk_rows(segments, x, prec)]
    oracle = oracle_prefix_sums(lengths, x, prec, False)
    assert rows == oracle
    for k in (0, 1, 2, len(lengths) // 2, len(lengths)):
        assert DyadicInterval.from_row(Walk(segments, x, prec).to(k)) == oracle[k]
    want = oracle_prefix_sums(lengths, x, prec, True)
    for k in (0, 1, 2, len(lengths) // 2, len(lengths)):
        assert w_k(enum14, k, x, prec) == want[k]
    members = enum14.compressible_stream(1).members
    assert cst_lower(enum14, x, prec) == sum_pow2((Fraction(len(s)) / x for s in members), prec)


@pytest.mark.parametrize("x", [Fraction(2, 3), Fraction(4, 5)], ids=str)
def test_table_entries_match_per_term_loop_l18(enum18, x):
    segments = enum18.compressible_stream(1).segments
    lengths = expand(segments)
    assert len(lengths) == len(set(lengths)) == 499  # no two members share a length
    rows = [DyadicInterval.from_row(row) for row in walk_rows(segments, x, 64)]
    assert rows == oracle_prefix_sums(lengths, x, 64, False)


def test_tables_grow_only_as_asked(enum14):
    x = Fraction(7, 11)
    segments = enum14.compressible_stream(1).segments
    lengths = expand(segments)
    walk = Walk(segments, x, 64)
    assert z_k(enum14, 3, x) == DyadicInterval.from_row(walk.to(3))
    assert walk.k == 3 and walk.to(3) == Walk(segments, x, 64).to(3)
    assert walk.to(4) == Walk(segments, x, 64).to(4) == _pow2_sum(Counter(lengths[:4]), x, 64)
    assert w_k(enum14, 2, x).hi > DyadicInterval.zero().hi
    last = walk.to(len(lengths))
    with pytest.raises(ValueError):
        walk.to(len(lengths) + 1)
    assert walk.k == len(lengths) and walk.to(len(lengths)) == last
    for k in (-1, len(lengths) + 1):
        with pytest.raises(ValueError):
            Walk(segments, x, 64).to(k)


@pytest.mark.parametrize("threshold", [Fraction(1), Fraction(2, 3)], ids=str)
@pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 2), Fraction(1, 3)], ids=str)
def test_exact_sums_are_the_same_at_any_precision(enum14, threshold, x):
    """At x = 1/q every exponent l/x is an integer, so every partial sum is exact whatever prec reads it."""
    segments = enum14.compressible_stream(threshold).segments
    rows = walk_rows(segments, x, 8)[1:]
    assert all(lo == hi for lo, hi, _ in rows)
    for prec in (1, 64, 96, 200):
        assert walk_rows(segments, x, prec)[1:] == rows
        assert _pow2_sum(enum14.compressible_stream(threshold).histogram, x, prec) == rows[-1]


def test_streams_are_built_on_each_call(enum14):
    """A stream is built from the runs on each call, and the result keeps none."""
    keys = set(vars(enum14))
    first = enum14.compressible_stream(Fraction(2, 3))
    again = enum14.compressible_stream(Fraction(2, 3))
    assert first is not again and first == again
    assert first.segments == again.segments and first.histogram == again.histogram
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
        assert set(vars(stream)) <= {"threshold", "runs", "segments", "histogram"}


def test_stream_membership(enum14):
    stream = enum14.compressible_stream(1)
    same = CompressibleStream(stream.threshold, stream.runs)
    assert same == stream and hash(same) == hash(stream)
    assert "segments" not in repr(same) and "members" not in repr(same)
    assert expand(stream.segments) == tuple(len(s) for s in stream.members)
    assert len(stream) == len(stream.members) == len(set(stream.members))


@pytest.mark.parametrize("threshold", [Fraction(1), Fraction(2, 3), Fraction(1, 2)], ids=str)
def test_histogram_counts_the_stream_lengths(enum14, threshold):
    stream = enum14.compressible_stream(threshold)
    assert stream.histogram == Counter(expand(stream.segments))
    assert stream.histogram is stream.histogram


def assert_walk_matches_oracle(segments, x, prec, weighted, ks=None, fresh=False):
    """A Walk's rows at every k, and cutoffs at row k's lower end and a unit below for k in ks, against the oracle.

    The cutoffs are asked in increasing order of one forward walk, whose
    answers never decrease, or each of a fresh walk.
    """
    oracle = oracle_prefix_sums(expand(segments), x, prec, weighted)
    assert [DyadicInterval.from_row(row) for row in walk_rows(segments, x, prec, weighted)] == oracle
    lows = [row.lo.as_fraction() for row in oracle]
    queries = set()
    for k in range(len(oracle)) if ks is None else ks:
        if lows[k] < 1:
            bits = lows[k].denominator.bit_length()  # a bit past the row's exponent, so one unit below is below it
            alpha = int(lows[k] * (1 << bits))
            queries |= {(Fraction(a, 1 << bits), pair_to_bits(a, bits)) for a in {alpha, max(alpha - 1, 0)}}
    forward = Walk(segments, x, prec, weighted)
    for value, prefix in sorted(queries):
        want = bisect_right(lows, value)
        walk = Walk(segments, x, prec, weighted) if fresh else forward
        assert walk.cutoff(prefix) == (want if want < len(oracle) else None), prefix


SEGMENT = st.tuples(
    st.one_of(st.integers(min_value=1, max_value=24), st.integers(min_value=25, max_value=600)),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, 2, 5]),
).map(lambda a_width_n: (a_width_n[0], a_width_n[0] + a_width_n[1], a_width_n[2]))


@pytest.mark.parametrize(
    "x",
    [Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(5, 7), Fraction(65, 67), *UNIT_TEMPERATURES],
    ids=str,
)
@given(
    segments=st.lists(SEGMENT, max_size=6),
    prec=st.sampled_from([1, 8, 96]),
    weighted=st.booleans(),
)
def test_whole_sum_matches_per_term_sum(x, segments, prec, weighted):
    # segments repeat lengths and hold ranges, so a Walk's pairs hold several
    # members; long lengths put exponents past prec in the same sum as
    # exponents below it
    lengths = expand(segments)
    histogram = Counter(lengths)
    if weighted:
        histogram = {length: length * n for length, n in histogram.items()}
    got = DyadicInterval.from_row(_pow2_sum(histogram, x, prec))
    assert got == oracle_prefix_sums(lengths, x, prec, weighted)[-1]
    assert_walk_matches_oracle(segments, x, prec, weighted)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("x", [Fraction(1), Fraction(4, 5)], ids=str)
def test_walk_matches_per_term_loop_inside_pairs_of_many_members(enum_at, x, weighted):
    """At L = 20 two pairs hold 1,023 and 2,047 members: rows at every k, cutoffs at their ends, middles and more."""
    segments = enum_at(20).compressible_stream(1).segments
    assert (20, 21, 1023) in segments and (22, 23, 2047) in segments
    starts = [0]
    for a, b, n in segments:
        starts += [starts[-1] + n * (m - a + 1) for m in range(a, b)]
    ks = set(range(0, starts[-1] + 1, 97))
    for c, d in zip(starts, starts[1:]):
        if d - c > 1:
            ks |= {c, c + 1, (c + d) // 2, d - 1, d}
    assert_walk_matches_oracle(segments, x, 64, weighted, ks, fresh=True)


def test_walk_refuses_rows_behind_it_and_past_the_end(enum_at):
    """to(k) behind the walk's position or past the stream's end raises ValueError, inside a pair or at its end."""
    segments = enum_at(20).compressible_stream(1).segments
    end = len(expand(segments))
    walk = Walk(segments, Fraction(2, 3), 64)
    for k, behind in ((3000, 2999), (end, end - 1)):
        row = walk.to(k)
        with pytest.raises(ValueError, match="out of range"):
            walk.to(behind)
        with pytest.raises(ValueError, match="out of range"):
            walk.to(end + 1)
        assert walk.k == k and walk.to(k) == row
    with pytest.raises(ValueError, match="out of range"):
        Walk(segments, 1, 64).to(-1)


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
