"""Partial sums, walked forward or taken whole, and the streams they read.

The oracles are per-term loops: one pow2_enclosure per stream element,
added interval by interval, or one _endpoints per length added as integers
(per_term_rows).  Sums are exact integer additions, so every row must equal
the oracle's running sum bit for bit, inside a segment, where a Walk splits
a length or a residue class, as much as at its ends.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegalab import Budget, Machine, dyadic, enumerate_domain, enumerator, measures
from omegalab.bits import pair_to_bits
from omegalab.census import census_profile
from omegalab.dyadic import DyadicInterval, _endpoints, pow2_enclosure
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
from omegalab.measures import Walk, _pow2_sum, cs_lower, cst_lower
from test_enumerator import REGISTRIES, expand

# 65/67 sends l*67/65 to the square-root ladder unless 5 or 13 divides l (den 65 > 64);
# the fixedpoint grid points 35/68, 49/68 and 25/51 reduce l*q/p to several
# denominators (35, 7, 5, 1; 49, 7, 1; 25, 5, 1), so one sum takes units of each
UNIT_TEMPERATURES = [Fraction(35, 68), Fraction(49, 68), Fraction(25, 51)]
TEMPERATURES = [
    Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(5, 6), Fraction(65, 67),
    *UNIT_TEMPERATURES,
]
PRECISIONS = [1, 8, 64, 96, 200]
# x = p/q with p = 2**70 + 1 and a 72-bit q: no residue class past prec holds two terms, and 2**q cannot be formed
HUGE_Q = Fraction(1, 2) + Fraction(1, 1 << 71)
THRESHOLDS = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(2)]


def whole_sum(segments, x, prec, weighted):
    """_pow2_sum's row, or the weighted whole sum: a weighted Walk's last row."""
    return Walk(segments, x, prec, True).to(len(expand(segments))) if weighted else _pow2_sum(segments, x, prec)


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


def per_term_rows(x, prec):
    """The per-length loop the closed forms replaced, as a function of (length, weight) pairs.

    It returns the running rows (lo, hi, e) of sum w 2**(-l/x) from row 0: one
    _endpoints per length, kept across calls, with shared root and rung
    tables, each added at the largest exponent so far.
    """
    x = Fraction(x)
    roots, rungs, kept = {}, {}, {}

    def rows(terms):
        lo = hi = e = 0
        out = [(0, 0, 0)]
        for length, w in terms:
            if length not in kept:
                kept[length] = _endpoints(length * x.denominator, x.numerator, prec, roots, rungs)
            a, b, f = kept[length]
            if f > e:
                lo, hi, e = lo << (f - e), hi << (f - e), f
            else:
                a, b = a << (e - f), b << (e - f)
            lo, hi = lo + w * a, hi + w * b
            out.append((lo, hi, e))
        return out

    return rows


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
    first_four = [(length, length + 1, 1) for length in lengths[:4]]
    assert walk.to(4) == Walk(segments, x, 64).to(4) == _pow2_sum(first_four, x, 64)
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
        assert _pow2_sum(segments, x, prec) == rows[-1]


def test_streams_are_built_on_each_call(enum14):
    """A stream is built from the runs on each call, and the result keeps none."""
    keys = set(vars(enum14))
    first = enum14.compressible_stream(Fraction(2, 3))
    again = enum14.compressible_stream(Fraction(2, 3))
    assert first is not again and first == again
    assert first.segments == again.segments and first.members == again.members
    assert set(vars(enum14)) == keys


def test_result_keeps_no_stream(machine):
    """A sweep over 1000 thresholds leaves the result as it was; the streams grow with the threshold."""
    res = enumerator.enumerate_domain(machine, enumerator.Budget(14))
    keys = set(vars(res))
    thresholds = [Fraction(j, 1000) for j in range(1, 1001)]
    histograms = [Counter(expand(res.compressible_stream(threshold).segments)) for threshold in thresholds]
    assert set(vars(res)) == keys == {"runs", "halts", "budget", "machine_digest", "machine_identity", "counts"}
    assert all(a <= b for a, b in zip(histograms, histograms[1:]))
    assert histograms[-1] == Counter(expand(res.compressible_stream(1).segments)) and not histograms[0]


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
        assert set(vars(stream)) <= {"threshold", "runs", "segments"}


def test_stream_membership(enum14):
    stream = enum14.compressible_stream(1)
    same = CompressibleStream(stream.threshold, stream.runs)
    assert same == stream and hash(same) == hash(stream)
    assert "segments" not in repr(same) and "members" not in repr(same)
    assert expand(stream.segments) == tuple(len(s) for s in stream.members)
    assert len(stream) == len(stream.members) == len(set(stream.members))


@pytest.mark.parametrize("threshold", [Fraction(1), Fraction(2, 3), Fraction(1, 2)], ids=str)
def test_histogram_counts_the_stream_lengths(enum14, threshold):
    """The census's per-length counts, summed from the segments, count the stream's members by length."""
    histogram = Counter(expand(enum14.compressible_stream(threshold).segments))
    assert [row.count for row in census_profile(enum14, threshold)] == [histogram[n] for n in range(max(histogram) + 1)]


def assert_walk_matches_oracle(segments, x, prec, weighted, ks=None, fresh=False, rows=None):
    """A Walk's rows at every k, and cutoffs at row k's lower end and a unit below for k in ks, against the oracle.

    The oracle is oracle_prefix_sums, or the rows given, which the walk's
    must equal as integers (lo, hi, e).  The cutoffs are asked in increasing
    order of one forward walk, whose answers never decrease, or each of a
    fresh walk.
    """
    if rows is None:
        oracle = oracle_prefix_sums(expand(segments), x, prec, weighted)
        assert [DyadicInterval.from_row(row) for row in walk_rows(segments, x, prec, weighted)] == oracle
    else:
        assert walk_rows(segments, x, prec, weighted) == rows
        oracle = [DyadicInterval.from_row(row) for row in rows]
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
    # segments repeat lengths and hold ranges, so a length holds several
    # members; long lengths put exponents past prec in the same sum as
    # exponents below it
    lengths = expand(segments)
    want = oracle_prefix_sums(lengths, x, prec, weighted)[-1]
    assert DyadicInterval.from_row(whole_sum(segments, x, prec, weighted)) == want
    points = [(length, length + 1, n) for length, n in Counter(lengths).items()]
    assert DyadicInterval.from_row(whole_sum(points, x, prec, weighted)) == want
    assert_walk_matches_oracle(segments, x, prec, weighted)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("x", [Fraction(1), Fraction(4, 5)], ids=str)
def test_walk_matches_per_term_loop_inside_pairs_of_many_members(enum_at, x, weighted):
    """At L = 20 two lengths hold 1,023 and 2,047 members: rows at every k, cutoffs at their ends, middles and more."""
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
    """to(k) behind the walk's position or past the stream's end raises ValueError, inside a length or at its end."""
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
        assert _pow2_sum((), x, 8) == (0, 0, 0)
    # prec < 1 raises on the exact path too, where no root is ever taken
    with pytest.raises(ValueError):
        _pow2_sum([(3, 4, 1), (6, 7, 1)], Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        _pow2_sum((), Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        cst_lower(enum14, Fraction(1, 3), prec=0)


@pytest.mark.parametrize("L", range(6, 23))
def test_whole_sums_match_per_term_sum_over_registries(L):
    """Every whole sum, plain and weighted, is the per-length loop's row bit for bit, over the halts and every stream.

    x = 1 and 1/2 have p = 1, 2/3 and 65/67 take roots and the ladder (p <= 64
    and p > 64); HUGE_Q, which is per length whatever the sum, is asked of the
    default machine's streams at thresholds 1 and 2.  A registry whose
    stream has the segments of one already summed is not summed again.
    """
    oracles = {x: per_term_rows(x, 64) for x in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(65, 67), HUGE_Q)}
    seen = set()
    for registry in sorted(REGISTRIES):
        enum = enumerate_domain(Machine(REGISTRIES[registry]), Budget(L))
        for x, rows in oracles.items():
            assert _pow2_sum([(m, m + 1, n) for m, n in enum.halts.items()], x, 64) == rows(enum.halts.items())[-1]
        for threshold in THRESHOLDS:
            stream = enum.compressible_stream(threshold)
            if stream.segments in seen:
                continue
            seen.add(stream.segments)
            for x, rows in oracles.items():
                if x == HUGE_Q and (registry != "none" or threshold not in (1, 2)):
                    continue
                for weighted in (False, True):
                    terms = ((m, m * n if weighted else n) for m, n in Counter(expand(stream.segments)).items())
                    assert whole_sum(stream.segments, x, 64, weighted) == rows(terms)[-1], (registry, threshold, x)


@pytest.mark.parametrize("L", range(6, 17))
def test_walk_rows_and_cutoffs_match_per_term_sum_over_registries(L):
    """Every row of a Walk, and a cutoff at and below each row's lower end, for every L <= 16 over the registries.

    A registry whose stream has the segments of one already walked is not walked again.
    """
    seen = set()
    for registry in sorted(REGISTRIES):
        enum = enumerate_domain(Machine(REGISTRIES[registry]), Budget(L))
        for threshold in (Fraction(1), Fraction(2)):
            segments = enum.compressible_stream(threshold).segments
            if segments in seen:
                continue
            seen.add(segments)
            for x in (Fraction(1), Fraction(2, 3), Fraction(65, 67), HUGE_Q):
                for weighted in (False, True):
                    rows = per_term_rows(x, 64)([(m, m if weighted else 1) for m in expand(segments)])
                    assert_walk_matches_oracle(segments, x, 64, weighted, rows=rows)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "x", [Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(5, 7), Fraction(65, 67), HUGE_Q, *UNIT_TEMPERATURES],
    ids=str,
)
def test_walk_matches_per_term_sum_on_long_segments_of_many_members(x, weighted):
    """Ranges longer than p, with several members a length, and lengths on both sides of prec: rows at every k."""
    segments = [(3, 90, 2), (40, 41, 7), (88, 400, 3), (1, 2, 1), (500, 503, 4)]
    rows = per_term_rows(x, 64)([(m, m if weighted else 1) for m in expand(segments)])
    assert whole_sum(segments, x, 64, weighted) == rows[-1]
    assert_walk_matches_oracle(segments, x, 64, weighted, rows=rows)


@pytest.mark.parametrize(
    "x, whole", [(Fraction(1), cs_lower), (Fraction(2, 3), lambda enum: cst_lower(enum, Fraction(2, 3)))], ids=str
)
def test_whole_sums_take_one_enclosure_per_residue_class(enum_at, monkeypatch, x, whole):
    """At L = 22 a whole sum takes at most min(p, b - a) enclosures a segment, and one per length at or below prec."""
    enum = enum_at(22)
    segments = enum.compressible_stream(1).segments
    p, q = x.numerator, x.denominator
    below = {m for a, b, _ in segments for m in range(a, min(b, 64 * p // q + 1))}
    calls = []
    endpoints = dyadic._endpoints
    monkeypatch.setattr(dyadic, "_endpoints", lambda *args: calls.append(args[0]) or endpoints(*args))
    whole(enum)
    assert 0 < len(calls) <= sum(min(p, b - a) for a, b, _ in segments) + len(below)


@pytest.mark.parametrize("x", [Fraction(1), Fraction(2, 3), Fraction(65, 67)], ids=str)
def test_forward_walk_sums_each_member_once(monkeypatch, x):
    """A walk moved to increasing k inside long ranges sums on from where it is, never from a segment's start."""
    ranges = []
    make = measures._segment_sums

    def recording(*args):
        sums = make(*args)
        return lambda a, b, n: ranges.append((a, b, n)) or sums(a, b, n)

    monkeypatch.setattr(measures, "_segment_sums", recording)
    segments = [(5, 3000, 2), (40, 41, 3), (100, 2000, 1)]
    walk = Walk(segments, x, 64)
    for k in [*range(0, 5990, 37), 5990, 5991, 5993, *range(6000, 7893, 101), 7893]:
        walk.to(k)
        assert sum((b - a) * n for a, b, n in ranges) == k
    assert walk.to(7893) == _pow2_sum(segments, x, 64)
