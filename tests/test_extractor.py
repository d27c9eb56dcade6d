from bisect import bisect_right
from fractions import Fraction
from itertools import repeat

import pytest

from omegalab import Budget, Machine, enumerate_domain
from omegalab.bits import expansion_prefix, pair_to_bits
from omegalab.dyadic import Dyadic, DyadicInterval, pow2_enclosure
from omegalab.extractor import (
    NoCutoff,
    extract_incompressible,
    find_cutoff,
    tail_after_cutoff,
    verify_incompressible,
)
from omegalab.machine import LoopForeverDecoder, ReversePayloadDecoder
from omegalab.measures import Walk, cs_lower
from test_enumerator import expand


def test_cutoff_on_true_prefix(enum14):
    cs = cs_lower(enum14).as_fraction()
    prefix = expansion_prefix(cs, 12, ones=True)  # strictly below the sum
    k = find_cutoff(enum14, prefix)
    members = enum14.compressible_stream(1).members
    partial = sum(Fraction(1, 1 << len(s)) for s in members[:k])
    short = sum(Fraction(1, 1 << len(s)) for s in members[: k - 1])
    target = Fraction(int(prefix, 2), 1 << len(prefix))
    assert short <= target < partial


def test_cutoff_zero_prefix(enum14):
    assert find_cutoff(enum14, "") == 1  # first term already exceeds 0


def test_no_cutoff(enum14):
    with pytest.raises(NoCutoff):
        find_cutoff(enum14, "1" * 8)  # 0.11111111 is far above the sum


@pytest.mark.parametrize("L", [14, 18])
@pytest.mark.parametrize("mode, T", [("cs", Fraction(1)), ("csb", Fraction(2, 3))])
def test_cutoff_on_prefixes_longer_than_the_table_exponent(enum_at, L, mode, T):
    # Both tables are exact, and their last row's exponent e_K is the longest
    # member, so e_K + 40 bits spell every S_k exactly and one unit in the
    # last place below it.
    enum = enum_at(L)
    lengths = expand(enum.compressible_stream(1 if mode == "cs" else T).segments)
    bits = max(lengths) + 40
    value = Fraction(0)
    for k, length in enumerate(lengths, start=1):
        value += Fraction(1, 1 << length)
        exact = value.numerator << (bits - value.denominator.bit_length() + 1)
        if k < len(lengths):
            assert find_cutoff(enum, pair_to_bits(exact, bits), T, mode) == k + 1
        else:
            with pytest.raises(NoCutoff):
                find_cutoff(enum, pair_to_bits(exact, bits), T, mode)
        assert find_cutoff(enum, pair_to_bits(exact - 1, bits), T, mode) == k


def bisect_cutoff(rows, alpha_prefix):
    """The cutoff as a table read it, kept as the oracle: bisect the full row list's lower ends."""
    top = max(rows[-1][2], len(alpha_prefix))
    alpha = (int(alpha_prefix, 2) if alpha_prefix else 0) << (top - len(alpha_prefix))
    k = bisect_right(rows, alpha, key=lambda row: row[0] << (top - row[2]))
    return None if k == len(rows) else k


@pytest.mark.parametrize("L", [14, 18])
@pytest.mark.parametrize("mode, T", [("cs", Fraction(1)), ("cs", Fraction(2, 3)), ("csb", Fraction(2, 3))], ids=str)
def test_cutoff_walk_matches_bisect_over_the_rows(enum_at, L, mode, T):
    enum = enum_at(L)
    stream = enum.compressible_stream(1 if mode == "cs" else T)
    x = T if mode == "cs" else 1
    walk = Walk(stream.segments, x, 64)
    rows = [walk.to(k) for k in range(len(stream) + 1)]
    total = DyadicInterval.from_row(rows[-1]).lo.as_fraction()
    prefixes = [""] + [expansion_prefix(total, m, ones=True) for m in range(1, 40)] + ["1" * 16]
    for prefix in prefixes:
        want = bisect_cutoff(rows, prefix)
        if want is None:
            with pytest.raises(NoCutoff):
                find_cutoff(enum, prefix, T, mode)
        else:
            assert find_cutoff(enum, prefix, T, mode) == want


def test_extract_matches_bruteforce(enum14):
    for m in range(1, 13):
        got = extract_incompressible(enum14, m, 1, "cs")
        row_members = {
            s for s in enum14.compressible_stream(1).members if len(s) == m
        }
        want = next(
            pair_to_bits(v, m)
            for v in range(1 << m)
            if pair_to_bits(v, m) not in row_members
        )
        assert got == want
        assert verify_incompressible(enum14, got)


def census_row_extract(enum, n, T, mode):
    """The least length-m string outside the census row at the mode's threshold.

    The row is the length-m members of that threshold's stream.
    """
    t = Fraction(T)
    m, threshold = ((t.numerator * n) // t.denominator, 1) if mode == "cs" else (n, t)
    row = {s for s in enum.compressible_stream(threshold).members if len(s) == m}
    return next(s for s in map(pair_to_bits, range(1 << m), repeat(m)) if s not in row)


@pytest.mark.parametrize("L", [14, 18])
@pytest.mark.parametrize("registry", [{}, {1: ReversePayloadDecoder(), 2: LoopForeverDecoder()}])
def test_extract_matches_census_row_rule(L, registry):
    enum = enumerate_domain(Machine(registry), Budget(L))
    for mode in ("cs", "csb"):
        for T in map(Fraction, ("1/2", "2/3", "3/4", "1")):
            for n in range(2, 19):
                got = extract_incompressible(enum, n, T, mode)
                assert got == census_row_extract(enum, n, T, mode), (mode, T, n)


def test_extract_avoids_census(enum14):
    s = extract_incompressible(enum14, 12, 1, "cs")
    assert s == "0" * 11 + "1"  # 0^12 is taken
    assert verify_incompressible(enum14, s)


def test_extract_csb_mode(enum14):
    s = extract_incompressible(enum14, 25, Fraction(1, 2), "csb")
    assert s == "0" * 24 + "1"
    assert verify_incompressible(enum14, s, Fraction(1, 2))


def test_extract_validation(enum14):
    with pytest.raises(ValueError):
        extract_incompressible(enum14, 4, 2, "cs")
    with pytest.raises(ValueError):
        extract_incompressible(enum14, 1, Fraction(1, 2), "cs")  # floor(T n) = 0
    with pytest.raises(ValueError):
        extract_incompressible(enum14, 4, 1, "weird")


@pytest.mark.parametrize(
    "T, mode", [(0, "cs"), (0, "csb"), (Fraction(3, 2), "cs"), (Fraction(3, 2), "csb"), (1, "weird")], ids=str
)
@pytest.mark.parametrize(
    "read",
    [
        lambda enum, T, mode: find_cutoff(enum, "", T, mode),
        lambda enum, T, mode: tail_after_cutoff(enum, 0, T, mode),
        lambda enum, T, mode: extract_incompressible(enum, 4, T, mode),
    ],
    ids=["find_cutoff", "tail_after_cutoff", "extract_incompressible"],
)
def test_mode_refusals(enum14, read, T, mode):
    """Every reader of a sum family refuses a T outside (0, 1] and an unknown mode."""
    with pytest.raises(ValueError, match="unknown mode" if mode == "weird" else "0 < T <= 1"):
        read(enum14, T, mode)


def test_verify_no_witness_is_trivially_true(enum14):
    assert verify_incompressible(enum14, "1" * 64)


def test_tail_after_cutoff(enum14):
    members = enum14.compressible_stream(1).members
    tail = tail_after_cutoff(enum14, len(members) - 1)
    last = Fraction(1, 1 << len(members[-1]))
    assert tail.lo.as_fraction() <= last <= tail.hi.as_fraction()
    assert tail_after_cutoff(enum14, len(members)).exact


def test_tail_rejects_out_of_range(enum14):
    k_full = len(enum14.compressible_stream(1))
    for k in (-1, k_full + 1):
        with pytest.raises(ValueError):
            tail_after_cutoff(enum14, k)
    for T in (0, Fraction(3, 2)):
        with pytest.raises(ValueError):
            tail_after_cutoff(enum14, 0, T)


# The per-member loops the table reads replaced, kept as oracles: one
# pow2_enclosure per stream element, added interval by interval.

def old_terms(enum, T, mode, prec):
    stream = enum.compressible_stream(1 if mode == "cs" else T)
    terms = []
    for s in stream.members:
        e = Fraction(len(s)) / T if mode == "cs" else Fraction(len(s))
        terms.append(pow2_enclosure(e.numerator, e.denominator, prec))
    return terms


def old_find_cutoff(terms, alpha_prefix):
    alpha = Dyadic(int(alpha_prefix, 2) if alpha_prefix else 0, len(alpha_prefix))
    running = DyadicInterval.zero()
    for k, term in enumerate(terms, start=1):
        running = running + term
        if alpha < running.lo:
            return k
    return None


def old_tails(terms):
    """tail[k] = terms after position k; dyadic addition is exact, so summing
    from the back gives the old forward loop's interval bit for bit."""
    tails = [DyadicInterval.zero()]
    for term in reversed(terms):
        tails.append(term + tails[-1])
    return tails[::-1]


def oracle_prefixes(total: Fraction) -> list[str]:
    """The empty prefix, every ones-expansion prefix of 1-16 bits, and those
    reaching 16 bits past the leading zeros, so sums far below 2**-16 are
    probed as well."""
    lead = total.denominator.bit_length() - total.numerator.bit_length() + 1
    lengths = set(range(1, 17)) | set(range(lead, lead + 17))
    return [""] + [expansion_prefix(total, m, ones=True) for m in sorted(lengths)]


@pytest.mark.parametrize("L", [14, 18])
@pytest.mark.parametrize("mode", ["cs", "csb"])
@pytest.mark.parametrize("prec", [8, 64])
# 65/67: cs terms l*67/65 reduce to den 65 > 64, the square-root ladder, unless 5 or 13 divides l
@pytest.mark.parametrize(
    "T", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(65, 67)], ids=str
)
def test_cutoff_and_tail_match_per_member_loop(enum_at, L, mode, prec, T):
    enum = enum_at(L)
    terms = old_terms(enum, T, mode, prec)
    total = sum(terms, DyadicInterval.zero())
    for prefix in oracle_prefixes(total.lo.as_fraction()):
        want = old_find_cutoff(terms, prefix)
        assert want is not None
        assert find_cutoff(enum, prefix, T, mode, prec) == want
    above = "1" * 16
    assert Dyadic(int(above, 2), len(above)) > total.hi
    assert old_find_cutoff(terms, above) is None
    with pytest.raises(NoCutoff):
        find_cutoff(enum, above, T, mode, prec)

    exact = all(term.exact for term in terms)
    head_width = Dyadic.zero()  # summed widths of the terms up to k
    for k, want in enumerate(old_tails(terms)):
        got = tail_after_cutoff(enum, k, T, mode, prec)
        if exact:
            assert got == want
        else:
            assert got.lo <= want.lo and want.hi <= got.hi
            assert got.width() - want.width() <= head_width * 2
        if k < len(terms):
            head_width = head_width + terms[k].width()
