from fractions import Fraction

import pytest

from omegalab.bits import expansion_prefix, pair_to_bits
from omegalab.dyadic import Dyadic, DyadicInterval, pow2_enclosure
from omegalab.extractor import (
    NoCutoff,
    extract_incompressible,
    find_cutoff,
    tail_after_cutoff,
    verify_incompressible,
)
from omegalab.measures import cs_lower


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


def test_verify_no_witness_is_trivially_true(enum14):
    assert verify_incompressible(enum14, "1" * 64)


def test_tail_after_cutoff(enum14):
    members = enum14.compressible_stream(1).members
    tail = tail_after_cutoff(enum14, len(members) - 1)
    last = Fraction(1, 1 << len(members[-1]))
    assert last in tail
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
@pytest.mark.parametrize(
    "T", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5)], ids=str
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
