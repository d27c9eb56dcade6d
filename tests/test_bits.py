from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from omegalab.bits import (
    bit_prefix_value,
    bits_to_pair,
    expansion_prefix,
    gamma_encode,
    nat_to_string,
    pair_to_bits,
    string_to_nat,
)
from reference import _gamma

bitstrings = st.text(alphabet="01", max_size=40)


def test_string_number_identification():
    # lambda -> 0, then length-lex order
    assert string_to_nat("") == 0
    assert string_to_nat("0") == 1
    assert string_to_nat("1") == 2
    assert string_to_nat("00") == 3
    assert string_to_nat("0101") == 20
    assert nat_to_string(20) == "0101"


@given(st.integers(min_value=0, max_value=10**9))
def test_nat_string_roundtrip(n):
    assert string_to_nat(nat_to_string(n)) == n


def test_gamma_examples():
    assert gamma_encode(1) == "1"
    assert gamma_encode(2) == "010"
    assert gamma_encode(5) == "00101"
    # the package decodes gamma inside _purecore only; the oracle's decoder
    # is the string-level one these tests pin
    assert _gamma("00101") == (5, 5)
    assert _gamma("001011") == (5, 5)  # trailing bits ignored


@given(st.integers(min_value=1, max_value=10**12))
def test_gamma_roundtrip(n):
    code = gamma_encode(n)
    assert len(code) == 2 * (n.bit_length() - 1) + 1
    assert _gamma(code) == (n, len(code))


@pytest.mark.parametrize("s", ["", "0", "00", "001", "0000"])
def test_gamma_incomplete(s):
    assert _gamma(s) is None


@given(bitstrings)
def test_pair_roundtrip(s):
    val, length = bits_to_pair(s)
    assert pair_to_bits(val, length) == s


def test_bit_prefix_value():
    assert bit_prefix_value("") == 0
    assert bit_prefix_value("11") == Fraction(3, 4)


def test_expansion_prefix_conventions():
    third = Fraction(1, 3)
    assert expansion_prefix(third, 4) == "0101"
    # dyadic value, both conventions
    assert expansion_prefix(Fraction(1, 2), 3) == "100"
    assert expansion_prefix(Fraction(1, 2), 3, ones=True) == "011"


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
    st.integers(min_value=1, max_value=48),
)
def test_expansion_prefix_brackets(value, n):
    lo = bit_prefix_value(expansion_prefix(value, n))
    assert lo <= value < lo + Fraction(1, 1 << n)
    hi = bit_prefix_value(expansion_prefix(value, n, ones=True))
    assert hi < value <= hi + Fraction(1, 1 << n)


def former_expansion_prefix(value, n, ones=False):
    """expansion_prefix as it was before it took its floor in integers: Fraction arithmetic, the oracle."""
    frac = value - (value.numerator // value.denominator)
    scaled = frac * (1 << n)
    if ones:
        k = -(-scaled.numerator // scaled.denominator) - 1  # ceil - 1
    else:
        k = scaled.numerator // scaled.denominator
    return format(k, f"0{n}b")


# any sign and whole part; dyadic values with denominators up to 2**10000, where ones=True is exact at n >= k
values = st.one_of(
    st.fractions(),
    st.builds(lambda num, k: Fraction(num, 1 << k), st.integers(), st.integers(min_value=0, max_value=10000)),
)


@given(values, st.integers(min_value=1, max_value=10040), st.booleans())
@example(Fraction(-3, 1 << 10000), 10000, True)
@example(Fraction(1, 1 << 9999), 10040, True)
def test_expansion_prefix_matches_former_formula(value, n, ones):
    if ones and value.denominator == 1:
        with pytest.raises(ValueError):
            expansion_prefix(value, n, ones=True)
    else:
        assert expansion_prefix(value, n, ones=ones) == former_expansion_prefix(value, n, ones)
