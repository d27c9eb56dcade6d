import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegalab.dyadic import Dyadic, DyadicInterval, SharedRootPow2, iroot, pow2_enclosure

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=0, max_value=60),
)


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=12))
def test_iroot_bracket(x, n):
    r, exact = iroot(x, n)
    assert r**n <= x < (r + 1) ** n
    assert exact == (r**n == x)


def test_iroot_exact_powers():
    assert iroot(0, 5) == (0, True)
    assert iroot(1 << 60, 6) == (1 << 10, True)
    assert iroot((1 << 60) + 1, 6) == (1 << 10, False)


def test_dyadic_canonical():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(0, 7) == Dyadic(0, 0)
    assert Dyadic(3, -2) == Dyadic(12, 0)
    assert Dyadic.pow2(-3).as_fraction() == 8


@given(st.integers(min_value=-(1 << 200), max_value=1 << 200), st.integers(min_value=-80, max_value=400))
def test_dyadic_canonical_against_fraction(num, exp):
    d = Dyadic(num, exp)
    f = Fraction(num, 1) / Fraction(2) ** exp
    assert d.as_fraction() == f
    # canonical: exp is the exponent of f's denominator, so equal values are equal objects
    assert 1 << d.exp == f.denominator
    assert d == Dyadic.from_fraction(f) and hash(d) == hash(Dyadic.from_fraction(f))


@given(dyadics, dyadics)
def test_dyadic_arithmetic_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    assert (a < b) == (a.as_fraction() < b.as_fraction())


@given(dyadics)
def test_decimal_roundtrip(d):
    assert Dyadic.from_decimal(d.decimal()) == d


@pytest.mark.parametrize(
    "d",
    [Dyadic(1, 15000), Dyadic(-(3**9001), 6138), Dyadic(3**10000, 0)],
    ids=["2^-15000", "-3^9001/2^6138", "3^10000"],
)
def test_decimal_roundtrip_past_int_str_digit_limit(d):
    text = d.decimal()
    assert len(text) > 4300  # Python's default int-to-string digit limit
    assert Fraction(Decimal(text)) == d.as_fraction()
    assert Dyadic.from_decimal(text) == d


def test_from_fraction_rejects_non_dyadic():
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))


def test_interval_ordering_guard():
    with pytest.raises(ValueError):
        DyadicInterval(Dyadic(1, 0), Dyadic(0, 0))


def _brackets(num, den, prec):
    """lo <= 2**(-num/den) <= hi, checked exactly via den-th powers."""
    iv = pow2_enclosure(num, den, prec)
    lo, hi = iv.lo.as_fraction(), iv.hi.as_fraction()
    assert lo >= 0
    assert lo**den * (1 << num) <= 1 <= hi**den * (1 << num)
    assert iv.width().as_fraction() <= Fraction(1, 1 << prec)
    return iv


def test_pow2_enclosure_exact_cases():
    assert pow2_enclosure(6, 3, 32) == DyadicInterval.point(Dyadic(1, 2))
    assert pow2_enclosure(0, 7, 32) == DyadicInterval.point(Dyadic(1, 0))


def test_pow2_enclosure_half():
    iv = _brackets(1, 2, 64)  # 1/sqrt(2)
    assert Fraction(7, 10) < iv.lo.as_fraction() < Fraction(71, 100)


def test_pow2_enclosure_ladder_path():
    # den > 64 takes the square-root ladder; same contract
    _brackets(1, 100, 64)
    _brackets(73, 257, 96)
    iv = pow2_enclosure(1, 1 << 40, 64)  # huge den, infeasible for the root method
    assert iv.hi.as_fraction() <= 1
    assert iv.lo.as_fraction() > Fraction(99, 100)


def test_pow2_enclosure_randomized_soundness():
    rng = random.Random(20240817)
    for _ in range(200):
        den = rng.choice([rng.randint(2, 64), rng.randint(65, 300)])
        num = rng.randint(1, 8 * den)
        prec = rng.randint(32, 128)
        iv1 = _brackets(num, den, prec)
        iv2 = _brackets(num, den, 2 * prec)
        if not iv1.exact:
            assert 2 * iv2.width().as_fraction() <= iv1.width().as_fraction()


def direct_root_enclosure(num, den, prec):
    """The root path computed per exponent: floor of 2**(shift - num/den) from its own root."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return DyadicInterval.point(Dyadic.pow2(num))
    shift = prec
    if shift * den < num:
        shift = -(-num // den) + prec
    root, exact = iroot(1 << (shift * den - num), den)
    assert not exact
    return DyadicInterval(Dyadic(root, shift), Dyadic(root + 1, shift))


exponents = st.tuples(st.integers(min_value=0, max_value=3000), st.integers(min_value=1, max_value=64))


@given(st.integers(min_value=1, max_value=200), st.lists(exponents, max_size=40))
def test_shared_root_matches_pow2_enclosure(prec, terms):
    # one sharer across terms whose exponents reduce to different denominators
    shared = SharedRootPow2(prec)
    for num, den in terms:
        want = direct_root_enclosure(num, den, prec)
        assert pow2_enclosure(num, den, prec) == want
        assert shared.enclosure(num, den) == want


@pytest.mark.parametrize("prec", [1, 8, 64, 96, 200])
def test_shared_root_mixed_denominators(prec):
    # |s| / (4/5) = 5|s|/4 reduces to den 4, 2 or 1 inside one table
    shared = SharedRootPow2(prec)
    for length in range(1, 120):
        assert shared.enclosure(5 * length, 4) == direct_root_enclosure(5 * length, 4, prec)
    for num, den in ((3, 100), (7, 65), (12, 6)):  # ladder path and an integer exponent
        assert shared.enclosure(num, den) == pow2_enclosure(num, den, prec)
    with pytest.raises(ValueError):
        SharedRootPow2(0)
