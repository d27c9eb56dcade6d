import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from omegalab import dyadic
from omegalab.dyadic import (
    Dyadic,
    DyadicInterval,
    _endpoints,
    _fill_roots,
    _scaled_lt,
    iroot,
    pow2_enclosure,
)

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=0, max_value=60),
)


# _fill_roots takes den-th roots, den <= 64, of powers of two of (prec + 1 + guard) * den bits:
# at prec 96 after one retry, guard 32, that is up to (96 + 1 + 32) * 64 bits
@given(st.integers(min_value=0, max_value=1 << ((96 + 1 + 32) * 64)), st.integers(min_value=1, max_value=64))
def test_iroot_bracket(x, n):
    r, exact = iroot(x, n)
    assert r**n <= x < (r + 1) ** n
    assert exact == (r**n == x)


@given(st.integers(min_value=1, max_value=1 << 110), st.integers(min_value=1, max_value=64), st.sampled_from((-1, 0, 1)))
def test_iroot_next_to_powers(k, n, d):
    """k**n - 1, k**n and k**n + 1: where a float start or a Newton step is off by one."""
    x = k**n + d
    r, exact = iroot(x, n)
    assert r**n <= x < (r + 1) ** n
    assert exact == (r**n == x)
    assert n == 1 or r == (k - 1 if d < 0 else k)


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


def former_decimal(d):
    """Dyadic.decimal as it was before its digits were built by halves, through one Decimal(int): the oracle."""
    sign = "-" if d.num < 0 else ""
    digits = str(Decimal(abs(d.num) * 5 ** d.exp)).rjust(d.exp + 1, "0")
    whole, frac = digits[: len(digits) - d.exp], digits[len(digits) - d.exp :]
    return sign + (f"{whole}.{frac}" if frac else whole)


@given(dyadics)
def test_decimal_roundtrip(d):
    assert Dyadic.from_decimal(d.decimal()) == d
    assert d.decimal() == former_decimal(d)


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


@pytest.mark.parametrize(
    "text", ["0.5e3", "1_0.5", "Infinity", "NaN", "", "-", "1.", ".5", "+1", " 1", "1\n", "\u0663"]
)
def test_from_decimal_accepts_only_what_decimal_prints(text):
    # exponents, underscores and special values used to slip through Decimal
    with pytest.raises(ValueError):
        Dyadic.from_decimal(text)


# numerator bits and exponent: numerators past 2**16 bits are split in halves, past 2**17 twice
@pytest.mark.parametrize(
    "bits, exp",
    [(0, 0), (1, 0), (64, 0), (70000, 0), (140000, 0), (300000, 0), (1, 150000), (70000, 150000),
     (150000, 20000), (1000, 100000), (64, 61)],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_decimal_and_repr_match_former_formula(bits, exp, sign):
    num = sign * (random.Random(bits + exp).getrandbits(bits) | min(bits, 1))
    d = Dyadic(num, exp)
    assert d.decimal() == former_decimal(d)
    assert repr(d) == f"Dyadic({Decimal(d.num)}, {d.exp})"


def test_repr_past_int_str_digit_limit():
    d = Dyadic(3**9100, 5)
    assert repr(d) == f"Dyadic({Decimal(3**9100)}, 5)"
    assert len(repr(d)) > 4300
    assert repr(Dyadic(-3, 2)) == "Dyadic(-3, 2)"


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
    # one root table across terms whose exponents reduce to different denominators
    roots, rungs = {}, {}
    for num, den in terms:
        want = direct_root_enclosure(num, den, prec)
        assert pow2_enclosure(num, den, prec) == want
        assert DyadicInterval.from_row(_endpoints(num, den, prec, roots, rungs)) == want
    assert set(roots) == {den // gcd(num, den) for num, den in terms} - {1}
    assert not rungs


@pytest.mark.parametrize("prec", [1, 8, 64, 96, 200])
def test_shared_root_mixed_denominators(prec):
    # |s| / (4/5) = 5|s|/4 reduces to den 4, 2 or 1 inside one table
    roots, rungs = {}, {}
    for length in range(1, 120):
        got = DyadicInterval.from_row(_endpoints(5 * length, 4, prec, roots, rungs))
        assert got == direct_root_enclosure(5 * length, 4, prec)
    assert set(roots) == {4, 2}
    for num, den in ((3, 100), (7, 65), (12, 6)):  # ladder path and an integer exponent
        assert DyadicInterval.from_row(_endpoints(num, den, prec, roots, rungs)) == pow2_enclosure(num, den, prec)
    assert set(roots) == {4, 2} and rungs
    for num, den in ((1, 2), (4, 2), (3, 100)):  # root path, exact, ladder
        with pytest.raises(ValueError):
            pow2_enclosure(num, den, 0)


@pytest.mark.parametrize("prec", [1, 2, 8, 64, 96, 200])
def test_filled_roots_match_one_root_per_residue(prec, monkeypatch):
    """Roots filled from one den-th root against one iroot per residue, the way they were taken before.

    (1, 53), (2, 59) and (64, 37) leave some residue undecided at the first
    guard, so they take a second den-th root at twice the guard.
    """
    taken = []
    monkeypatch.setattr(dyadic, "iroot", lambda x, n: taken.append(n) or iroot(x, n))
    for den in range(2, 65):
        roots = _fill_roots(prec, den)
        assert roots[1:] == [iroot(1 << ((prec + 1) * den - r), den)[0] for r in range(1, den)], den
    retries = {den: taken.count(den) - 1 for den in set(taken) if taken.count(den) > 1}
    assert retries == {1: {53: 1}, 2: {59: 1}, 64: {37: 1}}.get(prec, {})


def former_pow2_by_root(num, den, prec):
    """The root path's formula before it returned integers, kept as the oracle.

    num/den is reduced with den not dividing num.  floor(2**(prec + 1 - r/den))
    is shifted down to floor(2**(shift - num/den)), shift = prec when
    num/den <= prec and q + 1 + prec above it.
    """
    root = iroot(1 << ((prec + 1) * den - num % den), den)[0]
    q = num // den
    shift = prec if prec * den >= num else q + 1 + prec
    floor = root >> (prec + 1 - (shift - q))
    return floor, floor + 1, shift


precs = st.integers(min_value=1, max_value=200)


@given(st.data(), precs, st.integers(min_value=2, max_value=64), st.booleans())
def test_endpoints_root_path_match_former_formula(data, prec, den, above):
    r = data.draw(st.integers(min_value=1, max_value=den - 1))
    q = data.draw(st.integers(prec, 3 * prec) if above else st.integers(0, prec - 1))  # num/den vs prec
    g = gcd(r, den)
    num, den = (q * den + r) // g, den // g
    assert (num > prec * den) == above
    want = former_pow2_by_root(num, den, prec)
    roots = {}
    assert _endpoints(num, den, prec, roots, {}) == want
    kept = roots[den]
    assert _endpoints(3 * num, 3 * den, prec, roots, {}) == want  # unreduced, from the kept root
    assert roots == {den: kept} and roots[den] is kept
    lo, hi, e = want
    assert DyadicInterval.from_row(want) == DyadicInterval(Dyadic(lo, e), Dyadic(hi, e))
    assert pow2_enclosure(num, den, prec) == DyadicInterval(Dyadic(lo, e), Dyadic(hi, e))


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=300), precs)
def test_endpoints_integer_exponent_match_pow2(k, den, prec):
    a, b, e = _endpoints(k * den, den, prec, {}, {})
    assert (a, b, e) == (1, 1, k)
    assert Dyadic(a, e) == Dyadic.pow2(k)


def former_pow2_by_ladder(num, den, prec):
    """The ladder as it was before its rungs were kept, rebuilding them per term: the oracle.

    num/den is reduced with den > 64.  Returns (a, b, e) as _endpoints does.
    """
    q, r = divmod(num, den)
    work = prec + 16
    while True:
        scale = 1 << work
        # interval chain s_i enclosing 2**(-2**-i), starting at 2**-1/2
        lo_i = isqrt(scale * scale // 2)
        hi_i = lo_i + 1
        frac = (r << work) // den  # floor of r/den to `work` bits; tail in [0, 2**-work)
        lo, hi = scale, scale
        for i in range(1, work + 1):
            if (frac >> (work - i)) & 1:
                lo = (lo * lo_i) >> work
                hi = ((hi * hi_i) >> work) + 1
            if i < work:
                lo_i = isqrt(lo_i << work)
                v = hi_i << work
                hi_i = isqrt(v)
                if hi_i * hi_i < v:
                    hi_i += 1
        # dropped exponent tail: divide by 2**t with t < 2**-work
        lo = lo - (lo >> work) - 1
        if hi - lo <= 1 << (work - prec):
            return max(lo, 0), hi, work + q
        work += 32


@pytest.mark.parametrize("prec", [1, 8, 64, 96, 200])
def test_ladder_rungs_are_built_once_per_working_precision(prec):
    rng = random.Random(prec)
    terms = []
    while len(terms) < 60:
        num, den = rng.randint(0, 3000), rng.randint(65, 400)
        if den // gcd(num, den) > 64:
            terms += [(num, den)] * rng.randint(1, 2)  # some exponents repeat
    rng.shuffle(terms)
    roots, rungs = {}, {}
    works = set()
    for num, den in terms:
        g = gcd(num, den)
        want = former_pow2_by_ladder(num // g, den // g, prec)
        kept = dict(rungs)
        assert _endpoints(num, den, prec, roots, rungs) == want
        assert all(rungs[work] is chain for work, chain in kept.items())  # no chain is rebuilt
        works.update(range(prec + 16, want[2] - num // den + 1, 32))  # e = work + q
    assert set(rungs) == works
    assert all(len(chain) == work for work, chain in rungs.items())
    assert not roots


@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=65, max_value=400), precs)
def test_endpoints_ladder_path_match_ladder(num, den, prec):
    g = gcd(num, den)
    assume(den // g > 64)
    want = former_pow2_by_ladder(num // g, den // g, prec)
    assert _endpoints(num, den, prec, {}, {}) == want
    lo, hi, e = want
    assert pow2_enclosure(num, den, prec) == DyadicInterval(Dyadic(lo, e), Dyadic(hi, e))
    _brackets(num, den, prec)


@given(st.integers(), st.integers(min_value=0, max_value=300), st.integers(), st.integers(min_value=0, max_value=300))
def test_scaled_lt_matches_fractions(a, sa, b, sb):
    assert _scaled_lt(a, sa, b, sb) == (Fraction(a * 2**sa) < Fraction(b * 2**sb))
