"""Mean-value gap inequalities, candidate narrowing, and the composite machine.

Everything here runs over the finite compressible-string enumeration of a
completed budget.  The stream s_1, s_2, ... is the first-witness ordering
of strings with H_up(s) < |s|; partial sums over it, certified constants
for the two mean-value gap inequalities, and the reconstruction map that
recovers the binary expansion of a temperature from a prefix of the
compressible-string sum plus a short selector.

Transcendental constants enter only through certified rational enclosures,
so every inequality check is sound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

from .bits import bit_prefix_value, expansion_prefix, pair_to_bits
from .dyadic import Dyadic, DyadicInterval, _scaled_lt, pow2_enclosure
from .enumerator import EnumerationResult
from .machine import Machine, OutcomeKind, phi
from .measures import Walk, _pow2_sum, cs_lower, cst_lower


class ReconstructFailed(Exception):
    """No witness indices exist at this budget (precondition gap)."""


def ln2_enclosure(terms: int = 64) -> tuple[Fraction, Fraction]:
    """Rational enclosure of ln 2 from sum 1/(k 2**k), tail < 1/((K+1) 2**K)."""
    if terms < 1:
        raise ValueError("need at least one term")
    lcm = math.lcm(*range(1, terms + 1))
    partial = Fraction(sum((lcm // k) << (terms - k) for k in range(1, terms + 1)), lcm << terms)
    return partial, partial + Fraction(1, (terms + 1) << terms)


def z_k(enum: EnumerationResult, k: int, x, prec: int = 64) -> DyadicInterval:
    """Enclosure of sum_{i<=k} 2**(-|s_i|/x); exact when the exponents are integers."""
    return DyadicInterval.from_row(Walk(enum.compressible_stream(1).segments, x, prec).to(k))


def w_k(enum: EnumerationResult, k: int, x, prec: int = 64) -> DyadicInterval:
    """Enclosure of sum_{i<=k} |s_i| 2**(-|s_i|/x), in one pass that keeps nothing."""
    return DyadicInterval.from_row(Walk(enum.compressible_stream(1).segments, x, prec, weighted=True).to(k))


def stream_length(enum: EnumerationResult) -> int:
    return len(enum.compressible_stream(1))


class GapConstants(NamedTuple):
    """Certified constants for the gap inequalities at temperatures T < t < 1.

    2**c_upper dominates W(t) ln2 / T**2 from above (upper mean-value gap);
    2**-c_lower is dominated by ln2 |s_1| 2**(-|s_1|/T) (lower gap).  The
    thresholds n0, n1 and their maximum n2 bound where the floor identities
    start to hold.
    """

    T: Fraction
    t: Fraction
    c_upper: int
    c_lower: int
    n0: int
    n1: int
    n2: int


def _ceil_log2(x: Fraction) -> int:
    """Least c >= 0 with 2**c >= x, for x > 0."""
    return (math.ceil(x) - 1).bit_length()


def _c_lower(segments, T: Fraction, t: Fraction, prec: int) -> int:
    """Least c >= 0 with 2**-c <= ln2 |s_1| 2**(-|s_1|/T), at lower bounds; checks derive_constants' inputs.

    segments are the x = 1 stream's; 2**(-|s_1|/T) is enclosed alone, as z_k(enum, 1, T, prec) encloses it.
    """
    if not 0 < T < t < 1:
        raise ValueError("need 0 < T < t < 1")
    if not segments:
        raise ReconstructFailed("empty compressible stream at this budget")
    l1 = segments[0][0]
    z1 = pow2_enclosure(l1 * T.denominator, T.numerator, prec)
    lower = ln2_enclosure(max(prec, 32))[0] * l1 * z1.lo.as_fraction()
    if lower <= 0:
        raise ReconstructFailed("first-term lower bound vanished; raise prec")
    return _ceil_log2(1 / lower)


def derive_constants(enum: EnumerationResult, T, t, prec: int = 96) -> GapConstants:
    """Certified gap constants from interval bounds of known rounding direction.

    c_upper uses upper bounds of W(t), the whole w_k, and ln 2; c_lower is
    _c_lower's, which default_context reads alone.  Both read one x = 1
    stream.  Requires a nonempty stream and 0 < T < t < 1.
    """
    T = Fraction(T)
    t = Fraction(t)
    stream = enum.compressible_stream(1)
    c_lower = _c_lower(stream.segments, T, t, prec)
    w_hi = DyadicInterval.from_row(Walk(stream.segments, t, prec, weighted=True).to(len(stream))).hi.as_fraction()
    c_upper = _ceil_log2(w_hi * ln2_enclosure(max(prec, 32))[1] / (T * T))

    # n0: least n such that 0.(T|n) + 2**-n < t for every n' >= n.  Beyond
    # the least n* with 2**-n* < t - T, the bit length of floor(1/(t - T)),
    # the condition holds automatically, so only a finite scan is needed.
    n_star = ((t - T).denominator // (t - T).numerator).bit_length()
    n0 = n_star
    for n in range(n_star - 1, 0, -1):
        if bit_prefix_value(expansion_prefix(T, n)) + Fraction(1, 1 << n) < t:
            n0 = n
        else:
            break

    # n1: least n with (n' - c) 2**-n' <= 1 for all n' >= n; always 1 since
    # n - c <= n < 2**n
    n1 = 1

    n2 = max(n0, n1, c_upper + 1)
    return GapConstants(T, t, c_upper, c_lower, n0, n1, n2)


def _upper_holds(zx: tuple, zT: tuple, gap: Fraction, c: int) -> bool:
    """Z(x).hi - Z(T).lo < 2**c gap on rows (lo, hi, e), with gap = x - T."""
    e = max(zx[2], zT[2])
    d = (zx[1] << (e - zx[2])) - (zT[0] << (e - zT[2]))
    return _scaled_lt(d * gap.denominator, 0, gap.numerator, c + e)


def _lower_holds(zt: tuple, zT: tuple, gap: Fraction, c: int) -> bool:
    """Z(t).lo - Z(T).hi > 2**-c gap on rows (lo, hi, e), with gap = t - T."""
    e = max(zt[2], zT[2])
    d = (zt[0] << (e - zt[2])) - (zT[1] << (e - zT[2]))
    return _scaled_lt(gap.numerator, e, d * gap.denominator, c)


def _upper_point(constants: GapConstants, x) -> Fraction:
    x = Fraction(x)
    if not constants.T < x < constants.t:
        raise ValueError("x must lie strictly between T and t")
    return x


def _lower_point(constants: GapConstants, t) -> Fraction:
    t = Fraction(t)
    if not constants.T < t < 1:
        raise ValueError("t must lie strictly between T and 1")
    return t


def check_upper_gap(enum, k: int, constants: GapConstants, x, prec: int = 96) -> bool:
    """Certified instance of: Z_k(x) - Z_k(T) < 2**c_upper (x - T)."""
    x = _upper_point(constants, x)
    segments = enum.compressible_stream(1).segments
    zx, zT = (Walk(segments, y, prec).to(k) for y in (x, constants.T))
    return _upper_holds(zx, zT, x - constants.T, constants.c_upper)


def check_lower_gap(enum, k: int, constants: GapConstants, t, prec: int = 96) -> bool:
    """Certified instance of: Z_k(t) - Z_k(T) > 2**-c_lower (t - T); needs k >= 1."""
    if k < 1:
        raise ValueError("lower gap needs k >= 1 (the first stream element)")
    t = _lower_point(constants, t)
    segments = enum.compressible_stream(1).segments
    zt, zT = (Walk(segments, y, prec).to(k) for y in (t, constants.T))
    return _lower_holds(zt, zT, t - constants.T, constants.c_lower)


def upper_gap_sweep(enum, constants: GapConstants, xs, prec: int = 96) -> bool:
    """check_upper_gap at every x in xs and k = 0 .. stream length, decided at k = K alone.

    The left side Z_k(x).hi - Z_k(T).lo grows with k: step k adds
    hi(2**(-l_k/x)) - lo(2**(-l_k/T)) > 0, since x > T and l_k >= 1 put
    2**(-l_k/x) strictly above 2**(-l_k/T).  The right side does not depend
    on k, so the inequality holds at every k iff it holds at k = K.
    """
    xs = [_upper_point(constants, x) for x in xs]
    segments = enum.compressible_stream(1).segments
    zT = _pow2_sum(segments, constants.T, prec)
    return all(_upper_holds(_pow2_sum(segments, x, prec), zT, x - constants.T, constants.c_upper) for x in xs)


def lower_gap_sweep(enum, constants: GapConstants, t, prec: int = 96) -> bool:
    """The lower gap at every k = 1 .. stream length, certified at k = 1 alone.

    Step k adds 2**(-l_k/t) - 2**(-l_k/T) > 0 to the true Z_k(t) - Z_k(T),
    since t > T, and the right side does not depend on k, so a certified
    instance at k = 1 proves the inequality at every k.  check_lower_gap at
    a larger k adds each term's rounding, and fails where the gap holds
    once a term's two enclosures, each at most 2**-prec wide, overlap.
    """
    return check_lower_gap(enum, 1, constants, t, prec)


def check_floor_identities(constants: GapConstants, n: int) -> tuple[bool, bool]:
    """Both halves of the floor sandwich at n, with c = c_upper:

    floor(0.(T|n) (n-c)) <= T (n-c)   and   T (n-c) - 2 <= floor(...).
    """
    T, c = constants.T, constants.c_upper
    approx = bit_prefix_value(expansion_prefix(T, n)) * (n - c)
    floored = approx.numerator // approx.denominator
    exact = T * (n - c)
    return (floored <= exact, exact - 2 <= floored)


def _offset(j: int) -> int:
    """Candidate offset order 0, +1, -1, +2, -2, ..."""
    if j == 0:
        return 0
    return (j + 1) // 2 if j % 2 else -(j // 2)


def candidate_at(t_n: str, c: int, index: int) -> str:
    """Candidate at an offset-order index: t_n + _offset(index), as n = |t_n| bits.

    The candidate set is candidate_at(t_n, c, j) for every j < 2**(c+1) + 3
    that does not raise: an index past that count, or one whose value leaves
    the n-bit range, raises ReconstructFailed.
    """
    if not 0 <= index < (1 << (c + 1)) + 3:
        raise ReconstructFailed(f"selector index {index} out of candidate range")
    value = (int(t_n, 2) if t_n else 0) + _offset(index)
    if not 0 <= value < (1 << len(t_n)):
        raise ReconstructFailed(f"candidate at index {index} leaves the {len(t_n)}-bit range")
    return pair_to_bits(value, len(t_n))


class PhiContext(NamedTuple):
    """Finite approximation tables standing in for the proof's recursive ones.

    f: rationals strictly above the target temperature, below 1, decreasing
    toward it.  g: rationals below or equal to the tempered
    compressible-string sum; the frame search reads only the largest.  c is
    the candidate constant (the lower-gap constant).  prec controls interval
    certification.
    """

    f: tuple[Fraction, ...]
    g: tuple[Fraction, ...]
    c: int
    prec: int = 96


# Entries of the f table, which also sets g's precision 8 + _DEPTH.
_DEPTH = 48


def default_context(enum: EnumerationResult, T, t, prec: int = 96) -> PhiContext:
    """f(l) = T + (t - T)/2**l for l = 1 .. _DEPTH, one lower bound g of the tempered sum, and c = c_lower.

    g is the sum's lower end at precision 8 + _DEPTH.  Every precision gives
    a sound bound, and the frame search reads only the largest g, so one
    is enough.  c is derive_constants' c_lower, without W(t) and the rest.
    """
    T = Fraction(T)
    t = Fraction(t)
    c = _c_lower(enum.compressible_stream(1).segments, T, t, prec)
    f = tuple(T + (t - T) / (1 << l) for l in range(1, _DEPTH + 1))
    g = (cst_lower(enum, T, prec=8 + _DEPTH).lo.as_fraction(),)
    return PhiContext(f, g, c, prec)


class _Frame(NamedTuple):
    k0: int
    t_n: str


def _walks(enum: EnumerationResult, ctx: PhiContext):
    """walk(x): the x = 1 stream's one Walk at temperature x, built on first use; nondecreasing prefixes share it."""
    return cache(partial(Walk, enum.compressible_stream(1).segments, prec=ctx.prec))


def _candidate_frame(n: int, cs_prefix: str, ctx: PhiContext, walk) -> _Frame:
    """Cutoff k0 and the n-bit expansion of the first f(l0) with Z_k0(f(l0)) < some g(m0), on a _walks table."""
    if n < 1:
        raise ReconstructFailed("n must be positive")
    if (k0 := walk(Fraction(1)).cutoff(cs_prefix)) is None:
        raise ReconstructFailed("partial sums never exceed the given prefix")
    # Some g(m) exceeds z_hi exactly when the largest does; z_hi > 0, so an
    # empty g certifies nothing.
    g_max = max(ctx.g, default=0)
    for f_l in ctx.f:
        _, hi, e = walk(f_l).to(k0)
        if _scaled_lt(hi * g_max.denominator, 0, g_max.numerator, e):
            return _Frame(k0, expansion_prefix(f_l, n))
    raise ReconstructFailed("no certified (l0, m0) pair within the context tables")


def phi_reconstruct(
    enum: EnumerationResult, n: int, cs_prefix: str, selector: str, ctx: PhiContext
) -> str:
    """Rebuild an n-bit expansion prefix from a sum prefix and a selector.

    Follows the candidate-narrowing construction: locate the cutoff k0 for
    the prefix, certify an approximation pair (l0, m0), take the n-bit
    expansion of f(l0), and let the selector pick among its dyadic-integer
    neighbours.  With the correct selector the result is the target
    temperature's n-bit prefix, exactly.
    """
    if len(selector) != ctx.c + 2:
        raise ReconstructFailed(f"selector must have exactly {ctx.c + 2} bits")
    frame = _candidate_frame(n, cs_prefix, ctx, _walks(enum, ctx))
    return candidate_at(frame.t_n, ctx.c, int(selector, 2) if selector else 0)


def true_selector(enum: EnumerationResult, n: int, cs_prefix: str, target: Fraction, ctx: PhiContext) -> str:
    """Selector bits that make phi_reconstruct return target's n-bit prefix."""
    return _selector(_candidate_frame(n, cs_prefix, ctx, _walks(enum, ctx)), n, target, ctx.c)


def _selector(frame: _Frame, n: int, target: Fraction, c: int) -> str:
    want = int(expansion_prefix(Fraction(target), n), 2)
    diff = want - int(frame.t_n, 2)
    j = 0 if diff == 0 else (2 * diff - 1 if diff > 0 else -2 * diff)
    candidate_at(frame.t_n, c, j)  # raises unless the target is among the candidates
    return pair_to_bits(j, c + 2)


class RoundTrip(NamedTuple):
    n: int
    prefix_bits: str
    selector: str
    reconstructed: str
    expected: str
    tail_certified: bool
    k0: int | None  # None where the frame search or selector failed

    @property
    def ok(self) -> bool:
        return self.reconstructed == self.expected and self.tail_certified


def reconstruction_roundtrips(enum: EnumerationResult, T, ns, ctx: PhiContext) -> list[RoundTrip]:
    """Full self-consistency pass at each n of ns, which must strictly increase.

    At each n, feeds the true ceil(T n)-bit prefix of the compressible-string
    sum (expansion with infinitely many ones, so the prefix value is strictly
    below the sum), derives the correct selector, reconstructs, and also
    certifies the tail bound sum_{i>k0} 2**(-|s_i|/T) < 2**-n.  An n whose
    frame search or selector fails is not ok.  The prefixes nest, so k0 never
    decreases, and one walk per temperature serves every n.
    """
    T = Fraction(T)
    whole = cst_lower(enum, T, ctx.prec)  # checks 0 < T <= 1
    ns = list(ns)
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must strictly increase")
    cs = cs_lower(enum).as_fraction()
    if cs == 0:
        raise ReconstructFailed("compressible-string sum is zero at this budget")
    walk = _walks(enum, ctx)
    trips = []
    for n in ns:
        prefix = expansion_prefix(cs, -((-T.numerator * n) // T.denominator), ones=True)  # ceil(T n) bits
        expected = expansion_prefix(T, n)
        try:
            frame = _candidate_frame(n, prefix, ctx, walk)
            selector = _selector(frame, n, T, ctx.c)
        except ReconstructFailed:
            trips.append(RoundTrip(n, prefix, "", "", expected, False, None))
            continue
        rebuilt = candidate_at(frame.t_n, ctx.c, int(selector, 2))
        tail = whole - DyadicInterval.from_row(walk(T).to(frame.k0))
        trips.append(RoundTrip(n, prefix, selector, rebuilt, expected, tail.hi < Dyadic.pow2(n), frame.k0))
    return trips


def reconstruction_roundtrip(enum: EnumerationResult, T, n: int, ctx: PhiContext) -> RoundTrip:
    """reconstruction_roundtrips at the one n."""
    return reconstruction_roundtrips(enum, T, [n], ctx)[0]


class CompositeOutcome(NamedTuple):
    status: str  # an OutcomeKind value, or "undefined"
    output: str | None = None
    consumed: int = 0


class CompositeMachine:
    """Prefix-free decoder for inputs p q v s.

    p and q are programs of the base machine (self-delimiting by its own
    exact-consumption reads), v has phi(output of q) bits, s has c+2 bits;
    the result is the reconstruction applied to (phi(output of p), v, s).
    Prefix-freeness is inherited: the p and q reads are self-delimiting and
    the v, s tails have lengths fixed by what precedes them.
    """

    def __init__(self, machine: Machine, enum: EnumerationResult, ctx: PhiContext):
        self.machine = machine
        self.enum = enum
        self.ctx = ctx

    def decode(self, bits: str, step_budget: int) -> CompositeOutcome:
        first = self.machine.decode_prefix(bits, step_budget)
        if first.kind is not OutcomeKind.HALT:
            return CompositeOutcome(first.kind.value, consumed=first.consumed)
        n = phi(first.output)
        rest = bits[first.consumed :]
        second = self.machine.decode_prefix(rest, step_budget)
        if second.kind is not OutcomeKind.HALT:
            return CompositeOutcome(second.kind.value, consumed=first.consumed + second.consumed)
        m = phi(second.output)
        pos = first.consumed + second.consumed
        v = bits[pos : pos + m]
        if len(v) < m:
            return CompositeOutcome(OutcomeKind.NEEDS_MORE_INPUT.value, consumed=len(bits))
        selector = bits[pos + m : pos + m + self.ctx.c + 2]
        if len(selector) < self.ctx.c + 2:
            return CompositeOutcome(OutcomeKind.NEEDS_MORE_INPUT.value, consumed=len(bits))
        consumed = pos + m + self.ctx.c + 2
        if n > step_budget:
            # emitting the n-bit result costs n steps (shared step contract)
            return CompositeOutcome(OutcomeKind.OUT_OF_BUDGET.value, consumed=consumed)
        try:
            output = phi_reconstruct(self.enum, n, v, selector, self.ctx)
        except ReconstructFailed:
            return CompositeOutcome("undefined", consumed=consumed)
        kind = OutcomeKind.HALT if consumed == len(bits) else OutcomeKind.HALTED_EARLY
        return CompositeOutcome(kind.value, output, consumed)
