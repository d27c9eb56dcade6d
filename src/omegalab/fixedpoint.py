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

from dataclasses import dataclass
from fractions import Fraction

from .bits import bit_prefix_value, expansion_prefix, pair_to_bits
from .dyadic import Dyadic, DyadicInterval
from .enumerator import EnumerationResult
from .extractor import NoCutoff, find_cutoff, tail_after_cutoff
from .machine import Machine, OutcomeKind, phi
from .measures import cs_lower, cst_lower, stream_sums


class ReconstructFailed(Exception):
    """No witness indices exist at this budget (precondition gap)."""


def ln2_enclosure(terms: int = 64) -> tuple[Fraction, Fraction]:
    """Rational enclosure of ln 2 from sum 1/(k 2**k), tail < 1/((K+1) 2**K)."""
    if terms < 1:
        raise ValueError("need at least one term")
    partial = sum(Fraction(1, k << k) for k in range(1, terms + 1))
    return partial, partial + Fraction(1, (terms + 1) << terms)


def z_k(enum: EnumerationResult, k: int, x, prec: int = 64) -> DyadicInterval:
    """Enclosure of sum_{i<=k} 2**(-|s_i|/x); exact when the exponents are integers."""
    return stream_sums(enum, x, prec).at(k)


def w_k(enum: EnumerationResult, k: int, x, prec: int = 64) -> DyadicInterval:
    """Enclosure of sum_{i<=k} |s_i| 2**(-|s_i|/x)."""
    return stream_sums(enum, x, prec, weighted=True).at(k)


def stream_length(enum: EnumerationResult) -> int:
    return len(enum.compressible_stream(1))


@dataclass(frozen=True)
class GapConstants:
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


def prefix_value(T: Fraction, n: int) -> Fraction:
    """Value of the first n expansion bits of T (expansion with infinitely many zeros)."""
    return bit_prefix_value(expansion_prefix(T, n))


def derive_constants(enum: EnumerationResult, T, t, prec: int = 96) -> GapConstants:
    """Certified gap constants from interval bounds of known rounding direction.

    c_upper uses upper bounds of W(t) and ln 2; c_lower uses lower bounds of
    the first stream term.  Requires a nonempty stream and 0 < T < t < 1.
    """
    T = Fraction(T)
    t = Fraction(t)
    if not 0 < T < t < 1:
        raise ValueError("need 0 < T < t < 1")
    k_full = stream_length(enum)
    if k_full == 0:
        raise ReconstructFailed("empty compressible stream at this budget")
    ln2_lo, ln2_hi = ln2_enclosure(max(prec, 32))

    w_hi = w_k(enum, k_full, t, prec).hi.as_fraction()
    upper = w_hi * ln2_hi / (T * T)
    c_upper = 0
    while Fraction(1 << c_upper) < upper:
        c_upper += 1

    l1 = enum.compressible_stream(1).lengths[0]
    term_lo = z_k(enum, 1, T, prec).lo.as_fraction()
    lower = ln2_lo * l1 * term_lo
    if lower <= 0:
        raise ReconstructFailed("first-term lower bound vanished; raise prec")
    c_lower = 0
    while Fraction(1, 1 << c_lower) > lower:
        c_lower += 1

    # n0: least n such that 0.(T|n) + 2**-n < t for every n' >= n.  Beyond
    # n* with 2**-n* < t - T the condition holds automatically, so only a
    # finite scan is needed.
    n_star = 1
    while Fraction(1, 1 << n_star) >= t - T:
        n_star += 1
    n0 = n_star
    for n in range(n_star - 1, 0, -1):
        if prefix_value(T, n) + Fraction(1, 1 << n) < t:
            n0 = n
        else:
            break

    # n1: least n with (n' - c) 2**-n' <= 1 for all n' >= n; always 1 since
    # n - c <= n < 2**n
    n1 = 1

    n2 = max(n0, n1, c_upper + 1)
    return GapConstants(T, t, c_upper, c_lower, n0, n1, n2)


def _scaled_lt(a: int, sa: int, b: int, sb: int) -> bool:
    """a * 2**sa < b * 2**sb, in integers."""
    s = min(sa, sb)
    return a << (sa - s) < b << (sb - s)


def _upper_holds(zx: DyadicInterval, zT: DyadicInterval, gap: Fraction, c: int) -> bool:
    """Z(x).hi - Z(T).lo < 2**c gap, with gap = x - T."""
    d = zx.hi - zT.lo
    return _scaled_lt(d.num * gap.denominator, 0, gap.numerator, c + d.exp)


def _lower_holds(zt: DyadicInterval, zT: DyadicInterval, gap: Fraction, c: int) -> bool:
    """Z(t).lo - Z(T).hi > 2**-c gap, with gap = t - T."""
    d = zt.lo - zT.hi
    return _scaled_lt(gap.numerator, d.exp, d.num * gap.denominator, c)


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
    return _upper_holds(
        z_k(enum, k, x, prec), z_k(enum, k, constants.T, prec), x - constants.T, constants.c_upper
    )


def check_lower_gap(enum, k: int, constants: GapConstants, t, prec: int = 96) -> bool:
    """Certified instance of: Z_k(t) - Z_k(T) > 2**-c_lower (t - T); needs k >= 1."""
    if k < 1:
        raise ValueError("lower gap needs k >= 1 (the first stream element)")
    t = _lower_point(constants, t)
    return _lower_holds(
        z_k(enum, k, t, prec), z_k(enum, k, constants.T, prec), t - constants.T, constants.c_lower
    )


def upper_gap_sweep(enum, constants: GapConstants, x, prec: int = 96) -> bool:
    """check_upper_gap at every k = 0 .. stream length, in one walk of two tables."""
    x = _upper_point(constants, x)
    zx, zT = stream_sums(enum, x, prec).full(), stream_sums(enum, constants.T, prec).full()
    gap, c = x - constants.T, constants.c_upper
    return all(_upper_holds(a, b, gap, c) for a, b in zip(zx, zT))


def lower_gap_sweep(enum, constants: GapConstants, t, prec: int = 96) -> bool:
    """check_lower_gap at every k = 1 .. stream length, in one walk of two tables."""
    t = _lower_point(constants, t)
    zt, zT = stream_sums(enum, t, prec).full(), stream_sums(enum, constants.T, prec).full()
    gap, c = t - constants.T, constants.c_lower
    return all(_lower_holds(a, b, gap, c) for a, b in zip(zt[1:], zT[1:]))


def check_floor_identities(constants: GapConstants, n: int) -> tuple[bool, bool]:
    """Both halves of the floor sandwich at n, with c = c_upper:

    floor(0.(T|n) (n-c)) <= T (n-c)   and   T (n-c) - 2 <= floor(...).
    """
    T, c = constants.T, constants.c_upper
    approx = prefix_value(T, n) * (n - c)
    floored = approx.numerator // approx.denominator
    exact = T * (n - c)
    return (floored <= exact, exact - 2 <= floored)


def _offset(j: int) -> int:
    """Candidate offset order 0, +1, -1, +2, -2, ..."""
    if j == 0:
        return 0
    return (j + 1) // 2 if j % 2 else -(j // 2)


@dataclass(frozen=True)
class CandidateSet:
    """Dyadic-integer neighbours of t_n, in offset order, clamped to n bits."""

    candidates: tuple[str, ...]
    dropped: tuple[int, ...]  # offset-order indices that left the n-bit range


def candidate_set(t_n: str, c: int) -> CandidateSet:
    n = len(t_n)
    base = int(t_n, 2) if t_n else 0
    candidates = []
    dropped = []
    for j in range((1 << (c + 1)) + 3):
        value = base + _offset(j)
        if 0 <= value < (1 << n):
            candidates.append(pair_to_bits(value, n))
        else:
            dropped.append(j)
    return CandidateSet(tuple(candidates), tuple(dropped))


def candidate_at(t_n: str, c: int, index: int) -> str:
    """Candidate at an offset-order index without materializing the set."""
    if not 0 <= index < (1 << (c + 1)) + 3:
        raise ReconstructFailed(f"selector index {index} out of candidate range")
    value = (int(t_n, 2) if t_n else 0) + _offset(index)
    if not 0 <= value < (1 << len(t_n)):
        raise ReconstructFailed(f"candidate at index {index} leaves the {len(t_n)}-bit range")
    return pair_to_bits(value, len(t_n))


@dataclass(frozen=True)
class PhiContext:
    """Finite approximation tables standing in for the proof's recursive ones.

    f: rationals strictly above the target temperature, below 1, decreasing
    toward it.  g: rationals below or equal to the tempered
    compressible-string sum, increasing toward it.  c is the candidate
    constant (the lower-gap constant).  prec controls interval certification.
    """

    f: tuple[Fraction, ...]
    g: tuple[Fraction, ...]
    c: int
    prec: int = 96


def default_context(enum: EnumerationResult, T, t, depth: int = 48, prec: int = 96) -> PhiContext:
    """Tables converging to T from above and to the tempered sum from below."""
    T = Fraction(T)
    t = Fraction(t)
    constants = derive_constants(enum, T, t, prec)
    f = tuple(T + (t - T) / (1 << l) for l in range(1, depth + 1))
    g = tuple(
        cst_lower(enum, T, prec=8 + m).lo.as_fraction() for m in range(1, depth + 1)
    )
    return PhiContext(f, g, constants.c_lower, prec)


@dataclass(frozen=True)
class _Frame:
    k0: int
    t_n: str


def _candidate_frame(enum: EnumerationResult, n: int, cs_prefix: str, ctx: PhiContext) -> _Frame:
    """Cutoff k0 and the n-bit expansion of the first f(l0) with Z_k0(f(l0)) < some g(m0)."""
    if n < 1:
        raise ReconstructFailed("n must be positive")
    try:
        k0 = find_cutoff(enum, cs_prefix)
    except NoCutoff:
        raise ReconstructFailed("partial sums never exceed the given prefix") from None
    # Some g(m) exceeds z_hi exactly when the largest does; z_hi > 0, so an
    # empty g certifies nothing.
    g_max = max(ctx.g, default=0)
    for f_l in ctx.f:
        if z_k(enum, k0, f_l, ctx.prec).hi.as_fraction() < g_max:
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
    frame = _candidate_frame(enum, n, cs_prefix, ctx)
    return candidate_at(frame.t_n, ctx.c, int(selector, 2) if selector else 0)


def true_selector(enum: EnumerationResult, n: int, cs_prefix: str, target: Fraction, ctx: PhiContext) -> str:
    """Selector bits that make phi_reconstruct return target's n-bit prefix."""
    return _selector(_candidate_frame(enum, n, cs_prefix, ctx), n, target, ctx.c)


def _selector(frame: _Frame, n: int, target: Fraction, c: int) -> str:
    want = int(expansion_prefix(Fraction(target), n), 2)
    diff = want - int(frame.t_n, 2)
    j = 0 if diff == 0 else (2 * diff - 1 if diff > 0 else -2 * diff)
    if j >= (1 << (c + 1)) + 3:
        raise ReconstructFailed("target prefix is not among the candidates")
    return pair_to_bits(j, c + 2)


@dataclass(frozen=True)
class RoundTrip:
    n: int
    prefix_bits: str
    selector: str
    reconstructed: str
    expected: str
    tail_certified: bool
    k0: int

    @property
    def ok(self) -> bool:
        return self.reconstructed == self.expected and self.tail_certified


def reconstruction_roundtrip(enum: EnumerationResult, T, n: int, ctx: PhiContext) -> RoundTrip:
    """Full self-consistency pass at one n.

    Feeds the true ceil(T n)-bit prefix of the compressible-string sum
    (expansion with infinitely many ones, so the prefix value is strictly
    below the sum), derives the correct selector, reconstructs, and also
    certifies the tail bound sum_{i>k0} 2**(-|s_i|/T) < 2**-n.
    """
    T = Fraction(T)
    cs_value = cs_lower(enum).as_fraction()
    if cs_value == 0:
        raise ReconstructFailed("compressible-string sum is zero at this budget")
    m = -((-T.numerator * n) // T.denominator)  # ceil(T n)
    prefix = expansion_prefix(cs_value, m, ones=True)
    frame = _candidate_frame(enum, n, prefix, ctx)
    selector = _selector(frame, n, T, ctx.c)
    rebuilt = candidate_at(frame.t_n, ctx.c, int(selector, 2))
    tail_ok = tail_after_cutoff(enum, frame.k0, T, "cs", ctx.prec).hi < Dyadic.pow2(n)
    return RoundTrip(n, prefix, selector, rebuilt, expansion_prefix(T, n), tail_ok, frame.k0)


@dataclass(frozen=True)
class CompositeOutcome:
    status: str  # halt | needs_more_input | halted_early | out_of_budget | undefined
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
            return CompositeOutcome("needs_more_input", consumed=len(bits))
        selector = bits[pos + m : pos + m + self.ctx.c + 2]
        if len(selector) < self.ctx.c + 2:
            return CompositeOutcome("needs_more_input", consumed=len(bits))
        consumed = pos + m + self.ctx.c + 2
        if n > step_budget:
            # emitting the n-bit result costs n steps (shared step contract)
            return CompositeOutcome("out_of_budget", consumed=consumed)
        try:
            output = phi_reconstruct(self.enum, n, v, selector, self.ctx)
        except ReconstructFailed:
            return CompositeOutcome("undefined", consumed=consumed)
        status = "halt" if consumed == len(bits) else "halted_early"
        return CompositeOutcome(status, output, consumed)
