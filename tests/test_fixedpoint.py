from dataclasses import replace
from fractions import Fraction

import pytest

from omegalab.bits import expansion_prefix
from omegalab.enumerator import Budget, EnumerationResult, HaltEvent
from omegalab.fixedpoint import (
    CompositeMachine,
    GapConstants,
    PhiContext,
    ReconstructFailed,
    _candidate_frame,
    candidate_at,
    candidate_set,
    check_floor_identities,
    check_lower_gap,
    check_upper_gap,
    default_context,
    derive_constants,
    ln2_enclosure,
    lower_gap_sweep,
    phi_reconstruct,
    reconstruction_roundtrip,
    stream_length,
    true_selector,
    upper_gap_sweep,
    w_k,
    z_k,
)
from omegalab.machine import Machine, raw_program
from omegalab.bits import gamma_encode, nat_to_string
from omegalab.measures import cs_lower, cst_lower

T = Fraction(1, 2)
t = Fraction(3, 4)


@pytest.fixture(scope="module")
def consts(enum14):
    return derive_constants(enum14, T, t)


@pytest.fixture(scope="module")
def ctx(enum14):
    return default_context(enum14, T, t)


def test_ln2_enclosure():
    lo, hi = ln2_enclosure()
    # ln 2 = 0.693147180559945...
    assert Fraction(693147180559945, 10**15) < lo < hi < Fraction(693147180559946, 10**15)
    lo32, hi32 = ln2_enclosure(32)
    assert lo32 <= lo and hi <= hi32


def test_partial_sums_against_direct(enum14):
    members = enum14.compressible_stream(1).members
    assert stream_length(enum14) == len(members) == 115
    for k in (0, 1, 7, 115):
        direct = sum(Fraction(1, 1 << (2 * len(s))) for s in members[:k])
        iv = z_k(enum14, k, T)
        assert iv.exact and iv.lo.as_fraction() == direct
        directw = sum(Fraction(len(s), 1 << (2 * len(s))) for s in members[:k])
        ivw = w_k(enum14, k, T)
        assert ivw.exact and ivw.lo.as_fraction() == directw


def test_z_k_range_guard(enum14):
    with pytest.raises(ValueError):
        z_k(enum14, 116, T)
    with pytest.raises(ValueError):
        z_k(enum14, -1, T)


def test_constants_frozen(enum14, consts):
    assert consts == GapConstants(T, t, c_upper=0, c_lower=21, n0=3, n1=1, n2=3)


def test_constants_are_least(enum14, consts):
    # one notch tighter must fail the defining inequality
    from omegalab.dyadic import pow2_enclosure

    ln2_lo, ln2_hi = ln2_enclosure(96)
    w_hi = w_k(enum14, 115, t, 96).hi.as_fraction()
    assert Fraction(1 << consts.c_upper) >= w_hi * ln2_hi / (T * T)
    l1 = enum14.compressible_stream(1).lengths[0]
    e = Fraction(l1) / T
    term = pow2_enclosure(e.numerator, e.denominator, 96).lo.as_fraction()
    assert Fraction(1, 1 << consts.c_lower) <= ln2_lo * l1 * term
    assert Fraction(1, 1 << (consts.c_lower - 1)) > ln2_lo * l1 * term


def test_constants_validation(enum14):
    with pytest.raises(ValueError):
        derive_constants(enum14, t, T)  # needs T < t
    with pytest.raises(ValueError):
        derive_constants(enum14, Fraction(1, 2), Fraction(3, 2))


def test_empty_stream_rejected(enum_at):
    with pytest.raises(ReconstructFailed):
        derive_constants(enum_at(8), T, t)


def test_upper_gap_sweep(enum14, consts):
    xs = [T + (t - T) * Fraction(j, 8) for j in range(1, 8)]
    for x in xs:
        for k in range(0, 116):
            assert check_upper_gap(enum14, k, consts, x)
    with pytest.raises(ValueError):
        check_upper_gap(enum14, 3, consts, Fraction(9, 10))


def test_lower_gap_sweep(enum14, consts):
    for k in range(1, 116):
        assert check_lower_gap(enum14, k, consts, t)
    with pytest.raises(ValueError):
        check_lower_gap(enum14, 0, consts, t)


def upper_in_fractions(enum, k, c, x, prec=96):
    """The upper gap as first written: Z_k(x).hi - Z_k(T).lo < 2**c_upper (x - T) in Fractions."""
    diff = z_k(enum, k, x, prec).hi.as_fraction() - z_k(enum, k, c.T, prec).lo.as_fraction()
    return diff < Fraction(2) ** c.c_upper * (x - c.T)


def lower_in_fractions(enum, k, c, t, prec=96):
    diff = z_k(enum, k, t, prec).lo.as_fraction() - z_k(enum, k, c.T, prec).hi.as_fraction()
    return diff > (t - c.T) / Fraction(2) ** c.c_lower


def assert_sweeps_match_per_k(enum, T0, t0):
    """Tighten each constant until the sweep fails; it agrees with the per-k checks throughout."""
    base = derive_constants(enum, T0, t0)
    ks = range(stream_length(enum) + 1)
    for x in (T0 + (t0 - T0) * Fraction(j, 5) for j in (1, 4)):
        seen = []
        c = base.c_upper + 1
        while False not in seen:
            assert c > base.c_upper - 64, "upper sweep never failed"
            tight = replace(base, c_upper=c)
            seen.append(upper_gap_sweep(enum, tight, x))
            per_k = [check_upper_gap(enum, k, tight, x) for k in ks]
            assert per_k == [upper_in_fractions(enum, k, tight, x) for k in ks]
            assert seen[-1] == all(per_k)
            c -= 1
        assert True in seen
    seen = []
    c = base.c_lower + 2
    while False not in seen:
        assert c >= 0, "lower sweep never failed"
        tight = replace(base, c_lower=c)
        seen.append(lower_gap_sweep(enum, tight, t0))
        per_k = [check_lower_gap(enum, k, tight, t0) for k in ks[1:]]
        assert per_k == [lower_in_fractions(enum, k, tight, t0) for k in ks[1:]]
        assert seen[-1] == all(per_k)
        c -= 1
    assert True in seen
    with pytest.raises(ValueError):
        upper_gap_sweep(enum, base, t0)
    with pytest.raises(ValueError):
        lower_gap_sweep(enum, base, 1)


@pytest.mark.parametrize(
    "pair", [(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(4, 5))],
    ids=str,
)
def test_sweeps_equal_per_k_checks(enum14, pair):
    assert_sweeps_match_per_k(enum14, *pair)


@pytest.mark.parametrize("lengths", [(40, 41, 42, 3), (40, 3, 4, 5)], ids=str)
def test_sweeps_reach_both_ends_of_the_stream(lengths):
    """Streams whose first or last element alone decides a sweep.

    On a real stream the gaps are set by the short early members, so a sweep
    that skipped the last k would still agree; a short last member makes
    only k = K fail the upper gap, and a long first member only k = 1 the
    lower one.
    """
    events = [HaltEvent(i, 1, "1", "0" * n, 1) for i, n in enumerate(lengths, start=1)]
    enum = EnumerationResult(events, Budget(1), "synthetic", {}, {"halt": len(events)})
    assert enum.compressible_stream(1).lengths == lengths
    assert_sweeps_match_per_k(enum, Fraction(1, 2), Fraction(3, 4))


def test_floor_identities(consts):
    for n in range(consts.n2, 65):
        both = check_floor_identities(consts, n)
        assert both == (True, True)


def test_candidate_order():
    cs = candidate_set("0110", 1)
    # offsets 0, +1, -1, +2, -2, +3, -3 around 0110
    assert cs.candidates == ("0110", "0111", "0101", "1000", "0100", "1001", "0011")
    assert cs.dropped == ()
    for j, cand in enumerate(cs.candidates):
        assert candidate_at("0110", 1, j) == cand


def test_candidate_clamping():
    cs = candidate_set("000", 1)
    assert "111" not in cs.candidates
    assert len(cs.candidates) + len(cs.dropped) == (1 << 2) + 3
    with pytest.raises(ReconstructFailed):
        candidate_at("000", 1, 2)  # offset -1 leaves the range
    with pytest.raises(ReconstructFailed):
        candidate_at("000", 1, 99)


def test_context_tables(ctx, enum14):
    assert ctx.c == 21
    assert all(a > b > T for a, b in zip(ctx.f, ctx.f[1:]))
    cst = cst_lower(enum14, T, prec=160).lo.as_fraction()
    assert all(g <= cst for g in ctx.g)
    assert ctx.g[-1] > 0


def test_roundtrip_selected_n(enum14, ctx):
    for n in (1, 3, 8, 16, 24):
        trip = reconstruction_roundtrip(enum14, T, n, ctx)
        assert trip.ok
        assert len(trip.selector) == ctx.c + 2
        assert trip.reconstructed == expansion_prefix(T, n)
        assert trip.tail_certified


def test_roundtrip_refuses_divergent_temperature(enum14, ctx):
    with pytest.raises(ValueError):
        reconstruction_roundtrip(enum14, Fraction(3, 2), 8, ctx)


def old_candidate_frame(enum, n, cs_prefix, ctx):
    """The replaced frame search, kept as the oracle: a per-member cutoff on
    exact 2**-|s| sums, then the nested (l0, m0) scan; None where it failed."""
    alpha = Fraction(int(cs_prefix, 2) if cs_prefix else 0, 1 << len(cs_prefix))
    running = Fraction(0)
    for k0, s in enumerate(enum.compressible_stream(1).members, start=1):
        running += Fraction(1, 1 << len(s))
        if alpha < running:
            break
    else:
        return None
    for f_l in ctx.f:
        z_hi = z_k(enum, k0, f_l, ctx.prec).hi.as_fraction()
        for g_m in ctx.g:
            if z_hi < g_m:
                return k0, expansion_prefix(f_l, n)
    return None


@pytest.mark.parametrize("context", ["default", "unsorted"])
def test_candidate_frame_matches_nested_scan(enum14, ctx, context):
    cs_value = cs_lower(enum14).as_fraction()
    prefixes = [""] + [expansion_prefix(cs_value, m, ones=True) for m in range(1, 17)]
    prefixes.append("1" * 16)  # above the sum: no cutoff
    if context == "unsorted":
        # g unsorted, with its largest entry between Z_k0 at f(2) and at f(3)
        # for the 12-bit prefix, so that prefix needs l0 = 3
        k0 = old_candidate_frame(enum14, 1, prefixes[12], ctx)[0]
        z2, z3 = (z_k(enum14, k0, f, ctx.prec).hi.as_fraction() for f in ctx.f[1:3])
        assert z2 > z3
        g_mid = (z2 + z3) / 2
        ctx = PhiContext(ctx.f[:8], (g_mid / 4, g_mid, g_mid / 2), ctx.c, ctx.prec)
        assert old_candidate_frame(enum14, 8, prefixes[12], ctx)[1] == expansion_prefix(ctx.f[2], 8)
    for n in (1, 4, 8, 16):
        for prefix in prefixes:
            want = old_candidate_frame(enum14, n, prefix, ctx)
            if want is None:
                with pytest.raises(ReconstructFailed):
                    _candidate_frame(enum14, n, prefix, ctx)
            else:
                frame = _candidate_frame(enum14, n, prefix, ctx)
                assert (frame.k0, frame.t_n) == want


def test_wrong_selector_reconstructs_wrong_prefix(enum14, ctx):
    n = 8
    trip = reconstruction_roundtrip(enum14, T, n, ctx)
    bad = "0" * (ctx.c + 2)
    if bad == trip.selector:
        bad = "0" * (ctx.c + 1) + "1"
    got = phi_reconstruct(enum14, n, trip.prefix_bits, bad, ctx)
    assert got != trip.expected


def test_selector_length_enforced(enum14, ctx):
    with pytest.raises(ReconstructFailed):
        phi_reconstruct(enum14, 4, "0000", "01", ctx)


def test_true_selector_against_target(enum14, ctx):
    n = 6
    prefix = reconstruction_roundtrip(enum14, T, n, ctx).prefix_bits
    sel = true_selector(enum14, n, prefix, T, ctx)
    assert phi_reconstruct(enum14, n, prefix, sel, ctx) == expansion_prefix(T, n)


def test_composite_machine(enum14, ctx):
    m = Machine()
    comp = CompositeMachine(m, enum14, ctx)
    trip = reconstruction_roundtrip(enum14, T, 6, ctx)
    prog = (
        raw_program(nat_to_string(6))
        + raw_program(nat_to_string(len(trip.prefix_bits)))
        + trip.prefix_bits
        + trip.selector
    )
    out = comp.decode(prog, 1 << 20)
    assert out.status == "halt"
    assert out.output == trip.expected
    assert out.consumed == len(prog)
    assert comp.decode(prog[:-1], 1 << 20).status == "needs_more_input"
    longer = comp.decode(prog + "10", 1 << 20)
    assert longer.status == "halted_early"
    assert longer.consumed == len(prog)


def test_composite_undefined(enum14, ctx):
    m = Machine()
    comp = CompositeMachine(m, enum14, ctx)
    # prefix 1^8 is far above the sum, so no cutoff exists
    prog = (
        raw_program(nat_to_string(8))
        + raw_program(nat_to_string(8))
        + "1" * 8
        + "0" * (ctx.c + 2)
    )
    assert comp.decode(prog, 1 << 20).status == "undefined"


def test_composite_oversized_n_is_out_of_budget(enum14, ctx):
    # the first program outputs 0^600, so n = phi(0^600) = 2**600 - 1 output
    # bits would be due: more steps than any budget allows
    w = nat_to_string(600)
    first = "110" + gamma_encode(len(w) + 1) + w
    assert len(first) == 19
    prog = first + "01" + "0" * (ctx.c + 2)
    out = CompositeMachine(Machine(), enum14, ctx).decode(prog, 1 << 20)
    assert out.status == "out_of_budget"
    assert out.consumed == len(prog)
