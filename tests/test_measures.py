from fractions import Fraction

import pytest

from omegalab import Budget, enumerate_domain
from omegalab.measures import (
    cs_lower,
    csbt_lower,
    cst_lower,
    evaluate,
    omega_lower,
    t_convergence_sum,
    z_lower,
)
from reference import ref_halting_set


def test_omega_l2(enum_at):
    assert omega_lower(enum_at(2, 8)).as_fraction() == Fraction(1, 4)


def test_omega_against_reference(enum_at):
    res = enum_at(12)
    want = sum(Fraction(1, 1 << len(p)) for p, _ in ref_halting_set(12))
    assert omega_lower(res).as_fraction() == want


def test_omega_l14_frozen(enum14):
    assert omega_lower(enum14).as_fraction() == Fraction(49, 64)


def test_cs_against_reference(enum14):
    halts = ref_halting_set(14)
    best: dict = {}
    for p, s in halts:
        best[s] = min(best.get(s, 99), len(p))
    want = sum(Fraction(1, 1 << len(s)) for s, h in best.items() if h < len(s))
    assert cs_lower(enum14).as_fraction() == want
    assert want > 0


def test_cs_monotone_in_budget(enum_at):
    values = [cs_lower(enum_at(L)).as_fraction() for L in (10, 11, 12, 13, 14)]
    assert values[0] == 0  # nothing compresses below 11 bits
    assert values[1] > 0
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_halting_sums_read_no_events(machine):
    # a fresh result: its sums read the per-length halt counts, never the events
    res = enumerate_domain(machine, Budget(14))
    want = omega_lower(res), z_lower(res, Fraction(2, 3), 96)
    res.events = []
    assert (omega_lower(res), z_lower(res, Fraction(2, 3), 96)) == want


def test_z_is_omega_at_t1(enum14):
    iv = z_lower(enum14, 1)
    assert iv.exact
    assert iv.lo == omega_lower(enum14)


def test_t1_identities(enum14):
    cs = cs_lower(enum14)
    assert cst_lower(enum14, 1).lo == cs
    assert cst_lower(enum14, 1).exact
    assert csbt_lower(enum14, 1) == cs


def test_z_interval_brackets_true_value(enum14):
    # exponents |p| * 3/2; compare against an exact high-precision reference
    iv = z_lower(enum14, Fraction(2, 3), prec=80)
    assert iv.width().as_fraction() <= Fraction(len(enum14.events), 1 << 80)
    finer = z_lower(enum14, Fraction(2, 3), prec=160)
    assert iv.lo.as_fraction() <= finer.lo.as_fraction()
    assert finer.hi.as_fraction() <= iv.hi.as_fraction()


def test_cst_integer_exponents_exact(enum14):
    iv = cst_lower(enum14, Fraction(1, 2))
    assert iv.exact  # |s| / (1/2) = 2|s| is an integer


def test_t_convergence_identity(enum14):
    for T in (Fraction(1, 2), Fraction(2, 3)):
        assert t_convergence_sum(enum14, T) == cs_lower(enum14)


def test_divergent_family_guard(enum14):
    with pytest.raises(ValueError):
        cst_lower(enum14, 2)
    with pytest.raises(ValueError):
        csbt_lower(enum14, Fraction(3, 2))
    assert cst_lower(enum14, 2, trend=True).lo.as_fraction() > 0


def test_temperature_validation(enum14):
    with pytest.raises(ValueError):
        z_lower(enum14, 0)
    with pytest.raises(ValueError):
        z_lower(enum14, Fraction(-1, 2))


def test_evaluate_report(enum14):
    d = evaluate(enum14, "omega")
    assert d["quantity"] == "omega"
    assert d["exact"] is True
    assert d["lo"] == d["hi"] == "0.765625"
    assert d["machine"] == enum14.machine_digest
    d = evaluate(enum14, "cst", Fraction(2), 64)
    assert d["divergent_family"] is True
    for quantity in ("omega", "cs"):  # T is validated even where the sum ignores it
        with pytest.raises(ValueError):
            evaluate(enum14, quantity, Fraction(-1, 2))
    with pytest.raises(ValueError):
        evaluate(enum14, "z")
    with pytest.raises(ValueError):
        evaluate(enum14, "nope")
