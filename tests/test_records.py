"""The package's record types: construction, defaults, immutability, refusals and interval arithmetic.

Eight are NamedTuples; DyadicInterval and CompressibleStream are plain
classes with their own ==, hash and repr.
"""

from fractions import Fraction

import pytest

from omegalab.census import CensusRow
from omegalab.dyadic import Dyadic, DyadicInterval
from omegalab.enumerator import Budget, CompressibleStream
from omegalab.fixedpoint import CompositeOutcome, GapConstants, PhiContext, RoundTrip, _Frame
from omegalab.machine import MachineOutcome, OutcomeKind

HALF, ONE = Dyadic(1, 1), Dyadic(1)

# (type, positional arguments, every field by keyword with the defaults filled in, is a NamedTuple)
RECORDS = [
    (Budget, (18,), {"max_len": 18, "max_rounds": 32}, True),
    (
        GapConstants,
        (Fraction(1, 2), Fraction(3, 4), 5, 6, 7, 8, 9),
        {"T": Fraction(1, 2), "t": Fraction(3, 4), "c_upper": 5, "c_lower": 6, "n0": 7, "n1": 8, "n2": 9},
        True,
    ),
    (
        PhiContext,
        ((Fraction(3, 4),), (Fraction(1, 8),), 3),
        {"f": (Fraction(3, 4),), "g": (Fraction(1, 8),), "c": 3, "prec": 96},
        True,
    ),
    (_Frame, (12, "0101"), {"k0": 12, "t_n": "0101"}, True),
    (
        RoundTrip,
        (4, "011", "10", "1000", "1000", True, 12),
        {
            "n": 4,
            "prefix_bits": "011",
            "selector": "10",
            "reconstructed": "1000",
            "expected": "1000",
            "tail_certified": True,
            "k0": 12,
        },
        True,
    ),
    (CompositeOutcome, ("undefined",), {"status": "undefined", "output": None, "consumed": 0}, True),
    (
        MachineOutcome,
        (OutcomeKind.NEEDS_MORE_INPUT,),
        {"kind": OutcomeKind.NEEDS_MORE_INPUT, "output": None, "consumed": 0, "steps": 0},
        True,
    ),
    (CensusRow, (4, 3, 9), {"n": 4, "count": 3, "h_upper_n": 9}, True),
    (DyadicInterval, (HALF, ONE), {"lo": HALF, "hi": ONE}, False),
    (CompressibleStream, (Fraction(1), ((3, 1, 1, 0),)), {"threshold": Fraction(1), "runs": ((3, 1, 1, 0),)}, False),
]


@pytest.mark.parametrize("kind, args, fields, named", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(kind, args, fields, named):
    """Positional and keyword construction agree, with the defaults; equal records hash and print alike."""
    by_position, by_keyword = kind(*args), kind(**fields)
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert {name: getattr(by_position, name) for name in fields} == fields
    assert repr(by_position) == f"{kind.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert isinstance(by_position, tuple) == named
    if named:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(by_position, name, None)


def test_record_properties():
    assert Budget(18).scheduled == 18 and Budget(40, 20).scheduled == 20
    trip = RoundTrip(4, "011", "10", "1000", "1000", True, 12)
    assert trip.ok and not trip._replace(tail_certified=False).ok and not trip._replace(reconstructed="1001").ok
    assert MachineOutcome(OutcomeKind.HALT, "1", 3, 2).halted and not MachineOutcome(OutcomeKind.HALTED_EARLY).halted
    assert CensusRow(4, 4, None).gap == 2.0 and CensusRow(4, 0, None).gap is None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Budget(0), "max_len must be >= 1"),
        (lambda: Budget(max_len=1, max_rounds=0), "max_rounds must be >= 1"),
        (lambda: Budget(1, 0), "max_rounds must be >= 1"),
        (lambda: DyadicInterval(ONE, HALF), "interval endpoints out of order"),
    ],
    ids=["max_len", "max_rounds-keyword", "max_rounds", "interval"],
)
def test_refusals_keep_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("max_len, max_rounds", [(8, 32), (8, 5), (10, 10)])
def test_provenance_budget_is_a_plain_dict(enum_at, max_len, max_rounds):
    budget = enum_at(max_len, max_rounds).provenance()["budget"]
    assert type(budget) is dict and budget == {"max_len": max_len, "max_rounds": max_rounds}


def test_interval_arithmetic_and_no_tuple_operations():
    a, b = DyadicInterval(HALF, ONE), DyadicInterval.point(Dyadic(1, 2))
    assert a + b == DyadicInterval(Dyadic(3, 2), Dyadic(5, 2))
    assert a - b == DyadicInterval(Dyadic(1, 2), Dyadic(3, 2))
    assert a - a == DyadicInterval(-HALF, HALF) and b - b == DyadicInterval.zero() and (b - b).exact
    assert a != (HALF, ONE) and len({a, DyadicInterval(HALF, ONE)}) == 1
    for operation in (lambda: a < b, lambda: a * 2, lambda: len(a), lambda: tuple(a)):
        with pytest.raises(TypeError):
            operation()
