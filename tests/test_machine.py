import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegalab.machine import (
    LoopForeverDecoder,
    Machine,
    OutcomeKind,
    RegistryError,
    ReversePayloadDecoder,
    SubmachineDecoder,
    raw_program,
)
from reference import ref_decode, ref_steps
from test_enumerator import REGISTRIES

BIG = 1 << 32


@pytest.fixture(scope="module")
def m():
    return Machine()


def test_hand_decoded_examples(m):
    out = m.run("01", 100)
    assert (out.kind, out.output, out.consumed) == (OutcomeKind.HALT, "", 2)
    out = m.run("00101", 100)
    assert (out.kind, out.output, out.consumed) == (OutcomeKind.HALT, "1", 5)
    out = m.run("0", 100)
    assert out.kind is OutcomeKind.NEEDS_MORE_INPUT
    out = m.run("110" + "00101" + "0101", 100)
    assert (out.kind, out.output, out.consumed) == (OutcomeKind.HALT, "0" * 20, 12)


def test_square_branch(m):
    # 10 g(3) "01" -> "0101"
    out = m.run("10" + "011" + "01", 100)
    assert (out.kind, out.output) == (OutcomeKind.HALT, "0101")


def test_step_accounting(m):
    # one step per bit read, one per bit emitted, one halt transition
    assert m.run("01", 100).steps == 2 + 0 + 1
    assert m.run("00101", 100).steps == 5 + 1 + 1
    assert m.run("110" + "00101" + "0101", 100).steps == 12 + 20 + 1


def test_budget_exhaustion_reports_budget(m):
    prog = "110" + "00101" + "0101"  # needs 33 steps
    out = m.run(prog, 32)
    assert out.kind is OutcomeKind.OUT_OF_BUDGET
    assert out.steps == 32
    assert m.run(prog, 33).kind is OutcomeKind.HALT


def test_halted_early(m):
    out = m.run("011", 100)  # "01" halts, one bit left over
    assert out.kind is OutcomeKind.HALTED_EARLY
    assert out.consumed == 2


def test_unregistered_submachine_is_decided(m):
    out = m.run("111" + "1" + "0000", 100)
    assert out.kind is OutcomeKind.NO_SUCH_SUBMACHINE


def test_submachine_routing():
    m = Machine().register_submachine(1, ReversePayloadDecoder())
    out = m.run("111" + "1" + "011" + "01", 1000)
    assert (out.kind, out.output) == (OutcomeKind.HALT, "10")


def test_registry_is_immutable():
    base = Machine()
    m = base.register_submachine(1, ReversePayloadDecoder())
    assert 1 not in base.registry  # registration returns a new machine
    with pytest.raises(RegistryError):
        m.register_submachine(1, LoopForeverDecoder())
    with pytest.raises(RegistryError):
        Machine({0: LoopForeverDecoder()})
    assert m.digest() != base.digest()


def test_registry_accepts_only_branch_table_rows():
    class Custom(SubmachineDecoder):
        name = "custom"

    with pytest.raises(RegistryError):
        Machine({1: Custom()})
    with pytest.raises(RegistryError):
        Machine().register_submachine(1, object())


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_from_identity_rebuilds_the_machine(registry):
    m = Machine(REGISTRIES[registry])
    back = Machine.from_identity(m.identity())
    assert back.identity() == m.identity()
    assert dict(back.rows) == dict(m.rows)


@pytest.mark.parametrize(
    "edit",
    [
        lambda s: s + "x",
        lambda s: s.replace("v1:", "v2:"),
        lambda s: s.replace("registry[]", "registry[1=bogus]"),
        lambda s: s.replace("registry[]", "registry[0=loop-forever]"),
        lambda s: s.replace("registry[]", "registry[01=loop-forever]"),
        lambda s: s.replace("registry[]", "registry[2=loop-forever,1=reverse-payload]"),
        lambda s: s.replace("registry[]", "registry[1=loop-forever,1=loop-forever]"),
        lambda s: s.replace("registry[]", "registry[,]"),
        lambda s: s.replace("registry[]", "registry[x=loop-forever]"),
        lambda s: "",
        lambda s: None,
    ],
    ids=[
        "suffix",
        "table-v2",
        "unknown-decoder",
        "index-zero",
        "index-leading-zero",
        "entries-unsorted",
        "index-repeated",
        "empty-entries",
        "index-not-int",
        "empty",
        "not-str",
    ],
)
def test_from_identity_refuses_what_no_machine_gives(edit):
    with pytest.raises(RegistryError):
        Machine.from_identity(edit(Machine().identity()))


@pytest.mark.parametrize("bits", ["", "00"])
def test_reverse_payload_incomplete_gamma(bits):
    m = Machine({1: ReversePayloadDecoder()})
    out = m.run("111" + "1" + bits, 100)
    assert out.kind is OutcomeKind.NEEDS_MORE_INPUT
    assert out.consumed == out.steps == 4 + len(bits)


def test_loop_forever_exhausts_budget():
    m = Machine().register_submachine(2, LoopForeverDecoder())
    out = m.run("111" + "010" + "1", 500)
    assert out.kind is OutcomeKind.OUT_OF_BUDGET
    assert out.steps == 500


def test_raw_program(m):
    assert raw_program("") == "01"
    s = "10110"
    out = m.run(raw_program(s), BIG)
    assert (out.kind, out.output) == (OutcomeKind.HALT, s)
    assert len(raw_program(s)) == len(s) + 2 * (len(s) + 1).bit_length() - 2 + 2


def test_matches_reference_decoder():
    for registry in REGISTRIES.values():
        m = Machine(registry)
        names = {e: d.name for e, d in registry.items()}
        for length in range(1, 13):
            for val in range(1 << length):
                p = format(val, f"0{length}b")
                status, s = ref_decode(p, names)
                out = m.run(p, BIG)
                assert out.kind.value == status, (names, p)
                if status == "halt":
                    assert out.output == s
                    assert out.steps == ref_steps(p, s)


@given(st.text(alphabet="01", min_size=1, max_size=30))
def test_prefix_free_property(m, p):
    """No proper prefix of a halting program halts."""
    out = m.run(p, BIG)
    if out.kind is OutcomeKind.HALT:
        for i in range(1, len(p)):
            assert m.run(p[:i], BIG).kind is not OutcomeKind.HALT


def test_decode_prefix(m):
    out = m.run("01" + "111", 100)
    assert out.kind is OutcomeKind.HALTED_EARLY
    acc = m.decode_prefix("01" + "111", 100)
    assert acc.kind is OutcomeKind.HALT
    assert acc.consumed == 2
