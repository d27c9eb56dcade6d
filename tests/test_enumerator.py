import json
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import Budget, Machine, _purecore, enumerate_domain
from omegalab.bits import gamma_encode, pair_to_bits
from omegalab.census import census_profile
from omegalab.cli import main
from omegalab.enumerator import (
    _BLOCK_CHARS,
    _COMPARE_BLOCK,
    CompressibleStream,
    HaltEvent,
    _EVENT_LINE,
    _enumerate,
    _log_blocks,
    load_log,
    write_log,
)
from omegalab.extractor import extract_incompressible
from omegalab.machine import LoopForeverDecoder, OutcomeKind, ReversePayloadDecoder
from omegalab.measures import cs_lower, evaluate
from reference import ref_halting_set, ref_steps

REGISTRIES = {
    "none": {},
    "reverse1": {1: ReversePayloadDecoder()},
    "reverse1-loop2": {1: ReversePayloadDecoder(), 2: LoopForeverDecoder()},
    "reverse5-loop3": {5: ReversePayloadDecoder(), 3: LoopForeverDecoder()},
    # g(1) = 1 sorts after g(2) = 010: index order would misplace e = 1's rows
    "reverse1-reverse2": {1: ReversePayloadDecoder(), 2: ReversePayloadDecoder()},
}


def expand(segments) -> tuple[int, ...]:
    """The lengths that (a, b, n) segments stand for, in order: n of each a <= m < b.

    Expanding a stream's segments gives |s_i| for every member, in stream order.
    """
    return tuple(m for a, b, n in segments for m in range(a, b) for _ in range(n))


def census_counts(res, t) -> Counter:
    """{m: members of length m}, as the census counts them from the stream's segments."""
    return Counter({row.n: row.count for row in census_profile(res, t) if row.count})


_decoded = {}


def _decode_length(machine, length, cap):
    """(val, outcome name, output, steps) for every program of one length.

    Brute force: decode_pair on each program.  Cached per (registry, length, cap).
    """
    key = (machine.digest(), length, cap)
    if key not in _decoded:
        rows = []
        for val in range(1 << length):
            kind, out_val, out_len, _, steps = _purecore.decode_pair(val, length, cap, machine.rows)
            rows.append((val, kind, pair_to_bits(out_val, out_len), steps))
        _decoded[key] = rows
    return _decoded[key]


def _names(registry):
    """The registry as the reference oracle reads it: index -> decoder name."""
    return {e: d.name for e, d in REGISTRIES[registry].items()}


def brute_force(machine, budget):
    """Events and counts of the dovetailed schedule, by decoding every program."""
    counts = dict.fromkeys(
        ("halt", "needs_more_input", "halted_early", "no_such_submachine", "out_of_budget"), 0
    )
    keyed = []
    for length in range(1, budget.max_len + 1):
        if length > budget.max_rounds:
            counts["out_of_budget"] += 1 << length
            continue
        for val, name, output, steps in _decode_length(machine, length, 1 << budget.max_rounds):
            rnd = max(length, (steps - 1).bit_length())
            if name != "halt":
                counts[name] += 1
            elif rnd > budget.max_rounds:
                counts["out_of_budget"] += 1
            else:
                keyed.append((rnd, length, val, output, steps))
    keyed.sort(key=lambda item: item[:3])
    events = [
        HaltEvent(seq, rnd, pair_to_bits(val, length), output, steps)
        for seq, (rnd, length, val, output, steps) in enumerate(keyed, start=1)
    ]
    counts["halt"] = len(events)
    return events, counts


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(0)
    with pytest.raises(ValueError):
        Budget(4, 0)


def test_l2_events(enum_at):
    res = enum_at(2, 8)
    assert [(e.program, e.output, e.round, e.seq) for e in res.events] == [("01", "", 2, 1)]
    assert res.counts["halt"] == 1
    assert res.counts["needs_more_input"] == 5
    assert res.is_exhaustive()


def test_rounds_and_order(enum14):
    # canonical order: (round, length, lex); seq dense from 1
    keys = [(e.round, len(e.program), e.program) for e in enum14.events]
    assert keys == sorted(keys)
    assert [e.seq for e in enum14.events] == list(range(1, len(enum14.events) + 1))
    for e in enum14.events:
        assert e.round >= len(e.program)
        assert (1 << e.round) >= e.steps  # halts within its discovery round


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_events_come_in_canonical_order(registry):
    res = enumerate_domain(Machine(REGISTRIES[registry]), Budget(16))
    keys = [(e.round, len(e.program), e.program) for e in res.events]
    assert keys == sorted(keys)


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_halts_count_the_halting_programs_of_each_length(registry):
    machine = Machine(REGISTRIES[registry])
    for max_len in range(1, 17):
        for max_rounds in {max_len, max_len - 3} - {-2, -1, 0}:
            res = enumerate_domain(machine, Budget(max_len, max_rounds))
            assert res.halts == dict(Counter(len(ev.program) for ev in res.events)), (max_len, max_rounds)
            assert sum(res.halts.values()) == res.counts["halt"]


@pytest.mark.parametrize("max_len", [12, 16])
def test_matches_reference_halting_set(max_len):
    for registry in sorted(REGISTRIES):
        res = enumerate_domain(Machine(REGISTRIES[registry]), Budget(max_len))
        got = {(e.program, e.output) for e in res.events}
        want = set(ref_halting_set(max_len, _names(registry)))
        assert got == want, registry
        steps = {e.program: e.steps for e in res.events}
        for p, s in want:
            assert steps[p] == ref_steps(p, s)


@pytest.mark.parametrize("max_len", range(1, 17))
def test_grammar_matches_brute_force(enum_at, machine, max_len):
    res = enum_at(max_len)
    events, counts = brute_force(machine, Budget(max_len))
    assert res.events == events
    assert res.counts == counts


def test_generate_halts_matches_decode_pair():
    # the schedule gives a length L at least 2**L steps: round L allows that
    # many, and a larger max_rounds allows more; g(5) = 00101 sorts before
    # g(1) = 1, so the halts come in program order only if e = 5 comes first
    subs = {1: _purecore.REVERSE, 5: _purecore.REVERSE, 2: _purecore.LOOP}
    for length in range(1, 14):
        classes, counts = _purecore.generate_halts(length, subs)
        assert set(counts) == {kind.value for kind in OutcomeKind}
        halts = []
        for prefix, wlen, row in classes:
            first, grow = _purecore.class_strings(length, prefix, wlen, row)[3]
            for w, steps in enumerate(islice(count(first, grow), 1 << wlen)):
                out_val, out_len = _purecore._output(row, w, wlen)
                halts.append(((prefix << wlen) | w, out_val, out_len, steps))
        for budget in (1 << length, 1 << (length + 1), 1 << 32):
            want = dict.fromkeys(counts, 0)
            want_halts = []
            for val in range(1 << length):
                kind, out_val, out_len, _, steps = _purecore.decode_pair(val, length, budget, subs)
                want[kind] += 1
                if kind == _purecore.HALT:
                    want_halts.append((val, out_val, out_len, steps))
            assert halts == want_halts, (length, budget)
            assert counts == want, (length, budget)


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_generate_halts_emits_classes_in_program_order(registry):
    """A length's classes cover disjoint program ranges, each past the one before."""
    rows = Machine(REGISTRIES[registry]).rows
    for length in range(1, 17):
        classes = _purecore.generate_halts(length, rows)[0]
        ranges = [(prefix << wlen, (prefix + 1) << wlen) for prefix, wlen, _ in classes]
        assert all(end <= start for (_, end), (start, _) in zip(ranges, ranges[1:])), length


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_halting_classes_are_found_in_their_length_round(registry):
    """Every halting class runs within 2**length steps, so it is found in round length, whole.

    Its programs are its head and payloads, its steps are its reads, output
    bits and halt, and class_bits is its program and output bits summed.
    Spelled from shared bytes payloads, the class is the same strings, encoded.
    """
    rows = Machine(REGISTRIES[registry]).rows
    for length in range(1, 17):
        for prefix, wlen, row in _purecore.generate_halts(length, rows)[0]:
            head, payloads, outputs, steps = _purecore.class_strings(length, prefix, wlen, row)
            shared = _purecore.spell_payloads(wlen, b"01")
            spelled = _purecore.class_strings(length, prefix, wlen, row, shared)
            outputs = list(outputs)
            assert spelled[1] is shared and spelled[3] == steps
            assert [spelled[0], *shared, *spelled[2]] == [s.encode() for s in (head, *payloads, *outputs)]
            programs = [head + w for w in payloads]
            assert programs == [pair_to_bits((prefix << wlen) | w, length) for w in range(1 << wlen)]
            outputs, steps = list(outputs), list(islice(count(*steps), 1 << wlen))
            assert len(outputs) == 1 << wlen
            assert steps == [length + len(s) + 1 for s in outputs], (length, prefix)
            assert length < steps[0] <= steps[-1] <= 1 << length, (length, prefix)
            assert steps[-1] - steps[0] in (0, (1 << wlen) - 1)  # steps grow by 0 or 1 per payload
            assert _purecore.class_bits(length, wlen, row) == sum(map(len, programs + outputs))


@pytest.mark.parametrize("registry", ["none", "reverse1-loop2"])
@pytest.mark.parametrize("budget", [Budget(14), Budget(16, 15), Budget(13, 40), Budget(19, 17)])
def test_enumerate_gives_up_at_the_first_length_past_max_bits(registry, budget):
    """The give-up length, against the events' program and output bits summed one by one."""
    machine = Machine(REGISTRIES[registry])
    res = enumerate_domain(machine, budget)
    cum, total = {}, 0
    for length in range(1, budget.max_len + 1):
        total += sum(len(e.program) + len(e.output) for e in res.events if len(e.program) == length)
        cum[length] = total
    for max_bits in sorted({c + d for c in cum.values() for d in (-1, 0)}):
        if max_bits < budget.max_len:
            continue
        length = next((n for n, c in cum.items() if c > max_bits), None)
        if length is None:
            assert _enumerate(machine, budget, max_bits).events == res.events
        else:
            with pytest.raises(ValueError, match=f"length <= {length} take more than {max_bits} bits"):
                _enumerate(machine, budget, max_bits)
    with pytest.raises(ValueError, match=f"the counts for max_len {budget.max_len} take"):
        _enumerate(machine, budget, budget.max_len - 1)


def test_enumeration_past_memory_is_refused(machine, tmp_path):
    """At L = 40 the runs are few, but the events of length 32 alone hold 2.2e12 bits.

    The result is made; its events, its log and its stream's members are
    refused before any is spelled.
    """
    res = enumerate_domain(machine, Budget(40))
    path = tmp_path / "l40.jsonl"
    spellers = (lambda: res.events, lambda: write_log(res, path), lambda: res.compressible_stream(1).members)
    for spell in spellers:
        with pytest.raises(ValueError, match=r"take at least \d+ bits, a byte each: over the \d+ bytes"):
            spell()
    assert not path.exists()
    assert "events" not in vars(res)


def test_memory_refuses_only_what_is_spelled(monkeypatch):
    """Past a small memory a result and its sums are still made, from the runs.

    Its events and its stream's members are refused, and so is a budget
    whose counts alone take more bits than the memory has bytes.
    """
    want = cs_lower(enumerate_domain(Machine(), Budget(16)))
    monkeypatch.setattr("omegalab.enumerator._MEMORY", 1000)
    res = enumerate_domain(Machine(), Budget(16))
    assert cs_lower(res) == want
    for spell in (lambda: res.events, lambda: res.compressible_stream(1).members):
        with pytest.raises(ValueError, match="bits, a byte each: over the 1000 bytes of memory"):
            spell()
    with pytest.raises(ValueError, match="the counts take at least 1001 bits"):
        enumerate_domain(Machine(), Budget(1001, 4))


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_grammar_matches_brute_force_grid(registry):
    machine = Machine(REGISTRIES[registry])
    for max_len in range(1, 13):
        for max_rounds in [*range(1, max_len + 2), 32]:
            budget = Budget(max_len, max_rounds)
            res = enumerate_domain(machine, budget)
            events, counts = brute_force(machine, budget)
            assert res.events == events, budget
            assert res.counts == counts, budget


def test_round_cap_excludes_long_programs(machine):
    res = enumerate_domain(machine, Budget(6, 4))
    # lengths 5, 6 never scheduled within 4 rounds
    assert not res.is_exhaustive()
    assert res.counts["out_of_budget"] >= (1 << 5) + (1 << 6)
    assert all(len(e.program) <= 4 for e in res.events)


def test_round_cap_past_every_run_changes_nothing(machine):
    # no program of length <= 10 runs past 2**11 steps
    small, huge = enumerate_domain(machine, Budget(10, 11)), enumerate_domain(machine, Budget(10, 10**6))
    assert (small.events, small.counts) == (huge.events, huge.counts)


def test_worker_independence(machine):
    one = enumerate_domain(machine, Budget(12, 32), workers=1)
    four = enumerate_domain(machine, Budget(12, 32), workers=4)
    assert one.events == four.events
    assert one.counts == four.counts


def test_determinism(machine):
    a = enumerate_domain(machine, Budget(10, 32))
    b = enumerate_domain(machine, Budget(10, 32))
    assert a.events == b.events


def test_complexity_table(enum14):
    assert enum14.complexity_upper("") == 2
    assert enum14.witness("") == "01"
    assert enum14.complexity_upper("0" * 20) <= 12
    assert enum14.complexity_upper("1" * 300) is None
    h, w = enum14.complexity_table["0" * 12]
    assert h == len(w) == 11


def test_compressible_stream(enum14):
    st = enum14.compressible_stream(1)
    assert st.members[0] == "0" * 12
    assert len(st.members) == 115
    assert all(s == "0" * len(s) for s in st.members)  # only zero runs compress here
    assert len(set(st.members)) == len(st.members)
    for s in st.members:
        assert enum14.complexity_upper(s) < len(s)
    half = enum14.compressible_stream(Fraction(1, 2))
    for s in half.members:
        assert 2 * enum14.complexity_upper(s) < len(s)
    with pytest.raises(ValueError):
        enum14.compressible_stream(0)


def _stream_by_events(events, t):
    """Outputs some event of which has |p| * den < num * |s|, in order of their first such event."""
    seen, members = set(), []
    for ev in events:
        if len(ev.program) * t.denominator < t.numerator * len(ev.output) and ev.output not in seen:
            seen.add(ev.output)
            members.append(ev.output)
    return members


def _table_by_events(events):
    """output -> (|p|, p) of its shortest program: a strictly shorter later event wins."""
    table = {}
    for ev in events:
        cur = table.get(ev.output)
        if cur is None or len(ev.program) < cur[0]:
            table[ev.output] = (len(ev.program), ev.program)
    return table


def test_stream_first_witness_order():
    """Table and streams read first events only; a walk over every event is the oracle."""
    for registry in sorted(REGISTRIES):
        for budget in (Budget(16), Budget(14, 11), Budget(19), Budget(21)):
            res = enumerate_domain(Machine(REGISTRIES[registry]), budget)
            if budget.max_len <= 16:
                table = res.complexity_table
                assert len(table) < len(res.events)  # some output has several programs
                assert list(table.items()) == list(_table_by_events(res.events).items()), registry
            for t in map(Fraction, ("1", "1/2", "2/3", "5/6", "3/2", "2", "3")):
                want = _stream_by_events(res.events, t)
                stream = res.compressible_stream(t)
                assert list(stream.members) == want, (registry, budget, t)
                assert expand(stream.segments) == tuple(map(len, want))
                assert census_counts(res, t) == Counter(map(len, want))


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_stream_matches_the_reference_halting_set(registry):
    """Every stream at L <= 14 against one built from the reference decoder's (program, output) pairs."""
    pairs = ref_halting_set(14, _names(registry))  # in (length, program) order
    for max_len in range(1, 15):
        res = enumerate_domain(Machine(REGISTRIES[registry]), Budget(max_len))
        for t in map(Fraction, ("1", "1/2", "2/3", "5/6", "3/2", "2")):
            want = {}
            for p, s in pairs:
                if len(p) <= max_len and len(p) * t.denominator < t.numerator * len(s):
                    want.setdefault(s, None)
            stream = res.compressible_stream(t)
            assert list(stream.members) == list(want), (max_len, t)
            assert expand(stream.segments) == tuple(map(len, want)), (max_len, t)


def former_stream(res, t):
    """The stream as it was once built, kept here as an oracle.

    Every qualifying output is spelled, and those of at most 2 * scheduled
    bits are hashed to keep each once; longer ones are zero runs, keyed by length.
    """
    num, den = t.numerator, t.denominator
    limit = 2 * res.budget.scheduled
    members = {}
    for length, prefix, wlen, row in res.runs:
        cut = length * den // num
        outputs = [s for s in _purecore.class_strings(length, prefix, wlen, row)[2] if len(s) > cut]
        short = sum(len(s) <= limit for s in outputs)  # outputs grow along a run
        keys = chain(outputs[:short], map(len, outputs[short:]))
        members.update(zip(keys, outputs))
    return list(members.values())


@pytest.mark.parametrize("max_len", [19, 21])
def test_stream_matches_the_former_string_path(max_len):
    for registry in sorted(REGISTRIES):
        res = enumerate_domain(Machine(REGISTRIES[registry]), Budget(max_len))
        for t in map(Fraction, ("1", "1/2", "2/3", "5/6", "3/2")):
            want = former_stream(res, t)
            stream = res.compressible_stream(t)
            assert expand(stream.segments) == tuple(map(len, want)), (registry, t)
            assert census_counts(res, t) == Counter(map(len, want)), (registry, t)
            if max_len == 19:
                assert list(stream.members) == want, (registry, t)


def test_first_printed_counts_the_least_programs():
    """first_printed against least_program, output by output, at cuts on both sides of each output length.

    Every string of at most 12 bits is checked on rows 0, 1 and REVERSE, and
    0**k for every k <= 4096 on the zero-run row.
    """
    rows = {1: _purecore.REVERSE}
    for length in range(1, 24):
        for prefix, wlen, row in _purecore.generate_halts(length, rows)[0]:
            if (1 << wlen) - 1 > 4096 if row == 2 else _purecore._output(row, 0, wlen)[1] > 12:
                continue
            head, payloads, outputs, _ = _purecore.class_strings(length, prefix, wlen, row)
            outputs = list(outputs)
            first = [len(s) for w, s in zip(payloads, outputs) if _purecore.least_program(s, length) == head + w]
            if row == _purecore.REVERSE:
                assert not first
            bits = {len(outputs[0]), len(outputs[-1]), length, 2 * length}
            for cut in {-1, *(b + d for b in bits for d in (-1, 0))}:
                segments = _purecore.first_printed(length, wlen, row, cut)
                assert all(a < b and n > 0 for a, b, n in segments)
                got = expand(segments)
                assert got == tuple(b for b in first if b > cut), (length, prefix, cut)


@pytest.mark.parametrize("budget", [Budget(16), Budget(14, 11)], ids=str)
@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_h_up_closed_form_matches_the_events(registry, budget):
    """complexity_upper and witness, from the least program that prints s, against every event.

    Every output is checked, and so is every string of at most 10 bits and
    0**k for k <= 40, printed or not.
    """
    res = enumerate_domain(Machine(REGISTRIES[registry]), budget)
    table = _table_by_events(res.events)
    strings = [pair_to_bits(v, n) for n in range(11) for v in range(1 << n)]
    for s in chain(table, strings, ("0" * k for k in range(41))):
        h, w = table.get(s, (None, None))
        assert (res.complexity_upper(s), res.witness(s)) == (h, w), (registry, s)


def former_least_program(s, max_len):
    """least_program spelling every candidate, then taking the min by (length, bits): the oracle."""
    if s.strip("01"):
        return None
    half = len(s) // 2
    heads = [(_purecore._HEADER[0], s)]
    if s[:half] == s[half:]:
        heads.append((_purecore._HEADER[1], s[:half]))
    if "1" not in s:
        heads.append((_purecore._HEADER[2], bin(len(s) + 1)[3:]))
    programs = (format(head, f"0{hlen}b") + gamma_encode(len(w) + 1) + w for (head, hlen), w in heads)
    return min((p for p in programs if len(p) <= max_len), key=lambda p: (len(p), p), default=None)


@pytest.mark.parametrize("max_len", [1, 3, 7, 11, 14, 19, 25, 40, 64])
def test_least_program_matches_spelling_every_candidate(max_len):
    """The least program, picked by size and header order before it is spelled, against the spelled min."""
    strings = [pair_to_bits(v, n) for n in range(13) for v in range(1 << n)]
    runs = [c * k for c in "01" for k in range(300)]
    squares = [w + w for w in ("1", "01", "110", "0" * 7, "1" * 9, "0110" * 5, "1" + "0" * 30, "0" * 40 + "1")]
    for s in chain(strings, runs, squares, ("", "2", "0 1")):
        assert _purecore.least_program(s, max_len) == former_least_program(s, max_len), s


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_log_lines_are_the_events_as_json(registry):
    """The event blocks, formatted straight from the runs, are json.dumps of the events, line by line.

    At L = 18 some runs hold more than _COMPARE_BLOCK events and are split.
    """
    for budget in (Budget(16, 15), Budget(18)):
        res = enumerate_domain(Machine(REGISTRIES[registry]), budget)
        header, *blocks = _log_blocks(res)
        lines = b"".join(block for _, block in blocks).splitlines(keepends=True)
        assert lines == [json.dumps(ev._asdict(), sort_keys=True).encode() + b"\n" for ev in res.events], budget


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_log_blocks_are_whole_lines(registry):
    """The header is one block, and every block ends a line and holds at most _COMPARE_BLOCK lines.

    At L = 18 the raw and square classes of 17 and 18 bits hold more than
    _COMPARE_BLOCK events, so their runs are split, and the zero-run lines
    of 18 bits are long enough that their blocks are cut near _BLOCK_CHARS.
    Each block comes with its line count, which load_log adds up unscanned.
    """
    res = enumerate_domain(Machine(REGISTRIES[registry]), Budget(18))
    (header_lines, header), *counted = _log_blocks(res)
    assert header_lines == header.count(b"\n") == 1 and header.endswith(b"\n")
    blocks = [block for _, block in counted]
    sizes = [block.count(b"\n") for block in blocks]
    assert [lines for lines, _ in counted] == sizes
    assert all(block.endswith(b"\n") for block in blocks)
    assert 1 <= min(sizes) and max(sizes) == _COMPARE_BLOCK and sum(sizes) == sum(res.halts.values())
    assert max(map(len, blocks)) < 2 * _BLOCK_CHARS < sum(map(len, blocks))
    assert any(_BLOCK_CHARS // 2 < len(block) and size < _COMPARE_BLOCK for block, size in zip(blocks, sizes))


@pytest.mark.parametrize("registry", ["none", "reverse1-loop2"])
def test_no_command_path_spells_events(tmp_path, registry, monkeypatch):
    """Log, replay, the five sums, census, extract and fixedpoint read the runs: they spell no event or member."""
    res = enumerate_domain(Machine(REGISTRIES[registry]), Budget(16))
    path = tmp_path / "log16.jsonl"
    write_log(res, path)
    loaded = load_log(path)
    monkeypatch.setattr(CompressibleStream, "members", property(lambda self: pytest.fail("members spelled")))
    for quantity in ("omega", "cs", "z", "cst", "csbt"):
        evaluate(loaded, quantity, Fraction(2, 3) if quantity in ("z", "cst", "csbt") else None)
    census_profile(loaded, Fraction(2, 3))
    extract_incompressible(loaded, 12, Fraction(2, 3))
    out = tmp_path / "fixedpoint.json"
    assert main(["fixedpoint", "--T", "1/2", "--t", "3/4", "--log", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["roundtrip_all_ok"]
    for result in (res, loaded):
        assert "events" not in vars(result) and "complexity_table" not in vars(result)


def test_log_roundtrip(tmp_path, enum14):
    registered = Machine(REGISTRIES["reverse1-loop2"])
    for result in (
        enum14,
        enumerate_domain(registered, Budget(12)),
        enumerate_domain(registered, Budget(10, 10**6)),  # a round cap past every run
        enumerate_domain(registered, Budget(12, 9)),  # max_rounds < max_len
    ):
        path = tmp_path / "log.jsonl"
        write_log(result, path)
        back = load_log(path)
        assert back.events == result.events
        assert back.counts == result.counts
        assert back.budget == result.budget
        assert back.machine_digest == result.machine_digest
        assert back.machine_identity == result.machine_identity
        assert back.is_exhaustive() == result.is_exhaustive()
    assert enum14.is_exhaustive() and not result.is_exhaustive()


@pytest.fixture(scope="module")
def logs10(tmp_path_factory):
    """A scratch folder and the L = 10 log bytes of two machines, by registry name."""
    folder = tmp_path_factory.mktemp("logs10")
    logs = {}
    for name in ("none", "reverse1-loop2"):
        path = folder / f"{name}.jsonl"
        write_log(enumerate_domain(Machine(REGISTRIES[name]), Budget(10)), path)
        logs[name] = path.read_bytes()
    return folder, logs


@pytest.mark.parametrize("registry", ["none", "reverse1-loop2"])
@settings(max_examples=300)
@given(data=st.data())
def test_load_log_refuses_or_reproduces_any_edit(logs10, registry, data):
    """One random edit: load_log refuses it at a line, or its result writes the edited bytes."""
    folder, logs = logs10
    log = logs[registry]
    kind = data.draw(st.sampled_from(["overwrite", "delete", "duplicate", "truncate"]))
    if kind == "overwrite":
        i = data.draw(st.integers(0, len(log) - 1))
        edited = log[:i] + bytes([data.draw(st.integers(0, 255))]) + log[i + 1 :]
    elif kind == "truncate":
        edited = log[: data.draw(st.integers(0, len(log)))]
    else:
        lines = log.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        edited = b"".join(lines[:i] + [lines[i]] * (2 if kind == "duplicate" else 0) + lines[i + 1 :])
    path = folder / "edited.jsonl"
    path.write_bytes(edited)
    try:
        result = load_log(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: line ")
        return
    write_log(result, folder / "rewritten.jsonl")
    assert (folder / "rewritten.jsonl").read_bytes() == edited


def test_load_log_replay_is_bounded_by_memory(tmp_path, enum14, monkeypatch):
    """A replay that fits in the file but not in memory is refused before any event is spelled."""
    path = tmp_path / "log14.jsonl"
    write_log(enum14, path)
    monkeypatch.setattr("omegalab.enumerator._MEMORY", 1000)
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: the events of length <= ")):
        load_log(path)


def test_load_log_reads_the_header_no_further_than_memory(tmp_path, monkeypatch):
    """A header with no newline is read as at most _MEMORY bytes, not as the whole file."""
    limit = 1 << 16
    monkeypatch.setattr("omegalab.enumerator._MEMORY", limit)
    path = tmp_path / "sparse.jsonl"
    with open(path, "wb") as fh:
        fh.truncate(256 * limit)  # zeros, sparse on disk, and no newline
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: ")):
            load_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert limit <= peak < 4 * limit  # the file holds 256 times the limit


def _block_edits(lines, n):
    """(name, edited bytes, line load_log must name) for edits at line n (1-based)."""
    head = b"".join(lines[: n - 1])
    line, rest = lines[n - 1], b"".join(lines[n:])
    flipped = line[:-2] + bytes([line[-2] ^ 1]) + line[-1:]
    yield "overwrite", head + flipped + rest, n
    yield "cut-mid-line", head + line[: len(line) // 2], n
    yield "cut-before-newline", head + line[:-1], n
    yield "delete", head + rest, n
    yield "duplicate", head + line + line + rest, n + 1
    if rest:
        # a header alone is too small to hold the events: the replay gives up at line 1
        yield "cut-after-line", head + line, n + 1 if n > 1 else 1
    else:
        yield "append", head + line + line, n + 1


def test_load_log_names_the_line_at_compare_block_edges(tmp_path, enum14):
    path = tmp_path / "log14.jsonl"
    write_log(enum14, path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 382 > _COMPARE_BLOCK + 1
    for n in (1, _COMPARE_BLOCK - 1, _COMPARE_BLOCK, _COMPARE_BLOCK + 1, len(lines)):
        for name, edited, line in _block_edits(lines, n):
            path.write_bytes(edited)
            with pytest.raises(ValueError) as exc:
                load_log(path)
            assert str(exc.value).startswith(f"{path}: line {line}: "), (n, name, str(exc.value)[-80:])


def test_load_log_names_the_line_at_every_block_edge(tmp_path, enum14):
    """Edits at the first and last line of every block the replay compares are named at their line.

    Only edits that keep the file near its size: one cut short early on is
    too small to hold the replay, which gives up at line 1.
    """
    path = tmp_path / "log14.jsonl"
    write_log(enum14, path)
    lines = path.read_bytes().splitlines(keepends=True)
    edges, n = set(), 1
    for size, block in _log_blocks(enum14):
        assert size == block.count(b"\n")
        edges |= {n, n + size - 1}
        n += size
    assert n == len(lines) + 1 and len(edges) > 20
    for n in sorted(edges):
        for name, edited, line in _block_edits(lines, n):
            if name not in ("overwrite", "delete", "duplicate"):
                continue
            path.write_bytes(edited)
            with pytest.raises(ValueError) as exc:
                load_log(path)
            assert str(exc.value).startswith(f"{path}: line {line}: "), (n, name, str(exc.value)[-80:])


_bits = st.text(alphabet="01")


@given(st.builds(HaltEvent, st.integers(1), st.integers(1), _bits, _bits, st.integers(1)), st.integers(0))
def test_event_line_is_json(ev, cut):
    """The shared event line, with the steps in the template or in the fields, is json.dumps of an event.

    The program is split into a head, held by the template, and a payload.
    """
    head, payload = ev.program[:cut], ev.program[cut:]
    head, payload, output = head.encode(), payload.encode(), ev.output.encode()
    fixed = (_EVENT_LINE % (head, ev.round, b"%d" % ev.steps)) % (output, payload, ev.seq)
    varying = (_EVENT_LINE % (head, ev.round, b"%d")) % (output, payload, ev.seq, ev.steps)
    assert fixed == varying == json.dumps(ev._asdict(), sort_keys=True).encode() + b"\n"
