"""Dovetailed enumeration of the machine's halting programs under a budget.

The schedule is recompute-from-scratch dovetailing: round r runs every
program of length <= min(r, max_len) for 2**r steps.  A halting program of
length L takes at most 2**L steps (_purecore's module docstring), so it is
found in round L, the first round that runs it, whole class and all:
max_rounds only decides which lengths are scheduled, and every event's
round is its program's length.

There is one enumeration path.  The halting programs of each length come
straight from the branch grammar (_purecore.generate_halts), registered
submachine rows included, as codeword classes: runs of programs that share
a prefix and differ in their payload.  The grammar also counts every
outcome; no program is run one by one.  It generates a length's classes in
program order, so taking lengths in turn gives the canonical
(round, length, program) order with nothing sorted.

A result is these class runs, with the outcome counts and per-length halt
counts; no event is spelled to get one.  Its readers take what they need
from the runs: the log builds each run's lines as bytes, a block at a
time, and H_up(s) and its witness come from the least scheduled
program that prints s (_purecore.least_program).  In run order an output's
first event is its least program, so it qualifies for a compressible
stream if any event does, and enters from the run that holds that program:
a stream counts its members as segments (_purecore.first_printed) and
spells them only when read, as a result does its events.  This keeps
enumeration stateless, replayable and deterministic.

On rows 0, 1 and REVERSE every line of a run has one width between powers
of ten of its seq, so a block of them is its line template repeated, with
the columns that change written by strided slices: a payload bit is a
periodic pattern of 0s and 1s, an output bit is a payload bit (once on the
raw row, twice on the square row, reversed on REVERSE), and a seq digit is
a periodic pattern of digits.  No payload of these rows is spelled.  A
zero-run output grows by a bit a line, so a zero-run block is one % of the
template over its lines' fields, with payloads spelled once per width.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from io import BytesIO
from itertools import chain, count, islice, repeat, zip_longest
from typing import NamedTuple

from . import _purecore
from .machine import Machine


@dataclass(frozen=True)
class Budget:
    """Enumeration limits: program length cap and round cap.

    Rounds beyond max_rounds never run, so a program of length L needs
    max_rounds >= L to be scheduled at all.  Once scheduled it is decided:
    round L allows 2**L steps, and every halting program of length L halts
    within them, so lengths past max_rounds are the only unscheduled ones.
    """

    max_len: int
    max_rounds: int = 32

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    @property
    def scheduled(self) -> int:
        """The longest program length the schedule runs: round r admits lengths <= r."""
        return min(self.max_len, self.max_rounds)


class HaltEvent(NamedTuple):
    seq: int
    round: int
    program: str
    output: str
    steps: int


@dataclass(frozen=True)
class CompressibleStream:
    """Outputs s with H_up(s) < T|s|, in order of first qualifying witness, counted from the class runs."""

    threshold: Fraction
    runs: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def segments(self) -> tuple[tuple[int, int, int], ...]:
        """(a, b, n) in stream order: n members at each length a <= m < b, as _purecore.first_printed counts them."""
        num, den = self.threshold.numerator, self.threshold.denominator
        firsts = (_purecore.first_printed(n, w, r, n * den // num) for n, _, w, r in self.runs)
        return tuple(chain.from_iterable(firsts))

    @cached_property
    def members(self) -> tuple[str, ...]:
        """The member strings in stream order, spelled on first read; refused past memory before any is."""
        _check_memory(sum(n * (a + b - 1) * (b - a) // 2 for a, b, n in self.segments), "the stream's members")
        num, den = self.threshold.numerator, self.threshold.denominator
        members = []
        for length, prefix, wlen, row in self.runs:
            head, payloads, outputs, _ = _purecore.class_strings(length, prefix, wlen, row)
            cut = length * den // num
            # an output of at least twice the run's length has no shorter program (first_printed)
            members += (s for w, s in zip(payloads, outputs) if len(s) > cut
                        and (len(s) >= 2 * length or _purecore.least_program(s, length) == head + w))
        return tuple(members)

    def __len__(self) -> int:
        return sum((b - a) * n for a, b, n in self.segments)


class EnumerationResult:
    """Completed enumeration: its halting class runs, outcome counts and halts {L: halting programs of length L}.

    runs lists the halting classes (length, prefix, wlen, row) in canonical
    order.  Events are spelled from the runs on first use; no sum, stream,
    log or command reads them, and the result keeps no stream.
    """

    def __init__(self, runs, budget, machine_digest, machine_identity, counts, halts):
        self.runs: list[tuple[int, int, int, int]] = list(runs)
        self.halts: dict[int, int] = dict(halts)
        self.budget = budget
        self.machine_digest = machine_digest
        self.machine_identity = machine_identity
        self.counts = dict(counts)

    def provenance(self) -> dict:
        """The machine digest and budget that every artifact carries."""
        return {"machine": self.machine_digest, "budget": asdict(self.budget)}

    @property
    def undecided(self) -> int:
        return self.counts.get(_purecore.OUT_OF_BUDGET, 0)

    def is_exhaustive(self) -> bool:
        """True iff every program of length <= max_len was decided.

        In that case the halt set is exactly the domain of the truncated
        machine and every sum computed from it is an exact statement about
        that finite machine, not merely a lower bound.
        """
        return self.undecided == 0

    @cached_property
    def events(self) -> list[HaltEvent]:
        """Every halt event in canonical order, spelled from the runs on first use if they fit in memory."""
        _check_memory(sum(_purecore.class_bits(n, w, r) for n, _, w, r in self.runs), "the events")
        events = []
        for length, prefix, wlen, row in self.runs:
            # found in round length, like every halting program of that length
            head, payloads, outputs, (first, grow) = _purecore.class_strings(length, prefix, wlen, row)
            programs = map(head.__add__, payloads)
            seqs = count(len(events) + 1)
            events += map(_new_event, zip(seqs, repeat(length), programs, outputs, count(first, grow)))
        return events

    @cached_property
    def complexity_table(self) -> dict[str, tuple[int, str]]:
        """(H_up(s), witness) of every output s, keyed in order of first event.

        A view of the events, for checking the readers of the runs against:
        events come in (length, program) order, so an output's first event
        has its shortest program and wins.
        """
        table: dict[str, tuple[int, str]] = {}
        for _, _, program, output, _ in self.events:
            if output not in table:
                table[output] = (len(program), program)
        return table

    def complexity_upper(self, s: str) -> int | None:
        program = self.witness(s)
        return None if program is None else len(program)

    def witness(self, s: str) -> str | None:
        """The least scheduled program, by length then bits, that prints s: the program of s's first event."""
        return _purecore.least_program(s, self.budget.scheduled)

    def compressible_stream(self, threshold: Fraction | int) -> CompressibleStream:
        """Distinct outputs with H_up(s) < T|s|, entered at their first witness; a new stream on each call.

        Membership is the exact rational comparison |p| * den(T) < num(T) * |s|.
        """
        t = Fraction(threshold)
        if t <= 0:
            raise ValueError("threshold must be positive")
        return CompressibleStream(t, tuple(self.runs))


_new_event = partial(tuple.__new__, HaltEvent)

# Bytes of physical memory: room for at most this many bits as str characters.
_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(bits: int, what: str) -> None:
    """Refuse with ValueError to spell what takes bits, a byte each as str characters, past memory."""
    if bits > _MEMORY:
        raise ValueError(f"{what} take at least {bits} bits, a byte each: over the {_MEMORY} bytes of memory")


def enumerate_domain(machine: Machine, budget: Budget, workers: int = 1) -> EnumerationResult:
    """Decide every program of length <= max_len under the budget's schedule.

    `workers` is accepted for compatibility and ignored: enumeration is a
    single pass in one process, and events come in canonical order.  A
    result holds runs and counts, which take more than max_len bits, so a
    max_len past the bytes of physical memory is refused with ValueError;
    events, the log and stream members are refused where they are spelled.
    """
    _check_memory(budget.max_len, "the counts")
    return _enumerate(machine, budget)


def _enumerate(machine: Machine, budget: Budget, max_bits=float("inf")) -> EnumerationResult:
    """enumerate_domain, giving up with ValueError once its log outgrows max_bits.

    The log holds every event's program and output bits, and counts that
    sum to 2**(max_len+1) - 2, which take more than max_len bits to write.
    """
    if budget.max_len > max_bits:
        raise ValueError(f"the counts for max_len {budget.max_len} take more than {max_bits} bits")
    scheduled = budget.scheduled
    counts = Counter({_purecore.OUT_OF_BUDGET: (2 << budget.max_len) - (2 << scheduled)})
    runs = []
    halts = {}
    bits = 0
    for length in range(1, scheduled + 1):
        classes, length_counts = _purecore.generate_halts(length, machine.rows)
        counts.update(length_counts)
        if length_counts[_purecore.HALT]:
            halts[length] = length_counts[_purecore.HALT]
        for prefix, wlen, row in classes:
            bits += _purecore.class_bits(length, wlen, row)
            runs.append((length, prefix, wlen, row))
        if bits > max_bits:
            raise ValueError(f"the events of length <= {length} take more than {max_bits} bits")
    return EnumerationResult(runs, budget, machine.digest(), machine.identity(), counts, halts)


# The event line of one run, as bytes: formatted with the program head, the
# round and the steps, or b"%d" where the steps differ from line to line,
# then with each event's (output, payload, seq[, steps]), it gives the bytes
# of json.dumps(event, sort_keys=True) for binary program and output strings
# and int seq, round and steps.
_EVENT_LINE = b'{"output": "%%s", "program": "%s%%s", "round": %d, "seq": %%d, "steps": %s}\n'

# Lines built at once, and compared at once by load_log against as many
# bytes of the file: at most _COMPARE_BLOCK, and fewer where a run's lines
# are long, so that a block of zero runs stays near _BLOCK_CHARS characters.
_COMPARE_BLOCK = 256
_BLOCK_CHARS = 1 << 15


def _run_blocks(runs):
    """(lines, block) for the event lines of each run in turn, in blocks of at most _COMPARE_BLOCK lines.

    Each block is bytes-like, whole lines of one run, and lines is its line
    count.  A run has one line template, _EVENT_LINE with its head, round
    and, except on the zero-run row, its steps.  Rows 0, 1 and REVERSE are
    built by columns (_column_blocks), and no payload of theirs is spelled.
    A zero-run output grows by a bit a line, so a zero-run block is one % of
    the template repeated over its lines' fields, from payloads spelled once
    per width and shared by every zero run of that width.  A line holds the
    template and, on average, class_bits >> wlen program and output bits.
    """
    seq = 1
    spelled = {}  # wlen: every wlen-bit payload, as bytes, for the zero-run rows
    for length, prefix, wlen, row in runs:
        columns = _purecore.output_columns(wlen, row)
        if columns is None:
            if wlen not in spelled:
                spelled[wlen] = _purecore.spell_payloads(wlen, b"01")
            head, payloads, outputs, (first, _) = _purecore.class_strings(length, prefix, wlen, row, spelled[wlen])
            line = _EVENT_LINE % (head, length, b"%d")
        else:
            head = format(prefix, f"0{length - wlen}b").encode()
            line = _EVENT_LINE % (head, length, b"%d" % _purecore.class_steps(length, wlen, row)[0])
        chars = len(line) + (_purecore.class_bits(length, wlen, row) >> wlen)
        block = max(1, min(_COMPARE_BLOCK, _BLOCK_CHARS // chars, 1 << wlen))
        if columns is not None:
            yield from _column_blocks(line, columns, wlen, seq, block)
        else:
            fields = zip(outputs, payloads, count(seq), count(first))
            repeated = line * block
            for rest in range(len(payloads), 0, -block):
                n = min(rest, block)
                yield n, (repeated if n == block else line * n) % tuple(chain.from_iterable(islice(fields, n)))
        seq += 1 << wlen


def _column_blocks(line, columns, wlen, seq, block):
    """(lines, block) for one run of fixed-width lines, from seq on, each block written by columns.

    line is the run's template, with its output, payload and seq left as
    %s, %s and %d; columns is output_columns.  A block ends where seq
    reaches a power of ten, so that all its lines have one width.  The
    fields are counters: payload bit j of the run's i-th line is the digit
    of weight 2**(wlen-1-j) of i in base 2, output bit o copies payload bit
    columns[o], and seq's digits are those of seq + i in base 10.  A block
    is the template repeated, once each counter digit that holds for the
    whole block is written into it, and each digit that changes within the
    block is then written with one strided slice per column (_digit_column).
    A block as long as the one before is that block copied, with only the
    columns that differ between the two written.
    """
    # the text before the output, the payload and the seq, and after the seq
    before_out, before_pay, before_seq, after = line.replace(b"%d", b"%s").split(b"%s")
    out = len(before_out)
    pay = out + len(columns) + len(before_pay)
    bits = [[pay + j] for j in range(wlen)]  # payload bit j's offset, then those of the output bits that copy it
    for o, j in enumerate(columns):
        bits[j].append(out + o)
    # (start, unit, base, offsets): the digit of weight unit in base of start + i, at these offsets of line i
    bit_counters = [(0, 1 << k, 2, offsets) for k, offsets in enumerate(reversed(bits))]
    size = 1 << wlen
    i, digits = 0, len(str(seq))
    while i < size:
        zeros = (b"0" * len(columns), b"0" * wlen, b"0" * digits)
        template = bytearray(b"").join((before_out, zeros[0], before_pay, zeros[1], before_seq, zeros[2], after))
        width = len(template)
        counters = bit_counters + [(seq, 10**k, 10, [width - len(after) - 1 - k]) for k in range(digits)]
        buf = b""
        while i < size and (n := min(block, size - i, 10**digits - seq - i)):
            again = len(buf) == n * width  # the block before has as many lines
            changing = []
            for start, unit, base, offsets in counters:
                first = start + i
                q = first // unit
                if again:
                    # the column repeats a block on, or holds one digit over both blocks
                    if not n % (unit * base) or (first - n) // unit == (first + n - 1) // unit:
                        continue
                elif q == (first + n - 1) // unit:
                    for off in offsets:
                        template[off] = _DIGITS[q % base]
                    continue
                changing.append((_digit_column(first, n, unit, base), offsets))
            buf = bytearray(buf) if again else template * n
            for column, offsets in changing:
                for off in offsets:
                    buf[off::width] = column
            yield n, buf
            i += n
        digits += 1


def _digit_column(first, n, unit, base):
    """The digit of weight unit in base of first, first + 1, ..., first + n - 1: n ASCII bytes.

    Each digit repeats unit times, and the pattern every base * unit
    numbers: where a digit outlasts the n numbers, the column is at most
    two runs, and otherwise a slice of _digit_tile.  It is a bytearray,
    which a bytearray's strided slice takes without a copy.
    """
    if unit >= n:
        q, r = divmod(first, unit)
        lead = min(unit - r, n)
        digit, following = q % base, (q + 1) % base
        return bytearray(_DIGITS[digit : digit + 1] * lead + _DIGITS[following : following + 1] * (n - lead))
    start = first % (unit * base)
    return _digit_tile(unit, base)[start : start + n]


@cache
def _digit_tile(unit, base):
    """The digits of weight unit < _COMPARE_BLOCK in base of 0, 1, 2, ...: whole periods, one more than a block."""
    period = b"".join(_DIGITS[d : d + 1] * unit for d in range(base))
    return bytearray(period * (_COMPARE_BLOCK // len(period) + 2))


_DIGITS = b"0123456789"


def _log_blocks(result: EnumerationResult):
    """(lines, block) for the log of result in blocks of whole lines, as bytes: the one definition of the log format.

    The header is one block, formatted at once; the event lines follow in
    blocks formatted from the runs as they are read, and no event is spelled.
    """
    header = {
        **result.provenance(),
        "identity": result.machine_identity,
        "exhaustive": result.is_exhaustive(),
        "counts": result.counts,
    }
    return chain(((1, json.dumps(header, sort_keys=True).encode() + b"\n"),), _run_blocks(result.runs))


def write_log(result: EnumerationResult, path) -> None:
    """JSONL event log: one header line, then one line per halt event.

    Events past memory are refused, and the header formatted, before the
    file is opened, so neither they nor a header that cannot be written (a
    count past the int-to-string digit limit) leave a file behind.
    """
    _check_memory(sum(_purecore.class_bits(n, w, r) for n, _, w, r in result.runs), "the events")
    blocks = _log_blocks(result)
    _, header = next(blocks)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.writelines(block for _, block in blocks)


def load_log(path) -> EnumerationResult:
    """Read a log, trusting it only if it is byte for byte what write_log writes for it.

    The header's identity names the machine (Machine.from_identity) and its
    max_len and max_rounds the budget; the log is replayed, by enumerating
    that machine under that budget, and refused at the first line that
    differs from the replay's log.  The header is read as at most
    min(file size, _MEMORY) bytes, and the replay gives up once its log would
    outgrow the file or memory, so neither a header with no end nor one that
    claims a huge budget is read or replayed whole, even in a sparse file.
    """
    with open(path, "rb") as fh:
        n = 1
        size = os.fstat(fh.fileno()).st_size
        try:
            header = json.loads(fh.readline(min(size, _MEMORY)))
            machine = Machine.from_identity(header["identity"])
            limits = header["budget"]
            budget = Budget(int(limits["max_len"]), int(limits["max_rounds"]))
            result = _enumerate(machine, budget, min(8 * size, _MEMORY))
            fh.seek(0)
            for lines, want in _log_blocks(result):
                got = fh.read(len(want))
                if got != want:
                    pairs = zip_longest(BytesIO(want), BytesIO(got), fillvalue=b"")
                    n += next(i for i, (a, b) in enumerate(pairs) if a != b)
                    break
                n += lines
            else:
                if not fh.read(1):
                    return result
            raise ValueError("differs from the replay of the header's machine and budget")
        except (ValueError, LookupError, TypeError, OverflowError, RecursionError) as exc:
            detail = exc if isinstance(exc, ValueError) else repr(exc)
            raise ValueError(f"{path}: line {n}: {detail}") from exc
