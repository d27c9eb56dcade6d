"""Dovetailed enumeration of the machine's halting programs under a budget.

The schedule is recompute-from-scratch dovetailing: round r runs every
program of length <= min(r, max_len) for 2**r steps.  Because each run is a
pure function, the whole schedule collapses to a single run per program
with the final step cap; the round in which a program first halts is then
max(|p|, ceil(log2 steps)).

There is one enumeration path.  The halting programs of each length come
straight from the branch grammar (_purecore.generate_halts), registered
submachine rows included, which also counts every other outcome; no
program is run one by one.  This keeps enumeration stateless, replayable
and deterministic.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from . import _purecore
from .bits import pair_to_bits
from .machine import Machine, OutcomeKind, identity_digest


@dataclass(frozen=True)
class Budget:
    """Enumeration limits: program length cap and round cap.

    Rounds beyond max_rounds never run, so a program of length L needs
    max_rounds >= L to be scheduled at all, and a halting program needs
    2**max_rounds steps to be discovered.
    """

    max_len: int
    max_rounds: int = 32

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    @property
    def step_cap(self) -> int:
        return 1 << self.max_rounds

    def covers(self, other: "Budget") -> bool:
        return self.max_len >= other.max_len and self.max_rounds >= other.max_rounds


class HaltEvent(NamedTuple):
    seq: int
    round: int
    program: str
    output: str
    steps: int


@dataclass(frozen=True)
class CompressibleStream:
    """Outputs s with H_up(s) < T|s|, in order of first qualifying witness."""

    threshold: Fraction
    members: tuple[str, ...]

    # Both are built once, on first use: a result keeps its streams, and
    # most of them never feed a partial-sum table or a membership test.
    @cached_property
    def lengths(self) -> tuple[int, ...]:
        """|s_i| for every member, in stream order."""
        return tuple(map(len, self.members))

    @cached_property
    def _member_set(self) -> frozenset[str]:
        return frozenset(self.members)

    def __contains__(self, s: str) -> bool:
        return s in self._member_set

    def __len__(self) -> int:
        return len(self.members)


_OUTCOMES = tuple(kind.value for kind in OutcomeKind)

# Streams and partial-sum tables a result keeps, each evicted least recently
# used first, so a sweep over many thresholds or temperatures stays bounded.
_MAX_CACHED = 32


def _cached(cache: OrderedDict, key, build):
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
        if len(cache) > _MAX_CACHED:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


class EnumerationResult:
    """Completed enumeration: ordered halt events plus decided/undecided counts."""

    def __init__(self, events, budget, machine_digest, machine_identity, counts):
        self.events: list[HaltEvent] = list(events)
        self.budget = budget
        self.machine_digest = machine_digest
        self.machine_identity = machine_identity
        self.counts = dict(counts)
        self._table: dict[str, tuple[int, str]] | None = None
        self._streams: OrderedDict[Fraction, CompressibleStream] = OrderedDict()
        self._sum_tables: OrderedDict[tuple, object] = OrderedDict()

    @property
    def undecided(self) -> int:
        return self.counts.get("out_of_budget", 0)

    def is_exhaustive(self) -> bool:
        """True iff every program of length <= max_len was decided.

        In that case the halt set is exactly the domain of the truncated
        machine and every sum computed from it is an exact statement about
        that finite machine, not merely a lower bound.
        """
        return self.undecided == 0

    @property
    def complexity_table(self) -> dict[str, tuple[int, str]]:
        if self._table is None:
            table: dict[str, tuple[int, str]] = {}
            for ev in self.events:
                cur = table.get(ev.output)
                if cur is None or len(ev.program) < cur[0]:
                    table[ev.output] = (len(ev.program), ev.program)
            self._table = table
        return self._table

    def complexity_upper(self, s: str) -> int | None:
        entry = self.complexity_table.get(s)
        return entry[0] if entry else None

    def witness(self, s: str) -> str | None:
        entry = self.complexity_table.get(s)
        return entry[1] if entry else None

    def compressible_stream(self, threshold: Fraction | int) -> CompressibleStream:
        """Distinct outputs with H_up(s) < T|s|, entered at their first witness.

        Membership is the exact rational comparison |p| * den(T) < num(T) * |s|.
        Built once per threshold and kept on the result.
        """
        t = Fraction(threshold)
        if t <= 0:
            raise ValueError("threshold must be positive")
        return _cached(self._streams, t, lambda: self._build_stream(t))

    def partial_sums(self, key, build):
        """The partial-sum table stored under key, made by build() on first use."""
        return _cached(self._sum_tables, key, build)

    def _build_stream(self, t: Fraction) -> CompressibleStream:
        seen: set[str] = set()
        members: list[str] = []
        for ev in self.events:
            if len(ev.program) * t.denominator < t.numerator * len(ev.output):
                if ev.output not in seen:
                    seen.add(ev.output)
                    members.append(ev.output)
        return CompressibleStream(t, tuple(members))


def enumerate_domain(machine: Machine, budget: Budget, workers: int = 1) -> EnumerationResult:
    """Decide every program of length <= max_len under the budget's schedule.

    `workers` is accepted for compatibility and ignored: enumeration is a
    single pass in one process, and events are sorted in canonical order.
    """
    cap = budget.step_cap
    counts = {
        "halt": 0,
        "needs_more_input": 0,
        "halted_early": 0,
        "no_such_submachine": 0,
        "out_of_budget": 0,
    }
    keyed = []
    for length in range(1, budget.max_len + 1):
        if length > budget.max_rounds:
            # never scheduled: round r only admits programs of length <= r
            counts["out_of_budget"] += 1 << length
            continue
        halts, nmi, early, oob, no_sub = _purecore.generate_halts(length, cap, machine.rows)
        counts["needs_more_input"] += nmi
        counts["halted_early"] += early
        counts["out_of_budget"] += oob
        counts["no_such_submachine"] += no_sub
        # steps <= cap, so the discovery round never passes max_rounds
        for val, out_val, out_len, steps in halts:
            keyed.append((max(length, _ceil_log2(steps)), length, val, out_val, out_len, steps))
    keyed.sort(key=lambda item: item[:3])

    events = [
        HaltEvent(seq, rnd, pair_to_bits(val, length), pair_to_bits(out_val, out_len), steps)
        for seq, (rnd, length, val, out_val, out_len, steps) in enumerate(keyed, start=1)
    ]
    counts["halt"] = len(events)

    return EnumerationResult(events, budget, machine.digest(), machine.identity(), counts)


def write_log(result: EnumerationResult, path) -> None:
    """JSONL event log: one header line, then one line per halt event."""
    with open(path, "w") as fh:
        header = {
            "machine": result.machine_digest,
            "identity": result.machine_identity,
            "budget": {"max_len": result.budget.max_len, "max_rounds": result.budget.max_rounds},
            "exhaustive": result.is_exhaustive(),
            "counts": result.counts,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for ev in result.events:
            fh.write(
                json.dumps(
                    {
                        "seq": ev.seq,
                        "round": ev.round,
                        "program": ev.program,
                        "output": ev.output,
                        "steps": ev.steps,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_log(path) -> EnumerationResult:
    """Read a log written by write_log, refusing one whose header or events do not match it.

    Events are numbered 1..N in file order, strictly increasing in (round,
    |program|, program), each a binary program of length 1..max_len with a
    binary output, steps >= 1 and round max(|program|, ceil(log2 steps)) <=
    max_rounds, so steps <= 2**max_rounds; the counts give each program of
    length <= max_len one of the five outcomes.
    """
    with open(path) as fh:
        header = json.loads(fh.readline())
        limits = header["budget"]
        if not all(type(limits.get(k)) is int and limits[k] >= 1 for k in ("max_len", "max_rounds")):
            raise ValueError(f"{path}: budget fields must be integers >= 1, got {limits}")
        budget = Budget(limits["max_len"], limits["max_rounds"])
        max_len = budget.max_len
        events = []
        last = ()
        for seq, line in enumerate(fh, start=1):
            try:
                d = json.loads(line)
                ev = HaltEvent(d["seq"], d["round"], d["program"], d["output"], d["steps"])
            except (json.JSONDecodeError, KeyError, TypeError):
                ev = None
            if ev is None or len(d) != 5 or not (
                type(ev.seq) is type(ev.round) is type(ev.steps) is int
                and type(ev.program) is type(ev.output) is str
            ):
                raise ValueError(f"{path}: line {seq + 1}: want int seq, round, steps, str program, output")
            if ev.seq != seq:
                raise ValueError(f"{path}: line {seq + 1}: seq {ev.seq}, expected {seq}")
            key = (ev.round, len(ev.program), ev.program)
            if not (0 < key[1] <= max_len and ev.steps > 0):
                raise ValueError(f"{path}: line {seq + 1}: want a program of length 1..max_len and steps >= 1")
            if key <= last:
                raise ValueError(f"{path}: line {seq + 1}: event out of (round, |program|, program) order")
            if ev.round != max(key[1], _ceil_log2(ev.steps)):
                raise ValueError(f"{path}: line {seq + 1}: round is not max(|program|, ceil(log2 steps))")
            last = key
            events.append(ev)
    # rounds never decrease, so the last event's is the largest
    if last and last[0] > budget.max_rounds:
        raise ValueError(f"{path}: line {len(events) + 1}: round {last[0]} is past max_rounds")
    # all programs and outputs in one pass; the line is looked for only on failure
    bits = "".join(chain.from_iterable(map(attrgetter("program", "output"), events)))
    if bits.encode().translate(None, b"01"):
        seq = next(i for i, ev in enumerate(events, start=1) if (ev.program + ev.output).strip("01"))
        raise ValueError(f"{path}: line {seq + 1}: program or output is not binary")
    if header["machine"] != identity_digest(header["identity"]):
        raise ValueError(f"{path}: machine digest {header['machine']} does not match its identity")
    counts = header["counts"]
    if (
        type(counts) is not dict
        or {k: type(n) for k, n in counts.items()} != dict.fromkeys(_OUTCOMES, int)
        or min(counts.values()) < 0
        or sum(counts.values()) != (2 << budget.max_len) - 2
    ):
        raise ValueError(f"{path}: line 1: counts {counts} do not give each program one outcome")
    if counts["halt"] != len(events):
        raise ValueError(
            f"{path}: header counts {counts['halt']} halt events, "
            f"the log holds {len(events)}"
        )
    return EnumerationResult(events, budget, header["machine"], header["identity"], counts)
