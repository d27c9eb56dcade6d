"""The concrete prefix-free machine.

The machine decodes a program bit by bit with _purecore.decode_pair, the
one decoder; only _purecore encodes the branch table (BRANCH_TABLE below
merely names it in the machine identity).  It halts only when the decoder
finishes having consumed the input exactly.  Prefix-freeness of the
halting set holds by construction: the decoder's reads are
self-delimiting, so a proper prefix of a halting program either stops
early or runs out of input.

The '111' branch routes to registered submachines.  The registry is part
of the machine identity; registering the same decoders in the same slots
reproduces bit-identical results.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from types import MappingProxyType

from . import _purecore
from .bits import IncompleteCode, bits_to_pair, gamma_decode, pair_to_bits, string_to_nat

BRANCH_TABLE = (
    "v1:"
    "0 g(n) w[n-1] -> w;"
    "10 g(n) w[n-1] -> ww;"
    "110 g(n) w[n-1] -> 0^phi(w);"
    "111 g(e) rest -> submachine[e](rest)"
)


class OutcomeKind(enum.Enum):
    HALT = "halt"
    NEEDS_MORE_INPUT = "needs_more_input"
    HALTED_EARLY = "halted_early"
    OUT_OF_BUDGET = "out_of_budget"
    # the decoder reached the submachine branch with an unregistered index;
    # such programs provably never halt on this machine, so this is a
    # decided outcome, unlike OUT_OF_BUDGET
    NO_SUCH_SUBMACHINE = "no_such_submachine"


@dataclass(frozen=True)
class MachineOutcome:
    kind: OutcomeKind
    output: str | None = None
    consumed: int = 0
    steps: int = 0

    @property
    def halted(self) -> bool:
        return self.kind is OutcomeKind.HALT


class RegistryError(ValueError):
    pass


class SubmachineDecoder:
    """Base for registered decoders; subclasses keep their reads self-delimiting."""

    name = "abstract"

    def run(self, bits: str, step_budget: int) -> MachineOutcome:
        raise NotImplementedError


class ReversePayloadDecoder(SubmachineDecoder):
    """Reads g(n) then w with |w| = n-1 and outputs w reversed."""

    name = "reverse-payload"

    def run(self, bits: str, step_budget: int) -> MachineOutcome:
        try:
            n, consumed = gamma_decode(bits)
        except IncompleteCode:
            if len(bits) + 1 > step_budget:
                return MachineOutcome(OutcomeKind.OUT_OF_BUDGET, steps=step_budget)
            return MachineOutcome(OutcomeKind.NEEDS_MORE_INPUT, consumed=len(bits), steps=len(bits))
        end = consumed + n - 1
        if consumed > step_budget:
            return MachineOutcome(OutcomeKind.OUT_OF_BUDGET, steps=step_budget)
        if end > len(bits):
            steps = min(len(bits), step_budget)
            if len(bits) + 1 > step_budget:
                return MachineOutcome(OutcomeKind.OUT_OF_BUDGET, steps=step_budget)
            return MachineOutcome(OutcomeKind.NEEDS_MORE_INPUT, consumed=len(bits), steps=steps)
        out = bits[consumed:end][::-1]
        steps = end + len(out) + 1
        if steps > step_budget:
            return MachineOutcome(OutcomeKind.OUT_OF_BUDGET, steps=step_budget)
        kind = OutcomeKind.HALT if end == len(bits) else OutcomeKind.HALTED_EARLY
        return MachineOutcome(kind, out, consumed=end, steps=steps)


class LoopForeverDecoder(SubmachineDecoder):
    """Never halts; every run exhausts whatever budget it is given."""

    name = "loop-forever"

    def run(self, bits: str, step_budget: int) -> MachineOutcome:
        return MachineOutcome(OutcomeKind.OUT_OF_BUDGET, steps=step_budget)


class Machine:
    """Four-branch prefix-free machine with an immutable submachine registry."""

    def __init__(self, registry: dict[int, SubmachineDecoder] | None = None):
        registry = dict(registry or {})
        for index in registry:
            if index < 1:
                raise RegistryError(f"submachine index must be positive: {index}")
        self.registry = MappingProxyType(registry)

    def register_submachine(self, index: int, decoder: SubmachineDecoder) -> "Machine":
        """New machine with the decoder added; duplicate slots are an error."""
        if index in self.registry:
            raise RegistryError(f"submachine index {index} already registered")
        merged = dict(self.registry)
        merged[index] = decoder
        return Machine(merged)

    def identity(self) -> str:
        entries = ",".join(f"{e}={d.name}" for e, d in sorted(self.registry.items()))
        return f"{BRANCH_TABLE};registry[{entries}]"

    def digest(self) -> str:
        return hashlib.sha256(self.identity().encode()).hexdigest()[:16]

    def run(self, program: str, step_budget: int) -> MachineOutcome:
        if step_budget < 1:
            raise ValueError("step_budget must be >= 1")
        val, length = bits_to_pair(program)
        return self.run_pair(val, length, step_budget)

    def run_pair(self, val: int, length: int, step_budget: int) -> MachineOutcome:
        kind, out_val, out_len, consumed, steps, sub_index = _purecore.decode_pair(
            val, length, step_budget
        )
        if kind == _purecore.HALT:
            return MachineOutcome(OutcomeKind.HALT, pair_to_bits(out_val, out_len), consumed, steps)
        if kind == _purecore.NEEDS_INPUT:
            return MachineOutcome(OutcomeKind.NEEDS_MORE_INPUT, None, consumed, steps)
        if kind == _purecore.HALTED_EARLY:
            return MachineOutcome(
                OutcomeKind.HALTED_EARLY, pair_to_bits(out_val, out_len), consumed, steps
            )
        if kind == _purecore.OUT_OF_BUDGET:
            return MachineOutcome(OutcomeKind.OUT_OF_BUDGET, None, consumed, steps)
        return self._run_submachine(val, length, step_budget, consumed, steps, sub_index)

    def _run_submachine(self, val, length, budget, consumed, steps, index) -> MachineOutcome:
        decoder = self.registry.get(index)
        if decoder is None:
            return MachineOutcome(OutcomeKind.NO_SUCH_SUBMACHINE, None, consumed, steps)
        rest = pair_to_bits(val, length)[consumed:]
        sub = decoder.run(rest, budget - steps)
        if sub.kind in (OutcomeKind.HALT, OutcomeKind.HALTED_EARLY):
            total = consumed + sub.consumed
            kind = OutcomeKind.HALT if total == length else OutcomeKind.HALTED_EARLY
            return MachineOutcome(kind, sub.output, total, steps + sub.steps)
        if sub.kind is OutcomeKind.OUT_OF_BUDGET:
            return MachineOutcome(OutcomeKind.OUT_OF_BUDGET, None, consumed + sub.consumed, budget)
        return MachineOutcome(sub.kind, None, consumed + sub.consumed, steps + sub.steps)

    def decode_prefix(self, bits: str, step_budget: int) -> MachineOutcome:
        """Self-delimiting read: accept the unique halting prefix, if any.

        HALT and HALTED_EARLY both mean the decoder finished on a prefix;
        `consumed` tells where it stopped.
        """
        out = self.run(bits, step_budget)
        if out.kind is OutcomeKind.HALTED_EARLY:
            return MachineOutcome(OutcomeKind.HALT, out.output, out.consumed, out.steps)
        return out


def raw_program(s: str) -> str:
    """The raw-branch program for s: '0' g(|s|+1) s (always halts with s)."""
    from .bits import gamma_encode

    return "0" + gamma_encode(len(s) + 1) + s


def phi(s: str) -> int:
    return string_to_nat(s)
