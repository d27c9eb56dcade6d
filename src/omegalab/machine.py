"""The concrete prefix-free machine.

The machine decodes a program with _purecore.decode_pair, the one decoder;
only _purecore encodes the branch table (BRANCH_TABLE below merely names it
in the machine identity), the rows of registered submachines included.  It
halts only when the decoder finishes having consumed the input exactly.
Prefix-freeness of the halting set holds by construction: the decoder's
reads are self-delimiting, so a proper prefix of a halting program either
stops early or runs out of input.

The '111' branch routes to registered submachines.  A registered decoder
is a marker naming one row of the branch table: ReversePayloadDecoder or
LoopForeverDecoder.  The registry is part of the machine identity;
registering the same decoders in the same slots reproduces bit-identical
results.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from types import MappingProxyType

from . import _purecore
from .bits import bits_to_pair, pair_to_bits, string_to_nat

BRANCH_TABLE = (
    "v1:"
    "0 g(n) w[n-1] -> w;"
    "10 g(n) w[n-1] -> ww;"
    "110 g(n) w[n-1] -> 0^phi(w);"
    "111 g(e) rest -> submachine[e](rest)"
)


class OutcomeKind(enum.Enum):
    """A program's outcome; its value is the name _purecore gives it."""

    HALT = _purecore.HALT
    NEEDS_MORE_INPUT = _purecore.NEEDS_INPUT
    HALTED_EARLY = _purecore.HALTED_EARLY
    OUT_OF_BUDGET = _purecore.OUT_OF_BUDGET
    # the decoder reached the submachine branch with an unregistered index;
    # such programs provably never halt on this machine, so this is a
    # decided outcome, unlike OUT_OF_BUDGET
    NO_SUCH_SUBMACHINE = _purecore.NO_SUCH_SUBMACHINE


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
    """Base for registered decoders: a name and the branch-table row it selects."""

    name = "abstract"
    row = None


class ReversePayloadDecoder(SubmachineDecoder):
    """Reads g(n) then w with |w| = n-1 and outputs w reversed."""

    name = "reverse-payload"
    row = _purecore.REVERSE


class LoopForeverDecoder(SubmachineDecoder):
    """Never halts; every run exhausts whatever budget it is given."""

    name = "loop-forever"
    row = _purecore.LOOP


def identity_digest(identity: str) -> str:
    """The machine digest that logs and artifacts carry for an identity string."""
    return hashlib.sha256(identity.encode()).hexdigest()[:16]


class Machine:
    """Four-branch prefix-free machine with an immutable submachine registry."""

    def __init__(self, registry: dict[int, SubmachineDecoder] | None = None):
        registry = dict(registry or {})
        for index, decoder in registry.items():
            if index < 1:
                raise RegistryError(f"submachine index must be positive: {index}")
            if getattr(decoder, "row", None) not in (_purecore.REVERSE, _purecore.LOOP):
                raise RegistryError(f"no branch-table row for submachine {index}: {decoder!r}")
        self.registry = MappingProxyType(registry)
        # {e: row}, the submachine rows _purecore decodes and generates
        self.rows = MappingProxyType({e: d.row for e, d in registry.items()})

    @classmethod
    def from_identity(cls, identity: str) -> "Machine":
        """The machine whose identity() is identity; RegistryError if no machine has it."""
        decoders = {d.name: d for d in (ReversePayloadDecoder, LoopForeverDecoder)}
        entries = str(identity).partition(";registry[")[2][:-1]
        try:
            pairs = (entry.partition("=") for entry in entries.split(",") if entry)
            machine = cls({int(e): decoders[name]() for e, _, name in pairs})
        except (ValueError, KeyError):
            machine = None
        if machine is None or machine.identity() != identity:
            raise RegistryError(f"no machine has identity {identity!r}")
        return machine

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
        return identity_digest(self.identity())

    def run(self, program: str, step_budget: int) -> MachineOutcome:
        if step_budget < 1:
            raise ValueError("step_budget must be >= 1")
        val, length = bits_to_pair(program)
        kind, out_val, out_len, consumed, steps = _purecore.decode_pair(
            val, length, step_budget, self.rows
        )
        output = None
        if kind in (_purecore.HALT, _purecore.HALTED_EARLY):
            output = pair_to_bits(out_val, out_len)
        return MachineOutcome(OutcomeKind(kind), output, consumed, steps)

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
