"""omegalab: exact halting-probability sums over a truncated prefix-free machine."""

from ._purecore import kernel_name
from .dyadic import Dyadic, DyadicInterval, iroot, pow2_enclosure
from .enumerator import Budget, EnumerationResult, HaltEvent, enumerate_domain
from .machine import Machine, MachineOutcome, OutcomeKind

__all__ = [
    "Budget",
    "Dyadic",
    "DyadicInterval",
    "EnumerationResult",
    "HaltEvent",
    "Machine",
    "MachineOutcome",
    "OutcomeKind",
    "enumerate_domain",
    "iroot",
    "kernel_name",
    "pow2_enclosure",
]
