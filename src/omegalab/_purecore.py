"""The branch table of the four-branch prefix-free machine, decoded and generated.

Programs are packed bit strings (value, length), MSB first.  The decoder
reads bits left to right:

    0   g(n) w   |w| = n-1   -> w                  (raw)
    10  g(n) w   |w| = n-1   -> w w                (square)
    110 g(n) w   |w| = n-1   -> 0**phi(w)          (zero run)
    111 g(e) rest            -> submachine e on rest

where g is the Elias gamma code and phi(w) = int('1'+w, 2) - 1.  A program
halts only if the decoder finishes having consumed every input bit.

Step accounting (shared contract): one step per input bit read, one step per
output bit emitted, plus one final halt transition.

This module is the only place that knows the table, and reads it two ways:
decode_pair runs one program, and generate_halts reads the table as a
grammar, emitting the halting codewords of one length directly and counting
every other outcome per codeword class.
"""

from __future__ import annotations

HALT = 0
NEEDS_INPUT = 1
HALTED_EARLY = 2
OUT_OF_BUDGET = 3
SUBMACHINE = 5


def kernel_name() -> str:
    """Name of the decode implementation; there is exactly one."""
    return "pure-python"


# (value, length) of each branch header, indexed by branch; branch 3 is '111'
_HEADER = ((0b0, 1), (0b10, 2), (0b110, 3), (0b111, 3))


def _output(branch: int, w: int, wlen: int):
    """Output (value, length) of payload branch 0, 1 or 2 on the payload w."""
    if branch == 0:
        return w, wlen
    if branch == 1:
        return (w << wlen) | w, 2 * wlen
    return 0, ((1 << wlen) | w) - 1


def decode_pair(val: int, length: int, budget: int):
    """Decode one program.

    Returns (kind, out_val, out_len, consumed, steps, sub_index).  For
    SUBMACHINE, consumed covers the '111' header plus g(e) and sub_index is
    e; the caller routes the remaining bits to the registered decoder.
    """
    pos = 0
    steps = 0

    # inlined bit reader: None signals needs-more-input, -1 budget exhaustion
    def read():
        nonlocal pos, steps
        if steps + 1 > budget:
            return -1
        if pos >= length:
            return None
        steps += 1
        bit = (val >> (length - 1 - pos)) & 1
        pos += 1
        return bit

    branch = 0
    for _ in range(3):
        bit = read()
        if bit is None:
            return (NEEDS_INPUT, 0, 0, pos, steps, 0)
        if bit < 0:
            return (OUT_OF_BUDGET, 0, 0, pos, budget, 0)
        if bit == 0:
            break
        branch += 1

    # Elias gamma: count zeros, then read that many more numeral bits
    zeros = 0
    while True:
        bit = read()
        if bit is None:
            return (NEEDS_INPUT, 0, 0, pos, steps, 0)
        if bit < 0:
            return (OUT_OF_BUDGET, 0, 0, pos, budget, 0)
        if bit == 1:
            break
        zeros += 1
    n = 1
    for _ in range(zeros):
        bit = read()
        if bit is None:
            return (NEEDS_INPUT, 0, 0, pos, steps, 0)
        if bit < 0:
            return (OUT_OF_BUDGET, 0, 0, pos, budget, 0)
        n = (n << 1) | bit

    if branch == 3:
        return (SUBMACHINE, 0, 0, pos, steps, n)

    w = 0
    for _ in range(n - 1):
        bit = read()
        if bit is None:
            return (NEEDS_INPUT, 0, 0, pos, steps, 0)
        if bit < 0:
            return (OUT_OF_BUDGET, 0, 0, pos, budget, 0)
        w = (w << 1) | bit

    out_val, out_len = _output(branch, w, n - 1)
    if steps + out_len + 1 > budget:
        return (OUT_OF_BUDGET, 0, 0, pos, budget, 0)
    steps += out_len + 1
    kind = HALT if pos == length else HALTED_EARLY
    return (kind, out_val, out_len, pos, steps, 0)


def _fitting(branch: int, clen: int, wlen: int, budget: int) -> int:
    """How many payloads w of a clen-bit codeword class run within budget.

    The run reads clen bits, emits its output and halts.  The output length
    never decreases with w, so the payloads that fit are exactly w < count.
    """
    room = budget - clen - 1  # output bits the budget leaves
    if branch == 2:  # zero run: 2**wlen + w - 1 output bits
        return max(0, min(1 << wlen, room - (1 << wlen) + 2))
    return 1 << wlen if _output(branch, 0, wlen)[1] <= room else 0


def generate_halts(length: int, budget: int, registered):
    """Outcomes of every program (v, length) under budget, without decoding them.

    A program of length L is either an extension of one codeword class
    c = header g(n) w (|w| = n-1), of one submachine prefix 111 g(e), or a
    proper prefix of some codeword (needs more input).  A class covers
    2**(L-|c|) programs: they halt when |c| = L, halt early otherwise, and
    are out of budget when the output does not fit.

    Returns (halts, nmi, early, oob, no_sub, routed): halts lists
    (val, out_val, out_len, steps) exactly as decode_pair reports each
    halting program, the next four are outcome counts, and routed lists the
    [lo, hi) value ranges of programs entering a submachine whose index is
    in `registered`; the caller runs those.  Requires budget > length, so
    every read fits in the budget.
    """
    if budget <= length:
        raise ValueError("budget must exceed the program length")
    halts = []
    early = oob = 0
    covered = 0  # programs below some codeword or submachine prefix
    for branch in range(3):
        head, hlen = _HEADER[branch]
        n = 1
        while True:
            glen = 2 * n.bit_length() - 1
            wlen = n - 1
            clen = hlen + glen + wlen
            if clen > length:
                break
            spare = length - clen
            fit = _fitting(branch, clen, wlen, budget)
            covered += 1 << (wlen + spare)
            oob += ((1 << wlen) - fit) << spare
            if spare:
                early += fit << spare
            else:
                prefix = ((head << glen) | n) << wlen
                for w in range(fit):
                    out_val, out_len = _output(branch, w, wlen)
                    halts.append((prefix | w, out_val, out_len, clen + out_len + 1))
            n += 1

    # 111 g(e): the 2**(b-1) indices e of bit length b each own a subtree
    # of 2**spare programs; unregistered ones never halt
    head, hlen = _HEADER[3]
    no_sub = 0
    b = 1
    while (spare := length - hlen - (2 * b - 1)) >= 0:
        no_sub += 1 << (b - 1 + spare)
        b += 1
    covered += no_sub
    routed = []
    for e in sorted(registered):
        glen = 2 * e.bit_length() - 1
        spare = length - hlen - glen
        if spare >= 0:
            lo = ((head << glen) | e) << spare
            routed.append((lo, lo + (1 << spare)))
            no_sub -= 1 << spare

    return halts, (1 << length) - covered, early, oob, no_sub, routed
