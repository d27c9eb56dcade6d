"""The branch table of the four-branch prefix-free machine, decoded and generated.

Programs are packed bit strings (value, length), MSB first.  The decoder
reads bits left to right:

    0   g(n) w   |w| = n-1   -> w                  (raw)
    10  g(n) w   |w| = n-1   -> w w                (square)
    110 g(n) w   |w| = n-1   -> 0**phi(w)          (zero run)
    111 g(e) rest            -> row subs[e] on rest

where g is the Elias gamma code and phi(w) = int('1'+w, 2) - 1.  A
submachine index e is registered with one of two rows: REVERSE reads
g(n) w (|w| = n-1) like the raw branch and outputs w reversed, and LOOP
never halts.  An unregistered index is decided: no such submachine.  A
program halts only if the decoder finishes having consumed every input bit.

Step accounting (shared contract): one step per input bit read, one step per
output bit emitted, plus one final halt transition.

This module is the only place that knows the table, submachine rows
included, and the only one that names a program's outcome: HALT,
NEEDS_INPUT, HALTED_EARLY, OUT_OF_BUDGET and NO_SUCH_SUBMACHINE are the
strings logs count under and OutcomeKind takes its values from.  It reads
the table three ways: decode_pair runs one program, generate_halts reads the
table as a grammar, emitting the halting codeword classes of one length in
program order and counting every outcome, and least_program reads it
backwards, from an output to its least program.  A halting class (prefix,
wlen, row) stands for the programs prefix w, one per payload w of wlen bits;
class_strings spells their payloads, program head, outputs and step counts
(class_steps), as str or as bytes, output_columns says which payload bit
each output bit copies where outputs have one width, class_bits sums their
program and output bits, and first_printed gives the lengths of the outputs
they print first, as segments of equal counts.

Every class halts within 2**L steps, L its codeword length: it takes
L + |output| + 1 steps, where |output| <= 2*wlen < 2*L on rows 0, 1 and
REVERSE, and |output| <= 2**(wlen+1) - 2 on the zero-run row, whose
codewords have L >= wlen + 4.  So a budget of 2**L steps, which the
dovetailed schedule gives every length it runs, never cuts a halting class
short, and no class needs a budget to be generated.
"""

from __future__ import annotations

from itertools import product, repeat
from operator import itemgetter, mul

from .bits import gamma_encode

# outcomes, named as logs and OutcomeKind name them
HALT = "halt"
NEEDS_INPUT = "needs_more_input"
HALTED_EARLY = "halted_early"
OUT_OF_BUDGET = "out_of_budget"
NO_SUCH_SUBMACHINE = "no_such_submachine"

# submachine rows
REVERSE = 5
LOOP = 6


def kernel_name() -> str:
    """Name of the decode implementation; there is exactly one."""
    return "pure-python"


# (value, length) of each branch header, indexed by branch; branch 3 is '111'
_HEADER = ((0b0, 1), (0b10, 2), (0b110, 3), (0b111, 3))


def _output(row: int, w: int, wlen: int):
    """Output (value, length) of payload row 0, 1, 2 or REVERSE on the payload w."""
    if row == 0:
        return w, wlen
    if row == 1:
        return (w << wlen) | w, 2 * wlen
    if row == REVERSE:
        return int(format(w, f"0{wlen}b")[::-1], 2), wlen
    return 0, ((1 << wlen) | w) - 1


def decode_pair(val: int, length: int, budget: int, subs):
    """Decode one program on the machine whose submachine rows are subs {e: row}.

    Returns (kind, out_val, out_len, consumed, steps).  Every read costs
    one step, so the run reads at most min(length, budget) bits; a read
    past that stops it, out of budget if the budget ran out first and
    needing more input otherwise.
    """
    reach = min(length, budget)
    if budget <= length:
        cut = (OUT_OF_BUDGET, 0, 0, budget, budget)
    else:
        cut = (NEEDS_INPUT, 0, 0, length, length)

    def field(pos, end):
        """Bits [pos, end) of the program."""
        return (val >> (length - end)) & ((1 << (end - pos)) - 1)

    def gamma(pos):
        """(n, end) of the gamma code at pos, or None if the run stops inside it."""
        zeros = reach - pos - field(pos, reach).bit_length()
        end = pos + 2 * zeros + 1
        return None if end > reach else (field(pos + zeros, end), end)

    # header: up to three 1s, closed by a 0 unless it is '111'
    row = 0
    while row < min(3, reach) and field(row, row + 1):
        row += 1
    pos = row + (row < 3)
    if pos > reach or (head := gamma(pos)) is None:
        return cut
    n, pos = head
    if row == 3:
        row = subs.get(n)
        if row is None:
            return (NO_SUCH_SUBMACHINE, 0, 0, pos, pos)
        if row == LOOP:
            return (OUT_OF_BUDGET, 0, 0, pos, budget)
        if (head := gamma(pos)) is None:
            return cut
        n, pos = head

    end = pos + n - 1
    if end > reach:
        return cut
    out_val, out_len = _output(row, field(pos, end), n - 1)
    if end + out_len + 1 > budget:
        return (OUT_OF_BUDGET, 0, 0, end, budget)
    kind = HALT if end == length else HALTED_EARLY
    return (kind, out_val, out_len, end, end + out_len + 1)


def _sub_header(e: int):
    """(value, length) of the submachine prefix 111 g(e)."""
    head, hlen = _HEADER[3]
    glen = 2 * e.bit_length() - 1
    return (head << glen) | e, hlen + glen


def generate_halts(length: int, subs):
    """Outcomes of every program (v, length), without decoding them.

    A program of length L is either an extension of one codeword class
    c = header g(n) w (|w| = n-1), of one submachine prefix 111 g(e), or a
    proper prefix of some codeword (needs more input).  A class covers
    2**(L-|c|) programs: they halt when |c| = L and halt early otherwise.  A
    REVERSE row is one more family of classes, whose header is 111 g(e); the
    subtree under a LOOP row is out of budget, and one under an unregistered
    e is decided.

    Returns (classes, counts).  classes lists the halting classes
    (prefix, wlen, row) in increasing order of their programs: a row's
    codeword length |header| + |g(n)| + n - 1 grows strictly with n, so it
    has at most one class of length L, and the headers 0, 10, 110 and
    111 g(e) are prefix-free, so taking rows in the order of their header
    bits orders the classes.  A class's programs are (prefix << wlen) | w
    for every payload w < 2**wlen, and each halts as decode_pair reports it
    under any budget of at least 2**length steps, with output
    _output(row, w, wlen) and at most 2**length steps (module docstring), as
    class_strings spells them.  counts maps each of the five outcomes to its
    number of programs, as decode_pair tallies them under such a budget:
    out of budget comes only from LOOP subtrees.
    """
    rows = [(*_HEADER[branch], branch) for branch in range(3)]
    rows += [(*_sub_header(e), row) for e, row in subs.items() if row == REVERSE]
    rows.sort(key=lambda r: format(r[0], f"0{r[1]}b"))

    classes = []
    counts = dict.fromkeys((HALT, NEEDS_INPUT, HALTED_EARLY, OUT_OF_BUDGET, NO_SUCH_SUBMACHINE), 0)
    covered = 0  # programs below some codeword or submachine prefix
    for head, hlen, row in rows:
        n = 1
        while True:
            glen = 2 * n.bit_length() - 1
            wlen = n - 1
            clen = hlen + glen + wlen
            if clen > length:
                break
            spare = length - clen
            covered += 1 << (wlen + spare)
            if spare:
                counts[HALTED_EARLY] += 1 << (wlen + spare)
            else:
                counts[HALT] += 1 << wlen
                classes.append(((head << glen) | n, wlen, row))
            n += 1

    # 111 g(e): the 2**(b-1) indices e of bit length b each own a subtree
    # of 2**spare programs; a LOOP row runs out of budget on all of it, and
    # an unregistered index never halts.  REVERSE subtrees are counted above.
    hlen = _HEADER[3][1]
    b = 1
    while (spare := length - hlen - (2 * b - 1)) >= 0:
        counts[NO_SUCH_SUBMACHINE] += 1 << (b - 1 + spare)
        b += 1
    for e, row in subs.items():
        spare = length - _sub_header(e)[1]
        if spare >= 0:
            counts[NO_SUCH_SUBMACHINE] -= 1 << spare
            if row == LOOP:
                counts[OUT_OF_BUDGET] += 1 << spare
                covered += 1 << spare
    counts[NEEDS_INPUT] = (1 << length) - covered - counts[NO_SUCH_SUBMACHINE]
    return classes, counts


def class_bits(length: int, wlen: int, row: int) -> int:
    """Program and output bits of every payload of one length-bit halting class, summed."""
    size = 1 << wlen
    if row == 2:  # zero run: payload w outputs 2**wlen + w - 1 bits
        return size * length + 3 * size * (size - 1) // 2
    return size * (length + _output(row, 0, wlen)[1])


def class_steps(length: int, wlen: int, row: int):
    """(first, grow): the steps of a length-bit class's first payload, and how many more each next one takes.

    A payload takes its reads, its output bits and one halt, so the steps
    grow by 1 a payload on the zero-run row and by 0 on the others.
    """
    return length + _output(row, 0, wlen)[1] + 1, int(row == 2)


def output_columns(wlen: int, row: int):
    """The payload bit, 0 the first, that each output bit copies on rows 0, 1 and REVERSE.

    The raw row copies the payload once, the square row twice and REVERSE
    reversed, so every output of such a class has the same width.  None on
    the zero-run row, whose outputs are zeros that grow by one bit a payload.
    """
    if row == 2:
        return None
    bits = range(wlen)
    if row == 0:
        return bits
    if row == 1:
        return [*bits, *bits]
    return bits[::-1]


def spell_payloads(wlen: int, bits="01"):
    """Every wlen-bit payload in increasing order, spelled over bits: "01" as str, b"01" as bytes."""
    return list(map(bits[:0].join, product((bits[:1], bits[1:]), repeat=wlen)))


def class_strings(length: int, prefix: int, wlen: int, row: int, payloads=None):
    """(head, payloads, outputs, steps) of one halting class's payloads.

    Strings are bits: a payload's program is head + payload, and the
    payloads come as a list, spell_payloads(wlen) unless a caller passes
    that list, str or bytes, to share it between classes of one width; the
    head and outputs are spelled like it.  steps is class_steps.  Payloads
    come out in increasing order, spelled by C-level iterators; no program
    is decoded.
    """
    if payloads is None:
        payloads = spell_payloads(wlen)
    olen = _output(row, 0, wlen)[1]  # bits of the first payload's output
    head, zero = format(prefix, f"0{length - wlen}b"), "0"
    if isinstance(payloads[0], bytes):
        head, zero = head.encode(), b"0"
    steps = class_steps(length, wlen, row)
    if row == 2:  # zero run: payload w outputs olen + w bits
        return head, payloads, map(zero.__mul__, range(olen, olen + len(payloads))), steps
    if row == 0:
        return head, payloads, payloads, steps
    if row == 1:
        return head, payloads, map(mul, payloads, repeat(2)), steps
    return head, payloads, map(itemgetter(slice(None, None, -1)), payloads), steps


def first_printed(length: int, wlen: int, row: int, cut: int = -1) -> list[tuple[int, int, int]]:
    """The outputs longer than cut that a length-bit class prints first, as segments (a, b, n): n of each a <= m < b.

    An output is printed first by its least program (least_program).  On rows
    0, 1 and REVERSE, the least programs of m-bit outputs of one kind (0**m,
    another square, or neither) share a row, so one output of each kind is
    asked, for one segment; 0**k from a zero run has raw and square programs
    of more than k / 2 bits, so only k < 2 * length is asked, a point each.
    """
    header = "{:0{}b}".format(*_HEADER[min(row, 3)])  # REVERSE is branch 3, which no least program takes
    size = 1 << wlen
    if row == 2:
        ks = range(max(cut + 1, size - 1), 2 * size - 1)
        low = max(0, 2 * length - ks.start)  # how many k lie below 2 * length
        points = [(k, k + 1, 1) for k in ks[:low] if least_program("0" * k, length).startswith(header)]
        return points + [(ks.start + low, ks.stop, 1)] if ks.start + low < ks.stop else points
    m = _output(row, 0, wlen)[1]
    squares = (1 << m // 2) - 1 if m % 2 == 0 else 0  # ww with w != 0**(m/2)
    kinds = ((1, 0), (squares, (1 << m) - 1), (size - 1 - squares, 1 << m >> 1)) if m > cut else ()
    n = sum(n for n, v in kinds if n and least_program(output_kind(1 << m | v), length).startswith(header))
    return [(m, m + 1, n)] if n else []


def output_kind(marked: int) -> str:
    """A string of the length and kind of s, marked = int('1' + s, 2): all that least_program reads of s.

    The kinds are 0**m, another square ww, and neither; an m-bit s of value
    v is a square when m is even and 2**(m/2) + 1 divides v, as ww = w (2**(m/2) + 1).
    """
    m = marked.bit_length() - 1
    v = marked - (1 << m)
    if v == 0:
        return "0" * m
    if m % 2 == 0 and v % ((1 << m // 2) + 1) == 0:
        return "1" * m
    return "1" + "0" * (m - 1)


def least_program(s: str, max_len: int) -> str | None:
    """The least program of at most max_len bits, by length then bits, that prints s; None if none does.

    The raw row prints s, the square row prints s = ww, and the zero-run row
    prints s = 0**k from the w with phi(w) = k, so '1' + w = bin(k + 1).  A
    REVERSE row prints s too, from 111 g(e) g(|s|+1) reverse(s), but that is
    2 + |g(e)| bits longer than the raw program 0 g(|s|+1) s, so it is never
    the least.  At equal length the headers 0 < 10 < 110 order the
    programs, so the least is the first shortest candidate, and only it is
    spelled.  A string that is not over '0' and '1' has no program.
    """
    if s.strip("01"):
        return None
    half = len(s) // 2
    heads = [(_HEADER[0], s)]
    if s[:half] == s[half:]:
        heads.append((_HEADER[1], s[:half]))
    if "1" not in s:
        heads.append((_HEADER[2], bin(len(s) + 1)[3:]))
    # a program is its header, the gamma code of |w| + 1, then w
    sizes = [hlen + 2 * (len(w) + 1).bit_length() - 1 + len(w) for (_, hlen), w in heads]
    size = min(sizes)
    if size > max_len:
        return None
    (head, hlen), w = heads[sizes.index(size)]
    return format(head, f"0{hlen}b") + gamma_encode(len(w) + 1) + w
