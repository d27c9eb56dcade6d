"""The v1 log's fixed-width lines, built by columns, against the former one-% -per-block formatting.

former_run_blocks is _run_blocks as it was before rows 0, 1 and REVERSE
were built by columns: every run's lines are one % of its line template
over payloads spelled once per width.  It is kept here as the oracle for
the bytes and for how many lines each run gets.
"""

import hashlib
import json
from bisect import bisect_right
from itertools import accumulate, chain, count, islice

import pytest

from omegalab import Budget, Machine, _purecore, enumerate_domain
from omegalab.cli import main
from omegalab.enumerator import _BLOCK_CHARS, _COMPARE_BLOCK, _EVENT_LINE, _log_blocks, _run_blocks, write_log
from test_enumerator import REGISTRIES


def former_run_blocks(runs):
    """(lines, block) for the event lines of each run, each block one % of the run's repeated line template."""
    seq = 1
    spelled = {}  # wlen: every wlen-bit payload, as bytes
    for length, prefix, wlen, row in runs:
        if wlen not in spelled:
            spelled[wlen] = _purecore.spell_payloads(wlen, b"01")
        head, payloads, outputs, (first, grow) = _purecore.class_strings(length, prefix, wlen, row, spelled[wlen])
        if grow:
            line = _EVENT_LINE % (head, length, b"%d")
            fields = zip(outputs, payloads, count(seq), count(first))
        else:
            line = _EVENT_LINE % (head, length, b"%d" % first)
            fields = zip(outputs, payloads, count(seq))
        chars = len(line) + (_purecore.class_bits(length, wlen, row) >> wlen)
        block = max(1, min(_COMPARE_BLOCK, _BLOCK_CHARS // chars))
        repeated = line * block
        for rest in range(len(payloads), 0, -block):
            n = min(rest, block)
            yield n, (repeated if n == block else line * n) % tuple(chain.from_iterable(islice(fields, n)))
        seq += len(payloads)


def _per_run(run_blocks, runs, digest=False):
    """(bytes, or their sha256 if digest, and the line count of each run) of run_blocks(runs).

    A block is charged to the run that run_blocks last drew from runs, so a
    block that straddled two runs would show as a wrong count.  Each
    block's line count must be its number of newlines.
    """
    counts = []

    def drawn():
        for run in runs:
            counts.append(0)
            yield run

    sha, parts = hashlib.sha256(), []
    for lines, block in run_blocks(drawn()):
        assert lines == block.count(b"\n") and block.endswith(b"\n")
        counts[-1] += lines
        if digest:
            sha.update(block)
        else:
            parts.append(bytes(block))
    return (sha.hexdigest() if digest else b"".join(parts)), counts


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_column_blocks_are_the_former_bytes(registry):
    """For every L <= 16, with max_rounds L and L - 1, the bytes and each run's line count match the oracle."""
    machine = Machine(REGISTRIES[registry])
    for length in range(1, 17):
        for rounds in sorted({length, max(1, length - 1)}):
            runs = enumerate_domain(machine, Budget(length, rounds)).runs
            got, want = _per_run(_run_blocks, runs), _per_run(former_run_blocks, runs)
            assert got[1] == want[1] == [1 << wlen for _, _, wlen, _ in runs], (length, rounds)
            assert got[0] == want[0], (length, rounds)


def _run_starts(runs):
    """The seq of each run's first event, and one past the last event's."""
    return list(accumulate((1 << wlen for _, _, wlen, _ in runs), initial=1))


def test_column_blocks_cut_at_powers_of_ten():
    """At L = 21 fixed-width runs cross powers of ten in seq, 9,999 to 10,000 among them, and match the oracle."""
    runs = enumerate_domain(Machine(), Budget(21)).runs
    starts = _run_starts(runs)
    crossed = {
        10**k
        for (_, _, _, row), start, end in zip(runs, starts, starts[1:])
        for k in range(1, 8)
        if row != 2 and start < 10**k < end
    }
    assert 10_000 in crossed, crossed
    assert _per_run(_run_blocks, runs, digest=True) == _per_run(former_run_blocks, runs, digest=True)


def _flip(line: bytes, key: str, index: int) -> bytes:
    """line with character index of key's value flipped: a bit 0 <-> 1, a digit d -> d + 1 mod 10."""
    value = json.loads(line)[key]
    at = line.index(f'"{key}": '.encode()) + len(key) + 4 + isinstance(value, str) + index % len(str(value))
    digit = line[at] - ord("0")
    flipped = 1 - digit if isinstance(value, str) else (digit + 1) % 10
    return line[:at] + bytes([ord("0") + flipped]) + line[at + 1 :]


# field: (row, key, index) of one character inside the columns of a fixed-width line
_COLUMN_EDITS = {
    "payload-bit": (0, "program", -3),
    "square-output-second-half": (1, "output", -2),
    "reverse-output-bit": (_purecore.REVERSE, "output", 1),
    "seq-digit": (1, "seq", -1),
}


@pytest.mark.parametrize(
    "registry, field",
    [("none", f) for f in _COLUMN_EDITS if f != "reverse-output-bit"] + [("reverse1-loop2", f) for f in _COLUMN_EDITS],
)
def test_edit_inside_a_column_block_names_its_line(registry, field, tmp_path, capsys):
    """One character flipped mid-block in an L = 14 log: verify exits 1 naming the edited line.

    The line is the middle one of the longest block of the field's row, so
    the edit lies inside columns that the block writes with strided slices.
    """
    row, key, index = _COLUMN_EDITS[field]
    result = enumerate_domain(Machine(REGISTRIES[registry]), Budget(14))
    path = tmp_path / "log14.jsonl"
    write_log(result, path)
    lines = path.read_bytes().splitlines(keepends=True)
    starts = _run_starts(result.runs)
    blocks, first = [], 2  # the line numbers of each block of events; the header is line 1 and seq s is line s + 1
    for size, _ in islice(_log_blocks(result), 1, None):
        blocks.append(range(first, first + size))
        first += size
    ours = [b for b in blocks if result.runs[bisect_right(starts, b[0] - 1) - 1][3] == row]
    block = max(ours, key=len)
    n = block[len(block) // 2]
    assert len(block) >= 3 and block[0] < n < block[-1]
    if field == "square-output-second-half":
        output = json.loads(lines[n - 1])["output"]
        assert index % len(output) >= len(output) // 2
    lines[n - 1] = _flip(lines[n - 1], key, index)
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["verify", "--log", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: line {n}: differs from the replay of the header's machine and budget\n"
