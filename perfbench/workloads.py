"""The three benchmark workloads and the checks on what they produce.

Each workload is a closed loop run by one process: a set-up, then passes of
operations, one after another.  An operation is one CLI command (through
``omegalab.cli.main``) or one public library call.  Its output is checked
after its timer stops, so checking never counts as work.  The seed picks
the inputs from fixed families on which the cost barely depends, so cost
is comparable between seeds as well as between commits on one seed.

Why these three (see also README.md):

- ``session``: the CLI lab session on the default machine.  Decoding and
  routing do about 80% of a pass, so it moves with the kernel and the
  enumerator.
- ``registry``: the library path on a machine with two registered
  submachines, so routing does real sub-decoding, the out-of-budget path
  is live and the result is not exhaustive.
- ``analysis``: many queries against one log written during set-up, so
  enumeration does none of the timed work and the sums, sweeps and caches
  do most of it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 0

# Temperatures T <= 1 for the measures, census and extract commands.
TEMPERATURES = tuple(Fraction(s) for s in ("1/2", "2/3", "3/4", "3/5", "4/5", "5/6"))

# (T, t) pairs for fixedpoint, the same on every seed.  One fixedpoint run
# costs up to twice as much, and peaks up to 15% higher in memory, on one
# pair as on another, so seeded pairs would make seeds incomparable.  Every
# check passes on both at the analysis length.
FIXEDPOINT_PAIRS = tuple((Fraction(a), Fraction(b)) for a, b in (("1/3", "2/3"), ("1/2", "3/4")))

# Registry slots: the reversing decoder in a slot with a 3-bit gamma code,
# the looping one in a slot with a 5-bit code.  Every choice routes the
# same number of programs to each decoder.
REVERSE_SLOTS = (2, 3)
LOOP_SLOTS = (4, 5, 6, 7)

ORACLE_SAMPLE = 64


class CheckFailed(Exception):
    """An operation's output is wrong."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


class Op:
    """One timed call: `run` produces an output, `check` judges it untimed."""

    def __init__(self, stage: str, name: str, run, check):
        self.stage = stage
        self.name = name
        self.run = run
        self.check = check


class Context:
    """Inputs, scratch directory and the results checks compare against."""

    def __init__(self, workload: str, seed: int, max_len: int, workdir: str, pins: dict):
        self.workload = workload
        self.seed = seed
        self.max_len = max_len
        self.workdir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.pins = pins if seed == DEFAULT_SEED else {}
        self.first_digests: dict[str, str] = {}
        self.values: dict[str, object] = {}
        self.inputs: dict[str, object] = {}
        self.tracer = None  # set while a traced pass runs
        self.tamper = None  # self-test hook: called with the log path after it is written

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def pin(self, name: str, data: bytes) -> None:
        """Fail unless `data` matches its pinned digest and every earlier pass."""
        digest = sha256(data)
        first = self.first_digests.setdefault(name, digest)
        if digest != first:
            raise CheckFailed(f"{name}: output differs from the first pass")
        pinned = self.pins.get(name)
        if pinned is not None and digest != pinned:
            raise CheckFailed(f"{name}: digest {digest[:12]} != pinned {pinned[:12]}")


# -- shared checks ------------------------------------------------------


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def _gamma(bits: str):
    zeros = len(bits) - len(bits.lstrip("0"))
    end = 2 * zeros + 1
    if zeros == len(bits) or end > len(bits):
        return None
    return int(bits[zeros:end], 2), end


def check_events(ctx: Context, events, reverse_slot=None) -> None:
    """Re-decode a seeded sample of halt events with the independent oracle.

    `events` is a list of (seq, round, program, output, steps).  Programs in
    the submachine branch are checked against the reversing decoder's
    definition when they route to `reverse_slot`; no other slot halts.
    """
    import reference

    if [ev[0] for ev in events] != list(range(1, len(events) + 1)):
        raise CheckFailed("event seq numbers are not 1..N")
    keys = [(ev[1], len(ev[2]), ev[2]) for ev in events]
    if keys != sorted(keys):
        raise CheckFailed("events are not in canonical order")
    sample = events if len(events) <= ORACLE_SAMPLE else ctx.rng.sample(events, ORACLE_SAMPLE)
    for seq, rnd, program, output, steps in sample:
        status, expected = reference.ref_decode(program)
        if status == "submachine":
            status, expected = "no_such_submachine", None
            slot = _gamma(program[3:])
            if reverse_slot is not None and slot and slot[0] == reverse_slot:
                body = program[3 + slot[1] :]
                head = _gamma(body)
                if head is not None and head[1] + head[0] - 1 == len(body):
                    status, expected = "halt", body[head[1] :][::-1]
        if status != "halt" or expected != output:
            raise CheckFailed(f"event {seq}: oracle says {status} for {program}")
        if steps != reference.ref_steps(program, output):
            raise CheckFailed(f"event {seq}: steps {steps} disagree with the oracle")
        if rnd != max(len(program), _ceil_log2(steps)):
            raise CheckFailed(f"event {seq}: round {rnd} is not the first halting round")


def check_log(ctx: Context, data: bytes, reverse_slot=None) -> None:
    lines = data.decode().splitlines()
    header = json.loads(lines[0])
    events = []
    for line in lines[1:]:
        d = json.loads(line)
        events.append((d["seq"], d["round"], d["program"], d["output"], d["steps"]))
    if header["counts"]["halt"] != len(events):
        raise CheckFailed("log header's halt count differs from its event count")
    if header["budget"]["max_len"] != ctx.max_len:
        raise CheckFailed("log budget differs from the requested length")
    check_events(ctx, events, reverse_slot)


def _interval(data: bytes) -> tuple[Fraction, Fraction]:
    d = json.loads(data)
    lo, hi = Fraction(d["lo"]), Fraction(d["hi"])
    if not lo <= hi:
        raise CheckFailed(f"{d['quantity']}: empty interval")
    return lo, hi


def check_census(data: bytes) -> None:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if not rows:
        raise CheckFailed("census is empty")
    for row in rows:
        if not int(row["count"]) < int(row["two_pow_n"]):
            raise CheckFailed(f"census row n={row['n']} covers every string of its length")


def check_extract(data: bytes, n: int, T: Fraction) -> None:
    d = json.loads(data)
    if not d["verified"]:
        raise CheckFailed("extracted string is compressible")
    if len(d["string"]) != (T.numerator * n) // T.denominator:
        raise CheckFailed("extracted string has the wrong length")


def check_fixedpoint(data: bytes) -> None:
    d = json.loads(data)
    for key in ("upper_gap_all_k_and_grid", "lower_gap_all_k", "floor_identities_all_n", "roundtrip_all_ok"):
        if d[key] is not True:
            raise CheckFailed(f"fixedpoint {d['T']},{d['t']}: {key} is false")


# -- CLI operations -----------------------------------------------------


class CommandFailed(Exception):
    """A CLI command returned a nonzero exit code."""


def fresh_command_state() -> None:
    """Start each CLI command with the cold caches a new process would have."""
    from omegalab import dyadic

    clear = getattr(dyadic.pow2_enclosure, "cache_clear", None)
    if clear is not None:
        clear()


def cli(ctx: Context, argv: list[str]) -> None:
    from omegalab import cli as cli_mod

    fresh_command_state()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli_mod.main(argv)
    if ctx.tracer is not None:
        ctx.tracer.count_pow2_cache()
    if rc != 0:
        raise CommandFailed(f"omegalab {argv[0]} exited with {rc}: {err.getvalue().strip()}")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _file_op(ctx: Context, stage: str, name: str, argv: list[str], out: str, check):
    """A CLI command whose artifact is the file `out`; the check gets its bytes."""

    def run():
        cli(ctx, argv)
        return _read(out)

    def checked(data: bytes):
        check(data)
        ctx.pin(name, data)

    return Op(stage, name, run, checked)


def _measure_ops(ctx: Context, log: str, T: Fraction, tag: str) -> list[Op]:
    """measure for omega, cs, z, cst and csbt at T, with the paper's inequalities."""
    ops = []
    for quantity in ("omega", "cs", "z", "cst", "csbt"):
        ctx.values.pop(f"{quantity}{tag}", None)  # compare within this pass only
        out = ctx.path(f"measure-{quantity}{tag}.json")
        argv = ["measure", "--quantity", quantity, "--log", log, "--out", out]
        if quantity in ("z", "cst", "csbt"):
            argv += ["--T", _frac(T)]
        key = f"measure.{quantity}{tag}"

        def check(data, quantity=quantity, tag=tag):
            lo, hi = _interval(data)
            ctx.values[f"{quantity}{tag}"] = (lo, hi)
            if quantity == "cs" and not hi < ctx.values[f"omega{tag}"][0]:
                raise CheckFailed("cs is not below omega")
            if quantity == "csbt" and not hi < ctx.values[f"z{tag}"][1]:
                raise CheckFailed("csbt(T) is not below z(T).hi")

        ops.append(_file_op(ctx, "measure", key, argv, out, check))
    return ops


def _query_ops(ctx: Context, log: str, T: Fraction, n: int, tag: str) -> list[Op]:
    """measure x5, census and extract against one log at temperature T."""
    ops = _measure_ops(ctx, log, T, tag)
    out = ctx.path(f"census{tag}.csv")
    ops.append(
        _file_op(
            ctx, "census", f"census{tag}",
            ["census", "--T", _frac(T), "--log", log, "--out", out], out, check_census,
        )
    )
    out = ctx.path(f"extract{tag}.json")
    ops.append(
        _file_op(
            ctx, "extract", f"extract{tag}",
            ["extract", "--n", str(n), "--T", _frac(T), "--log", log, "--out", out], out,
            lambda data: check_extract(data, n, T),
        )
    )
    return ops


def _enumerate_op(ctx: Context, log: str) -> Op:
    def run():
        cli(ctx, ["enumerate", "--max-len", str(ctx.max_len), "--workers", "1", "--out", log])
        if ctx.tamper is not None:
            ctx.tamper(log)
        return _read(log)

    def check(data):
        ctx.pin("log", data)
        check_log(ctx, data)

    return Op("enumerate", "log", run, check)


# -- workloads ----------------------------------------------------------


class Session:
    name = "session"
    max_len = 19

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.T = ctx.rng.choice(TEMPERATURES)
        self.n = ctx.rng.randrange(10, 17)
        ctx.inputs.update(T=_frac(self.T), extract_n=self.n)
        self.log = ctx.path("session.jsonl")

    def setup_ops(self) -> list[Op]:
        return []

    def pass_ops(self) -> list[Op]:
        ctx = self.ctx
        return [_enumerate_op(ctx, self.log)] + _query_ops(
            ctx, self.log, self.T, self.n, ""
        )


class Registry:
    name = "registry"
    max_len = 19

    def __init__(self, ctx: Context):
        from omegalab.machine import LoopForeverDecoder, Machine, ReversePayloadDecoder

        self.ctx = ctx
        self.reverse_slot = ctx.rng.choice(REVERSE_SLOTS)
        self.loop_slot = ctx.rng.choice(LOOP_SLOTS)
        ctx.inputs.update(reverse_slot=self.reverse_slot, loop_slot=self.loop_slot)
        self.machine = Machine(
            {self.reverse_slot: ReversePayloadDecoder(), self.loop_slot: LoopForeverDecoder()}
        )
        self.log = ctx.path("registry.jsonl")

    def setup_ops(self) -> list[Op]:
        return []

    def pass_ops(self) -> list[Op]:
        from omegalab import Budget, enumerate_domain
        from omegalab.enumerator import load_log, write_log
        from omegalab.measures import cs_lower, omega_lower

        ctx, state = self.ctx, {}

        def enumerate_run():
            state["result"] = enumerate_domain(self.machine, Budget(ctx.max_len), workers=1)
            return state["result"]

        def enumerate_check(result):
            if result.is_exhaustive() or result.counts.get("out_of_budget", 0) == 0:
                raise CheckFailed("the looping submachine left nothing undecided")
            events = [(e.seq, e.round, e.program, e.output, e.steps) for e in result.events]
            check_events(ctx, events, self.reverse_slot)

        def write_run():
            write_log(state["result"], self.log)
            if ctx.tamper is not None:
                ctx.tamper(self.log)
            return _read(self.log)

        def write_check(data):
            ctx.pin("log", data)
            result, loaded = state["result"], load_log(self.log)
            if loaded.events != result.events or loaded.counts != result.counts:
                raise CheckFailed("the written log does not load back to the result")

        def omega_check(value):
            state["omega"] = value
            ctx.pin("omega", value.decimal().encode())

        def cs_check(value):
            ctx.pin("cs", value.decimal().encode())
            if not value < state["omega"]:
                raise CheckFailed("cs is not below omega")

        return [
            Op("enumerate", "enumerate", enumerate_run, enumerate_check),
            Op("write_log", "log", write_run, write_check),
            Op("measure", "omega", lambda: omega_lower(state["result"]), omega_check),
            Op("measure", "cs", lambda: cs_lower(state["result"]), cs_check),
        ]


class Analysis:
    name = "analysis"
    max_len = 18

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.pairs = ctx.rng.sample(FIXEDPOINT_PAIRS, len(FIXEDPOINT_PAIRS))
        self.temps = [ctx.rng.choice(TEMPERATURES) for _ in self.pairs]
        self.ns = [ctx.rng.randrange(10, 17) for _ in self.pairs]
        ctx.inputs.update(
            pairs=[[_frac(T), _frac(t)] for T, t in self.pairs],
            T=[_frac(T) for T in self.temps],
            extract_n=self.ns,
        )
        self.log = ctx.path("analysis.jsonl")

    def setup_ops(self) -> list[Op]:
        return [_enumerate_op(self.ctx, self.log)]

    def pass_ops(self) -> list[Op]:
        """For each pair: the queries at a seeded T, then fixedpoint at the pair."""
        ctx, ops = self.ctx, []
        for i, ((T, t), query_T, n) in enumerate(zip(self.pairs, self.temps, self.ns)):
            tag = f".{i}"
            ops += _query_ops(ctx, self.log, query_T, n, tag)
            out = ctx.path(f"fixedpoint{tag}.json")
            argv = ["fixedpoint", "--T", _frac(T), "--t", _frac(t), "--log", self.log, "--out", out]
            ops.append(_file_op(ctx, "fixedpoint", f"fixedpoint{tag}", argv, out, check_fixedpoint))
        return ops


WORKLOADS = {w.name: w for w in (Session, Registry, Analysis)}
