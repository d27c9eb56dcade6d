import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from omegalab import Budget, Machine, cli, enumerate_domain, fixedpoint
from omegalab.cli import main
from omegalab.enumerator import load_log, write_log
from omegalab.machine import LoopForeverDecoder, ReversePayloadDecoder, identity_digest


@pytest.fixture(scope="module")
def log14(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "log14.jsonl"
    assert main(["enumerate", "--max-len", "14", "--out", str(path)]) == 0
    return path


def test_enumerate_summary(log14, capsys):
    capsys.readouterr()  # drop any fixture output
    assert main(["enumerate", "--max-len", "4", "--out", str(log14.parent / "l4.jsonl")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["exhaustive"] is True
    assert summary["events"] == 3  # "01", "101" (square of empty), "1101" (0^0)
    assert "machine" in summary and "budget" in summary


def test_measure_omega(log14, capsys):
    capsys.readouterr()
    assert main(["measure", "--quantity", "omega", "--log", str(log14)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["lo"] == d["hi"] == "0.765625"
    assert d["exact"] is True


def test_measure_requires_temperature(log14, capsys):
    capsys.readouterr()
    assert main(["measure", "--quantity", "z", "--log", str(log14)]) == 1
    assert "error:" in capsys.readouterr().err


def test_measure_writes_artifact(log14, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "cst.json"
    code = main(
        ["measure", "--quantity", "cst", "--T", "1/2", "--log", str(log14), "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    d = json.loads(out.read_text())
    assert d["T"] == "1/2"
    assert d["machine"] == load_log(log14).machine_digest


def test_census_csv(log14, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "census.csv"
    members = tmp_path / "members.jsonl"
    code = main(
        ["census", "--log", str(log14), "--out", str(out), "--members", str(members)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,count,two_pow_n,gap,h_upper_n"
    assert len(lines) == 128
    dumped = members.read_text().splitlines()
    assert "machine" in json.loads(dumped[0])
    assert len(dumped) == 1 + 115


@pytest.mark.parametrize("T", ["1", "2"])
def test_census_members_are_the_stream_up_to_n_max(log14, tmp_path, T):
    """--members dumps the stream's members of at most n_max bits, by length and then by bits."""
    members = load_log(log14).compressible_stream(Fraction(T)).members
    dump = tmp_path / "members.jsonl"
    for n_max in (12, 40):
        args = ["census", "--T", T, "--n-max", str(n_max), "--log", str(log14), "--members", str(dump)]
        assert main([*args, "--out", str(tmp_path / "census.csv")]) == 0
        header, *lines = dump.read_text().splitlines()
        assert json.loads(header)["T"] == f"{T}/1"
        want = sorted((len(s), s) for s in members if len(s) <= n_max)
        assert [json.loads(line) for line in lines] == [{"n": n, "s": s} for n, s in want]


def test_extract(log14, capsys):
    capsys.readouterr()
    assert main(["extract", "--n", "12", "--log", str(log14)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["string"] == "0" * 11 + "1"
    assert d["verified"] is True
    assert d["advisory"] is False


def test_fixedpoint(log14, capsys):
    capsys.readouterr()
    code = main(
        [
            "fixedpoint",
            "--T", "1/2",
            "--t", "3/4",
            "--n-max", "4",
            "--grid", "4",
            "--log", str(log14),
        ]
    )
    assert code == 0
    d = json.loads(capsys.readouterr().out)
    assert d["constants"] == {"c_upper": 0, "c_lower": 21, "n0": 3, "n1": 1, "n2": 3}
    assert d["upper_gap_all_k_and_grid"] and d["lower_gap_all_k"]
    assert d["floor_identities_all_n"] and d["roundtrip_all_ok"]


def test_fixedpoint_reports_failed_roundtrips(enum18, tmp_path, capsys):
    # at L = 18 the frame search for (2/3, 4/5) finds no certified pair from n = 50 on
    log = tmp_path / "log18.jsonl"
    write_log(enum18, log)
    runs = {}
    for n_max in ("49", "60"):
        capsys.readouterr()
        assert main(["fixedpoint", "--T", "2/3", "--t", "4/5", "--n-max", n_max, "--log", str(log)]) == 0
        runs[n_max] = json.loads(capsys.readouterr().out)
    trips = runs["60"]["roundtrips"]
    c = runs["60"]["constants"]["c_lower"]
    assert trips[:49] == runs["49"]["roundtrips"] and runs["49"]["roundtrip_all_ok"]
    assert trips[49:] == [{"n": n, "ok": False, "selector_bits": c + 2} for n in range(50, 61)]
    assert runs["60"]["roundtrip_all_ok"] is False


def test_fixedpoint_checks_64_floor_identities_from_n2(log14, capsys, monkeypatch):
    # t = T + 2**-71 puts n2 at 72, past 64
    checked = []
    check = fixedpoint.check_floor_identities

    def record(consts, n):
        checked.append(n)
        return check(consts, n)

    monkeypatch.setattr(fixedpoint, "check_floor_identities", record)
    t = Fraction(1, 2) + Fraction(1, 1 << 71)
    capsys.readouterr()
    assert main(["fixedpoint", "--T", "1/2", "--t", str(t), "--n-max", "4", "--log", str(log14)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["constants"]["n2"] == 72
    assert checked == list(range(72, 136))
    assert d["floor_identities_all_n"]


def test_fixedpoint_derives_the_constants_once(log14, capsys, monkeypatch):
    """One derive_constants, and in it the one weighted walk, W(t)."""
    calls = {"derive_constants": 0, "weighted walks": 0}
    original = fixedpoint.derive_constants

    def counted(*args, **kwargs):
        calls["derive_constants"] += 1
        return original(*args, **kwargs)

    class Counted(fixedpoint.Walk):
        def __init__(self, *args, weighted=False, **kwargs):
            calls["weighted walks"] += weighted
            super().__init__(*args, weighted=weighted, **kwargs)

    monkeypatch.setattr(fixedpoint, "derive_constants", counted)
    monkeypatch.setattr(fixedpoint, "Walk", Counted)
    capsys.readouterr()
    assert main(["fixedpoint", "--T", "1/2", "--t", "3/4", "--n-max", "4", "--log", str(log14)]) == 0
    assert json.loads(capsys.readouterr().out)["roundtrip_all_ok"]
    assert calls == {"derive_constants": 1, "weighted walks": 1}


def test_main_builds_the_parser_once(log14, capsys, monkeypatch):
    """The parser is built at the first call of main, not at import, and every later call parses with it."""
    code = "from omegalab import cli; print(cli.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env).stdout == "0\n"
    cli.build_parser.cache_clear()
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_subparsers", lambda self, **kw: built.append(self) or add_subparsers(self, **kw)
    )
    capsys.readouterr()
    for quantity in ("omega", "cs"):
        assert main(["measure", "--quantity", quantity, "--log", str(log14)]) == 0
    assert len(built) == 1


def test_import_leaves_out_dataclasses_and_inspect():
    """A fresh import of the CLI, which loads every layer, imports neither, nor what inspect would bring in."""
    code = "import omegalab.cli, sys; print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env).stdout == "[]\n"


def test_empty_error_message_names_the_exception(monkeypatch, capsys):
    def fail(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_measure", fail)
    capsys.readouterr()
    assert main(["measure", "--quantity", "omega", "--log", "x"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--quantity", "bogus", "--log", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--max-len", "0", "--out", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--quantity", "z", "--T", "-1", "--log", "x"])
    assert exc.value.code == 2


def test_verify_good_log(log14, capsys):
    capsys.readouterr()
    assert main(["verify", "--log", str(log14)]) == 0
    out = capsys.readouterr().out
    assert out == f"ok: {log14}: replays byte for byte (381 events, max_len 14, max_rounds 32)\n"


@pytest.mark.parametrize("line", [2, 300, 382])
def test_verify_edited_log_exits_1(log14, tmp_path, capsys, line):
    lines = log14.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(b'"steps": ', b'"steps": 1')
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["verify", "--log", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line {line}: differs from the replay of the header's machine and budget\n"


def test_verify_dev_zero_exits_1_at_line_1(capsys):
    """/dev/zero has size 0 and no newline: its header is read as no bytes, not forever."""
    assert main(["verify", "--log", "/dev/zero"]) == 1
    assert "error: /dev/zero: line 1: " in capsys.readouterr().err


@pytest.mark.parametrize("registry", ["none", "reverse1-loop2"])
def test_every_artifact_carries_the_provenance(registry, tmp_path, capsys):
    """Log header, enumerate summary, measure, census members, extract and fixedpoint."""
    subs = {1: ReversePayloadDecoder(), 2: LoopForeverDecoder()} if registry != "none" else {}
    result = enumerate_domain(Machine(subs), Budget(14))
    want = result.provenance()
    assert set(want) == {"machine", "budget"}
    log = tmp_path / "log.jsonl"
    carried = []
    if subs:
        write_log(result, log)
    else:
        assert main(["enumerate", "--max-len", "14", "--out", str(log)]) == 0
        carried.append(json.loads(capsys.readouterr().out))
    first = json.JSONDecoder().raw_decode  # the first value: a JSON file, or a JSONL header
    carried.append(first(log.read_text())[0])
    out, members = tmp_path / "out.json", tmp_path / "members.jsonl"
    runs = [
        (["measure", "--quantity", "cst", "--T", "1/2", "--out", str(out)], out),
        (["census", "--T", "2/3", "--out", str(tmp_path / "c.csv"), "--members", str(members)], members),
        (["extract", "--n", "8", "--out", str(out)], out),
        (["fixedpoint", "--T", "1/2", "--t", "3/4", "--n-max", "2", "--grid", "2", "--out", str(out)], out),
    ]
    for argv, path in runs:
        assert main(argv + ["--log", str(log)]) == 0, argv
        carried.append(first(path.read_text())[0])
    capsys.readouterr()
    assert len(carried) == (6 if not subs else 5)
    for artifact in carried:
        assert {key: artifact[key] for key in want} == want


def test_missing_log_exits_1(capsys, tmp_path):
    assert main(["measure", "--quantity", "omega", "--log", str(tmp_path / "no.jsonl")]) == 1


def test_unwritable_header_leaves_no_log(tmp_path, capsys):
    # out_of_budget counts about 2**15001 programs: more decimal digits than str(int) allows
    out = tmp_path / "huge.jsonl"
    capsys.readouterr()
    assert main(["enumerate", "--max-len", "15000", "--max-rounds", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "limit (4300 digits)" in err
    assert not out.exists()


def test_enumeration_past_memory_exits_1_and_leaves_no_log(tmp_path, capsys):
    # the events of length 32 alone hold 2.2e12 program and output bits, a byte each
    out = tmp_path / "l40.jsonl"
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["enumerate", "--max-len", "40", "--out", str(out)]) == 1
    assert time.perf_counter() - start < 10
    assert "bytes of memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["census", "--n-max", "1000"], ["extract", "--n", "200000"]])
def test_size_past_memory_exits_1_and_writes_nothing(log14, tmp_path, capsys, monkeypatch, command):
    """A census or an extracted string past memory is refused before it is built, and no file is written.

    With memory set to 10**5 bytes, the L = 14 log (14,472 program and
    output bits) still replays, but the census's two_pow_n column up to
    n = 1000 spells at least 150,150 digits, and extract would spell a
    200,000-bit string.
    """
    monkeypatch.setattr("omegalab.enumerator._MEMORY", 10**5)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*command, "--log", str(log14), "--out", str(out)]) == 1
    assert "bytes of memory" in capsys.readouterr().err
    assert not out.exists()



def _drop_last_event(header, events):
    return events[:-1]


def _edit_identity(header, events):
    header["identity"] += "x"
    return events


def _rounds_as_string(header, events):
    header["budget"]["max_rounds"] = str(header["budget"]["max_rounds"])
    return events


def _zero_length(header, events):
    header["budget"]["max_len"] = 0
    return events


def _edit_event(index, change):
    """An edit that applies change(event dict) to event line `index` (0 is line 2)."""

    def edit(header, events):
        event = json.loads(events[index])
        change(event)
        events[index] = json.dumps(event, sort_keys=True)
        return events

    return edit


def _not_an_object(header, events):
    events[5] = "[1, 2]"
    return events


def _swap_events(header, events):
    """Events 6 and 7 change places, each keeping its own line's seq."""
    a, b = json.loads(events[5]), json.loads(events[6])
    a["seq"], b["seq"] = b["seq"], a["seq"]
    events[5:7] = [json.dumps(b, sort_keys=True), json.dumps(a, sort_keys=True)]
    return events


def _not_json(header, events):
    events[5] = events[5][:-1]
    return events


def _shrink_rounds(header, events):
    """max_rounds below the longest program, so its events lie past the budget."""
    header["budget"]["max_rounds"] = header["budget"]["max_len"] - 1
    return events


def _edit_counts(change):
    def edit(header, events):
        change(header["counts"])
        return events

    return edit


def _edit_identity_and_digest(change):
    """An identity edit that re-records the digest, so only rebuilding the machine can tell."""

    def edit(header, events):
        header["identity"] = change(header["identity"])
        header["machine"] = identity_digest(header["identity"])
        return events

    return edit


def _claim_max_len_60(header, events):
    """max_len 60, with out_of_budget raised so the counts still sum to 2**61 - 2."""
    header["counts"]["out_of_budget"] += (2 << 60) - (2 << header["budget"]["max_len"])
    header["budget"]["max_len"] = 60
    return events


def _claim_huge_max_len(header, events):
    """max_len 10**7 under 5 rounds: few events, but counts no file this size can hold."""
    header["budget"].update(max_len=10**7, max_rounds=5)
    return events


def _flip_first_bit(s):
    return "10"[int(s[0])] + s[1:]


def _text(header, events):
    return "\n".join([json.dumps(header, sort_keys=True), *events]) + "\n"


def _truncate(header, events):
    """The whole file cut at 2/3 of its bytes, mid-line."""
    text = _text(header, events)
    return text[: len(text) * 2 // 3]


def _header_text(text):
    """An edit that replaces the header line with text."""
    return lambda header, events: "\n".join([text, *events]) + "\n"


def _drop_header_key(key):
    def edit(header, events):
        del header[key]
        return events

    return edit


def _rewrite(log, path, edit):
    """Copy log to path with edit(header, event_lines) applied.

    An edit returns the event lines, or the whole text of the file.
    """
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    events = edit(header, lines[1:])
    path.write_text(events if isinstance(events, str) else _text(header, events))
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_last_event, "line 382: differs from the replay"),
        (_edit_identity, "line 1: no machine has identity"),
        (_rounds_as_string, "line 1: differs from the replay"),
        (_zero_length, "line 1: max_len must be >= 1"),
        (_edit_event(5, lambda d: d.pop("steps")), "line 7: differs from the replay"),
        (_edit_event(5, lambda d: d.update(program=int(d["program"], 2))), "line 7: differs from the replay"),
        (_edit_event(5, lambda d: d.update(steps=True)), "line 7: differs from the replay"),
        (_edit_event(5, lambda d: d.update(extra=0)), "line 7: differs from the replay"),
        (_not_an_object, "line 7: differs from the replay"),
        (_edit_event(5, lambda d: d.update(seq=9)), "line 7: differs from the replay"),
        (_swap_events, "line 7: differs from the replay"),
        (_edit_event(-1, lambda d: d.update(round=d["round"] + 1)), "line 382: differs from the replay"),
        (_not_json, "line 7: differs from the replay"),
        (_edit_event(5, lambda d: d.update(steps=0)), "line 7: differs from the replay"),
        (_edit_event(5, lambda d: d.update(steps=(1 << 32) + 1)), "line 7: differs from the replay"),
        (_edit_event(5, lambda d: d.update(program=d["program"] + "0" * 14)), "line 7: differs from the replay"),
        (_edit_event(-1, lambda d: d.update(program=d["program"][:-1] + "2")), "line 382: differs from the replay"),
        (_edit_event(5, lambda d: d.update(output=d["output"] + "x")), "line 7: differs from the replay"),
        (_shrink_rounds, "line 1: differs from the replay"),
        (_edit_counts(lambda c: c.update(bogus=0)), "line 1: differs from the replay"),
        (_edit_counts(lambda c: c.update(out_of_budget="0")), "line 1: differs from the replay"),
        (_edit_counts(lambda c: c.update(halted_early=c["halted_early"] + 1)), "line 1: differs from the replay"),
        (
            _edit_event(5, lambda d: d.update(output=_flip_first_bit(d["output"]))),
            "line 7: differs from the replay",
        ),
        (_edit_event(5, lambda d: d.update(steps=d["steps"] + 1)), "line 7: differs from the replay"),
        (_claim_max_len_60, "line 1: the events of length <= "),
        (_claim_huge_max_len, "line 1: the counts for max_len 10000000 take more than"),
        (_truncate, "line 302: differs from the replay"),
        (
            _edit_identity_and_digest(lambda s: s.replace("registry[]", "registry[1=bogus]")),
            "line 1: no machine has identity",
        ),
        (
            _edit_identity_and_digest(lambda s: s.replace("v1:", "v2:")),
            "line 1: no machine has identity",
        ),
        (_header_text(""), "line 1: Expecting value"),
        (_header_text("{"), "line 1: Expecting property name"),
        (_header_text("[1, 2]"), "line 1: TypeError("),
        (_drop_header_key("budget"), "line 1: KeyError('budget')"),
        (_drop_header_key("identity"), "line 1: KeyError('identity')"),
        (lambda header, events: "", "line 1: Expecting value"),
    ],
    ids=[
        "last-event-dropped",
        "identity-edited",
        "rounds-not-int",
        "max-len-zero",
        "event-field-missing",
        "program-not-str",
        "steps-bool",
        "event-field-extra",
        "event-not-object",
        "seq-skips",
        "events-swapped",
        "round-off",
        "event-not-json",
        "steps-zero",
        "steps-past-cap",
        "program-too-long",
        "program-not-binary",
        "output-not-binary",
        "round-past-max-rounds",
        "counts-extra-key",
        "counts-not-int",
        "counts-sum-off",
        "output-bit-flipped",
        "steps-within-round",
        "max-len-60",
        "max-len-huge",
        "truncated",
        "identity-unknown-decoder",
        "identity-v1-edited",
        "header-empty-line",
        "header-not-json",
        "header-not-object",
        "header-no-budget",
        "header-no-identity",
        "file-empty",
    ],
)
def test_inconsistent_log_exits_1(log14, tmp_path, capsys, edit, message):
    bad = _rewrite(log14, tmp_path / "bad.jsonl", edit)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["measure", "--quantity", "omega", "--log", str(bad)]) == 1
    assert time.perf_counter() - start < 2
    prefix = f"error: {bad}: "
    err = capsys.readouterr().err
    assert err.startswith(prefix) and message in err[len(prefix) :]
