"""Byte-identity of the CLI artifacts against committed sha256 digests.

Criterion 10 only compares two runs of the same code; these digests pin the
bytes themselves, so any change to a sum, a table or an artifact format
shows up here.  The digests live in golden_digests.json.  After a format
change made on purpose (and recorded in CHANGES.md), print the new ones with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from omegalab import Budget, Machine, enumerate_domain
from omegalab.cli import main
from omegalab.enumerator import write_log
from omegalab.machine import LoopForeverDecoder, ReversePayloadDecoder

DIGESTS = Path(__file__).with_name("golden_digests.json")

QUANTITIES = ("omega", "cs", "z", "cst", "csbt")
TEMPERATURES = ("1/2", "2/3", "4/5", "5/6")
PRECISIONS = ("8", "200")
FIXEDPOINT_PAIRS = (("1/3", "2/3"), ("1/2", "3/4"), ("1/4", "1/2"), ("2/3", "4/5"))


def _tag(text: str) -> str:
    return text.replace("/", "_")


def cases() -> dict[str, tuple[list[str], list[str]]]:
    """name -> (argv without --log, output files it writes, relative to the run dir)."""
    out = {}
    for q in QUANTITIES:
        for T in TEMPERATURES:
            name = f"measure_{q}_{_tag(T)}"
            out[name] = (["measure", "--quantity", q, "--T", T, "--out", f"{name}.json"], [f"{name}.json"])
    for q in ("z", "cst"):
        for T in ("2/3", "4/5", "65/67"):
            for prec in PRECISIONS:
                name = f"measure_{q}_{_tag(T)}_prec{prec}"
                argv = ["measure", "--quantity", q, "--T", T, "--prec", prec, "--out", f"{name}.json"]
                out[name] = (argv, [f"{name}.json"])
    out["measure_cst_3_2"] = (
        ["measure", "--quantity", "cst", "--T", "3/2", "--out", "measure_cst_3_2.json"],
        ["measure_cst_3_2.json"],
    )
    out["census_2_3"] = (
        ["census", "--T", "2/3", "--out", "census_2_3.csv", "--members", "members_2_3.jsonl"],
        ["census_2_3.csv", "members_2_3.jsonl"],
    )
    out["extract_2_3"] = (
        ["extract", "--n", "12", "--T", "2/3", "--out", "extract_2_3.json"],
        ["extract_2_3.json"],
    )
    out["extract_csb_2_3"] = (
        ["extract", "--n", "12", "--T", "2/3", "--mode", "csb", "--out", "extract_csb_2_3.json"],
        ["extract_csb_2_3.json"],
    )
    for T, t in FIXEDPOINT_PAIRS:
        name = f"fixedpoint_{_tag(T)}_{_tag(t)}"
        out[name] = (["fixedpoint", "--T", T, "--t", t, "--out", f"{name}.json"], [f"{name}.json"])
    # T = 1/2 and T = 1/3 take integer exponents l/T: their tables, and the cutoff's, are exact
    for T, t, prec in (("1/2", "3/4", "64"), ("1/2", "3/4", "200"), ("1/3", "2/3", "64")):
        name = f"fixedpoint_{_tag(T)}_{_tag(t)}_prec{prec}"
        argv = ["fixedpoint", "--T", T, "--t", t, "--prec", prec, "--out", f"{name}.json"]
        out[name] = (argv, [f"{name}.json"])
    return out


def cases_l20() -> dict[str, tuple[list[str], list[str]]]:
    """The cases run on the L = 20 log, as cases() gives them.

    Its x = 1 stream has 5,105 members in 2,037 (length, count) pairs, two of
    which hold 1,023 and 2,047 members of one length, and most cutoffs land
    inside those two: at L = 14 every pair holds one member.
    """
    out = {}
    for T, t in (("1/2", "3/4"), ("2/3", "4/5")):
        name = f"fixedpoint_{_tag(T)}_{_tag(t)}_L20"
        out[name] = (["fixedpoint", "--T", T, "--t", t, "--out", f"{name}.json"], [f"{name}.json"])
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _make_log(workdir: Path, max_len: int = 14) -> Path:
    log = workdir / f"log{max_len}.jsonl"
    assert main(["enumerate", "--max-len", str(max_len), "--out", str(log)]) == 0
    return log


def _make_registry_log(workdir: Path) -> Path:
    """The log of a machine with a reverse and a looping submachine registered."""
    log = workdir / "registry14.jsonl"
    machine = Machine({1: ReversePayloadDecoder(), 2: LoopForeverDecoder()})
    write_log(enumerate_domain(machine, Budget(14)), log)
    return log


def _run(workdir: Path, log: Path, name: str) -> dict[str, str]:
    argv, files = {**cases(), **cases_l20()}[name]
    argv = [a if not a.endswith((".json", ".csv", ".jsonl")) else str(workdir / a) for a in argv]
    assert main(argv + ["--log", str(log)]) == 0
    return {f: _digest(workdir / f) for f in files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def log14(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, _make_log(workdir)


@pytest.fixture(scope="module")
def log20(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden20")
    return workdir, _make_log(workdir, 20)


def test_log_digest(golden, log14):
    _, log = log14
    assert _digest(log) == golden["log14.jsonl"]


def test_registry_log_digest(golden, tmp_path):
    assert _digest(_make_registry_log(tmp_path)) == golden["registry14.jsonl"]


@pytest.mark.parametrize("name", sorted(cases()))
def test_artifact_digest(golden, log14, name, capsys):
    workdir, log = log14
    got = _run(workdir, log, name)
    capsys.readouterr()
    assert got == {f: golden[f] for f in got}


@pytest.mark.parametrize("name", sorted(cases_l20()))
def test_artifact_digest_l20(golden, log20, name, capsys):
    workdir, log = log20
    got = _run(workdir, log, name)
    capsys.readouterr()
    assert {"log20.jsonl": _digest(log), **got} == {f: golden[f] for f in ("log20.jsonl", *got)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        workdir = Path(tmp)
        log = _make_log(workdir)
        digests = {"log14.jsonl": _digest(log)}
        digests["registry14.jsonl"] = _digest(_make_registry_log(workdir))
        for name in sorted(cases()):
            digests.update(_run(workdir, log, name))
        log = _make_log(workdir, 20)
        digests["log20.jsonl"] = _digest(log)
        for name in sorted(cases_l20()):
            digests.update(_run(workdir, log, name))
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
