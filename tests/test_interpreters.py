"""The golden artifacts under every other installed CPython the package supports.

pyproject.toml's requires-python names the oldest supported interpreter.
Every other CPython at or above it that can be found, and that runs, writes
the L = 14 log and one golden case of each command in subprocesses with
PYTHONPATH=src; each file's bytes must match tests/golden_digests.json.
It also writes the L = 14 log of a machine with REVERSE in slot 1 and LOOP
in slot 2, whose bytes must match what write_log writes here.
"""

import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from omegalab import Budget, Machine, enumerate_domain
from omegalab.enumerator import write_log
from test_enumerator import REGISTRIES
from test_golden import DIGESTS, cases

ROOT = Path(__file__).resolve().parents[1]
LOG = (["enumerate", "--max-len", "14", "--out", "log14.jsonl"], ["log14.jsonl"])
CASES = ("measure_cst_2_3", "census_2_3", "extract_2_3", "fixedpoint_1_2_3_4")
_VERSION = "import sys; print(sys.implementation.name, '%d.%d.%d' % sys.version_info[:3])"
_MAIN = "import sys; from omegalab.cli import main; sys.exit(main(sys.argv[1:]))"
_WRITE_LOG = (
    "import sys; from omegalab import Budget, Machine, enumerate_domain; from omegalab.enumerator import write_log; "
    "write_log(enumerate_domain(Machine.from_identity(sys.argv[1]), Budget(int(sys.argv[2]))), sys.argv[3])"
)


def _requires_python() -> tuple[int, int]:
    m = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    return int(m[1]), int(m[2])


def _interpreters() -> dict[str, str]:
    """Version -> path of each CPython other than this one, at or above requires-python, that runs.

    Candidates are python3.N on PATH and versions/*/bin/python beside this
    interpreter (a pyenv layout); a candidate that fails to start, such as a
    shim with no version behind it, is dropped.
    """
    major, minor = _requires_python()
    paths = {shutil.which(f"python{major}.{n}") for n in range(minor, 40)}
    paths |= set(glob.glob(str(Path(sys.executable).parents[2] / "*" / "bin" / "python")))
    this = "%d.%d.%d" % sys.version_info[:3]
    found = {}
    for path in sorted(filter(None, paths)):
        try:
            proc = subprocess.run([path, "-c", _VERSION], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode or len(proc.stdout.split()) != 2:
            continue
        name, version = proc.stdout.split()
        if name == "cpython" and tuple(map(int, version.split(".")[:2])) >= (major, minor) and version != this:
            found.setdefault(version, path)
    return found


def test_golden_cases_under_other_interpreters(tmp_path):
    pythons = _interpreters()
    if not pythons:
        pytest.skip("no other CPython at or above requires-python runs here")
    golden = json.loads(DIGESTS.read_text())
    registry = Machine(REGISTRIES["reverse1-loop2"])
    write_log(enumerate_domain(registry, Budget(14)), tmp_path / "reverse14.jsonl")
    golden["reverse14.jsonl"] = hashlib.sha256((tmp_path / "reverse14.jsonl").read_bytes()).hexdigest()
    runs = [
        ("log", _MAIN, *LOG),
        ("reverse14", _WRITE_LOG, [registry.identity(), "14", "reverse14.jsonl"], ["reverse14.jsonl"]),
        *((n, _MAIN, cases()[n][0] + ["--log", "log14.jsonl"], cases()[n][1]) for n in CASES),
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failures = {}
    for version, python in sorted(pythons.items()):
        workdir = tmp_path / version
        workdir.mkdir()
        for name, code, argv, files in runs:
            proc = subprocess.run(
                [python, "-c", code, *argv], cwd=workdir, env=env, capture_output=True, text=True, timeout=600
            )
            got = {f: hashlib.sha256((workdir / f).read_bytes()).hexdigest() for f in files if (workdir / f).exists()}
            if proc.returncode or got != {f: golden[f] for f in files}:
                failures[f"{version} ({python}) {name}"] = proc.stderr.strip()[-400:] or "bytes differ"
    assert not failures, failures
