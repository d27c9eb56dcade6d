import json

import pytest

from omegalab.cli import main


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
    d = json.loads(out.read_text())
    assert d["T"] == "1/2"
    assert d["machine"] == json.loads(capsys.readouterr().out)["machine"]


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


def test_missing_log_exits_1(capsys, tmp_path):
    assert main(["measure", "--quantity", "omega", "--log", str(tmp_path / "no.jsonl")]) == 1



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


def _rewrite(log, path, edit):
    """Copy log to path with edit(header, event_lines) applied."""
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    events = edit(header, lines[1:])
    path.write_text("\n".join([json.dumps(header, sort_keys=True), *events]) + "\n")
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_last_event, "halt events"),
        (_edit_identity, "identity"),
        (_rounds_as_string, "budget"),
        (_zero_length, "budget"),
    ],
    ids=["last-event-dropped", "identity-edited", "rounds-not-int", "max-len-zero"],
)
def test_inconsistent_log_exits_1(log14, tmp_path, capsys, edit, message):
    bad = _rewrite(log14, tmp_path / "bad.jsonl", edit)
    capsys.readouterr()
    assert main(["measure", "--quantity", "omega", "--log", str(bad)]) == 1
    prefix = f"error: {bad}: "
    err = capsys.readouterr().err
    assert err.startswith(prefix) and message in err[len(prefix) :]
