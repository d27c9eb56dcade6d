import csv
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from omegalab import Budget, Machine, enumerate_domain
from omegalab._purecore import output_kind
from omegalab.bits import nat_to_string
from omegalab.census import CensusRow, census, census_profile, write_profile_csv
from omegalab.enumerator import CompressibleStream
from test_enumerator import REGISTRIES, expand


def _spelled_row(enum, n, T=1):
    """The stream's members of length n, spelled: what a census row counts."""
    return {s for s in enum.compressible_stream(T).members if len(s) == n}


def test_row_basic(enum14):
    row = census(enum14, 12)
    assert row.count == 1
    assert _spelled_row(enum14, 12) == {"0" * 12}
    assert row.gap == pytest.approx(12.0)
    # h_upper of the string identified with 12, i.e. "101"
    assert row.h_upper_n == enum14.complexity_upper("101")


def test_empty_row(enum14):
    row = census(enum14, 5)
    assert row.count == 0
    assert row.gap is None


def test_strict_subset_property(enum14):
    for row in census_profile(enum14):
        assert row.count < (1 << row.n)


def test_profile_counts_frozen(enum14):
    rows = census_profile(enum14)
    assert len(rows) == 127  # longest compressible string is 0^126
    counts = {r.n: r.count for r in rows if r.count}
    assert min(counts) == 12
    assert sum(counts.values()) == 115
    assert all(c == 1 for c in counts.values())  # only the all-zero string per length


def test_thresholded_census(enum14):
    # T = 1/2 keeps only strings with a witness shorter than half their length
    full = sum(r.count for r in census_profile(enum14, Fraction(1, 2)))
    assert 0 < full < 115
    row = census(enum14, 25, Fraction(1, 2))
    assert row.count == 1 and _spelled_row(enum14, 25, Fraction(1, 2)) == {"0" * 25}


@pytest.mark.parametrize("T", [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2)])
def test_census_is_a_row_of_the_profile(T):
    """At L = 14 and 18, over every registry."""
    for L in (14, 18):
        for registry in sorted(REGISTRIES):
            enum = enumerate_domain(Machine(REGISTRIES[registry]), Budget(L))
            longest = max(map(len, enum.compressible_stream(T).members))
            rows = census_profile(enum, T, longest + 3)
            assert rows[: longest + 1] == census_profile(enum, T), (L, registry)
            assert [census(enum, n, T) for n in range(longest + 4)] == rows, (L, registry)


def test_census_builds_only_its_row(enum14, monkeypatch):
    """census asks for the kind of the string identified with n alone, and counts its row from the segments."""
    assert _spelled_row(enum14, 10**5) == set()
    calls = []
    monkeypatch.setattr("omegalab.census.output_kind", lambda marked: calls.append(marked) or output_kind(marked))
    monkeypatch.setattr(CompressibleStream, "members", property(lambda self: pytest.fail("members spelled")))
    row = census(enum14, 10**5)
    assert calls == [10**5 + 1]
    assert row.count == 0


@pytest.mark.parametrize("T", [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2)])
@pytest.mark.parametrize("L", [14, 18])
def test_profile_counts_the_spelled_members(enum_at, L, T):
    members = enum_at(L).compressible_stream(T).members
    by_len = Counter(map(len, set(members)))
    rows = census_profile(enum_at(L), T)
    assert [row.count for row in rows] == [by_len[n] for n in range(max(by_len) + 1)]
    assert sum(row.count for row in rows) == len(members)


def test_census_rejects_negative(enum14):
    with pytest.raises(ValueError):
        census(enum14, -1)


def test_csv_shape(tmp_path, enum14):
    path = tmp_path / "census.csv"
    write_profile_csv(census_profile(enum14, n_max=16), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "count", "two_pow_n", "gap", "h_upper_n"]
    assert len(rows) == 18
    assert rows[13][:3] == ["12", "1", "4096"]
    assert rows[6][3] == ""  # no gap for empty rows


def test_csv_past_int_str_digit_limit(tmp_path):
    # 2**15000 has 4,516 decimal digits, past Python's default int-to-string limit
    path = tmp_path / "census.csv"
    write_profile_csv([CensusRow(15000, 0, None)], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][:2] == ["15000", "0"]
    assert int(Decimal(rows[1][2])) == 1 << 15000


def _csv_oracle(rows, path):
    """The census CSV as csv.writer writes it, with 2**n from Decimal(1 << n)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "count", "two_pow_n", "gap", "h_upper_n"])
        for row in rows:
            gap = "" if row.gap is None else f"{row.gap:.6f}"
            h_upper_n = "" if row.h_upper_n is None else row.h_upper_n
            writer.writerow([row.n, row.count, Decimal(1 << row.n), gap, h_upper_n])


@pytest.mark.parametrize("T", [1, Fraction(2, 3), Fraction(1, 2)])
@pytest.mark.parametrize("L", [14, 18])
def test_csv_is_what_csv_writer_writes(tmp_path, enum_at, L, T):
    rows = census_profile(enum_at(L), T)
    write_profile_csv(rows, tmp_path / "census.csv")
    _csv_oracle(rows, tmp_path / "oracle.csv")
    assert (tmp_path / "census.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_csv_of_any_rows_is_what_csv_writer_writes(tmp_path):
    """Rows that skip, repeat and go back in n, up to n = 5000, with every kind of gap and h_upper_n."""
    ns = [3, 4, 5, 0, 1, 1, 17, 16, 4999, 5000, 2, 5000]
    counts = [0, 1, 5, 0, 1, 2, 3, 0, 7, 1, 0, 2]
    rows = [CensusRow(n, count, h) for n, count, h in zip(ns, counts, [None, 9, 12] * 4)]
    write_profile_csv(rows, tmp_path / "census.csv")
    _csv_oracle(rows, tmp_path / "oracle.csv")
    assert (tmp_path / "census.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_profile_h_upper_is_each_rows_least_program(registry):
    """h_upper_n, asked once per length and kind, is H_up of the string of n itself, past the stream's end too.

    Every L <= 16, with every length scheduled and with the last three not,
    up to the longest member and up to n_max past it, where some strings of
    n have no program within the schedule.
    """
    machine = Machine(REGISTRIES[registry])
    for L in range(1, 17):
        for budget in {Budget(L), Budget(L, max(L - 3, 1))}:
            enum = enumerate_domain(machine, budget)
            longest = max(expand(enum.compressible_stream(1).segments), default=0)
            for n_max in (None, max(longest, 1 << (L // 2 + 2)) + 3):
                rows = census_profile(enum, 1, n_max)
                want = [enum.complexity_upper(nat_to_string(n)) for n in range(len(rows))]
                assert [row.h_upper_n for row in rows] == want, (L, budget, n_max)
                assert None in want or n_max is None
