"""Byte-identical reports: the CLI calls of the benchmark's exhaustive
workloads reproduce the report digests recorded with them, and so do the
reports no workload runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, report_digest, report_rows  # noqa: E402

from qtcomb.cli import main  # noqa: E402


@pytest.mark.parametrize(
    "name", ["grid-identities", "enumerator-grid", "paths-exhaustive"]
)
def test_workload_reports_match_recorded_digest(capsys, name):
    workload = WORKLOADS[name]
    row_lists = []
    for call in workload.calls:
        assert main(list(call.argv)) == 0
        rows = report_rows(capsys.readouterr().out)
        assert len(rows) == call.rows, call.argv
        row_lists.append(rows)
    assert report_digest(row_lists) == workload.report_sha256


#: (argv, rows, sha256 of the sorted rows), each recorded before a change
#: to the code behind it: the suites becoming row generators for one grid
#: runner, ``delta-ehh`` generating each family once, ``sum_r_lhs``
#: becoming ``delta_pairing`` rows over the Cauchy weight, and the
#: plethystic alphabets becoming ``QtPolynomial``s.
OTHER_REPORTS = [
    (
        ("verify", "delta-ehh", "--max", "4"),
        95,
        "a7139f966e29a5b15813ba902ea3f865ce6ec829fd81653e7c55c068614957ef",
    ),
    (
        ("verify", "delta-ehh", "--max", "5"),
        186,
        "8ca9276307570e7db496c7aac2cc61cf080e2f2fda3aa7ce663c48c59f191c66",
    ),
    (
        ("verify", "examples"),
        4,
        "f09306d047c6e6ca90b9a7d038169072c6d2f5f85d1b16530a34cdbed3a73455",
    ),
    (
        ("verify", "identities", "--name", "reciprocity", "--max", "4"),
        16,
        "1edccc45c81b291253e22ed4aec2d2348c1914410a24597b77aeed9d492bbf74",
    ),
    (
        ("verify", "identities", "--name", "new-id", "--max", "6"),
        49,
        "b171680e8f94688c93b8ef4036b49b1783ee2764af1e9dec06f37aaa3773ef2c",
    ),
    (
        ("verify", "identities", "--name", "deltahh-ehh", "--max", "6"),
        49,
        "98c66af87006bf32006d69d24c2aea7a3e654b602df5d7eeaebb0bd627034c90",
    ),
    (
        ("verify", "identities", "--name", "delta-hh-sum", "--max", "6"),
        49,
        "1cb910a9438ad2d86d1568d4bebbd641b6a99753ad5d06ce7d16b10de7a1c5a6",
    ),
    (
        ("verify", "identities", "--name", "ehh-sum", "--max", "6"),
        49,
        "5d923a7398a188a6c9daf91756aad40964c23ff2c7696239ab70987de895eafe",
    ),
]


@pytest.mark.parametrize(
    "argv, count, sha256", OTHER_REPORTS, ids=[" ".join(a) for a, _, _ in OTHER_REPORTS]
)
def test_report_matches_recorded_digest(capsys, argv, count, sha256):
    assert main(list(argv)) == 0
    rows = report_rows(capsys.readouterr().out)
    assert len(rows) == count
    assert report_digest([rows]) == sha256
