"""Byte-identical reports: the CLI calls of the benchmark's exhaustive
workloads reproduce the report digests recorded with them, and so do the
reports no workload runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, report_digest, report_rows  # noqa: E402

from qtcomb.cli import main  # noqa: E402


#: Workload digests recorded after the workload's own: the identity rows
#: print the degree bound derived for each instance, so their ``bound=``
#: text moved while every status stayed the same.  The benchmark's own
#: digest is re-recorded in a benchmark change of its own.
RERECORDED = {
    "grid-identities": (
        "a103e19eb305a3b9041fed37924e4c1c0b350fcef89ec5c90100b3d082ae62aa"
    ),
}


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
    assert report_digest(row_lists) == RERECORDED.get(name, workload.report_sha256)


#: (argv, rows, sha256 of the sorted rows), each recorded before a change
#: to the code behind it: the suites becoming row generators for one grid
#: runner, ``delta-ehh`` generating each family once, ``sum_r_lhs``
#: becoming ``delta_pairing`` rows over the Cauchy weight, the
#: plethystic alphabets becoming ``QtPolynomial``s, and the Delta
#: enumerators being read off the descent classes by one run rule.  The four identity
#: pairs were re-recorded when their rows began to print the derived
#: degree bound: only the ``bound=`` text moved.
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
        ("verify", "delta-ehh", "--max", "6"),
        325,
        "26f9ec5d8c919c4f14563f7494e5350da21df1ac603d5afc12e932b687aebe0c",
    ),
    (
        ("verify", "delta-tiny", "--max", "6"),
        95,
        "ce3789ab18f8aaf12ca15a2e2a7873c13ea37e6aeb8e90de56ddfd6ee4b87467",
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
        "255b196147657ad08967b2099ca15601daad5585374650feb56342ae41d7da2d",
    ),
    (
        ("verify", "identities", "--name", "deltahh-ehh", "--max", "6"),
        49,
        "6bc6bdf52f226a67af1878240977ecb0ea3f00313c07b995d1c15a4660059331",
    ),
    (
        ("verify", "identities", "--name", "delta-hh-sum", "--max", "6"),
        49,
        "a7336096fbfac6b46ed5695dd509a36bbf0fb5fd4aa83616f15af78401dcf384",
    ),
    (
        ("verify", "identities", "--name", "ehh-sum", "--max", "6"),
        49,
        "a7651763199b57255f15f803b3dd5f7d4097eecc411ecb8e2a386e5c46aeacde",
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
