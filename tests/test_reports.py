"""Byte-identical reports: the CLI calls of the benchmark's exhaustive
workloads reproduce the report digests recorded with them."""

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
