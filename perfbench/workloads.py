"""The benchmark's workloads.

Three workloads are fixed lists of ``qtcomb`` argv vectors, run in
order through ``qtcomb.cli.main`` inside one fresh interpreter, so the
module-global caches are shared between the calls of one workload as
they are within one ``qtcomb verify`` invocation, and never between
repetitions.  The fourth, ``sampled-roundtrip``, is a seeded loop over the
public bijections (see ``sampler.py`` and ``child.py``).

``rows`` is the report row count of each call, recorded at the commit
that introduced the benchmark; the correctness gate requires it.
``report_sha256`` is the sha256 of the sorted data rows of all calls
(see ``report_digest``), recorded at the same commit.  The gate reports
whether it still matches, so a refactor can show byte-identical reports,
but a mismatch alone does not fail the run.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass


@dataclass(frozen=True)
class CliCall:
    argv: tuple
    rows: int


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple = ()
    report_sha256: str = ""

    @property
    def sampled(self):
        return not self.calls

    @property
    def rows(self):
        return sum(call.rows for call in self.calls)


def _identity(name, size):
    return ("verify", "identities", "--name", name, "--max", str(size))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paths-exhaustive",
            (
                CliCall(("verify", "ndinv", "--max", "7"), 36),
                CliCall(("verify", "ehh", "--max", "6"), 83),
                CliCall(("verify", "recursion-reconcile", "--max", "5"), 1),
            ),
            "855ddc5db3845a64c3bf6d84154c5c01cd97ec9cd67ddcb04b2784c2c4801390",
        ),
        Workload(
            "grid-identities",
            (
                CliCall(_identity("mac-hook", 5), 5),
                CliCall(_identity("new-id", 5), 33),
                CliCall(_identity("delta-hh-sum", 5), 33),
                CliCall(_identity("deltahh-ehh", 5), 33),
                CliCall(_identity("ehh-sum", 5), 33),
                CliCall(_identity("reciprocity", 3), 9),
            ),
            "19c785bdc2c9f6d96a862d58a9e149c71ce31cc7e80550c8f33062efdba1e6c3",
        ),
        Workload(
            "enumerator-grid",
            (
                CliCall(("verify", "delta-tiny", "--max", "5"), 64),
                CliCall(("verify", "engine"), 4),
            ),
            "17c09c1e45e05034848ef81301577ef26cc5b8bf08c3ecacaa118cc5e91b6692",
        ),
        Workload("sampled-roundtrip"),
    )
}


def report_rows(csv_text):
    """Data rows of one ``verify`` CSV report, header dropped."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    return rows[1:]


def report_digest(row_lists):
    """sha256 of the sorted data rows of every call of a workload."""
    lines = sorted(",".join(row) for rows in row_lists for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
