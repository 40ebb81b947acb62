"""Byte-identical reports: the CLI calls of the benchmark's exhaustive
workloads reproduce the report digests recorded with them, and so do the
reports no workload runs."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, report_digest, report_rows  # noqa: E402

from qtcomb import bijections  # noqa: E402
from qtcomb.cli import main  # noqa: E402
from qtcomb.families import FamilySpec, generate  # noqa: E402


#: Workload digests recorded after the workload's own: the identity rows
#: print the degree bound derived for each instance, so their ``bound=``
#: text moved while every status stayed the same.  The benchmark's own
#: digest is re-recorded in a benchmark change of its own.
RERECORDED = {
    "grid-identities": "a103e19eb305a3b9041fed37924e4c1c0b350fcef89ec5c90100b3d082ae62aa",
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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


#: (argv, sha256 of the whole stdout) of the JSON reports, recorded before
#: both ``verify`` formats were written from one field list.
JSON_REPORTS = [
    (
        ("verify", "examples", "--format", "json"),
        "e28a7c65d2c06684afe7a90c523cfbbb074a7edbf317026175435c88b3c3098a",
    ),
    (
        ("verify", "all", "--max", "2", "--format", "json"),
        "a3cf3b4fbae9d90a65399a876691e508821a21f7e565707dac5cf5becc60fce0",
    ),
]


@pytest.mark.parametrize(
    "argv, sha256", JSON_REPORTS, ids=[" ".join(a) for a, _ in JSON_REPORTS]
)
def test_json_report_matches_recorded_digest(capsys, argv, sha256):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out) == sha256


def _ends(family, **sizes):
    """The first and the last member of a small family."""
    members = list(generate(FamilySpec(family, **sizes)))
    return [members[0], members[-1]]


def _biject_inputs(name):
    """Valid inputs of ``biject --map name``, drawn from ``generate``, and
    the size flags the map reads."""
    catalan = _ends("catalan-pld", m=2, n=2)
    words = [bijections.eta_inverse(path) for path in catalan]
    pf2 = _ends("pf2", m=2, n=2, k=1, ghost=True)
    knm = _ends("shuffle-knm", m=2, n=3, k=1)
    return {
        "eta": (words, ()),
        "eta-inv": (catalan, ()),
        "psi": (words, ()),
        "psi-inv": (pf2, ()),
        "phi": (_ends("pf2", m=2, n=2, k=0, ghost=True), ()),
        "ehh": (knm, ("--k", "1", "--n", "3", "--m", "2")),
        "ehh-inv": (pf2, ("--k", "1", "--n", "2", "--m", "2")),
        "pld-step": (catalan, ()),
        "shuffle-step": (knm, ("--k", "1", "--n", "3", "--m", "2")),
    }[name]


#: sha256 of the ``biject`` reports of each map on its ``_biject_inputs``,
#: written one after the other, recorded before ``cli`` called each map
#: as the library defines it.
BIJECT_REPORTS = {
    "eta": "eb61abe80488b5d575404f3c47b672932a8d8121c906bb721a58c0fee3baf217",
    "eta-inv": "85c97524719464d7ba96d2783f99fae0b1bd22a5866ae943898af3949bcea6e6",
    "psi": "04b9ab796be63c41659b036099c5b3941b8c1a5213fbaab0887d39db5b463839",
    "psi-inv": "cacf0089ad142bdf786e2abf505b52b62ed434357734cb6275824ea6e0453d6e",
    "phi": "7c477ee213320d4f7ae15043fa2a7ba4dda02b1065b4fde6c744bf22e640939b",
    "ehh": "877f5cd4f7f4ab1c4ee78f8146dbb79d44fb1e8dfbe2679f2bb0680ed1fe2150",
    "ehh-inv": "ae74c2930931349d84a5d8d515ef7de44898e0e63fa5821e6cbad9d6370f2d5b",
    "pld-step": "fbeceb6916e1c73137810a6edbbac5822c237bd86d247b4cca926e24876dc507",
    "shuffle-step": "f9e2d75c0cee01fbeb41f4172679ee9039f342ddb068c4490a171e7385c07987",
}


@pytest.mark.parametrize("name", sorted(BIJECT_REPORTS))
def test_biject_reports_match_recorded_digest(tmp_path, capsys, name):
    inputs, flags = _biject_inputs(name)
    reports = []
    for i, obj in enumerate(inputs):
        infile = tmp_path / f"in{i}.json"
        infile.write_text(json.dumps(obj.to_json()))
        assert main(["biject", "--map", name, "--in", str(infile), *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reports.append(captured.out)
    assert _sha256("".join(reports)) == BIJECT_REPORTS[name]
