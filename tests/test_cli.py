"""The command-line interface: exit codes, formats, determinism."""

import json

import pytest

from qtcomb.cli import main
from qtcomb.suites import IDENTITY_CLAMPS, IDENTITY_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enum_count(capsys):
    code, out, _ = run(capsys, "enum", "--family", "d", "--n", "3", "--count")
    assert code == 0 and out.strip() == "5"


def test_enum_stream_rp(capsys):
    code, out, _ = run(capsys, "enum", "--family", "rp", "--m", "0", "--n", "0")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"letters": [{"v": 0, "barred": False}], "decorated_rises": []}]


def test_enum_qt_csv(capsys):
    code, out, _ = run(
        capsys, "enum", "--family", "pf2", "--m", "1", "--n", "1", "--k", "0", "--qt"
    )
    assert code == 0
    assert out.splitlines() == ["q_exp,t_exp,coeff", "0,0,1", "0,1,1", "1,0,1"]


def test_enum_bad_spec_exits_2(capsys):
    code, _, err = run(capsys, "enum", "--family", "ld", "--n", "2")
    assert code == 2 and "content" in err


def test_enum_members_validate(capsys):
    code, out, _ = run(
        capsys, "enum", "--family", "pf2", "--m", "1", "--n", "1", "--k", "0"
    )
    assert code == 0 and len(out.splitlines()) == 3


def test_biject_psi(tmp_path, capsys):
    word = {
        "letters": [
            {"v": 0, "barred": False},
            {"v": 0, "barred": True},
            {"v": 1, "barred": False},
        ],
        "decorated_rises": [],
    }
    infile = tmp_path / "word.json"
    infile.write_text(json.dumps(word))
    code, out, _ = run(capsys, "biject", "--map", "psi", "--in", str(infile))
    assert code == 0
    report = json.loads(out)
    assert report["output"]["labels"] == [2, 1, 2]
    assert report["stats_before"]["dinv"] == report["stats_after"]["dinv"]


def test_biject_out_of_domain_exits_2(tmp_path, capsys):
    path = {"area_word": [0, 1], "labels": [1, 2], "decorated_rises": [], "ghost_row": False}
    infile = tmp_path / "path.json"
    infile.write_text(json.dumps(path))
    code, _, err = run(capsys, "biject", "--map", "eta-inv", "--in", str(infile))
    assert code == 2 and "eta_inverse" in err


def test_biject_chain_reaches_two_car(tmp_path, capsys):
    # eta-inv then psi on the single-row path
    path = {"area_word": [0], "labels": [0], "decorated_rises": [], "ghost_row": False}
    infile = tmp_path / "p.json"
    infile.write_text(json.dumps(path))
    code, out, _ = run(capsys, "biject", "--map", "eta-inv", "--in", str(infile))
    assert code == 0
    word = json.loads(out)["output"]
    infile.write_text(json.dumps(word))
    code, out, _ = run(capsys, "biject", "--map", "psi", "--in", str(infile))
    assert code == 0
    assert json.loads(out)["output"]["labels"] == [2]


def test_verify_examples(capsys):
    code, out, _ = run(capsys, "verify", "examples")
    assert code == 0
    assert out.count('"pass"') == 4


def test_verify_ndinv_small(capsys):
    code, out, _ = run(capsys, "verify", "ndinv", "--max", "3")
    assert code == 0 and '"fail"' not in out


def test_verify_identities_named(capsys):
    code, out, _ = run(
        capsys, "verify", "identities", "--name", "mac-hook", "--max", "3"
    )
    assert code == 0 and '"fail"' not in out


def test_verify_reconcile(capsys):
    code, out, _ = run(capsys, "verify", "recursion-reconcile", "--max", "3")
    assert code == 0 and "survivors=1" in out


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "examples", "--format", "json")
    _, out2, _ = run(capsys, "verify", "examples", "--format", "json")
    assert out1 == out2


def test_verify_writes_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", "examples", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("suite,instance,status")


def test_bad_usage_exits_2(capsys):
    # argparse errors take the one-line error path too
    for argv in (
        ("enum",),
        ("verify", "nonsense"),
        ("verify", "identities", "--bogus", "1"),
        ("enum", "--family", "pf2", "--m", "x"),
        (),
        # --r-sem only shifted --r by one and is gone
        ("enum", "--family", "pf2", "--m", "2", "--n", "1", "--r", "1",
         "--r-sem", "ghost", "--count"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "verify", "--help")
    assert code == 0 and out.startswith("usage: ") and err == ""


def test_seedless_rejects_value(capsys):
    # --seedless and --jobs did nothing and are gone: both are rejected
    assert run(capsys, "--seedless=yes", "verify", "examples")[0] == 2
    assert run(capsys, "--seedless", "verify", "examples")[0] == 2
    assert run(capsys, "--jobs", "2", "verify", "examples")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "pf2", "--m", "1", "--n", "1", "--content", "1,1"),
        ("--family", "rp", "--m", "1", "--n", "1", "--r", "3"),
        ("--family", "d", "--n", "2", "--ghost"),
        ("--family", "shuffle-knm", "--m", "1", "--n", "1", "--ghost"),
        ("--family", "d", "--m", "1", "--n", "2"),
        ("--family", "ld", "--m", "1", "--n", "2", "--content", "1,1"),
        ("--family", "catalan-pld", "--m", "1", "--n", "2", "--k", "1"),
    ],
)
def test_enum_rejects_unread_field(capsys, argv):
    code, out, err = run(capsys, "enum", *argv, "--count")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "does not take" in err


@pytest.mark.parametrize("family", ["pf2", "shuffle-knm"])
def test_enum_bucket_below_its_range_exits_2(capsys, family):
    # the bucket r counts the conventional diagonal car, so it starts at 1
    argv = ("--family", family, "--m", "3", "--n", "2", "--k", "1", "--r", "0")
    code, out, err = run(capsys, "enum", *argv, "--count")
    assert code == 2 and out == ""
    assert err == "error: bucket index below its semantic range\n"


@pytest.mark.parametrize("family, m", [("ld", "0"), ("pld", "1")])
def test_enum_decorations_past_n_name_the_family(capsys, family, m):
    argv = ("--family", family, "--m", m, "--n", "3", "--content", "2,1", "--k", "3")
    code, out, err = run(capsys, "enum", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {family} requires n > k >= 0\n"


@pytest.mark.parametrize("content", ["1,x", "1,,1", "2.0"])
def test_enum_bad_content_exits_2(capsys, content):
    code, out, err = run(
        capsys, "enum", "--family", "ld", "--n", "2", "--content", content, "--count"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "biject", "--map", "psi", "--in", "/nonexistent.json")
    assert code == 2
    assert err == "error: /nonexistent.json: cannot read: No such file or directory\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("biject", "--map", "psi", "--in"), "cannot read: Is a directory"),
        (("verify", "ehh", "--max", "1", "--out"), "cannot write: Is a directory"),
    ],
)
def test_a_directory_for_a_file_exits_2(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: {tmp_path}: {message}\n"


def test_empty_verify_run_exits_2(capsys):
    code, out, err = run(capsys, "verify", "identities", "--max", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: no checks ran") and err.count("\n") == 1


def test_empty_verify_run_echoes_the_flags_given(capsys):
    argv = ("verify", "identities", "--name", "mac-hook", "--max", "0")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: no checks ran: verify identities --name mac-hook --max 0\n"


def test_verify_all_at_size_zero_has_no_fail_row(capsys):
    code, out, err = run(capsys, "verify", "all", "--max", "0")
    rows = out.splitlines()[1:]
    assert code == 1 and len(rows) == 10
    assert not [row for row in rows if '"fail"' in row]
    assert [row for row in rows if '"pass"' not in row] == [
        '"recursion-reconcile","max_size=0 survivors=54 printed_offsets=yes",'
        '"inconclusive","54 conventions survive every instance with m+n <= 0"'
    ]
    assert err.startswith("9/10 checks passed, 1 inconclusive")


@pytest.mark.parametrize("suite", ["ndinv", "recursion-reconcile", "identities", "all"])
def test_verify_negative_max_exits_2(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--max", "-1")
    assert code == 2 and out == ""
    assert err == "error: --max must be >= 0, got -1\n"


def test_unknown_identity_name_exits_2(capsys):
    code, _, err = run(capsys, "verify", "identities", "--name", "bogus")
    assert code == 2
    for name in ("mac-hook", "reciprocity", "new-id", "ehh-sum"):
        assert name in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "expected a JSON object"),
        ("{bad", "not valid JSON"),
        ('{"labels": [1]}', "missing field 'area_word'"),
        ('{"letters": [1]}', "malformed object"),
    ],
)
def test_biject_bad_input_file_exits_2(tmp_path, capsys, text, message):
    infile = tmp_path / "bad.json"
    infile.write_text(text)
    code, out, err = run(capsys, "biject", "--map", "psi", "--in", str(infile))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
        ('{"area_word": ' + "9" * 5000 + "}", "integer string conversion"),
    ],
    ids=["nested", "long-int"],
)
def test_biject_json_past_the_parser_limits_exits_2(tmp_path, capsys, text, message):
    infile = tmp_path / "deep.json"
    infile.write_text(text)
    code, out, err = run(capsys, "biject", "--map", "psi", "--in", str(infile))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {infile}: not valid JSON: ")
    assert message in err and err.count("\n") == 1


def test_biject_ghost_candidate_rising_at_row_2_exits_2(tmp_path, capsys):
    path = {"area_word": [0, 1, 0], "labels": [2, 3, 1], "ghost_row": True}
    infile = tmp_path / "f.json"
    infile.write_text(json.dumps(path))
    argv = ("biject", "--map", "ehh-inv", "--m", "1", "--n", "1", "--k", "0")
    code, out, err = run(capsys, *argv, "--in", str(infile))
    assert code == 2 and out == ""
    assert err == "error: ehh_inverse: wrong car counts\n"


@pytest.mark.parametrize(
    "map_name, obj, message",
    [
        (
            "psi-inv",
            {"area_word": [0, 0.5], "labels": [2, 1], "ghost_row": True},
            "area_word must be an integer, got 0.5",
        ),
        (
            "psi",
            {
                "letters": [
                    {"v": 0, "barred": False},
                    {"v": 0.9, "barred": "no"},
                ]
            },
            "v must be an integer, got 0.9",
        ),
    ],
)
def test_biject_non_integer_entry_exits_2(tmp_path, capsys, map_name, obj, message):
    infile = tmp_path / "bad.json"
    infile.write_text(json.dumps(obj))
    code, out, err = run(capsys, "biject", "--map", map_name, "--in", str(infile))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "malformed object" in err and message in err


def test_verify_size_is_not_clamped(capsys):
    code, out, _ = run(capsys, "verify", "recursion-reconcile", "--max", "6")
    assert code == 0 and "max_size=6 " in out


def test_verify_grid_bound_is_no_flag(capsys):
    # every grid check runs on its derived bound; no flag overrides it
    code, out, err = run(capsys, "verify", "identities", "--grid-bound", "0")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --grid-bound 0" in err


@pytest.mark.parametrize(
    "name, size, note",
    [
        ("mac-hook", 6, "note: --max 6 is clamped: mac-hook to 5\n"),
        ("mac-hook", 5, ""),
        ("new-id", 6, ""),
    ],
)
def test_verify_identities_notes_a_size_clamp(capsys, name, size, note):
    code, out, err = run(
        capsys, "verify", "identities", "--name", name, "--max", str(size)
    )
    assert code == 0 and "note" not in out
    assert err.startswith(note) and err.count("note:") == (1 if note else 0)


@pytest.mark.parametrize("suite", ["identities", "all"])
def test_verify_names_every_clamp_on_one_line(capsys, monkeypatch, suite):
    monkeypatch.setitem(IDENTITY_CLAMPS, "mac-hook", 1)
    monkeypatch.setitem(IDENTITY_CLAMPS, "reciprocity", 1)
    code, out, err = run(capsys, "verify", suite, "--max", "2")
    assert code == 0 and "note" not in out
    assert err.splitlines()[0] == (
        "note: --max 2 is clamped: mac-hook to 1, reciprocity to 1"
    )
    assert err.count("note:") == 1
    rows = [row.split(",")[:2] for row in out.splitlines()[1:]]
    assert ['"mac-hook"', '"n=1 bound=0"'] in rows
    assert not any(row[0] == '"mac-hook"' and "n=2" in row[1] for row in rows)
    assert ['"reciprocity"', '"|alpha|=1 |beta|=1"'] in rows
    assert len([row for row in rows if row[0] == '"reciprocity"']) == 1


@pytest.mark.parametrize("suite", ["delta-tiny", "ndinv", "engine"])
@pytest.mark.parametrize("flag, value", [("--name", "new-id")])
def test_verify_flag_of_identities_only_exits_2(capsys, suite, flag, value):
    code, out, err = run(capsys, "verify", suite, "--max", "2", flag, value)
    assert code == 2 and out == ""
    assert err == f"error: verify {suite} does not take {flag}\n"


@pytest.mark.parametrize("suite", ["examples", "engine"])
def test_verify_fixed_suite_refuses_max(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--max", "3")
    assert code == 2 and out == ""
    assert err == f"error: verify {suite} does not take --max\n"


def test_enum_qt_refuses_count(capsys):
    argv = ("enum", "--family", "pf2", "--m", "1", "--n", "1", "--qt", "--count")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: enum --qt does not take --count\n"


@pytest.mark.parametrize(
    "map_name, flags, named",
    [
        ("psi", ("--k", "3", "--m", "9"), "--m"),
        ("psi-inv", ("--n", "2"), "--n"),
        ("eta", ("--k", "1"), "--k"),
        ("eta-inv", ("--m", "0"), "--m"),
        ("phi", ("--n", "1"), "--n"),
        ("pld-step", ("--k", "0"), "--k"),
    ],
)
def test_biject_map_refuses_size_flags(tmp_path, capsys, map_name, flags, named):
    # only ehh, ehh-inv and shuffle-step read --m, --n and --k
    infile = tmp_path / "obj.json"
    infile.write_text(json.dumps(_WORD_JSON))
    code, out, err = run(
        capsys, "biject", "--map", map_name, "--in", str(infile), *flags
    )
    assert code == 2 and out == ""
    assert err == f"error: biject --map {map_name} does not take {named}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--out", "report.csv", "verify", "examples"),
        ("--format", "json", "verify", "examples"),
        ("enum", "--family", "d", "--n", "2", "--format", "json"),
        ("biject", "--map", "psi", "--in", "word.json", "--format", "csv"),
    ],
)
def test_flag_a_command_ignores_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "word.json").write_text(json.dumps(_WORD_JSON))
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""
    assert not (tmp_path / "report.csv").exists()


def test_verify_all_passes_identity_flags_on(capsys):
    argv = ("verify", "all", "--max", "2", "--name", "new-id")
    code, out, _ = run(capsys, *argv)
    suites = [row.split(",")[0].strip('"') for row in out.splitlines()[1:]]
    assert code == 0 and "engine" in suites
    identity_rows = [row for row in out.splitlines() if row.startswith('"new-id"')]
    assert len(identity_rows) == 6
    assert not set(suites) & (set(IDENTITY_NAMES) - {"new-id"})


_PATH_JSON = {"area_word": [0, 1], "labels": [1, 2]}
_WORD_JSON = {"letters": [{"v": 0, "barred": False}, {"v": 0, "barred": True}]}


@pytest.mark.parametrize(
    "map_name, obj, takes",
    [
        ("eta", _PATH_JSON, "polyomino word"),
        ("psi", _PATH_JSON, "polyomino word"),
        ("eta-inv", _WORD_JSON, "path"),
        ("psi-inv", _WORD_JSON, "path"),
        ("phi", _WORD_JSON, "path"),
        ("pld-step", _WORD_JSON, "path"),
    ],
)
def test_biject_wrong_object_type_exits_2(tmp_path, capsys, map_name, obj, takes):
    infile = tmp_path / "obj.json"
    infile.write_text(json.dumps(obj))
    code, out, err = run(capsys, "biject", "--map", map_name, "--in", str(infile))
    assert code == 2 and out == ""
    assert err.startswith(f"error: --map {map_name} takes a {takes}")
    assert err.count("\n") == 1


# past sys.maxsize: no list of that many rows can exist, so the size is
# refused before anything is built
_OVERSIZED = "99999999999999999999"
_OVERSIZED_ERROR = "error: family size n exceeds sys.maxsize\n"


@pytest.mark.parametrize(
    "family", ["pf2", "shuffle-knm", "two-shuffle", "catalan-pld", "d", "rp"]
)
def test_enum_oversized_family_exits_2(capsys, family):
    code, out, err = run(
        capsys, "enum", "--family", family, "--m", "1", "--n", _OVERSIZED, "--count"
    )
    assert code == 2 and out == ""
    assert err == _OVERSIZED_ERROR


def test_biject_oversized_family_exits_2(tmp_path, capsys):
    path = {"area_word": [0, 0], "labels": [2, 1], "ghost_row": True}
    infile = tmp_path / "f.json"
    infile.write_text(json.dumps(path))
    argv = ("biject", "--map", "ehh-inv", "--n", _OVERSIZED, "--m", "1")
    code, out, err = run(capsys, *argv, "--in", str(infile))
    assert code == 2 and out == ""
    assert err == _OVERSIZED_ERROR


@pytest.mark.parametrize(
    "flags",
    [
        ("--family", "d", "--n", "1200", "--count"),
        ("--family", "rp", "--m", "600", "--n", "600", "--count"),
        ("--family", "catalan-pld", "--m", "600", "--n", "600", "--count"),
        ("--family", "pf2", "--m", "600", "--n", "600", "--count"),
        ("--family", "pf2", "--m", "600", "--n", "600", "--qt"),
    ],
)
def test_enum_too_deep_to_generate_exits_2(capsys, flags):
    # the searches recurse once per row and fail before the first member
    code, out, err = run(capsys, "enum", *flags)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flags[1]} is too deep to generate: ")
    assert err.count("\n") == 1
