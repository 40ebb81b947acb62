"""Tests of the benchmark's own parts: the seeded sampler, the tracer, the
correctness gate and the metric names declared in BENCHMARK.json."""

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import sampler  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, report_digest, report_rows  # noqa: E402

import qtcomb.cli  # noqa: E402
from qtcomb import families, macdonald, paths, qt, suites  # noqa: E402
from qtcomb.families import validate_family  # noqa: E402


def test_same_seed_gives_identical_members():
    assert sampler.to_json(sampler.sample(7, 60)) == sampler.to_json(
        sampler.sample(7, 60)
    )


def test_two_seeds_give_different_samples():
    assert sampler.to_json(sampler.sample(1, 60)) != sampler.to_json(
        sampler.sample(2, 60)
    )


def test_every_member_is_in_its_family():
    members = sampler.sample(3, 400)
    assert [spec.family for spec, _ in members[:2]] == ["catalan-pld", "pf2"]
    for spec, path in members:
        assert validate_family(path, spec) == (True, "ok")
        if spec.family == "catalan-pld":
            assert path.size in sampler.CATALAN_ROWS
        else:
            assert path.ghost_row and path.size - 1 in sampler.PF2_SIZES
            assert len(path.decorated_rises) == spec.k


def test_sampled_members_survive_json():
    for entry in sampler.to_json(sampler.sample(4, 20)):
        path = paths.DecoratedLabelledPath.from_json(entry["path"])
        assert path.to_json(entry["path"]["family"]) == entry["path"]


def test_entry_points_exist():
    modules = {name: sys.modules[f"qtcomb.{name}"] for name in tracer.ENTRY_POINTS}
    for name, functions in tracer.ENTRY_POINTS.items():
        for fn in functions:
            assert callable(getattr(modules[name], fn)), f"{name}.{fn}"
    for name, cls, method in tracer.METHODS:
        assert method in vars(getattr(sys.modules[f"qtcomb.{name}"], cls))


def test_tracer_counts_and_restores():
    originals = (
        families.generate,
        suites.generate,
        suites.poly_equal_by_grid,
        suites.SUITES["ndinv"],
        paths.DecoratedLabelledPath.__init__,
        qt.QtPolynomial.eval,
        macdonald.htilde_mcoeff,
    )
    t = tracer.Tracer("test")
    t.install()
    try:
        assert suites.generate is not originals[0]
        assert qtcomb.cli.SUITES["ndinv"] is not originals[3]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            for argv in (
                ["verify", "ndinv", "--max", "3"],
                ["verify", "identities", "--name", "mac-hook", "--max", "2"],
            ):
                assert qtcomb.cli.main(argv) == 0
    finally:
        t.restore()
    assert (
        families.generate,
        suites.generate,
        suites.poly_equal_by_grid,
        suites.SUITES["ndinv"],
        paths.DecoratedLabelledPath.__init__,
        qt.QtPolynomial.eval,
        macdonald.htilde_mcoeff,
    ) == originals
    summary = t.summary()
    stats = summary["stats"]
    for key in (
        "cli.main",
        "suites.suite_ndinv",
        "families.generate",
        "bijections.eta_inverse",
        "paths.DecoratedLabelledPath.__init__",
        "qt.poly_equal_by_grid",
        "macdonald.pair_htilde_hook",
    ):
        assert stats[key][0] > 0, key
    assert summary["members"] > 0 and summary["grid_points"] > 0
    # the CLI calls are the outermost wrapped calls, so the self times of
    # all entry points add up to the CLI's inclusive time
    total_self = sum(own for _, _, own in stats.values())
    assert abs(total_self - stats["cli.main"][1]) < 1e-6 * max(total_self, 1)
    names = [span["name"] for span in summary["spans"]]
    assert names.count("cli.main") == 2 and "qt.poly_equal_by_grid" in names
    by_id = {span["id"]: span for span in summary["spans"]}
    for span in summary["spans"]:
        assert span["run"] == "test" and span["end"] >= span["start"]
        if span["parent"] is not None:
            assert by_id[span["parent"]]["start"] <= span["start"]


def test_declared_metrics_match_the_runner():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    fake = {
        "stats": {},
        "members": 0,
        "shuffle_members": 0,
        "shuffle_scanned": 0,
        "grid_points": 0,
        "pole_replacements": 0,
        "mcoeff_hits": 0,
        "mcoeff_misses": 0,
        "mcoeff_build_s": 0.0,
    }
    produced = run.layer_metrics(fake, 1.0, {"wall_s": 1.0})
    assert sorted(produced) == sorted(m["name"] for m in bench["per_layer"])
    assert [m["name"] for m in bench["end_to_end"]] == [
        "wall_s",
        "setup_s",
        "checks_per_s",
        "peak_rss_mb",
    ]


def test_report_digest_ignores_row_order():
    text = 'suite,instance,status,witness\n"a","x","pass",""\n"b","y","pass",""\n'
    rows = report_rows(text)
    assert rows == [["a", "x", "pass", ""], ["b", "y", "pass", ""]]
    assert report_digest([rows]) == report_digest([rows[::-1]])


def _cli_result(outputs):
    return {"qtcomb": str(run.SRC / "qtcomb" / "cli.py"), "outputs": outputs}


def test_gate_passes_a_clean_report_and_flags_failures():
    workload = WORKLOADS["enumerator-grid"]
    header = "suite,instance,status,witness\n"

    def report(rows, status="pass"):
        return header + "".join(f'"s","i{i}","{status}",""\n' for i in range(rows))

    clean = [
        {"exit": 0, "csv": report(call.rows), "stderr": ""} for call in workload.calls
    ]
    gate = run.Gate(workload)
    assert gate.check(_cli_result(clean)) == workload.rows
    assert gate.correct and gate.failed == 0 and gate.attempted == workload.rows

    broken = [
        {"exit": 1, "csv": report(workload.calls[0].rows, "fail"), "stderr": "x"},
        {"exit": 0, "csv": report(workload.calls[1].rows - 1), "stderr": ""},
    ]
    gate = run.Gate(workload)
    gate.check(_cli_result(broken))
    assert not gate.correct
    assert gate.failed == workload.calls[0].rows + 1
    assert any("rows, expected" in problem for problem in gate.problems)
