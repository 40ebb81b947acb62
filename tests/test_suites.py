"""Suite plumbing: per-instance timing of report rows."""

from types import SimpleNamespace

from qtcomb import suites


def test_each_row_gets_its_own_instance_time(monkeypatch):
    clock = iter([10.0, 10.5, 13.5, 13.75])
    fake_time = SimpleNamespace(perf_counter=lambda: next(clock))
    monkeypatch.setattr(suites, "time", fake_time)

    def run():
        for name in ("a", "b", "c"):
            yield suites._report("demo", name, True)

    reports = suites._timed(run)
    assert [r.seconds for r in reports] == [0.5, 3.0, 0.25]
    assert [r.row() for r in reports] == [
        ("demo", name, "pass", "") for name in ("a", "b", "c")
    ]
