"""Suite plumbing: per-instance timing of report rows, and grid rows
that fail."""

from math import prod
from types import SimpleNamespace

from qtcomb import macdonald, suites
from qtcomb.cli import main
from qtcomb.qt import q_primes


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


def _failed_rows(reports):
    return [r.row() for r in reports if r.status != "pass"]


def test_mac_hook_row_fails_at_its_first_failing_check(monkeypatch, capsys):
    hook = macdonald.pair_htilde_hook

    def wrong_at_r1(mu, r, pt):
        return hook(mu, r, pt) + (sum(mu) == 3 and r == 1)

    monkeypatch.setattr(macdonald, "pair_htilde_hook", wrong_at_r1)
    reports = suites.suite_identities(names=("mac-hook",), max_size=4)
    # partitions of 3 run (3,), (2, 1), (1, 1, 1); each fails at r=1
    row = ("mac-hook", "n=3 bound=3", "fail", "mu=(3,) r=1")
    assert _failed_rows(reports) == [row]
    assert len(reports) == 4
    argv = ["verify", "identities", "--name", "mac-hook", "--max", "4"]
    assert main(argv) == 1
    assert '"mac-hook","n=3 bound=3","fail","mu=(3,) r=1"' in capsys.readouterr().out


def test_delta_content_row_fails_at_its_first_failing_content(monkeypatch, capsys):
    by_content = macdonald.delta_lhs_by_content

    def wrong_at_m0_n3(m, n, k, lam, pt):
        wrong = (m, n, k) == (0, 3, 0) and lam != (3,)
        return by_content(m, n, k, lam, pt) + wrong

    monkeypatch.setattr(macdonald, "delta_lhs_by_content", wrong_at_m0_n3)
    reports = suites.suite_delta_tiny(max_size=3)
    # contents run in sorted order: (1, 1, 1), (2, 1), (3,)
    row = ("delta-content", "m=0 n=3 k=0", "fail", "content (1, 1, 1)")
    assert _failed_rows(reports) == [row]
    assert main(["verify", "delta-tiny", "--max", "3"]) == 1
    assert '"delta-content","m=0 n=3 k=0","fail","content (1, 1, 1)"' in (
        capsys.readouterr().out
    )


def test_identity_pair_row_names_its_two_sides(monkeypatch, capsys):
    rhs = macdonald.rhs_nabla_ehh

    def wrong_at_211(m, n, k, pt):
        return rhs(m, n, k, pt) + ((m, n, k) == (2, 1, 1))

    monkeypatch.setattr(macdonald, "rhs_nabla_ehh", wrong_at_211)
    reports = suites.suite_identities(names=("new-id",), max_size=3)
    row = ("new-id", "m=2 n=1 k=1 bound=1", "fail", "mid_delta_hn != rhs_nabla_ehh")
    assert _failed_rows(reports) == [row]
    assert main(["verify", "identities", "--name", "new-id", "--max", "3"]) == 1
    assert (
        '"new-id","m=2 n=1 k=1 bound=1","fail","mid_delta_hn != rhs_nabla_ehh"'
        in capsys.readouterr().out
    )


def test_perturbation_hidden_below_the_derived_bound_fails_at_it(monkeypatch):
    # a perturbation that vanishes at every q-value of the grid one below
    # the derived bound, but not at the extra q-value of the derived grid
    m, n, k = 2, 3, 0
    bound = max(macdonald.side_degree("mid_delta_hn", m, n, k))
    assert bound == 6
    mid = macdonald.mid_delta_hn

    def perturbed(m2, n2, k2, pt):
        value = mid(m2, n2, k2, pt)
        if (m2, n2, k2) == (m, n, k):
            value += prod(pt.q0 - p for p in q_primes(bound))
        return value

    monkeypatch.setattr(macdonald, "mid_delta_hn", perturbed)
    instance = f"m={m} n={n} k={k}"
    at_derived = suites.suite_identities(names=("new-id",), max_size=5)
    assert _failed_rows(at_derived) == [
        ("new-id", f"{instance} bound={bound}", "fail", "mid_delta_hn != rhs_nabla_ehh")
    ]
    below = suites.suite_identities(names=("new-id",), max_size=5, grid_bound=bound - 1)
    assert (
        "new-id",
        f"{instance} bound={bound - 1}",
        "inconclusive",
        f"grid bound {bound - 1} below derived bound {bound}",
    ) in _failed_rows(below)


def test_grid_row_without_a_witness_fails_as_mismatch():
    def differ(q0, t0):
        return q0 + 1

    def same(q0, t0):
        return q0

    reports = suites._grid_rows(
        "demo",
        [
            ("equal", [("w", same, same, 1)]),
            ("differ", [("", same, same, 1), ("", same, differ, 1)]),
        ],
    )
    assert [r.row() for r in reports] == [
        ("demo", "equal", "pass", ""),
        ("demo", "differ", "fail", "mismatch"),
    ]
