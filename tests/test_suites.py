"""Suite plumbing: the one row runner, its per-instance timing, and
rows that fail or cannot conclude."""

from functools import partial
from math import prod
from types import SimpleNamespace

from qtcomb import bijections, macdonald, recursion, suites
from qtcomb.cli import main
from qtcomb.families import FamilySpec, generate, qt_enumerator
from qtcomb.paths import DecoratedLabelledPath
from qtcomb.qt import SYMBOLIC, EvalPoint, QtPolynomial, poly_equal_by_grid, q_primes


def test_each_row_gets_its_own_instance_time(monkeypatch):
    clock = iter([10.0, 10.5, 13.5, 13.75])
    fake_time = SimpleNamespace(perf_counter=lambda: next(clock))
    monkeypatch.setattr(suites, "time", fake_time)
    rows = ((name, [lambda: None]) for name in ("a", "b", "c"))
    reports = suites._rows("demo", rows)
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
    bound = 6
    right = suites._side("rhs_nabla_ehh", m, n, k)
    # per variable and in total
    assert suites._side("mid_delta_hn", m, n, k)[1] == right[1] == (bound,) * 3
    mid = macdonald.mid_delta_hn

    def perturbed(m2, n2, k2, pt):
        value = mid(m2, n2, k2, pt)
        if (m2, n2, k2) == (m, n, k):
            value += prod(pt.q0 - p for p in q_primes(bound))
        return value

    monkeypatch.setattr(macdonald, "mid_delta_hn", perturbed)
    wrong = suites._side("mid_delta_hn", m, n, k)[0]
    assert poly_equal_by_grid(wrong, right[0], (bound - 1, bound, bound))
    assert not poly_equal_by_grid(wrong, right[0], (bound,) * 3)
    reports = suites.suite_identities(names=("new-id",), max_size=5)
    instance = f"m={m} n={n} k={k} bound={bound}"
    assert _failed_rows(reports) == [
        ("new-id", instance, "fail", "mid_delta_hn != rhs_nabla_ehh")
    ]


def test_row_fails_at_its_first_failing_check():
    def same(q0, t0):
        return q0

    def differ(q0, t0):
        return q0 + 1

    def unreached():
        raise AssertionError("a row stops at its first failing check")

    grid = suites._grid
    reports = suites._rows(
        "demo",
        [
            (
                "fails",
                [
                    partial(grid, "first", (same, (1, 1, 2)), (same, (0, 0, 0))),
                    partial(grid, "second", (same, (1, 0, 1)), (differ, (0, 1, 1))),
                    unreached,
                ],
            ),
        ],
    )
    assert [r.row() for r in reports] == [("demo", "fails", "fail", "second")]


def test_a_grid_check_takes_the_larger_bound_of_its_sides(monkeypatch):
    seen = []

    def record(left, right, bound):
        seen.append(bound)
        return True

    def zero(q0, t0):
        return 0

    monkeypatch.setattr(suites, "poly_equal_by_grid", record)
    assert suites._grid("w", (zero, (3, -1, 2)), (zero, (1, 2, 3))) is None
    assert suites._grid("w", (zero, (-1, -1, -1)), (zero, (-1, -1, -1))) is None
    assert seen == [(3, 2, 3), (0, 0, 0)]


def test_a_row_with_no_checks_is_not_a_pass():
    reports = suites._rows("demo", [("empty", []), ("one", [lambda: None])])
    assert [r.row() for r in reports] == [
        ("demo", "empty", "inconclusive", "no checks"),
        ("demo", "one", "pass", ""),
    ]


def test_an_undecided_check_leaves_its_row_inconclusive_unless_another_fails():
    undecided = suites.Inconclusive("too few instances")
    reports = suites._rows(
        "demo",
        [
            ("undecided", [lambda: None, lambda: undecided, lambda: None]),
            ("undecided, then fails", [lambda: undecided, lambda: "differs"]),
        ],
    )
    assert [r.row() for r in reports] == [
        ("demo", "undecided", "inconclusive", "too few instances"),
        ("demo", "undecided, then fails", "fail", "differs"),
    ]


def test_a_reconciliation_with_several_survivors_is_inconclusive():
    rows = [suites.suite_recursion(size)[0].row() for size in (0, 1, 2)]
    assert rows == [
        (
            "recursion-reconcile",
            "max_size=0 survivors=54 printed_offsets=yes",
            "inconclusive",
            "54 conventions survive every instance with m+n <= 0",
        ),
        (
            "recursion-reconcile",
            "max_size=1 survivors=4 printed_offsets=yes",
            "inconclusive",
            "4 conventions survive every instance with m+n <= 1",
        ),
        (
            "recursion-reconcile",
            "max_size=2 survivors=1 printed_offsets=yes",
            "pass",
            "",
        ),
    ]


def test_a_reconciliation_fails_with_no_survivor_or_a_broken_bucket_sum():
    survivors = recursion.reconcile_recursion(1).survivors
    for rep in (
        recursion.ReconcileReport(1, [], {}, True, False, False),
        recursion.ReconcileReport(1, survivors, {}, False, True, True),
    ):
        witness = suites._reconciled(rep)
        assert not isinstance(witness, suites.Inconclusive)
        assert witness == rep.render().replace("\n", "; ")
        assert "overall: FAIL" in witness


def _one_failed_row(passing, failing):
    """The single row of ``failing`` that is not a pass, after checking
    that it has the instance of a passing row of ``passing``."""
    assert all(r.status == "pass" for r in passing)
    [row] = _failed_rows(failing)
    assert row[1] in {r.instance for r in passing}
    assert [r.instance for r in failing] == [r.instance for r in passing]
    return row


def test_ndinv_witness_names_the_property_and_keeps_the_row_key(monkeypatch):
    target = list(generate(FamilySpec("catalan-pld", m=2, n=1)))[2]
    image = bijections.psi(bijections.eta_inverse(target))
    ndinv = bijections.ndinv

    def off_by_one_on_target(path):
        return ndinv(path) + (path == image)

    passing = suites.suite_ndinv(max_size=3)
    monkeypatch.setattr(bijections, "ndinv", off_by_one_on_target)
    row = _one_failed_row(passing, suites.suite_ndinv(max_size=3))
    assert row == ("ndinv", "m=2 n=1 members=6", "fail", f"ndinv vs dinv at {target!r}")


def test_ehh_row_keeps_its_key_when_a_member_fails(monkeypatch):
    target = list(generate(FamilySpec("shuffle-knm", m=2, n=1, k=1)))[1]
    inverse = bijections.ehh_inverse

    def wrong_on_target(image, k, n, m):
        path = inverse(image, k, n, m)
        return None if (path, k, n, m) == (target, 1, 1, 2) else path

    passing = suites.suite_ehh(max_size=3)
    monkeypatch.setattr(bijections, "ehh_inverse", wrong_on_target)
    row = _one_failed_row(passing, suites.suite_ehh(max_size=3))
    members = len(list(generate(FamilySpec("shuffle-knm", m=2, n=1, k=1))))
    assert row == (
        "ehh",
        f"k=1 n=1 m=2 members={members}",
        "fail",
        f"round trip failed at {target!r}",
    )


def _ehh_row(k, n, m):
    members = len(list(generate(FamilySpec("shuffle-knm", m=m, n=n, k=k))))
    return f"k={k} n={n} m={m} members={members}"


def test_ehh_row_fails_at_a_member_sent_where_another_went(monkeypatch):
    family = list(generate(FamilySpec("shuffle-knm", m=2, n=2, k=1)))
    first, target = family[0], family[3]
    forward = bijections.ehh_forward

    def collide_on_target(path, k, n, m):
        hit = (path, k, n, m) == (target, 1, 2, 2)
        return forward(first if hit else path, k, n, m)

    passing = suites.suite_ehh(max_size=3)
    monkeypatch.setattr(bijections, "ehh_forward", collide_on_target)
    row = _one_failed_row(passing, suites.suite_ehh(max_size=3))
    assert row == ("ehh", _ehh_row(1, 2, 2), "fail", f"not injective at {target!r}")


def _pf2_generator(edit):
    """``generate`` with ``edit`` applied to the members of the decorated
    two-car family with k=1, n=2, m=2, and every other family as it is."""

    def patched(spec):
        members = generate(spec)
        if spec == FamilySpec("pf2", m=2, n=2, k=1, ghost=True):
            return edit(list(members))
        return members

    return patched


def test_ehh_row_fails_at_an_image_the_two_car_generator_drops(monkeypatch):
    pf2 = list(generate(FamilySpec("pf2", m=2, n=2, k=1, ghost=True)))
    dropped = pf2[5]
    [source] = [
        path
        for path in generate(FamilySpec("shuffle-knm", m=2, n=2, k=1))
        if bijections.ehh_forward(path, 1, 2, 2) == dropped
    ]
    passing = suites.suite_ehh(max_size=3)
    monkeypatch.setattr(
        suites, "generate", _pf2_generator(lambda ms: [p for p in ms if p != dropped])
    )
    row = _one_failed_row(passing, suites.suite_ehh(max_size=3))
    witness = f"image not generated as a pf2 member at {source!r}"
    assert row == ("ehh", _ehh_row(1, 2, 2), "fail", witness)


def test_ehh_row_fails_at_a_two_car_member_no_image_reaches(monkeypatch):
    # a member generated twice: the second copy is reached by no path
    pf2 = list(generate(FamilySpec("pf2", m=2, n=2, k=1, ghost=True)))
    twice = pf2[2]
    passing = suites.suite_ehh(max_size=3)
    monkeypatch.setattr(suites, "generate", _pf2_generator(lambda ms: ms + [twice]))
    row = _one_failed_row(passing, suites.suite_ehh(max_size=3))
    witness = f"pf2 member not reached: {twice!r}"
    assert row == ("ehh", _ehh_row(1, 2, 2), "fail", witness)


def test_example_witness_names_what_it_got(monkeypatch):
    # the worked path without its last row: composition (3, 1, 2)
    short = DecoratedLabelledPath(
        (0, 1, 2, 2, 2, 0, 1, 2, 0, 1, 1), (0, 1, 2, 0, 0, 0, 3, 4, 0, 5, 0)
    )
    monkeypatch.setattr(suites, "EXAMPLE_ZEROCOMP", short)
    assert _failed_rows(suites.suite_examples()) == [
        (
            "examples",
            "zero composition",
            "fail",
            "composition: got (3, 1, 2), want (3, 1, 2, 1)",
        )
    ]


def test_engine_loop_names_its_first_failing_case(monkeypatch):
    hook = macdonald.pair_htilde_hook
    monkeypatch.setattr(
        macdonald, "pair_htilde_hook", lambda mu, r, pt: hook(mu, r, pt) + 1
    )
    # every mu fails; the first of n <= 5 is (1,)
    assert suites._normalizations(SYMBOLIC) == "<H,s_(1^n)> at (1,)"


def test_normalizations_are_polynomial_identities(monkeypatch):
    # a T_mu off by (q - 3)(t - 101) agrees at the old point (3, 101); the
    # row compares polynomials, so it fails
    t_mu = macdonald.t_mu
    monkeypatch.setattr(
        macdonald,
        "t_mu",
        lambda mu, pt: t_mu(mu, pt) + (pt.q0 - 3) * (pt.t0 - 101),
    )
    assert suites._normalizations(EvalPoint(3, 101)) is None
    # the swap row fails too: nabla's eigenvalue is T_mu
    row = ("engine", "normalizations n<=5", "fail", "<H,s_(1^n)> at (1,)")
    assert row in _failed_rows(suites.suite_engine())


def test_reciprocity_runs_no_grid_check(monkeypatch):
    # both sides are compared as polynomials at SYMBOLIC, with no bound
    def refuse(*args):
        raise AssertionError("reciprocity ran a grid check")

    monkeypatch.setattr(suites, "poly_equal_by_grid", refuse)
    reports = suites.suite_identities(names=("reciprocity",), max_size=2)
    assert [r.status for r in reports] == ["pass"] * 4


def test_reciprocity_names_the_first_differing_monomial(monkeypatch):
    # a q t planted in H_(2)[M B_(1)] Pi_(1), whose coefficient there is 1
    side = macdonald.reciprocity_side

    def planted(alpha, beta, pt):
        value = side(alpha, beta, pt)
        if (tuple(alpha), tuple(beta)) == ((2,), (1,)):
            value += pt.q0 * pt.t0
        return value

    monkeypatch.setattr(macdonald, "reciprocity_side", planted)
    reports = suites.suite_identities(names=("reciprocity",), max_size=2)
    assert _failed_rows(reports) == [
        (
            "reciprocity",
            "|alpha|=1 |beta|=2",
            "fail",
            "alpha=(1,) beta=(2,) q^1 t^1: 1 != 2",
        ),
        (
            "reciprocity",
            "|alpha|=2 |beta|=1",
            "fail",
            "alpha=(2,) beta=(1,) q^1 t^1: 2 != 1",
        ),
    ]


def _bounded_sides(max_size):
    """(what, grid side, the exact polynomial it equals) for every
    ``macdonald`` side and instance the suites use at m+n <= max_size:
    the four pair sides with the ghost pf2 enumerator, the delta-tiny and
    delta-ehh sides with the enumerators of their rows, and the engine's
    e-h pairings with their constants."""
    for m, n, k in suites._instances(max_size):
        enum = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k, ghost=True))
        for name in ("lhs_delta_hh", "mid_delta_hn", "rhs_nabla_ehh", "sum_r_lhs"):
            yield (name, m, n, k), suites._side(name, m, n, k), enum
    for instance, checks in (
        *suites._delta_hh_rows(max_size),
        *suites._delta_content_rows(max_size),
        *suites._delta_ehh_rows(max_size),
    ):
        for check in checks:
            witness, side, (evaluator, _) = check.args
            yield (instance, witness), side, evaluator.__self__
    for n in range(1, 6):
        for d in range(n + 1):
            const = QtPolynomial.const(macdonald.pair_en_eh(n, d, None))
            yield (d, n), suites._side("pair_delta_e_d", d, n), const


def test_total_degree_covers_the_equal_enumerator():
    cases = list(_bounded_sides(6))
    assert len(cases) == 772
    for what, side, poly in cases:
        assert side[1][2] >= poly.total_degree(), what
