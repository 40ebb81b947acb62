"""Verification suites with machine-readable reports.

Each suite runs a batch of exact checks and returns a list of
VerificationReport rows.  Reports are deterministic: rows are emitted in
a fixed order and the comparable portion carries no wall-clock data
(timings live in a separate field that serializers skip).

The grid suites are data: a row generator yields one (instance, checks)
pair per report row, each check a (witness, left, right, bound) tuple of
two exact evaluators and the degree bound (q_deg, t_deg) of their
polynomials, and ``_grid_rows`` runs every row the same way, each check
on the (q_deg+1) x (t_deg+1) grid.  A new check is one more row from a
row generator, not a new loop.

Each bound is derived per instance and per variable from the data the
evaluators read, never assumed from the size, and a check takes the
larger of its two sides in each variable: a Delta side's from
``macdonald.side_degree`` over the same ``macdonald.SIDES`` rows that
its evaluator sums, an enumerator side's as its exact ``degree()``, the
hook identity's as the exact degrees of its two sides, and each
reciprocity pair's from ``macdonald.reciprocity_degree``, the degrees of
the Macdonald coefficients, the plethysm and Pi added up.  A pass on
that grid is a proof under one assumption, that each side is a
polynomial: for nabla by Garsia and Haiman, for the Delta and Delta'
sides by Haglund, Remmel and Wilson (2015); see
``macdonald.degree_bound``.  A ``grid_bound`` G asks for the
(G+1) x (G+1) grid instead; a row where G is below either entry of a
check's derived bound is inconclusive, not a pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from qtcomb import bijections, macdonald, recursion
from qtcomb.families import (
    FamilySpec,
    generate,
    qt_enumerator,
    qt_enumerator_by_content,
)
from qtcomb.macdonald import partitions_of
from qtcomb.paths import (
    DecoratedLabelledPath,
    PolyominoPaths,
    knm_runs,
    polyomino_encode,
    word_in_runs,
)
from qtcomb.qt import EvalPoint, QtPolynomial, poly_equal_by_grid


@dataclass
class VerificationReport:
    """One checked instance: pass/fail plus a witness on failure."""

    suite: str
    instance: str
    status: str  # "pass" | "fail" | "inconclusive"; no suite skips an instance
    witness: str = ""
    seconds: float = field(default=0.0, compare=False)

    def row(self):
        return (self.suite, self.instance, self.status, self.witness)


def _report(suite, instance, ok, witness=""):
    if ok:
        return VerificationReport(suite, instance, "pass")
    return VerificationReport(suite, instance, "fail", witness or "mismatch")


def _timed(run):
    """Collect the reports ``run()`` yields, each timed from the previous
    yield: the real wall time of its own instance."""
    reports = []
    start = time.perf_counter()
    for report in run():
        now = time.perf_counter()
        report.seconds = now - start
        reports.append(report)
        start = now
    return reports


# -- ndinv suite ---------------------------------------------------------


def suite_ndinv(max_size=6):
    """Exhaustive check that psi o eta_inverse carries area, dinv and the
    zero composition over, and that the direct recursive step agrees with
    the composed one and drops dinv by (diagonal touches - 1)."""

    def run():
        for m in range(max_size + 1):
            for n in range(max_size + 1 - m):
                checked = 0
                bad = ""
                for path in generate(FamilySpec("catalan-pld", m=m, n=n)):
                    checked += 1
                    image = bijections.psi(bijections.eta_inverse(path))
                    touches = sum(
                        1
                        for i in range(path.size)
                        if path.area_word[i] == 0 and path.labels[i] == 0
                    )
                    stepped = bijections.pld_recursive_step(path)
                    doubled = (
                        path.size >= 2
                        and path.area_word[1] == 0
                        and path.labels[1] == 0
                    )
                    drop = 0 if doubled else touches - 1
                    ok = (
                        image.area() == path.area()
                        and bijections.ndinv(image) == path.dinv()
                        and image.big_car_composition() == path.zero_composition()
                        and stepped == bijections.composite_recursive_step(path)
                        and (path.size == 0 or path.dinv() - stepped.dinv() == drop)
                    )
                    if not ok:
                        bad = repr(path)
                        break
                yield _report("ndinv", f"m={m} n={n} members={checked}", not bad, bad)

    return _timed(run)


# -- ehh suite -----------------------------------------------------------


def suite_ehh(max_size=6):
    """The shuffle <-> two-car bijection: round trip, statistic
    preservation, injectivity onto the decorated two-car family, and
    equality of the two enumerators."""

    def run():
        for k in range(max_size + 1):
            for n in range(k, max_size + 1):
                for m in range(k, max_size + 1):
                    if not 0 < m + n - k <= max_size:
                        continue
                    seen = set()
                    bad = ""
                    count = 0
                    stats = []  # (dinv, area) of each member
                    for path in generate(
                        FamilySpec("shuffle-knm", m=m, n=n, k=k)
                    ):
                        count += 1
                        image = bijections.ehh_forward(path, k, n, m)
                        if image in seen:
                            bad = f"not injective at {path!r}"
                            break
                        seen.add(image)
                        stats.append((path.dinv(), path.area()))
                        if (image.dinv(), image.area()) != stats[-1]:
                            bad = f"statistics moved at {path!r}"
                            break
                        if bijections.ehh_inverse(image, k, n, m) != path:
                            bad = f"round trip failed at {path!r}"
                            break
                    if not bad:
                        lhs = QtPolynomial((pair, 1) for pair in stats)
                        rhs = qt_enumerator(
                            FamilySpec("pf2", m=m, n=n, k=k, ghost=True)
                        )
                        if lhs != rhs:
                            bad = f"enumerators differ: {lhs!r} vs {rhs!r}"
                    instance = f"k={k} n={n} m={m} members={count}"
                    yield _report("ehh", instance, not bad, bad)

    return _timed(run)


# -- recursion suite -------------------------------------------------------


def suite_recursion(max_size=5):
    def run():
        rep = recursion.reconcile_recursion(max_size)
        status = rep.passed
        yield _report(
            "recursion-reconcile",
            f"max_size={max_size} survivors={len(rep.survivors)} "
            f"printed_offsets={'yes' if rep.printed_offsets_survive else 'no'}",
            status,
            "" if status else rep.render().replace("\n", "; "),
        )

    return _timed(run)


# -- grid suites -------------------------------------------------------------

#: Largest k of the content-refined and three-run Delta checks.
DELTA_K_CAP = 2

#: Largest degree of the engine's basis round trips.
ENGINE_DEGREE = 7

#: The two-sided identities checked at every (m, n, k): name -> the
#: ``macdonald`` evaluators of the left and the right side, by name, so
#: that each is looked up when its suite runs.
IDENTITY_PAIRS = {
    "new-id": ("mid_delta_hn", "rhs_nabla_ehh"),
    "delta-hh-sum": ("sum_r_lhs", "mid_delta_hn"),
    "deltahh-ehh": ("lhs_delta_hh", "rhs_nabla_ehh"),
    "ehh-sum": ("sum_r_lhs", "rhs_nabla_ehh"),
}

IDENTITY_NAMES = ("mac-hook", "reciprocity", *IDENTITY_PAIRS)

#: The largest size the one-sided identities run at, whatever the
#: ``max_size``: acceptance criterion 5 runs ``suite_identities`` at 6.
IDENTITY_CLAMPS = {"mac-hook": 5, "reciprocity": 4}


def _bound(*degrees):
    """The grid bound (q_deg, t_deg) of a check: in each variable the
    largest degree bound of its sides, and at least 0."""
    return tuple(max(0, *entries) for entries in zip(*degrees))


def _ev(fn, *args):
    return lambda q0, t0: fn(*args, EvalPoint(q0, t0))


def _grid_rows(suite, rows, grid_bound=None):
    """Reports of grid rows.  A row is (instance, checks) and a check is
    (witness, left, right, bound): two evaluators of (q0, t0) and the
    derived degree bound (q_deg, t_deg) of their polynomials.  Each check
    runs on the grid of its bound, or on the (G+1) x (G+1) grid of
    ``grid_bound`` G when one is given.  A row fails at its first check
    that fails, with that check's witness: a difference at a grid point
    disproves the identity on any grid.  A row whose checks all agree is
    inconclusive when G is below either entry of some check's bound, with
    the largest such entry in the witness, and passes otherwise.  The
    rows are consumed inside ``_timed``, so a row's time includes
    building it (an enumerator, say)."""

    def run():
        for instance, checks in rows:
            failed, short = None, []
            for check, left, right, bound in checks:
                used = bound if grid_bound is None else (grid_bound, grid_bound)
                if not poly_equal_by_grid(left, right, used):
                    failed = check
                    break
                if max(used) < max(bound):
                    short.append(max(bound))
            if failed is None and short:
                witness = f"grid bound {grid_bound} below derived bound {max(short)}"
                yield VerificationReport(suite, instance, "inconclusive", witness)
            else:
                yield _report(suite, instance, failed is None, failed)

    return _timed(run)


def _instances(max_size, k_cap=None):
    """(m, n, k) with 1 <= m+n <= max_size, by size, then m, then k:
    k <= min(m, n), or with ``k_cap`` k <= min(k_cap, n - 1)."""
    for total in range(1, max_size + 1):
        for m in range(total + 1):
            n = total - m
            k_max = min(m, n) if k_cap is None else min(k_cap, n - 1)
            for k in range(k_max + 1):
                yield m, n, k


def suite_identities(names=None, max_size=6, grid_bound=None):
    """Exact grid verification of the symmetric-function identities, each
    check on the grid of its derived degree bound, or of ``grid_bound``;
    ``mac-hook`` and ``reciprocity`` run at most at their
    ``IDENTITY_CLAMPS`` size."""
    names = names or IDENTITY_NAMES
    reports = []
    if "mac-hook" in names:
        rows = _mac_hook_rows(min(max_size, IDENTITY_CLAMPS["mac-hook"]), grid_bound)
        reports += _grid_rows("mac-hook", rows, grid_bound)
    if "reciprocity" in names:
        rows = _reciprocity_rows(min(max_size, IDENTITY_CLAMPS["reciprocity"]))
        reports += _grid_rows("reciprocity", rows, grid_bound)
    for name in names:
        if name in IDENTITY_PAIRS:
            rows = _pair_rows(*IDENTITY_PAIRS[name], max_size, grid_bound)
            reports += _grid_rows(name, rows, grid_bound)
    return reports


def _mac_hook_rows(nmax, grid_bound):
    """One row per n; each check on the grid of the exact degrees of its
    two sides, per variable, and the row shows the largest entry."""
    for n in range(1, nmax + 1):
        checks = [
            (
                f"mu={tuple(mu)} r={r}",
                _ev(macdonald.pair_htilde_hook, mu, r),
                _ev(macdonald.pleth_e, r, macdonald.b_minus_one(mu)),
                _bound(
                    macdonald.pairing_degree(mu, ("hook", r)),
                    macdonald.eigenvalue_degree(("e'", r), mu),
                ),
            )
            for mu in partitions_of(n)
            for r in range(n)
        ]
        shown = max(max(c[3]) for c in checks) if grid_bound is None else grid_bound
        yield f"n={n} bound={shown}", checks


def _reciprocity_rows(nmax):
    """One row per size pair; each (alpha, beta) check on the grid of the
    larger ``macdonald.reciprocity_degree`` of its two sides, per
    variable."""
    for a in range(1, nmax + 1):
        for b in range(1, nmax + 1):
            yield f"|alpha|={a} |beta|={b}", (
                (
                    f"alpha={tuple(alpha)} beta={tuple(beta)}",
                    _ev(macdonald.reciprocity_side, alpha, beta),
                    _ev(macdonald.reciprocity_side, beta, alpha),
                    _bound(
                        macdonald.reciprocity_degree(alpha, beta),
                        macdonald.reciprocity_degree(beta, alpha),
                    ),
                )
                for alpha in partitions_of(a)
                for beta in partitions_of(b)
            )


def _pair_rows(left, right, max_size, grid_bound):
    """Rows of one identity pair, named by its two ``macdonald`` sides:
    each side is evaluated by its function and bounded from its
    ``macdonald.SIDES`` rows."""
    witness = f"{left} != {right}"
    for m, n, k in _instances(max_size):
        bound = _bound(
            macdonald.side_degree(left, m, n, k),
            macdonald.side_degree(right, m, n, k),
        )
        shown = max(bound) if grid_bound is None else grid_bound
        yield f"m={m} n={n} k={k} bound={shown}", [
            (
                witness,
                _ev(getattr(macdonald, left), m, n, k),
                _ev(getattr(macdonald, right), m, n, k),
                bound,
            )
        ]


# -- Delta conjecture, tiny sizes ---------------------------------------------


def suite_delta_tiny(max_size=5):
    """(i) the two-part case against the two-car model; (ii) the content-
    refined statement against partially labelled paths."""
    return _grid_rows("delta-hh-model", _delta_hh_rows(max_size)) + _grid_rows(
        "delta-content", _delta_content_rows(max_size)
    )


def _delta_hh_rows(max_size):
    for m, n, k in _instances(max_size):
        enum = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k))
        yield f"m={m} n={n} k={k}", [
            (
                "lhs_delta_hh != pf2 enumerator",
                _ev(macdonald.lhs_delta_hh, m, n, k),
                enum.eval,
                _bound(macdonald.side_degree("lhs_delta_hh", m, n, k), enum.degree()),
            )
        ]


def _delta_content_rows(max_size):
    for m, n, k in _instances(max_size, DELTA_K_CAP):
        by_content = qt_enumerator_by_content(m, n, k)
        yield f"m={m} n={n} k={k}", [
            (
                f"content {lam}",
                _ev(macdonald.delta_lhs_by_content, m, n, k, lam),
                enum.eval,
                _bound(
                    macdonald.side_degree("delta_lhs_by_content", m, n, k, lam),
                    enum.degree(),
                ),
            )
            for lam, enum in sorted(by_content.items())
        ]


def suite_delta_ehh(max_size=4):
    """Finite checks of the three-run case of the generalized statement:
    scalar products against e_j h_a h_b versus shuffle-filtered paths."""
    return _grid_rows("delta-ehh", _delta_ehh_rows(max_size))


def _delta_ehh_rows(max_size):
    for m, n, k in _instances(max_size, DELTA_K_CAP):
        spec = FamilySpec(
            "pld" if m else "ld", m=m, n=n, k=k, content=tuple([1] * n)
        )
        # (dinv, area) of the members, grouped by reading word
        stats = {}
        for path in generate(spec):
            stats.setdefault(path.reading_word(), []).append(
                (path.dinv(), path.area())
            )
        for j in range(n + 1):
            for a in range(n - j + 1):
                b = n - j - a
                if a < b:
                    continue
                runs = knm_runs(j, j + a, j + b)
                enum = QtPolynomial(
                    (pair, 1)
                    for word, pairs in stats.items()
                    if word_in_runs(word, runs)
                    for pair in pairs
                )
                side = (m, n, k, j, a, b)
                yield f"m={m} n={n} k={k} e{j}h{a}h{b}", [
                    (
                        f"delta_pairing != {spec.family} enumerator",
                        _ev(macdonald.lhs_delta_ehh, *side),
                        enum.eval,
                        _bound(
                            macdonald.side_degree("lhs_delta_ehh", *side),
                            enum.degree(),
                        ),
                    )
                ]


# -- engine self-validation ------------------------------------------------


def suite_engine():
    pt = EvalPoint(3, 101)

    def run():
        bad = ""
        for d in range(ENGINE_DEGREE + 1):
            for basis in ("h", "e", "p"):
                for lam in partitions_of(d):
                    f = macdonald.SymFun(d, "m", {lam: Fraction(1)})
                    if f.convert_to(basis).convert_to("m") != f:
                        bad = f"degree {d} basis {basis} at {tuple(lam)}"
        yield _report(
            "engine", f"basis round trips d<={ENGINE_DEGREE}", not bad, bad
        )

        bad = ""
        for n in range(1, 6):
            for mu in partitions_of(n):
                if macdonald.htilde_mcoeff(tuple(mu), (n,)).eval(pt.q0, pt.t0) != 1:
                    bad = f"<H,{'s_(n)'}> at {tuple(mu)}"
                if macdonald.pair_htilde_hook(mu, n - 1, pt) != macdonald.t_mu(
                    mu, pt
                ):
                    bad = f"<H,s_(1^n)> at {tuple(mu)}"
        yield _report("engine", "normalizations n<=5", not bad, bad)

        bad = ""
        for (m, n, k) in ((2, 1, 0), (1, 2, 1), (3, 2, 1)):
            for fn in (
                macdonald.mid_delta_hn,
                macdonald.rhs_nabla_ehh,
                macdonald.sum_r_lhs,
                macdonald.lhs_delta_hh,
            ):
                if fn(m, n, k, pt) != fn(m, n, k, pt.swap()):
                    bad = f"{fn.__name__}({m},{n},{k})"
        if macdonald.delta_lhs_by_content(
            1, 3, 1, (2, 1), pt
        ) != macdonald.delta_lhs_by_content(1, 3, 1, (2, 1), pt.swap()):
            bad = "delta_lhs_by_content(1,3,1,(2,1))"
        yield _report("engine", "q-t swap symmetry", not bad, bad)

    e_h_checks = (
        (
            f"n={n} d={d}",
            _ev(macdonald.pair_delta_e_d, d, n),
            _ev(macdonald.pair_en_eh, n, d),
            _bound(macdonald.side_degree("pair_delta_e_d", d, n)),
        )
        for n in range(1, 6)
        for d in range(n + 1)
    )
    return _timed(run) + _grid_rows(
        "engine", [("e-h Delta pairing n<=5", e_h_checks)]
    )


# -- worked examples ----------------------------------------------------------

# Frozen reference data, derived from the step-grid drawings and
# cross-checked by the statistic and bijection machinery.
EXAMPLE_LABELLED = DecoratedLabelledPath(
    (0, 1, 2, 1, 2, 0, 1, 1), (2, 4, 5, 1, 3, 2, 6, 1)
)
EXAMPLE_ZEROCOMP = DecoratedLabelledPath(
    (0, 1, 2, 2, 2, 0, 1, 2, 0, 1, 1, 0),
    (0, 1, 2, 0, 0, 0, 3, 4, 0, 5, 0, 0),
)
EXAMPLE_TWOCAR = DecoratedLabelledPath(
    (0, 0, 1, 1, 2, 0, 0, 1, 1, 2, 2, 0),
    (2, 1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2),
    ghost_row=True,
)
EXAMPLE_POLYOMINO_RED = "NNENNEENNENNNENNE"
EXAMPLE_POLYOMINO_GREEN = "EENNNNENENNNEENNN"
EXAMPLE_POLYOMINO_WORD = "0 0b 1 1b 2 1b 1b 0 0b 0b 1 0b 0b 0b 1 1 1b 1b"
# the caption string printed alongside the drawing; it differs from the
# geometry at two positions (a transposed 1 and 0) and is recorded here
# so the discrepancy stays visible
EXAMPLE_POLYOMINO_CAPTION = "0 0b 1 1b 2 1b 1b 1 0b 0b 0 0b 0b 0b 1 1 1b 1b"


def suite_examples():
    def run():
        p = EXAMPLE_LABELLED
        primary, secondary = p.dinv_pairs()
        yield _report(
            "examples",
            "labelled path statistics",
            p.area() == 8
            and p.dinv() == 6
            and primary == [(2, 7), (4, 7)]
            and secondary == [(2, 6), (3, 4), (3, 8), (5, 8)]
            and p.reading_word() == (2, 2, 4, 1, 6, 1, 5, 3),
        )
        yield _report(
            "examples",
            "zero composition",
            EXAMPLE_ZEROCOMP.zero_composition() == (3, 1, 2, 1),
        )
        yield _report(
            "examples",
            "big car composition",
            EXAMPLE_TWOCAR.big_car_composition() == (3, 3, 1),
        )
        word = polyomino_encode(
            PolyominoPaths(6, 11, EXAMPLE_POLYOMINO_RED, EXAMPLE_POLYOMINO_GREEN)
        )
        yield _report(
            "examples",
            "polyomino codec (18-letter word)",
            str(word) == EXAMPLE_POLYOMINO_WORD and word.area() == 11,
            str(word),
        )

    return _timed(run)


SUITES = {
    "examples": suite_examples,
    "ndinv": suite_ndinv,
    "ehh": suite_ehh,
    "recursion-reconcile": suite_recursion,
    "identities": suite_identities,
    "delta-tiny": suite_delta_tiny,
    "delta-ehh": suite_delta_ehh,
    "engine": suite_engine,
}
