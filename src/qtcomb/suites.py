"""Verification suites with machine-readable reports.

Each suite runs a batch of exact checks and returns a list of
VerificationReport rows.  Reports are deterministic: rows are emitted in
a fixed order and the comparable portion carries no wall-clock data
(timings live in a separate field that serializers skip).

Every suite is data: a row generator yields one (instance, checks) pair
per report row, and ``_rows`` runs every row the same way.  A check is a
zero-argument thunk that returns None when it holds, a witness string
when it fails, and an ``Inconclusive`` witness when what it ran on does
not decide it.  A member check walks a materialised family; a grid check,
``_grid``, compares two exact evaluators on the (q_deg+1) x (t_deg+1)
grid of the degree bound (q_deg, t_deg) of their polynomials.  A new
check is one more thunk in a row, not a new loop.

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
from functools import partial

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


class Inconclusive(str):
    """The witness of a check that neither holds nor fails: the instances
    it ran on do not decide it."""


def _failed(result):
    return isinstance(result, str) and not isinstance(result, Inconclusive)


def _rows(suite, rows, grid_bound=None):
    """Reports of ``rows``, each an (instance, checks) pair of thunks.  A
    row fails at its first check that returns a witness string, with that
    witness: a difference at a grid point disproves the identity on any
    grid.  Otherwise it is inconclusive when a grid check returned the
    largest entry of a derived bound above ``grid_bound`` (the witness
    names the largest), when a check returned an ``Inconclusive`` witness
    (the first such), or when it has no checks; else it passes.  Each
    report is timed from the previous one, so a row's time includes
    building it (a family or an enumerator, say)."""
    reports = []
    start = time.perf_counter()
    for instance, checks in rows:
        results = []
        for check in checks:
            results.append(check())
            if _failed(results[-1]):
                break
        short = [result for result in results if isinstance(result, int)]
        undecided = [result for result in results if isinstance(result, Inconclusive)]
        if results and _failed(results[-1]):
            status, witness = "fail", results[-1]
        elif short:
            status = "inconclusive"
            witness = f"grid bound {grid_bound} below derived bound {max(short)}"
        elif undecided:
            status, witness = "inconclusive", undecided[0]
        elif results:
            status, witness = "pass", ""
        else:
            status, witness = "inconclusive", "no checks"
        now = time.perf_counter()
        reports.append(
            VerificationReport(suite, instance, status, witness, now - start)
        )
        start = now
    return reports


# -- ndinv suite ---------------------------------------------------------


def suite_ndinv(max_size=6):
    """Exhaustive check that psi o eta_inverse carries area, dinv and the
    zero composition over, and that the direct recursive step agrees with
    the composed one and drops dinv by (diagonal touches - 1)."""

    def rows():
        for m in range(max_size + 1):
            for n in range(max_size + 1 - m):
                family = list(generate(FamilySpec("catalan-pld", m=m, n=n)))
                check = partial(_ndinv_members, family)
                yield f"m={m} n={n} members={len(family)}", [check]

    return _rows("ndinv", rows())


def _ndinv_members(family):
    """The first property that a member breaks, in the order below, as
    ``<property> at <path>``; or None."""
    for path in family:
        image = bijections.psi(bijections.eta_inverse(path))
        touches = sum(a == 0 and b == 0 for a, b in zip(path.area_word, path.labels))
        stepped = bijections.pld_recursive_step(path)
        doubled = path.size >= 2 and path.area_word[1] == 0 and path.labels[1] == 0
        drop = 0 if doubled else touches - 1
        if image.area() != path.area():
            failed = "area"
        elif bijections.ndinv(image) != path.dinv():
            failed = "ndinv vs dinv"
        elif image.big_car_composition() != path.zero_composition():
            failed = "composition"
        elif stepped != bijections.composite_recursive_step(path):
            failed = "recursive step"
        elif path.size and path.dinv() - stepped.dinv() != drop:
            failed = "dinv drop"
        else:
            continue
        return f"{failed} at {path!r}"
    return None


# -- ehh suite -----------------------------------------------------------


def suite_ehh(max_size=6):
    """The shuffle <-> two-car bijection: round trip, statistic
    preservation, injectivity onto the decorated two-car family, and
    equality of the two enumerators."""

    def rows():
        for k in range(max_size + 1):
            for n in range(k, max_size + 1):
                for m in range(k, max_size + 1):
                    if not 0 < m + n - k <= max_size:
                        continue
                    family = list(generate(FamilySpec("shuffle-knm", m=m, n=n, k=k)))
                    check = partial(_ehh_members, family, k, n, m)
                    yield f"k={k} n={n} m={m} members={len(family)}", [check]

    return _rows("ehh", rows())


def _ehh_members(family, k, n, m):
    """The first member that ehh does not carry injectively, with its
    statistics and back again, or else unequal enumerators; or None."""
    seen = set()
    stats = []  # (dinv, area) of each member
    for path in family:
        image = bijections.ehh_forward(path, k, n, m)
        if image in seen:
            return f"not injective at {path!r}"
        seen.add(image)
        stats.append((path.dinv(), path.area()))
        if (image.dinv(), image.area()) != stats[-1]:
            return f"statistics moved at {path!r}"
        if bijections.ehh_inverse(image, k, n, m) != path:
            return f"round trip failed at {path!r}"
    lhs = QtPolynomial((pair, 1) for pair in stats)
    rhs = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k, ghost=True))
    if lhs != rhs:
        return f"enumerators differ: {lhs!r} vs {rhs!r}"
    return None


# -- recursion suite -------------------------------------------------------


def suite_recursion(max_size=5):
    def rows():
        rep = recursion.reconcile_recursion(max_size)
        yield (
            f"max_size={max_size} survivors={len(rep.survivors)} "
            f"printed_offsets={'yes' if rep.printed_offsets_survive else 'no'}",
            [partial(_reconciled, rep)],
        )

    return _rows("recursion-reconcile", rows())


def _reconciled(rep):
    """None when one convention survives with the bucket sums intact;
    ``Inconclusive`` when several do, since the instances then single out
    none of them; else the whole report on one line."""
    if rep.passed:
        return None
    if len(rep.survivors) > 1 and rep.bucket_sums_ok:
        return Inconclusive(
            f"{len(rep.survivors)} conventions survive every instance with "
            f"m+n <= {rep.max_size}"
        )
    return rep.render().replace("\n", "; ")


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


def _grid(witness, left, right, bound, grid_bound=None):
    """A grid check: ``witness`` if the evaluators ``left`` and ``right``
    of (q0, t0) differ on the grid of the derived degree bound
    (q_deg, t_deg), or on the (G+1) x (G+1) grid of ``grid_bound`` G when
    one is given.  If they agree on a grid where G is below either entry
    of the bound, the largest entry; None if the check holds."""
    used = bound if grid_bound is None else (grid_bound, grid_bound)
    if not poly_equal_by_grid(left, right, used):
        return witness
    return max(bound) if max(used) < max(bound) else None


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
        reports += _rows("mac-hook", rows, grid_bound)
    if "reciprocity" in names:
        nmax = min(max_size, IDENTITY_CLAMPS["reciprocity"])
        reports += _rows("reciprocity", _reciprocity_rows(nmax, grid_bound), grid_bound)
    for name in names:
        if name in IDENTITY_PAIRS:
            rows = _pair_rows(*IDENTITY_PAIRS[name], max_size, grid_bound)
            reports += _rows(name, rows, grid_bound)
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
        yield f"n={n} bound={shown}", [partial(_grid, *c, grid_bound) for c in checks]


def _reciprocity_rows(nmax, grid_bound):
    """One row per size pair; each (alpha, beta) check on the grid of the
    larger ``macdonald.reciprocity_degree`` of its two sides, per
    variable."""
    for a in range(1, nmax + 1):
        for b in range(1, nmax + 1):
            yield f"|alpha|={a} |beta|={b}", (
                partial(
                    _grid,
                    f"alpha={tuple(alpha)} beta={tuple(beta)}",
                    _ev(macdonald.reciprocity_side, alpha, beta),
                    _ev(macdonald.reciprocity_side, beta, alpha),
                    _bound(
                        macdonald.reciprocity_degree(alpha, beta),
                        macdonald.reciprocity_degree(beta, alpha),
                    ),
                    grid_bound,
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
            partial(
                _grid,
                witness,
                _ev(getattr(macdonald, left), m, n, k),
                _ev(getattr(macdonald, right), m, n, k),
                bound,
                grid_bound,
            )
        ]


# -- Delta conjecture, tiny sizes ---------------------------------------------


def suite_delta_tiny(max_size=5):
    """(i) the two-part case against the two-car model; (ii) the content-
    refined statement against partially labelled paths."""
    return _rows("delta-hh-model", _delta_hh_rows(max_size)) + _rows(
        "delta-content", _delta_content_rows(max_size)
    )


def _delta_hh_rows(max_size):
    for m, n, k in _instances(max_size):
        enum = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k))
        yield f"m={m} n={n} k={k}", [
            partial(
                _grid,
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
            partial(
                _grid,
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
    return _rows("delta-ehh", _delta_ehh_rows(max_size))


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
                    partial(
                        _grid,
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
    e_h_checks = (
        partial(
            _grid,
            f"n={n} d={d}",
            _ev(macdonald.pair_delta_e_d, d, n),
            _ev(macdonald.pair_en_eh, n, d),
            _bound(macdonald.side_degree("pair_delta_e_d", d, n)),
        )
        for n in range(1, 6)
        for d in range(n + 1)
    )
    rows = [
        (f"basis round trips d<={ENGINE_DEGREE}", [_basis_round_trips]),
        ("normalizations n<=5", [partial(_normalizations, pt)]),
        ("q-t swap symmetry", [partial(_swap_symmetry, pt)]),
        ("e-h Delta pairing n<=5", e_h_checks),
    ]
    return _rows("engine", rows)


def _basis_round_trips():
    """The first monomial function that a round trip through the h, e or
    p basis does not give back, or None."""
    for d in range(ENGINE_DEGREE + 1):
        for basis in ("h", "e", "p"):
            for lam in partitions_of(d):
                f = macdonald.SymFun(d, "m", {lam: Fraction(1)})
                if f.convert_to(basis).convert_to("m") != f:
                    return f"degree {d} basis {basis} at {tuple(lam)}"
    return None


def _normalizations(pt):
    """The first mu where <H_mu, s_(n)> is not 1 or <H_mu, s_(1^n)> is not
    T_mu at ``pt``, or None."""
    for n in range(1, 6):
        for mu in partitions_of(n):
            if macdonald.htilde_mcoeff(tuple(mu), (n,)).eval(pt.q0, pt.t0) != 1:
                return f"<H,s_(n)> at {tuple(mu)}"
            if macdonald.pair_htilde_hook(mu, n - 1, pt) != macdonald.t_mu(mu, pt):
                return f"<H,s_(1^n)> at {tuple(mu)}"
    return None


def _swap_symmetry(pt):
    """The first Delta side that changes when q and t swap at ``pt``, or
    None."""
    for m, n, k in ((2, 1, 0), (1, 2, 1), (3, 2, 1)):
        for fn in (
            macdonald.mid_delta_hn,
            macdonald.rhs_nabla_ehh,
            macdonald.sum_r_lhs,
            macdonald.lhs_delta_hh,
        ):
            if fn(m, n, k, pt) != fn(m, n, k, pt.swap()):
                return f"{fn.__name__}({m},{n},{k})"
    by_content = partial(macdonald.delta_lhs_by_content, 1, 3, 1, (2, 1))
    if by_content(pt) != by_content(pt.swap()):
        return "delta_lhs_by_content(1,3,1,(2,1))"
    return None


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
    def rows():
        p = EXAMPLE_LABELLED
        pairs = ([(2, 7), (4, 7)], [(2, 6), (3, 4), (3, 8), (5, 8)])
        yield "labelled path statistics", [
            partial(_expect, "area", p.area, 8),
            partial(_expect, "dinv", p.dinv, 6),
            partial(_expect, "dinv pairs", p.dinv_pairs, pairs),
            partial(_expect, "reading word", p.reading_word, (2, 2, 4, 1, 6, 1, 5, 3)),
        ]
        zero = EXAMPLE_ZEROCOMP.zero_composition
        yield "zero composition", [partial(_expect, "composition", zero, (3, 1, 2, 1))]
        big = EXAMPLE_TWOCAR.big_car_composition
        yield "big car composition", [partial(_expect, "composition", big, (3, 3, 1))]
        word = polyomino_encode(
            PolyominoPaths(6, 11, EXAMPLE_POLYOMINO_RED, EXAMPLE_POLYOMINO_GREEN)
        )
        yield "polyomino codec (18-letter word)", [
            partial(_expect, "word", partial(str, word), EXAMPLE_POLYOMINO_WORD),
            partial(_expect, "area", word.area, 11),
        ]

    return _rows("examples", rows())


def _expect(what, got, want):
    """A check that ``got()`` equals ``want``; the witness names both."""
    value = got()
    return None if value == want else f"{what}: got {value!r}, want {want!r}"


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
