"""Verification suites with machine-readable reports.

Each suite runs a batch of exact checks and returns a list of
VerificationReport rows.  Reports are deterministic: rows are emitted in
a fixed order and the comparable portion carries no wall-clock data
(timings live in a separate field that serializers skip).

Every suite is data: a row generator yields one (instance, checks) pair
per report row, and ``_rows`` runs every row the same way.  A check is a
zero-argument thunk that returns None when it holds, a witness string
when it fails, and an ``Inconclusive`` witness when what it ran on does
not decide it.  A member check walks a materialised family.  An exact
check compares two sides as polynomials, computed at ``qt.SYMBOLIC``:
reciprocity and the engine's normalizations, with no bound and no
assumption.  A grid check, ``_grid``, compares two sides on the
staircase grid of ``qt.poly_equal_by_grid``, a lower set of points, for
the larger of their degree bounds (q_deg, t_deg, tot_deg) in each
variable and in total.  It serves the partition sums, which divide by
w_mu, and mac-hook.  A side is an (evaluator of (q0, t0), (q_deg, t_deg,
tot_deg)) pair.  A new check is one more thunk in a row, not a new
loop.

Each bound is derived per instance from the data the evaluators read,
never assumed from the size: a Delta side's from ``macdonald.side_bound``
over the same ``macdonald.SIDES`` rows that its evaluator sums
(``_side``), an enumerator side's as its exact degrees (``_exact``), and
the hook identity's as the exact degrees of its two sides.  The
``bound=`` of a row shows the per-variable bounds only.  A pass on that
grid is a proof under one assumption, that each side is a polynomial:
for nabla by Garsia and Haiman, for the Delta and Delta' sides by
Haglund, Remmel and Wilson (2015); see ``macdonald.degree_bound``.  No
grid point is a pole of a side (see ``qt.poly_equal_by_grid``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from qtcomb import bijections, macdonald, recursion
from qtcomb.families import (
    FamilySpec,
    generate,
    qt_enumerator,
    qt_enumerator_by_content,
    qt_enumerator_by_runs,
)
from qtcomb.macdonald import partitions_of
from qtcomb.paths import (
    DecoratedLabelledPath,
    PolyominoPaths,
    knm_runs,
    polyomino_encode,
)
from qtcomb.qt import SYMBOLIC, EvalPoint, poly_equal_by_grid


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


def _rows(suite, rows):
    """Reports of ``rows``, each an (instance, checks) pair of thunks.  A
    row fails at its first check that returns a witness string, with that
    witness.  Otherwise it is inconclusive when a check returned an
    ``Inconclusive`` witness (the first such) or when it has no checks;
    else it passes.  Each report is timed from the previous one, so a
    row's time includes building it (a family or an enumerator, say)."""
    reports = []
    start = time.perf_counter()
    for instance, checks in rows:
        results = []
        for check in checks:
            results.append(check())
            if _failed(results[-1]):
                break
        undecided = [result for result in results if isinstance(result, Inconclusive)]
        if results and _failed(results[-1]):
            status, witness = "fail", results[-1]
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
        dinv = path.dinv()
        if image.area() != path.area():
            failed = "area"
        elif bijections.ndinv(image) != dinv:
            failed = "ndinv vs dinv"
        elif image.big_car_composition() != path.zero_composition():
            failed = "composition"
        elif stepped != bijections.composite_recursive_step(path):
            failed = "recursive step"
        elif path.size and dinv - stepped.dinv() != drop:
            failed = "dinv drop"
        else:
            continue
        return f"{failed} at {path!r}"
    return None


# -- ehh suite -----------------------------------------------------------


def suite_ehh(max_size=6):
    """The shuffle <-> two-car bijection: round trip, statistic
    preservation, and injectivity onto the decorated two-car family, the
    image set compared with the generated family member by member."""

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
    statistics and back again; else the first decorated two-car member
    that no image reaches, or the first member whose image the two-car
    generator does not produce; or None.

    ``ehh_forward`` checks each image's membership, so the images are a
    subset of the two-car family, and the pass over ``generate`` shows
    the converse, one image per generated member.  Equal sets with the
    statistics kept member by member give equal enumerators."""
    images = {}  # image -> the member it came from, in family order
    for path in family:
        image = bijections.ehh_forward(path, k, n, m)
        if image in images:
            return f"not injective at {path!r}"
        images[image] = path
        if (image.dinv(), image.area()) != (path.dinv(), path.area()):
            return f"statistics moved at {path!r}"
        if bijections.ehh_inverse(image, k, n, m) != path:
            return f"round trip failed at {path!r}"
    for member in generate(FamilySpec("pf2", m=m, n=n, k=k, ghost=True)):
        if images.pop(member, None) is None:
            return f"pf2 member not reached: {member!r}"
    if images:
        first = next(iter(images.values()))
        return f"image not generated as a pf2 member at {first!r}"
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
    """None when one convention survives; ``Inconclusive`` when several
    do, since the instances then single out none of them; else the whole
    report on one line."""
    if rep.passed:
        return None
    if len(rep.survivors) > 1:
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


def _ev(fn, *args):
    return lambda q0, t0: fn(*args, EvalPoint(q0, t0))


def _side(name, *args):
    """The named ``macdonald`` side at its arguments, bounded from its
    ``macdonald.SIDES`` rows."""
    return _ev(getattr(macdonald, name), *args), macdonald.side_bound(name, *args)


def _exact(poly):
    """A polynomial as a side, bounded by its exact degrees."""
    return poly.eval, (*poly.degree(), poly.total_degree())


def _shown(left, right):
    """The ``bound=`` of a check's row: the largest per-variable entry of
    its grid."""
    return max(0, *left[1][:2], *right[1][:2])


def _grid(witness, left, right):
    """A grid check: ``witness`` if the sides ``left`` and ``right`` differ
    on the grid of, in each variable and in total, the larger of their
    degree bounds and at least 0; None if they agree there."""
    bound = tuple(max(0, a, b) for a, b in zip(left[1], right[1]))
    return None if poly_equal_by_grid(left[0], right[0], bound) else witness


def _instances(max_size, k_cap=None):
    """(m, n, k) with 1 <= m+n <= max_size, by size, then m, then k:
    k <= min(m, n), or with ``k_cap`` k <= min(k_cap, n - 1)."""
    for total in range(1, max_size + 1):
        for m in range(total + 1):
            n = total - m
            k_max = min(m, n) if k_cap is None else min(k_cap, n - 1)
            for k in range(k_max + 1):
                yield m, n, k


def suite_identities(names=None, max_size=6):
    """Exact grid verification of the symmetric-function identities, each
    check on the grid of its derived degree bound; ``mac-hook`` and
    ``reciprocity`` run at most at their ``IDENTITY_CLAMPS`` size."""
    names = names or IDENTITY_NAMES
    reports = []
    if "mac-hook" in names:
        rows = _mac_hook_rows(min(max_size, IDENTITY_CLAMPS["mac-hook"]))
        reports += _rows("mac-hook", rows)
    if "reciprocity" in names:
        nmax = min(max_size, IDENTITY_CLAMPS["reciprocity"])
        reports += _rows("reciprocity", _reciprocity_rows(nmax))
    for name in names:
        if name in IDENTITY_PAIRS:
            reports += _rows(name, _pair_rows(*IDENTITY_PAIRS[name], max_size))
    return reports


def _mac_hook_rows(nmax):
    """One row per n; each check on the staircase of the exact degrees
    of its two sides, and the row shows the largest per-variable entry."""
    for n in range(1, nmax + 1):
        checks = [
            (
                f"mu={tuple(mu)} r={r}",
                (
                    _ev(macdonald.pair_htilde_hook, mu, r),
                    macdonald.pairing_degree(mu, ("hook", r)),
                ),
                (
                    _ev(macdonald.pleth_e, r, macdonald.b_minus_one(mu)),
                    macdonald.eigenvalue_degree(("e'", r), mu),
                ),
            )
            for mu in partitions_of(n)
            for r in range(n)
        ]
        shown = max(_shown(left, right) for _, left, right in checks)
        yield f"n={n} bound={shown}", [partial(_grid, *c) for c in checks]


def _reciprocity_rows(nmax):
    """One row per size pair; each (alpha, beta) check compares the two
    sides as polynomials, computed at ``SYMBOLIC`` inside the check."""
    for a in range(1, nmax + 1):
        for b in range(1, nmax + 1):
            yield f"|alpha|={a} |beta|={b}", (
                partial(_reciprocal, alpha, beta)
                for alpha in partitions_of(a)
                for beta in partitions_of(b)
            )


def _reciprocal(alpha, beta):
    """None if H_alpha[M B_beta] Pi_beta and H_beta[M B_alpha] Pi_alpha
    are equal polynomials; else the pair and the first monomial where
    their coefficients differ, with both coefficients."""
    lhs = macdonald.reciprocity_side(alpha, beta, SYMBOLIC)
    rhs = macdonald.reciprocity_side(beta, alpha, SYMBOLIC)
    differ = (lhs - rhs).terms
    if not differ:
        return None
    e = min(differ)
    return (
        f"alpha={tuple(alpha)} beta={tuple(beta)} q^{e[0]} t^{e[1]}: "
        f"{lhs.terms.get(e, 0)} != {rhs.terms.get(e, 0)}"
    )


def _pair_rows(left, right, max_size):
    """Rows of one identity pair, named by its two ``macdonald`` sides."""
    witness = f"{left} != {right}"
    for m, n, k in _instances(max_size):
        sides = _side(left, m, n, k), _side(right, m, n, k)
        yield f"m={m} n={n} k={k} bound={_shown(*sides)}", [
            partial(_grid, witness, *sides)
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
                _side("lhs_delta_hh", m, n, k),
                _exact(enum),
            )
        ]


def _delta_content_rows(max_size):
    for m, n, k in _instances(max_size, DELTA_K_CAP):
        by_content = qt_enumerator_by_content(m, n, k)
        yield f"m={m} n={n} k={k}", [
            partial(
                _grid,
                f"content {lam}",
                _side("delta_lhs_by_content", m, n, k, lam),
                _exact(enum),
            )
            for lam, enum in sorted(by_content.items())
        ]


def suite_delta_ehh(max_size=4):
    """Finite checks of the three-run case of the generalized statement:
    scalar products against e_j h_a h_b versus shuffle-filtered paths."""
    return _rows("delta-ehh", _delta_ehh_rows(max_size))


def _delta_ehh_rows(max_size):
    for m, n, k in _instances(max_size, DELTA_K_CAP):
        family = "pld" if m else "ld"
        for j in range(n + 1):
            for a in range(n - j + 1):
                b = n - j - a
                if a < b:
                    continue
                enum = qt_enumerator_by_runs(m, n, k, knm_runs(j, j + a, j + b))
                yield f"m={m} n={n} k={k} e{j}h{a}h{b}", [
                    partial(
                        _grid,
                        f"delta_pairing != {family} enumerator",
                        _side("lhs_delta_ehh", m, n, k, j, a, b),
                        _exact(enum),
                    )
                ]


# -- engine self-validation ------------------------------------------------


def suite_engine():
    pt = EvalPoint(3, 101)
    e_h_checks = (
        partial(
            _grid,
            f"n={n} d={d}",
            _side("pair_delta_e_d", d, n),
            (_ev(macdonald.pair_en_eh, n, d), (0, 0, 0)),  # an integer constant
        )
        for n in range(1, 6)
        for d in range(n + 1)
    )
    rows = [
        (f"basis round trips d<={ENGINE_DEGREE}", [_basis_round_trips]),
        ("normalizations n<=5", [partial(_normalizations, SYMBOLIC)]),
        ("q-t swap symmetry", [partial(_swap_symmetry, pt)]),
        ("e-h Delta pairing n<=5", e_h_checks),
    ]
    return _rows("engine", rows)


def _basis_round_trips():
    """The first monomial function that a round trip through the h, e or
    p basis does not give back, or None: ``_m_to_basis_matrix`` composed
    with ``_basis_to_m_matrix`` must be the identity."""
    for d in range(ENGINE_DEGREE + 1):
        for basis in ("h", "e", "p"):
            to_basis = macdonald._m_to_basis_matrix(basis, d)
            to_m = macdonald._basis_to_m_matrix(basis, d)
            for lam in partitions_of(d):
                back = {}
                for nu, c in to_basis[lam].items():
                    for mu, c2 in to_m[nu].items():
                        back[mu] = back.get(mu, 0) + c * c2
                if {mu: c for mu, c in back.items() if c} != {lam: 1}:
                    return f"degree {d} basis {basis} at {tuple(lam)}"
    return None


def _normalizations(pt):
    """The first mu where <H_mu, s_(n)> is not 1 or <H_mu, s_(1^n)> is not
    T_mu at ``pt`` (as polynomials at ``SYMBOLIC``), or None."""
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
