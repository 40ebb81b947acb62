"""Verification suites with machine-readable reports.

Each suite runs a batch of exact checks and returns a list of
VerificationReport rows.  Reports are deterministic: rows are emitted in
a fixed order and the comparable portion carries no wall-clock data
(timings live in a separate field that serializers skip).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from qtcomb import bijections, macdonald, recursion
from qtcomb.families import (
    FamilySpec,
    generate,
    qt_enumerator,
    qt_enumerator_by_content,
)
from qtcomb.macdonald import partitions_of
from qtcomb.qt import QtPolynomial, poly_equal_by_grid
from qtcomb.paths import DecoratedLabelledPath


@dataclass
class VerificationReport:
    """One checked instance: pass/fail plus a witness on failure."""

    suite: str
    instance: str
    status: str  # "pass" | "fail" | "skip"
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
                    yield (
                        _report(
                            "ehh",
                            f"k={k} n={n} m={m} members={count}",
                            not bad,
                            bad,
                        )
                    )

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


# -- identity suites ---------------------------------------------------------


def _grid_bound(n):
    """Per-variable degree bound for objects of size n."""
    return max(n * (n - 1) // 2, 1)


def _ev(fn, *args):
    from qtcomb.qt import EvalPoint

    return lambda q0, t0: fn(*args, EvalPoint(q0, t0))


IDENTITY_NAMES = (
    "mac-hook",
    "reciprocity",
    "new-id",
    "delta-hh-sum",
    "deltahh-ehh",
    "ehh-sum",
)


def suite_identities(names=None, max_size=6, grid_bound=None):
    """Exact grid verification of the symmetric-function identities."""
    names = names or IDENTITY_NAMES
    reports = []
    if "mac-hook" in names:
        reports += _suite_mac_hook(min(max_size, 5), grid_bound)
    if "reciprocity" in names:
        reports += _suite_reciprocity(min(max_size, 4), grid_bound)
    pairs = {
        "new-id": (macdonald.mid_delta_hn, macdonald.rhs_nabla_ehh),
        "delta-hh-sum": (macdonald.sum_r_lhs, macdonald.mid_delta_hn),
        "deltahh-ehh": (macdonald.lhs_delta_hh, macdonald.rhs_nabla_ehh),
        "ehh-sum": (macdonald.sum_r_lhs, macdonald.rhs_nabla_ehh),
    }
    for name in names:
        if name in pairs:
            reports += _suite_identity_pair(name, *pairs[name], max_size, grid_bound)
    return reports


def _suite_mac_hook(nmax, grid_bound):
    def run():
        for n in range(1, nmax + 1):
            bound = grid_bound or _grid_bound(n)
            bad = ""
            for mu in partitions_of(n):
                for r in range(n):
                    ok = poly_equal_by_grid(
                        _ev(macdonald.pair_htilde_hook, mu, r),
                        _ev(macdonald.pleth_e, r, macdonald.b_minus_one(mu)),
                        bound,
                    )
                    if not ok:
                        bad = f"mu={tuple(mu)} r={r}"
                        break
                if bad:
                    break
            yield _report("mac-hook", f"n={n} bound={bound}", not bad, bad)

    return _timed(run)


def _reciprocity_side(alpha, m_b_beta, beta, pt):
    """H_alpha[M B_beta] Pi_beta, one side of Macdonald reciprocity."""
    return macdonald.htilde_at_alphabet(alpha, m_b_beta, pt) * macdonald.pi_mu(
        beta, pt
    )


def _suite_reciprocity(nmax, grid_bound):
    def run():
        for a in range(1, nmax + 1):
            for b in range(1, nmax + 1):
                # q-degree of H[M B] Pi: coefficient degree + plethysm + Pi
                bound = grid_bound or (
                    a * (a - 1) // 2 + a * b + b * (b - 1) // 2
                )
                bad = ""
                for alpha in partitions_of(a):
                    m_b_alpha = macdonald.m_alphabet() * macdonald.b_alphabet(alpha)
                    for beta in partitions_of(b):
                        m_b_beta = macdonald.m_alphabet() * macdonald.b_alphabet(beta)
                        ok = poly_equal_by_grid(
                            _ev(_reciprocity_side, alpha, m_b_beta, beta),
                            _ev(_reciprocity_side, beta, m_b_alpha, alpha),
                            bound,
                        )
                        if not ok:
                            bad = f"alpha={tuple(alpha)} beta={tuple(beta)}"
                            break
                    if bad:
                        break
                yield _report("reciprocity", f"|alpha|={a} |beta|={b}", not bad, bad)

    return _timed(run)


def _suite_identity_pair(name, left, right, max_size, grid_bound):
    def run():
        for total in range(1, max_size + 1):
            for m in range(total + 1):
                n = total - m
                for k in range(min(m, n) + 1):
                    bound = grid_bound or _grid_bound(total)
                    ok = poly_equal_by_grid(
                        _ev(left, m, n, k), _ev(right, m, n, k), bound
                    )
                    yield _report(name, f"m={m} n={n} k={k} bound={bound}", ok)

    return _timed(run)


# -- Delta conjecture, tiny sizes ---------------------------------------------


def suite_delta_tiny(max_size=5, k_cap=2):
    """(i) the two-part case against the two-car model; (ii) the content-
    refined statement against partially labelled paths."""

    def run():
        for total in range(1, max_size + 1):
            for m in range(total + 1):
                n = total - m
                for k in range(min(m, n) + 1):
                    enum = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k))
                    bound = _grid_bound(total)
                    ok = poly_equal_by_grid(
                        _ev(macdonald.lhs_delta_hh, m, n, k),
                        lambda q0, t0: enum.eval(q0, t0),
                        bound,
                    )
                    yield _report("delta-hh-model", f"m={m} n={n} k={k}", ok)
        for total in range(1, max_size + 1):
            for m in range(total + 1):
                n = total - m
                if n == 0:
                    continue
                for k in range(min(k_cap, n - 1) + 1):
                    by_content = qt_enumerator_by_content(m, n, k)
                    bound = _grid_bound(total)
                    bad = ""
                    for lam, enum in sorted(by_content.items()):
                        ok = poly_equal_by_grid(
                            _ev(macdonald.delta_lhs_by_content, m, n, k, lam),
                            lambda q0, t0: enum.eval(q0, t0),
                            bound,
                        )
                        if not ok:
                            bad = f"content {lam}"
                            break
                    yield (
                        _report(
                            "delta-content", f"m={m} n={n} k={k}", not bad, bad
                        )
                    )

    return _timed(run)


def suite_delta_ehh(max_size=4):
    """Finite checks of the three-run case of the generalized statement:
    scalar products against e_j h_a h_b versus shuffle-filtered paths."""

    def run():
        from qtcomb.paths import word_in_runs

        for total in range(1, max_size + 1):
            for m in range(total + 1):
                n = total - m
                if n == 0:
                    continue
                for k in range(min(2, n - 1) + 1):
                    for j in range(n + 1):
                        for a in range(n - j + 1):
                            b = n - j - a
                            if a < b:
                                continue
                            runs = [
                                (1, j, True),
                                (j + 1, j + a, False),
                                (j + a + 1, n, False),
                            ]
                            spec = FamilySpec(
                                "pld" if m else "ld",
                                m=m,
                                n=n,
                                k=k,
                                content=tuple([1] * n),
                            )
                            enum = QtPolynomial(
                                ((path.dinv(), path.area()), 1)
                                for path in generate(spec)
                                if word_in_runs(path.reading_word(), runs)
                            )
                            # <Delta_{h_m} Delta'_{e_(n-k-1)} e_n, e_j h_a h_b>
                            ok = poly_equal_by_grid(
                                _ev(
                                    macdonald.delta_pairing,
                                    n,
                                    (("h", m), ("e'", n - k - 1)),
                                    ("eh", (j,), (a, b)),
                                ),
                                lambda q0, t0: enum.eval(q0, t0),
                                _grid_bound(total),
                            )
                            yield (
                                _report(
                                    "delta-ehh",
                                    f"m={m} n={n} k={k} e{j}h{a}h{b}",
                                    ok,
                                )
                            )

    return _timed(run)


# -- engine self-validation ------------------------------------------------


def suite_engine(degree_cap=7):
    def run():
        from fractions import Fraction

        from qtcomb.qt import EvalPoint

        pt = EvalPoint(3, 101)

        bad = ""
        for d in range(degree_cap + 1):
            for basis in ("h", "e", "p"):
                for lam in partitions_of(d):
                    f = macdonald.SymFun(d, "m", {lam: Fraction(1)})
                    if f.convert_to(basis).convert_to("m") != f:
                        bad = f"degree {d} basis {basis} at {tuple(lam)}"
        yield _report("engine", f"basis round trips d<={degree_cap}", not bad, bad)

        bad = ""
        for n in range(1, 6):
            for mu in partitions_of(n):
                if macdonald.pair_htilde_h(mu, (n,), pt) != 1:
                    bad = f"<H,{'s_(n)'}> at {tuple(mu)}"
                if macdonald.pair_htilde_hook(mu, n - 1, pt) != macdonald.t_mu(
                    mu, pt
                ):
                    bad = f"<H,s_(1^n)> at {tuple(mu)}"
        yield _report("engine", "normalizations n<=5", not bad, bad)

        bad = ""
        for n in range(1, 6):
            for d in range(n + 1):
                ok = poly_equal_by_grid(
                    _ev(macdonald.pair_delta_e_d, d, n),
                    lambda q0, t0: macdonald.pair_en_eh(n, d, None),
                    _grid_bound(n),
                )
                if not ok:
                    bad = f"n={n} d={d}"
        yield _report("engine", "e-h Delta pairing n<=5", not bad, bad)

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

    return _timed(run)


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
        from qtcomb.paths import PolyominoPaths, polyomino_encode

        p = EXAMPLE_LABELLED
        primary, secondary = p.dinv_pairs()
        yield (
            _report(
                "examples",
                "labelled path statistics",
                p.area() == 8
                and p.dinv() == 6
                and primary == [(2, 7), (4, 7)]
                and secondary == [(2, 6), (3, 4), (3, 8), (5, 8)]
                and p.reading_word() == (2, 2, 4, 1, 6, 1, 5, 3),
            )
        )
        yield (
            _report(
                "examples",
                "zero composition",
                EXAMPLE_ZEROCOMP.zero_composition() == (3, 1, 2, 1),
            )
        )
        yield (
            _report(
                "examples",
                "big car composition",
                EXAMPLE_TWOCAR.big_car_composition() == (3, 3, 1),
            )
        )
        word = polyomino_encode(
            PolyominoPaths(6, 11, EXAMPLE_POLYOMINO_RED, EXAMPLE_POLYOMINO_GREEN)
        )
        yield (
            _report(
                "examples",
                "polyomino codec (18-letter word)",
                str(word) == EXAMPLE_POLYOMINO_WORD and word.area() == 11,
                str(word),
            )
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
