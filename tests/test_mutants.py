"""Known faults that the checks must catch.  A pass counts as a proof only
if the check could have failed, so each row plants one fault with
``monkeypatch`` and shows that its check finds nothing on the code as it
is and finds the fault once it is planted.

A row is (target, key, mutant, check, first finding, caches).
``mutant`` maps the original ``target[key]`` (a dict entry or a module
attribute) to the faulty one; ``check()`` returns its findings, empty
when all is well; and ``caches`` are the ``lru_cache`` tables that the
mutant reaches, cleared before and after it so that no value computed
under the fault outlives it.
"""

from math import prod

import pytest
from test_suites import _bounded_sides

from qtcomb import bijections, families, macdonald, qt, suites


def _content_row_off_by_one(original):
    """The ``delta_lhs_by_content`` row with Delta'_{e_(n-k)} in place of
    Delta'_{e_(n-k-1)}."""
    return lambda m, n, k, lam: [(0, n, (("h", m), ("e'", n - k)), ("h", lam), 1)]


def _delta_tiny_findings():
    """The rows of ``delta-tiny --max 4`` that do not pass."""
    return [r.row() for r in suites.suite_delta_tiny(4) if r.status != "pass"]


def _descents_reversed(original):
    """The descent rule read backwards: i+1 read before i."""
    return lambda word: original(word[::-1])


def _first_run_decreasing(original):
    """The increasing run 1..j of a (j, j+a, j+b)-shuffle read decreasing."""

    def runs(k, n, m):
        (lo, hi, _), *rest = original(k, n, m)
        return [(lo, hi, False), *rest]

    return runs


def _delta_ehh_findings():
    """The rows of ``delta-ehh --max 2`` that do not pass."""
    return [r.row() for r in suites.suite_delta_ehh(2) if r.status != "pass"]


def _total_one_too_small(original):
    def bound(name, *args):
        q_deg, t_deg, tot_deg = original(name, *args)
        return q_deg, t_deg, tot_deg - 1

    return bound


def _total_bound_findings():
    """The sides whose total-degree bound is below the total degree of the
    exact polynomial they equal, the check of
    ``test_suites.test_total_degree_covers_the_equal_enumerator`` at
    m+n <= 3."""
    return [
        what
        for what, side, poly in _bounded_sides(3)
        if side[1][2] < poly.total_degree()
    ]


def _drop_last_t_value(original):
    return lambda count, q_max: original(count - 1, q_max)


def _planted_perturbation_findings():
    """The grid check of mid_delta_hn(2, 3, 0), bound (6, 6, 6), against
    itself plus the product of (t - t_b) over its first six t-values:
    degree 6 in t and in total, inside the bound, and zero on every grid
    point but the last t-value of column 0.  A finding if the grid
    misses it."""
    side, bound = suites._side("mid_delta_hn", 2, 3, 0)
    assert bound == (6, 6, 6)

    def planted(q0, t0):
        return side(q0, t0) + prod(t0 - p for p in (101, 103, 107, 109, 113, 127))

    caught = not qt.poly_equal_by_grid(planted, side, bound)
    return [] if caught else ["perturbation of mid_delta_hn(2, 3, 0) missed"]


def _phi_is_the_identity(original):
    return lambda seq: seq


def _ndinv_findings():
    """The rows of ``ndinv --max 3`` that do not pass."""
    return [r.row() for r in suites.suite_ndinv(3) if r.status != "pass"]


MUTANTS = [
    pytest.param(
        macdonald.SIDES,
        "delta_lhs_by_content",
        _content_row_off_by_one,
        _delta_tiny_findings,
        ("delta-content", "m=0 n=1 k=0", "fail", "content (1,)"),
        (macdonald._side, macdonald.side_bound),
        id="operator-row-off-by-one",
    ),
    pytest.param(
        families,
        "_descents",
        _descents_reversed,
        _delta_tiny_findings,
        ("delta-content", "m=0 n=2 k=0", "fail", "content (2,)"),
        (families.qt_enumerators_by_descent,),
        id="descent-rule-reversed",
    ),
    pytest.param(
        suites,
        "knm_runs",
        _first_run_decreasing,
        _delta_ehh_findings,
        ("delta-ehh", "m=0 n=2 k=0 e2h0h0", "fail", "delta_pairing != ld enumerator"),
        (),
        id="run-direction-reversed",
    ),
    pytest.param(
        macdonald,
        "side_bound",
        _total_one_too_small,
        _total_bound_findings,
        ("lhs_delta_hh", 0, 1, 0),
        (macdonald.side_bound,),
        id="total-bound-one-too-small",
    ),
    pytest.param(
        qt,
        "t_primes",
        _drop_last_t_value,
        _planted_perturbation_findings,
        "perturbation of mid_delta_hn(2, 3, 0) missed",
        (qt._primes_from,),
        id="grid-short-of-a-t-value",
    ),
    pytest.param(
        bijections,
        "phi",
        _phi_is_the_identity,
        _ndinv_findings,
        ("ndinv", "m=0 n=0 members=1", "fail", "recursive step at Path(0; 0)"),
        (bijections.eta_inverse, bijections.psi, bijections._verdict),
        id="composed-step-without-phi",
    ),
]


def _clear(caches):
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("target, key, mutant, check, first, caches", MUTANTS)
def test_a_planted_fault_is_found(
    monkeypatch, target, key, mutant, check, first, caches
):
    assert check() == []
    _clear(caches)
    try:
        if isinstance(target, dict):
            monkeypatch.setitem(target, key, mutant(target[key]))
        else:
            monkeypatch.setattr(target, key, mutant(getattr(target, key)))
        findings = check()
    finally:
        monkeypatch.undo()
        _clear(caches)
    assert findings and findings[0] == first
