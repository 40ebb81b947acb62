"""Polynomial arithmetic, q-analogues and grid equality."""

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qtcomb.qt import (
    SYMBOLIC,
    PoleError,
    QtPolynomial,
    exact_quotient,
    poly_equal_by_grid,
    q_binomial,
    q_factorial,
    q_int,
    q_primes,
    t_primes,
)


def box_qbinomial(n, k):
    """Independent oracle: Gaussian binomial as the generating function of
    partitions inside a k x (n-k) box."""
    if n < k:
        return QtPolynomial.zero()
    rows, cols = k, n - k

    def rec(remaining_rows, max_part):
        if remaining_rows == 0:
            return [0]
        sizes = []
        for part in range(max_part + 1):
            for rest in rec(remaining_rows - 1, part):
                sizes.append(part + rest)
        return sizes

    out = QtPolynomial.zero()
    for size in rec(rows, cols):
        out += QtPolynomial.monomial(1, size, 0)
    return out


polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-9, 9),
    max_size=6,
).map(QtPolynomial)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QtPolynomial.zero()
    assert a * QtPolynomial.one() == a


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_exact_div_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


@settings(max_examples=40, deadline=None)
@given(polys)
def test_a_polynomial_at_symbolic_is_itself(a):
    assert a.eval(*SYMBOLIC) == a


def _term_by_term(poly, q0, t0):
    """The value at (q0, t0) summed over the terms, each with its powers."""
    total = 0
    for (eq, et), c in poly.terms.items():
        total += c * q0**eq * t0**et
    return total


HORNER_POINTS = ((2, 101), (-3, 0), (Fraction(2, 3), Fraction(-5, 7)), SYMBOLIC)

HORNER_CASES = (
    QtPolynomial.zero(),
    QtPolynomial.const(7),
    QtPolynomial.const(-4),
    QtPolynomial.monomial(-5, 3, 2),
    QtPolynomial({(0, 0): -1, (2, 0): 3, (1, 1): -2, (0, 4): -7}),
    QtPolynomial({(40, 0): 1, (0, 35): 1, (3, 30): -1}),
)


def _same(got, want):
    return got == want and type(got) is type(want)


@pytest.mark.parametrize("poly", HORNER_CASES, ids=repr)
def test_horner_eval_is_the_term_by_term_sum(poly):
    for point in HORNER_POINTS:
        assert _same(poly.eval(*point), _term_by_term(poly, *point)), point


@settings(max_examples=60, deadline=None)
@given(polys)
def test_horner_eval_matches_the_terms_at_every_kind_of_point(a):
    for point in HORNER_POINTS:
        assert _same(a.eval(*point), _term_by_term(a, *point)), point


def test_horner_rows_take_no_part_in_equality_hash_or_repr():
    terms = {(40, 0): 1, (0, 35): 1, (3, 30): -1}
    evaluated, fresh = QtPolynomial(terms), QtPolynomial(terms)
    evaluated.eval(2, 101)
    assert hasattr(evaluated, "_rows") and not hasattr(fresh, "_rows")
    assert evaluated == fresh
    assert hash(evaluated) == hash(fresh)
    assert repr(evaluated) == repr(fresh)


def test_horner_rows_store_each_row_over_its_own_span():
    monomial = QtPolynomial.monomial(-5, 3, 2)
    monomial.eval(2, 101)
    assert [coeffs for _, _, coeffs in monomial._rows] == [(-5,)]
    sparse = QtPolynomial({(40, 0): 1, (0, 35): 1, (3, 30): -1})
    sparse.eval(2, 101)
    assert [coeffs for _, _, coeffs in sparse._rows] == [(1,), (-1,), (1,)]


def test_exact_quotient_of_a_polynomial_is_coefficientwise():
    q, t = SYMBOLIC
    assert exact_quotient(6 * q * t - 4, 2) == 3 * q * t - 2
    with pytest.raises(ValueError, match="not divisible"):
        exact_quotient(6 * q + 3, 2)
    assert exact_quotient(7, 2) == Fraction(7, 2)


def test_q_int_and_factorial():
    assert q_int(0) == QtPolynomial.zero()
    assert q_int(3) == QtPolynomial({(0, 0): 1, (1, 0): 1, (2, 0): 1})
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_binomial_small():
    assert q_binomial(2, 1) == QtPolynomial({(0, 0): 1, (1, 0): 1})
    assert q_binomial(1, 2) == QtPolynomial.zero()
    # frozen from the box-partition oracle
    assert box_qbinomial(4, 2) == QtPolynomial(
        {(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1, (4, 0): 1}
    )
    assert q_binomial(4, 2) == box_qbinomial(4, 2)


@pytest.mark.parametrize("n", range(0, 7))
def test_q_binomial_against_box_oracle(n):
    for k in range(n + 1):
        assert q_binomial(n, k) == box_qbinomial(n, k)
        assert q_binomial(n, k) == q_binomial(n, n - k)
        import math

        assert q_binomial(n, k).eval(1, 1) == math.comb(n, k)


def test_grid_primes_disjoint_at_desk_scale():
    # the t-values start above 100 and above the largest q-value
    for count in (1, 25, 26, 40):
        qs = q_primes(count)
        assert not set(qs) & set(t_primes(200, qs[-1]))
    assert q_primes(3) == (2, 3, 5) and t_primes(3, 5) == (101, 103, 107)
    assert q_primes(26)[-1] == 101 and t_primes(3, 101) == (103, 107, 109)


def test_poly_equal_by_grid_basics():
    f = q_binomial(3, 1)
    assert poly_equal_by_grid(f.eval, f.eval, (3, 3, 6))
    g = QtPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    h = QtPolynomial({(0, 0): 1, (1, 0): 1, (0, 2): 1})
    assert not poly_equal_by_grid(g.eval, h.eval, (2, 2, 4))


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_grid_equality_matches_coefficients(a, b):
    assert poly_equal_by_grid(a.eval, b.eval, (4, 4, 8)) == (a == b)


def test_every_column_reads_the_same_t_values_above_the_largest_q():
    # 26 q-values reach 101, the first prime above 100, so every column
    # reads the t-values above it, and no point is a pair of equal primes
    for bound, counts in (((25, 2, 27), [3] * 26), ((25, 2, 26), [3] * 25 + [2])):
        seen = []

        def record(q0, t0):
            seen.append((q0, t0))
            return 0

        assert poly_equal_by_grid(record, _zero, bound)
        qs, ts = q_primes(26), (103, 107, 109)
        assert qs[-1] == 101 and len(seen) == sum(counts)
        assert seen == [(q0, t0) for q0, c in zip(qs, counts) for t0 in ts[:c]]


def test_a_pole_propagates():
    f = QtPolynomial({(1, 0): 1, (0, 1): 1})

    def with_pole(q0, t0):
        if (q0, t0) == (3, 103):
            raise PoleError("test pole")
        return f.eval(q0, t0)

    with pytest.raises(PoleError, match="test pole"):
        poly_equal_by_grid(with_pole, f.eval, (2, 2, 4))


def test_constant_hashes_like_its_int():
    for c in (0, 3, -2):
        poly = QtPolynomial.const(c)
        assert poly == c and hash(poly) == hash(c)
        assert {poly: "x"}.get(c) == "x"
        assert {c: "x"}.get(poly) == "x"
    assert {QtPolynomial.q(): "x"}.get(1) is None


def test_csv_rows_sorted():
    p = QtPolynomial({(1, 0): 2, (0, 1): 3, (0, 0): 1})
    assert p.csv_rows() == [(0, 0, 1), (0, 1, 3), (1, 0, 2)]


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        QtPolynomial({(-1, 0): 1})


def test_float_evaluator_rejected():
    f = QtPolynomial({(1, 0): 1})
    with pytest.raises(TypeError):
        poly_equal_by_grid(lambda q0, t0: float(f.eval(q0, t0)), f.eval, (1, 1, 2))
    with pytest.raises(TypeError):
        poly_equal_by_grid(f.eval, lambda q0, t0: q0 / 1, (1, 1, 2))


def test_grid_hands_out_int_points():
    seen = []

    def record(q0, t0):
        seen.append((q0, t0))
        return 0

    assert poly_equal_by_grid(record, lambda q0, t0: 0, (1, 1, 2))
    assert seen == [(2, 101), (2, 103), (3, 101), (3, 103)]
    assert all(type(c) is int for point in seen for c in point)


def test_negative_degree_bound_rejected():
    # a bound of -1 would check no grid point and still read as equal
    for bound in ((-1, -1, -2), (-1, 2, 1), (2, -1, 1), (2, 2, -1)):
        with pytest.raises(ValueError, match="degree bound"):
            poly_equal_by_grid(lambda q0, t0: 0, lambda q0, t0: 1, bound)


def test_grid_is_one_more_than_each_entry():
    seen = []

    def record(q0, t0):
        seen.append((q0, t0))
        return 0

    assert poly_equal_by_grid(record, lambda q0, t0: 0, (1, 3, 4))
    assert seen == [(q0, t0) for q0 in q_primes(2) for t0 in t_primes(4, 3)]


@pytest.mark.parametrize("q_deg, t_deg", [(0, 4), (2, 1), (4, 0), (3, 3)])
def test_each_variable_needs_its_own_entry(q_deg, t_deg):
    # each difference has degree q_deg in q or t_deg in t, and vanishes on
    # every point of the grid one below in that variable
    def zero(q0, t0):
        return 0

    def in_q(q0, t0):
        return prod(q0 - p for p in q_primes(q_deg))

    def in_t(q0, t0):
        return prod(t0 - p for p in t_primes(t_deg, q_primes(q_deg + 1)[-1]))

    assert not poly_equal_by_grid(in_q, zero, (q_deg, t_deg, q_deg + t_deg))
    assert not poly_equal_by_grid(in_t, zero, (q_deg, t_deg, q_deg + t_deg))
    if q_deg:
        assert poly_equal_by_grid(in_q, zero, (q_deg - 1, t_deg, q_deg - 1 + t_deg))
    if t_deg:
        assert poly_equal_by_grid(in_t, zero, (q_deg, t_deg - 1, q_deg + t_deg - 1))


def test_grid_is_a_staircase_under_the_total_degree():
    # column i checks min(t_deg, tot_deg - i) + 1 t-values
    seen = []

    def record(q0, t0):
        seen.append((q0, t0))
        return 0

    assert poly_equal_by_grid(record, lambda q0, t0: 0, (2, 3, 3))
    qs, ts = q_primes(3), t_primes(4, 5)
    assert seen == [(qs[i], t0) for i in range(3) for t0 in ts[: 4 - i]]


def _newton(i, j):
    """The product of (q - q_a) over the first i grid q-values and of
    (t - t_b) over the first j grid t-values of a grid whose q-values
    stay below 101: q^i t^j plus lower terms, zero on every grid column
    before i and every t-value before j."""

    def value(q0, t0):
        in_t = prod(t0 - p for p in t_primes(j, 100))
        return prod(q0 - p for p in q_primes(i)) * in_t

    return value


def _zero(q0, t0):
    return 0


def test_a_perturbation_past_the_total_degree_hides_off_the_staircase():
    # total degree d + 1 but within the per-variable bounds: it vanishes on
    # every point of the staircase for d, so only the total bound tells
    q_deg = t_deg = d = 3
    for i in range(1, d + 1):
        hidden = _newton(i, d + 1 - i)
        assert poly_equal_by_grid(hidden, _zero, (q_deg, t_deg, d))
        assert not poly_equal_by_grid(hidden, _zero, (q_deg, t_deg, d + 1))
        assert not poly_equal_by_grid(hidden, _zero, (q_deg, t_deg, q_deg + t_deg))


def test_the_staircase_catches_every_monomial_in_its_bound():
    # each monomial q^i t^j with i <= q_deg, j <= t_deg and i + j <= d, and
    # its Newton form, which vanishes on every point of the staircase
    # before (i, j) in its column and row
    for q_deg, t_deg, d in product(range(5), repeat=3):
        bound = (q_deg, t_deg, d)
        for i in range(q_deg + 1):
            for j in range(min(t_deg, d - i) + 1):
                assert not poly_equal_by_grid(_newton(i, j), _zero, bound), (i, j)
                monomial = QtPolynomial.monomial(1, i, j)
                assert not poly_equal_by_grid(monomial.eval, _zero, bound), (i, j)
