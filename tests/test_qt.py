"""Polynomial arithmetic, q-analogues and grid equality."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qtcomb.qt import (
    SYMBOLIC,
    InfeasibleGridError,
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
    # all q-primes below the start of the t-list
    assert not set(q_primes(25)) & set(t_primes(200))
    assert q_primes(3) == (2, 3, 5) and t_primes(3) == (101, 103, 107)


def test_poly_equal_by_grid_basics():
    f = q_binomial(3, 1)
    assert poly_equal_by_grid(f.eval, f.eval, (3, 3))
    g = QtPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    h = QtPolynomial({(0, 0): 1, (1, 0): 1, (0, 2): 1})
    assert not poly_equal_by_grid(g.eval, h.eval, (2, 2))


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_grid_equality_matches_coefficients(a, b):
    assert poly_equal_by_grid(a.eval, b.eval, (4, 4)) == (a == b)


def test_pole_skip():
    f = QtPolynomial({(1, 0): 1, (0, 1): 1})

    def with_pole(q0, t0):
        if (q0, t0) == (2, 101):
            raise PoleError("test pole")
        return f.eval(q0, t0)

    assert poly_equal_by_grid(with_pole, f.eval, (2, 2))

    def always_pole(q0, t0):
        raise PoleError("always")

    with pytest.raises(InfeasibleGridError):
        poly_equal_by_grid(always_pole, f.eval, (1, 1))


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
        poly_equal_by_grid(lambda q0, t0: float(f.eval(q0, t0)), f.eval, (1, 1))
    with pytest.raises(TypeError):
        poly_equal_by_grid(f.eval, lambda q0, t0: q0 / 1, (1, 1))


def test_grid_hands_out_int_points():
    seen = []

    def record(q0, t0):
        seen.append((q0, t0))
        return 0

    assert poly_equal_by_grid(record, lambda q0, t0: 0, (1, 1))
    assert seen == [(2, 101), (2, 103), (3, 101), (3, 103)]
    assert all(type(c) is int for point in seen for c in point)


def test_negative_degree_bound_rejected():
    # a bound of -1 would check no grid point and still read as equal
    for bound in ((-1, -1), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="degree bound"):
            poly_equal_by_grid(lambda q0, t0: 0, lambda q0, t0: 1, bound)


def test_grid_is_one_more_than_each_entry():
    seen = []

    def record(q0, t0):
        seen.append((q0, t0))
        return 0

    assert poly_equal_by_grid(record, lambda q0, t0: 0, (1, 3))
    assert seen == [(q0, t0) for q0 in q_primes(2) for t0 in t_primes(4)]


@pytest.mark.parametrize("q_deg, t_deg", [(0, 4), (2, 1), (4, 0), (3, 3)])
def test_each_variable_needs_its_own_entry(q_deg, t_deg):
    # each difference has degree q_deg in q or t_deg in t, and vanishes on
    # every point of the grid one below in that variable
    def zero(q0, t0):
        return 0

    def in_q(q0, t0):
        return prod(q0 - p for p in q_primes(q_deg))

    def in_t(q0, t0):
        return prod(t0 - p for p in t_primes(t_deg))

    assert not poly_equal_by_grid(in_q, zero, (q_deg, t_deg))
    assert not poly_equal_by_grid(in_t, zero, (q_deg, t_deg))
    if q_deg:
        assert poly_equal_by_grid(in_q, zero, (q_deg - 1, t_deg))
    if t_deg:
        assert poly_equal_by_grid(in_t, zero, (q_deg, t_deg - 1))
