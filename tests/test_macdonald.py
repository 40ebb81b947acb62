"""The symmetric-function engine: partitions, plethysm, Macdonald
polynomials, pairings, and the identity evaluators."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from qtcomb import macdonald, suites
from qtcomb.families import FamilySpec, qt_enumerator
from qtcomb.macdonald import (
    Partition,
    b_alphabet,
    bracket_q,
    delta_lhs_by_content,
    delta_pairing,
    hall_pair,
    htilde,
    htilde_at_alphabet,
    htilde_mcoeff,
    lhs_delta_hh,
    m_alphabet,
    mid_delta_hn,
    pair_delta_e_d,
    pair_en_eh,
    pair_htilde_h,
    pair_htilde_hook,
    partition_invariants,
    partitions_of,
    pi_mu,
    pleth_e,
    pleth_h,
    pleth_p,
    reciprocity_side,
    rhs_nabla_ehh,
    sum_r_lhs,
    t_mu,
    w_mu,
)
from qtcomb.qt import SYMBOLIC, EvalPoint, QtPolynomial, poly_equal_by_grid, q_int

PT = EvalPoint(Fraction(2), Fraction(101))


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_cell_statistics(self):
        mu = Partition((3, 2))
        assert mu.arm((0, 0)) == 2 and mu.leg((0, 0)) == 1
        assert mu.coarm((1, 1)) == 1 and mu.coleg((1, 1)) == 1
        assert mu.conjugate() == Partition((2, 2, 1))

    def test_partitions_of(self):
        assert len(partitions_of(5)) == 7
        assert partitions_of(0) == (Partition(),)


class TestInvariants:
    def test_b_21(self):
        B = b_alphabet(Partition((2, 1)))
        assert B.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        assert B == 1 + QtPolynomial.q() + QtPolynomial.t()

    def test_alphabets_are_polynomials(self):
        q, t = QtPolynomial.q(), QtPolynomial.t()
        assert bracket_q(3) == q_int(3)
        assert m_alphabet() == (1 - q) * (1 - t)
        # equal polynomials built in different ways hash equal
        assert hash(m_alphabet()) == hash((1 - q) * (1 - t))
        assert hash(b_alphabet(Partition((2, 1))) - 1) == hash(q + t)

    def test_t_22(self):
        assert t_mu(Partition((2, 2)), SYMBOLIC) == QtPolynomial.monomial(1, 2, 2)

    def test_w_1(self):
        one = Partition((1,))
        q, t = QtPolynomial.q(), QtPolynomial.t()
        assert w_mu(one, SYMBOLIC) == (1 - t) * (1 - q)

    def test_empty_partition(self):
        B, T, Pi, w, M = partition_invariants(Partition(), PT)
        assert not B.terms and T == 1 and Pi == 1 and w == 1

    def test_symbolic_vs_point(self):
        mu = Partition((3, 1))
        assert w_mu(mu, SYMBOLIC).eval(PT.q0, PT.t0) == w_mu(mu, PT)
        assert pi_mu(mu, SYMBOLIC).eval(PT.q0, PT.t0) == pi_mu(mu, PT)


class TestPlethysm:
    def test_e2_of_two_letters(self):
        # e_2 of 1 + q is q
        assert pleth_e(2, b_alphabet(Partition((2,))), PT) == PT.q0

    def test_e1_of_m(self):
        assert pleth_e(1, m_alphabet(), PT) == (1 - PT.q0) * (1 - PT.t0)

    def test_e1_drop_unit(self):
        B1 = b_alphabet(Partition((2, 1))) - 1
        assert pleth_e(1, B1, PT) == PT.q0 + PT.t0

    def test_negative_index(self):
        assert pleth_e(-1, m_alphabet(), PT) == 0
        assert pleth_h(-1, m_alphabet(), PT) == 0
        assert pleth_h(0, m_alphabet(), PT) == 1

    def test_alphabet_product(self):
        lhs = (m_alphabet() * bracket_q(2)).eval(PT.q0, PT.t0)
        rhs = (1 - PT.q0) * (1 - PT.t0) * (1 + PT.q0)
        assert lhs == rhs


def newton_e_h(r, alphabet, pt):
    """Reference e_r, h_r of an alphabet by Newton's recurrence from the
    power sums, dividing by i at each step."""
    p = [None] + [pleth_p(j, alphabet, pt) for j in range(1, r + 1)]
    e, h = [Fraction(1)], [Fraction(1)]
    for i in range(1, r + 1):
        e.append(
            sum((-1) ** (j - 1) * p[j] * e[i - j] for j in range(1, i + 1)) / i
        )
        h.append(sum(p[j] * h[i - j] for j in range(1, i + 1)) / i)
    return e[r], h[r]


alphabets = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-3, 3).filter(bool),
    max_size=5,
).map(QtPolynomial)
coords = st.one_of(
    st.integers(-7, 7),
    st.fractions(min_value=-7, max_value=7, max_denominator=9),
)


@settings(max_examples=150, deadline=None)
@given(alphabets, st.integers(0, 8), coords, coords)
def test_pleth_matches_newton(alphabet, r, q0, t0):
    pt = EvalPoint(q0, t0)
    pleth_e.cache_clear()
    e, h = pleth_e(r, alphabet, pt), pleth_h(r, alphabet, pt)
    assert (e, h) == newton_e_h(r, alphabet, pt)
    assert h == (-1) ** r * pleth_e(r, -alphabet, pt)
    if isinstance(q0, int) and isinstance(t0, int):
        assert type(e) is int and type(h) is int


def filling_oracle(mu, lam):
    """Independent brute-force filling enumerator for tiny diagrams: all
    functions from cells to values with the stated content, re-deriving
    the statistics from scratch."""
    mu, lam = Partition(mu), Partition(lam)
    cells = [(r, c) for r in range(len(mu)) for c in range(mu[r])]
    content = [i for i, mult in enumerate(lam, 1) for _ in range(mult)]
    out = QtPolynomial.zero()
    for perm in _perms(content):
        sigma = dict(zip(cells, perm))
        maj = sum(
            mu.leg((r, c)) + 1
            for (r, c) in cells
            if r > 0 and sigma[(r, c)] > sigma[(r - 1, c)]
        )
        # reading order: rows top to bottom, left to right
        order = sorted(cells, key=lambda rc: (-rc[0], rc[1]))
        pos = {cell: i for i, cell in enumerate(order)}
        inversions = 0
        for u in cells:
            for v in cells:
                if pos[u] >= pos[v]:
                    continue
                same_row = u[0] == v[0]
                below_left = v[0] == u[0] - 1 and v[1] < u[1]
                if (same_row or below_left) and sigma[u] > sigma[v]:
                    inversions += 1
        arm_sum = sum(
            mu.arm((r, c))
            for (r, c) in cells
            if r > 0 and sigma[(r, c)] > sigma[(r - 1, c)]
        )
        out += QtPolynomial.monomial(1, inversions - arm_sum, maj)
    return out


def _perms(items):
    from itertools import permutations

    return set(permutations(items))


class TestHtilde:
    def test_degree_one(self):
        assert htilde_mcoeff((1,), (1,)) == QtPolynomial.one()

    def test_degree_two_against_oracle(self):
        assert htilde_mcoeff((2,), (1, 1)) == filling_oracle((2,), (1, 1))
        assert htilde_mcoeff((2,), (1, 1)) == QtPolynomial(
            {(0, 0): 1, (1, 0): 1}
        )
        assert htilde_mcoeff((1, 1), (1, 1)) == QtPolynomial(
            {(0, 0): 1, (0, 1): 1}
        )

    def test_degree_three_against_oracle(self):
        for mu in partitions_of(3):
            for lam in partitions_of(3):
                assert htilde_mcoeff(tuple(mu), tuple(lam)) == filling_oracle(
                    mu, lam
                ), (mu, lam)

    def test_top_coefficient_is_one(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert htilde_mcoeff(tuple(mu), (n,)) == QtPolynomial.one()

    def test_htilde_at_point(self):
        f = htilde(Partition((2,)), PT)
        assert f == {(2,): 1, (1, 1): 1 + PT.q0}


def _variable_monomials(basis, part, d):
    """f_part(x_1..x_d) for f = h, e or p, as {exponent vector: coefficient}."""
    if basis == "h":
        picks = combinations_with_replacement(range(d), part)
    elif basis == "e":
        picks = combinations(range(d), part)
    else:
        picks = ((i,) * part for i in range(d))
    return {tuple(pick.count(i) for i in range(d)): 1 for pick in picks}


def _expand_in_variables(factors, d):
    """The product of f_part(x_1..x_d) over the (f, part) factors, multiplied
    out monomial by monomial."""
    out = {(0,) * d: 1}
    for basis, part in factors:
        factor = _variable_monomials(basis, part, d)
        new = {}
        for a, c in out.items():
            for b, c2 in factor.items():
                key = tuple(x + y for x, y in zip(a, b))
                new[key] = new.get(key, 0) + c * c2
        out = new
    return out


def _m_coords(factors, d):
    """m-coordinates of a product of degree d, read off the product
    multiplied out in d variables: the coefficient of m_mu is that of
    x^mu."""
    expanded = _expand_in_variables(factors, d)
    padded = {mu: mu + (0,) * (d - len(mu)) for mu in partitions_of(d)}
    return {mu: expanded[x] for mu, x in padded.items() if x in expanded}


def _dominates(lam, mu):
    """lam >= mu in dominance order (partitions of one size)."""
    return all(
        sum(lam[:i]) >= sum(mu[:i]) for i in range(1, max(len(lam), len(mu)) + 1)
    )


class TestTransitionMatrices:
    """The m-expansions of h, e and p, read by counting matrices, against
    the product multiplied out in d variables and against classical
    facts."""

    @pytest.mark.parametrize("d", range(0, 7))
    def test_against_the_expanded_product(self, d):
        for basis in ("h", "e", "p"):
            for lam in partitions_of(d):
                want = _m_coords([(basis, part) for part in lam], d)
                assert macdonald._basis_elem_to_m(basis, lam) == want, (basis, lam)

    @pytest.mark.parametrize("d", range(0, 9))
    def test_classical_facts(self, d):
        for lam in partitions_of(d):
            h, e, p = (macdonald._basis_elem_to_m(b, lam) for b in ("h", "e", "p"))
            lam_t = lam.conjugate()
            assert p[lam] == prod(factorial(lam.count(i)) for i in set(lam))
            assert e[lam_t] == 1
            for mu in partitions_of(d):
                assert h.get(mu, 0) == macdonald._basis_elem_to_m("h", mu).get(lam, 0)
                if not _dominates(mu, lam):
                    assert mu not in p, (lam, mu)
                if not _dominates(lam_t, mu):
                    assert mu not in e, (lam, mu)

    def test_inverse_through_a_row_swap_and_pivots_that_do_not_divide(self):
        inv = macdonald._invert_matrix([[0, 2, 0], [3, 0, 0], [1, 4, 1]])
        assert inv == [
            [0, Fraction(1, 3), 0],
            [Fraction(1, 2), 0, 0],
            [-2, Fraction(-1, 3), 1],
        ]
        assert all(type(x) is Fraction for row in inv for x in row)


def _apply(matrix, coords):
    """Coordinates carried through a change of basis whose rows are the
    images of the basis elements; zero entries dropped."""
    out = {}
    for lam, c in coords.items():
        for nu, c2 in matrix[lam].items():
            out[nu] = out.get(nu, 0) + c * c2
    return {nu: c for nu, c in out.items() if c}


class TestSymFunConversions:
    """Symmetric-function coordinates carried between the m basis and the
    h, e and p bases by the transition matrices."""

    @pytest.mark.parametrize("degree", range(0, 9))
    def test_round_trips(self, degree):
        for basis in ("h", "e", "p"):
            to_basis = macdonald._m_to_basis_matrix(basis, degree)
            to_m = macdonald._basis_to_m_matrix(basis, degree)
            for lam in partitions_of(degree):
                f = {lam: Fraction(3, 2)}
                assert _apply(to_m, _apply(to_basis, f)) == f
                g = {lam: Fraction(1)}
                assert _apply(to_basis, _apply(to_m, g)) == g

    def test_known_expansions(self):
        # h2 = m2 + m11, e2 = m11, m11 = (p11 - p2) / 2
        assert macdonald._basis_to_m_matrix("h", 2)[(2,)] == {(2,): 1, (1, 1): 1}
        assert macdonald._basis_to_m_matrix("e", 2)[(2,)] == {(1, 1): 1}
        assert macdonald._m_to_basis_matrix("p", 2)[(1, 1)] == {
            (1, 1): Fraction(1, 2),
            (2,): Fraction(-1, 2),
        }


def _e_by_compositions(k):
    """e_k in the h basis by the composition formula: the sum over the
    compositions alpha of k of (-1)^(k - len(alpha)) h_alpha."""
    out = {}

    def rec(remaining, parts):
        if not remaining:
            key = tuple(sorted(parts, reverse=True))
            out[key] = out.get(key, 0) + (-1) ** (k - len(parts))
            return
        for p in range(1, remaining + 1):
            rec(remaining - p, parts + [p])

    rec(k, [])
    return {key: c for key, c in out.items() if c}


def _rhs_cases(n):
    """Every right-hand side of degree n with its factors: each h_nu, each
    e_j h_a h_b, and each hook (factors None)."""
    for nu in partitions_of(n):
        yield ("h", tuple(nu)), [("h", part) for part in nu]
    for j in range(n + 1):
        for a in range(n - j + 1):
            b = n - j - a
            yield ("eh", (j,), (a, b)), [("e", j), ("h", a), ("h", b)]
    for r in range(n):
        yield ("hook", r), None


class TestHCoordinates:
    """The h-coordinates every Hall pairing sums over, against products
    multiplied out in n variables and the hook Kostka numbers."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_rhs_against_an_independent_expansion(self, n):
        to_m = macdonald._basis_to_m_matrix("h", n)
        for rhs, factors in _rhs_cases(n):
            got = _apply(to_m, macdonald._in_h(rhs, n))
            if factors is None:
                # s_(n-r, 1^r) = sum_mu C(len(mu) - 1, r) m_mu
                want = {
                    mu: comb(len(mu) - 1, rhs[1])
                    for mu in partitions_of(n)
                    if comb(len(mu) - 1, rhs[1])
                }
            else:
                want = _m_coords(factors, n)
            assert got == want, rhs

    @pytest.mark.parametrize("k", range(0, 9))
    def test_e_in_h_is_the_composition_formula(self, k):
        got = macdonald._e_in_h(k)
        assert got == _e_by_compositions(k)
        assert all(type(c) is int for c in got.values())

    def test_empty_partition_pairs_h0_to_one(self):
        assert macdonald._pairing((), ("h", (0,))) == QtPolynomial.one()


class TestPairings:
    def test_h11_pairing(self):
        assert pair_htilde_h(Partition((2,)), (1, 1), PT) == 1 + PT.q0

    def test_hn_pairing_is_one(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert pair_htilde_h(mu, (n,), PT) == 1

    def test_hook_pairing_matches_mac_hook(self):
        for n in range(1, 5):
            for mu in partitions_of(n):
                for r in range(n):
                    lhs = pair_htilde_hook(mu, r, PT)
                    rhs = pleth_e(r, b_alphabet(mu) - 1, PT)
                    assert lhs == rhs, (mu, r)

    def test_column_pairing_is_t(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert pair_htilde_hook(mu, n - 1, PT) == t_mu(mu, PT)

    def test_hall_pair_dispatch(self):
        mu = Partition((2, 1))
        assert hall_pair(mu, ("h", (2, 1)), PT) == pair_htilde_h(mu, (2, 1), PT)
        assert hall_pair(mu, ("hook", 1), PT) == pair_htilde_hook(mu, 1, PT)

    def test_degree_mismatch(self):
        with pytest.raises(Exception):
            pair_htilde_h(Partition((2,)), (1, 1, 1), PT)


class TestIdentities:
    def test_e_h_delta_instances(self):
        for n in range(1, 5):
            for d in range(n + 1):
                assert poly_equal_by_grid(
                    lambda q0, t0, d=d, n=n: pair_delta_e_d(
                        d, n, EvalPoint(q0, t0)
                    ),
                    lambda q0, t0, d=d, n=n: pair_en_eh(n, d, None),
                    (max(n * (n - 1) // 2, 1),) * 2,
                )

    def test_reciprocity_pairs(self):
        for a in range(1, 4):
            for b in range(1, 4):
                for alpha in partitions_of(a):
                    for beta in partitions_of(b):
                        assert reciprocity_side(alpha, beta, PT) == (
                            reciprocity_side(beta, alpha, PT)
                        )

    def test_mid_matches_two_car_enumerator(self):
        enum = qt_enumerator(FamilySpec("pf2", m=1, n=1))
        assert poly_equal_by_grid(
            lambda q0, t0: mid_delta_hn(1, 1, 0, EvalPoint(q0, t0)),
            enum.eval,
            (1, 1),
        )

    def test_new_id_small(self):
        for m, n, k in ((1, 1, 0), (2, 1, 0), (1, 2, 1), (2, 2, 1)):
            assert mid_delta_hn(m, n, k, PT) == rhs_nabla_ehh(m, n, k, PT)
            assert sum_r_lhs(m, n, k, PT) == mid_delta_hn(m, n, k, PT)
            assert lhs_delta_hh(m, n, k, PT) == rhs_nabla_ehh(m, n, k, PT)

    def test_content_coefficient_degree_one(self):
        assert delta_lhs_by_content(0, 1, 0, (1,), PT) == 1

    def test_qt_swap_symmetry(self):
        for fn in (mid_delta_hn, rhs_nabla_ehh, sum_r_lhs, lhs_delta_hh):
            assert fn(2, 1, 1, PT) == fn(2, 1, 1, PT.swap())


def _sum_r_row(m, n, k, r, pt, against_e_n=False):
    """The r-th term of ``sum_r_lhs``: t^(m-k-r+1) <Delta_{h_(m-k-r+1)}
    Delta_{e_k} e_n[X [r]_q], e_n>, paired as ``sum_r_lhs`` does, through
    nabla and h_n, or directly against e_n."""
    operators = (("h", m - k - r + 1), ("e", k))
    if against_e_n:
        rhs = ("eh", (n,), ())
    else:
        operators, rhs = operators + (("nabla",),), ("h", (n,))
    return pt.t0 ** (m - k - r + 1) * delta_pairing(n, operators, rhs, pt, r)


class TestCauchyWeight:
    @pytest.mark.parametrize("pt", [EvalPoint(2, 101), EvalPoint(3, 103)])
    def test_r1_weight_is_the_closed_form(self, pt):
        # the weight at every r is computed by the closed form (1 - q^r)
        # h_r[(1 - t) B_mu] Pi_mu; the engine's plethysm H_mu[M [r]_q] must
        # agree with it (at r = 1 it is M B_mu Pi_mu)
        for r in range(1, 5):
            m_times_r = macdonald._m_times(q_int(r))
            for n in range(1, 7):
                for mu in partitions_of(n):
                    cauchy = htilde_at_alphabet(mu, m_times_r, pt)
                    assert macdonald._en_weight(mu, r, pt) == Fraction(
                        cauchy, w_mu(mu, pt)
                    ), (mu, r)

    def test_sum_r_rows_match_ghost_pf2_buckets(self):
        rows = [
            (m, size - m, k, r)
            for size in range(1, 5)
            for m in range(size + 1)
            for k in range(min(m, size - m) + 1)
            for r in range(1, m - k + 2)
        ]
        assert len(rows) == 45
        for m, n, k, r in rows:
            row = _sum_r_row(m, n, k, r, EvalPoint(2, 101))
            assert isinstance(row, int)
            assert row == _sum_r_row(m, n, k, r, EvalPoint(2, 101), True)
            enum = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k, r=r))
            assert poly_equal_by_grid(
                lambda q0, t0: _sum_r_row(m, n, k, r, EvalPoint(q0, t0)),
                enum.eval,
                (max((m + n) * (m + n - 1) // 2, 1),) * 2,
            ), (m, n, k, r)

    def test_sum_r_lhs_reads_no_capped_coefficient(self):
        # the closed-form weight reads no Macdonald coefficient, and
        # sum_r_lhs agrees with the middle side at every size
        pt = EvalPoint(2, 101)
        for m in range(5):
            n = 4 - m
            for k in range(min(m, n) + 1):
                assert sum_r_lhs(m, n, k, pt) == mid_delta_hn(m, n, k, pt), (m, n, k)


GRID_EVALUATORS = [
    (lhs_delta_hh, (2, 2, 1)),
    (mid_delta_hn, (2, 2, 1)),
    (rhs_nabla_ehh, (2, 2, 1)),
    (sum_r_lhs, (2, 2, 1)),
    (delta_lhs_by_content, (1, 3, 1, (2, 1))),
    (delta_pairing, (3, (("h", 1), ("e'", 1)), ("eh", (1,), (1, 1)))),
    (pair_delta_e_d, (2, 3)),
    (pair_htilde_hook, (Partition((2, 1)), 1)),
    (htilde_at_alphabet, ((2, 1), m_alphabet() * b_alphabet(Partition((2,))))),
    (reciprocity_side, (Partition((2, 1)), Partition((2,)))),
]


def _fresh_eval(fn, args, pt):
    """fn at pt with the per-point memo tables empty, so that nothing
    computed at an equal point of another type is reused: EvalPoint(2,
    101) and EvalPoint(Fraction(2), Fraction(101)) hash and compare
    equal."""
    for cache in (
        pleth_e,
        macdonald._en_weight,
        htilde_at_alphabet,
        macdonald._side,
    ):
        cache.cache_clear()
    return fn(*args, pt)


@pytest.mark.parametrize(
    "fn, args", GRID_EVALUATORS, ids=[fn.__name__ for fn, _ in GRID_EVALUATORS]
)
def test_grid_evaluator_is_exact_at_int_and_fraction_points(fn, args):
    at_int = _fresh_eval(fn, args, EvalPoint(2, 101))
    at_fraction = _fresh_eval(fn, args, EvalPoint(Fraction(2), Fraction(101)))
    # every evaluator is a polynomial in q, t: an exact int at int points
    assert isinstance(at_int, int), type(at_int)
    assert isinstance(at_fraction, (int, Fraction)), type(at_fraction)
    assert at_int == at_fraction


# -- degree bounds against sides rebuilt symbolically -------------------------


def _monomials(alphabet):
    """The monomials of an alphabet with nonnegative coefficients, each as
    often as its coefficient."""
    assert all(c > 0 for c in alphabet.terms.values())
    return [
        QtPolynomial.monomial(1, a, b)
        for (a, b), c in sorted(alphabet.terms.items())
        for _ in range(c)
    ]


def _product(factors):
    out = QtPolynomial.one()
    for factor in factors:
        out = out * factor
    return out


@lru_cache(maxsize=None)
def _symbolic_eigenvalue(operator, mu):
    """The eigenvalue as a polynomial, from the definitions: e_d and h_a
    as sums over d-sets and a-multisets of the monomials of B_mu."""
    tag = operator[0]
    if tag == "nabla":
        return t_mu(mu, SYMBOLIC)
    d = operator[1]
    if d < 0:
        return QtPolynomial.zero()
    if tag == "e'" and not mu:  # e_b[-1]: the z^b coefficient of 1 / (1 + z)
        return QtPolynomial.const((-1) ** d)
    alphabet = b_alphabet(mu) - 1 if tag == "e'" else b_alphabet(mu)
    pick = combinations_with_replacement if tag == "h" else combinations
    return sum(map(_product, pick(_monomials(alphabet), d)), QtPolynomial.zero())


@lru_cache(maxsize=None)
def _symbolic_weight(mu, r):
    """H_mu[M [r]_q], the Cauchy weight's numerator."""
    return _symbolic_plethysm(mu, m_alphabet() * q_int(r))


def _symbolic_plethysm(mu, alphabet):
    """H_mu[A] from the p-expansion of H_mu, p_j[A] = A(q^j, t^j)."""
    if not mu:
        return QtPolynomial.one()
    denom, coeffs = macdonald._htilde_p_coeffs(mu)
    total = QtPolynomial.zero()
    for rho, poly in coeffs:
        total += poly * _product(
            QtPolynomial({(a * j, b * j): c for (a, b), c in alphabet.terms.items()})
            for j in rho
        )
    assert all(c % denom == 0 for c in total.terms.values())
    return QtPolynomial({e: c // denom for e, c in total.terms.items()})


#: Bits per q-coefficient of ``_pack``: far more than any coefficient here.
_BITS = 128


def _pack(poly):
    """t-exponent -> the row's q-polynomial at q = 2^_BITS, an int, so a
    product of rows is one big-int product."""
    rows = {}
    for (a, b), c in poly.terms.items():
        rows[b] = rows.get(b, 0) + (c << (_BITS * a))
    return rows


def _packed_product(x, y):
    out = {}
    for b1, r1 in x.items():
        for b2, r2 in y.items():
            out[b1 + b2] = out.get(b1 + b2, 0) + r1 * r2
    return out


def _unpack(rows):
    """The polynomial of packed rows: the balanced base-2^_BITS digits."""
    terms, mask, half = {}, (1 << _BITS) - 1, 1 << (_BITS - 1)
    for b, r in rows.items():
        a = 0
        while r:
            c = r & mask
            if c >= half:
                c -= 1 << _BITS
            if c:
                terms[(a, b)] = c
            r = (r - c) >> _BITS
            a += 1
    return QtPolynomial(terms)


@lru_cache(maxsize=None)
def _common_denominator(n):
    """(W, {mu: W / w_mu packed}): W is the product over the binomials
    q^x - t^y of w_mu = +-prod (q^a - t^(l+1)) (q^(a+1) - t^l), each to
    its largest multiplicity over mu of n."""
    factors = {}
    for mu in partitions_of(n):
        sign, counts = 1, {}
        for _, _, a, l in macdonald._cell_stats(mu):
            for key in ((a, l + 1), (a + 1, l)):
                counts[key] = counts.get(key, 0) + 1
            sign = -sign
        factors[mu] = sign, counts
    top = {}
    for _, counts in factors.values():
        for key, e in counts.items():
            top[key] = max(top.get(key, 0), e)

    def power(exponents):
        return _product(
            QtPolynomial({(x, 0): 1, (0, y): -1}) ** e
            for (x, y), e in exponents.items()
        )

    W = power(top)
    cofactors = {
        mu: sign * power({key: e - counts.get(key, 0) for key, e in top.items()})
        for mu, (sign, counts) in factors.items()
    }
    for mu, cofactor in cofactors.items():
        assert cofactor * w_mu(mu, SYMBOLIC) == W
    return W, {mu: _pack(c) for mu, c in cofactors.items()}


@lru_cache(maxsize=None)
def _symbolic_row(shift, n, operators, rhs, r):
    """A ``SIDES`` row as one polynomial: t^shift sum_mu num_mu (W / w_mu),
    divided exactly by W."""
    W, cofactors = _common_denominator(n)
    total = {}
    for mu in partitions_of(n):
        num = QtPolynomial.monomial(1, 0, shift) * _symbolic_weight(mu, r)
        for operator in operators:
            num = num * _symbolic_eigenvalue(operator, mu)
        num = num * macdonald._pairing(mu, rhs)
        for b, row in _packed_product(_pack(num), cofactors[mu]).items():
            total[b] = total.get(b, 0) + row
    return _unpack(total).exact_div(W)


def _side_cases(max_size):
    """Every named side at m+n <= max_size, with the suites' arguments."""
    for m, n, k in suites._instances(max_size):
        for name in ("lhs_delta_hh", "mid_delta_hn", "rhs_nabla_ehh", "sum_r_lhs"):
            yield name, m, n, k
    for m, n, k in suites._instances(max_size, suites.DELTA_K_CAP):
        for lam in partitions_of(n):
            yield "delta_lhs_by_content", m, n, k, tuple(lam)
        for j in range(n + 1):
            for a in range(n - j + 1):
                if a >= n - j - a:
                    yield "lhs_delta_ehh", m, n, k, j, a, n - j - a
    for n in range(1, max_size + 1):
        for d in range(n + 1):
            yield "pair_delta_e_d", d, n


class TestDegreeBound:
    def test_bound_covers_the_true_degree_of_every_side(self):
        cases = list(_side_cases(5))
        assert {case[0] for case in cases} == set(macdonald.SIDES)
        pt = EvalPoint(2, 101)
        for name, *args in cases:
            side = QtPolynomial.zero()
            for row in macdonald.SIDES[name](*args):
                poly = _symbolic_row(*row)
                true_q, true_t = poly.degree()
                bound_q, bound_t = macdonald.degree_bound(*row[1:])
                assert true_q <= bound_q and true_t <= bound_t + row[0], row
                side += poly
            # the rebuilt polynomial is the evaluator's
            assert side.eval(*pt) == getattr(macdonald, name)(*args, pt)
            true_q, true_t = side.degree()
            bound_q, bound_t = macdonald.side_degree(name, *args)
            assert true_q <= bound_q and true_t <= bound_t, (name, args)

    def test_eigenvalue_degrees_are_exact(self):
        for n in range(6):
            for mu in partitions_of(n):
                mu = tuple(mu)
                operators = [("nabla",)] + [
                    (tag, d) for tag in ("h", "e", "e'") for d in range(-1, n + 2)
                ]
                for operator in operators:
                    assert macdonald.eigenvalue_degree(operator, mu) == (
                        _symbolic_eigenvalue(operator, mu).degree()
                    ), (operator, mu)

    def test_cauchy_numerator_bound_covers_the_weight(self):
        # no operator, and <H_mu, h_n> = 1: the numerator is H_mu[M [r]_q]
        for n in range(1, 6):
            for mu in partitions_of(n):
                for r in range(1, 5):
                    true_q, true_t = _symbolic_weight(tuple(mu), r).degree()
                    bound = macdonald._numerator_degree(mu, (), ("h", (n,)), r)
                    assert true_q <= bound[0] and true_t <= bound[1], (mu, r)

    def test_reciprocity_side_at_symbolic_is_the_whole_polynomial(self):
        # H_alpha[M B_beta] Pi_beta rebuilt from the p-expansion equals the
        # evaluator's value at SYMBOLIC, every coefficient
        for a in range(1, 4):
            for b in range(1, 4):
                for alpha in partitions_of(a):
                    for beta in partitions_of(b):
                        side = _symbolic_plethysm(
                            tuple(alpha), m_alphabet() * b_alphabet(beta)
                        ) * pi_mu(beta, SYMBOLIC)
                        exact = reciprocity_side(alpha, beta, SYMBOLIC)
                        assert isinstance(exact, QtPolynomial)
                        assert side == exact, (alpha, beta)

    def test_side_degree_adds_the_row_shift(self, monkeypatch):
        row = (3, 2, (("e", 1),), ("h", (2,)), 1)
        q_deg, t_deg = macdonald.degree_bound(*row[1:])
        monkeypatch.setitem(macdonald.SIDES, "shifted", lambda: [row])
        assert macdonald.side_degree("shifted") == (q_deg, t_deg + 3)

    def test_a_vanishing_term_adds_nothing(self):
        # e_3[B_mu] vanishes for every mu of 2, so the pairing is 0
        assert macdonald.degree_bound(2, (("e", 3),), ("h", (2,))) == (-1, -1)
        assert macdonald.side_degree("pair_delta_e_d", 3, 2) == (-1, -1)
