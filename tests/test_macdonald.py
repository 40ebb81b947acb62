"""The symmetric-function engine: partitions, plethysm, Macdonald
polynomials, pairings, and the identity evaluators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtcomb import macdonald
from qtcomb.families import FamilySpec, qt_enumerator
from qtcomb.macdonald import (
    CapacityError,
    Partition,
    SymFun,
    b_alphabet,
    MonomialAlphabet,
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
    reciprocity_check,
    rhs_nabla_ehh,
    sum_r_lhs,
    t_mu,
    w_mu,
)
from qtcomb.qt import EvalPoint, QtPolynomial, poly_equal_by_grid

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

    def test_t_22(self):
        assert t_mu(Partition((2, 2))) == QtPolynomial.monomial(1, 2, 2)

    def test_w_1(self):
        one = Partition((1,))
        q, t = QtPolynomial.q(), QtPolynomial.t()
        assert w_mu(one) == (1 - t) * (1 - q)

    def test_empty_partition(self):
        B, T, Pi, w, M = partition_invariants(Partition(), PT)
        assert not B.terms and T == 1 and Pi == 1 and w == 1

    def test_symbolic_vs_point(self):
        mu = Partition((3, 1))
        assert w_mu(mu).eval(PT.q0, PT.t0) == w_mu(mu, PT)
        assert pi_mu(mu).eval(PT.q0, PT.t0) == pi_mu(mu, PT)


class TestPlethysm:
    def test_e2_of_two_letters(self):
        # e_2 of 1 + q is q
        assert pleth_e(2, b_alphabet(Partition((2,))), PT) == PT.q0

    def test_e1_of_m(self):
        assert pleth_e(1, m_alphabet(), PT) == (1 - PT.q0) * (1 - PT.t0)

    def test_e1_drop_unit(self):
        B1 = b_alphabet(Partition((2, 1))).minus_one()
        assert pleth_e(1, B1, PT) == PT.q0 + PT.t0

    def test_negative_index(self):
        assert pleth_e(-1, m_alphabet(), PT) == 0
        assert pleth_h(-1, m_alphabet(), PT) == 0
        assert pleth_h(0, m_alphabet(), PT) == 1

    def test_alphabet_product(self):
        lhs = (m_alphabet() * bracket_q(2)).sum_at(PT)
        rhs = (1 - PT.q0) * (1 - PT.t0) * (1 + PT.q0)
        assert lhs == rhs


def newton_e_h(r, alphabet, pt):
    """Reference e_r, h_r of an alphabet by Newton's recurrence from the
    power sums, dividing by i at each step."""
    p = [None] + [alphabet.power_sum(j, pt) for j in range(1, r + 1)]
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
).map(MonomialAlphabet)
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
        assert f.coeff((2,)) == 1
        assert f.coeff((1, 1)) == 1 + PT.q0

    def test_degree_cap(self):
        with pytest.raises(CapacityError):
            htilde(Partition((8,)), PT)


class TestSymFunConversions:
    @pytest.mark.parametrize("degree", range(0, 7))
    def test_round_trips(self, degree):
        for basis in ("h", "e", "p"):
            for lam in partitions_of(degree):
                f = SymFun(degree, "m", {lam: Fraction(3, 2)})
                assert f.convert_to(basis).convert_to("m") == f
                g = SymFun(degree, basis, {lam: Fraction(1)})
                assert g.convert_to("m").convert_to(basis) == g

    def test_known_expansions(self):
        # h2 = m2 + m11, e2 = m11, p2 = m2
        h2 = SymFun(2, "h", {(2,): 1}).convert_to("m")
        assert h2.coeffs == {Partition((2,)): 1, Partition((1, 1)): 1}
        e2 = SymFun(2, "e", {(2,): 1}).convert_to("m")
        assert e2.coeffs == {Partition((1, 1)): 1}
        m11_p = SymFun(2, "m", {(1, 1): 1}).convert_to("p")
        assert m11_p.coeffs == {
            Partition((1, 1)): Fraction(1, 2),
            Partition((2,)): Fraction(-1, 2),
        }


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
                    rhs = pleth_e(r, b_alphabet(mu).minus_one(), PT)
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
                    max(n * (n - 1) // 2, 1),
                )

    def test_reciprocity_pairs(self):
        assert reciprocity_check(Partition((1,)), Partition((1,)), PT)
        assert reciprocity_check(Partition((2,)), Partition((1, 1)), PT)
        for a in range(1, 4):
            for b in range(1, 4):
                for alpha in partitions_of(a):
                    for beta in partitions_of(b):
                        assert reciprocity_check(alpha, beta, PT)

    def test_mid_matches_two_car_enumerator(self):
        enum = qt_enumerator(FamilySpec("pf2", m=1, n=1))
        assert poly_equal_by_grid(
            lambda q0, t0: mid_delta_hn(1, 1, 0, EvalPoint(q0, t0)),
            enum.eval,
            1,
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
    (reciprocity_check, (Partition((2, 1)), Partition((2,)))),
]


def _fresh_eval(fn, args, pt):
    """fn at pt with the per-point memo tables empty, so that nothing
    computed at an equal point of another type is reused."""
    for cache in (pleth_e, macdonald._en_weight, macdonald._htilde_at_alphabet):
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
