"""A small exact symmetric-function engine.

Partitions with cell statistics, plethystic evaluation of p_j/e_r/h_r
on alphabets, modified Macdonald polynomials in the monomial basis
(computed from the combinatorial filling formula with inv and maj
weights), Hall pairings against h-products, e-h products and hook Schur
functions, and the partition-sum evaluators used for identity
verification.

The one change of basis is the m<->h/e/p matrices, ``_basis_to_m_matrix``
(counted) and ``_m_to_basis_matrix`` (inverted exactly, an int wherever
an entry is integral, so the h and e inverses are integer matrices);
e_k = m_(1^k) in h is a row of the second.  Every Hall pairing <H_mu,
rhs> sums the coefficients of m_lam in H_mu over the h-coordinates of
rhs (``_in_h``).

The Delta-type identities are data for one evaluator:
``delta_pairing(n, operators, rhs, pt, r=1)`` is the pairing of
(product of operators) e_n[X [r]_q] with rhs, summed over the Cauchy
expansion e_n[X [r]_q] = sum_mu H_mu[M [r]_q] H_mu / w_mu, whose weight
is the closed form (1 - q^r) h_r[(1 - t) B_mu] Pi_mu / w_mu at every r.  An
operator is a tag tuple (``("h", a)``, ``("e", d)``, ``("e'", b)``,
``("nabla",)``) acting on each Macdonald polynomial by its eigenvalue;
rhs is a ``hall_pair`` tag tuple (``("h", nu)``,
``("eh", e_indices, h_indices)``, ``("hook", r)``).  Each named side is
a list of such rows in ``SIDES``; its evaluator sums them, and
``side_bound`` bounds its degree in q, in t and in total from the same
rows, through ``degree_bound``, with no symbolic partition sum built.

An evaluator built from + - * ** and ``exact_quotient`` by an integer
gives an int at the int points of the prime grid, a Fraction at
Fraction points and its polynomial at ``qt.SYMBOLIC``, by the same
code: T_mu, Pi_mu, w_mu and ``reciprocity_side`` have no second,
point-free form.  Symbolic data (the Macdonald monomial coefficients,
the Hall pairings built from them) are integer q,t-polynomials, built
once per partition.  The partition sums divide by w_mu, so they are
evaluated at grid points only and compared on the grid, as is mac-hook,
whose grid points perfbench's tracer counts.  At an int point a
rational partition sum is carried as an integer numerator over a common
denominator, divided once at the end.

Caches are ``functools.lru_cache`` tables that live as long as the
process: the point-free ones are keyed by partition (a side's degree
bounds, ``side_bound``, by its name and arguments), the per-point ones
(``pleth_e``, ``_en_weight``, ``htilde_at_alphabet``,
each named side's value in ``_side``) by their arguments including the
point, because the grid revisits the same points for every instance of
an identity, and two identity pairs that read one side share its value.
An alphabet is a ``QtPolynomial`` (B_mu = sum of q^coarm t^coleg, M = (1-q)(1-t),
[r]_q), and p_j[A] = A(q^j, t^j); a polynomial stores its hash, and the
alphabets built from others (``b_minus_one``, ``b_one_minus_t``,
``_negated``, ``_m_times``) are cached too, so equal cache keys share one
object and its stored hash.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, lcm

from qtcomb.qt import (
    PoleError,
    QtPolynomial,
    exact_quotient,
    q_int,
)

class DegreeMismatchError(ValueError):
    """Hall pairing of inhomogeneous degrees."""


# -- partitions ---------------------------------------------------------


class Partition(tuple):
    """A partition: weakly decreasing positive parts.

    Cells are (row, col), 0-based, row 0 at the bottom; arm/leg count
    cells strictly right/above, coarm/coleg strictly left/below.
    """

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts) or list(parts) != sorted(parts, reverse=True):
            raise ValueError(f"not a partition: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self):
        return sum(self)

    def cells(self):
        return [(r, c) for r, row in enumerate(self) for c in range(row)]

    def arm(self, cell):
        r, c = cell
        return self[r] - c - 1

    def coarm(self, cell):
        return cell[1]

    def leg(self, cell):
        r, c = cell
        return sum(1 for r2 in range(r + 1, len(self)) if self[r2] > c)

    def coleg(self, cell):
        return cell[0]

    def conjugate(self):
        if not self:
            return Partition()
        return Partition(
            sum(1 for p in self if p > c) for c in range(self[0])
        )


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n, in reverse lexicographic order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return (Partition(),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append(Partition((first,) + tuple(rest)))
    return tuple(out)


# -- alphabets and partition invariants ------------------------------------


@lru_cache(maxsize=None)
def _cell_stats(mu):
    """(coarm, coleg, arm, leg) of every cell of mu, row by row."""
    mu = Partition(mu)
    return tuple(
        (mu.coarm(c), mu.coleg(c), mu.arm(c), mu.leg(c)) for c in mu.cells()
    )


@lru_cache(maxsize=None)
def b_alphabet(mu):
    """B_mu = sum of q^coarm t^coleg over the cells, built once per
    partition."""
    return QtPolynomial([((a, l), 1) for a, l, _, _ in _cell_stats(mu)])


@lru_cache(maxsize=None)
def b_minus_one(mu):
    """B_mu - 1, the alphabet of the e_r coefficients; built once."""
    return b_alphabet(mu) - 1


@lru_cache(maxsize=None)
def b_one_minus_t(mu):
    """(1 - t) B_mu, the alphabet of the Cauchy weights; built once."""
    return (1 - QtPolynomial.t()) * b_alphabet(mu)


def m_alphabet():
    """M = (1-q)(1-t)."""
    return QtPolynomial({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


def bracket_q(r):
    """[r]_q = 1 + q + ... + q^(r-1)."""
    return q_int(r)


def t_mu(mu, pt):
    """T_mu, the product of q^coarm t^coleg over all cells."""
    stats = _cell_stats(mu)
    return pt.q0 ** sum(s[0] for s in stats) * pt.t0 ** sum(s[1] for s in stats)


def pi_mu(mu, pt):
    """Pi_mu, product of 1 - q^coarm t^coleg over cells other than the corner."""
    out = pt.q0**0
    # the corner (0, 0) is the first cell
    for a, l, _, _ in _cell_stats(mu)[1:]:
        out *= 1 - pt.q0**a * pt.t0**l
    return out


def w_mu(mu, pt):
    """w_mu, product over cells of (q^arm - t^(leg+1))(t^leg - q^(arm+1))."""
    out = pt.q0**0
    for _, _, a, l in _cell_stats(mu):
        out *= (pt.q0**a - pt.t0 ** (l + 1)) * (pt.t0**l - pt.q0 ** (a + 1))
    return out


def partition_invariants(mu, pt):
    """(B, T, Pi, w, M) for a partition: B is the alphabet B_mu, the rest
    are values at the point (ints at int points, polynomials at
    ``SYMBOLIC``)."""
    M = (1 - pt.q0) * (1 - pt.t0)
    return b_alphabet(mu), t_mu(mu, pt), pi_mu(mu, pt), w_mu(mu, pt), M


# -- plethystic e and h ---------------------------------------------------


def pleth_p(j, alphabet, pt):
    """p_j of the alphabet at the point: p_j[A] = A(q^j, t^j)."""
    return alphabet.eval(pt.q0**j, pt.t0**j)


@lru_cache(maxsize=None)
def pleth_e(r, alphabet, pt):
    """e_r of the alphabet at the point; 0 for r < 0.

    e_r[A] is the z^r coefficient of the product of (1 + x z)^mult over the
    monomials x of A with their multiplicities: an integer series product
    truncated at z^r, with no division, so it stays an int at int points.
    """
    if r < 0:
        return 0
    series = [1] + [0] * r
    for (a, b), mult in alphabet.terms.items():
        x = pt.q0**a * pt.t0**b
        for _ in range(mult):  # times (1 + x z)
            for i in range(r, 0, -1):
                series[i] += x * series[i - 1]
        for _ in range(-mult):  # over (1 + x z)
            for i in range(1, r + 1):
                series[i] -= x * series[i - 1]
    return series[r]


def pleth_h(r, alphabet, pt):
    """h_r of the alphabet at the point, as (-1)^r e_r[-A]; 0 for r < 0."""
    value = pleth_e(r, _negated(alphabet), pt)
    return -value if r % 2 else value


@lru_cache(maxsize=None)
def _negated(alphabet):
    """-A, built once per alphabet, so the ``pleth_e`` cache keys share
    one object and its stored hash."""
    return -alphabet


# -- monomial-basis machinery ---------------------------------------------


def _multiset_perms(items):
    """Distinct permutations of a sorted list."""
    items = sorted(items)
    n = len(items)
    out = []

    def rec(prefix, rest):
        if not rest:
            out.append(tuple(prefix))
            return
        last = None
        for i, x in enumerate(rest):
            if x == last:
                continue
            last = x
            rec(prefix + [x], rest[:i] + rest[i + 1 :])

    rec([], items)
    return out


@lru_cache(maxsize=None)
def _row_fillings(basis, a, cols):
    """The ways to fill one row of sum ``a`` against the column sums
    ``cols`` (descending, positive), as (left, ways) pairs: the column sums
    left (descending, zeros dropped) and the number of rows that leave
    them.  Equal columns are filled as one multiset of entries, counted
    once per arrangement.  A row of h takes entries >= 0, one of e
    entries 0/1, one of p a single nonzero entry."""
    groups = sorted(Counter(cols).items(), reverse=True)

    def entries(v):
        if basis == "h":
            return range(min(v, a), -1, -1)
        if basis == "e":
            return range(min(v, 1), -1, -1)
        return (a, 0) if a <= v else (0,)

    def rec(i, budget):
        if i == len(groups):
            if not budget:
                yield (), 1
            return
        v, g = groups[i]
        for taken in combinations_with_replacement(entries(v), g):
            spent = sum(taken)
            if spent > budget:
                continue
            ways = factorial(g)
            for x in set(taken):
                ways //= factorial(taken.count(x))
            for rest, more in rec(i + 1, budget - spent):
                yield tuple(v - x for x in taken) + rest, ways * more

    out = Counter()
    for left, ways in rec(0, a):
        out[tuple(sorted((c for c in left if c), reverse=True))] += ways
    return tuple(out.items())


@lru_cache(maxsize=None)
def _matrix_count(basis, rows, cols):
    """Number of matrices with row sums ``rows`` and column sums ``cols``
    (descending) whose rows are rows of ``basis`` (see ``_row_fillings``),
    filled one row at a time.  Equal columns are interchangeable, so the
    state is the remaining rows and the sorted remaining column sums."""
    if not rows:
        return int(not cols)
    return sum(
        ways * _matrix_count(basis, rows[1:], left)
        for left, ways in _row_fillings(basis, rows[0], cols)
    )


@lru_cache(maxsize=None)
def _basis_elem_to_m(basis, lam):
    """m-expansion of h_lam, e_lam or p_lam (integer coefficients).

    The coefficient of m_mu is the number of matrices with row sums lam
    and column sums mu whose entries are >= 0 for h, 0/1 for e, and for p
    have one nonzero entry per row, read by ``_matrix_count`` for each
    mu of |lam|."""
    if basis not in ("h", "e", "p"):
        raise ValueError(f"unknown basis {basis!r}")
    lam = Partition(lam)
    out = {}
    for mu in partitions_of(lam.size):
        count = _matrix_count(basis, tuple(lam), tuple(mu))
        if count:
            out[mu] = count
    return out


@lru_cache(maxsize=None)
def _basis_to_m_matrix(basis, degree):
    """Rows: expansion of each basis element in the m-basis."""
    lams = partitions_of(degree)
    return {lam: _basis_elem_to_m(basis, tuple(lam)) for lam in lams}


@lru_cache(maxsize=None)
def _m_to_basis_matrix(basis, degree):
    """Inverse change of basis: the integer matrix of
    ``_basis_to_m_matrix`` inverted exactly by ``_invert_matrix``, so an
    entry is an int where it is integral and a Fraction where it is not."""
    lams = list(partitions_of(degree))
    idx = {lam: i for i, lam in enumerate(lams)}
    size = len(lams)
    forward = _basis_to_m_matrix(basis, degree)
    # rows of A: coordinates (in m) of the basis elements
    a = [[0] * size for _ in range(size)]
    for lam, expansion in forward.items():
        for nu, c in expansion.items():
            a[idx[lam]][idx[nu]] = c
    inv = _invert_matrix(a)
    out = {}
    # with A[i][j] = coeff of m_j in basis_i, the expansion of m_j over
    # the basis is row j of A^{-1}
    for j, lam in enumerate(lams):
        out[lam] = {
            lams[i]: inv[j][i] for i in range(size) if inv[j][i]
        }
    return out


def _invert_matrix(a):
    """Inverse of the invertible square matrix ``a`` (rows of ints or
    Fractions): an int wherever an entry is integral, a Fraction only
    where it is not.

    Gauss-Jordan on sparse rows: an entry stays a Python int while each
    pivot divides it and becomes a Fraction only where one does not, and
    a row update touches only the pivot row's nonzero columns."""
    n = len(a)
    aug = [
        {j: x for j, x in enumerate(row) if x} | {n + i: 1}
        for i, row in enumerate(a)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if col in aug[r])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        pivot_row = {
            j: x // p if not x % p else Fraction(x, p) for j, x in aug[col].items()
        }
        aug[col] = pivot_row
        for r, row in enumerate(aug):
            f = row.get(col) if r != col else None
            if not f:
                continue
            for j, y in pivot_row.items():
                v = row.get(j, 0) - f * y
                if v:
                    row[j] = v
                else:
                    del row[j]
    return [[_integral(row.get(n + j, 0)) for j in range(n)] for row in aug]


def _integral(x):
    """``x`` as an int if it is integral, else the Fraction it is."""
    return x if x.denominator != 1 else int(x)


# -- modified Macdonald polynomials ----------------------------------------


@lru_cache(maxsize=None)
def _diagram_data(mu):
    """Reading-order cells with descent targets, attack pairs, arms, legs.

    Reading order: top row first, left to right.  Cells u, v attack when
    they share a row, or v is one row below u and strictly left.
    """
    mu = Partition(mu)
    cells = [
        (r, c) for r in range(len(mu) - 1, -1, -1) for c in range(mu[r])
    ]
    index = {cell: i for i, cell in enumerate(cells)}
    below = [index.get((r - 1, c), -1) for (r, c) in cells]
    arms = [mu.arm(cell) for cell in cells]
    legs = [mu.leg(cell) for cell in cells]
    attacks = []
    for i, (r, c) in enumerate(cells):
        for j, (r2, c2) in enumerate(cells):
            if j <= i:
                continue
            if (r2 == r) or (r2 == r - 1 and c2 < c):
                attacks.append((i, j))
    return cells, below, arms, legs, attacks


@lru_cache(maxsize=None)
def htilde_mcoeff(mu, lam):
    """Coefficient of m_lam in the modified Macdonald polynomial of mu,
    as a q,t-polynomial: fillings with content lam weighted q^inv t^maj."""
    mu, lam = Partition(mu), Partition(lam)
    if mu.size != lam.size:
        raise DegreeMismatchError("partition sizes differ")
    if mu.size == 0:
        return QtPolynomial.one()
    _, below, arms, legs, attacks = _diagram_data(tuple(mu))
    content = [i for i, mult in enumerate(lam, start=1) for _ in range(mult)]

    def terms():
        for filling in _multiset_perms(content):
            maj = 0
            arm_sum = 0
            for i, b in enumerate(below):
                if b >= 0 and filling[i] > filling[b]:
                    maj += legs[i] + 1
                    arm_sum += arms[i]
            inv = sum(1 for i, j in attacks if filling[i] > filling[j]) - arm_sum
            if inv < 0:
                raise AssertionError("negative inv statistic; orientation broken")
            yield (inv, maj), 1

    return QtPolynomial(terms())


def htilde(mu, pt):
    """Monomial-basis coordinates of the modified Macdonald polynomial at
    a point, {lam: coefficient of m_lam}, exact (ints at int points)."""
    mu = Partition(mu)
    return {
        lam: htilde_mcoeff(tuple(mu), tuple(lam)).eval(pt.q0, pt.t0)
        for lam in partitions_of(mu.size)
    }


@lru_cache(maxsize=None)
def _htilde_p_coeffs(mu):
    """p-basis coordinates of the Macdonald polynomial of mu, point-free:
    (D, ((rho, P_rho), ...)) with integer q,t-polynomials P_rho such that
    the coefficient of p_rho is P_rho / D."""
    n = sum(mu)
    to_p = _m_to_basis_matrix("p", n)
    denom = 1
    for row in to_p.values():
        for c in row.values():
            denom = lcm(denom, c.denominator)
    coeffs = {}
    for lam in partitions_of(n):
        mcoeff = htilde_mcoeff(mu, tuple(lam))
        for rho, c in to_p[lam].items():
            coeffs[rho] = coeffs.get(rho, 0) + int(c * denom) * mcoeff
    return denom, tuple((tuple(rho), p) for rho, p in coeffs.items() if p)


@lru_cache(maxsize=None)
def htilde_at_alphabet(mu, alphabet, pt):
    """Plethystic evaluation of the Macdonald polynomial on an alphabet;
    coefficients stay fixed, only the alphabet is raised to powers.  It
    serves reciprocity, at ``SYMBOLIC`` as the polynomial itself."""
    if not mu:
        return pt.q0**0
    denom, coeffs = _htilde_p_coeffs(mu)
    powers = [None] + [pleth_p(j, alphabet, pt) for j in range(1, sum(mu) + 1)]
    total = 0
    for rho, poly in coeffs:
        prod = poly.eval(pt.q0, pt.t0)
        for part in rho:
            prod *= powers[part]
        total += prod
    return exact_quotient(total, denom)


# -- Hall pairings ----------------------------------------------------------


def _e_in_h(k):
    """h-coordinates of e_k, integers: e_k = m_(1^k), so they are the row
    (1^k) of ``_m_to_basis_matrix("h", k)``."""
    return _m_to_basis_matrix("h", k)[Partition((1,) * k)]


def _expand_eh_to_h(e_indices, h_indices):
    """h-coordinates of a product of e's and h's: the h-coordinates of
    each e_k multiplied out against the h's."""
    terms = {tuple(sorted((x for x in h_indices if x > 0), reverse=True)): 1}
    for k in e_indices:
        new = {}
        for lam, c in _e_in_h(k).items():
            for hpart, c2 in terms.items():
                key = tuple(sorted(hpart + lam, reverse=True))
                new[key] = new.get(key, 0) + c * c2
        terms = {key: c for key, c in new.items() if c}
    return terms


@lru_cache(maxsize=None)
def _in_h(rhs, n):
    """h-coordinates {lam: c} of a pairing's right-hand side of degree n:
    ("h", nu) is h_nu, ("eh", e_indices, h_indices) the product of e's and
    h's, ("hook", r) the hook Schur function s_(n-r, 1^r) = sum_i (-1)^i
    h_(n-r+i) e_(r-i)."""
    tag = rhs[0]
    if tag == "h":
        return {tuple(x for x in rhs[1] if x): 1}
    if tag == "eh":
        return _expand_eh_to_h(rhs[1], rhs[2])
    if tag != "hook":
        raise ValueError(f"unknown pairing {tag!r}")
    r = rhs[1]
    if not 0 <= r < n:
        raise DegreeMismatchError("hook column length out of range")
    out = {}
    for i in range(r + 1):
        for lam, c in _expand_eh_to_h((r - i,), (n - r + i,)).items():
            out[lam] = out.get(lam, 0) + (-1) ** i * c
    return {lam: c for lam, c in out.items() if c}


@lru_cache(maxsize=None)
def _pairing(mu, rhs):
    """<H_mu, rhs> as one point-free integer q,t-polynomial: <H_mu, h_lam>
    is the coefficient of m_lam, summed over the h-coordinates of rhs
    (``_in_h``)."""
    total = QtPolynomial.zero()
    for lam, c in _in_h(rhs, sum(mu)).items():
        total += c * htilde_mcoeff(mu, lam)
    return total


def hall_pair(mu, rhs, pt):
    """``_pairing`` evaluated at the point."""
    return _pairing(tuple(mu), rhs).eval(pt.q0, pt.t0)


def pair_htilde_h(mu, nu, pt):
    """<H_mu, h_nu> = coefficient of m_nu, evaluated at the point."""
    return hall_pair(mu, ("h", tuple(nu)), pt)


def pair_htilde_eh(mu, e_indices, h_indices, pt):
    """<H_mu, prod e_k prod h_a> at the point."""
    return hall_pair(mu, ("eh", tuple(e_indices), tuple(h_indices)), pt)


def pair_htilde_hook(mu, r, pt):
    """<H_mu, s_(n-r, 1^r)> at the point."""
    return hall_pair(mu, ("hook", r), pt)


# -- partition-sum evaluators ------------------------------------------------


def _fraction_free_sum(terms):
    """Exact sum of (numerator, denominator) pairs, cross-multiplied into
    one numerator over one denominator and divided once at the end."""
    num, den = 0, 1
    for a, b in terms:
        num, den = num * b + a * den, den * b
    return exact_quotient(num, den)


@lru_cache(maxsize=None)
def _en_weight(mu, r, pt):
    """Coefficient of H_mu in the Cauchy expansion of e_n[X [r]_q]:
    H_mu[M [r]_q] / w_mu as one reduced Fraction (1 for the empty
    partition), read by its numerator and denominator.  The numerator is
    the closed form (1 - q^r) h_r[(1 - t) B_mu] Pi_mu (at r = 1 the
    Garsia-Haiman M B_mu Pi_mu), from [r]_q = B_(r), reciprocity,
    H_(r)[X] = (q;q)_r h_r[X / (1 - q)] and Pi_(r) = (q;q)_(r-1): it reads
    no Macdonald coefficient.  No point of the prime grid is a zero of
    w_mu (see ``qt.poly_equal_by_grid``); other points can be, q = t say."""
    if mu.size == 0:
        return 1
    w = w_mu(mu, pt)
    if w == 0:
        raise PoleError("w vanishes at the evaluation point")
    h = pleth_h(r, b_one_minus_t(mu), pt)
    return Fraction((1 - pt.q0**r) * h * pi_mu(mu, pt), w)


def _eigenvalue(operator, mu, pt):
    """Eigenvalue on the Macdonald polynomial of mu of one operator:
    ("h", a) Delta_{h_a}: h_a[B_mu] | ("e", d) Delta_{e_d}: e_d[B_mu] |
    ("e'", b) Delta'_{e_b}: e_b[B_mu - 1] | ("nabla",): T_mu."""
    tag = operator[0]
    if tag == "h":
        return pleth_h(operator[1], b_alphabet(mu), pt)
    if tag == "e":
        return pleth_e(operator[1], b_alphabet(mu), pt)
    if tag == "e'":
        return pleth_e(operator[1], b_minus_one(mu), pt)
    if tag == "nabla":
        return t_mu(mu, pt)
    raise ValueError(f"unknown operator {tag!r}")


def delta_pairing(n, operators, rhs, pt, r=1):
    """<(product of operators) e_n[X [r]_q], rhs> as a partition sum.

    e_n[X [r]_q] = sum over mu of n of (H_mu[M [r]_q] / w_mu) H_mu (the
    Cauchy identity; the weight is the closed form of ``_en_weight``); each
    operator acts on H_mu by its ``_eigenvalue`` and ``hall_pair`` pairs
    H_mu with rhs.  A term stops at its first zero factor.
    """
    terms = []
    for mu in partitions_of(n):
        weight = _en_weight(mu, r, pt)
        value = weight.numerator
        for operator in operators:
            if not value:
                break
            value *= _eigenvalue(operator, mu, pt)
        if value:
            terms.append((value * hall_pair(mu, rhs, pt), weight.denominator))
    return _fraction_free_sum(terms)


# -- degree bounds -----------------------------------------------------------


@lru_cache(maxsize=None)
def _degree_data(mu):
    """Closed-form degree data of a partition in the three gradings (q,
    t, total): the exponents of the monomials of B_mu in each (coarm,
    coleg, coarm + coleg), each largest first; and the exact degree of
    w_mu in each, summed over the cells, (2 arm + 1, 2 leg + 1,
    max(arm, leg + 1) + max(leg, arm + 1)): each of the cell's two
    factors has two distinct monomials, and the degrees of a product
    add."""
    stats = _cell_stats(mu)
    grades = [s[0] for s in stats], [s[1] for s in stats], [s[0] + s[1] for s in stats]
    exponents = tuple(tuple(sorted(xs, reverse=True)) for xs in grades)
    w = (
        sum(2 * s[2] + 1 for s in stats),
        sum(2 * s[3] + 1 for s in stats),
        sum(max(s[2], s[3] + 1) + max(s[3], s[2] + 1) for s in stats),
    )
    return exponents, w


def eigenvalue_degree(operator, mu):
    """(q_deg, t_deg, tot_deg) of an operator's eigenvalue on H_mu (see
    ``_eigenvalue``), (-1, -1, -1) when it is 0.  Exact in each grading:
    the monomials of B_mu have coefficient 1, so no top term cancels.
    h_a[B_mu] has a times the largest exponent, e_d[B_mu] the sum of the
    d largest, e_b[B_mu - 1] the sum of the b largest without the
    corner's (e_b[-1] on the empty partition is the constant (-1)^b), and
    T_mu the sum of all: (n(mu'), n(mu), n(mu') + n(mu))."""
    tag = operator[0]
    if tag not in ("h", "e", "e'", "nabla"):
        raise ValueError(f"unknown operator {tag!r}")
    d = operator[1] if tag != "nabla" else 0
    out = []
    for xs in _degree_data(tuple(mu))[0]:
        if tag == "e'":
            if not xs:  # e_b[-1] = (-1)^b
                out.append(0 if d >= 0 else -1)
                continue
            xs = xs[:-1]  # the corner's monomial is the 1
        if tag == "nabla":
            out.append(sum(xs))
        elif d < 0:
            out.append(-1)
        elif tag == "h":
            out.append(d * xs[0] if xs else (-1 if d else 0))
        else:
            out.append(sum(xs[:d]) if d <= len(xs) else -1)
    return tuple(out)


def pairing_degree(mu, rhs):
    """(q_deg, t_deg, tot_deg) of ``hall_pair(mu, rhs, pt)`` as a
    polynomial, exact, read from the cached point-free ``_pairing``;
    (-1, -1, -1) when it is 0."""
    pairing = _pairing(tuple(mu), rhs)
    return (*pairing.degree(), pairing.total_degree())


def _numerator_degree(mu, operators, rhs, r):
    """Degree bound (q_deg, t_deg, tot_deg) of num_mu, the mu term of
    ``delta_pairing`` times w_mu; None when the term is 0."""
    (qs, ts, tots), _ = _degree_data(mu)
    if qs:  # (1 - q^r), h_r[(1 - t) B_mu] and Pi_mu, grading by grading
        deg = [
            r + r * qs[0] + sum(qs),
            r * (ts[0] + 1) + sum(ts),
            r + r * (tots[0] + 1) + sum(tots),
        ]
    else:  # the empty partition has weight 1
        deg = [0, 0, 0]
    for operator in operators:
        eigen = eigenvalue_degree(operator, mu)
        if eigen[0] < 0:
            return None
        deg = [a + b for a, b in zip(deg, eigen)]
    pairing = pairing_degree(mu, rhs)
    if pairing[0] < 0:
        return None
    return tuple(a + b for a, b in zip(deg, pairing))


def degree_bound(n, operators, rhs, r=1):
    """Degree bound (q_deg, t_deg, tot_deg) of ``delta_pairing(n,
    operators, rhs, pt, r)`` as a polynomial: in q, in t and in total.

    The pairing is a sum over mu of num_mu / w_mu.  Over Q(t) the
    q-degree (numerator degree minus denominator degree) of a sum of
    rational functions is at most the largest q-degree of its terms, and
    the same holds for t over Q(q).  Total degree is additive over
    products too, and deg(a + b) <= max(deg a, deg b), so the same holds
    for it.  So *if the pairing is a polynomial*, its degree in each
    grading is at most the largest over mu of deg num_mu - deg w_mu.
    That is the one assumption a grid check at this bound rests on: it
    holds for the nabla sides by Garsia and Haiman, and for the Delta and
    Delta' sides by Haglund, Remmel and Wilson (2015).

    The degrees add up over the factors of num_mu, each from a closed
    form over the cell statistics, with no symbolic w_mu or Pi_mu built:
    the Cauchy weight's numerator H_mu[M [r]_q] = (1 - q^r) h_r[(1 - t)
    B_mu] Pi_mu, the form ``_en_weight`` computes, where (1 - q^r)
    contributes (r, 0, r), h_r[(1 - t) B_mu] at most r times the largest
    exponent of (1 - t) B_mu, (max coarm, max coleg + 1, max(coarm +
    coleg) + 1), and Pi_mu the sums (n(mu'), n(mu), n(mu') + n(mu));
    each eigenvalue's ``eigenvalue_degree``; and the exact
    ``pairing_degree``.  w_mu's degrees are exact (``_degree_data``).
    A mu whose term ``delta_pairing`` drops as zero contributes nothing;
    (-1, -1, -1) when no term is left.
    """
    bound = (-1, -1, -1)
    for mu in partitions_of(n):
        num = _numerator_degree(mu, operators, rhs, r)
        if num is not None:
            w = _degree_data(mu)[1]
            bound = tuple(max(b, a - c) for b, a, c in zip(bound, num, w))
    return bound


#: Every named Delta side as data: name -> a function of the side's
#: arguments that gives its rows ``(shift, n, operators, rhs, r)``, each
#: the term t^shift <(operators) e_n[X [r]_q], rhs> of ``delta_pairing``;
#: the side is the sum of its rows.  The evaluators below read their rows
#: here and ``side_bound`` bounds the same rows, so they cannot drift.
SIDES = {
    "lhs_delta_hh": lambda m, n, k: [
        (0, m + n, (("e'", m + n - k - 1),), ("eh", (), (m, n)), 1)
    ],
    "mid_delta_hn": lambda m, n, k: [
        (0, m + 1, (("h", n), ("e'", m - k)), ("h", (m + 1,)), 1)
    ],
    "rhs_nabla_ehh": lambda m, n, k: [
        (0, m + n - k, (("nabla",),), ("eh", (k,), (n - k, m - k)), 1)
    ],
    "delta_lhs_by_content": lambda m, n, k, lam: [
        (0, n, (("h", m), ("e'", n - k - 1)), ("h", lam), 1)
    ],
    "lhs_delta_ehh": lambda m, n, k, j, a, b: [
        (0, n, (("h", m), ("e'", n - k - 1)), ("eh", (j,), (a, b)), 1)
    ],
    "pair_delta_e_d": lambda d, n: [(0, n, (("e", d),), ("h", (n,)), 1)],
    "sum_r_lhs": lambda m, n, k: [
        (
            m - k - r + 1,
            n,
            (("h", m - k - r + 1), ("e", k), ("nabla",)),
            ("h", (n,)),
            r,
        )
        for r in range(1, m - k + 2)
    ],
}


@lru_cache(maxsize=None)
def side_bound(name, *args):
    """(q_deg, t_deg, tot_deg) of the named side of ``SIDES`` at its
    arguments: per grading, the largest ``degree_bound`` of its rows,
    each with its t-shift added to its t- and total degree; (-1, -1, -1)
    when every row is 0.  Kept per (name, args) like ``_side``.  It rests
    on the one assumption of ``degree_bound``, that the side is a
    polynomial."""
    out = (-1, -1, -1)
    for shift, n, operators, rhs, r in SIDES[name](*args):
        q, t, tot = degree_bound(n, operators, rhs, r)
        if q >= 0:
            out = (max(out[0], q), max(out[1], t + shift), max(out[2], tot + shift))
    return out


@lru_cache(maxsize=None)
def _side(name, args, pt):
    """The named side of ``SIDES`` at its arguments and the point, kept
    per (name, args, point) like ``_en_weight``: a side that two identity
    pairs read is computed once at each grid point."""
    return sum(
        pt.t0**shift * delta_pairing(n, operators, rhs, pt, r)
        for shift, n, operators, rhs, r in SIDES[name](*args)
    )


def lhs_delta_hh(m, n, k, pt):
    """<Delta'_{e_(m+n-k-1)} e_(m+n), h_m h_n>."""
    return _side("lhs_delta_hh", (m, n, k), pt)


def mid_delta_hn(m, n, k, pt):
    """<Delta_{h_n} Delta'_{e_(m-k)} e_(m+1), h_(m+1)>."""
    return _side("mid_delta_hn", (m, n, k), pt)


def rhs_nabla_ehh(m, n, k, pt):
    """<nabla e_(m+n-k), e_k h_(n-k) h_(m-k)>."""
    return _side("rhs_nabla_ehh", (m, n, k), pt)


def delta_lhs_by_content(m, n, k, lam, pt):
    """Coefficient of m_lam in Delta_{h_m} Delta'_{e_(n-k-1)} e_n, that is
    its pairing with h_lam."""
    return _side("delta_lhs_by_content", (m, n, k, lam), pt)


def lhs_delta_ehh(m, n, k, j, a, b, pt):
    """<Delta_{h_m} Delta'_{e_(n-k-1)} e_n, e_j h_a h_b>."""
    return _side("lhs_delta_ehh", (m, n, k, j, a, b), pt)


def pair_delta_e_d(d, n, pt):
    """<Delta_{e_d} e_n, h_n>."""
    return _side("pair_delta_e_d", (d, n), pt)


def sum_r_lhs(m, n, k, pt):
    """Sum over r of t^(m-k-r+1) <Delta_{h_(m-k-r+1)} Delta_{e_k}
    e_n[X [r]_q], e_n> as <nabla F, h_n>, one ``delta_pairing`` row per r;
    a row reads only the coefficient 1 of m_(n)."""
    return _side("sum_r_lhs", (m, n, k), pt)


def pair_en_eh(n, d, pt):
    """<e_n, e_d h_(n-d)>: the h_(1^n) coordinate of e_d h_(n-d), since
    h_(1^n) is the only h-product pairing nontrivially with e_n."""
    return _in_h(("eh", (d,), (n - d,)), n).get((1,) * n, 0)


def reciprocity_side(alpha, beta, pt):
    """H_alpha[M B_beta] Pi_beta.  Macdonald reciprocity says it is
    symmetric in alpha and beta."""
    return htilde_at_alphabet(alpha, _m_times(b_alphabet(beta)), pt) * pi_mu(beta, pt)


@lru_cache(maxsize=None)
def _m_times(alphabet):
    """M times the alphabet, built once per alphabet, so the
    ``htilde_at_alphabet`` cache keys share one object and its hash."""
    return m_alphabet() * alphabet
