"""A small exact symmetric-function engine.

Partitions with cell statistics, plethystic evaluation of p_j/e_r/h_r
on alphabets, modified Macdonald polynomials in the monomial basis
(computed from the combinatorial filling formula with inv and maj
weights), Hall pairings against h-products, e-h products and hook Schur
functions, and the partition-sum evaluators used for identity
verification on the prime grid.

The Delta-type identities are data for one evaluator:
``delta_pairing(n, operators, rhs, pt, r=1)`` is the pairing of
(product of operators) e_n[X [r]_q] with rhs, summed over the Cauchy
expansion e_n[X [r]_q] = sum_mu H_mu[M [r]_q] H_mu / w_mu; at r = 1 the
weight is the Garsia-Haiman closed form M B_mu Pi_mu / w_mu.  An
operator is a tag tuple (``("h", a)``, ``("e", d)``, ``("e'", b)``,
``("nabla",)``) acting on each Macdonald polynomial by its eigenvalue;
rhs is a ``hall_pair`` tag tuple (``("h", nu)``,
``("eh", e_indices, h_indices)``, ``("hook", r)``).  Each named side is
a list of such rows in ``SIDES``; its evaluator sums them, and
``side_degree`` bounds its degree from the same rows, through
``degree_bound``, with no symbolic partition sum built.

All identity evaluation happens at exact points; symbolic data (the
Macdonald monomial coefficients, the Hall pairings built from them) are
integer q,t-polynomials, built once per partition and evaluated per point.
At the int points of the prime grid every evaluator stays in integer
arithmetic: a rational partition sum is carried as an integer numerator
over a common denominator, divided once at the end.  Fraction points go
through the same code and give equal values.

Caches are ``functools.lru_cache`` tables that live as long as the
process: the point-free ones are keyed by partition, the per-point ones
(``pleth_e``, ``_en_weight``, the value behind ``htilde_at_alphabet``) by
their arguments including the point, because the grid revisits the same
points for every instance of an identity.  An alphabet is a
``QtPolynomial`` (B_mu = sum of q^coarm t^coleg, M = (1-q)(1-t),
[r]_q), and p_j[A] = A(q^j, t^j); a polynomial stores its hash, and the
alphabets built from others (``b_minus_one``, ``_negated``, ``_m_times``)
are cached too, so equal cache keys share one object and its stored hash.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from qtcomb.qt import (
    CapacityError,
    PoleError,
    QtPolynomial,
    exact_quotient,
    q_int,
)

#: Largest Macdonald degree ``htilde`` and ``htilde_at_alphabet`` accept;
#: read at call time.
DEGREE_CAP = 7


def _check_degree(degree):
    if degree > DEGREE_CAP:
        raise CapacityError(f"degree {degree} above the cap {DEGREE_CAP}")


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


def m_alphabet():
    """M = (1-q)(1-t)."""
    return QtPolynomial({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


def bracket_q(r):
    """[r]_q = 1 + q + ... + q^(r-1)."""
    return q_int(r)


def t_mu(mu, pt=None):
    """T_mu, the product of q^coarm t^coleg over all cells."""
    stats = _cell_stats(mu)
    a = sum(s[0] for s in stats)
    b = sum(s[1] for s in stats)
    if pt is None:
        return QtPolynomial.monomial(1, a, b)
    return pt.q0**a * pt.t0**b


def pi_mu(mu, pt=None):
    """Pi_mu, product of 1 - q^coarm t^coleg over cells other than the corner."""
    # the corner (0, 0) is the first cell
    if pt is None:
        out = QtPolynomial.one()
        for a, l, _, _ in _cell_stats(mu)[1:]:
            out *= QtPolynomial.one() - QtPolynomial.monomial(1, a, l)
        return out
    out = 1
    for a, l, _, _ in _cell_stats(mu)[1:]:
        out *= 1 - pt.q0**a * pt.t0**l
    return out


def w_mu(mu, pt=None):
    """w_mu, product over cells of (q^arm - t^(leg+1))(t^leg - q^(arm+1))."""
    if pt is None:
        out = QtPolynomial.one()
        for _, _, a, l in _cell_stats(mu):
            out *= (
                QtPolynomial.monomial(1, a, 0) - QtPolynomial.monomial(1, 0, l + 1)
            ) * (
                QtPolynomial.monomial(1, 0, l) - QtPolynomial.monomial(1, a + 1, 0)
            )
        return out
    out = 1
    for _, _, a, l in _cell_stats(mu):
        out *= (pt.q0**a - pt.t0 ** (l + 1)) * (pt.t0**l - pt.q0 ** (a + 1))
    return out


def partition_invariants(mu, pt=None):
    """(B, T, Pi, w, M) for a partition; B is the alphabet B_mu, the rest
    are exact values at a point (ints at int points), or polynomials."""
    B = b_alphabet(mu)
    if pt is None:
        return B, t_mu(mu), pi_mu(mu), w_mu(mu), m_alphabet()
    M = (1 - pt.q0) * (1 - pt.t0)
    return B, t_mu(mu, pt), pi_mu(mu, pt), w_mu(mu, pt), M


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
def _mono_times_mono(alpha, beta):
    """Expansion of m_alpha * m_beta in the monomial basis."""
    alpha, beta = Partition(alpha), Partition(beta)
    d = alpha.size + beta.size
    width = max(d, 1)
    out = {}
    a_vecs = _multiset_perms(list(alpha) + [0] * (width - len(alpha)))
    b_set = set(_multiset_perms(list(beta) + [0] * (width - len(beta))))
    for lam in partitions_of(d):
        if len(lam) > width:
            continue
        target = tuple(lam) + (0,) * (width - len(lam))
        count = 0
        for av in a_vecs:
            bv = tuple(x - y for x, y in zip(target, av))
            if any(x < 0 for x in bv):
                continue
            if bv in b_set:
                count += 1
        if count:
            out[lam] = count
    return out


@lru_cache(maxsize=None)
def _basis_elem_to_m(basis, lam):
    """m-expansion of h_lam, e_lam or p_lam (integer coefficients)."""
    lam = Partition(lam)
    out = {Partition(): 1}
    for part in lam:
        if basis == "h":
            factor = {nu: 1 for nu in partitions_of(part)}
        elif basis == "e":
            factor = {Partition([1] * part): 1}
        elif basis == "p":
            factor = {Partition([part]): 1}
        else:
            raise ValueError(f"unknown basis {basis!r}")
        new = {}
        for lam2, c in out.items():
            for nu, c2 in factor.items():
                for rho, c3 in _mono_times_mono(tuple(lam2), tuple(nu)).items():
                    new[rho] = new.get(rho, 0) + c * c2 * c3
        out = {k: v for k, v in new.items() if v}
    return out


@lru_cache(maxsize=None)
def _basis_to_m_matrix(basis, degree):
    """Rows: expansion of each basis element in the m-basis."""
    lams = partitions_of(degree)
    return {lam: _basis_elem_to_m(basis, tuple(lam)) for lam in lams}


@lru_cache(maxsize=None)
def _m_to_basis_matrix(basis, degree):
    """Inverse change of basis, with Fraction entries."""
    lams = list(partitions_of(degree))
    idx = {lam: i for i, lam in enumerate(lams)}
    size = len(lams)
    forward = _basis_to_m_matrix(basis, degree)
    # rows of A: coordinates (in m) of the basis elements
    a = [[Fraction(0)] * size for _ in range(size)]
    for lam, expansion in forward.items():
        for nu, c in expansion.items():
            a[idx[lam]][idx[nu]] = Fraction(c)
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
    n = len(a)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class SymFun:
    """A homogeneous symmetric function as exact coordinates in one of
    the m / h / e / p bases."""

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree, basis, coeffs):
        if basis not in ("m", "h", "e", "p"):
            raise ValueError(f"unknown basis {basis!r}")
        self.degree = degree
        self.basis = basis
        self.coeffs = {Partition(k): v for k, v in coeffs.items() if v}
        for lam in self.coeffs:
            if lam.size != degree:
                raise DegreeMismatchError("inhomogeneous coefficients")

    def convert_to(self, basis):
        if basis == self.basis:
            return self
        # go through the monomial basis
        if self.basis == "m":
            m_coords = self.coeffs
        else:
            matrix = _basis_to_m_matrix(self.basis, self.degree)
            m_coords = {}
            for lam, c in self.coeffs.items():
                for nu, c2 in matrix[lam].items():
                    m_coords[nu] = m_coords.get(nu, 0) + c * c2
        if basis == "m":
            return SymFun(self.degree, "m", m_coords)
        matrix = _m_to_basis_matrix(basis, self.degree)
        out = {}
        for lam, c in m_coords.items():
            for nu, c2 in matrix[lam].items():
                out[nu] = out.get(nu, 0) + c * c2
        return SymFun(self.degree, basis, out)

    def coeff(self, lam):
        return self.coeffs.get(Partition(lam), 0)

    def __eq__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
        if self.basis != other.basis:
            other = other.convert_to(self.basis)
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __repr__(self):
        body = " + ".join(
            f"{c}*{self.basis}{list(lam)}" for lam, c in sorted(self.coeffs.items())
        )
        return body or "0"


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

    def weights():
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

    return QtPolynomial(weights())


def htilde(mu, pt):
    """Monomial-basis vector of the modified Macdonald polynomial at a
    point, as a SymFun with exact coefficients (ints at int points)."""
    mu = Partition(mu)
    _check_degree(mu.size)
    coeffs = {
        lam: htilde_mcoeff(tuple(mu), tuple(lam)).eval(pt.q0, pt.t0)
        for lam in partitions_of(mu.size)
    }
    return SymFun(mu.size, "m", coeffs)


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


def htilde_at_alphabet(mu, alphabet, pt):
    """Plethystic evaluation of the Macdonald polynomial on an alphabet;
    coefficients stay fixed, only the alphabet is raised to powers.  The
    degree cap is checked on every call, cached value or not."""
    _check_degree(sum(mu))
    return _htilde_at_alphabet(tuple(mu), alphabet, pt)


@lru_cache(maxsize=None)
def _htilde_at_alphabet(mu, alphabet, pt):
    if not mu:
        return 1
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


@lru_cache(maxsize=None)
def _e_to_h_signed(k):
    """e_k as a signed sum of h-products: compositions of k with sign
    (-1)^(k - length)."""
    if k == 0:
        return ((1, ()),)
    out = []

    def rec(remaining, parts):
        if remaining == 0:
            sign = (-1) ** (k - len(parts))
            out.append((sign, tuple(parts)))
            return
        for p in range(1, remaining + 1):
            rec(remaining - p, parts + [p])

    rec(k, [])
    return tuple(out)


@lru_cache(maxsize=None)
def _expand_eh_to_h(e_indices, h_indices):
    """Signed h-partition expansion of a product of e's and h's."""
    base_h = tuple(x for x in h_indices if x > 0)
    terms = {tuple(sorted(base_h, reverse=True)): 1}
    for k in e_indices:
        if k == 0:
            continue
        new = {}
        for sign, comp in _e_to_h_signed(k):
            for hpart, c in terms.items():
                key = tuple(sorted(hpart + comp, reverse=True))
                new[key] = new.get(key, 0) + sign * c
        terms = {k2: v for k2, v in new.items() if v}
    return terms


def pair_htilde_h(mu, nu, pt):
    """<H_mu, h_nu> = coefficient of m_nu, evaluated at the point.  At
    nu = (n) it is 1: the one filling with content (n) has inv = maj = 0."""
    if tuple(nu) == (sum(mu),):
        return 1
    return htilde_mcoeff(tuple(mu), tuple(nu)).eval(pt.q0, pt.t0)


@lru_cache(maxsize=None)
def _eh_pairing(mu, e_indices, h_indices):
    """<H_mu, prod e_k prod h_a> as one integer q,t-polynomial: the signed
    sum of monomial coefficients over the h-expansion of the e's."""
    mu = Partition(mu)
    if mu.size != sum(e_indices) + sum(h_indices):
        raise DegreeMismatchError("degrees differ in Hall pairing")
    if mu.size == 0:
        return QtPolynomial.one()
    total = QtPolynomial.zero()
    for hpart, c in _expand_eh_to_h(e_indices, h_indices).items():
        total += c * htilde_mcoeff(tuple(mu), hpart)
    return total


def pair_htilde_eh(mu, e_indices, h_indices, pt):
    """<H_mu, prod e_k prod h_a> via the signed h-expansion of the e's."""
    return _eh_pairing(tuple(mu), tuple(e_indices), tuple(h_indices)).eval(
        pt.q0, pt.t0
    )


@lru_cache(maxsize=None)
def _hook_pairing(mu, r):
    """<H_mu, s_(n-r, 1^r)> as one integer q,t-polynomial."""
    n = sum(mu)
    if not 0 <= r < n:
        raise DegreeMismatchError("hook column length out of range")
    total = QtPolynomial.zero()
    for i in range(r + 1):
        total += (-1) ** i * _eh_pairing(mu, (r - i,), (n - r + i,))
    return total


def pair_htilde_hook(mu, r, pt):
    """<H_mu, s_(n-r, 1^r)> via s_(a,1^b) = sum_i (-1)^i h_(a+i) e_(b-i)."""
    return _hook_pairing(tuple(mu), r).eval(pt.q0, pt.t0)


def hall_pair(mu, rhs, pt):
    """Hall pairing of a Macdonald polynomial against a named right side:
    ("h", nu) | ("eh", e_indices, h_indices) | ("hook", r)."""
    tag = rhs[0]
    if tag == "h":
        return pair_htilde_h(mu, rhs[1], pt)
    if tag == "eh":
        return pair_htilde_eh(mu, rhs[1], rhs[2], pt)
    if tag == "hook":
        return pair_htilde_hook(mu, rhs[1], pt)
    raise ValueError(f"unknown pairing {tag!r}")


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
    partition), read by its numerator and denominator.  At r = 1 it is the
    Garsia-Haiman closed form M B Pi / w: no Macdonald coefficients."""
    if mu.size == 0:
        return 1
    w = w_mu(mu, pt)
    if w == 0:
        raise PoleError("w vanishes at the evaluation point")
    if r == 1:
        M = (1 - pt.q0) * (1 - pt.t0)
        B = b_alphabet(mu).eval(pt.q0, pt.t0)
        return Fraction(M * B * pi_mu(mu, pt), w)
    return Fraction(htilde_at_alphabet(mu, _m_times(bracket_q(r)), pt), w)


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
    Cauchy identity; at r = 1 the weight is M B_mu Pi_mu / w_mu); each
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
    """Closed-form degree data of a partition: the q-exponents (coarms)
    and the t-exponents (colegs) of the monomials of B_mu, each largest
    first, and the degree of w_mu, (sum of 2 arm + 1, sum of 2 leg + 1)."""
    stats = _cell_stats(mu)
    return (
        tuple(sorted((s[0] for s in stats), reverse=True)),
        tuple(sorted((s[1] for s in stats), reverse=True)),
        (sum(2 * s[2] + 1 for s in stats), sum(2 * s[3] + 1 for s in stats)),
    )


def eigenvalue_degree(operator, mu):
    """(q_deg, t_deg) of an operator's eigenvalue on H_mu (see
    ``_eigenvalue``), (-1, -1) when it is 0.  Exact: the monomials of
    B_mu have coefficient 1, so no top term cancels.  h_a[B_mu] has a
    times the largest exponent, e_d[B_mu] and e_b[B_mu - 1] the sum of
    the d (or b) largest, and T_mu is (n(mu'), n(mu))."""
    qs, ts, _ = _degree_data(tuple(mu))
    tag = operator[0]
    if tag == "nabla":
        return sum(qs), sum(ts)
    d = operator[1]
    if tag == "e'":
        if not qs:  # e_b[-1] = (-1)^b
            return (0, 0) if d >= 0 else (-1, -1)
        qs, ts = qs[:-1], ts[:-1]  # the corner's monomial is the 1
    if d < 0:
        return (-1, -1)
    if tag == "h":
        if not d:
            return (0, 0)
        return (d * qs[0], d * ts[0]) if qs else (-1, -1)
    if tag in ("e", "e'"):
        return (sum(qs[:d]), sum(ts[:d])) if d <= len(qs) else (-1, -1)
    raise ValueError(f"unknown operator {tag!r}")


def pairing_degree(mu, rhs):
    """(q_deg, t_deg) of ``hall_pair(mu, rhs, pt)`` as a polynomial, read
    from the cached point-free pairing; (-1, -1) when it is 0."""
    tag = rhs[0]
    if tag == "h":
        if tuple(rhs[1]) == (sum(mu),):
            return (0, 0)
        return htilde_mcoeff(tuple(mu), tuple(rhs[1])).degree()
    if tag == "eh":
        return _eh_pairing(tuple(mu), tuple(rhs[1]), tuple(rhs[2])).degree()
    if tag == "hook":
        return _hook_pairing(tuple(mu), rhs[1]).degree()
    raise ValueError(f"unknown pairing {tag!r}")


def _numerator_degree(mu, operators, rhs, r):
    """Degree bound of num_mu, the mu term of ``delta_pairing`` times w_mu;
    None when the term is 0."""
    qs, ts, _ = _degree_data(mu)
    if qs:
        q, t = r + r * qs[0] + sum(qs), r * (ts[0] + 1) + sum(ts)
    else:  # the empty partition has weight 1
        q = t = 0
    for operator in operators:
        dq, dt = eigenvalue_degree(operator, mu)
        if dq < 0:
            return None
        q, t = q + dq, t + dt
    dq, dt = pairing_degree(mu, rhs)
    return None if dq < 0 else (q + dq, t + dt)


def degree_bound(n, operators, rhs, r=1):
    """Per-variable degree bound (q_deg, t_deg) of ``delta_pairing(n,
    operators, rhs, pt, r)`` as a polynomial in q and t.

    The pairing is a sum over mu of num_mu / w_mu.  Over Q(t) the
    q-degree (numerator degree minus denominator degree) of a sum of
    rational functions is at most the largest q-degree of its terms, and
    the same holds for t over Q(q).  So *if the pairing is a polynomial*,
    its degree in each variable is at most the largest over mu of
    deg num_mu - deg w_mu.  That is the one assumption a grid check at
    this bound rests on: it holds for the nabla sides by Garsia and
    Haiman, and for the Delta and Delta' sides by Haglund, Remmel and
    Wilson (2015).

    The degrees add up over the factors of num_mu, each from a closed
    form over the cell statistics, with no symbolic w_mu or Pi_mu built:
    the Cauchy weight's numerator H_mu[M [r]_q] = (1 - q^r) h_r[(1 - t)
    B_mu] Pi_mu (at r = 1 it is M B_mu Pi_mu), at most (r + r maxq(B_mu)
    + n(mu'), r (maxt(B_mu) + 1) + n(mu)); each ``eigenvalue_degree``;
    and the ``pairing_degree``.  A mu whose term ``delta_pairing`` drops
    as zero contributes nothing; (-1, -1) when no term is left.
    """
    q_deg = t_deg = -1
    for mu in partitions_of(n):
        num = _numerator_degree(mu, operators, rhs, r)
        if num is not None:
            w_q, w_t = _degree_data(mu)[2]
            q_deg, t_deg = max(q_deg, num[0] - w_q), max(t_deg, num[1] - w_t)
    return q_deg, t_deg


#: Every named Delta side as data: name -> a function of the side's
#: arguments that gives its rows ``(shift, n, operators, rhs, r)``, each
#: the term t^shift <(operators) e_n[X [r]_q], rhs> of ``delta_pairing``;
#: the side is the sum of its rows.  The evaluators below read their rows
#: here and ``side_degree`` bounds the same rows, so the two cannot drift.
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


def side_degree(name, *args):
    """Per-variable degree bound (q_deg, t_deg) of the named side of
    ``SIDES`` at its arguments: the largest ``degree_bound`` of its rows,
    each with its t-shift added; (-1, -1) when every row is 0."""
    q_deg = t_deg = -1
    for shift, n, operators, rhs, r in SIDES[name](*args):
        q, t = degree_bound(n, operators, rhs, r)
        if q >= 0 and t >= 0:
            q_deg, t_deg = max(q_deg, q), max(t_deg, t + shift)
    return q_deg, t_deg


def _side(name, args, pt):
    """The named side of ``SIDES`` at its arguments and the point."""
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
    e_n[X [r]_q], e_n> as <nabla F, h_n>, one ``delta_pairing`` row per r.
    Row r = 1 reads no Macdonald coefficient, so the cap is checked here."""
    _check_degree(n)
    return _side("sum_r_lhs", (m, n, k), pt)


def pair_en_eh(n, d, pt):
    """<e_n, e_d h_(n-d)> from the classical h-expansion: the only
    h-product pairing nontrivially with e_n is h_(1^n)."""
    total = 0
    for hpart, c in _expand_eh_to_h((d,), (n - d,)).items():
        if hpart == tuple([1] * n):
            total += c
    return total


def reciprocity_side(alpha, beta, pt):
    """H_alpha[M B_beta] Pi_beta.  Macdonald reciprocity says it is
    symmetric in alpha and beta."""
    return htilde_at_alphabet(alpha, _m_times(b_alphabet(beta)), pt) * pi_mu(beta, pt)


@lru_cache(maxsize=None)
def _m_times(alphabet):
    """M times the alphabet, built once per alphabet, so the
    ``htilde_at_alphabet`` cache keys share one alphabet and its stored
    hash."""
    return m_alphabet() * alphabet
