"""Exact bivariate polynomials in q and t, q-analogues, and grid-based
polynomial equality testing.

Coefficients are Python ints (arbitrary precision).  A polynomial is
never changed after it is built and stores its hash once, so it is a
cheap cache key: the plethystic alphabets of ``macdonald`` (B_mu, M,
[r]_q) are ``QtPolynomial``s.  Specializations are exact: at int
points an integer polynomial evaluates to an int, at
``fractions.Fraction`` points to a Fraction, and at ``SYMBOLIC`` to
itself, by the same code.  Equality of evaluators that are not compared
at ``SYMBOLIC`` (a partition sum divides by w_mu) is decided on a
deterministic grid of prime points, handed to the evaluators as plain
ints: q-values are drawn from the small primes, t-values from primes >=
101, so no mixed prime-power coincidences can make structured
denominators vanish.
Evaluators keep a rational value as an integer numerator and denominator
and divide once, with ``exact_quotient``, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple


class PoleError(ArithmeticError):
    """An evaluator hit a vanishing denominator at a grid point."""


class CapacityError(RuntimeError):
    """A size beyond a configured cap was requested."""


class InfeasibleGridError(RuntimeError):
    """Every candidate grid point was rejected by an evaluator."""


class QtPolynomial:
    """Sparse polynomial in q and t with exact integer coefficients.

    Terms are stored as ``{(q_exp, t_exp): coeff}`` with no zero
    coefficients and no negative exponents.  A polynomial is never changed
    after it is built, so its hash is computed once and stored: the
    per-point caches key on plethystic alphabets such as B_mu, which are
    polynomials too, and hash the same one at every lookup.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (eq, et), c in items:
                if eq < 0 or et < 0:
                    raise ValueError(f"negative exponent ({eq}, {et})")
                c = data.get((eq, et), 0) + c
                if c:
                    data[(eq, et)] = c
                else:
                    data.pop((eq, et), None)
        self.terms = data

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c}) if c else cls()

    @classmethod
    def monomial(cls, coeff, q_exp=0, t_exp=0):
        return cls({(q_exp, t_exp): coeff}) if coeff else cls()

    @classmethod
    def q(cls):
        return cls({(1, 0): 1})

    @classmethod
    def t(cls):
        return cls({(0, 1): 1})

    # -- ring operations ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QtPolynomial):
            return other
        if isinstance(other, int):
            return QtPolynomial.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            c = out.get(k, 0) + c
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        res = QtPolynomial.__new__(QtPolynomial)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = QtPolynomial.__new__(QtPolynomial)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                c = out.get(k, 0) + c1 * c2
                if c:
                    out[k] = c
                else:
                    del out[k]
        res = QtPolynomial.__new__(QtPolynomial)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = QtPolynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = QtPolynomial.const(other)
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals the int it holds, so it hashes like that int
        try:
            return self._hash
        except AttributeError:
            terms = self.terms
            if terms.keys() <= {(0, 0)}:
                self._hash = hash(terms.get((0, 0), 0))
            else:
                self._hash = hash(frozenset(terms.items()))
            return self._hash

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- queries -----------------------------------------------------

    def degree(self):
        """Max (q_degree, t_degree) over all terms; (-1, -1) for zero."""
        if not self.terms:
            return (-1, -1)
        return (max(k[0] for k in self.terms), max(k[1] for k in self.terms))

    def eval(self, q0, t0):
        """Exact evaluation: an int at int points, a Fraction at Fraction
        points."""
        total = 0
        for (eq, et), c in self.terms.items():
            total += c * q0**eq * t0**et
        return total

    def transpose(self):
        """Swap the roles of q and t."""
        return QtPolynomial({(et, eq): c for (eq, et), c in self.terms.items()})

    def exact_div(self, other):
        """Exact polynomial division; raises ValueError on nonzero remainder."""
        if not isinstance(other, QtPolynomial) or other.is_zero():
            raise ValueError("division by zero polynomial")
        lead = max(other.terms)
        lead_c = other.terms[lead]
        rem = dict(self.terms)
        out = {}
        while rem:
            (a, b) = max(rem)
            c = rem[(a, b)]
            da, db = a - lead[0], b - lead[1]
            if da < 0 or db < 0 or c % lead_c:
                raise ValueError("inexact polynomial division")
            qc = c // lead_c
            out[(da, db)] = qc
            for (a2, b2), c2 in other.terms.items():
                k = (da + a2, db + b2)
                v = rem.get(k, 0) - qc * c2
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        return QtPolynomial(out)

    def csv_rows(self):
        """Rows (q_exp, t_exp, coeff) sorted lexicographically."""
        return [(eq, et, self.terms[(eq, et)]) for eq, et in sorted(self.terms)]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (eq, et) in sorted(self.terms):
            c = self.terms[(eq, et)]
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("q", eq), ("t", et))
                if e
            )
            if mono:
                cs = {1: "", -1: "-"}.get(c, str(c) + "*")
                parts.append(cs + mono)
            else:
                parts.append(str(c))
        s = " + ".join(parts).replace("+ -", "- ")
        return s


class EvalPoint(NamedTuple):
    """An exact evaluation point (q0, t0).

    The coordinates are kept as given: ints on the grid, where every
    evaluator stays in integer arithmetic, Fractions, or the polynomials
    q and t themselves (``SYMBOLIC``).  A tuple, so that the per-point
    caches hash and compare it in C.
    """

    q0: int | Fraction | QtPolynomial
    t0: int | Fraction | QtPolynomial

    def swap(self):
        return EvalPoint(self.t0, self.q0)


#: The point (q, t) itself: every evaluator built from + - * ** returns
#: its polynomial here, by the code that returns an int at a grid point.
SYMBOLIC = EvalPoint(QtPolynomial.q(), QtPolynomial.t())


# -- q-analogues -----------------------------------------------------


def q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q_int of negative integer")
    return QtPolynomial({(i, 0): 1 for i in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n):
    """[n]_q! = [n]_q [n-1]_q ... [1]_q."""
    if n < 0:
        raise ValueError("q_factorial of negative integer")
    if n == 0:
        return QtPolynomial.one()
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_binomial(n, k):
    """Gaussian binomial [n choose k]_q; zero when n < k."""
    if n < 0 or k < 0:
        raise ValueError("q_binomial arguments must be non-negative")
    if n < k:
        return QtPolynomial.zero()
    return q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))


# -- prime grids -----------------------------------------------------


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def _primes_from(start, count):
    out = []
    n = start
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 1
    return tuple(out)


def q_primes(count):
    """q-coordinates of the grid: 2, 3, 5, 7, ..."""
    return _primes_from(2, count)


def t_primes(count):
    """t-coordinates of the grid: 101, 103, 107, ... (disjoint from q_primes)."""
    return _primes_from(101, count)


#: Further t-primes ``poly_equal_by_grid`` tries for one grid cell before
#: it gives up on the cell.
MAX_REPLACEMENTS = 8


def poly_equal_by_grid(f, g, degree_bound):
    """Decide f == g for evaluators of polynomials of degree at most
    ``degree_bound = (q_deg, t_deg)``, per variable.

    ``f`` and ``g`` map int coordinates (q0, t0) to exact numbers (int or
    Fraction) and may raise PoleError; a float raises TypeError, since a
    rounded value would turn the proof into a float comparison.
    The grid is (q_deg+1) x (t_deg+1): at each of q_deg+1 distinct
    q-values the difference, a t-polynomial of degree at most t_deg, is
    checked at t_deg+1 distinct t-values, so it vanishes there; then each
    of its t-coefficients, a q-polynomial of degree at most q_deg, has
    q_deg+1 roots and is zero.  A point where a side reports a pole (or
    where the two prime lists would collide) is replaced by a further
    t-prime at the same q, so the column argument stays intact.  A
    negative entry is a ValueError: it would check no point at all.
    """
    q_deg, t_deg = degree_bound
    if q_deg < 0 or t_deg < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    mq, mt = q_deg + 1, t_deg + 1
    qs = q_primes(mq)
    ts = t_primes(mt * (MAX_REPLACEMENTS + 1))
    for i in range(mq):
        q0 = qs[i]
        for j in range(mt):
            for rep in range(MAX_REPLACEMENTS + 1):
                t0 = ts[j + rep * mt]
                if t0 == q0:
                    continue
                try:
                    lhs = f(q0, t0)
                    rhs = g(q0, t0)
                except PoleError:
                    continue
                if isinstance(lhs, float) or isinstance(rhs, float):
                    raise TypeError(
                        f"inexact value at ({q0}, {t0}): {lhs!r} vs {rhs!r}"
                    )
                if lhs != rhs:
                    return False
                break
            else:
                raise InfeasibleGridError(
                    f"no usable point for grid cell ({i}, {j})"
                )
    return True


def exact_quotient(num, den):
    """num / den exactly: an int when den divides num, else a Fraction.
    A ``QtPolynomial`` num is divided coefficient by coefficient and must
    stay integral (ValueError otherwise)."""
    if isinstance(num, QtPolynomial):
        if any(c % den for c in num.terms.values()):
            raise ValueError(f"{num} is not divisible by {den}")
        return QtPolynomial({k: c // den for k, c in num.terms.items()})
    quot, rem = divmod(num, den)
    return quot if not rem else Fraction(num, den)


def binom2(h):
    """binomial(h, 2), used as a q-exponent."""
    return comb(h, 2)
