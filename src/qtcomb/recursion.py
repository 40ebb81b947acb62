"""The bucketed two-car recursion and its convention reconciliation.

The recursion template computes the q,t-enumerator of two-car parking
functions bucketed by the number r of diagonal big cars.  Because the
printed form of such recursions leaves the exact indexing of r, the
initial condition, and small offsets to prose, the template carries
explicit convention knobs, and ``reconcile_recursion`` searches the
finite knob space for the variant that reproduces the brute-force
bucketed enumerators on every small instance.

Template (offsets c1, c2, c3; base shift b; bucket semantics):

    F(m, r, n, k) = sum over s, h, u of
        t^(m+n-r-s-k+c1) * qbin(r+s-1+c2, s) * q^C(h,2)
        * qbin(s, h) * qbin(s+u-h-1, u-h) * F(m-r+c3, u, n-s, k-h)

    F(m, r, 0, k) = [k == 0 and r == m + b]

The first argument may legitimately reach -1: it plays the role of a
big-car count shifted by the conventional diagonal car, and m = -1 with
r = b - 1 is the fully emptied state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from qtcomb.families import FamilySpec, bucket_index, generate
from qtcomb.qt import QtPolynomial, binom2, q_binomial


class VariantDomainError(ValueError):
    """A convention variant produced a negative t-exponent."""


@dataclass(frozen=True)
class RecursionVariant:
    """One choice of conventions for the recursion template."""

    c1: int = 1
    c2: int = 0
    c3: int = 0
    base_shift: int = 1
    r_sem: str = "ghost"

    def describe(self):
        return (
            f"offsets=({self.c1:+d},{self.c2:+d},{self.c3:+d}) "
            f"base=delta(r, m{self.base_shift:+d}) r_sem={self.r_sem}"
        )


#: The variant pinned by reconcile_recursion: printed offsets, with the
#: base case shifted by one and r counting the conventional diagonal car.
RECONCILED_VARIANT = RecursionVariant(1, 0, 0, 1, "ghost")

#: Offsets as printed; the printed initial condition corresponds to
#: base_shift=0 and the prose bucket description to r_sem="ghost".
PRINTED_VARIANT = RecursionVariant(1, 0, 0, 0, "ghost")


def _qb(n, k):
    if n < 0 or k < 0 or k > n:
        return QtPolynomial.zero()
    return q_binomial(n, k)


@lru_cache(maxsize=None)
def pf2_recursion(m, r, n, k, variant=RECONCILED_VARIANT):
    """Evaluate the recursion template; memo-stable per variant."""
    b = variant.base_shift
    if n < 0 or k < 0 or m < -1:
        value = QtPolynomial.zero()
    elif n == 0:
        value = (
            QtPolynomial.one()
            if (k == 0 and r == m + b)
            else QtPolynomial.zero()
        )
    elif r < b or m - k - r + b < 0:
        # no path has more diagonal big cars than it has big cars
        value = QtPolynomial.zero()
    else:
        value = QtPolynomial.zero()
        for s in range(1, n + 1):
            exp = m + n - r - s - k + variant.c1
            if exp < 0:
                raise VariantDomainError(
                    f"negative t-exponent at (m,r,n,k,s)=({m},{r},{n},{k},{s})"
                )
            outer = QtPolynomial.monomial(1, 0, exp) * _qb(
                r + s - 1 + variant.c2, s
            )
            if outer.is_zero():
                continue
            for h in range(0, min(k, s) + 1):
                mid = outer * QtPolynomial.monomial(1, binom2(h), 0) * _qb(s, h)
                if mid.is_zero():
                    continue
                for u in range(h, m - r + variant.c3 + b + 1):
                    sub = pf2_recursion(
                        m - r + variant.c3, u, n - s, k - h, variant
                    )
                    if sub.is_zero():
                        continue
                    value += mid * _qb(s + u - h - 1, u - h) * sub
    return value


# -- reconciliation ------------------------------------------------------


@dataclass
class ReconcileReport:
    """Outcome of the convention search."""

    max_size: int
    survivors: list
    failures: dict  # variant -> (instance, recursion value or error, brute value)

    @property
    def printed_offsets_survive(self):
        return any((v.c1, v.c2, v.c3) == (1, 0, 0) for v in self.survivors)

    @property
    def printed_variant_survives(self):
        return PRINTED_VARIANT in self.survivors

    @property
    def passed(self):
        return len(self.survivors) == 1

    def render(self):
        lines = [f"reconciliation over all m+n <= {self.max_size}"]
        lines.append(f"variants tested: {len(self.failures) + len(self.survivors)}")
        if self.survivors:
            for v in self.survivors:
                lines.append(f"SURVIVOR: {v.describe()}")
        else:
            lines.append("NO SURVIVOR")
            for v, (inst, got, want) in sorted(
                self.failures.items(), key=lambda kv: kv[0].describe()
            ):
                lines.append(f"  {v.describe()}: at {inst}: {got} != {want}")
        lines.append(
            "printed offsets (+1,+0,+0) survive: %s"
            % ("yes" if self.printed_offsets_survive else "no")
        )
        lines.append(
            "printed variant (offsets and base as printed) survives: %s"
            % ("yes" if self.printed_variant_survives else "no")
        )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def all_variants():
    out = []
    for c1, c2, c3, b, sem in product(
        (-1, 0, 1), (-1, 0, 1), (-1, 0, 1), (0, 1), ("nonghost", "ghost")
    ):
        out.append(RecursionVariant(c1, c2, c3, b, sem))
    return out


def brute_buckets(m, n, k):
    """Bucketed enumerators of the two-car family, keyed by
    ``bucket_index``: the diagonal big cars plus the conventional one."""
    out = {}
    for member in generate(FamilySpec("pf2", m=m, n=n, k=k)):
        key = bucket_index(member)
        out.setdefault(key, QtPolynomial.zero())
        out[key] += QtPolynomial.monomial(1, member.dinv(), member.area())
    return out


def reconcile_recursion(max_size):
    """Search the convention space against brute force on every instance
    with m + n <= max_size, every 0 <= k <= min(m, n), every r.  A
    survivor matches every bucket, so its sum over r is the family total
    by construction."""
    instances = []
    for total in range(max_size + 1):
        for m in range(total + 1):
            n = total - m
            for k in range(min(m, n) + 1):
                instances.append((m, n, k, brute_buckets(m, n, k)))

    survivors, failures = [], {}
    for v in all_variants():
        shift = 0 if v.r_sem == "nonghost" else 1
        bad = None
        for m, n, k, buckets in instances:
            r_lo, r_hi = shift, m + shift + 1
            for r in range(r_lo, r_hi + 1):
                # the variant counts r from shift, the buckets from 1
                want = buckets.get(r - shift + 1, QtPolynomial.zero())
                try:
                    got = pf2_recursion(m, r, n, k, v)
                except VariantDomainError as exc:
                    bad = ((m, r, n, k), f"<{exc}>", repr(want))
                    break
                if got != want:
                    bad = ((m, r, n, k), repr(got), repr(want))
                    break
            if bad:
                break
        if bad:
            failures[v] = bad
        else:
            survivors.append(v)
    return ReconcileReport(max_size=max_size, survivors=survivors, failures=failures)
