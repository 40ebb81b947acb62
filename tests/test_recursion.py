"""The bucketed recursion template and its convention search."""

from qtcomb.families import FamilySpec, qt_enumerator
from qtcomb.qt import QtPolynomial
from qtcomb.recursion import (
    RECONCILED_VARIANT,
    RecursionVariant,
    all_variants,
    brute_buckets,
    pf2_recursion,
    reconcile_recursion,
)


def test_base_cases():
    for v in (RECONCILED_VARIANT, RecursionVariant(1, 0, 0, 0, "nonghost")):
        b = v.base_shift
        assert pf2_recursion(3, 3 + b, 0, 0, v) == QtPolynomial.one()
        assert pf2_recursion(3, 2 + b, 0, 0, v) == QtPolynomial.zero()
        assert pf2_recursion(3, 3 + b, 0, 1, v) == QtPolynomial.zero()


def test_reconciled_variant_values():
    # brute-force buckets are the oracle
    buckets = brute_buckets(1, 1, 0)
    assert pf2_recursion(1, 1, 1, 0) == buckets[1]  # = t
    assert pf2_recursion(1, 2, 1, 0) == buckets[2]  # = 1 + q
    assert pf2_recursion(1, 1, 1, 0) == QtPolynomial({(0, 1): 1})
    assert pf2_recursion(1, 2, 1, 0) == QtPolynomial({(0, 0): 1, (1, 0): 1})


def test_out_of_window_buckets_vanish():
    assert pf2_recursion(1, 3, 1, 0) == QtPolynomial.zero()
    assert pf2_recursion(1, 0, 1, 0) == QtPolynomial.zero()
    assert pf2_recursion(2, 3, 1, 1) == QtPolynomial.zero()


def test_memo_stability():
    a = pf2_recursion(2, 2, 2, 1)
    b = pf2_recursion(2, 2, 2, 1)
    assert a == b and a is b


def test_bucket_sum_equals_total():
    for m in range(4):
        for n in range(4 - m + 1):
            for k in range(min(m, n) + 1):
                total = QtPolynomial.zero()
                for r in range(1, m + 2):
                    total += pf2_recursion(m, r, n, k)
                assert total == qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k))


def test_reconcile_small():
    rep = reconcile_recursion(3)
    assert RECONCILED_VARIANT in rep.survivors
    assert len(rep.survivors) >= 1
    assert rep.printed_offsets_survive
    assert not rep.printed_variant_survives
    assert "SURVIVOR" in rep.render()


def test_reconcile_size_zero_keeps_many():
    # base cases alone cut much less of the variant space
    rep0 = reconcile_recursion(0)
    rep2 = reconcile_recursion(2)
    assert set(rep2.survivors) <= set(rep0.survivors)
    assert len(rep0.survivors) > len(rep2.survivors) >= 1


def test_variant_space_size():
    assert len(all_variants()) == 108
