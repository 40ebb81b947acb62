"""Family generation, counting oracles, and enumerators."""

from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import pytest

from qtcomb import families
from qtcomb.families import (
    CapacityError,
    FamilySpec,
    FamilySpecError,
    bucket_index,
    generate,
    partitions,
    qt_enumerator,
    qt_enumerator_by_content,
    validate_family,
)
from qtcomb.paths import (
    DecoratedLabelledPath,
    knm_runs,
    two_shuffle_runs,
    word_in_runs,
)
from qtcomb.qt import QtPolynomial


@lru_cache(maxsize=None)
def catalan(n):
    """Independent recursive counter for unlabelled paths."""
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


def count_pf2_transfer(m, n):
    """Transfer-matrix count of two-car paths: state is (level, last
    label, cars used)."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, level, last, ones):
        if i == m + n:
            return 1 if ones == n else 0
        total = 0
        for a in range(level + 2) if i else (0,):
            for lab in (1, 2):
                if i and a == level + 1 and lab <= last:
                    continue
                if lab == 1 and ones + 1 > n:
                    continue
                if lab == 2 and (i - ones) + 1 > m:
                    continue
                total += go(i + 1, a, lab, ones + (lab == 1))
        return total

    return go(0, -1, 0, 0)


def test_d_counts_match_catalan():
    for n in range(7):
        members = list(generate(FamilySpec("d", n=n)))
        assert len(members) == catalan(n)
        assert len(set(members)) == len(members)


def test_pf2_and_rp_counts_match_the_closed_form():
    # the q = t = 1 value of the two-part shuffle case:
    # C(N+1, m) C(N+1, n) / (N+1) members, N = m + n
    for m in range(7):
        for n in range(7 - m):
            size = m + n + 1
            want = comb(size, m) * comb(size, n) // size
            for family in ("pf2", "rp"):
                got = sum(1 for _ in generate(FamilySpec(family, m=m, n=n)))
                assert got == want, (family, m, n)


def test_d3_has_five_members():
    assert sum(1 for _ in generate(FamilySpec("d", n=3))) == 5


def test_pf2_counts_match_transfer_matrix():
    for m in range(7):
        for n in range(7 - m):
            got = sum(1 for _ in generate(FamilySpec("pf2", m=m, n=n)))
            assert got == count_pf2_transfer(m, n), (m, n)


def test_pf2_1_1_members():
    members = list(generate(FamilySpec("pf2", m=1, n=1)))
    assert len(members) == 3
    assert qt_enumerator(FamilySpec("pf2", m=1, n=1)) == QtPolynomial(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    )


def test_rp_0_0():
    members = list(generate(FamilySpec("rp", m=0, n=0)))
    assert len(members) == 1
    assert str(members[0]) == "0"


def test_generated_members_validate():
    cases = [
        FamilySpec("d", n=4, k=1),
        FamilySpec("pf2", m=2, n=2, k=1),
        FamilySpec("pf2", m=1, n=2, ghost=True),
        FamilySpec("catalan-pld", m=1, n=2),
        FamilySpec("two-shuffle", m=2, n=2, k=1),
        FamilySpec("shuffle-knm", m=2, n=2, k=1),
        FamilySpec("rp", m=2, n=2, k=1),
        FamilySpec("pld", m=1, n=2, k=1, content=(1, 1)),
    ]
    for spec in cases:
        members = list(generate(spec))
        assert members, spec
        assert len(set(members)) == len(members)
        for member in members:
            ok, why = validate_family(member, spec)
            assert ok, (spec, member, why)


def test_canonical_order():
    """Row by row on (level, label), then by decoration set."""

    def row_key(p):
        rows = tuple(x for row in zip(p.area_word, p.labels) for x in row)
        return rows, tuple(sorted(p.decorated_rises))

    for spec in (
        FamilySpec("pf2", m=1, n=2, k=1),
        FamilySpec("shuffle-knm", m=2, n=2),
        FamilySpec("pf2", m=2, n=2, k=1, ghost=True),
        FamilySpec("pld", m=1, n=3, k=1, content=(2, 1)),
    ):
        members = list(generate(spec))
        assert [row_key(p) for p in members] == sorted(map(row_key, members))
    # sorting on (area word, labels) is a different order
    members = list(generate(FamilySpec("shuffle-knm", m=2, n=2)))
    assert members != sorted(members, key=lambda p: (p.area_word, p.labels))


def test_catalan_pld_streams_by_area_word():
    """A catalan-pld row one level above the row before it is a positive
    rise and any other row a zero valley, so the area word names the
    member, and the stream is strictly increasing in it."""
    for total in range(7):
        for m in range(total + 1):
            spec = FamilySpec("catalan-pld", m=m, n=total - m)
            words = [p.area_word for p in generate(spec)]
            assert all(a < b for a, b in zip(words, words[1:])), spec
    # not the row-by-row (level, label) order: at row 3 these two read
    # (2, 3) and (2, 2)
    members = list(generate(FamilySpec("catalan-pld", m=1, n=3)))
    assert [p.labels for p in members[3:5]] == [(0, 1, 3, 0, 2), (0, 1, 2, 0, 3)]


def test_shape_is_derived_and_shared():
    spec = FamilySpec("pf2", m=1, n=2, r=1)
    assert repr(spec) == (
        "FamilySpec(family='pf2', m=1, n=2, k=0, r=1,"
        " content=None, ghost=False)"
    )
    assert spec.shape == ((1, 1, 2), (), 0, 2)
    assert spec.shape is FamilySpec("pf2", m=1, n=2).shape
    assert spec != FamilySpec("pf2", m=1, n=2)
    with pytest.raises(TypeError):
        FamilySpec("pf2", m=1, n=2, shape=spec.shape)


def test_ld_without_content_rejected():
    with pytest.raises(FamilySpecError):
        FamilySpec("ld", n=2)


def test_pld_k_bound():
    with pytest.raises(FamilySpecError):
        FamilySpec("pld", m=1, n=2, k=2, content=(1, 1))


def test_ld_k_bound_names_ld():
    with pytest.raises(FamilySpecError, match="^ld requires n > k >= 0$"):
        FamilySpec("ld", n=3, content=(2, 1), k=3)


def test_capacity_guard(monkeypatch):
    monkeypatch.setattr(families, "MEMBER_CAP", 3)
    with pytest.raises(CapacityError):
        list(generate(FamilySpec("d", n=5)))


def test_enumerator_ghost_invariant():
    for m in range(4):
        for n in range(1 if m == 0 else 0, 5 - m):
            for k in range(min(m, n) + 1):
                a = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k))
                b = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k, ghost=True))
                assert a == b, (m, n, k)


def test_bucketed_sums_to_total():
    for m in range(4):
        for n in range(4 - m + 1):
            total = QtPolynomial.zero()
            for r in range(1, m + 2):
                total += qt_enumerator(FamilySpec("pf2", m=m, n=n, r=r))
            assert total == qt_enumerator(FamilySpec("pf2", m=m, n=n))


def test_two_shuffle_matches_two_car():
    # the two models carry the same (dinv, area) distribution; the
    # acceptance suite extends this to m+n <= 6 through the three-run map
    for m in range(6):
        for n in range(6 - m):
            for k in range(min(m, n) + 1):
                a = qt_enumerator(FamilySpec("two-shuffle", m=m, n=n, k=k))
                b = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k))
                assert a == b, (m, n, k)


def test_membership_examples():
    from qtcomb.paths import DecoratedLabelledPath

    single = DecoratedLabelledPath((0,), (1,))
    assert validate_family(single, FamilySpec("ld", n=1, content=(1,)))[0]
    assert validate_family(single, FamilySpec("pld", m=0, n=1, content=(1,)))[0]
    reference = DecoratedLabelledPath(
        (0, 1, 2, 1, 2, 0, 1, 1), (2, 4, 5, 1, 3, 2, 6, 1)
    )
    assert validate_family(
        reference, FamilySpec("ld", n=8, content=(2, 2, 1, 1, 1, 1))
    )[0]
    shuffle = DecoratedLabelledPath(
        (0, 1, 1, 1, 0, 1, 2, 2), (5, 8, 2, 7, 1, 3, 6, 4)
    )
    assert validate_family(shuffle, FamilySpec("shuffle-knm", m=6, n=5, k=3))[0]
    ok, why = validate_family(shuffle, FamilySpec("shuffle-knm", m=5, n=6, k=3))
    assert not ok and "shuffle" in why
    # k = 0 admits no decorated rise, and the content fixes the labels
    ld = FamilySpec("ld", n=2, content=(1, 1))
    decorated = DecoratedLabelledPath((0, 1), (1, 2), (2,))
    assert validate_family(decorated, ld) == (False, "expected 0 decorated rises")
    relabelled = DecoratedLabelledPath((0, 1), (2, 3))
    assert validate_family(relabelled, ld) == (False, "wrong car counts")
    # the bucket r of a shuffle path counts its diagonal cars above n
    bucket3 = DecoratedLabelledPath((0, 0, 0, 0), (1, 2, 4, 3))
    assert validate_family(bucket3, FamilySpec("shuffle-knm", m=3, n=2, k=1, r=3))[0]
    ok, why = validate_family(bucket3, FamilySpec("shuffle-knm", m=3, n=2, k=1, r=4))
    assert (ok, why) == (False, "wrong diagonal big-car bucket")
    # a catalan-pld family of m zero valleys past row 1 has m + n + 1 rows
    catalan = FamilySpec("catalan-pld", m=1, n=2)
    assert catalan.size == 4
    assert {p.size for p in generate(catalan)} == {4}


def test_ghost_pf2_candidate_rising_at_row_2_is_rejected_not_raised():
    # the body below the ghost row would start at level 1; membership
    # answers with a diagnostic instead of rebuilding that body
    path = DecoratedLabelledPath((0, 1, 0), (2, 3, 1), ghost_row=True)
    spec = FamilySpec("pf2", m=1, n=1, ghost=True)
    assert validate_family(path, spec) == (False, "wrong car counts")


def test_catalan_member_reads_canonically():
    from qtcomb.paths import DecoratedLabelledPath

    cat = DecoratedLabelledPath(
        (0, 1, 2, 2, 2, 1, 2, 3, 2, 3, 3, 3),
        (0, 1, 2, 0, 0, 0, 3, 4, 0, 5, 0, 0),
        (2, 3, 7, 8, 10),
    )
    assert cat.reading_word() == (1, 2, 3, 4, 5)
    assert validate_family(cat, FamilySpec("catalan-pld", m=6, n=5))[0]


def test_shuffle_theorem_smoke_symmetry():
    # full-content labelled paths: the enumerator is q,t-symmetric
    for n in range(1, 6):
        poly = qt_enumerator(FamilySpec("ld", n=n, content=(1,) * n))
        assert poly == poly.transpose(), n


def test_increasing_run_collapses_to_unlabelled():
    # reading word forced increasing: one labelling per unlabelled path,
    # with the unlabelled statistics
    for n in range(1, 5):
        lhs = qt_enumerator(FamilySpec("shuffle-knm", m=n, n=n, k=n))
        rhs = qt_enumerator(FamilySpec("d", n=n))
        assert lhs == rhs, n
    assert qt_enumerator(FamilySpec("shuffle-knm", m=3, n=3, k=3)) == QtPolynomial(
        {(3, 0): 1, (2, 1): 1, (1, 1): 1, (1, 2): 1, (0, 3): 1}
    )


def test_reading_word_is_permutation():
    for n in range(1, 5):
        for p in generate(FamilySpec("ld", n=n, content=(1,) * n)):
            assert sorted(p.reading_word()) == list(range(1, n + 1))


def test_enumerator_by_content():
    out = qt_enumerator_by_content(0, 1, 0)
    assert out == {(1,): QtPolynomial.one()}
    out = qt_enumerator_by_content(0, 2, 0)
    assert out[(1, 1)] == QtPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    # contents partition the family
    for m, n, k in ((1, 2, 0), (0, 3, 1)):
        total = sum(
            sum(1 for _ in generate(FamilySpec("pld" if m else "ld", m=m, n=n, k=k, content=lam)))
            for lam in partitions(n)
        )
        by = qt_enumerator_by_content(m, n, k)
        counted = sum(poly.eval(1, 1) for poly in by.values())
        assert counted == total


def _content_walks(m, n, k):
    """Each content's enumerator from the search of its own shape."""
    family = "pld" if m else "ld"
    return {
        lam: qt_enumerator(FamilySpec(family, m=m, n=n, k=k, content=lam))
        for lam in partitions(n)
    }


def test_every_content_from_the_descent_pass_is_its_own_walk():
    for m in range(7):
        for n in range(1, 7 - m):
            for k in range(n):
                got = qt_enumerator_by_content(m, n, k)
                assert got == _content_walks(m, n, k), (m, n, k)


def test_enumerator_by_content_at_n_zero():
    # the empty path for m = 0; no path starts with its m zero labels
    assert qt_enumerator_by_content(0, 0, 0) == {(): QtPolynomial.one()}
    for m in range(1, 4):
        assert qt_enumerator_by_content(m, 0, 0) == {(): QtPolynomial.zero()}
    with pytest.raises(FamilySpecError):
        qt_enumerator_by_content(1, 0, 1)


def test_the_reversed_descent_rule_misses_a_content(monkeypatch):
    """i+1 read before i, in place of after, gives some content at m+n <= 4
    a wrong enumerator: the convention of ``_descents`` is not free."""
    cases = [(m, n, k) for m in range(4) for n in range(1, 5 - m) for k in range(n)]
    families.qt_enumerators_by_descent.cache_clear()
    rule = families._descents
    monkeypatch.setattr(families, "_descents", lambda word: rule(word[::-1]))
    try:
        wrong = [
            case
            for case in cases
            if qt_enumerator_by_content(*case) != _content_walks(*case)
        ]
    finally:
        monkeypatch.undo()
        families.qt_enumerators_by_descent.cache_clear()
    assert wrong


def test_descents_of_a_reading_word():
    # 2 is read after 1; 3 before 2; 4 after 3
    assert families._descents((1, 3, 2, 4)) == {1, 3}
    assert families._descents(()) == set()


def test_bucket_index_semantics():
    # r counts the conventional diagonal car: a path with no diagonal
    # 2-car is in bucket 1, with or without its ghost row
    p = DecoratedLabelledPath((0, 1, 0), (1, 2, 1))
    assert bucket_index(p) == 1
    assert bucket_index(p.with_ghost()) == 1
    assert bucket_index(DecoratedLabelledPath((0, 1, 0), (1, 2, 2))) == 2


def test_catalan_pld_counts_match_rp():
    for m in range(4):
        for n in range(4 - m):
            a = sum(1 for _ in generate(FamilySpec("catalan-pld", m=m, n=n)))
            b = sum(1 for _ in generate(FamilySpec("rp", m=m, n=n)))
            assert a == b, (m, n)


# -- oracle: generate-then-filter -------------------------------------------


def reference_labelled_paths(size, multiset, first_nonzero):
    """Every labelled Dyck path over the multiset, undecorated, in
    row-by-row (level, label) lexicographic order, with no pruning."""
    values = sorted(set(multiset))
    out = []

    def rec(word, labels, left):
        if len(word) == size:
            out.append(DecoratedLabelledPath(word, labels))
            return
        top = word[-1] + 1 if word else 0
        for a in range(top + 1):
            for v in values:
                if not left.count(v):
                    continue
                if word and a == top and v <= labels[-1]:
                    continue
                if not word and first_nonzero and v == 0:
                    continue
                rest = list(left)
                rest.remove(v)
                rec(word + [a], labels + [v], rest)

    rec([], [], list(multiset))
    return out


def reference_decorated(paths, k):
    """Each path with every k of its rises (1-based rows i with
    a_i > a_(i-1)) decorated."""
    return [
        DecoratedLabelledPath(p.area_word, p.labels, dec, p.ghost_row)
        for p in paths
        for dec in combinations(
            [i + 1 for i in range(1, p.size) if p.area_word[i] > p.area_word[i - 1]],
            k,
        )
    ]


def reference_members(spec):
    """The family as filtered from every candidate of its size."""
    f, size = spec.family, spec.size
    if f in ("shuffle-knm", "two-shuffle"):
        runs = (
            knm_runs(spec.k, spec.n, spec.m)
            if f == "shuffle-knm"
            else two_shuffle_runs(spec.m, spec.n)
        )
        paths = [
            p
            for p in reference_labelled_paths(size, range(1, size + 1), True)
            if word_in_runs(p.reading_word(), runs)
        ]
        if f == "two-shuffle":
            return reference_decorated(paths, spec.k)
        # the bucket r: diagonal cars above n, plus the conventional one
        return [
            p
            for p in paths
            if spec.r is None
            or spec.r == 1 + sum(
                1 for a, l in zip(p.area_word, p.labels) if a == 0 and l > spec.n
            )
        ]
    if f == "pf2":
        paths = reference_labelled_paths(size, [1] * spec.n + [2] * spec.m, False)
        members = reference_decorated(paths, spec.k)
        if spec.ghost:
            members = [p.with_ghost() for p in members]
        return [p for p in members if spec.r is None or bucket_index(p) == spec.r]
    multiset = [0] * spec.m + [
        i for i, mult in enumerate(spec.content, start=1) for _ in range(mult)
    ]
    return reference_decorated(reference_labelled_paths(size, multiset, True), spec.k)


ORACLE_CASES = {
    "shuffle-knm": [
        FamilySpec("shuffle-knm", m=m, n=n, k=k)
        for k in range(6)
        for n in range(k, 6)
        for m in range(k, 6)
        if 0 < m + n - k <= 5
    ]
    + [FamilySpec("shuffle-knm", m=3, n=3), FamilySpec("shuffle-knm", m=4, n=4, k=2)],
    "shuffle-knm-r": [
        FamilySpec("shuffle-knm", m=3, n=2, k=1, r=r) for r in range(1, 5)
    ],
    "two-shuffle": [
        FamilySpec("two-shuffle", m=m, n=n, k=k)
        for m in range(6)
        for n in range(6 - m)
        for k in range(min(m, n) + 1)
    ],
    "pf2": [
        FamilySpec("pf2", m=m, n=n, k=k, ghost=ghost)
        for m in range(6)
        for n in range(6 - m)
        for k in range(min(m, n) + 1)
        for ghost in (False, True)
    ],
    "pf2-r": [
        FamilySpec("pf2", m=m, n=n, k=k, r=r, ghost=ghost)
        for m in range(1, 4)
        for n in range(1, 5 - m)
        for k in range(min(m, n) + 1)
        for ghost in (False, True)
        for r in range(1, m + 2)
    ],
    "ld-pld": [
        FamilySpec("pld" if m else "ld", m=m, n=n, k=k, content=lam)
        for m in range(3)
        for n in range(2, 6 - m)
        for k in range(1, n)
        for lam in partitions(n)
    ],
}


MEMBERSHIP_CASES = {
    **ORACLE_CASES,
    "catalan-pld": [
        FamilySpec("catalan-pld", m=m, n=n) for m in range(5) for n in range(5 - m)
    ],
    "d": [FamilySpec("d", n=n, k=k) for n in range(6) for k in range(max(n, 1))],
}


@pytest.mark.parametrize("case", sorted(MEMBERSHIP_CASES))
def test_membership_matches_generation(case):
    """``validate_family`` accepts exactly the generated members, tried on
    every member of each spec of the same family and size."""
    members = {spec: list(generate(spec)) for spec in MEMBERSHIP_CASES[case]}
    for spec, own in members.items():
        own = set(own)
        for other, candidates in members.items():
            if (other.family, other.size) != (spec.family, spec.size):
                continue
            for x in candidates:
                assert validate_family(x, spec)[0] == (x in own), (spec, x)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_generate_matches_filtered_reference(case):
    """The pruned search yields the filtered family, member for member
    and in order."""
    for spec in ORACLE_CASES[case]:
        assert list(generate(spec)) == reference_members(spec), spec


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_enumerator_is_the_member_sum(case):
    """The one-pass enumerator equals the sum of q^dinv t^area over the
    generated members."""
    for spec in ORACLE_CASES[case]:
        members = QtPolynomial(((p.dinv(), p.area()), 1) for p in generate(spec))
        assert qt_enumerator(spec) == members, spec


def _shuffle_triples(n):
    """The runs of every (j, j+a, j+b)-shuffle of the labels 1..n."""
    return [
        knm_runs(j, j + a, n - a)  # j + b with b = n - j - a
        for j in range(n + 1)
        for a in range(n - j + 1)
    ]


def test_enumerator_by_runs_is_the_member_sum():
    """Each three-run enumerator read off the descent classes equals the
    sum over the generated standard members whose reading word passes
    ``word_in_runs``."""
    for m in range(5):
        for n in range(1, 6 - m):
            family = "pld" if m else "ld"
            for k in range(n):
                members = list(
                    generate(FamilySpec(family, m=m, n=n, k=k, content=(1,) * n))
                )
                for runs in _shuffle_triples(n):
                    want = QtPolynomial(
                        ((p.dinv(), p.area()), 1)
                        for p in members
                        if word_in_runs(p.reading_word(), runs)
                    )
                    got = families.qt_enumerator_by_runs(m, n, k, runs)
                    assert got == want, (m, n, k, runs)


def test_descent_rule_is_word_in_runs():
    """On every permutation of 1..n, n <= 6, the runs hold on the descent
    set exactly when ``word_in_runs`` accepts the word."""
    for n in range(7):
        runs_list = _shuffle_triples(n) + [
            two_shuffle_runs(m, n - m) for m in range(n + 1)
        ]
        for word in permutations(range(1, n + 1)):
            descents = families._descents(word)
            for runs in runs_list:
                want = word_in_runs(word, runs)
                assert families._descents_in_runs(descents, runs) == want, (word, runs)
