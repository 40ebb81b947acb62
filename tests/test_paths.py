"""Path objects, statistics, compositions, and the polyomino codec."""

from itertools import combinations, permutations, product

import pytest

from qtcomb.paths import (
    Composition,
    DecoratedLabelledPath,
    DomainError,
    GeometryError,
    InvalidPathError,
    PolyominoPaths,
    PolyominoWord,
    knm_runs,
    letter_successor,
    polyomino_decode,
    polyomino_encode,
    run_labels,
    two_shuffle_runs,
    word_in_runs,
)

# Worked reference path: area word 01212011, labels 2,4,5,1,3,2,6,1.
REF = DecoratedLabelledPath((0, 1, 2, 1, 2, 0, 1, 1), (2, 4, 5, 1, 3, 2, 6, 1))

# Worked partially labelled path with zero composition (3,1,2,1).
ZC = DecoratedLabelledPath(
    (0, 1, 2, 2, 2, 0, 1, 2, 0, 1, 1, 0),
    (0, 1, 2, 0, 0, 0, 3, 4, 0, 5, 0, 0),
)


def brute_dinv(word, labels):
    """Inline oracle: scan all pairs against the definition."""
    total = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] == word[j] and (labels is None or labels[i] < labels[j]):
                total += 1
            if word[i] == word[j] + 1 and (labels is None or labels[i] > labels[j]):
                total += 1
    return total


class TestInvariants:
    def test_must_start_at_zero(self):
        with pytest.raises(InvalidPathError, match="start with 0"):
            DecoratedLabelledPath((1, 0))

    def test_unit_steps(self):
        with pytest.raises(InvalidPathError, match="more than"):
            DecoratedLabelledPath((0, 2))

    def test_column_strictness(self):
        with pytest.raises(InvalidPathError, match="strictly increasing"):
            DecoratedLabelledPath((0, 1), (2, 1))

    def test_decoration_must_be_rise(self):
        with pytest.raises(InvalidPathError, match="not a rise"):
            DecoratedLabelledPath((0, 0), (1, 2), (2,))

    def test_label_length(self):
        with pytest.raises(InvalidPathError, match="length"):
            DecoratedLabelledPath((0, 0), (1,))

    def test_empty_path_ok(self):
        p = DecoratedLabelledPath((), ())
        assert p.size == 0 and p.area() == 0 and p.dinv() == 0


class TestStatistics:
    def test_reference_area(self):
        assert REF.area() == 8

    def test_reference_dinv_pairs(self):
        primary, secondary = REF.dinv_pairs()
        assert primary == [(2, 7), (4, 7)]
        assert secondary == [(2, 6), (3, 4), (3, 8), (5, 8)]
        assert REF.dinv() == 6

    def test_reference_reading_word(self):
        assert REF.reading_word() == (2, 2, 4, 1, 6, 1, 5, 3)

    def test_staircase_area(self):
        assert DecoratedLabelledPath((0, 0, 0)).area() == 0

    def test_decorated_area_drops_row(self):
        p = DecoratedLabelledPath((0, 1, 1), decorated_rises=(2,))
        assert p.area() == 1

    def test_single_row(self):
        p = DecoratedLabelledPath((0,), (7,))
        assert p.dinv() == 0 and p.reading_word() == (7,)

    def test_dinv_two_rows(self):
        p = DecoratedLabelledPath((0, 0), (1, 2))
        assert p.dinv() == brute_dinv((0, 0), (1, 2)) == 1

    def test_unlabelled_dinv(self):
        p = DecoratedLabelledPath((0, 0, 1))
        assert p.dinv() == brute_dinv((0, 0, 1), None)

    def test_zero_labels_in_dinv(self):
        word, labels = ZC.area_word, ZC.labels
        assert ZC.dinv() == brute_dinv(word, labels)

    def test_zerocomp_reading_word(self):
        # diagonal reading order applied to the worked path
        assert ZC.reading_word() == (1, 3, 5, 2, 4)


class TestCompositions:
    def test_parts_positive(self):
        with pytest.raises(InvalidPathError):
            Composition((1, 0))

    def test_zero_composition_reference(self):
        assert ZC.zero_composition() == (3, 1, 2, 1)

    def test_zero_composition_all_diagonal(self):
        p = DecoratedLabelledPath((0, 0, 0), (0, 0, 0))
        assert p.zero_composition() == (1, 1, 1)

    def test_zero_composition_needs_corner_zero(self):
        with pytest.raises(DomainError):
            REF.zero_composition()

    def test_big_car_reference(self):
        p = DecoratedLabelledPath(
            (0, 0, 1, 1, 2, 0, 0, 1, 1, 2, 2, 0),
            (2, 1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2),
            ghost_row=True,
        )
        assert p.big_car_composition() == (3, 3, 1)

    def test_big_car_needs_diagonal_anchor(self):
        p = DecoratedLabelledPath((0, 1), (1, 2))
        with pytest.raises(DomainError):
            p.big_car_composition()


class TestGhost:
    def test_ghost_roundtrip(self):
        p = DecoratedLabelledPath((0, 1), (1, 2))
        g = p.with_ghost()
        assert g.ghost_row and g.size == 3
        assert (g.area_word, g.labels) == ((0, 0, 1), (2, 1, 2))

    def test_ghost_preserves_statistics(self):
        from qtcomb.families import FamilySpec, generate

        for m in range(3):
            for n in range(3 - m + 1):
                for p in generate(FamilySpec("pf2", m=m, n=n)):
                    g = p.with_ghost()
                    assert (g.dinv(), g.area()) == (p.dinv(), p.area())


class TestPolyominoWord:
    def test_validation(self):
        with pytest.raises(InvalidPathError, match="unbarred 0"):
            PolyominoWord([(0, True)])
        with pytest.raises(InvalidPathError, match="successor"):
            PolyominoWord([(0, False), (1, False)])

    def test_successor(self):
        assert letter_successor((0, False)) == (0, True)
        assert letter_successor((0, True)) == (1, False)

    def test_stats_small(self):
        w = PolyominoWord.from_string("0 0b 0")
        # pair scan: letter 1 is the successor of letter 2
        pairs = w.dinv_pairs()
        assert pairs == [(1, 2)] and w.dinv() == 1

    def test_trivial_words(self):
        w = PolyominoWord.from_string("0 0b")
        assert w.area() == 0 and w.dinv() == 0 and (w.m, w.n) == (0, 1)

    def test_decorated_area(self):
        w = PolyominoWord.from_string("0 0b 1", decorated_rises=(2,))
        assert w.area() == 0

    def test_json_roundtrip(self):
        w = PolyominoWord.from_string("0 0b 1 1b", decorated_rises=(2,))
        assert PolyominoWord.from_json(w.to_json()) == w


# the 6x11 worked polyomino
BIG_RED = "NNENNEENNENNNENNE"
BIG_GREEN = "EENNNNENENNNEENNN"
BIG_WORD = "0 0b 1 1b 2 1b 1b 0 0b 0b 1 0b 0b 0b 1 1 1b 1b"


class TestCodec:
    def test_reference_word(self):
        paths = PolyominoPaths(6, 11, BIG_RED, BIG_GREEN)
        assert str(polyomino_encode(paths)) == BIG_WORD

    def test_reference_area(self):
        w = PolyominoWord.from_string(BIG_WORD)
        paths = PolyominoPaths(6, 11, BIG_RED, BIG_GREEN)
        assert w.area() == paths.area() == 11

    def test_empty_polyomino(self):
        paths = PolyominoPaths(0, 0, "", "")
        assert str(polyomino_encode(paths)) == "0"

    def test_red_below_green_rejected(self):
        with pytest.raises(GeometryError):
            PolyominoPaths(1, 1, "EN", "NE")

    def test_roundtrip_exhaustive(self):
        from qtcomb.families import FamilySpec, generate

        for m in range(7):
            for n in range(7 - m):
                for w in generate(FamilySpec("rp", m=m, n=n)):
                    paths = polyomino_decode(w)
                    assert polyomino_encode(paths) == w

    def test_ghost_letter_carries_no_statistics(self):
        from qtcomb.families import FamilySpec, generate

        for m in range(4):
            for n in range(4 - m):
                for w in generate(FamilySpec("rp", m=m, n=n)):
                    body_area = sum(v for v, _ in w.letters[1:])
                    body_pairs = [
                        (i, j) for i, j in w.dinv_pairs() if i >= 1
                    ]
                    assert w.area() == body_area
                    assert w.dinv() == len(body_pairs)

    def test_paths_word_paths_roundtrip(self):
        paths = PolyominoPaths(6, 11, BIG_RED, BIG_GREEN)
        assert polyomino_decode(polyomino_encode(paths)) == paths


class TestRuns:
    def test_word_in_runs(self):
        assert word_in_runs((5, 1, 8, 2, 7, 3, 6, 4), [(1, 3, True), (4, 5, False), (6, 8, False)])
        assert not word_in_runs((1, 2), [(1, 2, False)])

    def test_run_labels_worked(self):
        # reading order: rows 1, 4 (level 0), then rows 2, 3 (level 1)
        runs = [(1, 1, True), (2, 3, False)]
        assert run_labels((0, 1, 1, 0), (1, 0, None, 1), runs) == [3, 1, 0, 2]

    def test_run_labels_read_in_their_runs(self):
        # every area word of size <= 6 and every assignment of its rows to
        # the three runs of knm_runs
        from qtcomb.families import FamilySpec, generate

        for size in range(7):
            for p in generate(FamilySpec("d", n=size)):
                word = p.area_word
                order = sorted(range(size), key=word.__getitem__)
                for row_runs in product(range(3), repeat=size):
                    k = row_runs.count(0)
                    runs = knm_runs(k, k + row_runs.count(1), k + row_runs.count(2))
                    labels = run_labels(word, row_runs, runs)
                    assert sorted(labels) == list(range(1, size + 1))
                    reading = [labels[i] for i in order]
                    assert word_in_runs(reading, runs), (word, row_runs)


def test_path_json_roundtrip():
    p = DecoratedLabelledPath((0, 1, 1), (1, 2, 3), (2,))
    assert DecoratedLabelledPath.from_json(p.to_json("ld")) == p


@pytest.mark.parametrize(
    "field, value",
    [
        ("area_word", [0, 1.0, 1]),
        ("area_word", [0, True, 1]),
        ("labels", [1, "2", 3]),
        ("decorated_rises", [2.0]),
        ("ghost_row", 0),
    ],
)
def test_path_json_rejects_non_integer_entries(field, value):
    obj = DecoratedLabelledPath((0, 1, 1), (1, 2, 3), (2,)).to_json("ld")
    obj[field] = value
    with pytest.raises(TypeError):
        DecoratedLabelledPath.from_json(obj)


@pytest.mark.parametrize(
    "letter", [{"v": False, "barred": True}, {"v": 0, "barred": 1}]
)
def test_word_json_rejects_non_integer_letters(letter):
    obj = PolyominoWord.from_string("0 0b 1").to_json()
    obj["letters"][1] = letter
    with pytest.raises(TypeError):
        PolyominoWord.from_json(obj)


def _dinv_oracle_specs():
    """Small instances of every family whose members the suites call
    ``dinv`` on."""
    from qtcomb.families import FamilySpec, partitions

    for n in range(7):
        yield FamilySpec("d", n=n)
    for total in range(6):
        for m in range(total + 1):
            n = total - m
            yield FamilySpec("catalan-pld", m=m, n=n)
            for k in range(min(m, n) + 1):
                yield FamilySpec("pf2", m=m, n=n, k=k, ghost=True)
            for lam in partitions(n) if n else ():
                yield FamilySpec("pld" if m else "ld", m=m, n=n, content=lam)
    for k in range(6):
        for n in range(k, 6 + k):
            for m in range(k, 6 + k):
                if 0 < m + n - k <= 5:
                    yield FamilySpec("shuffle-knm", m=m, n=n, k=k)


def test_dinv_counts_the_listed_pairs():
    from qtcomb.families import generate

    members = 0
    for spec in _dinv_oracle_specs():
        for p in generate(spec):
            primary, secondary = p.dinv_pairs()
            assert p.dinv() == len(primary) + len(secondary), (spec, p)
            members += 1
    assert members > 5000


@pytest.mark.parametrize(
    "args, message",
    [
        # an area-word fault at row 3 and a column fault at row 2
        (((0, 1, 3), (2, 1, 5)), "area word steps by more than +1 at row 3"),
        # a column fault at row 2 and an undecorated rise at row 3
        (
            ((0, 1, 0), (2, 1, 3), (3,)),
            "labels not strictly increasing in column at row 2",
        ),
    ],
)
def test_first_of_two_faults_is_raised(args, message):
    with pytest.raises(InvalidPathError) as info:
        DecoratedLabelledPath(*args)
    assert str(info.value) == message


# -- the one-pass kernels against their earlier forms ---------------------
#
# Each reference below is the kernel as it was written before it became
# one loop per check; the rewrites must raise the same exception class
# with the same message, or give the same answer, on every input listed.


def reference_validate(a, labels, decorated, ghost):
    """``DecoratedLabelledPath._validate`` written check by check."""
    n = len(a)
    if n and a[0] != 0:
        raise InvalidPathError("area word must start with 0")
    for row, (prev, x) in enumerate(zip(a, a[1:]), start=2):
        if x < 0 or x > prev + 1:
            raise InvalidPathError(f"area word steps by more than +1 at row {row}")
    if labels is not None:
        if len(labels) != n:
            raise InvalidPathError("labels length differs from area word")
        if any(l < 0 for l in labels):
            raise InvalidPathError("labels must be non-negative")
        for row, (prev, x, below, label) in enumerate(
            zip(a, a[1:], labels, labels[1:]), start=2
        ):
            if x == prev + 1 and label <= below:
                raise InvalidPathError(
                    f"labels not strictly increasing in column at row {row}"
                )
    if decorated:
        rises = frozenset(i + 1 for i in range(1, len(a)) if a[i] > a[i - 1])
        for i in decorated:
            if i not in rises:
                raise InvalidPathError(f"decorated index {i} is not a rise")
    if ghost:
        if labels is None or n == 0:
            raise InvalidPathError("ghost row requires a labelled row 1")
        if labels[0] != 2 or a[0] != 0:
            raise InvalidPathError("ghost row must be the car 2 at level 0")


def reference_word_in_runs(word, runs):
    for lo, hi, increasing in runs:
        sub = [x for x in word if lo <= x <= hi]
        want = list(range(lo, hi + 1))
        if not increasing:
            want.reverse()
        if sub != want:
            return False
    return True


def reference_word_validate(w, decorated):
    """``PolyominoWord._validate`` written check by check."""

    def key(letter):
        v, barred = letter
        return 2 * v + (1 if barred else 0)

    if not w:
        raise InvalidPathError("polyomino word cannot be empty")
    if w[0] != (0, False):
        raise InvalidPathError("first letter must be the unbarred 0")
    if any(v < 0 for v, _ in w):
        raise InvalidPathError("letter values must be non-negative")
    for i in range(1, len(w)):
        if key(w[i]) > key(w[i - 1]) + 1:
            raise InvalidPathError(f"letter {i} exceeds the successor of letter {i - 1}")
    rises = frozenset(i for i in range(1, len(w)) if w[i][0] > w[i - 1][0])
    for i in decorated:
        if i not in rises:
            raise InvalidPathError(f"decorated index {i} is not a rise")


def reference_encode(paths):
    """``polyomino_encode`` over the set of squares of the polyomino."""
    cells = paths.cells()
    green_events = [(0, 0)]
    x = y = 0
    for step in paths.green:
        if step == "N":
            y += 1
        else:
            x += 1
            green_events.append((x, y))
    red_tops = []
    x = y = 0
    for step in paths.red:
        if step == "N":
            y += 1
            red_tops.append((x, y))
        else:
            x += 1
    crossed = set()
    events = []
    for gx, gy in green_events:
        v = 0
        while (gx - 1 - v, gy + v) in cells:
            crossed.add((gx - 1 - v, gy + v))
            v += 1
        events.append((gx + gy, 1, (v, False)))
    for rx, ry in red_tops:
        dots = sum(
            1
            for c in range(paths.m)
            if (c, ry - 1) in cells and (c, ry - 1) not in crossed
        )
        events.append((rx + ry, 0, (dots, True)))
    events.sort(key=lambda e: (e[0], e[1]))
    return PolyominoWord([e[2] for e in events])


def _outcome(fn, *args):
    """What ``fn(*args)`` did: its value, or its exception class and
    message."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the class is part of what is compared
        return type(exc), str(exc)


def _faulty_area_words(n):
    """Every area word of size n; every valid prefix followed by a step to
    -1 or one of +2, then zeros; and the starts -1 and 1."""
    if not n:
        yield ()
        return
    yield from ((x,) + (0,) * (n - 1) for x in (-1, 1))

    def rec(word):
        if len(word) == n:
            yield word
            return
        top = word[-1] + 1
        for x in range(top + 1):
            yield from rec(word + (x,))
        for x in (-1, top + 1):
            yield word + (x,) + (0,) * (n - len(word) - 1)

    yield from rec((0,))


def test_validate_raises_as_the_reference_does():
    # label tuples: every one over -1..3 up to size 4 and over {-1, 1, 2}
    # at size 5, plus none and one of the wrong length; decorations: every
    # set of at most three indices in 0..n+1 on three labellings; a ghost
    # row or none on each
    faults = set()
    for n in range(6):
        values = (-1, 0, 1, 2, 3) if n <= 4 else (-1, 1, 2)
        labellings = [None, (1,) * (n + 1), *product(values, repeat=n)]
        firm = tuple(range(1, n + 1))
        decorations = [d for r in range(4) for d in combinations(range(n + 2), r)]
        for word in _faulty_area_words(n):
            cases = [(labels, ()) for labels in labellings]
            cases += [
                (labels, dec)
                for dec in decorations
                for labels in (None, firm, (2,) + firm[1:])
            ]
            for labels, dec in cases:
                for ghost in (False, True):
                    got = _outcome(DecoratedLabelledPath, word, labels, dec, ghost)
                    want = _outcome(
                        reference_validate, word, labels, frozenset(dec), ghost
                    )
                    assert got[0] == want[0] and (
                        got[0] == "returned" or got[1] == want[1]
                    ), (word, labels, dec, ghost)
                    faults.add(str(want[1]).split(" at row")[0])
    # every check was reached, decorated index 0, 1 and n+1 included
    assert {
        "area word must start with 0",
        "area word steps by more than +1",
        "labels length differs from area word",
        "labels must be non-negative",
        "labels not strictly increasing in column",
        "decorated index 0 is not a rise",
        "decorated index 1 is not a rise",
        "decorated index 6 is not a rise",
        "decorated index 3 is not a rise",
        "ghost row requires a labelled row 1",
        "ghost row must be the car 2 at level 0",
    } <= faults


def test_word_in_runs_answers_as_the_reference_does():
    # every permutation of 1..N and every word of length <= 4 over 1..6,
    # against the runs of every (k,n,m)-shuffle and two-shuffle of size N
    short = [w for length in range(5) for w in product(range(1, 7), repeat=length)]
    checked = accepted = 0
    for size in range(7):
        runs_list = [
            knm_runs(k, n, m)
            for k in range(size + 1)
            for n in range(k, size + k + 1)
            for m in range(k, size + k + 1)
            if m + n - k == size
        ]
        runs_list += [two_shuffle_runs(m, size - m) for m in range(size + 1)]
        for word in [*permutations(range(1, size + 1)), *short]:
            for runs in runs_list:
                want = reference_word_in_runs(word, runs)
                assert word_in_runs(word, runs) == want, (word, runs)
                checked += 1
                accepted += want
    assert accepted and checked > 50000


def test_polyomino_word_validate_raises_as_the_reference_does():
    letters = [(v, b) for v in (-1, 0, 1, 2) for b in (False, True)]
    for length in range(5):
        decorations = [
            d for r in range(3) for d in combinations(range(-1, length + 1), r)
        ]
        for w in product(letters, repeat=length):
            for dec in decorations:
                got = _outcome(PolyominoWord, w, dec)
                want = _outcome(reference_word_validate, w, frozenset(dec))
                assert got[0] == want[0] and (
                    got[0] == "returned" or got[1] == want[1]
                ), (w, dec)


def test_encode_matches_the_reference_on_every_path_pair():
    pairs = 0
    for m in range(8):
        for n in range(9 - m):
            strings = [
                "".join("E" if i in east else "N" for i in range(m + n))
                for east in combinations(range(m + n), m)
            ]
            for red in strings:
                for green in strings:
                    try:
                        paths = PolyominoPaths(m, n, red, green)
                    except GeometryError:
                        continue
                    assert polyomino_encode(paths) == reference_encode(paths), paths
                    pairs += 1
    assert pairs > 1000


def test_zero_valleys_are_the_valleys_labelled_zero():
    from qtcomb.families import FamilySpec, generate, partitions

    for m in range(4):
        for n in range(1, 5 - m):
            for lam in partitions(n):
                for p in generate(FamilySpec("pld" if m else "ld", m=m, n=n, content=lam)):
                    # valleys: row 1 and every row that is not a rise
                    a = p.area_word
                    valleys = [1] + [i + 1 for i in range(1, p.size) if a[i] <= a[i - 1]]
                    want = frozenset(i for i in valleys if p.labels[i - 1] == 0)
                    assert p.zero_valleys() == want, p
