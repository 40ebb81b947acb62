"""Path objects, statistics, compositions, and the polyomino codec."""

from itertools import product

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
        assert ZC.zero_composition().weight == 7

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
