"""Bijections: eta, psi, phi/ndinv, the recursive steps, and the
shuffle <-> two-car map."""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qtcomb.bijections import (
    DominoSequence,
    composite_recursive_step,
    ehh_forward,
    ehh_inverse,
    eta,
    eta_inverse,
    ndinv,
    phi,
    pld_recursive_step,
    psi,
    psi_inverse,
    shuffle_recursion_step,
)
from qtcomb.families import (
    FamilySpec,
    assemble_catalan_pld,
    generate,
    qt_enumerator,
    validate_family,
)
from qtcomb.paths import (
    DecoratedLabelledPath,
    DomainError,
    GeometryError,
    InvalidPathError,
    PolyominoPaths,
    PolyominoWord,
    knm_runs,
    polyomino_decode,
    polyomino_encode,
    run_labels,
)
from qtcomb.qt import QtPolynomial
from test_paths import _column_heights, _outcome, reference_zero_valleys

# Worked pair: the Catalan-type path and its polyomino (area 13).
CAT_PATH = DecoratedLabelledPath(
    (0, 1, 2, 2, 2, 1, 2, 3, 2, 3, 3, 3),
    (0, 1, 2, 0, 0, 0, 3, 4, 0, 5, 0, 0),
    (2, 3, 7, 8, 10),
)
CAT_WORD = PolyominoWord.from_string("0 0b 1 1b 2 1 0b 1 1b 2 2 2b")

# Worked 6x11 polyomino and its image under the block step.
BIG_WORD = PolyominoWord.from_string("0 0b 1 1b 2 1b 1b 0 0b 0b 1 0b 0b 0b 1 1 1b 1b")
BIG_STEPPED = PolyominoWord.from_string("0 0b 0b 1 0b 0b 0b 1 1 1b 1b 0 0b 1 1 1b 1b")


class TestEta:
    def test_worked_pair(self):
        assert eta_inverse(CAT_PATH) == CAT_WORD
        assert eta(CAT_WORD) == CAT_PATH

    def test_area_preserved(self):
        assert CAT_PATH.area() == CAT_WORD.area() == 13

    def test_single_row(self):
        p = DecoratedLabelledPath((0,), (0,))
        assert str(eta_inverse(p)) == "0"

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            eta_inverse(DecoratedLabelledPath((0, 1), (1, 2)))

    def test_roundtrip_exhaustive(self):
        for m in range(4):
            for n in range(4 - m + 1):
                for p in generate(FamilySpec("catalan-pld", m=m, n=n)):
                    w = eta_inverse(p)
                    assert (w.m, w.n) == (m, n)
                    assert w.area() == p.area()
                    assert eta(w) == p


class TestPsi:
    def test_worked_pair(self):
        pf = psi(CAT_WORD)
        assert pf.area_word == (0, 0, 1, 1, 2, 1, 0, 1, 1, 2, 2, 2)
        assert pf.labels == (2, 1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1)
        assert pf.ghost_row

    def test_ghost_word(self):
        pf = psi(PolyominoWord.from_string("0"))
        assert pf.area_word == (0,) and pf.labels == (2,)

    def test_statistics_and_roundtrip(self):
        for m in range(4):
            for n in range(4 - m):
                for k in range(min(m, n) + 1):
                    for w in generate(FamilySpec("rp", m=m, n=n, k=k)):
                        pf = psi(w)
                        assert (pf.dinv(), pf.area()) == (w.dinv(), w.area())
                        assert psi_inverse(pf) == w

    def test_psi_inverse_domain(self):
        with pytest.raises(DomainError):
            psi_inverse(DecoratedLabelledPath((0, 1), (1, 2)))


class TestPhi:
    def test_single_domino(self):
        assert phi(DominoSequence([(2, 0)])) == DominoSequence([])

    def test_singleton_block(self):
        assert phi(DominoSequence([(2, 0), (2, 0)])) == DominoSequence([(2, 0)])

    def test_invariant_violation(self):
        with pytest.raises(DomainError, match=r"\[1,0\]"):
            phi(DominoSequence([(2, 0), (2, 1), (1, 1)]))

    def test_worked_block_step(self):
        image = phi(DominoSequence.from_path(psi(BIG_WORD)))
        assert psi_inverse(image.to_path()) == BIG_STEPPED

    def test_output_valid_and_shorter(self):
        for m in range(3):
            for n in range(4 - m):
                for p in generate(FamilySpec("pf2", m=m, n=n, ghost=True)):
                    seq = DominoSequence.from_path(p)
                    out = phi(seq)
                    assert len(out) == len(seq) - 1
                    if len(out):
                        out.to_path()  # validity check


class TestNdinv:
    def test_bases(self):
        assert ndinv(DominoSequence([])) == 0
        assert ndinv(DominoSequence([(2, 0)])) == 0

    def test_matches_dinv_through_the_composite(self):
        for m in range(4):
            for n in range(4 - m + 1):
                for p in generate(FamilySpec("catalan-pld", m=m, n=n)):
                    image = psi(eta_inverse(p))
                    assert ndinv(image) == p.dinv()
                    assert image.area() == p.area()
                    assert image.big_car_composition() == p.zero_composition()

    def test_two_shuffle_entry_point(self):
        p = DecoratedLabelledPath((0, 0, 0), (3, 1, 2))
        # split n=1: car 1 is the lone small label, 2 and 3 are big
        assert ndinv(p, n=1) == ndinv(
            DominoSequence([(2, 0), (2, 0), (1, 0), (2, 0)])
        )
        with pytest.raises(DomainError):
            ndinv(p)  # split parameter required


class TestPldStep:
    def test_double_valley_keeps_dinv(self):
        p = DecoratedLabelledPath((0, 0, 1), (0, 0, 1), (3,))
        out = pld_recursive_step(p)
        assert out.size == 2 and out.dinv() == p.dinv()

    def test_single_row_empties(self):
        p = DecoratedLabelledPath((0,), (0,))
        assert pld_recursive_step(p).size == 0

    def test_extensional_equality_and_dinv_drop(self):
        for m in range(4):
            for n in range(4 - m + 1):
                for p in generate(FamilySpec("catalan-pld", m=m, n=n)):
                    step = pld_recursive_step(p)
                    assert step == composite_recursive_step(p)
                    doubled = (
                        p.size >= 2
                        and p.area_word[1] == 0
                        and p.labels[1] == 0
                    )
                    touches = sum(
                        1
                        for i in range(p.size)
                        if p.area_word[i] == 0 and p.labels[i] == 0
                    )
                    drop = 0 if doubled else touches - 1
                    assert p.dinv() - step.dinv() == drop, p


# Worked shuffle path with reading word 51827364 and its two-car image.
SHUFFLE_SRC = DecoratedLabelledPath((0, 1, 1, 1, 0, 1, 2, 2), (5, 8, 2, 7, 1, 3, 6, 4))
SHUFFLE_IMG = DecoratedLabelledPath(
    (0, 0, 1, 1, 2, 1, 0, 1, 1, 2, 2, 2),
    (2, 1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1),
    (5, 8, 10),
    ghost_row=True,
)


class TestEhh:
    def test_worked_pair(self):
        assert SHUFFLE_SRC.reading_word() == (5, 1, 8, 2, 7, 3, 6, 4)
        img = ehh_forward(SHUFFLE_SRC, 3, 5, 6)
        assert img == SHUFFLE_IMG
        assert ehh_inverse(img, 3, 5, 6) == SHUFFLE_SRC

    def test_k_zero_is_relabelling(self):
        p = DecoratedLabelledPath((0, 0), (1, 2))
        img = ehh_forward(p, 0, 1, 1)
        assert img.area_word == (0, 0, 0)
        assert img.labels == (2, 1, 2)
        assert not img.decorated_rises

    def test_domain_guards(self):
        # reading word (1,2) is not a decreasing medium run
        with pytest.raises(DomainError):
            ehh_forward(DecoratedLabelledPath((0, 0), (1, 2)), 0, 2, 0)
        with pytest.raises(DomainError):
            ehh_inverse(SHUFFLE_IMG, 2, 5, 6)

    @pytest.mark.parametrize(
        "word, labels, dec, knm, message",
        [
            # body 0,1,2 with the rise at row 2 decorated: a third step up
            (
                (0, 0, 1, 2),
                (2, 1, 2, 1),
                (3,),
                (1, 2, 1),
                "ehh_inverse: more than two consecutive vertical steps",
            ),
            # body 0,0,1 with the rise at row 3 decorated over a 2-car
            (
                (0, 0, 0, 1),
                (2, 1, 2, 2),
                (4,),
                (1, 1, 2),
                "ehh_inverse: decorated rise not above a 1-car",
            ),
        ],
    )
    def test_inverse_shape_guards(self, word, labels, dec, knm, message):
        # A validated two-car path cannot take either shape (a rise
        # needs a larger label above it), so the input is built without
        # the constructor's checks; it still passes the pf2 membership
        # check, which reads only sizes, car counts and decorations.
        path = object.__new__(DecoratedLabelledPath)
        path.area_word, path.labels = word, labels
        path.decorated_rises, path.ghost_row = frozenset(dec), True
        with pytest.raises(DomainError) as info:
            ehh_inverse(path, *knm)
        assert str(info.value) == message

    def test_bijection_exhaustive(self):
        for k in range(0, 4):
            for n in range(k, 5):
                for m in range(k, 5):
                    if not 0 < m + n - k <= 4:
                        continue
                    lhs = QtPolynomial.zero()
                    images = set()
                    for p in generate(FamilySpec("shuffle-knm", m=m, n=n, k=k)):
                        img = ehh_forward(p, k, n, m)
                        assert (img.dinv(), img.area()) == (p.dinv(), p.area())
                        assert ehh_inverse(img, k, n, m) == p
                        images.add(img)
                        lhs += QtPolynomial.monomial(1, p.dinv(), p.area())
                    rhs = qt_enumerator(FamilySpec("pf2", m=m, n=n, k=k, ghost=True))
                    assert lhs == rhs, (k, n, m)
                    assert len(images) == lhs.eval(1, 1)


def _random_shuffle_path(rng):
    """A (k,n,m)-shuffle path of size 8-10 and its (k, n, m): a random area
    word and a random assignment of its rows to the three runs, labelled
    by ``run_labels``; drawn again until its columns increase."""
    while True:
        size = rng.randint(8, 10)
        k = rng.randint(0, size)
        medium = rng.randint(0, size - k)
        n, m = k + medium, size - medium
        word = [0]
        for _ in range(size - 1):
            word.append(rng.randint(0, word[-1] + 1))
        row_runs = [0] * k + [1] * (n - k) + [2] * (m - k)
        rng.shuffle(row_runs)
        labels = run_labels(word, row_runs, knm_runs(k, n, m))
        try:
            return DecoratedLabelledPath(word, labels), (k, n, m)
        except InvalidPathError:
            continue


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_shuffle_maps_past_the_exhaustive_sizes(seed):
    p, (k, n, m) = _random_shuffle_path(random.Random(seed))
    img = ehh_forward(p, k, n, m)
    assert (img.dinv(), img.area()) == (p.dinv(), p.area())
    assert ehh_inverse(img, k, n, m) == p
    step, summary = shuffle_recursion_step(p, k, n, m)
    k2, n2 = k - summary["h"], n - summary["s"]
    spec = FamilySpec("shuffle-knm", m=step.size + k2 - n2, n=n2, k=k2)
    assert validate_family(step, spec) == (True, "ok")


def _random_catalan_pld_rows(rng):
    """A catalan-pld row list of 10-12 rows: a zero valley on the diagonal,
    then zero valleys at any level up to the previous row's and decorated
    rises one level above it, in random order."""
    rows, level = [("z", 0)], 0
    for _ in range(rng.randint(9, 11)):
        if rng.random() < 0.5:
            level = rng.randint(0, level)
            rows.append(("z", level))
        else:
            level += 1
            rows.append(("p", None))
    return rows


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ndinv_chain_past_the_exhaustive_sizes(seed):
    p = assemble_catalan_pld(_random_catalan_pld_rows(random.Random(seed)))
    w = eta_inverse(p)
    assert eta(w) == p
    image = psi(w)
    assert psi_inverse(image) == w
    assert image.area() == p.area()
    assert ndinv(image) == p.dinv()
    assert image.big_car_composition() == p.zero_composition()
    assert pld_recursive_step(p) == composite_recursive_step(p)
    path_json = p.to_json("catalan-pld")
    back = DecoratedLabelledPath.from_json(json.dumps(path_json))
    assert back == p and back.to_json("catalan-pld") == path_json
    word_json = w.to_json()
    back_word = PolyominoWord.from_json(json.dumps(word_json))
    assert back_word == w and back_word.to_json() == word_json


class TestShuffleStep:
    def test_two_row_instance(self):
        # one medium on the diagonal, one big at level 1: everything goes
        p = DecoratedLabelledPath((0, 1), (1, 2))
        img, summary = shuffle_recursion_step(p, 0, 1, 1)
        assert img.size == 0
        assert summary == {
            "s": 1,
            "h": 0,
            "diag_big": 0,
            "level1_big": 1,
            "base_case": False,
        }

    def test_big_staircase_is_base(self):
        p = DecoratedLabelledPath((0, 0), (2, 1))
        img, summary = shuffle_recursion_step(p, 0, 0, 2)
        assert summary["base_case"] and img.size == 0

    def test_area_bookkeeping(self):
        for k in range(0, 4):
            for n in range(max(k, 1), 5):
                for m in range(k, 5):
                    if not 0 < m + n - k <= 4:
                        continue
                    for p in generate(FamilySpec("shuffle-knm", m=m, n=n, k=k)):
                        img, summary = shuffle_recursion_step(p, k, n, m)
                        diag = summary["s"] + summary["diag_big"]
                        assert p.area() - img.area() == p.size - diag

    def test_image_bucket_matches_u(self):
        for n in range(1, 4):
            for m in range(0, 4):
                if m + n > 4:
                    continue
                for p in generate(FamilySpec("shuffle-knm", m=m, n=n, k=0)):
                    img, summary = shuffle_recursion_step(p, 0, n, m)
                    if img.size:
                        u = summary["h"] + summary["level1_big"]
                        n2 = n - summary["s"]
                        # the image's diagonal big cars, labels above n2
                        diag_big = sum(
                            1
                            for a, l in zip(img.area_word, img.labels)
                            if a == 0 and l > n2
                        )
                        assert diag_big == u - 1


def reference_dominoes(dominoes):
    """``DominoSequence.__init__`` written check by check: the reference
    for the one-pass constructor."""
    d = tuple((int(l), int(a)) for l, a in dominoes)
    if d:
        if d[0] != (2, 0):
            raise DomainError("domino sequence must start with [2,0]")
        if any(l not in (1, 2) for l, _ in d):
            raise DomainError("domino labels must be 1 or 2")
        if d[0][1] != 0 or any(
            d[i][1] > d[i - 1][1] + 1 or d[i][1] < 0 for i in range(1, len(d))
        ):
            raise DomainError("domino levels do not form an area word")
    return d


def reference_phi(seq):
    """``phi`` as it was written on lists, building a ``DominoSequence``
    at every step."""
    d = list(seq.dominoes)
    if not d:
        raise DomainError("phi needs a nonempty sequence")
    end = len(d)
    for i in range(1, len(d)):
        if d[i] == (2, 0):
            end = i
            break
    block, rest = d[:end], d[end:]
    if len(block) == 1:
        return DominoSequence(rest)
    if block[1] != (1, 0):
        raise DomainError("phi: domino after the leading [2,0] must be [1,0]")
    body = [(l, a - 1) if l == 2 else (l, a) for l, a in block[2:]]
    i = 0
    while i + 1 < len(body):
        (l1, a1), (l2, a2) = body[i], body[i + 1]
        if l1 == 2 and l2 == 1 and a2 == a1 + 1:
            body[i], body[i + 1] = (1, a1), (2, a2)
            i += 2
        else:
            i += 1
    return DominoSequence(rest + [(2, 0)] + body)


def reference_ndinv(seq):
    """``ndinv`` on a ``DominoSequence`` as it was written: one
    ``reference_phi`` per step, so every step builds and checks a new
    sequence."""
    total = 0
    while len(seq):
        d = seq.dominoes
        if not (len(d) == 1 or d[1] == (2, 0)):
            total += d.count((2, 0)) - 1
        seq = reference_phi(seq)
    return total


def test_domino_sequence_raises_as_the_reference_does():
    # every sequence of up to four dominoes with labels 0..2 and levels
    # -1..2: bad labels and bad levels, alone and mixed, in every order;
    # phi and ndinv on each one the constructor accepts
    dominoes = list(product(range(3), range(-1, 3)))
    messages = set()
    steps = set()
    for length in range(5):
        for seq in product(dominoes, repeat=length):
            try:
                want = reference_dominoes(seq)
            except DomainError as exc:
                want = str(exc)
                messages.add(want)
            try:
                got = DominoSequence(seq).dominoes
            except DomainError as exc:
                got = str(exc)
            assert got == want, seq
            if isinstance(got, str):
                continue
            accepted = DominoSequence(seq)
            for fn, ref in ((phi, reference_phi), (ndinv, reference_ndinv)):
                result = _outcome(fn, accepted)
                assert result == _outcome(ref, accepted), (fn.__name__, seq)
                steps.add(result[0])
    assert len(messages) == 3
    # an intermediate sequence can break the constructor's level check
    assert DomainError in steps and "returned" in steps
    with pytest.raises(DomainError, match="levels do not form"):
        ndinv(DominoSequence([(2, 0), (1, 0), (2, 1), (1, 2)]))


# -- references for the Catalan-side kernels -----------------------------
# Each reference below is a kernel as it was written before it ran on
# integers: the polyomino as N/E step strings, and the compositions in
# several passes.  The rewrites must give the same answer, or raise the
# same exception class with the same message, on every input listed.


def reference_decode(word):
    """``polyomino_decode`` spelling the two paths as step strings."""
    m, n = word.m, word.n
    red_x, green_y = [], []
    bar_seen = unbar_seen = 0
    for j, (v, barred) in enumerate(word.letters):
        d = j - v
        if barred:
            bar_seen += 1
            red_x.append(d - bar_seen)
        else:
            green_y.append(d - unbar_seen)
            unbar_seen += 1
    if green_y[0] != 0:
        raise GeometryError("ghost letter does not sit at the origin")

    def monotone(xs, lo, hi, what):
        prev = lo
        for x in xs:
            if x < prev or x > hi:
                raise GeometryError(f"{what} positions not monotone in range")
            prev = x

    monotone(red_x, 0, m, "red vertical")
    monotone(green_y[1:], 0, n, "green horizontal")
    red, x = [], 0
    for rx in red_x:
        red.append("E" * (rx - x) + "N")
        x = rx
    red.append("E" * (m - x))
    green, y = [], 0
    for gy in green_y[1:]:
        green.append("N" * (gy - y) + "E")
        y = gy
    green.append("N" * (n - y))
    return PolyominoPaths(m, n, "".join(red), "".join(green))


def reference_eta(word):
    """``eta`` walking the red step string of ``reference_decode``."""
    if word.decorated_rises:
        raise DomainError("eta expects an undecorated polyomino")
    paths = reference_decode(word)
    red_h = _column_heights(paths.red)
    green_h = _column_heights(paths.green)
    rows = [("z", 0)]
    k = prev_a = 0
    for step in paths.red:
        if step == "E":
            z = red_h[k] - green_h[k]
            k += 1
            if z > prev_a:
                raise DomainError("eta: valley deeper than the previous row allows")
            rows.append(("z", z))
            prev_a = z
        else:
            prev_a += 1
            rows.append(("p", None))
    return assemble_catalan_pld(rows)


def reference_eta_inverse(path):
    """``eta_inverse`` spelling the polyomino as step strings."""
    m = len(reference_zero_valleys(path)) - 1
    n = len(path.positive_rows())
    if m < 0:
        raise DomainError("eta_inverse: path has no zero valleys")
    ok, why = validate_family(path, FamilySpec("catalan-pld", m=m, n=n))
    if not ok:
        raise DomainError(f"eta_inverse: {why}")
    red, green = [], []
    y_red = y_green_prev = 0
    for i in range(path.size):
        if path.labels[i] == 0:
            z = path.area_word[i]
            if i > 0:
                red.append("E")
            y_green = y_red - z
            if y_green < y_green_prev:
                raise DomainError("eta_inverse: green heights not monotone")
            if i > 0:
                green.append("N" * (y_green - y_green_prev) + "E")
                y_green_prev = y_green
            elif z != 0:
                raise DomainError("eta_inverse: corner row must sit on the diagonal")
        else:
            red.append("N")
            y_red += 1
    green.append("N" * (n - y_green_prev))
    return polyomino_encode(PolyominoPaths(m, n, "".join(red), "".join(green)))


def reference_zero_composition(path):
    if path.labels is None or path.size == 0 or path.labels[0] != 0:
        raise DomainError("zero composition needs a 0 in the bottom-left corner")
    anchors = [
        i for i in range(path.size) if path.area_word[i] == 0 and path.labels[i] == 0
    ]
    zeros = [i for i in range(path.size) if path.labels[i] == 0]
    parts = []
    for j, start in enumerate(anchors):
        end = anchors[j + 1] if j + 1 < len(anchors) else path.size
        parts.append(sum(1 for i in zeros if start <= i < end))
    return tuple(parts)


def reference_big_car_composition(path):
    if path.labels is None or not set(path.labels) <= {1, 2}:
        raise DomainError("big car composition needs labels in {1, 2}")
    anchors = [
        i for i in range(path.size) if path.area_word[i] == 0 and path.labels[i] == 2
    ]
    bigs = [i for i in range(path.size) if path.labels[i] == 2]
    if not anchors:
        raise DomainError("no big car on the main diagonal")
    if bigs and bigs[0] < anchors[0]:
        raise DomainError("big car before the first diagonal big car")
    parts = []
    for j, start in enumerate(anchors):
        end = anchors[j + 1] if j + 1 < len(anchors) else path.size
        parts.append(sum(1 for i in bigs if start <= i < end))
    return tuple(parts)


def _polyomino_words(max_length, top):
    """Every word of at most ``max_length`` letters with values 0..top
    that the ``PolyominoWord`` constructor accepts."""
    letters = [(0, False)]

    def rec():
        yield PolyominoWord(letters)
        if len(letters) == max_length:
            return
        v, barred = letters[-1]
        for rank in range(2 * v + barred + 2):
            if rank // 2 <= top:
                letters.append((rank // 2, bool(rank % 2)))
                yield from rec()
                letters.pop()

    yield from rec()


def _labelled_paths(max_size):
    """Every path of at most ``max_size`` rows the constructor accepts:
    unlabelled, and labelled over 0..3 (0..2 at ``max_size``), decorated
    on its positive rises."""
    for size in range(max_size + 1):
        values = range(4) if size < max_size else range(3)
        for d in generate(FamilySpec("d", n=size)):
            word = d.area_word
            yield d
            rises = [i + 1 for i in range(1, size) if word[i] > word[i - 1]]
            for labels in product(values, repeat=size):
                dec = [i for i in rises if labels[i - 1] > 0]
                try:
                    yield DecoratedLabelledPath(word, labels, dec)
                except InvalidPathError:
                    continue


def _ghost_two_car_paths(max_size):
    """Every two-car path of at most ``max_size`` rows with the leading
    diagonal 2-car: a rise puts a 2 over a 1."""
    rows = [(0, 2)]

    def rec():
        word, labels = zip(*rows)
        yield DecoratedLabelledPath(word, labels, ghost_row=True)
        if len(rows) == max_size:
            return
        level, label = rows[-1]
        for a in range(level + 2):
            for car in (1, 2):
                if a == level + 1 and (label, car) != (1, 2):
                    continue
                rows.append((a, car))
                yield from rec()
                rows.pop()

    yield from rec()


def test_decode_and_eta_match_the_references_on_every_small_word():
    words = list(_polyomino_words(6, 3))
    decoded = 0
    for w in words:
        got, want = _outcome(polyomino_decode, w), _outcome(reference_decode, w)
        assert got == want, w
        decoded += got[0] == "returned"
        got, want = _outcome(eta, w), _outcome(reference_eta, w)
        assert got == want, w
    assert decoded > 100


def test_catalan_maps_match_the_references_on_every_small_path():
    kernels = (
        (eta_inverse, reference_eta_inverse),
        (DecoratedLabelledPath.zero_composition, reference_zero_composition),
        (DecoratedLabelledPath.big_car_composition, reference_big_car_composition),
    )
    mapped = 0
    for p in _labelled_paths(6):
        for fn, ref in kernels:
            got, want = _outcome(fn, p), _outcome(ref, p)
            assert got == want, (fn.__name__, p)
            mapped += fn is eta_inverse and got[0] == "returned"
        m_n = (-1, 0) if p.labels is None else (
            len(reference_zero_valleys(p)) - 1,
            len(p.positive_rows()),
        )
        assert p.catalan_sizes() == m_n, p
    assert mapped > 100


def test_ndinv_and_big_car_match_the_references_on_every_ghost_two_car_path():
    paths = 0
    for p in _ghost_two_car_paths(8):
        got = _outcome(ndinv, p)
        assert got == _outcome(reference_ndinv, DominoSequence.from_path(p)), p
        got = _outcome(DecoratedLabelledPath.big_car_composition, p)
        assert got == _outcome(reference_big_car_composition, p), p
        paths += 1
    assert paths > 1000
