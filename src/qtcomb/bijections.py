"""Statistic-preserving bijections between path families.

The maps implemented here:

* ``eta_inverse`` / ``eta``: Catalan-type partially labelled paths
  <-> reduced polyominoes (area-preserving).
* ``psi`` / ``psi_inverse``: polyomino words <-> two-car parking
  functions with a leading diagonal 2 (dinv- and area-preserving).
* ``phi`` and the recursive statistic ``ndinv`` on domino sequences.
* ``pld_recursive_step``: the direct path-level form of
  eta o psi_inverse o phi o psi o eta_inverse.
* ``ehh_forward`` / ``ehh_inverse``: (k,n,m)-shuffle paths <-> decorated
  two-car parking functions ((dinv, area)-preserving).
* ``shuffle_recursion_step``: the diagonal-deletion step on shuffle
  paths feeding the bucketed recursion.

The maps that end on a shuffle or Catalan-type path (``eta``,
``pld_recursive_step``, ``ehh_inverse``, ``shuffle_recursion_step``)
assign each row to a run and leave the labels to ``paths.run_labels``.

``eta_inverse`` and ``eta`` pass the polyomino as column heights, and
``ndinv`` loops the ``phi`` kernel on one domino tuple and checks every
intermediate sequence; tests/test_bijections.py keeps the step-string
and per-step forms as references.

Three small caches let a round trip compute each value once:

* ``eta_inverse`` and ``psi`` each keep their last result
  (``lru_cache(maxsize=1)``): the Catalan check computes
  ``psi(eta_inverse(path))`` and then ``composite_recursive_step(path)``,
  which is that prefix followed by ``phi`` and the way back, so the
  composed step reuses the prefix and stays the literal composition.
* ``_verdict`` keeps the last two membership verdicts, keyed by (value,
  spec) (``lru_cache(maxsize=2)``): ``pld_recursive_step`` checks the
  path that ``eta_inverse`` just checked, and each ehh round trip
  checks the same path and image on the way out and on the way back.

A call that raises caches nothing, so an invalid input raises on every
call.
"""

from __future__ import annotations

from functools import lru_cache

from qtcomb.families import FamilySpec, assemble_catalan_pld, validate_family
from qtcomb.paths import (
    DecoratedLabelledPath,
    DomainError,
    PolyominoPaths,
    PolyominoWord,
    knm_runs,
    polyomino_decode,
    polyomino_encode,
    run_labels,
)


# The membership checks below build the same few specs on every call;
# each is built and validated once.  A spec that raises is not cached,
# so an invalid one raises on every call.
_spec = lru_cache(maxsize=None)(FamilySpec)


@lru_cache(maxsize=2)
def _verdict(obj, spec):
    # reads ``validate_family`` at call time, so a wrapper installed on
    # this module's name sees every verdict that is computed
    return validate_family(obj, spec)


def _require(obj, spec, what):
    # a path hashes by value; anything else, hashable or not, is refused
    # by ``validate_family`` without a cache entry
    if isinstance(obj, DecoratedLabelledPath):
        ok, why = _verdict(obj, spec)
    else:
        ok, why = validate_family(obj, spec)
    if not ok:
        raise DomainError(f"{what}: {why}")


# -- eta ---------------------------------------------------------------


@lru_cache(maxsize=1)
def eta_inverse(path):
    """Catalan-type path -> reduced polyomino word.

    Zero valleys become horizontal red steps (row 1 gives the ghost
    step), positive rows become vertical red steps; the k-th green
    horizontal sits below the k-th red one at distance equal to the
    area value of the corresponding zero-valley row.
    """
    m, n = path.catalan_sizes()
    if m < 0:
        raise DomainError("eta_inverse: path has no zero valleys")
    _require(path, _spec("catalan-pld", m=m, n=n), "eta_inverse")

    red, green = [], []  # the heights of the horizontal steps, column by column
    y_red = 0
    for i, (z, label) in enumerate(zip(path.area_word, path.labels)):
        if label == 0:
            y_green = y_red - z
            if y_green < (green[-1] if green else 0):
                raise DomainError("eta_inverse: green heights not monotone")
            if i > 0:
                red.append(y_red)
                green.append(y_green)
            elif z != 0:
                raise DomainError("eta_inverse: corner row must sit on the diagonal")
        else:
            y_red += 1
    return polyomino_encode(PolyominoPaths.from_heights(m, n, red, green))


def eta(word):
    """Reduced polyomino word -> Catalan-type path (inverse of eta_inverse)."""
    if word.decorated_rises:
        raise DomainError("eta expects an undecorated polyomino")
    paths = polyomino_decode(word)
    rows = [("z", 0)]
    y = prev_a = 0
    for r, g in zip(paths.red_heights, paths.green_heights):
        rows += [("p", None)] * (r - y)
        prev_a += r - y
        y = r
        z = r - g
        if z > prev_a:
            raise DomainError("eta: valley deeper than the previous row allows")
        rows.append(("z", z))
        prev_a = z
    rows += [("p", None)] * (paths.n - y)
    return assemble_catalan_pld(rows)


# -- psi ---------------------------------------------------------------


@lru_cache(maxsize=1)
def psi(word):
    """Polyomino word -> two-car parking function with leading diagonal 2.

    The area word is the word with bars disregarded; barred letters
    become 1-cars, unbarred become 2-cars; decorations transfer by index.
    """
    letters = word.letters
    area_word = [v for v, _ in letters]
    labels = [1 if barred else 2 for _, barred in letters]
    dec = [i + 1 for i in word.decorated_rises]
    return DecoratedLabelledPath(area_word, labels, dec, ghost_row=True)


def psi_inverse(path):
    """Inverse of psi: bar the 1-car rows."""
    if not path.ghost_row:
        raise DomainError("psi_inverse expects the leading diagonal 2-car")
    if path.labels is None or set(path.labels) - {1, 2}:
        raise DomainError("psi_inverse expects labels in {1, 2}")
    letters = [(a, l == 1) for a, l in zip(path.area_word, path.labels)]
    dec = [i - 1 for i in path.decorated_rises]
    return PolyominoWord(letters, dec)


# -- dominoes and phi ---------------------------------------------------


class DominoSequence:
    """Sequence of dominoes (label, level) viewed over a two-car path
    with its leading diagonal 2-car."""

    __slots__ = ("dominoes",)

    def __init__(self, dominoes):
        self.dominoes = tuple([(int(l), int(a)) for l, a in dominoes])
        _check_dominoes(self.dominoes)

    @classmethod
    def from_path(cls, path):
        if not path.ghost_row:
            raise DomainError("domino view needs the leading diagonal 2-car")
        return cls(tuple(zip(path.labels, path.area_word)))

    def to_path(self):
        if not self.dominoes:
            raise DomainError("empty domino sequence has no path form")
        labels = [l for l, _ in self.dominoes]
        word = [a for _, a in self.dominoes]
        return DecoratedLabelledPath(word, labels, (), ghost_row=True)

    def __len__(self):
        return len(self.dominoes)

    def __eq__(self, other):
        if not isinstance(other, DominoSequence):
            return NotImplemented
        return self.dominoes == other.dominoes

    def __hash__(self):
        return hash(self.dominoes)

    def __repr__(self):
        return "Dominoes(%s)" % ", ".join(f"[{l},{a}]" for l, a in self.dominoes)


def _check_dominoes(d):
    """Raise the first fault of a tuple of (label, level) int pairs, in
    order: the start, then the labels, then the levels; one pass."""
    if not d:
        return
    if d[0] != (2, 0):
        raise DomainError("domino sequence must start with [2,0]")
    levels_ok = True
    prev = -1  # the first level must be 0
    for l, a in d:
        if l != 1 and l != 2:
            raise DomainError("domino labels must be 1 or 2")
        if a < 0 or a > prev + 1:
            levels_ok = False
        prev = a
    if not levels_ok:
        raise DomainError("domino levels do not form an area word")


def phi(seq):
    """One block step on a domino sequence.

    The block runs from the leading [2,0] up to (excluding) the next
    [2,0].  A singleton block is deleted.  Otherwise the domino right
    after the leading [2,0] is removed (it must be [1,0]), every other
    [2,a] in the block drops to [2,a-1], each adjacent pair
    [2,x][1,x+1] is rewritten as [1,x][2,x+1], and the block (leading
    [2,0] kept unchanged) moves to the end of the sequence.
    """
    return DominoSequence(_phi(seq.dominoes))


def _phi(d):
    """``phi`` on a tuple of dominoes: the tuple of the image, unchecked."""
    if not d:
        raise DomainError("phi needs a nonempty sequence")
    try:
        end = d.index((2, 0), 1)
    except ValueError:
        end = len(d)
    if end == 1:
        return d[1:]
    if d[1] != (1, 0):
        raise DomainError("phi: domino after the leading [2,0] must be [1,0]")
    body = [(l, a - 1) if l == 2 else (l, a) for l, a in d[2:end]]
    i = 0
    while i + 1 < len(body):
        (l1, a1), (l2, a2) = body[i], body[i + 1]
        if l1 == 2 and l2 == 1 and a2 == a1 + 1:
            body[i], body[i + 1] = (1, a1), (2, a2)
            i += 2
        else:
            i += 1
    return d[end:] + ((2, 0),) + tuple(body)


def _as_dominoes(obj, n=None):
    if isinstance(obj, DominoSequence):
        return obj
    if isinstance(obj, DecoratedLabelledPath):
        if obj.ghost_row:
            return DominoSequence.from_path(obj)
        if obj.labels is not None and set(obj.labels) <= {1, 2}:
            return DominoSequence.from_path(obj.with_ghost())
        # two-shuffle path: cars <= n become 1-cars, the rest 2-cars,
        # and the conventional diagonal 2-car is prepended
        if obj.labels is not None and sorted(obj.labels) == list(
            range(1, obj.size + 1)
        ):
            if n is None:
                raise DomainError(
                    "two-shuffle input needs the split parameter n"
                )
            spec = _spec("two-shuffle", m=obj.size - n, n=n)
            _require(
                DecoratedLabelledPath(obj.area_word, obj.labels),
                spec,
                "ndinv",
            )
            labels = tuple(1 if l <= n else 2 for l in obj.labels)
            return DominoSequence.from_path(
                DecoratedLabelledPath(obj.area_word, labels).with_ghost()
            )
    raise DomainError("ndinv needs a two-car or two-shuffle path")


def ndinv(obj, n=None):
    """The recursive statistic: each nontrivial phi step contributes
    (number of [2,0] dominoes) - 1; the trivial step that deletes a lone
    [2,0] block contributes nothing.

    The zero contribution of trivial steps is forced by the path-level
    picture, where deleting one of two leading diagonal zero valleys
    leaves dinv unchanged.  Each step runs ``_phi`` on the domino tuple
    and the ``DominoSequence`` checks on its image.
    """
    d = _as_dominoes(obj, n).dominoes
    total = 0
    while d:
        if len(d) > 1 and d[1] != (2, 0):
            total += d.count((2, 0)) - 1
        d = _phi(d)
        _check_dominoes(d)
    return total


# -- direct path-level recursive step -----------------------------------


def pld_recursive_step(path):
    """Direct form of eta o psi_inverse o phi o psi o eta_inverse.

    If the path starts with two diagonal zero valleys, one is deleted.
    Otherwise row 2 (the first non-valley vertical step) is deleted, the
    region before the second diagonal zero valley loses one column (its
    zero valleys move one step toward the diagonal), and the region is
    cycled to the end.
    """
    m, n = path.catalan_sizes()
    if m < 0:
        raise DomainError("pld_recursive_step: path has no zero valleys")
    _require(path, _spec("catalan-pld", m=m, n=n), "pld_recursive_step")
    rows = [
        ("z", a) if label == 0 else ("p", None)
        for a, label in zip(path.area_word, path.labels)
    ]
    if len(rows) == 1:
        return DecoratedLabelledPath((), (), ())
    if rows[1] == ("z", 0):
        return assemble_catalan_pld(rows[1:])
    # row 2 is positive here: a non-diagonal valley at row 2 would need
    # a level below 0.
    second = next(
        (i for i in range(1, len(rows)) if rows[i] == ("z", 0)), len(rows)
    )
    region = [rows[0]] + [
        ("z", z - 1) if kind == "z" else ("p", None)
        for kind, z in rows[2:second]
    ]
    return assemble_catalan_pld(rows[second:] + region)


def composite_recursive_step(path):
    """eta o psi_inverse o phi o psi o eta_inverse, composed literally;
    ``psi(eta_inverse(path))`` comes from their caches when the caller
    has just computed it."""
    image = phi(DominoSequence.from_path(psi(eta_inverse(path))))
    if not len(image):
        return DecoratedLabelledPath((), (), ())
    return eta(psi_inverse(image.to_path()))


# -- the shuffle <-> two-car bijection ----------------------------------


def ehh_forward(path, k, n, m):
    """(k,n,m)-shuffle path -> two-car parking function with k decorated
    rises and the leading diagonal 2-car; preserves (dinv, area).

    Cars 1..n become 1-cars and n+1..m+n-k become 2-cars, and each car
    i <= k gets a decorated 2-car rise directly above it.
    """
    _require(path, _spec("shuffle-knm", m=m, n=n, k=k), "ehh_forward")
    word, labels, dec = [0], [2], []
    for a, l in zip(path.area_word, path.labels):
        word.append(a)
        labels.append(1 if l <= n else 2)
        if l <= k:
            word.append(a + 1)
            labels.append(2)
            dec.append(len(word))
    image = DecoratedLabelledPath(word, labels, dec, ghost_row=True)
    _require(
        image, _spec("pf2", m=m, n=n, k=k, ghost=True), "ehh_forward image"
    )
    return image


def ehh_inverse(path, k, n, m):
    """Inverse of ehh_forward."""
    _require(
        path, _spec("pf2", m=m, n=n, k=k, ghost=True), "ehh_inverse"
    )
    # one pass over the rows below the ghost row, 0-based in the whole
    # path (so row i is the decorated index i + 1): a decorated row is
    # dropped, and the 1-car under it, a companion, becomes a small car,
    # run 0; every other car's label is its run index
    a, labels, decorated = path.area_word, path.labels, path.decorated_rises
    word, row_runs = [], []
    for i in range(1, len(a)):
        if i + 1 not in decorated:
            word.append(a[i])
            row_runs.append(labels[i])
            continue
        if i + 1 < len(a) and a[i + 1] > a[i]:
            raise DomainError(
                "ehh_inverse: more than two consecutive vertical steps"
            )
        if labels[i] != 2 or labels[i - 1] != 1:
            raise DomainError("ehh_inverse: decorated rise not above a 1-car")
        row_runs[-1] = 0
    labels = run_labels(word, row_runs, knm_runs(k, n, m))
    out = DecoratedLabelledPath(word, labels)
    _require(out, _spec("shuffle-knm", m=m, n=n, k=k), "ehh_inverse image")
    return out


# -- the shuffle recursion step ------------------------------------------


def shuffle_recursion_step(path, k, n, m):
    """Delete the diagonal medium/big cars, convert diagonal small cars
    to big cars, push everything else one level down, and delete the
    resulting first-position big car.

    Returns (image, summary) where the summary reports the diagonal
    small count h, the diagonal small+medium count s, the diagonal big
    count, and the level-1 big count of the input.
    """
    _require(path, _spec("shuffle-knm", m=m, n=n, k=k), "shuffle_recursion_step")

    def run(l):
        # the car's run of knm_runs: small 0, medium 1, big 2
        return 0 if l <= k else (1 if l <= n else 2)

    diag = [run(l) for a, l in zip(path.area_word, path.labels) if a == 0]
    h = diag.count(0)
    s = h + diag.count(1)
    diag_big = diag.count(2)
    level1_big = sum(
        1 for a, l in zip(path.area_word, path.labels) if a == 1 and run(l) == 2
    )
    summary = {
        "s": s,
        "h": h,
        "diag_big": diag_big,
        "level1_big": level1_big,
        "base_case": n == 0,
    }
    if n == 0:
        return DecoratedLabelledPath((), (), ()), summary

    rows = []  # (run, level) of the surviving cars
    for a, l in zip(path.area_word, path.labels):
        if a > 0:
            rows.append((run(l), a - 1))
        elif run(l) == 0:
            rows.append((2, 0))
    deleted_first = bool(rows)
    if rows:
        if rows[0] != (2, 0):
            raise DomainError(
                "shuffle_recursion_step: first car is not a big on the diagonal"
            )
        rows = rows[1:]

    # one big is deleted per diagonal big, plus the first-position big
    # when anything survived the diagonal deletions
    k2, n2, m2 = k - h, n - s, m - diag_big - (1 if deleted_first else 0)
    word = tuple(a for _, a in rows)
    labels = run_labels(word, [r for r, _ in rows], knm_runs(k2, n2, m2))
    image = DecoratedLabelledPath(word, labels)
    _require(
        image, _spec("shuffle-knm", m=m2, n=n2, k=k2), "shuffle_recursion_step image"
    )
    return image, summary
