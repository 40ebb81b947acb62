"""Exhaustive generation of path families and exact q,t-enumerators.

Every labelled family (all but ``d`` and ``rp``) is described once, by
its shape ``(labels, runs, decorations, big)``: the sorted label
multiset (ghost row excluded), the (lo, hi, increasing) runs of its
reading word, its number of decorated rises, and the least big-car
label of its bucket ``r``.  ``generate`` searches that shape and
``validate_family`` checks membership against the same shape.

Members are emitted in a canonical order: row-by-row lexicographic on
(level, label) pairs -- row 1's level, then its label, then row 2's
level and label, and so on -- then by decoration set.  This is not the
order of sorting on (area word, labels), where the level of row 2
outranks the label of row 1.  Failure witnesses are the first failing
member, so they depend on this order.  Generators are streams of at
most ``MEMBER_CAP`` members; the shuffle and decorated families are
searched with pruning rather than filtered after generation.

The enumerator of a family that ``_generate`` searches with
``_labelled_paths`` builds no decorated member.  Neither dinv nor the
reading word reads the decorations, and a decorated rise's row adds
nothing to the area (``DecoratedLabelledPath.area``).  So one pass over
the undecorated paths of the shape gives every k: each path is built
through the validated constructor and its dinv computed once, and its
members with k decorations have its area less the levels of k of its
rises, so together they contribute q^dinv t^area times the k-th
elementary sum of t^(-level) over its rises.  One ``lru_cache``, keyed
by the shape without its decoration count (plus ``r`` and ``ghost``),
holds the enumerators of every k.  ``catalan-pld``, ``d`` and ``rp``
sum over their members.

The Delta enumerators over labels 0^m and 1..n all come from one pass
over that standard family (``qt_enumerators_by_descent``), grouped by
the descent set D = {i : i+1 is read after i} of the reading word of
the positive labels, and one rule (``qt_enumerator_by_runs``): the
members whose reading word lists each (lo, hi, increasing) run in its
direction are the classes with every i in lo..hi-1 in D for an
increasing run and none of them for a decreasing one.  The rule is
exact because each label 1..n occurs once: a run is read in increasing
order exactly when each i+1 is read after i.  The three runs of a
(k,n,m)-shuffle (``delta-ehh``) are one such condition.

A content is another, through the fundamental quasisymmetric expansion
of Haglund, Haiman, Loehr, Remmel and Ulyanov (2005).  Standardize a
member of ``ld`` or ``pld`` of content lam by giving its equal labels
distinct values in reverse reading order: the copy read first gets the
largest.  No pair of equal labels counts for dinv, nor does it after
standardizing; no rise lands on an equal label, nor on a smaller one
after; the area does not change.  So the members of content lam are in
bijection with the standard paths that read each block of lam as one
decreasing run, that is whose D lies in the partial sums S(lam) =
{lam_1, lam_1 + lam_2, ...}.  ``qt_enumerator`` of one content keeps
its own search of the content's shape.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations

from qtcomb.macdonald import partitions_of
from qtcomb.paths import (
    DecoratedLabelledPath,
    PolyominoWord,
    knm_runs,
    run_labels,
    two_shuffle_runs,
    word_in_runs,
)
from qtcomb.qt import CapacityError, QtPolynomial

#: Largest number of members ``generate`` streams from one family; read
#: when a stream starts.
MEMBER_CAP = 10_000_000

FAMILIES = (
    "d",
    "ld",
    "pld",
    "catalan-pld",
    "pf2",
    "two-shuffle",
    "shuffle-knm",
    "rp",
)


class FamilySpecError(ValueError):
    """A family descriptor is malformed or inconsistent."""


@dataclass(frozen=True)
class FamilySpec:
    """Parameters naming one finite path family.  ``shape`` is derived
    from them (None for ``d`` and ``rp``); it is no constructor argument
    and no part of ``repr``, ``==`` or ``hash``."""

    family: str
    m: int = 0
    n: int = 0
    k: int = 0
    r: int | None = None
    content: tuple | None = None
    ghost: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilySpecError(f"unknown family {self.family!r}")
        if self.m < 0 or self.n < 0 or self.k < 0:
            raise FamilySpecError("family parameters must be non-negative")
        for name in ("m", "n", "k"):
            if getattr(self, name) > sys.maxsize:
                # a family that large has more rows than a list can index
                raise FamilySpecError(f"family size {name} exceeds sys.maxsize")
        if self.content is not None:
            c = tuple(self.content)
            if any(x < 1 for x in c) or list(c) != sorted(c, reverse=True):
                raise FamilySpecError("content must be a partition")
            object.__setattr__(self, "content", c)
        f = self.family
        unread = [
            name
            for name, given, readers in (
                ("m", self.m, set(FAMILIES) - {"d", "ld"}),
                ("k", self.k, set(FAMILIES) - {"catalan-pld"}),
                ("content", self.content is not None, ("ld", "pld")),
                ("r", self.r is not None, ("pf2", "shuffle-knm")),
                ("ghost", self.ghost, ("pf2",)),
            )
            if given and f not in readers
        ]
        if unread:
            raise FamilySpecError(f"{f} does not take {', '.join(unread)}")
        if f in ("ld", "pld"):
            if self.content is None:
                raise FamilySpecError(f"{f} enumeration requires a content partition")
            if sum(self.content) != self.n:
                raise FamilySpecError("content weight must equal n")
            if self.k and self.k >= self.n:
                raise FamilySpecError(f"{f} requires n > k >= 0")
        if self.r is not None and self.r < 1:
            raise FamilySpecError("bucket index below its semantic range")
        if f in ("two-shuffle", "shuffle-knm", "pf2") and self.k > min(self.m, self.n):
            raise FamilySpecError("k exceeds min(m, n)")
        object.__setattr__(
            self, "shape", _shape(f, self.m, self.n, self.k, self.content)
        )

    @property
    def size(self):
        if self.family == "d":
            return self.n
        if self.family == "rp":
            return self.m + self.n + 1
        return len(self.shape[0])


@lru_cache(maxsize=None)
def _shape(family, m, n, k, content):
    """The ``(labels, runs, decorations, big)`` shape of a labelled family
    (see the module docstring); None for the unlabelled ``d`` and ``rp``."""
    runs, decorations, big = (), k, 2
    if family in ("ld", "pld"):
        labels = [0] * m + [i for i, c in enumerate(content, 1) for _ in range(c)]
    elif family == "pf2":
        labels = [1] * n + [2] * m
    elif family == "catalan-pld":
        labels = [0] * (m + 1) + list(range(1, n + 1))
        runs, decorations = ((1, n, True),), n
    elif family == "two-shuffle":
        labels = range(1, m + n + 1)
        runs = two_shuffle_runs(m, n)
    elif family == "shuffle-knm":
        labels = range(1, m + n - k + 1)
        runs, decorations, big = knm_runs(k, n, m), 0, n + 1
    else:
        return None
    return tuple(sorted(labels)), tuple(runs), decorations, big


# -- raw generators (lexicographic) ------------------------------------


def _area_words(size):
    word = []

    def rec(i):
        if i == size:
            yield tuple(word)
            return
        top = word[-1] + 1 if word else 0
        for a in range(top + 1):
            word.append(a)
            yield from rec(i + 1)
            word.pop()

    yield from rec(0)


def _labelled_paths(size, multiset, runs=(), min_rises=0):
    """All (area_word, labels) over a fixed label multiset, with a nonzero
    label in row 1, in row-by-row (level, label) lexicographic order.

    Two cuts prune the search without reordering what is left.  ``runs``
    keeps the labellings whose reading word lists each (lo, hi,
    increasing) run in its direction: a label is placed only if it agrees
    with every earlier row of its run, and an earlier row at level a_j is
    read before the new row at level a exactly when a_j <= a.  The labels
    of a run must occur once each; then the pairwise test is
    ``word_in_runs`` on the finished reading word.  ``min_rises`` drops
    a branch, a leaf included, once it can no longer reach that many
    rises: a rise lands on a label above the one below it, so a label
    equal to the smallest value never adds one.  Both cuts are tested
    before a row is placed, so a dropped branch starts no search.
    """
    counts = {}
    for x in multiset:
        counts[x] = counts.get(x, 0) + 1
    values = sorted(counts)
    smallest = values[0] if values else None
    run_of = {
        v: (index, increasing)
        for index, (lo, hi, increasing) in enumerate(runs)
        for v in range(lo, hi + 1)
    }
    placed = [[] for _ in runs]  # (level, label) of the rows of each run
    word, labels = [], []

    def fits(v, a):
        index, increasing = run_of[v]
        for level, u in placed[index]:
            if ((u < v) == increasing) != (level <= a):
                return False
        return True

    def rec(i, rises, above):
        # ``above``: labels still to place that are above the smallest
        # value; the caller has checked that rises + above >= min_rises
        if i == size:
            yield tuple(word), tuple(labels)
            return
        top = word[-1] + 1 if word else 0
        for a in range(top + 1):
            rise = i > 0 and a == top
            for v in values:
                if not counts[v]:
                    continue
                if rise and v <= labels[-1]:
                    continue
                if i == 0 and v == 0:
                    continue
                run = run_of.get(v)
                if run is not None and not fits(v, a):
                    continue
                left = above - (v != smallest)
                if rises + rise + left < min_rises:
                    continue
                counts[v] -= 1
                word.append(a)
                labels.append(v)
                if run is not None:
                    placed[run[0]].append((a, v))
                yield from rec(i + 1, rises + rise, left)
                if run is not None:
                    placed[run[0]].pop()
                word.pop()
                labels.pop()
                counts[v] += 1

    above = len(multiset) - counts.get(smallest, 0)
    if above >= min_rises:
        yield from rec(0, 0, above)


def _rises(word):
    """The rises of an area word: its 1-based rows above the row below."""
    return [i + 1 for i in range(1, len(word)) if word[i] > word[i - 1]]


def _decorated(pairs, k, ghost=False):
    """One member per (area_word, labels) pair and k-set of its rises,
    each built once; ``ghost`` prepends the diagonal 2-car as row 1."""
    for word, labels in pairs:
        if ghost:
            word, labels = (0,) + word, (2,) + labels
        for dec in combinations(_rises(word), k):
            yield DecoratedLabelledPath(word, labels, dec, ghost)


def _gen_catalan_pld(m, n):
    """Rows are either zero valleys or positively-labelled decorated rises;
    positive labels are canonical (1..n in reading order)."""
    rows = []  # entries: ("z", a) or ("p", None)

    def rec(zeros_left, pos_left, prev_a):
        if not zeros_left and not pos_left:
            yield assemble_catalan_pld(rows)
            return
        if rows:
            if zeros_left:
                for z in range(prev_a + 1):
                    rows.append(("z", z))
                    yield from rec(zeros_left - 1, pos_left, z)
                    rows.pop()
            if pos_left:
                rows.append(("p", None))
                yield from rec(zeros_left, pos_left - 1, prev_a + 1)
                rows.pop()
        else:
            rows.append(("z", 0))
            yield from rec(zeros_left - 1, pos_left, 0)
            rows.pop()

    yield from rec(m + 1, n, 0)


def assemble_catalan_pld(rows):
    """The Catalan-type path of a row list with canonical positive labels.

    A ("z", a) row is a zero valley at level a; a ("p", _) row is a
    decorated rise one level above the row before it.  Positive labels
    are 1..n in reading order (by level, then by row).
    """
    word, dec, row_runs = [], [], []
    prev = 0
    for row, (kind, z) in enumerate(rows, 1):
        if kind == "z":
            prev = z
            row_runs.append(None)
        else:
            prev += 1
            dec.append(row)
            row_runs.append(0)
        word.append(prev)
    labels = run_labels(word, row_runs, [(1, len(dec), True)])
    return DecoratedLabelledPath(word, labels, dec)


def _gen_rp(m, n):
    letters = [(0, False)]

    def rec(unbarred_left, barred_left):
        if not unbarred_left and not barred_left:
            yield PolyominoWord(tuple(letters))
            return
        v, barred = letters[-1]
        top_key = 2 * v + (2 if barred else 1)  # key of the successor letter
        for key in range(top_key + 1):
            cand = (key // 2, bool(key % 2))
            left = unbarred_left - (not cand[1])
            bleft = barred_left - cand[1]
            if left < 0 or bleft < 0:
                continue
            letters.append(cand)
            yield from rec(left, bleft)
            letters.pop()

    yield from rec(m, n)


def _rp_decorated(words, k):
    for w in words:
        for dec in combinations(sorted(w.rises()), k):
            yield PolyominoWord(w.letters, dec)


def generate(spec):
    """Stream the members of a family once each, in canonical order, at
    most ``MEMBER_CAP`` of them."""
    cap = MEMBER_CAP
    count = 0
    for member in _generate(spec):
        count += 1
        if count > cap:
            raise CapacityError(f"family stream exceeded cap {cap}")
        yield member


def _generate(spec):
    f = spec.family
    if f == "d":
        yield from _decorated(((w, None) for w in _area_words(spec.n)), spec.k)
    elif f == "rp":
        yield from _rp_decorated(_gen_rp(spec.m, spec.n), spec.k)
    elif f == "catalan-pld":
        yield from _gen_catalan_pld(spec.m, spec.n)
    else:
        labels, runs, decorations, big = spec.shape
        pairs = _labelled_paths(len(labels), labels, runs, min_rises=decorations)
        if spec.r is not None:
            pairs = ((w, l) for w, l in pairs if _bucket(w, l, big) == spec.r)
        yield from _decorated(pairs, decorations, spec.ghost)


# -- diagonal big-car buckets -------------------------------------------


def _bucket(word, labels, big):
    """The bucket r: rows on the main diagonal whose label is at least
    ``big``, plus one for the conventional diagonal car."""
    return 1 + sum(1 for a, l in zip(word, labels) if a == 0 and l >= big)


def bucket_index(path):
    """The bucket r of a two-car path: its diagonal 2-cars plus the
    conventional diagonal car, whether or not that car is materialized
    as a ghost row."""
    skip = 1 if path.ghost_row else 0
    return _bucket(path.area_word[skip:], path.labels[skip:], 2)


# -- enumerators --------------------------------------------------------


def qt_enumerator(spec):
    """Sum of q^dinv t^area over the family.  A family that ``_generate``
    searches with ``_labelled_paths`` reads the enumerators of every k
    of its shape from one pass (``_enumerators``); ``d``, ``rp`` and
    ``catalan-pld`` sum over their members."""
    if spec.family in ("d", "rp", "catalan-pld"):
        return QtPolynomial(
            ((member.dinv(), member.area()), 1) for member in generate(spec)
        )
    labels, runs, decorations, big = spec.shape
    by_k = _enumerators(labels, runs, big, spec.r, spec.ghost)
    return by_k[decorations] if decorations < len(by_k) else QtPolynomial.zero()


@lru_cache(maxsize=None)
def _enumerators(labels, runs, big, r, ghost):
    """The enumerators of a shape (without its decoration count) at
    every k, in one pass over its undecorated paths: a tuple indexed by
    k, up to the most rises of a path."""
    totals = []
    for _, terms in _undecorated_terms(labels, runs, big, r, ghost):
        _add_terms(totals, terms)
    return tuple(QtPolynomial(counts) for counts in totals)


def _undecorated_terms(labels, runs, big, r, ghost):
    """Each undecorated path of a shape, in bucket ``r`` unless it is
    None, with the ghost row when ``ghost``, and ``terms[k] = {(dinv,
    area): count}`` over its members with k decorations (see the module
    docstring)."""
    for word, labs in _labelled_paths(len(labels), labels, runs):
        if r is not None and _bucket(word, labs, big) != r:
            continue
        if ghost:
            word, labs = (0,) + word, (2,) + labs
        path = DecoratedLabelledPath(word, labs, (), ghost)
        drops = [{0: 1}]  # drops[k] = {sum of k rise levels: k-sets}
        for level in (word[i - 1] for i in _rises(word)):
            drops.append({})
            for k in range(len(drops) - 2, -1, -1):
                up = drops[k + 1]
                for drop, count in drops[k].items():
                    up[drop + level] = up.get(drop + level, 0) + count
        dinv, area = path.dinv(), path.area()
        yield path, [
            {(dinv, area - drop): count for drop, count in by_drop.items()}
            for by_drop in drops
        ]


def _add_terms(totals, terms):
    """Add one path's ``terms`` (by k) into ``totals`` (by k)."""
    for k, counts in enumerate(terms):
        if k == len(totals):
            totals.append({})
        into = totals[k]
        for key, count in counts.items():
            into[key] = into.get(key, 0) + count


def qt_enumerator_by_content(m, n, k):
    """Map from content partition to the enumerator of matching members:
    content lam is one decreasing run per block of lam (see the module
    docstring), read off ``qt_enumerator_by_runs``."""
    out = {}
    for lam in partitions(n):
        blocks = zip(lam, accumulate(lam))
        runs = [(end - part + 1, end, False) for part, end in blocks]
        out[lam] = qt_enumerator_by_runs(m, n, k, runs)
    return out


def qt_enumerator_by_runs(m, n, k, runs):
    """The enumerator at k of the standard members, labels 0^m and 1..n,
    whose reading word lists each (lo, hi, increasing) run in its
    direction: the entries of ``qt_enumerators_by_descent`` whose
    descent set holds every i in lo..hi-1 of an increasing run and none
    of a decreasing one (see the module docstring)."""
    # the spec of the standard family rejects what the content specs did
    FamilySpec("pld" if m else "ld", m=m, n=n, k=k, content=(1,) * n)
    return sum(
        (
            by_k[k]
            for descents, by_k in qt_enumerators_by_descent(m, n).items()
            if k < len(by_k) and _descents_in_runs(descents, runs)
        ),
        QtPolynomial.zero(),
    )


def _descents_in_runs(descents, runs):
    """True iff a reading word of the labels 1..n with descent set
    ``descents`` lists each (lo, hi, increasing) run in its direction."""
    return all(
        (i in descents) == increasing
        for lo, hi, increasing in runs
        for i in range(lo, hi)
    )


@lru_cache(maxsize=1)
def qt_enumerators_by_descent(m, n):
    """{D: the enumerators at every k, indexed by k} of the standard
    family, labels 0^m and 1..n, in one pass over its undecorated paths;
    D is the descent set ``_descents`` of a path's reading word.

    The cache keeps one (m, n): the Delta checks ask for every k of one
    (m, n) in a row, and keeping every (m, n) to m+n = 7 holds some 72,000
    terms (about 4 MB more peak memory)."""
    labels, runs, _, big = FamilySpec(
        "pld" if m else "ld", m=m, n=n, content=(1,) * n
    ).shape
    groups = {}
    for path, terms in _undecorated_terms(labels, runs, big, None, False):
        _add_terms(groups.setdefault(_descents(path.reading_word()), []), terms)
    return {
        descents: tuple(QtPolynomial(counts) for counts in totals)
        for descents, totals in groups.items()
    }


def _descents(word):
    """{i : i+1 is read after i} in a reading word of the labels 1..n."""
    read, descents = set(), []
    for label in word:
        if label - 1 in read:
            descents.append(label - 1)
        read.add(label)
    return frozenset(descents)


def partitions(n, max_part=None):
    """Partitions of n, largest part first, in reverse lex order."""
    return partitions_of(n, max_part)


# -- family validation ----------------------------------------------------


def validate_family(obj, spec):
    """Check membership of a path or polyomino word in the named family.

    Returns (ok, diagnostic); the diagnostic names the failed condition.
    """
    f = spec.family
    if f == "rp":
        if not isinstance(obj, PolyominoWord):
            return False, "expected a polyomino word"
        if obj.m != spec.m or obj.n != spec.n:
            return False, f"size is {obj.m}x{obj.n}, expected {spec.m}x{spec.n}"
        if len(obj.decorated_rises) != spec.k:
            return False, f"expected {spec.k} decorated rises"
        return True, "ok"

    if not isinstance(obj, DecoratedLabelledPath):
        return False, "expected a labelled path"

    if f == "d":
        if obj.labels is not None:
            return False, "unlabelled family"
        if obj.size != spec.n:
            return False, "wrong size"
        if len(obj.decorated_rises) != spec.k:
            return False, f"expected {spec.k} decorated rises"
        return True, "ok"

    if obj.labels is None:
        return False, "family requires labels"
    labels, runs, decorations, big = spec.shape
    if spec.ghost != obj.ghost_row:
        return False, f"ghost row flag {obj.ghost_row}, family wants {spec.ghost}"
    # the body is the path below its ghost row, read in place
    skip = 1 if obj.ghost_row else 0
    body = obj.labels[skip:]
    if tuple(sorted(body)) != labels:
        return False, "wrong car counts"
    if f == "catalan-pld":
        if obj.decorated_rises != frozenset(obj.positive_rows()):
            return False, "every positive step must be a decorated rise"
    elif body and body[0] == 0:
        return False, "zero label in the bottom-left corner"
    if runs and not word_in_runs(obj.reading_word(), runs):
        return False, "reading word not in the shuffle"
    if len(obj.decorated_rises) != decorations:
        return False, f"expected {decorations} decorated rises"
    if spec.r is not None and spec.r != _bucket(obj.area_word[skip:], body, big):
        return False, "wrong diagonal big-car bucket"
    return True, "ok"
