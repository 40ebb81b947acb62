"""Exhaustive generation of path families and exact q,t-enumerators.

Members are emitted in a canonical order: row-by-row lexicographic on
(level, label) pairs -- row 1's level, then its label, then row 2's
level and label, and so on -- then by decoration set.  This is not the
order of sorting on (area word, labels), where the level of row 2
outranks the label of row 1.  Failure witnesses are the first failing
member, so they depend on this order.  Generators are streams with a
configurable size cap; the shuffle and decorated families are searched
with pruning rather than filtered after generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from qtcomb.paths import (
    DecoratedLabelledPath,
    PolyominoWord,
    knm_runs,
    two_shuffle_runs,
    word_in_runs,
)
from qtcomb.qt import CapacityError, QtPolynomial

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

R_SEMANTICS = ("nonghost", "ghost")


class FamilySpecError(ValueError):
    """A family descriptor is malformed or inconsistent."""


@dataclass(frozen=True)
class FamilySpec:
    """Parameters naming one finite path family."""

    family: str
    m: int = 0
    n: int = 0
    k: int = 0
    r: int | None = None
    r_sem: str = "ghost"
    content: tuple | None = None
    ghost: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilySpecError(f"unknown family {self.family!r}")
        if self.m < 0 or self.n < 0 or self.k < 0:
            raise FamilySpecError("family parameters must be non-negative")
        if self.r_sem not in R_SEMANTICS:
            raise FamilySpecError(f"unknown r semantics {self.r_sem!r}")
        if self.content is not None:
            c = tuple(self.content)
            if any(x < 1 for x in c) or list(c) != sorted(c, reverse=True):
                raise FamilySpecError("content must be a partition")
            object.__setattr__(self, "content", c)
        f = self.family
        unread = [
            name
            for name, given, readers in (
                ("content", self.content is not None, ("ld", "pld")),
                ("r", self.r is not None, ("pf2", "shuffle-knm")),
                ("r_sem", self.r_sem != "ghost", ("pf2", "shuffle-knm")),
                ("ghost", self.ghost, ("pf2",)),
            )
            if given and f not in readers
        ]
        if unread:
            raise FamilySpecError(f"{f} does not take {', '.join(unread)}")
        if f == "d" and self.m:
            raise FamilySpecError("d takes only n and k")
        if f in ("ld", "pld"):
            if self.content is None:
                raise FamilySpecError(f"{f} enumeration requires a content partition")
            if sum(self.content) != self.n:
                raise FamilySpecError("content weight must equal n")
            if f == "ld" and self.m:
                raise FamilySpecError("ld has no zero labels")
            if self.k and self.k >= self.n:
                raise FamilySpecError("pld requires n > k >= 0")
        if f == "catalan-pld" and self.k:
            raise FamilySpecError("catalan-pld decorations are forced, k must be 0")
        if f == "pf2" and self.r is not None:
            lo = 0 if self.r_sem == "nonghost" else 1
            if self.r < lo:
                raise FamilySpecError("bucket index below its semantic range")
        if f in ("two-shuffle", "shuffle-knm", "pf2") and self.k > min(self.m, self.n):
            raise FamilySpecError("k exceeds min(m, n)")

    @property
    def size(self):
        if self.family == "d":
            return self.n
        if self.family == "shuffle-knm":
            return self.m + self.n - self.k
        if self.family == "rp":
            return self.m + self.n + 1
        return self.m + self.n


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


def _labelled_paths(size, multiset, first_nonzero, runs=(), min_rises=0):
    """All (area_word, labels) over a fixed label multiset, in row-by-row
    (level, label) lexicographic order.

    Two cuts prune the search without reordering what is left.  ``runs``
    keeps the labellings whose reading word lists each (lo, hi,
    increasing) run in its direction: a label is placed only if it agrees
    with every earlier row of its run, and an earlier row at level a_j is
    read before the new row at level a exactly when a_j <= a.  The labels
    of a run must occur once each; then the pairwise test is
    ``word_in_runs`` on the finished reading word.  ``min_rises`` drops
    a branch once it can no longer reach that many rises.
    """
    counts = {}
    for x in multiset:
        counts[x] = counts.get(x, 0) + 1
    values = sorted(counts)
    run_of = {
        v: (index, increasing)
        for index, (lo, hi, increasing) in enumerate(runs)
        for v in range(lo, hi + 1)
    }
    placed = [[] for _ in runs]  # (level, label) of the rows of each run
    word, labels = [], []

    def fits(v, a):
        index, increasing = run_of[v]
        return all(
            ((u < v) == increasing) == (level <= a) for level, u in placed[index]
        )

    def rec(i, rises):
        if i == size:
            yield tuple(word), tuple(labels)
            return
        if rises + size - i < min_rises:
            return
        top = word[-1] + 1 if word else 0
        for a in range(top + 1):
            rise = i > 0 and a == top
            for v in values:
                if not counts[v]:
                    continue
                if rise and v <= labels[-1]:
                    continue
                if i == 0 and first_nonzero and v == 0:
                    continue
                run = run_of.get(v)
                if run is not None and not fits(v, a):
                    continue
                counts[v] -= 1
                word.append(a)
                labels.append(v)
                if run is not None:
                    placed[run[0]].append((a, v))
                yield from rec(i + 1, rises + rise)
                if run is not None:
                    placed[run[0]].pop()
                word.pop()
                labels.pop()
                counts[v] += 1

    yield from rec(0, 0)


def _decorated(pairs, k, ghost=False):
    """One member per (area_word, labels) pair and k-set of its rises,
    each built once; ``ghost`` prepends the diagonal 2-car as row 1."""
    for word, labels in pairs:
        rises = [i + 1 for i in range(1, len(word)) if word[i] > word[i - 1]]
        if ghost:
            word, labels = (0,) + word, (2,) + labels
            rises = [i + 1 for i in rises]
        for dec in combinations(rises, k):
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
    word, prev = [], 0
    for kind, z in rows:
        prev = z if kind == "z" else prev + 1
        word.append(prev)
    order = sorted(
        (i for i, (kind, _) in enumerate(rows) if kind == "p"),
        key=word.__getitem__,
    )
    labels = [0] * len(rows)
    for value, i in enumerate(order, start=1):
        labels[i] = value
    dec = tuple(i + 1 for i, (kind, _) in enumerate(rows) if kind == "p")
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


def _parking_paths(size, runs, min_rises=0):
    """Labelled Dyck paths whose labels are 1..size, each once, with the
    reading word in ``runs``."""
    return _labelled_paths(
        size, range(1, size + 1), first_nonzero=True, runs=runs, min_rises=min_rises
    )


def generate(spec, cap=10_000_000):
    """Stream the members of a family once each, in canonical order."""
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
    elif f in ("ld", "pld"):
        multiset = [0] * spec.m
        for i, mult in enumerate(spec.content, start=1):
            multiset += [i] * mult
        pairs = _labelled_paths(
            spec.size, multiset, first_nonzero=True, min_rises=spec.k
        )
        yield from _decorated(pairs, spec.k)
    elif f == "catalan-pld":
        yield from _gen_catalan_pld(spec.m, spec.n)
    elif f == "pf2":
        multiset = [1] * spec.n + [2] * spec.m
        pairs = _labelled_paths(
            spec.size, multiset, first_nonzero=False, min_rises=spec.k
        )
        if spec.r is not None:
            pairs = (
                (w, l) for w, l in pairs if _bucket(w, l, 2, spec.r_sem) == spec.r
            )
        yield from _decorated(pairs, spec.k, spec.ghost)
    elif f == "two-shuffle":
        runs = two_shuffle_runs(spec.m, spec.n)
        pairs = _parking_paths(spec.size, runs, min_rises=spec.k)
        yield from _decorated(pairs, spec.k)
    elif f == "shuffle-knm":
        runs = knm_runs(spec.k, spec.n, spec.m)
        for w, l in _parking_paths(spec.size, runs):
            if spec.r is None or _bucket(w, l, spec.n + 1, spec.r_sem) == spec.r:
                yield DecoratedLabelledPath(w, l)
    elif f == "rp":
        yield from _rp_decorated(_gen_rp(spec.m, spec.n), spec.k)


# -- diagonal big-car buckets -------------------------------------------


def _bucket(word, labels, big, r_sem):
    """Rows on the main diagonal whose label is at least ``big``, plus
    one for the conventional diagonal car under "ghost" semantics."""
    count = sum(1 for a, l in zip(word, labels) if a == 0 and l >= big)
    return count if r_sem == "nonghost" else count + 1


def bucket_index(path, r_sem="ghost"):
    """Diagonal 2-car count of a two-car path under the given semantics.

    "nonghost" counts the diagonal 2-cars of the underlying path;
    "ghost" counts one more (the conventional diagonal car, whether or
    not it is materialized as a ghost row).
    """
    skip = 1 if path.ghost_row else 0
    return _bucket(path.area_word[skip:], path.labels[skip:], 2, r_sem)


def shuffle_bucket_index(path, n, r_sem="ghost"):
    """Diagonal big-car count of a (k,n,m)-shuffle path (labels > n)."""
    return _bucket(path.area_word, path.labels, n + 1, r_sem)


# -- enumerators --------------------------------------------------------


def qt_enumerator(spec, cap=10_000_000):
    """Sum of q^dinv t^area over the family."""
    return QtPolynomial(
        ((member.dinv(), member.area()), 1) for member in generate(spec, cap=cap)
    )


def qt_enumerator_by_content(m, n, k, cap=10_000_000):
    """Map from content partition to the enumerator of matching members."""
    out = {}
    for lam in partitions(n):
        spec = FamilySpec("pld" if m else "ld", m=m, n=n, k=k, content=lam)
        out[lam] = qt_enumerator(spec, cap=cap)
    return out


def partitions(n, max_part=None):
    """Partitions of n, largest part first, in reverse lex order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


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

    if f == "ld":
        if obj.size != spec.n:
            return False, "wrong size"
        if any(l < 1 for l in obj.labels):
            return False, "labels must be positive"
        return True, "ok"

    if f == "pld":
        if obj.size != spec.m + spec.n:
            return False, "wrong size"
        if sum(1 for l in obj.labels if l == 0) != spec.m:
            return False, f"expected {spec.m} zero labels"
        if obj.labels and obj.labels[0] == 0:
            return False, "zero label in the bottom-left corner"
        if len(obj.decorated_rises) != spec.k:
            return False, f"expected {spec.k} decorated rises"
        if spec.content is not None and obj.content() != tuple(
            sorted(
                [i for i, mult in enumerate(spec.content, 1) for _ in range(mult)]
            )
        ):
            return False, "content mismatch"
        return True, "ok"

    if f == "catalan-pld":
        if obj.size != spec.m + 1 + spec.n:
            return False, "wrong size"
        zeros = [i for i, l in enumerate(obj.labels, 1) if l == 0]
        if len(zeros) != spec.m + 1:
            return False, f"expected {spec.m + 1} zero labels"
        zv = obj.zero_valleys()
        if set(zeros) != set(zv):
            return False, "every zero label must be a zero valley"
        pos = obj.positive_rows()
        if len(pos) != spec.n:
            return False, f"expected {spec.n} positive labels"
        if obj.decorated_rises != frozenset(pos):
            return False, "every positive step must be a decorated rise"
        if list(obj.reading_word()) != list(range(1, spec.n + 1)):
            return False, "positive labels must read 1..n"
        return True, "ok"

    if f == "pf2":
        # the body is the path below its ghost row, read in place
        labels = obj.labels[1:] if obj.ghost_row else obj.labels
        if spec.ghost != obj.ghost_row:
            return False, "ghost row flag mismatch"
        if len(labels) != spec.m + spec.n:
            return False, "wrong size"
        if labels.count(1) != spec.n or labels.count(2) != spec.m:
            return False, "wrong car counts"
        if set(labels) - {1, 2}:
            return False, "labels must be 1 or 2"
        if len(obj.decorated_rises) != spec.k:
            return False, f"expected {spec.k} decorated rises"
        if spec.r is not None and bucket_index(obj, spec.r_sem) != spec.r:
            return False, "wrong diagonal big-car bucket"
        return True, "ok"

    if f in ("two-shuffle", "shuffle-knm"):
        if obj.size != spec.size:
            return False, "wrong size"
        if sorted(obj.labels) != list(range(1, spec.size + 1)):
            return False, "labels must be a permutation of 1..size"
        runs = (
            two_shuffle_runs(spec.m, spec.n)
            if f == "two-shuffle"
            else knm_runs(spec.k, spec.n, spec.m)
        )
        if not word_in_runs(obj.reading_word(), runs):
            return False, "reading word not in the shuffle"
        want_dec = spec.k if f == "two-shuffle" else 0
        if len(obj.decorated_rises) != want_dec:
            return False, f"expected {want_dec} decorated rises"
        return True, "ok"

    return False, f"unhandled family {f!r}"
