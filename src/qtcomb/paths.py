"""Lattice path objects and their statistics.

Paths are represented canonically by area words: a labelled Dyck path of
size N is the word a_1..a_N (a_1 = 0, a_{i+1} <= a_i + 1) together with
per-row labels and a set of decorated rises.  ``dinv_pairs`` lists the
inverting pairs and is the reference form of the statistic; ``dinv``
counts the same pairs without building them.  Canonical labels, those
of the Catalan-type and shuffle paths, are written by ``run_labels``:
each row takes the next label of its run in reading order, and
``word_in_runs`` checks such a reading word.  Reduced parallelogram
polyominoes are area words over the doubled alphabet
0 < 0b < 1 < 1b < 2 < ... (b marks a barred letter), with the ghost
letter 0 at index 0.  ``PolyominoPaths`` stores the red and green column
heights of a polyomino; its N/E step strings are derived from them.

The constructors' checks, ``word_in_runs``, the polyomino codec and the
compositions walk their rows once.  Their earlier forms are kept as
references (``reference_*``) in tests/test_paths.py and
tests/test_bijections.py, which require the same answer, exception
class and message on every small input, valid or not; ``dinv_pairs``
stays here as the reference of ``dinv``.
"""

from __future__ import annotations

import json


class InvalidPathError(ValueError):
    """A structural invariant of a path object is violated."""


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class GeometryError(ValueError):
    """A step-path pair does not form a valid reduced polyomino."""


def _json_int(value, name):
    # bool is an int subclass, but true is not a row index or a level
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_ints(values, name):
    return tuple(_json_int(v, name) for v in values)


def _json_bool(value, name):
    if type(value) is not bool:
        raise TypeError(f"{name} must be true or false, got {value!r}")
    return value


class Composition(tuple):
    """A composition: positive parts with a fixed total."""

    def __new__(cls, parts):
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise InvalidPathError("composition parts must be >= 1")
        return super().__new__(cls, parts)


class DecoratedLabelledPath:
    """A (partially) labelled Dyck path with decorated rises.

    ``labels`` is None for an unlabelled path.  ``decorated_rises`` holds
    1-based row indices; every decorated index must be a rise.
    ``ghost_row`` marks row 1 as a conventional car excluded from content
    (its label must then be 2 on the main diagonal).
    """

    __slots__ = ("area_word", "labels", "decorated_rises", "ghost_row")

    def __init__(self, area_word, labels=None, decorated_rises=(), ghost_row=False):
        self.area_word = tuple(area_word)
        self.labels = None if labels is None else tuple(labels)
        self.decorated_rises = frozenset(decorated_rises)
        self.ghost_row = bool(ghost_row)
        self._validate()

    def _validate(self):
        """Raise the first fault in this order: the start of the area word,
        its steps, the label count, the label signs, the label columns, the
        decorations and the ghost row.  One loop over the rows checks the
        steps and notes the first column fault, which is raised only once
        the steps, the label count and the signs have passed."""
        a, labels = self.area_word, self.labels
        n = len(a)
        if n and a[0] != 0:
            raise InvalidPathError("area word must start with 0")
        column = 0  # first row whose label is not above the label below it
        if labels is None or len(labels) != n:
            prev = 0
            for row, x in enumerate(a, 1):
                if x < 0 or x > prev + 1:
                    raise InvalidPathError(f"area word steps by more than +1 at row {row}")
                prev = x
        else:
            prev = below = 0
            for row, (x, label) in enumerate(zip(a, labels), 1):
                if x > prev:
                    if x > prev + 1:
                        raise InvalidPathError(
                            f"area word steps by more than +1 at row {row}"
                        )
                    if label <= below and not column:
                        column = row
                elif x < 0:
                    raise InvalidPathError(f"area word steps by more than +1 at row {row}")
                prev, below = x, label
        if labels is not None:
            if len(labels) != n:
                raise InvalidPathError("labels length differs from area word")
            if labels and min(labels) < 0:
                raise InvalidPathError("labels must be non-negative")
            if column:
                raise InvalidPathError(
                    f"labels not strictly increasing in column at row {column}"
                )
        for i in self.decorated_rises:
            # row i is a rise: 1 < i <= n and a_i > a_{i-1}
            if not 1 < i <= n or a[i - 1] <= a[i - 2]:
                raise InvalidPathError(f"decorated index {i} is not a rise")
        if self.ghost_row:
            if labels is None or n == 0:
                raise InvalidPathError("ghost row requires a labelled row 1")
            if labels[0] != 2 or a[0] != 0:
                raise InvalidPathError("ghost row must be the car 2 at level 0")

    # -- basic structure ----------------------------------------------

    @property
    def size(self):
        return len(self.area_word)

    def catalan_sizes(self):
        """(m, n) of a Catalan-type path in one pass: its valleys labelled
        0 less one, and its positive rows; m is -1 when it has no such
        valley, as when it has no labels."""
        m, n, prev = -1, 0, 0  # row 1 is at level 0, so it is a valley
        for x, label in zip(self.area_word, self.labels or ()):
            if label:
                n += 1
            elif x <= prev:
                m += 1
            prev = x
        return m, n

    def positive_rows(self):
        if self.labels is None:
            return tuple(range(1, self.size + 1))
        return tuple([i + 1 for i, l in enumerate(self.labels) if l > 0])

    # -- statistics ---------------------------------------------------

    def area(self):
        """Sum of the area word over the rows that are not decorated."""
        a = self.area_word
        return sum(a) - sum(a[i - 1] for i in self.decorated_rises)

    def dinv_pairs(self):
        """(primary, secondary) lists of inverting index pairs (1-based)."""
        a, l = self.area_word, self.labels
        primary, secondary = [], []
        n = len(a)
        for i in range(n):
            for j in range(i + 1, n):
                if a[i] == a[j] and (l is None or l[i] < l[j]):
                    primary.append((i + 1, j + 1))
                elif a[i] == a[j] + 1 and (l is None or l[i] > l[j]):
                    secondary.append((i + 1, j + 1))
        return primary, secondary

    def dinv(self):
        """The number of pairs ``dinv_pairs`` lists, counted directly: each
        row against the earlier rows at its own level and one level up."""
        a, l = self.area_word, self.labels
        count = 0
        if l is None:
            rows_at = {}  # level -> rows so far at that level
            for x in a:
                count += rows_at.get(x, 0) + rows_at.get(x + 1, 0)
                rows_at[x] = rows_at.get(x, 0) + 1
            return count
        labels_at = {}  # level -> labels of the rows so far at that level
        for x, u in zip(a, l):
            above = labels_at.get(x + 1)
            if above:
                for v in above:
                    if v > u:
                        count += 1
            same = labels_at.get(x)
            if same is None:
                labels_at[x] = [u]
            else:
                for v in same:
                    if v < u:
                        count += 1
                same.append(u)
        return count

    def reading_word(self):
        """Positive labels read along diagonals bottom to top."""
        if self.labels is None:
            raise DomainError("reading word needs labels")
        a, labels = self.area_word, self.labels
        # rows by (level, row): a stable sort on the level
        rows = sorted(range(len(a)), key=a.__getitem__)
        return tuple([labels[i] for i in rows if labels[i] > 0])

    def zero_composition(self):
        """Groups of 0-labels split at the 0-labels on the main diagonal."""
        if self.labels is None or self.size == 0 or self.labels[0] != 0:
            raise DomainError("zero composition needs a 0 in the bottom-left corner")
        parts = []
        for x, label in zip(self.area_word, self.labels):
            if label == 0:
                if x == 0:
                    parts.append(1)
                else:
                    parts[-1] += 1
        return Composition(parts)

    def big_car_composition(self):
        """Groups of 2-cars split at the 2-cars on the main diagonal."""
        if self.labels is None:
            raise DomainError("big car composition needs labels in {1, 2}")
        parts = []
        early = False  # a 2-car below the first diagonal one
        for x, label in zip(self.area_word, self.labels):
            if label == 2:
                if x == 0:
                    parts.append(1)
                elif parts:
                    parts[-1] += 1
                else:
                    early = True
            elif label != 1:
                raise DomainError("big car composition needs labels in {1, 2}")
        if not parts:
            raise DomainError("no big car on the main diagonal")
        if early:
            raise DomainError("big car before the first diagonal big car")
        return Composition(parts)

    # -- ghost handling -----------------------------------------------

    def with_ghost(self):
        """Prepend the conventional diagonal 2-car as row 1."""
        if self.ghost_row:
            raise DomainError("path already has a ghost row")
        if self.labels is None:
            raise DomainError("ghost row needs a labelled path")
        return DecoratedLabelledPath(
            (0,) + self.area_word,
            (2,) + self.labels,
            frozenset(i + 1 for i in self.decorated_rises),
            ghost_row=True,
        )

    # -- serialization ------------------------------------------------

    def to_json(self, family=""):
        return {
            "family": family,
            "area_word": list(self.area_word),
            "labels": None if self.labels is None else list(self.labels),
            "decorated_rises": sorted(self.decorated_rises),
            "ghost_row": self.ghost_row,
        }

    @classmethod
    def from_json(cls, obj):
        """The path of a JSON object; TypeError on an entry that is not an
        int or a flag that is not a bool."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        labels = obj.get("labels")
        return cls(
            _json_ints(obj["area_word"], "area_word"),
            None if labels is None else _json_ints(labels, "labels"),
            _json_ints(obj.get("decorated_rises", ()), "decorated_rises"),
            _json_bool(obj.get("ghost_row", False), "ghost_row"),
        )

    def __eq__(self, other):
        if not isinstance(other, DecoratedLabelledPath):
            return NotImplemented
        return (
            self.area_word == other.area_word
            and self.labels == other.labels
            and self.decorated_rises == other.decorated_rises
            and self.ghost_row == other.ghost_row
        )

    def __hash__(self):
        return hash(
            (self.area_word, self.labels, self.decorated_rises, self.ghost_row)
        )

    def __repr__(self):
        aw = "".join(map(str, self.area_word)) or "()"
        if self.labels is None:
            return f"Path({aw})"
        ls = ",".join(map(str, self.labels))
        dec = "".join(f"*{i}" for i in sorted(self.decorated_rises))
        ghost = " ghost" if self.ghost_row else ""
        return f"Path({aw}; {ls}{dec}{ghost})"


# -- polyomino words --------------------------------------------------


def letter_successor(letter):
    v, barred = letter
    return (v + 1, False) if barred else (v, True)


class PolyominoWord:
    """Area word of a reduced parallelogram polyomino.

    ``letters`` are (value, barred) pairs indexed from 0; index 0 is the
    ghost letter, always the unbarred 0.  A word with m+1 unbarred and n
    barred letters encodes an m x n polyomino.
    """

    __slots__ = ("letters", "decorated_rises")

    def __init__(self, letters, decorated_rises=()):
        self.letters = tuple([(int(v), bool(b)) for v, b in letters])
        self.decorated_rises = frozenset(decorated_rises)
        self._validate()

    def _validate(self):
        """Raise the first fault in this order: an empty word, the first
        letter, a negative value, a letter past the successor of the one
        before it, a decoration; one loop over the letters finds the
        middle two."""
        w = self.letters
        if not w:
            raise InvalidPathError("polyomino word cannot be empty")
        if w[0] != (0, False):
            raise InvalidPathError("first letter must be the unbarred 0")
        negative, jump = False, 0  # jump: first letter past its successor
        prev = 0  # rank of the letter before, in 0 < 0b < 1 < 1b < ...
        for i, (v, barred) in enumerate(w):
            rank = 2 * v + barred
            if v < 0:
                negative = True
            elif rank > prev + 1 and not jump:
                jump = i
            prev = rank
        if negative:
            raise InvalidPathError("letter values must be non-negative")
        if jump:
            raise InvalidPathError(
                f"letter {jump} exceeds the successor of letter {jump - 1}"
            )
        for i in self.decorated_rises:
            # letter i is a rise: 0 < i < len(w) and v_i > v_{i-1}
            if not 0 < i < len(w) or w[i][0] <= w[i - 1][0]:
                raise InvalidPathError(f"decorated index {i} is not a rise")

    @property
    def m(self):
        return sum(1 for _, b in self.letters if not b) - 1

    @property
    def n(self):
        return sum(1 for _, b in self.letters if b)

    def rises(self):
        w = self.letters
        return frozenset(
            i for i in range(1, len(w)) if w[i][0] > w[i - 1][0]
        )

    def area(self):
        return sum(
            v
            for i, (v, _) in enumerate(self.letters)
            if i not in self.decorated_rises
        )

    def dinv_pairs(self):
        w = self.letters
        return [
            (i, j)
            for i in range(len(w))
            for j in range(i + 1, len(w))
            if w[i] == letter_successor(w[j])
        ]

    def dinv(self):
        return len(self.dinv_pairs())

    def to_json(self):
        return {
            "letters": [{"v": v, "barred": b} for v, b in self.letters],
            "decorated_rises": sorted(self.decorated_rises),
        }

    @classmethod
    def from_json(cls, obj):
        """The word of a JSON object; TypeError on a value that is not an
        int or a flag that is not a bool."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            [
                (_json_int(d["v"], "v"), _json_bool(d["barred"], "barred"))
                for d in obj["letters"]
            ],
            _json_ints(obj.get("decorated_rises", ()), "decorated_rises"),
        )

    @classmethod
    def from_string(cls, s, decorated_rises=()):
        """Parse '0 0b 1 1b' style words ('b' marks a barred letter)."""
        letters = []
        for tok in s.split():
            if tok.endswith("b"):
                letters.append((int(tok[:-1]), True))
            else:
                letters.append((int(tok), False))
        return cls(letters, decorated_rises)

    def __str__(self):
        return " ".join(f"{v}b" if b else str(v) for v, b in self.letters)

    def __eq__(self, other):
        if not isinstance(other, PolyominoWord):
            return NotImplemented
        return (
            self.letters == other.letters
            and self.decorated_rises == other.decorated_rises
        )

    def __hash__(self):
        return hash((self.letters, self.decorated_rises))

    def __repr__(self):
        dec = "".join(f"*{i}" for i in sorted(self.decorated_rises))
        return f"Word({self}{dec})"


class PolyominoPaths:
    """A reduced polyomino from (0,0) to (m,n): the heights of its red and
    green horizontal steps in columns 0..m-1, given as N/E step strings
    (``red`` and ``green``, derived) or to ``from_heights``.

    The red path must stay weakly above the green one.  The conventional
    overlapping ghost steps from (-1,0) to (0,0) are implicit.
    """

    __slots__ = ("m", "n", "red_heights", "green_heights")

    def __init__(self, m, n, red, green):
        self.m, self.n = int(m), int(n)
        heights = []
        for name, path in (("red", str(red)), ("green", str(green))):
            if set(path) - {"N", "E"}:
                raise GeometryError(f"{name} path has steps other than N/E")
            columns, y = [], 0
            for step in path:
                if step == "N":
                    y += 1
                else:
                    columns.append(y)
            heights.append(self._checked(name, tuple(columns), y))
        self.red_heights, self.green_heights = heights
        self._check_order()

    @classmethod
    def from_heights(cls, m, n, red_heights, green_heights):
        """The polyomino whose red and green horizontal steps cross column
        c at heights ``red_heights[c]`` and ``green_heights[c]``."""
        self = object.__new__(cls)
        self.m, self.n = m, n
        self.red_heights = self._checked("red", tuple(red_heights), n)
        self.green_heights = self._checked("green", tuple(green_heights), n)
        self._check_order()
        return self

    def _checked(self, name, heights, top):
        """``heights`` once they rise weakly from 0 to ``top``, the height
        the path ends at (else a step is neither N nor E), and there are m
        of them with ``top`` equal to n (else an endpoint is off)."""
        prev = 0
        for y in heights + (top,):
            if y < prev:
                raise GeometryError(f"{name} path has steps other than N/E")
            prev = y
        if len(heights) != self.m or top != self.n:
            raise GeometryError(
                f"{name} path does not go from (0,0) to ({self.m},{self.n})"
            )
        return heights

    def _check_order(self):
        if any(g > r for g, r in zip(self.green_heights, self.red_heights)):
            raise GeometryError("red path dips below the green path")

    @property
    def red(self):
        return _step_string(self.red_heights, self.n)

    @property
    def green(self):
        return _step_string(self.green_heights, self.n)

    def cells(self):
        """Unit squares strictly between the two paths, as (col, row) pairs."""
        gh, rh = self.green_heights, self.red_heights
        return {
            (c, y) for c in range(self.m) for y in range(gh[c], rh[c])
        }

    def area(self):
        return len(self.cells())

    def __eq__(self, other):
        if not isinstance(other, PolyominoPaths):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.m, self.n, self.red_heights, self.green_heights

    def __repr__(self):
        return f"PolyominoPaths({self.m}x{self.n}, red={self.red!r}, green={self.green!r})"


def _step_string(heights, n):
    """The N/E steps from (0,0) to (len(heights), n) whose horizontal step
    across column c lies at height ``heights[c]``."""
    steps, y = [], 0
    for h in heights:
        steps.append("N" * (h - y) + "E")
        y = h
    steps.append("N" * (n - y))
    return "".join(steps)


def polyomino_encode(paths):
    """Area word of a reduced polyomino given as a path pair.

    Each green horizontal step carries the length of the slope -1 diagonal
    drawn from its endpoint inside the polyomino; each red vertical step
    carries the barred count of squares in its row missed by all those
    diagonals.  Labels are read by sweeping the slope -1 lines x + y = d
    through the step endpoints, red label before green at ties.
    """
    m, gh, rh = paths.m, paths.green_heights, paths.red_heights
    # squares of each row, then those no diagonal crosses: column c holds
    # the squares gh[c] <= y < rh[c], and each square lies on one diagonal
    missed = [0] * paths.n
    for g, r in zip(gh, rh):
        for y in range(g, r):
            missed[y] += 1
    # (x + y, 0 for red and 1 for green, letter): the endpoints of one
    # path have distinct x + y, so a plain sort sweeps them in order.  The
    # ghost step ends at the origin; green step x ends at (x, gh[x - 1]).
    events = [(0, 1, (0, False))]
    for x, y in enumerate(gh, 1):
        v = 0
        while x - 1 - v >= 0 and gh[x - 1 - v] <= y + v < rh[x - 1 - v]:
            missed[y + v] -= 1
            v += 1
        events.append((x + y, 1, (v, False)))
    # the red vertical into row y + 1 stands at x = the number of columns
    # whose red height is at most y
    x = 0
    for y, dots in enumerate(missed):
        while x < m and rh[x] <= y:
            x += 1
        events.append((x + y + 1, 0, (dots, True)))
    events.sort()
    return PolyominoWord([letter for _, _, letter in events])


def polyomino_decode(word):
    """Path pair of a polyomino area word.

    Letter j lies on the sweep line x + y = j - value(j); that locates the
    endpoint of each step: the i-th barred letter is the red vertical
    ending at height i, the k-th unbarred letter the green horizontal
    ending at x = k.
    """
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
    m, n = unbar_seen - 1, bar_seen
    # green_y[0] belongs to the ghost step; real horizontals follow.
    if green_y[0] != 0:
        raise GeometryError("ghost letter does not sit at the origin")

    def monotone(xs, lo, hi, what):
        prev = lo
        for x in xs:
            if x < prev or x > hi:
                raise GeometryError(f"{what} positions not monotone in range")
            prev = x

    monotone(red_x, 0, m, "red vertical")
    del green_y[0]
    monotone(green_y, 0, n, "green horizontal")
    # the red height of column c counts the red verticals at x <= c
    red, i = [], 0
    for c in range(m):
        while i < n and red_x[i] <= c:
            i += 1
        red.append(i)
    return PolyominoPaths.from_heights(m, n, red, green_y)


# -- shuffle run membership -------------------------------------------


def word_in_runs(word, runs):
    """True iff, for every (lo, hi, increasing) run, the subsequence of
    values in [lo, hi] is exactly lo..hi in the stated direction: one
    scan of the word per run, each value in the run matched against the
    next label the run expects."""
    for lo, hi, increasing in runs:
        want, step = (lo, 1) if increasing else (hi, -1)
        for x in word:
            if lo <= x <= hi:
                if x != want:
                    return False
                want += step
        if lo <= want <= hi:  # a label of the run never came
            return False
    return True


def run_labels(area_word, row_runs, runs):
    """Labels written in reading order (by level, then by row): row i takes
    the next label of its run ``runs[row_runs[i]]``, counting up in an
    increasing (lo, hi, True) run and down in a decreasing one; a row
    whose run is None gets 0.  The reading word of the result then lists
    each run in its direction, as ``word_in_runs`` checks."""
    next_label = [lo if increasing else hi for lo, hi, increasing in runs]
    step = [1 if increasing else -1 for _, _, increasing in runs]
    labels = [0] * len(area_word)
    for i in sorted(range(len(area_word)), key=area_word.__getitem__):
        run = row_runs[i]
        if run is not None:
            labels[i] = next_label[run]
            next_label[run] += step[run]
    return labels


def knm_runs(k, n, m):
    """Runs of a (k,n,m)-shuffle: 1..k up, n..k+1 down, m+n-k..n+1 down."""
    return [(1, k, True), (k + 1, n, False), (n + 1, m + n - k, False)]


def two_shuffle_runs(m, n):
    """Runs of a two-shuffle word: n..1 down, m+n..n+1 down."""
    return [(1, n, False), (n + 1, m + n, False)]
