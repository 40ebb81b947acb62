"""Seeded random members for the ``sampled-roundtrip`` workload.

Members are built row by row with the same rules the exhaustive
generators use, not by filtering an exhaustive stream, so they can be
drawn at sizes the exhaustive suites do not reach:

* ``catalan-pld``: rows are zero valleys at any level up to the previous
  row's, or positive decorated rises one level up (the rules of
  ``families._gen_catalan_pld``); positive labels are 1..n in reading
  order.
* ``pf2`` with the leading ghost 2-car: rows carry the cars 1 and 2, and
  a row may rise one level only when it puts a 2 above a 1 (two-car
  column strictness); ``k`` of the rises are decorated.

Every member is built through the public ``DecoratedLabelledPath``
constructor and confirmed with ``families.validate_family``.
"""

from __future__ import annotations

import random

from qtcomb.families import FamilySpec, validate_family
from qtcomb.paths import DecoratedLabelledPath

#: Row counts of the sampled members: past the exhaustive suite sizes
#: (catalan-pld up to 8 rows in ``verify ndinv --max 7``, pf2 up to
#: m+n = 6 in ``verify ehh --max 6``).
CATALAN_ROWS = (10, 11, 12)
PF2_SIZES = (10, 11, 12)


def _pick_kind(rng, left_a, left_b):
    """True with probability left_a / (left_a + left_b)."""
    return rng.randrange(left_a + left_b) < left_a


def catalan_pld_member(rng):
    """A random ``catalan-pld`` member; returns (spec, path)."""
    rows = rng.choice(CATALAN_ROWS)
    n = rng.randint(1, rows - 1)
    m = rows - 1 - n
    word, positive = [0], [False]
    zeros_left, pos_left = m, n
    while zeros_left or pos_left:
        if _pick_kind(rng, pos_left, zeros_left):
            word.append(word[-1] + 1)
            positive.append(True)
            pos_left -= 1
        else:
            word.append(rng.randint(0, word[-1]))
            positive.append(False)
            zeros_left -= 1
    order = sorted(
        (i for i in range(rows) if positive[i]), key=lambda i: (word[i], i)
    )
    labels = [0] * rows
    for value, i in enumerate(order, start=1):
        labels[i] = value
    decorated = [i + 1 for i in range(rows) if positive[i]]
    spec = FamilySpec("catalan-pld", m=m, n=n)
    return spec, _checked(DecoratedLabelledPath(word, labels, decorated), spec)


def pf2_member(rng):
    """A random decorated ``pf2`` member with the ghost row; returns
    (spec, path)."""
    size = rng.choice(PF2_SIZES)
    n = rng.randint(1, size - 1)
    m = size - n
    word, labels = [], []
    ones_left, twos_left = n, m
    for _ in range(size):
        car = 1 if _pick_kind(rng, ones_left, twos_left) else 2
        if car == 1:
            ones_left -= 1
        else:
            twos_left -= 1
        if not word:
            level = 0
        elif car == 2 and labels[-1] == 1 and rng.random() < 0.5:
            level = word[-1] + 1
        else:
            level = rng.randint(0, word[-1])
        word.append(level)
        labels.append(car)
    rises = [i + 1 for i in range(1, size) if word[i] == word[i - 1] + 1]
    k = rng.randint(0, len(rises))
    decorated = rng.sample(rises, k)
    path = DecoratedLabelledPath(word, labels, decorated).with_ghost()
    spec = FamilySpec("pf2", m=m, n=n, k=k, ghost=True)
    return spec, _checked(path, spec)


def _checked(path, spec):
    ok, why = validate_family(path, spec)
    if not ok:
        raise ValueError(f"sampled {spec.family} member {path!r}: {why}")
    return path


def sample(seed, count):
    """``count`` members drawn from ``seed``, alternating catalan-pld and
    pf2; each entry is ``(spec, path)``."""
    rng = random.Random(seed)
    makers = (catalan_pld_member, pf2_member)
    return [makers[i % 2](rng) for i in range(count)]


def to_json(members):
    """JSON form of sampled members, as sent to a benchmark child."""
    return [
        {"m": spec.m, "n": spec.n, "k": spec.k, "path": path.to_json(spec.family)}
        for spec, path in members
    ]
