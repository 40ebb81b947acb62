"""Outside-in tracing of qtcomb: wrappers installed from the benchmark.

``Tracer.install`` replaces each entry point in ``ENTRY_POINTS`` and each
method in ``METHODS`` with a timing wrapper.  A module-level function is
replaced at every import site: every loaded ``qtcomb`` module attribute
and every module-level dict value that is the original object (``from x
import y`` binds early, and ``cli.SUITES`` holds the suite functions).
``Tracer.restore`` puts the originals back.

Hot leaves are kept as aggregated counters per entry point (calls,
inclusive seconds, self seconds), so memory stays flat.  Self time comes
from a wrapper stack: a call's self time is its duration minus the
durations of the wrapped calls it made.  Spans, with a parent and the
run id, are recorded only for the coarse calls in ``SPAN_KEYS``.

Generator entry points are timed per resumption, so the work done while
a consumer iterates is charged to the generator's layer.  The evaluators
handed to ``qt.poly_equal_by_grid`` are wrapped too: they count grid
points and pole replacements, and charge their own glue code to the
layer that defined them.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

#: Module-level entry points, by ``qtcomb`` module: the public functions
#: the benchmark workloads reach.  Each records a nonzero count on at
#: least one workload.
ENTRY_POINTS = {
    "cli": ("main", "cmd_verify", "build_parser"),
    "suites": (
        "suite_ndinv",
        "suite_ehh",
        "suite_recursion",
        "suite_identities",
        "suite_delta_tiny",
        "suite_engine",
    ),
    "families": (
        "generate",
        "qt_enumerator",
        "qt_enumerator_by_content",
        "validate_family",
        "bucket_index",
        "partitions",
    ),
    "paths": ("word_in_runs", "knm_runs", "polyomino_encode", "polyomino_decode"),
    "bijections": (
        "eta_inverse",
        "eta",
        "psi",
        "psi_inverse",
        "phi",
        "ndinv",
        "pld_recursive_step",
        "composite_recursive_step",
        "ehh_forward",
        "ehh_inverse",
    ),
    "qt": (
        "poly_equal_by_grid",
        "q_int",
        "q_factorial",
        "q_binomial",
        "q_primes",
        "t_primes",
        "binom2",
    ),
    "macdonald": (
        "partitions_of",
        "b_alphabet",
        "m_alphabet",
        "bracket_q",
        "t_mu",
        "pi_mu",
        "w_mu",
        "partition_invariants",
        "pleth_p",
        "pleth_e",
        "pleth_h",
        "htilde_mcoeff",
        "htilde",
        "htilde_at_alphabet",
        "pair_htilde_h",
        "pair_htilde_eh",
        "pair_htilde_hook",
        "lhs_delta_hh",
        "mid_delta_hn",
        "rhs_nabla_ehh",
        "sum_r_lhs",
        "delta_lhs_by_content",
        "pair_delta_e_d",
        "pair_en_eh",
    ),
    "recursion": (
        "pf2_recursion",
        "reconcile_recursion",
        "brute_buckets",
        "all_variants",
    ),
}

#: Methods wrapped on their classes: (module, class, method).
METHODS = (
    ("paths", "DecoratedLabelledPath", "__init__"),
    ("paths", "DecoratedLabelledPath", "dinv"),
    ("paths", "DecoratedLabelledPath", "reading_word"),
    ("qt", "QtPolynomial", "eval"),
)

#: Coarse calls that record spans: the CLI, every suite, every grid check.
SPAN_KEYS = frozenset(
    ["cli.main", "qt.poly_equal_by_grid"]
    + [f"suites.{name}" for name in ENTRY_POINTS["suites"]]
)


class Stat:
    """Aggregated counters of one entry point."""

    __slots__ = ("calls", "incl_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wrappers, their counters and the coarse spans of one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.stats = {}
        self.spans = []
        self.members = 0
        self.shuffle_members = 0
        self.shuffle_scanned = 0
        self.grid_points = 0
        self.pole_replacements = 0
        self.mcoeff_build_s = 0.0
        self._stack = []  # one child-time accumulator per open wrapped call
        self._span_stack = []
        self._saved = []  # (container, key, original) for restore
        self._mcoeff = None  # the lru-cached macdonald.htilde_mcoeff
        self._cache_start = None

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every entry point and method at every import site."""
        modules = {
            name[len("qtcomb."):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("qtcomb.") and mod is not None
        }
        self._mcoeff = modules["macdonald"].htilde_mcoeff
        self._cache_start = self._mcoeff.cache_info()
        replace = {}  # id of an original -> (original, wrapper)
        for modname, names in ENTRY_POINTS.items():
            mod = modules[modname]
            for name in names:
                original = getattr(mod, name)
                replace[id(original)] = (
                    original,
                    self._wrap(f"{modname}.{name}", original),
                )
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replace.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._set(value, key, hit[1])
        for modname, clsname, name in METHODS:
            cls = getattr(modules[modname], clsname)
            key = f"{modname}.{clsname}.{name}"
            self._set(cls, name, self._wrap(key, vars(cls)[name]))

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._saved.append((container, key, container[key]))
            container[key] = value
        else:
            self._saved.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def restore(self):
        """Put every original object back where ``install`` found it."""
        for container, key, original in reversed(self._saved):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._saved.clear()

    def mcoeff_cache_delta(self):
        """(hits, misses) of ``macdonald.htilde_mcoeff`` since install."""
        now = self._mcoeff.cache_info()
        return now.hits - self._cache_start.hits, now.misses - self._cache_start.misses

    # -- wrappers -----------------------------------------------------

    def _stat(self, key):
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _enter(self, stat):
        stat.depth += 1
        self._stack.append(0.0)
        return perf_counter()

    def _leave(self, stat, start):
        duration = perf_counter() - start
        stack = self._stack
        stat.self_s += duration - stack.pop()
        stat.depth -= 1
        if not stat.depth:
            stat.incl_s += duration
        if stack:
            stack[-1] += duration
        return duration

    def _wrap(self, key, fn):
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(key, fn)
        elif key == "qt.poly_equal_by_grid":
            wrapper = self._wrap_grid(key, fn)
        elif key == "macdonald.htilde_mcoeff":
            wrapper = self._wrap_mcoeff(key, fn)
        elif key in SPAN_KEYS:
            wrapper = self._wrap_span(key, fn)
        else:
            wrapper = self._wrap_plain(key, fn)
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    def _wrap_plain(self, key, fn):
        stat = self._stat(key)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            stat.calls += 1
            start = enter(stat)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(stat, start)

        return wrapper

    def _wrap_span(self, key, fn):
        stat = self._stat(key)
        spans, span_stack = self.spans, self._span_stack

        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": span_stack[-1]["id"] if span_stack else None,
                "run": self.run_id,
                "name": key,
            }
            if key == "cli.main" and args:
                span["argv"] = list(args[0])
            spans.append(span)
            span_stack.append(span)
            stat.calls += 1
            start = self._enter(stat)
            span["start"] = start
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = start + self._leave(stat, start)
                span_stack.pop()

        return wrapper

    def _wrap_grid(self, key, fn):
        spanned = self._wrap_span(key, fn)

        def wrapper(f, g, *args, **kwargs):
            return spanned(
                self._evaluator(f, True), self._evaluator(g, False), *args, **kwargs
            )

        return wrapper

    def _evaluator(self, fn, counts_points):
        """One side of a grid check.  Every grid point evaluates ``f``
        first, so the ``f`` side counts the points; either side counts
        the poles it raises, each of which replaces a point."""
        from qtcomb.qt import PoleError

        layer = (getattr(fn, "__module__", None) or "unknown").split(".")[-1]
        stat = self._stat(f"{layer}.grid_evaluator")

        def evaluate(q0, t0):
            stat.calls += 1
            if counts_points:
                self.grid_points += 1
            start = self._enter(stat)
            try:
                return fn(q0, t0)
            except PoleError:
                self.pole_replacements += 1
                raise
            finally:
                self._leave(stat, start)

        return evaluate

    def _wrap_mcoeff(self, key, fn):
        """Like a plain wrapper; a call that misses the lru cache also
        adds its duration to the build time."""
        stat = self._stat(key)

        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses
            stat.calls += 1
            start = self._enter(stat)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._leave(stat, start)
                if fn.cache_info().misses != misses:
                    self.mcoeff_build_s += duration

        return wrapper

    def _wrap_generator(self, key, fn):
        stat = self._stat(key)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            spec = args[0] if args else kwargs.get("spec")
            shuffle = getattr(spec, "family", None) == "shuffle-knm"
            if shuffle:
                # parking paths of size s scanned by the filter: (s+1)^(s-1)
                s = spec.size
                self.shuffle_scanned += (s + 1) ** (s - 1) if s else 1
            return self._resumptions(stat, fn(*args, **kwargs), shuffle)

        return wrapper

    def _resumptions(self, stat, gen, shuffle):
        """Re-yield ``gen``, timing each resumption as a call's body."""
        while True:
            start = self._enter(stat)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._leave(stat, start)
            self.members += 1
            if shuffle:
                self.shuffle_members += 1
            yield item

    # -- results --------------------------------------------------------

    def summary(self):
        """Everything the traced run recorded, as plain JSON data."""
        hits, misses = self.mcoeff_cache_delta()
        return {
            "stats": {
                key: [stat.calls, stat.incl_s, stat.self_s]
                for key, stat in sorted(self.stats.items())
            },
            "members": self.members,
            "shuffle_members": self.shuffle_members,
            "shuffle_scanned": self.shuffle_scanned,
            "grid_points": self.grid_points,
            "pole_replacements": self.pole_replacements,
            "mcoeff_hits": hits,
            "mcoeff_misses": misses,
            "mcoeff_build_s": self.mcoeff_build_s,
            "spans": self.spans,
        }
