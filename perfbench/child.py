"""One benchmark repetition in a fresh interpreter.

The parent (``run.py``) starts this script with ``PYTHONPATH`` set to the
checkout's ``src``.  It imports ``qtcomb.cli``, prints ``ready`` and reads
one JSON job from stdin:

* ``{"mode": "setup"}``: exit at once (a set-up time sample);
* ``{"mode": "cli", "calls": [argv, ...], "trace": bool}``: run each argv
  through ``qtcomb.cli.main`` in order;
* ``{"mode": "roundtrip", "members": [...], "trace": bool}``: run the
  round-trip checks on each sampled member.

The timed section runs from the first call to the last return.  The
result, one JSON object, is the last line of stdout.
"""

import contextlib
import io
import json
import resource
import sys
from time import perf_counter, perf_counter_ns

import qtcomb.cli
from qtcomb import bijections
from qtcomb.paths import (
    DecoratedLabelledPath,
    DomainError,
    GeometryError,
    InvalidPathError,
)

CHECK_ERRORS = (DomainError, GeometryError, InvalidPathError)


def run_cli(calls):
    """Run every argv through the CLI; returns (wall_s, outputs)."""
    outputs = []
    start = perf_counter()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qtcomb.cli.main(argv)
        outputs.append({"exit": code, "csv": out.getvalue(), "stderr": err.getvalue()})
    return perf_counter() - start, outputs


def check_catalan(path):
    """The ndinv suite's checks on one catalan-pld member, plus the
    eta o psi_inverse round trip."""
    image = bijections.psi(bijections.eta_inverse(path))
    touches = sum(
        1
        for i in range(path.size)
        if path.area_word[i] == 0 and path.labels[i] == 0
    )
    stepped = bijections.pld_recursive_step(path)
    doubled = path.size >= 2 and path.area_word[1] == 0 and path.labels[1] == 0
    drop = 0 if doubled else touches - 1
    return (
        image.area() == path.area()
        and bijections.ndinv(image) == path.dinv()
        and image.big_car_composition() == path.zero_composition()
        and bijections.eta(bijections.psi_inverse(image)) == path
        and stepped == bijections.composite_recursive_step(path)
        and path.dinv() - stepped.dinv() == drop
    )


def check_pf2(path, k, n, m):
    """The ehh round trip on one decorated pf2 member, with (dinv, area)
    equal on both sides."""
    shuffle = bijections.ehh_inverse(path, k, n, m)
    return bijections.ehh_forward(shuffle, k, n, m) == path and (
        shuffle.dinv(),
        shuffle.area(),
    ) == (path.dinv(), path.area())


def roundtrip_cases(members):
    """(check, args) per sampled member, built through the public
    constructor before the timed section."""
    cases = []
    for member in members:
        path = DecoratedLabelledPath.from_json(member["path"])
        if member["path"]["family"] == "catalan-pld":
            cases.append((check_catalan, (path,)))
        else:
            cases.append((check_pf2, (path, member["k"], member["n"], member["m"])))
    return cases


def run_roundtrip(cases):
    """Run every check; returns (wall_s, latencies_ns, failures)."""
    latencies, failures = [], []
    start = perf_counter()
    for check, args in cases:
        begin = perf_counter_ns()
        try:
            ok = check(*args)
        except CHECK_ERRORS as exc:
            ok, why = False, f"{type(exc).__name__}: {exc}"
        else:
            why = "check failed"
        latencies.append(perf_counter_ns() - begin)
        if not ok:
            failures.append(f"{args[0]!r}: {why}")
    return perf_counter() - start, latencies, failures


def main():
    job = json.load(sys.stdin)
    if job["mode"] == "setup":
        return 0
    result = {"qtcomb": qtcomb.cli.__file__}
    if job["mode"] == "roundtrip":
        cases = roundtrip_cases(job["members"])
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    if job["mode"] == "cli":
        result["wall_s"], result["outputs"] = run_cli(job["calls"])
    else:
        wall, latencies, failures = run_roundtrip(cases)
        result.update(wall_s=wall, latencies_ns=latencies, failures=failures)
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    print("ready", flush=True)
    sys.exit(main())
