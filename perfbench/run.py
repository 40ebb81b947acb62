"""qtcomb benchmark: time to a verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (``child.py``): one child at
a time, single-threaded, ``PYTHONHASHSEED=0``, importing ``qtcomb`` from
this checkout's ``src``.  With ``--trace 0`` the run repeats the workload
for about ``--seconds`` seconds and reports the end-to-end metrics as
medians over the repetitions.  With ``--trace 1`` it runs the workload
once untraced and once traced, and reports the per-layer metrics; the
coarse spans go to ``perfbench/out/``.

The last line of stdout is the result object; the line before it holds
details (repetition times, report digest, row counts).  Exit code 0 when
every check passed, 1 when a check failed, 2 when the checkout or the
arguments are unusable (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, report_digest, report_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SAMPLED_MEMBERS = 6000
SETUP_SAMPLES = 9
#: Every child must be done by then, counted from the start of the run.
RUN_LIMIT_S = 170.0


class ChildError(RuntimeError):
    """A benchmark child failed to start, crashed or ran out of time."""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def spawn(job, deadline):
    """Run one child on ``job``; returns (setup_s, result)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], deadline - perf_counter())
        ready = proc.stdout.readline() if readable else b""
        setup = perf_counter() - start
        if ready != b"ready\n":
            proc.kill()
            _, err = proc.communicate()
            raise ChildError(f"child did not start: {err.decode()[-2000:]}")
        try:
            out, err = proc.communicate(
                json.dumps(job).encode(), timeout=max(deadline - perf_counter(), 1)
            )
        except subprocess.TimeoutExpired:
            raise ChildError("child ran past the time limit") from None
        if proc.returncode:
            raise ChildError(f"child exited {proc.returncode}: {err.decode()[-2000:]}")
        if job["mode"] == "setup":
            return setup, None
        lines = out.decode().splitlines()
        if not lines:
            raise ChildError("child printed no result")
        return setup, json.loads(lines[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def make_job(workload, seed):
    if not workload.sampled:
        return {"mode": "cli", "calls": [list(c.argv) for c in workload.calls]}
    sys.path.insert(0, str(SRC))
    import sampler

    members = sampler.sample(seed, SAMPLED_MEMBERS)
    return {"mode": "roundtrip", "members": sampler.to_json(members)}


# -- correctness gate ---------------------------------------------------------


class Gate:
    """Checks attempted and failed, and what went wrong, over a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()

    def check(self, result):
        """Gate one repetition; returns the number of checks that passed."""
        attempted, failed = self.attempted, self.failed
        if not result["qtcomb"].startswith(str(SRC)):
            self.problems.append(f"imported qtcomb from {result['qtcomb']}")
        if self.workload.sampled:
            self.attempted += len(result["latencies_ns"])
            self.failed += len(result["failures"])
            self.problems += result["failures"][:5]
        else:
            self._check_calls(result["outputs"])
        return (self.attempted - attempted) - (self.failed - failed)

    def _check_calls(self, outputs):
        row_lists = []
        for call, out in zip(self.workload.calls, outputs, strict=True):
            rows = report_rows(out["csv"])
            row_lists.append(rows)
            self.attempted += len(rows)
            bad = [row for row in rows if row[2] != "pass"]
            self.failed += len(bad)
            self.problems += [f"{' '.join(call.argv)}: {row}" for row in bad[:5]]
            if out["exit"] != 0:
                self.attempted += 1
                self.failed += 1
                self.problems.append(
                    f"{' '.join(call.argv)}: exit {out['exit']}: {out['stderr'][-500:]}"
                )
            if len(rows) != call.rows:
                self.problems.append(
                    f"{' '.join(call.argv)}: {len(rows)} rows, expected {call.rows}"
                )
        self.digests.add(report_digest(row_lists))

    @property
    def correct(self):
        return not self.problems and not self.failed and len(self.digests) <= 1

    def details(self):
        out = {"problems": self.problems[:20]}
        if not self.workload.sampled:
            digest = next(iter(self.digests), "")
            out.update(
                rows=self.workload.rows,
                report_sha256=digest,
                report_identical=digest == self.workload.report_sha256,
            )
        return out


# -- metrics ------------------------------------------------------------------


def percentile_us(latencies_ns, q):
    """Nearest-rank percentile ``q`` (0-100) in microseconds."""
    ordered = sorted(latencies_ns)
    rank = max(int(-(-q * len(ordered) // 100)), 1)
    return ordered[rank - 1] / 1000


def layer_metrics(trace, traced_wall, untraced):
    """The per-layer metrics of one traced repetition."""
    stats = trace["stats"]

    def calls(key):
        return stats.get(key, (0, 0.0, 0.0))[0]

    def incl(key):
        return stats.get(key, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    self_s = {}
    for key, (_, _, own) in stats.items():
        layer = key.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + own
    out = {}
    for layer in ("families", "paths", "bijections", "qt", "macdonald", "recursion", "suites", "cli"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    out["families.members"] = trace["members"]
    out["families.members_per_s"] = ratio(trace["members"], incl("families.generate"))
    out["families.shuffle_yield"] = ratio(trace["shuffle_members"], trace["shuffle_scanned"])
    out["families.validate_family.calls"] = calls("families.validate_family")
    out["families.validate_family.s"] = incl("families.validate_family")

    out["paths.construct.calls"] = calls("paths.DecoratedLabelledPath.__init__")
    out["paths.dinv.calls"] = calls("paths.DecoratedLabelledPath.dinv")
    out["paths.dinv.s"] = incl("paths.DecoratedLabelledPath.dinv")
    out["paths.reading_word.calls"] = calls("paths.DecoratedLabelledPath.reading_word")

    for name in BIJECTION_MAPS:
        out[f"bijections.{name}.calls"] = calls(f"bijections.{name}")
        out[f"bijections.{name}.s"] = incl(f"bijections.{name}")

    out["qt.grid.calls"] = calls("qt.poly_equal_by_grid")
    out["qt.grid.points"] = trace["grid_points"]
    out["qt.grid.pole_replacements"] = trace["pole_replacements"]
    out["qt.grid.s_per_point"] = ratio(incl("qt.poly_equal_by_grid"), trace["grid_points"])
    out["qt.poly_eval.calls"] = calls("qt.QtPolynomial.eval")
    out["qt.poly_eval.s"] = incl("qt.QtPolynomial.eval")

    for name in MACDONALD_SUMS:
        out[f"macdonald.{name}.calls"] = calls(f"macdonald.{name}")
        out[f"macdonald.{name}.s"] = incl(f"macdonald.{name}")
    out["macdonald.htilde_mcoeff.hits"] = trace["mcoeff_hits"]
    out["macdonald.htilde_mcoeff.misses"] = trace["mcoeff_misses"]
    out["macdonald.htilde_mcoeff.build_s"] = trace["mcoeff_build_s"]

    out["recursion.pf2_recursion.calls"] = calls("recursion.pf2_recursion")
    out["recursion.brute_buckets.s"] = incl("recursion.brute_buckets")

    for name, fn in SUITE_FUNCTIONS.items():
        out[f"suites.{name}.s"] = incl(f"suites.{fn}")

    latencies = untraced.get("latencies_ns")
    out["roundtrip_p50_us"] = percentile_us(latencies, 50) if latencies else 0.0
    out["roundtrip_p99_us"] = percentile_us(latencies, 99) if latencies else 0.0
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - sum(self_s.values())
    out["trace.overhead_ratio"] = traced_wall / untraced["wall_s"]
    return out


BIJECTION_MAPS = (
    "eta_inverse",
    "eta",
    "psi",
    "psi_inverse",
    "ndinv",
    "pld_recursive_step",
    "composite_recursive_step",
    "ehh_forward",
    "ehh_inverse",
)
MACDONALD_SUMS = (
    "mid_delta_hn",
    "rhs_nabla_ehh",
    "sum_r_lhs",
    "lhs_delta_hh",
    "delta_lhs_by_content",
    "pair_htilde_hook",
    "htilde_at_alphabet",
    "pleth_e",
    "pleth_h",
)
#: ``qtcomb verify`` suite name -> suite function.
SUITE_FUNCTIONS = {
    "ndinv": "suite_ndinv",
    "ehh": "suite_ehh",
    "recursion-reconcile": "suite_recursion",
    "identities": "suite_identities",
    "delta-tiny": "suite_delta_tiny",
    "engine": "suite_engine",
}


# -- the run ------------------------------------------------------------------


def measure(job, gate, seconds, deadline):
    """Repeat the workload for about ``seconds``; end-to-end metrics."""
    setups = [spawn({"mode": "setup"}, deadline)[0] for _ in range(SETUP_SAMPLES)]
    walls, rates, rss = [], [], []
    begin = perf_counter()
    while True:
        rep_start = perf_counter()
        setup, result = spawn(job, deadline)
        rep_s = perf_counter() - rep_start
        setups.append(setup)
        walls.append(result["wall_s"])
        rates.append(gate.check(result) / result["wall_s"])
        rss.append(result["peak_rss_mb"])
        # stop where the next repetition would end nearer past ``seconds``
        # than this one ends short of it
        if perf_counter() - begin + rep_s / 2 > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "checks_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, {"walls": walls, "setups": setups}


def trace(job, gate, deadline, workload, seed):
    """One untraced and one traced repetition; per-layer metrics."""
    _, untraced = spawn(job, deadline)
    gate.check(untraced)
    run_id = f"{workload.name}-seed{seed}"
    _, traced = spawn(dict(job, trace=True, run_id=run_id), deadline)
    gate.check(traced)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{run_id}.json").write_text(json.dumps(traced["trace"]["spans"]))
    metrics = layer_metrics(traced["trace"], traced["wall_s"], untraced)
    calls = {key: stat[0] for key, stat in traced["trace"]["stats"].items()}
    return metrics, {"walls": [untraced["wall_s"], traced["wall_s"]], "calls": calls}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "qtcomb" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: no qtcomb sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]

    deadline = perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    job = make_job(workload, args.seed)
    gate = Gate(workload)
    try:
        spawn({"mode": "setup"}, deadline)  # compiles bytecode, warms the file cache
        if args.trace:
            metrics, timings = trace(job, gate, deadline, workload, args.seed)
        else:
            metrics, timings = measure(job, gate, args.seconds, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from {sorted(names)}")
    print(json.dumps({"workload": workload.name, "seed": args.seed, **timings, **gate.details()}))
    print(
        json.dumps(
            {
                "correct": gate.correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
