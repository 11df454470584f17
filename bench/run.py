"""Run one workload of the necklie benchmark and print its result.

    python3 bench/run.py --workload lift-tower --seed 1 --seconds 25 --trace 0

One process and one thread act as a single client in a closed loop: the
next job starts when the previous one has returned and its results have
been checked against the references.  The loop stops starting jobs once
--seconds have passed.  The last line of standard output is the result,
a JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced runs of the same few inputs and reports per-layer metrics;
its spans go to bench/trace-out/.  See README.md for what each metric
means and why the workloads are what they are.
"""

import time

# setup_s is timed from here: the interpreter and whatever launched it
# have started, nothing of the benchmark or of necklie is imported yet
STARTED = time.perf_counter()

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from checks import CheckFailed
from refs import dense_rank
from spans import SELF_TIMED, TRACED_NAMES, Tracer, ratio

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH / "trace-out"

# a traced run cycles through this many inputs, each run once untraced
# and once traced per round, so every round makes the same calls
TRACE_INPUTS = 2
# The host's speed drifts by up to 1.8x for minutes at a time.  Before
# each job the loop times the yardstick, a fixed exact elimination over
# Fraction, and scales job times to a host on which the yardstick takes
# YARDSTICK_REF_S (README.md shows how well the two track each other).
YARDSTICK_REF_S = 0.006
YARDSTICK_SIZE = 14


def import_checkout_necklie():
    """Import necklie from this checkout's src/ or refuse to run."""
    sys.path.insert(0, str(SRC))
    try:
        import necklie
    except ImportError as exc:
        sys.exit(f"refusing to run: necklie does not import from {SRC}: {exc}")
    where = Path(necklie.__file__).resolve().parent
    if where != SRC / "necklie":
        sys.exit(f"refusing to run: necklie imports from {where}, "
                 f"not from {SRC / 'necklie'}")
    return necklie


class Yardstick:
    """Times a fixed rank computation in the references' dense Fraction
    elimination, which slows down with the host as necklie's jobs do."""

    def __init__(self):
        rng = random.Random(0)
        self.matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(YARDSTICK_SIZE)]
                       for _ in range(YARDSTICK_SIZE)]
        self.times = []

    def __call__(self):
        # the yardstick makes no cycles; a collection of the job's garbage
        # landing inside it would time the job's heap, not the host
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            dense_rank(self.matrix)
            seconds = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.times.append(seconds)
        return seconds

    def scale(self):
        """Factor from this run's host speed to the reference speed."""
        return YARDSTICK_REF_S / statistics.median(self.times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Loop:
    """Runs jobs, checks them and keeps the tallies of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def job(self, inp, tracer=None):
        """Run, time and check one job; returns its seconds or None."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            out = self.workload.run(inp)
            seconds = time.perf_counter() - start
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            self.workload.check(inp, self.workload.record(inp, out))
        except CheckFailed as exc:
            self.wrong += 1
            print(f"check failed: {exc}", file=sys.stderr)
        return seconds


def run_untraced(loop, yardstick, rng, first, seconds):
    # yards[i] is timed right before job i and right after job i - 1
    yards = [yardstick()]
    times = []
    deadline = time.perf_counter() + seconds
    inp = first
    while True:
        times.append(loop.job(inp))
        yards.append(yardstick())
        if time.perf_counter() >= deadline:
            break
        inp = loop.workload.make_input(rng)
    scaled = [t * YARDSTICK_REF_S * 2 / (yards[i] + yards[i + 1])
              for i, t in enumerate(times) if t is not None]
    times = [t for t in times if t is not None]
    if not times:
        sys.exit("no job completed; nothing to report")
    print(f"{len(times)} jobs; raw job time min {min(times):.4f}s median "
          f"{statistics.median(times):.4f}s max {max(times):.4f}s; "
          f"yardstick median {statistics.median(yards):.5f}s")
    return {
        "job_s": (statistics.median(scaled), "s"),
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_traced(loop, yardstick, tracer, rng, first, seconds, trace_path):
    inputs = [first] + [loop.workload.make_input(rng)
                        for _ in range(TRACE_INPUTS - 1)]
    plain_s = traced_s = 0.0
    jobs = 0
    deadline = time.perf_counter() + seconds
    while True:
        for inp in inputs:
            tracer.job = jobs
            yardstick()
            plain = loop.job(inp)
            traced = loop.job(inp, tracer)
            jobs += 1
            if plain is not None and traced is not None:
                plain_s += plain
                traced_s += traced
        if time.perf_counter() >= deadline:
            break
    tracer.write(trace_path)

    calls, sizes = tracer.calls, tracer.sizes
    speed = yardstick.scale()
    self_s = {name: t * speed for name, t in tracer.self_s.items()}
    metrics = {}
    for name in TRACED_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / jobs, "count")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / jobs, "s")
    metrics["linalg.enumerate_basis.elements"] = (
        sizes["linalg.enumerate_basis.elements"] / jobs, "count")
    metrics["linalg.enumerate_basis.kept_ratio"] = (ratio(
        sizes["linalg.enumerate_basis.elements"],
        sizes["cecomplex.normalize_tensor.under_enumerate"]), "ratio")
    metrics["linalg.matrix_of_operator.entries"] = (
        sizes["linalg.matrix_of_operator.entries"] / jobs, "count")
    metrics["linalg.solve_and_kernel.entries"] = (
        sizes["linalg.solve_and_kernel.entries"] / jobs, "count")
    metrics["linalg.homology_dims.eliminations_per_call"] = (ratio(
        sizes["linalg.solve_and_kernel.under_homology"],
        calls["linalg.homology_dims"]), "ratio")
    metrics["words.normalize_word.nonzero_ratio"] = (ratio(
        sizes["words.normalize_word.nonzero"],
        calls["words.normalize_word"]), "ratio")
    metrics["cli.build_parser.calls_per_request"] = (ratio(
        calls["cli.build_parser"], calls["cli.main"]), "ratio")
    metrics["trace.overhead_ratio"] = (ratio(traced_s, plain_s), "ratio")

    expected = getattr(loop.workload, "expected_enumerated", None)
    if expected is not None:
        got = metrics["linalg.enumerate_basis.elements"][0]
        if got != expected:
            loop.wrong += 1
            print(f"check failed: enumerate_basis elements per job {got}, "
                  f"closed form {expected}", file=sys.stderr)

    total = sum(self_s.values()) or 1.0
    print(f"{jobs} traced jobs, overhead ratio {ratio(traced_s, plain_s):.3f}")
    print(f"{'function':42s} {'calls/job':>12s} {'self s/job':>12s} "
          f"{'share':>7s}")
    for name in sorted(TRACED_NAMES, key=lambda n: -self_s.get(n, 0.0)):
        if calls[name]:
            print(f"{name:42s} {calls[name] / jobs:12.1f} "
                  f"{self_s[name] / jobs:12.6f} {self_s[name] / total:7.1%}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_checkout_necklie()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload]()
    first = workload.make_input(rng)
    setup_s = time.perf_counter() - STARTED

    yardstick = Yardstick()
    loop = Loop(workload)
    if args.trace:
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        # workloads calls necklie's functions by their imported names
        tracer = Tracer(callers=[workloads])
        metrics = run_traced(loop, yardstick, tracer, rng, first,
                             args.seconds, path)
    else:
        metrics = run_untraced(loop, yardstick, rng, first, args.seconds)
        # not scaled: the set-up does not slow down with the yardstick
        metrics["setup_s"] = (setup_s, "s")
    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
