"""Benchmark of braidfoq's library API: three workloads, untraced or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {suite,certify,instances,all} \\
        --seed N --seconds S --trace {0,1}

``--workload all`` runs each workload in a fresh process, one after the
other.  A single workload sets itself up several times (``setup_s`` is the
median), then:

* ``--trace 0`` cycles through the workload's operations until
  ``--seconds`` have passed and each operation has run its minimum number
  of times, and reports the end-to-end metrics;
* ``--trace 1`` runs one round untraced, then sets up again and runs one
  round with every layer's public entry points wrapped, and reports the
  per-layer metrics and the tracing overhead (traced minus untraced, over
  the same operations).  On ``certify`` only the traced round runs the
  bound-4 job.  The layer
  figures cover the traced set-up and the traced round; the benchmark's
  own output checks run with tracing paused.

Every operation's output is checked; a failed check counts into
``failed`` and never stops the run.  The last line of standard output is
the JSON result; the lines before it name each metric with its unit, and
the environment.  The full result, with the spans of a traced run, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from tracing import Tracer, install
from workloads import WORKLOADS, Library

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = {"suite": 9, "certify": 9, "instances": 3}
MICRO_ORDERS = (8, 24, 60)
MICRO_PAIRS = 32
MICRO_SECONDS = 0.15  # per order and operation, at least MICRO_MIN_BATCHES batches
MICRO_MIN_BATCHES = 5

# (name, unit) of the end-to-end metrics every workload reports with --trace 0
END_TO_END = (("setup_s", "s"), ("op_s.geomean", "s"), ("peak_rss_mb", "MB"))

# (name, unit) of the per-layer metrics every workload reports with --trace 1;
# "<layer>.calls" and "<layer>.self_s" come from the tracer's aggregates
PER_LAYER = (
    ("scalar.mul.calls", "count"), ("scalar.mul.self_s", "s"),
    ("scalar.inverse.calls", "count"), ("scalar.inverse.self_s", "s"),
    ("scalar.from_rational.calls", "count"),
    *((f"scalar.mul_us.q{order}", "us") for order in MICRO_ORDERS),
    *((f"scalar.inv_us.q{order}", "us") for order in MICRO_ORDERS),
    ("matrix.matmul.calls", "count"), ("matrix.matmul.self_s", "s"),
    ("matrix.eliminate.self_s", "s"),
    ("graded.validate.self_s", "s"), ("graded.triviality_scan.self_s", "s"),
    ("graded.irreducibility_test.self_s", "s"), ("transform.reduce.self_s", "s"),
    ("fusion.q_parameter.self_s", "s"), ("fusion.ring_checks.self_s", "s"),
    ("sampling.self_s", "s"), ("presentation.build.self_s", "s"),
    ("freealg.coassoc.self_s", "s"), ("freealg.apply_comult.self_s", "s"),
    ("freealg.tensor_mul.self_s", "s"),
    ("freealg.element_mul.calls", "count"), ("freealg.element_mul.self_s", "s"),
    ("freealg.welldef.self_s", "s"), ("freealg.replay.self_s", "s"),
    ("freealg.cert_entries", "count"), ("freealg.in_ideal", "count"),
    ("suite.run.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[: max(0, 20 - len(self.messages))])


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, seed: int, repeats: int):
    """Import braidfoq afresh and build the inputs ``repeats`` times."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        lib = Library()
        inputs = workload.setup(lib, seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times), lib, inputs


def run_round(workload, lib, inputs, tally: Tally, samples: dict, tracer=None,
              tamper=None, only=None, stop=None) -> float:
    """Run and check one round of operations; return its summed op seconds.

    ``only`` restricts the round to the named operations; the round ends
    early once ``stop()`` is true before an operation.
    """
    clock = time.perf_counter
    busy = 0.0
    for label, op in workload.ops(lib, inputs):
        if only is not None and label not in only:
            continue
        if stop is not None and stop():
            break
        if tracer is not None:
            tracer.job = label
        start = clock()
        try:
            out = op()
            failures = None
        except Exception as exc:  # a failed operation is counted, never fatal
            out, failures = None, [f"{label}: {type(exc).__name__}: {exc}"]
        elapsed = clock() - start
        busy += elapsed
        samples.setdefault(label, []).append(elapsed)
        if failures is None:
            if tamper is not None:
                out = tamper(label, out)
            if tracer is not None:
                tracer.paused = True
            try:
                failures = workload.check(lib, inputs, label, out)
            except Exception as exc:
                failures = [f"{label}: check raised {type(exc).__name__}: {exc}"]
            finally:
                if tracer is not None:
                    tracer.paused = False
        tally.add(failures)
    if tracer is not None:
        tracer.job = None
    return busy


def measure(workload, lib, inputs, seconds: float, tally: Tally):
    """Closed loop over the rounds' operations until ``seconds`` have passed
    and every operation has run at least ``workload.min_repeats`` times."""
    samples: dict[str, list[float]] = {}
    busy = 0.0
    only = getattr(workload, "untraced", None)
    labels = [label for label, _ in workload.ops(lib, inputs) if only is None or label in only]
    start = time.perf_counter()

    def done() -> bool:
        return (time.perf_counter() - start >= seconds
                and all(len(samples.get(label, ())) >= workload.min_repeats
                        for label in labels))

    while not done():
        busy += run_round(workload, lib, inputs, tally, samples, only=only, stop=done)
    return samples, busy


def reference_checks(workload, lib, tally: Tally) -> None:
    checks = getattr(workload, "reference_checks", None)
    if checks is None:
        return
    try:
        results = checks(lib)
    except Exception as exc:
        results = [[f"reference checks raised {type(exc).__name__}: {exc}"]]
    for failures in results:
        tally.add(failures)


def scalar_microbench(lib, seed: int) -> dict[str, float]:
    """Median microseconds per Scalar multiply and inverse, per cyclotomic order."""
    rng = random.Random(f"{seed}:scalar")
    out = {}
    for order in MICRO_ORDERS:
        field = lib.scalar.Field.cyclotomic(order)
        operands = []
        while len(operands) < 2 * MICRO_PAIRS:
            value = field.zero()
            for _ in range(3):
                coeff = field.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                value = value + coeff * field.root(rng.randrange(order))
            if not value.is_zero():
                operands.append(value)
        left, right = operands[:MICRO_PAIRS], operands[MICRO_PAIRS:]

        def batches(run):
            per_op = []
            spent = 0.0
            while spent < MICRO_SECONDS or len(per_op) < MICRO_MIN_BATCHES:
                start = time.perf_counter()
                run()
                elapsed = time.perf_counter() - start
                spent += elapsed
                per_op.append(elapsed / MICRO_PAIRS * 1e6)
            return statistics.median(per_op)

        out[f"scalar.mul_us.q{order}"] = batches(
            lambda: [a * b for a, b in zip(left, right)])
        out[f"scalar.inv_us.q{order}"] = batches(lambda: [a.inverse() for a in left])
    return out


def run_untraced(workload, seed: int, seconds: float, tally: Tally):
    setup_s, lib, inputs = timed_setups(workload, seed, SETUP_REPEATS[workload.name])
    samples, busy = measure(workload, lib, inputs, seconds, tally)
    reference_checks(workload, lib, tally)
    # a run may end mid-round, so average within each operation first: every
    # operation of the mix then weighs alike, whatever its repeat count
    log_means = [statistics.fmean(math.log(t) for t in values) for values in samples.values()]
    metrics = {"setup_s": setup_s, "op_s.geomean": math.exp(statistics.fmean(log_means)),
               "peak_rss_mb": peak_rss_mb()}
    detail = workload.summary(samples, busy)
    detail["op_s.geomean"] = (metrics["op_s.geomean"], "s")
    detail["setup_s"] = (setup_s, "s")
    detail["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    extra = {"samples": {k: len(v) for k, v in samples.items()}, "op_seconds": samples}
    return metrics, detail, extra


def run_traced(workload, seed: int, tally: Tally):
    _, lib, inputs = timed_setups(workload, seed, 1)
    metrics = scalar_microbench(lib, seed)
    reference = getattr(workload, "untraced", None)
    untraced = run_round(workload, lib, inputs, tally, {}, only=reference)
    tracer = Tracer()
    install(tracer, lib)
    samples: dict[str, list[float]] = {}
    try:
        inputs = workload.setup(lib, seed)
        run_round(workload, lib, inputs, tally, samples, tracer=tracer)
    finally:
        tracer.uninstall()
    traced = sum(t for label, values in samples.items()
                 if reference is None or label in reference for t in values)
    replay_s = getattr(workload, "replay_s", 0.0)
    reference_checks(workload, lib, tally)
    aggregates = tracer.aggregates()
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            metrics[name] = aggregates.get(layer, {}).get(field, 0)
    for name in ("freealg.cert_entries", "freealg.in_ideal"):
        metrics[name] = tracer.result_counts.get(name, 0)
    metrics["freealg.replay.self_s"] = replay_s
    metrics["trace.overhead_s"] = traced - untraced
    extra = {"untraced_round_s": untraced, "traced_round_s": traced,
             "traced_op_seconds": samples, "aggregates": aggregates, "spans": tracer.spans()}
    return metrics, extra


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "braidfoq")):
        print(f"braidfoq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    load_start = list(os.getloadavg())
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    if args.trace:
        metrics, extra = run_traced(workload, args.seed, tally)
        units = dict(PER_LAYER)
        detail = {}
    else:
        metrics, detail, extra = run_untraced(workload, args.seed, args.seconds, tally)
        units = dict(END_TO_END)
    env = {**environment(), "loadavg_start": load_start, "loadavg_end": list(os.getloadavg())}
    env["loaded"] = max(load_start[0], env["loadavg_end"][0]) > env["nproc"]

    fail_ratio = tally.failed / max(1, tally.attempted)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in detail.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<36} {fail_ratio:>14.6g} failed/attempted "
          f"({tally.failed}/{tally.attempted})")
    for message in tally.messages:
        print(f"  FAIL {message}")
    if args.trace:
        if args.workload == "certify":
            for label, values in extra["traced_op_seconds"].items():
                print(f"  {label + ' (traced)':<36} {values[0]:>14.6g} s")
        for name, unit in PER_LAYER:
            unused = metrics[name] == 0 and name != "trace.overhead_s"
            print(f"  {name:<36} {metrics[name]:>14.6g} {unit}"
                  + ("  n/a: not exercised by this workload" if unused else ""))
    print("env " + json.dumps(env, sort_keys=True)
          + ("  (load exceeded nproc during this run)" if env["loaded"] else ""))

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "result": result,
                   "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
                   "fail_ratio": fail_ratio, "failures": tally.messages, **extra},
                  handle, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    status = 0
    for name in ("suite", "certify", "instances"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "certify", "instances", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
