"""Benchmark of the carlitzdigits package, from a checkout of its sources.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

One process, one caller, closed loop: each operation starts when the
previous one has returned.  The workload is a fixed round of seeded inputs
(see workloads.py), repeated in whole rounds until S seconds have passed
and at least MIN_OPS operations were attempted.
Only the operation itself is timed; its output checks run between
operations.  Times are CPU time of this process: the operations are
single-threaded and CPU-bound and do no I/O, so on an idle machine this is
their wall time, and on a shared host it leaves out the time the process
waits for a CPU.  A shared host also runs our CPU slower for stretches of
seconds to minutes (by 40% and more), so a fixed reference job (gauge.py)
is timed right after every operation (once per gauge.EVERY_S of it, at
least once), and each round's times are scaled to the host speed at which
that job takes gauge.REFERENCE_S, by the round's gauge times weighted by
the operation times they follow.

Set-up (import, field construction, input generation and parsing,
enumeration of irreducible P) is timed and scaled the same way, by gauge
times taken before and after it, each time from a fresh import of the
package: at least SETUP_REPS times, and more until SETUP_MIN_S seconds are
spent, once before the measurement and once more after it; the median of
all of them is reported.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics.  With --trace 1 the same untraced measurement is
followed by TRACE_ROUNDS round(s) with spans around the package's public
functions and one more untraced round; the last line then holds the
per-layer metrics, and the spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import refarith  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import COUNTS, WORKLOADS  # noqa: E402

SETUP_REPS = 2  # at least this many set-ups before and after the measurement,
SETUP_MIN_S = 0.3  # and more until each batch adds up to this long,
SETUP_MAX_REPS = 12  # but no more than this many per batch
TRACE_ROUNDS = 1
MIN_OPS = 100  # a run goes on past --seconds until it has this many operations
SETUP_GAUGE_S = 0.06  # gauge at least as for this much work before and after a set-up
MODULES = ("cli", "classnum", "chars", "cycint", "digits", "carlitz",
           "polyring", "ffq", "numutil")


def import_package() -> SimpleNamespace:
    """A fresh import of the package: its lazily filled caches start empty."""
    for key in [k for k in sys.modules
                if k == "carlitzdigits" or k.startswith("carlitzdigits.")]:
        del sys.modules[key]
    importlib.import_module("carlitzdigits")
    importlib.import_module("carlitzdigits.cli")
    return SimpleNamespace(**{m: sys.modules[f"carlitzdigits.{m}"] for m in MODULES})


class Phase:
    """Outcome of a stretch of whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.round_starts: list[int] = []  # index into latencies

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def round_rates(self) -> list[float]:
        bounds = self.round_starts + [len(self.latencies)]
        return [(b - a) / sum(self.latencies[a:b]) for a, b in zip(bounds, bounds[1:])]


def run_rounds(workload, cd, items, order, tracer, host, stop) -> Phase:
    phase = Phase()
    start = time.perf_counter()  # the run's length is wall time
    rounds = 0
    clock = time.process_time  # an operation's time is CPU time
    while True:
        phase.round_starts.append(len(phase.latencies))
        times, gauged = [], []  # this round's operation and gauge times
        for i in order:
            item = items[i]
            phase.attempted += 1
            tracer.op = phase.attempted
            t0 = clock()
            try:
                result = workload.run(cd, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                phase.raised += 1
                phase.errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                tracer.op = None
            times.append(clock() - t0)
            gauged.append(host.mean_s(times[-1]))
            try:
                error = workload.check(cd, item, result, tracer)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                phase.wrong += 1
                phase.errors.append(f"{item.label}: {error}")
                continue
            for key, value in workload.counts(item, result).items():
                phase.counts[key] += value
        if times:
            speed = sum(t * g for t, g in zip(times, gauged)) / sum(times)
            scale = speed / gauge.REFERENCE_S
            phase.latencies += [t / scale for t in times]
        rounds += 1
        if stop(rounds, time.perf_counter() - start):
            return phase


def quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    cuts = statistics.quantiles(values, n=10)
    return cuts[4], cuts[8]


def time_setups(workload, seed: int, host, times: list[float]):
    """One batch of set-ups, each from a fresh import; appends their times
    and returns the package and the inputs of the last one."""
    batch = []
    while len(batch) < SETUP_REPS or (sum(batch) < SETUP_MIN_S
                                      and len(batch) < SETUP_MAX_REPS):
        before = host.mean_s(SETUP_GAUGE_S)
        t0 = time.process_time()
        cd = import_package()
        items = workload.setup(cd, random.Random(seed))
        elapsed = time.process_time() - t0
        after = host.mean_s(max(elapsed, SETUP_GAUGE_S))
        scale = (before + after) / 2 / gauge.REFERENCE_S
        batch.append(elapsed / scale)
    times += batch
    return cd, items


def self_test_or_exit() -> None:
    failures = refarith.self_test()
    for line in failures:
        print(f"reference self-test failed: {line}", file=sys.stderr)
    if failures:
        sys.exit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="only run the reference arithmetic self-test")
    args = parser.parse_args(argv)

    self_test_or_exit()
    if args.selftest:
        print("reference self-test passed")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    src = ROOT / "src"
    if not (src / "carlitzdigits" / "__init__.py").is_file():
        print(f"error: no package sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    host = gauge.Gauge()
    setup_times = []
    cd, items = time_setups(workload, args.seed, host, setup_times)
    order = list(range(len(items)))
    random.Random(f"order-{args.seed}").shuffle(order)

    tracer = Tracer()
    main_phase = run_rounds(workload, cd, items, order, tracer, host,
                            lambda rounds, elapsed: elapsed >= args.seconds
                            and rounds * len(items) >= MIN_OPS)
    phases = [main_phase]
    p50, p90 = quantiles(main_phase.latencies)
    rounds = len(main_phase.round_starts)
    print(f"{workload.name} seed {args.seed}: {len(main_phase.latencies)} operations "
          f"in {rounds} rounds of {len(items)}; operations per second by round: "
          + " ".join(f"{rate:.4g}" for rate in main_phase.round_rates()))

    if args.trace:
        tracer.install()
        try:
            traced = run_rounds(workload, cd, items, order, tracer, host,
                                lambda rounds, elapsed: rounds >= TRACE_ROUNDS)
        finally:
            tracer.uninstall()
        # one more untraced round after the traced one: the traced round is
        # compared with the untraced rounds on either side of it, which run
        # the same inputs with the same caches filled
        after = run_rounds(workload, cd, items, order, tracer, host,
                           lambda rounds, elapsed: rounds >= 1)
        phases += [traced, after]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans_{workload.name}_seed{args.seed}.json"
        tracer.write(span_file)
        last = main_phase.latencies[main_phase.round_starts[-1]:]
        untraced = last + after.latencies
        untraced_rate, traced_rate = len(untraced) / sum(untraced), traced.ops_per_s()
        metrics = {}
        for name, (calls, self_s) in tracer.per_function().items():
            metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        for name in COUNTS:
            metrics[name] = {"value": traced.counts[name], "unit": "count"}
        metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "1/s"}
        metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (untraced_rate / traced_rate - 1.0), "unit": "%"}
        print(f"per-layer metrics over {TRACE_ROUNDS} traced round(s), "
              f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        for name, m in metrics.items():
            tag = "  (computed from inputs and outputs)" if name in COUNTS else ""
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{tag}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the second batch of set-ups, after the measurement: the reported
        # median then rests on two stretches of the run, not on one second
        time_setups(workload, args.seed, host, setup_times)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": main_phase.ops_per_s(), "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * p50, "unit": "ms"},
            "op_p90_ms": {"value": 1000.0 * p90, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:>12.6g} {m['unit']}")

    errors = [e for phase in phases for e in phase.errors]
    for line in errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "correct": all(phase.wrong == 0 for phase in phases),
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.raised + phase.wrong for phase in phases),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
