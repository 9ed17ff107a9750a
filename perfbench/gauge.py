"""A fixed pure-Python job that measures how fast the host runs right now.

The hosts this benchmark runs on are shared: the same code can take 40% to
90% longer for stretches of seconds to minutes while other tenants load
the machine, and CPU time does not leave that out (the CPU is ours, it is
just slower).  The runner times this job between operations and expresses
every operation's time at the host speed where the job takes REFERENCE_S.

The job is the kinds of work the package does, in the same interpreter:
polynomial arithmetic over F_9 on integer lists (the benchmark's reference
arithmetic), big-integer products, and reads of tuples scattered over a
few megabytes, as the package's large polynomials and tables of field
elements are.  The first two slow down a little less than the package's
operations when the host is loaded, the third a good deal more; with
about half of the job's time in each, the job slows down as the
operations do, within about 8%, on the 2-vCPU host the reference figures
come from.  It does not import the package, so no change to the package
moves it.

    python3 perfbench/gauge.py [SECONDS]

prints the least and the median CPU time of the job, once per 500 jobs;
REFERENCE_S is the median on an unloaded host.
"""

from __future__ import annotations

import random
import sys
import time

import refarith as R

REFERENCE_S = 0.0024  # about the job's median CPU time on an unloaded 2.1 GHz Xeon vCPU
EVERY_S = 0.05  # mean_s runs one job per this much work (about 5% more time)

_F = R.Field(9)
_P = [2, 1, 0, 4, 3, 0, 1, 1]  # a monic modulus of degree 7 over F_9
_G = [5, 7, 1, 2]
_N0 = 3**200 + 7
_M = 7**230 + 11
_TABLE_SIZE = 1 << 15  # tuples, about 3 MB with their integers
_READS = 1 << 14  # per job; a whole number of jobs covers the table


class Gauge:
    """The reference job and its table, read in a fixed random order,
    each job continuing where the last one stopped."""

    def __init__(self):
        self.table = [(i % 7, 3 * i + 100_000) for i in range(_TABLE_SIZE)]
        self.order = list(range(_TABLE_SIZE))
        random.Random(0).shuffle(self.order)
        self.next = 0

    def job(self) -> int:
        """One unit of reference work; returns a checksum so none of it is dead."""
        acc = R.powmod(_F, _G, 2**40 - 1, _P)
        n = _N0
        for _ in range(200):
            n = n * n % _M
        start, self.next = self.next, (self.next + _READS) % _TABLE_SIZE
        table, total = self.table, 0
        for i in self.order[start:start + _READS]:
            total += table[i][0]
        return len(acc) + n % 97 + total

    def now_s(self) -> float:
        """CPU time of one job."""
        t0 = time.process_time()
        self.job()
        return time.process_time() - t0

    def mean_s(self, after_s: float) -> float:
        """Mean CPU time of the job, timed after work of after_s seconds: one
        job per EVERY_S of that work and at least one, so that a long
        operation is not judged by a single job."""
        count = 1 + int(after_s / EVERY_S)
        return sum(self.now_s() for _ in range(count)) / count


if __name__ == "__main__":
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
    gauge = Gauge()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        times = sorted(gauge.now_s() for _ in range(500))
        print(f"least {1000 * times[0]:.4f} ms  median {1000 * times[250]:.4f} ms",
              flush=True)
