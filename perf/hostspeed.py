"""Host speed, sampled on every CPU while a run measures.

On the shared virtual machines this benchmark was built on, the same
job's wall time swings by up to 1.8x.  A vCPU runs at one of two speeds
(another tenant loading the physical core, presumably) and switches
every few seconds, often staying longer than a whole run, so timing more
work per run does not average it out: ten runs of one commit spread by
30-50%.  A probe process pinned to each CPU times a fixed pure-Python
loop every 30 ms, and a run divides each wall time by the probes' mean
slowdown over the same interval raised to :data:`EXPONENT`.  The
end-to-end metrics are therefore seconds at :data:`REFERENCE_S` speed;
the raw wall times and slowdowns stay in the results file.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

#: CPU time of one probe loop at the reference speed: a 2 GHz Xeon
#: vCPU in its fast state.  Metrics scale with it, comparisons do not.
REFERENCE_S = 1.5e-3

#: The jobs slow down more than the probe loop: their working sets do
#: not fit a core's caches.  Over ten runs of every workload the spread
#: of the adjusted times was smallest near this power of the probe's
#: slowdown, and ten more runs confirmed it (README, "Measured spread").
EXPONENT = 1.4

#: Seconds between probe loops (each costs about 5% of one CPU).
PERIOD_S = 0.03

_PROBE = f"""
import os, sys, time
os.sched_setaffinity(0, {{int(sys.argv[1])}})
out = open(sys.argv[2], "w", buffering=1)
def loop():
    total = 0
    for i in range(20000):
        total += i * i
    return total
while True:
    start = time.thread_time()
    loop()
    out.write(f"{{time.monotonic()}} {{time.thread_time() - start}}\\n")
    time.sleep({PERIOD_S})
"""


class HostSpeed:
    """One probe process per CPU this process may run on."""

    def __init__(self, work: Path) -> None:
        self.paths = []
        self.procs = []
        for cpu in sorted(os.sched_getaffinity(0)):
            path = work / f"speed-{cpu}.txt"
            self.paths.append(path)
            self.procs.append(subprocess.Popen(
                [sys.executable, "-c", _PROBE, str(cpu), str(path)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end]`` (monotonic seconds)
        relative to the reference, averaged over the CPUs."""
        per_cpu = []
        for path in self.paths:
            with open(path, encoding="utf-8") as handle:
                rows = [line.split() for line in handle
                        if line.endswith("\n")]
            # A sample is stamped when its loop ends; widen very short
            # intervals until they hold one.
            margin = 0.0
            inside: list[float] = []
            while not inside and margin < 1.0:
                inside = [float(cost) for stamp, cost in rows
                          if start - margin <= float(stamp) <= end + margin]
                margin += PERIOD_S
            if inside:
                per_cpu.append(statistics.mean(inside))
        if not per_cpu:
            raise RuntimeError("the host-speed probes recorded nothing")
        return statistics.mean(per_cpu) / REFERENCE_S
