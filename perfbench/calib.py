"""Calibration loop that scales measured times to the host's full speed.

On the 2-vCPU host this benchmark was built on, the same code runs up to
2x slower in episodes lasting from seconds to minutes, as other tenants
load the physical cores.  Best-of and median estimators cannot remove an
episode longer than a run.  A fixed loop shaped like quatype's product
kernel (dict updates of complex products read through a sign table) slows
by nearly the same factor, so every time the benchmark reports is the
measured time multiplied by ``REFERENCE_S / probe time``, with the probe
timed on the same CPU during, or right around, the measured work.  The
probe's code is fixed here, so a change to quatype cannot move it.

Run as a script, this module is the monitor that probes beside a measured
process:  python3 perfbench/calib.py CPU PERIOD_S
"""

from __future__ import annotations

import json
import os
import select
import statistics
import sys
import time

# CPU seconds of one `probe()` at full speed on the reference host (2 vCPUs,
# CPython 3.11.7); scaled times are seconds at that speed.
REFERENCE_S = 0.00032

_N = 4
_A = {m: complex(1 + m % 3, (m * 5) % 7 - 3) for m in range(1 << _N)}
_B = {m: complex(3 - m % 3, (m * 3) % 7 - 3) for m in range(1 << _N)}
_SIGNS = [1 - 2 * (bin(a & (b >> 1)).count("1") & 1) for a in range(1 << _N)
          for b in range(1 << _N)]


def _product() -> dict:
    out: dict[int, complex] = {}
    for a, ca in _A.items():
        row = a << _N
        for b, cb in _B.items():
            m = a ^ b
            c = out.get(m, 0j) + _SIGNS[row | b] * ca * cb
            if c == 0:
                out.pop(m, None)
            else:
                out[m] = c
    return out


def probe() -> float:
    """CPU seconds this thread spends on a fixed amount of product work."""
    t0 = time.thread_time()
    for _ in range(4):
        _product()
    return time.thread_time() - t0


def median_probe(repeats: int = 5) -> float:
    return statistics.median(probe() for _ in range(repeats))


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at full speed."""
    return seconds * REFERENCE_S / probe_s


def monitor(cpu: int, period_s: float) -> None:
    """Probe on ``cpu`` every ``period_s`` until standard input reaches end
    of file (the parent closed it, or died), then print the samples as a
    JSON list of ``[monotonic time, probe seconds]``."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], period_s)[0]:
        samples.append((time.monotonic(), probe()))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    monitor(int(sys.argv[1]), float(sys.argv[2]))
