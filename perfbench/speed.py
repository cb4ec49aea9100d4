"""The box's current speed, for scaling measured times to a reference speed.

On a shared machine the same code can run up to 1.8x slower for seconds at a
time as other tenants come and go, so raw times of whole runs spread by a
tenth to a fifth between runs.  The benchmark therefore reads a short fixed
probe next to every operation (and, for operations that run in the benchmark
process, every PERIOD_S during them, from a timer signal), and reports each
time scaled by REF_S / (median probe time around it): "reference seconds",
the seconds the operation would take on a box where the probe takes REF_S.

The probe runs in a helper process of its own, so the program's heap cannot
change its reading.  The benchmark process asks for a reading and waits,
blocked, while the helper runs the probe once untimed, to bring its own table
back into cache after the program has run, and then three times timed; the
reading is the median of the three, so that one preemption of a millisecond
or two does not pass for a slow box.  So the reading follows what slows every
process on the box, not the program's working set, and a change to the
program shows one for one in reference seconds.  The probe's wall and CPU
time are taken out of the operation it interrupted.

    python3 perfbench/speed.py

runs the helper: it answers each line on standard input with one reading.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time

REF_S = 0.001
PERIOD_S = 0.1
MARGIN = 2
_TABLE_SIZE = 30_000
_table = {}


def probe():
    """Wall seconds of a fixed loop of small-dict updates, a sort and lookups
    spread over a table of a few megabytes, with the garbage collector held
    off so that it times the box, not the heap."""
    if not _table:
        _table.update(((i, i * 7 % 1009, i % 13), i) for i in range(_TABLE_SIZE))
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for i in range(750):
            key = (i % 37, i % 11, i & 7)
            acc[key] = acc.get(key, 0) + i * i % 7
        sorted(acc.items())
        for i in range(600):
            j = i * 7919 % _TABLE_SIZE
            acc[0] = _table[(j, j * 7 % 1009, j % 13)]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def serve():
    for _ in sys.stdin:
        probe()
        print(repr(sorted(probe() for _ in range(3))[1]), flush=True)


def scale(probe_s):
    """Factor from raw to reference seconds, given the probe time around a
    measurement."""
    return REF_S / probe_s


class Sampler:
    """Probe readings over a run, from one helper process, and the wall and
    CPU seconds the benchmark process spent waiting for them.

    ``with sampler.timer():`` also takes a reading every PERIOD_S."""

    def __init__(self):
        self.readings = []
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0
        self.last = float("-inf")
        self._busy = False
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            c0, w0 = time.process_time(), time.perf_counter()
            self._helper.stdin.write("\n")
            self._helper.stdin.flush()
            self.readings.append(float(self._helper.stdout.readline()))
            self.last = time.perf_counter()
            self.stolen_wall += self.last - w0
            self.stolen_cpu += time.process_time() - c0
        finally:
            self._busy = False

    def factor(self, first, last):
        """Scale for an operation whose neighbouring readings are first..last:
        from the median of those and of MARGIN more readings on each side, so
        that one noisy reading does not set a short operation's speed."""
        window = self.readings[max(0, first - MARGIN):last + 1 + MARGIN]
        return scale(statistics.median(window))

    def timer(self):
        return _Timer(self)

    def close(self):
        self._helper.stdin.close()
        self._helper.wait(timeout=60)
        self._helper.stdout.close()


class _Timer:
    def __init__(self, sampler):
        self.sampler = sampler
        self._old_handler = None

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sampler.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False


if __name__ == "__main__":
    serve()
