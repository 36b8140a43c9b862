"""Host-speed gauge: timings scaled to a reference speed.

On a shared host the CPU a run gets drifts by up to 1.5x within
seconds, fsync latency by 4x, and a slow stretch can last a whole run.
No statistic over one run removes that, since every sample in it is
slowed alike.  So after every timed step, outside that step's timing,
the gauge takes two readings: the time of a fixed CPU kernel (one
Ed25519 check and a SHA-256 of 4 KiB, through ``cryptography`` and
hashlib, never through the library), and, where the step writes to
disk, the time to write and fsync a 2 KiB file beside the store.

An ``FsyncMeter`` counts the time the pass spends in ``os.fsync``.  A
step's fsync wait is multiplied by ``NOMINAL_IO_S / d`` and the rest of
its time by ``NOMINAL_CPU_S / c``, where ``d`` and ``c`` are the median
readings over the steps around it.  The result is the time the step
would take on a host where the readings are the nominal ones.  A change
to the library moves the step and not the gauge, so it shows in full;
a change in host speed moves both and cancels out.

The kernel keeps to a small working set, so its time does not depend
on what the step before it left in the caches.  A kernel that walks a
large buffer tracked other tenants' cache pressure better in isolation,
but after each step it read the step's own evictions, and so the
library's footprint, and it spread the benchmark's figures wider.
Scaling cannot follow contention that slows the library's heap work
more than the kernel; that part of the host's drift remains.

Raw wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

NOMINAL_CPU_S = 200e-6  # about the kernel's time on the 2-core host's fast stretches
NOMINAL_IO_S = 200e-6   # about a 2 KiB write + fsync there when the disk is quiet
WINDOW = 20             # steps on each side whose readings give a step's speed
AROUND = 40             # readings on each side of a timing taken in one piece

clock = time.perf_counter
_fsync = os.fsync       # the gauge's own fsyncs bypass any meter

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(4096)
_SIGNATURE = _KEY.sign(_MESSAGE)
_BLOCK = bytes(2048)


def _kernel() -> bytes:
    _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    return hashlib.sha256(_MESSAGE).digest()


class FsyncMeter:
    """Seconds this process spends in ``os.fsync`` while installed."""

    def __init__(self):
        self.waited = 0.0

    def install(self) -> None:
        def metered(fd):
            t0 = clock()
            try:
                return _fsync(fd)
            finally:
                self.waited += clock() - t0
        os.fsync = metered

    def uninstall(self) -> None:
        os.fsync = _fsync

    def stamp(self) -> tuple[float, float]:
        return clock(), self.waited


def scaled(a: tuple[float, float], b: tuple[float, float],
           f: tuple[float, float]) -> float:
    """Seconds from stamp ``a`` to stamp ``b`` at nominal speed, given the
    (CPU, fsync) factors ``f``."""
    waited = b[1] - a[1]
    return (b[0] - a[0] - waited) * f[0] + waited * f[1]


class Gauge:
    """Gauge readings of one process, one per timed step.

    With ``io_dir`` each reading also writes and fsyncs a file there.
    """

    def __init__(self, io_dir: Path | None = None):
        self.cpu: list[float] = []
        self.io: list[float] = []
        self.spent = 0.0            # wall time the gauge itself took
        self._io_file = io_dir / "gauge.tmp" if io_dir is not None else None

    def tick(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = clock()
            _kernel()
            t1 = clock()
            self.cpu.append(t1 - t0)
            if self._io_file is not None:
                with open(self._io_file, "wb") as fh:
                    fh.write(_BLOCK)
                    fh.flush()
                    _fsync(fh.fileno())
                self.io.append(clock() - t1)
            self.spent += clock() - t0

    @staticmethod
    def _factor(nominal: float, readings: list[float]) -> float:
        return nominal / statistics.median(readings) if readings else 1.0

    def factors(self) -> list[tuple[float, float]]:
        """Per reading: (CPU, fsync) factors from the readings around it."""
        def near(r, k):
            return r[max(0, k - WINDOW):k + WINDOW + 1]
        return [(self._factor(NOMINAL_CPU_S, near(self.cpu, k)),
                 self._factor(NOMINAL_IO_S, near(self.io, k)))
                for k in range(len(self.cpu))]

    def factor(self) -> tuple[float, float]:
        """(CPU, fsync) factors from every reading."""
        return (self._factor(NOMINAL_CPU_S, self.cpu),
                self._factor(NOMINAL_IO_S, self.io))

    def median_us(self) -> float:
        """The median CPU reading, in microseconds."""
        return statistics.median(self.cpu) * 1e6 if self.cpu else 0.0
