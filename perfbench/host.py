"""Host-speed probe, CPU clocks and the machine block.

The CPU time a fixed piece of work takes on a shared 2-vCPU host is not
fixed: back-to-back runs of the same probe alternate between a fast and
a slow phase that differ by about 1.6x and last from a fraction of a
second to more than ten seconds.  Raw CPU figures therefore spread by
far more than any regression a benchmark should catch.

:class:`HostProbe` runs a fixed ~10 ms mix of the two kinds of work the
program does (Python dict/sort bookkeeping and NumPy popcounts over
packed bit rows) between blocks of timed work.  A block's CPU divided
by the mean of the two probes that bracket it is a host-speed-free
ratio; multiplied by :data:`REFERENCE_PROBE_MS` it reads again as
milliseconds, "at the speed where the probe takes 10 ms".
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import sys
import time

import numpy as np

#: Probe CPU time the normalized figures are scaled to (milliseconds).
REFERENCE_PROBE_MS = 10.0

#: Work sizes of one probe call; fixed, never calibrated at run time,
#: so the probe measures the host and not itself.
_PROBE_KEYS = 7_000
_PROBE_ROWS = 512
_PROBE_WORDS = 32
_PROBE_ROUNDS = 60


def cpu_ns() -> int:
    """CPU time of this process (all threads), in nanoseconds."""
    return time.process_time_ns()


class HostProbe:
    """A fixed CPU probe whose samples normalize neighbouring blocks."""

    def __init__(self) -> None:
        rng = random.Random(20060326)
        self._keys = [rng.randrange(1 << 40) for _ in range(_PROBE_KEYS)]
        words = np.random.default_rng(20060326).integers(
            0, np.iinfo(np.int64).max, size=(_PROBE_ROWS, _PROBE_WORDS)
        )
        self._rows = words.astype(np.uint64)
        #: Every probe sample taken, in milliseconds.
        self.samples_ms: list[float] = []

    def _work(self) -> int:
        table: dict[int, int] = {}
        for key in self._keys:
            table[key & 0xFFFF] = table.get(key & 0xFFFF, 0) + (key >> 20)
        ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
        total = len(ordered)
        reference = self._rows[0]
        for shift in range(_PROBE_ROUNDS):
            diff = self._rows & ~np.roll(reference, shift)
            total += int(np.bitwise_count(diff).sum(axis=1).max())
        return total

    def sample(self) -> float:
        """Run the probe once; return (and record) its CPU milliseconds."""
        start = cpu_ns()
        self._work()
        elapsed_ms = (cpu_ns() - start) / 1e6
        self.samples_ms.append(elapsed_ms)
        return elapsed_ms


def normalize_ms(raw_ms: float, probe_before: float, probe_after: float) -> float:
    """``raw_ms`` rescaled to the reference host speed.

    The two probes bracket the block the time was measured in; their
    mean is the host speed the block ran at.
    """
    return raw_ms * REFERENCE_PROBE_MS * 2.0 / (probe_before + probe_after)


def freeze_heap() -> None:
    """Collect garbage, then move every live object out of the cyclic
    collector's view until the process ends.

    Called after set-up, before timing: a full collection rescans every
    object alive, so without this its cost grows with everything set-up
    and earlier passes left behind and lands in whichever timed region
    happens to trigger it.  Collections of the objects the timed work
    itself allocates still run, and are still timed.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_block() -> dict[str, object]:
    """What a run set needs to be told apart from another host's."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "argv": sys.argv[1:],
    }
