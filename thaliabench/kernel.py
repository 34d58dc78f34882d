"""Host-speed measure: a fixed pure-Python reference kernel.

On the 2-vCPU host the benchmark was tuned on, the same work ran at
speeds up to 1.9x apart, in phases that lasted from a tenth of a second
to minutes.  Timing the kernel just before and just after a piece of
work tells how fast the host ran while the work ran, and
:func:`factors` turns the two times into the factor that scales the
work's times to the nominal speed.  The kernel runs no repository code,
so a change to the program still moves the scaled times in full.

Run as a script, it is the helper that :class:`SpeedProbe` starts: it
prints one kernel time for every line it reads.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

#: A typical time of :func:`reference_kernel` on the 2-vCPU host the
#: benchmark was tuned on (3.6-6.5 ms across its phases); scaled times
#: are "at the nominal host speed".
KERNEL_NOMINAL_S = 0.005
PROBE_TIMEOUT_S = 10.0


def reference_kernel() -> float:
    """Run the kernel once; its wall time in seconds."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(30000):
        key = i % 509
        table[key] = table.get(key, 0) + i
    "".join(str(value) for value in table.values())
    return time.perf_counter() - started


def factors(kernels: list[float]) -> list[float]:
    """One factor per piece of work: piece *i* ran between *kernels[i]*
    and *kernels[i + 1]*, and its times are multiplied by
    ``KERNEL_NOMINAL_S`` over the mean of the two."""
    return [KERNEL_NOMINAL_S * 2 / (kernels[i] + kernels[i + 1])
            for i in range(len(kernels) - 1)]


def normalised(values: list[float], kernels: list[float]) -> list[float]:
    """*values[i]*, which ran between *kernels[i]* and *kernels[i + 1]*,
    at the nominal host speed."""
    return [value * factor for value, factor in zip(values, factors(kernels))]


class SpeedProbe:
    """The kernel in a helper process pinned to *cpu*, run on demand.

    A served workload's server runs in another process on its own CPU,
    so the kernel has to run there, between pieces of traffic, to see
    the speed the server saw.
    """

    def __init__(self, cpu: int | None) -> None:
        pin = None if cpu is None else \
            (lambda: os.sched_setaffinity(0, {cpu}))
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin)

    def measure(self) -> float:
        assert self.process.stdin and self.process.stdout
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("speed probe exited")
        return float(line)

    def close(self) -> None:
        assert self.process.stdin and self.process.stdout
        self.process.stdin.close()
        try:
            self.process.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=PROBE_TIMEOUT_S)
        self.process.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(reference_kernel()), flush=True)
