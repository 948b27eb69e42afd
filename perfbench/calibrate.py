"""A speed gauge that runs while a command runs.

The machine this benchmark was tuned on (2 shared vCPUs) switches between a
fast and a slow state, 1.6x apart, every 5 to 15 seconds. Steal time stays
near zero and CPU time grows as much as wall time, so the processor itself
runs slower. A 4-second command spans several such switches.

``Gauge`` times a fixed micro-kernel from a SIGALRM handler every 50 ms while
a command runs. Python runs the handler in the main thread between
bytecodes, so it samples the speed of the state the command is running in.
The benchmark subtracts the handler's own time from the command's time, and
divides the rest by the harmonic mean of the micro-kernel's CPU times during
that command. Over ten seeds of 25-second runs, the median ratio spread
(interquartile range over median) by 2.5% to 6.6% across the four
workloads, where the median raw time spread by 11% to 26%.

The micro-kernel does the two kinds of work the workloads do, in pure
Python. One is small-matrix complex arithmetic: a cyclic Jacobi eigensolver
on a fixed 4x4 Hermitian matrix. The other is backtracking: exact edge
coloring of a fixed graph. It imports nothing from chromlc, so a change to
the package cannot move it.

It calls no numpy on purpose. A numpy call releases the interpreter lock,
and in ``verify variance`` the ``analysis`` pool threads then take the lock
and keep it for a switch interval (5 ms). A tick that called numpy took 5
to 11 times its CPU time in wall time there, and subtracting that wall time
also took out pool work that ran meanwhile: over 29 commands the ratio
varied by 13% (coefficient of variation) where the raw time varied by 6%.
Without numpy a tick holds the lock from start to end, its wall time stays
within 5% of its CPU time, and the ratio varied by 3.3%.
"""

from __future__ import annotations

import math
import signal
import time

from coloring import chromatic_index

INTERVAL_S = 0.05
# Set-up times are reported in seconds at a fixed speed: the speed at which
# one micro-kernel takes REFERENCE_S of CPU time. On the machine the benchmark
# was tuned on, readings ranged from 0.45 ms to 0.95 ms.
REFERENCE_S = 0.0006
# A fixed Hermitian matrix: A + A^H for a complex normal A drawn from numpy's
# default_rng(4), written out so that loading the gauge imports no numpy.
MATRIX = [
    [-1.3035823052233793+0j, -1.8161145869104238+1.7580868667515155j,
     0.055536207204807786-1.8124752369077066j, 0.975792766304157-1.6565183653858564j],
    [-1.8161145869104238-1.7580868667515155j, -0.010406528343863955+0j,
     -0.3816918641115421+2.2097931156943424j, 0.6591781849496681+2.0080013469070166j],
    [0.055536207204807786+1.8124752369077066j, -0.3816918641115421-2.2097931156943424j,
     0.4707618374749095+0j, 0.08250934646723018-0.5483614382221099j],
    [0.975792766304157+1.6565183653858564j, 0.6591781849496681-2.0080013469070166j,
     0.08250934646723018+0.5483614382221099j, 4.505458249448055+0j],
]
# A 3-regular graph on eight vertices (class 1).
GRAPH = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 4), (3, 6), (4, 7), (5, 6), (5, 7)]


def _jacobi_eigenvalues(m):
    a = [row[:] for row in m]
    n = len(a)
    for _ in range(50):
        if max(abs(a[p][q]) for p in range(n) for q in range(p + 1, n)) < 1e-12:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = a[p][q]
                if abs(b) < 1e-300:
                    continue
                phase = b / abs(b)
                tau = (a[q][q].real - a[p][p].real) / (2 * abs(b))
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1 + tau * tau))
                c = 1 / math.sqrt(1 + t * t)
                s = t * c
                u, v = s * phase.conjugate(), c * phase.conjugate()
                for row in a:
                    row[p], row[q] = row[p] * c - row[q] * u, row[p] * s + row[q] * v
                rp, rq = a[p], a[q]
                u, v = s * phase, c * phase
                a[p] = [c * x - u * y for x, y in zip(rp, rq)]
                a[q] = [s * x + v * y for x, y in zip(rp, rq)]
    return sorted(a[i][i].real for i in range(n))


def micro_kernel():
    for _ in range(3):
        _jacobi_eigenvalues(MATRIX)
    for _ in range(4):
        chromatic_index(GRAPH)


class Gauge:
    """``with gauge:`` runs the micro-kernel every ``interval`` seconds.

    ``wall`` holds each tick's wall time, which the command was delayed by;
    ``cpu`` holds the thread CPU time of each tick's micro-kernel, which
    leaves out waits for the interpreter lock while pool threads run.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.wall = []
        self.cpu = []

    def _tick(self, signum, frame):
        start, start_cpu = time.perf_counter(), time.thread_time()
        micro_kernel()
        self.cpu.append(time.thread_time() - start_cpu)
        self.wall.append(time.perf_counter() - start)

    def reading(self):
        """Harmonic mean of the micro-kernel's CPU times.

        The ticks come at even steps of wall time, so the mean of their
        inverse times is the mean speed over the command; the command's time
        times that mean counts its work in micro-kernels.
        """
        return len(self.cpu) / sum(1.0 / x for x in self.cpu)

    def __enter__(self):
        self.wall = []
        self.cpu = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
