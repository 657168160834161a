"""Calibration kernels: the machine's current speed, measured next to the work.

On a shared host the speed a process gets drifts by tens of percent over
seconds and minutes, so two runs of the same code minutes apart can differ
more than any change worth detecting.  The workers therefore run a fixed
kernel, which uses no ``sylvester`` code, interleaved with the timed
operations in the same thread, and report every time rescaled to the speed
at which the kernel takes its reference time:

    reported = measured * REFERENCE_S[kernel] / median(kernel samples)

A change to the program moves the measured time and not the kernel's, so it
moves the reported time by the same share; a slower or faster machine moves
both.  Two kernels, each shaped like the work it stands next to:

  stdlib  argparse, Fraction, json and dict work: interpreter-bound, like an
          exact-path command and like interpreter start plus import;
  numpy   Philox draws, uniform points in a ball, batches of 3x3 and 4x4
          determinants and their moments: array-bound, like a Monte Carlo
          command.

The raw times and the kernel medians go to the run's stderr report.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
from fractions import Fraction
from time import perf_counter

# Median time of one kernel call on the host the benchmark was defined on
# (2 vCPUs, Python 3.11, numpy 2.4), rounded.  Constants: they fix the scale
# of every reported time and never change between runs.
REFERENCE_S = {"stdlib": 1.5e-3, "numpy": 40.0e-3}

# simplices per numpy kernel call in 3-d (a quarter as many in 4-d)
NUMPY_SAMPLES = 30_000


def stdlib_kernel() -> None:
    parser = argparse.ArgumentParser(prog="calibrate")
    commands = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d"):
        sub = commands.add_parser(name)
        for option in ("--x", "--y", "--z"):
            sub.add_argument(option, type=int, default=1)
    parser.parse_args(["b", "--x", "3"])
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i * i + 1)
    counts: dict[str, int] = {}
    for i in range(400):
        key = str(i * 7919 % 10007)
        counts[key] = counts.get(key, 0) + len(key)
    json.dumps({"total": str(total), "counts": counts})


def numpy_kernel() -> None:
    """Uniform points in a 3-ball and a 4-ball, simplex volumes, moments.

    The operations and array shapes of a Monte Carlo chunk, written out here
    so that no change to ``sylvester`` can change the kernel.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=[20160127, 1]))
    n = NUMPY_SAMPLES
    x = rng.standard_normal((n, 4, 3))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    p = x * (rng.random((n, 4)) ** (1.0 / 3.0))[..., None]
    p[..., 0] = np.abs(p[..., 0])
    v = p[:, 1:, :] - p[:, :1, :]
    a, b, c = v[:, 0], v[:, 1], v[:, 2]
    det = np.abs(a[:, 0] * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
                 - a[:, 1] * (b[:, 0] * c[:, 2] - b[:, 2] * c[:, 0])
                 + a[:, 2] * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]))
    _moments(det / 6.0)
    m = n // 4
    y = rng.standard_normal((m, 5, 4))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    q = y * (rng.random((m, 5)) ** 0.25)[..., None]
    _moments(np.abs(np.linalg.det(q[:, 1:, :] - q[:, :1, :])) / 24.0)


def _moments(values) -> float:
    mean = values.mean()
    return float(((values - mean) ** 2).sum())


KERNELS = {"stdlib": stdlib_kernel, "numpy": numpy_kernel}


class Calibration:
    """Samples of one kernel, taken between operations."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.run = KERNELS[kernel]
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        # without collections, whose cost depends on the program's heap
        gc.disable()
        try:
            for _ in range(times):
                start = perf_counter()
                self.run()
                self.samples.append(perf_counter() - start)
        finally:
            gc.enable()

    def take(self) -> list[float]:
        """The samples since the last ``take``."""
        samples, self.samples = self.samples, []
        return samples


def factor(kernel: str, samples: list[float]) -> float:
    """What a time measured next to ``samples`` is multiplied by."""
    return REFERENCE_S[kernel] / statistics.median(samples)
