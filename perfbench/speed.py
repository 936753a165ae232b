"""The machine's speed at the moment of a measurement.

On a shared host the speed of a core changes every few seconds, by up to
half, and every stage of a pass slows down with it. So the benchmark runs
a fixed piece of reference work, which uses numpy and the standard library
but no flowcodec code, between every two timed samples, and scales each
sample to a machine on which the reference work takes REFERENCE_S:

    scaled = seconds * (REFERENCE_S / mean(reference before, after)) ** exponent

A change to flowcodec moves the sample and leaves the reference work as it
is, so it moves the scaled time by the same share as the wall time.
"""

from __future__ import annotations

from time import perf_counter

# About the reference work's time on the 2-core box the benchmark was
# written on, so that scaled times there read close to wall times.
REFERENCE_S = 0.05

# How closely a stage's time follows the reference work's when the machine
# slows down: the slope of log(stage seconds) on log(reference seconds),
# fitted over all samples of ten runs per workload on the 2-core box. The
# reference work is mostly interpreted Python, like the CSV and forest
# stages, whose slopes were 0.73 to 1.02. The dense numpy layers of `train`
# slow down less: 0.54 to 0.72. Stages not named here use 1.
EXPONENT = {"train": 0.6}


def reference_seconds() -> float:
    """Wall seconds of the reference work: CSV-like text parsing and
    formatting, small dense layers, and a sort, as in the stages."""
    import numpy as np

    t0 = perf_counter()
    lines = [
        ",".join(f"{(i * 7919) % 1000 / 7:.6f}" for i in range(j, j + 20)) for j in range(3000)
    ]
    total = 0.0
    for line in lines:
        for cell in line.split(","):
            total += float(cell)
    a = np.linspace(0, 1, 256 * 64).reshape(256, 64)
    w = np.linspace(-1, 1, 64 * 64).reshape(64, 64) / 8
    for _ in range(120):
        a = np.tanh(a @ w)
    np.argsort(np.sin(np.arange(120000)))
    return perf_counter() - t0


def scaled(seconds: float, reference: tuple[float, float], stage: str | None = None) -> float:
    """``seconds`` of ``stage`` as they would read on the reference machine."""
    speed = REFERENCE_S * 2 / (reference[0] + reference[1])
    return seconds * speed ** EXPONENT.get(stage, 1.0)
