"""Calibrated time: wall time rescaled by the host's speed while it ran.

The speed of a shared host drifts by up to 2x, in phases that last from a
fraction of a second to minutes, so raw wall times of one commit spread by
30-50% between runs. The benchmark therefore times every step against a
fixed reference computation (pure-Python counting and 16x16 numpy products,
the pipeline's own mix), run just before and just after the step and, where
SIGALRM exists, in short slices every SAMPLE_INTERVAL_S during it. Then

    calibrated = (wall - time spent in slices) / slowdown
    slowdown   = reference time measured / reference time at nominal speed

with the nominal speed the one at which a full reference takes REFERENCE_S.
A change to sectsum moves the step and not the reference; a slow phase of the
host moves both. The reference must never change: it is part of the
benchmark, not of the program.
"""

from __future__ import annotations

import collections
import signal
import time

REFERENCE_S = 0.015
ROUNDS = 60                 # rounds in a full reference, about REFERENCE_S
SLICE_ROUNDS = 12           # rounds in a slice run during a step
SAMPLE_INTERVAL_S = 0.25

_WORDS = tuple(f"w{i % 53}" for i in range(400))


def reference(rounds=ROUNDS):
    """Wall seconds of ``rounds`` rounds of the reference computation."""
    import numpy as np  # here, so that importing this module leaves BLAS unset

    start = time.perf_counter()
    counts = collections.Counter()
    for _ in range(rounds):
        counts.update(zip(_WORDS, _WORDS[1:]))
        a = np.full((16, 16), 0.01)
        for _ in range(40):
            a = np.tanh(a @ a + 0.01)
    return time.perf_counter() - start


class Clock:
    """Times a sequence of steps in calibrated seconds. The reference run
    after one step is also the one before the next."""

    def __init__(self, sample=True):
        self.sample = sample and hasattr(signal, "setitimer")
        self._last = reference()

    def time(self, step):
        """Run ``step()``; return ``(result, calibrated_s, wall_s)``, where
        ``wall_s`` excludes the slices run during the step."""
        samples = [(self._last, ROUNDS)]
        in_slices = 0.0

        def on_alarm(signum, frame):
            nonlocal in_slices
            entered = time.perf_counter()
            samples.append((reference(SLICE_ROUNDS), SLICE_ROUNDS))
            in_slices += time.perf_counter() - entered

        if self.sample:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = step()
        finally:
            wall = time.perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        wall -= in_slices
        self._last = reference()
        samples.append((self._last, ROUNDS))
        slowdown = (sum(seconds for seconds, _ in samples)
                    / (sum(rounds for _, rounds in samples) * REFERENCE_S / ROUNDS))
        return result, wall / slowdown, wall
