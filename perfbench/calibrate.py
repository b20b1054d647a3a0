"""Machine speed from a fixed computation, to scale the benchmark's timings.

The shared machine the benchmark runs on changes speed by a factor of about
1.6 over minutes.  A run therefore measures the speed of a fixed reference
computation next to each timed call and scales the call's wall time to the
reference speed ``REF_CHUNK_S``:

    scaled = wall * REF_CHUNK_S / chunk_s

The computation is one gate-error evaluation of ``reference.py`` over a fixed
ensemble (scipy ``expm``, ``np.kron``, small complex products in a Python
loop): no package code, and the same work in every run whatever its seed.
It is timed in the calling thread's CPU time, so threads that the program
might leave running do not make the machine look slower; a slower host shows
in that CPU time as it does in wall time.
"""

import time
from types import SimpleNamespace

import numpy as np

import reference

# CPU seconds of one chunk at the reference speed (this machine when quiet)
REF_CHUNK_S = 2.0e-3
CHUNKS = 300
_N = 2
_CHANNELS = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]


def _ensemble():
    rng = np.random.default_rng(20180423)
    return [SimpleNamespace(delta=rng.normal(0.0, 0.13, (_N, len(_CHANNELS))),
                            channels=_CHANNELS,
                            delta_eta=rng.normal(0.0, 0.01, (_N, 6)))
            for _ in range(6)]


class Calibration:
    """Chunk times of successive calibration phases."""

    def __init__(self):
        self.angles = np.random.default_rng(1804).normal(0.0, 1.0, 6 * _N)
        self.ensemble = _ensemble()
        self.chunk_s = []
        self.spent_s = 0.0

    def measure(self):
        """One phase of CHUNKS chunks; returns its CPU seconds per chunk."""
        w0 = time.perf_counter()
        t0 = time.thread_time()
        for _ in range(CHUNKS):
            reference.ensemble_terms(self.angles, _N, self.ensemble)
        self.chunk_s.append((time.thread_time() - t0) / CHUNKS)
        self.spent_s += time.perf_counter() - w0
        return self.chunk_s[-1]

    def factor(self, *phases):
        """REF_CHUNK_S over the mean chunk time of the given phases."""
        return REF_CHUNK_S / (sum(self.chunk_s[i] for i in phases) / len(phases))
