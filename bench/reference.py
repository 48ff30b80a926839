"""A fixed reference kernel that measures the host's current CPU speed.

The shared 2-core host this benchmark was built on runs the same code
1.4-1.6x slower for seconds to minutes at a time, in wall and CPU time
alike.  The kernel does the same kinds of work as the CLI (shortest
round-trip float formatting, length-16384 inverse FFTs, string sets and
dicts) with fixed inputs, so its time moves with the host and never with
the program.  ``run.py`` runs it right before every timed op; an op's time
divided by the kernel's, times ``REFERENCE_MS``, is the op's time at the
reference speed.
"""

from time import perf_counter_ns

import numpy as np

# Median kernel time on the baseline host (Intel Xeon, 2 vCPUs, Python
# 3.11.7, numpy 2.4.6) in its fast state; it only sets the scale.
REFERENCE_MS = 5.0

_FLOATS = np.random.default_rng(0).random(4000)
_SPECTRUM = np.random.default_rng(1).random(16384) + 0j
_KEYS = [f"p{i}_{i % 7}" for i in range(3000)]


def kernel_ms() -> float:
    """Run the kernel once; returns its wall time in ms."""
    start = perf_counter_ns()
    ",".join(repr(float(v)) for v in _FLOATS)
    for _ in range(3):
        np.fft.ifft(np.roll(_SPECTRUM, 1))
    seen = set()
    for key in _KEYS:
        if key not in seen:
            seen.add(key)
    {key: len(key) for key in _KEYS}
    return (perf_counter_ns() - start) / 1e6
