"""Machine-speed probe, for timings that hold still on a shared host.

On a host whose cores are shared with other tenants, CPU speed drifts by
up to a fifth over tens of seconds, more than the changes the benchmark
must resolve.  The probe is fixed work that never touches unselect but has
its operation mix: numpy sorting, grouping and scatter-min, a Python dict
loop, and a row-by-row distance loop.  It runs before and after each timed
pass (and in each set-up interpreter right after its inputs are ready).

A time ``t`` measured while the probe took ``p`` seconds is reported as
``t * NOMINAL_PROBE_S / p``: seconds at the speed at which the probe takes
``NOMINAL_PROBE_S``.  The raw times are printed and kept next to them.
"""

import statistics
import time

import numpy as np

NOMINAL_PROBE_S = 0.010   # near the probe's median on the 2-core Xeon it was tuned on
REPEATS = 5               # probe runs per measurement; their median is used

_rng = np.random.default_rng(20130605)
_KEYS = _rng.integers(0, 2000, 20000)
_ROWS = _rng.standard_normal((400, 8))


def _work():
    _, ids = np.unique(_KEYS, return_inverse=True)
    low = np.full(2000, 1 << 40, dtype=np.int64)
    np.minimum.at(low, ids, _KEYS)
    counts = {}
    for key in _KEYS[:4000].tolist():
        counts[key] = counts.get(key, 0) + 1
    for row in _ROWS[:150]:
        np.argsort(np.sqrt(((_ROWS - row) ** 2).sum(axis=1)), kind="stable")[:3]


def probe() -> float:
    """Median seconds of the fixed work over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalize(seconds: float, probe_s: float) -> float:
    return seconds * NOMINAL_PROBE_S / probe_s
