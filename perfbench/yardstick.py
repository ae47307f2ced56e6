"""Fixed pieces of work that measure how fast the machine is during a run.

On a shared host the speed of one vCPU drifts by tens of percent within
seconds, and the drift is not the same for every kind of code: LAPACK, a
memory-bound numpy loop and interpreted Python slow down by different
amounts at the same moment.  Each workload therefore names the kernels below
that do the kind of work it spends its time on, and a run times a pass of
those kernels just before and just after every timed step.  The step's time
is scaled by the kernels' nominal time over their mean time around it: the
result is the step's time at the speed at which the kernels take their
nominal time.  A change to the program moves its own times and not the
kernels', so it shows in full.

The kernels do not import ``mtaggr``, and the least-squares kernels keep
their own reference to ``lstsq`` so that the tracer's wrapper of
``numpy.linalg.lstsq`` never sees them.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from time import perf_counter

import numpy as np

_lstsq = np.linalg.lstsq

_rng = np.random.default_rng(20240611)
_WIDE = _rng.standard_normal((250, 100))
_WIDE_Y = _rng.standard_normal((250, 10))
_SMALL = _rng.standard_normal((200, 20))
_SMALL_Y = _rng.standard_normal((200, 2))
_BIG = _rng.standard_normal((100, 10_000))
_CSV = "\n".join(",".join(map(repr, row)) for row in _rng.standard_normal((400, 50)).tolist())
_RECORDS = [{"phase": 1, "cluster": [i, i + 1], "candidate": 3 * i,
             "accepted": bool(i % 2), "delta": 0.37 * i} for i in range(2000)]


def _lstsq_kernel() -> None:
    """Least squares of the reference workload's shape (250 rows, 100 columns)."""
    for _ in range(8):
        _lstsq(_WIDE, _WIDE_Y, rcond=None)


def _lstsq_small_kernel() -> None:
    """Least squares of the many_targets shape (200 rows, 20 columns), where
    the call overhead weighs as much as the factorization."""
    for _ in range(80):
        _lstsq(_SMALL, _SMALL_Y, rcond=None)


def _elementwise_kernel() -> None:
    """Element-wise numpy over an array of the Monte-Carlo oracle's shape."""
    for _ in range(2):
        ((_BIG - 0.5) ** 2).mean()


def _csv_kernel() -> None:
    """CSV text parsed into floats and stacked into an array."""
    np.array([[float(cell) for cell in row] for row in csv.reader(io.StringIO(_CSV))])


def _python_kernel() -> None:
    """An interpreted loop over a small dict."""
    counts: dict[int, float] = {}
    for i in range(30_000):
        counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5


def _json_kernel() -> None:
    """Round trip of comparison-like records through JSON text."""
    json.loads(json.dumps(_RECORDS))


# name: (kernel, its nominal time in seconds: the median reading during
# benchmark runs on a vCPU of the machine the benchmark was tuned on, an
# Intel Xeon with OpenBLAS 0.3.31 and one BLAS thread).  The nominal times
# only set the scale of the reported seconds.
KERNELS = {
    "lstsq": (_lstsq_kernel, 0.021),
    "lstsq_small": (_lstsq_small_kernel, 0.011),
    "elementwise": (_elementwise_kernel, 0.0033),
    "csv": (_csv_kernel, 0.0127),
    "python": (_python_kernel, 0.0052),
    "json": (_json_kernel, 0.0093),
}
# Around each timed step the kernels run until they have taken this share of
# the step's time, and at least MIN_S; their median pass time is the reading.
SHARE = 0.1
MIN_S = 0.05


class Gauge:
    """The readings of one workload's kernels over one run."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = [KERNELS[name][0] for name in kernels]
        self.nominal = sum(KERNELS[name][1] for name in kernels)
        self.readings: list[float] = []
        self._read(0.0)

    def _read(self, elapsed: float) -> None:
        passes: list[float] = []
        while not passes or sum(passes) < max(SHARE * elapsed, MIN_S):
            start = perf_counter()
            for kernel in self.kernels:
                kernel()
            passes.append(perf_counter() - start)
        self.readings.append(statistics.median(passes))

    def scaled(self, elapsed: float) -> float:
        """``elapsed``, which just ended, at the nominal speed, judged by the
        readings just before and just after it."""
        self._read(elapsed)
        return elapsed * self.nominal / statistics.fmean(self.readings[-2:])
