"""Record-by-record jump detection on one series.

Walks the series once, counting the current run of points at or above the
threshold, and emits the run's first time when the run reaches `hold`
points. It is the reference for `gravibar.measurement._run_starts`, which
counts the same run over a block of records of many series at once and
carries it to the next block.
"""

from __future__ import annotations

import numpy as np


def jump_starts(
    times: np.ndarray, series: np.ndarray, threshold: float, hold: int
) -> list[float]:
    """Times where `series` first sustains >= threshold for `hold` points."""
    above = series >= threshold
    out: list[float] = []
    run = 0
    emitted = False
    for idx, flag in enumerate(above):
        if flag:
            run += 1
            if run >= hold and not emitted:
                out.append(float(times[idx - run + 1]))
                emitted = True
        else:
            run = 0
            emitted = False
    return out
