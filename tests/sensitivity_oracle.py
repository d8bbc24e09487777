"""Sensitivity curve built one detector at a time.

For every grid frequency it constructs the tuned bar through
`DetectorSpec.from_frequency` (L = l pi v_s / omega, mass from the
geometry, every field validated) and evaluates `characteristic_strain` on
it. It is the reference for the closed-form array expression of
`gravibar.sensitivity.sensitivity_curve`.
"""

from __future__ import annotations

import math

import numpy as np

from gravibar.detector import DetectorSpec
from gravibar.sensitivity import characteristic_strain


def sensitivity_rows(template: DetectorSpec, frequencies_hz) -> np.ndarray:
    """(n, 2) rows (frequency_hz, h_c), one tuned detector per row."""
    rows = []
    for f in np.asarray(frequencies_hz, dtype=float):
        spec = DetectorSpec.from_frequency(
            template.material,
            2.0 * math.pi * f,
            radius=template.radius,
            mode_index=template.mode_index,
            quality=template.quality,
            temperature=template.temperature,
        )
        rows.append((float(f), characteristic_strain(spec)))
    return np.array(rows)
