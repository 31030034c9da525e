"""The resynchronization period.

Node clocks are state of the tick kernels in `_kernels.py`, and the gateway's
reference time delta*k is `Trace.gateway_times`; this module holds the
closed-form period that the resynchronization rate is built on.
"""

from __future__ import annotations


def resync_period(drift_ppm: float, accuracy: float) -> float:
    """Seconds between resynchronizations for a clock drifting `drift_ppm` parts
    per million when the application needs `accuracy` seconds of precision."""
    if drift_ppm <= 0:
        raise ValueError("drift_ppm must be positive")
    if accuracy <= 0:
        raise ValueError("accuracy must be positive")
    # delta / (x * 1e-6) computed as delta * 1e6 / x so that e.g.
    # (100 ppm, 1 ms) gives exactly 10 s
    return accuracy * 1e6 / drift_ppm
