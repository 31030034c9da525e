"""Colored-noise generation for the malicious-node experiments.

White Gaussian innovations are passed through the recursive fractional
integration filter h_0 = 1, h_m = h_{m-1} * (alpha/2 + m - 1) / m, which
shapes the power spectral density to 1/f^alpha (alpha = 2 gives the
-6 dB/octave slope used in the attack model).  The emitted series is
standardized to zero sample mean and unit sample standard deviation.
"""

from __future__ import annotations

import numpy as np

from .topology import Topology, connectivity_layers


def _fractional_filter(n: int, alpha: float) -> np.ndarray:
    """The n filter taps h_m as float64.  The recurrence runs on Python
    floats, which do the same IEEE operations in the same order as numpy
    scalars at under half the cost, and stores each tap through a memoryview
    of the result."""
    h = np.empty(n)
    taps = memoryview(h)
    taps[0] = prev = 1.0
    half = 0.5 * float(alpha)
    for m in range(1, n):
        prev = prev * (half + m - 1) / m
        taps[m] = prev
    return h


def generate(n: int, alpha: float, rng) -> np.ndarray:
    """Standardized 1/f^alpha noise of length n.

    `rng` may be a seed or a numpy Generator.  alpha = 0 degenerates to plain
    standardized white noise.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    w = np.random.default_rng(rng).standard_normal(n)
    if alpha == 0.0:
        x = w
    else:
        h = _fractional_filter(n, alpha)
        m = 1 << int(np.ceil(np.log2(2 * n - 1)))
        x = np.fft.irfft(np.fft.rfft(h, m) * np.fft.rfft(w, m), m)[:n]
    x = x - x.mean()
    sd = x.std()
    if sd == 0.0:
        raise ValueError("degenerate noise draw (zero variance)")
    return x / sd


def malicious_node(topo: Topology) -> int:
    """The attacker position: the node furthest from the gateway in BFS hops,
    ties broken by the smallest id."""
    layers = connectivity_layers(topo)
    return layers.index(max(layers))
