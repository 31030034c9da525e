"""Colored-noise generation for the malicious-node experiments.

The attacker's noise is a Gaussian random walk: the running sum of white
Gaussian draws, standardized to zero sample mean and unit sample standard
deviation.  This is Kasdin's 1/f^alpha generator ("Discrete simulation of
colored noise and stochastic processes and 1/f^alpha power law noise
generation", Proc. IEEE 1995) at alpha = 2, where the fractional-integration
taps h_m = h_{m-1} * (alpha/2 + m - 1) / m are all exactly 1.  Its power
spectral density goes as 1/f^2 (-6 dB/octave).
"""

from __future__ import annotations

import numpy as np

from .topology import Topology, connectivity_layers


def generate(n: int, rng) -> np.ndarray:
    """Standardized Gaussian random walk of length n: the running sum of
    `rng`'s `standard_normal(n)` draws, computed in place.

    `rng` may be a seed or a numpy Generator.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    x = np.random.default_rng(rng).standard_normal(n)
    np.cumsum(x, out=x)
    x -= x.mean()
    sd = x.std()
    if sd == 0.0:
        raise ValueError("degenerate noise draw (zero variance)")
    x /= sd
    return x


def malicious_node(topo: Topology) -> int:
    """The attacker position: the node furthest from the gateway in BFS hops,
    ties broken by the smallest id."""
    layers = connectivity_layers(topo)
    return layers.index(max(layers))
