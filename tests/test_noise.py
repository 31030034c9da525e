import itertools
import tracemalloc

import numpy as np
import pytest

from dipsync.noise import generate, malicious_node
from dipsync.topology import Topology, make_grid, make_line


def periodogram_slope(x):
    """Independent oracle: least-squares slope of log10 periodogram vs
    log10 frequency over the low/mid band."""
    n = len(x)
    spec = np.abs(np.fft.rfft(x)) ** 2 / n
    freqs = np.fft.rfftfreq(n)
    # skip DC; stay below Nyquist/4 where the random walk is a clean power law
    keep = (freqs > 0) & (freqs <= 0.125)
    lf = np.log10(freqs[keep])
    lp = np.log10(spec[keep])
    a = np.vstack([lf, np.ones_like(lf)]).T
    slope, _ = np.linalg.lstsq(a, lp, rcond=None)[0]
    return slope


def test_standardization_is_exact():
    x = generate(4096, 3)
    assert abs(x.mean()) < 1e-12
    assert abs(x.std() - 1.0) < 1e-12


def running_sum_oracle(n, seed):
    """Oracle: the standardized sequential running sum of the same white
    draws, accumulated on Python floats."""
    walk = np.array(list(itertools.accumulate(
        np.random.default_rng(seed).standard_normal(n).tolist())))
    walk = walk - walk.mean()
    return walk / walk.std()


@pytest.mark.parametrize("n,seed", [(2, 0), (4000, 5), (10**5, 9)])
def test_generate_is_the_standardized_running_sum(n, seed):
    assert np.array_equal(generate(n, seed), running_sum_oracle(n, seed))


def test_generate_memory_is_one_output_array():
    # the output is 8 MB at 10**6 samples, and the walk is summed in place
    tracemalloc.start()
    try:
        generate(10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_alpha_two_log_periodogram_slope():
    x = generate(1 << 14, 7)
    assert periodogram_slope(x) == pytest.approx(-2.0, abs=0.3)


def test_alpha_two_strong_lag1_autocorrelation():
    x = generate(1 << 12, 21)
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert lag1 > 0.9


def test_same_seed_same_series():
    assert np.array_equal(generate(512, 77), generate(512, 77))


def test_generator_instance_accepted():
    rng = np.random.default_rng(3)
    x = generate(256, rng)
    assert len(x) == 256


def test_rejects_degenerate_length():
    with pytest.raises(ValueError):
        generate(1, 0)


def test_malicious_node_line16():
    assert malicious_node(make_line(16)) == 15


def test_malicious_node_grid_opposite_corner():
    topo = make_grid(4, 4)
    # BFS ids place the far corner last
    assert malicious_node(topo) == 15


def test_malicious_node_star_tie_break():
    star = Topology.from_edges(5, [(0, i) for i in range(1, 5)])
    assert malicious_node(star) == 1  # all leaves tie at layer 1; smallest id
