import numpy as np
import pytest

from dipsync.noise import _fractional_filter, generate, malicious_node
from dipsync.topology import Topology, make_grid, make_line


def periodogram_slope(x):
    """Independent oracle: least-squares slope of log10 periodogram vs
    log10 frequency over the low/mid band."""
    n = len(x)
    spec = np.abs(np.fft.rfft(x)) ** 2 / n
    freqs = np.fft.rfftfreq(n)
    # skip DC; stay below Nyquist/4 where the fractional filter is a clean power law
    keep = (freqs > 0) & (freqs <= 0.125)
    lf = np.log10(freqs[keep])
    lp = np.log10(spec[keep])
    a = np.vstack([lf, np.ones_like(lf)]).T
    slope, _ = np.linalg.lstsq(a, lp, rcond=None)[0]
    return slope


def test_standardization_is_exact():
    for alpha, seed in [(0.0, 1), (1.0, 2), (2.0, 3)]:
        x = generate(4096, alpha, seed)
        assert abs(x.mean()) < 1e-12
        assert abs(x.std() - 1.0) < 1e-12


def test_alpha_zero_is_white():
    x = generate(1 << 12, 0.0, 11)
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1) < 0.05


def test_alpha_two_log_periodogram_slope():
    x = generate(1 << 14, 2.0, 7)
    assert periodogram_slope(x) == pytest.approx(-2.0, abs=0.3)


def test_alpha_two_strong_lag1_autocorrelation():
    x = generate(1 << 12, 2.0, 21)
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert lag1 > 0.9


def test_same_seed_same_series():
    assert np.array_equal(generate(512, 2.0, 77), generate(512, 2.0, 77))


def test_generator_instance_accepted():
    rng = np.random.default_rng(3)
    x = generate(256, 2.0, rng)
    assert len(x) == 256


def test_rejects_degenerate_length():
    with pytest.raises(ValueError):
        generate(1, 2.0, 0)


def test_rejects_negative_alpha():
    with pytest.raises(ValueError):
        generate(128, -1.0, 0)


def test_malicious_node_line16():
    assert malicious_node(make_line(16)) == 15


def test_malicious_node_grid_opposite_corner():
    topo = make_grid(4, 4)
    # BFS ids place the far corner last
    assert malicious_node(topo) == 15


def test_malicious_node_star_tie_break():
    star = Topology.from_edges(5, [(0, i) for i in range(1, 5)])
    assert malicious_node(star) == 1  # all leaves tie at layer 1; smallest id


def numpy_scalar_filter(n, alpha):
    """Oracle: the filter's recurrence on numpy float64 scalars."""
    h = np.empty(n)
    h[0] = 1.0
    half = 0.5 * alpha
    for m in range(1, n):
        h[m] = h[m - 1] * (half + m - 1) / m
    return h


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 2.0, 2.7])
def test_fractional_filter_matches_numpy_scalar_recurrence(alpha):
    got = _fractional_filter(4001, alpha)
    assert got.dtype == np.float64
    assert np.array_equal(got, numpy_scalar_filter(4001, alpha))
