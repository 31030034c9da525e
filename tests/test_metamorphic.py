"""Metamorphic relations of the kernels: a relation between the outputs of
two runs whose inputs differ in a known way (Chen, Cheung & Yiu,
"Metamorphic testing: a new approach for generating next test cases",
HKUST-CS98-01, 1998).  Unlike the array-form oracle (tests/array_kernels.py),
which repeats the kernels' floating-point operations in the same order, a
relation needs no second formulation of the protocols, so a rule that both
formulations get wrong can still break it.

Exact power-of-two scaling.  Every operation a kernel applies to a time is a
sum, a division by a count, a product with a constant (delta*k, the dip
filter's taps) or a comparison, and multiplying every operand by a power of
two commutes with each rounding.  So multiplying the initial clocks, delta
and the attacker's noise by 2**m leaves every flag, count and tick output
equal, and scales the estimates and dip values by 2**m, bit for bit.  The
relation catches an absolute time constant in the dynamics: a threshold, an
epsilon, or a rounding to the microsecond grid.  The wire-overflow check is
absolute too, so the relation holds only below the overflow; at the default
delta of 1 ms no episode here comes near it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dipsync._kernels as kernels
import dipsync.engine as engine
from dipsync.engine import SimConfig
from dipsync.protocol import ProtocolKind
from test_engine import connected_topologies

# the kernel outputs that are times: the estimates and the dip values
TIME_OUTPUTS = (0, 7)


def scaled_inputs(args, factor):
    """The kernel arguments `args` with the initial clocks, delta and the
    attacker's noise (None without an attacker) multiplied by `factor`."""
    indptr, indices, edge_slot, link_live, init_est, delta, mal, noise, *rest = args
    return (indptr, indices, edge_slot, link_live, init_est * factor, delta * factor, mal,
            None if noise is None else noise * factor, *rest)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(topo=connected_topologies(), proto=st.sampled_from(list(ProtocolKind)),
       link_p=st.sampled_from([1.0, 0.7, 0.3]), malicious=st.booleans(),
       freeze=st.booleans(), factor=st.sampled_from([2.0, 0.25]),
       seed=st.integers(0, 2 ** 32 - 1), ticks=st.integers(100, 1500))
def test_scaling_the_times_by_a_power_of_two(topo, proto, link_p, malicious, freeze,
                                             factor, seed, ticks):
    c = SimConfig(topology=topo, protocol=proto, max_ticks=ticks, seed=seed,
                  link_p=link_p, malicious=malicious, freeze_on_dip=freeze)
    name, args = engine.kernel_inputs(c)
    kernel = kernels.get_kernel(name)
    base = kernel(*args)
    scaled = kernel(*scaled_inputs(args, factor))
    for i, (a, b) in enumerate(zip(base, scaled)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, i
        if i in TIME_OUTPUTS:
            # a product with a power of two is exact, so the bits must match
            a = a * factor
        assert a.tobytes() == b.tobytes(), i
