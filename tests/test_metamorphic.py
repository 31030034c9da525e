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

Relabeling.  No rule of the baseline, UAF or BAF reads a node's id, so
renaming the non-gateway nodes, each with its initial clock and its edges'
link columns, renames every output.  The control outputs and the counts are
then equal exactly: with freezing off the control planes read no estimate.
An average adds its terms in CSR neighbor order, which a renaming changes,
so the estimates and dip values agree to rounding.  The relation catches a
rule that reads an id, such as a tie broken by id, and it holds the delivery
count, which `_Episode.outputs` computes apart from the tick loops, to a
check with no second formulation.  TSAU's slot owner goes by id, and so
does the attacker's position, so neither is relabeled here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dipsync._kernels as kernels
import dipsync.engine as engine
from dipsync.engine import SimConfig
from dipsync.protocol import ProtocolKind
from dipsync.topology import make_grid, make_line
from test_engine import connected_topologies

# the kernel outputs that are times: the estimates and the dip values
TIME_OUTPUTS = (0, 7)
# the kernel outputs with one column or entry per node: the four trace
# arrays and the three detector outputs
PER_NODE_OUTPUTS = (0, 1, 2, 3, 6, 7, 8)


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


def relabeled_inputs(args, perm):
    """The kernel arguments `args` with node i renamed perm[i] (perm[0] is
    0, the gateway): the CSR lists are rebuilt in the new ids' ascending
    order, each edge keeps its link column, and each initial clock moves
    with its node."""
    indptr, indices, edge_slot, link_live, init_est, *rest = args
    nbrs = [[] for _ in perm]
    for i, new in enumerate(perm):
        for p in range(indptr[i], indptr[i + 1]):
            nbrs[new].append((perm[indices[p]], edge_slot[p]))
    nbrs = [sorted(nb) for nb in nbrs]
    init = np.empty_like(init_est)
    init[perm] = init_est
    return (np.cumsum([0, *map(len, nbrs)]).astype(indptr.dtype),
            np.array([j for nb in nbrs for j, _ in nb], dtype=indices.dtype),
            np.array([slot for nb in nbrs for _, slot in nb], dtype=edge_slot.dtype),
            link_live, init, *rest)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("link_p", [1.0, 0.75])
@pytest.mark.parametrize("topo", [make_grid(4, 4), make_line(8), make_grid(3, 5)],
                         ids=["grid16", "line8", "grid3x5"])
@pytest.mark.parametrize("proto", [ProtocolKind.SYNC_BASELINE, ProtocolKind.UAF,
                                   ProtocolKind.BAF])
def test_relabeling_the_nodes(proto, topo, link_p, seed):
    c = SimConfig(topology=topo, protocol=proto, max_ticks=1000, seed=seed,
                  link_p=link_p, freeze_on_dip=False)
    name, args = engine.kernel_inputs(c)
    perm = [0, *np.random.default_rng(seed).permutation(np.arange(1, topo.node_count))]
    kernel = kernels.get_kernel(name)
    base = kernel(*args)
    renamed = kernel(*relabeled_inputs(args, perm))
    for i, (a, b) in enumerate(zip(base, renamed)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, i
        if i in PER_NODE_OUTPUTS:
            # node i's column or entry is node perm[i]'s after the renaming
            b = b[..., perm]
        if i in TIME_OUTPUTS:
            assert np.abs(b - a).max() <= 1e-13, i
        else:
            assert np.array_equal(a, b), i
