import numpy as np
import pytest

import dipsync.engine as engine
from dipsync.engine import SimConfig, run, substream
from dipsync.errors import ConfigError, UnreachableNodeError
from dipsync.protocol import ProtocolKind
from dipsync.topology import (
    Topology,
    connectivity_layers,
    edge_list_size,
    grid_size,
    line_size,
    load_topology,
    make_grid,
    make_line,
)


def test_grid_4x4_counts():
    topo = make_grid(4, 4)
    assert topo.node_count == 16
    assert len(topo.edges) == 24  # 2 * 4 * 3 grid edges


def test_grid_3x3_layer_count_is_4():
    assert max(connectivity_layers(make_grid(3, 3))) == 4


def test_minimal_grid_1x2():
    topo = make_grid(1, 2)
    assert topo.node_count == 2
    assert topo.edges == ((0, 1),)


def test_grid_2x3_hand_ids():
    # ids by hop distance, row-major within a distance:
    #   0 1 3
    #   2 4 5
    topo = make_grid(2, 3)
    assert topo.edges == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5))


def test_grid_ids_follow_bfs_order():
    topo = make_grid(4, 4)
    layers = list(connectivity_layers(topo))
    assert layers == sorted(layers)  # ids ordered by hop distance


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (1, 1)])
def test_grid_rejects_degenerate_shapes(rows, cols):
    with pytest.raises(ConfigError):
        make_grid(rows, cols)


def test_line_16():
    topo = make_line(16)
    assert len(topo.edges) == 15
    assert max(connectivity_layers(topo)) == 15


def test_line_2():
    topo = make_line(2)
    assert topo.edges == ((0, 1),)
    assert connectivity_layers(topo)[1] == 1


def test_line_5_middle_neighbors():
    topo = make_line(5)
    assert topo.neighbors[3] == (2, 4)


def test_line_rejects_single_node():
    with pytest.raises(ConfigError):
        make_line(1)


def test_layers_3x3_hand_bfs():
    # hand BFS on the 3x3 corner-gateway grid
    lay = connectivity_layers(make_grid(3, 3))
    assert sorted(lay[1:]) == [1, 1, 2, 2, 2, 3, 3, 4]


def test_layers_line4():
    lay = connectivity_layers(make_line(4))
    assert lay == (0, 1, 2, 3)


def test_layers_star():
    star = Topology.from_edges(6, [(0, i) for i in range(1, 6)])
    lay = connectivity_layers(star)
    assert all(lay[i] == 1 for i in range(1, 6))
    assert max(lay) == 1


def test_layer_edge_lipschitz_property():
    for topo in (make_grid(4, 4), make_grid(5, 3), make_line(9)):
        lay = connectivity_layers(topo)
        for u, v in topo.edges:
            assert abs(lay[u] - lay[v]) <= 1


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (5, 5), (1, 7)])
def test_grid_max_layer_formula(rows, cols):
    assert max(connectivity_layers(make_grid(rows, cols))) == (rows - 1) + (cols - 1)


def test_unreachable_node_named():
    with pytest.raises(UnreachableNodeError) as exc:
        Topology.from_edges(4, [(0, 1), (2, 3)])
    assert exc.value.node == 2
    # the lowest-id unreachable node is named, isolated or not
    with pytest.raises(UnreachableNodeError) as exc:
        Topology.from_edges(5, [(0, 1), (2, 3)])
    assert exc.value.node == 2


def link_draws(topo, p, seed=0, ticks=50, protocol=ProtocolKind.BAF):
    """The (ticks, edges) link realization the engine hands the kernel."""
    config = SimConfig(topology=topo, protocol=protocol, max_ticks=ticks, link_p=p,
                       seed=seed)
    return engine.kernel_inputs(config)[1][3]


def test_sample_links_p_one_and_zero():
    topo = make_grid(3, 3)
    assert link_draws(topo, 1.0).all()
    assert not link_draws(topo, 0.0).any()
    ideal = run(SimConfig(topology=topo, protocol=ProtocolKind.BAF, max_ticks=50))
    assert np.array_equal(ideal.messages_delivered[1:], ideal.messages_sent[:-1])
    dead = run(SimConfig(topology=topo, protocol=ProtocolKind.BAF, max_ticks=50,
                         link_p=0.0))
    assert not dead.messages_delivered.any()
    assert not dead.transmitted[:, 1:].any()


def test_sample_links_law_of_large_numbers():
    # line of 11 has exactly 10 edges
    live = link_draws(make_line(11), 0.5, seed=123, ticks=10_000)
    assert live.shape == (10_000, 10)
    assert abs(live.mean() - 0.5) < 0.02


def test_sample_links_seed_reproducible():
    topo = make_grid(3, 3)
    live = link_draws(topo, 0.3, seed=7)
    assert np.array_equal(live, link_draws(topo, 0.3, seed=7, protocol=ProtocolKind.TSAU))
    # one draw per edge per tick from the "links" sub-stream, tick-major
    assert np.array_equal(live, substream(7, "links").random((50, 12)) < 0.3)
    assert not np.array_equal(live, link_draws(topo, 0.3, seed=8))


def test_sample_links_rejects_bad_p():
    for p in (1.5, -0.1):
        with pytest.raises(ConfigError):
            run(SimConfig(topology=make_line(3), protocol=ProtocolKind.TSAU,
                          max_ticks=10, link_p=p))


def test_edge_list_file_roundtrip(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("4 0\n0 1\n1 2\n2 3\n1 3\n", encoding="utf-8")
    topo = load_topology(path)
    assert topo.node_count == 4
    assert topo.edges == ((0, 1), (1, 2), (1, 3), (2, 3))


def test_edge_list_comments_start_anywhere_on_a_line(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("# a path\n3 0  # nodes, gateway\n  # indented note\n"
                    "0 1 # first edge\n1 2\n\t# end\n", encoding="utf-8")
    topo = load_topology(path)
    assert topo.node_count == 3
    assert topo.edges == ((0, 1), (1, 2))
    assert edge_list_size(path) == (3, 2)


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (1, 7), (3, 5), (4, 4)])
def test_grid_size_counts_the_nodes_and_edges_of_make_grid(rows, cols):
    topo = make_grid(rows, cols)
    assert grid_size(rows, cols) == (topo.node_count, len(topo.edges))


@pytest.mark.parametrize("n", [2, 3, 16])
def test_line_size_counts_the_nodes_and_edges_of_make_line(n):
    topo = make_line(n)
    assert line_size(n) == (topo.node_count, len(topo.edges))


def test_edge_list_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_topology(path)


def test_self_loop_rejected():
    with pytest.raises(ConfigError):
        Topology.from_edges(3, [(0, 1), (1, 1), (1, 2)])
