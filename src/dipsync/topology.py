"""Network graphs: grid/line/arbitrary topologies and their BFS layers.

Node ids are small non-negative integers, and the gateway is node 0 in every
topology: the kernels assume it.  The built-in generators number the other
nodes in breadth-first order from the gateway (row-major tie-break for grids)
so that id order tracks proximity to the gateway.  A grid has its gateway at
cell (0, 0).  An edge-list file must name node 0 as its gateway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ConfigError, UnreachableNodeError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Topology:
    """Undirected connected graph whose gateway is node 0.

    `edges` is the canonical edge list: each edge stored once as (u, v) with
    u < v, sorted lexicographically.  `neighbors[i]` is the ascending tuple of
    nodes adjacent to i.  Random draws that depend on edges always consume one
    value per edge in canonical order, so runs are seed-reproducible.
    """

    node_count: int
    edges: tuple[Edge, ...]
    neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "Topology":
        if node_count < 1:
            raise ConfigError("node_count must be >= 1")
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ConfigError(f"self-loop on node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ConfigError(f"edge ({u},{v}) references unknown node")
            canon.add((min(u, v), max(u, v)))
        edge_list = tuple(sorted(canon))
        nbrs = [[] for _ in range(node_count)]
        for u, v in edge_list:
            nbrs[u].append(v)
            nbrs[v].append(u)
        topo = cls(
            node_count=node_count,
            edges=edge_list,
            neighbors=tuple(tuple(sorted(n)) for n in nbrs),
        )
        # every node must reach the gateway
        connectivity_layers(topo)
        return topo

    def edge_index(self) -> dict[Edge, int]:
        """Map each canonical edge to its position in `edges`."""
        return {e: i for i, e in enumerate(self.edges)}


def grid_size(rows: int, cols: int) -> tuple[int, int]:
    """The node and edge counts of `make_grid(rows, cols)`, without building
    it; a shape with no grid of at least 2 nodes raises ConfigError."""
    if rows < 1 or cols < 1:
        raise ConfigError("rows and cols must be positive")
    if rows * cols < 2:
        raise ConfigError("grid needs at least 2 nodes")
    return rows * cols, rows * (cols - 1) + cols * (rows - 1)


def make_grid(rows: int, cols: int) -> Topology:
    """4-neighbor grid of `rows` x `cols` cells with the gateway at cell (0, 0).

    Ids follow breadth-first order from the gateway with a row-major
    tie-break, that is, cell (r, c) is numbered in the order of (r + c, r).
    """
    n, _ = grid_size(rows, cols)
    cells = sorted(((r, c) for r in range(rows) for c in range(cols)),
                   key=lambda rc: (rc[0] + rc[1], rc[0]))
    ids = {rc: i for i, rc in enumerate(cells)}
    # each cell's edges to its right and lower neighbors
    edges = [(i, ids[nb]) for (r, c), i in ids.items()
             for nb in ((r, c + 1), (r + 1, c)) if nb in ids]
    return Topology.from_edges(n, edges)


def line_size(n: int) -> tuple[int, int]:
    """The node and edge counts of `make_line(n)`, without building it; fewer
    than 2 nodes raise ConfigError."""
    if n < 2:
        raise ConfigError("line needs at least 2 nodes")
    return n, n - 1


def make_line(n: int) -> Topology:
    """Path graph 0-1-...-(n-1) with the gateway at node 0."""
    nodes, n_edges = line_size(n)
    return Topology.from_edges(nodes, [(i, i + 1) for i in range(n_edges)])


def connectivity_layers(topo: Topology) -> tuple[int, ...]:
    """BFS hop distance of every node from the gateway, node 0, by node id;
    the gateway itself sits at layer 0.

    Raises UnreachableNodeError naming the first (lowest-id) node with no
    path to the gateway.
    """
    layer = [-1] * topo.node_count
    layer[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in topo.neighbors[u]:
            if layer[v] < 0:
                layer[v] = layer[u] + 1
                queue.append(v)
    for node, d in enumerate(layer):
        if d < 0:
            raise UnreachableNodeError(node)
    return tuple(layer)


def read_lines(path, what: str) -> list[str]:
    """The lines of the UTF-8 text file at `path`.  A file that cannot be
    read or is not UTF-8 raises ConfigError naming it as a `what` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what} file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {what} file is not UTF-8 text") from exc


def _edge_list(path) -> tuple[int, list[str]]:
    """The header's node count and the edge lines of an edge-list file, with
    blank lines and '#' comments dropped; the gateway id is checked."""
    lines = [ln.split("#", 1)[0].strip() for ln in read_lines(path, "topology")]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ConfigError(f"{path}: empty topology file")
    try:
        n, gw = map(int, lines[0].split())
    except ValueError:
        raise ConfigError(f"{path}: first line must be 'N gateway_id', "
                          f"got {lines[0]!r}") from None
    if gw != 0:
        raise ConfigError(f"{path}: gateway id must be 0, got {gw}")
    return n, lines[1:]


def edge_list_size(path) -> tuple[int, int]:
    """The node and edge counts that the edge-list file at `path` declares:
    its header's N and its number of edge lines, without building the graph."""
    n, edge_lines = _edge_list(path)
    return n, len(edge_lines)


def load_topology(path) -> Topology:
    """Read an edge-list file: first line "N gateway_id", then one "u v" per
    line; '#' starts a comment anywhere on a line.

    The gateway id must be 0, the gateway of every topology; errors name the file."""
    n, edge_lines = _edge_list(path)
    edges = []
    for ln in edge_lines:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ConfigError(f"{path}: bad edge line {ln!r}") from None
        edges.append((u, v))
    try:
        return Topology.from_edges(n, edges)
    except ValueError as exc:   # a bad edge or an unreachable node
        raise ConfigError(f"{path}: {exc}") from exc
