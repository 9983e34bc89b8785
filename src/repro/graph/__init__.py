"""Graph substrate: containers, metrics, normalisations and splits."""

from .algorithms import (
    connected_components,
    from_networkx,
    k_hop_neighbors,
    laplacian,
    largest_component,
    num_connected_components,
    shortest_path_lengths,
    subgraph,
    to_networkx,
    within_k_hops,
)
from .graph import Edge, Graph, GraphDelta, canonical_edge
from .io import load_edge_list, load_graph, save_edge_list, save_graph
from .metrics import class_distribution, degree_statistics, homophily_ratio
from .normalize import adjacency_from_matrix, gcn_norm, row_norm, two_hop_adjacency
from .splits import Split, geom_gcn_splits, random_split
from .storage import (
    GraphBundle,
    load_graph_bundle,
    save_entropy_sidecar,
    save_graph_bundle,
)

__all__ = [
    "Edge",
    "Graph",
    "GraphBundle",
    "GraphDelta",
    "Split",
    "adjacency_from_matrix",
    "canonical_edge",
    "class_distribution",
    "connected_components",
    "from_networkx",
    "k_hop_neighbors",
    "laplacian",
    "largest_component",
    "load_edge_list",
    "load_graph",
    "load_graph_bundle",
    "save_entropy_sidecar",
    "save_graph_bundle",
    "num_connected_components",
    "save_edge_list",
    "save_graph",
    "shortest_path_lengths",
    "subgraph",
    "to_networkx",
    "within_k_hops",
    "degree_statistics",
    "gcn_norm",
    "geom_gcn_splits",
    "homophily_ratio",
    "random_split",
    "row_norm",
    "two_hop_adjacency",
]
