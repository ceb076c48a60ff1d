"""Node degrees counted edge by edge: the oracle for the degree order HGRE
derives from a graph's edges."""

import numpy as np


def loop_degrees(n, edges):
    """Each of ``n`` nodes' count of endpoints in ``edges``."""
    deg = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def loop_degrees_of_graph(g):
    """Degrees within the symptom subgraph, within the herb subgraph and
    over the whole graph (herbs after symptoms)."""
    sub_ss = loop_degrees(g.n_sym, g.edges_ss)
    sub_hh = loop_degrees(g.n_herb, g.edges_hh)
    full = np.concatenate([sub_ss, sub_hh])
    for u, v in g.edges_sh:
        full[u] += 1
        full[g.n_sym + v] += 1
    return sub_ss, sub_hh, full
