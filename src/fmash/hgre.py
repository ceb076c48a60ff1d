"""Heterogeneous graph embedding.

Each homogeneous subgraph is smoothed by one GCN layer, serialized into a
sequence by sorting nodes on their degree, run through a bidirectional
selective-scan block, and scattered back to node order.  The GCN layer adds
its input to the smoothed rows, so a node keeps its own features even where
its neighbourhood is a clique whose normalized rows are all alike.  The two
enhanced blocks are then re-assembled in the global symptom-then-herb order
and the same treatment is applied once more over the full edge set.  Every
pass counts its degrees from the edges it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import HeteroGraph
from .errors import NumericError
from .nn import Linear, Module, parameter, stage_rng
from .tape import Tensor, concat, linear, selective_scan

# ---------------------------------------------------------------------------
# GCN
# ---------------------------------------------------------------------------

def normalized_adjacency(n: int, edges: np.ndarray,
                         dtype: np.dtype = np.float64) -> np.ndarray:
    """Symmetric normalization with self-loops, D^(-1/2) (A + I) D^(-1/2),
    as an n x n array of ``dtype``.  Degrees count a boolean n x n mask, and
    each nonzero ``inv_sqrt[r] * inv_sqrt[c]`` is computed in float64 and
    then rounded to ``dtype``: the bits of the dense float64 product rounded
    to ``dtype``, while the only n x n float array that forms is the result."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    mask = np.eye(n, dtype=bool)
    mask[edges[:, 0], edges[:, 1]] = True
    mask[edges[:, 1], edges[:, 0]] = True
    inv_sqrt = 1.0 / np.sqrt(mask.sum(axis=1, dtype=np.float64))
    rows, cols = np.nonzero(mask)
    del mask                              # freed before the result forms
    adj = np.zeros((n, n), dtype=dtype)
    adj[rows, cols] = inv_sqrt[rows] * inv_sqrt[cols]
    return adj


def gcn_forward(x: Tensor | np.ndarray, edges: np.ndarray,
                params: Linear) -> Tensor:
    """One GCN layer with a self path: x + relu(A_hat x W + b), A_hat from
    ``normalized_adjacency`` in ``x``'s dtype."""
    x = Tensor.ensure(x)
    n = x.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = edges[(edges < 0) | (edges >= n)]
    if bad.size:
        raise ValueError(f"edge endpoint {bad[0]} out of range for {n} nodes")
    a_hat = Tensor(normalized_adjacency(n, edges, x.data.dtype))
    return x + params(a_hat @ x).relu()


# ---------------------------------------------------------------------------
# degree-ordered serialization
# ---------------------------------------------------------------------------

@dataclass
class DegreePermutation:
    perm: np.ndarray      # node id at each sorted position
    inverse: np.ndarray   # sorted position of each node id


def degree_permutation(degrees: np.ndarray) -> DegreePermutation:
    """Descending degree; ties broken by ascending node index."""
    degrees = np.asarray(degrees)
    perm = np.argsort(-degrees, kind="stable")
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return DegreePermutation(perm=perm, inverse=inverse)


# ---------------------------------------------------------------------------
# selective scan
# ---------------------------------------------------------------------------

class SsmDirection(Module):
    """One scan direction: diagonal negative-real state matrix plus the
    projections that produce the input-dependent step size and B/C."""

    def __init__(self, d: int, d_state: int, dt_rank: int, rng: np.random.Generator):
        # log-spaced diagonal per channel, kept negative through -exp(.)
        a = np.tile(np.arange(1, d_state + 1, dtype=np.float64), (d, 1))
        self.a_log = parameter(np.log(a))
        self.x_proj = parameter(rng.normal(0.0, 1.0 / math.sqrt(d),
                                           size=(d, dt_rank + 2 * d_state)))
        self.dt_weight = parameter(rng.normal(0.0, 1.0 / math.sqrt(dt_rank),
                                              size=(dt_rank, d)))
        # bias chosen so softplus(bias) lands in a useful step-size range
        dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=d))
        self.dt_bias = parameter(dt + np.log(-np.expm1(-dt)))


class SsmParams(Module):
    def __init__(self, d: int, rng: np.random.Generator, d_state: int):
        self.d_state = d_state
        self.dt_rank = max(1, math.ceil(d / 16))
        self.fwd = SsmDirection(d, d_state, self.dt_rank, rng)
        self.bwd = SsmDirection(d, d_state, self.dt_rank, rng)
        self.gate = Linear(d, d, rng)
        self.merge = Linear(2 * d, d, rng, scale=0.5 / math.sqrt(2 * d))


def ssm_scan(seq: Tensor | np.ndarray, params: SsmParams,
             direction: str = "forward") -> Tensor:
    """Gated selective scan along one direction of an (L, d) sequence.

    Recurrence per channel with diagonal state: h_t = exp(dt_t * A) * h_{t-1}
    + (dt_t * B_t) * x_t and y_t = <C_t, h_t>, with dt_t kept positive by a
    softplus.  The block gate silu(W_g x + b_g) multiplies the scan output.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown scan direction {direction!r}")
    x = Tensor.ensure(seq)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("ssm_scan expects an (L, d) sequence with L >= 1")
    if direction == "backward":
        x = x[::-1]
    dirp = params.fwd if direction == "forward" else params.bwd
    n, r = params.d_state, params.dt_rank

    proj = x @ dirp.x_proj                       # (L, r + 2n)
    delta = linear(proj[:, :r], dirp.dt_weight, dirp.dt_bias).softplus()  # (L, d) > 0
    b_in = proj[:, r:r + n]                      # (L, n)
    c_out = proj[:, r + n:]                      # (L, n)
    a = -dirp.a_log.exp()                        # (d, n), strictly negative

    y = selective_scan(delta, a, b_in, c_out, x)  # (L, d)
    gated = y * params.gate(x).silu()
    if not np.isfinite(gated.data).all():
        raise NumericError("non-finite values in selective scan output")
    if direction == "backward":
        gated = gated[::-1]
    return gated


def bidirectional_block(seq: Tensor | np.ndarray, params: SsmParams) -> Tensor:
    """Forward and backward scans merged by a learned projection, with a
    residual connection around the block."""
    x = Tensor.ensure(seq)
    fwd = ssm_scan(x, params, "forward")
    bwd = ssm_scan(x, params, "backward")
    merged = params.merge(concat([fwd, bwd], axis=1))
    return x + merged


# ---------------------------------------------------------------------------
# subgraph and full-graph enhancement
# ---------------------------------------------------------------------------

def subgraph_enhance(x_s: Tensor | np.ndarray, edges_s: np.ndarray,
                     gcn: Linear, ssm: SsmParams) -> Tensor:
    """GCN, serialize by degree order, bidirectional scan, scatter back; a
    node's degree is its count of endpoints in ``edges_s``."""
    smoothed = gcn_forward(x_s, edges_s, gcn)
    endpoints = np.asarray(edges_s, dtype=np.intp).ravel()
    p = degree_permutation(np.bincount(endpoints, minlength=smoothed.shape[0]))
    enhanced = bidirectional_block(smoothed[p.perm], ssm)
    return enhanced[p.inverse]


class HgreParams(Module):
    """Parameter bundle: one GCN + scan block per subgraph plus the global
    pair; the global scan gets a doubled state size."""

    def __init__(self, d: int, seed: int, d_state: int):
        self.gcn_sym = Linear(d, d, stage_rng(seed, "hgre.gcn.sym"))
        self.gcn_herb = Linear(d, d, stage_rng(seed, "hgre.gcn.herb"))
        self.gcn_global = Linear(d, d, stage_rng(seed, "hgre.gcn.global"))
        self.ssm_sym = SsmParams(d, stage_rng(seed, "hgre.ssm.sym"), d_state=d_state)
        self.ssm_herb = SsmParams(d, stage_rng(seed, "hgre.ssm.herb"), d_state=d_state)
        self.ssm_global = SsmParams(d, stage_rng(seed, "hgre.ssm.global"),
                                    d_state=2 * d_state)


def hgre_forward(x: Tensor | np.ndarray, graph: HeteroGraph,
                 params: HgreParams) -> Tensor:
    """Full hierarchical pass; rows are symptoms then herbs throughout."""
    s = graph.n_sym
    if x.shape[0] != s + graph.n_herb:
        raise ValueError("feature row count does not match the graph")
    enh_sym = subgraph_enhance(x[:s], graph.edges_ss, params.gcn_sym, params.ssm_sym)
    enh_herb = subgraph_enhance(x[s:], graph.edges_hh, params.gcn_herb, params.ssm_herb)
    edges = np.concatenate([graph.edges_ss, graph.edges_hh + s, graph.edges_sh + (0, s)])
    return subgraph_enhance(concat([enh_sym, enh_herb], axis=0), edges,
                            params.gcn_global, params.ssm_global)
