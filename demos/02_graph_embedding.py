#!/usr/bin/env python3
"""Walk through the graph-embedding stage on a small graph.

Each homogeneous subgraph is smoothed by a GCN with a self path, serialized
into a sequence by descending degree, run through a bidirectional gated
selective scan, and scattered back to node order; the full graph then gets
the same treatment once more.  The script shows the pieces: the normalized adjacency, the
degree ordering, scan causality, and the residual structure of the block.
"""

import numpy as np

from fmash.dataio import build_graph, generate_synthetic
from fmash.hgre import (HgreParams, SsmParams, bidirectional_block,
                        degree_permutation, gcn_forward, hgre_forward,
                        normalized_adjacency, ssm_scan)
from fmash.nn import stage_rng
from fmash.tape import Tensor

rng = np.random.default_rng(0)

print("-- GCN normalization --")
a_hat = normalized_adjacency(3, np.array([[0, 1], [1, 2]]))
print("D^(-1/2)(A+I)D^(-1/2) for a 3-node path:")
print(np.round(a_hat, 3))

print("\n-- degree-ordered serialization --")
degrees = np.array([3, 1, 2, 1, 5])
p = degree_permutation(degrees)
print(f"degrees {degrees.tolist()} -> visit order {p.perm.tolist()} "
      f"(descending, ties by index)")
m = rng.normal(size=(5, 2))
assert np.array_equal(m[p.perm][p.inverse], m)
print("sort followed by unsort restores the original rows exactly")

print("\n-- selective scan causality --")
ssm = SsmParams(4, stage_rng(1, "demo.ssm"), d_state=4)
x = rng.normal(size=(6, 4))
y = ssm_scan(x, ssm, "forward").data
x2 = x.copy()
x2[-1] += 10.0
y2 = ssm_scan(x2, ssm, "forward").data
print(f"perturbing the last input changes the last output by "
      f"{np.abs(y - y2)[-1].max():.3f}")
print(f"while outputs 1..L-1 move by {np.abs(y - y2)[:-1].max():.1e} (exactly 0)")

print("\n-- bidirectional block is residual --")
block_out = bidirectional_block(x, ssm).data
print(f"input norm {np.linalg.norm(x):.2f}, output norm "
      f"{np.linalg.norm(block_out):.2f}")
ssm.merge.weight.data[:] = 0.0
ssm.merge.bias.data[:] = 0.0
assert np.array_equal(bidirectional_block(x, ssm).data, x)
print("with the merge projection zeroed the block is the identity")

print("\n-- full hierarchical pass --")
symptoms, herbs, prescriptions = generate_synthetic(15, 20, 3, 80, seed=3,
                                                    unique_symptom_sets=False)
graph = build_graph(prescriptions, 15, 20, tau_s=2, tau_h=2)
params = HgreParams(d=32, seed=5, d_state=8)
features = stage_rng(5, "demo.features").normal(size=(35, 32))
out = hgre_forward(Tensor(features), graph, params)
print(f"input {features.shape} -> embedded {out.shape}")

# untrained, the smoothing pulls nodes of one planted cluster only slightly
# closer: the self path keeps each node's own random features
emb = out.data[15:]          # herb rows
def mean_dist(pairs):
    return np.mean([np.linalg.norm(emb[i] - emb[j]) for i, j in pairs])
same = [(i, j) for i in range(20) for j in range(i + 1, 20) if i // 7 == j // 7]
diff = [(i, j) for i in range(20) for j in range(i + 1, 20) if i // 7 != j // 7]
print(f"mean herb-herb distance within cluster {mean_dist(same):.2f} "
      f"vs across {mean_dist(diff):.2f}")
