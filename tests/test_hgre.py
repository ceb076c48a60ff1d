import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmash import dataio, hgre, tape
from fmash.dataio import HeteroGraph, build_graph, generate_synthetic, split_dataset
from fmash.hgre import (HgreParams, SsmParams, bidirectional_block,
                        degree_permutation, gcn_forward, hgre_forward,
                        normalized_adjacency, ssm_scan, subgraph_enhance)
from fmash.nn import Linear, stage_rng
from fmash.tape import Tensor

from degree_oracle import loop_degrees, loop_degrees_of_graph
from gradcheck import as_float64, max_relative_error
from memory_probe import hgre_peak


def _identity_gcn(d, rng):
    p = Linear(d, d, rng)
    p.weight.data = np.eye(d)
    p.bias.data = np.zeros(d)
    return p


def _zero_merge(params: SsmParams) -> SsmParams:
    params.merge.weight.data[:] = 0.0
    params.merge.bias.data[:] = 0.0
    return params


# ---------------------------------------------------------------------------
# GCN
# ---------------------------------------------------------------------------

def test_gcn_no_edges_identity_params_is_identity():
    rng = stage_rng(0, "t")
    x = np.random.default_rng(0).normal(size=(5, 3))
    p = _identity_gcn(3, rng)
    # A_hat = I and W = I, so the layer reduces to its self path plus a relu
    out = gcn_forward(x, np.zeros((0, 2), dtype=int), p)
    np.testing.assert_array_equal(out.data, x + np.maximum(x, 0.0))


def test_gcn_two_node_hand_value():
    rng = stage_rng(0, "t")
    p = _identity_gcn(2, rng)
    out = gcn_forward(np.eye(2), np.array([[0, 1]]), p)
    # A_hat averages the two rows; the self path keeps each node's own
    np.testing.assert_allclose(out.data, [[1.5, 0.5], [0.5, 1.5]], atol=1e-15)


def test_gcn_permutation_equivariance_12_nodes():
    rng = np.random.default_rng(21)
    n, d = 12, 6
    x = rng.normal(size=(n, d))
    edges = np.array([(j, i) for i in range(1, n) for j in range(i - 1)])
    p = Linear(d, d, stage_rng(3, "gcn"))
    out = gcn_forward(x, edges, p).data

    pi = rng.permutation(n)          # node i becomes pi[i]
    edges_pi = pi[edges]
    x_pi = np.empty_like(x)
    x_pi[pi] = x
    out_pi = gcn_forward(x_pi, edges_pi, p).data
    np.testing.assert_allclose(out_pi[pi], out, atol=1e-10)


def test_normalized_adjacency_symmetric():
    a = normalized_adjacency(4, np.array([[0, 1], [1, 2], [2, 3]]))
    np.testing.assert_allclose(a, a.T)


def _dense_normalized_adjacency(n, edges):
    """The dense construction ``normalized_adjacency`` replaced: a float64
    A + I, its row sums, then the whole matrix scaled rows then columns."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    adj = np.eye(n)
    adj[edges[:, 0], edges[:, 1]] = 1.0
    adj[edges[:, 1], edges[:, 0]] = 1.0
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1))
    adj *= inv_sqrt[:, None]
    adj *= inv_sqrt[None, :]
    return adj


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, edges", [
    (7, [[0, 1], [1, 0], [0, 1], [2, 2], [3, 4], [4, 3], [2, 3]]),  # 5, 6 isolated
    (4, np.zeros((0, 2), dtype=int)),
    (30, np.random.default_rng(3).integers(0, 30, size=(80, 2))),
    (40, np.random.default_rng(3).integers(0, 30, size=(80, 2))),   # 30-39 isolated
    (300, np.random.default_rng(4).integers(0, 300, size=(3000, 2))),
], ids=["duplicates-self-loops-isolated", "no-edges", "random-30", "random-30-of-40",
        "random-300"])
def test_normalized_adjacency_has_the_bits_of_the_dense_construction(n, edges, dtype):
    """Rounded to ``dtype``, bit for bit, whatever the edge list repeats."""
    got = normalized_adjacency(n, edges, dtype)
    assert got.dtype == dtype
    assert got.tobytes() == _dense_normalized_adjacency(n, edges).astype(dtype).tobytes()


@pytest.mark.parametrize("bad", [-1, -12, 5, 9])
def test_gcn_rejects_an_endpoint_outside_the_nodes(bad):
    """A negative endpoint would otherwise index from the end."""
    p = Linear(3, 3, stage_rng(0, "t"))
    with pytest.raises(ValueError, match=f"edge endpoint {bad} out of range for 5 nodes"):
        gcn_forward(np.ones((5, 3)), np.array([[0, 1], [bad, 2]]), p)


def test_gcn_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
    p = as_float64(Linear(4, 4, stage_rng(5, "gcn.grad")))
    probe = rng.normal(size=(5, 4))

    def loss():
        return (gcn_forward(x, edges, p) * probe).sum()

    assert max_relative_error(loss, [x, p.weight, p.bias]) < 1e-4


# ---------------------------------------------------------------------------
# degree permutation
# ---------------------------------------------------------------------------

def test_degree_permutation_examples():
    p = degree_permutation(np.array([3, 1, 2]))
    np.testing.assert_array_equal(p.perm, [0, 2, 1])
    p = degree_permutation(np.array([5, 5, 5, 5]))
    np.testing.assert_array_equal(p.perm, np.arange(4))


def test_degree_permutation_matches_stable_sort_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        deg = rng.integers(0, 6, size=15)
        p = degree_permutation(deg)
        oracle = sorted(range(15), key=lambda i: (-deg[i], i))
        np.testing.assert_array_equal(p.perm, oracle)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_sort_unsort_identity(degrees):
    p = degree_permutation(np.array(degrees))
    m = np.random.default_rng(0).normal(size=(len(degrees), 3))
    np.testing.assert_array_equal(m[p.perm][p.inverse], m)
    np.testing.assert_array_equal(p.perm[p.inverse], np.arange(len(degrees)))


# ---------------------------------------------------------------------------
# selective scan
# ---------------------------------------------------------------------------

def test_scan_zero_input_zero_biases_gives_zero():
    params = SsmParams(4, stage_rng(2, "ssm"), d_state=3)
    params.gate.bias.data[:] = 0.0
    params.fwd.dt_bias.data[:] = 0.0
    out = ssm_scan(np.zeros((6, 4)), params, "forward")
    np.testing.assert_array_equal(out.data, np.zeros((6, 4)))


def test_scan_forward_causality_exact():
    params = SsmParams(5, stage_rng(3, "ssm"), d_state=4)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(7, 5))
    y = ssm_scan(x, params, "forward").data
    x2 = x.copy()
    x2[-1] += 3.0
    y2 = ssm_scan(x2, params, "forward").data
    np.testing.assert_array_equal(y[:-1], y2[:-1])
    assert not np.array_equal(y[-1], y2[-1])


def test_scan_backward_causality_exact():
    params = SsmParams(5, stage_rng(3, "ssm"), d_state=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 5))
    y = ssm_scan(x, params, "backward").data
    x2 = x.copy()
    x2[0] += 3.0
    y2 = ssm_scan(x2, params, "backward").data
    np.testing.assert_array_equal(y[1:], y2[1:])


def test_scan_single_step_matches_unrolled_oracle():
    d, n = 3, 2
    params = SsmParams(d, stage_rng(6, "ssm"), d_state=n)
    x = np.random.default_rng(6).normal(size=(1, d))
    out = ssm_scan(x, params, "forward").data[0]

    r = params.dt_rank
    proj = x[0] @ params.fwd.x_proj.data
    delta = np.logaddexp(0.0, proj[:r] @ params.fwd.dt_weight.data
                         + params.fwd.dt_bias.data)
    b_in, c_out = proj[r:r + n], proj[r + n:]
    h = delta[:, None] * b_in[None, :] * x[0][:, None]   # no history at L=1
    y = (h * c_out[None, :]).sum(axis=1)
    z = x[0] @ params.gate.weight.data + params.gate.bias.data
    expected = y * (z / (1.0 + np.exp(-z)))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def _looped_scan(x, params, direction):
    """``ssm_scan`` in plain numpy, one timestep at a time."""
    dirp = params.fwd if direction == "forward" else params.bwd
    if direction == "backward":
        x = np.flip(x, 0).copy()
    L, d = x.shape
    n, r = params.d_state, params.dt_rank
    proj = x @ dirp.x_proj.data
    u = proj[:, :r] @ dirp.dt_weight.data + dirp.dt_bias.data
    delta = np.log1p(np.exp(-np.abs(u))) + np.maximum(u, 0.0)    # softplus
    b_in, c_out = proj[:, r:r + n], proj[:, r + n:]
    a = -np.exp(dirp.a_log.data)
    h = np.zeros((d, n))
    ys = []
    for t in range(L):
        dt_t = delta[t].reshape(d, 1)
        a_bar = np.exp(dt_t * a)
        b_bar_x = dt_t * b_in[t].reshape(1, n) * x[t].reshape(d, 1)
        h = a_bar * h + b_bar_x
        ys.append((h * c_out[t].reshape(1, n)).sum(axis=1))
    z = x @ params.gate.weight.data + params.gate.bias.data
    e = np.exp(-np.abs(z))
    sigmoid = np.where(z >= 0, 1.0, e) / (1.0 + e)
    gated = np.stack(ys) * (z * sigmoid)
    return np.flip(gated, 0) if direction == "backward" else gated


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_scan_matches_per_timestep_loop_exactly(direction):
    """Long enough for the output's row blocks to end mid-block."""
    params = SsmParams(5, stage_rng(7, "ssm"), d_state=4)
    x = np.random.default_rng(7).normal(size=(2 * tape._SCAN_ROWS + 5, 5))
    np.testing.assert_array_equal(ssm_scan(x, params, direction).data,
                                  _looped_scan(x, params, direction))


# ---------------------------------------------------------------------------
# bidirectional block
# ---------------------------------------------------------------------------

def test_zero_merge_block_is_identity():
    params = _zero_merge(SsmParams(4, stage_rng(8, "ssm"), d_state=3))
    x = np.random.default_rng(8).normal(size=(5, 4))
    np.testing.assert_array_equal(bidirectional_block(x, params).data, x)


def test_block_deterministic():
    params = SsmParams(4, stage_rng(9, "ssm"), d_state=3)
    x = np.random.default_rng(9).normal(size=(5, 4))
    a = bidirectional_block(x, params).data
    b = bidirectional_block(x, params).data
    np.testing.assert_array_equal(a, b)


def test_block_single_position_branches_agree():
    params = SsmParams(4, stage_rng(10, "ssm"), d_state=3)
    x = np.random.default_rng(10).normal(size=(1, 4))
    f = ssm_scan(x, params, "forward").data
    b = ssm_scan(x, params, "backward").data
    # same single-step input; branches differ only through their own params
    params.bwd.load_state_dict(params.fwd.state_dict())
    b_tied = ssm_scan(x, params, "backward").data
    np.testing.assert_allclose(f, b_tied, atol=1e-12)
    assert f.shape == b.shape == (1, 4)


def test_block_gradients_match_finite_differences():
    params = as_float64(SsmParams(3, stage_rng(11, "ssm"), d_state=2))
    x = Tensor(np.random.default_rng(11).normal(size=(4, 3)), requires_grad=True)
    probe = np.random.default_rng(12).normal(size=(4, 3))

    def loss():
        return (bidirectional_block(x, params) * probe).sum()

    assert max_relative_error(loss, [x] + params.parameters()) < 1e-4


def _graph_size(out: Tensor) -> int:
    seen, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def test_block_records_the_same_graph_at_any_length():
    params = SsmParams(4, stage_rng(11, "ssm"), d_state=3)
    rng = np.random.default_rng(13)
    sizes = [_graph_size(bidirectional_block(rng.normal(size=(L, 4)), params))
             for L in (5, 60)]
    assert sizes[0] == sizes[1]


# ---------------------------------------------------------------------------
# subgraph enhancement and the full pass
# ---------------------------------------------------------------------------

def test_zero_merge_enhance_equals_gcn_output():
    rng = stage_rng(12, "t")
    gcn = Linear(4, 4, rng)
    ssm = _zero_merge(SsmParams(4, rng, d_state=2))
    x = np.random.default_rng(13).normal(size=(6, 4))
    edges = np.array([[0, 1], [2, 3], [4, 5], [1, 2]])
    out = subgraph_enhance(x, edges, gcn, ssm)
    expected = gcn_forward(x, edges, gcn)
    np.testing.assert_array_equal(out.data, expected.data)


def test_single_node_subgraph():
    rng = stage_rng(13, "t")
    gcn = Linear(3, 3, rng)
    ssm = SsmParams(3, rng, d_state=2)
    x = np.random.default_rng(14).normal(size=(1, 3))
    out = subgraph_enhance(x, np.zeros((0, 2), dtype=int), gcn, ssm)
    expected = bidirectional_block(gcn_forward(x, np.zeros((0, 2), dtype=int), gcn), ssm)
    np.testing.assert_array_equal(out.data, expected.data)


def _toy_graph(n_sym=3, n_herb=4):
    return HeteroGraph(
        n_sym=n_sym, n_herb=n_herb,
        edges_ss=np.array([[0, 1], [1, 2]]),
        edges_hh=np.array([[0, 1], [0, 2], [1, 3]]),
        edges_sh=np.array([[0, 0], [1, 2], [2, 3]]))


def test_hgre_output_shape():
    g = _toy_graph()
    params = HgreParams(d=5, seed=1, d_state=2)
    x = np.random.default_rng(16).normal(size=(7, 5))
    assert hgre_forward(x, g, params).shape == (7, 5)


def test_hgre_degenerate_graph_reduces_to_gcn_chain():
    g = HeteroGraph(n_sym=3, n_herb=3,
                    edges_ss=np.zeros((0, 2), dtype=int),
                    edges_hh=np.zeros((0, 2), dtype=int),
                    edges_sh=np.zeros((0, 2), dtype=int))
    params = HgreParams(d=4, seed=2, d_state=2)
    for ssm in (params.ssm_sym, params.ssm_herb, params.ssm_global):
        _zero_merge(ssm)
    x = np.random.default_rng(17).normal(size=(6, 4))
    out = hgre_forward(x, g, params).data
    def gcn(a, p):    # no edges: A_hat = I
        return a + np.maximum(a @ p.weight.data + p.bias.data, 0.0)

    stage1 = np.concatenate([gcn(x[:3], params.gcn_sym), gcn(x[3:], params.gcn_herb)])
    expected = gcn(stage1, params.gcn_global)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def _random_graph(seed):
    rng = np.random.default_rng(seed)
    n_sym, n_herb = rng.integers(1, 9, size=2)

    def pairs(n_u, n_v, p, within):
        return np.array([(u, v) for u in range(n_u) for v in range(n_v)
                         if (u < v or not within) and rng.random() < p],
                        dtype=np.int64).reshape(-1, 2)

    return HeteroGraph(n_sym=int(n_sym), n_herb=int(n_herb),
                       edges_ss=pairs(n_sym, n_sym, 0.4, True),
                       edges_hh=pairs(n_herb, n_herb, 0.4, True),
                       edges_sh=pairs(n_sym, n_herb, 0.3, False))


def _empty_edges():
    return np.zeros((0, 2), dtype=int)


VISIT_ORDER_GRAPHS = {
    "no_edges": HeteroGraph(n_sym=3, n_herb=4, edges_ss=_empty_edges(),
                            edges_hh=_empty_edges(), edges_sh=_empty_edges()),
    "single_nodes": HeteroGraph(n_sym=1, n_herb=1, edges_ss=_empty_edges(),
                                edges_hh=_empty_edges(), edges_sh=np.array([[0, 0]])),
    **{f"random_{seed}": _random_graph(seed) for seed in range(30, 36)},
}


@pytest.mark.parametrize("name", list(VISIT_ORDER_GRAPHS))
def test_visit_order_is_the_permutation_of_loop_counted_degrees(name, monkeypatch):
    """Each pass (symptoms, herbs, global) visits its nodes in
    ``degree_permutation`` order of the degrees counted edge by edge."""
    g = VISIT_ORDER_GRAPHS[name]
    calls = []

    def spy(degrees):
        p = degree_permutation(degrees)
        calls.append(p.perm)
        return p

    monkeypatch.setattr(hgre, "degree_permutation", spy)
    x = np.random.default_rng(19).normal(size=(g.n_sym + g.n_herb, 3))
    hgre_forward(x, g, HgreParams(d=3, seed=6, d_state=2))
    assert len(calls) == 3
    for got, oracle in zip(calls, loop_degrees_of_graph(g)):
        np.testing.assert_array_equal(got, degree_permutation(oracle).perm)


def test_enhance_rows_track_node_identity():
    """Relabeling nodes (features and edges) permutes output rows.

    The relabeling keeps every tie of degree in index order, so the
    relabeled run visits the same nodes in the same order.
    """
    rng = np.random.default_rng(15)
    n, d = 7, 4
    x = rng.normal(size=(n, d))
    edges = np.array([(j, i) for i in range(1, n) for j in range(i - 1)])
    gcn = Linear(d, d, stage_rng(14, "g"))
    ssm = SsmParams(d, stage_rng(14, "s"), d_state=2)
    out = subgraph_enhance(x, edges, gcn, ssm).data

    pi = _tie_respecting_permutation(rng, [(int(k),) for k in loop_degrees(n, edges)])
    assert not np.array_equal(pi, np.arange(n))
    x_pi = np.empty_like(x)
    x_pi[pi] = x
    out_pi = subgraph_enhance(x_pi, pi[edges], gcn, ssm).data
    np.testing.assert_allclose(out_pi[pi], out, atol=1e-9)


def _tie_respecting_permutation(rng, keys: list[tuple]) -> np.ndarray:
    """A relabeling that keeps the relative order of nodes tied in any sort
    key, so the stable tie-break by index orders them identically before
    and after relabeling.  (Every simple graph has ties by pigeonhole.)
    """
    n = len(keys)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for axis in range(len(keys[0])):
        groups: dict = {}
        for i, k in enumerate(keys):
            groups.setdefault(k[axis], []).append(i)
        for members in groups.values():
            for other in members[1:]:
                parent[find(other)] = find(members[0])
    class_rank = {}
    for i in range(n):
        root = find(i)
        if root not in class_rank:
            class_rank[root] = rng.random()
    order = sorted(range(n), key=lambda i: (class_rank[find(i)], i))
    pi = np.empty(n, dtype=int)
    pi[order] = np.arange(n)
    return pi


def test_hgre_equivariant_to_type_preserving_relabeling():
    rng = np.random.default_rng(18)
    n_sym, n_herb, d = 5, 7, 4
    g = HeteroGraph(
        n_sym=n_sym, n_herb=n_herb,
        edges_ss=np.array([[0, 1], [0, 2], [0, 3], [1, 2]]),
        edges_hh=np.array([[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3],
                           [2, 3], [5, 6]]),
        edges_sh=np.array([[0, 0], [1, 0], [2, 1], [3, 2], [4, 5], [0, 6], [2, 2]]))
    n = n_sym + n_herb
    x = rng.normal(size=(n, d))
    params = HgreParams(d=d, seed=3, d_state=2)
    out = hgre_forward(x, g, params).data

    sub_ss, sub_hh, full = loop_degrees_of_graph(g)
    sym_keys = [(int(sub_ss[i]), int(full[i])) for i in range(n_sym)]
    herb_keys = [(int(sub_hh[i]), int(full[n_sym + i])) for i in range(n_herb)]
    pi_sym = _tie_respecting_permutation(rng, sym_keys)
    pi_herb = _tie_respecting_permutation(rng, herb_keys)
    pi = np.concatenate([pi_sym, n_sym + pi_herb])
    assert not np.array_equal(pi, np.arange(n))

    x_pi = np.empty_like(x)
    x_pi[pi] = x
    g_pi = HeteroGraph(
        n_sym=n_sym, n_herb=n_herb,
        edges_ss=np.sort(pi_sym[g.edges_ss], axis=1),
        edges_hh=np.sort(pi_herb[g.edges_hh], axis=1),
        edges_sh=np.stack([pi_sym[g.edges_sh[:, 0]],
                           pi_herb[g.edges_sh[:, 1]]], axis=1))
    out_pi = hgre_forward(x_pi, g_pi, params).data
    np.testing.assert_allclose(out_pi[pi], out, atol=1e-9)


def test_hgre_gradients_match_finite_differences():
    g = _toy_graph()
    params = as_float64(HgreParams(d=4, seed=4, d_state=2))
    x = Tensor(np.random.default_rng(20).normal(size=(7, 4)), requires_grad=True)
    probe = np.random.default_rng(21).normal(size=(7, 4))

    def loss():
        return (hgre_forward(x, g, params) * probe).sum()

    assert max_relative_error(loss, [x] + params.parameters()) < 1e-4


def test_hgre_param_construction_deterministic():
    a = HgreParams(d=4, seed=5, d_state=2).state_dict()
    b = HgreParams(d=4, seed=5, d_state=2).state_dict()
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_hgre_keeps_within_cluster_nodes_apart_on_the_acceptance_corpus():
    """On the acceptance corpus every syndrome's symptoms and herbs co-occur
    densely enough to form cliques, over which a GCN without a self path
    gives every node the same row up to float32 rounding (cosine > 0.999
    for all 330 within-cluster herb pairs).  With the self path no two
    nodes of one cluster come out alike."""
    symptoms, herbs, prescriptions = generate_synthetic(40, 60, 5, 200, seed=7)
    split = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=42)
    graph = build_graph(split.train, 40, 60, tau_s=2, tau_h=2)
    x = stage_rng(42, "init_features").normal(size=(100, 64)).astype(np.float32)
    out = hgre_forward(Tensor(x), graph, HgreParams(64, 42, d_state=16)).data
    for offset, n, kind in ((0, 40, "symptom"), (40, 60, "herb")):
        for block in dataio._cluster_blocks(n, 5):   # the generator's syndromes
            rows = out[offset + block]
            unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            for i, j in zip(*np.triu_indices(len(block), k=1)):
                assert not np.allclose(rows[i], rows[j], rtol=0.0, atol=1e-4), \
                    f"{kind}s {block[i]} and {block[j]}"
                assert unit[i] @ unit[j] < 0.9, f"{kind}s {block[i]} and {block[j]}"


def test_untrained_pass_at_full_scale_stays_within_its_memory(full_scale_corpus):
    """Phase 1's HGRE pass (under ``no_grad``) on the full-scale benchmark
    corpus's graph, 1200 nodes of 64 features, peaks at 7.46 MiB
    (``tests/memory_probe.py``); the bound adds 10%, as the ranked head's
    does.  With a dense float64 adjacency, its float32 copy and the scan's
    whole (L, d, n) arrays it peaked at 22.5 MiB; with the adjacency scaled
    out of place as well (two more 1200 x 1200 float64 arrays) and the
    scan's output contracted in one (L, d, n) product, at 33.9 MiB."""
    _, _, prescriptions = full_scale_corpus
    graph = build_graph(prescriptions, 400, 800, tau_s=2, tau_h=2)
    assert hgre_peak(graph) < 1.1 * 7.46 * 2 ** 20
