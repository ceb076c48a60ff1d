"""Finite-difference certification of every autodiff primitive."""

import tracemalloc

import numpy as np
import pytest

from fmash import tape
from fmash.errors import NumericError
from fmash.nn import (NEG_INF, Adam, LayerNorm, Linear, MultiHeadAttention, causal_bias,
                      fit, key_mask_bias, sinusoidal_positions, stage_rng)
from fmash.tape import (Tensor, concat, feed_forward, linear_bce,
                        linear_cross_entropy, selective_scan, softmax)
from gradcheck import as_float64, max_relative_error
from memory_probe import mallinfo2

RTOL = 1e-6


def _leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _log_softmax(x):
    """Log-softmax over the last axis in numpy: the reference for the fused
    loss."""
    shift = x - x.max(axis=-1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / (b + 3.0),
    lambda a, b: (a * b + a - b) * 0.5,
])
def test_binary_elementwise_grads(op):
    rng = np.random.default_rng(0)
    a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
    assert max_relative_error(lambda: op(a, b).sum(), [a, b]) < RTOL


def test_broadcasting_grads():
    rng = np.random.default_rng(1)
    a = _leaf(rng, 3, 4)
    b = _leaf(rng, 4)
    c = _leaf(rng, 3, 1)

    def loss():
        y = a * b + c
        return (y * y).sum()

    assert max_relative_error(loss, [a, b, c]) < RTOL


def test_matmul_grads():
    rng = np.random.default_rng(2)
    a, b = _leaf(rng, 3, 5), _leaf(rng, 5, 2)
    assert max_relative_error(lambda: (a @ b).sum(), [a, b]) < RTOL


def test_batched_matmul_grads():
    rng = np.random.default_rng(3)
    a = _leaf(rng, 2, 3, 4, 5)
    b = _leaf(rng, 2, 3, 5, 4)
    shared = _leaf(rng, 5, 2)
    loss = lambda: ((a @ b).sum() + (a @ shared).sum())
    assert max_relative_error(loss, [a, b, shared]) < RTOL


@pytest.mark.parametrize("a_shape,b_shape", [
    ((3, 4, 5), (5, 2)),        # activations @ weight: weight grad folds rows
    ((2, 3, 4, 5), (5, 2)),
    ((4, 5), (3, 5, 2)),
])
def test_matmul_grads_with_one_2d_operand(a_shape, b_shape):
    rng = np.random.default_rng(15)
    a, b = _leaf(rng, *a_shape), _leaf(rng, *b_shape)
    target = rng.normal(size=np.broadcast_shapes(a_shape[:-1] + (1,),
                                                 b_shape[:-2] + (1, b_shape[-1])))
    assert max_relative_error(lambda: ((a @ b) * target).sum(), [a, b]) < RTOL


@pytest.mark.parametrize("fn", [
    lambda x: x.exp(),
    lambda x: x.sigmoid(),
    lambda x: x.softplus(),
    lambda x: x.silu(),
])
def test_unary_grads(fn):
    rng = np.random.default_rng(4)
    x = _leaf(rng, 4, 3)
    assert max_relative_error(lambda: fn(x).sum(), [x]) < RTOL


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 3)) + np.sign(rng.normal(size=(4, 3))) * 0.5,
               requires_grad=True)
    assert max_relative_error(lambda: (x.relu() * x).sum(), [x]) < RTOL


def test_reductions_and_shapes():
    rng = np.random.default_rng(6)
    x = _leaf(rng, 3, 4, 5)

    def loss():
        a = x.sum(axis=1)
        b = x.sum(axis=0).sum(axis=1)
        c = x.reshape(12, 5).transpose(1, 0)
        return (a * a).sum() + (b * b).sum() + c.mean()

    assert max_relative_error(loss, [x]) < RTOL


def test_getitem_grads():
    rng = np.random.default_rng(7)
    x = _leaf(rng, 6, 3)
    idx = np.array([0, 2, 2, 5])

    def loss():
        rows = x[idx]          # duplicate index exercises scatter-add
        block = x[1:4, :2]
        row = x[2, 1:]
        return ((rows * rows).sum() + x[::-1].mean() + (block * block).sum()
                + (row * row * row).sum())

    assert max_relative_error(loss, [x]) < RTOL


@pytest.mark.parametrize("idx", [np.s_[1:4], np.s_[2, 1:], np.s_[:, 0], np.s_[None, ..., 1],
                                 np.s_[2, 1], np.array([0, 2, 2, 5]),
                                 (np.array([1, 1]), np.s_[:2]), np.arange(6) % 2 == 0])
def test_getitem_gradient_is_add_at_bit_for_bit(idx):
    """A basic index adds into the gradient's view, an integer-array or
    boolean one through ``np.add.at``: both give ``add.at``'s bits."""
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(6, 3)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=np.shape(x.data[idx])).astype(np.float32)
    x[idx].backward(g)
    want = np.zeros_like(x.data)
    np.add.at(want, idx, g)
    assert x.grad.dtype == want.dtype
    np.testing.assert_array_equal(x.grad.view(np.uint32), want.view(np.uint32))


def test_getitem_gradient_of_a_repeated_index_accumulates():
    x = Tensor(np.zeros((4, 2), dtype=np.float32), requires_grad=True)
    g = np.arange(8, dtype=np.float32).reshape(4, 2)
    x[np.array([3, 1, 3, 3])].backward(g)
    np.testing.assert_array_equal(x.grad, [[0, 0], [2, 3], [0, 0], [10, 13]])


@pytest.mark.parametrize("idx", [np.s_[1:4, :2], np.s_[2], np.s_[:, 1],
                                 np.array([0, 2, 2, 5]), (np.array([1, 3]), 0)])
def test_getitem_output_never_shares_memory_with_its_source(idx):
    x = Tensor(np.arange(18.0).reshape(6, 3), requires_grad=True)
    out = x[idx]
    assert not np.shares_memory(out.data, x.data)
    np.testing.assert_array_equal(out.data, x.data[idx])


def test_concat_grads():
    rng = np.random.default_rng(8)
    a, b = _leaf(rng, 2, 3), _leaf(rng, 4, 3)

    def loss():
        c = concat([a, b], axis=0)
        return (c * c).sum()

    assert max_relative_error(loss, [a, b]) < RTOL


def test_softmax_rows_sum_to_one_and_grads():
    rng = np.random.default_rng(9)
    x = _leaf(rng, 5, 7)
    s = softmax(x)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.log(s.data), _log_softmax(x.data), rtol=0.0, atol=1e-12)
    target = rng.normal(size=(5, 7))
    assert max_relative_error(lambda: (softmax(x) * target).sum(), [x]) < RTOL


def test_masked_cross_entropy_matches_log_softmax_pick():
    # ``linear_cross_entropy``: the sequence head's projection and loss
    rng = np.random.default_rng(16)
    x, w, b = _leaf(rng, 4, 5, 3), _leaf(rng, 3, 7), _leaf(rng, 7)
    targets = rng.integers(0, 7, size=(4, 5))
    mask = rng.random((4, 5)) > 0.4
    mask[1] = False                       # a row with nothing to score
    mask[0, 0] = True

    # the positions that count go in packed, as the sequence head passes them
    def loss_fn():
        return linear_cross_entropy(x[mask], w, b, targets[mask])

    loss = loss_fn()
    loss.backward()
    picked = np.take_along_axis(_log_softmax(x.data @ w.data + b.data),
                                targets[..., None], axis=-1)[..., 0]
    assert abs(loss.item() + picked[mask].mean()) < 1e-12
    assert np.all(x.grad[1] == 0.0)
    assert max_relative_error(loss_fn, [x, w, b]) < RTOL


def test_bce_with_logits_matches_naive():
    # ``linear_bce``: the ranked head's projection and loss
    rng = np.random.default_rng(10)
    x, w, b = _leaf(rng, 8, 3), _leaf(rng, 3, 4), _leaf(rng, 4)
    targets = (rng.random((8, 4)) > 0.5).astype(float)
    loss = linear_bce(x, w, b, targets)
    p = 1.0 / (1.0 + np.exp(-(x.data @ w.data + b.data)))
    naive = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
    assert abs(loss.item() - naive) < 1e-12
    assert max_relative_error(lambda: linear_bce(x, w, b, targets), [x, w, b]) < RTOL


def test_feed_forward_grads():
    rng = np.random.default_rng(11)
    x, w1, b1 = _leaf(rng, 2, 3, 4), _leaf(rng, 4, 6), _leaf(rng, 6)
    w2, b2 = _leaf(rng, 6, 4), _leaf(rng, 4)
    target = rng.normal(size=(2, 3, 4))
    assert max_relative_error(lambda: (feed_forward(x, w1, b1, w2, b2) * target).sum(),
                              [x, w1, b1, w2, b2]) < RTOL


SCAN_INPUTS = ("delta", "a", "b_in", "c_out", "x")


def _scan_values(rng, L, d, n, dtype=np.float64):
    values = {"delta": np.logaddexp(0.0, rng.normal(size=(L, d))),
              "a": -np.exp(rng.normal(size=(d, n))),
              "b_in": rng.normal(size=(L, n)),
              "c_out": rng.normal(size=(L, n)),
              "x": rng.normal(size=(L, d))}
    return {k: v.astype(dtype) for k, v in values.items()}


def _scan_grad_case(leaf):
    """The scan's loss against a random probe, with ``leaf`` ("all": every
    input) as leaves, over a sequence long enough for the state to carry
    over many steps."""
    rng = np.random.default_rng(12)
    L, d, n = 9, 3, 2
    values = _scan_values(rng, L, d, n)
    inputs = {k: Tensor(v, requires_grad=leaf in (k, "all")) for k, v in values.items()}
    probe = rng.normal(size=(L, d))

    def loss():
        return (selective_scan(*(inputs[k] for k in SCAN_INPUTS)) * probe).sum()

    return loss, [t for t in inputs.values() if t.requires_grad]


@pytest.mark.parametrize("leaf", SCAN_INPUTS + ("all",))
def test_selective_scan_grads(leaf):
    """Each of the scan's five inputs alone, then all together, as leaves."""
    loss, leaves = _scan_grad_case(leaf)
    assert max_relative_error(loss, leaves) < RTOL


@pytest.mark.parametrize("leaf", SCAN_INPUTS + ("all",))
def test_selective_scan_grads_across_forward_blocks(leaf, monkeypatch):
    """With blocks of 4 timesteps the 9-step forward runs in three blocks,
    which its backward joins: the gradients keep the bits of the one-block
    run and match finite differences."""
    loss, leaves = _scan_grad_case(leaf)
    loss().backward()
    whole = [t.grad.copy() for t in leaves]
    monkeypatch.setattr(tape, "_SCAN_ROWS", 4)
    for t in leaves:
        t.grad = None
    loss().backward()
    assert all(t.grad.tobytes() == g.tobytes() for t, g in zip(leaves, whole))
    assert max_relative_error(loss, leaves) < RTOL


def _whole_scan(delta, a, b_in, c_out, x):
    """The recurrence over the whole sequence, one timestep at a time:
    ``h_t = exp(delta_t a) h_{t-1} + (delta_t B_t) x_t``, ``y_t = <C_t, h_t>``."""
    h = np.zeros(a.shape, dtype=np.result_type(delta, b_in))
    ys = []
    for t in range(len(delta)):
        h = np.exp(delta[t][:, None] * a) * h + delta[t][:, None] * b_in[t] * x[t][:, None]
        ys.append((h * c_out[t]).sum(axis=1))
    return np.stack(ys)


@pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("L", [1, 63, 64, 65, 200])
def test_blockwise_scan_forward_has_the_bits_of_the_whole_recurrence(L, dtype, grad):
    """Lengths below, at and just past one block of 64 timesteps, and over
    three blocks ending mid-block."""
    values = _scan_values(np.random.default_rng(L), L, 5, 4, dtype)
    out = selective_scan(*(Tensor(values[k], requires_grad=grad) for k in SCAN_INPUTS))
    assert out.requires_grad == grad and out.data.dtype == dtype
    assert out.data.tobytes() == _whole_scan(*(values[k] for k in SCAN_INPUTS)).tobytes()


def test_gradient_check_refuses_anything_but_float64():
    """A float32 check would pass at 32-bit noise levels, and a float32
    parameter under a float64 loss is certified at 32 bits."""
    x32 = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(TypeError, match="float64"):
        max_relative_error(lambda: (x32 * x32).sum(), [x32])
    lin = Linear(3, 2, stage_rng(0, "test.refuse"))
    x64 = Tensor(np.ones((1, 3)), requires_grad=True)
    with pytest.raises(TypeError, match="float32"):
        max_relative_error(lambda: lin(x64).sum(), [x64, lin.weight])
    as_float64(lin)
    assert max_relative_error(lambda: lin(x64).sum(), [x64, lin.weight]) < RTOL


def test_layernorm_and_linear_grads():
    rng = stage_rng(0, "test.layers")
    lin = as_float64(Linear(6, 4, rng))
    ln = as_float64(LayerNorm(4))
    x = _leaf(np.random.default_rng(11), 5, 6)

    def loss():
        y = ln(lin(x))
        return (y * y).sum()

    assert max_relative_error(loss, [x, lin.weight, lin.bias, ln.gamma, ln.beta]) < 1e-5


def test_multihead_attention_grads_and_masking():
    rng = stage_rng(0, "test.attn")
    mha = MultiHeadAttention(8, 2, rng)
    x = Tensor(np.random.default_rng(12).normal(size=(2, 4, 8)), requires_grad=True)
    mask = np.array([[True, True, True, False], [True, True, False, False]])

    # Masked key content must not influence the output at all, in float32
    # (the run dtype) and in float64.
    for dtype in (np.float32, np.float64):
        if dtype == np.float64:
            as_float64(mha)
        clean = x.data.astype(dtype)
        bias = key_mask_bias(mask, dtype)
        out1 = mha.attend(Tensor(clean), *mha.project_kv(Tensor(clean)), bias).data
        perturbed = clean.copy()
        perturbed[0, 3] += 100.0
        perturbed[1, 2:] -= 50.0
        out2 = mha.attend(Tensor(perturbed), *mha.project_kv(Tensor(perturbed)), bias).data
        assert out1.dtype == dtype
        np.testing.assert_array_equal(out1[0, :3], out2[0, :3])
        np.testing.assert_array_equal(out1[1, :2], out2[1, :2])

    def loss():
        y = mha.attend(x, *mha.project_kv(x), key_mask_bias(mask, x.data.dtype))
        return (y * y).sum()

    assert max_relative_error(loss, [x] + mha.parameters()) < 1e-5


@pytest.mark.parametrize("lq,lk,causal", [
    (4, 4, True),       # teacher forcing over a whole prefix
    (3, 6, True),       # three new queries after three cached keys
    (1, 6, False),      # a cached decoding step: one query, no bias
])
def test_attention_node_grads_with_causal_bias_and_cached_keys(lq, lk, causal):
    rng = np.random.default_rng(15)
    q, k, v = (_leaf(rng, 2, n, 8) for n in (lq, lk, lk))
    bias = causal_bias(lq, lk - lq, np.float64) if causal else None
    weights = Tensor(rng.normal(size=(2, lq, 8)))

    def loss():
        return (tape.attention(q, k, v, bias, 2) * weights).sum()

    assert max_relative_error(loss, [q, k, v]) < 1e-4


def test_causal_attention_prefix_invariance():
    rng = stage_rng(0, "test.causal")
    mha = MultiHeadAttention(8, 2, rng)
    x = np.random.default_rng(13).normal(size=(1, 5, 8))
    y = x.copy()
    y[0, -1] += 10.0
    bias = causal_bias(5, 0, x.dtype)
    out_x = mha.attend(Tensor(x), *mha.project_kv(Tensor(x)), bias).data
    out_y = mha.attend(Tensor(y), *mha.project_kv(Tensor(y)), bias).data
    np.testing.assert_array_equal(out_x[0, :4], out_y[0, :4])


@pytest.mark.parametrize("d_model", [1, 8, 32, 33, 48, 64, 128])
def test_sinusoidal_positions_match_the_interleaved_formula(d_model):
    pos = np.arange(512)[:, None]
    dim = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / d_model)
    expected = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    np.testing.assert_array_equal(sinusoidal_positions(512, d_model),
                                  expected.astype(np.float32))


def test_adam_minimizes_quadratic():
    rng = np.random.default_rng(14)
    target = rng.normal(size=(6,))
    p = Tensor(np.zeros(6), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        diff = p - Tensor(target)
        loss = (diff * diff).sum()
        loss.backward()
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-4)


def _recording_loss(p, calls):
    """A loss over examples 0..n-1 whose value on a batch is the batch's mean
    index (``p`` enters with zero weight), recording each batch it gets."""
    def loss(sel):
        calls.append(sel.tolist())
        return (p * 0.0).sum() + float(np.mean(sel))
    return loss


def test_fit_epochs_visit_every_example_once_in_the_streams_order():
    p = Tensor(np.ones(2), requires_grad=True)
    calls = []
    means = list(fit([p], _recording_loss(p, calls), 10, name="t", epochs=3, lr=0.1,
                     batch_size=4, rng=stage_rng(5, "test.batches")))
    assert [len(c) for c in calls] == [4, 4, 2] * 3
    expected = stage_rng(5, "test.batches")
    for epoch in range(3):
        assert sum(calls[3 * epoch:3 * epoch + 3], []) == \
            expected.permutation(10).tolist()
    # each epoch yields the example-weighted mean of its batch losses
    np.testing.assert_allclose(means, [4.5] * 3, rtol=1e-12)


def test_fit_full_batch_runs_in_index_order():
    p = Tensor(np.ones(2), requires_grad=True)
    calls = []
    means = list(fit([p], _recording_loss(p, calls), 5, name="t", epochs=2, lr=0.1))
    assert calls == [[0, 1, 2, 3, 4]] * 2
    assert means == [2.0, 2.0]


def test_fit_zero_epochs_takes_no_step():
    p = Tensor(np.ones(2), requires_grad=True)
    calls = []
    assert list(fit([p], _recording_loss(p, calls), 5, name="t", epochs=0, lr=0.1)) == []
    assert calls == []
    np.testing.assert_array_equal(p.data, np.ones(2))


def test_fit_non_finite_loss_raises_numeric_error():
    p = Tensor(np.ones(2), requires_grad=True)
    losses = iter([1.0, float("nan")])
    with pytest.raises(NumericError, match="^t: non-finite training loss at epoch 2"):
        for _ in fit([p], lambda _: (p * p).sum() * next(losses), 3, name="t",
                     epochs=5, lr=0.1):
            pass


def test_fit_refuses_a_non_finite_batch_loss_before_its_adam_step():
    p = Tensor(np.ones(2), requires_grad=True)
    seen = []

    def loss(sel):
        # batch 2 of epoch 1 diverges; keep the parameters it met
        seen.append(p.data.copy())
        scale = float("nan") if len(seen) == 2 else 1.0
        return (p * p).sum() * scale

    with pytest.raises(NumericError,
                       match="^t: non-finite training loss at epoch 1, batch 2$"):
        for _ in fit([p], loss, 6, name="t", epochs=3, lr=0.1, batch_size=3,
                     rng=stage_rng(5, "test.batches")):
            pass
    assert np.isfinite(p.data).all()
    np.testing.assert_array_equal(p.data, seen[1])
    assert not np.array_equal(seen[0], seen[1])    # batch 1 did take its step


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_seed_takes_the_tensors_dtype(dtype):
    x = Tensor(np.array([1.0, 2.0], dtype=dtype), requires_grad=True)
    (x * x).sum().backward(0.1)
    assert x.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad, np.array([0.2, 0.4], dtype=dtype))
    assert x.grad[1] == dtype(0.1) * dtype(2.0) * dtype(2.0)


def test_no_grad_blocks_graph_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with tape.no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad
    z = (x * 2.0).sum()
    z.backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_backward_accumulates_through_shared_subgraph():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = x * 3.0
    loss = (y * y).sum() + y.sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, 2 * 9 * x.data + 3.0)


@pytest.mark.parametrize("loss", [
    lambda a, b: (a + b).sum(),           # ``sum`` hands on a read-only view
    lambda a, b: ((a + b) * 1.0).sum(),   # ``*`` hands on a fresh array
])
def test_gradients_shared_between_leaves_are_never_written_in_place(loss):
    # ``+`` hands one gradient array to both parents; adding the second
    # backward's gradient into it in place would give 3 instead of 2
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    for _ in range(2):
        loss(a, b).backward()
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
    np.testing.assert_array_equal(b.grad, np.full(3, 2.0))


def test_backward_frees_each_layer_once_it_has_run():
    """Backward over a deep ``linear`` -> ``silu`` chain frees each node's
    gradient and saved arrays once its closure has run, so its peak above
    the forward's level stays within a few layers' activations at any
    depth; keeping them to the end grows it with depth (8.4 layers' worth
    at 12 layers)."""
    rng = np.random.default_rng(3)
    n_layers, b, d = 12, 1024, 32
    weights = [Tensor(rng.normal(0.0, 0.2, (d, d)).astype(np.float32), requires_grad=True)
               for _ in range(n_layers)]
    x = Tensor(rng.normal(size=(b, d)).astype(np.float32))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        h = x
        for w in weights:
            h = tape.linear(h, w).silu()
        loss = h.sum()
        del h
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one layer's activations: its linear output and its sigmoid, which
    # silu's backward reads, and its output, which the next linear's reads;
    # the last output, which no backward reads, went with ``h``
    array = b * d * 4
    layer = 3 * array
    assert n_layers * layer - array <= after_forward - start < n_layers * layer
    assert peak - after_forward < 3 * layer
    assert all(w.grad is not None and w.grad.shape == (d, d) for w in weights)


def test_masked_cross_entropy_forward_allocates_one_logits_buffer():
    # ``linear_cross_entropy`` keeps no logits beside its exp buffer
    rng = np.random.default_rng(4)
    n, d, v = 2048, 16, 500
    x = Tensor(rng.normal(size=(n, d)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(d, v)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(v, dtype=np.float32), requires_grad=True)
    targets = rng.integers(0, v, size=n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = linear_cross_entropy(x, w, b, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (N, V) buffer plus O(N): the row maxima, the picked entries, sums
    assert peak - before < n * v * 4 + 64 * n
    loss.backward()
    assert x.grad.shape == (n, d) and w.grad.shape == (d, v)


def test_sigmoid_bit_identical_to_masked_two_branch_form():
    def masked(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    edges = [0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320, 36.0, -36.0,
             709.0, -709.0, 745.0, -745.0, 1e308, -1e308]
    x = np.concatenate([edges, np.random.default_rng(0).normal(0.0, 30.0, 100_000)])
    np.testing.assert_array_equal(tape._sigmoid(x).view(np.int64),
                                  masked(x).view(np.int64))
    assert np.isnan(tape._sigmoid(np.array([np.nan]))).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, slice_wise", [
    ((1, 4, 3, 11), False), ((2, 4, 1, 6), False),      # one symptom set, one query a row
    ((128, 4, 11, 11), True), ((128, 4, 11, 4), True), ((40, 4, 1, 5), True)])
def test_attention_row_max_keeps_the_reduction_bits(shape, slice_wise, dtype):
    # ``tape.attention`` takes its score-row max column by column when the
    # rows are many (``slice_wise``) and by numpy's reduction otherwise; the
    # column max gives the reduction's values on either kind of shape
    lk = shape[-1]
    assert (np.prod(shape) > tape._ROW_MAX_ROWS_PER_KEY * lk * lk) == slice_wise
    rng = np.random.default_rng(3)
    z = rng.normal(size=shape).astype(dtype)
    flat = z.reshape(-1, lk)
    flat[rng.random(flat.shape) < 0.3] += dtype(NEG_INF)     # masked keys
    flat[0] = NEG_INF                                          # a wholly masked row
    flat[1, -1] = -np.inf
    flat[2] = -np.inf
    flat[3, lk // 2] = np.nan
    flat[4, 0] = np.nan
    flat[5, :2] = [-0.0, 0.0]
    flat[5, 2:] = -1.0
    got, expected = tape._column_max(z), z.max(axis=-1, keepdims=True)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    # equal values and NaNs; a zero max may differ in sign, which the
    # shifted scores' exp, all that attention reads, does not see
    np.testing.assert_array_equal(got, expected)
    bits = f"u{z.itemsize}"
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(np.exp(z - got).view(bits),
                                      np.exp(z - expected).view(bits))


def test_freed_training_memory_stays_on_the_heap():
    """After ``import fmash.tape`` arrays below ``MMAP_THRESHOLD`` come from
    the heap and freeing them returns nothing to the system, so the next
    step reuses the pages instead of faulting them in again.  Under glibc's
    default thresholds the arrays are mapped one by one, or the freed top of
    the heap (more than its 64 MiB maximum here) is trimmed."""
    if mallinfo2() is None:
        pytest.skip("needs glibc 2.33 or later")
    size = (tape.MMAP_THRESHOLD * 3 // 4) // 8
    mapped = mallinfo2().hblkhd
    arrays = [np.ones(size) for _ in range(4)]
    assert mallinfo2().hblkhd == mapped
    heap = mallinfo2().arena
    del arrays
    assert mallinfo2().arena == heap
