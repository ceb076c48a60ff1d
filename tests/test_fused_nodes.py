"""Each fused tape node against the composite of primitive tape ops it
stands for: the same forward bits, the same input gradient bits and the
same parameter gradient bits (the binary cross-entropy's loss value within
2 ULPs); and the node count of one loss graph per head."""

import math

import numpy as np
import pytest

from fmash.dataio import PrescriptionInstance
from fmash.nn import NEG_INF, causal_bias, key_mask_bias
from fmash.recsys import make_rs_params, multi_hot, rs_logits
from fmash.refine import UnifiedEmbedding
from fmash.seqgen import Seq2SeqParams, make_batch, sequence_loss
from fmash.tape import Tensor, attention, bce_with_logits, layer_norm, linear, softmax

EPS = 1e-5


# -- the composites, from primitive tape ops -----------------------------------

def _linear_composite(x, w, b=None):
    out = x @ w
    return out if b is None else out + b


def _layer_norm_composite(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + EPS).sqrt() * gamma + beta


def _softmax_composite(x, axis):
    shift = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shift.exp()
    return e / e.sum(axis=axis, keepdims=True)


def _silu_composite(x):
    return x * x.sigmoid()


def _attention_composite(q, k, v, bias, n_heads):
    b, lq, d = q.shape
    d_head = d // n_heads

    def split(t):
        return t.reshape(b, t.shape[1], n_heads, d_head).transpose(0, 2, 1, 3)

    scores = (split(q) @ split(k).transpose(0, 1, 3, 2)) / math.sqrt(d_head)
    if bias is not None:
        scores = scores + Tensor(bias)
    out = _softmax_composite(scores, -1) @ split(v)
    return out.transpose(0, 2, 1, 3).reshape(b, lq, d)


def _bce_composite(x, t):
    t = Tensor(t)
    return (x.softplus() - t * x).mean()


# -- the harness ----------------------------------------------------------------

def _run(op, values, x_grad, twice):
    """Apply ``op(x, *params)`` to leaves holding ``values`` (x first), once,
    or twice with residual adds (``h = x + op(x)``, then ``h + op(h)``), so
    that the parameters get two gradients and ``x`` feeds an add as well;
    backpropagate a random upstream gradient.  Returns the output and every
    leaf gradient."""
    leaves = [Tensor(v.copy(), requires_grad=x_grad or i > 0)
              for i, v in enumerate(values)]
    x, params = leaves[0], leaves[1:]
    out = op(x, *params)
    if twice:
        h = x + out
        out = h + op(h, *params)
    upstream = np.random.default_rng(0).normal(size=out.shape)
    out.backward(upstream.astype(out.data.dtype))
    return out.data, [t.grad for t in leaves if t.requires_grad]


def _assert_same_bits(fused, composite, values, x_grad=True, twice=False):
    (out_f, grads_f), (out_c, grads_c) = (
        _run(op, values, x_grad, twice) for op in (fused, composite))
    assert out_f.dtype == out_c.dtype == values[0].dtype
    assert np.array_equal(out_f, out_c)
    assert len(grads_f) == len(grads_c) == len(values) - (not x_grad)
    for g_f, g_c in zip(grads_f, grads_c):
        assert g_f.dtype == g_c.dtype and g_f.shape == g_c.shape
        assert np.array_equal(g_f, g_c)


DTYPES = [np.float32, np.float64]
SHAPES = [(5, 6), (3, 4, 6)]


def _values(dtype, *shapes):
    rng = np.random.default_rng(0)
    return [rng.normal(size=s).astype(dtype) for s in shapes]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("twice", [False, True])
def test_linear_node_keeps_the_composite_bits(dtype, shape, bias, twice):
    d_out = 6 if twice else 3
    shapes = [shape, (6, d_out)] + ([(d_out,)] if bias else [])
    _assert_same_bits(linear, _linear_composite, _values(dtype, *shapes), twice=twice)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("twice", [False, True])
@pytest.mark.parametrize("x_grad", [True, False])
def test_layer_norm_node_keeps_the_composite_bits(dtype, shape, twice, x_grad):
    values = _values(dtype, shape, (6,), (6,))
    values[0] = values[0] * 3.0 + 1.5               # away from zero mean, unit spread
    _assert_same_bits(lambda x, g, b: layer_norm(x, g, b, EPS), _layer_norm_composite,
                      values, x_grad=x_grad, twice=twice)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,axis", [((5, 6), -1), ((5, 6), 0),
                                        ((3, 4, 6), -1), ((3, 4, 6), 1)])
@pytest.mark.parametrize("twice", [False, True])
def test_softmax_node_keeps_the_composite_bits(dtype, shape, axis, twice):
    # masked entries as the attention layers build them: an additive NEG_INF
    # in the scores' dtype, one whole row left unmasked along ``axis``
    keep = np.random.default_rng(1).random(shape) > 0.3
    keep[(slice(None),) * (axis % len(shape)) + (0,)] = True
    bias = Tensor(np.where(keep, 0.0, NEG_INF).astype(dtype))
    _assert_same_bits(lambda x: softmax(x + bias, axis=axis),
                      lambda x: _softmax_composite(x + bias, axis),
                      _values(dtype, shape), twice=twice)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("twice", [False, True])
def test_silu_node_keeps_the_composite_bits(dtype, shape, twice):
    values = _values(dtype, shape)
    values[0] = values[0] * 8.0                      # both saturated tails
    _assert_same_bits(lambda x: x.silu(), _silu_composite, values, twice=twice)


N_HEADS = 2


def _attention_bias(kind, dtype, lq, lk):
    """The scores' bias as the attention layers build it: a key mask over
    (B=2, Lk) with the second row's last two keys padded, a causal bias for
    ``lq`` queries after ``lk - lq`` cached keys, or None."""
    if kind == "key_mask":
        mask = np.ones((2, lk), dtype=bool)
        mask[1, -2:] = False
        return key_mask_bias(mask, dtype)
    if kind == "causal":
        return causal_bias(lq, lk - lq, dtype)
    return None


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind,lq,lk", [
    ("key_mask", 4, 6), ("causal", 4, 4), ("causal", 3, 5), (None, 4, 6),
    ("key_mask", 1, 6),     # one query over a longer key set
    (None, 1, 5),           # a cached decoding step: no bias at all
])
@pytest.mark.parametrize("twice", [False, True])
def test_attention_node_keeps_the_composite_bits(dtype, kind, lq, lk, twice):
    bias = _attention_bias(kind, dtype, lq, lk)
    values = _values(dtype, (2, lq, 8), (2, lk, 8), (2, lk, 8))
    _assert_same_bits(lambda q, k, v: attention(q, k, v, bias, N_HEADS),
                      lambda q, k, v: _attention_composite(q, k, v, bias, N_HEADS),
                      values, twice=twice)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["key_mask", "causal", None])
@pytest.mark.parametrize("twice", [False, True])
def test_self_attention_node_keeps_the_composite_bits(dtype, kind, twice):
    # one tensor as queries, keys and values: its three gradients add up
    # in the composite's order
    bias = _attention_bias(kind, dtype, 5, 5)
    _assert_same_bits(lambda x: attention(x, x, x, bias, N_HEADS),
                      lambda x: _attention_composite(x, x, x, bias, N_HEADS),
                      _values(dtype, (2, 5, 8)), twice=twice)


def _bce_cases(dtype):
    """300 random (logits, targets) pairs: mixed scales up to |x| of about
    60, saturated rows with |x| >= 30, and all-zero and all-one targets."""
    rng = np.random.default_rng(2)
    for i in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 40)))
        x = rng.normal(size=shape) * rng.choice([0.1, 1.0, 5.0, 20.0])
        if i % 5 == 1:
            x[0] = rng.choice([-1.0, 1.0], size=shape[1]) * rng.uniform(30.0, 60.0,
                                                                        size=shape[1])
        t = (rng.random(shape) < 0.3).astype(dtype)
        if i % 7 == 2:
            t[:] = 0.0
        elif i % 7 == 3:
            t[:] = 1.0
        yield x.astype(dtype), t


@pytest.mark.parametrize("dtype", DTYPES)
def test_bce_node_keeps_the_composite_gradient_bits(dtype):
    for x, t in _bce_cases(dtype):
        results = []
        for op in (bce_with_logits, _bce_composite):
            leaf = Tensor(x.copy(), requires_grad=True)
            loss = op(leaf, t)
            loss.backward()
            results.append((loss.data, leaf.grad))
        (loss_f, grad_f), (loss_c, grad_c) = results
        assert loss_f.dtype == loss_c.dtype == grad_f.dtype == grad_c.dtype == dtype
        # the forward's softplus is another formula: the loss may move in
        # its last bits, the gradient never
        np.testing.assert_array_max_ulp(loss_f, loss_c, maxulp=2)
        assert np.array_equal(grad_f, grad_c)


@pytest.mark.parametrize("dtype", DTYPES)
def test_bce_node_hands_its_gradients_in_the_composite_order(dtype):
    # logits that feed another node first: the three gradients they
    # receive add up in the same order as under the composite
    x, t = next(_bce_cases(dtype))
    grads = []
    for op in (bce_with_logits, _bce_composite):
        leaf = Tensor(x.copy(), requires_grad=True)
        scale = Tensor(np.random.default_rng(3).normal(size=x.shape[1]).astype(dtype))
        ((leaf * scale).sum() + op(leaf, t)).backward()
        grads.append(leaf.grad)
    assert np.array_equal(*grads)


# -- node counts ----------------------------------------------------------------

def _graph_nodes(root):
    """Tensors that take part in ``root``'s backward: ``root`` and every
    ancestor that requires a gradient."""
    seen, todo = {id(root)}, [root]
    while todo:
        for parent in todo.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def test_node_count_of_one_loss_graph_per_head():
    """Every layer records one node per module call: a layer spelled out
    again in primitive ops shows here as a larger count."""
    emb = UnifiedEmbedding(np.random.default_rng(0).normal(size=(14, 8)), n_sym=6)
    instances = [PrescriptionInstance(instance_id=i, symptoms=frozenset(s),
                                      herbs=list(h))
                 for i, (s, h) in enumerate([({0, 2}, [1, 3]), ({1, 4, 5}, [0, 2, 7]),
                                             ({3}, [5])])]
    rs = make_rs_params(emb, 0, d_enc=8, n_heads=2)
    logits = rs_logits([sorted(i.symptoms) for i in instances], emb, rs,
                       sym_table=Tensor(emb.sym()), herb_table=Tensor(emb.herb()))
    rs_loss = bce_with_logits(logits, multi_hot([i.herbs for i in instances],
                                                emb.n_herb))
    seq = Seq2SeqParams(emb, 0, n_heads=2)
    seq_loss = sequence_loss(make_batch(instances, seq.vocab), seq)
    assert (_graph_nodes(rs_loss), _graph_nodes(seq_loss)) == (69, 176)
