"""Each fused tape node against the composite of primitive tape ops it
stands for: the same forward bits, the same input gradient bits and the
same parameter gradient bits; and the node count of one loss graph per
head."""

import numpy as np
import pytest

from fmash.dataio import PrescriptionInstance
from fmash.nn import NEG_INF
from fmash.recsys import make_rs_params, multi_hot, rs_logits
from fmash.refine import UnifiedEmbedding
from fmash.seqgen import Seq2SeqParams, make_batch, sequence_loss
from fmash.tape import Tensor, bce_with_logits, layer_norm, linear, softmax

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
    assert (_graph_nodes(rs_loss), _graph_nodes(seq_loss)) == (100, 267)
