"""Each fused tape node against float64 finite differences, applied once
and applied twice with residual adds; its float32 result against its
float64 one within a stated tolerance; its forward against the forward of
the composite of primitive ops it replaced, bit for bit; masked attention
keys get no gradient; ``linear`` and ``linear_cross_entropy``, whose
backward is the composite's, against that composite bit for bit
(``tests/loss_oracle.py``); and the node count, gradient reach and memory
of one loss graph per head."""

import gc
import math
import weakref

import numpy as np
import pytest

from fmash import nn
from fmash.dataio import PrescriptionInstance, generate_synthetic
from fmash.nn import NEG_INF, causal_bias, key_mask_bias
from fmash.recsys import GelramParams, make_rs_params, multi_hot, rs_logits
from fmash.refine import UNIFIED_DIM, UnifiedEmbedding
from fmash.seqgen import Seq2SeqParams, make_batch, sequence_loss
from fmash.tape import (Tensor, attention, feed_forward, layer_norm, linear, linear_bce,
                        linear_cross_entropy, softmax)
from gradcheck import as_float64, max_relative_error
from loss_oracle import cross_entropy
from memory_probe import step_peak_per_instance

EPS = 1e-5
# finite differences against the float64 tape
FD_TOL = 1e-4
# float32 against float64 on the same inputs, relative to the largest entry
# of each output or gradient (worst seen: 9e-7 over CASES, 3.7e-6 over the
# 600 BCE cases)
F32_TOL = 2e-5


# -- the harness ----------------------------------------------------------------

def _apply(op, leaves, twice):
    """``op(x, *params)`` once, or twice with residual adds (``h = x +
    op(x)``, then ``h + op(h)``), so that the parameters get two gradients
    and ``x`` feeds an add as well."""
    x, params = leaves[0], leaves[1:]
    out = op(x, *params)
    if twice:
        h = x + out
        out = h + op(h, *params)
    return out


def _leaves(values, x_grad):
    return [Tensor(v.copy(), requires_grad=x_grad or i > 0) for i, v in enumerate(values)]


def _upstream(shape):
    return np.random.default_rng(0).normal(size=shape)


def _run(op, values, x_grad, twice):
    """Backpropagate a random upstream gradient through ``_apply``; returns
    the output and every leaf gradient."""
    leaves = _leaves(values, x_grad)
    out = _apply(op, leaves, twice)
    out.backward(_upstream(out.shape).astype(out.data.dtype))
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


def _assert_float32_agrees(results32, results64):
    for a32, a64 in zip(results32, results64):
        assert a32.dtype == np.float32 and a64.dtype == np.float64
        assert a32.shape == a64.shape
        assert np.max(np.abs(a32 - a64)) <= F32_TOL * np.max(np.abs(a64))


DTYPES = [np.float32, np.float64]
SHAPES = [(5, 6), (3, 4, 6)]


def _values(*shapes, dtype=np.float64):
    rng = np.random.default_rng(0)
    return [rng.normal(size=s).astype(dtype) for s in shapes]


# -- the nodes whose backward is the composite's ---------------------------------

def _linear_composite(x, w, b=None):
    out = x @ w
    return out if b is None else out + b


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("twice", [False, True])
def test_linear_node_keeps_the_composite_bits(dtype, shape, bias, twice):
    d_out = 6 if twice else 3
    shapes = [shape, (6, d_out)] + ([(d_out,)] if bias else [])
    _assert_same_bits(linear, _linear_composite, _values(*shapes, dtype=dtype),
                      twice=twice)


def _loss_targets(shape, n_classes):
    """Target ids over ``shape``."""
    return np.random.default_rng(4).integers(0, n_classes, size=shape)


# ``twice`` adds a loss to x and takes the loss again of that sum: the loss
# node then gets an upstream gradient other than 1, and x a second one

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("twice", [False, True])
@pytest.mark.parametrize("x_grad", [True, False])
def test_linear_cross_entropy_node_keeps_the_composite_bits(dtype, shape, twice, x_grad):
    targets = _loss_targets(shape[:-1], 7)
    values = _values(shape, (6, 7), (7,), dtype=dtype)
    values[1] = values[1] * 4.0                      # peaked and flat softmax rows
    _assert_same_bits(
        lambda x, w, b: linear_cross_entropy(x, w, b, targets),
        lambda x, w, b: cross_entropy(_linear_composite(x, w, b), targets),
        values, x_grad=x_grad, twice=twice)


# -- the nodes with a closed-form backward ----------------------------------------

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


def _attention(kind, lq, lk):
    """``attention`` with the bias of ``kind`` in its inputs' dtype."""
    return lambda q, k, v: attention(q, k, v, _attention_bias(kind, q.data.dtype, lq, lk),
                                     N_HEADS)


def _self_attention(kind):
    # one tensor as queries, keys and values: its three gradients add up
    op = _attention(kind, 5, 5)
    return lambda x: op(x, x, x)


# packed rows: a (B=2, T=5) prefix mask over the targets of 5 and 3 tokens,
# N = 8 rows in row-major order, as teacher forcing passes them
PACKED = np.arange(5)[None, :] < np.array([[5], [3]])
N_PACKED = int(PACKED.sum())


def _packed_attention(kind, lk=5):
    """``attention`` of packed queries with the row map ``PACKED``: onto
    packed self-attention keys and values under the causal bias
    (``kind`` "causal"), or onto padded (2, ``lk``, d) ones under the key
    mask ("key_mask")."""
    return lambda q, k, v: attention(
        q, k, v, _attention_bias(kind, q.data.dtype, PACKED.shape[1], lk), N_HEADS,
        rows=PACKED)


def _packed_self_attention(x):
    return _packed_attention("causal")(x, x, x)


def _softmax_bias(shape):
    # masked entries as the attention layers build them: an additive NEG_INF
    # in the scores' dtype, one entry of each row left unmasked
    keep = np.random.default_rng(1).random(shape) > 0.3
    keep[..., 0] = True
    return np.where(keep, 0.0, NEG_INF)


def _masked_softmax(shape):
    bias = _softmax_bias(shape)
    return lambda x: softmax(x + Tensor(bias.astype(x.data.dtype)))


def _bce_targets(shape):
    return (np.random.default_rng(5).random(shape[:-1] + (7,)) < 0.3).astype(np.float64)


def _bce(shape):
    t = _bce_targets(shape)
    return lambda x, w, b: linear_bce(x, w, b, t.astype(x.data.dtype))


def _scaled(values, i, scale, shift=0.0):
    values[i] = values[i] * scale + shift
    return values


def _cases():
    """(name, op, float64 values with x first, x_grad, twice) for every
    node with a closed-form backward."""
    for shape in SHAPES:
        sx = "x".join(map(str, shape))
        for twice in (False, True):
            for x_grad in (True, False):
                # away from zero mean and unit spread
                yield (f"layer_norm-{sx}", lambda x, g, b: layer_norm(x, g, b, EPS),
                       _scaled(_values(shape, (6,), (6,)), 0, 3.0, 1.5), x_grad, twice)
                # both saturated tails
                yield (f"feed_forward-{sx}", feed_forward,
                       _scaled(_values(shape, (6, 10), (10,), (10, 6), (6,)), 1, 3.0),
                       x_grad, twice)
                # saturated logits too
                yield (f"linear_bce-{sx}", _bce(shape),
                       _scaled(_values(shape, (6, 7), (7,)), 1, 8.0), x_grad, twice)
            yield f"softmax-{sx}", _masked_softmax(shape), _values(shape), True, twice
            yield (f"silu-{sx}", lambda x: x.silu(), _scaled(_values(shape), 0, 8.0),
                   True, twice)
    for twice in (False, True):
        for kind, lq, lk in [("key_mask", 4, 6), ("causal", 4, 4), ("causal", 3, 5),
                             (None, 4, 6),
                             ("key_mask", 1, 6),     # one query over a longer key set
                             (None, 1, 5)]:          # a cached decoding step: no bias
            yield (f"attention-{kind}-{lq}x{lk}", _attention(kind, lq, lk),
                   _values((2, lq, 8), (2, lk, 8), (2, lk, 8)), True, twice)
        # one query per row, given as a (B, d) query
        yield ("attention-key_mask-row", _attention("key_mask", 1, 6),
               _values((2, 8), (2, 6, 8), (2, 6, 8)), True, twice)
        for kind in ("key_mask", "causal", None):
            yield (f"self_attention-{kind}", _self_attention(kind), _values((2, 5, 8)),
                   True, twice)
        yield ("attention-packed-causal", _packed_attention("causal"),
               _values(*[(N_PACKED, 8)] * 3), True, twice)
        yield ("attention-packed-memory", _packed_attention("key_mask", 6),
               _values((N_PACKED, 8), (2, 6, 8), (2, 6, 8)), True, twice)
        yield ("self_attention-packed", _packed_self_attention, _values((N_PACKED, 8)),
               True, twice)


CASES = [pytest.param(op, values, x_grad, twice,
                      id=f"{name}{'-twice' if twice else ''}{'' if x_grad else '-no_x_grad'}")
         for name, op, values, x_grad, twice in _cases()]


@pytest.mark.parametrize("op,values,x_grad,twice", CASES)
def test_node_gradients_match_finite_differences(op, values, x_grad, twice):
    leaves = _leaves(values, x_grad)
    probe = _upstream(_apply(op, leaves, twice).shape)
    err = max_relative_error(lambda: (_apply(op, leaves, twice) * probe).sum(),
                             [t for t in leaves if t.requires_grad])
    assert err < FD_TOL


@pytest.mark.parametrize("op,values,x_grad,twice", CASES)
def test_node_in_float32_agrees_with_float64(op, values, x_grad, twice):
    values = [v.astype(np.float32) for v in values]
    (out32, grads32), (out64, grads64) = (
        _run(op, [v.astype(dt) for v in values], x_grad, twice)
        for dt in (np.float32, np.float64))
    _assert_float32_agrees([out32] + grads32, [out64] + grads64)


# -- forwards: the bits of the composites the nodes replaced ---------------------

# The composites in numpy, forward only, in the order of the primitive tape
# ops they were built from.  A Python float enters the tape as a float32
# scalar (``Tensor.ensure``), so eps and the attention scale do here as well.

def _layer_norm_composite(x, gamma, beta):
    n = x.shape[-1]
    c = x - x.sum(axis=-1, keepdims=True) / n
    sd = np.sqrt((c * c).sum(axis=-1, keepdims=True) / n + np.float32(EPS))
    return c / sd * gamma + beta


def _softmax_composite(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _silu_composite(x):
    return x * Tensor(x).sigmoid().data


def _feed_forward_composite(x, w1, b1, w2, b2):
    return _silu_composite(x @ w1 + b1) @ w2 + b2


def _attention_composite(q, k, v, bias):
    b, lq, d = q.shape
    dh = d // N_HEADS

    def split(t):
        return t.reshape(b, t.shape[1], N_HEADS, dh).transpose(0, 2, 1, 3)

    scores = split(q) @ split(k).transpose(0, 1, 3, 2) / np.float32(math.sqrt(dh))
    if bias is not None:
        scores = scores + bias
    out = _softmax_composite(scores) @ split(v)
    return out.transpose(0, 2, 1, 3).reshape(b, lq, d)


def _unpacked(rows):
    """Packed (N, d) rows at their ``PACKED`` positions of a zero (2, 5, d)
    array."""
    out = np.zeros(PACKED.shape + rows.shape[1:], dtype=rows.dtype)
    out[PACKED] = rows
    return out


def _bce_composite(x, w, b, t):
    z = x @ w + b
    return (Tensor(z).softplus().data - t * z).sum() / np.float32(z.size)


def _forward_cases():
    """(name, node, numpy composite, float64 values with x first)."""
    for shape in SHAPES:
        sx = "x".join(map(str, shape))
        yield (f"layer_norm-{sx}", lambda x, g, b: layer_norm(x, g, b, EPS),
               _layer_norm_composite, _scaled(_values(shape, (6,), (6,)), 0, 3.0, 1.5))
        bias = _softmax_bias(shape)
        yield (f"softmax-{sx}", _masked_softmax(shape),
               lambda x, bias=bias: _softmax_composite(x + bias.astype(x.dtype)),
               _values(shape))
        yield (f"silu-{sx}", lambda x: x.silu(), _silu_composite,
               _scaled(_values(shape), 0, 8.0))
        yield (f"feed_forward-{sx}", feed_forward, _feed_forward_composite,
               _scaled(_values(shape, (6, 10), (10,), (10, 6), (6,)), 1, 3.0))
        t = _bce_targets(shape)
        yield (f"linear_bce-{sx}", _bce(shape),
               lambda x, w, b, t=t: _bce_composite(x, w, b, t.astype(x.dtype)),
               _scaled(_values(shape, (6, 7), (7,)), 1, 8.0))
    for kind, lq, lk in [("key_mask", 4, 6), ("causal", 4, 4), ("causal", 3, 5),
                         (None, 4, 6), ("key_mask", 1, 6), (None, 1, 5)]:
        yield (f"attention-{kind}-{lq}x{lk}", _attention(kind, lq, lk),
               lambda q, k, v, kind=kind, lq=lq, lk=lk: _attention_composite(
                   q, k, v, _attention_bias(kind, q.dtype, lq, lk)),
               _values((2, lq, 8), (2, lk, 8), (2, lk, 8)))
    # enough score rows (2 x 2 heads x 40 queries) for the column-wise row max
    yield ("attention-key_mask-40x6", _attention("key_mask", 40, 6),
           lambda q, k, v: _attention_composite(
               q, k, v, _attention_bias("key_mask", q.dtype, 40, 6)),
           _values((2, 40, 8), (2, 6, 8), (2, 6, 8)))
    yield ("attention-key_mask-row", _attention("key_mask", 1, 6),
           lambda q, k, v: _attention_composite(
               q[:, None], k, v, _attention_bias("key_mask", q.dtype, 1, 6))[:, 0],
           _values((2, 8), (2, 6, 8), (2, 6, 8)))
    for kind in ("key_mask", "causal", None):
        yield (f"self_attention-{kind}", _self_attention(kind),
               lambda x, kind=kind: _attention_composite(
                   x, x, x, _attention_bias(kind, x.dtype, 5, 5)),
               _values((2, 5, 8)))
    yield ("attention-packed-causal", _packed_attention("causal"),
           lambda q, k, v: _attention_composite(
               *(_unpacked(t) for t in (q, k, v)),
               _attention_bias("causal", q.dtype, 5, 5))[PACKED],
           _values(*[(N_PACKED, 8)] * 3))
    yield ("attention-packed-memory", _packed_attention("key_mask", 6),
           lambda q, k, v: _attention_composite(
               _unpacked(q), k, v, _attention_bias("key_mask", q.dtype, 5, 6))[PACKED],
           _values((N_PACKED, 8), (2, 6, 8), (2, 6, 8)))
    yield ("self_attention-packed", _packed_self_attention,
           lambda x: _attention_composite(
               *[_unpacked(x)] * 3, _attention_bias("causal", x.dtype, 5, 5))[PACKED],
           _values((N_PACKED, 8)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("node,composite,values",
                         [pytest.param(*case[1:], id=case[0]) for case in _forward_cases()])
def test_node_forward_keeps_the_composite_bits(node, composite, values, dtype):
    values = [v.astype(dtype) for v in values]
    out = node(*(Tensor(v) for v in values)).data
    expected = composite(*values)
    assert out.dtype == np.asarray(expected).dtype == dtype
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["causal", "key_mask"])
def test_packed_attention_matches_padded_attention_on_its_rows(kind, dtype):
    """Packed queries (and packed self-attention keys and values) give the
    rows, and the gradients, of the padded node with the padding queries'
    upstream gradient zero, bit for bit."""
    rng = np.random.default_rng(6)
    lk = 5 if kind == "causal" else 6
    q = rng.normal(size=(N_PACKED, 8)).astype(dtype)
    kv = [rng.normal(size=(N_PACKED, 8) if kind == "causal" else (2, lk, 8)).astype(dtype)
          for _ in range(2)]
    g = _upstream((N_PACKED, 8)).astype(dtype)
    packed = _leaves([q] + kv, True)
    out = _packed_attention(kind, lk)(*packed)
    out.backward(g)
    unpack = _unpacked if kind == "causal" else (lambda t: t)
    padded = _leaves([_unpacked(q)] + [unpack(t) for t in kv], True)
    full = _attention(kind, 5, lk)(*padded)
    full.backward(_unpacked(g))
    assert np.array_equal(out.data, full.data[PACKED])
    assert np.array_equal(packed[0].grad, padded[0].grad[PACKED])
    for p, f in zip(packed[1:], padded[1:]):
        assert np.array_equal(p.grad, f.grad[PACKED] if kind == "causal" else f.grad)
        if kind == "causal":
            assert np.all(f.grad[~PACKED] == 0.0)


@pytest.mark.parametrize("dtype", DTYPES)
def test_masked_attention_keys_get_exactly_zero_gradient(dtype):
    q, k, v = _leaves(_values((2, 3, 8), (2, 6, 8), (2, 6, 8), dtype=dtype), True)
    out = _attention("key_mask", 3, 6)(q, k, v)
    out.backward(_upstream(out.shape).astype(dtype))
    for grad in (k.grad, v.grad):
        assert np.all(grad[1, -2:] == 0.0) and np.all(grad[1, :-2] != 0.0)


def _bce_cases():
    """600 random float32 (x, w, b, targets) cases.  In the first 300 the
    projection ``x @ w + b`` gives ``x`` exactly (``w`` the identity, ``b``
    zero), so the logits are ``x``: mixed scales up to |x| of about 60,
    saturated rows with |x| >= 30, and all-zero and all-one targets.  The
    other 300 project through a random ``w`` scaled by up to 20/sqrt(d) and
    a random ``b``."""
    rng = np.random.default_rng(2)
    for i in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 40)))
        x = rng.normal(size=shape) * rng.choice([0.1, 1.0, 5.0, 20.0])
        if i % 5 == 1:
            x[0] = rng.choice([-1.0, 1.0], size=shape[1]) * rng.uniform(30.0, 60.0,
                                                                        size=shape[1])
        t = (rng.random(shape) < 0.3).astype(np.float32)
        if i % 7 == 2:
            t[:] = 0.0
        elif i % 7 == 3:
            t[:] = 1.0
        yield [x.astype(np.float32), np.eye(shape[1], dtype=np.float32),
               np.zeros(shape[1], dtype=np.float32)], t
    for _ in range(300):
        n, d, v = (int(k) for k in rng.integers(1, 40, size=3))
        w = rng.normal(size=(d, v)) * rng.uniform(0.1, 20.0) / math.sqrt(d)
        t = (rng.random((n, v)) < 0.3).astype(np.float32)
        yield [rng.normal(size=(n, d)).astype(np.float32), w.astype(np.float32),
               rng.normal(size=v).astype(np.float32)], t


def test_bce_node_in_float32_agrees_with_float64():
    for values, t in _bce_cases():
        results = []
        for dtype in (np.float32, np.float64):
            leaves = [Tensor(v.astype(dtype), requires_grad=True) for v in values]
            loss = linear_bce(*leaves, t.astype(dtype))
            loss.backward()
            results.append([loss.data] + [leaf.grad for leaf in leaves])
        _assert_float32_agrees(*results)


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
    again in primitive ops shows here as a larger count.  The ranked head's
    last encoder layer takes two [CLS] slices, its query and its residual
    row, in place of the one slice of the encoder's output."""
    emb = UnifiedEmbedding(np.random.default_rng(0).normal(size=(14, 8)), n_sym=6)
    instances = [PrescriptionInstance(instance_id=i, symptoms=frozenset(s),
                                      herbs=list(h))
                 for i, (s, h) in enumerate([({0, 2}, [1, 3]), ({1, 4, 5}, [0, 2, 7]),
                                             ({3}, [5])])]
    rs = GelramParams(emb.dim, emb.n_herb, 0, d_enc=8, n_heads=2)
    rs_loss = rs_logits([sorted(i.symptoms) for i in instances], emb, rs,
                        sym_table=Tensor(emb.sym()), herb_table=Tensor(emb.herb()),
                        targets=multi_hot([i.herbs for i in instances], emb.n_herb))
    seq = Seq2SeqParams(emb, 0, n_heads=2)
    seq_loss = sequence_loss(make_batch(instances, seq.vocab), seq)
    assert (_graph_nodes(rs_loss), _graph_nodes(seq_loss)) == (63, 160)


def test_every_head_parameter_moves_the_training_loss():
    """Both default heads, in float64, on one loss whose targets cover every
    herb: every trainable tensor's largest gradient entry is above 1e-8 of
    the largest of all, and every input token gets a gradient.  A tensor
    below that (an attention key bias, which the softmax does not see) or a
    token row no input reads cannot move an output; Adam would only turn
    the rounding noise in its gradient into steps."""
    n_sym, n_herb = 6, 8
    emb = UnifiedEmbedding(np.random.default_rng(1).normal(size=(n_sym + n_herb, 16)),
                           n_sym=n_sym)
    instances = [PrescriptionInstance(instance_id=i, symptoms=frozenset(s),
                                      herbs=list(h))
                 for i, (s, h) in enumerate([({0, 2}, [1, 3, 6]), ({1, 4, 5}, [0, 2, 7]),
                                             ({3}, [5, 4])])]
    rs = as_float64(make_rs_params(emb, 0))
    rs_loss = rs_logits([sorted(i.symptoms) for i in instances], emb, rs,
                        sym_table=as_float64(Tensor(emb.sym())),
                        herb_table=as_float64(Tensor(emb.herb())),
                        targets=multi_hot([i.herbs for i in instances], n_herb))
    seq = as_float64(Seq2SeqParams(emb, 0))
    seq_loss = sequence_loss(make_batch(instances, seq.vocab), seq)
    for head, loss in ((rs, rs_loss), (seq, seq_loss)):
        loss.backward()
        largest = {name: 0.0 if t.grad is None else np.abs(t.grad).max()
                   for name, t in head.named_tensors() if t.requires_grad}
        top = max(largest.values())
        assert [name for name, g in largest.items() if not g > 1e-8 * top] == []
    rows_moved = np.abs(seq.tok_embed.grad).max(axis=1) > 0
    assert rows_moved.all(), np.flatnonzero(~rows_moved)


# -- memory ---------------------------------------------------------------------

@pytest.mark.parametrize("head, bound_mib", [("seq", 0.247), ("rs", 0.064)])
def test_one_training_step_stays_within_its_memory_per_instance(head, bound_mib):
    """One training loss plus ``backward()`` at full-scale head shapes and
    B = 128 (``tests/memory_probe.py``) peaks at 0.241 MiB per instance for
    the sequence head and 0.058 MiB for the ranked head; each bound adds
    0.006 MiB.  With nodes that kept every array of their composites, and
    the logits beside each loss, it took 0.357 and 0.090 MiB; with only
    ``feed_forward`` keeping its activation as well, 0.290 and 0.084; with
    the ranked head's last encoder layer running every position, and not
    the [CLS] row alone, the ranked head took 0.074; with the sequence
    head's decoder running its padding positions too, the sequence head took
    0.260."""
    assert step_peak_per_instance(head, 128) < bound_mib * 2 ** 20


def test_a_loss_graph_pins_no_output_its_backward_does_not_read(monkeypatch):
    """After the forward of one training loss per head on the acceptance
    corpus, and before its ``backward()``, the arrays of the residual
    stream (each layer norm's input), of each attention output projection
    and feed-forward block, and of each packed query projection, which the
    attention node copies, are freed: no backward reads them, and the graph
    keeps only what its closures read."""
    _, _, instances = generate_synthetic(40, 60, 5, 200, seed=7)
    instances = instances[:16]
    emb = UnifiedEmbedding(np.random.default_rng(0).normal(size=(100, UNIFIED_DIM)),
                           n_sym=40)
    kept = {"residual": [], "attention output": [], "feed-forward output": [],
            "packed query": []}

    def watch(fn, key, pick):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            arr = pick(out, *args, **kwargs)
            if arr is not None:
                kept[key].append(weakref.ref(arr))
            return out
        return wrapped

    monkeypatch.setattr(nn.LayerNorm, "__call__", watch(
        nn.LayerNorm.__call__, "residual", lambda out, self, x: x.data))
    monkeypatch.setattr(nn.MultiHeadAttention, "attend", watch(
        nn.MultiHeadAttention.attend, "attention output", lambda out, *a, **k: out.data))
    monkeypatch.setattr(nn.FeedForward, "__call__", watch(
        nn.FeedForward.__call__, "feed-forward output", lambda out, self, x: out.data))
    monkeypatch.setattr(nn, "attention", watch(
        nn.attention, "packed query",
        lambda out, q, k, v, bias, n_heads, rows=None: None if rows is None else q.data))
    seq = Seq2SeqParams(emb, 0)
    rs = make_rs_params(emb, 0)
    losses = [sequence_loss(make_batch(instances, seq.vocab), seq),
              rs_logits([i.symptoms for i in instances], emb, rs,
                        targets=multi_hot([i.herbs for i in instances], emb.n_herb))]
    gc.collect()
    assert all(kept.values())
    assert {key: sum(ref() is not None for ref in refs) for key, refs in kept.items()} \
        == dict.fromkeys(kept, 0)
    for loss in losses:
        loss.backward()
    assert all(p.grad is not None and np.isfinite(p.grad).all()
               for p in seq.parameters() + rs.parameters())
