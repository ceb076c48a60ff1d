"""Chunked gradient accumulation in ``nn.fit``.

A head's batch runs in chunks of ``nn.CHUNK`` instances, each seeded with
its share of the batch; the leaves must end with the gradient of the whole
batch's mean loss, and one fit step's memory must not grow with the batch.
"""

import numpy as np
import pytest

from fmash import nn
from fmash.dataio import PrescriptionInstance
from fmash.nn import accumulate_gradients
from fmash.recsys import GelramParams, multi_hot, rs_logits
from fmash.refine import UnifiedEmbedding
from fmash.seqgen import Seq2SeqParams, make_batch, sequence_loss
from fmash.tape import Tensor

from gradcheck import as_float64, max_relative_error
from memory_probe import fit_step_peak

N_SYM, N_HERB, D = 6, 9, 4


def _instances(n, seed=0):
    """``n`` instances of 1-3 symptoms and 1-6 herbs, so formulas differ in
    length."""
    rng = np.random.default_rng(seed)
    return [PrescriptionInstance(
        instance_id=i,
        symptoms=frozenset(rng.choice(N_SYM, rng.integers(1, 4), replace=False).tolist()),
        herbs=rng.choice(N_HERB, rng.integers(1, 7), replace=False).tolist())
        for i in range(n)]


def _emb(seed=0):
    rng = np.random.default_rng(seed)
    return UnifiedEmbedding(rng.normal(size=(N_SYM + N_HERB, D)), n_sym=N_SYM)


def _rs_head(instances):
    """Float64 ranked head with its tables as leaves; the loss of a selection
    and its share (instances), as ``train_rs`` builds them."""
    emb = _emb(1)
    params = as_float64(GelramParams(D, N_HERB, seed=3, d_enc=8, n_layers=1, n_heads=2))
    sym_t = as_float64(Tensor(emb.sym(), requires_grad=True))
    herb_t = as_float64(Tensor(emb.herb(), requires_grad=True))
    sets = [sorted(inst.symptoms) for inst in instances]

    def loss(sel):
        return rs_logits([sets[i] for i in sel], emb, params, sym_table=sym_t,
                         herb_table=herb_t,
                         targets=multi_hot([instances[i].herbs for i in sel], N_HERB))

    return [sym_t, herb_t] + params.parameters(), loss, len


def _seq_head(instances):
    """Float64 sequence head; the loss of a selection and its share (target
    tokens), as ``train_seq`` builds them."""
    params = as_float64(Seq2SeqParams(_emb(2), seed=4, n_heads=2, n_enc_layers=1,
                                      n_dec_layers=1))
    tokens = np.array([len(inst.herbs) + 1 for inst in instances])

    def loss(sel):
        return sequence_loss(make_batch([instances[i] for i in sel], params.vocab),
                             params)

    return params.parameters(), loss, lambda sel: int(tokens[sel].sum())


def _grads(leaves):
    return [leaf.grad.copy() for leaf in leaves]


@pytest.mark.parametrize("head", [_rs_head, _seq_head])
@pytest.mark.parametrize("batch", [2 * nn.CHUNK, 2 * nn.CHUNK - 56, nn.CHUNK + 1])
def test_chunked_step_equals_one_unchunked_backward(head, batch):
    """Every gradient entry agrees within 1e-12 relative, or within 1e-12 of
    the largest entry of any leaf for entries that are zero in exact
    arithmetic, such as the key projections' bias (softmax ignores a
    shift), which both sides round to about 1e-18."""
    leaves, loss_fn, share = head(_instances(batch, seed=batch))
    sel = np.random.default_rng(batch).permutation(batch)
    whole = loss_fn(sel)
    whole.backward()
    expected = _grads(leaves)
    for leaf in leaves:
        leaf.grad = None
    chunked = accumulate_gradients(loss_fn, sel, share)
    assert chunked == pytest.approx(whole.item(), rel=1e-12)
    scale = max(np.abs(want).max() for want in expected)
    for got, want in zip(_grads(leaves), expected):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("head", [_rs_head, _seq_head])
def test_two_chunk_gradients_match_finite_differences(head, monkeypatch):
    """Three instances in chunks of two and one, of unequal shares."""
    monkeypatch.setattr(nn, "CHUNK", 2)
    leaves, loss_fn, share = head(_instances(3, seed=5))
    sel = np.arange(3)
    (a, b) = chunks = np.array_split(sel, 2)
    wa, wb = (np.float64(share(c) / share(sel)) for c in chunks)

    def loss():
        return loss_fn(a) * wa + loss_fn(b) * wb

    assert max_relative_error(loss, leaves,
                              backward=lambda: accumulate_gradients(loss_fn, sel, share)
                              ) < 1e-4


@pytest.mark.parametrize("head", ["seq", "rs"])
def test_fit_step_memory_does_not_grow_with_the_batch(head):
    """One full-batch step at full-scale head shapes (``tests/memory_probe.py``)
    peaks at 41.8 MiB (seq) and 13.7 MiB (rs) at B = 256 and 1024 alike;
    with the whole batch as one graph it took 73.4 and 272.3 MiB (seq),
    23.7 and 85.2 MiB (rs)."""
    assert fit_step_peak(head, 1024) < 1.1 * fit_step_peak(head, 256)
