import numpy as np
import pytest
from decode_reference import full_prefix_generate

from fmash import nn, tape
from fmash.dataio import PrescriptionInstance, generate_synthetic
from fmash.errors import DataError, NumericError
from fmash.refine import UnifiedEmbedding
from fmash.seqgen import (Seq2SeqParams, TokenVocab, decoder_cache,
                          decoder_logits, encode_batch, generate, make_batch,
                          sequence_loss, train_seq)
from fmash.tape import no_grad
from gradcheck import as_float64, one_layer_per_stack


def _emb(n_sym=6, n_herb=8, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return UnifiedEmbedding(matrix=rng.normal(size=(n_sym + n_herb, d)), n_sym=n_sym)


def _inst(i, syms, herbs):
    return PrescriptionInstance(instance_id=i, symptoms=frozenset(syms), herbs=list(herbs))


def test_vocab_reserved_tokens_outside_herb_range():
    """BOS is only ever an input and EOS only ever a target: each is the
    one row or column its table adds after the herbs."""
    v = TokenVocab(10)
    assert (v.bos, v.eos) == (10, 10)
    assert v.is_herb(9) and not v.is_herb(10)
    params = Seq2SeqParams(_emb(n_herb=10), seed=1)
    assert params.tok_embed.shape == (11, 8)
    assert params.out.weight.shape == (8, 11) and params.out.bias.shape == (11,)


def test_target_embeddings_initialized_from_unified_herbs():
    emb = _emb()
    params = Seq2SeqParams(emb, seed=1)
    np.testing.assert_array_equal(params.tok_embed.data[:8], emb.herb())


def test_heads_share_one_read_only_sinusoid_table():
    a, b = Seq2SeqParams(_emb(), seed=1), Seq2SeqParams(_emb(seed=1), seed=2)
    assert a.positions is b.positions
    assert not a.positions.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a.positions[0, 0] = 1.0


def test_encode_single_symptom_shape():
    emb = _emb()
    params = Seq2SeqParams(emb, seed=2)
    memory, bias = encode_batch([[3]], params)
    assert memory.shape == (1, 1, 8)
    assert bias.tolist() == [[[[0.0]]]]


def test_encode_canonicalizes_symptom_order():
    emb = _emb()
    params = Seq2SeqParams(emb, seed=3)
    a = encode_batch([[4, 1, 2]], params)[0].data
    b = encode_batch([[2, 4, 1]], params)[0].data
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, encode_batch([[4, 1, 2]], params)[0].data)


def test_encode_rejects_unknown_and_empty():
    params = Seq2SeqParams(_emb(), seed=4)
    with pytest.raises(DataError):
        encode_batch([[99]], params)
    with pytest.raises(DataError):
        encode_batch([[]], params)


# ---------------------------------------------------------------------------
# loss mechanics
# ---------------------------------------------------------------------------

def test_a_batch_packs_each_instance_input_and_target_tokens():
    vocab = TokenVocab(8)
    batch = make_batch([_inst(0, {3, 0}, [2, 5, 1]), _inst(1, {2}, [7])], vocab)
    assert batch.symptom_sets == [frozenset({0, 3}), frozenset({2})]
    assert batch.rows.tolist() == [[True] * 4, [True, True, False, False]]
    assert batch.inputs.tolist() == [8, 2, 5, 1, 8, 7]
    assert batch.targets.tolist() == [2, 5, 1, 8, 7, 8]


def test_teacher_forcing_causality_exact():
    emb = _emb()
    params = Seq2SeqParams(emb, seed=6)
    with no_grad():
        memory, bias = encode_batch([[0, 1]], params)
        tokens = np.array([[params.vocab.bos, 2, 5, 1]], dtype=np.intp)
        full = decoder_logits(decoder_cache(memory, bias, params), tokens, params).data
        mutated = tokens.copy()
        mutated[0, 3] = 7    # change the last target token
        partial = decoder_logits(decoder_cache(memory, bias, params), mutated,
                                 params).data
    np.testing.assert_array_equal(full[0, :3], partial[0, :3])


def test_a_mixed_length_batch_is_the_token_weighted_mean_of_its_instances():
    """Teacher forcing runs each target's tokens alone, whatever the width
    of the batch: a batch's loss and every gradient equal the
    token-weighted mean of its instances run one at a time."""
    emb = _emb(seed=8)
    params = as_float64(Seq2SeqParams(emb, seed=8))
    instances = [_inst(0, {0, 2}, [1, 4, 6, 0, 3]), _inst(1, {1}, [2]),
                 _inst(2, {3, 4, 5}, [7, 5, 1]), _inst(3, {2, 5}, [0, 6])]
    names = [name for name, t in params.named_tensors() if t.requires_grad]
    weights = [len(inst.herbs) + 1 for inst in instances]

    def run(batch):
        for p in params.parameters():
            p.grad = None
        loss = sequence_loss(make_batch(batch, params.vocab), params)
        loss.backward(1.0)
        return loss.item(), [p.grad.copy() for p in params.parameters()]

    loss, grads = run(instances)
    singles = [run([inst]) for inst in instances]
    total = sum(weights)
    expected_loss = sum(w * l for w, (l, _) in zip(weights, singles)) / total
    assert abs(loss - expected_loss) <= 1e-12 * abs(expected_loss)
    for i, (name, grad) in enumerate(zip(names, grads)):
        expected = sum(w * g[i] for w, (_, g) in zip(weights, singles)) / total
        assert np.abs(grad - expected).max() <= 1e-12 * np.abs(expected).max(), name


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _training_setup(seed=0):
    sym, herbs, pres = generate_synthetic(12, 12, 2, 20, seed=seed)
    rng = np.random.default_rng(seed + 1)
    emb = UnifiedEmbedding(matrix=rng.normal(size=(24, 8)), n_sym=12)
    return pres, emb


def test_training_reduces_loss():
    pres, emb = _training_setup()
    result = train_seq(pres, emb, epochs=40, lr=3e-3, batch_size=None, seed=1,
                       params=Seq2SeqParams(emb, 1))
    assert result.losses[-1] < result.losses[0]


def test_zero_epochs_returns_init():
    pres, emb = _training_setup(seed=2)
    init = Seq2SeqParams(emb, seed=9)
    before = init.state_dict()
    result = train_seq(pres, emb, epochs=0, lr=3e-3, batch_size=None, seed=42, params=init)
    assert result.losses == []
    for k, v in result.params.state_dict().items():
        np.testing.assert_array_equal(v, before[k])


def test_training_deterministic():
    pres, emb = _training_setup(seed=3)
    r1, r2 = (train_seq(pres, emb, epochs=8, lr=3e-3, batch_size=8, seed=4,
                        params=Seq2SeqParams(emb, 4)) for _ in range(2))
    assert r1.losses == r2.losses


def test_empty_split_rejected():
    _, emb = _training_setup(seed=4)
    with pytest.raises(DataError):
        train_seq([], emb, epochs=300, lr=3e-3, batch_size=None, seed=42)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_forced_eos_gives_empty_formula():
    emb = _emb()
    params = Seq2SeqParams(emb, seed=10)
    params.out.bias.data[params.vocab.eos] = 1e3
    assert generate([0, 1], params, max_len=5) == []


def test_suppressed_eos_emits_exactly_max_len_distinct_herbs():
    emb = _emb()
    params = Seq2SeqParams(emb, seed=11)
    params.out.bias.data[params.vocab.eos] = -1e3
    seq = generate([0, 1], params, max_len=3)
    assert len(seq) == 3
    assert len(set(seq)) == 3
    assert all(params.vocab.is_herb(h) for h in seq)


def test_generation_never_repeats_or_emits_reserved():
    emb = _emb(n_herb=5)
    params = Seq2SeqParams(emb, seed=12)
    params.out.bias.data[params.vocab.eos] = -1e3
    seq = generate([2, 3], params, max_len=10)
    assert len(seq) == len(set(seq)) == 5   # exhausts the vocabulary then stops
    assert all(params.vocab.is_herb(h) for h in seq)


def test_generation_deterministic():
    emb = _emb()
    params = Seq2SeqParams(emb, seed=13)
    a = generate([1, 4], params, max_len=6)
    b = generate([1, 4], params, max_len=6)
    assert a == b


def test_generate_validates_max_len():
    params = Seq2SeqParams(_emb(), seed=14)
    with pytest.raises(DataError, match="max_len"):
        generate([0], params, max_len=0)


def test_suppressed_eos_decodes_up_to_the_last_position():
    """With EOS pushed down, every herb comes first, each once, and EOS
    follows the last one: that step's input, the last herb, sits at
    position n_herb, the last one a target sequence can reach."""
    n_herb = 600
    params = one_layer_per_stack(Seq2SeqParams(_emb(n_herb=n_herb, d=4), seed=15))
    assert params.positions.shape[0] == n_herb + 1
    params.out.bias.data[params.vocab.eos] = -1e3
    seq = generate([0, 1], params, max_len=n_herb + 5)
    assert sorted(seq) == list(range(n_herb))


def test_a_step_past_the_last_position_raises_instead_of_returning_no_rows():
    params = one_layer_per_stack(Seq2SeqParams(_emb(d=4), seed=15))
    with no_grad():
        cache = decoder_cache(*encode_batch([[0]], params), params)
        decoder_logits(cache, np.zeros((1, 9), dtype=np.intp), params)
        with pytest.raises(IndexError):
            decoder_logits(cache, [[1]], params)


def test_positions_cover_a_symptom_set_longer_than_any_target():
    params = one_layer_per_stack(Seq2SeqParams(_emb(n_sym=12, n_herb=3, d=4), seed=15))
    assert params.positions.shape[0] == 12
    memory, bias = encode_batch([range(12)], params)
    assert memory.shape == (1, 12, 4) and not bias.any()
    assert len(generate(range(12), params, max_len=3)) <= 3


def test_non_finite_step_scores_raise():
    params = Seq2SeqParams(_emb(), seed=16)
    params.out.bias.data[3] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        generate([0, 1], params, max_len=5)


# ---------------------------------------------------------------------------
# the decoder cache against a full-prefix recomputation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eos_bias, max_len", [
    (None, 12),     # the random head's own stops
    (1e3, 5),       # forced EOS: an empty formula
    (-1e3, 5),      # suppressed EOS: stops at max_len
    (-1e3, 12),     # suppressed EOS: stops when the 8 herbs are spent
], ids=["random", "forced-eos", "max-len", "exhausted"])
@pytest.mark.parametrize("seed", [20, 21, 22])
def test_cached_decode_matches_full_prefix_decode(eos_bias, max_len, seed):
    params = Seq2SeqParams(_emb(seed=seed), seed=seed)
    if eos_bias is not None:
        params.out.bias.data[params.vocab.eos] = eos_bias
    for symptoms in ([0], [1, 4], [5, 2, 3]):
        expected = full_prefix_generate(symptoms, params, max_len)
        assert generate(symptoms, params, max_len=max_len) == expected
        if eos_bias == 1e3:
            assert expected == []
        elif eos_bias == -1e3:
            assert len(expected) == min(max_len, 8)


def test_cached_step_logits_match_full_prefix_logits_in_float64():
    params = as_float64(Seq2SeqParams(_emb(), seed=23))
    tokens = np.array([[params.vocab.bos, 2, 5, 1, 7, 0],
                       [params.vocab.bos, 6, 3, 4, 1, 2]])
    with no_grad():
        memory, bias = encode_batch([[3], [0, 4, 5]], params)    # one padded key
        cache = decoder_cache(memory, bias, params)
        for t in range(tokens.shape[1]):
            step = decoder_logits(cache, tokens[:, t:t + 1], params).data[:, -1]
            full = decoder_logits(decoder_cache(memory, bias, params),
                                  tokens[:, :t + 1], params).data[:, -1]
            assert step.dtype == np.float64 and cache.length == t + 1
            assert np.abs(step - full).max() <= 1e-10 * np.abs(full).max()


# the tensors one cached one-token ``decoder_logits`` call constructs: with
# one tape node per attention call and per feed-forward block, 44 (48 with
# each feed-forward block as linear, silu and linear nodes, 111 with each
# attention spelled out in primitive nodes too)
DECODE_STEP_TENSORS = 44


def test_a_cached_decoding_step_stays_within_its_tensor_budget(monkeypatch):
    params = Seq2SeqParams(_emb(), seed=24)
    biases, tensors = [], [0]
    real_bias, real_init = nn.causal_bias, tape.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tensors[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(nn, "causal_bias", lambda *a: biases.append(a) or real_bias(*a))
    with no_grad():
        memory, bias = encode_batch([[1, 4]], params)
        cache = decoder_cache(memory, bias, params)
        decoder_logits(cache, np.array([[params.vocab.bos, 3]]), params)
        # a two-token call masks its second query's view of the first
        assert len(biases) == len(params.dec_layers)
        biases.clear()
        monkeypatch.setattr(tape.Tensor, "__init__", counting_init)
        decoder_logits(cache, np.array([[5]]), params)
        monkeypatch.setattr(tape.Tensor, "__init__", real_init)
    # one query sees every cached key: its causal bias would be all zeros
    assert biases == []
    assert 0 < tensors[0] <= DECODE_STEP_TENSORS
    assert cache.length == 3


def test_memorizes_small_fixture():
    pres, emb = _training_setup(seed=5)
    subset = pres[:8]
    result = train_seq(subset, emb, epochs=220, lr=3e-3, batch_size=None, seed=6,
                       params=Seq2SeqParams(emb, 6))
    exact = sum(generate(p.symptoms, result.params, max_len=12) == list(p.herbs)
                for p in subset)
    assert exact >= 7
