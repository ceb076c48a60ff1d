import numpy as np
import pytest

from fmash.dataio import PrescriptionInstance, generate_synthetic
from fmash.errors import DataError
from fmash.recsys import (GelramParams, PlainScorerParams, gelram_score, multi_hot,
                          recommend, rs_logits, train_rs, weighted_herb)
from fmash.refine import UnifiedEmbedding
from fmash.tape import Tensor
from gradcheck import as_float64, max_relative_error


def _emb(n_sym=6, n_herb=10, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return UnifiedEmbedding(matrix=rng.normal(size=(n_sym + n_herb, d)), n_sym=n_sym)


def _inst(i, syms, herbs):
    return PrescriptionInstance(instance_id=i, symptoms=frozenset(syms), herbs=list(herbs))


# ---------------------------------------------------------------------------
# first-pass matcher
# ---------------------------------------------------------------------------

def _weighted_herb(s, herb_table):
    """The probability-weighted herb vector h_w that the first-pass matcher
    of ``rs_logits`` forms for one symptom set whose summed embedding is
    ``s``."""
    return weighted_herb(Tensor(np.asarray(s)[None]), Tensor(herb_table)).data[0]


def test_orthogonal_rows_give_uniform_probabilities():
    table = np.eye(4)[:3]          # rows orthogonal to s
    s = np.array([0.0, 0.0, 0.0, 5.0])
    np.testing.assert_allclose(_weighted_herb(s, table), table.mean(axis=0), atol=1e-12)


def test_aligned_row_concentrates_probability():
    rng = np.random.default_rng(1)
    s = rng.normal(size=6)
    s /= np.linalg.norm(s)
    table = rng.normal(size=(8, 6))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    table[3] = 50.0 * s
    np.testing.assert_allclose(_weighted_herb(s, table), table[3], atol=1e-5)


def test_probabilities_on_simplex():
    # a convex combination of the herb rows stays inside their hull
    rng = np.random.default_rng(2)
    for _ in range(20):
        table = rng.normal(size=(7, 5))
        h_w = _weighted_herb(rng.normal(size=5), table)
        assert np.all(h_w >= table.min(axis=0) - 1e-12)
        assert np.all(h_w <= table.max(axis=0) + 1e-12)


def test_weighted_herb_examples():
    table = np.array([[4.0, 0.0], [0.0, 4.0]])
    # logits (0, ln 3) give probabilities (1/4, 3/4)
    s = np.array([0.0, np.log(3.0) * np.sqrt(2.0) / 4.0])
    np.testing.assert_allclose(_weighted_herb(s, table), [1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(_weighted_herb(np.array([50.0, 0.0]), table), table[0],
                               atol=1e-12)
    np.testing.assert_allclose(_weighted_herb(np.zeros(2), table), table.mean(axis=0),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# scoring head
# ---------------------------------------------------------------------------

def test_scores_invariant_to_symptom_order():
    emb = _emb()
    params = GelramParams(8, 10, seed=1, d_enc=16)
    a = gelram_score([3, 1, 4], emb, params)
    b = gelram_score([4, 3, 1], emb, params)
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.ranking, b.ranking)


def test_zero_head_gives_constant_half_and_identity_ranking():
    emb = _emb()
    params = GelramParams(8, 10, seed=2, d_enc=16)
    params.out.weight.data[:] = 0.0
    params.out.bias.data[:] = 0.0
    result = gelram_score([0, 1], emb, params)
    np.testing.assert_allclose(result.scores, 0.5, atol=1e-15)
    np.testing.assert_array_equal(result.ranking, np.arange(10))


def test_ranking_is_permutation_and_topk_prefix_consistent():
    emb = _emb(seed=5)
    params = GelramParams(8, 10, seed=3, d_enc=16)
    result = gelram_score([2, 5], emb, params)
    assert sorted(result.ranking.tolist()) == list(range(10))
    for k in range(1, 10):
        prefix = [h for h, _ in recommend([2, 5], k, params, emb)]
        longer = [h for h, _ in recommend([2, 5], k + 1, params, emb)]
        assert longer[:k] == prefix


def test_recommend_k_bounds():
    emb = _emb()
    params = GelramParams(8, 10, seed=4, d_enc=16)
    assert len(recommend([1], 10, params, emb)) == 10
    top1 = recommend([1], 1, params, emb)
    full = gelram_score([1], emb, params)
    assert top1[0][0] == int(full.ranking[0]) == int(np.argmax(full.scores))
    with pytest.raises(ValueError):
        recommend([1], 11, params, emb)
    with pytest.raises(ValueError):
        recommend([1], 0, params, emb)


def test_unknown_symptom_rejected():
    emb = _emb()
    params = GelramParams(8, 10, seed=5, d_enc=16)
    with pytest.raises(DataError):
        gelram_score([99], emb, params)


def test_plain_scorer_shape_and_order_invariance():
    emb = _emb()
    params = PlainScorerParams(8, 10, seed=6)
    a = gelram_score([1, 2, 3], emb, params)
    b = gelram_score([3, 2, 1], emb, params)
    np.testing.assert_array_equal(a.scores, b.scores)
    assert a.scores.shape == (10,)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _toy_training_setup(seed=0):
    sym, herbs, pres = generate_synthetic(12, 12, 2, 24, seed=seed)
    rng = np.random.default_rng(seed + 1)
    emb = UnifiedEmbedding(matrix=rng.normal(size=(24, 8)), n_sym=12)
    return pres, emb


def _small_head(emb, seed):
    return GelramParams(emb.dim, emb.n_herb, seed, d_enc=16)


def test_training_loss_decreases_smoothed():
    pres, emb = _toy_training_setup()
    result = train_rs(pres, emb, epochs=60, lr=5e-3, batch_size=None, seed=1,
                      params=_small_head(emb, 1))
    ma = np.convolve(result.losses, np.ones(10) / 10, mode="valid")
    assert np.all(np.diff(ma) <= 1e-9)
    assert result.losses[-1] < result.losses[0]


def test_all_positive_targets_saturate_scores():
    pres, emb = _toy_training_setup(seed=2)
    every_herb = list(range(emb.n_herb))
    pres = [_inst(p.instance_id, p.symptoms, every_herb) for p in pres]
    result = train_rs(pres, emb, epochs=120, lr=1e-2, batch_size=None, seed=2,
                      params=_small_head(emb, 2))
    mean_score = np.mean([gelram_score(p.symptoms, emb, result.params).scores.mean()
                          for p in pres[:8]])
    assert mean_score > 0.9


def test_zero_epochs_returns_initialization():
    pres, emb = _toy_training_setup(seed=3)
    init = GelramParams(8, 12, seed=9, d_enc=16)
    before = init.state_dict()
    result = train_rs(pres, emb, epochs=0, lr=3e-3, batch_size=None, seed=42, params=init)
    assert result.losses == []
    for k, v in result.params.state_dict().items():
        np.testing.assert_array_equal(v, before[k])


def test_training_deterministic_under_seed():
    pres, emb = _toy_training_setup(seed=4)
    r1, r2 = (train_rs(pres, emb, epochs=15, lr=3e-3, batch_size=8, seed=11,
                       params=_small_head(emb, 11)) for _ in range(2))
    assert r1.losses == r2.losses
    for k, v in r1.params.state_dict().items():
        np.testing.assert_array_equal(v, r2.params.state_dict()[k])


def test_empty_split_rejected():
    _, emb = _toy_training_setup(seed=5)
    with pytest.raises(DataError):
        train_rs([], emb, epochs=300, lr=3e-3, batch_size=None, seed=42)


def test_plain_scorer_trains():
    pres, emb = _toy_training_setup(seed=6)
    result = train_rs(pres, emb, epochs=40, lr=1e-2, batch_size=None, seed=6,
                      params=PlainScorerParams(emb.dim, emb.n_herb, 6))
    assert isinstance(result.params, PlainScorerParams)
    assert result.losses[-1] < result.losses[0]


class _FullLayer:
    """An encoder layer that runs every position even when asked for the
    first row only, and then takes that row: the reference for the
    [CLS]-only last layer."""

    def __init__(self, layer):
        self.layer = layer

    def __call__(self, x, bias, first_only=False):
        out = self.layer(x, bias)
        return out[:, 0] if first_only else out


@pytest.mark.parametrize("n_layers", [1, 2])
def test_cls_only_last_layer_matches_running_every_row(n_layers):
    emb = _emb(n_sym=7, n_herb=9, d=8, seed=14)
    params = as_float64(GelramParams(8, 9, seed=15, d_enc=16))
    params.layers = params.layers[:n_layers]
    sets = [[0, 2, 5], [1], [0, 1, 3, 4, 6], [6, 2]]
    targets = multi_hot([[0, 3], [2], [1, 4, 8], [7]], 9)
    got = [rs_logits(sets, emb, params, sym_table=Tensor(emb.sym()),
                     herb_table=Tensor(emb.herb()), targets=t).data
           for t in (None, targets)]
    params.layers = [_FullLayer(layer) for layer in params.layers]
    want = [rs_logits(sets, emb, params, sym_table=Tensor(emb.sym()),
                      herb_table=Tensor(emb.herb()), targets=t).data
            for t in (None, targets)]
    for a, b in zip(got, want):
        assert a.dtype == np.float64
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_layers", [1, 2])
def test_rs_loss_gradients_match_finite_differences(n_layers):
    """With two layers, a full layer feeds the [CLS]-only last one."""
    emb = _emb(n_sym=4, n_herb=5, d=4, seed=8)
    params = as_float64(GelramParams(4, 5, seed=12, d_enc=8))
    params.layers = params.layers[:n_layers]
    sets = [[0, 2], [1], [0, 1, 3]]
    targets = multi_hot([[0, 3], [2], [1, 4]], 5)
    sym_t = as_float64(Tensor(emb.sym(), requires_grad=True))
    herb_t = as_float64(Tensor(emb.herb(), requires_grad=True))

    def loss():
        return rs_logits(sets, emb, params, sym_table=sym_t, herb_table=herb_t,
                         targets=targets)

    leaves = [sym_t, herb_t] + params.parameters()
    assert max_relative_error(loss, leaves) < 1e-4


def test_plain_scorer_gradients():
    emb = _emb(n_sym=4, n_herb=5, d=4, seed=9)
    params = as_float64(PlainScorerParams(4, 5, seed=13))
    sets = [[0, 1], [2, 3]]
    targets = multi_hot([[0], [4]], 5)

    def loss():
        return rs_logits(sets, emb, params, targets=targets)

    assert max_relative_error(loss, params.parameters()) < 1e-4
