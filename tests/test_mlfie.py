import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmash.dataio import HerbRecord, generate_synthetic
from fmash.errors import DataError, SchemaError
from fmash import mlfie
from fmash.mlfie import (AttentionParams, MlfieParams, VaeParams,
                         aggregate_attention_batch, alignment_loss,
                         all_herb_representations, attention_weights_batch,
                         complete_pairs, fuse_gate_batch, impute_missing,
                         molecule_batch, stub_encode_molecule,
                         train_property_alignment, train_vae, vae_loss)
from fmash.nn import Linear, stage_rng
from fmash.tape import Tensor
from gradcheck import as_float64, max_relative_error

FIXTURE_SMILES = ["CCO", "CCN", "c1ccccc1", "CC(=O)O", "C", "N", "O", "CCCC",
                  "C(=O)N", "ClCCl", "OCC(O)CO", "CC(C)C"]


def smoothed(losses, window=10):
    arr = np.asarray(losses)
    if arr.size < window:
        return arr
    kernel = np.ones(window) / window
    return np.convolve(arr, kernel, mode="valid")


# ---------------------------------------------------------------------------
# stub encoder
# ---------------------------------------------------------------------------

def test_stub_encoder_deterministic_and_normalized():
    for s in FIXTURE_SMILES:
        a = stub_encode_molecule(s, 16)
        b = stub_encode_molecule(s, 16)
        np.testing.assert_array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-6


def test_stub_encoder_separates_fixture_set():
    vecs = [stub_encode_molecule(s, 32) for s in FIXTURE_SMILES]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert not np.allclose(vecs[i], vecs[j]), \
                f"collision: {FIXTURE_SMILES[i]} vs {FIXTURE_SMILES[j]}"


def _hashed_ngrams_reference(smiles, d_m):
    """The stub encoder spelled out: every n-gram hashed where it occurs."""
    vec = np.zeros(d_m)
    padded = f"^{smiles}$"
    for n in (1, 2, 3):
        for i in range(len(padded) - n + 1):
            digest = hashlib.blake2b(padded[i:i + n].encode("utf-8"),
                                     digest_size=8).digest()
            vec[int.from_bytes(digest[:4], "little") % d_m] += \
                1.0 if digest[4] & 1 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm else np.eye(d_m)[0]


def test_stub_encoder_matches_hashing_every_ngram_where_it_occurs():
    # the per-gram cache serves repeated n-grams within and across strings
    for d_m in (8, 32):
        for s in FIXTURE_SMILES + ["CCCCCCCC", "OCC(O)CO"]:
            np.testing.assert_array_equal(stub_encode_molecule(s, d_m),
                                          _hashed_ngrams_reference(s, d_m))


def test_stub_encoder_rejects_empty_string():
    with pytest.raises(SchemaError):
        stub_encode_molecule("", 8)


# ---------------------------------------------------------------------------
# attention pooling
# ---------------------------------------------------------------------------

def _every_slot(e) -> np.ndarray:
    """The mask of an ``(H, K, d_m)`` batch whose every molecule slot is real."""
    return np.ones(e.shape[:2], dtype=bool)


def test_single_molecule_gets_full_weight():
    params = AttentionParams(4, 6, 3, stage_rng(0, "attn"))
    e = Tensor(np.random.default_rng(0).normal(size=(1, 1, 6)))
    p = Tensor(np.random.default_rng(1).normal(size=(1, 4)))
    v = aggregate_attention_batch(e, p, params, _every_slot(e))
    np.testing.assert_allclose(v.data, e.data[:, 0], atol=1e-12)
    alpha = attention_weights_batch(e, p, params, _every_slot(e))
    np.testing.assert_allclose(alpha.data, [[1.0]], atol=1e-15)


def test_zero_query_gives_uniform_mean():
    params = AttentionParams(4, 6, 3, stage_rng(1, "attn"))
    params.w_q.data[:] = 0.0
    rng = np.random.default_rng(2)
    e = rng.normal(size=(1, 5, 6))
    v = aggregate_attention_batch(Tensor(e), Tensor(rng.normal(size=(1, 4))), params,
                                  _every_slot(e))
    np.testing.assert_allclose(v.data, e.mean(axis=1), atol=1e-12)


def test_hand_built_logits_give_expected_softmax():
    # d_k = 1; query = 1; keys produce logits (0, ln 2) -> alpha = (1/3, 2/3)
    params = AttentionParams(1, 2, 1, stage_rng(2, "attn"))
    params.w_q.data = np.array([[1.0]])
    params.w_k.data = np.array([[1.0], [0.0]])
    e = np.array([[[0.0, 5.0], [np.log(2.0), -1.0]]])
    p = Tensor(np.array([[1.0]]))
    alpha = attention_weights_batch(Tensor(e), p, params, _every_slot(e))
    np.testing.assert_allclose(alpha.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)
    v = aggregate_attention_batch(Tensor(e), p, params, _every_slot(e))
    np.testing.assert_allclose(v.data, [(e[0, 0] + 2.0 * e[0, 1]) / 3.0], atol=1e-12)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_attention_simplex_and_convex_hull(k, seed):
    rng = np.random.default_rng(seed)
    params = AttentionParams(3, 5, 4, np.random.default_rng(seed + 1))
    e = Tensor(rng.normal(size=(1, k, 5)))
    p = Tensor(rng.normal(size=(1, 3)))
    alpha = attention_weights_batch(e, p, params, _every_slot(e)).data
    assert np.all(alpha >= 0.0)
    assert abs(alpha.sum() - 1.0) <= 1e-9
    v = aggregate_attention_batch(e, p, params, _every_slot(e)).data
    assert np.all(v >= e.data.min(axis=1) - 1e-12)
    assert np.all(v <= e.data.max(axis=1) + 1e-12)


def test_attention_invariant_to_molecule_order():
    rng = np.random.default_rng(5)
    params = AttentionParams(3, 5, 4, stage_rng(3, "attn"))
    e = rng.normal(size=(1, 6, 5))
    p = Tensor(rng.normal(size=(1, 3)))
    v1 = aggregate_attention_batch(Tensor(e), p, params, _every_slot(e)).data
    perm = rng.permutation(6)
    v2 = aggregate_attention_batch(Tensor(e[:, perm]), p, params, _every_slot(e)).data
    np.testing.assert_allclose(v1, v2, atol=1e-12)


def test_attention_requires_molecules():
    herbs = [HerbRecord(id=0, name="h0", properties=np.zeros(3), molecules=["CCO"]),
             HerbRecord(id=1, name="h1", properties=np.zeros(3))]
    with pytest.raises(DataError):
        molecule_batch(herbs, 5)


def test_attention_gradients():
    params = as_float64(AttentionParams(3, 4, 2, stage_rng(5, "attn")))
    e = Tensor(np.random.default_rng(6).normal(size=(1, 4, 4)), requires_grad=True)
    p = Tensor(np.random.default_rng(7).normal(size=(1, 3)), requires_grad=True)
    probe = np.random.default_rng(8).normal(size=(1, 4))

    def loss():
        return (aggregate_attention_batch(e, p, params, _every_slot(e)) * probe).sum()

    assert max_relative_error(loss, [e, p, params.w_q, params.w_k]) < 1e-4


# ---------------------------------------------------------------------------
# gate fusion
# ---------------------------------------------------------------------------

def test_zero_gate_averages_inputs():
    params = Linear(4, 4, stage_rng(6, "gate"))
    params.weight.data[:] = 0.0
    rng = np.random.default_rng(9)
    v, h = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    out = fuse_gate_batch(Tensor(v), Tensor(h), params)
    np.testing.assert_allclose(out.data, 0.5 * (v + h), atol=1e-12)


def test_saturated_gate_returns_pooled_vector():
    params = Linear(4, 4, stage_rng(7, "gate"))
    params.weight.data[:] = 0.0
    params.bias.data[:] = 50.0
    rng = np.random.default_rng(10)
    v, h = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    out = fuse_gate_batch(Tensor(v), Tensor(h), params)
    np.testing.assert_allclose(out.data, v, atol=1e-9)


def test_fixed_gate_blend():
    params = Linear(2, 2, stage_rng(8, "gate"))
    params.weight.data[:] = 0.0
    params.bias.data[:] = np.log(0.8 / 0.2)   # sigmoid -> 0.8
    v, h = Tensor(np.array([[1.0, 0.0]])), Tensor(np.array([[0.0, 1.0]]))
    out = fuse_gate_batch(v, h, params)
    np.testing.assert_allclose(out.data, [[0.8, 0.2]], atol=1e-12)


def test_gate_convexity_bounds_1000_random_inputs():
    rng = np.random.default_rng(11)
    params = Linear(6, 6, stage_rng(9, "gate"))
    for _ in range(1000):
        v, h = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
        out = fuse_gate_batch(Tensor(v), Tensor(h), params).data
        lo, hi = np.minimum(v, h), np.maximum(v, h)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_gate_gradients():
    params = as_float64(Linear(3, 3, stage_rng(11, "gate")))
    v = Tensor(np.random.default_rng(12).normal(size=(1, 3)), requires_grad=True)
    h = Tensor(np.random.default_rng(13).normal(size=(1, 3)), requires_grad=True)
    probe = np.random.default_rng(14).normal(size=(1, 3))

    def loss():
        return (fuse_gate_batch(v, h, params) * probe).sum()

    assert max_relative_error(loss, [v, h, params.weight, params.bias]) < 1e-4


# ---------------------------------------------------------------------------
# VAE
# ---------------------------------------------------------------------------

def _forced_encoder(params: VaeParams, mu_value: float) -> VaeParams:
    params.enc_mu.weight.data[:] = 0.0
    params.enc_mu.bias.data[:] = mu_value
    params.enc_logvar.weight.data[:] = 0.0
    params.enc_logvar.bias.data[:] = 0.0
    return params


def _no_noise(n: int, params: VaeParams, dtype=np.float64) -> np.ndarray:
    """Zero reparameterization noise for ``n`` rows: ``vae_loss`` then
    decodes the posterior means."""
    return np.zeros((n, params.d_z), dtype=dtype)


def test_kl_zero_at_standard_normal_posterior():
    params = _forced_encoder(VaeParams(3, 4, 2, stage_rng(12, "vae")), 0.0)
    _, kl, _ = vae_loss(np.ones((1, 3)), np.zeros((1, 4)), params, _no_noise(1, params))
    assert kl.item() == 0.0


def test_kl_closed_form_value():
    params = _forced_encoder(VaeParams(3, 4, 1, stage_rng(13, "vae")), 1.0)
    _, kl, _ = vae_loss(np.ones((1, 3)), np.zeros((1, 4)), params, _no_noise(1, params))
    assert abs(kl.item() - 0.5) < 1e-12


def test_perfect_reconstruction_zeroes_recon_term():
    params = VaeParams(3, 4, 2, stage_rng(14, "vae"))
    p = np.random.default_rng(15).normal(size=(1, 3))
    from fmash.tape import no_grad
    with no_grad():
        mu, _ = params.encode(Tensor(p))
        target = params.decode(mu).data
    _, _, recon = vae_loss(p, target, params, _no_noise(1, params))
    assert recon.item() < 1e-24


def test_kl_nonnegative_on_random_inputs():
    params = VaeParams(5, 4, 3, stage_rng(15, "vae"))
    rng = np.random.default_rng(16)
    for _ in range(50):
        _, kl, _ = vae_loss(rng.normal(size=(1, 5)), rng.normal(size=(1, 4)), params,
                            _no_noise(1, params))
        assert kl.item() >= 0.0


def _fixture_corpus():
    return generate_synthetic(10, 60, 5, 40, seed=7, missing_mol_fraction=0.2,
                              unique_symptom_sets=False)


def _batch(herbs, params):
    """The batch of the herbs that have molecules, as ``fit_mlfie`` builds it."""
    return molecule_batch([h for h in herbs if h.molecules], params.d_m)


def _representations(herbs, params):
    """``all_herb_representations`` from the pools ``complete_pairs`` gives."""
    _, pooled = complete_pairs(_batch(herbs, params), params)
    return all_herb_representations(herbs, pooled, params)


def _vae_fixture():
    """(property, pooled) pairs of the fixture's herbs with molecules and a
    fresh VAE."""
    _, herbs, _ = _fixture_corpus()
    params = MlfieParams(60, 23, 16, 8, 8, seed=3)
    props, targets = complete_pairs(_batch(herbs, params), params)
    return props, targets, VaeParams(23, 16, 8, stage_rng(3, "mlfie.vae"))


def test_train_vae_runs_one_loss_per_epoch_and_records_it(monkeypatch):
    props, targets, vae = _vae_fixture()
    eps = stage_rng(3, "mlfie.vae.noise").standard_normal(
        (len(props), vae.d_z)).astype(np.float32)
    first = vae_loss(props, targets, vae, eps=eps)[0].item()
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("eps"))
        return vae_loss(*args, **kwargs)

    monkeypatch.setattr(mlfie, "vae_loss", counted)
    losses = train_vae((props, targets), vae, epochs=25, lr=5e-3, seed=3)
    assert len(calls) == len(losses) == 25
    assert all(e is not None for e in calls)
    assert losses[0] == first


def test_train_vae_lowers_the_noise_free_objective():
    props, targets, vae = _vae_fixture()
    no_noise = _no_noise(len(props), vae, props.dtype)
    before = vae_loss(props, targets, vae, no_noise)[0].item()
    losses = train_vae((props, targets), vae, epochs=150, lr=5e-3, seed=3)
    after = vae_loss(props, targets, vae, no_noise)[0].item()
    assert after <= 0.5 * before
    assert losses[-1] < losses[0]


def test_train_vae_deterministic_under_seed():
    _, herbs, _ = _fixture_corpus()
    params = MlfieParams(60, 23, 16, 8, 8, seed=3)
    props, targets = complete_pairs(_batch(herbs, params), params)
    v1, v2 = (VaeParams(23, 16, 8, stage_rng(9, "mlfie.vae")) for _ in range(2))
    assert train_vae((props, targets), v1, epochs=30, lr=1e-2, seed=9) == \
        train_vae((props, targets), v2, epochs=30, lr=1e-2, seed=9)
    for k, a in v1.state_dict().items():
        np.testing.assert_array_equal(a, v2.state_dict()[k])


def test_train_vae_zero_epochs_returns_init():
    _, herbs, _ = _fixture_corpus()
    params = MlfieParams(60, 23, 16, 8, 8, seed=3)
    props, targets = complete_pairs(_batch(herbs, params), params)
    init = VaeParams(23, 16, 8, stage_rng(5, "mlfie.vae"))
    before = init.state_dict()
    assert train_vae((props, targets), init, epochs=0, lr=1e-2, seed=42) == []
    for k, a in init.state_dict().items():
        np.testing.assert_array_equal(a, before[k])


def test_train_vae_needs_enough_pairs():
    with pytest.raises(DataError):
        train_vae((np.zeros((5, 3)), np.zeros((5, 4))),
                  VaeParams(3, 4, 2, stage_rng(0, "mlfie.vae")),
                  epochs=200, lr=1e-2, seed=42)


def test_impute_deterministic_in_mean_mode():
    params = VaeParams(4, 6, 3, stage_rng(17, "vae"))
    p = np.random.default_rng(18).normal(size=(1, 4))
    np.testing.assert_array_equal(impute_missing(p, params),
                                  impute_missing(p, params))


def test_impute_rejects_wrong_property_length():
    params = VaeParams(4, 6, 3, stage_rng(18, "vae"))
    for shape in ((2, 5), (4,), (1, 2, 4)):
        with pytest.raises(SchemaError, match=r"expected \(N, 4\)"):
            impute_missing(np.zeros(shape), params)


def test_holdout_imputation_error_within_twice_train_median():
    _, herbs, _ = _fixture_corpus()
    params = MlfieParams(60, 23, 16, 8, 8, seed=3)
    batch = _batch(herbs, params)
    train_property_alignment(batch, params, epochs=40, lr=1e-2)
    props, targets = complete_pairs(batch, params)
    n_hold = max(4, len(props) // 5)
    hold_p, hold_v = props[-n_hold:], targets[-n_hold:]
    fit_p, fit_v = props[:-n_hold], targets[:-n_hold]
    vae = VaeParams(23, 16, 8, stage_rng(3, "mlfie.vae"))
    train_vae((fit_p, fit_v), vae, epochs=250, lr=5e-3, seed=3)
    train_err = [float(((impute_missing(p[None], vae)[0] - v) ** 2).sum())
                 for p, v in zip(fit_p, fit_v)]
    hold_err = [float(((impute_missing(p[None], vae)[0] - v) ** 2).sum())
                for p, v in zip(hold_p, hold_v)]
    assert np.median(hold_err) <= 2.0 * np.median(train_err)


# ---------------------------------------------------------------------------
# dispatch and pretraining
# ---------------------------------------------------------------------------

def test_representation_dispatch_paths():
    _, herbs, _ = _fixture_corpus()
    params = MlfieParams(60, 23, 16, 8, 8, seed=3)
    with_mols = next(h for h in herbs if len(h.molecules) >= 3)
    without = next(h for h in herbs if not h.molecules)
    reprs = _representations([with_mols, without], params)
    assert reprs.shape == (2, 16)
    assert np.isfinite(reprs).all()


def test_representation_bounded_by_pool_and_latent():
    _, herbs, _ = _fixture_corpus()
    params = MlfieParams(60, 23, 16, 8, 8, seed=4)
    batch = _batch(herbs[:30], params)
    _, pooled = complete_pairs(batch, params)
    ids = batch.ids
    fused = all_herb_representations(herbs[:30], pooled, params)[ids]
    he = params.latent.weight.data[ids]
    assert np.all(fused >= np.minimum(pooled, he) - 1e-12)
    assert np.all(fused <= np.maximum(pooled, he) + 1e-12)


def test_property_alignment_reduces_loss():
    _, herbs, _ = _fixture_corpus()
    params = MlfieParams(60, 23, 16, 8, 8, seed=5)
    losses = train_property_alignment(_batch(herbs, params), params, epochs=60,
                                      lr=1e-2)
    assert losses[-1] < losses[0]
    ma = smoothed(losses, window=10)
    assert ma[-1] <= ma[0]


# ---------------------------------------------------------------------------
# batched molecular stage
# ---------------------------------------------------------------------------

P_DIM, D_M, D_K = 5, 6, 4


def _mixed_herbs(seed, n=10, max_mols=4):
    """Herbs with 1..max_mols molecules, every fifth with no molecules at
    all."""
    rng = np.random.default_rng(seed)
    herbs = []
    for i in range(n):
        k = 0 if i % 5 == 4 else 1 + i % max_mols
        mols = [FIXTURE_SMILES[(i + j) % len(FIXTURE_SMILES)] for j in range(k)]
        herbs.append(HerbRecord(id=i, name=f"h{i}", properties=rng.normal(size=P_DIM),
                                molecules=mols))
    return herbs


def _params(n_herb, seed):
    return MlfieParams(n_herb, P_DIM, D_M, D_K, 3, seed=seed)


def _reference_pool(herb, attn):
    """One herb's attention pool in plain numpy, in the dtype of ``attn``
    from the float32 inputs the batched path builds."""
    e = np.asarray([stub_encode_molecule(m, D_M) for m in herb.molecules],
                   dtype=np.float32)
    props = herb.properties.astype(np.float32)
    logits = (e @ attn.w_k.data) @ (props @ attn.w_q.data) / np.sqrt(attn.d_k)
    alpha = np.exp(logits - logits.max())
    return (alpha / alpha.sum()) @ e


def test_batched_pool_matches_numpy_reference():
    herbs = _mixed_herbs(20)
    params = as_float64(_params(len(herbs), 6))
    batch = _batch(herbs, params)
    props, pooled = complete_pairs(batch, params)
    with_mols = [h for h in herbs if h.molecules]
    assert batch.ids.tolist() == [h.id for h in with_mols]
    assert {len(h.molecules) for h in with_mols} == {1, 2, 3, 4}
    ref = [_reference_pool(h, params.attention) for h in with_mols]
    np.testing.assert_allclose(pooled, ref, rtol=0.0, atol=1e-12)


def test_wider_herb_leaves_other_rows_unchanged():
    herbs = _mixed_herbs(21, n=9, max_mols=3)
    wide = HerbRecord(id=9, name="wide", properties=np.ones(P_DIM),
                      molecules=FIXTURE_SMILES[:7])
    params = as_float64(_params(10, 7))
    _, pooled = complete_pairs(_batch(herbs, params), params)
    _, pooled_wide = complete_pairs(_batch(herbs + [wide], params), params)
    np.testing.assert_allclose(pooled_wide[:-1], pooled, rtol=0.0, atol=1e-12)
    reprs = _representations(herbs, params)
    reprs_wide = _representations(herbs + [wide], params)
    np.testing.assert_allclose(reprs_wide[:-1], reprs, rtol=0.0, atol=1e-12)


def test_padded_slots_get_zero_weight_and_zero_gradient():
    herbs = [h for h in _mixed_herbs(22) if h.molecules]
    params = _params(10, 8)
    batch = molecule_batch(herbs, D_M)
    embs, mask = batch.embs, batch.mask
    assert (~mask).any() and mask.any(axis=1).all()
    props = Tensor(np.asarray([h.properties for h in herbs]))
    clean = aggregate_attention_batch(Tensor(embs), props, params.attention, mask).data
    # garbage in the padding must not leak into weights, values or gradients
    embs[~mask] = np.random.default_rng(23).normal(size=(int((~mask).sum()), D_M))
    mol = Tensor(embs, requires_grad=True)
    alpha = attention_weights_batch(mol, props, params.attention, mask).data
    assert np.all(alpha[~mask] == 0.0)
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    pooled = aggregate_attention_batch(mol, props, params.attention, mask)
    np.testing.assert_array_equal(pooled.data, clean)
    probe = np.random.default_rng(24).normal(size=pooled.shape)
    (pooled * probe).sum().backward(1.0)
    assert np.all(mol.grad[~mask] == 0.0)
    assert np.any(mol.grad[mask] != 0.0)


def test_molecule_batch_encodes_each_distinct_string_once(monkeypatch):
    calls = []
    real = mlfie.stub_encode_molecule
    monkeypatch.setattr(mlfie, "stub_encode_molecule",
                        lambda s, d: calls.append(s) or real(s, d))
    herbs = [HerbRecord(id=i, name=f"h{i}", properties=np.zeros(P_DIM),
                        molecules=["CCO", "CCN"][: 1 + i % 2]) for i in range(6)]
    batch = molecule_batch(herbs, D_M)
    assert sorted(calls) == ["CCN", "CCO"]
    for i, h in enumerate(herbs):
        for j, m in enumerate(h.molecules):
            np.testing.assert_array_equal(
                batch.embs[i, j], _hashed_ngrams_reference(m, D_M).astype(np.float32))
    assert batch.mask.sum() == 9


def test_batched_path_invariant_to_herb_and_molecule_order():
    herbs = _mixed_herbs(25)
    params = as_float64(_params(len(herbs), 9))
    reprs = _representations(herbs, params)
    perm = np.random.default_rng(26).permutation(len(herbs))
    np.testing.assert_allclose(_representations([herbs[i] for i in perm], params),
                               reprs[perm], rtol=0.0, atol=1e-12)
    reversed_mols = [replace(h, molecules=h.molecules[::-1]) for h in herbs]
    np.testing.assert_allclose(_representations(reversed_mols, params), reprs,
                               rtol=0.0, atol=1e-12)


def test_alignment_loss_gradients_over_mixed_molecule_counts():
    herbs = _mixed_herbs(27, n=7)
    params = as_float64(_params(len(herbs), 10))
    batch = _batch(herbs, params)
    leaves = (params.attention.parameters() + params.gate.parameters()
              + params.latent.parameters() + params.probe.parameters())
    assert max_relative_error(lambda: alignment_loss(batch, params), leaves) < 1e-4


def _graph_size(root):
    seen, todo = {id(root)}, [root]
    while todo:
        for parent in todo.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def test_alignment_epoch_node_count_independent_of_herb_count():
    sizes = []
    for n in (5, 60):
        herbs = _mixed_herbs(28, n=n)
        params = _params(n, 11)
        sizes.append(_graph_size(alignment_loss(_batch(herbs, params), params)))
    assert sizes[0] == sizes[1]
