import numpy as np
import pytest

from fmash.dataio import generate_synthetic
from fmash.errors import DataError, SchemaError
from fmash.refine import (AutoencoderParams, assemble_features, compress,
                          export_unified, reconstruction_mse, text_rows,
                          train_autoencoder)
from fmash.nn import stage_rng


def _corpus(seed=0, with_text=True):
    """A small corpus's symptoms and herbs; ``with_text`` gives every symptom
    an 8-wide text embedding."""
    sym, herbs, _ = generate_synthetic(9, 14, 2, 20, seed=seed, unique_symptom_sets=False)
    if with_text:
        text = stage_rng(seed, "text").normal(size=(len(sym), 8))
        for rec, row in zip(sym, text):
            rec.text_embedding = row
    return sym, herbs


def _assembled(seed=0, with_text=True, with_mols=True):
    d, d_m = 32, 16
    sym, herbs = _corpus(seed, with_text)
    rng = np.random.default_rng(seed)
    hgre_out = rng.normal(size=(23, d))
    rows = text_rows(sym)
    herb_reprs = rng.normal(size=(14, d_m)) if with_mols else None
    return assemble_features(hgre_out, sym, herbs, rows, herb_reprs)


def test_assembled_widths_follow_concatenation_arithmetic():
    sym_m, herb_m = _assembled()
    assert sym_m.shape == (9, 32 + 8)
    assert herb_m.shape == (14, 32 + 16 + 23)


def test_assemble_without_molecular_block():
    _, herb_m = _assembled(with_mols=False)
    with_mols = _assembled()[1]
    assert herb_m.shape == (14, 32 + 23)
    np.testing.assert_array_equal(herb_m, np.delete(with_mols, np.s_[32:48], axis=1))


def test_zero_components_give_zero_rows():
    sym, herbs, _ = generate_synthetic(6, 8, 1, 10, seed=1, unique_symptom_sets=False)
    for h in herbs:
        h.properties = np.zeros_like(h.properties)
    for s in sym:
        s.text_embedding = np.zeros(4)
    sym_m, herb_m = assemble_features(
        np.zeros((14, 5)), sym, herbs, text_rows(sym), np.zeros((8, 3)))
    assert sym_m.shape == (6, 5 + 4)
    assert not sym_m.any()
    assert not herb_m.any()


def test_symptom_rows_are_graph_rows_then_provided_text():
    with_text = _assembled()[0]
    without_text = _assembled(with_text=False)[0]
    np.testing.assert_array_equal(without_text, with_text[:, :32])
    sym, _ = _corpus()
    np.testing.assert_array_equal(
        with_text[:, 32:], np.array([r.text_embedding for r in sym], dtype=np.float32))


def test_text_rows_stack_the_provided_embeddings_or_are_none():
    sym, _, _ = generate_synthetic(5, 8, 1, 10, seed=2, unique_symptom_sets=False)
    assert text_rows(sym) is None
    for rec in sym:
        rec.text_embedding = np.arange(6.0) + rec.id
    rows = text_rows(sym)
    assert rows.dtype == np.float32
    np.testing.assert_array_equal(rows[2], np.arange(6.0) + 2)


def test_row_count_mismatch_rejected():
    sym, herbs, _ = generate_synthetic(5, 8, 1, 10, seed=3, unique_symptom_sets=False)
    rows = text_rows(sym)
    with pytest.raises(SchemaError):
        assemble_features(np.zeros((12, 4)), sym, herbs, rows, None)


# ---------------------------------------------------------------------------
# autoencoder
# ---------------------------------------------------------------------------

def test_small_input_reaches_near_zero_mse():
    # assembled width <= latent width: the identity map is representable
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(30, 20))
    params = AutoencoderParams(20, stage_rng(4, "refine.ae"))
    losses = train_autoencoder(matrix, params, epochs=400, lr=1e-2)
    assert losses[-1] <= 1e-3
    assert reconstruction_mse(matrix, params) <= 1e-3


def test_zero_epochs_returns_initialization():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(10, 6))
    init = AutoencoderParams(6, stage_rng(9, "ae"))
    before = init.state_dict()
    assert train_autoencoder(matrix, init, epochs=0) == []
    for k, v in init.state_dict().items():
        np.testing.assert_array_equal(v, before[k])


def test_training_deterministic_under_seed():
    matrix = np.random.default_rng(6).normal(size=(12, 9))
    p1, p2 = (AutoencoderParams(9, stage_rng(11, "refine.ae")) for _ in range(2))
    assert train_autoencoder(matrix, p1, epochs=50) == \
        train_autoencoder(matrix, p2, epochs=50)
    for k, v in p1.state_dict().items():
        np.testing.assert_array_equal(v, p2.state_dict()[k])


def test_degenerate_identical_rows_warn_but_train():
    matrix = np.tile(np.arange(5.0), (10, 1))
    params = AutoencoderParams(5, stage_rng(42, "refine.ae"))
    with pytest.warns(UserWarning):
        losses = train_autoencoder(matrix, params, epochs=5)
    assert len(losses) == 5


def test_too_few_rows_rejected():
    params = AutoencoderParams(3, stage_rng(42, "refine.ae"))
    with pytest.raises(DataError):
        train_autoencoder(np.zeros((4, 3)), params)


def test_training_halves_initial_mse():
    _, herb_m = _assembled(seed=7)
    params = AutoencoderParams(herb_m.shape[1], stage_rng(13, "ae"))
    initial = reconstruction_mse(herb_m, params)
    train_autoencoder(herb_m, params, epochs=300, lr=1e-2)
    assert reconstruction_mse(herb_m, params) <= 0.5 * initial


def test_compress_is_64d_rowwise_and_deterministic():
    sym_m, _ = _assembled(seed=8)
    params = AutoencoderParams(sym_m.shape[1], stage_rng(8, "refine.ae"))
    train_autoencoder(sym_m, params, epochs=30)
    z = compress(sym_m, params)
    assert z.shape == (sym_m.shape[0], 64)
    np.testing.assert_array_equal(z, compress(sym_m, params))
    # row-wise: shuffling rows shuffles outputs identically
    perm = np.random.default_rng(0).permutation(sym_m.shape[0])
    np.testing.assert_allclose(compress(sym_m[perm], params), z[perm], atol=1e-12)
    # identical input rows -> identical outputs
    dup = np.vstack([sym_m[0], sym_m[0]])
    zz = compress(dup, params)
    np.testing.assert_array_equal(zz[0], zz[1])


def test_reported_error_recomputes_as_mse():
    matrix = np.random.default_rng(9).normal(size=(15, 10))
    params = AutoencoderParams(10, stage_rng(10, "refine.ae"))
    train_autoencoder(matrix, params, epochs=40)
    from fmash.tape import Tensor, no_grad
    with no_grad():
        x = Tensor(matrix)
        err = params.decode(params.encode(x)) - x
        direct = float((err.data ** 2).mean())
    assert abs(reconstruction_mse(matrix, params) - direct) < 1e-15


def test_linear_variant_is_learned_projection():
    matrix = np.random.default_rng(10).normal(size=(20, 70))
    params = AutoencoderParams(70, stage_rng(12, "refine.ae"), hidden=None)
    losses = train_autoencoder(matrix, params, epochs=60)
    assert params.hidden is None
    assert compress(matrix, params).shape == (20, 64)
    assert losses[-1] < losses[0]


def test_unified_export_roundtrip(tmp_path):
    unified = np.random.default_rng(11).normal(size=(12, 64))
    path = tmp_path / "unified.csv"
    export_unified(path, unified, n_sym=5)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "dim=64"
    assert [row.split(",")[:2] for row in rows] == \
        [["symptom", str(i)] for i in range(5)] + [["herb", str(i)] for i in range(7)]
    loaded = np.array([[float(x) for x in row.split(",")[2:]] for row in rows])
    np.testing.assert_array_equal(loaded, unified)
