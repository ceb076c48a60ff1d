"""Assembly of multiscale per-node features and compression to 64-d.

Herb rows concatenate [graph embedding | molecular representation |
property vector]; symptom rows concatenate [graph embedding | text
embedding], where symptoms without a provided text embedding fall back to a
fixed random per-symptom row that nothing trains.  A small autoencoder per
node type (the two assembled widths differ) is trained on reconstruction
MSE and its encoder provides the unified 64-d embeddings; with refinement
disabled a trained linear projection (a linear autoencoder) takes its
place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import HerbRecord, SymptomRecord, property_matrix
from .errors import DataError, SchemaError
from .nn import Linear, Module, fit, stage_rng
from .tape import Tensor, no_grad

UNIFIED_DIM = 64


@dataclass
class UnifiedEmbedding:
    """The shared per-node table both recommendation heads consume.

    Rows are symptoms then herbs, matching the global node order; the
    matrix is float32.
    """
    matrix: np.ndarray
    n_sym: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float32)

    @property
    def n_herb(self) -> int:
        return self.matrix.shape[0] - self.n_sym

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def sym(self) -> np.ndarray:
        return self.matrix[:self.n_sym]

    def herb(self) -> np.ndarray:
        return self.matrix[self.n_sym:]


def symptom_text_table(n_sym: int, d_text: int, seed: int) -> np.ndarray:
    """Fixed fallback rows for symptoms without provided text embeddings:
    a float32 ``(n_sym, d_text)`` draw of N(0, 0.1) from the
    ``refine.text_table`` stream.  Nothing trains it."""
    rng = stage_rng(seed, "refine.text_table")
    return rng.normal(0.0, 0.1, size=(n_sym, d_text)).astype(np.float32)


def text_rows(symptoms: list[SymptomRecord], table: np.ndarray) -> np.ndarray:
    """``(S, d_text)`` float32 text rows: each symptom's provided text
    embedding, else its row of the fallback ``table``."""
    d_text = table.shape[1]
    out = np.empty((len(symptoms), d_text), dtype=np.float32)
    for i, rec in enumerate(symptoms):
        if rec.text_embedding is not None:
            if rec.text_embedding.shape != (d_text,):
                raise SchemaError(
                    f"symptom {rec.name}: text embedding has shape "
                    f"{rec.text_embedding.shape}, expected ({d_text},)")
            out[i] = rec.text_embedding
        else:
            out[i] = table[rec.id]
    return out


def assemble_features(hgre_out: np.ndarray, symptoms: list[SymptomRecord],
                      herbs: list[HerbRecord], text_rows: np.ndarray,
                      herb_reprs: np.ndarray | None,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Build the float32 assembled matrices for both node types.

    ``herb_reprs`` is the molecular block; ``None`` drops it (the molecular
    stage was ablated).  Returns (sym_matrix, herb_matrix).
    """
    hgre_out = np.asarray(hgre_out, dtype=np.float32)
    s, h = len(symptoms), len(herbs)
    if hgre_out.shape[0] != s + h:
        raise SchemaError(f"graph embedding has {hgre_out.shape[0]} rows for "
                          f"{s} symptoms + {h} herbs")
    if text_rows.shape[0] != s:
        raise SchemaError("text embedding row count does not match symptoms")
    sym_matrix = np.concatenate([hgre_out[:s], text_rows], axis=1, dtype=np.float32)

    parts = [hgre_out[s:]]
    if herb_reprs is not None:
        herb_reprs = np.asarray(herb_reprs)
        if herb_reprs.shape[0] != h:
            raise SchemaError("molecular representation row count does not match herbs")
        parts.append(herb_reprs)
    parts.append(property_matrix(herbs))
    herb_matrix = np.concatenate(parts, axis=1, dtype=np.float32)
    return sym_matrix, herb_matrix


class AutoencoderParams(Module):
    """Encoder to a fixed 64-d latent and mirror decoder.

    ``hidden=None`` gives the linear variant (one matrix each way), used as
    the learned projection when refinement is switched off.
    """

    def __init__(self, d_in: int, rng: np.random.Generator, hidden: int | None = 128):
        self.hidden = hidden
        if hidden is None:
            self.enc = Linear(d_in, UNIFIED_DIM, rng)
            self.dec = Linear(UNIFIED_DIM, d_in, rng)
        else:
            self.enc1 = Linear(d_in, hidden, rng)
            self.enc2 = Linear(hidden, UNIFIED_DIM, rng)
            self.dec1 = Linear(UNIFIED_DIM, hidden, rng)
            self.dec2 = Linear(hidden, d_in, rng)

    def encode(self, x: Tensor) -> Tensor:
        if self.hidden is None:
            return self.enc(x)
        return self.enc2(self.enc1(x).silu())

    def decode(self, z: Tensor) -> Tensor:
        if self.hidden is None:
            return self.dec(z)
        return self.dec2(self.dec1(z).silu())


def _reconstruction_loss(x: Tensor, params: AutoencoderParams) -> Tensor:
    err = params.decode(params.encode(x)) - x
    return (err * err).mean()


def reconstruction_mse(matrix: np.ndarray, params: AutoencoderParams) -> float:
    with no_grad():
        return _reconstruction_loss(Tensor(matrix), params).item()


def train_autoencoder(matrix: np.ndarray, params: AutoencoderParams, *,
                      epochs: int = 200, lr: float = 1e-2, name: str = "fr",
                      ) -> list[float]:
    """Fit the compression autoencoder on assembled rows by MSE and return
    the per-epoch losses, each the full-batch MSE before that epoch's step,
    so the first is the MSE of the initialization; ``name`` is its history
    key, which a divergence error starts with.  The rows are cast to the
    parameters' dtype, so the fit runs in the model's own precision."""
    weights = params.parameters()
    x = Tensor(np.asarray(matrix, dtype=weights[0].data.dtype))
    if x.shape[0] < 8:
        raise DataError(f"need at least 8 rows to train, got {x.shape[0]}")
    if np.allclose(x.data, x.data[0]):
        import warnings
        warnings.warn("all assembled rows are identical; training anyway",
                      stacklevel=2)
    return list(fit(weights, lambda _: _reconstruction_loss(x, params),
                    x.shape[0], name=name, epochs=epochs, lr=lr))


def compress(matrix: np.ndarray, params: AutoencoderParams) -> np.ndarray:
    """Row-wise encoding to the unified 64-d space; pure function."""
    with no_grad():
        return params.encode(Tensor(matrix)).data.copy()


def export_unified(path, unified: np.ndarray, n_sym: int) -> None:
    """Write the unified table: header ``dim=64`` then
    ``node_type,node_id,f1..f64`` rows."""
    unified = np.asarray(unified)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={unified.shape[1]}\n")
        for i, row in enumerate(unified):
            node_type = "symptom" if i < n_sym else "herb"
            node_id = i if i < n_sym else i - n_sym
            vals = ",".join(repr(float(x)) for x in row)
            fh.write(f"{node_type},{node_id},{vals}\n")
