"""Assembly of multiscale per-node features and compression to 64-d.

Herb rows concatenate [graph embedding | molecular representation |
property vector]; symptom rows are [graph embedding], or [graph embedding |
text embedding] when the corpus gives every symptom a text embedding (it
gives all or none).  A small autoencoder per node type (the two assembled
widths differ) is trained on reconstruction MSE and its encoder provides the
unified 64-d embeddings; with refinement disabled a trained linear
projection (a linear autoencoder) takes its place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import HerbRecord, SymptomRecord, property_matrix
from .errors import DataError, SchemaError
from .nn import Linear, Module, fit
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


def text_rows(symptoms: list[SymptomRecord]) -> np.ndarray | None:
    """The provided text embeddings as float32 ``(S, d_text)`` rows, or
    ``None`` when the symptoms have none; ``load_vocab`` admits a corpus only
    if every symptom has one or none has."""
    if symptoms[0].text_embedding is None:
        return None
    return np.array([rec.text_embedding for rec in symptoms], dtype=np.float32)


def assemble_features(hgre_out: np.ndarray, symptoms: list[SymptomRecord],
                      herbs: list[HerbRecord], text_rows: np.ndarray | None,
                      herb_reprs: np.ndarray | None,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Build the float32 assembled matrices for both node types.

    ``text_rows`` is the symptom text block and ``herb_reprs`` the molecular
    block; ``None`` drops either (the corpus has no symptom text, or the
    molecular stage was ablated).  Returns (sym_matrix, herb_matrix).
    """
    hgre_out = np.asarray(hgre_out, dtype=np.float32)
    s, h = len(symptoms), len(herbs)
    if hgre_out.shape[0] != s + h:
        raise SchemaError(f"graph embedding has {hgre_out.shape[0]} rows for "
                          f"{s} symptoms + {h} herbs")
    sym_parts = [hgre_out[:s]]
    if text_rows is not None:
        if text_rows.shape[0] != s:
            raise SchemaError("text embedding row count does not match symptoms")
        sym_parts.append(text_rows)
    sym_matrix = np.concatenate(sym_parts, axis=1, dtype=np.float32)

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
    """Encoder to a fixed 64-d latent and mirror decoder: ``Linear`` layers
    through the widths ``[d_in, 128, 64]`` and back, SiLU between layers.

    ``linear=True`` gives the widths ``[d_in, 64]``, the linear variant (one
    matrix each way), used as the learned projection when refinement is
    switched off.
    """

    def __init__(self, d_in: int, rng: np.random.Generator, linear: bool):
        widths = [d_in, UNIFIED_DIM] if linear else [d_in, 128, UNIFIED_DIM]
        self.enc = [Linear(a, b, rng) for a, b in zip(widths, widths[1:])]
        back = widths[::-1]
        self.dec = [Linear(a, b, rng) for a, b in zip(back, back[1:])]

    @staticmethod
    def _run(layers: list[Linear], x: Tensor) -> Tensor:
        x = layers[0](x)
        for layer in layers[1:]:
            x = layer(x.silu())
        return x

    def encode(self, x: Tensor) -> Tensor:
        return self._run(self.enc, x)

    def decode(self, z: Tensor) -> Tensor:
        return self._run(self.dec, z)


def _reconstruction_loss(x: Tensor, params: AutoencoderParams) -> Tensor:
    err = params.decode(params.encode(x)) - x
    return (err * err).mean()


def reconstruction_mse(matrix: np.ndarray, params: AutoencoderParams) -> float:
    with no_grad():
        return _reconstruction_loss(Tensor(matrix), params).item()


def train_autoencoder(matrix: np.ndarray, params: AutoencoderParams, *,
                      epochs: int, lr: float, name: str = "fr") -> list[float]:
    """Fit the compression autoencoder on assembled rows by MSE and return
    the per-epoch losses, each the full-batch MSE before that epoch's step,
    so the first is the MSE of the initialization; ``name`` is its history
    key, which a divergence error starts with.  The rows are cast to the
    parameters' dtype, so the fit runs in the model's own precision."""
    weights = params.parameters()
    x = Tensor(np.asarray(matrix, dtype=weights[0].data.dtype))
    if x.shape[0] < 8:
        raise DataError(f"need at least 8 rows to train the autoencoder, got {x.shape[0]}")
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
