"""Molecular-level herb features.

A herb with known molecules gets a property-guided attention pool over its
molecule embeddings; the pooled vector is fused with a learnable holistic
per-herb embedding through a sigmoid gate.  Herbs with no molecular data at
all get their pooled vector imputed by a VAE that maps the herb's property
vector to the molecular embedding space (train on complete herbs, decode
from the property encoding for incomplete ones).  Like every fit, the VAE
trains through ``nn.fit``, and its history is the loss it trains on, a
sampled ELBO, before each step.

Pooling and gating run over many herbs at once: the herbs' molecules form
one zero-padded ``(H, K, d_m)`` tensor with an ``(H, K)`` mask of real
slots.  A fit builds that batch once, trains the alignment on it, and
pools it once afterwards: the VAE trains on those pooled vectors and the
herb representations reuse them.

Molecule embeddings come from a deterministic hashed n-gram stub encoder
standing in for an external molecular encoder.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .dataio import HerbRecord, property_matrix
from .errors import DataError, SchemaError
from .nn import NEG_INF, Linear, Module, fit, parameter, stage_rng
from .tape import Tensor, no_grad, softmax


# ---------------------------------------------------------------------------
# stub molecule encoder
# ---------------------------------------------------------------------------

@functools.cache
def _gram_code(gram: str, d_m: int) -> tuple[int, float]:
    """The bucket and sign of one character n-gram, hashed once per process:
    molecules share most of their n-grams."""
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest[:4], "little") % d_m, 1.0 if digest[4] & 1 else -1.0


def stub_encode_molecule(smiles: str, d_m: int) -> np.ndarray:
    """Deterministic unit-norm feature vector from hashed character n-grams.

    A stand-in for an external molecular encoder: stable across processes
    (keyed hashing, no PYTHONHASHSEED dependence), distinct strings map to
    distinct directions with high probability.
    """
    if not smiles:
        raise SchemaError("cannot encode an empty molecule string")
    vec = np.zeros(d_m)
    padded = f"^{smiles}$"
    for n in (1, 2, 3):
        for i in range(len(padded) - n + 1):
            bucket, sign = _gram_code(padded[i:i + n], d_m)
            vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


@dataclass(frozen=True)
class MoleculeBatch:
    """Herbs that all have molecules, as one batch: their ids, ``(H, P)``
    float32 property matrix, zero-padded ``(H, K, d_m)`` float32 molecule
    embeddings and the ``(H, K)`` mask of real slots, K being the largest
    molecule count."""
    ids: np.ndarray
    props: np.ndarray
    embs: np.ndarray
    mask: np.ndarray


def molecule_batch(herbs: list[HerbRecord], d_m: int) -> MoleculeBatch:
    """The batch of ``herbs``, each distinct molecule string encoded once.
    Every herb must have at least one molecule."""
    if not all(h.molecules for h in herbs):
        raise DataError("molecule_batch needs at least one molecule per herb")
    distinct = dict.fromkeys(m for h in herbs for m in h.molecules)
    codes = {m: stub_encode_molecule(m, d_m) for m in distinct}
    width = max((len(h.molecules) for h in herbs), default=0)
    embs = np.zeros((len(herbs), width, d_m), dtype=np.float32)
    mask = np.zeros((len(herbs), width), dtype=bool)
    for i, h in enumerate(herbs):
        embs[i, :len(h.molecules)] = [codes[m] for m in h.molecules]
        mask[i, :len(h.molecules)] = True
    return MoleculeBatch(ids=np.array([h.id for h in herbs], dtype=np.intp),
                         props=property_matrix(herbs), embs=embs, mask=mask)


# ---------------------------------------------------------------------------
# attention pooling and gated fusion
# ---------------------------------------------------------------------------

class AttentionParams(Module):
    def __init__(self, p_dim: int, d_m: int, d_k: int, rng: np.random.Generator):
        self.d_k = d_k
        self.w_q = parameter(rng.normal(0.0, 1.0 / math.sqrt(p_dim), size=(p_dim, d_k)))
        self.w_k = parameter(rng.normal(0.0, 1.0 / math.sqrt(d_m), size=(d_m, d_k)))


def attention_weights_batch(mol_embs: Tensor, props: Tensor, params: AttentionParams,
                            mask: np.ndarray | None = None) -> Tensor:
    """``(H, K)`` softmax weights of H herbs over their ``(H, K, d_m)``
    molecules, queried by their ``(H, P)`` property vectors.

    Slots where ``mask`` is False get an additive ``NEG_INF`` logit, which
    underflows to exactly zero weight and exactly zero gradient.
    """
    h, k, d_m = mol_embs.shape
    q = (props @ params.w_q).reshape(h, -1, 1)                               # (H, d_k, 1)
    keys = (mol_embs.reshape(h * k, d_m) @ params.w_k).reshape(h, k, -1)    # (H, K, d_k)
    logits = (keys @ q).reshape(h, k) / math.sqrt(params.d_k)
    if mask is not None:
        logits = logits + Tensor(np.where(mask, 0.0, NEG_INF).astype(logits.data.dtype))
    return softmax(logits)


def aggregate_attention_batch(mol_embs: Tensor, props: Tensor,
                              params: AttentionParams,
                              mask: np.ndarray | None = None) -> Tensor:
    """``(H, d_m)`` property-guided attention pools of H herbs."""
    h, k, _ = mol_embs.shape
    alpha = attention_weights_batch(mol_embs, props, params, mask)
    return (alpha.reshape(h, k, 1) * mol_embs).sum(axis=1)


def fuse_gate_batch(v_h: Tensor, h_e: Tensor, params: Linear) -> Tensor:
    """Row-wise convex blend of ``(H, d_m)`` pooled vectors and latent rows:
    lambda*v_h + (1-lambda)*h_e with lambda = sigmoid(W v + b)."""
    lam = params(v_h).sigmoid()
    return lam * v_h + (1.0 - lam) * h_e


class LatentMolTable(Module):
    """Learnable holistic per-herb embedding (init N(0, 0.02))."""

    def __init__(self, n_herb: int, d_m: int, rng: np.random.Generator):
        self.weight = parameter(rng.normal(0.0, 0.02, size=(n_herb, d_m)))


# ---------------------------------------------------------------------------
# VAE for missing-molecule imputation
# ---------------------------------------------------------------------------

class VaeParams(Module):
    """Encoder p -> (mu, log sigma^2), decoder z -> v; two 64-unit hidden
    layers on each side."""

    def __init__(self, p_dim: int, d_m: int, d_z: int, rng: np.random.Generator,
                 hidden: int = 64):
        self.p_dim, self.d_m, self.d_z = p_dim, d_m, d_z
        self.enc1 = Linear(p_dim, hidden, rng)
        self.enc2 = Linear(hidden, hidden, rng)
        self.enc_mu = Linear(hidden, d_z, rng)
        self.enc_logvar = Linear(hidden, d_z, rng)
        self.dec1 = Linear(d_z, hidden, rng)
        self.dec2 = Linear(hidden, hidden, rng)
        self.dec_out = Linear(hidden, d_m, rng)

    def encode(self, p: Tensor) -> tuple[Tensor, Tensor]:
        h = self.enc2(self.enc1(p).silu()).silu()
        return self.enc_mu(h), self.enc_logvar(h)

    def decode(self, z: Tensor) -> Tensor:
        return self.dec_out(self.dec2(self.dec1(z).silu()).silu())


def vae_loss(p_h, v_target, params: VaeParams, eps: np.ndarray | None = None,
             ) -> tuple[Tensor, Tensor, Tensor]:
    """ELBO-style loss: squared-error reconstruction plus closed-form KL to
    the standard normal, both averaged over the batch.

    ``eps`` supplies the reparameterization noise; ``None`` decodes from the
    posterior mean (deterministic).
    """
    p = Tensor.ensure(np.atleast_2d(p_h))
    v = Tensor.ensure(np.atleast_2d(v_target))
    mu, logvar = params.encode(p)
    sigma2 = logvar.exp()
    kl = (0.5 * (mu * mu + sigma2 - 1.0 - logvar).sum(axis=1)).mean()
    z = mu if eps is None else mu + (0.5 * logvar).exp() * Tensor(np.atleast_2d(eps))
    recon_err = params.decode(z) - v
    recon = (recon_err * recon_err).sum(axis=1).mean()
    return recon + kl, kl, recon


def train_vae(complete_pairs: tuple[np.ndarray, np.ndarray], params: VaeParams, *,
              epochs: int = 200, lr: float = 1e-2, seed: int = 42) -> list[float]:
    """Fit the imputation VAE on (property, pooled-molecular) pairs; returns
    the per-epoch losses, each the sampled ELBO before that epoch's step
    (its noise drawn from the ``mlfie.vae.noise`` stream), so the first is
    the initialization's loss."""
    props, targets = np.asarray(complete_pairs[0]), np.asarray(complete_pairs[1])
    n = props.shape[0]
    if n < 8:
        raise DataError(f"need at least 8 herbs with molecules to train the VAE, got {n}")
    noise_rng = stage_rng(seed, "mlfie.vae.noise")

    def loss(_) -> Tensor:
        eps = noise_rng.standard_normal((n, params.d_z)).astype(np.float32)
        return vae_loss(props, targets, params, eps=eps)[0]

    return list(fit(params.parameters(), loss, n, name="vae", epochs=epochs, lr=lr))


def impute_missing(p_h: np.ndarray, params: VaeParams) -> np.ndarray:
    """Algorithm: encode the property vector, take the posterior mean, decode
    to the molecular embedding space.

    ``p_h`` is one property vector ``(P,)`` or a batch ``(N, P)``; the result
    is ``(d_m,)`` or ``(N, d_m)`` to match, in float32.
    """
    p_h = np.asarray(p_h, dtype=np.float32)
    if p_h.ndim not in (1, 2) or p_h.shape[-1] != params.p_dim:
        raise SchemaError(f"property vector has shape {p_h.shape}, "
                          f"expected ({params.p_dim},) or (N, {params.p_dim})")
    p = p_h.reshape(-1, params.p_dim)
    with no_grad():
        mu, _ = params.encode(Tensor(p))
        return params.decode(mu).data.reshape(p_h.shape[:-1] + (params.d_m,))


# ---------------------------------------------------------------------------
# full component
# ---------------------------------------------------------------------------

class MlfieParams(Module):
    def __init__(self, n_herb: int, p_dim: int, d_m: int, d_k: int, d_z: int,
                 seed: int | None):
        self.d_m = d_m
        self.attention = AttentionParams(p_dim, d_m, d_k, stage_rng(seed, "mlfie.attn"))
        self.gate = Linear(d_m, d_m, stage_rng(seed, "mlfie.gate"))
        self.latent = LatentMolTable(n_herb, d_m, stage_rng(seed, "mlfie.latent"))
        self.probe = Linear(d_m, p_dim, stage_rng(seed, "mlfie.probe"))
        self.vae = VaeParams(p_dim, d_m, d_z, stage_rng(seed, "mlfie.vae"))


def alignment_loss(batch: MoleculeBatch, params: MlfieParams) -> Tensor:
    """Mean squared error of the linear probe that maps each fused herb
    vector back to the herb's property vector (one batch of herbs)."""
    props = Tensor(batch.props)
    pooled = aggregate_attention_batch(Tensor(batch.embs), props, params.attention,
                                       batch.mask)
    fused = fuse_gate_batch(pooled, params.latent.weight[batch.ids], params.gate)
    err = params.probe(fused) - props
    return (err * err).mean()


def train_property_alignment(batch: MoleculeBatch, params: MlfieParams, *,
                             epochs: int = 100, lr: float = 1e-2) -> list[float]:
    """Pretrain the pooling attention, gate and latent table by regressing
    the fused herb vector onto the herb's property vector through a linear
    probe (the only per-herb supervision available before the heads train);
    returns the per-epoch losses.
    """
    if not len(batch.ids):
        raise DataError("no herbs with molecular data to align")
    return list(fit(
        params.attention.parameters() + params.gate.parameters()
        + params.latent.parameters() + params.probe.parameters(),
        lambda _: alignment_loss(batch, params),
        len(batch.ids), name="mlfie_alignment", epochs=epochs, lr=lr))


def complete_pairs(batch: MoleculeBatch, params: MlfieParams,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(property, pooled-vector) training pairs of the batch's herbs: their
    property matrix and their attention pools, as one unrecorded pass."""
    if not len(batch.ids):
        raise DataError("no complete herbs in the corpus")
    with no_grad():
        pooled = aggregate_attention_batch(Tensor(batch.embs), Tensor(batch.props),
                                           params.attention, batch.mask).data
    return batch.props, pooled


def all_herb_representations(herbs: list[HerbRecord], pooled: np.ndarray,
                             params: MlfieParams) -> np.ndarray:
    """``(H, d_m)`` fused representations of ``herbs``: ``pooled`` holds the
    attention pools of the herbs that have molecules, in order, as
    ``complete_pairs`` returns them; the rest are imputed in one VAE batch;
    then all are gated.  In the parameters' dtype."""
    have = np.array([bool(h.molecules) for h in herbs], dtype=bool)
    vectors = np.empty((len(herbs), params.d_m), dtype=params.latent.weight.data.dtype)
    vectors[have] = pooled
    if not have.all():
        vectors[~have] = impute_missing(
            property_matrix([h for h in herbs if not h.molecules]), params.vae)
    ids = np.array([h.id for h in herbs], dtype=np.intp)
    with no_grad():
        return fuse_gate_batch(Tensor(vectors), params.latent.weight[ids],
                               params.gate).data


def fit_mlfie(herbs: list[HerbRecord], cfg: RunConfig,
              ) -> tuple[MlfieParams, np.ndarray, dict[str, list[float]]]:
    """Build the molecular stage and fit it: property alignment, then the
    imputation VAE on the aligned pooled vectors.  The herbs with molecules
    form one batch and are pooled once.  Returns the parameters, the fused
    representations of all ``herbs`` and the loss history of each fit,
    keyed ``mlfie_alignment`` and ``vae``.
    """
    seed = cfg.train.seed
    params = MlfieParams(len(herbs), herbs[0].properties.shape[0], cfg.dims.d_m,
                         cfg.dims.d_k, cfg.dims.d_z, seed)
    batch = molecule_batch([h for h in herbs if h.molecules], cfg.dims.d_m)
    align = train_property_alignment(batch, params, epochs=cfg.train.mlfie_epochs,
                                     lr=cfg.train.lr)
    props, pooled = complete_pairs(batch, params)
    vae = train_vae((props, pooled), params.vae, epochs=cfg.train.vae_epochs,
                    lr=cfg.train.lr, seed=seed)
    reprs = all_herb_representations(herbs, pooled, params)
    return params, reprs, {"mlfie_alignment": align, "vae": vae}
