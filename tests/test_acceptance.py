"""Acceptance gate: one test per criterion, each printing a pass line with
its measured runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Headline corpus-scale numbers are out of reach at desk scale, so the gate
is property-based: exact metric oracles, finite-difference gradient
certification, structural invariants, memorization runs on the planted
synthetic corpus, the no-mixing containment property, the ablation
harness, and end-to-end VAE imputation.  A full-scale corpus run is
optional and activates only when FMASH_TCMPD_DIR points at a corpus.
"""

import json
import os
import time

import numpy as np
import pytest

from case_fixture import P_AT_5, as_ids
from fmash.config import RunConfig, config_from_dict
from fmash.dataio import (build_graph, generate_conflicting_corpus,
                          generate_synthetic, load_corpus, split_dataset)
from fmash.evalkit import (EvalGroup, bmp_at_k, evaluate_run, group_instances,
                           topk_metrics)
from fmash.hgre import (SsmParams, bidirectional_block,
                        degree_permutation, gcn_forward, ssm_scan)
from fmash.mlfie import (AttentionParams, MlfieParams, VaeParams,
                         aggregate_attention_batch, attention_weights_batch,
                         complete_pairs, fuse_gate_batch, impute_missing,
                         molecule_batch, train_property_alignment, train_vae,
                         vae_loss)
from fmash.nn import Linear, stage_rng
from fmash.pipeline import run_phase1
from fmash.recsys import (GelramParams, gelram_score, make_rs_params, multi_hot,
                          rs_logits, train_rs)
from fmash.recsys import export_predictions as export_rs_predictions
from fmash.refine import UnifiedEmbedding
from fmash.seqgen import Seq2SeqParams, generate, make_batch, sequence_loss, train_seq
from fmash.tape import Tensor
from gradcheck import as_float64, max_relative_error, one_layer_per_stack

GRAD_TOL = 1e-4


def _report(name: str, started: float, budget_s: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded {budget_s:.0f}s budget"
    print(f"[PASS] {name}: {detail} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# shared fixtures: the planted synthetic corpus and its phase-1 embedding
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(40, 60, 5, 200, seed=7)


@pytest.fixture(scope="module")
def split(corpus):
    _, _, prescriptions = corpus
    return split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=42)


@pytest.fixture(scope="module")
def phase1(corpus, split):
    symptoms, herbs, _ = corpus
    cfg = RunConfig()
    graph = build_graph(split.train, len(symptoms), len(herbs),
                        tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
    return run_phase1(symptoms, herbs, graph, cfg)


# ---------------------------------------------------------------------------
# criterion 1: metric oracle equivalence
# ---------------------------------------------------------------------------

def brute_force_metrics(ranking, truth, k):
    hits = sum(1 for h in set(list(ranking)[:k]) if h in truth)
    p = hits / k
    r = hits / len(truth)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def test_c1_metric_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1234)
    for case in range(1000):
        h = int(rng.integers(10, 60))
        ranking = rng.permutation(h).tolist()
        truth = set(rng.choice(h, size=int(rng.integers(1, h // 2 + 1)),
                               replace=False).tolist())
        k = int(rng.integers(1, h + 1))
        assert topk_metrics(ranking, truth, k) == brute_force_metrics(ranking, truth, k)
        truths = [set(rng.choice(h, size=int(rng.integers(1, 8)),
                                 replace=False).tolist())
                  for _ in range(int(rng.integers(1, 4)))]
        group = EvalGroup(key=(case,), ground_truths=truths)
        expected = max(brute_force_metrics(ranking, t, k)[0] for t in truths)
        assert bmp_at_k(ranking, group, k) == expected

    ranking, truth = as_ids()
    p5 = topk_metrics(ranking, truth, 5)[0]
    assert p5 == P_AT_5
    _report("metric oracle equivalence", started, 10.0,
            f"1000 random cases exact; case fixture P@5={p5}")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite
# ---------------------------------------------------------------------------

def test_c2_gradient_suite():
    started = time.monotonic()
    errors = {}

    x = Tensor(np.random.default_rng(1).normal(size=(5, 4)), requires_grad=True)
    gcn = as_float64(Linear(4, 4, stage_rng(100, "acc.gcn")))
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
    probe = np.random.default_rng(2).normal(size=(5, 4))
    errors["gcn_forward"] = max_relative_error(
        lambda: (gcn_forward(x, edges, gcn) * probe).sum(),
        [x, gcn.weight, gcn.bias])

    ssm = as_float64(SsmParams(3, stage_rng(101, "acc.ssm"), d_state=2))
    seq_in = Tensor(np.random.default_rng(3).normal(size=(4, 3)), requires_grad=True)
    probe2 = np.random.default_rng(4).normal(size=(4, 3))
    errors["bidirectional_block"] = max_relative_error(
        lambda: (bidirectional_block(seq_in, ssm) * probe2).sum(),
        [seq_in] + ssm.parameters())

    attn = as_float64(AttentionParams(3, 4, 2, stage_rng(102, "acc.attn")))
    mol = Tensor(np.random.default_rng(5).normal(size=(1, 4, 4)), requires_grad=True)
    props = Tensor(np.random.default_rng(6).normal(size=(1, 3)), requires_grad=True)
    probe3 = np.random.default_rng(7).normal(size=(1, 4))
    errors["aggregate_attention_batch"] = max_relative_error(
        lambda: (aggregate_attention_batch(mol, props, attn, np.ones((1, 4), dtype=bool))
                 * probe3).sum(),
        [mol, props, attn.w_q, attn.w_k])

    gate = as_float64(Linear(3, 3, stage_rng(103, "acc.gate")))
    v = Tensor(np.random.default_rng(8).normal(size=(1, 3)), requires_grad=True)
    he = Tensor(np.random.default_rng(9).normal(size=(1, 3)), requires_grad=True)
    probe4 = np.random.default_rng(19).normal(size=(1, 3))
    errors["fuse_gate_batch"] = max_relative_error(
        lambda: (fuse_gate_batch(v, he, gate) * probe4).sum(),
        [v, he, gate.weight, gate.bias])

    vae = as_float64(VaeParams(3, 4, 2, stage_rng(104, "acc.vae")))
    rng = np.random.default_rng(10)
    p_in, v_in = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
    eps = rng.standard_normal((2, 2))
    errors["vae_loss"] = max_relative_error(
        lambda: vae_loss(p_in, v_in, vae, eps)[0], vae.parameters())

    emb = UnifiedEmbedding(matrix=rng.normal(size=(9, 4)), n_sym=4)
    rs = one_layer_per_stack(as_float64(GelramParams(4, 5, seed=105, d_enc=8)))
    sym_t = as_float64(Tensor(emb.sym(), requires_grad=True))
    herb_t = as_float64(Tensor(emb.herb(), requires_grad=True))
    sets = [[0, 2], [1, 3]]
    rs_targets = multi_hot([[0, 3], [2]], 5)
    errors["rs_loss"] = max_relative_error(
        lambda: rs_logits(sets, emb, rs, sym_table=sym_t, herb_table=herb_t,
                          targets=rs_targets),
        [sym_t, herb_t] + rs.parameters())

    seq_params = one_layer_per_stack(as_float64(Seq2SeqParams(emb, seed=106)))
    from fmash.dataio import PrescriptionInstance
    batch = make_batch(
        [PrescriptionInstance(0, frozenset({0, 2}), [1, 4]),
         PrescriptionInstance(1, frozenset({1}), [0, 2, 3])],
        seq_params.vocab)
    errors["seq_loss"] = max_relative_error(
        lambda: sequence_loss(batch, seq_params), seq_params.parameters())

    for name, err in errors.items():
        assert err < GRAD_TOL, f"{name}: relative error {err:.2e} >= {GRAD_TOL}"
    worst = max(errors, key=errors.get)
    _report("gradient suite", started, 120.0,
            f"7 components < {GRAD_TOL}; worst {worst}={errors[worst]:.1e}")


# ---------------------------------------------------------------------------
# criterion 3: structural invariants
# ---------------------------------------------------------------------------

def test_c3_structural_invariants():
    started = time.monotonic()
    rng = np.random.default_rng(11)

    # sort/unsort identity
    for _ in range(20):
        deg = rng.integers(0, 9, size=int(rng.integers(1, 30)))
        p = degree_permutation(deg)
        m = rng.normal(size=(deg.size, 3))
        np.testing.assert_array_equal(m[p.perm][p.inverse], m)

    # GCN permutation equivariance on random 12-node graphs
    for trial in range(5):
        n, d = 12, 5
        x = rng.normal(size=(n, d))
        pairs = {tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
                 for _ in range(20)}
        edges = np.asarray(sorted(pairs))
        params = Linear(d, d, stage_rng(200 + trial, "acc.equiv"))
        out = gcn_forward(x, edges, params).data
        pi = rng.permutation(n)
        x_pi = np.empty_like(x)
        x_pi[pi] = x
        out_pi = gcn_forward(x_pi, pi[edges], params).data
        np.testing.assert_allclose(out_pi[pi], out, atol=1e-10)

    # scan causality: prefix exactly invariant to suffix perturbations
    ssm = SsmParams(4, stage_rng(210, "acc.causal"), d_state=3)
    seq_in = rng.normal(size=(8, 4))
    base = ssm_scan(seq_in, ssm, "forward").data
    for t in range(1, 8):
        bumped = seq_in.copy()
        bumped[t:] += rng.normal(size=(8 - t, 4))
        again = ssm_scan(bumped, ssm, "forward").data
        np.testing.assert_array_equal(base[:t], again[:t])

    # attention weights on the simplex
    attn = AttentionParams(3, 5, 4, stage_rng(211, "acc.simplex"))
    for _ in range(100):
        e = rng.normal(size=(1, int(rng.integers(1, 9)), 5))
        alpha = attention_weights_batch(Tensor(e), Tensor(rng.normal(size=(1, 3))),
                                        attn, np.ones(e.shape[:2], dtype=bool)).data
        assert np.all(alpha >= 0)
        assert abs(alpha.sum() - 1.0) <= 1e-9

    # gate convexity bounds
    gate = Linear(6, 6, stage_rng(212, "acc.gate"))
    for _ in range(200):
        v, h = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
        out = fuse_gate_batch(Tensor(v), Tensor(h), gate).data
        assert np.all(out >= np.minimum(v, h) - 1e-12)
        assert np.all(out <= np.maximum(v, h) + 1e-12)

    # KL non-negativity, exactly zero at the standard-normal posterior
    vae = VaeParams(3, 4, 2, stage_rng(213, "acc.kl"))
    no_noise = np.zeros((1, 2))
    for _ in range(50):
        _, kl, _ = vae_loss(rng.normal(size=(1, 3)), rng.normal(size=(1, 4)), vae, no_noise)
        assert kl.item() >= 0.0
    vae.enc_mu.weight.data[:] = 0.0
    vae.enc_mu.bias.data[:] = 0.0
    vae.enc_logvar.weight.data[:] = 0.0
    vae.enc_logvar.bias.data[:] = 0.0
    _, kl, _ = vae_loss(np.ones((1, 3)), np.zeros((1, 4)), vae, no_noise)
    assert kl.item() == 0.0
    _report("structural invariants", started, 60.0,
            "sort/unsort, equivariance, causality, simplex, convexity, KL")


# ---------------------------------------------------------------------------
# criterion 4: ranking-head memorization
# ---------------------------------------------------------------------------

def test_c4_rs_memorization(split, phase1):
    started = time.monotonic()
    result = train_rs(split.train, phase1.unified, epochs=300, lr=1e-2, batch_size=None,
                      seed=42)
    assert len(result.losses) <= 500
    contained = 0
    p5_sum = 0.0
    for inst in split.train:
        scored = gelram_score(inst.symptoms, phase1.unified, result.params)
        gt = set(inst.herbs)
        contained += set(scored.ranking[:len(gt)].tolist()) == gt
        p5_sum += topk_metrics(scored.ranking.tolist(), gt, 5)[0]
    n = len(split.train)
    containment = contained / n
    p5 = p5_sum / n
    assert containment >= 0.9, f"containment {containment:.3f} < 0.9"
    assert p5 >= 0.9, f"train P@5 {p5:.3f} < 0.9"
    _report("ranking-head memorization", started, 300.0,
            f"containment {containment:.3f}, train P@5 {p5:.3f}, "
            f"{len(result.losses)} epochs")


# ---------------------------------------------------------------------------
# criterion 5: sequence-head memorization
# ---------------------------------------------------------------------------

def test_c5_seq_memorization(split, phase1):
    started = time.monotonic()
    result = train_seq(split.train, phase1.unified, epochs=300, lr=3e-3, batch_size=None,
                       seed=42)
    assert len(result.losses) <= 500
    vocab = result.params.vocab
    exact = 0
    violations = 0
    predictions = {}
    for inst in split.train:
        seq = generate(inst.symptoms, result.params, max_len=20)
        predictions[inst.instance_id] = seq
        exact += seq == list(inst.herbs)
        if len(seq) != len(set(seq)) or any(not vocab.is_herb(t) for t in seq):
            violations += 1
    n = len(split.train)
    groups = group_instances(split.train, predictions)
    bmp5 = sum(bmp_at_k(g.prediction, g, 5) for g in groups) / len(groups)
    assert violations == 0, f"{violations} formulas with reserved/duplicate tokens"
    assert exact / n >= 0.9, f"exact-match {exact / n:.3f} < 0.9"
    assert bmp5 >= 0.95, f"BMP@5 {bmp5:.3f} < 0.95"
    _report("sequence-head memorization", started, 600.0,
            f"exact {exact / n:.3f}, BMP@5 {bmp5:.3f}, 0 violations")


# ---------------------------------------------------------------------------
# criterion 6: no cross-formula mixing
# ---------------------------------------------------------------------------

def test_c6_no_mixing_property():
    started = time.monotonic()
    symptoms, herbs, prescriptions = generate_conflicting_corpus(10, seed=3)
    emb = UnifiedEmbedding(
        matrix=stage_rng(3, "acc.conflict.emb").normal(
            size=(len(symptoms) + len(herbs), 64)),
        n_sym=len(symptoms))
    result = train_seq(prescriptions, emb, epochs=250, lr=3e-3, batch_size=None, seed=5)
    clean = 0
    for a, b in zip(prescriptions[::2], prescriptions[1::2]):
        seq = generate(a.symptoms, result.params, max_len=15)
        assert seq, "empty generation for a trained ambiguous input"
        is_subset_a = set(seq) <= set(a.herbs)
        is_subset_b = set(seq) <= set(b.herbs)
        assert is_subset_a or is_subset_b, \
            f"mixed formula {seq} for input {sorted(a.symptoms)}"
        clean += 1
    _report("no cross-formula mixing", started, 300.0,
            f"{clean}/{len(prescriptions) // 2} ambiguous inputs stayed pure")


# ---------------------------------------------------------------------------
# criterion 7: ablation harness
# ---------------------------------------------------------------------------

ABLATION_CONFIGS = {
    "base": {"hgre": True, "mlfie": False, "gelram": False, "fr": True},
    "+mlfie": {"hgre": True, "mlfie": True, "gelram": False, "fr": True},
    "+gelram": {"hgre": True, "mlfie": True, "gelram": True, "fr": True},
    "-fr": {"hgre": True, "mlfie": True, "gelram": True, "fr": False},
}


def test_c7_ablation_harness(corpus, split, tmp_path):
    started = time.monotonic()
    symptoms, herbs, _ = corpus
    summaries = []
    for name, flags in ABLATION_CONFIGS.items():
        cfg = config_from_dict({
            "ablation": flags,
            "train": {"epochs": 30, "lr": 5e-3, "mlfie_epochs": 30,
                      "vae_epochs": 60, "fr_epochs": 120},
        })
        graph = build_graph(split.train, len(symptoms), len(herbs),
                            tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
        phase1 = run_phase1(symptoms, herbs, graph, cfg)
        if flags["fr"]:
            for node_type in ("sym", "herb"):
                initial = phase1.histories[f"fr_{node_type}"][0]
                final = phase1.fr_final_mse[node_type]
                assert final <= 0.5 * initial, \
                    f"{name}/{node_type}: MSE {initial:.4g} -> {final:.4g}"
        result = train_rs(split.train, phase1.unified, epochs=cfg.train.epochs,
                          lr=cfg.train.lr, batch_size=None, seed=cfg.train.seed,
                          params=make_rs_params(phase1.unified, cfg.train.seed,
                                                gelram=flags["gelram"]))
        pred_path = tmp_path / f"pred_{name}.tsv"
        export_rs_predictions(pred_path, split.test, phase1.unified, result.params)
        report = evaluate_run(pred_path, split.test, ks=[5, 10, 20], head="rs",
                              model=name)
        for k in (5, 10, 20):
            assert 0.0 <= report.precision[k] <= 1.0
            assert 0.0 <= report.bmp[k] <= 1.0
        summaries.append(f"{name} P@5={report.precision[5]:.2f}")
    _report("ablation harness", started, 300.0, "; ".join(summaries))


# ---------------------------------------------------------------------------
# criterion 8: VAE imputation end to end
# ---------------------------------------------------------------------------

def test_c8_vae_imputation_holdout(corpus):
    started = time.monotonic()
    _, herbs, _ = corpus
    params = MlfieParams(len(herbs), 23, 32, 16, 16, seed=7)
    batch = molecule_batch([h for h in herbs if h.molecules], 32)
    train_property_alignment(batch, params, epochs=60, lr=1e-2)
    props, targets = complete_pairs(batch, params)
    n_hold = len(props) // 5
    fit_p, fit_v = props[:-n_hold], targets[:-n_hold]
    hold_p, hold_v = props[-n_hold:], targets[-n_hold:]
    vae = VaeParams(23, 32, 16, stage_rng(7, "mlfie.vae"))
    train_vae((fit_p, fit_v), vae, epochs=250, lr=5e-3, seed=7)
    train_err = np.median([((impute_missing(p[None], vae)[0] - v) ** 2).sum()
                           for p, v in zip(fit_p, fit_v)])
    hold_err = np.median([((impute_missing(p[None], vae)[0] - v) ** 2).sum()
                          for p, v in zip(hold_p, hold_v)])
    assert hold_err <= 2.0 * train_err, \
        f"held-out median {hold_err:.4g} > 2x train median {train_err:.4g}"
    _report("vae imputation holdout", started, 120.0,
            f"median errors: train {train_err:.4g}, held-out {hold_err:.4g} "
            f"({len(props) - n_hold} fit / {n_hold} held out)")


# ---------------------------------------------------------------------------
# criterion 9 (optional): full-scale corpus run
# ---------------------------------------------------------------------------

def test_c9_optional_full_scale_corpus(tmp_path):
    corpus_dir = os.environ.get("FMASH_TCMPD_DIR")
    if not corpus_dir:
        pytest.skip("set FMASH_TCMPD_DIR to a corpus directory to run the "
                    "full-scale pipeline")
    started = time.monotonic()
    from fmash.cli import execute_command

    symptoms, herbs, prescriptions = load_corpus(corpus_dir)
    cfg = {
        "paths": {"corpus": corpus_dir, "workdir": str(tmp_path / "work")},
        "dims": {"p": herbs[0].properties.shape[0]},
        "train": {"epochs": int(os.environ.get("FMASH_FULL_EPOCHS", "3")),
                  "batch": 256, "mlfie_epochs": 10, "vae_epochs": 30,
                  "fr_epochs": 30},
    }
    cfg_path = tmp_path / "full.json"
    cfg_path.write_text(json.dumps(cfg))
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    splits = json.loads((tmp_path / "work" / "splits.json").read_text())
    if len(prescriptions) == 33765:
        assert (len(splits["train"]), len(splits["valid"]), len(splits["test"])) \
            == (23635, 3377, 6753)
    assert execute_command(["train-rs", "--config", str(cfg_path)]) == 0
    assert execute_command(["evaluate", "--config", str(cfg_path),
                            "--pred", str(tmp_path / "work" / "rs_predictions.tsv"),
                            "--k", "5,10,20"]) == 0
    report = json.loads((tmp_path / "work" / "report_rs.json").read_text())
    assert set(report["precision"]) == {"5", "10", "20"}
    _report("full-scale corpus run", started, 86_400.0,
            f"{len(prescriptions)} instances evaluated")
