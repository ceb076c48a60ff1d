"""The benchmark's workloads, driven through fmash's public API.

acceptance-cli  the 200-prescription acceptance corpus through the CLI, three
                times: prepare, train-rs, train-seq, evaluate (both heads), then
                per-query ``recommend``/``generate`` commands.  Phase 1 and
                the per-node cost of the tape dominate.
fullscale       the 33,765-prescription corpus: prepare, four pipeline passes
                (phase 1 with reduced stage epochs, then batch-256 steps for
                both heads), sequence-head tuning until it stops at EOS,
                checkpoints, and a closed loop with one caller that scores
                and decodes a seeded sample of test instances one at a time.
                Large arrays dominate training; per-op overhead and decoder
                prefix re-runs dominate serving.

Every workload reports every end-to-end metric.  Work is fixed by the seed
and by ``--seconds`` (which sets the number of serving passes), so two runs
with the same arguments do the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time
from collections import Counter
from statistics import mean, median
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fmash import (checkpoint, cli, config, dataio, evalkit, hgre, mlfie, nn,
                   pipeline, recsys, refine, seqgen, tape)
from spans import Recorder
from summary import tail

SEQ_MAX_LEN = config.TrainCfg().seq_max_len
TOP_K = 5

# name -> (unit, better); BENCHMARK.json declares the same
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "phase1_s": ("s", "lower"),
    "rs_train_samples_per_s": ("1/s", "higher"),
    "seq_train_samples_per_s": ("1/s", "higher"),
    "rs_score_ms_p50": ("ms", "lower"),
    "rs_score_ms_tail": ("ms", "lower"),
    "seq_generate_ms_per_step_p50": ("ms", "lower"),
    "seq_generate_ms_per_step_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "pipeline.phase1_calls": ("count", "lower"),  # per pipeline pass
    "cli.prepare_s": ("s", "lower"),
    "dataio.load_corpus_s": ("s", "lower"),
    "dataio.build_graph_s": ("s", "lower"),
    "dataio.split_dataset_s": ("s", "lower"),
    "hgre.forward_s": ("s", "lower"),
    "mlfie.align_s": ("s", "lower"),
    "mlfie.vae_s": ("s", "lower"),
    "mlfie.herb_repr_s": ("s", "lower"),
    "refine.autoencoder_s": ("s", "lower"),
    "refine.compress_s": ("s", "lower"),
    "tape.backward_s.rs": ("s", "lower"),
    "tape.backward_s.seq": ("s", "lower"),
    "tape.nodes_per_step.rs": ("count", "lower"),
    "tape.nodes_per_step.seq": ("count", "lower"),
    "nn.adam_step_s": ("s", "lower"),
    "recsys.forward_s": ("s", "lower"),
    "recsys.score_ms": ("ms", "lower"),
    "seqgen.forward_s": ("s", "lower"),
    "seqgen.decoder_ms": ("ms", "lower"),
    "seqgen.decoder_calls_per_instance": ("count", "lower"),
    "seqgen.tokens_per_instance": ("count", "higher"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "evalkit.evaluate_s": ("s", "lower"),
    "evalkit.rs_p_at_5": ("ratio", "higher"),
    "evalkit.seq_bmp_at_5": ("ratio", "higher"),
}


# ---------------------------------------------------------------------------
# run state
# ---------------------------------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    seconds: int
    workdir: Path
    rec: Recorder
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    ref_ms: list[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """One operation: counted as attempted, and as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def reference(self) -> None:
        """Time ``REF_REPS`` passes of a fixed kernel that uses no fmash code:
        a Python loop and small matrix products, the mix the tape runs."""
        for _ in range(REF_REPS):
            t0 = time.perf_counter()
            acc, x = 0.0, _REF_MATRIX
            for i in range(20000):
                acc += i * 0.5
            for _ in range(200):
                x = np.tanh(x @ _REF_MATRIX * 0.01)
            self.ref_ms.append((time.perf_counter() - t0) * 1e3)


# timings are reported as if the reference kernel's mean took REF_MS; on the
# 2-vCPU Xeon VM the committed baselines come from, its mean per run was
# 5.9-8.1 ms (median 7.0) over twenty runs
REF_MS = 6.5
REF_REPS = 8
_REF_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def install_patches(rec: Recorder, full: bool) -> None:
    """Spans the end-to-end metrics need; with ``full``, also every layer
    boundary the per-layer metrics need."""
    rec.patch_function(pipeline, "run_phase1", "pipeline.phase1")
    rec.patch_function(recsys, "train_rs", "recsys.train", keep_result=True)
    rec.patch_function(seqgen, "train_seq", "seqgen.train", keep_result=True)
    rec.patch_method(nn.Adam, "step", "nn.adam_step")
    if not full:
        return
    for module, attr, name in [
        (dataio, "load_corpus", "dataio.load_corpus"),
        (dataio, "save_corpus", "dataio.save_corpus"),
        (dataio, "build_graph", "dataio.build_graph"),
        (dataio, "split_dataset", "dataio.split_dataset"),
        (dataio, "generate_synthetic", "dataio.generate_synthetic"),
        (hgre, "hgre_forward", "hgre.forward"),
        (mlfie, "train_property_alignment", "mlfie.align"),
        (mlfie, "train_vae", "mlfie.vae"),
        (mlfie, "complete_pairs", "mlfie.complete_pairs"),
        (mlfie, "all_herb_representations", "mlfie.herb_repr"),
        (refine, "assemble_features", "refine.assemble"),
        (refine, "train_autoencoder", "refine.autoencoder"),
        (refine, "compress", "refine.compress"),
        (refine, "export_unified", "refine.export_unified"),
        (recsys, "rs_logits", "recsys.forward"),
        (recsys, "gelram_score", "recsys.score"),
        (recsys, "export_predictions", "recsys.export"),
        (seqgen, "sequence_loss", "seqgen.forward"),
        (seqgen, "decoder_logits", "seqgen.decoder"),
        (seqgen, "export_predictions", "seqgen.export"),
        (evalkit, "evaluate_run", "evalkit.evaluate"),
        (evalkit, "load_predictions", "evalkit.load_predictions"),
        (checkpoint, "save_checkpoint", "checkpoint.save"),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
    ]:
        rec.patch_function(module, attr, name)
    rec.patch_function(seqgen, "generate", "seqgen.generate", keep_result=True)
    rec.patch_method(tape.Tensor, "backward", "tape.backward",
                     before=_count_graph_nodes)


def _count_graph_nodes(rec: Recorder, args) -> None:
    """Nodes of a head's loss graph, walked before ``backward`` consumes it."""
    head = "rs" if rec.inside("recsys.train") else \
        "seq" if rec.inside("seqgen.train") else None
    if head is None:
        return
    with rec.span("bench.count_nodes"):
        seen = {id(args[0])}
        todo = [args[0]]
        while todo:
            node = todo.pop()
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
    rec.results.setdefault(f"tape.nodes.{head}", []).append(len(seen))


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(path: Path, corpus: Path, workdir: Path, train: dict) -> None:
    path.write_text(json.dumps({"paths": {"corpus": str(corpus),
                                          "workdir": str(workdir)},
                                "train": train}, indent=2) + "\n",
                    encoding="utf-8")


def _setup_corpus(run: Run, spec: dict, train: dict, tag: str,
                  times: list[float]):
    """Generate the seeded corpus and write it with its config into a fresh
    directory, appending the time taken to ``times``.  Returns the directory
    and the corpus's symptoms and herbs."""
    base = run.workdir / f"{tag}{len(times)}"
    with run.rec.span("bench.setup"):
        t0 = time.perf_counter()
        symptoms, herbs, pres = dataio.generate_synthetic(**spec, seed=run.seed)
        dataio.save_corpus(base / "corpus", symptoms, herbs, pres)
        _write_config(base / "run.json", base / "corpus", base / "work", train)
        times.append(time.perf_counter() - t0)
    run.info["corpus"] = {"seed": run.seed, "symptoms": len(symptoms),
                          "herbs": len(herbs), "prescriptions": len(pres),
                          **{k: v for k, v in spec.items()
                             if k not in ("n_sym", "n_herb", "n_prescriptions")}}
    return base, symptoms, herbs


def _cli(run: Run, argv: list[str]) -> str:
    """One CLI command in-process; its stdout is returned."""
    out, err = io.StringIO(), io.StringIO()
    with run.rec.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.execute_command(argv)
    run.check(code == 0, f"`fmash {argv[0]}` exited {code}: "
                         f"{err.getvalue().strip()[:200]}")
    return out.getvalue()


def _load_split(work: Path, prescriptions) -> dict[str, list]:
    ids = json.loads((work / cli.SPLITS_FILE).read_text(encoding="utf-8"))
    by_id = {p.instance_id: p for p in prescriptions}
    return {part: [by_id[i] for i in ids[part]] for part in ("train", "valid", "test")}


def _check_losses(run: Run) -> None:
    """Per trained model, over all its training calls in order: every loss
    finite and the last below the first."""
    for name in ("recsys.train", "seqgen.train"):
        histories: dict[int, list[float]] = {}
        for result in run.rec.results.get(name, []):
            histories.setdefault(id(result.params), []).extend(result.losses)
        for losses in histories.values():
            run.check(len(losses) >= 2 and bool(np.all(np.isfinite(losses)))
                      and losses[-1] < losses[0],
                      f"{name}: losses not finite and falling: {losses}")


def _check_formula(run: Run, formula: list[int], vocab) -> None:
    run.check(len(set(formula)) == len(formula)
              and all(vocab.is_herb(h) for h in formula),
              f"generated formula repeats a herb or holds a special id: {formula}")


def _check_coverage(run: Run, path: Path, instances, scored: bool, tag: str) -> dict:
    preds = evalkit.load_predictions(path, scored=scored)
    missing = [i.instance_id for i in instances if i.instance_id not in preds]
    run.check(not missing, f"{path.name}: no prediction for {missing[:5]}")
    run.hashes[f"{tag}/{path.name}"] = _sha256(path)
    return preds


def _step_times(run: Run, train_span: str) -> list[float]:
    """Duration of each optimizer step in ``train_span`` calls (outside
    ``bench.tune``): from the call's start or the previous step's end to the
    step's end."""
    rec = run.rec
    times = []
    for call in rec.named(train_span, exclude="bench.tune"):
        ends = [rec.spans[call].start] + [
            rec.spans[i].end for i in rec.named("nn.adam_step")
            if rec.spans[i].parent == call]
        times += [b - a for a, b in zip(ends, ends[1:])]
    return times


def _e2e(run: Run, setup_times, pipeline_times, rs_ms: dict, seq_ms: dict,
         seq_steps: dict, rs_batch: int, seq_batch: int) -> dict[str, float]:
    """End-to-end metrics: the mean of each kind of repeated work, scaled to
    the host's reference speed.

    The host's CPU speed flips between two levels about 50% apart every few
    tens of milliseconds, and the share of time spent at the slow level
    drifts over minutes, so the wall times of ten runs spread by up to a
    quarter (quartiles over median).
    A mean grows in step with that share, as does the mean time of a fixed
    reference kernel timed between the measured work (``Run.reference``);
    every timing is therefore multiplied by ``REF_MS`` over the run's mean
    kernel time.  (Fastest or median repetitions spread more: they jump
    between the two levels.)  The unscaled values are kept in the result
    file.  Per-query latency is each instance's mean over passes; p50 and
    tail are taken over instances.  Decoding latency is divided by the
    instance's network calls: the encoder pass plus its decoder calls
    (emitted herbs, plus one when it stops at EOS).  How many herbs a head
    emits varies with the corpus seed, and with it the per-query latency;
    without the encoder pass in the divisor, short formulas would read as
    slow steps."""
    rec = run.rec
    phase1 = rec.durations("pipeline.phase1")
    rs_mean = [mean(v) for v in rs_ms.values()]
    seq_mean = [mean(v) for v in seq_ms.values()]
    seq_per_step = [mean(v) / (seq_steps[k] + 1) for k, v in seq_ms.items()]
    rs_tail, rs_pct = tail(rs_mean)
    seq_tail, seq_pct = tail(seq_per_step)
    rs_steps = _step_times(run, "recsys.train")
    seq_train_steps = _step_times(run, "seqgen.train")
    run.info["samples"] = {
        "setup_s": len(setup_times), "pipeline_s": len(pipeline_times),
        "phase1_s": len(phase1), "rs_train_steps": len(rs_steps),
        "seq_train_steps": len(seq_train_steps), "rs_train_batch": rs_batch,
        "seq_train_batch": seq_batch, "instances": len(rs_mean),
        "passes": len(next(iter(rs_ms.values()))),
        "rs_score_ms_tail_percentile": rs_pct,
        "seq_generate_ms_per_step_tail_percentile": seq_pct,
        "reference_kernel": len(run.ref_ms),
    }
    seq_query_tail, _ = tail(seq_mean)
    run.info["seq_generate_ms_per_query"] = {"p50": median(seq_mean),
                                             "tail": seq_query_tail}
    timings = {
        "setup_s": mean(setup_times),
        "pipeline_s": mean(pipeline_times),
        "phase1_s": mean(phase1),
        "rs_train_samples_per_s": rs_batch / mean(rs_steps),
        "seq_train_samples_per_s": seq_batch / mean(seq_train_steps),
        "rs_score_ms_p50": median(rs_mean),
        "rs_score_ms_tail": rs_tail,
        "seq_generate_ms_per_step_p50": median(seq_per_step),
        "seq_generate_ms_per_step_tail": seq_tail,
    }
    ref_ms = mean(run.ref_ms)
    run.info["reference_ms"] = {"mean": ref_ms, "min": min(run.ref_ms),
                                "max": max(run.ref_ms), "REF_MS": REF_MS}
    run.info["unscaled"] = timings
    scale = REF_MS / ref_ms
    return {**{k: v / scale if k.endswith("_per_s") else v * scale
               for k, v in timings.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _decoder_steps(formula: list[int]) -> int:
    """Decoder calls ``generate`` makes: one per emitted herb, plus the call
    that picks EOS unless the length cap ended the decode."""
    return len(formula) + (len(formula) < SEQ_MAX_LEN)


NOMINAL_SECONDS = 45       # run_seconds in BENCHMARK.json


def _passes_per_slot(seconds: int, at_nominal: int) -> int:
    """Serving passes in each serving slot: ``at_nominal`` at the nominal
    ``--seconds``, scaled with it, so every run with the same ``--seconds``
    does the same work."""
    return max(1, round(at_nominal * seconds / NOMINAL_SECONDS))


# ---------------------------------------------------------------------------
# acceptance-cli
# ---------------------------------------------------------------------------

ACCEPTANCE_CORPUS = dict(n_sym=40, n_herb=60, n_syndromes=5, n_prescriptions=200)
ACCEPTANCE_HEAD_EPOCHS = 10
# each trip gives two phase-1 samples, one pipeline sample and one window of
# training steps per head
ACCEPTANCE_TRIPS = 3
# commands of the later trips that a serving slot follows; one more follows
# each trip
ACCEPTANCE_SERVE_AFTER = ("train-rs", "train-seq")
ACCEPTANCE_SETUPS_PER_SLOT = 3
# a trained ranking head must score at least this multiple of the P@5 of
# ranking by herb frequency in the training split (it scores 3.5-8 times
# that today)
RS_OVER_POPULARITY = 2.0


def _round_trip(cfg: str, work: Path) -> list[list[str]]:
    return [["prepare", "--config", cfg],
            ["train-rs", "--config", cfg],
            ["train-seq", "--config", cfg],
            ["evaluate", "--config", cfg, "--pred", str(work / "rs_predictions.tsv"),
             "--k", str(TOP_K)],
            ["evaluate", "--config", cfg, "--pred", str(work / "seq_predictions.tsv"),
             "--k", str(TOP_K), "--head", "seq"]]


def _timed_cli(run: Run, argv: list[str]) -> float:
    """Run one CLI command, then time the reference kernel; the command's
    duration."""
    t0 = time.perf_counter()
    _cli(run, argv)
    took = time.perf_counter() - t0
    run.reference()
    return took


def _cli_serve_pass(run: Run, cfg: str, test, names, herb_id, rs_pred, seq_pred,
                    rs_ms, seq_ms) -> None:
    """One ``recommend`` and one ``generate`` command per test instance; both
    must agree with the prediction files the train commands wrote."""
    with run.rec.span("bench.serve"):
        for inst in test:
            key = inst.instance_id
            t0 = time.perf_counter()
            out = _cli(run, ["recommend", "--config", cfg, "--symptoms", names[key],
                             "--k", str(TOP_K)])
            rs_ms.setdefault(key, []).append((time.perf_counter() - t0) * 1e3)
            top = [herb_id[line.split("\t")[1]] for line in out.splitlines()]
            run.check(top == rs_pred[key][:TOP_K],
                      f"recommend disagrees with rs_predictions.tsv for {key}")
            t0 = time.perf_counter()
            out = _cli(run, ["generate", "--config", cfg, "--symptoms", names[key]])
            seq_ms.setdefault(key, []).append((time.perf_counter() - t0) * 1e3)
            formula = [herb_id[n] for n in out.splitlines() if n != "(empty formula)"]
            run.check(formula == seq_pred[key],
                      f"generate disagrees with seq_predictions.tsv for {key}")


def _popularity_p_at_k(train, test) -> float:
    """P@k of answering every test instance with the herbs most frequent in
    the training split."""
    freq = Counter(h for inst in train for h in inst.herbs)
    top = sorted(freq, key=lambda h: (-freq[h], h))[:TOP_K]
    return float(np.mean([evalkit.topk_metrics(top, set(i.herbs), TOP_K)[0]
                          for i in test]))


def acceptance_cli(run: Run):
    """``ACCEPTANCE_TRIPS`` CLI round trips, each on a fresh copy of the same
    corpus; every later trip must reproduce the first's files.  Serving
    passes against the first trip's checkpoints, and set-up repetitions,
    follow each trip and the train commands of the later ones, so serving,
    set-up, phase-1 and training samples all spread over the run."""
    train = {"epochs": ACCEPTANCE_HEAD_EPOCHS}
    setup_times = []
    base, symptoms, herbs = _setup_corpus(run, ACCEPTANCE_CORPUS, train, "acc",
                                          setup_times)
    herb_id = {h.name: h.id for h in herbs}
    vocab = seqgen.TokenVocab(len(herbs))
    files = ("rs_predictions.tsv", "seq_predictions.tsv",
             "report_rs.json", "report_seq.json")
    cfg, work = str(base / "run.json"), base / "work"
    rs_ms, seq_ms, later_works = {}, {}, []
    with run.rec.span("bench.measure"):
        trips = [sum(_timed_cli(run, argv) for argv in _round_trip(cfg, work))]
        _, _, prescriptions = dataio.load_corpus(base / "corpus")
        split = _load_split(work, prescriptions)
        test = split["test"]
        rs_pred = _check_coverage(run, work / files[0], test, True, "trip1")
        seq_pred = _check_coverage(run, work / files[1], test, False, "trip1")
        for formula in seq_pred.values():
            _check_formula(run, formula, vocab)
        names = {i.instance_id: ",".join(symptoms[s].name for s in sorted(i.symptoms))
                 for i in test}

        def serve():
            run.reference()
            for _ in range(_passes_per_slot(run.seconds, 1)):
                _cli_serve_pass(run, cfg, test, names, herb_id, rs_pred, seq_pred,
                                rs_ms, seq_ms)
            for _ in range(ACCEPTANCE_SETUPS_PER_SLOT):
                _setup_corpus(run, ACCEPTANCE_CORPUS, train, "acc", setup_times)

        serve()
        for _ in range(ACCEPTANCE_TRIPS - 1):
            later, _, _ = _setup_corpus(run, ACCEPTANCE_CORPUS, train, "acc",
                                        setup_times)
            later_cfg, later_work = str(later / "run.json"), later / "work"
            later_works.append(later_work)
            trips.append(0.0)
            for argv in _round_trip(later_cfg, later_work):
                trips[-1] += _timed_cli(run, argv)
                if argv[0] in ACCEPTANCE_SERVE_AFTER:
                    serve()
            serve()
    first = [_sha256(work / f) for f in files]
    for later_work in later_works:
        run.check([_sha256(later_work / f) for f in files] == first,
                  "a later round trip wrote different prediction or report files")
    _check_losses(run)
    reports = {head: evalkit.MetricReport.load(work / f"report_{head}.json")
               for head in ("rs", "seq")}
    quality = {"rs_p_at_5": reports["rs"].precision[TOP_K],
               "seq_bmp_at_5": reports["seq"].bmp[TOP_K]}
    popular = _popularity_p_at_k(split["train"], test)
    run.info["popularity_p_at_5"] = popular
    run.check(quality["rs_p_at_5"] >= RS_OVER_POPULARITY * popular,
              f"ranking head P@{TOP_K} {quality['rs_p_at_5']:.3f} is below "
              f"{RS_OVER_POPULARITY} x the popularity baseline's {popular:.3f}")
    run.info["split"] = {k: len(v) for k, v in split.items()}
    run.info["tokens_per_instance"] = float(np.mean([len(f) for f in seq_pred.values()]))
    n_train = len(split["train"])
    steps = {k: _decoder_steps(f) for k, f in seq_pred.items()}
    e2e = _e2e(run, setup_times, trips, rs_ms, seq_ms, steps, n_train,
               n_train)
    return e2e, quality


# ---------------------------------------------------------------------------
# fullscale
# ---------------------------------------------------------------------------

FULLSCALE_CORPUS = dict(n_sym=400, n_herb=800, n_syndromes=40,
                        n_prescriptions=33765, unique_symptom_sets=False)
FULLSCALE_STAGE_EPOCHS = {"mlfie_epochs": 10, "vae_epochs": 30, "fr_epochs": 30}
TRAIN_BATCH = 256
RS_STEPS_PER_ROUND = 2
SEQ_STEPS_PER_ROUND = 1
TUNE_RS = dict(batch=64, steps=10, epochs=2, lr=5e-3)
TUNE_SEQ = dict(batch=32, first_steps=50, more_steps=12, epochs=2, max_rounds=8,
                lr=5e-3)
TUNE_MIN_TOKENS = 3
TUNE_PROBE = 20
SERVE_SAMPLE = 60
# serving passes, pipeline passes (each: phase 1, then a batch-256 training
# round) and set-up repetitions take turns, so each kind of sample spreads
# over the run; with the pass before tuning, four pipeline passes
SCHEDULE = ["serve", "pipeline", "serve", "setup", "pipeline", "serve", "pipeline",
            "setup", "serve"]


class _Batches:
    """Consecutive, disjoint slices of the training split."""

    def __init__(self, train: list):
        self.train, self.used = train, 0

    def take(self, n: int) -> list:
        self.used += n
        return self.train[self.used - n:self.used]


def _tune_serving_heads(run: Run, cfg, batches: _Batches, phase1, probe):
    """Train the heads the serving loop uses: the ranked head briefly, the
    sequence head until, on ``probe``, it emits ``TUNE_MIN_TOKENS`` herbs on
    average and stops at EOS before the length cap."""
    plan = TUNE_RS
    rs = recsys.train_rs(batches.take(plan["batch"] * plan["steps"] // plan["epochs"]),
                         phase1.unified, epochs=plan["epochs"], lr=plan["lr"],
                         batch_size=plan["batch"], seed=cfg.train.seed).params
    plan, seq = TUNE_SEQ, None
    for rnd in range(plan["max_rounds"]):
        steps = plan["first_steps"] if rnd == 0 else plan["more_steps"]
        seq = seqgen.train_seq(batches.take(plan["batch"] * steps), phase1.unified,
                               epochs=plan["epochs"], lr=plan["lr"],
                               batch_size=plan["batch"], seed=cfg.train.seed,
                               params=seq).params
        lengths = [len(seqgen.generate(i.symptoms, seq, max_len=SEQ_MAX_LEN))
                   for i in probe]
        emits = np.mean(lengths) >= TUNE_MIN_TOKENS and max(lengths) < SEQ_MAX_LEN
        if emits:
            break
    run.info["tune_rounds"] = rnd + 1
    run.check(emits, f"sequence head not stopping at EOS after tuning: {lengths}")
    return rs, seq


def _train_round(cfg, batches: _Batches, phase1, heads: dict) -> None:
    """A few batch-256 steps for each head, continuing ``heads``."""
    heads["rs"] = recsys.train_rs(
        batches.take(TRAIN_BATCH * RS_STEPS_PER_ROUND), phase1.unified, epochs=1,
        lr=cfg.train.lr, batch_size=TRAIN_BATCH, seed=cfg.train.seed,
        params=heads.get("rs")).params
    heads["seq"] = seqgen.train_seq(
        batches.take(TRAIN_BATCH * SEQ_STEPS_PER_ROUND), phase1.unified, epochs=1,
        lr=cfg.train.lr, batch_size=TRAIN_BATCH, seed=cfg.train.seed,
        params=heads.get("seq")).params


def _save_and_load_heads(run: Run, cfg, phase1, rs_params, seq_params):
    """Round-trip both heads through checkpoints laid out as train-* writes
    them and rebuild them as recommend/generate do."""
    work = Path(cfg.paths.workdir)
    loaded = {}
    for head, params in (("rs", rs_params), ("seq", seq_params)):
        state = pipeline.phase1_state(phase1)
        state.update({f"{head}.{k}": v for k, v in params.state_dict().items()})
        path = work / f"{head}.ckpt"
        checkpoint.save_checkpoint(path, state, config.config_hash(cfg))
        loaded[head], _ = checkpoint.load_checkpoint(path)
    emb = refine.UnifiedEmbedding(matrix=loaded["rs"]["unified.matrix"],
                                  n_sym=phase1.unified.n_sym)
    rs_new = recsys.GelramParams(emb.dim, emb.n_herb, cfg.train.seed,
                                 d_enc=cfg.dims.d_enc)
    rs_new.load_state_dict({k[3:]: v for k, v in loaded["rs"].items()
                            if k.startswith("rs.")})
    seq_new = seqgen.Seq2SeqParams(emb, cfg.train.seed)
    seq_new.load_state_dict({k[4:]: v for k, v in loaded["seq"].items()
                             if k.startswith("seq.")})
    return emb, rs_new, seq_new


def _serve_pass(run: Run, emb, rs_params, seq_params, sample, rs_ms, seq_ms):
    """Closed loop, one caller: score and decode each sample instance one at
    a time, then evaluate the pass in memory."""
    ranked, formulas = {}, {}
    with run.rec.span("bench.serve"):
        for inst in sample:
            key = inst.instance_id
            t0 = time.perf_counter()
            top = recsys.recommend(inst.symptoms, TOP_K, rs_params, emb)
            rs_ms.setdefault(key, []).append((time.perf_counter() - t0) * 1e3)
            ranked[key] = [h for h, _ in top]
            t0 = time.perf_counter()
            formulas[key] = seqgen.generate(inst.symptoms, seq_params,
                                            max_len=SEQ_MAX_LEN)
            seq_ms.setdefault(key, []).append((time.perf_counter() - t0) * 1e3)
        groups = evalkit.group_instances(sample, formulas)
        bmp = sum(evalkit.bmp_at_k(g.prediction, g, TOP_K) for g in groups) / len(groups)
        p = sum(evalkit.topk_metrics(ranked[i.instance_id], set(i.herbs), TOP_K)[0]
                for i in sample) / len(sample)
    return ranked, formulas, p, bmp


def _export_and_evaluate(run: Run, emb, rs_params, seq_params, work: Path, sample,
                         served):
    rs_path, seq_path = work / "rs_predictions.tsv", work / "seq_predictions.tsv"
    recsys.export_predictions(rs_path, sample, emb, rs_params)
    seqgen.export_predictions(seq_path, sample, seq_params, max_len=SEQ_MAX_LEN)
    rs_pred = _check_coverage(run, rs_path, sample, True, "serve")
    seq_pred = _check_coverage(run, seq_path, sample, False, "serve")
    ranked, formulas, p, bmp = served
    run.check(all(rs_pred[i][:TOP_K] == ranked[i] for i in ranked)
              and all(seq_pred[i] == formulas[i] for i in formulas),
              "exported predictions disagree with the serving loop")
    rs_report = evalkit.evaluate_run(rs_path, sample, [TOP_K], head="rs")
    seq_report = evalkit.evaluate_run(seq_path, sample, [TOP_K], head="seq")
    run.check(abs(rs_report.precision[TOP_K] - p) < 1e-12
              and abs(seq_report.bmp[TOP_K] - bmp) < 1e-12,
              "evalkit reports disagree with the serving loop's own scores")
    run.info["tokens_per_instance"] = float(np.mean([len(f) for f in formulas.values()]))
    return {"rs_p_at_5": rs_report.precision[TOP_K],
            "seq_bmp_at_5": seq_report.bmp[TOP_K]}


def _pipeline_pass(symptoms, herbs, graph, cfg, batches: _Batches, heads: dict,
                   reps: list):
    """Phase 1, then one batch-256 training round of both heads; appends the
    pass's duration to ``reps`` and returns the phase-1 result."""
    t0 = time.perf_counter()
    phase1 = pipeline.run_phase1(symptoms, herbs, graph, cfg)
    _train_round(cfg, batches, phase1, heads)
    reps.append(time.perf_counter() - t0)
    return phase1


def fullscale(run: Run):
    """prepare -> a pipeline pass (phase 1, one training round) -> train the
    serving heads -> checkpoints -> serving passes, more pipeline passes and
    set-up repetitions in turns -> export and evaluate.  ``pipeline_s`` is
    the mean pipeline pass: a whole pass from prepare to serving takes too
    long to repeat within a run."""
    train, setup_times = dict(FULLSCALE_STAGE_EPOCHS), []
    base, _, _ = _setup_corpus(run, FULLSCALE_CORPUS, train, "full", setup_times)
    cfg_path = base / "run.json"
    rs_ms, seq_ms, served, trained, reps = {}, {}, [], {}, []
    with run.rec.span("bench.measure"):
        _cli(run, ["prepare", "--config", str(cfg_path)])
        cfg = config.parse_config(cfg_path)
        symptoms, herbs, prescriptions = dataio.load_corpus(cfg.paths.corpus,
                                                            expected_p=cfg.dims.p)
        work = Path(cfg.paths.workdir)
        split = _load_split(work, prescriptions)
        graph = dataio.build_graph(split["train"], len(symptoms), len(herbs),
                                   tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
        batches = _Batches(split["train"])
        phase1 = _pipeline_pass(symptoms, herbs, graph, cfg, batches, trained, reps)
        picked = np.random.default_rng(run.seed).choice(len(split["test"]),
                                                        SERVE_SAMPLE, replace=False)
        sample = [split["test"][i] for i in np.sort(picked)]
        run.reference()
        with run.rec.span("bench.tune"):
            rs, seq = _tune_serving_heads(run, cfg, batches, phase1,
                                          sample[:TUNE_PROBE])
        emb, rs, seq = _save_and_load_heads(run, cfg, phase1, rs, seq)
        for step in SCHEDULE:
            run.reference()
            if step == "serve":
                for _ in range(_passes_per_slot(run.seconds, 2)):
                    served.append(_serve_pass(run, emb, rs, seq, sample,
                                              rs_ms, seq_ms))
            elif step == "setup":
                _setup_corpus(run, FULLSCALE_CORPUS, train, "full", setup_times)
            else:
                again = _pipeline_pass(symptoms, herbs, graph, cfg, batches, trained,
                                       reps)
                run.check(np.array_equal(again.unified.matrix, phase1.unified.matrix),
                          "a repeated phase-1 call gave a different unified table")
        for other in served[1:]:
            run.check(other == served[0], "serving pass disagrees with the first")
        for formula in served[0][1].values():
            _check_formula(run, formula, seq.vocab)
        quality = _export_and_evaluate(run, emb, rs, seq, work, sample, served[0])
    _check_losses(run)
    run.info["split"] = {k: len(v) for k, v in split.items()}
    steps = {k: _decoder_steps(f) for k, f in served[0][1].items()}
    e2e = _e2e(run, setup_times, reps, rs_ms, seq_ms, steps, TRAIN_BATCH,
               TRAIN_BATCH)
    return e2e, quality


WORKLOADS = {
    "acceptance-cli": acceptance_cli,
    "fullscale": fullscale,
}


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)
# ---------------------------------------------------------------------------

def layer_metrics(run: Run, quality: dict) -> dict[str, float]:
    rec = run.rec
    results = rec.results
    phase1_calls = len(rec.named("pipeline.phase1"))
    passes = run.info["samples"]["pipeline_s"]

    def per_phase1(name):
        return sum(rec.durations(name, under="pipeline.phase1")) / phase1_calls

    def med(name, under=None, scale=1.0):
        return median(rec.durations(name, under, exclude="bench.tune")) * scale

    served = set(rec.named("seqgen.generate", under="bench.serve"))
    generated = [r for i, r in zip(rec.named("seqgen.generate"),
                                   results["seqgen.generate"]) if i in served]
    decodes = len(generated)
    decoder_calls = len(rec.named("seqgen.decoder", under="bench.serve"))
    tokens = sum(len(r) for r in generated)
    ckpt_bytes = [p.stat().st_size for p in run.workdir.rglob("*.ckpt")]
    metrics = {
        "pipeline.phase1_calls": phase1_calls / passes,
        "cli.prepare_s": med("cli.prepare"),
        "dataio.load_corpus_s": med("dataio.load_corpus"),
        "dataio.build_graph_s": med("dataio.build_graph"),
        "dataio.split_dataset_s": med("dataio.split_dataset"),
        "hgre.forward_s": per_phase1("hgre.forward"),
        "mlfie.align_s": per_phase1("mlfie.align"),
        "mlfie.vae_s": per_phase1("mlfie.vae"),
        "mlfie.herb_repr_s": per_phase1("mlfie.herb_repr"),
        "refine.autoencoder_s": per_phase1("refine.autoencoder"),
        "refine.compress_s": per_phase1("refine.compress"),
        "tape.backward_s.rs": med("tape.backward", "recsys.train"),
        "tape.backward_s.seq": med("tape.backward", "seqgen.train"),
        "tape.nodes_per_step.rs": median(results["tape.nodes.rs"]),
        "tape.nodes_per_step.seq": median(results["tape.nodes.seq"]),
        "nn.adam_step_s": median(
            rec.durations("nn.adam_step", "recsys.train", exclude="bench.tune")
            + rec.durations("nn.adam_step", "seqgen.train", exclude="bench.tune")),
        "recsys.forward_s": med("recsys.forward", "recsys.train"),
        "recsys.score_ms": med("recsys.score", "bench.serve", 1e3),
        "seqgen.forward_s": med("seqgen.forward", "seqgen.train"),
        "seqgen.decoder_ms": med("seqgen.decoder", "bench.serve", 1e3),
        "seqgen.decoder_calls_per_instance": decoder_calls / decodes,
        "seqgen.tokens_per_instance": tokens / decodes,
        "checkpoint.save_s": med("checkpoint.save"),
        "checkpoint.load_s": med("checkpoint.load"),
        "checkpoint.bytes": float(max(ckpt_bytes)),
        "evalkit.evaluate_s": med("evalkit.evaluate"),
        "evalkit.rs_p_at_5": quality["rs_p_at_5"],
        "evalkit.seq_bmp_at_5": quality["seq_bmp_at_5"],
    }
    expected = sum(_decoder_steps(r) for r in generated)
    run.check(decoder_calls == expected,
              f"decoder calls {decoder_calls} != tokens plus EOS stops {expected}")
    return metrics
