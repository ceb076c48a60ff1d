"""Memorization quality of both heads on the acceptance gate's setups, across
training seeds and BLAS thread counts, for one source tree or two.

For each training seed in ``SEEDS`` and each BLAS thread count in
``THREADS``, one subprocess per tree builds the planted corpus, its split
and its phase-1 table as ``tests/test_acceptance.py`` does, then runs:

- c4: ``train_rs`` for 300 epochs at lr 1e-2, then train containment and
  train P@5 (gate: each >= 0.9);
- c5: ``train_seq`` for 300 epochs at lr 3e-3, then greedy decoding of
  every train instance: exact match (gate: >= 0.9), BMP@5 (gate: >= 0.95)
  and formulas with a repeated herb or a special token (gate: 0); test
  BMP@5 is printed beside them, ungated;
- c6: ``train_seq`` on the conflicting corpus at the gate's own seed, once
  per tree and thread count: ambiguous inputs whose formula stays pure.

Each subprocess gets its thread count in its environment, so BLAS reads
it when numpy loads.  With two trees the order alternates per seed, so
slow drift of the machine does not land on one tree.  The table gives the
loss at epochs 150 and 200 and the final one, each gated metric, and its
margin to the gate's bound (negative: the gate fails).

``--contract`` checks the behaviour contract of a change instead: that its
artifacts and output are byte-identical to the parent's.  For each of four
``ablation`` variants (as is, ``fr: false``, ``mlfie: false`` and
``gelram: false``) it runs, on the default ``fmash synth`` corpus with the
``run_env`` config of ``tests/test_config_cli.py`` (``train.epochs`` 40),
one process per tree in the same directory: ``synth``, ``synth --mode
conflicting`` (into its own directory, compared with the rest), ``prepare``,
``train-rs``, ``train-seq``, both ``evaluate`` runs, ``impute-mol``, and
three ``recommend --k 10`` and three ``generate`` queries.  It prints every
file and every exit code, stdout or stderr line that differs; for a
prediction export that differs, what moved instead of its lines: the
instances whose ranking or top-5 list changed and the largest score change
(ranked head), or each formula that changed (sequence head).  Then it
serves the parent's checkpoints (``rs.ckpt``, ``seq.ckpt``,
``phase1.ckpt``) under the changed tree and compares ``impute-mol``,
``recommend`` and ``generate`` with the parent's own output the same way.
BLAS runs on 1 thread.

Neither mode is part of the test suite; a run of both trees takes about 6
minutes on 2 cores, and about 20 seconds with ``--contract``::

    python tests/quality_probe.py PARENT_TREE [CHANGED_TREE]
    python tests/quality_probe.py --contract PARENT_TREE CHANGED_TREE
"""

from __future__ import annotations

import contextlib
import difflib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (42, 43, 44, 45, 46)
THREADS = (1, 2)
C6_SEED = 5
GATES = {"containment": 0.9, "p5": 0.9, "exact": 0.9, "bmp5": 0.95}
# the ``run_env`` config of tests/test_config_cli.py, without its paths
CONTRACT_CONFIG = {
    "dims": {"d": 32, "d_m": 16, "d_k": 8, "d_enc": 32, "d_z": 8, "d_state": 4},
    "graph": {"tau_s": 1, "tau_h": 1},
    "train": {"epochs": 40, "lr": 5e-3, "seed": 11, "mlfie_epochs": 15,
              "vae_epochs": 25, "fr_epochs": 60},
}
VARIANTS = {"as-is": {}, "fr-false": {"fr": False}, "mlfie-false": {"mlfie": False},
            "gelram-false": {"gelram": False}}
# symptom sets within one syndrome's cluster of the default corpus
QUERIES = ("sym-001,sym-003", "sym-009,sym-012,sym-014", "sym-033,sym-036")


def _losses(losses: list[float]) -> list[float]:
    return [losses[149], losses[199], losses[-1]]


def _memorization(seed: int) -> dict:
    """c4 and c5 at training seed ``seed`` (runs inside the tree's process)."""
    from fmash.config import RunConfig
    from fmash.dataio import build_graph, generate_synthetic, split_dataset
    from fmash.evalkit import bmp_at_k, group_instances, topk_metrics
    from fmash.pipeline import run_phase1
    from fmash.recsys import gelram_score, train_rs
    from fmash.seqgen import generate, train_seq

    symptoms, herbs, prescriptions = generate_synthetic(40, 60, 5, 200, seed=7)
    split = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=42)
    cfg = RunConfig()
    graph = build_graph(split.train, len(symptoms), len(herbs),
                        tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
    unified = run_phase1(symptoms, herbs, graph, cfg).unified
    train = split.train

    rs = train_rs(train, unified, epochs=300, lr=1e-2, batch_size=None, seed=seed)
    contained, p5 = 0, 0.0
    for inst in train:
        ranking = gelram_score(inst.symptoms, unified, rs.params).ranking
        truth = set(inst.herbs)
        contained += set(ranking[:len(truth)].tolist()) == truth
        p5 += topk_metrics(ranking.tolist(), truth, 5)[0]

    seq = train_seq(train, unified, epochs=300, lr=3e-3, batch_size=None, seed=seed)
    vocab = seq.params.vocab

    def decoded(instances):
        return {i.instance_id: generate(i.symptoms, seq.params, max_len=20)
                for i in instances}

    def bmp5(instances, predictions):
        groups = group_instances(instances, predictions)
        return sum(bmp_at_k(g.prediction, g, 5) for g in groups) / len(groups)

    on_train = decoded(train)
    return {
        "rs_loss": _losses(rs.losses), "containment": contained / len(train),
        "p5": p5 / len(train),
        "seq_loss": _losses(seq.losses),
        "exact": sum(on_train[i.instance_id] == list(i.herbs) for i in train) / len(train),
        "bmp5": bmp5(train, on_train),
        "violations": sum(len(f) != len(set(f)) or not all(map(vocab.is_herb, f))
                          for f in on_train.values()),
        "test_bmp5": bmp5(split.test, decoded(split.test)),
    }


def _no_mixing() -> dict:
    """c6 (runs inside the tree's process)."""
    from fmash.dataio import generate_conflicting_corpus
    from fmash.nn import stage_rng
    from fmash.refine import UnifiedEmbedding
    from fmash.seqgen import generate, train_seq

    # a tree from before the formula size was fixed at 6 takes it as an argument
    size = ({"herbs_per_formula": 6} if "herbs_per_formula"
            in inspect.signature(generate_conflicting_corpus).parameters else {})
    symptoms, herbs, prescriptions = generate_conflicting_corpus(10, seed=3, **size)
    emb = UnifiedEmbedding(matrix=stage_rng(3, "acc.conflict.emb").normal(
        size=(len(symptoms) + len(herbs), 64)), n_sym=len(symptoms))
    params = train_seq(prescriptions, emb, epochs=250, lr=3e-3, batch_size=None,
                       seed=C6_SEED).params
    pure = 0
    for a, b in zip(prescriptions[::2], prescriptions[1::2]):
        formula = set(generate(a.symptoms, params, max_len=15))
        pure += bool(formula) and (formula <= set(a.herbs) or formula <= set(b.herbs))
    return {"pure": pure, "pairs": len(prescriptions) // 2}


def _contract_commands(root: Path, serve_only: bool) -> list[list[str]]:
    cfg, work = str(root / "run.json"), root / "work"
    serve = ([["impute-mol", "--config", cfg, "--out", str(work / "imputed.tsv")]]
             + [["recommend", "--config", cfg, "--symptoms", q, "--k", "10"]
                for q in QUERIES]
             + [["generate", "--config", cfg, "--symptoms", q] for q in QUERIES])
    if serve_only:
        return serve
    return [["synth", "--out", str(root / "corpus")],
            ["synth", "--mode", "conflicting", "--out", str(root / "conflicting")],
            ["prepare", "--config", cfg], ["train-rs", "--config", cfg],
            ["train-seq", "--config", cfg],
            ["evaluate", "--config", cfg, "--pred", str(work / "rs_predictions.tsv")],
            ["evaluate", "--config", cfg, "--pred", str(work / "seq_predictions.tsv"),
             "--head", "seq"]] + serve


def _contract_job(mode: str, variant: str, root: Path) -> dict:
    """Each command's exit code, stdout and stderr lines (runs inside the
    tree's process); ``train`` first writes the variant's config to
    ``root/run.json``, ``serve`` runs the serving commands on ``root``."""
    from fmash.cli import execute_command

    if mode == "train":
        root.mkdir(parents=True)
        cfg = {**CONTRACT_CONFIG, "ablation": VARIANTS[variant],
               "paths": {"corpus": str(root / "corpus"), "workdir": str(root / "work")}}
        (root / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
    outputs = {}
    for argv in _contract_commands(root, serve_only=mode == "serve"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = execute_command(argv)
        outputs[" ".join(argv)] = {"exit": code, "stdout": out.getvalue().splitlines(),
                                   "stderr": err.getvalue().splitlines()}
    return outputs


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _line_diff(a: list[str], b: list[str]) -> list[str]:
    """The removed (``-``) and added (``+``) lines, without the file and
    hunk headers."""
    diff = list(difflib.unified_diff(a, b, n=0, lineterm=""))[2:]
    return [line for line in diff if not line.startswith("@@")]


def _prediction_diff(name: str, a: bytes, b: bytes) -> list[str]:
    """What moved between two prediction exports of the same instances."""
    rows = [dict(line.split("\t") for line in raw.decode("utf-8").splitlines())
            for raw in (a, b)]
    common = sorted(rows[0].keys() & rows[1].keys(), key=int)
    if name.endswith("seq_predictions.tsv"):
        changed = [f"instance {i}: {rows[0][i] or '(empty)'} -> {rows[1][i] or '(empty)'}"
                   for i in common if rows[0][i] != rows[1][i]]
        return [f"{len(changed)}/{len(common)} formulas changed"] + changed

    def ranked_scores(entries: str) -> tuple[list[str], dict[str, float]]:
        pairs = [tok.split(":") for tok in entries.split(",") if tok]
        return [h for h, _ in pairs], {h: float(s) for h, s in pairs}

    ranked, top5, largest = 0, 0, 0.0
    for i in common:
        (order_a, score_a), (order_b, score_b) = (ranked_scores(r[i]) for r in rows)
        ranked += order_a != order_b
        top5 += order_a[:5] != order_b[:5]
        largest = max([largest] + [abs(score_a[h] - score_b[h])
                                   for h in score_a.keys() & score_b.keys()])
    return [f"{ranked}/{len(common)} rankings changed, {top5} top-5 lists changed, "
            f"largest score change {largest:.3g}"]


def _report(title: str, files: tuple[dict, dict], outputs: tuple[dict, dict]) -> None:
    """Print every file and command output of the parent (first) and the
    change (second) that differs; the change's outputs may cover a subset
    of the parent's commands."""
    differing = []
    for name in sorted(set(files[0]) | set(files[1])):
        a, b = files[0].get(name), files[1].get(name)
        if a == b:
            continue
        differing.append(f"file {name}")
        if a is None or b is None:
            differing.append(f"  only in the {'change' if a is None else 'parent'}")
            continue
        try:
            lines = (_prediction_diff(name, a, b) if name.endswith("_predictions.tsv")
                     else _line_diff(a.decode("utf-8").splitlines(),
                                     b.decode("utf-8").splitlines()))
        except UnicodeDecodeError:
            lines = [f"  binary, {len(a)} -> {len(b)} bytes"]
        differing += [f"  {line}" for line in lines]
    for argv, b in outputs[1].items():
        a = outputs[0].get(argv)
        if a != b:
            differing.append(f"command {argv}")
            if a is None:
                differing.append("  not run on the parent")
                continue
            if a["exit"] != b["exit"]:
                differing.append(f"  exit {a['exit']} -> {b['exit']}")
            for stream in ("stdout", "stderr"):
                differing += [f"  {stream} {line}" for line in _line_diff(a[stream], b[stream])]
    failed = sum(out["exit"] != 0 for out in outputs[1].values())
    print(f"{title}: {len(set(files[0]) | set(files[1]))} files, {len(outputs[1])} "
          f"commands ({failed} exited non-zero on the change); "
          f"{'all byte-identical' if not differing else 'differences:'}")
    for line in differing:
        print(f"  {line}")


def contract(parent: Path, change: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root, kept = Path(tmp) / "run", Path(tmp) / "parent"
        for variant, ablation in VARIANTS.items():
            outputs, files = [], []
            for tree in (parent, change):
                outputs.append(_run(tree, 1, f"contract:train:{variant}:{root}"))
                files.append(_files(root))
                if tree is parent:
                    root.rename(kept)
                else:
                    shutil.rmtree(root)
            _report(f"{variant} (ablation {ablation or 'as is'})", tuple(files),
                    tuple(outputs))
            kept.rename(root)
            served = _run(change, 1, f"contract:serve:{variant}:{root}")
            _report(f"{variant}: the parent's checkpoints served by the change",
                    (files[0], _files(root)), (outputs[0], served))
            shutil.rmtree(root)


def _run(tree: Path, threads: int, job: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, __file__, "--job", job], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _margin(row: dict, key: str) -> str:
    return f"{row[key]:.3f} ({row[key] - GATES[key]:+.3f})"


def main(trees: list[Path]) -> None:
    print("tree | thr | seed | rs loss @150/@200/final | containment | P@5 | "
          "seq loss @150/@200/final | exact | BMP@5 | viol | test BMP@5")
    for i, seed in enumerate(SEEDS):
        for threads in THREADS:
            order = trees if i % 2 == 0 else trees[::-1]
            rows = {tree: _run(tree, threads, f"memorization:{seed}") for tree in order}
            for tree in trees:
                row = rows[tree]
                rs_loss = "/".join(f"{v:.4f}" for v in row["rs_loss"])
                seq_loss = "/".join(f"{v:.4f}" for v in row["seq_loss"])
                print(f"{tree.name} | {threads} | {seed} | {rs_loss} | "
                      f"{_margin(row, 'containment')} | {_margin(row, 'p5')} | {seq_loss} | "
                      f"{_margin(row, 'exact')} | {_margin(row, 'bmp5')} | "
                      f"{row['violations']} | {row['test_bmp5']:.3f}", flush=True)
    for threads in THREADS:
        for tree in trees:
            row = _run(tree, threads, "no_mixing")
            print(f"{tree.name} | {threads} | c6 seed {C6_SEED} | "
                  f"{row['pure']}/{row['pairs']} pure", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--job"]:
        name, _, arg = sys.argv[2].partition(":")
        if name == "contract":
            mode, variant, root = arg.split(":", 2)
            print(json.dumps(_contract_job(mode, variant, Path(root))))
        else:
            print(json.dumps(_memorization(int(arg)) if name == "memorization"
                             else _no_mixing()))
    elif sys.argv[1:2] == ["--contract"] and len(sys.argv) == 4:
        contract(*(Path(arg).resolve() for arg in sys.argv[2:]))
    elif 1 <= len(sys.argv) - 1 <= 2:
        main([Path(arg).resolve() for arg in sys.argv[1:]])
    else:
        sys.exit(__doc__)
