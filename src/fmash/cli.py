"""Command-line surface: prepare -> train -> predict -> evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
``FMASH_SEED`` in the environment overrides the configured seed.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config
from .dataio import (HERBS_FILE, PRESCRIPTIONS_FILE, SYMPTOMS_FILE, DatasetSplit,
                     build_graph, generate_conflicting_corpus, generate_synthetic,
                     load_corpus, load_vocab, save_corpus, save_molecular_table,
                     split_dataset)
from .errors import ConfigError, DataError, FmashError, NumericError, SchemaError
from .evalkit import evaluate_run
from .mlfie import MlfieParams, impute_missing
from .nn import Module
from .pipeline import phase1_key, phase1_state, run_phase1
from .recsys import make_rs_params, recommend, train_rs
from .recsys import export_predictions as export_rs_predictions
from .refine import UNIFIED_DIM, UnifiedEmbedding, export_unified
from .seqgen import Seq2SeqParams, generate, train_seq
from .seqgen import export_predictions as export_seq_predictions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SPLITS_FILE = "splits.json"
PHASE1_FILE = "phase1.ckpt"
VOCAB_FILE = "vocab.json"
# Bumped whenever ``load_vocab`` accepts or rejects other bytes, so a memo
# written by an older ``prepare`` falls back to validating the corpus again.
_VOCAB_FORMAT = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and reused: parsing
    leaves it unchanged."""
    parser = _Parser(prog="fmash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic fixture corpus")
    synth.add_argument("--out", required=True)
    synth.add_argument("--n-sym", type=int, default=40)
    synth.add_argument("--n-herb", type=int, default=60)
    synth.add_argument("--n-syndromes", type=int, default=5)
    synth.add_argument("--n-prescriptions", type=int, default=200)
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--missing-mol-fraction", type=float, default=0.2)
    synth.add_argument("--mode", choices=["clustered", "conflicting"],
                       default="clustered")

    for name in ("prepare", "train-rs", "train-seq"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)

    impute = sub.add_parser("impute-mol",
                            help="export VAE-imputed vectors for herbs "
                                 "without molecular data")
    impute.add_argument("--config", required=True)
    impute.add_argument("--out", required=True)

    rec = sub.add_parser("recommend")
    rec.add_argument("--config", required=True)
    rec.add_argument("--symptoms", required=True,
                     help="comma-separated symptom names")
    rec.add_argument("--k", type=int, required=True)

    gen = sub.add_parser("generate")
    gen.add_argument("--config", required=True)
    gen.add_argument("--symptoms", required=True)

    ev = sub.add_parser("evaluate")
    ev.add_argument("--config", required=True)
    ev.add_argument("--pred", required=True)
    ev.add_argument("--k", default="5,10,20",
                    help="comma-separated cutoffs, e.g. 5,10,20")
    ev.add_argument("--head", choices=["rs", "seq"], default="rs")
    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> RunConfig:
    cfg = parse_config(path)
    seed_env = os.environ.get("FMASH_SEED")
    if seed_env is not None:
        try:
            cfg.train.seed = int(seed_env)
        except ValueError as exc:
            raise ConfigError(f"FMASH_SEED must be an integer, got {seed_env!r}") from exc
        if cfg.train.seed < 0:
            raise ConfigError(f"FMASH_SEED must be >= 0, got {seed_env!r}")
    return cfg


def _workdir(cfg: RunConfig) -> Path:
    wd = Path(cfg.paths.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    return wd


def _load_splits(cfg: RunConfig) -> DatasetSplit:
    """The corpus prescriptions in the split ``prepare`` wrote."""
    _, _, prescriptions = load_corpus(cfg.paths.corpus, expected_p=cfg.dims.p)
    path = Path(cfg.paths.workdir) / SPLITS_FILE
    if not path.exists():
        raise DataError(f"missing {path}; run `fmash prepare` first")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:    # bad JSON or bad UTF-8
        raise SchemaError(f"{path}: invalid JSON ({exc}); rerun `fmash prepare`") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    by_id = {p.instance_id: p for p in prescriptions}
    parts = {}
    for part in ("train", "valid", "test"):
        ids = obj.get(part)
        if not isinstance(ids, list):
            raise SchemaError(f"{path}: {part!r} must be a list of instance ids, "
                              f"got {ids!r}")
        unknown = [i for i in ids if type(i) is not int or i not in by_id]
        if unknown:
            raise SchemaError(f"{path}: {part!r} references unknown instance "
                              f"{unknown[0]!r}")
        parts[part] = [by_id[i] for i in ids]
    seed = obj.get("seed")
    if type(seed) is not int:
        raise SchemaError(f"{path}: 'seed' must be an integer, got {seed!r}")
    return DatasetSplit(seed=seed, **parts)


def _resolve_symptom_names(arg: str, symptom_names: list[str]) -> list[int]:
    names = [tok.strip() for tok in arg.split(",") if tok.strip()]
    if not names:
        raise DataError("no symptom names given")
    by_name = {name: i for i, name in enumerate(symptom_names)}
    ids = []
    for name in names:
        if name not in by_name:
            close = difflib.get_close_matches(name, by_name, n=3)
            hint = f"; did you mean: {', '.join(close)}" if close else ""
            raise DataError(f"unknown symptom {name!r}{hint}")
        ids.append(by_name[name])
    return ids


def _unified_table(path: Path, state, writer: str) -> UnifiedEmbedding:
    """The unified table ``phase1_state`` put into ``state``, read from the
    checkpoint ``path`` that ``fmash <writer>`` writes."""
    try:
        matrix, n_sym = state["unified.matrix"], state["unified.n_sym"].reshape(-1)[0]
    except (KeyError, IndexError) as exc:
        raise SchemaError(f"{path}: no unified table; not a checkpoint written "
                          f"by {writer}") from exc
    if matrix.ndim != 2 or not (float(n_sym).is_integer()
                                and 1 <= n_sym < matrix.shape[0]):
        raise SchemaError(f"{path}: malformed unified table (matrix shape "
                          f"{matrix.shape}, n_sym {n_sym!r})")
    if matrix.shape[1] != UNIFIED_DIM:
        raise SchemaError(f"{path}: unified table is {matrix.shape[1]} wide, "
                          f"expected {UNIFIED_DIM}")
    return UnifiedEmbedding(matrix=matrix, n_sym=int(n_sym))


def _file_digest(path: Path) -> bytes:
    """The digest every artifact key takes of an input file's bytes."""
    return hashlib.blake2b(path.read_bytes()).digest()


def _phase1_inputs_key(cfg: RunConfig) -> str:
    """``phase1_key`` plus a digest of the other phase-1 inputs: the corpus
    files and ``splits.json``."""
    corpus, digest = Path(cfg.paths.corpus), hashlib.blake2b(digest_size=16)
    for path in (corpus / SYMPTOMS_FILE, corpus / HERBS_FILE,
                 corpus / PRESCRIPTIONS_FILE, Path(cfg.paths.workdir) / SPLITS_FILE):
        digest.update(_file_digest(path))
    return f"{phase1_key(cfg)}-{digest.hexdigest()}"


def _vocab_key(cfg: RunConfig, names: list[list[str]]) -> str:
    """A digest of the memo's names and of every input ``load_vocab`` reads:
    the symptom and herb files and ``dims.p``, plus the memo format."""
    corpus = Path(cfg.paths.corpus)
    digest = hashlib.blake2b(f"{_VOCAB_FORMAT}:{cfg.dims.p}:{json.dumps(names)}"
                             .encode(), digest_size=16)
    for path in (corpus / SYMPTOMS_FILE, corpus / HERBS_FILE):
        digest.update(_file_digest(path))
    return digest.hexdigest()


def _save_vocab(cfg: RunConfig, symptoms, herbs) -> None:
    """Write ``vocab.json``: the names ``load_vocab`` just validated, in id
    order, with the key that vouches for them and their inputs."""
    names = [[r.name for r in symptoms], [r.name for r in herbs]]
    memo = {"key": _vocab_key(cfg, names), "names": names}
    (Path(cfg.paths.workdir) / VOCAB_FILE).write_text(json.dumps(memo) + "\n",
                                                    encoding="utf-8")


def _vocab_names(cfg: RunConfig) -> tuple[list[str], list[str]]:
    """Symptom and herb names in id order: from ``vocab.json`` when its key
    matches its names and the current inputs, otherwise from ``load_vocab``,
    which validates the corpus files with its own errors."""
    try:
        memo = json.loads((Path(cfg.paths.workdir) / VOCAB_FILE).read_bytes())
        if memo["key"] == _vocab_key(cfg, memo["names"]):
            symptom_names, herb_names = memo["names"]
            return symptom_names, herb_names
    except (OSError, ValueError, LookupError, TypeError):
        pass    # no usable memo: read the corpus as if there were none
    symptoms, herbs = load_vocab(cfg.paths.corpus, expected_p=cfg.dims.p)
    return [r.name for r in symptoms], [r.name for r in herbs]


def _load_phase1(cfg: RunConfig):
    """The phase-1 state ``prepare`` saved and its unified table; exit 2
    unless it was built from the current phase-1 inputs."""
    path = Path(cfg.paths.workdir) / PHASE1_FILE
    if not path.exists():
        raise DataError(f"missing {path}; run `fmash prepare` first")
    state, key = load_checkpoint(path)
    if key != _phase1_inputs_key(cfg):
        raise DataError(f"{path} was built from another config, FMASH_SEED, "
                        f"corpus or splits.json than the current ones; rerun "
                        f"`fmash prepare`")
    return state, _unified_table(path, state, "prepare")


def _load_params(params, path: Path, state, name: str, fault: str):
    """Load ``path``'s ``<name>.*`` tensors into ``params``; exit 2 on a
    mismatch, naming each tensor as the file stores it."""
    stored = Module()
    setattr(stored, name, params)
    try:
        stored.load_state_dict({k: v for k, v in state.items()
                                if k.startswith(f"{name}.")})
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: {fault} ({exc.args[0]})") from exc
    return params


def _load_head(cfg: RunConfig, head: str, n_sym: int, n_herb: int):
    """The unified table and the ``head`` parameters saved by ``train-<head>``,
    built as the current config expects without an initialization draw; exit
    2 unless the table covers the corpus vocabulary."""
    path = Path(cfg.paths.workdir) / f"{head}.ckpt"
    state, _ = load_checkpoint(path)
    emb = _unified_table(path, state, f"train-{head}")
    if (emb.n_sym, emb.n_herb) != (n_sym, n_herb):
        raise SchemaError(f"{path} was trained on {emb.n_sym} symptoms and "
                          f"{emb.n_herb} herbs, but {cfg.paths.corpus} has "
                          f"{n_sym} symptoms and {n_herb} herbs; "
                          f"rerun `fmash prepare` and `fmash train-{head}`")
    params = (make_rs_params(emb, None, gelram=cfg.ablation.gelram,
                             d_enc=cfg.dims.d_enc)
              if head == "rs" else Seq2SeqParams(emb, None))
    return emb, _load_params(params, path, state, head,
                             "trained with a different head config")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    if args.mode == "conflicting":
        sym, herbs, pres = generate_conflicting_corpus(
            n_pairs=args.n_prescriptions // 2, herbs_per_formula=6,
            seed=args.seed, p_dim=23)
    else:
        sym, herbs, pres = generate_synthetic(
            args.n_sym, args.n_herb, args.n_syndromes, args.n_prescriptions,
            seed=args.seed, missing_mol_fraction=args.missing_mol_fraction)
    save_corpus(args.out, sym, herbs, pres)
    print(f"wrote {len(sym)} symptoms, {len(herbs)} herbs, "
          f"{len(pres)} prescriptions to {args.out}")
    return EXIT_OK


def _cmd_prepare(args) -> int:
    cfg = _load_config(args.config)
    symptoms, herbs, prescriptions = load_corpus(cfg.paths.corpus,
                                                 expected_p=cfg.dims.p)
    split = split_dataset(prescriptions, tuple(cfg.train.ratio), cfg.train.seed)
    graph = build_graph(split.train, len(symptoms), len(herbs),
                        tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
    wd = _workdir(cfg)
    payload = {"seed": split.seed, "ratio": cfg.train.ratio,
               "train": [p.instance_id for p in split.train],
               "valid": [p.instance_id for p in split.valid],
               "test": [p.instance_id for p in split.test]}
    (wd / SPLITS_FILE).write_text(json.dumps(payload, sort_keys=True) + "\n",
                                  encoding="utf-8")
    _save_vocab(cfg, symptoms, herbs)
    print(f"vocab: {len(symptoms)} symptoms, {len(herbs)} herbs")
    print(f"splits: {len(split.train)}/{len(split.valid)}/{len(split.test)}")
    print(f"graph edges: ss={len(graph.edges_ss)} hh={len(graph.edges_hh)} "
          f"sh={len(graph.edges_sh)}")
    phase1 = run_phase1(symptoms, herbs, graph, cfg)
    save_checkpoint(wd / PHASE1_FILE, phase1_state(phase1), _phase1_inputs_key(cfg))
    export_unified(wd / "unified.csv", phase1.unified.matrix, phase1.unified.n_sym)
    for name, losses in phase1.histories.items():
        trend = f", loss {losses[0]:.4g} -> {losses[-1]:.4g}" if losses else ""
        print(f"phase 1 {name}: {len(losses)} epochs{trend}")
    print(f"artifacts: {wd / SPLITS_FILE}, {wd / VOCAB_FILE}, {wd / PHASE1_FILE}, "
          f"{wd / 'unified.csv'}")
    return EXIT_OK


def _cmd_train(args) -> int:
    """Fit one head; its checkpoint holds only the unified table and the head."""
    cfg = _load_config(args.config)
    split = _load_splits(cfg)
    phase1, unified = _load_phase1(cfg)
    wd = _workdir(cfg)
    opts = dict(epochs=cfg.train.epochs, lr=cfg.train.lr,
                batch_size=cfg.train.batch or None, seed=cfg.train.seed)
    if args.command == "train-rs":
        head, title = "rs", "ranking"
        result = train_rs(split.train, unified, gelram=cfg.ablation.gelram,
                          d_enc=cfg.dims.d_enc, **opts)
        export_rs_predictions(wd / "rs_predictions.tsv", split.test, unified,
                              result.params)
    else:
        head, title = "seq", "sequence"
        result = train_seq(split.train, unified, **opts)
        export_seq_predictions(wd / "seq_predictions.tsv", split.test,
                               result.params, max_len=cfg.train.seq_max_len)
    state = {k: v for k, v in phase1.items() if k.startswith("unified.")}
    state.update({f"{head}.{k}": v for k, v in result.params.state_dict().items()})
    save_checkpoint(wd / f"{head}.ckpt", state)
    final = result.losses[-1] if result.losses else float("nan")
    print(f"trained {title} head: {len(result.losses)} epochs, "
          f"final loss {final:.4f}")
    print(f"artifacts: {wd / f'{head}.ckpt'}, {wd / f'{head}_predictions.tsv'}")
    return EXIT_OK


def _cmd_impute_mol(args) -> int:
    cfg = _load_config(args.config)
    _, herbs = load_vocab(cfg.paths.corpus, expected_p=cfg.dims.p)
    missing = [h for h in herbs if not h.molecules]
    if not missing:
        raise DataError("no herbs with missing molecular data to impute")
    if not cfg.ablation.mlfie:
        raise DataError(f"ablation.mlfie is false, so {PHASE1_FILE} holds no "
                        f"molecular stage to impute with")
    state, _ = _load_phase1(cfg)
    d = cfg.dims
    mlfie = MlfieParams(len(herbs), d.p, d.d_m, d.d_k, d.d_z, None)
    _load_params(mlfie, Path(cfg.paths.workdir) / PHASE1_FILE, state, "mlfie",
                 "its molecular stage does not match the config")
    imputed = impute_missing([h.properties for h in missing], mlfie.vae)
    table = {h.id: row for h, row in zip(missing, imputed)}
    save_molecular_table(args.out, table, d_m=cfg.dims.d_m)
    print(f"imputed {len(table)} herbs -> {args.out}")
    return EXIT_OK


def _cmd_recommend(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    cfg = _load_config(args.config)
    symptoms, herbs = _vocab_names(cfg)
    emb, params = _load_head(cfg, "rs", len(symptoms), len(herbs))
    if args.k > emb.n_herb:
        raise UsageError(f"--k exceeds the herb vocabulary ({emb.n_herb})")
    ids = _resolve_symptom_names(args.symptoms, symptoms)
    for rank, (herb_id, score) in enumerate(recommend(ids, args.k, params, emb),
                                            start=1):
        print(f"{rank}\t{herbs[herb_id]}\t{score:.4f}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    symptoms, herbs = _vocab_names(cfg)
    _, params = _load_head(cfg, "seq", len(symptoms), len(herbs))
    ids = _resolve_symptom_names(args.symptoms, symptoms)
    formula = generate(ids, params, max_len=cfg.train.seq_max_len)
    if not formula:
        print("(empty formula)")
    for herb_id in formula:
        print(herbs[herb_id])
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    try:
        ks = [int(tok) for tok in args.k.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--k must be comma-separated integers: {args.k!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"--k entries must be >= 1: {args.k!r}")
    split = _load_splits(cfg)
    pred = Path(args.pred)
    if not pred.exists():
        raise DataError(f"prediction file not found: {pred}; train a head first")
    report = evaluate_run(pred, split.test, ks, head=args.head,
                          model=f"fmash_{args.head}",
                          config={"seed": cfg.train.seed, "ks": ks})
    wd = _workdir(cfg)
    out = wd / f"report_{args.head}.json"
    report.save(out)
    for line in report.summary_lines():
        print(line)
    print(f"report written to {out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "prepare": _cmd_prepare,
    "train-rs": _cmd_train,
    "train-seq": _cmd_train,
    "impute-mol": _cmd_impute_mol,
    "recommend": _cmd_recommend,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
}


def execute_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, ConfigError, DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FmashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
